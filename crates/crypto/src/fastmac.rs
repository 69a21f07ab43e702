//! A UMAC-style fast message authentication code with 64-bit tags.
//!
//! The PBFT library replaced per-message public-key signatures with
//! *authenticators* built from UMAC32 tags — the single most important
//! optimization in the system (Table 1 of the paper shows a ~16x throughput
//! swing). This module provides the structural equivalent: a polynomial
//! universal hash over the prime field `2^61 - 1`, encrypted with an
//! HMAC-derived pad. It is one multiplication per 8 message bytes, i.e.
//! orders of magnitude cheaper than a signature, which is exactly the cost
//! asymmetry the paper's experiments depend on.

use std::fmt;

use crate::hmac::{derive_key, HmacKey};

/// The Mersenne prime 2^61 - 1.
const P: u64 = (1 << 61) - 1;

/// A 64-bit MAC tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Mac64(pub u64);

impl Mac64 {
    /// Tag bytes in big-endian order (for the wire codec).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parse a tag from wire bytes.
    pub fn from_bytes(b: [u8; 8]) -> Self {
        Mac64(u64::from_be_bytes(b))
    }
}

/// Nonces whose pad is computed once per key. The pad is a function of
/// (key, nonce) only, and PBFT separates exactly two domains: 0 for requests
/// and replica multicasts, 1 for replies.
const TABLED_NONCES: usize = 2;

/// Keyed fast MAC. Cheap to construct from a 32-byte session key.
#[derive(Clone, PartialEq, Eq)]
pub struct FastMacKey {
    /// `point^1 ..= point^4` for the polynomial hash, each in `[1, P-1]`.
    powers: [u64; 4],
    /// The pads of nonces `0..TABLED_NONCES`.
    pads: [u64; TABLED_NONCES],
    /// Pad key for encrypting the hash output under any other nonce,
    /// absorbed once.
    pad: HmacKey,
}

impl fmt::Debug for FastMacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The powers and pads are as good as the key.
        write!(f, "FastMacKey(..)")
    }
}

/// Reduce `x < 2^63` to its canonical residue mod P.
///
/// `2^61 = 1 (mod P)`, so a value is congruent to its low 61 bits plus the
/// rest shifted down ("folding"); no division is needed.
#[inline]
fn reduce(x: u64) -> u64 {
    let r = (x & P) + (x >> 61); // <= P + 3
    if r >= P {
        r - P
    } else {
        r
    }
}

/// One Horner step, `(acc * point + limb) mod P`, for `acc, point < P`.
#[inline]
fn horner_step(acc: u64, point: u64, limb: u64) -> u64 {
    let prod = u128::from(acc) * u128::from(point); // < 2^122
    let prod = (prod as u64 & P) + (prod >> 61) as u64; // < 2^62
    reduce(prod + (limb & P) + (limb >> 61)) // < 2^63
}

/// Four Horner steps at once: `acc*p^4 + l0*p^3 + l1*p^2 + l2*p + l3 mod P`
/// for `acc < P` and `powers = [p, p^2, p^3, p^4]`, each `< P`.
///
/// The four products are independent of each other (one Horner step per limb
/// is a chain of dependent multiply-folds) and are folded once: with `acc`
/// and every power below `2^61` and every limb below `2^64`, the sum is below
/// `2^122 + 3 * 2^125 + 2^64 < 2^128`.
#[inline]
fn horner_step4(acc: u64, powers: &[u64; 4], limbs: [u64; 4]) -> u64 {
    let [p1, p2, p3, p4] = powers.map(u128::from);
    let [l0, l1, l2, l3] = limbs.map(u128::from);
    let sum = u128::from(acc) * p4 + l0 * p3 + l1 * p2 + l2 * p1 + l3;
    // Three 61-bit digits (the top one < 2^6), each worth 1 mod P.
    let lo = sum as u64 & P;
    let mid = (sum >> 61) as u64 & P;
    let top = (sum >> 122) as u64;
    reduce(lo + mid + top) // < 2^62 + 2^6
}

fn limb(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

impl FastMacKey {
    /// Derive a fast-MAC key from 32 bytes of session key material.
    pub fn from_session_key(session_key: &[u8; 32]) -> Self {
        let point_bytes = derive_key(session_key, "fastmac-point", b"");
        let pad_key = derive_key(session_key, "fastmac-pad", b"");
        // Map into [1, P-1].
        let point = limb(&point_bytes[..8]) % (P - 1) + 1;
        let mut powers = [point; 4];
        for i in 1..4 {
            powers[i] = horner_step(powers[i - 1], point, 0);
        }
        let pad = HmacKey::new(&pad_key);
        let pads = std::array::from_fn(|nonce| pad_for(&pad, nonce as u64));
        FastMacKey { powers, pads, pad }
    }

    /// MAC `msg`, mixing in a `nonce` that callers use for domain separation
    /// (PBFT uses distinct nonces for request vs reply directions).
    pub fn mac(&self, msg: &[u8], nonce: u64) -> Mac64 {
        let whole = msg.len() / 32 * 32;
        let acc = self.absorb_blocks(1, &msg[..whole]);
        self.finish(acc, &msg[whole..], msg.len(), nonce)
    }

    /// MAC the concatenation of `parts` without joining them: equal to
    /// [`FastMacKey::mac`] of the joined bytes.
    pub fn mac_parts(&self, parts: &[&[u8]], nonce: u64) -> Mac64 {
        // A block that straddles two parts is assembled in `carry`.
        let mut carry = [0u8; 32];
        let (mut held, mut len, mut acc) = (0, 0, 1);
        for &part in parts {
            len += part.len();
            let mut rest = part;
            if held > 0 {
                let take = rest.len().min(32 - held);
                carry[held..held + take].copy_from_slice(&rest[..take]);
                (held, rest) = (held + take, &rest[take..]);
                if held < 32 {
                    continue;
                }
                acc = self.absorb_blocks(acc, &carry);
            }
            let whole = rest.len() / 32 * 32;
            acc = self.absorb_blocks(acc, &rest[..whole]);
            held = rest.len() - whole;
            carry[..held].copy_from_slice(&rest[whole..]);
        }
        self.finish(acc, &carry[..held], len, nonce)
    }

    /// Polynomial evaluation over whole 32-byte blocks: `msg` as 8-byte
    /// little-endian limbs, four limbs per step. `acc` starts at 1, which
    /// distinguishes the empty message from zero limbs.
    #[inline(always)]
    fn absorb_blocks(&self, mut acc: u64, blocks: &[u8]) -> u64 {
        for b in blocks.chunks_exact(32) {
            let limbs = [
                limb(&b[..8]),
                limb(&b[8..16]),
                limb(&b[16..24]),
                limb(&b[24..]),
            ];
            acc = horner_step4(acc, &self.powers, limbs);
        }
        acc
    }

    /// The last `tail` (< 32 bytes) of a `len`-byte message: its whole limbs,
    /// the final partial limb zero-padded, then the length — so that ("ab",
    /// "") and ("a", "b...") cannot collide — and the nonce; the hash is
    /// encrypted with the nonce's pad.
    #[inline(always)]
    fn finish(&self, mut acc: u64, tail: &[u8], len: usize, nonce: u64) -> Mac64 {
        let point = self.powers[0];
        let mut chunks = tail.chunks_exact(8);
        for c in chunks.by_ref() {
            acc = horner_step(acc, point, limb(c));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            acc = horner_step(acc, point, u64::from_le_bytes(last));
        }
        acc = horner_step(acc, point, len as u64);
        acc = horner_step(acc, point, nonce);
        let tabled = usize::try_from(nonce).ok().and_then(|i| self.pads.get(i));
        let pad = match tabled {
            Some(&pad) => pad,
            None => pad_for(&self.pad, nonce),
        };
        Mac64(acc ^ pad)
    }

    /// Verify a tag.
    pub fn verify(&self, msg: &[u8], nonce: u64, tag: Mac64) -> bool {
        self.mac(msg, nonce) == tag
    }
}

/// The HMAC-derived pad of `nonce`: the first 8 bytes of
/// `derive_key(pad_key, "pad", nonce)`, from the absorbed key.
fn pad_for(pad: &HmacKey, nonce: u64) -> u64 {
    limb(&pad.mac(&[b"pad\0", &nonce.to_be_bytes()]).0[..8])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::pattern;

    fn key(b: u8) -> FastMacKey {
        FastMacKey::from_session_key(&[b; 32])
    }

    /// The formula this module shipped with before the Mersenne fold, the
    /// four-lane step, the absorbed pad key and the pad table: `% P` on
    /// `u128` per limb, `derive_key` per tag.
    fn mac_reference(session_key: &[u8; 32], msg: &[u8], nonce: u64) -> Mac64 {
        const P: u128 = (1u128 << 61) - 1;
        let point_bytes = derive_key(session_key, "fastmac-point", b"");
        let pad_key = derive_key(session_key, "fastmac-pad", b"");
        let raw = u64::from_le_bytes(point_bytes[..8].try_into().expect("8 bytes"));
        let point = u128::from(raw) % (P - 1) + 1;
        let mut acc: u128 = 1;
        for c in msg.chunks(8) {
            let mut limb = [0u8; 8];
            limb[..c.len()].copy_from_slice(c);
            acc = (acc * point + u128::from(u64::from_le_bytes(limb))) % P;
        }
        acc = (acc * point + msg.len() as u128) % P;
        acc = (acc * point + u128::from(nonce)) % P;
        let pad = derive_key(&pad_key, "pad", &nonce.to_be_bytes());
        let pad64 = u64::from_le_bytes(pad[..8].try_into().expect("8 bytes"));
        Mac64((acc as u64) ^ pad64)
    }

    const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 1024, 1027];
    const NONCES: [u64; 3] = [0, 5, u64::MAX];

    #[test]
    fn crosscheck_prop_mac_matches_reference() {
        propcheck::check("fastmac_matches_reference", 64, |g| {
            let session_key: [u8; 32] = g.byte_array();
            let k = FastMacKey::from_session_key(&session_key);
            // Saturated limbs reach the top of every fold; random bytes
            // almost never do.
            let fill = if g.bool() { Some(0xff) } else { None };
            for len in LENGTHS {
                let msg = match fill {
                    Some(b) => vec![b; len],
                    None => g.bytes(len..len + 1),
                };
                for nonce in NONCES {
                    assert_eq!(
                        k.mac(&msg, nonce),
                        mac_reference(&session_key, &msg, nonce),
                        "len {len} nonce {nonce}"
                    );
                }
            }
        });
    }

    /// Every length up to 4 KiB plus 31 — all residues mod 32 (the whole
    /// limbs the four-lane loop leaves over) and mod 8 (the partial limb) at
    /// every block count — over saturated bytes, whose limbs (>= 2^61) reach
    /// the top of every fold, and over random ones.
    #[test]
    fn crosscheck_prop_four_lane_matches_reference_at_every_length() {
        const MAX_LEN: usize = 4096 + 31;
        propcheck::check("fastmac_every_length", 2, |g| {
            let session_key: [u8; 32] = g.byte_array();
            let k = FastMacKey::from_session_key(&session_key);
            let nonce = g.u64_in(0..2);
            for data in [vec![0xff; MAX_LEN], g.bytes(MAX_LEN..MAX_LEN + 1)] {
                for len in 0..=MAX_LEN {
                    let msg = &data[..len];
                    let expect = mac_reference(&session_key, msg, nonce);
                    assert_eq!(k.mac(msg, nonce), expect, "len {len}");
                }
            }
        });
    }

    /// Nonces 0 and 1 read their pad from the table, every other nonce
    /// derives it per tag: the table holds what the HMAC path computes, and
    /// both agree with the reference.
    #[test]
    fn crosscheck_prop_tabled_pads_match_the_hmac_path() {
        propcheck::check("fastmac_tabled_pads", 32, |g| {
            let session_key: [u8; 32] = g.byte_array();
            let k = FastMacKey::from_session_key(&session_key);
            let msg = g.bytes(0..100);
            for (nonce, &tabled) in k.pads.iter().enumerate() {
                assert_eq!(tabled, pad_for(&k.pad, nonce as u64), "nonce {nonce}");
            }
            for nonce in [0, 1, 2, 5, 42, u64::MAX] {
                let expect = mac_reference(&session_key, &msg, nonce);
                assert_eq!(k.mac(&msg, nonce), expect, "nonce {nonce}");
            }
        });
    }

    /// Tags computed on commit 87ffb01, by the code `mac_reference` copies.
    #[test]
    fn crosscheck_golden_tags() {
        const GOLDEN: [[u64; 3]; 10] = [
            [0xdeff5d2416c80fd3, 0xf40dc256d1cda952, 0x9588ef1501026a8c],
            [0xd2b52afc94cb3eb5, 0xf847b58e53ce9830, 0x99c298cd83015bea],
            [0xc504739a1d07ff69, 0xeff6ece8da0259f4, 0x8e73c1ab0acd9a26],
            [0xdad7e13d077ad5e9, 0xf0257e4fc07f7374, 0x91a0530c10b0b0a6],
            [0xc9363ca5fb60393e, 0xe3c4a3d73c659fa9, 0x82418e94ecaa5c73],
            [0xc7756ba16e71003d, 0xed87f4d3a974a6a8, 0x8c02d99079bb6572],
            [0xdc7ad316fb95d709, 0xf6884c643c907194, 0x970d6127ec5fb246],
            [0xc5f0c90eedf0fa4f, 0xef02567c2af55cde, 0x8e877b3ffa3a9f00],
            [0xd89e43b31004e4ea, 0xf26cdcc1d7014275, 0x93e9f18207ce81a7],
            [0xd46a1602f7dc3510, 0xfe98897030d9938f, 0x9f1da433e0165051],
        ];
        let k = key(7);
        for (len, tags) in LENGTHS.into_iter().zip(GOLDEN) {
            for (nonce, tag) in NONCES.into_iter().zip(tags) {
                assert_eq!(k.mac(&pattern(len), nonce), Mac64(tag), "len {len}");
            }
        }
        assert_eq!(k.mac(&[0xff; 64], u64::MAX), Mac64(0x971fb19c8d626acc));
    }

    /// Any split of a message into parts MACs as the joined message: parts
    /// that end inside a block, empty parts, and one part per byte.
    #[test]
    fn crosscheck_prop_mac_parts_matches_the_joined_message() {
        propcheck::check("fastmac_parts", 64, |g| {
            let k = FastMacKey::from_session_key(&g.byte_array());
            let msg = g.bytes(0..200);
            let nonce = g.u64_in(0..3);
            let mut cuts: Vec<usize> = (0..g.u64_in(0..6))
                .map(|_| g.u64_in(0..msg.len() as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([msg.len()]) {
                parts.push(&msg[at..cut]);
                at = cut;
            }
            let expect = k.mac(&msg, nonce);
            assert_eq!(k.mac_parts(&parts, nonce), expect, "cut into {parts:?}");
            let bytes: Vec<&[u8]> = msg.chunks(1).collect();
            assert_eq!(k.mac_parts(&bytes, nonce), expect, "one part per byte");
            assert_eq!(k.mac_parts(&[&msg, &[]], nonce), expect, "an empty tail");
        });
    }

    #[test]
    fn horner_step_reduces_fully_at_the_extremes() {
        for (acc, point, limb) in [
            (0, 1, 0),
            (P - 1, P - 1, u64::MAX),
            (P - 1, 1, 1),
            (1, P - 1, P),
            (P - 1, P - 1, 0),
        ] {
            let expect = (u128::from(acc) * u128::from(point) + u128::from(limb)) % u128::from(P);
            assert_eq!(u128::from(horner_step(acc, point, limb)), expect);
        }
    }

    #[test]
    fn horner_step4_reduces_fully_at_the_extremes() {
        // The first case is the largest sum the bounds allow (debug builds
        // would trap an overflow of the `u128`).
        for (acc, power, l) in [
            (P - 1, P - 1, u64::MAX),
            (P - 1, P - 1, 0),
            (0, 1, 0),
            (0, 1, P),
            (P - 1, 1, 1),
            (1, P - 1, P - 1),
        ] {
            let p = u128::from(P);
            let term = |x: u64, y: u64| u128::from(x) * u128::from(y) % p;
            let expect = (term(acc, power) + 3 * term(l, power) + u128::from(l) % p) % p;
            let got = horner_step4(acc, &[power; 4], [l; 4]);
            assert_eq!(u128::from(got), expect, "acc {acc} power {power} limb {l}");
        }
    }

    #[test]
    fn key_is_small_comparable_and_opaque() {
        // Four powers of the evaluation point, the two tabled pads and two
        // SHA-256 chaining values: nothing that grows with use.
        assert_eq!(std::mem::size_of::<FastMacKey>(), 112);
        assert_eq!(key(1), key(1));
        assert_ne!(key(1), key(2));
        assert_eq!(format!("{:?}", key(1)), "FastMacKey(..)");
    }

    #[test]
    fn roundtrip() {
        let k = key(1);
        let tag = k.mac(b"hello world", 7);
        assert!(k.verify(b"hello world", 7, tag));
    }

    #[test]
    fn detects_modification() {
        let k = key(1);
        let tag = k.mac(b"hello world", 7);
        assert!(!k.verify(b"hello worle", 7, tag));
        assert!(!k.verify(b"hello worl", 7, tag));
        assert!(!k.verify(b"hello world", 8, tag));
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = key(1).mac(b"msg", 0);
        let t2 = key(2).mac(b"msg", 0);
        assert_ne!(t1, t2);
    }

    #[test]
    fn length_extension_resistant() {
        let k = key(3);
        // "ab" + "" vs "a" + "b" style collisions on the limb boundary.
        let t1 = k.mac(b"\x00\x00\x00\x00\x00\x00\x00\x00", 0);
        let t2 = k.mac(b"\x00\x00\x00\x00\x00\x00\x00", 0);
        let t3 = k.mac(b"", 0);
        assert_ne!(t1, t2);
        assert_ne!(t2, t3);
        assert_ne!(t1, t3);
    }

    #[test]
    fn wire_roundtrip() {
        let t = key(4).mac(b"x", 1);
        assert_eq!(Mac64::from_bytes(t.to_bytes()), t);
    }

    #[test]
    fn empty_message_has_tag() {
        let k = key(5);
        let t = k.mac(b"", 42);
        assert!(k.verify(b"", 42, t));
    }
}
