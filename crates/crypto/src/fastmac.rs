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
    /// `point^1 ..= point^16` for the polynomial hash, each in `[1, P-1]`.
    /// The 16-limb step reads all of them, the 4-limb step the first four.
    powers: [u64; 16],
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

/// Three 61-bit digits of `x < 2^128` (the top one `< 2^6`), each worth 1
/// mod P, summed: `< 2^62 + 2^6`, congruent to `x`.
#[inline(always)]
fn fold(x: u128) -> u64 {
    (x as u64 & P) + ((x >> 61) as u64 & P) + (x >> 122) as u64
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
    reduce(fold(sum)) // < 2^62 + 2^6
}

/// Sixteen Horner steps at once, `acc*p^16 + l0*p^15 + ... + l14*p + l15`,
/// for `acc < 2^61 + 4` and `powers = [p, ..., p^16]`, each `< P`; the
/// result is congruent to it mod P and below `2^61 + 4`, not canonical.
///
/// Only the `acc * p^16` product waits for the previous step; the fifteen
/// limb products do not, so the multiplier runs at its throughput. They are
/// gathered in four partial sums of at most four products each. Every
/// limb product is below `2^64 * 2^61 = 2^125` and `acc * p^16` below
/// `(2^61 + 4) * 2^61 = 2^122 + 2^63`, so
///
/// * `s0 + s3 < (2^122 + 2^63 + 3 * 2^125) + (4 * 2^125 + 2^64) < 2^128`,
/// * `s1 + s2 < 8 * 2^125 = 2^128`,
///
/// and neither pair overflows its `u128`. Each pair folds to below
/// `2^62 + 2^6`, the two folds sum to below `2^63 + 2^7`, and one more fold
/// of that (`< 2^61 + 2^2`) restores the bound on `acc`. The canonical
/// `reduce` is left to whoever reads the accumulator next.
#[inline(always)]
fn horner_step16(acc: u64, powers: &[u64; 16], block: &[u8; 128]) -> u64 {
    let l = |i: usize| u128::from(limb(&block[8 * i..8 * i + 8]));
    let p = |e: usize| u128::from(powers[e - 1]);
    let s0 = l(0) * p(15) + l(1) * p(14) + l(2) * p(13) + u128::from(acc) * p(16);
    let s1 = l(3) * p(12) + l(4) * p(11) + l(5) * p(10) + l(6) * p(9);
    let s2 = l(7) * p(8) + l(8) * p(7) + l(9) * p(6) + l(10) * p(5);
    let s3 = l(11) * p(4) + l(12) * p(3) + l(13) * p(2) + l(14) * p(1) + l(15);
    let x = fold(s0 + s3) + fold(s1 + s2); // < 2^63 + 2^7
    (x & P) + (x >> 61)
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
        let mut powers = [point; 16];
        for i in 1..16 {
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
    /// little-endian limbs, sixteen limbs per step while 128 bytes remain
    /// (the accumulator only partially reduced in between), then four. `acc`
    /// starts at 1, which distinguishes the empty message from zero limbs;
    /// it is canonical on entry and on return.
    #[inline(always)]
    fn absorb_blocks(&self, mut acc: u64, blocks: &[u8]) -> u64 {
        let (wide, rest) = blocks.as_chunks::<128>();
        for b in wide {
            acc = horner_step16(acc, &self.powers, b);
        }
        acc = reduce(acc);
        let powers = self.powers.first_chunk().expect("16 powers");
        for b in rest.as_chunks::<32>().0 {
            let limbs = [0, 8, 16, 24].map(|i| limb(&b[i..i + 8]));
            acc = horner_step4(acc, powers, limbs);
        }
        acc
    }

    /// The last `tail` (< 32 bytes) of a `len`-byte message: its whole limbs,
    /// the final partial limb zero-padded, then the length — so that ("ab",
    /// "") and ("a", "b...") cannot collide — and the nonce; the hash is
    /// encrypted with the nonce's pad.
    ///
    /// The `k <= 6` terms `t_i` are one sum, `acc*p^k + sum t_i*p^(k-1-i)`,
    /// not `k` dependent Horner steps: with `acc < 2^61`, every power below
    /// `2^61` and every term below `2^64` the sum of its seven terms is below
    /// `7 * 2^125 < 2^128`, and one fold and a `reduce` make it canonical.
    #[inline(always)]
    fn finish(&self, acc: u64, tail: &[u8], len: usize, nonce: u64) -> Mac64 {
        let mul = |x: u64, power: u64| u128::from(x) * u128::from(power);
        let rem = tail.len() % 8;
        let k = tail.len() / 8 + usize::from(rem > 0) + 2;
        let powers = &self.powers[..k];
        let mut sum = mul(acc, powers[k - 1]) + mul(len as u64, powers[0]) + u128::from(nonce);
        for (i, c) in tail.chunks_exact(8).enumerate() {
            sum += mul(limb(c), powers[k - 2 - i]);
        }
        if rem > 0 {
            let mut last = [0u8; 8];
            last[..rem].copy_from_slice(&tail[tail.len() - rem..]);
            sum += mul(u64::from_le_bytes(last), powers[1]);
        }
        let hash = reduce(fold(sum));
        let tabled = usize::try_from(nonce).ok().and_then(|i| self.pads.get(i));
        let pad = match tabled {
            Some(&pad) => pad,
            None => pad_for(&self.pad, nonce),
        };
        Mac64(hash ^ pad)
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

    /// Every length up to 4 KiB plus 127 — all residues mod 128 (the
    /// 4-limb blocks and whole limbs the 16-limb loop leaves over) and mod 8
    /// (the partial limb) at every 16-limb block count — over saturated
    /// bytes, whose limbs (>= 2^61) reach the top of every fold, and over
    /// random ones.
    #[test]
    fn crosscheck_prop_matches_reference_at_every_length() {
        const MAX_LEN: usize = 4096 + 127;
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

    /// Splits at every offset within 33 bytes of a 128-byte boundary, one
    /// cut or two: a part that ends just before or after a 16-limb block,
    /// and a 32-byte carry that shifts where the next part's 16-limb blocks
    /// start, MAC as the joined message.
    #[test]
    fn crosscheck_mac_parts_split_near_every_wide_block_boundary() {
        let k = key(9);
        let len = 4 * 128 + 40;
        for msg in [vec![0xff; len], pattern(len)] {
            let expect = k.mac(&msg, 1);
            let cuts: Vec<usize> = (1..=4).flat_map(|b| 128 * b - 33..=128 * b + 33).collect();
            for (i, &a) in cuts.iter().enumerate() {
                let two = k.mac_parts(&[&msg[..a], &msg[a..]], 1);
                assert_eq!(two, expect, "cut at {a}");
                for &b in &cuts[i..] {
                    let three = k.mac_parts(&[&msg[..a], &msg[a..b], &msg[b..]], 1);
                    assert_eq!(three, expect, "cuts at {a} and {b}");
                }
            }
        }
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

    /// The largest 16-limb step the bounds allow — the accumulator at its
    /// partial-reduction ceiling, every limb `u64::MAX`, every power `P - 1`
    /// — does not overflow a `u128` (debug builds trap it), keeps the
    /// accumulator below the ceiling, and reduces to the right residue.
    #[test]
    fn crosscheck_horner_step16_at_the_extremes() {
        const CEILING: u64 = (1 << 61) + 3;
        let p = u128::from(P);
        let term = |x: u64, y: u64| u128::from(x) * u128::from(y) % p;
        for (acc, power, l) in [
            (CEILING, P - 1, u64::MAX),
            (CEILING, P - 1, 0),
            (CEILING, 1, P),
            (P - 1, P - 1, u64::MAX),
            (0, 1, 0),
            (0, P - 1, u64::MAX),
            (1, 1, 1),
        ] {
            let expect = (term(acc, power) + 15 * term(l, power) + u128::from(l) % p) % p;
            let block: Vec<u8> = (0..16).flat_map(|_| l.to_le_bytes()).collect();
            let got = horner_step16(acc, &[power; 16], block.as_slice().try_into().unwrap());
            assert!(got <= CEILING, "acc {acc} power {power} limb {l}: {got}");
            assert_eq!(
                u128::from(reduce(got)),
                expect,
                "acc {acc} power {power} limb {l}"
            );
        }
    }

    /// `finish` sums every tail term at once and folds once: at every tail
    /// length its hash is the one the dependent Horner steps give, for
    /// random keys, and at the bound (accumulator `P - 1`, saturated tail,
    /// length and nonce `u64::MAX`, every power `P - 1`) it is canonical.
    #[test]
    fn crosscheck_finish_folds_once_at_every_tail_length() {
        let p = u128::from(P);
        let unpadded = |k: &FastMacKey, tag: Mac64, nonce: u64| tag.0 ^ pad_for(&k.pad, nonce);
        propcheck::check("fastmac_finish_tails", 16, |g| {
            let k = FastMacKey::from_session_key(&g.byte_array());
            let point = u128::from(k.powers[0]);
            let acc = g.u64_in(0..P);
            let data = g.bytes(31..32);
            let (len, nonce) = (g.u64_in(0..u64::MAX) as usize, g.u64_in(0..u64::MAX));
            for t in 0..=31 {
                let mut expect = u128::from(acc);
                for c in data[..t].chunks(8) {
                    let mut limb = [0u8; 8];
                    limb[..c.len()].copy_from_slice(c);
                    expect = (expect * point + u128::from(u64::from_le_bytes(limb))) % p;
                }
                expect = (expect * point + len as u128) % p;
                expect = (expect * point + u128::from(nonce)) % p;
                let got = unpadded(&k, k.finish(acc, &data[..t], len, nonce), nonce);
                assert_eq!(u128::from(got), expect, "tail {t}");
            }
        });
        let mut k = key(2);
        k.powers = [P - 1; 16];
        let term = |x: u64| u128::from(x) * u128::from(P - 1) % p;
        for t in 0..=31 {
            let tail = [0xff; 31];
            // Every limb the tail makes, zero-padded, then the length: each
            // times `P - 1`; the nonce last, unmultiplied.
            let limbs = tail[..t].chunks(8).map(|c| {
                let mut limb = [0u8; 8];
                limb[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(limb)
            });
            let sum: u128 = limbs.chain([u64::MAX]).map(term).sum();
            let expect = (term(P - 1) + sum + u128::from(u64::MAX)) % p;
            let tag = k.finish(P - 1, &tail[..t], u64::MAX as usize, u64::MAX);
            let got = unpadded(&k, tag, u64::MAX);
            assert_eq!(u128::from(got), expect, "tail {t}");
        }
    }

    #[test]
    fn key_is_small_comparable_and_opaque() {
        // Sixteen powers of the evaluation point, the two tabled pads and
        // two SHA-256 chaining values: nothing that grows with use.
        assert_eq!(std::mem::size_of::<FastMacKey>(), 208);
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
