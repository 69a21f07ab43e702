//! A UMAC-style fast message authentication code with 64-bit tags.
//!
//! The PBFT library replaced per-message public-key signatures with
//! *authenticators* built from UMAC32 tags — the single most important
//! optimization in the system (Table 1 of the paper shows a ~16x throughput
//! swing). This module provides the structural equivalent: a polynomial
//! universal hash over the prime field `2^61 - 1`, encrypted with an
//! HMAC-derived pad. It is a few multiplications per 8 message bytes, i.e.
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

/// Keyed fast MAC. Cheap to construct from a 32-byte session key.
#[derive(Clone, PartialEq, Eq)]
pub struct FastMacKey {
    /// Evaluation point for the polynomial hash, in `[1, P-1]`.
    point: u64,
    /// Pad key for encrypting the hash output, absorbed once.
    pad: HmacKey,
}

impl fmt::Debug for FastMacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FastMacKey(..)")
    }
}

/// One Horner step, `(acc * point + limb) mod P`, for `acc, point < P`.
///
/// `2^61 = 1 (mod P)`, so a value is congruent to its low 61 bits plus the
/// rest shifted down ("folding"); no division is needed.
#[inline]
fn horner_step(acc: u64, point: u64, limb: u64) -> u64 {
    let prod = u128::from(acc) * u128::from(point); // < 2^122
    let prod = (prod as u64 & P) + (prod >> 61) as u64; // < 2^62
    let sum = prod + (limb & P) + (limb >> 61); // < 2^63
    let r = (sum & P) + (sum >> 61); // <= P + 3
    if r >= P {
        r - P
    } else {
        r
    }
}

impl FastMacKey {
    /// Derive a fast-MAC key from 32 bytes of session key material.
    pub fn from_session_key(session_key: &[u8; 32]) -> Self {
        let point_bytes = derive_key(session_key, "fastmac-point", b"");
        let pad_key = derive_key(session_key, "fastmac-pad", b"");
        let raw = u64::from_le_bytes(point_bytes[..8].try_into().expect("8 bytes"));
        FastMacKey {
            // Map into [1, P-1].
            point: raw % (P - 1) + 1,
            pad: HmacKey::new(&pad_key),
        }
    }

    /// MAC `msg`, mixing in a `nonce` that callers use for domain separation
    /// (PBFT uses distinct nonces for request vs reply directions).
    pub fn mac(&self, msg: &[u8], nonce: u64) -> Mac64 {
        // Polynomial evaluation: treat msg as 8-byte little-endian limbs
        // (with the final partial limb zero-padded and the length appended so
        // that ("ab", "") and ("a", "b...") cannot collide).
        let mut acc: u64 = 1; // distinguishes empty message from zero limbs
        let mut chunks = msg.chunks_exact(8);
        for c in chunks.by_ref() {
            let limb = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            acc = horner_step(acc, self.point, limb);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            acc = horner_step(acc, self.point, u64::from_le_bytes(last));
        }
        acc = horner_step(acc, self.point, msg.len() as u64);
        acc = horner_step(acc, self.point, nonce);
        // Encrypt the 61-bit hash with an HMAC-derived pad keyed by the
        // nonce: `derive_key(pad_key, "pad", nonce)`, from the absorbed key.
        let pad = self.pad.mac(&[b"pad\0", &nonce.to_be_bytes()]);
        let pad64 = u64::from_le_bytes(pad.0[..8].try_into().expect("8 bytes"));
        Mac64(acc ^ pad64)
    }

    /// Verify a tag.
    pub fn verify(&self, msg: &[u8], nonce: u64, tag: Mac64) -> bool {
        self.mac(msg, nonce) == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::pattern;

    fn key(b: u8) -> FastMacKey {
        FastMacKey::from_session_key(&[b; 32])
    }

    /// The formula this module shipped with before the Mersenne fold and the
    /// absorbed pad key: `% P` on `u128` per limb, `derive_key` per tag.
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
    fn key_is_small_comparable_and_opaque() {
        // Evaluation point + two SHA-256 chaining values: no tables.
        assert_eq!(std::mem::size_of::<FastMacKey>(), 72);
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
