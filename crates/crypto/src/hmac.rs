//! HMAC-SHA256 (RFC 2104), used for key derivation and "strong" MACs.

use std::fmt;

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key, absorbed once.
///
/// HMAC hashes `key ^ ipad` before the message and `key ^ opad` before the
/// inner digest; both are exactly one SHA-256 block, so a key that is used
/// repeatedly keeps the two chaining values reached after those blocks
/// (64 bytes) and each MAC resumes from them. A short message then costs two
/// compressions instead of four.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The chaining values are as good as the key.
        write!(f, "HmacKey(..)")
    }
}

impl HmacKey {
    /// Absorb `key` (hashed first if longer than a block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(crate::sha256::sha256(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner: Sha256::first_block_state(&k.map(|b| b ^ 0x36)),
            outer: Sha256::first_block_state(&k.map(|b| b ^ 0x5c)),
        }
    }

    /// HMAC of the concatenation of `parts`, without allocating.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::after_first_block(self.inner);
        for p in parts {
            inner.update(p);
        }
        let mut outer = Sha256::after_first_block(self.outer);
        outer.update(inner.finish().as_bytes());
        outer.finish()
    }
}

/// Compute HMAC-SHA256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[msg])
}

/// Derive a subkey from `key` for the given `label`/`context` (HKDF-like,
/// single expansion step). Used to turn one session key into per-purpose keys
/// (e.g. request MAC vs reply MAC directions).
pub fn derive_key(key: &[u8], label: &str, context: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[label.as_bytes(), &[0], context]).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{pattern, sha256_scalar};

    /// RFC 2104 by the book, `H((K ^ opad) || H((K ^ ipad) || msg))`, over
    /// the scalar SHA-256 back end: no midstates, no SHA-NI.
    fn hmac_reference(key: &[u8], msg: &[u8]) -> Digest {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(sha256_scalar(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(msg);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(sha256_scalar(&inner).as_bytes());
        sha256_scalar(&outer)
    }

    fn check_vector(key: &[u8], msg: &[u8], hex: &str) {
        assert_eq!(hmac_sha256(key, msg).to_string(), hex, "keyed midstates");
        assert_eq!(hmac_reference(key, msg).to_string(), hex, "reference");
    }

    #[test]
    fn crosscheck_rfc4231_vectors_on_both_back_ends() {
        check_vector(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
        check_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
        check_vector(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
        // Key longer than a block: hashed first.
        check_vector(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    /// Outputs of the allocating, unkeyed implementation this one replaced
    /// (commit 87ffb01).
    #[test]
    fn crosscheck_golden_macs_and_derived_keys() {
        check_vector(
            &pattern(20),
            &pattern(300),
            "94d89eccb425fbde06efc5aac29a6ed11dbd2cfff1c7a3ad75cec9af5430b02a",
        );
        check_vector(
            &pattern(200),
            &pattern(64),
            "b2c79f17a9d5e0b58fe925d32b1ec95409e48990eec1187734cbf9c88be38615",
        );
        assert_eq!(
            Digest(derive_key(&pattern(32), "replica-pair", &pattern(12))).to_string(),
            "77d1defccf9491071a50a176a631e6002ece5db135637da50773f6c19df94b95"
        );
        assert_eq!(
            Digest(derive_key(&[7; 32], "fastmac-pad", b"")).to_string(),
            "dabb4dfc7d44ceac403ad89a4b4211dacb274409e7be396a629f7144f1f2a75a"
        );
    }

    #[test]
    fn keyed_mac_streams_parts() {
        let key = HmacKey::new(b"session key");
        let whole = key.mac(&[b"label\0context"]);
        assert_eq!(key.mac(&[b"label", &[0], b"context"]), whole);
        assert_eq!(hmac_sha256(b"session key", b"label\0context"), whole);
        assert_eq!(key, HmacKey::new(b"session key"));
        assert_ne!(key, HmacKey::new(b"session kez"));
        assert_eq!(std::mem::size_of::<HmacKey>(), 64);
        assert_eq!(format!("{key:?}"), "HmacKey(..)");
    }

    #[test]
    fn derive_key_separates_labels() {
        let k = b"session key";
        let a = derive_key(k, "in", b"ctx");
        let b = derive_key(k, "out", b"ctx");
        let c = derive_key(k, "in", b"ctx2");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_key(k, "in", b"ctx"));
    }
}
