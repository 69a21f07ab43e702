//! PBFT authenticators: a vector of fast MACs, one per receiving replica.
//!
//! A client (or replica) shares a distinct session key with every replica and
//! attaches to each message an *authenticator* — one [`Mac64`] per replica,
//! all over the same message bytes. Each receiver checks only its own entry.
//! This is the optimization that lets PBFT avoid a public-key signature per
//! message, and its interaction with recovery is the subject of the paper's
//! §2.3 (a restarted replica has lost the session keys and can validate
//! nothing until the periodic key retransmission arrives).

use std::fmt;

use crate::fastmac::{FastMacKey, Mac64};

/// A session key shared between one sender and one receiver.
#[derive(Clone, PartialEq, Eq)]
pub struct MacKey {
    bytes: [u8; 32],
    fast: FastMacKey,
}

impl fmt::Debug for MacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacKey(..)")
    }
}

impl MacKey {
    /// Wrap raw session key bytes.
    pub fn new(bytes: [u8; 32]) -> Self {
        let fast = FastMacKey::from_session_key(&bytes);
        MacKey { bytes, fast }
    }

    /// The raw key bytes (needed to ship the key inside a signed NewKey
    /// message).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// MAC a message under this key.
    pub fn mac(&self, msg: &[u8], nonce: u64) -> Mac64 {
        self.fast.mac(msg, nonce)
    }

    /// Verify a tag.
    pub fn verify(&self, msg: &[u8], nonce: u64, tag: Mac64) -> bool {
        self.fast.verify(msg, nonce, tag)
    }

    /// MAC the concatenation of `parts` (equal to [`MacKey::mac`] of the
    /// joined bytes, without joining them).
    pub fn mac_parts(&self, parts: &[&[u8]], nonce: u64) -> Mac64 {
        self.fast.mac_parts(parts, nonce)
    }

    /// Verify a tag over the concatenation of `parts`.
    pub fn verify_parts(&self, parts: &[&[u8]], nonce: u64, tag: Mac64) -> bool {
        self.fast.mac_parts(parts, nonce) == tag
    }
}

/// An authenticator: `(receiver index, tag)` pairs in receiver order.
///
/// The receiver indices are protocol-level replica indices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Authenticator {
    entries: Vec<(u32, Mac64)>,
}

impl Authenticator {
    /// Build an authenticator over `msg` for all `(replica index, key)` pairs.
    pub fn generate<'a, I>(keys: I, msg: &[u8], nonce: u64) -> Authenticator
    where
        I: IntoIterator<Item = (u32, &'a MacKey)>,
    {
        let entries = keys
            .into_iter()
            .map(|(idx, key)| (idx, key.mac(msg, nonce)))
            .collect();
        Authenticator { entries }
    }

    /// Number of MAC entries (the paper's authenticator size is `n`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the tag for a particular receiver.
    pub fn tag_for(&self, replica: u32) -> Option<Mac64> {
        self.entries
            .iter()
            .find(|(idx, _)| *idx == replica)
            .map(|(_, t)| *t)
    }

    /// Iterate over `(replica, tag)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Mac64)> + '_ {
        self.entries.iter().copied()
    }

    /// Construct from raw entries (wire decoding).
    pub fn from_entries(entries: Vec<(u32, Mac64)>) -> Self {
        Authenticator { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<MacKey> {
        (0..n).map(|i| MacKey::new([i as u8 + 1; 32])).collect()
    }

    #[test]
    fn each_receiver_verifies_its_entry() {
        let ks = keys(4);
        let auth = Authenticator::generate(
            ks.iter().enumerate().map(|(i, k)| (i as u32, k)),
            b"request",
            5,
        );
        assert_eq!(auth.len(), 4);
        for (i, k) in ks.iter().enumerate() {
            assert!(k.verify(b"request", 5, auth.tag_for(i as u32).unwrap()));
        }
    }

    #[test]
    fn wrong_key_fails() {
        let ks = keys(4);
        let auth = Authenticator::generate(
            ks.iter().enumerate().map(|(i, k)| (i as u32, k)),
            b"request",
            5,
        );
        let other = MacKey::new([0xee; 32]);
        assert!(!other.verify(b"request", 5, auth.tag_for(0).unwrap()));
    }

    #[test]
    fn missing_entry_fails() {
        let ks = keys(2);
        let auth = Authenticator::generate(
            ks.iter().enumerate().map(|(i, k)| (i as u32, k)),
            b"request",
            5,
        );
        assert_eq!(auth.tag_for(7), None);
    }

    #[test]
    fn tampered_message_fails() {
        let ks = keys(4);
        let auth = Authenticator::generate(
            ks.iter().enumerate().map(|(i, k)| (i as u32, k)),
            b"request",
            5,
        );
        assert!(!ks[0].verify(b"requesT", 5, auth.tag_for(0).unwrap()));
    }

    #[test]
    fn entries_roundtrip() {
        let ks = keys(3);
        let auth =
            Authenticator::generate(ks.iter().enumerate().map(|(i, k)| (i as u32, k)), b"m", 0);
        let rebuilt = Authenticator::from_entries(auth.iter().collect());
        assert_eq!(auth, rebuilt);
        assert!(!rebuilt.is_empty());
    }

    #[test]
    fn mac_key_debug_hides_bytes() {
        let k = MacKey::new([9; 32]);
        assert_eq!(format!("{k:?}"), "MacKey(..)");
    }
}
