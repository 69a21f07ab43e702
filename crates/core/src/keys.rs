//! Key management for replicas and clients.
//!
//! Replicas share pairwise MAC session keys (established out of band at
//! group configuration, as PBFT assumes) and know each other's public keys.
//! Client MAC session keys are **transient**: they are distributed via
//! signed NewKey messages and periodically re-broadcast ("the blind
//! retransmission of the authenticators from each node to all replicas,
//! based on a timer"). A restarted replica has lost them — the root cause of
//! the erratic recovery the paper documents in §2.3.

use pbft_crypto::auth::{Authenticator, MacKey};
use pbft_crypto::hmac::derive_key;
use pbft_crypto::{KeyPair, Mac64, PublicKey, Signature};

use crate::config::AuthMode;
use crate::messages::AuthTag;
use crate::output::OpCounts;
use crate::types::{ClientId, FoldMap, FoldState, ReplicaId};

/// Deterministically derive a node key pair from the deployment seed.
pub fn node_keypair(
    group_seed: u64,
    replica: Option<ReplicaId>,
    client: Option<ClientId>,
) -> KeyPair {
    let tag = match (replica, client) {
        (Some(r), None) => 0x1000_0000_0000_0000u64 | u64::from(r.0),
        (None, Some(c)) => 0x2000_0000_0000_0000u64 | c.0,
        _ => 0x3000_0000_0000_0000u64,
    };
    KeyPair::generate(group_seed ^ tag)
}

/// Derive the pairwise replica↔replica MAC key.
pub fn replica_pair_key(group_seed: u64, a: ReplicaId, b: ReplicaId) -> MacKey {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let mut ctx = Vec::with_capacity(16);
    ctx.extend_from_slice(&u64::from(lo).to_be_bytes());
    ctx.extend_from_slice(&u64::from(hi).to_be_bytes());
    MacKey::new(derive_key(&group_seed.to_be_bytes(), "replica-pair", &ctx))
}

/// Derive the client→replica session key a *client* generates for a replica.
/// (Clients generate fresh keys in reality; deterministic derivation keeps
/// simulations reproducible and lets static deployments pre-install them.)
pub fn client_session_key(group_seed: u64, client: ClientId, replica: ReplicaId) -> MacKey {
    let mut ctx = Vec::with_capacity(16);
    ctx.extend_from_slice(&client.0.to_be_bytes());
    ctx.extend_from_slice(&u64::from(replica.0).to_be_bytes());
    MacKey::new(derive_key(
        &group_seed.to_be_bytes(),
        "client-session",
        &ctx,
    ))
}

/// A replica-side key store.
pub struct KeyStore {
    me: ReplicaId,
    n: usize,
    group_seed: u64,
    keypair: KeyPair,
    replica_pubkeys: Vec<PublicKey>,
    replica_keys: Vec<MacKey>,
    /// Transient client session keys (lost on restart — §2.3).
    client_keys: FoldMap<ClientId, MacKey>,
    /// Client public keys (static config or learned from Joins).
    client_pubkeys: FoldMap<ClientId, PublicKey>,
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("clients", &self.client_keys.len())
            .finish()
    }
}

impl KeyStore {
    /// Build the store for replica `me` of a group of `n`.
    ///
    /// `preinstalled_clients` are clients whose session keys are installed
    /// immediately (modeling a completed startup key exchange in static
    /// deployments). Pass an empty slice to model a freshly *restarted*
    /// replica, which has lost all client session keys.
    pub fn new_replica(
        group_seed: u64,
        me: ReplicaId,
        n: usize,
        preinstalled_clients: &[ClientId],
    ) -> KeyStore {
        let keypair = node_keypair(group_seed, Some(me), None);
        let replica_pubkeys = (0..n as u32)
            .map(ReplicaId)
            .map(|r| {
                if r == me {
                    keypair.public()
                } else {
                    node_keypair(group_seed, Some(r), None).public()
                }
            })
            .collect();
        let replica_keys = (0..n as u32)
            .map(|i| replica_pair_key(group_seed, me, ReplicaId(i)))
            .collect();
        let hash_state = FoldState::keyed(group_seed, u64::from(me.0));
        let mut client_keys = FoldMap::with_hasher(hash_state);
        let mut client_pubkeys = FoldMap::with_hasher(hash_state);
        for &c in preinstalled_clients {
            client_keys.insert(c, client_session_key(group_seed, c, me));
            client_pubkeys.insert(c, node_keypair(group_seed, None, Some(c)).public());
        }
        KeyStore {
            me,
            n,
            group_seed,
            keypair,
            replica_pubkeys,
            replica_keys,
            client_keys,
            client_pubkeys,
        }
    }

    /// This replica's id.
    pub fn me(&self) -> ReplicaId {
        self.me
    }

    /// This replica's signing key pair.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The key of this replica's digest- and client-keyed maps, derived
    /// here once from the deployment seed and the replica's id.
    pub fn hash_state(&self) -> FoldState {
        *self.client_keys.hasher()
    }

    /// The deployment seed (used to derive static client keys lazily).
    pub fn group_seed(&self) -> u64 {
        self.group_seed
    }

    /// The public key a *static* deployment's configuration assigns to
    /// `client`, derived from the deployment seed. Static configuration —
    /// unlike session MAC keys — survives a restart, so a restarted replica
    /// uses this to verify a client's signed blind NewKey and re-learn its
    /// session key (the §2.3 recovery path), and to verify signature-mode
    /// requests. Meaningless for dynamic members, whose public keys arrive
    /// with their Join.
    pub fn static_client_pubkey(&self, client: ClientId) -> PublicKey {
        node_keypair(self.group_seed, None, Some(client)).public()
    }

    /// Verify `sig` over `prefix` by the public key a static deployment's
    /// configuration assigns to `client` ([`KeyStore::static_client_pubkey`]),
    /// and install that key only if it verifies: a claim to a client id that
    /// fails authentication leaves no entry behind.
    pub fn verify_static_client_sig(
        &mut self,
        client: ClientId,
        prefix: &[u8],
        sig: &Signature,
        counts: &mut OpCounts,
    ) -> bool {
        counts.sig_verify += 1;
        let pk = self.static_client_pubkey(client);
        let ok = pk.verify(prefix, sig).is_ok();
        if ok {
            self.install_client_pubkey(client, pk);
        }
        ok
    }

    /// Install a client session key (from a verified NewKey message).
    pub fn install_client_key(&mut self, client: ClientId, key: [u8; 32]) {
        self.client_keys.insert(client, MacKey::new(key));
    }

    /// Record a client's public key (static config or from a Join).
    pub fn install_client_pubkey(&mut self, client: ClientId, pk: PublicKey) {
        self.client_pubkeys.insert(client, pk);
    }

    /// Forget a client entirely (its session ended).
    pub fn remove_client(&mut self, client: ClientId) {
        self.client_keys.remove(&client);
        self.client_pubkeys.remove(&client);
    }

    /// A client's public key, if known.
    pub fn client_pubkey(&self, client: ClientId) -> Option<PublicKey> {
        self.client_pubkeys.get(&client).copied()
    }

    /// Authenticate an outgoing replica-multicast message prefix: one MAC
    /// per peer over the prefix itself, under the pair key (nonce 0). Pair
    /// keys authenticate nothing else, so the prefix needs no digest first.
    pub fn seal_multicast(&self, mode: AuthMode, prefix: &[u8], counts: &mut OpCounts) -> AuthTag {
        match mode {
            AuthMode::Macs => {
                let entries: Vec<(u32, Mac64)> = (0..self.n as u32)
                    .filter(|&i| i != self.me.0)
                    .map(|i| (i, self.replica_keys[i as usize].mac(prefix, 0)))
                    .collect();
                counts.mac_gen += entries.len() as u64;
                AuthTag::Authenticator(Authenticator::from_entries(entries))
            }
            AuthMode::Signatures => {
                counts.sign += 1;
                AuthTag::Sig(self.keypair.sign(prefix))
            }
        }
    }

    /// Whether this replica can authenticate a reply to `client`: always
    /// under signatures, and under MACs once it holds the client's session
    /// key.
    pub(crate) fn can_seal_to_client(&self, mode: AuthMode, client: ClientId) -> bool {
        mode == AuthMode::Signatures || self.client_keys.contains_key(&client)
    }

    /// Authenticate an outgoing reply to a client: its wire `prefix`
    /// followed by `omitted`, the result a body-less reply (a *vouch*)
    /// leaves out — empty for a full reply, whose result is in the prefix.
    /// Falls back to unauthenticated when no session key exists (join
    /// replies) — clients protect themselves by matching f+1 identical
    /// replies.
    pub fn seal_to_client(
        &self,
        mode: AuthMode,
        client: ClientId,
        prefix: &[u8],
        omitted: &[u8],
        counts: &mut OpCounts,
    ) -> AuthTag {
        match mode {
            AuthMode::Macs => match self.client_keys.get(&client) {
                Some(k) => {
                    counts.mac_gen += 1;
                    AuthTag::Mac(k.mac_parts(&[prefix, omitted], 1))
                }
                None => AuthTag::None,
            },
            AuthMode::Signatures => {
                counts.sign += 1;
                AuthTag::Sig(self.keypair.sign_parts(&[prefix, omitted]))
            }
        }
    }

    /// Verify a packet from a fellow replica.
    pub fn verify_from_replica(
        &self,
        from: ReplicaId,
        prefix: &[u8],
        auth: &AuthTag,
        counts: &mut OpCounts,
    ) -> bool {
        if from.0 as usize >= self.n || from == self.me {
            return false;
        }
        match auth {
            AuthTag::Authenticator(a) => {
                counts.mac_verify += 1;
                a.verify_for(self.me.0, &self.replica_keys[from.0 as usize], prefix, 0)
            }
            AuthTag::Sig(sig) => {
                counts.sig_verify += 1;
                self.replica_pubkeys[from.0 as usize]
                    .verify(prefix, sig)
                    .is_ok()
            }
            _ => false,
        }
    }

    /// Verify a single *borrowed* authenticator entry from peer `from` —
    /// the zero-copy receive path, where the caller extracted its own MAC
    /// from the wire-form authenticator without materializing the vector.
    /// Accepts exactly when [`KeyStore::verify_from_replica`] would accept
    /// an authenticator whose entry for this replica is `mac`.
    pub fn verify_replica_entry(
        &self,
        from: ReplicaId,
        prefix: &[u8],
        mac: Mac64,
        counts: &mut OpCounts,
    ) -> bool {
        if from.0 as usize >= self.n || from == self.me {
            return false;
        }
        counts.mac_verify += 1;
        self.replica_keys[from.0 as usize].verify(prefix, 0, mac)
    }

    /// Verify a single borrowed authenticator entry from client `from`
    /// (client request authenticators MAC the full prefix, domain 0).
    /// Accepts exactly when [`KeyStore::verify_from_client`] would.
    pub fn verify_client_entry(
        &self,
        from: ClientId,
        prefix: &[u8],
        mac: Mac64,
        counts: &mut OpCounts,
    ) -> bool {
        match self.client_keys.get(&from) {
            Some(k) => {
                counts.mac_verify += 1;
                k.verify(prefix, 0, mac)
            }
            None => false,
        }
    }

    /// Verify a packet from a client. Fails when no session key is installed
    /// — the §2.3 condition for a restarted replica.
    pub fn verify_from_client(
        &self,
        from: ClientId,
        prefix: &[u8],
        auth: &AuthTag,
        counts: &mut OpCounts,
    ) -> bool {
        match auth {
            AuthTag::Authenticator(a) => match self.client_keys.get(&from) {
                Some(k) => {
                    counts.mac_verify += 1;
                    a.verify_for(self.me.0, k, prefix, 0)
                }
                None => false,
            },
            AuthTag::Sig(sig) => match self.client_pubkeys.get(&from) {
                Some(pk) => {
                    counts.sig_verify += 1;
                    pk.verify(prefix, sig).is_ok()
                }
                None => false,
            },
            _ => false,
        }
    }
}

/// A client-side key set.
pub struct ClientKeys {
    id: ClientId,
    keypair: KeyPair,
    session_keys: Vec<MacKey>,
    replica_pubkeys: Vec<PublicKey>,
}

impl std::fmt::Debug for ClientKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientKeys").field("id", &self.id).finish()
    }
}

impl ClientKeys {
    /// Build keys for a statically configured client `id` in a group of `n`
    /// replicas (the replicas pre-install the matching keys).
    pub fn new(group_seed: u64, id: ClientId, n: usize) -> ClientKeys {
        ClientKeys {
            id,
            keypair: node_keypair(group_seed, None, Some(id)),
            session_keys: (0..n as u32)
                .map(|r| client_session_key(group_seed, id, ReplicaId(r)))
                .collect(),
            replica_pubkeys: (0..n as u32)
                .map(|r| node_keypair(group_seed, Some(ReplicaId(r)), None).public())
                .collect(),
        }
    }

    /// Build keys for a *dynamic* client: its own key pair comes from its
    /// private `identity_seed` (the replicas learn the public half from the
    /// Join), while the replica public keys still come from the group
    /// configuration.
    pub fn new_dynamic(group_seed: u64, identity_seed: u64, id: ClientId, n: usize) -> ClientKeys {
        let mut keys = ClientKeys::new(group_seed, id, n);
        keys.keypair =
            KeyPair::generate(identity_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ group_seed);
        keys
    }

    /// Re-key the MAC session keys under a newly assigned client id (after a
    /// dynamic Join). The signing key pair is preserved — it is what the
    /// replicas recorded in the session at Join time.
    pub fn rekey(&mut self, group_seed: u64, id: ClientId) {
        self.id = id;
        self.session_keys = (0..self.session_keys.len() as u32)
            .map(|r| client_session_key(group_seed, id, ReplicaId(r)))
            .collect();
    }

    /// The client id these keys belong to.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The client's signing key pair.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// Raw session key bytes for the NewKey message.
    pub fn session_key_bytes(&self) -> Vec<[u8; 32]> {
        self.session_keys.iter().map(|k| *k.as_bytes()).collect()
    }

    /// Build the authenticator for a request prefix (one MAC per replica).
    pub fn seal_request(&self, mode: AuthMode, prefix: &[u8], counts: &mut OpCounts) -> AuthTag {
        match mode {
            AuthMode::Macs => {
                let entries: Vec<(u32, Mac64)> = self
                    .session_keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (i as u32, k.mac(prefix, 0)))
                    .collect();
                counts.mac_gen += entries.len() as u64;
                AuthTag::Authenticator(Authenticator::from_entries(entries))
            }
            AuthMode::Signatures => {
                counts.sign += 1;
                AuthTag::Sig(self.keypair.sign(prefix))
            }
        }
    }

    /// Verify a reply from `replica` over its wire `prefix` followed by
    /// `omitted`, the result a vouch leaves out (empty for a full reply).
    /// An unauthenticated reply passes only when it carries its result.
    pub fn verify_reply(
        &self,
        replica: ReplicaId,
        prefix: &[u8],
        omitted: &[u8],
        auth: &AuthTag,
        counts: &mut OpCounts,
    ) -> bool {
        match auth {
            AuthTag::Mac(tag) => match self.session_keys.get(replica.0 as usize) {
                Some(k) => {
                    counts.mac_verify += 1;
                    k.verify_parts(&[prefix, omitted], 1, *tag)
                }
                None => false,
            },
            AuthTag::Sig(sig) => match self.replica_pubkeys.get(replica.0 as usize) {
                Some(pk) => {
                    counts.sig_verify += 1;
                    pk.verify_parts(&[prefix, omitted], sig).is_ok()
                }
                None => false,
            },
            // Unauthenticated replies are acceptable only for join replies;
            // the client engine enforces f+1 content matching before acting.
            AuthTag::None => omitted.is_empty(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 42;

    #[test]
    fn pairwise_keys_symmetric() {
        let k_ab = replica_pair_key(SEED, ReplicaId(0), ReplicaId(2));
        let k_ba = replica_pair_key(SEED, ReplicaId(2), ReplicaId(0));
        assert_eq!(k_ab.as_bytes(), k_ba.as_bytes());
        let k_other = replica_pair_key(SEED, ReplicaId(0), ReplicaId(1));
        assert_ne!(k_ab.as_bytes(), k_other.as_bytes());
    }

    #[test]
    fn replica_multicast_mac_verifies() {
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let b = KeyStore::new_replica(SEED, ReplicaId(1), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = a.seal_multicast(AuthMode::Macs, b"prefix", &mut counts);
        assert_eq!(counts.mac_gen, 3);
        assert!(b.verify_from_replica(ReplicaId(0), b"prefix", &auth, &mut counts));
        assert!(!b.verify_from_replica(ReplicaId(0), b"tampered", &auth, &mut counts));
        // Self-verification and out-of-range ids rejected.
        assert!(!a.verify_from_replica(ReplicaId(0), b"prefix", &auth, &mut counts));
        assert!(!b.verify_from_replica(ReplicaId(9), b"prefix", &auth, &mut counts));
    }

    #[test]
    fn authenticator_macs_the_prefix_and_hashes_nothing() {
        // The n−1 MACs run over the (arbitrarily long) prefix itself: a seal
        // hashes nothing, and neither does a verify.
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let b = KeyStore::new_replica(SEED, ReplicaId(1), 4, &[]);
        let big = vec![7u8; 4096];
        let mut counts = OpCounts::default();
        let auth = a.seal_multicast(AuthMode::Macs, &big, &mut counts);
        assert_eq!(counts.mac_gen, 3);
        assert_eq!(counts.digest_bytes, 0);
        assert!(b.verify_from_replica(ReplicaId(0), &big, &auth, &mut counts));
        assert_eq!(counts.digest_bytes, 0);
    }

    #[test]
    fn borrowed_entry_verify_matches_authenticator_verify() {
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let b = KeyStore::new_replica(SEED, ReplicaId(1), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = a.seal_multicast(AuthMode::Macs, b"prefix", &mut counts);
        let AuthTag::Authenticator(v) = &auth else {
            panic!("expected authenticator");
        };
        let mine = v.iter().find(|(i, _)| *i == 1).map(|(_, m)| m).unwrap();
        assert!(b.verify_replica_entry(ReplicaId(0), b"prefix", mine, &mut counts));
        assert!(!b.verify_replica_entry(ReplicaId(0), b"tampered", mine, &mut counts));
        assert!(!b.verify_replica_entry(ReplicaId(1), b"prefix", mine, &mut counts));
        assert!(!b.verify_replica_entry(ReplicaId(9), b"prefix", mine, &mut counts));
        // The entry addressed to replica 2 must not verify at replica 1.
        let other = v.iter().find(|(i, _)| *i == 2).map(|(_, m)| m).unwrap();
        assert!(!b.verify_replica_entry(ReplicaId(0), b"prefix", other, &mut counts));
    }

    #[test]
    fn borrowed_client_entry_matches_full_verify() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        let r = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[ClientId(5)]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Macs, b"req", &mut counts);
        let AuthTag::Authenticator(v) = &auth else {
            panic!("expected authenticator");
        };
        let mine = v.iter().find(|(i, _)| *i == 2).map(|(_, m)| m).unwrap();
        assert!(r.verify_client_entry(ClientId(5), b"req", mine, &mut counts));
        assert!(!r.verify_client_entry(ClientId(5), b"other", mine, &mut counts));
        assert!(!r.verify_client_entry(ClientId(6), b"req", mine, &mut counts));
    }

    #[test]
    fn replica_multicast_sig_verifies() {
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let b = KeyStore::new_replica(SEED, ReplicaId(3), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = a.seal_multicast(AuthMode::Signatures, b"prefix", &mut counts);
        assert_eq!(counts.sign, 1);
        assert!(b.verify_from_replica(ReplicaId(0), b"prefix", &auth, &mut counts));
        assert_eq!(counts.sig_verify, 1);
    }

    #[test]
    fn client_request_roundtrip() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        let r = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[ClientId(5)]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Macs, b"req", &mut counts);
        assert_eq!(counts.mac_gen, 4);
        assert!(r.verify_from_client(ClientId(5), b"req", &auth, &mut counts));
    }

    #[test]
    fn restarted_replica_lacks_client_keys() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        // Restarted: no preinstalled clients.
        let r = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Macs, b"req", &mut counts);
        assert!(
            !r.verify_from_client(ClientId(5), b"req", &auth, &mut counts),
            "restarted replica must fail authentication until NewKey arrives (§2.3)"
        );
        // NewKey re-installs the session key.
        let mut r = r;
        r.install_client_key(ClientId(5), c.session_key_bytes()[2]);
        assert!(r.verify_from_client(ClientId(5), b"req", &auth, &mut counts));
    }

    #[test]
    fn reply_mac_roundtrip() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        let r = KeyStore::new_replica(SEED, ReplicaId(1), 4, &[ClientId(5)]);
        let mut counts = OpCounts::default();
        let auth = r.seal_to_client(AuthMode::Macs, ClientId(5), b"reply", &[], &mut counts);
        assert!(c.verify_reply(ReplicaId(1), b"reply", &[], &auth, &mut counts));
        assert!(!c.verify_reply(ReplicaId(2), b"reply", &[], &auth, &mut counts));
    }

    #[test]
    fn reply_to_unknown_client_is_unauthenticated() {
        let r = KeyStore::new_replica(SEED, ReplicaId(1), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = r.seal_to_client(AuthMode::Macs, ClientId(9), b"reply", &[], &mut counts);
        assert_eq!(auth, AuthTag::None);
        assert!(!r.can_seal_to_client(AuthMode::Macs, ClientId(9)));
        assert!(r.can_seal_to_client(AuthMode::Signatures, ClientId(9)));
    }

    #[test]
    fn client_sig_requests_verify_via_pubkey() {
        let c = ClientKeys::new(SEED, ClientId(7), 4);
        let mut r = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        r.install_client_pubkey(ClientId(7), c.keypair().public());
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Signatures, b"req", &mut counts);
        assert!(r.verify_from_client(ClientId(7), b"req", &auth, &mut counts));
        r.remove_client(ClientId(7));
        assert!(!r.verify_from_client(ClientId(7), b"req", &auth, &mut counts));
    }
}
