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
use pbft_crypto::{KeyPair, Mac64, PublicKey};

use crate::config::AuthMode;
use crate::messages::view::AuthView;
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
    /// Static clients' public keys: configuration, installed with the
    /// preinstalled session keys or derived from the seed and kept once a
    /// signature verifies under one. A dynamic member's key lives only in
    /// the replicated membership table.
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

    /// Install a client session key (from a verified NewKey message).
    pub fn install_client_key(&mut self, client: ClientId, key: [u8; 32]) {
        self.client_keys.insert(client, MacKey::new(key));
    }

    /// Drop a client's session MAC key (its session ended).
    pub fn remove_client(&mut self, client: ClientId) {
        self.client_keys.remove(&client);
    }

    /// The public key this replica keeps for a static client.
    pub(crate) fn client_pubkey(&self, client: ClientId) -> Option<PublicKey> {
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

    /// Verify a packet from fellow replica `from` over its borrowed
    /// trailer: this replica's authenticator entry under the pair key, or
    /// the peer's signature. An out-of-range or self sender, and an
    /// authenticator with no entry for this replica, are refused without a
    /// MAC.
    pub fn verify_replica(
        &self,
        from: ReplicaId,
        prefix: &[u8],
        auth: AuthView<'_>,
        counts: &mut OpCounts,
    ) -> bool {
        let i = from.0 as usize;
        if i >= self.n || from == self.me {
            return false;
        }
        match auth {
            AuthView::Authenticator { .. } => auth.mac_for(self.me.0).is_some_and(|mac| {
                counts.mac_verify += 1;
                self.replica_keys[i].verify(prefix, 0, mac)
            }),
            AuthView::Sig(sig) => {
                counts.sig_verify += 1;
                self.replica_pubkeys[i].verify(prefix, &sig).is_ok()
            }
            AuthView::None | AuthView::Mac(_) => false,
        }
    }

    /// Verify a packet from `client` over its borrowed trailer: this
    /// replica's authenticator entry under the client's session key (none
    /// is held until a NewKey installs one — the §2.3 condition for a
    /// restarted replica), or a signature.
    ///
    /// `member_key` is the key a dynamic member's signature must verify
    /// under, read from its membership session, which the caller consults
    /// first. `None` means a static deployment: the key is configuration,
    /// derived from the deployment seed, and kept only once a signature
    /// verifies under it, so a claim to an id that fails authentication
    /// leaves nothing behind.
    pub fn verify_client(
        &mut self,
        client: ClientId,
        prefix: &[u8],
        auth: AuthView<'_>,
        member_key: Option<PublicKey>,
        counts: &mut OpCounts,
    ) -> bool {
        match auth {
            AuthView::Authenticator { .. } => {
                match (auth.mac_for(self.me.0), self.client_keys.get(&client)) {
                    (Some(mac), Some(key)) => {
                        counts.mac_verify += 1;
                        key.verify(prefix, 0, mac)
                    }
                    _ => false,
                }
            }
            AuthView::Sig(sig) => {
                counts.sig_verify += 1;
                let known = member_key.or_else(|| self.client_pubkey(client));
                let pk = known
                    .unwrap_or_else(|| node_keypair(self.group_seed, None, Some(client)).public());
                let ok = pk.verify(prefix, &sig).is_ok();
                if ok && known.is_none() {
                    self.client_pubkeys.insert(client, pk);
                }
                ok
            }
            AuthView::None | AuthView::Mac(_) => false,
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
    use crate::messages::view::PacketView;
    use crate::messages::{CheckpointMsg, Envelope, Message, Sender};

    const SEED: u64 = 42;

    /// A packet carrying `auth` behind a stand-in message: parsing it gives
    /// the trailer as a receiver borrows it off the wire.
    fn carrier(auth: &AuthTag) -> Vec<u8> {
        let msg = Message::Checkpoint(CheckpointMsg {
            seq: 0,
            root: pbft_crypto::Digest::of(b""),
            replica: ReplicaId(0),
        });
        Envelope::seal(Envelope::encode_prefix(Sender::Anonymous, &msg), auth)
    }

    fn borrowed(packet: &[u8]) -> AuthView<'_> {
        PacketView::parse(packet)
            .expect("a sealed packet parses")
            .auth
    }

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
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        assert!(b.verify_replica(ReplicaId(0), b"prefix", view, &mut counts));
        assert!(!b.verify_replica(ReplicaId(0), b"tampered", view, &mut counts));
        assert_eq!(counts.mac_verify, 2);
        // Self-verification, out-of-range and wrong senders are rejected,
        // the first two without a MAC.
        assert!(!a.verify_replica(ReplicaId(0), b"prefix", view, &mut counts));
        assert!(!b.verify_replica(ReplicaId(9), b"prefix", view, &mut counts));
        assert_eq!(counts.mac_verify, 2);
        assert!(!b.verify_replica(ReplicaId(2), b"prefix", view, &mut counts));
        // The entry addressed to replica 2 does not verify at replica 1.
        let c = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[]);
        assert!(c.verify_replica(ReplicaId(0), b"prefix", view, &mut counts));
        let AuthTag::Authenticator(v) = &auth else {
            panic!("expected authenticator");
        };
        let only_2 = AuthTag::Authenticator(Authenticator::from_entries(vec![(
            1,
            v.tag_for(2).expect("an entry for replica 2"),
        )]));
        let packet = carrier(&only_2);
        assert!(!b.verify_replica(ReplicaId(0), b"prefix", borrowed(&packet), &mut counts));
    }

    #[test]
    fn an_authenticator_without_my_entry_is_refused_without_a_mac() {
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let mut r = KeyStore::new_replica(SEED, ReplicaId(3), 4, &[ClientId(5)]);
        let mut counts = OpCounts::default();
        let AuthTag::Authenticator(v) = a.seal_multicast(AuthMode::Macs, b"m", &mut counts) else {
            panic!("expected authenticator");
        };
        let without_3: Vec<_> = v.iter().filter(|&(i, _)| i != 3).collect();
        let packet = carrier(&AuthTag::Authenticator(Authenticator::from_entries(
            without_3,
        )));
        let view = borrowed(&packet);
        let mut counts = OpCounts::default();
        assert!(!r.verify_replica(ReplicaId(0), b"m", view, &mut counts));
        assert!(!r.verify_client(ClientId(5), b"m", view, None, &mut counts));
        assert_eq!(counts.mac_verify, 0);
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
        let packet = carrier(&auth);
        assert!(b.verify_replica(ReplicaId(0), &big, borrowed(&packet), &mut counts));
        assert_eq!(counts.digest_bytes, 0);
    }

    #[test]
    fn replica_multicast_sig_verifies() {
        let a = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let b = KeyStore::new_replica(SEED, ReplicaId(3), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = a.seal_multicast(AuthMode::Signatures, b"prefix", &mut counts);
        assert_eq!(counts.sign, 1);
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        assert!(b.verify_replica(ReplicaId(0), b"prefix", view, &mut counts));
        assert_eq!(counts.sig_verify, 1);
        assert!(!b.verify_replica(ReplicaId(0), b"tampered", view, &mut counts));
        assert!(!b.verify_replica(ReplicaId(1), b"prefix", view, &mut counts));
        assert!(!b.verify_replica(ReplicaId(3), b"prefix", view, &mut counts));
        assert_eq!(counts.sig_verify, 3);
    }

    #[test]
    fn client_request_roundtrip() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        let mut r = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[ClientId(5)]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Macs, b"req", &mut counts);
        assert_eq!(counts.mac_gen, 4);
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        assert!(r.verify_client(ClientId(5), b"req", view, None, &mut counts));
        assert!(!r.verify_client(ClientId(5), b"other", view, None, &mut counts));
        assert_eq!(counts.mac_verify, 2);
        // An unknown client has no session key: refused without a MAC.
        assert!(!r.verify_client(ClientId(6), b"req", view, None, &mut counts));
        assert_eq!(counts.mac_verify, 2);
    }

    #[test]
    fn restarted_replica_lacks_client_keys() {
        let c = ClientKeys::new(SEED, ClientId(5), 4);
        // Restarted: no preinstalled clients.
        let mut r = KeyStore::new_replica(SEED, ReplicaId(2), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Macs, b"req", &mut counts);
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        assert!(
            !r.verify_client(ClientId(5), b"req", view, None, &mut counts),
            "restarted replica must fail authentication until NewKey arrives (§2.3)"
        );
        // NewKey re-installs the session key.
        r.install_client_key(ClientId(5), c.session_key_bytes()[2]);
        assert!(r.verify_client(ClientId(5), b"req", view, None, &mut counts));
        r.remove_client(ClientId(5));
        assert!(!r.verify_client(ClientId(5), b"req", view, None, &mut counts));
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

    /// A static client's key is configuration: derived on the first signed
    /// request and kept only once it verifies. A dynamic member's signature
    /// verifies under the key its membership session holds, and nothing is
    /// kept for it.
    #[test]
    fn client_sig_requests_verify_via_pubkey() {
        let c = ClientKeys::new(SEED, ClientId(7), 4);
        let mut r = KeyStore::new_replica(SEED, ReplicaId(0), 4, &[]);
        let mut counts = OpCounts::default();
        let auth = c.seal_request(AuthMode::Signatures, b"req", &mut counts);
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        assert!(!r.verify_client(ClientId(7), b"forged", view, None, &mut counts));
        assert_eq!(r.client_pubkey(ClientId(7)), None);
        assert!(r.verify_client(ClientId(7), b"req", view, None, &mut counts));
        assert_eq!(r.client_pubkey(ClientId(7)), Some(c.keypair().public()));
        assert!(r.verify_client(ClientId(7), b"req", view, None, &mut counts));
        assert_eq!(counts.sig_verify, 3);

        let member = ClientKeys::new_dynamic(SEED, 99, ClientId(8), 4);
        let auth = member.seal_request(AuthMode::Signatures, b"req", &mut counts);
        let packet = carrier(&auth);
        let view = borrowed(&packet);
        let key = Some(member.keypair().public());
        assert!(r.verify_client(ClientId(8), b"req", view, key, &mut counts));
        assert!(!r.verify_client(ClientId(8), b"req", view, None, &mut counts));
        assert!(!r.verify_client(
            ClientId(8),
            b"req",
            view,
            Some(c.keypair().public()),
            &mut counts
        ));
        assert_eq!(r.client_pubkey(ClientId(8)), None);
    }
}
