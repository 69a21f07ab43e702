//! Dynamic client membership (paper §3.1).
//!
//! The replicated membership tables: the *redirection table* that maps
//! arbitrary client identifiers to node-table slots, the session table with
//! per-session last-activity timestamps, and the pending two-phase Join
//! attempts. All mutations happen during the execution of totally-ordered
//! Join/Leave system requests with agreed timestamps, so every correct
//! replica holds identical tables. They are stored as one
//! [`BlobCell`] image in the membership section of the library partition,
//! so checkpoints cover them and state transfer carries them to recovering
//! replicas. The cell's capacity bounds the tables: a join whose image
//! would not fit is denied ([`SECTION_FULL`]) and changes nothing, on every
//! replica alike.

use std::collections::BTreeMap;

use pbft_crypto::challenge::{make_challenge, verify_response, Challenge, ChallengeResponse};
use pbft_crypto::{Digest, PublicKey};
use pbft_state::{BlobCell, PagedState, Section};

use crate::types::{ClientId, NetAddr, SeqNum};
use crate::wire::{Dec, Enc, WireError};

/// Tag of the membership cell image.
const MEMBERSHIP_MAGIC: u64 = 0x4D45_4D42_4552_0001; // "MEMBER" + version

/// Denial reason of a join whose table image would not fit the membership
/// section.
pub const SECTION_FULL: &str = "membership section full";

/// An active client session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The assigned client identifier.
    pub client: ClientId,
    /// Application-level identity bound at authorization time (e.g. user id).
    pub app_id: Vec<u8>,
    /// The client's transport address.
    pub addr: NetAddr,
    /// The client's public key.
    pub pubkey: PublicKey,
    /// Timestamp (primary clock) of the session's last executed request —
    /// the basis for stale-session cleanup.
    pub last_active_ns: u64,
}

/// A phase-one Join awaiting its challenge response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingJoin {
    /// The deterministic challenge all replicas derived.
    pub challenge: Challenge,
    /// The claimed public key.
    pub pubkey: PublicKey,
    /// The claimed address (proven by receiving the challenge there).
    pub addr: NetAddr,
    /// Client nonce.
    pub nonce: u64,
    /// Application identification buffer, checked at phase two.
    pub idbuf: Vec<u8>,
}

/// Outcome of a phase-two Join execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Admitted with this identifier.
    Joined {
        /// The newly assigned client id.
        client: ClientId,
        /// Every session this join ended: a previous session of the same
        /// application identity (takeover), then each stale session evicted
        /// to free a slot. The replica ends each one as it ends a Leave.
        ended: Vec<ClientId>,
    },
    /// Rejected, changing nothing: unknown attempt, bad response,
    /// authorization failure, a full session table with no stale session,
    /// or a table image that would not fit the section ([`SECTION_FULL`]).
    Denied(&'static str),
}

/// The membership tables, held in a [`BlobCell`] over their section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    cell: BlobCell,
    next_id: u64,
    /// Redirection table: client id → slot index. Checked *before*
    /// authenticator verification ("the system first checks to see if the
    /// identifier exists in the redirection table before going into the more
    /// lengthy process of verifying its signature or authenticator").
    redirection: BTreeMap<ClientId, u32>,
    slots: Vec<Option<Session>>,
    pending: BTreeMap<Digest, PendingJoin>,
}

impl Membership {
    /// The tables stored in `section`; empty tables with `capacity` session
    /// slots when the section was never written.
    ///
    /// # Panics
    /// When the section holds an image that does not decode: the region is
    /// corrupt, and starting empty would overwrite it at the next store.
    pub fn open(section: Section, state: &PagedState, capacity: usize) -> Membership {
        let cell = BlobCell::new(section, MEMBERSHIP_MAGIC);
        let mut m = Membership {
            cell,
            next_id: 1_000, // distinct from the static-configuration id range
            redirection: BTreeMap::new(),
            slots: vec![None; capacity],
            pending: BTreeMap::new(),
        };
        if let Some(image) = cell.load(state).expect("membership cell readable") {
            m.decode(&image).expect("membership table image decodes");
        }
        m
    }

    /// Re-read the tables from the region (state transfer, rollback);
    /// panics as [`Membership::open`] does.
    pub fn reload(&mut self, state: &PagedState) {
        *self = Membership::open(self.cell.section(), state, self.slots.len());
    }

    /// Write the tables to their section (modify-notified).
    ///
    /// # Panics
    /// Never for tables changed only through this type: every change that
    /// can grow the image is refused unless the image fits.
    pub fn store(&self, state: &mut PagedState) {
        self.cell
            .store(state, &self.image())
            .expect("every growing change was checked against the cell capacity");
    }

    /// Cheap pre-authentication membership check via the redirection table.
    pub fn contains(&self, client: ClientId) -> bool {
        self.redirection.contains_key(&client)
    }

    /// Look up a session.
    pub fn session(&self, client: ClientId) -> Option<&Session> {
        let slot = *self.redirection.get(&client)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Number of active sessions.
    pub fn active_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Pending join attempts.
    pub fn pending_joins(&self) -> usize {
        self.pending.len()
    }

    /// Record a request execution for activity tracking.
    pub fn touch(&mut self, client: ClientId, now_ns: u64) {
        if let Some(slot) = self.redirection.get(&client).copied() {
            if let Some(Some(s)) = self.slots.get_mut(slot as usize) {
                s.last_active_ns = s.last_active_ns.max(now_ns);
            }
        }
    }

    /// Execute a phase-one Join (totally ordered at `seq`): derive and
    /// record the challenge. Identical on every correct replica. `None`,
    /// changing nothing, when the tables with this attempt would not fit
    /// the section.
    pub fn phase1(
        &mut self,
        pubkey: PublicKey,
        nonce: u64,
        addr: NetAddr,
        idbuf: Vec<u8>,
        seq: SeqNum,
    ) -> Option<Challenge> {
        let fp = pubkey.fingerprint();
        let challenge = make_challenge(&fp, nonce, seq);
        let attempt = PendingJoin {
            challenge,
            pubkey,
            addr,
            nonce,
            idbuf,
        };
        self.if_fits(|m| m.pending.insert(fp, attempt))?;
        Some(challenge)
    }

    /// Pending join attempt for a fingerprint (used by replicas to verify
    /// phase-two signatures).
    pub fn pending(&self, fingerprint: &Digest) -> Option<&PendingJoin> {
        self.pending.get(fingerprint)
    }

    /// Execute a phase-two Join. `authorize` is the application upcall for
    /// the identification buffer; `now_ns` is the agreed (primary) time used
    /// for stale cleanup; `stale_ns` is the configured staleness threshold.
    pub fn phase2(
        &mut self,
        fingerprint: &Digest,
        response: &ChallengeResponse,
        now_ns: u64,
        stale_ns: u64,
        authorize: &mut dyn FnMut(&[u8]) -> Option<Vec<u8>>,
    ) -> JoinOutcome {
        let Some(pending) = self.pending.get(fingerprint) else {
            return JoinOutcome::Denied("no pending join for fingerprint");
        };
        let fp = pending.pubkey.fingerprint();
        if !verify_response(&pending.challenge, &fp, response) {
            return JoinOutcome::Denied("bad challenge response");
        }
        let Some(app_id) = authorize(&pending.idbuf) else {
            return JoinOutcome::Denied("authorization rejected");
        };
        self.if_fits(|m| m.admit(fingerprint, app_id, now_ns, stale_ns))
            .unwrap_or(JoinOutcome::Denied(SECTION_FULL))
    }

    /// Phase two after the checks. Single session per application
    /// identity: a prior session of `app_id` ends. With every slot taken,
    /// the stale-session cleanup of §3.1 runs instead ("locate all clients
    /// with a last executed request older than the current join request
    /// minus a configurable threshold").
    fn admit(
        &mut self,
        fingerprint: &Digest,
        app_id: Vec<u8>,
        now_ns: u64,
        stale_ns: u64,
    ) -> JoinOutcome {
        let mut ended = self.clients_where(|s| s.app_id == app_id);
        if ended.is_empty() && self.slots.iter().all(Option::is_some) {
            let cutoff = now_ns.saturating_sub(stale_ns);
            ended = self.clients_where(|s| s.last_active_ns < cutoff);
        }
        for &c in &ended {
            self.leave(c);
        }
        // "If no such stale sessions are found, the new Join request is denied."
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return JoinOutcome::Denied("session table full");
        };
        let pending = self
            .pending
            .remove(fingerprint)
            .expect("phase2 found the attempt");
        let client = ClientId(self.next_id);
        self.next_id += 1;
        self.slots[slot] = Some(Session {
            client,
            app_id,
            addr: pending.addr,
            pubkey: pending.pubkey,
            last_active_ns: now_ns,
        });
        self.redirection.insert(client, slot as u32);
        JoinOutcome::Joined { client, ended }
    }

    fn clients_where(&self, pred: impl Fn(&Session) -> bool) -> Vec<ClientId> {
        let sessions = self.slots.iter().flatten();
        sessions.filter(|s| pred(s)).map(|s| s.client).collect()
    }

    /// Execute a Leave: "all further communication with the service is
    /// prohibited for this client".
    pub fn leave(&mut self, client: ClientId) -> bool {
        let slot = self.redirection.remove(&client);
        if let Some(slot) = slot {
            self.slots[slot as usize] = None;
        }
        slot.is_some()
    }

    /// Apply `change`, keeping it only if the table image still fits the
    /// cell; otherwise restore the tables and return `None`.
    fn if_fits<T>(&mut self, change: impl FnOnce(&mut Membership) -> T) -> Option<T> {
        let before = self.clone();
        let out = change(self);
        if self.image().len() > self.cell.capacity() {
            *self = before;
            return None;
        }
        Some(out)
    }

    /// The cell payload: next id, the slot table, the pending attempts.
    fn image(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.next_id).u32(self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                Some(s) => {
                    e.u8(1)
                        .u64(s.client.0)
                        .bytes(&s.app_id)
                        .u32(s.addr)
                        .raw(&s.pubkey.to_bytes())
                        .u64(s.last_active_ns);
                }
                None => {
                    e.u8(0);
                }
            }
        }
        e.u32(self.pending.len() as u32);
        for (fp, p) in &self.pending {
            e.digest(fp)
                .digest(&p.challenge.0)
                .raw(&p.pubkey.to_bytes())
                .u32(p.addr)
                .u64(p.nonce)
                .bytes(&p.idbuf);
        }
        e.into_bytes()
    }

    /// Replace the tables with the ones `image` holds.
    fn decode(&mut self, image: &[u8]) -> Result<(), WireError> {
        let mut d = Dec::new(image);
        self.next_id = d.u64()?;
        let n_slots = d.count(1)?;
        self.slots = Vec::with_capacity(n_slots);
        self.redirection.clear();
        for i in 0..n_slots {
            if !d.boolean()? {
                self.slots.push(None);
                continue;
            }
            let client = ClientId(d.u64()?);
            let app_id = d.bytes()?;
            let addr = d.u32()?;
            let pk: [u8; 16] = d.raw(16)?.try_into().expect("16 bytes");
            let last_active_ns = d.u64()?;
            self.redirection.insert(client, i as u32);
            self.slots.push(Some(Session {
                client,
                app_id,
                addr,
                pubkey: PublicKey::from_bytes(&pk),
                last_active_ns,
            }));
        }
        // Fingerprint, challenge, key, address, nonce, idbuf length.
        let n_pending = d.count(32 + 32 + 16 + 4 + 8 + 4)?;
        self.pending.clear();
        for _ in 0..n_pending {
            let fp = d.digest()?;
            let challenge = Challenge(d.digest()?);
            let pk: [u8; 16] = d.raw(16)?.try_into().expect("16 bytes");
            let addr = d.u32()?;
            let nonce = d.u64()?;
            let idbuf = d.bytes()?;
            self.pending.insert(
                fp,
                PendingJoin {
                    challenge,
                    pubkey: PublicKey::from_bytes(&pk),
                    addr,
                    nonce,
                    idbuf,
                },
            );
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_crypto::challenge::make_response;
    use pbft_crypto::KeyPair;
    use pbft_state::PAGE_SIZE;

    const SECTION: Section = Section {
        base: 0,
        len: 4 * PAGE_SIZE as u64,
    };

    fn empty(capacity: usize) -> Membership {
        Membership::open(SECTION, &PagedState::new(4), capacity)
    }

    fn pk(seed: u64) -> PublicKey {
        KeyPair::generate(seed).public()
    }

    fn join(m: &mut Membership, seed: u64, now: u64) -> JoinOutcome {
        let pubkey = pk(seed);
        let fp = pubkey.fingerprint();
        let ch = m
            .phase1(
                pubkey,
                seed,
                seed as NetAddr,
                format!("user{seed}").into_bytes(),
                10,
            )
            .expect("fits");
        let resp = make_response(&ch, &fp);
        m.phase2(&fp, &resp, now, 1_000, &mut |idbuf| Some(idbuf.to_vec()))
    }

    #[test]
    fn two_phase_join_admits() {
        let mut m = empty(4);
        match join(&mut m, 1, 100) {
            JoinOutcome::Joined { client, ended } => {
                assert_eq!(client, ClientId(1000));
                assert_eq!(ended, vec![]);
                assert!(m.contains(client));
                assert_eq!(m.session(client).expect("session").addr, 1);
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(m.active_sessions(), 1);
        assert_eq!(m.pending_joins(), 0);
    }

    #[test]
    fn wrong_response_denied() {
        let mut m = empty(4);
        let pubkey = pk(2);
        let fp = pubkey.fingerprint();
        let _ch = m.phase1(pubkey, 7, 3, b"id".to_vec(), 5);
        let bad = ChallengeResponse(Digest::of(b"forged"));
        assert_eq!(
            m.phase2(&fp, &bad, 0, 0, &mut |_| Some(vec![])),
            JoinOutcome::Denied("bad challenge response")
        );
    }

    #[test]
    fn unknown_fingerprint_denied() {
        let mut m = empty(4);
        let resp = ChallengeResponse(Digest::of(b"x"));
        assert!(matches!(
            m.phase2(&Digest::of(b"nope"), &resp, 0, 0, &mut |_| Some(vec![])),
            JoinOutcome::Denied(_)
        ));
    }

    #[test]
    fn authorization_can_reject() {
        let mut m = empty(4);
        let pubkey = pk(3);
        let fp = pubkey.fingerprint();
        let ch = m
            .phase1(pubkey, 1, 1, b"bad-credentials".to_vec(), 5)
            .expect("fits");
        let resp = make_response(&ch, &fp);
        assert_eq!(
            m.phase2(&fp, &resp, 0, 0, &mut |_| None),
            JoinOutcome::Denied("authorization rejected")
        );
    }

    #[test]
    fn same_identity_terminates_previous_session() {
        let mut m = empty(4);
        let pubkey = pk(4);
        let fp = pubkey.fingerprint();
        let ch = m.phase1(pubkey, 1, 1, b"alice".to_vec(), 5).expect("fits");
        let resp = make_response(&ch, &fp);
        let first = match m.phase2(&fp, &resp, 10, 1000, &mut |i| Some(i.to_vec())) {
            JoinOutcome::Joined { client, .. } => client,
            o => panic!("{o:?}"),
        };
        // Second join with a different key but the same app identity.
        let pubkey2 = pk(5);
        let fp2 = pubkey2.fingerprint();
        let ch2 = m.phase1(pubkey2, 2, 2, b"alice".to_vec(), 6).expect("fits");
        let resp2 = make_response(&ch2, &fp2);
        match m.phase2(&fp2, &resp2, 20, 1000, &mut |i| Some(i.to_vec())) {
            JoinOutcome::Joined { client, ended } => {
                assert_eq!(ended, vec![first]);
                assert!(!m.contains(first), "old session terminated");
                assert!(m.contains(client));
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(m.active_sessions(), 1);
    }

    #[test]
    fn full_table_cleans_stale_sessions() {
        let mut m = empty(2);
        assert!(matches!(join(&mut m, 1, 100), JoinOutcome::Joined { .. }));
        assert!(matches!(join(&mut m, 2, 200), JoinOutcome::Joined { .. }));
        assert_eq!(m.active_sessions(), 2);
        // Table full; both sessions are recent relative to stale_ns=1000 at
        // now=500 → denied.
        let pubkey = pk(3);
        let fp = pubkey.fingerprint();
        let ch = m.phase1(pubkey, 3, 3, b"user3".to_vec(), 7).expect("fits");
        let resp = make_response(&ch, &fp);
        assert_eq!(
            m.phase2(&fp, &resp, 500, 1_000, &mut |i| Some(i.to_vec())),
            JoinOutcome::Denied("session table full")
        );
        // Much later, both are stale → cleaned, join admitted.
        let ch = m.phase1(pk(3), 3, 3, b"user3".to_vec(), 8).expect("fits");
        let resp = make_response(&ch, &pk(3).fingerprint());
        assert!(matches!(
            m.phase2(&pk(3).fingerprint(), &resp, 5_000, 1_000, &mut |i| Some(
                i.to_vec()
            )),
            JoinOutcome::Joined { .. }
        ));
        assert_eq!(m.active_sessions(), 1, "both stale sessions were cleared");
        let _ = ch;
    }

    #[test]
    fn leave_removes_session() {
        let mut m = empty(4);
        let client = match join(&mut m, 1, 100) {
            JoinOutcome::Joined { client, .. } => client,
            o => panic!("{o:?}"),
        };
        assert!(m.leave(client));
        assert!(!m.contains(client));
        assert!(!m.leave(client), "second leave is a no-op");
    }

    #[test]
    fn touch_updates_last_active() {
        let mut m = empty(4);
        let client = match join(&mut m, 1, 100) {
            JoinOutcome::Joined { client, .. } => client,
            o => panic!("{o:?}"),
        };
        m.touch(client, 900);
        assert_eq!(m.session(client).expect("session").last_active_ns, 900);
        m.touch(client, 500); // never goes backwards
        assert_eq!(m.session(client).expect("session").last_active_ns, 900);
        m.touch(ClientId(99), 1); // unknown client ignored
    }

    #[test]
    fn persist_load_roundtrip() {
        let mut m = empty(4);
        let _ = join(&mut m, 1, 100);
        let _ = join(&mut m, 2, 200);
        // Leave one pending join in flight.
        m.phase1(pk(9), 9, 9, b"pending".to_vec(), 33);

        let mut state = PagedState::new(4);
        m.store(&mut state);
        assert_eq!(Membership::open(SECTION, &state, 4), m);
    }

    #[test]
    fn load_from_fresh_state_is_empty() {
        let m = empty(8);
        assert_eq!(m.active_sessions(), 0);
        assert_eq!(m.pending_joins(), 0);
    }

    #[test]
    #[should_panic(expected = "membership table image decodes")]
    fn open_over_a_corrupt_image_stops() {
        let mut state = PagedState::new(4);
        BlobCell::new(SECTION, MEMBERSHIP_MAGIC)
            .store(&mut state, b"not a table")
            .expect("fits");
        let _ = Membership::open(SECTION, &state, 4);
    }

    #[test]
    fn join_that_would_not_fit_is_denied_and_changes_nothing() {
        let mut m = empty(1);
        let before = m.clone();
        let huge = vec![7u8; SECTION.len as usize];
        assert_eq!(m.phase1(pk(1), 1, 1, huge, 5), None);
        assert_eq!(m, before);
        // Phase two: an authorization that binds an identity too large for
        // the section is refused, and the eviction it caused is undone.
        let client = match join(&mut m, 2, 100) {
            JoinOutcome::Joined { client, .. } => client,
            o => panic!("{o:?}"),
        };
        let ch = m.phase1(pk(3), 3, 3, b"user2".to_vec(), 6).expect("fits");
        let before = m.clone();
        let resp = make_response(&ch, &pk(3).fingerprint());
        assert_eq!(
            m.phase2(&pk(3).fingerprint(), &resp, 5_000, 1_000, &mut |_| Some(
                vec![0u8; SECTION.len as usize]
            )),
            JoinOutcome::Denied(SECTION_FULL)
        );
        assert_eq!(m, before);
        assert!(m.contains(client));
    }

    #[test]
    fn eviction_reports_every_ended_session() {
        let mut m = empty(2);
        let mut ids = Vec::new();
        for seed in 1..=2 {
            match join(&mut m, seed, 100) {
                JoinOutcome::Joined { client, .. } => ids.push(client),
                o => panic!("{o:?}"),
            }
        }
        match join(&mut m, 3, 5_000) {
            JoinOutcome::Joined { ended, .. } => assert_eq!(ended, ids),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn identical_operations_identical_tables() {
        // The determinism property every replica relies on.
        let mut a = empty(4);
        let mut b = empty(4);
        for m in [&mut a, &mut b] {
            let _ = join(m, 1, 100);
            let _ = join(m, 2, 200);
            m.touch(ClientId(1000), 300);
        }
        assert_eq!(a, b);
        let mut sa = PagedState::new(4);
        let mut sb = PagedState::new(4);
        a.store(&mut sa);
        b.store(&mut sb);
        assert_eq!(sa.refresh_digest(), sb.refresh_digest());
    }
}
