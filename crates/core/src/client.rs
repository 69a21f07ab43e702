//! The PBFT client engine (sans-io).
//!
//! Implements the client side of §2.1: requests are sent to the primary
//! (or multicast to all replicas when big), replies are collected until a
//! quorum of matching results arrives — f+1 stable replies, or 2f+1
//! tentative/read-only replies — and unanswered requests are retransmitted
//! to the whole group. The client also runs the blind NewKey retransmission
//! timer of §2.3 and, in dynamic deployments, the two-phase Join of §3.1.

use std::collections::VecDeque;
use std::sync::Arc;

use pbft_crypto::challenge::{make_response, Challenge};
use pbft_crypto::Digest;

use crate::config::{AuthMode, PbftConfig};
use crate::keys::ClientKeys;
use crate::messages::view::PacketView;
use crate::messages::{
    AuthTag, Envelope, Message, NewKeyMsg, Operation, ReplyMsg, RequestMsg, Sender,
};
use crate::output::{HandleResult, NetTarget, Output, TimerKind};
use crate::types::{ClientId, NetAddr, ReplicaId, View};

/// Client retransmission timeout, in nanoseconds.
pub(crate) const RETRANSMIT_NS: u64 = 150_000_000;

/// Events surfaced to the application driving the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// The dynamic Join completed; the service assigned this id.
    Joined(ClientId),
    /// The dynamic Join was denied.
    JoinDenied(String),
    /// A request completed with a quorum-certified result.
    ReplyDelivered {
        /// The request's client timestamp.
        timestamp: u64,
        /// The certified result bytes.
        result: Vec<u8>,
        /// Nanoseconds between first send and quorum.
        latency_ns: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JoinState {
    /// Static membership or join already complete.
    Member,
    /// Phase-one Join sent; waiting for f+1 matching challenges.
    AwaitingChallenge,
    /// Phase-two sent; waiting for the admission verdict.
    AwaitingAdmission,
}

#[derive(Debug)]
struct Outstanding {
    req: RequestMsg,
    sent_ns: u64,
    /// When the request was last (re)sent: the retransmission deadline is
    /// `last_send_ns + RETRANSMIT_NS`.
    last_send_ns: u64,
    big: bool,
    /// Each distinct result a full reply carried, with the replicas that
    /// answered it. A replica answers at most one, and a result nobody
    /// answers any more is dropped, so there are at most n.
    held: Vec<Held>,
    /// Vouches that no held result verified yet, at most one per replica:
    /// each is tried against every result that arrives after it.
    parked: Vec<Parked>,
}

/// A result, byte for byte, and the replicas that answered with it.
#[derive(Debug)]
struct Held {
    result: Vec<u8>,
    /// `(replica, tentative)` per authenticated answer.
    voters: Vec<(ReplicaId, bool)>,
}

/// A vouch waiting for the result its authenticator covers.
#[derive(Debug)]
struct Parked {
    replica: ReplicaId,
    tentative: bool,
    /// The vouch's wire prefix, which the authenticator covers with the
    /// result appended.
    prefix: Vec<u8>,
    auth: AuthTag,
}

impl Outstanding {
    /// `replica` answered with `held[i]`'s result; any earlier answer of
    /// its no longer counts. Returns the index that result has after the
    /// results nobody answers any more are dropped.
    fn answer(&mut self, i: usize, replica: ReplicaId, tentative: bool) -> usize {
        for h in &mut self.held {
            h.voters.retain(|&(r, _)| r != replica);
        }
        self.held[i].voters.push((replica, tentative));
        let before = self.held[..i]
            .iter()
            .filter(|h| h.voters.is_empty())
            .count();
        self.held.retain(|h| !h.voters.is_empty());
        i - before
    }
}

/// Client metrics for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientMetrics {
    /// Requests completed with a quorum.
    pub completed: u64,
    /// Total latency (ns) across completed requests.
    pub total_latency_ns: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
}

/// The PBFT client state machine.
pub struct Client {
    cfg: PbftConfig,
    keys: ClientKeys,
    group_seed: u64,
    addr: NetAddr,
    id: ClientId,
    join: JoinState,
    idbuf: Vec<u8>,
    join_nonce: u64,
    timestamp: u64,
    view_guess: View,
    outstanding: Option<Outstanding>,
    /// Whether the host holds a pending `Retransmit` firing. The one timer
    /// is re-armed lazily: armed only when none is pending, never cancelled
    /// on completion, and a firing that finds its deadline moved re-arms for
    /// the remainder — so a host's queue holds at most one retransmit event
    /// per client instead of one dead event per completed operation.
    retransmit_armed: bool,
    queue: VecDeque<(Vec<u8>, bool)>,
    events: Vec<ClientEvent>,
    /// Metrics for throughput harnesses.
    pub metrics: ClientMetrics,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("join", &self.join)
            .field("completed", &self.metrics.completed)
            .finish()
    }
}

impl Client {
    /// A statically configured client (known to all replicas a priori).
    pub fn new_static(cfg: PbftConfig, group_seed: u64, id: ClientId, addr: NetAddr) -> Client {
        let keys = ClientKeys::new(group_seed, id, cfg.n());
        Client {
            cfg,
            keys,
            group_seed,
            addr,
            id,
            join: JoinState::Member,
            idbuf: Vec::new(),
            join_nonce: 0,
            timestamp: 0,
            view_guess: 0,
            outstanding: None,
            retransmit_armed: false,
            queue: VecDeque::new(),
            events: Vec::new(),
            metrics: ClientMetrics::default(),
        }
    }

    /// A dynamic client that must Join before submitting requests (§3.1).
    /// `identity_seed` individualizes its key pair; `idbuf` is the
    /// application identification buffer (e.g. credentials).
    pub fn new_dynamic(
        cfg: PbftConfig,
        group_seed: u64,
        identity_seed: u64,
        addr: NetAddr,
        idbuf: Vec<u8>,
    ) -> Client {
        // Until an id is assigned, the client's own key pair hangs off its
        // identity seed; replica public keys come from the group config.
        let provisional = ClientId(identity_seed | 0x8000_0000_0000_0000);
        let keys = ClientKeys::new_dynamic(group_seed, identity_seed, provisional, cfg.n());
        Client {
            cfg,
            keys,
            group_seed,
            addr,
            id: provisional,
            join: JoinState::AwaitingChallenge,
            idbuf,
            join_nonce: identity_seed,
            timestamp: 0,
            view_guess: 0,
            outstanding: None,
            retransmit_armed: false,
            queue: VecDeque::new(),
            events: Vec::new(),
            metrics: ClientMetrics::default(),
        }
    }

    /// The client's current id (provisional until a dynamic join completes).
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether the client is a full member (can submit requests).
    pub fn is_member(&self) -> bool {
        self.join == JoinState::Member
    }

    /// Drain surfaced events.
    pub fn take_events(&mut self) -> Vec<ClientEvent> {
        std::mem::take(&mut self.events)
    }

    /// Queue depth (submitted but not yet sent operations).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether a request is in flight.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Called once at startup: distribute session keys (static members) or
    /// begin the Join (dynamic), and arm the blind NewKey timer.
    pub fn on_start(&mut self, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        match self.join {
            JoinState::Member => self.send_new_key(&mut res),
            JoinState::AwaitingChallenge | JoinState::AwaitingAdmission => {
                self.join = JoinState::AwaitingChallenge;
                self.send_join_phase1(now_ns, &mut res);
            }
        }
        res.outputs.push(Output::SetTimer {
            kind: TimerKind::NewKey,
            delay_ns: self.cfg.newkey_interval_ns,
        });
        res
    }

    /// Submit an application operation. Sends immediately if idle, else
    /// queues (PBFT allows one outstanding request per client).
    pub fn submit(&mut self, op: Vec<u8>, read_only: bool, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        self.queue.push_back((op, read_only));
        self.pump(now_ns, &mut res);
        res
    }

    /// Ask the service to terminate this session (§3.1 Leave).
    pub fn leave(&mut self, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        if self.join == JoinState::Member {
            let req = self.build_request(Operation::Leave, false);
            self.dispatch_request(req, now_ns, &mut res);
        }
        res
    }

    fn pump(&mut self, now_ns: u64, res: &mut HandleResult) {
        if self.outstanding.is_some() || self.join != JoinState::Member {
            return;
        }
        let Some((op, read_only)) = self.queue.pop_front() else {
            return;
        };
        let req = self.build_request(Operation::App(op), read_only);
        self.dispatch_request(req, now_ns, res);
    }

    fn build_request(&mut self, op: Operation, read_only: bool) -> RequestMsg {
        self.timestamp += 1;
        RequestMsg {
            client: self.id,
            timestamp: self.timestamp,
            read_only,
            reply_addr: self.addr,
            op,
        }
    }

    fn dispatch_request(&mut self, req: RequestMsg, now_ns: u64, res: &mut HandleResult) {
        // Under `all_requests_big` every request is big: no trial encoding.
        let big = self.cfg.all_requests_big || self.cfg.is_big(req.encoded_len());
        self.send_request(&req, big, false, res);
        self.outstanding = Some(Outstanding {
            req,
            sent_ns: now_ns,
            last_send_ns: now_ns,
            big,
            held: Vec::new(),
            parked: Vec::new(),
        });
        if !self.retransmit_armed {
            self.arm_retransmit(RETRANSMIT_NS, res);
        }
    }

    fn arm_retransmit(&mut self, delay_ns: u64, res: &mut HandleResult) {
        self.retransmit_armed = true;
        res.outputs.push(Output::SetTimer {
            kind: TimerKind::Retransmit,
            delay_ns,
        });
    }

    /// Send a request: big requests are multicast to all replicas; others go
    /// to the primary only. On retransmission everything goes to everyone
    /// ("the client is expected to keep retransmitting its request").
    fn send_request(
        &mut self,
        req: &RequestMsg,
        big: bool,
        retransmit: bool,
        res: &mut HandleResult,
    ) {
        let is_join = matches!(
            req.op,
            Operation::JoinPhase1 { .. } | Operation::JoinPhase2 { .. }
        );
        let msg = Message::Request(req.clone());
        let prefix = Envelope::encode_prefix(self.sender(), &msg);
        res.counts.digest_bytes += prefix.len() as u64;
        let auth = if is_join {
            // Joins are always signed: the service has no session key yet.
            res.counts.sign += 1;
            AuthTag::Sig(self.keys.keypair().sign(&prefix))
        } else {
            self.keys
                .seal_request(self.cfg.auth, &prefix, &mut res.counts)
        };
        // Encode-once: every destination shares the same sealed bytes.
        let packet = Arc::new(Envelope::seal(prefix, &auth));
        let env = Arc::new(Envelope {
            sender: self.sender(),
            msg,
            auth,
        });
        if big || retransmit || is_join {
            for i in 0..self.cfg.n() as u32 {
                res.outputs.push(Output::Send {
                    to: NetTarget::Replica(ReplicaId(i)),
                    packet: Arc::clone(&packet),
                    envelope: Arc::clone(&env),
                });
            }
        } else {
            let primary = self.cfg.primary_of(self.view_guess);
            res.outputs.push(Output::Send {
                to: NetTarget::Replica(primary),
                packet,
                envelope: env,
            });
        }
    }

    fn sender(&self) -> Sender {
        match self.join {
            JoinState::Member => Sender::Client(self.id),
            _ => Sender::Anonymous,
        }
    }

    fn send_new_key(&mut self, res: &mut HandleResult) {
        let msg = Message::NewKey(NewKeyMsg {
            client: self.id,
            reply_addr: self.addr,
            keys: self.keys.session_key_bytes(),
        });
        let prefix = Envelope::encode_prefix(Sender::Client(self.id), &msg);
        res.counts.sign += 1;
        let auth = AuthTag::Sig(self.keys.keypair().sign(&prefix));
        let packet = Arc::new(Envelope::seal(prefix, &auth));
        let env = Arc::new(Envelope {
            sender: Sender::Client(self.id),
            msg,
            auth,
        });
        for i in 0..self.cfg.n() as u32 {
            res.outputs.push(Output::Send {
                to: NetTarget::Replica(ReplicaId(i)),
                packet: Arc::clone(&packet),
                envelope: Arc::clone(&env),
            });
        }
    }

    /// Proactive-recovery hook: redistribute this client's session keys
    /// with a fresh signed NewKey broadcast, re-deriving them first
    /// ([`ClientKeys::rekey`]) if its id changed since they were derived —
    /// they are a function of the id, so a static client's never do. A
    /// replica that was just rebooted on the rolling recovery schedule lost
    /// its transient session keys (§2.3); this re-keys it immediately
    /// instead of waiting for the blind NewKey retransmission timer. No-op
    /// for clients still mid-join.
    pub fn redistribute_session_keys(&mut self) -> HandleResult {
        let mut res = HandleResult::default();
        if matches!(self.join, JoinState::Member) {
            if self.keys.id() != self.id {
                self.keys.rekey(self.group_seed, self.id);
            }
            self.send_new_key(&mut res);
        }
        res
    }

    fn send_join_phase1(&mut self, now_ns: u64, res: &mut HandleResult) {
        let op = Operation::JoinPhase1 {
            pubkey: self.keys.keypair().public(),
            nonce: self.join_nonce,
            reply_addr: self.addr,
            idbuf: self.idbuf.clone(),
        };
        // Provisional reply-matching id: the fingerprint prefix.
        let fp = self.keys.keypair().public().fingerprint();
        self.id = ClientId(fp.prefix_u64());
        let req = self.build_request(op, false);
        self.dispatch_request(req, now_ns, res);
    }

    fn send_join_phase2(&mut self, challenge: Challenge, now_ns: u64, res: &mut HandleResult) {
        let fp = self.keys.keypair().public().fingerprint();
        let response = make_response(&challenge, &fp);
        let op = Operation::JoinPhase2 {
            fingerprint: fp,
            response,
        };
        self.join = JoinState::AwaitingAdmission;
        let req = self.build_request(op, false);
        self.dispatch_request(req, now_ns, res);
    }

    /// Handle an incoming packet (replies only; clients ignore the rest).
    pub fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        let Ok(view) = PacketView::parse(packet) else {
            return res;
        };
        let prefix = view.prefix();
        let (Message::Reply(reply), Sender::Replica(from)) = (view.msg, view.sender) else {
            return res;
        };
        if from != reply.replica || from.0 as usize >= self.cfg.n() {
            return res;
        }
        // A reply for anything but the outstanding request — a late one
        // after the quorum, a stale one — is dropped before it costs a MAC.
        let expected = self.outstanding.as_ref().map(|out| out.req.timestamp);
        if reply.client != self.id || Some(reply.timestamp) != expected {
            return res;
        }
        let auth = view.auth.to_tag();
        if reply.body_omitted {
            // A vouch verifies only against the result it omits.
            self.on_reply(reply, Some((prefix, auth)), now_ns, &mut res);
        } else if self
            .keys
            .verify_reply(from, prefix, &[], &auth, &mut res.counts)
        {
            self.on_reply(reply, None, now_ns, &mut res);
        }
        res
    }

    /// A reply to the outstanding request from `reply.replica`: a full one,
    /// already verified, or a vouch (`vouch` holds its prefix and
    /// authenticator), verified here against each held result in turn. A
    /// result is never hashed: replies match byte for byte, and a vouch's
    /// authenticator covers the bytes.
    fn on_reply(
        &mut self,
        mut reply: ReplyMsg,
        vouch: Option<(&[u8], AuthTag)>,
        now_ns: u64,
        res: &mut HandleResult,
    ) {
        let out = self.outstanding.as_mut().expect("the reply matched it");
        let (replica, tentative) = (reply.replica, reply.tentative);
        let (keys, counts) = (&self.keys, &mut res.counts);
        let i = match vouch {
            Some((prefix, auth)) => {
                if !reply.result.is_empty() || auth == AuthTag::None {
                    return; // a vouch carries no result and is authenticated
                }
                let found = out
                    .held
                    .iter()
                    .position(|h| keys.verify_reply(replica, prefix, &h.result, &auth, counts));
                let Some(i) = found else {
                    out.parked.retain(|p| p.replica != replica);
                    out.parked.push(Parked {
                        replica,
                        tentative,
                        prefix: prefix.to_vec(),
                        auth,
                    });
                    return;
                };
                out.answer(i, replica, tentative)
            }
            None => match out.held.iter().position(|h| h.result == reply.result) {
                Some(i) => out.answer(i, replica, tentative),
                None => {
                    out.held.push(Held {
                        result: std::mem::take(&mut reply.result),
                        voters: Vec::new(),
                    });
                    let mut i = out.answer(out.held.len() - 1, replica, tentative);
                    // The vouches this result was missing.
                    for p in std::mem::take(&mut out.parked) {
                        let result = &out.held[i].result;
                        if keys.verify_reply(p.replica, &p.prefix, result, &p.auth, counts) {
                            i = out.answer(i, p.replica, p.tentative);
                        } else {
                            out.parked.push(p);
                        }
                    }
                    i
                }
            },
        };
        // Quorum rules (§2.1): f+1 matching stable replies, or 2f+1 matching
        // when any of them are tentative (incl. the read-only path).
        let voters = &out.held[i].voters;
        let stable_matching = voters.iter().filter(|&&(_, tent)| !tent).count();
        let done = stable_matching >= self.cfg.weak_quorum() || voters.len() >= self.cfg.quorum();
        if !done {
            return;
        }
        let result = out.held.swap_remove(i).result;
        let latency_ns = now_ns.saturating_sub(out.sent_ns);
        self.view_guess = self.view_guess.max(reply.view);
        // The retransmit timer stays armed: its firing finds nothing due
        // (or the next request's later deadline) and acts on that.
        self.outstanding = None;
        match self.join {
            JoinState::Member => {
                self.metrics.completed += 1;
                self.metrics.total_latency_ns += latency_ns;
                self.events.push(ClientEvent::ReplyDelivered {
                    timestamp: reply.timestamp,
                    result,
                    latency_ns,
                });
                self.pump(now_ns, res);
            }
            JoinState::AwaitingChallenge => {
                if result.len() == 32 {
                    let mut d = [0u8; 32];
                    d.copy_from_slice(&result);
                    self.send_join_phase2(Challenge(Digest(d)), now_ns, res);
                } else {
                    // A refused phase one (`denied:` and its reason).
                    self.join = JoinState::AwaitingChallenge;
                    let reason = String::from_utf8_lossy(&result).into_owned();
                    self.events.push(ClientEvent::JoinDenied(reason));
                }
            }
            JoinState::AwaitingAdmission => {
                if result.starts_with(b"joined:") && result.len() == 15 {
                    let id = u64::from_be_bytes(result[7..15].try_into().expect("8 bytes"));
                    self.id = ClientId(id);
                    // Derive the real session keys for the assigned id and
                    // distribute them.
                    self.keys.rekey(self.group_seed, self.id);
                    self.join = JoinState::Member;
                    self.timestamp = 0;
                    self.send_new_key(res);
                    self.events.push(ClientEvent::Joined(self.id));
                    self.pump(now_ns, res);
                } else {
                    let reason = String::from_utf8_lossy(&result).into_owned();
                    self.events.push(ClientEvent::JoinDenied(reason));
                }
            }
        }
    }

    /// The outstanding request's timeout has run out: send it to everyone
    /// and wait another timeout.
    fn retransmit(&mut self, out: &mut Outstanding, now_ns: u64, res: &mut HandleResult) {
        // Castro's read-only fallback: a read-only request that missed its
        // optimistic 2f+1 quorum (slow, restarted or key-less replicas) is
        // retransmitted as a *regular* ordered request, which needs only f+1
        // stable replies. Without this, an f = 1 group with two replicas
        // missing this client's session key can never serve it a read-only
        // result — and every queued request wedges behind the one
        // outstanding slot.
        if out.req.read_only {
            out.req.read_only = false;
            // Escalation opens a NEW round: bump the timestamp so in-flight
            // replies from the abandoned optimistic round can no longer
            // match `(client, timestamp)` and be counted toward the ordered
            // quorum — they may carry a value that was never stable. The
            // higher timestamp also defeats replica-side duplicate
            // suppression, which would otherwise resend the cached
            // optimistic answer instead of ordering the request.
            self.timestamp += 1;
            out.req.timestamp = self.timestamp;
            out.held.clear();
            out.parked.clear();
        }
        out.last_send_ns = now_ns;
        self.metrics.retransmissions += 1;
        self.send_request(&out.req, out.big, true, res);
        self.arm_retransmit(RETRANSMIT_NS, res);
    }

    /// Handle a timer firing.
    pub fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        match kind {
            TimerKind::Retransmit => {
                self.retransmit_armed = false;
                // Nothing outstanding: stay disarmed until the next dispatch.
                if let Some(mut out) = self.outstanding.take() {
                    let due_ns = out.last_send_ns + RETRANSMIT_NS;
                    if now_ns < due_ns {
                        // Armed for an earlier request that has completed
                        // since: sleep out the rest of this one's timeout.
                        self.arm_retransmit(due_ns - now_ns, &mut res);
                    } else {
                        self.retransmit(&mut out, now_ns, &mut res);
                    }
                    self.outstanding = Some(out);
                }
            }
            TimerKind::NewKey => {
                // Blind periodic authenticator retransmission (§2.3).
                if self.join == JoinState::Member && self.cfg.auth == AuthMode::Macs {
                    self.send_new_key(&mut res);
                }
                res.outputs.push(Output::SetTimer {
                    kind: TimerKind::NewKey,
                    delay_ns: self.cfg.newkey_interval_ns,
                });
            }
            _ => {}
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::types::ReplicaId;

    const SEED: u64 = 0x7e57;

    fn cfg() -> PbftConfig {
        PbftConfig::default()
    }

    fn client() -> Client {
        Client::new_static(cfg(), SEED, ClientId(1), 100)
    }

    /// Seal a reply as replica `r` would (keys preinstalled for client 1).
    fn sealed_reply(r: u32, timestamp: u64, result: &[u8], tentative: bool) -> Vec<u8> {
        seal(r, timestamp, result, tentative, false)
    }

    /// Seal replica `r`'s vouch for `result`.
    fn sealed_vouch(r: u32, timestamp: u64, result: &[u8], tentative: bool) -> Vec<u8> {
        seal(r, timestamp, result, tentative, true)
    }

    fn seal(r: u32, timestamp: u64, result: &[u8], tentative: bool, vouch: bool) -> Vec<u8> {
        let store = KeyStore::new_replica(SEED, ReplicaId(r), 4, &[ClientId(1)]);
        let prefix = reply_prefix(
            r,
            timestamp,
            tentative,
            vouch,
            if vouch { &[] } else { result },
        );
        let omitted = if vouch { result } else { &[] };
        let mut counts = crate::output::OpCounts::default();
        let auth = store.seal_to_client(AuthMode::Macs, ClientId(1), &prefix, omitted, &mut counts);
        Envelope::seal(prefix, &auth)
    }

    fn reply_prefix(
        r: u32,
        timestamp: u64,
        tentative: bool,
        omitted: bool,
        result: &[u8],
    ) -> Vec<u8> {
        let msg = Message::Reply(ReplyMsg {
            view: 0,
            client: ClientId(1),
            timestamp,
            replica: ReplicaId(r),
            tentative,
            body_omitted: omitted,
            result: result.to_vec(),
        });
        Envelope::encode_prefix(Sender::Replica(ReplicaId(r)), &msg)
    }

    #[test]
    fn submit_sends_to_all_when_big() {
        let mut c = client();
        let res = c.submit(vec![0u8; 64], false, 0);
        // allbig default: multicast to all 4 replicas.
        assert_eq!(res.sends().count(), 4);
        assert!(c.has_outstanding());
    }

    #[test]
    fn second_submit_queues() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let res = c.submit(vec![2], false, 0);
        assert_eq!(res.sends().count(), 0, "one outstanding request per client");
        assert_eq!(c.queued(), 1);
    }

    #[test]
    fn tentative_replies_need_quorum_of_three() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        for r in 0..2u32 {
            let res = c.handle_packet(&sealed_reply(r, 1, b"ok", true), 1000);
            drop(res);
            assert!(c.has_outstanding(), "2 tentative replies are not enough");
        }
        let _ = c.handle_packet(&sealed_reply(2, 1, b"ok", true), 2000);
        assert!(
            !c.has_outstanding(),
            "2f+1 matching tentative replies complete"
        );
        let evs = c.take_events();
        assert!(matches!(
            &evs[0],
            ClientEvent::ReplyDelivered { result, timestamp: 1, .. } if result == b"ok"
        ));
        assert_eq!(c.metrics.completed, 1);
    }

    #[test]
    fn stable_replies_need_only_f_plus_one() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let _ = c.handle_packet(&sealed_reply(0, 1, b"ok", false), 1000);
        assert!(c.has_outstanding());
        let _ = c.handle_packet(&sealed_reply(1, 1, b"ok", false), 1000);
        assert!(!c.has_outstanding(), "f+1 stable replies complete");
    }

    #[test]
    fn mismatched_results_do_not_complete() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let _ = c.handle_packet(&sealed_reply(0, 1, b"yes", false), 1000);
        let _ = c.handle_packet(&sealed_reply(1, 1, b"no", false), 1000);
        assert!(c.has_outstanding(), "divergent results must not certify");
        // A second vote for "yes" completes it.
        let _ = c.handle_packet(&sealed_reply(2, 1, b"yes", false), 1000);
        assert!(!c.has_outstanding());
        let evs = c.take_events();
        assert!(matches!(&evs[0], ClientEvent::ReplyDelivered { result, .. } if result == b"yes"));
    }

    /// The reply packets of replicas 0..4 for one 1 KiB result: 0 and 1
    /// send it in full, 2 and 3 vouch for it.
    fn designated_and_vouches(result: &[u8], tentative: bool) -> Vec<Vec<u8>> {
        (0..4u32)
            .map(|r| seal(r, 1, result, tentative, r >= 2))
            .collect()
    }

    /// Deliver `packets` in order; the digest bytes they cost and whether
    /// the request was outstanding after each.
    fn deliver(c: &mut Client, packets: &[&Vec<u8>]) -> (u64, Vec<bool>) {
        let mut hashed = 0;
        let mut outstanding = Vec::new();
        for p in packets {
            hashed += c.handle_packet(p, 1000).counts.digest_bytes;
            outstanding.push(c.has_outstanding());
        }
        (hashed, outstanding)
    }

    #[test]
    fn no_reply_result_is_hashed_in_any_order() {
        let body = vec![7u8; 1024];
        let replies = designated_and_vouches(&body, true);
        // Every order of the four replies: the 24 of 4^4 tuples that hold
        // each index once.
        let orders: Vec<[usize; 4]> = (0..256usize)
            .map(|i| [i & 3, (i >> 2) & 3, (i >> 4) & 3, (i >> 6) & 3])
            .filter(|o| (0..4).all(|r| o.contains(&r)))
            .collect();
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut c = client();
            let _ = c.submit(vec![1], false, 0);
            let packets: Vec<&Vec<u8>> = order.iter().map(|&r| &replies[r]).collect();
            let (hashed, outstanding) = deliver(&mut c, &packets);
            assert_eq!(hashed, 0, "order {order:?}");
            assert_eq!(outstanding, [true, true, false, false], "order {order:?}");
            let evs = c.take_events();
            assert!(
                matches!(&evs[0], ClientEvent::ReplyDelivered { result, .. } if *result == body),
                "order {order:?}"
            );
        }
    }

    #[test]
    fn a_vouch_before_its_result_counts_once_the_result_arrives() {
        let body = vec![7u8; 1024];
        let replies = designated_and_vouches(&body, true);
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let (_, outstanding) = deliver(&mut c, &[&replies[2], &replies[3]]);
        assert_eq!(outstanding, [true, true], "vouches alone never complete");
        let res = c.handle_packet(&replies[0], 1000);
        assert!(!c.has_outstanding(), "the full reply and both vouches");
        assert_eq!(
            res.counts.mac_verify, 3,
            "the full reply, then each parked vouch"
        );
        // A late vouch is dropped unverified.
        let res = c.handle_packet(&sealed_vouch(3, 1, &body, true), 1000);
        assert_eq!(res.counts, crate::output::OpCounts::default());
    }

    #[test]
    fn a_reply_for_no_outstanding_request_costs_no_mac() {
        let body = vec![7u8; 1024];
        let replies = designated_and_vouches(&body, true);
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let (_, outstanding) = deliver(&mut c, &[&replies[0], &replies[2], &replies[3]]);
        assert_eq!(outstanding, [true, true, false]);
        // The second designated replier's full reply arrives after the
        // quorum: dropped unverified.
        let res = c.handle_packet(&replies[1], 1000);
        assert_eq!(res.counts, crate::output::OpCounts::default());
        // So is a full reply for another timestamp while one is outstanding.
        let _ = c.submit(vec![2], false, 0);
        let res = c.handle_packet(&sealed_reply(1, 1, &body, true), 1000);
        assert_eq!(res.counts, crate::output::OpCounts::default());
        assert!(c.has_outstanding());
        let res = c.handle_packet(&sealed_reply(1, 2, &body, true), 1000);
        assert_eq!(res.counts.mac_verify, 1, "the outstanding one is verified");
    }

    /// Packets that claim to vouch for `body` as replica `r` and must never
    /// count.
    fn forged_vouches(r: u32, body: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
        let mut tampered = sealed_vouch(r, 1, body, true);
        *tampered.last_mut().expect("a tag") ^= 1;
        let other = sealed_vouch(r, 1, &vec![8u8; body.len()], true);
        let unauthenticated = Envelope::seal(reply_prefix(r, 1, true, true, &[]), &AuthTag::None);
        let store = KeyStore::new_replica(SEED, ReplicaId(r), 4, &[ClientId(1)]);
        let mut counts = crate::output::OpCounts::default();
        let mut carrying = |omitted: &[u8]| {
            let prefix = reply_prefix(r, 1, true, true, body);
            let auth =
                store.seal_to_client(AuthMode::Macs, ClientId(1), &prefix, omitted, &mut counts);
            Envelope::seal(prefix, &auth)
        };
        vec![
            ("a tampered tag", tampered),
            ("a vouch for another result", other),
            ("an unauthenticated vouch", unauthenticated),
            ("a vouch carrying its result", carrying(&[])),
            ("a vouch carrying and covering its result", carrying(body)),
        ]
    }

    #[test]
    fn forged_vouches_never_count() {
        let body = vec![7u8; 1024];
        let replies = designated_and_vouches(&body, true);
        for (what, forged) in forged_vouches(2, &body) {
            // Before the result (parked) and after it.
            for early in [true, false] {
                let mut c = client();
                let _ = c.submit(vec![1], false, 0);
                let mut packets = vec![&replies[0], &replies[3]];
                packets.insert(if early { 0 } else { 2 }, &forged);
                let (hashed, outstanding) = deliver(&mut c, &packets);
                assert_eq!(hashed, 0);
                assert_eq!(outstanding, [true; 3], "{what} counted (early: {early})");
                // The genuine vouch of the same replica completes it.
                let _ = c.handle_packet(&replies[2], 1000);
                assert!(!c.has_outstanding(), "{what} (early: {early})");
            }
        }
    }

    #[test]
    fn parked_vouches_stay_one_per_replica() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let parked = |c: &Client| c.outstanding.as_ref().expect("outstanding").parked.len();
        for round in 0..5u8 {
            for r in 1..4u32 {
                let _ = c.handle_packet(&sealed_vouch(r, 1, &[round; 64], true), 1000);
            }
            assert_eq!(parked(&c), 3, "round {round}");
        }
        // The latest vouch of each replica is the one kept: their result
        // completes the request with one full reply.
        let _ = c.handle_packet(&sealed_reply(0, 1, &[4; 64], true), 1000);
        assert!(!c.has_outstanding());
    }

    #[test]
    fn stale_timestamp_replies_ignored() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        for r in 0..3u32 {
            let _ = c.handle_packet(&sealed_reply(r, 99, b"ok", true), 1000);
        }
        assert!(c.has_outstanding(), "replies for another timestamp ignored");
    }

    #[test]
    fn retransmit_goes_to_everyone() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        let res = c.on_timer(TimerKind::Retransmit, RETRANSMIT_NS);
        assert_eq!(res.sends().count(), 4);
        assert_eq!(c.metrics.retransmissions, 1);
        // Completion issues the next queued op.
        let _ = c.submit(vec![2], false, 0);
        for r in 0..3u32 {
            let _ = c.handle_packet(&sealed_reply(r, 1, b"ok", true), 2000);
        }
        assert!(c.has_outstanding(), "queued op dispatched after completion");
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn escalated_read_ignores_stale_optimistic_replies() {
        let mut c = client();
        let _ = c.submit(b"read".to_vec(), true, 0);
        // The retransmit timer escalates the read-only request to an
        // ordered one (§2.1 fallback). That must open a fresh round.
        let _ = c.on_timer(TimerKind::Retransmit, RETRANSMIT_NS);
        // 2f+1 late replies from the abandoned optimistic round (old
        // timestamp) arrive afterwards: they must not complete the
        // escalated request — their value was never ordered.
        for r in 0..3u32 {
            let at = RETRANSMIT_NS + 1_000_000;
            let _ = c.handle_packet(&sealed_reply(r, 1, b"stale", true), at);
        }
        assert!(
            c.has_outstanding(),
            "stale optimistic replies certified the escalated round"
        );
        // Replies for the escalated round's timestamp complete it.
        for r in 0..3u32 {
            let at = RETRANSMIT_NS + 2_000_000;
            let _ = c.handle_packet(&sealed_reply(r, 2, b"fresh", true), at);
        }
        assert!(!c.has_outstanding());
        let evs = c.take_events();
        assert!(
            matches!(&evs[0], ClientEvent::ReplyDelivered { result, .. } if result == b"fresh")
        );
    }

    const MS: u64 = 1_000_000;

    /// The `(SetTimer(Retransmit) delays, CancelTimer count)` of a result.
    fn retransmit_timer_ops(res: &HandleResult) -> (Vec<u64>, usize) {
        let mut set = Vec::new();
        let mut cancelled = 0;
        for o in &res.outputs {
            match o {
                Output::SetTimer {
                    kind: TimerKind::Retransmit,
                    delay_ns,
                } => set.push(*delay_ns),
                Output::CancelTimer { .. } => cancelled += 1,
                _ => {}
            }
        }
        (set, cancelled)
    }

    #[test]
    fn one_retransmit_timer_is_rearmed_lazily() {
        let mut c = client();
        let mut set = Vec::new();
        let mut cancelled = 0;
        let mut note = |res: HandleResult| {
            let (s, n) = retransmit_timer_ops(&res);
            set.extend(s);
            cancelled += n;
        };
        note(c.submit(vec![1], false, 0));
        for r in 0..3u32 {
            note(c.handle_packet(&sealed_reply(r, 1, b"ok", true), MS));
        }
        assert_eq!(c.metrics.completed, 1);
        note(c.submit(vec![2], false, 2 * MS));
        assert_eq!(set, [RETRANSMIT_NS], "armed once, by the first submit");
        assert_eq!(cancelled, 0, "completion leaves the timer alone");

        // The first request's deadline: it completed, the second is not due.
        let res = c.on_timer(TimerKind::Retransmit, RETRANSMIT_NS);
        assert_eq!(res.sends().count(), 0);
        assert_eq!(retransmit_timer_ops(&res), (vec![2 * MS], 0));
        assert_eq!(c.metrics.retransmissions, 0);

        // The second request's own deadline, still unanswered.
        let res = c.on_timer(TimerKind::Retransmit, RETRANSMIT_NS + 2 * MS);
        assert_eq!(res.sends().count(), 4, "retransmission to all n");
        assert_eq!(retransmit_timer_ops(&res), (vec![RETRANSMIT_NS], 0));
        assert_eq!(c.metrics.retransmissions, 1);
    }

    #[test]
    fn idle_firing_disarms_and_next_submit_arms_again() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        for r in 0..3u32 {
            let _ = c.handle_packet(&sealed_reply(r, 1, b"ok", true), MS);
        }
        let res = c.on_timer(TimerKind::Retransmit, RETRANSMIT_NS);
        assert!(res.outputs.is_empty(), "nothing outstanding: no output");
        assert_eq!(res.counts, crate::output::OpCounts::default());
        let res = c.submit(vec![2], false, RETRANSMIT_NS + MS);
        assert_eq!(retransmit_timer_ops(&res), (vec![RETRANSMIT_NS], 0));
    }

    #[test]
    fn read_only_escalates_exactly_at_its_deadline() {
        let mut c = client();
        let sent = 7 * MS;
        let _ = c.submit(b"read".to_vec(), true, sent);
        let sent_requests = |res: &HandleResult| {
            res.sends()
                .map(|(_, env)| match &env.msg {
                    Message::Request(r) => (r.read_only, r.timestamp),
                    other => panic!("unexpected {}", other.name()),
                })
                .collect::<Vec<_>>()
        };
        // One nanosecond early: not due, nothing sent, the remainder re-armed.
        let res = c.on_timer(TimerKind::Retransmit, sent + RETRANSMIT_NS - 1);
        assert_eq!(res.sends().count(), 0);
        assert_eq!(retransmit_timer_ops(&res), (vec![1], 0));
        // At `sent + RETRANSMIT_NS`: escalated to an ordered request under a
        // fresh timestamp, to every replica.
        let res = c.on_timer(TimerKind::Retransmit, sent + RETRANSMIT_NS);
        assert_eq!(sent_requests(&res), vec![(false, 2); 4]);
        assert_eq!(retransmit_timer_ops(&res), (vec![RETRANSMIT_NS], 0));
    }

    #[test]
    fn newkey_timer_rebroadcasts_keys() {
        let mut c = client();
        let res = c.on_timer(TimerKind::NewKey, 0);
        assert_eq!(
            res.sends().count(),
            4,
            "blind NewKey to every replica (§2.3)"
        );
        assert!(res
            .sends()
            .all(|(_, env)| matches!(env.msg, Message::NewKey(_))));
    }

    #[test]
    fn bad_reply_auth_ignored() {
        let mut c = client();
        let _ = c.submit(vec![1], false, 0);
        // A reply sealed with the wrong deployment seed fails verification.
        let store = KeyStore::new_replica(SEED ^ 1, ReplicaId(0), 4, &[ClientId(1)]);
        let msg = Message::Reply(ReplyMsg {
            view: 0,
            client: ClientId(1),
            timestamp: 1,
            replica: ReplicaId(0),
            tentative: false,
            body_omitted: false,
            result: b"forged".to_vec(),
        });
        let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(0)), &msg);
        let mut counts = crate::output::OpCounts::default();
        let auth = store.seal_to_client(AuthMode::Macs, ClientId(1), &prefix, &[], &mut counts);
        let packet = Envelope::seal(prefix, &auth);
        let _ = c.handle_packet(&packet, 1000);
        let _ = c.handle_packet(&sealed_reply(1, 1, b"forged", false), 1000);
        assert!(
            c.has_outstanding(),
            "one bad + one good reply must not certify"
        );
    }

    #[test]
    fn dynamic_client_starts_with_join() {
        let mut c = Client::new_dynamic(cfg(), SEED, 9, 200, b"user:pw".to_vec());
        assert!(!c.is_member());
        let res = c.on_start(0);
        assert!(res
            .sends()
            .any(|(_, env)| matches!(&env.msg, Message::Request(r)
                if matches!(r.op, Operation::JoinPhase1 { .. }))));
    }
}
