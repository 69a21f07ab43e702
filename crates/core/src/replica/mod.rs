//! The PBFT replica engine (sans-io).
//!
//! One [`Replica`] value is the complete protocol state machine for one
//! group member: feed it packets and timer firings, collect sends and timer
//! arms. Submodules: `execution` (ordering → execution → checkpoints),
//! `viewchange` (primary failover) and `recovery` (status exchange and
//! state transfer).

mod execution;
mod recovery;
mod viewchange;

#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use pbft_crypto::Digest;
use pbft_state::{Fetcher, Section, Snapshot};

use crate::app::{App, Effects, NonDet, StateHandle};
use crate::config::{AuthMode, Engine, PbftConfig};
use crate::keys::KeyStore;
use crate::log::MessageLog;
use crate::membership::Membership;
use crate::messages::view::{AuthView, PacketView};
use crate::messages::{
    AuthTag, Envelope, Message, NewKeyMsg, ReplyMsg, RequestMsg, Sender, StatusMsg, ViewChangeMsg,
};
use crate::output::{HandleResult, NetTarget, OpCounts, Output, PacketBuf, TimerKind};
use crate::session::{SessionCtx, SessionStore};
use crate::types::{ClientId, FoldMap, FoldSet, NetAddr, ReplicaId, SeqNum, View, MAX_REPLICAS};

/// Pages holding the membership tables at the front of the state region.
pub const MEMBERSHIP_PAGES: u64 = 4;

/// Pages holding the per-session state table (the §3.3.2 subsystem), after
/// the membership pages.
pub const SESSION_PAGES: u64 = 4;

/// Pages after the session table reserved for an *application wrapper*: a
/// layer mounted between the library and the application proper that keeps
/// replicated tables of its own (the workspace's one wrapper is the
/// cross-shard layer, which const-asserts that its tables fill exactly this
/// section). The library never reads or writes these pages; they are
/// reserved whether or not a wrapper is mounted so that every deployment
/// shares one region layout.
pub const APP_WRAPPER_PAGES: u64 = 56;

/// Pages reserved at the front of the state region for the library partition
/// (membership tables + session state + the application-wrapper section).
/// The application partition starts after them.
pub const LIB_REGION_PAGES: u64 = MEMBERSHIP_PAGES + SESSION_PAGES + APP_WRAPPER_PAGES;

/// Capacity of the client/session table (dynamic membership).
const MAX_CLIENTS: usize = 64;

/// Interval of the replica status broadcast that drives protocol-message
/// retransmission to lagging peers (PBFT's recovery from lost
/// replica-to-replica datagrams): 150 ms.
const STATUS_INTERVAL_NS: u64 = 150_000_000;

/// Capacity of the contention gate's deferred-read queue: a read-only
/// request whose declared keys are dirty in a tentatively executed
/// (prepared but uncommitted) batch is parked until local commit instead of
/// being answered from uncommitted state — the answer would force the
/// client through retransmit-and-escalate. A client parks at most one read
/// (a newer timestamp replaces its older one), so the queue holds one entry
/// per client. Once it is full, a further contended read is dropped: the
/// client's retransmit-then-escalate path answers it through ordering.
/// No read of a declared operation is answered from tentative state; one
/// that declares nothing ([`Effects::None`]) is served at once, tentative
/// state included (ARCHITECTURE.md, "Deliberate deviations").
const READ_DEFER_MAX: usize = 64;

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// Requests whose execution completed (including tentative).
    pub executed_requests: u64,
    /// Batches executed.
    pub batches_executed: u64,
    /// Batches executed tentatively (before commit).
    pub tentative_executions: u64,
    /// Times execution stalled on a missing big-request body (§2.4).
    pub stuck_missing_body: u64,
    /// State transfers started.
    pub state_transfers_started: u64,
    /// State transfers completed.
    pub state_transfers_completed: u64,
    /// View changes this replica voted for.
    pub view_changes_started: u64,
    /// New views entered.
    pub new_views_entered: u64,
    /// Messages dropped for failed authentication (includes the restarted-
    /// replica authenticator losses of §2.3).
    pub auth_failures: u64,
    /// Pre-prepares rejected by non-determinism validation (§2.5).
    pub nondet_validation_failures: u64,
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Read-only requests served via the fast path.
    pub read_only_served: u64,
    /// Read-only requests parked by the contention gate: their declared
    /// keys (or an [`Effects::Admin`] operation) were dirty in a
    /// tentatively executed, not-yet-committed batch, so the read was held
    /// until local commit instead of being answered from uncommitted state.
    pub read_only_deferred: u64,
    /// Contended reads dropped because the deferred-read queue was at
    /// capacity (64 clients with a parked read). The client's
    /// retransmit-then-escalate path answers them through ordering.
    pub read_defer_overflow: u64,
    /// Malformed packets dropped.
    pub decode_failures: u64,
    /// Requests re-replied from the last-reply cache.
    pub duplicate_requests: u64,
    /// Agreement-phase packets sent (pre-prepare, prepare, commit, and the
    /// linear engine's QC broadcasts), counted per destination. The benches
    /// compare this across engines to expose per-slot communication cost.
    pub agreement_msgs_sent: u64,
    /// View-change protocol packets sent (view-change votes and new-view
    /// installations), counted per destination. PBFT's all-to-all votes make
    /// this O(n²) per rotation; the linear engine's leader-directed votes
    /// keep it O(n).
    pub viewchange_msgs_sent: u64,
    /// Hot-path cost counter: envelope prefix encodings performed on the
    /// send path. The encode-once rule makes this one per logical send or
    /// broadcast, independent of fan-out — the hotpath bench divides it by
    /// executed requests to check the amortized cost model.
    pub hot_encodings: u64,
    /// Changes refused because the membership or session table image would
    /// no longer fit its section: joins denied with
    /// [`crate::membership::SECTION_FULL`] and session writes refused with
    /// [`crate::session::SessionError::SectionFull`].
    pub table_refusals: u64,
}

/// Declared write-effects of one tentatively executed (prepared but not
/// yet committed) batch — what the read-only contention gate checks reads
/// against, collected from [`App::declared_effects`]. Operations that
/// declare [`Effects::None`] are not tracked: reads of such apps keep the
/// pure optimistic path (the client-side 2f+1 matching rule is what
/// protects them).
#[derive(Debug, Default, Clone)]
pub(crate) struct TentativeEffects {
    /// Keys the batch's requests declared they write.
    pub keys: Vec<Vec<u8>>,
    /// The batch contains an [`Effects::Admin`] operation, which conflicts
    /// with every declared read.
    pub admin: bool,
}

impl TentativeEffects {
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty() && !self.admin
    }

    /// Record one request's declared effects.
    pub(crate) fn note(&mut self, effects: Effects) {
        match effects {
            Effects::Keys(keys) => self.keys.extend(keys),
            Effects::Admin => self.admin = true,
            Effects::None => {}
        }
    }
}

/// An in-progress state transfer. What is still unanswered is the
/// fetcher's to say ([`Fetcher::outstanding`]).
pub(crate) struct FetchState {
    pub target_seq: SeqNum,
    pub target_root: Digest,
    pub fetcher: Fetcher,
    pub peers: Vec<ReplicaId>,
    pub attempt: usize,
}

/// View-change vote collection.
#[derive(Default)]
pub(crate) struct ViewChangeState {
    /// Votes per proposed view.
    pub votes: BTreeMap<View, BTreeMap<ReplicaId, ViewChangeMsg>>,
    /// The view this replica is currently trying to install (when in a view
    /// change).
    pub target: Option<View>,
}

/// A request in the primary's batching queue, with what admission already
/// worked out about it (so issuing it re-encodes and re-hashes nothing).
/// The request itself waits in [`Replica::bodies`].
pub(crate) struct QueuedRequest {
    /// Digest of the canonical request encoding — the key it is stored
    /// under in `pending_digests` and `bodies`.
    pub(crate) digest: Digest,
    /// The `is_big` verdict on its encoded length.
    pub(crate) big: bool,
}

/// The packet answering `reply` to the client at `addr`. A replica that is
/// not one of the request's `designated` repliers (§2.1) *vouches* instead
/// of sending the result when it can authenticate to the client and the
/// result is longer than a digest: the reply goes out with `body_omitted`
/// set and no result, and its authenticator covers its wire prefix
/// followed by the full result, so it counts for exactly the result bytes
/// a designated replier sent. A short result travels in full (omitting it
/// saves at most 32 bytes, and a full reply counts without waiting for
/// another), as does a reply to a client this replica holds no key for.
/// Takes the fields it uses rather than the replica, so a caller can send
/// while it holds the client's record.
pub(crate) fn reply_output(
    keys: &KeyStore,
    mode: AuthMode,
    metrics: &mut ReplicaMetrics,
    reply: &ReplyMsg,
    designated: bool,
    addr: NetAddr,
    counts: &mut OpCounts,
) -> Output {
    let vouch =
        !designated && reply.result.len() > 32 && keys.can_seal_to_client(mode, reply.client);
    let omitted: &[u8] = if vouch { &reply.result } else { &[] };
    let wire = ReplyMsg {
        body_omitted: vouch,
        result: if vouch {
            Vec::new()
        } else {
            reply.result.clone()
        },
        ..*reply
    };
    let seal = |k: &KeyStore, p: &[u8], c: &mut OpCounts| {
        k.seal_to_client(mode, reply.client, p, omitted, c)
    };
    let (packet, envelope) = seal_envelope(keys, metrics, Message::Reply(wire), seal, counts);
    Output::Send {
        to: NetTarget::Client(addr),
        packet,
        envelope,
    }
}

/// The encode-once rule: one prefix encoding, one authenticator (what
/// `seal` makes of the prefix), one seal. Every destination shares the
/// reference-counted packet and envelope this returns.
fn seal_envelope(
    keys: &KeyStore,
    metrics: &mut ReplicaMetrics,
    msg: Message,
    seal: impl FnOnce(&KeyStore, &[u8], &mut OpCounts) -> AuthTag,
    counts: &mut OpCounts,
) -> (PacketBuf, Arc<Envelope>) {
    let sender = Sender::Replica(keys.me());
    let prefix = Envelope::encode_prefix(sender, &msg);
    metrics.hot_encodings += 1;
    let auth = seal(keys, &prefix, counts);
    let packet = Arc::new(Envelope::seal(prefix, &auth));
    (packet, Arc::new(Envelope { sender, msg, auth }))
}

/// One client's entry in [`Replica::clients`]. An absent record and a
/// default one mean the same thing to every reader.
#[derive(Debug, Default)]
pub(crate) struct ClientRecord {
    /// Timestamp of the client's last executed request: admission answers
    /// an equal timestamp from `reply` and drops an older one. `None` until
    /// one executes, so an unseen client is distinct from timestamp 0.
    pub(crate) executed: Option<u64>,
    /// The last reply sent to the client, full body: an executed request's,
    /// or a read-only answer's.
    pub(crate) reply: Option<ReplyMsg>,
    /// Where replies go: the address of the client's latest admitted
    /// request, NewKey or join.
    pub(crate) addr: Option<NetAddr>,
    /// Primary side: the highest timestamp queued for ordering (0 = none).
    pub(crate) assigned: u64,
}

impl ClientRecord {
    /// The executed timestamp, with "none" as 0 — what "has this request
    /// executed for its client" compares against.
    pub(crate) fn executed_ts(&self) -> u64 {
        self.executed.unwrap_or(0)
    }
}

/// Pages [`pbft_state::PagedState::hash_settled`] may digest after each
/// executed batch, so that the checkpoint's `refresh_digest` — which every
/// replica of the group runs in the same instant — is left with the pages
/// the last batch wrote and not the interval's. An interval of
/// `checkpoint_interval` = 128 batches has room for 128 × 4 = 512 early
/// hashes; the §4.2 INSERT workload dirties 34 pages in it, so the budget is
/// never what delays a page. The cap is for the other end: a transaction
/// that rewrites a hundred pages is paid off over the next 25 batches
/// instead of becoming the next batch's stall.
const SETTLE_PAGES_PER_BATCH: usize = 4;

/// The PBFT replica state machine. See the crate docs for the driving
/// contract.
pub struct Replica {
    pub(crate) cfg: PbftConfig,
    pub(crate) keys: KeyStore,
    pub(crate) state: StateHandle,
    pub(crate) app: Box<dyn App>,

    pub(crate) view: View,
    pub(crate) in_view_change: bool,
    pub(crate) seq_assign: SeqNum,
    pub(crate) log: MessageLog,
    pub(crate) last_executed: SeqNum,
    /// Highest pre-prepare sequence seen; anything at or below is a
    /// retransmission/replay for non-determinism validation purposes (§2.5).
    pub(crate) max_pp_seen: SeqNum,

    /// Primary-side batching queue (digests, as a list and as a set).
    pub(crate) pending: VecDeque<QueuedRequest>,
    pub(crate) pending_digests: FoldSet<Digest>,

    /// The one store a request waits in before execution, keyed by digest
    /// (§2.1/§2.4): every body admission accepted or a pre-prepare named,
    /// and each that `pending` and `observed` name, until its batch executes
    /// and it moves into the log slot ([`LogEntry::bodies`]).
    pub(crate) bodies: FoldMap<Digest, RequestMsg>,

    /// Requests observed (as a backup) but not yet executed — the basis for
    /// primary suspicion, and re-queued in digest order on becoming primary.
    pub(crate) observed: BTreeSet<Digest>,

    /// What this replica remembers about each client it has admitted a
    /// request, a NewKey or a join from. Replica-local (not in the region),
    /// and never dropped: an ended session keeps its record.
    pub(crate) clients: FoldMap<ClientId, ClientRecord>,

    /// Own checkpoints: the snapshot (serving state transfer) and the
    /// execution-chain value at it (for rollback). Then the votes.
    pub(crate) checkpoints: BTreeMap<SeqNum, (Snapshot, Digest)>,
    pub(crate) ckpt_votes: BTreeMap<(SeqNum, Digest), BTreeSet<ReplicaId>>,
    pub(crate) stable: (SeqNum, Digest),

    pub(crate) fetch: Option<FetchState>,
    pub(crate) vc: ViewChangeState,
    pub(crate) membership: Option<Membership>,
    /// Per-session application state (§3.3.2), mirrored in its region
    /// section.
    pub(crate) sessions: SessionStore,

    /// Recovery state (§2.3): set after a restart until the first state
    /// transfer completes.
    pub(crate) recovering: bool,
    pub(crate) peer_status: BTreeMap<ReplicaId, StatusMsg>,
    /// Last time (ns) we sent status+retransmissions to help a lagging peer
    /// (rate limiter: replying to every status would ping-pong into a storm
    /// of signed retransmissions under healthy pipeline skew).
    pub(crate) last_peer_help: BTreeMap<ReplicaId, u64>,

    /// Declared write-effects of every tentatively executed batch still
    /// awaiting commit, keyed by sequence number (the read-only contention
    /// gate's dirty set). Entries leave at commit, rollback, or state
    /// transfer — the three places tentative marks are resolved.
    pub(crate) tentative_effects: BTreeMap<SeqNum, TentativeEffects>,
    /// Read-only requests parked by the contention gate until the dirty
    /// batches covering their keys commit locally, at most one per client.
    /// Bounded by [`READ_DEFER_MAX`]; flushed wherever
    /// `tentative_effects` entries are resolved.
    pub(crate) deferred_reads: VecDeque<RequestMsg>,

    /// Execution-order commitment: running digest of executed batches, used
    /// by tests to prove all replicas executed the same sequence.
    pub(crate) exec_chain: Digest,

    /// Last pre-prepare issuance time (the no-batching pacing quantum).
    pub(crate) last_issue_ns: u64,
    /// Deadline of the current pipelined batch-formation gather, if one is
    /// open (see `PIPELINE_MIN_BATCH` in `execution`): the primary is
    /// holding a thin batch back while older batches fill the pipeline,
    /// and will issue whatever is pending by this instant at the latest.
    pub(crate) gather_deadline_ns: Option<u64>,
    /// Width of the most recently issued batch — the saturation signal the
    /// batch-formation gate's refractory term keys on (a wide batch means
    /// arrivals are plentiful and a short gather will fill the next one).
    pub(crate) last_issue_width: usize,
    /// Progress marker for the view-change timer heuristic.
    pub(crate) vc_timer_baseline: SeqNum,
    pub(crate) vc_timer_armed: bool,

    pub(crate) metrics: ReplicaMetrics,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.keys.me())
            .field("view", &self.view)
            .field("last_executed", &self.last_executed)
            .field("stable", &self.stable.0)
            .finish()
    }
}

impl Replica {
    /// Create a replica.
    ///
    /// `preinstalled_clients` models the completed startup key exchange of a
    /// static deployment; pass `&[]` for a freshly restarted replica (which
    /// has lost all client session keys — the §2.3 scenario).
    pub fn new(
        cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> Replica {
        let n = cfg.n();
        assert!(
            n <= MAX_REPLICAS,
            "a group of n = 3f + 1 = {n} replicas (f = {}) exceeds the {MAX_REPLICAS} a log \
             slot's vote masks can record",
            cfg.f
        );
        let keys = KeyStore::new_replica(group_seed, me, n, preinstalled_clients);
        let hash_state = keys.hash_state();
        let page = pbft_state::PAGE_SIZE as u64;
        let sessions = SessionStore::open(
            Section {
                base: MEMBERSHIP_PAGES * page,
                len: SESSION_PAGES * page,
            },
            &state.borrow(),
        );
        let membership = cfg.dynamic_membership.then(|| {
            let section = Section {
                base: 0,
                len: MEMBERSHIP_PAGES * page,
            };
            Membership::open(section, &state.borrow(), MAX_CLIENTS)
        });
        let log = MessageLog::new(cfg.log_size);
        let mut r = Replica {
            cfg,
            keys,
            state,
            app,
            view: 0,
            in_view_change: false,
            seq_assign: 0,
            log,
            last_executed: 0,
            max_pp_seen: 0,
            pending: VecDeque::new(),
            pending_digests: FoldSet::with_hasher(hash_state),
            bodies: FoldMap::with_hasher(hash_state),
            observed: BTreeSet::new(),
            clients: FoldMap::with_hasher(hash_state),
            checkpoints: BTreeMap::new(),
            ckpt_votes: BTreeMap::new(),
            stable: (0, Digest::ZERO),
            sessions,
            fetch: None,
            vc: ViewChangeState::default(),
            membership,
            recovering: false,
            peer_status: BTreeMap::new(),
            last_peer_help: BTreeMap::new(),
            tentative_effects: BTreeMap::new(),
            deferred_reads: VecDeque::new(),
            exec_chain: Digest::ZERO,
            last_issue_ns: 0,
            gather_deadline_ns: None,
            last_issue_width: 0,
            vc_timer_baseline: 0,
            vc_timer_armed: false,
            metrics: ReplicaMetrics::default(),
        };
        // Record the genesis checkpoint (seq 0) so state transfer toward it
        // and rollback of early tentative executions are possible.
        let root = r.state.borrow_mut().refresh_digest();
        let snap = r.state.borrow().snapshot(0);
        r.stable = (0, root);
        r.checkpoints.insert(0, (snap, Digest::ZERO));
        r
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.keys.me()
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.cfg.primary_of(self.view) == self.id() && !self.in_view_change
    }

    /// Highest executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Last stable checkpoint `(seq, root)`.
    pub fn stable_checkpoint(&self) -> (SeqNum, Digest) {
        self.stable
    }

    /// Execution-order commitment digest (equal across correct replicas that
    /// executed the same sequence).
    pub fn exec_chain(&self) -> Digest {
        self.exec_chain
    }

    /// Metrics counters.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// The replica's state handle (for harness inspection).
    pub fn state_handle(&self) -> StateHandle {
        self.state.clone()
    }

    /// Membership tables (dynamic mode only).
    pub fn membership(&self) -> Option<&Membership> {
        self.membership.as_ref()
    }

    /// Whether this replica is still recovering from a restart.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Whether a leader rotation is in flight: this replica has voted a
    /// view change and has not yet entered the new view.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// The requests this replica has seen as a backup and not yet seen
    /// executed: what its view-change timer waits on.
    pub fn observed_requests(&self) -> impl Iterator<Item = &RequestMsg> {
        // An observed digest names a stored body (`assert_bodies_owned`).
        self.observed.iter().map(|d| &self.bodies[d])
    }

    /// True when running the linear-communication engine
    /// ([`Engine::Linear`], see
    /// [`crate::linear`]): votes flow to the leader, which broadcasts quorum
    /// certificates, and view-change votes go to the incoming leader only.
    pub fn is_linear(&self) -> bool {
        self.cfg.engine == Engine::Linear
    }

    /// Fault-injection surface: cast an unjustified view-change vote, the
    /// way a Byzantine replica spamming view changes would. Each call votes
    /// for one view past the highest view this replica has voted for, so a
    /// repeated caller emits a stream of escalating, *correctly
    /// authenticated* votes. Honest deployments never call this; the
    /// harness's `ViewChangeStorm` fault is built on it. Safety is
    /// unaffected (view changes preserve committed prefixes by
    /// construction); the interesting question a storm probes is how much
    /// liveness and throughput the spam costs — a lone stormer stays below
    /// the `f + 1` join rule, so correct replicas must keep committing.
    pub fn force_suspect(&mut self, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        let target = self.vc.target.unwrap_or(self.view).max(self.view) + 1;
        self.start_view_change(target, now_ns, &mut res);
        res
    }

    /// Called once when the replica (re)starts. `restarted` replays the
    /// paper's §2.3 scenario: announce status and recover from peers.
    pub fn on_start(&mut self, now_ns: u64, restarted: bool) -> HandleResult {
        let mut res = HandleResult::default();
        if restarted {
            self.recovering = true;
            let status = self.my_status();
            self.multicast(Message::Status(status), &mut res);
        }
        self.arm_vc_timer(&mut res);
        res.outputs.push(Output::SetTimer {
            kind: TimerKind::StatusTick,
            delay_ns: STATUS_INTERVAL_NS,
        });
        let _ = now_ns;
        res
    }

    pub(crate) fn my_status(&self) -> StatusMsg {
        StatusMsg {
            replica: self.id(),
            view: self.view,
            last_stable_seq: self.stable.0,
            stable_root: self.stable.1,
            last_executed: self.last_executed,
            in_view_change: self.in_view_change,
        }
    }

    /// Handle an incoming packet: one parse, one authentication, one
    /// dispatch.
    ///
    /// [`PacketView::parse`] walks the packet once and yields the owned
    /// message plus the prefix/body spans and the auth trailer still
    /// borrowed from `packet`. Replica-multicast kinds (agreement,
    /// checkpoint and view-change traffic) must then verify — this
    /// replica's own authenticator entry, picked out of the borrowed
    /// vector, or the signature — before anything looks at the message;
    /// requests and new-keys authenticate against client keys in their
    /// handlers; status and fetch traffic is validated by content.
    pub fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        let Ok(view) = PacketView::parse(packet) else {
            self.metrics.decode_failures += 1;
            return res;
        };
        let (prefix, body) = (view.prefix(), view.body());
        let PacketView {
            sender, msg, auth, ..
        } = view;
        let multicast = matches!(
            msg,
            Message::PrePrepare(_)
                | Message::Prepare(_)
                | Message::Commit(_)
                | Message::Checkpoint(_)
                | Message::ViewChange(_)
                | Message::NewView(_)
                | Message::PrepareQC(_)
                | Message::CommitQC(_)
        );
        if multicast && !self.verify_peer(sender, prefix, auth, &mut res) {
            return res;
        }
        let out = &mut res;
        let from = |r: ReplicaId| sender == Sender::Replica(r);
        match msg {
            Message::Request(req) => self.on_request(sender, req, auth, prefix, body, now_ns, out),
            Message::PrePrepare(pp) => self.on_preprepare(pp, now_ns, false, out),
            Message::Prepare(p) if from(p.replica) => self.on_prepare(p, now_ns, out),
            Message::Commit(c) if from(c.replica) => self.on_commit(c, now_ns, out),
            Message::Checkpoint(c) if from(c.replica) => self.on_checkpoint(c, now_ns, out),
            Message::ViewChange(vc) if from(vc.replica) => self.on_view_change(vc, now_ns, out),
            Message::NewView(nv) if from(self.cfg.primary_of(nv.view)) => {
                self.on_new_view(nv, now_ns, out)
            }
            Message::NewKey(nk) => self.on_new_key(nk, prefix, auth, out),
            Message::Status(s) if from(s.replica) => self.on_status(s, now_ns, out),
            Message::Fetch(f) => self.on_fetch(f, out),
            Message::FetchResp(fr) => self.on_fetch_resp(fr, now_ns, out),
            Message::BodyFetch(bf) => self.on_body_fetch(bf, out),
            Message::BodyResp(req) => self.on_body_resp(req, now_ns, out),
            // QCs are accepted from any authenticated group member, not just
            // the leader: the recovery help path resends them on behalf of a
            // crashed leader (the voter list itself is unattested — the same
            // trust model as the prepared certificates in view changes).
            Message::PrepareQC(qc) => self.on_prepare_qc(qc, now_ns, out),
            Message::CommitQC(qc) => self.on_commit_qc(qc, now_ns, out),
            // Replicas do not consume replies, and a message whose claimed
            // sender is not the replica its body names is dropped.
            _ => {}
        }
        res
    }

    /// Verify a packet claiming to come from a fellow replica
    /// ([`KeyStore::verify_replica`] over the borrowed trailer).
    fn verify_peer(
        &mut self,
        sender: Sender,
        prefix: &[u8],
        auth: AuthView<'_>,
        res: &mut HandleResult,
    ) -> bool {
        let ok = match sender {
            Sender::Replica(from) => self
                .keys
                .verify_replica(from, prefix, auth, &mut res.counts),
            _ => false,
        };
        if !ok {
            self.metrics.auth_failures += 1;
        }
        ok
    }

    /// Verify a packet from `client`. "the system first checks to see if
    /// the identifier exists in the redirection table before going into
    /// the more lengthy process of verifying its signature or
    /// authenticator": a dynamic deployment admits only a member, and its
    /// membership session holds the key a signature must verify under (a
    /// restart or a state transfer loses none). Then
    /// [`KeyStore::verify_client`] over the borrowed trailer.
    fn verify_member(
        &mut self,
        client: ClientId,
        prefix: &[u8],
        auth: AuthView<'_>,
        res: &mut HandleResult,
    ) -> bool {
        let member_key = match &self.membership {
            Some(m) => match m.session(client) {
                Some(s) => Some(s.pubkey),
                None => {
                    self.metrics.auth_failures += 1;
                    return false;
                }
            },
            None => None,
        };
        let ok = self
            .keys
            .verify_client(client, prefix, auth, member_key, &mut res.counts);
        if !ok {
            self.metrics.auth_failures += 1;
        }
        ok
    }

    /// Handle a timer firing.
    pub fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult {
        let mut res = HandleResult::default();
        match kind {
            TimerKind::ViewChange => self.on_vc_timer(now_ns, &mut res),
            TimerKind::NewViewTimeout => self.on_new_view_timeout(now_ns, &mut res),
            TimerKind::FetchRetry => self.on_fetch_retry(&mut res),
            TimerKind::BatchKick => {
                self.try_issue(now_ns, &mut res);
            }
            TimerKind::StatusTick => {
                // Periodic status broadcast: peers respond by retransmitting
                // what we are missing (recovery from lost datagrams).
                let status = self.my_status();
                self.multicast(Message::Status(status), &mut res);
                res.outputs.push(Output::SetTimer {
                    kind: TimerKind::StatusTick,
                    delay_ns: STATUS_INTERVAL_NS,
                });
                self.log.free_if_idle();
            }
            TimerKind::Retransmit | TimerKind::NewKey => { /* client-side timers */ }
        }
        res
    }

    // ------------------------------------------------------------------
    // Request intake (normal case §2.1 + dynamic membership §3.1)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_request(
        &mut self,
        sender: Sender,
        req: RequestMsg,
        auth: AuthView<'_>,
        prefix: &[u8],
        body: &[u8],
        now_ns: u64,
        res: &mut HandleResult,
    ) {
        use crate::messages::Operation;

        let is_join = matches!(
            req.op,
            Operation::JoinPhase1 { .. } | Operation::JoinPhase2 { .. }
        );
        // The claimed sender must match the request body (joins are
        // anonymous until admitted).
        let sender_ok = match sender {
            Sender::Client(c) => c == req.client && !is_join,
            Sender::Anonymous => is_join,
            // Relayed requests are re-sent verbatim with the client's own
            // envelope, so a replica sender here is a protocol violation.
            Sender::Replica(_) => false,
        };
        if !sender_ok {
            self.metrics.auth_failures += 1;
            return;
        }
        if is_join {
            if !self.cfg.dynamic_membership {
                return;
            }
            if !self.verify_join_auth(&req, auth, prefix, res) {
                self.metrics.auth_failures += 1;
                return;
            }
        } else if !self.verify_member(req.client, prefix, auth, res) {
            return;
        }

        // The one look at the client's record: its reply address, duplicate
        // suppression / reply retransmission, and the primary's claim on the
        // timestamp for ordering.
        let read_only = req.read_only && matches!(req.op, Operation::App(_));
        let orders = self.is_primary() && !read_only;
        let record = self.clients.entry(req.client).or_default();
        record.addr = Some(req.reply_addr);
        if let Some(ts) = record.executed {
            if req.timestamp < ts {
                return;
            }
            if req.timestamp == ts {
                self.metrics.duplicate_requests += 1;
                if let Some(reply) = &record.reply {
                    // Retransmissions always get the full body: the client
                    // may be stuck holding vouches without it.
                    res.outputs.push(reply_output(
                        &self.keys,
                        self.cfg.auth,
                        &mut self.metrics,
                        reply,
                        true,
                        req.reply_addr,
                        &mut res.counts,
                    ));
                }
                return;
            }
        }
        // A queued digest's timestamp is at most its client's `assigned`, so
        // a claimed timestamp is never already queued.
        let claimed = orders && req.timestamp > record.assigned;
        if claimed {
            record.assigned = req.timestamp;
        }

        // Read-only fast path (§2.1).
        if read_only {
            self.serve_read_only(&req, now_ns, res);
            return;
        }

        // The request digest is defined over the canonical request encoding,
        // which is exactly the body span of the packet we just parsed —
        // digest it in place instead of re-encoding the struct (the view
        // tests pin `Digest::of(body) == req.digest()`).
        let digest = Digest::of(body);
        res.counts.digest_bytes += body.len() as u64;
        let big = self.cfg.is_big(body.len());
        // Backups relay non-big requests to the primary verbatim — the
        // client's own envelope, so its authenticator stays valid. The
        // relay's envelope is the packet's copy; the request itself waits
        // for its batch in `bodies`, and the queue or `observed` names it.
        let relay = (!big && !self.is_primary()).then(|| Message::Request(req.clone()));
        self.bodies.insert(digest, req);

        if self.is_primary() {
            if !claimed {
                // Already queued or assigned — but a retransmission is a
                // sign the client is waiting, so make sure the batching
                // engine is awake before dropping the duplicate.
                self.try_issue(now_ns, res);
                return;
            }
            debug_assert!(!self.pending_digests.contains(&digest));
            self.pending_digests.insert(digest);
            self.pending.push_back(QueuedRequest { digest, big });
            self.try_issue(now_ns, res);
        } else {
            // Relay, encoded once, and arm the suspicion timer.
            self.observed.insert(digest);
            if let Some(msg) = relay {
                let primary = self.cfg.primary_of(self.view);
                let relay_prefix = Envelope::encode_prefix(sender, &msg);
                self.metrics.hot_encodings += 1;
                let auth = auth.to_tag();
                let packet = Arc::new(Envelope::seal(relay_prefix, &auth));
                let env = Arc::new(Envelope { sender, msg, auth });
                res.outputs.push(Output::Send {
                    to: NetTarget::Replica(primary),
                    packet,
                    envelope: env,
                });
            }
            self.arm_vc_timer(res);
        }
    }

    fn verify_join_auth(
        &self,
        req: &RequestMsg,
        auth: AuthView<'_>,
        prefix: &[u8],
        res: &mut HandleResult,
    ) -> bool {
        use crate::messages::Operation;
        let AuthView::Sig(sig) = auth else {
            return false;
        };
        let pubkey = match &req.op {
            Operation::JoinPhase1 { pubkey, .. } => *pubkey,
            Operation::JoinPhase2 { fingerprint, .. } => {
                match self
                    .membership
                    .as_ref()
                    .and_then(|m| m.pending(fingerprint))
                {
                    Some(p) => p.pubkey,
                    None => return false,
                }
            }
            _ => return false,
        };
        res.counts.sig_verify += 1;
        pubkey.verify(prefix, &sig).is_ok()
    }

    /// §2.1 read-only fast path, behind the contention gate: a read whose
    /// declared keys are dirty in a tentatively executed (prepared but
    /// uncommitted) batch is parked until local commit — answering it now
    /// would expose uncommitted state, never match the committed quorum,
    /// and push the client into retransmit-and-escalate. Reads with no
    /// conflict are answered immediately against committed-or-tentative
    /// state exactly as before.
    ///
    /// A client parks at most one read, and a newer timestamp replaces its
    /// older one: read-only requests never advance the client's executed
    /// timestamp, so without that one client could fill the queue alone. A
    /// read that finds the queue full is dropped, never served.
    fn serve_read_only(&mut self, req: &RequestMsg, now_ns: u64, res: &mut HandleResult) {
        use crate::messages::Operation;
        let Operation::App(op) = &req.op else { return };
        if !self.read_defers(op) {
            self.serve_read_now(req, now_ns, res);
            return;
        }
        let parked = self
            .deferred_reads
            .iter_mut()
            .find(|r| r.client == req.client);
        if let Some(parked) = parked {
            if req.timestamp > parked.timestamp {
                *parked = req.clone();
                self.metrics.read_only_deferred += 1;
            }
        } else if self.deferred_reads.len() < READ_DEFER_MAX {
            self.deferred_reads.push_back(req.clone());
            self.metrics.read_only_deferred += 1;
        } else {
            self.metrics.read_defer_overflow += 1;
        }
    }

    /// Would serving `op` now observe a tentatively executed effect?
    fn read_defers(&self, op: &[u8]) -> bool {
        if self.tentative_effects.is_empty() {
            return false;
        }
        match self.app.declared_effects(op) {
            // A keyed read conflicts with a dirty declared key or with any
            // admin effect (an uncommitted reconfiguration may yet be
            // rolled back, and the read would answer from it).
            Effects::Keys(keys) => self
                .tentative_effects
                .values()
                .any(|e| e.admin || keys.iter().any(|k| e.keys.contains(k))),
            // Admin reads scan tables any tracked tentative effect may be
            // mutating.
            Effects::Admin => true,
            // Undeclared operations: optimistic path.
            Effects::None => false,
        }
    }

    /// Re-examine parked reads after tentative marks were resolved
    /// (commit, rollback, or state transfer): serve everything no longer
    /// contended, drop reads already answered through the ordered path.
    pub(crate) fn flush_deferred_reads(&mut self, now_ns: u64, res: &mut HandleResult) {
        use crate::messages::Operation;
        if self.deferred_reads.is_empty() {
            return;
        }
        let mut parked = VecDeque::new();
        while let Some(req) = self.deferred_reads.pop_front() {
            // A newer (or equal) executed timestamp means the client gave
            // up on the optimistic round and escalated: the ordered
            // execution already replied.
            let executed = self.clients.get(&req.client).and_then(|c| c.executed);
            if executed.is_some_and(|ts| ts >= req.timestamp) {
                continue;
            }
            let Operation::App(op) = &req.op else {
                continue;
            };
            if self.read_defers(op) {
                parked.push_back(req);
            } else {
                self.serve_read_now(&req, now_ns, res);
            }
        }
        self.deferred_reads = parked;
    }

    fn serve_read_now(&mut self, req: &RequestMsg, now_ns: u64, res: &mut HandleResult) {
        use crate::messages::Operation;
        let Operation::App(op) = &req.op else { return };
        let nondet = NonDet {
            timestamp_ns: now_ns,
            random: 0,
        };
        let mut ctx = SessionCtx::new(&mut self.sessions, req.client, true);
        let (result, exec) = self
            .app
            .execute_with_session(req.client, op, &nondet, true, &mut ctx);
        debug_assert!(!ctx.is_dirty(), "read-only path cannot mutate sessions");
        res.counts.exec_cpu_us += exec.cpu_us;
        self.metrics.read_only_served += 1;
        let reply = ReplyMsg {
            view: self.view,
            client: req.client,
            timestamp: req.timestamp,
            replica: self.id(),
            tentative: true, // read-only replies need a 2f+1 quorum
            body_omitted: false,
            result,
        };
        let designated = self.sends_full_reply(req.client, req.timestamp);
        res.outputs.push(reply_output(
            &self.keys,
            self.cfg.auth,
            &mut self.metrics,
            &reply,
            designated,
            req.reply_addr,
            &mut res.counts,
        ));
        self.clients.entry(req.client).or_default().reply = Some(reply);
    }

    // ------------------------------------------------------------------
    // NewKey (§2.3): install client session keys
    // ------------------------------------------------------------------

    fn on_new_key(
        &mut self,
        nk: NewKeyMsg,
        prefix: &[u8],
        auth: AuthView<'_>,
        res: &mut HandleResult,
    ) {
        // Session keys travel only under a signature: the NewKey is what
        // a replica that lost them (§2.3) re-learns them from.
        if !matches!(auth, AuthView::Sig(_)) {
            self.metrics.auth_failures += 1;
            return;
        }
        if !self.verify_member(nk.client, prefix, auth, res) {
            return;
        }
        let my_index = self.id().0 as usize;
        if let Some(key) = nk.keys.get(my_index) {
            self.keys.install_client_key(nk.client, *key);
            self.clients.entry(nk.client).or_default().addr = Some(nk.reply_addr);
        }
    }

    // ------------------------------------------------------------------
    // Sealing / sending helpers
    // ------------------------------------------------------------------

    /// Count agreement and view-change protocol traffic (one unit per
    /// destination copy). The head-to-head engine benches read these
    /// counters to expose per-slot and per-rotation communication cost.
    fn note_protocol_msgs(&mut self, msg: &Message, copies: u64) {
        match msg {
            Message::PrePrepare(_)
            | Message::Prepare(_)
            | Message::Commit(_)
            | Message::PrepareQC(_)
            | Message::CommitQC(_) => self.metrics.agreement_msgs_sent += copies,
            Message::ViewChange(_) | Message::NewView(_) => {
                self.metrics.viewchange_msgs_sent += copies
            }
            _ => {}
        }
    }

    /// Seal `msg` once ([`seal_envelope`]) and send it to every destination
    /// in `to`: each shares the same reference-counted packet and envelope.
    /// Nothing is cloned per destination.
    fn send_sealed(
        &mut self,
        to: impl IntoIterator<Item = NetTarget>,
        msg: Message,
        seal: impl FnOnce(&KeyStore, &[u8], &mut OpCounts) -> AuthTag,
        res: &mut HandleResult,
    ) {
        let (packet, envelope) =
            seal_envelope(&self.keys, &mut self.metrics, msg, seal, &mut res.counts);
        let before = res.outputs.len();
        res.outputs.extend(to.into_iter().map(|to| Output::Send {
            to,
            packet: Arc::clone(&packet),
            envelope: Arc::clone(&envelope),
        }));
        self.note_protocol_msgs(&envelope.msg, (res.outputs.len() - before) as u64);
    }

    /// Broadcast to every other replica under one authenticator vector: one
    /// encoding, then one MAC per peer over the shared prefix itself.
    pub(crate) fn multicast(&mut self, msg: Message, res: &mut HandleResult) {
        let (me, mode) = (self.id(), self.cfg.auth);
        let peers = (0..self.cfg.n() as u32)
            .map(ReplicaId)
            .filter(move |&r| r != me)
            .map(NetTarget::Replica);
        self.send_sealed(peers, msg, |k, p, c| k.seal_multicast(mode, p, c), res);
    }

    /// Send an authenticated message to a single replica (retransmissions).
    /// Uses the multicast authenticator, of which the receiver verifies its
    /// own entry.
    pub(crate) fn send_authenticated(
        &mut self,
        to: NetTarget,
        msg: Message,
        res: &mut HandleResult,
    ) {
        let mode = self.cfg.auth;
        self.send_sealed([to], msg, |k, p, c| k.seal_multicast(mode, p, c), res);
    }

    /// Send an unauthenticated (digest-validated) message to one target.
    pub(crate) fn send_plain(&mut self, to: NetTarget, msg: Message, res: &mut HandleResult) {
        self.send_sealed([to], msg, |_, _, _| AuthTag::None, res);
    }

    /// §2.1 designated-replier rule: per request, f+1 rotating replicas
    /// return the full result and the remaining 2f vouch for it
    /// ([`reply_output`]).
    /// With at most f faults a correct designated replica always reaches
    /// the client, so the fast path never waits on a retransmission; the
    /// rotation (keyed on client and timestamp) spreads the full-reply
    /// bytes evenly across the group.
    pub(crate) fn sends_full_reply(&self, client: ClientId, timestamp: u64) -> bool {
        let n = self.cfg.n() as u64;
        let base = (client.0 ^ timestamp) % n;
        let offset = (u64::from(self.id().0) + n - base) % n;
        offset < self.cfg.weak_quorum() as u64
    }

    // ------------------------------------------------------------------
    // View-change timer heuristic
    // ------------------------------------------------------------------

    pub(crate) fn arm_vc_timer(&mut self, res: &mut HandleResult) {
        if !self.vc_timer_armed {
            self.vc_timer_armed = true;
            self.vc_timer_baseline = self.last_executed;
            res.outputs.push(Output::SetTimer {
                kind: TimerKind::ViewChange,
                delay_ns: self.cfg.view_change_timeout_ns,
            });
        }
    }

    fn on_vc_timer(&mut self, now_ns: u64, res: &mut HandleResult) {
        self.vc_timer_armed = false;
        if self.in_view_change {
            return; // NewViewTimeout drives further rounds
        }
        let has_outstanding = !self.pending.is_empty()
            || !self.observed.is_empty()
            || self
                .log
                .range(self.last_executed + 1..)
                .any(|(_, e)| e.preprepare.is_some() && !e.executed);
        // If the head of the execution queue is agreed but waiting on a
        // missing request body, the primary is not at fault — the §2.4
        // recovery paths (body fetch or checkpoint transfer) will unwedge
        // us; a view change would not.
        let head_blocked_on_body = self.log.get(self.last_executed + 1).is_some_and(|e| {
            (e.prepared || e.committed)
                && execution::unheld_bodies(e, &self.bodies)
                    .iter()
                    .any(|d| self.log.iter().all(|(_, other)| other.held(d).is_none()))
        });
        if self.last_executed == self.vc_timer_baseline && has_outstanding && !head_blocked_on_body
        {
            // No progress on known work: suspect the primary.
            self.start_view_change(self.view + 1, now_ns, res);
        } else {
            self.arm_vc_timer(res);
        }
    }
}
