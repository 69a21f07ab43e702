//! A linear-communication, rotating-leader consensus engine.
//!
//! [`Engine::Linear`] selects the second agreement protocol of this crate,
//! built to make the paper's quadratic-PBFT cost measurable against the
//! HotStuff/Tendermint-style alternative the later literature settled on.
//!
//! It is **not a second implementation**: a [`Replica`] whose
//! [`PbftConfig::engine`] is `Engine::Linear` runs it. The protocol delta
//! lives inside the one `Replica` state machine as `if self.is_linear()`
//! branches at the points where votes are routed and counted
//! (`replica/execution.rs`, `replica/viewchange.rs`, `replica/recovery.rs`)
//! plus the two QC handlers in this file. The message log, checkpointing,
//! Merkle state transfer, recovery statuses, batching and the wire format
//! are not merely "shared" — they are the same code on the same struct.
//!
//! [`LinearReplica`] is the same thing spelled as a type: a newtype whose
//! constructor sets `engine = Engine::Linear` and whose
//! [`ConsensusEngine`] methods forward to the wrapped replica. It is kept
//! for the wall-clock benchmark, which picks its engine by type; everything
//! else in the workspace hosts a plain `Replica` and picks by value. What
//! the linear engine changes is how votes travel:
//!
//! - **Agreement is leader-aggregated.** Backups send their prepare vote to
//!   the current leader only. When the leader holds 2f backup prepares it
//!   broadcasts a [`PrepareQC`](crate::messages::Message::PrepareQC)
//!   certifying the quorum; backups answer with a commit vote, again to the
//!   leader only, and a
//!   [`CommitQC`](crate::messages::Message::CommitQC) broadcast completes
//!   the slot. Per slot this is ~5(n−1) messages — O(n) — versus PBFT's
//!   pre-prepare multicast plus two all-to-all vote rounds — O(n²).
//! - **Rotation is leader-directed.** A view-change vote goes only to the
//!   incoming leader (`primary_of(target)`), which broadcasts the same
//!   new-view installation message PBFT uses once it holds a 2f+1 quorum:
//!   O(n) messages per rotation instead of O(n²). Timer management,
//!   exponential backoff, and the new-view safety computation (set "O")
//!   are inherited unchanged.
//!
//! # Trust model
//!
//! Certificate voter lists are **unattested**: a QC names its voters but
//! does not carry their MACs/signatures. This is the same simplification
//! the repo makes for the prepared certificates inside view-change
//! messages (both listed under "Deliberate deviations" in
//! `ARCHITECTURE.md`), and it is sound for the crash/partition/timing
//! fault model the conformance and propcheck suites exercise. Because of
//! it, QCs are accepted from any authenticated group member — which is
//! also what lets the status-driven recovery path replay certificates on
//! behalf of a crashed leader.
//!
//! # What is inherited verbatim
//!
//! Client interaction (including tentative execution and the read-only fast
//! path), checkpoint attestations, state transfer, the §2.3 restart
//! recovery protocol, dynamic membership, and the cross-shard layer all
//! operate above the agreement substrate and work identically under either
//! engine.

use pbft_crypto::Digest;

use crate::app::{App, StateHandle};
use crate::config::{Engine, PbftConfig};
use crate::engine::ConsensusEngine;
use crate::messages::{CommitMsg, Message, QuorumCertMsg};
use crate::output::{HandleResult, NetTarget, TimerKind};
use crate::replica::{Replica, ReplicaMetrics};
use crate::types::{ClientId, ReplicaId, SeqNum, View, VoteSet};

/// The linear-communication engine as a type: a [`Replica`] constructed
/// with `engine = Engine::Linear`. See the [module docs](self) for the
/// protocol delta.
///
/// Dereferences to [`Replica`], so every inspection helper works here too.
pub struct LinearReplica(Replica);

impl LinearReplica {
    /// Create a linear-engine replica. Parameters are those of
    /// [`Replica::new`]; `cfg.engine` is overridden.
    pub fn new(
        mut cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> LinearReplica {
        cfg.engine = Engine::Linear;
        let r = Replica::new(cfg, group_seed, me, state, app, preinstalled_clients);
        LinearReplica(r)
    }

    /// The wrapped replica.
    pub fn inner(&self) -> &Replica {
        &self.0
    }

    /// The wrapped replica, mutable.
    pub fn inner_mut(&mut self) -> &mut Replica {
        &mut self.0
    }
}

impl std::ops::Deref for LinearReplica {
    type Target = Replica;

    fn deref(&self) -> &Replica {
        &self.0
    }
}

impl std::ops::DerefMut for LinearReplica {
    fn deref_mut(&mut self) -> &mut Replica {
        &mut self.0
    }
}

impl std::fmt::Debug for LinearReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LinearReplica").field(&self.0).finish()
    }
}

impl ConsensusEngine for LinearReplica {
    fn build(
        cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> Self {
        LinearReplica::new(cfg, group_seed, me, state, app, preinstalled_clients)
    }

    fn engine_name() -> &'static str {
        "linear"
    }

    fn id(&self) -> ReplicaId {
        self.0.id()
    }

    fn on_start(&mut self, now_ns: u64, restarted: bool) -> HandleResult {
        self.0.on_start(now_ns, restarted)
    }

    fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult {
        self.0.handle_packet(packet, now_ns)
    }

    fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult {
        self.0.on_timer(kind, now_ns)
    }

    fn state_handle(&self) -> StateHandle {
        self.0.state_handle()
    }

    fn view(&self) -> View {
        self.0.view()
    }

    fn last_executed(&self) -> SeqNum {
        self.0.last_executed()
    }

    fn stable_checkpoint(&self) -> (SeqNum, Digest) {
        self.0.stable_checkpoint()
    }

    fn exec_chain(&self) -> Digest {
        self.0.exec_chain()
    }

    fn metrics(&self) -> &ReplicaMetrics {
        self.0.metrics()
    }

    fn force_suspect(&mut self, now_ns: u64) -> HandleResult {
        self.0.force_suspect(now_ns)
    }

    fn is_recovering(&self) -> bool {
        self.0.is_recovering()
    }

    fn in_view_change(&self) -> bool {
        self.0.in_view_change()
    }
}

// The linear-engine certificate handlers live on `Replica` itself (gated on
// `cfg.engine`) so they can reach the shared log/execution machinery.
impl Replica {
    /// A certificate's voter list as the set it can stand for: distinct ids
    /// of this group. The list is wire input — a repeated id is one voter,
    /// and an id no member has is none.
    fn group_members(&self, voters: &[ReplicaId]) -> VoteSet {
        let n = self.cfg.n();
        voters
            .iter()
            .copied()
            .filter(|r| (r.0 as usize) < n)
            .collect()
    }

    /// Handle the leader's prepare certificate: adopt the quorum, mark the
    /// slot prepared, and answer with a commit vote addressed to the leader.
    pub(crate) fn on_prepare_qc(&mut self, qc: QuorumCertMsg, now_ns: u64, res: &mut HandleResult) {
        if !self.is_linear()
            || self.in_view_change
            || qc.view != self.view
            || !self.log.in_watermarks(qc.seq)
        {
            return;
        }
        let primary = self.cfg.primary_of(qc.view);
        let voters = self.group_members(&qc.voters);
        if voters.len() - usize::from(voters.contains(primary)) < 2 * self.cfg.f {
            return;
        }
        let me = self.id();
        let Some(e) = self
            .log
            .entry_for(qc.seq, qc.view, qc.digest, &mut self.bodies)
        else {
            return; // digest conflict: certified minority, ignore
        };
        let newly_prepared = !e.prepared;
        e.prepares.extend(voters.iter());
        e.prepared = true;
        e.commits.insert(me);
        let committed = e.committed;
        if me != primary && !committed {
            // (Re)send the commit vote even for a duplicate certificate: a
            // retransmitted PrepareQC doubles as the leader's request for
            // commit votes lost in transit.
            let commit = CommitMsg {
                view: qc.view,
                seq: qc.seq,
                digest: qc.digest,
                replica: me,
            };
            self.send_authenticated(NetTarget::Replica(primary), Message::Commit(commit), res);
        }
        if newly_prepared && self.cfg.tentative_execution {
            self.try_execute(now_ns, res);
        }
        self.update_committed(qc.seq, now_ns, res);
    }

    /// Handle the leader's commit certificate: adopt the quorum and run the
    /// shared committed-local path (execution, reply upgrade, checkpoints).
    pub(crate) fn on_commit_qc(&mut self, qc: QuorumCertMsg, now_ns: u64, res: &mut HandleResult) {
        if !self.is_linear()
            || self.in_view_change
            || qc.view != self.view
            || !self.log.in_watermarks(qc.seq)
        {
            return;
        }
        let voters = self.group_members(&qc.voters);
        if voters.len() < self.cfg.quorum() {
            return;
        }
        let Some(e) = self
            .log
            .entry_for(qc.seq, qc.view, qc.digest, &mut self.bodies)
        else {
            return;
        };
        // A commit quorum implies the prepare quorum, so mark the slot
        // prepared even if the PrepareQC itself was lost —
        // `update_committed` insists on it.
        e.prepared = true;
        e.commits.extend(voters.iter());
        self.update_committed(qc.seq, now_ns, res);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::app::NullApp;
    use crate::messages::view::PacketView;
    use crate::messages::Sender;
    use crate::output::Output;
    use crate::replica::LIB_REGION_PAGES;

    fn engine(i: u32) -> LinearReplica {
        let cfg = PbftConfig::default();
        let pages = LIB_REGION_PAGES as usize + 4;
        let state = Rc::new(RefCell::new(pbft_state::PagedState::new(pages)));
        LinearReplica::new(
            cfg,
            7,
            ReplicaId(i),
            state,
            Box::new(NullApp::new(64)),
            &[ClientId(1)],
        )
    }

    fn sent_names(res: &HandleResult) -> Vec<(&'static str, NetTarget)> {
        res.outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send { to, envelope, .. } => Some((envelope.msg.name(), *to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn flag_is_set_and_engine_names_differ() {
        let e = engine(1);
        assert!(e.inner().is_linear());
        assert_eq!(LinearReplica::engine_name(), "linear");
        assert_eq!(<Replica as ConsensusEngine>::engine_name(), "pbft");
        assert_eq!(LinearReplica::engine_name(), Engine::Linear.name());
        assert_eq!(
            <Replica as ConsensusEngine>::engine_name(),
            Engine::Pbft.name()
        );
    }

    /// What one scripted run emitted: every packet in send order with its
    /// sender, every call's work record, and the final execution chains.
    #[derive(Debug, PartialEq)]
    struct Transcript {
        packets: Vec<(usize, NetTarget, Vec<u8>)>,
        counts: Vec<crate::output::OpCounts>,
        chains: Vec<Digest>,
        executed: Vec<SeqNum>,
    }

    impl Transcript {
        /// Record one call's work and sends; queue the sends for delivery.
        fn emit(
            &mut self,
            from: usize,
            res: HandleResult,
            queue: &mut std::collections::VecDeque<(NetTarget, crate::output::PacketBuf)>,
        ) {
            self.counts.push(res.counts);
            for o in res.outputs {
                if let Output::Send { to, packet, .. } = o {
                    self.packets.push((from, to, packet.to_vec()));
                    queue.push_back((to, packet));
                }
            }
        }
    }

    const SCRIPT_CLIENTS: [ClientId; 3] = [ClientId(1), ClientId(2), ClientId(3)];
    const SCRIPT_CLIENT_BASE: u32 = 100;

    /// Drive four replicas and three static clients through one script:
    /// three rounds of one request per client (a read-only one in the
    /// last), each delivered to quiescence in FIFO order, then a status
    /// tick on every replica.
    fn scripted_run(replicas: &mut [&mut Replica]) -> Transcript {
        use crate::client::Client;

        let cfg = PbftConfig::default();
        let mut clients: Vec<Client> = SCRIPT_CLIENTS
            .iter()
            .zip(SCRIPT_CLIENT_BASE..)
            .map(|(&id, addr)| Client::new_static(cfg.clone(), 7, id, addr))
            .collect();
        let mut out = Transcript {
            packets: Vec::new(),
            counts: Vec::new(),
            chains: Vec::new(),
            executed: Vec::new(),
        };
        let mut queue = std::collections::VecDeque::new();
        let mut now = 1_000_000;
        for (i, r) in replicas.iter_mut().enumerate() {
            out.emit(i, r.on_start(now, false), &mut queue);
        }
        for (c, client) in clients.iter_mut().enumerate() {
            out.emit(100 + c, client.on_start(now), &mut queue);
        }
        for round in 0..3u8 {
            for (c, client) in clients.iter_mut().enumerate() {
                let read_only = round == 2 && c == 0;
                let res = client.submit(vec![round, c as u8], read_only, now);
                out.emit(100 + c, res, &mut queue);
            }
            while let Some((to, packet)) = queue.pop_front() {
                now += 10_000;
                match to {
                    NetTarget::Replica(r) => {
                        let i = r.0 as usize;
                        let res = replicas[i].handle_packet(&packet, now);
                        out.emit(i, res, &mut queue);
                    }
                    NetTarget::Client(addr) => {
                        let c = (addr - SCRIPT_CLIENT_BASE) as usize;
                        let res = clients[c].handle_packet(&packet, now);
                        out.emit(100 + c, res, &mut queue);
                    }
                }
            }
        }
        for (i, r) in replicas.iter_mut().enumerate() {
            out.emit(i, r.on_timer(TimerKind::StatusTick, now), &mut queue);
        }
        out.chains = replicas.iter().map(|r| r.exec_chain()).collect();
        out.executed = replicas.iter().map(|r| r.last_executed()).collect();
        out
    }

    /// The wall-clock benchmark builds the linear engine through the type
    /// ([`LinearReplica::new`]); everything else builds a [`Replica`] with
    /// `cfg.engine = Engine::Linear`. The two must be one engine: the same
    /// script yields byte-equal packets, equal work records and equal
    /// execution chains.
    #[test]
    fn type_path_and_value_path_build_the_same_engine() {
        let state = || {
            let pages = LIB_REGION_PAGES as usize + 4;
            Rc::new(RefCell::new(pbft_state::PagedState::new(pages)))
        };
        let app = || Box::new(NullApp::new(64));
        let mut by_type: Vec<LinearReplica> = (0..4)
            .map(|i| {
                let cfg = PbftConfig::default();
                LinearReplica::new(cfg, 7, ReplicaId(i), state(), app(), &SCRIPT_CLIENTS)
            })
            .collect();
        let mut by_value: Vec<Replica> = (0..4)
            .map(|i| {
                let cfg = PbftConfig {
                    engine: Engine::Linear,
                    ..PbftConfig::default()
                };
                Replica::new(cfg, 7, ReplicaId(i), state(), app(), &SCRIPT_CLIENTS)
            })
            .collect();
        let a = scripted_run(
            &mut by_type
                .iter_mut()
                .map(|r| r.inner_mut())
                .collect::<Vec<_>>(),
        );
        let b = scripted_run(&mut by_value.iter_mut().collect::<Vec<_>>());
        assert!(
            a.executed.iter().all(|&s| s >= 3),
            "the script ran several batches: {:?}",
            a.executed
        );
        assert!(
            a.packets.iter().any(|(_, _, p)| p[0] == 15),
            "the linear engine's PrepareQC was on the wire"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn prepare_qc_marks_prepared_and_votes_commit_to_leader() {
        let mut e = engine(1);
        let digest = pbft_crypto::Digest::of(b"batch");
        // The slot must exist within watermarks; fabricate the log entry the
        // way a pre-prepare would.
        let r = e.inner_mut();
        r.log.entry_for(3, 0, digest, &mut r.bodies).expect("entry");
        let qc = QuorumCertMsg {
            view: 0,
            seq: 3,
            digest,
            voters: vec![ReplicaId(2), ReplicaId(3)],
        };
        let mut res = HandleResult::default();
        e.inner_mut().on_prepare_qc(qc, 0, &mut res);
        let sends = sent_names(&res);
        assert_eq!(
            sends,
            vec![("commit", NetTarget::Replica(ReplicaId(0)))],
            "one commit vote, addressed to the leader"
        );
    }

    #[test]
    fn commit_qc_with_subquorum_votes_is_ignored() {
        let mut e = engine(1);
        let digest = pbft_crypto::Digest::of(b"batch");
        let r = e.inner_mut();
        r.log.entry_for(3, 0, digest, &mut r.bodies).expect("entry");
        let qc = QuorumCertMsg {
            view: 0,
            seq: 3,
            digest,
            voters: vec![ReplicaId(0), ReplicaId(2)], // 2 < quorum of 3
        };
        let mut res = HandleResult::default();
        e.inner_mut().on_commit_qc(qc, 0, &mut res);
        assert!(res.outputs.is_empty());
        assert_eq!(e.last_executed(), 0);
    }

    /// A certificate's voter list is wire input: only distinct members of
    /// the group count toward its quorum, and one that falls short touches
    /// nothing.
    #[test]
    fn qc_voters_must_be_distinct_group_members() {
        let digest = pbft_crypto::Digest::of(b"batch");
        let qc = |voters: Vec<ReplicaId>| QuorumCertMsg {
            view: 0,
            seq: 3,
            digest,
            voters,
        };
        let forged: [(&str, Vec<ReplicaId>); 4] = [
            ("one backup 2f times", vec![ReplicaId(2), ReplicaId(2)]),
            ("ids n..n+2f", vec![ReplicaId(4), ReplicaId(5)]),
            (
                "the leader and one backup",
                vec![ReplicaId(0), ReplicaId(2)],
            ),
            (
                "ids past the vote mask",
                vec![ReplicaId(128), ReplicaId(u32::MAX), ReplicaId(2)],
            ),
        ];
        for (what, voters) in forged {
            let mut e = engine(1);
            let mut res = HandleResult::default();
            e.inner_mut().on_prepare_qc(qc(voters), 0, &mut res);
            assert!(res.outputs.is_empty(), "{what}: no commit vote");
            assert!(e.inner().log.get(3).is_none(), "{what}: slot untouched");
        }
        let forged: [(&str, Vec<ReplicaId>); 2] = [
            ("one voter 2f+1 times", vec![ReplicaId(0); 3]),
            (
                "two members and a stranger",
                vec![ReplicaId(0), ReplicaId(2), ReplicaId(7)],
            ),
        ];
        for (what, voters) in forged {
            let mut e = engine(1);
            let mut res = HandleResult::default();
            e.inner_mut().on_commit_qc(qc(voters), 0, &mut res);
            assert!(res.outputs.is_empty(), "{what}");
            assert!(e.inner().log.get(3).is_none(), "{what}: slot untouched");
        }
        // Repeats and strangers beside a real quorum do no harm: the slot
        // records the members only.
        let mut e = engine(1);
        let mut res = HandleResult::default();
        let padded = vec![ReplicaId(2), ReplicaId(9), ReplicaId(3), ReplicaId(2)];
        e.inner_mut().on_prepare_qc(qc(padded), 0, &mut res);
        let slot = e.inner().log.get(3).expect("adopted");
        assert!(slot.prepared);
        assert_eq!(
            slot.prepares.iter().collect::<Vec<_>>(),
            vec![ReplicaId(2), ReplicaId(3)]
        );
    }

    #[test]
    fn qc_packets_from_any_replica_sender_are_dispatched() {
        // Seal a PrepareQC as replica 3 (not the leader) and feed it to a
        // backup: the recovery help path depends on non-leader QC replay.
        let mut sender = engine(3);
        let mut receiver = engine(1);
        let digest = pbft_crypto::Digest::of(b"batch");
        let r = receiver.inner_mut();
        r.log.entry_for(2, 0, digest, &mut r.bodies).expect("entry");
        let msg = Message::PrepareQC(QuorumCertMsg {
            view: 0,
            seq: 2,
            digest,
            voters: vec![ReplicaId(2), ReplicaId(3)],
        });
        let mut tmp = HandleResult::default();
        sender
            .inner_mut()
            .send_authenticated(NetTarget::Replica(ReplicaId(1)), msg, &mut tmp);
        let packet = match &tmp.outputs[0] {
            Output::Send { packet, .. } => packet.clone(),
            other => panic!("expected send, got {other:?}"),
        };
        let view = PacketView::parse(&packet).expect("decodes");
        assert_eq!(view.sender, Sender::Replica(ReplicaId(3)));
        let res = receiver.handle_packet(&packet, 0);
        assert!(
            sent_names(&res)
                .iter()
                .any(|(name, to)| *name == "commit" && *to == NetTarget::Replica(ReplicaId(0))),
            "backup adopted the replayed certificate and voted to the leader"
        );
    }
}
