//! Byzantine fault injection.
//!
//! PBFT's whole reason for existing is tolerating *arbitrary* faults, so the
//! reproduction needs adversarial replicas, not just crashes and packet
//! loss. Faults are injected at the host layer, wrapping honest engines:
//!
//! * [`Fault::Mute`] — the replica processes everything but sends nothing
//!   (a fail-silent primary must be voted out by the view change).
//! * [`Fault::TamperReplies`] — replies to clients are corrupted in flight
//!   (authentication on the client side must reject them; with f+1 matching
//!   replies required, a single liar can never make a client accept a wrong
//!   result).
//! * [`Fault::TamperAgreement`] — prepare/commit messages are corrupted
//!   (peers' authentication drops them, costing the liar its vote).
//! * [`Fault::SplitBrain`] — the classic equivocating primary: two honest
//!   engines share one identity but speak to disjoint halves of the group,
//!   so conflicting, *correctly authenticated* pre-prepares are sent for
//!   the same sequence numbers. Safety must hold: no two correct replicas
//!   execute different batches at the same sequence.
//! * [`Fault::SlowPrimary`] — the paper's hardest liveness case: a primary
//!   that is *slow but not dead*. Every message is eventually processed and
//!   every send eventually leaves — nothing is dropped, authentication
//!   never fails — so only the backups' view-change timeouts can evict it.
//! * [`Fault::ViewChangeStorm`] — a replica that spams escalating,
//!   correctly authenticated view-change votes. A lone stormer stays below
//!   the `f + 1` join rule, so the group must keep committing; the storm
//!   taxes bandwidth and vote bookkeeping instead.
//! * [`Fault::Censor`] — targeted request censorship: incoming requests
//!   from the chosen clients are silently swallowed and replies to them are
//!   dropped. A censoring *primary* starves exactly those clients while
//!   serving everyone else — and because the backups' suspicion heuristic
//!   is progress-based (it fires only when *nothing* executes), the steady
//!   progress on everyone else's work means the censor is never suspected.
//!   The attack is invisible both to aggregate throughput and to the
//!   view-change machinery; per-client timeline lanes expose it, and only
//!   unmounting — or a proactive recovery of the seat — ends it.
//!
//! The split-brain construction is the strongest: it cannot be detected by
//! authentication (every message is genuinely signed by the primary) and
//! exercises the prepare-quorum intersection argument directly.
//!
//! Faults are *mountable at runtime*: [`FaultyReplicaHost`] is the one
//! replica host — every cluster mounts its members on it — and one built
//! with [`FaultyReplicaHost::honest`] is an honest member until a
//! scenario mounts a fault mid-run ([`FaultyReplicaHost::mount`]) and later
//! unmounts it ([`FaultyReplicaHost::unmount`]). The scenario engine
//! (`crate::scenario`) schedules those calls on the virtual clock, and the
//! adaptive strategies of [`crate::adversary`] mount and unmount them in
//! reaction to observed protocol state. A host built with
//! [`FaultyReplicaHost::honest_with_twin`] (see [`build_adversary_cluster`])
//! additionally keeps a silent split-brain twin tracking the protocol, so
//! [`Fault::SplitBrain`] itself becomes mountable mid-run.

use pbft_core::messages::view::PacketView;
use pbft_core::messages::Sender;
use pbft_core::replica::Replica;
use pbft_core::{ClientId, NetTarget, Output, PacketBuf};
use simnet::{Node, NodeCtx, NodeId, SimDuration, TimerId};

use crate::cluster::{make_replica, Cluster, ClusterSpec};
use crate::cost::CostModel;

/// Which Byzantine behaviour to mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop every outgoing message (fail-silent, but still receiving).
    Mute,
    /// Flip bytes in replies to clients.
    TamperReplies,
    /// Flip bytes in prepare/commit messages to peers.
    TamperAgreement,
    /// Run two engines with the same identity, each talking to a disjoint
    /// half of the backups (equivocation with valid authentication).
    SplitBrain,
    /// Process every packet and timer `delay_ns` slower than honest peers:
    /// the replica falls behind, its sends leave late, but nothing is ever
    /// dropped — the slow-but-not-dead primary the paper singles out, which
    /// timeouts alone must catch.
    SlowPrimary {
        /// Extra virtual CPU charged per handled packet/timer.
        delay_ns: u64,
    },
    /// Spam escalating view-change votes every `period_ns`, regardless of
    /// whether the primary misbehaves (see [`Replica::force_suspect`]).
    ViewChangeStorm {
        /// Interval between vote bursts.
        period_ns: u64,
    },
    /// Targeted request censorship: swallow incoming requests from the
    /// chosen clients and drop outgoing replies to them, while serving
    /// everyone else honestly.
    Censor {
        /// Bitmask of censored clients: bit `k` censors `ClientId(k + 1)`
        /// (so clients 1..=64 are addressable — the harness never builds
        /// more).
        client_bits: u64,
    },
}

impl Fault {
    /// Is `client` on this fault's censorship list?
    fn censors(&self, client: ClientId) -> bool {
        match *self {
            Fault::Censor { client_bits } => {
                (1..=64).contains(&client.0) && (client_bits >> (client.0 - 1)) & 1 == 1
            }
            _ => false,
        }
    }
}

/// Message discriminants (first payload byte) this module inspects.
/// [`Fault::TamperAgreement`] is engine-aware: it corrupts the PBFT vote
/// tags *and* the linear engine's leader-aggregated certificate broadcasts
/// (tags 15/16), so a tampering linear leader actually attacks the path it
/// owns — QC forgery must be caught by the receivers' authenticators.
const TAG_REQUEST: u8 = 1;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_REPLY: u8 = 5;
const TAG_PREPARE_QC: u8 = 15;
const TAG_COMMIT_QC: u8 = 16;

/// The host-private timer driving [`Fault::ViewChangeStorm`] bursts. Far
/// outside the engine's `TimerKind` index range, so the two cannot collide.
const STORM_TIMER: TimerId = TimerId(1_000);

/// A replica host that can misbehave.
pub struct FaultyReplicaHost {
    /// Engine(s): one, or two for [`Fault::SplitBrain`].
    pub engines: Vec<Replica>,
    /// Cumulative work record of engine 0 (cost-model inputs), for
    /// experiment reports.
    pub cum_counts: pbft_core::OpCounts,
    fault: Option<Fault>,
    model: CostModel,
    /// Group size (to map `NetTarget` to node ids).
    n: usize,
    /// Whether this host was mounted by a restart (passed to the engine's
    /// `on_start` so it runs its recovery path).
    restarted: bool,
}

impl FaultyReplicaHost {
    /// Wrap `replica` with `fault` mounted from the start. For
    /// [`Fault::SplitBrain`] pass the twin created with [`make_replica`]
    /// for the same id.
    pub fn new(
        replica: Replica,
        twin: Option<Replica>,
        fault: Fault,
        model: CostModel,
        n: usize,
    ) -> Self {
        let mut host = Self::honest(replica, model, n);
        if let Some(twin) = twin {
            assert_eq!(
                fault,
                Fault::SplitBrain,
                "twin engines are for split-brain only"
            );
            host.engines.push(twin);
        }
        host.fault = Some(fault);
        host
    }

    /// Wrap `replica` with *no* fault mounted: an honest member, on which a
    /// scenario can mount a fault later. This is how
    /// [`Cluster::build`](crate::cluster::Cluster::build) mounts every
    /// replica.
    pub fn honest(replica: Replica, model: CostModel, n: usize) -> Self {
        FaultyReplicaHost {
            engines: vec![replica],
            cum_counts: Default::default(),
            fault: None,
            model,
            n,
            restarted: false,
        }
    }

    /// [`FaultyReplicaHost::honest`] with a split-brain twin provisioned
    /// from construction: the twin processes every input alongside the real
    /// engine (so it shares the whole protocol history) but its outputs are
    /// suppressed until [`Fault::SplitBrain`] is mounted. This is what lets
    /// an adaptive adversary turn equivocation on and off mid-run.
    pub fn honest_with_twin(replica: Replica, twin: Replica, model: CostModel, n: usize) -> Self {
        let mut host = Self::honest(replica, model, n);
        host.engines.push(twin);
        host
    }

    /// Flag this host as mounted by a restart, so the engine(s) run their
    /// recovery path on start.
    pub fn as_restarted(mut self) -> Self {
        self.restarted = true;
        self
    }

    /// The currently mounted fault, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// Mount `fault` at runtime (replacing any current one). Needs the node
    /// context so time-driven faults can arm their timers — reach it with
    /// [`simnet::Simulator::with_node_ctx`], or use
    /// [`Cluster::mount_fault`](crate::cluster::Cluster::mount_fault).
    ///
    /// # Panics
    /// Panics on [`Fault::SplitBrain`] unless the host was built with a twin
    /// engine: the second brain cannot be conjured mid-run (it must share
    /// the whole protocol history).
    pub fn mount(&mut self, fault: Fault, ctx: &mut NodeCtx<'_>) {
        assert!(
            fault != Fault::SplitBrain || self.engines.len() == 2,
            "split-brain needs a twin engine from construction"
        );
        self.fault = Some(fault);
        if let Fault::ViewChangeStorm { period_ns } = fault {
            ctx.set_timer(STORM_TIMER, SimDuration::from_nanos(period_ns));
        }
    }

    /// Unmount the current fault: the replica behaves honestly again (it
    /// keeps whatever protocol state the fault got it into — recovery from
    /// that is the protocol's job).
    pub fn unmount(&mut self, ctx: &mut NodeCtx<'_>) {
        if matches!(self.fault, Some(Fault::ViewChangeStorm { .. })) {
            ctx.cancel_timer(STORM_TIMER);
        }
        self.fault = None;
    }

    /// Does `engine_idx` get to talk to `dst` under the current fault?
    ///
    /// Split-brain: engine 0 owns the first backup and all clients; engine 1
    /// owns the remaining backups. (For n = 4 and faulty replica 0 that is
    /// {1} vs {2, 3} — neither audience alone can assemble a prepare quorum
    /// for a conflicting batch... unless the protocol is broken.)
    ///
    /// Whenever split-brain is *not* mounted, only engine 0 speaks: a twin
    /// provisioned for later equivocation keeps tracking the protocol
    /// silently instead of duplicating (and, with its skewed clock,
    /// accidentally equivocating) the member's honest traffic.
    fn audience_allows(&self, engine_idx: usize, dst: NodeId) -> bool {
        if self.fault != Some(Fault::SplitBrain) {
            return engine_idx == 0;
        }
        let is_replica = (dst.0 as usize) < self.n;
        if !is_replica {
            return engine_idx == 0; // clients hear engine 0 only
        }
        let me = self.engines[0].id().0;
        // Peers other than ourselves, in id order, are split: first peer to
        // engine 0, the rest to engine 1.
        let mut peers: Vec<u32> = (0..self.n as u32).filter(|&r| r != me).collect();
        let first = peers.remove(0);
        if engine_idx == 0 {
            dst.0 == first
        } else {
            peers.contains(&dst.0)
        }
    }

    /// Pass-through shares the broadcast's `Arc`; only the (cold) corrupt
    /// paths copy the bytes out to flip one.
    fn transform(&self, packet: PacketBuf, to_client: bool) -> Option<PacketBuf> {
        let tag = packet.first().copied().unwrap_or(0);
        match self.fault {
            Some(Fault::Mute) => None,
            Some(Fault::TamperReplies) if to_client && tag == TAG_REPLY => {
                Some(PacketBuf::new(corrupt(packet.as_ref().clone())))
            }
            Some(Fault::TamperAgreement)
                if !to_client
                    && matches!(
                        tag,
                        TAG_PREPARE | TAG_COMMIT | TAG_PREPARE_QC | TAG_COMMIT_QC
                    ) =>
            {
                Some(PacketBuf::new(corrupt(packet.as_ref().clone())))
            }
            _ => Some(packet),
        }
    }

    /// Under [`Fault::Censor`]: is `dst` a censored client's node? Client
    /// `ClientId(k)` sits at node id `n + k - 1`.
    fn censored_node(&self, dst: NodeId) -> bool {
        let Some(fault) = self.fault else {
            return false;
        };
        let idx = dst.0 as usize;
        idx >= self.n && fault.censors(ClientId((idx - self.n) as u64 + 1))
    }

    /// Under [`Fault::Censor`]: should this incoming packet be swallowed
    /// before the engine sees it? Only client requests are censored —
    /// agreement traffic (which may *carry* the censored requests inside
    /// pre-prepares) passes, exactly like a real censoring front-end.
    fn censors_incoming(&self, payload: &[u8]) -> bool {
        let Some(fault @ Fault::Censor { .. }) = self.fault else {
            return false;
        };
        if payload.first() != Some(&TAG_REQUEST) {
            return false;
        }
        matches!(
            PacketView::parse(payload),
            Ok(PacketView { sender: Sender::Client(c), .. }) if fault.censors(c)
        )
    }

    /// Extra per-invocation CPU under [`Fault::SlowPrimary`].
    fn slowdown(&self) -> SimDuration {
        match self.fault {
            Some(Fault::SlowPrimary { delay_ns }) => SimDuration::from_nanos(delay_ns),
            _ => SimDuration::ZERO,
        }
    }

    fn route(&mut self, engine_idx: usize, outputs: Vec<Output>, ctx: &mut NodeCtx<'_>) {
        for out in outputs {
            match out {
                Output::Send { to, packet, .. } => {
                    let (dst, to_client) = match to {
                        NetTarget::Replica(r) => (NodeId(r.0), false),
                        NetTarget::Client(addr) => (NodeId(addr), true),
                    };
                    if !self.audience_allows(engine_idx, dst) {
                        continue;
                    }
                    if to_client && self.censored_node(dst) {
                        continue;
                    }
                    let Some(packet) = self.transform(packet, to_client) else {
                        continue;
                    };
                    ctx.charge(self.model.packet_cost(packet.len()));
                    ctx.send(dst, packet);
                }
                Output::SetTimer { kind, delay_ns } => {
                    // Timers collapse across engines (same kinds); close
                    // enough for fault scenarios.
                    ctx.set_timer(
                        TimerId(kind.index()),
                        simnet::SimDuration::from_nanos(delay_ns),
                    );
                }
                Output::CancelTimer { kind } => ctx.cancel_timer(TimerId(kind.index())),
            }
        }
    }
}

impl Node for FaultyReplicaHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.engines.len() {
            let restarted = self.restarted;
            let res = self.engines[i].on_start(ctx.now().as_nanos() + i as u64, restarted);
            if i == 0 {
                self.cum_counts.add(&res.counts);
            }
            ctx.charge(self.model.charge_counts(&res.counts));
            self.route(i, res.outputs, ctx);
        }
        if let Some(Fault::ViewChangeStorm { period_ns }) = self.fault {
            ctx.set_timer(STORM_TIMER, SimDuration::from_nanos(period_ns));
        }
    }

    fn on_packet(&mut self, _src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
        ctx.charge(self.model.packet_cost(payload.len()));
        ctx.charge(self.slowdown());
        if self.censors_incoming(payload) {
            return; // the censored client's request is silently swallowed
        }
        for i in 0..self.engines.len() {
            // The twin's clock is skewed by its index (nanoseconds): the
            // brains are otherwise deterministic twins and would issue
            // *identical* pre-prepares — the skew lands in the batch's
            // non-determinism data, so their batches genuinely conflict
            // while every message stays correctly authenticated.
            let res = self.engines[i].handle_packet(payload, ctx.now().as_nanos() + i as u64);
            if i == 0 {
                self.cum_counts.add(&res.counts);
            }
            ctx.charge(self.model.charge_counts(&res.counts));
            self.route(i, res.outputs, ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>) {
        if timer == STORM_TIMER {
            // One burst per period, while the storm stays mounted.
            if let Some(Fault::ViewChangeStorm { period_ns }) = self.fault {
                let res = self.engines[0].force_suspect(ctx.now().as_nanos());
                self.cum_counts.add(&res.counts);
                ctx.charge(self.model.charge_counts(&res.counts));
                self.route(0, res.outputs, ctx);
                ctx.set_timer(STORM_TIMER, SimDuration::from_nanos(period_ns));
            }
            return;
        }
        let Some(kind) = pbft_core::TimerKind::from_index(timer.0) else {
            return;
        };
        ctx.charge(self.slowdown());
        for i in 0..self.engines.len() {
            let res = self.engines[i].on_timer(kind, ctx.now().as_nanos() + i as u64);
            if i == 0 {
                self.cum_counts.add(&res.counts);
            }
            ctx.charge(self.model.charge_counts(&res.counts));
            self.route(i, res.outputs, ctx);
        }
    }
}

/// Flip a byte somewhere past the header (keeps the message decodable-ish;
/// authentication is what must catch it).
fn corrupt(mut packet: Vec<u8>) -> Vec<u8> {
    let idx = packet.len() / 2;
    if let Some(b) = packet.get_mut(idx) {
        *b ^= 0xff;
    }
    packet
}

/// Build a cluster where `faulty` misbehaves per `fault` from the start;
/// all other replicas and all clients are honest.
pub fn build_faulty_cluster(spec: ClusterSpec, faulty: u32, fault: Fault) -> Cluster {
    let n = spec.cfg.n();
    let cost = spec.cost;
    let spec_for_twin = spec.clone();
    Cluster::build_with(spec, move |i, replica| {
        if i == faulty {
            let twin = (fault == Fault::SplitBrain).then(|| make_replica(&spec_for_twin, i));
            FaultyReplicaHost::new(replica, twin, fault, cost, n)
        } else {
            FaultyReplicaHost::honest(replica, cost, n)
        }
    })
}

/// Build a cluster where replica `compromised` carries a provisioned (but
/// silent) split-brain twin, so an adaptive adversary can mount *any*
/// fault on it mid-run — including [`Fault::SplitBrain`]. Behaviour is
/// honest until something is mounted.
pub fn build_adversary_cluster(spec: ClusterSpec, compromised: u32) -> Cluster {
    let n = spec.cfg.n();
    let cost = spec.cost;
    let spec_for_twin = spec.clone();
    Cluster::build_with(spec, move |i, replica| {
        if i == compromised {
            let twin = make_replica(&spec_for_twin, i);
            FaultyReplicaHost::honest_with_twin(replica, twin, cost, n)
        } else {
            FaultyReplicaHost::honest(replica, cost, n)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_flips_a_byte() {
        let p = vec![5u8; 9];
        let c = corrupt(p.clone());
        assert_ne!(p, c);
        assert_eq!(c.iter().filter(|&&b| b != 5).count(), 1);
    }

    #[test]
    fn split_brain_audiences_are_disjoint_and_cover() {
        let spec = ClusterSpec::default();
        let n = spec.cfg.n();
        let host = FaultyReplicaHost::new(
            make_replica(&spec, 0),
            Some(make_replica(&spec, 0)),
            Fault::SplitBrain,
            CostModel::default(),
            n,
        );
        for peer in 1..n as u32 {
            let a = host.audience_allows(0, NodeId(peer));
            let b = host.audience_allows(1, NodeId(peer));
            assert!(a ^ b, "peer {peer} must hear exactly one brain");
        }
        // Clients (ids ≥ n) hear engine 0 only.
        assert!(host.audience_allows(0, NodeId(n as u32 + 3)));
        assert!(!host.audience_allows(1, NodeId(n as u32 + 3)));
    }

    #[test]
    fn honest_host_passes_everything_through() {
        let spec = ClusterSpec::default();
        let host = FaultyReplicaHost::honest(make_replica(&spec, 1), CostModel::default(), 4);
        assert_eq!(host.fault(), None);
        assert_eq!(host.slowdown(), SimDuration::ZERO);
        assert!(host.audience_allows(0, NodeId(2)));
        let packet = PacketBuf::new(vec![TAG_REPLY, 1, 2, 3]);
        let out = host
            .transform(PacketBuf::clone(&packet), true)
            .expect("passes");
        assert!(
            PacketBuf::ptr_eq(&out, &packet),
            "honest pass-through shares the buffer, no copy"
        );
    }

    #[test]
    fn tamper_agreement_covers_linear_qc_tags() {
        let spec = ClusterSpec::default();
        let mut host = FaultyReplicaHost::honest(make_replica(&spec, 0), CostModel::default(), 4);
        host.fault = Some(Fault::TamperAgreement);
        for tag in [TAG_PREPARE, TAG_COMMIT, TAG_PREPARE_QC, TAG_COMMIT_QC] {
            let packet = PacketBuf::new(vec![tag, 7, 7, 7, 7]);
            assert_ne!(
                host.transform(PacketBuf::clone(&packet), false),
                Some(packet),
                "agreement tag {tag} must be corrupted"
            );
        }
        // Non-agreement traffic (pre-prepare tag 2, replies) passes intact.
        for (tag, to_client) in [(2u8, false), (TAG_REPLY, true)] {
            let packet = PacketBuf::new(vec![tag, 7, 7, 7, 7]);
            assert_eq!(
                host.transform(PacketBuf::clone(&packet), to_client),
                Some(packet)
            );
        }
    }

    #[test]
    fn censor_targets_exactly_the_masked_clients() {
        let n = 4;
        let fault = Fault::Censor { client_bits: 0b101 }; // clients 1 and 3
        assert!(fault.censors(ClientId(1)));
        assert!(!fault.censors(ClientId(2)));
        assert!(fault.censors(ClientId(3)));
        assert!(!fault.censors(ClientId(4)));
        assert!(!Fault::Mute.censors(ClientId(1)));

        let spec = ClusterSpec::default();
        let mut host = FaultyReplicaHost::honest(make_replica(&spec, 0), CostModel::default(), n);
        host.fault = Some(fault);
        // Client k sits at node id n + k - 1.
        assert!(host.censored_node(NodeId(n as u32))); // client 1
        assert!(!host.censored_node(NodeId(n as u32 + 1))); // client 2
        assert!(host.censored_node(NodeId(n as u32 + 2))); // client 3
        assert!(!host.censored_node(NodeId(2))); // a replica, never censored
                                                 // Non-request traffic is never swallowed, even if garbled.
        assert!(!host.censors_incoming(&[TAG_PREPARE, 0, 0]));
        assert!(!host.censors_incoming(&[TAG_REQUEST, 0xff, 0xff]));
    }

    #[test]
    fn provisioned_twin_stays_silent_until_split_brain_mounts() {
        let spec = ClusterSpec::default();
        let n = spec.cfg.n();
        let mut host = FaultyReplicaHost::honest_with_twin(
            make_replica(&spec, 0),
            make_replica(&spec, 0),
            CostModel::default(),
            n,
        );
        // No fault: only engine 0 speaks, to everyone.
        for dst in 1..(n as u32 + 2) {
            assert!(host.audience_allows(0, NodeId(dst)));
            assert!(!host.audience_allows(1, NodeId(dst)));
        }
        // Split-brain mounted: audiences partition the peers.
        host.fault = Some(Fault::SplitBrain);
        for peer in 1..n as u32 {
            assert!(host.audience_allows(0, NodeId(peer)) ^ host.audience_allows(1, NodeId(peer)));
        }
        // Unmounted again: back to engine-0-only.
        host.fault = None;
        assert!(!host.audience_allows(1, NodeId(2)));
    }

    #[test]
    fn slow_primary_charges_but_never_drops() {
        let spec = ClusterSpec::default();
        let mut host = FaultyReplicaHost::honest(make_replica(&spec, 0), CostModel::default(), 4);
        host.fault = Some(Fault::SlowPrimary { delay_ns: 750_000 });
        assert_eq!(host.slowdown(), SimDuration::from_nanos(750_000));
        for tag in [TAG_PREPARE, TAG_COMMIT, TAG_REPLY] {
            let packet = PacketBuf::new(vec![tag, 9, 9]);
            assert_eq!(
                host.transform(PacketBuf::clone(&packet), tag == TAG_REPLY),
                Some(packet),
                "slow ≠ lossy: every message passes through"
            );
        }
    }
}
