//! Cluster assembly: mounting the sans-io engines on the simulator.

use std::cell::RefCell;
use std::rc::Rc;

use minisql::JournalMode;
use pbft_core::app::{App, KvApp, NullApp, StateHandle};
use pbft_core::client::{Client, ClientEvent, ClientMetrics};
use pbft_core::replica::{Replica, ReplicaMetrics, LIB_REGION_PAGES};
use pbft_core::{ClientId, HandleResult, NetTarget, Output, PbftConfig, ReplicaId, TimerKind};
use pbft_sql::{CostProfile, SqlApp};
use pbft_state::PagedState;
use pbft_xshard::routing::ShardMap;
use simnet::{LinkParams, Node, NodeCtx, NodeId, SimConfig, SimDuration, Simulator, TimerId};

use crate::byzantine::{Fault, FaultyReplicaHost};
use crate::cost::CostModel;
use crate::workload::{OpGen, SQL_BENCH_SCHEMA};

/// The host-private timer driving open-loop (paced) clients. Far outside
/// the engine's `TimerKind` index range, so the two cannot collide.
const PACE_TIMER: TimerId = TimerId(1_001);

/// The deployment's key-material seed (identical across trials so that only
/// network randomness varies between seeds).
pub const GROUP_SEED: u64 = 0xC1A55;

/// Which application backs the replicas.
#[derive(Debug, Clone)]
pub enum AppKind {
    /// The null application of §4.1.
    Null {
        /// Reply size in bytes.
        reply_size: usize,
    },
    /// The SQL state abstraction of §4.2 (with the `bench` table installed).
    Sql {
        /// ACID (rollback journal) or the no-ACID comparison mode.
        journal: JournalMode,
    },
    /// The SQL app with a custom setup script instead of the bench table
    /// (e.g. the `accounts` schema of the cross-shard transfer workload).
    SqlWith {
        /// Journal mode.
        journal: JournalMode,
        /// Setup SQL run once at first open (deterministic across replicas).
        setup: String,
    },
    /// The full e-voting service.
    Evoting {
        /// Journal mode.
        journal: JournalMode,
        /// Registered voters (user, secret).
        voters: Vec<(String, String)>,
    },
    /// The fixed-slot key-value app ([`pbft_core::app::KvApp`]): real,
    /// byte-addressable per-key state, so elastic-resharding scenarios can
    /// move key ranges between groups and audit them afterwards. Slots live
    /// at [`APP_PARTITION_BASE`], 16 bytes each (`key % slots`).
    Kv {
        /// Number of key slots.
        slots: u64,
    },
}

/// Byte offset where the application partition of the standard region
/// layout starts (everything below is library state: membership, sessions
/// and the xshard section).
pub const APP_PARTITION_BASE: u64 = LIB_REGION_PAGES * pbft_state::PAGE_SIZE as u64;

impl AppKind {
    fn state_pages(&self) -> usize {
        match self {
            AppKind::Null { .. } => LIB_REGION_PAGES as usize + 12,
            AppKind::Kv { slots } => {
                LIB_REGION_PAGES as usize
                    + (*slots as usize * 16).div_ceil(pbft_state::PAGE_SIZE)
                    + 1
            }
            _ => LIB_REGION_PAGES as usize + 1020, // ~4 MiB app partition
        }
    }

    fn make(&self, state: StateHandle) -> Box<dyn App> {
        match self {
            AppKind::Null { reply_size } => Box::new(NullApp::new(*reply_size)),
            AppKind::Sql { journal } => Box::new(
                SqlApp::open(
                    state,
                    *journal,
                    CostProfile::default(),
                    Some(SQL_BENCH_SCHEMA),
                )
                .expect("state region fits the bench schema"),
            ),
            AppKind::SqlWith { journal, setup } => Box::new(
                SqlApp::open(state, *journal, CostProfile::default(), Some(setup))
                    .expect("state region fits the setup script"),
            ),
            AppKind::Evoting { journal, voters } => {
                let refs: Vec<(&str, &str)> = voters
                    .iter()
                    .map(|(u, s)| (u.as_str(), s.as_str()))
                    .collect();
                Box::new(evoting::EvotingApp::open(state, *journal, &refs))
            }
            AppKind::Kv { slots } => Box::new(KvApp::new(state, APP_PARTITION_BASE, *slots)),
        }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Protocol configuration (the Table 1 axes).
    pub cfg: PbftConfig,
    /// Application.
    pub app: AppKind,
    /// Number of clients (the paper uses 12).
    pub num_clients: usize,
    /// Cost model.
    pub cost: CostModel,
    /// Default link parameters.
    pub link: LinkParams,
    /// Simulation seed (varies per trial).
    pub seed: u64,
    /// Record a message trace.
    pub trace: bool,
    /// Wrap the application in [`pbft_xshard::xshard::XShardApp`] so the group can
    /// act as a participant/coordinator of cross-shard transactions (see
    /// [`crate::xshard`]). Plain operations pass through byte-identically,
    /// so enabling this on a deployment that never submits cross-shard
    /// frames changes nothing.
    pub xshard: bool,
    /// Elastic deployments: which group of the partition these replicas
    /// form, and the [`ShardMap`] epoch the group is born under. Implies
    /// [`ClusterSpec::xshard`] (the wrapper hosts the ownership gate). The
    /// identity is only a *birth* default — a replica restarted over a
    /// preserved disk keeps whatever newer epoch its ordered history
    /// installed (see [`pbft_xshard::xshard::XShardApp::set_identity`]).
    pub shard_identity: Option<(u32, ShardMap)>,
}

impl ClusterSpec {
    /// Build this spec's application over `state`, honoring the
    /// [`ClusterSpec::xshard`] wrapper flag. The wrapper mounts over the
    /// region's xshard section and *loads* any existing content — a replica
    /// restarted over a preserved disk reconstructs its 2PC tables here.
    pub fn make_app(&self, state: StateHandle) -> Box<dyn App> {
        let inner = self.app.make(state.clone());
        if self.xshard || self.shard_identity.is_some() {
            let mut app = pbft_xshard::xshard::XShardApp::mount(inner, state);
            if let Some((group, map)) = self.shard_identity {
                app.set_identity(group, map);
            }
            Box::new(app)
        } else {
            inner
        }
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            cfg: PbftConfig::default(),
            app: AppKind::Null { reply_size: 1024 },
            num_clients: 12,
            cost: CostModel::default(),
            link: LinkParams {
                latency: SimDuration::from_micros(40),
                jitter: SimDuration::from_micros(5),
                ..Default::default()
            },
            seed: 1,
            trace: false,
            xshard: false,
            shard_identity: None,
        }
    }
}

/// The simulator node a [`NetTarget`] names.
pub(crate) fn node_of(to: NetTarget) -> NodeId {
    match to {
        NetTarget::Replica(r) => NodeId(r.0),
        NetTarget::Client(addr) => NodeId(addr),
    }
}

/// Charge `res`'s counts, then hand each output to the network or the
/// timer wheel in order, charging each packet's cost as it is sent. Every
/// host's one output path: a faulty replica filters and transforms its
/// sends first.
pub(crate) fn apply_outputs(res: HandleResult, model: &CostModel, ctx: &mut NodeCtx<'_>) {
    ctx.charge(model.charge_counts(&res.counts));
    for out in res.outputs {
        match out {
            Output::Send { to, packet, .. } => {
                ctx.charge(model.packet_cost(packet.len()));
                ctx.send(node_of(to), packet);
            }
            Output::SetTimer { kind, delay_ns } => {
                ctx.set_timer(TimerId(kind.index()), SimDuration::from_nanos(delay_ns));
            }
            Output::CancelTimer { kind } => ctx.cancel_timer(TimerId(kind.index())),
        }
    }
}

impl ClientHost {
    /// Mount a client engine with no workload installed.
    pub fn new(client: Client, model: CostModel) -> ClientHost {
        ClientHost {
            client,
            model,
            gen: None,
            issued: 0,
            events: Vec::new(),
            pace: None,
        }
    }
}

/// A client mounted as a simulator node, optionally running a workload.
///
/// Two driving modes:
///
/// * **closed loop** (the default, the paper's §4 testbed): the next
///   operation is issued the moment the previous reply arrives, so offered
///   load adapts to service capacity;
/// * **open loop** ([`Cluster::start_paced_workload`]): operations are
///   issued on a fixed pacing interval regardless of replies — except that
///   PBFT allows one outstanding request per client, so a slot whose
///   previous request is still in flight is *skipped*. Skipped slots are
///   the client-visible unavailability that fault scenarios measure.
pub struct ClientHost {
    /// The client engine.
    pub client: Client,
    model: CostModel,
    gen: Option<OpGen>,
    issued: u64,
    /// Join/reply events observed (drained by experiments).
    pub events: Vec<ClientEvent>,
    /// Open-loop pacing interval; `None` = closed loop.
    pace: Option<SimDuration>,
}

impl ClientHost {
    fn issue_next(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(gen) = &mut self.gen {
            let draw = gen(self.issued);
            self.issued += 1;
            let res = self
                .client
                .submit(draw.op, draw.read_only, ctx.now().as_nanos());
            apply_outputs(res, &self.model.clone(), ctx);
        }
    }

    fn pump_workload(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.pace.is_none() && self.client.is_member() && !self.client.has_outstanding() {
            self.issue_next(ctx);
        }
    }

    fn on_pace_slot(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(pace) = self.pace else {
            return; // pacing stopped: let the timer die
        };
        ctx.set_timer(PACE_TIMER, pace);
        if self.client.is_member() && !self.client.has_outstanding() {
            self.issue_next(ctx);
        }
    }
}

impl Node for ClientHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let res = self.client.on_start(ctx.now().as_nanos());
        apply_outputs(res, &self.model.clone(), ctx);
    }

    fn on_packet(&mut self, _src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
        ctx.charge(self.model.packet_cost(payload.len()));
        let res = self.client.handle_packet(payload, ctx.now().as_nanos());
        apply_outputs(res, &self.model.clone(), ctx);
        self.events.extend(self.client.take_events());
        self.pump_workload(ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>) {
        if timer == PACE_TIMER {
            self.on_pace_slot(ctx);
            return;
        }
        let Some(kind) = TimerKind::from_index(timer.0) else {
            return;
        };
        let res = self.client.on_timer(kind, ctx.now().as_nanos());
        apply_outputs(res, &self.model.clone(), ctx);
        self.pump_workload(ctx);
    }
}

/// A running simulated cluster. Every replica runs the engine
/// `spec.cfg.engine` names, including every replica a restart, a proactive
/// recovery or a split-brain twin builds later.
pub struct Cluster {
    /// The simulator.
    pub sim: Simulator,
    /// Node ids of the replicas (index = replica id).
    pub replicas: Vec<NodeId>,
    /// Node ids of the clients.
    pub clients: Vec<NodeId>,
    spec: ClusterSpec,
}

/// Build replica `i` per the spec, over a fresh state region (used by
/// [`Cluster::build`] and by fault-injection harnesses that need extra
/// replicas, e.g. a split-brain equivocating primary).
pub fn make_replica(spec: &ClusterSpec, i: u32) -> Replica {
    let static_clients: Vec<ClientId> = if spec.cfg.dynamic_membership {
        Vec::new()
    } else {
        (1..=spec.num_clients as u64).map(ClientId).collect()
    };
    let state: StateHandle = Rc::new(RefCell::new(PagedState::new(spec.app.state_pages())));
    let app = spec.make_app(state.clone());
    Replica::new(
        spec.cfg.clone(),
        GROUP_SEED,
        ReplicaId(i),
        state,
        app,
        &static_clients,
    )
}

impl Cluster {
    /// Build the cluster: replicas first (node id == replica id), then
    /// clients. Dynamic deployments complete their joins before this
    /// returns. Every replica is mounted on a fault-free
    /// [`FaultyReplicaHost`], so scenarios can [`Cluster::mount_fault`] on
    /// any member at runtime.
    pub fn build(spec: ClusterSpec) -> Cluster {
        let cost = spec.cost;
        let n = spec.cfg.n();
        Self::build_with(spec, move |_, replica| {
            FaultyReplicaHost::honest(replica, cost, n)
        })
    }

    /// Fully custom node assembly: the closure adds every node to the
    /// simulator and returns `(replica_node_ids, client_node_ids)`. Used by
    /// topologies that interpose extra nodes (e.g. privacy-firewall rows).
    pub fn build_custom(
        spec: ClusterSpec,
        assemble: impl FnOnce(&mut Simulator, &ClusterSpec) -> (Vec<NodeId>, Vec<NodeId>),
    ) -> Cluster {
        let mut sim = Simulator::new(SimConfig {
            seed: spec.seed,
            default_link: spec.link,
            trace: spec.trace,
            ..Default::default()
        });
        let (replicas, clients) = assemble(&mut sim, &spec);
        let mut cluster = Cluster {
            sim,
            replicas,
            clients,
            spec,
        };
        cluster.settle();
        cluster
    }

    /// [`Cluster::build`] with custom replica hosts — the hook for
    /// mounting Byzantine behaviours on selected replicas.
    pub fn build_with(
        spec: ClusterSpec,
        mut make_host: impl FnMut(u32, Replica) -> FaultyReplicaHost,
    ) -> Cluster {
        Self::build_custom(spec, |sim, spec| {
            let n = spec.cfg.n();
            let replicas = (0..n as u32)
                .map(|i| sim.add_node(Box::new(make_host(i, make_replica(spec, i)))))
                .collect();
            let clients = (0..spec.num_clients)
                .map(|c| {
                    // The client's transport address is its (future) simnet node id.
                    let addr = (n + c) as u32;
                    let client = if spec.cfg.dynamic_membership {
                        let idbuf = match &spec.app {
                            AppKind::Evoting { voters, .. } => {
                                let (u, s) = &voters[c % voters.len()];
                                evoting::idbuf(u, s)
                            }
                            _ => format!("user-{c}").into_bytes(),
                        };
                        Client::new_dynamic(spec.cfg.clone(), GROUP_SEED, c as u64 + 1, addr, idbuf)
                    } else {
                        let id = ClientId(c as u64 + 1);
                        Client::new_static(spec.cfg.clone(), GROUP_SEED, id, addr)
                    };
                    sim.add_node(Box::new(ClientHost::new(client, spec.cost)))
                })
                .collect();
            (replicas, clients)
        })
    }

    /// Wait for joins / key distribution to complete.
    fn settle(&mut self) {
        for _ in 0..100 {
            self.sim.run_for(SimDuration::from_millis(20));
            let all_member = self.clients.iter().all(|&id| {
                self.sim
                    .node_ref::<ClientHost>(id)
                    .is_some_and(|c| c.client.is_member())
            });
            if all_member {
                break;
            }
        }
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Install a workload generator on every client and issue the first op.
    pub fn start_workload(&mut self, make_gen: impl FnMut(usize) -> OpGen) {
        let all: Vec<usize> = (0..self.clients.len()).collect();
        self.install_workload(&all, None, make_gen);
    }

    /// Install an **open-loop** workload on every client: each issues one
    /// operation per `pace` interval (slots with the previous request still
    /// in flight are skipped).
    /// Fault scenarios use this so offered load stays constant while the
    /// cluster degrades, making the availability timeline honest.
    pub fn start_paced_workload(
        &mut self,
        pace: SimDuration,
        make_gen: impl FnMut(usize) -> OpGen,
    ) {
        let all: Vec<usize> = (0..self.clients.len()).collect();
        self.install_workload(&all, Some(pace), make_gen);
    }

    /// Install `make_gen(i)` on each client `i` of `indices`, leaving the
    /// rest idle (a deployment reserves its admin client and transaction
    /// agents). Closed loop (`pace = None`) issues the first op at once;
    /// paced, first slots are staggered across the pacing interval so the
    /// fleet doesn't thunder in lockstep (deterministically, by position in
    /// `indices`).
    pub(crate) fn install_workload(
        &mut self,
        indices: &[usize],
        pace: Option<SimDuration>,
        mut make_gen: impl FnMut(usize) -> OpGen,
    ) {
        assert!(
            pace != Some(SimDuration::ZERO),
            "a zero pace would spin the clock"
        );
        for (k, &i) in indices.iter().enumerate() {
            let id = self.clients[i];
            let gen = make_gen(i);
            self.sim.with_node_ctx::<ClientHost, _>(id, |host, ctx| {
                host.gen = Some(gen);
                host.pace = pace;
                match pace {
                    Some(pace) => {
                        let phase = 1 + pace.as_nanos() * (k as u64 % 8) / 8;
                        ctx.set_timer(PACE_TIMER, SimDuration::from_nanos(phase));
                    }
                    None => host.pump_workload(ctx),
                }
            });
        }
    }

    /// Submit one operation on client `idx`'s engine (manual driving, used
    /// by the cross-shard transaction agents). Queues behind an outstanding
    /// request if the client is busy — PBFT allows one in flight per client.
    pub fn client_submit(&mut self, idx: usize, op: Vec<u8>, read_only: bool) {
        let id = self.clients[idx];
        self.sim.with_node_ctx::<ClientHost, _>(id, |host, ctx| {
            let model = host.model;
            let res = host.client.submit(op, read_only, ctx.now().as_nanos());
            apply_outputs(res, &model, ctx);
        });
    }

    /// Drain the join/reply events client `idx` has observed since the last
    /// drain. Empty if the client's node has been crashed.
    pub fn take_client_events(&mut self, idx: usize) -> Vec<ClientEvent> {
        self.sim
            .node_mut::<ClientHost>(self.clients[idx])
            .map(|host| std::mem::take(&mut host.events))
            .unwrap_or_default()
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Stop issuing new operations and drain in-flight work, so that state
    /// comparisons across replicas see a quiescent system.
    pub fn quiesce(&mut self, drain: SimDuration) {
        for &id in &self.clients.clone() {
            if let Some(host) = self.sim.node_mut::<ClientHost>(id) {
                host.gen = None;
                host.pace = None;
            }
        }
        self.sim.run_for(drain);
    }

    /// Total completed requests across clients.
    pub fn completed(&self) -> u64 {
        self.clients
            .iter()
            .filter_map(|&id| self.sim.node_ref::<ClientHost>(id))
            .map(|c| c.client.metrics.completed)
            .sum()
    }

    /// Run `warmup` then measure throughput (requests/second of virtual
    /// time) over `window`.
    pub fn measure_throughput(&mut self, warmup: SimDuration, window: SimDuration) -> f64 {
        self.run_for(warmup);
        let base = self.completed();
        self.run_for(window);
        let done = self.completed() - base;
        done as f64 / window.as_secs_f64()
    }

    /// A replica's metrics.
    pub fn replica_metrics(&self, i: usize) -> ReplicaMetrics {
        self.replica(i)
            .map(|r| r.metrics().clone())
            .unwrap_or_default()
    }

    /// Access a replica (engine 0 of its host: the identity a split-brain
    /// twin shares). `None` while the member is crashed.
    pub fn replica(&self, i: usize) -> Option<&Replica> {
        self.sim
            .node_ref::<FaultyReplicaHost>(self.replicas[i])
            .map(|h| &h.engines[0])
    }

    /// Mount a Byzantine `fault` on member `i` at runtime.
    ///
    /// # Panics
    /// Panics if the member is crashed, or (from the host) when mounting
    /// [`Fault::SplitBrain`] without a construction-time twin.
    pub fn mount_fault(&mut self, i: usize, fault: Fault) {
        let mounted = self
            .sim
            .with_node_ctx::<FaultyReplicaHost, _>(self.replicas[i], |host, ctx| {
                host.mount(fault, ctx)
            });
        assert!(mounted.is_some(), "replica {i} is crashed");
    }

    /// Unmount member `i`'s fault: it behaves honestly from now on. No-op
    /// if no fault is mounted; panics like [`Cluster::mount_fault`] if the
    /// member is crashed.
    pub fn unmount_fault(&mut self, i: usize) {
        let unmounted = self
            .sim
            .with_node_ctx::<FaultyReplicaHost, _>(self.replicas[i], |host, ctx| host.unmount(ctx));
        assert!(unmounted.is_some(), "replica {i} is crashed");
    }

    /// The fault currently mounted on member `i` (`None` for honest and
    /// crashed members).
    pub fn mounted_fault(&self, i: usize) -> Option<Fault> {
        self.sim
            .node_ref::<FaultyReplicaHost>(self.replicas[i])
            .and_then(|h| h.fault())
    }

    /// A replica's cumulative work record (cost-model inputs).
    pub fn replica_counts(&self, i: usize) -> pbft_core::OpCounts {
        self.sim
            .node_ref::<FaultyReplicaHost>(self.replicas[i])
            .map(|h| h.cum_counts)
            .unwrap_or_default()
    }

    /// A client's metrics.
    pub fn client_metrics(&self, i: usize) -> ClientMetrics {
        self.sim
            .node_ref::<ClientHost>(self.clients[i])
            .map(|c| c.client.metrics)
            .unwrap_or_default()
    }

    /// Mean request latency (ms) across clients.
    pub fn mean_latency_ms(&self) -> f64 {
        let (mut total, mut n) = (0u64, 0u64);
        for i in 0..self.clients.len() {
            let m = self.client_metrics(i);
            total += m.total_latency_ns;
            n += m.completed;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// Crash a replica (transient state will be lost on restart).
    pub fn crash_replica(&mut self, i: usize) {
        self.sim.crash(self.replicas[i]);
    }

    /// Restart a crashed replica. `preserve_disk` keeps the state region
    /// (the durable "disk"); otherwise it restarts blank. Client session
    /// keys are always lost — the §2.3 scenario. The member comes back
    /// with no fault mounted — faults do not outlive a crash.
    pub fn restart_replica(&mut self, i: usize, preserve_disk: bool) {
        let node_id = self.replicas[i];
        // Salvage the durable state (if preserving) and whether a
        // split-brain twin was provisioned (adversary-ready members stay
        // adversary-ready across proactive recovery).
        let old = self.sim.take_node(node_id).map(|node| {
            (node as Box<dyn std::any::Any>)
                .downcast::<FaultyReplicaHost>()
                .expect("every replica is mounted on a FaultyReplicaHost")
        });
        let had_twin = old.as_ref().is_some_and(|host| host.engines.len() > 1);
        let state: StateHandle = match old {
            Some(host) if preserve_disk => host.engines[0].state_handle(),
            _ => Rc::new(RefCell::new(PagedState::new(self.spec.app.state_pages()))),
        };
        let app = self.spec.make_app(state.clone());
        let replica = Replica::new(
            self.spec.cfg.clone(),
            GROUP_SEED,
            ReplicaId(i as u32),
            state,
            app,
            &[], // session keys are transient: all lost
        );
        let (cost, n) = (self.spec.cost, self.spec.cfg.n());
        let host = if had_twin {
            // Re-provision a fresh silent twin: the rebooted member can be
            // re-compromised later, but the reboot itself wiped whatever the
            // old twin knew.
            let twin = make_replica(&self.spec, i as u32);
            FaultyReplicaHost::honest_with_twin(replica, twin, cost, n)
        } else {
            FaultyReplicaHost::honest(replica, cost, n)
        };
        self.sim.restart(node_id, Box::new(host.as_restarted()));
    }

    /// Proactively recover a *healthy* member: reboot it through the normal
    /// crash/restart path (durable disk preserved, transient session keys
    /// and protocol state lost — so any undetected intrusion is flushed and
    /// the engine re-keys and catches up by state transfer), then have every
    /// client redistribute fresh session keys immediately instead of waiting
    /// for the blind NewKey retransmission timer. This is the rolling
    /// recovery schedule's unit step: done on a cadence, it refreshes the
    /// fault budget `f` without the group ever having more than this one
    /// member down.
    ///
    /// # Panics
    /// Panics if member `i` is already crashed — recovering a dead replica
    /// is [`Cluster::restart_replica`]'s job; the schedule targets healthy
    /// ones.
    pub fn proactive_recover(&mut self, i: usize) {
        assert!(
            self.replica(i).is_some(),
            "proactive recovery targets healthy members; {i} is crashed"
        );
        self.crash_replica(i);
        self.restart_replica(i, true);
        self.redistribute_client_keys();
    }

    /// Have every live client re-derive its session keys and broadcast a
    /// fresh signed NewKey — the distribution half of proactive recovery
    /// (see [`pbft_core::client::Client::redistribute_session_keys`]).
    pub fn redistribute_client_keys(&mut self) {
        for &id in &self.clients.clone() {
            self.sim.with_node_ctx::<ClientHost, _>(id, |host, ctx| {
                let model = host.model;
                let res = host.client.redistribute_session_keys();
                apply_outputs(res, &model, ctx);
            });
        }
    }

    /// Set packet loss on the directed link `from → to` (indices into the
    /// combined replica+client node space: use the `replicas`/`clients`
    /// arrays).
    pub fn set_loss(&mut self, from: NodeId, to: NodeId, loss: f64) {
        let mut params = self.spec.link;
        params.loss = loss;
        self.sim.set_link(from, to, params);
    }

    /// Degrade every link without a per-pair override: add `loss` and
    /// `extra_latency` on top of the spec's parameters. Undo with
    /// [`Cluster::restore_links`].
    pub fn degrade_links(&mut self, loss: f64, extra_latency: SimDuration) {
        let mut p = self.spec.link;
        p.loss = (p.loss + loss).min(1.0);
        p.latency += extra_latency;
        self.sim.set_default_link(p);
    }

    /// Restore the spec's link parameters and clear every per-pair override
    /// — heals partitions, isolations and degradations in one stroke.
    pub fn restore_links(&mut self) {
        self.sim.set_default_link(self.spec.link);
        self.sim.heal_all();
    }

    /// Cut member `i` off from every other node — peers *and* clients, both
    /// directions. Unlike [`Cluster::crash_replica`] the member keeps
    /// running (timers fire, state advances); it just talks to no one.
    pub fn isolate_replica(&mut self, i: usize) {
        let me = self.replicas[i];
        let others: Vec<NodeId> = self
            .replicas
            .iter()
            .chain(self.clients.iter())
            .copied()
            .filter(|&id| id != me)
            .collect();
        self.sim.partition(&[me], &others);
    }

    /// Partition every replica from every client: the group stays healthy
    /// internally but is unreachable — the "paused coordinator" fault of
    /// the cross-shard scenarios. Heal with [`Cluster::restore_links`].
    pub fn isolate_from_clients(&mut self) {
        let (replicas, clients) = (self.replicas.clone(), self.clients.clone());
        self.sim.partition(&replicas, &clients);
    }

    /// Are all live replicas' state digests identical? (Safety check.)
    pub fn states_converged(&mut self, among: &[usize]) -> bool {
        let mut roots = Vec::new();
        for &i in among {
            let Some(replica) = self.replica(i) else {
                continue;
            };
            let handle = replica.state_handle();
            roots.push(handle.borrow_mut().refresh_digest());
        }
        roots.windows(2).all(|w| w[0] == w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::null_ops;

    #[test]
    fn static_null_cluster_reaches_throughput() {
        let spec = ClusterSpec {
            num_clients: 4,
            ..Default::default()
        };
        let mut cluster = Cluster::build(spec);
        cluster.start_workload(|_| null_ops(256));
        let tps = cluster
            .measure_throughput(SimDuration::from_millis(200), SimDuration::from_millis(500));
        assert!(tps > 1000.0, "default config should be fast, got {tps}");
        cluster.quiesce(SimDuration::from_millis(500));
        assert!(cluster.states_converged(&[0, 1, 2, 3]));
        assert!(cluster.mean_latency_ms() > 0.0);
    }

    #[test]
    fn dynamic_cluster_joins_and_works() {
        let cfg = PbftConfig {
            dynamic_membership: true,
            ..Default::default()
        };
        let spec = ClusterSpec {
            cfg,
            num_clients: 3,
            ..Default::default()
        };
        let mut cluster = Cluster::build(spec);
        for &id in &cluster.clients {
            let host = cluster.sim.node_ref::<ClientHost>(id).expect("client");
            assert!(host.client.is_member(), "join completed during build");
        }
        cluster.start_workload(|_| null_ops(128));
        cluster.run_for(SimDuration::from_millis(500));
        assert!(cluster.completed() > 100);
    }

    #[test]
    fn sql_cluster_executes_inserts() {
        let spec = ClusterSpec {
            app: AppKind::Sql {
                journal: JournalMode::Rollback,
            },
            num_clients: 4,
            ..Default::default()
        };
        let mut cluster = Cluster::build(spec);
        cluster.start_workload(|i| crate::workload::sql_insert_ops(i as u64));
        cluster.run_for(SimDuration::from_secs(1));
        assert!(cluster.completed() > 50, "got {}", cluster.completed());
        cluster.quiesce(SimDuration::from_secs(1));
        assert!(cluster.states_converged(&[0, 1, 2, 3]));
    }

    #[test]
    fn crash_and_restart_recovers() {
        let cfg = PbftConfig {
            checkpoint_interval: 32,
            ..Default::default()
        };
        let spec = ClusterSpec {
            cfg,
            num_clients: 4,
            ..Default::default()
        };
        let mut cluster = Cluster::build(spec);
        cluster.start_workload(|_| null_ops(64));
        cluster.run_for(SimDuration::from_millis(300));
        cluster.crash_replica(2);
        cluster.run_for(SimDuration::from_millis(300));
        cluster.restart_replica(2, false);
        cluster.run_for(SimDuration::from_secs(6));
        let m = cluster.replica_metrics(2);
        assert!(m.state_transfers_completed >= 1, "{m:?}");
        cluster.quiesce(SimDuration::from_secs(1));
        assert!(cluster.states_converged(&[0, 1, 3]));
    }
}
