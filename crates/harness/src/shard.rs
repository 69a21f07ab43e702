//! Sharded multi-group PBFT: N independent groups behind a deterministic
//! client-side router — now with **elastic resharding**: a live shard split
//! that moves one key range to a freshly started group while paced load
//! keeps flowing.
//!
//! The paper's evaluation (Table 1, Fig. 5) tops out at what one 4-replica
//! group can commit: the agreement is quadratic in messages and every
//! replica orders every request. The standard escape hatch is horizontal
//! composition — run N groups side by side, partition the key space among
//! them with a deterministic hash, and route each operation to the group
//! owning its key. The queueing model of Loruenser et al. predicts
//! near-linear throughput scaling when the request streams are disjoint;
//! the `sharding` bench target tests that prediction against the Table 1
//! baseline.
//!
//! Pieces:
//!
//! * [`ShardRouter`] — the client-side router: a shared, **live** veneer
//!   over [`pbft_xshard::routing::ShardMap`]. Clones see map installs
//!   immediately (every workload adapter holds one), so an epoch flip
//!   re-routes the whole client population at once. Cross-shard operations
//!   are rejected with the typed
//!   [`RouteError::CrossShard`](pbft_xshard::routing::RouteError) —
//!   cross-shard *coordination* lives in [`crate::xshard`].
//! * [`DeploymentSpec`] / [`Deployment`] — the harness layer and its one
//!   deployment type: composes N [`Cluster`]s (one [`simnet`] simulation
//!   each, advanced in lockstep via [`simnet::run_lockstep`] so they share
//!   one virtual clock), installs router-filtered keyed workloads,
//!   aggregates completed requests and throughput across groups, and
//!   carries the cross-shard transaction driver of [`crate::xshard`]. One
//!   group without initiators is the single-group testbed.
//! * [`Deployment::split`] — the live resharding orchestration: hold
//!   back traffic to the moving span, commit an ordered
//!   [`XMsg::Reshard`] on the source, export the moved key range from the
//!   source's attested snapshot ([`pbft_state::RangeExport`]), boot the
//!   target group born under the new epoch, install the range there, flip
//!   the remaining groups and finally the router.
//!
//! ```
//! use harness::shard::ShardRouter;
//! use harness::workload::KeyedOp;
//!
//! let router = ShardRouter::new(4);
//! let op = KeyedOp { keys: vec![b"voter-1".to_vec()], op: vec![0; 8], read_only: false };
//! let shard = router.route(&op).expect("single-key ops always route");
//! assert!(shard < 4);
//! assert_eq!(router.route_key(b"voter-1"), shard);
//!
//! // Elastic routers share one live map: installing a newer epoch on any
//! // clone re-routes every other clone instantly.
//! let elastic = ShardRouter::elastic(2);
//! let clone = elastic.clone();
//! let plan = elastic.map().split(0);
//! assert!(clone.install(plan.new_map));
//! assert_eq!(elastic.map().epoch(), 1);
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pbft_core::ClientEvent;
use pbft_state::{PagedState, RangeExport};
use pbft_xshard::routing::{stable_key_hash, RouteError, ShardMap, SplitPlan};
use pbft_xshard::xshard::{TxId, XMsg, XReply};
use simnet::{run_lockstep, SimDuration, SimTime};

use crate::cluster::{AppKind, Cluster, ClusterSpec, APP_PARTITION_BASE};
use crate::stats::Stats;
use crate::workload::{KeyedOp, KeyedOpGen, OpGen};
use crate::xshard::{TxDriver, TX_POLL_INTERVAL};

/// Decorrelates the network randomness of the groups: shard `s` simulates
/// with seed `base.seed + s * SHARD_SEED_STRIDE`, so trials (which vary
/// `base.seed` by small offsets) never collide with shard offsets.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9;

/// How many consecutive foreign/unroutable operations the workload adapter
/// will skip before concluding the generator can never feed its shard.
const STARVATION_LIMIT: u32 = 100_000;

/// The client every group keeps free of background workload in *elastic*
/// deployments, so reshard admin traffic and epoch-checked probes get
/// unambiguous reply streams.
const ADMIN_CLIENT: usize = 0;

/// Virtual time the split orchestration lets in-flight operations on the
/// moving span drain after the hold is set, before snapshotting the source.
const SPLIT_DRAIN: SimDuration = SimDuration::from_millis(10);

/// Lockstep slice while waiting for an admin reply.
const REPLY_SLICE: SimDuration = SimDuration::from_millis(1);

/// Reply-wait bound, in [`REPLY_SLICE`]s (5 s of virtual time — far beyond
/// any view change an f-bounded group needs).
const REPLY_TIMEOUT_SLICES: u32 = 5_000;

/// The admin txid stripe: far above every initiator stripe the cross-shard
/// harness allocates (`(i + 1) << 40`).
const ADMIN_TX_STRIPE: u64 = 0xAD << 40;

/// The txid stamped on epoch-checked probes (echoed only in `WrongEpoch`).
const PROBE_TX: TxId = u64::MAX;

/// The client-side deterministic shard router.
///
/// Routing is a pure function of the operation's shard keys and the
/// installed [`ShardMap`] — every client computes the same assignment with
/// no coordination. See [`pbft_xshard::routing`] for the hash contract.
///
/// The map cell is **shared among clones** (the live view every workload
/// adapter samples), so [`ShardRouter::install`] re-routes the whole client
/// population at once. During a hand-off, [`ShardRouter::hold`] marks the
/// moving hash span; adapters reject-sample held keys exactly like foreign
/// ones until the hold clears.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    map: Rc<Cell<ShardMap>>,
    hold: Rc<Cell<Option<(u64, u64)>>>,
}

impl ShardRouter {
    /// A router over `shards` groups with the static (epoch-0) hash
    /// partition — cannot be split.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> ShardRouter {
        Self::from_map(ShardMap::new(shards as u32))
    }

    /// A router over `shards` groups with the explicit range partition —
    /// the flavor [`ShardMap::split`] can grow.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds
    /// [`pbft_xshard::routing::MAX_RANGES`].
    pub fn elastic(shards: usize) -> ShardRouter {
        Self::from_map(ShardMap::ranged(shards as u32))
    }

    /// A router over an explicit map (e.g. a mid-epoch map carried by a
    /// `WrongEpoch` rejection).
    pub fn from_map(map: ShardMap) -> ShardRouter {
        ShardRouter {
            map: Rc::new(Cell::new(map)),
            hold: Rc::new(Cell::new(None)),
        }
    }

    /// Number of groups routed over (under the currently installed map).
    pub fn shards(&self) -> usize {
        self.map.get().shards() as usize
    }

    /// The installed partition.
    pub fn map(&self) -> ShardMap {
        self.map.get()
    }

    /// The installed map's epoch.
    pub fn epoch(&self) -> u64 {
        self.map.get().epoch()
    }

    /// Install `map` if it is newer than the current epoch; every clone of
    /// this router re-routes immediately. Returns whether it was installed.
    pub fn install(&self, map: ShardMap) -> bool {
        if map.epoch() > self.map.get().epoch() {
            self.map.set(map);
            true
        } else {
            false
        }
    }

    /// Fault injection: overwrite the installed map unconditionally, even
    /// with an *older* epoch. This is how the suites model a client
    /// population that has not yet heard of a reshard — every clone
    /// re-routes with the stale map and must recover purely through the
    /// `WrongEpoch` rejections the replicas answer. Production code paths
    /// only ever move forward via [`ShardRouter::install`].
    pub fn force(&self, map: ShardMap) {
        self.map.set(map);
    }

    /// Mark (or clear, with `None`) the inclusive hash span currently being
    /// handed off. Workload adapters skip held keys like foreign ones.
    pub fn hold(&self, span: Option<(u64, u64)>) {
        self.hold.set(span);
    }

    /// Is `key` inside the held (mid-hand-off) span?
    pub fn is_held(&self, key: &[u8]) -> bool {
        match self.hold.get() {
            Some((lo, hi)) => {
                let h = stable_key_hash(key);
                lo <= h && h <= hi
            }
            None => false,
        }
    }

    /// The group owning a single key.
    pub fn route_key(&self, key: &[u8]) -> usize {
        self.map.get().shard_of(key) as usize
    }

    /// Route an operation: the single group owning all of its keys, or a
    /// typed error — [`RouteError::CrossShard`] when the keys span groups,
    /// [`RouteError::NoKeys`] when the op names none.
    pub fn route(&self, op: &KeyedOp) -> Result<usize, RouteError> {
        self.map.get().route(&op.keys).map(|s| s as usize)
    }
}

/// Counters kept by the router while it drives workloads. **Epoch-aware**:
/// the per-shard routed counts reset whenever the router installs a newer
/// map, so [`RouterMetrics::balance`] reflects only the current partition —
/// a post-split imbalance is visible instead of being averaged away under
/// pre-split history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterMetrics {
    /// The map epoch the per-shard counters below were collected under.
    pub epoch: u64,
    /// Operations the router assigned to a single owning group — via a
    /// [`Deployment::route`] probe or a workload adapter (the adapters
    /// then submit them on the owning group). Cumulative across epochs.
    pub routed: u64,
    /// Routed operations per owning group, **this epoch only** (reset on
    /// every epoch bump).
    pub routed_this_epoch: Vec<u64>,
    /// Operations skipped by a client because their key belongs to another
    /// group (the stream is rejection-sampled per shard).
    pub skipped_foreign: u64,
    /// Operations skipped because their key is inside a span currently
    /// being handed off to another group ([`ShardRouter::hold`]).
    pub held_back: u64,
    /// Operations rejected because their keys span groups
    /// ([`RouteError::CrossShard`]).
    pub rejected_cross_shard: u64,
    /// Operations rejected because they named no shard key at all
    /// ([`RouteError::NoKeys`]).
    pub rejected_keyless: u64,
    /// `WrongEpoch` rejections that were resolved by installing the newer
    /// map carried in the rejection and retrying.
    pub epoch_retries: u64,
}

impl RouterMetrics {
    fn record(&mut self, verdict: &Result<usize, RouteError>) {
        match verdict {
            Ok(s) => {
                self.routed += 1;
                if self.routed_this_epoch.len() <= *s {
                    self.routed_this_epoch.resize(s + 1, 0);
                }
                self.routed_this_epoch[*s] += 1;
            }
            Err(RouteError::CrossShard { .. }) => self.rejected_cross_shard += 1,
            Err(RouteError::NoKeys) => self.rejected_keyless += 1,
        }
    }

    /// Reset the per-shard view when a newer epoch is observed.
    fn observe_epoch(&mut self, epoch: u64, shards: usize) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.routed_this_epoch.clear();
        }
        if self.routed_this_epoch.len() < shards {
            self.routed_this_epoch.resize(shards, 0);
        }
    }

    /// Mean ± std-dev of the per-shard routed counts of the **current
    /// epoch** — the router-side balance view. A fresh post-split epoch
    /// starts from zero, so skew between the split halves shows up
    /// immediately.
    pub fn balance(&self) -> Stats {
        let samples: Vec<f64> = self.routed_this_epoch.iter().map(|&c| c as f64).collect();
        Stats::from_samples(&samples)
    }
}

/// Configuration of a deployment: `shards` independent PBFT groups, each
/// built from the `base` template (same protocol config, app, client count
/// and cost model; the simulation seed is decorrelated per shard), plus
/// `initiators` cross-shard transaction agents. The default is one plain
/// group with no transaction driver.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Number of independent PBFT groups.
    pub shards: usize,
    /// Per-group template. `base.num_clients` clients are mounted *per
    /// group* — a sharded deployment scales clients with groups, like the
    /// paper's fixed 12-clients-per-group population. In elastic
    /// deployments client 0 of every group is the reshard admin client.
    pub base: ClusterSpec,
    /// Elastic mode: partition by explicit key ranges
    /// ([`ShardMap::ranged`]) instead of the static hash, mount every group
    /// xshard-wrapped with its shard identity installed (the replica-side
    /// ownership gate), and reserve client 0 (`ADMIN_CLIENT`) of every
    /// group for reshard admin traffic. Required by [`Deployment::split`].
    pub elastic: bool,
    /// Closed-loop cross-shard transaction initiators (see
    /// [`crate::xshard`]). Each gets one agent client on every group,
    /// mounted after the `base.num_clients` ones, so concurrent
    /// transactions never contend for a client slot. Any initiator forces
    /// `base.xshard` on.
    pub initiators: usize,
    /// How long a transaction waits for all votes before deciding abort.
    pub prepare_timeout: SimDuration,
    /// How long the decide and finish phases wait before giving up on
    /// unreachable groups (the transaction outcome is already determined).
    pub finish_timeout: SimDuration,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec {
            shards: 1,
            base: ClusterSpec::default(),
            elastic: false,
            initiators: 0,
            prepare_timeout: SimDuration::from_millis(100),
            finish_timeout: SimDuration::from_millis(200),
        }
    }
}

/// What a completed [`Deployment::split`] did.
#[derive(Debug, Clone)]
pub struct SplitReport {
    /// The routing-level plan (source, target, moved span, next map).
    pub plan: SplitPlan,
    /// Payload bytes handed from source to target.
    pub moved_bytes: usize,
    /// Virtual time from hold to router cutover.
    pub handoff: SimDuration,
}

/// The stored workload template, replayed onto groups born by later
/// splits so new shards receive offered load too.
struct WorkloadTemplate {
    /// Open-loop pace; `None` = closed loop.
    pace: Option<SimDuration>,
    make_gen: Rc<RefCell<dyn FnMut(usize, usize) -> KeyedOpGen>>,
}

/// A running deployment: N [`Cluster`]s sharing one virtual clock, a
/// router over them, and the cross-shard transaction driver. One group
/// with no initiators is the single-group testbed; the scenario engine and
/// the adversaries drive every shape through this one type.
///
/// All time-advancing methods move every group in lockstep
/// ([`simnet::run_lockstep`]), so cross-group aggregates (completed
/// requests, throughput windows) compare like-for-like instants.
///
/// Every group, including one born by a split, runs the engine
/// `base.cfg.engine` names.
pub struct Deployment {
    pub(crate) router: ShardRouter,
    pub(crate) groups: Vec<Cluster>,
    pub(crate) router_metrics: Rc<RefCell<RouterMetrics>>,
    base: ClusterSpec,
    elastic: bool,
    make_cluster: Box<dyn FnMut(usize, ClusterSpec) -> Cluster>,
    workload: Option<WorkloadTemplate>,
    admin_seq: u64,
    pub(crate) driver: TxDriver,
}

impl Deployment {
    /// Build `spec.shards` groups and align their clocks.
    pub fn build(spec: DeploymentSpec) -> Deployment {
        Self::build_with(spec, |_, gspec| Cluster::build(gspec))
    }

    /// [`Deployment::build`] with a per-group cluster factory — the hook
    /// for mounting faulty replicas in selected groups (the factory
    /// receives the shard index and the seed-decorrelated group spec, and
    /// typically calls [`Cluster::build`] or
    /// [`crate::byzantine::build_faulty_cluster`]). The factory is retained:
    /// splits use it to boot the target group, so it must own its captures
    /// (`'static`).
    pub fn build_with(
        spec: DeploymentSpec,
        make_cluster: impl FnMut(usize, ClusterSpec) -> Cluster + 'static,
    ) -> Deployment {
        assert!(spec.shards > 0, "a deployment needs at least one shard");
        let map = if spec.elastic {
            ShardMap::ranged(spec.shards as u32)
        } else {
            ShardMap::new(spec.shards as u32)
        };
        let driver = TxDriver::new(&spec);
        let mut base = spec.base;
        base.num_clients += spec.initiators;
        base.xshard |= spec.initiators > 0;
        let mut make_cluster: Box<dyn FnMut(usize, ClusterSpec) -> Cluster> =
            Box::new(make_cluster);
        let groups: Vec<Cluster> = (0..spec.shards)
            .map(|s| make_cluster(s, group_spec(&base, spec.elastic.then_some(map), s)))
            .collect();
        let mut deployment = Deployment {
            router: ShardRouter::from_map(map),
            groups,
            router_metrics: Rc::new(RefCell::new(RouterMetrics::default())),
            base,
            elastic: spec.elastic,
            make_cluster,
            workload: None,
            admin_seq: 0,
            driver,
        };
        deployment
            .router_metrics
            .borrow_mut()
            .observe_epoch(map.epoch(), map.shards() as usize);
        // Group builds settle independently (joins may take a different
        // number of rounds per seed); advance stragglers to the latest
        // clock so the lockstep invariant holds from here on.
        let horizon = deployment
            .groups
            .iter()
            .map(|g| g.sim.now())
            .max()
            .expect("non-empty");
        for g in &mut deployment.groups {
            g.sim.run_until(horizon);
        }
        deployment
    }

    /// The router of this deployment.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Is this an elastic (range-partitioned, splittable) deployment?
    pub fn is_elastic(&self) -> bool {
        self.elastic
    }

    /// Number of groups.
    pub fn shards(&self) -> usize {
        self.groups.len()
    }

    /// One group's cluster.
    pub fn group(&self, shard: usize) -> &Cluster {
        &self.groups[shard]
    }

    /// One group's cluster, mutably (fault injection per shard).
    pub fn group_mut(&mut self, shard: usize) -> &mut Cluster {
        &mut self.groups[shard]
    }

    /// Current shared virtual time.
    pub fn now(&self) -> SimTime {
        self.groups[0].sim.now()
    }

    /// Route an operation through the deployment's router, recording the
    /// outcome in [`RouterMetrics`].
    pub fn route(&self, op: &KeyedOp) -> Result<usize, RouteError> {
        let verdict = self.router.route(op);
        let mut m = self.router_metrics.borrow_mut();
        m.observe_epoch(self.router.epoch(), self.router.shards());
        m.record(&verdict);
        verdict
    }

    /// Counters accumulated by [`Deployment::route`], the workload adapters
    /// installed by [`Deployment::start_keyed_workload`] and the
    /// `WrongEpoch` retries of the request and transaction paths.
    pub fn router_metrics(&self) -> RouterMetrics {
        self.router_metrics.borrow().clone()
    }

    /// Install `map` carried by a `WrongEpoch` rejection on the router and
    /// count the retry it resolves.
    pub(crate) fn note_epoch_retry(&self, map: ShardMap) {
        self.router_metrics.borrow_mut().epoch_retries += 1;
        self.router.install(map);
    }

    /// The background-workload clients of every group: all of them but the
    /// elastic admin client and the transaction agents.
    pub(crate) fn workload_clients(&self) -> std::ops::Range<usize> {
        let lo = if self.elastic { ADMIN_CLIENT + 1 } else { 0 };
        lo..self.driver.first_agent
    }

    /// Install a keyed workload on the workload clients of every group
    /// (every client except the elastic admin client and the transaction
    /// agents).
    ///
    /// `make_gen(shard, client)` produces the client's keyed stream. Each
    /// client rejection-samples its stream through the router: operations
    /// whose keys belong to another group are skipped (counted in
    /// [`RouterMetrics::skipped_foreign`] — in a real deployment that
    /// client-side router would hand them to a connection of the owning
    /// group), and cross-shard operations are rejected and counted in
    /// [`RouterMetrics::rejected_cross_shard`].
    ///
    /// The generator factory is retained: a later [`Deployment::split`]
    /// replays it onto the newborn group's clients so the new shard
    /// receives offered load too.
    ///
    /// # Panics
    /// Panics (at pump time) if a generator yields 100 000 consecutive
    /// operations that don't route to its shard — a mis-partitioned
    /// workload would otherwise spin the closed loop forever.
    pub fn start_keyed_workload(
        &mut self,
        make_gen: impl FnMut(usize, usize) -> KeyedOpGen + 'static,
    ) {
        self.install_template(None, make_gen);
    }

    /// The **open-loop** counterpart of [`Deployment::start_keyed_workload`]:
    /// every workload client of every group issues one routable operation
    /// per `pace` interval (see [`Cluster::start_paced_workload`] for the
    /// slot semantics). Fault scenarios use this so offered load stays
    /// constant while groups degrade. Retained for split replay like the
    /// closed-loop variant.
    pub fn start_paced_keyed_workload(
        &mut self,
        pace: SimDuration,
        make_gen: impl FnMut(usize, usize) -> KeyedOpGen + 'static,
    ) {
        self.install_template(Some(pace), make_gen);
    }

    /// Store the template and install it on every existing group.
    fn install_template(
        &mut self,
        pace: Option<SimDuration>,
        make_gen: impl FnMut(usize, usize) -> KeyedOpGen + 'static,
    ) {
        let template = WorkloadTemplate {
            pace,
            make_gen: Rc::new(RefCell::new(make_gen)),
        };
        for s in 0..self.groups.len() {
            self.install_template_on_group(&template, s);
        }
        self.workload = Some(template);
    }

    /// Install the template's generators on one group's workload clients.
    fn install_template_on_group(&mut self, template: &WorkloadTemplate, shard: usize) {
        let indices: Vec<usize> = self.workload_clients().collect();
        let router = self.router.clone();
        let elastic = self.elastic;
        let metrics = Rc::clone(&self.router_metrics);
        let make_gen = Rc::clone(&template.make_gen);
        let install = |client: usize| {
            adapt_keyed(
                router.clone(),
                Rc::clone(&metrics),
                elastic,
                shard,
                (make_gen.borrow_mut())(shard, client),
            )
        };
        match template.pace {
            Some(pace) => self.groups[shard].start_paced_workload_on(&indices, pace, install),
            None => self.groups[shard].start_workload_on(&indices, install),
        }
    }

    /// Advance all groups in lockstep by `d` of shared virtual time. With
    /// transaction initiators the clock moves in [`TX_POLL_INTERVAL`]
    /// slices and the driver is pumped after each; without, it is one
    /// lockstep call.
    pub fn run_for(&mut self, d: SimDuration) {
        if !self.driver.is_active() {
            self.lockstep(d);
            return;
        }
        let mut left = d.as_nanos();
        while left > 0 {
            let slice = TX_POLL_INTERVAL.as_nanos().min(left);
            self.lockstep(SimDuration::from_nanos(slice));
            left -= slice;
            self.pump();
        }
    }

    /// Advance every group by `d` without pumping the transaction driver —
    /// the clock of the admin and query paths, which read replies
    /// themselves.
    pub(crate) fn lockstep(&mut self, d: SimDuration) {
        run_lockstep(self.groups.iter_mut().map(|g| &mut g.sim), d);
    }

    /// Stop all traffic and drain: workload generators are removed, no new
    /// transactions are drawn, and the clock (and the driver, so in-flight
    /// transactions finish or time out) runs on for `drain`.
    pub fn quiesce(&mut self, drain: SimDuration) {
        for g in &mut self.groups {
            g.quiesce(SimDuration::ZERO);
        }
        self.workload = None;
        self.stop_transactions();
        self.run_for(drain);
    }

    /// Total completed requests across all groups.
    pub fn completed(&self) -> u64 {
        self.groups.iter().map(|g| g.completed()).sum()
    }

    /// Completed requests per group.
    pub fn per_shard_completed(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.completed()).collect()
    }

    /// Mean request latency (ms) across every completed request of every
    /// group — weighted by each group's completed count, so an imbalanced
    /// partition does not let a quiet shard's latency swamp the aggregate.
    pub fn mean_latency_ms(&self) -> f64 {
        let (mut total_ns, mut completed) = (0u64, 0u64);
        for g in &self.groups {
            for i in 0..g.clients.len() {
                let m = g.client_metrics(i);
                total_ns += m.total_latency_ns;
                completed += m.completed;
            }
        }
        if completed == 0 {
            0.0
        } else {
            total_ns as f64 / completed as f64 / 1e6
        }
    }

    /// Run `warmup`, then measure committed throughput over `window`
    /// (requests per second of shared virtual time), per shard and in
    /// aggregate.
    pub fn measure_throughput(
        &mut self,
        warmup: SimDuration,
        window: SimDuration,
    ) -> ShardedThroughput {
        self.run_for(warmup);
        let base = self.per_shard_completed();
        self.run_for(window);
        let per_shard_tps: Vec<f64> = self
            .per_shard_completed()
            .iter()
            .zip(&base)
            .map(|(now, then)| (now - then) as f64 / window.as_secs_f64())
            .collect();
        ShardedThroughput { per_shard_tps }
    }

    /// Are all replicas' states digest-identical *within every group*,
    /// including the xshard section? (Safety holds per group; groups
    /// legitimately diverge from each other — they serve disjoint key
    /// spaces.) The region digest already covers the section — the 2PC
    /// tables are ordinary Merkle-covered pages — but the per-section
    /// comparison is kept explicit so a lock/stage/decision divergence is
    /// reported even if the region comparison were ever relaxed.
    pub fn states_converged(&mut self) -> bool {
        let sec = pbft_xshard::xshard::xshard_section();
        self.groups.iter_mut().all(|g| {
            let all: Vec<usize> = (0..g.spec().cfg.n()).collect();
            if !g.states_converged(&all) {
                return false;
            }
            let mut images: Vec<Vec<u8>> = Vec::new();
            for replica in all.iter().filter_map(|&i| g.replica(i)) {
                let mut image = vec![0u8; sec.len as usize];
                if sec
                    .read(&replica.state_handle().borrow(), 0, &mut image)
                    .is_err()
                {
                    return false; // region too small to hold the section
                }
                images.push(image);
            }
            images.windows(2).all(|w| w[0] == w[1])
        })
    }

    // ----- elastic resharding -------------------------------------------

    /// **Live shard split.** Splits `source`'s widest hash range and moves
    /// its upper half to a freshly booted group, while the installed
    /// workload keeps running everywhere else:
    ///
    /// 1. hold the moving span on the router (paced load steers around it;
    ///    in-flight operations drain for `SPLIT_DRAIN` (10 ms));
    /// 2. commit an ordered [`XMsg::Reshard`] on the source — from that
    ///    operation on, every source replica rejects the moved keys with
    ///    `WrongEpoch`;
    /// 3. export the moved records from the source's attested snapshot
    ///    (`moved_spans` maps the plan to byte spans — an application-layout
    ///    concern; see [`kv_moved_spans`]) via [`RangeExport`], verifying
    ///    every touched page against the snapshot tree;
    /// 4. boot the target group, born under the post-split map (its
    ///    identity rides [`ClusterSpec::shard_identity`]), and clock-align
    ///    it with the running groups;
    /// 5. commit an ordered [`XMsg::RangeInstall`] carrying the export on
    ///    the target;
    /// 6. commit the [`XMsg::Reshard`] on every remaining group;
    /// 7. install the new map on the router, clear the hold, and replay the
    ///    stored workload template onto the newborn group;
    /// 8. pump the transaction driver once: a prepare that raced the split
    ///    and landed on a shard that no longer owns its keys comes back
    ///    `WrongEpoch`, which the driver records as a no-vote and answers by
    ///    installing the carried map — so atomicity holds across the epoch
    ///    boundary and the aborted transaction's successors re-route.
    ///
    /// # Panics
    /// Panics if the deployment is not elastic, if the routing-level split
    /// itself is impossible (see [`ShardMap::split`]), or if any admin
    /// operation fails to commit within the reply bound.
    pub fn split(
        &mut self,
        source: usize,
        moved_spans: impl Fn(&PagedState, &SplitPlan) -> Vec<(u64, usize)>,
    ) -> SplitReport {
        assert!(
            self.elastic,
            "split needs an elastic deployment (DeploymentSpec::elastic)"
        );
        let started = self.groups[0].sim.now();
        let plan = self.router.map().split(source as u32);

        // 1. Steer new load around the moving span, drain what's in flight.
        self.router.hold(Some((plan.moved_lo, plan.moved_hi)));
        self.lockstep(SPLIT_DRAIN);

        // 2. The source flips first: after this ordered operation commits,
        //    no write to the moved span can ever commit on the source again,
        //    so the snapshot taken below is the range's final word.
        let reply = self.admin_commit(source, |txid| XMsg::Reshard {
            txid,
            map: plan.new_map,
        });
        assert_eq!(
            reply,
            XReply::Resharded {
                txid: reply_txid(&reply),
                epoch: plan.new_map.epoch()
            },
            "source group must install the new epoch"
        );

        // 3. Export the moved records under the snapshot's own tree.
        let export = {
            let replica = self.groups[source]
                .replica(0)
                .expect("source replica 0 alive for export");
            let handle = replica.state_handle();
            let mut st = handle.borrow_mut();
            st.refresh_digest();
            let spans = moved_spans(&st, &plan);
            let snap = st.snapshot(0);
            RangeExport::extract(&snap, spans).expect("attested snapshot exports cleanly")
        };
        let moved_bytes = export.len();

        // 4. Boot the target group under the new epoch and align clocks.
        let target = plan.target as usize;
        assert_eq!(target, self.groups.len(), "groups are appended in order");
        let gspec = group_spec(&self.base, Some(plan.new_map), target);
        let mut newborn = (self.make_cluster)(target, gspec);
        let horizon = self.groups[0].sim.now();
        newborn.sim.run_until(horizon);
        self.groups.push(newborn);

        // 5. Hand the range over (ordered + idempotent on the target).
        let reply = self.admin_commit(target, |txid| XMsg::RangeInstall {
            txid,
            chunks: export.chunks.clone(),
        });
        assert!(
            matches!(reply, XReply::Committed { .. }),
            "range install must commit, got {reply:?}"
        );

        // 6. Flip the bystander groups (idempotent, any order).
        for shard in 0..self.groups.len() - 1 {
            if shard == source {
                continue;
            }
            let reply = self.admin_commit(shard, |txid| XMsg::Reshard {
                txid,
                map: plan.new_map,
            });
            assert!(
                matches!(reply, XReply::Resharded { epoch, .. } if epoch >= plan.new_map.epoch()),
                "group {shard} must acknowledge the new epoch, got {reply:?}"
            );
        }

        // 7. Cut the routers over and release the held span.
        self.router.install(plan.new_map);
        self.router.hold(None);
        self.router_metrics
            .borrow_mut()
            .observe_epoch(plan.new_map.epoch(), self.groups.len());
        if let Some(template) = self.workload.take() {
            self.install_template_on_group(&template, target);
            self.workload = Some(template);
        }
        let handoff = self.now() - started;

        // 8. Drain the WrongEpoch rejections the hand-off produced before
        //    the caller resumes the run loop.
        self.pump();
        SplitReport {
            plan,
            moved_bytes,
            handoff,
        }
    }

    /// [`Deployment::split`] with the moved-span mapping derived from
    /// the deployment's application kind: KV slots move with their keys
    /// (see [`kv_moved_spans`]); app kinds without per-key state move no
    /// application bytes — ownership still flips, which is all their
    /// workloads observe. This is the hook the scenario engine's
    /// [`Reshard`](crate::scenario::ScenarioEvent::Reshard) event fires.
    pub fn split_auto(&mut self, source: usize) -> SplitReport {
        match self.base.app {
            AppKind::Kv { slots } => self.split(source, kv_moved_spans(slots)),
            _ => self.split(source, |_, _| Vec::new()),
        }
    }

    /// Submit an epoch-checked operation ([`XMsg::KeyedOp`]) for `keys` and
    /// return the inner application's reply. A `WrongEpoch` rejection is
    /// resolved the way a real client library would: install the newer map
    /// the rejection carries, re-route, retry — counted in
    /// [`RouterMetrics::epoch_retries`]. The ground-truth key sweeps of the
    /// resharding suites are built on this.
    ///
    /// # Panics
    /// Panics if the keys span groups, if no reply arrives within the
    /// bound, or if the epoch chase fails to converge.
    pub fn keyed_request(&mut self, keys: Vec<Vec<u8>>, op: Vec<u8>, read_only: bool) -> Vec<u8> {
        for _ in 0..8 {
            let shard = self
                .router
                .map()
                .route(&keys)
                .expect("keyed requests are single-group") as usize;
            match self.probe_ownership(shard, keys.clone(), op.clone(), read_only) {
                Err(map) => self.note_epoch_retry(map),
                Ok(reply) => return reply,
            }
        }
        panic!("epoch retry did not converge in 8 rounds");
    }

    /// Ask group `shard` directly whether it owns `keys` under its
    /// installed epoch: `Ok(reply)` when it executed the probe, `Err(map)`
    /// with the group's map when it answered `WrongEpoch`. The
    /// double-ownership audit sweeps every group with this; with
    /// `read_only` the probe rides the §2.1 optimistic read path (no
    /// agreement), so `Err(map)` means the group's *read* gate rejected the
    /// key — the read-side epoch audit of the resharding suites.
    // The Err carries the rejecting group's (`Copy`) map by value, like the
    // wire reply it unwraps — a test-audit path, not a hot one.
    #[allow(clippy::result_large_err)]
    pub fn probe_ownership(
        &mut self,
        shard: usize,
        keys: Vec<Vec<u8>>,
        op: Vec<u8>,
        read_only: bool,
    ) -> Result<Vec<u8>, ShardMap> {
        let framed = XMsg::KeyedOp {
            txid: PROBE_TX,
            keys,
            op,
        }
        .encode();
        self.groups[shard].client_submit(ADMIN_CLIENT, framed, read_only);
        let reply = self.await_reply(shard, |_| true);
        match XReply::decode(&reply) {
            Some(XReply::WrongEpoch { map, .. }) => Err(map),
            _ => Ok(reply),
        }
    }

    /// Commit one admin operation (built from a fresh admin txid) on group
    /// `shard` via the reserved admin client, advancing every group in
    /// lockstep until the matching [`XReply`] arrives.
    fn admin_commit(&mut self, shard: usize, build: impl FnOnce(TxId) -> XMsg) -> XReply {
        self.admin_seq += 1;
        let txid = ADMIN_TX_STRIPE | self.admin_seq;
        let msg = build(txid);
        self.groups[shard].client_submit(ADMIN_CLIENT, msg.encode(), false);
        let bytes = self.await_reply(shard, |r| {
            XReply::decode(r).is_some_and(|reply| reply.txid() == txid)
        });
        XReply::decode(&bytes).expect("matched replies decode")
    }

    /// Advance lockstep until the admin client of `shard` delivers a reply
    /// `accept`s; returns its bytes.
    fn await_reply(&mut self, shard: usize, accept: impl Fn(&[u8]) -> bool) -> Vec<u8> {
        for _ in 0..REPLY_TIMEOUT_SLICES {
            self.lockstep(REPLY_SLICE);
            for ev in self.groups[shard].take_client_events(ADMIN_CLIENT) {
                if let ClientEvent::ReplyDelivered { result, .. } = ev {
                    if accept(&result) {
                        return result;
                    }
                }
            }
        }
        panic!("no admin reply from group {shard} within the bound");
    }
}

/// Derive one group's [`ClusterSpec`] from the deployment template:
/// seed-decorrelated, and (for elastic deployments) xshard-wrapped with the
/// group's shard identity installed.
fn group_spec(base: &ClusterSpec, identity_map: Option<ShardMap>, s: usize) -> ClusterSpec {
    let mut gspec = base.clone();
    gspec.seed = base.seed.wrapping_add(s as u64 * SHARD_SEED_STRIDE);
    if let Some(map) = identity_map {
        gspec.xshard = true;
        gspec.shard_identity = Some((s as u32, map));
    }
    gspec
}

/// Map a [`SplitPlan`] to the byte spans of the moved records under the
/// standard [`KvApp`](pbft_core::app::KvApp) slot layout (16-byte records
/// at [`APP_PARTITION_BASE`], each storing its big-endian key): every
/// occupied slot whose stored key hashes into the moved span. The shard key
/// convention is the record's own 8 key bytes — the same bytes
/// [`crate::workload::keyed_kv_ops`] routes by.
pub fn kv_moved_spans(slots: u64) -> impl Fn(&PagedState, &SplitPlan) -> Vec<(u64, usize)> {
    move |st, plan| {
        let mut spans = Vec::new();
        for slot in 0..slots {
            let off = APP_PARTITION_BASE + slot * 16;
            let rec = st.read_vec(off, 16).expect("slot inside the region");
            if rec.iter().all(|&b| b == 0) {
                continue; // never written
            }
            if plan.moves(&rec[..8]) {
                spans.push((off, 16usize));
            }
        }
        spans
    }
}

/// Rejection-sample a keyed stream into shard `s`'s raw [`OpGen`]: ops owned
/// by another group are skipped (counted `skipped_foreign`), ops whose key
/// is mid-hand-off are skipped (counted `held_back`), unroutable ops are
/// counted by kind, and a stream that never feeds the shard panics after
/// [`STARVATION_LIMIT`] consecutive misses. The router is sampled fresh on
/// every draw, so an epoch flip re-routes the stream immediately. In
/// elastic deployments the op is framed as an epoch-checked
/// [`XMsg::KeyedOp`], so a stale submission is *rejected by the replicas*
/// (`WrongEpoch`) rather than silently executed by a group that no longer
/// owns the key.
fn adapt_keyed(
    router: ShardRouter,
    metrics: Rc<RefCell<RouterMetrics>>,
    elastic: bool,
    s: usize,
    mut gen: KeyedOpGen,
) -> OpGen {
    let mut next = 0u64;
    Box::new(move |_| {
        let mut misses = 0u32;
        loop {
            let keyed = gen(next);
            next += 1;
            let held = keyed.keys.iter().any(|k| router.is_held(k));
            let verdict = router.route(&keyed);
            {
                let mut m = metrics.borrow_mut();
                m.observe_epoch(router.epoch(), router.shards());
                match (&verdict, held) {
                    (Ok(_), true) => m.held_back += 1,
                    (Ok(home), false) if *home == s => {
                        m.record(&verdict);
                        drop(m);
                        let op = if elastic {
                            XMsg::KeyedOp {
                                txid: PROBE_TX,
                                keys: keyed.keys,
                                op: keyed.op,
                            }
                            .encode()
                        } else {
                            keyed.op
                        };
                        return (op, keyed.read_only);
                    }
                    (Ok(_), false) => m.skipped_foreign += 1,
                    (Err(e), _) => m.record(&Err(e.clone())),
                }
            }
            misses += 1;
            assert!(
                misses < STARVATION_LIMIT,
                "keyed workload starved shard {s}: no routable op in \
                 {STARVATION_LIMIT} draws"
            );
        }
    })
}

/// The txid carried by a reply (helper for assertion messages).
fn reply_txid(reply: &XReply) -> TxId {
    reply.txid()
}

/// A throughput measurement over a sharded deployment.
#[derive(Debug, Clone)]
pub struct ShardedThroughput {
    /// Committed requests per second of virtual time, per shard.
    pub per_shard_tps: Vec<f64>,
}

impl ShardedThroughput {
    /// Aggregate committed throughput: the sum over groups (valid because
    /// every group was measured over the same shared-clock window).
    pub fn aggregate_tps(&self) -> f64 {
        self.per_shard_tps.iter().sum()
    }

    /// Mean ± std-dev of the per-shard throughput — the balance view: a
    /// large deviation means the partition or the workload is skewed.
    pub fn balance(&self) -> Stats {
        Stats::from_samples(&self.per_shard_tps)
    }

    /// Scaling efficiency against a single-group baseline: aggregate TPS
    /// divided by `shards × baseline`. 1.0 is perfectly linear scaling.
    pub fn scaling_efficiency(&self, single_shard_baseline_tps: f64) -> f64 {
        let ideal = self.per_shard_tps.len() as f64 * single_shard_baseline_tps;
        if ideal == 0.0 {
            0.0
        } else {
            self.aggregate_tps() / ideal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AppKind;
    use crate::workload::{keyed_kv_ops, keyed_null_ops};
    use pbft_core::app::KvApp;

    #[test]
    fn sharded_build_aligns_clocks() {
        let spec = DeploymentSpec {
            shards: 3,
            base: ClusterSpec {
                num_clients: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let sc = Deployment::build(spec);
        let now = sc.group(0).sim.now();
        assert!((1..3).all(|s| sc.group(s).sim.now() == now));
    }

    #[test]
    fn keyed_workload_routes_and_completes_on_every_shard() {
        let spec = DeploymentSpec {
            shards: 2,
            base: ClusterSpec {
                num_clients: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sc = Deployment::build(spec);
        sc.start_keyed_workload(|shard, client| keyed_null_ops(128, (shard * 100 + client) as u64));
        let t = sc.measure_throughput(SimDuration::from_millis(200), SimDuration::from_millis(500));
        assert!(
            t.per_shard_tps.iter().all(|&tps| tps > 100.0),
            "{:?}",
            t.per_shard_tps
        );
        let m = sc.router_metrics();
        assert!(m.routed > 0);
        assert!(
            m.skipped_foreign > 0,
            "uniform keys must sometimes route away"
        );
        assert_eq!(m.rejected_cross_shard, 0);
        assert_eq!(
            m.routed_this_epoch.iter().sum::<u64>(),
            m.routed,
            "epoch 0 counters cover the whole run"
        );
        sc.quiesce(SimDuration::from_millis(500));
        assert!(sc.states_converged());
    }

    #[test]
    fn route_counts_cross_shard_rejections() {
        let sc = Deployment::build(DeploymentSpec {
            shards: 8,
            base: ClusterSpec {
                num_clients: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        // Find two keys owned by different groups.
        let router = sc.router().clone();
        let k0 = b"alpha".to_vec();
        let foreign = (0..64u64)
            .map(|i| i.to_be_bytes().to_vec())
            .find(|k| router.route_key(k) != router.route_key(&k0))
            .expect("some key routes elsewhere");
        let bad = KeyedOp {
            keys: vec![k0.clone(), foreign],
            op: vec![1],
            read_only: false,
        };
        assert!(matches!(sc.route(&bad), Err(RouteError::CrossShard { .. })));
        let ok = KeyedOp {
            keys: vec![k0],
            op: vec![2],
            read_only: false,
        };
        assert!(sc.route(&ok).is_ok());
        let keyless = KeyedOp {
            keys: vec![],
            op: vec![3],
            read_only: false,
        };
        assert_eq!(sc.route(&keyless), Err(RouteError::NoKeys));
        let m = sc.router_metrics();
        assert_eq!(
            (m.routed, m.rejected_cross_shard, m.rejected_keyless),
            (1, 1, 1),
            "each rejection lands in its own counter"
        );
    }

    #[test]
    fn scaling_efficiency_is_aggregate_over_ideal() {
        let t = ShardedThroughput {
            per_shard_tps: vec![900.0, 1000.0, 1100.0, 1000.0],
        };
        assert!((t.aggregate_tps() - 4000.0).abs() < 1e-9);
        assert!(
            (t.scaling_efficiency(1000.0) - 1.0).abs() < 1e-9,
            "linear scaling is 1.0"
        );
        assert!((t.scaling_efficiency(2000.0) - 0.5).abs() < 1e-9);
        assert_eq!(t.scaling_efficiency(0.0), 0.0, "zero baseline guarded");
    }

    #[test]
    fn live_split_moves_keys_without_loss_or_double_ownership() {
        const SLOTS: u64 = 64;
        let mut sc = Deployment::build(DeploymentSpec {
            shards: 2,
            base: ClusterSpec {
                app: AppKind::Kv { slots: SLOTS },
                num_clients: 3,
                ..Default::default()
            },
            elastic: true,
            ..Default::default()
        });
        // Seed ground-truth keys through the epoch-checked request path.
        for key in 0..SLOTS {
            let reply = sc.keyed_request(
                vec![key.to_be_bytes().to_vec()],
                KvApp::op_put(key, 1000 + key),
                false,
            );
            assert_eq!(reply, b"ok");
        }
        // Paced background load keeps flowing across the split.
        sc.start_paced_keyed_workload(SimDuration::from_millis(4), |shard, client| {
            keyed_kv_ops(SLOTS, (shard * 100 + client) as u64 + 1)
        });
        sc.run_for(SimDuration::from_millis(50));

        let report = sc.split(0, kv_moved_spans(SLOTS));
        assert_eq!(sc.shards(), 3);
        assert_eq!(sc.router().epoch(), 1);
        assert!(report.moved_bytes > 0, "a populated span moved records");

        sc.run_for(SimDuration::from_millis(100));
        sc.quiesce(SimDuration::from_millis(300));

        // Ground truth: every seeded key is owned exactly once, and its
        // owner (under the post-split map) still serves a value for it —
        // the background load may have overwritten values, but a lost or
        // unmoved record would read back all-zero on the new owner.
        for key in 0..SLOTS {
            let kb = key.to_be_bytes().to_vec();
            let owner = sc.router().route_key(&kb);
            let mut owners = 0;
            for shard in 0..sc.shards() {
                match sc.probe_ownership(shard, vec![kb.clone()], KvApp::op_get(key), false) {
                    Ok(rec) => {
                        owners += 1;
                        assert_eq!(shard, owner, "only the router's owner serves key {key}");
                        assert_eq!(
                            u64::from_be_bytes(rec[..8].try_into().expect("record")),
                            key,
                            "owner holds the record for key {key}"
                        );
                    }
                    Err(map) => assert_eq!(map.epoch(), 1, "rejections carry the new map"),
                }
            }
            assert_eq!(owners, 1, "key {key} must be owned exactly once");
        }
        assert!(sc.states_converged());
        let m = sc.router_metrics();
        assert_eq!(m.epoch, 1, "metrics follow the router's epoch");
        assert_eq!(m.routed_this_epoch.len(), 3);
    }

    /// The engine is a configuration value, so every path that builds a
    /// replica after the first must read it from the spec: a blank
    /// restart, a restart from disk, a proactive recovery (and the
    /// split-brain twin it re-provisions), and a group born by a split.
    fn assert_rebuilds_keep_engine(engine: pbft_core::Engine) {
        use crate::byzantine::{build_adversary_cluster, FaultyReplicaHost};

        const SEAT: usize = 1;
        let mut base = ClusterSpec {
            num_clients: 1,
            ..Default::default()
        };
        base.cfg.engine = engine;
        base.cfg.checkpoint_interval = 32;
        let spec = DeploymentSpec {
            shards: 2,
            base,
            elastic: true,
            ..Default::default()
        };
        let mut sc = Deployment::build_with(spec, |shard, gspec| {
            if shard == 0 {
                build_adversary_cluster(gspec, SEAT as u32)
            } else {
                Cluster::build(gspec)
            }
        });
        sc.run_for(SimDuration::from_millis(100));
        sc.group_mut(0).crash_replica(2);
        sc.group_mut(1).crash_replica(3);
        sc.run_for(SimDuration::from_millis(100));
        sc.group_mut(0).restart_replica(2, false);
        sc.group_mut(1).restart_replica(3, true);
        sc.run_for(SimDuration::from_secs(1));
        sc.group_mut(0).proactive_recover(SEAT);
        sc.run_for(SimDuration::from_secs(1));
        sc.split_auto(0);
        assert_eq!(sc.shards(), 3, "the split appended a group");

        let linear = engine == pbft_core::Engine::Linear;
        for shard in 0..sc.shards() {
            let group = sc.group(shard);
            for member in 0..group.replicas.len() {
                let host = group
                    .sim
                    .node_ref::<FaultyReplicaHost>(group.replicas[member])
                    .expect("every member is live");
                let twins = if (shard, member) == (0, SEAT) { 2 } else { 1 };
                assert_eq!(host.engines.len(), twins, "group {shard} member {member}");
                for replica in &host.engines {
                    assert_eq!(
                        replica.is_linear(),
                        linear,
                        "{engine:?}: group {shard} member {member} runs the wrong engine"
                    );
                }
            }
        }
    }

    #[test]
    fn every_rebuild_path_keeps_the_linear_engine() {
        assert_rebuilds_keep_engine(pbft_core::Engine::Linear);
    }

    #[test]
    fn every_rebuild_path_keeps_the_pbft_engine() {
        assert_rebuilds_keep_engine(pbft_core::Engine::Pbft);
    }

    #[test]
    fn split_panics_on_static_deployments() {
        let mut sc = Deployment::build(DeploymentSpec {
            shards: 2,
            base: ClusterSpec {
                num_clients: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.split(0, |_, _| Vec::new());
        }))
        .expect_err("static deployments cannot split");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("elastic"), "got: {msg}");
    }
}
