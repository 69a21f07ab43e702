//! The discrete-event simulator.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::link::LinkParams;
use crate::node::{Action, Node, NodeCtx, NodeId, PacketBuf, TimerId};
use crate::rng::SimRng;
use crate::stats::NodeStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEntry, TraceEvent};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all stochastic decisions (loss, jitter).
    pub seed: u64,
    /// Link parameters used where no per-pair override is installed.
    pub default_link: LinkParams,
    /// Record a message trace (see [`TraceEntry`]).
    pub trace: bool,
    /// Maximum trace entries kept (oldest kept; recording stops at the cap).
    pub trace_cap: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            default_link: LinkParams::default(),
            trace: false,
            trace_cap: 1_000_000,
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        src: NodeId,
        dst: NodeId,
        payload: PacketBuf,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        gen: u64,
        incarnation: u64,
    },
}

struct EventEntry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct NodeSlot {
    node: Option<Box<dyn Node>>,
    alive: bool,
    busy_until: SimTime,
    nic_free_at: SimTime,
    timer_gens: HashMap<TimerId, u64>,
    incarnation: u64,
}

/// The deterministic discrete-event simulator. See the crate docs.
pub struct Simulator {
    cfg: SimConfig,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<EventEntry>>,
    nodes: Vec<NodeSlot>,
    links: HashMap<(NodeId, NodeId), LinkParams>,
    rng: SimRng,
    trace: Vec<TraceEntry>,
    stats: Vec<NodeStats>,
}

impl Simulator {
    /// Create a simulator.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = SimRng::new(cfg.seed);
        Simulator {
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            rng,
            trace: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node; its `on_start` runs immediately at the current time.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            node: Some(node),
            alive: true,
            busy_until: self.now,
            nic_free_at: self.now,
            timer_gens: HashMap::new(),
            incarnation: 0,
        });
        self.stats.push(NodeStats::default());
        self.invoke(id, |n, ctx| n.on_start(ctx));
        id
    }

    /// Install a directed link override from `src` to `dst`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, params: LinkParams) {
        self.links.insert((src, dst), params);
    }

    /// Replace the default link parameters (applies to pairs without
    /// overrides, including nodes added later).
    pub fn set_default_link(&mut self, params: LinkParams) {
        self.cfg.default_link = params;
    }

    /// Sever connectivity between two groups (sets loss = 1 both ways).
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                let mut p = self.link_params(a, b);
                p.loss = 1.0;
                self.set_link(a, b, p);
                let mut q = self.link_params(b, a);
                q.loss = 1.0;
                self.set_link(b, a, q);
            }
        }
    }

    /// Remove all per-pair link overrides (heals partitions).
    pub fn heal_all(&mut self) {
        self.links.clear();
    }

    fn link_params(&self, src: NodeId, dst: NodeId) -> LinkParams {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.cfg.default_link)
    }

    /// Crash a node: it stops receiving packets and all armed timers die.
    /// The node value is retained (see [`Simulator::take_node`]) so durable
    /// state can be salvaged for a restart.
    pub fn crash(&mut self, id: NodeId) {
        let slot = &mut self.nodes[id.0 as usize];
        slot.alive = false;
        slot.incarnation += 1;
        slot.timer_gens.clear();
    }

    /// Remove and return the node value (e.g. to extract its durable state
    /// after a crash). The address stays allocated; restart with
    /// [`Simulator::restart`].
    pub fn take_node(&mut self, id: NodeId) -> Option<Box<dyn Node>> {
        self.nodes[id.0 as usize].node.take()
    }

    /// Restart a crashed (or taken) node with a fresh value; `on_start` runs
    /// immediately. Pending deliveries addressed to this node id will be
    /// received by the new value.
    pub fn restart(&mut self, id: NodeId, node: Box<dyn Node>) {
        let slot = &mut self.nodes[id.0 as usize];
        slot.node = Some(node);
        slot.alive = true;
        slot.incarnation += 1;
        slot.timer_gens.clear();
        slot.busy_until = self.now;
        slot.nic_free_at = self.now;
        self.invoke(id, |n, ctx| n.on_start(ctx));
    }

    /// Borrow a node, downcast to its concrete type.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        let n = self.nodes[id.0 as usize].node.as_deref()?;
        (n as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow a node, downcast to its concrete type.
    ///
    /// Mutating a node between `run_*` calls is how harnesses inject work
    /// (e.g. telling a client to start its workload).
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let n = self.nodes[id.0 as usize].node.as_deref_mut()?;
        (n as &mut dyn Any).downcast_mut::<T>()
    }

    /// Run a closure against a node with a full [`NodeCtx`], so harness-level
    /// pokes can send packets / arm timers / charge cost like a handler.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx<'_>) -> R,
    ) -> Option<R> {
        let mut out = None;
        self.invoke(id, |n, ctx| {
            if let Some(t) = (n as &mut dyn Any).downcast_mut::<T>() {
                out = Some(f(t, ctx));
            }
        });
        out
    }

    /// Statistics for one node.
    pub fn stats(&self, id: NodeId) -> &NodeStats {
        &self.stats[id.0 as usize]
    }

    /// The recorded message trace (empty unless `cfg.trace`).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Drain the recorded trace.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        std::mem::take(&mut self.trace)
    }

    /// Process events until virtual time `t`; afterwards `now() == t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(Reverse(entry)) = self.queue.peek() {
            if entry.at > t {
                break;
            }
            let Reverse(entry) = self.queue.pop().expect("peeked");
            self.dispatch(entry);
        }
        self.now = t;
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(entry)) => {
                self.dispatch(entry);
                true
            }
            None => false,
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(EventEntry { at, seq, kind }));
    }

    fn record(&mut self, entry: TraceEntry) {
        if self.cfg.trace && self.trace.len() < self.cfg.trace_cap {
            self.trace.push(entry);
        }
    }

    fn dispatch(&mut self, entry: EventEntry) {
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = self.now.max(entry.at);
        match entry.kind {
            EventKind::Deliver { src, dst, payload } => {
                let idx = dst.0 as usize;
                if idx >= self.nodes.len()
                    || !self.nodes[idx].alive
                    || self.nodes[idx].node.is_none()
                {
                    let tag = payload.first().copied().unwrap_or(0);
                    self.record(TraceEntry {
                        at: self.now,
                        src,
                        dst,
                        size: payload.len(),
                        tag,
                        event: TraceEvent::DeadDestination,
                    });
                    if idx < self.stats.len() {
                        self.stats[idx].packets_to_dead_node += 1;
                    }
                    return;
                }
                // If the destination host is still busy, the datagram waits
                // in its socket buffer; re-queue at the busy horizon.
                let busy = self.nodes[idx].busy_until;
                if busy > self.now {
                    self.push_event(busy, EventKind::Deliver { src, dst, payload });
                    return;
                }
                self.stats[idx].packets_received += 1;
                self.stats[idx].bytes_received += payload.len() as u64;
                let tag = payload.first().copied().unwrap_or(0);
                self.record(TraceEntry {
                    at: self.now,
                    src,
                    dst,
                    size: payload.len(),
                    tag,
                    event: TraceEvent::Delivered,
                });
                self.invoke(dst, |n, ctx| n.on_packet(src, &payload, ctx));
            }
            EventKind::Timer {
                node,
                id,
                gen,
                incarnation,
            } => {
                let idx = node.0 as usize;
                let slot = &self.nodes[idx];
                if !slot.alive
                    || slot.node.is_none()
                    || slot.incarnation != incarnation
                    || slot.timer_gens.get(&id).copied() != Some(gen)
                {
                    return; // stale or cancelled
                }
                let busy = slot.busy_until;
                if busy > self.now {
                    self.push_event(
                        busy,
                        EventKind::Timer {
                            node,
                            id,
                            gen,
                            incarnation,
                        },
                    );
                    return;
                }
                self.stats[idx].timers_fired += 1;
                self.invoke(node, |n, ctx| n.on_timer(id, ctx));
            }
        }
    }

    /// Run a handler on a node and apply its actions and cost.
    fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let idx = id.0 as usize;
        let Some(mut node) = self.nodes[idx].node.take() else {
            return;
        };
        let mut ctx = NodeCtx {
            now: self.now,
            actions: Vec::new(),
            cost: SimDuration::ZERO,
            invocation: std::marker::PhantomData,
        };
        f(node.as_mut(), &mut ctx);
        let NodeCtx { actions, cost, .. } = ctx;
        self.nodes[idx].node = Some(node);

        // CPU accounting: the node is busy for `cost` after the handler runs.
        let run_end = self.now + cost;
        self.nodes[idx].busy_until = run_end;
        self.stats[idx].busy_time += cost;

        // Apply actions. Sends serialize on the NIC starting when the CPU
        // work completes.
        let mut depart_base = run_end.max(self.nodes[idx].nic_free_at);
        for action in actions {
            match action {
                Action::Send { dst, payload } => {
                    let params = self.link_params(id, dst);
                    let wire = params.wire_time(payload.len());
                    let leave = depart_base + wire;
                    depart_base = leave;
                    self.nodes[idx].nic_free_at = leave;
                    self.stats[idx].packets_sent += 1;
                    self.stats[idx].bytes_sent += payload.len() as u64;
                    let tag = payload.first().copied().unwrap_or(0);
                    let dropped = params.loss > 0.0 && self.rng.next_f64() < params.loss;
                    if dropped {
                        self.stats[idx].packets_dropped += 1;
                        self.record(TraceEntry {
                            at: leave,
                            src: id,
                            dst,
                            size: payload.len(),
                            tag,
                            event: TraceEvent::Dropped,
                        });
                        continue;
                    }
                    let jitter = if params.jitter.as_nanos() > 0 {
                        SimDuration::from_nanos(self.rng.next_below(params.jitter.as_nanos() + 1))
                    } else {
                        SimDuration::ZERO
                    };
                    let arrive = leave + params.latency + jitter;
                    self.record(TraceEntry {
                        at: leave,
                        src: id,
                        dst,
                        size: payload.len(),
                        tag,
                        event: TraceEvent::Sent,
                    });
                    self.push_event(
                        arrive,
                        EventKind::Deliver {
                            src: id,
                            dst,
                            payload,
                        },
                    );
                }
                Action::SetTimer { id: tid, delay } => {
                    let slot = &mut self.nodes[idx];
                    let gen = slot.timer_gens.entry(tid).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    let incarnation = slot.incarnation;
                    let at = self.now + delay;
                    self.push_event(
                        at,
                        EventKind::Timer {
                            node: id,
                            id: tid,
                            gen,
                            incarnation,
                        },
                    );
                }
                Action::CancelTimer { id: tid } => {
                    let slot = &mut self.nodes[idx];
                    if let Some(gen) = slot.timer_gens.get_mut(&tid) {
                        *gen += 1; // invalidates any queued firing
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test node: records deliveries, optionally charges CPU per packet,
    /// optionally echoes.
    struct Probe {
        delivered: Vec<(SimTime, Vec<u8>)>,
        charge: SimDuration,
        echo_to: Option<NodeId>,
        timer_fires: Vec<(SimTime, TimerId)>,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                delivered: Vec::new(),
                charge: SimDuration::ZERO,
                echo_to: None,
                timer_fires: Vec::new(),
            }
        }
    }

    impl Node for Probe {
        fn on_packet(&mut self, _src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
            self.delivered.push((ctx.now(), payload.to_vec()));
            ctx.charge(self.charge);
            if let Some(dst) = self.echo_to {
                ctx.send(dst, payload.to_vec());
            }
        }
        fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>) {
            self.timer_fires.push((ctx.now(), timer));
        }
    }

    struct Sender {
        dst: NodeId,
        count: usize,
    }
    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for i in 0..self.count {
                ctx.send(self.dst, vec![i as u8; 100]);
            }
        }
        fn on_packet(&mut self, _s: NodeId, _p: &[u8], _c: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, _t: TimerId, _c: &mut NodeCtx<'_>) {}
    }

    fn two_nodes(cfg: SimConfig) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(cfg);
        let probe = sim.add_node(Box::new(Probe::new()));
        let sender = sim.add_node(Box::new(Sender {
            dst: probe,
            count: 3,
        }));
        (sim, probe, sender)
    }

    #[test]
    fn delivery_happens_after_latency() {
        let (mut sim, probe, _) = two_nodes(SimConfig::default());
        sim.run_for(SimDuration::from_millis(5));
        let p: &Probe = sim.node_ref(probe).expect("probe");
        assert_eq!(p.delivered.len(), 3);
        // Latency is 70us + up to 10us jitter + wire time.
        assert!(p.delivered[0].0.as_micros() >= 70);
        assert!(p.delivered[0].0.as_micros() < 200);
    }

    #[test]
    fn busy_node_defers_deliveries() {
        let mut sim = Simulator::new(SimConfig::default());
        let probe_id = sim.add_node(Box::new(Probe::new()));
        sim.node_mut::<Probe>(probe_id).expect("probe").charge = SimDuration::from_millis(1);
        let _ = sim.add_node(Box::new(Sender {
            dst: probe_id,
            count: 3,
        }));
        sim.run_for(SimDuration::from_millis(20));
        let p: &Probe = sim.node_ref(probe_id).expect("probe");
        assert_eq!(p.delivered.len(), 3);
        // Each packet processed >= 1ms after the previous (CPU serialization).
        let d0 = p.delivered[0].0;
        let d1 = p.delivered[1].0;
        let d2 = p.delivered[2].0;
        assert!((d1 - d0).as_micros() >= 1000, "{d0} {d1}");
        assert!((d2 - d1).as_micros() >= 1000, "{d1} {d2}");
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut cfg = SimConfig::default();
        cfg.default_link.loss = 1.0;
        cfg.trace = true;
        let (mut sim, probe, sender) = two_nodes(cfg);
        sim.run_for(SimDuration::from_millis(5));
        let p: &Probe = sim.node_ref(probe).expect("probe");
        assert!(p.delivered.is_empty());
        assert_eq!(sim.stats(sender).packets_dropped, 3);
        assert!(sim.trace().iter().all(|t| t.event == TraceEvent::Dropped));
    }

    #[test]
    fn crash_discards_and_restart_receives() {
        let mut sim = Simulator::new(SimConfig::default());
        let probe = sim.add_node(Box::new(Probe::new()));
        sim.crash(probe);
        let sender = sim.add_node(Box::new(Sender {
            dst: probe,
            count: 2,
        }));
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.stats(probe).packets_to_dead_node, 2);
        // Restart and send again.
        sim.restart(probe, Box::new(Probe::new()));
        sim.with_node_ctx::<Sender, _>(sender, |s, ctx| {
            ctx.send(s.dst, vec![9; 10]);
        });
        sim.run_for(SimDuration::from_millis(5));
        let p: &Probe = sim.node_ref(probe).expect("probe");
        assert_eq!(p.delivered.len(), 1);
    }

    struct TimerNode {
        fired: Vec<(SimTime, TimerId)>,
        cancel_second: bool,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(TimerId(1), SimDuration::from_millis(1));
            ctx.set_timer(TimerId(2), SimDuration::from_millis(2));
            if self.cancel_second {
                ctx.cancel_timer(TimerId(2));
            }
            // Re-arm timer 1: only the later deadline should fire.
            ctx.set_timer(TimerId(1), SimDuration::from_millis(3));
        }
        fn on_packet(&mut self, _s: NodeId, _p: &[u8], _c: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, t: TimerId, ctx: &mut NodeCtx<'_>) {
            self.fired.push((ctx.now(), t));
        }
    }

    #[test]
    fn timer_rearm_and_cancel() {
        let mut sim = Simulator::new(SimConfig::default());
        let id = sim.add_node(Box::new(TimerNode {
            fired: Vec::new(),
            cancel_second: true,
        }));
        sim.run_for(SimDuration::from_millis(10));
        let n: &TimerNode = sim.node_ref(id).expect("node");
        assert_eq!(n.fired.len(), 1);
        assert_eq!(n.fired[0].1, TimerId(1));
        assert_eq!(n.fired[0].0.as_micros(), 3000);
    }

    #[test]
    fn timers_die_on_crash() {
        let mut sim = Simulator::new(SimConfig::default());
        let id = sim.add_node(Box::new(TimerNode {
            fired: Vec::new(),
            cancel_second: false,
        }));
        sim.crash(id);
        sim.run_for(SimDuration::from_millis(10));
        // Node value retained but timers never fired.
        let taken = sim.take_node(id).expect("node");
        let n = (taken.as_ref() as &dyn Any)
            .downcast_ref::<TimerNode>()
            .expect("downcast");
        assert!(n.fired.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                trace: true,
                default_link: LinkParams {
                    loss: 0.3,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (mut sim, _, _) = two_nodes(cfg);
            sim.run_for(SimDuration::from_millis(5));
            sim.take_trace()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn partition_and_heal() {
        let mut sim = Simulator::new(SimConfig::default());
        let probe = sim.add_node(Box::new(Probe::new()));
        let sender = sim.add_node(Box::new(Sender {
            dst: probe,
            count: 1,
        }));
        sim.run_for(SimDuration::from_millis(2));
        sim.partition(&[sender], &[probe]);
        sim.with_node_ctx::<Sender, _>(sender, |s, ctx| ctx.send(s.dst, vec![1]));
        sim.run_for(SimDuration::from_millis(2));
        let p: &Probe = sim.node_ref(probe).expect("probe");
        assert_eq!(p.delivered.len(), 1, "partitioned packet must not arrive");
        sim.heal_all();
        sim.with_node_ctx::<Sender, _>(sender, |s, ctx| ctx.send(s.dst, vec![2]));
        sim.run_for(SimDuration::from_millis(2));
        let p: &Probe = sim.node_ref(probe).expect("probe");
        assert_eq!(p.delivered.len(), 2);
    }

    #[test]
    fn stats_account_bytes_and_packets() {
        let (mut sim, probe, sender) = two_nodes(SimConfig::default());
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.stats(sender).packets_sent, 3);
        assert_eq!(sim.stats(sender).bytes_sent, 300);
        assert_eq!(sim.stats(probe).packets_received, 3);
        assert_eq!(sim.stats(probe).bytes_received, 300);
    }

    #[test]
    fn echo_roundtrip_with_ctx_poke() {
        let mut sim = Simulator::new(SimConfig::default());
        let a = sim.add_node(Box::new(Probe::new()));
        let b = sim.add_node(Box::new(Probe::new()));
        sim.node_mut::<Probe>(b).expect("b").echo_to = Some(a);
        sim.with_node_ctx::<Probe, _>(a, |_, ctx| ctx.send(b, b"ping".to_vec()));
        sim.run_for(SimDuration::from_millis(5));
        let pa: &Probe = sim.node_ref(a).expect("a");
        assert_eq!(pa.delivered.len(), 1);
        assert_eq!(pa.delivered[0].1, b"ping");
    }

    #[test]
    fn wire_time_orders_departures() {
        // Two sends in one handler: the second leaves after the first's
        // serialization completes (NIC is serial).
        let cfg = SimConfig {
            trace: true,
            default_link: LinkParams {
                jitter: SimDuration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(cfg);
        let probe = sim.add_node(Box::new(Probe::new()));
        let sender = sim.add_node(Box::new(Sender {
            dst: probe,
            count: 2,
        }));
        sim.run_for(SimDuration::from_millis(5));
        let sends: Vec<_> = sim
            .trace()
            .iter()
            .filter(|t| t.event == TraceEvent::Sent && t.src == sender)
            .collect();
        assert_eq!(sends.len(), 2);
        assert!(sends[1].at > sends[0].at);
    }
}
