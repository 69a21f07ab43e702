//! The loopback driver: one thread, real engines, a virtual clock.
//!
//! [`Net`] owns `n` replica engines and the clients of one group and moves
//! their [`Output`]s between them itself. The *schedule* is virtual: every
//! packet is delivered [`HOP_NS`] of virtual time after it was sent, nothing
//! is lost, CPU work takes no virtual time, timers fire on the virtual
//! clock, and ties are broken by send order — so the sequence of calls into
//! the engines, and every count derived from it, is identical run to run.
//! What callers *measure* is the wall time the thread needs to chew through
//! that fixed schedule.
//!
//! With tracing on, the driver records a [`Span`] around every call it makes
//! into a replica or a client — from outside the layers, nothing inside them
//! is instrumented.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::layers::{
    kind_of, target_node, Client, ClientEvent, ConsensusEngine, HandleResult, Kind, Output,
    PacketBuf, ReplicaMetrics, TimerKind,
};

/// Injected one-way delay of every packet, in virtual nanoseconds.
pub const HOP_NS: u64 = 50_000;

/// "No span": the parent of a root span, and every id when tracing is off.
pub const NO_SPAN: u32 = u32::MAX;

const TIMER_KINDS: usize = 7;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Node index (replicas `0..n`, then clients).
    pub node: u16,
    /// Wall nanoseconds since the driver's epoch at call entry.
    pub start_ns: u64,
    /// Wall nanoseconds since the driver's epoch at call return.
    pub end_ns: u64,
    /// The span whose outputs contained the packet (or armed the timer)
    /// that caused this call; [`NO_SPAN`] for roots.
    pub parent: u32,
    /// The root of this span's causal tree: a `client.submit` or a `boot`.
    pub trace: u32,
}

enum What {
    Packet { buf: PacketBuf, kind: Kind },
    Timer { kind: TimerKind, gen: u32 },
}

struct Event {
    at: u64,
    seq: u64,
    node: u16,
    what: What,
    parent: u32,
    trace: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: `BinaryHeap` is a max-heap and the earliest event, then the
    // earliest send, must pop first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Exact work counts, taken from outside the layers: the driver's own
/// queue, the `OpCounts` every call returns, and the engines' metrics
/// (summed over the group, replaced engines included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets sent, per destination, by kind.
    pub msgs: [u64; Kind::COUNT],
    /// Bytes of those packets.
    pub bytes: [u64; Kind::COUNT],
    /// Timer firings delivered (stale and cancelled ones excluded).
    pub timers_fired: u64,
    /// Events popped from the queue.
    pub events: u64,
    /// MACs generated plus MACs verified, on replicas and clients.
    pub macs: u64,
    /// Bytes run through the message digest.
    pub digest_bytes: u64,
    /// State pages re-hashed at checkpoints.
    pub pages_hashed: u64,
    /// `ReplicaMetrics::executed_requests`.
    pub executed: u64,
    /// `ReplicaMetrics::batches_executed`.
    pub batches: u64,
    /// `ReplicaMetrics::checkpoints_taken`.
    pub checkpoints: u64,
    /// `ReplicaMetrics::hot_encodings`.
    pub encodings: u64,
    /// `ReplicaMetrics::new_views_entered`.
    pub new_views: u64,
    /// `ReplicaMetrics::state_transfers_completed`.
    pub transfers: u64,
    /// `ReplicaMetrics::read_only_served`.
    pub reads_served: u64,
    /// `ClientMetrics::retransmissions`.
    pub retransmits: u64,
    /// `ClientMetrics::completed`.
    pub completed: u64,
}

impl Tally {
    /// Total packets sent.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// `self - earlier`, field by field (both taken from the same [`Net`]).
    pub fn since(&self, earlier: &Tally) -> Tally {
        let e = earlier;
        Tally {
            msgs: std::array::from_fn(|k| self.msgs[k] - e.msgs[k]),
            bytes: std::array::from_fn(|k| self.bytes[k] - e.bytes[k]),
            timers_fired: self.timers_fired - e.timers_fired,
            events: self.events - e.events,
            macs: self.macs - e.macs,
            digest_bytes: self.digest_bytes - e.digest_bytes,
            pages_hashed: self.pages_hashed - e.pages_hashed,
            executed: self.executed - e.executed,
            batches: self.batches - e.batches,
            checkpoints: self.checkpoints - e.checkpoints,
            encodings: self.encodings - e.encodings,
            new_views: self.new_views - e.new_views,
            transfers: self.transfers - e.transfers,
            reads_served: self.reads_served - e.reads_served,
            retransmits: self.retransmits - e.retransmits,
            completed: self.completed - e.completed,
        }
    }

    fn add_replica(&mut self, m: &ReplicaMetrics) {
        self.executed += m.executed_requests;
        self.batches += m.batches_executed;
        self.checkpoints += m.checkpoints_taken;
        self.encodings += m.hot_encodings;
        self.new_views += m.new_views_entered;
        self.transfers += m.state_transfers_completed;
        self.reads_served += m.read_only_served;
    }
}

/// A reply quorum reached by client `client`.
#[derive(Debug)]
pub struct Completion {
    /// Client index.
    pub client: usize,
    /// The certified result bytes.
    pub result: Vec<u8>,
}

/// One replicated group and its clients, wired back to back.
pub struct Net<E: ConsensusEngine> {
    /// The replica engines (node `i` is replica `i`).
    pub replicas: Vec<E>,
    /// The clients (client `c` is node `n + c`).
    pub clients: Vec<Client>,
    silenced: Vec<bool>,
    queue: BinaryHeap<Event>,
    timer_gen: Vec<[u32; TIMER_KINDS]>,
    now: u64,
    seq: u64,
    linear: bool,
    /// Driver-side counts, plus the metrics of replaced engines.
    tally: Tally,
    epoch: Instant,
    calls: usize,
    spans: Option<Vec<Span>>,
}

impl<E: ConsensusEngine> Net<E> {
    /// Wire up a group. `span_capacity` turns tracing on and pre-sizes the
    /// span store so recording never reallocates while the clock runs.
    pub fn new(replicas: Vec<E>, clients: Vec<Client>, span_capacity: Option<usize>) -> Net<E> {
        let nodes = replicas.len() + clients.len();
        Net {
            silenced: vec![false; replicas.len()],
            replicas,
            clients,
            queue: BinaryHeap::new(),
            timer_gen: vec![[0; TIMER_KINDS]; nodes],
            now: 0,
            seq: 0,
            linear: E::engine_name() == "linear",
            tally: Tally::default(),
            epoch: Instant::now(),
            calls: 0,
            spans: span_capacity.map(Vec::with_capacity),
        }
    }

    /// Virtual now, in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Wall nanoseconds since this driver was built — the clock of every
    /// span and of the runner's latency stamps.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Is replica `i` silenced?
    pub fn is_silenced(&self, i: usize) -> bool {
        self.silenced[i]
    }

    /// Calls made into replicas and clients so far — the number of spans a
    /// traced run of the same schedule records.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// The spans recorded so far (empty when tracing is off).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }

    /// The counts so far.
    pub fn tally(&self) -> Tally {
        let mut t = self.tally.clone();
        for r in &self.replicas {
            t.add_replica(r.metrics());
        }
        for c in &self.clients {
            t.retransmits += c.metrics.retransmissions;
            t.completed += c.metrics.completed;
        }
        t
    }

    /// Call `on_start` on every replica, then every client (root spans).
    pub fn boot(&mut self) {
        for node in 0..self.replicas.len() + self.clients.len() {
            self.call(Kind::Boot, node, NO_SPAN, NO_SPAN, |net| {
                match net.replicas.len() {
                    n if node < n => net.replicas[node].on_start(net.now, false),
                    n => net.clients[node - n].on_start(net.now),
                }
            });
        }
    }

    /// Submit one operation on client `c` (a root span: its id is the trace
    /// id of everything it causes).
    pub fn submit(&mut self, c: usize, op: Vec<u8>, read_only: bool) {
        let node = self.replicas.len() + c;
        self.call(Kind::Submit, node, NO_SPAN, NO_SPAN, |net| {
            net.clients[c].submit(op, read_only, net.now)
        });
    }

    /// Replace replica `i` by `blank` (a crash that lost everything), start
    /// it in recovery, and have every client redistribute its session keys.
    /// Packets already in flight to `i` reach the new engine, as datagrams
    /// to a restarted process would.
    pub fn restart_blank(&mut self, i: usize, blank: E) {
        let old = std::mem::replace(&mut self.replicas[i], blank);
        self.tally.add_replica(old.metrics());
        drop(old);
        for gen in &mut self.timer_gen[i] {
            *gen += 1;
        }
        let boot = self.call(Kind::Boot, i, NO_SPAN, NO_SPAN, |net| {
            net.replicas[i].on_start(net.now, true)
        });
        for c in 0..self.clients.len() {
            let node = self.replicas.len() + c;
            self.call(Kind::Rekey, node, boot, boot, |net| {
                net.clients[c].redistribute_session_keys()
            });
        }
    }

    /// Silence replica `i` for good: it is handed nothing from now on.
    pub fn silence(&mut self, i: usize) {
        self.silenced[i] = true;
    }

    /// Deliver every event due up to virtual time `until`.
    pub fn run_until(&mut self, until: u64, done: &mut Vec<Completion>) {
        while self.queue.peek().is_some_and(|e| e.at <= until) {
            self.step(done);
        }
    }

    /// Deliver the next event. Reply quorums reached are appended to
    /// `done`. Returns `false` when the queue is empty.
    pub fn step(&mut self, done: &mut Vec<Completion>) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        self.tally.events += 1;
        let node = ev.node as usize;
        let n = self.replicas.len();
        match ev.what {
            What::Packet { buf, kind } => {
                if node < n && self.silenced[node] {
                    return true;
                }
                self.call(kind, node, ev.parent, ev.trace, |net| {
                    if node < n {
                        net.replicas[node].handle_packet(&buf, net.now)
                    } else {
                        net.clients[node - n].handle_packet(&buf, net.now)
                    }
                });
            }
            What::Timer { kind, gen } => {
                let stale = self.timer_gen[node][kind.index() as usize] != gen;
                if stale || (node < n && self.silenced[node]) {
                    return true;
                }
                self.tally.timers_fired += 1;
                self.call(Kind::Timer, node, ev.parent, ev.trace, |net| {
                    if node < n {
                        net.replicas[node].on_timer(kind, net.now)
                    } else {
                        net.clients[node - n].on_timer(kind, net.now)
                    }
                });
            }
        }
        if node >= n {
            for event in self.clients[node - n].take_events() {
                if let ClientEvent::ReplyDelivered { result, .. } = event {
                    done.push(Completion {
                        client: node - n,
                        result,
                    });
                }
            }
        }
        true
    }

    fn stamp(&self) -> u64 {
        if self.spans.is_some() {
            self.wall_ns()
        } else {
            0
        }
    }

    /// Make one call into `node`, record its span (when tracing) and carry
    /// out what it returned. `parent` is the span that caused the call; a
    /// root (`trace == NO_SPAN`) becomes its own trace. Returns the span id.
    fn call(
        &mut self,
        kind: Kind,
        node: usize,
        parent: u32,
        trace: u32,
        f: impl FnOnce(&mut Self) -> HandleResult,
    ) -> u32 {
        let start_ns = self.stamp();
        let res = f(self);
        let end_ns = self.stamp();
        self.calls += 1;
        let mut id = NO_SPAN;
        let mut root = trace;
        if let Some(spans) = &mut self.spans {
            id = spans.len() as u32;
            if root == NO_SPAN {
                root = id;
            }
            spans.push(Span {
                kind,
                node: node as u16,
                start_ns,
                end_ns,
                parent,
                trace: root,
            });
        }
        self.apply(res, node, id, root);
        id
    }

    /// Carry out what a call asked for: queue its sends one hop away, arm
    /// and cancel its timers. `span` is the call's span, `trace` its root.
    fn apply(&mut self, res: HandleResult, node: usize, span: u32, trace: u32) {
        self.tally.macs += res.counts.mac_gen + res.counts.mac_verify;
        self.tally.digest_bytes += res.counts.digest_bytes;
        self.tally.pages_hashed += res.counts.pages_hashed;
        for out in res.outputs {
            let (at, dst, what) = match out {
                Output::Send {
                    to,
                    packet,
                    envelope,
                } => {
                    let kind = kind_of(&envelope, self.linear);
                    self.tally.msgs[kind as usize] += 1;
                    self.tally.bytes[kind as usize] += packet.len() as u64;
                    let what = What::Packet { buf: packet, kind };
                    (self.now + HOP_NS, target_node(to), what)
                }
                Output::SetTimer { kind, delay_ns } => {
                    let gen = &mut self.timer_gen[node][kind.index() as usize];
                    *gen += 1;
                    let what = What::Timer { kind, gen: *gen };
                    (self.now + delay_ns, node, what)
                }
                Output::CancelTimer { kind } => {
                    self.timer_gen[node][kind.index() as usize] += 1;
                    continue;
                }
            };
            self.seq += 1;
            self.queue.push(Event {
                at,
                seq: self.seq,
                node: dst as u16,
                what,
                parent: span,
                trace,
            });
        }
    }
}
