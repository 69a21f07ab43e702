//! Protocol-level tests: a deterministic in-crate router drives full
//! clusters of replica and client engines through the scenarios the paper
//! describes, with byte-level packets (so authentication is fully exercised)
//! and manual fault injection.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pbft_state::PagedState;

use crate::app::{App, ExecMetrics, KvApp, NonDet, NullApp, StateHandle};
use crate::client::{Client, ClientEvent};
use crate::config::{AuthMode, PbftConfig};
use crate::output::{NetTarget, Output};
use crate::replica::{Replica, LIB_REGION_PAGES};
use crate::types::{ClientId, NetAddr, ReplicaId};

const SEED: u64 = 0xBEEF;
const STATE_PAGES: usize = LIB_REGION_PAGES as usize + 8;
const CLIENT_ADDR_BASE: NetAddr = 100;

/// Which app backs the replicas.
#[derive(Clone, Copy, PartialEq)]
enum AppKind {
    Null(usize),
    Kv,
    SessionCounter,
    FullSession,
}

/// Packet filter: `(source, destination, message discriminant) -> drop?`.
type DropFilter = Box<dyn Fn(Source, &NetTarget, u8) -> bool>;

struct Net {
    cfg: PbftConfig,
    replicas: Vec<Replica>,
    clients: Vec<Client>,
    alive: Vec<bool>,
    /// (source label, destination, packet bytes, message discriminant)
    queue: VecDeque<(Source, NetTarget, crate::output::PacketBuf, u8)>,
    now: u64,
    /// Packets this filter returns `true` for are dropped.
    drop: Option<DropFilter>,
    dropped: usize,
    /// Packets this filter returns `true` for are parked instead of
    /// delivered; [`Net::release_held`] re-queues them (delayed delivery).
    hold: Option<DropFilter>,
    held: VecDeque<(Source, NetTarget, crate::output::PacketBuf, u8)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Replica(usize),
    Client(usize),
}

fn make_state() -> StateHandle {
    Rc::new(RefCell::new(PagedState::new(STATE_PAGES)))
}

fn make_replica(cfg: &PbftConfig, i: u32, app: AppKind, clients: &[ClientId]) -> Replica {
    let state = make_state();
    let app: Box<dyn App> = match app {
        AppKind::Null(size) => Box::new(NullApp::new(size)),
        AppKind::Kv => Box::new(KvApp::new(
            state.clone(),
            LIB_REGION_PAGES * pbft_state::PAGE_SIZE as u64,
            128,
        )),
        AppKind::SessionCounter => Box::new(crate::app::SessionCounterApp),
        AppKind::FullSession => Box::new(FullSessionApp),
    };
    Replica::new(cfg.clone(), SEED, ReplicaId(i), state, app, clients)
}

impl Net {
    fn new(cfg: PbftConfig, num_clients: usize, app: AppKind) -> Net {
        let client_ids: Vec<ClientId> = (1..=num_clients as u64).map(ClientId).collect();
        let preinstalled = if cfg.dynamic_membership {
            Vec::new()
        } else {
            client_ids.clone()
        };
        let replicas: Vec<Replica> = (0..cfg.n() as u32)
            .map(|i| make_replica(&cfg, i, app, &preinstalled))
            .collect();
        let clients: Vec<Client> = client_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                Client::new_static(cfg.clone(), SEED, id, CLIENT_ADDR_BASE + i as NetAddr)
            })
            .collect();
        let alive = vec![true; replicas.len()];
        let mut net = Net {
            cfg,
            replicas,
            clients,
            alive,
            queue: VecDeque::new(),
            now: 1_000_000,
            drop: None,
            dropped: 0,
            hold: None,
            held: VecDeque::new(),
        };
        for i in 0..net.replicas.len() {
            let res = net.replicas[i].on_start(net.now, false);
            net.route(Source::Replica(i), res.outputs);
        }
        for i in 0..net.clients.len() {
            let res = net.clients[i].on_start(net.now);
            net.route(Source::Client(i), res.outputs);
        }
        net.pump(10_000);
        net
    }

    fn route(&mut self, src: Source, outputs: Vec<Output>) {
        for o in outputs {
            if let Output::Send { to, packet, .. } = o {
                let disc = packet.first().copied().unwrap_or(0);
                self.queue.push_back((src, to, packet, disc));
            }
        }
    }

    fn client_index(&self, addr: NetAddr) -> Option<usize> {
        let idx = addr.checked_sub(CLIENT_ADDR_BASE)? as usize;
        (idx < self.clients.len()).then_some(idx)
    }

    /// Deliver queued packets until quiescent or `max_steps`.
    fn pump(&mut self, max_steps: usize) {
        for _ in 0..max_steps {
            let Some((src, to, packet, disc)) = self.queue.pop_front() else {
                return;
            };
            if let Some(f) = &self.drop {
                if f(src, &to, disc) {
                    self.dropped += 1;
                    continue;
                }
            }
            if let Some(f) = &self.hold {
                if f(src, &to, disc) {
                    self.held.push_back((src, to, packet, disc));
                    continue;
                }
            }
            self.now += 10_000; // 10µs per hop
            match to {
                NetTarget::Replica(r) => {
                    let i = r.0 as usize;
                    if !self.alive[i] {
                        continue;
                    }
                    let res = self.replicas[i].handle_packet(&packet, self.now);
                    self.route(Source::Replica(i), res.outputs);
                }
                NetTarget::Client(addr) => {
                    if let Some(i) = self.client_index(addr) {
                        let res = self.clients[i].handle_packet(&packet, self.now);
                        self.route(Source::Client(i), res.outputs);
                    }
                }
            }
        }
        panic!("pump did not quiesce within the step budget");
    }

    /// Deliver `packets` now, past the drop and hold filters.
    fn deliver(&mut self, packets: VecDeque<(Source, NetTarget, crate::output::PacketBuf, u8)>) {
        for (_, to, packet, _) in packets {
            let NetTarget::Replica(r) = to else {
                unreachable!("delivered to a replica")
            };
            let i = r.0 as usize;
            let res = self.replicas[i].handle_packet(&packet, self.now);
            self.route(Source::Replica(i), res.outputs);
        }
    }

    /// Stop holding and deliver every parked packet.
    fn release_held(&mut self) {
        self.hold = None;
        while let Some(p) = self.held.pop_front() {
            self.queue.push_back(p);
        }
    }

    fn submit(&mut self, client: usize, op: Vec<u8>, read_only: bool) {
        let res = self.clients[client].submit(op, read_only, self.now);
        self.route(Source::Client(client), res.outputs);
    }

    fn fire_replica_timer(&mut self, i: usize, kind: crate::output::TimerKind) {
        self.now += 1_000_000;
        let res = self.replicas[i].on_timer(kind, self.now);
        self.route(Source::Replica(i), res.outputs);
    }

    /// Let the group sit idle for two status intervals: every live replica
    /// takes a status tick, what they send is delivered and the interval
    /// passes, twice. The second tick finds the execution position where
    /// the first left it, so a checkpoint root still being finished — no
    /// batch is coming to step it — is finished and voted for, and an idle
    /// log is freed.
    fn idle(&mut self) {
        for _ in 0..2 {
            for i in 0..self.replicas.len() {
                if self.alive[i] {
                    self.fire_replica_timer(i, crate::output::TimerKind::StatusTick);
                }
            }
            self.pump(50_000);
            self.now += super::STATUS_INTERVAL_NS;
        }
    }

    fn fire_client_timer(&mut self, i: usize, kind: crate::output::TimerKind) {
        // The client acts on a retransmit firing only at its deadline.
        self.now += match kind {
            crate::output::TimerKind::Retransmit => crate::client::RETRANSMIT_NS,
            _ => 1_000_000,
        };
        let res = self.clients[i].on_timer(kind, self.now);
        self.route(Source::Client(i), res.outputs);
    }

    fn client_events(&mut self, i: usize) -> Vec<ClientEvent> {
        self.clients[i].take_events()
    }

    /// Result bytes of client `i`'s most recent completed request.
    fn last_reply(&mut self, i: usize) -> Option<Vec<u8>> {
        self.client_events(i)
            .into_iter()
            .rev()
            .find_map(|e| match e {
                ClientEvent::ReplyDelivered { result, .. } => Some(result),
                _ => None,
            })
    }

    fn completed(&self, i: usize) -> u64 {
        self.clients[i].metrics.completed
    }

    fn assert_chains_equal(&self, among: &[usize]) {
        let chains: Vec<_> = among
            .iter()
            .map(|&i| self.replicas[i].exec_chain())
            .collect();
        for w in chains.windows(2) {
            assert_eq!(w[0], w[1], "replica execution chains diverged");
        }
    }

    fn assert_states_equal(&mut self, among: &[usize]) {
        let roots: Vec<_> = among
            .iter()
            .map(|&i| {
                self.replicas[i]
                    .state_handle()
                    .borrow_mut()
                    .refresh_digest()
            })
            .collect();
        for w in roots.windows(2) {
            assert_eq!(w[0], w[1], "replica states diverged");
        }
    }
}

fn default_cfg() -> PbftConfig {
    PbftConfig {
        checkpoint_interval: 4,
        log_size: 16,
        ..Default::default()
    }
}

/// Every committed state root and artifact byte depends on where the
/// application partition starts.
#[test]
fn library_partition_is_64_pages() {
    assert_eq!(LIB_REGION_PAGES, 64);
}

// ----------------------------------------------------------------------
// Normal case
// ----------------------------------------------------------------------

#[test]
fn normal_case_single_request() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(64));
    net.submit(0, vec![1, 2, 3], false);
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    let evs = net.client_events(0);
    assert!(matches!(&evs[0], ClientEvent::ReplyDelivered { result, .. } if result.len() == 64));
    net.assert_chains_equal(&[0, 1, 2, 3]);
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 1);
        assert_eq!(r.view(), 0);
    }
}

#[test]
fn sequence_of_requests_from_many_clients() {
    let mut net = Net::new(default_cfg(), 4, AppKind::Kv);
    for round in 0..5u64 {
        for c in 0..4usize {
            net.submit(c, KvApp::op_put(c as u64 * 100 + round, round), false);
        }
        net.pump(100_000);
    }
    for c in 0..4 {
        assert_eq!(net.completed(c), 5, "client {c}");
    }
    net.assert_chains_equal(&[0, 1, 2, 3]);
    net.assert_states_equal(&[0, 1, 2, 3]);
    // 20 requests with interval 4 → stable checkpoint advanced and logs GCd.
    for r in &net.replicas {
        assert!(
            r.stable_checkpoint().0 >= 4,
            "stable = {}",
            r.stable_checkpoint().0
        );
        assert!(r.metrics().checkpoints_taken >= 1);
    }
}

#[test]
fn non_big_requests_flow_through_primary() {
    let cfg = PbftConfig {
        all_requests_big: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 2, AppKind::Null(32));
    net.submit(0, vec![7; 100], false);
    net.submit(1, vec![8; 100], false);
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    assert_eq!(net.completed(1), 1);
    net.assert_chains_equal(&[0, 1, 2, 3]);
}

#[test]
fn signature_mode_works() {
    let cfg = PbftConfig {
        auth: AuthMode::Signatures,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 2, AppKind::Null(64));
    net.submit(0, vec![1], false);
    net.submit(1, vec![2], false);
    hold_replies(&mut net);
    let vouches = held_replies(&net).iter().filter(|r| r.body_omitted).count();
    assert_eq!(vouches, 4, "2f signed vouches per request");
    net.release_held();
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    assert_eq!(net.completed(1), 1);
    net.assert_chains_equal(&[0, 1, 2, 3]);
}

/// Pump with every packet to a client held back.
fn hold_replies(net: &mut Net) {
    net.hold = Some(Box::new(|_, to, _| matches!(to, NetTarget::Client(_))));
    net.pump(10_000);
}

/// The replies held back from the clients, decoded.
fn held_replies(net: &Net) -> Vec<crate::messages::ReplyMsg> {
    use crate::messages::view::PacketView;
    use crate::messages::Message;
    net.held
        .iter()
        .map(
            |(_, _, packet, _)| match PacketView::parse(packet).expect("a packet").msg {
                Message::Reply(reply) => reply,
                other => panic!("a replica sent a client {other:?}"),
            },
        )
        .collect()
}

/// §2.1 with vouches: of a request's replies, the f+1 designated ones
/// carry the result and the other 2f are body-less vouches the client
/// completes on. A retransmission is answered in full by every replica.
#[test]
fn non_designated_replicas_vouch_and_retransmissions_get_the_result() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(64));
    let packet = submit_capturing(&mut net, 0, vec![1]);
    hold_replies(&mut net);
    let mut replies = held_replies(&net);
    replies.sort_by_key(|r| r.replica);
    // Client 1, timestamp 1: replicas 0 and 1 are designated.
    let shape: Vec<(u32, bool, usize)> = replies
        .iter()
        .map(|r| (r.replica.0, r.body_omitted, r.result.len()))
        .collect();
    assert_eq!(
        shape,
        [(0, false, 64), (1, false, 64), (2, true, 0), (3, true, 0)]
    );
    net.release_held();
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    let replies = retransmit_to_all(&mut net, 0, &packet);
    assert_eq!(replies.len(), 4);
    for reply in &replies {
        assert!(!reply.body_omitted, "replica {}", reply.replica.0);
        assert_eq!(reply.result.len(), 64);
    }
}

/// A non-designated replica that holds no key for the client cannot
/// vouch: it sends the result, unauthenticated.
#[test]
fn a_replica_without_the_clients_key_sends_the_result() {
    let cfg = PbftConfig {
        all_requests_big: false, // backups learn the body from the pre-prepare
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 1, AppKind::Null(64));
    net.replicas[3].keys.remove_client(ClientId(1));
    net.submit(0, vec![1], false);
    hold_replies(&mut net);
    let mut replies = held_replies(&net);
    replies.sort_by_key(|r| r.replica);
    let omitted: Vec<bool> = replies.iter().map(|r| r.body_omitted).collect();
    assert_eq!(omitted, [false, false, true, false]);
    assert_eq!(replies[3].result.len(), 64);
    net.release_held();
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
}

#[test]
fn batching_disabled_still_executes() {
    let cfg = PbftConfig {
        batching: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 3, AppKind::Null(16));
    for c in 0..3 {
        net.submit(c, vec![c as u8], false);
    }
    // One agreement at a time, each issued when the previous executes.
    net.pump(50_000);
    for c in 0..3 {
        assert_eq!(net.completed(c), 1);
    }
    net.assert_chains_equal(&[0, 1, 2, 3]);
}

#[test]
fn tentative_execution_disabled_still_executes() {
    let cfg = PbftConfig {
        tentative_execution: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 1, AppKind::Null(16));
    net.submit(0, vec![1], false);
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    for r in &net.replicas {
        assert_eq!(r.metrics().tentative_executions, 0);
    }
}

/// The request a client already had answered, delivered again to every
/// replica: each counts a duplicate and answers from its reply cache, and
/// none executes it again.
#[test]
fn duplicate_request_served_from_reply_cache() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(16));
    let packet = submit_capturing(&mut net, 0, vec![1]);
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    let before = executed(&net);
    let replies = retransmit_to_all(&mut net, 0, &packet);
    assert_eq!(executed(&net), before, "duplicates must not re-execute");
    assert_eq!(replies.len(), net.replicas.len(), "every replica answers");
    for r in &net.replicas {
        assert_eq!(r.metrics().duplicate_requests, 1, "replica {}", r.id().0);
    }
}

/// Submit `op` for `client` and return the request packet it sent.
fn submit_capturing(net: &mut Net, client: usize, op: Vec<u8>) -> crate::output::PacketBuf {
    assert!(net.queue.is_empty(), "the net is quiet");
    net.submit(client, op, false);
    net.queue.back().expect("the request").2.clone()
}

/// Deliver `packet` from `client` to every replica again, and return the
/// replies the replicas sent back (held, not delivered).
fn retransmit_to_all(
    net: &mut Net,
    client: usize,
    packet: &crate::output::PacketBuf,
) -> Vec<crate::messages::ReplyMsg> {
    for i in 0..net.replicas.len() {
        let to = NetTarget::Replica(ReplicaId(i as u32));
        let disc = packet.first().copied().unwrap_or(0);
        net.queue
            .push_back((Source::Client(client), to, packet.clone(), disc));
    }
    hold_replies(net);
    net.hold = None;
    let replies = held_replies(net);
    net.held.clear();
    replies
}

fn executed(net: &Net) -> Vec<u64> {
    net.replicas
        .iter()
        .map(|r| r.metrics().executed_requests)
        .collect()
}

/// A request executed tentatively and then committed: every replica
/// upgraded its cached reply at commit, so a retransmission is answered
/// from the cache, in full and stable (f + 1 of them suffice), and runs
/// nothing.
#[test]
fn retransmission_after_commit_is_answered_stable_from_the_cache() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    let packet = submit_capturing(&mut net, 0, KvApp::op_put(3, 9));
    net.pump(10_000);
    assert_eq!(net.completed(0), 1);
    for r in &net.replicas {
        assert_eq!(r.metrics().tentative_executions, 1, "executed tentatively");
    }
    let before = executed(&net);
    let replies = retransmit_to_all(&mut net, 0, &packet);
    assert_eq!(executed(&net), before, "duplicates must not re-execute");
    let mut from: Vec<u32> = replies.iter().map(|r| r.replica.0).collect();
    from.sort_unstable();
    assert_eq!(from, [0, 1, 2, 3], "every replica answers");
    for reply in &replies {
        assert!(
            !reply.tentative,
            "replica {} answered tentative",
            reply.replica.0
        );
        assert!(!reply.body_omitted, "a retransmission gets the full body");
        assert_eq!(reply.timestamp, 1);
    }
    for r in &net.replicas {
        assert_eq!(r.metrics().duplicate_requests, 1);
    }
}

/// A request older than its client's last executed one is dropped at
/// admission: no reply, no execution, and nothing stored or observed.
#[test]
fn request_older_than_the_last_executed_is_dropped() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    let first = submit_capturing(&mut net, 0, KvApp::op_put(3, 9));
    net.pump(10_000);
    net.submit(0, KvApp::op_put(3, 10), false);
    net.pump(10_000);
    assert_eq!(net.completed(0), 2);
    let before = executed(&net);
    let stored: Vec<usize> = net.replicas.iter().map(|r| r.bodies.len()).collect();
    let replies = retransmit_to_all(&mut net, 0, &first);
    assert!(replies.is_empty(), "answered a stale request: {replies:?}");
    assert_eq!(executed(&net), before);
    for (r, stored) in net.replicas.iter().zip(stored) {
        assert_eq!(r.metrics().duplicate_requests, 0);
        assert_eq!(r.bodies.len(), stored, "replica {} stored it", r.id().0);
        assert!(r.observed.is_empty(), "replica {} observed it", r.id().0);
    }
}

#[test]
fn read_only_fast_path() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    net.submit(0, KvApp::op_put(7, 42), false);
    net.pump(10_000);
    net.submit(0, KvApp::op_get(7), true);
    net.pump(10_000);
    assert_eq!(net.completed(0), 2);
    let evs = net.client_events(0);
    match &evs[1] {
        ClientEvent::ReplyDelivered { result, .. } => {
            assert_eq!(u64::from_be_bytes(result[8..16].try_into().unwrap()), 42);
        }
        other => panic!("unexpected event {other:?}"),
    }
    // Served without consuming a sequence number.
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 1);
        assert!(r.metrics().read_only_served >= 1);
    }
}

/// The 16-byte record `KvApp::op_get(key)` returns after `op_put(key, value)`.
fn kv_record(key: u64, value: u64) -> Vec<u8> {
    [key.to_be_bytes(), value.to_be_bytes()].concat()
}

/// A read that arrives while a write is tentative on every replica executes
/// at once, but its reply is held — whatever key it reads — until the
/// write commits, and then carries the committed value.
#[test]
fn contended_read_defers_until_tentative_state_resolves() {
    let mut net = Net::new(default_cfg(), 3, AppKind::Kv);
    // Park every commit in flight: batches prepare and execute tentatively
    // on all replicas but cannot commit yet.
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    // The client completes on 2f+1 matching *tentative* replies, but the
    // write is uncommitted on every replica.
    assert_eq!(net.completed(0), 1);
    for r in &net.replicas {
        assert_eq!(r.metrics().tentative_executions, 1);
    }
    // A read of the written key and a read of another key are both held on
    // every replica: each observed the tentative batch.
    net.submit(1, KvApp::op_get(5), true);
    net.submit(2, KvApp::op_get(6), true);
    net.pump(50_000);
    assert_eq!(
        (net.completed(1), net.completed(2)),
        (0, 0),
        "no read is answered from tentative state"
    );
    for r in &net.replicas {
        assert_eq!(r.metrics().read_only_deferred, 2);
        assert_eq!(r.metrics().read_only_served, 0);
    }
    // Deliver the parked commits: the batch commits locally and the held
    // replies leave.
    net.release_held();
    net.pump(100_000);
    assert_eq!(net.completed(1), 1, "held read answered after local commit");
    assert_eq!(net.completed(2), 1, "held read answered after local commit");
    assert_eq!(net.last_reply(1).expect("read completed"), kv_record(5, 55));
    for r in &net.replicas {
        assert_eq!(r.metrics().read_only_served, 2);
    }
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// One client must not be able to fill the held-read queue: read-only
/// requests never advance its executed timestamp, so a client can send any
/// number of distinct-timestamp reads. They share one held slot, and a
/// full queue drops a read rather than answer it from tentative state.
#[test]
fn overflowing_read_queue_never_answers_from_tentative_state() {
    use crate::keys::ClientKeys;
    use crate::messages::{Envelope, Message, Operation, RequestMsg, Sender};

    let mut net = Net::new(default_cfg(), 3, AppKind::Kv);
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1, "the write executed tentatively");

    // Client 1 floods every replica with 65 reads of the written key, each
    // correctly authenticated under its own session keys.
    let flooder = ClientId(2);
    let keys = ClientKeys::new(SEED, flooder, net.cfg.n());
    for timestamp in 1..=65 {
        let msg = Message::Request(RequestMsg {
            client: flooder,
            timestamp,
            read_only: true,
            reply_addr: CLIENT_ADDR_BASE + 1,
            op: Operation::App(KvApp::op_get(5)),
        });
        let prefix = Envelope::encode_prefix(Sender::Client(flooder), &msg);
        let auth = keys.seal_request(net.cfg.auth, &prefix, &mut Default::default());
        let packet = std::sync::Arc::new(Envelope::seal(prefix, &auth));
        for r in 0..net.cfg.n() as u32 {
            let to = NetTarget::Replica(ReplicaId(r));
            let disc = packet[0];
            net.queue
                .push_back((Source::Client(1), to, std::sync::Arc::clone(&packet), disc));
        }
    }
    net.pump(100_000);
    for r in &net.replicas {
        assert_eq!(r.deferred_reads.len(), 1, "one held read per client");
    }

    // Client 2's read of the same key must wait for the commit.
    net.submit(2, KvApp::op_get(5), true);
    net.pump(50_000);
    assert_eq!(
        net.completed(2),
        0,
        "a flooded read queue answered a read from tentative state"
    );
    for r in &net.replicas {
        assert_eq!(
            r.metrics().read_only_served,
            0,
            "nothing served tentatively"
        );
    }
    net.release_held();
    net.pump(100_000);
    assert_eq!(net.completed(2), 1, "held read answered after local commit");
    assert_eq!(net.last_reply(2).expect("read completed"), kv_record(5, 55));
}

/// Castro–Liskov §5.1.3: a replica sends a read's reply only once the
/// tentative state the read observed has committed. With commits held, a
/// `get` of the key a tentative `put` wrote waits; released, it carries the
/// committed value.
#[test]
fn a_read_waits_until_the_batch_it_observed_commits() {
    let mut net = Net::new(default_cfg(), 2, AppKind::Kv);
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1, "the write executed tentatively");
    net.submit(1, KvApp::op_get(5), true);
    net.pump(50_000);
    assert_eq!(net.completed(1), 0, "the read waits for slot 1 to commit");
    for r in &net.replicas {
        assert_eq!(r.metrics().read_only_deferred, 1, "its reply is held");
        let slot = r.log.get(1).expect("slot 1");
        assert!(
            slot.executed && !slot.committed,
            "slot 1 is still tentative"
        );
    }
    net.release_held();
    net.pump(100_000);
    for r in &net.replicas {
        assert!(
            r.log.get(1).is_some_and(|e| e.committed),
            "slot 1 committed"
        );
    }
    assert_eq!(net.completed(1), 1, "the read completed on the commit");
    assert_eq!(net.last_reply(1).expect("read completed"), kv_record(5, 55));
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// A held reply waits only for the batches its read observed: it leaves
/// when slot 1 commits, while slot 2 — executed after the read, writing the
/// same key — is still tentative. "Wait until nothing is tentative" would
/// starve it behind every later pipelined write.
#[test]
fn a_held_read_is_released_while_later_batches_are_tentative() {
    use crate::messages::view::PacketView;
    use crate::messages::Message;

    let mut net = Net::new(default_cfg(), 2, AppKind::Kv);
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    net.submit(1, KvApp::op_get(5), true);
    net.pump(50_000);
    assert_eq!(net.completed(1), 0, "the read observed tentative slot 1");
    // Slot 1's commits, set aside; slot 2's are held in their place.
    let slot1_commits = std::mem::take(&mut net.held);
    assert!(slot1_commits.iter().all(|(_, _, packet, _)| {
        matches!(PacketView::parse(packet).expect("a packet").msg, Message::Commit(c) if c.seq == 1)
    }));
    net.submit(0, KvApp::op_put(5, 77), false);
    net.pump(50_000);
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 2, "slot 2 executed tentatively");
    }
    // Delivered past the hold, which keeps slot 2's.
    net.deliver(slot1_commits);
    net.pump(50_000);
    for r in &net.replicas {
        assert!(
            r.log.get(1).is_some_and(|e| e.committed),
            "slot 1 committed"
        );
        assert!(
            r.log.get(2).is_some_and(|e| !e.committed),
            "slot 2 is still tentative"
        );
    }
    assert_eq!(net.completed(1), 1, "released with slot 1's commit");
    assert_eq!(
        net.last_reply(1).expect("read completed"),
        kv_record(5, 55),
        "the value the read observed, not slot 2's"
    );
    net.release_held();
    net.pump(100_000);
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// A view change that rolls back a tentative write never lets a held reply
/// carrying it reach the client. Only replica 3 prepares slot 1 (the other
/// replicas' prepares are lost), so only it executes the write; the new
/// view is built from the other three votes and drops the slot. Replica 3
/// rolls back and answers the held read from the restored state.
#[test]
fn a_rolled_back_write_never_reaches_a_held_read() {
    let mut net = Net::new(default_cfg(), 2, AppKind::Kv);
    let lone = NetTarget::Replica(ReplicaId(3));
    net.drop = Some(Box::new(move |_, to, disc| {
        disc == 4 || (disc == 3 && *to != lone)
    }));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    for (i, r) in net.replicas.iter().enumerate() {
        assert_eq!(r.last_executed(), u64::from(i == 3), "replica {i}");
    }
    // Every reply to the reader is kept for inspection.
    let reader = NetTarget::Client(CLIENT_ADDR_BASE + 1);
    net.hold = Some(Box::new(move |_, to, _| *to == reader));
    net.submit(1, KvApp::op_get(5), true);
    net.pump(50_000);
    assert_eq!(net.replicas[3].metrics().read_only_deferred, 1);
    // View change to view 1; replica 3's vote is lost, so the new view is
    // built from votes that prepared nothing.
    net.drop = Some(Box::new(|src, _, disc| {
        disc == 7 && src == Source::Replica(3)
    }));
    for i in 0..3 {
        net.fire_replica_timer(i, crate::output::TimerKind::ViewChange);
    }
    net.pump(100_000);
    for (i, r) in net.replicas.iter().enumerate() {
        assert_eq!(r.view(), 1, "replica {i}");
    }
    let replies = held_replies(&net);
    assert_eq!(
        replies.iter().filter(|r| r.replica == ReplicaId(3)).count(),
        1,
        "replica 3 answered the read once, after the rollback"
    );
    for reply in &replies {
        assert_ne!(
            reply.result,
            kv_record(5, 55),
            "replica {} sent a rolled-back write",
            reply.replica.0
        );
    }
    net.release_held();
    net.pump(50_000);
    assert_eq!(net.completed(1), 1);
    assert_eq!(net.last_reply(1).expect("read completed"), vec![0; 16]);
}

/// A rollback drops a checkpoint sealed above the commit watermark. With
/// a checkpoint at every batch, only replica 3 prepares slot 1 and seals
/// it (a put of 55); the new view is built without its vote, and the new
/// primary, which never saw that request, orders another put (77) in the
/// same slot. Had replica 3 kept its unpublished root, it would vote for
/// the rolled-back image once slot 1 commits, and then transfer state to
/// the group's root.
#[test]
fn a_rollback_drops_the_checkpoint_sealed_above_the_watermark() {
    let cfg = PbftConfig {
        checkpoint_interval: 1,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 2, AppKind::Kv);
    let lone = NetTarget::Replica(ReplicaId(3));
    let new_primary = NetTarget::Replica(ReplicaId(1));
    net.drop = Some(Box::new(move |src, to, disc| {
        disc == 4
            || (disc == 3 && *to != lone)
            || (disc == 1 && src == Source::Client(0) && *to == new_primary)
    }));
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    assert_eq!(net.replicas[3].last_executed(), 1, "replica 3 ran slot 1");
    net.drop = Some(Box::new(|src, _, disc| {
        disc == 7 && src == Source::Replica(3)
    }));
    for i in 0..3 {
        net.fire_replica_timer(i, crate::output::TimerKind::ViewChange);
    }
    net.pump(100_000);
    net.drop = None;
    net.submit(1, KvApp::op_put(5, 77), false);
    net.pump(100_000);
    net.idle();
    assert_eq!(net.completed(1), 1);
    for (i, r) in net.replicas.iter().enumerate() {
        assert_eq!(r.view(), 1, "replica {i}");
        assert!(r.stable_checkpoint().0 >= 1, "replica {i}");
        assert_eq!(r.metrics().state_transfers_started, 0, "replica {i}");
    }
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// An uncommitted write holds every read behind it, keyed or not: the
/// cross-shard layer's epoch flip is the motivating case — an uncommitted
/// reconfiguration names no key a read names, and a view change may still
/// roll it back.
#[test]
fn read_defers_while_reshard_uncommitted() {
    let mut net = Net::new(default_cfg(), 2, AppKind::Kv);
    net.submit(0, KvApp::op_put(9, 99), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1);
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    // Order a write of another key with commits parked: every replica
    // executes it tentatively and holds its effect uncommitted.
    net.submit(0, KvApp::op_put(1, 11), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 2);
    // A read of a key the write never named waits all the same, until the
    // write's fate is known.
    net.submit(1, KvApp::op_get(9), true);
    net.pump(50_000);
    assert_eq!(
        net.completed(1),
        0,
        "a read was answered from uncommitted state"
    );
    for r in &net.replicas {
        assert!(r.metrics().read_only_deferred >= 1);
    }
    // Commit it: the held reply leaves.
    net.release_held();
    net.pump(100_000);
    assert_eq!(net.completed(1), 1, "held read answered after local commit");
    assert_eq!(net.last_reply(1).expect("read completed"), kv_record(9, 99));
    net.assert_states_equal(&[0, 1, 2, 3]);
}

#[test]
fn bad_authenticator_rejected() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(16));
    // A request sealed by a client whose keys the replicas do not have.
    let mut rogue = Client::new_static(net.cfg.clone(), SEED ^ 99, ClientId(9), 999);
    let res = rogue.submit(vec![1], false, net.now);
    net.route(Source::Client(0), res.outputs.into_iter().take(4).collect());
    net.pump(10_000);
    let failures: u64 = net.replicas.iter().map(|r| r.metrics().auth_failures).sum();
    assert!(failures > 0);
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 0, "rogue request must not execute");
    }
}

/// A claimed client id costs a replica nothing until something signed by it
/// verifies: a thousand MAC-authenticated requests under unknown ids fail
/// without a public key being derived or stored for any of them.
#[test]
fn unauthenticated_client_ids_install_no_public_key() {
    use crate::keys::ClientKeys;
    use crate::messages::{Envelope, Message, Operation, RequestMsg, Sender};

    let cfg = default_cfg();
    let mut r = make_replica(&cfg, 1, AppKind::Null(16), &[ClientId(1)]);
    // Authenticators sealed under some client's keys, claimed by others.
    let keys = ClientKeys::new(SEED, ClientId(1), cfg.n());
    let ids = (1_000..2_000).map(ClientId);
    for client in ids.clone() {
        let msg = Message::Request(RequestMsg {
            client,
            timestamp: 1,
            read_only: false,
            reply_addr: CLIENT_ADDR_BASE,
            op: Operation::App(vec![7; 16]),
        });
        let prefix = Envelope::encode_prefix(Sender::Client(client), &msg);
        let auth = keys.seal_request(AuthMode::Macs, &prefix, &mut Default::default());
        r.handle_packet(&Envelope::seal(prefix, &auth), 1_000_000);
    }
    assert_eq!(r.metrics().auth_failures, 1_000);
    for client in ids {
        assert!(
            r.keys.client_pubkey(client).is_none(),
            "an unauthenticated request installed a public key for {client:?}"
        );
    }
}

// ----------------------------------------------------------------------
// Checkpoints & watermarks
// ----------------------------------------------------------------------

#[test]
fn checkpoints_garbage_collect_log_and_bodies() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 0..8u64 {
        net.submit(0, KvApp::op_put(i, i), false);
        net.pump(10_000);
    }
    net.idle();
    assert_eq!(net.completed(0), 8);
    for r in &net.replicas {
        assert!(
            r.stable_checkpoint().0 >= 8,
            "stable = {}",
            r.stable_checkpoint().0
        );
        assert!(r.retained_checkpoints() <= 2);
        assert_eq!(r.body_store_len(), 0, "bodies pruned after GC");
    }
}

/// A boundary's checkpoint images the state its batch left, whenever the
/// batch commits: it is sealed when the batch executes and published when
/// it commits. Boundary 4 and batch 5 execute tentatively, then 4 commits;
/// the root and the chain recorded for 4 are those of a group that stopped
/// at 4.
#[test]
fn a_boundary_that_commits_after_the_next_batch_ran_images_its_own_prefix() {
    let put = |net: &mut Net, i: u64| {
        net.submit(0, KvApp::op_put(i, 10 * i), false);
        net.pump(10_000);
        assert_eq!(net.completed(0), i, "put {i}");
    };
    let mut stopped = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 1..=4 {
        put(&mut stopped, i);
    }
    stopped.idle();
    let want = stopped.replicas[0].stable_checkpoint();
    assert_eq!(want.0, 4);
    let chain = stopped.replicas[0].exec_chain();

    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 1..=3 {
        put(&mut net, i);
    }
    net.hold = Some(Box::new(|_, _, disc| disc == 4));
    put(&mut net, 4);
    let boundary_commits = std::mem::take(&mut net.held);
    put(&mut net, 5);
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 5, "4 and 5 executed tentatively");
    }
    net.deliver(boundary_commits);
    net.pump(50_000);
    net.idle();
    for (i, r) in net.replicas.iter().enumerate() {
        assert!(r.log.get(5).is_some_and(|e| !e.committed), "5 is tentative");
        assert_eq!(r.stable_checkpoint(), want, "replica {i}: root of 4");
        assert_eq!(r.checkpoints[&4].1, chain, "replica {i}: chain at 4");
    }
}

/// A root with pages to hash is finished over the batches after its
/// boundary, one step per batch. A group that executes none after the
/// boundary still stabilises it: the status tick that finds a replica's
/// execution position where the previous tick left it finishes the root.
#[test]
fn a_group_idle_after_a_boundary_still_stabilises_it() {
    use crate::output::TimerKind;
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 0..4u64 {
        net.submit(0, KvApp::op_put(i, i), false);
        net.pump(10_000);
    }
    for r in &net.replicas {
        assert_eq!(r.last_executed(), 4);
        assert_eq!(
            r.sealed.map(|(seq, _)| seq),
            Some(4),
            "the boundary's root takes more than the boundary's step"
        );
        assert_eq!(r.stable_checkpoint().0, 0);
    }
    let tick = |net: &mut Net| {
        for i in 0..4 {
            net.fire_replica_timer(i, TimerKind::StatusTick);
        }
        net.pump(10_000);
    };
    tick(&mut net);
    for r in &net.replicas {
        assert_eq!(
            r.sealed.map(|(seq, _)| seq),
            Some(4),
            "a replica that executed since the previous tick is not idle"
        );
    }
    tick(&mut net);
    let root = net.replicas[0].state_handle().borrow_mut().refresh_digest();
    for r in &net.replicas {
        assert_eq!(r.sealed, None);
        assert_eq!(r.stable_checkpoint(), (4, root));
        assert_eq!(r.checkpoints[&4].0.root, root);
        assert_eq!(r.checkpoints[&4].1, r.exec_chain(), "the chain sealed at 4");
    }
}

/// A peer whose status reports it executing below the stable checkpoint
/// can only catch up by a transfer, to the next checkpoint the group
/// stabilises: its peers finish that root at the boundary instead of over
/// the next batches.
#[test]
fn a_peer_behind_the_stable_checkpoint_gets_the_next_root_at_once() {
    use crate::messages::StatusMsg;
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 0..4u64 {
        net.submit(0, KvApp::op_put(i, i), false);
        net.pump(10_000);
    }
    net.idle();
    let stable = net.replicas[0].stable_checkpoint();
    assert_eq!(stable.0, 4);
    // Replica 3 reports having executed nothing, as a blank restart does.
    let behind = StatusMsg {
        replica: ReplicaId(3),
        view: 0,
        last_stable_seq: 0,
        stable_root: stable.1,
        last_executed: 0,
        in_view_change: false,
    };
    for i in 0..3 {
        let mut res = crate::output::HandleResult::default();
        net.replicas[i].on_status(behind, net.now, &mut res);
        net.route(Source::Replica(i), res.outputs);
    }
    net.pump(10_000);
    for i in 4..8u64 {
        net.submit(0, KvApp::op_put(i, i), false);
        net.pump(10_000);
    }
    for r in &net.replicas[..3] {
        assert_eq!(r.sealed, None, "the root was finished at the boundary");
    }
    assert_eq!(
        net.replicas[3].sealed.map(|(seq, _)| seq),
        Some(8),
        "no peer was behind replica 3's stable checkpoint"
    );
    for r in &net.replicas {
        assert_eq!(r.stable_checkpoint().0, 8);
    }
}

/// Retirement is immediate and whole; freeing is one dead slot per executed
/// batch, in sequence order, everything on an idle status tick, and a
/// stabilisation that finds slots still unfreed frees them at once, so the
/// dead never hold more than the last stabilisation's worth. The
/// application writes no state page, so every boundary's root is finished
/// by the step the boundary itself takes and each checkpoint stabilises in
/// its boundary batch's round (a root with pages to hash is finished over
/// the next batches: `a_group_idle_after_a_boundary_still_stabilises_it`).
#[test]
fn retired_slots_are_reclaimed_one_per_executed_batch() {
    use crate::log::reference::unfreed;
    use crate::output::TimerKind;
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(8));
    let mut next_key = 0u64;
    let mut one_batch = |net: &mut Net| {
        net.submit(0, KvApp::op_put(next_key, next_key), false);
        next_key += 1;
        net.pump(10_000);
    };
    // `(seq, bodies held)` of every dead slot in `seqs`.
    let dead = |seqs: std::ops::RangeInclusive<u64>| seqs.map(|s| (s, 1)).collect::<Vec<_>>();
    // Interval 4, one request per batch: the fourth batch's checkpoint
    // stabilises and retires slots 1..=4 — out of the window and the body
    // store at once, each still holding its request's body.
    for _ in 0..4 {
        one_batch(&mut net);
    }
    for r in &net.replicas {
        assert_eq!(r.stable_checkpoint().0, 4);
        assert_eq!(
            r.log.iter().count(),
            0,
            "retired entries are out of the log"
        );
        assert_eq!(r.body_store_len(), 0, "retired bodies are out of the store");
        assert_eq!(unfreed(&r.log), dead(1..=4), "one interval dead");
    }
    // Each executed batch frees exactly one slot and its body.
    for freed in 1..4 {
        one_batch(&mut net);
        for r in &net.replicas {
            assert_eq!(unfreed(&r.log), dead(freed + 1..=4));
        }
    }
    // The eighth batch frees slot 4, and its checkpoint retires 5..=8.
    one_batch(&mut net);
    for r in &net.replicas {
        assert_eq!(r.stable_checkpoint().0, 8);
        assert_eq!((unfreed(&r.log), r.body_store_len()), (dead(5..=8), 0));
    }
    // A replica executing nothing frees on its status tick: the first tick
    // after a batch only notes the cursor, the next finds it where it was
    // and frees every dead slot.
    one_batch(&mut net);
    for i in 0..4 {
        net.fire_replica_timer(i, TimerKind::StatusTick);
    }
    net.pump(10_000);
    for r in &net.replicas {
        assert_eq!(
            unfreed(&r.log),
            dead(6..=8),
            "a replica that just executed is not idle"
        );
    }
    for i in 0..4 {
        net.fire_replica_timer(i, TimerKind::StatusTick);
    }
    net.pump(10_000);
    for r in &net.replicas {
        assert_eq!(unfreed(&r.log), vec![], "idle for a whole status interval");
        crate::log::reference::assert_freed_hold_nothing(&r.log);
    }
    // A stabilisation that finds slots unfreed frees them before it
    // retires its own. Lose the votes for checkpoint 12, so that 16 retires
    // two intervals (9..=16) at once; four batches later four of those
    // eight slots are still unfreed when 20 stabilises — and only 20's own
    // four remain.
    net.drop = Some(Box::new(|_, _, disc| disc == 6));
    for _ in 9..12 {
        one_batch(&mut net);
    }
    net.drop = None;
    for _ in 12..16 {
        one_batch(&mut net);
    }
    for r in &net.replicas {
        assert_eq!(r.stable_checkpoint().0, 16);
        assert_eq!(unfreed(&r.log), dead(9..=16));
    }
    for _ in 16..20 {
        one_batch(&mut net);
    }
    for r in &net.replicas {
        assert_eq!(r.stable_checkpoint().0, 20);
        assert_eq!(
            unfreed(&r.log),
            dead(17..=20),
            "the remainder of 9..=16 went at once"
        );
        crate::log::reference::assert_freed_hold_nothing(&r.log);
    }
}

/// Slots holding bodies, per replica: `(seq, view)`.
fn slots_holding_bodies(net: &Net) -> Vec<Vec<(u64, u64)>> {
    net.replicas
        .iter()
        .map(|r| {
            r.log
                .iter()
                .filter(|(_, e)| !e.bodies.is_empty())
                .map(|(&s, e)| (s, e.view))
                .collect()
        })
        .collect()
}

/// Of the slots `before` listed as holding bodies, how many a higher view
/// has since superseded, and how many left the log above its low watermark
/// (dropped as a stale tail).
fn superseded_and_dropped(net: &Net, before: &[Vec<(u64, u64)>]) -> (u32, u32) {
    let (mut superseded, mut dropped) = (0, 0);
    for (r, slots) in net.replicas.iter().zip(before) {
        for &(s, v) in slots {
            match r.log.get(s) {
                Some(e) if e.view > v => superseded += 1,
                None if s > r.log.low => dropped += 1,
                _ => {}
            }
        }
    }
    (superseded, dropped)
}

/// Every stabilisation in this crate's tests runs the old garbage
/// collection on copies and compares (`retire_reference`); this property
/// drives that oracle through random schedules of load, lost commits
/// followed by a primary failure (tentative execution, rollback, view
/// change), a batch prepared at one backup only that the next view leaves
/// out, lost checkpoint votes, blank restarts (state transfer) and status
/// ticks — and checks the body ownership invariant after every step.
#[test]
fn retirement_matches_the_old_garbage_collection_on_random_schedules() {
    use std::cell::Cell;

    use super::execution::retire_reference::{assert_bodies_owned, CHECKED};
    use crate::output::TimerKind;

    const CLIENTS: usize = 3;
    let (checked, view_changes, rollbacks, transfers) =
        (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
    let (superseded, dropped) = (Cell::new(0), Cell::new(0));
    propcheck::check_budgeted("retirement_matches_old_gc", 24, 200, |g| {
        let before = CHECKED.with(Cell::get);
        let mut net = Net::new(default_cfg(), CLIENTS, AppKind::Kv);
        // Per replica: its low watermark, and the one before it.
        let mut lows = [(0, 0); 4];
        let mut key = 0u64;
        let mut load = |net: &mut Net, rounds: usize| {
            for _ in 0..rounds {
                for c in 0..CLIENTS {
                    net.submit(c, KvApp::op_put(key % 64, key), false);
                    key += 1;
                }
                net.pump(200_000);
            }
        };
        let tick = |net: &mut Net| {
            for i in 0..4 {
                if net.alive[i] {
                    net.fire_replica_timer(i, TimerKind::StatusTick);
                }
            }
            net.pump(200_000);
        };
        for _ in 0..g.usize_in(4..14) {
            let holding = slots_holding_bodies(&net);
            match g.choice(7) {
                0 | 1 => load(&mut net, g.usize_in(1..5)),
                2 => {
                    // Batches that prepare but never commit execute
                    // tentatively; the primary then dies, and the new view
                    // rolls them back to the stable checkpoint and
                    // re-issues them, superseding their slots.
                    net.drop = Some(Box::new(|_, _, disc| disc == 4));
                    load(&mut net, g.usize_in(1..3));
                    net.drop = None;
                    let primary = net.replicas.iter().map(|r| r.view()).max().unwrap() as usize % 4;
                    let tentative = (0..4).any(|i| {
                        i != primary
                            && net.replicas[i]
                                .log
                                .iter()
                                .any(|(_, e)| e.executed && e.tentative)
                    });
                    net.alive[primary] = false;
                    // Work the dead primary will never order; a suspicion
                    // timer that sees no progress on it twice running votes.
                    for c in 0..CLIENTS {
                        net.submit(c, KvApp::op_put(c as u64, 0), false);
                    }
                    net.pump(200_000);
                    for _ in 0..2 {
                        for i in (0..4).filter(|&i| i != primary) {
                            net.fire_replica_timer(i, TimerKind::ViewChange);
                        }
                        net.pump(200_000);
                    }
                    net.alive[primary] = true;
                    let entered = (0..4)
                        .filter(|&i| i != primary)
                        .all(|i| net.replicas[i].view() as usize % 4 != primary);
                    view_changes.set(view_changes.get() + u32::from(entered));
                    rollbacks.set(rollbacks.get() + u32::from(entered && tentative));
                    for c in 0..CLIENTS {
                        if net.clients[c].has_outstanding() {
                            net.fire_client_timer(c, TimerKind::Retransmit);
                        }
                    }
                    net.pump(200_000);
                    tick(&mut net);
                }
                3 => {
                    // A blank restart: the replica finds its footing by
                    // state transfer.
                    let i = g.index(4);
                    net.replicas[i] = make_replica(&net.cfg, i as u32, AppKind::Kv, &[]);
                    let res = net.replicas[i].on_start(net.now, true);
                    net.route(Source::Replica(i), res.outputs);
                    net.pump(200_000);
                    for c in 0..CLIENTS {
                        net.fire_client_timer(c, TimerKind::NewKey);
                    }
                    net.pump(200_000);
                    transfers
                        .set(transfers.get() + net.replicas[i].metrics().state_transfers_completed);
                }
                4 => {
                    // Lost checkpoint votes: the next stabilisation retires
                    // more than one interval.
                    net.drop = Some(Box::new(|_, _, disc| disc == 6));
                    load(&mut net, g.usize_in(1..3));
                    net.drop = None;
                }
                5 => {
                    // One backup alone sees the prepares of a batch (and
                    // nobody its commits), so it alone executes it
                    // tentatively. The other three vote the next view
                    // without it: the new view leaves the batch out, and
                    // that backup's slot is dropped as a stale tail or
                    // superseded by a gap-filling null.
                    let view = net.replicas.iter().map(|r| r.view()).max().unwrap();
                    let (primary, next) = (view as usize % 4, (view as usize + 1) % 4);
                    let others: Vec<usize> =
                        (0..4).filter(|&i| i != primary && i != next).collect();
                    let lone = others[g.index(2)];
                    let to_lone = NetTarget::Replica(ReplicaId(lone as u32));
                    net.drop = Some(Box::new(move |_, to, disc| {
                        disc == 4 || (disc == 3 && *to != to_lone)
                    }));
                    net.submit(0, KvApp::op_put(63, 0), false);
                    net.pump(200_000);
                    net.drop = None;
                    for _ in 0..2 {
                        for i in (0..4).filter(|&i| i != lone) {
                            net.fire_replica_timer(i, TimerKind::ViewChange);
                        }
                        net.pump(200_000);
                    }
                    for c in 0..CLIENTS {
                        if net.clients[c].has_outstanding() {
                            net.fire_client_timer(c, TimerKind::Retransmit);
                        }
                    }
                    net.pump(200_000);
                    tick(&mut net);
                }
                _ => tick(&mut net),
            }
            let (s, d) = superseded_and_dropped(&net, &holding);
            superseded.set(superseded.get() + s);
            dropped.set(dropped.get() + d);
            for (r, low) in net.replicas.iter().zip(&mut lows) {
                if r.log.low < low.0 {
                    *low = (0, 0); // a blank restart
                }
                if r.log.low != low.0 {
                    *low = (r.log.low, low.0);
                }
                assert_bodies_owned(r, low.1);
                // The watermark sits below `last_executed` only while an
                // executed slot is tentative. An older view's batch run in a
                // newer view (after a rollback, or with no rollback when the
                // view was adopted from statuses) left one that the newer
                // view's pre-prepare re-created unexecuted.
                assert!(
                    r.committed_upto == r.last_executed
                        || r.log.iter().any(|(_, e)| e.executed && e.tentative),
                    "replica {}: commit watermark {} below last_executed {} with no slot tentative",
                    r.id().0,
                    r.committed_upto,
                    r.last_executed
                );
            }
        }
        load(&mut net, 2);
        checked.set(checked.get() + CHECKED.with(Cell::get) - before);
    });
    // The schedules reached what they were built to reach.
    assert!(
        checked.get() >= 200,
        "{} stabilisations checked",
        checked.get()
    );
    assert!(
        view_changes.get() >= 5,
        "{} view changes",
        view_changes.get()
    );
    assert!(
        rollbacks.get() >= 3,
        "{} tentative rollbacks",
        rollbacks.get()
    );
    assert!(transfers.get() >= 5, "{} state transfers", transfers.get());
    assert!(
        superseded.get() >= 10,
        "{} slots holding bodies superseded",
        superseded.get()
    );
    assert!(
        dropped.get() >= 3,
        "{} slots holding bodies dropped",
        dropped.get()
    );
}

/// A replica stranded in a view change adopts the group's newer view from
/// its peers' statuses. The batch it alone executed tentatively in the old
/// view is replaced in the new one (same request, the new primary's
/// non-determinism), so adopting the view must roll it back, as entering a
/// new view does; otherwise the new view's batch at that sequence number
/// never runs there.
#[test]
fn a_view_adopted_from_statuses_rolls_back_the_old_views_tentative_batch() {
    use crate::output::{HandleResult, TimerKind};

    let to3 = |to: &NetTarget| *to == NetTarget::Replica(ReplicaId(3));
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    // Only replica 3 sees the prepares, and nobody the commits: it alone
    // executes seq 1, tentatively, in view 0.
    net.drop = Some(Box::new(move |_, to, disc| {
        disc == 4 || (disc == 3 && !to3(to))
    }));
    net.submit(0, KvApp::op_put(1, 1), false);
    net.pump(10_000);
    let r3 = &net.replicas[3];
    assert_eq!((r3.last_executed(), r3.committed_upto), (1, 0));
    // Replica 3 votes for view 2, alone; the other three move to view 1
    // without it, and its new primary orders the request again at seq 1.
    let mut res = HandleResult::default();
    net.replicas[3].start_view_change(2, net.now, &mut res);
    net.drop = Some(Box::new(move |src, to, _| {
        to3(to) || src == Source::Replica(3)
    }));
    net.route(Source::Replica(3), res.outputs);
    for _ in 0..2 {
        for i in 0..3 {
            net.fire_replica_timer(i, TimerKind::ViewChange);
        }
        net.pump(10_000);
    }
    assert!((0..3).all(|i| net.replicas[i].view() == 1 && net.replicas[i].last_executed() == 1));
    assert_ne!(
        net.replicas[3].exec_chain(),
        net.replicas[0].exec_chain(),
        "view 1 ordered a different batch at seq 1"
    );
    // The statuses bring replica 3 into view 1, and then the group's
    // retransmissions its batch.
    net.drop = None;
    net.idle();
    net.idle();
    let r3 = &net.replicas[3];
    assert_eq!(r3.view(), 1);
    assert_eq!((r3.last_executed(), r3.committed_upto), (1, 1));
    net.assert_chains_equal(&[0, 1, 2, 3]);
}

/// A request the group ordered twice — a new primary re-queues an observed
/// request that the new view also re-issues — finds its body the second
/// time in the slot that executed it first, and a stable checkpoint that
/// retires those slots while a third ordering still waits keeps the body
/// for it, as the old shared store did.
#[test]
fn a_request_ordered_twice_finds_its_body() {
    use crate::messages::{BatchEntry, PrePrepareMsg};
    use crate::output::HandleResult;

    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    net.submit(0, KvApp::op_put(1, 1), false);
    net.pump(10_000);
    let now = net.now;
    let r = &mut net.replicas[1];
    assert_eq!(r.last_executed(), 1);
    let (digest, req) = r.log.get(1).expect("slot 1").bodies[0].clone();
    assert!(!r.bodies.contains_key(&digest), "slot 1 owns it");
    // Slots 2 and 3 name the same request again: 2 commits, 3 waits.
    for seq in [2, 3] {
        let pp = PrePrepareMsg {
            view: 0,
            seq,
            nondet: NonDet::default(),
            entries: vec![BatchEntry {
                digest,
                client: req.client,
                timestamp: req.timestamp,
                full: None,
            }],
        };
        let e = r
            .log
            .entry_for(seq, 0, pp.batch_digest(), &mut r.bodies)
            .expect("slot");
        e.preprepare = Some(pp);
        e.prepared = seq == 2;
        e.committed = seq == 2;
    }
    let mut res = HandleResult::default();
    r.try_execute(now, &mut res);
    assert_eq!(r.last_executed(), 2, "slot 2 found the body in slot 1");
    assert_eq!(r.metrics().stuck_missing_body, 0);

    // Slots 1 and 2 retire; slot 3 still names the body.
    let root = pbft_crypto::Digest::of(b"checkpoint 2");
    r.ckpt_votes
        .insert((2, root), (0..3).map(ReplicaId).collect());
    r.maybe_stabilize(2, root, now, &mut res);
    assert_eq!(r.stable_checkpoint().0, 2);
    assert!(r.bodies.contains_key(&digest), "kept for slot 3");
    let e = r.log.get_mut(3).expect("slot 3");
    (e.prepared, e.committed) = (true, true);
    r.try_execute(now, &mut res);
    assert_eq!(r.last_executed(), 3);
    assert!(r.log.get(3).expect("slot 3").held(&digest).is_some());
    // Execution does not dedupe: the one put ran once per slot that named
    // it (ARCHITECTURE.md, "Deliberate deviations").
    assert_eq!(r.metrics().executed_requests, 3);
}

/// A pre-prepare whose inline body is not the request its entry names is
/// refused. The batch digest covers only the entries' digests, clients and
/// timestamps, so without the check a Byzantine primary could order
/// `put(1, 1)` at some backups and `put(1, 666)` at others in one slot.
#[test]
fn an_inline_body_must_be_the_request_its_entry_names() {
    use crate::messages::{BatchEntry, Operation, PrePrepareMsg, RequestMsg};
    use crate::output::HandleResult;

    let cfg = PbftConfig {
        all_requests_big: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 1, AppKind::Kv);
    let honest = RequestMsg {
        client: ClientId(1),
        timestamp: 1,
        read_only: false,
        reply_addr: CLIENT_ADDR_BASE,
        op: Operation::App(KvApp::op_put(1, 1)),
    };
    let digest = honest.digest();
    let forged = RequestMsg {
        op: Operation::App(KvApp::op_put(1, 666)),
        ..honest.clone()
    };
    let now = net.now;
    let pp = |full: &RequestMsg, client: u64, timestamp: u64| PrePrepareMsg {
        view: 0,
        seq: 1,
        nondet: NonDet {
            timestamp_ns: now,
            random: 0,
        },
        entries: vec![BatchEntry {
            digest,
            client: ClientId(client),
            timestamp,
            full: Some(full.clone()),
        }],
    };
    assert_eq!(
        pp(&honest, 1, 1).batch_digest(),
        pp(&forged, 1, 1).batch_digest()
    );
    let accepts = |r: &mut Replica, pp: PrePrepareMsg| {
        let mut res = HandleResult::default();
        r.on_preprepare(pp, now, false, &mut res);
        r.log.get(1).is_some_and(|e| e.preprepare.is_some())
    };
    assert!(accepts(&mut net.replicas[1], pp(&honest, 1, 1)));
    assert!(net.replicas[1].bodies.contains_key(&digest));
    let refused = [
        ("another body under the digest", pp(&forged, 1, 1)),
        ("an entry naming another client", pp(&honest, 2, 1)),
        ("an entry naming another timestamp", pp(&honest, 1, 2)),
    ];
    for (what, pp) in refused {
        let r = &mut net.replicas[2];
        assert!(!accepts(r, pp), "{what}");
        assert!(!r.bodies.contains_key(&digest), "{what}: body stored");
    }
}

/// A slot's votes are a 128-bit mask; a larger group is refused by name
/// instead of by a shift overflow on its 129th replica.
#[test]
#[should_panic(expected = "exceeds the 128")]
fn group_larger_than_the_vote_mask_is_refused() {
    let cfg = PbftConfig {
        f: 43, // n = 130
        ..default_cfg()
    };
    Replica::new(
        cfg,
        SEED,
        ReplicaId(0),
        make_state(),
        Box::new(NullApp::new(8)),
        &[],
    );
}

// ----------------------------------------------------------------------
// §2.4: big-request body loss
// ----------------------------------------------------------------------

#[test]
fn lost_big_request_body_wedges_replica_until_checkpoint() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    // Drop the client's request multicast to replica 3 only.
    net.drop = Some(Box::new(|src, to, disc| {
        matches!(src, Source::Client(0)) && *to == NetTarget::Replica(ReplicaId(3)) && disc == 1
        // request
    }));
    net.submit(0, KvApp::op_put(1, 1), false);
    net.pump(50_000);
    // Replicas 0-2 executed; replica 3 is wedged on the missing body.
    assert_eq!(
        net.completed(0),
        1,
        "quorum of 3 replicas still serves the client"
    );
    assert_eq!(net.replicas[3].last_executed(), 0);
    assert!(net.replicas[3].metrics().stuck_missing_body > 0);
    // Stop dropping; drive to the next checkpoint: replica 3 recovers via
    // state transfer ("will be stuck at this point until the next checkpoint
    // arrives and the recovery process kicks in").
    net.drop = None;
    for i in 2..=4u64 {
        net.submit(0, KvApp::op_put(i, i), false);
        net.pump(50_000);
    }
    net.pump(50_000);
    net.idle();
    assert!(net.replicas[3].metrics().state_transfers_completed >= 1);
    assert_eq!(net.replicas[3].last_executed(), 4);
    net.assert_states_equal(&[0, 1, 2, 3]);
}

#[test]
fn body_fetch_fix_recovers_without_checkpoint() {
    let cfg = PbftConfig {
        fetch_missing_bodies: true,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 1, AppKind::Kv);
    net.drop = Some(Box::new(|src, to, disc| {
        matches!(src, Source::Client(0)) && *to == NetTarget::Replica(ReplicaId(3)) && disc == 1
    }));
    net.submit(0, KvApp::op_put(1, 1), false);
    net.pump(50_000);
    net.drop = None;
    // The wedged replica multicast BodyFetch; peers answered; no checkpoint
    // needed.
    assert_eq!(net.replicas[3].last_executed(), 1);
    assert_eq!(net.replicas[3].metrics().state_transfers_completed, 0);
    net.assert_states_equal(&[0, 1, 2, 3]);
}

// ----------------------------------------------------------------------
// View changes
// ----------------------------------------------------------------------

#[test]
fn primary_failure_triggers_view_change_and_request_survives() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    net.alive[0] = false; // crash the primary of view 0
    net.submit(0, KvApp::op_put(5, 55), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 0, "no primary, no progress");
    // Backups' suspicion timers fire.
    for i in 1..4 {
        net.fire_replica_timer(i, crate::output::TimerKind::ViewChange);
    }
    net.pump(100_000);
    for i in 1..4 {
        assert_eq!(net.replicas[i].view(), 1, "replica {i}");
    }
    assert_eq!(net.completed(0), 1, "request executed in the new view");
    net.assert_chains_equal(&[1, 2, 3]);
    net.assert_states_equal(&[1, 2, 3]);
}

#[test]
fn prepared_request_survives_view_change() {
    // The primary orders a request and dies after prepares circulate; the
    // new view must re-issue the same batch (safety of the P set).
    // Tentative execution is off so that "prepared" does not already answer
    // the client.
    let cfg = PbftConfig {
        tentative_execution: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 1, AppKind::Kv);
    // Drop every commit so nothing executes in view 0, but prepares flow.
    net.drop = Some(Box::new(|_, _, disc| disc == 4));
    net.submit(0, KvApp::op_put(9, 99), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 0);
    net.drop = None;
    net.alive[0] = false;
    for i in 1..4 {
        net.fire_replica_timer(i, crate::output::TimerKind::ViewChange);
    }
    net.pump(100_000);
    assert_eq!(
        net.completed(0),
        1,
        "prepared request re-executed in view 1"
    );
    net.assert_states_equal(&[1, 2, 3]);
    // The value must be the one the old primary ordered.
    net.submit(0, KvApp::op_get(9), true);
    net.pump(50_000);
    let evs = net.client_events(0);
    let last = evs.last().expect("read reply");
    match last {
        ClientEvent::ReplyDelivered { result, .. } => {
            assert_eq!(u64::from_be_bytes(result[8..16].try_into().unwrap()), 99);
        }
        other => panic!("unexpected event {other:?}"),
    }
}

#[test]
fn successive_primary_failures_advance_views() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Null(16));
    net.alive[0] = false;
    net.alive[1] = false; // the next primary is dead too — but f=1 means
                          // only one *Byzantine* fault; two crashed replicas
                          // still leave 2f+1=3... no: n=4 with 2 dead leaves
                          // 2 < 2f+1. So revive 1 after the first round.
    net.submit(0, vec![1], false);
    net.pump(50_000);
    for i in 2..4 {
        net.fire_replica_timer(i, crate::output::TimerKind::ViewChange);
    }
    net.pump(50_000);
    // View 1's primary (replica 1) is dead: the new-view timeout fires and
    // pushes everyone to view 2.
    net.alive[1] = true;
    for i in 2..4 {
        net.fire_replica_timer(i, crate::output::TimerKind::NewViewTimeout);
    }
    net.pump(100_000);
    for i in 2..4 {
        assert_eq!(net.replicas[i].view(), 2, "replica {i}");
    }
    // Only 2 of 4 replicas hold the request body (replica 1 missed the
    // original multicast), so the client needs stable replies — which its
    // retransmission collects.
    net.fire_client_timer(0, crate::output::TimerKind::Retransmit);
    net.pump(100_000);
    assert_eq!(net.completed(0), 1);
}

// ----------------------------------------------------------------------
// §2.3: crash-restart recovery and the authenticator stall
// ----------------------------------------------------------------------

#[test]
fn restarted_replica_recovers_via_state_transfer() {
    let mut net = Net::new(default_cfg(), 1, AppKind::Kv);
    for i in 0..4u64 {
        net.submit(0, KvApp::op_put(i, i * 10), false);
        net.pump(50_000);
    }
    net.idle();
    assert_eq!(net.completed(0), 4);
    // Crash replica 2 and replace it with a blank instance (transient state
    // and client session keys lost; durable state zeroed — the strongest
    // form of the §2.3 scenario).
    net.alive[2] = false;
    net.replicas[2] = make_replica(&net.cfg, 2, AppKind::Kv, &[]);
    net.alive[2] = true;
    let res = net.replicas[2].on_start(net.now, true);
    net.route(Source::Replica(2), res.outputs);
    net.pump(50_000);
    assert!(net.replicas[2].metrics().state_transfers_completed >= 1);
    assert_eq!(net.replicas[2].last_executed(), 4);
    net.assert_states_equal(&[0, 1, 2, 3]);
    assert!(!net.replicas[2].is_recovering());

    // The restarted replica has no client session keys: fresh requests fail
    // authentication there (the paper's authenticator stall)...
    net.submit(0, KvApp::op_put(50, 1), false);
    net.pump(50_000);
    assert!(net.replicas[2].metrics().auth_failures > 0);
    // ...until the client's blind NewKey retransmission timer fires (§2.3).
    net.fire_client_timer(0, crate::output::TimerKind::NewKey);
    net.pump(50_000);
    net.submit(0, KvApp::op_put(51, 2), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 6);
    // And the replica executes again (caught up at the next checkpoint at
    // the latest).
    for i in 0..6u64 {
        net.submit(0, KvApp::op_put(60 + i, i), false);
        net.pump(50_000);
    }
    net.pump(50_000);
    net.assert_states_equal(&[0, 1, 2, 3]);
}

// ----------------------------------------------------------------------
// Dynamic membership (§3.1)
// ----------------------------------------------------------------------

fn dynamic_cfg() -> PbftConfig {
    PbftConfig {
        dynamic_membership: true,
        ..default_cfg()
    }
}

#[test]
fn dynamic_client_joins_and_executes() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::Kv);
    let mut dyn_client = Client::new_dynamic(cfg, SEED, 7, CLIENT_ADDR_BASE, b"alice:pw".to_vec());
    let res = dyn_client.on_start(net.now);
    net.clients.push(dyn_client);
    net.route(Source::Client(0), res.outputs);
    net.pump(50_000);
    let evs = net.client_events(0);
    let joined = evs.iter().find_map(|e| match e {
        ClientEvent::Joined(id) => Some(*id),
        _ => None,
    });
    let id = joined.expect("join completed");
    assert!(net.clients[0].is_member());
    for r in &net.replicas {
        let m = r.membership().expect("dynamic mode");
        assert!(m.contains(id));
        assert_eq!(m.active_sessions(), 1);
    }
    // And the joined client can execute application requests over MACs.
    net.submit(0, KvApp::op_put(1, 111), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1);
    net.assert_states_equal(&[0, 1, 2, 3]);
}

#[test]
fn leave_terminates_session() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::Null(16));
    let mut dyn_client = Client::new_dynamic(cfg, SEED, 9, CLIENT_ADDR_BASE, b"bob".to_vec());
    let res = dyn_client.on_start(net.now);
    net.clients.push(dyn_client);
    net.route(Source::Client(0), res.outputs);
    net.pump(50_000);
    assert!(net.clients[0].is_member());
    net.submit(0, vec![1], false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1);

    let res = net.clients[0].leave(net.now);
    net.route(Source::Client(0), res.outputs);
    net.pump(50_000);
    // The Leave itself completes as a request (hence completed == 2).
    assert_eq!(net.completed(0), 2);
    for r in &net.replicas {
        assert_eq!(r.membership().expect("dynamic").active_sessions(), 0);
    }
    let id = net.clients[0].id();
    assert_session_ended(&mut net, id);
    // Further requests are rejected ("all further communication with the
    // service is prohibited").
    let failures_before: u64 = net.replicas.iter().map(|r| r.metrics().auth_failures).sum();
    net.submit(0, vec![2], false);
    net.pump(50_000);
    let failures_after: u64 = net.replicas.iter().map(|r| r.metrics().auth_failures).sum();
    assert!(failures_after > failures_before);
    assert_eq!(net.completed(0), 2, "request after leave must not complete");
}

#[test]
fn second_join_with_same_identity_terminates_first_session() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::Null(16));
    let mut c1 = Client::new_dynamic(cfg.clone(), SEED, 11, CLIENT_ADDR_BASE, b"carol".to_vec());
    let res = c1.on_start(net.now);
    net.clients.push(c1);
    net.route(Source::Client(0), res.outputs);
    net.pump(50_000);
    assert!(net.clients[0].is_member());
    let first_id = net.clients[0].id();

    // A second device joins with the same application identity.
    let mut c2 = Client::new_dynamic(cfg, SEED, 12, CLIENT_ADDR_BASE + 1, b"carol".to_vec());
    let res = c2.on_start(net.now);
    net.clients.push(c2);
    net.route(Source::Client(1), res.outputs);
    net.pump(50_000);
    assert!(net.clients[1].is_member());
    for r in &net.replicas {
        let m = r.membership().expect("dynamic");
        assert_eq!(m.active_sessions(), 1, "single session per identity");
        assert!(!m.contains(first_id), "previous session terminated");
    }
    assert_session_ended(&mut net, first_id);
}

/// No replica holds anything of `client`'s ended session: no public key, no
/// MAC session key, no session blob.
fn assert_session_ended(net: &mut Net, client: ClientId) {
    use crate::messages::view::PacketView;
    use crate::messages::{Envelope, Message, Operation, RequestMsg, Sender};

    let probe = Message::Request(RequestMsg {
        client,
        timestamp: u64::MAX,
        read_only: false,
        reply_addr: CLIENT_ADDR_BASE,
        op: Operation::App(b"probe".to_vec()),
    });
    let prefix = Envelope::encode_prefix(Sender::Client(client), &probe);
    let mut counts = crate::output::OpCounts::default();
    let auth = crate::keys::ClientKeys::new(SEED, client, net.cfg.n()).seal_request(
        AuthMode::Macs,
        &prefix,
        &mut counts,
    );
    let packet = Envelope::seal(prefix, &auth);
    let view = PacketView::parse(&packet).expect("the probe parses");
    for r in &mut net.replicas {
        let me = r.id();
        assert!(
            r.keys.client_pubkey(client).is_none(),
            "{me:?} keeps the public key of {client:?}"
        );
        assert!(
            !r.keys
                .verify_client(client, view.prefix(), view.auth, None, &mut counts),
            "{me:?} keeps the session key of {client:?}"
        );
        assert!(
            r.sessions.get(client).is_none(),
            "{me:?} keeps the session state of {client:?}"
        );
    }
}

#[test]
fn stale_eviction_ends_sessions_and_the_evicted_are_refused() {
    use super::execution::SESSION_STALE_NS;
    use super::MAX_CLIENTS;
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    for i in 0..MAX_CLIENTS {
        let identity = format!("member-{i}");
        let addr = CLIENT_ADDR_BASE + i as NetAddr;
        let c = join_dynamic_client(&mut net, &cfg, 100 + i as u64, addr, identity.as_bytes());
        net.submit(c, b"incr".to_vec(), false);
        net.pump(50_000);
        assert_eq!(net.completed(c), 1);
    }
    let members: Vec<ClientId> = net.clients.iter().map(Client::id).collect();
    for r in &net.replicas {
        assert_eq!(r.sessions.len(), MAX_CLIENTS, "every member holds state");
    }

    // Every member goes stale; a 65th join evicts all 64.
    net.now += SESSION_STALE_NS + 1_000_000_000;
    let addr = CLIENT_ADDR_BASE + MAX_CLIENTS as NetAddr;
    join_dynamic_client(&mut net, &cfg, 999, addr, b"latecomer");
    for r in &net.replicas {
        assert_eq!(r.membership().expect("dynamic").active_sessions(), 1);
        assert!(r.sessions.is_empty());
    }
    for &id in &members {
        assert_session_ended(&mut net, id);
    }

    // The evicted client's next request is refused.
    net.submit(0, b"incr".to_vec(), false);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1, "an evicted client is not served");

    // Membership alone admits: a session key installed by hand for the
    // evicted id admits nobody.
    for r in &mut net.replicas {
        let key = crate::keys::client_session_key(SEED, members[0], r.id());
        r.keys.install_client_key(members[0], *key.as_bytes());
    }
    net.fire_client_timer(0, crate::output::TimerKind::Retransmit);
    net.pump(50_000);
    assert_eq!(net.completed(0), 1, "a key without membership is refused");
    net.assert_states_equal(&[0, 1, 2, 3]);
}

#[test]
fn anonymous_join_cannot_overflow_the_membership_table() {
    use crate::membership::SECTION_FULL;
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::Null(16));
    // One self-signed phase one whose identification buffer alone exceeds
    // the 4-page section: denied, on every replica, without an entry.
    let mut big = Client::new_dynamic(cfg.clone(), SEED, 30, CLIENT_ADDR_BASE, vec![7; 16_400]);
    let res = big.on_start(net.now);
    net.clients.push(big);
    net.route(Source::Client(0), res.outputs);
    net.pump(50_000);
    let denied = format!("denied:{SECTION_FULL}");
    assert!(
        net.client_events(0)
            .contains(&ClientEvent::JoinDenied(denied)),
        "the oversized join is denied"
    );
    for r in &net.replicas {
        assert_eq!(r.membership().expect("dynamic").pending_joins(), 0);
        assert_eq!(r.metrics().table_refusals, 1);
    }

    // An honest join whose phase one is ordered before the flood; holding
    // its challenge puts its phase two after it.
    let honest_addr = CLIENT_ADDR_BASE + 1;
    net.hold = Some(Box::new(move |_, to, _| {
        *to == NetTarget::Client(honest_addr)
    }));
    let mut honest = Client::new_dynamic(cfg.clone(), SEED, 31, honest_addr, vec![0xAA; 64]);
    let res = honest.on_start(net.now);
    net.clients.push(honest);
    net.route(Source::Client(1), res.outputs);
    net.pump(50_000);

    // A flood of phase ones with 64-byte buffers that never answer their
    // challenge (no client listens at their addresses). Each pending entry
    // takes 160 bytes of the image, so 101 fit beside the 80 bytes of an
    // empty 64-slot table: the honest attempt and the first 100 of the
    // flood. The 101st is denied.
    for i in 0..101u64 {
        let addr = CLIENT_ADDR_BASE + 1_000 + i as NetAddr;
        let mut c = Client::new_dynamic(cfg.clone(), SEED, 100 + i, addr, vec![i as u8; 64]);
        let res = c.on_start(net.now);
        net.route(Source::Client(2), res.outputs);
    }
    net.pump(500_000);
    for r in &net.replicas {
        assert_eq!(r.membership().expect("dynamic").pending_joins(), 101);
        assert_eq!(r.metrics().table_refusals, 2);
    }

    net.release_held();
    net.pump(50_000);
    assert!(
        net.clients[1].is_member(),
        "the earlier pending join completes"
    );
    net.assert_states_equal(&[0, 1, 2, 3]);
}

// ----------------------------------------------------------------------
// §2.5: non-determinism validation
// ----------------------------------------------------------------------

#[test]
fn stale_nondet_rejected_when_validation_enforced() {
    let mut cfg = default_cfg();
    cfg.nondet.validate_window_ns = 1_000; // 1µs window: everything is stale
    cfg.nondet.skip_validation_on_replay = false;
    let mut net = Net::new(cfg, 1, AppKind::Null(16));
    net.submit(0, vec![1], false);
    net.pump(50_000);
    // Backups rejected the pre-prepare: nothing executes.
    assert_eq!(net.completed(0), 0);
    let rejections: u64 = net
        .replicas
        .iter()
        .map(|r| r.metrics().nondet_validation_failures)
        .sum();
    assert!(rejections >= 3, "all backups rejected, got {rejections}");
}

// ----------------------------------------------------------------------
// §3.3.2: the per-session state subsystem
// ----------------------------------------------------------------------

fn join_dynamic_client(
    net: &mut Net,
    cfg: &PbftConfig,
    seed_id: u64,
    addr: NetAddr,
    identity: &[u8],
) -> usize {
    let mut c = Client::new_dynamic(cfg.clone(), SEED, seed_id, addr, identity.to_vec());
    let res = c.on_start(net.now);
    let idx = net.clients.len();
    net.clients.push(c);
    net.route(Source::Client(idx), res.outputs);
    net.pump(50_000);
    assert!(net.clients[idx].is_member(), "join completed");
    idx
}

#[test]
fn session_state_accumulates_across_requests() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    let c = join_dynamic_client(&mut net, &cfg, 21, CLIENT_ADDR_BASE, b"dave");
    for expect in 1..=3u64 {
        net.submit(c, b"incr".to_vec(), false);
        net.pump(50_000);
        assert_eq!(net.completed(c), expect);
        let reply = net.last_reply(c).expect("reply");
        assert_eq!(
            reply,
            expect.to_be_bytes().to_vec(),
            "library session state persists"
        );
    }
    // The session table lives in the replicated region: identical on all.
    net.assert_states_equal(&[0, 1, 2, 3]);
}

#[test]
fn leave_clears_session_state() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    let c = join_dynamic_client(&mut net, &cfg, 22, CLIENT_ADDR_BASE, b"erin");
    net.submit(c, b"incr".to_vec(), false);
    net.pump(50_000);
    let res = net.clients[c].leave(net.now);
    net.route(Source::Client(c), res.outputs);
    net.pump(50_000);
    // Rejoin with the same identity: the counter must restart from zero.
    let c2 = join_dynamic_client(&mut net, &cfg, 23, CLIENT_ADDR_BASE + 1, b"erin");
    net.submit(c2, b"incr".to_vec(), false);
    net.pump(50_000);
    assert_eq!(
        net.last_reply(c2).expect("reply"),
        1u64.to_be_bytes().to_vec()
    );
}

#[test]
fn session_takeover_clears_previous_state() {
    let cfg = dynamic_cfg();
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    let c1 = join_dynamic_client(&mut net, &cfg, 24, CLIENT_ADDR_BASE, b"frank");
    net.submit(c1, b"incr".to_vec(), false);
    net.pump(50_000);
    net.submit(c1, b"incr".to_vec(), false);
    net.pump(50_000);
    // A second device signs on with the same identity, terminating the
    // first session — and its library-managed state.
    let c2 = join_dynamic_client(&mut net, &cfg, 25, CLIENT_ADDR_BASE + 1, b"frank");
    net.submit(c2, b"incr".to_vec(), false);
    net.pump(50_000);
    assert_eq!(
        net.last_reply(c2).expect("reply"),
        1u64.to_be_bytes().to_vec(),
        "takeover starts from a clean session"
    );
}

#[test]
fn session_state_survives_state_transfer() {
    let mut cfg = dynamic_cfg();
    cfg.checkpoint_interval = 4;
    cfg.log_size = 16;
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    let c = join_dynamic_client(&mut net, &cfg, 26, CLIENT_ADDR_BASE, b"grace");
    for _ in 0..6 {
        net.submit(c, b"incr".to_vec(), false);
        net.pump(50_000);
    }
    net.idle();
    // Crash replica 3 and bring it back blank: it must recover the session
    // table through the Merkle transfer.
    net.alive[3] = false;
    net.replicas[3] = make_replica(&net.cfg, 3, AppKind::SessionCounter, &[]);
    net.alive[3] = true;
    let res = net.replicas[3].on_start(net.now, true);
    net.route(Source::Replica(3), res.outputs);
    net.pump(50_000);
    assert!(net.replicas[3].metrics().state_transfers_completed >= 1);
    // The restarted replica lost the client's MAC session key (§2.3): the
    // client's blind NewKey retransmission re-installs it.
    net.fire_client_timer(c, crate::output::TimerKind::NewKey);
    net.pump(50_000);
    // The recovered replica serves the session correctly: next incr = 7 on
    // every replica (exercised through the normal agreement path).
    net.submit(c, b"incr".to_vec(), false);
    net.pump(50_000);
    assert_eq!(
        net.last_reply(c).expect("reply"),
        7u64.to_be_bytes().to_vec()
    );
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// A member's public key has one home, its membership session: a replica
/// that learns the Join only through state transfer verifies the member's
/// signed NewKey and signed request like the replicas that executed it.
#[test]
fn a_replica_that_transferred_the_join_verifies_the_members_signatures() {
    use crate::messages::view::PacketView;
    use pbft_crypto::Digest;

    let cfg = PbftConfig {
        auth: AuthMode::Signatures,
        ..dynamic_cfg()
    };
    let mut net = Net::new(cfg.clone(), 0, AppKind::SessionCounter);
    let c = join_dynamic_client(&mut net, &cfg, 27, CLIENT_ADDR_BASE, b"heidi");
    for _ in 0..6 {
        net.submit(c, b"incr".to_vec(), false);
        net.pump(50_000);
    }
    net.idle();
    assert_eq!(net.completed(c), 6);
    // Replica 3 comes back blank: the Join reaches it only in the
    // transferred membership table.
    net.alive[3] = false;
    net.replicas[3] = make_replica(&net.cfg, 3, AppKind::SessionCounter, &[]);
    net.alive[3] = true;
    let res = net.replicas[3].on_start(net.now, true);
    net.route(Source::Replica(3), res.outputs);
    net.pump(50_000);
    let member = net.clients[c].id();
    assert!(net.replicas[3].metrics().state_transfers_completed >= 1);
    assert!(net.replicas[3]
        .membership()
        .expect("dynamic")
        .contains(member));

    // The signed NewKey verifies and installs the session key.
    let res = net.clients[c].redistribute_session_keys();
    net.route(Source::Client(c), res.outputs);
    net.pump(50_000);
    assert_eq!(net.replicas[3].metrics().auth_failures, 0, "NewKey refused");
    assert!(net.replicas[3]
        .keys
        .can_seal_to_client(AuthMode::Macs, member));

    // The signed request verifies and its body is stored.
    let packet = submit_capturing(&mut net, c, b"incr".to_vec());
    let digest = Digest::of(PacketView::parse(&packet).expect("parses").body());
    let (_, to, packet, _) = net.queue.pop_back().expect("replica 3's copy");
    assert_eq!(to, NetTarget::Replica(ReplicaId(3)));
    let res = net.replicas[3].handle_packet(&packet, net.now);
    net.route(Source::Replica(3), res.outputs);
    assert_eq!(
        net.replicas[3].metrics().auth_failures,
        0,
        "request refused"
    );
    assert!(
        net.replicas[3].bodies.contains_key(&digest),
        "body not stored"
    );
    net.pump(50_000);
    assert_eq!(net.completed(c), 7);
    assert_eq!(
        net.last_reply(c).expect("reply"),
        7u64.to_be_bytes().to_vec()
    );
    net.assert_states_equal(&[0, 1, 2, 3]);
}

/// Writes a full [`crate::session::MAX_SESSION_BYTES`] blob into the
/// requesting session and replies with the outcome.
struct FullSessionApp;

impl App for FullSessionApp {
    fn execute(
        &mut self,
        _client: ClientId,
        _op: &[u8],
        _nondet: &NonDet,
        _read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        (b"err: session app".to_vec(), ExecMetrics::default())
    }

    fn execute_with_session(
        &mut self,
        client: ClientId,
        _op: &[u8],
        _nondet: &NonDet,
        _read_only: bool,
        session: &mut crate::session::SessionCtx<'_>,
    ) -> (Vec<u8>, ExecMetrics) {
        let blob = [client.0 as u8; crate::session::MAX_SESSION_BYTES];
        let reply = match session.put(&blob) {
            Ok(()) => b"ok".to_vec(),
            Err(e) => e.to_string().into_bytes(),
        };
        (reply, ExecMetrics::default())
    }
}

#[test]
fn full_session_table_refuses_writes() {
    // A 1 KiB blob takes 1 036 bytes of the image (id, length, blob) and
    // the 4-page section holds 16 368 after the cell header: the 16th
    // session's write does not fit.
    let mut net = Net::new(default_cfg(), 16, AppKind::FullSession);
    for c in 0..16 {
        net.submit(c, b"fill".to_vec(), false);
        net.pump(50_000);
        assert_eq!(net.completed(c), 1, "the replicas agree on the reply");
        let expect = if c < 15 {
            b"ok".to_vec()
        } else {
            crate::session::SessionError::SectionFull
                .to_string()
                .into_bytes()
        };
        assert_eq!(net.last_reply(c).expect("reply"), expect);
    }
    for r in &net.replicas {
        assert_eq!(r.metrics().table_refusals, 1);
        assert_eq!(r.sessions.len(), 15);
    }
    net.assert_states_equal(&[0, 1, 2, 3]);
}

// ----------------------------------------------------------------------
// Hot path: encode-once broadcast and the clone budget
// ----------------------------------------------------------------------

/// Every destination of a broadcast must share one reference-counted
/// packet buffer — the encode-once rule. A refactor that reintroduces a
/// per-destination `Vec` clone changes the pointer identity and fails here.
#[test]
fn broadcast_shares_one_packet_buffer() {
    let cfg = default_cfg();
    let mut primary = make_replica(&cfg, 0, AppKind::Null(64), &[ClientId(1)]);
    let _ = primary.on_start(0, false);
    let mut client = Client::new_static(cfg, SEED, ClientId(1), CLIENT_ADDR_BASE);
    let sub = client.submit(vec![7; 100], false, 0);
    let request = sub
        .outputs
        .iter()
        .find_map(|o| match o {
            Output::Send { packet, .. } => Some(std::sync::Arc::clone(packet)),
            _ => None,
        })
        .expect("client sent the request");
    // The client's own multicast already shares one buffer across replicas.
    let client_packets: Vec<_> = sub
        .outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send { packet, .. } => Some(packet),
            _ => None,
        })
        .collect();
    assert_eq!(client_packets.len(), 4, "allbig: request goes to everyone");
    for p in &client_packets {
        assert!(
            std::sync::Arc::ptr_eq(p, &request),
            "client multicast must share one buffer"
        );
    }

    let res = primary.handle_packet(&request, 1_000);
    let preprepares: Vec<_> = res
        .outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send { packet, .. } if packet.first() == Some(&2) => Some(packet),
            _ => None,
        })
        .collect();
    assert_eq!(preprepares.len(), 3, "pre-prepare to each backup");
    for p in &preprepares[1..] {
        assert!(
            std::sync::Arc::ptr_eq(p, preprepares[0]),
            "broadcast destinations must share one sealed buffer"
        );
    }
    assert_eq!(
        primary.metrics().hot_encodings,
        1,
        "one logical broadcast = one prefix encoding, independent of fan-out"
    );
}

/// Agreement, replies and the small-request relay path (a backup
/// forwarding a retransmitted request to the primary) all run, and the
/// encoding counter sees them.
#[test]
fn hot_encodings_counted_under_traffic() {
    // Small requests so the relay path (backup -> primary) is exercised by
    // the retransmission below.
    let cfg = PbftConfig {
        all_requests_big: false,
        ..default_cfg()
    };
    let mut net = Net::new(cfg, 2, AppKind::Null(64));
    for round in 0..4u64 {
        for c in 0..2usize {
            net.submit(c, vec![round as u8; 32], false);
        }
        net.pump(100_000);
    }
    // Force a client retransmission: the request reaches the backups, which
    // relay it to the primary (the §2.1 small-request relay).
    net.submit(0, vec![9; 32], false);
    net.fire_client_timer(0, crate::output::TimerKind::Retransmit);
    net.pump(100_000);
    let encodings: u64 = net.replicas.iter().map(|r| r.metrics().hot_encodings).sum();
    assert!(encodings > 0, "the counter is actually wired");
}
