//! A checkpoint must not make one call into a replica hash an interval's
//! pages.
//!
//! Four replicas and twelve closed-loop clients are looped back over the
//! sans-io surface (wallbench's `sql_insert`, minus the clock), and every
//! call into a replica reports the pages it hashed in
//! `counts.pages_hashed` — read here exactly, where the benchmark can only
//! see it as the p99 of a replicated INSERT. Before pages were hashed as
//! they settle, the call that took a checkpoint hashed all ≈ 34 pages the
//! interval had dirtied, on every replica in the same instant.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use minisql::JournalMode;
use pbft_core::app::StateHandle;
use pbft_core::replica::LIB_REGION_PAGES;
use pbft_core::{
    App, Client, ClientId, ExecMetrics, HandleResult, NetTarget, NonDet, Output, PacketBuf,
    PbftConfig, Replica, ReplicaId, TimerKind,
};
use pbft_sql::{CostProfile, SqlApp};
use pbft_state::{MerkleTree, PagedState, PAGE_SIZE};

const SEED: u64 = 0x5E771E;
const CLIENTS: usize = 12;
const CLIENT_ADDR_BASE: u32 = 100;
/// Application partition, as wallbench's SQL workloads size it (~4 MiB).
const APP_PAGES: usize = 1020;
/// Virtual time a delivery takes: short against the primary's batch gather.
const HOP_NS: u64 = 2_000;

/// One closed checkpoint interval on one replica.
#[derive(Debug)]
struct Interval {
    /// Pages hashed by every call of the interval, early or at the refresh.
    hashed: u64,
    /// Leaves the interval's refresh changed.
    distinct: u64,
}

struct Watch {
    tree: MerkleTree,
    hashed: u64,
    intervals: Vec<Interval>,
}

struct Loopback {
    replicas: Vec<Replica>,
    clients: Vec<Client>,
    watches: Vec<Watch>,
    queue: VecDeque<(NetTarget, PacketBuf)>,
    /// Per replica: when its pending `BatchKick` is due.
    kick_due: Vec<Option<u64>>,
    now: u64,
    submitted: u64,
    /// The next operation, given how many were submitted before it.
    op: fn(u64) -> Vec<u8>,
    /// Most pages any one replica call hashed since the last reset.
    worst_call: u64,
}

impl Loopback {
    fn new(app: fn(StateHandle) -> Box<dyn App>, op: fn(u64) -> Vec<u8>) -> Loopback {
        let cfg = PbftConfig::default();
        let ids: Vec<ClientId> = (1..=CLIENTS as u64).map(ClientId).collect();
        let replicas = (0..cfg.n() as u32)
            .map(|i| {
                let pages = LIB_REGION_PAGES as usize + APP_PAGES;
                let state = Rc::new(RefCell::new(PagedState::new(pages)));
                let app = app(state.clone());
                Replica::new(cfg.clone(), SEED, ReplicaId(i), state, app, &ids)
            })
            .collect::<Vec<_>>();
        let clients = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Client::new_static(cfg.clone(), SEED, id, CLIENT_ADDR_BASE + i as u32))
            .collect::<Vec<_>>();
        let watches = replicas
            .iter()
            .map(|r| Watch {
                tree: r.state_handle().borrow().tree().clone(),
                hashed: 0,
                intervals: Vec::new(),
            })
            .collect();
        let mut net = Loopback {
            kick_due: vec![None; replicas.len()],
            replicas,
            clients,
            watches,
            queue: VecDeque::new(),
            now: 1_000_000,
            submitted: 0,
            op,
            worst_call: 0,
        };
        for i in 0..net.replicas.len() {
            let res = net.replicas[i].on_start(net.now, false);
            net.route(Some(i), res);
        }
        for i in 0..net.clients.len() {
            let res = net.clients[i].on_start(net.now);
            net.route(None, res);
        }
        for i in 0..net.clients.len() {
            net.submit(i);
        }
        net
    }

    /// Apply a call's outputs: sends are queued, a replica's batch kick is
    /// remembered; the other timers guard against losses this loop does not
    /// have.
    fn route(&mut self, replica: Option<usize>, res: HandleResult) {
        for o in res.outputs {
            match (o, replica) {
                (Output::Send { to, packet, .. }, _) => self.queue.push_back((to, packet)),
                (
                    Output::SetTimer {
                        kind: TimerKind::BatchKick,
                        delay_ns,
                    },
                    Some(i),
                ) => self.kick_due[i] = Some(self.now + delay_ns),
                _ => {}
            }
        }
    }

    fn submit(&mut self, client: usize) {
        let op = (self.op)(self.submitted);
        self.submitted += 1;
        let res = self.clients[client].submit(op, false, self.now);
        self.route(None, res);
    }

    /// A watched call into replica `i`. The tree only changes at a refresh,
    /// and nothing here transfers state, so a call that leaves a new root
    /// behind is the one that took the checkpoint.
    fn on_replica(&mut self, i: usize, f: impl FnOnce(&mut Replica, u64) -> HandleResult) {
        let res = f(&mut self.replicas[i], self.now);
        let watch = &mut self.watches[i];
        watch.hashed += res.counts.pages_hashed;
        self.worst_call = self.worst_call.max(res.counts.pages_hashed);
        let state = self.replicas[i].state_handle();
        let state = state.borrow();
        if state.tree().root() != watch.tree.root() {
            let distinct = (0..state.num_pages())
                .filter(|&p| state.tree().leaf(p) != watch.tree.leaf(p))
                .count() as u64;
            watch.intervals.push(Interval {
                hashed: std::mem::take(&mut watch.hashed),
                distinct,
            });
            watch.tree = state.tree().clone();
        }
        drop(state);
        self.route(Some(i), res);
    }

    /// Deliver one packet, or fire the earliest batch kick when none is
    /// queued. Closed loop: a client that completes submits again.
    fn step(&mut self) {
        for i in 0..self.replicas.len() {
            if self.kick_due[i].is_some_and(|due| due <= self.now) {
                self.kick_due[i] = None;
                self.on_replica(i, |r, now| r.on_timer(TimerKind::BatchKick, now));
            }
        }
        let Some((to, packet)) = self.queue.pop_front() else {
            let due = self.kick_due.iter().flatten().min();
            self.now = *due.expect("a closed loop always has a packet or a kick pending");
            return;
        };
        self.now += HOP_NS;
        match to {
            NetTarget::Replica(r) => {
                self.on_replica(r.0 as usize, |r, now| r.handle_packet(&packet, now));
            }
            NetTarget::Client(addr) => {
                let c = (addr - CLIENT_ADDR_BASE) as usize;
                let res = self.clients[c].handle_packet(&packet, self.now);
                self.route(None, res);
                if !self.clients[c].take_events().is_empty() {
                    self.submit(c);
                }
            }
        }
    }

    /// Run one warm-up interval (schema pages, tables reaching their working
    /// size), then `intervals` more; returns the measured intervals of every
    /// replica and the most pages one call hashed in them.
    fn run(mut self, intervals: u64) -> (Vec<Interval>, u64) {
        let interval = PbftConfig::default().checkpoint_interval;
        let executed = |net: &Loopback, seq| net.replicas.iter().all(|r| r.last_executed() >= seq);
        while !executed(&self, interval + 8) {
            self.step();
        }
        self.worst_call = 0;
        while !executed(&self, (intervals + 1) * interval + 8) {
            self.step();
        }
        let measured = self
            .watches
            .into_iter()
            .flat_map(|w| w.intervals.into_iter().skip(1))
            .collect::<Vec<_>>();
        assert_eq!(measured.len() as u64, 4 * intervals);
        (measured, self.worst_call)
    }
}

#[test]
fn no_replica_call_hashes_an_interval_of_sql_pages() {
    let sql: fn(StateHandle) -> Box<dyn App> = |state| {
        let schema =
            "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";
        let app = SqlApp::open(
            state,
            JournalMode::Rollback,
            CostProfile::default(),
            Some(schema),
        );
        Box::new(app.expect("the schema fits the state region"))
    };
    let insert = |n: u64| {
        format!(
            "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-{n}', 'vote-{:x}', now(), random())",
            n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        )
        .into_bytes()
    };
    let (intervals, worst_call) = Loopback::new(sql, insert).run(3);
    assert!(
        worst_call <= 8,
        "one replica call hashed {worst_call} pages (the checkpointing call used to hash ≈ 34)"
    );
    for iv in &intervals {
        assert!(iv.distinct >= 16, "{iv:?}: the interval grew the table");
        assert!(
            4 * iv.hashed <= 5 * iv.distinct,
            "{iv:?}: more than 1.25 hashes per page dirtied"
        );
    }
}

/// Pages [`Rewrite`] touches, in the application partition.
const HOT_PAGES: u64 = 8;

/// Writes one byte into each of the same [`HOT_PAGES`] pages per `w`
/// operation and nothing per `n` operation: the traffic early hashing is
/// worst at, because every page it hashes early is written again.
struct Rewrite(StateHandle);

impl App for Rewrite {
    fn execute(
        &mut self,
        _client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        _read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        if op == b"w" {
            let mut st = self.0.borrow_mut();
            for p in 0..HOT_PAGES {
                let off = (LIB_REGION_PAGES + p) * PAGE_SIZE as u64;
                st.modify(off, 1).expect("in range");
                st.write(off, &[nondet.random as u8]).expect("notified");
            }
        }
        (b"ok".to_vec(), ExecMetrics::default())
    }
}

#[test]
fn rewriting_the_same_pages_hashes_each_at_most_twice_an_interval() {
    // Runs of writes long enough to fill several batches, then as long a
    // pause: the pages settle, are hashed early, and are written again.
    let bursts = |n: u64| {
        if (n / 48).is_multiple_of(2) {
            b"w"
        } else {
            b"n"
        }
        .to_vec()
    };
    let (intervals, _) = Loopback::new(|state| Box::new(Rewrite(state)), bursts).run(3);
    for iv in &intervals {
        assert_eq!(iv.distinct, HOT_PAGES, "{iv:?}");
        assert!(iv.hashed > iv.distinct, "{iv:?}: no page was hashed early");
        assert!(
            iv.hashed <= 2 * iv.distinct,
            "{iv:?}: a page was hashed three times"
        );
    }
}
