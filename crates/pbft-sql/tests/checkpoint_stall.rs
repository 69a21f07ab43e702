//! A checkpoint must not make one call into a replica hash an interval's
//! pages.
//!
//! Four replicas and twelve closed-loop clients are looped back over the
//! sans-io surface (wallbench's `sql_insert`, minus the clock), and every
//! call into a replica reports the pages it hashed in
//! `counts.pages_hashed` — read here exactly, where the benchmark can only
//! see it as the p99 of a replicated INSERT. Before pages were hashed as
//! they settle, the call that took a checkpoint hashed all ≈ 34 pages the
//! interval had dirtied, on every replica in the same instant. And the
//! root itself — the pages the boundary batch wrote and the fold over the
//! interval's leaves, ≈ 8 page hashes' worth — is finished over the next
//! batches, so no call does more than one step of it; each call's share is
//! read from the region's `root_work` counters.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use minisql::JournalMode;
use pbft_core::app::StateHandle;
use pbft_core::replica::LIB_REGION_PAGES;
use pbft_core::{
    App, Client, ClientId, ExecMetrics, HandleResult, NetTarget, NonDet, Output, PacketBuf,
    PbftConfig, Replica, ReplicaId,
};
use pbft_sql::{CostProfile, SqlApp};
use pbft_state::{MerkleTree, PagedState, RootWork, FOLDS_PER_PAGE_HASH, PAGE_SIZE};

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
    /// Root work of every call of the interval, in fold units.
    root_units: u64,
}

/// `work` in fold units: a page hash is [`FOLDS_PER_PAGE_HASH`] of them.
fn units(work: RootWork) -> u64 {
    work.pages_hashed * FOLDS_PER_PAGE_HASH as u64 + work.nodes_folded
}

struct Watch {
    tree: MerkleTree,
    hashed: u64,
    root_units: u64,
    intervals: Vec<Interval>,
}

struct Loopback {
    replicas: Vec<Replica>,
    clients: Vec<Client>,
    watches: Vec<Watch>,
    queue: VecDeque<(NetTarget, PacketBuf)>,
    now: u64,
    submitted: u64,
    /// The next operation, given how many were submitted before it.
    op: fn(u64) -> Vec<u8>,
    /// Most pages any one replica call hashed since the last reset.
    worst_call: u64,
    /// Most root work, in fold units, any one replica call did since the
    /// last reset.
    worst_step: u64,
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
                root_units: 0,
                intervals: Vec::new(),
            })
            .collect();
        let mut net = Loopback {
            replicas,
            clients,
            watches,
            queue: VecDeque::new(),
            now: 1_000_000,
            submitted: 0,
            op,
            worst_call: 0,
            worst_step: 0,
        };
        for i in 0..net.replicas.len() {
            let res = net.replicas[i].on_start(net.now, false);
            net.route(res);
        }
        for i in 0..net.clients.len() {
            let res = net.clients[i].on_start(net.now);
            net.route(res);
        }
        for i in 0..net.clients.len() {
            net.submit(i);
        }
        net
    }

    /// Queue a call's sends; its timers guard against losses this loop does
    /// not have.
    fn route(&mut self, res: HandleResult) {
        for o in res.outputs {
            if let Output::Send { to, packet, .. } = o {
                self.queue.push_back((to, packet));
            }
        }
    }

    fn submit(&mut self, client: usize) {
        let op = (self.op)(self.submitted);
        self.submitted += 1;
        let res = self.clients[client].submit(op, false, self.now);
        self.route(res);
    }

    /// A watched call into replica `i`. The tree only changes at a refresh,
    /// and nothing here transfers state, so a call that leaves a new root
    /// behind is the one that took the checkpoint.
    fn on_replica(&mut self, i: usize, f: impl FnOnce(&mut Replica, u64) -> HandleResult) {
        let state = self.replicas[i].state_handle();
        let before = units(state.borrow().root_work());
        let res = f(&mut self.replicas[i], self.now);
        let watch = &mut self.watches[i];
        watch.hashed += res.counts.pages_hashed;
        self.worst_call = self.worst_call.max(res.counts.pages_hashed);
        let state = state.borrow();
        let step = units(state.root_work()) - before;
        watch.root_units += step;
        self.worst_step = self.worst_step.max(step);
        if state.tree().root() != watch.tree.root() {
            let distinct = (0..state.num_pages())
                .filter(|&p| state.tree().leaf(p) != watch.tree.leaf(p))
                .count() as u64;
            watch.intervals.push(Interval {
                hashed: std::mem::take(&mut watch.hashed),
                distinct,
                root_units: std::mem::take(&mut watch.root_units),
            });
            watch.tree = state.tree().clone();
        }
        drop(state);
        self.route(res);
    }

    /// Deliver one packet. Closed loop: a client that completes submits
    /// again.
    fn step(&mut self) {
        let (to, packet) = self
            .queue
            .pop_front()
            .expect("a closed loop always has a packet in flight");
        self.now += HOP_NS;
        match to {
            NetTarget::Replica(r) => {
                self.on_replica(r.0 as usize, |r, now| r.handle_packet(&packet, now));
            }
            NetTarget::Client(addr) => {
                let c = (addr - CLIENT_ADDR_BASE) as usize;
                let res = self.clients[c].handle_packet(&packet, self.now);
                self.route(res);
                if !self.clients[c].take_events().is_empty() {
                    self.submit(c);
                }
            }
        }
    }

    /// Run one warm-up interval (schema pages, tables reaching their working
    /// size), then `intervals` more, each closed when its root is finished;
    /// returns the measured intervals of every replica, the most pages one
    /// call hashed in them and the most root work one call did, in fold
    /// units.
    fn run(mut self, intervals: u64) -> (Vec<Interval>, u64, u64) {
        let interval = PbftConfig::default().checkpoint_interval;
        let executed = |net: &Loopback, seq| net.replicas.iter().all(|r| r.last_executed() >= seq);
        while !executed(&self, interval + 8) {
            self.step();
        }
        self.worst_call = 0;
        self.worst_step = 0;
        // A root is finished over the batches after its boundary: run until
        // every replica has finished the warm-up boundary's and `intervals`
        // more.
        let finished = |net: &Loopback| {
            net.watches
                .iter()
                .all(|w| w.intervals.len() as u64 > intervals)
        };
        while !executed(&self, (intervals + 1) * interval + 8) || !finished(&self) {
            self.step();
        }
        let measured = self
            .watches
            .into_iter()
            .flat_map(|w| w.intervals.into_iter().skip(1).take(intervals as usize))
            .collect::<Vec<_>>();
        assert_eq!(measured.len() as u64, 4 * intervals);
        (measured, self.worst_call, self.worst_step)
    }
}

/// wallbench's `sql_insert` application: minisql with a rollback journal.
fn sql(state: StateHandle) -> Box<dyn App> {
    let schema =
        "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";
    let app = SqlApp::open(
        state,
        JournalMode::Rollback,
        CostProfile::default(),
        Some(schema),
    );
    Box::new(app.expect("the schema fits the state region"))
}

/// The `n`th single-row INSERT.
fn insert(n: u64) -> Vec<u8> {
    format!(
        "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-{n}', 'vote-{:x}', now(), random())",
        n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    )
    .into_bytes()
}

#[test]
fn no_replica_call_hashes_an_interval_of_sql_pages() {
    let (intervals, worst_call, _) = Loopback::new(sql, insert).run(3);
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
    let (intervals, _, _) = Loopback::new(|state| Box::new(Rewrite(state)), bursts).run(3);
    for iv in &intervals {
        assert_eq!(iv.distinct, HOT_PAGES, "{iv:?}");
        assert!(iv.hashed > iv.distinct, "{iv:?}: no page was hashed early");
        assert!(
            iv.hashed <= 2 * iv.distinct,
            "{iv:?}: a page was hashed three times"
        );
    }
}

#[test]
fn no_replica_call_does_more_than_one_step_of_checkpoint_work() {
    let (intervals, _, worst_step) = Loopback::new(sql, insert).run(3);
    let step = FOLDS_PER_PAGE_HASH as u64;
    for iv in &intervals {
        assert!(
            iv.root_units > 4 * step,
            "{iv:?}: a root worth several steps, or this pins nothing"
        );
    }
    assert!(
        worst_step <= step,
        "one replica call did {worst_step} fold units of checkpoint work, more than one \
         page hash's worth ({step}); roots took {:?}",
        intervals.iter().map(|iv| iv.root_units).collect::<Vec<_>>()
    );
}
