//! The seven workloads, and one repetition of one of them.
//!
//! A repetition builds a fresh group, runs a fixed number of operations in
//! a closed loop (each client submits its next operation the moment its
//! previous one completes), checks every result, and gates on the replicas
//! agreeing afterwards. The first [`Spec::warmup`] completions are untimed;
//! every later one is stamped. The schedule is deterministic, so timed
//! completion `j` is the same operation, after the same work, in every
//! repetition — which is what lets `report` compare repetitions slice by
//! slice and operation by operation.

use std::time::Instant;

use crate::driver::{Completion, Net, Span, Tally};
use crate::layers::{
    config, exec_chain, new_client, new_engine, sql_count, sql_insert_ok, sql_insert_op,
    state_root, AppKind, ConsensusEngine, LinearReplica, Replica, NULL_OP_BYTES, SQL_COUNT,
};
use crate::stats::mix;

/// Which consensus engine a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Classic quadratic PBFT (`Replica`).
    Pbft,
    /// The linear-communication engine (`LinearReplica`).
    Linear,
}

/// The fault script of `sql_recover`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recover {
    /// A backup is replaced by a blank engine every this many timed
    /// completions (backups in rotation 1, 2, 3, 1, …).
    pub every: u64,
    /// How many replacements.
    pub count: u64,
    /// Operations that must complete after the view-0 primary is silenced
    /// (which happens once the `ops` before it have completed).
    pub tail: u64,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Consensus engine.
    pub engine: Engine,
    /// Tolerated faults (`n = 3f + 1`).
    pub f: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Replicated application.
    pub app: AppKind,
    /// Submit with the read-only flag (§2.1 optimistic read path).
    pub read_only: bool,
    /// Timed operations per repetition.
    pub ops: u64,
    /// Untimed operations before them.
    pub warmup: u64,
    /// Completions per slice: the granularity at which the throughput
    /// estimator picks the best repetition.
    pub slice: u64,
    /// Fault script, if any.
    pub recover: Option<Recover>,
}

const BASE: Spec = Spec {
    name: "",
    why: "",
    engine: Engine::Pbft,
    f: 1,
    clients: 12,
    app: AppKind::Null,
    read_only: false,
    ops: 0,
    warmup: 1000,
    slice: 100,
    recover: None,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "null_write",
        why: "Table 1 batch row: pbft n=4, 12 closed-loop clients, 1 KiB null ops; digest, MAC, codec and agreement all on the path, batching and pipelining active",
        ops: 8_000,
        ..BASE
    },
    Spec {
        name: "null_write_n10",
        why: "pbft f=3 (n=10): all-to-all votes and authenticator vectors scale with n (~50 msgs/op vs ~12), so a per-message or per-MAC saving is largest here",
        f: 3,
        ops: 4_000,
        ..BASE
    },
    Spec {
        name: "linear_write",
        why: "null_write's load through the linear engine: vote/QC and engine-policy changes must show here and not on null_write",
        engine: Engine::Linear,
        ops: 8_000,
        ..BASE
    },
    Spec {
        name: "serial_write",
        why: "one client: no batching, no pipelining, every op pays a full agreement; p50 is the unloaded commit latency, so per-message costs move it most",
        clients: 1,
        ops: 4_000,
        ..BASE
    },
    Spec {
        name: "null_read",
        why: "read-only flag set: the optimistic read path with zero agreement messages; an agreement optimisation predicts no change, a request/reply-path one shows",
        read_only: true,
        ops: 16_000,
        ..BASE
    },
    Spec {
        name: "sql_insert",
        why: "the paper's 4.2 single-row INSERT through SqlApp, minisql, StateVfs and dirty-page digests at every checkpoint (the p99 checkpoint stall)",
        app: AppKind::Sql,
        ops: 8_000,
        ..BASE
    },
    Spec {
        name: "sql_recover",
        why: "sql_insert load with three blank-restart state transfers of a growing database and one primary failure: the only workload where transfer and view change do real work",
        app: AppKind::Sql,
        ops: 8_000,
        recover: Some(Recover {
            every: 2_000,
            count: 3,
            tail: 1_000,
        }),
        ..BASE
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Group size, `3f + 1`.
    pub fn n(&self) -> usize {
        3 * self.f + 1
    }

    /// Timed operations including the failover tail.
    pub fn timed_ops(&self) -> u64 {
        self.ops + self.recover.map_or(0, |r| r.tail)
    }

    /// The first operation a client of this workload submits (what the
    /// request probes are sized by).
    pub fn sample_op(&self, seed: u64) -> Vec<u8> {
        match self.app {
            AppKind::Null => null_template(seed),
            AppKind::Sql => sql_insert_op(seed, 0, 0),
        }
    }
}

/// Seed-derived 1 KiB payload; each null op is this with its first 16 bytes
/// stamped by (client, sequence).
fn null_template(seed: u64) -> Vec<u8> {
    (0..NULL_OP_BYTES as u64 / 8)
        .flat_map(|i| mix(seed, u64::MAX, i).to_be_bytes())
        .collect()
}

/// An op fails if it has no reply quorum within this much virtual time …
const REPLY_LIMIT_NS: u64 = 5_000_000_000;
/// … or this much once the primary has been silenced.
const FAILOVER_REPLY_LIMIT_NS: u64 = 20_000_000_000;
/// Virtual time the group is given to quiesce before the replicas are
/// compared.
const DRAIN_NS: u64 = 1_000_000_000;
/// Failover is timed to this many completions after the primary fell silent.
const FAILOVER_OPS: u64 = 12;

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Construction, key exchange, schema creation and the warm-up, seconds.
    pub setup_s: f64,
    /// Wall stamp (on the span clock) of the warm-up's last completion:
    /// where the timed part starts.
    pub start_ns: u64,
    /// Wall stamp of each timed completion, in completion order.
    pub done_ns: Vec<u64>,
    /// Submit→reply-quorum wall latency of each timed completion, ns. The
    /// schedule is deterministic, so entry `j` is the same operation in
    /// every repetition.
    pub lat_ns: Vec<u64>,
    /// Operations submitted (warm-up and the gate's query included).
    pub attempted: u64,
    /// Operations with a wrong result or no timely reply quorum.
    pub failed: u64,
    /// Exact counts over the timed part.
    pub window: Tally,
    /// Wall nanoseconds of each blank-restart recovery.
    pub recovery_ns: Vec<u64>,
    /// Virtual nanoseconds from silencing the primary to the 12th
    /// completion afterwards (0 without a failover).
    pub failover_vns: u64,
    /// Correctness-gate violations (empty = the repetition is good).
    pub violations: Vec<String>,
    /// Calls the driver made into replicas and clients, gate included: the
    /// span capacity a traced repetition of the same schedule needs.
    pub calls: usize,
    /// Recorded spans (traced repetitions only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// Did the timed part run to its end?
    pub fn is_complete(&self, spec: &Spec) -> bool {
        self.done_ns.len() as u64 == spec.timed_ops()
    }

    /// Wall stamps of the timed part's start and end.
    pub fn timed_wall(&self) -> (u64, u64) {
        (
            self.start_ns,
            *self.done_ns.last().unwrap_or(&self.start_ns),
        )
    }
}

/// Run one repetition. `span_capacity` turns tracing on.
pub fn run_rep(spec: &Spec, seed: u64, span_capacity: Option<usize>) -> Rep {
    match spec.engine {
        Engine::Pbft => Runner::<Replica>::new(spec, seed, span_capacity).run(),
        Engine::Linear => Runner::<LinearReplica>::new(spec, seed, span_capacity).run(),
    }
}

struct Runner<'a, E: ConsensusEngine> {
    spec: &'a Spec,
    seed: u64,
    started: Instant,
    net: Net<E>,
    template: Vec<u8>,
    total: u64,
    issued: u64,
    completed: u64,
    failed: u64,
    /// Per client: ops submitted so far, and the wall / virtual stamps of
    /// the outstanding one.
    next_seq: Vec<u64>,
    sent_wall: Vec<u64>,
    sent_virtual: Vec<u64>,
    last_progress: u64,
    start_ns: u64,
    done_ns: Vec<u64>,
    lat_ns: Vec<u64>,
    setup_s: f64,
    at_warm: Tally,
    /// Replica being recovered, the sequence number it must reach, and the
    /// wall stamp of its restart.
    recovering: Option<(usize, u64, u64)>,
    recovery_ns: Vec<u64>,
    /// Virtual time and completion count when the primary was silenced.
    silenced: Option<(u64, u64)>,
    failover_vns: u64,
    violations: Vec<String>,
}

impl<'a, E: ConsensusEngine> Runner<'a, E> {
    fn new(spec: &'a Spec, seed: u64, span_capacity: Option<usize>) -> Self {
        let started = Instant::now();
        let cfg = config(spec.f);
        let replicas = (0..cfg.n())
            .map(|i| new_engine(&cfg, i, spec.app, spec.clients, false))
            .collect();
        let clients = (0..spec.clients).map(|c| new_client(&cfg, c)).collect();
        let total = spec.warmup + spec.timed_ops();
        Runner {
            spec,
            seed,
            started,
            net: Net::new(replicas, clients, span_capacity),
            template: null_template(seed),
            total,
            issued: 0,
            completed: 0,
            failed: 0,
            next_seq: vec![0; spec.clients],
            sent_wall: vec![0; spec.clients],
            sent_virtual: vec![0; spec.clients],
            last_progress: 0,
            start_ns: 0,
            done_ns: Vec::with_capacity(spec.timed_ops() as usize),
            lat_ns: Vec::with_capacity(spec.timed_ops() as usize),
            setup_s: 0.0,
            at_warm: Tally::default(),
            recovering: None,
            recovery_ns: Vec::new(),
            silenced: None,
            failover_vns: 0,
            violations: Vec::new(),
        }
    }

    fn run(mut self) -> Rep {
        self.net.boot();
        for c in 0..self.spec.clients {
            self.issue(c);
        }
        let mut done = Vec::new();
        while self.completed < self.total {
            if !self.net.step(&mut done) {
                self.violations
                    .push("event queue ran dry with operations outstanding".into());
                break;
            }
            for d in done.drain(..) {
                self.on_complete(d);
            }
            self.poll_recovery();
            let limit = self.reply_limit();
            if self.net.now() > self.last_progress + limit {
                self.violations.push(format!(
                    "no reply quorum for {} virtual ms after {} completions",
                    limit / 1_000_000,
                    self.completed
                ));
                break;
            }
        }
        let window = self.net.tally().since(&self.at_warm);
        // Everything still outstanding or never issued has failed.
        self.failed += self.total - self.completed;
        let attempted = self.total + self.gate(&mut done);
        Rep {
            setup_s: self.setup_s,
            start_ns: self.start_ns,
            done_ns: self.done_ns,
            lat_ns: self.lat_ns,
            attempted,
            failed: self.failed,
            window,
            recovery_ns: self.recovery_ns,
            failover_vns: self.failover_vns,
            violations: self.violations,
            calls: self.net.calls(),
            spans: self.net.take_spans(),
        }
    }

    fn reply_limit(&self) -> u64 {
        if self.silenced.is_some() {
            FAILOVER_REPLY_LIMIT_NS
        } else {
            REPLY_LIMIT_NS
        }
    }

    /// Submit client `c`'s next operation, if the repetition has any left.
    fn issue(&mut self, c: usize) {
        if self.issued == self.total {
            return;
        }
        self.issued += 1;
        let seq = self.next_seq[c];
        self.next_seq[c] += 1;
        let op = match self.spec.app {
            AppKind::Null => {
                let mut op = self.template.clone();
                op[..8].copy_from_slice(&(c as u64).to_be_bytes());
                op[8..16].copy_from_slice(&seq.to_be_bytes());
                op
            }
            AppKind::Sql => sql_insert_op(self.seed, c, seq),
        };
        self.sent_virtual[c] = self.net.now();
        self.sent_wall[c] = self.net.wall_ns();
        self.net.submit(c, op, self.spec.read_only);
    }

    fn on_complete(&mut self, d: Completion) {
        let now_wall = self.net.wall_ns();
        let c = d.client;
        let result_ok = match self.spec.app {
            AppKind::Null => d.result.len() == NULL_OP_BYTES,
            AppKind::Sql => sql_insert_ok(&d.result),
        };
        let timely = self.net.now() - self.sent_virtual[c] <= self.reply_limit();
        if !(result_ok && timely) {
            self.failed += 1;
        }
        self.completed += 1;
        self.last_progress = self.net.now();
        let spec = self.spec;
        if self.completed == spec.warmup {
            self.start_ns = now_wall;
            self.setup_s = self.started.elapsed().as_secs_f64();
            self.at_warm = self.net.tally();
        }
        if self.completed > spec.warmup {
            self.done_ns.push(now_wall);
            self.lat_ns.push(now_wall - self.sent_wall[c]);
            self.fault_script(self.completed - spec.warmup);
        }
        self.issue(c);
    }

    /// `sql_recover`'s script, keyed on the number of timed completions.
    fn fault_script(&mut self, timed: u64) {
        let Some(rc) = self.spec.recover else {
            return;
        };
        if let Some((at, completed)) = self.silenced {
            if self.completed == completed + FAILOVER_OPS {
                self.failover_vns = self.net.now() - at;
            }
            return;
        }
        let restart_due =
            timed.is_multiple_of(rc.every) && timed / rc.every <= rc.count && timed < self.spec.ops;
        if !(restart_due || timed == self.spec.ops) {
            return;
        }
        if let Some((r, ..)) = self.recovering.take() {
            self.violations.push(format!(
                "replica {r} still recovering after {} more operations",
                rc.every
            ));
        }
        if timed == self.spec.ops {
            self.net.silence(0);
            self.silenced = Some((self.net.now(), self.completed));
            return;
        }
        let backups = self.net.replicas.len() as u64 - 1;
        let r = ((timed / rc.every - 1) % backups + 1) as usize;
        let target = self
            .net
            .replicas
            .iter()
            .map(|e| e.last_executed())
            .max()
            .expect("a group has replicas");
        let t0 = self.net.wall_ns();
        let cfg = config(self.spec.f);
        let blank = new_engine(&cfg, r, self.spec.app, self.spec.clients, true);
        self.net.restart_blank(r, blank);
        self.recovering = Some((r, target, t0));
    }

    fn poll_recovery(&mut self) {
        if let Some((r, target, t0)) = self.recovering {
            let e = &self.net.replicas[r];
            if !e.is_recovering() && e.last_executed() >= target {
                self.recovery_ns.push(self.net.wall_ns() - t0);
                self.recovering = None;
            }
        }
    }

    /// The correctness gate, run after the clock has stopped. Returns the
    /// number of extra operations it submitted.
    fn gate(&mut self, done: &mut Vec<Completion>) -> u64 {
        let spec = self.spec;
        let mut extra = 0;
        if !self.violations.is_empty() {
            return extra; // already broken; the replicas need not agree
        }
        self.net.run_until(self.net.now() + DRAIN_NS, done);
        if spec.app == AppKind::Sql {
            // One ordered query through the protocol: the table must hold
            // exactly the inserts whose success the clients saw.
            extra = 1;
            self.net.submit(0, SQL_COUNT.as_bytes().to_vec(), false);
            let deadline = self.net.now() + self.reply_limit();
            while done.is_empty() && self.net.now() < deadline && self.net.step(done) {}
            let want = (self.completed - self.failed) as i64;
            match done.pop().map(|d| sql_count(&d.result)) {
                Some(Some(got)) if got == want => {}
                other => {
                    self.failed += 1;
                    self.violations.push(format!(
                        "COUNT(*) gave {other:?}, clients saw {want} inserts"
                    ));
                }
            }
            self.net.run_until(self.net.now() + DRAIN_NS, done);
        }
        let views_entered = self.net.tally().new_views;
        let live: Vec<&E> = (0..self.net.replicas.len())
            .filter(|&i| !self.net.is_silenced(i))
            .map(|i| &self.net.replicas[i])
            .collect();
        let mut fail = |what: String| self.violations.push(what);
        let agree = |on: &dyn Fn(&E) -> [u8; 32]| live.windows(2).all(|w| on(w[0]) == on(w[1]));
        if live.iter().any(|e| e.is_recovering()) {
            fail("a live replica is still recovering after the drain".into());
        }
        if !live
            .windows(2)
            .all(|w| w[0].last_executed() == w[1].last_executed())
        {
            fail("live replicas disagree on last_executed".into());
        }
        if !agree(&state_root) {
            fail("live replicas disagree on the state root".into());
        }
        match spec.recover {
            None => {
                if views_entered > 0 {
                    fail(format!("{views_entered} new views entered without a fault"));
                }
                // Without state transfers the execution chains must match too.
                if !agree(&exec_chain) {
                    fail("replicas disagree on the execution chain".into());
                }
            }
            Some(rc) => {
                if self.recovery_ns.len() as u64 != rc.count {
                    fail(format!(
                        "{} of {} recoveries completed",
                        self.recovery_ns.len(),
                        rc.count
                    ));
                }
                if self.failover_vns == 0 || live.iter().any(|e| e.view() == 0) {
                    fail("the failover did not complete in a later view".into());
                }
            }
        }
        extra
    }
}
