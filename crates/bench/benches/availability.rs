//! **Fault-window availability** — the paper's core claim quantified: what
//! clients experience *during* the five conformance fault scenarios
//! (`harness::scenario::paper`), measured head-to-head for both consensus
//! engines on the same fault scripts, workloads and lockstep clock. For
//! each `(scenario, engine)` cell the bench reports
//!
//! * steady-state throughput before the first fault,
//! * degraded-window throughput (first fault → last repair),
//! * the availability fraction (timeline buckets with ≥ 1 completion),
//! * time-to-recover after the first fault event, and
//! * agreement/view-change protocol packets sent (summed over replicas).
//!
//! A second section sweeps the group size on the primary-crash script
//! (f ∈ {1, 2, 3} → n ∈ {4, 7, 10}) and reports view-change packets per
//! leader rotation: PBFT's all-to-all votes grow O(n²) per rotation while
//! the linear engine's leader-directed votes stay O(n) — the committed
//! `BENCH_availability.json` records both curves.
//!
//! A third section is the long-horizon reliability run: one virtual
//! **hour** per `(strategy, engine)` cell with an adaptive adversary
//! (`harness::adversary`) camped on a seat and rolling proactive recovery
//! cycling the other members, reporting the per-bucket throughput
//! *distribution* (p50/p99 over 1 s buckets), the availability fraction,
//! and the total time spent below a `0.75 × p99` degradation threshold —
//! the figures a single degraded window cannot carry. The two strategies
//! are chosen for their hour-scale signatures: a targeted censor is
//! *invisible* to aggregate availability (and to the progress-based
//! suspicion heuristic — no rotation ever evicts it) yet halves p50,
//! while an equivocating primary drags whole windows under the threshold
//! until a rolling reboot happens to rotate it out. One cell is run
//! twice from the same seed and the reports must be identical: the hour
//! is a deterministic function of the seed.
//!
//! Every scenario must report a *finite* recovery under *both* engines —
//! an `n/a` in the recovery column is a liveness regression and the bench
//! exits non-zero.
//!
//! Run: `cargo bench --bench availability` (single-trial; the reliability
//! rows simulate an hour each, so the bench takes a few wall-clock
//! minutes; seeds are fixed so rows are reproducible).

use bench::artifact::{self, Json};
use bench::obj;
use harness::adversary::{Adversary, EquivocatingPrimary, TargetedCensor};
use harness::scenario::{
    paper, run_scenario, run_scenario_adaptive, Scenario, ScenarioEvent, ScenarioReport,
};
use harness::testkit::{
    adversary_deployment, deployment_spec, failover_spec, fetching_spec, ms, scenario_deployment,
};
use harness::workload::{cross_null_txs, keyed_null_ops, null_ops};
use harness::{Cluster, Deployment};
use pbft_core::Engine;
use simnet::SimDuration;

/// Offered load: one op per client per 4 ms, open loop (fixed while the
/// deployment degrades — the same pacing the conformance suite pins).
const PACE: SimDuration = ms(4);

struct Row {
    engine: &'static str,
    name: &'static str,
    steady_tps: f64,
    degraded_tps: f64,
    availability: f64,
    recovery: Option<SimDuration>,
    /// Agreement-phase packets sent, summed over replicas.
    agreement_msgs: u64,
    /// View-change packets sent, summed over replicas.
    viewchange_msgs: u64,
}

/// Sum the protocol-message counters over one group's replicas. Restarted
/// members count from their restart (their pre-crash counters die with
/// them) — the loss is identical across engines, so the comparison stays
/// fair.
fn group_msgs(cluster: &Cluster) -> (u64, u64) {
    (0..cluster.replicas.len()).fold((0, 0), |(agg, vc), i| {
        let m = cluster.replica_metrics(i);
        (agg + m.agreement_msgs_sent, vc + m.viewchange_msgs_sent)
    })
}

fn measure(
    engine: Engine,
    scenario: &Scenario,
    report: &ScenarioReport,
    (agreement_msgs, viewchange_msgs): (u64, u64),
) -> Row {
    let t = &report.timeline;
    let first_fault = report.trace.first().map(|m| m.at).unwrap_or(t.start);
    let last_repair = report.trace.last().map(|m| m.at).unwrap_or(t.start);
    let fault_bucket = t.bucket_index(first_fault);
    let repair_bucket = t.bucket_index(last_repair) + 1;
    Row {
        engine: engine.name(),
        name: scenario.name,
        steady_tps: t.window_tps(0, fault_bucket),
        degraded_tps: t.window_tps(fault_bucket, repair_bucket),
        availability: t.availability(),
        recovery: t.recovery_after(first_fault),
        agreement_msgs,
        viewchange_msgs,
    }
}

fn single_group(engine: Engine, scenario: &Scenario, seed: u64) -> Row {
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, scenario);
    measure(engine, scenario, &report, group_msgs(deployment.group(0)))
}

fn sharded(engine: Engine, scenario: &Scenario, seed: u64) -> Row {
    let mut base = fetching_spec(3, seed);
    base.cfg.engine = engine;
    let mut sc = Deployment::build(deployment_spec(2, 0, base));
    sc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    let report = run_scenario(&mut sc, scenario);
    let msgs = (0..sc.shards()).fold((0, 0), |(a, v), s| {
        let (ga, gv) = group_msgs(sc.group(s));
        (a + ga, v + gv)
    });
    measure(engine, scenario, &report, msgs)
}

fn xshard(engine: Engine, scenario: &Scenario, seed: u64) -> Row {
    let mut base = fetching_spec(1, seed);
    base.cfg.engine = engine;
    let mut xc = Deployment::build(deployment_spec(2, 4, base));
    let map = xc.router().map();
    xc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
    let report = run_scenario(&mut xc, scenario);
    let msgs = (0..xc.shards()).fold((0, 0), |(a, v), s| {
        let (ga, gv) = group_msgs(xc.group(s));
        (a + ga, v + gv)
    });
    measure(engine, scenario, &report, msgs)
}

/// The five conformance scenarios under one engine (fixed seeds, so the
/// two engines see identical scripts and workload arrival processes).
fn scenario_rows(engine: Engine) -> Vec<Row> {
    vec![
        single_group(engine, &paper::primary_crash_under_load(), 71),
        single_group(engine, &paper::slow_primary(), 72),
        single_group(engine, &paper::rolling_crash(), 73),
        xshard(engine, &paper::coordinator_outage(), 74),
        sharded(engine, &paper::partition_then_heal(), 75),
    ]
}

/// One cell of the rotation-cost sweep: the primary-crash script on a
/// group of `n = 3f + 1` replicas.
struct SweepRow {
    engine: &'static str,
    f: usize,
    n: usize,
    /// Leader rotations observed (max `new_views_entered` over members).
    rotations: u64,
    viewchange_msgs: u64,
    agreement_msgs: u64,
    recovery: Option<SimDuration>,
}

impl SweepRow {
    fn per_rotation(&self) -> f64 {
        self.viewchange_msgs as f64 / self.rotations.max(1) as f64
    }
}

/// Run the *same* primary-crash fault script on a `3f + 1`-member group and
/// count what one leader rotation costs in view-change packets.
fn rotation_sweep(engine: Engine, f: usize, seed: u64) -> SweepRow {
    let mut spec = failover_spec(4, seed);
    spec.cfg.engine = engine;
    spec.cfg.f = f;
    spec.cfg.checkpoint_interval = 32;
    spec.cfg.fetch_missing_bodies = true;
    let mut deployment = Deployment::build(deployment_spec(1, 0, spec));
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let scenario = paper::primary_crash_under_load();
    let report = run_scenario(&mut deployment, &scenario);
    let cluster = deployment.group(0);
    let first_fault = report
        .trace
        .first()
        .map(|m| m.at)
        .unwrap_or(report.timeline.start);
    let rotations = (0..cluster.replicas.len())
        .map(|i| cluster.replica_metrics(i).new_views_entered)
        .max()
        .unwrap_or(0);
    let (agreement_msgs, viewchange_msgs) = group_msgs(cluster);
    SweepRow {
        engine: engine.name(),
        f,
        n: 3 * f + 1,
        rotations,
        viewchange_msgs,
        agreement_msgs,
        recovery: report.timeline.recovery_after(first_fault),
    }
}

// ---------------------------------------------------------------------
// Long-horizon reliability: adaptive adversary vs rolling recovery
// ---------------------------------------------------------------------

/// Virtual horizon of one reliability run.
const HORIZON: SimDuration = SimDuration::from_secs(3_600);
/// Distribution bucket: per-second throughput samples, 3600 per run.
const RELIABILITY_BUCKET: SimDuration = SimDuration::from_secs(1);
/// Offered load per client over the hour (2 clients → 40 req/s): light
/// enough that an hour simulates in tens of wall-clock seconds, heavy
/// enough that every healthy bucket completes dozens of requests.
const RELIABILITY_PACE: SimDuration = ms(50);
/// One proactive reboot every 2.5 virtual minutes, cycling seats.
const RECOVERY_PERIOD_MS: u64 = 150_000;
/// Adaptive adversaries observe and react at this cadence.
const ADVERSARY_TICK: SimDuration = ms(250);

struct ReliabilityRow {
    engine: &'static str,
    scenario: &'static str,
    availability: f64,
    tps_p50: f64,
    tps_p99: f64,
    threshold_tps: f64,
    time_below_threshold: SimDuration,
    recoveries: usize,
    adversary_actions: usize,
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The rolling proactive-recovery schedule: every [`RECOVERY_PERIOD_MS`] a
/// reboot cycles through `seats`, and near the end of the hour the
/// adversary's own `cured_seat` gets its turn — which disarms the
/// adversary (the recovery flushed the compromise) and leaves a clean tail
/// window in the trace.
fn rolling_recovery(seats: &[usize], cured_seat: usize) -> Vec<(SimDuration, ScenarioEvent)> {
    let mut events: Vec<(SimDuration, ScenarioEvent)> = (1..)
        .map(|k| {
            (
                k * RECOVERY_PERIOD_MS,
                seats[(k as usize - 1) % seats.len()],
            )
        })
        .take_while(|(t, _)| *t + RECOVERY_PERIOD_MS < HORIZON.as_nanos() / 1_000_000)
        .map(|(t, member)| (ms(t), ScenarioEvent::ProactiveRecover { shard: 0, member }))
        .collect();
    events.push((
        ms(3_500_000),
        ScenarioEvent::ProactiveRecover {
            shard: 0,
            member: cured_seat,
        },
    ));
    events
}

/// One hour-long cell: a single group under paced load, one adaptive
/// adversary, rolling recovery. Returns the distribution row and the raw
/// report (the caller re-runs one cell for the determinism check).
fn reliability_run(
    engine: Engine,
    scenario_name: &'static str,
    seed: u64,
    seats: &[usize],
    mut adversary: Adversary,
    twin: bool,
) -> (ReliabilityRow, ScenarioReport) {
    let cured_seat = adversary.seat().1;
    // An equivocating adversary needs its seat provisioned with a silent
    // split-brain twin; other strategies run on the plain honest host.
    let mut deployment = if twin {
        adversary_deployment(engine, 2, seed, cured_seat as u32)
    } else {
        scenario_deployment(engine, 2, seed)
    };
    deployment.start_paced_workload(RELIABILITY_PACE, |_, _| null_ops(64));
    let scenario = Scenario {
        name: scenario_name,
        duration: HORIZON,
        bucket: RELIABILITY_BUCKET,
        events: rolling_recovery(seats, cured_seat),
    };
    let report = run_scenario_adaptive(
        &mut deployment,
        &scenario,
        std::slice::from_mut(&mut adversary),
        ADVERSARY_TICK,
    );
    let mut per_bucket: Vec<u64> = report
        .timeline
        .buckets
        .iter()
        .map(|b| b.completed)
        .collect();
    per_bucket.sort_unstable();
    let per_sec = RELIABILITY_BUCKET.as_secs_f64();
    let tps_p50 = percentile(&per_bucket, 50.0) as f64 / per_sec;
    let tps_p99 = percentile(&per_bucket, 99.0) as f64 / per_sec;
    // Degraded = below three quarters of healthy (p99) throughput: catches
    // a starved lane (half the offered load) and an equivocation window
    // without tripping on bucket-quantization noise.
    let threshold_tps = 0.75 * tps_p99;
    let below = report
        .timeline
        .buckets
        .iter()
        .filter(|b| (b.completed as f64 / per_sec) < threshold_tps)
        .count();
    let row = ReliabilityRow {
        engine: engine.name(),
        scenario: scenario_name,
        availability: report.timeline.availability(),
        tps_p50,
        tps_p99,
        threshold_tps,
        time_below_threshold: SimDuration::from_nanos(RELIABILITY_BUCKET.as_nanos() * below as u64),
        recoveries: report
            .trace
            .iter()
            .filter(|m| m.label.starts_with("proactive("))
            .count(),
        adversary_actions: report
            .trace
            .iter()
            .filter(|m| m.label.starts_with("adv("))
            .count(),
    };
    (row, report)
}

/// A targeted censor camped on seat 0: starves client 1 whenever seat 0
/// holds the primacy. The backups' suspicion heuristic is progress-based
/// and the censor keeps committing everyone else's work, so no rotation
/// ever evicts it — the starvation runs until the rolling schedule's
/// closing reboot of the seat flushes the compromise.
fn censor_adversary() -> Adversary {
    Adversary::new(0, 0, TargetedCensor { client_bits: 0b1 })
}

/// An equivocating primary on seat 0: runs two correctly-signed brains
/// whenever it holds the primacy. The split is survivable (one audience
/// plus the brain is a full quorum) so the group limps along on stable
/// replies — until a rolling reboot of a quorum-side member stalls the
/// split and the suspicion timers finally rotate the liar out; the next
/// time the view cycles back to its seat, it equivocates again.
fn equivocation_adversary() -> Adversary {
    Adversary::new(0, 0, EquivocatingPrimary)
}

/// The reliability matrix: both strategies under both engines, plus the
/// determinism re-run of the first cell.
fn reliability_rows() -> Vec<ReliabilityRow> {
    const CENSOR: &str = "adaptive-censor+rolling-recovery";
    const EQUIV: &str = "adaptive-equivocation+rolling-recovery";
    let mut rows = Vec::new();
    let censor =
        |engine| reliability_run(engine, CENSOR, 90, &[1, 2, 3], censor_adversary(), false);
    let equiv = |engine| {
        reliability_run(
            engine,
            EQUIV,
            91,
            &[1, 2, 3],
            equivocation_adversary(),
            true,
        )
    };
    let (row, first) = censor(Engine::Pbft);
    rows.push(row);
    // Determinism acceptance: the same seed must reproduce the hour
    // byte-for-byte — trace, marks, and every bucket of the timeline.
    let (_, again) = censor(Engine::Pbft);
    assert_eq!(
        first, again,
        "an hour-long adaptive run must be a pure function of its seed"
    );
    rows.push(censor(Engine::Linear).0);
    rows.push(equiv(Engine::Pbft).0);
    rows.push(equiv(Engine::Linear).0);
    rows
}

fn fmt_recovery(r: Option<SimDuration>, all_finite: &mut bool) -> String {
    match r {
        Some(d) => format!("{:.0}", d.as_nanos() as f64 / 1e6),
        None => {
            *all_finite = false;
            "n/a".to_string()
        }
    }
}

fn recovery_ms(r: Option<SimDuration>) -> Json {
    Json::from(r.map(|d| d.as_nanos() as f64 / 1e6))
}

fn main() {
    let rows: Vec<Row> = Engine::ALL.into_iter().flat_map(scenario_rows).collect();

    println!(
        "{:<28} {:<8} {:>12} {:>14} {:>8} {:>14} {:>10} {:>9}",
        "scenario",
        "engine",
        "steady tps",
        "degraded tps",
        "avail",
        "recovery (ms)",
        "agree msg",
        "vc msg"
    );
    let mut all_finite = true;
    // Group the table by scenario so the two engine columns sit together.
    let half = rows.len() / 2;
    for i in 0..half {
        for r in [&rows[i], &rows[half + i]] {
            let recovery = fmt_recovery(r.recovery, &mut all_finite);
            println!(
                "{:<28} {:<8} {:>12.0} {:>14.0} {:>7.0}% {:>14} {:>10} {:>9}",
                r.name,
                r.engine,
                r.steady_tps,
                r.degraded_tps,
                r.availability * 100.0,
                recovery,
                r.agreement_msgs,
                r.viewchange_msgs,
            );
        }
    }

    println!(
        "\nrotation cost — primary-crash script, view-change packets per leader \
         rotation vs group size:"
    );
    println!(
        "{:<8} {:>4} {:>4} {:>10} {:>9} {:>13} {:>14}",
        "engine", "f", "n", "rotations", "vc msg", "vc/rotation", "recovery (ms)"
    );
    let sweep: Vec<SweepRow> = [1usize, 2, 3]
        .iter()
        .flat_map(|&f| Engine::ALL.map(|engine| rotation_sweep(engine, f, 80 + f as u64)))
        .collect();
    for s in &sweep {
        let recovery = fmt_recovery(s.recovery, &mut all_finite);
        println!(
            "{:<8} {:>4} {:>4} {:>10} {:>9} {:>13.1} {:>14}",
            s.engine,
            s.f,
            s.n,
            s.rotations,
            s.viewchange_msgs,
            s.per_rotation(),
            recovery,
        );
    }
    println!(
        "expectation: every scenario recovers under both engines; PBFT's all-to-all \
         view change pays O(n²) packets per rotation, the linear engine's \
         leader-directed votes O(n)"
    );

    println!(
        "\nlong-horizon reliability — 1 virtual hour per cell, adaptive adversary \
         vs rolling proactive recovery (1 s buckets):"
    );
    println!(
        "{:<36} {:<8} {:>7} {:>9} {:>9} {:>12} {:>11} {:>6} {:>8}",
        "scenario",
        "engine",
        "avail",
        "tps p50",
        "tps p99",
        "below thr(s)",
        "thr (tps)",
        "reboot",
        "adv acts"
    );
    let reliability = reliability_rows();
    for r in &reliability {
        println!(
            "{:<36} {:<8} {:>6.2}% {:>9.1} {:>9.1} {:>12.0} {:>11.1} {:>6} {:>8}",
            r.scenario,
            r.engine,
            r.availability * 100.0,
            r.tps_p50,
            r.tps_p99,
            r.time_below_threshold.as_secs_f64(),
            r.threshold_tps,
            r.recoveries,
            r.adversary_actions,
        );
    }

    let scenarios: Vec<Json> = rows
        .iter()
        .map(|r| {
            obj! {
                "scenario": r.name, "engine": r.engine,
                "steady_tps": r.steady_tps, "degraded_tps": r.degraded_tps,
                "availability": r.availability, "recovery_ms": recovery_ms(r.recovery),
                "agreement_msgs": r.agreement_msgs, "viewchange_msgs": r.viewchange_msgs,
            }
        })
        .collect();
    let sweep_rows: Vec<Json> = sweep
        .iter()
        .map(|s| {
            obj! {
                "engine": s.engine, "f": s.f, "n": s.n, "rotations": s.rotations,
                "viewchange_msgs": s.viewchange_msgs,
                "viewchange_msgs_per_rotation": s.per_rotation(),
                "agreement_msgs": s.agreement_msgs, "recovery_ms": recovery_ms(s.recovery),
            }
        })
        .collect();
    let reliability_rows: Vec<Json> = reliability
        .iter()
        .map(|r| {
            obj! {
                "scenario": r.scenario, "engine": r.engine,
                "horizon_ms": HORIZON.as_nanos() / 1_000_000,
                "bucket_ms": RELIABILITY_BUCKET.as_nanos() / 1_000_000,
                "availability": r.availability, "tps_p50": r.tps_p50, "tps_p99": r.tps_p99,
                "threshold_tps": r.threshold_tps,
                "time_below_threshold_ms": r.time_below_threshold.as_nanos() / 1_000_000,
                "recoveries": r.recoveries, "adversary_actions": r.adversary_actions,
            }
        })
        .collect();
    let json = obj! {
        "bench": "availability", "scenarios": scenarios,
        "rotation_sweep": sweep_rows, "reliability": reliability_rows,
    };
    artifact::write("BENCH_availability.json", &json);

    assert!(
        all_finite,
        "a scenario never recovered — liveness regression"
    );
    for r in &reliability {
        assert!(
            r.tps_p50 > 0.0 && r.availability > 0.5,
            "{} under {} spent most of the hour dark: avail={:.3} p50={:.1}",
            r.scenario,
            r.engine,
            r.availability,
            r.tps_p50
        );
        assert!(
            r.recoveries >= 20 && r.adversary_actions >= 1,
            "{} under {}: the hour must contain a real rolling schedule and a live \
             adversary (reboots={}, adversary marks={})",
            r.scenario,
            r.engine,
            r.recoveries,
            r.adversary_actions
        );
        assert!(
            r.tps_p99 > r.tps_p50 || r.time_below_threshold.as_nanos() > 0,
            "{} under {}: the adversary left no visible dent in the distribution \
             (p50={:.1}, p99={:.1}, below-threshold={:?})",
            r.scenario,
            r.engine,
            r.tps_p50,
            r.tps_p99,
            r.time_below_threshold
        );
    }
    // The committed curves must actually show the complexity gap: at every
    // group size the linear engine's rotation cost stays below PBFT's, and
    // the gap widens with n.
    for pair in sweep.chunks(2) {
        let (pbft, linear) = (&pair[0], &pair[1]);
        assert!(
            linear.per_rotation() < pbft.per_rotation(),
            "linear rotation at n={} cost {:.1} msgs vs PBFT {:.1} — O(n) claim broken",
            linear.n,
            linear.per_rotation(),
            pbft.per_rotation()
        );
    }
}
