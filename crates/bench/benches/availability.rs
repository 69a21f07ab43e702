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
//! minutes; seeds are fixed so rows are reproducible). Every row is a cell
//! that re-runs alone (see [`bench::cells`]):
//! `scenarios/<scenario>/<engine>`, `rotation_sweep/n=<n>/<engine>` and
//! `reliability/<scenario>/<engine>`; each section checks its rows in its
//! `finish`, which a cell run alone skips.

use bench::artifact::{num, text, Json};
use bench::cells::{self, cell, Cell, Section};
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

/// A scenario row: the fault window of `report` under `engine`.
fn measure(
    engine: Engine,
    scenario: &Scenario,
    report: &ScenarioReport,
    (agreement_msgs, viewchange_msgs): (u64, u64),
) -> Json {
    let t = &report.timeline;
    let first_fault = report.trace.first().map(|m| m.at).unwrap_or(t.start);
    let last_repair = report.trace.last().map(|m| m.at).unwrap_or(t.start);
    let fault_bucket = t.bucket_index(first_fault);
    let repair_bucket = t.bucket_index(last_repair) + 1;
    obj! {
        "scenario": scenario.name, "engine": engine.name(),
        "steady_tps": t.window_tps(0, fault_bucket),
        "degraded_tps": t.window_tps(fault_bucket, repair_bucket),
        "availability": t.availability(),
        "recovery_ms": recovery_ms(t.recovery_after(first_fault)),
        "agreement_msgs": agreement_msgs, "viewchange_msgs": viewchange_msgs,
    }
}

fn single_group(engine: Engine, scenario: &Scenario, seed: u64) -> Json {
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, scenario);
    measure(engine, scenario, &report, group_msgs(deployment.group(0)))
}

fn sharded(engine: Engine, scenario: &Scenario, seed: u64) -> Json {
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

fn xshard(engine: Engine, scenario: &Scenario, seed: u64) -> Json {
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

/// The five conformance scenarios under each engine, all of PBFT's first
/// (fixed seeds, so the two engines see identical scripts and workload
/// arrival processes).
fn scenario_cells() -> Vec<Cell> {
    // A script, the deployment it runs on, and its seed.
    type Script = (fn() -> Scenario, fn(Engine, &Scenario, u64) -> Json, u64);
    let scripts: [Script; 5] = [
        (paper::primary_crash_under_load, single_group, 71),
        (paper::slow_primary, single_group, 72),
        (paper::rolling_crash, single_group, 73),
        (paper::coordinator_outage, xshard, 74),
        (paper::partition_then_heal, sharded, 75),
    ];
    let mut cells = Vec::new();
    for engine in Engine::ALL {
        for (script, run, seed) in scripts {
            let id = format!("scenarios/{}/{}", script().name, engine.name());
            cells.push(cell(id, move || run(engine, &script(), seed)));
        }
    }
    cells
}

/// Run the *same* primary-crash fault script on a `3f + 1`-member group and
/// count what one leader rotation costs in view-change packets.
fn rotation_sweep(engine: Engine, f: usize, seed: u64) -> Json {
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
    // Leader rotations observed: the most new views any member entered.
    let rotations = (0..cluster.replicas.len())
        .map(|i| cluster.replica_metrics(i).new_views_entered)
        .max()
        .unwrap_or(0);
    let (agreement_msgs, viewchange_msgs) = group_msgs(cluster);
    obj! {
        "engine": engine.name(), "f": f, "n": 3 * f + 1, "rotations": rotations,
        "viewchange_msgs": viewchange_msgs,
        "viewchange_msgs_per_rotation": viewchange_msgs as f64 / rotations.max(1) as f64,
        "agreement_msgs": agreement_msgs,
        "recovery_ms": recovery_ms(report.timeline.recovery_after(first_fault)),
    }
}

/// The rotation-cost sweep: f ∈ {1, 2, 3}, both engines at each.
fn sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for f in [1usize, 2, 3] {
        for engine in Engine::ALL {
            let id = format!("rotation_sweep/n={}/{}", 3 * f + 1, engine.name());
            cells.push(cell(id, move || rotation_sweep(engine, f, 80 + f as u64)));
        }
    }
    cells
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
/// report (one cell re-runs itself for the determinism check).
fn reliability_run(
    engine: Engine,
    scenario_name: &'static str,
    seed: u64,
    seats: &[usize],
    mut adversary: Adversary,
    twin: bool,
) -> (Json, ScenarioReport) {
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
    let count = |prefix: &str| {
        let marks = report.trace.iter();
        marks.filter(|m| m.label.starts_with(prefix)).count()
    };
    let row = obj! {
        "scenario": scenario_name, "engine": engine.name(),
        "horizon_ms": HORIZON.as_nanos() / 1_000_000,
        "bucket_ms": RELIABILITY_BUCKET.as_nanos() / 1_000_000,
        "availability": report.timeline.availability(), "tps_p50": tps_p50, "tps_p99": tps_p99,
        "threshold_tps": threshold_tps,
        "time_below_threshold_ms": RELIABILITY_BUCKET.as_nanos() * below as u64 / 1_000_000,
        "recoveries": count("proactive("), "adversary_actions": count("adv("),
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

const CENSOR: &str = "adaptive-censor+rolling-recovery";
const EQUIV: &str = "adaptive-equivocation+rolling-recovery";

/// One reliability cell: `scenario` under `engine`. The censor under PBFT
/// is run twice from its seed and the two hours must be identical.
fn reliability(engine: Engine, scenario: &'static str) -> Json {
    let run = || {
        let (seed, adversary, twin) = match scenario {
            CENSOR => (90, censor_adversary(), false),
            _ => (91, equivocation_adversary(), true),
        };
        reliability_run(engine, scenario, seed, &[1, 2, 3], adversary, twin)
    };
    let (row, first) = run();
    if scenario == CENSOR && engine == Engine::Pbft {
        // Determinism acceptance: the same seed must reproduce the hour
        // byte-for-byte — trace, marks, and every bucket of the timeline.
        let (_, again) = run();
        assert_eq!(
            first, again,
            "an hour-long adaptive run must be a pure function of its seed"
        );
    }
    row
}

/// The reliability matrix: both strategies under both engines.
fn reliability_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in [CENSOR, EQUIV] {
        for engine in Engine::ALL {
            let id = format!("reliability/{scenario}/{}", engine.name());
            cells.push(cell(id, move || reliability(engine, scenario)));
        }
    }
    cells
}

/// A row's `recovery_ms` for the tables, and whether it is finite.
fn fmt_recovery(row: &Json) -> (String, bool) {
    match row.get("recovery_ms") {
        Some(Json::Num(ms)) => (format!("{ms:.0}"), true),
        _ => ("n/a".to_string(), false),
    }
}

fn recovery_ms(r: Option<SimDuration>) -> Json {
    Json::from(r.map(|d| d.as_nanos() as f64 / 1e6))
}

fn main() {
    let (head, sections) = artifact();
    cells::main(head, sections);
}

/// The artifact's head and its sections of cells (`tests/drift.rs` re-runs
/// a sample of them).
pub fn artifact() -> (Json, Vec<Section>) {
    (
        obj! {"bench": "availability"},
        vec![
            Section::array("scenarios", scenario_cells(), scenarios),
            Section::array("rotation_sweep", sweep_cells(), sweep),
            Section::array("reliability", reliability_cells(), reliability_table),
        ],
    )
}

/// Print the scenario rows, grouped by scenario so the two engine columns
/// sit together, and require every one to recover.
fn scenarios(rows: Vec<Json>) -> Json {
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
    let half = rows.len() / 2;
    for i in 0..half {
        for r in [&rows[i], &rows[half + i]] {
            let (recovery, finite) = fmt_recovery(r);
            println!(
                "{:<28} {:<8} {:>12.0} {:>14.0} {:>7.0}% {:>14} {:>10} {:>9}",
                text(r, "scenario"),
                text(r, "engine"),
                num(r, "steady_tps"),
                num(r, "degraded_tps"),
                num(r, "availability") * 100.0,
                recovery,
                num(r, "agreement_msgs"),
                num(r, "viewchange_msgs"),
            );
            assert!(
                finite,
                "{} under {} never recovered — liveness regression",
                text(r, "scenario"),
                text(r, "engine")
            );
        }
    }
    Json::Arr(rows)
}

/// Print the rotation sweep, require every run to recover and the linear
/// engine's rotation to cost less than PBFT's at every group size.
fn sweep(rows: Vec<Json>) -> Json {
    println!(
        "\nrotation cost — primary-crash script, view-change packets per leader \
         rotation vs group size:"
    );
    println!(
        "{:<8} {:>4} {:>4} {:>10} {:>9} {:>13} {:>14}",
        "engine", "f", "n", "rotations", "vc msg", "vc/rotation", "recovery (ms)"
    );
    for s in &rows {
        let (recovery, finite) = fmt_recovery(s);
        println!(
            "{:<8} {:>4} {:>4} {:>10} {:>9} {:>13.1} {:>14}",
            text(s, "engine"),
            num(s, "f"),
            num(s, "n"),
            num(s, "rotations"),
            num(s, "viewchange_msgs"),
            num(s, "viewchange_msgs_per_rotation"),
            recovery,
        );
        assert!(
            finite,
            "the n={} sweep under {} never recovered — liveness regression",
            num(s, "n"),
            text(s, "engine")
        );
    }
    println!(
        "expectation: every scenario recovers under both engines; PBFT's all-to-all \
         view change pays O(n²) packets per rotation, the linear engine's \
         leader-directed votes O(n)"
    );
    // The committed curves must actually show the complexity gap: at every
    // group size the linear engine's rotation cost stays below PBFT's, and
    // the gap widens with n.
    let per_rotation = |row: &Json| num(row, "viewchange_msgs_per_rotation");
    for pair in rows.chunks(2) {
        let (pbft, linear) = (&pair[0], &pair[1]);
        assert!(
            per_rotation(linear) < per_rotation(pbft),
            "linear rotation at n={} cost {:.1} msgs vs PBFT {:.1} — O(n) claim broken",
            num(linear, "n"),
            per_rotation(linear),
            per_rotation(pbft)
        );
    }
    Json::Arr(rows)
}

/// Print the reliability rows and require each hour to hold a real rolling
/// schedule, a live adversary and a visible dent, without going dark.
fn reliability_table(rows: Vec<Json>) -> Json {
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
    for r in &rows {
        let (scenario, engine) = (text(r, "scenario"), text(r, "engine"));
        let (availability, p50, p99) =
            (num(r, "availability"), num(r, "tps_p50"), num(r, "tps_p99"));
        let below_ms = num(r, "time_below_threshold_ms");
        let (recoveries, actions) = (num(r, "recoveries"), num(r, "adversary_actions"));
        println!(
            "{scenario:<36} {engine:<8} {:>6.2}% {p50:>9.1} {p99:>9.1} {:>12.0} {:>11.1} \
             {recoveries:>6} {actions:>8}",
            availability * 100.0,
            below_ms / 1e3,
            num(r, "threshold_tps"),
        );
        assert!(
            p50 > 0.0 && availability > 0.5,
            "{scenario} under {engine} spent most of the hour dark: avail={availability:.3} \
             p50={p50:.1}"
        );
        assert!(
            recoveries >= 20.0 && actions >= 1.0,
            "{scenario} under {engine}: the hour must contain a real rolling schedule and a \
             live adversary (reboots={recoveries}, adversary marks={actions})"
        );
        assert!(
            p99 > p50 || below_ms > 0.0,
            "{scenario} under {engine}: the adversary left no visible dent in the \
             distribution (p50={p50:.1}, p99={p99:.1}, below-threshold={below_ms} ms)"
        );
    }
    Json::Arr(rows)
}
