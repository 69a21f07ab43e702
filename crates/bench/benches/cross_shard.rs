//! **Cross-shard transactions** — extends the `sharding` scaling study with
//! the cost of *coordinated* (two-phase commit) traffic, the piece the
//! embarrassingly parallel sweep deliberately excluded. The per-shard
//! client budget is fixed at the paper's 12; a cross-shard fraction of p%
//! converts that share of each group's clients into closed-loop transaction
//! initiators (each transaction = two null sub-ops on two different groups,
//! committed through prepare → replicated decide → commit), while the rest
//! keep running the PR 2 single-shard fast path. The whole sweep runs under
//! **both engines** (PBFT and linear-communication) on identical seeds, so
//! the 2PC overhead and the agreement-pattern overhead separate cleanly.
//!
//! Reported per sweep point: aggregate committed application TPS (background
//! ops + committed transaction sub-ops), transaction commit/abort counts,
//! the abort rate, and the degradation relative to the same deployment's
//! all-local (0%) row. The 0% row is additionally checked against a plain
//! PR 2 deployment (groups not wrapped for cross-shard frames) — the two
//! must agree within noise, since with zero initiators the wrapped
//! deployment *is* the PR 2 deployment (a pinned test in
//! `crates/harness/tests/xshard.rs` holds exact equality per seed).
//!
//! A second table measures **elastic resharding**: an elastic KV deployment
//! under closed-loop keyed load grows 2 → 4 groups through two live splits,
//! and the bucketed timeline yields the steady-state TPS, the depth of the
//! dip around each hand-off, and the client-visible time until throughput
//! is back within 90% of steady. Both engines again.
//!
//! Results land in `BENCH_cross_shard.json` at the repo root (parse-gated
//! by `tests/artifacts.rs`).
//!
//! Since PR 4 the 2PC tables are durable in the replicated state region
//! (write-through per protocol op); that cost lands only on the
//! transactional rows — the 0% row runs zero cross-shard frames, writes
//! nothing to the xshard section, and must stay glued to the PR 2
//! baseline.

use bench::artifact::{self, Json};
use bench::obj;
use harness::experiments::NUM_CLIENTS;
use harness::scenario::{run_scenario, Scenario, ScenarioEvent};
use harness::workload::{cross_null_txs, keyed_kv_ops, keyed_null_ops};
use harness::{AppKind, ClusterSpec, Deployment, DeploymentSpec, Stats};
use pbft_core::{Engine, PbftConfig};
use simnet::SimDuration;

const WARMUP: SimDuration = SimDuration::from_millis(300);
const WINDOW: SimDuration = SimDuration::from_secs(1);
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const CROSS_PCT: [usize; 4] = [0, 10, 50, 100];
const REQUEST_SIZE: usize = 1024;
/// Seed-varied runs behind every sweep point's standard deviation.
const TRIALS: usize = 2;
/// Bounded key space for the transactional workload — small enough that
/// concurrent initiators occasionally contend (a real abort rate), large
/// enough that conflicts stay the exception.
const KEY_SPACE: u64 = 512;

struct Point {
    engine: &'static str,
    shards: usize,
    pct: usize,
    bg_per_group: usize,
    initiators: usize,
    tps: Vec<f64>,
    abort_rate: Vec<f64>,
    committed_txs: u64,
    aborted_txs: u64,
    /// `mean TPS / this deployment's 0% row` — filled once the row exists.
    vs_local: f64,
}

fn base(engine: Engine, seed: u64, num_clients: usize) -> ClusterSpec {
    ClusterSpec {
        cfg: PbftConfig {
            engine,
            ..Default::default()
        },
        num_clients,
        seed,
        ..Default::default()
    }
}

fn measure_point(engine: Engine, shards: usize, pct: usize) -> Point {
    // Convert pct% of the 12-client budget into transaction initiators.
    let init_per_group = (NUM_CLIENTS * pct + 50) / 100;
    let bg_per_group = NUM_CLIENTS - init_per_group;
    let initiators = init_per_group * shards;
    let mut tps = Vec::with_capacity(TRIALS);
    let mut abort_rate = Vec::with_capacity(TRIALS);
    let (mut committed_txs, mut aborted_txs) = (0, 0);
    for trial in 0..TRIALS {
        // Every row runs xshard-wrapped groups, the 0% row included.
        let mut base = base(engine, 9000 + trial as u64, bg_per_group);
        base.xshard = true;
        let spec = DeploymentSpec {
            shards,
            base,
            initiators,
            ..Default::default()
        };
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        if bg_per_group > 0 {
            xc.start_workload(|s, c| keyed_null_ops(REQUEST_SIZE, (s * NUM_CLIENTS + c) as u64));
        }
        if initiators > 0 {
            xc.start_transactions(|i| cross_null_txs(map, REQUEST_SIZE, KEY_SPACE, i as u64));
        }
        let t = xc.measure(WARMUP, WINDOW);
        tps.push(t.committed_tps);
        abort_rate.push(t.abort_rate());
        committed_txs += t.tx_committed;
        aborted_txs += t.tx_aborted;
    }
    Point {
        engine: engine.name(),
        shards,
        pct,
        bg_per_group,
        initiators,
        tps,
        abort_rate,
        committed_txs,
        aborted_txs,
        vs_local: 0.0,
    }
}

/// The PR 2 all-local baseline: the same deployment without the xshard
/// harness at all.
fn measure_baseline(engine: Engine, shards: usize) -> Stats {
    let samples: Vec<f64> = (0..TRIALS)
        .map(|trial| {
            let mut sc = Deployment::build(DeploymentSpec {
                shards,
                base: base(engine, 9000 + trial as u64, NUM_CLIENTS),
                ..Default::default()
            });
            sc.start_workload(|s, c| keyed_null_ops(REQUEST_SIZE, (s * NUM_CLIENTS + c) as u64));
            sc.measure_throughput(WARMUP, WINDOW).aggregate_tps()
        })
        .collect();
    Stats::from_samples(&samples)
}

/// One engine's full cross-shard sweep, with the 0%-vs-baseline guard.
fn sweep(engine: Engine) -> Vec<Point> {
    let mut all = Vec::new();
    for &shards in &SHARD_COUNTS {
        let baseline = measure_baseline(engine, shards);
        let mut points: Vec<Point> = CROSS_PCT
            .iter()
            .map(|&pct| measure_point(engine, shards, pct))
            .collect();
        let local = Stats::from_samples(&points[0].tps).mean;
        for p in &mut points {
            p.vs_local = Stats::from_samples(&p.tps).mean / local;
        }
        for p in &points {
            let agg = Stats::from_samples(&p.tps);
            let aborts = Stats::from_samples(&p.abort_rate);
            println!(
                "{:<7} {:<7} {:>7} {:>10} {:>10} {:>12.0} {:>8.0} {:>8.2}x {:>10} {:>9.1}%",
                p.engine,
                p.shards,
                p.pct,
                p.bg_per_group,
                p.initiators,
                agg.mean,
                agg.std_dev,
                p.vs_local,
                format!("{}/{}", p.committed_txs, p.aborted_txs),
                aborts.mean * 100.0,
            );
        }
        let p0 = Stats::from_samples(&points[0].tps).mean;
        let ratio = p0 / baseline.mean;
        println!(
            "  -> {} 0% row vs PR 2 sharding baseline ({:.0} TPS): {ratio:.3}x \
             (must be within noise)\n",
            engine.name(),
            baseline.mean
        );
        assert!(
            (0.95..=1.05).contains(&ratio),
            "0% cross-shard traffic ({p0:.0} TPS) diverged from the PR 2 baseline \
             ({:.0} TPS) by more than 5%",
            baseline.mean
        );
        let full = points.last().expect("non-empty sweep");
        assert!(
            full.committed_txs > 0,
            "the 100% cross-shard row must commit transactions"
        );
        all.extend(points);
    }
    all
}

// ---------------------------------------------------------------------------
// Elastic resharding cell: throughput dip + time-to-recover across 2 → 4.
// ---------------------------------------------------------------------------

/// Key space of the resharding deployment (a real KV app, so the splits
/// move live records, not just routing entries).
const RESHARD_SLOTS: u64 = 1024;
/// Timeline bucket width for the dip measurement.
const RESHARD_BUCKET: SimDuration = SimDuration::from_millis(25);
/// Throughput counts as "recovered" at this fraction of steady state.
const RECOVERY_FRACTION: f64 = 0.9;

struct ReshardRow {
    engine: &'static str,
    steady_tps: f64,
    dip_tps: f64,
    recovered_tps: f64,
    /// Worst client-visible time (ms) from a split firing to the first
    /// bucket back at `RECOVERY_FRACTION` of steady, over both splits.
    recover_ms: f64,
    availability: f64,
}

fn measure_reshard(engine: Engine) -> ReshardRow {
    let ms = SimDuration::from_millis;
    let mut b = base(engine, 9100, NUM_CLIENTS);
    b.app = AppKind::Kv {
        slots: RESHARD_SLOTS,
    };
    b.cfg.checkpoint_interval = 32;
    let mut sc = Deployment::build(DeploymentSpec {
        shards: 2,
        base: b,
        elastic: true,
        ..Default::default()
    });
    sc.start_workload(|s, c| keyed_kv_ops(RESHARD_SLOTS, (s * NUM_CLIENTS + c) as u64));
    // Split both original groups in turn: 2 → 3 → 4, epochs 1 and 2.
    let scenario = Scenario {
        name: "reshard-2-to-4",
        duration: ms(2_000),
        bucket: RESHARD_BUCKET,
        events: vec![
            (ms(600), ScenarioEvent::Reshard { source: 0 }),
            (ms(1_200), ScenarioEvent::Reshard { source: 1 }),
        ],
    };
    let report = run_scenario(&mut sc, &scenario);
    assert_eq!(sc.shards(), 4, "2 -> 4 growth path");
    assert_eq!(sc.router().epoch(), 2);

    let tl = &report.timeline;
    // Steady state: the 400 ms before the first split (past client warmup).
    let first_split = tl.bucket_index(report.trace[0].at);
    let steady = tl.window_tps(first_split.saturating_sub(16), first_split);
    // Around each split: deepest bucket in the 400 ms after the hand-off,
    // and the time until a bucket is back at RECOVERY_FRACTION of steady.
    let mut dip = f64::INFINITY;
    let mut recover_ms: f64 = 0.0;
    for mark in &report.trace {
        let from = tl.bucket_index(mark.at) + 1;
        let to = (from + 16).min(tl.buckets.len());
        for i in from..to {
            dip = dip.min(tl.tps(i));
        }
        let recovered_at = (from..tl.buckets.len())
            .find(|&i| tl.tps(i) >= RECOVERY_FRACTION * steady)
            .unwrap_or_else(|| {
                panic!(
                    "{}: throughput never recovered to {RECOVERY_FRACTION}x steady \
                     ({steady:.0} TPS) after {}",
                    engine.name(),
                    mark.label
                )
            });
        let end = tl.start
            + SimDuration::from_nanos(RESHARD_BUCKET.as_nanos() * (recovered_at as u64 + 1));
        recover_ms = recover_ms.max(end.saturating_sub(mark.at).as_nanos() as f64 / 1e6);
    }
    // Recovered plateau: the final 300 ms, all four groups serving.
    let n = tl.buckets.len();
    let recovered = tl.window_tps(n - 12, n);
    ReshardRow {
        engine: engine.name(),
        steady_tps: steady,
        dip_tps: dip,
        recovered_tps: recovered,
        recover_ms,
        availability: tl.availability(),
    }
}

fn main() {
    println!(
        "Cross-shard transactions — committed TPS and abort rate vs cross-shard \
         fraction (1 KiB ops, {NUM_CLIENTS}-client budget per group, {TRIALS} trials, \
         both engines)\n"
    );
    println!(
        "{:<7} {:<7} {:>7} {:>10} {:>10} {:>12} {:>8} {:>9} {:>10} {:>10}",
        "engine",
        "shards",
        "cross%",
        "bg/grp",
        "initiators",
        "agg TPS",
        "StDev",
        "vs local",
        "tx c/a",
        "abort%"
    );
    let rows: Vec<Point> = Engine::ALL.into_iter().flat_map(sweep).collect();

    println!(
        "Elastic resharding — 2 -> 4 live splits under closed-loop keyed load \
         ({RESHARD_SLOTS}-key KV, {}ms buckets)\n",
        RESHARD_BUCKET.as_nanos() / 1_000_000
    );
    println!(
        "{:<8} {:>12} {:>10} {:>13} {:>11} {:>7}",
        "engine", "steady TPS", "dip TPS", "recovered TPS", "recover ms", "avail"
    );
    let reshard = Engine::ALL.map(measure_reshard);
    for r in &reshard {
        println!(
            "{:<8} {:>12.0} {:>10.0} {:>13.0} {:>11.1} {:>6.1}%",
            r.engine,
            r.steady_tps,
            r.dip_tps,
            r.recovered_tps,
            r.recover_ms,
            r.availability * 100.0,
        );
        assert!(
            r.recovered_tps >= RECOVERY_FRACTION * r.steady_tps,
            "{}: the 4-group plateau ({:.0} TPS) must not sit below {RECOVERY_FRACTION}x \
             the 2-group steady state ({:.0} TPS)",
            r.engine,
            r.recovered_tps,
            r.steady_tps
        );
    }

    let rows: Vec<Json> = rows
        .iter()
        .map(|p| {
            let agg = Stats::from_samples(&p.tps);
            let aborts = Stats::from_samples(&p.abort_rate);
            obj! {
                "engine": p.engine, "shards": p.shards, "cross_pct": p.pct,
                "bg_per_group": p.bg_per_group, "initiators": p.initiators,
                "tps_mean": agg.mean, "tps_stddev": agg.std_dev, "vs_local": p.vs_local,
                "committed_txs": p.committed_txs, "aborted_txs": p.aborted_txs,
                "abort_rate": aborts.mean,
            }
        })
        .collect();
    let reshard: Vec<Json> = reshard
        .iter()
        .map(|r| {
            obj! {
                "engine": r.engine, "shards_before": 2usize, "shards_after": 4usize,
                "epochs": 2usize, "steady_tps": r.steady_tps, "dip_tps": r.dip_tps,
                "recovered_tps": r.recovered_tps, "recover_ms": r.recover_ms,
                "availability": r.availability,
            }
        })
        .collect();
    let json = obj! {"bench": "cross_shard", "rows": rows, "reshard": reshard};
    artifact::write("BENCH_cross_shard.json", &json);

    println!(
        "Degradation comes from two effects: each initiator replaces a pipelined \
         single-shard client with a 3-round (prepare/decide/commit) closed loop, \
         and committed transaction sub-ops count once per application, not per \
         protocol round. Abort rates trace lock conflicts in the {KEY_SPACE}-key space. \
         The resharding dip is the drain-and-handoff window; recovery is bounded by \
         the router cutover plus the clients' retry backoff."
    );
}
