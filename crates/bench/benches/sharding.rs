//! **Sharding** — extends Table 1 with horizontal composition: N
//! independent consensus groups behind the deterministic shard router,
//! measuring how aggregate committed throughput scales with the shard count
//! (the Loruenser et al. queueing model predicts near-linear scaling for
//! partitioned request streams). Runs head-to-head for both consensus
//! engines on the same workload, seeds and lockstep clock.
//!
//! Sweeps engine {pbft, linear} × shard count ∈ {1, 2, 4, 8} × batching
//! {on, off} on the keyed null-op workload (1 KiB requests, 12 clients per
//! group — the paper's client:group ratio). Reports per-configuration
//! aggregate TPS, per-shard balance and scaling efficiency against that
//! engine's own 1-shard baseline, and writes the grid to the committed
//! `BENCH_sharding.json`.
//!
//! Knobs: `SHARDING_TRIALS` (default 2) trades runtime for tighter standard
//! deviations.

use bench::artifact::{self, Json};
use bench::obj;
use harness::experiments::NUM_CLIENTS;
use harness::shard::{Deployment, DeploymentSpec, ShardedThroughput};
use harness::workload::keyed_null_ops;
use harness::{ClusterSpec, Stats};
use pbft_core::{Engine, PbftConfig};
use simnet::SimDuration;

const WARMUP: SimDuration = SimDuration::from_millis(300);
const WINDOW: SimDuration = SimDuration::from_secs(1);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REQUEST_SIZE: usize = 1024;

struct Row {
    engine: &'static str,
    shards: usize,
    batching: bool,
    /// One [`ShardedThroughput`] per trial.
    trials: Vec<ShardedThroughput>,
}

impl Row {
    fn aggregate(&self) -> Stats {
        Stats::from_samples(
            &self
                .trials
                .iter()
                .map(ShardedThroughput::aggregate_tps)
                .collect::<Vec<_>>(),
        )
    }

    fn balance(&self) -> Stats {
        Stats::from_samples(
            &self
                .trials
                .iter()
                .flat_map(|t| t.per_shard_tps.iter().copied())
                .collect::<Vec<_>>(),
        )
    }

    /// Mean scaling efficiency across trials against the 1-shard baseline.
    fn efficiency(&self, baseline_tps: f64) -> f64 {
        self.trials
            .iter()
            .map(|t| t.scaling_efficiency(baseline_tps))
            .sum::<f64>()
            / self.trials.len() as f64
    }
}

fn measure(engine: Engine, shards: usize, batching: bool, trials: usize) -> Row {
    let trials = (0..trials)
        .map(|trial| {
            let spec = DeploymentSpec {
                shards,
                base: ClusterSpec {
                    cfg: PbftConfig {
                        engine,
                        batching,
                        ..Default::default()
                    },
                    num_clients: NUM_CLIENTS,
                    seed: 5000 + trial as u64,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut sc = Deployment::build(spec);
            sc.start_keyed_workload(|shard, client| {
                keyed_null_ops(REQUEST_SIZE, (shard * NUM_CLIENTS + client) as u64)
            });
            sc.measure_throughput(WARMUP, WINDOW)
        })
        .collect();
    Row {
        engine: engine.name(),
        shards,
        batching,
        trials,
    }
}

/// The full shards × batching grid for one engine, with that engine's own
/// 1-shard row as the scaling baseline. Prints the rows and enforces the
/// 2.5x acceptance floor at 4 shards.
fn engine_grid(engine: Engine, trials: usize) -> Vec<Row> {
    let mut all = Vec::new();
    for batching in [true, false] {
        let rows: Vec<Row> = SHARD_COUNTS
            .iter()
            .map(|&s| measure(engine, s, batching, trials))
            .collect();
        let baseline = rows[0].aggregate().mean;
        for row in &rows {
            let (aggregate, balance) = (row.aggregate(), row.balance());
            println!(
                "{:<8} {:<10} {:>7} {:>12.0} {:>8.0} {:>14.0} {:>10.0} {:>11.2}x",
                row.engine,
                if row.batching { "on" } else { "off" },
                row.shards,
                aggregate.mean,
                aggregate.std_dev,
                balance.mean,
                balance.std_dev,
                row.efficiency(baseline),
            );
        }
        let four = rows
            .iter()
            .find(|r| r.shards == 4)
            .expect("the acceptance gate needs the 4-shard configuration in SHARD_COUNTS");
        let speedup = four.aggregate().mean / baseline;
        println!(
            "  -> {} 4-shard speedup over 1 shard: {speedup:.2}x \
             (scaling model expects ~4x; acceptance floor 2.5x)",
            engine.name(),
        );
        assert!(
            speedup >= 2.5,
            "{}: 4-shard aggregate ({:.0} TPS) fell below 2.5x the 1-shard baseline ({:.0} TPS)",
            engine.name(),
            four.aggregate().mean,
            baseline
        );
        println!();
        all.extend(rows);
    }
    all
}

fn main() {
    let trials: usize = std::env::var("SHARDING_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    println!(
        "Sharding — aggregate committed null-op TPS vs shard count per engine \
         (1 KiB ops, {NUM_CLIENTS} clients/group, {trials} trials)\n"
    );
    println!(
        "{:<8} {:<10} {:>7} {:>12} {:>8} {:>14} {:>10} {:>12}",
        "engine", "batching", "shards", "agg TPS", "StDev", "per-shard", "±", "efficiency"
    );

    let rows: Vec<Row> = Engine::ALL
        .into_iter()
        .flat_map(|engine| engine_grid(engine, trials))
        .collect();

    let baselines: Vec<(&'static str, bool, f64)> = rows
        .iter()
        .filter(|r| r.shards == 1)
        .map(|r| (r.engine, r.batching, r.aggregate().mean))
        .collect();
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let (aggregate, balance) = (r.aggregate(), r.balance());
            let baseline = baselines
                .iter()
                .find(|(e, b, _)| *e == r.engine && *b == r.batching)
                .map(|(_, _, tps)| *tps)
                .expect("every grid has its 1-shard row");
            obj! {
                "engine": r.engine, "batching": r.batching, "shards": r.shards,
                "aggregate_tps": aggregate.mean, "aggregate_tps_stddev": aggregate.std_dev,
                "per_shard_tps": balance.mean, "per_shard_tps_stddev": balance.std_dev,
                "scaling_efficiency": r.efficiency(baseline),
            }
        })
        .collect();
    let json = obj! {"bench": "sharding", "trials": trials, "rows": rows};
    artifact::write("BENCH_sharding.json", &json);
}
