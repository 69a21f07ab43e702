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
//! `BENCH_sharding.json`. Every row is a cell
//! (`rows/<engine>/batching=<on|off>/shards=<k>`) that re-runs alone: see
//! [`bench::cells`]. A row's scaling efficiency is derived from its grid's
//! 1-shard row, so a cell run alone leaves it out.

use std::sync::Mutex;

use bench::artifact::{num, text, Json};
use bench::cells::{self, cell, Cell, Section};
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
/// Seed-varied runs behind every row's standard deviation.
const TRIALS: usize = 2;

/// Each measured row's trials, in row order: its scaling efficiency is the
/// mean of its trials' efficiencies, which its JSON row cannot give.
static TRIALS_RUN: Mutex<Vec<Vec<ShardedThroughput>>> = Mutex::new(Vec::new());

fn main() {
    let (head, sections) = artifact();
    cells::main(head, sections);
}

/// The artifact's head and its sections of cells (`tests/drift.rs` re-runs
/// a sample of them).
pub fn artifact() -> (Json, Vec<Section>) {
    (
        obj! {"bench": "sharding", "trials": TRIALS},
        vec![Section::array("rows", row_cells(), grids)],
    )
}

/// Engine × batching × shard count, in row order.
fn row_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for engine in Engine::ALL {
        for batching in [true, false] {
            for shards in SHARD_COUNTS {
                let on = if batching { "on" } else { "off" };
                let id = format!("rows/{}/batching={on}/shards={shards}", engine.name());
                cells.push(cell(id, move || measure(engine, shards, batching)));
            }
        }
    }
    cells
}

fn measure(engine: Engine, shards: usize, batching: bool) -> Json {
    let trials: Vec<ShardedThroughput> = (0..TRIALS)
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
            sc.start_workload(|shard, client| {
                keyed_null_ops(REQUEST_SIZE, (shard * NUM_CLIENTS + client) as u64)
            });
            sc.measure_throughput(WARMUP, WINDOW)
        })
        .collect();
    let aggregates: Vec<f64> = trials
        .iter()
        .map(ShardedThroughput::aggregate_tps)
        .collect();
    let per_shard: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.per_shard_tps.clone())
        .collect();
    let (aggregate, balance) = (
        Stats::from_samples(&aggregates),
        Stats::from_samples(&per_shard),
    );
    TRIALS_RUN.lock().expect("no cell panicked").push(trials);
    obj! {
        "engine": engine.name(), "batching": batching, "shards": shards,
        "aggregate_tps": aggregate.mean, "aggregate_tps_stddev": aggregate.std_dev,
        "per_shard_tps": balance.mean, "per_shard_tps_stddev": balance.std_dev,
    }
}

/// Add each row's scaling efficiency against its grid's 1-shard row,
/// print the rows, and enforce the 2.5x acceptance floor at 4 shards.
fn grids(rows: Vec<Json>) -> Json {
    println!(
        "Sharding — aggregate committed null-op TPS vs shard count per engine \
         (1 KiB ops, {NUM_CLIENTS} clients/group, {TRIALS} trials)"
    );
    let trials = TRIALS_RUN.lock().expect("no cell panicked");
    let mut out = Vec::new();
    for (grid, grid_trials) in rows
        .chunks(SHARD_COUNTS.len())
        .zip(trials.chunks(SHARD_COUNTS.len()))
    {
        let baseline = num(&grid[0], "aggregate_tps");
        for (row, row_trials) in grid.iter().zip(grid_trials) {
            let efficiency = row_trials
                .iter()
                .map(|t| t.scaling_efficiency(baseline))
                .sum::<f64>()
                / row_trials.len() as f64;
            let row = row.clone().with("scaling_efficiency", efficiency);
            println!("{}", row.render().replace(['\n', ' '], ""));
            out.push(row);
        }
        let four = &grid[SHARD_COUNTS
            .iter()
            .position(|&k| k == 4)
            .expect("4 shards run")];
        let speedup = num(four, "aggregate_tps") / baseline;
        let engine = text(four, "engine");
        println!("  -> {engine} 4-shard speedup over 1 shard: {speedup:.2}x (floor 2.5x)");
        assert!(
            speedup >= 2.5,
            "{engine}: 4-shard aggregate is {speedup:.2}x the 1-shard baseline, below 2.5x"
        );
    }
    Json::Arr(out)
}
