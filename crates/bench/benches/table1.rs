//! **Table 1** — "PBFT library configurations we test. TPS is transactions
//! per second, where a transaction is simply a null request. Null request
//! and null response sizes are 1024 bytes."
//!
//! The ten configuration rows exercise the PBFT engine (they are the
//! paper's library knobs); a second section re-measures two representative
//! configurations under the linear-communication engine for the
//! head-to-head column, and the whole run lands in the committed
//! `BENCH_table1.json`.

use bench::artifact::{self, Json};
use bench::obj;
use harness::experiments::{
    null_throughput, render_table, table1, table1_configs, TABLE1_PAPER_TPS,
};
use harness::Stats;
use pbft_core::{Engine, PbftConfig};

const SIZE: usize = 1024;

/// The committed PR 8 numbers (the seed of the recorded perf trajectory):
/// `tps_mean` per Table 1 row from `BENCH_table1.json` as of the elastic-
/// resharding PR, before the encode-once/pipelined hot path landed. Each
/// regenerated artifact records its speedup against these, and the batch
/// row is floored at 1.3× so the trajectory cannot silently regress.
const SEED_ROWS: [f64; 10] = [
    8005.83, 1000.0, 5367.33, 1000.0, 511.5, 433.0, 600.83, 430.17, 600.17, 430.5,
];

/// PR 8 head-to-head cells, same order as the `cells` vector below:
/// (`sta_mac_allbig_batch`, `nosta_nomac_noallbig_batch`) × (pbft, linear).
const SEED_CELLS: [f64; 4] = [8005.83, 5860.33, 600.17, 377.0];

/// The trajectory floor for the batch row (both engines).
const BATCH_ROW_FLOOR: f64 = 1.3;

/// Head-to-head cell: one configuration, one engine.
struct Cell {
    config: String,
    engine: &'static str,
    tps: Stats,
}

fn cell(cfg: &PbftConfig, engine: Engine, trials: usize) -> Cell {
    let cfg = PbftConfig {
        engine,
        ..cfg.clone()
    };
    Cell {
        config: cfg.table1_name(),
        engine: engine.name(),
        tps: null_throughput(&cfg, SIZE, trials),
    }
}

fn main() {
    let trials = 3;
    let rows = table1(SIZE, trials);
    println!(
        "{}",
        render_table(
            &format!("Table 1 — null ops, 1 KiB request/reply, 12 clients / 4 replicas ({trials} trials)"),
            &rows,
        )
    );
    let paper = TABLE1_PAPER_TPS;
    println!("paper-vs-measured (speedup is vs the committed PR 8 seed):");
    for ((r, p), s) in rows.iter().zip(paper).zip(SEED_ROWS) {
        println!(
            "  {:<32} paper {:>7.0}   measured {:>7.0}   speedup {:>5.2}x",
            r.name,
            p,
            r.tps.mean,
            r.tps.mean / s
        );
    }

    // Engine head-to-head: the paper's fastest configuration and its most
    // robust batching configuration, PBFT vs the linear engine on the same
    // seeds and workload.
    let configs = table1_configs();
    let picks = [&configs[0], &configs[8]];
    let mut cells = Vec::new();
    println!("\nengine head-to-head (same configs, seeds and workload):");
    println!(
        "{:<32} {:<8} {:>10} {:>8}",
        "configuration", "engine", "TPS", "StDev"
    );
    for cfg in picks {
        for engine in Engine::ALL {
            let c = cell(cfg, engine, trials);
            println!(
                "{:<32} {:<8} {:>10.0} {:>8.0}",
                c.config, c.engine, c.tps.mean, c.tps.std_dev
            );
            cells.push(c);
        }
    }

    // Trajectory floor: the batch row must stay ≥ 1.3× the PR 8 seed on
    // both engines. Failing here (and in tests/artifacts.rs, which gates
    // the committed artifact) keeps the hot-path speedup from silently
    // eroding in later PRs.
    for (c, seed) in cells.iter().zip(SEED_CELLS).take(2) {
        let speedup = c.tps.mean / seed;
        assert!(
            speedup >= BATCH_ROW_FLOOR,
            "{} [{}]: {:.0} TPS is only {speedup:.2}x the PR 8 seed ({seed:.0}); floor is {BATCH_ROW_FLOOR}x",
            c.config,
            c.engine,
            c.tps.mean,
        );
        println!(
            "trajectory: {} [{}] {speedup:.2}x over seed (floor {BATCH_ROW_FLOOR}x)",
            c.config, c.engine
        );
    }

    let rows: Vec<Json> = rows
        .iter()
        .zip(paper)
        .zip(SEED_ROWS)
        .map(|((r, p), s)| {
            obj! {
                "config": r.name.as_str(), "engine": "pbft",
                "tps_mean": r.tps.mean, "tps_stddev": r.tps.std_dev,
                "paper_tps": p, "seed_tps": s, "speedup_vs_seed": r.tps.mean / s,
            }
        })
        .collect();
    let cells: Vec<Json> = cells
        .iter()
        .zip(SEED_CELLS)
        .map(|(c, s)| {
            obj! {
                "config": c.config.as_str(), "engine": c.engine,
                "tps_mean": c.tps.mean, "tps_stddev": c.tps.std_dev,
                "seed_tps": s, "speedup_vs_seed": c.tps.mean / s,
            }
        })
        .collect();
    let json = obj! {
        "bench": "table1", "request_size": SIZE, "trials": trials,
        "rows": rows, "engine_head_to_head": cells,
    };
    artifact::write("BENCH_table1.json", &json);
}
