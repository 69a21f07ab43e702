//! **Table 1** — "PBFT library configurations we test. TPS is transactions
//! per second, where a transaction is simply a null request. Null request
//! and null response sizes are 1024 bytes."
//!
//! The ten configuration rows exercise the PBFT engine (they are the
//! paper's library knobs); a second section re-measures two representative
//! configurations under the linear-communication engine for the
//! head-to-head column, and the whole run lands in the committed
//! `BENCH_table1.json`. Every row is a cell (`rows/<config>`,
//! `engine_head_to_head/<config>/<engine>`) that re-runs alone: see
//! [`bench::cells`].

use bench::artifact::{num, text, Json};
use bench::cells::{self, cell, null_tps, Cell, Section};
use bench::obj;
use harness::experiments::{table1_configs, TABLE1_PAPER_TPS};
use pbft_core::{Engine, PbftConfig};

const SIZE: usize = 1024;
const TRIALS: usize = 3;

/// The committed PR 8 numbers (the seed of the recorded perf trajectory):
/// `tps_mean` per Table 1 row from `BENCH_table1.json` as of the elastic-
/// resharding PR, before the encode-once/pipelined hot path landed. Each
/// regenerated artifact records its speedup against these, and the batch
/// row is floored at 1.3× so the trajectory cannot silently regress.
const SEED_ROWS: [f64; 10] = [
    8005.83, 1000.0, 5367.33, 1000.0, 511.5, 433.0, 600.83, 430.17, 600.17, 430.5,
];

/// PR 8 head-to-head cells, in row order:
/// (`sta_mac_allbig_batch`, `nosta_nomac_noallbig_batch`) × (pbft, linear).
const SEED_CELLS: [f64; 4] = [8005.83, 5860.33, 600.17, 377.0];

/// The trajectory floor for the batch row (both engines).
const BATCH_ROW_FLOOR: f64 = 1.3;

fn main() {
    let (head, sections) = artifact();
    cells::main(head, sections);
}

/// The artifact's head and its sections of cells (`tests/drift.rs` re-runs
/// a sample of them).
pub fn artifact() -> (Json, Vec<Section>) {
    (
        obj! {"bench": "table1", "request_size": SIZE, "trials": TRIALS},
        vec![
            Section::array("rows", row_cells(), table),
            Section::array("engine_head_to_head", head_to_head_cells(), head_to_head),
        ],
    )
}

/// A row measured under `cfg`'s engine: beside the paper's number, if it
/// has one, and with its speedup over `seed`.
fn measure(cfg: &PbftConfig, paper: Option<f64>, seed: f64) -> Json {
    let tps = null_tps(cfg, SIZE, TRIALS);
    let row = obj! {
        "config": cfg.table1_name(), "engine": cfg.engine.name(),
        "tps_mean": tps.mean, "tps_stddev": tps.std_dev,
    };
    let row = match paper {
        Some(p) => row.with("paper_tps", p),
        None => row,
    };
    row.with("seed_tps", seed)
        .with("speedup_vs_seed", tps.mean / seed)
}

/// The ten configurations under the PBFT engine.
fn row_cells() -> Vec<Cell> {
    table1_configs()
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| {
            cell(format!("rows/{}", cfg.table1_name()), move || {
                measure(&cfg, Some(TABLE1_PAPER_TPS[i]), SEED_ROWS[i])
            })
        })
        .collect()
}

fn table(rows: Vec<Json>) -> Json {
    println!("Table 1 — null ops, 1 KiB request/reply, 12 clients / 4 replicas ({TRIALS} trials)");
    println!("(speedup is vs the committed PR 8 seed)");
    for r in &rows {
        println!(
            "  {:<32} paper {:>7.0}   measured {:>7.0}   speedup {:>5.2}x",
            text(r, "config"),
            num(r, "paper_tps"),
            num(r, "tps_mean"),
            num(r, "speedup_vs_seed"),
        );
    }
    Json::Arr(rows)
}

/// Engine head-to-head: the paper's fastest configuration and its most
/// robust batching configuration, PBFT vs the linear engine on the same
/// seeds and workload.
fn head_to_head_cells() -> Vec<Cell> {
    let configs = table1_configs();
    let mut cells = Vec::new();
    for base in [&configs[0], &configs[8]] {
        for engine in Engine::ALL {
            let cfg = PbftConfig {
                engine,
                ..base.clone()
            };
            let seed = SEED_CELLS[cells.len()];
            let id = format!(
                "engine_head_to_head/{}/{}",
                cfg.table1_name(),
                engine.name()
            );
            cells.push(cell(id, move || measure(&cfg, None, seed)));
        }
    }
    cells
}

/// Trajectory floor: the batch row must stay ≥ 1.3× the PR 8 seed on both
/// engines. Failing here (and in tests/artifacts.rs, which gates the
/// committed artifact) keeps the hot-path speedup from silently eroding in
/// later PRs.
fn head_to_head(rows: Vec<Json>) -> Json {
    for r in &rows[..2] {
        let speedup = num(r, "speedup_vs_seed");
        assert!(
            speedup >= BATCH_ROW_FLOOR,
            "{} [{}]: {:.0} TPS is only {speedup:.2}x the PR 8 seed; floor is {BATCH_ROW_FLOOR}x",
            text(r, "config"),
            text(r, "engine"),
            num(r, "tps_mean"),
        );
    }
    println!("engine head-to-head (same configs, seeds and workload):");
    for r in &rows {
        println!(
            "  {:<32} {:<8} {:>7.0} TPS   speedup {:>5.2}x (floor {BATCH_ROW_FLOOR}x on the batch row)",
            text(r, "config"),
            text(r, "engine"),
            num(r, "tps_mean"),
            num(r, "speedup_vs_seed"),
        );
    }
    Json::Arr(rows)
}
