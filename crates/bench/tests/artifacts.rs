//! The committed `BENCH_*.json` artifacts stay well-formed and inside the
//! bounds their benches assert: every file parses and names its bench, the
//! engine-keyed artifacts carry a pbft column, the availability and
//! cross-shard files carry their reliability and resharding sections, each
//! leader rotation costs what its engine's formula says, the hot-path sweep
//! stays inside the amortized cost model, Table 1's batch row stays above
//! its trajectory floor, and every paper figure in `BENCH_paper.json` sits
//! beside its reproduction.

use std::collections::BTreeSet;

use bench::artifact::repo_root;
use wallbench::json::{parse, Value};

/// The artifacts whose rows are keyed by consensus engine.
const ENGINE_KEYED: [&str; 5] = [
    "BENCH_table1.json",
    "BENCH_sharding.json",
    "BENCH_availability.json",
    "BENCH_cross_shard.json",
    "BENCH_hotpath.json",
];

fn load(name: &str) -> Value {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn section<'a>(doc: &'a Value, name: &str, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::arr)
        .filter(|rows| !rows.is_empty())
        .unwrap_or_else(|| panic!("{name}: missing '{key}' section"))
}

fn num(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::num)
        .unwrap_or_else(|| panic!("'{key}' is not a number: {row:?}"))
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key)
        .and_then(Value::str)
        .unwrap_or_else(|| panic!("'{key}' is not a string: {row:?}"))
}

fn require(what: &str, row: &Value, fields: &[&str]) {
    for k in fields {
        assert!(row.get(k).is_some(), "{what} missing '{k}': {row:?}");
    }
}

fn engines(rows: &[Value]) -> BTreeSet<&str> {
    rows.iter().map(|r| text(r, "engine")).collect()
}

#[test]
fn every_artifact_parses_and_names_its_bench() {
    let mut names: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in ENGINE_KEYED.iter().chain(&["BENCH_paper.json"]) {
        assert!(names.iter().any(|n| n == name), "{name} is not committed");
    }
    for name in &names {
        let bench = name.trim_start_matches("BENCH_").trim_end_matches(".json");
        assert_eq!(text(&load(name), "bench"), bench, "{name}: 'bench' key");
    }
}

#[test]
fn engine_keyed_artifacts_have_a_pbft_column() {
    for name in ENGINE_KEYED {
        let doc = load(name);
        let rows = match doc.get("rows").and_then(Value::arr) {
            Some(rows) if !rows.is_empty() => rows,
            _ => section(&doc, name, "scenarios"),
        };
        assert!(engines(rows).contains("pbft"), "{name}: no pbft column");
    }
}

/// The long-horizon reliability *distributions*, not single degraded
/// windows: at least one virtual hour per cell, per-bucket p50/p99 and time
/// below threshold, both engines.
#[test]
fn availability_carries_hour_long_reliability_distributions() {
    let name = "BENCH_availability.json";
    let doc = load(name);
    let rel = section(&doc, name, "reliability");
    for row in rel {
        require(
            "reliability row",
            row,
            &[
                "engine",
                "scenario",
                "horizon_ms",
                "bucket_ms",
                "availability",
                "tps_p50",
                "tps_p99",
                "threshold_tps",
                "time_below_threshold_ms",
            ],
        );
        assert!(
            num(row, "horizon_ms") >= 3_600_000.0,
            "sub-hour horizon: {row:?}"
        );
        assert!(
            num(row, "tps_p99") >= num(row, "tps_p50") && num(row, "tps_p50") > 0.0,
            "degenerate distribution: {row:?}"
        );
    }
    assert!(
        engines(rel).is_superset(&BTreeSet::from(["pbft", "linear"])),
        "reliability section must cover both engines"
    );
}

/// The headline engine comparison README.md points at: view-change packets
/// per leader rotation are n(n - 1) under PBFT's all-to-all votes and
/// 2n - 3 under the linear engine's leader-directed ones.
#[test]
fn availability_rotation_costs_follow_their_formulas() {
    let name = "BENCH_availability.json";
    let doc = load(name);
    let rows = section(&doc, name, "rotation_sweep");
    for row in rows {
        let n = num(row, "n");
        let expect = match text(row, "engine") {
            "pbft" => n * (n - 1.0),
            "linear" => 2.0 * n - 3.0,
            other => panic!("{name}: unknown engine '{other}'"),
        };
        assert_eq!(
            num(row, "viewchange_msgs_per_rotation"),
            expect,
            "rotation cost off its formula: {row:?}"
        );
    }
    assert_eq!(
        engines(rows),
        BTreeSet::from(["pbft", "linear"]),
        "rotation_sweep must cover both engines"
    );
}

/// The elastic-resharding cells: a 2 -> 4 live split per engine with the
/// throughput dip and the client-visible time to recover.
#[test]
fn cross_shard_carries_the_reshard_cells() {
    let name = "BENCH_cross_shard.json";
    let doc = load(name);
    let cells = section(&doc, name, "reshard");
    for row in cells {
        require(
            "reshard cell",
            row,
            &[
                "engine",
                "shards_before",
                "shards_after",
                "epochs",
                "steady_tps",
                "dip_tps",
                "recovered_tps",
                "recover_ms",
                "availability",
            ],
        );
        assert!(
            num(row, "shards_before") == 2.0 && num(row, "shards_after") == 4.0,
            "not a 2->4 split: {row:?}"
        );
        assert!(
            num(row, "steady_tps") > 0.0 && num(row, "recovered_tps") > 0.0,
            "degenerate cell: {row:?}"
        );
        assert!(
            num(row, "recover_ms") > 0.0,
            "missing time-to-recover: {row:?}"
        );
    }
    assert!(
        engines(cells).is_superset(&BTreeSet::from(["pbft", "linear"])),
        "reshard section must cover both engines"
    );
}

/// The full n-axis sweep — n in {4, 7, 10} x both engines x both paths —
/// inside the amortized model: encodings track logical sends, not fan-out;
/// MACs per op are a small constant plus O(n) per batch; reads are O(1),
/// n-independent and never touch agreement.
#[test]
fn hotpath_sweep_stays_inside_the_cost_model() {
    let name = "BENCH_hotpath.json";
    let doc = load(name);
    let rows = section(&doc, name, "rows");
    let mut cells = BTreeSet::new();
    for row in rows {
        require(
            "hotpath row",
            row,
            &[
                "engine",
                "n",
                "path",
                "tps",
                "avg_batch",
                "macs_per_op",
                "encodings_per_op",
                "agreement_msgs_per_op",
            ],
        );
        let (engine, n, path) = (text(row, "engine"), num(row, "n"), text(row, "path"));
        cells.insert((engine, n as u64, path));
        let tag = format!("{engine} n={n} {path}");
        let (macs, encodings) = (num(row, "macs_per_op"), num(row, "encodings_per_op"));
        if path == "read" {
            let agreement = num(row, "agreement_msgs_per_op");
            assert!(
                agreement < 0.1,
                "{tag}: reads leaked into agreement ({agreement:.2} msgs/op)"
            );
            assert!(macs <= 3.0, "{tag}: read MACs/op {macs:.2} not O(1)");
            assert!(
                encodings <= 1.5,
                "{tag}: read encodings/op {encodings:.2} — a read is one reply"
            );
        } else {
            let batch = num(row, "avg_batch");
            assert!(
                encodings <= 1.0 + 3.0 / batch,
                "{tag}: encodings/op {encodings:.2} not amortized over fan-out"
            );
            assert!(
                macs <= 3.0 + 3.5 * n / batch,
                "{tag}: MACs/op {macs:.2} outside the batched-authenticator model"
            );
        }
    }
    for engine in ["pbft", "linear"] {
        for n in [4, 7, 10] {
            for path in ["write", "read"] {
                assert!(
                    cells.contains(&(engine, n, path)),
                    "hotpath sweep missing {engine} n={n} {path}"
                );
            }
        }
    }
}

/// Perf-trajectory floor: the Table 1 batch row stays >= 1.3x the
/// trajectory's seed on both engines (seed `tps_mean`: pbft 8005.83,
/// linear 5860.33).
#[test]
fn table1_batch_row_stays_above_its_floor() {
    let name = "BENCH_table1.json";
    let doc = load(name);
    let floors = [("pbft", 1.3 * 8005.83), ("linear", 1.3 * 5860.33)];
    let rows = section(&doc, name, "rows")
        .iter()
        .chain(section(&doc, name, "engine_head_to_head"));
    let mut seen = BTreeSet::new();
    for row in rows.filter(|r| text(r, "config") == "sta_mac_allbig_batch") {
        let engine = text(row, "engine");
        let Some((_, floor)) = floors.iter().find(|(e, _)| *e == engine) else {
            continue;
        };
        let tps = num(row, "tps_mean");
        assert!(
            tps >= *floor,
            "trajectory regression: sta_mac_allbig_batch [{engine}] at {tps:.0} TPS, floor {floor:.0}"
        );
        seen.insert(engine);
    }
    assert_eq!(
        seen,
        BTreeSet::from(["pbft", "linear"]),
        "batch row missing an engine"
    );
}

/// Every cell that quotes the paper carries the reproduction beside it.
#[test]
fn paper_figures_sit_beside_their_reproduction() {
    fn walk(v: &Value, cells: &mut usize) {
        match v {
            Value::Obj(fields) => {
                if v.get("paper").is_some() {
                    require("paper cell", v, &["measured", "ratio", "world"]);
                    let ratio = num(v, "measured") / num(v, "paper");
                    assert!(
                        (num(v, "ratio") - ratio).abs() < 1e-9,
                        "ratio is not measured / paper: {v:?}"
                    );
                    assert!(
                        matches!(text(v, "world"), "virtual" | "wall"),
                        "unknown world: {v:?}"
                    );
                    *cells += 1;
                }
                fields.iter().for_each(|(_, f)| walk(f, cells));
            }
            Value::Arr(items) => items.iter().for_each(|i| walk(i, cells)),
            _ => {}
        }
    }
    let mut cells = 0;
    walk(&load("BENCH_paper.json"), &mut cells);
    assert!(cells > 0, "BENCH_paper.json quotes no paper figure");
}
