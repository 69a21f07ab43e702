//! Tier-1 sees artifact drift: one cheap cell of each bench re-runs here, as
//! `cargo bench --bench B -- --cell ID` runs it, and must print exactly its
//! committed row in `BENCH_B.json` — every field the cell measures, compared
//! as the artifact renders it (fields a section derives from other rows are
//! not the cell's and are not compared, as in `scripts/cells.sh`). A cell is
//! built from its own seed, so a change that moves any artifact byte moves
//! the sampled rows too unless it only touches what they do not run;
//! `scripts/artifacts.sh` stays the full proof.
//!
//! The test profile (opt-level 2) prints the bench profile's bytes: every
//! sampled row is the committed one, which the bench profile wrote.
//!
//! Each bench target is compiled into this test as a module of its own, so
//! the sample runs the benches' own cell definitions.

use bench::artifact::{repo_root, Json};
use bench::cells::{self, Section};
use wallbench::json::{parse, Value};

#[allow(dead_code)]
#[path = "../benches/availability.rs"]
mod availability;
#[allow(dead_code)]
#[path = "../benches/cross_shard.rs"]
mod cross_shard;
#[allow(dead_code)]
#[path = "../benches/hotpath.rs"]
mod hotpath;
#[allow(dead_code)]
#[path = "../benches/paper.rs"]
mod paper;
#[allow(dead_code)]
#[path = "../benches/sharding.rs"]
mod sharding;
#[allow(dead_code)]
#[path = "../benches/table1.rs"]
mod table1;

type Artifact = fn() -> (Json, Vec<Section>);

/// One cell per bench: `(bench, its artifact, cell id)`, among the
/// cheapest of each, 2.5 s in all (test profile, 2-vCPU Xeon): a null-op
/// Table 1 row, the linear engine's n = 4 write path, one unbatched shard,
/// a leader-rotation point, a two-shard deployment with 10 % 2PC traffic and
/// the rollback-journal SQL row (the one sampled cell that runs minisql).
const SAMPLE: [(&str, Artifact, &str); 6] = [
    (
        "table1",
        table1::artifact,
        "rows/nosta_nomac_noallbig_nobatch",
    ),
    ("hotpath", hotpath::artifact, "rows/n=4/write/linear"),
    (
        "sharding",
        sharding::artifact,
        "rows/pbft/batching=off/shards=1",
    ),
    (
        "availability",
        availability::artifact,
        "rotation_sweep/n=4/linear",
    ),
    (
        "cross_shard",
        cross_shard::artifact,
        "rows/linear/shards=2/cross=10",
    ),
    ("paper", paper::artifact, "acid/rollback"),
];

/// The value at `path` (`acid.rows[2]`, `rows[0]`) of `doc`.
fn at<'a>(doc: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(doc, |v, step| {
        let (key, index) = match step.split_once('[') {
            Some((key, index)) => (key, index.strip_suffix(']').map(|i| i.parse::<usize>())),
            None => (step, None),
        };
        let v = v.get(key).unwrap_or_else(|| panic!("no `{key}` in {path}"));
        match index {
            Some(Ok(i)) => &v.arr().unwrap_or_else(|| panic!("{path}: not an array"))[i],
            Some(Err(e)) => panic!("{path}: {e}"),
            None => v,
        }
    })
}

#[test]
fn one_cell_of_each_bench_reruns_to_its_committed_row() {
    for (bench, artifact, id) in SAMPLE {
        let file = format!("BENCH_{bench}.json");
        let text = std::fs::read_to_string(repo_root().join(&file))
            .unwrap_or_else(|e| panic!("read {file}: {e}"));
        let committed = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (_, sections) = artifact();
        let (row, path) =
            cells::run_alone(&sections, id).unwrap_or_else(|| panic!("{bench} has no cell {id}"));
        let alone = parse(&row.render()).expect("a rendered row parses");
        let committed = at(&committed, &path);
        let fields = alone.obj().expect("a row is an object");
        assert!(!fields.is_empty(), "{bench} {id}: an empty row");
        for (key, value) in fields {
            assert_eq!(
                committed.get(key),
                Some(value),
                "{file} {path} (cell {id}): `{key}` drifted"
            );
        }
    }
}
