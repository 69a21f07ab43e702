//! Benchmark crate: the targets live in `benches/` — `table1`, `sharding`,
//! `cross_shard`, `availability`, `hotpath`, and `paper`, which holds every
//! other table, figure and failure demonstration of the paper's evaluation
//! (see `EXPERIMENTS.md` at the repo root for the index).
//!
//! Every target is a plain `fn main()` driver (`harness = false`) that
//! asserts its expectations and writes a committed `BENCH_*.json` through
//! [`artifact`]; `tests/artifacts.rs` holds the committed files to the
//! same bounds. Every target builds its rows as [`cells`], each of which
//! re-runs alone. Per-primitive costs (SHA-256, MACs,
//! the codec, page digests, minisql statements, one simulator event) are
//! measured by the layer probes of `crates/wallbench`, not here.
//!
//! Run everything with `cargo bench`, or a single target with e.g.
//! `cargo bench --bench paper`.

#![forbid(unsafe_code)]

/// `obj!{"key": value, ...}`: the [`artifact::Json::Obj`] a bench row is,
/// keys in order, each value converted with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($k:literal: $v:expr),* $(,)?) => {
        $crate::artifact::Json::Obj(vec![$(($k.to_string(), $crate::artifact::Json::from($v))),*])
    };
}

pub mod artifact {
    //! Committed bench artifacts: the `BENCH_*.json` files at the repo root
    //! that record the perf trajectory across PRs. The dependency tree has
    //! no serde (and the records are flat), so JSON is emitted by hand
    //! through the small [`Json`] tree below; `tests/artifacts.rs` parses
    //! the committed files back to keep them well-formed.

    use std::path::{Path, PathBuf};

    /// A JSON value, built literally by the bench drivers.
    #[derive(Debug, Clone)]
    pub enum Json {
        /// `null` — also what non-finite numbers render as.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number; rendered via `f64`'s shortest round-trip form.
        Num(f64),
        /// A string (escaped on render).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl From<f64> for Json {
        fn from(v: f64) -> Json {
            Json::Num(v)
        }
    }
    impl From<u64> for Json {
        fn from(v: u64) -> Json {
            Json::Num(v as f64)
        }
    }
    impl From<usize> for Json {
        fn from(v: usize) -> Json {
            Json::Num(v as f64)
        }
    }
    impl From<bool> for Json {
        fn from(v: bool) -> Json {
            Json::Bool(v)
        }
    }
    impl From<&str> for Json {
        fn from(v: &str) -> Json {
            Json::Str(v.to_string())
        }
    }
    impl From<String> for Json {
        fn from(v: String) -> Json {
            Json::Str(v)
        }
    }
    impl From<Vec<Json>> for Json {
        fn from(v: Vec<Json>) -> Json {
            Json::Arr(v)
        }
    }
    impl<T: Into<Json>> From<Option<T>> for Json {
        fn from(v: Option<T>) -> Json {
            v.map(Into::into).unwrap_or(Json::Null)
        }
    }

    impl Json {
        /// The value under `key`, if this is an object that has one.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// This object with `key: value` appended.
        ///
        /// # Panics
        /// Panics if `self` is not an object.
        pub fn with(self, key: &str, value: impl Into<Json>) -> Json {
            let Json::Obj(mut fields) = self else {
                panic!("Json::with on a non-object");
            };
            fields.push((key.to_string(), value.into()));
            Json::Obj(fields)
        }

        /// Pretty-render with two-space indentation (stable diffs matter
        /// more than bytes for a committed artifact).
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, 0);
            out
        }

        fn render_into(&self, out: &mut String, depth: usize) {
            let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
                Json::Num(_) => out.push_str("null"),
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) if items.is_empty() => out.push_str("[]"),
                Json::Arr(items) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, depth + 1);
                        item.render_into(out, depth + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push(']');
                }
                Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
                Json::Obj(fields) => {
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        pad(out, depth + 1);
                        Json::Str(k.clone()).render_into(out, depth + 1);
                        out.push_str(": ");
                        v.render_into(out, depth + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push('}');
                }
            }
        }
    }

    /// The number under `key` of a row a bench built.
    ///
    /// # Panics
    /// Panics if the row has no number there.
    pub fn num(row: &Json, key: &str) -> f64 {
        match row.get(key) {
            Some(Json::Num(v)) => *v,
            other => panic!("'{key}' is not a number: {other:?}"),
        }
    }

    /// The string under `key` of a row a bench built.
    ///
    /// # Panics
    /// Panics if the row has no string there.
    pub fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        match row.get(key) {
            Some(Json::Str(v)) => v,
            other => panic!("'{key}' is not a string: {other:?}"),
        }
    }

    /// The repo root — bench targets run from the crate directory, the
    /// committed artifacts live two levels up.
    pub fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Write `value` to `<repo root>/<file_name>` (trailing newline, so the
    /// committed file is diff-friendly) and report where it landed.
    pub fn write(file_name: &str, value: &Json) {
        let path = repo_root().join(file_name);
        let body = format!("{}\n", value.render());
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
        println!("wrote {}", path.display());
    }
}

pub mod cells {
    //! Artifact rows as cells: every row has a stable id
    //! (`<section>/<sweep point>`) and the run that measures it. Each cell
    //! is built from its own seed, so it measures the same alone as in the
    //! full run. A row holds what its cell measures; a field derived from
    //! other rows (a share of the sweep's best, an increase over a
    //! baseline) is added by its section, which also checks the rows.
    //!
    //! [`main`] is a bench's whole command line: `cargo bench --bench B`
    //! runs every cell and writes `BENCH_B.json`; `-- --cells` lists each
    //! cell's id and its row's JSON path; `-- --cell ID` runs that cell
    //! alone and prints its row, and `--trace` also writes the message
    //! trace of each of its throughput trials under `target/B-cells/`.

    use std::sync::OnceLock;

    use harness::cluster::{Cluster, ClusterSpec};
    use harness::experiments::{null_spec, throughput, NUM_CLIENTS};
    use harness::workload::{null_ops, OpGen};
    use harness::Stats;
    use pbft_core::PbftConfig;

    use crate::artifact::{self, Json};

    /// One row of an artifact and the run that measures it.
    pub struct Cell {
        id: String,
        run: Box<dyn Fn() -> Json>,
    }

    /// The cell `id`, measured by `run`.
    pub fn cell(id: String, run: impl Fn() -> Json + 'static) -> Cell {
        Cell {
            id,
            run: Box::new(run),
        }
    }

    /// A section of an artifact: its key, its cells in row order, where
    /// their rows land, and what it makes of them.
    pub struct Section {
        key: &'static str,
        cells: Vec<Cell>,
        /// The path of the rows below `key`: `.rows`, or empty when the
        /// section is the rows' array.
        rows_at: &'static str,
        finish: fn(Vec<Json>) -> Json,
    }

    impl Section {
        /// A section whose value `finish` builds around its rows, under
        /// the key `rows`.
        pub fn rows(key: &'static str, cells: Vec<Cell>, finish: fn(Vec<Json>) -> Json) -> Self {
            Section {
                key,
                cells,
                rows_at: ".rows",
                finish,
            }
        }

        /// The JSON path of row `i` in the artifact (`acid.rows[2]`).
        fn row_path(&self, i: usize) -> String {
            format!("{}{}[{i}]", self.key, self.rows_at)
        }

        /// A section that is the array of its rows, once `finish` (which
        /// returns it) has checked them.
        pub fn array(key: &'static str, cells: Vec<Cell>, finish: fn(Vec<Json>) -> Json) -> Self {
            Section {
                key,
                cells,
                rows_at: "",
                finish,
            }
        }
    }

    /// Run cell `id` of `sections` alone, as `-- --cell ID` does: its row
    /// and the JSON path of the row in the artifact. `None`: no such cell.
    pub fn run_alone(sections: &[Section], id: &str) -> Option<(Json, String)> {
        sections.iter().find_map(|s| {
            let i = s.cells.iter().position(|c| c.id == id)?;
            Some(((s.cells[i].run)(), s.row_path(i)))
        })
    }

    /// Set when one cell runs alone: its bench, its id, and whether its
    /// message trace is written.
    static ALONE: OnceLock<(String, String, bool)> = OnceLock::new();

    /// Run the bench whose artifact starts with `head` (its `bench` key
    /// names it) and continues with `sections`, as the command line asks.
    ///
    /// # Panics
    /// Panics on an unknown `--cell` id, or if `head` names no bench.
    pub fn main(head: Json, sections: Vec<Section>) {
        let Some(Json::Str(bench)) = head.get("bench") else {
            panic!("the artifact's head names no bench");
        };
        let bench = bench.clone();
        let mut args = std::env::args().skip(1);
        let (mut alone, mut trace, mut list) = (None, false, false);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--cell" => alone = Some(args.next().expect("--cell takes a cell id")),
                "--trace" => trace = true,
                "--cells" => list = true,
                _ => {} // `cargo bench` passes `--bench`
            }
        }
        if list {
            for s in &sections {
                for (i, c) in s.cells.iter().enumerate() {
                    println!("{}\t{}", c.id, s.row_path(i));
                }
            }
            return;
        }
        if let Some(id) = alone {
            ALONE.set((bench, id.clone(), trace)).expect("set once");
            let Some((row, _)) = run_alone(&sections, &id) else {
                panic!("no cell {id} (`-- --cells` lists them)");
            };
            println!("== cell {id}\n{}", row.render());
            return;
        }
        let mut json = head;
        for s in sections {
            let rows = s.cells.iter().map(|c| (c.run)()).collect();
            json = json.with(s.key, (s.finish)(rows));
        }
        artifact::write(&format!("BENCH_{bench}.json"), &json);
    }

    /// `spec`, with its message trace on when a cell runs alone under
    /// `--trace`.
    pub fn traced(spec: ClusterSpec) -> ClusterSpec {
        ClusterSpec {
            trace: ALONE.get().is_some_and(|(_, _, trace)| *trace),
            ..spec
        }
    }

    /// Throughput of `spec` under `ops` over `trials` seeded trials, each
    /// [`inspect`]ed.
    pub fn tps(spec: ClusterSpec, trials: usize, ops: impl Fn(usize) -> OpGen) -> Stats {
        throughput(&traced(spec), trials, ops, inspect)
    }

    /// Null-operation throughput of `cfg` with `size`-byte requests and
    /// replies, 12 clients, seeds 1000 + trial.
    pub fn null_tps(cfg: &PbftConfig, size: usize, trials: usize) -> Stats {
        let spec = null_spec(cfg.clone(), size, NUM_CLIENTS, 1000);
        tps(spec, trials, |_| null_ops(size))
    }

    /// When a cell runs alone, report trial `trial` of it: the mean batch
    /// on replica 0 and, when traced, where its message trace went.
    pub fn inspect(trial: usize, cluster: &Cluster) {
        let Some((bench, id, trace)) = ALONE.get() else {
            return;
        };
        let m = cluster.replica_metrics(0);
        let batch = m.executed_requests as f64 / m.batches_executed.max(1) as f64;
        eprint!(
            "{id} trial {trial}: mean batch {batch:.3} ({} requests in {} batches on replica 0)",
            m.executed_requests, m.batches_executed
        );
        if *trace {
            let dir = artifact::repo_root().join(format!("target/{bench}-cells"));
            std::fs::create_dir_all(&dir).expect("create the trace directory");
            let path = dir.join(format!("{}.trial{trial}.trace", id.replace('/', "_")));
            let lines: String = cluster
                .sim
                .trace()
                .iter()
                .map(|e| {
                    let at = e.at.as_nanos();
                    let (src, dst, tag, size) = (e.src, e.dst, e.tag, e.size);
                    format!("{at} {:?} {src} -> {dst} tag {tag} size {size}\n", e.event)
                })
                .collect();
            std::fs::write(&path, lines).expect("write the trace");
            eprint!(
                ", {} messages traced to {}",
                cluster.sim.trace().len(),
                path.display()
            );
        }
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_flat_records() {
        use artifact::Json;
        let v = obj! {
            "name": "steady \"tps\"",
            "tps": 1234.5,
            "count": 7u64,
            "recovery_ms": None::<f64>,
            "nan": f64::NAN,
            "ok": true,
            "rows": vec![Json::from(1u64), Json::from(2u64)],
        };
        let s = v.render();
        assert!(s.contains("\"name\": \"steady \\\"tps\\\"\""));
        assert!(s.contains("\"tps\": 1234.5"));
        assert!(s.contains("\"count\": 7"), "integral f64 renders bare: {s}");
        assert!(s.contains("\"recovery_ms\": null"));
        assert!(s.contains("\"nan\": null"), "non-finite must not leak: {s}");
        assert!(s.ends_with('}') && s.starts_with('{'));
    }

    #[test]
    fn json_escapes_control_characters() {
        use artifact::Json;
        assert_eq!(Json::from("a\nb\u{1}").render(), "\"a\\nb\\u0001\"");
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(obj! {}.render(), "{}");
    }
}
