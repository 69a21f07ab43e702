//! Benchmark crate: the targets live in `benches/` — one per table/figure of
//! the paper's evaluation (see `EXPERIMENTS.md` at the repo root for the
//! bench ↔ table/figure index), plus micro-benchmarks of the substrates in
//! `benches/micro.rs`.
//!
//! Every target is a plain `fn main()` driver (`harness = false`): the
//! experiment benches print their tables directly, and `micro.rs` uses the
//! offline timing harness defined in this file — the workspace builds with no
//! registry access, so `criterion` is replaced by [`Harness`] below.
//!
//! Run everything with `cargo bench`, or a single experiment with e.g.
//! `cargo bench --bench table1`. Micro-benchmarks accept a substring filter
//! (`cargo bench --bench micro -- crypto`) and the environment knobs
//! `BENCH_SAMPLES` / `BENCH_SAMPLE_MS` to trade time for precision.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level driver for a micro-benchmark binary: owns the filter and the
/// collected results, prints a summary table on [`Harness::finish`].
pub struct Harness {
    filter: Option<String>,
    samples: u32,
    sample_ms: u64,
    results: Vec<(String, Stats)>,
}

impl Harness {
    /// Build from process arguments: the first non-flag argument is a
    /// substring filter on `group/name` ids.
    pub fn from_args() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let env_u64 = |key: &str, default: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Harness {
            filter,
            samples: env_u64("BENCH_SAMPLES", 10).clamp(1, u32::MAX as u64) as u32,
            sample_ms: env_u64("BENCH_SAMPLE_MS", 30).max(1),
            results: Vec::new(),
        }
    }

    /// Start a named group of related benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
        }
    }

    /// Print the result table.
    pub fn finish(self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        println!();
        println!(
            "{:<36} {:>12} {:>12} {:>10} {:>12}",
            "benchmark", "mean", "median", "stddev", "min"
        );
        for (id, s) in &self.results {
            println!(
                "{:<36} {:>12} {:>12} {:>10} {:>12}",
                id,
                format_ns(s.mean),
                format_ns(s.median),
                format_ns(s.stddev),
                format_ns(s.min),
            );
        }
        println!();
    }

    fn run_one(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: double the iteration count until one sample is long
        // enough to time reliably, then size samples to the target budget.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        loop {
            f(&mut b);
            if b.elapsed >= Duration::from_millis(2) || b.iters >= 1 << 30 {
                break;
            }
            b.iters *= 2;
        }
        let per_iter = b.elapsed.as_nanos().max(1) / b.iters as u128;
        let budget = Duration::from_millis(self.sample_ms).as_nanos();
        b.iters = ((budget / per_iter.max(1)) as u64).clamp(1, 1 << 34);

        let mut samples = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            f(&mut b);
            samples.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
        }
        let stats = Stats::of(&samples);
        println!(
            "{:<36} {:>12}/iter  ± {:>9}   ({} samples × {} iters)",
            id,
            format_ns(stats.mean),
            format_ns(stats.stddev),
            self.samples,
            b.iters
        );
        self.results.push((id, stats));
    }
}

/// A named group of benchmarks; ids are `group/name`.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Measure one benchmark. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] exactly once with the code under test.
    pub fn bench(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        self.harness.run_one(id, f);
        self
    }
}

/// Passed to the benchmark closure; times the inner loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` invocations of `f`. The return value is passed through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Summary statistics over per-iteration nanosecond samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub mean: f64,
    pub median: f64,
    pub stddev: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    /// Compute summary statistics; `samples` must be non-empty.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        Stats {
            mean,
            median,
            stddev: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
        }
    }
}

pub mod artifact {
    //! Committed bench artifacts: the `BENCH_*.json` files at the repo root
    //! that record the perf trajectory across PRs. The dependency tree has
    //! no serde (and the records are flat), so JSON is emitted by hand
    //! through the small [`Json`] tree below; `scripts/verify.sh` parses the
    //! committed files back to keep them well-formed.

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
    impl<T: Into<Json>> From<Option<T>> for Json {
        fn from(v: Option<T>) -> Json {
            v.map(Into::into).unwrap_or(Json::Null)
        }
    }

    impl Json {
        /// Object from `(key, value)` pairs — the shape every bench row uses.
        pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
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

/// Render a nanosecond quantity with an adaptive unit.
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_samples() {
        let s = Stats::of(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn stats_median_even_and_odd() {
        assert_eq!(Stats::of(&[1.0, 3.0, 2.0]).median, 2.0);
        assert_eq!(Stats::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn stats_mean_and_spread() {
        let s = Stats::of(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert!((s.stddev - 5.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.50 s");
    }

    #[test]
    fn json_renders_flat_records() {
        use artifact::Json;
        let v = Json::obj([
            ("name", "steady \"tps\"".into()),
            ("tps", 1234.5.into()),
            ("count", 7u64.into()),
            ("recovery_ms", Json::from(None::<f64>)),
            ("nan", f64::NAN.into()),
            ("ok", true.into()),
            ("rows", Json::Arr(vec![1u64.into(), 2u64.into()])),
        ]);
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
        assert_eq!(Json::obj([]).render(), "{}");
    }

    #[test]
    fn bencher_times_the_loop() {
        let mut b = Bencher {
            iters: 100,
            elapsed: Duration::ZERO,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert_eq!(count, 100);
        assert!(b.elapsed > Duration::ZERO);
    }
}
