//! Benchmark crate: the targets live in `benches/` — one per table/figure of
//! the paper's evaluation (see `EXPERIMENTS.md` at the repo root for the
//! bench ↔ table/figure index).
//!
//! Every target is a plain `fn main()` driver (`harness = false`) that
//! prints its table directly; the ones that record the perf trajectory also
//! write a committed `BENCH_*.json` through [`artifact`], the only code in
//! this file. Per-primitive costs (SHA-256, MACs, the codec, page digests,
//! minisql statements, one simulator event) are measured by the layer
//! probes of `crates/wallbench`, not here.
//!
//! Run everything with `cargo bench`, or a single experiment with e.g.
//! `cargo bench --bench table1`.

#![forbid(unsafe_code)]

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
