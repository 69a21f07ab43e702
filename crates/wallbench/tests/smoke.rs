//! Every workload at 1/20 scale — one recovery, the failover, a traced pass —
//! so plain `cargo test` catches an API break or a liveness regression in
//! the surface `src/layers.rs` pins; and `BENCHMARK.json` is checked against
//! what the code reports.

use std::path::Path;

use wallbench::json::{self, Value};
use wallbench::report::{measure, END_TO_END, EXACT};
use wallbench::trace::{check_causality, Summary};
use wallbench::workload::{run_rep, Recover, Spec, WORKLOADS};

/// 1/20 of the op counts. A blank replica can only catch up across a
/// checkpoint (every 128 sequence numbers, ~1 000 ops), so the fault script
/// keeps its spacing and runs one recovery instead of six.
fn small(spec: &Spec) -> Spec {
    Spec {
        ops: if spec.recover.is_some() {
            2_000
        } else {
            spec.ops / 20
        },
        warmup: 50,
        slice: 5,
        recover: spec.recover.map(|r| Recover {
            every: 1_000,
            count: 1,
            tail: r.tail / 20,
        }),
        ..*spec
    }
}

#[test]
fn every_workload_runs_clean_and_repeats_exactly() {
    for spec in WORKLOADS.iter().map(small) {
        let plain = run_rep(&spec, 7, None);
        assert_eq!(plain.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!(plain.failed, 0, "{}", spec.name);
        assert!(plain.attempted >= spec.warmup + spec.timed_ops());
        assert!(plain.is_complete(&spec), "{}", spec.name);
        assert_eq!(plain.lat_ns.len(), plain.done_ns.len());
        assert!(plain.done_ns.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plain.window.completed, spec.timed_ops(), "{}", spec.name);
        assert!(plain.spans.is_empty());

        // The traced repetition does the same work, to the count.
        let traced = run_rep(&spec, 7, Some(plain.calls));
        assert_eq!(traced.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!(traced.window, plain.window, "{}", spec.name);
        assert_eq!(traced.spans.len(), plain.calls, "{}", spec.name);
        let n = spec.n();
        assert_eq!(check_causality(&traced.spans, n), Ok(()), "{}", spec.name);

        // Span time plus the driver's own time is the timed wall time.
        let timed = traced.timed_wall();
        let summary = Summary::of(&traced.spans, n, n + spec.clients, timed);
        let wall = (timed.1 - timed.0) as f64;
        let accounted = (summary.node_busy_ns.iter().sum::<u64>() + summary.loop_ns) as f64;
        assert!((accounted - wall).abs() <= 0.02 * wall, "{}", spec.name);

        match spec.recover {
            None => {
                assert_eq!(plain.window.new_views, 0, "{}", spec.name);
                assert_eq!(plain.recovery_ns, Vec::<u64>::new());
            }
            Some(rc) => {
                assert_eq!(plain.recovery_ns.len() as u64, rc.count);
                assert!(plain.failover_vns > 0);
                assert_eq!(traced.failover_vns, plain.failover_vns);
                assert!(plain.window.new_views > 0 && plain.window.transfers > 0);
            }
        }
    }
}

#[test]
fn a_different_seed_changes_payloads_not_the_schedule() {
    let spec = small(&WORKLOADS[0]);
    let (a, b) = (run_rep(&spec, 1, None), run_rep(&spec, 2, None));
    assert_eq!(a.window, b.window);
    assert_ne!(spec.sample_op(1), spec.sample_op(2));
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::str).expect(key)
}

/// Names and units of the metrics in a result line.
fn reported(line: &str) -> Vec<(String, String)> {
    let v = json::parse(line).expect("the result line is JSON");
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("failed").and_then(Value::num), Some(0.0));
    assert!(v.get("attempted").and_then(Value::num).expect("attempted") >= 1.0);
    let metrics = v.get("metrics").and_then(Value::obj).expect("metrics");
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m
                .get("value")
                .and_then(Value::num)
                .expect("value")
                .is_finite());
            (name.clone(), str_of(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_describes_what_the_code_reports() {
    let bench = benchmark_json();
    let paths = bench.get("paths").and_then(Value::arr).expect("paths");
    assert_eq!(paths, [Value::Str("crates/wallbench".into())]);

    let listed = bench
        .get("workloads")
        .and_then(Value::arr)
        .expect("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, spec) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(w, "name"), spec.name);
        assert_eq!(str_of(w, "why"), spec.why);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let e2e = bench
        .get("end_to_end")
        .and_then(Value::arr)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_of(m, "name"), def.name);
        assert_eq!(str_of(m, "unit"), def.unit);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_of(m, "better"), better);
        assert_eq!(m.get("bound").and_then(Value::num), Some(def.bound));
    }
    let names = |v: &[Value]| -> Vec<(String, String)> {
        v.iter()
            .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
            .collect()
    };

    // One untraced and one traced invocation of a small workload print
    // exactly the metrics BENCHMARK.json lists, in its order.
    let spec = small(&WORKLOADS[6]);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let untraced = measure(&spec, 3, 0.0, None).expect("measured");
    assert_eq!(reported(&untraced.to_json()), names(e2e));
    let traced = measure(&spec, 3, 0.0, Some(dir)).expect("measured");
    let per_layer = bench
        .get("per_layer")
        .and_then(Value::arr)
        .expect("per_layer");
    let printed = reported(&traced.to_json());
    assert_eq!(printed, names(per_layer));
    for exact in EXACT {
        assert!(printed.iter().any(|(name, _)| name == exact), "{exact}");
    }

    // The span file has one line per span, each a JSON object.
    let file = std::fs::read_to_string(dir.join("trace-sql_recover.jsonl")).expect("span file");
    let first = json::parse(file.lines().next().expect("a span")).expect("JSON");
    assert_eq!(str_of(&first, "name"), "boot");
    assert_eq!(first.get("parent_id"), Some(&Value::Null));
    assert!(file.lines().count() > spec.timed_ops() as usize);
}
