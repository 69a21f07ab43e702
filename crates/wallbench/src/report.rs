//! From repetitions to named metrics: the end-to-end estimators, the
//! per-layer counts, span means and ledger, the result line, the full
//! `--all` report and `--compare`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::driver::{Span, Tally};
use crate::json::{self, Value};
use crate::layers::{probes, AppKind, Kind, Probe};
use crate::stats::{keep_best, percentile, slice_times};
use crate::trace::{check_causality, write_jsonl, Summary};
use crate::workload::{run_rep, Rep, Spec, WORKLOADS};

/// An end-to-end metric: what a user of the replicated service would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a larger value better?
    pub higher_is_better: bool,
    /// Share of the baseline by which it may worsen before `--compare`
    /// (and the driver) call it a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload with tracing off.
/// The timing bounds are the 25 % the benchmark contract allows at most,
/// because of the box this was written on, not because of the estimator
/// (README, "Estimator, and why"): over sets of ten runs on ten seeds the
/// inter-quartile spread of `ops_per_s` was 1-3 % of the median while the box
/// was quiet, and 20-30 % while it sat in its 1.5x-slow mode for whole runs.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one `--workload` invocation.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Did every repetition pass the correctness gate, with identical
    /// counts?
    pub correct: bool,
    /// Operations submitted, all repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// What the gate objected to.
    pub violations: Vec<String>,
}

/// What is kept of the repetitions of one kind (untraced, or traced): the
/// best of every slice, of every operation's latency, of the set-up and of
/// every recovery (see [`crate::stats`]). Each repetition is folded in as it
/// ends and then dropped, so the memory the harness holds — and with it
/// `peak_rss_mib` — does not grow with the number of repetitions.
#[derive(Default)]
struct Fold {
    reps: usize,
    slice_ns: Vec<u64>,
    lat_ns: Vec<u64>,
    recovery_ns: Vec<u64>,
    setup_s: f64,
}

impl Fold {
    fn add(&mut self, spec: &Spec, rep: &Rep) {
        let slices = slice_times(rep.start_ns, &rep.done_ns, spec.slice as usize);
        keep_best(&mut self.slice_ns, &slices);
        keep_best(&mut self.lat_ns, &rep.lat_ns);
        keep_best(&mut self.recovery_ns, &rep.recovery_ns);
        self.setup_s = if self.reps == 0 {
            rep.setup_s
        } else {
            self.setup_s.min(rep.setup_s)
        };
        self.reps += 1;
    }

    /// Wall microseconds per operation, stitched from the best slices.
    fn wall_us_per_op(&self) -> f64 {
        self.slice_ns.iter().sum::<u64>() as f64 / 1e3 / self.lat_ns.len() as f64
    }

    fn ops_per_s(&self) -> f64 {
        1e6 / self.wall_us_per_op()
    }

    /// Percentile `p` of the operations' best latencies, in microseconds.
    fn latency_us(&self, p: f64) -> f64 {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p) as f64 / 1e3
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything an invocation accumulates over its repetitions.
#[derive(Default)]
struct Session {
    plain: Fold,
    traced: Fold,
    /// Best traced-pass aggregates, and the spans of the last traced
    /// repetition (for the span file).
    summary: Option<Summary>,
    spans: Vec<Span>,
    /// Each layer probe's best over the passes made so far.
    probes: Vec<Probe>,
    /// The exact counts of the first repetition; every other one must match.
    exact: Option<(Tally, u64, usize)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Session {
    fn take(&mut self, spec: &Spec, rep: Rep, traced: bool) {
        let n = spec.n();
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.violations.extend(rep.violations.iter().cloned());
        let exact = (rep.window.clone(), rep.failover_vns, rep.calls);
        if *self.exact.get_or_insert_with(|| exact.clone()) != exact {
            self.violations
                .push("exact counts differ between repetitions".into());
        }
        if !rep.is_complete(spec) {
            return;
        }
        if !traced {
            self.plain.add(spec, &rep);
            return;
        }
        self.traced.add(spec, &rep);
        if let Err(why) = check_causality(&rep.spans, n) {
            self.violations.push(why);
        }
        let summary = Summary::of(&rep.spans, n, n + spec.clients, rep.timed_wall());
        self.summary = Some(match &self.summary {
            Some(best) => best.best(&summary),
            None => summary,
        });
        self.spans = rep.spans;
    }
}

/// Measure one workload for about `seconds` of wall time: repetitions of
/// the same seeded schedule, untraced, or — with a `span_dir` — untraced and
/// traced in alternation, the last traced one written to
/// `span_dir/trace-<workload>.jsonl`.
///
/// # Errors
/// When nothing could be measured at all (no repetition completed its
/// schedule, or the process cannot read its own memory high-water mark).
pub fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    span_dir: Option<&Path>,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut s = Session::default();
    // At least two repetitions, so the counts are checked to repeat.
    let mut rounds = 0;
    while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let rep = run_rep(spec, seed, None);
        let calls = rep.calls;
        s.take(spec, rep, false);
        if span_dir.is_some() {
            s.take(spec, run_rep(spec, seed, Some(calls)), true);
            s.take_probes(probes(&spec.sample_op(seed)));
        }
    }
    if s.plain.reps == 0 {
        return Err(format!(
            "no repetition completed its schedule: {:?}",
            s.violations
        ));
    }
    let metrics = if let Some(dir) = span_dir {
        let Some(summary) = &s.summary else {
            return Err(format!(
                "no traced repetition completed its schedule: {:?}",
                s.violations
            ));
        };
        let n = spec.n();
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        write_jsonl(&s.spans, n, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        s.per_layer(spec, summary)
    } else {
        let values = [
            s.plain.ops_per_s(),
            s.plain.latency_us(0.50),
            s.plain.latency_us(0.99),
            s.plain.setup_s,
            peak_rss_mib()?,
        ];
        let metric = |(def, value): (&EndToEnd, f64)| Metric {
            name: def.name,
            unit: def.unit,
            value,
        };
        END_TO_END.iter().zip(values).map(metric).collect()
    };
    Ok(Measured {
        correct: s.violations.is_empty() && s.failed == 0,
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        violations: s.violations,
    })
}

impl Session {
    fn take_probes(&mut self, pass: Vec<Probe>) {
        if self.probes.is_empty() {
            self.probes = pass;
            return;
        }
        for (best, new) in self.probes.iter_mut().zip(pass) {
            best.2 = best.2.min(new.2);
        }
    }

    /// The per-layer metrics of a traced invocation.
    fn per_layer(&self, spec: &Spec, summary: &Summary) -> Vec<Metric> {
        let (plain, traced) = (&self.plain, &self.traced);
        let (w, failover_vns, _) = self.exact.as_ref().expect("a repetition ran");
        let mut out: Vec<Metric> = Vec::new();
        let mut put = |name, unit, value| out.push(Metric { name, unit, value });
        let n = spec.n();
        let ops = spec.timed_ops() as f64;
        let per_op = |count: u64| count as f64 / ops;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

        // (a) Exact counts over the timed part.
        put("net.msgs_per_op", "1/op", per_op(w.total_msgs()));
        put("net.bytes_per_op", "B/op", per_op(w.total_bytes()));
        put("batch.ops_per_batch", "ops", ratio(w.executed, w.batches));
        put("crypto.macs_per_op", "1/op", per_op(w.macs));
        let digest_kib = per_op(w.digest_bytes) / 1024.0;
        put("crypto.digest_kib_per_op", "KiB/op", digest_kib);
        // Requests and replies are MACed over their whole prefix, once by the
        // sender and once by the receiver, per destination; every other MAC
        // covers a 32-byte digest.
        let faced = [Kind::Request as usize, Kind::Reply as usize];
        let faced_msgs: u64 = faced.iter().map(|&k| w.msgs[k]).sum();
        let faced_bytes: u64 = faced.iter().map(|&k| w.bytes[k]).sum();
        let mac_kib = per_op(2 * faced_bytes) / 1024.0;
        put("crypto.mac_kib_per_op", "KiB/op", mac_kib);
        put("codec.encodings_per_op", "1/op", per_op(w.encodings));
        put("state.pages_hashed_per_op", "1/op", per_op(w.pages_hashed));
        put("state.checkpoints", "count", w.checkpoints as f64);
        let recoveries = plain.recovery_ns.len() as u64;
        put(
            "state.transfer_kib_per_recovery",
            "KiB",
            ratio(w.bytes[Kind::Transfer as usize], recoveries) / 1024.0,
        );
        put("replica.view_changes", "count", w.new_views as f64);
        put("client.retransmits", "count", w.retransmits as f64);
        put("timers.fired", "count", w.timers_fired as f64);

        // The fault script's own clocks: wall per recovery (best over
        // repetitions, mean over recoveries) and the failover in virtual time.
        put(
            "recovery.wall_ms",
            "ms",
            ratio(plain.recovery_ns.iter().sum(), recoveries) / 1e6,
        );
        put("failover.virtual_ms", "vms", *failover_vns as f64 / 1e6);

        // (b) Layer probes.
        let probed = &self.probes;
        let probe = |name: &str| -> f64 {
            probed
                .iter()
                .find(|p| p.0 == name)
                .map(|p| p.2)
                .expect("probe exists")
        };
        for &(name, unit, value) in probed {
            put(name, unit, value);
        }

        // (c) The traced pass.
        for (name, kind) in [
            ("client.submit_us", Kind::Submit),
            ("client.reply_us", Kind::Reply),
            ("replica.request_us", Kind::Request),
            ("replica.preprepare_us", Kind::PrePrepare),
            ("replica.prepare_us", Kind::Prepare),
            ("replica.commit_us", Kind::Commit),
            ("replica.vote_us", Kind::Vote),
            ("replica.qc_us", Kind::Qc),
            ("replica.checkpoint_us", Kind::Checkpoint),
            ("replica.transfer_us", Kind::Transfer),
            ("replica.viewchange_us", Kind::ViewChange),
            ("replica.newkey_us", Kind::NewKey),
            ("replica.timer_us", Kind::Timer),
        ] {
            put(name, "us", summary.mean_us(kind));
        }
        let busy_us = |ns: u64| ns as f64 / 1e3 / ops;
        let backups = &summary.node_busy_ns[1..n];
        put(
            "node.primary_us_per_op",
            "us/op",
            busy_us(summary.node_busy_ns[0]),
        );
        put(
            "node.backup_us_per_op",
            "us/op",
            busy_us(backups.iter().sum::<u64>()) / backups.len() as f64,
        );
        put(
            "node.clients_us_per_op",
            "us/op",
            busy_us(summary.node_busy_ns[n..].iter().sum()),
        );
        put(
            "node.busiest_us_per_op",
            "us/op",
            busy_us(*summary.node_busy_ns.iter().max().expect("nodes")),
        );
        put("loop.us_per_op", "us/op", busy_us(summary.loop_ns));
        put("loop.events_per_op", "1/op", per_op(w.events));
        put(
            "trace.overhead_pct",
            "%",
            100.0 * (1.0 - traced.ops_per_s() / plain.ops_per_s()),
        );

        // (d) The ledger: counts x probe costs against the measured wall time
        // of one committed op (formulas in the README).
        let wall = plain.wall_us_per_op();
        let short_macs = per_op(w.macs.saturating_sub(2 * faced_msgs));
        let crypto_us = digest_kib * probe("crypto.sha256_us_per_kib")
            + mac_kib * probe("crypto.mac_us_per_kib")
            + short_macs * probe("crypto.mac_32b_ns") / 1e3;
        let other_msgs = w.total_msgs() - faced_msgs;
        let replies = w.msgs[Kind::Reply as usize];
        let codec_us = (per_op(faced_msgs) * probe("codec.parse_request_ns")
            + per_op(other_msgs) * probe("codec.parse_vote_ns")
            + (1.0 + per_op(replies)) * probe("codec.encode_request_ns"))
            / 1e3;
        let state_us = per_op(w.pages_hashed) * probe("state.page_digest_us")
            + per_op(w.checkpoints) * probe("state.snapshot_us");
        let exec_us = match spec.app {
            AppKind::Null => probe("app.null_exec_ns") / 1e3,
            AppKind::Sql => probe("app.sql_exec_us"),
        };
        // Ordered executions plus reads served on the optimistic path.
        let execs_per_op = per_op(w.executed + w.reads_served);
        let app_us = execs_per_op * exec_us;
        put("ledger.crypto_share", "share", crypto_us / wall);
        put("ledger.codec_share", "share", codec_us / wall);
        put("ledger.state_share", "share", state_us / wall);
        put("ledger.app_share", "share", app_us / wall);
        put(
            "ledger.unattributed_share",
            "share",
            1.0 - (crypto_us + codec_us + state_us + app_us) / wall,
        );
        put("replication_factor", "x", wall / exec_us);
        out
    }
}

impl Measured {
    /// The result as one JSON object (the last line of a `--workload` run).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }

    /// A table for people: one metric per line, name, value, unit.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            writeln!(s, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit).expect("String");
        }
        for v in &self.violations {
            writeln!(s, "  VIOLATION: {v}").expect("String");
        }
        s
    }
}

/// Run this binary once on `workload`; echo its table and return its
/// result line, raw and parsed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: the child printed no result"))?;
    println!("{table}");
    let value = json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    Ok((line.to_string(), value))
}

fn metric_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.num()
}

/// `--all`: every workload, untraced then traced, one child process at a
/// time; prints every metric and the ledger reconciliation, optionally
/// writes the results file `--compare` reads (per workload, the two result
/// lines as the children printed them). Returns whether every workload was
/// correct.
///
/// # Errors
/// When a child cannot be run or its output cannot be parsed or written.
pub fn run_all(seed: u64, seconds: f64, out: Option<&str>) -> Result<bool, String> {
    let mut all_correct = true;
    let mut file = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    let mut ledger = String::new();
    for (i, spec) in WORKLOADS.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, WORKLOADS.len(), spec.name);
        let (e2e_line, e2e) = run_child(spec.name, seed, seconds, false)?;
        let (layers_line, layers) = run_child(spec.name, seed, seconds, true)?;
        all_correct &= [&e2e, &layers]
            .iter()
            .all(|part| part.get("correct") == Some(&Value::Bool(true)));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            file,
            "{sep}\n\"{}\": {{\"end_to_end\": {e2e_line},\n \"per_layer\": {layers_line}}}",
            spec.name
        )
        .expect("String");
        let wall = 1e6 / metric_of(&e2e, "ops_per_s").unwrap_or(f64::NAN);
        let share = |name: &str| metric_of(&layers, name).unwrap_or(f64::NAN);
        let unattributed = share("ledger.unattributed_share");
        writeln!(
            ledger,
            "  {:<16} wall {:>8.1} us/op = crypto {:>6.1} + codec {:>5.1} + state {:>6.1} + app {:>6.1} + unattributed {:>6.1} ({:.0} %)",
            spec.name,
            wall,
            wall * share("ledger.crypto_share"),
            wall * share("ledger.codec_share"),
            wall * share("ledger.state_share"),
            wall * share("ledger.app_share"),
            wall * unattributed,
            100.0 * unattributed,
        )
        .expect("String");
    }
    file.push_str("}}\n");
    println!("ledger: counts x probe costs against the measured wall time of one op");
    print!("{ledger}");
    if let Some(path) = out {
        std::fs::write(path, file).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

/// `--compare A B`: per workload and end-to-end metric, both values, the
/// delta and the bound, marked `ok`, `worse` or `better`; the exact counts
/// are listed when they changed. Returns whether nothing got worse.
///
/// # Errors
/// When a file cannot be read or is not a results file.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut none_worse = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for spec in &WORKLOADS {
        let part = |v: &Value, part: &str| -> Result<Value, String> {
            v.get("workloads")
                .and_then(|w| w.get(spec.name))
                .and_then(|w| w.get(part))
                .cloned()
                .ok_or_else(|| format!("{}/{part} is missing from a results file", spec.name))
        };
        let (wa, wb) = (part(&a, "end_to_end")?, part(&b, "end_to_end")?);
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_of(&wa, m.name), metric_of(&wb, m.name)) else {
                return Err(format!("{}/{} is missing", spec.name, m.name));
            };
            let delta = (vb - va) / va;
            let worsening = if m.higher_is_better { -delta } else { delta };
            let verdict = if worsening > m.bound {
                none_worse = false;
                "worse"
            } else if worsening < -m.bound {
                "better"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<16} {:>12.3} {:>12.3} {:>+7.1}% {:>5.0}%  {verdict}",
                spec.name,
                m.name,
                va,
                vb,
                100.0 * delta,
                100.0 * m.bound
            );
        }
        let (la, lb) = (part(&a, "per_layer")?, part(&b, "per_layer")?);
        for name in EXACT {
            let (va, vb) = (metric_of(&la, name), metric_of(&lb, name));
            if va != vb {
                println!(
                    "{:<16} {name}: exact count changed, {va:?} -> {vb:?}",
                    spec.name
                );
            }
        }
    }
    Ok(none_worse)
}

/// The per-layer metrics that are exact counts of the schedule: they repeat
/// bit for bit between runs of one commit.
pub const EXACT: [&str; 15] = [
    "net.msgs_per_op",
    "net.bytes_per_op",
    "batch.ops_per_batch",
    "crypto.macs_per_op",
    "crypto.digest_kib_per_op",
    "crypto.mac_kib_per_op",
    "codec.encodings_per_op",
    "state.pages_hashed_per_op",
    "state.checkpoints",
    "state.transfer_kib_per_recovery",
    "replica.view_changes",
    "client.retransmits",
    "timers.fired",
    "failover.virtual_ms",
    "loop.events_per_op",
];
