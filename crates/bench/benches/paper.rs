//! **The paper, reproduced** — Figure 4, Figure 5, §4.1's membership
//! overhead, §4.2's ACID gap (with the WAL point between), the §2.3 / §2.4
//! / §2.5 failure demonstrations and the privacy-firewall, WAN and
//! Byzantine-fault ablations, written to the committed `BENCH_paper.json`.
//!
//! Where the paper reports a figure, its cell carries `measured`, `paper`,
//! `ratio` (measured / paper) and `world` (`virtual`: every number here is
//! simulator time). Each section lists under `asserted` the expectations
//! this run checks before anything is written, and under `contradicted`
//! the part of a claim the run does not bear out, with its numbers.

use bench::artifact::{self, Json};
use bench::obj;
use harness::byzantine::{build_faulty_cluster, Fault};
use harness::cluster::{AppKind, Cluster, ClusterSpec};
use harness::experiments::{
    best_tps, config, null_spec, null_throughput, table1, throughput, ConfigResult, NUM_CLIENTS,
    TABLE1_PAPER_TPS, WARMUP, WINDOW,
};
use harness::firewall::build_firewalled_cluster;
use harness::workload::{null_ops, sql_insert_ops};
use harness::Stats;
use minisql::JournalMode;
use pbft_core::config::NonDetPolicy;
use pbft_core::PbftConfig;
use simnet::{LinkParams, SimDuration};

/// `check!(rows; "claim" => holds, ...)`: assert every claim before anything
/// is written (showing `rows` if one fails) and list the claims for the
/// section's `asserted`.
macro_rules! check {
    ($rows:expr; $($claim:literal => $holds:expr),+ $(,)?) => {{
        $(assert!($holds, "expectation failed: {}\n{:?}", $claim, $rows);)+
        Json::Arr(vec![$(Json::from($claim)),+])
    }};
}

fn main() {
    let json = obj! {
        "bench": "paper", "fig4": fig4(), "fig5": fig5(), "acid": acid(),
        "membership": membership(), "recovery": recovery(), "packet_loss": packet_loss(),
        "nondet_replay": nondet_replay(), "privacy": privacy(), "wan": wan(),
        "byzantine": byzantine(),
    };
    artifact::write("BENCH_paper.json", &json);
}

/// `row` with its `measured` value and — where the paper reports the same
/// figure — the paper's number, the ratio and the world it was measured in.
fn measured(row: Json, value: f64, paper: Option<f64>) -> Json {
    let row = row.with("measured", value);
    let Some(p) = paper else { return row };
    row.with("paper", p)
        .with("ratio", value / p)
        .with("world", "virtual")
}

/// A throughput cell: the trials' mean as [`measured`], then their spread.
fn tps_cell(row: Json, tps: Stats, paper: Option<f64>) -> Json {
    measured(row, tps.mean, paper).with("stddev", tps.std_dev)
}

/// A configuration-sweep row: throughput and share of the sweep's best.
fn sweep_row(r: &ConfigResult, best: f64, paper: Option<f64>) -> Json {
    tps_cell(obj! {"config": r.name.as_str()}, r.tps, paper)
        .with("pct_of_best", 100.0 * r.tps.mean / best)
}

/// The number under `key` of a row built here.
fn n(row: &Json, key: &str) -> f64 {
    match row.get(key) {
        Some(Json::Num(v)) => *v,
        other => panic!("'{key}' is not a number: {other:?}"),
    }
}

/// Whether the row's `converged` flag is set.
fn converged(row: &Json) -> bool {
    matches!(row.get("converged"), Some(Json::Bool(true)))
}

/// **Figure 4**: the Table 1 sweep at 256, 1024, 2048 and 4096 B. The paper
/// plots 1024 B (its Table 1 column) as representative because "the
/// results for varying request and response sizes are similar".
fn fig4() -> Json {
    const SIZES: [usize; 4] = [256, 1024, 2048, 4096];
    let runs: Vec<Vec<ConfigResult>> = SIZES.iter().map(|&s| table1(s, 1)).collect();
    let tps = |s: usize, i: usize| runs[s][i].tps.mean;
    let names: Vec<&str> = runs[0].iter().map(|r| r.name.as_str()).collect();
    // Table 1's row order: rows 2k and 2k + 1 differ only in batching, rows
    // k and k + 4 (k < 4) only in MACs vs signatures.
    let beats = |pairs: &[(usize, usize)]| {
        pairs
            .iter()
            .all(|&(i, j)| (0..SIZES.len()).all(|s| tps(s, i) > tps(s, j)))
    };
    let asserted = check!(runs;
        "sta_mac_allbig_batch is the fastest configuration at every size" =>
            (0..SIZES.len()).all(|s| tps(s, 0) == best_tps(&runs[s])),
        "with every other knob equal, the batching row is faster at every size" =>
            beats(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
        "with every other knob equal, the MAC row is faster at every size" =>
            beats(&[(0, 4), (1, 5), (2, 6), (3, 7)]),
    );
    // The full ordering is not the same at every size: every pair whose
    // order at the paper's 1024 B (index 1) flips at another size.
    let mut contradicted = vec![Json::from(
        "the configuration ordering is the same at every size",
    )];
    for s in [0, 2, 3] {
        for (a, b) in (0..names.len()).flat_map(|a| (0..names.len()).map(move |b| (a, b))) {
            if tps(1, a) > tps(1, b) && tps(s, a) < tps(s, b) {
                let (size, (x, y), (p, q)) =
                    (SIZES[s], (tps(s, a), tps(s, b)), (tps(1, a), tps(1, b)));
                let (a, b) = (names[a], names[b]);
                contradicted.push(
                    format!("{size} B: {a} {x:.0} < {b} {y:.0} (1024 B: {p:.0} > {q:.0})").into(),
                );
            }
        }
    }
    let mut rows = Vec::new();
    for (s, size) in SIZES.into_iter().enumerate() {
        for (i, r) in runs[s].iter().enumerate() {
            let paper = (size == 1024).then_some(TABLE1_PAPER_TPS[i]);
            rows.push(sweep_row(r, best_tps(&runs[s]), paper).with("size", size));
        }
    }
    obj! {
        "ref": "Figure 4", "trials": 1u64, "rows": rows,
        "asserted": asserted, "contradicted": contradicted,
    }
}

/// SQL row-insert throughput of `cfg` under `journal` (seeds 2000 + trial).
fn sql_tps(cfg: &PbftConfig, journal: JournalMode, trials: usize) -> Stats {
    let spec = ClusterSpec {
        cfg: cfg.clone(),
        app: AppKind::Sql { journal },
        num_clients: NUM_CLIENTS,
        seed: 2000,
        ..Default::default()
    };
    throughput(&spec, trials, |i| sql_insert_ops(i as u64))
}

/// **Figure 5**, "PBFT + SQL": the §4.2 single-row insert with ACID
/// semantics (rollback journal), batching on, sweeping MACs × big requests
/// × dynamic clients. The paper's one figure for it: the most robust
/// configuration with dynamic clients reaches 43 % of the best.
fn fig5() -> Json {
    let trials = 2;
    let rows: Vec<ConfigResult> = [false, true]
        .into_iter()
        .flat_map(|dynamic| {
            [(true, true), (true, false), (false, true), (false, false)]
                .map(|(macs, allbig)| config(dynamic, macs, allbig, true))
        })
        .map(|cfg| ConfigResult {
            name: cfg.table1_name(),
            tps: sql_tps(&cfg, JournalMode::Rollback, trials),
        })
        .collect();
    let best = best_tps(&rows);
    let robust = rows
        .iter()
        .find(|r| r.name == "nosta_nomac_noallbig_batch")
        .expect("config present");
    let pct = 100.0 * robust.tps.mean / best;
    let robust_pct = measured(obj! {"config": robust.name.as_str()}, pct, Some(43.0));
    let rows: Vec<Json> = rows.iter().map(|r| sweep_row(r, best, None)).collect();
    obj! {
        "ref": "Figure 5", "trials": trials, "rows": rows,
        "robust_dynamic_pct_of_best": robust_pct,
    }
}

/// **§4.2 ACID vs no-ACID** — "The ACID version achieves 534 TPS while the
/// No-ACID one scores 1155" — on the most robust configuration with dynamic
/// clients, plus the write-ahead log (§3.2's "different mode of operation")
/// between them: 3, 1 and 0 synchronous flushes per commit (rollback and
/// WAL are ACID, off is not).
fn acid() -> Json {
    let (trials, cfg) = (3, config(true, false, false, true));
    let [rollback, wal, off] = [JournalMode::Rollback, JournalMode::Wal, JournalMode::Off]
        .map(|j| sql_tps(&cfg, j, trials));
    let asserted = check!([rollback, wal, off];
        "fewer syncs per commit, more throughput: rollback < WAL < off" =>
            rollback.mean < wal.mean && wal.mean < off.mean,
    );
    let mode = |journal: &str, syncs: u64| obj! {"journal": journal, "syncs_per_commit": syncs};
    let rows = vec![
        tps_cell(mode("rollback", 3), rollback, Some(534.0)),
        tps_cell(mode("wal", 1), wal, None),
        tps_cell(mode("off", 0), off, Some(1155.0)),
    ];
    let speedup = measured(obj! {}, off.mean / rollback.mean, Some(1155.0 / 534.0));
    obj! {
        "ref": "§4.2", "config": cfg.table1_name(), "trials": trials, "rows": rows,
        "speedup_without_acid": speedup, "asserted": asserted,
    }
}

/// **§4.1 dynamic-membership overhead** — "The performance decrease is 0,5%
/// (988 vs 992), which is negligible" — on the most robust configuration.
fn membership() -> Json {
    let trials = 3;
    let [fixed, dynamic] = [false, true].map(|d| config(d, false, false, true));
    let [fixed_tps, dynamic_tps] = [&fixed, &dynamic].map(|cfg| null_throughput(cfg, 1024, trials));
    let row = |membership: &str, cfg: &PbftConfig, tps, paper| {
        tps_cell(
            obj! {"membership": membership, "config": cfg.table1_name()},
            tps,
            paper,
        )
    };
    let rows = vec![
        row("static", &fixed, fixed_tps, Some(992.0)),
        row("dynamic", &dynamic, dynamic_tps, Some(988.0)),
    ];
    let overhead = 100.0 * (1.0 - dynamic_tps.mean / fixed_tps.mean);
    let overhead = measured(obj! {}, overhead, Some(0.5));
    obj! {"ref": "§4.1", "trials": trials, "rows": rows, "overhead_pct": overhead}
}

/// **§2.3 erratic recovery and authenticators**: replica 2 crashes at
/// 500 ms and restarts 200 ms later with its session keys lost; it drops
/// client requests until the blind NewKey retransmission re-installs them
/// ("The only way to lower the time frame for this service interruption is
/// to reduce the authenticator retransmission timeout").
fn recovery() -> Json {
    let rows: Vec<Json> = [250u64, 500, 1000, 2000, 4000]
        .into_iter()
        .map(|ms| {
            let cfg = PbftConfig {
                checkpoint_interval: 64,
                newkey_interval_ns: ms * 1_000_000,
                ..Default::default()
            };
            let mut cluster = Cluster::build(null_spec(cfg, 256, 4, 7));
            cluster.start_workload(|_| null_ops(256));
            cluster.run_for(SimDuration::from_millis(500));
            cluster.crash_replica(2);
            cluster.run_for(SimDuration::from_millis(200));
            cluster.restart_replica(2, false);
            let restart = cluster.sim.now();
            // Recovered: executing within 16 of a peer, after a transfer.
            let recovered = (0..200).any(|_| {
                cluster.run_for(SimDuration::from_millis(50));
                let r = cluster.replica(2).expect("alive");
                let peer = cluster.replica(0).expect("alive").last_executed();
                r.last_executed() + 16 >= peer && r.metrics().state_transfers_completed > 0
            });
            let since_restart = (cluster.sim.now() - restart).as_secs_f64() * 1e3;
            let recovery_ms = if recovered {
                since_restart
            } else {
                f64::INFINITY
            };
            let m = cluster.replica_metrics(2);
            let converged = cluster.states_converged(&[0, 1, 3]);
            obj! {
                "newkey_ms": ms, "auth_failures": m.auth_failures,
                "transfers": m.state_transfers_completed, "recovery_ms": recovery_ms,
                "converged": converged,
            }
        })
        .collect();
    let failures = |r: &Json| n(r, "auth_failures");
    let asserted = check!(rows;
        "the restarted replica recovers through state transfer at every interval" =>
            rows.iter().all(|r| n(r, "transfers") > 0.0 && n(r, "recovery_ms").is_finite()),
        "the replicas that stayed up converge at every interval" => rows.iter().all(converged),
        "auth failures at the shortest interval are below those at every longer one" =>
            rows[1..].iter().all(|r| failures(&rows[0]) < failures(r)),
    );
    let mut contradicted = vec![Json::from("auth failures shrink with the NewKey interval")];
    for w in rows
        .windows(2)
        .filter(|w| failures(&w[0]) >= failures(&w[1]))
    {
        let (short, long) = (n(&w[0], "newkey_ms"), n(&w[1], "newkey_ms"));
        let (before, after) = (failures(&w[1]), failures(&w[0]));
        contradicted
            .push(format!("{long} ms -> {short} ms: auth failures {before} -> {after}").into());
    }
    obj! {"ref": "§2.3", "rows": rows, "asserted": asserted, "contradicted": contradicted}
}

/// **§2.4 UDP packet loss and big requests**: every client's link to
/// replica 3 drops packets, so replica 3 misses request bodies and wedges
/// "until the next checkpoint arrives and the recovery process kicks in";
/// the body-fetch fix asks a peer for the missing body instead.
fn packet_loss() -> Json {
    let rows: Vec<Json> = [0.01, 0.05, 0.20]
        .into_iter()
        .flat_map(|loss| [(loss, false), (loss, true)])
        .map(|(loss, fix)| {
            let cfg = PbftConfig {
                checkpoint_interval: 64,
                fetch_missing_bodies: fix,
                ..Default::default()
            };
            let mut cluster = Cluster::build(null_spec(cfg, 1024, 4, 42));
            for c in cluster.clients.clone() {
                let r3 = cluster.replicas[3];
                cluster.set_loss(c, r3, loss);
            }
            cluster.start_workload(|_| null_ops(1024));
            cluster.run_for(SimDuration::from_secs(3));
            let m = cluster.replica_metrics(3);
            let converged = cluster.states_converged(&[0, 1, 2, 3]);
            obj! {
                "loss": loss, "fetch_fix": fix, "stuck_events": m.stuck_missing_body,
                "transfers": m.state_transfers_completed, "completed": cluster.completed(),
                "converged": converged,
            }
        })
        .collect();
    // (library default, body-fetch fix) per loss rate.
    let pairs: Vec<(&Json, &Json)> = rows.chunks(2).map(|p| (&p[0], &p[1])).collect();
    let stuck = |r: &Json| n(r, "stuck_events");
    let transfers = |r: &Json| n(r, "transfers");
    let asserted = check!(rows;
        "by default a lost body wedges replica 3 until a checkpoint transfer" =>
            pairs.iter().all(|(d, _)| stuck(d) > 0.0 && transfers(d) > 0.0),
        "the fix wedges less and transfers less than the default at every loss rate" =>
            pairs.iter().all(|(d, f)| stuck(f) < stuck(d) && transfers(f) < transfers(d)),
        "every run converges" => rows.iter().all(converged),
    );
    let mut contradicted = vec![Json::from("the fix avoids transfers")];
    for (_, fix) in pairs.iter().filter(|(_, f)| transfers(f) > 0.0) {
        let (loss, times) = (n(fix, "loss"), transfers(fix));
        contradicted.push(format!("loss {loss}: the fix still transfers {times} times").into());
    }
    obj! {"ref": "§2.4", "rows": rows, "asserted": asserted, "contradicted": contradicted}
}

/// **§2.5 non-determinism validation during replay** — "when a request is
/// replayed from the log during recovery, the time drift can be quite
/// large and validating using a time delta will fail and impede the
/// recovery process". Backup 3 crashes at 300 ms and the primary at
/// 600 ms, which leaves two replicas and the in-flight batches
/// uncommitted. 700 ms later — longer than the 400 ms validation window —
/// the primary restarts blank and completes a quorum; the view change
/// replays the in-flight pre-prepares from the log with their old
/// timestamps. Strict validation rejects the replay at every replica and
/// the group never commits again; skip-on-replay proceeds. The body-fetch
/// fix is on so that the restarted replica's missing bodies (§2.4) do not
/// stand in for the hazard.
fn nondet_replay() -> Json {
    let rows: Vec<Json> = [false, true]
        .into_iter()
        .map(|skip| {
            let nondet = NonDetPolicy {
                validate_window_ns: 400_000_000,
                skip_validation_on_replay: skip,
            };
            let cfg = PbftConfig {
                tentative_execution: false,
                nondet,
                view_change_timeout_ns: 200_000_000,
                fetch_missing_bodies: true,
                ..Default::default()
            };
            let mut cluster = Cluster::build(null_spec(cfg, 64, 2, 11));
            cluster.start_workload(|_| null_ops(64));
            cluster.run_for(SimDuration::from_millis(300));
            cluster.crash_replica(3);
            cluster.run_for(SimDuration::from_millis(300));
            cluster.crash_replica(0);
            cluster.run_for(SimDuration::from_millis(700));
            cluster.restart_replica(0, false);
            cluster.run_for(SimDuration::from_secs(2));
            let before = cluster.completed();
            cluster.run_for(SimDuration::from_secs(2));
            let failures: u64 = (0..4)
                .map(|i| cluster.replica_metrics(i).nondet_validation_failures)
                .sum();
            let completed = cluster.completed() - before;
            obj! {
                "skip_on_replay": skip, "validation_failures": failures,
                "completed_after_replay": completed,
            }
        })
        .collect();
    let failures = |r: &Json| n(r, "validation_failures");
    let completed = |r: &Json| n(r, "completed_after_replay");
    let (strict, skip) = (&rows[0], &rows[1]);
    let asserted = check!(rows;
        "strict validation rejects the replay and the group completes fewer requests" =>
            failures(strict) > 0.0 && completed(strict) < completed(skip),
        "skip-on-replay rejects nothing" => failures(skip) == 0.0,
    );
    obj! {"ref": "§2.5", "rows": rows, "asserted": asserted}
}

/// **Privacy-firewall ablation (§3.3.1)**: Yin et al.'s (h+1)-row firewall
/// on the reply path "obviously increases both deployment complexity and
/// request execution latency". Null ops, 12 clients, 0 to 3 rows.
fn privacy() -> Json {
    // (rows, TPS, mean latency ms, replies the outermost row suppressed)
    let runs: Vec<(usize, f64, f64, u64)> = (0..=3)
        .map(|rows| {
            let mut fc =
                build_firewalled_cluster(null_spec(PbftConfig::default(), 1024, 12, 4242), rows);
            fc.cluster.start_workload(|i| null_ops(1024 + i));
            let tps = fc
                .cluster
                .measure_throughput(SimDuration::from_secs(1), SimDuration::from_secs(2));
            let suppressed = fc.row_stats().first().map_or(0, |s| s.suppressed);
            (rows, tps, fc.cluster.mean_latency_ms(), suppressed)
        })
        .collect();
    let asserted = check!(runs;
        "each row adds latency" => runs.windows(2).all(|w| w[0].2 < w[1].2),
        "the outermost row suppresses surplus replies" => runs[1..].iter().all(|r| r.3 > 0),
    );
    let rows: Vec<Json> = runs
        .iter()
        .map(|&(rows, tps, latency, suppressed)| {
            let (firewalled, increase) = (rows > 0, (latency / runs[0].2 - 1.0) * 100.0);
            obj! {
                "rows": rows, "tps": tps, "latency_ms": latency,
                "suppressed_row0": firewalled.then_some(suppressed),
                "latency_increase_pct": firewalled.then_some(increase),
            }
        })
        .collect();
    obj! {"ref": "§3.3.1", "rows": rows, "asserted": asserted}
}

/// **WAN ablation (§3.3.3)**: throughput and latency against one-way link
/// delay — "the quadratic message complexity of PBFT will most probably
/// prove costly regarding request latency" — the experiment the paper
/// could not run.
fn wan() -> Json {
    let rows: Vec<Json> = [1u64, 5, 15, 40, 80]
        .into_iter()
        .map(|ms| {
            let link = LinkParams::wan(SimDuration::from_millis(ms));
            let spec = null_spec(PbftConfig::default(), 1024, NUM_CLIENTS, 3000);
            let mut cluster = Cluster::build(ClusterSpec { link, ..spec });
            cluster.start_workload(|_| null_ops(1024));
            let tps = cluster.measure_throughput(WARMUP, WINDOW);
            let latency = cluster.mean_latency_ms();
            // Little's law: a closed loop of 12 clients keeps 12 requests in flight.
            let in_flight = tps * latency / 1e3;
            obj! {"one_way_ms": ms, "tps": tps, "latency_ms": latency, "in_flight": in_flight}
        })
        .collect();
    let tps = |r: &Json| n(r, "tps");
    let latency = |r: &Json| n(r, "latency_ms");
    let asserted = check!(rows;
        "latency rises and throughput falls with every step of link delay" =>
            rows.windows(2).all(|w| latency(&w[0]) < latency(&w[1]) && tps(&w[0]) > tps(&w[1])),
        "latency-bound: throughput x latency stays within 5 % of the 12 clients" =>
            rows.iter().all(|r| (n(r, "in_flight") / NUM_CLIENTS as f64 - 1.0).abs() < 0.05),
    );
    obj! {"ref": "§3.3.3", "trials": 1u64, "rows": rows, "asserted": asserted}
}

/// **Byzantine-fault ablation** — not a paper table (the paper injects only
/// crashes and packet loss): null-op throughput with one adversarial
/// replica per fault type, the cost of *surviving* each.
fn byzantine() -> Json {
    let faults = [
        ("none (baseline)", None),
        ("mute primary", Some(Fault::Mute)),
        ("tampered replies", Some(Fault::TamperReplies)),
        ("tampered prepares/commits", Some(Fault::TamperAgreement)),
        ("split-brain primary", Some(Fault::SplitBrain)),
    ];
    let runs: Vec<(&str, f64)> = faults
        .into_iter()
        .map(|(name, fault)| {
            let cfg = PbftConfig {
                view_change_timeout_ns: 200_000_000,
                checkpoint_interval: 16,
                log_size: 64,
                ..Default::default()
            };
            let spec = null_spec(cfg, 1024, 12, 99);
            let mut cluster = match fault {
                Some(f) => build_faulty_cluster(spec, 0, f),
                None => Cluster::build(spec),
            };
            cluster.start_workload(|i| null_ops(1024 + i));
            let two_s = SimDuration::from_secs(2);
            (name, cluster.measure_throughput(two_s, two_s))
        })
        .collect();
    let asserted = check!(runs;
        "every fault is survived" => runs.iter().all(|r| r.1 > 0.0),
        "equivocation (the split-brain primary) costs the most" =>
            runs.iter().all(|r| r.1 >= runs[4].1),
    );
    let rows: Vec<Json> = runs
        .iter()
        .map(|&(fault, tps)| {
            obj! {"fault": fault, "tps": tps, "pct_of_baseline": 100.0 * tps / runs[0].1}
        })
        .collect();
    obj! {"ref": "extends Table 1", "rows": rows, "asserted": asserted}
}
