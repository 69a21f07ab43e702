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

use bench::artifact::{num, text, Json};
use bench::cells::{self, cell, null_tps, tps, Cell, Section};
use bench::obj;
use harness::byzantine::{build_faulty_cluster, Fault};
use harness::cluster::{AppKind, Cluster, ClusterSpec};
use harness::experiments::{
    config, null_spec, table1_configs, NUM_CLIENTS, TABLE1_PAPER_TPS, WARMUP, WINDOW,
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

/// `cargo bench --bench paper` runs every cell and writes
/// `BENCH_paper.json`; `-- --cells` lists each cell's id and row; `-- --cell
/// ID` runs that cell alone and prints its row (see [`bench::cells`]).
fn main() {
    let (head, sections) = artifact();
    cells::main(head, sections);
}

/// The artifact's head and its sections of cells (`tests/drift.rs` re-runs
/// a sample of them).
pub fn artifact() -> (Json, Vec<Section>) {
    (
        obj! {"bench": "paper"},
        vec![
            Section::rows("fig4", fig4_cells(), fig4),
            Section::rows("fig5", fig5_cells(), fig5),
            Section::rows("acid", acid_cells(), acid),
            Section::rows("membership", membership_cells(), membership),
            Section::rows("recovery", recovery_cells(), recovery),
            Section::rows("packet_loss", packet_loss_cells(), packet_loss),
            Section::rows("nondet_replay", nondet_replay_cells(), nondet_replay),
            Section::rows("privacy", privacy_cells(), privacy),
            Section::rows("wan", wan_cells(), wan),
            Section::rows("byzantine", byzantine_cells(), byzantine),
        ],
    )
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

/// Whether the row's `converged` flag is set.
fn converged(row: &Json) -> bool {
    matches!(row.get("converged"), Some(Json::Bool(true)))
}

/// The highest `measured` among `rows`.
fn best_measured(rows: &[Json]) -> f64 {
    rows.iter()
        .map(|r| num(r, "measured"))
        .fold(f64::MIN, f64::max)
}

/// Figure 4's request sizes; the paper's Table 1 column is 1024 B.
const FIG4_SIZES: [usize; 4] = [256, 1024, 2048, 4096];

/// **Figure 4**: the Table 1 sweep at 256, 1024, 2048 and 4096 B, one cell
/// per size and configuration. The paper plots 1024 B (its Table 1
/// column) as representative because "the results for varying request
/// and response sizes are similar".
fn fig4_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for size in FIG4_SIZES {
        for (i, cfg) in table1_configs().into_iter().enumerate() {
            let name = cfg.table1_name();
            cells.push(cell(format!("fig4/{size}/{name}"), move || {
                let paper = (size == 1024).then_some(TABLE1_PAPER_TPS[i]);
                let row = obj! {"config": name.as_str()};
                tps_cell(row, null_tps(&cfg, size, 1), paper).with("size", size)
            }));
        }
    }
    cells
}

fn fig4(rows: Vec<Json>) -> Json {
    let per_size = rows.len() / FIG4_SIZES.len();
    let sweep = |s: usize| &rows[s * per_size..(s + 1) * per_size];
    let tps = |s: usize, i: usize| num(&sweep(s)[i], "measured");
    let names: Vec<&str> = sweep(0).iter().map(|r| text(r, "config")).collect();
    // Table 1's row order: rows 2k and 2k + 1 differ only in batching, rows
    // k and k + 4 (k < 4) only in MACs vs signatures.
    let beats = |pairs: &[(usize, usize)]| {
        pairs
            .iter()
            .all(|&(i, j)| (0..FIG4_SIZES.len()).all(|s| tps(s, i) > tps(s, j)))
    };
    let asserted = check!(rows;
        "sta_mac_allbig_batch is the fastest configuration at every size" =>
            (0..FIG4_SIZES.len()).all(|s| tps(s, 0) == best_measured(sweep(s))),
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
                let (size, (x, y), (p, q)) = (
                    FIG4_SIZES[s],
                    (tps(s, a), tps(s, b)),
                    (tps(1, a), tps(1, b)),
                );
                let (a, b) = (names[a], names[b]);
                contradicted.push(
                    format!("{size} B: {a} {x:.0} < {b} {y:.0} (1024 B: {p:.0} > {q:.0})").into(),
                );
            }
        }
    }
    // Each row's share of its sweep's best goes before its size.
    let shares: Vec<Json> = rows
        .iter()
        .enumerate()
        .map(|(k, row)| {
            let best = best_measured(sweep(k / per_size));
            let Json::Obj(mut fields) = row.clone() else {
                unreachable!("rows are objects")
            };
            let size = fields.pop().expect("the size is last");
            fields.push((
                "pct_of_best".into(),
                Json::from(100.0 * num(row, "measured") / best),
            ));
            fields.push(size);
            Json::Obj(fields)
        })
        .collect();
    obj! {
        "ref": "Figure 4", "trials": 1u64, "rows": shares,
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
    tps(spec, trials, |i| sql_insert_ops(i as u64))
}

/// **Figure 5**, "PBFT + SQL": the §4.2 single-row insert with ACID
/// semantics (rollback journal), batching on, sweeping MACs × big requests
/// × dynamic clients. The paper's one figure for it: the most robust
/// configuration with dynamic clients reaches 43 % of the best.
fn fig5_cells() -> Vec<Cell> {
    [false, true]
        .into_iter()
        .flat_map(|dynamic| {
            [(true, true), (true, false), (false, true), (false, false)]
                .map(|(macs, allbig)| config(dynamic, macs, allbig, true))
        })
        .map(|cfg| {
            let name = cfg.table1_name();
            cell(format!("fig5/{name}"), move || {
                let tps = sql_tps(&cfg, JournalMode::Rollback, FIG5_TRIALS);
                tps_cell(obj! {"config": name.as_str()}, tps, None)
            })
        })
        .collect()
}

const FIG5_TRIALS: usize = 2;

fn fig5(rows: Vec<Json>) -> Json {
    let best = best_measured(&rows);
    let robust = rows
        .iter()
        .find(|r| text(r, "config") == "nosta_nomac_noallbig_batch")
        .expect("config present");
    let pct = 100.0 * num(robust, "measured") / best;
    let robust_pct = measured(obj! {"config": text(robust, "config")}, pct, Some(43.0));
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            r.clone()
                .with("pct_of_best", 100.0 * num(r, "measured") / best)
        })
        .collect();
    obj! {
        "ref": "Figure 5", "trials": FIG5_TRIALS, "rows": rows,
        "robust_dynamic_pct_of_best": robust_pct,
    }
}

/// **§4.2 ACID vs no-ACID** — "The ACID version achieves 534 TPS while the
/// No-ACID one scores 1155" — on the most robust configuration with dynamic
/// clients, plus the write-ahead log (§3.2's "different mode of operation")
/// between them: 3, 1 and 0 synchronous flushes per commit (rollback and
/// WAL are ACID, off is not).
fn acid_cells() -> Vec<Cell> {
    [
        ("rollback", JournalMode::Rollback, 3u64, Some(534.0)),
        ("wal", JournalMode::Wal, 1, None),
        ("off", JournalMode::Off, 0, Some(1155.0)),
    ]
    .into_iter()
    .map(|(journal, mode, syncs, paper)| {
        cell(format!("acid/{journal}"), move || {
            let tps = sql_tps(&acid_config(), mode, ACID_TRIALS);
            let row = obj! {"journal": journal, "syncs_per_commit": syncs};
            tps_cell(row, tps, paper)
        })
    })
    .collect()
}

const ACID_TRIALS: usize = 3;

fn acid_config() -> PbftConfig {
    config(true, false, false, true)
}

fn acid(rows: Vec<Json>) -> Json {
    let [rollback, wal, off] = [0, 1, 2].map(|i| num(&rows[i], "measured"));
    let asserted = check!(rows;
        "fewer syncs per commit, more throughput: rollback < WAL < off" =>
            rollback < wal && wal < off,
    );
    let speedup = measured(obj! {}, off / rollback, Some(1155.0 / 534.0));
    obj! {
        "ref": "§4.2", "config": acid_config().table1_name(), "trials": ACID_TRIALS,
        "rows": rows, "speedup_without_acid": speedup, "asserted": asserted,
    }
}

/// **§4.1 dynamic-membership overhead** — "The performance decrease is 0,5%
/// (988 vs 992), which is negligible" — on the most robust configuration.
fn membership_cells() -> Vec<Cell> {
    [("static", false, 992.0), ("dynamic", true, 988.0)]
        .into_iter()
        .map(|(membership, dynamic, paper)| {
            cell(format!("membership/{membership}"), move || {
                let cfg = config(dynamic, false, false, true);
                let tps = null_tps(&cfg, 1024, MEMBERSHIP_TRIALS);
                let row = obj! {"membership": membership, "config": cfg.table1_name()};
                tps_cell(row, tps, Some(paper))
            })
        })
        .collect()
}

const MEMBERSHIP_TRIALS: usize = 3;

fn membership(rows: Vec<Json>) -> Json {
    let overhead = 100.0 * (1.0 - num(&rows[1], "measured") / num(&rows[0], "measured"));
    let overhead = measured(obj! {}, overhead, Some(0.5));
    obj! {"ref": "§4.1", "trials": MEMBERSHIP_TRIALS, "rows": rows, "overhead_pct": overhead}
}

/// **§2.3 erratic recovery and authenticators**: replica 2 crashes at
/// 500 ms and restarts 200 ms later with its session keys lost; it drops
/// client requests until the blind NewKey retransmission re-installs them
/// ("The only way to lower the time frame for this service interruption is
/// to reduce the authenticator retransmission timeout").
fn recovery_cells() -> Vec<Cell> {
    [250u64, 500, 1000, 2000, 4000]
        .into_iter()
        .map(|ms| {
            cell(format!("recovery/newkey_ms={ms}"), move || {
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
        })
        .collect()
}

fn recovery(rows: Vec<Json>) -> Json {
    let failures = |r: &Json| num(r, "auth_failures");
    let asserted = check!(rows;
        "the restarted replica recovers through state transfer at every interval" =>
            rows.iter().all(|r| num(r, "transfers") > 0.0 && num(r, "recovery_ms").is_finite()),
        "the replicas that stayed up converge at every interval" => rows.iter().all(converged),
        "auth failures at the shortest interval are below those at every longer one" =>
            rows[1..].iter().all(|r| failures(&rows[0]) < failures(r)),
    );
    let mut contradicted = vec![Json::from("auth failures shrink with the NewKey interval")];
    for w in rows
        .windows(2)
        .filter(|w| failures(&w[0]) >= failures(&w[1]))
    {
        let (short, long) = (num(&w[0], "newkey_ms"), num(&w[1], "newkey_ms"));
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
fn packet_loss_cells() -> Vec<Cell> {
    [0.01, 0.05, 0.20]
        .into_iter()
        .flat_map(|loss| [(loss, false), (loss, true)])
        .map(|(loss, fix)| {
            cell(
                format!("packet_loss/loss={loss}/fetch_fix={fix}"),
                move || {
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
                },
            )
        })
        .collect()
}

fn packet_loss(rows: Vec<Json>) -> Json {
    // (library default, body-fetch fix) per loss rate.
    let pairs: Vec<(&Json, &Json)> = rows.chunks(2).map(|p| (&p[0], &p[1])).collect();
    let stuck = |r: &Json| num(r, "stuck_events");
    let transfers = |r: &Json| num(r, "transfers");
    let asserted = check!(rows;
        "by default a lost body wedges replica 3 until a checkpoint transfer" =>
            pairs.iter().all(|(d, _)| stuck(d) > 0.0 && transfers(d) > 0.0),
        "the fix wedges less and transfers less than the default at every loss rate" =>
            pairs.iter().all(|(d, f)| stuck(f) < stuck(d) && transfers(f) < transfers(d)),
        "every run converges" => rows.iter().all(converged),
    );
    let mut contradicted = vec![Json::from("the fix avoids transfers")];
    for (_, fix) in pairs.iter().filter(|(_, f)| transfers(f) > 0.0) {
        let (loss, times) = (num(fix, "loss"), transfers(fix));
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
fn nondet_replay_cells() -> Vec<Cell> {
    [false, true]
        .into_iter()
        .map(|skip| {
            cell(format!("nondet_replay/skip_on_replay={skip}"), move || {
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
        })
        .collect()
}

fn nondet_replay(rows: Vec<Json>) -> Json {
    let failures = |r: &Json| num(r, "validation_failures");
    let completed = |r: &Json| num(r, "completed_after_replay");
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
fn privacy_cells() -> Vec<Cell> {
    (0..=3usize)
        .map(|rows| {
            cell(format!("privacy/rows={rows}"), move || {
                let spec = null_spec(PbftConfig::default(), 1024, 12, 4242);
                let mut fc = build_firewalled_cluster(spec, rows);
                fc.cluster.start_workload(|i| null_ops(1024 + i));
                let tps = fc
                    .cluster
                    .measure_throughput(SimDuration::from_secs(1), SimDuration::from_secs(2));
                // Replies the outermost row suppressed.
                let suppressed = fc.row_stats().first().map_or(0, |s| s.suppressed);
                obj! {
                    "rows": rows, "tps": tps, "latency_ms": fc.cluster.mean_latency_ms(),
                    "suppressed_row0": (rows > 0).then_some(suppressed),
                }
            })
        })
        .collect()
}

fn privacy(rows: Vec<Json>) -> Json {
    let latency = |r: &Json| num(r, "latency_ms");
    let asserted = check!(rows;
        "each row adds latency" => rows.windows(2).all(|w| latency(&w[0]) < latency(&w[1])),
        "the outermost row suppresses surplus replies" =>
            rows[1..].iter().all(|r| num(r, "suppressed_row0") > 0.0),
    );
    let base = latency(&rows[0]);
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let increase = (latency(r) / base - 1.0) * 100.0;
            let firewalled = num(r, "rows") > 0.0;
            r.clone()
                .with("latency_increase_pct", firewalled.then_some(increase))
        })
        .collect();
    obj! {"ref": "§3.3.1", "rows": rows, "asserted": asserted}
}

/// **WAN ablation (§3.3.3)**: throughput and latency against one-way link
/// delay — "the quadratic message complexity of PBFT will most probably
/// prove costly regarding request latency" — the experiment the paper
/// could not run.
fn wan_cells() -> Vec<Cell> {
    [1u64, 5, 15, 40, 80]
        .into_iter()
        .map(|ms| {
            cell(format!("wan/one_way_ms={ms}"), move || {
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
        })
        .collect()
}

fn wan(rows: Vec<Json>) -> Json {
    let tps = |r: &Json| num(r, "tps");
    let latency = |r: &Json| num(r, "latency_ms");
    let asserted = check!(rows;
        "latency rises and throughput falls with every step of link delay" =>
            rows.windows(2).all(|w| latency(&w[0]) < latency(&w[1]) && tps(&w[0]) > tps(&w[1])),
        "latency-bound: throughput x latency stays within 5 % of the 12 clients" =>
            rows.iter().all(|r| (num(r, "in_flight") / NUM_CLIENTS as f64 - 1.0).abs() < 0.05),
    );
    obj! {"ref": "§3.3.3", "trials": 1u64, "rows": rows, "asserted": asserted}
}

/// **Byzantine-fault ablation** — not a paper table (the paper injects only
/// crashes and packet loss): null-op throughput with one adversarial
/// replica per fault type, the cost of *surviving* each.
fn byzantine_cells() -> Vec<Cell> {
    [
        ("none (baseline)", "none", None),
        ("mute primary", "mute", Some(Fault::Mute)),
        (
            "tampered replies",
            "tamper_replies",
            Some(Fault::TamperReplies),
        ),
        (
            "tampered prepares/commits",
            "tamper_agreement",
            Some(Fault::TamperAgreement),
        ),
        (
            "split-brain primary",
            "split_brain",
            Some(Fault::SplitBrain),
        ),
    ]
    .into_iter()
    .map(|(name, slug, fault)| {
        cell(format!("byzantine/{slug}"), move || {
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
            obj! {"fault": name, "tps": cluster.measure_throughput(two_s, two_s)}
        })
    })
    .collect()
}

fn byzantine(rows: Vec<Json>) -> Json {
    let tps = |r: &Json| num(r, "tps");
    let asserted = check!(rows;
        "every fault is survived" => rows.iter().all(|r| tps(r) > 0.0),
        "equivocation (the split-brain primary) costs the most" =>
            rows.iter().all(|r| tps(r) >= tps(&rows[4])),
    );
    let baseline = tps(&rows[0]);
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| r.clone().with("pct_of_baseline", 100.0 * tps(r) / baseline))
        .collect();
    obj! {"ref": "extends Table 1", "rows": rows, "asserted": asserted}
}
