//! One entry point per table and figure of the paper's evaluation.

use minisql::JournalMode;
use pbft_core::{AuthMode, PbftConfig};
use simnet::SimDuration;

use crate::cluster::{AppKind, Cluster, ClusterSpec};
use crate::stats::Stats;
use crate::workload::{null_ops, sql_insert_ops};

/// The paper's client/replica population: "12 clients spread evenly across
/// 4 machines while being serviced by 4 replicas".
pub const NUM_CLIENTS: usize = 12;

/// Measurement windows (virtual time).
const WARMUP: SimDuration = SimDuration::from_millis(500);
const WINDOW: SimDuration = SimDuration::from_secs(2);

/// One throughput configuration result.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// The Table 1 configuration name (e.g. `sta_mac_allbig_batch`).
    pub name: String,
    /// Throughput statistics over trials.
    pub tps: Stats,
}

/// A Table 1 configuration (paper order).
fn config(dynamic: bool, macs: bool, allbig: bool, batching: bool) -> PbftConfig {
    PbftConfig {
        dynamic_membership: dynamic,
        auth: if macs {
            AuthMode::Macs
        } else {
            AuthMode::Signatures
        },
        all_requests_big: allbig,
        batching,
        ..Default::default()
    }
}

/// The ten configurations of Table 1, in the paper's row order.
pub fn table1_configs() -> Vec<PbftConfig> {
    vec![
        config(false, true, true, true),
        config(false, true, true, false),
        config(false, true, false, true),
        config(false, true, false, false),
        config(false, false, true, true),
        config(false, false, true, false),
        config(false, false, false, true),
        config(false, false, false, false),
        config(true, false, false, true),
        config(true, false, false, false),
    ]
}

/// Measure null-op throughput for one configuration (Table 1 cell) under
/// the engine `cfg.engine` names — the head-to-head bench columns (PBFT vs
/// linear) are measured through this too.
pub fn null_throughput(cfg: &PbftConfig, size: usize, trials: usize) -> Stats {
    let samples: Vec<f64> = (0..trials)
        .map(|t| {
            let spec = ClusterSpec {
                cfg: cfg.clone(),
                app: AppKind::Null { reply_size: size },
                num_clients: NUM_CLIENTS,
                seed: 1000 + t as u64,
                ..Default::default()
            };
            let mut cluster = Cluster::build(spec);
            cluster.start_workload(|_| null_ops(size));
            cluster.measure_throughput(WARMUP, WINDOW)
        })
        .collect();
    Stats::from_samples(&samples)
}

/// **Table 1**: the ten configurations, null requests/replies of `size`
/// bytes (the paper reports 1024).
pub fn table1(size: usize, trials: usize) -> Vec<ConfigResult> {
    table1_configs()
        .iter()
        .map(|cfg| ConfigResult {
            name: cfg.table1_name(),
            tps: null_throughput(cfg, size, trials),
        })
        .collect()
}

/// **Figure 4**: the configuration sweep at several request/reply sizes
/// ("of 256, 1024, 2048 and 4096 bytes"); the paper shows 1024 as
/// representative because "results for varying request and response sizes
/// are similar".
pub fn fig4(sizes: &[usize], trials: usize) -> Vec<(usize, Vec<ConfigResult>)> {
    sizes.iter().map(|&s| (s, table1(s, trials))).collect()
}

/// SQL benchmark configurations for **Figure 5**: batching enabled, varying
/// MACs × big-request handling × dynamic clients.
pub fn fig5_configs() -> Vec<PbftConfig> {
    let mut out = Vec::new();
    for dynamic in [false, true] {
        for macs in [true, false] {
            for allbig in [true, false] {
                out.push(config(dynamic, macs, allbig, true));
            }
        }
    }
    out
}

/// Measure SQL-insert throughput for one configuration.
pub fn sql_throughput(cfg: &PbftConfig, journal: JournalMode, trials: usize) -> Stats {
    let samples: Vec<f64> = (0..trials)
        .map(|t| {
            let spec = ClusterSpec {
                cfg: cfg.clone(),
                app: AppKind::Sql { journal },
                num_clients: NUM_CLIENTS,
                seed: 2000 + t as u64,
                ..Default::default()
            };
            let mut cluster = Cluster::build(spec);
            cluster.start_workload(|i| sql_insert_ops(i as u64));
            cluster.measure_throughput(WARMUP, WINDOW)
        })
        .collect();
    Stats::from_samples(&samples)
}

/// **Figure 5**: PBFT + SQL row-insert throughput across configurations,
/// ACID semantics ("provided using the rollback journal mode").
pub fn fig5(trials: usize) -> Vec<ConfigResult> {
    fig5_configs()
        .iter()
        .map(|cfg| ConfigResult {
            name: cfg.table1_name(),
            tps: sql_throughput(cfg, JournalMode::Rollback, trials),
        })
        .collect()
}

/// **§4.2 ACID vs no-ACID**: the most robust configuration with dynamic
/// clients; returns `(acid, no_acid)`. The paper measures 534 vs 1155 TPS —
/// "an approximately 2x performance boost".
pub fn acid_comparison(trials: usize) -> (Stats, Stats) {
    let cfg = config(true, false, false, true);
    (
        sql_throughput(&cfg, JournalMode::Rollback, trials),
        sql_throughput(&cfg, JournalMode::Off, trials),
    )
}

/// **Journal-mode ablation** (paper §3.2 names the write-ahead log as the
/// rollback journal's "different mode of operation"): SQL inserts on the
/// most robust configuration with dynamic clients, under all three
/// durability modes. WAL commits with one sync instead of rollback's three,
/// so it should land between full ACID and no-ACID.
pub fn journal_modes(trials: usize) -> Vec<(&'static str, Stats)> {
    let cfg = config(true, false, false, true);
    vec![
        (
            "rollback journal (ACID, 3 syncs/commit)",
            sql_throughput(&cfg, JournalMode::Rollback, trials),
        ),
        (
            "write-ahead log  (ACID, 1 sync/commit)",
            sql_throughput(&cfg, JournalMode::Wal, trials),
        ),
        (
            "no journal       (no-ACID, 0 syncs)",
            sql_throughput(&cfg, JournalMode::Off, trials),
        ),
    ]
}

/// **§4.1 membership overhead**: the most robust configuration, static vs
/// dynamic clients (the paper's 992 vs 988, a ~0.5% decrease).
pub fn membership_overhead(trials: usize) -> (Stats, Stats) {
    let static_cfg = config(false, false, false, true);
    let dynamic_cfg = config(true, false, false, true);
    (
        null_throughput(&static_cfg, 1024, trials),
        null_throughput(&dynamic_cfg, 1024, trials),
    )
}

/// Report from the §2.4 packet-loss experiment.
#[derive(Debug, Clone)]
pub struct LossReport {
    /// Times execution wedged on a missing big-request body.
    pub stuck_events: u64,
    /// State transfers that recovered the wedged replica.
    pub transfers_completed: u64,
    /// Completed client requests (service stayed live through the fault).
    pub completed: u64,
    /// All live replicas ended with identical state.
    pub converged: bool,
}

/// **§2.4**: drop big-request bodies on the client→replica-3 link; the
/// wedged replica recovers at the next checkpoint via state transfer.
pub fn packet_loss_bigreq(loss: f64, fetch_fix: bool, seed: u64) -> LossReport {
    let cfg = PbftConfig {
        checkpoint_interval: 64,
        fetch_missing_bodies: fetch_fix,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Null { reply_size: 1024 },
        num_clients: 4,
        seed,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    // Lossy links from every client to replica 3 only.
    for &c in &cluster.clients.clone() {
        let r3 = cluster.replicas[3];
        cluster.set_loss(c, r3, loss);
    }
    cluster.start_workload(|_| null_ops(1024));
    cluster.run_for(SimDuration::from_secs(3));
    let m = cluster.replica_metrics(3);
    LossReport {
        stuck_events: m.stuck_missing_body,
        transfers_completed: m.state_transfers_completed,
        completed: cluster.completed(),
        converged: cluster.states_converged(&[0, 1, 2, 3]),
    }
}

/// Report from the §2.3 recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// NewKey retransmission interval used (ns).
    pub newkey_interval_ns: u64,
    /// Authentication failures at the restarted replica (requests it had to
    /// drop while it lacked session keys).
    pub auth_failures: u64,
    /// State transfers completed by the restarted replica.
    pub transfers: u64,
    /// Virtual time (ms) from restart until the replica executed again.
    pub recovery_ms: f64,
    /// Replicas converged afterwards.
    pub converged: bool,
}

/// **§2.3**: restart a replica mid-load and measure how the blind NewKey
/// retransmission interval bounds the authenticator stall ("The only way to
/// lower the time frame for this service interruption is to reduce the
/// authenticator retransmission timeout").
pub fn recovery_after_restart(newkey_interval_ns: u64, seed: u64) -> RecoveryReport {
    let cfg = PbftConfig {
        checkpoint_interval: 64,
        newkey_interval_ns,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Null { reply_size: 256 },
        num_clients: 4,
        seed,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(256));
    cluster.run_for(SimDuration::from_millis(500));
    cluster.crash_replica(2);
    cluster.run_for(SimDuration::from_millis(200));
    cluster.restart_replica(2, false);
    let restart_time = cluster.sim.now();
    // Run until the restarted replica executes fresh requests again.
    let mut recovered_at = None;
    for _ in 0..200 {
        cluster.run_for(SimDuration::from_millis(50));
        let r = cluster.replica(2).expect("alive");
        let peers_exec = cluster.replica(0).expect("alive").last_executed();
        if r.last_executed() + 16 >= peers_exec && r.metrics().state_transfers_completed > 0 {
            recovered_at = Some(cluster.sim.now());
            break;
        }
    }
    let m = cluster.replica_metrics(2);
    let recovery_ms = recovered_at
        .map(|t| (t - restart_time).as_secs_f64() * 1e3)
        .unwrap_or(f64::INFINITY);
    RecoveryReport {
        newkey_interval_ns,
        auth_failures: m.auth_failures,
        transfers: m.state_transfers_completed,
        recovery_ms,
        converged: cluster.states_converged(&[0, 1, 3]),
    }
}

/// Report from the §2.5 non-determinism replay experiment.
#[derive(Debug, Clone)]
pub struct NonDetReport {
    /// Whether replay validation was skipped (the paper's proposed fix).
    pub skip_on_replay: bool,
    /// Validation failures recorded across replicas.
    pub validation_failures: u64,
    /// Requests completed after the view change replayed old pre-prepares.
    pub completed_after: u64,
}

/// **§2.5**: force a view change that re-issues old-timestamped
/// pre-prepares with a tight validation window; without the
/// skip-on-replay fix the replay is rejected and progress stalls.
pub fn nondet_replay(skip_on_replay: bool, seed: u64) -> NonDetReport {
    let cfg = PbftConfig {
        tentative_execution: false,
        nondet: pbft_core::config::NonDetPolicy {
            validate_window_ns: 400_000_000, // fresh pre-prepares pass
            skip_validation_on_replay: skip_on_replay,
        },
        view_change_timeout_ns: 200_000_000,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Null { reply_size: 64 },
        num_clients: 2,
        seed,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(64));
    cluster.run_for(SimDuration::from_millis(300));
    // Partition the primary's *commits* era: simplest reproducible replay
    // trigger is crashing the primary so prepared-but-uncommitted batches
    // are re-issued in the new view — long after their timestamps.
    cluster.crash_replica(0);
    // Let the suspicion timers elapse and the view change replay happen well
    // outside the validation window.
    cluster.run_for(SimDuration::from_secs(2));
    let before = cluster.completed();
    cluster.run_for(SimDuration::from_secs(2));
    let completed_after = cluster.completed() - before;
    let validation_failures = (1..4)
        .map(|i| cluster.replica_metrics(i).nondet_validation_failures)
        .sum();
    NonDetReport {
        skip_on_replay,
        validation_failures,
        completed_after,
    }
}

/// **§3.3.3 (WAN ablation)**: throughput and latency vs one-way link delay,
/// quantifying the cost of PBFT's quadratic message complexity outside the
/// LAN ("the quadratic message complexity of PBFT will most probably prove
/// costly regarding request latency").
pub fn wan_sweep(one_way_ms: &[u64], trials: usize) -> Vec<(u64, Stats, f64)> {
    one_way_ms
        .iter()
        .map(|&ms| {
            let mut latencies = 0.0;
            let samples: Vec<f64> = (0..trials)
                .map(|t| {
                    let spec = ClusterSpec {
                        cfg: PbftConfig::default(),
                        app: AppKind::Null { reply_size: 1024 },
                        num_clients: NUM_CLIENTS,
                        link: simnet::LinkParams::wan(SimDuration::from_millis(ms)),
                        seed: 3000 + t as u64,
                        ..Default::default()
                    };
                    let mut cluster = Cluster::build(spec);
                    cluster.start_workload(|_| null_ops(1024));
                    let tps = cluster.measure_throughput(WARMUP, WINDOW);
                    latencies += cluster.mean_latency_ms();
                    tps
                })
                .collect();
            (ms, Stats::from_samples(&samples), latencies / trials as f64)
        })
        .collect()
}

/// Render configuration results as an aligned text table.
pub fn render_table(title: &str, rows: &[ConfigResult], baseline: Option<f64>) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<32} {:>10} {:>8} {:>10}\n",
        "configuration", "TPS", "StDev", "% of best"
    ));
    let best = baseline
        .or_else(|| {
            rows.iter()
                .map(|r| r.tps.mean)
                .fold(None, |a: Option<f64>, b| Some(a.map_or(b, |a| a.max(b))))
        })
        .unwrap_or(1.0);
    for r in rows {
        out.push_str(&format!(
            "{:<32} {:>10.0} {:>8.0} {:>9.1}%\n",
            r.name,
            r.tps.mean,
            r.tps.std_dev,
            100.0 * r.tps.mean / best
        ));
    }
    out
}
