//! The paper's Table 1 configurations and the measurement every
//! throughput cell of the evaluation shares: one cluster spec, run over seeded trials.

use pbft_core::{AuthMode, PbftConfig};
use simnet::SimDuration;

use crate::cluster::{AppKind, Cluster, ClusterSpec};
use crate::stats::Stats;
use crate::workload::OpGen;

/// The paper's client/replica population: "12 clients spread evenly across
/// 4 machines while being serviced by 4 replicas".
pub const NUM_CLIENTS: usize = 12;

/// Virtual time a [`throughput`] trial runs before it starts counting.
pub const WARMUP: SimDuration = SimDuration::from_millis(500);
/// Virtual time a [`throughput`] trial counts completions over.
pub const WINDOW: SimDuration = SimDuration::from_secs(2);

/// A Table 1 configuration: dynamic membership, MACs, all requests big,
/// batching.
pub fn config(dynamic: bool, macs: bool, allbig: bool, batching: bool) -> PbftConfig {
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

/// The paper's Table 1 TPS column (1024 B null requests and replies), in
/// [`table1_configs`] order.
pub const TABLE1_PAPER_TPS: [f64; 10] = [
    17014.0, 1051.0, 3030.0, 1109.0, 1291.0, 1199.0, 992.0, 1186.0, 988.0, 1205.0,
];

/// A null-op cluster: `clients` closed-loop clients, `size`-byte replies.
pub fn null_spec(cfg: PbftConfig, size: usize, clients: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        cfg,
        app: AppKind::Null { reply_size: size },
        num_clients: clients,
        seed,
        ..Default::default()
    }
}

/// Throughput of `spec` over `trials` runs, trial `t` at seed
/// `spec.seed + t`: every client runs the closed-loop workload
/// `ops(client)`, the run counts completions over [`WINDOW`] after
/// [`WARMUP`], and `inspect` gets each trial's cluster (with the trial's
/// index) once its window is counted — where a re-run of one artifact cell
/// reads its batching and message trace.
pub fn throughput(
    spec: &ClusterSpec,
    trials: usize,
    ops: impl Fn(usize) -> OpGen,
    mut inspect: impl FnMut(usize, &Cluster),
) -> Stats {
    let samples: Vec<f64> = (0..trials)
        .map(|t| {
            let mut cluster = Cluster::build(ClusterSpec {
                seed: spec.seed + t as u64,
                ..spec.clone()
            });
            cluster.start_workload(&ops);
            let tps = cluster.measure_throughput(WARMUP, WINDOW);
            inspect(t, &cluster);
            tps
        })
        .collect();
    Stats::from_samples(&samples)
}
