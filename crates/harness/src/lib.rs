//! The experiment harness: the reproduction of the paper's §4 testbed.
//!
//! The paper coordinates 8 machines with "a test framework using Python and
//! netcat, where the latter runs on each host and allows a single controller
//! to submit scripts (i.e., experiments) and collect the results". This
//! crate is that controller for the simulated cluster:
//!
//! * [`cost`] — the calibrated cost model turning engine work-counts
//!   ([`pbft_core::OpCounts`]) and packet sizes into virtual CPU time,
//! * [`cluster`] — the group type: replica/client adapters mounting the
//!   sans-io engines on one `simnet` simulator, its builder, and its fault
//!   surface,
//! * [`byzantine`] — adversarial replica hosts (mute, tampering,
//!   split-brain equivocating primaries, targeted censorship) for
//!   safety/liveness experiments,
//! * [`adversary`] — adaptive Byzantine strategies that observe protocol
//!   state (view, rotation windows, recovery) and mount/unmount those
//!   faults in reaction, opposed by scheduled proactive recovery,
//! * [`firewall`] — the Yin et al. privacy-firewall topology of §3.3.1,
//!   for the deployment-cost ablation,
//! * [`workload`] — client workload generators, one shape for all of them:
//!   each draw is an operation tagged with the shard keys it touches (null
//!   ops of the paper's sizes, the §4.2 SQL row insert, keyed KV traffic),
//!   beside the transaction generators of the cross-shard driver,
//! * [`shard`] — the one deployment type, [`Deployment`]: N independent
//!   groups (N = 1 is the single-group testbed) sharing one virtual clock
//!   behind a deterministic client-side shard router, with cross-shard
//!   operations rejected by a typed error and live elastic splits,
//! * [`xshard`] — cross-shard atomic commit inside [`Deployment`]: the
//!   closed-loop transaction initiators of its transaction driver,
//!   driving the two-phase commit of [`pbft_xshard::xshard`] through every
//!   group's own PBFT agreement, with timeout aborts and a ground-truth
//!   atomicity audit,
//! * [`scenario`] — deterministic fault-schedule scenarios: timed
//!   crash/restart, runtime fault mount/unmount, partition/degrade/heal
//!   events scripted against a deployment over the shared lockstep clock,
//!   with a bucketed client-visible availability timeline,
//! * [`testkit`] — the shared cluster-setup vocabulary of the test suites
//!   (spec builders, fast-failover configs, safety assertions),
//! * [`stats`] — mean/standard deviation over trials (the paper's TPS ±
//!   StDev columns),
//! * [`experiments`] — the Table 1 sweep and the seeded-trials throughput
//!   measurement the paper benches share.
//!
//! # Example: measure a small cluster's throughput
//!
//! ```
//! use harness::workload::null_ops;
//! use harness::{Cluster, ClusterSpec};
//! use simnet::SimDuration;
//!
//! let mut cluster = Cluster::build(ClusterSpec { num_clients: 2, ..Default::default() });
//! cluster.start_workload(|_| null_ops(128));
//! let tps = cluster.measure_throughput(
//!     SimDuration::from_millis(100),
//!     SimDuration::from_millis(200),
//! );
//! assert!(tps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod byzantine;
pub mod cluster;
pub mod cost;
pub mod experiments;
pub mod firewall;
pub mod scenario;
pub mod shard;
pub mod stats;
pub mod testkit;
pub mod workload;
pub mod xshard;

pub use adversary::{Adversary, Observation, Strategy};
pub use cluster::{AppKind, Cluster, ClusterSpec};
pub use cost::CostModel;
pub use scenario::{
    run_scenario, run_scenario_adaptive, Scenario, ScenarioEvent, ScenarioReport, Timeline,
};
pub use shard::{Deployment, DeploymentSpec, ShardRouter};
pub use stats::Stats;
pub use xshard::XShardMetrics;
