//! Shared cluster-setup vocabulary for the test suites.
//!
//! Every integration suite used to open with the same ritual: a
//! `ClusterSpec` with a fast view-change timeout, a "recovery" config with
//! frequent checkpoints and the §2.4 body-fetch fix, a `DeploymentSpec`
//! wrapper, a millisecond helper, and a pairwise exec-chain safety check.
//! This module is that ritual, written once — the suites
//! (`crates/harness/tests/*`, the root `tests/*`) and the scenario
//! conformance suite all build from here, so a knob change (say, the test
//! failover timeout) lands in one place.
//!
//! Everything here is plain test plumbing: no assertions beyond
//! [`assert_correct_replicas_agree`], no hidden workload.

use pbft_core::{Engine, PbftConfig};
use simnet::SimDuration;

use crate::cluster::{Cluster, ClusterSpec};
use crate::shard::{Deployment, DeploymentSpec};

pub mod conformance;

/// Millisecond shorthand: `ms(250)` reads better than the constructor.
pub const fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The audit/query timeout the cross-shard suites share.
pub const AUDIT_TIMEOUT: SimDuration = ms(500);

/// The test failover timeout: scenarios and Byzantine suites fail over in
/// 200 ms instead of the production 500 ms, so liveness assertions fit in
/// seconds of virtual time.
pub const TEST_VC_TIMEOUT_NS: u64 = 200_000_000;

/// Protocol config that fails over quickly (see [`TEST_VC_TIMEOUT_NS`]).
pub fn fast_failover_cfg() -> PbftConfig {
    PbftConfig {
        view_change_timeout_ns: TEST_VC_TIMEOUT_NS,
        ..Default::default()
    }
}

/// Protocol config for recovery scenarios: frequent checkpoints (so
/// restarted and lagging replicas have a recent transfer target) and the
/// §2.4 body-fetch fix (a replica that lost a request body to an outage
/// must refetch it — in a quiesced system no later checkpoint will save
/// it).
pub fn recovery_cfg() -> PbftConfig {
    PbftConfig {
        checkpoint_interval: 32,
        fetch_missing_bodies: true,
        ..Default::default()
    }
}

/// A small default-config cluster spec: `num_clients` clients, given seed.
pub fn small_spec(num_clients: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        num_clients,
        seed,
        ..Default::default()
    }
}

/// [`small_spec`] with [`fast_failover_cfg`] — the base of the Byzantine
/// and fault-scenario suites.
pub fn failover_spec(num_clients: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        cfg: fast_failover_cfg(),
        ..small_spec(num_clients, seed)
    }
}

/// [`small_spec`] with [`recovery_cfg`] — the base of the durability and
/// crash-restart suites.
pub fn recovery_spec(num_clients: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        cfg: recovery_cfg(),
        ..small_spec(num_clients, seed)
    }
}

/// [`small_spec`] with only the §2.4 body-fetch fix (default checkpoint
/// cadence) — the base of the cross-shard atomicity suites, which are
/// strict about whole-region convergence.
pub fn fetching_spec(num_clients: usize, seed: u64) -> ClusterSpec {
    let mut spec = small_spec(num_clients, seed);
    spec.cfg.fetch_missing_bodies = true;
    spec
}

/// A static deployment of `shards` groups built from `base`, driven by
/// `initiators` transaction agents (none: no cross-shard driver; driver
/// timeouts at their defaults).
pub fn deployment_spec(shards: usize, initiators: usize, base: ClusterSpec) -> DeploymentSpec {
    DeploymentSpec {
        shards,
        base,
        initiators,
        ..Default::default()
    }
}

/// The spec of a scenario group: [`failover_spec`] + [`recovery_cfg`]'s
/// fetch/checkpoint knobs, running `engine`.
fn scenario_spec(engine: Engine, num_clients: usize, seed: u64) -> ClusterSpec {
    let mut spec = failover_spec(num_clients, seed);
    spec.cfg.engine = engine;
    spec.cfg.checkpoint_interval = 32;
    spec.cfg.fetch_missing_bodies = true;
    spec
}

/// [`scenario_spec`] with request bodies inline in the pre-prepares
/// (`all_requests_big` off): the configuration whose congestion window
/// holds several agreements.
fn pipelined_spec(engine: Engine, num_clients: usize, seed: u64) -> ClusterSpec {
    let mut spec = scenario_spec(engine, num_clients, seed);
    spec.cfg.all_requests_big = false;
    spec
}

/// A one-group deployment for scenario runs, running `engine` — the
/// builder the conformance suite uses.
pub fn scenario_deployment(engine: Engine, num_clients: usize, seed: u64) -> Deployment {
    Deployment::build(deployment_spec(
        1,
        0,
        scenario_spec(engine, num_clients, seed),
    ))
}

/// [`scenario_deployment`] with member `compromised` additionally carrying
/// a silent split-brain twin (see
/// [`build_adversary_cluster`](crate::byzantine::build_adversary_cluster)):
/// the seat an adaptive adversary occupies, so every fault — including
/// [`Fault::SplitBrain`](crate::byzantine::Fault::SplitBrain) — is
/// mountable mid-run.
pub fn adversary_deployment(
    engine: Engine,
    num_clients: usize,
    seed: u64,
    compromised: u32,
) -> Deployment {
    let spec = scenario_spec(engine, num_clients, seed);
    Deployment::build_with(deployment_spec(1, 0, spec), move |_, gspec| {
        crate::byzantine::build_adversary_cluster(gspec, compromised)
    })
}

/// Exec chains of the *correct* replicas must agree pairwise (safety), and
/// their states must converge after quiescence.
///
/// Two qualifications keep the check honest rather than flaky:
///
/// * different heights are a liveness matter, not a safety violation, so
///   chains are compared only between replicas at equal `last_executed`;
/// * a replica that completed a checkpoint state transfer did not execute
///   its whole history locally — its chain is reseeded from the install
///   root — so chains are compared only between replicas that never
///   transferred. Transferred replicas are still held to the state-digest
///   comparison, which is the stronger ground truth.
///
/// The check holds either engine to the same safety contract.
///
/// # Panics
/// Panics on a safety violation (divergent execution or divergent state),
/// or if a listed replica is crashed.
pub fn assert_correct_replicas_agree(cluster: &mut Cluster, correct: &[usize]) {
    let chains: Vec<_> = correct
        .iter()
        .map(|&i| cluster.replica(i).expect("alive").exec_chain())
        .collect();
    for a in 0..correct.len() {
        for b in a + 1..correct.len() {
            let (ra, rb) = (correct[a], correct[b]);
            if cluster.replica_metrics(ra).state_transfers_completed > 0
                || cluster.replica_metrics(rb).state_transfers_completed > 0
            {
                continue; // chain reseeded by an install: not comparable
            }
            let ea = cluster.replica(ra).expect("alive").last_executed();
            let eb = cluster.replica(rb).expect("alive").last_executed();
            if ea == eb {
                assert_eq!(
                    chains[a], chains[b],
                    "replicas {ra} and {rb} executed different histories at height {ea}"
                );
            }
        }
    }
    assert!(
        cluster.states_converged(correct),
        "correct replicas' states diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_carry_their_knobs() {
        assert_eq!(ms(3).as_nanos(), 3_000_000);
        assert_eq!(
            failover_spec(4, 7).cfg.view_change_timeout_ns,
            TEST_VC_TIMEOUT_NS
        );
        assert_eq!(failover_spec(4, 7).seed, 7);
        let r = recovery_spec(2, 1);
        assert_eq!(r.cfg.checkpoint_interval, 32);
        assert!(r.cfg.fetch_missing_bodies);
        assert!(fetching_spec(2, 1).cfg.fetch_missing_bodies);
        assert_eq!(
            fetching_spec(2, 1).cfg.checkpoint_interval,
            PbftConfig::default().checkpoint_interval
        );
        let x = deployment_spec(2, 3, small_spec(1, 9));
        assert_eq!((x.shards, x.initiators, x.base.num_clients), (2, 3, 1));
        assert!(!x.elastic);
    }

    /// One fault script per engine must exercise windowed pipelining — a
    /// view change re-issuing a whole window, recovery replaying
    /// overlapping slots — not lock-step agreement: the pipelined one.
    #[test]
    fn conformance_runs_pipelined() {
        for engine in [Engine::Pbft, Engine::Linear] {
            assert!(
                pipelined_spec(engine, 1, 5).cfg.effective_window() > 1,
                "the pipelined script must run with a multi-slot window"
            );
        }
    }

    #[test]
    fn scenario_deployment_mounts_and_unmounts_faults() {
        let mut deployment = scenario_deployment(Engine::Pbft, 1, 5);
        assert_eq!(deployment.shards(), 1);
        let cluster = deployment.group_mut(0);
        assert_eq!(cluster.mounted_fault(0), None);
        cluster.mount_fault(0, crate::byzantine::Fault::Mute);
        assert_eq!(
            cluster.mounted_fault(0),
            Some(crate::byzantine::Fault::Mute)
        );
        cluster.unmount_fault(0);
        assert_eq!(cluster.mounted_fault(0), None);
    }
}
