//! Runs of the paper-fault conformance scripts under either engine.
//!
//! The root `scenario_conformance` suite pins PBFT-specific availability
//! bounds and recovery windows. This module factors out the part of that
//! contract every [`Engine`] must honor — run the identical fault script,
//! then assert
//!
//! 1. **safety**: correct replicas never diverge (exec chains + state
//!    digests via [`assert_correct_replicas_agree`]; the ground-truth
//!    atomicity audit for the cross-shard script), and
//! 2. **finite recovery**: commits resume after every fault clears, within
//!    a generous engine-agnostic bound.
//!
//! Scripts 1–5 are the statically scheduled paper faults; scripts 6–7 add
//! the adaptive-adversary/proactive-recovery pair (an equivocating primary
//! evicted by a scheduled reboot, and targeted censorship riding alongside
//! the rolling recovery schedule); script 8 fires a live shard split
//! inside a crash window (elastic resharding) and sweeps key ownership as
//! ground truth.
//!
//! Each function takes the engine as a value and returns the
//! [`ScenarioReport`], so suites can layer engine-specific pins on top.
//! The root suite runs all eight under both [`Engine::Pbft`] and the
//! linear-communication [`Engine::Linear`].

use pbft_core::Engine;
use simnet::SimDuration;

use super::{
    adversary_deployment, assert_correct_replicas_agree, deployment_spec, fetching_spec, ms,
    pipelined_spec, scenario_deployment, AUDIT_TIMEOUT,
};
use pbft_core::app::KvApp;

use crate::adversary::{Adversary, EquivocatingPrimary};
use crate::cluster::AppKind;
use crate::scenario::{paper, run_scenario, run_scenario_adaptive, ScenarioReport};
use crate::shard::{Deployment, DeploymentSpec};
use crate::workload::{cross_null_txs, keyed_kv_ops, keyed_null_ops, null_ops};

/// Offered load for the conformance scripts: one op per client per 4 ms,
/// open loop, so the offered rate stays fixed while the group degrades.
pub const PACE: SimDuration = ms(4);

/// Engine-agnostic finite-recovery bound: every script's fault window must
/// close within this much virtual time of the (last) fault clearing. Wide
/// on purpose — the per-engine latency pins live in the root suite.
pub const RECOVERY_BOUND: SimDuration = ms(1500);

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// Script 1: the primary crashes under load and later restarts from disk.
/// The survivors must elect a replacement (finite recovery) and the
/// restarted ex-primary must fold back into a converged group.
pub fn primary_crash_under_load(engine: Engine, seed: u64) -> ScenarioReport {
    primary_crash(engine, scenario_deployment(engine, 4, seed))
}

/// Script 1 with request bodies inline in the pre-prepares, the one
/// configuration that pipelines: the view change re-issues a multi-slot
/// window and the restarted ex-primary replays overlapping slots.
pub fn primary_crash_pipelined(engine: Engine, seed: u64) -> ScenarioReport {
    let spec = pipelined_spec(engine, 4, seed);
    assert!(
        spec.cfg.effective_window() > 1,
        "the script must run with a multi-slot window"
    );
    primary_crash(engine, Deployment::build(deployment_spec(1, 0, spec)))
}

fn primary_crash(engine: Engine, mut deployment: Deployment) -> ScenarioReport {
    let name = engine.name();
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, &paper::primary_crash_under_load());
    let recovery = report
        .timeline
        .recovery_after(report.trace[0].at)
        .unwrap_or_else(|| panic!("{name}: commits never resumed after the primary crash"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: failover recovery {recovery:?} exceeds the conformance bound"
    );
    let cluster = deployment.group_mut(0);
    cluster.quiesce(secs(2));
    // The restarted ex-primary fast-forwards by state transfer (its chain
    // reseeds), so chains are compared among the never-crashed survivors
    // and the full group is held to state-digest convergence.
    assert_correct_replicas_agree(cluster, &[1, 2, 3]);
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "{name}: the restarted primary must fold back into the group"
    );
    report
}

/// Script 2: the primary turns slow-but-not-dead; only timeouts can evict
/// it. After the fault is unmounted the slow member (which never lied)
/// must drain its backlog and agree bit for bit.
pub fn slow_primary(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, &paper::slow_primary());
    let recovery = report
        .timeline
        .recovery_after(report.trace[0].at)
        .unwrap_or_else(|| panic!("{name}: commits never resumed after the slow-primary mount"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: slow-primary eviction {recovery:?} exceeds the conformance bound"
    );
    let cluster = deployment.group_mut(0);
    cluster.run_for(secs(2));
    cluster.quiesce(secs(2));
    assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
    report
}

/// Script 3: every backup crashes and restarts blank in turn, never more
/// than f = 1 down at once. Each crash window must close, each restarted
/// member must rejoin by state transfer, and the whole group must converge.
pub fn rolling_crash(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, &paper::rolling_crash());
    for mark in report.trace.iter().filter(|m| m.label.starts_with("crash")) {
        let recovery = report
            .timeline
            .recovery_after(mark.at)
            .unwrap_or_else(|| panic!("{name}: no recovery after {}", mark.label));
        assert!(
            recovery <= RECOVERY_BOUND,
            "{name}: recovery after {} took {recovery:?}",
            mark.label
        );
    }
    let cluster = deployment.group_mut(0);
    cluster.quiesce(secs(2));
    for m in 1..4 {
        let rm = cluster.replica_metrics(m);
        assert!(
            rm.state_transfers_completed >= 1,
            "{name}: member {m} restarted blank and must have transferred: {rm:?}"
        );
    }
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "{name}: rolled members must all converge with the primary"
    );
    report
}

/// Script 4: a whole group becomes unreachable mid-2PC and later heals.
/// Stranded transactions must settle through the recovery pass and the
/// ground-truth atomicity audit must come back clean.
pub fn coordinator_outage(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut base = fetching_spec(1, seed);
    base.cfg.engine = engine;
    let mut xc = Deployment::build(deployment_spec(2, 4, base));
    let map = xc.router().map();
    xc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
    let report = run_scenario(&mut xc, &paper::coordinator_outage());
    let heal = report.trace[1].clone();
    let recovery = report
        .timeline
        .recovery_after(heal.at)
        .unwrap_or_else(|| panic!("{name}: throughput never resumed after the heal"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: post-heal recovery {recovery:?} exceeds the conformance bound"
    );
    xc.quiesce(secs(2));
    if xc.tx_metrics().tx_unresolved > 0 {
        xc.resolve_unresolved(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("{name}: recovery pass failed: {e}"));
    }
    xc.audit_atomicity(AUDIT_TIMEOUT)
        .unwrap_or_else(|e| panic!("{name}: atomicity audit failed: {e}"));
    assert!(xc.states_converged(), "{name}: groups must converge");
    report
}

/// Script 5: one member is partitioned away and the partition later heals;
/// the member must catch back up without ever having diverged.
pub fn partition_then_heal(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut base = fetching_spec(3, seed);
    base.cfg.engine = engine;
    let mut sc = Deployment::build(deployment_spec(2, 0, base));
    sc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    let report = run_scenario(&mut sc, &paper::partition_then_heal());
    let recovery = report
        .timeline
        .recovery_after(report.trace[1].at)
        .unwrap_or_else(|| panic!("{name}: no progress after the heal"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: post-heal recovery {recovery:?} exceeds the conformance bound"
    );
    sc.quiesce(secs(2));
    assert!(
        sc.states_converged(),
        "{name}: the rejoined member must match its group"
    );
    report
}

/// Script 6: an *adaptive* equivocating adversary holds seat 0 — it mounts
/// split-brain whenever it observes itself primary and stands down when the
/// slot rotates away — until the scheduled proactive recovery reboots the
/// seat and disarms it. Safety must hold through the whole attack, the
/// group must stay largely available (the honest side of the split keeps a
/// reply quorum), and commits must resume within the bound after the
/// recovery.
pub fn equivocating_primary(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut deployment = adversary_deployment(engine, 4, seed, 0);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let mut adversaries = [Adversary::new(0, 0, EquivocatingPrimary)];
    let report = run_scenario_adaptive(
        &mut deployment,
        &paper::equivocating_primary(),
        &mut adversaries,
        ms(25),
    );
    assert!(
        report
            .trace
            .iter()
            .any(|m| m.label.contains(":mount(SplitBrain)")),
        "{name}: the adversary never got to equivocate: {:?}",
        report.trace
    );
    let proactive = report
        .trace
        .iter()
        .find(|m| m.label.starts_with("proactive"))
        .expect("the script schedules a proactive recovery");
    assert!(
        !adversaries[0].is_armed(),
        "{name}: proactive recovery of the seat must disarm the adversary"
    );
    let recovery = report
        .timeline
        .recovery_after(proactive.at)
        .unwrap_or_else(|| panic!("{name}: commits never resumed after the proactive recovery"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: post-recovery window {recovery:?} exceeds the conformance bound"
    );
    assert!(
        report.timeline.availability() >= 0.6,
        "{name}: equivocation must not collapse availability: {}",
        report.timeline.availability()
    );
    let cluster = deployment.group_mut(0);
    cluster.quiesce(secs(2));
    // The split's starved backup (and the rebooted seat) may have caught up
    // by state transfer; chains are compared among the never-rebooted
    // survivors and the whole group is held to state-digest convergence.
    assert_correct_replicas_agree(cluster, &[1, 2, 3]);
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "{name}: the recovered seat must fold back into the group"
    );
    report
}

/// Script 7: a censoring primary starves exactly client 1 while an
/// unrelated healthy member is proactively recovered mid-attack. The
/// censored lane must go silent (that is the attack working) while the
/// rest of the group keeps completing — the progress-based suspicion
/// heuristic never fires against a censor, so no rotation will save the
/// lane; the recovery must not widen the damage; and once the censor
/// unmounts the lane must resume.
pub fn censorship_under_recovery(engine: Engine, seed: u64) -> ScenarioReport {
    let name = engine.name();
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let report = run_scenario(&mut deployment, &paper::censorship_under_recovery());
    let t = &report.timeline;
    let lane = |b: &crate::scenario::TimelineBucket| b.per_client_completed[0];

    // Right after the mount the censored lane is dark (its in-flight
    // request has drained, its next retransmission hasn't fired) while the
    // group keeps serving everyone else.
    let mount_idx = t.bucket_index(report.trace[0].at);
    let window = &t.buckets[mount_idx + 1..mount_idx + 5];
    let starved: u64 = window.iter().map(lane).sum();
    let group: u64 = window.iter().map(|b| b.completed).sum();
    assert_eq!(
        starved, 0,
        "{name}: the censored lane must be starved right after the mount"
    );
    assert!(
        group > 0,
        "{name}: censorship of one client must not stall the group"
    );

    // The mid-attack proactive recovery doesn't open a group-wide hole.
    let proactive = report
        .trace
        .iter()
        .find(|m| m.label.starts_with("proactive"))
        .expect("the script schedules a proactive recovery");
    let recovery = t
        .recovery_after(proactive.at)
        .unwrap_or_else(|| panic!("{name}: commits never resumed after the proactive recovery"));
    assert!(
        recovery <= RECOVERY_BOUND,
        "{name}: proactive recovery under censorship took {recovery:?}"
    );

    // The starved lane comes back once the unmount frees it (no rotation
    // ever will — the censor's steady progress on other lanes keeps the
    // suspicion heuristic quiet): by the last ten buckets it must be
    // completing again.
    let tail_start = t.buckets.len() - 10;
    let resumed: u64 = t.buckets[tail_start..].iter().map(lane).sum();
    assert!(
        resumed > 0,
        "{name}: the censored lane never resumed after the censor cleared"
    );

    let cluster = deployment.group_mut(0);
    cluster.quiesce(secs(2));
    // A censor never lies in agreement, so every member is held to the full
    // check (the rebooted member's chain is skipped automatically — it
    // transferred).
    assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
    report
}

/// Script 8: a live 2 → 3 shard split fired *inside* a crash window — the
/// elastic-resharding scenario. A backup of the source group is down when
/// the [`Reshard`](crate::scenario::ScenarioEvent::Reshard) event fires,
/// and restarts from disk only after the hand-off; paced keyed KV load is
/// offered throughout. Pins: the crash and the split must both clear
/// within [`RECOVERY_BOUND`], overall availability stays high, and the
/// post-quiescence ground-truth sweep finds every key owned by exactly
/// one group — the group the epoch-1 router names — with the crashed
/// member folded back in.
pub fn split_under_load(engine: Engine, seed: u64) -> ScenarioReport {
    use crate::scenario::{Scenario, ScenarioEvent};

    let name = engine.name();
    const SLOTS: u64 = 64;
    let mut base = fetching_spec(3, seed);
    base.cfg.engine = engine;
    base.cfg.checkpoint_interval = 32;
    base.app = AppKind::Kv { slots: SLOTS };
    let mut sc = Deployment::build(DeploymentSpec {
        shards: 2,
        base,
        elastic: true,
        ..Default::default()
    });
    sc.start_paced_workload(PACE, |s, c| keyed_kv_ops(SLOTS, (s * 10 + c) as u64));
    let script = Scenario {
        name: "split-under-load",
        duration: ms(2000),
        bucket: ms(25),
        events: vec![
            (
                ms(300),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 2,
                },
            ),
            (ms(600), ScenarioEvent::Reshard { source: 0 }),
            (
                ms(1200),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 2,
                    preserve_disk: true,
                },
            ),
        ],
    };
    let report = run_scenario(&mut sc, &script);
    assert_eq!(sc.shards(), 3, "{name}: the split must append a group");
    assert_eq!(sc.router().epoch(), 1, "{name}: the router must cut over");
    for mark in &report.trace[..2] {
        let recovery = report
            .timeline
            .recovery_after(mark.at)
            .unwrap_or_else(|| panic!("{name}: commits never resumed after {}", mark.label));
        assert!(
            recovery <= RECOVERY_BOUND,
            "{name}: recovery after {} took {recovery:?}",
            mark.label
        );
    }
    assert!(
        report.timeline.availability() >= 0.8,
        "{name}: a split must not collapse availability: {}",
        report.timeline.availability()
    );
    sc.quiesce(secs(2));
    // Ground truth: every key has exactly one owning group, and it is the
    // group the post-split router names — nothing lost, nothing
    // double-owned.
    for key in 0..SLOTS {
        let shard_key = key.to_be_bytes().to_vec();
        let mut owners = Vec::new();
        for shard in 0..sc.shards() {
            if sc
                .probe_ownership(shard, vec![shard_key.clone()], KvApp::op_get(key), false)
                .is_ok()
            {
                owners.push(shard);
            }
        }
        assert_eq!(
            owners.len(),
            1,
            "{name}: key {key} owned by {owners:?} after the split"
        );
        assert_eq!(
            owners[0],
            sc.router().route_key(&shard_key),
            "{name}: replica-side owner of key {key} disagrees with the router"
        );
    }
    assert!(
        sc.states_converged(),
        "{name}: every group (including the newborn and the restarted member) must converge"
    );
    report
}
