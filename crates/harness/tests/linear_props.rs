//! Randomized fault schedules against the **linear-communication engine**:
//! the `scenario_props` suite's single-group property, instantiated for
//! [`Engine::Linear`] through the same harness.
//!
//! The linear engine funnels votes through the leader, so its failure
//! surface differs from PBFT's in exactly the ways random timing probes
//! best: a crashed or isolated leader strands leader-only vote state, QC
//! retransmission has to cover restarted members, and rotation (not
//! all-to-all view change) has to converge under churn. Whatever the
//! schedule draws — crash/restart (≤ f at a time), slowness, view-change
//! storms, partitions, lossy links — the correct replicas may never
//! execute divergent histories and must converge after the final repair.

use harness::byzantine::Fault;
use harness::scenario::{run_scenario, Scenario, ScenarioEvent};
use harness::testkit::{assert_correct_replicas_agree, ms, scenario_deployment};
use harness::workload::null_ops;
use pbft_core::Engine;
use simnet::SimDuration;

/// Draw a fault schedule for one 4-member group inside `[0, window_ms)`:
/// sequential episodes of `(onset, fault, hold, repair)` — the same model
/// as `scenario_props::random_schedule`, so the two suites disagree only
/// in the engine under test.
fn random_schedule(g: &mut propcheck::Gen, window_ms: u64) -> Vec<(SimDuration, ScenarioEvent)> {
    let shard = 0;
    let mut events = Vec::new();
    let mut t = 200 + g.u64_in(0..400);
    loop {
        let hold = 150 + g.u64_in(0..500);
        if t + hold + 200 >= window_ms {
            break; // the repair would fall outside the window
        }
        let member = g.usize_in(0..4);
        let (fault_at, repair_at) = (ms(t), ms(t + hold));
        match g.choice(5) {
            0 => {
                events.push((fault_at, ScenarioEvent::CrashMember { shard, member }));
                events.push((
                    repair_at,
                    ScenarioEvent::RestartMember {
                        shard,
                        member,
                        preserve_disk: g.bool(),
                    },
                ));
            }
            1 => {
                events.push((
                    fault_at,
                    ScenarioEvent::MountFault {
                        shard,
                        member,
                        fault: Fault::SlowPrimary {
                            delay_ns: (20 + g.u64_in(0..200)) * 1_000_000,
                        },
                    },
                ));
                events.push((repair_at, ScenarioEvent::UnmountFault { shard, member }));
            }
            2 => {
                events.push((
                    fault_at,
                    ScenarioEvent::MountFault {
                        shard,
                        member,
                        fault: Fault::ViewChangeStorm {
                            period_ns: (50 + g.u64_in(0..150)) * 1_000_000,
                        },
                    },
                ));
                events.push((repair_at, ScenarioEvent::UnmountFault { shard, member }));
            }
            3 => {
                events.push((fault_at, ScenarioEvent::IsolateMember { shard, member }));
                events.push((repair_at, ScenarioEvent::HealGroup { shard }));
            }
            _ => {
                events.push((
                    fault_at,
                    ScenarioEvent::DegradeLinks {
                        shard,
                        loss: g.u64_in(0..80) as f64 / 1000.0,
                        extra_latency: SimDuration::from_micros(g.u64_in(0..2000)),
                    },
                ));
                events.push((repair_at, ScenarioEvent::HealGroup { shard }));
            }
        }
        t += hold + 150 + g.u64_in(0..500);
    }
    events
}

/// Single linear-engine group under a random schedule: safety and
/// convergence whatever the timing.
#[test]
fn random_schedules_preserve_linear_single_group_safety() {
    // Budgeted shrink: each property run simulates seconds of cluster
    // time, so the default 2000-candidate shrink would take hours.
    propcheck::check_budgeted("linear_random_single_group", 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let events = random_schedule(g, 2_400);
        let n_events = events.len();
        let mut deployment = scenario_deployment(Engine::Linear, 3, seed);
        deployment
            .group_mut(0)
            .start_paced_workload(ms(5), |_| null_ops(64));
        let scenario = Scenario {
            name: "linear-random-single",
            duration: ms(3_000),
            bucket: ms(50),
            events,
        };
        let report = run_scenario(&mut deployment, &scenario);
        let cluster = deployment.group_mut(0);
        assert_eq!(
            report.trace.len(),
            n_events,
            "every scheduled event fired (seed={seed})"
        );
        // Post-run settle: restarted members finish their transfers, the
        // workload drains.
        cluster.run_for(SimDuration::from_secs(2));
        cluster.quiesce(SimDuration::from_secs(2));
        assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
    });
}

/// QC forgery is rejected, not absorbed. Under the linear engine the
/// leader's aggregated `PrepareQC`/`CommitQC` broadcasts (wire tags 15/16)
/// *are* the agreement traffic — there are no all-to-all prepares or
/// commits to corrupt — so [`Fault::TamperAgreement`] must reach them.
/// A tampering view-0 leader therefore feeds every backup forged QCs:
/// authentication rejects each one (observable as `auth_failures`), view 0
/// makes no progress, rotation installs leader 1, and the group commits
/// again with the liar reduced to a backup whose corrupted votes cost only
/// its own voice.
#[test]
fn tampered_linear_leader_qcs_are_rejected_and_rotation_recovers() {
    let mut deployment = scenario_deployment(Engine::Linear, 3, 91);
    let cluster = deployment.group_mut(0);
    cluster.mount_fault(0, Fault::TamperAgreement);
    cluster.start_paced_workload(ms(5), |_| null_ops(64));
    cluster.run_for(SimDuration::from_secs(3));
    // Every backup saw forged QCs and rejected them at the auth layer.
    for r in 1..4 {
        assert!(
            cluster.replica_metrics(r).auth_failures > 0,
            "backup {r} absorbed a forged QC instead of rejecting it: {:?}",
            cluster.replica_metrics(r)
        );
    }
    // Liveness: the tampering leader was rotated out and commits resumed.
    for r in 1..4 {
        assert!(
            cluster.replica(r).expect("alive").view() >= 1,
            "backup {r} still trusts the tampering leader's view"
        );
    }
    assert!(
        cluster.completed() > 50,
        "progress after rotation, got {}",
        cluster.completed()
    );
    cluster.quiesce(SimDuration::from_secs(2));
    assert_correct_replicas_agree(cluster, &[1, 2, 3]);
}

/// Partition churn aimed at the rotation path: random members (leaders
/// included) get isolated and healed back-to-back. The leader-directed
/// vote flow must survive losing its aggregation point repeatedly, and
/// every heal must let the isolated member fold back in via QC
/// retransmission or state transfer.
#[test]
fn partition_churn_converges_under_rotation() {
    propcheck::check_budgeted("linear_partition_churn", 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut events = Vec::new();
        let mut t = 200 + g.u64_in(0..300);
        while t + 500 < 2_400 {
            let member = g.usize_in(0..4);
            let hold = 200 + g.u64_in(0..400);
            events.push((ms(t), ScenarioEvent::IsolateMember { shard: 0, member }));
            events.push((ms(t + hold), ScenarioEvent::HealGroup { shard: 0 }));
            t += hold + 150 + g.u64_in(0..400);
        }
        let n_events = events.len();
        let mut deployment = scenario_deployment(Engine::Linear, 3, seed);
        deployment
            .group_mut(0)
            .start_paced_workload(ms(5), |_| null_ops(64));
        let scenario = Scenario {
            name: "linear-partition-churn",
            duration: ms(3_000),
            bucket: ms(50),
            events,
        };
        let report = run_scenario(&mut deployment, &scenario);
        let cluster = deployment.group_mut(0);
        assert_eq!(report.trace.len(), n_events, "seed={seed}");
        cluster.run_for(SimDuration::from_secs(2));
        cluster.quiesce(SimDuration::from_secs(2));
        assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
        // Convergence alone could be satisfied by a wedged group that never
        // commits; demand the schedule left a live system behind.
        assert!(
            cluster.completed() > 0,
            "partition churn must not sterilize the workload (seed={seed})"
        );
    });
}
