//! Proactive-recovery properties: random recovery schedules crossed with
//! real crashes and adaptive adversaries must preserve single-group safety
//! and cross-shard atomicity.
//!
//! Proactive recovery ([`ScenarioEvent::ProactiveRecover`]) reboots a
//! *healthy* member through the crash/restart path and redistributes client
//! session keys, so the fault budget refreshes on a rolling schedule. Its
//! danger windows are exactly the ones random timing probes best: a
//! recovery landing while another member is down (transiently `> f`
//! unavailable), a recovery hitting a member that is *already* mid
//! state-transfer, and a recovery decapitating the current primary. An
//! adaptive adversary ([`harness::adversary`]) rides along where the
//! schedule allows, attacking the rotation windows the recoveries open.

use harness::adversary::{Adversary, TargetedCensor, ViewChangeWindowAttacker};
use harness::byzantine::Fault;
use harness::scenario::{run_scenario_adaptive, Scenario, ScenarioEvent};
use harness::testkit::{
    assert_correct_replicas_agree, deployment_spec, fetching_spec, ms, scenario_deployment,
    AUDIT_TIMEOUT, TEST_VC_TIMEOUT_NS,
};
use harness::workload::{cross_null_txs, keyed_null_ops, null_ops};
use harness::Deployment;
use pbft_core::Engine;
use simnet::SimDuration;

/// Sequential episodes inside `[0, window_ms)`: each either a proactive
/// recovery of a healthy member or a real crash with a later restart.
/// Episodes never overlap, so at most one member is rebooting at a time —
/// the rolling-recovery contract the scheduler is supposed to keep.
/// Member 3 is left alone: it is the adaptive adversary's seat.
fn random_recovery_schedule(
    g: &mut propcheck::Gen,
    window_ms: u64,
) -> Vec<(SimDuration, ScenarioEvent)> {
    let shard = 0;
    let mut events = Vec::new();
    let mut t = 250 + g.u64_in(0..300);
    while t + 500 < window_ms {
        let member = g.usize_in(0..3);
        if g.bool() {
            events.push((ms(t), ScenarioEvent::ProactiveRecover { shard, member }));
        } else {
            let hold = 150 + g.u64_in(0..300);
            events.push((ms(t), ScenarioEvent::CrashMember { shard, member }));
            events.push((
                ms(t + hold),
                ScenarioEvent::RestartMember {
                    shard,
                    member,
                    preserve_disk: g.bool(),
                },
            ));
            t += hold;
        }
        t += 350 + g.u64_in(0..400);
    }
    events
}

/// Single group, random recovery/crash schedule, with a view-change-window
/// attacker camped on member 3: every rotation a reboot opens gets a storm
/// mounted into it. Safety and convergence of the untouched members must
/// survive any draw. (The stormer itself is excluded from the final
/// agreement set: `force_suspect` keeps it voting for phantom view changes,
/// which stalls *its own* execution — the same qualification the static
/// byzantine suite applies.)
fn random_recovery_single_group(engine: Engine) {
    propcheck::check_budgeted(
        match engine {
            Engine::Pbft => "recovery_random_single_pbft",
            Engine::Linear => "recovery_random_single_linear",
        },
        3,
        10,
        |g| {
            let seed = g.u64_in(1..1_000);
            let events = random_recovery_schedule(g, 2_400);
            let n_events = events.len();
            let mut deployment = scenario_deployment(engine, 3, seed);
            deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
            let scenario = Scenario {
                name: "recovery-random-single",
                duration: ms(3_000),
                bucket: ms(50),
                events,
            };
            let mut adversaries = [Adversary::new(
                0,
                3,
                ViewChangeWindowAttacker {
                    fault: Fault::ViewChangeStorm {
                        period_ns: 50_000_000,
                    },
                },
            )];
            let report =
                run_scenario_adaptive(&mut deployment, &scenario, &mut adversaries, ms(10));
            let cluster = deployment.group_mut(0);
            let fired = report
                .trace
                .iter()
                .filter(|m| !m.label.starts_with("adv"))
                .count();
            assert_eq!(fired, n_events, "every scheduled event fired (seed={seed})");
            // The attacker may have latched a storm into the last rotation;
            // clear it so the settle phase is honest-only.
            if cluster.mounted_fault(3).is_some() {
                cluster.unmount_fault(3);
            }
            cluster.run_for(SimDuration::from_secs(2));
            cluster.quiesce(SimDuration::from_secs(2));
            assert_correct_replicas_agree(cluster, &[0, 1, 2]);
            assert!(
                cluster.completed() > 0,
                "rolling recovery must not sterilize the workload (seed={seed})"
            );
        },
    );
}

#[test]
fn random_recovery_schedules_preserve_single_group_safety_pbft() {
    random_recovery_single_group(Engine::Pbft);
}

#[test]
fn random_recovery_schedules_preserve_single_group_safety_linear() {
    random_recovery_single_group(Engine::Linear);
}

/// Proactively recovering a member that is *already mid state-transfer*:
/// crash, blank restart (durable region wiped, so the member must transfer
/// in from a checkpoint), then a proactive reboot lands a random few
/// milliseconds later — before the transfer has settled. The doubly
/// rebooted member must still fold back in, and nobody else may notice.
fn recover_mid_transfer(engine: Engine, name: &'static str) {
    propcheck::check_budgeted(name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let member = 1 + g.usize_in(0..3); // a backup: the transfer path, not the rotation path
        let gap = 5 + g.u64_in(0..120); // proactive reboot lands mid-transfer
        let mut deployment = scenario_deployment(engine, 3, seed);
        deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
        let scenario = Scenario {
            name: "recover-mid-transfer",
            duration: ms(2_200),
            bucket: ms(50),
            events: vec![
                (ms(300), ScenarioEvent::CrashMember { shard: 0, member }),
                (
                    ms(900),
                    ScenarioEvent::RestartMember {
                        shard: 0,
                        member,
                        preserve_disk: false,
                    },
                ),
                (
                    ms(900 + gap),
                    ScenarioEvent::ProactiveRecover { shard: 0, member },
                ),
            ],
        };
        let report = run_scenario_adaptive(&mut deployment, &scenario, &mut [], ms(50));
        let cluster = deployment.group_mut(0);
        assert_eq!(report.trace.len(), 3, "seed={seed} member={member}");
        cluster.run_for(SimDuration::from_secs(2));
        cluster.quiesce(SimDuration::from_secs(2));
        assert!(
            cluster.replica_metrics(member).state_transfers_completed >= 1,
            "a blank-disk member can only return via state transfer (seed={seed})"
        );
        assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
        assert!(cluster.completed() > 0, "seed={seed}");
    });
}

#[test]
fn recovering_mid_state_transfer_is_safe_pbft() {
    recover_mid_transfer(Engine::Pbft, "recovery_mid_transfer_pbft");
}

#[test]
fn recovering_mid_state_transfer_is_safe_linear() {
    recover_mid_transfer(Engine::Linear, "recovery_mid_transfer_linear");
}

/// Proactively recovering whoever is the *current* primary at a random
/// instant: the group loses its sequencer mid-stream, fails over, and the
/// rebooted ex-primary transfers back in as a backup. Progress must resume
/// and all four members must converge.
fn recover_current_primary(engine: Engine, name: &'static str) {
    propcheck::check_budgeted(name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let warmup = 400 + g.u64_in(0..400);
        let mut deployment = scenario_deployment(engine, 3, seed);
        deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
        let cluster = deployment.group_mut(0);
        cluster.run_for(ms(warmup));
        let view = cluster.replica(1).expect("alive").view();
        let primary = (view % 4) as usize;
        let before = cluster.completed();
        cluster.proactive_recover(primary);
        cluster.run_for(SimDuration::from_secs(2));
        cluster.quiesce(SimDuration::from_secs(2));
        assert!(
            cluster.completed() > before,
            "progress after decapitating view {view} (seed={seed})"
        );
        assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
    });
}

#[test]
fn recovering_the_current_primary_is_safe_pbft() {
    recover_current_primary(Engine::Pbft, "recovery_primary_pbft");
}

#[test]
fn recovering_the_current_primary_is_safe_linear() {
    recover_current_primary(Engine::Linear, "recovery_primary_linear");
}

/// Cross-shard atomicity under rolling recovery with an adaptive censor in
/// the loop: random proactive recoveries and crash/restart episodes roll
/// across both participant groups while a targeted censor camps on shard
/// 0's seat 0, starving shard 0's client whenever that seat holds the
/// primacy. Whatever resolves must resolve atomically.
#[test]
fn xshard_atomicity_survives_rolling_recovery_with_adaptive_censor() {
    propcheck::check_budgeted("xshard_rolling_recovery", 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut base = fetching_spec(1, seed);
        base.cfg.view_change_timeout_ns = TEST_VC_TIMEOUT_NS;
        base.cfg.checkpoint_interval = 32;
        let mut xc = Deployment::build(deployment_spec(2, 2, base));
        let map = xc.router().map();
        xc.start_paced_workload(ms(5), |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
        // Sequential episodes across both shards: reboots never overlap.
        let mut events = Vec::new();
        let mut t = 300 + g.u64_in(0..200);
        while t + 450 < 2_400 {
            let shard = g.choice(2);
            let member = g.usize_in(0..4);
            if g.bool() {
                events.push((ms(t), ScenarioEvent::ProactiveRecover { shard, member }));
            } else {
                let hold = 150 + g.u64_in(0..250);
                events.push((ms(t), ScenarioEvent::CrashMember { shard, member }));
                events.push((
                    ms(t + hold),
                    ScenarioEvent::RestartMember {
                        shard,
                        member,
                        preserve_disk: true,
                    },
                ));
                t += hold;
            }
            t += 400 + g.u64_in(0..300);
        }
        let n_events = events.len();
        let scenario = Scenario {
            name: "xshard-rolling-recovery",
            duration: ms(2_400),
            bucket: ms(50),
            events,
        };
        let mut adversaries = [Adversary::new(0, 0, TargetedCensor { client_bits: 0b1 })];
        let report = run_scenario_adaptive(&mut xc, &scenario, &mut adversaries, ms(10));
        let fired = report
            .trace
            .iter()
            .filter(|m| !m.label.starts_with("adv"))
            .count();
        assert_eq!(fired, n_events, "seed={seed}");
        // The schedule may have rebooted the censor's seat out from under
        // it (disarming it mid-run) — either way the settle phase must be
        // honest: clear any fault still mounted on the seat.
        if xc.group(0).mounted_fault(0).is_some() {
            xc.group_mut(0).unmount_fault(0);
        }
        xc.quiesce(SimDuration::from_secs(2));
        if xc.tx_metrics().tx_unresolved > 0 {
            xc.resolve_unresolved(AUDIT_TIMEOUT).expect("settles");
        }
        let m = xc.tx_metrics();
        assert!(
            m.tx_committed + m.tx_aborted > 0,
            "some transactions must resolve under rolling recovery (seed={seed}): {m:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        assert!(xc.states_converged(), "seed={seed}");
    });
}

/// Deterministic companion to the random props: the view-change-window
/// attacker *observably fires*. Crashing two members of a four-group means
/// rotation can start (the two survivors' suspicion timers fire) but can
/// never complete (2 < 2f + 1 = 3 votes), so `in_view_change` stays up and
/// the attacker must mount its payload into the window. Restarting the
/// crashed members completes the rotation, the window closes, and the
/// attacker must unmount. The payload is a slowdown, not a storm: a slow
/// member still participates, so the rotation genuinely completes and the
/// unmount edge is reachable.
#[test]
fn vc_window_attacker_fires_during_a_stalled_rotation() {
    let mut deployment = scenario_deployment(Engine::Pbft, 2, 93);
    deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
    let scenario = Scenario {
        name: "stalled-rotation-window",
        duration: ms(2_400),
        bucket: ms(25),
        events: vec![
            (
                ms(300),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 0,
                },
            ),
            (
                ms(320),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 1,
                },
            ),
            (
                ms(1_200),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 0,
                    preserve_disk: true,
                },
            ),
            (
                ms(1_220),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 1,
                    preserve_disk: true,
                },
            ),
        ],
    };
    let mut adversaries = [Adversary::new(
        0,
        3,
        ViewChangeWindowAttacker {
            fault: Fault::SlowPrimary {
                delay_ns: 2_000_000,
            },
        },
    )];
    let report = run_scenario_adaptive(&mut deployment, &scenario, &mut adversaries, ms(10));
    let cluster = deployment.group_mut(0);
    let mount = report
        .trace
        .iter()
        .position(|m| m.label.contains(":mount(SlowPrimary"))
        .expect("the stalled rotation must trip the window attacker");
    let unmount = report
        .trace
        .iter()
        .rposition(|m| m.label.ends_with(":unmount"))
        .expect("the completed rotation must stand the attacker down");
    assert!(
        unmount > mount,
        "attack window closes after it opens: {:?}",
        report.trace
    );
    let first_restart = report
        .trace
        .iter()
        .position(|m| m.label.starts_with("restart("))
        .expect("restart events fired");
    assert!(
        mount < first_restart,
        "the mount happened inside the stall, not after the repair: {:?}",
        report.trace
    );
    cluster.run_for(SimDuration::from_secs(2));
    cluster.quiesce(SimDuration::from_secs(2));
    assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
    assert!(cluster.completed() > 0);
}
