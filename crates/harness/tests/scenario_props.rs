//! Randomized fault schedules over the scenario engine: seeded event
//! streams with *arbitrary timing*, asserting the safety invariants that
//! must hold whatever the schedule — converged states, no divergent
//! execution at any sequence number, and (for cross-shard runs) the
//! ground-truth atomicity audit.
//!
//! The generator keeps the schedules inside the fault model the protocol
//! promises to survive: per group, fault episodes are sequential (at most
//! one member degraded at a time — `f = 1`) and every episode carries its
//! own repair, so the post-run convergence check is meaningful. Within
//! those constraints, members, fault kinds, onsets and hold times are all
//! drawn at random. The mountable faults drawn here keep the victim
//! *correct* (slow, isolated, crashed, vote-spamming — never lying), which
//! is what entitles the suite to demand full-group convergence afterwards.

use harness::byzantine::Fault;
use harness::scenario::{run_scenario, Scenario, ScenarioEvent};
use harness::testkit::{
    assert_correct_replicas_agree, deployment_spec, fetching_spec, ms, scenario_deployment,
};
use harness::workload::{cross_null_txs, keyed_null_ops, null_ops};
use harness::Deployment;
use pbft_core::Engine;
use simnet::SimDuration;

/// Draw a fault schedule for `shards` groups of `members` replicas inside
/// `[0, window_ms)`: per group, sequential episodes of
/// `(onset, fault, hold, repair)`.
fn random_schedule(
    g: &mut propcheck::Gen,
    shards: usize,
    members: usize,
    window_ms: u64,
) -> Vec<(SimDuration, ScenarioEvent)> {
    let mut events = Vec::new();
    for shard in 0..shards {
        // Each group gets its own episode clock, so multi-group schedules
        // overlap faults *across* groups (each group still sees ≤ f = 1).
        let mut t = 200 + g.u64_in(0..400);
        loop {
            let hold = 150 + g.u64_in(0..500);
            if t + hold + 200 >= window_ms {
                break; // the repair would fall outside the window
            }
            let member = g.usize_in(0..members);
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
    }
    events
}

/// Single group under a random schedule: whatever the timing, the correct
/// replicas may never execute divergent histories and must converge after
/// the final repair.
#[test]
fn random_schedules_preserve_single_group_safety() {
    // Budgeted shrink: each property run simulates seconds of cluster
    // time, so the default 2000-candidate shrink would take hours.
    propcheck::check_budgeted("scenario_random_single_group", 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let events = random_schedule(g, 1, 4, 2_400);
        let n_events = events.len();
        let mut deployment = scenario_deployment(Engine::Pbft, 3, seed);
        deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
        let scenario = Scenario {
            name: "random-single",
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

/// Cross-shard deployment under a random schedule (faults overlapping
/// across groups): every settled transaction must audit all-or-nothing and
/// every group must converge — including the replicated 2PC tables.
#[test]
fn random_schedules_preserve_cross_shard_atomicity() {
    propcheck::check_budgeted("scenario_random_xshard", 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut events = random_schedule(g, 2, 4, 2_000);
        // Half the runs also pause a whole group mid-window — the
        // coordinator-outage shape, on top of the member-level noise.
        if g.bool() {
            let shard = g.choice(2);
            let at = 400 + g.u64_in(0..800);
            events.push((ms(at), ScenarioEvent::PauseGroup { shard }));
            events.push((
                ms(at + 300 + g.u64_in(0..400)),
                ScenarioEvent::HealGroup { shard },
            ));
        }
        let mut spec = deployment_spec(2, 3, fetching_spec(1, seed));
        spec.base.cfg.checkpoint_interval = 32;
        spec.prepare_timeout = ms(80);
        spec.finish_timeout = ms(120);
        // Fault-ready groups: the schedule draws runtime fault mounts.
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        xc.start_paced_workload(ms(5), |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 16, i as u64));
        let scenario = Scenario {
            name: "random-xshard",
            duration: ms(2_600),
            bucket: ms(50),
            events,
        };
        run_scenario(&mut xc, &scenario);
        // Post-run settle before the audit: restarted members finish their
        // transfers and the last transactions drain.
        xc.run_for(SimDuration::from_secs(2));
        xc.quiesce(SimDuration::from_secs(2));
        let m = xc.tx_metrics();
        assert!(
            m.tx_committed + m.local_txs + m.tx_aborted > 0,
            "the schedule must not sterilize the workload (seed={seed}): {m:?}"
        );
        // Patient query timeout: after a storm/churn schedule the first
        // query can need a fresh view change (suspicion timeout + round)
        // before it orders — 500 ms is the healthy-cluster budget, not a
        // post-chaos one.
        let patient = ms(2_000);
        if m.tx_unresolved > 0 {
            xc.resolve_unresolved(patient)
                .unwrap_or_else(|e| panic!("seed={seed}: recovery failed: {e}"));
        }
        xc.audit_atomicity(patient)
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        assert!(
            xc.states_converged(),
            "groups must converge after the schedule (seed={seed})"
        );
    });
}
