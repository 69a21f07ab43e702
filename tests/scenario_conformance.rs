//! Paper-fault conformance suite: the headline fault scenarios (plus the
//! elastic-resharding split), run through the deterministic scenario
//! engine (`harness::scenario`) with pinned availability bounds and
//! recovery windows.
//!
//! The source paper's argument is that PBFT's practicality is decided
//! *during* faults — primary failure under load, slow-but-not-dead
//! primaries, repeated view changes — not in steady state. Each test here
//! scripts one of those windows on the virtual clock, records the
//! client-visible timeline, and asserts three things:
//!
//! 1. **safety** — correct replicas never diverge (exec chains + state
//!    digests; atomicity audit for the cross-shard scenario),
//! 2. **liveness** — a finite, bounded time-to-recover after the fault,
//! 3. **availability** — a pinned lower bound on the fraction of live
//!    timeline buckets, so a regression that widens an outage fails loudly.
//!
//! Determinism (same seed ⇒ identical event trace and timeline) is asserted
//! for every scenario in `all_scenarios_are_deterministic` (the
//! per-`Fault` matrix lives in `crates/harness/tests/fault_determinism.rs`).
//! The `smoke_*` tests are the short per-shape passes `scripts/verify.sh`
//! runs as its scenario gate — one group, several groups, groups with the
//! cross-shard driver, and the elastic splits of each — including one
//! adaptive-adversary pass per shape (`smoke_adaptive_*`).

use harness::adversary::{
    Adversary, EquivocatingPrimary, TargetedCensor, ViewChangeWindowAttacker,
};
use harness::byzantine::Fault;
use harness::scenario::{paper, run_scenario, run_scenario_adaptive, Scenario, ScenarioEvent};
use harness::testkit::{
    adversary_deployment, assert_correct_replicas_agree, deployment_spec, failover_spec,
    fetching_spec, ms, scenario_deployment, AUDIT_TIMEOUT,
};
use harness::workload::{cross_null_txs, keyed_kv_ops, keyed_null_ops, null_ops};
use harness::{AppKind, Deployment, DeploymentSpec, ScenarioReport};
use pbft_core::Engine;
use simnet::SimDuration;

/// Offered load for single-group scenarios: one op per client per 4 ms —
/// open loop, so the offered rate stays fixed while the cluster degrades.
const PACE: SimDuration = ms(4);

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// An elastic two-group KV deployment — the splittable shape the reshard
/// scenarios run against.
fn elastic_kv_sharded(seed: u64) -> Deployment {
    let mut base = fetching_spec(3, seed);
    base.cfg.checkpoint_interval = 32;
    base.app = AppKind::Kv { slots: 64 };
    Deployment::build(DeploymentSpec {
        shards: 2,
        base,
        elastic: true,
        ..Default::default()
    })
}

/// A one-group scenario deployment under the paced null workload.
fn paced_single(num_clients: usize, seed: u64) -> Deployment {
    let mut deployment = scenario_deployment(Engine::Pbft, num_clients, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    deployment
}

/// Two groups built from `base` plus `initiators` transaction agents,
/// running paced keyed background load and cross-shard transactions.
fn paced_xshard(base: harness::ClusterSpec, initiators: usize) -> Deployment {
    let mut xc = Deployment::build(deployment_spec(2, initiators, base));
    let map = xc.router().map();
    xc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
    xc
}

/// Two static groups under paced keyed background load.
fn paced_sharded(num_clients: usize, seed: u64) -> Deployment {
    let mut sc = Deployment::build(deployment_spec(2, 0, fetching_spec(num_clients, seed)));
    sc.start_paced_workload(PACE, |s, c| keyed_null_ops(64, (s * 10 + c) as u64));
    sc
}

// ---------------------------------------------------------------------
// The scripted conformance scenarios
// ---------------------------------------------------------------------

#[test]
fn primary_crash_under_load() {
    let mut deployment = paced_single(4, 21);
    let report = run_scenario(&mut deployment, &paper::primary_crash_under_load());
    let cluster = deployment.group_mut(0);
    assert_eq!(report.trace[0].label, "crash(0/0)");

    // Liveness: the survivors elected a new primary and the availability
    // hole is bounded by the suspicion timeout + one new-view round.
    for r in 1..4 {
        assert!(
            cluster.replica(r).expect("alive").view() >= 1,
            "replica {r} never left the crashed primary's view"
        );
    }
    let recovery = report
        .timeline
        .recovery_after(report.trace[0].at)
        .expect("commits must resume after the view change");
    assert!(
        recovery <= ms(1000),
        "view-change recovery regressed: {recovery:?}"
    );
    assert!(
        report.timeline.availability() >= 0.70,
        "availability bound: {:.3}",
        report.timeline.availability()
    );

    // Safety: exec chains among the never-restarted survivors (the
    // restarted ex-primary fast-forwards by state transfer, so its chain
    // restarts — state digests, not chains, are its safety check) ...
    cluster.quiesce(secs(2));
    assert_correct_replicas_agree(cluster, &[1, 2, 3]);
    // ... and full state convergence including the rejoined ex-primary.
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "the restarted primary must fold back into the group"
    );
}

#[test]
fn slow_primary_is_evicted_by_timeout() {
    let mut deployment = paced_single(4, 22);
    let report = run_scenario(&mut deployment, &paper::slow_primary());
    let cluster = deployment.group_mut(0);
    let mount = &report.trace[0];

    // The slow primary drops nothing — only the backups' timeouts can have
    // evicted it.
    for r in 1..4 {
        assert!(
            cluster.replica(r).expect("alive").view() >= 1,
            "replica {r}: a slow-but-alive primary must still be voted out"
        );
    }
    let recovery = report
        .timeline
        .recovery_after(mount.at)
        .expect("commits must resume once the view change lands");
    assert!(
        recovery <= ms(1200),
        "slow-primary eviction regressed: {recovery:?}"
    );
    assert!(
        report.timeline.availability() >= 0.60,
        "availability bound: {:.3}",
        report.timeline.availability()
    );

    // No safety violation anywhere: the slow replica is *correct* (it never
    // lied), so after the fault is unmounted and it drains its backlog it
    // must agree with the group bit for bit.
    cluster.run_for(secs(2));
    cluster.quiesce(secs(2));
    assert_correct_replicas_agree(cluster, &[0, 1, 2, 3]);
}

/// A primary that censors one client while serving the others is never
/// suspected: a backup's suspicion timer fires only when *nothing* executes,
/// so the censored request sits in every backup's `observed` for as long as
/// the others' requests keep executing (ARCHITECTURE.md, "Deliberate
/// deviations"). This pins the deviation; a timer per observed request
/// would evict the primary within two timeouts and flip it.
fn censoring_primary_is_never_suspected(engine: Engine, seed: u64) {
    let mut deployment = scenario_deployment(engine, 4, seed);
    deployment.start_paced_workload(PACE, |_, _| null_ops(1024));
    let cluster = deployment.group_mut(0);
    let timeout_ns = cluster.spec().cfg.view_change_timeout_ns;
    let timeout = SimDuration::from_nanos(timeout_ns);
    cluster.run_for(ms(300));
    // `client_bits` 0b1 censors `ClientId(1)`.
    cluster.mount_fault(0, Fault::Censor { client_bits: 0b1 });
    let censored = |r: &pbft_core::Replica| -> Vec<u64> {
        r.observed_requests()
            .filter(|req| req.client == pbft_core::ClientId(1))
            .map(|req| req.timestamp)
            .collect()
    };
    // The client retransmits to every replica once its first send to the
    // primary goes unanswered; from then on every backup holds it.
    cluster.run_for(SimDuration::from_nanos(2 * timeout_ns));
    let held: Vec<Vec<u64>> = (1..4)
        .map(|r| censored(cluster.replica(r).expect("alive")))
        .collect();
    for (r, ts) in (1..).zip(&held) {
        assert!(
            !ts.is_empty(),
            "backup {r} never observed the censored request"
        );
    }
    let mut executed: Vec<u64> = (1..4)
        .map(|r| cluster.replica(r).expect("alive").last_executed())
        .collect();
    for step in 1..=11 {
        cluster.run_for(timeout);
        for (i, r) in (1..4).enumerate() {
            let replica = cluster.replica(r).expect("alive");
            let now = censored(replica);
            assert!(
                held[i].iter().all(|ts| now.contains(ts)),
                "backup {r}, {step} timeouts on: the censored request left `observed` ({:?} -> {now:?})",
                held[i]
            );
            assert!(
                replica.last_executed() > executed[i],
                "backup {r}: nothing executed in timeout {step}"
            );
            executed[i] = replica.last_executed();
            assert_eq!(replica.view(), 0, "backup {r} changed view");
            assert_eq!(
                replica.metrics().view_changes_started,
                0,
                "backup {r} suspected"
            );
        }
    }
}

#[test]
fn censoring_primary_is_never_suspected_pbft() {
    censoring_primary_is_never_suspected(Engine::Pbft, 24);
}

#[test]
fn censoring_primary_is_never_suspected_linear() {
    censoring_primary_is_never_suspected(Engine::Linear, 24);
}

#[test]
fn rolling_crash_of_f_replicas() {
    let mut deployment = paced_single(4, 23);
    let report = run_scenario(&mut deployment, &paper::rolling_crash());
    let cluster = deployment.group_mut(0);
    assert_eq!(report.trace.len(), 6, "three crash/restart pairs fired");

    // Never more than f = 1 down at once: the primary keeps its quorum the
    // whole time, so the availability bar is much higher than for a
    // primary failure.
    assert!(
        report.timeline.availability() >= 0.90,
        "rolling backup crashes must not stall the group: {:.3}",
        report.timeline.availability()
    );
    // Every crash window recovers (finite time-to-recover after each).
    for mark in report.trace.iter().filter(|m| m.label.starts_with("crash")) {
        assert!(
            report.timeline.recovery_after(mark.at).is_some(),
            "no recovery after {}",
            mark.label
        );
    }
    // Each blank-restarted member rejoined via checkpoint state transfer.
    cluster.quiesce(secs(2));
    for m in 1..4 {
        let rm = cluster.replica_metrics(m);
        assert!(
            rm.state_transfers_completed >= 1,
            "member {m} restarted blank and must have transferred: {rm:?}"
        );
    }
    // All three backups restarted (chains reset by transfer), so state
    // convergence across the whole group is the safety verdict here.
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "rolled members must all converge with the primary"
    );
}

#[test]
fn coordinator_outage_mid_2pc() {
    let mut xc = paced_xshard(fetching_spec(1, 24), 4);
    let report = run_scenario(&mut xc, &paper::coordinator_outage());
    let heal = report.trace[1].clone();
    assert_eq!(report.trace[0].label, "pause(0)");

    // The paused group strands or aborts the transactions it coordinates:
    // prepares against it time out, decides against it abandon Unresolved.
    let m = xc.tx_metrics();
    assert!(
        m.aborts_timeout + m.tx_unresolved > 0,
        "the outage window must strand or abort transactions: {m:?}"
    );
    // The other group's clients kept completing through the outage.
    let pause_bucket = report.timeline.bucket_index(report.trace[0].at + ms(200));
    assert!(
        report.timeline.buckets[pause_bucket].completed > 0,
        "shard 1 must stay available while shard 0 is paused"
    );
    assert!(
        report
            .timeline
            .recovery_after(heal.at)
            .expect("throughput must resume after the heal")
            <= ms(500),
        "post-heal recovery regressed"
    );

    // Settle the stranded transactions and audit ground-truth atomicity.
    xc.quiesce(secs(2));
    if xc.tx_metrics().tx_unresolved > 0 {
        xc.resolve_unresolved(AUDIT_TIMEOUT)
            .expect("recovery pass settles the stranded transactions");
    }
    xc.audit_atomicity(AUDIT_TIMEOUT).expect("atomic");
    assert!(xc.states_converged());
}

#[test]
fn partition_then_heal() {
    let mut sc = paced_sharded(3, 25);
    let report = run_scenario(&mut sc, &paper::partition_then_heal());

    // Losing one backup to a partition costs nothing in a 4-replica group,
    // and the partitioned member (still running, never lied) must fold
    // back in after the heal without divergence.
    assert!(
        report.timeline.availability() >= 0.90,
        "a single partitioned backup must not dent availability: {:.3}",
        report.timeline.availability()
    );
    assert!(
        report.timeline.recovery_after(report.trace[1].at).is_some(),
        "progress after the heal"
    );
    sc.quiesce(secs(2));
    assert!(
        sc.states_converged(),
        "the rejoined member must match its group"
    );
}

// ---------------------------------------------------------------------
// Determinism: the acceptance criterion for the whole engine
// ---------------------------------------------------------------------

/// Same seed ⇒ identical event trace and identical timeline, bucket for
/// bucket, for every conformance scenario — adaptive adversary ticks and
/// the live shard split included.
#[test]
fn all_scenarios_are_deterministic() {
    fn single(scenario: &Scenario, seed: u64) -> ScenarioReport {
        run_scenario(&mut paced_single(4, seed), scenario)
    }
    fn xshard(scenario: &Scenario, seed: u64) -> ScenarioReport {
        run_scenario(&mut paced_xshard(fetching_spec(1, seed), 4), scenario)
    }
    fn sharded(scenario: &Scenario, seed: u64) -> ScenarioReport {
        run_scenario(&mut paced_sharded(3, seed), scenario)
    }

    type Runner = Box<dyn Fn() -> ScenarioReport>;
    let runs: Vec<(&str, Runner)> = vec![
        (
            "primary-crash",
            Box::new(|| single(&paper::primary_crash_under_load(), 31)),
        ),
        (
            "slow-primary",
            Box::new(|| single(&paper::slow_primary(), 32)),
        ),
        (
            "rolling-crash",
            Box::new(|| single(&paper::rolling_crash(), 33)),
        ),
        (
            "coordinator-outage",
            Box::new(|| xshard(&paper::coordinator_outage(), 34)),
        ),
        (
            "partition-heal",
            Box::new(|| sharded(&paper::partition_then_heal(), 35)),
        ),
        (
            "equivocating-primary",
            Box::new(|| {
                let mut deployment = adversary_deployment(Engine::Pbft, 4, 36, 0);
                deployment.start_paced_workload(PACE, |_, _| null_ops(64));
                let mut adversaries = [Adversary::new(0, 0, EquivocatingPrimary)];
                run_scenario_adaptive(
                    &mut deployment,
                    &paper::equivocating_primary(),
                    &mut adversaries,
                    ms(25),
                )
            }),
        ),
        (
            "censorship-under-recovery",
            Box::new(|| single(&paper::censorship_under_recovery(), 37)),
        ),
        (
            "split-under-load",
            Box::new(|| {
                let mut sc = elastic_kv_sharded(38);
                sc.start_paced_workload(PACE, |s, c| keyed_kv_ops(64, (s * 10 + c) as u64));
                let scenario = Scenario {
                    name: "split-determinism",
                    duration: ms(600),
                    bucket: ms(25),
                    events: vec![(ms(200), ScenarioEvent::Reshard { source: 0 })],
                };
                run_scenario(&mut sc, &scenario)
            }),
        ),
    ];
    for (name, run) in runs {
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace, "{name}: event traces diverged");
        assert_eq!(a.timeline, b.timeline, "{name}: timelines diverged");
    }
}

// ---------------------------------------------------------------------
// View-change latency regression + knob sweep
// ---------------------------------------------------------------------

/// Pins the client-visible view-change latency under a primary crash: the
/// span from the crash to the first post-view-change commit. Timeout or
/// backoff changes that widen the outage fail here, not in production.
#[test]
fn view_change_latency_is_pinned() {
    let mut deployment = paced_single(4, 26);
    let scenario = Scenario {
        name: "vc-latency-pin",
        duration: ms(2000),
        bucket: ms(10), // fine buckets: the pin is a latency measurement
        events: vec![(
            ms(500),
            ScenarioEvent::CrashMember {
                shard: 0,
                member: 0,
            },
        )],
    };
    let report = run_scenario(&mut deployment, &scenario);
    let crash = report.trace[0].at;
    let recovery = report
        .timeline
        .recovery_after(crash)
        .expect("the group must fail over");
    // One suspicion timeout (200 ms) + one new-view round + commit + bucket
    // slack. Measured ~230–300 ms; 600 ms is the regression tripwire.
    assert!(
        recovery <= ms(600),
        "crash→first-commit latency regressed: {recovery:?}"
    );
    // And it cannot beat the suspicion timeout — faster would mean the
    // measurement (or the timer) is broken.
    assert!(
        recovery >= ms(100),
        "recovery faster than plausible suspicion: {recovery:?}"
    );
    assert!(deployment.group(0).replica(1).expect("alive").view() >= 1);
}

/// The view-change timeout knob (exposed for scenario sweeps) actually
/// controls the outage window: a 100 ms timeout recovers measurably faster
/// than a 400 ms one under the identical crash script.
#[test]
fn view_change_timeout_knob_controls_the_outage() {
    let recovery_with_timeout = |timeout_ms: u64, seed: u64| {
        let mut spec = failover_spec(4, seed);
        spec.cfg.view_change_timeout_ns = timeout_ms * 1_000_000;
        spec.cfg.fetch_missing_bodies = true;
        let mut deployment = Deployment::build(deployment_spec(1, 0, spec));
        deployment.start_paced_workload(PACE, |_, _| null_ops(64));
        let scenario = Scenario {
            name: "vc-knob-sweep",
            duration: ms(2500),
            bucket: ms(10),
            events: vec![(
                ms(500),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 0,
                },
            )],
        };
        let report = run_scenario(&mut deployment, &scenario);
        report
            .timeline
            .recovery_after(report.trace[0].at)
            .expect("failover must complete under either timeout")
    };
    let fast = recovery_with_timeout(100, 27);
    let slow = recovery_with_timeout(400, 27);
    assert!(
        fast < slow,
        "the timeout knob must control the outage window: {fast:?} !< {slow:?}"
    );
    assert!(
        slow >= ms(300),
        "a 400 ms suspicion cannot recover in {slow:?}"
    );
}

// ---------------------------------------------------------------------
// Smoke passes: one short scenario per deployment shape (verify.sh gate)
// ---------------------------------------------------------------------

#[test]
fn smoke_single_group_flavor() {
    let mut deployment = paced_single(2, 41);
    let scenario = Scenario {
        name: "smoke-single",
        duration: ms(600),
        bucket: ms(25),
        events: vec![
            (
                ms(150),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 2,
                },
            ),
            (
                ms(350),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 2,
                    preserve_disk: true,
                },
            ),
        ],
    };
    let report = run_scenario(&mut deployment, &scenario);
    assert_eq!(report.trace.len(), 2);
    assert!(report.timeline.availability() >= 0.9, "{report:?}");
}

#[test]
fn smoke_sharded_flavor() {
    let mut sc = paced_sharded(2, 42);
    let scenario = Scenario {
        name: "smoke-sharded",
        duration: ms(600),
        bucket: ms(25),
        events: vec![
            (
                ms(150),
                ScenarioEvent::DegradeLinks {
                    shard: 1,
                    loss: 0.05,
                    extra_latency: ms(1),
                },
            ),
            (ms(400), ScenarioEvent::HealGroup { shard: 1 }),
        ],
    };
    let report = run_scenario(&mut sc, &scenario);
    assert_eq!(report.trace.len(), 2);
    assert!(report.timeline.availability() >= 0.9, "{report:?}");
    sc.quiesce(secs(1));
    assert!(sc.states_converged());
}

#[test]
fn smoke_xshard_flavor() {
    let mut xc = paced_xshard(fetching_spec(1, 43), 2);
    let scenario = Scenario {
        name: "smoke-xshard",
        duration: ms(600),
        bucket: ms(25),
        events: vec![
            (ms(150), ScenarioEvent::PauseGroup { shard: 1 }),
            (ms(350), ScenarioEvent::HealGroup { shard: 1 }),
        ],
    };
    let report = run_scenario(&mut xc, &scenario);
    assert_eq!(report.trace.len(), 2);
    xc.quiesce(secs(2));
    if xc.tx_metrics().tx_unresolved > 0 {
        xc.resolve_unresolved(AUDIT_TIMEOUT).expect("settles");
    }
    xc.audit_atomicity(AUDIT_TIMEOUT).expect("atomic");
}

#[test]
fn smoke_reshard_sharded() {
    let mut sc = elastic_kv_sharded(49);
    sc.start_paced_workload(PACE, |s, c| keyed_kv_ops(64, (s * 10 + c) as u64));
    let scenario = Scenario {
        name: "smoke-reshard-sharded",
        duration: ms(600),
        bucket: ms(25),
        events: vec![(ms(200), ScenarioEvent::Reshard { source: 0 })],
    };
    let report = run_scenario(&mut sc, &scenario);
    assert_eq!(report.trace[0].label, "reshard(0)");
    assert_eq!(sc.shards(), 3, "the split appended a group");
    assert_eq!(sc.router().epoch(), 1);
    assert!(report.timeline.availability() >= 0.8, "{report:?}");
    sc.quiesce(secs(1));
    assert!(sc.states_converged());
}

#[test]
fn smoke_reshard_xshard() {
    // Client 0 of an elastic group is the admin client, on top of the one
    // background client of the static layout.
    let mut xc = Deployment::build(DeploymentSpec {
        elastic: true,
        ..deployment_spec(2, 2, fetching_spec(2, 48))
    });
    let map = xc.router().map();
    xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
    let scenario = Scenario {
        name: "smoke-reshard-xshard",
        duration: ms(600),
        bucket: ms(25),
        events: vec![(ms(200), ScenarioEvent::Reshard { source: 0 })],
    };
    let report = run_scenario(&mut xc, &scenario);
    assert_eq!(report.trace[0].label, "reshard(0)");
    assert_eq!(xc.shards(), 3, "the split appended a group");
    xc.quiesce(secs(2));
    if xc.tx_metrics().tx_unresolved > 0 {
        xc.resolve_unresolved(AUDIT_TIMEOUT).expect("settles");
    }
    xc.audit_atomicity(AUDIT_TIMEOUT)
        .expect("atomic across the split");
    assert!(xc.states_converged());
}

#[test]
fn smoke_adaptive_single_group() {
    let mut deployment = adversary_deployment(Engine::Pbft, 2, 45, 0);
    deployment.start_paced_workload(PACE, |_, _| null_ops(64));
    let scenario = Scenario {
        name: "smoke-adaptive-single",
        duration: ms(800),
        bucket: ms(25),
        events: vec![(
            ms(500),
            ScenarioEvent::ProactiveRecover {
                shard: 0,
                member: 0,
            },
        )],
    };
    let mut adversaries = [Adversary::new(0, 0, EquivocatingPrimary)];
    let report = run_scenario_adaptive(&mut deployment, &scenario, &mut adversaries, ms(25));
    assert!(
        report
            .trace
            .iter()
            .any(|m| m.label.contains(":mount(SplitBrain)")),
        "the adaptive equivocator must fire: {:?}",
        report.trace
    );
    assert!(
        report.trace.iter().any(|m| m.label.ends_with(":disarmed")),
        "proactive recovery must disarm the adversary: {:?}",
        report.trace
    );
    assert!(report.timeline.availability() >= 0.5, "{report:?}");
}

#[test]
fn smoke_adaptive_sharded() {
    let mut sc = paced_sharded(2, 46);
    let scenario = Scenario {
        name: "smoke-adaptive-sharded",
        duration: ms(800),
        bucket: ms(25),
        events: vec![(
            ms(500),
            ScenarioEvent::ProactiveRecover {
                shard: 1,
                member: 0,
            },
        )],
    };
    let mut adversaries = [Adversary::new(1, 0, TargetedCensor { client_bits: 0b1 })];
    let report = run_scenario_adaptive(&mut sc, &scenario, &mut adversaries, ms(25));
    assert!(
        report
            .trace
            .iter()
            .any(|m| m.label.contains(":mount(Censor")),
        "the adaptive censor must fire while its seat is primary: {:?}",
        report.trace
    );
    assert!(!adversaries[0].is_armed(), "recovery disarms the censor");
    // Shard 0 is untouched: its clients (lanes 0..2) keep completing.
    assert!(
        report
            .timeline
            .buckets
            .iter()
            .any(|b| b.per_client_completed[..2].iter().any(|&c| c > 0)),
        "{report:?}"
    );
    sc.quiesce(secs(1));
    assert!(sc.states_converged());
}

#[test]
fn smoke_adaptive_xshard() {
    let mut base = fetching_spec(1, 47);
    base.cfg.view_change_timeout_ns = harness::testkit::TEST_VC_TIMEOUT_NS;
    let mut xc = paced_xshard(base, 2);
    let scenario = Scenario {
        name: "smoke-adaptive-xshard",
        duration: ms(1000),
        bucket: ms(25),
        events: vec![
            (
                ms(200),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 0,
                },
            ),
            (
                ms(600),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 0,
                    preserve_disk: true,
                },
            ),
        ],
    };
    // A storm-amplifying rotation attacker: misbehaves only while the
    // crash-triggered rotation is in flight (opportunistic — the window may
    // be too short to catch at this tick; the smoke asserts the deployment
    // survives with the adversary in the loop, not that it fired).
    let mut adversaries = [Adversary::new(
        0,
        3,
        ViewChangeWindowAttacker {
            fault: Fault::ViewChangeStorm {
                period_ns: 25_000_000,
            },
        },
    )];
    let report = run_scenario_adaptive(&mut xc, &scenario, &mut adversaries, ms(5));
    assert_eq!(
        report
            .trace
            .iter()
            .filter(|m| !m.label.starts_with("adv"))
            .count(),
        2
    );
    xc.quiesce(secs(2));
    if xc.tx_metrics().tx_unresolved > 0 {
        xc.resolve_unresolved(AUDIT_TIMEOUT).expect("settles");
    }
    xc.audit_atomicity(AUDIT_TIMEOUT).expect("atomic");
}

// ---------------------------------------------------------------------
// Engine conformance: the same eight scripts, both engines
// ---------------------------------------------------------------------

/// The eight fault scripts run under either [`Engine`] through
/// `harness::testkit::conformance`, asserting the engine-independent
/// contract (safety + finite recovery). One test per (script, engine) pair
/// so a regression names the exact combination that broke.
mod engine_conformance {
    use harness::testkit::conformance;
    use pbft_core::Engine;

    #[test]
    fn primary_crash_pbft() {
        conformance::primary_crash_under_load(Engine::Pbft, 61);
    }
    #[test]
    fn primary_crash_linear() {
        conformance::primary_crash_under_load(Engine::Linear, 61);
    }
    #[test]
    fn slow_primary_pbft() {
        conformance::slow_primary(Engine::Pbft, 62);
    }
    #[test]
    fn slow_primary_linear() {
        conformance::slow_primary(Engine::Linear, 62);
    }
    #[test]
    fn rolling_crash_pbft() {
        conformance::rolling_crash(Engine::Pbft, 63);
    }
    #[test]
    fn rolling_crash_linear() {
        conformance::rolling_crash(Engine::Linear, 63);
    }
    #[test]
    fn coordinator_outage_pbft() {
        conformance::coordinator_outage(Engine::Pbft, 64);
    }
    #[test]
    fn coordinator_outage_linear() {
        conformance::coordinator_outage(Engine::Linear, 64);
    }
    #[test]
    fn partition_then_heal_pbft() {
        conformance::partition_then_heal(Engine::Pbft, 65);
    }
    #[test]
    fn partition_then_heal_linear() {
        conformance::partition_then_heal(Engine::Linear, 65);
    }
    #[test]
    fn equivocating_primary_pbft() {
        conformance::equivocating_primary(Engine::Pbft, 66);
    }
    #[test]
    fn equivocating_primary_linear() {
        conformance::equivocating_primary(Engine::Linear, 66);
    }
    #[test]
    fn censorship_under_recovery_pbft() {
        conformance::censorship_under_recovery(Engine::Pbft, 67);
    }
    #[test]
    fn censorship_under_recovery_linear() {
        conformance::censorship_under_recovery(Engine::Linear, 67);
    }
    #[test]
    fn split_under_load_pbft() {
        conformance::split_under_load(Engine::Pbft, 68);
    }
    #[test]
    fn split_under_load_linear() {
        conformance::split_under_load(Engine::Linear, 68);
    }
}

// ---------------------------------------------------------------------
// Engine-level conformance details
// ---------------------------------------------------------------------

/// The timeline's per-client lane shows exactly who an outage hits: pause
/// group 0 of a two-group deployment and group 0's clients stall while
/// group 1's keep completing.
#[test]
fn timeline_attributes_outages_per_client() {
    let mut sc = paced_sharded(2, 44);
    let scenario = Scenario {
        name: "per-client-lanes",
        duration: ms(1000),
        bucket: ms(50),
        events: vec![(ms(300), ScenarioEvent::PauseGroup { shard: 0 })],
    };
    let report = run_scenario(&mut sc, &scenario);
    // A bucket fully inside the pause: clients 0..2 (group 0) stalled,
    // clients 2..4 (group 1) alive.
    let mid_pause = report.timeline.bucket_index(report.trace[0].at + ms(300));
    let lanes = &report.timeline.buckets[mid_pause].per_client_completed;
    assert_eq!(lanes.len(), 4);
    assert!(
        lanes[..2].iter().all(|&c| c == 0),
        "group 0's clients must be stalled: {lanes:?}"
    );
    assert!(
        lanes[2..].iter().any(|&c| c > 0),
        "group 1's clients must keep completing: {lanes:?}"
    );
    assert!(report.timeline.stalled_clients(mid_pause) >= 2);
}
