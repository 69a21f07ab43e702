//! Seeded-determinism matrix over the whole fault vocabulary.
//!
//! Every claim the conformance suite pins — availability floors, recovery
//! bounds, trace shapes — rests on one premise: a scenario run is a pure
//! function of `(spec, seed, script)`. This suite tests that premise
//! directly, for **every** [`Fault`] kind, mounted and unmounted mid-run,
//! under **both** engines: two runs from the same seed must produce
//! byte-identical event traces and byte-identical availability timelines,
//! down to the per-client completion counts in every 25 ms bucket.
//!
//! The group is built through
//! [`adversary_deployment`](harness::testkit::adversary_deployment)
//! so member 0 carries a provisioned split-brain twin — that makes
//! [`Fault::SplitBrain`] mountable at runtime like every other fault, and
//! simultaneously checks that a *dormant* twin perturbs nothing (the six
//! other faults run over the same twin-carrying host and must still be
//! deterministic and honest until mounted).

use harness::byzantine::Fault;
use harness::scenario::{run_scenario, Scenario, ScenarioEvent, ScenarioReport};
use harness::testkit::{adversary_deployment, ms};
use harness::workload::null_ops;
use pbft_core::Engine;

/// The full fault vocabulary, one representative parameterization each.
fn all_faults() -> [Fault; 7] {
    [
        Fault::Mute,
        Fault::TamperReplies,
        Fault::TamperAgreement,
        Fault::SplitBrain,
        Fault::SlowPrimary {
            delay_ns: 40_000_000,
        },
        Fault::ViewChangeStorm {
            period_ns: 60_000_000,
        },
        Fault::Censor { client_bits: 0b1 },
    ]
}

/// One seeded run: mount `fault` on member 0 (the view-0 primary, the
/// most consequential seat) at 400 ms, unmount at 1000 ms, observe
/// through 1600 ms. Returns the full report plus the completed-op count
/// so post-scenario divergence would also be caught.
fn one_run(engine: Engine, seed: u64, fault: Fault) -> (ScenarioReport, u64) {
    let mut deployment = adversary_deployment(engine, 2, seed, 0);
    deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
    let scenario = Scenario {
        name: "determinism-probe",
        duration: ms(1_600),
        bucket: ms(25),
        events: vec![
            (
                ms(400),
                ScenarioEvent::MountFault {
                    shard: 0,
                    member: 0,
                    fault,
                },
            ),
            (
                ms(1_000),
                ScenarioEvent::UnmountFault {
                    shard: 0,
                    member: 0,
                },
            ),
        ],
    };
    let report = run_scenario(&mut deployment, &scenario);
    (report, deployment.completed())
}

/// Two runs from the same seed must be indistinguishable, for every fault.
fn assert_deterministic(engine: Engine) {
    for (k, fault) in all_faults().into_iter().enumerate() {
        let seed = 9_100 + k as u64;
        let (report_a, completed_a) = one_run(engine, seed, fault);
        let (report_b, completed_b) = one_run(engine, seed, fault);
        assert_eq!(
            report_a, report_b,
            "{engine:?}: {fault:?} produced divergent traces/timelines from seed {seed}"
        );
        assert_eq!(
            completed_a, completed_b,
            "{engine:?}: {fault:?} diverged in completed ops from seed {seed}"
        );
        // The probe must be live, not vacuous: a scenario that commits
        // nothing would make the timeline comparison meaningless.
        assert!(
            completed_a > 0,
            "{engine:?}: {fault:?} sterilized the run (seed {seed})"
        );
        assert_eq!(report_a.trace.len(), 2, "{engine:?}: both events fired");
    }
}

#[test]
fn every_fault_is_deterministic_under_pbft() {
    assert_deterministic(Engine::Pbft);
}

#[test]
fn every_fault_is_deterministic_under_linear() {
    assert_deterministic(Engine::Linear);
}

/// Different seeds must actually steer the run — otherwise the equality
/// assertions above would pass trivially on a seed-blind harness.
#[test]
fn seeds_steer_the_run() {
    let (report_a, _) = one_run(Engine::Pbft, 9_200, Fault::Mute);
    let (report_b, _) = one_run(Engine::Pbft, 9_201, Fault::Mute);
    assert_ne!(
        report_a, report_b,
        "two different seeds produced identical timelines — the seed is not reaching the run"
    );
}
