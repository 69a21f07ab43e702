//! Randomized elastic-resharding schedules: live shard splits at arbitrary
//! instants, under paced keyed load, racing member crashes and in-flight
//! cross-shard transactions — asserting the invariants that must hold
//! whatever the schedule draws:
//!
//! 1. **no key lost, none double-owned** — after every split settles, a
//!    ground-truth sweep finds each key owned by *exactly one* group, and
//!    it is the group the post-split router names;
//! 2. **single-group safety** — within every group (including newborn
//!    targets and crash-restarted members) correct replicas never diverge;
//! 3. **cross-shard atomicity across the epoch boundary** — transactions
//!    racing a split either complete in the old epoch or abort and retry
//!    in the new one, and the ground-truth audit stays all-or-nothing;
//!    a client population rewound to a stale map must recover purely
//!    through the `WrongEpoch` rejections.
//!
//! Every property runs under both the PBFT and the linear-communication
//! engine; schedules stay inside the promised fault model (at most f = 1
//! members of a group degraded at once, replica 0 — the export source —
//! is never crashed).

use harness::scenario::{run_scenario, Scenario, ScenarioEvent};
use harness::testkit::{assert_correct_replicas_agree, fetching_spec, ms};
use harness::workload::{cross_null_txs, keyed_kv_ops};
use harness::{AppKind, Deployment, DeploymentSpec};
use pbft_core::app::KvApp;
use pbft_core::Engine;
use simnet::SimDuration;

/// Key space of the KV deployments; small enough that the post-run sweep
/// touches every key, large enough that splits move a meaningful share.
const SLOTS: u64 = 64;

fn secs(n: u64) -> SimDuration {
    SimDuration::from_secs(n)
}

/// An elastic two-group KV deployment with recovery-friendly knobs
/// (frequent checkpoints + body refetch, so crash-restarted members can
/// rejoin whichever epoch they wake up in).
fn elastic_kv(engine: Engine, seed: u64) -> Deployment {
    let mut base = fetching_spec(3, seed);
    base.cfg.engine = engine;
    base.cfg.checkpoint_interval = 32;
    base.app = AppKind::Kv { slots: SLOTS };
    Deployment::build(DeploymentSpec {
        shards: 2,
        base,
        elastic: true,
        ..Default::default()
    })
}

/// Property 1 + 2: random split schedules × paced keyed load × member
/// crashes. After the schedule settles, every key has exactly one owner
/// (the router's), records are self-consistent, and every group's correct
/// replicas agree.
fn split_schedules_keep_keys_single_owned(engine: Engine, prop_name: &'static str) {
    propcheck::check_budgeted(prop_name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut events = Vec::new();
        // One or two splits at random instants; split k may pick any group
        // alive by then (2 + k exist), so a newborn target can itself be
        // re-split — the 2 → 4 growth path.
        let n_splits = 1 + g.choice(2);
        for k in 0..n_splits {
            let at = 400 + k as u64 * 800 + g.u64_in(0..300);
            let source = g.choice(2 + k);
            events.push((ms(at), ScenarioEvent::Reshard { source }));
        }
        // Optionally a crash/restart episode per initial group, on members
        // 1..4 only (replica 0 is the split's export source). The restart
        // may land before, during, or after a split — all must work.
        for shard in 0..2usize {
            if g.bool() {
                let member = 1 + g.choice(3);
                let at = 150 + g.u64_in(0..1_400);
                let hold = 300 + g.u64_in(0..500);
                events.push((ms(at), ScenarioEvent::CrashMember { shard, member }));
                events.push((
                    ms(at + hold),
                    ScenarioEvent::RestartMember {
                        shard,
                        member,
                        preserve_disk: g.bool(),
                    },
                ));
            }
        }
        let n_events = events.len();
        let mut sc = elastic_kv(engine, seed);
        sc.start_paced_workload(ms(5), |s, c| keyed_kv_ops(SLOTS, (s * 10 + c) as u64));
        let scenario = Scenario {
            name: "random-splits",
            duration: ms(2_500),
            bucket: ms(50),
            events,
        };
        let report = run_scenario(&mut sc, &scenario);
        assert_eq!(
            report.trace.len(),
            n_events,
            "every scheduled event fired (seed={seed})"
        );
        assert_eq!(sc.shards(), 2 + n_splits, "seed={seed}");
        assert_eq!(sc.router().epoch(), n_splits as u64, "seed={seed}");
        sc.run_for(secs(2));
        sc.quiesce(secs(2));

        // Ground truth: sweep the whole key space against every group.
        for key in 0..SLOTS {
            let shard_key = key.to_be_bytes().to_vec();
            let mut owners = Vec::new();
            let mut record = Vec::new();
            for shard in 0..sc.shards() {
                if let Ok(reply) =
                    sc.probe_ownership(shard, vec![shard_key.clone()], KvApp::op_get(key), false)
                {
                    owners.push(shard);
                    record = reply;
                }
            }
            assert_eq!(
                owners.len(),
                1,
                "seed={seed}: key {key} owned by {owners:?}"
            );
            assert_eq!(
                owners[0],
                sc.router().route_key(&shard_key),
                "seed={seed}: replica-side owner of key {key} disagrees with the router"
            );
            // A written slot's record names its own key (records are
            // self-describing); an untouched slot reads all-zero.
            if record.iter().any(|&b| b != 0) {
                assert_eq!(
                    u64::from_be_bytes(record[..8].try_into().expect("8-byte key field")),
                    key,
                    "seed={seed}: key {key} carries a foreign record"
                );
            }
        }
        // Single-group safety, every group — newborn targets included.
        for s in 0..sc.shards() {
            assert_correct_replicas_agree(sc.group_mut(s), &[0, 1, 2, 3]);
        }
    });
}

#[test]
fn split_schedules_keep_keys_single_owned_pbft() {
    split_schedules_keep_keys_single_owned(Engine::Pbft, "reshard_single_owner_pbft");
}

#[test]
fn split_schedules_keep_keys_single_owned_linear() {
    split_schedules_keep_keys_single_owned(Engine::Linear, "reshard_single_owner_linear");
}

/// Property 3: splits racing live 2PC traffic, plus a client population
/// rewound to the pre-split map. Whatever the timing, the transaction log
/// audits all-or-nothing, the stale routers recover to the newest epoch
/// purely through `WrongEpoch` rejections, and all groups converge.
fn splits_racing_2pc_stay_atomic(engine: Engine, prop_name: &'static str) {
    propcheck::check_budgeted(prop_name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut spec = DeploymentSpec {
            elastic: true,
            ..DeploymentSpec::default()
        };
        spec.shards = 2;
        spec.initiators = 3;
        // One workload client plus client 0, the elastic admin client.
        spec.base = fetching_spec(2, seed);
        spec.base.cfg.engine = engine;
        spec.base.cfg.checkpoint_interval = 32;
        spec.prepare_timeout = ms(80);
        spec.finish_timeout = ms(120);
        let mut xc = Deployment::build(spec);
        let old_map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(old_map, 64, 1 << 20, i as u64));

        // Optionally take one member down before the first split and bring
        // it back after the last — the hand-off must tolerate an f-bounded
        // source or bystander.
        let crashed = g.bool().then(|| {
            let (shard, member) = (g.choice(2), 1 + g.choice(3));
            xc.group_mut(shard).crash_replica(member);
            (shard, member)
        });

        // One or two splits at random instants under live transactions.
        let n_splits = 1 + g.choice(2);
        for k in 0..n_splits {
            xc.run_for(ms(100 + g.u64_in(0..250)));
            let report = xc.split_auto(g.choice(2 + k));
            assert_eq!(report.plan.new_map.epoch(), (k + 1) as u64, "seed={seed}");
        }
        if let Some((shard, member)) = crashed {
            xc.group_mut(shard).restart_replica(member, g.bool());
        }
        xc.run_for(ms(200));

        // A population that never heard of any split: rewind the shared
        // router to epoch 0 and keep drawing. Recovery must come entirely
        // from the rejections' carried maps.
        xc.router().force(old_map);
        xc.run_for(ms(400));
        xc.quiesce(secs(2));

        let m = xc.tx_metrics();
        assert!(
            m.tx_committed + m.local_txs > 0,
            "seed={seed}: the schedule must not sterilize the workload: {m:?}"
        );
        assert!(
            xc.router_metrics().epoch_retries > 0,
            "seed={seed}: stale-routed prepares must be rejected and retried: {m:?}"
        );
        assert_eq!(
            xc.router().epoch(),
            n_splits as u64,
            "seed={seed}: the stale router must recover the newest epoch"
        );
        let patient = ms(2_000);
        if xc.tx_metrics().tx_unresolved > 0 {
            xc.resolve_unresolved(patient)
                .unwrap_or_else(|e| panic!("seed={seed}: recovery failed: {e}"));
        }
        xc.audit_atomicity(patient)
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        assert!(
            xc.states_converged(),
            "seed={seed}: groups must converge across the splits"
        );
    });
}

#[test]
fn splits_racing_2pc_stay_atomic_pbft() {
    splits_racing_2pc_stay_atomic(Engine::Pbft, "reshard_2pc_atomic_pbft");
}

#[test]
fn splits_racing_2pc_stay_atomic_linear() {
    splits_racing_2pc_stay_atomic(Engine::Linear, "reshard_2pc_atomic_linear");
}

/// Property 4 (read-under-split): a keyed read/write *mix* runs straight
/// through a live split, so optimistic reads race the epoch flip itself —
/// some land on the source while the `Reshard` is uncommitted (their
/// replies held until it commits), some right after it commits. Afterwards
/// the read path must honor the installed epoch exactly like the ordered
/// path: the source group answers reads for moved keys with `WrongEpoch`
/// carrying the post-split map — never frozen pre-migration state — and
/// the owner's read agrees with its ordered execution byte for byte.
fn reads_under_split_respect_the_epoch(engine: Engine, prop_name: &'static str) {
    propcheck::check_budgeted(prop_name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let read_pct = 20 + g.u64_in(0..60);
        let mut sc = elastic_kv(engine, seed);
        sc.start_paced_workload(ms(5), move |s, c| {
            harness::workload::keyed_kv_mix(SLOTS, read_pct, (s * 10 + c) as u64)
        });
        // Whole buckets: the runner requires duration % bucket == 0.
        let at = 300 + 50 * g.u64_in(0..10);
        let source = g.choice(2);
        let scenario = Scenario {
            name: "read-under-split",
            duration: ms(at + 600),
            bucket: ms(50),
            events: vec![(ms(at), ScenarioEvent::Reshard { source })],
        };
        let report = run_scenario(&mut sc, &scenario);
        assert_eq!(report.trace.len(), 1, "the split fired (seed={seed})");
        sc.run_for(secs(1));
        sc.quiesce(secs(2));
        assert_eq!(sc.shards(), 3, "seed={seed}");

        for key in 0..SLOTS {
            let shard_key = key.to_be_bytes().to_vec();
            let owner = sc.router().route_key(&shard_key);
            for shard in 0..sc.shards() {
                match sc.probe_ownership(shard, vec![shard_key.clone()], KvApp::op_get(key), true) {
                    Ok(record) => {
                        assert_eq!(
                            shard, owner,
                            "seed={seed}: group {shard} served a read for key {key} it no longer owns"
                        );
                        let ordered = sc
                            .probe_ownership(shard, vec![shard_key], KvApp::op_get(key), false)
                            .expect("owner serves the ordered probe too");
                        assert_eq!(
                            record, ordered,
                            "seed={seed}: read path diverged from ordered on key {key}"
                        );
                        break;
                    }
                    Err(map) => {
                        assert_ne!(shard, owner, "seed={seed}: owner bounced its own key {key}");
                        assert_eq!(
                            map.epoch(),
                            sc.router().epoch(),
                            "seed={seed}: read rejection must carry the installed map"
                        );
                    }
                }
            }
        }
        for s in 0..sc.shards() {
            assert_correct_replicas_agree(sc.group_mut(s), &[0, 1, 2, 3]);
        }
    });
}

#[test]
fn reads_under_split_respect_the_epoch_pbft() {
    reads_under_split_respect_the_epoch(Engine::Pbft, "reshard_read_epoch_pbft");
}

#[test]
fn reads_under_split_respect_the_epoch_linear() {
    reads_under_split_respect_the_epoch(Engine::Linear, "reshard_read_epoch_linear");
}
