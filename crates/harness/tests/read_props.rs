//! Randomized read-semantics schedules: keyed read/write mixes racing
//! member crashes, primary isolation (forced view changes) and — in the
//! elastic variant — a live shard split, asserting the §2.1 read-only
//! contract whatever the schedule draws:
//!
//! 1. **reads return committed values** — every completed keyed read
//!    returns either the slot's initial (zero) image or the record of a
//!    write that was actually submitted and committed; never a torn
//!    record, never a fabricated value, and — thanks to the dirty-key
//!    deferral gate — never a tentative write that could still roll back;
//! 2. **the read path agrees with the ordered path** — at quiescence, an
//!    optimistic read of every key returns byte-for-byte what an ordered
//!    (agreed) execution of the same `get` returns;
//! 3. **reads respect the epoch** — after a split settles, the source
//!    group answers reads for moved keys with `WrongEpoch`, never frozen
//!    pre-migration state (the read-side epoch gate).
//!
//! Every property runs under both the PBFT and the linear-communication
//! engine. Schedules stay inside the fault model: at most one member of a
//! group is degraded at a time.

use std::collections::{HashMap, HashSet, VecDeque};

use harness::testkit::{assert_correct_replicas_agree, failover_spec, ms};
use harness::workload::keyed_kv_mix;
use harness::{AppKind, Cluster, Deployment, DeploymentSpec};
use pbft_core::app::KvApp;
use pbft_core::{ClientEvent, Engine};
use pbft_xshard::xshard::XMsg;
use simnet::SimDuration;

/// Key space: one KV slot per key, so records never evict each other and
/// a read's result identifies exactly which write it observed.
const KEYS: u64 = 16;
/// Writer clients 0..WRITERS submit puts; the rest submit optimistic reads.
const WRITERS: usize = 2;
const CLIENTS: usize = 5;
const ROUNDS: u64 = 22;

fn keyed(txid: u64, key: u64, op: Vec<u8>) -> Vec<u8> {
    XMsg::KeyedOp {
        txid,
        keys: vec![key.to_be_bytes().to_vec()],
        op,
    }
    .encode()
}

/// The fault schedule one generator draw produces: per-round actions.
#[derive(Default)]
struct Schedule {
    crash: Option<(u64, usize, u64, bool)>, // (round, member, hold, preserve)
    isolate: Option<(u64, u64)>,            // (round, hold) — always replica 0
}

/// Decode a completed keyed read and check it against the set of values
/// ever written to its key. `allowed` holds every submitted put value; a
/// read may also see the initial all-zero image.
fn check_read(key: u64, result: &[u8], allowed: &HashMap<u64, HashSet<u64>>, seed: u64) {
    assert_eq!(
        result.len(),
        16,
        "read of key {key} returned a non-record ({} bytes, seed={seed})",
        result.len()
    );
    if result.iter().all(|&b| b == 0) {
        return; // initial image: no write to this slot had committed yet
    }
    let got_key = u64::from_be_bytes(result[..8].try_into().expect("8 bytes"));
    let got_val = u64::from_be_bytes(result[8..].try_into().expect("8 bytes"));
    assert_eq!(got_key, key, "torn or misrouted record (seed={seed})");
    assert!(
        allowed.get(&key).is_some_and(|vs| vs.contains(&got_val)),
        "read of key {key} returned value {got_val} that no writer ever submitted (seed={seed})"
    );
}

/// Submit one operation on `client` and pump until its reply arrives.
fn await_one(cluster: &mut Cluster, client: usize, op: Vec<u8>, read_only: bool) -> Vec<u8> {
    cluster.client_submit(client, op, read_only);
    for _ in 0..400 {
        cluster.run_for(ms(10));
        for ev in cluster.take_client_events(client) {
            if let ClientEvent::ReplyDelivered { result, .. } = ev {
                return result;
            }
        }
    }
    panic!("client {client} got no reply within the bound");
}

/// Properties 1 + 2: randomized keyed read/write mixes × crash/restart ×
/// primary isolation. Clients are driven in rounds; every completed read
/// is checked against the submitted-write record, and at quiescence the
/// optimistic read of every key must agree with an ordered execution of
/// the same `get`.
fn reads_return_committed_values(engine: Engine, prop_name: &'static str) {
    propcheck::check_budgeted(prop_name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let mut spec = failover_spec(CLIENTS, seed);
        spec.cfg.engine = engine;
        // Recovery-friendly knobs, like the resharding suites: frequent
        // checkpoints so a fresh-disk restart has a transfer target, and
        // the §2.4 body refetch so an isolated replica can rejoin.
        spec.cfg.checkpoint_interval = 16;
        spec.cfg.fetch_missing_bodies = true;
        spec.app = AppKind::Kv { slots: KEYS };
        spec.xshard = true; // mounts the KeyedOp wrapper (no shard identity)
        let mut cluster = Cluster::build(spec);

        // Draw a fault schedule: at most one degraded member at a time.
        let mut sched = Schedule::default();
        match g.choice(4) {
            0 => {}
            1 => {
                sched.crash = Some((
                    3 + g.u64_in(0..6),
                    1 + g.choice(3),
                    4 + g.u64_in(0..3),
                    g.bool(),
                ));
            }
            2 => sched.isolate = Some((3 + g.u64_in(0..6), 6)),
            _ => {
                // Sequential episodes: the restart lands before the
                // isolation window opens.
                sched.crash = Some((3 + g.u64_in(0..2), 1 + g.choice(3), 4, g.bool()));
                sched.isolate = Some((13 + g.u64_in(0..3), 6));
            }
        }

        let mut allowed: HashMap<u64, HashSet<u64>> = HashMap::new();
        // Per-client FIFO of submitted ops (clients complete in order):
        // writers queue `None`, readers queue the key they asked for.
        let mut pending: Vec<VecDeque<Option<u64>>> = vec![VecDeque::new(); CLIENTS];
        let mut txid = 1u64;

        for round in 0..ROUNDS {
            if let Some((at, member, hold, preserve)) = sched.crash {
                if round == at {
                    cluster.crash_replica(member);
                }
                if round == at + hold {
                    cluster.restart_replica(member, preserve);
                }
            }
            if let Some((at, hold)) = sched.isolate {
                if round == at {
                    cluster.isolate_replica(0);
                }
                if round == at + hold {
                    cluster.restore_links();
                }
            }
            // Keep each client at most a couple of requests deep so the
            // round loop stays closed-loop-ish under stalls.
            for (c, queue) in pending.iter_mut().enumerate() {
                if queue.len() >= 2 {
                    continue;
                }
                let key = g.u64_in(0..KEYS);
                txid += 1;
                if c < WRITERS {
                    let val = round * 100 + c as u64 + 1;
                    allowed.entry(key).or_default().insert(val);
                    cluster.client_submit(c, keyed(txid, key, KvApp::op_put(key, val)), false);
                    queue.push_back(None);
                } else {
                    cluster.client_submit(c, keyed(txid, key, KvApp::op_get(key)), true);
                    queue.push_back(Some(key));
                }
            }
            cluster.run_for(ms(80));
            for (c, queue) in pending.iter_mut().enumerate() {
                for ev in cluster.take_client_events(c) {
                    let ClientEvent::ReplyDelivered { result, .. } = ev else {
                        continue;
                    };
                    let slot = queue.pop_front().expect("reply matches a submit");
                    if let Some(key) = slot {
                        check_read(key, &result, &allowed, seed);
                    }
                }
            }
        }

        cluster.restore_links();
        cluster.run_for(SimDuration::from_secs(1));
        cluster.quiesce(SimDuration::from_secs(1));
        // Drain any stragglers from the schedule's tail.
        for (c, queue) in pending.iter_mut().enumerate() {
            for ev in cluster.take_client_events(c) {
                let ClientEvent::ReplyDelivered { result, .. } = ev else {
                    continue;
                };
                if let Some(Some(key)) = queue.pop_front() {
                    check_read(key, &result, &allowed, seed);
                }
            }
        }

        // Property 2: the optimistic read of every key agrees with an
        // ordered execution of the same get, byte for byte.
        for key in 0..KEYS {
            txid += 1;
            let ordered = await_one(&mut cluster, 0, keyed(txid, key, KvApp::op_get(key)), false);
            txid += 1;
            let fast = await_one(&mut cluster, 1, keyed(txid, key, KvApp::op_get(key)), true);
            assert_eq!(
                ordered, fast,
                "read path diverged from the ordered path on key {key} (seed={seed})"
            );
            check_read(key, &fast, &allowed, seed);
        }
        let all: Vec<usize> = (0..cluster.spec().cfg.n() as usize).collect();
        assert_correct_replicas_agree(&mut cluster, &all);
    });
}

#[test]
fn reads_return_committed_values_pbft() {
    reads_return_committed_values(Engine::Pbft, "reads_return_committed_values_pbft");
}

#[test]
fn reads_return_committed_values_linear() {
    reads_return_committed_values(Engine::Linear, "reads_return_committed_values_linear");
}

/// Property 3: one live split under a keyed read/write mix. After the
/// split settles, sweep every key over the *read* path: exactly the
/// owning group serves the read, every other group answers `WrongEpoch`,
/// and the served record agrees with the ordered path on the owner.
fn split_keeps_reads_epoch_gated(engine: Engine, prop_name: &'static str) {
    propcheck::check_budgeted(prop_name, 3, 10, |g| {
        let seed = g.u64_in(1..1_000);
        let read_pct = 20 + g.u64_in(0..60);
        let mut base = failover_spec(3, seed);
        base.cfg.engine = engine;
        base.cfg.checkpoint_interval = 32;
        base.cfg.fetch_missing_bodies = true;
        base.app = AppKind::Kv { slots: KEYS };
        let mut sc = Deployment::build(DeploymentSpec {
            shards: 2,
            base,
            elastic: true,
            ..Default::default()
        });
        sc.start_paced_workload(ms(5), move |s, c| {
            keyed_kv_mix(KEYS, read_pct, (s * 10 + c) as u64)
        });
        sc.run_for(ms(300 + g.u64_in(0..300)));
        let source = g.choice(2);
        sc.split_auto(source);
        sc.run_for(SimDuration::from_secs(1));
        sc.quiesce(SimDuration::from_secs(2));
        assert_eq!(
            sc.shards(),
            3,
            "the split grew the deployment (seed={seed})"
        );

        for key in 0..KEYS {
            let shard_key = key.to_be_bytes().to_vec();
            let owner = sc.router().route_key(&shard_key);
            let mut served = Vec::new();
            for shard in 0..sc.shards() {
                match sc.probe_ownership(shard, vec![shard_key.clone()], KvApp::op_get(key), true) {
                    Ok(record) => {
                        served.push(shard);
                        let ordered = sc
                            .probe_ownership(
                                shard,
                                vec![shard_key.clone()],
                                KvApp::op_get(key),
                                false,
                            )
                            .expect("the serving group owns the key");
                        assert_eq!(
                            record, ordered,
                            "read path diverged from ordered on key {key} (seed={seed})"
                        );
                    }
                    Err(map) => {
                        assert!(
                            map.epoch() >= 1,
                            "WrongEpoch must carry the installed post-split map (seed={seed})"
                        );
                    }
                }
            }
            assert_eq!(
                served,
                vec![owner],
                "key {key} must be readable on exactly its owner (seed={seed})"
            );
        }
    });
}

#[test]
fn split_keeps_reads_epoch_gated_pbft() {
    split_keeps_reads_epoch_gated(Engine::Pbft, "split_keeps_reads_epoch_gated_pbft");
}

#[test]
fn split_keeps_reads_epoch_gated_linear() {
    split_keeps_reads_epoch_gated(Engine::Linear, "split_keeps_reads_epoch_gated_linear");
}
