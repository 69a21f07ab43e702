//! Shard-router contract tests: the properties a client-side deterministic
//! router must satisfy (determinism, totality, balance), the typed
//! cross-shard rejection of single-group submission (atomic cross-shard
//! operations go through `harness::xshard` instead — see tests/xshard.rs),
//! and an end-to-end sharded-cluster scenario.

use harness::shard::{Deployment, ShardRouter};
use harness::testkit::{deployment_spec, small_spec};
use harness::workload::{sql_insert_ops, KeyedOp};
use harness::ClusterSpec;
use minisql::JournalMode;
use pbft_xshard::routing::RouteError;
use simnet::SimDuration;

#[test]
fn routing_is_deterministic_and_total() {
    propcheck::check("router_deterministic_total", 256, |g| {
        let shards = g.usize_in(1..17);
        let key = g.bytes(0..64);
        let router = ShardRouter::new(shards);
        let shard = router.route_key(&key);
        assert!(shard < shards, "total: every key routes to a real shard");
        assert_eq!(shard, router.route_key(&key), "deterministic per call");
        assert_eq!(
            shard,
            ShardRouter::new(shards).route_key(&key),
            "deterministic across router instances (no hidden state)"
        );
    });
}

#[test]
fn routing_is_balanced_within_20_percent() {
    // The ±20% tolerance of the scaling analysis: for uniformly random keys
    // every shard's share must stay within 20% of the uniform share, else
    // the aggregate-throughput projections (shards × single-group TPS) are
    // fiction. 4096 uniform keys put a ±20% excursion at ≈ 4.7σ even for 8
    // shards, so a violation means hash bias, not sampling noise.
    propcheck::check("router_balanced", 12, |g| {
        let shards = [2usize, 4, 8][g.choice(3)];
        let router = ShardRouter::new(shards);
        const KEYS: usize = 4096;
        let mut counts = vec![0u64; shards];
        for _ in 0..KEYS {
            counts[router.route_key(&g.byte_array::<16>())] += 1;
        }
        let ideal = KEYS as f64 / shards as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - ideal).abs() / ideal;
            assert!(
                dev <= 0.20,
                "shard {s} holds {c} of {KEYS} keys ({:.1}% off the uniform share)",
                dev * 100.0
            );
        }
    });
}

#[test]
fn multi_key_ops_route_iff_keys_agree() {
    propcheck::check("router_multi_key", 128, |g| {
        let shards = g.usize_in(1..9);
        let router = ShardRouter::new(shards);
        let keys: Vec<Vec<u8>> = (0..g.usize_in(1..6)).map(|_| g.bytes(1..16)).collect();
        let op = KeyedOp {
            keys: keys.clone(),
            op: vec![0],
            read_only: false,
        };
        let homes: Vec<usize> = keys.iter().map(|k| router.route_key(k)).collect();
        match router.route(&op) {
            Ok(s) => {
                assert!(
                    homes.iter().all(|&h| h == s),
                    "routed ⇒ all keys agree on {s}"
                );
            }
            Err(RouteError::CrossShard { first, conflicting }) => {
                assert_ne!(first.1, conflicting.1, "rejection names disagreeing shards");
                assert!(
                    homes.iter().any(|&h| h != homes[0]),
                    "rejected ⇒ keys disagree"
                );
            }
            Err(e) => panic!("non-empty key set produced {e:?}"),
        }
    });
}

#[test]
fn cross_shard_ops_are_rejected_with_the_typed_error() {
    // Pin the single-group submission boundary: a SQL multi-row op touching
    // two rows owned by different groups must surface RouteError::CrossShard
    // — not a panic, not a silent partial execution on one group. The typed
    // error is what tells callers to reach for the 2PC path
    // (`harness::xshard`) instead of plain routing.
    let router = ShardRouter::new(4);
    let home = |k: &[u8]| router.route_key(k);
    let k1 = b"voter-0-0".to_vec();
    let k2 = (0..256u64)
        .map(|i| format!("voter-1-{i}").into_bytes())
        .find(|k| home(k) != home(&k1))
        .expect("uniform keys cannot all share one shard");
    let op = KeyedOp {
        keys: vec![k1.clone(), k2.clone()],
        op: b"INSERT INTO bench (k) VALUES (...)".to_vec(),
        read_only: false,
    };
    match router.route(&op) {
        Err(RouteError::CrossShard { first, conflicting }) => {
            assert_eq!(first, (k1.clone(), home(&k1) as u32));
            assert_eq!(conflicting, (k2.clone(), home(&k2) as u32));
        }
        other => panic!("expected CrossShard, got {other:?}"),
    }
    // Same keys, same group: routable.
    let ok = KeyedOp {
        keys: vec![k1.clone(), k1.clone()],
        op: vec![1],
        read_only: false,
    };
    assert_eq!(router.route(&ok), Ok(home(&k1)));
    // No keys: typed, not a panic.
    let keyless = KeyedOp {
        keys: vec![],
        op: vec![2],
        read_only: false,
    };
    assert_eq!(router.route(&keyless), Err(RouteError::NoKeys));
}

#[test]
fn sharded_sql_cluster_partitions_and_converges() {
    // End to end: 2 groups × 3 clients of keyed SQL inserts. Each group
    // commits only rows it owns, groups stay internally convergent, and the
    // shared clock keeps the aggregate window honest.
    let spec = deployment_spec(
        2,
        0,
        ClusterSpec {
            app: harness::AppKind::Sql {
                journal: JournalMode::Rollback,
            },
            ..small_spec(3, 1)
        },
    );
    let mut sc = Deployment::build(spec);
    sc.start_workload(|shard, client| sql_insert_ops((shard * 10 + client) as u64));
    let t = sc.measure_throughput(SimDuration::from_millis(300), SimDuration::from_secs(1));
    assert!(
        t.per_shard_tps.iter().all(|&tps| tps > 20.0),
        "both groups make progress: {:?}",
        t.per_shard_tps
    );
    assert!(
        t.aggregate_tps() > t.per_shard_tps[0],
        "aggregate sums the groups"
    );
    let m = sc.router_metrics();
    assert!(m.routed > 0 && m.skipped_foreign > 0);
    assert_eq!(
        m.rejected_cross_shard, 0,
        "single-key inserts never cross shards"
    );
    sc.quiesce(SimDuration::from_secs(1));
    assert!(sc.states_converged());
}
