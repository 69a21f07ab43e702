//! Sharded replicated KV: four independent PBFT groups behind the
//! deterministic shard router, each running the replicated SQL engine.
//!
//! Demonstrates the full sharding story end to end:
//!   1. the router's pure key → group assignment (any client computes it),
//!   2. keyed closed-loop inserts partitioned across the groups under one
//!      shared virtual clock,
//!   3. aggregate vs per-shard committed throughput and balance,
//!   4. the typed rejection of cross-shard operations (coordination across
//!      groups is a non-goal of this layer).
//!
//! Run with: `cargo run --example sharded_kv`

use harness::shard::{Deployment, DeploymentSpec, ShardRouter};
use harness::workload::{keyed_sql_insert_ops, KeyedOp};
use harness::{AppKind, ClusterSpec};
use minisql::JournalMode;
use simnet::SimDuration;

fn main() {
    let shards = 4;
    let router = ShardRouter::new(shards);

    println!("--- 1. the deterministic router (hash of the row key -> group) ---");
    for user in ["alice", "bob", "carol", "dave", "erin", "frank"] {
        let key = format!("voter-{user}");
        println!("  {key:<12} -> shard {}", router.route_key(key.as_bytes()));
    }

    println!("\n--- 2. building {shards} groups x 4 replicas, 6 clients each ---");
    let spec = DeploymentSpec {
        shards,
        base: ClusterSpec {
            app: AppKind::Sql {
                journal: JournalMode::Rollback,
            },
            num_clients: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut kv = Deployment::build(spec);
    kv.start_keyed_workload(|shard, client| keyed_sql_insert_ops((shard * 6 + client) as u64));
    let t = kv.measure_throughput(SimDuration::from_millis(300), SimDuration::from_secs(1));

    println!("\n--- 3. one second of keyed inserts on the shared clock ---");
    for (s, tps) in t.per_shard_tps.iter().enumerate() {
        println!("  shard {s}: {tps:>6.0} committed inserts/s");
    }
    println!(
        "  aggregate: {:>6.0} TPS   balance: {}",
        t.aggregate_tps(),
        t.balance()
    );
    let m = kv.router_metrics();
    println!(
        "  router: {} ops routed home, {} skipped as foreign (owned by another group)",
        m.routed, m.skipped_foreign
    );

    println!("\n--- 4. cross-shard writes are rejected, not half-applied ---");
    // Two rows owned by different groups cannot ride in one atomic op.
    let k1 = b"voter-0-1".to_vec();
    let k2 = (0..999u64)
        .map(|i| format!("voter-x-{i}").into_bytes())
        .find(|k| router.route_key(k) != router.route_key(&k1))
        .expect("keys spread across groups");
    let cross = KeyedOp {
        keys: vec![k1, k2],
        op: b"INSERT INTO bench (k, v) VALUES ('voter-0-1', 'a'), ('voter-x-?', 'b')".to_vec(),
        read_only: false,
    };
    match kv.route(&cross) {
        Err(e) => println!("  rejected: {e}"),
        Ok(s) => unreachable!("cross-shard op routed to shard {s}"),
    }
    println!("  (atomic cross-shard writes go through 2PC — see examples/bank_transfer.rs)");

    kv.quiesce(SimDuration::from_secs(1));
    assert!(
        kv.states_converged(),
        "every group's replicas agree on its partition"
    );
    println!("\nall groups quiesced and internally convergent.");
}
