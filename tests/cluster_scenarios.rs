//! Cross-crate integration tests: full simulated clusters driven through
//! the paper's scenarios, spanning pbft-core + pbft-state + pbft-crypto +
//! minisql + pbft-sql + evoting + simnet + harness.

use harness::cluster::ClientHost;
use harness::testkit::{ms, small_spec};
use harness::workload::{null_ops, sql_insert_ops, KeyedOp};
use harness::{AppKind, Cluster, ClusterSpec};
use minisql::JournalMode;
use pbft_core::{AuthMode, PbftConfig};
use simnet::SimDuration;

#[test]
fn throughput_ordering_matches_the_paper() {
    // The qualitative Table 1 result: optimal >> signatures, and dynamic
    // membership is (nearly) free.
    let tps = |cfg: PbftConfig| {
        let spec = ClusterSpec {
            cfg,
            ..small_spec(8, 5)
        };
        let mut cluster = Cluster::build(spec);
        cluster.start_workload(|_| null_ops(1024));
        cluster.measure_throughput(ms(200), ms(800))
    };
    let optimal = tps(PbftConfig::default());
    let robust = tps(PbftConfig {
        auth: AuthMode::Signatures,
        all_requests_big: false,
        ..Default::default()
    });
    let robust_dynamic = tps(PbftConfig {
        auth: AuthMode::Signatures,
        all_requests_big: false,
        dynamic_membership: true,
        ..Default::default()
    });
    assert!(
        optimal > 5.0 * robust,
        "optimal ({optimal}) must dwarf the robust configuration ({robust})"
    );
    let overhead = (robust - robust_dynamic).abs() / robust;
    assert!(
        overhead < 0.1,
        "dynamic membership should be nearly free: {robust} vs {robust_dynamic}"
    );
}

#[test]
fn null_vs_sql_throughput_gap() {
    // The paper's headline: real (database) operations are far slower than
    // the null operations BFT papers advertise.
    let spec = small_spec(8, 6);
    let mut null_cluster = Cluster::build(spec);
    null_cluster.start_workload(|_| null_ops(1024));
    let null_tps = null_cluster.measure_throughput(ms(200), ms(800));

    let spec = ClusterSpec {
        app: AppKind::Sql {
            journal: JournalMode::Rollback,
        },
        ..small_spec(8, 6)
    };
    let mut sql_cluster = Cluster::build(spec);
    sql_cluster.start_workload(|i| sql_insert_ops(i as u64));
    let sql_tps = sql_cluster.measure_throughput(ms(200), ms(800));

    assert!(
        null_tps > 8.0 * sql_tps,
        "ACID inserts ({sql_tps}) must be far below null ops ({null_tps})"
    );
    sql_cluster.quiesce(SimDuration::from_secs(1));
    assert!(sql_cluster.states_converged(&[0, 1, 2, 3]));
}

#[test]
fn replica_crash_restart_rejoins_with_sql_state() {
    // Body fetching on: without it, a replica that misses a body while the
    // cluster churns stays wedged until the *next* checkpoint, which never
    // comes once clients go idle (the paper's §2.4 point, demonstrated by
    // the packet_loss bench).
    let cfg = PbftConfig {
        checkpoint_interval: 32,
        fetch_missing_bodies: true,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Sql {
            journal: JournalMode::Rollback,
        },
        ..small_spec(4, 7)
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|i| sql_insert_ops(i as u64));
    cluster.run_for(ms(400));
    cluster.crash_replica(1);
    cluster.run_for(ms(400));
    // Cold restart: even the durable region is gone — everything must come
    // back through the Merkle tree-walk state transfer.
    cluster.restart_replica(1, false);
    cluster.run_for(SimDuration::from_secs(8));
    let m = cluster.replica_metrics(1);
    assert!(m.state_transfers_completed >= 1, "{m:?}");
    cluster.quiesce(SimDuration::from_secs(2));
    assert!(cluster.states_converged(&[0, 2, 3]));
    assert!(cluster.completed() > 100);
}

#[test]
fn view_change_preserves_sql_state() {
    let cfg = PbftConfig {
        view_change_timeout_ns: 150_000_000,
        fetch_missing_bodies: true,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Sql {
            journal: JournalMode::Rollback,
        },
        ..small_spec(4, 8)
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|i| sql_insert_ops(i as u64));
    cluster.run_for(ms(300));
    let before = cluster.completed();
    cluster.crash_replica(0);
    cluster.run_for(SimDuration::from_secs(3));
    assert!(
        cluster.completed() > before,
        "progress resumed after failover"
    );
    for i in 1..4 {
        assert!(cluster.replica(i).expect("alive").view() >= 1);
    }
    cluster.quiesce(SimDuration::from_secs(2));
    assert!(cluster.states_converged(&[1, 2, 3]));
}

#[test]
fn evoting_end_to_end_with_dynamic_members() {
    let voters = vec![
        ("alice".to_string(), "pw1".to_string()),
        ("bob".to_string(), "pw2".to_string()),
        ("carol".to_string(), "pw3".to_string()),
    ];
    let cfg = PbftConfig {
        dynamic_membership: true,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Evoting {
            journal: JournalMode::Rollback,
            voters,
        },
        num_clients: 3,
        seed: 9,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    for &id in &cluster.clients.clone() {
        assert!(
            cluster
                .sim
                .node_ref::<ClientHost>(id)
                .is_some_and(|c| c.client.is_member()),
            "credentialed voters join"
        );
    }
    cluster.start_workload(|i| {
        let mut step = 0u64;
        Box::new(move |_| {
            step += 1;
            let op = if i == 0 && step == 1 {
                evoting::VoteOp::CreateElection { title: "T".into() }
            } else {
                evoting::VoteOp::CastVote {
                    election: 1,
                    choice: format!("c{}", i % 2),
                }
            };
            KeyedOp {
                keys: vec![op.shard_key()],
                op: op.encode(),
                read_only: false,
            }
        })
    });
    cluster.run_for(ms(600));
    assert!(cluster.completed() > 10);
    cluster.quiesce(SimDuration::from_secs(1));
    assert!(cluster.states_converged(&[0, 1, 2, 3]));
}

#[test]
fn lossy_network_makes_progress_and_converges() {
    // Global 2% loss: retransmissions, checkpoint recovery and (maybe) view
    // changes all interact — the system must stay safe and live. Body
    // fetching is on (the §2.4 fix); the paper-default fragility without it
    // is demonstrated by the packet_loss bench.
    let link = simnet::LinkParams {
        loss: 0.02,
        ..Default::default()
    };
    let cfg = PbftConfig {
        checkpoint_interval: 64,
        fetch_missing_bodies: true,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        link,
        ..small_spec(6, 10)
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(512));
    cluster.run_for(SimDuration::from_secs(5));
    assert!(cluster.completed() > 500, "got {}", cluster.completed());
    cluster.quiesce(SimDuration::from_secs(3));
    assert!(cluster.states_converged(&[0, 1, 2, 3]));
}

#[test]
fn signature_mode_cluster_is_correct_just_slow() {
    let cfg = PbftConfig {
        auth: AuthMode::Signatures,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        ..small_spec(4, 11)
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(256));
    cluster.run_for(SimDuration::from_secs(1));
    assert!(cluster.completed() > 100);
    cluster.quiesce(SimDuration::from_secs(2));
    assert!(cluster.states_converged(&[0, 1, 2, 3]));
}

#[test]
fn deterministic_runs_identical_results() {
    let run = |seed: u64| {
        let spec = small_spec(4, seed);
        let mut cluster = Cluster::build(spec);
        cluster.start_workload(|_| null_ops(256));
        cluster.run_for(ms(500));
        (
            cluster.completed(),
            cluster.replica(0).map(|r| r.exec_chain()).expect("alive"),
        )
    };
    assert_eq!(run(77), run(77), "same seed, same run");
    assert_ne!(run(77).1, run(78).1, "different seeds diverge in schedule");
}
