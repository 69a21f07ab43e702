//! Workspace smoke test: every crate re-exported from `src/lib.rs` is
//! actually linked into the umbrella package, and the `examples/quickstart.rs`
//! flow runs end-to-end.

use pbft_practicality as umbrella;

/// Touch one symbol from each re-exported crate so a manifest regression
/// (a crate dropped from the dependency list or the re-export list) fails
/// this test at compile time.
#[test]
fn every_reexported_crate_is_linked() {
    // pbft_crypto
    let digest = umbrella::pbft_crypto::Digest::of(b"smoke");
    assert_eq!(digest, umbrella::pbft_crypto::Digest::of(b"smoke"));
    // minisql
    let row = umbrella::minisql::encode_row(&[umbrella::minisql::Value::Integer(7)]);
    assert!(!row.is_empty());
    // simnet
    assert_eq!(
        umbrella::simnet::SimDuration::from_millis(1).as_nanos(),
        1_000_000
    );
    // pbft_state
    let region = umbrella::pbft_state::PagedState::new(1);
    assert_eq!(region.len(), umbrella::pbft_state::PAGE_SIZE as u64);
    // pbft_core
    let cfg = umbrella::pbft_core::PbftConfig::default();
    assert_eq!(cfg.n(), 3 * cfg.f + 1);
    // pbft_xshard
    assert_eq!(
        umbrella::pbft_xshard::routing::ShardMap::new(1).shard_of(b"smoke"),
        0
    );
    // pbft_sql, harness (which builds on the SQL/evoting apps), evoting and
    // webgate (which the umbrella links itself).
    let spec = umbrella::harness::ClusterSpec::default();
    assert!(spec.num_clients > 0);
    let op = umbrella::evoting::VoteOp::CreateElection {
        title: "smoke".into(),
    };
    assert!(!op.encode().is_empty());
    let json = umbrella::webgate::json::parse("{\"ok\":true}").expect("parse");
    assert_eq!(json.to_string_compact(), "{\"ok\":true}");
}

/// The quickstart example, as a test: build the paper's default 4-replica
/// deployment, run a closed-loop null workload, and require progress plus
/// converged replica state.
#[test]
fn quickstart_flow_runs_end_to_end() {
    use umbrella::harness::workload::null_ops;
    use umbrella::harness::{Cluster, ClusterSpec};
    use umbrella::simnet::SimDuration;

    let mut spec = ClusterSpec {
        trace: true,
        ..Default::default()
    };
    spec.num_clients = 4;
    let mut cluster = Cluster::build(spec);

    // Discard the startup (key distribution) traffic from the trace.
    let _ = cluster.sim.take_trace();

    cluster.start_workload(|_| null_ops(512));
    cluster.run_for(SimDuration::from_millis(300));

    // The trace observed the normal-case message flow.
    let trace = cluster.sim.take_trace();
    assert!(
        trace
            .iter()
            .any(|t| t.event == umbrella::simnet::TraceEvent::Sent),
        "trace captured sent packets"
    );

    assert!(
        cluster.completed() > 0,
        "closed-loop workload made progress"
    );
    assert!(cluster.mean_latency_ms() > 0.0);
    for i in 0..4 {
        let m = cluster.replica_metrics(i);
        assert!(m.executed_requests > 0, "replica {i} executed requests");
    }
    cluster.quiesce(SimDuration::from_millis(500));
    assert!(
        cluster.states_converged(&[0, 1, 2, 3]),
        "safety: all replicas hold identical state"
    );
}
