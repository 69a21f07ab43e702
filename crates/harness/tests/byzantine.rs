//! Byzantine-fault scenarios: the guarantees PBFT exists to provide.
//!
//! Each test mounts one adversarial replica (f = 1, n = 4) and asserts the
//! two protocol-level properties the paper's §2 background lays out: safety
//! (correct replicas never execute different batches at a sequence number;
//! clients never accept a wrong result, because f+1 matching replies are
//! required) and liveness (a faulty primary is replaced through the view
//! change and progress resumes).

use harness::byzantine::{build_faulty_cluster, Fault};
use harness::cluster::{AppKind, ClusterSpec};
use harness::testkit::{assert_correct_replicas_agree, failover_spec};
use harness::workload::null_ops;
use simnet::SimDuration;

fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        app: AppKind::Null { reply_size: 64 },
        ..failover_spec(4, seed)
    }
}

#[test]
fn mute_primary_is_replaced_and_progress_resumes() {
    // Replica 0 is the view-0 primary and says nothing: requests reach the
    // backups (relayed or multicast), their suspicion timers fire, and the
    // view change installs replica 1.
    let mut cluster = build_faulty_cluster(spec(42), 0, Fault::Mute);
    cluster.start_workload(|i| null_ops(64 + i));
    cluster.run_for(SimDuration::from_secs(4));
    let completed = cluster.completed();
    assert!(completed > 50, "progress after failover, got {completed}");
    for r in 1..4 {
        assert!(
            cluster.replica(r).expect("alive").view() >= 1,
            "replica {r} still in the mute primary's view"
        );
    }
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[1, 2, 3]);
}

#[test]
fn tampered_replies_never_reach_clients_as_results() {
    // Replica 1 flips a byte in every reply. MAC/signature verification on
    // the client drops the lie, and the client still assembles a quorum
    // from the three honest replicas.
    let mut cluster = build_faulty_cluster(spec(43), 1, Fault::TamperReplies);
    cluster.start_workload(|i| null_ops(128 + i));
    cluster.run_for(SimDuration::from_secs(2));
    assert!(cluster.completed() > 100, "three honest replies are enough");
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[0, 2, 3]);
}

#[test]
fn tampered_agreement_messages_cost_only_the_liars_vote() {
    // Replica 2 corrupts its prepares and commits: peers' authentication
    // rejects them, leaving a 3-replica quorum — exactly 2f+1, so the
    // protocol still commits.
    let mut cluster = build_faulty_cluster(spec(44), 2, Fault::TamperAgreement);
    cluster.start_workload(|i| null_ops(64 + i));
    cluster.run_for(SimDuration::from_secs(2));
    assert!(cluster.completed() > 100);
    // The corrupted messages show up as authentication failures on peers.
    let auth_failures: u64 = [0usize, 1, 3]
        .iter()
        .map(|&r| cluster.replica_metrics(r).auth_failures)
        .sum();
    assert!(
        auth_failures > 0,
        "tampering must be *detected*, not absorbed"
    );
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[0, 1, 3]);
}

#[test]
fn equivocating_primary_cannot_split_execution() {
    // The strongest attack: replica 0 runs two correctly-authenticated
    // brains, one talking to backup 1, the other to backups 2 and 3. For
    // any sequence number, conflicting batches can each gather at most
    // 1 + 1 (brain's own + one audience) prepares — below the 2f = 2 backup
    // prepares required — unless the audiences overlap, which they don't.
    // Safety must hold unconditionally; liveness comes from the view change
    // once backups notice requests going nowhere.
    let mut cluster = build_faulty_cluster(spec(45), 0, Fault::SplitBrain);
    cluster.start_workload(|i| null_ops(96 + i));
    cluster.run_for(SimDuration::from_secs(5));
    cluster.quiesce(SimDuration::from_secs(1));
    // Safety among the correct replicas, regardless of what the brains did.
    assert_correct_replicas_agree(&mut cluster, &[1, 2, 3]);
}

#[test]
fn mute_fault_mounted_mid_run_is_survived_and_unmount_rejoins() {
    // The runtime fault surface: an honest cluster runs
    // cleanly, then the view-0 primary goes mute *mid-run* (no rebuild).
    // The view change evicts it; unmounting lets it rejoin as a backup.
    let mut cluster = harness::Cluster::build(spec(47));
    cluster.start_workload(|i| null_ops(64 + i));
    cluster.run_for(SimDuration::from_secs(1));
    assert!(cluster.completed() > 100, "healthy before the fault");
    let before = cluster.completed();
    cluster.mount_fault(0, Fault::Mute);
    cluster.run_for(SimDuration::from_secs(3));
    assert!(
        cluster.completed() > before,
        "progress resumed after failover"
    );
    for r in 1..4 {
        assert!(cluster.replica(r).expect("alive").view() >= 1);
    }
    cluster.unmount_fault(0);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[1, 2, 3]);
}

#[test]
fn view_change_storm_taxes_but_does_not_stall() {
    // A backup spams escalating, correctly authenticated view-change votes.
    // A lone stormer stays below the f+1 join rule, so the group must keep
    // committing in view 0; the spam costs bandwidth, not safety.
    let mut cluster = harness::Cluster::build(spec(48));
    cluster.start_workload(|i| null_ops(64 + i));
    cluster.run_for(SimDuration::from_millis(500));
    let before = cluster.completed();
    cluster.mount_fault(
        2,
        Fault::ViewChangeStorm {
            period_ns: 100_000_000, // a vote burst every 100 ms
        },
    );
    cluster.run_for(SimDuration::from_secs(3));
    let during = cluster.completed() - before;
    assert!(
        during > 100,
        "correct replicas must keep committing through the storm: {during}"
    );
    assert!(
        cluster.replica_metrics(2).view_changes_started >= 5,
        "the storm genuinely voted: {:?}",
        cluster.replica_metrics(2)
    );
    assert!(
        cluster.replica(0).expect("alive").view() == 0,
        "a lone stormer must not move the group's view"
    );
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[0, 1, 3]);
}

#[test]
fn split_brain_minority_backup_suspects_and_recovers() {
    // Brain 1's audience {2, 3} plus the brain itself is a full 2f+1
    // quorum, so the group keeps committing in view 0 — equivocation with
    // this split is *survivable* and no view change ever gets f+1 votes.
    // The minority-audience backup (replica 1) is the victim: it holds
    // brain 0's conflicting pre-prepares, must ignore the quorum's votes
    // for digests it cannot match, suspects the primary (a lone, futile
    // view-change vote), and finally rejoins through checkpoint-based state
    // transfer. All of that is observable.
    let mut s = spec(46);
    // Progress under equivocation is slow (clients must retransmit to
    // collect *stable* replies), so checkpoints — the victim's only way
    // back in — must come early.
    s.cfg.checkpoint_interval = 16;
    s.cfg.log_size = 64;
    let mut cluster = build_faulty_cluster(s, 0, Fault::SplitBrain);
    cluster.start_workload(|i| null_ops(64 + i));
    cluster.run_for(SimDuration::from_secs(6));
    assert!(
        cluster.completed() > 100,
        "majority audience sustains progress"
    );
    let victim = cluster.replica_metrics(1);
    assert!(
        victim.view_changes_started >= 1,
        "the minority-audience backup never suspected the primary: {victim:?}"
    );
    assert!(
        victim.state_transfers_completed >= 1,
        "the wedged backup must recover via state transfer: {victim:?}"
    );
    cluster.quiesce(SimDuration::from_secs(1));
    assert_correct_replicas_agree(&mut cluster, &[1, 2, 3]);
}
