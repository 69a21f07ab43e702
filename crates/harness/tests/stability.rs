//! Regression tests for two load-stability bugs that distorted every
//! SQL-workload measurement:
//!
//! * **watermark wedge** — the primary hit the high watermark, returned from
//!   `try_issue` without arming a retry, and nothing re-kicked it once the
//!   checkpoint stabilized; the cluster froze until a backup's view-change
//!   timer "recovered" it (~800 ms outage per log span).
//! * **status storm** — every received status from a peer that looked even
//!   one batch behind triggered a reply-status plus signed retransmissions;
//!   under healthy pipeline skew two loaded replicas ping-ponged forever and
//!   signing ate the CPU (throughput decayed ~3× between checkpoints).
//!
//! Symptoms asserted against: spurious view changes under a clean network,
//! high retransmission counts, and an inverted ACID / no-ACID ratio.

use harness::cluster::{AppKind, Cluster, ClusterSpec};
use harness::workload::{null_ops, sql_insert_ops};
use minisql::JournalMode;
use pbft_core::{AuthMode, PbftConfig};
use simnet::SimDuration;

fn robust_cfg() -> PbftConfig {
    PbftConfig {
        dynamic_membership: true,
        auth: AuthMode::Signatures,
        all_requests_big: false,
        batching: true,
        ..Default::default()
    }
}

fn run(journal: JournalMode) -> (f64, Cluster) {
    let spec = ClusterSpec {
        cfg: robust_cfg(),
        app: AppKind::Sql { journal },
        num_clients: 12,
        seed: 2000,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|i| sql_insert_ops(i as u64));
    let tps = cluster.measure_throughput(SimDuration::from_secs(1), SimDuration::from_secs(2));
    (tps, cluster)
}

#[test]
fn clean_network_causes_no_view_changes() {
    for journal in [JournalMode::Rollback, JournalMode::Off] {
        let (_, cluster) = run(journal);
        for r in 0..4 {
            let m = cluster.replica_metrics(r);
            assert_eq!(
                m.view_changes_started, 0,
                "{journal:?}: replica {r} suspected the primary under a clean network: {m:?}"
            );
        }
        let retrans: u64 = (0..12)
            .map(|c| cluster.client_metrics(c).retransmissions)
            .sum();
        assert!(
            retrans <= 4,
            "{journal:?}: {retrans} client retransmissions under clean load"
        );
    }
}

#[test]
fn no_acid_beats_acid_like_the_paper() {
    // Paper §4.2: 534 vs 1155 TPS, "approximately 2x". Shape check only.
    let (acid, _) = run(JournalMode::Rollback);
    let (no_acid, _) = run(JournalMode::Off);
    assert!(
        no_acid > 1.5 * acid,
        "no-ACID ({no_acid:.0} TPS) should be ~2x ACID ({acid:.0} TPS)"
    );
}

#[test]
fn wal_lands_between_rollback_and_off() {
    // The WAL syncs once per commit (rollback: three, off: zero), so its
    // throughput belongs strictly between the two.
    let (acid, _) = run(JournalMode::Rollback);
    let (wal, _) = run(JournalMode::Wal);
    let (off, _) = run(JournalMode::Off);
    assert!(
        wal > acid,
        "WAL ({wal:.0}) should beat rollback ({acid:.0})"
    );
    assert!(
        off > wal,
        "no journal ({off:.0}) should beat WAL ({wal:.0})"
    );
}

/// A replica restarted over its disk in the robust configuration (dynamic
/// membership, signed requests) still verifies the members that joined
/// while it was up: their public keys live in the replicated membership
/// table, which the restart keeps, not in anything the restart loses. When
/// the primary then fails, the restarted replica takes over in view 1 and
/// orders the members' signed requests; a replica that refused them would
/// be suspected in turn and the group would need a second view change.
#[test]
fn a_restarted_replica_verifies_members_and_leads_after_failover() {
    let spec = ClusterSpec {
        cfg: PbftConfig {
            view_change_timeout_ns: 200_000_000,
            ..robust_cfg()
        },
        num_clients: 3,
        seed: 7,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(64));
    cluster.run_for(SimDuration::from_millis(300));
    cluster.crash_replica(1);
    cluster.restart_replica(1, true);
    cluster.run_for(SimDuration::from_millis(300));
    cluster.crash_replica(0);
    let before = cluster.completed();
    cluster.run_for(SimDuration::from_secs(2));
    let views: Vec<_> = (1..4)
        .map(|r| cluster.replica(r).expect("alive").view())
        .collect();
    let failures = cluster.replica_metrics(1).auth_failures;
    assert_eq!(
        (views, failures),
        (vec![1, 1, 1], 0),
        "(views of replicas 1..4, auth failures at the restarted replica 1)"
    );
    assert!(
        cluster.completed() > before,
        "no progress after the failover"
    );
}

/// In the robust SQL run every interval boundary stabilises in turn, with
/// one root on every replica: none is skipped for a later one, and no
/// replica transfers state to match the group. A checkpoint sealed when its
/// boundary *committed* imaged the batches executed tentatively after it,
/// so replicas that had run different numbers of them recorded different
/// roots for one boundary, and only the boundaries reached at the high
/// watermark (where nothing runs ahead) stabilised.
#[test]
fn every_boundary_stabilises_with_one_root() {
    let spec = ClusterSpec {
        cfg: robust_cfg(),
        app: AppKind::Sql {
            journal: JournalMode::Rollback,
        },
        num_clients: 12,
        seed: 2000,
        ..Default::default()
    };
    let (interval, high) = (spec.cfg.checkpoint_interval, spec.cfg.log_size);
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|i| sql_insert_ops(i as u64));
    // Per replica: each stable checkpoint it adopted, with its executed
    // position at the first millisecond it showed.
    let mut adopted: Vec<Vec<(u64, pbft_crypto::Digest, u64)>> = vec![Vec::new(); 4];
    for _ in 0..3_000 {
        cluster.run_for(SimDuration::from_millis(1));
        for (r, seen) in adopted.iter_mut().enumerate() {
            let replica = cluster.replica(r).expect("alive");
            let (seq, root) = replica.stable_checkpoint();
            if seen.last().map_or(0, |s| s.0) < seq {
                seen.push((seq, root, replica.last_executed()));
            }
        }
    }
    let boundaries: Vec<u64> = adopted[0].iter().map(|s| s.0).collect();
    assert!(boundaries.len() >= 3, "stable checkpoints: {boundaries:?}");
    assert_eq!(
        boundaries,
        (1..=boundaries.len() as u64)
            .map(|k| k * interval)
            .collect::<Vec<_>>(),
        "a boundary never stabilised"
    );
    for (r, seen) in adopted.iter().enumerate() {
        // The run may end between two replicas' adoptions of the last one.
        let n = seen.len().min(adopted[0].len());
        let roots =
            |s: &[(u64, _, u64)]| s[..n].iter().map(|&(q, d, _)| (q, d)).collect::<Vec<_>>();
        assert_eq!(roots(seen), roots(&adopted[0]), "replica {r}'s roots");
        assert!(
            seen[0].2 < high,
            "replica {r} saw {interval} stable only at {} executed",
            seen[0].2
        );
        assert_eq!(cluster.replica_metrics(r).state_transfers_started, 0);
    }
}
