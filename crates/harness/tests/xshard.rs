//! Cross-shard atomic-commit properties: all-or-nothing application under
//! message drops, participant-shard failure and a Byzantine participant
//! replica, balance conservation for SQL transfers, plus the pinned
//! regression that single-shard traffic keeps the PR 2 fast path untouched.

use harness::byzantine::{build_faulty_cluster, Fault};
use harness::testkit::AUDIT_TIMEOUT;
use harness::workload::{cross_null_txs, cross_precinct_ballot_txs, keyed_null_ops, transfer_txs};
use harness::xshard::TxOutcome;
use harness::{AppKind, Cluster, ClusterSpec, Deployment, DeploymentSpec};
use minisql::JournalMode;
use pbft_sql::transfer::{accounts_setup, decode_sum, SUM_BALANCES_SQL};
use simnet::SimDuration;

/// The §2.4 body-fetch fix is on ([`harness::testkit::fetching_spec`]).
/// With the 2PC tables durable in the region, convergence checks are strict
/// about the whole region image, so a replica wedged on a request body it
/// lost to multicast drops (all requests are big under the default config)
/// must be able to refetch it — the alternative recovery path, the next
/// checkpoint transfer, never comes in a quiesced system.
fn base_spec(num_clients: usize, seed: u64) -> ClusterSpec {
    harness::testkit::fetching_spec(num_clients, seed)
}

/// Atomicity under lossy links: every message class (request, agreement,
/// reply — and therefore every 2PC step riding them) is subject to drops;
/// retransmissions mask the loss or the prepare timeout aborts, but no
/// interleaving may ever half-apply a transaction.
#[test]
fn atomicity_under_message_drops() {
    propcheck::check("xshard_atomic_under_drops", 3, |g| {
        let loss = g.u64_in(10..60) as f64 / 1000.0; // 1%–6% on every directed link
        let seed = g.u64_in(1..1000);
        let mut spec = DeploymentSpec {
            shards: 2,
            base: base_spec(1, seed),
            initiators: 2,
            ..Default::default()
        };
        spec.base.link.loss = loss;
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
        xc.run_for(SimDuration::from_millis(800));
        xc.quiesce(SimDuration::from_secs(1));
        let m = xc.tx_metrics();
        assert!(
            m.tx_committed + m.tx_aborted > 0,
            "some transactions must resolve under {loss:.3} loss: {m:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("loss={loss:.3} seed={seed}: {e}"));
        assert!(xc.states_converged());
    });
}

/// Atomicity across a participant-shard failure: the shard is unreachable
/// for a window (prepares time out, transactions abort), then heals and
/// processes its backlog. Afterward every recorded outcome must be uniform
/// across its participants — including transactions caught mid-flight by
/// the partition.
#[test]
fn atomicity_under_participant_crash() {
    propcheck::check("xshard_atomic_under_crash", 3, |g| {
        let seed = g.u64_in(1..1000);
        let victim = g.choice(3);
        let spec = DeploymentSpec {
            shards: 3,
            base: base_spec(1, seed),
            initiators: 2,
            prepare_timeout: SimDuration::from_millis(60),
            finish_timeout: SimDuration::from_millis(60),
            ..Default::default()
        };
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
        // Healthy phase, failure window, heal, drain.
        xc.run_for(SimDuration::from_millis(250));
        xc.group_mut(victim).isolate_from_clients();
        xc.run_for(SimDuration::from_millis(400));
        xc.group_mut(victim).restore_links();
        xc.quiesce(SimDuration::from_secs(2));
        let m = xc.tx_metrics();
        assert!(m.tx_committed > 0, "healthy phases must commit: {m:?}");
        assert!(
            m.aborts_timeout > 0 || m.tx_aborted > 0 || m.tx_unresolved > 0,
            "the failure window should force aborts (victim={victim}): {m:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("victim={victim} seed={seed}: {e}"));
        assert!(xc.states_converged());
    });
}

/// Atomicity with one Byzantine replica inside a participant group: the
/// group masks the liar (that is PBFT's job), so transactions keep
/// committing and the audit stays clean. The faulty replica never gets to
/// break the all-or-nothing contract because every 2PC step is a
/// quorum-certified ordered operation.
#[test]
fn atomicity_with_one_byzantine_participant() {
    propcheck::check("xshard_atomic_byzantine", 3, |g| {
        let fault = [Fault::TamperReplies, Fault::TamperAgreement, Fault::Mute][g.choice(3)];
        let faulty_shard = g.choice(2);
        let seed = g.u64_in(1..1000);
        let spec = DeploymentSpec {
            shards: 2,
            base: base_spec(1, seed),
            initiators: 2,
            ..Default::default()
        };
        // Mount the fault on a backup (replica 3) of the chosen group so the
        // group stays in view 0 and masks the liar with its honest quorum.
        let mut xc = Deployment::build_with(spec, move |s, gspec| {
            if s == faulty_shard {
                build_faulty_cluster(gspec, 3, fault)
            } else {
                Cluster::build(gspec)
            }
        });
        let map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
        xc.run_for(SimDuration::from_millis(800));
        xc.quiesce(SimDuration::from_secs(1));
        let m = xc.tx_metrics();
        assert!(
            m.tx_committed > 0,
            "{fault:?} on shard {faulty_shard} must be masked: {m:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("{fault:?} shard={faulty_shard} seed={seed}: {e}"));
        assert!(
            xc.states_converged(),
            "honest replicas stay digest-identical"
        );
    });
}

/// End to end over the SQL app: cross-shard account transfers conserve the
/// global balance sum — the application-level restatement of atomicity (a
/// half-applied transfer visibly leaks or mints balance).
#[test]
fn sql_transfers_conserve_the_global_balance() {
    const ACCOUNTS: u64 = 32;
    const INITIAL: i64 = 1000;
    let spec = DeploymentSpec {
        shards: 2,
        base: ClusterSpec {
            app: AppKind::SqlWith {
                journal: JournalMode::Rollback,
                setup: accounts_setup(ACCOUNTS, INITIAL),
            },
            num_clients: 0,
            ..Default::default()
        },
        initiators: 3,
        ..Default::default()
    };
    let mut xc = Deployment::build(spec);
    xc.start_transactions(|i| transfer_txs(ACCOUNTS, 10, i as u64));
    xc.run_for(SimDuration::from_millis(700));
    xc.quiesce(SimDuration::from_secs(1));
    let m = xc.tx_metrics();
    assert!(
        m.tx_committed > 0,
        "cross-shard transfers must commit: {m:?}"
    );
    assert!(
        m.local_txs > 0,
        "same-shard pairs take the batch path: {m:?}"
    );
    xc.audit_atomicity(AUDIT_TIMEOUT).expect("atomic");
    // Every group holds a full copy of the schema but only applies updates
    // for rows it owns, so each group's SUM drifts from shards × initial by
    // the *net* of its applied legs — and the net over all groups of any set
    // of fully-applied transfers is zero.
    let mut total = 0i64;
    for shard in 0..xc.shards() {
        let reply = xc
            .submit_and_wait(
                shard,
                0,
                SUM_BALANCES_SQL.as_bytes().to_vec(),
                true,
                None,
                AUDIT_TIMEOUT,
            )
            .expect("sum query answered");
        total += decode_sum(&reply).expect("sum decodes");
    }
    assert_eq!(
        total,
        xc.shards() as i64 * ACCOUNTS as i64 * INITIAL,
        "committed+aborted transfers conserve the global sum"
    );
    assert!(xc.states_converged());
}

/// End to end over the e-voting app: cross-precinct ballots (one CastVote
/// per precinct election, elections on different groups) commit atomically,
/// so the two precincts' vote totals agree exactly — every committed ballot
/// added one vote on each side, and no aborted ballot added any.
#[test]
fn cross_precinct_ballots_keep_precinct_tallies_in_step() {
    let spec = DeploymentSpec {
        shards: 2,
        base: ClusterSpec {
            app: AppKind::Evoting {
                journal: JournalMode::Rollback,
                voters: Vec::new(),
            },
            num_clients: 0,
            ..Default::default()
        },
        initiators: 2,
        ..Default::default()
    };
    let mut xc = Deployment::build(spec);
    // Pick one fixed pair of precinct elections owned by different groups,
    // so every ballot is genuinely cross-shard and every voter's final
    // state is one vote in each.
    let map = xc.router().map();
    let e1 = 1i64;
    let e2 = (2..100i64)
        .find(|e| map.shard_of(&e.to_be_bytes()) != map.shard_of(&e1.to_be_bytes()))
        .expect("election ids spread across groups");
    let pair: &'static [i64] = Box::leak(vec![e1, e2].into_boxed_slice());
    xc.start_transactions(|i| cross_precinct_ballot_txs(pair, &["alice", "bob"], i as u64));
    xc.run_for(SimDuration::from_millis(600));
    xc.quiesce(SimDuration::from_secs(1));
    let m = xc.tx_metrics();
    assert!(
        m.tx_committed > 0,
        "cross-precinct ballots must commit: {m:?}"
    );
    assert_eq!(
        m.local_txs, 0,
        "the fixed pair never collapses to one group"
    );
    xc.audit_atomicity(AUDIT_TIMEOUT).expect("atomic");
    // Tally each precinct on its owning group.
    let mut totals = Vec::new();
    for e in [e1, e2] {
        let shard = map.shard_of(&e.to_be_bytes()) as usize;
        let op = evoting::VoteOp::Tally { election: e }.encode();
        let reply = xc
            .submit_and_wait(shard, 0, op, true, None, AUDIT_TIMEOUT)
            .expect("tally answered");
        let tally = evoting::decode_tally(&reply).expect("tally decodes");
        totals.push(tally.iter().map(|(_, n)| n).sum::<i64>());
    }
    assert_eq!(
        totals[0], totals[1],
        "atomic ballots keep precinct totals in step"
    );
    assert!(totals[0] > 0, "committed ballots produced votes");
    assert!(xc.states_converged());
}

/// Pinned regression: groups mounted inside the XShardApp wrapper
/// (`base.xshard`) with zero initiators are the PR 2 sharded deployment,
/// bit for bit — the wrapper passes single-shard operations through
/// untouched and the idle driver adds no 2PC overhead, so the completed
/// counts per shard are *equal*, not merely close.
#[test]
fn single_shard_ops_keep_the_pr2_fast_path() {
    let seed = 77;
    let clients = 3;
    let run_sharded = |seed| {
        let mut sc = Deployment::build(DeploymentSpec {
            shards: 2,
            base: base_spec(clients, seed),
            ..Default::default()
        });
        sc.start_keyed_workload(|s, c| keyed_null_ops(128, (s * 100 + c) as u64));
        sc.run_for(SimDuration::from_millis(600));
        sc.per_shard_completed()
    };
    let run_xshard = |seed| {
        let mut base = base_spec(clients, seed);
        base.xshard = true;
        let mut xc = Deployment::build(DeploymentSpec {
            shards: 2,
            base,
            ..Default::default()
        });
        xc.start_keyed_workload(|s, c| keyed_null_ops(128, (s * 100 + c) as u64));
        xc.run_for(SimDuration::from_millis(600));
        let per_shard: Vec<u64> = xc.per_shard_completed();
        let m = xc.tx_metrics();
        assert_eq!((m.tx_committed, m.tx_aborted, m.local_txs), (0, 0, 0));
        per_shard
    };
    let baseline = run_sharded(seed);
    let wrapped = run_xshard(seed);
    assert!(
        baseline.iter().sum::<u64>() > 100,
        "enough traffic to be meaningful"
    );
    assert_eq!(
        baseline, wrapped,
        "0-initiator xshard deployment must equal the PR 2 fast path exactly"
    );
}

/// The transaction log records what the audit needs: committed and aborted
/// outcomes with their participant sets.
#[test]
fn tx_log_outcomes_match_metrics() {
    let mut xc = Deployment::build(DeploymentSpec {
        shards: 2,
        base: base_spec(1, 5),
        initiators: 2,
        ..Default::default()
    });
    let map = xc.router().map();
    xc.start_transactions(|i| cross_null_txs(map, 64, 4, i as u64)); // tiny key space: conflicts
    xc.run_for(SimDuration::from_millis(600));
    xc.quiesce(SimDuration::from_millis(500));
    let m = xc.tx_metrics();
    let log = xc.tx_log();
    let committed = log
        .iter()
        .filter(|r| r.outcome == TxOutcome::Committed)
        .count() as u64;
    let aborted = log
        .iter()
        .filter(|r| r.outcome == TxOutcome::Aborted)
        .count() as u64;
    assert_eq!(committed, m.tx_committed + m.local_txs);
    assert_eq!(aborted, m.tx_aborted);
    assert!(log.iter().all(|r| !r.shards.is_empty()));
    // Cross-shard records name at least two distinct groups.
    assert!(log
        .iter()
        .filter(|r| !r.single_group)
        .all(|r| r.shards.len() >= 2));
}
