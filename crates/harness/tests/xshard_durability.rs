//! Durability schedules for the cross-shard transaction tables: replica
//! crash-restart mid-transaction, checkpoint state transfer that jumps a
//! lagging replica over a prepare, and the recovery pass that settles
//! `Unresolved` transactions once the coordinator group heals.
//!
//! These are the execution-skipping paths the 2PC tables could not survive
//! while they lived in app memory (the PR 3 limitation): every scenario
//! here ends by demanding `states_converged()` — which includes the xshard
//! section digest — and a clean `audit_atomicity`.

use harness::testkit::{recovery_spec as recovery_base, AUDIT_TIMEOUT};
use harness::workload::{cross_null_txs, keyed_null_ops};
use harness::xshard::TxOutcome;
use harness::{Deployment, DeploymentSpec};
use simnet::SimDuration;

/// A replica crashed and restarted *mid-transaction* rejoins with its 2PC
/// tables intact: reloaded from its preserved disk, or reinstalled by
/// checkpoint state transfer when it restarts blank. Either way the group
/// ends digest-identical — including the xshard section — and every
/// recorded outcome audits atomic.
#[test]
fn member_crash_restart_mid_transaction_recovers_tables() {
    propcheck::check("xshard_member_crash_restart", 3, |g| {
        let seed = g.u64_in(1..1000);
        let shard = g.choice(2);
        let member = 1 + g.choice(3); // a backup: the group keeps committing
        let preserve_disk = g.choice(2) == 0;
        let spec = DeploymentSpec {
            shards: 2,
            base: recovery_base(1, seed),
            initiators: 2,
            ..Default::default()
        };
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        xc.start_keyed_workload(|s, c| keyed_null_ops(64, (s * 10 + c) as u64));
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));

        xc.run_for(SimDuration::from_millis(300));
        xc.group_mut(shard).crash_replica(member);
        // Transactions keep flowing while the member is down (f = 1): some
        // prepare while it is dead, and commit only after it returns.
        xc.run_for(SimDuration::from_millis(400));
        xc.group_mut(shard).restart_replica(member, preserve_disk);
        xc.run_for(SimDuration::from_secs(2));
        xc.quiesce(SimDuration::from_secs(1));

        let m = xc.tx_metrics();
        assert!(
            m.tx_committed > 0,
            "transactions must commit across the fault: {m:?}"
        );
        let rm = xc.group(shard).replica_metrics(member);
        assert!(
            rm.state_transfers_completed >= 1,
            "restarted member must recover via state transfer \
             (shard={shard} member={member} preserve={preserve_disk}): {rm:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT).unwrap_or_else(|e| {
            panic!("seed={seed} shard={shard} member={member} preserve={preserve_disk}: {e}")
        });
        assert!(
            xc.states_converged(),
            "xshard section must converge after crash-restart \
             (seed={seed} shard={shard} member={member} preserve={preserve_disk})"
        );
    });
}

/// A replica that misses a whole fault window restarts *blank* and is
/// fast-forwarded by checkpoint install — jumping over ordered operations
/// (including prepares) it never executed. The installed section carries
/// the staged transactions, so the later commits apply on it exactly as on
/// its peers (the app-level unit test in `pbft_xshard::xshard` pins the
/// jumped-prepare semantics; this exercises the full engine path).
#[test]
fn blank_restart_fast_forwards_over_prepares_via_transfer() {
    propcheck::check("xshard_transfer_over_prepare", 3, |g| {
        let seed = g.u64_in(1..1000);
        let shard = g.choice(2);
        let member = 1 + g.choice(3);
        let spec = DeploymentSpec {
            shards: 2,
            base: recovery_base(1, seed),
            initiators: 4,
            ..Default::default()
        };
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        xc.start_keyed_workload(|s, c| keyed_null_ops(64, (s * 10 + c) as u64));
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));

        xc.run_for(SimDuration::from_millis(200));
        xc.group_mut(shard).crash_replica(member);
        let committed_before = xc.tx_metrics().tx_committed;
        // A long outage: several checkpoint intervals of agreements — with
        // 4 initiators there are essentially always transactions staged
        // inside the window the restarted replica will jump.
        xc.run_for(SimDuration::from_millis(900));
        let committed_during = xc.tx_metrics().tx_committed - committed_before;
        assert!(
            committed_during > 0,
            "the outage window must order transactions without the member: seed={seed}"
        );
        xc.group_mut(shard).restart_replica(member, false);
        xc.run_for(SimDuration::from_secs(2));
        xc.quiesce(SimDuration::from_secs(1));

        let rm = xc.group(shard).replica_metrics(member);
        assert!(
            rm.state_transfers_completed >= 1,
            "blank restart must fast-forward via transfer: {rm:?}"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("seed={seed} shard={shard} member={member}: {e}"));
        assert!(
            xc.states_converged(),
            "fast-forwarded replica must match its group, xshard section included \
             (seed={seed} shard={shard} member={member})"
        );
    });
}

/// The ROADMAP recovery pass: transactions abandoned `Unresolved` (all-yes
/// votes, then the coordinator group became unreachable before the commit
/// decision was acknowledged) are settled once the coordinator heals —
/// `QueryDecision` recovers the logged verdict (or logs the presumed
/// abort), participants commit/abort accordingly, their held locks are
/// released, and the rewritten log audits clean.
#[test]
fn unresolved_transactions_settle_after_coordinator_heals() {
    propcheck::check("xshard_unresolved_recovery", 3, |g| {
        let seed = g.u64_in(1..1000);
        let mut spec = DeploymentSpec {
            shards: 2,
            base: recovery_base(0, seed),
            initiators: 6,
            prepare_timeout: SimDuration::from_millis(60),
            finish_timeout: SimDuration::from_millis(60),
            ..Default::default()
        };
        spec.base.num_clients = 0;
        let mut xc = Deployment::build(spec);
        let map = xc.router().map();
        // A small key space keeps the post-recovery probe honest: new
        // transactions overlap keys the unresolved ones held locks on.
        xc.start_transactions(|i| cross_null_txs(map, 64, 32, i as u64));

        // Repeatedly isolate a shard mid-flight: any initiator caught
        // between its all-yes vote and the coordinator's decision ack
        // abandons the transaction as Unresolved.
        let mut victim = 0;
        for round in 0..10 {
            xc.run_for(SimDuration::from_millis(120));
            victim = round % 2;
            xc.group_mut(victim).isolate_from_clients();
            xc.run_for(SimDuration::from_millis(250));
            xc.group_mut(victim).restore_links();
            if xc.tx_metrics().tx_unresolved > 0 {
                break;
            }
        }
        xc.quiesce(SimDuration::from_secs(2));
        let unresolved = xc.tx_metrics().tx_unresolved;
        assert!(
            unresolved > 0,
            "ten isolation windows must strand at least one transaction \
             (seed={seed} victim={victim}): {:?}",
            xc.tx_metrics()
        );
        assert!(
            xc.tx_log()
                .iter()
                .any(|r| r.outcome == TxOutcome::Unresolved),
            "the log records the stranded transactions"
        );

        let report = xc
            .resolve_unresolved(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("seed={seed}: recovery failed: {e}"));
        assert_eq!(
            report.committed + report.aborted,
            unresolved,
            "every stranded transaction settles: {report:?}"
        );
        assert!(
            xc.tx_log()
                .iter()
                .all(|r| r.outcome != TxOutcome::Unresolved),
            "no Unresolved entries survive the pass"
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("seed={seed}: post-recovery audit: {e}"));
        assert!(xc.states_converged());

        // Locks are actually free again: fresh transactions over the same
        // tiny key space must be able to commit.
        let committed_before = xc.tx_metrics().tx_committed;
        xc.start_transactions(|i| cross_null_txs(map, 64, 32, 100 + i as u64));
        xc.run_for(SimDuration::from_secs(1));
        xc.quiesce(SimDuration::from_secs(1));
        assert!(
            xc.tx_metrics().tx_committed > committed_before,
            "post-recovery transactions must commit over the released keys: {:?}",
            xc.tx_metrics()
        );
        xc.audit_atomicity(AUDIT_TIMEOUT)
            .unwrap_or_else(|e| panic!("seed={seed}: final audit: {e}"));
        assert!(xc.states_converged());
    });
}

/// GC-watermark safety as a property: two replicas of one group execute
/// the same randomized ordered history through a deliberately tiny record
/// ring, so eviction happens constantly. At every step their replies must
/// be bit-identical, and afterward their region digests must agree, no
/// locks may be leaked for garbage-collected transactions, and a late
/// retransmitted prepare for an evicted txid must answer the presumed
/// abort without staging anything.
#[test]
fn gc_watermark_is_deterministic_under_random_histories() {
    use pbft_core::app::{App, NonDet, NullApp, StateHandle};
    use pbft_core::ClientId;
    use pbft_state::{PagedState, Section, PAGE_SIZE};
    use pbft_xshard::xshard::{SubOp, XMsg, XReply, XShardApp};
    use std::cell::RefCell;
    use std::rc::Rc;

    propcheck::check("xshard_gc_watermark_property", 16, |g| {
        let page = PAGE_SIZE as u64;
        let make = || -> (XShardApp, StateHandle) {
            let state: StateHandle = Rc::new(RefCell::new(PagedState::new(4)));
            // Header + 6 slots: eviction starts almost immediately.
            let ring = Section {
                base: 0,
                len: 32 + 6 * 16,
            };
            let cell = Section {
                base: page,
                len: page,
            };
            (
                XShardApp::with_sections(Box::new(NullApp::new(4)), state.clone(), ring, cell),
                state,
            )
        };
        let (mut a, state_a) = make();
        let (mut b, state_b) = make();
        let nd = NonDet::default();
        let steps = g.u64_in(30..120);
        let mut completed: Vec<u64> = Vec::new();
        for step in 0..steps {
            // Random ordered op over a small striped txid space, with a
            // bias toward completing transactions so the ring churns.
            let stripe = 1 + g.u64_in(0..3);
            let txid = (stripe << 40) | g.u64_in(0..24);
            let key = vec![b'k', (txid % 8) as u8];
            let msg = match g.choice(6) {
                0 | 1 => XMsg::AtomicBatch {
                    txid,
                    ops: vec![SubOp {
                        keys: vec![key],
                        op: vec![step as u8],
                    }],
                },
                2 => XMsg::Prepare {
                    txid,
                    ops: vec![SubOp {
                        keys: vec![key],
                        op: vec![step as u8],
                    }],
                },
                3 => XMsg::Commit { txid },
                4 => XMsg::Abort { txid },
                _ => XMsg::Decide {
                    txid,
                    commit: g.bool(),
                },
            };
            if matches!(msg, XMsg::AtomicBatch { .. } | XMsg::Commit { .. }) {
                completed.push(txid);
            }
            let (ra, _) = a.execute(ClientId(1), &msg.encode(), &nd, false);
            let (rb, _) = b.execute(ClientId(1), &msg.encode(), &nd, false);
            assert_eq!(ra, rb, "replies diverged at step {step} on {msg:?}");
        }
        assert_eq!(
            state_a.borrow_mut().refresh_digest(),
            state_b.borrow_mut().refresh_digest(),
            "region digests must agree after {steps} random steps"
        );
        // Late retransmissions for every txid at or below the watermark
        // answer deterministically and leave no lock or stage behind. The
        // floor is a *watermark*, not a tombstone: eviction follows
        // completion order, so a still-retained record can sit below its
        // stripe's floor — the tables answer first (idempotent PrepareOk
        // for a retained applied record), the presumed abort covers only
        // records that were actually collected.
        let locked_before = a.locked_keys();
        for &txid in &completed {
            if !a.is_gc_evicted(txid) {
                continue;
            }
            let late = XMsg::Prepare {
                txid,
                ops: vec![SubOp {
                    keys: vec![b"late".to_vec()],
                    op: vec![1],
                }],
            };
            let (ra, _) = a.execute(ClientId(1), &late.encode(), &nd, false);
            let (rb, _) = b.execute(ClientId(1), &late.encode(), &nd, false);
            assert_eq!(ra, rb);
            let expected = if a.is_applied(txid) {
                XReply::PrepareOk { txid }
            } else {
                XReply::Aborted { txid }
            };
            assert_eq!(
                XReply::decode(&ra),
                Some(expected),
                "a late prepare answers from the tables first, then the watermark"
            );
            assert!(!a.is_staged(txid), "nothing newly staged for evicted txids");
        }
        assert_eq!(
            a.locked_keys(),
            locked_before,
            "late prepares leak no locks"
        );
    });
}
