//! Cross-shard transaction driving: two-phase commit over a
//! [`Deployment`].
//!
//! [`crate::shard`] scales throughput by running N independent PBFT groups,
//! but rejects any operation touching keys in two groups. This module layers
//! the deterministic two-phase commit of [`pbft_xshard::xshard`] on top: a
//! deployment built with `initiators > 0` mounts every group's application
//! inside the lock-and-log [`pbft_xshard::xshard::XShardApp`] wrapper and
//! its `TxDriver` runs closed-loop **transaction initiators**, each owning
//! one dedicated agent client *per group* (so an initiator can talk to
//! every participant of its transaction concurrently while PBFT's
//! one-outstanding-request-per-client rule holds per agent).
//!
//! Per transaction drawn from a [`TxGen`]:
//!
//! 1. **Route.** [`XShardOp::route`] splits the sub-ops into per-shard legs.
//!    A single-leg transaction skips 2PC entirely: it is submitted as one
//!    ordered `AtomicBatch` operation on the owning group (and plain
//!    single-shard workload ops never even enter this module — they run on
//!    the untouched [`crate::shard`] fast path).
//! 2. **Prepare.** One `Prepare` per leg, each ordered by its group's own
//!    PBFT agreement; the group's replicas deterministically lock the keys
//!    and stage the sub-ops (or vote no on a lock conflict — the no-wait
//!    policy that makes cross-shard deadlock impossible).
//! 3. **Decide.** The verdict (all-yes → commit; any no-vote or a prepare
//!    timeout → abort) is logged as an ordered `Decide` operation on the
//!    *coordinator* group — the shard owning the transaction's first key —
//!    making the commit point itself replicated and f-tolerant.
//! 4. **Finish.** Only after `DecisionLogged` does the initiator send
//!    `Commit`/`Abort` to every leg; participants apply or discard their
//!    staged sub-ops as one ordered step. A participant shard that stalls
//!    mid-protocol (crashed, partitioned, Byzantine beyond its group's f)
//!    can only delay its own leg: the decision is already durable, late
//!    `Commit`s apply when the shard heals, and a shard that never voted
//!    can only be aborted — never half-applied.
//!
//! [`Deployment::audit_atomicity`] is the ground-truth check the property
//! tests lean on: it replays the transaction log against every participant
//! group's quorum-certified `QueryApplied` answer and demands all-or-nothing
//! application.
//!
//! Faults come from the groups' own surface: a whole group cut off from
//! its clients ([`Cluster::isolate_from_clients`] /
//! [`Cluster::restore_links`]), or a member crashed and restarted inside a
//! group ([`Cluster::crash_replica`] / [`Cluster::restart_replica`]),
//! exercising the execution-skipping recovery paths the durable 2PC tables
//! exist for (crash-restart over a preserved disk, and checkpoint state
//! transfer that fast-forwards a blank restart over a transaction's
//! prepare). A transaction abandoned [`TxOutcome::Unresolved`] (coordinator
//! group unreachable after an all-yes vote) is settled after the heal by
//! [`Deployment::resolve_unresolved`], which recovers the logged verdict
//! via `QueryDecision` and releases the participants' held locks.
//! [`Deployment::states_converged`] checks digests *including* the xshard
//! section, so a lock-table divergence fails loudly.
//!
//! [`Cluster::isolate_from_clients`]: crate::cluster::Cluster::isolate_from_clients
//! [`Cluster::restore_links`]: crate::cluster::Cluster::restore_links
//! [`Cluster::crash_replica`]: crate::cluster::Cluster::crash_replica
//! [`Cluster::restart_replica`]: crate::cluster::Cluster::restart_replica

use std::collections::{BTreeMap, BTreeSet};

use pbft_core::client::ClientEvent;
use pbft_xshard::routing::RouteError;
use pbft_xshard::xshard::{TxCoordinator, TxId, XMsg, XReply, XShardOp};
use simnet::{SimDuration, SimTime};

use crate::shard::{Deployment, DeploymentSpec};
use crate::workload::TxGen;

/// The driver's polling quantum: the lockstep slice between initiator
/// pumps (and between reply checks of [`Deployment::submit_and_wait`]).
pub const TX_POLL_INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Driver-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XShardMetrics {
    /// Single-group transactions committed via the collapsed `AtomicBatch`
    /// path (no 2PC rounds).
    pub local_txs: u64,
    /// Cross-shard transactions committed through full 2PC.
    pub tx_committed: u64,
    /// Cross-shard transactions aborted.
    pub tx_aborted: u64,
    /// Aborts caused by a lock-conflict no-vote.
    pub aborts_conflict: u64,
    /// Aborts caused by a prepare timeout (unreachable participant).
    pub aborts_timeout: u64,
    /// Transactions abandoned with an undetermined outcome (coordinator
    /// unreachable after an all-yes vote; participants keep their locks
    /// until the coordinator heals and a
    /// [`Deployment::resolve_unresolved`] pass settles them).
    pub tx_unresolved: u64,
    /// Previously-unresolved transactions that a recovery pass drove to
    /// commit (the coordinator had logged the commit decision).
    pub recovered_committed: u64,
    /// Previously-unresolved transactions that a recovery pass drove to
    /// abort (no decision was on record: presumed abort, logged then
    /// enforced).
    pub recovered_aborted: u64,
    /// Sub-operations of committed transactions (both paths), counted when
    /// the transaction *settles*. In a healthy run that coincides with
    /// execution; under faults it can lead or lag slightly — a timed-out
    /// batch counts at settle though it executes only when its shard heals,
    /// and a commit whose finish acks timed out counts only the acked legs.
    pub committed_sub_ops: u64,
    /// Generator draws rejected at routing (a sub-op spanning groups).
    pub rejected_draws: u64,
    /// Finish phases that gave up waiting for acks from stalled shards
    /// (the outcome was already decided; late commits apply on heal).
    pub finish_timeouts: u64,
    /// Single-group batches whose ack timed out (recorded committed — the
    /// batch executes when the shard processes its queue; see
    /// [`DeploymentSpec::finish_timeout`]).
    pub batch_timeouts: u64,
}

/// The recorded outcome of one transaction, for auditing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Commit decision logged and commits dispatched.
    Committed,
    /// Abort decision logged (or presumed) and aborts dispatched.
    Aborted,
    /// Abandoned without a determined outcome (coordinator unreachable).
    Unresolved,
}

/// One entry of the transaction log kept by the driver.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// Transaction id.
    pub txid: TxId,
    /// Participant shards.
    pub shards: Vec<usize>,
    /// The coordinator group (owner of the transaction's first key; always
    /// also a participant). The recovery pass queries its decision log.
    pub coordinator: usize,
    /// Whether the transaction was single-group (`AtomicBatch`).
    pub single_group: bool,
    /// Final outcome ([`TxOutcome::Unresolved`] entries are rewritten in
    /// place by [`Deployment::resolve_unresolved`]).
    pub outcome: TxOutcome,
}

enum Phase {
    Idle,
    /// Awaiting the `Committed` ack of a single-group `AtomicBatch`.
    Batch {
        /// Sub-op count, for metrics if the ack times out.
        sub_ops: u64,
        /// Give-up deadline: the batch is unconditionally committed once
        /// submitted (there is no abort path — the agent client retransmits
        /// until the group orders it), so on timeout the driver records the
        /// commit and stops waiting for the ack.
        deadline: SimTime,
    },
    /// Awaiting votes.
    Preparing {
        tally: TxCoordinator,
        conflict: bool,
        deadline: SimTime,
    },
    /// Decision submitted to the coordinator; awaiting `DecisionLogged`.
    Deciding {
        commit: bool,
        conflict: bool,
        timed_out: bool,
        deadline: SimTime,
    },
    /// Commits/aborts dispatched; awaiting acks.
    Finishing {
        commit: bool,
        conflict: bool,
        timed_out: bool,
        pending: BTreeSet<usize>,
        sub_ops_applied: u64,
        deadline: SimTime,
    },
}

struct Initiator {
    gen: Option<TxGen>,
    next_seq: u64,
    txid: TxId,
    coordinator: usize,
    shards: Vec<usize>,
    phase: Phase,
}

impl Initiator {
    fn new() -> Initiator {
        Initiator {
            gen: None,
            next_seq: 0,
            txid: 0,
            coordinator: 0,
            shards: Vec::new(),
            phase: Phase::Idle,
        }
    }
}

/// The cross-shard transaction driver a [`Deployment`] carries: the
/// initiators' phase machines, their counters and the transaction log.
/// With zero initiators it does nothing, and the deployment's clock runs
/// unsliced.
///
/// The driver is engine-agnostic: each group orders its operations with
/// the engine `base.cfg.engine` names.
pub(crate) struct TxDriver {
    initiators: Vec<Initiator>,
    /// Client index of initiator 0's agent on every group; initiator `i`'s
    /// agent is `first_agent + i`, after the `base.num_clients` workload
    /// (and elastic admin) clients.
    pub(crate) first_agent: usize,
    metrics: XShardMetrics,
    tx_log: Vec<TxRecord>,
    prepare_timeout: SimDuration,
    finish_timeout: SimDuration,
}

impl TxDriver {
    pub(crate) fn new(spec: &DeploymentSpec) -> TxDriver {
        TxDriver {
            initiators: (0..spec.initiators).map(|_| Initiator::new()).collect(),
            first_agent: spec.base.num_clients,
            metrics: XShardMetrics::default(),
            tx_log: Vec::new(),
            prepare_timeout: spec.prepare_timeout,
            finish_timeout: spec.finish_timeout,
        }
    }

    /// Does the deployment run any initiators?
    pub(crate) fn is_active(&self) -> bool {
        !self.initiators.is_empty()
    }
}

impl Deployment {
    /// Transaction-driver counters.
    pub fn tx_metrics(&self) -> XShardMetrics {
        self.driver.metrics
    }

    /// The transaction log (one record per finished transaction).
    pub fn tx_log(&self) -> &[TxRecord] {
        &self.driver.tx_log
    }

    /// The client index of initiator `i`'s agent on every group.
    fn agent(&self, initiator: usize) -> usize {
        self.driver.first_agent + initiator
    }

    /// Install a transaction stream on every initiator and issue the first
    /// transactions.
    pub fn start_transactions(&mut self, mut make_gen: impl FnMut(usize) -> TxGen) {
        for (i, init) in self.driver.initiators.iter_mut().enumerate() {
            init.gen = Some(make_gen(i));
        }
        self.pump();
    }

    /// Stop drawing new transactions (in-flight ones keep running).
    pub fn stop_transactions(&mut self) {
        for init in &mut self.driver.initiators {
            init.gen = None;
        }
    }

    /// Are all in-flight transactions finished (every initiator idle)?
    pub fn drained(&self) -> bool {
        self.driver
            .initiators
            .iter()
            .all(|i| matches!(i.phase, Phase::Idle))
    }

    /// Total committed work units: workload-client completions plus every
    /// sub-operation applied by a committed transaction. Protocol traffic
    /// (prepares, decides, acks) is deliberately *not* counted — this is
    /// application throughput, comparable with the sharding numbers.
    pub fn committed_units(&self) -> u64 {
        self.background_completed() + self.driver.metrics.committed_sub_ops
    }

    /// Completed requests of the workload clients only (no agents, no
    /// admin client).
    pub fn background_completed(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| {
                self.workload_clients()
                    .map(|c| g.client_metrics(c).completed)
            })
            .sum()
    }

    /// Run `warmup`, then measure committed application throughput and the
    /// transaction abort rate over `window` of shared virtual time.
    pub fn measure(&mut self, warmup: SimDuration, window: SimDuration) -> XShardThroughput {
        self.run_for(warmup);
        let units0 = self.committed_units();
        let m0 = self.driver.metrics;
        self.run_for(window);
        let m1 = self.driver.metrics;
        let committed = (m1.tx_committed + m1.local_txs) - (m0.tx_committed + m0.local_txs);
        let aborted = m1.tx_aborted - m0.tx_aborted;
        XShardThroughput {
            committed_tps: (self.committed_units() - units0) as f64 / window.as_secs_f64(),
            tx_committed: committed,
            tx_aborted: aborted,
        }
    }

    /// Submit `op` on initiator `initiator`'s agent of `shard` and run the
    /// deployment until its reply arrives (matching xshard replies by
    /// `txid` when given). `None` if no reply within `timeout`.
    ///
    /// # Panics
    /// Panics when the deployment has no transaction initiators (agents are
    /// the only manually drivable clients — build with `initiators >= 1` to
    /// use the query/audit surface), or when transactions are still in
    /// flight: the wait loop consumes the agents' replies itself, so it may
    /// only run once the driver is [`drained`](Deployment::drained)
    /// (quiesce first) — otherwise it would eat an in-flight transaction's
    /// votes and acks and corrupt its outcome.
    pub fn submit_and_wait(
        &mut self,
        shard: usize,
        initiator: usize,
        op: Vec<u8>,
        read_only: bool,
        match_txid: Option<TxId>,
        timeout: SimDuration,
    ) -> Option<Vec<u8>> {
        assert!(
            initiator < self.driver.initiators.len(),
            "submit_and_wait needs a transaction agent: initiator {initiator} of {} (build the \
             deployment with initiators >= 1 to use queries and audits)",
            self.driver.initiators.len()
        );
        assert!(
            self.drained(),
            "submit_and_wait would steal in-flight transaction replies: quiesce (stop and drain \
             transactions) before querying or auditing"
        );
        let agent = self.agent(initiator);
        self.groups[shard].client_submit(agent, op, read_only);
        self.wait_for_reply(shard, agent, TX_POLL_INTERVAL, timeout, |result| {
            match (match_txid, XReply::decode(result)) {
                // A plain-op caller must not be handed a stale protocol ack
                // from an abandoned transaction that the agent was still
                // retransmitting.
                (None, None) => true,
                (Some(want), Some(reply)) => reply.txid() == want,
                _ => false, // stale reply from an abandoned transaction
            }
        })
    }

    /// Ground-truth atomicity audit: for every recorded transaction with a
    /// determined outcome, ask each participant group (via quorum-certified
    /// read-only `QueryApplied`) whether it applied the transaction, and
    /// demand all-or-nothing agreement with the recorded outcome.
    ///
    /// Transactions at or below a group's GC floor (their completion
    /// records were collected by the stability watermark — only possible in
    /// runs long enough to wrap the record ring) are skipped on that group:
    /// the watermark deterministically answers "not applied" for them
    /// whatever the true outcome was, so they are no longer auditable at
    /// the application level.
    ///
    /// Queries ride initiator 0's agents, so the deployment must have been
    /// built with at least one initiator (trivially true whenever there are
    /// transactions to audit).
    ///
    /// # Errors
    /// A human-readable description of the first violation found, or of a
    /// shard that failed to answer within `timeout`.
    pub fn audit_atomicity(&mut self, timeout: SimDuration) -> Result<(), String> {
        let floors = self.gc_floors();
        let records = self.driver.tx_log.clone();
        for rec in records {
            let want = match rec.outcome {
                TxOutcome::Committed => true,
                TxOutcome::Aborted => false,
                // No determined outcome: nothing may be applied anywhere
                // (no commit was ever dispatched).
                TxOutcome::Unresolved => false,
            };
            for &shard in &rec.shards {
                if gc_evicted(&floors, shard, rec.txid) {
                    continue; // collected by the watermark: unauditable
                }
                let q = XMsg::QueryApplied { txid: rec.txid }.encode();
                let reply = self
                    .submit_and_wait(shard, 0, q, true, Some(rec.txid), timeout)
                    .ok_or_else(|| {
                        format!(
                            "shard {shard} did not answer QueryApplied for tx {:#x}",
                            rec.txid
                        )
                    })?;
                match XReply::decode(&reply) {
                    Some(XReply::Applied { applied, .. }) => {
                        if applied != want {
                            return Err(format!(
                                "atomicity violated: tx {:#x} ({:?}) is applied={applied} on \
                                 shard {shard} but the outcome requires applied={want}",
                                rec.txid, rec.outcome
                            ));
                        }
                    }
                    other => {
                        return Err(format!(
                            "unexpected QueryApplied reply on shard {shard}: {other:?}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-group GC floors (txid stripe → highest collected txid), read
    /// straight from a live replica's region.
    fn gc_floors(&self) -> Vec<BTreeMap<u64, TxId>> {
        self.groups
            .iter()
            .map(|g| {
                (0..g.spec().cfg.n())
                    .find_map(|i| g.replica(i))
                    .map(|r| pbft_xshard::xshard::read_gc_floors(&r.state_handle().borrow()))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Recovery pass for [`TxOutcome::Unresolved`] transactions, run after
    /// the coordinator group heals (and after a quiesce — this drives the
    /// agents manually).
    ///
    /// For every unresolved record: query the coordinator's replicated
    /// decision log (`QueryDecision`); if no decision is on record, log the
    /// presumed abort as an ordered `Decide` — first writer wins there, so
    /// if the abandoned initiator's stale commit decision got ordered
    /// first, the *recorded* verdict is used instead. The logged verdict is
    /// then driven to every participant (`Commit`/`Abort`), releasing the
    /// locks participants held across the outage, and the transaction log
    /// entry is rewritten to the settled outcome (so
    /// [`Deployment::audit_atomicity`] audits it like any other).
    ///
    /// # Errors
    /// A description of the first shard that failed to answer within
    /// `timeout`, or of a reply that contradicts the recovered verdict.
    ///
    /// # Panics
    /// Panics if transactions are still in flight (see
    /// [`Deployment::submit_and_wait`]) or the deployment has no
    /// initiators.
    pub fn resolve_unresolved(&mut self, timeout: SimDuration) -> Result<RecoveryReport, String> {
        let unresolved: Vec<(usize, TxRecord)> = self
            .driver
            .tx_log
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, r)| r.outcome == TxOutcome::Unresolved)
            .collect();
        let mut report = RecoveryReport::default();
        for (idx, rec) in unresolved {
            let txid = rec.txid;
            let q = XMsg::QueryDecision { txid }.encode();
            let reply = self
                .submit_and_wait(rec.coordinator, 0, q, true, Some(txid), timeout)
                .ok_or_else(|| {
                    format!(
                        "coordinator {} did not answer QueryDecision for tx {txid:#x}",
                        rec.coordinator
                    )
                })?;
            let mut verdict = match XReply::decode(&reply) {
                Some(XReply::Decision { commit, .. }) => commit,
                other => return Err(format!("unexpected QueryDecision reply: {other:?}")),
            };
            if verdict.is_none() {
                let d = XMsg::Decide {
                    txid,
                    commit: false,
                }
                .encode();
                let reply = self
                    .submit_and_wait(rec.coordinator, 0, d, false, Some(txid), timeout)
                    .ok_or_else(|| {
                        format!(
                            "coordinator {} did not log a recovery decision for tx {txid:#x}",
                            rec.coordinator
                        )
                    })?;
                verdict = match XReply::decode(&reply) {
                    Some(XReply::DecisionLogged { commit, .. }) => Some(commit),
                    other => return Err(format!("unexpected Decide reply: {other:?}")),
                };
            }
            let commit = verdict.expect("decided above");
            let msg = if commit {
                XMsg::Commit { txid }
            } else {
                XMsg::Abort { txid }
            };
            for &shard in &rec.shards {
                let reply = self
                    .submit_and_wait(shard, 0, msg.encode(), false, Some(txid), timeout)
                    .ok_or_else(|| {
                        format!("shard {shard} did not finish recovered tx {txid:#x}")
                    })?;
                match (commit, XReply::decode(&reply)) {
                    (true, Some(XReply::Committed { .. }))
                    | (false, Some(XReply::Aborted { .. })) => {}
                    // A commit answered `Aborted` is the stability
                    // watermark speaking, not a violation, when the txid's
                    // records were garbage-collected on that group during a
                    // very long outage (same exemption as the audit).
                    (true, Some(XReply::Aborted { .. }))
                        if gc_evicted(&self.gc_floors(), shard, txid) => {}
                    (false, Some(XReply::Committed { .. })) => {
                        return Err(format!(
                            "recovery found tx {txid:#x} applied on shard {shard} without a \
                             commit decision"
                        ));
                    }
                    (_, other) => {
                        return Err(format!(
                            "unexpected finish reply for tx {txid:#x} on shard {shard}: {other:?}"
                        ))
                    }
                }
            }
            self.driver.tx_log[idx].outcome = if commit {
                TxOutcome::Committed
            } else {
                TxOutcome::Aborted
            };
            if commit {
                report.committed += 1;
                self.driver.metrics.recovered_committed += 1;
            } else {
                report.aborted += 1;
                self.driver.metrics.recovered_aborted += 1;
            }
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // The driver proper
    // ------------------------------------------------------------------

    /// Hand every initiator its replies, enforce its deadlines, and start
    /// its next transaction when idle.
    pub(crate) fn pump(&mut self) {
        let now = self.now();
        for i in 0..self.driver.initiators.len() {
            self.pump_initiator(i, now);
        }
    }

    fn pump_initiator(&mut self, i: usize, now: SimTime) {
        let agent = self.agent(i);
        // Collect this initiator's replies across all groups, tagged by
        // shard, before touching the phase machine.
        let mut replies: Vec<(usize, XReply)> = Vec::new();
        for s in 0..self.groups.len() {
            for ev in self.groups[s].take_client_events(agent) {
                if let ClientEvent::ReplyDelivered { result, .. } = ev {
                    if let Some(reply) = XReply::decode(&result) {
                        replies.push((s, reply));
                    }
                }
            }
        }
        let current = self.driver.initiators[i].txid;
        for (shard, reply) in replies {
            if reply.txid() == current {
                self.on_reply(i, shard, reply, now);
            }
            // else: stale reply from an earlier (timed-out) transaction.
        }
        self.check_deadlines(i, now);
        if matches!(self.driver.initiators[i].phase, Phase::Idle) {
            self.start_next(i, now);
        }
    }

    fn on_reply(&mut self, i: usize, shard: usize, reply: XReply, now: SimTime) {
        let agent = self.agent(i);
        let init = &mut self.driver.initiators[i];
        match (&mut init.phase, reply) {
            (Phase::Batch { .. }, XReply::Committed { replies, .. }) => {
                self.driver.metrics.local_txs += 1;
                self.driver.metrics.committed_sub_ops += replies.len() as u64;
                self.finish(i, TxOutcome::Committed);
            }
            (
                Phase::Preparing {
                    tally, conflict, ..
                },
                vote,
            ) => {
                let (prepared, is_vote) = match vote {
                    XReply::PrepareOk { .. } => (true, true),
                    XReply::PrepareFail { .. } => {
                        *conflict = true;
                        (false, true)
                    }
                    // A participant that already timed-out-aborted this txid
                    // answers Aborted; treat as a no-vote.
                    XReply::Aborted { .. } => (false, true),
                    // A shard that no longer owns the prepared keys after a
                    // reshard rejects with the map it now holds. Install it
                    // into the shared router (a no-op unless newer) so the
                    // retry re-routes under the new epoch, and count the
                    // rejection as a no-vote: the transaction aborts
                    // deterministically in the old epoch.
                    XReply::WrongEpoch { map, .. } => {
                        self.router.install(map);
                        self.router_metrics.borrow_mut().epoch_retries += 1;
                        (false, true)
                    }
                    _ => (false, false),
                };
                if !is_vote {
                    return;
                }
                if let Some(verdict) = tally.record_vote(shard as u32, prepared) {
                    let conflict = *conflict;
                    let txid = init.txid;
                    let coordinator = init.coordinator;
                    init.phase = Phase::Deciding {
                        commit: verdict,
                        conflict,
                        timed_out: false,
                        deadline: now + self.driver.finish_timeout,
                    };
                    let decide = XMsg::Decide {
                        txid,
                        commit: verdict,
                    }
                    .encode();
                    self.groups[coordinator].client_submit(agent, decide, false);
                }
            }
            (
                Phase::Deciding {
                    commit,
                    conflict,
                    timed_out,
                    ..
                },
                XReply::DecisionLogged {
                    commit: recorded, ..
                },
            ) => {
                // The record is authoritative (first writer wins there).
                let commit = *commit && recorded;
                let (conflict, timed_out) = (*conflict, *timed_out);
                let txid = init.txid;
                let shards = init.shards.clone();
                init.phase = Phase::Finishing {
                    commit,
                    conflict,
                    timed_out,
                    pending: shards.iter().copied().collect(),
                    sub_ops_applied: 0,
                    deadline: now + self.driver.finish_timeout,
                };
                let msg = if commit {
                    XMsg::Commit { txid }
                } else {
                    XMsg::Abort { txid }
                };
                for s in shards {
                    self.groups[s].client_submit(agent, msg.encode(), false);
                }
            }
            // Only real finish acks count: a late vote or DecisionLogged for
            // this txid (e.g. an Abort queued behind a still-outstanding
            // Prepare on a slow shard) must not settle the transaction early.
            (
                Phase::Finishing {
                    pending,
                    sub_ops_applied,
                    ..
                },
                ack @ (XReply::Committed { .. } | XReply::Aborted { .. }),
            ) => {
                if let XReply::Committed { replies, .. } = &ack {
                    *sub_ops_applied += replies.len() as u64;
                }
                pending.remove(&shard);
                if pending.is_empty() {
                    self.settle_finish(i);
                }
            }
            _ => {}
        }
    }

    fn check_deadlines(&mut self, i: usize, now: SimTime) {
        enum Action {
            None,
            SettleBatch { sub_ops: u64 },
            DecideAbort { conflict: bool },
            AbandonCommit,
            AbortAll { conflict: bool, timed_out: bool },
            SettleFinish,
        }
        let action = {
            let init = &mut self.driver.initiators[i];
            match &mut init.phase {
                Phase::Batch { sub_ops, deadline } if now >= *deadline => {
                    Action::SettleBatch { sub_ops: *sub_ops }
                }
                Phase::Preparing {
                    tally,
                    conflict,
                    deadline,
                } if now >= *deadline => {
                    tally.timeout();
                    Action::DecideAbort {
                        conflict: *conflict,
                    }
                }
                Phase::Deciding {
                    commit,
                    conflict,
                    timed_out,
                    deadline,
                } if now >= *deadline => {
                    if *commit {
                        Action::AbandonCommit
                    } else {
                        Action::AbortAll {
                            conflict: *conflict,
                            timed_out: *timed_out,
                        }
                    }
                }
                Phase::Finishing { deadline, .. } if now >= *deadline => Action::SettleFinish,
                _ => Action::None,
            }
        };
        let agent = self.agent(i);
        match action {
            Action::None => {}
            Action::SettleBatch { sub_ops } => {
                // A submitted AtomicBatch cannot abort: the agent client
                // retransmits until the (possibly stalled) group orders it,
                // so the truthful record is "committed"; the late ack is
                // dropped by the stale-txid filter when it arrives.
                self.driver.metrics.batch_timeouts += 1;
                self.driver.metrics.local_txs += 1;
                self.driver.metrics.committed_sub_ops += sub_ops;
                self.finish(i, TxOutcome::Committed);
            }
            Action::DecideAbort { conflict } => {
                let (txid, coordinator) = (
                    self.driver.initiators[i].txid,
                    self.driver.initiators[i].coordinator,
                );
                self.driver.initiators[i].phase = Phase::Deciding {
                    commit: false,
                    conflict,
                    timed_out: true,
                    deadline: now + self.driver.finish_timeout,
                };
                let decide = XMsg::Decide {
                    txid,
                    commit: false,
                }
                .encode();
                self.groups[coordinator].client_submit(agent, decide, false);
            }
            Action::AbandonCommit => {
                // All participants voted yes but the commit decision could
                // not be logged (coordinator group unreachable): abandoning
                // is the only safe move — no Commit may be sent without a
                // durable decision, and sending Abort could contradict the
                // Decide still queued there. Participants keep their locks
                // until the coordinator heals and `resolve_unresolved`
                // recovers the verdict via QueryDecision.
                self.driver.metrics.tx_unresolved += 1;
                self.finish(i, TxOutcome::Unresolved);
            }
            Action::AbortAll {
                conflict,
                timed_out,
            } => {
                // The abort verdict needs no durable record (presumed
                // abort): release the participants directly.
                let (txid, shards) = (
                    self.driver.initiators[i].txid,
                    self.driver.initiators[i].shards.clone(),
                );
                self.driver.initiators[i].phase = Phase::Finishing {
                    commit: false,
                    conflict,
                    timed_out,
                    pending: shards.iter().copied().collect(),
                    sub_ops_applied: 0,
                    deadline: now + self.driver.finish_timeout,
                };
                for s in shards {
                    self.groups[s].client_submit(agent, XMsg::Abort { txid }.encode(), false);
                }
            }
            Action::SettleFinish => {
                self.driver.metrics.finish_timeouts += 1;
                self.settle_finish(i);
            }
        }
    }

    /// Count and log the outcome of a finishing transaction, then go idle.
    fn settle_finish(&mut self, i: usize) {
        let Phase::Finishing {
            commit,
            conflict,
            timed_out,
            sub_ops_applied,
            ..
        } = std::mem::replace(&mut self.driver.initiators[i].phase, Phase::Idle)
        else {
            return;
        };
        if commit {
            self.driver.metrics.tx_committed += 1;
            self.driver.metrics.committed_sub_ops += sub_ops_applied;
            self.finish(i, TxOutcome::Committed);
        } else {
            self.driver.metrics.tx_aborted += 1;
            if conflict {
                self.driver.metrics.aborts_conflict += 1;
            }
            if timed_out {
                self.driver.metrics.aborts_timeout += 1;
            }
            self.finish(i, TxOutcome::Aborted);
        }
    }

    /// Record the transaction's outcome and return the initiator to idle.
    fn finish(&mut self, i: usize, outcome: TxOutcome) {
        let init = &mut self.driver.initiators[i];
        self.driver.tx_log.push(TxRecord {
            txid: init.txid,
            shards: init.shards.clone(),
            coordinator: init.coordinator,
            single_group: init.shards.len() == 1,
            outcome,
        });
        init.phase = Phase::Idle;
    }

    fn start_next(&mut self, i: usize, now: SimTime) {
        let agent = self.agent(i);
        let map = self.router.map();
        let init = &mut self.driver.initiators[i];
        let Some(gen) = &mut init.gen else { return };
        let seq = init.next_seq;
        init.next_seq += 1;
        let tx = gen(seq);
        // Initiator index in the high bits keeps txids globally unique.
        let txid: TxId = ((i as u64 + 1) << 40) | seq;
        let routed = match XShardOp::route(txid, tx.sub_ops, &map) {
            Ok(routed) => routed,
            Err(RouteError::NoKeys | RouteError::CrossShard { .. }) => {
                self.driver.metrics.rejected_draws += 1;
                return; // skip this draw; next pump tries the next one
            }
        };
        init.txid = txid;
        init.coordinator = routed.coordinator as usize;
        init.shards = routed.legs.iter().map(|l| l.shard as usize).collect();
        if routed.is_single_shard() {
            let leg = routed.legs.into_iter().next().expect("one leg");
            init.phase = Phase::Batch {
                sub_ops: leg.ops.len() as u64,
                deadline: now + self.driver.finish_timeout,
            };
            let op = XMsg::AtomicBatch { txid, ops: leg.ops }.encode();
            self.groups[leg.shard as usize].client_submit(agent, op, false);
        } else {
            let tally = TxCoordinator::new(routed.legs.iter().map(|l| l.shard));
            init.phase = Phase::Preparing {
                tally,
                conflict: false,
                deadline: now + self.driver.prepare_timeout,
            };
            for leg in routed.legs {
                let op = XMsg::Prepare { txid, ops: leg.ops }.encode();
                self.groups[leg.shard as usize].client_submit(agent, op, false);
            }
        }
    }
}

/// Is `txid` at or below the GC floor of `shard`'s group in `floors`?
fn gc_evicted(floors: &[BTreeMap<u64, TxId>], shard: usize, txid: TxId) -> bool {
    floors[shard]
        .get(&(txid >> pbft_xshard::xshard::TX_STRIPE_SHIFT))
        .is_some_and(|&floor| txid <= floor)
}

/// What a [`Deployment::resolve_unresolved`] pass settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose logged decision was commit: commits delivered to
    /// every participant.
    pub committed: u64,
    /// Transactions with no logged decision: presumed abort logged, aborts
    /// delivered, held participant locks released.
    pub aborted: u64,
}

/// A throughput/abort measurement over a window of shared virtual time.
#[derive(Debug, Clone, Copy)]
pub struct XShardThroughput {
    /// Committed application work (background ops + committed transaction
    /// sub-ops) per second of virtual time.
    pub committed_tps: f64,
    /// Transactions committed in the window (both paths).
    pub tx_committed: u64,
    /// Transactions aborted in the window.
    pub tx_aborted: u64,
}

impl XShardThroughput {
    /// Aborted / (committed + aborted); 0.0 when no transactions ran.
    pub fn abort_rate(&self) -> f64 {
        let total = self.tx_committed + self.tx_aborted;
        if total == 0 {
            0.0
        } else {
            self.tx_aborted as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::workload::{cross_null_txs, keyed_null_ops};

    fn small_spec(shards: usize, initiators: usize) -> DeploymentSpec {
        DeploymentSpec {
            shards,
            base: ClusterSpec {
                num_clients: 2,
                ..Default::default()
            },
            initiators,
            ..Default::default()
        }
    }

    #[test]
    fn cross_shard_transactions_commit_and_audit_clean() {
        let mut xc = Deployment::build(small_spec(2, 2));
        let map = xc.router().map();
        xc.start_workload(|s, c| keyed_null_ops(64, (s * 10 + c) as u64));
        xc.start_transactions(|i| cross_null_txs(map, 64, 1 << 20, i as u64));
        xc.run_for(SimDuration::from_millis(800));
        xc.quiesce(SimDuration::from_millis(500));
        let m = xc.tx_metrics();
        assert!(m.tx_committed > 0, "2PC transactions must commit: {m:?}");
        assert_eq!(m.committed_sub_ops, (2 * m.tx_committed));
        assert!(
            xc.background_completed() > 0,
            "background fast path keeps running"
        );
        assert!(xc.drained(), "all initiators idle after quiesce");
        xc.audit_atomicity(SimDuration::from_millis(200))
            .expect("atomic");
        assert!(xc.states_converged());
    }

    #[test]
    fn conflicting_transactions_abort_and_release_locks() {
        // Two initiators fighting over a two-key space: conflicts are near
        // certain, and every abort must release its locks so later
        // transactions can still commit.
        let mut xc = Deployment::build(small_spec(2, 2));
        let map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(map, 32, 4, i as u64));
        xc.run_for(SimDuration::from_secs(1));
        xc.quiesce(SimDuration::from_millis(500));
        let m = xc.tx_metrics();
        assert!(m.tx_committed > 0, "the system must not livelock: {m:?}");
        assert!(m.aborts_conflict > 0, "a 4-key space must conflict: {m:?}");
        xc.audit_atomicity(SimDuration::from_millis(200))
            .expect("atomic");
    }

    #[test]
    fn isolated_participant_times_out_to_abort() {
        let mut xc = Deployment::build(DeploymentSpec {
            prepare_timeout: SimDuration::from_millis(50),
            finish_timeout: SimDuration::from_millis(50),
            ..small_spec(2, 1)
        });
        let map = xc.router().map();
        xc.group_mut(1).isolate_from_clients();
        xc.start_transactions(|i| cross_null_txs(map, 32, 1 << 20, i as u64));
        xc.run_for(SimDuration::from_millis(600));
        let m = xc.tx_metrics();
        assert!(
            m.aborts_timeout > 0,
            "unreachable participant must abort: {m:?}"
        );
        assert_eq!(
            m.tx_committed, 0,
            "no transaction can commit without shard 1"
        );
        // Heal, drain the backlog, and every outcome must audit atomic.
        xc.group_mut(1).restore_links();
        xc.quiesce(SimDuration::from_secs(2));
        xc.audit_atomicity(SimDuration::from_millis(500))
            .expect("atomic after heal");
    }

    #[test]
    fn batch_to_an_isolated_shard_times_out_instead_of_wedging() {
        let mut xc = Deployment::build(DeploymentSpec {
            finish_timeout: SimDuration::from_millis(50),
            ..small_spec(2, 1)
        });
        let victim = xc.router().route_key(b"same");
        xc.group_mut(victim).isolate_from_clients();
        // Every draw is a single-group batch homed on the isolated shard.
        xc.start_transactions(|_| {
            Box::new(|seq| crate::workload::TxOp {
                sub_ops: vec![pbft_xshard::xshard::SubOp {
                    keys: vec![b"same".to_vec()],
                    op: seq.to_be_bytes().to_vec(),
                }],
            })
        });
        xc.run_for(SimDuration::from_millis(300));
        let m = xc.tx_metrics();
        assert!(m.batch_timeouts > 0, "the initiator must not wedge: {m:?}");
        xc.stop_transactions();
        xc.run_for(SimDuration::from_millis(100));
        assert!(xc.drained(), "initiator returns to idle after each timeout");
        // After healing, the queued batches execute (they cannot abort) and
        // the committed records audit clean.
        xc.group_mut(victim).restore_links();
        xc.quiesce(SimDuration::from_secs(2));
        xc.audit_atomicity(SimDuration::from_millis(500))
            .expect("atomic after heal");
    }

    #[test]
    fn split_under_live_2pc_stays_atomic_and_stale_routes_recover() {
        // Client 0 of an elastic group is the admin client; one more
        // client keeps the two workload clients of the static layout.
        let mut spec = small_spec(2, 2);
        spec.elastic = true;
        spec.base.num_clients += 1;
        let mut xc = Deployment::build(spec);
        let old_map = xc.router().map();
        xc.start_transactions(|i| cross_null_txs(old_map, 64, 1 << 20, i as u64));
        // Transactions mid-flight, then split group 0 underneath them: a
        // prepare staged before the flip completes in the old epoch (the
        // logged decision is sacred), everything else re-routes.
        xc.run_for(SimDuration::from_millis(120));
        let report = xc.split(0, |_, _| Vec::new());
        assert_eq!(report.plan.new_map.epoch(), 1);
        assert_eq!(xc.shards(), 3);
        xc.run_for(SimDuration::from_millis(200));
        // A population that never heard of the split: rewind the shared
        // router to the epoch-0 map and keep drawing. Prepares for moved
        // keys now land on a group that no longer owns them; the driver
        // must turn each WrongEpoch into a no-vote abort, install the
        // carried map, and commit the successor draws under epoch 1.
        xc.router().force(old_map);
        xc.run_for(SimDuration::from_millis(300));
        xc.quiesce(SimDuration::from_millis(500));
        let m = xc.tx_metrics();
        assert!(m.tx_committed > 0, "{m:?}");
        assert!(
            xc.router_metrics().epoch_retries > 0,
            "stale-routed prepares must be rejected and retried: {m:?}"
        );
        assert_eq!(
            xc.router().epoch(),
            1,
            "the rejection's carried map re-installs itself"
        );
        assert!(xc.drained(), "all initiators idle after quiesce");
        xc.audit_atomicity(SimDuration::from_millis(500))
            .expect("atomic across the split");
        assert!(xc.states_converged());
    }

    #[test]
    fn single_group_transactions_take_the_batch_path() {
        let mut xc = Deployment::build(small_spec(2, 1));
        // A generator whose two sub-ops share one key: always single-leg.
        xc.start_transactions(|_| {
            Box::new(|seq| crate::workload::TxOp {
                sub_ops: vec![
                    pbft_xshard::xshard::SubOp {
                        keys: vec![b"same".to_vec()],
                        op: seq.to_be_bytes().to_vec(),
                    },
                    pbft_xshard::xshard::SubOp {
                        keys: vec![b"same".to_vec()],
                        op: vec![1],
                    },
                ],
            })
        });
        xc.run_for(SimDuration::from_millis(400));
        xc.quiesce(SimDuration::from_millis(300));
        let m = xc.tx_metrics();
        assert!(m.local_txs > 0, "{m:?}");
        assert_eq!(
            m.tx_committed, 0,
            "no 2PC rounds for single-group transactions"
        );
        assert_eq!(m.committed_sub_ops, 2 * m.local_txs);
        assert!(xc.tx_log().iter().all(|r| r.single_group));
        xc.audit_atomicity(SimDuration::from_millis(200))
            .expect("atomic");
    }
}
