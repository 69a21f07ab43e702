//! View changes: electing a new primary while preserving committed requests.
//!
//! Follows the Castro–Liskov construction: view-change votes carry the
//! sender's stable checkpoint and its prepared certificates; the new primary
//! collects 2f+1 votes, recomputes the pre-prepare set "O" and broadcasts a
//! new-view message; backups recompute O independently and verify it.
//!
//! Simplification (listed under "Deliberate deviations" in
//! `ARCHITECTURE.md`): prepared certificates are
//! carried as the original pre-prepare without the 2f prepare attestations,
//! which is sound for crash faults and for the paper's experiments; full
//! Byzantine-proof view changes require signed prepares (as the original
//! PBFT uses when configured with signatures).

use pbft_crypto::Digest;

use crate::app::NonDet;
use crate::messages::{Message, NewViewMsg, PrePrepareMsg, PreparedProof, ViewChangeMsg};
use crate::output::{HandleResult, NetTarget, Output, TimerKind};
use crate::types::{SeqNum, View};

use super::{QueuedRequest, Replica};

impl Replica {
    /// Vote to move to `target` view.
    pub(crate) fn start_view_change(&mut self, target: View, now_ns: u64, res: &mut HandleResult) {
        if self.vc.target == Some(target) || target <= self.view {
            return;
        }
        self.in_view_change = true;
        self.vc.target = Some(target);
        self.metrics.view_changes_started += 1;
        let prepared = self
            .log
            .prepared_proofs_above(self.stable.0)
            .into_iter()
            .map(|preprepare| PreparedProof { preprepare })
            .collect();
        let vc = ViewChangeMsg {
            new_view: target,
            last_stable_seq: self.stable.0,
            stable_root: self.stable.1,
            prepared,
            replica: self.id(),
        };
        let me = self.id();
        self.vc
            .votes
            .entry(target)
            .or_default()
            .insert(me, vc.clone());
        if self.is_linear() {
            // Linear rotation: the vote goes to the incoming leader alone —
            // O(n) messages per rotation across the group instead of the
            // O(n²) all-to-all exchange. The leader already counted its own
            // vote above, so it sends nothing.
            let leader = self.cfg.primary_of(target);
            if leader != me {
                self.send_authenticated(NetTarget::Replica(leader), Message::ViewChange(vc), res);
            }
        } else {
            self.multicast(Message::ViewChange(vc), res);
        }
        // Exponential backoff across failed rounds (knobs in `PbftConfig`).
        res.outputs.push(Output::SetTimer {
            kind: TimerKind::NewViewTimeout,
            delay_ns: self.cfg.view_change_delay_ns(target - self.view),
        });
        self.try_build_new_view(target, now_ns, res);
    }

    pub(crate) fn on_view_change(
        &mut self,
        vc: ViewChangeMsg,
        now_ns: u64,
        res: &mut HandleResult,
    ) {
        let w = vc.new_view;
        if w <= self.view {
            return;
        }
        self.vc.votes.entry(w).or_default().insert(vc.replica, vc);
        // Liveness rule: join a view change that f+1 replicas already voted
        // for (prevents a partitioned minority from stalling us).
        let have = self.vc.votes.get(&w).map_or(0, |m| m.len());
        let voting_for = self.vc.target.unwrap_or(self.view);
        if have >= self.cfg.weak_quorum() && w > voting_for {
            self.start_view_change(w, now_ns, res);
        }
        self.try_build_new_view(w, now_ns, res);
    }

    /// If this replica is the primary of `w` and holds a quorum of votes,
    /// build and broadcast the new-view message.
    fn try_build_new_view(&mut self, w: View, now_ns: u64, res: &mut HandleResult) {
        if self.cfg.primary_of(w) != self.id() || self.view >= w {
            return;
        }
        let Some(votes) = self.vc.votes.get(&w) else {
            return;
        };
        if votes.len() < self.cfg.quorum() {
            return;
        }
        let vcs: Vec<ViewChangeMsg> = votes.values().take(self.cfg.quorum()).cloned().collect();
        let (min_s, max_s, o) = compute_new_view_preprepares(&vcs, w);
        let nv = NewViewMsg {
            view: w,
            view_changes: vcs.clone(),
            pre_prepares: o.clone(),
        };
        self.multicast(Message::NewView(nv), res);
        let hint = stable_hint(&vcs);
        self.metrics.new_views_entered += 1;
        self.enter_new_view(w, min_s, max_s, o, hint, now_ns, res);
    }

    pub(crate) fn on_new_view(&mut self, nv: NewViewMsg, now_ns: u64, res: &mut HandleResult) {
        if nv.view < self.view || (nv.view == self.view && !self.in_view_change) {
            return;
        }
        if nv.view_changes.len() < self.cfg.quorum() {
            return;
        }
        // Independently recompute O and verify the primary's version.
        let (min_s, max_s, expected) = compute_new_view_preprepares(&nv.view_changes, nv.view);
        if expected.len() != nv.pre_prepares.len()
            || expected
                .iter()
                .zip(nv.pre_prepares.iter())
                .any(|(a, b)| a.batch_digest() != b.batch_digest())
        {
            return; // malformed new-view: stay in view change, timeout advances us
        }
        let hint = stable_hint(&nv.view_changes);
        self.metrics.new_views_entered += 1;
        self.enter_new_view(nv.view, min_s, max_s, nv.pre_prepares, hint, now_ns, res);
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_new_view(
        &mut self,
        w: View,
        min_s: SeqNum,
        max_s: SeqNum,
        o: Vec<PrePrepareMsg>,
        stable_hint: Option<(SeqNum, Digest)>,
        now_ns: u64,
        res: &mut HandleResult,
    ) {
        self.view = w;
        self.in_view_change = false;
        self.vc.target = None;
        self.vc.votes.retain(|&v, _| v > w);
        self.rollback_tentative(res);
        self.seq_assign = self.seq_assign.max(max_s).max(min_s);
        // If our stable checkpoint is behind the quorum's, fetch it.
        if self.stable.0 < min_s {
            if let Some((seq, root)) = stable_hint {
                if seq > self.stable.0 {
                    self.start_state_transfer(seq, root, res);
                }
            }
        }
        for pp in o {
            // Process every re-issued pre-prepare — *including* sequences
            // this replica already executed in a previous view. Peers that
            // lag may need this replica's prepare/commit votes to
            // re-assemble quorums in the new view: if the advanced replicas
            // sat out, a group whose checkpoint never stabilized past the
            // lag point could never commit the gap again (the lagging
            // members cannot state-transfer to a checkpoint only a minority
            // holds) — a permanent wedge. Re-executing is not a risk:
            // execution is keyed off `last_executed`, which never moves
            // backwards here (the tentative prefix was already rolled back
            // above).
            self.on_preprepare(pp, now_ns, true, res);
        }
        // Stale pre-prepares beyond the re-issued range would otherwise sit
        // in the log counting against the congestion window forever — the
        // new view never re-agrees them (see `drop_stale_above`).
        self.log.drop_stale_above(max_s, w, &mut self.bodies);
        self.vc_timer_armed = false;
        self.arm_vc_timer(res);
        res.outputs.push(Output::CancelTimer {
            kind: TimerKind::NewViewTimeout,
        });
        self.try_execute(now_ns, res);
        // If we are the new primary, requests observed as a backup but never
        // ordered become our initial batching queue, in digest order.
        if self.is_primary() {
            for digest in std::mem::take(&mut self.observed) {
                let req = &self.bodies[&digest]; // an observed digest names a stored body
                let record = self.clients.entry(req.client).or_default();
                if req.timestamp > record.executed_ts().max(record.assigned)
                    && !self.pending_digests.contains(&digest)
                {
                    self.pending_digests.insert(digest);
                    record.assigned = req.timestamp;
                    let big = self.cfg.is_big(req.encoded_len());
                    self.pending.push_back(QueuedRequest { digest, big });
                }
            }
        }
        self.try_issue(now_ns, res);
    }

    /// Roll tentatively executed batches back to the last stable checkpoint
    /// and re-execute the committed prefix (§2.1 tentative execution).
    pub(crate) fn rollback_tentative(&mut self, res: &mut HandleResult) {
        let has_tentative = self.log.iter().any(|(_, e)| e.executed && e.tentative);
        if !has_tentative {
            return;
        }
        let base = self.stable.0;
        let Some((snap, chain)) = self.checkpoints.get(&base).cloned() else {
            return; // no snapshot to roll back to (cannot happen: we retain stable)
        };
        {
            let mut st = self.state.borrow_mut();
            st.restore(&snap).expect("stable snapshot matches geometry");
        }
        // The app (and any wrapper keeping region-backed tables in the
        // `APP_WRAPPER_PAGES` section) plus the library's own region mirrors
        // must all rewind to the restored image before re-execution.
        self.reload_region_tables();
        self.exec_chain = chain;
        let old_last = self.last_executed;
        self.last_executed = base;
        // Re-execute the committed prefix; stop at the first non-committed
        // batch (it will be re-agreed in the new view).
        for seq in base + 1..=old_last {
            let Some(e) = self.log.get(seq) else { break };
            if !e.committed || e.preprepare.is_none() {
                break;
            }
            // The batch ran before: its bodies are in its own slot.
            let mut missing = super::execution::unheld_bodies(e, &self.bodies);
            self.copy_bodies_held_elsewhere(&mut missing);
            if !missing.is_empty() {
                break;
            }
            self.execute_slot(seq, true, Vec::new(), res);
            // Take interval-boundary checkpoints exactly like the normal
            // execution path: the state at this instant *is* the post-`seq`
            // image, so the snapshot is correct. Skipping them here left a
            // replica that rolled back through a boundary permanently
            // unable to vote for it — and a group where every member did
            // (view-change churn) could never stabilize the boundary, never
            // advance the low watermark, and wedged at the high watermark.
            self.maybe_checkpoint(seq, res);
        }
        // Anything beyond the committed prefix is no longer executed.
        let last = self.last_executed;
        for seq in last + 1..=old_last {
            if let Some(e) = self.log.get_mut(seq) {
                e.executed = false;
                e.tentative = false;
            }
        }
        // The state is back on the committed prefix: no tentative effect
        // survives, so every contention-gated read can be answered.
        self.tentative_effects.clear();
        self.flush_deferred_reads(0, res);
    }

    pub(crate) fn on_new_view_timeout(&mut self, now_ns: u64, res: &mut HandleResult) {
        if !self.in_view_change {
            return;
        }
        let next = self.vc.target.unwrap_or(self.view) + 1;
        self.start_view_change(next, now_ns, res);
    }
}

/// Compute `(min_s, max_s, O)` from a set of view-change votes — used
/// identically by the new primary (to build) and by backups (to verify).
pub(crate) fn compute_new_view_preprepares(
    vcs: &[ViewChangeMsg],
    new_view: View,
) -> (SeqNum, SeqNum, Vec<PrePrepareMsg>) {
    let min_s = vcs.iter().map(|v| v.last_stable_seq).max().unwrap_or(0);
    let max_s = vcs
        .iter()
        .flat_map(|v| v.prepared.iter().map(|p| p.preprepare.seq))
        .max()
        .unwrap_or(min_s)
        .max(min_s);
    let mut o = Vec::new();
    for seq in min_s + 1..=max_s {
        let best = vcs
            .iter()
            .flat_map(|v| v.prepared.iter())
            .filter(|p| p.preprepare.seq == seq)
            .max_by_key(|p| p.preprepare.view);
        let pp = match best {
            Some(p) => PrePrepareMsg {
                view: new_view,
                seq,
                nondet: p.preprepare.nondet,
                entries: p.preprepare.entries.clone(),
            },
            // Gap: fill with a null request so the sequence stays dense.
            None => PrePrepareMsg {
                view: new_view,
                seq,
                nondet: NonDet::default(),
                entries: Vec::new(),
            },
        };
        o.push(pp);
    }
    (min_s, max_s, o)
}

/// The stable checkpoint to adopt from a vote set: the highest
/// `(last_stable_seq, stable_root)` claimed. (With ≤ f faulty voters in a
/// 2f+1 set this can over-claim; the fetcher validates every page against
/// the root, and a bogus root simply fails to transfer and is retried —
/// see "Deliberate deviations" in `ARCHITECTURE.md`.)
fn stable_hint(vcs: &[ViewChangeMsg]) -> Option<(SeqNum, Digest)> {
    vcs.iter()
        .map(|v| (v.last_stable_seq, v.stable_root))
        .max_by_key(|(s, _)| *s)
}
