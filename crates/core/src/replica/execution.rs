//! Normal-case ordering and execution: batching, the 3-phase agreement,
//! tentative execution, checkpoints, and the big-request hazard of §2.4.

use pbft_crypto::{Digest, Sha256};

use crate::app::NonDet;
use crate::log::LogEntry;
use crate::membership::{JoinOutcome, SECTION_FULL};
use crate::messages::{
    BatchEntry, BodyFetchMsg, CheckpointMsg, CommitMsg, Message, Operation, PrePrepareMsg,
    PrepareMsg, QuorumCertMsg, ReplyMsg, RequestMsg,
};
use crate::output::{HandleResult, NetTarget, Output, TimerKind};
use crate::session::SessionCtx;
use crate::types::{ClientId, FoldMap, FoldSet, ReplicaId, SeqNum};

use super::{
    reply_output, ClientRecord, QueuedRequest, Replica, CHECKPOINT_STEP_PAGES,
    SETTLE_PAGES_PER_BATCH,
};

/// Sessions idle longer than this (60 s) are eligible for cleanup when the
/// client table is full (paper §3.1).
pub(super) const SESSION_STALE_NS: u64 = 60_000_000_000;

impl Replica {
    /// Agreements assigned but not yet executed (the congestion-window
    /// gauge).
    pub(crate) fn requests_in_flight(&self) -> u64 {
        self.log
            .range(self.last_executed + 1..)
            .filter(|(_, e)| !e.executed && e.preprepare.is_some())
            .count() as u64
    }

    /// Primary: issue pre-prepares while the congestion window allows, each
    /// with everything pending up to the batch limit (§2.1: the primary
    /// postpones while its window is full, then includes "as many
    /// outstanding request messages as possible"). Nothing polls and no
    /// clock gates it: a request's arrival, an execution freeing window
    /// room, a new view, and a stable checkpoint or a transfer moving the
    /// high watermark all call back here.
    pub(crate) fn try_issue(&mut self, now_ns: u64, res: &mut HandleResult) {
        if !self.is_primary() {
            return;
        }
        let window = self.cfg.effective_window();
        let max_batch = self.cfg.effective_max_batch();
        while !self.pending.is_empty() && self.requests_in_flight() < window {
            let seq = self.seq_assign + 1;
            if !self.log.in_watermarks(seq) {
                return;
            }
            let take = self.pending.len().min(max_batch);
            let mut entries = Vec::with_capacity(take);
            for _ in 0..take {
                let QueuedRequest { digest, big } = self.pending.pop_front().expect("non-empty");
                self.pending_digests.remove(&digest);
                // A queued digest names a stored body, which stays there
                // until the batch executes; a small one also rides inline.
                let req = &self.bodies[&digest];
                entries.push(BatchEntry {
                    digest,
                    client: req.client,
                    timestamp: req.timestamp,
                    full: (!big).then(|| req.clone()),
                });
            }
            // Non-determinism upcall: the primary attaches its clock and a
            // random value (deterministically derived here so simulations
            // reproduce).
            let random = Digest::of_parts(&[b"nondet", &seq.to_be_bytes()]).prefix_u64();
            let nondet = self.app.make_nondet(now_ns, random);
            let pp = PrePrepareMsg {
                view: self.view,
                seq,
                nondet,
                entries,
            };
            let digest = pp.batch_digest();
            res.counts.digest_bytes += 64 + 48 * pp.entries.len() as u64;
            self.seq_assign = seq;
            if let Some(e) = self.log.entry_for(seq, self.view, digest, &mut self.bodies) {
                e.preprepare = Some(pp.clone());
            }
            self.multicast(Message::PrePrepare(pp), res);
            // The primary's pre-prepare counts as its prepare; check whether
            // f = 0 degenerate groups can progress immediately.
            self.update_prepared(seq, now_ns, res);
        }
    }

    /// Store the inline bodies of `pp` that this replica never admitted.
    pub(crate) fn stash_inline_bodies(&mut self, pp: &PrePrepareMsg) {
        for e in &pp.entries {
            if let Some(req) = &e.full {
                self.bodies.entry(e.digest).or_insert_with(|| req.clone());
            }
        }
    }

    /// Accept a pre-prepare from the primary. `replaying` marks re-issued
    /// pre-prepares (view changes, recovery) whose timestamp validation
    /// follows the §2.5 replay policy.
    pub(crate) fn on_preprepare(
        &mut self,
        pp: PrePrepareMsg,
        now_ns: u64,
        replaying: bool,
        res: &mut HandleResult,
    ) {
        if self.in_view_change || pp.view != self.view {
            return;
        }
        if !self.log.in_watermarks(pp.seq) {
            return;
        }
        // Non-determinism validation (§2.5). Replayed pre-prepares carry old
        // timestamps; whether to skip validation then is the configurable
        // fix the paper discusses. Retransmissions of already-seen sequence
        // numbers are replays by definition.
        let replay_like = replaying || self.recovering || pp.seq <= self.max_pp_seen;
        self.max_pp_seen = self.max_pp_seen.max(pp.seq);
        let skip = replay_like && self.cfg.nondet.skip_validation_on_replay;
        if !skip
            && !self
                .app
                .validate_nondet(&pp.nondet, now_ns, self.cfg.nondet.validate_window_ns)
        {
            self.metrics.nondet_validation_failures += 1;
            return;
        }
        // An inline body is stored and executed under its entry's digest,
        // which is all the batch digest covers: one that is not the request
        // the entry names would let a Byzantine primary hand some backups
        // one body and the rest another under one agreement.
        if !pp
            .entries
            .iter()
            .all(|e| e.body_matches(&mut res.counts.digest_bytes))
        {
            return;
        }
        let digest = pp.batch_digest();
        res.counts.digest_bytes += 64 + 48 * pp.entries.len() as u64;
        let me_primary = self.is_primary();
        let (view, seq) = (pp.view, pp.seq);
        match self.log.entry_for(seq, view, digest, &mut self.bodies) {
            Some(e) if e.preprepare.is_some() => return, // duplicate
            Some(_) => {}
            None => {
                // Conflicting assignment for (view, seq): Byzantine primary.
                self.start_view_change(self.view + 1, now_ns, res);
                return;
            }
        }
        self.stash_inline_bodies(&pp);
        let me = self.id();
        if let Some(e) = self.log.get_mut(seq) {
            e.preprepare = Some(pp);
            if !me_primary {
                e.prepares.insert(me);
            }
        }
        self.arm_vc_timer(res);
        if !me_primary {
            let prepare = PrepareMsg {
                view,
                seq,
                digest,
                replica: me,
            };
            if self.is_linear() {
                // Linear mode: the prepare vote goes to the leader alone,
                // which aggregates the quorum into a PrepareQC broadcast.
                let leader = self.cfg.primary_of(view);
                self.send_authenticated(NetTarget::Replica(leader), Message::Prepare(prepare), res);
            } else {
                self.multicast(Message::Prepare(prepare), res);
            }
        }
        self.update_prepared(seq, now_ns, res);
        // A retransmitted pre-prepare can be the last missing piece of an
        // entry whose prepares and commits raced ahead of it (status-driven
        // recovery re-sends all three, and the quorum paths above early-
        // return on duplicates) — kick execution directly so a lagging
        // replica drains the committed prefix it just completed.
        self.try_execute(now_ns, res);
    }

    pub(crate) fn on_prepare(&mut self, p: PrepareMsg, now_ns: u64, res: &mut HandleResult) {
        if self.in_view_change || p.view != self.view || !self.log.in_watermarks(p.seq) {
            return;
        }
        if p.replica == self.cfg.primary_of(p.view) {
            return; // the primary never sends prepares
        }
        let Some(e) = self
            .log
            .entry_for(p.seq, p.view, p.digest, &mut self.bodies)
        else {
            return; // digest conflict: ignore the minority vote
        };
        e.prepares.insert(p.replica);
        self.update_prepared(p.seq, now_ns, res);
    }

    /// prepared(m, v, n, i): pre-prepare logged + 2f prepares from distinct
    /// backups (the pre-prepare stands in for the primary's prepare).
    pub(crate) fn update_prepared(&mut self, seq: SeqNum, now_ns: u64, res: &mut HandleResult) {
        let needed = 2 * self.cfg.f;
        let me = self.id();
        let linear = self.is_linear();
        let Some(e) = self.log.get_mut(seq) else {
            return;
        };
        if e.prepared || e.preprepare.is_none() {
            return;
        }
        // 2f prepares from distinct backups; the pre-prepare stands in for
        // the primary's prepare (so the primary also waits for 2f backups,
        // while a backup's own prepare is already in the set).
        let primary = self.cfg.primary_of(e.view);
        if linear && me != primary {
            // Linear mode: prepare votes flow to the leader only, so backups
            // never accumulate a quorum here — they mark the slot prepared
            // when the leader's PrepareQC arrives (`on_prepare_qc`).
            return;
        }
        let backup_prepares = e.prepares.len() - usize::from(e.prepares.contains(primary));
        if backup_prepares < needed {
            return;
        }
        e.prepared = true;
        let digest = e.digest;
        let view = e.view;
        e.commits.insert(me);
        if linear {
            // The leader certifies the prepare quorum in a single broadcast;
            // backups answer with commit votes addressed to the leader.
            let voters = e.prepares.iter().collect();
            self.multicast(
                Message::PrepareQC(QuorumCertMsg {
                    view,
                    seq,
                    digest,
                    voters,
                }),
                res,
            );
        } else {
            let commit = CommitMsg {
                view,
                seq,
                digest,
                replica: me,
            };
            self.multicast(Message::Commit(commit), res);
        }
        if self.cfg.tentative_execution {
            self.try_execute(now_ns, res);
        }
        self.update_committed(seq, now_ns, res);
    }

    pub(crate) fn on_commit(&mut self, c: CommitMsg, now_ns: u64, res: &mut HandleResult) {
        if self.in_view_change || c.view != self.view || !self.log.in_watermarks(c.seq) {
            return;
        }
        let Some(e) = self
            .log
            .entry_for(c.seq, c.view, c.digest, &mut self.bodies)
        else {
            return;
        };
        e.commits.insert(c.replica);
        self.update_committed(c.seq, now_ns, res);
    }

    /// committed-local: prepared + 2f+1 commits.
    pub(crate) fn update_committed(&mut self, seq: SeqNum, now_ns: u64, res: &mut HandleResult) {
        let quorum = self.cfg.quorum();
        let me = self.id();
        let linear = self.is_linear();
        let Some(e) = self.log.get_mut(seq) else {
            return;
        };
        if e.committed {
            // A retransmitted commit for an entry that is committed but not
            // yet executed (its pre-prepare or an earlier batch arrived
            // late) must still kick the execution loop — every other quorum
            // path early-returns on duplicates, and a lagging replica being
            // helped by status retransmissions has no other trigger left.
            if !e.executed {
                self.try_execute(now_ns, res);
            }
            return;
        }
        if !e.prepared || e.commits.len() < quorum {
            return;
        }
        e.committed = true;
        // Linear mode: the leader collected the commit quorum; certify it in
        // one broadcast so backups commit without the all-to-all exchange.
        let commit_qc = if linear && me == self.cfg.primary_of(e.view) {
            Some(QuorumCertMsg {
                view: e.view,
                seq,
                digest: e.digest,
                voters: e.commits.iter().collect(),
            })
        } else {
            None
        };
        let was_tentative = e.executed && e.tentative;
        if was_tentative {
            // Tentative execution confirmed; upgrade the cached replies so a
            // client retransmission collects *stable* replies (f+1 suffice).
            e.tentative = false;
            for en in e.preprepare.iter().flat_map(|pp| &pp.entries) {
                let reply = self
                    .clients
                    .get_mut(&en.client)
                    .and_then(|c| c.reply.as_mut());
                if let Some(reply) = reply.filter(|r| r.timestamp == en.timestamp) {
                    reply.tentative = false;
                }
            }
        }
        if let Some(qc) = commit_qc {
            self.multicast(Message::CommitQC(qc), res);
        }
        self.advance_committed();
        self.try_execute(now_ns, res);
        // A boundary that executed tentatively takes its own step when it
        // commits, not in the call that executed it: that call carried the
        // batch's tentative replies, which clients complete on.
        let committed = self.committed_upto;
        if was_tentative && self.sealed.is_some_and(|(b, _)| b == seq && b <= committed) {
            self.step_checkpoint(CHECKPOINT_STEP_PAGES, now_ns, res);
        }
        // The watermark may have reached checkpoints and reads held behind
        // this batch.
        self.publish_checkpoints(now_ns, res);
        self.release_reads(res);
    }

    /// Raise the commit watermark over the executed batches that have
    /// committed since it last moved. A batch at or below the stable
    /// checkpoint is committed: the group's certificate says so, and its
    /// slot may be gone. Each slot is passed once, so this costs O(1) per
    /// batch.
    pub(crate) fn advance_committed(&mut self) {
        let mut w = self
            .committed_upto
            .max(self.stable.0.min(self.last_executed));
        while w < self.last_executed && self.log.get(w + 1).is_some_and(|e| e.committed) {
            w += 1;
        }
        self.committed_upto = w;
    }

    /// Execute every ready batch in sequence order. A batch is ready when it
    /// is committed (or prepared, under tentative execution) *and* every
    /// request body is available — the §2.4 hazard is exactly a body that
    /// never arrives, wedging this loop until checkpoint-based recovery.
    pub(crate) fn try_execute(&mut self, now_ns: u64, res: &mut HandleResult) {
        if self.fetch.is_some() {
            // A checkpoint transfer is rewriting the state region. Executing
            // on top of pages the tree walk is still comparing would both
            // corrupt the walk (stale local digests) and leave the region at
            // neither the checkpoint nor any executed prefix. Defer; the
            // transfer completion re-enters this loop.
            return;
        }
        loop {
            let seq = self.last_executed + 1;
            let Some(e) = self.log.get_mut(seq) else {
                break;
            };
            if e.executed || e.preprepare.is_none() {
                break;
            }
            let committed = e.committed;
            // A batch prepared in an older view may be replaced in this one:
            // only its commit lets it run.
            let tentative_ok = self.cfg.tentative_execution && e.prepared && e.view == self.view;
            if !committed && !tentative_ok {
                break;
            }
            // Check body availability.
            let mut missing = unheld_bodies(e, &self.bodies);
            if !missing.is_empty() {
                self.copy_bodies_held_elsewhere(&mut missing);
                if missing.is_empty() {
                    continue;
                }
                self.metrics.stuck_missing_body += 1;
                if self.cfg.fetch_missing_bodies {
                    for d in missing {
                        let msg = Message::BodyFetch(BodyFetchMsg {
                            digest: d,
                            replica: self.id(),
                        });
                        self.multicast(msg, res);
                    }
                    res.outputs.push(Output::SetTimer {
                        kind: TimerKind::FetchRetry,
                        delay_ns: 50_000_000,
                    });
                }
                break;
            }
            // One dead slot is freed per executed batch, so an interval's
            // garbage is paid back across the next interval instead of in
            // the one call that every replica makes in the same instant.
            let list = self.log.free_next();
            self.execute_slot(seq, committed, list, res);
            if !committed {
                self.metrics.tentative_executions += 1;
            }
            self.metrics.batches_executed += 1;
            res.counts.pages_hashed += self.state.borrow_mut().hash_settled(SETTLE_PAGES_PER_BATCH);
            // The replicas step a sealed root in turn, one per batch (the
            // one whose id is the batch's sequence number mod n): in any
            // batch's round at most one replica is slower by a step, and
            // the other 2f + 1 are a quorum without it.
            if seq % self.cfg.n() as u64 == u64::from(self.id().0) {
                self.step_checkpoint(CHECKPOINT_STEP_PAGES, now_ns, res);
            }
            self.maybe_checkpoint(seq, now_ns, res);
        }
        // Execution may have freed congestion-window room.
        if self.is_primary() && !self.pending.is_empty() {
            self.try_issue(now_ns, res);
        }
    }

    /// Execute the batch logged at `seq` — committed, or tentatively — and
    /// mark it executed. Every body the batch names that the store still
    /// holds moves into the slot's body list (on a first execution all of
    /// them, into `list`, the emptied list of the slot freed for it), and a
    /// re-execution finds them there. The execution chain takes the batch
    /// without the view that agreed it: a batch a view change re-issues is
    /// the same history as its original.
    pub(crate) fn execute_slot(
        &mut self,
        seq: SeqNum,
        committed: bool,
        list: Vec<(Digest, RequestMsg)>,
        res: &mut HandleResult,
    ) {
        // Execution borrows the whole replica, so the pre-prepare and the
        // slot's bodies leave their log entry for the batch (nothing in
        // there reads the log) and go back with the verdict.
        let e = self.log.get_mut(seq).expect("a logged batch");
        let pp = e.preprepare.take().expect("a pre-prepared batch");
        let mut held = std::mem::take(&mut e.bodies);
        if held.capacity() == 0 {
            held = list;
        }
        let mut membership_dirty = false;
        // Room for the batch and no more (a growing `Vec` would round a
        // one-request batch up to four).
        held.reserve_exact(pp.entries.len().saturating_sub(held.len()));
        for entry in &pp.entries {
            // A request still queued was ordered twice (a new primary
            // re-queued it): the queue keeps the body, the slot a copy.
            let body = if self.pending_digests.contains(&entry.digest) {
                self.bodies.get(&entry.digest).cloned()
            } else {
                self.bodies.remove(&entry.digest)
            };
            if let Some(req) = body {
                held.push((entry.digest, req));
            }
        }
        // Held in batch order, so the next big body is almost always the
        // one after the last.
        let mut next = 0;
        for entry in &pp.entries {
            let req = match &entry.full {
                Some(r) => r,
                None => {
                    if held.get(next).is_none_or(|(d, _)| *d != entry.digest) {
                        next = held
                            .iter()
                            .position(|(d, _)| *d == entry.digest)
                            .expect("checked above");
                    }
                    next += 1;
                    &held[next - 1].1
                }
            };
            self.observed.remove(&entry.digest);
            let reply = self
                .execute_one(req, &pp.nondet, &mut membership_dirty, res)
                .map(|result| ReplyMsg {
                    view: self.view,
                    client: req.client,
                    timestamp: req.timestamp,
                    replica: self.id(),
                    tentative: !committed,
                    body_omitted: false,
                    result,
                });
            let designated = self.sends_full_reply(req.client, req.timestamp);
            // One look at the client's record: the executed timestamp, the
            // reply address and the cached reply.
            let record = self.clients.entry(req.client).or_default();
            record.executed = Some(req.timestamp);
            if let Some(reply) = reply {
                let addr = record.addr.unwrap_or(req.reply_addr);
                res.outputs.push(reply_output(
                    &self.keys,
                    self.cfg.auth,
                    &mut self.metrics,
                    &reply,
                    designated,
                    addr,
                    &mut res.counts,
                ));
                record.reply = Some(reply);
            }
            res.counts.requests_executed += 1;
            self.metrics.executed_requests += 1;
        }
        if membership_dirty {
            if let Some(m) = &self.membership {
                m.store(&mut self.state.borrow_mut());
            }
        }
        // Extend the execution-order commitment.
        let mut h = Sha256::new();
        h.update(self.exec_chain.as_bytes());
        h.update(&seq.to_be_bytes());
        h.update(&pp.nondet.timestamp_ns.to_be_bytes());
        h.update(&pp.nondet.random.to_be_bytes());
        for en in &pp.entries {
            h.update(en.digest.as_bytes());
            h.update(&en.client.0.to_be_bytes());
            h.update(&en.timestamp.to_be_bytes());
        }
        self.exec_chain = h.finish();
        let e = self
            .log
            .get_mut(seq)
            .expect("execution leaves the log alone");
        e.preprepare = Some(pp);
        e.bodies = held;
        e.executed = true;
        e.tentative = !committed;
        self.last_executed = seq;
        self.advance_committed();
    }

    fn execute_one(
        &mut self,
        req: &RequestMsg,
        nondet: &NonDet,
        membership_dirty: &mut bool,
        res: &mut HandleResult,
    ) -> Option<Vec<u8>> {
        match &req.op {
            Operation::Noop => None,
            Operation::App(op) => {
                if let Some(m) = self.membership.as_mut() {
                    m.touch(req.client, nondet.timestamp_ns);
                    *membership_dirty = true;
                }
                let mut ctx = SessionCtx::new(&mut self.sessions, req.client, false);
                let (result, exec) = self
                    .app
                    .execute_with_session(req.client, op, nondet, false, &mut ctx);
                self.metrics.table_refusals += ctx.refusals();
                if ctx.is_dirty() {
                    self.sessions.store(&mut self.state.borrow_mut());
                }
                res.counts.exec_cpu_us += exec.cpu_us;
                res.counts.disk_flushes += exec.disk_flushes;
                res.counts.disk_write_bytes += exec.disk_write_bytes;
                Some(result)
            }
            Operation::JoinPhase1 {
                pubkey,
                nonce,
                reply_addr,
                idbuf,
            } => {
                let m = self.membership.as_mut()?;
                let challenge =
                    m.phase1(*pubkey, *nonce, *reply_addr, idbuf.clone(), req.timestamp);
                *membership_dirty = true;
                self.clients.entry(req.client).or_default().addr = Some(*reply_addr);
                match challenge {
                    Some(c) => Some(c.0.as_bytes().to_vec()),
                    None => Some(self.denied(SECTION_FULL)),
                }
            }
            Operation::JoinPhase2 {
                fingerprint,
                response,
            } => {
                let app = &mut self.app;
                let m = self.membership.as_mut()?;
                let outcome = m.phase2(
                    fingerprint,
                    response,
                    nondet.timestamp_ns,
                    SESSION_STALE_NS,
                    &mut |idbuf| app.authorize_join(idbuf),
                );
                *membership_dirty = true;
                match outcome {
                    JoinOutcome::Joined { client, ended } => {
                        for c in ended {
                            self.end_session(c);
                        }
                        if let Some(s) = self.membership.as_ref().and_then(|m| m.session(client)) {
                            self.clients.entry(client).or_default().addr = Some(s.addr);
                        }
                        let mut out = b"joined:".to_vec();
                        out.extend_from_slice(&client.0.to_be_bytes());
                        Some(out)
                    }
                    JoinOutcome::Denied(reason) => Some(self.denied(reason)),
                }
            }
            Operation::Leave => {
                if let Some(m) = self.membership.as_mut() {
                    m.leave(req.client);
                    *membership_dirty = true;
                }
                self.end_session(req.client);
                Some(b"left".to_vec())
            }
        }
    }

    /// The reply to a denied join, counting a full section as a refusal.
    fn denied(&mut self, reason: &str) -> Vec<u8> {
        self.metrics.table_refusals += u64::from(reason == SECTION_FULL);
        [b"denied:", reason.as_bytes()].concat()
    }

    /// End `client`'s session on this replica, the one exit of a Leave, a
    /// same-identity takeover and a stale eviction: drop its session MAC
    /// key and its library-managed state (§3.3.2). A dynamic member's
    /// public key lives only in the membership session the caller ended.
    /// Its client record stays: its executed timestamp is what body
    /// retention, the view-change re-queue and deferred reads compare
    /// against. (A retransmission is not answered from the cached reply:
    /// admission refuses a non-member before the dedupe runs.)
    pub(crate) fn end_session(&mut self, client: ClientId) {
        self.keys.remove_client(client);
        if self.sessions.remove(client) {
            self.sessions.store(&mut self.state.borrow_mut());
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints (§2.1)
    // ------------------------------------------------------------------

    /// Seal a checkpoint when `seq` is an interval boundary: its batch has
    /// just executed, committed or not, so the state region is the
    /// boundary's image. The region sets the interval aside; its root is
    /// finished by a step in the call that commits the boundary (this one,
    /// if it has) and by the next batches' ([`Replica::step_checkpoint`]),
    /// and published once the boundary commits
    /// ([`Replica::publish_checkpoints`]).
    pub(crate) fn maybe_checkpoint(&mut self, seq: SeqNum, now_ns: u64, res: &mut HandleResult) {
        if !seq.is_multiple_of(self.cfg.checkpoint_interval) {
            return;
        }
        if self.checkpoints.contains_key(&seq) || self.unpublished.contains_key(&seq) {
            return;
        }
        // A root still unfinished a whole interval later is finished first:
        // the region holds one sealed interval at a time.
        self.finish_checkpoint(now_ns, res);
        self.state.borrow_mut().seal(seq);
        self.sealed = Some((seq, self.exec_chain));
        if self.committed_upto >= seq {
            self.step_checkpoint(CHECKPOINT_STEP_PAGES, now_ns, res);
        }
    }

    /// Spend `pages` page hashes' worth of work on the sealed checkpoint's
    /// root. The step that finishes it sets the checkpoint, with the
    /// execution chain sealed beside it, aside for publication.
    pub(crate) fn step_checkpoint(&mut self, pages: usize, now_ns: u64, res: &mut HandleResult) {
        let Some((seq, chain)) = self.sealed else {
            return;
        };
        // Executed up to the high watermark, the group orders nothing more
        // until a checkpoint stabilises: no batch is coming to step this
        // one. A peer behind the stable checkpoint waits on this one.
        let pages = if self.last_executed >= self.log.high() || self.peer_behind {
            usize::MAX
        } else {
            pages
        };
        let snap = {
            let mut st = self.state.borrow_mut();
            let before = st.root_work().pages_hashed;
            let snap = st.checkpoint_step(pages);
            res.counts.pages_hashed += st.root_work().pages_hashed - before;
            snap
        };
        let Some(snap) = snap else {
            return;
        };
        self.sealed = None;
        self.peer_behind = false;
        self.metrics.checkpoints_taken += 1;
        self.unpublished.insert(seq, (snap, chain));
        self.publish_checkpoints(now_ns, res);
    }

    /// Record, vote for and try to stabilise every finished checkpoint the
    /// commit watermark has reached. Above it, the image may hold a batch
    /// that never commits.
    pub(crate) fn publish_checkpoints(&mut self, now_ns: u64, res: &mut HandleResult) {
        while let Some(entry) = self.unpublished.first_entry() {
            if *entry.key() > self.committed_upto {
                return;
            }
            let (seq, (snap, chain)) = entry.remove_entry();
            if seq < self.stable.0 {
                continue; // the group moved past it while it was being finished
            }
            let root = snap.root;
            self.checkpoints.insert(seq, (snap, chain));
            let me = self.id();
            let msg = CheckpointMsg {
                seq,
                root,
                replica: me,
            };
            self.multicast(Message::Checkpoint(msg), res);
            if seq == self.stable.0 {
                // The others' votes stabilised the boundary first: hold it
                // against their certificate now.
                if root != self.stable.1 {
                    self.start_state_transfer(seq, self.stable.1, now_ns, res);
                }
                continue;
            }
            self.ckpt_votes.entry((seq, root)).or_default().insert(me);
            self.maybe_stabilize(seq, root, now_ns, res);
        }
    }

    /// Finish the sealed checkpoint's root in this call, before anything
    /// that rewrites the region or reads the checkpoints.
    pub(crate) fn finish_checkpoint(&mut self, now_ns: u64, res: &mut HandleResult) {
        self.step_checkpoint(usize::MAX, now_ns, res);
    }

    pub(crate) fn on_checkpoint(&mut self, c: CheckpointMsg, now_ns: u64, res: &mut HandleResult) {
        if c.seq <= self.stable.0 {
            return;
        }
        self.ckpt_votes
            .entry((c.seq, c.root))
            .or_default()
            .insert(c.replica);
        self.maybe_stabilize(c.seq, c.root, now_ns, res);
    }

    pub(crate) fn maybe_stabilize(
        &mut self,
        seq: SeqNum,
        root: Digest,
        now_ns: u64,
        res: &mut HandleResult,
    ) {
        let votes = self.ckpt_votes.get(&(seq, root)).map_or(0, |v| v.len());
        if votes < self.cfg.quorum() || seq <= self.stable.0 {
            return;
        }
        self.stable = (seq, root);
        #[cfg(test)]
        let reference = retire_reference::Retained::by_the_old_code(self, seq);
        self.retire_garbage(seq);
        #[cfg(test)]
        reference.assert_matches(self);
        self.ckpt_votes.retain(|&(s, _), _| s > seq);
        self.checkpoints.retain(|&s, _| s >= seq);
        self.advance_committed();
        self.publish_checkpoints(now_ns, res);
        self.release_reads(res);
        // Divergence / lag detection: if we have not executed up to `seq`
        // (wedged on a missing body §2.4, restarted §2.3, or plain lagging),
        // or if we took a checkpoint at `seq` whose digest differs from the
        // certificate, start a state transfer — "the recovery process
        // commence[s] on the next checkpoint". A replica that executed past
        // `seq` tentatively simply adopts the certificate: its own commits
        // will confirm the tentative prefix.
        let mine = self.checkpoints.get(&seq).map(|(snap, _)| snap.root);
        let behind = self.last_executed < seq && mine != Some(root);
        let diverged = mine.is_some() && mine != Some(root);
        if behind || diverged {
            self.start_state_transfer(seq, root, now_ns, res);
        }
        // The high watermark moved with the low one.
        self.try_issue(now_ns, res);
    }

    /// Retire what the checkpoint now stable at `seq` made garbage: log
    /// entries at or below it leave the window with the bodies their
    /// batches executed, and stored bodies that no live log entry
    /// references leave `bodies`, their digests `observed`. The retention
    /// rule is the one garbage collection always had — a body stays while a
    /// live entry references it, the primary's queue names it, or its
    /// request has not executed for its client — but the map holds only
    /// bodies whose batch has not executed, about a window's worth, so the
    /// walk is that long and not an interval's.
    /// Nothing in the retired slots is dropped here: `try_execute` frees
    /// one per executed batch, and what is still unfreed at the next
    /// stabilisation goes at once ([`crate::log::MessageLog::advance`]).
    fn retire_garbage(&mut self, seq: SeqNum) {
        self.keep_named_bodies(seq);
        self.log.advance(seq);
        let mut referenced = FoldSet::with_hasher(self.keys.hash_state());
        referenced.extend(self.log.iter().flat_map(|(_, e)| {
            e.preprepare
                .iter()
                .flat_map(|pp| pp.entries.iter().map(|en| en.digest))
        }));
        // Keep bodies that a live log entry references, that the batching
        // queue names, or that belong to a request not yet executed for its
        // client (observed but not yet pre-prepared) — dropping those would
        // wedge execution exactly like a §2.4 packet loss.
        let clients = &self.clients;
        let executed = |c: &ClientId| clients.get(c).map_or(0, ClientRecord::executed_ts);
        let unexecuted = |req: &RequestMsg| req.timestamp > executed(&req.client);
        let queued = &self.pending_digests;
        self.bodies
            .retain(|d, req| referenced.contains(d) || queued.contains(d) || unexecuted(req));
        // Observed requests already executed under a different digest path
        // are dropped via the per-client timestamp.
        let bodies = &self.bodies;
        self.observed
            .retain(|d| bodies.get(d).is_some_and(unexecuted));
    }

    /// Before the slots at or below `stable` leave the window: a body an
    /// entry above it names but neither the map nor that entry's slot holds
    /// never arrived (§2.4) or is in another slot — a request the group
    /// ordered twice, as when a new primary re-queues an observed request
    /// the new view also re-issues. If a leaving slot has it, it goes back
    /// into the map, where the retention rule keeps it (it is referenced),
    /// as the old shared store did. Only those digests are looked for among
    /// the leaving slots; normally there are none.
    pub(crate) fn keep_named_bodies(&mut self, stable: SeqNum) {
        let bodies = &self.bodies;
        let wanted: Vec<Digest> = self
            .log
            .range(stable + 1..)
            .flat_map(|(_, e)| {
                let named = e.preprepare.iter().flat_map(|pp| pp.entries.iter());
                named
                    .filter(move |en| e.held(&en.digest).is_none())
                    .map(|en| en.digest)
            })
            .filter(|d| !bodies.contains_key(d))
            .collect();
        for d in wanted {
            let found = self.log.range(..=stable).find_map(|(&s, slot)| {
                let i = slot.bodies.iter().position(|(h, _)| *h == d)?;
                Some((s, i))
            });
            if let Some((s, i)) = found {
                let slot = self.log.get_mut(s).expect("a leaving slot is live");
                let (d, req) = slot.bodies.swap_remove(i);
                self.bodies.insert(d, req);
            }
        }
    }

    /// The rare half of the body check: copy each of `missing` that another
    /// live slot holds (a request the group ordered twice) into the map,
    /// and leave in `missing` only what no one here has.
    pub(crate) fn copy_bodies_held_elsewhere(&mut self, missing: &mut Vec<Digest>) {
        let log = &self.log;
        let bodies = &mut self.bodies;
        missing.retain(|d| match log.iter().find_map(|(_, e)| e.held(d)) {
            Some(req) => {
                bodies.insert(*d, req.clone());
                false
            }
            None => true,
        });
    }

    // ------------------------------------------------------------------
    // Missing-body fetch (the §2.4 fix, off by default)
    // ------------------------------------------------------------------

    pub(crate) fn on_body_fetch(&mut self, bf: BodyFetchMsg, res: &mut HandleResult) {
        // Not yet executed here: in the map; executed: in its slot.
        let found = self
            .bodies
            .get(&bf.digest)
            .or_else(|| self.log.iter().find_map(|(_, e)| e.held(&bf.digest)));
        if let Some(req) = found.cloned() {
            self.send_plain(NetTarget::Replica(bf.replica), Message::BodyResp(req), res);
        }
    }

    pub(crate) fn on_body_resp(&mut self, req: RequestMsg, now_ns: u64, res: &mut HandleResult) {
        let digest = req.digest();
        res.counts.digest_bytes += req.encoded_len() as u64;
        // Only accept bodies an unexecuted log entry actually references
        // (digest-validated, so no authentication needed).
        let wanted = self.log.iter().any(|(_, e)| {
            !e.executed
                && e.preprepare
                    .as_ref()
                    .is_some_and(|pp| pp.entries.iter().any(|en| en.digest == digest))
        });
        if wanted {
            self.bodies.insert(digest, req);
            self.try_execute(now_ns, res);
        }
    }

    pub(crate) fn on_fetch_retry(&mut self, res: &mut HandleResult) {
        self.retry_fetch(res);
    }

    /// Re-send, to the next peer, what the fetcher asked and has not had
    /// answered: the asked set only, so a retry never sends the pages that
    /// wait for the window.
    pub(crate) fn retry_fetch(&mut self, res: &mut HandleResult) {
        let Some(f) = &mut self.fetch else { return };
        f.attempt += 1;
        let peer = f.peers[f.attempt % f.peers.len()];
        let target_seq = f.target_seq;
        let reqs = f.fetcher.outstanding();
        for req in reqs {
            let msg = Message::Fetch(crate::messages::FetchMsg {
                target_seq,
                req,
                replica: self.id(),
            });
            self.send_plain(NetTarget::Replica(peer), msg, res);
        }
        res.outputs.push(Output::SetTimer {
            kind: TimerKind::FetchRetry,
            delay_ns: 100_000_000,
        });
    }

    /// Request bodies this replica keeps: those waiting for their batch to
    /// execute, and those live log slots own (tests).
    pub fn body_store_len(&self) -> usize {
        self.bodies.len() + self.log.iter().map(|(_, e)| e.bodies.len()).sum::<usize>()
    }

    /// Number of checkpoints currently retained.
    pub fn retained_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Peers that voted for the current stable checkpoint (transfer sources),
    /// or every peer when no other replica's vote for it is known — a
    /// checkpoint adopted from a new view's votes may carry only this
    /// replica's own.
    pub(crate) fn checkpoint_peers(&self, seq: SeqNum, root: Digest) -> Vec<ReplicaId> {
        let me = self.id();
        let voters: Vec<ReplicaId> = self
            .ckpt_votes
            .get(&(seq, root))
            .map(|v| v.iter().copied().filter(|&r| r != me).collect())
            .unwrap_or_default();
        if !voters.is_empty() {
            return voters;
        }
        (0..self.cfg.n() as u32)
            .map(ReplicaId)
            .filter(|&r| r != me)
            .collect()
    }
}

/// The big bodies `e`'s pre-prepare names that neither its own slot nor the
/// map `bodies` holds. Empty for a batch that can execute, unless one of its
/// requests was ordered twice ([`Replica::copy_bodies_held_elsewhere`]).
pub(crate) fn unheld_bodies(e: &LogEntry, bodies: &FoldMap<Digest, RequestMsg>) -> Vec<Digest> {
    e.preprepare
        .iter()
        .flat_map(|pp| pp.entries.iter())
        .filter(|en| {
            en.full.is_none() && e.held(&en.digest).is_none() && !bodies.contains_key(&en.digest)
        })
        .map(|en| en.digest)
        .collect()
}

/// The garbage collection a stable checkpoint ran before retirement was
/// split from reclamation, kept as the oracle of the split: every
/// stabilisation in this crate's tests first works out, on copies, what the
/// old code would have retained, then checks that `retire_garbage` retained
/// exactly that.
#[cfg(test)]
pub(crate) mod retire_reference {
    use std::cell::Cell;
    use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

    use pbft_crypto::Digest;

    use crate::log::reference::{self, MessageLog};
    use crate::messages::RequestMsg;
    use crate::types::{ClientId, SeqNum};

    use super::{QueuedRequest, Replica};

    thread_local! {
        /// Stabilisations checked on this thread (a property asserts its
        /// schedules reached some).
        pub(crate) static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// Drop stored bodies that no live log entry references and the queue
    /// does not name. Executed entries above the stable checkpoint still
    /// count: a view-change rollback may need to re-execute them.
    fn prune_bodies(
        log: &MessageLog,
        pending: &VecDeque<QueuedRequest>,
        executed: &HashMap<ClientId, u64>,
        bodies: &mut HashMap<Digest, RequestMsg>,
        pending_digests: &mut HashSet<Digest>,
        observed: &mut BTreeSet<Digest>,
    ) {
        let referenced: HashSet<Digest> = log
            .iter()
            .flat_map(|(_, e)| {
                e.preprepare
                    .iter()
                    .flat_map(|pp| pp.entries.iter().map(|en| en.digest))
            })
            .collect();
        let queued = |d: &Digest| pending.iter().any(|q| q.digest == *d);
        observed.retain(|d| {
            bodies
                .get(d)
                .is_some_and(|r| r.timestamp > executed.get(&r.client).copied().unwrap_or(0))
        });
        bodies.retain(|d, req| {
            referenced.contains(d)
                || queued(d)
                || req.timestamp > executed.get(&req.client).copied().unwrap_or(0)
        });
        pending_digests.retain(|d| referenced.contains(d) || queued(d));
    }

    /// Digests of the bodies live log slots hold.
    fn held(r: &Replica) -> impl Iterator<Item = Digest> + '_ {
        r.log
            .iter()
            .flat_map(|(_, e)| e.bodies.iter().map(|(d, _)| *d))
    }

    /// The ownership invariant, at any point between two calls into `r`:
    /// every digest the batching queue or `observed` names has its body in
    /// the store (a new primary re-queues, and issues, from there); every
    /// executed live slot holds every big body its pre-prepare names (a
    /// rollback or a transfer re-executes from there); and a body leaves
    /// with its slot — a freed slot holds nothing, and the cursor is never
    /// behind `previous_stable`, the stable checkpoint before the current
    /// one, so the dead never hold more than one stabilisation's garbage.
    pub(crate) fn assert_bodies_owned(r: &Replica, previous_stable: SeqNum) {
        for d in r.pending.iter().map(|q| &q.digest).chain(&r.observed) {
            assert!(
                r.bodies.contains_key(d),
                "replica {}: a queued or observed digest names no stored body",
                r.id().0
            );
        }
        for (&seq, e) in r.log.iter().filter(|(_, e)| e.executed) {
            let pp = e
                .preprepare
                .as_ref()
                .expect("an executed slot has its batch");
            for en in pp.entries.iter().filter(|en| en.full.is_none()) {
                assert!(
                    e.held(&en.digest).is_some(),
                    "replica {}: executed slot {seq} lost a body it names",
                    r.id().0
                );
            }
        }
        reference::assert_freed_hold_nothing(&r.log);
        assert!(
            reference::freed(&r.log) >= previous_stable,
            "replica {}: slots below the previous stable checkpoint {previous_stable} unfreed",
            r.id().0
        );
    }

    /// The keys the old code leaves live after a stabilisation at `seq`.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) struct Retained {
        log: Vec<SeqNum>,
        low: SeqNum,
        bodies: BTreeSet<Digest>,
        pending_digests: BTreeSet<Digest>,
        observed: Vec<Digest>,
    }

    impl Retained {
        pub(crate) fn by_the_old_code(r: &Replica, seq: SeqNum) -> Retained {
            let mut log = MessageLog::of(&r.log);
            log.collect_garbage(seq);
            // The old code kept every body in one store: the map's, and the
            // ones execution has since moved into the slots.
            let mut bodies: HashMap<Digest, RequestMsg> =
                r.bodies.iter().map(|(d, req)| (*d, req.clone())).collect();
            bodies.extend(r.log.iter().flat_map(|(_, e)| e.bodies.iter().cloned()));
            let mut pending_digests = r.pending_digests.iter().copied().collect();
            let mut observed = r.observed.clone();
            prune_bodies(
                &log,
                &r.pending,
                &r.clients
                    .iter()
                    .filter_map(|(c, rec)| Some((*c, rec.executed?)))
                    .collect(),
                &mut bodies,
                &mut pending_digests,
                &mut observed,
            );
            Retained {
                log: log.iter().map(|(&s, _)| s).collect(),
                low: log.low,
                bodies: bodies.into_keys().collect(),
                pending_digests: pending_digests.into_iter().collect(),
                observed: observed.into_iter().collect(),
            }
        }

        pub(crate) fn assert_matches(&self, r: &Replica) {
            let now = Retained {
                log: r.log.iter().map(|(&s, _)| s).collect(),
                low: r.log.low,
                bodies: r.bodies.keys().copied().chain(held(r)).collect(),
                pending_digests: r.pending_digests.iter().copied().collect(),
                observed: r.observed.iter().copied().collect(),
            };
            assert_eq!(
                now, *self,
                "retirement diverged from the old garbage collection"
            );
            CHECKED.with(|c| c.set(c.get() + 1));
        }
    }
}
