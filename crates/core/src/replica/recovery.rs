//! Crash-restart recovery and checkpoint-based state transfer.
//!
//! A restarted replica has lost its transient state: the message log, the
//! client session keys (→ the §2.3 authenticator stall) and its protocol
//! position. It announces a `Status`; once f+1 peers agree on a stable
//! checkpoint ahead of it, it tree-walk-fetches the divergent pages and
//! resumes. A replica wedged by a lost big-request body (§2.4) recovers
//! through exactly the same path when the next checkpoint stabilizes.
//!
//! Because every library- and wrapper-level table that must survive these
//! paths is mirrored into the region (membership, sessions, and whatever
//! a wrapper keeps in [`super::APP_WRAPPER_PAGES`]), a completed transfer ends
//! with one reload call — [`crate::app::App::on_state_installed`] plus the
//! library reloads — that rebuilds the in-memory caches from the installed
//! pages. That is what lets a replica fast-forwarded *over* a
//! transaction's prepare answer the later commit like its peers.

use pbft_crypto::Digest;
use pbft_state::{serve_fetch, FetchResponse, Fetcher};

use crate::messages::{CheckpointMsg, FetchMsg, FetchRespMsg, Message, StatusMsg};
use crate::output::{HandleResult, NetTarget, Output, TimerKind};
use crate::types::SeqNum;

use super::{FetchState, Replica, STATUS_INTERVAL_NS};

impl Replica {
    pub(crate) fn on_status(&mut self, s: StatusMsg, now_ns: u64, res: &mut HandleResult) {
        if s.replica == self.id() {
            return;
        }
        let prev = self.peer_status.insert(s.replica, s);
        self.maybe_rejoin_group_view(res);
        let mine = self.my_status();
        // A peer a batch or two behind is normal pipeline skew under load;
        // only treat real gaps as "behind" — and rate-limit the help.
        // Without both guards, two loaded replicas reply-status to each
        // other forever, each reply carrying signed retransmissions, and the
        // storm eats the CPU that should be agreeing on new batches.
        const LAG_SLACK: u64 = 2;
        // The slack exception: a peer whose executed position has not moved
        // since its previous status is *stuck*, not skewed (a quiescent
        // system issues no new agreements, so a tail of lost commits would
        // otherwise leave it one or two batches — and one region digest —
        // behind forever). Skew never trips this: a loaded replica advances
        // between status ticks.
        let stuck_behind = prev.is_some_and(|p| p.last_executed == s.last_executed)
            && s.last_executed < mine.last_executed;
        let they_are_behind = s.last_stable_seq < mine.last_stable_seq
            || s.last_executed + LAG_SLACK < mine.last_executed
            || s.view < mine.view
            || stuck_behind;
        let help_due = match self.last_peer_help.get(&s.replica) {
            Some(&t) => now_ns.saturating_sub(t) >= STATUS_INTERVAL_NS / 2,
            None => true, // never helped this peer yet
        };
        // A peer whose *stable checkpoint* sits below a checkpoint this
        // replica holds needs checkpoint votes, not agreement messages —
        // even when its executed position matches ours exactly. (After
        // view-change churn the original vote multicasts can all be lost
        // while every member still holds its checkpoints; without a
        // re-broadcast no boundary ever collects 2f+1 votes again and the
        // primary wedges at the high watermark with the group idle.)
        let ckpt_behind = self
            .checkpoints
            .keys()
            .next_back()
            .is_some_and(|&top| s.last_stable_seq < top);
        if (they_are_behind || ckpt_behind) && help_due {
            self.last_peer_help.insert(s.replica, now_ns);
            self.send_plain(NetTarget::Replica(s.replica), Message::Status(mine), res);
            self.retransmit_for_lagging_peer(&s, res);
            self.resend_checkpoint_votes(&s, res);
        }
        // f+1 matching stable-checkpoint reports ahead of us are a valid
        // proof (one of them is correct, and correct replicas only report
        // certified checkpoints). A restarted replica uses this to find its
        // footing; a wedged one — conflicting pre-prepares from an
        // equivocating primary, or the §2.4 missing-body stall with the
        // checkpoint certificate's direct votes lost — uses it to recover
        // even when fewer than 2f+1 checkpoint votes ever reach it.
        self.try_recover_from_statuses(self.recovering, res);
    }

    /// A replica stranded in a view change nobody else joined (its timer
    /// fired on lost datagrams, not on a faulty primary) re-adopts the
    /// group's view when a full quorum of peers reports a *lower* active
    /// view. Without this, the stranded replica rejects the group's
    /// retransmissions (they carry the lower view) and can only
    /// resynchronize at the next stable checkpoint — which a quiescent
    /// system never takes. Safety rests on the usual quorum-intersection
    /// argument: anything committed anywhere carries 2f+1 commits, so at
    /// least f+1 honest replicas carry it into any later view-change
    /// certificate regardless of this replica's votes.
    fn maybe_rejoin_group_view(&mut self, res: &mut HandleResult) {
        if !self.in_view_change {
            return;
        }
        let target = self.vc.target.unwrap_or(self.view);
        // Only peers *actively operating* in a lower view count — a peer
        // that is itself mid-view-change reports the view it is leaving,
        // and counting it would cancel a legitimate in-progress change
        // against a genuinely faulty primary. Statuses refresh every
        // status tick, so the evidence is at most one interval stale.
        let lower: Vec<_> = self
            .peer_status
            .values()
            .filter(|p| !p.in_view_change)
            .map(|p| p.view)
            .filter(|&v| v < target)
            .collect();
        if lower.len() < self.cfg.quorum() {
            return;
        }
        let group_view = lower.into_iter().max().expect("quorum is non-empty");
        self.view = group_view;
        self.in_view_change = false;
        self.vc.target = None;
        self.vc_timer_armed = false;
        self.arm_vc_timer(res);
        res.outputs.push(Output::CancelTimer {
            kind: TimerKind::NewViewTimeout,
        });
    }

    /// Re-send this replica's checkpoint votes for retained checkpoints
    /// above the peer's reported stable sequence, newest first (bounded).
    /// Votes below the peer's stable are ignored on arrival, so repeats are
    /// harmless; the caller's help rate-limit bounds the traffic.
    fn resend_checkpoint_votes(&mut self, s: &StatusMsg, res: &mut HandleResult) {
        const MAX_VOTES: usize = 2;
        let me = self.id();
        let msgs: Vec<Message> = self
            .checkpoints
            .iter()
            .rev()
            .filter(|&(&seq, _)| seq > s.last_stable_seq)
            .take(MAX_VOTES)
            .map(|(&seq, (snap, _))| {
                Message::Checkpoint(CheckpointMsg {
                    seq,
                    root: snap.root,
                    replica: me,
                })
            })
            .collect();
        for msg in msgs {
            self.send_authenticated(NetTarget::Replica(s.replica), msg, res);
        }
    }

    /// Re-send agreement messages a lagging peer is missing: our own
    /// prepare/commit votes (safe for any replica to retransmit) and, when
    /// we are the issuing primary, the pre-prepare itself. This is PBFT's
    /// recovery from lost replica-to-replica datagrams — without it a single
    /// dropped commit wedges a replica until the next checkpoint.
    fn retransmit_for_lagging_peer(&mut self, s: &StatusMsg, res: &mut HandleResult) {
        const MAX_RETRANSMIT: u64 = 8;
        if s.view != self.view || s.last_executed >= self.last_executed {
            return;
        }
        let me = self.id();
        let to = NetTarget::Replica(s.replica);
        let hi = self.last_executed.min(s.last_executed + MAX_RETRANSMIT);
        let mut msgs: Vec<Message> = Vec::new();
        for seq in s.last_executed + 1..=hi {
            let Some(e) = self.log.get(seq) else { continue };
            let Some(pp) = &e.preprepare else { continue };
            if self.cfg.primary_of(e.view) == me {
                msgs.push(Message::PrePrepare(pp.clone()));
            } else if !self.is_linear() && e.prepares.contains(me) {
                msgs.push(Message::Prepare(crate::messages::PrepareMsg {
                    view: e.view,
                    seq,
                    digest: e.digest,
                    replica: me,
                }));
            }
            if self.is_linear() {
                // Linear mode: individual votes are useless to the lagging
                // peer (only the leader aggregates them), but any replica
                // that holds a certificate's voter set can replay it.
                let qc = |voters: crate::types::VoteSet| crate::messages::QuorumCertMsg {
                    view: e.view,
                    seq,
                    digest: e.digest,
                    voters: voters.iter().collect(),
                };
                if e.committed {
                    msgs.push(Message::CommitQC(qc(e.commits)));
                } else if e.prepared {
                    msgs.push(Message::PrepareQC(qc(e.prepares)));
                }
            } else if e.commits.contains(me) {
                msgs.push(Message::Commit(crate::messages::CommitMsg {
                    view: e.view,
                    seq,
                    digest: e.digest,
                    replica: me,
                }));
            }
        }
        for msg in msgs {
            self.send_authenticated(to, msg, res);
        }
    }

    /// f+1 matching `(stable_seq, stable_root)` reports ahead of us trigger
    /// a transfer. `adopt_view` (recovery after restart) additionally takes
    /// the view from the same report set.
    fn try_recover_from_statuses(&mut self, adopt_view: bool, res: &mut HandleResult) {
        let weak = self.cfg.weak_quorum();
        let mut groups: std::collections::BTreeMap<(SeqNum, Digest), Vec<&StatusMsg>> =
            Default::default();
        for s in self.peer_status.values() {
            groups
                .entry((s.last_stable_seq, s.stable_root))
                .or_default()
                .push(s);
        }
        let best = groups
            .iter()
            .filter(|((seq, _), members)| *seq > self.last_executed && members.len() >= weak)
            .max_by_key(|((seq, _), _)| *seq);
        if let Some((&(seq, root), members)) = best {
            if adopt_view {
                let new_view = members.iter().map(|s| s.view).max().unwrap_or(self.view);
                if new_view > self.view {
                    self.view = new_view;
                    self.in_view_change = false;
                }
            }
            self.start_state_transfer(seq, root, res);
        }
    }

    /// Begin (or upgrade) a state transfer toward checkpoint `(seq, root)`.
    pub(crate) fn start_state_transfer(
        &mut self,
        seq: SeqNum,
        root: Digest,
        res: &mut HandleResult,
    ) {
        if let Some(f) = &self.fetch {
            if f.target_seq >= seq {
                return; // already fetching something at least as new
            }
        }
        self.metrics.state_transfers_started += 1;
        let (fetcher, reqs) = {
            let mut st = self.state.borrow_mut();
            let _ = st.refresh_digest();
            res.counts.pages_hashed += st.last_refresh_hashed();
            Fetcher::new(st.tree(), root)
        };
        if fetcher.is_complete() {
            // Content already matches the target: adopt the checkpoint.
            self.fetch = Some(FetchState {
                target_seq: seq,
                target_root: root,
                fetcher,
                peers: vec![self.id()],
                attempt: 0,
            });
            self.finish_transfer(res);
            return;
        }
        let peers = self.checkpoint_peers(seq, root);
        let peer = peers[0];
        self.fetch = Some(FetchState {
            target_seq: seq,
            target_root: root,
            fetcher,
            peers,
            attempt: 0,
        });
        for req in reqs {
            let msg = Message::Fetch(FetchMsg {
                target_seq: seq,
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

    pub(crate) fn on_fetch(&mut self, f: FetchMsg, res: &mut HandleResult) {
        let resp = match self.checkpoints.get(&f.target_seq) {
            Some((snap, _)) => serve_fetch(snap, &f.req),
            None => FetchResponse::Unavailable,
        };
        let msg = Message::FetchResp(FetchRespMsg {
            target_seq: f.target_seq,
            resp,
            replica: self.id(),
        });
        self.send_plain(NetTarget::Replica(f.replica), msg, res);
    }

    pub(crate) fn on_fetch_resp(&mut self, fr: FetchRespMsg, now_ns: u64, res: &mut HandleResult) {
        let Some(fs) = &mut self.fetch else { return };
        if fr.target_seq != fs.target_seq {
            return;
        }
        let outcome = {
            let st = self.state.borrow();
            fs.fetcher.on_response(st.tree(), fr.resp)
        };
        let next = match outcome {
            Ok(next) => next,
            Err(_) => {
                // Byzantine or corrupt peer: restart the walk from another.
                let (seq, root) = (fs.target_seq, fs.target_root);
                let attempt = fs.attempt + 1;
                self.fetch = None;
                self.start_state_transfer(seq, root, res);
                if let Some(f2) = &mut self.fetch {
                    f2.attempt = attempt;
                }
                return;
            }
        };
        let peer = fs.peers[fs.attempt % fs.peers.len()];
        let target_seq = fs.target_seq;
        // Install validated pages: the fetcher's hash is the page's leaf.
        let ready = fs.fetcher.take_ready();
        if !ready.is_empty() {
            let mut st = self.state.borrow_mut();
            for (idx, data, digest) in ready {
                res.counts.pages_hashed += 1;
                st.install_page(idx, data, digest)
                    .expect("fetcher validated the page index");
            }
        }
        for req in next {
            let msg = Message::Fetch(FetchMsg {
                target_seq,
                req,
                replica: self.id(),
            });
            self.send_plain(NetTarget::Replica(peer), msg, res);
        }
        let done = self
            .fetch
            .as_ref()
            .map(|f| f.fetcher.is_complete())
            .unwrap_or(false);
        if done {
            self.finish_transfer(res);
            self.try_execute(now_ns, res);
        }
    }

    pub(crate) fn finish_transfer(&mut self, res: &mut HandleResult) {
        let Some(fs) = self.fetch.take() else { return };
        let (seq, root) = (fs.target_seq, fs.target_root);
        // One fold for the whole transfer's pages.
        self.state.borrow_mut().fold_installed();
        debug_assert_eq!(
            self.state.borrow().tree().root(),
            root,
            "transfer converged"
        );
        self.reload_region_tables();
        self.stable = (seq, root);
        // Batches executed above the installed checkpoint (necessarily
        // tentative or on divergent state) ran against the *pre-transfer*
        // region; installing the checkpoint just overwrote their effects.
        // Clear their executed marks so the execution loop re-runs them on
        // top of the checkpoint image — otherwise the replica silently
        // loses those updates and re-diverges at the very next checkpoint.
        for e in self.log.iter_mut() {
            if e.seq > seq && e.executed {
                e.executed = false;
                e.tentative = false;
            }
        }
        self.last_executed = seq;
        // A transfer is rare and nobody's request waits on this replica:
        // every dead slot is freed here, not paced. The slots above `seq`
        // keep their bodies for the re-execution.
        self.keep_named_bodies(seq);
        self.log.advance(seq);
        self.log.free_dead();
        self.ckpt_votes.retain(|&(s, _), _| s > seq);
        let snap = self.state.borrow().snapshot(seq);
        self.checkpoints.retain(|&s, _| s >= seq);
        // The execution chain is only meaningful for locally executed
        // history; mark the discontinuity with the checkpoint root.
        self.checkpoints.insert(seq, (snap, root));
        self.exec_chain = root;
        self.metrics.state_transfers_completed += 1;
        self.recovering = false;
        // The installed checkpoint replaced every tentative effect; parked
        // reads are re-examined against the clean committed image.
        self.tentative_effects.clear();
        self.flush_deferred_reads(0, res);
        res.outputs.push(Output::CancelTimer {
            kind: TimerKind::FetchRetry,
        });
    }

    /// The region was rewritten under the replica (state transfer,
    /// rollback): the app and the library's tables re-read it.
    pub(crate) fn reload_region_tables(&mut self) {
        self.app.on_state_installed();
        let st = self.state.borrow();
        self.sessions.reload(&st);
        if let Some(m) = self.membership.as_mut() {
            m.reload(&st);
        }
    }
}
