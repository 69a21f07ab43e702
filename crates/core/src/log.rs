//! The replica message log: per-sequence agreement state between watermarks.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

use pbft_crypto::Digest;

use crate::messages::{PrePrepareMsg, RequestMsg};
use crate::types::{SeqNum, View, VoteSet};

/// Agreement state for one sequence number.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The view this entry's pre-prepare belongs to.
    pub view: View,
    /// The agreed batch digest.
    pub digest: Digest,
    /// The pre-prepare (with inline bodies for non-big requests).
    pub preprepare: Option<PrePrepareMsg>,
    /// Replicas whose prepare we hold.
    pub prepares: VoteSet,
    /// Replicas whose commit we hold.
    pub commits: VoteSet,
    /// 2f prepares + pre-prepare reached.
    pub prepared: bool,
    /// 2f+1 commits reached.
    pub committed: bool,
    /// Batch has been executed (stable).
    pub executed: bool,
    /// Batch was executed tentatively (after prepare, before commit).
    pub tentative: bool,
    /// The request bodies this slot owns, keyed by request digest: every
    /// body its pre-prepare names that sat in the replica's body store when
    /// the batch first executed, moved here in batch order. They leave the
    /// log with the slot, and a re-execution (rollback, a state transfer)
    /// finds them here.
    pub bodies: Vec<(Digest, RequestMsg)>,
}

impl LogEntry {
    fn new(view: View, digest: Digest) -> Self {
        LogEntry {
            view,
            digest,
            preprepare: None,
            prepares: VoteSet::default(),
            commits: VoteSet::default(),
            prepared: false,
            committed: false,
            executed: false,
            tentative: false,
            bodies: Vec::new(),
        }
    }

    /// The body of request `digest`, if this slot holds it.
    pub fn held(&self, digest: &Digest) -> Option<&RequestMsg> {
        self.bodies
            .iter()
            .find(|(d, _)| d == digest)
            .map(|(_, req)| req)
    }
}

/// The sequence-indexed log with low/high watermarks.
#[derive(Debug, Default, Clone)]
pub struct MessageLog {
    entries: BTreeMap<SeqNum, LogEntry>,
    /// Low watermark: the last stable checkpoint sequence.
    pub low: SeqNum,
    /// Log capacity above the low watermark.
    pub span: SeqNum,
}

impl MessageLog {
    /// Create a log with capacity `span` above the low watermark.
    pub fn new(span: SeqNum) -> Self {
        MessageLog {
            entries: BTreeMap::new(),
            low: 0,
            span,
        }
    }

    /// High watermark.
    pub fn high(&self) -> SeqNum {
        self.low + self.span
    }

    /// Is `seq` inside `(low, high]`?
    pub fn in_watermarks(&self, seq: SeqNum) -> bool {
        seq > self.low && seq <= self.high()
    }

    /// Get or create the entry for `(view, seq, digest)`.
    ///
    /// Returns `None` on a *conflicting* digest for an existing `(view,
    /// seq)` — the Byzantine-primary signal callers must treat as a protocol
    /// violation. A slot a higher view supersedes gives the bodies it held
    /// back to `store`: which batch the new view agrees on there is not yet
    /// known (a batch digest covers the view, so it never matches the old
    /// one), and whatever that batch names finds them in the store.
    pub fn entry_for(
        &mut self,
        seq: SeqNum,
        view: View,
        digest: Digest,
        store: &mut impl Extend<(Digest, RequestMsg)>,
    ) -> Option<&mut LogEntry> {
        let e = self
            .entries
            .entry(seq)
            .or_insert_with(|| LogEntry::new(view, digest));
        if e.view == view && e.digest != digest {
            return None;
        }
        if view > e.view {
            // Higher view supersedes (view change re-issued this seq).
            store.extend(std::mem::take(&mut e.bodies));
            *e = LogEntry::new(view, digest);
        } else if view < e.view {
            return None;
        }
        Some(e)
    }

    /// Existing entry for `seq`.
    pub fn get(&self, seq: SeqNum) -> Option<&LogEntry> {
        self.entries.get(&seq)
    }

    /// Existing entry, mutable.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut LogEntry> {
        self.entries.get_mut(&seq)
    }

    /// Iterate entries in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeqNum, &LogEntry)> {
        self.entries.iter()
    }

    /// Iterate the entries whose sequence number lies in `seqs`, in order —
    /// what the per-message paths use instead of walking the whole window.
    pub fn range(
        &self,
        seqs: impl RangeBounds<SeqNum>,
    ) -> impl DoubleEndedIterator<Item = (&SeqNum, &LogEntry)> {
        self.entries.range(seqs)
    }

    /// Iterate entries mutably in sequence order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&SeqNum, &mut LogEntry)> {
        self.entries.iter_mut()
    }

    /// Take the entries at or below `stable_seq` out of the log and advance
    /// the low watermark (checkpoint garbage collection). The dead entries
    /// come back to the caller still allocated — one tree split, nothing
    /// freed here — so it decides when the allocator pays for them.
    pub fn collect_garbage(&mut self, stable_seq: SeqNum) -> BTreeMap<SeqNum, LogEntry> {
        self.low = self.low.max(stable_seq);
        let live = self.entries.split_off(&stable_seq.saturating_add(1));
        std::mem::replace(&mut self.entries, live)
    }

    /// Checkpoint garbage collection as it was before retirement was split
    /// from reclamation: the reference the replica's retire step is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn collect_garbage_reference(&mut self, stable_seq: SeqNum) {
        self.low = self.low.max(stable_seq);
        self.entries.retain(|&s, _| s > stable_seq);
    }

    /// Prepared certificates above `stable_seq` (for view-change messages).
    pub fn prepared_proofs_above(&self, stable_seq: SeqNum) -> Vec<PrePrepareMsg> {
        self.entries
            .iter()
            .filter(|(&s, e)| s > stable_seq && e.prepared && e.preprepare.is_some())
            .map(|(_, e)| e.preprepare.clone().expect("filtered on presence"))
            .collect()
    }

    /// Discard uncommitted entries above `max_s` left over from views
    /// before `view` — pre-prepares a dead primary issued that no
    /// view-change vote carried into the new view's re-issue set. Nothing
    /// above `max_s` can have committed anywhere (a commit quorum forces a
    /// prepared certificate into every view-change quorum), so dropping is
    /// safe; keeping them would pin the congestion window on slots the new
    /// view will never re-agree. Matters most for leader-aggregated
    /// engines, where backups hold no prepare quorums of their own and a
    /// leader failure routinely strands its in-flight tail. A dropped slot
    /// that executed tentatively gives its bodies back to `store`.
    pub fn drop_stale_above(
        &mut self,
        max_s: SeqNum,
        view: View,
        store: &mut impl Extend<(Digest, RequestMsg)>,
    ) {
        self.entries.retain(|&s, e| {
            let keep = s <= max_s || e.view >= view || e.committed;
            if !keep {
                store.extend(std::mem::take(&mut e.bodies));
            }
            keep
        });
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(b: u8) -> Digest {
        Digest::of(&[b])
    }

    #[test]
    fn watermarks() {
        let mut log = MessageLog::new(256);
        assert!(!log.in_watermarks(0));
        assert!(log.in_watermarks(1));
        assert!(log.in_watermarks(256));
        assert!(!log.in_watermarks(257));
        log.collect_garbage(128);
        assert!(!log.in_watermarks(128));
        assert!(log.in_watermarks(129));
        assert!(log.in_watermarks(384));
    }

    #[test]
    fn conflicting_digest_rejected() {
        let mut log = MessageLog::new(256);
        let store = &mut Vec::new();
        assert!(log.entry_for(5, 0, digest(1), store).is_some());
        assert!(
            log.entry_for(5, 0, digest(2), store).is_none(),
            "same view, different digest"
        );
        assert!(
            log.entry_for(5, 0, digest(1), store).is_some(),
            "same digest fine"
        );
    }

    #[test]
    fn higher_view_supersedes() {
        let mut log = MessageLog::new(256);
        let store = &mut Vec::new();
        {
            let e = log.entry_for(5, 0, digest(1), store).expect("create");
            e.prepares.insert(crate::types::ReplicaId(1));
            e.prepared = true;
        }
        let e = log.entry_for(5, 1, digest(2), store).expect("supersede");
        assert_eq!(e.view, 1);
        assert!(!e.prepared, "state reset for the new view");
        assert!(
            log.entry_for(5, 0, digest(1), store).is_none(),
            "stale view rejected"
        );
    }

    fn body(ts: u64) -> (Digest, RequestMsg) {
        let req = RequestMsg {
            client: crate::types::ClientId(1),
            timestamp: ts,
            read_only: false,
            reply_addr: 0,
            op: crate::messages::Operation::Noop,
        };
        (req.digest(), req)
    }

    /// A slot that leaves the log other than by retirement — superseded by
    /// a higher view, or dropped as a stale tail — gives what it held back
    /// to the store; nothing else it does touches the store.
    #[test]
    fn superseded_and_dropped_slots_give_their_bodies_back() {
        let mut log = MessageLog::new(256);
        let mut store = Vec::new();
        for s in 1..=3u64 {
            let e = log
                .entry_for(s, 0, digest(s as u8), &mut store)
                .expect("create");
            e.bodies.push(body(s));
        }
        log.get_mut(3).expect("slot 3").committed = true;
        assert!(log.entry_for(1, 0, digest(1), &mut store).is_some());
        assert!(store.is_empty(), "the same view keeps its bodies");
        assert!(log.get(1).expect("slot 1").held(&body(1).0).is_some());

        log.entry_for(1, 1, digest(9), &mut store)
            .expect("supersede");
        assert!(log.get(1).expect("slot 1").bodies.is_empty());
        assert_eq!(store, vec![body(1)]);

        // Above max_s = 1 in view 1: the uncommitted view-0 slot 2 goes with
        // its body, the committed slot 3 stays with its own.
        log.drop_stale_above(1, 1, &mut store);
        assert!(log.get(2).is_none());
        assert_eq!(store, vec![body(1), body(2)]);
        assert_eq!(log.get(3).expect("slot 3").bodies, vec![body(3)]);
    }

    #[test]
    fn garbage_collection_drops_entries() {
        let mut log = MessageLog::new(256);
        for s in 1..=10 {
            log.entry_for(s, 0, digest(s as u8), &mut Vec::new())
                .expect("create");
        }
        assert_eq!(log.len(), 10);
        let mut reference = log.clone();
        let dead = log.collect_garbage(7);
        assert_eq!(
            dead.keys().copied().collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>()
        );
        assert_eq!(log.len(), 3);
        assert!(log.get(7).is_none());
        assert!(log.get(8).is_some());
        assert!(!log.is_empty());
        reference.collect_garbage_reference(7);
        assert!(log
            .iter()
            .map(|(s, _)| s)
            .eq(reference.iter().map(|(s, _)| s)));
        assert_eq!(log.low, reference.low);
        // Collecting below the low watermark takes nothing and moves nothing.
        assert!(log.collect_garbage(3).is_empty());
        assert_eq!((log.low, log.len()), (7, 3));
    }

    #[test]
    fn range_is_the_filtered_iteration() {
        let mut log = MessageLog::new(256);
        for s in [2u64, 3, 5, 9] {
            log.entry_for(s, 0, digest(s as u8), &mut Vec::new())
                .expect("create");
        }
        let seqs = |it: &mut dyn Iterator<Item = (&SeqNum, &LogEntry)>| -> Vec<SeqNum> {
            it.map(|(&s, _)| s).collect()
        };
        assert_eq!(seqs(&mut log.range(3..)), vec![3, 5, 9]);
        assert_eq!(seqs(&mut log.range(..=5)), vec![2, 3, 5]);
        assert_eq!(seqs(&mut log.range(6..=8)), Vec::<SeqNum>::new());
    }

    #[test]
    fn prepared_proofs_filtered() {
        let mut log = MessageLog::new(256);
        for s in 1..=4u64 {
            let e = log
                .entry_for(s, 0, digest(s as u8), &mut Vec::new())
                .expect("create");
            if s % 2 == 0 {
                e.prepared = true;
                e.preprepare = Some(PrePrepareMsg {
                    view: 0,
                    seq: s,
                    nondet: crate::app::NonDet::default(),
                    entries: vec![],
                });
            }
        }
        let proofs = log.prepared_proofs_above(2);
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].seq, 4);
    }
}
