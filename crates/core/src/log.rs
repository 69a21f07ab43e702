//! The replica message log: per-sequence agreement state between watermarks.

use std::ops::{Bound, RangeBounds};

use pbft_crypto::Digest;

use crate::messages::{PrePrepareMsg, RequestMsg};
use crate::types::{SeqNum, View, VoteSet};

/// Agreement state for one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The sequence number this slot holds.
    pub seq: SeqNum,
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
    fn new(seq: SeqNum, view: View, digest: Digest) -> Self {
        LogEntry {
            seq,
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

    /// A slot that holds no sequence number (0 is never inside the window).
    fn vacant() -> Self {
        LogEntry::new(0, 0, Digest::ZERO)
    }

    /// The body of request `digest`, if this slot holds it.
    pub fn held(&self, digest: &Digest) -> Option<&RequestMsg> {
        self.bodies
            .iter()
            .find(|(d, _)| d == digest)
            .map(|(_, req)| req)
    }

    /// Drop what a dead slot owns — its pre-prepare and its bodies — and
    /// hand back its emptied body list.
    fn free(&mut self) -> Vec<(Digest, RequestMsg)> {
        self.preprepare = None;
        let mut list = std::mem::take(&mut self.bodies);
        list.clear();
        list
    }
}

/// The log between the watermarks: a ring of `span` slots, allocated on
/// first use, in which slot `s % span` holds sequence number `s` while
/// `low < s <= low + span`. Advancing `low` is retirement — a slot that
/// falls below it is dead, unreachable, and still holds what it held — and
/// freeing is separate and paced by the caller: [`MessageLog::free_next`]
/// one slot at a time, [`MessageLog::free_dead`] all at once, and an
/// advance first frees whatever the previous one left, so the dead never
/// hold more than one stabilisation's garbage. [`MessageLog::free_if_idle`]
/// frees them all on a replica whose cursor stopped.
#[derive(Debug)]
pub struct MessageLog {
    slots: Vec<LogEntry>,
    /// Low watermark: the last stable checkpoint sequence.
    pub low: SeqNum,
    /// Log capacity above the low watermark.
    pub span: SeqNum,
    /// Every slot at or below this sequence number is freed. Never above
    /// `low`.
    freed: SeqNum,
    /// The highest sequence number ever given a slot: iteration stops here.
    top: SeqNum,
    /// `freed` at the previous status tick.
    ticked: SeqNum,
}

impl MessageLog {
    /// Create a log with capacity `span` above the low watermark.
    pub fn new(span: SeqNum) -> Self {
        MessageLog {
            slots: Vec::new(),
            low: 0,
            span,
            freed: 0,
            top: 0,
            ticked: 0,
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

    fn index(&self, seq: SeqNum) -> usize {
        (seq % self.span) as usize
    }

    /// Get or create the entry for `(view, seq, digest)`; `None` outside
    /// the watermarks.
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
        if !self.in_watermarks(seq) {
            return None;
        }
        if self.slots.is_empty() {
            self.slots = vec![LogEntry::vacant(); self.span as usize];
        }
        self.top = self.top.max(seq);
        let i = self.index(seq);
        let e = &mut self.slots[i];
        if e.seq != seq {
            // The slot's previous holder is dead; whatever it still owned
            // goes now.
            *e = LogEntry::new(seq, view, digest);
        }
        if e.view == view && e.digest != digest {
            return None;
        }
        if view > e.view {
            // Higher view supersedes (view change re-issued this seq).
            store.extend(std::mem::take(&mut e.bodies));
            *e = LogEntry::new(seq, view, digest);
        } else if view < e.view {
            return None;
        }
        Some(e)
    }

    /// Existing entry for `seq`.
    pub fn get(&self, seq: SeqNum) -> Option<&LogEntry> {
        let e = self.slots.get(self.index(seq))?;
        (e.seq == seq && self.in_watermarks(seq)).then_some(e)
    }

    /// Existing entry, mutable.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut LogEntry> {
        let live = self.in_watermarks(seq);
        let i = self.index(seq);
        self.slots.get_mut(i).filter(|e| live && e.seq == seq)
    }

    /// Iterate entries in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeqNum, &LogEntry)> {
        self.range(..)
    }

    /// Iterate the entries whose sequence number lies in `seqs`, in order —
    /// what the per-message paths use instead of walking the whole window.
    pub fn range(
        &self,
        seqs: impl RangeBounds<SeqNum>,
    ) -> impl Iterator<Item = (&SeqNum, &LogEntry)> {
        let start = match seqs.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s.saturating_add(1),
            Bound::Unbounded => 0,
        };
        (start.max(self.low + 1)..=self.top)
            .take_while(move |s| seqs.contains(s))
            .filter_map(|s| self.get(s))
            .map(|e| (&e.seq, e))
    }

    /// Iterate entries mutably, in ring order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut LogEntry> {
        let (low, high) = (self.low, self.high());
        self.slots
            .iter_mut()
            .filter(move |e| e.seq > low && e.seq <= high)
    }

    /// Advance the low watermark to `stable_seq` (checkpoint garbage
    /// collection). The entries at or below it leave the window unfreed;
    /// what the previous advance left unfreed is freed first.
    pub fn advance(&mut self, stable_seq: SeqNum) {
        self.free_dead();
        self.low = self.low.max(stable_seq);
    }

    /// Free the next dead slot, if one is waiting, and hand back its
    /// emptied body list for a batch about to execute.
    pub fn free_next(&mut self) -> Vec<(Digest, RequestMsg)> {
        if self.freed == self.low {
            return Vec::new();
        }
        self.freed += 1;
        let (seq, i) = (self.freed, self.index(self.freed));
        match self.slots.get_mut(i) {
            Some(e) if e.seq == seq => e.free(),
            _ => Vec::new(),
        }
    }

    /// Status tick: a cursor that has not moved since the previous tick
    /// belongs to a replica that executed nothing in between (each batch
    /// moves it while dead slots wait), and nobody waits on that replica,
    /// so every dead slot is freed now. Without this an idle replica keeps
    /// an interval's bodies until its next batch.
    pub fn free_if_idle(&mut self) {
        if self.freed == self.ticked {
            self.free_dead();
        }
        self.ticked = self.freed;
    }

    /// Free every dead slot at once: one pass over at most `span` slots,
    /// however far the low watermark moved.
    pub fn free_dead(&mut self) {
        let (from, to) = (self.freed, self.low);
        for s in from.max(to.saturating_sub(self.span)) + 1..=to {
            let i = self.index(s);
            if let Some(e) = self.slots.get_mut(i) {
                if e.seq > from && e.seq <= to {
                    e.free();
                }
            }
        }
        self.freed = to;
    }

    /// Prepared certificates above `stable_seq` (for view-change messages).
    pub fn prepared_proofs_above(&self, stable_seq: SeqNum) -> Vec<PrePrepareMsg> {
        self.range(stable_seq.saturating_add(1)..)
            .filter(|(_, e)| e.prepared)
            .filter_map(|(_, e)| e.preprepare.clone())
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
        for e in self.iter_mut() {
            if e.seq > max_s && e.view < view && !e.committed {
                store.extend(std::mem::take(&mut e.bodies));
                *e = LogEntry::vacant();
            }
        }
    }
}

/// The log as it was before the ring — a `BTreeMap` of live entries, with
/// garbage collection that drops what leaves — kept as the oracle the ring
/// and the replica's retirement are checked against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;
    use std::ops::RangeBounds;

    use pbft_crypto::Digest;

    use super::LogEntry;
    use crate::messages::{PrePrepareMsg, RequestMsg};
    use crate::types::{SeqNum, View};

    /// The map-backed log.
    #[derive(Debug, Clone)]
    pub(crate) struct MessageLog {
        entries: BTreeMap<SeqNum, LogEntry>,
        pub(crate) low: SeqNum,
        span: SeqNum,
    }

    impl MessageLog {
        pub(crate) fn new(span: SeqNum) -> Self {
            MessageLog {
                entries: BTreeMap::new(),
                low: 0,
                span,
            }
        }

        /// A copy of the ring's live entries and watermarks.
        pub(crate) fn of(ring: &super::MessageLog) -> Self {
            MessageLog {
                entries: ring.iter().map(|(&s, e)| (s, e.clone())).collect(),
                low: ring.low,
                span: ring.span,
            }
        }

        fn in_watermarks(&self, seq: SeqNum) -> bool {
            seq > self.low && seq <= self.low + self.span
        }

        pub(crate) fn entry_for(
            &mut self,
            seq: SeqNum,
            view: View,
            digest: Digest,
            store: &mut impl Extend<(Digest, RequestMsg)>,
        ) -> Option<&mut LogEntry> {
            if !self.in_watermarks(seq) {
                return None;
            }
            let e = self
                .entries
                .entry(seq)
                .or_insert_with(|| LogEntry::new(seq, view, digest));
            if e.view == view && e.digest != digest {
                return None;
            }
            if view > e.view {
                store.extend(std::mem::take(&mut e.bodies));
                *e = LogEntry::new(seq, view, digest);
            } else if view < e.view {
                return None;
            }
            Some(e)
        }

        pub(crate) fn get(&self, seq: SeqNum) -> Option<&LogEntry> {
            self.entries.get(&seq)
        }

        pub(crate) fn get_mut(&mut self, seq: SeqNum) -> Option<&mut LogEntry> {
            self.entries.get_mut(&seq)
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = (&SeqNum, &LogEntry)> {
            self.entries.iter()
        }

        pub(crate) fn range(
            &self,
            seqs: impl RangeBounds<SeqNum>,
        ) -> impl Iterator<Item = (&SeqNum, &LogEntry)> {
            self.entries.range(seqs)
        }

        /// Drop the entries at or below `stable_seq` and advance the low
        /// watermark.
        pub(crate) fn collect_garbage(&mut self, stable_seq: SeqNum) {
            self.low = self.low.max(stable_seq);
            self.entries.retain(|&s, _| s > stable_seq);
        }

        pub(crate) fn prepared_proofs_above(&self, stable_seq: SeqNum) -> Vec<PrePrepareMsg> {
            self.entries
                .iter()
                .filter(|(&s, e)| s > stable_seq && e.prepared && e.preprepare.is_some())
                .map(|(_, e)| e.preprepare.clone().expect("filtered on presence"))
                .collect()
        }

        pub(crate) fn drop_stale_above(
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
    }

    /// The ring's freed cursor.
    pub(crate) fn freed(ring: &super::MessageLog) -> SeqNum {
        ring.freed
    }

    /// Dead slots not yet freed, in sequence order: `(seq, bodies held)`.
    pub(crate) fn unfreed(ring: &super::MessageLog) -> Vec<(SeqNum, usize)> {
        let mut dead: Vec<(SeqNum, usize)> = ring
            .slots
            .iter()
            .filter(|e| e.seq > ring.freed && e.seq <= ring.low)
            .map(|e| (e.seq, e.bodies.len()))
            .collect();
        dead.sort_unstable();
        dead
    }

    /// The cursor's invariant: it is never above the low watermark, and a
    /// slot at or below it holds no pre-prepare and no bodies — nor any
    /// capacity for them, which went to the batch the freeing call executed.
    pub(crate) fn assert_freed_hold_nothing(ring: &super::MessageLog) {
        assert!(ring.freed <= ring.low, "freed past the low watermark");
        for e in ring.slots.iter().filter(|e| e.seq <= ring.freed) {
            assert!(
                e.preprepare.is_none() && e.bodies.capacity() == 0,
                "freed slot {} still holds its batch",
                e.seq
            );
        }
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
        log.advance(128);
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

    /// Retirement takes nothing out of a slot; the cursor frees one slot
    /// per call in sequence order and hands back its list, and an advance
    /// first frees what the previous one left.
    #[test]
    fn garbage_collection_drops_entries() {
        let mut log = MessageLog::new(16);
        for s in 1..=10 {
            let e = log
                .entry_for(s, 0, digest(s as u8), &mut Vec::new())
                .expect("create");
            e.bodies.push(body(s));
        }
        log.advance(7);
        assert_eq!(log.iter().count(), 3);
        assert!(log.get(7).is_none());
        assert!(log.get(8).is_some());
        let unfreed = |log: &MessageLog| -> Vec<SeqNum> {
            reference::unfreed(log)
                .into_iter()
                .map(|(s, _)| s)
                .collect()
        };
        assert_eq!(unfreed(&log), (1..=7).collect::<Vec<_>>());
        let list = log.free_next();
        assert!(list.is_empty() && list.capacity() >= 1, "slot 1's list");
        assert_eq!(reference::freed(&log), 1);
        log.free_next();
        reference::assert_freed_hold_nothing(&log);
        // Advancing again frees 3..=7 at once and retires 8 and 9.
        log.advance(9);
        assert_eq!(unfreed(&log), vec![8, 9]);
        reference::assert_freed_hold_nothing(&log);
        log.free_dead();
        assert_eq!(reference::freed(&log), 9);
        assert_eq!(log.free_next().capacity(), 0, "nothing left to free");
        // Advancing below the low watermark moves nothing.
        log.advance(3);
        assert_eq!((log.low, log.iter().count()), (9, 1));
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

    /// The ring answers every question the map-backed log answers, the
    /// same way, through random operations: `entry_for` across views and
    /// digests (a conflicting digest, a lower view, a sequence number
    /// outside the window, and `s + span`, which shares a slot with `s`),
    /// `get_mut` edits, advances of the low watermark (jumps past the span
    /// included) interleaved with the freeing cursor, `drop_stale_above`,
    /// and ranges with arbitrary bounds. After every operation the live
    /// entries are equal.
    #[test]
    fn the_ring_matches_the_map_on_random_operations() {
        use std::ops::Bound;

        const SPAN: SeqNum = 8;
        propcheck::check("ring_matches_map", 300, |g| {
            let mut ring = MessageLog::new(SPAN);
            let mut map = reference::MessageLog::new(SPAN);
            let (mut ring_store, mut map_store) = (Vec::new(), Vec::new());
            let mut next_body = 0;
            for _ in 0..g.usize_in(1..80) {
                // Mostly inside the window, sometimes just outside it or a
                // whole span above a live slot.
                let seq = (ring.low + g.u64_in(0..2 * SPAN + 2)).saturating_sub(1);
                // `BTreeMap::range` wants start < end.
                let bound = |g: &mut propcheck::Gen, s: SeqNum| match g.choice(3) {
                    0 => Bound::Included(s),
                    1 => Bound::Excluded(s),
                    _ => Bound::Unbounded,
                };
                match g.choice(8) {
                    0..=2 => {
                        let view = g.u64_in(0..3);
                        let d = digest(g.u8_in(0..3));
                        let a = ring.entry_for(seq, view, d, &mut ring_store).cloned();
                        let b = map.entry_for(seq, view, d, &mut map_store).cloned();
                        assert_eq!(a, b, "entry_for({seq}, {view})");
                    }
                    3 => {
                        let (a, b) = (ring.get_mut(seq), map.get_mut(seq));
                        assert_eq!(a.is_some(), b.is_some(), "get_mut({seq})");
                        if let (Some(a), Some(b)) = (a, b) {
                            next_body += 1;
                            let (prepared, committed) = (g.bool(), g.bool());
                            for e in [a, b] {
                                (e.prepared, e.committed) = (prepared, committed);
                                e.bodies.push(body(next_body));
                                e.preprepare = Some(PrePrepareMsg {
                                    view: e.view,
                                    seq: e.seq,
                                    nondet: crate::app::NonDet::default(),
                                    entries: vec![],
                                });
                            }
                        }
                    }
                    4 => {
                        let stable = map.low + g.u64_in(0..3 * SPAN);
                        ring.advance(stable);
                        map.collect_garbage(stable);
                    }
                    5 => {
                        ring.free_next();
                    }
                    6 => {
                        let (max_s, view) = (seq, g.u64_in(0..3));
                        ring.drop_stale_above(max_s, view, &mut ring_store);
                        map.drop_stale_above(max_s, view, &mut map_store);
                    }
                    _ => {
                        let start = map.low + g.u64_in(0..2 * SPAN);
                        let end = start + g.u64_in(1..2 * SPAN);
                        let r = (bound(g, start), bound(g, end));
                        assert!(ring.range(r).eq(map.range(r)), "range {r:?}");
                        assert_eq!(ring.get(seq), map.get(seq), "get({seq})");
                        assert_eq!(
                            ring.prepared_proofs_above(seq),
                            map.prepared_proofs_above(seq)
                        );
                    }
                }
                assert!(ring.iter().eq(map.iter()), "live entries");
                assert_eq!(ring.low, map.low);
                ring_store.sort_by_key(|(_, req): &(Digest, RequestMsg)| req.timestamp);
                map_store.sort_by_key(|(_, req): &(Digest, RequestMsg)| req.timestamp);
                assert_eq!(ring_store, map_store, "bodies given back");
                reference::assert_freed_hold_nothing(&ring);
            }
        });
    }
}
