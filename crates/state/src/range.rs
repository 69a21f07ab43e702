//! Key-range export/install over checkpoint snapshots — the state-transfer
//! primitive behind elastic resharding.
//!
//! A live shard split moves the keys of one hash span from a source PBFT
//! group to a freshly started target group. The bytes already exist in a
//! form the protocol trusts: the source's **stable checkpoint snapshot**,
//! whose Merkle root a quorum attested. This module extracts the moving
//! byte spans from such a snapshot — verifying every touched page against
//! the snapshot's own tree, exactly like tree-walk state transfer verifies
//! fetched pages — and packages them as a [`RangeExport`]: a verified list
//! of `(offset, bytes)` chunks plus the root they were extracted under. The
//! chunks travel to the target group inside ordered `XMsg::RangeInstall`
//! operations.
//!
//! The caller (the deployment harness, or an operator tool) decides *which*
//! byte spans constitute the moving key range — that mapping is an
//! application-layout concern (e.g. the fixed KV slots whose stored key
//! hashes into the moved span). This module guarantees the mechanics: the
//! extracted bytes are exactly the attested checkpoint's bytes, and
//! installation follows the region's modify-before-write contract so the
//! written pages enter the target's next checkpoint like any ordered write.
//!
//! ```
//! use pbft_state::{PagedState, RangeExport};
//!
//! let mut source = PagedState::new(4);
//! source.modify(4096, 16).unwrap();
//! source.write(4096, b"moved-slot-bytes").unwrap();
//! source.refresh_digest();
//! let checkpoint = source.snapshot(10);
//!
//! // Export one 16-byte span; pages are verified against the tree.
//! let export = RangeExport::extract(&checkpoint, [(4096u64, 16usize)]).unwrap();
//! assert_eq!(export.root, checkpoint.root);
//!
//! // Install on a fresh target region.
//! let mut target = PagedState::new(4);
//! export.install(&mut target).unwrap();
//! assert_eq!(target.read_vec(4096, 16).unwrap(), b"moved-slot-bytes");
//! ```

use std::fmt;

use pbft_crypto::Digest;

use crate::region::{PagedState, StateError, PAGE_SIZE};
use crate::snapshot::Snapshot;

/// Why a range export could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeError {
    /// A requested span leaves the snapshot's region.
    OutOfBounds {
        /// Start offset of the rejected span.
        offset: u64,
        /// Length of the rejected span.
        len: usize,
    },
    /// A page covering a requested span does not hash to the snapshot
    /// tree's leaf — the snapshot is internally corrupt, so nothing from
    /// it can be handed to another group.
    DigestMismatch {
        /// The page whose contents disagree with the tree.
        page: u64,
    },
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeError::OutOfBounds { offset, len } => {
                write!(f, "span at {offset} len {len} leaves the snapshot region")
            }
            RangeError::DigestMismatch { page } => {
                write!(f, "page {page} does not match the snapshot tree leaf")
            }
        }
    }
}

impl std::error::Error for RangeError {}

/// A verified set of byte chunks extracted from one checkpoint snapshot,
/// ready to be carried to a target group and installed there. See the
/// module docs above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeExport {
    /// The Merkle root of the snapshot the chunks were extracted from —
    /// the quorum-attested provenance of every byte below.
    pub root: Digest,
    /// `(region offset, bytes)` chunks, in extraction order.
    pub chunks: Vec<(u64, Vec<u8>)>,
}

impl RangeExport {
    /// Extract `spans` (`(offset, len)` pairs) from `snapshot`, verifying
    /// every touched page against the snapshot's Merkle tree first.
    /// Zero-length spans are skipped; chunk order follows span order.
    ///
    /// # Errors
    /// [`RangeError::OutOfBounds`] if a span leaves the region,
    /// [`RangeError::DigestMismatch`] if a touched page's contents disagree
    /// with the tree (a corrupt snapshot must never be propagated).
    pub fn extract(
        snapshot: &Snapshot,
        spans: impl IntoIterator<Item = (u64, usize)>,
    ) -> Result<RangeExport, RangeError> {
        let region_len = snapshot.len();
        let mut chunks = Vec::new();
        for (offset, len) in spans {
            if len == 0 {
                continue;
            }
            if offset
                .checked_add(len as u64)
                .is_none_or(|e| e > region_len)
            {
                return Err(RangeError::OutOfBounds { offset, len });
            }
            let first = offset / PAGE_SIZE as u64;
            let last = (offset + len as u64 - 1) / PAGE_SIZE as u64;
            for page in first..=last {
                let actual = match snapshot.page(page) {
                    Some(data) => Digest::of(data),
                    None => Digest::of(&[0u8; PAGE_SIZE]),
                };
                if actual != snapshot.tree().leaf(page as usize) {
                    return Err(RangeError::DigestMismatch { page });
                }
            }
            let mut bytes = Vec::with_capacity(len);
            let mut at = offset;
            let end = offset + len as u64;
            while at < end {
                let page = at / PAGE_SIZE as u64;
                let in_page = (at % PAGE_SIZE as u64) as usize;
                let take = (PAGE_SIZE - in_page).min((end - at) as usize);
                match snapshot.page(page) {
                    Some(data) => bytes.extend_from_slice(&data[in_page..in_page + take]),
                    None => bytes.extend(std::iter::repeat_n(0u8, take)),
                }
                at += take as u64;
            }
            chunks.push((offset, bytes));
        }
        Ok(RangeExport {
            root: snapshot.root,
            chunks,
        })
    }

    /// Write every chunk into `state`, honoring the modify-before-write
    /// contract (the touched pages become part of the next checkpoint).
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if a chunk leaves the target region —
    /// the target must be at least as large as the exported offsets reach.
    pub fn install(&self, state: &mut PagedState) -> Result<(), StateError> {
        for (offset, bytes) in &self.chunks {
            state.modify(*offset, bytes.len())?;
            state.write(*offset, bytes)?;
        }
        Ok(())
    }

    /// Total payload bytes across all chunks.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, b)| b.len()).sum()
    }

    /// True when the export carries no bytes (an empty moved range).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_with(writes: &[(u64, &[u8])]) -> PagedState {
        let mut st = PagedState::new(4);
        for (off, data) in writes {
            st.modify(*off, data.len()).expect("modify");
            st.write(*off, data).expect("write");
        }
        st.refresh_digest();
        st
    }

    #[test]
    fn extract_install_roundtrip_across_pages() {
        // A span crossing a page boundary, plus one on a sparse page.
        let mut data = vec![0u8; 100];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let off = PAGE_SIZE as u64 - 50;
        let st = source_with(&[(off, &data)]);
        let snap = st.snapshot(3);
        let export = RangeExport::extract(&snap, [(off, 100usize), (3 * PAGE_SIZE as u64, 8usize)])
            .expect("verifies");
        assert_eq!(export.root, snap.root);
        assert_eq!(export.len(), 108);
        assert!(!export.is_empty());
        assert_eq!(export.chunks[0].1, data, "boundary-crossing bytes exact");
        assert_eq!(export.chunks[1].1, vec![0u8; 8], "sparse page reads zero");

        let mut target = PagedState::new(4);
        export.install(&mut target).expect("fits");
        assert_eq!(target.read_vec(off, 100).expect("read"), data);
        // Installed pages are dirty: they enter the next checkpoint.
        assert!(target.dirty_pages() > 0);
    }

    #[test]
    fn empty_spans_are_skipped() {
        let st = source_with(&[]);
        let export = RangeExport::extract(&st.snapshot(1), [(0u64, 0usize)]).expect("ok");
        assert!(export.is_empty());
        assert!(export.chunks.is_empty());
    }

    #[test]
    fn out_of_bounds_span_is_rejected() {
        let st = source_with(&[]);
        let snap = st.snapshot(1);
        assert_eq!(
            RangeExport::extract(&snap, [(snap.len() - 4, 8usize)]),
            Err(RangeError::OutOfBounds {
                offset: snap.len() - 4,
                len: 8
            })
        );
        assert_eq!(
            RangeExport::extract(&snap, [(u64::MAX, 8usize)]),
            Err(RangeError::OutOfBounds {
                offset: u64::MAX,
                len: 8
            })
        );
    }

    #[test]
    fn corrupt_snapshot_pages_are_refused() {
        let st = source_with(&[(0, b"attested")]);
        let mut snap = st.snapshot(1);
        // Corrupt the page behind the tree's back.
        let page = std::sync::Arc::make_mut(snap.pages.get_mut(0).as_mut().expect("materialized"));
        page[0] ^= 0xFF;
        assert_eq!(
            RangeExport::extract(&snap, [(0u64, 8usize)]),
            Err(RangeError::DigestMismatch { page: 0 })
        );
    }

    #[test]
    fn install_rejects_a_too_small_target() {
        let st = source_with(&[(3 * PAGE_SIZE as u64, b"tail")]);
        let export =
            RangeExport::extract(&st.snapshot(1), [(3 * PAGE_SIZE as u64, 4usize)]).expect("ok");
        let mut small = PagedState::new(2);
        assert!(export.install(&mut small).is_err());
    }
}
