//! Copy-on-write checkpoints of the state region.

use pbft_crypto::Digest;

use crate::chunked::ChunkedVec;
use crate::merkle::MerkleTree;
use crate::region::{PageSlot, PAGE_SIZE};

/// A checkpoint: the page table (shared copy-on-write with the live region)
/// plus the Merkle tree at the checkpoint sequence number.
///
/// Snapshots serve three purposes in the protocol: they are what checkpoint
/// messages attest to (the root), what state transfer serves pages from, and
/// what tentative execution rolls back to after a failed view change.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The sequence number at which this checkpoint was taken.
    pub seq: u64,
    /// Merkle root over all pages.
    pub root: Digest,
    /// Page table; `None` = zero page.
    pub(crate) pages: ChunkedVec<PageSlot>,
    /// The full tree, for serving meta (tree-walk) requests.
    pub(crate) tree: MerkleTree,
}

impl Snapshot {
    /// Page contents at the checkpoint (`None` = zero page).
    pub fn page(&self, page: u64) -> Option<&[u8]> {
        self.pages
            .get(page as usize)
            .and_then(|p| p.as_deref().map(|v| v.as_slice()))
    }

    /// The Merkle tree at the checkpoint.
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Number of pages in the snapshot.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes represented (pages × page size).
    pub fn len(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Always false (snapshots cover at least one page).
    pub fn is_empty(&self) -> bool {
        self.pages.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::region::PagedState;

    #[test]
    fn snapshot_serves_pages() {
        let mut st = PagedState::new(3);
        st.modify(0, 2).expect("modify");
        st.write(0, b"ok").expect("write");
        st.refresh_digest();
        let snap = st.snapshot(5);
        assert_eq!(&snap.page(0).expect("page")[..2], b"ok");
        assert!(snap.page(1).is_none(), "untouched page stays sparse");
        assert!(snap.page(99).is_none());
        assert_eq!(snap.num_pages(), 3);
        assert!(!snap.is_empty());
        assert_eq!(snap.len(), 3 * crate::region::PAGE_SIZE as u64);
        assert_eq!(snap.tree().root(), snap.root);
    }
}
