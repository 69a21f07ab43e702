//! The paged state region with enforced modify-notifications.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use pbft_crypto::{Digest, Sha256};

use crate::chunked::ChunkedVec;
use crate::merkle::{Fold, MerkleTree};
use crate::snapshot::Snapshot;

/// Page size in bytes. 4 KiB, matching both the PBFT library's state pages
/// and minisql's database pages (which is what lets the database file map
/// 1:1 onto state pages).
pub const PAGE_SIZE: usize = 4096;

/// Internal Merkle nodes folded for the price of one page hash: a node
/// hashes its position and two digests, 76 bytes or two SHA-256 blocks
/// with the padding, and a page is 65 blocks. A budget of `pages` page
/// hashes ([`PagedState::checkpoint_step`]) is `pages` times this many
/// units, a page costing this many and a node one.
pub const FOLDS_PER_PAGE_HASH: usize = 32;

/// The work spent producing roots — pages hashed and internal nodes folded
/// by [`PagedState::refresh_digest`] and by a sealed checkpoint's steps —
/// summed over a region's life; what one call did is the difference
/// between two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootWork {
    /// Pages hashed for a root (early hashes by
    /// [`PagedState::hash_settled`] are not counted).
    pub pages_hashed: u64,
    /// Internal nodes recomputed.
    pub nodes_folded: u64,
}

/// Errors from state-region operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// A read or write touched bytes beyond the region.
    OutOfBounds {
        /// Start offset of the rejected access.
        offset: u64,
        /// Length of the rejected access.
        len: usize,
        /// Total region length the access fell outside of.
        region_len: u64,
    },
    /// A write touched a page that was not covered by a prior
    /// [`PagedState::modify`] in the current checkpoint epoch.
    NotModified {
        /// The unnotified page index.
        page: u64,
    },
    /// A restore was attempted from a snapshot of a different geometry.
    GeometryMismatch,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::OutOfBounds {
                offset,
                len,
                region_len,
            } => write!(
                f,
                "access at offset {offset} len {len} out of bounds (region is {region_len} bytes)"
            ),
            StateError::NotModified { page } => {
                write!(
                    f,
                    "write to page {page} without a prior modify() notification"
                )
            }
            StateError::GeometryMismatch => write!(f, "snapshot geometry does not match region"),
        }
    }
}

impl std::error::Error for StateError {}

/// Digest of an all-zero page (shared by every lazily allocated page),
/// hashed once per process.
pub(crate) fn zero_page_digest() -> Digest {
    static ZERO: OnceLock<Digest> = OnceLock::new();
    *ZERO.get_or_init(|| Digest::of(&[0u8; PAGE_SIZE]))
}

/// The tree of an all-zero region of `num_pages` pages. It is a function of
/// the page count alone, so it is built once per count (per thread) and
/// every blank region starts from a clone that shares its chunks; a first
/// write un-shares a chunk, as it does for a snapshot.
fn blank_tree(num_pages: usize) -> MerkleTree {
    thread_local! {
        static BLANK: RefCell<HashMap<usize, MerkleTree>> = RefCell::new(HashMap::new());
    }
    BLANK.with(|blank| {
        blank
            .borrow_mut()
            .entry(num_pages)
            .or_insert_with(|| MerkleTree::build(vec![zero_page_digest(); num_pages]))
            .clone()
    })
}

fn slot_digest(slot: &PageSlot) -> Digest {
    match slot {
        Some(data) => {
            let mut h = Sha256::new();
            h.update(data);
            h.finish()
        }
        None => zero_page_digest(),
    }
}

/// A page's bytes, shared: a clone is another reference to the same
/// image, and the region copies an image before it writes one that anyone
/// else holds, so a shared image never changes.
pub type SharedPage = Arc<Vec<u8>>;

/// One page-table slot; `None` = all-zero page not yet materialized.
pub(crate) type PageSlot = Option<SharedPage>;

/// Where a page notified via `modify` stands in the current checkpoint
/// interval. A page's leaf in the tree is out of date from its first
/// `modify` until the next `refresh_digest`, whatever its mark says: the
/// marks only decide *when* its bytes are hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Notified or written since the last [`PagedState::hash_settled`]:
    /// presumably still being written.
    Recent,
    /// Has sat out at least one `hash_settled` without a write and has not
    /// been hashed early yet.
    Waiting,
    /// Hashed early; the digest is current because nothing wrote the page
    /// since.
    Settled(Digest),
    /// Hashed early and written again: hashed at the refresh, not a second
    /// time before it (at most one early hash per page per interval).
    Spent,
}

/// What is left of producing a root over one interval's leaves: the pages
/// still to hash, then the fold above every leaf.
#[derive(Debug, Clone)]
struct Refresh {
    unhashed: Vec<usize>,
    fold: Fold,
}

impl Refresh {
    /// Start on the interval `stale`: early digests go into `tree`'s leaves
    /// at once, the other pages wait for [`Refresh::step`].
    fn begin(stale: BTreeMap<u64, Mark>, tree: &mut MerkleTree) -> Refresh {
        let mut unhashed = Vec::new();
        for (&p, mark) in &stale {
            match *mark {
                Mark::Settled(digest) => tree.set_leaf(p as usize, digest),
                _ => unhashed.push(p as usize),
            }
        }
        let fold = Fold::new(stale.into_keys().map(|p| p as usize).collect());
        Refresh { unhashed, fold }
    }

    /// Spend up to `budget` units (a page hash is [`FOLDS_PER_PAGE_HASH`],
    /// a node one) hashing pages of `pages` into `tree`'s leaves, then
    /// folding; returns whether the root is finished.
    fn step(
        &mut self,
        pages: &ChunkedVec<PageSlot>,
        tree: &mut MerkleTree,
        budget: usize,
        work: &mut RootWork,
    ) -> bool {
        let mut left = budget;
        while let Some(&p) = self.unhashed.last() {
            if left < FOLDS_PER_PAGE_HASH {
                return false;
            }
            tree.set_leaf(p, slot_digest(&pages[p]));
            self.unhashed.pop();
            left -= FOLDS_PER_PAGE_HASH;
            work.pages_hashed += 1;
        }
        work.nodes_folded += self.fold.step(tree, left) as u64;
        self.fold.is_done(tree)
    }
}

/// A checkpoint interval sealed by [`PagedState::seal`]: the page table and
/// the tree as of the boundary (copy-on-write clones of the region's), and
/// the work left before the tree's root is the interval's.
#[derive(Debug, Clone)]
struct Sealed {
    seq: u64,
    pages: ChunkedVec<PageSlot>,
    tree: MerkleTree,
    refresh: Refresh,
}

impl Sealed {
    /// Returns whether the root is finished.
    fn step(&mut self, budget: usize, work: &mut RootWork) -> bool {
        self.refresh.step(&self.pages, &mut self.tree, budget, work)
    }
}

/// A fixed-size, page-granular memory region with copy-on-write snapshots
/// and an incremental Merkle tree. See the crate docs for the contract.
#[derive(Debug, Clone)]
pub struct PagedState {
    pages: ChunkedVec<PageSlot>,
    tree: MerkleTree,
    /// Pages notified via `modify` since the last `refresh_digest` or
    /// `seal`.
    stale: BTreeMap<u64, Mark>,
    /// Pages installed by state transfer whose leaf is set and whose
    /// ancestors wait for [`PagedState::fold_installed`].
    installed: BTreeSet<usize>,
    /// The sealed checkpoint whose root is still being finished.
    sealed: Option<Sealed>,
    /// A sealed checkpoint another call finished, until
    /// [`PagedState::checkpoint_step`] hands it out.
    finished: Option<Snapshot>,
    /// Pages hashed by the last `refresh_digest` (for cost accounting).
    last_refresh_hashed: u64,
    work: RootWork,
    len: u64,
}

impl PagedState {
    /// Create a region of `num_pages` zeroed pages.
    ///
    /// # Panics
    /// Panics if `num_pages == 0`.
    pub fn new(num_pages: usize) -> PagedState {
        assert!(num_pages > 0, "state needs at least one page");
        PagedState {
            pages: ChunkedVec::from_vec(vec![None; num_pages]),
            tree: blank_tree(num_pages),
            stale: BTreeMap::new(),
            installed: BTreeSet::new(),
            sealed: None,
            finished: None,
            last_refresh_hashed: 0,
            work: RootWork::default(),
            len: (num_pages * PAGE_SIZE) as u64,
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the region has zero length (never: regions have ≥ 1 page).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn check_bounds(&self, offset: u64, len: usize) -> Result<(), StateError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(StateError::OutOfBounds {
                offset,
                len,
                region_len: self.len,
            });
        }
        Ok(())
    }

    /// Read `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if the range exceeds the region.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), StateError> {
        self.check_bounds(offset, buf.len())?;
        let mut off = offset as usize;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let take = (PAGE_SIZE - in_page).min(buf.len() - filled);
            match &self.pages[page] {
                Some(p) => buf[filled..filled + take].copy_from_slice(&p[in_page..in_page + take]),
                None => buf[filled..filled + take].fill(0),
            }
            filled += take;
            off += take;
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if the range exceeds the region.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>, StateError> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Notify the library that bytes in `[offset, offset + len)` are about to
    /// change — the PBFT `modify()` upcall. Must precede [`PagedState::write`]
    /// within the same checkpoint epoch.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if the range exceeds the region.
    pub fn modify(&mut self, offset: u64, len: usize) -> Result<(), StateError> {
        if len == 0 {
            return Ok(());
        }
        self.check_bounds(offset, len)?;
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + len as u64 - 1) / PAGE_SIZE as u64;
        for p in first..=last {
            self.stale.entry(p).or_insert(Mark::Recent);
        }
        Ok(())
    }

    /// Write `data` at `offset`. Every touched page must have been covered by
    /// a [`PagedState::modify`] call since the last digest refresh.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] or [`StateError::NotModified`].
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), StateError> {
        if data.is_empty() {
            return Ok(());
        }
        self.check_bounds(offset, data.len())?;
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + data.len() as u64 - 1) / PAGE_SIZE as u64;
        self.mark_written(first, last)?;
        let mut off = offset as usize;
        let mut written = 0usize;
        while written < data.len() {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let take = (PAGE_SIZE - in_page).min(data.len() - written);
            let slot = self.pages.get_mut(page);
            let buf = match slot {
                Some(arc) => Arc::make_mut(arc), // copy-on-write un-share
                None => {
                    *slot = Some(Arc::new(vec![0u8; PAGE_SIZE]));
                    Arc::make_mut(slot.as_mut().expect("just set"))
                }
            };
            buf[in_page..in_page + take].copy_from_slice(&data[written..written + take]);
            written += take;
            off += take;
        }
        Ok(())
    }

    /// Record a write to pages `first..=last`, each of which must have been
    /// notified in this interval.
    fn mark_written(&mut self, first: u64, last: u64) -> Result<(), StateError> {
        for p in first..=last {
            // One notification covers every write of the interval, so it is
            // the write, not the `modify`, that outdates an early digest.
            let mark = self
                .stale
                .get_mut(&p)
                .ok_or(StateError::NotModified { page: p })?;
            *mark = match *mark {
                Mark::Recent | Mark::Waiting => Mark::Recent,
                Mark::Settled(_) | Mark::Spent => Mark::Spent,
            };
        }
        Ok(())
    }

    /// Page `page`'s image itself, shared rather than copied (`None`: the
    /// zero page, or a page past the region). The image never changes:
    /// a later write to the page un-shares it first, as it does for a
    /// snapshot.
    pub fn share_page(&self, page: u64) -> Option<SharedPage> {
        self.pages.get(page as usize)?.clone()
    }

    /// Make `data`, a whole page, page `page`'s image without copying it:
    /// [`PagedState::write`] of all its bytes, under the same contract (the
    /// page must have been notified in this interval) and with the same
    /// effect on the digests. Returns the image it replaced (`None`: the
    /// zero page), which a snapshot may still share.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if `page` is past the region or `data`
    /// is not one page long; [`StateError::NotModified`].
    pub fn put_page(
        &mut self,
        page: u64,
        data: SharedPage,
    ) -> Result<Option<SharedPage>, StateError> {
        let offset = page.saturating_mul(PAGE_SIZE as u64);
        if data.len() != PAGE_SIZE {
            return Err(StateError::OutOfBounds {
                offset,
                len: data.len(),
                region_len: self.len,
            });
        }
        self.check_bounds(offset, PAGE_SIZE)?;
        self.mark_written(page, page)?;
        Ok(self.pages.get_mut(page as usize).replace(data))
    }

    /// Hash up to `limit` pages ahead of the next
    /// [`PagedState::refresh_digest`] and return how many were hashed.
    ///
    /// The caller marks the end of a unit of writing — the replica calls
    /// this after each executed batch. A page is hashed here once it has
    /// sat out one whole such unit without a `write` (the batch just
    /// executed did not touch it), and at most once per checkpoint
    /// interval: a page written again after its early hash is hashed by the
    /// refresh, so an interval hashes no page more than twice and
    /// append-shaped traffic hashes nothing twice. The digests are parked
    /// beside the tree — [`PagedState::tree`], [`PagedState::dirty_pages`]
    /// and the `modify`-before-`write` contract do not see them — and the
    /// refresh only folds them in, so the root is the one it would have
    /// produced without this call. One pass over the interval's notified
    /// pages, lowest first.
    pub fn hash_settled(&mut self, limit: usize) -> u64 {
        let mut hashed = 0;
        let pages = &self.pages;
        for (&p, mark) in &mut self.stale {
            match *mark {
                Mark::Waiting if hashed < limit => {
                    *mark = Mark::Settled(slot_digest(&pages[p as usize]));
                    hashed += 1;
                }
                Mark::Recent => *mark = Mark::Waiting,
                _ => {}
            }
        }
        hashed as u64
    }

    /// Recompute digests for dirty pages and return the Merkle root. Clears
    /// the dirty set (ending the checkpoint epoch: further writes need new
    /// `modify` notifications). Pages [`PagedState::hash_settled`] already
    /// hashed are not hashed again, and the tree is folded once over all the
    /// interval's leaves. A sealed checkpoint still being finished is
    /// finished first (and handed out by the next
    /// [`PagedState::checkpoint_step`]), and transferred pages still
    /// unfolded are folded, so a tree walk started after a refresh always
    /// sees a consistent tree. This is [`PagedState::seal`]'s work run to
    /// completion in one call, into the region's own tree.
    pub fn refresh_digest(&mut self) -> Digest {
        let before = self.work.pages_hashed;
        self.fold_installed();
        let mut refresh = Refresh::begin(std::mem::take(&mut self.stale), &mut self.tree);
        refresh.step(&self.pages, &mut self.tree, usize::MAX, &mut self.work);
        self.last_refresh_hashed = self.work.pages_hashed - before;
        self.tree.root()
    }

    /// Pages hashed by the most recent [`PagedState::refresh_digest`],
    /// a sealed checkpoint it finished included (experiments charge digest
    /// cost per hashed page).
    pub fn last_refresh_hashed(&self) -> u64 {
        self.last_refresh_hashed
    }

    /// Pages hashed and nodes folded for roots so far.
    pub fn root_work(&self) -> RootWork {
        self.work
    }

    /// Seal the checkpoint interval at `seq` without producing its root:
    /// the interval's notified pages and copy-on-write clones of the page
    /// table and the tree are set aside, and the dirty set is cleared as a
    /// refresh clears it, so writes of the next interval need new `modify`
    /// notifications and touch neither. The root — the one
    /// [`PagedState::refresh_digest`] would have returned here — is then
    /// finished in bounded [`PagedState::checkpoint_step`]s. Until it is,
    /// [`PagedState::tree`] is the tree of the refresh before; every call
    /// that replaces the tree ([`PagedState::refresh_digest`],
    /// [`PagedState::restore`], [`PagedState::install_page`],
    /// [`PagedState::fold_installed`]) finishes it first.
    ///
    /// # Panics
    /// Panics if the previously sealed checkpoint was not yet handed out.
    pub fn seal(&mut self, seq: u64) {
        assert!(
            self.sealed.is_none() && self.finished.is_none(),
            "the previous sealed checkpoint was not handed out"
        );
        self.fold_installed();
        let mut tree = self.tree.clone();
        let refresh = Refresh::begin(std::mem::take(&mut self.stale), &mut tree);
        self.sealed = Some(Sealed {
            seq,
            pages: self.pages.clone(),
            tree,
            refresh,
        });
    }

    /// Spend up to `pages` page hashes' worth of work (a node folded costs
    /// 1 / [`FOLDS_PER_PAGE_HASH`] of one) on the sealed checkpoint's root;
    /// the call that finishes it returns the checkpoint, exactly the
    /// snapshot [`PagedState::refresh_digest`] then
    /// [`PagedState::snapshot`] would have taken at the seal, and makes its
    /// tree the region's. A checkpoint another call finished is returned
    /// without further work. `None` while work is left, or when nothing is
    /// sealed.
    pub fn checkpoint_step(&mut self, pages: usize) -> Option<Snapshot> {
        if let Some(snap) = self.finished.take() {
            return Some(snap);
        }
        let sealed = self.sealed.as_mut()?;
        if !sealed.step(pages.saturating_mul(FOLDS_PER_PAGE_HASH), &mut self.work) {
            return None;
        }
        let Sealed {
            seq, pages, tree, ..
        } = self.sealed.take().expect("just stepped");
        self.tree = tree.clone();
        Some(Snapshot {
            seq,
            root: tree.root(),
            pages,
            tree,
        })
    }

    /// The sequence number of the sealed checkpoint not yet handed out, if
    /// any.
    pub fn sealed_seq(&self) -> Option<u64> {
        match (&self.finished, &self.sealed) {
            (Some(snap), _) => Some(snap.seq),
            (None, sealed) => sealed.as_ref().map(|s| s.seq),
        }
    }

    /// Finish the sealed checkpoint, if one is being finished, and park it
    /// for the next [`PagedState::checkpoint_step`].
    fn finish_sealed(&mut self) {
        if self.sealed.is_some() {
            self.finished = self.checkpoint_step(usize::MAX);
        }
    }

    /// The Merkle tree as of the last finished refresh or checkpoint. A
    /// page installed by state transfer shows in its leaf at once and in
    /// its ancestors from the next [`PagedState::fold_installed`].
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Number of pages currently awaiting re-hash.
    pub fn dirty_pages(&self) -> usize {
        self.stale.len()
    }

    /// Take a copy-on-write snapshot at `seq`. Call after
    /// [`PagedState::refresh_digest`] so the recorded root is current.
    /// The page table and the tree are shared in chunks, so this costs (and
    /// the snapshot later keeps private) what changed since the previous
    /// snapshot, not the region. While a sealed checkpoint is being
    /// finished, the tree recorded is its finished one (worked out on a
    /// copy: this call changes nothing).
    pub fn snapshot(&self, seq: u64) -> Snapshot {
        let tree = match &self.sealed {
            Some(sealed) => {
                let mut sealed = sealed.clone();
                sealed.step(usize::MAX, &mut RootWork::default());
                sealed.tree
            }
            None => self.tree.clone(),
        };
        Snapshot {
            seq,
            root: tree.root(),
            pages: self.pages.clone(),
            tree,
        }
    }

    /// Restore the region to a snapshot (used to roll back tentative
    /// execution and as the base for state transfer). A sealed checkpoint
    /// still being finished is finished first.
    ///
    /// # Errors
    /// [`StateError::GeometryMismatch`] if the snapshot has a different page
    /// count.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), StateError> {
        if snap.pages.len() != self.pages.len() {
            return Err(StateError::GeometryMismatch);
        }
        self.finish_sealed();
        self.pages = snap.pages.clone();
        self.tree = snap.tree.clone();
        self.stale.clear();
        self.installed.clear();
        Ok(())
    }

    /// Install a page received via state transfer (bypasses the modify
    /// contract — transfer is a library-internal operation) as it came,
    /// without copying it. `None` installs the zero page. `digest` is the
    /// page's digest — the one the
    /// [`crate::Fetcher`] validated it against — and becomes its leaf
    /// unhashed; the leaf's ancestors are recomputed by the next
    /// [`PagedState::fold_installed`], once for the whole transfer. A tree
    /// walk compares a node before it installs any page below it, so the
    /// unfolded ancestors are never read while a walk runs.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if `page` is out of range or data is not
    /// page-sized.
    pub fn install_page(
        &mut self,
        page: u64,
        data: Option<SharedPage>,
        digest: Digest,
    ) -> Result<(), StateError> {
        let idx = page as usize;
        if idx >= self.pages.len() {
            return Err(StateError::OutOfBounds {
                offset: page * PAGE_SIZE as u64,
                len: PAGE_SIZE,
                region_len: self.len,
            });
        }
        if let Some(d) = data.as_ref().filter(|d| d.len() != PAGE_SIZE) {
            return Err(StateError::OutOfBounds {
                offset: page * PAGE_SIZE as u64,
                len: d.len(),
                region_len: self.len,
            });
        }
        self.finish_sealed();
        self.tree.set_leaf(idx, digest);
        *self.pages.get_mut(idx) = data;
        self.stale.remove(&page);
        self.installed.insert(idx);
        Ok(())
    }

    /// Recompute the ancestors of every page installed since the last fold,
    /// each ancestor once however many installed pages share it. Call when
    /// a transfer completes; [`PagedState::refresh_digest`] calls it first.
    pub fn fold_installed(&mut self) {
        self.finish_sealed();
        let leaves: Vec<(usize, Digest)> = std::mem::take(&mut self.installed)
            .into_iter()
            .map(|idx| (idx, self.tree.leaf(idx)))
            .collect();
        self.tree.update_leaves(&leaves);
    }

    /// Raw page contents for state-transfer serving (`None` = zero page).
    pub fn page(&self, page: u64) -> Option<&[u8]> {
        self.pages
            .get(page as usize)
            .and_then(|p| p.as_deref().map(|v| v.as_slice()))
    }
}

/// A named sub-range of the state region, used to carve the single region
/// into a library partition and an application partition — the layout the
/// PBFT implementation mandates ("it splits this region in two, the first
/// part for the internal library needs and the remaining for the
/// application").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Byte offset of the section within the region.
    pub base: u64,
    /// Section length in bytes.
    pub len: u64,
}

impl Section {
    /// Read within the section (relative offset).
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if the range leaves the section.
    pub fn read(&self, state: &PagedState, offset: u64, buf: &mut [u8]) -> Result<(), StateError> {
        self.check(offset, buf.len())?;
        state.read(self.base + offset, buf)
    }

    /// Modify-notify within the section.
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] if the range leaves the section.
    pub fn modify(
        &self,
        state: &mut PagedState,
        offset: u64,
        len: usize,
    ) -> Result<(), StateError> {
        self.check(offset, len)?;
        state.modify(self.base + offset, len)
    }

    /// Write within the section (the modify contract still applies).
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] or [`StateError::NotModified`].
    pub fn write(
        &self,
        state: &mut PagedState,
        offset: u64,
        data: &[u8],
    ) -> Result<(), StateError> {
        self.check(offset, data.len())?;
        state.write(self.base + offset, data)
    }

    fn check(&self, offset: u64, len: usize) -> Result<(), StateError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(StateError::OutOfBounds {
                offset,
                len,
                region_len: self.len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized_reads() {
        let st = PagedState::new(4);
        assert_eq!(st.read_vec(100, 16).expect("read"), vec![0u8; 16]);
        assert_eq!(st.len(), 4 * PAGE_SIZE as u64);
        assert!(!st.is_empty());
    }

    #[test]
    fn modify_then_write_roundtrip() {
        let mut st = PagedState::new(4);
        st.modify(10, 5).expect("modify");
        st.write(10, b"hello").expect("write");
        assert_eq!(st.read_vec(10, 5).expect("read"), b"hello");
    }

    #[test]
    fn write_without_modify_rejected() {
        let mut st = PagedState::new(4);
        assert_eq!(st.write(0, b"x"), Err(StateError::NotModified { page: 0 }));
        // And after a digest refresh the epoch resets.
        st.modify(0, 1).expect("modify");
        st.refresh_digest();
        assert_eq!(st.write(0, b"x"), Err(StateError::NotModified { page: 0 }));
    }

    #[test]
    fn cross_page_write() {
        let mut st = PagedState::new(4);
        let data = vec![7u8; PAGE_SIZE + 100];
        let off = (PAGE_SIZE - 50) as u64;
        st.modify(off, data.len()).expect("modify");
        st.write(off, &data).expect("write");
        assert_eq!(st.read_vec(off, data.len()).expect("read"), data);
        // Bytes around the write untouched.
        assert_eq!(st.read_vec(0, 10).expect("read"), vec![0u8; 10]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut st = PagedState::new(1);
        let end = st.len();
        assert!(matches!(
            st.read_vec(end, 1),
            Err(StateError::OutOfBounds { .. })
        ));
        assert!(matches!(
            st.modify(end - 1, 2),
            Err(StateError::OutOfBounds { .. })
        ));
        assert!(st.modify(end - 1, 1).is_ok());
    }

    #[test]
    fn digest_changes_with_content() {
        let mut st = PagedState::new(4);
        let d0 = st.refresh_digest();
        st.modify(0, 3).expect("modify");
        st.write(0, b"abc").expect("write");
        let d1 = st.refresh_digest();
        assert_ne!(d0, d1);
        // Writing the same bytes back to zero restores the digest.
        st.modify(0, 3).expect("modify");
        st.write(0, &[0, 0, 0]).expect("write");
        assert_eq!(st.refresh_digest(), d0);
    }

    #[test]
    fn identical_content_identical_digest_across_instances() {
        let mut a = PagedState::new(8);
        let mut b = PagedState::new(8);
        for st in [&mut a, &mut b] {
            st.modify(5000, 4).expect("modify");
            st.write(5000, b"vote").expect("write");
        }
        assert_eq!(a.refresh_digest(), b.refresh_digest());
    }

    #[test]
    fn snapshot_restore_rolls_back() {
        let mut st = PagedState::new(4);
        st.modify(0, 4).expect("modify");
        st.write(0, b"base").expect("write");
        let root = st.refresh_digest();
        let snap = st.snapshot(10);
        assert_eq!(snap.seq, 10);
        assert_eq!(snap.root, root);

        st.modify(0, 4).expect("modify");
        st.write(0, b"tent").expect("write");
        assert_ne!(st.refresh_digest(), root);

        st.restore(&snap).expect("restore");
        assert_eq!(st.read_vec(0, 4).expect("read"), b"base");
        assert_eq!(st.refresh_digest(), root);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut st = PagedState::new(2);
        st.modify(0, 1).expect("modify");
        st.write(0, &[1]).expect("write");
        st.refresh_digest();
        let snap = st.snapshot(1);
        st.modify(0, 1).expect("modify");
        st.write(0, &[2]).expect("write");
        // The snapshot still sees the old byte (copy-on-write).
        assert_eq!(snap.page(0).expect("page")[0], 1);
    }

    #[test]
    fn put_page_is_a_whole_page_write_without_the_copy() {
        let (mut put, mut written) = (PagedState::new(4), PagedState::new(4));
        let page = |byte| Arc::new(vec![byte; PAGE_SIZE]);
        let at = PAGE_SIZE as u64;
        assert_eq!(
            put.put_page(1, page(1)),
            Err(StateError::NotModified { page: 1 })
        );
        for st in [&mut put, &mut written] {
            st.modify(at, PAGE_SIZE).expect("modify");
        }
        assert_eq!(put.put_page(1, page(1)), Ok(None), "the zero page");
        written.write(at, &page(1)).expect("write");
        assert_eq!(put.refresh_digest(), written.refresh_digest());
        let snap = put.snapshot(1);
        let image = put.share_page(1).expect("materialized");
        assert!(Arc::ptr_eq(&image, &snap.share_page(1).expect("shared")));
        // A second put in the next interval: the snapshot keeps its image.
        put.modify(at, PAGE_SIZE).expect("modify");
        let old = put.put_page(1, page(2)).expect("notified");
        assert!(old.is_some_and(|old| Arc::ptr_eq(&old, &image)));
        assert_eq!(snap.page(1).expect("page")[0], 1);
        assert_eq!(put.read_vec(at, 1).expect("read"), [2]);
        // A write to a shared image un-shares it: the holder's never changes.
        put.modify(at, 1).expect("modify");
        let held = put.share_page(1).expect("materialized");
        put.write(at, &[3]).expect("write");
        assert_eq!((held[0], put.read_vec(at, 1).expect("read")[0]), (2, 3));
        assert!(matches!(
            put.put_page(1, Arc::new(vec![0; 3])),
            Err(StateError::OutOfBounds { .. })
        ));
        assert!(matches!(
            put.put_page(4, page(0)),
            Err(StateError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn restore_geometry_mismatch() {
        let small = PagedState::new(2).snapshot(0);
        let mut big = PagedState::new(4);
        assert_eq!(big.restore(&small), Err(StateError::GeometryMismatch));
    }

    #[test]
    fn install_page_updates_tree() {
        let mut a = PagedState::new(4);
        let mut b = PagedState::new(4);
        a.modify(0, 4).expect("modify");
        a.write(0, b"sync").expect("write");
        let root_a = a.refresh_digest();

        let page0 = a.share_page(0).expect("materialized");
        let root_b = b.refresh_digest();
        b.install_page(0, Some(page0), a.tree().leaf(0))
            .expect("install");
        assert_eq!(b.tree().leaf(0), a.tree().leaf(0), "the leaf at once");
        assert_eq!(b.tree().root(), root_b, "the ancestors at the fold");
        b.fold_installed();
        assert_eq!(b.tree().root(), root_a);
        assert_eq!(b.read_vec(0, 4).expect("read"), b"sync");

        // Installing None restores the zero page; a refresh folds it too.
        b.install_page(0, None, zero_page_digest())
            .expect("install zero");
        assert_eq!(b.read_vec(0, 4).expect("read"), vec![0u8; 4]);
        assert_eq!(b.refresh_digest(), root_b);
        assert_eq!(b.last_refresh_hashed(), 0, "a fold hashes no page");
        assert!(b.install_page(99, None, zero_page_digest()).is_err());
        assert!(b
            .install_page(0, Some(Arc::new(vec![0u8; 3])), zero_page_digest())
            .is_err());
    }

    #[test]
    fn a_blank_tree_is_built_once_per_geometry() {
        let mut a = PagedState::new(100);
        let b = PagedState::new(100);
        assert_eq!(a.tree(), b.tree());
        assert_eq!(
            a.tree(),
            &MerkleTree::build(vec![Digest::of(&[0u8; PAGE_SIZE]); 100])
        );
        // A write to one region reaches neither the other nor the next one.
        a.modify(0, 1).expect("modify");
        a.write(0, &[1]).expect("write");
        a.refresh_digest();
        assert_ne!(a.tree(), b.tree());
        assert_eq!(PagedState::new(100).tree(), b.tree());
        assert_eq!(PagedState::new(3).tree().leaf_count(), 3);
    }

    #[test]
    fn section_respects_bounds() {
        let mut st = PagedState::new(4);
        let sec = Section {
            base: PAGE_SIZE as u64,
            len: PAGE_SIZE as u64,
        };
        sec.modify(&mut st, 0, 4).expect("modify");
        sec.write(&mut st, 0, b"abcd").expect("write");
        let mut buf = [0u8; 4];
        sec.read(&st, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"abcd");
        // Absolute placement is inside page 1.
        assert_eq!(st.read_vec(PAGE_SIZE as u64, 4).expect("read"), b"abcd");
        // Out-of-section access rejected even though in-region.
        assert!(matches!(
            sec.write(&mut st, sec.len - 1, b"xy"),
            Err(StateError::OutOfBounds { .. })
        ));
    }

    /// Write one byte to each of `pages` (notifying first).
    fn touch(st: &mut PagedState, pages: &[u64], byte: u8) {
        for &p in pages {
            st.modify(p * PAGE_SIZE as u64, 1).expect("modify");
            st.write(p * PAGE_SIZE as u64, &[byte]).expect("write");
        }
    }

    #[test]
    fn hash_settled_waits_out_a_batch_and_hashes_a_page_once() {
        let mut st = PagedState::new(8);
        let mut plain = PagedState::new(8);
        let before = st.tree().clone();
        touch(&mut st, &[0, 1, 2], 1);
        assert_eq!(st.hash_settled(4), 0, "all written in the batch just ended");
        touch(&mut st, &[0], 2);
        assert_eq!(
            st.hash_settled(4),
            2,
            "1 and 2 sat the batch out, 0 did not"
        );
        assert_eq!(st.hash_settled(4), 1, "now 0 has");
        // One notification covers the interval: a bare write must outdate
        // the early digest, and the page is not hashed early a second time.
        st.write(PAGE_SIZE as u64, &[3]).expect("still notified");
        assert_eq!(st.hash_settled(4), 0);
        assert_eq!(st.hash_settled(4), 0);
        assert_eq!(st.dirty_pages(), 3);
        assert_eq!(st.tree(), &before, "early digests stay beside the tree");

        touch(&mut plain, &[0, 1, 2], 1);
        touch(&mut plain, &[0], 2);
        touch(&mut plain, &[1], 3);
        assert_eq!(st.refresh_digest(), plain.refresh_digest());
        assert_eq!(st.tree(), plain.tree());
        assert_eq!(st.last_refresh_hashed(), 1, "only the rewritten page");
        assert_eq!(plain.last_refresh_hashed(), 3);
        assert_eq!(st.dirty_pages(), 0);
    }

    #[test]
    fn hash_settled_respects_its_limit_and_restore_drops_early_digests() {
        let mut st = PagedState::new(8);
        st.refresh_digest();
        let clean = st.snapshot(0);
        touch(&mut st, &[1, 2, 3, 4, 5], 9);
        assert_eq!(st.hash_settled(2), 0);
        assert_eq!(st.hash_settled(2), 2);
        assert_eq!(st.hash_settled(2), 2);
        st.restore(&clean).expect("restore");
        assert_eq!(st.hash_settled(2), 0, "nothing is stale after a restore");
        assert_eq!(st.refresh_digest(), clean.root);
        // A transferred page overrides whatever was parked for it.
        touch(&mut st, &[1], 9);
        st.hash_settled(1);
        assert_eq!(st.hash_settled(1), 1);
        st.install_page(1, None, zero_page_digest())
            .expect("install");
        assert_eq!(st.refresh_digest(), clean.root);
    }

    #[test]
    fn a_sealed_root_is_finished_in_steps_and_the_tree_waits_for_it() {
        let mut st = PagedState::new(8);
        let mut plain = PagedState::new(8);
        touch(&mut st, &[1, 2, 3], 5);
        touch(&mut plain, &[1, 2, 3], 5);
        let before = st.tree().clone();
        st.seal(7);
        assert_eq!(st.sealed_seq(), Some(7));
        // The next interval writes on, notified afresh.
        assert_eq!(
            st.write(PAGE_SIZE as u64, &[6]),
            Err(StateError::NotModified { page: 1 })
        );
        touch(&mut st, &[1], 6);
        assert!(st.checkpoint_step(1).is_none(), "three pages and a fold");
        assert_eq!(st.tree(), &before, "the tree is the last finished one");
        let snap = loop {
            if let Some(snap) = st.checkpoint_step(1) {
                break snap;
            }
        };
        assert_eq!((snap.seq, snap.root), (7, plain.refresh_digest()));
        assert_eq!(st.tree(), plain.tree());
        assert_eq!(snap.page(1).expect("written")[0], 5, "the page as sealed");
        assert_eq!(st.root_work().pages_hashed, 3);
        assert_eq!(
            (st.sealed_seq(), st.checkpoint_step(1).is_none()),
            (None, true)
        );
        // A refresh finishes a pending root first (the one page it hashes
        // is page 1 as sealed) and parks it for the next step.
        st.seal(8);
        st.refresh_digest();
        assert_eq!(st.last_refresh_hashed(), 1);
        assert_eq!(st.sealed_seq(), Some(8));
        assert_eq!(st.checkpoint_step(0).map(|snap| snap.seq), Some(8));
        assert_eq!(st.sealed_seq(), None);
    }

    #[test]
    fn refresh_counts_hashed_pages() {
        let mut st = PagedState::new(8);
        st.modify(0, PAGE_SIZE * 3).expect("modify");
        assert_eq!(st.dirty_pages(), 3);
        st.refresh_digest();
        assert_eq!(st.last_refresh_hashed(), 3);
        assert_eq!(st.dirty_pages(), 0);
    }
}
