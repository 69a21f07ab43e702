//! The pager: page cache, allocation, transactions and crash recovery.
//!
//! All reads and writes go through an in-memory page cache; nothing touches
//! the database file until commit. At commit, pre-images of the dirty pages
//! are written to the rollback journal (ACID mode), the dirty pages are
//! written back, the database is synced, and the journal is cleared. Opening
//! a database with a live journal rolls the interrupted commit back.
//!
//! Pages are handed out as fixed-size slices of the cached image
//! ([`Pager::page`], [`Pager::page_mut`]) and edited in place; a cached page
//! never changes length. The cache is a hash map keyed by page id, so a page
//! is found in O(1) and the cache holds the pages read, never a slot per id
//! a header claims. A commit writes what changed and copies each byte once:
//! page 0 is written and journaled only when the header changed (database
//! creation, [`Pager::allocate`], [`Pager::free`]), and then the header is
//! patched into the cached page 0; each pre-image is the database file's
//! own image of the page ([`Vfs::read_page`]) and goes into the journal as
//! one ([`Vfs::write_page`]), so over files that keep pages by reference
//! (the state region, [`MemVfs`](crate::MemVfs)) journaling copies nothing.
//!
//! The cache holds dirty pages and shares clean ones: a cached image is an
//! `Arc` the database file handed out ([`Vfs::read_page`]), which a file
//! whose storage is a table of shared pages (the replicated state region)
//! does without copying. A transaction's first change to a page copies it
//! into a private image — into a buffer the file released at an earlier
//! commit when one is kept — and the commit hands that image to the file
//! ([`Vfs::write_page`]), so after it the file and the cache share it
//! again; the image the file held before is a spare buffer once the
//! cleared journal lets go of it. Rolling back drops the private images;
//! the file's still hold the pre-images.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::SqlError;
use crate::hash::BuildMulHasher;
use crate::journal::{self, clear_journal, read_journal, write_journal};
use crate::vfs::Vfs;

/// Database page size — matches `pbft_state::PAGE_SIZE` so the database file
/// maps 1:1 onto replicated state pages.
pub const PAGE_SIZE: usize = 4096;

const MAGIC: &[u8; 8] = b"MINISQL1";

/// Bytes of page 0 the header occupies; the rest of the page is zero.
const HEADER_LEN: usize = 20;

/// Page buffers released by the file (or by a rollback) kept for the next
/// transaction's copies: as many as a leaf split dirties (the leaf, its
/// parent and the header page), so steady INSERTs copy into a kept buffer
/// and allocate none.
const SPARES_KEEP: usize = 3;

/// A cached page image: the file's own while clean, private once changed.
type Page = Arc<Vec<u8>>;

/// Journal / durability mode (the paper's §4.2 ACID vs no-ACID axis; §3.2
/// names the write-ahead log as the rollback journal's alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Rollback journal + synchronous flushes: full ACID, three syncs per
    /// commit (journal, database, journal clear).
    Rollback,
    /// Write-ahead log: full ACID with a single sync per commit; the
    /// database file is updated lazily at checkpoints.
    Wal,
    /// No journal, no flushing — fast and fragile ("No-ACID").
    Off,
}

/// I/O work performed, drained by the embedding layer for cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages written to the database file.
    pub db_pages_written: u64,
    /// Bytes written to the journal.
    pub journal_bytes: u64,
    /// Synchronous flushes (database + journal).
    pub syncs: u64,
    /// Pages read from the database file (cache misses).
    pub pages_read: u64,
    /// WAL checkpoints performed (WAL mode only).
    pub wal_checkpoints: u64,
}

impl IoStats {
    /// Accumulate.
    pub fn add(&mut self, other: &IoStats) {
        self.db_pages_written += other.db_pages_written;
        self.journal_bytes += other.journal_bytes;
        self.syncs += other.syncs;
        self.pages_read += other.pages_read;
        self.wal_checkpoints += other.wal_checkpoints;
    }
}

/// Header fields stored in page 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    page_count: u32,
    freelist_head: u32,
    catalog_root: u32,
}

impl Header {
    /// Overwrite `page` with the image of page 0.
    fn write_to(&self, page: &mut [u8]) {
        page[..8].copy_from_slice(MAGIC);
        page[8..12].copy_from_slice(&self.page_count.to_be_bytes());
        page[12..16].copy_from_slice(&self.freelist_head.to_be_bytes());
        page[16..HEADER_LEN].copy_from_slice(&self.catalog_root.to_be_bytes());
        page[HEADER_LEN..].fill(0);
    }

    fn encode(&self) -> Page {
        let mut page = vec![0u8; PAGE_SIZE];
        self.write_to(&mut page);
        Arc::new(page)
    }

    /// The header stored in `page`, if it starts with the magic.
    fn parse(page: &[u8]) -> Option<Header> {
        let field = |at: usize| u32::from_be_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        (&page[..8] == MAGIC).then(|| Header {
            page_count: field(8),
            freelist_head: field(12),
            catalog_root: field(16),
        })
    }
}

/// The set of dirty page ids, ascending, in a buffer kept across commits
/// (a transaction dirties a handful of pages).
#[derive(Debug, Default)]
struct Dirty(Vec<u32>);

impl Dirty {
    fn insert(&mut self, id: u32) {
        if let Err(at) = self.0.binary_search(&id) {
            self.0.insert(at, id);
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// The ids below `end`.
    fn below(&self, end: u32) -> &[u32] {
        &self.0[..self.0.partition_point(|&id| id < end)]
    }

    fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.0.iter()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Default WAL auto-checkpoint threshold, in committed frames.
pub const DEFAULT_WAL_AUTOCHECKPOINT: u64 = 256;

/// The pager. See the module docs.
pub struct Pager {
    db: Box<dyn Vfs>,
    journal: Box<dyn Vfs>,
    mode: JournalMode,
    /// Cached page images by page id: as many entries as pages read or
    /// allocated, whatever ids a (transferred) header or child pointer
    /// claims. Every dirty page's image is private.
    cache: HashMap<u32, Page, BuildMulHasher>,
    /// Unshared page buffers to copy into (at most [`SPARES_KEEP`]).
    spares: Vec<Page>,
    /// Pages to write at commit, ascending: the journal's entry order.
    dirty: Dirty,
    header: Header,
    /// Durable page count (on disk, or committed to the WAL).
    disk_page_count: u32,
    /// WAL read index + append cursor (`Some` iff `mode == Wal`).
    wal: Option<crate::wal::WalState>,
    /// Checkpoint the WAL back into the database once it holds this many
    /// committed frames.
    wal_autocheckpoint: u64,
    /// The pre-images of the commit in progress, kept for the allocation.
    pre_images: Vec<journal::Entry>,
    /// Images the database file handed back during the commit in progress:
    /// spare once the cleared journal no longer holds them.
    released: Vec<Page>,
    stats: IoStats,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("pages", &self.header.page_count)
            .field("dirty", &self.dirty.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl Pager {
    /// Open (or create) a database. Performs journal recovery if needed.
    ///
    /// # Errors
    /// Storage failures or a corrupt header.
    pub fn open(
        mut db: Box<dyn Vfs>,
        mut journal: Box<dyn Vfs>,
        mode: JournalMode,
    ) -> Result<Pager, SqlError> {
        // Crash recovery: a valid rollback journal means an interrupted
        // commit (a WAL in the same file slot has a different magic and is
        // handled below).
        if let Some(j) = read_journal(journal.as_ref(), PAGE_SIZE)? {
            for (page_id, data) in &j.entries {
                db.write_at(*page_id as u64 * PAGE_SIZE as u64, data)?;
            }
            db.set_len(j.old_page_count as u64 * PAGE_SIZE as u64)?;
            db.sync()?;
            clear_journal(journal.as_mut(), true)?;
        }
        // Journal-mode conversion: opening in rollback/off mode a database
        // whose previous incarnation ran in WAL mode folds the committed
        // WAL frames into the database file first.
        if mode != JournalMode::Wal && crate::wal::is_present(journal.as_ref()) {
            let st = crate::wal::recover(journal.as_ref(), PAGE_SIZE)?;
            if st.frames() > 0 {
                let frames: Vec<(u32, u64)> = st.pages().collect();
                let mut buf = vec![0u8; PAGE_SIZE];
                for (page_id, off) in frames {
                    crate::wal::read_frame_page(journal.as_ref(), off, &mut buf)?;
                    db.write_at(page_id as u64 * PAGE_SIZE as u64, &buf)?;
                }
                db.set_len(st.durable_page_count() as u64 * PAGE_SIZE as u64)?;
                db.sync()?;
            }
            journal.set_len(0)?;
            journal.sync()?;
        }
        let wal = if mode == JournalMode::Wal {
            Some(crate::wal::recover(journal.as_ref(), PAGE_SIZE)?)
        } else {
            None
        };
        let wal_frames = wal.as_ref().map_or(0, |w| w.frames());
        if db.is_empty() && wal_frames == 0 {
            // Fresh database: header page + catalog root at page 1.
            let header = Header {
                page_count: 2,
                freelist_head: 0,
                catalog_root: 1,
            };
            let mut pager = Pager {
                db,
                journal,
                mode,
                cache: HashMap::default(),
                spares: Vec::new(),
                dirty: Dirty::default(),
                header,
                disk_page_count: 0,
                wal,
                wal_autocheckpoint: DEFAULT_WAL_AUTOCHECKPOINT,
                pre_images: Vec::new(),
                released: Vec::new(),
                stats: IoStats::default(),
            };
            // Materialize both pages as dirty; the first commit writes them.
            pager.cache.insert(0, header.encode());
            pager.dirty.insert(0);
            let mut catalog = vec![0u8; PAGE_SIZE];
            crate::btree::init_leaf(&mut catalog);
            pager.cache.insert(1, Arc::new(catalog));
            pager.dirty.insert(1);
            pager.commit()?;
            return Ok(pager);
        }
        let page0 = read_durable_page(db.as_ref(), journal.as_ref(), wal.as_ref(), 0)?;
        let header = Header::parse(&page0).ok_or_else(|| SqlError::Corrupt("bad magic".into()))?;
        let disk_page_count = header.page_count;
        Ok(Pager {
            db,
            journal,
            mode,
            cache: HashMap::default(),
            spares: Vec::new(),
            dirty: Dirty::default(),
            header,
            disk_page_count,
            wal,
            wal_autocheckpoint: DEFAULT_WAL_AUTOCHECKPOINT,
            pre_images: Vec::new(),
            released: Vec::new(),
            stats: IoStats::default(),
        })
    }

    /// Set the WAL auto-checkpoint threshold (committed frames). No effect
    /// outside WAL mode.
    pub fn set_wal_autocheckpoint(&mut self, frames: u64) {
        self.wal_autocheckpoint = frames.max(1);
    }

    /// The catalog B+tree root page.
    pub fn catalog_root(&self) -> u32 {
        self.header.catalog_root
    }

    /// Total pages (including uncommitted extensions).
    pub fn page_count(&self) -> u32 {
        self.header.page_count
    }

    /// Drain accumulated I/O statistics.
    pub fn take_stats(&mut self) -> IoStats {
        std::mem::take(&mut self.stats)
    }

    /// Read access to the database file (diagnostics and tests).
    pub fn db_vfs(&self) -> &dyn Vfs {
        self.db.as_ref()
    }

    /// Read access to the journal file (diagnostics and tests).
    pub fn journal_vfs(&self) -> &dyn Vfs {
        self.journal.as_ref()
    }

    /// Read a page (through the cache).
    ///
    /// # Errors
    /// Storage failures / out-of-range page ids.
    pub fn page(&mut self, id: u32) -> Result<&[u8], SqlError> {
        Ok(self.cached(id)?.0)
    }

    /// Mutable access to a page (always `PAGE_SIZE` bytes); marks it dirty.
    /// The first change to a page the file shares copies it.
    ///
    /// # Errors
    /// Storage failures / out-of-range page ids.
    pub fn page_mut(&mut self, id: u32) -> Result<&mut [u8], SqlError> {
        let (page, dirty, spares) = self.cached(id)?;
        dirty.insert(id);
        Ok(private(page, spares, true))
    }

    /// Page `from` to read and page `to` to change (marked dirty) at once,
    /// for moving cells between pages without staging them.
    ///
    /// # Errors
    /// As [`Pager::page_mut`].
    ///
    /// # Panics
    /// If `from == to`.
    pub fn page_pair(&mut self, from: u32, to: u32) -> Result<(&[u8], &mut [u8]), SqlError> {
        assert_ne!(from, to, "two distinct pages");
        self.cached(from)?;
        self.cached(to)?;
        self.dirty.insert(to);
        let [Some(from), Some(to)] = self.cache.get_disjoint_mut([&from, &to]) else {
            unreachable!("both pages were just cached")
        };
        Ok((from, private(to, &mut self.spares, true)))
    }

    /// The cached image of page `id`, read from durable storage on a miss,
    /// with the dirty set (which [`Pager::page_mut`] updates while it holds
    /// the page) and the spare buffers. One cache lookup per call.
    fn cached(&mut self, id: u32) -> Result<(&mut Page, &mut Dirty, &mut Vec<Page>), SqlError> {
        if id >= self.header.page_count {
            return Err(SqlError::Corrupt(format!("page {id} out of range")));
        }
        let page = match self.cache.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let page = read_durable_page(
                    self.db.as_ref(),
                    self.journal.as_ref(),
                    self.wal.as_ref(),
                    id,
                )?;
                self.stats.pages_read += 1;
                e.insert(page)
            }
        };
        Ok((page, &mut self.dirty, &mut self.spares))
    }

    /// Allocate a fresh page (freelist first, then file extension).
    ///
    /// # Errors
    /// Storage failures.
    pub fn allocate(&mut self) -> Result<u32, SqlError> {
        if self.header.freelist_head != 0 {
            let id = self.header.freelist_head;
            let page = self.page_mut(id)?;
            let next = u32::from_be_bytes(page[..4].try_into().expect("4 bytes"));
            page.fill(0);
            self.header.freelist_head = next;
            self.dirty.insert(0);
            Ok(id)
        } else {
            let id = self.header.page_count;
            self.header.page_count += 1;
            let mut page = spare(&mut self.spares);
            Arc::get_mut(&mut page)
                .expect("spares are unshared")
                .fill(0);
            self.cache.insert(id, page);
            self.dirty.insert(id);
            self.dirty.insert(0);
            Ok(id)
        }
    }

    /// Return a page to the freelist.
    ///
    /// # Errors
    /// Storage failures.
    pub fn free(&mut self, id: u32) -> Result<(), SqlError> {
        let head = self.header.freelist_head;
        let p = self.page_mut(id)?;
        p.fill(0);
        p[..4].copy_from_slice(&head.to_be_bytes());
        self.header.freelist_head = id;
        self.dirty.insert(0);
        Ok(())
    }

    /// Whether uncommitted changes exist.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Commit: journal pre-images (ACID), write back, sync, clear journal.
    ///
    /// # Errors
    /// Storage failures; on error the transaction is left uncommitted.
    pub fn commit(&mut self) -> Result<(), SqlError> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        // Page 0 is written (and journaled) only when the transaction changed
        // the header — creation, `allocate`, `free` — and then the header
        // goes into the cached page 0 (never *read* for this: a cache miss
        // here is not a page the statement asked for).
        if self.dirty.contains(0) {
            let spares = &mut self.spares;
            let page = self.cache.entry(0).or_insert_with(|| spare(spares));
            self.header.write_to(private(page, spares, false));
        }

        if self.mode == JournalMode::Wal {
            return self.commit_wal();
        }
        if self.mode == JournalMode::Rollback {
            // Pre-images of dirty pages that already exist on disk: the
            // file's own images, which the journal keeps by reference when
            // both files can.
            self.pre_images.clear();
            for &id in self.dirty.below(self.disk_page_count) {
                let image = self
                    .db
                    .read_page(u64::from(id) * PAGE_SIZE as u64, PAGE_SIZE)?;
                self.pre_images.push((id, image));
            }
            let written = write_journal(
                self.journal.as_mut(),
                PAGE_SIZE,
                self.disk_page_count,
                &self.pre_images,
                true,
            );
            self.pre_images.clear();
            self.stats.journal_bytes += written?;
            self.stats.syncs += 1;
        }

        for &id in self.dirty.iter() {
            let page = self.cache.get(&id).expect("dirty pages are cached");
            let released = self.db.write_page(id as u64 * PAGE_SIZE as u64, page)?;
            self.stats.db_pages_written += 1;
            self.released.extend(released);
        }
        if self.mode == JournalMode::Rollback {
            self.db.sync()?;
            self.stats.syncs += 1;
            clear_journal(self.journal.as_mut(), true)?;
            self.stats.syncs += 1;
        }
        // The cleared journal let go of its pre-images, which are most of
        // what the file released.
        for page in self.released.drain(..) {
            keep_spare(&mut self.spares, page);
        }
        self.dirty.clear();
        self.disk_page_count = self.header.page_count;
        Ok(())
    }

    /// WAL-mode commit: append after-images of the dirty pages plus a commit
    /// record, then a single sync. The database file is untouched until the
    /// next checkpoint.
    fn commit_wal(&mut self) -> Result<(), SqlError> {
        let mut st = self.wal.take().expect("wal state exists in wal mode");
        let pages: Vec<(u32, &[u8])> = self
            .dirty
            .iter()
            .map(|&id| {
                (
                    id,
                    self.cache
                        .get(&id)
                        .expect("dirty pages are cached")
                        .as_slice(),
                )
            })
            .collect();
        let outcome = crate::wal::append_commit(
            self.journal.as_mut(),
            &mut st,
            &pages,
            self.header.page_count,
            true,
        );
        drop(pages);
        let frames = st.frames();
        self.wal = Some(st);
        let bytes = outcome?;
        self.stats.journal_bytes += bytes;
        self.stats.syncs += 1;
        self.dirty.clear();
        self.disk_page_count = self.header.page_count;
        if frames >= self.wal_autocheckpoint {
            self.wal_checkpoint()?;
        }
        Ok(())
    }

    /// Fold the committed WAL frames back into the database file and reset
    /// the log. A no-op outside WAL mode or when the log is empty.
    ///
    /// # Errors
    /// Storage failures; the WAL itself is only reset after the database
    /// sync succeeds, so a crash mid-checkpoint just replays it.
    pub fn wal_checkpoint(&mut self) -> Result<(), SqlError> {
        let Some(st) = self.wal.as_ref() else {
            return Ok(());
        };
        if st.frames() == 0 {
            return Ok(());
        }
        let frames: Vec<(u32, u64)> = st.pages().collect();
        let durable = st.durable_page_count();
        let mut buf = vec![0u8; PAGE_SIZE];
        for &(page_id, off) in &frames {
            let at = u64::from(page_id) * PAGE_SIZE as u64;
            // A clean cached page is its latest frame: the file takes that
            // image, and from then on the cache and the file share it.
            let clean = self
                .cache
                .get(&page_id)
                .filter(|_| !self.dirty.contains(page_id));
            if let Some(page) = clean {
                let released = self.db.write_page(at, page)?;
                self.released.extend(released);
            } else {
                crate::wal::read_frame_page(self.journal.as_ref(), off, &mut buf)?;
                self.db.write_at(at, &buf)?;
            }
        }
        self.db.set_len(u64::from(durable) * PAGE_SIZE as u64)?;
        self.db.sync()?;
        for page in self.released.drain(..) {
            keep_spare(&mut self.spares, page);
        }
        let mut st = self.wal.take().expect("checked above");
        let reset = crate::wal::reset(self.journal.as_mut(), &mut st, true);
        self.wal = Some(st);
        reset?;
        self.stats.db_pages_written += frames.len() as u64;
        self.stats.syncs += 2;
        self.stats.wal_checkpoints += 1;
        Ok(())
    }

    /// Committed frames currently in the WAL (0 outside WAL mode).
    pub fn wal_frames(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.frames())
    }

    /// Roll back: drop all uncommitted changes (cache reverts to disk).
    pub fn rollback(&mut self) {
        for &id in self.dirty.iter() {
            if let Some(page) = self.cache.remove(&id) {
                keep_spare(&mut self.spares, page);
            }
        }
        self.dirty.clear();
        // Reload the durable header.
        self.cache.remove(&0);
        if self.disk_page_count > 0 {
            let page0 = read_durable_page(
                self.db.as_ref(),
                self.journal.as_ref(),
                self.wal.as_ref(),
                0,
            );
            if let Some(header) = page0.ok().and_then(|p| Header::parse(&p)) {
                self.header = header;
            }
        }
    }

    /// Drop the entire cache (the backing bytes changed underneath us, e.g.
    /// after PBFT state transfer installed new pages).
    ///
    /// # Errors
    /// [`SqlError::Corrupt`] if the new backing content has a bad header.
    pub fn invalidate_cache(&mut self) -> Result<(), SqlError> {
        self.cache.clear();
        self.dirty.clear();
        if self.mode == JournalMode::Wal {
            // The WAL bytes may have changed too (it lives in the replicated
            // region under the PBFT embedding); rebuild the read index.
            self.wal = Some(crate::wal::recover(self.journal.as_ref(), PAGE_SIZE)?);
        }
        let page0 = read_durable_page(
            self.db.as_ref(),
            self.journal.as_ref(),
            self.wal.as_ref(),
            0,
        )?;
        self.header = Header::parse(&page0)
            .ok_or_else(|| SqlError::Corrupt("bad magic after cache invalidation".into()))?;
        self.disk_page_count = self.header.page_count;
        Ok(())
    }
}

/// Read the durable image of a page: a private copy of the latest committed
/// WAL frame when one exists, the database file's image otherwise.
fn read_durable_page(
    db: &dyn Vfs,
    journal: &dyn Vfs,
    wal: Option<&crate::wal::WalState>,
    id: u32,
) -> Result<Page, SqlError> {
    if let Some(off) = wal.and_then(|w| w.frame_of(id)) {
        let mut page = vec![0u8; PAGE_SIZE];
        crate::wal::read_frame_page(journal, off, &mut page)?;
        return Ok(Arc::new(page));
    }
    Ok(db.read_page(u64::from(id) * PAGE_SIZE as u64, PAGE_SIZE)?)
}

/// `page` as an image the caller may change: itself when no one shares it,
/// else a spare buffer that replaces it, holding a copy of it when `copy`.
fn private<'a>(page: &'a mut Page, spares: &mut Vec<Page>, copy: bool) -> &'a mut [u8] {
    if Arc::get_mut(page).is_none() {
        let mut own = spare(spares);
        if copy {
            Arc::get_mut(&mut own)
                .expect("spares are unshared")
                .copy_from_slice(page);
        }
        *page = own;
    }
    Arc::get_mut(page).expect("unshared")
}

/// An unshared page buffer of unspecified contents: a kept one, else new.
fn spare(spares: &mut Vec<Page>) -> Page {
    spares
        .pop()
        .unwrap_or_else(|| Arc::new(vec![0u8; PAGE_SIZE]))
}

/// Keep `page`'s buffer for a later copy if no one else shares it and
/// fewer than [`SPARES_KEEP`] are kept.
fn keep_spare(spares: &mut Vec<Page>, mut page: Page) {
    if spares.len() < SPARES_KEEP && Arc::get_mut(&mut page).is_some_and(|p| p.len() == PAGE_SIZE) {
        spares.push(page);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use super::*;
    use crate::journal::write_journal;
    use crate::vfs::MemVfs;

    fn fresh(mode: JournalMode) -> Pager {
        Pager::open(Box::new(MemVfs::new()), Box::new(MemVfs::new()), mode).expect("open")
    }

    #[test]
    fn fresh_database_has_header_and_catalog() {
        let mut p = fresh(JournalMode::Rollback);
        assert_eq!(p.page_count(), 2);
        assert_eq!(p.catalog_root(), 1);
        assert!(!p.has_dirty());
        let page1 = p.page(1).expect("catalog page");
        assert_eq!(page1[0], 1, "catalog root is a leaf");
    }

    #[test]
    fn allocate_and_free_cycle() {
        let mut p = fresh(JournalMode::Rollback);
        let a = p.allocate().expect("alloc");
        let b = p.allocate().expect("alloc");
        assert_ne!(a, b);
        assert_eq!(p.page_count(), 4);
        p.commit().expect("commit");
        p.free(a).expect("free");
        p.commit().expect("commit");
        let c = p.allocate().expect("alloc reuses freelist");
        assert_eq!(c, a);
    }

    #[test]
    fn commit_persists_across_reopen() {
        let mut db = MemVfs::new();
        let mut journal = MemVfs::new();
        {
            let mut p = Pager::open(
                Box::new(db.clone()),
                Box::new(journal.clone()),
                JournalMode::Rollback,
            )
            .expect("open");
            let id = p.allocate().expect("alloc");
            p.page_mut(id).expect("page")[100] = 0xab;
            p.commit().expect("commit");
            // Extract the final bytes for "reopen".
            db = clone_vfs(p.db.as_ref());
            journal = clone_vfs(p.journal.as_ref());
        }
        let mut p2 =
            Pager::open(Box::new(db), Box::new(journal), JournalMode::Rollback).expect("reopen");
        assert_eq!(p2.page_count(), 3);
        assert_eq!(p2.page(2).expect("page")[100], 0xab);
    }

    /// Test helper: recover the concrete MemVfs from the boxed trait object.
    fn clone_vfs(v: &dyn Vfs) -> MemVfs {
        let mut out = MemVfs::new();
        let len = v.len();
        let mut buf = vec![0u8; len as usize];
        v.read_at(0, &mut buf).expect("read");
        out.write_at(0, &buf).expect("write");
        out.sync().expect("sync");
        out
    }

    #[test]
    fn commit_writes_the_header_without_reading_page_zero() {
        // Reopened: nothing cached. The commit builds page 0 fresh rather
        // than loading it (a read the statement never asked for would show
        // up in `pages_read`, and from there in the PBFT cost model).
        let db = clone_vfs(fresh(JournalMode::Rollback).db.as_ref());
        let mut p = Pager::open(Box::new(db), Box::new(MemVfs::new()), JournalMode::Rollback)
            .expect("reopen");
        p.allocate().expect("alloc");
        p.commit().expect("commit");
        assert_eq!(p.take_stats().pages_read, 0);
        // Cached from now on, and patched in place: the image is the header
        // and zeros whatever the cached page held.
        p.page_mut(0).expect("page 0")[100] = 7;
        p.allocate().expect("alloc");
        p.commit().expect("commit");
        assert_eq!(p.take_stats().pages_read, 0);
        let mut page0 = vec![0u8; PAGE_SIZE];
        p.db.read_at(0, &mut page0).expect("read");
        assert_eq!(&page0[..8], MAGIC);
        assert_eq!(page0[8..12], 4u32.to_be_bytes(), "page count");
        assert!(page0[HEADER_LEN..].iter().all(|&b| b == 0));
    }

    /// One file of a database under test: every mutating call (`write_at`,
    /// `set_len`, `sync`) takes one unit from a budget shared by both files,
    /// and every `write_at` is logged. Once the budget is spent, further
    /// mutating calls are dropped — the power failed there.
    struct Probe {
        file: Probed,
        budget: Rc<Cell<u64>>,
    }

    /// `(offset, bytes)` of every applied `write_at`.
    type WriteLog = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

    /// The test's handle on a probed file: its bytes and its write log.
    #[derive(Clone, Default)]
    struct Probed {
        file: Rc<RefCell<MemVfs>>,
        writes: WriteLog,
    }

    impl Probed {
        /// The pages written at page-aligned offsets since the last call.
        fn pages_written(&self) -> Vec<u64> {
            let writes = std::mem::take(&mut *self.writes.borrow_mut());
            writes
                .iter()
                .map(|(off, _)| off / PAGE_SIZE as u64)
                .collect()
        }

        /// The page ids of the journal entries written since the last call
        /// (the 4-byte writes: the header is 16 bytes, a pre-image a page).
        fn pages_journaled(&self) -> Vec<u32> {
            let writes = std::mem::take(&mut *self.writes.borrow_mut());
            writes
                .iter()
                .filter_map(|(_, id)| Some(u32::from_be_bytes(id.as_slice().try_into().ok()?)))
                .collect()
        }
    }

    /// A database file and its journal.
    type DbFiles = [Box<dyn Vfs>; 2];

    /// Both files of a fresh database, probed, and their budget (unlimited).
    fn probed() -> (DbFiles, [Probed; 2], Rc<Cell<u64>>) {
        let handles: [Probed; 2] = Default::default();
        let budget = Rc::new(Cell::new(u64::MAX));
        let files = handles.clone().map(|file| {
            Box::new(Probe {
                file,
                budget: budget.clone(),
            }) as Box<dyn Vfs>
        });
        (files, handles, budget)
    }

    impl Probe {
        fn spend(&self) -> bool {
            let left = self.budget.get();
            self.budget.set(left.saturating_sub(1));
            left > 0
        }
    }

    impl Vfs for Probe {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), crate::vfs::VfsError> {
            self.file.file.borrow().read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), crate::vfs::VfsError> {
            if self.spend() {
                self.file.writes.borrow_mut().push((offset, data.to_vec()));
                self.file.file.borrow_mut().write_at(offset, data)?;
            }
            Ok(())
        }
        fn len(&self) -> u64 {
            self.file.file.borrow().len()
        }
        fn set_len(&mut self, len: u64) -> Result<(), crate::vfs::VfsError> {
            if self.spend() {
                self.file.file.borrow_mut().set_len(len)?;
            }
            Ok(())
        }
        fn sync(&mut self) -> Result<(), crate::vfs::VfsError> {
            if self.spend() {
                self.file.file.borrow_mut().sync()?;
            }
            Ok(())
        }
    }

    fn image(v: &dyn Vfs) -> Vec<u8> {
        clone_vfs(v).bytes().to_vec()
    }

    #[test]
    fn crosscheck_every_crash_point_of_a_commit_recovers() {
        use crate::db::{Database, DbOptions};

        let big = |n: usize| format!("INSERT INTO t (pad) VALUES ('{}')", "x".repeat(n));
        let count = |db: &mut Database| format!("{:?}", db.execute("SELECT COUNT(*) FROM t"));
        // A database built by `setup` with unlimited budget, and the budget.
        let build = |setup: &[String]| {
            let ([db, journal], handles, budget) = probed();
            let mut d = Database::open(db, journal, DbOptions::default()).expect("open");
            for sql in setup {
                d.execute(sql).expect("setup");
            }
            (d, handles.map(|h| h.file), budget)
        };

        let create = "CREATE TABLE t (id INTEGER PRIMARY KEY, pad TEXT)".to_string();
        let cases = [
            // Fits its leaf: the file keeps its length.
            (vec![create.clone(), big(100)], big(100), "fits"),
            // Two rows of 1.5 KB fill a leaf; the third splits it.
            (
                vec![create.clone(), big(1500), big(1500)],
                big(1500),
                "splits",
            ),
            // A multi-leaf table goes to the freelist.
            (
                std::iter::once(create)
                    .chain((0..6).map(|_| big(1500)))
                    .collect(),
                "DROP TABLE t".to_string(),
                "frees",
            ),
        ];
        for (setup, stmt, case) in &cases {
            let (mut d, _, budget) = build(setup);
            let before = image(d.db_file());
            let count_before = count(&mut d);
            budget.set(u64::MAX);
            d.execute(stmt).expect("statement");
            let calls = u64::MAX - budget.get();
            let after = image(d.db_file());
            let count_after = count(&mut d);
            match *case {
                "fits" => assert_eq!(after.len(), before.len()),
                "splits" => assert!(after.len() > before.len()),
                _ => assert_ne!(after[12..16], [0; 4], "the freelist holds the table"),
            }
            assert_ne!(before, after);
            for k in 0..=calls {
                let (mut d, [db, journal], budget) = build(setup);
                budget.set(k);
                let _ = d.execute(stmt);
                let (db, journal) = (db.borrow().crash(), journal.borrow().crash());
                let mut reopened =
                    Database::open(Box::new(db), Box::new(journal), DbOptions::default())
                        .unwrap_or_else(|e| panic!("{case}: reopen after {k}/{calls} calls: {e}"));
                let recovered = image(reopened.db_file());
                let expected = if recovered == before {
                    &count_before
                } else {
                    assert!(
                        recovered == after,
                        "{case}: after {k}/{calls} calls the file is neither image"
                    );
                    &count_after
                };
                assert_eq!(
                    &count(&mut reopened),
                    expected,
                    "{case}: after {k}/{calls} calls"
                );
            }
        }
    }

    /// One file of a database under test, a [`MemVfs`] that counts the
    /// whole pages copied through it: a page's worth of `read_at` /
    /// `write_at`, and a `read_page` the file could not share. Each sync of a non-empty
    /// file keeps its bytes (the journal a crash there would find).
    #[derive(Clone, Default)]
    struct Counted {
        file: Rc<RefCell<MemVfs>>,
        copies: Rc<Cell<u64>>,
        synced: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Counted {
        fn count(&self, len: usize) {
            self.copies
                .set(self.copies.get() + (len / PAGE_SIZE) as u64);
        }
    }

    impl Vfs for Counted {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), crate::vfs::VfsError> {
            self.count(buf.len());
            self.file.borrow().read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), crate::vfs::VfsError> {
            self.count(data.len());
            self.file.borrow_mut().write_at(offset, data)
        }
        fn read_page(&self, offset: u64, len: usize) -> Result<Page, crate::vfs::VfsError> {
            let page = self.file.borrow().read_page(offset, len)?;
            if Arc::strong_count(&page) == 1 {
                self.count(len);
            }
            Ok(page)
        }
        fn write_page(
            &mut self,
            offset: u64,
            page: &Page,
        ) -> Result<Option<Page>, crate::vfs::VfsError> {
            self.file.borrow_mut().write_page(offset, page)
        }
        fn len(&self) -> u64 {
            self.file.borrow().len()
        }
        fn set_len(&mut self, len: u64) -> Result<(), crate::vfs::VfsError> {
            self.file.borrow_mut().set_len(len)
        }
        fn sync(&mut self) -> Result<(), crate::vfs::VfsError> {
            let file = self.file.borrow();
            if !file.is_empty() {
                self.synced.borrow_mut().push(file.bytes());
            }
            drop(file);
            self.file.borrow_mut().sync()
        }
    }

    #[test]
    fn a_rollback_insert_copies_no_page_through_either_file() {
        use crate::db::{Database, DbOptions};

        let (db, journal) = (Counted::default(), Counted::default());
        let mut d = Database::open(
            Box::new(db.clone()),
            Box::new(journal.clone()),
            DbOptions::default(),
        )
        .expect("open");
        d.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        d.execute("INSERT INTO t (v) VALUES ('a')").expect("insert");
        let leaf = 2u64 * PAGE_SIZE as u64;
        let pre_image = db.file.borrow().read_page(leaf, PAGE_SIZE).expect("read");
        journal.synced.borrow_mut().clear();
        for file in [&db, &journal] {
            file.copies.set(0);
        }

        // Fits its leaf: the journal holds the leaf's pre-image, and
        // neither file copies a page.
        d.execute("INSERT INTO t (v) VALUES ('b')").expect("insert");
        assert_eq!((db.copies.get(), journal.copies.get()), (0, 0));
        let synced = std::mem::take(&mut *journal.synced.borrow_mut());
        assert_eq!(synced.len(), 1, "one journal image synced");
        let image = &synced[0];
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        // The bytes the journal held when its image was one copied write
        // (computed on the commit before, 63b33c9, with this test: there
        // the database file copied one page out and the journal one in).
        assert_eq!((image.len(), fnv), (4116, 0xbf1b_bfc3_7f54_9927));
        let mut file = MemVfs::new();
        file.write_at(0, image).expect("write");
        let contents = read_journal(&file, PAGE_SIZE)
            .expect("read")
            .expect("a journal");
        assert_eq!(contents.old_page_count, 3);
        assert_eq!(contents.entries, [(2, pre_image.to_vec())]);

        // Fills its leaf and opens the next: the leaf and the header page
        // are journaled, and still no page is copied through a file.
        let pad = "x".repeat(2000);
        for _ in 0..3 {
            d.execute(&format!("INSERT INTO t (v) VALUES ('{pad}')"))
                .expect("insert");
        }
        assert!(d.page_count() > 3, "the leaf split");
        assert_eq!((db.copies.get(), journal.copies.get()), (0, 0));
    }

    #[test]
    fn an_insert_that_fits_its_leaf_commits_one_page() {
        use crate::db::{Database, DbOptions};

        let ([db, journal], [db_log, journal_log], _) = probed();
        let mut d = Database::open(db, journal, DbOptions::default()).expect("open");
        d.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        d.execute("INSERT INTO t (v) VALUES ('a')").expect("insert");
        d.take_io_stats();
        db_log.pages_written();
        journal_log.pages_journaled();

        d.execute("INSERT INTO t (v) VALUES ('b')").expect("insert");
        let io = d.take_io_stats();
        assert_eq!(io.db_pages_written, 1);
        assert_eq!(io.journal_bytes, 16 + 4 + PAGE_SIZE as u64);
        assert_eq!(io.syncs, 3);
        let written = db_log.pages_written();
        assert_eq!(written.len(), 1);
        assert!(!written.contains(&0), "page 0 written: {written:?}");
        let journaled = journal_log.pages_journaled();
        assert_eq!(journaled, [written[0] as u32], "the written page alone");
    }

    #[test]
    fn a_header_change_journals_and_writes_page_zero() {
        let ([db, journal], [db_log, journal_log], _) = probed();
        let mut p = Pager::open(db, journal, JournalMode::Rollback).expect("open");
        p.take_stats();
        db_log.pages_written();
        journal_log.pages_journaled();

        // `allocate` past the end: the new page has no pre-image.
        let id = p.allocate().expect("alloc");
        p.commit().expect("commit");
        assert_eq!(db_log.pages_written(), [0, u64::from(id)]);
        assert_eq!(journal_log.pages_journaled(), [0]);
        let io = p.take_stats();
        assert_eq!((io.db_pages_written, io.syncs), (2, 3));

        p.free(id).expect("free");
        p.commit().expect("commit");
        assert_eq!(db_log.pages_written(), [0, u64::from(id)]);
        assert_eq!(journal_log.pages_journaled(), [0, id]);

        // `allocate` from the freelist.
        assert_eq!(p.allocate().expect("alloc"), id);
        p.commit().expect("commit");
        assert_eq!(db_log.pages_written(), [0, u64::from(id)]);
        assert_eq!(journal_log.pages_journaled(), [0, id]);
    }

    #[test]
    fn rollback_discards_changes() {
        let mut p = fresh(JournalMode::Rollback);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 9;
        p.rollback();
        assert_eq!(p.page_count(), 2, "allocation rolled back");
        assert!(!p.has_dirty());
    }

    #[test]
    fn interrupted_commit_rolls_back_on_open() {
        // Simulate: journal written+synced, db partially written, crash
        // before db sync.
        let mut p = fresh(JournalMode::Rollback);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[7] = 0x77;
        p.commit().expect("commit");
        let committed_db = clone_vfs(p.db.as_ref());

        // Second transaction: stage the journal by hand, corrupt the db,
        // "crash" before syncing the db.
        let mut db = committed_db.clone();
        let mut journal = MemVfs::new();
        let pre_image = {
            let mut buf = vec![0u8; PAGE_SIZE];
            db.read_at(id as u64 * PAGE_SIZE as u64, &mut buf)
                .expect("read");
            buf
        };
        write_journal(
            &mut journal,
            PAGE_SIZE,
            3,
            &[(id, Arc::new(pre_image))],
            true,
        )
        .expect("journal");
        // Partial overwrite that never got synced: the crash image keeps the
        // synced content, so emulate a *synced* torn write to be pessimistic.
        db.write_at(id as u64 * PAGE_SIZE as u64, &[0xff; PAGE_SIZE])
            .expect("write");
        db.sync().expect("sync");

        let p2 = Pager::open(
            Box::new(db.crash()),
            Box::new(journal.crash()),
            JournalMode::Rollback,
        )
        .expect("recovering open");
        let mut p2 = p2;
        assert_eq!(p2.page(id).expect("page")[7], 0x77, "pre-image restored");
    }

    #[test]
    fn no_acid_mode_never_syncs() {
        let mut p = fresh(JournalMode::Off);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 1;
        p.commit().expect("commit");
        let stats = p.take_stats();
        assert_eq!(stats.syncs, 0);
        assert_eq!(stats.journal_bytes, 0);
        assert!(stats.db_pages_written > 0);
    }

    #[test]
    fn acid_mode_syncs_and_journals() {
        let mut p = fresh(JournalMode::Rollback);
        let _ = p.take_stats(); // discard creation stats
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 1;
        p.commit().expect("commit");
        let stats = p.take_stats();
        assert!(stats.syncs >= 3, "journal sync + db sync + clear sync");
        assert!(stats.journal_bytes > 0);
    }

    #[test]
    fn out_of_range_page_rejected() {
        let mut p = fresh(JournalMode::Rollback);
        assert!(p.page(99).is_err());
        assert!(p.page_mut(99).is_err());
        assert!(!p.has_dirty(), "a page that failed to load is not dirty");
    }

    // ------------------------------------------------------------------
    // WAL mode
    // ------------------------------------------------------------------

    #[test]
    fn wal_commit_leaves_database_file_untouched() {
        let mut p = fresh(JournalMode::Wal);
        let db_before = clone_vfs(p.db.as_ref());
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 0x42;
        p.commit().expect("commit");
        assert_eq!(
            p.db.len(),
            db_before.len(),
            "db file only changes at checkpoint"
        );
        assert!(p.wal_frames() > 0);
        // But the committed page reads back through the WAL.
        assert_eq!(p.page(id).expect("page")[0], 0x42);
    }

    #[test]
    fn wal_single_sync_per_commit() {
        let mut p = fresh(JournalMode::Wal);
        let _ = p.take_stats();
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 1;
        p.commit().expect("commit");
        let stats = p.take_stats();
        assert_eq!(stats.syncs, 1, "WAL mode: exactly one sync per commit");
        assert!(stats.journal_bytes > 0);
        assert_eq!(stats.db_pages_written, 0, "no checkpoint yet");
    }

    #[test]
    fn wal_commit_survives_crash_and_reopen() {
        let mut p = fresh(JournalMode::Wal);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[9] = 0x99;
        p.commit().expect("commit");
        let db = clone_vfs(p.db.as_ref());
        let wal = clone_vfs(p.journal.as_ref());
        let mut p2 = Pager::open(Box::new(db), Box::new(wal), JournalMode::Wal).expect("reopen");
        assert_eq!(p2.page(id).expect("page")[9], 0x99);
        assert_eq!(p2.page_count(), 3);
    }

    #[test]
    fn wal_unsynced_transaction_lost_on_crash() {
        // First commit establishes durable state; a second one crashes
        // before its (only) sync.
        let mut db = MemVfs::new();
        let mut wal = MemVfs::new();
        {
            let mut p = Pager::open(
                Box::new(db.clone()),
                Box::new(wal.clone()),
                JournalMode::Wal,
            )
            .expect("open");
            let id = p.allocate().expect("alloc");
            p.page_mut(id).expect("page")[0] = 1;
            p.commit().expect("commit");
            db = clone_vfs(p.db.as_ref());
            // Take the *synced* wal image, then append unsynced garbage the
            // crash discards (emulating a torn in-flight commit).
            wal = clone_vfs(p.journal.as_ref());
        }
        let mut torn = wal.clone();
        let end = torn.len();
        torn.write_at(end, &[0xaau8; 100]).expect("write");
        let crashed = torn.crash();
        let mut p2 =
            Pager::open(Box::new(db), Box::new(crashed), JournalMode::Wal).expect("reopen");
        assert_eq!(p2.page(2).expect("page")[0], 1, "synced commit survives");
        assert_eq!(p2.page_count(), 3);
    }

    #[test]
    fn wal_checkpoint_folds_into_database() {
        let mut p = fresh(JournalMode::Wal);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[3] = 0x33;
        p.commit().expect("commit");
        let _ = p.take_stats();
        p.wal_checkpoint().expect("checkpoint");
        let stats = p.take_stats();
        assert_eq!(stats.wal_checkpoints, 1);
        assert!(stats.db_pages_written > 0);
        assert_eq!(p.wal_frames(), 0, "log reset after checkpoint");
        // The database file alone (no WAL) now holds everything.
        let db = clone_vfs(p.db.as_ref());
        let mut p2 =
            Pager::open(Box::new(db), Box::new(MemVfs::new()), JournalMode::Wal).expect("reopen");
        assert_eq!(p2.page(id).expect("page")[3], 0x33);
    }

    #[test]
    fn wal_autocheckpoint_triggers() {
        let mut p = fresh(JournalMode::Wal);
        p.set_wal_autocheckpoint(4);
        let _ = p.take_stats();
        for i in 0..4u8 {
            let id = p.allocate().expect("alloc");
            p.page_mut(id).expect("page")[0] = i;
            p.commit().expect("commit");
        }
        let stats = p.take_stats();
        assert!(stats.wal_checkpoints >= 1, "threshold crossed");
        assert!(p.wal_frames() < 4);
    }

    #[test]
    fn wal_to_rollback_conversion_on_open() {
        let mut p = fresh(JournalMode::Wal);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[5] = 0x55;
        p.commit().expect("commit");
        let db = clone_vfs(p.db.as_ref());
        let wal = clone_vfs(p.journal.as_ref());
        // Reopen in rollback mode: the WAL folds into the db file.
        let mut p2 =
            Pager::open(Box::new(db), Box::new(wal), JournalMode::Rollback).expect("convert");
        assert_eq!(p2.page(id).expect("page")[5], 0x55);
        assert_eq!(p2.journal_vfs().len(), 0, "wal truncated after conversion");
    }

    #[test]
    fn wal_rollback_reverts_to_last_commit() {
        let mut p = fresh(JournalMode::Wal);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 1;
        p.commit().expect("commit");
        p.page_mut(id).expect("page")[0] = 2;
        p.rollback();
        assert_eq!(p.page(id).expect("page")[0], 1, "reverts to the WAL image");
    }

    #[test]
    fn wal_invalidate_cache_rescans_log() {
        let mut p = fresh(JournalMode::Wal);
        let id = p.allocate().expect("alloc");
        p.page_mut(id).expect("page")[0] = 7;
        p.commit().expect("commit");
        p.invalidate_cache().expect("invalidate");
        assert_eq!(p.page(id).expect("page")[0], 7);
        assert!(p.wal_frames() > 0, "index rebuilt from the log");
    }

    #[test]
    fn wal_many_transactions_roundtrip() {
        let mut p = fresh(JournalMode::Wal);
        p.set_wal_autocheckpoint(7); // exercise mid-stream checkpoints
        let mut ids = Vec::new();
        for i in 0..20u8 {
            let id = p.allocate().expect("alloc");
            p.page_mut(id).expect("page")[1] = i;
            p.commit().expect("commit");
            ids.push((id, i));
        }
        let db = clone_vfs(p.db.as_ref());
        let wal = clone_vfs(p.journal.as_ref());
        let mut p2 = Pager::open(Box::new(db), Box::new(wal), JournalMode::Wal).expect("reopen");
        for (id, i) in ids {
            assert_eq!(p2.page(id).expect("page")[1], i);
        }
    }
}
