//! A minisql VFS backed by the replicated state region.
//!
//! The database file lives inside the PBFT state region (the paper maps the
//! SQLite file into the shared memory region via a sparse file); reads come
//! straight from the region and writes perform the region's
//! modify-notification before mutating bytes. The pager holds dirty pages
//! and shares clean ones with the region: a whole-page read hands out the
//! region's own page image ([`PagedState::share_page`]), and a committed
//! page becomes the region's page without a copy
//! ([`PagedState::put_page`], after the same notification), so each
//! replica holds its database once. The rollback journal, by contrast, is
//! *not* replicated state — "We left this second file to be stored on
//! disk, since ... it is not actually part of the application state" — so
//! it uses a plain [`minisql::MemVfs`].
//!
//! [`PagedState::share_page`]: pbft_state::PagedState::share_page
//! [`PagedState::put_page`]: pbft_state::PagedState::put_page

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use minisql::{Vfs, VfsError};
use pbft_core::app::StateHandle;
use pbft_state::{Section, StateError, PAGE_SIZE};

// A database page is a state page: that is what lets the pager share them.
const _: () = assert!(minisql::PAGE_SIZE == PAGE_SIZE);

/// Sync (fsync-equivalent) counter shared with the cost-accounting layer.
pub type SyncCounter = Rc<RefCell<u64>>;

/// The state-region VFS. See the module docs.
pub struct StateVfs {
    state: StateHandle,
    section: Section,
    /// Logical end-of-file within the (fixed-size, sparse) section.
    len: u64,
    syncs: SyncCounter,
}

impl std::fmt::Debug for StateVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateVfs")
            .field("section", &self.section)
            .field("len", &self.len)
            .finish()
    }
}

impl StateVfs {
    /// Mount a VFS over `section` of the replica's state region.
    ///
    /// The logical file length is recovered from the region contents: a
    /// minisql header at offset 0 implies `page_count × PAGE_SIZE`, anything
    /// else is an empty file (fresh database).
    pub fn new(state: StateHandle, section: Section, syncs: SyncCounter) -> StateVfs {
        let len = Self::probe_len(&state, &section);
        StateVfs {
            state,
            section,
            len,
            syncs,
        }
    }

    /// Mount a VFS whose logical length is pinned to the section size.
    ///
    /// The write-ahead log needs this: unlike the database file its length
    /// cannot be probed from a header, and WAL recovery self-limits by
    /// scanning frames until a checksum break, so over-reporting the length
    /// is safe (the tail reads as zeros).
    pub fn fixed(state: StateHandle, section: Section, syncs: SyncCounter) -> StateVfs {
        let len = section.len;
        StateVfs {
            state,
            section,
            len,
            syncs,
        }
    }

    fn probe_len(state: &StateHandle, section: &Section) -> u64 {
        let st = state.borrow();
        let mut header = [0u8; 12];
        if section.read(&st, 0, &mut header).is_err() {
            return 0;
        }
        if &header[..8] != b"MINISQL1" {
            return 0;
        }
        let page_count = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
        u64::from(page_count) * minisql::PAGE_SIZE as u64
    }

    /// The region page that the `len` bytes at file offset `offset` are,
    /// if they are exactly one whole page of the section.
    fn whole_page(&self, offset: u64, len: usize) -> Option<u64> {
        let at = self.section.base.checked_add(offset)?;
        let fits = offset.checked_add(len as u64)? <= self.section.len;
        (len == PAGE_SIZE && at % PAGE_SIZE as u64 == 0 && fits).then_some(at / PAGE_SIZE as u64)
    }
}

fn backend(e: StateError) -> VfsError {
    VfsError::Backend(e.to_string())
}

impl Vfs for StateVfs {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), VfsError> {
        let st = self.state.borrow();
        self.section.read(&st, offset, buf).map_err(backend)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let mut st = self.state.borrow_mut();
        // The PBFT contract: notify before modifying (§3.2).
        self.section
            .modify(&mut st, offset, data.len())
            .map_err(backend)?;
        self.section.write(&mut st, offset, data).map_err(backend)?;
        self.len = self.len.max(offset + data.len() as u64);
        Ok(())
    }

    fn read_page(&self, offset: u64, len: usize) -> Result<Arc<Vec<u8>>, VfsError> {
        let Some(page) = self.whole_page(offset, len) else {
            let mut copy = vec![0u8; len];
            self.read_at(offset, &mut copy)?;
            return Ok(Arc::new(copy));
        };
        let shared = self.state.borrow().share_page(page);
        Ok(shared.unwrap_or_else(|| Arc::new(vec![0u8; PAGE_SIZE])))
    }

    fn write_page(
        &mut self,
        offset: u64,
        page: &Arc<Vec<u8>>,
    ) -> Result<Option<Arc<Vec<u8>>>, VfsError> {
        let Some(index) = self.whole_page(offset, page.len()) else {
            self.write_at(offset, page)?;
            return Ok(None);
        };
        let mut st = self.state.borrow_mut();
        // The same notification a write of the page's bytes makes.
        self.section
            .modify(&mut st, offset, PAGE_SIZE)
            .map_err(backend)?;
        let released = st.put_page(index, Arc::clone(page)).map_err(backend)?;
        self.len = self.len.max(offset + PAGE_SIZE as u64);
        Ok(released)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn set_len(&mut self, len: u64) -> Result<(), VfsError> {
        if len < self.len {
            // Zero the truncated tail so region digests match a freshly
            // written file of the same length.
            let gap = (self.len - len) as usize;
            let mut st = self.state.borrow_mut();
            self.section.modify(&mut st, len, gap).map_err(backend)?;
            let zeros = vec![0u8; gap.min(1 << 16)];
            let mut off = len;
            let mut remaining = gap;
            while remaining > 0 {
                let chunk = remaining.min(zeros.len());
                self.section
                    .write(&mut st, off, &zeros[..chunk])
                    .map_err(backend)?;
                off += chunk as u64;
                remaining -= chunk;
            }
        }
        self.len = len;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        // The region itself is synchronized by the PBFT checkpoint protocol;
        // this counts the would-be fsync for cost accounting ("the database
        // file is synchronized with its disk image on transaction commit").
        *self.syncs.borrow_mut() += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_state::PagedState;

    fn setup(pages: usize) -> (StateHandle, Section, SyncCounter) {
        let state: StateHandle = Rc::new(RefCell::new(PagedState::new(pages)));
        let section = Section {
            base: 4096,
            len: (pages as u64 - 1) * 4096,
        };
        (state, section, Rc::new(RefCell::new(0)))
    }

    #[test]
    fn fresh_region_is_empty_file() {
        let (state, section, syncs) = setup(8);
        let vfs = StateVfs::new(state, section, syncs);
        assert_eq!(vfs.len(), 0);
        assert!(vfs.is_empty());
    }

    #[test]
    fn writes_notify_and_persist() {
        let (state, section, syncs) = setup(8);
        let mut vfs = StateVfs::new(state.clone(), section, syncs);
        vfs.write_at(10, b"hello").expect("write");
        assert_eq!(vfs.len(), 15);
        let mut buf = [0u8; 5];
        vfs.read_at(10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
        // The write dirtied the region (modify-notification happened).
        assert!(state.borrow().dirty_pages() > 0);
    }

    #[test]
    fn whole_pages_are_shared_with_the_region() {
        let (state, section, syncs) = setup(8);
        let mut vfs = StateVfs::new(state.clone(), section, syncs);
        let page = Arc::new(vec![7u8; PAGE_SIZE]);
        assert_eq!(vfs.write_page(PAGE_SIZE as u64, &page), Ok(None));
        assert_eq!(vfs.len(), 2 * PAGE_SIZE as u64);
        let region_page = (section.base / PAGE_SIZE as u64) + 1;
        let stored = state.borrow().share_page(region_page).expect("stored");
        assert!(Arc::ptr_eq(&stored, &page), "stored without a copy");
        assert!(state.borrow().dirty_pages() > 0, "notified");
        let read = vfs.read_page(PAGE_SIZE as u64, PAGE_SIZE).expect("read");
        assert!(Arc::ptr_eq(&read, &page), "read without a copy");
        // Storing over it hands the old image back.
        let next = Arc::new(vec![8u8; PAGE_SIZE]);
        let old = vfs.write_page(PAGE_SIZE as u64, &next).expect("write");
        assert!(old.is_some_and(|old| Arc::ptr_eq(&old, &page)));
        // Anything but a whole page of the section is copied.
        let part = vfs.read_page(1, PAGE_SIZE).expect("read");
        assert_eq!(part[..PAGE_SIZE - 1], [0u8; PAGE_SIZE - 1]);
        assert_eq!(part[PAGE_SIZE - 1], 8);
        assert!(
            vfs.write_page(section.len, &next).is_err(),
            "past the section"
        );
    }

    #[test]
    fn sync_counts() {
        let (state, section, syncs) = setup(8);
        let mut vfs = StateVfs::new(state, section, syncs.clone());
        vfs.sync().expect("sync");
        vfs.sync().expect("sync");
        assert_eq!(*syncs.borrow(), 2);
    }

    #[test]
    fn truncation_zeroes_tail() {
        let (state, section, syncs) = setup(8);
        let mut vfs = StateVfs::new(state, section, syncs);
        vfs.write_at(0, &[0xau8; 100]).expect("write");
        vfs.set_len(40).expect("truncate");
        assert_eq!(vfs.len(), 40);
        let mut buf = [9u8; 60];
        vfs.read_at(40, &mut buf).expect("read");
        assert_eq!(buf, [0u8; 60]);
    }

    #[test]
    fn database_over_state_region_roundtrips() {
        use minisql::{Database, DbOptions, MemVfs, Value};
        let (state, section, syncs) = setup(32);
        let vfs = StateVfs::new(state.clone(), section, syncs);
        let mut db = Database::open(Box::new(vfs), Box::new(MemVfs::new()), DbOptions::default())
            .expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        db.execute("INSERT INTO t (v) VALUES ('in the region')")
            .expect("insert");
        let rows = db.query("SELECT v FROM t").expect("select");
        assert_eq!(rows.rows[0][0], Value::Text("in the region".into()));

        // A second VFS over the same region sees the committed database
        // (this is what state transfer hands to a recovering replica).
        let vfs2 = StateVfs::new(state.clone(), section, Rc::new(RefCell::new(0)));
        assert!(vfs2.len() > 0, "length recovered from the header");
        let mut db2 = Database::open(
            Box::new(vfs2),
            Box::new(MemVfs::new()),
            DbOptions::default(),
        )
        .expect("reopen");
        let rows = db2.query("SELECT v FROM t").expect("select");
        assert_eq!(rows.rows[0][0], Value::Text("in the region".into()));
    }

    /// A database over `pages` pages of a fresh region: the region, the
    /// database and the section it lives in.
    fn region_db(pages: usize) -> (StateHandle, minisql::Database, Section) {
        use minisql::{Database, DbOptions, MemVfs};
        let (state, section, syncs) = setup(pages);
        let vfs = StateVfs::new(state.clone(), section, syncs);
        let db = Database::open(Box::new(vfs), Box::new(MemVfs::new()), DbOptions::default())
            .expect("open");
        (state, db, section)
    }

    /// The whole file a VFS holds.
    fn file_bytes(file: &dyn Vfs) -> Vec<u8> {
        let mut bytes = vec![0u8; file.len() as usize];
        file.read_at(0, &mut bytes).expect("read");
        bytes
    }

    #[test]
    fn a_multi_row_insert_that_fails_partway_changes_nothing() {
        let (state, mut db, section) = region_db(64);
        let row = |id: u32| format!("({id}, '{}')", "r".repeat(1500));
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        for id in 1..=3 {
            db.execute(&format!("INSERT INTO t (id, v) VALUES {}", row(id)))
                .expect("insert");
        }
        let region = |state: &StateHandle| {
            let mut st = state.borrow_mut();
            let bytes = st
                .read_vec(section.base, section.len as usize)
                .expect("read");
            (bytes, st.refresh_digest())
        };
        let before = region(&state);
        // Three rows of 1.5 KB split leaves and allocate pages before the
        // fourth collides with row 1.
        let rows: Vec<String> = [10, 11, 12, 1].into_iter().map(row).collect();
        let failed = db.execute(&format!("INSERT INTO t (id, v) VALUES {}", rows.join(", ")));
        assert!(
            matches!(failed, Err(minisql::SqlError::Constraint(_))),
            "{failed:?}"
        );
        assert!(before == region(&state), "the region's bytes or root moved");
        // The next statements read the pre-images and build on them.
        let count = db.query("SELECT COUNT(*) FROM t").expect("count");
        assert_eq!(count.rows[0][0], minisql::Value::Integer(3));
        db.execute(&format!("INSERT INTO t (id, v) VALUES {}", row(4)))
            .expect("insert");
        let (_, mut twin, _) = region_db(64);
        twin.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        for id in 1..=4 {
            twin.execute(&format!("INSERT INTO t (id, v) VALUES {}", row(id)))
                .expect("insert");
        }
        assert_eq!(file_bytes(db.db_file()), file_bytes(twin.db_file()));
    }

    #[test]
    fn prop_state_vfs_and_mem_vfs_agree() {
        use minisql::{Database, DbOptions, MemVfs};
        propcheck::check("state_vfs_and_mem_vfs_agree", 96, |g| {
            let (state, mut shared, _) = region_db(96);
            let mut plain = Database::open(
                Box::new(MemVfs::new()),
                Box::new(MemVfs::new()),
                DbOptions::default(),
            )
            .expect("open");
            // Checkpoints kept alive, so the region's pages are shared with
            // snapshots as well as with the pager.
            let mut snapshots = Vec::new();
            let setup = "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)";
            let mut script = vec![setup.to_string()];
            for _ in 0..g.usize_in(1..120) {
                let id = g.u64_in(0..40);
                let pad = |g: &mut propcheck::Gen| "x".repeat(g.usize_in(0..1200));
                let sql = match g.choice(9) {
                    0..=2 => {
                        let rows: Vec<String> = (0..g.usize_in(1..4))
                            .map(|i| format!("({}, {i}, '{}')", id + i as u64, pad(g)))
                            .collect();
                        format!("INSERT INTO t (id, k, v) VALUES {}", rows.join(", "))
                    }
                    3 => format!("UPDATE t SET v = '{}' WHERE id >= {id}", pad(g)),
                    4 => format!("DELETE FROM t WHERE id < {id}"),
                    5 => "BEGIN".to_string(),
                    6 => "ROLLBACK".to_string(),
                    7 => "COMMIT".to_string(),
                    _ => "SELECT id, k, length(v) FROM t ORDER BY id".to_string(),
                };
                script.push(sql);
            }
            for (step, sql) in script.iter().enumerate() {
                let a = format!("{:?}", shared.execute(sql));
                let b = format!("{:?}", plain.execute(sql));
                assert_eq!(a, b, "step {step}: {sql}");
                assert!(
                    file_bytes(shared.db_file()) == file_bytes(plain.db_file()),
                    "step {step}: the database files differ after {sql}"
                );
                if g.choice(4) == 0 {
                    let mut st = state.borrow_mut();
                    st.refresh_digest();
                    snapshots.push(st.snapshot(step as u64));
                }
            }
        });
    }

    #[test]
    fn out_of_section_write_fails() {
        let (state, section, syncs) = setup(2); // section is one page
        let mut vfs = StateVfs::new(state, section, syncs);
        assert!(vfs.write_at(0, &[1u8; 4096]).is_ok());
        assert!(
            vfs.write_at(4096, &[1u8]).is_err(),
            "fixed-size region overflow"
        );
    }
}
