//! A minisql VFS backed by the replicated state region.
//!
//! The database file lives inside the PBFT state region (the paper maps the
//! SQLite file into the shared memory region via a sparse file); reads come
//! straight from the region and writes perform the region's
//! modify-notification before mutating bytes. The rollback journal, by
//! contrast, is *not* replicated state — "We left this second file to be
//! stored on disk, since ... it is not actually part of the application
//! state" — so it uses a plain [`minisql::MemVfs`].

use std::cell::RefCell;
use std::rc::Rc;

use minisql::{Vfs, VfsError};
use pbft_core::app::StateHandle;
use pbft_state::Section;

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
}

impl Vfs for StateVfs {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), VfsError> {
        let st = self.state.borrow();
        self.section
            .read(&st, offset, buf)
            .map_err(|e| VfsError::Backend(e.to_string()))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let mut st = self.state.borrow_mut();
        // The PBFT contract: notify before modifying (§3.2).
        self.section
            .modify(&mut st, offset, data.len())
            .map_err(|e| VfsError::Backend(e.to_string()))?;
        self.section
            .write(&mut st, offset, data)
            .map_err(|e| VfsError::Backend(e.to_string()))?;
        self.len = self.len.max(offset + data.len() as u64);
        Ok(())
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
            self.section
                .modify(&mut st, len, gap)
                .map_err(|e| VfsError::Backend(e.to_string()))?;
            let zeros = vec![0u8; gap.min(1 << 16)];
            let mut off = len;
            let mut remaining = gap;
            while remaining > 0 {
                let chunk = remaining.min(zeros.len());
                self.section
                    .write(&mut st, off, &zeros[..chunk])
                    .map_err(|e| VfsError::Backend(e.to_string()))?;
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
