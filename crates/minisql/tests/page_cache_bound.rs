//! The page cache must grow with the pages a statement reads, never with the
//! page ids a file claims: the header and every child pointer can arrive by
//! PBFT state transfer, and a cache indexed by page id would size itself
//! from a header that says the file holds `u32::MAX` pages.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the high-water mark is per thread, so the harness's own
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minisql::{Database, DbOptions, MemVfs, SqlError, Vfs, PAGE_SIZE};

thread_local! {
    /// Largest single request since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Requests above this fail instead of reaching the system: a cache sized by
/// a hostile page id would ask for tens of GiB and, where the kernel
/// overcommits, start zeroing them.
const REFUSE: usize = 1 << 30;

// SAFETY: `alloc` and `dealloc` forward their arguments to `System`
// unchanged, so its contract is this allocator's, or return null, which
// `GlobalAlloc::alloc` allows; the counter is a const-initialised `Cell`
// without a destructor, which touching it from inside the allocator neither
// allocates nor re-enters. `realloc` and `alloc_zeroed` keep their default
// bodies, which call `alloc` below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread past its thread-local teardown is not one under test.
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        if layout.size() > REFUSE {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BOUND: usize = 64 << 10;

/// A database file whose header claims `u32::MAX` pages and whose table
/// `t` has an interior root (page 2) pointing at two page ids near it.
fn hostile_file() -> Vec<u8> {
    let mut db = Database::open(
        Box::new(MemVfs::new()),
        Box::new(MemVfs::new()),
        DbOptions::default(),
    )
    .expect("open");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        .expect("create");
    db.execute("INSERT INTO t (v) VALUES ('a'), ('b'), ('c')")
        .expect("insert");
    let file = db.db_file();
    let mut bytes = vec![0u8; file.len() as usize];
    file.read_at(0, &mut bytes).expect("read");
    bytes[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
    // Page 2 becomes an interior page: one cell (key 100 → u32::MAX - 2),
    // rightmost child u32::MAX - 1.
    let root = &mut bytes[2 * PAGE_SIZE..3 * PAGE_SIZE];
    root.fill(0);
    root[0] = 2;
    root[1..3].copy_from_slice(&1u16.to_be_bytes());
    root[3..7].copy_from_slice(&(u32::MAX - 1).to_be_bytes());
    root[7..15].copy_from_slice(&100i64.to_be_bytes());
    root[15..19].copy_from_slice(&(u32::MAX - 2).to_be_bytes());
    bytes
}

#[test]
fn hostile_page_ids_do_not_size_the_page_cache() {
    let file = hostile_file();
    for sql in [
        "SELECT * FROM t",
        "SELECT v FROM t WHERE id = 5",
        "SELECT v FROM t WHERE id = 500",
        "INSERT INTO t (v) VALUES ('d')",
        "INSERT INTO t (id, v) VALUES (5, 'e')",
        "INSERT INTO t (id, v) VALUES (5000, 'f')",
        "UPDATE t SET v = 'g' WHERE id = 1",
        "DELETE FROM t WHERE id = 2",
        "DELETE FROM t",
    ] {
        let mut vfs = MemVfs::new();
        vfs.write_at(0, &file).expect("write");
        vfs.sync().expect("sync");
        let mut db = Database::open(Box::new(vfs), Box::new(MemVfs::new()), DbOptions::default())
            .expect("a header is all open reads");
        LARGEST.with(|c| c.set(0));
        let result = std::hint::black_box(db.execute_script(sql));
        let asked = LARGEST.with(Cell::get);
        assert!(
            matches!(result, Err(SqlError::Corrupt(_))),
            "{sql}: {result:?}"
        );
        assert!(
            asked <= BOUND,
            "{sql}: asked the allocator for {asked} bytes at once"
        );
    }
}
