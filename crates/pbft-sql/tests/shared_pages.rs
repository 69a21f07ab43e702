//! A replica holds its database once: the pager shares clean pages with
//! the state region instead of caching copies of them.
//!
//! wallbench's §4.2 INSERTs, then the ordered `SELECT COUNT(*)` that reads
//! every leaf, run through `SqlApp::execute` over the replicated state
//! region under an allocator that counts the live blocks of exactly one
//! page (4 KiB) the test thread holds. The region holds one block per
//! database page; everything else — the pager's spare buffers, whatever
//! else happens to be page-sized — must stay within [`OTHER_PAGE_BLOCKS`].
//! A pager that caches a private copy of every page it reads holds about
//! twice the database's pages. In WAL mode the log's section of the region
//! is allowed beside them.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the counters are per thread, so the harness's own threads
//! do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minisql::JournalMode;
use pbft_core::{App, ClientId, NonDet};
use pbft_sql::{decode_outcome, sql_state, CostProfile, SqlApp, WireOutcome};

/// The size of the blocks counted: one database (and state) page.
const PAGE: usize = minisql::PAGE_SIZE;

thread_local! {
    static PAGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAGE_FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, size: usize) {
    if size == PAGE {
        // A thread past its thread-local teardown is not one under test.
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: `alloc` and `dealloc` forward their arguments to `System`
// unchanged, so its contract is this allocator's; the counters are
// const-initialised `Cell`s without destructors, which touching from
// inside the allocator neither allocates nor re-enters. `realloc` and
// `alloc_zeroed` keep their default bodies, which are built from the two
// methods below and so are counted as the allocate-and-free they are.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&PAGE_ALLOCS, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&PAGE_FREES, layout.size());
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Page-sized blocks allowed beside the database's own pages: the pager's
/// spare buffers (at most three, what a leaf split dirties; 84 pages and
/// 87 blocks when this was written, after 2 000 INSERTs) and one for
/// anything else page-sized.
const OTHER_PAGE_BLOCKS: u64 = 4;

/// wallbench's SQL schema and application partition (~4 MiB).
const SCHEMA: &str =
    "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";
const APP_PAGES: usize = 1020;
/// Enough rows for a table of some 90 pages (leaves are full since an
/// append to a full leaf opens a leaf of its own; 2 000 rows made 84
/// half-full ones before).
const INSERTS: u64 = 4_000;

fn live_page_blocks() -> u64 {
    PAGE_ALLOCS.with(Cell::get) - PAGE_FREES.with(Cell::get)
}

/// wallbench's `sql_insert_op` for client 0 of seed 1.
fn op(seq: u64) -> Vec<u8> {
    format!(
        "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-1-0-{seq}', 'vote-{:x}', now(), random())",
        seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
    .into_bytes()
}

/// Run the INSERTs and the `SELECT COUNT(*)` in `mode`; the database's
/// pages and the page-sized blocks the test thread holds live, the state
/// region's included.
fn run(mode: JournalMode) -> (SqlApp, u64, u64) {
    let before = live_page_blocks();
    let mut app = SqlApp::open(
        sql_state(APP_PAGES),
        mode,
        CostProfile::default(),
        Some(SCHEMA),
    )
    .expect("the schema fits the state region");
    let nondet = |seq: u64| NonDet {
        timestamp_ns: 1_000 + seq,
        random: seq,
    };
    for seq in 0..INSERTS {
        let (reply, _) = app.execute(ClientId(1), &op(seq), &nondet(seq), false);
        assert_eq!(
            decode_outcome(&reply),
            Some(WireOutcome::Affected(1)),
            "INSERT {seq}"
        );
    }
    let (reply, _) = app.execute(
        ClientId(1),
        b"SELECT COUNT(*) FROM bench",
        &nondet(INSERTS),
        false,
    );
    match decode_outcome(&reply) {
        Some(WireOutcome::Rows(rows)) => {
            assert_eq!(rows.rows[0][0], minisql::Value::Integer(INSERTS as i64))
        }
        other => panic!("{other:?}"),
    }
    let pages = u64::from(app.db_mut().page_count());
    let live = live_page_blocks() - before;
    assert!(pages > 50, "the table spans {pages} pages");
    (app, pages, live)
}

#[test]
fn a_replica_holds_each_database_page_once() {
    let (_app, pages, live) = run(JournalMode::Rollback);
    assert!(
        live <= pages + OTHER_PAGE_BLOCKS,
        "{live} live page-sized blocks for a database of {pages} pages \
         (at most {OTHER_PAGE_BLOCKS} beside them)"
    );
}

#[test]
fn a_wal_replica_holds_each_database_page_once_beside_its_log() {
    // The log is a section of the region too: the pages it has written
    // are blocks of their own. A pager that kept the private copy of a
    // page it read from a frame after the checkpoint folded that frame
    // into the file held each such page twice (234 blocks against 87 in
    // rollback mode, after 2 000 INSERTs).
    let (app, pages, live) = run(JournalMode::Wal);
    let (_, wal) = SqlApp::wal_mode_sections(app.state());
    let page = PAGE as u64;
    let state = app.state().borrow();
    let log_pages = (wal.base / page..(wal.base + wal.len) / page)
        .filter(|&p| state.share_page(p).is_some())
        .count() as u64;
    assert!(log_pages > 0, "the log holds frames");
    assert!(
        live <= pages + log_pages + OTHER_PAGE_BLOCKS,
        "{live} live page-sized blocks for a database of {pages} pages and a log \
         of {log_pages} (at most {OTHER_PAGE_BLOCKS} beside them)"
    );
}
