//! A single-row INSERT of a kept shape allocates nothing in minisql but
//! the pages its database grows by.
//!
//! The §4.2 operation — one row with a key, a value and the agreed
//! `now()` / `random()` — runs through [`Database::execute`] in rollback
//! mode over two [`MemVfs`] files, which keep written pages by reference as
//! the replicated state region does, under an allocator that counts every
//! allocation the test thread asks for. After a warm-up that keeps the
//! statement's shape, the table's tail, the page cache, the spare page
//! buffers and the row and record buffers, what is left is a buffer for
//! each page the file grows by and the amortised growth of the files' own
//! tables (2.1 per page, 0.04 per INSERT, when this was written). At the
//! commit before the row, its two text values, its encoding and the
//! pager's dirty set were kept and a full leaf took an append without
//! being parsed into vectors, the same INSERT made some 7.4.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the counter is per thread, so the harness's own threads
//! do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minisql::{Database, DbOptions, ExecOutcome, FixedEnv, JournalMode, MemVfs};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: `alloc` and `dealloc` forward their arguments to `System`
// unchanged, so its contract is this allocator's; the counter is a
// const-initialised `Cell` without a destructor, which touching from
// inside the allocator neither allocates nor re-enters. `realloc` and
// `alloc_zeroed` keep their default bodies, which are built from the two
// methods below, so a reallocation counts as the allocation it is.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread past its thread-local teardown is not one under test.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 4_000;

/// The benchmark's INSERT for client 0 of seed 1.
fn op(seq: u64) -> String {
    format!(
        "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-1-0-{seq}', 'vote-{:x}', now(), random())",
        seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
}

#[test]
fn a_kept_shape_insert_allocates_nothing() {
    let mut db = Database::open(
        Box::new(MemVfs::new()),
        Box::new(MemVfs::new()),
        DbOptions {
            journal_mode: JournalMode::Rollback,
            env: Box::new(FixedEnv {
                now_ns: 1_000,
                random_state: 7,
            }),
            ..DbOptions::default()
        },
    )
    .expect("open");
    db.execute(
        "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)",
    )
    .expect("create");
    let ops: Vec<String> = (0..WARM_UP + MEASURED).map(op).collect();
    for sql in &ops[..WARM_UP as usize] {
        db.execute(sql).expect("warm-up INSERT");
    }
    let pages_before = db.page_count();
    let before = ALLOCS.with(Cell::get);
    for sql in &ops[WARM_UP as usize..] {
        let outcome = db.execute(sql);
        assert!(
            matches!(outcome, Ok(ExecOutcome::Affected(1))),
            "{outcome:?}"
        );
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let grown = u64::from(db.page_count() - pages_before);
    println!("{allocs} allocations over {MEASURED} INSERTs; the file grew by {grown} pages");
    assert!(
        allocs <= 3 * grown,
        "{allocs} allocations over {MEASURED} INSERTs ({:.3} per INSERT), \
         more than three per page the file grew by ({grown})",
        allocs as f64 / MEASURED as f64,
    );
}
