//! A kept-shape INSERT must not allocate per token or per literal.
//!
//! wallbench's §4.2 operation — one row with a key, a value and the
//! primary's agreed `now()` / `random()` — runs through
//! `SqlApp::execute` over the replicated state region, under an allocator
//! that counts every allocation the test thread asks for. After a warm-up
//! that keeps the statement's shape, the tail of the table and the page
//! cache, the allocations of the measured INSERTs are pinned per INSERT:
//! the reply, and the pages the database grows by. The row, its values
//! and its encoding are evaluated into buffers the database keeps. The text is
//! lexed into the shape cache's reused buffer and its literals into the
//! database's reused bind slots, so neither adds anything; before they
//! were, and before an INSERT stopped collecting its column indices and
//! sized its encoding exactly, the same INSERT made 18.4 allocations.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the counter is per thread, so the harness's own threads
//! do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minisql::JournalMode;
use pbft_core::{App, ClientId, NonDet};
use pbft_sql::{decode_outcome, sql_state, CostProfile, SqlApp, WireOutcome};

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

/// wallbench's SQL schema and application partition (~4 MiB).
const SCHEMA: &str =
    "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";
const APP_PAGES: usize = 1020;

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 2_000;

/// Allocations per measured INSERT, ×10, in the test and release builds
/// alike: 1.05 — the reply (one allocation: it is sized for its tag and
/// count) and, once a leaf fills, the page the database grows by. A change
/// that moves the number says so here: 3.37 before an append to a full
/// leaf opened a leaf of its own instead of parsing the full one into a
/// `Node` (a vector per cell) and cutting it in two; 8.37 before the
/// database kept the row, its two text values and its encoding in buffers
/// of its own and the pager kept its dirty set's; 8.42 before the pager
/// shared clean pages with the region and copied a changed page into a
/// buffer the region released.
const ALLOCS_PER_INSERT_X10: std::ops::RangeInclusive<u64> = 10..=11;

/// wallbench's `sql_insert_op` for client 0 of seed 1.
fn op(seq: u64) -> Vec<u8> {
    format!(
        "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-1-0-{seq}', 'vote-{:x}', now(), random())",
        seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
    .into_bytes()
}

#[test]
fn a_kept_shape_insert_allocates_within_its_band() {
    let mut app = SqlApp::open(
        sql_state(APP_PAGES),
        JournalMode::Rollback,
        CostProfile::default(),
        Some(SCHEMA),
    )
    .expect("the schema fits the state region");
    let ops: Vec<Vec<u8>> = (0..WARM_UP + MEASURED).map(op).collect();
    let nondet = |seq: u64| NonDet {
        timestamp_ns: 1_000 + seq,
        random: seq,
    };
    let affected = |reply: &[u8]| decode_outcome(reply) == Some(WireOutcome::Affected(1));
    for (seq, op) in (0..).zip(&ops[..WARM_UP as usize]) {
        let (reply, _) = app.execute(ClientId(1), op, &nondet(seq), false);
        assert!(affected(&reply), "warm-up INSERT {seq} failed");
    }

    let mut replies = Vec::with_capacity(MEASURED as usize);
    let before = ALLOCS.with(Cell::get);
    for (seq, op) in (WARM_UP..).zip(&ops[WARM_UP as usize..]) {
        replies.push(app.execute(ClientId(1), op, &nondet(seq), false).0);
    }
    let allocs = ALLOCS.with(Cell::get) - before;

    assert!(
        replies.iter().all(|r| affected(r)),
        "a measured INSERT failed"
    );
    let per_insert_x10 = allocs * 10 / MEASURED;
    assert!(
        ALLOCS_PER_INSERT_X10.contains(&per_insert_x10),
        "{allocs} allocations over {MEASURED} INSERTs: {:.2} per INSERT, outside {:.1}..={:.1}",
        allocs as f64 / MEASURED as f64,
        *ALLOCS_PER_INSERT_X10.start() as f64 / 10.0,
        *ALLOCS_PER_INSERT_X10.end() as f64 / 10.0,
    );
}
