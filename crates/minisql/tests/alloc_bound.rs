//! `decode_row` must not size an allocation from a count it read out of the
//! record: rows reach a replica by state transfer, and a two-byte payload
//! claiming 65 535 values used to reserve 2 MiB before its first field
//! failed to parse.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the high-water mark is per thread, so the harness's own
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minisql::decode_row;

thread_local! {
    /// Largest single request since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: `alloc` and `dealloc` forward their arguments to `System`
// unchanged, so its contract is this allocator's; the counter is a
// const-initialised `Cell` without a destructor, which touching it from
// inside the allocator neither allocates nor re-enters. `realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc` below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread past its thread-local teardown is not one under test.
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
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

/// Largest single allocation `decode_row(payload)` asks for.
fn largest_request(payload: &[u8]) -> usize {
    LARGEST.with(|c| c.set(0));
    let _ = std::hint::black_box(decode_row(std::hint::black_box(payload)));
    LARGEST.with(Cell::get)
}

fn assert_bounded(payload: &[u8]) {
    let asked = largest_request(payload);
    assert!(
        asked <= 64 * payload.len(),
        "decoding {} bytes ({:02x?}...) asked the allocator for {asked} at once",
        payload.len(),
        &payload[..payload.len().min(8)],
    );
}

#[test]
fn decode_row_allocates_by_the_bytes_it_was_given() {
    assert_bounded(&[0xff, 0xff]);
    propcheck::check(
        "decode_row_allocates_by_the_bytes_it_was_given",
        1000,
        |g| {
            let mut payload = g.bytes(2..64);
            // Half of them claim the largest count the header can carry.
            if g.bool() {
                payload[..2].copy_from_slice(&[0xff, 0xff]);
            }
            assert_bounded(&payload);
        },
    );
}
