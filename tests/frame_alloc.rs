//! A hostile application frame allocates O(its own length).
//!
//! Replies and operations are decoded before anything vouches for them: a
//! client decodes every replica's reply to match a quorum, and a replica
//! decodes an operation body to declare its effects. So no count or length
//! in a frame may make its decoder reserve more than the bytes it arrived
//! with can hold. Under an allocator that records the largest single
//! request of the test thread, each decode here must stay within
//! `16 × input length + 64` bytes: forged counts at every count site, and
//! every truncation and every one-byte change of every frame in
//! `frames/mod.rs`.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide; the record is per thread, so the harness's own threads do
//! not disturb it.

mod frames;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pbft_core::wire::Enc;

use frames::{for_each_mutation, frames, Codec};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: `alloc` and `dealloc` forward their arguments to `System`
// unchanged, so its contract is this allocator's; the record is a
// const-initialised `Cell` without a destructor, which touching from
// inside the allocator neither allocates nor re-enters. `realloc` and
// `alloc_zeroed` keep their default bodies, which are built from the two
// methods below, so a reallocation records the size it asks for.
unsafe impl GlobalAlloc for Largest {
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
static ALLOCATOR: Largest = Largest;

/// Decode `input` with `codec`: whether the decoder accepted it, and the
/// largest single allocation made meanwhile.
fn decode_measured(codec: Codec, input: &[u8]) -> (bool, usize) {
    LARGEST.with(|c| c.set(0));
    let accepted = codec.decodes(input);
    (accepted, LARGEST.with(Cell::get))
}

/// The most one allocation may reserve while decoding `input`.
fn bound(input: &[u8]) -> usize {
    16 * input.len() + 64
}

/// Each forged frame must be refused within the bound; fails naming every
/// one that is not.
fn assert_refused_within_bound(forged: &[(String, Codec, Vec<u8>)]) {
    let over: Vec<String> = forged
        .iter()
        .filter_map(|(what, codec, frame)| {
            let (accepted, largest) = decode_measured(*codec, frame);
            (accepted || largest > bound(frame)).then(|| {
                format!(
                    "{what}: {} B frame, accepted {accepted}, largest allocation {largest} B \
                     (bound {} B)",
                    frame.len(),
                    bound(frame)
                )
            })
        })
        .collect();
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// The xshard frame header: magic, tag, txid.
fn xshard(tag: u8) -> Enc {
    let mut e = Enc::new();
    e.raw(&pbft_xshard::xshard::XSHARD_MAGIC).u8(tag).u64(1);
    e
}

#[test]
fn forged_counts_are_refused_within_the_bound() {
    const U16: u16 = u16::MAX;
    type Body = fn(&mut Enc);
    // One forged frame per count site, and one per length field of the
    // outcome. Each claims far more than it carries: the xshard frames a
    // `0xFFFF` count right after the txid (after one sub-op's count for
    // the keys), the outcome a count at its cap or a `u32::MAX` length.
    let sites: [(&str, Codec, u8, Body); 11] = [
        ("prepare sub-ops", Codec::XMsg, 1, |e| {
            e.raw(&U16.to_be_bytes());
        }),
        ("atomic-batch sub-ops", Codec::XMsg, 7, |e| {
            e.raw(&U16.to_be_bytes());
        }),
        ("keys per sub-op", Codec::XMsg, 1, |e| {
            e.raw(&1u16.to_be_bytes()).raw(&U16.to_be_bytes());
        }),
        ("range-install chunks", Codec::XMsg, 9, |e| {
            e.raw(&U16.to_be_bytes());
        }),
        ("keyed-op keys", Codec::XMsg, 10, |e| {
            e.raw(&U16.to_be_bytes());
        }),
        ("committed replies", Codec::XReply, 3, |e| {
            e.raw(&U16.to_be_bytes());
        }),
        ("outcome columns", Codec::Outcome, 2, |e| {
            e.u32(10_000);
        }),
        ("outcome rows", Codec::Outcome, 2, |e| {
            e.u32(0).u32(10_000_000);
        }),
        ("outcome column length", Codec::Outcome, 2, |e| {
            e.u32(1).u32(u32::MAX);
        }),
        ("outcome row length", Codec::Outcome, 2, |e| {
            e.u32(0).u32(1).u32(u32::MAX);
        }),
        ("certify participants", Codec::VoteOp, 6, |e| {
            e.u64(2).u8(u8::MAX);
        }),
    ];
    let forged: Vec<(String, Codec, Vec<u8>)> = sites
        .into_iter()
        .map(|(site, codec, tag, body)| {
            let mut e = match codec {
                Codec::XMsg | Codec::XReply => xshard(tag),
                _ => {
                    let mut e = Enc::new();
                    e.u8(tag);
                    e
                }
            };
            body(&mut e);
            let frame = e.into_bytes();
            assert!(frame.len() <= 17, "{site}: the forgery is tiny");
            (site.to_string(), codec, frame)
        })
        .collect();
    assert_refused_within_bound(&forged);
}

#[test]
fn every_truncation_and_byte_change_stays_within_the_bound() {
    for frame in frames() {
        let check = |input: &[u8]| {
            let (accepted, largest) = decode_measured(frame.codec, input);
            assert!(
                largest <= bound(input),
                "{}: a {} B input allocated {largest} B at once (bound {} B): {input:02x?}",
                frame.name,
                input.len(),
                bound(input)
            );
            accepted
        };
        assert!(check(&frame.bytes), "{}: the frame decodes", frame.name);
        for_each_mutation(&frame.bytes, |input| {
            check(input);
        });
    }
}
