//! Hashing pages early changes when a page is hashed, never what a refresh
//! produces: a region that is asked to `hash_settled` at arbitrary moments
//! and one that never is, driven by the same writes, agree on every root,
//! every tree node, every snapshot byte and every transferred page. And the
//! batched Merkle fold is the per-leaf update done once per ancestor.

use pbft_crypto::Digest;
use pbft_state::{serve_fetch, Fetcher, MerkleTree, PagedState, Snapshot, PAGE_SIZE};
use propcheck::Gen;

/// Pages in the regions under test: not a power of two, so the tree has a
/// padded tail, and more than one chunk of page table and of leaves.
const PAGES: usize = 70;

/// Transfer `snap` into a copy of `from`; returns the pages moved, in order.
fn fetch(from: &PagedState, snap: &Snapshot) -> Vec<(u64, Option<Vec<u8>>)> {
    let mut dst = from.clone();
    let (mut fetcher, mut reqs) = Fetcher::new(dst.tree(), snap.root);
    let mut moved = Vec::new();
    while !reqs.is_empty() {
        let mut next = Vec::new();
        for r in &reqs {
            let resp = serve_fetch(snap, r);
            next.extend(fetcher.on_response(dst.tree(), resp).expect("honest peer"));
            for (idx, data) in fetcher.take_ready() {
                dst.install_page(idx, data.clone()).expect("install");
                moved.push((idx, data));
            }
        }
        reqs = next;
    }
    assert!(fetcher.is_complete());
    assert_eq!(dst.tree().root(), snap.root);
    moved
}

fn assert_same_tree(a: &MerkleTree, b: &MerkleTree) {
    assert_eq!(a.height(), b.height());
    for level in 0..a.height() {
        let mut index = 0;
        while let Some(node) = a.node(level, index) {
            assert_eq!(Some(node), b.node(level, index), "node ({level}, {index})");
            index += 1;
        }
        assert_eq!(b.node(level, index), None);
    }
}

#[test]
fn hashing_early_changes_no_root_snapshot_or_transfer() {
    propcheck::check(
        "hashing_early_changes_no_root_snapshot_or_transfer",
        96,
        |g| {
            let blank = {
                let mut st = PagedState::new(PAGES);
                st.refresh_digest();
                st
            };
            // `plain` is never asked to hash early; `early` is, between steps.
            let mut plain = blank.clone();
            let mut early = blank.clone();
            let mut snaps: Vec<(Snapshot, Snapshot)> = Vec::new();
            let page_at = |g: &mut Gen| {
                // Mostly a hot neighbourhood, sometimes anywhere (the last page
                // sits beside the padding).
                if g.choice(4) == 0 {
                    g.u64_in(0..PAGES as u64)
                } else {
                    60 + g.u64_in(0..10)
                }
            };
            for _ in 0..g.usize_in(1..60) {
                match g.choice(10) {
                    0..=4 => {
                        let off = page_at(g) * PAGE_SIZE as u64 + g.u64_in(0..PAGE_SIZE as u64 - 8);
                        let data = g.bytes(1..8);
                        for st in [&mut plain, &mut early] {
                            st.modify(off, data.len()).expect("modify");
                            st.write(off, &data).expect("write");
                        }
                    }
                    5 => {
                        // A bare write: legal iff the page was notified earlier
                        // in the interval, early hash or not.
                        let off = page_at(g) * PAGE_SIZE as u64;
                        let byte = [g.u8()];
                        assert_eq!(plain.write(off, &byte), early.write(off, &byte));
                    }
                    6 => {
                        let page = page_at(g);
                        let data = g.bool().then(|| vec![g.u8(); PAGE_SIZE]);
                        plain.install_page(page, data.clone()).expect("install");
                        early.install_page(page, data).expect("install");
                    }
                    7 if !snaps.is_empty() => {
                        let (p, e) = &snaps[g.index(snaps.len())];
                        plain.restore(p).expect("restore");
                        early.restore(e).expect("restore");
                    }
                    _ => {
                        assert_eq!(plain.dirty_pages(), early.dirty_pages());
                        assert_eq!(plain.refresh_digest(), early.refresh_digest());
                        assert!(early.last_refresh_hashed() <= plain.last_refresh_hashed());
                        assert_same_tree(plain.tree(), early.tree());
                        let seq = snaps.len() as u64;
                        let (p, e) = (plain.snapshot(seq), early.snapshot(seq));
                        assert_eq!(p.root, e.root);
                        for page in 0..PAGES as u64 {
                            assert_eq!(p.page(page), e.page(page), "snapshot page {page}");
                        }
                        assert_eq!(fetch(&blank, &p), fetch(&blank, &e));
                        assert!(
                            fetch(&plain, &e).is_empty(),
                            "equal regions transfer nothing"
                        );
                        snaps.push((p, e));
                    }
                }
                assert_same_tree(plain.tree(), early.tree());
                if g.bool() {
                    let limit = g.usize_in(0..6);
                    assert!(early.hash_settled(limit) <= limit as u64);
                }
            }
            // Older snapshots were not disturbed by what was written after them.
            for (p, e) in &snaps {
                assert_eq!(p.tree().root(), p.root);
                assert_same_tree(p.tree(), e.tree());
            }
        },
    );
}

#[test]
fn batched_fold_equals_repeated_update_leaf() {
    propcheck::check("batched_fold_equals_repeated_update_leaf", 128, |g| {
        let n = g.usize_in(1..200);
        let leaves = (0..n).map(|i| Digest::of(&(i as u64).to_be_bytes()));
        let mut one_by_one = MerkleTree::build(leaves.collect());
        let mut batched = one_by_one.clone();
        for _ in 0..g.usize_in(1..4) {
            // Anything from a single leaf to most of the tree; the last
            // real leaf (whose sibling may be padding) is often in the set.
            let mut set = g.btree_map(0..(n + 1).min(48), |g| g.index(n), |g| g.u64());
            if g.bool() {
                set.insert(n - 1, g.u64());
            }
            let update: Vec<(usize, Digest)> = set
                .into_iter()
                .map(|(i, v)| (i, Digest::of(&v.to_be_bytes())))
                .collect();
            for &(i, d) in &update {
                one_by_one.update_leaf(i, d);
            }
            batched.update_leaves(&update);
            assert_eq!(batched, one_by_one);
        }
    });
}
