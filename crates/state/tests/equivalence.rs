//! Hashing pages early changes when a page is hashed, never what a refresh
//! produces: a region that is asked to `hash_settled` at arbitrary moments
//! and one that never is, driven by the same writes, agree on every root,
//! every tree node, every snapshot byte and every transferred page. And the
//! batched Merkle fold is the per-leaf update done once per ancestor.
//!
//! A state transfer hashes each page once and folds the tree once, and
//! builds the tree the per-page path (hash the page, recompute its path to
//! the root) builds, whatever order, repeats and strays the responses come
//! in; it resumes after a crash without fetching a page twice; and forged
//! responses neither panic it, nor install a page, nor lose a request.

use std::collections::{BTreeSet, VecDeque};

use pbft_crypto::Digest;
use pbft_state::{
    serve_fetch, FetchRequest, FetchResponse, Fetcher, MerkleTree, PagedState, Snapshot, PAGE_SIZE,
};
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
            for (idx, data, digest) in fetcher.take_ready() {
                dst.install_page(idx, data.clone(), digest)
                    .expect("install");
                moved.push((idx, data));
            }
        }
        reqs = next;
    }
    assert!(fetcher.is_complete());
    dst.fold_installed();
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
                        let digest = page_digest(data.as_deref());
                        plain
                            .install_page(page, data.clone(), digest)
                            .expect("install");
                        early.install_page(page, data, digest).expect("install");
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

/// The digest of a page as a transfer carries it (`None` = zero page).
fn page_digest(data: Option<&[u8]>) -> Digest {
    Digest::of(data.unwrap_or(&[0u8; PAGE_SIZE]))
}

/// Two regions diverging from a common base: pages only one side wrote,
/// pages both wrote, pages the target has zero and, often, the last real
/// leaf before the padding.
fn divergent_pair(g: &mut Gen) -> (PagedState, PagedState) {
    fn scribble(g: &mut Gen, st: &mut PagedState, writes: usize) {
        for _ in 0..writes {
            let page = if g.choice(5) == 0 {
                PAGES as u64 - 1
            } else {
                g.u64_in(0..PAGES as u64)
            };
            let off = page * PAGE_SIZE as u64 + g.u64_in(0..PAGE_SIZE as u64 - 8);
            let data = g.bytes(1..8);
            st.modify(off, data.len()).expect("modify");
            st.write(off, &data).expect("write");
        }
        st.refresh_digest();
    }
    let mut base = PagedState::new(PAGES);
    let n = g.usize_in(0..12);
    scribble(g, &mut base, n);
    let (mut target, mut dst) = (base.clone(), base);
    let n = g.usize_in(1..24);
    scribble(g, &mut target, n);
    let n = g.usize_in(0..12);
    scribble(g, &mut dst, n);
    (target, dst)
}

/// Every byte of `st` equals the snapshot's (a zero page may be held either
/// way).
fn assert_same_bytes(st: &PagedState, snap: &Snapshot) {
    let zero = [0u8; PAGE_SIZE];
    for p in 0..PAGES as u64 {
        assert_eq!(
            st.page(p).unwrap_or(&zero),
            snap.page(p).unwrap_or(&zero),
            "page {p}"
        );
    }
}

#[test]
fn a_transfer_in_any_order_builds_the_tree_the_per_page_path_builds() {
    propcheck::check(
        "a_transfer_in_any_order_builds_the_tree_the_per_page_path_builds",
        96,
        |g| {
            let (target, mut dst) = divergent_pair(g);
            let snap = target.snapshot(1);
            // The per-page path: hash each installed page and recompute its
            // path to the root at once.
            let mut per_page = dst.tree().clone();
            let (mut fetcher, reqs) = Fetcher::new(dst.tree(), snap.root);
            let mut in_flight: Vec<FetchResponse> =
                reqs.iter().map(|r| serve_fetch(&snap, r)).collect();
            while !in_flight.is_empty() {
                let resp = in_flight.swap_remove(g.index(in_flight.len()));
                match g.choice(6) {
                    0 => in_flight.push(resp.clone()),
                    1 => {
                        // An honest answer to a request nobody made.
                        let stray = if g.bool() {
                            FetchRequest::Page {
                                index: g.u64_in(0..PAGES as u64),
                            }
                        } else {
                            let level = 1 + g.u32() % (snap.tree().height() - 1);
                            FetchRequest::Meta {
                                level,
                                indices: g.vec(1..4, |g| g.u64_in(0..128 >> level)),
                            }
                        };
                        in_flight.push(serve_fetch(&snap, &stray));
                    }
                    _ => {}
                }
                let next = fetcher.on_response(dst.tree(), resp).expect("honest peer");
                in_flight.extend(next.iter().map(|r| serve_fetch(&snap, r)));
                for (idx, data, digest) in fetcher.take_ready() {
                    assert_eq!(digest, page_digest(data.as_deref()), "page {idx}");
                    per_page.update_leaf(idx as usize, page_digest(data.as_deref()));
                    dst.install_page(idx, data, digest).expect("install");
                }
            }
            assert!(fetcher.is_complete());
            dst.fold_installed();
            let rebuilt = MerkleTree::build(
                (0..PAGES as u64)
                    .map(|p| page_digest(snap.page(p)))
                    .collect(),
            );
            assert_same_tree(dst.tree(), &rebuilt);
            assert_same_tree(dst.tree(), &per_page);
            assert_eq!(dst.tree().root(), snap.root);
            assert_same_bytes(&dst, &snap);
        },
    );
}

#[test]
fn an_interrupted_transfer_resumes_without_refetching() {
    propcheck::check(
        "an_interrupted_transfer_resumes_without_refetching",
        64,
        |g| {
            let (target, mut dst) = divergent_pair(g);
            let snap = target.snapshot(1);
            let divergent = (0..PAGES as u64)
                .filter(|&p| dst.tree().node(0, p) != snap.tree().node(0, p))
                .count();
            if divergent < 2 {
                return;
            }
            let k = g.usize_in(1..divergent);
            // The first walk installs k pages, then the replica crashes: the
            // fetcher is gone, the region (its disk) is not.
            let mut installed = BTreeSet::new();
            let (mut fetcher, reqs) = Fetcher::new(dst.tree(), snap.root);
            let mut queue: VecDeque<_> = reqs.into();
            while installed.len() < k {
                let r = queue.pop_front().expect("walk not finished");
                queue.extend(
                    fetcher
                        .on_response(dst.tree(), serve_fetch(&snap, &r))
                        .expect("honest"),
                );
                for (idx, data, digest) in fetcher.take_ready() {
                    if installed.len() < k {
                        dst.install_page(idx, data, digest).expect("install");
                        installed.insert(idx);
                    }
                }
            }
            drop(fetcher);
            dst.refresh_digest();
            let (mut fetcher, reqs) = Fetcher::new(dst.tree(), snap.root);
            let mut queue: VecDeque<_> = reqs.into();
            while let Some(r) = queue.pop_front() {
                if let FetchRequest::Page { index } = r {
                    assert!(!installed.contains(&index), "page {index} fetched twice");
                }
                queue.extend(
                    fetcher
                        .on_response(dst.tree(), serve_fetch(&snap, &r))
                        .expect("honest"),
                );
                for (idx, data, digest) in fetcher.take_ready() {
                    dst.install_page(idx, data, digest).expect("install");
                }
            }
            assert!(fetcher.is_complete());
            assert_eq!(dst.refresh_digest(), snap.root);
            assert_same_bytes(&dst, &snap);
        },
    );
}

/// The `(level, index)` each request asks for; level 0 are pages.
fn keys(reqs: &[FetchRequest]) -> BTreeSet<(u32, u64)> {
    let mut out = BTreeSet::new();
    for r in reqs {
        match r {
            FetchRequest::Meta { level, indices } => {
                out.extend(indices.iter().map(|&i| (*level, i)));
            }
            FetchRequest::Page { index } => {
                out.insert((0, *index));
            }
        }
    }
    out
}

/// What a fetcher with `asked` outstanding must make of `resp`: the keys it
/// answers, or `Err` when it names an outstanding node or page and does not
/// hash to the target's digest for it.
fn answers(
    snap: &Snapshot,
    asked: &BTreeSet<(u32, u64)>,
    resp: &FetchResponse,
) -> Result<BTreeSet<(u32, u64)>, ()> {
    let tree = snap.tree();
    let mut answered = BTreeSet::new();
    match resp {
        FetchResponse::Meta { level: 0, .. } | FetchResponse::Unavailable => {}
        FetchResponse::Meta { level, nodes } => {
            for &(index, left, right) in nodes {
                if asked.contains(&(*level, index)) {
                    if tree.children(*level, index) != Some((left, right)) {
                        return Err(());
                    }
                    answered.insert((*level, index));
                }
            }
        }
        FetchResponse::Page { index, data } => {
            if asked.contains(&(0, *index)) {
                let fits = data.as_ref().is_none_or(|d| d.len() == PAGE_SIZE);
                if !fits || tree.node(0, *index) != Some(page_digest(data.as_deref())) {
                    return Err(());
                }
                answered.insert((0, *index));
            }
        }
    }
    Ok(answered)
}

/// A forged or mutated version of the honest answer to `req`.
fn forge(g: &mut Gen, snap: &Snapshot, req: &FetchRequest) -> FetchResponse {
    let honest = serve_fetch(snap, req);
    let lie = |g: &mut Gen| Digest::of(&g.u64().to_be_bytes());
    match (g.choice(9), honest) {
        (0, FetchResponse::Meta { level, nodes }) => FetchResponse::Meta {
            // The wrong level, the leaf level or one past the root.
            level: [level + 1, level - 1, 0, 40][g.index(4)],
            nodes,
        },
        (1, FetchResponse::Meta { level, mut nodes }) => {
            // Nodes never asked for, honest or not.
            let index = g.u64_in(0..128 >> level);
            let (l, r) = snap
                .tree()
                .children(level, index)
                .filter(|_| g.bool())
                .unwrap_or_else(|| (lie(g), lie(g)));
            nodes.insert(g.index(nodes.len() + 1), (index, l, r));
            FetchResponse::Meta { level, nodes }
        }
        (2, FetchResponse::Meta { level, mut nodes }) => {
            // One index twice: a repeat, or a lie after the truth.
            let mut twice = nodes[g.index(nodes.len())];
            if g.bool() {
                twice.2 = lie(g);
            }
            nodes.push(twice);
            FetchResponse::Meta { level, nodes }
        }
        (3, FetchResponse::Meta { level, mut nodes }) => {
            // A truncated list: a partial answer.
            nodes.truncate(g.index(nodes.len()));
            FetchResponse::Meta { level, nodes }
        }
        (4, FetchResponse::Meta { level, mut nodes }) => {
            let i = g.index(nodes.len());
            nodes[i].1 = lie(g);
            FetchResponse::Meta { level, nodes }
        }
        (5, FetchResponse::Page { index, data }) => {
            // A page of the wrong length.
            let mut data = data.unwrap_or_else(|| vec![0; PAGE_SIZE]);
            data.resize(
                if g.bool() {
                    PAGE_SIZE - 1
                } else {
                    PAGE_SIZE + 1
                },
                0,
            );
            FetchResponse::Page {
                index,
                data: Some(data),
            }
        }
        (6, FetchResponse::Page { index, data }) => {
            // A flipped byte, or the zero page.
            let data = data.filter(|_| g.bool()).map(|mut d| {
                d[g.index(PAGE_SIZE)] ^= 1 + g.u8_in(0..255);
                d
            });
            FetchResponse::Page { index, data }
        }
        (7, _) => {
            // A meta for a leaf, or a page nobody asked for.
            let index = g.u64_in(0..PAGES as u64);
            if g.bool() {
                FetchResponse::Meta {
                    level: 0,
                    nodes: vec![(index, lie(g), lie(g))],
                }
            } else {
                serve_fetch(snap, &FetchRequest::Page { index })
            }
        }
        (8, _) => FetchResponse::Unavailable,
        (_, honest) => honest,
    }
}

#[test]
fn forged_responses_change_nothing_and_an_honest_peer_completes() {
    propcheck::check(
        "forged_responses_change_nothing_and_an_honest_peer_completes",
        128,
        |g| {
            let (target, mut dst) = divergent_pair(g);
            let snap = target.snapshot(1);
            let (mut fetcher, reqs) = Fetcher::new(dst.tree(), snap.root);
            let mut asked = keys(&reqs);
            let install = |fetcher: &mut Fetcher, dst: &mut PagedState| {
                for (idx, data, digest) in fetcher.take_ready() {
                    assert_eq!(snap.tree().node(0, idx), Some(digest), "page {idx}");
                    assert_eq!(page_digest(data.as_deref()), digest, "page {idx}");
                    dst.install_page(idx, data, digest).expect("page-sized");
                }
            };
            for _ in 0..g.usize_in(0..48) {
                let outstanding = fetcher.outstanding();
                assert_eq!(keys(&outstanding), asked, "exactly the unanswered rest");
                if outstanding.is_empty() {
                    break;
                }
                let pick = g.index(outstanding.len());
                let resp = forge(g, &snap, &outstanding[pick]);
                let model = answers(&snap, &asked, &resp);
                match (fetcher.on_response(dst.tree(), resp), model) {
                    (Ok(next), Ok(answered)) => {
                        asked.retain(|k| !answered.contains(k));
                        let next = keys(&next);
                        assert!(asked.is_disjoint(&next), "a node asked twice");
                        asked.extend(next);
                    }
                    (Err(_), Err(())) => {}
                    (got, model) => panic!("fetcher {got:?}, model {model:?}"),
                }
                install(&mut fetcher, &mut dst);
            }
            // An honest peer finishes the walk.
            while !fetcher.is_complete() {
                for r in fetcher.outstanding() {
                    fetcher
                        .on_response(dst.tree(), serve_fetch(&snap, &r))
                        .expect("honest peer");
                }
                install(&mut fetcher, &mut dst);
            }
            dst.fold_installed();
            assert_eq!(dst.tree().root(), snap.root);
            assert_same_bytes(&dst, &snap);
        },
    );
}
