//! Hashing pages early changes when a page is hashed, never what a refresh
//! produces: a region that is asked to `hash_settled` at arbitrary moments
//! and one that never is, driven by the same writes, agree on every root,
//! every tree node, every snapshot byte and every transferred page. And the
//! batched Merkle fold is the per-leaf update done once per ancestor.
//!
//! A state transfer hashes each page once and folds the tree once, and
//! builds the tree the per-page path (hash the page, recompute its path to
//! the root) builds, whatever order, repeats and strays the responses come
//! in; it resumes after a crash without fetching a page twice; forged
//! responses neither panic it, nor install a page, nor lose a request; and
//! whatever is lost, repeated or forged, at most `PAGES_IN_FLIGHT` pages are
//! asked and unanswered, and a retry re-asks exactly those.
//!
//! A checkpoint sealed at a boundary and finished in steps of any budget,
//! with the next interval's writes and every other call interleaved, is the
//! checkpoint a synchronous refresh and snapshot took at the seal.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use pbft_crypto::Digest;
use pbft_state::{
    serve_fetch, FetchRequest, FetchResponse, Fetcher, MerkleTree, PagedState, Snapshot,
    FOLDS_PER_PAGE_HASH, PAGES_IN_FLIGHT, PAGE_SIZE,
};
use propcheck::Gen;

/// Pages in the regions under test: not a power of two, so the tree has a
/// padded tail, and more than one chunk of page table and of leaves.
const PAGES: usize = 70;

/// Transfer `snap` into a copy of `from`; returns the pages moved, in order.
fn fetch(from: &PagedState, snap: &Snapshot) -> Vec<(u64, Option<Arc<Vec<u8>>>)> {
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
                        let data = g.bool().then(|| Arc::new(vec![g.u8(); PAGE_SIZE]));
                        let digest = page_digest(data.as_deref().map(Vec::as_slice));
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

/// Same sequence number, root, tree and bytes.
fn assert_same_snapshot(a: &Snapshot, b: &Snapshot) {
    assert_eq!((a.seq, a.root), (b.seq, b.root));
    assert_eq!(a.tree().root(), a.root);
    assert_same_tree(a.tree(), b.tree());
    for page in 0..PAGES as u64 {
        assert_eq!(a.page(page), b.page(page), "snapshot page {page}");
    }
}

#[test]
fn a_checkpoint_finished_in_steps_is_the_one_taken_at_the_seal() {
    propcheck::check(
        "a_checkpoint_finished_in_steps_is_the_one_taken_at_the_seal",
        128,
        |g| {
            let blank = {
                let mut st = PagedState::new(PAGES);
                st.refresh_digest();
                st
            };
            // `sync` refreshes and snapshots at each seal; `stepped` seals
            // and is finished in steps of random budgets while both go on.
            let mut sync = blank.clone();
            let mut stepped = blank.clone();
            // Per seal: the synchronous checkpoint, and the stepped one
            // once it is handed out.
            let mut taken: Vec<(Snapshot, Option<Snapshot>)> = Vec::new();
            let hand_out = |snap: Snapshot, taken: &mut Vec<(Snapshot, Option<Snapshot>)>| {
                let slot = &mut taken[snap.seq as usize];
                assert!(slot.1.is_none(), "checkpoint {} handed out twice", snap.seq);
                assert_same_snapshot(&slot.0, &snap);
                slot.1 = Some(snap);
            };
            let page_at = |g: &mut Gen| {
                if g.choice(4) == 0 {
                    g.u64_in(0..PAGES as u64)
                } else {
                    60 + g.u64_in(0..10)
                }
            };
            for _ in 0..g.usize_in(1..80) {
                match g.choice(12) {
                    0..=3 => {
                        let off = page_at(g) * PAGE_SIZE as u64 + g.u64_in(0..PAGE_SIZE as u64 - 8);
                        let data = g.bytes(1..8);
                        for st in [&mut sync, &mut stepped] {
                            st.modify(off, data.len()).expect("modify");
                            st.write(off, &data).expect("write");
                        }
                    }
                    4 => {
                        // A bare write is legal iff the page was notified in
                        // the interval, and a seal ends the interval as a
                        // refresh does.
                        let off = page_at(g) * PAGE_SIZE as u64;
                        let byte = [g.u8()];
                        assert_eq!(sync.write(off, &byte), stepped.write(off, &byte));
                    }
                    5 => {
                        let page = page_at(g);
                        let data = g.bool().then(|| Arc::new(vec![g.u8(); PAGE_SIZE]));
                        let digest = page_digest(data.as_deref().map(Vec::as_slice));
                        sync.install_page(page, data.clone(), digest)
                            .expect("install");
                        stepped.install_page(page, data, digest).expect("install");
                    }
                    6 if !taken.is_empty() => {
                        // Each side restores its own copy of a checkpoint.
                        let (a, b) = &taken[g.index(taken.len())];
                        sync.restore(a).expect("restore");
                        stepped.restore(b.as_ref().unwrap_or(a)).expect("restore");
                    }
                    7 => {
                        assert_eq!(sync.refresh_digest(), stepped.refresh_digest());
                    }
                    8 => {
                        // A snapshot mid-job records the root the job will
                        // finish, worked out on a copy.
                        let work = stepped.root_work();
                        let (a, b) = (sync.snapshot(99), stepped.snapshot(99));
                        assert_eq!(stepped.root_work(), work, "a snapshot does no root work");
                        assert_eq!(a.root, b.root);
                        assert_same_tree(a.tree(), b.tree());
                    }
                    9 => {
                        let limit = g.usize_in(0..6);
                        assert!(stepped.hash_settled(limit) <= limit as u64);
                    }
                    _ => {
                        // Seal the next boundary, handing out the previous
                        // checkpoint first if it is still out.
                        if stepped.sealed_seq().is_some() {
                            let snap = stepped.checkpoint_step(usize::MAX).expect("finished");
                            hand_out(snap, &mut taken);
                        }
                        let seq = taken.len() as u64;
                        sync.refresh_digest();
                        taken.push((sync.snapshot(seq), None));
                        stepped.seal(seq);
                        assert_eq!(stepped.sealed_seq(), Some(seq));
                    }
                }
                if stepped.sealed_seq().is_some() && g.bool() {
                    let pages = g.usize_in(0..3);
                    let before = stepped.root_work();
                    let snap = stepped.checkpoint_step(pages);
                    let after = stepped.root_work();
                    let hashed = (after.pages_hashed - before.pages_hashed) as usize;
                    let folded = (after.nodes_folded - before.nodes_folded) as usize;
                    assert!(
                        hashed * FOLDS_PER_PAGE_HASH + folded <= pages * FOLDS_PER_PAGE_HASH,
                        "a step of {pages} hashed {hashed} pages and folded {folded} nodes"
                    );
                    if let Some(snap) = snap {
                        hand_out(snap, &mut taken);
                    }
                }
                if stepped.sealed_seq().is_none() {
                    assert_same_tree(sync.tree(), stepped.tree());
                }
            }
            if let Some(snap) = stepped.checkpoint_step(usize::MAX) {
                hand_out(snap, &mut taken);
            }
            assert!(
                taken.iter().all(|(_, s)| s.is_some()),
                "every seal handed out"
            );
            assert_eq!(sync.refresh_digest(), stepped.refresh_digest());
            assert_same_tree(sync.tree(), stepped.tree());
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
                    assert_eq!(
                        digest,
                        page_digest(data.as_deref().map(Vec::as_slice)),
                        "page {idx}"
                    );
                    per_page.update_leaf(
                        idx as usize,
                        page_digest(data.as_deref().map(Vec::as_slice)),
                    );
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
                if !fits
                    || tree.node(0, *index) != Some(page_digest(data.as_deref().map(Vec::as_slice)))
                {
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
            let mut data = data.map_or_else(|| vec![0; PAGE_SIZE], Arc::unwrap_or_clone);
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
                data: Some(Arc::new(data)),
            }
        }
        (6, FetchResponse::Page { index, data }) => {
            // A flipped byte, or the zero page.
            let data = data.filter(|_| g.bool()).map(|mut d| {
                Arc::make_mut(&mut d)[g.index(PAGE_SIZE)] ^= 1 + g.u8_in(0..255);
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
                    assert_eq!(
                        page_digest(data.as_deref().map(Vec::as_slice)),
                        digest,
                        "page {idx}"
                    );
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

/// Pages among `reqs`.
fn pages(reqs: &[FetchRequest]) -> usize {
    reqs.iter()
        .filter(|r| matches!(r, FetchRequest::Page { .. }))
        .count()
}

#[test]
fn the_window_bounds_pages_in_flight_and_a_retry_reasks_exactly_them() {
    propcheck::check(
        "the_window_bounds_pages_in_flight_and_a_retry_reasks_exactly_them",
        128,
        |g| {
            let (target, mut dst) = divergent_pair(g);
            if g.bool() {
                // A blank restart: every page the target wrote diverges.
                dst = PagedState::new(PAGES);
                dst.refresh_digest();
            }
            let snap = target.snapshot(1);
            let divergent: BTreeSet<u64> = (0..PAGES as u64)
                .filter(|&p| dst.tree().node(0, p) != snap.tree().node(0, p))
                .collect();
            let (mut fetcher, reqs) = Fetcher::new(dst.tree(), snap.root);
            let mut asked = keys(&reqs);
            // Answers on the wire, delivered in any order, some never.
            let mut wire: Vec<FetchResponse> = reqs.iter().map(|r| serve_fetch(&snap, r)).collect();
            let mut installed = BTreeSet::new();
            let mut most_in_flight = 0;
            let mut step = |fetcher: &mut Fetcher,
                            dst: &mut PagedState,
                            asked: &mut BTreeSet<(u32, u64)>,
                            wire: &mut Vec<FetchResponse>,
                            resp: FetchResponse| {
                let model = answers(&snap, asked, &resp);
                match (fetcher.on_response(dst.tree(), resp), model) {
                    (Ok(next), Ok(answered)) => {
                        asked.retain(|k| !answered.contains(k));
                        let next_keys = keys(&next);
                        assert!(asked.is_disjoint(&next_keys), "a node asked twice");
                        asked.extend(next_keys);
                        wire.extend(next.iter().map(|r| serve_fetch(&snap, r)));
                    }
                    (Err(_), Err(())) => {}
                    (got, model) => panic!("fetcher {got:?}, model {model:?}"),
                }
                for (idx, data, digest) in fetcher.take_ready() {
                    assert!(divergent.contains(&idx), "page {idx} did not diverge");
                    assert!(installed.insert(idx), "page {idx} installed twice");
                    dst.install_page(idx, data, digest).expect("page-sized");
                }
                let outstanding = fetcher.outstanding();
                assert_eq!(keys(&outstanding), *asked, "outstanding is the asked set");
                let in_flight = pages(&outstanding);
                assert!(
                    in_flight <= PAGES_IN_FLIGHT,
                    "{in_flight} pages asked and unanswered"
                );
                most_in_flight = most_in_flight.max(in_flight);
            };
            for _ in 0..g.usize_in(0..400) {
                if fetcher.is_complete() {
                    break;
                }
                match g.choice(10) {
                    0 if !wire.is_empty() => {
                        // A lost answer.
                        wire.swap_remove(g.index(wire.len()));
                    }
                    1 if !wire.is_empty() => {
                        // A repeated answer.
                        let again = wire[g.index(wire.len())].clone();
                        wire.push(again);
                    }
                    2 => {
                        // The retry timer: exactly the asked set goes out again.
                        let outstanding = fetcher.outstanding();
                        assert_eq!(keys(&outstanding), asked, "a retry re-asks the asked set");
                        assert!(pages(&outstanding) <= PAGES_IN_FLIGHT);
                        wire.extend(outstanding.iter().map(|r| serve_fetch(&snap, r)));
                    }
                    3 => step(
                        &mut fetcher,
                        &mut dst,
                        &mut asked,
                        &mut wire,
                        FetchResponse::Unavailable,
                    ),
                    4 => {
                        // A forged page: a flipped byte, a zero page or the
                        // wrong length, for a page asked or not.
                        let index = match asked.iter().find(|k| k.0 == 0) {
                            Some(&(_, i)) if g.bool() => i,
                            _ => g.u64_in(0..PAGES as u64),
                        };
                        let resp = serve_fetch(&snap, &FetchRequest::Page { index });
                        let forged = forge_page(g, resp);
                        step(&mut fetcher, &mut dst, &mut asked, &mut wire, forged);
                    }
                    _ if !wire.is_empty() => {
                        let resp = wire.swap_remove(g.index(wire.len()));
                        step(&mut fetcher, &mut dst, &mut asked, &mut wire, resp);
                    }
                    _ => {}
                }
            }
            // Nothing more is lost: retries and in-order delivery finish the
            // walk, one wave at a time.
            for _ in 0..=PAGES + 16 {
                if fetcher.is_complete() {
                    break;
                }
                wire.extend(fetcher.outstanding().iter().map(|r| serve_fetch(&snap, r)));
                while let Some(resp) = wire.pop() {
                    step(&mut fetcher, &mut dst, &mut asked, &mut wire, resp);
                }
            }
            assert!(fetcher.is_complete(), "the walk converges");
            assert!(asked.is_empty());
            assert_eq!(installed, divergent, "every divergent page, once");
            // The leaf level's parents arrive in one answer, so the window
            // fills once.
            assert_eq!(most_in_flight, divergent.len().min(PAGES_IN_FLIGHT));
            dst.fold_installed();
            assert_eq!(dst.tree().root(), snap.root);
            assert_same_bytes(&dst, &snap);
        },
    );
}

/// `resp` (a page answer) made wrong: a flipped byte, the zero page for a
/// written one or the other way round, or a page of the wrong length.
fn forge_page(g: &mut Gen, resp: FetchResponse) -> FetchResponse {
    let FetchResponse::Page { index, data } = resp else {
        return resp;
    };
    let data = match (g.choice(3), data) {
        (0, Some(mut d)) => {
            Arc::make_mut(&mut d)[g.index(PAGE_SIZE)] ^= 1 + g.u8_in(0..255);
            Some(d)
        }
        (1, Some(_)) => None,
        (0 | 1, None) => Some(Arc::new(vec![1 + g.u8_in(0..255); PAGE_SIZE])),
        (_, d) => {
            let mut d = d.map_or_else(|| vec![0; PAGE_SIZE], Arc::unwrap_or_clone);
            d.resize(PAGE_SIZE + 1, 0);
            Some(Arc::new(d))
        }
    };
    FetchResponse::Page { index, data }
}
