//! Tree-walk state transfer.
//!
//! When a replica learns (from a stable checkpoint certificate) that its
//! state digest diverges, it fetches the divergent pages from peers using the
//! "efficient tree walking algorithm" of paper §2.1: starting from the root,
//! compare the children digests reported by an up-to-date peer against the
//! local tree and descend only into differing subtrees; at the leaf level,
//! fetch the differing pages.
//!
//! The walk asks for a whole tree level at a time: one [`FetchRequest::Meta`]
//! names every divergent node of a level, so a transfer costs the tree's
//! height in meta round trips, not its divergent node count. A page is
//! requested as soon as its parent is known, and hashed once, here: the
//! validated digest travels with the page into
//! [`crate::PagedState::install_page`].
//!
//! This module is transport-agnostic: [`Fetcher`] is the requester-side state
//! machine emitting [`FetchRequest`]s and consuming [`FetchResponse`]s;
//! [`serve_fetch`] answers requests from a [`Snapshot`]. `pbft-core` wraps
//! both in protocol messages.

use std::collections::BTreeMap;
use std::fmt;

use pbft_crypto::Digest;

use crate::merkle::{combine, MerkleTree};
use crate::region::{zero_page_digest, PAGE_SIZE};
use crate::snapshot::Snapshot;

/// A state-transfer request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchRequest {
    /// Request the children digests of internal tree nodes of one level.
    Meta {
        /// Tree level (0 = leaves), so this must be ≥ 1.
        level: u32,
        /// Node indices within the level.
        indices: Vec<u64>,
    },
    /// Request the contents of a data page.
    Page {
        /// Page index.
        index: u64,
    },
}

/// A state-transfer response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchResponse {
    /// Children digests of requested nodes of one level.
    Meta {
        /// Echoed level.
        level: u32,
        /// `(index, left child, right child)` per answered node.
        nodes: Vec<(u64, Digest, Digest)>,
    },
    /// A data page (`None` = zero page).
    Page {
        /// Echoed page index.
        index: u64,
        /// Page bytes, exactly one page, or `None` for the zero page.
        data: Option<Vec<u8>>,
    },
    /// The peer could not answer (malformed request or out of range).
    Unavailable,
}

/// Errors from the fetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// A page response did not match the digest the tree walk expects.
    PageDigestMismatch {
        /// Which page failed validation.
        index: u64,
    },
    /// A meta response's children do not hash to the expected node digest.
    MetaDigestMismatch {
        /// Level of the bad node.
        level: u32,
        /// Index of the bad node.
        index: u64,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::PageDigestMismatch { index } => {
                write!(f, "page {index} does not match its advertised digest")
            }
            TransferError::MetaDigestMismatch { level, index } => {
                write!(f, "meta node ({level},{index}) children fail digest check")
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// Requester-side tree-walk state machine.
///
/// The fetcher validates everything it receives against the target root, so
/// a Byzantine peer cannot inject wrong pages — responses that fail digest
/// checks surface as [`TransferError`]s and the caller retries elsewhere. A
/// response that fails changes nothing; one that answers part of a request
/// leaves exactly the rest outstanding ([`Fetcher::outstanding`]).
#[derive(Debug)]
pub struct Fetcher {
    target_root: Digest,
    /// Expected digest of every node asked for and not yet answered, keyed
    /// by `(level, index)`; level 0 holds the pages.
    expected: BTreeMap<(u32, u64), Digest>,
    /// Pages fetched and validated, ready to install.
    ready: Vec<(u64, Option<Vec<u8>>, Digest)>,
}

impl Fetcher {
    /// Start a transfer toward `target_root`. Returns the fetcher and the
    /// initial requests (empty if the local tree already matches).
    pub fn new(local: &MerkleTree, target_root: Digest) -> (Fetcher, Vec<FetchRequest>) {
        let mut f = Fetcher {
            target_root,
            expected: BTreeMap::new(),
            ready: Vec::new(),
        };
        if local.root() != target_root {
            // A single-page state's root *is* the page digest.
            f.expected.insert((local.height() - 1, 0), target_root);
        }
        let reqs = f.outstanding();
        (f, reqs)
    }

    /// The checkpoint root this transfer is converging toward.
    pub fn target_root(&self) -> Digest {
        self.target_root
    }

    /// True when every divergent page has been fetched and validated.
    pub fn is_complete(&self) -> bool {
        self.expected.is_empty()
    }

    /// Drain validated pages for installation into the local region: index,
    /// bytes (`None` = zero page) and the digest the page was validated
    /// against, which [`crate::PagedState::install_page`] takes as its leaf.
    pub fn take_ready(&mut self) -> Vec<(u64, Option<Vec<u8>>, Digest)> {
        std::mem::take(&mut self.ready)
    }

    /// The requests still unanswered — what a retry re-sends: one `Meta`
    /// per level, one `Page` per page.
    pub fn outstanding(&self) -> Vec<FetchRequest> {
        let mut reqs = Vec::new();
        for &(level, index) in self.expected.keys() {
            if level == 0 {
                reqs.push(FetchRequest::Page { index });
                continue;
            }
            if let Some(FetchRequest::Meta { level: l, indices }) = reqs.last_mut() {
                if *l == level {
                    indices.push(index);
                    continue;
                }
            }
            reqs.push(FetchRequest::Meta {
                level,
                indices: vec![index],
            });
        }
        reqs
    }

    /// Consume a response; returns follow-up requests.
    ///
    /// # Errors
    /// Digest-validation failures (Byzantine or corrupted peer data). The
    /// fetcher is then as it was before the response.
    pub fn on_response(
        &mut self,
        local: &MerkleTree,
        resp: FetchResponse,
    ) -> Result<Vec<FetchRequest>, TransferError> {
        match resp {
            // A leaf has no children: a level-0 meta answers nothing asked.
            FetchResponse::Meta { level: 0, .. } | FetchResponse::Unavailable => Ok(Vec::new()),
            FetchResponse::Meta { level, nodes } => {
                // Validate every answered node before acting on any, so a
                // bad node leaves the walk untouched. Unasked nodes (and
                // repeats of answered ones) are ignored.
                for &(index, left, right) in &nodes {
                    if let Some(expect) = self.expected.get(&(level, index)) {
                        if combine(level, index, &left, &right) != *expect {
                            return Err(TransferError::MetaDigestMismatch { level, index });
                        }
                    }
                }
                let child_level = level - 1;
                let mut indices = Vec::new();
                let mut pages = Vec::new();
                for (index, left, right) in nodes {
                    if self.expected.remove(&(level, index)).is_none() {
                        continue;
                    }
                    for (child, digest) in [(2 * index, left), (2 * index + 1, right)] {
                        if local.node(child_level, child) == Some(digest) {
                            continue; // subtree already matches
                        }
                        if child_level > 0 {
                            indices.push(child);
                        } else if (child as usize) < local.leaf_count() {
                            pages.push(FetchRequest::Page { index: child });
                        } else {
                            // Padding leaves can never diverge for
                            // equal-geometry trees; ignore them.
                            continue;
                        }
                        self.expected.insert((child_level, child), digest);
                    }
                }
                let mut out = Vec::with_capacity(pages.len() + 1);
                if !indices.is_empty() {
                    out.push(FetchRequest::Meta {
                        level: child_level,
                        indices,
                    });
                }
                out.append(&mut pages);
                Ok(out)
            }
            FetchResponse::Page { index, data } => {
                let Some(&expect) = self.expected.get(&(0, index)) else {
                    return Ok(Vec::new()); // unsolicited; ignore
                };
                let actual = match &data {
                    Some(d) if d.len() == PAGE_SIZE => Digest::of(d),
                    Some(_) => return Err(TransferError::PageDigestMismatch { index }),
                    None => zero_page_digest(),
                };
                if actual != expect {
                    return Err(TransferError::PageDigestMismatch { index });
                }
                self.expected.remove(&(0, index));
                self.ready.push((index, data, expect));
                Ok(Vec::new())
            }
        }
    }
}

/// Serve a fetch request from a checkpoint snapshot. A request naming any
/// node or page outside the tree (an index past its level's width, a leaf
/// or a level above the root) is answered [`FetchResponse::Unavailable`].
pub fn serve_fetch(snap: &Snapshot, req: &FetchRequest) -> FetchResponse {
    match req {
        FetchRequest::Meta { level, indices } => indices
            .iter()
            .map(|&index| {
                let (left, right) = snap.tree().children(*level, index)?;
                Some((index, left, right))
            })
            .collect::<Option<Vec<_>>>()
            .map_or(FetchResponse::Unavailable, |nodes| FetchResponse::Meta {
                level: *level,
                nodes,
            }),
        FetchRequest::Page { index } => {
            if (*index as usize) < snap.num_pages() {
                FetchResponse::Page {
                    index: *index,
                    data: snap.page(*index).map(|p| p.to_vec()),
                }
            } else {
                FetchResponse::Unavailable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{PagedState, PAGE_SIZE};

    /// Drive a full transfer from `src` snapshot into `dst`; returns number
    /// of pages moved.
    fn sync(dst: &mut PagedState, snap: &Snapshot) -> usize {
        dst.refresh_digest();
        let (mut fetcher, mut reqs) = Fetcher::new(dst.tree(), snap.root);
        assert_eq!(fetcher.target_root(), snap.root);
        let mut moved = 0;
        while !reqs.is_empty() {
            let mut next = Vec::new();
            for r in &reqs {
                let resp = serve_fetch(snap, r);
                next.extend(fetcher.on_response(dst.tree(), resp).expect("valid"));
                for (idx, data, digest) in fetcher.take_ready() {
                    dst.install_page(idx, data, digest).expect("install");
                    moved += 1;
                }
            }
            reqs = next;
        }
        assert!(fetcher.is_complete());
        dst.fold_installed();
        moved
    }

    fn scribble(st: &mut PagedState, page: u64, byte: u8) {
        let off = page * PAGE_SIZE as u64;
        st.modify(off, 8).expect("modify");
        st.write(off, &[byte; 8]).expect("write");
    }

    #[test]
    fn identical_states_transfer_nothing() {
        let mut a = PagedState::new(8);
        let mut b = PagedState::new(8);
        a.refresh_digest();
        let snap = a.snapshot(0);
        let moved = sync(&mut b, &snap);
        assert_eq!(moved, 0);
        assert_eq!(b.tree().root(), snap.root);
    }

    #[test]
    fn single_divergent_page_moves_one_page() {
        let mut a = PagedState::new(16);
        scribble(&mut a, 9, 0xaa);
        a.refresh_digest();
        let snap = a.snapshot(1);
        let mut b = PagedState::new(16);
        let moved = sync(&mut b, &snap);
        assert_eq!(moved, 1);
        assert_eq!(
            b.read_vec(9 * PAGE_SIZE as u64, 8).expect("read"),
            vec![0xaa; 8]
        );
        assert_eq!(b.tree().root(), snap.root);
    }

    #[test]
    fn many_divergent_pages_all_move() {
        let mut a = PagedState::new(32);
        for p in [0u64, 3, 7, 15, 31] {
            scribble(&mut a, p, p as u8 + 1);
        }
        a.refresh_digest();
        let snap = a.snapshot(2);
        let mut b = PagedState::new(32);
        // b has its own divergent content that must be overwritten.
        scribble(&mut b, 3, 0xee);
        scribble(&mut b, 20, 0xdd);
        let moved = sync(&mut b, &snap);
        assert_eq!(moved, 6, "5 pages from a + 1 page reverted to zero");
        assert_eq!(b.tree().root(), snap.root);
        assert_eq!(
            b.read_vec(20 * PAGE_SIZE as u64, 8).expect("read"),
            vec![0u8; 8]
        );
    }

    #[test]
    fn single_page_state() {
        let mut a = PagedState::new(1);
        scribble(&mut a, 0, 5);
        a.refresh_digest();
        let snap = a.snapshot(0);
        let mut b = PagedState::new(1);
        let moved = sync(&mut b, &snap);
        assert_eq!(moved, 1);
        assert_eq!(b.tree().root(), snap.root);
    }

    #[test]
    fn byzantine_page_detected() {
        let mut a = PagedState::new(4);
        scribble(&mut a, 2, 9);
        a.refresh_digest();
        let snap = a.snapshot(0);
        let mut b = PagedState::new(4);
        b.refresh_digest();
        let (mut fetcher, reqs) = Fetcher::new(b.tree(), snap.root);
        // Walk meta honestly, then lie about the page.
        let mut page_req = None;
        let mut queue = reqs;
        while page_req.is_none() {
            let mut next = Vec::new();
            for r in &queue {
                if matches!(r, FetchRequest::Page { .. }) {
                    page_req = Some(r.clone());
                    continue;
                }
                let resp = serve_fetch(&snap, r);
                next.extend(fetcher.on_response(b.tree(), resp).expect("valid meta"));
            }
            if page_req.is_none() {
                queue = std::mem::take(&mut next);
            } else {
                break;
            }
        }
        let evil = FetchResponse::Page {
            index: 2,
            data: Some(vec![0x66; PAGE_SIZE]),
        };
        assert_eq!(
            fetcher.on_response(b.tree(), evil),
            Err(TransferError::PageDigestMismatch { index: 2 })
        );
    }

    #[test]
    fn byzantine_meta_detected() {
        let mut a = PagedState::new(4);
        scribble(&mut a, 1, 3);
        a.refresh_digest();
        let snap = a.snapshot(0);
        let mut b = PagedState::new(4);
        b.refresh_digest();
        let (mut fetcher, reqs) = Fetcher::new(b.tree(), snap.root);
        assert_eq!(reqs.len(), 1);
        let evil = FetchResponse::Meta {
            level: 2,
            nodes: vec![(0, Digest::of(b"lie"), Digest::of(b"lie2"))],
        };
        assert_eq!(
            fetcher.on_response(b.tree(), evil),
            Err(TransferError::MetaDigestMismatch { level: 2, index: 0 })
        );
    }

    #[test]
    fn unsolicited_responses_ignored() {
        let mut a = PagedState::new(4);
        a.refresh_digest();
        let snap = a.snapshot(0);
        let mut b = PagedState::new(4);
        scribble(&mut b, 0, 1);
        b.refresh_digest();
        let (mut fetcher, _reqs) = Fetcher::new(b.tree(), snap.root);
        let out = fetcher
            .on_response(
                b.tree(),
                FetchResponse::Page {
                    index: 3,
                    data: None,
                },
            )
            .expect("ignored");
        assert!(out.is_empty());
        let out = fetcher
            .on_response(b.tree(), FetchResponse::Unavailable)
            .expect("ignored");
        assert!(out.is_empty());
    }

    #[test]
    fn serve_rejects_out_of_range() {
        let mut a = PagedState::new(2);
        a.refresh_digest();
        let snap = a.snapshot(0);
        assert_eq!(
            serve_fetch(&snap, &FetchRequest::Page { index: 99 }),
            FetchResponse::Unavailable
        );
        assert_eq!(
            serve_fetch(
                &snap,
                &FetchRequest::Meta {
                    level: 9,
                    indices: vec![0]
                }
            ),
            FetchResponse::Unavailable
        );
    }

    #[test]
    fn a_level_travels_in_one_message_and_a_partial_answer_leaves_the_rest() {
        // 16 pages, 5 levels; pages 1, 6, 9 and 14 differ, one under each
        // level-2 node, so levels 3, 2 and 1 have 2, 4 and 4 divergent nodes.
        let mut a = PagedState::new(16);
        for p in [1u64, 6, 9, 14] {
            scribble(&mut a, p, 7);
        }
        a.refresh_digest();
        let snap = a.snapshot(0);
        let mut b = PagedState::new(16);
        b.refresh_digest();
        let (mut fetcher, reqs) = Fetcher::new(b.tree(), snap.root);
        let mut reqs = fetcher
            .on_response(b.tree(), serve_fetch(&snap, &reqs[0]))
            .unwrap();
        assert_eq!(
            reqs,
            vec![FetchRequest::Meta {
                level: 3,
                indices: vec![0, 1]
            }]
        );
        // The peer answers only node 1 of level 3; node 0 stays outstanding.
        let FetchResponse::Meta { level, mut nodes } = serve_fetch(&snap, &reqs[0]) else {
            panic!("meta");
        };
        let first = nodes.remove(0);
        reqs = fetcher
            .on_response(b.tree(), FetchResponse::Meta { level, nodes })
            .unwrap();
        assert_eq!(
            fetcher.outstanding(),
            vec![
                FetchRequest::Meta {
                    level: 2,
                    indices: vec![2, 3]
                },
                FetchRequest::Meta {
                    level: 3,
                    indices: vec![0]
                },
            ]
        );
        reqs.extend(
            fetcher
                .on_response(
                    b.tree(),
                    FetchResponse::Meta {
                        level,
                        nodes: vec![first],
                    },
                )
                .unwrap(),
        );
        assert_eq!(reqs.len(), 2, "one message per level answered");
        let mut msgs = 0;
        while !fetcher.is_complete() {
            let outstanding = fetcher.outstanding();
            msgs += outstanding.len();
            for r in outstanding {
                fetcher
                    .on_response(b.tree(), serve_fetch(&snap, &r))
                    .unwrap();
            }
            for (idx, data, digest) in fetcher.take_ready() {
                b.install_page(idx, data, digest).unwrap();
            }
        }
        assert_eq!(msgs, 1 + 1 + 4, "level 2, level 1, then the four pages");
        assert_eq!(b.refresh_digest(), snap.root);
    }
}
