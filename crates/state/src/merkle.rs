//! Incremental Merkle tree over page digests.
//!
//! Leaves are page digests; internal nodes bind their `(level, index)`
//! position, so identical sibling subtrees at different positions still hash
//! differently and a tree cannot be "rearranged" without changing the root.
//! Updating one leaf recomputes only the path to the root (`O(log n)`);
//! updating a sorted set of leaves recomputes each affected internal node
//! once, however many of the leaves below it changed.

use pbft_crypto::{Digest, Sha256};

use crate::chunked::ChunkedVec;

/// A Merkle tree with a fixed number of leaves (padded to a power of two).
///
/// A clone shares its nodes with the original in chunks that are un-shared
/// on first write, so the copy a snapshot keeps costs what changed since
/// the previous one, not the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// Every level in one array, leaves first: level `l` holds
    /// `width >> l` nodes starting at [`MerkleTree::level_start`]; the last
    /// node is the root.
    nodes: ChunkedVec<Digest>,
    /// Leaf-level width: `leaf_count` rounded up to a power of two.
    width: usize,
    /// Number of real (unpadded) leaves.
    leaf_count: usize,
}

/// Digest used for padding leaves beyond `leaf_count`.
fn pad_leaf() -> Digest {
    Digest::of(b"pbft-state-merkle-pad")
}

/// Internal node `(level, index)` over its two children.
pub(crate) fn combine(level: u32, index: u64, left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&level.to_be_bytes());
    h.update(&index.to_be_bytes());
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finish()
}

impl MerkleTree {
    /// Build a tree from leaf digests.
    ///
    /// # Panics
    /// Panics if `leaves` is empty.
    pub fn build(leaves: Vec<Digest>) -> MerkleTree {
        assert!(!leaves.is_empty(), "tree needs at least one leaf");
        let leaf_count = leaves.len();
        let width = leaf_count.next_power_of_two();
        let mut nodes = leaves;
        nodes.reserve(2 * width - 1 - leaf_count);
        nodes.resize(width, pad_leaf());
        let (mut below, mut lvl) = (0usize, 1u32);
        while nodes.len() < 2 * width - 1 {
            let above = nodes.len();
            for i in 0..(above - below) / 2 {
                let parent = combine(
                    lvl,
                    i as u64,
                    &nodes[below + 2 * i],
                    &nodes[below + 2 * i + 1],
                );
                nodes.push(parent);
            }
            (below, lvl) = (above, lvl + 1);
        }
        MerkleTree {
            nodes: ChunkedVec::from_vec(nodes),
            width,
            leaf_count,
        }
    }

    /// Offset of level `level`'s first node: the widths of the levels below
    /// it, `width + width / 2 + ...`, summed.
    fn level_start(&self, level: u32) -> usize {
        2 * self.width - ((2 * self.width) >> level)
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.nodes[self.nodes.len() - 1]
    }

    /// Number of real leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of levels including the leaf level (a 1-leaf tree has 1).
    pub fn height(&self) -> u32 {
        self.width.trailing_zeros() + 1
    }

    /// Digest of leaf `index`.
    ///
    /// # Panics
    /// Panics if `index >= leaf_count`.
    pub fn leaf(&self, index: usize) -> Digest {
        assert!(index < self.leaf_count, "leaf index out of range");
        self.nodes[index]
    }

    /// Digest of the node at `(level, index)`; level 0 = leaves.
    /// Returns `None` if out of range (useful for the transfer protocol,
    /// which must tolerate malformed requests from faulty peers).
    pub fn node(&self, level: u32, index: u64) -> Option<Digest> {
        if level >= self.height() || index >= (self.width >> level) as u64 {
            return None;
        }
        Some(self.nodes[self.level_start(level) + index as usize])
    }

    /// The two children digests of internal node `(level, index)`.
    pub fn children(&self, level: u32, index: u64) -> Option<(Digest, Digest)> {
        if level == 0 || self.node(level, index).is_none() {
            return None;
        }
        let below = self.level_start(level - 1) + 2 * index as usize;
        Some((self.nodes[below], self.nodes[below + 1]))
    }

    /// Recompute internal node `(level, index)` from its two children.
    fn recombine(&mut self, level: u32, index: usize) {
        let below = self.level_start(level - 1) + 2 * index;
        let parent = combine(
            level,
            index as u64,
            &self.nodes[below],
            &self.nodes[below + 1],
        );
        *self.nodes.get_mut(self.level_start(level) + index) = parent;
    }

    /// Replace leaf `index` and leave its ancestors as they are, for a
    /// caller that folds them later with [`MerkleTree::update_leaves`].
    ///
    /// # Panics
    /// Panics if `index >= leaf_count`.
    pub(crate) fn set_leaf(&mut self, index: usize, digest: Digest) {
        assert!(index < self.leaf_count, "leaf index out of range");
        *self.nodes.get_mut(index) = digest;
    }

    /// Replace leaf `index` and recompute the path to the root.
    ///
    /// # Panics
    /// Panics if `index >= leaf_count`.
    pub fn update_leaf(&mut self, index: usize, digest: Digest) {
        self.set_leaf(index, digest);
        let mut idx = index;
        for lvl in 1..self.height() {
            idx /= 2;
            self.recombine(lvl, idx);
        }
    }

    /// Replace a set of leaves, given in ascending index order, and
    /// recompute every internal node above any of them exactly once, level
    /// by level — the same tree as one [`MerkleTree::update_leaf`] per
    /// leaf, without re-hashing the ancestors neighbouring leaves share.
    ///
    /// # Panics
    /// Panics if an index is `>= leaf_count` or the indices do not ascend.
    pub fn update_leaves(&mut self, leaves: &[(usize, Digest)]) {
        assert!(
            leaves.windows(2).all(|w| w[0].0 < w[1].0),
            "leaf indices must ascend"
        );
        let mut touched = Vec::with_capacity(leaves.len());
        for &(index, digest) in leaves {
            self.set_leaf(index, digest);
            touched.push(index);
        }
        for lvl in 1..self.height() {
            // Ascending children give ascending parents: siblings collapse
            // as adjacent duplicates.
            touched.iter_mut().for_each(|i| *i /= 2);
            touched.dedup();
            for &idx in &touched {
                self.recombine(lvl, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| Digest::of(&(i as u64).to_be_bytes()))
            .collect()
    }

    #[test]
    fn single_leaf() {
        let t = MerkleTree::build(leaves(1));
        assert_eq!(t.height(), 1);
        assert_eq!(t.root(), t.leaf(0));
    }

    #[test]
    fn incremental_matches_rebuild() {
        for n in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let mut ls = leaves(n);
            let mut t = MerkleTree::build(ls.clone());
            for touch in [0, n / 2, n - 1] {
                ls[touch] = Digest::of(&[touch as u8, 0xff]);
                t.update_leaf(touch, ls[touch]);
                let rebuilt = MerkleTree::build(ls.clone());
                assert_eq!(t.root(), rebuilt.root(), "n={n} touch={touch}");
                assert_eq!(t, rebuilt);
            }
        }
    }

    #[test]
    fn root_depends_on_every_leaf() {
        let base = MerkleTree::build(leaves(7));
        for i in 0..7 {
            let mut ls = leaves(7);
            ls[i] = Digest::of(b"changed");
            assert_ne!(MerkleTree::build(ls).root(), base.root(), "leaf {i}");
        }
    }

    #[test]
    fn position_binding() {
        // Swapping two equal-value leaves at different positions changes
        // nothing, but swapping distinct leaves does; and a subtree moved to
        // a different index yields a different parent.
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        let t1 = MerkleTree::build(vec![a, b, a, b]);
        let t2 = MerkleTree::build(vec![a, b, b, a]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn children_and_node_accessors() {
        let t = MerkleTree::build(leaves(4));
        assert_eq!(t.height(), 3);
        let (l, r) = t.children(2, 0).expect("root children");
        assert_eq!(combine(2, 0, &l, &r), t.root());
        assert_eq!(t.node(0, 2), Some(t.leaf(2)));
        assert_eq!(t.node(9, 0), None);
        assert_eq!(t.children(0, 0), None);
        assert_eq!(t.node(2, 0), Some(t.root()));
    }

    #[test]
    fn batched_update_matches_rebuild_and_hashes_shared_ancestors_once() {
        for n in [1usize, 2, 3, 5, 64, 100, 1084] {
            let mut ls = leaves(n);
            let mut t = MerkleTree::build(ls.clone());
            // Neighbours, a lone leaf and the last real leaf before the pad.
            let mut set: Vec<usize> = [0, 1, n / 3, n / 2, n / 2 + 1, n - 1]
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            set.sort_unstable();
            set.dedup();
            let update: Vec<(usize, Digest)> = set
                .iter()
                .map(|&i| (i, Digest::of(&[i as u8, 0xee])))
                .collect();
            for &(i, d) in &update {
                ls[i] = d;
            }
            t.update_leaves(&update);
            assert_eq!(t, MerkleTree::build(ls), "n={n}");
        }
        let mut t = MerkleTree::build(leaves(4));
        let same = t.clone();
        t.update_leaves(&[]);
        assert_eq!(t, same);
    }

    #[test]
    #[should_panic(expected = "leaf indices must ascend")]
    fn batched_update_rejects_unsorted_leaves() {
        let mut t = MerkleTree::build(leaves(4));
        t.update_leaves(&[(2, Digest::ZERO), (1, Digest::ZERO)]);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn update_out_of_range_panics() {
        let mut t = MerkleTree::build(leaves(3));
        t.update_leaf(3, Digest::ZERO); // index 3 is padding, not a real leaf
    }
}
