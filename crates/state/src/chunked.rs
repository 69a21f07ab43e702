//! A vector held in fixed-size, `Arc`-shared chunks.
//!
//! The page table and the Merkle tree are both "large array, few entries
//! change between two checkpoints". Held flat, a snapshot copies the whole
//! array; held in chunks that are un-shared on first write — exactly as the
//! pages themselves already are — a snapshot, a restore and the drop of an
//! old checkpoint each cost one reference count per chunk, and only the
//! chunks written since the previous snapshot are ever copied.

use std::ops::Index;
use std::sync::Arc;

/// Entries per chunk: 2 KiB of digests, 512 B of page-table slots. Small
/// enough that an interval touching a few dozen neighbouring leaves copies
/// a few chunks, large enough that a 2 048-leaf tree is 64 reference counts.
const CHUNK: usize = 64;

/// A fixed-length vector whose clone shares every chunk with the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkedVec<T> {
    chunks: Vec<Arc<[T]>>,
    len: usize,
}

impl<T: Clone> ChunkedVec<T> {
    pub(crate) fn from_vec(items: Vec<T>) -> ChunkedVec<T> {
        ChunkedVec {
            len: items.len(),
            chunks: items.chunks(CHUNK).map(Arc::from).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)
    }

    /// Mutable access to one entry; un-shares its chunk if a clone still
    /// holds it.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK]
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_written() {
        let mut a = ChunkedVec::from_vec((0..200u32).collect());
        let b = a.clone();
        assert_eq!(a.len(), 200);
        assert!(a
            .chunks
            .iter()
            .zip(&b.chunks)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        *a.get_mut(130) = 7;
        // Only the written chunk was copied; the clone still reads the old value.
        let shared: Vec<bool> = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect();
        assert_eq!(shared, [true, true, false, true]);
        assert_eq!((a[130], b[130]), (7, 130));
        assert_eq!(a.get(199), Some(&199), "short last chunk");
        assert_eq!(a.get(200), None);
        assert_ne!(a, b);
    }
}
