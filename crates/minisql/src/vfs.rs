//! The virtual file system layer.
//!
//! "In SQLite's quest to be a multi-platform product, the authors have
//! defined an abstraction layer called VFS that sits between the relational
//! engine and the operating system. By hooking into this subsystem, we not
//! only can manage memory mapping and perform PBFT-required memory
//! modification notifications..." (paper §3.2). `pbft-sql` provides exactly
//! such a hook by implementing [`Vfs`] over the replicated state region.
//!
//! Besides byte ranges, a file hands out and takes in whole pages as
//! shared images ([`Vfs::read_page`], [`Vfs::write_page`]). By default
//! these copy through [`Vfs::read_at`] and [`Vfs::write_at`]; a file whose
//! storage is itself a table of shared pages (the state region) shares
//! them instead, so the pager's cache and the file hold one image of each
//! clean page.

use std::fmt;
use std::sync::Arc;

/// Storage-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// An access outside the current file length that cannot be satisfied.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Current file length.
        file_len: u64,
    },
    /// The backing store refused the operation.
    Backend(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::OutOfBounds {
                offset,
                len,
                file_len,
            } => write!(f, "access at {offset}+{len} beyond file length {file_len}"),
            VfsError::Backend(m) => write!(f, "backend error: {m}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// A random-access file abstraction. Reads past the end return zeros (sparse
/// semantics, matching the paper's sparse-file trick); writes extend the
/// file as needed.
pub trait Vfs {
    /// Read `buf.len()` bytes at `offset` (zero-filled past the end).
    ///
    /// # Errors
    /// Backend failures only.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), VfsError>;

    /// Write `data` at `offset`, extending the file if needed.
    ///
    /// # Errors
    /// Backend failures (e.g. a fixed-size region overflowing).
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError>;

    /// Read the `len`-byte page at `offset` as a shared image. The pager
    /// never writes through a shared image: it copies one before changing
    /// it. The default reads a fresh copy through [`Vfs::read_at`].
    ///
    /// # Errors
    /// Backend failures only.
    fn read_page(&self, offset: u64, len: usize) -> Result<Arc<Vec<u8>>, VfsError> {
        let mut page = vec![0u8; len];
        self.read_at(offset, &mut page)?;
        Ok(Arc::new(page))
    }

    /// Store the committed page image `page` at `offset`, as
    /// [`Vfs::write_at`] would store its bytes, and return the image it
    /// replaced when the file held one as a page (the caller may reuse its
    /// buffer once no one else shares it). The default writes a copy
    /// through [`Vfs::write_at`] and returns nothing.
    ///
    /// # Errors
    /// As [`Vfs::write_at`].
    fn write_page(
        &mut self,
        offset: u64,
        page: &Arc<Vec<u8>>,
    ) -> Result<Option<Arc<Vec<u8>>>, VfsError> {
        self.write_at(offset, page)?;
        Ok(None)
    }

    /// Current file length in bytes.
    fn len(&self) -> u64;

    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truncate or extend to `len`.
    ///
    /// # Errors
    /// Backend failures.
    fn set_len(&mut self, len: u64) -> Result<(), VfsError>;

    /// Flush to stable storage (the fsync equivalent the ACID mode relies
    /// on; implementations model durability and may count cost).
    ///
    /// # Errors
    /// Backend failures.
    fn sync(&mut self) -> Result<(), VfsError>;
}

/// An in-memory file with crash-durability modeling: [`MemVfs::crash`]
/// yields the file as it would be found after a power failure — only
/// content present at the last `sync` survives.
///
/// A page stored with [`Vfs::write_page`] is kept by reference, as a
/// segment of the file, and [`Vfs::read_page`] of exactly that range hands
/// the same image back: a journal of pre-images the database file shares
/// copies none of them. A `write_at` or a truncation across a segment
/// copies the segment's bytes in first.
///
/// A `sync` copies nothing: it marks the current image as the synced one
/// (and drops the segments of the image it supersedes). The synced image
/// is kept aside only when a later call would destroy it — by swapping
/// buffers when the call truncates the file to zero (what every
/// rollback-journal commit does), by copying otherwise.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    data: Image,
    /// The synced image, unless `synced` says `data` is.
    stable: Image,
    /// No mutating call since the last `sync`: `data` is the synced image.
    synced: bool,
    syncs: u64,
}

/// The contents of a file: its bytes, and the pages it holds by reference.
#[derive(Debug, Default)]
struct Image {
    /// The file's bytes (its length is the file's), except under a
    /// segment, where they are whatever was there before.
    bytes: Vec<u8>,
    /// `(offset, page)`: whole images the file holds by reference,
    /// ascending, disjoint, each inside `bytes`.
    segs: Vec<(usize, SharedImage)>,
}

type SharedImage = Arc<Vec<u8>>;

impl Clone for Image {
    fn clone(&self) -> Image {
        Image {
            bytes: self.bytes.clone(),
            segs: self.segs.clone(),
        }
    }

    /// Reuses both buffers: the segments are reference counts.
    fn clone_from(&mut self, source: &Image) {
        self.bytes.clone_from(&source.bytes);
        self.segs.clone_from(&source.segs);
    }
}

impl Image {
    /// Drop every segment that overlaps `start..end`, the range the caller
    /// is about to overwrite or cut off: one inside it as it is, one that
    /// sticks out after its bytes are copied in.
    fn release(&mut self, start: usize, end: usize) {
        let range = self.overlapping(start, end);
        for (at, page) in &self.segs[range.clone()] {
            let seg_end = at + page.len();
            if *at < start || seg_end > end {
                self.bytes[*at..seg_end].copy_from_slice(page);
            }
        }
        self.segs.drain(range);
    }

    /// The segments that overlap `start..end`, by index.
    fn overlapping(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        let first = self
            .segs
            .partition_point(|(at, page)| at + page.len() <= start);
        let last = first + self.segs[first..].partition_point(|(at, _)| *at < end);
        first..last
    }

    /// The segment at exactly `offset..offset + len`, by index.
    fn seg_at(&self, offset: usize, len: usize) -> Option<usize> {
        let i = self.segs.partition_point(|(at, _)| *at < offset);
        self.segs
            .get(i)
            .filter(|(at, page)| *at == offset && page.len() == len)
            .map(|_| i)
    }

    /// The file's bytes, segments included.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = self.bytes.clone();
        for (at, page) in &self.segs {
            out[*at..at + page.len()].copy_from_slice(page);
        }
        out
    }
}

impl MemVfs {
    /// An empty in-memory file.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// The file a post-crash open would see (last synced image).
    pub fn crash(&self) -> MemVfs {
        let synced = if self.synced {
            &self.data
        } else {
            &self.stable
        };
        MemVfs {
            data: synced.clone(),
            stable: Image::default(),
            synced: true,
            syncs: 0,
        }
    }

    /// Number of syncs performed (tests assert on durability behaviour).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// A copy of the current (volatile) contents.
    pub fn bytes(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    /// Keep the synced image aside before a mutating call changes `data`:
    /// `data` itself when the call discards all of it, a copy otherwise.
    fn unsync(&mut self, discards_all: bool) {
        if !self.synced {
            return;
        }
        self.synced = false;
        if discards_all {
            std::mem::swap(&mut self.data, &mut self.stable);
        } else {
            self.stable.clone_from(&self.data);
        }
    }
}

impl Vfs for MemVfs {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), VfsError> {
        // One slice copy of what the file holds, the segments over it, and
        // zeros for the sparse tail.
        let data = &self.data.bytes;
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(data.len());
        let end = start + buf.len().min(data.len() - start);
        buf[..end - start].copy_from_slice(&data[start..end]);
        buf[end - start..].fill(0);
        for (at, page) in &self.data.segs[self.data.overlapping(start, end)] {
            let (from, to) = ((*at).max(start), (at + page.len()).min(end));
            buf[from - start..to - start].copy_from_slice(&page[from - at..to - at]);
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.unsync(false);
        let start = offset as usize;
        self.data.release(start, start + data.len());
        let bytes = &mut self.data.bytes;
        if bytes.len() < start {
            bytes.resize(start, 0);
        }
        // Overwrite what exists, append the rest: an appending write (every
        // WAL commit) is never zero-filled first.
        let overlap = data.len().min(bytes.len() - start);
        bytes[start..start + overlap].copy_from_slice(&data[..overlap]);
        bytes.extend_from_slice(&data[overlap..]);
        Ok(())
    }

    fn read_page(&self, offset: u64, len: usize) -> Result<Arc<Vec<u8>>, VfsError> {
        let at = usize::try_from(offset).unwrap_or(usize::MAX);
        if let Some(i) = self.data.seg_at(at, len) {
            return Ok(Arc::clone(&self.data.segs[i].1));
        }
        let mut page = vec![0u8; len];
        self.read_at(offset, &mut page)?;
        Ok(Arc::new(page))
    }

    fn write_page(
        &mut self,
        offset: u64,
        page: &Arc<Vec<u8>>,
    ) -> Result<Option<Arc<Vec<u8>>>, VfsError> {
        self.unsync(false);
        let start = offset as usize;
        if let Some(i) = self.data.seg_at(start, page.len()) {
            return Ok(Some(std::mem::replace(
                &mut self.data.segs[i].1,
                Arc::clone(page),
            )));
        }
        let end = start + page.len();
        self.data.release(start, end);
        if self.data.bytes.len() < end {
            self.data.bytes.resize(end, 0);
        }
        let i = self.data.segs.partition_point(|(at, _)| *at < start);
        self.data.segs.insert(i, (start, Arc::clone(page)));
        Ok(None)
    }

    fn len(&self) -> u64 {
        self.data.bytes.len() as u64
    }

    fn set_len(&mut self, len: u64) -> Result<(), VfsError> {
        self.unsync(len == 0);
        let len = len as usize;
        self.data.release(len, usize::MAX);
        self.data.bytes.resize(len, 0);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        self.synced = true;
        self.syncs += 1;
        // The image `data` supersedes keeps its buffers, not its pages.
        self.stable.segs.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_reads_return_zeros() {
        let v = MemVfs::new();
        let mut buf = [1u8; 8];
        v.read_at(100, &mut buf).expect("read");
        assert_eq!(buf, [0u8; 8]);
        // A read that straddles the end of the file: data, then zeros.
        let mut v = MemVfs::new();
        v.write_at(0, b"abcdef").expect("write");
        let mut buf = [9u8; 8];
        v.read_at(4, &mut buf).expect("read");
        assert_eq!(&buf, b"ef\0\0\0\0\0\0");
        let mut buf = [9u8; 4];
        v.read_at(6, &mut buf).expect("read at the end");
        assert_eq!(buf, [0u8; 4]);
        v.read_at(u64::MAX, &mut buf)
            .expect("read far past the end");
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn write_extends_and_reads_back() {
        let mut v = MemVfs::new();
        v.write_at(10, b"hello").expect("write");
        assert_eq!(v.len(), 15);
        let mut buf = [0u8; 5];
        v.read_at(10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
        // A write that overwrites the tail and runs past the end.
        v.write_at(12, b"LLOWORLD").expect("write");
        assert_eq!(v.len(), 20);
        assert_eq!(&v.bytes()[10..], b"heLLOWORLD");
    }

    #[test]
    fn crash_loses_unsynced_writes() {
        let mut v = MemVfs::new();
        v.write_at(0, b"durable").expect("write");
        v.sync().expect("sync");
        v.write_at(0, b"vanishd").expect("write");
        let crashed = v.crash();
        let mut buf = [0u8; 7];
        crashed.read_at(0, &mut buf).expect("read");
        assert_eq!(&buf, b"durable");
        assert_eq!(v.sync_count(), 1);
    }

    /// The reference model: a file that copies its whole image aside at
    /// every `sync`.
    #[derive(Default)]
    struct CopyAtSync {
        data: Vec<u8>,
        stable: Vec<u8>,
    }

    impl CopyAtSync {
        fn write_at(&mut self, offset: usize, data: &[u8]) {
            if self.data.len() < offset + data.len() {
                self.data.resize(offset + data.len(), 0);
            }
            self.data[offset..offset + data.len()].copy_from_slice(data);
        }

        fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
            (offset..offset + len)
                .map(|i| self.data.get(i).copied().unwrap_or(0))
                .collect()
        }

        fn crash(&self) -> CopyAtSync {
            CopyAtSync {
                data: self.stable.clone(),
                stable: self.stable.clone(),
            }
        }
    }

    #[test]
    fn crosscheck_prop_memvfs_matches_copy_at_sync() {
        // Byte writes, page images kept by reference (`write_page`), and
        // writes and truncations that cut across them, at random offsets;
        // syncs, crashes, and whole rollback-journal cycles (truncate,
        // header, entries, sync, cleared and synced again), after which a
        // crash finds an empty file and the file holds none of the images.
        propcheck::check("memvfs_matches_copy_at_sync", 128, |g| {
            let mut v = MemVfs::new();
            let mut r = CopyAtSync::default();
            for step in 0..g.usize_in(0..201) {
                let len = r.data.len();
                // Inside the file, at its end, or past it.
                let offset = |g: &mut propcheck::Gen| match g.choice(3) {
                    0 => g.usize_in(0..len + 1),
                    1 => len,
                    _ => len + g.usize_in(1..64),
                };
                match g.choice(11) {
                    0..=2 => {
                        let at = offset(g);
                        let data = g.bytes(0..96);
                        v.write_at(at as u64, &data).expect("write");
                        r.write_at(at, &data);
                    }
                    3 | 4 => {
                        let at = offset(g);
                        let page = Arc::new(g.bytes(1..96));
                        v.write_page(at as u64, &page).expect("write_page");
                        r.write_at(at, &page);
                        let back = v.read_page(at as u64, page.len()).expect("read_page");
                        assert!(Arc::ptr_eq(&back, &page), "step {step}: kept by reference");
                    }
                    5 => {
                        let to = if g.bool() { 0 } else { offset(g) };
                        v.set_len(to as u64).expect("set_len");
                        r.data.resize(to, 0);
                    }
                    6 | 7 => {
                        v.sync().expect("sync");
                        r.stable.clone_from(&r.data);
                    }
                    8 => {
                        v = v.crash();
                        r = r.crash();
                    }
                    _ => {
                        let pages: Vec<SharedImage> = (0..g.usize_in(1..4))
                            .map(|_| Arc::new(g.bytes(32..33)))
                            .collect();
                        v.set_len(0).expect("truncate");
                        v.write_at(0, b"header").expect("header");
                        let mut at = 6;
                        for page in &pages {
                            v.write_at(at, &[7; 4]).expect("id");
                            v.write_page(at + 4, page).expect("image");
                            at += 36;
                        }
                        v.sync().expect("sync");
                        assert_eq!(v.crash().len(), at, "step {step}: the synced journal");
                        v.set_len(0).expect("clear");
                        v.sync().expect("sync");
                        assert!(
                            pages.iter().all(|p| Arc::strong_count(p) == 1),
                            "step {step}: a cleared journal lets go of its images"
                        );
                        r.data.clear();
                        r.stable.clear();
                    }
                }
                assert_eq!(v.bytes(), r.data, "step {step}");
                assert_eq!(v.len(), r.data.len() as u64, "step {step}");
                let (at, n) = (g.usize_in(0..r.data.len() + 8), g.usize_in(0..64));
                let mut buf = vec![0xa5; n];
                v.read_at(at as u64, &mut buf).expect("read");
                assert_eq!(buf, r.read_at(at, n), "step {step}");
                assert_eq!(
                    *v.read_page(at as u64, n).expect("read_page"),
                    r.read_at(at, n),
                    "step {step}"
                );
                assert_eq!(v.crash().bytes(), r.stable, "step {step}");
            }
        });
    }

    #[test]
    fn set_len_truncates() {
        let mut v = MemVfs::new();
        v.write_at(0, b"0123456789").expect("write");
        v.set_len(4).expect("truncate");
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        let mut buf = [9u8; 6];
        v.read_at(2, &mut buf).expect("read");
        assert_eq!(&buf, &[b'2', b'3', 0, 0, 0, 0]);
    }
}
