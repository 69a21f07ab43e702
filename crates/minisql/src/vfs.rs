//! The virtual file system layer.
//!
//! "In SQLite's quest to be a multi-platform product, the authors have
//! defined an abstraction layer called VFS that sits between the relational
//! engine and the operating system. By hooking into this subsystem, we not
//! only can manage memory mapping and perform PBFT-required memory
//! modification notifications..." (paper §3.2). `pbft-sql` provides exactly
//! such a hook by implementing [`Vfs`] over the replicated state region.

use std::fmt;

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
/// A `sync` copies nothing: it marks the current bytes as the synced image.
/// The synced bytes are kept aside only when a later call would destroy
/// them — by swapping buffers when the call truncates the file to zero
/// (what every rollback-journal commit does), by copying otherwise.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    data: Vec<u8>,
    /// The synced image, unless `synced` says `data` is.
    stable: Vec<u8>,
    /// No mutating call since the last `sync`: `data` is the synced image.
    synced: bool,
    syncs: u64,
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
            stable: Vec::new(),
            synced: true,
            syncs: 0,
        }
    }

    /// Number of syncs performed (tests assert on durability behaviour).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Current (volatile) contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
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
        // One slice copy of what the file holds, zeros for the sparse tail.
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(self.data.len());
        let held = buf.len().min(self.data.len() - start);
        buf[..held].copy_from_slice(&self.data[start..start + held]);
        buf[held..].fill(0);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.unsync(false);
        let start = offset as usize;
        if self.data.len() < start {
            self.data.resize(start, 0);
        }
        // Overwrite what exists, append the rest: an appending write (every
        // journal and WAL commit) is never zero-filled first.
        let overlap = data.len().min(self.data.len() - start);
        self.data[start..start + overlap].copy_from_slice(&data[..overlap]);
        self.data.extend_from_slice(&data[overlap..]);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn set_len(&mut self, len: u64) -> Result<(), VfsError> {
        self.unsync(len == 0);
        self.data.resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        self.synced = true;
        self.syncs += 1;
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
                match g.choice(8) {
                    0..=2 => {
                        let at = offset(g);
                        let data = g.bytes(0..96);
                        v.write_at(at as u64, &data).expect("write");
                        r.write_at(at, &data);
                    }
                    3 | 4 => {
                        let to = if g.bool() { 0 } else { offset(g) };
                        v.set_len(to as u64).expect("set_len");
                        r.data.resize(to, 0);
                    }
                    5 | 6 => {
                        v.sync().expect("sync");
                        r.stable.clone_from(&r.data);
                    }
                    _ => {
                        v = v.crash();
                        r = r.crash();
                    }
                }
                assert_eq!(v.bytes(), r.data, "step {step}");
                assert_eq!(v.len(), r.data.len() as u64, "step {step}");
                let (at, n) = (g.usize_in(0..r.data.len() + 8), g.usize_in(0..64));
                let mut buf = vec![0xa5; n];
                v.read_at(at as u64, &mut buf).expect("read");
                assert_eq!(buf, r.read_at(at, n), "step {step}");
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
