//! The rollback journal: pre-images of pages about to be overwritten.
//!
//! minisql journals at commit time: before the pager writes dirty pages back
//! to the database file, it saves the *on-disk* versions to the journal and
//! syncs it. A crash between journal sync and database sync is recovered on
//! the next open by copying the pre-images back (then truncating the
//! journal). This is the mechanism behind the paper's observation that "an
//! uncommitted transaction will be rolled back on the next attempt to access
//! the database file".

use crate::error::SqlError;
use crate::vfs::Vfs;

const MAGIC: u64 = 0x4d49_4e49_4a52_4e4c; // "MINIJRNL"

/// Journal header + entry layout constants.
const HEADER: usize = 8 + 4 + 4; // magic, old_page_count, entry count

/// A journal image under construction in a caller-owned buffer: the pager
/// reads each pre-image straight into its final place and reuses the buffer
/// from one commit to the next. The buffer keeps its length between images,
/// so a slot is filled in place and never zeroed first.
pub struct JournalImage<'a> {
    buf: &'a mut Vec<u8>,
    page_size: usize,
    /// Bytes of `buf` this image occupies; the rest is an earlier image's.
    len: usize,
}

impl<'a> JournalImage<'a> {
    /// Start an image in `buf` (its previous contents are overwritten or
    /// left beyond the image's end).
    pub fn begin(buf: &'a mut Vec<u8>, page_size: usize, old_page_count: u32) -> Self {
        if buf.len() < HEADER {
            buf.resize(HEADER, 0);
        }
        buf[..8].copy_from_slice(&MAGIC.to_be_bytes());
        buf[8..12].copy_from_slice(&old_page_count.to_be_bytes());
        // The entry count at 12..16 is patched by `write`.
        JournalImage {
            buf,
            page_size,
            len: HEADER,
        }
    }

    /// Append an entry for `page_id` and return its page-sized slot, which
    /// the caller must overwrite whole with the pre-image.
    pub fn entry(&mut self, page_id: u32) -> &mut [u8] {
        let start = self.len + 4;
        self.len = start + self.page_size;
        if self.buf.len() < self.len {
            self.buf.resize(self.len, 0);
        }
        self.buf[start - 4..start].copy_from_slice(&page_id.to_be_bytes());
        &mut self.buf[start..self.len]
    }

    /// Bytes the image occupies in the journal file.
    pub fn bytes(&self) -> usize {
        self.len
    }

    /// Replace the journal file with this image and (optionally) sync it.
    ///
    /// # Errors
    /// Storage failures.
    pub fn write(self, vfs: &mut dyn Vfs, sync: bool) -> Result<(), SqlError> {
        let entries = ((self.len - HEADER) / (4 + self.page_size)) as u32;
        self.buf[12..HEADER].copy_from_slice(&entries.to_be_bytes());
        vfs.set_len(0)?;
        vfs.write_at(0, &self.buf[..self.len])?;
        if sync {
            vfs.sync()?;
        }
        Ok(())
    }
}

/// Write a journal with the given pre-images (tests stage journals by hand).
#[cfg(test)]
pub fn write_journal(
    vfs: &mut dyn Vfs,
    page_size: usize,
    old_page_count: u32,
    entries: &[(u32, Vec<u8>)],
    sync: bool,
) -> Result<(), SqlError> {
    let mut buf = Vec::new();
    let mut image = JournalImage::begin(&mut buf, page_size, old_page_count);
    for (page_id, data) in entries {
        image.entry(*page_id).copy_from_slice(data);
    }
    image.write(vfs, sync)
}

/// Clear the journal (after a successful commit) and sync the truncation.
///
/// # Errors
/// Storage failures.
pub fn clear_journal(vfs: &mut dyn Vfs, sync: bool) -> Result<(), SqlError> {
    vfs.set_len(0)?;
    if sync {
        vfs.sync()?;
    }
    Ok(())
}

/// A parsed journal: the pre-images to restore.
#[derive(Debug, PartialEq, Eq)]
pub struct JournalContents {
    /// Page count the database had before the interrupted commit.
    pub old_page_count: u32,
    /// `(page id, pre-image)` pairs.
    pub entries: Vec<(u32, Vec<u8>)>,
}

/// Read the journal. Returns `None` when it is empty or clearly not a
/// journal (nothing to recover).
///
/// # Errors
/// [`SqlError::Corrupt`] when a journal with a valid magic is truncated —
/// the safe response is to treat the *whole* journal as garbage, which
/// callers do by ignoring the error only if no entry was applied yet.
pub fn read_journal(vfs: &dyn Vfs, page_size: usize) -> Result<Option<JournalContents>, SqlError> {
    if vfs.len() < HEADER as u64 {
        return Ok(None);
    }
    let mut header = [0u8; HEADER];
    vfs.read_at(0, &mut header)?;
    let magic = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
    if magic != MAGIC {
        return Ok(None);
    }
    let old_page_count = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
    let n = u32::from_be_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
    let entry_size = 4 + page_size;
    if vfs.len() < (HEADER + n * entry_size) as u64 {
        return Err(SqlError::Corrupt("truncated journal".into()));
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let off = (HEADER + i * entry_size) as u64;
        let mut id_buf = [0u8; 4];
        vfs.read_at(off, &mut id_buf)?;
        let mut data = vec![0u8; page_size];
        vfs.read_at(off + 4, &mut data)?;
        entries.push((u32::from_be_bytes(id_buf), data));
    }
    Ok(Some(JournalContents {
        old_page_count,
        entries,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip() {
        let mut v = MemVfs::new();
        let entries = vec![(3u32, vec![7u8; 64]), (9u32, vec![1u8; 64])];
        write_journal(&mut v, 64, 12, &entries, true).expect("write");
        let back = read_journal(&v, 64).expect("read").expect("present");
        assert_eq!(back.old_page_count, 12);
        assert_eq!(back.entries, entries);
    }

    #[test]
    fn empty_journal_is_none() {
        let v = MemVfs::new();
        assert_eq!(read_journal(&v, 64).expect("read"), None);
    }

    #[test]
    fn cleared_journal_is_none() {
        let mut v = MemVfs::new();
        write_journal(&mut v, 64, 1, &[(0, vec![0u8; 64])], true).expect("write");
        clear_journal(&mut v, true).expect("clear");
        assert_eq!(read_journal(&v, 64).expect("read"), None);
    }

    #[test]
    fn garbage_is_none_but_truncated_is_error() {
        let mut v = MemVfs::new();
        v.write_at(0, &[0u8; 32]).expect("write");
        assert_eq!(read_journal(&v, 64).expect("read"), None);

        let mut v2 = MemVfs::new();
        write_journal(
            &mut v2,
            64,
            1,
            &[(0, vec![0u8; 64]), (1, vec![0u8; 64])],
            true,
        )
        .expect("write");
        v2.set_len(40).expect("truncate");
        assert!(read_journal(&v2, 64).is_err());
    }

    #[test]
    fn unsynced_journal_lost_on_crash() {
        let mut v = MemVfs::new();
        write_journal(&mut v, 64, 1, &[(0, vec![5u8; 64])], false).expect("write");
        let crashed = v.crash();
        assert_eq!(read_journal(&crashed, 64).expect("read"), None);
    }
}
