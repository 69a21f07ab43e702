//! The rollback journal: pre-images of pages about to be overwritten.
//!
//! minisql journals at commit time: before the pager writes dirty pages back
//! to the database file, it saves the *on-disk* versions to the journal and
//! syncs it. A crash between journal sync and database sync is recovered on
//! the next open by copying the pre-images back (then truncating the
//! journal). This is the mechanism behind the paper's observation that "an
//! uncommitted transaction will be rolled back on the next attempt to access
//! the database file".
//!
//! A pre-image is the database file's own page image ([`Vfs::read_page`])
//! and goes into the journal as one ([`Vfs::write_page`]): when both files
//! keep pages by reference, journaling a page copies nothing.

use std::sync::Arc;

use crate::error::SqlError;
use crate::vfs::Vfs;

const MAGIC: u64 = 0x4d49_4e49_4a52_4e4c; // "MINIJRNL"

/// Journal header + entry layout constants.
const HEADER: usize = 8 + 4 + 4; // magic, old_page_count, entry count

/// A journal's pre-image of one page: its id and its image, shared with
/// whoever else holds it (the database file, under a VFS that shares
/// pages).
pub type Entry = (u32, Arc<Vec<u8>>);

/// Replace the journal file with the image of `entries` and (optionally)
/// sync it; returns the bytes the image occupies. The header and each
/// page id go through [`Vfs::write_at`], each pre-image through
/// [`Vfs::write_page`] at the offset it has in the image, so a file that
/// keeps pages by reference copies none.
///
/// # Errors
/// Storage failures.
pub fn write_journal(
    vfs: &mut dyn Vfs,
    page_size: usize,
    old_page_count: u32,
    entries: &[Entry],
    sync: bool,
) -> Result<u64, SqlError> {
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(&MAGIC.to_be_bytes());
    header[8..12].copy_from_slice(&old_page_count.to_be_bytes());
    let count = u32::try_from(entries.len()).expect("a journal holds fewer than 2^32 pages");
    header[12..].copy_from_slice(&count.to_be_bytes());
    vfs.set_len(0)?;
    vfs.write_at(0, &header)?;
    let mut at = HEADER as u64;
    for (page_id, image) in entries {
        debug_assert_eq!(image.len(), page_size, "a pre-image is one page");
        vfs.write_at(at, &page_id.to_be_bytes())?;
        vfs.write_page(at + 4, image)?;
        at += 4 + page_size as u64;
    }
    if sync {
        vfs.sync()?;
    }
    Ok(at)
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

    fn page(fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; 64])
    }

    #[test]
    fn roundtrip() {
        let mut v = MemVfs::new();
        let entries = [(3u32, page(7)), (9u32, page(1))];
        let bytes = write_journal(&mut v, 64, 12, &entries, true).expect("write");
        assert_eq!(bytes, 16 + 2 * (4 + 64));
        assert_eq!(v.len(), bytes);
        for (at, (_, image)) in [(20, &entries[0]), (88, &entries[1])] {
            let kept = v.read_page(at, 64).expect("read");
            assert!(Arc::ptr_eq(&kept, image), "pre-images kept by reference");
        }
        let back = read_journal(&v, 64).expect("read").expect("present");
        assert_eq!(back.old_page_count, 12);
        assert_eq!(
            back.entries,
            [(3, vec![7u8; 64]), (9, vec![1u8; 64])],
            "pre-images read back in order"
        );
    }

    #[test]
    fn empty_journal_is_none() {
        let v = MemVfs::new();
        assert_eq!(read_journal(&v, 64).expect("read"), None);
    }

    #[test]
    fn cleared_journal_is_none() {
        let mut v = MemVfs::new();
        write_journal(&mut v, 64, 1, &[(0, page(0))], true).expect("write");
        clear_journal(&mut v, true).expect("clear");
        assert_eq!(read_journal(&v, 64).expect("read"), None);
    }

    #[test]
    fn garbage_is_none_but_truncated_is_error() {
        let mut v = MemVfs::new();
        v.write_at(0, &[0u8; 32]).expect("write");
        assert_eq!(read_journal(&v, 64).expect("read"), None);

        let mut v2 = MemVfs::new();
        write_journal(&mut v2, 64, 1, &[(0, page(0)), (1, page(0))], true).expect("write");
        v2.set_len(40).expect("truncate");
        assert!(read_journal(&v2, 64).is_err());
    }

    #[test]
    fn unsynced_journal_lost_on_crash() {
        let mut v = MemVfs::new();
        write_journal(&mut v, 64, 1, &[(0, page(5))], false).expect("write");
        let crashed = v.crash();
        assert_eq!(read_journal(&crashed, 64).expect("read"), None);
    }
}
