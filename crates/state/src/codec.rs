//! Section codecs: small durable containers over a [`Section`] of the
//! replicated state region.
//!
//! Subsystems that keep tables *outside* the region (in app memory) survive
//! ordered re-execution but not execution-skipping paths — a crash-restart
//! or a checkpoint-install state transfer that jumps a replica over
//! operations it never ran. The cure is to mirror the tables into a region
//! section, where they are Merkle-covered, carried by snapshots, and
//! installed page-by-page by [`crate::Fetcher`]. This module provides the
//! two container shapes those mirrors need:
//!
//! * [`BlobCell`] — one length-prefixed, magic-tagged byte blob, rewritten
//!   whole. For small tables that change shape freely (in-flight lock and
//!   stage tables).
//! * [`SlotRing`] — a circular buffer of fixed-size records with durable
//!   head/length, overwriting the oldest entry once full. For bounded
//!   retention of per-item facts in arrival order (a stability-watermark
//!   garbage collector falls out of the overwrite: the evicted record is
//!   returned to the caller so it can advance its watermark).
//!
//! Both containers obey the modify-before-write notification contract and
//! treat an all-zero (never-written) section as empty, so a fresh region
//! loads cleanly. All encodings are big-endian and deterministic: two
//! replicas performing the same sequence of stores hold bit-identical
//! section bytes, which is what lets checkpoint digests cover the tables.
//! See the per-container examples on [`BlobCell`] and [`SlotRing`].

use crate::region::{PagedState, Section, StateError};

/// Errors from decoding a section container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The section holds bytes that are neither zero (empty) nor a valid
    /// container image — the region was corrupted or mis-addressed.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(what) => write!(f, "section container corrupt: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Header bytes of a [`BlobCell`]: magic (8) + payload length (8).
const BLOB_HEADER: usize = 16;

/// One length-prefixed, magic-tagged blob inside a section, rewritten whole
/// on every store.
///
/// A never-written (all-zero) cell loads as `None`; a stored blob loads
/// back bit-identically. Stale bytes beyond the current payload are left in
/// place — they are a deterministic function of the store history, so they
/// never break digest agreement between replicas.
///
/// ```
/// use pbft_state::{BlobCell, PagedState, Section, PAGE_SIZE};
///
/// let mut st = PagedState::new(2);
/// let cell = BlobCell::new(Section { base: 0, len: PAGE_SIZE as u64 }, 0xC0DE);
/// assert_eq!(cell.load(&st).expect("fresh cell reads"), None);
/// cell.store(&mut st, b"lock table image").expect("fits");
/// assert_eq!(
///     cell.load(&st).expect("reads back"),
///     Some(b"lock table image".to_vec())
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobCell {
    section: Section,
    magic: u64,
}

impl BlobCell {
    /// A cell spanning `section`, tagged with a non-zero `magic` so a load
    /// can tell a real image from foreign or zeroed bytes.
    ///
    /// # Panics
    /// Panics if `magic` is zero (indistinguishable from an empty section)
    /// or the section cannot hold the header.
    pub fn new(section: Section, magic: u64) -> BlobCell {
        assert!(
            magic != 0,
            "a zero magic cannot be told from an empty section"
        );
        assert!(
            section.len >= BLOB_HEADER as u64,
            "section smaller than the cell header"
        );
        BlobCell { section, magic }
    }

    /// Largest payload this cell can store.
    pub fn capacity(&self) -> usize {
        self.section.len as usize - BLOB_HEADER
    }

    /// The section this cell occupies.
    pub fn section(&self) -> Section {
        self.section
    }

    /// Overwrite the cell with `payload` (modify-notified, single write).
    ///
    /// # Errors
    /// [`StateError::OutOfBounds`] when the payload exceeds
    /// [`BlobCell::capacity`].
    pub fn store(&self, state: &mut PagedState, payload: &[u8]) -> Result<(), StateError> {
        if payload.len() > self.capacity() {
            return Err(StateError::OutOfBounds {
                offset: self.section.base,
                len: BLOB_HEADER + payload.len(),
                region_len: self.section.len,
            });
        }
        let mut image = Vec::with_capacity(BLOB_HEADER + payload.len());
        image.extend_from_slice(&self.magic.to_be_bytes());
        image.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        image.extend_from_slice(payload);
        self.section.modify(state, 0, image.len())?;
        self.section.write(state, 0, &image)
    }

    /// Read the blob back: `None` for a never-written cell.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] when the header is neither zero nor this
    /// cell's magic, or the recorded length exceeds the capacity.
    pub fn load(&self, state: &PagedState) -> Result<Option<Vec<u8>>, CodecError> {
        let mut header = [0u8; BLOB_HEADER];
        self.section
            .read(state, 0, &mut header)
            .map_err(|_| CodecError::Corrupt("cell header out of bounds"))?;
        let magic = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
        if magic == 0 {
            return Ok(None);
        }
        if magic != self.magic {
            return Err(CodecError::Corrupt("cell magic mismatch"));
        }
        let len = u64::from_be_bytes(header[8..].try_into().expect("8 bytes")) as usize;
        if len > self.capacity() {
            return Err(CodecError::Corrupt("cell length exceeds capacity"));
        }
        let mut payload = vec![0u8; len];
        self.section
            .read(state, BLOB_HEADER as u64, &mut payload)
            .map_err(|_| CodecError::Corrupt("cell payload out of bounds"))?;
        Ok(Some(payload))
    }
}

/// Header bytes of a [`SlotRing`]: magic (8) + slot length (8) + head (8) +
/// valid count (8).
const RING_HEADER: usize = 32;

/// A durable circular buffer of fixed-size records inside a section.
///
/// Records are pushed in arrival order; once the ring is full, each push
/// overwrites the oldest record and hands it back to the caller — the hook
/// a stability-watermark garbage collector needs to note *what* it just
/// forgot. [`SlotRing::records`] returns the retained records oldest-first,
/// which is all a restart or state-transfer install needs to rebuild its
/// in-memory lookup tables.
///
/// ```
/// use pbft_state::{PagedState, Section, SlotRing, PAGE_SIZE};
///
/// let mut st = PagedState::new(2);
/// // A deliberately tiny ring: header + two 8-byte slots.
/// let ring = SlotRing::new(Section { base: 0, len: 48 }, 8, 0x52494E47);
/// assert_eq!(ring.capacity(), 2);
/// assert_eq!(ring.push(&mut st, b"rec-aaaa").expect("push"), None);
/// assert_eq!(ring.push(&mut st, b"rec-bbbb").expect("push"), None);
/// // Full: the third push evicts the oldest record and returns it.
/// let evicted = ring.push(&mut st, b"rec-cccc").expect("push");
/// assert_eq!(evicted.as_deref(), Some(&b"rec-aaaa"[..]));
/// assert_eq!(
///     ring.records(&st).expect("scan"),
///     vec![b"rec-bbbb".to_vec(), b"rec-cccc".to_vec()]
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SlotRing {
    section: Section,
    slot_len: usize,
    magic: u64,
}

impl SlotRing {
    /// A ring of `slot_len`-byte records spanning `section`, tagged with a
    /// non-zero `magic`.
    ///
    /// # Panics
    /// Panics if `magic` is zero, `slot_len` is zero, or the section cannot
    /// hold the header plus at least one slot.
    pub fn new(section: Section, slot_len: usize, magic: u64) -> SlotRing {
        assert!(
            magic != 0,
            "a zero magic cannot be told from an empty section"
        );
        assert!(slot_len > 0, "slots need at least one byte");
        assert!(
            section.len >= (RING_HEADER + slot_len) as u64,
            "section smaller than the ring header plus one slot"
        );
        SlotRing {
            section,
            slot_len,
            magic,
        }
    }

    /// Number of record slots.
    pub fn capacity(&self) -> u64 {
        (self.section.len - RING_HEADER as u64) / self.slot_len as u64
    }

    /// The section this ring occupies.
    pub fn section(&self) -> Section {
        self.section
    }

    /// `(head, len)` from the durable header; a blank header is `(0, 0)`.
    fn read_header(&self, state: &PagedState) -> Result<(u64, u64), CodecError> {
        let mut header = [0u8; RING_HEADER];
        self.section
            .read(state, 0, &mut header)
            .map_err(|_| CodecError::Corrupt("ring header out of bounds"))?;
        let magic = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
        if magic == 0 {
            return Ok((0, 0));
        }
        if magic != self.magic {
            return Err(CodecError::Corrupt("ring magic mismatch"));
        }
        let slot_len = u64::from_be_bytes(header[8..16].try_into().expect("8 bytes"));
        if slot_len != self.slot_len as u64 {
            return Err(CodecError::Corrupt("ring slot length mismatch"));
        }
        let head = u64::from_be_bytes(header[16..24].try_into().expect("8 bytes"));
        let len = u64::from_be_bytes(header[24..32].try_into().expect("8 bytes"));
        if len > self.capacity() || head >= self.capacity().max(1) {
            return Err(CodecError::Corrupt("ring cursor out of range"));
        }
        Ok((head, len))
    }

    fn slot_offset(&self, index: u64) -> u64 {
        RING_HEADER as u64 + index * self.slot_len as u64
    }

    /// Number of records currently retained.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] when the durable header is invalid.
    pub fn len(&self, state: &PagedState) -> Result<u64, CodecError> {
        Ok(self.read_header(state)?.1)
    }

    /// True when no record has been pushed yet.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] when the durable header is invalid.
    pub fn is_empty(&self, state: &PagedState) -> Result<bool, CodecError> {
        Ok(self.len(state)? == 0)
    }

    /// Append `record`, overwriting (and returning) the oldest record when
    /// the ring is full.
    ///
    /// # Errors
    /// [`StateError`] when the section write fails.
    ///
    /// # Panics
    /// Panics if `record` is not exactly one slot long, or the durable
    /// header is corrupt (a region-content bug, not a caller error).
    pub fn push(
        &self,
        state: &mut PagedState,
        record: &[u8],
    ) -> Result<Option<Vec<u8>>, StateError> {
        assert_eq!(
            record.len(),
            self.slot_len,
            "record must fill its slot exactly"
        );
        let (head, len) = self.read_header(state).expect("ring header intact");
        let cap = self.capacity();
        let evicted = if len == cap {
            let mut old = vec![0u8; self.slot_len];
            self.section.read(state, self.slot_offset(head), &mut old)?;
            Some(old)
        } else {
            None
        };
        self.section
            .modify(state, self.slot_offset(head), self.slot_len)?;
        self.section.write(state, self.slot_offset(head), record)?;
        let mut header = [0u8; RING_HEADER];
        header[..8].copy_from_slice(&self.magic.to_be_bytes());
        header[8..16].copy_from_slice(&(self.slot_len as u64).to_be_bytes());
        header[16..24].copy_from_slice(&((head + 1) % cap).to_be_bytes());
        header[24..32].copy_from_slice(&(len + 1).min(cap).to_be_bytes());
        self.section.modify(state, 0, RING_HEADER)?;
        self.section.write(state, 0, &header)?;
        Ok(evicted)
    }

    /// All retained records, oldest first.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] when the durable header is invalid.
    pub fn records(&self, state: &PagedState) -> Result<Vec<Vec<u8>>, CodecError> {
        let (head, len) = self.read_header(state)?;
        let cap = self.capacity();
        let start = (head + cap - len % cap.max(1)) % cap.max(1);
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let idx = (start + i) % cap;
            let mut rec = vec![0u8; self.slot_len];
            self.section
                .read(state, self.slot_offset(idx), &mut rec)
                .map_err(|_| CodecError::Corrupt("ring slot out of bounds"))?;
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::PAGE_SIZE;

    fn state() -> PagedState {
        PagedState::new(4)
    }

    #[test]
    fn blob_cell_roundtrips_and_reads_fresh_as_none() {
        let mut st = state();
        let cell = BlobCell::new(
            Section {
                base: 0,
                len: PAGE_SIZE as u64,
            },
            0xBEEF,
        );
        assert_eq!(cell.load(&st).expect("fresh"), None);
        cell.store(&mut st, b"tables").expect("store");
        assert_eq!(cell.load(&st).expect("load"), Some(b"tables".to_vec()));
        // A shorter rewrite wins; stale tail bytes are invisible to load.
        cell.store(&mut st, b"t2").expect("store");
        assert_eq!(cell.load(&st).expect("load"), Some(b"t2".to_vec()));
        // Empty payloads are a valid stored image, distinct from "never".
        cell.store(&mut st, b"").expect("store");
        assert_eq!(cell.load(&st).expect("load"), Some(Vec::new()));
    }

    #[test]
    fn blob_cell_rejects_oversize_and_detects_corruption() {
        let mut st = state();
        let cell = BlobCell::new(Section { base: 0, len: 64 }, 0xBEEF);
        assert_eq!(cell.capacity(), 48);
        assert!(cell.store(&mut st, &[0u8; 49]).is_err());
        assert!(cell.store(&mut st, &[7u8; 48]).is_ok());
        // A different magic over the same bytes refuses to decode.
        let other = BlobCell::new(Section { base: 0, len: 64 }, 0xFEED);
        assert!(matches!(other.load(&st), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn slot_ring_pushes_evicts_and_scans_in_order() {
        let mut st = state();
        let ring = SlotRing::new(
            Section {
                base: 0,
                len: (RING_HEADER + 3 * 4) as u64,
            },
            4,
            9,
        );
        assert_eq!(ring.capacity(), 3);
        assert!(ring.is_empty(&st).expect("fresh"));
        for (i, rec) in [b"aaaa", b"bbbb", b"cccc"].iter().enumerate() {
            assert_eq!(ring.push(&mut st, &rec[..]).expect("push"), None);
            assert_eq!(ring.len(&st).expect("len"), i as u64 + 1);
        }
        assert_eq!(
            ring.push(&mut st, b"dddd").expect("push"),
            Some(b"aaaa".to_vec())
        );
        assert_eq!(
            ring.push(&mut st, b"eeee").expect("push"),
            Some(b"bbbb".to_vec())
        );
        assert_eq!(
            ring.records(&st).expect("scan"),
            vec![b"cccc".to_vec(), b"dddd".to_vec(), b"eeee".to_vec()]
        );
        assert_eq!(ring.len(&st).expect("len"), 3);
    }

    #[test]
    fn slot_ring_survives_reload_from_the_same_region() {
        let mut st = state();
        let section = Section {
            base: PAGE_SIZE as u64,
            len: 256,
        };
        let ring = SlotRing::new(section, 8, 0xAB);
        for i in 0u64..40 {
            let _ = ring.push(&mut st, &i.to_be_bytes()).expect("push");
        }
        // A fresh handle over the same bytes sees the identical tail.
        let again = SlotRing::new(section, 8, 0xAB);
        let records = again.records(&st).expect("scan");
        assert_eq!(records.len() as u64, ring.capacity());
        let newest = u64::from_be_bytes(records.last().expect("non-empty")[..].try_into().unwrap());
        assert_eq!(newest, 39);
        // Geometry disagreement is corruption, not silence.
        let wrong = SlotRing::new(section, 16, 0xAB);
        assert!(matches!(wrong.records(&st), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn containers_are_deterministic_across_instances() {
        let (mut a, mut b) = (state(), state());
        let section = Section { base: 0, len: 512 };
        let ring = SlotRing::new(section, 16, 0x11);
        let cell = BlobCell::new(
            Section {
                base: 1024,
                len: 512,
            },
            0x22,
        );
        for st in [&mut a, &mut b] {
            for i in 0u64..70 {
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&i.to_be_bytes());
                let _ = ring.push(st, &rec).expect("push");
            }
            cell.store(st, b"same image").expect("store");
        }
        assert_eq!(a.refresh_digest(), b.refresh_digest());
    }
}
