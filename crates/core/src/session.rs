//! Per-session state — the library-level subsystem the paper sketches in
//! §3.3.2.
//!
//! "The current implementation of the PBFT protocol purposely ignores the
//! notion of client-specific state. ... With our addition of application
//! level sign-on messages to the protocol, resulting in identification of
//! specific sessions, a library-level subsystem can be developed that will
//! map parts of the state to a specific session. This would enable easier
//! porting of stateful applications to the BFT world."
//!
//! This module is that subsystem. Each client session owns a small byte
//! blob inside a dedicated section of the **replicated state region**, so
//! session state is ordered with the requests that mutate it, covered by
//! checkpoints, moved by state transfer, and identical on every replica.
//! The replica hands the executing application a [`SessionCtx`] scoped to
//! the requesting client; the engine stores mutations back into the region
//! before the next request executes. The table is one [`BlobCell`] image,
//! so the section bounds it: a write whose image would not fit is refused
//! with [`SessionError::SectionFull`], identically on every replica. A
//! session's state is cleared when its session ends — by Leave, by
//! takeover (a new sign-on with the same identity) or by stale-session
//! eviction at a join (§3.1).

use std::collections::BTreeMap;

use pbft_state::{BlobCell, PagedState, Section};

use crate::types::ClientId;
use crate::wire::{Dec, Enc, WireError};

/// Upper bound for one session's blob, so a single session cannot exhaust
/// the shared section.
pub const MAX_SESSION_BYTES: usize = 1024;

/// Tag of the session cell image.
const SESSION_MAGIC: u64 = 0x5345_5353_4E53_0001; // "SESSNS" + version

/// The session-state table, held in a [`BlobCell`] over its section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStore {
    cell: BlobCell,
    entries: BTreeMap<ClientId, Vec<u8>>,
}

impl SessionStore {
    /// The table stored in `section`; empty when the section was never
    /// written.
    ///
    /// # Panics
    /// When the section holds an image that does not decode: the region is
    /// corrupt, and starting empty would overwrite it at the next store.
    pub fn open(section: Section, state: &PagedState) -> SessionStore {
        let cell = BlobCell::new(section, SESSION_MAGIC);
        let entries = match cell.load(state).expect("session cell readable") {
            Some(image) => decode(&image).expect("session table image decodes"),
            None => BTreeMap::new(),
        };
        SessionStore { cell, entries }
    }

    /// Re-read the table from the region (state transfer, rollback);
    /// panics as [`SessionStore::open`] does.
    pub fn reload(&mut self, state: &PagedState) {
        *self = SessionStore::open(self.cell.section(), state);
    }

    /// Write the table to its section (modify-notified).
    ///
    /// # Panics
    /// Never for a table changed only through this type: [`SessionStore::set`]
    /// refuses a blob whose image would not fit.
    pub fn store(&self, state: &mut PagedState) {
        self.cell
            .store(state, &self.image())
            .expect("every write was checked against the cell capacity");
    }

    /// This client's session blob, if any.
    pub fn get(&self, client: ClientId) -> Option<&[u8]> {
        self.entries.get(&client).map(|v| v.as_slice())
    }

    /// Replace this client's session blob (an empty one clears it).
    ///
    /// # Errors
    /// [`SessionError::TooLarge`] over [`MAX_SESSION_BYTES`], and
    /// [`SessionError::SectionFull`] when the table image with this blob
    /// would not fit the section. Either way nothing changes.
    pub fn set(&mut self, client: ClientId, data: Vec<u8>) -> Result<(), SessionError> {
        if data.len() > MAX_SESSION_BYTES {
            return Err(SessionError::TooLarge(data.len()));
        }
        if data.is_empty() {
            self.entries.remove(&client);
            return Ok(());
        }
        let old = self.entries.insert(client, data);
        if self.image().len() > self.cell.capacity() {
            match old {
                Some(old) => self.entries.insert(client, old),
                None => self.entries.remove(&client),
            };
            return Err(SessionError::SectionFull);
        }
        Ok(())
    }

    /// Drop this client's session state (its session ended). Returns true
    /// when state existed.
    pub fn remove(&mut self, client: ClientId) -> bool {
        self.entries.remove(&client).is_some()
    }

    /// Number of sessions holding state.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no session holds state.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cell payload: entry count, then each client and its blob.
    fn image(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.entries.len() as u32);
        for (client, data) in &self.entries {
            e.u64(client.0).bytes(data);
        }
        e.into_bytes()
    }
}

fn decode(image: &[u8]) -> Result<BTreeMap<ClientId, Vec<u8>>, WireError> {
    let mut d = Dec::new(image);
    // Client id and blob length.
    let count = d.count(8 + 4)?;
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let client = ClientId(d.u64()?);
        let data = d.bytes()?;
        if data.len() > MAX_SESSION_BYTES {
            return Err(WireError::BadLength(data.len() as u64));
        }
        entries.insert(client, data);
    }
    d.finish()?;
    Ok(entries)
}

/// The view of the session store handed to one execution upcall: scoped to
/// the requesting client, with mutation tracking so the engine persists only
/// when something changed.
#[derive(Debug)]
pub struct SessionCtx<'a> {
    store: &'a mut SessionStore,
    client: ClientId,
    read_only: bool,
    dirty: bool,
    refusals: u64,
}

impl<'a> SessionCtx<'a> {
    /// Scope `store` to `client`. `read_only` contexts reject writes (the
    /// §2.1 read-only fast path must not modify state).
    pub fn new(store: &'a mut SessionStore, client: ClientId, read_only: bool) -> SessionCtx<'a> {
        SessionCtx {
            store,
            client,
            read_only,
            dirty: false,
            refusals: 0,
        }
    }

    /// This session's blob (empty slice when none).
    pub fn get(&self) -> &[u8] {
        self.store.get(self.client).unwrap_or(&[])
    }

    /// Replace this session's blob.
    ///
    /// # Errors
    /// [`SessionError::ReadOnly`] on the read-only path, and the errors of
    /// [`SessionStore::set`].
    pub fn put(&mut self, data: &[u8]) -> Result<(), SessionError> {
        if self.read_only {
            return Err(SessionError::ReadOnly);
        }
        let out = self.store.set(self.client, data.to_vec());
        self.dirty |= out.is_ok();
        self.refusals += u64::from(out == Err(SessionError::SectionFull));
        out
    }

    /// Clear this session's blob.
    ///
    /// # Errors
    /// [`SessionError::ReadOnly`] on the read-only path.
    pub fn clear(&mut self) -> Result<(), SessionError> {
        if self.read_only {
            return Err(SessionError::ReadOnly);
        }
        if self.store.remove(self.client) {
            self.dirty = true;
        }
        Ok(())
    }

    /// Whether this upcall mutated session state (engine-side: store?).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Writes this upcall had refused with [`SessionError::SectionFull`].
    pub fn refusals(&self) -> u64 {
        self.refusals
    }
}

/// Session-state errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// Write attempted on the read-only execution path.
    ReadOnly,
    /// Blob exceeds [`MAX_SESSION_BYTES`].
    TooLarge(usize),
    /// The table image with this blob would not fit the session section.
    SectionFull,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ReadOnly => write!(f, "session write on the read-only path"),
            SessionError::TooLarge(n) => {
                write!(
                    f,
                    "session blob of {n} bytes exceeds the {MAX_SESSION_BYTES}-byte limit"
                )
            }
            SessionError::SectionFull => write!(f, "session section full"),
        }
    }
}

impl std::error::Error for SessionError {}

#[cfg(test)]
mod tests {
    use super::*;

    const SECTION: Section = Section {
        base: 0,
        len: 4 * pbft_state::PAGE_SIZE as u64,
    };

    fn empty() -> SessionStore {
        SessionStore::open(SECTION, &PagedState::new(8))
    }

    #[test]
    fn store_roundtrips_through_region() {
        let mut state = PagedState::new(8);
        let mut store = empty();
        store
            .set(ClientId(1), b"cart: 3 items".to_vec())
            .expect("fits");
        store.set(ClientId(9), b"page 4".to_vec()).expect("fits");
        store.store(&mut state);
        let back = SessionStore::open(SECTION, &state);
        assert_eq!(back, store);
        assert_eq!(back.get(ClientId(9)), Some(b"page 4".as_slice()));
    }

    #[test]
    fn fresh_region_loads_empty() {
        assert!(empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "session table image decodes")]
    fn open_over_a_corrupt_image_stops() {
        let mut state = PagedState::new(8);
        BlobCell::new(SECTION, SESSION_MAGIC)
            .store(&mut state, b"not a table")
            .expect("fits");
        let _ = SessionStore::open(SECTION, &state);
    }

    #[test]
    fn full_section_refuses_and_changes_nothing() {
        let mut store = empty();
        let blob = vec![1u8; MAX_SESSION_BYTES];
        // 12 bytes of id and length per entry, 4 of count, in 16 KiB less
        // the cell header: fifteen full blobs fit, the sixteenth does not.
        for c in 0..15 {
            store.set(ClientId(c), blob.clone()).expect("fits");
        }
        let before = store.clone();
        assert_eq!(
            store.set(ClientId(15), blob.clone()),
            Err(SessionError::SectionFull)
        );
        assert_eq!(
            store.set(ClientId(0), vec![2u8; 1]).map(|()| store.len()),
            Ok(15),
            "shrinking a blob always fits"
        );
        assert_eq!(
            store.set(ClientId(0), blob.clone()),
            Ok(()),
            "and so does growing it back"
        );
        assert_eq!(store, before);
        let mut ctx = SessionCtx::new(&mut store, ClientId(15), false);
        assert_eq!(ctx.put(&blob), Err(SessionError::SectionFull));
        assert_eq!(ctx.refusals(), 1);
        assert!(!ctx.is_dirty());
    }

    #[test]
    fn remove_and_empty_set_drop_entries() {
        let mut store = empty();
        store.set(ClientId(1), b"x".to_vec()).expect("fits");
        assert!(store.remove(ClientId(1)));
        assert!(!store.remove(ClientId(1)));
        store.set(ClientId(2), b"y".to_vec()).expect("fits");
        store.set(ClientId(2), Vec::new()).expect("clears"); // empty = clear
        assert!(store.is_empty());
    }

    #[test]
    fn ctx_tracks_dirtiness() {
        let mut store = empty();
        let mut ctx = SessionCtx::new(&mut store, ClientId(3), false);
        assert_eq!(ctx.get(), b"");
        assert!(!ctx.is_dirty());
        ctx.put(b"hello").expect("put");
        assert!(ctx.is_dirty());
        assert_eq!(ctx.get(), b"hello");
        assert_eq!(store.get(ClientId(3)), Some(b"hello".as_slice()));
    }

    #[test]
    fn ctx_clear_only_dirties_when_state_existed() {
        let mut store = empty();
        let mut ctx = SessionCtx::new(&mut store, ClientId(3), false);
        ctx.clear().expect("clear nothing");
        assert!(!ctx.is_dirty());
        ctx.put(b"x").expect("put");
        let mut ctx = SessionCtx::new(&mut store, ClientId(3), false);
        ctx.clear().expect("clear");
        assert!(ctx.is_dirty());
    }

    #[test]
    fn read_only_ctx_rejects_writes() {
        let mut store = empty();
        let mut ctx = SessionCtx::new(&mut store, ClientId(3), true);
        assert_eq!(ctx.put(b"x"), Err(SessionError::ReadOnly));
        assert_eq!(ctx.clear(), Err(SessionError::ReadOnly));
        assert!(!ctx.is_dirty());
    }

    #[test]
    fn oversized_blob_rejected() {
        let mut store = empty();
        let mut ctx = SessionCtx::new(&mut store, ClientId(3), false);
        let big = vec![0u8; MAX_SESSION_BYTES + 1];
        assert!(matches!(ctx.put(&big), Err(SessionError::TooLarge(_))));
        assert_eq!(
            ctx.refusals(),
            0,
            "a blob over the limit is not a full section"
        );
        let ok = vec![0u8; MAX_SESSION_BYTES];
        assert!(ctx.put(&ok).is_ok());
    }

    #[test]
    fn sessions_isolated_per_client() {
        let mut store = empty();
        SessionCtx::new(&mut store, ClientId(1), false)
            .put(b"a")
            .expect("put");
        SessionCtx::new(&mut store, ClientId(2), false)
            .put(b"b")
            .expect("put");
        assert_eq!(SessionCtx::new(&mut store, ClientId(1), false).get(), b"a");
        assert_eq!(SessionCtx::new(&mut store, ClientId(2), false).get(), b"b");
    }

    #[test]
    fn errors_display() {
        assert!(SessionError::ReadOnly.to_string().contains("read-only"));
        assert!(SessionError::TooLarge(9999).to_string().contains("9999"));
        assert!(SessionError::SectionFull.to_string().contains("full"));
    }
}
