//! The application upcall interface.
//!
//! "The server part of an application wishing to use PBFT services is
//! expected to initialize the library and then wait for up-calls from it, to
//! service requests and produce replies" (§2.1). The upcalls reproduced here:
//!
//! * [`App::execute`] — execute one ordered operation against the replicated
//!   state region,
//! * [`App::make_nondet`] / [`App::validate_nondet`] — the non-determinism
//!   mechanism of §2.5 (primary attaches data, backups validate it),
//! * [`App::authorize_join`] — the application-level identification buffer
//!   check of the dynamic-membership Join (§3.1),
//! * [`App::on_state_installed`] — invalidate caches after state transfer
//!   (an upcall the original library also needs but the paper shows is easy
//!   to get wrong).
//!
//! Operations stay opaque to the library: it never asks what one touches.

use std::cell::RefCell;
use std::rc::Rc;

use pbft_state::PagedState;

use crate::types::ClientId;

/// Shared handle to the replica's state region. The protocol engine and the
/// application both access the region (the engine for checkpoints and state
/// transfer, the application during execution), mirroring the single shared
/// memory region of the original library.
pub type StateHandle = Rc<RefCell<PagedState>>;

/// Non-deterministic data chosen by the primary and agreed through the
/// pre-prepare (§2.5): a wall-clock timestamp and a random value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NonDet {
    /// The primary's clock at assignment time (nanoseconds).
    pub timestamp_ns: u64,
    /// The primary's random value.
    pub random: u64,
}

/// Execution-side resource metrics reported by the application, charged to
/// virtual time by the driving harness. A null operation reports all zeros —
/// this is exactly what makes "null operations per second" unrepresentative
/// of real applications (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecMetrics {
    /// CPU microseconds consumed by application logic.
    pub cpu_us: f64,
    /// Synchronous flushes to stable storage (fsync equivalents).
    pub disk_flushes: u64,
    /// Bytes written to stable storage.
    pub disk_write_bytes: u64,
}

impl ExecMetrics {
    /// Accumulate another metrics record.
    pub fn add(&mut self, other: &ExecMetrics) {
        self.cpu_us += other.cpu_us;
        self.disk_flushes += other.disk_flushes;
        self.disk_write_bytes += other.disk_write_bytes;
    }
}

/// The replicated application.
pub trait App {
    /// Execute one ordered operation. `nondet` is the agreed
    /// non-deterministic data; `read_only` marks the §2.1 read-only fast
    /// path (the application must not modify state). Returns the reply body
    /// and resource metrics.
    fn execute(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics);

    /// Execute one ordered operation with access to the library-managed
    /// per-session state (the §3.3.2 subsystem; see [`crate::session`]).
    /// The default ignores the session and calls [`App::execute`] —
    /// stateless applications need not know sessions exist.
    fn execute_with_session(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
        session: &mut crate::session::SessionCtx<'_>,
    ) -> (Vec<u8>, ExecMetrics) {
        let _ = session;
        self.execute(client, op, nondet, read_only)
    }

    /// Produce non-deterministic data (primary-side upcall). The default
    /// uses the local clock and the provided randomness.
    fn make_nondet(&mut self, now_ns: u64, random: u64) -> NonDet {
        NonDet {
            timestamp_ns: now_ns,
            random,
        }
    }

    /// Validate the primary's non-deterministic data (backup-side upcall,
    /// added by the BASE follow-up work; §2.5). `window_ns` comes from
    /// configuration. The default accepts timestamps within the window and
    /// any randomness.
    fn validate_nondet(&self, nondet: &NonDet, now_ns: u64, window_ns: u64) -> bool {
        let delta = now_ns.abs_diff(nondet.timestamp_ns);
        delta <= window_ns
    }

    /// Authorize a joining client from its application-level identification
    /// buffer; returns the application identity (e.g. a user id) to bind to
    /// the session, or `None` to reject (§3.1). Only one session per
    /// application identity may be active. The default accepts everybody,
    /// binding the identity to the buffer itself.
    fn authorize_join(&mut self, idbuf: &[u8]) -> Option<Vec<u8>> {
        Some(idbuf.to_vec())
    }

    /// Called after the engine installs pages via state transfer or rollback
    /// so the application can drop caches derived from state contents.
    fn on_state_installed(&mut self) {}
}

/// The null application: empty execution, used for the paper's §4.1
/// benchmarks. The reply body size is configurable (the paper's experiments
/// use equal request and reply sizes).
#[derive(Debug)]
pub struct NullApp {
    reply_size: usize,
    executed: u64,
}

impl NullApp {
    /// Create a null app whose replies are `reply_size` bytes.
    pub fn new(reply_size: usize) -> Self {
        NullApp {
            reply_size,
            executed: 0,
        }
    }

    /// Number of operations executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl App for NullApp {
    fn execute(
        &mut self,
        _client: ClientId,
        _op: &[u8],
        _nondet: &NonDet,
        _read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        self.executed += 1;
        (vec![0u8; self.reply_size], ExecMetrics::default())
    }
}

/// A tiny key-value application over the state region, used by tests to give
/// executions real state effects (so checkpoints and state transfer move
/// actual data). Ops: `put <k8> <v8>` / `get <k8>` over fixed 8-byte keys,
/// stored at `hash(key) % slots` in the app section.
#[derive(Debug)]
pub struct KvApp {
    state: StateHandle,
    base: u64,
    slots: u64,
}

impl KvApp {
    /// Operation encoding for `put`.
    pub fn op_put(key: u64, value: u64) -> Vec<u8> {
        let mut v = vec![b'p'];
        v.extend_from_slice(&key.to_be_bytes());
        v.extend_from_slice(&value.to_be_bytes());
        v
    }

    /// Operation encoding for `get`.
    pub fn op_get(key: u64) -> Vec<u8> {
        let mut v = vec![b'g'];
        v.extend_from_slice(&key.to_be_bytes());
        v
    }

    /// Create a KvApp storing slots starting at byte `base` of the region.
    pub fn new(state: StateHandle, base: u64, slots: u64) -> Self {
        KvApp { state, base, slots }
    }

    fn slot_offset(&self, key: u64) -> u64 {
        self.base + (key % self.slots) * 16
    }
}

impl App for KvApp {
    fn execute(
        &mut self,
        _client: ClientId,
        op: &[u8],
        _nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        let metrics = ExecMetrics {
            cpu_us: 1.0,
            ..Default::default()
        };
        if op.len() < 9 {
            return (b"err".to_vec(), metrics);
        }
        let key = u64::from_be_bytes(op[1..9].try_into().expect("8 bytes"));
        let off = self.slot_offset(key);
        match op[0] {
            b'p' if !read_only && op.len() >= 17 => {
                let mut st = self.state.borrow_mut();
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&key.to_be_bytes());
                rec[8..].copy_from_slice(&op[9..17]);
                st.modify(off, 16).expect("in-bounds slot");
                st.write(off, &rec).expect("modified slot");
                (b"ok".to_vec(), metrics)
            }
            b'g' => {
                let st = self.state.borrow();
                let rec = st.read_vec(off, 16).expect("in-bounds slot");
                (rec, metrics)
            }
            _ => (b"err".to_vec(), metrics),
        }
    }
}

/// A demonstration of the §3.3.2 session-state subsystem: each session
/// owns a counter in library-managed state. Ops: `incr` bumps and returns
/// the counter; `read` returns it (usable on the read-only path); `reset`
/// clears it. A fresh session always starts from zero — the library clears
/// session state on Leave and on session takeover.
#[derive(Debug, Default)]
pub struct SessionCounterApp;

impl SessionCounterApp {
    fn counter(session: &crate::session::SessionCtx<'_>) -> u64 {
        let bytes = session.get();
        if bytes.len() == 8 {
            u64::from_be_bytes(bytes.try_into().expect("8 bytes"))
        } else {
            0
        }
    }
}

impl App for SessionCounterApp {
    fn execute(
        &mut self,
        _client: ClientId,
        _op: &[u8],
        _nondet: &NonDet,
        _read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        (
            b"err: session app requires session execution".to_vec(),
            ExecMetrics::default(),
        )
    }

    fn execute_with_session(
        &mut self,
        _client: ClientId,
        op: &[u8],
        _nondet: &NonDet,
        read_only: bool,
        session: &mut crate::session::SessionCtx<'_>,
    ) -> (Vec<u8>, ExecMetrics) {
        let metrics = ExecMetrics {
            cpu_us: 1.0,
            ..Default::default()
        };
        let reply = match op {
            b"incr" if !read_only => {
                let next = Self::counter(session) + 1;
                match session.put(&next.to_be_bytes()) {
                    Ok(()) => next.to_be_bytes().to_vec(),
                    Err(e) => format!("err: {e}").into_bytes(),
                }
            }
            b"read" => Self::counter(session).to_be_bytes().to_vec(),
            b"reset" if !read_only => match session.clear() {
                Ok(()) => 0u64.to_be_bytes().to_vec(),
                Err(e) => format!("err: {e}").into_bytes(),
            },
            _ => b"err: unknown op".to_vec(),
        };
        (reply, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(pages: usize) -> StateHandle {
        Rc::new(RefCell::new(PagedState::new(pages)))
    }

    #[test]
    fn null_app_reply_size() {
        let mut app = NullApp::new(128);
        let (reply, m) = app.execute(ClientId(1), b"x", &NonDet::default(), false);
        assert_eq!(reply.len(), 128);
        assert_eq!(m, ExecMetrics::default());
        assert_eq!(app.executed(), 1);
    }

    #[test]
    fn kv_put_get() {
        let st = handle(4);
        let mut app = KvApp::new(st.clone(), 0, 32);
        let (r, _) = app.execute(
            ClientId(1),
            &KvApp::op_put(5, 99),
            &NonDet::default(),
            false,
        );
        assert_eq!(r, b"ok");
        let (r, _) = app.execute(ClientId(1), &KvApp::op_get(5), &NonDet::default(), true);
        assert_eq!(u64::from_be_bytes(r[8..16].try_into().unwrap()), 99);
        // State region actually changed.
        assert!(st.borrow().dirty_pages() > 0);
    }

    #[test]
    fn kv_rejects_malformed() {
        let mut app = KvApp::new(handle(1), 0, 4);
        let (r, _) = app.execute(ClientId(1), b"zz", &NonDet::default(), false);
        assert_eq!(r, b"err");
        // put refused on the read-only path
        let (r, _) = app.execute(ClientId(1), &KvApp::op_put(1, 1), &NonDet::default(), true);
        assert_eq!(r, b"err");
    }

    #[test]
    fn default_nondet_validation_window() {
        let app = NullApp::new(0);
        let nd = NonDet {
            timestamp_ns: 1_000_000,
            random: 5,
        };
        assert!(app.validate_nondet(&nd, 1_100_000, 200_000));
        assert!(!app.validate_nondet(&nd, 2_000_000, 200_000));
        // Symmetric: primary clock ahead of ours.
        assert!(app.validate_nondet(&nd, 900_000, 200_000));
    }

    #[test]
    fn default_join_authorization_accepts() {
        let mut app = NullApp::new(0);
        assert_eq!(app.authorize_join(b"alice"), Some(b"alice".to_vec()));
    }

    #[test]
    fn session_counter_app_counts_per_session() {
        use crate::session::{SessionCtx, SessionStore};
        let mut app = SessionCounterApp;
        let section = pbft_state::Section {
            base: 0,
            len: pbft_state::PAGE_SIZE as u64,
        };
        let mut store = SessionStore::open(section, &pbft_state::PagedState::new(1));
        for expect in 1..=3u64 {
            let mut ctx = SessionCtx::new(&mut store, ClientId(1), false);
            let (r, _) =
                app.execute_with_session(ClientId(1), b"incr", &NonDet::default(), false, &mut ctx);
            assert_eq!(r, expect.to_be_bytes());
        }
        // A different session counts separately.
        let mut ctx = SessionCtx::new(&mut store, ClientId(2), false);
        let (r, _) =
            app.execute_with_session(ClientId(2), b"incr", &NonDet::default(), false, &mut ctx);
        assert_eq!(r, 1u64.to_be_bytes());
        // Read on the read-only path.
        let mut ctx = SessionCtx::new(&mut store, ClientId(1), true);
        let (r, _) =
            app.execute_with_session(ClientId(1), b"read", &NonDet::default(), true, &mut ctx);
        assert_eq!(r, 3u64.to_be_bytes());
        assert!(!ctx.is_dirty());
        // incr is rejected on the read-only path (the app guards it).
        let mut ctx = SessionCtx::new(&mut store, ClientId(1), true);
        let (r, _) =
            app.execute_with_session(ClientId(1), b"incr", &NonDet::default(), true, &mut ctx);
        assert!(r.starts_with(b"err"));
    }

    #[test]
    fn exec_metrics_accumulate() {
        let mut a = ExecMetrics {
            cpu_us: 1.0,
            disk_flushes: 1,
            disk_write_bytes: 10,
        };
        a.add(&ExecMetrics {
            cpu_us: 2.0,
            disk_flushes: 3,
            disk_write_bytes: 5,
        });
        assert_eq!(a.disk_flushes, 4);
        assert_eq!(a.disk_write_bytes, 15);
        assert!((a.cpu_us - 3.0).abs() < 1e-9);
    }
}
