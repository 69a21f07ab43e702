//! `SqlApp`: the PBFT application that executes SQL over the replicated
//! state region.

use std::cell::RefCell;
use std::rc::Rc;

use minisql::{Database, DbOptions, Env, ExecOutcome, FixedEnv, JournalMode, MemVfs, SqlError};
use pbft_core::app::{App, ExecMetrics, NonDet, StateHandle};
use pbft_core::replica::LIB_REGION_PAGES;
use pbft_core::types::ClientId;
use pbft_state::Section;

use crate::outcome::encode_outcome;
use crate::vfs::{StateVfs, SyncCounter};

/// CPU-cost model for SQL execution, in microseconds. These are the knobs
/// the experiment harness calibrates so that Figure 5's absolute throughput
/// lands near the paper's (the *shape* comes from the protocol + I/O
/// structure, not from these constants).
///
/// Synchronous flushes are *not* CPU: they are reported via
/// [`ExecMetrics::disk_flushes`] and charged by the deployment layer's cost
/// model, so they must not appear here (that would double-count them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Fixed parse/plan/execute cost per statement.
    pub stmt_base_us: f64,
    /// Per page read from the database file (cache misses).
    pub page_read_us: f64,
    /// Per page written back.
    pub page_write_us: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile {
            stmt_base_us: 60.0,
            page_read_us: 4.0,
            page_write_us: 12.0,
        }
    }
}

/// Default WAL auto-checkpoint threshold when the log lives in the
/// replicated region: small enough that the WAL section (a quarter of the
/// application partition) never fills, large enough to amortize checkpoint
/// writes over many commits.
pub const REPLICATED_WAL_AUTOCHECKPOINT: u64 = 64;

/// A join authorizer: maps the §3.1 identification buffer to the
/// application identity to bind, or `None` to deny.
pub type JoinAuthorizer = Box<dyn FnMut(&[u8]) -> Option<Vec<u8>>>;

/// The database's `now()` / `random()`: the primary's agreed values,
/// shared with the [`SqlApp`] that sets them before each operation.
#[derive(Debug, Clone, Default)]
struct AgreedEnv(Rc<RefCell<FixedEnv>>);

impl Env for AgreedEnv {
    fn now_ns(&mut self) -> i64 {
        self.0.borrow_mut().now_ns()
    }

    fn random(&mut self) -> i64 {
        self.0.borrow_mut().random()
    }
}

/// A [`pbft_core::App`] whose operations are SQL scripts (UTF-8 bytes) and
/// whose replies are canonically encoded outcomes.
pub struct SqlApp {
    db: Database,
    env: AgreedEnv,
    state: StateHandle,
    vfs_syncs: SyncCounter,
    cost: CostProfile,
    authorizer: Option<JoinAuthorizer>,
    executed: u64,
}

impl std::fmt::Debug for SqlApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlApp")
            .field("executed", &self.executed)
            .finish()
    }
}

impl SqlApp {
    /// The application partition of a replica's state region (everything
    /// after the library partition).
    pub fn app_section(state: &StateHandle) -> Section {
        let base = LIB_REGION_PAGES * pbft_state::PAGE_SIZE as u64;
        let len = state.borrow().len() - base;
        Section { base, len }
    }

    /// The database-file and WAL sub-sections used in WAL mode (the first
    /// three quarters of the application partition hold the database; the
    /// write-ahead log takes the rest).
    pub fn wal_mode_sections(state: &StateHandle) -> (Section, Section) {
        let app = Self::app_section(state);
        let page = pbft_state::PAGE_SIZE as u64;
        let app_pages = app.len / page;
        let db_pages = (app_pages * 3 / 4).max(1);
        let db = Section {
            base: app.base,
            len: db_pages * page,
        };
        let wal = Section {
            base: app.base + db.len,
            len: app.len - db.len,
        };
        (db, wal)
    }

    /// Open (or re-open after restart) the replicated database and wrap it
    /// as a PBFT app. `setup_sql` runs once if the database is freshly
    /// created (deterministic across replicas: they all run it at
    /// construction, before the genesis checkpoint).
    ///
    /// In [`JournalMode::Rollback`] and [`JournalMode::Off`] the second file
    /// is a plain in-memory file outside the replicated state, exactly as
    /// the paper keeps the rollback journal "stored on disk, since ... it is
    /// not actually part of the application state". In [`JournalMode::Wal`]
    /// the log *is* committed application state (the database file alone is
    /// stale between checkpoints), so it is mounted on its own section of
    /// the replicated region, and the auto-checkpoint threshold is
    /// frame-count-based — deterministic across replicas.
    ///
    /// # Errors
    /// Propagates database open/setup failures.
    pub fn open(
        state: StateHandle,
        journal_mode: JournalMode,
        cost: CostProfile,
        setup_sql: Option<&str>,
    ) -> Result<SqlApp, SqlError> {
        Self::open_with(
            state,
            journal_mode,
            REPLICATED_WAL_AUTOCHECKPOINT,
            cost,
            setup_sql,
        )
    }

    /// [`SqlApp::open`] with an explicit WAL auto-checkpoint threshold
    /// (committed frames; ignored outside WAL mode).
    ///
    /// # Errors
    /// Propagates database open/setup failures.
    pub fn open_with(
        state: StateHandle,
        journal_mode: JournalMode,
        wal_autocheckpoint: u64,
        cost: CostProfile,
        setup_sql: Option<&str>,
    ) -> Result<SqlApp, SqlError> {
        let syncs: SyncCounter = Rc::new(RefCell::new(0));
        let (db_section, wal_vfs): (Section, Box<dyn minisql::Vfs>) = match journal_mode {
            JournalMode::Wal => {
                let (db_section, wal_section) = Self::wal_mode_sections(&state);
                let wal_vfs = StateVfs::fixed(state.clone(), wal_section, syncs.clone());
                (db_section, Box::new(wal_vfs))
            }
            _ => (Self::app_section(&state), Box::new(MemVfs::new())),
        };
        let vfs = StateVfs::new(state.clone(), db_section, syncs.clone());
        let fresh = minisql::Vfs::len(&vfs) == 0 && !minisql::wal::is_present(wal_vfs.as_ref());
        let env = AgreedEnv::default();
        let mut db = Database::open(
            Box::new(vfs),
            wal_vfs,
            DbOptions {
                journal_mode,
                wal_autocheckpoint,
                env: Box::new(env.clone()),
            },
        )?;
        if fresh {
            if let Some(sql) = setup_sql {
                db.execute_script(sql)?;
            }
        }
        let mut app = SqlApp {
            db,
            env,
            state,
            vfs_syncs: syncs,
            cost,
            authorizer: None,
            executed: 0,
        };
        // Discard setup-time costs.
        let _ = app.db.take_io_stats();
        *app.vfs_syncs.borrow_mut() = 0;
        Ok(app)
    }

    /// Install a join authorizer (the §3.1 identification-buffer check).
    pub fn set_authorizer(&mut self, f: JoinAuthorizer) {
        self.authorizer = Some(f);
    }

    /// Direct access to the database (setup, inspection, tests).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The state region backing this app (diagnostics and tests).
    pub fn state(&self) -> &StateHandle {
        &self.state
    }

    /// Operations executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    fn drain_metrics(&mut self) -> ExecMetrics {
        let io = self.db.take_io_stats();
        let vfs_syncs = std::mem::take(&mut *self.vfs_syncs.borrow_mut());
        let total_syncs = io.syncs.max(vfs_syncs);
        let cpu_us = self.cost.stmt_base_us
            + io.pages_read as f64 * self.cost.page_read_us
            + io.db_pages_written as f64 * self.cost.page_write_us;
        ExecMetrics {
            cpu_us,
            disk_flushes: total_syncs,
            disk_write_bytes: io.db_pages_written * minisql::PAGE_SIZE as u64 + io.journal_bytes,
        }
    }
}

impl App for SqlApp {
    fn execute(
        &mut self,
        _client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        // Non-determinism plumbing (§3.2): `now()`/`random()` evaluate to the
        // primary's agreed values on every replica.
        *self.env.0.borrow_mut() = FixedEnv {
            now_ns: nondet.timestamp_ns as i64,
            random_state: nondet.random as i64,
        };
        // Invalid bytes are replaced (the lossy form); valid text is used as
        // it is, without the lossy form's slower scan.
        let lossy;
        let sql = match std::str::from_utf8(op) {
            Ok(sql) => sql,
            Err(_) => {
                lossy = String::from_utf8_lossy(op);
                &*lossy
            }
        };
        let result = if read_only {
            // The read-only fast path must not modify state: a statement
            // that is not a SELECT is rejected before it runs.
            match self.db.execute_select(sql) {
                Ok(Some(rows)) => Ok(ExecOutcome::Rows(rows)),
                Ok(None) => Err(SqlError::Runtime(
                    "write statement on the read-only path".into(),
                )),
                Err(e) => Err(e),
            }
        } else {
            self.db.execute_script(sql)
        };
        self.executed += 1;
        let reply = encode_outcome(&result);
        let metrics = self.drain_metrics();
        (reply, metrics)
    }

    fn authorize_join(&mut self, idbuf: &[u8]) -> Option<Vec<u8>> {
        match &mut self.authorizer {
            Some(f) => f(idbuf),
            None => Some(idbuf.to_vec()),
        }
    }

    fn on_state_installed(&mut self) {
        // The region changed underneath the pager: drop every cache. A
        // fresh/empty region is fine too (e.g. rollback to genesis).
        let _ = self.db.invalidate_cache();
    }
}

/// Build the standard state region for a SQL-backed replica: library
/// partition + an application partition of `app_pages` pages.
pub fn sql_state(app_pages: usize) -> StateHandle {
    Rc::new(RefCell::new(pbft_state::PagedState::new(
        LIB_REGION_PAGES as usize + app_pages,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{decode_outcome, WireOutcome};
    use minisql::Value;

    const SETUP: &str =
        "CREATE TABLE kv (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";

    fn app(mode: JournalMode) -> SqlApp {
        SqlApp::open(sql_state(64), mode, CostProfile::default(), Some(SETUP)).expect("open")
    }

    fn nd(ts: u64, rnd: u64) -> NonDet {
        NonDet {
            timestamp_ns: ts,
            random: rnd,
        }
    }

    #[test]
    fn executes_inserts_and_queries() {
        let mut a = app(JournalMode::Rollback);
        let (reply, metrics) = a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('alice', 'yes', now(), random())",
            &nd(123, 9),
            false,
        );
        assert_eq!(decode_outcome(&reply), Some(WireOutcome::Affected(1)));
        assert!(metrics.cpu_us > 0.0);
        assert!(metrics.disk_flushes > 0, "ACID mode flushes on commit");

        let (reply, _) = a.execute(ClientId(1), b"SELECT k, v, ts FROM kv", &nd(456, 0), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => {
                assert_eq!(rows.rows[0][0], Value::Text("alice".into()));
                assert_eq!(
                    rows.rows[0][2],
                    Value::Integer(123),
                    "now() = agreed nondet"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn identical_nondet_identical_replies_across_replicas() {
        let mut a = app(JournalMode::Rollback);
        let mut b = app(JournalMode::Rollback);
        let op = b"INSERT INTO kv (k, v, ts, rnd) VALUES ('v', 'x', now(), random())";
        let (ra, _) = a.execute(ClientId(1), op, &nd(5, 7), false);
        let (rb, _) = b.execute(ClientId(1), op, &nd(5, 7), false);
        assert_eq!(ra, rb, "replies must match bit-for-bit");
        // And the state regions too.
        let da = a.state.borrow_mut().refresh_digest();
        let db = b.state.borrow_mut().refresh_digest();
        assert_eq!(da, db);
    }

    #[test]
    fn no_acid_mode_skips_flushes() {
        let mut a = app(JournalMode::Off);
        let (_, metrics) = a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', 0, 0)",
            &nd(1, 1),
            false,
        );
        assert_eq!(metrics.disk_flushes, 0);
        let acid = app(JournalMode::Rollback);
        drop(acid);
    }

    #[test]
    fn read_only_path_rejects_writes() {
        let mut a = app(JournalMode::Rollback);
        let insert: &[u8] = b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', now(), random())";
        let count = |a: &mut SqlApp| {
            let (reply, _) = a.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(1, 1), true);
            match decode_outcome(&reply) {
                Some(WireOutcome::Rows(rows)) => rows.rows[0][0].clone(),
                other => panic!("{other:?}"),
            }
        };
        let root = |a: &SqlApp| a.state.borrow_mut().refresh_digest();
        a.execute(ClientId(1), insert, &nd(1, 1), false);
        let writes: [&[u8]; 5] = [
            b"INSERT INTO kv (k) VALUES ('x')",
            b"UPDATE kv SET v = 'z'",
            b"DELETE FROM kv",
            b"CREATE TABLE other (x INTEGER)",
            b"BEGIN",
        ];
        for (i, op) in writes.into_iter().enumerate() {
            let what = String::from_utf8_lossy(op);
            let (rows, before) = (count(&mut a), root(&a));
            let (reply, _) = a.execute(ClientId(1), op, &nd(2, 2), true);
            assert_eq!(
                decode_outcome(&reply),
                Some(WireOutcome::Error(
                    "runtime error: write statement on the read-only path".into()
                )),
                "{what}"
            );
            assert_eq!(count(&mut a), rows, "{what} ran");
            assert_eq!(root(&a), before, "{what} changed the state");
            // The next ordered write commits.
            let (reply, _) = a.execute(ClientId(1), insert, &nd(3, 3), false);
            assert_eq!(decode_outcome(&reply), Some(WireOutcome::Affected(1)));
            assert!(!a.db.has_uncommitted(), "after {what}");
            assert_ne!(root(&a), before, "after {what}");
            assert_eq!(count(&mut a), Value::Integer(i as i64 + 2), "after {what}");
        }
    }

    /// An ordered `BEGIN` and `INSERT` on every replica of `replicas`.
    fn open_transaction(replicas: &mut [&mut SqlApp]) {
        for a in replicas {
            a.execute(ClientId(1), b"BEGIN", &nd(1, 1), false);
            let (reply, _) = a.execute(
                ClientId(1),
                b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', 0, 0)",
                &nd(1, 1),
                false,
            );
            assert_eq!(decode_outcome(&reply), Some(WireOutcome::Affected(1)));
        }
    }

    const READ_IN_TXN: &str = "transaction error: read-only statement inside an open transaction";

    #[test]
    fn a_read_only_select_does_not_see_an_open_transaction() {
        let mut a = app(JournalMode::Rollback);
        open_transaction(&mut [&mut a]);
        let (reply, _) = a.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(2, 2), true);
        assert_eq!(
            decode_outcome(&reply),
            Some(WireOutcome::Error(READ_IN_TXN.into())),
            "the uncommitted row was read"
        );
    }

    #[test]
    fn a_failing_read_only_select_leaves_an_open_transaction_alone() {
        let (mut served, mut other) = (app(JournalMode::Rollback), app(JournalMode::Rollback));
        open_transaction(&mut [&mut served, &mut other]);
        let (read, _) = served.execute(ClientId(1), b"SELECT * FROM nosuch", &nd(2, 2), true);
        for (who, a) in [("served", &mut served), ("other", &mut other)] {
            let (reply, _) = a.execute(ClientId(1), b"COMMIT", &nd(3, 3), false);
            assert_eq!(decode_outcome(&reply), Some(WireOutcome::Done), "{who}");
            let (reply, _) = a.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(4, 4), true);
            assert_eq!(
                decode_outcome(&reply),
                Some(WireOutcome::Rows(minisql::Rows {
                    columns: vec!["count(*)".into()],
                    rows: vec![vec![Value::Integer(1)]],
                })),
                "{who}"
            );
        }
        let root = |a: &SqlApp| a.state.borrow_mut().refresh_digest();
        assert_eq!(root(&served), root(&other), "the replicas diverged");
        assert_eq!(
            decode_outcome(&read),
            Some(WireOutcome::Error(READ_IN_TXN.into()))
        );
    }

    #[test]
    fn errors_are_deterministic() {
        let mut a = app(JournalMode::Rollback);
        let mut b = app(JournalMode::Rollback);
        let op = b"INSERT INTO missing (x) VALUES (1)";
        let (ra, _) = a.execute(ClientId(1), op, &nd(1, 1), false);
        let (rb, _) = b.execute(ClientId(1), op, &nd(1, 1), false);
        assert_eq!(ra, rb);
        assert!(matches!(decode_outcome(&ra), Some(WireOutcome::Error(_))));
    }

    #[test]
    fn reopen_after_restart_sees_data() {
        let state = sql_state(64);
        {
            let mut a = SqlApp::open(
                state.clone(),
                JournalMode::Rollback,
                CostProfile::default(),
                Some(SETUP),
            )
            .expect("open");
            let (_, _) = a.execute(
                ClientId(1),
                b"INSERT INTO kv (k, v, ts, rnd) VALUES ('p', 'q', 0, 0)",
                &nd(1, 1),
                false,
            );
        }
        // Restart: a new SqlApp over the same (durable) region; setup_sql
        // must NOT run again.
        let mut b = SqlApp::open(
            state,
            JournalMode::Rollback,
            CostProfile::default(),
            Some(SETUP),
        )
        .expect("reopen");
        let (reply, _) = b.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(2, 2), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => assert_eq!(rows.rows[0][0], Value::Integer(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn state_installed_invalidates_caches() {
        let mut a = app(JournalMode::Rollback);
        a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', 0, 0)",
            &nd(1, 1),
            false,
        );
        // Snapshot the region, mutate it (simulating a state transfer that
        // installed someone else's pages), restore, and make sure the app
        // picks up the restored content.
        let snap = {
            let mut st = a.state.borrow_mut();
            st.refresh_digest();
            st.snapshot(1)
        };
        a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('c', 'd', 0, 0)",
            &nd(2, 2),
            false,
        );
        {
            let mut st = a.state.borrow_mut();
            st.restore(&snap).expect("restore");
        }
        a.on_state_installed();
        let (reply, _) = a.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(3, 3), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => {
                assert_eq!(
                    rows.rows[0][0],
                    Value::Integer(1),
                    "second insert rolled back"
                )
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn after_a_restore_queries_read_the_restored_pages() {
        let insert = |a: &mut SqlApp, k: &str| {
            let op = format!("INSERT INTO kv (k, v, ts, rnd) VALUES ('{k}', 'old', 0, 0)");
            a.execute(ClientId(1), op.as_bytes(), &nd(1, 1), false);
        };
        let values = |a: &mut SqlApp| {
            let (reply, _) = a.execute(ClientId(1), b"SELECT v FROM kv", &nd(2, 2), true);
            match decode_outcome(&reply) {
                Some(WireOutcome::Rows(rows)) => rows.rows,
                other => panic!("{other:?}"),
            }
        };
        let (mut a, mut twin) = (app(JournalMode::Rollback), app(JournalMode::Rollback));
        for k in ["a", "b", "c"] {
            insert(&mut a, k);
            insert(&mut twin, k);
        }
        let snap = {
            let mut st = a.state.borrow_mut();
            st.refresh_digest();
            st.snapshot(1)
        };
        // The pager now shares the updated pages with the region; the
        // restore puts the snapshot's pages back under it.
        a.execute(ClientId(1), b"UPDATE kv SET v = 'new'", &nd(3, 3), false);
        assert!(values(&mut a)
            .iter()
            .all(|r| r[0] == Value::Text("new".into())));
        a.state.borrow_mut().restore(&snap).expect("restore");
        a.on_state_installed();
        assert_eq!(values(&mut a), values(&mut twin), "a stale page was read");
        // And what is written next builds on the restored pages.
        insert(&mut a, "d");
        insert(&mut twin, "d");
        let root = |a: &SqlApp| a.state.borrow_mut().refresh_digest();
        assert_eq!(root(&a), root(&twin));
    }

    // ------------------------------------------------------------------
    // WAL mode over the replicated region
    // ------------------------------------------------------------------

    fn wal_app(state: StateHandle) -> SqlApp {
        SqlApp::open_with(
            state,
            JournalMode::Wal,
            8,
            CostProfile::default(),
            Some(SETUP),
        )
        .expect("open wal")
    }

    #[test]
    fn wal_mode_single_flush_per_insert() {
        let mut a = wal_app(sql_state(64));
        let (_, metrics) = a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', now(), random())",
            &nd(1, 1),
            false,
        );
        assert_eq!(
            metrics.disk_flushes, 1,
            "WAL commits with one sync; rollback journal needs three"
        );
    }

    #[test]
    fn wal_mode_replicas_stay_digest_identical() {
        let mut a = wal_app(sql_state(64));
        let mut b = wal_app(sql_state(64));
        // Cross an auto-checkpoint boundary (threshold 8 frames) so both the
        // append path and the checkpoint path are covered.
        for i in 0..12u64 {
            let op =
                format!("INSERT INTO kv (k, v, ts, rnd) VALUES ('k{i}', 'v{i}', now(), random())");
            let (ra, _) = a.execute(ClientId(1), op.as_bytes(), &nd(i, i), false);
            let (rb, _) = b.execute(ClientId(1), op.as_bytes(), &nd(i, i), false);
            assert_eq!(ra, rb);
            let da = a.state().borrow_mut().refresh_digest();
            let db = b.state().borrow_mut().refresh_digest();
            assert_eq!(da, db, "regions (db + wal sections) identical after op {i}");
        }
        assert!(a.db_mut().take_io_stats().wal_checkpoints >= 1 || a.db_mut().wal_frames() < 12);
    }

    #[test]
    fn wal_mode_restart_recovers_from_region() {
        let state = sql_state(64);
        {
            let mut a = wal_app(state.clone());
            a.execute(
                ClientId(1),
                b"INSERT INTO kv (k, v, ts, rnd) VALUES ('p', 'q', 0, 0)",
                &nd(1, 1),
                false,
            );
            // No checkpoint: the row lives only in the WAL section.
            assert!(a.db_mut().wal_frames() > 0);
        }
        let mut b = wal_app(state);
        let (reply, _) = b.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(2, 2), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => assert_eq!(rows.rows[0][0], Value::Integer(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wal_mode_state_transfer_installs_cleanly() {
        let mut a = wal_app(sql_state(64));
        a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('a', 'b', 0, 0)",
            &nd(1, 1),
            false,
        );
        let snap = {
            let mut st = a.state().borrow_mut();
            st.refresh_digest();
            st.snapshot(1)
        };
        a.execute(
            ClientId(1),
            b"INSERT INTO kv (k, v, ts, rnd) VALUES ('c', 'd', 0, 0)",
            &nd(2, 2),
            false,
        );
        {
            let mut st = a.state().borrow_mut();
            st.restore(&snap).expect("restore");
        }
        a.on_state_installed();
        let (reply, _) = a.execute(ClientId(1), b"SELECT COUNT(*) FROM kv", &nd(3, 3), true);
        match decode_outcome(&reply) {
            Some(WireOutcome::Rows(rows)) => {
                assert_eq!(
                    rows.rows[0][0],
                    Value::Integer(1),
                    "WAL index rebuilt from region"
                )
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wal_sections_partition_the_app_region() {
        let state = sql_state(64);
        let app = SqlApp::app_section(&state);
        let (db, wal) = SqlApp::wal_mode_sections(&state);
        assert_eq!(db.base, app.base);
        assert_eq!(db.len + wal.len, app.len);
        assert_eq!(wal.base, db.base + db.len);
        assert_eq!(db.len % pbft_state::PAGE_SIZE as u64, 0, "page aligned");
    }

    #[test]
    fn custom_authorizer_runs() {
        let mut a = app(JournalMode::Rollback);
        a.set_authorizer(Box::new(|idbuf| {
            if idbuf.starts_with(b"valid:") {
                Some(idbuf[6..].to_vec())
            } else {
                None
            }
        }));
        assert_eq!(a.authorize_join(b"valid:alice"), Some(b"alice".to_vec()));
        assert_eq!(a.authorize_join(b"wrong"), None);
    }
}
