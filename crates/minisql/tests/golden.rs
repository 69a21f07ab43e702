//! Bytes are a test: a fixed script pins the database file, the journal/WAL
//! file, every mutating VFS call, every statement outcome and the summed
//! [`IoStats`] as literals, in all three journal modes.
//!
//! The database literals (`db_len`, `db_fnv`, `outcomes`, `interior_pages`)
//! were computed on the commit *before* the B+tree went in place (0f3ba65,
//! where every page was parsed into a `Node` and re-serialized), using this
//! file unchanged — it only touches the public API. The literals of the
//! writes (`io`, `db_trace`, `journal_trace`, and in WAL mode `journal_fnv`
//! and, for the repeated shapes, `journal_len`) come from the change that
//! writes and journals page 0 only when the header changed: it dropped one
//! page-0 write (and its pre-image or WAL frame) from every commit that
//! neither allocates nor frees, and moved no byte of a database file. A
//! storage-layer change that moves one byte of a file, journals one page
//! more or less, or counts one I/O differently fails here, which is what
//! lets the PBFT embedding (page digests, `ExecMetrics`) stay untouched.

use std::cell::Cell;
use std::rc::Rc;

use minisql::{Database, DbOptions, FixedEnv, IoStats, JournalMode, MemVfs, Vfs, VfsError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A [`MemVfs`] that folds every mutating call (kind, offset, bytes) into a
/// running hash shared across reopen, so the *sequence* of writes is pinned
/// and not only the final image (the rollback journal ends every commit
/// empty).
struct TraceVfs {
    inner: MemVfs,
    trace: Rc<Cell<u64>>,
}

impl TraceVfs {
    fn fold(&self, kind: u8, offset: u64, data: &[u8]) {
        let mut h = fnv(self.trace.get(), &[kind]);
        h = fnv(h, &offset.to_be_bytes());
        h = fnv(h, &(data.len() as u64).to_be_bytes());
        self.trace.set(fnv(h, data));
    }
}

impl Vfs for TraceVfs {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), VfsError> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.fold(b'w', offset, data);
        self.inner.write_at(offset, data)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&mut self, len: u64) -> Result<(), VfsError> {
        self.fold(b't', len, &[]);
        self.inner.set_len(len)
    }
    fn sync(&mut self) -> Result<(), VfsError> {
        self.fold(b's', 0, &[]);
        self.inner.sync()
    }
}

fn contents(v: &dyn Vfs) -> Vec<u8> {
    let mut buf = vec![0u8; v.len() as usize];
    v.read_at(0, &mut buf).expect("read");
    buf
}

/// What one run of the script leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    db_len: u64,
    db_fnv: u64,
    db_trace: u64,
    journal_len: u64,
    journal_fnv: u64,
    journal_trace: u64,
    /// Hash of the `Debug` rendering of every statement's result, errors
    /// included.
    outcomes: u64,
    /// `db_pages_written, journal_bytes, syncs, pages_read, wal_checkpoints`.
    io: [u64; 5],
    /// Interior pages in the final database file (script coverage, below).
    interior_pages: usize,
}

struct Run {
    db: Database,
    mode: JournalMode,
    db_trace: Rc<Cell<u64>>,
    journal_trace: Rc<Cell<u64>>,
    outcomes: u64,
    io: IoStats,
    rng: u64,
}

impl Run {
    fn open(
        mode: JournalMode,
        db: MemVfs,
        journal: MemVfs,
        traces: [Rc<Cell<u64>>; 2],
    ) -> Database {
        let [db_trace, journal_trace] = traces;
        Database::open(
            Box::new(TraceVfs {
                inner: db,
                trace: db_trace,
            }),
            Box::new(TraceVfs {
                inner: journal,
                trace: journal_trace,
            }),
            DbOptions {
                journal_mode: mode,
                // Small enough that the script crosses it many times.
                wal_autocheckpoint: 48,
                env: Box::new(FixedEnv {
                    now_ns: 1_000,
                    random_state: 7,
                }),
            },
        )
        .expect("open")
    }

    fn new(mode: JournalMode) -> Run {
        let db_trace = Rc::new(Cell::new(FNV_OFFSET));
        let journal_trace = Rc::new(Cell::new(FNV_OFFSET));
        Run {
            db: Run::open(
                mode,
                MemVfs::new(),
                MemVfs::new(),
                [db_trace.clone(), journal_trace.clone()],
            ),
            mode,
            db_trace,
            journal_trace,
            outcomes: FNV_OFFSET,
            io: IoStats::default(),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Execute one statement; its result (rows, count or error text) is
    /// folded into `outcomes`. Returns whether it succeeded.
    fn exec(&mut self, sql: &str) -> bool {
        let result = self.db.execute_script(sql);
        self.outcomes = fnv(self.outcomes, format!("{result:?}").as_bytes());
        self.io.add(&self.db.take_io_stats());
        result.is_ok()
    }

    fn ok(&mut self, sql: &str) {
        assert!(self.exec(sql), "statement failed: {sql}");
    }

    fn rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// A deterministic filler string of `len` ASCII letters.
    fn pad(&mut self, len: usize) -> String {
        let mut x = self.rand();
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                char::from(b'a' + (x >> 59) as u8 % 26)
            })
            .collect()
    }

    /// Close and reopen over copies of the two files: a cold cache, journal
    /// recovery at open, and (WAL) the index rebuilt from the log.
    fn reopen(&mut self) {
        let mut db = MemVfs::new();
        db.write_at(0, &contents(self.db.db_file())).expect("copy");
        db.sync().expect("sync");
        let mut journal = MemVfs::new();
        journal
            .write_at(0, &contents(self.db.journal_file()))
            .expect("copy");
        journal.sync().expect("sync");
        self.db = Run::open(
            self.mode,
            db,
            journal,
            [self.db_trace.clone(), self.journal_trace.clone()],
        );
    }

    fn finish(mut self) -> Golden {
        // WAL mode: fold the log so the database file alone is the state.
        self.db.wal_checkpoint().expect("checkpoint");
        self.io.add(&self.db.take_io_stats());
        let db = contents(self.db.db_file());
        let journal = contents(self.db.journal_file());
        Golden {
            db_len: db.len() as u64,
            db_fnv: fnv(FNV_OFFSET, &db),
            db_trace: self.db_trace.get(),
            journal_len: journal.len() as u64,
            journal_fnv: fnv(FNV_OFFSET, &journal),
            journal_trace: self.journal_trace.get(),
            outcomes: self.outcomes,
            io: [
                self.io.db_pages_written,
                self.io.journal_bytes,
                self.io.syncs,
                self.io.pages_read,
                self.io.wal_checkpoints,
            ],
            interior_pages: db.chunks(minisql::PAGE_SIZE).filter(|p| p[0] == 2).count(),
        }
    }
}

fn run_script(mode: JournalMode) -> Golden {
    let mut r = Run::new(mode);
    r.ok("CREATE TABLE big (id INTEGER PRIMARY KEY, pad TEXT)");
    r.ok("CREATE TABLE s (id INTEGER PRIMARY KEY, k TEXT NOT NULL, v TEXT, n INTEGER)");
    r.ok("CREATE TABLE doomed (id INTEGER PRIMARY KEY, pad TEXT)");

    // Rows of 1.4–1.9 KB: two fit a leaf, the third splits it, so nearly
    // every INSERT adds a leaf. 341 leaves overflow the root interior page
    // (340 cells); ~170 more overflow its right child, a non-root interior
    // split. Autocommit first, then transactions of 40.
    for i in 0..580 {
        if i >= 60 && i % 40 == 20 {
            r.ok("BEGIN");
        }
        let len = 1400 + (r.rand() % 500) as usize;
        let pad = r.pad(len);
        r.ok(&format!("INSERT INTO big (pad) VALUES ('{pad}')"));
        if i >= 60 && i % 40 == 19 {
            r.ok("COMMIT");
        }
    }
    r.ok("SELECT COUNT(*), MIN(id), MAX(id), SUM(length(pad)) FROM big");
    r.ok("SELECT length(pad) FROM big WHERE id = 345");

    // Small rows with explicit rowids 10, 20, …, then rowids that land in
    // the middle of full and half-full leaves.
    for i in 1..=400 {
        r.ok(&format!(
            "INSERT INTO s (id, k, v, n) VALUES ({}, 'key-{i}', 'value-{i}-{}', {i})",
            i * 10,
            i * 7919 % 1000
        ));
    }
    for _ in 0..180 {
        let id = (r.rand() % 400 + 1) * 10 + 1 + r.rand() % 9;
        // Some collide: the duplicate-rowid error and its rollback are part
        // of the pinned behaviour.
        r.exec(&format!(
            "INSERT INTO s (id, k, v, n) VALUES ({id}, 'mid-{id}', 'm', {})",
            id % 97
        ));
    }
    assert!(!r.exec("INSERT INTO s (id, k, v, n) VALUES (50, 'dup', 'x', 0)"));
    assert!(!r.exec("INSERT INTO s (id, k, v, n) VALUES (99999, NULL, 'x', 0)"));
    let huge = r.pad(5000);
    assert!(!r.exec(&format!("INSERT INTO s (k, v) VALUES ('huge', '{huge}')")));
    r.ok("SELECT COUNT(*), SUM(n) FROM s");

    r.reopen();
    r.ok("SELECT v FROM s WHERE id = 1230");

    // UPDATEs that grow a row (some split their leaf), shrink it, rewrite
    // many rows in one statement, and move a row by changing its key.
    for i in (5..400).step_by(7) {
        let len = 150 + (r.rand() % 400) as usize;
        let v = r.pad(len);
        r.ok(&format!("UPDATE s SET v = '{v}' WHERE id = {}", i * 10));
    }
    for i in (5..400).step_by(21) {
        r.ok(&format!("UPDATE s SET v = 'x' WHERE id = {}", i * 10));
    }
    r.ok("UPDATE s SET n = n + 1000, v = v || '!' WHERE n > 350");
    r.ok("UPDATE s SET id = 100001 WHERE id = 70");
    assert!(!r.exec("UPDATE s SET id = 80 WHERE id = 90"));
    assert!(!r.exec("UPDATE s SET k = NULL WHERE id = 100"));

    // A transaction that splits leaves and is rolled back: dirty pages are
    // dropped and re-read.
    r.ok("BEGIN");
    for i in 0..60 {
        r.ok(&format!(
            "INSERT INTO s (k, v, n) VALUES ('ghost-{i}', 'never committed', {i})"
        ));
    }
    r.ok("ROLLBACK");
    r.ok("SELECT COUNT(*), SUM(n), MAX(id) FROM s");

    // Point deletes, then a range that empties the rightmost leaves: the
    // next automatic rowid has to come from `max_key`'s full-scan fallback.
    for i in (3..400).step_by(11) {
        r.ok(&format!("DELETE FROM s WHERE id = {}", i * 10));
    }
    r.ok("DELETE FROM s WHERE id = 424242");
    r.ok("DELETE FROM s WHERE id > 2500");
    r.ok("INSERT INTO s (k, v, n) VALUES ('after-the-gap', 'auto rowid', 1)");
    r.ok("SELECT id FROM s WHERE k = 'after-the-gap'");
    r.ok("INSERT INTO s (k, v, n) VALUES ('one-more', 'auto rowid', 2), ('and-another', NULL, 3)");
    // One multi-statement script, with a quoted semicolon and an escaped
    // quote (the path `SqlApp` takes for every replicated operation).
    r.ok("INSERT INTO s (k, v, n) VALUES ('semi;colon', 'it''s', 4); SELECT id, v FROM s WHERE k = 'semi;colon';");

    // DROP feeds the freelist; the INSERTs after it drain it and then
    // extend the file again.
    for _ in 0..40 {
        let len = 1400 + (r.rand() % 500) as usize;
        let pad = r.pad(len);
        r.ok(&format!("INSERT INTO doomed (pad) VALUES ('{pad}')"));
    }
    r.ok("DROP TABLE doomed");
    assert!(!r.exec("SELECT * FROM doomed"));
    for _ in 0..60 {
        let len = 1400 + (r.rand() % 500) as usize;
        let pad = r.pad(len);
        r.ok(&format!("INSERT INTO big (pad) VALUES ('{pad}')"));
    }
    r.ok("DELETE FROM big WHERE id > 100 AND id < 130");

    // DELETE without WHERE frees a whole tree but keeps its root.
    r.ok("CREATE TABLE t2 (a INTEGER, b TEXT)");
    for i in 0..300 {
        r.ok(&format!(
            "INSERT INTO t2 (a, b) VALUES ({i}, 'row {i} of a table without a key')"
        ));
    }
    r.ok("DELETE FROM t2");
    r.ok("INSERT INTO t2 (a, b) VALUES (1, 'again')");

    r.reopen();
    r.ok("SELECT COUNT(*), SUM(n), MIN(id), MAX(id), SUM(length(v)) FROM s");
    r.ok("SELECT COUNT(*), SUM(length(pad)) FROM big");
    r.ok("SELECT * FROM t2");
    r.ok("SELECT id, k, n FROM s WHERE n > 1300 ORDER BY n DESC LIMIT 5");
    r.finish()
}

impl Run {
    /// Like [`Run::exec`], through the single-statement entry point.
    fn exec_one(&mut self, sql: &str) -> bool {
        let result = self.db.execute(sql);
        self.outcomes = fnv(self.outcomes, format!("{result:?}").as_bytes());
        self.io.add(&self.db.take_io_stats());
        result.is_ok()
    }
}

/// The same statement shapes over and over with different literals — the
/// traffic a replicated application sends: every literal kind in every
/// position a literal can take, point lookups that decide `pages_read`,
/// computed column names, LIMITs, automatic rowids through leaf splits,
/// explicit ones above and below the largest, DDL between two uses of one
/// shape, failing scripts, and more distinct shapes than a small cache
/// would hold, twice over. The database literals were computed on the
/// commit before statements were parsed once per shape (165112f), using
/// this file; the literals of the writes as the file header says.
fn run_shapes(mode: JournalMode) -> Golden {
    let mut r = Run::new(mode);
    r.ok("CREATE TABLE votes (id INTEGER PRIMARY KEY, voter TEXT NOT NULL, choice TEXT, w REAL, raw BLOB)");
    r.ok("CREATE TABLE \"wide rows\" (id INTEGER PRIMARY KEY, pad TEXT)");
    r.ok("CREATE TABLE nokey (a INTEGER, b TEXT)");

    // One INSERT shape, automatic rowids, a float and a blob per row.
    for i in 0..300 {
        let w = (r.rand() % 1000) as f64 / 8.0;
        r.ok(&format!(
            "INSERT INTO votes (voter, choice, w, raw) VALUES ('voter-{i}', 'c{}', {w:?}, x'{:02x}{:04X}')",
            i % 3,
            i % 256,
            i * 7
        ));
    }
    // The same shape with every literal kind in one slot.
    for lit in [
        "1", "1.0", "'1'", "x'01'", "-1", "-1.5", "''", "'it''s'", "1e3",
    ] {
        r.ok(&format!(
            "INSERT INTO votes (voter, choice, w, raw) VALUES ('kinds', {lit}, {lit}, {lit})"
        ));
    }
    // Rows of ≈ 600 bytes: six to a leaf, so automatic rowids append
    // through some forty leaf splits, the first of which splits the root.
    for _ in 0..260 {
        let len = 500 + (r.rand() % 200) as usize;
        let pad = r.pad(len);
        r.ok(&format!("INSERT INTO \"wide rows\" (pad) VALUES ('{pad}')"));
    }
    // Explicit rowids above the largest (the next automatic one follows
    // them) and below it, and a multi-row INSERT that mixes the two.
    r.ok("INSERT INTO votes (id, voter) VALUES (1000, 'above')");
    r.ok("INSERT INTO votes (voter) VALUES ('after-above')");
    r.ok("INSERT INTO votes (id, voter) VALUES (500, 'below')");
    r.ok("INSERT INTO votes (voter) VALUES ('after-below')");
    r.ok("INSERT INTO votes (id, voter) VALUES (NULL, 'a'), (2000, 'b'), (NULL, 'c'), (1500, 'd'), (NULL, 'e')");
    assert!(!r.exec("INSERT INTO votes (id, voter) VALUES (1500, 'dup')"));
    assert!(!r.exec("INSERT INTO votes (id, voter) VALUES ('two', 'x')"));
    assert!(!r.exec("INSERT INTO votes (id, voter) VALUES (3000, NULL)"));
    for i in 0..40 {
        r.ok(&format!(
            "INSERT INTO nokey (a, b) VALUES ({i}, 'no key {i}')"
        ));
    }

    r.reopen();
    // Point lookups (integer literal on either side), and the same shape
    // with a literal that is not an integer: a full scan.
    for id in [1i64, 150, 299, 300, 305, 1000, 1001, 2002, 4242] {
        r.ok(&format!("SELECT voter, w, raw FROM votes WHERE id = {id}"));
        r.ok(&format!("SELECT voter FROM votes WHERE {id} = id"));
    }
    r.ok("SELECT voter FROM votes WHERE id = '7'");
    r.ok("SELECT voter FROM votes WHERE id = 7.0");
    r.ok("SELECT voter FROM votes WHERE id = x'07'");
    for id in [3i64, 130, 259] {
        r.ok(&format!(
            "SELECT length(pad) FROM \"wide rows\" WHERE id = {id}"
        ));
    }
    // Literals that name their column, in and out of aggregates.
    for lit in ["5", "5.5", "'five'", "x'05'", "-5", "NULL", "1 + 2"] {
        r.ok(&format!("SELECT {lit}"));
        r.ok(&format!("SELECT {lit}, COUNT(*) FROM votes"));
    }
    r.ok("SELECT -SUM(w), -7, MAX(id) - 1000, COUNT(*) + 1 FROM votes WHERE w > 2.5");
    r.ok(
        "SELECT choice, COUNT(*), SUM(w) FROM votes WHERE id < 200 GROUP BY choice ORDER BY choice",
    );
    for limit in [0, 1, 3, 10] {
        r.ok(&format!(
            "SELECT id, voter FROM votes WHERE w >= {limit} ORDER BY id DESC LIMIT {limit}"
        ));
    }
    assert!(!r.exec("SELECT id FROM votes LIMIT 'x'"));
    assert!(!r.exec("SELECT id FROM votes LIMIT 1.5"));
    assert!(!r.exec("SELECT 1 + 'a'"));
    // UPDATE and DELETE shapes with literals in SET and WHERE.
    for i in (10..290).step_by(9) {
        r.ok(&format!(
            "UPDATE votes SET choice = 'changed-{i}', w = {}.25 WHERE id = {i}",
            i % 11
        ));
    }
    for i in (5..290).step_by(13) {
        r.ok(&format!("DELETE FROM votes WHERE id = {i}"));
    }
    r.ok("UPDATE votes SET w = w * 2 WHERE choice = 'c1' AND w > 10");

    // Scripts: one shape several times, and a syntax error in a later
    // statement, which executes nothing.
    r.ok("INSERT INTO votes (voter) VALUES ('m1'); INSERT INTO votes (voter) VALUES ('m2'); INSERT INTO votes (voter) VALUES ('m3')");
    assert!(!r.exec("INSERT INTO votes (voter) VALUES ('never'); SELEKT 1"));
    assert!(!r.exec("INSERT INTO votes (voter) VALUES ('never'); SELECT 1 2"));
    r.ok("SELECT COUNT(*) FROM votes WHERE voter = 'never'");
    r.ok("BEGIN; INSERT INTO votes (voter) VALUES ('t1'); INSERT INTO votes (voter) VALUES ('t2'); COMMIT");
    r.ok("BEGIN");
    r.ok("INSERT INTO votes (voter) VALUES ('gone')");
    r.ok("ROLLBACK");
    r.ok("INSERT INTO votes (voter) VALUES ('kept')");
    // The single-statement entry point, with and without a trailing `;`.
    assert!(r.exec_one("SELECT voter FROM votes WHERE id = 301;"));
    assert!(r.exec_one("SELECT voter FROM votes WHERE id = 302"));
    assert!(!r.exec_one("SELECT 1; SELECT 2"));
    assert!(!r.exec_one(""));

    // One INSERT shape against two different tables of the same name.
    r.ok("CREATE TABLE tmp (a INTEGER, b TEXT)");
    r.ok("INSERT INTO tmp (a, b) VALUES (7, 'x')");
    r.ok("INSERT INTO tmp (a, b) VALUES (8, 'y')");
    r.ok("DROP TABLE tmp");
    r.ok("CREATE TABLE tmp (b TEXT NOT NULL, a INTEGER PRIMARY KEY)");
    r.ok("INSERT INTO tmp (a, b) VALUES (7, 'x')");
    assert!(!r.exec("INSERT INTO tmp (a, b) VALUES (7, 'y')"));
    r.ok("SELECT * FROM tmp");

    // Eighty distinct shapes, twice, each with fresh literals.
    for round in 0..2 {
        for j in 0..80 {
            r.ok(&format!(
                "SELECT id AS a{j}, voter FROM votes WHERE id = {}",
                j * 3 + round
            ));
        }
    }
    r.reopen();
    r.ok("SELECT COUNT(*), SUM(id), MAX(id), SUM(length(voter)), SUM(w) FROM votes");
    r.ok("SELECT COUNT(*), MAX(id), SUM(length(pad)) FROM \"wide rows\"");
    r.ok("SELECT * FROM nokey WHERE a > 30 ORDER BY a DESC LIMIT 4");
    r.finish()
}

#[test]
fn golden_repeated_shapes() {
    // The database image and the outcomes are the same in all three modes.
    let golden = |db_trace, journal_len, journal_fnv, journal_trace, io| Golden {
        db_len: 409_600,
        db_fnv: 1239726094534833218,
        db_trace,
        journal_len,
        journal_fnv,
        journal_trace,
        outcomes: 7085917696483766169,
        io,
        interior_pages: 2,
    };
    assert_eq!(
        run_shapes(JournalMode::Rollback),
        golden(
            4945109511942788252,
            0,
            FNV_OFFSET,
            12149601961249255130,
            [980, 3_618_944, 2052, 114, 0]
        )
    );
    assert_eq!(
        run_shapes(JournalMode::Wal),
        golden(
            17545822642618247990,
            210_152,
            11302448003699329301,
            7083827496654969557,
            [170, 4_037_632, 726, 114, 21]
        )
    );
    assert_eq!(
        run_shapes(JournalMode::Off),
        golden(
            4616987717307940904,
            0,
            FNV_OFFSET,
            FNV_OFFSET,
            [980, 0, 0, 114, 0]
        )
    );
}

#[test]
fn golden_rollback_journal() {
    assert_eq!(
        run_script(JournalMode::Rollback),
        Golden {
            db_len: 2_772_992,
            db_fnv: 543832710404558686,
            db_trace: 7009599480761868740,
            journal_len: 0,
            journal_fnv: FNV_OFFSET,
            journal_trace: 7562700634163712045,
            outcomes: 15736594356689605965,
            io: [2376, 6_984_748, 3534, 1266, 0],
            interior_pages: 5,
        }
    );
}

#[test]
fn golden_wal() {
    assert_eq!(
        run_script(JournalMode::Wal),
        Golden {
            db_len: 2_772_992,
            db_fnv: 543832710404558686,
            db_trace: 10917342980156782234,
            journal_len: 370_832,
            journal_fnv: 92400852601502215,
            journal_trace: 10739453024702023603,
            outcomes: 15736594356689605965,
            io: [997, 9_789_152, 1266, 1266, 44],
            interior_pages: 5,
        }
    );
}

#[test]
fn golden_no_journal() {
    assert_eq!(
        run_script(JournalMode::Off),
        Golden {
            db_len: 2_772_992,
            db_fnv: 543832710404558686,
            db_trace: 1596951588493843434,
            journal_len: 0,
            journal_fnv: FNV_OFFSET,
            journal_trace: FNV_OFFSET,
            outcomes: 15736594356689605965,
            io: [2376, 0, 0, 1266, 0],
            interior_pages: 5,
        }
    );
}
