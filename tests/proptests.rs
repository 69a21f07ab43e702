//! Property-based tests over the core data structures and invariants, on the
//! in-repo `propcheck` harness (seeded generators + stream-replay shrinking).
//!
//! Ported 1:1 from the original `proptest` suite; every property keeps at
//! least the original case count (minimum 64).

use propcheck::Gen;

use minisql::{decode_row, encode_row, Value};
use pbft_core::messages::view::PacketView;
use pbft_core::messages::{AuthTag, Envelope, Message, Operation, RequestMsg, Sender};
use pbft_core::types::ClientId;
use pbft_crypto::auth::MacKey;
use pbft_crypto::threshold::{combine, partial_sign, ThresholdGroup};
use pbft_crypto::Digest;
use pbft_state::{serve_fetch, Fetcher, MerkleTree, PagedState, PAGE_SIZE};

// ----------------------------------------------------------------------
// Merkle tree: incremental updates always match a from-scratch rebuild.
// ----------------------------------------------------------------------

#[test]
fn merkle_incremental_equals_rebuild() {
    propcheck::check("merkle_incremental_equals_rebuild", 64, |g| {
        let n = g.usize_in(1..64);
        let updates = g.vec(0..32, |g| (g.usize_in(0..64), g.u64_in(0..1000)));
        let mut leaves: Vec<Digest> = (0..n)
            .map(|i| Digest::of(&(i as u64).to_be_bytes()))
            .collect();
        let mut tree = MerkleTree::build(leaves.clone());
        for (idx, val) in updates {
            let idx = idx % n;
            leaves[idx] = Digest::of(&val.to_be_bytes());
            tree.update_leaf(idx, leaves[idx]);
        }
        assert_eq!(tree.root(), MerkleTree::build(leaves).root());
    });
}

#[test]
fn state_transfer_syncs_arbitrary_divergence() {
    propcheck::check("state_transfer_syncs_arbitrary_divergence", 64, |g| {
        let writes_a = g.vec(0..20, |g| (g.u64_in(0..16), g.u8_in(0..255)));
        let writes_b = g.vec(0..20, |g| (g.u64_in(0..16), g.u8_in(0..255)));
        let scribble = |st: &mut PagedState, writes: &[(u64, u8)]| {
            for &(page, byte) in writes {
                let off = page * PAGE_SIZE as u64;
                st.modify(off, 4).expect("modify");
                st.write(off, &[byte; 4]).expect("write");
            }
            st.refresh_digest();
        };
        let mut src = PagedState::new(16);
        let mut dst = PagedState::new(16);
        scribble(&mut src, &writes_a);
        scribble(&mut dst, &writes_b);
        let snap = src.snapshot(1);
        let (mut fetcher, mut reqs) = Fetcher::new(dst.tree(), snap.root);
        let mut guard = 0;
        while !reqs.is_empty() {
            guard += 1;
            assert!(guard < 200, "transfer did not terminate");
            let mut next = Vec::new();
            for r in &reqs {
                let resp = serve_fetch(&snap, r);
                next.extend(fetcher.on_response(dst.tree(), resp).expect("honest peer"));
                for (idx, data, digest) in fetcher.take_ready() {
                    dst.install_page(idx, data, digest).expect("install");
                }
            }
            reqs = next;
        }
        assert!(fetcher.is_complete());
        dst.fold_installed();
        assert_eq!(dst.tree().root(), snap.root);
    });
}

// ----------------------------------------------------------------------
// Wire codec: request envelopes roundtrip for arbitrary content.
// ----------------------------------------------------------------------

#[test]
fn envelope_roundtrip_arbitrary_request() {
    propcheck::check("envelope_roundtrip_arbitrary_request", 64, |g| {
        let client = g.u64();
        let msg = Message::Request(RequestMsg {
            client: ClientId(client),
            timestamp: g.u64(),
            read_only: g.bool(),
            reply_addr: g.u32(),
            op: Operation::App(g.bytes(0..2048)),
        });
        let prefix = Envelope::encode_prefix(Sender::Client(ClientId(client)), &msg);
        let packet = Envelope::seal(prefix, &AuthTag::None);
        let view = PacketView::parse(&packet).expect("roundtrip");
        assert_eq!(view.msg, msg);
    });
}

#[test]
fn envelope_decode_never_panics() {
    propcheck::check("envelope_decode_never_panics", 64, |g| {
        let bytes = g.bytes(0..512);
        let _ = PacketView::parse(&bytes); // must not panic on garbage
    });
}

// ----------------------------------------------------------------------
// MACs: verification accepts the real message and rejects mutations.
// ----------------------------------------------------------------------

#[test]
fn mac_rejects_bit_flips() {
    propcheck::check("mac_rejects_bit_flips", 64, |g| {
        let key: [u8; 32] = g.byte_array();
        let msg = g.bytes(1..256);
        let k = MacKey::new(key);
        let tag = k.mac(&msg, 3);
        assert!(k.verify(&msg, 3, tag));
        let mut tampered = msg.clone();
        let i = g.index(tampered.len());
        tampered[i] ^= 1 << g.u8_in(0..8);
        assert!(!k.verify(&tampered, 3, tag));
    });
}

// ----------------------------------------------------------------------
// Threshold signatures: any f+1 subset works, message binding holds.
// ----------------------------------------------------------------------

#[test]
fn threshold_any_quorum_signs() {
    propcheck::check("threshold_any_quorum_signs", 64, |g| {
        let seed = g.u64();
        let f = g.usize_in(1..3);
        let n = 3 * f + 1;
        let (group, shares) = ThresholdGroup::deal(seed, f + 1, n);
        // Deterministic subset choice driven by the seed.
        let mut participants: Vec<u32> = (1..=n as u32).collect();
        let rot = (seed % n as u64) as usize;
        participants.rotate_left(rot);
        participants.truncate(f + 1);
        let partials: Vec<_> = participants
            .iter()
            .map(|&x| partial_sign(&shares[(x - 1) as usize], &participants))
            .collect();
        let sig = combine(&group, &partials, b"ballot").expect("combine");
        assert!(group.verify(b"ballot", &sig));
        assert!(!group.verify(b"forged", &sig));
    });
}

// ----------------------------------------------------------------------
// minisql records: arbitrary rows roundtrip.
// ----------------------------------------------------------------------

const TEXT_CHARS: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L',
    'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '0', '1', '2', '3', '4',
    '5', '6', '7', '8', '9', ' ', '\'', '%', '_', '-',
];

fn arb_value(g: &mut Gen) -> Value {
    match g.choice(5) {
        0 => Value::Null,
        1 => Value::Integer(g.i64()),
        2 => Value::Real(g.f64()),
        3 => Value::Text(g.string_from(TEXT_CHARS, 0..41)),
        _ => Value::Blob(g.bytes(0..64)),
    }
}

#[test]
fn sql_record_roundtrip() {
    propcheck::check("sql_record_roundtrip", 64, |g| {
        let row = g.vec(0..16, arb_value);
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).expect("roundtrip");
        assert_eq!(back.len(), row.len());
        for (a, b) in back.iter().zip(&row) {
            match (a, b) {
                (Value::Real(x), Value::Real(y)) => {
                    assert!(x.to_bits() == y.to_bits());
                }
                _ => assert_eq!(a, b),
            }
        }
    });
}

// ----------------------------------------------------------------------
// minisql B+tree vs a BTreeMap model.
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i64, Vec<u8>),
    Delete(i64),
}

fn arb_tree_op(g: &mut Gen) -> TreeOp {
    match g.choice(2) {
        0 => TreeOp::Insert(g.i64_in(0..200), g.bytes(0..64)),
        _ => TreeOp::Delete(g.i64_in(0..200)),
    }
}

#[test]
fn btree_matches_model() {
    propcheck::check("btree_matches_model", 64, |g| {
        use minisql::{Database, DbOptions, JournalMode, MemVfs};
        let ops = g.vec(0..120, arb_tree_op);
        // Model the table through SQL so the whole stack is exercised.
        let mut db = Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Off,
                ..Default::default()
            },
        )
        .expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v BLOB)")
            .expect("create");
        let mut model = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let hex: String = v.iter().map(|b| format!("{b:02x}")).collect();
                    let blob = if hex.is_empty() {
                        "x''".to_string()
                    } else {
                        format!("x'{hex}'")
                    };
                    let res = db.execute(&format!("INSERT INTO t (id, v) VALUES ({k}, {blob})"));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        assert!(res.is_ok(), "insert failed: {res:?}");
                        e.insert(v);
                    } else {
                        assert!(res.is_err(), "duplicate pk must fail");
                    }
                }
                TreeOp::Delete(k) => {
                    db.execute(&format!("DELETE FROM t WHERE id = {k}"))
                        .expect("delete");
                    model.remove(&k);
                }
            }
        }
        let rows = db.query("SELECT id, v FROM t ORDER BY id").expect("scan");
        assert_eq!(rows.rows.len(), model.len());
        for (row, (k, v)) in rows.rows.iter().zip(model.iter()) {
            assert_eq!(&row[0], &Value::Integer(*k));
            assert_eq!(&row[1], &Value::Blob(v.clone()));
        }
    });
}

// ----------------------------------------------------------------------
// Journal: a crash at any point either preserves the old committed state or
// the new one — never a torn mixture.
// ----------------------------------------------------------------------

#[test]
fn commit_is_atomic_under_crash() {
    propcheck::check("commit_is_atomic_under_crash", 64, |g| {
        use minisql::{Database, DbOptions, JournalMode, MemVfs, Vfs};
        let values = g.vec(1..20, |g| g.i64_in(0..1000));
        let mut db = Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Rollback,
                ..Default::default()
            },
        )
        .expect("open");
        db.execute("CREATE TABLE t (v INTEGER)").expect("create");
        for v in &values {
            db.execute(&format!("INSERT INTO t (v) VALUES ({v})"))
                .expect("insert");
        }
        // "Crash": reopen from the last synced images.
        let grab = |db: &mut Database| -> (MemVfs, MemVfs) {
            let take = |src: &dyn Vfs| {
                let mut out = MemVfs::new();
                let mut buf = vec![0u8; src.len() as usize];
                src.read_at(0, &mut buf).expect("read");
                out.write_at(0, &buf).expect("write");
                out.sync().expect("sync");
                out
            };
            (take(db.db_file()), take(db.journal_file()))
        };
        let (dbf, jf) = grab(&mut db);
        let mut reopened = Database::open(
            Box::new(dbf),
            Box::new(jf),
            DbOptions {
                journal_mode: JournalMode::Rollback,
                ..Default::default()
            },
        )
        .expect("reopen");
        let rows = reopened.query("SELECT COUNT(*) FROM t").expect("count");
        assert_eq!(&rows.rows[0][0], &Value::Integer(values.len() as i64));
    });
}

// ----------------------------------------------------------------------
// Quorum arithmetic: intersection of any two quorums contains a correct
// replica, for every f. (Exhaustive over the original sample space.)
// ----------------------------------------------------------------------

#[test]
fn quorum_intersection_contains_correct_replica() {
    for f in 1usize..34 {
        let cfg = pbft_core::PbftConfig {
            f,
            ..Default::default()
        };
        let n = cfg.n();
        let q = cfg.quorum();
        // Two quorums overlap in at least q + q - n = f + 1 replicas, so at
        // least one is correct.
        assert!(2 * q > n + f);
        // And a weak certificate always contains a correct replica.
        assert!(cfg.weak_quorum() > f);
    }
}

// ----------------------------------------------------------------------
// WAL mode: any post-crash image yields exactly the synced-commit prefix —
// never a torn transaction, never lost synced data.
// ----------------------------------------------------------------------

#[test]
fn wal_crash_recovers_synced_prefix() {
    propcheck::check("wal_crash_recovers_synced_prefix", 64, |g| {
        use minisql::{Database, DbOptions, JournalMode, MemVfs, Vfs};
        let values = g.vec(1..24, |g| g.i64_in(0..1000));
        let survive = g.usize_in(0..24).min(values.len());
        let garbage = g.bytes(0..64);
        let mut db = Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Wal,
                wal_autocheckpoint: 7, // force checkpoints mid-stream
                ..Default::default()
            },
        )
        .expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .expect("create");
        let mut images = Vec::new();
        let snapshot = |db: &mut Database| -> (MemVfs, MemVfs) {
            let take = |src: &dyn Vfs| {
                let mut out = MemVfs::new();
                let mut buf = vec![0u8; src.len() as usize];
                src.read_at(0, &mut buf).expect("read");
                out.write_at(0, &buf).expect("write");
                out.sync().expect("sync");
                out
            };
            (take(db.db_file()), take(db.journal_file()))
        };
        images.push(snapshot(&mut db));
        for v in &values {
            db.execute(&format!("INSERT INTO t (v) VALUES ({v})"))
                .expect("insert");
            images.push(snapshot(&mut db));
        }
        // Crash right after `survive` commits, with unsynced garbage
        // appended to the log (a torn in-flight append).
        let (dbf, mut walf) = images[survive].clone();
        let end = walf.len();
        walf.write_at(end, &garbage).expect("write");
        let crashed = walf.crash();
        let mut reopened = Database::open(
            Box::new(dbf),
            Box::new(crashed),
            DbOptions {
                journal_mode: JournalMode::Wal,
                ..Default::default()
            },
        )
        .expect("reopen");
        let rows = reopened.query("SELECT COUNT(*) FROM t").expect("count");
        assert_eq!(&rows.rows[0][0], &Value::Integer(survive as i64));
        // And the surviving values are exactly the prefix.
        let rows = reopened
            .query("SELECT v FROM t ORDER BY id")
            .expect("select");
        let got: Vec<i64> = rows
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Integer(i) => i,
                _ => -1,
            })
            .collect();
        assert_eq!(got, values[..survive].to_vec());
    });
}

// ----------------------------------------------------------------------
// Session store: store/open through the region is lossless for any table,
// and the region bytes are deterministic (replica agreement).
// ----------------------------------------------------------------------

#[test]
fn session_store_roundtrips_and_is_deterministic() {
    propcheck::check("session_store_roundtrips_and_is_deterministic", 64, |g| {
        use pbft_core::SessionStore;
        use pbft_state::Section;
        let entries = g.btree_map(0..24, |g| g.u64(), |g| g.bytes(0..64));
        let section = Section {
            base: 0,
            len: 4 * PAGE_SIZE as u64,
        };
        let mut store = SessionStore::open(section, &PagedState::new(4));
        for (&c, data) in &entries {
            store.set(ClientId(c), data.clone()).expect("fits");
        }
        let mut a = PagedState::new(4);
        let mut b = PagedState::new(4);
        store.store(&mut a);
        store.store(&mut b);
        assert_eq!(
            a.refresh_digest(),
            b.refresh_digest(),
            "deterministic bytes"
        );
        let back = SessionStore::open(section, &a);
        assert_eq!(back, store);
    });
}

// ----------------------------------------------------------------------
// Database-level model test: a random CRUD workload matches an in-memory
// model (and is journal-mode-independent).
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CrudOp {
    Insert(i64),
    DeleteWhere(i64),
    UpdateWhere(i64, i64),
}

fn arb_crud(g: &mut Gen) -> CrudOp {
    match g.choice(3) {
        0 => CrudOp::Insert(g.i64_in(0..50)),
        1 => CrudOp::DeleteWhere(g.i64_in(0..50)),
        _ => CrudOp::UpdateWhere(g.i64_in(0..50), g.i64_in(0..50)),
    }
}

#[test]
fn crud_workload_matches_model_in_every_journal_mode() {
    propcheck::check(
        "crud_workload_matches_model_in_every_journal_mode",
        64,
        |g| {
            use minisql::{Database, DbOptions, JournalMode, MemVfs};
            let ops = g.vec(0..60, arb_crud);
            for mode in [JournalMode::Rollback, JournalMode::Wal, JournalMode::Off] {
                let mut db = Database::open(
                    Box::new(MemVfs::new()),
                    Box::new(MemVfs::new()),
                    DbOptions {
                        journal_mode: mode,
                        wal_autocheckpoint: 9,
                        ..Default::default()
                    },
                )
                .expect("open");
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
                    .expect("create");
                let mut model: Vec<i64> = Vec::new();
                for op in &ops {
                    match op {
                        CrudOp::Insert(v) => {
                            db.execute(&format!("INSERT INTO t (v) VALUES ({v})"))
                                .expect("insert");
                            model.push(*v);
                        }
                        CrudOp::DeleteWhere(v) => {
                            db.execute(&format!("DELETE FROM t WHERE v = {v}"))
                                .expect("delete");
                            model.retain(|x| x != v);
                        }
                        CrudOp::UpdateWhere(from, to) => {
                            db.execute(&format!("UPDATE t SET v = {to} WHERE v = {from}"))
                                .expect("update");
                            for x in &mut model {
                                if *x == *from {
                                    *x = *to;
                                }
                            }
                        }
                    }
                }
                let rows = db.query("SELECT v FROM t ORDER BY id").expect("select");
                let got: Vec<i64> = rows
                    .rows
                    .iter()
                    .map(|r| match r[0] {
                        Value::Integer(i) => i,
                        _ => -1,
                    })
                    .collect();
                let mut sorted_got = got.clone();
                let mut sorted_model = model.clone();
                sorted_got.sort_unstable();
                sorted_model.sort_unstable();
                assert_eq!(sorted_got, sorted_model, "mode {mode:?}");
            }
        },
    );
}
