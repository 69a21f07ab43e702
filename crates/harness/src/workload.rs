//! Client workloads.
//!
//! * [`OpGen`] — the one operation shape: each draw is a [`KeyedOp`], the
//!   op bytes, the read-only flag and the **shard keys** the op touches, so
//!   the shard router can assign it to the PBFT group owning those keys (or
//!   reject it as cross-shard). [`Deployment`](crate::Deployment) installs
//!   these through its router on every group, one group included;
//!   [`Cluster::start_workload`](crate::Cluster::start_workload) installs
//!   them on a bare cluster, where the keys are not read.
//! * [`TxGen`] — the transactional shape: each draw is a [`TxOp`], a *set*
//!   of single-shard sub-operations to apply atomically. Transactions whose
//!   sub-ops span groups go through the two-phase commit of
//!   [`crate::xshard`]; single-group ones collapse to the fast path.

use pbft_xshard::routing::{stable_key_hash, ShardMap};
use pbft_xshard::xshard::SubOp;

/// An operation tagged with the shard keys it touches.
///
/// The keys are routing metadata, not payload: they never go on the wire
/// (each group's replicas are oblivious to the partition), they only feed
/// the client-side router's hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedOp {
    /// The shard keys the operation touches. Routable iff all of them map
    /// to the same group; see [`pbft_xshard::routing::ShardMap::route`].
    pub keys: Vec<Vec<u8>>,
    /// The encoded application operation.
    pub op: Vec<u8>,
    /// Whether the PBFT read-only fast path may serve it.
    pub read_only: bool,
}

/// A generator producing a client's next operation from its sequence
/// number.
pub type OpGen = Box<dyn FnMut(u64) -> KeyedOp>;

/// A transaction: sub-operations to apply atomically (all-or-nothing),
/// each single-shard on its own but possibly spanning groups together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOp {
    /// The sub-operations, in application order.
    pub sub_ops: Vec<SubOp>,
}

/// A generator producing the next transaction for a closed-loop initiator
/// of a deployment's cross-shard driver (see [`crate::xshard`]).
pub type TxGen = Box<dyn FnMut(u64) -> TxOp>;

/// Deterministic workload randomness: a stable hash over the generator tag,
/// the sequence number and a draw index (so one `(tag, seq)` can make
/// several independent choices).
fn mix(tag: u64, seq: u64, draw: u64) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&tag.to_be_bytes());
    bytes[8..16].copy_from_slice(&seq.to_be_bytes());
    bytes[16..].copy_from_slice(&draw.to_be_bytes());
    stable_key_hash(&bytes)
}

/// Cross-shard null transactions: each draw is a two-sub-op transaction
/// whose keys are guaranteed to live on *different* groups of `map` — the
/// minimal transactional counterpart of [`keyed_null_ops`]. Keys are drawn
/// from a bounded space of `key_space` "accounts", so concurrent initiators
/// genuinely contend for locks (the bench's abort-rate column comes from
/// here); each sub-op's body stamps its key into `size` zero bytes exactly
/// like the keyed null workload.
///
/// # Panics
/// Panics at draw time if `map` has a single shard or `key_space` is too
/// small to offer keys on two different groups.
pub fn cross_null_txs(map: ShardMap, size: usize, key_space: u64, tag: u64) -> TxGen {
    assert!(
        map.shards() > 1,
        "cross-shard transactions need at least two groups"
    );
    let null_sub = move |key: Vec<u8>| {
        let mut op = vec![0u8; size];
        let n = key.len().min(size);
        op[..n].copy_from_slice(&key[..n]);
        SubOp {
            keys: vec![key],
            op,
        }
    };
    Box::new(move |seq| {
        let a = mix(tag, seq, 0) % key_space;
        let key_a = a.to_be_bytes().to_vec();
        let shard_a = map.shard_of(&key_a);
        let key_b = (1..=64u64)
            .map(|draw| (mix(tag, seq, draw) % key_space).to_be_bytes().to_vec())
            .find(|k| map.shard_of(k) != shard_a)
            .expect("a uniform key space of this size covers more than one shard");
        TxOp {
            sub_ops: vec![null_sub(key_a), null_sub(key_b)],
        }
    })
}

/// Account-transfer transactions over the [`pbft_sql::transfer`] schema:
/// each draw moves a small amount between two distinct accounts of a
/// bounded space. Whether a given transfer is cross-shard is up to the key
/// hash — exactly like a real workload — so the driver's fast path
/// (same-group pairs) and 2PC path (split pairs) both get exercised. The
/// global `SUM(bal)` is invariant under any mix of committed and aborted
/// transfers, which is the conservation audit the atomicity tests assert.
pub fn transfer_txs(accounts: u64, max_amount: i64, tag: u64) -> TxGen {
    assert!(accounts >= 2, "transfers need two distinct accounts");
    Box::new(move |seq| {
        let from = mix(tag, seq, 0) % accounts;
        let to = (from + 1 + mix(tag, seq, 1) % (accounts - 1)) % accounts;
        let amount = 1 + (mix(tag, seq, 2) % max_amount.max(1) as u64) as i64;
        let t = pbft_sql::Transfer {
            from: pbft_sql::transfer::account_key(from),
            to: pbft_sql::transfer::account_key(to),
            amount,
        };
        TxOp {
            sub_ops: t
                .sub_ops()
                .into_iter()
                .map(|(key, sql)| SubOp {
                    keys: vec![key],
                    op: sql.into_bytes(),
                })
                .collect(),
        }
    })
}

/// Cross-precinct ballots: each draw casts one choice atomically in two of
/// the given precinct elections (see [`evoting::cross_precinct_ballot`]).
/// Since election traffic shards by election id, a two-precinct ballot is
/// cross-shard whenever the pair's ids hash to different groups.
pub fn cross_precinct_ballot_txs(
    elections: &'static [i64],
    choices: &'static [&'static str],
    tag: u64,
) -> TxGen {
    assert!(
        elections.len() >= 2,
        "a cross-precinct ballot names two precincts"
    );
    Box::new(move |seq| {
        let first = (mix(tag, seq, 0) % elections.len() as u64) as usize;
        let second = (first + 1 + (mix(tag, seq, 1) % (elections.len() as u64 - 1)) as usize)
            % elections.len();
        let choice = choices[(seq as usize) % choices.len()];
        let pair = [elections[first], elections[second]];
        TxOp {
            sub_ops: evoting::cross_precinct_ballot(&pair, choice)
                .into_iter()
                .map(|(key, op)| SubOp {
                    keys: vec![key],
                    op,
                })
                .collect(),
        }
    })
}

/// Keyed KV writes over a bounded key space: each draw puts a fresh value
/// under `key = mix(..) % key_space`, with the 8 big-endian key bytes as
/// the shard key — the same bytes the record itself stores, so the
/// resharding suites can audit slot ownership against the router (see
/// [`crate::shard::kv_moved_spans`]). Deployments pick `key_space` no
/// larger than the [`KvApp`](pbft_core::app::KvApp) slot count so distinct
/// keys never evict each other.
pub fn keyed_kv_ops(key_space: u64, tag: u64) -> OpGen {
    Box::new(move |seq| {
        let key = mix(tag, seq, 0) % key_space;
        KeyedOp {
            keys: vec![key.to_be_bytes().to_vec()],
            op: pbft_core::app::KvApp::op_put(key, mix(tag, seq, 1)),
            read_only: false,
        }
    })
}

/// Keyed null operations: the Table 1 null-op workload over a logical key
/// space, for sharding experiments. The key — `tag` (a per-client
/// disambiguator) and the sequence number, 16 big-endian bytes — is stamped
/// into the op body, making each op a distinct "write" to a distinct key
/// that the router spreads across groups.
pub fn keyed_null_ops(size: usize, tag: u64) -> OpGen {
    Box::new(move |seq| {
        let key = [tag.to_be_bytes(), seq.to_be_bytes()].concat();
        let mut op = vec![0u8; size];
        let n = key.len().min(size);
        op[..n].copy_from_slice(&key[..n]);
        KeyedOp {
            keys: vec![key],
            op,
            read_only: false,
        }
    })
}

/// Null operations of a fixed size — the workload behind Table 1 / Figure 4
/// ("The client and server programs built to measure throughput transmit
/// null requests and responses of varying sizes").
pub fn null_ops(size: usize) -> OpGen {
    null_stream(size, false)
}

/// Read-only null operations: the Table 1 null-op body with the read-only
/// flag set, so every request rides the §2.1 optimistic fast path (one
/// round trip, 2f+1 matching replies, no agreement). The pure-read
/// counterpart of [`null_ops`], used by the hot-path bench's read rows.
pub fn null_reads(size: usize) -> OpGen {
    null_stream(size, true)
}

/// `size` zero bytes stamped with the big-endian sequence number, which is
/// also the op's shard key, so requests are distinct (distinct digests).
fn null_stream(size: usize, read_only: bool) -> OpGen {
    Box::new(move |seq| {
        let key = seq.to_be_bytes();
        let mut op = vec![0u8; size];
        let n = key.len().min(size);
        op[..n].copy_from_slice(&key[..n]);
        KeyedOp {
            keys: vec![key.to_vec()],
            op,
            read_only,
        }
    })
}

/// Keyed KV traffic with a read fraction: like [`keyed_kv_ops`], but each
/// draw is a `get` of the drawn key with probability `read_pct`/100 and a
/// `put` of a fresh value otherwise. Reads and writes contend for the same
/// bounded key space, so a read that arrives behind an uncommitted
/// tentative batch has its reply held until that batch commits.
pub fn keyed_kv_mix(key_space: u64, read_pct: u64, tag: u64) -> OpGen {
    assert!(read_pct <= 100, "read_pct is a percentage");
    Box::new(move |seq| {
        let key = mix(tag, seq, 0) % key_space;
        let read_only = mix(tag, seq, 9) % 100 < read_pct;
        KeyedOp {
            keys: vec![key.to_be_bytes().to_vec()],
            op: if read_only {
                pbft_core::app::KvApp::op_get(key)
            } else {
                pbft_core::app::KvApp::op_put(key, mix(tag, seq, 1))
            },
            read_only,
        }
    })
}

/// The §4.2 workload: "the insertion of a single row into a database table
/// ... a simple key and value text (representing voter identity and
/// accompanying vote), in addition to a timestamp and a random value". The
/// shard key is the inserted row's `k` column (the voter identity), the
/// literal [`pbft_sql::shard_key`] extracts.
pub fn sql_insert_ops(client_tag: u64) -> OpGen {
    Box::new(move |seq| {
        let key = format!("voter-{client_tag}-{seq}");
        let sql = format!(
            "INSERT INTO bench (k, v, ts, rnd) VALUES ('{key}', 'vote-{seq}', now(), random())"
        );
        KeyedOp {
            keys: vec![key.into_bytes()],
            op: sql.into_bytes(),
            read_only: false,
        }
    })
}

/// The schema the SQL workloads expect.
pub const SQL_BENCH_SCHEMA: &str =
    "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";

#[cfg(test)]
mod tests {
    use super::*;

    /// Append `bytes` length-prefixed, so adjacent fields cannot alias.
    fn put(buf: &mut Vec<u8>, bytes: &[u8]) {
        buf.extend((bytes.len() as u64).to_be_bytes());
        buf.extend(bytes);
    }

    /// Append one draw's op bytes and read flag.
    fn put_op(buf: &mut Vec<u8>, op: &[u8], read_only: bool) {
        put(buf, op);
        buf.push(read_only as u8);
    }

    /// Append one draw's shard keys.
    fn put_keys(buf: &mut Vec<u8>, keys: &[Vec<u8>]) {
        buf.extend((keys.len() as u64).to_be_bytes());
        for key in keys {
            put(buf, key);
        }
    }

    /// Append one transaction: each sub-op's keys and body.
    fn put_tx(buf: &mut Vec<u8>, tx: &TxOp) {
        buf.extend((tx.sub_ops.len() as u64).to_be_bytes());
        for sub in &tx.sub_ops {
            put_keys(buf, &sub.keys);
            put(buf, &sub.op);
        }
    }

    /// SHA-256 over the first 64 draws, each appended by `draw`.
    fn draws_digest(mut draw: impl FnMut(u64, &mut Vec<u8>)) -> String {
        let mut buf = Vec::new();
        for seq in 0..64 {
            draw(seq, &mut buf);
        }
        pbft_crypto::sha256(&buf).to_string()
    }

    /// The generators' bytes are what every committed artifact replays:
    /// the first 64 draws of each are pinned, so a change to a generator's
    /// shape that alters one op byte, read flag or key fails here in
    /// seconds rather than in a bench re-run. `unkeyed` leaves the keys
    /// out: the pins of `null_ops`, `null_reads` and `sql_insert_ops` were
    /// taken before those generators named keys, and their keys are pinned
    /// by the stamp and row-key tests below.
    #[test]
    fn golden_generator_draws() {
        let unkeyed = |mut gen: OpGen| {
            draws_digest(move |seq, buf| {
                let draw = gen(seq);
                put_op(buf, &draw.op, draw.read_only);
            })
        };
        let keyed = |mut gen: OpGen| {
            draws_digest(move |seq, buf| {
                let draw = gen(seq);
                put_keys(buf, &draw.keys);
                put_op(buf, &draw.op, draw.read_only);
            })
        };
        let txs = |mut gen: TxGen| draws_digest(move |seq, buf| put_tx(buf, &gen(seq)));
        let pinned = [
            (
                "null_ops(64)",
                unkeyed(null_ops(64)),
                "1b430112d97e184b59810f6ebae40964775c60a4ac90b4362e85a38e4bfae89f",
            ),
            (
                "null_ops(1024)",
                unkeyed(null_ops(1024)),
                "3946ee511de34577521da6c0138f868fbd5b51139d17730b21899732712d41d7",
            ),
            (
                "null_reads(128)",
                unkeyed(null_reads(128)),
                "184ea8ca9f0ec86b3348f5051261cd5fd6aa6c495052c4fdb0a78809e2e54fec",
            ),
            (
                "sql_insert_ops(3)",
                unkeyed(sql_insert_ops(3)),
                "3dc30be2ec998c5ccf519546993b37bf7a2cd54499407eac899e46018d58cdaf",
            ),
            (
                "keyed_null_ops(64, 9)",
                keyed(keyed_null_ops(64, 9)),
                "6e67c83de57f723c68dbfface39cc3ddc9e833208bf750d8e0ad5bc85e4cb95b",
            ),
            (
                "keyed_kv_ops(64, 5)",
                keyed(keyed_kv_ops(64, 5)),
                "5812ddaea413af38f581b3314223fa2924023e44405b0d8a5857fd157cfc4e9f",
            ),
            (
                "keyed_kv_mix(8, 50, 5)",
                keyed(keyed_kv_mix(8, 50, 5)),
                "ae1a33863e435a156db78dfb46d8e4d9db9e02a190bf426a0cde2d89f1af5c12",
            ),
            (
                "cross_null_txs(4 shards, 64, 128, 7)",
                txs(cross_null_txs(ShardMap::new(4), 64, 128, 7)),
                "d6ff71da4483a5215b1668e13390c501a381661be8bd03dba799fffe4fdb7327",
            ),
            (
                "transfer_txs(16, 10, 3)",
                txs(transfer_txs(16, 10, 3)),
                "fed643de6e5a32a2e2cf6c80778861a831a2ec5d646c1d44575b8b5b037426b5",
            ),
            (
                "cross_precinct_ballot_txs([1, 2, 3], [a, b], 5)",
                txs(cross_precinct_ballot_txs(&[1, 2, 3], &["a", "b"], 5)),
                "b5fa51b17abb150992842f898dcf86db1fd0bdf94285d4904fefb97cb551f526",
            ),
        ];
        for (name, got, want) in pinned {
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn null_ops_are_distinct_and_sized() {
        let mut gen = null_ops(256);
        let (a, b) = (gen(1), gen(2));
        assert_eq!(a.op.len(), 256);
        assert!(!a.read_only);
        assert_ne!(a.op, b.op);
        assert_eq!(
            a.keys,
            vec![1u64.to_be_bytes().to_vec()],
            "key is the stamp"
        );
        assert_eq!(&a.op[..8], &a.keys[0][..]);
        let short = null_ops(4)(7);
        assert_eq!(
            short.op,
            7u64.to_be_bytes()[..4],
            "a short op holds a cut stamp"
        );
        assert_eq!(short.keys[0], 7u64.to_be_bytes(), "but its key is whole");
    }

    #[test]
    fn null_reads_are_read_only() {
        let mut gen = null_reads(128);
        let (a, b) = (gen(1), gen(2));
        assert_eq!(a.op.len(), 128);
        assert!(a.read_only);
        assert_ne!(a.op, b.op);
        assert_eq!(a.keys, null_ops(128)(1).keys, "reads key like writes");
    }

    #[test]
    fn keyed_kv_mix_reads_and_writes_share_keys() {
        let mut gen = keyed_kv_mix(8, 50, 5);
        let (mut saw_read, mut saw_write) = (false, false);
        for seq in 0..100 {
            let keyed = gen(seq);
            assert_eq!(keyed.keys[0].len(), 8);
            if keyed.read_only {
                saw_read = true;
                assert_eq!(keyed.op[0], b'g');
            } else {
                saw_write = true;
                assert_eq!(keyed.op[0], b'p');
            }
            assert_eq!(
                &keyed.op[1..9],
                &keyed.keys[0][..],
                "op key matches shard key"
            );
        }
        assert!(saw_read && saw_write, "a 50% mix draws both sides");
    }

    #[test]
    fn sql_ops_insert_rows() {
        let mut gen = sql_insert_ops(3);
        let draw = gen(9);
        let sql = String::from_utf8(draw.op).expect("utf8");
        assert!(sql.contains("INSERT INTO bench"));
        assert!(sql.contains("voter-3-9"));
        assert!(sql.contains("now()"));
        assert!(sql.contains("random()"));
        assert!(!draw.read_only);
    }

    #[test]
    fn keyed_null_ops_key_matches_stamp() {
        let mut gen = keyed_null_ops(64, 9);
        let a = gen(0);
        let b = gen(1);
        assert_eq!(a.keys.len(), 1);
        assert_eq!(a.keys[0].len(), 16);
        assert_eq!(&a.op[..16], &a.keys[0][..], "key is stamped into the op");
        assert_ne!(a.keys[0], b.keys[0], "distinct seq, distinct key");
        assert_eq!(a.op.len(), 64);
    }

    #[test]
    fn keyed_sql_ops_key_on_the_row_key() {
        let mut gen = sql_insert_ops(3);
        let keyed = gen(9);
        assert_eq!(keyed.keys, vec![b"voter-3-9".to_vec()]);
        let sql = String::from_utf8(keyed.op).expect("utf8");
        assert!(sql.contains("'voter-3-9'"));
        assert_eq!(pbft_sql::shard_key(&sql), Some(keyed.keys[0].clone()));
    }

    #[test]
    fn cross_null_txs_always_span_two_shards() {
        let map = ShardMap::new(4);
        let mut gen = cross_null_txs(map, 64, 128, 7);
        for seq in 0..50 {
            let tx = gen(seq);
            assert_eq!(tx.sub_ops.len(), 2);
            let shards: Vec<u32> = tx
                .sub_ops
                .iter()
                .map(|s| map.shard_of(&s.keys[0]))
                .collect();
            assert_ne!(shards[0], shards[1], "sub-ops must land on distinct groups");
            for sub in &tx.sub_ops {
                assert_eq!(sub.op.len(), 64);
                assert_eq!(&sub.op[..8], &sub.keys[0][..], "key stamped into the body");
            }
        }
        // Deterministic: the same (tag, seq) draws the same transaction.
        assert_eq!(gen(3), cross_null_txs(map, 64, 128, 7)(3));
    }

    #[test]
    fn transfer_txs_move_between_distinct_accounts() {
        let mut gen = transfer_txs(16, 10, 3);
        for seq in 0..30 {
            let tx = gen(seq);
            assert_eq!(tx.sub_ops.len(), 2);
            assert_ne!(tx.sub_ops[0].keys, tx.sub_ops[1].keys, "no self-transfers");
            let debit = std::str::from_utf8(&tx.sub_ops[0].op).expect("sql");
            let credit = std::str::from_utf8(&tx.sub_ops[1].op).expect("sql");
            assert!(debit.contains("bal - "));
            assert!(credit.contains("bal + "));
            // The sub-op's routing key matches the SQL's own shard key.
            assert_eq!(
                pbft_sql::shard_key(debit).as_deref(),
                Some(&tx.sub_ops[0].keys[0][..])
            );
        }
    }

    #[test]
    fn ballot_txs_pick_two_distinct_precincts() {
        let mut gen = cross_precinct_ballot_txs(&[1, 2, 3], &["a", "b"], 5);
        for seq in 0..20 {
            let tx = gen(seq);
            assert_eq!(tx.sub_ops.len(), 2);
            assert_ne!(tx.sub_ops[0].keys, tx.sub_ops[1].keys);
            assert!(evoting::VoteOp::decode(&tx.sub_ops[0].op).is_some());
        }
    }
}
