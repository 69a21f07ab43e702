//! Closed-loop client workloads.
//!
//! Two generator shapes coexist:
//!
//! * [`OpGen`] — the original single-group shape: a stream of raw
//!   `(op bytes, read_only)` pairs, installed per client by
//!   [`Cluster::start_workload`](crate::Cluster::start_workload).
//! * [`KeyedOpGen`] — the sharded shape: each operation additionally names
//!   the **shard keys** it touches ([`KeyedOp`]), so the shard router can
//!   assign it to the PBFT group owning those keys (or reject it as
//!   cross-shard). [`Deployment`](crate::Deployment) installs these.
//! * [`TxGen`] — the transactional shape: each draw is a [`TxOp`], a *set*
//!   of single-shard sub-operations to apply atomically. Transactions whose
//!   sub-ops span groups go through the two-phase commit of
//!   [`crate::xshard`]; single-group ones collapse to the fast path.

use pbft_xshard::routing::{stable_key_hash, ShardMap};
use pbft_xshard::xshard::SubOp;

/// A generator producing the next operation for a closed-loop client:
/// `(op bytes, read_only)`.
pub type OpGen = Box<dyn FnMut(u64) -> (Vec<u8>, bool)>;

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

/// A generator producing the next key-tagged operation for a closed-loop
/// client of a sharded deployment.
pub type KeyedOpGen = Box<dyn FnMut(u64) -> KeyedOp>;

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
pub fn keyed_kv_ops(key_space: u64, tag: u64) -> KeyedOpGen {
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
pub fn keyed_null_ops(size: usize, tag: u64) -> KeyedOpGen {
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

/// The §4.2 SQL row-insert workload with its shard key attached: the key is
/// the inserted row's `k` column (the voter identity), extracted by the same
/// [`pbft_sql::shard_key`] convention every router-side tool uses.
pub fn keyed_sql_insert_ops(client_tag: u64) -> KeyedOpGen {
    let mut inner = sql_insert_ops(client_tag);
    Box::new(move |seq| {
        let (op, read_only) = inner(seq);
        let sql = std::str::from_utf8(&op).expect("generated SQL is UTF-8");
        let key = pbft_sql::shard_key(sql).expect("inserts always carry a key literal");
        KeyedOp {
            keys: vec![key],
            op,
            read_only,
        }
    })
}

/// E-voting sessions over several elections, keyed so that each election's
/// traffic routes to the group owning it (see [`evoting::VoteOp::shard_key`]).
pub fn keyed_evoting_ops(
    elections: &'static [i64],
    choices: &'static [&'static str],
) -> KeyedOpGen {
    Box::new(move |seq| {
        let election = elections[(seq as usize) % elections.len()];
        let choice = choices[(seq as usize) % choices.len()];
        let op = evoting::VoteOp::CastVote {
            election,
            choice: choice.to_string(),
        };
        KeyedOp {
            keys: vec![op.shard_key()],
            op: op.encode(),
            read_only: false,
        }
    })
}

/// Null operations of a fixed size — the workload behind Table 1 / Figure 4
/// ("The client and server programs built to measure throughput transmit
/// null requests and responses of varying sizes").
pub fn null_ops(size: usize) -> OpGen {
    Box::new(move |seq| {
        let mut op = vec![0u8; size];
        // Stamp the sequence so requests are distinct (distinct digests).
        op[..8.min(size)].copy_from_slice(&seq.to_be_bytes()[..8.min(size)]);
        (op, false)
    })
}

/// Read-only null operations: the Table 1 null-op body with the read-only
/// flag set, so every request rides the §2.1 optimistic fast path (one
/// round trip, 2f+1 matching replies, no agreement). The pure-read
/// counterpart of [`null_ops`], used by the hot-path bench's read rows.
pub fn null_reads(size: usize) -> OpGen {
    Box::new(move |seq| {
        let mut op = vec![0u8; size];
        op[..8.min(size)].copy_from_slice(&seq.to_be_bytes()[..8.min(size)]);
        (op, true)
    })
}

/// A deterministic read/write mix of null operations: each draw is
/// read-only with probability `read_pct`/100 (decided by the same stable
/// hash as every other workload, so a `(tag, seq)` pair always lands on
/// the same side). `read_pct = 0` degenerates to [`null_ops`], `100` to
/// [`null_reads`]; anything between exercises the optimistic read path
/// *interleaved* with agreement traffic — the contention regime the
/// deferred-read gate and the escalation fallback exist for.
pub fn null_mix(size: usize, read_pct: u64, tag: u64) -> OpGen {
    assert!(read_pct <= 100, "read_pct is a percentage");
    Box::new(move |seq| {
        let mut op = vec![0u8; size];
        let stamp = [tag.to_be_bytes(), seq.to_be_bytes()].concat();
        let n = stamp.len().min(size);
        op[..n].copy_from_slice(&stamp[..n]);
        (op, mix(tag, seq, 9) % 100 < read_pct)
    })
}

/// Keyed KV traffic with a read fraction: like [`keyed_kv_ops`], but each
/// draw is a `get` of the drawn key with probability `read_pct`/100 and a
/// `put` of a fresh value otherwise. Reads and writes contend for the same
/// bounded key space, so replicas genuinely hit the dirty-key deferral
/// path when the mix runs against an uncommitted tentative batch.
pub fn keyed_kv_mix(key_space: u64, read_pct: u64, tag: u64) -> KeyedOpGen {
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
/// accompanying vote), in addition to a timestamp and a random value".
pub fn sql_insert_ops(client_tag: u64) -> OpGen {
    Box::new(move |seq| {
        let sql = format!(
            "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-{client_tag}-{seq}', 'vote-{seq}', now(), random())"
        );
        (sql.into_bytes(), false)
    })
}

/// The schema the SQL workloads expect.
pub const SQL_BENCH_SCHEMA: &str =
    "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";

/// E-voting sessions: every operation casts a vote in election 1.
pub fn evoting_ops(choices: &'static [&'static str]) -> OpGen {
    Box::new(move |seq| {
        let choice = choices[(seq as usize) % choices.len()];
        let op = evoting::VoteOp::CastVote {
            election: 1,
            choice: choice.to_string(),
        };
        (op.encode(), false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ops_are_distinct_and_sized() {
        let mut gen = null_ops(256);
        let (a, ro) = gen(1);
        let (b, _) = gen(2);
        assert_eq!(a.len(), 256);
        assert!(!ro);
        assert_ne!(a, b);
    }

    #[test]
    fn null_reads_are_read_only() {
        let mut gen = null_reads(128);
        let (a, ro) = gen(1);
        let (b, _) = gen(2);
        assert_eq!(a.len(), 128);
        assert!(ro);
        assert_ne!(a, b);
    }

    #[test]
    fn null_mix_respects_the_read_fraction() {
        let mut pure_writes = null_mix(64, 0, 3);
        let mut pure_reads = null_mix(64, 100, 3);
        let mut mixed = null_mix(64, 40, 3);
        let mut reads = 0u64;
        for seq in 0..200 {
            assert!(!pure_writes(seq).1);
            assert!(pure_reads(seq).1);
            if mixed(seq).1 {
                reads += 1;
            }
        }
        // Deterministic hash, so the realized fraction is stable and near
        // the requested one.
        assert!((60..=100).contains(&reads), "40% of 200 draws, got {reads}");
        assert_eq!(
            mixed(7),
            null_mix(64, 40, 3)(7),
            "same (tag, seq), same draw"
        );
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
        let (op, ro) = gen(9);
        let sql = String::from_utf8(op).expect("utf8");
        assert!(sql.contains("INSERT INTO bench"));
        assert!(sql.contains("voter-3-9"));
        assert!(sql.contains("now()"));
        assert!(sql.contains("random()"));
        assert!(!ro);
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
        let mut gen = keyed_sql_insert_ops(3);
        let keyed = gen(9);
        assert_eq!(keyed.keys, vec![b"voter-3-9".to_vec()]);
        let sql = String::from_utf8(keyed.op).expect("utf8");
        assert!(sql.contains("'voter-3-9'"));
    }

    #[test]
    fn keyed_evoting_ops_key_on_the_election() {
        let mut gen = keyed_evoting_ops(&[1, 2], &["a", "b", "c"]);
        let first = gen(0);
        let third = gen(2);
        assert_eq!(first.keys, third.keys, "elections rotate with period 2");
        assert_ne!(first.keys, gen(1).keys);
        assert!(evoting::VoteOp::decode(&first.op).is_some());
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

    #[test]
    fn evoting_ops_rotate_choices() {
        let mut gen = evoting_ops(&["a", "b"]);
        let (op1, _) = gen(0);
        let (op2, _) = gen(1);
        assert_ne!(op1, op2);
        assert!(evoting::VoteOp::decode(&op1).is_some());
    }
}
