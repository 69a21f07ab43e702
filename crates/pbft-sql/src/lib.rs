//! The SQL state abstraction for PBFT (paper §3.2).
//!
//! "We decided to adapt an embedded relational database engine to intervene
//! between the PBFT middleware library and the application. This way, the
//! application will have SQL-level access to its state and the embedded
//! engine will take care of interfacing with the PBFT library to satisfy its
//! requirements."
//!
//! Three pieces implement that sentence:
//!
//! * [`StateVfs`] — a `minisql` VFS whose backing file *is* the application
//!   partition of the replicated state region. Every write issues the
//!   `modify()` notification the PBFT library requires before memory
//!   changes, so checkpointing and state transfer see the database for free
//!   (the paper's Figure 3 layering).
//! * [`SqlApp`] — a [`pbft_core::App`] that executes ordered operations as
//!   SQL, with the engine's `now()`/`random()` wired to the primary's agreed
//!   non-deterministic data (§2.5: identical on every replica), ACID via the
//!   rollback journal or the no-ACID mode for the §4.2 comparison, and
//!   execution metrics (CPU, flushes, bytes) reported for cost accounting.
//! * [`outcome`] — a canonical byte encoding of query results, so replies
//!   from different replicas match bit-for-bit at the client.

#![forbid(unsafe_code)]

pub mod app;
pub mod outcome;
pub mod transfer;
pub mod vfs;

pub use app::{sql_state, CostProfile, SqlApp};
pub use outcome::{decode_outcome, encode_outcome, WireOutcome};
pub use transfer::Transfer;
pub use vfs::StateVfs;

/// The stable shard key of a SQL operation, by the workload convention used
/// throughout this repo: the row's logical key is **the first string
/// literal of the `WHERE` clause** when the statement has one (point
/// lookups, updates, deletes), else **the first string literal of the
/// statement** (the §4.2 insert puts the voter identity first in its
/// `VALUES`). Returns `None` for statements that name no such literal —
/// schema changes, whole-table scans — which a shard router treats as
/// unroutable rather than guessing.
///
/// The convention's limits are part of the contract: a statement whose key
/// column is neither the first `VALUES` literal nor the first `WHERE`
/// literal (say, `INSERT INTO t (v, k) VALUES ('val', 'key')`) will key on
/// the wrong literal. Workload generators in this repo emit only conforming
/// shapes; new op generators must do the same or extend this function.
///
/// The extraction understands minisql's quoting: single quotes with `''` as
/// the escape. It is deliberately *not* a SQL parse: the shard key must be
/// computable by a thin client that does not link the database engine.
///
/// ```
/// let sql = "INSERT INTO bench (k, v) VALUES ('voter-7-1', 'vote-1')";
/// assert_eq!(pbft_sql::shard_key(sql).as_deref(), Some(&b"voter-7-1"[..]));
/// let upd = "UPDATE bench SET v = 'new' WHERE k = 'voter-7-1'";
/// assert_eq!(pbft_sql::shard_key(upd).as_deref(), Some(&b"voter-7-1"[..]));
/// assert_eq!(pbft_sql::shard_key("DELETE FROM bench"), None);
/// ```
pub fn shard_key(sql: &str) -> Option<Vec<u8>> {
    // Key on the WHERE clause when there is one: `UPDATE ... SET v = 'x'
    // WHERE k = 'key'` must route by the row key, not the new value.
    let scope = match sql.to_ascii_uppercase().find("WHERE") {
        Some(pos) => &sql[pos..],
        None => sql,
    };
    first_string_literal(scope)
}

/// First single-quoted literal of `sql` (with `''` unescaped), or `None`.
fn first_string_literal(sql: &str) -> Option<Vec<u8>> {
    let bytes = sql.as_bytes();
    let start = bytes.iter().position(|&b| b == b'\'')? + 1;
    let mut out = Vec::new();
    let mut i = start;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push(b'\'');
                i += 2;
                continue;
            }
            return Some(out);
        }
        out.push(bytes[i]);
        i += 1;
    }
    None // unterminated literal: not a routable statement
}

#[cfg(test)]
mod shard_key_tests {
    use super::shard_key;

    #[test]
    fn insert_keys_on_the_first_literal() {
        let sql = "INSERT INTO bench (k, v, ts, rnd) \
                   VALUES ('voter-3-9', 'vote-9', now(), random())";
        assert_eq!(shard_key(sql).as_deref(), Some(&b"voter-3-9"[..]));
    }

    #[test]
    fn where_clause_keys_point_lookups() {
        assert_eq!(
            shard_key("SELECT v FROM bench WHERE k = 'voter-1-2'").as_deref(),
            Some(&b"voter-1-2"[..])
        );
    }

    #[test]
    fn where_clause_wins_over_earlier_literals() {
        // An UPDATE's first literal is the new value; the row key lives in
        // the WHERE clause and must win, or the op misroutes.
        assert_eq!(
            shard_key("UPDATE bench SET v = 'new' WHERE k = 'voter-1-2'").as_deref(),
            Some(&b"voter-1-2"[..])
        );
        assert_eq!(
            shard_key("DELETE FROM bench WHERE k = 'voter-5-0'").as_deref(),
            Some(&b"voter-5-0"[..])
        );
        // A WHERE clause with no literal is unroutable, even if earlier
        // parts of the statement had one.
        assert_eq!(shard_key("UPDATE bench SET v = 'x' WHERE id = 5"), None);
    }

    #[test]
    fn escaped_quotes_are_part_of_the_key() {
        assert_eq!(shard_key("SELECT 'it''s'").as_deref(), Some(&b"it's"[..]));
    }

    #[test]
    fn keyless_and_malformed_statements_are_unroutable() {
        assert_eq!(shard_key("CREATE TABLE t (a INTEGER)"), None);
        assert_eq!(shard_key("SELECT 'unterminated"), None);
        assert_eq!(shard_key(""), None);
    }
}
