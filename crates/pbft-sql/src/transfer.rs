//! Cross-row balance transfers: the transactional workload for cross-shard
//! experiments.
//!
//! The §4.2 evaluation inserts independent rows, which shards embarrassingly
//! (every statement touches one key). A *transfer* between two account rows
//! is the canonical workload that does not: when the two rows live on
//! different PBFT groups, moving balance atomically needs the cross-shard
//! commit of `pbft_xshard::xshard`. This module defines the account schema,
//! the per-row debit/credit sub-statements (each single-shard by
//! construction, keyed by the [`crate::shard_key`] convention: the row key
//! is the first `WHERE` literal), and the conservation probe the
//! experiments assert with — the global balance sum is invariant under
//! committed transfers and under aborted ones, but **not** under a
//! half-applied transfer, which makes `SUM(bal)` a one-query atomicity
//! audit.
//!
//! ```
//! use pbft_sql::transfer::Transfer;
//!
//! let t = Transfer { from: "acct-3".into(), to: "acct-8".into(), amount: 25 };
//! let [(debit_key, debit_sql), (credit_key, credit_sql)] = t.sub_ops();
//! assert_eq!(debit_key, b"acct-3".to_vec());
//! assert_eq!(credit_key, b"acct-8".to_vec());
//! assert!(debit_sql.contains("bal - 25"));
//! assert!(credit_sql.contains("bal + 25"));
//! // Each sub-statement keys on its own row — routable independently.
//! assert_eq!(pbft_sql::shard_key(&debit_sql), Some(debit_key));
//! ```

/// The account table backing the transfer workload.
pub const ACCOUNTS_SCHEMA: &str =
    "CREATE TABLE accounts (id INTEGER PRIMARY KEY, k TEXT, bal INTEGER)";

/// The conservation probe: the sum of all balances (read-only).
pub const SUM_BALANCES_SQL: &str = "SELECT SUM(bal) FROM accounts";

/// The canonical account row key for index `i` (shared by workload
/// generators and audits so they name the same rows).
pub fn account_key(i: u64) -> String {
    format!("acct-{i}")
}

/// Escape a string for inclusion in a single-quoted SQL literal.
fn quote(s: &str) -> String {
    s.replace('\'', "''")
}

/// Setup script: schema plus `accounts` rows `acct-0 .. acct-{n-1}`, each
/// opened with `initial_balance`.
pub fn accounts_setup(accounts: u64, initial_balance: i64) -> String {
    let mut sql = String::from(ACCOUNTS_SCHEMA);
    for i in 0..accounts {
        sql.push_str(&format!(
            "; INSERT INTO accounts (k, bal) VALUES ('{}', {initial_balance})",
            quote(&account_key(i))
        ));
    }
    sql
}

/// A balance transfer between two account rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Row key debited.
    pub from: String,
    /// Row key credited.
    pub to: String,
    /// Amount moved.
    pub amount: i64,
}

impl Transfer {
    /// The debit statement (keys on `from` via its `WHERE` literal).
    pub fn debit_sql(&self) -> String {
        format!(
            "UPDATE accounts SET bal = bal - {} WHERE k = '{}'",
            self.amount,
            quote(&self.from)
        )
    }

    /// The credit statement (keys on `to` via its `WHERE` literal).
    pub fn credit_sql(&self) -> String {
        format!(
            "UPDATE accounts SET bal = bal + {} WHERE k = '{}'",
            self.amount,
            quote(&self.to)
        )
    }

    /// The transfer as two single-shard sub-operations: `(shard key, SQL)`
    /// for the debit leg then the credit leg. Feed these to
    /// `pbft_xshard::xshard::XShardOp::route` — when both rows happen to live
    /// on one group the transaction collapses to a single-group batch, and
    /// when they do not, each leg locks and stages on its own group.
    pub fn sub_ops(&self) -> [(Vec<u8>, String); 2] {
        [
            (self.from.as_bytes().to_vec(), self.debit_sql()),
            (self.to.as_bytes().to_vec(), self.credit_sql()),
        ]
    }
}

/// Decode the reply of [`SUM_BALANCES_SQL`] into the total balance.
/// `None` for error replies or an empty table.
pub fn decode_sum(reply: &[u8]) -> Option<i64> {
    match crate::decode_outcome(reply)? {
        crate::WireOutcome::Rows(rows) => match rows.rows.first()?.first()? {
            minisql::Value::Integer(n) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{sql_state, CostProfile, SqlApp};
    use minisql::JournalMode;
    use pbft_core::app::{App, NonDet};
    use pbft_core::ClientId;

    fn app_with_accounts(n: u64, bal: i64) -> SqlApp {
        SqlApp::open(
            sql_state(256),
            JournalMode::Rollback,
            CostProfile::default(),
            Some(&accounts_setup(n, bal)),
        )
        .expect("open")
    }

    #[test]
    fn setup_seeds_accounts_and_sum() {
        let mut app = app_with_accounts(8, 100);
        let (reply, _) = app.execute(
            ClientId(1),
            SUM_BALANCES_SQL.as_bytes(),
            &NonDet::default(),
            true,
        );
        assert_eq!(decode_sum(&reply), Some(800));
    }

    #[test]
    fn debit_and_credit_conserve_the_sum() {
        let mut app = app_with_accounts(4, 50);
        let t = Transfer {
            from: account_key(0),
            to: account_key(3),
            amount: 20,
        };
        for sql in [t.debit_sql(), t.credit_sql()] {
            let (reply, _) = app.execute(ClientId(1), sql.as_bytes(), &NonDet::default(), false);
            assert!(matches!(
                crate::decode_outcome(&reply),
                Some(crate::WireOutcome::Affected(1))
            ));
        }
        let (reply, _) = app.execute(
            ClientId(1),
            SUM_BALANCES_SQL.as_bytes(),
            &NonDet::default(),
            true,
        );
        assert_eq!(
            decode_sum(&reply),
            Some(200),
            "transfers conserve the total"
        );
        // And the individual balances moved.
        let (reply, _) = app.execute(
            ClientId(1),
            b"SELECT bal FROM accounts WHERE k = 'acct-0'",
            &NonDet::default(),
            true,
        );
        match crate::decode_outcome(&reply) {
            Some(crate::WireOutcome::Rows(rows)) => {
                assert_eq!(rows.rows[0][0], minisql::Value::Integer(30));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn half_a_transfer_breaks_conservation() {
        // The property the atomicity experiments lean on: applying only the
        // debit leg is visible in SUM(bal).
        let mut app = app_with_accounts(2, 10);
        let t = Transfer {
            from: account_key(0),
            to: account_key(1),
            amount: 5,
        };
        let _ = app.execute(
            ClientId(1),
            t.debit_sql().as_bytes(),
            &NonDet::default(),
            false,
        );
        let (reply, _) = app.execute(
            ClientId(1),
            SUM_BALANCES_SQL.as_bytes(),
            &NonDet::default(),
            true,
        );
        assert_eq!(
            decode_sum(&reply),
            Some(15),
            "half-applied transfer leaks balance"
        );
    }

    #[test]
    fn sub_ops_route_by_their_where_literal() {
        let t = Transfer {
            from: "it's".into(),
            to: "b".into(),
            amount: 1,
        };
        let [(dk, dsql), (ck, csql)] = t.sub_ops();
        assert_eq!(
            crate::shard_key(&dsql).as_deref(),
            Some(&dk[..]),
            "quoting round-trips"
        );
        assert_eq!(crate::shard_key(&csql).as_deref(), Some(&ck[..]));
    }
}
