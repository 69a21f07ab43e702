//! Canonical byte encoding for SQL execution outcomes.
//!
//! Replies from different replicas must match byte-for-byte for the client's
//! quorum matching to work, so outcomes (including error messages, which
//! minisql keeps deterministic) get a canonical encoding.

use minisql::{decode_row, encode_row, ExecOutcome, Rows, SqlError};
use pbft_core::wire::{Dec, Enc};

/// A decoded reply.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// Query rows.
    Rows(Rows),
    /// Rows affected.
    Affected(u64),
    /// Statement completed without output.
    Done,
    /// The statement failed (deterministically) with this message.
    Error(String),
}

/// Most columns a decoded reply may claim.
const MAX_COLUMNS: usize = 10_000;
/// Most rows a decoded reply may claim.
const MAX_ROWS: usize = 10_000_000;

/// Encode an execution result: a tag byte, then nothing (`Done`), the
/// big-endian count (`Affected`), the `u32`-counted length-prefixed column
/// names and encoded rows (`Rows`), or the error text to the end (`Error`).
pub fn encode_outcome(result: &Result<ExecOutcome, SqlError>) -> Vec<u8> {
    // Room for the tag and an affected count: one allocation for the reply
    // of every write.
    let mut e = Enc::from_vec(Vec::with_capacity(9));
    match result {
        Ok(ExecOutcome::Done) => {
            e.u8(0);
        }
        Ok(ExecOutcome::Affected(n)) => {
            e.u8(1).u64(*n);
        }
        Ok(ExecOutcome::Rows(rows)) => {
            e.u8(2).u32(rows.columns.len() as u32);
            for c in &rows.columns {
                e.bytes(c.as_bytes());
            }
            e.u32(rows.rows.len() as u32);
            for row in &rows.rows {
                e.bytes(&encode_row(row));
            }
        }
        Err(err) => {
            e.u8(3).raw(err.to_string().as_bytes());
        }
    }
    e.into_bytes()
}

/// Decode an execution result.
///
/// Returns `None` on malformed bytes (a Byzantine replica's reply simply
/// fails to match the quorum). Bytes after a `Done` or `Affected` reply are
/// ignored; a `Rows` reply must end with its last row.
pub fn decode_outcome(bytes: &[u8]) -> Option<WireOutcome> {
    let mut d = Dec::new(bytes);
    match d.u8().ok()? {
        0 => Some(WireOutcome::Done),
        1 => Some(WireOutcome::Affected(d.u64().ok()?)),
        2 => decode_rows(&mut d).map(WireOutcome::Rows),
        3 => Some(WireOutcome::Error(
            String::from_utf8(d.rest().to_vec()).ok()?,
        )),
        _ => None,
    }
}

fn decode_rows(d: &mut Dec<'_>) -> Option<Rows> {
    // Every column name and every row is at least its length prefix.
    let ncols = d.count(4).ok().filter(|&n| n <= MAX_COLUMNS)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(String::from_utf8(d.bytes().ok()?).ok()?);
    }
    let nrows = d.count(4).ok().filter(|&n| n <= MAX_ROWS)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        rows.push(decode_row(d.bytes_ref().ok()?).ok()?);
    }
    d.finish().ok()?;
    Some(Rows { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minisql::Value;

    #[test]
    fn done_and_affected_roundtrip() {
        assert_eq!(
            decode_outcome(&encode_outcome(&Ok(ExecOutcome::Done))),
            Some(WireOutcome::Done)
        );
        assert_eq!(
            decode_outcome(&encode_outcome(&Ok(ExecOutcome::Affected(7)))),
            Some(WireOutcome::Affected(7))
        );
    }

    #[test]
    fn rows_roundtrip() {
        let rows = Rows {
            columns: vec!["choice".into(), "n".into()],
            rows: vec![
                vec![Value::Text("yes".into()), Value::Integer(3)],
                vec![Value::Null, Value::Real(1.5)],
            ],
        };
        let enc = encode_outcome(&Ok(ExecOutcome::Rows(rows.clone())));
        assert_eq!(decode_outcome(&enc), Some(WireOutcome::Rows(rows)));
    }

    #[test]
    fn errors_roundtrip() {
        let enc = encode_outcome(&Err(SqlError::Schema("no such table: x".into())));
        assert_eq!(
            decode_outcome(&enc),
            Some(WireOutcome::Error("schema error: no such table: x".into()))
        );
    }

    #[test]
    fn identical_outcomes_identical_bytes() {
        let a = encode_outcome(&Ok(ExecOutcome::Affected(1)));
        let b = encode_outcome(&Ok(ExecOutcome::Affected(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decode_outcome(&[]), None);
        assert_eq!(decode_outcome(&[9]), None);
        assert_eq!(decode_outcome(&[1, 0]), None);
        let mut enc = encode_outcome(&Ok(ExecOutcome::Affected(1)));
        enc.push(0xff);
        // Bytes after a fixed-length reply are never read.
        assert_eq!(decode_outcome(&enc), Some(WireOutcome::Affected(1)));
    }
}
