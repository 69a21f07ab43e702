//! Row (record) serialization: the payload stored in table B+tree leaves.

use crate::error::SqlError;
use crate::value::Value;

/// Serialize a row of values.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_row_into(values, &mut out);
    out
}

/// Serialize a row of values into `out`, replacing its contents (a kept
/// buffer: it grows to the largest row and never shrinks).
pub fn encode_row_into(values: &[Value], out: &mut Vec<u8>) {
    // Sized exactly: one allocation, never a regrowth.
    let len = 2 + values
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Integer(_) | Value::Real(_) => 9,
            Value::Text(t) => 5 + t.len(),
            Value::Blob(b) => 5 + b.len(),
        })
        .sum::<usize>();
    out.clear();
    out.reserve_exact(len);
    out.extend_from_slice(&(values.len() as u16).to_be_bytes());
    for v in values {
        match v {
            Value::Null => out.push(0),
            Value::Integer(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Real(r) => {
                out.push(2);
                out.extend_from_slice(&r.to_bits().to_be_bytes());
            }
            Value::Text(t) => {
                out.push(3);
                out.extend_from_slice(&(t.len() as u32).to_be_bytes());
                out.extend_from_slice(t.as_bytes());
            }
            Value::Blob(b) => {
                out.push(4);
                out.extend_from_slice(&(b.len() as u32).to_be_bytes());
                out.extend_from_slice(b);
            }
        }
    }
}

/// Deserialize a row.
///
/// # Errors
/// [`SqlError::Corrupt`] on malformed payloads.
pub fn decode_row(data: &[u8]) -> Result<Vec<Value>, SqlError> {
    let corrupt = |m: &str| SqlError::Corrupt(format!("record: {m}"));
    if data.len() < 2 {
        return Err(corrupt("short header"));
    }
    let n = u16::from_be_bytes([data[0], data[1]]) as usize;
    let mut pos = 2usize;
    // The count is the record's claim, and records arrive by state
    // transfer: reserve no more than the bytes left can hold, every value
    // being at least its one-byte tag.
    let mut out = Vec::with_capacity(n.min(data.len() - pos));
    let take = |pos: &mut usize, len: usize| -> Result<&[u8], SqlError> {
        if *pos + len > data.len() {
            return Err(SqlError::Corrupt("record: truncated field".into()));
        }
        let s = &data[*pos..*pos + len];
        *pos += len;
        Ok(s)
    };
    for _ in 0..n {
        let tag = *take(&mut pos, 1)?.first().expect("one byte");
        out.push(match tag {
            0 => Value::Null,
            1 => Value::Integer(i64::from_be_bytes(
                take(&mut pos, 8)?.try_into().expect("8 bytes"),
            )),
            2 => Value::Real(f64::from_bits(u64::from_be_bytes(
                take(&mut pos, 8)?.try_into().expect("8 bytes"),
            ))),
            3 => {
                let len =
                    u32::from_be_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
                let bytes = take(&mut pos, len)?;
                Value::Text(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| corrupt("invalid utf-8 in text"))?,
                )
            }
            4 => {
                let len =
                    u32::from_be_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
                Value::Blob(take(&mut pos, len)?.to_vec())
            }
            other => return Err(corrupt(&format!("unknown value tag {other}"))),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let row = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Real(1.5),
            Value::Text("héllo".into()),
            Value::Blob(vec![0, 1, 2, 255]),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).expect("decode"), row);
    }

    #[test]
    fn empty_row() {
        let bytes = encode_row(&[]);
        assert_eq!(decode_row(&bytes).expect("decode"), Vec::<Value>::new());
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_row(&[Value::Text("hello".into())]);
        assert!(decode_row(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[0, 1, 9]).is_err());
    }

    #[test]
    fn nan_and_negative_zero_roundtrip() {
        let row = vec![Value::Real(f64::NAN), Value::Real(-0.0)];
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).expect("decode");
        match (&back[0], &back[1]) {
            (Value::Real(a), Value::Real(b)) => {
                assert!(a.is_nan());
                assert!(b.is_sign_negative() && *b == 0.0);
            }
            other => panic!("{other:?}"),
        }
    }
}
