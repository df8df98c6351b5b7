//! Row representation and a compact binary row codec.
//!
//! The REDO log (paper Fig. 7) carries *differential* payloads over the
//! byte image of a row; the buffer-pool pages of the row store hold the
//! same byte images in their slots. This module defines that canonical
//! encoding so that the RW node, the log, and the RO replay agree.
//!
//! Encoding, per value:
//! * tag byte: 0 = NULL, 1 = Int, 2 = Double, 3 = Str, 4 = Date
//! * Int/Date: 8-byte little-endian i64
//! * Double: 8-byte little-endian IEEE bits
//! * Str: u32 LE length + UTF-8 bytes

use crate::codec::{put_i64, put_str, put_u32, put_u64, ByteReader};
use crate::error::{Error, Result};
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// An owned row: just the ordered values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Row {
    /// Values in schema column order.
    pub values: Vec<Value>,
}

impl Row {
    /// Wrap values in a row.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Encode to the canonical byte image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.values.len() * 9 + 4);
        put_u32(&mut out, self.values.len() as u32);
        for v in &self.values {
            encode_value(v, &mut out);
        }
        out
    }

    /// Decode from the canonical byte image.
    pub fn decode(bytes: &[u8]) -> Result<Row> {
        let mut r = ByteReader::new(bytes, "row image");
        // Every value is at least its tag byte.
        let values = r.list_u32(1, decode_value)?;
        Ok(Row { values })
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// Append the canonical encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(x) => {
            out.push(1);
            put_i64(out, *x);
        }
        Value::Double(x) => {
            out.push(2);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Date(x) => {
            out.push(4);
            put_i64(out, *x);
        }
    }
}

#[inline]
fn decode_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Double(f64::from_bits(r.u64()?))),
        3 => Ok(Value::Str(r.str()?)),
        4 => Ok(Value::Date(r.i64()?)),
        t => Err(r.error(format_args!("bad value tag {t}"))),
    }
}

/// Byte-level differential between two row images, as carried in the
/// REDO log's Data field (paper Fig. 7: "contains the difference between
/// the updated value and the original value").
///
/// Represented as a list of `(offset, replacement bytes)` splices plus
/// the new total length; applying it to the old image yields the new one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowDiff {
    /// Length of the new image.
    pub new_len: u32,
    /// Splices: replace bytes starting at `offset` with `bytes`.
    pub splices: Vec<(u32, Vec<u8>)>,
}

impl RowDiff {
    /// Compute a diff that transforms `old` into `new`.
    ///
    /// Strategy: find the longest common prefix and suffix, and emit one
    /// splice for the middle. This is what real engines approximate with
    /// field-level diffs; one splice is optimal for single-column
    /// updates, which dominate OLTP workloads.
    pub fn between(old: &[u8], new: &[u8]) -> RowDiff {
        let mut pre = 0;
        let max_pre = old.len().min(new.len());
        while pre < max_pre && old[pre] == new[pre] {
            pre += 1;
        }
        let mut suf = 0;
        while suf < max_pre - pre && old[old.len() - 1 - suf] == new[new.len() - 1 - suf] {
            suf += 1;
        }
        let mid = new[pre..new.len() - suf].to_vec();
        let splices = if mid.is_empty() && old.len() == new.len() {
            Vec::new()
        } else {
            vec![(pre as u32, mid)]
        };
        RowDiff {
            new_len: new.len() as u32,
            splices,
        }
    }

    /// Apply the diff to `old`, producing the new image.
    pub fn apply(&self, old: &[u8]) -> Result<Vec<u8>> {
        // Single-splice fast path (the only shape `between` produces).
        let mut out = Vec::with_capacity(self.new_len as usize);
        match self.splices.as_slice() {
            [] => {
                if old.len() != self.new_len as usize {
                    return Err(Error::Storage("empty diff but length changed".into()));
                }
                out.extend_from_slice(old);
            }
            [(off, bytes)] => {
                let off = *off as usize;
                if off > old.len() || off > self.new_len as usize {
                    return Err(Error::Storage("diff offset out of range".into()));
                }
                let suffix_len = (self.new_len as usize)
                    .checked_sub(off + bytes.len())
                    .filter(|&n| n <= old.len())
                    .ok_or_else(|| Error::Storage("diff suffix out of range".into()))?;
                out.extend_from_slice(&old[..off]);
                out.extend_from_slice(bytes);
                out.extend_from_slice(&old[old.len() - suffix_len..]);
            }
            _ => {
                return Err(Error::Storage(
                    "multi-splice diffs are not produced by this codec".into(),
                ))
            }
        }
        Ok(out)
    }

    /// Size in bytes of the payload this diff would occupy in a log
    /// entry (used for log-volume accounting in the benches).
    pub fn payload_size(&self) -> usize {
        8 + self.splices.iter().map(|(_, b)| 8 + b.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Int(42),
            Value::Null,
            Value::Double(1.25),
            Value::Str("hello world".into()),
            Value::Date(9000),
        ])
    }

    #[test]
    fn codec_roundtrip() {
        let r = sample_row();
        let enc = r.encode();
        let dec = Row::decode(&enc).unwrap();
        assert_eq!(r, dec);
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = sample_row().encode();
        for cut in [1, 5, enc.len() - 1] {
            assert!(Row::decode(&enc[..cut]).is_err());
        }
    }

    #[test]
    fn diff_roundtrip_single_column_update() {
        let old = sample_row();
        let mut new = old.clone();
        new.values[2] = Value::Double(9.75);
        let (oe, ne) = (old.encode(), new.encode());
        let diff = RowDiff::between(&oe, &ne);
        assert_eq!(diff.apply(&oe).unwrap(), ne);
        // Single-column numeric update should be a small payload compared
        // to the whole image — that's the point of differential logging.
        assert!(diff.payload_size() < ne.len());
    }

    #[test]
    fn diff_roundtrip_length_change() {
        let old = sample_row();
        let mut new = old.clone();
        new.values[3] = Value::Str("a much longer string than before!".into());
        let (oe, ne) = (old.encode(), new.encode());
        let diff = RowDiff::between(&oe, &ne);
        assert_eq!(diff.apply(&oe).unwrap(), ne);
    }

    #[test]
    fn diff_identity() {
        let e = sample_row().encode();
        let diff = RowDiff::between(&e, &e);
        assert!(diff.splices.is_empty());
        assert_eq!(diff.apply(&e).unwrap(), e);
    }

    #[test]
    fn diff_empty_to_full() {
        let e = sample_row().encode();
        let diff = RowDiff::between(&[], &e);
        assert_eq!(diff.apply(&[]).unwrap(), e);
    }

    #[test]
    fn corrupt_diff_is_an_error() {
        // The splice is longer than the new image it claims to build.
        let diff = RowDiff {
            new_len: 2,
            splices: vec![(1, vec![7, 7, 7])],
        };
        assert!(diff.apply(&[1, 2, 3]).is_err());
    }
}
