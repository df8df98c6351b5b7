//! SQL values and data types.
//!
//! The reproduction supports the types the paper's workloads need:
//! 64-bit integers (INT/BIGINT), doubles (DOUBLE / DECIMAL surrogate),
//! UTF-8 strings (CHAR/VARCHAR/LONGTEXT), and DATE (days since the Unix
//! epoch). `NULL` is a first-class value of any type.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer (covers MySQL INT(11) and BIGINT).
    Int,
    /// 64-bit IEEE float (covers DOUBLE and, in this repro, DECIMAL).
    Double,
    /// UTF-8 string (covers CHAR/VARCHAR/LONGTEXT).
    Str,
    /// Days since 1970-01-01 stored as i64 (covers DATE).
    Date,
}

impl DataType {
    /// Parse a MySQL-ish type name, e.g. `INT(11)`, `VARCHAR(32)`.
    pub fn parse_sql(name: &str) -> Result<DataType> {
        let base = name
            .split('(')
            .next()
            .unwrap_or("")
            .trim()
            .to_ascii_uppercase();
        match base.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => Ok(DataType::Int),
            "DOUBLE" | "FLOAT" | "DECIMAL" | "NUMERIC" | "REAL" => Ok(DataType::Double),
            "CHAR" | "VARCHAR" | "TEXT" | "LONGTEXT" | "STRING" => Ok(DataType::Str),
            "DATE" | "DATETIME" | "TIMESTAMP" => Ok(DataType::Date),
            other => Err(Error::Parse(format!("unknown type name: {other}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A single SQL value.
///
/// `Value` implements a *total* ordering (NULLs first, doubles via
/// `f64::total_cmp`) so it can be used directly as a sort key and inside
/// `BTreeMap`s in the row store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Runtime type of this value, `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True iff this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view; Dates coerce to their day number.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// Float view; Ints and Dates coerce (MySQL-style implicit cast).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) | Value::Date(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce to `ty`, applying MySQL-flavoured implicit casts. Used by
    /// the column plan generator which must "strictly follow up on
    /// original implicit type casts" (paper §6.2).
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let out = match (self, ty) {
            (Value::Int(v), DataType::Int) => Value::Int(*v),
            (Value::Int(v), DataType::Double) => Value::Double(*v as f64),
            (Value::Int(v), DataType::Date) => Value::Date(*v),
            (Value::Double(v), DataType::Double) => Value::Double(*v),
            (Value::Double(v), DataType::Int) => Value::Int(*v as i64),
            (Value::Str(s), DataType::Str) => Value::Str(s.clone()),
            (Value::Str(s), DataType::Int) => Value::Int(
                s.trim()
                    .parse::<i64>()
                    .map_err(|e| Error::Execution(format!("cannot cast '{s}' to INT: {e}")))?,
            ),
            (Value::Str(s), DataType::Double) => Value::Double(
                s.trim()
                    .parse::<f64>()
                    .map_err(|e| Error::Execution(format!("cannot cast '{s}' to DOUBLE: {e}")))?,
            ),
            (Value::Str(s), DataType::Date) => Value::Date(parse_date_str(s)?),
            (Value::Date(v), DataType::Date) => Value::Date(*v),
            (Value::Date(v), DataType::Int) => Value::Int(*v),
            (Value::Date(v), DataType::Double) => Value::Double(*v as f64),
            (v, t) => return Err(Error::Execution(format!("cannot cast {v} to {t}"))),
        };
        Ok(out)
    }

    /// SQL comparison: returns `None` when either side is NULL
    /// (three-valued logic), otherwise a total comparison.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch (proleptic
/// Gregorian, valid for years 1..=9999 — enough for TPC-H's 1992-1998).
pub fn parse_date_str(s: &str) -> Result<i64> {
    let parts: Vec<&str> = s.trim().split('-').collect();
    if parts.len() != 3 {
        return Err(Error::Parse(format!("bad date literal: {s}")));
    }
    let y: i64 = parts[0]
        .parse()
        .map_err(|_| Error::Parse(format!("bad year in date: {s}")))?;
    let m: i64 = parts[1]
        .parse()
        .map_err(|_| Error::Parse(format!("bad month in date: {s}")))?;
    let d: i64 = parts[2]
        .parse()
        .map_err(|_| Error::Parse(format!("bad day in date: {s}")))?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(Error::Parse(format!("date out of range: {s}")));
    }
    Ok(days_from_civil(y, m, d))
}

/// Render days-since-epoch back to `YYYY-MM-DD`.
pub fn format_date(days: i64) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

// Howard Hinnant's civil-days algorithms.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < Int/Date/Double (numerically, cross-type) < Str.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Int(a), Date(b)) | (Date(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) | (Date(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) | (Double(a), Date(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(v) | Value::Date(v) => {
                state.write_u8(1);
                state.write_i64(*v);
            }
            Value::Double(v) => {
                state.write_u8(2);
                // Normalize -0.0 so hash agrees with total_cmp-based Eq for
                // the values we actually produce.
                let v = if *v == 0.0 { 0.0f64 } else { *v };
                state.write_u64(v.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for s in ["1992-01-01", "1998-12-01", "1995-06-17", "2024-02-29"] {
            let d = parse_date_str(s).unwrap();
            assert_eq!(format_date(d), s);
        }
    }

    #[test]
    fn date_epoch() {
        assert_eq!(parse_date_str("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date_str("1970-01-02").unwrap(), 1);
        assert_eq!(parse_date_str("1969-12-31").unwrap(), -1);
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Int(3).cmp(&Value::Double(3.0)), Ordering::Equal);
        assert!(Value::Int(3) < Value::Double(3.5));
        assert!(Value::Double(2.5) < Value::Int(3));
    }

    #[test]
    fn total_order_null_first_str_last() {
        let mut vs = [
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Double(1.5),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert!(matches!(vs[3], Value::Str(_)));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Str("42".into()).coerce_to(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(42).coerce_to(DataType::Double).unwrap(),
            Value::Double(42.0)
        );
        assert!(Value::Str("xyz".into()).coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn parse_sql_types() {
        assert_eq!(DataType::parse_sql("INT(11)").unwrap(), DataType::Int);
        assert_eq!(DataType::parse_sql("varchar(44)").unwrap(), DataType::Str);
        assert_eq!(DataType::parse_sql("LONGTEXT").unwrap(), DataType::Str);
        assert_eq!(
            DataType::parse_sql("DECIMAL(15,2)").unwrap(),
            DataType::Double
        );
        assert_eq!(DataType::parse_sql("DATE").unwrap(), DataType::Date);
        assert!(DataType::parse_sql("BLOB").is_err());
    }

    #[test]
    fn hash_eq_consistent_for_int_date() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        // Int and Date with same payload are Eq by our Ord; hashes agree.
        assert_eq!(Value::Int(7), Value::Date(7));
        assert_eq!(h(&Value::Int(7)), h(&Value::Date(7)));
    }
}
