//! Column batches flowing between operators.

use imci_common::{DataType, Result, Value};
use imci_core::{ColumnData, SelVec};

/// A batch of rows in columnar form.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Columns (all the same logical length).
    pub cols: Vec<ColumnData>,
    /// Row count.
    pub len: usize,
}

impl Batch {
    /// An empty batch with the given column types.
    pub fn empty(types: &[DataType]) -> Batch {
        Batch {
            cols: types.iter().map(|t| ColumnData::new(*t)).collect(),
            len: 0,
        }
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Read one row as values (tests, row-format sinks).
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(r)).collect()
    }

    /// Append a row of values.
    pub fn push_values(&mut self, values: &[Value]) -> Result<()> {
        for (dst, v) in self.cols.iter_mut().zip(values) {
            dst.set(self.len, v)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Keep only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Batch> {
        let keep: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u32)
            .collect();
        Ok(self.take(&SelVec::from_sorted(keep)))
    }

    /// Keep only the rows a selection vector names (one typed gather
    /// per column).
    pub fn take(&self, sel: &SelVec) -> Batch {
        Batch {
            cols: self.cols.iter().map(|c| c.gather(sel.as_slice())).collect(),
            len: sel.len(),
        }
    }

    /// Drop all rows past the first `n`, in place — `LIMIT` without the
    /// gather-a-prefix copy.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        for c in &mut self.cols {
            c.truncate(n);
        }
        self.len = n;
    }

    /// Gather the given row indices into a new batch (typed bulk copy).
    pub fn gather(&self, rows: &[usize]) -> Result<Batch> {
        let idx: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        Ok(Batch {
            cols: self.cols.iter().map(|c| c.gather(&idx)).collect(),
            len: rows.len(),
        })
    }

    /// Concatenate batches (all must share the same width/types). Typed
    /// bulk appends: no per-cell `Value` boxing, dictionaries merge once
    /// per batch.
    pub fn concat(batches: &[Batch]) -> Result<Batch> {
        if batches.is_empty() {
            return Ok(Batch {
                cols: Vec::new(),
                len: 0,
            });
        }
        let mut out = Batch {
            cols: batches[0]
                .cols
                .iter()
                .map(|c| ColumnData::new(c.data_type()))
                .collect(),
            len: 0,
        };
        for b in batches {
            for (dst, src) in out.cols.iter_mut().zip(&b.cols) {
                dst.append(src, b.len)?;
            }
            out.len += b.len;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch {
        let mut b = Batch::empty(&[DataType::Int, DataType::Str]);
        for i in 0..5 {
            b.push_values(&[Value::Int(i), Value::Str(format!("r{i}"))])
                .unwrap();
        }
        b
    }

    #[test]
    fn push_and_row() {
        let b = sample();
        assert_eq!(b.len, 5);
        assert_eq!(b.row(2), vec![Value::Int(2), Value::Str("r2".into())]);
    }

    #[test]
    fn filter_and_gather() {
        let b = sample();
        let f = b.filter(&[true, false, true, false, true]).unwrap();
        assert_eq!(f.len, 3);
        assert_eq!(f.row(1)[0], Value::Int(2));
        let g = b.gather(&[4, 0]).unwrap();
        assert_eq!(g.row(0)[0], Value::Int(4));
        assert_eq!(g.row(1)[0], Value::Int(0));
    }

    #[test]
    fn take_and_truncate() {
        let b = sample();
        let t = b.take(&SelVec::from_sorted(vec![1, 3]));
        assert_eq!(t.len, 2);
        assert_eq!(t.row(1), vec![Value::Int(3), Value::Str("r3".into())]);
        let mut tr = sample();
        tr.truncate(2);
        assert_eq!(tr.len, 2);
        assert_eq!(tr.cols[0].len(), 2);
        assert_eq!(tr.row(1)[0], Value::Int(1));
        tr.truncate(10); // no-op past the end
        assert_eq!(tr.len, 2);
    }

    #[test]
    fn concat() {
        let b = sample();
        let c = Batch::concat(&[b.clone(), b]).unwrap();
        assert_eq!(c.len, 10);
        assert_eq!(c.row(7)[1], Value::Str("r2".into()));
    }
}
