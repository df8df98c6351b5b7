//! Selection vectors — sorted row-offset lists threaded through the
//! scan pipeline (MonetDB/X100-style late materialization).
//!
//! A [`SelVec`] names the rows of one row group (or batch) that are
//! still alive at some point in the pipeline: first the MVCC-visible
//! offsets, then progressively refined by each predicate evaluated on
//! the *compressed* packs, and finally used for a single late gather of
//! the payload columns. Offsets are strictly increasing `u32`s, which
//! makes conjunction a `retain` and disjunction a sorted merge.

/// A sorted, duplicate-free set of row offsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    idx: Vec<u32>,
}

impl SelVec {
    /// The empty selection.
    pub fn new() -> SelVec {
        SelVec::default()
    }

    /// Wrap an already-sorted, duplicate-free offset list.
    pub fn from_sorted(idx: Vec<u32>) -> SelVec {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "SelVec not sorted");
        SelVec { idx }
    }

    /// The full selection `0..n`.
    pub fn identity(n: usize) -> SelVec {
        SelVec {
            idx: (0..n as u32).collect(),
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The offsets as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.idx
    }

    /// Consume into the raw offset vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.idx
    }

    /// Iterate the selected offsets.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.idx.iter().copied()
    }

    /// Append an offset (must be greater than the current last).
    pub fn push(&mut self, i: u32) {
        debug_assert!(self.idx.last().is_none_or(|&l| l < i));
        self.idx.push(i);
    }

    /// Keep only offsets satisfying `f` (in-place conjunction).
    pub fn retain(&mut self, mut f: impl FnMut(u32) -> bool) {
        self.idx.retain(|&i| f(i));
    }

    /// Sorted-merge union (disjunction of two refinements of the same
    /// parent selection).
    pub fn union(&self, other: &SelVec) -> SelVec {
        let (a, b) = (&self.idx, &other.idx);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        SelVec { idx: out }
    }
}

impl std::ops::Deref for SelVec {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.idx
    }
}

impl From<Vec<u32>> for SelVec {
    fn from(idx: Vec<u32>) -> SelVec {
        SelVec::from_sorted(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_retain() {
        let mut s = SelVec::identity(6);
        assert_eq!(s.len(), 6);
        s.retain(|i| i % 2 == 0);
        assert_eq!(s.as_slice(), &[0, 2, 4]);
    }

    #[test]
    fn union_merges_sorted() {
        let a = SelVec::from_sorted(vec![0, 2, 4, 7]);
        let b = SelVec::from_sorted(vec![1, 2, 5, 7, 9]);
        assert_eq!(a.union(&b).as_slice(), &[0, 1, 2, 4, 5, 7, 9]);
        let empty = SelVec::new();
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&a), a);
    }

    #[test]
    fn push_and_iter() {
        let mut s = SelVec::new();
        s.push(3);
        s.push(9);
        assert_eq!(s.iter().collect::<Vec<u32>>(), vec![3, 9]);
        assert_eq!(&s[..], &[3, 9], "derefs to a slice");
    }
}
