//! Vectorized expression evaluation (paper §6.3 "Expression
//! Evaluation") — the one definition of what an expression means, for
//! both engines. [`Expr::eval`] runs column-at-a-time: `i64`/`f64`
//! compares and arithmetic are typed loops (our stand-in for the paper's
//! SIMD kernels), strings go through their dictionaries, and no row is
//! boxed into a [`Value`]. SQL's rules: predicates are NULL where SQL
//! says UNKNOWN (NULL input; `x IN (.., NULL)` without a match) and
//! `AND`/`OR`/`NOT` are Kleene's; values compare in [`Value`]'s order
//! (`3 = 3.0`); Int `+ - *` fail on BIGINT overflow, `/` yields Double
//! and `x / 0` is NULL (MySQL). [`Expr::eval_mask`] is the WHERE
//! boundary — true and not NULL — and the compressed kernels
//! (`crate::kernels`) select exactly those rows.

use crate::batch::Batch;
use imci_common::value::civil_from_days;
use imci_common::{DataType, Error, Result, Value};
use imci_core::ColumnData;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Mirror the operator across the operands: `a op b` ⇔
    /// `b op.flip() a` (used to normalize `lit op col` to `col op lit`).
    #[inline]
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// The complement over non-NULL operands: `NOT (a op b)` ⇔
    /// `a op.negate() b`.
    #[inline]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Test an ordering against the operator.
    #[inline]
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// LIKE pattern kinds we support (enough for the TPC-H-derived queries).
#[derive(Debug, Clone, PartialEq)]
pub enum LikePattern {
    /// `'foo%'`
    Prefix(String),
    /// `'%foo'`
    Suffix(String),
    /// `'%foo%'`
    Contains(String),
    /// `'foo'` (no wildcard: equality)
    Exact(String),
}

impl LikePattern {
    /// Parse a SQL LIKE pattern (only %-wildcards at the edges).
    pub fn parse(pat: &str) -> Result<LikePattern> {
        let starts = pat.starts_with('%');
        let ends = pat.ends_with('%') && pat.len() > 1;
        let inner = pat.trim_matches('%');
        if inner.contains('%') || inner.contains('_') {
            return Err(Error::Unsupported(format!(
                "LIKE pattern '{pat}' (only edge %% wildcards supported)"
            )));
        }
        Ok(match (starts, ends) {
            (true, true) => LikePattern::Contains(inner.to_string()),
            (true, false) => LikePattern::Suffix(inner.to_string()),
            (false, true) => LikePattern::Prefix(inner.to_string()),
            (false, false) => LikePattern::Exact(inner.to_string()),
        })
    }

    /// Match a string.
    #[inline]
    pub fn matches(&self, s: &str) -> bool {
        match self {
            LikePattern::Prefix(p) => s.starts_with(p.as_str()),
            LikePattern::Suffix(p) => s.ends_with(p.as_str()),
            LikePattern::Contains(p) => s.contains(p.as_str()),
            LikePattern::Exact(p) => s == p,
        }
    }
}

/// An expression tree over batch columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (position in the batch).
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `x BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Value, Value),
    /// `x IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// `x LIKE 'pat'`.
    Like(Box<Expr>, LikePattern),
    /// `x IS NULL` / `x IS NOT NULL`.
    IsNull(Box<Expr>, bool),
    /// `YEAR(date_expr)`.
    Year(Box<Expr>),
}

impl Expr {
    /// Convenience: column `i`.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Convenience: `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// Convenience: comparison with a literal.
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// Columns referenced by this expression.
    pub fn referenced_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.referenced_cols(out);
                b.referenced_cols(out);
            }
            Expr::Not(a)
            | Expr::Between(a, _, _)
            | Expr::InList(a, _)
            | Expr::Like(a, _)
            | Expr::IsNull(a, _)
            | Expr::Year(a) => a.referenced_cols(out),
        }
    }

    /// Remap column references through `map` (old position → new).
    pub fn remap(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(a.remap(map)), Box::new(b.remap(map))),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.remap(map)), Box::new(b.remap(map)))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Expr::Not(a) => Expr::Not(Box::new(a.remap(map))),
            Expr::Between(a, lo, hi) => {
                Expr::Between(Box::new(a.remap(map)), lo.clone(), hi.clone())
            }
            Expr::InList(a, vs) => Expr::InList(Box::new(a.remap(map)), vs.clone()),
            Expr::Like(a, p) => Expr::Like(Box::new(a.remap(map)), p.clone()),
            Expr::IsNull(a, n) => Expr::IsNull(Box::new(a.remap(map)), *n),
            Expr::Year(a) => Expr::Year(Box::new(a.remap(map))),
        }
    }

    /// Evaluate to a value column, one entry per batch row. A plain
    /// column reference is borrowed. Predicates yield 0/1, or NULL
    /// where SQL says UNKNOWN.
    pub fn eval<'a>(&self, batch: &'a Batch) -> Result<Cow<'a, ColumnData>> {
        let n = batch.len;
        Ok(Cow::Owned(match self {
            Expr::Col(i) => {
                let c = &batch.cols[*i];
                if c.len() >= n {
                    return Ok(Cow::Borrowed(c));
                }
                c.gather(&(0..n as u32).collect::<Vec<_>>()) // NULL past the end
            }
            Expr::Lit(v) => broadcast(v, n)?,
            Expr::Arith(op, a, b) => arith(*op, &*a.eval(batch)?, &*b.eval(batch)?, n)?,
            Expr::Year(a) => match &*a.eval(batch)? {
                ColumnData::Int { vals, nulls } => ColumnData::Int {
                    vals: vals[..n].iter().map(|&d| civil_from_days(d).0).collect(),
                    nulls: nulls[..n].to_vec(),
                },
                c => all_null(c, n, "YEAR() of a non-date")?,
            },
            Expr::Cmp(op, a, b) => cmp(*op, &*a.eval(batch)?, &*b.eval(batch)?, n),
            Expr::And(a, b) => kleene(true, &*a.eval(batch)?, &*b.eval(batch)?, n),
            Expr::Or(a, b) => kleene(false, &*a.eval(batch)?, &*b.eval(batch)?, n),
            Expr::Not(a) => {
                let c = a.eval(batch)?;
                let t = truth(&c, n);
                let nl = &nulls(&c)[..n];
                predicate(nl.iter().zip(t).map(|(&nl, t)| !nl && !t), nl.to_vec())
            }
            // `lo <= x AND x <= hi`, Kleene-combined: a NULL bound leaves
            // the other side to decide.
            Expr::Between(a, lo, hi) => {
                let c = a.eval(batch)?;
                let ge = cmp(CmpOp::Ge, &c, &broadcast(lo, n)?, n);
                kleene(true, &ge, &cmp(CmpOp::Le, &c, &broadcast(hi, n)?, n), n)
            }
            Expr::InList(a, list) => {
                let c = a.eval(batch)?;
                let hit = in_list(&c, list, n);
                // No match against a list holding NULL is UNKNOWN.
                let unknown = list.iter().any(Value::is_null);
                let nl = nulls(&c)[..n].iter().zip(&hit);
                let nl = nl.map(|(&nl, &h)| nl || (unknown && !h)).collect();
                predicate(hit.into_iter(), nl)
            }
            Expr::Like(a, pat) => {
                let c = a.eval(batch)?;
                // A number never matches a pattern.
                let hit = dict_hits(&c, n, |s| pat.matches(s)).unwrap_or_else(|| vec![false; n]);
                predicate(hit.into_iter(), nulls(&c)[..n].to_vec())
            }
            Expr::IsNull(a, negated) => {
                let c = a.eval(batch)?;
                let hit = nulls(&c)[..n].iter().map(|&z| z != *negated);
                predicate(hit, vec![false; n])
            }
        }))
    }

    /// The WHERE boundary: the rows where `eval` is true and not NULL.
    pub fn eval_mask(&self, batch: &Batch) -> Result<Vec<bool>> {
        Ok(truth(&*self.eval(batch)?, batch.len))
    }
}

fn nulls(c: &ColumnData) -> &[bool] {
    match c {
        ColumnData::Int { nulls, .. }
        | ColumnData::Double { nulls, .. }
        | ColumnData::Str { nulls, .. } => nulls,
    }
}

/// A 0/1 predicate column.
fn predicate(vals: impl Iterator<Item = bool>, nulls: Vec<bool>) -> ColumnData {
    let vals = vals.map(i64::from).collect();
    ColumnData::Int { vals, nulls }
}

/// Rows whose value is true and not NULL (non-zero numbers; a string
/// is never true).
fn truth(c: &ColumnData, n: usize) -> Vec<bool> {
    let nl = &nulls(c)[..n];
    match c {
        ColumnData::Int { vals, .. } => nl.iter().zip(vals).map(|(&z, &v)| !z && v != 0).collect(),
        ColumnData::Double { vals, .. } => {
            nl.iter().zip(vals).map(|(&z, &v)| !z && v != 0.0).collect()
        }
        ColumnData::Str { .. } => vec![false; n],
    }
}

/// Kleene `AND` (`and`) or `OR`: a false (under `OR`: true) side
/// decides, else NULL on either side is NULL.
fn kleene(and: bool, a: &ColumnData, b: &ColumnData, n: usize) -> ColumnData {
    let (ta, tb) = (truth(a, n), truth(b, n));
    let (na, nb) = (nulls(a), nulls(b));
    let decides = |t: bool, z: bool| if and { !z && !t } else { t };
    let nl = (0..n)
        .map(|r| (na[r] || nb[r]) && !decides(ta[r], na[r]) && !decides(tb[r], nb[r]))
        .collect();
    let vals = (0..n).map(|r| if and { ta[r] && tb[r] } else { ta[r] || tb[r] });
    predicate(vals, nl)
}

/// `v` repeated `n` times.
fn broadcast(v: &Value, n: usize) -> Result<ColumnData> {
    let mut one = ColumnData::new(v.data_type().unwrap_or(DataType::Int));
    one.set(0, v)?;
    Ok(one.gather(&vec![0; n]))
}

/// An all-NULL Int column when `c` holds no value, else `what` fails.
fn all_null(c: &ColumnData, n: usize, what: &str) -> Result<ColumnData> {
    if nulls(c)[..n].iter().all(|&z| z) {
        return broadcast(&Value::Null, n);
    }
    Err(Error::Execution(what.into()))
}

/// A numeric column's values as `f64`; `None` for strings.
fn f64s(c: &ColumnData, n: usize) -> Option<Cow<'_, [f64]>> {
    match c {
        ColumnData::Int { vals, .. } => {
            Some(Cow::Owned(vals[..n].iter().map(|&v| v as f64).collect()))
        }
        ColumnData::Double { vals, .. } => Some(Cow::Borrowed(&vals[..n])),
        ColumnData::Str { .. } => None,
    }
}

fn either_null(a: &ColumnData, b: &ColumnData, n: usize) -> Vec<bool> {
    let (na, nb) = (&nulls(a)[..n], &nulls(b)[..n]);
    na.iter().zip(nb).map(|(&x, &y)| x || y).collect()
}

/// `a op b` in [`Value`]'s order: numbers numerically across Int and
/// Double, strings by their bytes, every number below every string.
fn cmp(op: CmpOp, a: &ColumnData, b: &ColumnData, n: usize) -> ColumnData {
    let nl = either_null(a, b, n);
    let vals: Vec<bool> = match (a, b) {
        (ColumnData::Int { vals: x, .. }, ColumnData::Int { vals: y, .. }) => x[..n]
            .iter()
            .zip(y)
            .map(|(x, y)| op.test(x.cmp(y)))
            .collect(),
        (
            ColumnData::Str {
                codes: x, dict: dx, ..
            },
            ColumnData::Str {
                codes: y, dict: dy, ..
            },
        ) => {
            let (dx, dy) = (dx.strings(), dy.strings());
            let ord = |r: usize| dx[x[r] as usize].cmp(&dy[y[r] as usize]);
            (0..n).map(|r| !nl[r] && op.test(ord(r))).collect()
        }
        _ => match (f64s(a, n), f64s(b, n)) {
            (Some(x), Some(y)) => x
                .iter()
                .zip(&*y)
                .map(|(x, y)| op.test(x.total_cmp(y)))
                .collect(),
            // Every number sorts below every string.
            (Some(_), None) => vec![op.test(Ordering::Less); n],
            _ => vec![op.test(Ordering::Greater); n],
        },
    };
    predicate(vals.into_iter(), nl)
}

/// Which rows equal some list value, in [`Value`]'s order (`3 = 3.0`).
fn in_list(c: &ColumnData, list: &[Value], n: usize) -> Vec<bool> {
    let doubles = list.iter().filter(|v| matches!(v, Value::Double(_)));
    match c {
        ColumnData::Int { vals, .. } => {
            let mut ints: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
            ints.sort_unstable();
            let doubles: Vec<f64> = doubles.filter_map(Value::as_f64).collect();
            let hit = |x: i64| {
                ints.binary_search(&x).is_ok()
                    || doubles.iter().any(|d| (x as f64).total_cmp(d).is_eq())
            };
            vals[..n].iter().map(|&x| hit(x)).collect()
        }
        ColumnData::Double { vals, .. } => {
            let nums: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
            let hit = |x: &f64| nums.iter().any(|d| x.total_cmp(d).is_eq());
            vals[..n].iter().map(hit).collect()
        }
        ColumnData::Str { .. } => {
            dict_hits(c, n, |s| list.iter().any(|v| v.as_str() == Some(s))).unwrap_or_default()
        }
    }
}

/// `f` over a string column's rows, decided once per dictionary entry;
/// `None` for numbers.
fn dict_hits(c: &ColumnData, n: usize, f: impl Fn(&str) -> bool) -> Option<Vec<bool>> {
    let ColumnData::Str { codes, dict, .. } = c else {
        return None;
    };
    let m: Vec<bool> = dict.strings().iter().map(|s| f(s)).collect();
    let hits = codes[..n].iter().map(|&k| m.get(k as usize) == Some(&true));
    Some(hits.collect())
}

/// `a op b`: Int `+ - *` stay Int and fail on BIGINT overflow; `/`
/// and any Double operand give Double, and `x / 0` is NULL (MySQL).
fn arith(op: ArithOp, a: &ColumnData, b: &ColumnData, n: usize) -> Result<ColumnData> {
    let mut nulls = either_null(a, b, n);
    if let (ColumnData::Int { vals: x, .. }, ColumnData::Int { vals: y, .. }, false) =
        (a, b, op == ArithOp::Div)
    {
        let (f, sym): (fn(i64, i64) -> Option<i64>, _) = match op {
            ArithOp::Add => (i64::checked_add, '+'),
            ArithOp::Sub => (i64::checked_sub, '-'),
            _ => (i64::checked_mul, '*'),
        };
        let overflow = |(x, y)| format!("BIGINT value is out of range in {x} {sym} {y}");
        let mut vals = Vec::with_capacity(n);
        for r in 0..n {
            let v = if nulls[r] { Some(0) } else { f(x[r], y[r]) };
            vals.push(v.ok_or_else(|| Error::Execution(overflow((x[r], y[r]))))?);
        }
        return Ok(ColumnData::Int { vals, nulls });
    }
    let num = |c| match f64s(c, n) {
        Some(v) => Ok(v),
        None => all_null(c, n, "arithmetic on a string").map(|_| Cow::Owned(vec![0.0; n])),
    };
    let (x, y) = (num(a)?, num(b)?);
    let vals = (0..n)
        .map(|r| match op {
            ArithOp::Add => x[r] + y[r],
            ArithOp::Sub => x[r] - y[r],
            ArithOp::Mul => x[r] * y[r],
            ArithOp::Div => {
                nulls[r] |= y[r] == 0.0;
                x[r] / y[r]
            }
        })
        .collect();
    Ok(ColumnData::Double { vals, nulls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;

    fn batch() -> Batch {
        let mut a = ColumnData::new(DataType::Int);
        let mut b = ColumnData::new(DataType::Double);
        let mut s = ColumnData::new(DataType::Str);
        for i in 0..10 {
            a.set(i, &Value::Int(i as i64)).unwrap();
            b.set(i, &Value::Double(i as f64 * 0.5)).unwrap();
            s.set(i, &Value::Str(format!("item-{i}"))).unwrap();
        }
        a.set(9, &Value::Null).unwrap();
        Batch {
            cols: vec![a, b, s],
            len: 10,
        }
    }

    #[test]
    fn int_cmp_fast_path() {
        let b = batch();
        let m = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m.iter().filter(|&&x| x).count(), 5);
        assert!(!m[9], "NULL never matches");
    }

    #[test]
    fn double_cmp_and_arith() {
        let b = batch();
        let m = Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(2.0))
            .eval_mask(&b)
            .unwrap();
        assert_eq!(m.iter().filter(|&&x| x).count(), 6); // 2.0..4.5
        let sum = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(1)),
            Box::new(Expr::lit(2.0)),
        )
        .eval(&b)
        .unwrap();
        assert_eq!(sum.get(3), Value::Double(3.0));
    }

    #[test]
    fn and_or_not_between_in() {
        let b = batch();
        let e = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(2i64)).and(Expr::cmp(
            CmpOp::Le,
            Expr::col(0),
            Expr::lit(6i64),
        ));
        assert_eq!(e.eval_mask(&b).unwrap().iter().filter(|&&x| x).count(), 5);
        let between = Expr::Between(Box::new(Expr::col(0)), Value::Int(2), Value::Int(6));
        assert_eq!(
            between.eval_mask(&b).unwrap(),
            e.eval_mask(&b).unwrap(),
            "BETWEEN == >= AND <="
        );
        let inl = Expr::InList(
            Box::new(Expr::col(0)),
            vec![Value::Int(1), Value::Int(3), Value::Int(99)],
        );
        assert_eq!(inl.eval_mask(&b).unwrap().iter().filter(|&&x| x).count(), 2);
        // 0, 1, 7, 8; the NULL row is UNKNOWN under NOT as well.
        let not = Expr::Not(Box::new(between));
        assert_eq!(not.eval_mask(&b).unwrap().iter().filter(|&&x| x).count(), 4);
    }

    fn ints(vals: &[Option<i64>]) -> Batch {
        let mut c = ColumnData::new(DataType::Int);
        for (r, v) in vals.iter().enumerate() {
            c.set(r, &v.map_or(Value::Null, Value::Int)).unwrap();
        }
        Batch {
            cols: vec![c],
            len: vals.len(),
        }
    }

    fn values(e: &Expr, b: &Batch) -> Vec<Value> {
        let c = e.eval(b).unwrap();
        (0..b.len).map(|r| c.get(r)).collect()
    }

    #[test]
    fn predicates_are_three_valued() {
        let b = ints(&[Some(1), Some(5), None]);
        let gt3 = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(3i64));
        let (t, f, n) = (Value::Int(1), Value::Int(0), Value::Null);
        assert_eq!(values(&gt3, &b), [f.clone(), t.clone(), n.clone()]);
        let not = Expr::Not(Box::new(gt3.clone()));
        assert_eq!(values(&not, &b), [t.clone(), f.clone(), n.clone()]);
        // Kleene: FALSE AND NULL is FALSE, TRUE OR NULL is TRUE.
        let null = Expr::Lit(Value::Null);
        let and = Expr::And(Box::new(gt3.clone()), Box::new(null.clone()));
        assert_eq!(values(&and, &b), [f.clone(), n.clone(), n.clone()]);
        let or = Expr::Or(Box::new(gt3), Box::new(null));
        assert_eq!(values(&or, &b), [n.clone(), t.clone(), n.clone()]);
        // A miss against a list holding NULL is UNKNOWN; 3 = 3.0.
        let inl = |list: Vec<Value>| Expr::InList(Box::new(Expr::col(0)), list);
        let with_null = inl(vec![Value::Int(1), Value::Null]);
        assert_eq!(values(&with_null, &b), [t.clone(), n.clone(), n.clone()]);
        let by_double = inl(vec![Value::Double(5.0)]);
        assert_eq!(values(&by_double, &b), [f, t, n]);
        // The WHERE boundary keeps only TRUE.
        assert_eq!(with_null.eval_mask(&b).unwrap(), [true, false, false]);
    }

    #[test]
    fn int_overflow_fails_and_division_by_zero_is_null() {
        let b = ints(&[Some(1 << 62), Some(2), None]);
        let times4 = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(4i64)),
        );
        let err = times4.eval(&b).unwrap_err();
        assert!(
            matches!(&err, Error::Execution(m) if m.contains("BIGINT")),
            "{err}"
        );
        let minus = Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::lit(i64::MIN)),
            Box::new(Expr::col(0)),
        );
        assert!(minus.eval(&ints(&[Some(1)])).is_err());
        // NULL rows never overflow.
        assert_eq!(values(&minus, &ints(&[None])), [Value::Null]);
        let div = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::lit(6i64)),
            Box::new(Expr::col(0)),
        );
        let zero = ints(&[Some(0), Some(4), None]);
        assert_eq!(
            values(&div, &zero),
            [Value::Null, Value::Double(1.5), Value::Null]
        );
    }

    #[test]
    fn like_patterns() {
        assert!(LikePattern::parse("abc%").unwrap().matches("abcdef"));
        assert!(LikePattern::parse("%def").unwrap().matches("abcdef"));
        assert!(LikePattern::parse("%cd%").unwrap().matches("abcdef"));
        assert!(!LikePattern::parse("%cd%").unwrap().matches("abef"));
        assert!(LikePattern::parse("a_c").is_err());
        let b = batch();
        let e = Expr::Like(
            Box::new(Expr::col(2)),
            LikePattern::parse("item-%").unwrap(),
        );
        assert_eq!(e.eval_mask(&b).unwrap().iter().filter(|&&x| x).count(), 10);
    }

    #[test]
    fn is_null_and_year() {
        let b = batch();
        let e = Expr::IsNull(Box::new(Expr::col(0)), false);
        assert_eq!(e.eval_mask(&b).unwrap().iter().filter(|&&x| x).count(), 1);
        let days = |s| imci_common::value::parse_date_str(s).unwrap();
        let mut d = ColumnData::new(DataType::Date);
        let dates = ["0001-01-01", "1970-01-01", "1995-06-17", "9999-12-31"];
        for (r, s) in dates.iter().enumerate() {
            d.set(r, &Value::Date(days(s))).unwrap();
        }
        d.set(4, &Value::Date(-1)).unwrap();
        d.set(5, &Value::Null).unwrap();
        let db = Batch {
            cols: vec![d],
            len: 6,
        };
        let years = [1, 1970, 1995, 9999, 1969].map(Value::Int);
        let mut want = years.to_vec();
        want.push(Value::Null);
        assert_eq!(values(&Expr::Year(Box::new(Expr::col(0))), &db), want);
        let strs = Expr::Year(Box::new(Expr::lit("1995-06-17")));
        assert!(strs.eval(&db).is_err(), "YEAR() of a string");
    }

    #[test]
    fn int_arith_stays_int_except_div() {
        let b = batch();
        let add = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(100i64)),
        )
        .eval(&b)
        .unwrap();
        assert_eq!(add.get(1), Value::Int(101));
        assert_eq!(add.get(9), Value::Null, "null propagates");
        let div = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(2i64)),
        )
        .eval(&b)
        .unwrap();
        assert_eq!(div.get(1), Value::Double(0.5));
    }
}
