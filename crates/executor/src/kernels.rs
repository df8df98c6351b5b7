//! Predicate kernels over compressed packs (paper §4.1 "smart scan" +
//! §6.3 vectorized evaluation; MonetDB/X100-style late materialization).
//!
//! The scan keeps a [`SelVec`] of surviving row offsets and refines it
//! one predicate at a time, reading the *compressed* column
//! representation directly:
//!
//! * integer comparisons are rewritten into the frame-of-reference
//!   domain — the literal becomes `lit - base` and each row test is a
//!   single `u64` compare against the bit-packed residual, no decode;
//! * string `=` / `IN` / `LIKE` / ordering predicates are resolved once
//!   per pack against the dictionary (one match bit per dictionary
//!   entry), so each row test is a `u32` code lookup;
//! * Pack Meta min/max short-circuits *both* ways: a pack whose range
//!   proves no row can match empties the selection without touching
//!   data, and a null-free pack whose range proves **every** row
//!   matches keeps the whole selection — the dual of pruning.
//!
//! Conjunctions cascade (each conjunct sees only prior survivors) and
//! disjunctions merge sorted selections. Negation walks the *false* set
//! instead of subtracting the true set, so a NULL row stays out of both
//! (SQL's NOT UNKNOWN is UNKNOWN): a comparison takes its negated
//! operator, `BETWEEN` becomes `< lo OR > hi`, `NOT IN` and `NOT LIKE`
//! keep only non-null misses (none when the list holds NULL), `IS [NOT]
//! NULL` flips, and De Morgan swaps cascade and merge under `AND`/`OR`.
//! The selection is exactly the rows where `Expr::eval` is true.
//!
//! Partial (uncompressed) columns run the same kernels over the typed
//! vectors. Expressions outside the supported shapes (column/column
//! compares, arithmetic, `YEAR(..)`) report [`compressible`] = false
//! and the scan falls back to materialize-then-mask for the filter
//! columns only.

use crate::batch::Batch;
use crate::expr::{CmpOp, Expr, LikePattern};
use imci_common::{Error, Result, Value};
use imci_core::pack::PackMeta;
use imci_core::{ColumnData, ColumnRead, Pack, PackData, SelVec};
use std::cmp::Ordering;

/// A borrowed view of one scan column: sealed pack or typed vector.
#[derive(Clone, Copy)]
pub enum ColView<'a> {
    /// Sealed compressed pack.
    Pack(&'a Pack),
    /// Mutable partial column (or an already-materialized batch column).
    Col(&'a ColumnData),
}

impl<'a> ColView<'a> {
    /// View a scan column read.
    pub fn of(read: &'a ColumnRead) -> ColView<'a> {
        match read {
            ColumnRead::Pack(p) => ColView::Pack(p),
            ColumnRead::Materialized(c) => ColView::Col(c),
        }
    }
}

/// Views over a batch's columns (the Filter operator's input).
pub fn batch_views(batch: &Batch) -> Vec<ColView<'_>> {
    batch.cols.iter().map(ColView::Col).collect()
}

/// Can `expr` be evaluated entirely by the compressed-domain kernels?
pub fn compressible(expr: &Expr, cols: &[ColView]) -> bool {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => compressible(a, cols) && compressible(b, cols),
        Expr::Not(a) => compressible(a, cols),
        Expr::Cmp(_, a, b) => matches!(
            (&**a, &**b),
            (Expr::Col(i), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(i)) if *i < cols.len()
        ),
        Expr::Between(a, _, _) | Expr::Like(a, _) | Expr::IsNull(a, _) => {
            matches!(&**a, Expr::Col(i) if *i < cols.len())
        }
        Expr::InList(a, vs) => match &**a {
            Expr::Col(i) if *i < cols.len() => inlist_supported(&cols[*i], vs),
            _ => false,
        },
        _ => false,
    }
}

/// `IN` lists are only run on compressed data when every non-null list
/// element shares the column's storage class; mixed-type lists keep the
/// generic hash-set semantics of the fallback path.
fn inlist_supported(col: &ColView, list: &[Value]) -> bool {
    let ok = |v: &Value| match col {
        ColView::Pack(p) => match p.data {
            PackData::Int { .. } => matches!(v, Value::Int(_) | Value::Date(_)),
            PackData::Double { .. } => matches!(v, Value::Double(_)),
            PackData::Str { .. } => matches!(v, Value::Str(_)),
        },
        ColView::Col(c) => match c {
            ColumnData::Int { .. } => matches!(v, Value::Int(_) | Value::Date(_)),
            ColumnData::Double { .. } => matches!(v, Value::Double(_)),
            ColumnData::Str { .. } => matches!(v, Value::Str(_)),
        },
    };
    list.iter().all(|v| v.is_null() || ok(v))
}

/// Refine `sel` to the rows of `cols` where `expr` is true — exactly
/// the rows `Expr::eval_mask` keeps over the materialized columns.
pub fn eval_sel(expr: &Expr, cols: &[ColView], sel: SelVec) -> Result<SelVec> {
    sel_where(expr, true, cols, sel)
}

/// The rows of `sel` where `expr` is `want` — never where it is NULL.
fn sel_where(expr: &Expr, want: bool, cols: &[ColView], sel: SelVec) -> Result<SelVec> {
    let col = |a: &Expr| match a {
        Expr::Col(i) => Ok(&cols[*i]),
        _ => Err(not_compressible()),
    };
    match expr {
        // AND's true set and OR's false set cascade; the duals merge.
        Expr::And(a, b) | Expr::Or(a, b) if want == matches!(expr, Expr::And(..)) => {
            let s = sel_where(a, want, cols, sel)?;
            if s.is_empty() {
                return Ok(s);
            }
            sel_where(b, want, cols, s)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            let sa = sel_where(a, want, cols, sel.clone())?;
            Ok(sa.union(&sel_where(b, want, cols, sel)?))
        }
        Expr::Not(a) => sel_where(a, !want, cols, sel),
        Expr::Cmp(op, a, b) => {
            let op = if want { *op } else { op.negate() };
            match (&**a, &**b) {
                (Expr::Col(i), Expr::Lit(v)) => Ok(cmp_sel(op, &cols[*i], v, sel)),
                (Expr::Lit(v), Expr::Col(i)) => Ok(cmp_sel(op.flip(), &cols[*i], v, sel)),
                _ => Err(not_compressible()),
            }
        }
        Expr::Between(a, lo, hi) if !want => {
            let c = col(a)?;
            let below = cmp_sel(CmpOp::Lt, c, lo, sel.clone());
            Ok(below.union(&cmp_sel(CmpOp::Gt, c, hi, sel)))
        }
        Expr::Between(a, lo, hi) => {
            let c = col(a)?;
            // Pack Meta cut in both directions before any row work:
            // range-disjoint packs empty the selection, range-covered
            // null-free packs keep it whole.
            if let ColView::Pack(p) = c {
                if !lo.is_null() && !hi.is_null() {
                    if !p.meta.may_contain_range(Some(lo), Some(hi)) {
                        return Ok(SelVec::new());
                    }
                    if p.meta.all_in_range(Some(lo), Some(hi)) {
                        return Ok(sel);
                    }
                }
            }
            let s = cmp_sel(CmpOp::Ge, c, lo, sel);
            Ok(cmp_sel(CmpOp::Le, c, hi, s))
        }
        // A miss against a list holding NULL is UNKNOWN, never false.
        Expr::InList(_, vs) if !want && vs.iter().any(Value::is_null) => Ok(SelVec::new()),
        Expr::InList(a, vs) => Ok(inlist_sel(col(a)?, vs, want, sel)),
        Expr::Like(a, pat) => Ok(like_sel(col(a)?, pat, want, sel)),
        Expr::IsNull(a, negated) => Ok(isnull_sel(col(a)?, *negated == want, sel)),
        _ => Err(not_compressible()),
    }
}

fn not_compressible() -> Error {
    Error::Execution("predicate not evaluable on compressed packs".into())
}

/// Pack Meta verdict for a comparison against a literal.
enum Cut {
    /// Min/max prove every row (null-free pack) matches.
    All,
    /// Min/max prove no row can match.
    None,
    /// Per-row evaluation required.
    Row,
}

fn meta_cut_cmp(meta: &PackMeta, op: CmpOp, lit: &Value) -> Cut {
    if meta.min.is_null() {
        return Cut::None; // all-null pack: comparisons never match
    }
    let lo = meta.min.cmp(lit);
    let hi = meta.max.cmp(lit);
    let none = match op {
        CmpOp::Eq => hi == Ordering::Less || lo == Ordering::Greater,
        CmpOp::Ne => lo == Ordering::Equal && hi == Ordering::Equal,
        CmpOp::Lt => lo != Ordering::Less,
        CmpOp::Le => lo == Ordering::Greater,
        CmpOp::Gt => hi != Ordering::Greater,
        CmpOp::Ge => hi == Ordering::Less,
    };
    if none {
        return Cut::None;
    }
    if meta.null_count > 0 {
        return Cut::Row; // nulls never match: must test per row
    }
    let all = match op {
        CmpOp::Eq => lo == Ordering::Equal && hi == Ordering::Equal,
        CmpOp::Ne => hi == Ordering::Less || lo == Ordering::Greater,
        CmpOp::Lt => hi == Ordering::Less,
        CmpOp::Le => hi != Ordering::Greater,
        CmpOp::Gt => lo == Ordering::Greater,
        CmpOp::Ge => lo != Ordering::Less,
    };
    if all {
        Cut::All
    } else {
        Cut::Row
    }
}

/// All non-null rows compare as `ord` to the literal (range disjoint or
/// cross-type): keep everything or nothing, minus nulls.
fn const_ord(op: CmpOp, ord: Ordering, mut sel: SelVec, is_null: impl Fn(u32) -> bool) -> SelVec {
    if !op.test(ord) {
        return SelVec::new();
    }
    sel.retain(|i| !is_null(i));
    sel
}

fn cmp_sel(op: CmpOp, col: &ColView, lit: &Value, mut sel: SelVec) -> SelVec {
    if lit.is_null() {
        return SelVec::new(); // NULL comparand: three-valued false
    }
    match col {
        ColView::Pack(p) => {
            match meta_cut_cmp(&p.meta, op, lit) {
                Cut::All => return sel,
                Cut::None => return SelVec::new(),
                Cut::Row => {}
            }
            let no_nulls = p.meta.null_count == 0;
            match (&p.data, lit) {
                // Frame-of-reference rewrite: `base + r op k` becomes a
                // u64 compare of the packed residual against `k - base`.
                (
                    PackData::Int {
                        base,
                        packed,
                        nulls,
                    },
                    Value::Int(k) | Value::Date(k),
                ) => {
                    let d = (*k as i128) - (*base as i128);
                    if d < 0 {
                        // every non-null row sits above the literal
                        return const_ord(op, Ordering::Greater, sel, |i| nulls.get(i as usize));
                    }
                    if d > u64::MAX as i128 {
                        return const_ord(op, Ordering::Less, sel, |i| nulls.get(i as usize));
                    }
                    let du = d as u64;
                    // Dense full-pack selection: walk the packed words
                    // with the bulk-unpack cursor instead of per-row
                    // index math.
                    if no_nulls && sel.len() == packed.len {
                        let mut out = Vec::with_capacity(packed.len);
                        let mut i = 0u32;
                        packed.unpack_each(|r| {
                            if op.test(r.cmp(&du)) {
                                out.push(i);
                            }
                            i += 1;
                        });
                        return SelVec::from_sorted(out);
                    }
                    if no_nulls {
                        sel.retain(|i| op.test(packed.get(i as usize).cmp(&du)));
                    } else {
                        sel.retain(|i| {
                            !nulls.get(i as usize) && op.test(packed.get(i as usize).cmp(&du))
                        });
                    }
                    sel
                }
                // Int column vs double literal: MySQL-style float
                // comparison; decode stays per-row but gathers nothing.
                (
                    PackData::Int {
                        base,
                        packed,
                        nulls,
                    },
                    Value::Double(k),
                ) => {
                    let test = |i: u32| {
                        let v = base.wrapping_add(packed.get(i as usize) as i64) as f64;
                        op.test(v.total_cmp(k))
                    };
                    if no_nulls {
                        sel.retain(test);
                    } else {
                        sel.retain(|i| !nulls.get(i as usize) && test(i));
                    }
                    sel
                }
                // Numeric column vs string literal: numerics order below
                // strings in SQL comparisons here — constant outcome.
                (PackData::Int { nulls, .. }, Value::Str(_)) => {
                    const_ord(op, Ordering::Less, sel, |i| nulls.get(i as usize))
                }
                (PackData::Double { vals, nulls }, _) => match lit.as_f64() {
                    Some(k) => {
                        if no_nulls {
                            sel.retain(|i| op.test(vals[i as usize].total_cmp(&k)));
                        } else {
                            sel.retain(|i| {
                                !nulls.get(i as usize) && op.test(vals[i as usize].total_cmp(&k))
                            });
                        }
                        sel
                    }
                    None => const_ord(op, Ordering::Less, sel, |i| nulls.get(i as usize)),
                },
                // Dictionary rewrite: resolve the predicate once per
                // dictionary entry; each row test is a code lookup.
                (PackData::Str { codes, dict, nulls }, Value::Str(s)) => {
                    let matches: Vec<bool> =
                        dict.iter().map(|e| op.test(e.as_str().cmp(s))).collect();
                    if no_nulls {
                        sel.retain(|i| matches[codes.get(i as usize) as usize]);
                    } else {
                        sel.retain(|i| {
                            !nulls.get(i as usize) && matches[codes.get(i as usize) as usize]
                        });
                    }
                    sel
                }
                (PackData::Str { nulls, .. }, _) => {
                    const_ord(op, Ordering::Greater, sel, |i| nulls.get(i as usize))
                }
                (_, Value::Null) => SelVec::new(), // handled above
            }
        }
        ColView::Col(c) => match (c, lit) {
            (ColumnData::Int { vals, nulls }, Value::Int(k) | Value::Date(k)) => {
                sel.retain(|i| {
                    let i = i as usize;
                    i < vals.len() && !nulls[i] && op.test(vals[i].cmp(k))
                });
                sel
            }
            (ColumnData::Int { vals, nulls }, Value::Double(k)) => {
                sel.retain(|i| {
                    let i = i as usize;
                    i < vals.len() && !nulls[i] && op.test((vals[i] as f64).total_cmp(k))
                });
                sel
            }
            (ColumnData::Int { vals, nulls }, Value::Str(_)) => {
                const_ord(op, Ordering::Less, sel, |i| {
                    let i = i as usize;
                    i >= vals.len() || nulls[i]
                })
            }
            (ColumnData::Double { vals, nulls }, _) => match lit.as_f64() {
                Some(k) => {
                    sel.retain(|i| {
                        let i = i as usize;
                        i < vals.len() && !nulls[i] && op.test(vals[i].total_cmp(&k))
                    });
                    sel
                }
                None => const_ord(op, Ordering::Less, sel, |i| {
                    let i = i as usize;
                    i >= vals.len() || nulls[i]
                }),
            },
            (ColumnData::Str { codes, nulls, dict }, Value::Str(s)) => {
                let matches: Vec<bool> = dict
                    .strings()
                    .iter()
                    .map(|e| op.test(e.as_str().cmp(s.as_str())))
                    .collect();
                sel.retain(|i| {
                    let i = i as usize;
                    i < codes.len() && !nulls[i] && matches[codes[i] as usize]
                });
                sel
            }
            (ColumnData::Str { codes, nulls, .. }, _) => {
                const_ord(op, Ordering::Greater, sel, |i| {
                    let i = i as usize;
                    i >= codes.len() || nulls[i]
                })
            }
            (_, Value::Null) => SelVec::new(), // handled above
        },
    }
}

/// The non-null rows whose membership in `list` is `want`.
fn inlist_sel(col: &ColView, list: &[Value], want: bool, mut sel: SelVec) -> SelVec {
    match col {
        ColView::Pack(p) => match &p.data {
            PackData::Int {
                base,
                packed,
                nulls,
            } => {
                // Rewrite the list into the residual domain once; values
                // outside the pack's representable range can never match.
                let mut targets: Vec<u64> = list
                    .iter()
                    .filter_map(|v| v.as_int())
                    .filter_map(|k| {
                        let d = (k as i128) - (*base as i128);
                        (0..=u64::MAX as i128).contains(&d).then_some(d as u64)
                    })
                    .collect();
                targets.sort_unstable();
                targets.dedup();
                if targets.is_empty() && want {
                    return SelVec::new();
                }
                let hit = |i: u32| targets.binary_search(&packed.get(i as usize)).is_ok() == want;
                if p.meta.null_count == 0 {
                    sel.retain(hit);
                } else {
                    sel.retain(|i| !nulls.get(i as usize) && hit(i));
                }
                sel
            }
            PackData::Double { vals, nulls } => {
                let targets: Vec<f64> = list
                    .iter()
                    .filter_map(|v| match v {
                        Value::Double(d) => Some(*d),
                        _ => None,
                    })
                    .collect();
                sel.retain(|i| {
                    let i = i as usize;
                    !nulls.get(i) && targets.iter().any(|t| vals[i].total_cmp(t).is_eq()) == want
                });
                sel
            }
            PackData::Str { codes, dict, nulls } => {
                let matches: Vec<bool> = dict
                    .iter()
                    .map(|e| list.iter().any(|v| v.as_str() == Some(e.as_str())))
                    .collect();
                sel.retain(|i| {
                    let i = i as usize;
                    !nulls.get(i) && matches[codes.get(i) as usize] == want
                });
                sel
            }
        },
        ColView::Col(c) => match c {
            ColumnData::Int { vals, nulls } => {
                let mut targets: Vec<i64> = list.iter().filter_map(|v| v.as_int()).collect();
                targets.sort_unstable();
                targets.dedup();
                sel.retain(|i| {
                    let i = i as usize;
                    i < vals.len() && !nulls[i] && targets.binary_search(&vals[i]).is_ok() == want
                });
                sel
            }
            ColumnData::Double { vals, nulls } => {
                let targets: Vec<f64> = list
                    .iter()
                    .filter_map(|v| match v {
                        Value::Double(d) => Some(*d),
                        _ => None,
                    })
                    .collect();
                sel.retain(|i| {
                    let i = i as usize;
                    i < vals.len()
                        && !nulls[i]
                        && targets.iter().any(|t| vals[i].total_cmp(t).is_eq()) == want
                });
                sel
            }
            ColumnData::Str { codes, nulls, dict } => {
                let matches: Vec<bool> = dict
                    .strings()
                    .iter()
                    .map(|e| list.iter().any(|v| v.as_str() == Some(e.as_str())))
                    .collect();
                sel.retain(|i| {
                    let i = i as usize;
                    i < codes.len() && !nulls[i] && matches[codes[i] as usize] == want
                });
                sel
            }
        },
    }
}

/// The non-null rows whose match against `pat` is `want`.
fn like_sel(col: &ColView, pat: &LikePattern, want: bool, mut sel: SelVec) -> SelVec {
    match col {
        ColView::Pack(Pack {
            data: PackData::Str { codes, dict, nulls },
            ..
        }) => {
            let matches: Vec<bool> = dict.iter().map(|e| pat.matches(e)).collect();
            sel.retain(|i| {
                let i = i as usize;
                !nulls.get(i) && matches[codes.get(i) as usize] == want
            });
            sel
        }
        ColView::Col(ColumnData::Str { codes, nulls, dict }) => {
            let matches: Vec<bool> = dict.strings().iter().map(|e| pat.matches(e)).collect();
            sel.retain(|i| {
                let i = i as usize;
                i < codes.len() && !nulls[i] && matches[codes[i] as usize] == want
            });
            sel
        }
        // LIKE over a non-string column is false on every value.
        _ if want => SelVec::new(),
        _ => isnull_sel(col, true, sel),
    }
}

fn isnull_sel(col: &ColView, negated: bool, mut sel: SelVec) -> SelVec {
    match col {
        ColView::Pack(p) => {
            let nulls = match &p.data {
                PackData::Int { nulls, .. }
                | PackData::Double { nulls, .. }
                | PackData::Str { nulls, .. } => nulls,
            };
            sel.retain(|i| nulls.get(i as usize) != negated);
            sel
        }
        ColView::Col(c) => {
            let (n, nulls) = match c {
                ColumnData::Int { nulls, .. }
                | ColumnData::Double { nulls, .. }
                | ColumnData::Str { nulls, .. } => (nulls.len(), nulls),
            };
            sel.retain(|i| {
                let i = i as usize;
                (i >= n || nulls[i]) != negated
            });
            sel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::DataType;

    fn int_pack(vals: &[Option<i64>]) -> Pack {
        let mut col = ColumnData::new(DataType::Int);
        for (i, v) in vals.iter().enumerate() {
            let v = v.map(Value::Int).unwrap_or(Value::Null);
            col.set(i, &v).unwrap();
        }
        Pack::seal(&col)
    }

    fn str_pack(vals: &[Option<&str>]) -> Pack {
        let mut col = ColumnData::new(DataType::Str);
        for (i, v) in vals.iter().enumerate() {
            let v = v.map(|s| Value::Str(s.into())).unwrap_or(Value::Null);
            col.set(i, &v).unwrap();
        }
        Pack::seal(&col)
    }

    fn sel_of(p: &Pack, e: &Expr, sel: SelVec) -> Vec<u32> {
        let cols = [ColView::Pack(p)];
        assert!(compressible(e, &cols));
        eval_sel(e, &cols, sel).unwrap().into_vec()
    }

    #[test]
    fn for_domain_int_compare() {
        let p = int_pack(&[Some(100), Some(105), None, Some(110), Some(120)]);
        let lt = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(110i64));
        assert_eq!(sel_of(&p, &lt, SelVec::identity(5)), vec![0, 1]);
        // literal below base: Gt matches all non-null, Lt none
        let gt = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(-5i64));
        assert_eq!(sel_of(&p, &gt, SelVec::identity(5)), vec![0, 1, 3, 4]);
        let lt0 = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(-5i64));
        assert!(sel_of(&p, &lt0, SelVec::identity(5)).is_empty());
        // flipped literal-first comparison
        let flipped = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::lit(110i64)),
            Box::new(Expr::col(0)),
        );
        assert_eq!(sel_of(&p, &flipped, SelVec::identity(5)), vec![0, 1]);
    }

    #[test]
    fn all_match_short_circuit_respects_partial_visibility() {
        // Every row satisfies the predicate; the selection (partial
        // visibility: rows 1 and 3 deleted) must come back unchanged —
        // never resurrecting unselected rows.
        let p = int_pack(&[Some(10), Some(11), Some(12), Some(13), Some(14)]);
        let e = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(0i64));
        let partial = SelVec::from_sorted(vec![0, 2, 4]);
        assert_eq!(sel_of(&p, &e, partial.clone()), vec![0, 2, 4]);
        // And the none-match dual empties it.
        let none = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(100i64));
        assert!(sel_of(&p, &none, partial).is_empty());
    }

    #[test]
    fn all_match_needs_null_free_pack() {
        let p = int_pack(&[Some(10), None, Some(12)]);
        let e = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(0i64));
        // Row 1 is NULL: even though min/max satisfy the range, the
        // kernel must drop it.
        assert_eq!(sel_of(&p, &e, SelVec::identity(3)), vec![0, 2]);
    }

    #[test]
    fn width_zero_all_equal_column() {
        let p = int_pack(&[Some(7), Some(7), Some(7)]);
        let eq = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(7i64));
        assert_eq!(sel_of(&p, &eq, SelVec::identity(3)), vec![0, 1, 2]);
        let ne = Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::lit(7i64));
        assert!(sel_of(&p, &ne, SelVec::identity(3)).is_empty());
    }

    #[test]
    fn dictionary_predicates() {
        let p = str_pack(&[Some("apple"), Some("banana"), None, Some("apricot")]);
        let eq = Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::Lit(Value::Str("banana".into())),
        );
        assert_eq!(sel_of(&p, &eq, SelVec::identity(4)), vec![1]);
        let like = Expr::Like(Box::new(Expr::col(0)), LikePattern::parse("ap%").unwrap());
        assert_eq!(sel_of(&p, &like, SelVec::identity(4)), vec![0, 3]);
        let inl = Expr::InList(
            Box::new(Expr::col(0)),
            vec![Value::Str("apple".into()), Value::Str("cherry".into())],
        );
        assert_eq!(sel_of(&p, &inl, SelVec::identity(4)), vec![0]);
    }

    #[test]
    fn boolean_connectives_and_null_collapse() {
        let p = int_pack(&[Some(1), Some(2), None, Some(4), Some(5)]);
        let lo = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(2i64));
        let hi = Expr::cmp(CmpOp::Le, Expr::col(0), Expr::lit(4i64));
        let and = lo.clone().and(hi.clone());
        assert_eq!(sel_of(&p, &and, SelVec::identity(5)), vec![1, 3]);
        let or = Expr::Or(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(1i64))),
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(5i64))),
        );
        assert_eq!(sel_of(&p, &or, SelVec::identity(5)), vec![0, 4]);
        // NOT over a predicate on the NULL row is UNKNOWN: the row
        // stays out of both the true and the false set.
        let not = Expr::Not(Box::new(and));
        assert_eq!(sel_of(&p, &not, SelVec::identity(5)), vec![0, 4]);
        let not_between = Expr::Not(Box::new(Expr::Between(
            Box::new(Expr::col(0)),
            Value::Int(2),
            Value::Int(4),
        )));
        assert_eq!(sel_of(&p, &not_between, SelVec::identity(5)), vec![0, 4]);
        let not_in =
            |list: Vec<Value>| Expr::Not(Box::new(Expr::InList(Box::new(Expr::col(0)), list)));
        let in_null = not_in(vec![Value::Int(1), Value::Null]);
        assert!(sel_of(&p, &in_null, SelVec::identity(5)).is_empty());
        let in_plain = not_in(vec![Value::Int(1), Value::Int(4)]);
        assert_eq!(sel_of(&p, &in_plain, SelVec::identity(5)), vec![1, 4]);
        // BETWEEN == >= AND <=
        let between = Expr::Between(Box::new(Expr::col(0)), Value::Int(2), Value::Int(4));
        assert_eq!(sel_of(&p, &between, SelVec::identity(5)), vec![1, 3]);
        // IS NULL / IS NOT NULL
        let isnull = Expr::IsNull(Box::new(Expr::col(0)), false);
        assert_eq!(sel_of(&p, &isnull, SelVec::identity(5)), vec![2]);
        let notnull = Expr::IsNull(Box::new(Expr::col(0)), true);
        assert_eq!(sel_of(&p, &notnull, SelVec::identity(5)), vec![0, 1, 3, 4]);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let p = int_pack(&[Some(1)]);
        let cols = [ColView::Pack(&p)];
        let col_col = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::col(0));
        assert!(!compressible(&col_col, &cols));
        let arith = Expr::Arith(
            crate::expr::ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(1i64)),
        );
        assert!(!compressible(&arith, &cols));
        // mixed-class IN list keeps generic semantics
        let mixed = Expr::InList(
            Box::new(Expr::col(0)),
            vec![Value::Int(1), Value::Double(2.0)],
        );
        assert!(!compressible(&mixed, &cols));
        // out-of-range column reference
        let oob = Expr::cmp(CmpOp::Eq, Expr::col(3), Expr::lit(1i64));
        assert!(!compressible(&oob, &cols));
    }
}
