//! Row-at-a-time executor — the "row-based PolarDB" baseline engine.
//!
//! Interprets a [`BoundQuery`] directly against the row store: index
//! nested-loop joins (PK or secondary probes when available), early
//! materialization, tuple-at-a-time expression evaluation. Deliberately
//! classic: this is the engine whose Fig. 9 execution times the column
//! engine is compared against, and the engine the optimizer picks for
//! point queries (paper §6.1).

use crate::plan::{join_probe, AccessPath, BoundQuery, BoundTable, JoinProbe};
use imci_common::{Error, Result, Value};
use imci_executor::{Acc, ArithOp, Expr};
use rowstore::RowEngine;

/// Evaluate a bound expression against a single flat row.
pub fn eval_row(e: &Expr, row: &[Value]) -> Result<Value> {
    Ok(match e {
        Expr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Execution(format!("row col {i} out of range")))?,
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => {
            let (x, y) = (eval_row(a, row)?, eval_row(b, row)?);
            match x.sql_cmp(&y) {
                Some(ord) => Value::Int(op.test(ord) as i64),
                None => Value::Null,
            }
        }
        Expr::Arith(op, a, b) => {
            let (x, y) = (eval_row(a, row)?, eval_row(b, row)?);
            if x.is_null() || y.is_null() {
                return Ok(Value::Null);
            }
            // Integer fast path; Div, and any non-integer operand, take
            // the float path below.
            match (op, &x, &y) {
                (ArithOp::Add, Value::Int(i), Value::Int(j)) => return Ok(Value::Int(i + j)),
                (ArithOp::Sub, Value::Int(i), Value::Int(j)) => return Ok(Value::Int(i - j)),
                (ArithOp::Mul, Value::Int(i), Value::Int(j)) => return Ok(Value::Int(i * j)),
                _ => {}
            }
            let (i, j) = (
                x.as_f64()
                    .ok_or_else(|| Error::Execution(format!("arith on {x}")))?,
                y.as_f64()
                    .ok_or_else(|| Error::Execution(format!("arith on {y}")))?,
            );
            Value::Double(match op {
                ArithOp::Add => i + j,
                ArithOp::Sub => i - j,
                ArithOp::Mul => i * j,
                ArithOp::Div => i / j,
            })
        }
        Expr::And(a, b) => {
            let x = truthy(&eval_row(a, row)?);
            let y = truthy(&eval_row(b, row)?);
            Value::Int((x && y) as i64)
        }
        Expr::Or(a, b) => {
            let x = truthy(&eval_row(a, row)?);
            let y = truthy(&eval_row(b, row)?);
            Value::Int((x || y) as i64)
        }
        Expr::Not(a) => Value::Int(!truthy(&eval_row(a, row)?) as i64),
        Expr::Between(a, lo, hi) => {
            let v = eval_row(a, row)?;
            match (v.sql_cmp(lo), v.sql_cmp(hi)) {
                (Some(l), Some(h)) => Value::Int(
                    (l != std::cmp::Ordering::Less && h != std::cmp::Ordering::Greater) as i64,
                ),
                _ => Value::Null,
            }
        }
        Expr::InList(a, list) => {
            let v = eval_row(a, row)?;
            Value::Int((!v.is_null() && list.contains(&v)) as i64)
        }
        Expr::Like(a, pat) => match eval_row(a, row)? {
            Value::Str(s) => Value::Int(pat.matches(&s) as i64),
            _ => Value::Int(0),
        },
        Expr::IsNull(a, negated) => Value::Int((eval_row(a, row)?.is_null() != *negated) as i64),
        Expr::Year(a) => match eval_row(a, row)? {
            Value::Null => Value::Null,
            v => {
                let days = v
                    .as_int()
                    .ok_or_else(|| Error::Execution("YEAR() of non-date".into()))?;
                Value::Int(
                    imci_common::value::format_date(days)[..4]
                        .parse::<i64>()
                        .unwrap_or(0),
                )
            }
        },
    })
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Int(x) if *x != 0)
}

fn fetch_table_rows(
    engine: &RowEngine,
    bt: &BoundTable,
    access: &AccessPath,
) -> Result<Vec<Vec<Value>>> {
    let rt = engine.table(&bt.schema.name)?;
    let project =
        |values: &[Value]| -> Vec<Value> { bt.needed.iter().map(|&c| values[c].clone()).collect() };
    let mut out = Vec::new();
    match access {
        AccessPath::PkLookup(pk) => {
            if let Some(row) = engine.get_row(&bt.schema.name, *pk)? {
                out.push(project(&row.values));
            }
        }
        AccessPath::Secondary { col, lo, hi } => {
            let sec = rt
                .secondary_on(*col)
                .ok_or_else(|| Error::Plan(format!("missing secondary index on col {col}")))?;
            for pk in sec.lookup_range(lo, hi) {
                if let Some(row) = engine.get_row(&bt.schema.name, pk)? {
                    out.push(project(&row.values));
                }
            }
        }
        AccessPath::FullScan => {
            engine.scan(&bt.schema.name, i64::MIN, i64::MAX, |_, row| {
                out.push(project(&row.values));
            })?;
        }
    }
    Ok(out)
}

/// Execute a bound query on the row engine; returns projected rows.
pub fn execute_row(q: &BoundQuery, engine: &RowEngine) -> Result<Vec<Vec<Value>>> {
    // ---- joins: index nested loop in the bound order ----
    let mut offsets = Vec::with_capacity(q.tables.len());
    let mut off = 0;
    for bt in &q.tables {
        offsets.push(off);
        off += bt.needed.len();
    }
    let filter_local = |bt: &BoundTable, flat_off: usize, row: &[Value]| -> Result<bool> {
        match &bt.filter {
            None => Ok(true),
            Some(f) => {
                let local = f.remap(&|c| c - flat_off);
                Ok(truthy(&eval_row(&local, row)?))
            }
        }
    };

    let first = &q.tables[0];
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for r in fetch_table_rows(engine, first, &first.access)? {
        if filter_local(first, 0, &r)? {
            rows.push(r);
        }
    }

    for (ji, bt) in q.tables.iter().enumerate().skip(1) {
        let conds = &q.join_conds[ji];
        let flat_off = offsets[ji];
        let mut next: Vec<Vec<Value>> = Vec::new();
        // The probe the cost model charged for this table.
        let probe = join_probe(&q.tables, conds, ji);
        for outer_row in rows {
            let candidates: Vec<Vec<Value>> = match (probe, &bt.access) {
                (_, AccessPath::PkLookup(pk)) => {
                    fetch_table_rows(engine, bt, &AccessPath::PkLookup(*pk))?
                }
                (Some(JoinProbe::Pk { outer }), _) => match outer_row[outer].as_int() {
                    Some(pk) => fetch_table_rows(engine, bt, &AccessPath::PkLookup(pk))?,
                    None => Vec::new(),
                },
                (Some(JoinProbe::Secondary { outer, col }), _) => {
                    let key = outer_row[outer].clone();
                    fetch_table_rows(
                        engine,
                        bt,
                        &AccessPath::Secondary {
                            col,
                            lo: key.clone(),
                            hi: key,
                        },
                    )?
                }
                (None, access) => fetch_table_rows(engine, bt, access)?,
            };
            for inner in candidates {
                // check all join conds + local filter
                let ok = conds.iter().all(|(outer, inner_flat)| {
                    let local = inner_flat - flat_off;
                    outer_row[*outer].sql_cmp(&inner[local]) == Some(std::cmp::Ordering::Equal)
                });
                if !ok || !filter_local(bt, flat_off, &inner)? {
                    continue;
                }
                let mut combined = outer_row.clone();
                combined.extend(inner.iter().cloned());
                next.push(combined);
            }
        }
        rows = next;
    }

    // ---- residual filter ----
    if let Some(res) = &q.residual {
        rows.retain(|r| matches!(eval_row(res, r), Ok(v) if truthy(&v)));
    }

    // ---- aggregation ----
    let mut out_rows: Vec<Vec<Value>> = if !q.aggs.is_empty() || !q.group_by.is_empty() {
        let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<Acc>> =
            std::collections::BTreeMap::new();
        for r in &rows {
            let key: Vec<Value> = q
                .group_by
                .iter()
                .map(|g| eval_row(g, r))
                .collect::<Result<_>>()?;
            let accs = groups
                .entry(key)
                .or_insert_with(|| q.aggs.iter().map(Acc::new).collect());
            for (acc, call) in accs.iter_mut().zip(&q.aggs) {
                let arg = match &call.arg {
                    Some(a) => Some(eval_row(a, r)?),
                    None => None,
                };
                acc.update(arg.as_ref());
            }
        }
        if groups.is_empty() && q.group_by.is_empty() {
            groups.insert(Vec::new(), q.aggs.iter().map(Acc::new).collect());
        }
        let mut out = Vec::with_capacity(groups.len());
        for (key, accs) in groups {
            let mut agg_row = key;
            for acc in accs {
                agg_row.push(acc.finish()?);
            }
            let projected: Vec<Value> = q
                .output
                .iter()
                .map(|e| eval_row(e, &agg_row))
                .collect::<Result<_>>()?;
            out.push(projected);
        }
        out
    } else {
        rows.iter()
            .map(|r| {
                q.output
                    .iter()
                    .map(|e| eval_row(e, r))
                    .collect::<Result<Vec<Value>>>()
            })
            .collect::<Result<_>>()?
    };

    // ---- order / limit ----
    if !q.order_by.is_empty() {
        out_rows.sort_by(|a, b| {
            for (pos, desc) in &q.order_by {
                let ord = a[*pos].cmp(&b[*pos]);
                if ord != std::cmp::Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = q.limit {
        out_rows.truncate(n);
    }
    Ok(out_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_executor::CmpOp;

    #[test]
    fn eval_row_basics() {
        let row = vec![Value::Int(5), Value::Str("abc".into()), Value::Null];
        let e = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(3i64));
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Int(1));
        let e = Expr::Like(
            Box::new(Expr::col(1)),
            imci_executor::LikePattern::parse("ab%").unwrap(),
        );
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Int(1));
        let e = Expr::IsNull(Box::new(Expr::col(2)), false);
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Int(1));
        let e = Expr::Arith(ArithOp::Add, Box::new(Expr::col(0)), Box::new(Expr::col(2)));
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Null);
        // Integers stay integers, except under division.
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(3i64)),
        );
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Int(15));
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Double(2.5));
    }
}
