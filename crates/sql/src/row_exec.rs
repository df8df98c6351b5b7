//! Row-at-a-time executor — the "row-based PolarDB" baseline engine.
//!
//! Interprets a [`BoundQuery`] directly against the row store: index
//! nested-loop joins (PK or secondary probes when available) and early
//! materialization. Deliberately classic: this is the engine whose
//! Fig. 9 execution times the column engine is compared against, and
//! the engine the optimizer picks for point queries (paper §6.1).
//!
//! Expressions mean the same here as on the column engine because they
//! evaluate through the same [`Expr::eval`], over batches built from the
//! fetched rows: each table's candidates for its local filter, the
//! joined rows for the residual, all rows for the group keys and
//! aggregate arguments, and the aggregate rows for the outputs.

use crate::plan::{join_probe, AccessPath, BoundQuery, BoundTable, JoinProbe};
use imci_common::{Error, Result, Value};
use imci_executor::{Acc, Batch, Expr};
use rowstore::RowEngine;

/// Rows per batch. The row engine evaluates in morsel-sized batches so
/// that its working memory stays the rows it already holds.
const BATCH: usize = 1024;

/// `rows` as batches of at most [`BATCH`] rows, `width` columns wide.
fn batches(rows: &[Vec<Value>], width: usize) -> impl Iterator<Item = Result<Batch>> + '_ {
    rows.chunks(BATCH).map(move |rows| {
        let len = rows.len();
        let cols = (0..width)
            .map(|c| Batch::column_of(rows.iter().map(|r| &r[c])))
            .collect::<Result<_>>()?;
        Ok(Batch { cols, len })
    })
}

/// The rows where `filter` is true (WHERE semantics).
fn retain(mut rows: Vec<Vec<Value>>, width: usize, f: Option<&Expr>) -> Result<Vec<Vec<Value>>> {
    if let Some(f) = f {
        let mut mask = Vec::with_capacity(rows.len());
        for b in batches(&rows, width) {
            mask.extend(f.eval_mask(&b?)?);
        }
        let mut mask = mask.into_iter();
        rows.retain(|_| mask.next() == Some(true));
    }
    Ok(rows)
}

/// `exprs` over each row.
fn project(exprs: &[Expr], rows: &[Vec<Value>], width: usize) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::with_capacity(rows.len());
    for b in batches(rows, width) {
        let b = b?;
        let cols = exprs
            .iter()
            .map(|e| e.eval(&b))
            .collect::<Result<Vec<_>>>()?;
        out.extend((0..b.len).map(|r| cols.iter().map(|c| c.get(r)).collect()));
    }
    Ok(out)
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
    // A table's local filter, remapped onto its own fetched columns.
    let local =
        |bt: &BoundTable, flat_off: usize| bt.filter.as_ref().map(|f| f.remap(&|c| c - flat_off));
    let first = &q.tables[0];
    let fetched = fetch_table_rows(engine, first, &first.access)?;
    let mut rows = retain(fetched, first.needed.len(), local(first, 0).as_ref())?;
    let mut width = first.needed.len();

    for (ji, bt) in q.tables.iter().enumerate().skip(1) {
        let conds = &q.join_conds[ji];
        let (flat_off, filter) = (width, local(bt, width));
        let mut next: Vec<Vec<Value>> = Vec::new();
        // The probe the cost model charged for this table.
        let probe = join_probe(&q.tables, conds, ji);
        for outer_row in rows {
            let candidates: Vec<Vec<Value>> = match (probe, &bt.access) {
                (_, a @ AccessPath::PkLookup(_)) | (None, a) => fetch_table_rows(engine, bt, a)?,
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
            };
            let joined = candidates.into_iter().filter(|inner| {
                let eq = |&(o, i): &(usize, usize)| outer_row[o].sql_cmp(&inner[i - flat_off]);
                conds
                    .iter()
                    .all(|c| eq(c) == Some(std::cmp::Ordering::Equal))
            });
            for inner in retain(joined.collect(), bt.needed.len(), filter.as_ref())? {
                let mut combined = outer_row.clone();
                combined.extend(inner);
                next.push(combined);
            }
        }
        rows = next;
        width += bt.needed.len();
    }

    // ---- residual filter ----
    let rows = retain(rows, width, q.residual.as_ref())?;

    // ---- aggregation ----
    let mut out_rows: Vec<Vec<Value>> = if !q.aggs.is_empty() || !q.group_by.is_empty() {
        // Group keys, then one argument per aggregate (COUNT(*) reads a
        // placeholder it ignores).
        let star = Expr::Lit(Value::Null);
        let args = q.aggs.iter().map(|a| a.arg.as_ref().unwrap_or(&star));
        let exprs: Vec<Expr> = q.group_by.iter().chain(args).cloned().collect();
        let nk = q.group_by.len();
        let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<Acc>> =
            std::collections::BTreeMap::new();
        for b in batches(&rows, width) {
            let b = b?;
            let cols = exprs
                .iter()
                .map(|e| e.eval(&b))
                .collect::<Result<Vec<_>>>()?;
            for r in 0..b.len {
                let accs = groups
                    .entry(cols[..nk].iter().map(|c| c.get(r)).collect())
                    .or_insert_with(|| q.aggs.iter().map(Acc::new).collect());
                for (acc, c) in accs.iter_mut().zip(&cols[nk..]) {
                    acc.update(Some(&c.get(r)));
                }
            }
        }
        if groups.is_empty() && q.group_by.is_empty() {
            groups.insert(Vec::new(), q.aggs.iter().map(Acc::new).collect());
        }
        let mut agg_rows = Vec::with_capacity(groups.len());
        for (mut key, accs) in groups {
            for acc in accs {
                key.push(acc.finish()?);
            }
            agg_rows.push(key);
        }
        project(&q.output, &agg_rows, nk + q.aggs.len())?
    } else {
        project(&q.output, &rows, width)?
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
