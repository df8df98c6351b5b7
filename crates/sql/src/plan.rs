//! Binder, join ordering, cost-based routing, and column-plan
//! generation (paper §6.1–§6.2).
//!
//! The optimizer builds a *row-oriented* plan first (access-path choice
//! per table + join order) and estimates its cost; only when the
//! estimate crosses a threshold is the plan *transformed* into a
//! column-oriented [`PhysicalPlan`] — mirroring the paper's flow where
//! "instead of top-down constructing a column-oriented execution plan,
//! PolarDB-IMCI transforms it from the row-oriented one".

use crate::ast::{AggName, AstExpr, ColRef, OrderKey, SelectStmt};
use imci_common::{DataType, Error, FxHashMap, Result, Schema, Value};
use imci_executor::{
    AggCall, AggFunc, ArithOp, CmpOp, Expr, LikePattern, PhysicalPlan, PruneRange,
};
use std::sync::Arc;

/// Table statistics provider (row counts feed the cost model; the paper
/// collects them "through random sampling" — we track exact counts and
/// use the same heuristics for selectivity).
pub trait Stats {
    /// Approximate live row count of a table.
    fn table_rows(&self, schema: &Schema) -> u64;
    /// Estimated rows one equality probe of the secondary index on
    /// column `col` returns (≥ 1; see `rowstore::SecondaryIndex::fanout`).
    fn probe_fanout(&self, schema: &Schema, col: usize) -> f64;
}

/// How the row engine reaches a joined table's rows for each outer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinProbe {
    /// Primary-key lookup keyed by the outer row's flat column `outer`.
    Pk {
        /// Flat column of the outer row holding the key.
        outer: usize,
    },
    /// Secondary-index equality probe on table column `col`.
    Secondary {
        /// Flat column of the outer row holding the key.
        outer: usize,
        /// Table column ordinal the index leads with.
        col: usize,
    },
}

/// The index probe that joins table `ji` to the tables before it: a
/// join condition on the primary key, else the first one on a secondary
/// index's leading column. `None` means no condition hits an index and
/// the row engine rescans the table per outer row. The cost model and
/// [`crate::row_exec::execute_row`] both ask this, so the cost charges
/// the probe that runs.
pub(crate) fn join_probe(
    tables: &[BoundTable],
    conds: &[(usize, usize)],
    ji: usize,
) -> Option<JoinProbe> {
    let schema = &tables[ji].schema;
    let local = |inner: usize| flat_to_local(inner, tables, ji);
    if let Some(&(outer, _)) = conds
        .iter()
        .find(|&&(_, inner)| local(inner) == Some(schema.pk_col()))
    {
        return Some(JoinProbe::Pk { outer });
    }
    conds.iter().find_map(|&(outer, inner)| {
        let col = local(inner)?;
        schema
            .secondary_indexes()
            .any(|ix| ix.columns[0] == col)
            .then_some(JoinProbe::Secondary { outer, col })
    })
}

/// Access path the row engine would use for one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Primary-key point lookup.
    PkLookup(i64),
    /// Secondary index equality/range probe on a column.
    Secondary {
        /// Column ordinal.
        col: usize,
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
    /// Full table scan.
    FullScan,
}

/// Per-table pruning bounds: (column ordinal, lower, upper).
pub type PruneBounds = Vec<(usize, Option<Value>, Option<Value>)>;

/// A bound single-table slice of the query.
#[derive(Debug)]
pub struct BoundTable {
    /// The table's schema.
    pub schema: Arc<Schema>,
    /// Alias used in the query.
    pub alias: String,
    /// Needed column ordinals (sorted).
    pub needed: Vec<usize>,
    /// Filter over the flat output (conjuncts local to this table).
    pub filter: Option<Expr>,
    /// Pruning ranges in table-column ordinals.
    pub prune: PruneBounds,
    /// Chosen row-engine access path.
    pub access: AccessPath,
    /// Estimated rows after filtering.
    pub est_rows: f64,
}

/// A fully bound SELECT, shared by both engines.
pub struct BoundQuery {
    /// Tables in join order.
    pub tables: Vec<BoundTable>,
    /// For each table after the first: (flat col already bound, local
    /// flat col of this table) equality pairs.
    pub join_conds: Vec<Vec<(usize, usize)>>,
    /// Residual filter over the joined flat row (cross-table conjuncts).
    pub residual: Option<Expr>,
    /// Grouping expressions over the flat row (empty = none).
    pub group_by: Vec<Expr>,
    /// Aggregate calls (empty = projection-only query).
    pub aggs: Vec<AggCall>,
    /// Output expressions over the post-agg (or flat) row.
    pub output: Vec<Expr>,
    /// Output column names.
    pub out_names: Vec<String>,
    /// ORDER BY: (output position, desc).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Estimated row-engine cost (drives intra-node routing, §6.1).
    pub row_cost: f64,
}

struct Binder {
    tables: Vec<(Arc<Schema>, String)>, // (schema, alias) in FROM order
    needed: Vec<std::collections::BTreeSet<usize>>,
}

impl Binder {
    fn resolve(&self, c: &ColRef) -> Result<(usize, usize)> {
        let mut found = None;
        for (ti, (schema, alias)) in self.tables.iter().enumerate() {
            if let Some(q) = &c.qualifier {
                if q != alias && *q != schema.name {
                    continue;
                }
            }
            if let Some(ci) = schema.col_index(&c.column) {
                if found.is_some() && c.qualifier.is_none() {
                    return Err(Error::Plan(format!("ambiguous column {}", c.column)));
                }
                found = Some((ti, ci));
                if c.qualifier.is_some() {
                    break;
                }
            }
        }
        found.ok_or_else(|| Error::Plan(format!("unknown column {}", c.column)))
    }

    fn collect(&mut self, e: &AstExpr) -> Result<()> {
        match e {
            AstExpr::Col(c) => {
                let (ti, ci) = self.resolve(c)?;
                self.needed[ti].insert(ci);
            }
            AstExpr::Lit(_) => {}
            AstExpr::Binary { l, r, .. } => {
                self.collect(l)?;
                self.collect(r)?;
            }
            AstExpr::Not(e)
            | AstExpr::Year(e)
            | AstExpr::Neg(e)
            | AstExpr::Like { e, .. }
            | AstExpr::IsNull { e, .. }
            | AstExpr::Between { e, .. }
            | AstExpr::InList { e, .. } => self.collect(e)?,
            AstExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    self.collect(a)?;
                }
            }
        }
        Ok(())
    }
}

/// Column type lookup helper for literal coercion (date strings).
fn coerce_lit(v: &Value, ty: DataType) -> Value {
    match (v, ty) {
        (Value::Str(s), DataType::Date) => match imci_common::value::parse_date_str(s) {
            Ok(d) => Value::Date(d),
            Err(_) => v.clone(),
        },
        (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
        (Value::Date(d), DataType::Int) => Value::Int(*d),
        _ => v.clone(),
    }
}

/// Bind and optimize a SELECT against a catalog.
pub fn bind_select(
    stmt: &SelectStmt,
    lookup: &dyn Fn(&str) -> Result<Arc<Schema>>,
    stats: &dyn Stats,
) -> Result<BoundQuery> {
    // ---- resolve FROM ----
    let mut binder = Binder {
        tables: Vec::new(),
        needed: Vec::new(),
    };
    for tr in &stmt.from {
        let schema = lookup(&tr.table)?;
        binder.tables.push((schema, tr.alias.clone()));
        binder.needed.push(Default::default());
    }

    // ---- collect referenced columns ----
    for item in &stmt.items {
        binder.collect(&item.expr)?;
    }
    if let Some(f) = &stmt.filter {
        binder.collect(f)?;
    }
    for g in &stmt.group_by {
        binder.collect(g)?;
    }
    let mut join_pairs: Vec<((usize, usize), (usize, usize))> = Vec::new();
    for (l, r) in &stmt.join_on {
        let lb = binder.resolve(l)?;
        let rb = binder.resolve(r)?;
        binder.needed[lb.0].insert(lb.1);
        binder.needed[rb.0].insert(rb.1);
        join_pairs.push((lb, rb));
    }

    // ---- split WHERE conjuncts ----
    let mut table_conjuncts: Vec<Vec<AstExpr>> = vec![Vec::new(); binder.tables.len()];
    let mut cross_conjuncts: Vec<AstExpr> = Vec::new();
    if let Some(f) = stmt.filter.clone() {
        let mut cs = Vec::new();
        f.split_conjuncts(&mut cs);
        for c in cs {
            // equality join predicate in WHERE form: a.x = b.y
            if let AstExpr::Binary { op, l, r } = &c {
                if let ("=", AstExpr::Col(lc), AstExpr::Col(rc)) = (op.as_str(), &**l, &**r) {
                    let lb = binder.resolve(lc)?;
                    let rb = binder.resolve(rc)?;
                    if lb.0 != rb.0 {
                        join_pairs.push((lb, rb));
                        continue;
                    }
                }
            }
            // which tables does the conjunct touch?
            let mut touched = std::collections::BTreeSet::new();
            collect_tables(&c, &binder, &mut touched)?;
            match touched.len() {
                0 | 1 => {
                    let ti = touched.into_iter().next().unwrap_or(0);
                    table_conjuncts[ti].push(c);
                }
                _ => cross_conjuncts.push(c),
            }
        }
    }

    // ---- per-table estimates & access paths ----
    let n = binder.tables.len();
    let mut est = vec![0f64; n];
    let mut access = vec![AccessPath::FullScan; n];
    let mut prune: Vec<PruneBounds> = vec![Vec::new(); n];
    for ti in 0..n {
        let schema = &binder.tables[ti].0;
        let rows = stats.table_rows(schema).max(1) as f64;
        let mut sel = 1.0f64;
        for c in &table_conjuncts[ti] {
            sel *= conjunct_selectivity(c);
            // pk / secondary access path detection + prune ranges
            if let Some((ci, lo, hi)) = eq_or_range(c, &binder, ti)? {
                let ty = schema.columns[ci].ty;
                let lo = lo.map(|v| coerce_lit(&v, ty));
                let hi = hi.map(|v| coerce_lit(&v, ty));
                prune[ti].push((ci, lo.clone(), hi.clone()));
                if ci == schema.pk_col() {
                    if let (Some(Value::Int(a)), Some(Value::Int(b))) = (&lo, &hi) {
                        if a == b {
                            access[ti] = AccessPath::PkLookup(*a);
                        }
                    }
                } else if matches!(access[ti], AccessPath::FullScan) {
                    let has_sec = schema.secondary_indexes().any(|i| i.columns[0] == ci);
                    if has_sec {
                        if let (Some(l), Some(h)) = (&lo, &hi) {
                            access[ti] = AccessPath::Secondary {
                                col: ci,
                                lo: l.clone(),
                                hi: h.clone(),
                            };
                        }
                    }
                }
            }
        }
        est[ti] = match &access[ti] {
            AccessPath::PkLookup(_) => 1.0,
            _ => (rows * sel).max(1.0),
        };
    }

    // ---- join ordering: greedy smallest-first over the join graph ----
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by(|&a, &b| est[a].total_cmp(&est[b]));
    order.push(remaining.remove(0));
    while !remaining.is_empty() {
        // prefer tables connected to what's already placed
        let pos = remaining
            .iter()
            .position(|&t| {
                join_pairs.iter().any(|(a, b)| {
                    (a.0 == t && order.contains(&b.0)) || (b.0 == t && order.contains(&a.0))
                })
            })
            .unwrap_or(0);
        order.push(remaining.remove(pos));
    }

    // ---- flat layout over needed columns, in join order ----
    let needed: Vec<Vec<usize>> = binder
        .needed
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect();
    let mut flat_of: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let mut off = 0usize;
    for &ti in &order {
        for (k, &ci) in needed[ti].iter().enumerate() {
            flat_of.insert((ti, ci), off + k);
        }
        off += needed[ti].len();
    }

    let bind_expr = |e: &AstExpr| -> Result<Expr> { bind_scalar(e, &binder, &flat_of, None) };
    // AND-fold a conjunct list; `None` when the list is empty.
    let and_all = |cs: &[AstExpr]| -> Result<Option<Expr>> {
        let mut folded: Option<Expr> = None;
        for c in cs {
            let bound = bind_expr(c)?;
            folded = Some(match folded {
                Some(prev) => prev.and(bound),
                None => bound,
            });
        }
        Ok(folded)
    };

    // ---- build BoundTables ----
    let mut tables = Vec::with_capacity(n);
    let mut join_conds: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
    for (ji, &ti) in order.iter().enumerate() {
        let (schema, alias) = &binder.tables[ti];
        // local filter bound against the flat layout
        let filter = and_all(&table_conjuncts[ti])?;
        let mut conds = Vec::new();
        for (a, b) in &join_pairs {
            let (inner, outer) = if a.0 == ti {
                (a, b)
            } else if b.0 == ti {
                (b, a)
            } else {
                continue;
            };
            // outer must already be placed before this table
            if order[..ji].contains(&outer.0) {
                conds.push((flat_of[outer], flat_of[inner]));
            }
        }
        join_conds.push(conds);
        tables.push(BoundTable {
            schema: schema.clone(),
            alias: alias.clone(),
            needed: needed[ti].clone(),
            filter,
            prune: prune[ti].clone(),
            access: access[ti].clone(),
            est_rows: est[ti],
        });
    }

    // ---- residual filter ----
    let residual = and_all(&cross_conjuncts)?;

    // ---- aggregates & output ----
    let group_by: Vec<Expr> = stmt.group_by.iter().map(bind_expr).collect::<Result<_>>()?;
    let has_aggs = stmt.items.iter().any(|i| i.expr.has_agg());
    let mut aggs: Vec<AggCall> = Vec::new();
    let mut output = Vec::with_capacity(stmt.items.len());
    let mut out_names = Vec::with_capacity(stmt.items.len());
    if has_aggs || !group_by.is_empty() {
        for (i, item) in stmt.items.iter().enumerate() {
            let e = bind_post_agg(
                &item.expr,
                &binder,
                &flat_of,
                &stmt.group_by,
                &group_by,
                &mut aggs,
            )?;
            output.push(e);
            out_names.push(item_name(item, i));
        }
    } else {
        for (i, item) in stmt.items.iter().enumerate() {
            output.push(bind_expr(&item.expr)?);
            out_names.push(item_name(item, i));
        }
    }

    // ---- ORDER BY ----
    let mut order_by = Vec::new();
    for (key, desc) in &stmt.order_by {
        let pos = match key {
            OrderKey::Position(p) => {
                if *p == 0 || *p > output.len() {
                    return Err(Error::Plan(format!("ORDER BY position {p} out of range")));
                }
                p - 1
            }
            OrderKey::Name(name) => stmt
                .items
                .iter()
                .position(|it| {
                    it.alias.as_deref() == Some(name.as_str())
                        || matches!(&it.expr, AstExpr::Col(c) if c.column == *name)
                })
                .ok_or_else(|| Error::Plan(format!("ORDER BY key {name} not in select list")))?,
        };
        order_by.push((pos, *desc));
    }

    // ---- row-engine cost estimate ----
    // Cost model: row visits through the join order. A PK lookup or PK
    // probe visits one row per outer row, a secondary probe its fan-out
    // per outer row, and anything else rescans its range or table per
    // outer row (the first table runs once, `card` = 1).
    let mut row_cost = 0.0;
    let mut card = 1.0f64;
    for (ji, bt) in tables.iter().enumerate() {
        row_cost += card
            * match (&bt.access, join_probe(&tables, &join_conds[ji], ji)) {
                (AccessPath::PkLookup(_), _) | (_, Some(JoinProbe::Pk { .. })) => 1.0,
                (_, Some(JoinProbe::Secondary { col, .. })) => stats.probe_fanout(&bt.schema, col),
                (AccessPath::Secondary { .. }, None) => bt.est_rows.max(1.0),
                (AccessPath::FullScan, None) => stats.table_rows(&bt.schema).max(1) as f64,
            };
        card *= bt.est_rows.max(1.0);
        card = card.min(1e15);
    }

    Ok(BoundQuery {
        tables,
        join_conds,
        residual,
        group_by,
        aggs,
        output,
        out_names,
        order_by,
        limit: stmt.limit,
        row_cost,
    })
}

fn item_name(item: &crate::ast::SelectItem, i: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    if let AstExpr::Col(c) = &item.expr {
        return c.column.clone();
    }
    format!("col{}", i + 1)
}

fn flat_to_local(flat: usize, tables: &[BoundTable], ji: usize) -> Option<usize> {
    let mut off = 0;
    for bt in tables.iter().take(ji) {
        off += bt.needed.len();
    }
    let local = flat.checked_sub(off)?;
    tables[ji].needed.get(local).copied()
}

fn collect_tables(
    e: &AstExpr,
    b: &Binder,
    out: &mut std::collections::BTreeSet<usize>,
) -> Result<()> {
    match e {
        AstExpr::Col(c) => {
            out.insert(b.resolve(c)?.0);
        }
        AstExpr::Lit(_) => {}
        AstExpr::Binary { l, r, .. } => {
            collect_tables(l, b, out)?;
            collect_tables(r, b, out)?;
        }
        AstExpr::Not(x)
        | AstExpr::Year(x)
        | AstExpr::Neg(x)
        | AstExpr::Like { e: x, .. }
        | AstExpr::IsNull { e: x, .. }
        | AstExpr::Between { e: x, .. }
        | AstExpr::InList { e: x, .. } => collect_tables(x, b, out)?,
        AstExpr::Agg { arg, .. } => {
            if let Some(a) = arg {
                collect_tables(a, b, out)?;
            }
        }
    }
    Ok(())
}

/// Heuristic selectivities (same spirit as the paper's sampled stats).
fn conjunct_selectivity(e: &AstExpr) -> f64 {
    match e {
        AstExpr::Binary { op, .. } => match op.as_str() {
            "=" => 0.05,
            "<" | "<=" | ">" | ">=" => 0.35,
            "<>" => 0.95,
            _ => 0.5,
        },
        AstExpr::Between { .. } => 0.25,
        AstExpr::InList { list, .. } => (0.05 * list.len() as f64).min(0.5),
        AstExpr::Like { .. } => 0.2,
        AstExpr::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        _ => 0.5,
    }
}

/// If the conjunct is `col ⊙ literal` (on table `ti`), return the
/// implied `(col, lo, hi)` range.
#[allow(clippy::type_complexity)]
fn eq_or_range(
    e: &AstExpr,
    b: &Binder,
    ti: usize,
) -> Result<Option<(usize, Option<Value>, Option<Value>)>> {
    let (col, op, lit, flipped) = match e {
        AstExpr::Binary { op, l, r } => match (&**l, &**r) {
            (AstExpr::Col(c), AstExpr::Lit(v)) => (c, op.as_str(), v.clone(), false),
            (AstExpr::Lit(v), AstExpr::Col(c)) => (c, op.as_str(), v.clone(), true),
            _ => return Ok(None),
        },
        AstExpr::Between { e, lo, hi } => {
            if let AstExpr::Col(c) = &**e {
                let (t, ci) = b.resolve(c)?;
                if t != ti {
                    return Ok(None);
                }
                return Ok(Some((ci, Some(lo.clone()), Some(hi.clone()))));
            }
            return Ok(None);
        }
        _ => return Ok(None),
    };
    let (t, ci) = b.resolve(col)?;
    if t != ti {
        return Ok(None);
    }
    let op = if flipped {
        match op {
            "<" => ">",
            "<=" => ">=",
            ">" => "<",
            ">=" => "<=",
            other => other,
        }
    } else {
        op
    };
    Ok(match op {
        "=" => Some((ci, Some(lit.clone()), Some(lit))),
        "<" | "<=" => Some((ci, None, Some(lit))),
        ">" | ">=" => Some((ci, Some(lit), None)),
        _ => None,
    })
}

/// Bind a scalar (non-aggregate) AST expression to flat positions.
fn bind_scalar(
    e: &AstExpr,
    b: &Binder,
    flat: &FxHashMap<(usize, usize), usize>,
    col_ty: Option<DataType>,
) -> Result<Expr> {
    Ok(match e {
        AstExpr::Col(c) => {
            let key = b.resolve(c)?;
            Expr::Col(
                *flat
                    .get(&key)
                    .ok_or_else(|| Error::Plan(format!("column {} not in layout", c.column)))?,
            )
        }
        AstExpr::Lit(v) => Expr::Lit(match col_ty {
            Some(ty) => coerce_lit(v, ty),
            None => v.clone(),
        }),
        AstExpr::Binary { op, l, r } => {
            // For comparisons against a column, coerce literal side to
            // the column's type (implicit casts follow the row plan,
            // §6.2).
            let lty = expr_col_type(l, b);
            let rty = expr_col_type(r, b);
            let lb = bind_scalar(l, b, flat, rty)?;
            let rb = bind_scalar(r, b, flat, lty)?;
            match op.as_str() {
                "=" => Expr::Cmp(CmpOp::Eq, Box::new(lb), Box::new(rb)),
                "<>" => Expr::Cmp(CmpOp::Ne, Box::new(lb), Box::new(rb)),
                "<" => Expr::Cmp(CmpOp::Lt, Box::new(lb), Box::new(rb)),
                "<=" => Expr::Cmp(CmpOp::Le, Box::new(lb), Box::new(rb)),
                ">" => Expr::Cmp(CmpOp::Gt, Box::new(lb), Box::new(rb)),
                ">=" => Expr::Cmp(CmpOp::Ge, Box::new(lb), Box::new(rb)),
                "+" => Expr::Arith(ArithOp::Add, Box::new(lb), Box::new(rb)),
                "-" => Expr::Arith(ArithOp::Sub, Box::new(lb), Box::new(rb)),
                "*" => Expr::Arith(ArithOp::Mul, Box::new(lb), Box::new(rb)),
                "/" => Expr::Arith(ArithOp::Div, Box::new(lb), Box::new(rb)),
                "AND" => lb.and(rb),
                "OR" => Expr::Or(Box::new(lb), Box::new(rb)),
                other => return Err(Error::Plan(format!("unsupported operator {other}"))),
            }
        }
        AstExpr::Not(x) => Expr::Not(Box::new(bind_scalar(x, b, flat, None)?)),
        AstExpr::Neg(x) => Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::Lit(Value::Int(0))),
            Box::new(bind_scalar(x, b, flat, None)?),
        ),
        AstExpr::Between { e, lo, hi } => {
            let ty = expr_col_type(e, b);
            let lo = ty.map_or_else(|| lo.clone(), |t| coerce_lit(lo, t));
            let hi = ty.map_or_else(|| hi.clone(), |t| coerce_lit(hi, t));
            Expr::Between(Box::new(bind_scalar(e, b, flat, None)?), lo, hi)
        }
        AstExpr::InList { e, list } => {
            let ty = expr_col_type(e, b);
            let list = list
                .iter()
                .map(|v| ty.map_or_else(|| v.clone(), |t| coerce_lit(v, t)))
                .collect();
            Expr::InList(Box::new(bind_scalar(e, b, flat, None)?), list)
        }
        AstExpr::Like { e, pattern } => Expr::Like(
            Box::new(bind_scalar(e, b, flat, None)?),
            LikePattern::parse(pattern)?,
        ),
        AstExpr::IsNull { e, negated } => {
            Expr::IsNull(Box::new(bind_scalar(e, b, flat, None)?), *negated)
        }
        AstExpr::Year(x) => Expr::Year(Box::new(bind_scalar(x, b, flat, None)?)),
        AstExpr::Agg { .. } => {
            return Err(Error::Plan(
                "aggregate in scalar context (missing GROUP BY?)".into(),
            ))
        }
    })
}

fn expr_col_type(e: &AstExpr, b: &Binder) -> Option<DataType> {
    if let AstExpr::Col(c) = e {
        if let Ok((ti, ci)) = b.resolve(c) {
            return Some(b.tables[ti].0.columns[ci].ty);
        }
    }
    None
}

/// Bind a select item in post-aggregation context: group-by expressions
/// map to leading output columns, aggregate calls are registered and
/// map to trailing columns.
fn bind_post_agg(
    e: &AstExpr,
    b: &Binder,
    flat: &FxHashMap<(usize, usize), usize>,
    group_ast: &[AstExpr],
    group_bound: &[Expr],
    aggs: &mut Vec<AggCall>,
) -> Result<Expr> {
    // exact group-by match?
    if let Some(pos) = group_ast.iter().position(|g| g == e) {
        return Ok(Expr::Col(pos));
    }
    match e {
        AstExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            let call = AggCall {
                func: match func {
                    AggName::Count if arg.is_none() => AggFunc::CountStar,
                    AggName::Count => AggFunc::Count,
                    AggName::Sum => AggFunc::Sum,
                    AggName::Avg => AggFunc::Avg,
                    AggName::Min => AggFunc::Min,
                    AggName::Max => AggFunc::Max,
                },
                arg: arg
                    .as_ref()
                    .map(|a| bind_scalar(a, b, flat, None))
                    .transpose()?,
                distinct: *distinct,
            };
            let pos = if let Some(i) = aggs.iter().position(|c| *c == call) {
                i
            } else {
                aggs.push(call);
                aggs.len() - 1
            };
            Ok(Expr::Col(group_bound.len() + pos))
        }
        AstExpr::Binary { op, l, r } => {
            let lb = bind_post_agg(l, b, flat, group_ast, group_bound, aggs)?;
            let rb = bind_post_agg(r, b, flat, group_ast, group_bound, aggs)?;
            Ok(match op.as_str() {
                "+" => Expr::Arith(ArithOp::Add, Box::new(lb), Box::new(rb)),
                "-" => Expr::Arith(ArithOp::Sub, Box::new(lb), Box::new(rb)),
                "*" => Expr::Arith(ArithOp::Mul, Box::new(lb), Box::new(rb)),
                "/" => Expr::Arith(ArithOp::Div, Box::new(lb), Box::new(rb)),
                other => {
                    return Err(Error::Plan(format!(
                        "operator {other} not allowed over aggregates"
                    )))
                }
            })
        }
        AstExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Year(x) => Ok(Expr::Year(Box::new(bind_post_agg(
            x,
            b,
            flat,
            group_ast,
            group_bound,
            aggs,
        )?))),
        other => Err(Error::Plan(format!(
            "select item must be a group key or aggregate: {other:?}"
        ))),
    }
}

/// Transform the bound (row-oriented) query into a column-engine
/// physical plan (paper §6.2).
pub fn to_column_plan(
    q: &BoundQuery,
    covered_of: &dyn Fn(&Schema) -> Option<Vec<usize>>,
) -> Result<PhysicalPlan> {
    // Per-table scans over the needed columns.
    let mut plan: Option<PhysicalPlan> = None;
    let mut flat_off = 0usize;
    for (ji, bt) in q.tables.iter().enumerate() {
        let covered = covered_of(&bt.schema).ok_or_else(|| {
            Error::ColumnEngineUnsupported(format!("table {} has no column index", bt.schema.name))
        })?;
        // map table col ordinal → covered position
        let cov_pos = |ci: usize| -> Result<usize> {
            covered.iter().position(|&c| c == ci).ok_or_else(|| {
                Error::ColumnEngineUnsupported(format!(
                    "column {} of {} not covered by its column index",
                    bt.schema.columns[ci].name, bt.schema.name
                ))
            })
        };
        let cols: Vec<usize> = bt
            .needed
            .iter()
            .map(|&ci| cov_pos(ci))
            .collect::<Result<_>>()?;
        let prune: Vec<PruneRange> = bt
            .prune
            .iter()
            .map(|(ci, lo, hi)| {
                Ok(PruneRange {
                    col: cov_pos(*ci)?,
                    lo: lo.clone(),
                    hi: hi.clone(),
                })
            })
            .collect::<Result<_>>()?;
        // scan filter: remap flat positions → local scan output positions
        let filter = bt.filter.as_ref().map(|f| f.remap(&|flat| flat - flat_off));
        let scan = PhysicalPlan::ColumnScan {
            table: bt.schema.table_id,
            cols,
            prune,
            filter,
        };
        plan = Some(match plan {
            None => scan,
            Some(left) => {
                let conds = &q.join_conds[ji];
                if conds.is_empty() {
                    return Err(Error::ColumnEngineUnsupported(format!(
                        "cartesian product with table {} (no join condition)",
                        bt.schema.name
                    )));
                }
                PhysicalPlan::HashJoin {
                    left: Box::new(left),
                    right: Box::new(scan),
                    left_keys: conds.iter().map(|(l, _)| *l).collect(),
                    right_keys: conds.iter().map(|(_, r)| *r - flat_off).collect(),
                }
            }
        });
        flat_off += bt.needed.len();
    }
    let mut plan = plan.ok_or_else(|| Error::Plan("query without tables".into()))?;
    if let Some(res) = &q.residual {
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            pred: res.clone(),
        };
    }
    if !q.aggs.is_empty() || !q.group_by.is_empty() {
        plan = PhysicalPlan::HashAgg {
            input: Box::new(plan),
            group_by: q.group_by.clone(),
            aggs: q.aggs.clone(),
        };
    }
    plan = PhysicalPlan::Project {
        input: Box::new(plan),
        exprs: q.output.clone(),
    };
    if !q.order_by.is_empty() {
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys: q.order_by.clone(),
            limit: q.limit,
        };
    } else if let Some(n) = q.limit {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}
