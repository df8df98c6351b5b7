//! SQL frontend: parser, binder/optimizer, cost-based engine routing,
//! and statement execution against one node (paper §6.1–§6.2).
//!
//! [`QueryEngine`] is the per-node entry point: DML and DDL run on the
//! row engine (auto-commit) and never touch the column store, whose
//! side of a DDL arrives only through the log's DDL record. SELECTs are
//! bound once and routed by the row-plan cost estimate — below the
//! threshold they run on the row-at-a-time executor, above it they are
//! transformed into a column plan and run on the batch engine. A column
//! plan the node cannot serve falls back to the row engine (§6.2) in
//! the same plan step that `EXPLAIN` renders.

pub mod ast;
pub mod parser;
pub mod plan;
pub mod row_exec;

use imci_common::{
    ColumnDef, DataType, Error, FxHashMap, IndexDef, IndexKind, Result, Schema, Value,
};
use imci_core::ColumnStore;
use imci_executor::{ExecContext, PhysicalPlan};
use rowstore::RowEngine;
use std::sync::Arc;

pub use ast::{SelectStmt, Statement};
pub use parser::{is_read_only, parse};
pub use plan::{bind_select, to_column_plan, BoundQuery, Stats};
pub use row_exec::{eval_row, execute_row};

/// Which engine executed a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Row-at-a-time executor over the row store.
    Row,
    /// Vectorized batch executor over the column index.
    Column,
}

/// Row-plan cost above which a SELECT routes to the column engine
/// (paper §6.1 intra-node routing).
pub const COST_THRESHOLD: f64 = 10_000.0;

/// Per-call options for [`QueryEngine::run`] — the one knob surface
/// for engine routing and executor tuning. Every field defaults to
/// `None`, meaning the executor's own default (cost-based routing,
/// all worker-pool threads but one, pruning on); a `Some` travels with
/// the call and is safe under concurrent sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Pin SELECTs to one engine (None = cost-based routing).
    pub engine: Option<EngineChoice>,
    /// Morsel-parallelism cap for the column executor (clamped to ≥ 1).
    pub parallelism: Option<usize>,
    /// Pack min/max pruning (ablation switch).
    pub prune: Option<bool>,
}

impl QueryOptions {
    /// Options that pin the engine, leaving everything else at default.
    pub fn forced(engine: Option<EngineChoice>) -> QueryOptions {
        QueryOptions {
            engine,
            ..QueryOptions::default()
        }
    }
}

/// A query result in row form.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Engine that produced the result (SELECTs; Row for DML).
    pub engine: EngineChoice,
    /// Rows affected (DML).
    pub affected: usize,
}

impl QueryResult {
    fn dml(affected: usize) -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            engine: EngineChoice::Row,
            affected,
        }
    }
}

/// Per-node query engine: row store + optional column store + router.
pub struct QueryEngine {
    /// The node's row engine (RW: logging; RO: replica).
    pub row: Arc<RowEngine>,
    /// The node's column store (RO nodes; `None` on the writer).
    pub store: Option<Arc<ColumnStore>>,
}

/// The engine [`QueryEngine::plan`] chose for a bound SELECT, with the
/// column plan and its execution context when that engine is Column.
enum Route {
    Row,
    Column(PhysicalPlan, ExecContext),
}

impl QueryEngine {
    /// Engine over a row store and, when given, a column store.
    pub fn new(row: Arc<RowEngine>, store: Option<Arc<ColumnStore>>) -> QueryEngine {
        QueryEngine { row, store }
    }

    /// Execute any SQL statement (DML auto-commits). **The** entry
    /// point: SELECT routing, per-call engine pins, executor tuning,
    /// and `EXPLAIN [ANALYZE]` all go through here, parameterized by
    /// [`QueryOptions`].
    pub fn run(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        // Scanner-level point-read fast path: recognize the hot OLTP
        // shape (`SELECT cols FROM t WHERE pk = k`) before even lexing
        // — the full parse costs more than the lookup. Any mismatch or
        // failed name resolution falls through to the real parser.
        if opts.engine != Some(EngineChoice::Column) {
            if let Some(ps) = parser::scan_point_select(sql) {
                if let Some(r) = self.point_lookup(ps.table, ps.filter_col, &ps.cols, ps.pk)? {
                    return Ok(r);
                }
            }
        }
        let stmt = parse(sql)?;
        self.run_stmt(&stmt, opts)
    }

    /// Execute a parsed statement with options.
    fn run_stmt(&self, stmt: &Statement, opts: &QueryOptions) -> Result<QueryResult> {
        match stmt {
            Statement::Select(s) => {
                let (q, route) = self.plan(s, opts)?;
                let (rows, engine) = match route {
                    Route::Column(plan, ctx) => {
                        let out = imci_executor::execute(&plan, &ctx)?;
                        (
                            (0..out.len).map(|r| out.row(r)).collect(),
                            EngineChoice::Column,
                        )
                    }
                    Route::Row => (execute_row(&q, &self.row)?, EngineChoice::Row),
                };
                Ok(QueryResult {
                    columns: q.out_names,
                    rows,
                    engine,
                    affected: 0,
                })
            }
            Statement::Explain { analyze, select } => {
                let (q, route) = self.plan(select, opts)?;
                self.explain(&q, route, *analyze)
            }
            Statement::CreateTable(ct) => {
                let mut columns = Vec::with_capacity(ct.columns.len());
                for (name, ty, not_null) in &ct.columns {
                    let ty = DataType::parse_sql(ty)?;
                    columns.push(if *not_null {
                        ColumnDef::not_null(name.clone(), ty)
                    } else {
                        ColumnDef::new(name.clone(), ty)
                    });
                }
                let col_of = |n: &str| -> Result<usize> {
                    ct.columns
                        .iter()
                        .position(|(c, _, _)| c == n)
                        .ok_or_else(|| Error::Catalog(format!("unknown column {n}")))
                };
                let mut indexes = vec![IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![col_of(&ct.primary_key)?],
                }];
                for (name, cols) in &ct.secondary {
                    indexes.push(IndexDef {
                        kind: IndexKind::Secondary,
                        name: name.clone(),
                        columns: cols.iter().map(|c| col_of(c)).collect::<Result<_>>()?,
                    });
                }
                if !ct.column_index.is_empty() {
                    indexes.push(IndexDef {
                        kind: IndexKind::Column,
                        name: "column_index".into(),
                        columns: ct
                            .column_index
                            .iter()
                            .map(|c| col_of(c))
                            .collect::<Result<_>>()?,
                    });
                }
                self.row.create_table(&ct.name, columns, indexes)?;
                Ok(QueryResult::dml(0))
            }
            Statement::AlterAddColumnIndex { table, columns } => {
                self.alter_add_column_index(table, columns)?;
                Ok(QueryResult::dml(0))
            }
            Statement::DropTable { table } => {
                self.row.drop_table(table)?;
                Ok(QueryResult::dml(0))
            }
            Statement::Insert { table, rows } => {
                let rt = self.row.table(table)?;
                let mut txn = self.row.begin();
                let mut n = 0;
                for lits in rows {
                    // Coerce literals to the declared column types
                    // (date strings, int→double).
                    let mut vals = Vec::with_capacity(lits.len());
                    for (v, c) in lits.iter().zip(&rt.schema.columns) {
                        vals.push(if v.is_null() {
                            Value::Null
                        } else {
                            v.coerce_to(c.ty)?
                        });
                    }
                    if let Err(e) = self.row.insert(&mut txn, table, vals) {
                        self.row.abort(txn)?;
                        return Err(e);
                    }
                    n += 1;
                }
                self.row.commit(txn)?;
                Ok(QueryResult::dml(n))
            }
            Statement::Update {
                table,
                sets,
                filter,
            } => {
                let rt = self.row.table(table)?;
                let pk = pk_from_filter(&rt.schema, filter)?;
                let mut txn = self.row.begin();
                let affected = match self.row.get_row(table, pk)? {
                    Some(mut row) => {
                        for (col, v) in sets {
                            let ci = rt
                                .schema
                                .col_index(col)
                                .ok_or_else(|| Error::Plan(format!("unknown column {col}")))?;
                            row.values[ci] = if v.is_null() {
                                Value::Null
                            } else {
                                v.coerce_to(rt.schema.columns[ci].ty)?
                            };
                        }
                        if let Err(e) = self.row.update(&mut txn, table, pk, row.values) {
                            self.row.abort(txn)?;
                            return Err(e);
                        }
                        self.row.commit(txn)?;
                        1
                    }
                    None => {
                        self.row.commit(txn)?;
                        0
                    }
                };
                Ok(QueryResult::dml(affected))
            }
            Statement::Delete { table, filter } => {
                let rt = self.row.table(table)?;
                let pk = pk_from_filter(&rt.schema, filter)?;
                let mut txn = self.row.begin();
                let affected = if self.row.get_row(table, pk)?.is_some() {
                    if let Err(e) = self.row.delete(&mut txn, table, pk) {
                        self.row.abort(txn)?;
                        return Err(e);
                    }
                    self.row.commit(txn)?;
                    1
                } else {
                    self.row.commit(txn)?;
                    0
                };
                Ok(QueryResult::dml(affected))
            }
        }
    }

    /// The one plan step behind execution and `EXPLAIN`: bind, route
    /// (§6.1), and for the column engine build the plan and its
    /// execution context. A column plan the node cannot serve (no
    /// column store, or a table without a column index) falls back to
    /// the row engine here (§6.2), so what `EXPLAIN` reports is what
    /// `run` executes.
    fn plan(&self, s: &SelectStmt, opts: &QueryOptions) -> Result<(BoundQuery, Route)> {
        let q = self.bind(s)?;
        let route = match self.route(&q, opts) {
            EngineChoice::Row => Route::Row,
            EngineChoice::Column => match self.column_plan_ctx(&q, opts) {
                Ok((plan, ctx)) => Route::Column(plan, ctx),
                Err(Error::ColumnEngineUnsupported(_)) => Route::Row,
                Err(e) => return Err(e),
            },
        };
        Ok((q, route))
    }

    /// Bind a SELECT against the node's catalog.
    fn bind(&self, s: &SelectStmt) -> Result<BoundQuery> {
        let lookup = |name: &str| -> Result<Arc<Schema>> {
            Ok(Arc::new(self.row.table(name)?.schema.clone()))
        };
        bind_select(s, &lookup, self)
    }

    /// §6.1 intra-node routing: the per-call pin, else the row-plan
    /// cost estimate against [`COST_THRESHOLD`].
    fn route(&self, q: &BoundQuery, opts: &QueryOptions) -> EngineChoice {
        match opts.engine {
            Some(c) => c,
            None if q.row_cost > COST_THRESHOLD && self.store.is_some() => EngineChoice::Column,
            None => EngineChoice::Row,
        }
    }

    /// `EXPLAIN [ANALYZE] <select>`: report the route [`Self::plan`]
    /// chose and — for the column engine — the physical operator tree,
    /// one text row per line. ANALYZE also executes the query and
    /// annotates every operator with the rows it produced and the
    /// morsels dispatched for it, plus a wall-clock total.
    fn explain(&self, q: &BoundQuery, route: Route, analyze: bool) -> Result<QueryResult> {
        let (engine, lines) = match route {
            Route::Column(plan, ctx) => {
                let mut lines = vec![format!(
                    "engine=column cost={:.0} parallelism={}",
                    q.row_cost, ctx.parallelism
                )];
                if analyze {
                    let (_, stats) = imci_executor::execute_with_stats(&plan, &ctx)?;
                    for (i, l) in plan.explain().into_iter().enumerate() {
                        lines.push(format!(
                            "{l} rows={} morsels={}",
                            stats.rows.get(i).copied().unwrap_or(0),
                            stats.morsels.get(i).copied().unwrap_or(0)
                        ));
                    }
                    lines.push(format!(
                        "total: morsels={} wall_ms={:.3}",
                        stats.total_morsels(),
                        stats.wall.as_secs_f64() * 1e3
                    ));
                } else {
                    lines.extend(plan.explain());
                }
                (EngineChoice::Column, lines)
            }
            Route::Row => {
                let mut lines = vec![
                    format!("engine=row cost={:.0}", q.row_cost),
                    "RowPipeline (row-at-a-time executor)".to_string(),
                ];
                if analyze {
                    let t0 = std::time::Instant::now();
                    let rows = execute_row(q, &self.row)?;
                    lines.push(format!(
                        "total: rows={} wall_ms={:.3}",
                        rows.len(),
                        t0.elapsed().as_secs_f64() * 1e3
                    ));
                }
                (EngineChoice::Row, lines)
            }
        };
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
            engine,
            affected: 0,
        })
    }

    /// Answer a [`parser::scan_point_select`] match from the row
    /// store's pk index. `Ok(None)` whenever name resolution fails: the
    /// general path owns error reporting, so messages stay the binder's.
    fn point_lookup(
        &self,
        table: &str,
        filter_col: &str,
        cols: &[&str],
        pk: i64,
    ) -> Result<Option<QueryResult>> {
        let Ok(rt) = self.row.table(table) else {
            return Ok(None); // unknown table: let bind report it
        };
        let schema = &rt.schema;
        if schema.col_index(filter_col) != Some(schema.pk_col()) {
            return Ok(None); // not keyed on the pk: needs the planner
        }
        let mut proj = Vec::with_capacity(cols.len());
        let mut columns = Vec::with_capacity(cols.len());
        for name in cols {
            let Some(idx) = schema.col_index(name) else {
                return Ok(None); // unknown column: let bind report it
            };
            proj.push(idx);
            columns.push(name.to_ascii_lowercase());
        }
        let rows = match rt.tree.get(pk)? {
            Some(img) => {
                let row = imci_common::Row::decode(&img)?;
                vec![proj.iter().map(|&i| row.values[i].clone()).collect()]
            }
            None => Vec::new(),
        };
        Ok(Some(QueryResult {
            columns,
            rows,
            engine: EngineChoice::Row,
            affected: 0,
        }))
    }

    /// Build the column plan and execution context for a bound query:
    /// plan transform, snapshot pinning (one consistent snapshot per
    /// table), then tuning — per-call options override the executor's
    /// defaults.
    fn column_plan_ctx(
        &self,
        q: &BoundQuery,
        opts: &QueryOptions,
    ) -> Result<(PhysicalPlan, ExecContext)> {
        let (plan, store) = self.column_transform(q)?;
        let mut snaps = FxHashMap::default();
        for bt in &q.tables {
            let idx = store.index(bt.schema.table_id).map_err(|_| {
                Error::ColumnEngineUnsupported(format!("no column index for {}", bt.schema.name))
            })?;
            snaps.insert(bt.schema.table_id, Arc::new(idx.snapshot()));
        }
        let mut ctx = ExecContext::new(snaps);
        ctx.parallelism = opts.parallelism.map_or(ctx.parallelism, |n| n.max(1));
        ctx.prune_enabled = opts.prune.unwrap_or(ctx.prune_enabled);
        Ok((plan, ctx))
    }

    /// Transform a bound query into a column plan over this node's
    /// column store, without pinning snapshots.
    fn column_transform(&self, q: &BoundQuery) -> Result<(PhysicalPlan, &ColumnStore)> {
        let store = self
            .store
            .as_deref()
            .ok_or_else(|| Error::ColumnEngineUnsupported("node has no column store".into()))?;
        let covered_of = |schema: &Schema| -> Option<Vec<usize>> {
            store.index(schema.table_id).ok().map(|i| i.covered.clone())
        };
        Ok((to_column_plan(q, &covered_of)?, store))
    }

    /// Build the column physical plan without running it (benches).
    pub fn column_plan(&self, s: &SelectStmt) -> Result<PhysicalPlan> {
        let (plan, _) = self.column_transform(&self.bind(s)?)?;
        Ok(plan)
    }

    /// §3.3 online `ALTER TABLE ... ADD COLUMN INDEX`: register the new
    /// index in the schema. The change ships as a DDL record; every
    /// column store (one per RO node) builds the index when its
    /// pipeline applies that record, at its position in the log.
    fn alter_add_column_index(&self, table: &str, columns: &[String]) -> Result<()> {
        let rt = self.row.table(table)?;
        let mut schema = rt.schema.clone();
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                schema
                    .col_index(c)
                    .ok_or_else(|| Error::Catalog(format!("unknown column {c}")))
            })
            .collect::<Result<_>>()?;
        schema.indexes.retain(|i| i.kind != IndexKind::Column);
        schema.indexes.push(IndexDef {
            kind: IndexKind::Column,
            name: "column_index".into(),
            columns: cols,
        });
        self.row.replace_table_schema(table, schema)
    }
}

impl Stats for QueryEngine {
    fn table_rows(&self, schema: &Schema) -> u64 {
        if let Some(store) = &self.store {
            if let Ok(idx) = store.index(schema.table_id) {
                let n = idx.approx_live_rows();
                if n > 0 {
                    return n;
                }
            }
        }
        self.row
            .table(&schema.name)
            .map(|rt| rt.approx_rows())
            .unwrap_or(0)
    }

    fn probe_fanout(&self, schema: &Schema, col: usize) -> f64 {
        self.row
            .table(&schema.name)
            .ok()
            .and_then(|rt| rt.secondary_on(col).map(|ix| ix.fanout()))
            .unwrap_or(1.0)
    }
}

fn pk_from_filter(schema: &Schema, filter: &[ast::AstExpr]) -> Result<i64> {
    for c in filter {
        if let ast::AstExpr::Binary { op, l, r } = c {
            if op == "=" {
                if let (ast::AstExpr::Col(cr), ast::AstExpr::Lit(v)) = (&**l, &**r) {
                    if schema.col_index(&cr.column) == Some(schema.pk_col()) {
                        return v.as_int().ok_or_else(|| {
                            Error::Plan("primary key literal must be an integer".into())
                        });
                    }
                }
            }
        }
    }
    Err(Error::Unsupported(
        "UPDATE/DELETE must pin the primary key with `pk = <int>`".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_wal::{LogWriter, PropagationMode};
    use polarfs_sim::PolarFs;

    /// Tests drive the one public entry point with default options.
    fn run(qe: &QueryEngine, sql: &str) -> Result<QueryResult> {
        qe.run(sql, &QueryOptions::default())
    }

    fn node() -> QueryEngine {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let row = RowEngine::new_rw(fs, log, 1 << 20);
        let qe = QueryEngine::new(row, Some(Arc::new(ColumnStore::new(256))));
        run(
            &qe,
            "CREATE TABLE items (
                id INT NOT NULL, grp INT, qty INT, price DOUBLE, name VARCHAR(32),
                PRIMARY KEY(id), KEY grp_idx(grp),
                KEY COLUMN_INDEX(id, grp, qty, price, name))",
        )
        .unwrap();
        // mirror DML into the column store for dual-engine tests
        qe
    }

    fn seed(qe: &QueryEngine, n: i64) {
        for i in 0..n {
            run(
                qe,
                &format!(
                    "INSERT INTO items VALUES ({i}, {}, {}, {}, 'name{}')",
                    i % 5,
                    i % 10,
                    i as f64 * 1.5,
                    i % 7
                ),
            )
            .unwrap();
        }
        mirror(qe, "items");
    }

    /// Copy a table into the column index (on a single test node we
    /// play both RW and RO roles).
    fn mirror(qe: &QueryEngine, table: &str) {
        let store = qe.store.as_ref().unwrap();
        let rt = qe.row.table(table).unwrap();
        let idx = store.create_index(&rt.schema);
        let mut rows = Vec::new();
        qe.row
            .scan(table, i64::MIN, i64::MAX, |_, r| rows.push(r.values))
            .unwrap();
        for r in rows {
            idx.insert(imci_common::Vid(1), &idx.project_row(&r))
                .unwrap();
        }
        idx.advance_visible(imci_common::Vid(1));
    }

    #[test]
    fn dml_roundtrip() {
        let qe = node();
        assert_eq!(
            run(&qe, "INSERT INTO items VALUES (1, 1, 1, 9.5, 'x')")
                .unwrap()
                .affected,
            1
        );
        run(&qe, "UPDATE items SET qty = 42 WHERE id = 1").unwrap();
        let row = qe.row.get_row("items", 1).unwrap().unwrap();
        assert_eq!(row.values[2], Value::Int(42));
        assert_eq!(
            run(&qe, "DELETE FROM items WHERE id = 1").unwrap().affected,
            1
        );
        assert!(qe.row.get_row("items", 1).unwrap().is_none());
        assert_eq!(
            run(&qe, "DELETE FROM items WHERE id = 1").unwrap().affected,
            0
        );
    }

    #[test]
    fn point_select_fast_path_matches_general_path() {
        let qe = node();
        seed(&qe, 50);
        // Shapes the fast path serves; the column engine (which never
        // takes it) is the reference for result equivalence.
        let shapes = [
            "SELECT name FROM items WHERE id = 7",
            "SELECT qty, name FROM items WHERE 8 = id",
            "SELECT i.name AS n, i.id FROM items i WHERE i.id = 9",
            "SELECT price FROM items WHERE id = 3 LIMIT 5",
            "SELECT id FROM items WHERE id = 99999", // miss -> 0 rows
        ];
        for sql in shapes {
            let fast = run(&qe, sql).unwrap();
            assert_eq!(fast.engine, EngineChoice::Row, "{sql}");
            let general = qe
                .run(sql, &QueryOptions::forced(Some(EngineChoice::Column)))
                .unwrap();
            assert_eq!(fast.rows, general.rows, "{sql}");
            assert_eq!(fast.columns, general.columns, "{sql}");
        }
        // Aliased output names survive the fast path.
        let res = run(&qe, "SELECT name AS label FROM items WHERE id = 1").unwrap();
        assert_eq!(res.columns, vec!["label".to_string()]);
        // Shapes that must fall back still work and stay correct.
        let res = run(&qe, "SELECT COUNT(*) FROM items WHERE id = 7").unwrap();
        assert_eq!(res.rows[0][0], Value::Int(1));
        let res = run(&qe, "SELECT id FROM items WHERE grp = 2").unwrap();
        assert_eq!(res.rows.len(), 10);
        // Error reporting is untouched: unknown column/table messages
        // still come from the binder.
        assert!(matches!(
            run(&qe, "SELECT nope FROM items WHERE id = 1"),
            Err(Error::Plan(_))
        ));
        assert!(matches!(
            run(&qe, "SELECT x FROM missing WHERE id = 1"),
            Err(Error::Catalog(_))
        ));
    }

    #[test]
    fn both_engines_agree_on_aggregation() {
        let qe = node();
        seed(&qe, 200);
        let sql = "SELECT grp, COUNT(*), SUM(qty), AVG(price)
                   FROM items WHERE id < 100 GROUP BY grp ORDER BY grp";
        let row_res = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Row)))
            .unwrap();
        assert_eq!(row_res.engine, EngineChoice::Row);
        let col_res = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Column)))
            .unwrap();
        assert_eq!(col_res.engine, EngineChoice::Column);
        assert_eq!(row_res.rows.len(), 5);
        assert_eq!(row_res.rows, col_res.rows, "engines must agree");
    }

    #[test]
    fn integer_sum_out_of_range_fails_on_both_engines() {
        let qe = node();
        for i in 0..2 {
            run(
                &qe,
                &format!(
                    "INSERT INTO items VALUES ({i}, 0, {}, 0.5, 'x')",
                    1i64 << 62
                ),
            )
            .unwrap();
        }
        mirror(&qe, "items");
        for engine in [EngineChoice::Row, EngineChoice::Column] {
            let res = qe.run(
                "SELECT SUM(qty) FROM items",
                &QueryOptions::forced(Some(engine)),
            );
            assert!(
                matches!(&res, Err(Error::Execution(m)) if m.contains("BIGINT")),
                "{engine:?}: {res:?}"
            );
        }
    }

    #[test]
    fn both_engines_agree_on_join() {
        let qe = node();
        seed(&qe, 60);
        // Self-join via qty → id.
        let sql = "SELECT a.id, b.name FROM items a JOIN items b ON a.qty = b.id
                   WHERE a.id < 20 ORDER BY 1, 2 LIMIT 50";
        let r1 = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Row)))
            .unwrap();
        let r2 = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Column)))
            .unwrap();
        assert!(!r1.rows.is_empty());
        assert_eq!(r1.rows, r2.rows);
    }

    #[test]
    fn cost_routing_prefers_row_for_point_queries() {
        let qe = node();
        seed(&qe, 100);
        let res = run(&qe, "SELECT name FROM items WHERE id = 5").unwrap();
        assert_eq!(
            res.engine,
            EngineChoice::Row,
            "PK lookup routes to row engine"
        );
        assert_eq!(res.rows.len(), 1);
    }

    #[test]
    fn cost_routing_prefers_column_for_scans() {
        let qe = node();
        seed(&qe, 200);
        // An unindexed self-join is a nested-loop rescan on the row
        // engine: 200 + 200 × 200 row visits, well past the threshold.
        let sql = "SELECT COUNT(*) FROM items a JOIN items b ON a.qty = b.qty";
        let (engine, cost) = explain_cost(&qe, sql);
        assert!(cost > COST_THRESHOLD, "{engine:?} cost={cost}");
        let res = run(&qe, sql).unwrap();
        assert_eq!(res.engine, EngineChoice::Column);
        // 10 qty values × 20 rows each, joined with themselves.
        assert_eq!(res.rows, vec![vec![Value::Int(10 * 20 * 20)]]);
    }

    /// The route and `cost=` of a statement's EXPLAIN head line.
    fn explain_cost(qe: &QueryEngine, sql: &str) -> (EngineChoice, f64) {
        explain_cost_opts(qe, sql, &QueryOptions::default())
    }

    /// [`explain_cost`] under `opts`; the head line's `engine=` must
    /// agree with the result's engine.
    fn explain_cost_opts(qe: &QueryEngine, sql: &str, opts: &QueryOptions) -> (EngineChoice, f64) {
        let explain = qe.run(&format!("EXPLAIN {sql}"), opts).unwrap();
        let Value::Str(head) = &explain.rows[0][0] else {
            panic!("{:?}", explain.rows[0]);
        };
        let named = match explain.engine {
            EngineChoice::Row => "engine=row ",
            EngineChoice::Column => "engine=column ",
        };
        assert!(head.starts_with(named), "{head}");
        let cost = head.split(' ').find_map(|w| w.strip_prefix("cost="));
        (explain.engine, cost.unwrap().parse().unwrap())
    }

    #[test]
    fn secondary_index_join_is_costed_by_its_fanout() {
        let qe = node();
        seed(&qe, 1000); // grp = id % 5: 200 entries per grp_idx key
        run(
            &qe,
            "CREATE TABLE dims (id INT NOT NULL, g INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, g))",
        )
        .unwrap();
        let values: Vec<String> = (0..100).map(|i| format!("({i}, {})", i % 5)).collect();
        run(
            &qe,
            &format!("INSERT INTO dims VALUES {}", values.join(", ")),
        )
        .unwrap();
        mirror(&qe, "dims");

        // Shaped like CH-Q5: scan the small table, probe the large one's
        // secondary index. 100 scanned rows + 100 probes × 200 matches.
        let sql = "SELECT d.g, SUM(i.qty) FROM dims d, items i
                   WHERE i.grp = d.g GROUP BY d.g ORDER BY d.g";
        assert_eq!(explain_cost(&qe, sql), (EngineChoice::Column, 20_100.0));
        let res = run(&qe, sql).unwrap();
        assert_eq!(res.engine, EngineChoice::Column);
        let row = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Row)))
            .unwrap();
        assert_eq!(res.rows, row.rows);

        // A PK probe still costs one row per outer row.
        let sql = "SELECT COUNT(*) FROM dims d, items i WHERE i.id = d.id";
        assert_eq!(explain_cost(&qe, sql), (EngineChoice::Row, 200.0));
        assert_eq!(run(&qe, sql).unwrap().rows, vec![vec![Value::Int(100)]]);
    }

    #[test]
    fn fallback_when_column_index_missing() {
        let qe = node();
        run(
            &qe,
            "CREATE TABLE bare (id INT NOT NULL, v INT, PRIMARY KEY(id))",
        )
        .unwrap();
        run(&qe, "INSERT INTO bare VALUES (1, 10), (2, 20)").unwrap();
        let res = qe
            .run(
                "SELECT v FROM bare ORDER BY v",
                &QueryOptions::forced(Some(EngineChoice::Column)),
            )
            .unwrap();
        assert_eq!(res.engine, EngineChoice::Row, "run-time fallback (§6.2)");
        assert_eq!(res.rows.len(), 2);
        // EXPLAIN takes the same fallback.
        let (engine, _) = explain_cost_opts(
            &qe,
            "SELECT v FROM bare ORDER BY v",
            &QueryOptions::forced(Some(EngineChoice::Column)),
        );
        assert_eq!(engine, EngineChoice::Row);
    }

    #[test]
    fn update_requires_pk() {
        let qe = node();
        seed(&qe, 5);
        assert!(run(&qe, "UPDATE items SET qty = 1 WHERE grp = 0").is_err());
    }

    #[test]
    fn explain_reports_plan_and_analyze_counts() {
        let qe = node();
        seed(&qe, 100);
        let opts = QueryOptions::forced(Some(EngineChoice::Column));
        let res = qe
            .run(
                "EXPLAIN SELECT grp, SUM(qty) FROM items GROUP BY grp",
                &opts,
            )
            .unwrap();
        assert_eq!(res.columns, vec!["plan".to_string()]);
        assert_eq!(res.engine, EngineChoice::Column);
        let text: Vec<String> = res
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                o => panic!("{o:?}"),
            })
            .collect();
        assert!(text[0].starts_with("engine=column"), "{text:?}");
        assert!(text.iter().any(|l| l.contains("HashAgg")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("ColumnScan")), "{text:?}");
        // ANALYZE executes and attaches rows/morsels per operator.
        let res = qe
            .run(
                "EXPLAIN ANALYZE SELECT grp, SUM(qty) FROM items GROUP BY grp",
                &opts,
            )
            .unwrap();
        let text: Vec<String> = res
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                o => panic!("{o:?}"),
            })
            .collect();
        let scan_line = text
            .iter()
            .find(|l| l.contains("ColumnScan"))
            .expect("scan line");
        assert!(scan_line.contains("rows=100"), "{scan_line}");
        assert!(scan_line.contains("morsels="), "{scan_line}");
        assert!(
            text.last().unwrap().contains("wall_ms="),
            "{:?}",
            text.last()
        );
        // Row-engine EXPLAIN (and the column fallback) still answers.
        let res = run(&qe, "EXPLAIN ANALYZE SELECT name FROM items WHERE id = 3").unwrap();
        assert_eq!(res.engine, EngineChoice::Row);
        assert!(!res.rows.is_empty());
    }

    #[test]
    fn every_option_combination_returns_the_same_rows() {
        let qe = node();
        seed(&qe, 200);
        let sql = "SELECT grp, COUNT(*), SUM(qty), MIN(name) FROM items
                   WHERE qty > 2 GROUP BY grp ORDER BY grp";
        let reference = qe
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Row)))
            .unwrap();
        assert_eq!(reference.rows.len(), 5);
        for engine in [EngineChoice::Row, EngineChoice::Column] {
            for parallelism in [Some(1), None] {
                for prune in [Some(true), Some(false)] {
                    let opts = QueryOptions {
                        engine: Some(engine),
                        parallelism,
                        prune,
                    };
                    let res = qe.run(sql, &opts).unwrap();
                    assert_eq!(res.engine, engine, "{opts:?}");
                    assert_eq!(res.rows, reference.rows, "{opts:?}");
                    // EXPLAIN reports the engine `run` used.
                    let (explained, _) = explain_cost_opts(&qe, sql, &opts);
                    assert_eq!(explained, res.engine, "{opts:?}");
                }
            }
        }
    }
}
