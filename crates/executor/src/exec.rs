//! Batch-mode execution of physical plans (paper §6.3), morsel-driven
//! (§6.2; Leis et al., SIGMOD 2014).
//!
//! A plan runs as *pipelines*, cut at its breakers: a join's build side,
//! `HashAgg`, `Sort`, and `Limit` (first-n needs every morsel's rows in
//! order). A pipeline is one source, a list of per-batch steps and one
//! sink:
//!
//! * source — a `ColumnScan`'s pinned row groups, one morsel each, or a
//!   breaker's finished output, one morsel;
//! * steps — `Filter`, `Project`, and the probe of a finished join
//!   table, one per join of a left-deep chain;
//! * sink — collect (the root, or a join's build side), a partial
//!   aggregate, a per-morsel top-K, or a per-morsel limit.
//!
//! Each morsel runs source → steps → sink on one worker of the shared
//! [`crate::morsel::WorkerPool`], and only the sink's partial outlives
//! it. Partials combine in morsel order on the orchestrator (the
//! `execute` caller), at every `ExecContext::parallelism`, so the output
//! is a function of the data and the morsel order alone — the
//! `parallel_equiv` proptest oracle holds serial and parallel runs to
//! the same bits. Every breaker below a pipeline, build sides included,
//! runs to completion from the orchestrator before the pipeline is
//! dispatched, so a pool job never dispatches morsels itself.
//!
//! Scans pin each row group's visibility [`SelVec`] at dispatch time,
//! after pack min/max pruning, and run the compressed-domain kernels and
//! late materialization inside the morsel. A probe gathers only the
//! join-output columns the later steps of its pipeline read; the
//! pipeline builder remaps those steps onto the narrow batch.
//!
//! Hash aggregation groups on typed keys: a single `Int` key column maps
//! rows to dense group ids without building a `Value` per row, and
//! COUNT, SUM and AVG over `Int`/`Double` columns update from the typed
//! slices (the `Vec<Value>` key and [`Acc::update`] remain the fallback
//! for Str or several keys, MIN/MAX and DISTINCT).

use crate::batch::Batch;
use crate::expr::Expr;
use crate::kernels::{self, ColView};
use crate::morsel;
use crate::plan::{AggCall, AggFunc, PhysicalPlan, PruneRange};
use imci_common::{Error, FxBuildHasher, FxHashMap, Result, TableId, Value};
use imci_core::{ColumnData, ColumnRead, PinnedGroup, SelVec, Snapshot};
use std::borrow::Cow;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution context: pinned snapshots + tuning.
pub struct ExecContext {
    /// One snapshot per table touched by the query (consistent view).
    pub snapshots: FxHashMap<TableId, Arc<Snapshot>>,
    /// Per-query cap on morsels in flight. The worker pool itself is
    /// process-global and machine-sized; this knob bounds how much of
    /// it one query may occupy. The default leaves one core to the
    /// write path (REDO apply, commits). `1` runs every morsel inline
    /// on the caller; results are the same at every value.
    pub parallelism: usize,
    /// Min/max pack pruning (ablation switch).
    pub prune_enabled: bool,
    /// Late materialization (ablation switch): evaluate scan filters on
    /// the compressed packs and gather payload columns only for
    /// surviving rows. Off = decode-then-filter baseline.
    pub late_materialization: bool,
}

impl ExecContext {
    /// Context over the given snapshots with default tuning: all but
    /// one of the worker pool's threads (at least one), pruning and late
    /// materialization on. Analytic work that takes every core delays
    /// the transactions sharing the machine (Polynesia, PAPERS.md), and
    /// a one-process cluster has no separate read-only machine.
    pub fn new(snapshots: FxHashMap<TableId, Arc<Snapshot>>) -> ExecContext {
        ExecContext {
            snapshots,
            parallelism: morsel::WorkerPool::global()
                .threads()
                .saturating_sub(1)
                .max(1),
            prune_enabled: true,
            late_materialization: true,
        }
    }

    fn snapshot(&self, table: TableId) -> Result<&Arc<Snapshot>> {
        self.snapshots
            .get(&table)
            .ok_or_else(|| Error::Execution(format!("no snapshot for table {table}")))
    }
}

/// Per-operator runtime counters reported by `EXPLAIN ANALYZE`.
/// Operator ids are pre-order positions in the plan tree — the same
/// order [`PhysicalPlan::explain`] emits lines, so `rows[i]` belongs to
/// the operator on line `i`.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Rows each operator produced.
    pub rows: Vec<u64>,
    /// Morsels per operator: the morsels of the pipeline the operator
    /// runs in — a scan's pinned row groups, or one for a breaker's
    /// output — and, for a breaker, of the pipeline it ends.
    pub morsels: Vec<u64>,
    /// Wall-clock of the whole execution.
    pub wall: Duration,
}

impl ExecStats {
    /// Total morsels across all operators.
    pub fn total_morsels(&self) -> u64 {
        self.morsels.iter().sum()
    }
}

/// Counters shared by every morsel of one execution. Atomics, because
/// pool workers bump them from the morsels they run.
struct StatsCell {
    rows: Vec<AtomicU64>,
    morsels: Vec<AtomicU64>,
}

/// The execution's counters, or none when nobody reads them.
#[derive(Clone)]
struct Stats(Option<Arc<StatsCell>>);

fn bump(counters: &[AtomicU64], op: usize, n: usize) {
    if let Some(c) = counters.get(op) {
        c.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl Stats {
    fn rows(&self, op: usize, n: usize) {
        if let Some(s) = &self.0 {
            bump(&s.rows, op, n);
        }
    }

    fn morsels(&self, op: usize, n: usize) {
        if let Some(s) = &self.0 {
            bump(&s.morsels, op, n);
        }
    }
}

/// Execute a plan to a fully-materialized result batch.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Batch> {
    run_plan(plan, ctx, 0, &Stats(None))
}

/// Execute to a materialized batch, collecting the per-operator
/// counters `EXPLAIN ANALYZE` reports.
pub fn execute_with_stats(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<(Batch, ExecStats)> {
    let t0 = Instant::now();
    let counters = || (0..plan.op_count()).map(|_| AtomicU64::new(0)).collect();
    let cell = Arc::new(StatsCell {
        rows: counters(),
        morsels: counters(),
    });
    let out = run_plan(plan, ctx, 0, &Stats(Some(cell.clone())))?;
    // Every morsel has finished; a worker may still hold its clone of
    // the cell for a moment, so read the counters rather than unwrap.
    let read = |c: &[AtomicU64]| c.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let stats = ExecStats {
        rows: read(&cell.rows),
        morsels: read(&cell.morsels),
        wall: t0.elapsed(),
    };
    Ok((out, stats))
}

/// Run `plan` (pre-order id `op`) to one batch, on the orchestrator: a
/// breaker is the sink of the pipeline below it and combines that
/// pipeline's partials in morsel order; any other operator ends a
/// collecting pipeline. Children of a node at `op` start at `op + 1`; a
/// join's build side starts after its whole probe subtree.
fn run_plan(plan: &PhysicalPlan, ctx: &ExecContext, op: usize, stats: &Stats) -> Result<Batch> {
    let out = match plan {
        PhysicalPlan::HashAgg {
            input,
            group_by,
            aggs,
        } => {
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            let need = plus_refs(Vec::new(), group_by.iter().chain(args));
            let (pipe, layout) = Pipeline::compile(input, ctx, op + 1, Some(need), stats)?;
            let keys: Vec<Expr> = group_by.iter().map(|e| remap(&layout, e)).collect();
            let calls: Vec<AggCall> = aggs
                .iter()
                .map(|a| AggCall {
                    arg: a.arg.as_ref().map(|e| remap(&layout, e)),
                    ..a.clone()
                })
                .collect();
            let partials = pipe.run(ctx, Some(op), move |b| {
                let mut state = AggState::new(keys.len());
                state.fold(&b, &keys, &calls)?;
                Ok(state)
            })?;
            let mut state = AggState::new(group_by.len());
            for p in partials {
                state.merge(p, aggs);
            }
            state.into_batch(group_by, aggs)?
        }
        PhysicalPlan::Sort { input, keys, limit } => {
            // Top-K: each morsel keeps its own k best rows, in row order.
            // The global top-k under the (keys, position) order is in
            // the union of these, and since the survivors keep their
            // order the union is order-isomorphic to the whole input —
            // so the final sort picks exactly the rows, in exactly the
            // order, a sort of the whole input would.
            let (pipe, _) = Pipeline::compile(input, ctx, op + 1, None, stats)?;
            let (k_keys, limit) = (keys.clone(), *limit);
            let kept = pipe.run(ctx, Some(op), move |b| match limit {
                Some(k) if b.len > k => b.gather(&sort_rows(&b, &k_keys, limit, true)),
                _ => Ok(b.into_owned()),
            })?;
            let all = Batch::concat(&kept)?;
            all.gather(&sort_rows(&all, keys, limit, false))?
        }
        PhysicalPlan::Limit { input, n } => {
            let (pipe, _) = Pipeline::compile(input, ctx, op + 1, None, stats)?;
            let n = *n;
            let first = pipe.run(ctx, Some(op), move |b| {
                let mut b = b.into_owned();
                b.truncate(n);
                Ok(b)
            })?;
            let mut out = Batch::concat(&first)?;
            out.truncate(n);
            out
        }
        _ => {
            // Not a breaker: the operator is its pipeline's last step
            // and counts its own rows.
            let (pipe, _) = Pipeline::compile(plan, ctx, op, None, stats)?;
            return Batch::concat(&pipe.run(ctx, None, |b| Ok(b.into_owned()))?);
        }
    };
    stats.rows(op, out.len);
    Ok(out)
}

/// Where a pipeline's logical columns sit in its batches: `None` when
/// every column is there, in order; else the columns present,
/// ascending, each at its index in the list.
type Layout = Option<Vec<usize>>;

/// Physical position of logical column `c` under `layout`.
fn pos(layout: &Layout, c: usize) -> usize {
    match layout {
        None => c,
        Some(cols) => cols.binary_search(&c).unwrap_or(0),
    }
}

/// `e` with its column references moved to their positions under
/// `layout`.
fn remap(layout: &Layout, e: &Expr) -> Expr {
    match layout {
        None => e.clone(),
        Some(_) => e.remap(&|c| pos(layout, c)),
    }
}

/// `cols` plus every column `exprs` reference, ascending, once each.
fn plus_refs<'a>(mut cols: Vec<usize>, exprs: impl IntoIterator<Item = &'a Expr>) -> Vec<usize> {
    for e in exprs {
        e.referenced_cols(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Columns `plan` outputs.
fn width(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::ColumnScan { cols, .. } => cols.len(),
        PhysicalPlan::Project { exprs, .. } => exprs.len(),
        PhysicalPlan::HashAgg { group_by, aggs, .. } => group_by.len() + aggs.len(),
        PhysicalPlan::HashJoin { left, right, .. } => width(left) + width(right),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => width(input),
    }
}

fn panicked() -> Error {
    Error::Execution("morsel worker panicked".into())
}

/// Where a pipeline's morsels come from.
enum Source {
    /// A scan's pinned row groups, one morsel each.
    Scan {
        op: usize,
        groups: Vec<PinnedGroup>,
        cols: Vec<usize>,
        filter: Option<Expr>,
    },
    /// A breaker's finished output: one morsel, none when empty.
    Batch(Batch),
}

/// One per-batch operator of a pipeline, its expressions already
/// remapped onto the pipeline's layout.
enum Step {
    Filter(Expr),
    Project(Vec<Expr>),
    /// Probe a finished join table on `keys` and gather the join-output
    /// columns `cols` (the probe batch's columns first, then the build
    /// side's, as [`gather_joined`] numbers them).
    Probe {
        keys: Vec<usize>,
        table: Arc<JoinTable>,
        cols: Vec<usize>,
    },
}

impl Step {
    /// The step's output for `b`; `None` once no row is left.
    fn apply(&self, b: Cow<Batch>, late_materialization: bool) -> Result<Option<Batch>> {
        let out = match self {
            Step::Filter(pred) => {
                // Selection-vector path: typed kernels (dictionary-aware
                // for strings) straight to one gather per column.
                let views = kernels::batch_views(&b);
                if late_materialization && kernels::compressible(pred, &views) {
                    b.take(&kernels::eval_sel(pred, &views, SelVec::identity(b.len))?)
                } else {
                    b.filter(&pred.eval_mask(&b)?)?
                }
            }
            Step::Project(exprs) => project(exprs, b)?,
            Step::Probe { keys, table, cols } => {
                let (lidx, ridx) = probe_pairs(&b, keys, table);
                // Stop before the gather: an empty build side may have no
                // columns at all.
                if lidx.is_empty() {
                    return Ok(None);
                }
                gather_joined(&b, &table.build, &lidx, &ridx, cols)
            }
        };
        Ok((out.len > 0).then_some(out))
    }
}

/// `exprs` over `b`. A plain column moves out of `b` at its last
/// reference instead of being copied.
fn project(exprs: &[Expr], b: Cow<Batch>) -> Result<Batch> {
    let mut cols = exprs
        .iter()
        .map(|e| match e {
            Expr::Col(_) => Ok(None),
            e => e.eval(&b).map(|c| Some(c.into_owned())),
        })
        .collect::<Result<Vec<_>>>()?;
    let len = b.len;
    let mut src: Vec<_> = b.into_owned().cols.into_iter().map(Some).collect();
    for (j, e) in exprs.iter().enumerate() {
        if let Expr::Col(i) = e {
            let (again, c) = (exprs[j + 1..].contains(e), &mut src[*i]);
            cols[j] = if again { c.clone() } else { c.take() };
        }
    }
    let cols = cols.into_iter().flatten().collect();
    Ok(Batch { cols, len })
}

/// One pipeline, ready to dispatch: its source, its steps bottom-up
/// with their operator ids, and the counters its morsels bump.
struct Pipeline {
    source: Source,
    steps: Vec<(usize, Step)>,
    late_materialization: bool,
    stats: Stats,
}

impl Pipeline {
    /// The pipeline that ends at `plan` (pre-order id `op`), of which
    /// the sink reads the output columns `need` (`None`: all). Every
    /// breaker below it runs first, on this thread. Returns the
    /// pipeline and its output layout.
    fn compile(
        plan: &PhysicalPlan,
        ctx: &ExecContext,
        op: usize,
        need: Option<Vec<usize>>,
        stats: &Stats,
    ) -> Result<(Pipeline, Layout)> {
        let mut steps = Vec::new();
        let (source, layout) = lower(plan, ctx, op, need, stats, &mut steps)?;
        let pipe = Pipeline {
            source,
            steps,
            late_materialization: ctx.late_materialization,
            stats: stats.clone(),
        };
        Ok((pipe, layout))
    }

    /// Run every morsel through the source, the steps and `sink` (the
    /// breaker `sink_op`, if any), on the pool, and return the sink's
    /// results in morsel order. A morsel with no rows left before the
    /// sink yields none.
    fn run<T: Send + 'static>(
        self,
        ctx: &ExecContext,
        sink_op: Option<usize>,
        sink: impl Fn(Cow<Batch>) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        let (n, scan_op) = match &self.source {
            Source::Scan { op, groups, .. } => (groups.len(), Some(*op)),
            Source::Batch(b) => (usize::from(b.len > 0), None),
        };
        let ops = scan_op.iter().chain(self.steps.iter().map(|(op, _)| op));
        for &op in ops.chain(sink_op.iter()) {
            self.stats.morsels(op, n);
        }
        let pipe = Arc::new(self);
        let mut out = Vec::with_capacity(n);
        for r in morsel::run_morsels(ctx.parallelism, n, move |i| {
            pipe.morsel(i)?.map(&sink).transpose()
        }) {
            if let Some(t) = r.ok_or_else(panicked)?? {
                out.push(t);
            }
        }
        Ok(out)
    }

    /// Morsel `i` through the source and every step; `None` once no
    /// row is left.
    fn morsel(&self, i: usize) -> Result<Option<Cow<'_, Batch>>> {
        let mut b = match &self.source {
            Source::Scan {
                op,
                groups,
                cols,
                filter,
            } => match scan_group(&groups[i], cols, filter.as_ref(), self.late_materialization)? {
                Some(b) if b.len > 0 => {
                    self.stats.rows(*op, b.len);
                    Cow::Owned(b)
                }
                _ => return Ok(None),
            },
            Source::Batch(b) => Cow::Borrowed(b),
        };
        for (op, step) in &self.steps {
            match step.apply(b, self.late_materialization)? {
                Some(out) => {
                    self.stats.rows(*op, out.len);
                    b = Cow::Owned(out);
                }
                None => return Ok(None),
            }
        }
        Ok(Some(b))
    }
}

/// Lower `plan` (pre-order id `op`) into `steps`, bottom-up, when later
/// steps read its output columns `need` (`None`: all); returns the
/// pipeline's source and `plan`'s output layout. A join's build side
/// and any breaker run to completion here, on the orchestrator.
fn lower(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    op: usize,
    need: Option<Vec<usize>>,
    stats: &Stats,
    steps: &mut Vec<(usize, Step)>,
) -> Result<(Source, Layout)> {
    Ok(match plan {
        PhysicalPlan::ColumnScan {
            table,
            cols,
            prune,
            filter,
        } => {
            let source = Source::Scan {
                op,
                groups: pin_groups(ctx, *table, prune)?,
                cols: cols.clone(),
                filter: filter.clone(),
            };
            (source, None)
        }
        PhysicalPlan::Filter { input, pred } => {
            let need = need.map(|n| plus_refs(n, [pred]));
            let (source, layout) = lower(input, ctx, op + 1, need, stats, steps)?;
            steps.push((op, Step::Filter(remap(&layout, pred))));
            (source, layout)
        }
        PhysicalPlan::Project { input, exprs } => {
            // Only the expressions read later are evaluated.
            let keep: Vec<&Expr> = match &need {
                None => exprs.iter().collect(),
                Some(n) => n.iter().filter_map(|&i| exprs.get(i)).collect(),
            };
            let in_need = plus_refs(Vec::new(), keep.iter().copied());
            let (source, layout) = lower(input, ctx, op + 1, Some(in_need), stats, steps)?;
            let exprs = keep.into_iter().map(|e| remap(&layout, e)).collect();
            steps.push((op, Step::Project(exprs)));
            (source, need)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let build = run_plan(right, ctx, op + 1 + left.op_count(), stats)?;
            // Each partition builder scans the key column once, so very
            // wide fan-out buys nothing.
            let table = Arc::new(build_join_table(
                build,
                right_keys,
                ctx.parallelism.clamp(1, 8),
            )?);
            let lw = width(left);
            let left_need = need.as_ref().map(|n| {
                let probe_cols = n.iter().copied().filter(|&c| c < lw);
                plus_refs(probe_cols.chain(left_keys.iter().copied()).collect(), [])
            });
            let (source, layout) = lower(left, ctx, op + 1, left_need, stats, steps)?;
            let probe_width = layout.as_ref().map_or(lw, Vec::len);
            let cols = match &need {
                None => (0..probe_width + width(right)).collect(),
                Some(n) => n
                    .iter()
                    .map(|&c| match c.checked_sub(lw) {
                        None => pos(&layout, c),
                        Some(bc) => probe_width + bc,
                    })
                    .collect(),
            };
            let keys = left_keys.iter().map(|&k| pos(&layout, k)).collect();
            steps.push((op, Step::Probe { keys, table, cols }));
            (source, need)
        }
        PhysicalPlan::HashAgg { .. } | PhysicalPlan::Sort { .. } | PhysicalPlan::Limit { .. } => {
            (Source::Batch(run_plan(plan, ctx, op, stats)?), None)
        }
    })
}

/// A scan's morsels, on the orchestrator: pack pruning first (metadata
/// only — skip the whole group if any constrained column's min/max range
/// proves no row can match; sealed groups only, the partial group has no
/// sealed metadata), then the snapshot pins each survivor's visibility
/// SelVec. Workers receive finished morsels and never touch MVCC state.
fn pin_groups(ctx: &ExecContext, table: TableId, prune: &[PruneRange]) -> Result<Vec<PinnedGroup>> {
    let snap = ctx.snapshot(table)?;
    let mut pinned = Vec::new();
    'groups: for group in snap.groups() {
        if ctx.prune_enabled && group.is_sealed() {
            for pr in prune {
                if let Some(pack) = group.column_pack(pr.col) {
                    if !pack.meta.may_contain_range(pr.lo.as_ref(), pr.hi.as_ref()) {
                        continue 'groups;
                    }
                }
            }
        }
        if let Some(p) = snap.pin_group(&group) {
            pinned.push(p);
        }
    }
    Ok(pinned)
}

fn scan_group(
    p: &PinnedGroup,
    cols: &[usize],
    filter: Option<&Expr>,
    late_materialization: bool,
) -> Result<Option<Batch>> {
    let group = &p.group;
    let reads: Vec<ColumnRead> = cols.iter().map(|&c| group.read_column(c)).collect();
    if !late_materialization {
        return scan_group_early_mat(&reads, &p.visible, filter);
    }
    // Late materialization: refine the pinned visibility selection with
    // the predicate kernels over the *compressed* packs, then gather
    // every requested column exactly once, at the surviving offsets.
    let sel = match filter {
        None => p.visible.clone(),
        Some(f) => {
            let views: Vec<ColView> = reads.iter().map(ColView::of).collect();
            if kernels::compressible(f, &views) {
                kernels::eval_sel(f, &views, p.visible.clone())?
            } else {
                // Fallback for non-kernel shapes (arithmetic, col/col
                // compares): materialize only the filter's columns at
                // the visible offsets, mask, and still late-gather the
                // full payload.
                let refs = plus_refs(Vec::new(), [f]);
                let sub = Batch {
                    cols: refs.iter().map(|&j| reads[j].gather(&p.visible)).collect(),
                    len: p.visible.len(),
                };
                let mask = remap(&Some(refs), f).eval_mask(&sub)?;
                let kept: Vec<u32> = p
                    .visible
                    .iter()
                    .zip(mask)
                    .filter(|&(_, m)| m)
                    .map(|(i, _)| i)
                    .collect();
                SelVec::from_sorted(kept)
            }
        }
    };
    if sel.is_empty() {
        return Ok(None);
    }
    let out_cols: Vec<ColumnData> = reads.iter().map(|r| r.gather(&sel)).collect();
    Ok(Some(Batch {
        cols: out_cols,
        len: sel.len(),
    }))
}

/// Ablation baseline (the pre-selection-vector pipeline): decode every
/// requested column at all visible offsets, evaluate the filter as a
/// bool mask over the materialized batch, then gather a second time.
fn scan_group_early_mat(
    reads: &[ColumnRead],
    visible: &SelVec,
    filter: Option<&Expr>,
) -> Result<Option<Batch>> {
    let out_cols: Vec<ColumnData> = reads.iter().map(|r| r.gather(visible)).collect();
    let batch = Batch {
        cols: out_cols,
        len: visible.len(),
    };
    match filter {
        Some(f) => {
            let mask = f.eval_mask(&batch)?;
            Ok(Some(batch.filter(&mask)?))
        }
        None => Ok(Some(batch)),
    }
}

/// Partition selector for integer join keys. Any stable function of the
/// key works for correctness: partitioning only routes a key to the one
/// map holding it, and per-key match lists stay in build-row order in
/// every partition, so partitioned output equals the single-map
/// output exactly.
fn int_part(k: i64, parts: usize) -> usize {
    (((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % parts
}

/// Partition selector for generic (multi-column / non-int) join keys:
/// the same FxHash the partition maps use.
fn gen_part(key: &[Value], parts: usize) -> usize {
    (FxBuildHasher::default().hash_one(key) >> 32) as usize % parts
}

/// The key maps of a hash join's build side, hash-partitioned (one
/// partition at `parallelism` 1). Values are build-row indices in
/// ascending build order — the output-ordering contract of
/// [`PhysicalPlan::HashJoin`] depends on this.
enum JoinKeys {
    /// Single integer key fast path (all PK/FK joins).
    Int(Vec<FxHashMap<i64, Vec<u32>>>),
    /// Generic multi-column keys.
    Gen(Vec<FxHashMap<Vec<Value>, Vec<u32>>>),
}

struct JoinTable {
    build: Arc<Batch>,
    keys: JoinKeys,
}

fn build_join_table(build: Batch, right_keys: &[usize], parts: usize) -> Result<JoinTable> {
    let build = Arc::new(build);
    let b = build.clone();
    let keys = match right_keys {
        &[rk] if matches!(build.cols.get(rk), Some(ColumnData::Int { .. })) => {
            JoinKeys::Int(key_maps(parts, move |w, m| {
                if let ColumnData::Int { vals, nulls } = &b.cols[rk] {
                    for r in 0..b.len {
                        if !nulls[r] && int_part(vals[r], parts) == w {
                            m.entry(vals[r]).or_default().push(r as u32);
                        }
                    }
                }
            })?)
        }
        _ => {
            let rks = right_keys.to_vec();
            JoinKeys::Gen(key_maps(parts, move |w, m| {
                for r in 0..b.len {
                    let key: Vec<Value> = rks.iter().map(|&k| b.cols[k].get(r)).collect();
                    // SQL: NULL keys never join.
                    if !key.iter().any(|v| v.is_null()) && gen_part(&key, parts) == w {
                        m.entry(key).or_default().push(r as u32);
                    }
                }
            })?)
        }
    };
    Ok(JoinTable { build, keys })
}

/// One key map per partition, `fill(w, map)` filling partition `w`; the
/// partitions build on the pool.
fn key_maps<K: Send + 'static>(
    parts: usize,
    fill: impl Fn(usize, &mut FxHashMap<K, Vec<u32>>) + Send + Sync + 'static,
) -> Result<Vec<FxHashMap<K, Vec<u32>>>> {
    morsel::run_morsels(parts, parts, move |w| {
        let mut m = FxHashMap::default();
        fill(w, &mut m);
        m
    })
    .into_iter()
    .map(|m| m.ok_or_else(panicked))
    .collect()
}

/// Probe one batch against the build table. Returns the (probe, build)
/// index pairs in probe-row order — with per-key build lists in
/// build-row order, the joined rows of a given probe batch are fully
/// deterministic and independent of partition count.
fn probe_pairs(lb: &Batch, left_keys: &[usize], jt: &JoinTable) -> (Vec<u32>, Vec<u32>) {
    let mut lidx: Vec<u32> = Vec::new();
    let mut ridx: Vec<u32> = Vec::new();
    match &jt.keys {
        JoinKeys::Int(maps) => {
            let parts = maps.len();
            let mut probe_one = |r: usize, k: i64| {
                if let Some(ms) = maps[int_part(k, parts)].get(&k) {
                    for &br in ms {
                        lidx.push(r as u32);
                        ridx.push(br);
                    }
                }
            };
            // Left key may be Int storage or need generic access.
            match &lb.cols[left_keys[0]] {
                ColumnData::Int { vals, nulls } => {
                    for r in 0..lb.len {
                        if !nulls[r] {
                            probe_one(r, vals[r]);
                        }
                    }
                }
                // A Double key equals an Int only at the Int's exact f64
                // image (`Value`'s order); a string never does.
                other => {
                    for r in 0..lb.len {
                        if let Value::Double(d) = other.get(r) {
                            let k = d as i64;
                            if (k as f64).total_cmp(&d).is_eq() {
                                probe_one(r, k);
                            }
                        }
                    }
                }
            }
        }
        JoinKeys::Gen(maps) => {
            let parts = maps.len();
            for r in 0..lb.len {
                let key: Vec<Value> = left_keys.iter().map(|&k| lb.cols[k].get(r)).collect();
                if key.iter().any(|v| v.is_null()) {
                    continue;
                }
                if let Some(ms) = maps[gen_part(&key, parts)].get(&key) {
                    for &br in ms {
                        lidx.push(r as u32);
                        ridx.push(br);
                    }
                }
            }
        }
    }
    (lidx, ridx)
}

/// Gather the join-output columns `cols` — `lb`'s columns first, then
/// `build`'s at `lb.width() + i` — at the match pairs.
fn gather_joined(lb: &Batch, build: &Batch, lidx: &[u32], ridx: &[u32], cols: &[usize]) -> Batch {
    let lw = lb.width();
    Batch {
        cols: cols
            .iter()
            .map(|&c| match c.checked_sub(lw) {
                None => lb.cols[c].gather(lidx),
                Some(bc) => build.cols[bc].gather(ridx),
            })
            .collect(),
        len: lidx.len(),
    }
}

/// One aggregate's running state — shared by the column engine's
/// (partial) hash aggregation and the row engine's group-by.
pub enum Acc {
    CountStar(u64),
    Count(u64),
    CountDistinct(imci_common::FxHashSet<Value>),
    Sum {
        sum: f64,
        any: bool,
        int: bool,
        /// Exact while every input is an `Int`; checked against `i64`
        /// when the result is read.
        isum: i128,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    /// Empty state for `call`.
    pub fn new(call: &AggCall) -> Acc {
        match call.func {
            AggFunc::CountStar => Acc::CountStar(0),
            AggFunc::Count if call.distinct => {
                Acc::CountDistinct(imci_common::FxHashSet::default())
            }
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                sum: 0.0,
                any: false,
                int: true,
                isum: 0,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Fold one input value (`None` for `COUNT(*)`) into the state.
    pub fn update(&mut self, v: Option<&Value>) {
        match (self, v) {
            (Acc::CountStar(n), _) => *n += 1,
            (acc @ (Acc::Count(_) | Acc::Sum { .. } | Acc::Avg { .. }), Some(Value::Int(i))) => {
                acc.update_int(*i)
            }
            (acc @ (Acc::Count(_) | Acc::Sum { .. } | Acc::Avg { .. }), Some(Value::Double(d))) => {
                acc.update_f64(*d)
            }
            (Acc::Count(n), Some(x)) if !x.is_null() => *n += 1,
            (Acc::CountDistinct(set), Some(x)) if !x.is_null() => {
                set.insert(x.clone());
            }
            (Acc::Min(m), Some(x)) if !x.is_null() && m.as_ref().is_none_or(|cur| x < cur) => {
                *m = Some(x.clone());
            }
            (Acc::Max(m), Some(x)) if !x.is_null() && m.as_ref().is_none_or(|cur| x > cur) => {
                *m = Some(x.clone());
            }
            _ => {}
        }
    }

    /// `update(Some(&Value::Int(v)))` for COUNT, SUM and AVG — the
    /// typed aggregation loops call it straight from an `i64` slice.
    #[inline]
    fn update_int(&mut self, v: i64) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum { sum, any, isum, .. } => {
                *isum += i128::from(v);
                *sum += v as f64;
                *any = true;
            }
            Acc::Avg { sum, n } => {
                *sum += v as f64;
                *n += 1;
            }
            _ => {}
        }
    }

    /// `update(Some(&Value::Double(v)))` for COUNT, SUM and AVG.
    #[inline]
    fn update_f64(&mut self, v: f64) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum { sum, any, int, .. } => {
                *sum += v;
                *int = false;
                *any = true;
            }
            Acc::Avg { sum, n } => {
                *sum += v;
                *n += 1;
            }
            _ => {}
        }
    }

    /// Fold another partial accumulator (same [`AggCall`], different
    /// morsel) into this one — the combine step of partial aggregation.
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::CountStar(a), Acc::CountStar(b)) | (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::CountDistinct(a), Acc::CountDistinct(b)) => a.extend(b),
            (
                Acc::Sum {
                    sum,
                    any,
                    int,
                    isum,
                },
                Acc::Sum {
                    sum: s,
                    any: a,
                    int: i,
                    isum: is,
                },
            ) => {
                *sum += s;
                *any |= a;
                *int &= i;
                *isum += is;
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (Acc::Min(a), Acc::Min(Some(v))) if a.as_ref().is_none_or(|cur| v < *cur) => {
                *a = Some(v);
            }
            (Acc::Max(a), Acc::Max(Some(v))) if a.as_ref().is_none_or(|cur| v > *cur) => {
                *a = Some(v);
            }
            // Partials for one group are always built from the same
            // AggCall list, so variants line up; nothing to merge
            // otherwise.
            _ => {}
        }
    }

    /// The aggregate's result: an execution error when an integer SUM
    /// leaves the `i64` range.
    pub fn finish(self) -> Result<Value> {
        Ok(match self {
            Acc::CountStar(n) | Acc::Count(n) => Value::Int(n as i64),
            Acc::CountDistinct(set) => Value::Int(set.len() as i64),
            Acc::Sum {
                sum,
                any,
                int,
                isum,
            } => {
                if !any {
                    Value::Null
                } else if int {
                    Value::Int(i64::try_from(isum).map_err(|_| {
                        Error::Execution(format!("SUM {isum} is out of the BIGINT range"))
                    })?)
                } else {
                    Value::Double(sum)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / n as f64)
                }
            }
            Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Null),
        })
    }
}

/// Group key → dense group id, as typed as the key columns allow.
enum GroupIds {
    /// One `Int` (or DATE) key; NULL has its own group.
    Int {
        map: FxHashMap<i64, u32>,
        null: Option<u32>,
    },
    /// Anything else (Str keys, several keys): the key's values.
    Gen(FxHashMap<Vec<Value>, u32>),
}

impl GroupIds {
    /// The map for a first batch of `n` keys (`int`: all `Int`).
    fn for_keys(n: usize, int: bool) -> GroupIds {
        if n == 1 && int {
            GroupIds::Int {
                map: FxHashMap::default(),
                null: None,
            }
        } else {
            GroupIds::Gen(FxHashMap::default())
        }
    }

    /// Group of `key`: `Err(())` when the key does not fit this map's
    /// type, `Ok(None)` when it fits but has no group yet.
    fn get(&self, key: &[Value]) -> std::result::Result<Option<u32>, ()> {
        match (self, key) {
            (GroupIds::Int { map, .. }, [Value::Int(k)]) => Ok(map.get(k).copied()),
            (GroupIds::Int { null, .. }, [Value::Null]) => Ok(*null),
            (GroupIds::Int { .. }, _) => Err(()),
            (GroupIds::Gen(map), _) => Ok(map.get(key).copied()),
        }
    }

    /// Record `key → g` for a key [`GroupIds::get`] accepted.
    fn insert(&mut self, key: &[Value], g: u32) {
        match (self, key) {
            (GroupIds::Int { map, .. }, [Value::Int(k)]) => {
                map.insert(*k, g);
            }
            (GroupIds::Int { null, .. }, _) => *null = Some(g),
            (GroupIds::Gen(map), _) => {
                map.insert(key.to_vec(), g);
            }
        }
    }
}

/// Groups in creation (dense id) order, stored flat:
/// `keys[gid * n_keys + k]` is key `k` of group `gid`,
/// `accs[gid * aggs.len() + j]` its aggregate `j`.
struct Groups {
    n_keys: usize,
    len: usize,
    keys: Vec<Value>,
    accs: Vec<Acc>,
}

impl Groups {
    fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.n_keys..][..self.n_keys]
    }

    /// Append a group with fresh accumulators; returns its id.
    fn push(&mut self, key: &[Value], aggs: &[AggCall]) -> u32 {
        self.keys.extend_from_slice(key);
        self.accs.extend(aggs.iter().map(Acc::new));
        self.len += 1;
        (self.len - 1) as u32
    }
}

/// Hash-aggregation state: dense group ids over typed keys where the
/// keys allow, and the groups they index.
struct AggState {
    ids: GroupIds,
    groups: Groups,
}

impl AggState {
    fn new(n_keys: usize) -> AggState {
        AggState {
            // Re-chosen from the first batch's key columns.
            ids: GroupIds::for_keys(n_keys, true),
            groups: Groups {
                n_keys,
                len: 0,
                keys: Vec::new(),
                accs: Vec::new(),
            },
        }
    }

    /// The group of `key` and whether it was just created (with fresh
    /// accumulators). A key the typed map cannot hold turns the map
    /// generic for good.
    fn group(&mut self, key: &[Value], aggs: &[AggCall]) -> (u32, bool) {
        let found = match self.ids.get(key) {
            Ok(found) => found,
            Err(()) => {
                let groups = &self.groups;
                let gen = (0..groups.len)
                    .map(|g| (groups.key(g).to_vec(), g as u32))
                    .collect();
                self.ids = GroupIds::Gen(gen);
                self.ids.get(key).unwrap_or(None)
            }
        };
        if let Some(g) = found {
            return (g, false);
        }
        let g = self.groups.push(key, aggs);
        self.ids.insert(key, g);
        (g, true)
    }

    /// Dense group ids of `b`'s rows under the evaluated `keys`.
    fn group_ids(&mut self, keys: &[Cow<ColumnData>], len: usize, aggs: &[AggCall]) -> Vec<u32> {
        if keys.is_empty() {
            return vec![self.group(&[], aggs).0; len];
        }
        let int = match &*keys[0] {
            ColumnData::Int { vals, nulls } if keys.len() == 1 && nulls.len() >= len => {
                Some((vals, nulls))
            }
            _ => None,
        };
        if self.groups.len == 0 {
            self.ids = GroupIds::for_keys(keys.len(), int.is_some());
        }
        if let (Some((vals, nulls)), GroupIds::Int { map, null }) = (int, &mut self.ids) {
            let groups = &mut self.groups;
            return (0..len)
                .map(|r| match nulls[r] {
                    true => *null.get_or_insert_with(|| groups.push(&[Value::Null], aggs)),
                    false => *map
                        .entry(vals[r])
                        .or_insert_with(|| groups.push(&[Value::Int(vals[r])], aggs)),
                })
                .collect();
        }
        (0..len)
            .map(|r| {
                let key: Vec<Value> = keys.iter().map(|c| c.get(r)).collect();
                self.group(&key, aggs).0
            })
            .collect()
    }

    /// Fold one batch. COUNT, SUM and AVG over `Int`/`Double` columns
    /// update straight from the typed slices; everything else (MIN,
    /// MAX, DISTINCT, Str arguments) goes through [`Acc::update`]. Each
    /// accumulator sees its rows in batch order either way.
    fn fold(&mut self, b: &Batch, group_by: &[Expr], aggs: &[AggCall]) -> Result<()> {
        let keys = group_by
            .iter()
            .map(|e| e.eval(b))
            .collect::<Result<Vec<_>>>()?;
        let args = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(b)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let gids = self.group_ids(&keys, b.len, aggs);
        let n = aggs.len();
        let accs = &mut self.groups.accs;
        for (j, (call, arg)) in aggs.iter().zip(&args).enumerate() {
            let typed = !call.distinct
                && matches!(call.func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg)
                && arg.as_ref().is_some_and(|c| c.len() >= gids.len());
            let slot = |g: u32| g as usize * n + j;
            match arg.as_deref() {
                Some(ColumnData::Int { vals, nulls }) if typed => {
                    for (r, &g) in gids.iter().enumerate() {
                        if !nulls[r] {
                            accs[slot(g)].update_int(vals[r]);
                        }
                    }
                }
                Some(ColumnData::Double { vals, nulls }) if typed => {
                    for (r, &g) in gids.iter().enumerate() {
                        if !nulls[r] {
                            accs[slot(g)].update_f64(vals[r]);
                        }
                    }
                }
                Some(col) => {
                    for (r, &g) in gids.iter().enumerate() {
                        accs[slot(g)].update(Some(&col.get(r)));
                    }
                }
                None => {
                    for &g in &gids {
                        accs[slot(g)].update(None);
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold a later morsel's partial state into this one (combine
    /// step): a group new here takes the partial's accumulators as they
    /// are, an existing one merges them.
    fn merge(&mut self, mut other: AggState, aggs: &[AggCall]) {
        if self.groups.len == 0 {
            *self = other;
            return;
        }
        let na = aggs.len();
        let mut accs = std::mem::take(&mut other.groups.accs).into_iter();
        for og in 0..other.groups.len {
            let (g, created) = self.group(other.groups.key(og), aggs);
            for (slot, acc) in self.groups.accs[g as usize * na..][..na]
                .iter_mut()
                .zip(accs.by_ref())
            {
                if created {
                    *slot = acc;
                } else {
                    slot.merge(acc);
                }
            }
        }
    }

    /// Output batch: group keys ++ aggregate results, sorted by key.
    fn into_batch(mut self, group_by: &[Expr], aggs: &[AggCall]) -> Result<Batch> {
        // Global aggregate over an empty input still yields one row.
        if self.groups.len == 0 && group_by.is_empty() {
            self.group(&[], aggs);
        }
        // Ascending key order (NULL first); one Int key sorts as i64.
        let order: Vec<usize> = match &self.ids {
            GroupIds::Int { map, null } => {
                let mut by_key: Vec<(i64, u32)> = map.iter().map(|(&k, &g)| (k, g)).collect();
                by_key.sort_unstable();
                null.iter()
                    .chain(by_key.iter().map(|(_, g)| g))
                    .map(|&g| g as usize)
                    .collect()
            }
            _ => {
                let groups = &self.groups;
                let mut order: Vec<usize> = (0..groups.len).collect();
                order.sort_by(|&a, &b| groups.key(a).cmp(groups.key(b)));
                order
            }
        };
        let Groups {
            n_keys: nk,
            keys,
            accs,
            ..
        } = self.groups;
        let na = aggs.len();
        let results = accs
            .into_iter()
            .map(Acc::finish)
            .collect::<Result<Vec<Value>>>()?;
        let value = |g: usize, c: usize| match c.checked_sub(nk) {
            None => &keys[g * nk + c],
            Some(j) => &results[g * na + j],
        };
        // A leading group can aggregate to NULL (SUM over an all-null
        // group) while a later one is a double.
        let cols = (0..nk + na)
            .map(|c| Batch::column_of(order.iter().map(|&g| value(g, c))))
            .collect::<Result<Vec<_>>>()?;
        Ok(Batch {
            cols,
            len: order.len(),
        })
    }
}

/// Total-order comparator over `b`'s rows: sort keys, then original
/// position — ties resolve like a stable sort, and every top-K path
/// selects the same rows the full sort would.
fn row_cmp<'a>(
    b: &'a Batch,
    keys: &'a [(usize, bool)],
) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + 'a {
    move |x: &usize, y: &usize| {
        for &(k, desc) in keys {
            let (vx, vy) = (b.cols[k].get(*x), b.cols[k].get(*y));
            let ord = vx.cmp(&vy);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        x.cmp(y)
    }
}

/// `b`'s rows in sort order under `keys`, cut to the first `limit`; with
/// `row_order`, the same rows in their original order.
fn sort_rows(
    b: &Batch,
    keys: &[(usize, bool)],
    limit: Option<usize>,
    row_order: bool,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..b.len).collect();
    let cmp = row_cmp(b, keys);
    match limit {
        Some(0) => idx.clear(),
        // Bounded top-K: O(n) partition around the k-th row, then sort
        // only the prefix — no full sort of rows a LIMIT discards.
        Some(k) if k < idx.len() => {
            idx.select_nth_unstable_by(k - 1, &cmp);
            idx.truncate(k);
        }
        _ => {}
    }
    if row_order {
        idx.sort_unstable();
    } else {
        idx.sort_unstable_by(&cmp);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Schema, Vid};
    use imci_core::ColumnIndex;

    fn schema() -> Schema {
        Schema::new(
            TableId(1),
            "sales",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("region", DataType::Str),
                ColumnDef::new("qty", DataType::Int),
                ColumnDef::new("price", DataType::Double),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1, 2, 3],
                },
            ],
        )
        .unwrap()
    }

    fn ctx_with_data(n: i64, group_cap: usize) -> (ExecContext, Arc<ColumnIndex>) {
        let idx = ColumnIndex::for_schema(&schema(), group_cap);
        let regions = ["east", "west", "north", "south"];
        for pk in 0..n {
            idx.insert(
                Vid(1),
                &[
                    Value::Int(pk),
                    Value::Str(regions[(pk % 4) as usize].into()),
                    Value::Int(pk % 10),
                    Value::Double(pk as f64 * 1.5),
                ],
            )
            .unwrap();
        }
        idx.advance_visible(Vid(1));
        let mut snaps = FxHashMap::default();
        snaps.insert(TableId(1), Arc::new(idx.snapshot()));
        let mut ctx = ExecContext::new(snaps);
        ctx.parallelism = 2;
        (ctx, idx)
    }

    fn scan_all() -> PhysicalPlan {
        PhysicalPlan::ColumnScan {
            table: TableId(1),
            cols: vec![0, 1, 2, 3],
            prune: vec![],
            filter: None,
        }
    }

    #[test]
    fn full_scan_returns_all_rows() {
        let (ctx, _) = ctx_with_data(100, 16);
        let b = execute(&scan_all(), &ctx).unwrap();
        assert_eq!(b.len, 100);
    }

    #[test]
    fn filter_and_project() {
        let (ctx, _) = ctx_with_data(100, 16);
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan_all()),
                pred: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10i64)),
            }),
            exprs: vec![
                Expr::col(0),
                Expr::Arith(
                    crate::expr::ArithOp::Mul,
                    Box::new(Expr::col(3)),
                    Box::new(Expr::lit(2.0)),
                ),
            ],
        };
        let b = execute(&plan, &ctx).unwrap();
        assert_eq!(b.len, 10);
        assert_eq!(b.width(), 2);
        assert_eq!(b.cols[1].get(2), Value::Double(6.0)); // 2*1.5*2
    }

    #[test]
    fn pack_pruning_skips_groups() {
        let (mut ctx, _) = ctx_with_data(160, 16); // pk 0..160, 10 groups
        let plan = PhysicalPlan::ColumnScan {
            table: TableId(1),
            cols: vec![0],
            prune: vec![PruneRange {
                col: 0,
                lo: Some(Value::Int(150)),
                hi: None,
            }],
            filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(150i64))),
        };
        let b = execute(&plan, &ctx).unwrap();
        assert_eq!(b.len, 10);
        // With pruning disabled the result must be identical.
        ctx.prune_enabled = false;
        let b2 = execute(&plan, &ctx).unwrap();
        assert_eq!(b2.len, 10);
    }

    #[test]
    fn group_agg_sums_per_region() {
        let (ctx, _) = ctx_with_data(100, 16);
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(scan_all()),
            group_by: vec![Expr::col(1)],
            aggs: vec![
                AggCall {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(2)),
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Avg,
                    arg: Some(Expr::col(3)),
                    distinct: false,
                },
            ],
        };
        let b = execute(&plan, &ctx).unwrap();
        assert_eq!(b.len, 4, "four regions");
        // Keys sorted: east, north, south, west. 25 rows each.
        assert_eq!(b.cols[1].get(0), Value::Int(25));
    }

    #[test]
    fn global_agg_without_groups() {
        let (ctx, _) = ctx_with_data(50, 16);
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(scan_all()),
            group_by: vec![],
            aggs: vec![
                AggCall {
                    func: AggFunc::Min,
                    arg: Some(Expr::col(0)),
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(Expr::col(0)),
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Count,
                    arg: Some(Expr::col(0)),
                    distinct: true,
                },
            ],
        };
        let b = execute(&plan, &ctx).unwrap();
        assert_eq!(b.len, 1);
        assert_eq!(
            b.row(0),
            vec![Value::Int(0), Value::Int(49), Value::Int(50)]
        );
    }

    #[test]
    fn sort_desc_with_limit() {
        let (ctx, _) = ctx_with_data(30, 8);
        let plan = PhysicalPlan::Sort {
            input: Box::new(scan_all()),
            keys: vec![(0, true)],
            limit: Some(3),
        };
        let b = execute(&plan, &ctx).unwrap();
        assert_eq!(b.len, 3);
        assert_eq!(b.cols[0].get(0), Value::Int(29));
        assert_eq!(b.cols[0].get(2), Value::Int(27));
    }

    #[test]
    fn hash_join_inner() {
        // Self-join: sales s JOIN sales t ON s.qty = t.id (qty in 0..10).
        let (ctx, _) = ctx_with_data(20, 8);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan_all()),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan_all()),
                pred: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
            }),
            left_keys: vec![2],
            right_keys: vec![0],
        };
        let b = execute(&plan, &ctx).unwrap();
        // qty = pk % 10; join matches rows whose qty ∈ {0..4}: pks with
        // pk%10 in 0..5 → 10 of 20 rows, each matching exactly 1.
        assert_eq!(b.len, 10);
        assert_eq!(b.width(), 8);
        for r in 0..b.len {
            assert_eq!(b.cols[2].get(r), b.cols[4].get(r), "join key equality");
        }
    }

    #[test]
    fn limit_without_sort() {
        let (ctx, _) = ctx_with_data(100, 16);
        let plan = PhysicalPlan::Limit {
            input: Box::new(scan_all()),
            n: 7,
        };
        assert_eq!(execute(&plan, &ctx).unwrap().len, 7);
    }

    #[test]
    fn late_materialization_matches_early_baseline() {
        let (mut ctx, idx) = ctx_with_data(100, 16);
        // Deletes give partial visibility inside sealed groups.
        idx.delete(Vid(2), 13).unwrap();
        idx.delete(Vid(2), 57).unwrap();
        idx.advance_visible(Vid(2));
        let mut snaps = FxHashMap::default();
        snaps.insert(TableId(1), Arc::new(idx.snapshot()));
        ctx.snapshots = snaps;
        // One compressed-kernel filter, one fallback (arith) filter.
        let preds = [
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit(3i64)).and(Expr::cmp(
                CmpOp::Eq,
                Expr::col(1),
                Expr::Lit(Value::Str("east".into())),
            )),
            Expr::cmp(
                CmpOp::Lt,
                Expr::Arith(
                    crate::expr::ArithOp::Add,
                    Box::new(Expr::col(0)),
                    Box::new(Expr::lit(1i64)),
                ),
                Expr::lit(20i64),
            ),
        ];
        for pred in preds {
            let plan = PhysicalPlan::ColumnScan {
                table: TableId(1),
                cols: vec![0, 1, 2, 3],
                prune: vec![],
                filter: Some(pred),
            };
            ctx.late_materialization = true;
            let on = execute(&plan, &ctx).unwrap();
            ctx.late_materialization = false;
            let off = execute(&plan, &ctx).unwrap();
            assert_eq!(on.len, off.len);
            for r in 0..on.len {
                assert_eq!(on.row(r), off.row(r), "row {r}");
            }
        }
    }

    #[test]
    fn top_k_sort_matches_full_sort_under_ties() {
        let (ctx, _) = ctx_with_data(50, 8);
        // qty = pk % 10 is full of ties; the bounded top-K path must
        // pick the same rows (and order) the full stable sort would.
        let sorted = |limit| {
            let plan = PhysicalPlan::Sort {
                input: Box::new(scan_all()),
                keys: vec![(2, false)],
                limit,
            };
            execute(&plan, &ctx).unwrap()
        };
        let full = sorted(None);
        let topk = sorted(Some(12));
        assert_eq!(topk.len, 12);
        for r in 0..12 {
            assert_eq!(topk.row(r), full.row(r), "row {r}");
        }
        assert_eq!(sorted(Some(0)).len, 0);
        assert_eq!(sorted(Some(500)).len, 50, "limit past the end");
    }

    #[test]
    fn mvcc_snapshot_view_in_scan() {
        let (_, idx) = ctx_with_data(10, 8);
        // Delete under a newer vid; an old snapshot still scans 10 rows.
        let old_snap = Arc::new(idx.snapshot());
        idx.delete(Vid(2), 0).unwrap();
        idx.advance_visible(Vid(2));
        let new_snap = Arc::new(idx.snapshot());
        let mk_ctx = |s: Arc<Snapshot>| {
            let mut m = FxHashMap::default();
            m.insert(TableId(1), s);
            ExecContext::new(m)
        };
        let plan = scan_all();
        assert_eq!(execute(&plan, &mk_ctx(old_snap)).unwrap().len, 10);
        assert_eq!(execute(&plan, &mk_ctx(new_snap)).unwrap().len, 9);
    }

    /// Each parallel merge operator must match the serial baseline
    /// bit-for-bit (the integration proptest covers this broadly; this
    /// is the fast in-crate smoke version).
    #[test]
    fn parallel_matches_serial_on_every_operator() {
        let (mut ctx, _) = ctx_with_data(120, 8); // 15 morsels
        let plans = [
            scan_all(),
            PhysicalPlan::HashAgg {
                input: Box::new(scan_all()),
                group_by: vec![Expr::col(1)],
                aggs: vec![
                    AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Expr::col(2)),
                        distinct: false,
                    },
                    AggCall {
                        func: AggFunc::Avg,
                        arg: Some(Expr::col(3)),
                        distinct: false,
                    },
                ],
            },
            PhysicalPlan::HashJoin {
                left: Box::new(scan_all()),
                right: Box::new(scan_all()),
                left_keys: vec![2],
                right_keys: vec![0],
            },
            PhysicalPlan::Sort {
                input: Box::new(scan_all()),
                keys: vec![(2, true)],
                limit: Some(17),
            },
        ];
        for plan in &plans {
            ctx.parallelism = 1;
            let serial = execute(plan, &ctx).unwrap();
            for par in [2, 4, 7] {
                ctx.parallelism = par;
                let parallel = execute(plan, &ctx).unwrap();
                assert_eq!(serial.len, parallel.len, "par={par}");
                for r in 0..serial.len {
                    assert_eq!(serial.row(r), parallel.row(r), "par={par} row {r}");
                }
            }
        }
    }

    #[test]
    fn typed_group_map_turns_generic_on_a_key_it_cannot_hold() {
        let count = [AggCall {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        }];
        let vals = [Value::Int(3), Value::Null, Value::Int(3)];
        let keys = Batch {
            cols: vec![Batch::column_of(vals.iter()).unwrap()],
            len: 3,
        };
        let mut state = AggState::new(1);
        state.fold(&keys, &[Expr::col(0)], &count).unwrap();
        assert!(matches!(state.ids, GroupIds::Int { .. }));
        let (g_str, created) = state.group(&[Value::Str("x".into())], &count);
        assert!(matches!(state.ids, GroupIds::Gen(_)));
        assert_eq!((g_str, created), (2, true), "a new group for the Str key");
        assert_eq!(state.group(&[Value::Int(3)], &count), (0, false));
        assert_eq!(state.group(&[Value::Null], &count), (1, false));
    }

    #[test]
    fn default_parallelism_leaves_one_core_free() {
        let threads = morsel::WorkerPool::global().threads();
        let ctx = ExecContext::new(FxHashMap::default());
        assert_eq!(ctx.parallelism, threads.saturating_sub(1).max(1));
    }

    #[test]
    fn stats_report_rows_and_morsels() {
        // s ⋈ t ON s.qty = t.id ⋈ u ON t.qty = u.id, u.id >= 2, then
        // t.id < 5, counted per region. 64 rows in 8 groups per scan.
        let (mut ctx, _) = ctx_with_data(64, 8);
        let chain = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan_all()),
                right: Box::new(scan_all()),
                left_keys: vec![2],
                right_keys: vec![0],
            }),
            right: Box::new(PhysicalPlan::ColumnScan {
                table: TableId(1),
                cols: vec![0, 1, 2, 3],
                prune: vec![],
                filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(2i64))),
            }),
            left_keys: vec![6],
            right_keys: vec![0],
        };
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(chain),
                pred: Expr::cmp(CmpOp::Lt, Expr::col(4), Expr::lit(5i64)),
            }),
            group_by: vec![Expr::col(1)],
            aggs: vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        // Pre-order: agg, filter, outer join, inner join, scan s, scan
        // t, scan u. Each s row matches the one t with t.id = s.qty ∈
        // 0..10 (64); t.qty = t.id, so u keeps the 50 with s.qty >= 2
        // (six decades of 8, plus pk 62 and 63); t.id < 5 keeps qty 2..5
        // (six decades of 3, plus 62 and 63: 20) in all four regions.
        let rows = [4, 20, 50, 64, 64, 64, 62];
        let mut outs = Vec::new();
        for par in [1, 4] {
            ctx.parallelism = par;
            let (out, stats) = execute_with_stats(&plan, &ctx).unwrap();
            assert_eq!(stats.rows, rows, "par={par}");
            // One pipeline per scan, each of 8 row-group morsels: every
            // operator counts the morsels of its pipeline.
            assert_eq!(stats.morsels, [8; 7], "par={par}");
            outs.push((0..out.len).map(|r| out.row(r)).collect::<Vec<_>>());
        }
        assert_eq!(outs[0], outs[1]);
        let counts: i64 = outs[0].iter().filter_map(|r| r[1].as_int()).sum();
        assert_eq!(counts, 20);
    }
}
