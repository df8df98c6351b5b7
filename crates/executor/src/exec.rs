//! Batch-mode execution of physical plans (paper §6.3), morsel-driven
//! (§6.2).
//!
//! The plan tree is decomposed into pipelines at blocking operators
//! (join build, aggregation, sort). Scans split into per-rowgroup
//! *morsels* — each pinning its visibility [`SelVec`] at dispatch time
//! and running the compressed-domain kernels + late materialization
//! independently on the shared [`crate::morsel::WorkerPool`] — and the
//! blocking operators merge per-morsel partial results: partial hash
//! aggregation with a final combine, a hash-partitioned join build with
//! parallel probe, and per-morsel top-K with a final merge. Every
//! parallel path produces bit-identical output to the serial path
//! (`ExecContext::parallelism == 1`), which stays as the ablation
//! baseline; the `parallel_equiv` proptest oracle enforces this.
//! Pack min/max metadata prunes groups before any data is touched.
//!
//! Hash aggregation groups on typed keys: a single `Int` key column maps
//! rows to dense group ids without building a `Value` per row, and
//! COUNT, SUM and AVG over `Int`/`Double` columns update from the typed
//! slices (the `Vec<Value>` key and [`Acc::update`] remain the fallback
//! for Str or several keys, MIN/MAX and DISTINCT). A `HashAgg` whose input is a
//! `HashJoin` aggregates through the join: each probe batch's matches
//! are gathered for the aggregate's columns only, folded and dropped,
//! so the join output is never materialized.

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
    /// write path (REDO apply, commits). `1` disables parallel dispatch
    /// and is the serial ablation baseline.
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

    /// Morsel concurrency for a stage with `units` independent units.
    fn par(&self, units: usize) -> usize {
        self.parallelism.clamp(1, units.max(1))
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
    /// Morsels per operator: scans count their pinned row groups (the
    /// units the scan decomposes into); blocking operators count the
    /// partial-work units they dispatched to the pool.
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

/// Mutable counters threaded through execution. Atomics so the cell
/// can be shared by reference through the recursion without borrow
/// gymnastics; only the orchestrator thread updates it.
struct StatsCell {
    rows: Vec<AtomicU64>,
    morsels: Vec<AtomicU64>,
}

impl StatsCell {
    fn new(ops: usize) -> StatsCell {
        StatsCell {
            rows: (0..ops).map(|_| AtomicU64::new(0)).collect(),
            morsels: (0..ops).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn add_rows(&self, op: usize, n: u64) {
        if let Some(c) = self.rows.get(op) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn add_morsels(&self, op: usize, n: u64) {
        if let Some(c) = self.morsels.get(op) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn finish(self, wall: Duration) -> ExecStats {
        ExecStats {
            rows: self.rows.into_iter().map(|a| a.into_inner()).collect(),
            morsels: self.morsels.into_iter().map(|a| a.into_inner()).collect(),
            wall,
        }
    }
}

/// Execute a plan to a fully-materialized result batch.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Batch> {
    let batches = exec_stream(plan, ctx)?;
    Batch::concat(&batches)
}

/// Execute returning per-pipeline batches (avoids the final concat for
/// consumers that stream).
pub fn exec_stream(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Vec<Batch>> {
    exec_node(plan, ctx, 0, None)
}

/// Execute to a materialized batch, collecting the per-operator
/// counters `EXPLAIN ANALYZE` reports.
pub fn execute_with_stats(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<(Batch, ExecStats)> {
    let t0 = Instant::now();
    let cell = StatsCell::new(plan.op_count());
    let out = Batch::concat(&exec_node(plan, ctx, 0, Some(&cell))?)?;
    Ok((out, cell.finish(t0.elapsed())))
}

/// One operator. `op` is the node's pre-order id (children of a node at
/// `op` start at `op + 1`; a join's build side starts after the whole
/// probe subtree).
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<Vec<Batch>> {
    let out = match plan {
        PhysicalPlan::ColumnScan {
            table,
            cols,
            prune,
            filter,
        } => scan(ctx, *table, cols, prune, filter.as_ref(), op, stats)?,
        PhysicalPlan::Filter { input, pred } => {
            let mut out = Vec::new();
            for b in exec_node(input, ctx, op + 1, stats)? {
                // Selection-vector path: typed kernels (dictionary-aware
                // for strings) straight to one gather per column.
                let views = kernels::batch_views(&b);
                let f = if ctx.late_materialization && kernels::compressible(pred, &views) {
                    let sel = kernels::eval_sel(pred, &views, SelVec::identity(b.len))?;
                    b.take(&sel)
                } else {
                    let mask = pred.eval_mask(&b)?;
                    b.filter(&mask)?
                };
                if f.len > 0 {
                    out.push(f);
                }
            }
            out
        }
        PhysicalPlan::Project { input, exprs } => {
            let mut out = Vec::new();
            for b in exec_node(input, ctx, op + 1, stats)? {
                let cols = exprs
                    .iter()
                    .map(|e| e.eval(&b))
                    .collect::<Result<Vec<ColumnData>>>()?;
                out.push(Batch { cols, len: b.len });
            }
            out
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => hash_join(ctx, left, right, left_keys, right_keys, op, stats)?,
        PhysicalPlan::HashAgg {
            input,
            group_by,
            aggs,
        } => vec![hash_agg(ctx, input, group_by, aggs, op, stats)?],
        PhysicalPlan::Sort { input, keys, limit } => {
            vec![sort(ctx, input, keys, *limit, op, stats)?]
        }
        PhysicalPlan::Limit { input, n } => {
            let mut out = Vec::new();
            let mut remaining = *n;
            for b in exec_node(input, ctx, op + 1, stats)? {
                if remaining == 0 {
                    break;
                }
                if b.len <= remaining {
                    remaining -= b.len;
                    out.push(b);
                } else {
                    let mut b = b;
                    b.truncate(remaining);
                    out.push(b);
                    remaining = 0;
                }
            }
            out
        }
    };
    if let Some(s) = stats {
        s.add_rows(op, out.iter().map(|b| b.len as u64).sum());
    }
    Ok(out)
}

/// Everything one scan morsel needs besides its [`PinnedGroup`] —
/// shared across morsels via one `Arc`, so a morsel job is `'static`
/// without copying the filter per group.
struct ScanParams {
    cols: Vec<usize>,
    filter: Option<Expr>,
    late_materialization: bool,
}

fn scan(
    ctx: &ExecContext,
    table: TableId,
    cols: &[usize],
    prune: &[PruneRange],
    filter: Option<&Expr>,
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<Vec<Batch>> {
    let snap = ctx.snapshot(table)?;
    // Morsel creation, on the orchestrator: pack pruning first
    // (metadata only — skip the whole group if any constrained column's
    // min/max range proves no row can match; sealed groups only, the
    // partial group has no sealed metadata), then the snapshot pins
    // each survivor's visibility SelVec. Workers receive finished
    // morsels and never touch MVCC state.
    let mut pinned: Vec<PinnedGroup> = Vec::new();
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
    if let Some(s) = stats {
        s.add_morsels(op, pinned.len() as u64);
    }
    if pinned.is_empty() {
        return Ok(Vec::new());
    }
    let params = ScanParams {
        cols: cols.to_vec(),
        filter: filter.cloned(),
        late_materialization: ctx.late_materialization,
    };
    let par = ctx.par(pinned.len());
    if par == 1 {
        let mut out = Vec::new();
        for p in &pinned {
            if let Some(b) = scan_group(p, &params)? {
                if b.len > 0 {
                    out.push(b);
                }
            }
        }
        return Ok(out);
    }
    let n = pinned.len();
    let shared = Arc::new((pinned, params));
    collect_morsels(morsel::run_morsels(par, n, move |i| {
        scan_group(&shared.0[i], &shared.1)
    }))
}

/// Flatten ordered morsel results: a missing slot (worker panic)
/// becomes an execution error, empty batches are dropped, order is the
/// morsel order.
fn collect_morsels(results: Vec<Option<Result<Option<Batch>>>>) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    for r in results {
        match r {
            None => return Err(Error::Execution("morsel worker panicked".into())),
            Some(Err(e)) => return Err(e),
            Some(Ok(Some(b))) if b.len > 0 => out.push(b),
            Some(Ok(_)) => {}
        }
    }
    Ok(out)
}

fn scan_group(p: &PinnedGroup, params: &ScanParams) -> Result<Option<Batch>> {
    let group = &p.group;
    let reads: Vec<ColumnRead> = params.cols.iter().map(|&c| group.read_column(c)).collect();
    if !params.late_materialization {
        return scan_group_early_mat(&reads, &p.visible, params.filter.as_ref());
    }
    // Late materialization: refine the pinned visibility selection with
    // the predicate kernels over the *compressed* packs, then gather
    // every requested column exactly once, at the surviving offsets.
    let sel = match &params.filter {
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
                let mut refs = Vec::new();
                f.referenced_cols(&mut refs);
                refs.sort_unstable();
                refs.dedup();
                let sub = Batch {
                    cols: refs.iter().map(|&j| reads[j].gather(&p.visible)).collect(),
                    len: p.visible.len(),
                };
                let remapped = f.remap(&|j| refs.binary_search(&j).unwrap_or(0));
                let mask = remapped.eval_mask(&sub)?;
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

/// The build side of a hash join: the materialized build batch plus
/// hash-partitioned key maps (one partition when built serially).
/// Values are build-row indices in ascending build order — the
/// output-ordering contract of [`PhysicalPlan::HashJoin`] depends on
/// this.
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
    let int_key = right_keys.len() == 1
        && matches!(build.cols.get(right_keys[0]), Some(ColumnData::Int { .. }));
    let build = Arc::new(build);
    if int_key {
        let rk = right_keys[0];
        let build_part = {
            let b = build.clone();
            move |w: usize| {
                let mut m: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
                if let ColumnData::Int { vals, nulls } = &b.cols[rk] {
                    for r in 0..b.len {
                        if !nulls[r] && int_part(vals[r], parts) == w {
                            m.entry(vals[r]).or_default().push(r as u32);
                        }
                    }
                }
                m
            }
        };
        let maps = if parts == 1 {
            vec![Some(build_part(0))]
        } else {
            morsel::run_morsels(parts, parts, build_part)
        };
        let maps = maps
            .into_iter()
            .map(|m| m.ok_or_else(|| Error::Execution("morsel worker panicked".into())))
            .collect::<Result<Vec<_>>>()?;
        return Ok(JoinTable {
            build,
            keys: JoinKeys::Int(maps),
        });
    }
    let rks = Arc::new(right_keys.to_vec());
    let build_part = {
        let b = build.clone();
        move |w: usize| {
            let mut m: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
            for r in 0..b.len {
                let key: Vec<Value> = rks.iter().map(|&k| b.cols[k].get(r)).collect();
                if key.iter().any(|v| v.is_null()) {
                    continue; // SQL: NULL keys never join
                }
                if gen_part(&key, parts) == w {
                    m.entry(key).or_default().push(r as u32);
                }
            }
            m
        }
    };
    let maps = if parts == 1 {
        vec![Some(build_part(0))]
    } else {
        morsel::run_morsels(parts, parts, build_part)
    };
    let maps = maps
        .into_iter()
        .map(|m| m.ok_or_else(|| Error::Execution("morsel worker panicked".into())))
        .collect::<Result<Vec<_>>>()?;
    Ok(JoinTable {
        build,
        keys: JoinKeys::Gen(maps),
    })
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
                other => {
                    for r in 0..lb.len {
                        if let Some(k) = other.get(r).as_int() {
                            probe_one(r, k);
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

/// Gather the join-output columns `cols` — numbered as
/// [`PhysicalPlan::HashJoin`] numbers them, probe columns first — at
/// the match pairs.
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

/// One probe batch's full join output (`None` when nothing matched).
fn probe_batch(lb: &Batch, left_keys: &[usize], jt: &JoinTable) -> Option<Batch> {
    let (lidx, ridx) = probe_pairs(lb, left_keys, jt);
    if lidx.is_empty() {
        return None;
    }
    let all: Vec<usize> = (0..lb.width() + jt.build.width()).collect();
    Some(gather_joined(lb, &jt.build, &lidx, &ridx, &all))
}

/// A hash join's blocking build phase, then its probe input: the build
/// side is materialized and its key maps built — hash-partitioned
/// across the pool when the context allows (capped: each partition
/// builder scans the key column once, so very wide fan-out buys
/// nothing) — and the probe side runs to its batches.
fn join_inputs(
    ctx: &ExecContext,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    right_keys: &[usize],
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<(Arc<JoinTable>, Vec<Batch>)> {
    // Pre-order ids: probe subtree first, then the build subtree.
    let right_op = op + 1 + left.op_count();
    let build = Batch::concat(&exec_node(right, ctx, right_op, stats)?)?;
    let parts = ctx.parallelism.clamp(1, 8);
    if parts > 1 {
        if let Some(s) = stats {
            s.add_morsels(op, parts as u64);
        }
    }
    let jt = Arc::new(build_join_table(build, right_keys, parts)?);
    let lbs = exec_node(left, ctx, op + 1, stats)?;
    Ok((jt, lbs))
}

fn hash_join(
    ctx: &ExecContext,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    left_keys: &[usize],
    right_keys: &[usize],
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<Vec<Batch>> {
    let (jt, lbs) = join_inputs(ctx, left, right, right_keys, op, stats)?;
    // Probe phase: each probe batch is one morsel; results are gathered
    // in batch order, preserving the serial output order exactly.
    let par = ctx.par(lbs.len());
    if par == 1 {
        return Ok(lbs
            .iter()
            .filter_map(|lb| probe_batch(lb, left_keys, &jt))
            .collect());
    }
    if let Some(s) = stats {
        s.add_morsels(op, lbs.len() as u64);
    }
    let n = lbs.len();
    let shared = Arc::new((lbs, left_keys.to_vec(), jt));
    let results = morsel::run_morsels(par, n, move |i| {
        probe_batch(&shared.0[i], &shared.1, &shared.2)
    });
    let mut out = Vec::new();
    for r in results {
        match r {
            None => return Err(Error::Execution("morsel worker panicked".into())),
            Some(Some(b)) => out.push(b),
            Some(None) => {}
        }
    }
    Ok(out)
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
        isum: i64,
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
            (Acc::Avg { sum, n }, Some(Value::Date(d))) => {
                *sum += *d as f64;
                *n += 1;
            }
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
                *isum += v;
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

    /// The aggregate's result.
    pub fn finish(self) -> Value {
        match self {
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
                    Value::Int(isum)
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
        }
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
    /// Input rows folded (a fused join reports them as its output).
    rows: u64,
}

/// `e` over `b`, borrowing a plain column reference instead of copying
/// it.
fn eval_cow<'a>(e: &Expr, b: &'a Batch) -> Result<Cow<'a, ColumnData>> {
    match e {
        Expr::Col(i) => Ok(Cow::Borrowed(&b.cols[*i])),
        _ => e.eval(b).map(Cow::Owned),
    }
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
            rows: 0,
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
            .map(|e| eval_cow(e, b))
            .collect::<Result<Vec<_>>>()?;
        let args = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| eval_cow(e, b)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let gids = self.group_ids(&keys, b.len, aggs);
        self.rows += b.len as u64;
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
            let rows = self.rows;
            *self = other;
            self.rows += rows;
            return;
        }
        let na = aggs.len();
        self.rows += other.rows;
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
        let results: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
        let value = |g: usize, c: usize| match c.checked_sub(nk) {
            None => &keys[g * nk + c],
            Some(j) => &results[g * na + j],
        };
        let cols = (0..nk + na)
            .map(|c| {
                // Column types come from the first non-null value in
                // each column, not the first row: a leading group can
                // aggregate to NULL (e.g. SUM over an all-null group)
                // while a later one is a double.
                let ty = order
                    .iter()
                    .find_map(|&g| value(g, c).data_type())
                    .unwrap_or(imci_common::DataType::Int);
                let mut col = ColumnData::new(ty);
                for (r, &g) in order.iter().enumerate() {
                    col.set(r, value(g, c))?;
                }
                Ok(col)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Batch {
            cols,
            len: order.len(),
        })
    }
}

/// Fold `units` into one aggregate state with `fold`, which returns
/// false for a unit that contributed nothing. Serially that is one
/// state; when the context allows several morsels, each unit folds
/// into its own partial on the pool and the partials combine in unit
/// order — the order that keeps repeated runs bit-identical even for
/// float sums. Returns the state and the number of partials combined
/// (0 when serial).
fn fold_units<J: Send + Sync + 'static>(
    ctx: &ExecContext,
    units: Vec<Batch>,
    job: J,
    n_keys: usize,
    aggs: &[AggCall],
    fold: fn(&J, &Batch, &mut AggState) -> Result<bool>,
) -> Result<(AggState, usize)> {
    let mut state = AggState::new(n_keys);
    let par = ctx.par(units.len());
    if par == 1 {
        for u in &units {
            fold(&job, u, &mut state)?;
        }
        return Ok((state, 0));
    }
    let n = units.len();
    let shared = Arc::new((units, job));
    let partials = morsel::run_morsels(par, n, move |i| {
        let mut t = AggState::new(n_keys);
        fold(&shared.1, &shared.0[i], &mut t).map(|hit| hit.then_some(t))
    });
    let mut merged = 0;
    for p in partials {
        match p {
            None => return Err(Error::Execution("morsel worker panicked".into())),
            Some(Err(e)) => return Err(e),
            Some(Ok(Some(t))) => {
                state.merge(t, aggs);
                merged += 1;
            }
            Some(Ok(None)) => {}
        }
    }
    Ok((state, merged))
}

/// A `HashAgg` directly over a `HashJoin` aggregates through the join:
/// each probe batch's matches are gathered for only the columns the
/// aggregate reads, folded and dropped, so the join output is never
/// materialized. Per probe batch this folds exactly the rows, in the
/// order, that the materialized join would hand the aggregate as one
/// batch, so results are bit-identical to that path.
struct JoinAgg {
    left_keys: Vec<usize>,
    jt: Arc<JoinTable>,
    /// Join-output columns the aggregate reads, ascending.
    cols: Vec<usize>,
    /// `group_by` and `aggs` remapped onto `cols`.
    group_by: Vec<Expr>,
    aggs: Vec<AggCall>,
}

impl JoinAgg {
    fn new(
        left_keys: &[usize],
        jt: Arc<JoinTable>,
        group_by: &[Expr],
        aggs: &[AggCall],
    ) -> JoinAgg {
        let mut cols = Vec::new();
        for e in group_by
            .iter()
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
        {
            e.referenced_cols(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        let remap = |e: &Expr| e.remap(&|c| cols.binary_search(&c).unwrap_or(0));
        JoinAgg {
            left_keys: left_keys.to_vec(),
            jt,
            group_by: group_by.iter().map(remap).collect(),
            aggs: aggs
                .iter()
                .map(|a| AggCall {
                    arg: a.arg.as_ref().map(remap),
                    ..a.clone()
                })
                .collect(),
            cols,
        }
    }

    /// Probe `lb` and fold its matches into `state`; false when nothing
    /// matched.
    fn fold_probe(&self, lb: &Batch, state: &mut AggState) -> Result<bool> {
        let (lidx, ridx) = probe_pairs(lb, &self.left_keys, &self.jt);
        if lidx.is_empty() {
            return Ok(false);
        }
        let narrow = gather_joined(lb, &self.jt.build, &lidx, &ridx, &self.cols);
        state.fold(&narrow, &self.group_by, &self.aggs)?;
        Ok(true)
    }
}

fn hash_agg(
    ctx: &ExecContext,
    input: &PhysicalPlan,
    group_by: &[Expr],
    aggs: &[AggCall],
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<Batch> {
    let (state, partials) = match input {
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            // The join's counters are the ones the materialized join
            // reports: its probe morsels and its matches.
            let join_op = op + 1;
            let (jt, lbs) = join_inputs(ctx, left, right, right_keys, join_op, stats)?;
            if ctx.par(lbs.len()) > 1 {
                if let Some(s) = stats {
                    s.add_morsels(join_op, lbs.len() as u64);
                }
            }
            let job = JoinAgg::new(left_keys, jt, group_by, aggs);
            let (state, partials) =
                fold_units(ctx, lbs, job, group_by.len(), aggs, JoinAgg::fold_probe)?;
            if let Some(s) = stats {
                s.add_rows(join_op, state.rows);
            }
            (state, partials)
        }
        _ => {
            let batches = exec_node(input, ctx, op + 1, stats)?;
            let job = (group_by.to_vec(), aggs.to_vec());
            fold_units(
                ctx,
                batches,
                job,
                group_by.len(),
                aggs,
                |(g, a), b, state| state.fold(b, g, a).map(|()| true),
            )?
        }
    };
    // Partial aggregation runs on the pool only over several non-empty
    // input batches.
    if partials > 1 {
        if let Some(s) = stats {
            s.add_morsels(op, partials as u64);
        }
    }
    state.into_batch(group_by, aggs)
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

fn sort(
    ctx: &ExecContext,
    input: &PhysicalPlan,
    keys: &[(usize, bool)],
    limit: Option<usize>,
    op: usize,
    stats: Option<&StatsCell>,
) -> Result<Batch> {
    let batches = exec_node(input, ctx, op + 1, stats)?;
    let par = ctx.par(batches.len());
    if let Some(k) = limit {
        if k > 0 && par > 1 && batches.len() > 1 {
            // Parallel top-K: each morsel keeps its own batch's K best
            // rows *in original row order*. The global top-K under the
            // (keys, position) total order is contained in the union of
            // per-batch top-Ks, and because survivors stay in original
            // order the concatenation is order-isomorphic to the full
            // input — so the final bounded sort picks exactly the rows,
            // in exactly the order, the serial path would.
            if let Some(s) = stats {
                s.add_morsels(op, batches.len() as u64);
            }
            let n = batches.len();
            let shared = Arc::new((batches, keys.to_vec()));
            let pruned =
                morsel::run_morsels(par, n, move |i| topk_keep(&shared.0[i], &shared.1, k));
            let mut kept = Vec::new();
            for p in pruned {
                match p {
                    None => return Err(Error::Execution("morsel worker panicked".into())),
                    Some(Err(e)) => return Err(e),
                    Some(Ok(b)) => kept.push(b),
                }
            }
            let all = Batch::concat(&kept)?;
            return sort_batch(all, keys, Some(k));
        }
    }
    sort_batch(Batch::concat(&batches)?, keys, limit)
}

/// One morsel of the parallel top-K (see [`sort`] for the equivalence
/// argument): the K best rows of `b`, returned in original row order.
fn topk_keep(b: &Batch, keys: &[(usize, bool)], k: usize) -> Result<Batch> {
    let mut idx: Vec<usize> = (0..b.len).collect();
    if b.len > k {
        idx.select_nth_unstable_by(k - 1, row_cmp(b, keys));
        idx.truncate(k);
        idx.sort_unstable();
    }
    b.gather(&idx)
}

fn sort_batch(b: Batch, keys: &[(usize, bool)], limit: Option<usize>) -> Result<Batch> {
    let mut idx: Vec<usize> = (0..b.len).collect();
    let cmp = row_cmp(&b, keys);
    match limit {
        Some(0) => idx.clear(),
        // Bounded top-K: O(n) partition around the k-th row, then sort
        // only the prefix — no full sort of rows a LIMIT discards.
        Some(k) if k < idx.len() => {
            idx.select_nth_unstable_by(k - 1, &cmp);
            idx.truncate(k);
            idx.sort_unstable_by(&cmp);
        }
        _ => idx.sort_unstable_by(&cmp),
    }
    b.gather(&idx)
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
        let mut keys = Batch::empty(&[DataType::Int]);
        for k in [Value::Int(3), Value::Null, Value::Int(3)] {
            keys.push_values(&[k]).unwrap();
        }
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
        let (mut ctx, _) = ctx_with_data(64, 8); // 8 groups
        ctx.parallelism = 4;
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(scan_all()),
            group_by: vec![Expr::col(1)],
            aggs: vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        let (out, stats) = execute_with_stats(&plan, &ctx).unwrap();
        assert_eq!(out.len, 4);
        assert_eq!(stats.rows.len(), 2, "one entry per operator");
        assert_eq!(stats.rows[0], 4, "agg output rows");
        assert_eq!(stats.rows[1], 64, "scan output rows");
        assert_eq!(stats.morsels[1], 8, "one morsel per row group");
        assert!(stats.total_morsels() >= 8);

        // An aggregate folded straight out of a join reports the join's
        // rows and morsels as the materialized join does (an identity
        // Project between the two keeps the join output materialized).
        let join = PhysicalPlan::HashJoin {
            left: Box::new(scan_all()),
            right: Box::new(scan_all()),
            left_keys: vec![2],
            right_keys: vec![0],
        };
        let agg_over = |input: PhysicalPlan| PhysicalPlan::HashAgg {
            input: Box::new(input),
            group_by: vec![Expr::col(5)],
            aggs: vec![AggCall {
                func: AggFunc::Sum,
                arg: Some(Expr::col(3)),
                distinct: false,
            }],
        };
        let materialized = agg_over(PhysicalPlan::Project {
            input: Box::new(join.clone()),
            exprs: (0..8).map(Expr::col).collect(),
        });
        for par in [1, 4] {
            ctx.parallelism = par;
            let (fused_out, fused) = execute_with_stats(&agg_over(join.clone()), &ctx).unwrap();
            let (mat_out, mat) = execute_with_stats(&materialized, &ctx).unwrap();
            assert_eq!(
                fused.rows[1], 64,
                "par={par}: qty ∈ 0..10 matches one id each"
            );
            assert_eq!(fused.rows[1], mat.rows[2], "par={par}: join rows");
            assert_eq!(fused.morsels[1], mat.morsels[2], "par={par}: join morsels");
            assert_eq!(fused.morsels[0], mat.morsels[0], "par={par}: agg morsels");
            assert_eq!(fused.rows[2..], mat.rows[3..], "par={par}: scans");
            assert_eq!(fused_out.len, 4, "par={par}: four regions");
            for r in 0..fused_out.len {
                assert_eq!(fused_out.row(r), mat_out.row(r), "par={par} row {r}");
            }
        }
    }
}
