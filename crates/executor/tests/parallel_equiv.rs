//! Equivalence oracles for the pipeline executor.
//!
//! The first oracle runs random plan shapes — filtered scans, self-joins,
//! group-by and global aggregation, top-K and full sorts, a `Filter` or
//! a `Project` between a join and its aggregate, a two-join chain under
//! an aggregate (the CH-Q3 shape), and a `Limit` or a top-K `Sort` over
//! a join — on random data (nulls, deletes, adversarial group
//! capacities), and checks that `parallelism ∈ {2, 4, 7}` produces
//! batches bit-identical to `parallelism = 1`, and that repeated
//! parallel runs are deterministic. Every morsel folds into its own
//! partial and the partials combine in morsel order at every
//! parallelism, so this holds for arbitrary finite doubles too: column
//! `e` draws them off any grid.
//!
//! The second oracle checks aggregates over joins against an
//! independent reference: a nested-loop join of the scanned rows folded
//! through `Acc::update` in row order into a `BTreeMap`. It covers an
//! aggregate directly over a join, over a `Filter` over a join, over a
//! `Project` over a join, and over a two-join chain, with every `Acc`
//! variant over Int, Double and Str arguments and group keys from either
//! side, both, Str and none, NULL keys included. The executor runs these
//! shapes fused — one pipeline from the probe scan to the aggregate — so
//! the naive fold is the only reference that does not share its code
//! path. Its doubles (column `d`) are multiples of 0.25, so partial sums
//! are exact in any association and the row-order fold agrees bit for
//! bit.

use imci_common::{
    ColumnDef, DataType, FxHashMap, IndexDef, IndexKind, Schema, TableId, Value, Vid,
};
use imci_core::ColumnIndex;
use imci_executor::{execute, Acc, AggCall, AggFunc, CmpOp, ExecContext, Expr, PhysicalPlan};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        TableId(9),
        "t",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("val", DataType::Int),
            ColumnDef::new("grp", DataType::Int),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("s", DataType::Str),
            ColumnDef::new("e", DataType::Double),
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
                columns: vec![0, 1, 2, 3, 4, 5],
            },
        ],
    )
    .unwrap()
}

type Row = (
    Option<i64>,
    Option<i64>,
    Option<f64>,
    Option<u8>,
    Option<f64>,
);

/// Build a column index over generated rows. `group_cap` is the rowgroup
/// capacity — i.e. the morsel size — so small values make many morsels
/// out of few rows (the adversarial case for merge operators). Some rows
/// are deleted afterwards so sealed groups carry partial visibility.
fn build_ctx(rows: &[Row], dels: &[u8], group_cap: usize) -> ExecContext {
    let idx = ColumnIndex::for_schema(&schema(), group_cap);
    for (i, (val, grp, d, s, e)) in rows.iter().enumerate() {
        idx.insert(
            Vid(1),
            &[
                Value::Int(i as i64),
                val.map(Value::Int).unwrap_or(Value::Null),
                grp.map(Value::Int).unwrap_or(Value::Null),
                d.map(Value::Double).unwrap_or(Value::Null),
                s.map(|s| Value::Str(format!("s{s}")))
                    .unwrap_or(Value::Null),
                e.map(Value::Double).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    idx.advance_visible(Vid(1));
    for i in 0..rows.len() {
        if dels[i % dels.len()] == 0 {
            idx.delete(Vid(2), i as i64).unwrap();
        }
    }
    idx.advance_visible(Vid(2));
    let mut snaps = FxHashMap::default();
    snaps.insert(TableId(9), Arc::new(idx.snapshot()));
    ExecContext::new(snaps)
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        (0u8..8, -20i64..20).prop_map(|(t, v)| (t > 0).then_some(v)),
        (0u8..10, 0i64..5).prop_map(|(t, g)| (t > 0).then_some(g)),
        // Multiples of 0.25: exact in binary, so partial sums merged in
        // any grouping equal the naive oracle's left-to-right sum.
        (0u8..8, -120i64..120).prop_map(|(t, q)| (t > 0).then_some(q as f64 * 0.25)),
        (0u8..6, 0u8..6).prop_map(|(t, s)| (t > 0).then_some(s)),
        // Arbitrary finite doubles, huge and small: sums of these depend
        // on the association, which serial and parallel runs share.
        (0u8..8, any::<f64>(), -1.0f64..1.0)
            .prop_map(|(t, big, small)| (t > 0).then_some(if t % 2 == 0 { big } else { small })),
    )
}

/// Columns each `scan_ids` side contributes to a join's output.
const W: usize = 6;

/// Build-side column `c` of a join over two `scan_ids`.
const fn b(c: usize) -> usize {
    W + c
}

fn scan(filter: Option<Expr>) -> PhysicalPlan {
    PhysicalPlan::ColumnScan {
        table: TableId(9),
        cols: vec![0, 1, 2, 3, 5],
        prune: vec![],
        filter,
    }
}

fn agg(func: AggFunc, col: usize) -> AggCall {
    AggCall {
        func,
        arg: (func != AggFunc::CountStar).then(|| Expr::col(col)),
        distinct: false,
    }
}

/// Scan of every column, ids in `lo..hi` (so NULL values survive).
fn scan_ids(lo: i64, hi: i64) -> PhysicalPlan {
    PhysicalPlan::ColumnScan {
        table: TableId(9),
        cols: (0..W).collect(),
        prune: vec![],
        filter: Some(
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(lo)).and(Expr::cmp(
                CmpOp::Lt,
                Expr::col(0),
                Expr::lit(hi),
            )),
        ),
    }
}

/// Self-join on `grp` (NULL never joins), every column on both sides:
/// probe ids from `probe_min`, build ids below `build_max`.
fn grp_join(probe_min: i64, build_max: i64) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left: Box::new(scan_ids(probe_min, i64::MAX)),
        right: Box::new(scan_ids(0, build_max)),
        left_keys: vec![2],
        right_keys: vec![2],
    }
}

/// `grp_join` probing a third scan on the build side's `val`: a two-join
/// left-deep chain, as CH-Q3 joins three tables.
fn chain(probe_min: i64, build_max: i64, third_min: i64) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left: Box::new(grp_join(probe_min, build_max)),
        right: Box::new(scan_ids(third_min, i64::MAX)),
        left_keys: vec![b(1)],
        right_keys: vec![1],
    }
}

/// Keep join rows whose build-side `val` is at least `k`.
fn val_at_least(k: i64) -> Expr {
    Expr::cmp(CmpOp::Ge, Expr::col(b(1)), Expr::lit(k))
}

/// Nested loops: `left` rows in order, each with its `right` matches in
/// order, as `HashJoin` promises; NULL keys never join.
fn nested_loop(left: &[Vec<Value>], right: &[Vec<Value>], lk: usize, rk: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left {
        for r in right.iter().filter(|r| !l[lk].is_null() && r[rk] == l[lk]) {
            out.push(l.iter().chain(r).cloned().collect());
        }
    }
    out
}

/// Group keys over the join output: an Int key from the probe side
/// (NULLs included), one from the build side, a Str key, two Int keys
/// from both sides, a Double + Str key, and none.
fn group_keys(choice: usize) -> Vec<Expr> {
    let keys: &[usize] = match choice {
        0 => &[1],
        1 => &[b(1)],
        2 => &[b(4)],
        3 => &[1, b(1)],
        4 => &[b(3), 4],
        _ => &[],
    };
    keys.iter().map(|&c| Expr::col(c)).collect()
}

/// Every `Acc` variant over Int, Double and Str arguments from both
/// sides of the join, doubles on the exact grid only.
fn join_aggs() -> Vec<AggCall> {
    let mut aggs = vec![
        agg(AggFunc::CountStar, 0),
        agg(AggFunc::Count, 4),
        agg(AggFunc::Count, b(3)),
        agg(AggFunc::Sum, 1),
        agg(AggFunc::Sum, b(3)),
        agg(AggFunc::Sum, b(4)),
        agg(AggFunc::Avg, 3),
        agg(AggFunc::Avg, b(1)),
        agg(AggFunc::Min, b(4)),
        agg(AggFunc::Max, 4),
        agg(AggFunc::Min, b(3)),
        agg(AggFunc::Max, 1),
    ];
    aggs.extend([b(1), 4].map(|c| AggCall {
        distinct: true,
        ..agg(AggFunc::Count, c)
    }));
    aggs
}

/// `join_aggs` plus sums of the off-grid column on both sides.
fn join_aggs_off_grid() -> Vec<AggCall> {
    let mut aggs = join_aggs();
    aggs.extend([agg(AggFunc::Sum, 5), agg(AggFunc::Avg, b(5))]);
    aggs
}

fn agg_over(input: PhysicalPlan, group_by: Vec<Expr>, aggs: Vec<AggCall>) -> PhysicalPlan {
    PhysicalPlan::HashAgg {
        input: Box::new(input),
        group_by,
        aggs,
    }
}

/// Random plan over the scanned table, exercising every pipeline shape
/// and every sink.
fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    fn filt() -> impl Strategy<Value = Expr> {
        (-15i64..15).prop_map(|k| Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(k)))
    }
    prop_oneof![
        // Filtered scan (pushed down), then a Project.
        filt().prop_map(|p| PhysicalPlan::Project {
            input: Box::new(scan(Some(p))),
            exprs: vec![Expr::col(0), Expr::col(1), Expr::col(3)],
        }),
        // Standalone Filter over a full scan.
        filt().prop_map(|p| PhysicalPlan::Filter {
            input: Box::new(scan(None)),
            pred: p,
        }),
        // Group-by aggregation over a filtered scan: every Acc variant.
        filt().prop_map(|p| agg_over(
            scan(Some(p)),
            vec![Expr::col(2)],
            vec![
                agg(AggFunc::CountStar, 0),
                agg(AggFunc::Count, 1),
                agg(AggFunc::Sum, 1),
                agg(AggFunc::Sum, 3),
                agg(AggFunc::Avg, 3),
                agg(AggFunc::Min, 1),
                agg(AggFunc::Max, 3),
                agg(AggFunc::Sum, 4),
                agg(AggFunc::Avg, 4),
            ],
        )),
        // Global aggregate (no groups) — exercises the empty-input row.
        filt().prop_map(|p| agg_over(
            scan(Some(p)),
            vec![],
            vec![
                agg(AggFunc::CountStar, 0),
                agg(AggFunc::Sum, 3),
                agg(AggFunc::Sum, 4)
            ],
        )),
        // Hash self-join on grp: partitioned build + probe per morsel.
        (filt(), -15i64..15).prop_map(|(p, k)| PhysicalPlan::HashJoin {
            left: Box::new(scan(Some(p))),
            right: Box::new(scan(Some(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(k))))),
            left_keys: vec![2],
            right_keys: vec![2],
        }),
        // Aggregate straight over a join.
        (0i64..60, 0i64..100, 0usize..6).prop_map(|(p, k, keys)| agg_over(
            grp_join(p, k),
            group_keys(keys),
            join_aggs_off_grid()
        )),
        // A Filter between the join and its aggregate.
        (0i64..60, 0i64..100, -20i64..20, 0usize..6).prop_map(|(p, k, v, keys)| agg_over(
            PhysicalPlan::Filter {
                input: Box::new(grp_join(p, k)),
                pred: val_at_least(v),
            },
            group_keys(keys),
            join_aggs_off_grid(),
        )),
        // A Project between the join and its aggregate.
        (0i64..60, 0i64..100).prop_map(|(p, k)| agg_over(
            PhysicalPlan::Project {
                input: Box::new(grp_join(p, k)),
                exprs: vec![
                    Expr::col(b(5)),
                    Expr::col(4),
                    Expr::Arith(
                        imci_executor::ArithOp::Add,
                        Box::new(Expr::col(1)),
                        Box::new(Expr::col(b(1))),
                    ),
                    Expr::col(5),
                ],
            },
            vec![Expr::col(1)],
            vec![
                agg(AggFunc::Sum, 0),
                agg(AggFunc::Sum, 2),
                agg(AggFunc::Avg, 3)
            ],
        )),
        // Two joins in a chain under an aggregate (the CH-Q3 shape).
        (0i64..60, 0i64..100, 0i64..100, 0usize..6).prop_map(|(p, k, t, keys)| {
            let mut aggs = join_aggs_off_grid();
            aggs.extend([agg(AggFunc::Sum, 2 * W + 5), agg(AggFunc::Max, 2 * W + 4)]);
            agg_over(chain(p, k, t), group_keys(keys), aggs)
        }),
        // A Limit over a join.
        (0i64..60, 0i64..100, 0usize..40).prop_map(|(p, k, n)| PhysicalPlan::Limit {
            input: Box::new(grp_join(p, k)),
            n,
        }),
        // A top-K Sort over a join, on the off-grid column.
        (0i64..60, 0i64..100, 0usize..12).prop_map(|(p, k, n)| PhysicalPlan::Sort {
            input: Box::new(grp_join(p, k)),
            keys: vec![(b(5), true), (0, false)],
            limit: Some(n),
        }),
        // Top-K over a filtered scan: per-morsel pruning + bounded sort.
        (filt(), 1usize..12).prop_map(|(p, k)| PhysicalPlan::Sort {
            input: Box::new(scan(Some(p))),
            keys: vec![(1, true), (0, false)],
            limit: Some(k),
        }),
        // Full sort (no limit) for the gather-then-sort path.
        filt().prop_map(|p| PhysicalPlan::Sort {
            input: Box::new(scan(Some(p))),
            keys: vec![(4, false), (0, true)],
            limit: None,
        }),
    ]
}

fn run(ctx: &mut ExecContext, plan: &PhysicalPlan, par: usize) -> Vec<Vec<Value>> {
    ctx.parallelism = par;
    let b = execute(plan, ctx).unwrap();
    (0..b.len).map(|r| b.row(r)).collect()
}

/// Reference aggregate: `Acc::update` over each row in order, groups in
/// a `BTreeMap` (sorted like `HashAgg`'s output).
fn naive_agg(rows: &[Vec<Value>], keys: &[Expr], aggs: &[AggCall]) -> Vec<Vec<Value>> {
    let col = |e: &Expr| match e {
        Expr::Col(c) => *c,
        other => panic!("plain column expected, got {other:?}"),
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<Acc>> = BTreeMap::new();
    if keys.is_empty() {
        groups.insert(Vec::new(), aggs.iter().map(Acc::new).collect());
    }
    for row in rows {
        let key = keys.iter().map(|k| row[col(k)].clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(Acc::new).collect());
        for (acc, call) in accs.iter_mut().zip(aggs) {
            acc.update(call.arg.as_ref().map(|a| &row[col(a)]));
        }
    }
    groups
        .into_iter()
        .map(|(mut key, accs)| {
            for acc in accs {
                key.push(acc.finish().unwrap());
            }
            key
        })
        .collect()
}

/// One aggregate-over-join shape of the second oracle and its naive
/// result: 0 directly over the join, 1 over a `Filter`, 2 over a
/// `Project`, 3 over a two-join chain.
fn oracle_case(
    ctx: &mut ExecContext,
    shape: usize,
    (probe_min, build_max, third_min): (i64, i64, i64),
    v: i64,
    keys: usize,
) -> (PhysicalPlan, Vec<Vec<Value>>) {
    let probe = run(ctx, &scan_ids(probe_min, i64::MAX), 1);
    let build = run(ctx, &scan_ids(0, build_max), 1);
    let joined = nested_loop(&probe, &build, 2, 2);
    let join = grp_join(probe_min, build_max);
    let (keys, aggs) = (group_keys(keys), join_aggs());
    match shape {
        0 => {
            let naive = naive_agg(&joined, &keys, &aggs);
            (agg_over(join, keys, aggs), naive)
        }
        1 => {
            let kept: Vec<Vec<Value>> = joined
                .into_iter()
                .filter(|r| matches!(r[b(1)], Value::Int(x) if x >= v))
                .collect();
            let naive = naive_agg(&kept, &keys, &aggs);
            let filtered = PhysicalPlan::Filter {
                input: Box::new(join),
                pred: val_at_least(v),
            };
            (agg_over(filtered, keys, aggs), naive)
        }
        2 => {
            // Reordered columns, some dropped: build val, probe Str, probe
            // d, build grp.
            let pick = [b(1), 4, 3, b(2)];
            let projected: Vec<Vec<Value>> = joined
                .iter()
                .map(|r| pick.iter().map(|&c| r[c].clone()).collect())
                .collect();
            let (keys, aggs) = (
                vec![Expr::col(1)],
                // Nothing reads the build grp: the join never gathers it.
                vec![
                    agg(AggFunc::Sum, 0),
                    agg(AggFunc::Avg, 2),
                    agg(AggFunc::CountStar, 0),
                ],
            );
            let naive = naive_agg(&projected, &keys, &aggs);
            let project = PhysicalPlan::Project {
                input: Box::new(join),
                exprs: pick.iter().map(|&c| Expr::col(c)).collect(),
            };
            (agg_over(project, keys, aggs), naive)
        }
        _ => {
            let third = run(ctx, &scan_ids(third_min, i64::MAX), 1);
            let chained = nested_loop(&joined, &third, b(1), 1);
            let mut aggs = aggs;
            aggs.extend([agg(AggFunc::Sum, 2 * W + 3), agg(AggFunc::Min, 2 * W + 4)]);
            let naive = naive_agg(&chained, &keys, &aggs);
            (
                agg_over(chain(probe_min, build_max, third_min), keys, aggs),
                naive,
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn parallel_execution_matches_serial(
        rows in prop::collection::vec(arb_row(), 1..100),
        dels in prop::collection::vec(0u8..4, 1..12),
        group_cap in prop_oneof![Just(3usize), Just(7), Just(16), Just(64)],
        plan in arb_plan(),
    ) {
        let mut ctx = build_ctx(&rows, &dels, group_cap);
        let serial = run(&mut ctx, &plan, 1);
        for par in [2usize, 4, 7] {
            let parallel = run(&mut ctx, &plan, par);
            prop_assert_eq!(&serial, &parallel, "parallelism {} diverged", par);
        }
    }

    #[test]
    fn agg_over_joins_matches_naive_fold(
        rows in prop::collection::vec(arb_row(), 1..100),
        dels in prop::collection::vec(0u8..4, 1..12),
        group_cap in prop_oneof![Just(3usize), Just(7), Just(16), Just(64)],
        ranges in (0i64..60, 0i64..100, 0i64..100),
        v in -20i64..20,
        shape in 0usize..4,
        keys in 0usize..6,
    ) {
        let mut ctx = build_ctx(&rows, &dels, group_cap);
        let (plan, naive) = oracle_case(&mut ctx, shape, ranges, v, keys);
        for par in [1usize, 2, 4, 7] {
            prop_assert_eq!(&run(&mut ctx, &plan, par), &naive, "shape {}, parallelism {}", shape, par);
        }
    }

    #[test]
    fn parallel_execution_is_deterministic(
        rows in prop::collection::vec(arb_row(), 1..80),
        dels in prop::collection::vec(0u8..4, 1..8),
        plan in arb_plan(),
    ) {
        let mut ctx = build_ctx(&rows, &dels, 5);
        let a = run(&mut ctx, &plan, 4);
        let b = run(&mut ctx, &plan, 4);
        prop_assert_eq!(a, b, "repeated parallel runs diverged");
    }
}
