//! Equivalence oracle for morsel-driven parallel execution: on random
//! data (nulls, deletes, adversarial group capacities) and random plan
//! shapes (filtered scans, self-joins, group-by aggregation, top-K),
//! running with `parallelism ∈ {2, 4, 7}` must produce batches
//! bit-identical to the serial `parallelism = 1` path, and repeated
//! parallel runs must be deterministic.
//!
//! Doubles are generated as multiples of 0.25 so every partial sum is
//! exactly representable — the merge order the parallel aggregate uses
//! is deterministic, and with exact values serial == parallel holds as
//! equality, not approximation.
//!
//! A `HashAgg` directly over a `HashJoin` folds the join's matches
//! without materializing them; a second oracle checks it against the
//! materialized path (the same plan with an identity `Project` between
//! join and aggregate) and against a naive `Acc::update` fold of the
//! joined rows.

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
                columns: vec![0, 1, 2, 3, 4],
            },
        ],
    )
    .unwrap()
}

type Row = (Option<i64>, Option<i64>, Option<f64>, Option<u8>);

/// Build a column index over generated rows. `group_cap` is the rowgroup
/// capacity — i.e. the morsel size — so small values make many morsels
/// out of few rows (the adversarial case for merge operators). Some rows
/// are deleted afterwards so sealed groups carry partial visibility.
fn build_ctx(rows: &[Row], dels: &[u8], group_cap: usize) -> ExecContext {
    let idx = ColumnIndex::for_schema(&schema(), group_cap);
    for (i, (val, grp, d, s)) in rows.iter().enumerate() {
        idx.insert(
            Vid(1),
            &[
                Value::Int(i as i64),
                val.map(Value::Int).unwrap_or(Value::Null),
                grp.map(Value::Int).unwrap_or(Value::Null),
                d.map(Value::Double).unwrap_or(Value::Null),
                s.map(|s| Value::Str(format!("s{s}")))
                    .unwrap_or(Value::Null),
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
        // Multiples of 0.25: exact in binary, so parallel partial sums
        // merged in any grouping equal the serial left-to-right sum.
        (0u8..8, -120i64..120).prop_map(|(t, q)| (t > 0).then_some(q as f64 * 0.25)),
        (0u8..6, 0u8..6).prop_map(|(t, s)| (t > 0).then_some(s)),
    )
}

fn scan(filter: Option<Expr>) -> PhysicalPlan {
    PhysicalPlan::ColumnScan {
        table: TableId(9),
        cols: vec![0, 1, 2, 3],
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

/// Join output width: five probe columns, then five build columns.
const JOIN_WIDTH: usize = 10;

/// Scan of every column, ids in `lo..hi` (so NULL values survive).
fn scan_ids(lo: i64, hi: i64) -> PhysicalPlan {
    PhysicalPlan::ColumnScan {
        table: TableId(9),
        cols: vec![0, 1, 2, 3, 4],
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

/// The join's rows by nested loops over the two scans: probe-row order,
/// then build-row order, as `HashJoin` promises.
fn naive_join(ctx: &mut ExecContext, probe_min: i64, build_max: i64) -> Vec<Vec<Value>> {
    let probe = run(ctx, &scan_ids(probe_min, i64::MAX), 1);
    let build = run(ctx, &scan_ids(0, build_max), 1);
    let mut out = Vec::new();
    for p in &probe {
        for b in build.iter().filter(|b| !p[2].is_null() && b[2] == p[2]) {
            out.push(p.iter().chain(b).cloned().collect());
        }
    }
    out
}

/// Group keys over the join output: an Int key from the probe side
/// (NULLs included), one from the build side, a Str key, two Int keys
/// from both sides, an Int + Str key, and none.
fn group_keys(choice: usize) -> Vec<Expr> {
    let keys: &[usize] = match choice {
        0 => &[1],
        1 => &[6],
        2 => &[9],
        3 => &[1, 6],
        4 => &[8, 4],
        _ => &[],
    };
    keys.iter().map(|&c| Expr::col(c)).collect()
}

/// Every `Acc` variant over Int, Double and Str arguments from both
/// sides of the join.
fn join_aggs() -> Vec<AggCall> {
    let mut aggs = vec![
        agg(AggFunc::CountStar, 0),
        agg(AggFunc::Count, 4),
        agg(AggFunc::Count, 8),
        agg(AggFunc::Sum, 1),
        agg(AggFunc::Sum, 8),
        agg(AggFunc::Sum, 9),
        agg(AggFunc::Avg, 3),
        agg(AggFunc::Avg, 6),
        agg(AggFunc::Min, 9),
        agg(AggFunc::Max, 4),
        agg(AggFunc::Min, 8),
        agg(AggFunc::Max, 1),
    ];
    aggs.extend([6, 4].map(|c| AggCall {
        distinct: true,
        ..agg(AggFunc::Count, c)
    }));
    aggs
}

fn agg_over_join(join: PhysicalPlan, keys: usize) -> PhysicalPlan {
    PhysicalPlan::HashAgg {
        input: Box::new(join),
        group_by: group_keys(keys),
        aggs: join_aggs(),
    }
}

/// Random plan over the scanned table, exercising every parallel merge
/// path: pushed-filter scans, standalone filters, group-by and global
/// aggregation, hash self-joins, full sorts, and top-K.
fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    fn filt() -> impl Strategy<Value = Expr> {
        (-15i64..15).prop_map(|k| Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(k)))
    }
    prop_oneof![
        // Filtered scan (pushed down), then Project keeping it parallel.
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
        filt().prop_map(|p| PhysicalPlan::HashAgg {
            input: Box::new(scan(Some(p))),
            group_by: vec![Expr::col(2)],
            aggs: vec![
                agg(AggFunc::CountStar, 0),
                agg(AggFunc::Count, 1),
                agg(AggFunc::Sum, 1),
                agg(AggFunc::Sum, 3),
                agg(AggFunc::Avg, 3),
                agg(AggFunc::Min, 1),
                agg(AggFunc::Max, 3),
            ],
        }),
        // Global aggregate (no groups) — exercises the empty-input row.
        filt().prop_map(|p| PhysicalPlan::HashAgg {
            input: Box::new(scan(Some(p))),
            group_by: vec![],
            aggs: vec![agg(AggFunc::CountStar, 0), agg(AggFunc::Sum, 3)],
        }),
        // Hash self-join on grp: partitioned build + parallel probe.
        (filt(), -15i64..15).prop_map(|(p, k)| PhysicalPlan::HashJoin {
            left: Box::new(scan(Some(p))),
            right: Box::new(scan(Some(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(k))))),
            left_keys: vec![2],
            right_keys: vec![2],
        }),
        // Aggregate folded straight out of the join's probe batches.
        (0i64..60, 0i64..100, 0usize..6)
            .prop_map(|(p, k, keys)| agg_over_join(grp_join(p, k), keys)),
        // Top-K over a filtered scan: per-morsel pruning + bounded sort.
        (filt(), 1usize..12).prop_map(|(p, k)| PhysicalPlan::Sort {
            input: Box::new(scan(Some(p))),
            keys: vec![(1, true), (0, false)],
            limit: Some(k),
        }),
        // Full sort (no limit) for the gather-then-sort path.
        filt().prop_map(|p| PhysicalPlan::Sort {
            input: Box::new(scan(Some(p))),
            keys: vec![(3, false), (0, true)],
            limit: None,
        }),
    ]
}

fn run(ctx: &mut ExecContext, plan: &PhysicalPlan, par: usize) -> Vec<Vec<Value>> {
    ctx.parallelism = par;
    let b = execute(plan, ctx).unwrap();
    (0..b.len).map(|r| b.row(r)).collect()
}

/// Reference aggregate: `Acc::update` over each joined row in order,
/// groups in a `BTreeMap` (sorted like `HashAgg`'s output).
fn naive_agg(joined: &[Vec<Value>], keys: &[Expr], aggs: &[AggCall]) -> Vec<Vec<Value>> {
    let col = |e: &Expr| match e {
        Expr::Col(c) => *c,
        other => panic!("plain column expected, got {other:?}"),
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<Acc>> = BTreeMap::new();
    if keys.is_empty() {
        groups.insert(Vec::new(), aggs.iter().map(Acc::new).collect());
    }
    for row in joined {
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
            key.extend(accs.into_iter().map(Acc::finish));
            key
        })
        .collect()
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
    fn agg_over_join_matches_materialized_and_naive(
        rows in prop::collection::vec(arb_row(), 1..100),
        dels in prop::collection::vec(0u8..4, 1..12),
        group_cap in prop_oneof![Just(3usize), Just(7), Just(16), Just(64)],
        probe_min in 0i64..60,
        build_max in 0i64..100,
        keys in 0usize..6,
    ) {
        let mut ctx = build_ctx(&rows, &dels, group_cap);
        let join = grp_join(probe_min, build_max);
        let fused = agg_over_join(join.clone(), keys);
        // The identity Project keeps the join's output materialized.
        let materialized = agg_over_join(
            PhysicalPlan::Project {
                input: Box::new(join.clone()),
                exprs: (0..JOIN_WIDTH).map(Expr::col).collect(),
            },
            keys,
        );
        let joined = naive_join(&mut ctx, probe_min, build_max);
        let naive = naive_agg(&joined, &group_keys(keys), &join_aggs());
        for par in [1usize, 2, 4, 7] {
            let got = run(&mut ctx, &fused, par);
            prop_assert_eq!(&got, &run(&mut ctx, &materialized, par), "materialized, parallelism {}", par);
            prop_assert_eq!(&got, &naive, "naive fold, parallelism {}", par);
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
