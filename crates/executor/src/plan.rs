//! Physical plans for the column (batch-mode) engine.

use crate::expr::Expr;
use imci_common::{TableId, Value};

/// A min/max pruning range on a scanned column (position within the
/// column index's covered columns). Derived from WHERE conjuncts; lets
/// TableScan skip whole packs via their metadata (paper §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PruneRange {
    /// Covered-column position the range constrains.
    pub col: usize,
    /// Lower bound (inclusive), if any.
    pub lo: Option<Value>,
    /// Upper bound (inclusive), if any.
    pub hi: Option<Value>,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` (non-null count).
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Function.
    pub func: AggFunc,
    /// Argument (None only for COUNT(*)).
    pub arg: Option<Expr>,
    /// COUNT(DISTINCT expr).
    pub distinct: bool,
}

/// Physical operator tree of the column engine.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Parallel scan over a column index. Output columns are
    /// `cols` (positions within the index's covered columns), in order.
    ColumnScan {
        /// Table to scan.
        table: TableId,
        /// Covered-column positions to materialize.
        cols: Vec<usize>,
        /// Min/max pack pruning ranges. NOTE: `PruneRange::col` is a
        /// position within the index's *covered columns* (the same
        /// space `cols` entries live in), not a position within `cols`
        /// — the two coincide only when the scan materializes every
        /// covered column in order.
        prune: Vec<PruneRange>,
        /// Residual filter over the output columns (by output position).
        filter: Option<Expr>,
    },
    /// Row filter.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Predicate over input columns.
        pred: Expr,
    },
    /// Projection / expression evaluation.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output expressions over input columns.
        exprs: Vec<Expr>,
    },
    /// Hash equi-join (inner).
    ///
    /// Output-column contract: all of `left`'s columns first (by input
    /// position), then all of `right`'s — consumers address build-side
    /// columns at `left_width + i`. Output rows come in probe-row
    /// order, and a probe row's matches appear in build-row order;
    /// both hold for the serial and the hash-partitioned parallel
    /// build, so plans downstream may rely on the order.
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Probe key column positions.
        left_keys: Vec<usize>,
        /// Build key column positions.
        right_keys: Vec<usize>,
    },
    /// Hash aggregation.
    ///
    /// Output-column contract: the group-by values first (in `group_by`
    /// order), then one column per aggregate (in `aggs` order). Output
    /// rows are sorted by the group key, which makes results
    /// deterministic across hash-map iteration orders *and* across
    /// serial/partial-parallel execution.
    HashAgg {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Grouping expressions.
        group_by: Vec<Expr>,
        /// Aggregates.
        aggs: Vec<AggCall>,
    },
    /// Sort (optionally top-N).
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys: (column position, descending).
        keys: Vec<(usize, bool)>,
        /// Optional row limit applied after the sort.
        limit: Option<usize>,
    },
    /// Row limit without sorting.
    Limit {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Max rows.
        n: usize,
    },
}

impl PhysicalPlan {
    /// Rough operator count (used in Table 2-style plan statistics).
    pub fn op_count(&self) -> usize {
        1 + match self {
            PhysicalPlan::ColumnScan { .. } => 0,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAgg { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.op_count(),
            PhysicalPlan::HashJoin { left, right, .. } => left.op_count() + right.op_count(),
        }
    }

    /// One `EXPLAIN` line for this node alone (no children, no indent).
    fn describe(&self) -> String {
        match self {
            PhysicalPlan::ColumnScan {
                table,
                cols,
                prune,
                filter,
            } => {
                let mut s = format!("ColumnScan table={} cols={}", table.0, cols.len());
                if !prune.is_empty() {
                    s.push_str(&format!(" prune={}", prune.len()));
                }
                if filter.is_some() {
                    s.push_str(" filter=pushed");
                }
                s
            }
            PhysicalPlan::Filter { .. } => "Filter".to_string(),
            PhysicalPlan::Project { exprs, .. } => format!("Project exprs={}", exprs.len()),
            PhysicalPlan::HashJoin { left_keys, .. } => {
                format!("HashJoin keys={}", left_keys.len())
            }
            PhysicalPlan::HashAgg { group_by, aggs, .. } => {
                format!("HashAgg groups={} aggs={}", group_by.len(), aggs.len())
            }
            PhysicalPlan::Sort { keys, limit, .. } => match limit {
                Some(k) => format!("TopK keys={} limit={k}", keys.len()),
                None => format!("Sort keys={}", keys.len()),
            },
            PhysicalPlan::Limit { n, .. } => format!("Limit n={n}"),
        }
    }

    /// `EXPLAIN` rendering: one line per operator, pre-order, indented
    /// two spaces per tree level. Line `i` is the operator with
    /// pre-order id `i` — the id space `ExecStats` counters use — with
    /// a join's probe subtree before its build subtree.
    pub fn explain(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.op_count());
        self.explain_into(0, &mut lines);
        lines
    }

    fn explain_into(&self, depth: usize, lines: &mut Vec<String>) {
        lines.push(format!("{}{}", "  ".repeat(depth), self.describe()));
        match self {
            PhysicalPlan::ColumnScan { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAgg { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.explain_into(depth + 1, lines),
            PhysicalPlan::HashJoin { left, right, .. } => {
                left.explain_into(depth + 1, lines);
                right.explain_into(depth + 1, lines);
            }
        }
    }

    /// Number of joins in the plan.
    pub fn join_count(&self) -> usize {
        match self {
            PhysicalPlan::ColumnScan { .. } => 0,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAgg { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.join_count(),
            PhysicalPlan::HashJoin { left, right, .. } => {
                1 + left.join_count() + right.join_count()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_and_join_counts() {
        let scan = |t: u64| PhysicalPlan::ColumnScan {
            table: TableId(t),
            cols: vec![0],
            prune: vec![],
            filter: None,
        };
        let join = PhysicalPlan::HashJoin {
            left: Box::new(scan(1)),
            right: Box::new(scan(2)),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let agg = PhysicalPlan::HashAgg {
            input: Box::new(join),
            group_by: vec![],
            aggs: vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        assert_eq!(agg.op_count(), 4);
        assert_eq!(agg.join_count(), 1);
    }

    #[test]
    fn explain_lines_follow_preorder_ids() {
        let scan = |t: u64| PhysicalPlan::ColumnScan {
            table: TableId(t),
            cols: vec![0, 1],
            prune: vec![],
            filter: None,
        };
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(1)),
                right: Box::new(PhysicalPlan::Filter {
                    input: Box::new(scan(2)),
                    pred: Expr::Lit(Value::Int(1)),
                }),
                left_keys: vec![0],
                right_keys: vec![0],
            }),
            group_by: vec![Expr::Col(1)],
            aggs: vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        let lines = plan.explain();
        assert_eq!(lines.len(), plan.op_count());
        // Pre-order: agg(0), join(1), probe scan(2), filter(3), build
        // scan(4) — matching exec's op-id assignment exactly.
        assert_eq!(lines[0], "HashAgg groups=1 aggs=1");
        assert_eq!(lines[1], "  HashJoin keys=1");
        assert_eq!(lines[2], "    ColumnScan table=1 cols=2");
        assert_eq!(lines[3], "    Filter");
        assert_eq!(lines[4], "      ColumnScan table=2 cols=2");
    }
}
