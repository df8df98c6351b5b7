//! Column-based batch-mode execution engine (paper §6.3).
//!
//! * [`batch`] — columnar batches between operators;
//! * [`expr`] — vectorized expression evaluation;
//! * [`kernels`] — predicate kernels over compressed packs (selection
//!   vectors, frame-of-reference compares, dictionary-code predicates);
//! * [`plan`] — physical operator tree;
//! * [`morsel`] — the shared worker pool behind morsel-driven
//!   parallelism (paper §6.2);
//! * [`exec`] — one pipeline executor: each morsel streams a
//!   pack-pruned, late-materialized scan through filters, projections
//!   and join probes into a sink (collect, partial hash aggregate,
//!   top-K, limit).

pub mod batch;
pub mod exec;
pub mod expr;
pub mod kernels;
pub mod morsel;
pub mod plan;

pub use batch::Batch;
pub use exec::{execute, execute_with_stats, Acc, ExecContext, ExecStats};
pub use expr::{ArithOp, CmpOp, Expr, LikePattern};
pub use kernels::{batch_views, compressible, eval_sel, ColView};
pub use morsel::WorkerPool;
pub use plan::{AggCall, AggFunc, PhysicalPlan, PruneRange};
