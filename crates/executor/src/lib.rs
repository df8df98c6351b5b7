//! Column-based batch-mode execution engine (paper §6.3).
//!
//! * [`batch`] — columnar batches between operators;
//! * [`expr`] — vectorized expression evaluation;
//! * [`kernels`] — predicate kernels over compressed packs (selection
//!   vectors, frame-of-reference compares, dictionary-code predicates);
//! * [`plan`] — physical operator tree;
//! * [`morsel`] — the shared worker pool behind morsel-driven
//!   parallelism (paper §6.2);
//! * [`exec`] — pipeline execution with morsel-parallel pack-pruned,
//!   late-materialized scans, partitioned hash join, partial hash
//!   aggregation, sort/top-K.

pub mod batch;
pub mod exec;
pub mod expr;
pub mod kernels;
pub mod morsel;
pub mod plan;

pub use batch::Batch;
pub use exec::{exec_stream, execute, execute_with_stats, Acc, ExecContext, ExecStats};
pub use expr::{ArithOp, CmpOp, Expr, LikePattern};
pub use kernels::{batch_views, compressible, eval_sel, ColView};
pub use morsel::WorkerPool;
pub use plan::{AggCall, AggFunc, PhysicalPlan, PruneRange};
