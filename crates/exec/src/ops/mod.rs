//! Physical operators of the Vector Volcano engine (§6).

use eider_vector::{DataChunk, LogicalType, Result};

pub mod agg;
pub mod basic;
pub mod join;
pub mod merge_join;
pub mod modify;
pub mod scan;
pub mod sort;

pub use agg::{AggExpr, HashAggregateOp, SimpleAggregateOp};
pub use basic::{FilterOp, LimitOp, ProjectionOp, ValuesOp};
pub use join::{BuildSide, CrossProductOp, HashJoinOp, JoinType, NestedLoopJoinOp};
pub use merge_join::MergeJoinOp;
pub use modify::{DeleteOp, UpdateOp};
pub use scan::{SourceScanOp, TableScanOp};
pub use sort::{ExternalSortOp, SortKey};

/// The pull interface: every operator produces chunks until exhausted.
/// "Query execution commences by pulling the first chunk of data from the
/// root node of the physical plan" — and the client API exposes exactly
/// this handle to the application (§5).
pub trait PhysicalOperator: Send {
    /// Output column types.
    fn output_types(&self) -> Vec<LogicalType>;

    /// Pull the next chunk; `None` when the operator is exhausted.
    fn next_chunk(&mut self) -> Result<Option<DataChunk>>;
}

/// Boxed operator, the edge type of physical plans.
pub type OperatorBox = Box<dyn PhysicalOperator>;

/// Pull an operator to completion (tests, pipeline breakers).
pub fn drain(op: &mut dyn PhysicalOperator) -> Result<Vec<DataChunk>> {
    let mut out = Vec::new();
    while let Some(chunk) = op.next_chunk()? {
        if !chunk.is_empty() {
            out.push(chunk);
        }
    }
    Ok(out)
}

/// Total row count across drained chunks (test helper).
pub fn drain_rows(op: &mut dyn PhysicalOperator) -> Result<Vec<Vec<eider_vector::Value>>> {
    let mut rows = Vec::new();
    for chunk in drain(op)? {
        rows.extend(chunk.to_rows());
    }
    Ok(rows)
}
