//! Bound logical plans: the binder's output, the optimizer's substrate and
//! the input of eider-core's physical planner.

use eider_catalog::{ColumnDefinition, TableEntry};
use eider_etl::TableSource;
use eider_exec::expression::Expr;
use eider_exec::ops::agg::AggExpr;
use eider_exec::ops::join::JoinType;
use eider_exec::ops::sort::SortKey;
use eider_txn::TableFilter;
use eider_vector::{LogicalType, Value};
use std::sync::Arc;

/// CSV options carried through to the ETL layer.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    pub header: bool,
    pub delimiter: char,
    pub null_string: String,
}

/// A bound, typed logical plan node.
pub enum LogicalPlan {
    TableScan {
        entry: Arc<TableEntry>,
        /// Physical column indexes to read.
        column_ids: Vec<usize>,
        /// Pushed-down filters (zone-map eligible).
        filters: Vec<TableFilter>,
        emit_row_ids: bool,
        names: Vec<String>,
        types: Vec<LogicalType>,
    },
    /// Scan of an external [`TableSource`] (`read_csv`, `read_arrow`).
    /// `filters` are pruning hints only — partitions whose metadata
    /// excludes them are skipped, but rows are never filtered here; exact
    /// evaluation stays in the enclosing `Filter`.
    ExternalScan {
        source: Arc<dyn TableSource>,
        /// Full-schema column positions to emit, in order.
        column_ids: Vec<usize>,
        /// Pruning-only filters over full-schema column positions.
        filters: Vec<TableFilter>,
        names: Vec<String>,
        types: Vec<LogicalType>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Projection {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        groups: Vec<Expr>,
        aggs: Vec<AggExpr>,
        names: Vec<String>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<LogicalPlan>,
        limit: usize,
        offset: usize,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    /// Equi-join; the physical planner picks hash vs out-of-core merge
    /// based on the cooperation policy (§4).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    },
    NestedLoopJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        predicate: Expr,
    },
    CrossJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    Union {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// Constant rows (INSERT ... VALUES); expressions are input-free.
    Values {
        rows: Vec<Vec<Expr>>,
        types: Vec<LogicalType>,
        names: Vec<String>,
    },
    /// One row, no meaningful columns (`SELECT 1`).
    SingleRow,
    Insert {
        entry: Arc<TableEntry>,
        input: Box<LogicalPlan>,
    },
    Update {
        entry: Arc<TableEntry>,
        input: Box<LogicalPlan>,
        /// Physical indexes of assigned columns (child emits their new
        /// values in this order, then the row id).
        columns: Vec<usize>,
    },
    Delete {
        entry: Arc<TableEntry>,
        input: Box<LogicalPlan>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDefinition>,
        if_not_exists: bool,
        as_select: Option<Box<LogicalPlan>>,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    CreateView {
        name: String,
        sql: String,
        or_replace: bool,
    },
    DropView {
        name: String,
        if_exists: bool,
    },
    Begin,
    Commit,
    Rollback,
    Checkpoint,
    Pragma {
        name: String,
        value: Option<Value>,
    },
    Explain {
        input: Box<LogicalPlan>,
    },
    ShowTables,
    CopyFrom {
        entry: Arc<TableEntry>,
        path: String,
        options: CsvOptions,
    },
    CopyTo {
        input: Box<LogicalPlan>,
        path: String,
        options: CsvOptions,
    },
}

impl std::fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.explain().trim_end())
    }
}

impl LogicalPlan {
    /// Output column types.
    pub fn output_types(&self) -> Vec<LogicalType> {
        match self {
            LogicalPlan::TableScan { types, .. } | LogicalPlan::ExternalScan { types, .. } => {
                types.clone()
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.output_types(),
            LogicalPlan::Projection { exprs, .. } => exprs.iter().map(Expr::result_type).collect(),
            LogicalPlan::Aggregate { groups, aggs, .. } => {
                let mut t: Vec<LogicalType> = groups.iter().map(Expr::result_type).collect();
                t.extend(aggs.iter().map(AggExpr::result_type));
                t
            }
            LogicalPlan::Join { left, right, join_type, .. } => {
                let mut t = left.output_types();
                if matches!(join_type, JoinType::Inner | JoinType::Left) {
                    t.extend(right.output_types());
                }
                t
            }
            LogicalPlan::NestedLoopJoin { left, right, .. }
            | LogicalPlan::CrossJoin { left, right } => {
                let mut t = left.output_types();
                t.extend(right.output_types());
                t
            }
            LogicalPlan::Union { left, .. } => left.output_types(),
            LogicalPlan::Values { types, .. } => types.clone(),
            LogicalPlan::SingleRow => vec![LogicalType::Boolean],
            LogicalPlan::Insert { .. }
            | LogicalPlan::Update { .. }
            | LogicalPlan::Delete { .. }
            | LogicalPlan::CopyFrom { .. }
            | LogicalPlan::CopyTo { .. } => vec![LogicalType::BigInt],
            LogicalPlan::Explain { .. } | LogicalPlan::ShowTables => vec![LogicalType::Varchar],
            _ => Vec::new(),
        }
    }

    /// Output column names.
    pub fn output_names(&self) -> Vec<String> {
        match self {
            LogicalPlan::TableScan { names, .. } | LogicalPlan::ExternalScan { names, .. } => {
                names.clone()
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.output_names(),
            LogicalPlan::Projection { names, .. } | LogicalPlan::Aggregate { names, .. } => {
                names.clone()
            }
            LogicalPlan::Join { left, right, join_type, .. } => {
                let mut n = left.output_names();
                if matches!(join_type, JoinType::Inner | JoinType::Left) {
                    n.extend(right.output_names());
                }
                n
            }
            LogicalPlan::NestedLoopJoin { left, right, .. }
            | LogicalPlan::CrossJoin { left, right } => {
                let mut n = left.output_names();
                n.extend(right.output_names());
                n
            }
            LogicalPlan::Union { left, .. } => left.output_names(),
            LogicalPlan::Values { names, .. } => names.clone(),
            LogicalPlan::SingleRow => vec!["dummy".into()],
            LogicalPlan::Insert { .. }
            | LogicalPlan::Update { .. }
            | LogicalPlan::Delete { .. }
            | LogicalPlan::CopyFrom { .. }
            | LogicalPlan::CopyTo { .. } => vec!["Count".into()],
            LogicalPlan::Explain { .. } => vec!["explain".into()],
            LogicalPlan::ShowTables => vec!["name".into()],
            _ => Vec::new(),
        }
    }

    /// Human-readable tree for EXPLAIN.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let line: String = match self {
            LogicalPlan::TableScan { entry, column_ids, filters, .. } => {
                format!("SCAN {} cols={:?} filters={}", entry.name, column_ids, filters.len())
            }
            LogicalPlan::ExternalScan { source, column_ids, filters, .. } => {
                format!(
                    "EXTERNAL_SCAN {} cols={:?} prune_filters={}",
                    source.name(),
                    column_ids,
                    filters.len()
                )
            }
            LogicalPlan::Filter { .. } => "FILTER".into(),
            LogicalPlan::Projection { names, .. } => format!("PROJECT {names:?}"),
            LogicalPlan::Aggregate { groups, aggs, .. } => {
                format!("AGGREGATE groups={} aggs={}", groups.len(), aggs.len())
            }
            LogicalPlan::Sort { keys, .. } => format!("SORT keys={}", keys.len()),
            LogicalPlan::Limit { limit, offset, .. } => format!("LIMIT {limit} OFFSET {offset}"),
            LogicalPlan::Distinct { .. } => "DISTINCT".into(),
            LogicalPlan::Join { join_type, left_keys, .. } => {
                // The physical hash join always builds over its right
                // child; the optimizer's join reorderer places the
                // smaller estimated input there.
                format!("JOIN {join_type:?} keys={} build=right", left_keys.len())
            }
            LogicalPlan::NestedLoopJoin { .. } => "NESTED_LOOP_JOIN".into(),
            LogicalPlan::CrossJoin { .. } => "CROSS_JOIN build=right".into(),
            LogicalPlan::Union { .. } => "UNION_ALL".into(),
            LogicalPlan::Values { rows, .. } => format!("VALUES rows={}", rows.len()),
            LogicalPlan::SingleRow => "SINGLE_ROW".into(),
            LogicalPlan::Insert { entry, .. } => format!("INSERT INTO {}", entry.name),
            LogicalPlan::Update { entry, columns, .. } => {
                format!("UPDATE {} columns={:?}", entry.name, columns)
            }
            LogicalPlan::Delete { entry, .. } => format!("DELETE FROM {}", entry.name),
            LogicalPlan::CreateTable { name, .. } => format!("CREATE TABLE {name}"),
            LogicalPlan::DropTable { name, .. } => format!("DROP TABLE {name}"),
            LogicalPlan::CreateView { name, .. } => format!("CREATE VIEW {name}"),
            LogicalPlan::DropView { name, .. } => format!("DROP VIEW {name}"),
            LogicalPlan::Begin => "BEGIN".into(),
            LogicalPlan::Commit => "COMMIT".into(),
            LogicalPlan::Rollback => "ROLLBACK".into(),
            LogicalPlan::Checkpoint => "CHECKPOINT".into(),
            LogicalPlan::Pragma { name, .. } => format!("PRAGMA {name}"),
            LogicalPlan::Explain { .. } => "EXPLAIN".into(),
            LogicalPlan::ShowTables => "SHOW TABLES".into(),
            LogicalPlan::CopyFrom { entry, path, .. } => {
                format!("COPY {} FROM '{}'", entry.name, path)
            }
            LogicalPlan::CopyTo { path, .. } => format!("COPY TO '{}'", path),
        };
        out.push_str(&pad);
        out.push_str(&line);
        if self.has_cardinality() {
            out.push_str(&format!(" est={}", crate::optimizer::cardinality::estimate(self)));
        }
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// Nodes whose EXPLAIN line carries an estimated cardinality — the
    /// dataflow operators, not DDL/utility statements.
    fn has_cardinality(&self) -> bool {
        matches!(
            self,
            LogicalPlan::TableScan { .. }
                | LogicalPlan::ExternalScan { .. }
                | LogicalPlan::Filter { .. }
                | LogicalPlan::Projection { .. }
                | LogicalPlan::Aggregate { .. }
                | LogicalPlan::Sort { .. }
                | LogicalPlan::Limit { .. }
                | LogicalPlan::Distinct { .. }
                | LogicalPlan::Join { .. }
                | LogicalPlan::NestedLoopJoin { .. }
                | LogicalPlan::CrossJoin { .. }
                | LogicalPlan::Union { .. }
                | LogicalPlan::Values { .. }
        )
    }

    /// Immediate child plans.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Insert { input, .. }
            | LogicalPlan::Update { input, .. }
            | LogicalPlan::Delete { input, .. }
            | LogicalPlan::Explain { input }
            | LogicalPlan::CopyTo { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::NestedLoopJoin { left, right, .. }
            | LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::Union { left, right } => vec![left, right],
            LogicalPlan::CreateTable { as_select: Some(p), .. } => vec![p],
            _ => Vec::new(),
        }
    }
}
