//! Column pruning: a columnar engine should read only the columns a query
//! touches (§2). Runs last — every earlier pass can change which columns
//! are referenced.
//!
//! One top-down recursion over every plan node. Each call is handed the
//! output positions its parent reads and returns the rewritten node plus
//! the positions it kept — a sorted superset of those asked for. The
//! parent remaps its own expressions through that list (new position =
//! index in the list). Join inputs, filters and sorts pass the request
//! down with their own key and predicate columns added; non-root
//! projections drop the expressions nobody reads; scans narrow.

use super::{collect_columns, map_children, remap_columns};
use crate::plan::LogicalPlan;
use eider_exec::expression::Expr;
use eider_vector::{LogicalType, Result};
use std::collections::BTreeSet;

/// Prune every node below the root; the root keeps its full output.
pub(super) fn prune_columns(plan: LogicalPlan) -> Result<LogicalPlan> {
    let need = all(&plan);
    Ok(prune(plan, need)?.0)
}

/// Rewrite `plan` so it emits (at least) the output positions in `need`,
/// returning the rewritten node and the sorted list of the old positions
/// it still emits.
fn prune(mut plan: LogicalPlan, mut need: BTreeSet<usize>) -> Result<(LogicalPlan, Vec<usize>)> {
    if let LogicalPlan::TableScan { column_ids, names, types, emit_row_ids: false, .. }
    | LogicalPlan::ExternalScan { column_ids, names, types, .. } = &mut plan
    {
        let kept = narrow_scan(column_ids, names, types, need);
        return Ok((plan, kept));
    }
    Ok(match plan {
        LogicalPlan::Filter { input, mut predicate } => {
            collect_columns(&predicate, &mut need);
            let (input, kept) = prune(*input, need)?;
            remap(&mut predicate, &kept);
            (LogicalPlan::Filter { input: Box::new(input), predicate }, kept)
        }
        LogicalPlan::Sort { input, mut keys } => {
            keys.iter().for_each(|k| collect_columns(&k.expr, &mut need));
            let (input, kept) = prune(*input, need)?;
            keys.iter_mut().for_each(|k| remap(&mut k.expr, &kept));
            (LogicalPlan::Sort { input: Box::new(input), keys }, kept)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            let (input, kept) = prune(*input, need)?;
            (LogicalPlan::Limit { input: Box::new(input), limit, offset }, kept)
        }
        LogicalPlan::Projection { input, exprs, names } => {
            if need.is_empty() {
                // Chunks derive their row count from their columns.
                let types: Vec<LogicalType> = exprs.iter().map(Expr::result_type).collect();
                need.extend(narrowest(&types));
            }
            let (mut exprs, names): (Vec<Expr>, Vec<String>) = exprs
                .into_iter()
                .zip(names)
                .enumerate()
                .filter(|(i, _)| need.contains(i))
                .map(|(_, pair)| pair)
                .unzip();
            let mut used = BTreeSet::new();
            exprs.iter().for_each(|e| collect_columns(e, &mut used));
            let (input, kept) = prune(*input, used)?;
            exprs.iter_mut().for_each(|e| remap(e, &kept));
            (
                LogicalPlan::Projection { input: Box::new(input), exprs, names },
                need.into_iter().collect(),
            )
        }
        LogicalPlan::Aggregate { input, mut groups, mut aggs, names } => {
            let mut used = BTreeSet::new();
            groups.iter().for_each(|e| collect_columns(e, &mut used));
            aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(|e| collect_columns(e, &mut used));
            let (input, kept) = prune(*input, used)?;
            groups.iter_mut().for_each(|e| remap(e, &kept));
            aggs.iter_mut().filter_map(|a| a.arg.as_mut()).for_each(|e| remap(e, &kept));
            let width = groups.len() + aggs.len();
            let plan = LogicalPlan::Aggregate { input: Box::new(input), groups, aggs, names };
            (plan, (0..width).collect())
        }
        LogicalPlan::Join { left, right, join_type, mut left_keys, mut right_keys } => {
            let left_width = width(&left);
            // Semi and anti joins emit the left side only, so their right
            // side is asked for nothing beyond its keys.
            let (mut left_need, mut right_need) = split(need, left_width);
            left_keys.iter().for_each(|k| collect_columns(k, &mut left_need));
            right_keys.iter().for_each(|k| collect_columns(k, &mut right_need));
            let (left, left_kept) = prune(*left, left_need)?;
            let (right, right_kept) = prune(*right, right_need)?;
            left_keys.iter_mut().for_each(|k| remap(k, &left_kept));
            right_keys.iter_mut().for_each(|k| remap(k, &right_kept));
            let kept = if join_type.emits_right_columns() {
                concat(left_kept, right_kept, left_width)
            } else {
                left_kept
            };
            let plan = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                left_keys,
                right_keys,
            };
            (plan, kept)
        }
        LogicalPlan::NestedLoopJoin { left, right, mut predicate } => {
            collect_columns(&predicate, &mut need);
            let left_width = width(&left);
            let (left_need, right_need) = split(need, left_width);
            let (left, left_kept) = prune(*left, left_need)?;
            let (right, right_kept) = prune(*right, right_need)?;
            let kept = concat(left_kept, right_kept, left_width);
            remap(&mut predicate, &kept);
            let plan = LogicalPlan::NestedLoopJoin {
                left: Box::new(left),
                right: Box::new(right),
                predicate,
            };
            (plan, kept)
        }
        LogicalPlan::CrossJoin { left, right } => {
            let left_width = width(&left);
            let (left_need, right_need) = split(need, left_width);
            let (left, left_kept) = prune(*left, left_need)?;
            let (right, right_kept) = prune(*right, right_need)?;
            let plan = LogicalPlan::CrossJoin { left: Box::new(left), right: Box::new(right) };
            (plan, concat(left_kept, right_kept, left_width))
        }
        // Everything else keeps its full output width — DISTINCT and
        // UNION compare whole rows, DML and CTAS write whole rows, a
        // row-id scan feeds UPDATE/DELETE, EXPLAIN's input is a statement
        // root — and asks each input for all of its columns.
        other => {
            let plan = map_children(other, &|child| {
                let need = all(&child);
                Ok(prune(child, need)?.0)
            })?;
            let kept = (0..width(&plan)).collect();
            (plan, kept)
        }
    })
}

/// Narrow a scan's parallel `column_ids`/`names`/`types` lists to the
/// output positions in `need`, returning the positions kept.
///
/// Pushed [`eider_txn::TableFilter`]s address physical ids and keep
/// working when their column is no longer output. A scan asked for no
/// columns at all (bare `count(*)`) still reads one — chunks derive their
/// row count from their columns — so the narrowest one is kept.
fn narrow_scan(
    column_ids: &mut Vec<usize>,
    names: &mut Vec<String>,
    types: &mut Vec<LogicalType>,
    mut need: BTreeSet<usize>,
) -> Vec<usize> {
    if need.is_empty() {
        need.extend(narrowest(types));
    }
    let kept: Vec<usize> = need.into_iter().collect();
    if kept.len() < column_ids.len() {
        *column_ids = kept.iter().map(|&p| column_ids[p]).collect();
        *names = kept.iter().map(|&p| names[p].clone()).collect();
        *types = kept.iter().map(|&p| types[p]).collect();
    }
    kept
}

/// Position of the cheapest column to carry: fixed-width before strings.
fn narrowest(types: &[LogicalType]) -> Option<usize> {
    types
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| match t {
            LogicalType::Varchar => usize::MAX,
            t => t.physical_width(),
        })
        .map(|(i, _)| i)
}

fn width(plan: &LogicalPlan) -> usize {
    plan.output_types().len()
}

fn all(plan: &LogicalPlan) -> BTreeSet<usize> {
    (0..width(plan)).collect()
}

/// Split positions over a `left ++ right` output into each side's own.
fn split(need: BTreeSet<usize>, left_width: usize) -> (BTreeSet<usize>, BTreeSet<usize>) {
    let (left, right): (BTreeSet<usize>, BTreeSet<usize>) =
        need.into_iter().partition(|&p| p < left_width);
    (left, right.into_iter().map(|p| p - left_width).collect())
}

/// The kept positions of a `left ++ right` output.
fn concat(left: Vec<usize>, right: Vec<usize>, left_width: usize) -> Vec<usize> {
    left.into_iter().chain(right.into_iter().map(|p| p + left_width)).collect()
}

/// Rewrite `e`'s column references from old positions to their index in
/// `kept`.
fn remap(e: &mut Expr, kept: &[usize]) {
    remap_columns(e, &|old| kept.binary_search(&old).expect("kept covers every column asked for"));
}
