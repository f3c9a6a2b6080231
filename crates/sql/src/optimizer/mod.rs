//! The cost-based optimizer: discrete, composable rewrite passes over
//! bound logical plans.
//!
//! Pipeline (order matters):
//!
//! 1. `constant_fold` — evaluate input-free expressions once, turning
//!    `a > 2 + 3` into the pushable `a > 5`;
//! 2. `filter_pushdown` — split conjunctions and push
//!    `column <op> constant` conjuncts into table scans, where the zone
//!    maps of §6 skip whole row groups;
//! 3. `join_reorder` — flatten inner-join/cross-join regions and
//!    reorder them over estimated cardinalities ([`cardinality`]): DP
//!    over join subsets for small regions, greedy beyond, with the build
//!    (right) side of every join chosen small;
//! 4. `limit_pushdown` — sink LIMIT through 1:1 projections so fewer
//!    rows are materialized (and Top-N fusion sees `LIMIT` over `SORT`);
//! 5. `column_prune` — one top-down walk that hands every node the
//!    columns its parent reads: joins, filters and sorts add their keys,
//!    non-root projections drop unread expressions, and every scan —
//!    join inputs included — reads only what the query needs (§2).
//!
//! Filter pushdown runs before join reordering so scans carry their
//! filters when [`cardinality`] estimates them; column pruning runs last
//! because every earlier pass can change which columns are referenced.
//!
//! Statistics come from [`eider_txn::TableStats`] — row counts, zone-map
//! min/max and encoding-based distinct estimates maintained by storage —
//! so plan quality needs no ANALYZE step and no DBA, per the paper's
//! embedded-analytics thesis.

pub mod cardinality;
mod column_prune;
mod constant_fold;
mod filter_pushdown;
mod join_reorder;
mod limit_pushdown;

use crate::plan::LogicalPlan;
use eider_exec::expression::Expr;
use eider_vector::Result;
use std::collections::BTreeSet;

/// Run all rewrite passes.
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = constant_fold::fold_constants(plan)?;
    let plan = filter_pushdown::push_filters(plan)?;
    let plan = join_reorder::reorder_joins(plan)?;
    let plan = limit_pushdown::push_limits(plan)?;
    let plan = column_prune::prune_columns(plan)?;
    Ok(plan)
}

// ---------------- shared plan/expression walkers ----------------

/// Rebuild `plan` with each *direct* child passed through `f`.
pub(crate) fn map_children(
    plan: LogicalPlan,
    f: &dyn Fn(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(f(*input)?), predicate }
        }
        LogicalPlan::Projection { input, exprs, names } => {
            LogicalPlan::Projection { input: Box::new(f(*input)?), exprs, names }
        }
        LogicalPlan::Aggregate { input, groups, aggs, names } => {
            LogicalPlan::Aggregate { input: Box::new(f(*input)?), groups, aggs, names }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(f(*input)?), keys }
        }
        LogicalPlan::Limit { input, limit, offset } => {
            LogicalPlan::Limit { input: Box::new(f(*input)?), limit, offset }
        }
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: Box::new(f(*input)?) },
        LogicalPlan::Join { left, right, join_type, left_keys, right_keys } => LogicalPlan::Join {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            join_type,
            left_keys,
            right_keys,
        },
        LogicalPlan::NestedLoopJoin { left, right, predicate } => LogicalPlan::NestedLoopJoin {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            predicate,
        },
        LogicalPlan::CrossJoin { left, right } => {
            LogicalPlan::CrossJoin { left: Box::new(f(*left)?), right: Box::new(f(*right)?) }
        }
        LogicalPlan::Union { left, right } => {
            LogicalPlan::Union { left: Box::new(f(*left)?), right: Box::new(f(*right)?) }
        }
        LogicalPlan::Insert { entry, input } => {
            LogicalPlan::Insert { entry, input: Box::new(f(*input)?) }
        }
        LogicalPlan::Update { entry, input, columns } => {
            LogicalPlan::Update { entry, input: Box::new(f(*input)?), columns }
        }
        LogicalPlan::Delete { entry, input } => {
            LogicalPlan::Delete { entry, input: Box::new(f(*input)?) }
        }
        LogicalPlan::Explain { input } => LogicalPlan::Explain { input: Box::new(f(*input)?) },
        LogicalPlan::CopyTo { input, path, options } => {
            LogicalPlan::CopyTo { input: Box::new(f(*input)?), path, options }
        }
        LogicalPlan::CreateTable { name, columns, if_not_exists, as_select } => {
            LogicalPlan::CreateTable {
                name,
                columns,
                if_not_exists,
                as_select: match as_select {
                    Some(p) => Some(Box::new(f(*p)?)),
                    None => None,
                },
            }
        }
        leaf => leaf,
    })
}

/// Bottom-up plan rewrite: children first, then `f` on the rebuilt node.
pub(crate) fn map_plan(
    plan: LogicalPlan,
    f: &dyn Fn(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    let rewritten = map_children(plan, &|child| map_plan(child, f))?;
    f(rewritten)
}

/// Split a predicate on top-level ANDs.
pub(crate) fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(children) => {
            for c in children {
                split_conjuncts(c, out);
            }
        }
        other => out.push(other),
    }
}

/// Collect every input column index an expression references.
pub(crate) fn collect_columns(e: &Expr, out: &mut BTreeSet<usize>) {
    match e {
        Expr::ColumnRef { index, .. } => {
            out.insert(*index);
        }
        Expr::Constant { .. } => {}
        Expr::Compare { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| collect_columns(e, out)),
        Expr::Not(child) | Expr::Cast { child, .. } | Expr::IsNull { child, .. } => {
            collect_columns(child, out)
        }
        Expr::Arithmetic { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::Case { branches, else_expr, .. } => {
            for (when, then) in branches {
                collect_columns(when, out);
                collect_columns(then, out);
            }
            if let Some(e) = else_expr {
                collect_columns(e, out);
            }
        }
        Expr::Function { args, .. } => args.iter().for_each(|e| collect_columns(e, out)),
        Expr::Like { child, pattern, .. } => {
            collect_columns(child, out);
            collect_columns(pattern, out);
        }
        Expr::InList { child, list, .. } => {
            collect_columns(child, out);
            list.iter().for_each(|e| collect_columns(e, out));
        }
    }
}

/// Rewrite column references through `map(old) = new`.
pub(crate) fn remap_columns(e: &mut Expr, map: &dyn Fn(usize) -> usize) {
    match e {
        Expr::ColumnRef { index, .. } => *index = map(*index),
        Expr::Constant { .. } => {}
        Expr::Compare { left, right, .. } => {
            remap_columns(left, map);
            remap_columns(right, map);
        }
        Expr::And(es) | Expr::Or(es) => es.iter_mut().for_each(|e| remap_columns(e, map)),
        Expr::Not(child) | Expr::Cast { child, .. } | Expr::IsNull { child, .. } => {
            remap_columns(child, map)
        }
        Expr::Arithmetic { left, right, .. } => {
            remap_columns(left, map);
            remap_columns(right, map);
        }
        Expr::Case { branches, else_expr, .. } => {
            for (when, then) in branches {
                remap_columns(when, map);
                remap_columns(then, map);
            }
            if let Some(e) = else_expr {
                remap_columns(e, map);
            }
        }
        Expr::Function { args, .. } => args.iter_mut().for_each(|e| remap_columns(e, map)),
        Expr::Like { child, pattern, .. } => {
            remap_columns(child, map);
            remap_columns(pattern, map);
        }
        Expr::InList { child, list, .. } => {
            remap_columns(child, map);
            list.iter_mut().for_each(|e| remap_columns(e, map));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::parser::parse_statements;
    use eider_catalog::{Catalog, ColumnDefinition};
    use eider_vector::LogicalType;

    fn optimized(sql: &str) -> String {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            vec![
                ColumnDefinition::new("a", LogicalType::Integer),
                ColumnDefinition::new("b", LogicalType::Varchar),
            ],
            false,
        )
        .unwrap();
        cat.create_table(
            "u",
            vec![
                ColumnDefinition::new("a", LogicalType::Integer),
                ColumnDefinition::new("c", LogicalType::BigInt),
                ColumnDefinition::new("d", LogicalType::Varchar),
            ],
            false,
        )
        .unwrap();
        let stmts = parse_statements(sql).unwrap();
        let plan = Binder::new(cat).bind_statement(&stmts[0]).unwrap();
        optimize(plan).unwrap().explain()
    }

    #[test]
    fn constant_folding_in_filters() {
        let text = optimized("SELECT a FROM t WHERE a > 2 + 3");
        // 2 + 3 folds to a constant, so the comparison becomes pushable.
        assert!(text.contains("SCAN t cols=[0] filters=1"), "{text}");
        assert!(!text.contains("FILTER"), "{text}");
    }

    #[test]
    fn simple_predicates_pushed_into_scan() {
        let text = optimized("SELECT a FROM t WHERE a = -999");
        assert!(text.contains("filters=1"), "{text}");
        let text = optimized("SELECT a FROM t WHERE 10 >= a AND a > 1");
        assert!(text.contains("filters=2"), "{text}");
        assert!(!text.contains("FILTER"), "{text}");
    }

    #[test]
    fn complex_predicates_stay_as_filters() {
        let text = optimized("SELECT a FROM t WHERE a + 1 > 5");
        assert!(text.contains("filters=0"), "{text}");
        assert!(text.contains("FILTER"), "{text}");
        // OR cannot be split.
        let text = optimized("SELECT a FROM t WHERE a = 1 OR a = 2");
        assert!(text.contains("filters=0"), "{text}");
        assert!(text.contains("FILTER"), "{text}");
    }

    #[test]
    fn mixed_conjuncts_split() {
        let text = optimized("SELECT a FROM t WHERE a > 5 AND length(b) > 2");
        assert!(text.contains("filters=1"), "{text}");
        assert!(text.contains("FILTER"), "{text}");
    }

    #[test]
    fn filters_map_output_to_physical_columns() {
        // Scan emits [a, b]; predicate on b (output index 1, physical 1).
        // Pruning then narrows the scan to b alone — physical column 1.
        let text = optimized("SELECT b FROM t WHERE b = 'x'");
        assert!(text.contains("SCAN t cols=[1] filters=1"), "{text}");
    }

    #[test]
    fn null_comparisons_not_pushed() {
        // a = NULL never matches anything, but pushing it as a zone-map
        // filter would be wrong — keep it in the filter node.
        let text = optimized("SELECT a FROM t WHERE a = NULL");
        assert!(text.contains("filters=0"), "{text}");
        assert!(text.contains("FILTER"), "{text}");
    }

    #[test]
    fn limit_sinks_through_projection() {
        let text = optimized("SELECT a + 1 FROM t LIMIT 3");
        let project = text.find("PROJECT").expect("projection");
        let limit = text.find("LIMIT").expect("limit");
        assert!(limit > project, "LIMIT should sit under PROJECT:\n{text}");
    }

    #[test]
    fn limit_stays_above_sort_for_topn() {
        // Top-N fusion in the physical planner needs LIMIT directly above
        // SORT; the pass must not push through the sort.
        let text = optimized("SELECT a FROM t ORDER BY a LIMIT 3");
        let limit = text.find("LIMIT").expect("limit");
        let sort = text.find("SORT").expect("sort");
        assert!(limit < sort, "LIMIT must stay above SORT:\n{text}");
    }

    /// The SCAN / EXTERNAL_SCAN lines of the optimized plan, in plan order,
    /// without their estimates.
    fn scans(sql: &str) -> Vec<String> {
        optimized(sql)
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("SCAN") || l.starts_with("EXTERNAL_SCAN"))
            .map(|l| l.split(" est=").next().expect("split yields one part").to_string())
            .collect()
    }

    #[test]
    fn equi_join_inputs_read_only_outputs_and_keys() {
        // Inner: t contributes only its key, u its key and the output.
        assert_eq!(
            scans("SELECT u.c FROM t JOIN u ON t.a = u.a"),
            ["SCAN t cols=[0] filters=0", "SCAN u cols=[0, 1] filters=0"]
        );
        // LEFT: the same split; u.d is read by nobody.
        assert_eq!(
            scans("SELECT t.b, u.c FROM t LEFT JOIN u ON t.a = u.a"),
            ["SCAN t cols=[0, 1] filters=0", "SCAN u cols=[0, 1] filters=0"]
        );
    }

    #[test]
    fn semi_and_anti_joins_read_only_keys_from_the_right() {
        assert_eq!(
            scans("SELECT d FROM u WHERE c IN (SELECT a FROM t)"),
            ["SCAN u cols=[1, 2] filters=0", "SCAN t cols=[0] filters=0"]
        );
        assert_eq!(
            scans("SELECT d FROM u WHERE a NOT IN (SELECT a FROM t)"),
            ["SCAN u cols=[0, 2] filters=0", "SCAN t cols=[0] filters=0"]
        );
    }

    #[test]
    fn nested_loop_and_cross_joins_split_the_request() {
        // The inequality predicate's columns join the request.
        let text = optimized("SELECT t.b FROM t JOIN u ON t.a < u.c");
        assert!(text.contains("NESTED_LOOP_JOIN"), "{text}");
        assert_eq!(
            scans("SELECT t.b FROM t JOIN u ON t.a < u.c"),
            ["SCAN t cols=[0, 1] filters=0", "SCAN u cols=[1] filters=0"]
        );
        // count(*) over a comma join reads nothing: each side keeps its
        // narrowest column (u.a is an INTEGER, u.c a BIGINT).
        let text = optimized("SELECT count(*) FROM t, u");
        assert!(text.contains("CROSS_JOIN"), "{text}");
        assert_eq!(
            scans("SELECT count(*) FROM t, u"),
            ["SCAN t cols=[0] filters=0", "SCAN u cols=[0] filters=0"]
        );
    }

    #[test]
    fn distinct_sort_and_union_prune_below_themselves() {
        assert_eq!(
            scans("SELECT DISTINCT u.d FROM t JOIN u ON t.a = u.a"),
            ["SCAN t cols=[0] filters=0", "SCAN u cols=[0, 2] filters=0"]
        );
        // The sort key c is read by nobody above the LIMIT but stays; the
        // inner projection drops d, which nothing reads.
        let sql = "SELECT s.b FROM (SELECT t.b AS b, u.c AS c, u.d AS d \
                   FROM t JOIN u ON t.a = u.a ORDER BY c LIMIT 5) s";
        let text = optimized(sql);
        assert!(text.contains("LIMIT 5") && text.contains("SORT keys=1"), "{text}");
        assert!(text.contains("PROJECT [\"b\", \"c\"]"), "{text}");
        assert_eq!(scans(sql), ["SCAN t cols=[0, 1] filters=0", "SCAN u cols=[0, 1] filters=0"]);
        assert_eq!(
            scans(
                "SELECT t.b FROM t JOIN u ON t.a = u.a \
                 UNION ALL SELECT u.d FROM u JOIN t ON u.c = t.a"
            ),
            [
                "SCAN t cols=[0, 1] filters=0",
                "SCAN u cols=[0] filters=0",
                "SCAN u cols=[1, 2] filters=0",
                "SCAN t cols=[0] filters=0",
            ]
        );
    }

    #[test]
    fn insert_select_and_ctas_prune_their_query() {
        assert_eq!(
            scans("INSERT INTO t SELECT u.a, u.d FROM u JOIN t ON u.a = t.a"),
            ["SCAN u cols=[0, 2] filters=0", "SCAN t cols=[0] filters=0"]
        );
        assert_eq!(
            scans("CREATE TABLE v AS SELECT u.c FROM u JOIN t ON u.a = t.a"),
            ["SCAN u cols=[0, 1] filters=0", "SCAN t cols=[0] filters=0"]
        );
    }

    #[test]
    fn external_scans_narrow_under_a_join() {
        let path = std::env::temp_dir().join(format!("eider_prune_{}.csv", std::process::id()));
        std::fs::write(&path, "x,y,z\n10,20,30\n11,21,31\n").unwrap();
        let sql = format!("SELECT r.z FROM read_csv('{}') r JOIN t ON r.x = t.a", path.display());
        let got = scans(&sql);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(
            got[0].starts_with("EXTERNAL_SCAN ")
                && got[0].ends_with(" cols=[0, 2] prune_filters=0"),
            "{got:?}"
        );
        assert_eq!(got[1], "SCAN t cols=[0] filters=0");
    }

    #[test]
    fn filter_columns_need_not_be_output() {
        // Pushed into the scan: u.c is filtered on but never emitted.
        assert_eq!(
            scans("SELECT t.b FROM t JOIN u ON t.a = u.a WHERE u.c > 5"),
            ["SCAN t cols=[0, 1] filters=0", "SCAN u cols=[0] filters=1"]
        );
        // A residual filter reads its column from the scan's output.
        assert_eq!(
            scans("SELECT t.b FROM t JOIN u ON t.a = u.a WHERE u.c + 1 > 5"),
            ["SCAN t cols=[0, 1] filters=0", "SCAN u cols=[0, 1] filters=0"]
        );
    }

    #[test]
    fn row_id_scans_stay_whole() {
        assert_eq!(scans("UPDATE t SET b = 'x' WHERE a = 1"), ["SCAN t cols=[0, 1] filters=1"]);
        assert_eq!(scans("DELETE FROM u WHERE c = 1"), ["SCAN u cols=[0, 1, 2] filters=1"]);
    }
}
