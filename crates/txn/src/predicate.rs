//! Scan filters, read predicates and write summaries.
//!
//! Three related concepts share the comparison machinery:
//! * [`TableFilter`] — a pushed-down scan predicate, used both for exact
//!   row filtering and conservative zone-map skipping;
//! * [`ReadPredicate`] — what a transaction *remembers* about its reads for
//!   commit-time serializability validation (HyPer's precision locking,
//!   §6; we summarize predicates as per-column ranges, which is
//!   conservative: it may abort a serializable schedule, never accept a
//!   non-serializable one);
//! * `WriteSummary` (in [`crate::manager`]) — per-column value ranges a
//!   committed transaction wrote, tested for intersection with later
//!   committers' read predicates.

use eider_vector::{value_at, Value, Vector};
use std::cmp::Ordering;

/// Comparison operator for pushed-down filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    pub fn evaluate(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }

    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

/// A pushed-down predicate: `column <op> constant`.
#[derive(Debug, Clone)]
pub struct TableFilter {
    /// Index into the table's physical columns.
    pub column: usize,
    pub op: CmpOp,
    pub value: Value,
}

impl TableFilter {
    pub fn new(column: usize, op: CmpOp, value: Value) -> Self {
        TableFilter { column, op, value }
    }

    /// Exact evaluation against one value (NULL never matches, SQL
    /// three-valued logic collapsed to false for filtering).
    pub fn matches(&self, v: &Value) -> bool {
        match v.sql_cmp(&self.value) {
            Some(ord) => self.op.evaluate(ord),
            None => false,
        }
    }

    /// Conservative test against a zone map: can *any* value in
    /// `[min, max]` match? `true` means the row group must be scanned.
    pub fn zone_may_match(&self, min: &Value, max: &Value) -> bool {
        match self.op {
            CmpOp::Eq => {
                // value within [min, max]?
                self.value.total_cmp(min) != Ordering::Less
                    && self.value.total_cmp(max) != Ordering::Greater
            }
            CmpOp::NotEq => {
                // Only skippable when the whole group is exactly `value`.
                !(min == &self.value && max == &self.value)
            }
            CmpOp::Lt => min.total_cmp(&self.value) == Ordering::Less,
            CmpOp::LtEq => min.total_cmp(&self.value) != Ordering::Greater,
            CmpOp::Gt => max.total_cmp(&self.value) == Ordering::Greater,
            CmpOp::GtEq => max.total_cmp(&self.value) != Ordering::Less,
        }
    }

    /// Vectorized evaluation into a selection of qualifying row indexes,
    /// refining an existing selection.
    pub fn filter_vector(&self, vector: &Vector, sel: &mut Vec<u32>) {
        // Compressed-domain short-circuits: evaluate the comparison once
        // per distinct value (dictionary) or once per run (RLE) and then
        // consult only the keep table per row — whole runs of a losing
        // value drop without a single per-row comparison.
        if let Some((dict, codes)) = vector.dict_parts() {
            // Decided on first use: a slice of a row group's dictionary
            // may use far fewer entries than the dictionary holds.
            let mut keep: Vec<Option<bool>> = vec![None; dict.len()];
            sel.retain(|&row| {
                let row = row as usize;
                let code = codes[row];
                !vector.is_null(row)
                    && *keep[code as usize].get_or_insert_with(|| {
                        self.matches(&Value::Varchar(dict.get(code).to_owned()))
                    })
            });
            return;
        }
        if let Some((runs, starts)) = vector.rle_parts() {
            let ty = vector.logical_type();
            let keep: Vec<bool> =
                (0..starts.len()).map(|i| self.matches(&value_at(runs, ty, i))).collect();
            sel.retain(|&row| {
                if vector.is_null(row as usize) {
                    return false;
                }
                let run = starts.partition_point(|&s| s <= row) - 1;
                keep[run]
            });
            return;
        }
        sel.retain(|&row| {
            let v = vector.get_value(row as usize);
            self.matches(&v)
        });
    }

    /// The value range this predicate can possibly select, as
    /// `(lower, upper)` with `None` meaning unbounded. Used to build read
    /// predicates for validation.
    pub fn selected_range(&self) -> (Option<Value>, Option<Value>) {
        match self.op {
            CmpOp::Eq => (Some(self.value.clone()), Some(self.value.clone())),
            CmpOp::NotEq => (None, None),
            CmpOp::Lt | CmpOp::LtEq => (None, Some(self.value.clone())),
            CmpOp::Gt | CmpOp::GtEq => (Some(self.value.clone()), None),
        }
    }
}

/// What a transaction remembers about a read, for commit-time validation.
#[derive(Debug, Clone)]
pub struct ReadPredicate {
    pub table_id: u64,
    /// `None` = unpredicated (whole-table) read: conflicts with any write.
    pub column: Option<usize>,
    /// Inclusive bounds; `None` = unbounded on that side.
    pub lower: Option<Value>,
    pub upper: Option<Value>,
}

impl ReadPredicate {
    pub fn whole_table(table_id: u64) -> Self {
        ReadPredicate { table_id, column: None, lower: None, upper: None }
    }

    pub fn from_filter(table_id: u64, filter: &TableFilter) -> Self {
        let (lower, upper) = filter.selected_range();
        ReadPredicate { table_id, column: Some(filter.column), lower, upper }
    }

    /// Does a written value range `[wmin, wmax]` on `column` intersect this
    /// predicate?
    pub fn overlaps(&self, column: usize, wmin: &Value, wmax: &Value) -> bool {
        match self.column {
            None => true,
            Some(c) if c != column => false,
            Some(_) => {
                let below = match &self.upper {
                    Some(u) => wmin.total_cmp(u) != Ordering::Greater,
                    None => true,
                };
                let above = match &self.lower {
                    Some(l) => wmax.total_cmp(l) != Ordering::Less,
                    None => true,
                };
                below && above
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_vector::LogicalType;

    #[test]
    fn cmp_op_evaluation() {
        assert!(CmpOp::Lt.evaluate(Ordering::Less));
        assert!(!CmpOp::Lt.evaluate(Ordering::Equal));
        assert!(CmpOp::LtEq.evaluate(Ordering::Equal));
        assert!(CmpOp::NotEq.evaluate(Ordering::Greater));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn filter_matches_with_null_semantics() {
        let f = TableFilter::new(0, CmpOp::Eq, Value::Integer(-999));
        assert!(f.matches(&Value::Integer(-999)));
        assert!(!f.matches(&Value::Integer(0)));
        assert!(!f.matches(&Value::Null), "NULL never matches a filter");
    }

    #[test]
    fn zone_map_skipping() {
        let f = TableFilter::new(0, CmpOp::Gt, Value::Integer(100));
        assert!(!f.zone_may_match(&Value::Integer(0), &Value::Integer(100)));
        assert!(f.zone_may_match(&Value::Integer(0), &Value::Integer(101)));
        let eq = TableFilter::new(0, CmpOp::Eq, Value::Integer(50));
        assert!(eq.zone_may_match(&Value::Integer(0), &Value::Integer(100)));
        assert!(!eq.zone_may_match(&Value::Integer(60), &Value::Integer(100)));
    }

    #[test]
    fn filter_vector_refines_selection() {
        let v = Vector::from_values(
            LogicalType::Integer,
            &[Value::Integer(1), Value::Null, Value::Integer(3), Value::Integer(4)],
        )
        .unwrap();
        let f = TableFilter::new(0, CmpOp::GtEq, Value::Integer(3));
        let mut sel: Vec<u32> = vec![0, 1, 2, 3];
        f.filter_vector(&v, &mut sel);
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn read_predicate_overlap() {
        let f = TableFilter::new(2, CmpOp::Eq, Value::Integer(-999));
        let p = ReadPredicate::from_filter(1, &f);
        assert!(p.overlaps(2, &Value::Integer(-1000), &Value::Integer(0)));
        assert!(!p.overlaps(2, &Value::Integer(0), &Value::Integer(10)));
        assert!(!p.overlaps(3, &Value::Integer(-999), &Value::Integer(-999)));
        let whole = ReadPredicate::whole_table(1);
        assert!(whole.overlaps(7, &Value::Integer(1), &Value::Integer(1)));
    }

    #[test]
    fn unbounded_ranges() {
        let f = TableFilter::new(0, CmpOp::Lt, Value::Integer(10));
        let p = ReadPredicate::from_filter(1, &f);
        assert!(p.overlaps(0, &Value::Integer(-1_000_000), &Value::Integer(-999_999)));
        assert!(!p.overlaps(0, &Value::Integer(11), &Value::Integer(20)));
        // boundary: Lt 10 has upper bound 10 inclusive in the conservative
        // range — writes at exactly 10 conservatively conflict.
        assert!(p.overlaps(0, &Value::Integer(10), &Value::Integer(12)));
    }
}
