//! Vectorized expression evaluation.
//!
//! Expressions evaluate over a whole [`DataChunk`] at a time, producing a
//! new [`Vector`]. The hot kernels — comparisons and arithmetic over
//! matching numeric types — run as tight typed loops over slices; mixed or
//! rare combinations fall back to value-at-a-time evaluation. This is the
//! architectural answer to §2's requirement that "only a comparably low
//! amount of CPU cycles per value can be spent": interpretation overhead is
//! paid once per 2048-row vector, not once per value (the `section2`
//! regenerator measures the difference against the row-at-a-time baseline).
//!
//! Expressions also evaluate row-wise ([`Expr::evaluate_row`]) for the
//! optimizer's constant folding and for the §2 baseline engine in
//! `crates/bench`.

use eider_txn::CmpOp;
use eider_vector::{
    DataChunk, EiderError, LogicalType, Result, SelectionVector, Value, Vector, VectorData,
};
use std::cmp::Ordering;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Round,
    Floor,
    Ceil,
    Sqrt,
    Length,
    Lower,
    Upper,
    Substr,
    Concat,
    Coalesce,
    NullIf,
}

impl ScalarFunc {
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "sqrt" => ScalarFunc::Sqrt,
            "length" | "len" | "strlen" => ScalarFunc::Length,
            "lower" | "lcase" => ScalarFunc::Lower,
            "upper" | "ucase" => ScalarFunc::Upper,
            "substr" | "substring" => ScalarFunc::Substr,
            "concat" => ScalarFunc::Concat,
            "coalesce" | "ifnull" => ScalarFunc::Coalesce,
            "nullif" => ScalarFunc::NullIf,
            _ => return None,
        })
    }

    /// Result type given argument types (after binder validation).
    pub fn result_type(&self, args: &[LogicalType]) -> LogicalType {
        match self {
            ScalarFunc::Abs => args.first().copied().unwrap_or(LogicalType::Double),
            ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Sqrt => {
                LogicalType::Double
            }
            ScalarFunc::Length => LogicalType::BigInt,
            ScalarFunc::Lower | ScalarFunc::Upper | ScalarFunc::Substr | ScalarFunc::Concat => {
                LogicalType::Varchar
            }
            ScalarFunc::Coalesce | ScalarFunc::NullIf => {
                args.first().copied().unwrap_or(LogicalType::Varchar)
            }
        }
    }
}

/// A physical (bound, typed) expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Reference to a column of the input chunk.
    ColumnRef {
        index: usize,
        ty: LogicalType,
    },
    Constant {
        value: Value,
        ty: LogicalType,
    },
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arithmetic {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
        ty: LogicalType,
    },
    Cast {
        child: Box<Expr>,
        to: LogicalType,
    },
    IsNull {
        child: Box<Expr>,
        negated: bool,
    },
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
        ty: LogicalType,
    },
    Function {
        func: ScalarFunc,
        args: Vec<Expr>,
        ty: LogicalType,
    },
    Like {
        child: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    InList {
        child: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
}

impl Expr {
    pub fn column(index: usize, ty: LogicalType) -> Expr {
        Expr::ColumnRef { index, ty }
    }

    pub fn constant(value: Value) -> Expr {
        let ty = value.logical_type().unwrap_or(LogicalType::Integer);
        Expr::Constant { value, ty }
    }

    pub fn result_type(&self) -> LogicalType {
        match self {
            Expr::ColumnRef { ty, .. } => *ty,
            Expr::Constant { ty, .. } => *ty,
            Expr::Compare { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::IsNull { .. }
            | Expr::Like { .. }
            | Expr::InList { .. } => LogicalType::Boolean,
            Expr::Arithmetic { ty, .. } => *ty,
            Expr::Cast { to, .. } => *to,
            Expr::Case { ty, .. } => *ty,
            Expr::Function { ty, .. } => *ty,
        }
    }

    /// True if no column references appear (constant-foldable).
    pub fn is_constant(&self) -> bool {
        match self {
            Expr::ColumnRef { .. } => false,
            Expr::Constant { .. } => true,
            Expr::Compare { left, right, .. } => left.is_constant() && right.is_constant(),
            Expr::And(c) | Expr::Or(c) => c.iter().all(Expr::is_constant),
            Expr::Not(c) => c.is_constant(),
            Expr::Arithmetic { left, right, .. } => left.is_constant() && right.is_constant(),
            Expr::Cast { child, .. } => child.is_constant(),
            Expr::IsNull { child, .. } => child.is_constant(),
            Expr::Case { branches, else_expr, .. } => {
                branches.iter().all(|(c, v)| c.is_constant() && v.is_constant())
                    && else_expr.as_ref().is_none_or(|e| e.is_constant())
            }
            Expr::Function { args, .. } => args.iter().all(Expr::is_constant),
            Expr::Like { child, pattern, .. } => child.is_constant() && pattern.is_constant(),
            Expr::InList { child, list, .. } => {
                child.is_constant() && list.iter().all(Expr::is_constant)
            }
        }
    }

    /// Evaluate over a chunk, producing one value per input row.
    pub fn evaluate(&self, chunk: &DataChunk) -> Result<Vector> {
        let count = chunk.len();
        match self {
            Expr::ColumnRef { index, .. } => Ok(chunk.column(*index).clone()),
            Expr::Constant { value, ty } => Vector::constant(*ty, value, count),
            Expr::Compare { op, left, right } => {
                let l = left.evaluate(chunk)?;
                let r = right.evaluate(chunk)?;
                compare_vectors(*op, &l, &r)
            }
            Expr::And(children) => {
                let vecs: Vec<Vector> =
                    children.iter().map(|c| c.evaluate(chunk)).collect::<Result<_>>()?;
                conjunction(&vecs, true, count)
            }
            Expr::Or(children) => {
                let vecs: Vec<Vector> =
                    children.iter().map(|c| c.evaluate(chunk)).collect::<Result<_>>()?;
                conjunction(&vecs, false, count)
            }
            Expr::Not(child) => {
                let v = child.evaluate(chunk)?;
                let mut out = Vector::with_capacity(LogicalType::Boolean, v.len());
                for i in 0..v.len() {
                    match v.get_value(i) {
                        Value::Null => out.push_null(),
                        Value::Boolean(b) => out.push_value(&Value::Boolean(!b))?,
                        other => {
                            return Err(EiderError::TypeMismatch(format!(
                                "NOT applied to non-boolean {other}"
                            )))
                        }
                    }
                }
                Ok(out)
            }
            Expr::Arithmetic { op, left, right, ty } => {
                let l = left.evaluate(chunk)?.cast(*ty)?;
                let r = right.evaluate(chunk)?.cast(*ty)?;
                arithmetic_vectors(*op, &l, &r, *ty)
            }
            Expr::Cast { child, to } => child.evaluate(chunk)?.cast(*to),
            Expr::IsNull { child, negated } => {
                let v = child.evaluate(chunk)?;
                let mut out = Vector::with_capacity(LogicalType::Boolean, v.len());
                for i in 0..v.len() {
                    let is_null = v.is_null(i);
                    out.push_value(&Value::Boolean(is_null != *negated))?;
                }
                Ok(out)
            }
            Expr::Case { branches, else_expr, ty } => {
                // Row-wise: CASE is control flow; lazy evaluation per row
                // avoids spurious errors in untaken branches.
                let mut out = Vector::with_capacity(*ty, count);
                for row in 0..count {
                    let vals = chunk.row_values(row);
                    out.push_value(&self.case_row(branches, else_expr, &vals)?)?;
                }
                Ok(out)
            }
            Expr::Function { func, args, ty } => {
                let arg_vecs: Vec<Vector> =
                    args.iter().map(|a| a.evaluate(chunk)).collect::<Result<_>>()?;
                let mut out = Vector::with_capacity(*ty, count);
                let mut scratch = Vec::with_capacity(arg_vecs.len());
                for row in 0..count {
                    scratch.clear();
                    for v in &arg_vecs {
                        scratch.push(v.get_value(row));
                    }
                    out.push_value(&evaluate_function(*func, &scratch)?)?;
                }
                Ok(out)
            }
            Expr::Like { child, pattern, negated } => {
                let c = child.evaluate(chunk)?;
                // Constant patterns (the common `col LIKE 'x%'` shape) are
                // extracted, validated and compiled ONCE per vector; only
                // the match itself runs per row.
                if pattern.is_constant() {
                    return match pattern.evaluate_row(&[])? {
                        Value::Null => {
                            let mut out = Vector::with_capacity(LogicalType::Boolean, count);
                            for _ in 0..count {
                                out.push_null();
                            }
                            Ok(out)
                        }
                        Value::Varchar(p) => {
                            let matcher = LikeMatcher::new(&p);
                            let mut out = Vector::with_capacity(LogicalType::Boolean, count);
                            match c.data() {
                                VectorData::Str(d) => {
                                    let validity = c.validity();
                                    for (i, s) in d.iter().enumerate() {
                                        if validity.is_valid(i) {
                                            out.push_value(&Value::Boolean(
                                                matcher.matches(s) != *negated,
                                            ))?;
                                        } else {
                                            out.push_null();
                                        }
                                    }
                                    Ok(out)
                                }
                                _ => {
                                    if c.validity().count_valid() == 0 {
                                        for _ in 0..count {
                                            out.push_null();
                                        }
                                        return Ok(out);
                                    }
                                    Err(EiderError::TypeMismatch(format!(
                                        "LIKE requires strings, got {} LIKE pattern",
                                        c.logical_type()
                                    )))
                                }
                            }
                        }
                        other => Err(EiderError::TypeMismatch(format!(
                            "LIKE requires a string pattern, got {other}"
                        ))),
                    };
                }
                let p = pattern.evaluate(chunk)?;
                let mut out = Vector::with_capacity(LogicalType::Boolean, count);
                for row in 0..count {
                    match (c.get_value(row), p.get_value(row)) {
                        (Value::Null, _) | (_, Value::Null) => out.push_null(),
                        (Value::Varchar(s), Value::Varchar(pat)) => {
                            out.push_value(&Value::Boolean(like_match(&pat, &s) != *negated))?
                        }
                        (a, b) => {
                            return Err(EiderError::TypeMismatch(format!(
                                "LIKE requires strings, got {a} LIKE {b}"
                            )))
                        }
                    }
                }
                Ok(out)
            }
            Expr::InList { child, list, negated } => {
                let c = child.evaluate(chunk)?;
                // Constant lists (the common `col IN (1, 2, 3)` shape) are
                // evaluated once per vector instead of materializing one
                // constant vector per item per chunk.
                if list.iter().all(Expr::is_constant) {
                    let mut consts: Vec<Value> = Vec::with_capacity(list.len());
                    let mut list_has_null = false;
                    for item in list {
                        match item.evaluate_row(&[])? {
                            Value::Null => list_has_null = true,
                            v => consts.push(v),
                        }
                    }
                    let mut out = Vector::with_capacity(LogicalType::Boolean, count);
                    for row in 0..count {
                        let needle = c.get_value(row);
                        if needle.is_null() {
                            out.push_null();
                            continue;
                        }
                        let found =
                            consts.iter().any(|v| needle.sql_cmp(v) == Some(Ordering::Equal));
                        if found {
                            out.push_value(&Value::Boolean(!*negated))?;
                        } else if list_has_null {
                            out.push_null(); // x IN (..., NULL) is NULL when unmatched
                        } else {
                            out.push_value(&Value::Boolean(*negated))?;
                        }
                    }
                    return Ok(out);
                }
                let items: Vec<Vector> =
                    list.iter().map(|e| e.evaluate(chunk)).collect::<Result<_>>()?;
                let mut out = Vector::with_capacity(LogicalType::Boolean, count);
                for row in 0..count {
                    let needle = c.get_value(row);
                    if needle.is_null() {
                        out.push_null();
                        continue;
                    }
                    let mut found = false;
                    let mut saw_null = false;
                    for item in &items {
                        let v = item.get_value(row);
                        if v.is_null() {
                            saw_null = true;
                        } else if needle.sql_cmp(&v) == Some(Ordering::Equal) {
                            found = true;
                            break;
                        }
                    }
                    if found {
                        out.push_value(&Value::Boolean(!*negated))?;
                    } else if saw_null {
                        out.push_null(); // SQL: x IN (..., NULL) is NULL when unmatched
                    } else {
                        out.push_value(&Value::Boolean(*negated))?;
                    }
                }
                Ok(out)
            }
        }
    }

    fn case_row(
        &self,
        branches: &[(Expr, Expr)],
        else_expr: &Option<Box<Expr>>,
        row: &[Value],
    ) -> Result<Value> {
        for (cond, value) in branches {
            if cond.evaluate_row(row)? == Value::Boolean(true) {
                return value.evaluate_row(row);
            }
        }
        match else_expr {
            Some(e) => e.evaluate_row(row),
            None => Ok(Value::Null),
        }
    }

    /// Evaluate against a single row of values.
    pub fn evaluate_row(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::ColumnRef { index, .. } => Ok(row[*index].clone()),
            Expr::Constant { value, .. } => Ok(value.clone()),
            Expr::Compare { op, left, right } => {
                let l = left.evaluate_row(row)?;
                let r = right.evaluate_row(row)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                // NaN is unordered: every comparison with it is false.
                Ok(Value::Boolean(l.sql_cmp(&r).is_some_and(|ord| op.evaluate(ord))))
            }
            Expr::And(children) => {
                let mut saw_null = false;
                for c in children {
                    match c.evaluate_row(row)? {
                        Value::Boolean(false) => return Ok(Value::Boolean(false)),
                        Value::Null => saw_null = true,
                        Value::Boolean(true) => {}
                        other => {
                            return Err(EiderError::TypeMismatch(format!(
                                "AND over non-boolean {other}"
                            )))
                        }
                    }
                }
                Ok(if saw_null { Value::Null } else { Value::Boolean(true) })
            }
            Expr::Or(children) => {
                let mut saw_null = false;
                for c in children {
                    match c.evaluate_row(row)? {
                        Value::Boolean(true) => return Ok(Value::Boolean(true)),
                        Value::Null => saw_null = true,
                        Value::Boolean(false) => {}
                        other => {
                            return Err(EiderError::TypeMismatch(format!(
                                "OR over non-boolean {other}"
                            )))
                        }
                    }
                }
                Ok(if saw_null { Value::Null } else { Value::Boolean(false) })
            }
            Expr::Not(child) => match child.evaluate_row(row)? {
                Value::Null => Ok(Value::Null),
                Value::Boolean(b) => Ok(Value::Boolean(!b)),
                other => Err(EiderError::TypeMismatch(format!("NOT over non-boolean {other}"))),
            },
            Expr::Arithmetic { op, left, right, ty } => {
                let l = left.evaluate_row(row)?.cast_to(*ty)?;
                let r = right.evaluate_row(row)?.cast_to(*ty)?;
                arithmetic_values(*op, &l, &r, *ty)
            }
            Expr::Cast { child, to } => child.evaluate_row(row)?.cast_to(*to),
            Expr::IsNull { child, negated } => {
                let v = child.evaluate_row(row)?;
                Ok(Value::Boolean(v.is_null() != *negated))
            }
            Expr::Case { branches, else_expr, .. } => self.case_row(branches, else_expr, row),
            Expr::Function { func, args, .. } => {
                let vals: Vec<Value> =
                    args.iter().map(|a| a.evaluate_row(row)).collect::<Result<_>>()?;
                evaluate_function(*func, &vals)
            }
            Expr::Like { child, pattern, negated } => {
                match (child.evaluate_row(row)?, pattern.evaluate_row(row)?) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Varchar(s), Value::Varchar(p)) => {
                        Ok(Value::Boolean(like_match(&p, &s) != *negated))
                    }
                    (a, b) => Err(EiderError::TypeMismatch(format!("LIKE over {a} and {b}"))),
                }
            }
            Expr::InList { child, list, negated } => {
                let needle = child.evaluate_row(row)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = item.evaluate_row(row)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if needle.sql_cmp(&v) == Some(Ordering::Equal) {
                        return Ok(Value::Boolean(!*negated));
                    }
                }
                Ok(if saw_null { Value::Null } else { Value::Boolean(*negated) })
            }
        }
    }
}

/// A LIKE pattern compiled once (`%` = any run, `_` = any single char):
/// the pattern's chars are decoded a single time, and matching walks the
/// text by byte position without allocating — so a constant pattern costs
/// one compilation per *vector*, not a re-parse per row.
pub struct LikeMatcher {
    pattern: Vec<char>,
}

impl LikeMatcher {
    pub fn new(pattern: &str) -> LikeMatcher {
        LikeMatcher { pattern: pattern.chars().collect() }
    }

    /// Iterative backtracking match, allocation-free per call.
    pub fn matches(&self, s: &str) -> bool {
        let p = &self.pattern;
        let (mut pi, mut ti) = (0usize, 0usize); // pattern char idx, text byte idx
        let (mut star_p, mut star_t) = (usize::MAX, 0usize);
        while ti < s.len() {
            let tc = s[ti..].chars().next().expect("ti is a char boundary");
            // '%' is never a literal: without this guard, a '%' in the
            // *text* would consume the wildcard as a plain char match.
            if pi < p.len() && p[pi] != '%' && (p[pi] == '_' || p[pi] == tc) {
                pi += 1;
                ti += tc.len_utf8();
            } else if pi < p.len() && p[pi] == '%' {
                star_p = pi;
                star_t = ti;
                pi += 1;
            } else if star_p != usize::MAX {
                let sc = s[star_t..].chars().next().expect("star_t is a char boundary");
                star_t += sc.len_utf8();
                ti = star_t;
                pi = star_p + 1;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }
}

/// SQL LIKE convenience over [`LikeMatcher`] (row-wise paths and tests;
/// the vectorized path compiles the matcher once per vector instead).
pub fn like_match(pattern: &str, s: &str) -> bool {
    LikeMatcher::new(pattern).matches(s)
}

/// Turn a Boolean vector into the selection of rows that are TRUE
/// (NULL and FALSE are filtered out, per SQL WHERE semantics).
pub fn filter_selection(flags: &Vector) -> Result<SelectionVector> {
    if flags.logical_type() != LogicalType::Boolean {
        return Err(EiderError::Internal("filter expression is not boolean".into()));
    }
    let data = flags.as_bool();
    let validity = flags.validity();
    let mut sel = SelectionVector::with_capacity(data.len());
    if validity.all_valid() {
        for (i, &b) in data.iter().enumerate() {
            if b {
                sel.push(i as u32);
            }
        }
    } else {
        for (i, &b) in data.iter().enumerate() {
            if b && validity.is_valid(i) {
                sel.push(i as u32);
            }
        }
    }
    Ok(sel)
}

// ---------------- comparison kernels ----------------

macro_rules! cmp_kernel {
    ($l:expr, $r:expr, $op:expr, $out:expr, $lv:expr, $rv:expr) => {{
        for i in 0..$l.len() {
            // NaN is unordered: every comparison with it is false.
            $out.push($l[i].partial_cmp(&$r[i]).is_some_and(|ord| $op.evaluate(ord)));
        }
    }};
}

fn compare_vectors(op: CmpOp, left: &Vector, right: &Vector) -> Result<Vector> {
    debug_assert_eq!(left.len(), right.len());
    let n = left.len();
    let mut validity = left.validity().clone();
    validity.combine(right.validity());
    // Fast paths: identical physical types.
    let mut flags: Vec<bool> = Vec::with_capacity(n);
    match (left.data(), right.data()) {
        (VectorData::I32(l), VectorData::I32(r)) => cmp_kernel!(l, r, op, flags, left, right),
        (VectorData::I64(l), VectorData::I64(r)) => cmp_kernel!(l, r, op, flags, left, right),
        (VectorData::F64(l), VectorData::F64(r)) => cmp_kernel!(l, r, op, flags, left, right),
        (VectorData::I8(l), VectorData::I8(r)) => cmp_kernel!(l, r, op, flags, left, right),
        (VectorData::I16(l), VectorData::I16(r)) => cmp_kernel!(l, r, op, flags, left, right),
        (VectorData::Str(l), VectorData::Str(r)) => {
            for i in 0..n {
                flags.push(op.evaluate(l[i].cmp(&r[i])));
            }
        }
        (VectorData::Bool(l), VectorData::Bool(r)) => {
            for i in 0..n {
                flags.push(op.evaluate(l[i].cmp(&r[i])));
            }
        }
        _ => {
            // Mixed types: value-wise with numeric promotion.
            for i in 0..n {
                let (lv, rv) = (left.get_value(i), right.get_value(i));
                if lv.is_null() || rv.is_null() {
                    validity.set_invalid(i);
                }
                flags.push(lv.sql_cmp(&rv).is_some_and(|ord| op.evaluate(ord)));
            }
        }
    }
    Vector::from_parts(LogicalType::Boolean, VectorData::Bool(flags), validity)
}

/// AND/OR over boolean vectors with three-valued logic.
fn conjunction(vecs: &[Vector], is_and: bool, count: usize) -> Result<Vector> {
    let mut out = Vector::with_capacity(LogicalType::Boolean, count);
    for row in 0..count {
        let mut acc = Some(is_and); // AND starts true, OR starts false
        for v in vecs {
            let val = if v.is_null(row) {
                None
            } else {
                match v.get_value(row) {
                    Value::Boolean(b) => Some(b),
                    other => {
                        return Err(EiderError::TypeMismatch(format!(
                            "logical operator over non-boolean {other}"
                        )))
                    }
                }
            };
            acc = match (is_and, acc, val) {
                (true, Some(false), _) | (true, _, Some(false)) => Some(false),
                (true, Some(true), Some(true)) => Some(true),
                (true, _, _) => None,
                (false, Some(true), _) | (false, _, Some(true)) => Some(true),
                (false, Some(false), Some(false)) => Some(false),
                (false, _, _) => None,
            };
            // Short-circuit when the result is decided.
            if acc == Some(!is_and) {
                break;
            }
        }
        match acc {
            Some(b) => out.push_value(&Value::Boolean(b))?,
            None => out.push_null(),
        }
    }
    Ok(out)
}

// ---------------- arithmetic kernels ----------------

fn arithmetic_vectors(
    op: ArithOp,
    left: &Vector,
    right: &Vector,
    ty: LogicalType,
) -> Result<Vector> {
    let n = left.len();
    let mut validity = left.validity().clone();
    validity.combine(right.validity());
    match ty {
        LogicalType::BigInt
        | LogicalType::Integer
        | LogicalType::SmallInt
        | LogicalType::TinyInt => {
            // Integral kernel over the common physical representation.
            let lv = left.cast(LogicalType::BigInt)?;
            let rv = right.cast(LogicalType::BigInt)?;
            let (l, r) = (lv.as_i64(), rv.as_i64());
            let mut data = Vec::with_capacity(n);
            for i in 0..n {
                if !validity.is_valid(i) {
                    data.push(0);
                    continue;
                }
                let v = match op {
                    ArithOp::Add => l[i].checked_add(r[i]),
                    ArithOp::Sub => l[i].checked_sub(r[i]),
                    ArithOp::Mul => l[i].checked_mul(r[i]),
                    ArithOp::Div => {
                        if r[i] == 0 {
                            validity.set_invalid(i);
                            data.push(0);
                            continue;
                        }
                        l[i].checked_div(r[i])
                    }
                    ArithOp::Mod => {
                        if r[i] == 0 {
                            validity.set_invalid(i);
                            data.push(0);
                            continue;
                        }
                        l[i].checked_rem(r[i])
                    }
                };
                match v {
                    Some(v) => data.push(v),
                    None => {
                        return Err(EiderError::Execution(format!(
                            "integer overflow in {op:?} of {} and {}",
                            l[i], r[i]
                        )))
                    }
                }
            }
            let big = Vector::from_parts(LogicalType::BigInt, VectorData::I64(data), validity)?;
            big.cast(ty)
        }
        LogicalType::Double => {
            let (l, r) = (left.as_f64(), right.as_f64());
            let mut data = Vec::with_capacity(n);
            for i in 0..n {
                if !validity.is_valid(i) {
                    data.push(0.0);
                    continue;
                }
                let v = match op {
                    ArithOp::Add => l[i] + r[i],
                    ArithOp::Sub => l[i] - r[i],
                    ArithOp::Mul => l[i] * r[i],
                    ArithOp::Div => {
                        if r[i] == 0.0 {
                            validity.set_invalid(i);
                            data.push(0.0);
                            continue;
                        }
                        l[i] / r[i]
                    }
                    ArithOp::Mod => {
                        if r[i] == 0.0 {
                            validity.set_invalid(i);
                            data.push(0.0);
                            continue;
                        }
                        l[i] % r[i]
                    }
                };
                data.push(v);
            }
            Vector::from_parts(LogicalType::Double, VectorData::F64(data), validity)
        }
        other => Err(EiderError::TypeMismatch(format!("arithmetic over {other}"))),
    }
}

fn arithmetic_values(op: ArithOp, l: &Value, r: &Value, ty: LogicalType) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match ty {
        LogicalType::Double => {
            let (a, b) = (l.as_f64().unwrap_or(0.0), r.as_f64().unwrap_or(0.0));
            Ok(match op {
                ArithOp::Add => Value::Double(a + b),
                ArithOp::Sub => Value::Double(a - b),
                ArithOp::Mul => Value::Double(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
                ArithOp::Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a % b)
                    }
                }
            })
        }
        _ => {
            let (a, b) = (
                l.as_i64().ok_or_else(|| EiderError::TypeMismatch(format!("arith over {l}")))?,
                r.as_i64().ok_or_else(|| EiderError::TypeMismatch(format!("arith over {r}")))?,
            );
            let v = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
                ArithOp::Div => {
                    if b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_div(b)
                }
                ArithOp::Mod => {
                    if b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_rem(b)
                }
            };
            match v {
                Some(v) => Value::BigInt(v).cast_to(ty),
                None => Err(EiderError::Execution(format!("integer overflow in {op:?}"))),
            }
        }
    }
}

fn evaluate_function(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    // COALESCE is the one function with non-strict NULL handling.
    if func == ScalarFunc::Coalesce {
        for a in args {
            if !a.is_null() {
                return Ok(a.clone());
            }
        }
        return Ok(Value::Null);
    }
    if func == ScalarFunc::NullIf {
        let (a, b) = (&args[0], &args[1]);
        if a.is_null() {
            return Ok(Value::Null);
        }
        return Ok(if a.sql_cmp(b) == Some(Ordering::Equal) { Value::Null } else { a.clone() });
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let num_err =
        |name: &str| EiderError::TypeMismatch(format!("{name} requires a numeric argument"));
    Ok(match func {
        ScalarFunc::Abs => match &args[0] {
            Value::Double(f) => Value::Double(f.abs()),
            v => Value::BigInt(v.as_i64().ok_or_else(|| num_err("abs"))?.abs()),
        },
        ScalarFunc::Round => {
            let digits = args.get(1).and_then(Value::as_i64).unwrap_or(0);
            let f = args[0].as_f64().ok_or_else(|| num_err("round"))?;
            let m = 10f64.powi(digits as i32);
            Value::Double((f * m).round() / m)
        }
        ScalarFunc::Floor => {
            Value::Double(args[0].as_f64().ok_or_else(|| num_err("floor"))?.floor())
        }
        ScalarFunc::Ceil => Value::Double(args[0].as_f64().ok_or_else(|| num_err("ceil"))?.ceil()),
        ScalarFunc::Sqrt => {
            let f = args[0].as_f64().ok_or_else(|| num_err("sqrt"))?;
            if f < 0.0 {
                Value::Null
            } else {
                Value::Double(f.sqrt())
            }
        }
        ScalarFunc::Length => match &args[0] {
            Value::Varchar(s) => Value::BigInt(s.chars().count() as i64),
            v => return Err(EiderError::TypeMismatch(format!("length over {v}"))),
        },
        ScalarFunc::Lower => {
            Value::Varchar(args[0].as_str().map(str::to_lowercase).ok_or_else(|| num_err("lower"))?)
        }
        ScalarFunc::Upper => {
            Value::Varchar(args[0].as_str().map(str::to_uppercase).ok_or_else(|| num_err("upper"))?)
        }
        ScalarFunc::Substr => {
            let s = args[0]
                .as_str()
                .ok_or_else(|| EiderError::TypeMismatch("substr over non-string".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL substr is 1-based; negative start counts from the end.
            let start = args.get(1).and_then(Value::as_i64).unwrap_or(1);
            let len = args.get(2).and_then(Value::as_i64);
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                chars.len().saturating_sub((-start) as usize)
            } else {
                0
            };
            let end = match len {
                Some(l) if l >= 0 => (begin + l as usize).min(chars.len()),
                Some(_) => begin,
                None => chars.len(),
            };
            Value::Varchar(chars[begin.min(chars.len())..end].iter().collect())
        }
        ScalarFunc::Concat => {
            let mut s = String::new();
            for a in args {
                s.push_str(&a.to_string());
            }
            Value::Varchar(s)
        }
        ScalarFunc::Coalesce | ScalarFunc::NullIf => unreachable!("handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> DataChunk {
        DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Integer, LogicalType::Varchar],
            &[
                vec![Value::Integer(1), Value::Integer(10), Value::Varchar("alpha".into())],
                vec![Value::Integer(2), Value::Null, Value::Varchar("beta".into())],
                vec![Value::Integer(-999), Value::Integer(30), Value::Null],
                vec![Value::Integer(4), Value::Integer(40), Value::Varchar("delta".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn compare_column_to_constant() {
        let e = Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(-999))),
        };
        let v = e.evaluate(&chunk()).unwrap();
        assert_eq!(
            v.to_values(),
            vec![
                Value::Boolean(false),
                Value::Boolean(false),
                Value::Boolean(true),
                Value::Boolean(false)
            ]
        );
    }

    #[test]
    fn comparison_with_nulls_yields_null() {
        let e = Expr::Compare {
            op: CmpOp::Gt,
            left: Box::new(Expr::column(1, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(15))),
        };
        let v = e.evaluate(&chunk()).unwrap();
        assert!(v.get_value(1).is_null());
        assert_eq!(v.get_value(2), Value::Boolean(true));
    }

    #[test]
    fn filter_selection_drops_false_and_null() {
        let e = Expr::Compare {
            op: CmpOp::Gt,
            left: Box::new(Expr::column(1, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(15))),
        };
        let flags = e.evaluate(&chunk()).unwrap();
        let sel = filter_selection(&flags).unwrap();
        assert_eq!(sel.as_slice(), &[2, 3]);
    }

    #[test]
    fn arithmetic_with_overflow_and_div_zero() {
        let c = DataChunk::from_rows(
            &[LogicalType::BigInt, LogicalType::BigInt],
            &[vec![Value::BigInt(10), Value::BigInt(3)], vec![Value::BigInt(10), Value::BigInt(0)]],
        )
        .unwrap();
        let div = Expr::Arithmetic {
            op: ArithOp::Div,
            left: Box::new(Expr::column(0, LogicalType::BigInt)),
            right: Box::new(Expr::column(1, LogicalType::BigInt)),
            ty: LogicalType::BigInt,
        };
        let v = div.evaluate(&c).unwrap();
        assert_eq!(v.get_value(0), Value::BigInt(3));
        assert!(v.get_value(1).is_null(), "x/0 is NULL");

        let mul = Expr::Arithmetic {
            op: ArithOp::Mul,
            left: Box::new(Expr::constant(Value::BigInt(i64::MAX))),
            right: Box::new(Expr::constant(Value::BigInt(2))),
            ty: LogicalType::BigInt,
        };
        assert!(mul.evaluate(&c).is_err(), "overflow must error");
    }

    #[test]
    fn double_arithmetic() {
        let c = DataChunk::from_rows(
            &[LogicalType::Double],
            &[vec![Value::Double(1.5)], vec![Value::Double(-2.0)]],
        )
        .unwrap();
        let e = Expr::Arithmetic {
            op: ArithOp::Mul,
            left: Box::new(Expr::column(0, LogicalType::Double)),
            right: Box::new(Expr::constant(Value::Double(2.0))),
            ty: LogicalType::Double,
        };
        let v = e.evaluate(&c).unwrap();
        assert_eq!(v.get_value(0), Value::Double(3.0));
        assert_eq!(v.get_value(1), Value::Double(-4.0));
    }

    #[test]
    fn three_valued_logic() {
        // (col1 > 15) AND (col0 > 0): row 1 has NULL > 15 -> NULL AND true -> NULL
        let cmp1 = Expr::Compare {
            op: CmpOp::Gt,
            left: Box::new(Expr::column(1, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(15))),
        };
        let cmp2 = Expr::Compare {
            op: CmpOp::Gt,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(0))),
        };
        let and = Expr::And(vec![cmp1.clone(), cmp2.clone()]);
        let v = and.evaluate(&chunk()).unwrap();
        assert!(v.get_value(1).is_null());
        assert_eq!(v.get_value(3), Value::Boolean(true));
        // OR short-circuits NULL away when one side is true.
        let or = Expr::Or(vec![cmp1, cmp2]);
        let v = or.evaluate(&chunk()).unwrap();
        assert_eq!(v.get_value(1), Value::Boolean(true));
    }

    #[test]
    fn is_null_and_not() {
        let e =
            Expr::IsNull { child: Box::new(Expr::column(2, LogicalType::Varchar)), negated: false };
        let v = e.evaluate(&chunk()).unwrap();
        assert_eq!(v.get_value(2), Value::Boolean(true));
        assert_eq!(v.get_value(0), Value::Boolean(false));
        let e = Expr::Not(Box::new(e));
        let v = e.evaluate(&chunk()).unwrap();
        assert_eq!(v.get_value(2), Value::Boolean(false));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("%duck%", "the duck quacks"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("a%b%c", "a-xx-b-yy-c"));
        assert!(!like_match("", "x"));
        // '%' in the *text* must not swallow a pattern wildcard.
        assert!(like_match("percent%", "percent%under_score"));
        assert!(like_match("50%", "50%"));
        assert!(!like_match("%100%", "50%"));
    }

    #[test]
    fn case_expression_is_lazy() {
        // CASE WHEN col0 = 0 THEN -1 ELSE 100 / col0 END: the ELSE branch
        // divides by col0 but only for rows where col0 != 0.
        let c = DataChunk::from_rows(
            &[LogicalType::Integer],
            &[vec![Value::Integer(0)], vec![Value::Integer(4)]],
        )
        .unwrap();
        let e = Expr::Case {
            branches: vec![(
                Expr::Compare {
                    op: CmpOp::Eq,
                    left: Box::new(Expr::column(0, LogicalType::Integer)),
                    right: Box::new(Expr::constant(Value::Integer(0))),
                },
                Expr::constant(Value::Integer(-1)),
            )],
            else_expr: Some(Box::new(Expr::Arithmetic {
                op: ArithOp::Div,
                left: Box::new(Expr::constant(Value::Integer(100))),
                right: Box::new(Expr::column(0, LogicalType::Integer)),
                ty: LogicalType::BigInt,
            })),
            ty: LogicalType::BigInt,
        };
        let v = e.evaluate(&c).unwrap();
        assert_eq!(v.get_value(0), Value::BigInt(-1));
        assert_eq!(v.get_value(1), Value::BigInt(25));
    }

    #[test]
    fn scalar_functions() {
        let f = |func, args: Vec<Value>| evaluate_function(func, &args).unwrap();
        assert_eq!(f(ScalarFunc::Abs, vec![Value::Integer(-5)]), Value::BigInt(5));
        assert_eq!(
            f(ScalarFunc::Round, vec![Value::Double(2.567), Value::Integer(1)]),
            Value::Double(2.6)
        );
        assert_eq!(f(ScalarFunc::Length, vec![Value::Varchar("héllo".into())]), Value::BigInt(5));
        assert_eq!(
            f(ScalarFunc::Upper, vec![Value::Varchar("ab".into())]),
            Value::Varchar("AB".into())
        );
        assert_eq!(
            f(
                ScalarFunc::Substr,
                vec![Value::Varchar("hello".into()), Value::Integer(2), Value::Integer(3)]
            ),
            Value::Varchar("ell".into())
        );
        assert_eq!(
            f(ScalarFunc::Coalesce, vec![Value::Null, Value::Integer(7)]),
            Value::Integer(7)
        );
        assert_eq!(f(ScalarFunc::NullIf, vec![Value::Integer(7), Value::Integer(7)]), Value::Null);
        assert_eq!(f(ScalarFunc::Sqrt, vec![Value::Double(-1.0)]), Value::Null);
        assert_eq!(
            f(ScalarFunc::Concat, vec![Value::Varchar("a".into()), Value::Integer(1)]),
            Value::Varchar("a1".into())
        );
    }

    #[test]
    fn in_list_with_null_semantics() {
        let c = chunk();
        let e = Expr::InList {
            child: Box::new(Expr::column(0, LogicalType::Integer)),
            list: vec![Expr::constant(Value::Integer(1)), Expr::constant(Value::Null)],
            negated: false,
        };
        let v = e.evaluate(&c).unwrap();
        assert_eq!(v.get_value(0), Value::Boolean(true));
        assert!(v.get_value(1).is_null(), "unmatched with NULL in list is NULL");
    }

    #[test]
    fn in_list_constant_and_columnar_paths_agree() {
        let c = chunk();
        // Constant list (hoisted) vs the same list with a column smuggled
        // in (per-row path) on a list that contains the column's value.
        let hoisted = Expr::InList {
            child: Box::new(Expr::column(0, LogicalType::Integer)),
            list: vec![Expr::constant(Value::Integer(2)), Expr::constant(Value::Integer(4))],
            negated: false,
        };
        let columnar = Expr::InList {
            child: Box::new(Expr::column(0, LogicalType::Integer)),
            list: vec![
                Expr::constant(Value::Integer(2)),
                Expr::constant(Value::Integer(4)),
                Expr::column(1, LogicalType::Integer),
            ],
            negated: false,
        };
        let h = hoisted.evaluate(&c).unwrap();
        assert_eq!(
            h.to_values(),
            vec![
                Value::Boolean(false),
                Value::Boolean(true),
                Value::Boolean(false),
                Value::Boolean(true)
            ]
        );
        // The columnar variant still matches rows the constants match.
        let v = columnar.evaluate(&c).unwrap();
        assert_eq!(v.get_value(1), Value::Boolean(true));
        assert_eq!(v.get_value(3), Value::Boolean(true));
    }

    #[test]
    fn constant_like_pattern_is_hoisted() {
        let c = DataChunk::from_rows(
            &[LogicalType::Varchar],
            &[
                vec![Value::Varchar("alpha".into())],
                vec![Value::Null],
                vec![Value::Varchar("beta".into())],
            ],
        )
        .unwrap();
        let e = Expr::Like {
            child: Box::new(Expr::column(0, LogicalType::Varchar)),
            pattern: Box::new(Expr::constant(Value::Varchar("%a".into()))),
            negated: false,
        };
        let v = e.evaluate(&c).unwrap();
        assert_eq!(v.get_value(0), Value::Boolean(true));
        assert!(v.get_value(1).is_null());
        assert_eq!(v.get_value(2), Value::Boolean(true));
        // NULL pattern: every row is NULL.
        let e = Expr::Like {
            child: Box::new(Expr::column(0, LogicalType::Varchar)),
            pattern: Box::new(Expr::constant(Value::Null)),
            negated: false,
        };
        let v = e.evaluate(&c).unwrap();
        assert!((0..3).all(|i| v.get_value(i).is_null()));
    }

    #[test]
    fn like_matcher_handles_multibyte_text() {
        let m = LikeMatcher::new("h_llo%");
        assert!(m.matches("héllo world"));
        assert!(m.matches("hallo"));
        assert!(!m.matches("hllo"));
        let m = LikeMatcher::new("%é%");
        assert!(m.matches("café au lait"));
        assert!(!m.matches("cafe"));
    }

    #[test]
    fn constant_detection() {
        let c = Expr::Arithmetic {
            op: ArithOp::Add,
            left: Box::new(Expr::constant(Value::Integer(1))),
            right: Box::new(Expr::constant(Value::Integer(2))),
            ty: LogicalType::BigInt,
        };
        assert!(c.is_constant());
        assert_eq!(c.evaluate_row(&[]).unwrap(), Value::BigInt(3));
        let nc = Expr::column(0, LogicalType::Integer);
        assert!(!nc.is_constant());
    }
}
