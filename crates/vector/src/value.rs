//! A single (possibly NULL) SQL value.
//!
//! `Value` is the *slow path* of the system: the vectorized kernels operate
//! on typed slices, and `Value` exists for constants, catalog defaults, the
//! value-at-a-time client API baseline (§5 of the paper shows why that API
//! is slow) and tests.

use crate::date::{format_date, format_timestamp, parse_date, parse_timestamp};
use crate::error::{EiderError, Result};
use crate::types::LogicalType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Boolean(bool),
    TinyInt(i8),
    SmallInt(i16),
    Integer(i32),
    BigInt(i64),
    Double(f64),
    Varchar(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since 1970-01-01 00:00:00.
    Timestamp(i64),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The logical type of this value; NULL has no type and returns `None`.
    pub fn logical_type(&self) -> Option<LogicalType> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(_) => LogicalType::Boolean,
            Value::TinyInt(_) => LogicalType::TinyInt,
            Value::SmallInt(_) => LogicalType::SmallInt,
            Value::Integer(_) => LogicalType::Integer,
            Value::BigInt(_) => LogicalType::BigInt,
            Value::Double(_) => LogicalType::Double,
            Value::Varchar(_) => LogicalType::Varchar,
            Value::Date(_) => LogicalType::Date,
            Value::Timestamp(_) => LogicalType::Timestamp,
        })
    }

    /// Interpret as i64 if integral (including temporal types).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::TinyInt(v) => Some(i64::from(*v)),
            Value::SmallInt(v) => Some(i64::from(*v)),
            Value::Integer(v) => Some(i64::from(*v)),
            Value::BigInt(v) => Some(*v),
            Value::Date(v) => Some(i64::from(*v)),
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// A DOUBLE NaN. It never enters a zone map, a write summary or an
    /// Arrow batch's min/max: [`Value::total_cmp`] calls it equal to every
    /// number, so it cannot serve as a bound.
    pub fn is_nan(&self) -> bool {
        matches!(self, Value::Double(d) if d.is_nan())
    }

    /// Parse a string into a value of logical type `ty` (used by VARCHAR
    /// casts and the CSV sniffer). The per-type helpers below are the single definition of
    /// text-to-value parsing: [`crate::Vector::push_parsed`], the CSV
    /// reader's typed path, calls the same ones, so both accept and reject
    /// exactly the same text with the same messages.
    pub fn parse_as(s: &str, ty: LogicalType) -> Result<Value> {
        Ok(match ty {
            LogicalType::Boolean => Value::Boolean(parse_bool(s)?),
            LogicalType::TinyInt => Value::TinyInt(parse_int(s, ty)?),
            LogicalType::SmallInt => Value::SmallInt(parse_int(s, ty)?),
            LogicalType::Integer => Value::Integer(parse_int(s, ty)?),
            LogicalType::BigInt => Value::BigInt(parse_int(s, ty)?),
            LogicalType::Double => Value::Double(parse_double(s)?),
            LogicalType::Varchar => Value::Varchar(s.to_string()),
            LogicalType::Date => Value::Date(parse_date(s)?),
            LogicalType::Timestamp => Value::Timestamp(parse_timestamp(s)?),
        })
    }

    /// Cast to `ty`, erroring on narrowing overflow (SQL CAST semantics).
    /// NULL casts to NULL.
    pub fn cast_to(&self, ty: LogicalType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.logical_type() == Some(ty) {
            return Ok(self.clone());
        }
        let overflow = |v: &dyn fmt::Display| {
            EiderError::TypeMismatch(format!("value {v} out of range for {ty}"))
        };
        match (self, ty) {
            (Value::Varchar(s), _) => Value::parse_as(s, ty),
            (_, LogicalType::Varchar) => Ok(Value::Varchar(self.to_string())),
            (Value::Boolean(b), t) if t.is_numeric() => Value::BigInt(i64::from(*b)).cast_to(t),
            (_, LogicalType::Boolean) => match self.as_i64() {
                Some(v) => Ok(Value::Boolean(v != 0)),
                None => match self {
                    Value::Double(d) => Ok(Value::Boolean(*d != 0.0)),
                    _ => Err(EiderError::TypeMismatch(format!("cannot cast {self} to BOOLEAN"))),
                },
            },
            (Value::Date(d), LogicalType::Timestamp) => {
                Ok(Value::Timestamp(i64::from(*d) * crate::date::MICROS_PER_DAY))
            }
            (Value::Timestamp(us), LogicalType::Date) => {
                Ok(Value::Date(us.div_euclid(crate::date::MICROS_PER_DAY) as i32))
            }
            (Value::Double(f), t) if t.is_integral() => {
                let r = f.round();
                if !r.is_finite() || r < i64::MIN as f64 || r > i64::MAX as f64 {
                    return Err(overflow(f));
                }
                Value::BigInt(r as i64).cast_to(t)
            }
            (_, LogicalType::Double) => self
                .as_f64()
                .map(Value::Double)
                .ok_or_else(|| EiderError::TypeMismatch(format!("cannot cast {self} to DOUBLE"))),
            (_, t) if t.is_integral() => {
                let v = self.as_i64().ok_or_else(|| {
                    EiderError::TypeMismatch(format!("cannot cast {self} to {t}"))
                })?;
                Ok(match t {
                    LogicalType::TinyInt => {
                        Value::TinyInt(i8::try_from(v).map_err(|_| overflow(&v))?)
                    }
                    LogicalType::SmallInt => {
                        Value::SmallInt(i16::try_from(v).map_err(|_| overflow(&v))?)
                    }
                    LogicalType::Integer => {
                        Value::Integer(i32::try_from(v).map_err(|_| overflow(&v))?)
                    }
                    LogicalType::BigInt => Value::BigInt(v),
                    LogicalType::Date => Value::Date(i32::try_from(v).map_err(|_| overflow(&v))?),
                    LogicalType::Timestamp => Value::Timestamp(v),
                    _ => unreachable!(),
                })
            }
            _ => Err(EiderError::TypeMismatch(format!("cannot cast {self} to {ty}"))),
        }
    }

    /// SQL comparison: returns `None` if either side is NULL, otherwise the
    /// ordering under numeric promotion (strings compare lexicographically).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Varchar(a), Value::Varchar(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Double(_), _) | (_, Value::Double(_)) => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b).or(Some(Ordering::Equal))
            }
            _ => Some(self.as_i64()?.cmp(&other.as_i64()?)),
        }
    }

    /// Rank of the comparison class: values within one class are mutually
    /// comparable via [`Value::sql_cmp`]; across classes the rank decides
    /// (keeping [`Value::total_cmp`] a true total order).
    fn class_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            // All numerics and temporals compare with each other.
            Value::TinyInt(_)
            | Value::SmallInt(_)
            | Value::Integer(_)
            | Value::BigInt(_)
            | Value::Double(_)
            | Value::Date(_)
            | Value::Timestamp(_) => 2,
            Value::Varchar(_) => 3,
        }
    }

    /// Total order used for sorting: NULLs sort LAST (the engine's default,
    /// matching `ORDER BY ... NULLS LAST`), NaN after all numbers, and
    /// mixed incomparable types order by class (bool < numeric < string).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                self.sql_cmp(other).unwrap_or_else(|| self.class_rank().cmp(&other.class_rank()))
            }
        }
    }
}

fn parse_error(s: &str, ty: LogicalType, why: &str) -> EiderError {
    EiderError::TypeMismatch(format!("could not cast '{s}' to {ty}: {why}"))
}

/// BOOLEAN from text: `true`/`t`/`1`/`yes` or `false`/`f`/`0`/`no`, any
/// case, surrounding whitespace ignored.
pub(crate) fn parse_bool(s: &str) -> Result<bool> {
    let t = s.trim();
    let is = |words: [&str; 4]| words.iter().any(|w| t.eq_ignore_ascii_case(w));
    if is(["true", "t", "1", "yes"]) {
        Ok(true)
    } else if is(["false", "f", "0", "no"]) {
        Ok(false)
    } else {
        Err(parse_error(s, LogicalType::Boolean, "not a boolean"))
    }
}

/// An integer of logical type `ty` from text (surrounding whitespace
/// ignored; out-of-range text is an error, never a wrap).
pub(crate) fn parse_int<T: std::str::FromStr>(s: &str, ty: LogicalType) -> Result<T> {
    s.trim().parse().map_err(|_| {
        let article = if ty == LogicalType::Integer { "an" } else { "a" };
        parse_error(s, ty, &format!("not {article} {ty}"))
    })
}

/// DOUBLE from text (surrounding whitespace ignored; `NaN` and `inf`
/// accepted).
pub(crate) fn parse_double(s: &str) -> Result<f64> {
    s.trim().parse().map_err(|_| parse_error(s, LogicalType::Double, "not a DOUBLE"))
}

/// Equality matches `sql_cmp == Equal` and, unlike SQL, makes NULL == NULL
/// true; this is the *grouping* notion of equality (GROUP BY, DISTINCT and
/// hash join keys treat NULLs as one group), which is what the engine needs
/// from `Eq`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Boolean(b) => {
                state.write_u8(1);
                state.write_u8(u8::from(*b));
            }
            Value::Double(f) => {
                state.write_u8(2);
                // Hash doubles through their integral value when exact so
                // that 1 (BIGINT) and 1.0 (DOUBLE) land in the same bucket.
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    state.write_i64(*f as i64);
                } else {
                    state.write_u64(f.to_bits());
                }
            }
            Value::Varchar(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
            v => {
                state.write_u8(2);
                state.write_i64(v.as_i64().expect("integral"));
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::TinyInt(v) => write!(f, "{v}"),
            Value::SmallInt(v) => write!(f, "{v}"),
            Value::Integer(v) => write!(f, "{v}"),
            Value::BigInt(v) => write!(f, "{v}"),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Varchar(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
            Value::Timestamp(us) => f.write_str(&format_timestamp(*us)),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<i8> for Value {
    fn from(v: i8) -> Self {
        Value::TinyInt(v)
    }
}
impl From<i16> for Value {
    fn from(v: i16) -> Self {
        Value::SmallInt(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::BigInt(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Integer(5).sql_cmp(&Value::BigInt(5)), Some(Ordering::Equal));
        assert_eq!(Value::TinyInt(3).sql_cmp(&Value::Double(3.5)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)), None);
    }

    #[test]
    fn total_order_puts_nulls_last() {
        let mut vals = [Value::Integer(2), Value::Null, Value::Integer(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Integer(1));
        assert_eq!(vals[1], Value::Integer(2));
        assert!(vals[2].is_null());
    }

    #[test]
    fn casts_widen_and_narrow() {
        assert_eq!(Value::Integer(42).cast_to(LogicalType::BigInt).unwrap(), Value::BigInt(42));
        assert_eq!(Value::BigInt(42).cast_to(LogicalType::TinyInt).unwrap(), Value::TinyInt(42));
        assert!(Value::BigInt(1000).cast_to(LogicalType::TinyInt).is_err());
        assert_eq!(Value::Double(2.6).cast_to(LogicalType::Integer).unwrap(), Value::Integer(3));
        assert_eq!(
            Value::Varchar("17".into()).cast_to(LogicalType::Integer).unwrap(),
            Value::Integer(17)
        );
        assert_eq!(Value::Null.cast_to(LogicalType::Integer).unwrap(), Value::Null);
    }

    #[test]
    fn temporal_casts() {
        let d = Value::parse_as("2020-01-12", LogicalType::Date).unwrap();
        let ts = d.cast_to(LogicalType::Timestamp).unwrap();
        assert_eq!(ts.to_string(), "2020-01-12 00:00:00");
        assert_eq!(ts.cast_to(LogicalType::Date).unwrap(), d);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Double(1.0).to_string(), "1.0");
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(18273).to_string(), "2020-01-12");
    }

    #[test]
    fn grouping_equality_and_hash_agree_across_types() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Integer(7), Value::BigInt(7));
        assert_eq!(h(&Value::Integer(7)), h(&Value::BigInt(7)));
        assert_eq!(Value::Double(7.0), Value::BigInt(7));
        assert_eq!(h(&Value::Double(7.0)), h(&Value::BigInt(7)));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn boolean_parsing() {
        for (s, b) in [("true", true), ("T", true), ("0", false), ("No", false)] {
            assert_eq!(Value::parse_as(s, LogicalType::Boolean).unwrap(), Value::Boolean(b));
        }
        assert!(Value::parse_as("maybe", LogicalType::Boolean).is_err());
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3i32)), Value::Integer(3));
        assert!(Value::from(None::<i32>).is_null());
    }
}
