//! Logical SQL types and their physical storage mapping.

use crate::error::{EiderError, Result};
use std::fmt;

/// The SQL-level type of a column, value or expression.
///
/// Temporal types map onto integer physical storage: `DATE` is the number
/// of days since the Unix epoch in an `i32`, `TIMESTAMP` microseconds since
/// the epoch in an `i64` (the same convention DuckDB uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogicalType {
    Boolean,
    TinyInt,
    SmallInt,
    Integer,
    BigInt,
    Double,
    Varchar,
    Date,
    Timestamp,
}

impl LogicalType {
    /// All concrete types, useful for exhaustive property tests.
    pub const ALL: [LogicalType; 9] = [
        LogicalType::Boolean,
        LogicalType::TinyInt,
        LogicalType::SmallInt,
        LogicalType::Integer,
        LogicalType::BigInt,
        LogicalType::Double,
        LogicalType::Varchar,
        LogicalType::Date,
        LogicalType::Timestamp,
    ];

    /// True for types stored as (signed) integers, including temporal ones.
    pub fn is_integral(self) -> bool {
        matches!(
            self,
            LogicalType::TinyInt
                | LogicalType::SmallInt
                | LogicalType::Integer
                | LogicalType::BigInt
                | LogicalType::Date
                | LogicalType::Timestamp
        )
    }

    /// True for types usable in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            LogicalType::TinyInt
                | LogicalType::SmallInt
                | LogicalType::Integer
                | LogicalType::BigInt
                | LogicalType::Double
        )
    }

    /// Width in bytes of one value in its physical representation.
    /// `VARCHAR` is variable; this returns the size of the inline handle.
    pub fn physical_width(self) -> usize {
        match self {
            LogicalType::Boolean | LogicalType::TinyInt => 1,
            LogicalType::SmallInt => 2,
            LogicalType::Integer | LogicalType::Date => 4,
            LogicalType::BigInt | LogicalType::Timestamp | LogicalType::Double => 8,
            LogicalType::Varchar => std::mem::size_of::<String>(),
        }
    }

    /// The type a pair of numeric operands promotes to in arithmetic and
    /// comparison, following the usual widening lattice
    /// `TINYINT < SMALLINT < INTEGER < BIGINT < DOUBLE`.
    pub fn max_numeric(a: LogicalType, b: LogicalType) -> Result<LogicalType> {
        if !a.is_numeric() || !b.is_numeric() {
            return Err(EiderError::TypeMismatch(format!(
                "cannot combine {a} and {b} numerically"
            )));
        }
        Ok(a.max(b))
    }

    /// Whether a value of `self` can be implicitly cast to `target`.
    /// Widening numeric casts and casts from VARCHAR to anything (parsed at
    /// runtime) are implicit, as are DATE -> TIMESTAMP promotions.
    pub fn can_implicit_cast_to(self, target: LogicalType) -> bool {
        if self == target {
            return true;
        }
        match (self, target) {
            (a, b) if a.is_numeric() && b.is_numeric() => a <= b,
            (LogicalType::Date, LogicalType::Timestamp) => true,
            (LogicalType::Varchar, _) => true,
            (_, LogicalType::Varchar) => true,
            _ => false,
        }
    }

    /// Parse a SQL type name (as produced by the lexer, upper or lower case).
    pub fn parse_sql_name(name: &str) -> Result<LogicalType> {
        let up = name.to_ascii_uppercase();
        Ok(match up.as_str() {
            "BOOLEAN" | "BOOL" | "LOGICAL" => LogicalType::Boolean,
            "TINYINT" | "INT1" => LogicalType::TinyInt,
            "SMALLINT" | "INT2" | "SHORT" => LogicalType::SmallInt,
            "INTEGER" | "INT" | "INT4" | "SIGNED" => LogicalType::Integer,
            "BIGINT" | "INT8" | "LONG" => LogicalType::BigInt,
            // The paper's system stores FLOAT/REAL/DECIMAL as doubles; see
            // DESIGN.md "Non-goals".
            "DOUBLE" | "FLOAT" | "FLOAT4" | "FLOAT8" | "REAL" | "DECIMAL" | "NUMERIC" => {
                LogicalType::Double
            }
            "VARCHAR" | "TEXT" | "STRING" | "CHAR" | "BPCHAR" => LogicalType::Varchar,
            "DATE" => LogicalType::Date,
            "TIMESTAMP" | "DATETIME" => LogicalType::Timestamp,
            _ => {
                return Err(EiderError::Parse(format!("unknown type name '{name}'")));
            }
        })
    }
}

impl fmt::Display for LogicalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogicalType::Boolean => "BOOLEAN",
            LogicalType::TinyInt => "TINYINT",
            LogicalType::SmallInt => "SMALLINT",
            LogicalType::Integer => "INTEGER",
            LogicalType::BigInt => "BIGINT",
            LogicalType::Double => "DOUBLE",
            LogicalType::Varchar => "VARCHAR",
            LogicalType::Date => "DATE",
            LogicalType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_promotion_follows_lattice() {
        use LogicalType::*;
        assert_eq!(LogicalType::max_numeric(TinyInt, BigInt).unwrap(), BigInt);
        assert_eq!(LogicalType::max_numeric(Integer, Double).unwrap(), Double);
        assert_eq!(LogicalType::max_numeric(SmallInt, SmallInt).unwrap(), SmallInt);
        assert!(LogicalType::max_numeric(Varchar, Integer).is_err());
    }

    #[test]
    fn implicit_casts() {
        use LogicalType::*;
        assert!(Integer.can_implicit_cast_to(BigInt));
        assert!(!BigInt.can_implicit_cast_to(Integer));
        assert!(Date.can_implicit_cast_to(Timestamp));
        assert!(!Timestamp.can_implicit_cast_to(Date));
        assert!(Varchar.can_implicit_cast_to(Date));
        assert!(Integer.can_implicit_cast_to(Varchar));
        assert!(!Boolean.can_implicit_cast_to(Integer));
    }

    #[test]
    fn sql_names_round_trip() {
        for ty in LogicalType::ALL {
            assert_eq!(LogicalType::parse_sql_name(&ty.to_string()).unwrap(), ty);
        }
        assert_eq!(LogicalType::parse_sql_name("int").unwrap(), LogicalType::Integer);
        assert!(LogicalType::parse_sql_name("BLOB2").is_err());
    }

    #[test]
    fn physical_widths() {
        assert_eq!(LogicalType::TinyInt.physical_width(), 1);
        assert_eq!(LogicalType::Date.physical_width(), 4);
        assert_eq!(LogicalType::Timestamp.physical_width(), 8);
    }
}
