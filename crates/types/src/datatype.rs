//! SQL data types of the platform's table model.

use std::fmt;

use crate::error::{HanaError, Result};

/// The SQL data types supported across the in-memory store, the extended
/// storage and remote (Hive) sources.
///
/// SDA performs data-type mappings between engines (§4.2 of the paper);
/// in this reproduction all engines share this enum, and the adapter layer
/// checks [`DataType::is_convertible_from`] when importing remote schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean flags (e.g. the dedicated aging flag of hybrid tables).
    Bool,
    /// 32-bit signed integer.
    Int,
    /// 64-bit signed integer.
    BigInt,
    /// 64-bit IEEE-754 floating point (`DOUBLE`).
    Double,
    /// Variable-length UTF-8 string (`VARCHAR`); length is advisory.
    Varchar,
    /// Calendar date.
    Date,
    /// Microseconds since the Unix epoch (`TIMESTAMP`).
    Timestamp,
}

impl DataType {
    /// Whether a value of `other` can be losslessly widened to `self`
    /// when schemas from different engines are mapped onto each other.
    pub fn is_convertible_from(self, other: DataType) -> bool {
        use DataType::*;
        self == other
            || matches!(
                (self, other),
                (BigInt, Int) | (Double, Int) | (Double, BigInt) | (Timestamp, Date)
            )
    }

    /// Whether a value of type `value` may be stored in a column of
    /// this type: the lossless widenings, plus integer literals (typed
    /// BIGINT) in INTEGER columns.
    pub fn accepts(self, value: DataType) -> bool {
        self.is_convertible_from(value) || (self == DataType::Int && value == DataType::BigInt)
    }

    /// Whether the type is numeric (participates in SUM/AVG and
    /// arithmetic).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::BigInt | DataType::Double)
    }

    /// Parse a SQL type name as it appears in DDL, e.g. `VARCHAR(30)`,
    /// `INTEGER`, `DOUBLE`.
    pub fn parse_sql(name: &str) -> Result<DataType> {
        let upper = name.trim().to_ascii_uppercase();
        let base = upper.split('(').next().unwrap_or("").trim();
        match base {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "SMALLINT" | "TINYINT" => Ok(DataType::Int),
            "BIGINT" => Ok(DataType::BigInt),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(DataType::Double),
            "VARCHAR" | "NVARCHAR" | "CHAR" | "STRING" | "TEXT" => Ok(DataType::Varchar),
            "DATE" => Ok(DataType::Date),
            "TIMESTAMP" | "SECONDDATE" => Ok(DataType::Timestamp),
            other => Err(HanaError::Parse(format!("unknown data type '{other}'"))),
        }
    }

    /// Canonical SQL spelling, used by `EXPLAIN` and catalog dumps.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::BigInt => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Varchar => "VARCHAR",
            DataType::Date => "DATE",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sql_accepts_aliases_and_lengths() {
        assert_eq!(
            DataType::parse_sql("VARCHAR(30)").unwrap(),
            DataType::Varchar
        );
        assert_eq!(DataType::parse_sql("integer").unwrap(), DataType::Int);
        assert_eq!(
            DataType::parse_sql("DECIMAL(15,2)").unwrap(),
            DataType::Double
        );
        assert_eq!(DataType::parse_sql(" date ").unwrap(), DataType::Date);
        assert!(DataType::parse_sql("BLOB").is_err());
    }

    #[test]
    fn widening_rules() {
        assert!(DataType::BigInt.is_convertible_from(DataType::Int));
        assert!(DataType::Double.is_convertible_from(DataType::BigInt));
        assert!(DataType::Timestamp.is_convertible_from(DataType::Date));
        assert!(!DataType::Int.is_convertible_from(DataType::BigInt));
        assert!(!DataType::Varchar.is_convertible_from(DataType::Int));
        assert!(DataType::Varchar.is_convertible_from(DataType::Varchar));
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Double.is_numeric());
        assert!(!DataType::Varchar.is_numeric());
        assert!(!DataType::Date.is_numeric());
    }
}
