//! Adversarial values shared by the durability tests. Each of them was
//! lost, altered or made the database unopenable by a delimiter-text
//! log or checkpoint format: strings that look like NULL markers,
//! separators or escapes, NaN and signed zeros and infinities, and the
//! extremes of every integer-backed type.

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::{Date, Row, Value};

/// Column list of an adversarial table; `id` is unique per row.
pub const COLUMNS: &str = "(id INTEGER, s VARCHAR(64), d DOUBLE, dd DATE, ts TIMESTAMP, n BIGINT)";

/// Strings that look like NULL markers, separators or escapes.
pub const STRINGS: [&str; 10] = [
    "",
    "null",
    "\\N",
    "\u{1}",
    "\u{1d}",
    "\u{1e}",
    "\u{1f}",
    "C:\\new",
    "line\nbreak",
    "tab\there",
];

/// Typed rows with ids `first_id..`: every string next to every double,
/// date, timestamp and integer extreme, then one all-NULL row.
pub fn rows(first_id: i64) -> Vec<Row> {
    let doubles = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let ints = [i64::MIN, i64::MAX];
    let dates = [Date(-1_000_000), Date(i32::MAX)];
    let mut out: Vec<Row> = STRINGS
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Row::from_values([
                Value::Int(first_id + i as i64),
                Value::from(*s),
                Value::Double(doubles[i % doubles.len()]),
                Value::Date(dates[i % 2]),
                Value::Timestamp(ints[i % 2]),
                Value::Int(ints[(i + 1) % 2]),
            ])
        })
        .collect();
    let mut nulls = vec![Value::Int(first_id + STRINGS.len() as i64)];
    nulls.resize(6, Value::Null);
    out.push(Row(nulls));
    out
}

/// One `INSERT` per string, as a SQL literal, with ids `first_id..`.
pub fn inserts(table: &str, first_id: i64) -> Vec<String> {
    STRINGS
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "INSERT INTO {table} (id, s) VALUES ({}, '{s}')",
                first_id + i as i64
            )
        })
        .collect()
}

/// `table` ordered by `id`, rendered so that `''` differs from NULL and
/// `-0.0` from `0.0`.
pub fn dump(hana: &HanaPlatform, s: &Session, table: &str) -> String {
    let rs = hana
        .execute_sql(s, &format!("SELECT * FROM {table} ORDER BY id"))
        .unwrap();
    format!("{:?}", rs.rows)
}
