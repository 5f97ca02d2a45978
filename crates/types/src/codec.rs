//! The binary codec behind every durable byte: WAL records, redo
//! payloads, partition logs and checkpoints.
//!
//! Primitives are LEB128 varints, zigzag varints for signed integers,
//! and byte strings prefixed with their varint length. A [`Value`] is
//! one tag byte followed by its payload:
//!
//! | tag | value       | payload                              |
//! |-----|-------------|--------------------------------------|
//! | 0   | `NULL`      | none                                 |
//! | 1   | `FALSE`     | none                                 |
//! | 2   | `TRUE`      | none                                 |
//! | 3   | `Int`       | zigzag varint                        |
//! | 4   | `Double`    | 8 bytes, `f64::to_bits` little-endian |
//! | 5   | `Varchar`   | varint length, then UTF-8 bytes      |
//! | 6   | `Date`      | zigzag varint day number             |
//! | 7   | `Timestamp` | zigzag varint microseconds           |
//!
//! A row is its values in column order with no width prefix; the reader
//! decodes it against the table's [`Schema`] and checks every tag
//! against its column's type. A row list is a varint count followed by
//! the rows.
//!
//! Decoding never panics and never trusts a length: a count or length
//! larger than the bytes left, an unknown tag, a value that does not
//! fit its column, or a varint longer than ten bytes is reported as
//! [`HanaError::Io`]`("corrupt …")`.

use crate::datatype::DataType;
use crate::date::Date;
use crate::error::{HanaError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_VARCHAR: u8 = 5;
const TAG_DATE: u8 = 6;
const TAG_TIMESTAMP: u8 = 7;

/// Column types, indexed by their tag.
const TYPES: [DataType; 7] = [
    DataType::Bool,
    DataType::Int,
    DataType::BigInt,
    DataType::Double,
    DataType::Varchar,
    DataType::Date,
    DataType::Timestamp,
];

/// The corruption error every decoder in the workspace reports.
pub fn corrupt(what: &str) -> HanaError {
    HanaError::Io(format!("corrupt {what}"))
}

/// Appends encoded fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte (record and kind tags).
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// An unsigned LEB128 varint.
    pub fn uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A signed integer as a zigzag varint.
    pub fn int(&mut self, v: i64) {
        self.uint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.uint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A column type.
    pub fn data_type(&mut self, ty: DataType) {
        self.u8(TYPES
            .iter()
            .position(|&t| t == ty)
            .expect("every type has a tag") as u8);
    }

    /// One type-tagged value.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(TAG_NULL),
            Value::Bool(false) => self.u8(TAG_FALSE),
            Value::Bool(true) => self.u8(TAG_TRUE),
            Value::Int(i) => {
                self.u8(TAG_INT);
                self.int(*i);
            }
            Value::Double(d) => {
                self.u8(TAG_DOUBLE);
                self.buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Varchar(s) => {
                self.u8(TAG_VARCHAR);
                self.str(s);
            }
            Value::Date(d) => {
                self.u8(TAG_DATE);
                self.int(d.0 as i64);
            }
            Value::Timestamp(t) => {
                self.u8(TAG_TIMESTAMP);
                self.int(*t);
            }
        }
    }

    /// One row: its values in column order.
    pub fn row(&mut self, row: &[Value]) {
        for v in row {
            self.value(v);
        }
    }

    /// A counted list of rows.
    pub fn rows(&mut self, rows: &[Row]) {
        self.uint(rows.len() as u64);
        for r in rows {
            self.row(r.values());
        }
    }
}

/// Decodes fields from the front of a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Fail unless every byte was consumed.
    pub fn finish(&self) -> Result<()> {
        match self.buf {
            [] => Ok(()),
            _ => Err(corrupt("record: trailing bytes")),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(corrupt("record: truncated"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// An unsigned LEB128 varint.
    pub fn uint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(corrupt("varint: overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(corrupt("varint: too long"))
    }

    /// A zigzag-encoded signed integer.
    pub fn int(&mut self) -> Result<i64> {
        let v = self.uint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// An element count, checked against the bytes left: every element
    /// takes at least one byte, so a larger count is corruption, never
    /// an allocation.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.uint()?;
        if n > self.buf.len() as u64 {
            return Err(corrupt("record: count exceeds the bytes left"));
        }
        Ok(n as usize)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count()?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| corrupt("string: not UTF-8"))
    }

    /// A column type.
    pub fn data_type(&mut self) -> Result<DataType> {
        let tag = self.u8()?;
        TYPES
            .get(tag as usize)
            .copied()
            .ok_or_else(|| corrupt("column type tag"))
    }

    /// One type-tagged value of any type.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(self.int()?),
            TAG_DOUBLE => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("took 8 bytes");
                Value::Double(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            TAG_VARCHAR => Value::Varchar(self.str()?.to_string()),
            TAG_DATE => Value::Date(Date(
                i32::try_from(self.int()?).map_err(|_| corrupt("date: out of range"))?,
            )),
            TAG_TIMESTAMP => Value::Timestamp(self.int()?),
            _ => return Err(corrupt("value tag")),
        })
    }

    /// One value that must fit a column of type `ty` (NULL always
    /// fits; see [`DataType::accepts`]).
    pub fn value_of(&mut self, ty: DataType) -> Result<Value> {
        let v = self.value()?;
        match v.data_type() {
            Some(t) if !ty.accepts(t) => Err(corrupt(&format!("value: {t} in a {ty} column"))),
            _ => Ok(v),
        }
    }

    /// One row of `schema`.
    pub fn row(&mut self, schema: &Schema) -> Result<Row> {
        schema
            .columns()
            .iter()
            .map(|c| self.value_of(c.data_type))
            .collect::<Result<_>>()
            .map(Row)
    }

    /// A counted list of rows of `schema`.
    pub fn rows(&mut self, schema: &Schema) -> Result<Vec<Row>> {
        let n = self.count()?;
        (0..n).map(|_| self.row(schema)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(v: &Value) -> Vec<u8> {
        let mut w = Writer::default();
        w.value(v);
        w.into_bytes()
    }

    /// Bit-exact equality: doubles by `to_bits` (NaN payloads and the
    /// sign of zero included), everything else by `Eq`.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Double(_), _) | (_, Value::Double(_)) => false,
            _ => a == b && a.data_type() == b.data_type(),
        }
    }

    fn any_value() -> impl Strategy<Value = Value> {
        let text = prop_oneof![
            Just(String::new()),
            Just("null".to_string()),
            Just("\\N".to_string()),
            Just("C:\\new".to_string()),
            Just("\u{1}\u{1d}\u{1e}\u{1f}\n\t".to_string()),
            "[a-z\u{1e}\u{1f}\n\t]{0,12}",
        ];
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            prop_oneof![
                any::<u64>().prop_map(f64::from_bits),
                Just(f64::NAN),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ]
            .prop_map(Value::Double),
            text.prop_map(Value::Varchar),
            any::<i32>().prop_map(|d| Value::Date(Date(d))),
            any::<i64>().prop_map(Value::Timestamp),
        ]
    }

    #[test]
    fn extremes_round_trip_bit_exactly() {
        let vals = [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Timestamp(i64::MIN),
            Value::Timestamp(i64::MAX),
            Value::Date(Date(i32::MIN)),
            Value::Date(Date(i32::MAX)),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Varchar(String::new()),
        ];
        for v in vals {
            let bytes = encode(&v);
            let mut r = Reader::new(&bytes);
            assert!(same(&r.value().unwrap(), &v), "{v:?}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn tags_are_checked_against_the_column_type() {
        let schema = Schema::of(&[("k", DataType::Int), ("d", DataType::Double)]);
        let mut w = Writer::default();
        w.row(&[Value::Int(1), Value::Int(2)]);
        let ok = w.into_bytes();
        assert_eq!(
            Reader::new(&ok).row(&schema).unwrap(),
            Row(vec![Value::Int(1), Value::Int(2)]),
            "an integer fits a DOUBLE column, as in Schema::check_row"
        );
        let mut w = Writer::default();
        w.row(&[Value::Varchar("x".into()), Value::Null]);
        let bad = w.into_bytes();
        let err = Reader::new(&bad).row(&schema).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn oversized_counts_are_corruption_not_allocations() {
        let mut w = Writer::default();
        w.uint(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).bytes().is_err());
        assert!(Reader::new(&bytes)
            .rows(&Schema::of(&[("k", DataType::Int)]))
            .is_err());
        assert!(Reader::new(&[0xFF; 11]).uint().is_err(), "varint too long");
        assert!(
            Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02])
                .uint()
                .is_err()
        );
    }

    proptest! {
        #[test]
        fn any_value_round_trips_bit_exactly(vals in proptest::collection::vec(any_value(), 0..8)) {
            let mut w = Writer::default();
            for v in &vals {
                w.value(v);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            for v in &vals {
                let got = r.value().unwrap();
                prop_assert!(same(&got, v), "{:?} came back as {:?}", v, got);
            }
            prop_assert!(r.finish().is_ok());
        }

        #[test]
        fn truncated_or_garbled_input_is_an_error_never_a_panic(
            v in any_value(),
            cut in any::<usize>(),
            flip in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let bytes = encode(&v);
            let cut = cut % bytes.len();
            prop_assert!(Reader::new(&bytes[..cut]).value().is_err());
            let mut garbled = bytes.clone();
            let at = flip % garbled.len();
            garbled[at] ^= mask;
            // A flipped byte may still spell a valid value; what matters
            // is that decoding returns instead of panicking.
            let mut r = Reader::new(&garbled);
            let _ = r.value().and_then(|_| r.finish());
        }
    }
}
