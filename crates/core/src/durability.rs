//! The platform's durable formats, both built on `hana_types::codec`:
//!
//! - [`Redo`], the payload of every coordinator-log data record;
//! - the checkpoint snapshot: a [`Backup`](crate::Backup) serialized to
//!   bytes for the WAL's checkpoint sidecar, and back.
//!
//! Checkpoint layout, every field in codec encoding:
//!
//! ```text
//! "HANACKPT" cid
//! count { pipeline epoch }                     -- ingest ledger
//! count {                                      -- tables
//!   name
//!   count { column-name type nullable }
//!   kind                                       -- tag + fields; range
//!                                              -- split points are values
//!   count { index-name count { column } }
//!   rows cold-rows                             -- counted row lists
//! }
//! ```

use std::borrow::Cow;

use hana_columnar::IndexDef;
use hana_sql::PartitionBy;
use hana_types::codec::{corrupt, Reader, Writer};
use hana_types::{ColumnDef, Result, Row, Schema};

use crate::catalog::TableKindInfo;
use crate::platform::{Backup, BackupEntry};

/// One logical redo record of the coordinator log.
pub(crate) enum Redo<'a> {
    /// DDL or DML statement text, replayed through `execute_sql`.
    Stmt(String),
    /// A bulk load with its rows inline.
    Load { table: String, rows: Cow<'a, [Row]> },
    /// A bulk load into a distributed table whose rows live in the
    /// table's partition logs.
    DistLoad { table: String },
    /// A streaming-ingest epoch; `rows` is `None` when they live in the
    /// partition logs of a distributed table.
    Ingest {
        pipeline: String,
        epoch: u64,
        table: String,
        rows: Option<Cow<'a, [Row]>>,
    },
}

impl Redo<'_> {
    /// The log payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Redo::Stmt(sql) => {
                w.u8(b'S');
                w.str(sql);
            }
            Redo::Load { table, rows } => {
                w.u8(b'L');
                w.str(table);
                w.rows(rows);
            }
            Redo::DistLoad { table } => {
                w.u8(b'D');
                w.str(table);
            }
            Redo::Ingest {
                pipeline,
                epoch,
                table,
                rows,
            } => {
                w.u8(b'I');
                w.str(pipeline);
                w.uint(*epoch);
                w.str(table);
                match rows {
                    None => w.u8(0),
                    Some(rows) => {
                        w.u8(1);
                        w.rows(rows);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a log payload. Inline rows are checked against the schema
    /// `schema_of` returns for their table.
    pub(crate) fn decode(
        bytes: &[u8],
        schema_of: impl Fn(&str) -> Result<Schema>,
    ) -> Result<Redo<'static>> {
        let mut r = Reader::new(bytes);
        let redo = match r.u8()? {
            b'S' => Redo::Stmt(r.str()?.to_string()),
            b'L' => {
                let table = r.str()?;
                Redo::Load {
                    table: table.to_string(),
                    rows: Cow::Owned(r.rows(&schema_of(table)?)?),
                }
            }
            b'D' => Redo::DistLoad {
                table: r.str()?.to_string(),
            },
            b'I' => {
                let pipeline = r.str()?.to_string();
                let epoch = r.uint()?;
                let table = r.str()?;
                let rows = match r.u8()? {
                    0 => None,
                    1 => Some(Cow::Owned(r.rows(&schema_of(table)?)?)),
                    _ => return Err(corrupt("ingest redo record")),
                };
                Redo::Ingest {
                    pipeline,
                    epoch,
                    table: table.to_string(),
                    rows,
                }
            }
            _ => return Err(corrupt("redo record kind")),
        };
        r.finish()?;
        Ok(redo)
    }
}

const MAGIC: &str = "HANACKPT";

fn encode_kind(w: &mut Writer, kind: &TableKindInfo) {
    match kind {
        TableKindInfo::Column => w.u8(0),
        TableKindInfo::Row => w.u8(1),
        TableKindInfo::Extended => w.u8(2),
        TableKindInfo::Virtual => w.u8(3),
        TableKindInfo::Hybrid {
            aging_column,
            cold_table,
        } => {
            w.u8(4);
            w.str(aging_column);
            w.str(cold_table);
        }
        TableKindInfo::Distributed {
            partition: PartitionBy::Hash { column, partitions },
        } => {
            w.u8(5);
            w.str(column);
            w.uint(*partitions as u64);
        }
        TableKindInfo::Distributed {
            partition:
                PartitionBy::Range {
                    column,
                    split_points,
                },
        } => {
            w.u8(6);
            w.str(column);
            w.uint(split_points.len() as u64);
            for v in split_points {
                w.value(v);
            }
        }
    }
}

fn decode_kind(r: &mut Reader<'_>, schema: &Schema) -> Result<TableKindInfo> {
    Ok(match r.u8()? {
        0 => TableKindInfo::Column,
        1 => TableKindInfo::Row,
        2 => TableKindInfo::Extended,
        3 => TableKindInfo::Virtual,
        4 => TableKindInfo::Hybrid {
            aging_column: r.str()?.to_string(),
            cold_table: r.str()?.to_string(),
        },
        5 => TableKindInfo::Distributed {
            partition: PartitionBy::Hash {
                column: r.str()?.to_string(),
                partitions: usize::try_from(r.uint()?)
                    .map_err(|_| corrupt("checkpoint: hash partition count"))?,
            },
        },
        6 => {
            let column = r.str()?.to_string();
            let key = schema
                .index_of(&column)
                .ok_or_else(|| corrupt("checkpoint: unknown range column"))?;
            let ty = schema.column(key).data_type;
            let n = r.count()?;
            TableKindInfo::Distributed {
                partition: PartitionBy::Range {
                    column,
                    split_points: (0..n).map(|_| r.value_of(ty)).collect::<Result<_>>()?,
                },
            }
        }
        _ => return Err(corrupt("checkpoint: table kind")),
    })
}

/// Serialize a backup into checkpoint payload bytes.
pub(crate) fn encode_backup(backup: &Backup) -> Vec<u8> {
    let mut w = Writer::default();
    w.str(MAGIC);
    w.uint(backup.cid);
    w.uint(backup.ingest_epochs.len() as u64);
    for (pipeline, epoch) in &backup.ingest_epochs {
        w.str(pipeline);
        w.uint(*epoch);
    }
    w.uint(backup.entries.len() as u64);
    for e in &backup.entries {
        w.str(&e.name);
        w.uint(e.schema.len() as u64);
        for c in e.schema.columns() {
            w.str(&c.name);
            w.data_type(c.data_type);
            w.u8(c.nullable as u8);
        }
        encode_kind(&mut w, &e.kind);
        w.uint(e.indexes.len() as u64);
        for ix in &e.indexes {
            w.str(&ix.name);
            w.uint(ix.columns.len() as u64);
            for col in &ix.columns {
                w.str(col);
            }
        }
        w.rows(&e.rows);
        w.rows(&e.cold_rows);
    }
    w.into_bytes()
}

fn decode_entry(r: &mut Reader<'_>) -> Result<BackupEntry> {
    let name = r.str()?.to_string();
    let columns = (0..r.count()?)
        .map(|_| {
            Ok(ColumnDef {
                name: r.str()?.to_string(),
                data_type: r.data_type()?,
                nullable: r.u8()? != 0,
            })
        })
        .collect::<Result<_>>()?;
    let schema = Schema::new(columns)?;
    let kind = decode_kind(r, &schema)?;
    let indexes = (0..r.count()?)
        .map(|_| {
            Ok(IndexDef {
                name: r.str()?.to_string(),
                columns: (0..r.count()?)
                    .map(|_| r.str().map(str::to_string))
                    .collect::<Result<_>>()?,
            })
        })
        .collect::<Result<_>>()?;
    let rows = r.rows(&schema)?;
    let cold_rows = r.rows(&schema)?;
    Ok(BackupEntry {
        name,
        kind,
        schema,
        rows,
        cold_rows,
        indexes,
    })
}

/// Parse checkpoint payload bytes back into a [`Backup`].
pub(crate) fn decode_backup(payload: &[u8]) -> Result<Backup> {
    let mut r = Reader::new(payload);
    if r.str().ok() != Some(MAGIC) {
        return Err(corrupt("checkpoint snapshot: bad magic"));
    }
    let cid = r.uint()?;
    let ingest_epochs = (0..r.count()?)
        .map(|_| Ok((r.str()?.to_string(), r.uint()?)))
        .collect::<Result<_>>()?;
    let entries = (0..r.count()?)
        .map(|_| decode_entry(&mut r))
        .collect::<Result<_>>()?;
    r.finish()?;
    Ok(Backup {
        cid,
        entries,
        ingest_epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::{DataType, Date, Value};

    /// Values the old delimiter-text formats lost or could not reopen.
    fn adversarial_rows() -> Vec<Row> {
        let texts = [
            "", "null", "\\N", "\u{1}", "\u{1d}", "\u{1e}", "\u{1f}", "C:\\new", "a\nb", "a\tb",
        ];
        let doubles = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let ints = [i64::MIN, i64::MAX, 0];
        let dates = [Date(-1_000_000), Date(i32::MAX), Date(i32::MIN)];
        (0..texts.len())
            .map(|i| {
                Row(vec![
                    Value::Int(ints[i % ints.len()]),
                    Value::Varchar(texts[i].into()),
                    Value::Double(doubles[i % doubles.len()]),
                    Value::Date(dates[i % dates.len()]),
                    Value::Timestamp(ints[i % ints.len()]),
                ])
            })
            .collect()
    }

    fn same_bits(a: &[Row], b: &[Row]) -> bool {
        let bits = |rows: &[Row]| -> Vec<Vec<Option<u64>>> {
            rows.iter()
                .map(|r| {
                    r.values()
                        .iter()
                        .map(|v| match v {
                            Value::Double(d) => Some(d.to_bits()),
                            _ => None,
                        })
                        .collect()
                })
                .collect()
        };
        a == b && bits(a) == bits(b)
    }

    #[test]
    fn backup_round_trips_through_the_codec() {
        let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Varchar)]);
        let wide = Schema::of(&[
            ("k", DataType::BigInt),
            ("s", DataType::Varchar),
            ("d", DataType::Double),
            ("day", DataType::Date),
            ("ts", DataType::Timestamp),
        ]);
        let backup = Backup {
            cid: 42,
            entries: vec![
                BackupEntry {
                    name: "plain".into(),
                    kind: TableKindInfo::Column,
                    schema: schema.clone(),
                    rows: vec![
                        Row(vec![Value::Int(1), Value::Varchar("a b".into())]),
                        Row(vec![Value::Int(2), Value::Null]),
                    ],
                    cold_rows: Vec::new(),
                    indexes: vec![IndexDef {
                        name: "ix_ks".into(),
                        columns: vec!["k".into(), "s".into()],
                    }],
                },
                BackupEntry {
                    name: "parts".into(),
                    kind: TableKindInfo::Distributed {
                        partition: PartitionBy::Range {
                            column: "k".into(),
                            split_points: vec![Value::Int(10), Value::Int(20)],
                        },
                    },
                    schema,
                    rows: Vec::new(),
                    cold_rows: Vec::new(),
                    indexes: Vec::new(),
                },
                BackupEntry {
                    name: "adversarial".into(),
                    kind: TableKindInfo::Distributed {
                        partition: PartitionBy::Range {
                            column: "s".into(),
                            split_points: vec![Value::Varchar(String::new())],
                        },
                    },
                    schema: wide,
                    rows: adversarial_rows(),
                    cold_rows: adversarial_rows(),
                    indexes: Vec::new(),
                },
            ],
            ingest_epochs: vec![("feed".into(), 12), ("other".into(), 3)],
        };
        let decoded = decode_backup(&encode_backup(&backup)).unwrap();
        assert_eq!(decoded.cid, 42);
        assert_eq!(decoded.ingest_epochs, backup.ingest_epochs);
        assert_eq!(decoded.entries.len(), 3);
        assert_eq!(decoded.entries[0].rows, backup.entries[0].rows);
        assert_eq!(decoded.entries[0].kind, backup.entries[0].kind);
        assert_eq!(decoded.entries[0].indexes, backup.entries[0].indexes);
        assert_eq!(decoded.entries[1].kind, backup.entries[1].kind);
        assert!(decoded.entries[1].indexes.is_empty());
        let (got, want) = (&decoded.entries[2], &backup.entries[2]);
        assert_eq!(got.kind, want.kind, "a VARCHAR split point '' survives");
        assert_eq!(got.schema, want.schema);
        assert!(same_bits(&got.rows, &want.rows), "{:?}", got.rows);
        assert!(same_bits(&got.cold_rows, &want.cold_rows));
    }

    #[test]
    fn redo_records_round_trip() {
        let schema = Schema::of(&[
            ("k", DataType::BigInt),
            ("s", DataType::Varchar),
            ("d", DataType::Double),
            ("day", DataType::Date),
            ("ts", DataType::Timestamp),
        ]);
        let rows = adversarial_rows();
        let redos = [
            Redo::Stmt("INSERT INTO r VALUES (1, 'C:\\new')".into()),
            Redo::Load {
                table: "t".into(),
                rows: Cow::Borrowed(&rows),
            },
            Redo::DistLoad { table: "d".into() },
            Redo::Ingest {
                pipeline: "feed".into(),
                epoch: u64::MAX,
                table: "t".into(),
                rows: Some(Cow::Borrowed(&rows)),
            },
            Redo::Ingest {
                pipeline: "feed".into(),
                epoch: 7,
                table: "d".into(),
                rows: None,
            },
        ];
        for redo in redos {
            let bytes = redo.encode();
            let back = Redo::decode(&bytes, |_| Ok(schema.clone())).unwrap();
            assert_eq!(back.encode(), bytes, "decoding kept every bit");
            for cut in 0..bytes.len() {
                assert!(Redo::decode(&bytes[..cut], |_| Ok(schema.clone())).is_err());
            }
        }
    }

    #[test]
    fn damaged_payload_is_an_error_not_a_panic() {
        assert!(decode_backup(b"garbage").is_err());
        assert!(decode_backup(&[0xFF, 0xFE]).is_err());
        assert!(decode_backup(b"HANACKPT1\x1d7").is_err(), "no text reader");
        let bytes = encode_backup(&Backup {
            cid: 1,
            entries: Vec::new(),
            ingest_epochs: vec![("p".into(), 1)],
        });
        for cut in 0..bytes.len() {
            let err = decode_backup(&bytes[..cut])
                .err()
                .expect("truncation detected");
            assert!(err.to_string().contains("corrupt"), "{err}");
        }
    }
}
