//! Per-partition write-ahead logs with coordinated recovery.
//!
//! Each node of a distributed table gets its own segmented WAL
//! (`<dir>/part-NNN/`), holding full row images of the inserts routed to
//! that partition. Durability is **coordinated** with the transaction
//! coordinator's log:
//!
//! 1. routed rows are appended to their home partition's log;
//! 2. every touched partition log is fsynced (`sync`) *before* the
//!    coordinator makes its commit record durable — so a commit record
//!    in the coordinator log proves the partition redo is on disk;
//! 3. after the commit point, a `Commit` marker is appended to the
//!    partition logs without its own fsync (pure bookkeeping — the
//!    coordinator log is the source of truth for outcomes).
//!
//! Recovery therefore replays a partition log's `Data` records only for
//! transactions the *coordinator* log committed: a partition record
//! whose coordinator commit never became durable is ignored, and a
//! partition tail torn mid-append can only affect transactions whose
//! commit record cannot exist either.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hana_txn::{LogRecord, Wal};
use hana_types::codec::{Reader, Writer};
use hana_types::{Result, Value};

use crate::table::DistTable;

/// One WAL per node of a distributed table.
pub struct PartitionWals {
    dir: PathBuf,
    wals: Vec<Arc<Wal>>,
}

impl PartitionWals {
    /// Root directory of the partition logs.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl DistTable {
    /// Attach per-partition WALs under `dir` (one subdirectory per
    /// node). Idempotent for the same directory.
    pub fn attach_wal(&self, dir: &Path) -> Result<()> {
        let mut slot = self.wal_slot().write();
        if slot.is_none() {
            let wals = (0..self.node_count())
                .map(|p| Wal::open_dir(&dir.join(format!("part-{p:03}"))).map(Arc::new))
                .collect::<Result<_>>()?;
            let dir = dir.to_path_buf();
            *slot = Some(Arc::new(PartitionWals { dir, wals }));
        }
        Ok(())
    }

    /// Whether per-partition WALs are attached.
    pub fn wal_attached(&self) -> bool {
        self.wal_slot().read().is_some()
    }

    /// The attached partition logs, if any.
    pub fn partition_wals(&self) -> Option<Arc<PartitionWals>> {
        self.wal_slot().read().clone()
    }

    /// Log one routed row image to its home partition's WAL (no fsync;
    /// [`DistTable::sync_wal`] is the durability point). A no-op when no
    /// WAL is attached.
    pub fn log_insert(&self, tid: u64, row: &[Value]) -> Result<()> {
        let Some(wals) = self.partition_wals() else {
            return Ok(());
        };
        let node = self.route(row);
        let mut w = Writer::default();
        w.row(row);
        wals.wals[node].append(LogRecord::Data {
            tid,
            payload: w.into_bytes(),
        })
    }

    /// Make every partition log durable. Called *before* the
    /// coordinator's commit record so a durable commit implies durable
    /// partition redo.
    pub fn sync_wal(&self) -> Result<()> {
        if let Some(wals) = self.partition_wals() {
            for w in &wals.wals {
                w.sync()?;
            }
        }
        Ok(())
    }

    /// Post-commit bookkeeping: mark `tid` committed in every partition
    /// log (not individually fsynced — the coordinator log decides).
    pub fn log_commit(&self, tid: u64, cid: u64) {
        if let Some(wals) = self.partition_wals() {
            for w in &wals.wals {
                if let Err(e) = w.append(LogRecord::Commit { tid, cid }) {
                    hana_obs::warn(format!(
                        "partition WAL commit marker for txn {tid} lost: {e}"
                    ));
                }
            }
        }
    }

    /// Redo the partition-logged inserts of coordinator-committed
    /// transaction `tid`, applying them at `cid` into each node's
    /// fragment. Returns the number of rows applied.
    pub fn redo_txn(&self, tid: u64, cid: u64) -> Result<usize> {
        let Some(wals) = self.partition_wals() else {
            return Ok(0);
        };
        let schema = self.schema().clone();
        let mut applied = 0usize;
        for (node, wal) in wals.wals.iter().enumerate() {
            for rec in wal.records() {
                let LogRecord::Data { tid: t, payload } = rec else {
                    continue;
                };
                if t != tid {
                    continue;
                }
                let mut r = Reader::new(&payload);
                let row = r.row(&schema)?;
                r.finish()?;
                self.nodes()[node].insert(row.values(), cid)?;
                applied += 1;
            }
        }
        hana_obs::registry()
            .counter("hana_dist_partition_redo_rows_total")
            .add(applied as u64);
        Ok(applied)
    }
}
