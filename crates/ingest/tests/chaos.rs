//! Chaos tests for streaming ingest: flaky and down partition nodes
//! mid-stream, crash recovery mid-epoch, and delta merges racing the
//! ingest path. The invariant under every fault is the same —
//! **exactly-once**: the target table ends up byte-identical to a
//! clean bulk load of the same rows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_core::{HanaPlatform, IngestCommit, Session};
use hana_dist::FaultPlan;
use hana_ingest::{IngestConfig, IngestRuntime};
use hana_query::TableSource;
use hana_types::{Row, Value};

fn platform() -> (Arc<HanaPlatform>, Session) {
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    (hana, session)
}

fn row(k: i64, v: &str) -> Row {
    Row::from_values([Value::Int(k), Value::from(v)])
}

/// `SELECT k, v ... ORDER BY` both tables and compare row-for-row.
fn assert_tables_equal(hana: &HanaPlatform, s: &Session, left: &str, right: &str) {
    let q = |t: &str| {
        hana.execute_sql(s, &format!("SELECT k, v FROM {t} ORDER BY k, v"))
            .unwrap()
    };
    let (l, r) = (q(left), q(right));
    assert_eq!(l.rows, r.rows, "{left} and {right} diverged");
}

fn fault_all_links(hana: &HanaPlatform, table: &str, plan: Option<FaultPlan>) {
    let entry = hana.catalog().table(table).unwrap();
    let TableSource::Distributed(dt) = &entry.source else {
        panic!("{table} is not distributed");
    };
    for link in dt.links() {
        link.set_fault(plan);
    }
}

/// A flaky 4-partition landscape: ~30% of chunk sends fail with
/// retryable errors while an ESP stream feeds the table. The chunk
/// retry machinery heals the faults and the final content matches a
/// clean bulk load of the same rows.
#[test]
fn flaky_links_stream_matches_bulk_load() {
    let (hana, s) = platform();
    for t in ["stream_t", "bulk_t"] {
        hana.execute_sql(
            &s,
            &format!(
                "CREATE COLUMN TABLE {t} (k INTEGER, v VARCHAR(16)) \
                 PARTITION BY HASH(k) PARTITIONS 4"
            ),
        )
        .unwrap();
    }
    fault_all_links(&hana, "stream_t", Some(FaultPlan::flaky(0xC4A05, 0.3)));
    hana.esp()
        .deploy("CREATE INPUT STREAM events SCHEMA (k INTEGER, v VARCHAR(16));")
        .unwrap();

    let rt = IngestRuntime::install_with(
        &hana,
        &s,
        IngestConfig::default()
            .with_batch_rows(16)
            .with_max_inflight(2),
    );
    let pipe = rt.attach("feed", "events", "stream_t").unwrap();

    let rows: Vec<Row> = (0..500).map(|i| row(i % 97, &format!("v{i}"))).collect();
    for (i, r) in rows.iter().enumerate() {
        hana.esp().send("events", i as i64, r.clone()).unwrap();
    }
    pipe.flush().unwrap();
    let stats = rt.detach("feed").unwrap();
    assert_eq!(stats.rows_committed, 500);
    assert!(stats.batches_committed >= 500 / 16);
    assert_eq!(stats.epochs_deduped, 0);
    // Heal the links so verification queries don't fight the faults.
    fault_all_links(&hana, "stream_t", None);

    hana.load_rows(&s, "bulk_t", &rows).unwrap();
    assert_tables_equal(&hana, &s, "stream_t", "bulk_t");
}

/// One partition node goes fully down mid-stream (every chunk send to
/// it fails, retryably). The pipeline keeps retrying the stuck epoch,
/// its bounded buffer fills, backpressure blocks the producer — and
/// once the node heals, everything drains with no loss or duplication.
#[test]
fn node_down_backpressure_then_heal() {
    let (hana, s) = platform();
    for t in ["stream_t", "bulk_t"] {
        hana.execute_sql(
            &s,
            &format!(
                "CREATE COLUMN TABLE {t} (k INTEGER, v VARCHAR(16)) \
                 PARTITION BY HASH(k) PARTITIONS 2"
            ),
        )
        .unwrap();
    }
    hana.esp()
        .deploy("CREATE INPUT STREAM events SCHEMA (k INTEGER, v VARCHAR(16));")
        .unwrap();
    // Tiny buffer (4×1 rows) so the outage visibly backpressures.
    let rt = IngestRuntime::install_with(
        &hana,
        &s,
        IngestConfig::default()
            .with_batch_rows(4)
            .with_max_inflight(1),
    );
    let pipe = rt.attach("feed", "events", "stream_t").unwrap();
    fault_all_links(&hana, "stream_t", Some(FaultPlan::flaky(7, 1.0)));

    let rows: Vec<Row> = (0..64).map(|i| row(i, &format!("v{i}"))).collect();
    let producer = {
        let hana = Arc::clone(&hana);
        let rows = rows.clone();
        std::thread::spawn(move || {
            for (i, r) in rows.iter().enumerate() {
                hana.esp().send("events", i as i64, r.clone()).unwrap();
            }
        })
    };
    // The stuck epoch must retry and the producer must block.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let st = pipe.stats();
        if st.retries > 0 && st.backpressure_waits > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no retries/backpressure observed: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        pipe.stats().rows_committed,
        0,
        "node is down; nothing lands"
    );

    fault_all_links(&hana, "stream_t", None); // the node heals
    producer.join().unwrap();
    pipe.flush().unwrap();
    let stats = rt.detach("feed").unwrap();
    assert_eq!(stats.rows_committed, 64);
    assert!(stats.retries > 0);
    assert!(stats.backpressure_waits > 0);

    hana.load_rows(&s, "bulk_t", &rows).unwrap();
    assert_tables_equal(&hana, &s, "stream_t", "bulk_t");
}

/// Crash-recover a durable distributed table mid-stream: epochs
/// committed before the crash replay exactly once (including one only
/// covered by the checkpoint), re-delivered epochs dedup against the
/// recovered ledger, and the next epoch commits normally.
#[test]
fn crash_recovery_replays_epochs_exactly_once() {
    let dir = std::env::temp_dir().join(format!("hana-ingest-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let epoch_rows = |e: u64| -> Vec<Row> {
        (0..4)
            .map(|i| row((e * 10 + i) as i64, &format!("e{e}r{i}")))
            .collect()
    };

    {
        let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
        let hana = Arc::new(hana);
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE t (k INTEGER, v VARCHAR(16)) \
             PARTITION BY HASH(k) PARTITIONS 2",
        )
        .unwrap();
        for e in 1..=2 {
            let c = hana
                .commit_ingest_batch(&s, "feed", e, "t", &epoch_rows(e))
                .unwrap();
            assert!(matches!(c, IngestCommit::Committed { .. }));
        }
        // The checkpoint cut covers epochs 1–2 (rows + ledger): their
        // log records may be pruned, yet they must still dedup later.
        hana.write_checkpoint().unwrap();
        let c = hana
            .commit_ingest_batch(&s, "feed", 3, "t", &epoch_rows(3))
            .unwrap();
        assert!(matches!(c, IngestCommit::Committed { .. }));
        // Crash: drop without a clean shutdown. Epoch 3 lives only in
        // the logs.
    }

    let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
    let hana = Arc::new(hana);
    let s = hana.connect("SYSTEM", "manager").unwrap();
    assert_eq!(hana.ingest_epoch("feed"), 3, "ledger recovered");
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        rs.scalar().unwrap(),
        &Value::Int(12),
        "epochs 1–3, once each"
    );

    // A restarted producer re-delivers everything it never got an ack
    // for: all of it dedups.
    for e in 1..=3 {
        let c = hana
            .commit_ingest_batch(&s, "feed", e, "t", &epoch_rows(e))
            .unwrap();
        assert!(
            matches!(c, IngestCommit::Deduplicated { last_epoch: 3 }),
            "epoch {e} must dedup, got {c:?}"
        );
    }
    // A re-delivered epoch is still validated: an unknown table or a
    // row that does not fit the schema is an error, not a dedup.
    assert!(hana
        .commit_ingest_batch(&s, "feed", 1, "missing", &epoch_rows(1))
        .is_err());
    let misfit = [Row::from_values([Value::from("k"), Value::Int(1)])];
    assert!(hana
        .commit_ingest_batch(&s, "feed", 1, "t", &misfit)
        .is_err());
    // The stream then moves on.
    let c = hana
        .commit_ingest_batch(&s, "feed", 4, "t", &epoch_rows(4))
        .unwrap();
    assert!(matches!(c, IngestCommit::Committed { .. }));
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(16));

    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for the MERGE DELTA / checkpoint epoch fence: merges and
/// checkpoints race ingest commits the whole time, the platform then
/// crashes, and recovery must still land every epoch exactly once —
/// no epoch half-in a checkpoint cut, none double-applied by replay.
#[test]
fn merge_delta_and_checkpoints_racing_ingest_stay_exactly_once() {
    let dir = std::env::temp_dir().join(format!("hana-ingest-fence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    const EPOCHS: u64 = 20;
    const ROWS_PER_EPOCH: u64 = 8;
    let epoch_rows = |e: u64| -> Vec<Row> {
        (0..ROWS_PER_EPOCH)
            .map(|i| row((e * 100 + i) as i64, &format!("e{e}r{i}")))
            .collect()
    };

    {
        let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
        let hana = Arc::new(hana);
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE t (k INTEGER, v VARCHAR(16)) \
             PARTITION BY HASH(k) PARTITIONS 2",
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let merger = {
            let hana = Arc::clone(&hana);
            let s = hana.connect("SYSTEM", "manager").unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
                    if n.is_multiple_of(3) {
                        hana.write_checkpoint().unwrap();
                    }
                    n += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        for e in 1..=EPOCHS {
            let c = hana
                .commit_ingest_batch(&s, "feed", e, "t", &epoch_rows(e))
                .unwrap();
            assert!(matches!(c, IngestCommit::Committed { .. }));
        }
        stop.store(true, Ordering::Relaxed);
        merger.join().unwrap();
        // Crash without a final checkpoint: recovery stitches the last
        // cut together with whatever epochs only the logs carry.
    }

    let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
    let hana = Arc::new(hana);
    let s = hana.connect("SYSTEM", "manager").unwrap();
    assert_eq!(hana.ingest_epoch("feed"), EPOCHS);
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        rs.scalar().unwrap(),
        &Value::Int((EPOCHS * ROWS_PER_EPOCH) as i64),
        "every epoch exactly once across the merge/checkpoint races"
    );
    // Every k appears exactly once (no double-applied epoch).
    let rs = hana
        .execute_sql(&s, "SELECT k, COUNT(*) AS n FROM t GROUP BY k")
        .unwrap();
    assert_eq!(rs.len(), (EPOCHS * ROWS_PER_EPOCH) as usize);
    assert!(
        rs.rows.iter().all(|r| r[1] == Value::Int(1)),
        "duplicated k"
    );
    // Re-delivery after recovery still dedups.
    for e in 1..=EPOCHS {
        let c = hana
            .commit_ingest_batch(&s, "feed", e, "t", &epoch_rows(e))
            .unwrap();
        assert!(matches!(c, IngestCommit::Deduplicated { .. }));
    }

    std::fs::remove_dir_all(&dir).ok();
}
