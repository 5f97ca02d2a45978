//! E15 — group commit vs per-commit fsync: 32 concurrent committers
//! drive durable transactions through the WAL twice, once with the
//! group-commit window enabled (one fsync per batch) and once with it
//! disabled (every commit pays its own fsync). Emits
//! `BENCH_wal_commit.json` at the repository root with both
//! throughputs, the fsync counts actually paid, and the speedup over
//! the per-commit baseline.
//!
//! The log directories live under `target/` — *not* `/tmp`, which is
//! commonly tmpfs where fsync is free and the comparison meaningless.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion, Throughput};
use hana_txn::{LogRecord, Wal, WalConfig};

/// Concurrent committer threads (ISSUE floor: 32).
const COMMITTERS: u64 = 32;
/// Durable transactions per committer in the timed comparison.
const TXNS_PER_COMMITTER: u64 = 64;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
        .join(format!("bench-wal-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(window: Duration) -> WalConfig {
    WalConfig {
        group_commit_window: window,
        ..WalConfig::default()
    }
}

fn counter(name: &str) -> u64 {
    hana_obs::registry().counter(name).get()
}

struct ModeOutcome {
    elapsed: Duration,
    fsyncs: u64,
    commits_per_sec: f64,
}

/// Run the 32-committer storm against a fresh log with `window` and
/// return wall time, fsyncs paid and throughput.
fn run_storm(tag: &str, window: Duration) -> ModeOutcome {
    let dir = bench_dir(tag);
    let wal = Arc::new(Wal::open_dir_with(&dir, config(window)).unwrap());
    let fsyncs_before = counter("hana_wal_fsyncs_total");
    let start = Instant::now();
    let handles: Vec<_> = (0..COMMITTERS)
        .map(|t| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for i in 0..TXNS_PER_COMMITTER {
                    let tid = t * TXNS_PER_COMMITTER + i + 1;
                    wal.append(LogRecord::Begin { tid }).unwrap();
                    wal.append(LogRecord::Data {
                        tid,
                        payload: format!("INSERT INTO accounts VALUES ({tid}, {i})").into_bytes(),
                    })
                    .unwrap();
                    // The durable wait is the commit point: the ticket
                    // resolves when the record is on disk.
                    wal.submit_durable(LogRecord::Commit { tid, cid: tid })
                        .wait()
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let fsyncs = counter("hana_wal_fsyncs_total") - fsyncs_before;
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let total = (COMMITTERS * TXNS_PER_COMMITTER) as f64;
    ModeOutcome {
        elapsed,
        fsyncs,
        commits_per_sec: total / elapsed.as_secs_f64(),
    }
}

fn bench_wal_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit");
    group.throughput(Throughput::Elements(1));

    // Single-committer durable append latency in both modes — the
    // uncontended cost floor (group commit only wins under concurrency).
    let direct_dir = bench_dir("direct-single");
    let direct = Wal::open_dir_with(&direct_dir, config(Duration::ZERO)).unwrap();
    let mut tid = 0;
    group.bench_function("per_commit_fsync/single", |b| {
        b.iter(|| {
            tid += 1;
            direct
                .append_durable(LogRecord::Commit { tid, cid: tid })
                .unwrap()
        })
    });
    drop(direct);
    let _ = std::fs::remove_dir_all(&direct_dir);

    let grouped_dir = bench_dir("grouped-single");
    let grouped = Wal::open_dir_with(&grouped_dir, config(Duration::from_micros(200))).unwrap();
    let mut tid = 0;
    group.bench_function("group_commit/single", |b| {
        b.iter(|| {
            tid += 1;
            grouped
                .append_durable(LogRecord::Commit { tid, cid: tid })
                .unwrap()
        })
    });
    drop(grouped);
    let _ = std::fs::remove_dir_all(&grouped_dir);
    group.finish();
}

fn emit_json() {
    let baseline = run_storm("direct", Duration::ZERO);
    let grouped = run_storm("grouped", Duration::from_micros(200));
    let speedup = grouped.commits_per_sec / baseline.commits_per_sec;
    let total = COMMITTERS * TXNS_PER_COMMITTER;

    println!(
        "wal_commit: {COMMITTERS} committers x {TXNS_PER_COMMITTER} txns — \
         group commit {:.0} commits/s over {} fsyncs vs per-commit fsync \
         {:.0} commits/s over {} fsyncs ({speedup:.1}x)",
        grouped.commits_per_sec, grouped.fsyncs, baseline.commits_per_sec, baseline.fsyncs,
    );
    assert!(
        grouped.fsyncs < baseline.fsyncs / 4,
        "group commit must batch fsyncs ({} vs {})",
        grouped.fsyncs,
        baseline.fsyncs
    );
    assert!(
        speedup >= 5.0,
        "group commit must be at least 5x per-commit fsync at {COMMITTERS} \
         committers, measured {speedup:.1}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"wal_commit\",\n  \"committers\": {COMMITTERS},\n  \
         \"txns_per_committer\": {TXNS_PER_COMMITTER},\n  \"total_commits\": {total},\n  \
         \"baseline\": \"per_commit_fsync\",\n  \
         \"per_commit_fsync\": {{\"secs\": {bs:.4}, \"commits_per_sec\": {bq:.1}, \
         \"fsyncs\": {bf}}},\n  \
         \"group_commit\": {{\"window_us\": 200, \"secs\": {gs:.4}, \
         \"commits_per_sec\": {gq:.1}, \"fsyncs\": {gf}}},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        bs = baseline.elapsed.as_secs_f64(),
        bq = baseline.commits_per_sec,
        bf = baseline.fsyncs,
        gs = grouped.elapsed.as_secs_f64(),
        gq = grouped.commits_per_sec,
        gf = grouped.fsyncs,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal_commit.json");
    std::fs::write(path, json).expect("write BENCH_wal_commit.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_wal_commit);

fn main() {
    benches();
    emit_json();
}
