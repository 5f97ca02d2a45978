//! `htap_ingest`: an open-loop event feed streamed into a durable,
//! hash-partitioned table while a session runs group-by queries on it.
//!
//! It loads `ingest`, `esp`, the `dist` repartition exchange, delta
//! merges, checkpoints and scans over a growing delta, while the plan
//! cache and the index sit idle.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_core::HanaPlatform;
use hana_ingest::{IngestConfig, IngestRuntime};
use hana_session::SessionManager;
use hana_types::{Row, Value};

use crate::common::{self, Counters, Report, Rng};
use crate::stats::{self, Summary};
use crate::trace::{self, Input, Trace};
use crate::Args;

/// Rows loaded and merged before the feed starts.
const SEED_ROWS: u64 = 200_000;
/// Distinct keys of the seed rows and the feed.
const KEYS: u64 = 997;
/// Events per second the generator sends, on schedule.
const RATE: u64 = 20_000;
/// MERGE DELTA cadence, in place of a merge policy.
const MERGE_EVERY: Duration = Duration::from_millis(500);
const SETUPS: usize = 5;
/// Reopens timed for `recovery_s`, which reports their median.
const REOPENS: usize = 5;

const GROUP_BY: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM readings GROUP BY k";
const TOTALS: &str = "SELECT COUNT(*), SUM(v) FROM readings";

fn reading(rng: &mut Rng) -> Row {
    Row::from_values([
        Value::Int(rng.below(KEYS) as i64),
        Value::Int(rng.below(1_000) as i64),
    ])
}

fn row_v(row: &Row) -> i64 {
    match row.values()[1] {
        Value::Int(v) => v,
        _ => unreachable!("v is an integer"),
    }
}

fn setup(dir: &Path, rows: &[Row]) -> Arc<HanaPlatform> {
    let (platform, _) = common::open_durable(dir);
    let s = platform.connect("SYSTEM", "manager").expect("connect");
    platform
        .execute_sql(
            &s,
            "CREATE COLUMN TABLE readings (k INTEGER, v INTEGER) PARTITION BY HASH(k) PARTITIONS 2",
        )
        .expect("create table");
    platform.load_rows(&s, "readings", rows).expect("bulk load");
    platform
        .execute_sql(&s, "MERGE DELTA OF readings")
        .expect("merge");
    platform
        .esp()
        .deploy("CREATE INPUT STREAM events SCHEMA (k INTEGER, v INTEGER);")
        .expect("deploy stream");
    platform
}

/// `COUNT(*)` and `SUM(v)` of `readings`.
fn totals(platform: &HanaPlatform) -> (i64, i64) {
    let s = platform.connect("SYSTEM", "manager").expect("connect");
    let rs = platform.execute_sql(&s, TOTALS).expect("totals");
    match rs.rows.first().map(Row::values) {
        Some([Value::Int(n), Value::Int(sum)]) => (*n, *sum),
        other => panic!("unexpected totals {other:?}"),
    }
}

/// Nanoseconds after `start` at which event `i` is due.
fn due_ns(i: u64) -> u64 {
    i * 1_000_000_000 / RATE
}

struct Feed {
    sent: u64,
    sum_v: i64,
    /// How late the generator woke for its next due event, in ms.
    late_ms: Vec<f64>,
    send_us: Vec<f64>,
}

/// The open-loop generator: sends every event that is due, then sleeps.
/// A send that blocks under backpressure delays the events behind it,
/// and their lag counts from when they were due.
fn generate(args: &Args, platform: &HanaPlatform, start: Instant, issued: &AtomicU64) -> Feed {
    let mut rng = Rng::new(args.seed ^ 0xfeed);
    let mut feed = Feed {
        sent: 0,
        sum_v: 0,
        late_ms: Vec::new(),
        send_us: Vec::new(),
    };
    let end = args.seconds * 1_000_000_000;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        let due = (now.min(end) as u128 * RATE as u128 / 1_000_000_000) as u64;
        if feed.sent < due {
            feed.late_ms.push((now - due_ns(feed.sent)) as f64 / 1e6);
        }
        while feed.sent < due {
            let row = reading(&mut rng);
            feed.sum_v += row_v(&row);
            // Counted before the send: the row may commit before `send`
            // returns.
            issued.store(feed.sent + 1, Ordering::SeqCst);
            let t = Instant::now();
            platform
                .esp()
                .send("events", feed.sent as i64, row)
                .expect("send event");
            if args.trace {
                feed.send_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            feed.sent += 1;
        }
        if now >= end {
            return feed;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

pub fn run(args: &Args, root: &Path, r: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let rows: Vec<Row> = (0..SEED_ROWS).map(|_| reading(&mut rng)).collect();
    let seed_sum: i64 = rows.iter().map(row_v).sum();
    r.size("seed_rows", SEED_ROWS);
    r.size(
        "feed",
        format!("{RATE} events/s open loop over {KEYS} keys, default IngestConfig"),
    );
    r.size("merge_every_ms", MERGE_EVERY.as_millis());
    r.size("clients", "1 group-by session, closed loop");

    let dir = root.join("htap");
    let (platform, setups) =
        common::repeat_setup(SETUPS, |_| setup(&common::fresh_dir(root, "htap"), &rows));
    r.setup_times(&setups);
    drop(rows);

    let auth = platform.connect("SYSTEM", "manager").expect("connect");
    let runtime = IngestRuntime::install_with(&platform, &auth, IngestConfig::default());
    let pipeline = runtime
        .attach("feed", "events", "readings")
        .expect("attach pipeline");
    let mgr = SessionManager::new(Arc::clone(&platform));
    let session = mgr.connect("SYSTEM", "manager").expect("connect");
    let issued = AtomicU64::new(0);
    let fed = AtomicBool::new(false);
    let mut counters = Counters::start(&platform);
    let stats_before = pipeline.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);

    let mut trace = Trace::default();
    let (mut reads, mut traced, mut untraced, mut merges) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (feed, lag_ms) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let feed = generate(args, &platform, start, &issued);
            pipeline.flush().expect("flush pipeline");
            fed.store(true, Ordering::SeqCst);
            feed
        });
        // Rows commit in the order they were sent, so the committed
        // count says which rows just became visible.
        let poller = s.spawn(|| {
            let mut lag = Vec::new();
            loop {
                let done = fed.load(Ordering::SeqCst);
                let committed = pipeline.stats().rows_committed - stats_before.rows_committed;
                let now = start.elapsed().as_nanos() as u64;
                for i in lag.len() as u64..committed {
                    lag.push(now.saturating_sub(due_ns(i)) as f64 / 1e6);
                }
                if done && lag.len() as u64 >= issued.load(Ordering::SeqCst) {
                    return lag;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let merger = s.spawn(|| {
            let mut times = Vec::new();
            let mut next = start + MERGE_EVERY;
            while next < deadline {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                let t = Instant::now();
                platform
                    .execute_sql(&auth, "MERGE DELTA OF readings")
                    .expect("merge");
                times.push(t.elapsed().as_secs_f64() * 1e3);
                next += MERGE_EVERY;
            }
            times
        });
        let mut n = 0u64;
        while Instant::now() < deadline {
            n += 1;
            r.attempted += 1;
            let committed_before = pipeline.stats().rows_committed - stats_before.rows_committed;
            let is_traced = args.trace && n.is_multiple_of(2);
            let t = Instant::now();
            let result = if is_traced {
                trace
                    .run(&mgr, &auth, Input::Text(GROUP_BY))
                    .map(|(rs, _)| rs)
            } else {
                session.execute(GROUP_BY)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let issued_after = issued.load(Ordering::SeqCst);
            let rs = match result {
                Ok(rs) => rs,
                Err(e) => {
                    r.failed += 1;
                    eprintln!("perfbench: group-by failed: {e}");
                    continue;
                }
            };
            reads.push(ms);
            if args.trace {
                if is_traced {
                    &mut traced
                } else {
                    &mut untraced
                }
                .push(ms);
            }
            let count: i64 = rs
                .rows
                .iter()
                .map(|row| match row.values()[1] {
                    Value::Int(c) => c,
                    _ => -1,
                })
                .sum();
            let (lo, hi) = (
                (SEED_ROWS + committed_before) as i64,
                (SEED_ROWS + issued_after) as i64,
            );
            r.check((lo..=hi).contains(&count), || {
                format!("group-by counted {count} rows; committed {lo}..issued {hi}")
            });
        }
        merges = merger.join().expect("merge thread");
        let feed = generator.join().expect("generator thread");
        (feed, poller.join().expect("lag poller"))
    });
    let secs = start.elapsed().as_secs_f64();
    counters.stop(&platform);
    r.e2e.insert("peak_rss_mb", common::peak_rss_mb());
    let stats_after = pipeline.stats();

    match Summary::of(&reads) {
        Some(s) => {
            r.e2e.insert("read_p50_ms", s.p50);
            r.e2e.insert("read_tail_ms", s.tail);
            r.e2e.insert("ops_per_s", s.n as f64 / secs);
            r.note(format!("group-by: {}", s.describe("ms")));
        }
        None => r.check(false, || "no group-by completed".into()),
    }
    if let Some(s) = Summary::of(&lag_ms) {
        r.note(format!(
            "ingest lag (due -> commit seen): {}",
            s.describe("ms")
        ));
    }
    if let Some(s) = Summary::of(&feed.late_ms) {
        r.note(format!(
            "generator lateness per wake-up: {}",
            s.describe("ms")
        ));
    }
    r.note(format!(
        "merges: {} at {:?} ms",
        merges.len(),
        merges.iter().map(|m| m.round()).collect::<Vec<_>>()
    ));
    r.note(format!("feed: {} events sent in {:.2} s", feed.sent, secs));

    platform
        .execute_sql(&auth, "MERGE DELTA OF readings")
        .expect("final merge");
    let want = ((SEED_ROWS + feed.sent) as i64, seed_sum + feed.sum_v);
    let got = totals(&platform);
    r.check(got == want, || {
        format!("readings holds (count, sum) {got:?}, expected {want:?}")
    });
    runtime.detach("feed").expect("detach pipeline");
    drop((pipeline, runtime, session, mgr));
    let ckpt_bytes = common::checkpoint_bytes(&dir);
    common::close(platform);
    let (reopen_s, replayed) = common::reopens(&dir, REOPENS);
    let recovery_s = r.recovery_times(&reopen_s, replayed);
    let (platform, _) = common::open_durable(&dir);
    let got = totals(&platform);
    r.check(got == want, || {
        format!("after reopen readings holds {got:?}, expected {want:?}")
    });

    if args.trace {
        let epochs = (stats_after.batches_committed - stats_before.batches_committed) as f64;
        let rows = (stats_after.rows_committed - stats_before.rows_committed) as f64;
        trace.layers(r);
        counters.common_layers(r, reads.len() as f64, merges.len() as f64, rows, secs);
        r.layer(
            "bench.trace_overhead_pct",
            trace::overhead_pct(&traced, &untraced),
        );
        r.layer("core.merge_stmt_ms", stats::mean(&merges));
        r.layer("core.checkpoint_bytes", ckpt_bytes as f64);
        r.layer(
            "ingest.rows_per_epoch",
            if epochs > 0.0 { rows / epochs } else { 0.0 },
        );
        r.layer(
            "ingest.backpressure_waits",
            (stats_after.backpressure_waits - stats_before.backpressure_waits) as f64,
        );
        r.layer(
            "ingest.retries",
            (stats_after.retries - stats_before.retries) as f64,
        );
        r.layer("esp.send_p50_us", stats::percentile(&feed.send_us, 0.5));
        r.layer("esp.send_p99_us", stats::percentile(&feed.send_us, 0.99));
        r.layer("ingest.lag_p50_ms", stats::percentile(&lag_ms, 0.5));
        r.layer("ingest.lag_p99_ms", stats::percentile(&lag_ms, 0.99));
        r.layer(
            "bench.generator_late_ms",
            stats::percentile(&feed.late_ms, 0.99),
        );
        common::recovery_layers(r, platform, &dir, recovery_s, replayed);
    }
}
