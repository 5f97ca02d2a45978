//! Pieces every workload shares: the seeded generator, the result
//! record, durable-platform set-up and the counter deltas read from the
//! platform's metrics registry.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use hana_core::HanaPlatform;
use hana_obs::RegistrySnapshot;
use hana_types::{Row, Value};

use crate::stats;

/// SplitMix64: a small seeded generator, so inputs depend only on the
/// benchmark's `--seed` and never on the program under test.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Free text of 8 to 24 letters, digits and spaces, as an
    /// application note column would hold.
    pub fn note(&mut self) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        let len = 8 + self.below(17) as usize;
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize] as char)
            .collect()
    }
}

/// What one run measured and whether the program's answers held.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; the run is correct when this stays empty.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload sizes and settings, printed with the provenance.
    pub sizes: Vec<(&'static str, String)>,
    /// Human-readable detail lines (per-operation latencies with sample
    /// counts and the tail quantile they support).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    pub fn size(&mut self, name: &'static str, value: impl ToString) {
        self.sizes.push((name, value.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Record the median of several set-ups as `setup_s`.
    pub fn setup_times(&mut self, times: &[f64]) {
        let median = stats::median(times).expect("at least one set-up");
        self.e2e.insert("setup_s", median);
        self.note(format!("setup: {times:.3?} s, median {median:.3} s"));
    }

    /// Record the median of several reopens as `recovery_s` and return it.
    pub fn recovery_times(&mut self, times: &[f64], replayed: usize) -> f64 {
        let median = stats::median(times).expect("at least one reopen");
        self.e2e.insert("recovery_s", median);
        self.note(format!(
            "recovery: {times:.3?} s, median {median:.3} s, {replayed} records replayed"
        ));
        median
    }
}

/// A fresh directory for one durable platform under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data directory");
    dir
}

/// Open (or recover) the durable platform in `dir`.
pub fn open_durable(dir: &Path) -> (Arc<HanaPlatform>, usize) {
    let (platform, replayed) = HanaPlatform::open_durable(dir).expect("open durable platform");
    (Arc::new(platform), replayed)
}

/// Drop the last handle on a durable platform, so its log is closed
/// before the directory is reopened.
pub fn close(platform: Arc<HanaPlatform>) {
    match Arc::try_unwrap(platform) {
        Ok(p) => drop(p),
        Err(_) => panic!("platform still shared at close"),
    }
}

/// Time a reopen of `dir`: the `open_durable` wall time and the number
/// of log records it replayed.
pub fn timed_reopen(dir: &Path) -> (Arc<HanaPlatform>, f64, usize) {
    let t = Instant::now();
    let (platform, replayed) = open_durable(dir);
    (platform, t.elapsed().as_secs_f64(), replayed)
}

/// Recover `dir` `times` times, each in a fresh process of this
/// benchmark (see [`reopen_child`]), and return every reopen time and
/// the records replayed. A restart after a crash starts from an empty
/// heap; a reopen in this process would allocate on top of the heap the
/// run left behind, and its time would follow that heap's state. Replay
/// runs with the log passive, so every reopen restores and replays the
/// same state; one reopen spreads too widely to gate on.
pub fn reopens(dir: &Path, times: usize) -> (Vec<f64>, usize) {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut secs = Vec::with_capacity(times);
    let mut replayed = 0;
    for _ in 0..times {
        let out = Command::new(&exe)
            .arg("--reopen")
            .arg(dir)
            .stderr(Stdio::inherit())
            .output()
            .expect("start the reopen process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("reopen "))
            .and_then(|l| l.split_once(' '))
            .and_then(|(s, n)| Some((s.parse::<f64>().ok()?, n.parse::<usize>().ok()?)));
        match (out.status.success(), parsed) {
            (true, Some((s, n))) => {
                secs.push(s);
                replayed = n;
            }
            _ => panic!("reopen process failed ({}): {stdout}", out.status),
        }
    }
    (secs, replayed)
}

/// The `--reopen <dir>` mode of this executable: recover `dir`, print
/// `reopen <seconds> <records replayed>` and close it again.
pub fn reopen_child(dir: &Path) {
    let (platform, secs, replayed) = timed_reopen(dir);
    close(platform);
    println!("reopen {secs} {replayed}");
}

/// Split recovery into checkpoint restore and log replay: checkpoint
/// the recovered platform and time a second reopen, which restores the
/// same state and replays nothing.
pub fn recovery_layers(
    r: &mut Report,
    platform: Arc<HanaPlatform>,
    dir: &Path,
    recovery_s: f64,
    replayed: usize,
) {
    platform.write_checkpoint().expect("checkpoint");
    close(platform);
    let restore_s = reopens(dir, 1).0[0];
    let replay_ms = (recovery_s - restore_s).max(0.0) * 1e3;
    r.layer("core.recovery.replayed", replayed as f64);
    r.layer("core.recovery.restore_ms", restore_s * 1e3);
    r.layer("core.recovery.replay_ms", replay_ms);
    r.layer(
        "core.recovery.ms_per_record",
        if replayed == 0 {
            0.0
        } else {
            replay_ms / replayed as f64
        },
    );
}

/// Run `build` `times` times and keep the last result; the wall time of
/// every build is returned so the median can be reported. Set-up is
/// repeated because one sample of it spreads too widely to gate on.
pub fn repeat_setup<T>(times: usize, mut build: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// `(name, size)` of the files in `dir` whose name starts with
/// `prefix`, in name order.
fn files(dir: &Path, prefix: &str) -> Vec<(String, u64)> {
    let mut found: Vec<(String, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let len = e.metadata().ok()?.len();
            name.starts_with(prefix).then_some((name, len))
        })
        .collect();
    found.sort();
    found
}

/// Total size of the files in `dir` whose name starts with `prefix`.
pub fn bytes_under(dir: &Path, prefix: &str) -> u64 {
    files(dir, prefix).iter().map(|f| f.1).sum()
}

/// Size of the newest checkpoint sidecar in `dir`.
pub fn checkpoint_bytes(dir: &Path) -> u64 {
    files(dir, "checkpoint-").last().map_or(0, |f| f.1)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
/// Workloads read it at the end of the timed phase: the reopen for the
/// checks after it allocates on top of the heap the run left behind, so
/// a peak that included it would measure allocator reuse, not the
/// footprint of serving the workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Order-independent checksum of a result: row count, a wrapping sum
/// of per-row hashes over the exact columns, and a plain sum of the
/// floating-point columns, whose last bits depend on summation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checksum {
    pub rows: usize,
    pub hash: u64,
    pub float_sum: f64,
}

impl Checksum {
    pub fn of(rows: &[Row]) -> Checksum {
        let mut hash = 0u64;
        let mut float_sum = 0.0;
        for row in rows {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in row.values() {
                let text = match v {
                    Value::Double(d) => {
                        float_sum += d;
                        "D".to_string()
                    }
                    other => other.to_string(),
                };
                for b in text.bytes().chain([0x1f]) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            hash = hash.wrapping_add(h);
        }
        Checksum {
            rows: rows.len(),
            hash,
            float_sum,
        }
    }

    /// Equal rows and hash, floating sums within a relative 1e-9.
    pub fn matches(&self, other: &Checksum) -> bool {
        let scale = self.float_sum.abs().max(other.float_sum.abs()).max(1.0);
        self.rows == other.rows
            && self.hash == other.hash
            && (self.float_sum - other.float_sum).abs() <= 1e-9 * scale
    }
}

/// Before/after reads of the platform's metrics registry. Only one
/// workload runs in the process, so a delta belongs to it alone.
pub struct Counters {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
    pool_before: (u64, u64),
    pool_after: (u64, u64),
    workers: usize,
}

fn pool_times(platform: &HanaPlatform) -> (u64, u64) {
    let m = platform.exec().pool_metrics();
    (m.busy_nanos, m.wall_nanos)
}

impl Counters {
    pub fn start(platform: &HanaPlatform) -> Counters {
        let snap = platform.observability_snapshot();
        let pool = pool_times(platform);
        Counters {
            before: snap.clone(),
            after: snap,
            pool_before: pool,
            pool_after: pool,
            workers: platform.exec().config().workers,
        }
    }

    pub fn stop(&mut self, platform: &HanaPlatform) {
        self.after = platform.observability_snapshot();
        self.pool_after = pool_times(platform);
    }

    pub fn counter(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    /// Mean of the observations a histogram took in the interval (its
    /// sum and count only; its bucket percentiles are too coarse).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (a, b) = (self.after.histogram(name), self.before.histogram(name));
        let count = a.count - b.count;
        if count == 0 {
            0.0
        } else {
            (a.sum - b.sum) as f64 / count as f64
        }
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        (self.after.histogram(name).sum - self.before.histogram(name).sum) as f64
    }

    /// Share of pool worker time spent running tasks, in permille.
    pub fn utilization_permille(&self) -> f64 {
        let busy = (self.pool_after.0 - self.pool_before.0) as f64;
        let wall = (self.pool_after.1 - self.pool_before.1) as f64 * self.workers as f64;
        if wall == 0.0 {
            0.0
        } else {
            1000.0 * busy / wall
        }
    }

    /// The counter-derived layer metrics every workload reports:
    /// `stmts` is the number of read statements in the interval,
    /// `merges` the MERGE DELTA statements, `ingested` the streamed
    /// rows, `secs` the interval length.
    pub fn common_layers(&self, r: &mut Report, stmts: f64, merges: f64, ingested: f64, secs: f64) {
        let per = |v: f64, n: f64| if n > 0.0 { v / n } else { 0.0 };
        r.layer(
            "exec.morsels",
            per(self.counter("hana_exec_morsels_total"), stmts),
        );
        r.layer(
            "exec.tasks",
            per(self.counter("hana_exec_tasks_total"), stmts),
        );
        r.layer(
            "exec.scatter_ms",
            self.hist_mean("hana_exec_scatter_ns") / 1e6,
        );
        r.layer("exec.utilization_permille", self.utilization_permille());
        let scanned = self.counter("hana_columnar_blocks_scanned_total");
        let skipped = self.counter("hana_columnar_blocks_skipped_total");
        r.layer("columnar.block_skip_ratio", per(skipped, scanned + skipped));
        r.layer(
            "columnar.merge_ms",
            per(self.hist_sum("hana_columnar_delta_merge_ns") / 1e6, merges),
        );
        r.layer(
            "columnar.merge_rows",
            per(self.counter("hana_columnar_delta_merge_rows_total"), merges),
        );
        let fsyncs = self.counter("hana_wal_fsyncs_total");
        r.layer("txn.fsyncs", per(fsyncs, secs));
        r.layer(
            "txn.commits_per_fsync",
            per(self.hist_sum("hana_wal_group_commit_txns"), fsyncs),
        );
        r.layer("txn.fsync_us", self.hist_mean("hana_wal_fsync_ns") / 1e3);
        r.layer(
            "dist.rows_shuffled_per_row",
            per(self.counter("hana_dist_rows_shuffled_total"), ingested),
        );
        r.layer(
            "dist.bytes_shuffled",
            per(self.counter("hana_dist_bytes_shuffled_total"), ingested),
        );
        r.layer(
            "dist.partitions_scanned",
            per(self.counter("hana_dist_partitions_scanned_total"), stmts),
        );
        r.layer(
            "ingest.epoch_commit_us",
            self.hist_mean("hana_ingest_batch_latency_us"),
        );
    }
}
