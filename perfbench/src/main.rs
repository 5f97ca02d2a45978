//! The repository benchmark: three workloads over the public API of the
//! platform, end-to-end metrics with tracing off and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_point --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Lines before it give provenance, sizes and per-operation detail.
//!
//! `perfbench --reopen <dir>` is the mode the workloads start to time
//! one recovery of their durable directory in a fresh process.

mod common;
mod htap;
mod olap;
mod oltp;
mod stats;
mod trace;

use std::path::PathBuf;

use common::Report;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("session.cache_hit_ratio", "ratio"),
    ("session.cache_get_us", "us"),
    ("session.admit_wait_p50_us", "us"),
    ("session.admit_wait_p99_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.render_us", "us"),
    ("query.plan_us", "us"),
    ("query.execute_us", "us"),
    ("query.rows_examined_per_result", "ratio"),
    ("query.op.column_scan.self_ms", "ms/stmt"),
    ("query.op.column_scan.rows", "rows/stmt"),
    ("query.op.index_seek.self_ms", "ms/stmt"),
    ("query.op.index_seek.rows", "rows/stmt"),
    ("query.op.dist_scan.self_ms", "ms/stmt"),
    ("query.op.dist_scan.rows", "rows/stmt"),
    ("query.op.filter.self_ms", "ms/stmt"),
    ("query.op.filter.rows", "rows/stmt"),
    ("query.op.hash_join.self_ms", "ms/stmt"),
    ("query.op.hash_join.rows", "rows/stmt"),
    ("query.op.group_by.self_ms", "ms/stmt"),
    ("query.op.group_by.rows", "rows/stmt"),
    ("query.op.aggregate.self_ms", "ms/stmt"),
    ("query.op.aggregate.rows", "rows/stmt"),
    ("query.op.finish.self_ms", "ms/stmt"),
    ("query.op.finish.rows", "rows/stmt"),
    ("exec.morsels", "count/stmt"),
    ("exec.tasks", "count/stmt"),
    ("exec.scatter_ms", "ms"),
    ("exec.utilization_permille", "permille"),
    ("columnar.block_skip_ratio", "ratio"),
    ("columnar.merge_ms", "ms/merge"),
    ("columnar.merge_rows", "rows/merge"),
    ("core.merge_stmt_ms", "ms"),
    ("core.dml_update_us", "us"),
    ("core.dml_insert_us", "us"),
    ("core.recovery.replayed", "count"),
    ("core.recovery.restore_ms", "ms"),
    ("core.recovery.replay_ms", "ms"),
    ("core.recovery.ms_per_record", "ms"),
    ("core.checkpoint_bytes", "B"),
    ("txn.fsyncs", "1/s"),
    ("txn.commits_per_fsync", "ratio"),
    ("txn.fsync_us", "us"),
    ("txn.log_bytes_per_user_byte", "ratio"),
    ("dist.rows_shuffled_per_row", "ratio"),
    ("dist.bytes_shuffled", "B/row"),
    ("dist.partitions_scanned", "count/stmt"),
    ("ingest.lag_p50_ms", "ms"),
    ("ingest.lag_p99_ms", "ms"),
    ("ingest.rows_per_epoch", "rows"),
    ("ingest.epoch_commit_us", "us"),
    ("ingest.backpressure_waits", "count"),
    ("ingest.retries", "count"),
    ("esp.send_p50_us", "us"),
    ("esp.send_p99_us", "us"),
    ("bench.generator_late_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.stage_coverage_pct", "%"),
    ("bench.traced_stmts", "count"),
];

pub const WORKLOADS: [&str; 3] = ["oltp_point", "olap_tpch", "htap_ingest"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The commit of the checkout, from `.git/HEAD`, when there is one.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (no .git)".to_string(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = argv.as_slice() {
        if flag == "--reopen" {
            common::reopen_child(std::path::Path::new(dir));
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/perfbench-data")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&root).expect("create data directory");
    // The extended store keeps its page file under the system temporary
    // directory; point that into the run's data directory, so a run
    // writes only inside its checkout and leaves nothing behind. Set
    // before any thread starts.
    let tmp = root.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create temporary directory");
    std::env::set_var("TMPDIR", &tmp);

    let mut report = Report::default();
    match args.workload.as_str() {
        "oltp_point" => oltp::run(&args, &root, &mut report),
        "olap_tpch" => olap::run(&args, &root, &mut report),
        _ => htap::run(&args, &root, &mut report),
    }
    let _ = std::fs::remove_dir_all(&root);

    let workers = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={workers} profile={} commit={} \
         wal_group_commit_us={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
        std::env::var("HANA_WAL_GROUP_COMMIT_US").unwrap_or_else(|_| "200 (default)".into()),
    );
    for (name, value) in &report.sizes {
        println!("size: {name} = {value}");
    }
    for line in &report.notes {
        println!("detail: {line}");
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, report.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, report.e2e.get(n).copied().unwrap_or(0.0)))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("metric: {name:<36} {value:>16.4} {unit}");
    }
    if args.trace {
        let unknown: Vec<_> = report
            .layers
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            .collect();
        assert!(
            unknown.is_empty(),
            "undeclared per-layer metrics {unknown:?}"
        );
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\",\"why\"")),
                "workload {w}"
            );
        }
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in metrics.clone() {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "metric {name} ({unit})"
            );
        }
        assert_eq!(compact.matches("\"unit\":").count(), metrics.count());
    }
}
