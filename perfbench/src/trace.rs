//! The traced statement path: one statement through the same public
//! calls `hana_session::Session` makes, each call timed from outside,
//! plus the operator spans of its plan.
//!
//! Operator spans come from the tracer the executor already feeds.
//! Those spans are thread-local and do not follow work onto exec pool
//! workers, so an operator's self time covers only the part that runs
//! on the calling thread.

use std::collections::BTreeMap;
use std::time::Instant;

use hana_core::HanaPlatform;
use hana_obs::ProfileNode;
use hana_session::{SessionManager, WorkloadClass};
use hana_sql::{parse_statement, Statement};
use hana_types::{Result, ResultSet, Value};

use crate::common::Report;
use crate::stats;

/// Leaf operators: the rows they produce are the rows examined.
const LEAVES: [&str; 4] = ["column_scan", "index_seek", "dist_scan", "row_scan"];

/// What to run.
pub enum Input<'a> {
    /// SQL text, parsed on every execution.
    Text(&'a str),
    /// A prepared statement (parsed once) with its parameters and its
    /// original text.
    Prepared(&'a Statement, &'a [Value], &'a str),
}

/// Per-stage samples accumulated over traced statements, in µs.
#[derive(Default)]
pub struct Trace {
    parse: Vec<f64>,
    bind: Vec<f64>,
    render: Vec<f64>,
    cache_get: Vec<f64>,
    plan: Vec<f64>,
    admit: Vec<f64>,
    /// `execute_plan` of reads.
    execute: Vec<f64>,
    /// `execute_parsed` of writes, by statement kind.
    dml: BTreeMap<&'static str, Vec<f64>>,
    hits: u64,
    misses: u64,
    stage_sum_us: f64,
    total_us: f64,
    statements: u64,
    reads: u64,
    result_rows: u64,
    leaf_rows: u64,
    /// Operator -> (self ns, output rows), summed over reads.
    ops: BTreeMap<&'static str, (u64, u64)>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Trace {
    /// Run one statement through the session's public calls, timing
    /// each one. Returns the result and the statement's wall time in µs.
    pub fn run(
        &mut self,
        mgr: &SessionManager,
        auth: &hana_core::Session,
        input: Input<'_>,
    ) -> Result<(ResultSet, f64)> {
        let platform: &HanaPlatform = mgr.platform();
        let start = Instant::now();
        let mut stages = 0.0;
        let mut stage = |samples: &mut Vec<f64>, t: Instant| {
            let d = us(t);
            samples.push(d);
            stages += d;
        };
        let (stmt, text) = match input {
            Input::Text(sql) => {
                let t = Instant::now();
                let stmt = parse_statement(sql)?;
                stage(&mut self.parse, t);
                (stmt, sql.to_string())
            }
            Input::Prepared(prepared, params, sql) => {
                let t = Instant::now();
                let bound = prepared.bind_params(params)?;
                stage(&mut self.bind, t);
                let t = Instant::now();
                let text = bound.to_sql_text().unwrap_or_else(|| sql.to_string());
                stage(&mut self.render, t);
                (bound, text)
            }
        };
        let result = match stmt {
            Statement::Query(q) => {
                let t = Instant::now();
                let key = q.to_string();
                stage(&mut self.render, t);
                let t = Instant::now();
                let version = platform.catalog_version();
                let cached = mgr.plan_cache().get(&key, version);
                stage(&mut self.cache_get, t);
                let plan = match cached {
                    Some(plan) => {
                        self.hits += 1;
                        plan
                    }
                    None => {
                        self.misses += 1;
                        let t = Instant::now();
                        let plan = std::sync::Arc::new(platform.plan_query(auth, &q)?);
                        mgr.plan_cache()
                            .insert(key, version, std::sync::Arc::clone(&plan));
                        stage(&mut self.plan, t);
                        plan
                    }
                };
                let t = Instant::now();
                let class = mgr.workload().classify(&plan);
                let permit = mgr.workload().admit(class)?;
                stage(&mut self.admit, t);
                let tracer = hana_obs::Tracer::new();
                let t = Instant::now();
                let rs = {
                    let _installed = tracer.install();
                    let _root = hana_obs::span("query");
                    platform.execute_plan(auth, &plan)
                };
                stage(&mut self.execute, t);
                drop(permit);
                let total = us(start);
                let rs = rs?;
                self.reads += 1;
                self.result_rows += rs.rows.len() as u64;
                self.add_profile(&tracer.profile().roots);
                (rs, total)
            }
            dml @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                let kind = match &dml {
                    Statement::Insert { .. } => "insert",
                    Statement::Update { .. } => "update",
                    _ => "delete",
                };
                let t = Instant::now();
                let permit = mgr.workload().admit(WorkloadClass::Oltp)?;
                stage(&mut self.admit, t);
                let t = Instant::now();
                let rs = platform.execute_parsed(auth, dml, &text);
                stage(self.dml.entry(kind).or_default(), t);
                drop(permit);
                (rs?, us(start))
            }
            other => {
                let t = Instant::now();
                let rs = platform.execute_parsed(auth, other, &text);
                stage(self.dml.entry("other").or_default(), t);
                (rs?, us(start))
            }
        };
        self.statements += 1;
        self.stage_sum_us += stages;
        self.total_us += result.1;
        Ok(result)
    }

    /// Fold another client's samples into this one.
    pub fn merge(&mut self, other: Trace) {
        for (mine, theirs) in [
            (&mut self.parse, other.parse),
            (&mut self.bind, other.bind),
            (&mut self.render, other.render),
            (&mut self.cache_get, other.cache_get),
            (&mut self.plan, other.plan),
            (&mut self.admit, other.admit),
            (&mut self.execute, other.execute),
        ] {
            mine.extend(theirs);
        }
        for (kind, samples) in other.dml {
            self.dml.entry(kind).or_default().extend(samples);
        }
        for (op, (ns, rows)) in other.ops {
            let e = self.ops.entry(op).or_default();
            e.0 += ns;
            e.1 += rows;
        }
        self.hits += other.hits;
        self.misses += other.misses;
        self.stage_sum_us += other.stage_sum_us;
        self.total_us += other.total_us;
        self.statements += other.statements;
        self.reads += other.reads;
        self.result_rows += other.result_rows;
        self.leaf_rows += other.leaf_rows;
    }

    fn add_profile(&mut self, nodes: &[ProfileNode]) {
        for node in nodes {
            let kind = node.name.split('[').next().unwrap_or("");
            let rows = node.rows.unwrap_or(0);
            if LEAVES.contains(&kind) {
                self.leaf_rows += rows;
            }
            if let Some((op, _, _)) = OPERATOR_METRICS.iter().find(|m| m.0 == kind) {
                let children: u64 = node.children.iter().map(|c| c.wall_ns).sum();
                let e = self.ops.entry(op).or_default();
                e.0 += node.wall_ns.saturating_sub(children);
                e.1 += rows;
            }
            self.add_profile(&node.children);
        }
    }

    /// Share of measured statement time the timed stages cover, in %.
    fn coverage_pct(&self) -> f64 {
        if self.total_us == 0.0 {
            0.0
        } else {
            100.0 * self.stage_sum_us / self.total_us
        }
    }

    /// The session, sql, query and operator layer metrics.
    pub fn layers(&self, r: &mut Report) {
        let reads = self.reads.max(1) as f64;
        let lookups = self.hits + self.misses;
        r.layer(
            "session.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.hits as f64 / lookups as f64
            },
        );
        r.layer("session.cache_get_us", stats::mean(&self.cache_get));
        r.layer(
            "session.admit_wait_p50_us",
            stats::percentile(&self.admit, 0.5),
        );
        r.layer(
            "session.admit_wait_p99_us",
            stats::percentile(&self.admit, 0.99),
        );
        r.layer("sql.parse_us", stats::mean(&self.parse));
        r.layer("sql.bind_us", stats::mean(&self.bind));
        r.layer("sql.render_us", stats::mean(&self.render));
        r.layer("query.plan_us", stats::mean(&self.plan));
        r.layer("query.execute_us", stats::percentile(&self.execute, 0.5));
        r.layer(
            "query.rows_examined_per_result",
            self.leaf_rows as f64 / self.result_rows.max(1) as f64,
        );
        for (op, self_ms, rows) in OPERATOR_METRICS {
            let (ns, n) = self.ops.get(op).copied().unwrap_or((0, 0));
            r.layer(self_ms, ns as f64 / 1e6 / reads);
            r.layer(rows, n as f64 / reads);
        }
        for (kind, name) in [
            ("update", "core.dml_update_us"),
            ("insert", "core.dml_insert_us"),
        ] {
            r.layer(name, self.dml.get(kind).map_or(0.0, |v| stats::mean(v)));
        }
        let coverage = self.coverage_pct();
        r.layer("bench.stage_coverage_pct", coverage);
        r.layer("bench.traced_stmts", self.statements as f64);
        r.note(format!(
            "traced {} statements ({} reads): stages cover {coverage:.1}% of statement time \
             (within 10%: {}); operator self times exclude work on exec pool workers \
             (spans do not follow it)",
            self.statements,
            self.reads,
            (90.0..=110.0).contains(&coverage),
        ));
    }
}

/// Operators whose self time and output rows are reported:
/// `(span name, self-time metric, rows metric)`.
pub const OPERATOR_METRICS: [(&str, &str, &str); 8] = [
    (
        "column_scan",
        "query.op.column_scan.self_ms",
        "query.op.column_scan.rows",
    ),
    (
        "index_seek",
        "query.op.index_seek.self_ms",
        "query.op.index_seek.rows",
    ),
    (
        "dist_scan",
        "query.op.dist_scan.self_ms",
        "query.op.dist_scan.rows",
    ),
    ("filter", "query.op.filter.self_ms", "query.op.filter.rows"),
    (
        "hash_join",
        "query.op.hash_join.self_ms",
        "query.op.hash_join.rows",
    ),
    (
        "group_by",
        "query.op.group_by.self_ms",
        "query.op.group_by.rows",
    ),
    (
        "aggregate",
        "query.op.aggregate.self_ms",
        "query.op.aggregate.rows",
    ),
    ("finish", "query.op.finish.self_ms", "query.op.finish.rows"),
];

/// Tracing overhead: traced against untraced median latency of the
/// same statements, in % of the untraced one.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    match (stats::median(traced), stats::median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    }
}
