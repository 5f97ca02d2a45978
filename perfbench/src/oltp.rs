//! `oltp_point`: application sessions doing prepared keyed reads and
//! durable writes — the front-end and durability path.
//!
//! The plan cache keys on each bound literal, so its hit ratio follows
//! the key skew; every write pays a WAL commit and recovery replays
//! every logged write. The workload barely touches the exec pool or
//! the scan kernels and does not touch `dist` or `ingest`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hana_core::HanaPlatform;
use hana_session::SessionManager;
use hana_sql::parse_statement;
use hana_types::{ResultSet, Row, Value};

use crate::common::{self, Checksum, Counters, Report, Rng};
use crate::stats::Summary;
use crate::trace::{self, Input, Trace};
use crate::Args;

/// Rows bulk-loaded into `accounts`.
const ROWS: u64 = 100_000;
/// Keys in the seeded hot set, which receives `HOT_PCT`% of accesses.
const HOT_KEYS: u64 = 1_000;
const HOT_PCT: u64 = 80;
/// Closed-loop client sessions.
const CLIENTS: u64 = 2;
/// Writes logged after the checkpoint that follows the timed phase.
/// Recovery replays exactly these, so its time does not depend on how
/// many writes the timed phase managed.
const TAIL_WRITES: u64 = 60;
const SETUPS: usize = 5;
/// Reopens timed for `recovery_s`, which reports their median.
const REOPENS: usize = 5;

const LOOKUP: &str = "SELECT v, note FROM accounts WHERE k = ?";
const UPDATE: &str = "UPDATE accounts SET v = v + 1 WHERE k = ?";
const INSERT: &str = "INSERT INTO accounts (k, v, note) VALUES (?, ?, ?)";

/// Every acknowledged write, to check reads and the recovered table
/// against. Updates only add 1, so a read of key `k` must see a value
/// between the updates acknowledged before it started and those
/// started before it ended.
struct Model {
    initial: Vec<(i64, String)>,
    started: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    inserted: Mutex<Vec<(i64, i64, String)>>,
    next_key: AtomicU64,
}

impl Model {
    fn new(initial: Vec<(i64, String)>) -> Model {
        let n = initial.len();
        Model {
            initial,
            started: (0..n).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..n).map(|_| AtomicU64::new(0)).collect(),
            inserted: Mutex::new(Vec::new()),
            next_key: AtomicU64::new(n as u64),
        }
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .initial
            .iter()
            .enumerate()
            .map(|(k, (v, note))| {
                let v = v + self.acked[k].load(Ordering::SeqCst) as i64;
                Row::from_values([
                    Value::Int(k as i64),
                    Value::Int(v),
                    Value::Varchar(note.clone()),
                ])
            })
            .collect();
        for (k, v, note) in self.inserted.lock().expect("model lock").iter() {
            rows.push(Row::from_values([
                Value::Int(*k),
                Value::Int(*v),
                Value::Varchar(note.clone()),
            ]));
        }
        rows
    }
}

fn setup(dir: &Path, rows: &[Row]) -> Arc<HanaPlatform> {
    let (platform, _) = common::open_durable(dir);
    let s = platform.connect("SYSTEM", "manager").expect("connect");
    for sql in [
        "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER, note VARCHAR(32))",
        "LOAD",
        "MERGE DELTA OF accounts",
        "CREATE INDEX ix_k ON accounts (k)",
    ] {
        if sql == "LOAD" {
            platform.load_rows(&s, "accounts", rows).expect("bulk load");
        } else {
            platform.execute_sql(&s, sql).expect("set-up statement");
        }
    }
    platform
}

/// Full-table checksum compared with the model.
fn check_table(platform: &HanaPlatform, model: &Model, r: &mut Report, when: &str) {
    let s = platform.connect("SYSTEM", "manager").expect("connect");
    let rs = platform
        .execute_sql(&s, "SELECT k, v, note FROM accounts")
        .expect("full-table read");
    let got = Checksum::of(&rs.rows);
    let want = Checksum::of(&model.rows());
    r.check(got.matches(&want), || {
        format!("accounts {when}: table {got:?} differs from acknowledged writes {want:?}")
    });
}

#[derive(Default)]
struct Client {
    lookups: Vec<f64>,
    updates: Vec<f64>,
    inserts: Vec<f64>,
    /// Lookup latencies of traced and untraced executions (trace run).
    traced: Vec<f64>,
    untraced: Vec<f64>,
    user_bytes: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    trace: Trace,
}

#[derive(Clone, Copy)]
enum Op {
    Lookup,
    Update,
    Insert,
}

fn client(
    id: u64,
    args: &Args,
    mgr: &SessionManager,
    model: &Model,
    hot: &[u64],
    deadline: Instant,
) -> Client {
    let session = mgr.connect("SYSTEM", "manager").expect("connect");
    let auth = mgr
        .platform()
        .connect("SYSTEM", "manager")
        .expect("connect");
    let prepared = [LOOKUP, UPDATE, INSERT].map(|sql| session.prepare(sql).expect("prepare"));
    let parsed = [LOOKUP, UPDATE, INSERT].map(|sql| parse_statement(sql).expect("parse"));
    let mut rng = Rng::new(args.seed.wrapping_mul(1_000_003).wrapping_add(id));
    let own_hot: Vec<u64> = hot.iter().copied().filter(|k| k % CLIENTS == id).collect();
    assert!(!own_hot.is_empty(), "session {id} owns no hot key");
    let mut c = Client::default();
    while Instant::now() < deadline {
        let roll = rng.below(100);
        let op = match roll {
            0..=84 => Op::Lookup,
            85..=94 => Op::Update,
            _ => Op::Insert,
        };
        // Reads go to any key; each session updates only the keys it
        // owns (`k % CLIENTS == id`), so no two sessions update one row
        // at the same time.
        let key = match (op, rng.below(100) < HOT_PCT) {
            (Op::Update, true) => own_hot[rng.below(own_hot.len() as u64) as usize],
            (Op::Update, false) => rng.below(ROWS / CLIENTS) * CLIENTS + id,
            (_, true) => hot[rng.below(HOT_KEYS) as usize],
            (_, false) => rng.below(ROWS),
        };
        let params: Vec<Value> = match op {
            Op::Insert => {
                let k = model.next_key.fetch_add(1, Ordering::SeqCst) as i64;
                vec![
                    Value::Int(k),
                    Value::Int(rng.below(1_000_000) as i64),
                    Value::Varchar(rng.note()),
                ]
            }
            _ => vec![Value::Int(key as i64)],
        };
        let idx = op as usize;
        let traced = args.trace && c.attempted % 2 == 1;
        let acked_before = model.acked[key as usize].load(Ordering::SeqCst);
        if let Op::Update = op {
            model.started[key as usize].fetch_add(1, Ordering::SeqCst);
        }
        c.attempted += 1;
        let result: hana_types::Result<(ResultSet, f64)> = if traced {
            c.trace.run(
                mgr,
                &auth,
                Input::Prepared(&parsed[idx], &params, prepared[idx].sql()),
            )
        } else {
            let t = Instant::now();
            session
                .execute_prepared(&prepared[idx], &params)
                .map(|rs| (rs, t.elapsed().as_secs_f64() * 1e6))
        };
        let (rs, micros) = match result {
            Ok(x) => x,
            Err(e) => {
                c.failed += 1;
                if c.failed <= 3 {
                    eprintln!("perfbench: oltp_point operation failed: {e}");
                }
                continue;
            }
        };
        match op {
            Op::Lookup => {
                c.lookups.push(micros);
                if args.trace {
                    if traced {
                        &mut c.traced
                    } else {
                        &mut c.untraced
                    }
                    .push(micros);
                }
                let started_after = model.started[key as usize].load(Ordering::SeqCst);
                let (v0, note) = &model.initial[key as usize];
                let ok = match rs.rows.as_slice() {
                    [row] => match row.values() {
                        [Value::Int(v), Value::Varchar(n)] => {
                            n == note
                                && (v0 + acked_before as i64..=v0 + started_after as i64)
                                    .contains(v)
                        }
                        _ => false,
                    },
                    _ => false,
                };
                if !ok && c.problems.len() < 3 {
                    c.problems
                        .push(format!("lookup k={key} returned {:?}", rs.rows));
                }
            }
            Op::Update => {
                model.acked[key as usize].fetch_add(1, Ordering::SeqCst);
                c.updates.push(micros);
                c.user_bytes += 8;
            }
            Op::Insert => {
                let (Value::Int(k), Value::Int(v), Value::Varchar(note)) =
                    (&params[0], &params[1], &params[2])
                else {
                    unreachable!("insert parameters")
                };
                c.user_bytes += 16 + note.len() as u64;
                model
                    .inserted
                    .lock()
                    .expect("model lock")
                    .push((*k, *v, note.clone()));
                c.inserts.push(micros);
            }
        }
    }
    c
}

pub fn run(args: &Args, root: &Path, r: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let initial: Vec<(i64, String)> = (0..ROWS)
        .map(|_| (rng.below(1_000_000) as i64, rng.note()))
        .collect();
    let rows: Vec<Row> = initial
        .iter()
        .enumerate()
        .map(|(k, (v, note))| {
            Row::from_values([
                Value::Int(k as i64),
                Value::Int(*v),
                Value::Varchar(note.clone()),
            ])
        })
        .collect();
    let mut hot = std::collections::BTreeSet::new();
    while hot.len() < HOT_KEYS as usize {
        hot.insert(rng.below(ROWS));
    }
    let hot: Vec<u64> = hot.into_iter().collect();
    r.size("rows", ROWS);
    r.size(
        "hot_keys",
        format!("{} keys get {HOT_PCT}% of accesses", hot.len()),
    );
    r.size("clients", format!("{CLIENTS} sessions, closed loop"));
    r.size("mix", "85% point SELECT, 10% UPDATE, 5% INSERT (prepared)");
    r.size("recovery_tail_writes", TAIL_WRITES);

    let dir = root.join("oltp");
    let (platform, setups) =
        common::repeat_setup(SETUPS, |_| setup(&common::fresh_dir(root, "oltp"), &rows));
    r.setup_times(&setups);
    drop(rows);
    let model = Model::new(initial);

    let mgr = SessionManager::new(Arc::clone(&platform));
    // Fill the plan cache with the hot keys before timing, as a running
    // application's cache would be.
    {
        let session = mgr.connect("SYSTEM", "manager").expect("connect");
        let lookup = session.prepare(LOOKUP).expect("prepare");
        for &k in &hot {
            session
                .execute_prepared(&lookup, &[Value::Int(k as i64)])
                .expect("warm-up lookup");
        }
    }
    let wal_before = common::bytes_under(&dir, "wal-");
    let mut counters = Counters::start(&platform);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (mgr, model, hot) = (&mgr, &model, &hot);
                s.spawn(move || client(id, args, mgr, model, hot, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    counters.stop(&platform);
    r.e2e.insert("peak_rss_mb", common::peak_rss_mb());
    let wal_bytes = common::bytes_under(&dir, "wal-").saturating_sub(wal_before);

    let all = |f: fn(&Client) -> &Vec<f64>| -> Vec<f64> {
        clients.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let (lookups, updates, inserts) = (
        all(|c| &c.lookups),
        all(|c| &c.updates),
        all(|c| &c.inserts),
    );
    r.attempted = clients.iter().map(|c| c.attempted).sum();
    let user_bytes: u64 = clients.iter().map(|c| c.user_bytes).sum();
    r.failed = clients.iter().map(|c| c.failed).sum();
    for c in &clients {
        for p in &c.problems {
            r.check(false, || p.clone());
        }
    }
    let completed = (lookups.len() + updates.len() + inserts.len()) as f64;
    r.e2e.insert("ops_per_s", completed / secs);
    for (name, samples) in [
        ("lookup", &lookups),
        ("update", &updates),
        ("insert", &inserts),
    ] {
        match Summary::of(samples) {
            Some(s) => {
                r.note(format!("{name}: {}", s.describe("us")));
                if name == "lookup" {
                    r.e2e.insert("read_p50_ms", s.p50 / 1e3);
                    r.e2e.insert("read_tail_ms", s.tail / 1e3);
                }
            }
            None => r.check(false, || format!("no {name} completed")),
        }
    }
    r.note(format!("ops: {completed} in {secs:.2} s"));

    check_table(&platform, &model, r, "after the timed phase");
    platform.write_checkpoint().expect("checkpoint");
    let ckpt_bytes = common::checkpoint_bytes(&dir);
    {
        let session = mgr.connect("SYSTEM", "manager").expect("connect");
        let update = session.prepare(UPDATE).expect("prepare");
        let insert = session.prepare(INSERT).expect("prepare");
        for i in 0..TAIL_WRITES {
            if i % 3 == 2 {
                let k = model.next_key.fetch_add(1, Ordering::SeqCst) as i64;
                let (v, note) = (rng.below(1_000_000) as i64, rng.note());
                session
                    .execute_prepared(
                        &insert,
                        &[Value::Int(k), Value::Int(v), Value::Varchar(note.clone())],
                    )
                    .expect("tail insert");
                model
                    .inserted
                    .lock()
                    .expect("model lock")
                    .push((k, v, note));
            } else {
                let k = rng.below(ROWS);
                session
                    .execute_prepared(&update, &[Value::Int(k as i64)])
                    .expect("tail update");
                model.acked[k as usize].fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    drop(mgr);
    common::close(platform);
    let (reopen_s, replayed) = common::reopens(&dir, REOPENS);
    let recovery_s = r.recovery_times(&reopen_s, replayed);
    let (platform, _) = common::open_durable(&dir);
    check_table(&platform, &model, r, "after reopen");

    if args.trace {
        let mut trace = Trace::default();
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for c in clients {
            trace.merge(c.trace);
            traced.extend(c.traced);
            untraced.extend(c.untraced);
        }
        trace.layers(r);
        r.layer(
            "bench.trace_overhead_pct",
            trace::overhead_pct(&traced, &untraced),
        );
        counters.common_layers(r, lookups.len() as f64, 0.0, 0.0, secs);
        r.layer(
            "txn.log_bytes_per_user_byte",
            wal_bytes as f64 / user_bytes.max(1) as f64,
        );
        r.layer("core.checkpoint_bytes", ckpt_bytes as f64);
        common::recovery_layers(r, platform, &dir, recovery_s, replayed);
    }
}
