//! Satellite of E15 — backup/restore interop with WAL replay: restoring
//! a backup taken mid-workload and re-applying the log after the
//! backup's snapshot CID must yield state identical to the uninterrupted
//! execution, over random mixes of DML, bulk loads and ingest epochs
//! that carry adversarial values.

mod common;

use std::path::PathBuf;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::{Row, Value};
use proptest::test_runner::TestRng;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-bkrep-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Adversarial tables: column, row and hash-partitioned.
const ADVERSARIAL: [&str; 3] = ["ac", "ar", "ad"];

/// One random operation: DML against tables `w` (column) and `r` (row),
/// or a bulk load or ingest epoch of adversarial rows. Operation `i`
/// uses ids `i * 100..` in the adversarial tables.
fn random_op(hana: &HanaPlatform, s: &Session, rng: &mut TestRng, i: u64) {
    let text = common::STRINGS[rng.below(common::STRINGS.len() as u64) as usize];
    let dml = match rng.below(14) {
        0..=4 => format!("INSERT INTO w VALUES ({}, {})", rng.below(15), i),
        5 => format!("UPDATE w SET v = {} WHERE k = {}", 1000 + i, rng.below(15)),
        6 => format!("DELETE FROM w WHERE k = {}", rng.below(15)),
        7..=8 => format!("INSERT INTO r VALUES ({}, 'v{}')", i, rng.below(50)),
        9 => format!("UPDATE r SET s = 's{}' WHERE k > {}", i, rng.below(40)),
        10 => format!("UPDATE r SET s = '{text}' WHERE k > {}", rng.below(40)),
        11 => {
            let table = ADVERSARIAL[rng.below(3) as usize];
            for sql in common::inserts(table, i as i64 * 100) {
                hana.execute_sql(s, &sql).unwrap();
            }
            return;
        }
        12 => {
            let table = ADVERSARIAL[rng.below(3) as usize];
            hana.load_rows(s, table, &common::rows(i as i64 * 100))
                .unwrap();
            return;
        }
        _ => {
            let table = ADVERSARIAL[rng.below(3) as usize];
            hana.commit_ingest_batch(s, "feed", i + 1, table, &common::rows(i as i64 * 100))
                .unwrap();
            return;
        }
    };
    // DML may legitimately match nothing; it must still parse.
    hana.execute_sql(s, &dml).unwrap();
}

fn table_state(hana: &HanaPlatform, s: &Session) -> Vec<String> {
    let w = hana
        .execute_sql(s, "SELECT k, v FROM w ORDER BY k, v")
        .unwrap()
        .rows;
    let r = hana
        .execute_sql(s, "SELECT k, s FROM r ORDER BY k, s")
        .unwrap()
        .rows;
    let mut state = vec![format!("{w:?}"), format!("{r:?}")];
    state.extend(ADVERSARIAL.map(|t| common::dump(hana, s, t)));
    state
}

#[test]
fn restore_plus_replay_equals_uninterrupted_execution() {
    let mut rng = TestRng::deterministic("restore_plus_replay");
    for case in 0..10 {
        let dir = scratch(&format!("case-{case}"));
        let log = dir.join("wal.log");

        // Uninterrupted execution: DDL, then a random DML mix with a
        // backup captured at a random midpoint.
        let a = HanaPlatform::with_log_file(&log).unwrap();
        let sa = a.connect("SYSTEM", "manager").unwrap();
        a.execute_sql(&sa, "CREATE COLUMN TABLE w (k INTEGER, v INTEGER)")
            .unwrap();
        a.execute_sql(&sa, "CREATE ROW TABLE r (k INTEGER, s VARCHAR(20))")
            .unwrap();
        for (table, kind) in [("ac", "COLUMN"), ("ar", "ROW"), ("ad", "COLUMN")] {
            let partition = if table == "ad" {
                " PARTITION BY HASH(id) PARTITIONS 4"
            } else {
                ""
            };
            a.execute_sql(
                &sa,
                &format!("CREATE {kind} TABLE {table} {}{partition}", common::COLUMNS),
            )
            .unwrap();
        }
        let seed: Vec<Row> = (0..8)
            .map(|i| Row::from_values([Value::Int(i % 5), Value::Int(i)]))
            .collect();
        a.load_rows(&sa, "w", &seed).unwrap();

        let ops = 10 + rng.below(25);
        let backup_at = rng.below(ops);
        let mut backup = None;
        for i in 0..ops {
            if i == backup_at {
                backup = Some(a.backup(&sa).unwrap());
            }
            random_op(&a, &sa, &mut rng, i);
        }
        let backup = backup.unwrap();
        let expected = table_state(&a, &sa);

        // Interrupted execution: a fresh platform restores the
        // mid-workload backup, then rolls the log forward past the
        // backup's snapshot CID.
        let b = HanaPlatform::new_in_memory();
        let sb = b.connect("SYSTEM", "manager").unwrap();
        b.restore(&sb, &backup).unwrap();
        b.replay_wal_after(&sb, a.transaction_manager().wal(), backup.cid)
            .unwrap();
        assert_eq!(
            table_state(&b, &sb),
            expected,
            "case {case}: restore@cid{} + replay diverged from uninterrupted run",
            backup.cid
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
