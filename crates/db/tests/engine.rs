//! End-to-end engine tests: SQL execution, transactions, 2PL behaviour,
//! undo on abort.

use pyx_db::{ColTy, ColumnDef, DbError, Engine, Scalar, TableDef};

fn accounts_engine() -> Engine {
    let mut e = Engine::new();
    e.create_table(TableDef::new(
        "accounts",
        vec![
            ColumnDef::new("cid", ColTy::Int),
            ColumnDef::new("name", ColTy::Str),
            ColumnDef::new("bal", ColTy::Double),
        ],
        &["cid"],
    ));
    for i in 0..10 {
        e.load_row(
            "accounts",
            vec![
                Scalar::Int(i),
                Scalar::Str(format!("acct{i}").into()),
                Scalar::Double(100.0),
            ],
        );
    }
    e
}

#[test]
fn point_select() {
    let mut e = accounts_engine();
    let r = e
        .exec_auto(
            "SELECT name, bal FROM accounts WHERE cid = ?",
            &[Scalar::Int(3)],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Scalar::Str("acct3".into()));
    assert_eq!(r.rows[0][1], Scalar::Double(100.0));
    assert!(r.cost > 0);
}

#[test]
fn select_range_and_order() {
    let mut e = accounts_engine();
    let r = e
        .exec_auto(
            "SELECT cid FROM accounts WHERE cid >= ? ORDER BY cid DESC LIMIT 3",
            &[Scalar::Int(5)],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![9, 8, 7]);
}

#[test]
fn update_with_arithmetic_set() {
    let mut e = accounts_engine();
    let r = e
        .exec_auto(
            "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
            &[Scalar::Double(25.5), Scalar::Int(1)],
        )
        .unwrap();
    assert_eq!(r.affected, 1);
    let r = e
        .exec_auto("SELECT bal FROM accounts WHERE cid = ?", &[Scalar::Int(1)])
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(74.5));
}

#[test]
fn insert_and_delete() {
    let mut e = accounts_engine();
    e.exec_auto(
        "INSERT INTO accounts VALUES (?, ?, ?)",
        &[
            Scalar::Int(100),
            Scalar::Str("new".into()),
            Scalar::Double(7.0),
        ],
    )
    .unwrap();
    assert_eq!(e.table_len("accounts"), 11);
    let r = e
        .exec_auto("DELETE FROM accounts WHERE cid = ?", &[Scalar::Int(100)])
        .unwrap();
    assert_eq!(r.affected, 1);
    assert_eq!(e.table_len("accounts"), 10);
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let mut e = accounts_engine();
    e.exec_auto(
        "INSERT INTO accounts (cid, bal) VALUES (?, ?)",
        &[Scalar::Int(200), Scalar::Double(1.0)],
    )
    .unwrap();
    let r = e
        .exec_auto(
            "SELECT name FROM accounts WHERE cid = ?",
            &[Scalar::Int(200)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Null);
}

#[test]
fn aggregates() {
    let mut e = accounts_engine();
    let r = e.exec_auto("SELECT COUNT(*) FROM accounts", &[]).unwrap();
    assert_eq!(r.rows[0][0], Scalar::Int(10));
    let r = e.exec_auto("SELECT SUM(bal) FROM accounts", &[]).unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(1000.0));
    let r = e
        .exec_auto(
            "SELECT MAX(cid) FROM accounts WHERE cid < ?",
            &[Scalar::Int(5)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Int(4));
    let r = e.exec_auto("SELECT AVG(bal) FROM accounts", &[]).unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(100.0));
    // Aggregate over empty set.
    let r = e
        .exec_auto(
            "SELECT SUM(bal) FROM accounts WHERE cid > ?",
            &[Scalar::Int(999)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Null);
}

#[test]
fn abort_undoes_everything() {
    let mut e = accounts_engine();
    let t = e.begin();
    e.execute(
        t,
        "UPDATE accounts SET bal = bal + ? WHERE cid = ?",
        &[Scalar::Double(50.0), Scalar::Int(0)],
    )
    .unwrap();
    e.execute(
        t,
        "INSERT INTO accounts VALUES (?, ?, ?)",
        &[
            Scalar::Int(50),
            Scalar::Str("tmp".into()),
            Scalar::Double(0.0),
        ],
    )
    .unwrap();
    e.execute(t, "DELETE FROM accounts WHERE cid = ?", &[Scalar::Int(9)])
        .unwrap();
    e.abort(t).unwrap();

    // Balance restored, insert gone, delete restored.
    let r = e
        .exec_auto("SELECT bal FROM accounts WHERE cid = ?", &[Scalar::Int(0)])
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(100.0));
    assert_eq!(e.table_len("accounts"), 10);
    let r = e
        .exec_auto(
            "SELECT COUNT(*) FROM accounts WHERE cid = ?",
            &[Scalar::Int(9)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Int(1));
}

#[test]
fn write_write_conflict_blocks_older_waits() {
    let mut e = accounts_engine();
    let t1 = e.begin(); // older
    let t2 = e.begin(); // younger
    e.execute(
        t2,
        "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
        &[Scalar::Double(1.0), Scalar::Int(1)],
    )
    .unwrap();
    // Older t1 conflicts: waits.
    let err = e
        .execute(
            t1,
            "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
            &[Scalar::Double(1.0), Scalar::Int(1)],
        )
        .unwrap_err();
    assert_eq!(err, DbError::WouldBlock);

    // Commit t2 → t1 is woken and can retry.
    let (_, woken) = e.commit(t2).unwrap();
    assert_eq!(woken, vec![t1]);
    e.execute(
        t1,
        "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
        &[Scalar::Double(1.0), Scalar::Int(1)],
    )
    .unwrap();
    e.commit(t1).unwrap();
    let r = e
        .exec_auto("SELECT bal FROM accounts WHERE cid = ?", &[Scalar::Int(1)])
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(98.0));
}

#[test]
fn younger_conflicting_txn_dies() {
    let mut e = accounts_engine();
    let t1 = e.begin(); // older
    let t2 = e.begin(); // younger
    e.execute(
        t1,
        "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
        &[Scalar::Double(1.0), Scalar::Int(1)],
    )
    .unwrap();
    let err = e
        .execute(
            t2,
            "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
            &[Scalar::Double(1.0), Scalar::Int(1)],
        )
        .unwrap_err();
    assert_eq!(err, DbError::Deadlock);
    // t2 aborts and retries as a new txn after t1 commits.
    e.abort(t2).unwrap();
    e.commit(t1).unwrap();
    let t3 = e.begin();
    e.execute(
        t3,
        "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
        &[Scalar::Double(1.0), Scalar::Int(1)],
    )
    .unwrap();
    e.commit(t3).unwrap();
}

#[test]
fn shared_readers_do_not_block() {
    let mut e = accounts_engine();
    let t1 = e.begin();
    let t2 = e.begin();
    e.execute(
        t1,
        "SELECT bal FROM accounts WHERE cid = ?",
        &[Scalar::Int(1)],
    )
    .unwrap();
    e.execute(
        t2,
        "SELECT bal FROM accounts WHERE cid = ?",
        &[Scalar::Int(1)],
    )
    .unwrap();
    e.commit(t1).unwrap();
    e.commit(t2).unwrap();
}

#[test]
fn reader_blocks_writer_until_commit() {
    let mut e = accounts_engine();
    let t1 = e.begin(); // older reader
    let t2 = e.begin(); // younger writer
    e.execute(
        t1,
        "SELECT bal FROM accounts WHERE cid = ?",
        &[Scalar::Int(1)],
    )
    .unwrap();
    let err = e
        .execute(
            t2,
            "UPDATE accounts SET bal = bal - ? WHERE cid = ?",
            &[Scalar::Double(1.0), Scalar::Int(1)],
        )
        .unwrap_err();
    assert_eq!(err, DbError::Deadlock, "younger writer dies under wait-die");
    e.abort(t2).unwrap();
    e.commit(t1).unwrap();
}

#[test]
fn duplicate_pkey_insert_is_schema_error() {
    let mut e = accounts_engine();
    let err = e
        .exec_auto(
            "INSERT INTO accounts VALUES (?, ?, ?)",
            &[
                Scalar::Int(1),
                Scalar::Str("dup".into()),
                Scalar::Double(0.0),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::Schema(_)));
}

#[test]
fn errors_on_unknown_things() {
    let mut e = accounts_engine();
    assert!(matches!(
        e.exec_auto("SELECT x FROM nosuch", &[]).unwrap_err(),
        DbError::Schema(_)
    ));
    assert!(matches!(
        e.exec_auto("SELECT nosuchcol FROM accounts", &[])
            .unwrap_err(),
        DbError::Schema(_)
    ));
    assert!(matches!(
        e.exec_auto("FLUSH TABLES", &[]).unwrap_err(),
        DbError::Parse(_)
    ));
    assert!(matches!(
        e.exec_auto("SELECT bal FROM accounts WHERE cid = ?", &[])
            .unwrap_err(),
        DbError::Schema(_)
    ));
}

#[test]
fn composite_pkey_prefix_scan() {
    let mut e = Engine::new();
    e.create_table(TableDef::new(
        "order_line",
        vec![
            ColumnDef::new("o_id", ColTy::Int),
            ColumnDef::new("ol_num", ColTy::Int),
            ColumnDef::new("amount", ColTy::Double),
        ],
        &["o_id", "ol_num"],
    ));
    for o in 1..=3 {
        for l in 1..=5 {
            e.load_row(
                "order_line",
                vec![
                    Scalar::Int(o),
                    Scalar::Int(l),
                    Scalar::Double((o * l) as f64),
                ],
            );
        }
    }
    let r = e
        .exec_auto(
            "SELECT SUM(amount) FROM order_line WHERE o_id = ?",
            &[Scalar::Int(2)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Double(30.0));
    // The prefix scan should examine only the 5 matching rows, so the cost
    // must be well below a full scan of 15 rows.
    let full = e
        .exec_auto("SELECT SUM(amount) FROM order_line", &[])
        .unwrap();
    assert!(r.cost < full.cost);
}

#[test]
fn secondary_index_path() {
    let mut e = Engine::new();
    e.create_table(
        TableDef::new(
            "item",
            vec![
                ColumnDef::new("i_id", ColTy::Int),
                ColumnDef::new("i_subject", ColTy::Str),
            ],
            &["i_id"],
        )
        .with_index("i_subject"),
    );
    for i in 0..100 {
        let subj = if i % 10 == 0 { "rare" } else { "common" };
        e.load_row("item", vec![Scalar::Int(i), Scalar::Str(subj.into())]);
    }
    let r = e
        .exec_auto(
            "SELECT i_id FROM item WHERE i_subject = ?",
            &[Scalar::Str("rare".into())],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 10);
}

#[test]
fn stats_track_activity() {
    let mut e = accounts_engine();
    e.exec_auto("SELECT COUNT(*) FROM accounts", &[]).unwrap();
    assert_eq!(e.stats.statements, 1);
    assert_eq!(e.stats.commits, 1);
    let t = e.begin();
    e.execute(t, "SELECT COUNT(*) FROM accounts", &[]).unwrap();
    e.abort(t).unwrap();
    assert_eq!(e.stats.aborts, 1);
}

#[test]
fn wire_size_accounts_for_rows() {
    let mut e = accounts_engine();
    let r1 = e
        .exec_auto("SELECT cid FROM accounts WHERE cid = ?", &[Scalar::Int(1)])
        .unwrap();
    let r2 = e.exec_auto("SELECT * FROM accounts", &[]).unwrap();
    assert!(r2.wire_size() > r1.wire_size());
}

#[test]
fn aggregate_sees_every_match_and_limit_caps_its_one_row() {
    let mut e = accounts_engine();
    e.exec_auto(
        "UPDATE accounts SET bal = ? WHERE cid = ?",
        &[Scalar::Double(250.0), Scalar::Int(7)],
    )
    .unwrap();
    let locking = e.begin();
    let snapshot = e.begin_read_only();
    for txn in [locking, snapshot] {
        let one = |e: &mut Engine, sql: &str| {
            let r = e.execute(txn, sql, &[]).unwrap();
            assert_eq!(r.rows.len(), 1, "{sql}");
            r.rows[0][0].clone()
        };
        assert_eq!(
            one(&mut e, "SELECT COUNT(*) FROM accounts LIMIT 5"),
            Scalar::Int(10)
        );
        assert_eq!(
            one(&mut e, "SELECT MAX(bal) FROM accounts LIMIT 1"),
            Scalar::Double(250.0)
        );
        assert_eq!(
            one(
                &mut e,
                "SELECT SUM(cid) FROM accounts WHERE cid >= 1 LIMIT 3"
            ),
            Scalar::Int(45)
        );
        let none = e
            .execute(txn, "SELECT COUNT(*) FROM accounts LIMIT 0", &[])
            .unwrap();
        assert!(none.rows.is_empty());
    }
    assert_eq!(e.stats.snapshot_reads, 4);
    e.commit(locking).unwrap();
    e.commit(snapshot).unwrap();
}

#[test]
fn order_by_beside_an_aggregate_is_refused() {
    let mut e = accounts_engine();
    let sql = "SELECT MAX(bal) FROM accounts WHERE cid < ? ORDER BY bal LIMIT 1";
    let id = e.prepare(sql).unwrap();
    for txn in [e.begin(), e.begin_read_only()] {
        let adhoc = e.execute(txn, sql, &[Scalar::Int(5)]);
        assert!(matches!(adhoc, Err(DbError::Schema(_))), "{adhoc:?}");
        let prepared = e.execute_prepared(txn, id, &[Scalar::Int(5)]);
        assert!(matches!(prepared, Err(DbError::Schema(_))), "{prepared:?}");
        e.abort(txn).unwrap();
    }
}

fn ints_engine(vals: &[i64]) -> Engine {
    let mut e = Engine::new();
    e.create_table(TableDef::new(
        "n",
        vec![
            ColumnDef::new("k", ColTy::Int),
            ColumnDef::new("v", ColTy::Int),
        ],
        &["k"],
    ));
    for (k, &v) in vals.iter().enumerate() {
        e.load_row("n", vec![Scalar::Int(k as i64), Scalar::Int(v)]);
    }
    e
}

#[test]
fn integer_sum_overflow_fails_the_statement() {
    let mut e = ints_engine(&[i64::MAX, 1]);
    for txn in [e.begin(), e.begin_read_only()] {
        let r = e.execute(txn, "SELECT SUM(v) FROM n", &[]);
        assert!(matches!(r, Err(DbError::Schema(_))), "{r:?}");
        e.abort(txn).unwrap();
    }
    let mut e = ints_engine(&[i64::MIN, -1]);
    let r = e.exec_auto("SELECT SUM(v) FROM n", &[]);
    assert!(matches!(r, Err(DbError::Schema(_))), "{r:?}");
    // Only the total must fit: a partial sum past i64 is not an overflow.
    let mut e = ints_engine(&[i64::MAX, 1, -1]);
    let r = e.exec_auto("SELECT SUM(v) FROM n", &[]).unwrap();
    assert_eq!(r.rows[0][0], Scalar::Int(i64::MAX));
}

#[test]
fn avg_of_integers_past_i64_still_answers() {
    let mut e = ints_engine(&[i64::MAX, i64::MAX]);
    for txn in [e.begin(), e.begin_read_only()] {
        let r = e.execute(txn, "SELECT AVG(v) FROM n", &[]).unwrap();
        assert_eq!(r.rows[0][0], Scalar::Double(i64::MAX as f64));
        e.commit(txn).unwrap();
    }
}

#[test]
fn overflowing_update_fails_and_leaves_the_row_unchanged() {
    // Two rows, so the first is rewritten before the second overflows:
    // the abort must undo it.
    let mut e = ints_engine(&[5, i64::MAX - 1]);
    let r = e.exec_auto(
        "UPDATE n SET v = v + ? WHERE k >= ?",
        &[Scalar::Int(2), Scalar::Int(0)],
    );
    assert!(matches!(r, Err(DbError::Schema(_))), "{r:?}");
    let r = e.exec_auto(
        "UPDATE n SET v = v - ? WHERE k = ?",
        &[Scalar::Int(i64::MIN), Scalar::Int(0)],
    );
    assert!(matches!(r, Err(DbError::Schema(_))), "{r:?}");
    let rows = e.exec_auto("SELECT k, v FROM n", &[]).unwrap().rows;
    let vals: Vec<&Scalar> = rows.iter().map(|r| &r[1]).collect();
    assert_eq!(vals, [&Scalar::Int(5), &Scalar::Int(i64::MAX - 1)]);
    // In range, the same statements still apply.
    e.exec_auto(
        "UPDATE n SET v = v + ? WHERE k = ?",
        &[Scalar::Int(1), Scalar::Int(1)],
    )
    .unwrap();
    let r = e
        .exec_auto("SELECT v FROM n WHERE k = ?", &[Scalar::Int(1)])
        .unwrap();
    assert_eq!(r.rows[0][0], Scalar::Int(i64::MAX));
}
