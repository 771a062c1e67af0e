//! Differential test for `ORDER BY … LIMIT k`.
//!
//! The executor keeps only the k best rows under LIMIT instead of sorting
//! every match. Its contract is the result of a stable sort by the key in
//! scan order, reversed for DESC, then truncated to k. The oracle builds
//! exactly that from the same query without ORDER BY (which returns the
//! matches in scan order) and checks, for every k, that `… LIMIT k`
//! returns those rows in that order. It also checks that `… LIMIT k` is
//! the first k rows of the query without LIMIT and costs the same: the
//! ORDER BY charge is over every match.
//!
//! The sort column has four distinct values (one is NULL), so almost
//! every comparison is a tie and a wrong tie order shows.

use pyx_db::{ColTy, ColumnDef, Engine, QueryResult, Scalar, TableDef, TxnId};

const ROWS: i64 = 40;

/// `t(id, grp, v)` with a secondary index on `grp`. Rows go in with
/// scrambled primary keys, so the index's scan order (insertion order)
/// differs from the full scan's (primary-key order).
fn engine() -> Engine {
    let mut e = Engine::new();
    e.create_table(
        TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", ColTy::Int),
                ColumnDef::new("grp", ColTy::Int),
                ColumnDef::new("v", ColTy::Int),
            ],
            &["id"],
        )
        .with_index("grp"),
    );
    for i in 0..ROWS {
        let id = (i * 17) % ROWS;
        let v = match id % 7 {
            0 => Scalar::Null,
            r => Scalar::Int(r % 3),
        };
        e.load_row("t", vec![Scalar::Int(id), Scalar::Int(id % 2), v]);
    }
    e
}

fn ids(r: &QueryResult) -> Vec<Scalar> {
    r.rows.iter().map(|row| row[0].clone()).collect()
}

/// Run the differential inside `txn`: a secondary-index path and a full
/// scan, ASC and DESC, and k ∈ {0, 1, 3, n−1, n, n+5}.
fn limit_is_a_prefix_of_the_full_order(e: &mut Engine, txn: TxnId) {
    for (pred, param, path) in [("grp = ?", 1, "secondary"), ("id >= ?", 3, "full_scan")] {
        let param = [Scalar::Int(param)];
        let id = e
            .prepare(&format!("SELECT id FROM t WHERE {pred} ORDER BY v"))
            .unwrap();
        assert_eq!(e.prepared_path_kind(id).unwrap(), path);
        // (id, v) in scan order.
        let scan = e
            .execute(txn, &format!("SELECT id, v FROM t WHERE {pred}"), &param)
            .unwrap()
            .rows;
        let n = scan.len();
        assert!(n >= 15, "{path}: only {n} matches");
        for desc in [false, true] {
            let mut oracle = scan.clone();
            oracle.sort_by(|a, b| a[1].total_cmp(&b[1]));
            if desc {
                oracle.reverse();
            }
            let ordered = format!(
                "SELECT id FROM t WHERE {pred} ORDER BY v{}",
                if desc { " DESC" } else { "" }
            );
            let all = e.execute(txn, &ordered, &param).unwrap();
            for k in [0, 1, 3, n - 1, n, n + 5] {
                let case = format!("{path}, desc={desc}, k={k} of {n}");
                let r = e
                    .execute(txn, &format!("{ordered} LIMIT {k}"), &param)
                    .unwrap();
                let want: Vec<Scalar> = oracle.iter().take(k).map(|row| row[0].clone()).collect();
                assert_eq!(ids(&r), want, "{case}: rows differ from the stable sort");
                assert_eq!(ids(&r), ids(&all)[..k.min(n)], "{case}: not a prefix");
                assert_eq!(r.cost, all.cost, "{case}: cost");
            }
        }
    }
}

#[test]
fn limit_is_a_prefix_of_the_full_order_on_locking_reads() {
    let mut e = engine();
    let txn = e.begin();
    limit_is_a_prefix_of_the_full_order(&mut e, txn);
    assert_eq!(e.stats.snapshot_reads, 0);
    e.commit(txn).unwrap();
}

#[test]
fn limit_is_a_prefix_of_the_full_order_on_snapshot_reads() {
    let mut e = engine();
    let snap = e.begin_read_only();
    // A later writer moves some sort keys; the snapshot keeps reading the
    // images as of its start.
    e.exec_auto(
        "UPDATE t SET v = ? WHERE grp = ?",
        &[Scalar::Int(9), Scalar::Int(1)],
    )
    .unwrap();
    limit_is_a_prefix_of_the_full_order(&mut e, snap);
    assert!(e.stats.snapshot_reads > 0);
    let top = e
        .execute(snap, "SELECT v FROM t ORDER BY v DESC LIMIT 1", &[])
        .unwrap();
    assert_eq!(
        top.rows[0][0],
        Scalar::Int(2),
        "the snapshot saw a later write"
    );
    e.commit(snap).unwrap();
}
