//! Quickstart: partition the paper's running example (Fig. 2) end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole Pyxis pipeline: compile PyxLang → profile on a sample
//! workload → build the partition graph → solve under two CPU budgets →
//! print the PyxIL (with `:APP:`/`:DB:` placements and sync ops, like the
//! paper's Fig. 3) → execute the partitioned program on the two-host
//! runtime and show what moved across the network.

use pyxis::core::{Pyxis, PyxisConfig};
use pyxis::db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyxis::runtime::session::{run_to_completion, Session};
use pyxis::runtime::ArgVal;

/// The paper's Fig. 2 running example: a small order-processing fragment.
const ORDER_SRC: &str = r#"
    class Order {
        int id;
        double[] realCosts;
        double totalCost;
        Order(int id) { this.id = id; }
        void placeOrder(int cid, double dct) {
            totalCost = 0.0;
            computeTotalCost(dct);
            updateAccount(cid, totalCost);
        }
        void computeTotalCost(double dct) {
            int i = 0;
            double[] costs = getCosts();
            realCosts = new double[costs.length];
            for (double itemCost : costs) {
                double realCost;
                realCost = itemCost * dct;
                totalCost += realCost;
                realCosts[i++] = realCost;
                insertNewLineItem(id, realCost);
            }
        }
        double[] getCosts() {
            row[] rs = dbQuery("SELECT seq, cost FROM items WHERE oid = ?", id);
            double[] o = new double[rs.length];
            for (int k = 0; k < rs.length; k++) { o[k] = rs[k].getDouble(1); }
            return o;
        }
        void updateAccount(int cid, double total) {
            dbUpdate("UPDATE accounts SET bal = bal - ? WHERE cid = ?", total, cid);
        }
        void insertNewLineItem(int oid, double c) {
            int n = dbQuery("SELECT COUNT(*) FROM line_items WHERE oid = ?", oid)[0].getInt(0);
            dbUpdate("INSERT INTO line_items VALUES (?, ?, ?)", oid, n, c);
        }
        double total() { return totalCost; }
    }
    class Main {
        double run(int oid, int cid, double dct) {
            Order o = new Order(oid);
            o.placeOrder(cid, dct);
            return o.total();
        }
    }
"#;

fn make_db() -> Engine {
    let mut db = Engine::new();
    db.create_table(TableDef::new(
        "items",
        vec![
            ColumnDef::new("oid", ColTy::Int),
            ColumnDef::new("seq", ColTy::Int),
            ColumnDef::new("cost", ColTy::Double),
        ],
        &["oid", "seq"],
    ));
    db.create_table(TableDef::new(
        "accounts",
        vec![
            ColumnDef::new("cid", ColTy::Int),
            ColumnDef::new("bal", ColTy::Double),
        ],
        &["cid"],
    ));
    db.create_table(TableDef::new(
        "line_items",
        vec![
            ColumnDef::new("oid", ColTy::Int),
            ColumnDef::new("seq", ColTy::Int),
            ColumnDef::new("cost", ColTy::Double),
        ],
        &["oid", "seq"],
    ));
    for s in 0..6 {
        db.load_row(
            "items",
            vec![
                Scalar::Int(7),
                Scalar::Int(s),
                Scalar::Double(10.0 + s as f64),
            ],
        );
    }
    db.load_row("accounts", vec![Scalar::Int(1), Scalar::Double(1000.0)]);
    db
}

fn main() {
    // 1. Compile + analyze.
    let pyxis = Pyxis::compile(ORDER_SRC, PyxisConfig::default()).expect("compile");
    let entry = pyxis.entry("Main", "run").expect("entry point");
    println!(
        "compiled: {} statements, {} methods, {} dependence edges",
        pyxis.prog.stmt_count(),
        pyxis.prog.methods.len(),
        pyxis.analysis.data.len() + pyxis.analysis.control.len()
    );

    // 2. Profile on a representative workload (Fig. 1 "Profiler").
    let mut scratch = make_db();
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..25).map(|i| {
                (
                    entry,
                    vec![
                        ArgVal::Int(7),
                        ArgVal::Int(1),
                        ArgVal::Double(0.8 + (i % 3) as f64 * 0.05),
                    ],
                )
            }),
        )
        .expect("profiling");
    println!(
        "profiled: {} statement executions",
        profile.total_statements_executed()
    );

    // 3. Partition under two budgets.
    let graph = pyxis.graph(&profile);
    for (name, budget) in [
        ("low budget (loaded DB)", 0.0),
        ("high budget (idle DB)", 2.0),
    ] {
        let placement = pyxis.partition(&graph, budget);
        println!("\n=== {name}: {} ===", pyxis.describe_placement(&placement));
        let part = pyxis.deploy(placement);
        println!("{}", part.il.render());

        // 4. Execute on the two-host runtime.
        let mut db = make_db();
        let mut sess = Session::new(
            &part,
            entry,
            &[ArgVal::Int(7), ArgVal::Int(1), ArgVal::Double(0.8)],
            &mut db,
        )
        .expect("session");
        run_to_completion(&mut sess, &mut db, 1_000_000).expect("run");
        println!(
            "result = {:?}; control transfers = {}, JDBC round trips = {}, bytes app→db = {}, db→app = {}",
            sess.result,
            sess.stats.control_transfers,
            sess.stats.db_round_trips,
            sess.stats.bytes_app_to_db,
            sess.stats.bytes_db_to_app,
        );
    }
}
