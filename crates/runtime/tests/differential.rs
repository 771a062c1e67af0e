//! Differential tests: the execution-block VM must compute exactly what
//! the reference interpreter computes, for *any* placement — all-APP
//! (JDBC), all-DB (Manual), and solver-chosen partitions — including the
//! distributed-heap synchronization. Because each host reads its own heap
//! copy, a missing or misplaced sync op shows up as a wrong answer here.

use pyx_analysis::{analyze, AnalysisConfig};
use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_lang::{compile, NirProgram, Value};
use pyx_partition::{solve, CostParams, PartitionGraph, Placement, Side, SolverKind};
use pyx_profile::{Interp, NullTracer, Profiler};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::session::{run_to_completion, Session};
use pyx_runtime::ArgVal;

/// The paper's running example, full order-placement flow.
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

fn order_db() -> Engine {
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
    for s in 0..5 {
        db.load_row(
            "items",
            vec![
                Scalar::Int(7),
                Scalar::Int(s),
                Scalar::Double(10.0 + s as f64),
            ],
        );
    }
    db.load_row("accounts", vec![Scalar::Int(1), Scalar::Double(500.0)]);
    db
}

/// Oracle: interpret directly.
fn oracle(prog: &NirProgram) -> (Option<Value>, Vec<Vec<Vec<Scalar>>>) {
    let mut db = order_db();
    let m = prog.find_method("Main", "run").unwrap();
    let mut it = Interp::new(prog, &mut db, NullTracer);
    let r = it
        .call_entry(m, vec![Value::Int(7), Value::Int(1), Value::Double(0.8)])
        .expect("oracle run");
    let state = dump_all(&db);
    (r, state)
}

fn dump_all(db: &Engine) -> Vec<Vec<Vec<Scalar>>> {
    db.table_names().iter().map(|t| db.dump_table(t)).collect()
}

/// Run the block VM under a placement; return (result, db state, stats).
fn run_vm(
    prog: &NirProgram,
    placement: Placement,
    reorder: bool,
) -> (
    Option<Value>,
    Vec<Vec<Vec<Scalar>>>,
    pyx_runtime::SessionStats,
) {
    let analysis = analyze(prog, AnalysisConfig::default());
    let part = CompiledPartition::build(prog, &analysis, placement, reorder);
    let mut db = order_db();
    let entry = part.il.prog.find_method("Main", "run").unwrap();
    let mut sess = Session::new(
        &part,
        entry,
        &[ArgVal::Int(7), ArgVal::Int(1), ArgVal::Double(0.8)],
        &mut db,
    )
    .expect("session");
    run_to_completion(&mut sess, &mut db, 5_000_000).expect("vm run");
    (sess.result.clone(), dump_all(&db), sess.stats.clone())
}

fn assert_matches_oracle(placement_name: &str, placement: Placement, reorder: bool) {
    let prog = compile(ORDER_SRC).unwrap();
    let (oracle_result, oracle_state) = oracle(&prog);
    let (vm_result, vm_state, _) = run_vm(&prog, placement, reorder);
    assert_eq!(
        vm_result, oracle_result,
        "{placement_name}: result mismatch"
    );
    assert_eq!(
        vm_state, oracle_state,
        "{placement_name}: db state mismatch"
    );
}

#[test]
fn all_app_matches_oracle() {
    let prog = compile(ORDER_SRC).unwrap();
    assert_matches_oracle("JDBC (all-APP)", Placement::all_app(&prog), false);
}

#[test]
fn all_db_matches_oracle() {
    let prog = compile(ORDER_SRC).unwrap();
    assert_matches_oracle("Manual (all-DB)", Placement::all_db(&prog), false);
}

#[test]
fn solver_placement_matches_oracle() {
    let prog = compile(ORDER_SRC).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    let mut profile_db = order_db();
    let m = prog.find_method("Main", "run").unwrap();
    let mut it = Interp::new(&prog, &mut profile_db, Profiler::new(&prog));
    it.call_entry(m, vec![Value::Int(7), Value::Int(1), Value::Double(0.8)])
        .unwrap();
    let profile = it.tracer.profile;
    let g = PartitionGraph::build(&prog, &analysis, &profile, &CostParams::default());

    for frac in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let p = solve(&prog, &g, g.total_load() * frac, SolverKind::Budgeted);
        assert_matches_oracle(&format!("solver@{frac}"), p.clone(), false);
        assert_matches_oracle(&format!("solver@{frac}+reorder"), p, true);
    }
}

#[test]
fn random_placements_match_oracle() {
    // Fuzz placements: any placement must preserve semantics (the cost
    // changes, the answer must not). JDBC calls must stay co-located, so
    // flip only non-db statements.
    let prog = compile(ORDER_SRC).unwrap();
    let mut db_call_stmts = vec![false; prog.stmt_count()];
    prog.for_each_stmt(|_, s| {
        if let pyx_lang::NStmtKind::Builtin { f, .. } = &s.kind {
            if f.is_db_call() {
                db_call_stmts[s.id.index()] = true;
            }
        }
    });

    let mut state = 0xC0FFEEu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) & 1 == 1
    };
    for trial in 0..8 {
        let mut p = Placement::all_app(&prog);
        let db_side = rnd(); // where the JDBC group lives this trial
        for (i, &is_db_call) in db_call_stmts.iter().enumerate().take(prog.stmt_count()) {
            if is_db_call {
                p.stmt_side[i] = if db_side { Side::Db } else { Side::App };
            } else {
                p.stmt_side[i] = if rnd() { Side::Db } else { Side::App };
            }
        }
        for f in 0..prog.fields.len() {
            p.field_side[f] = if rnd() { Side::Db } else { Side::App };
        }
        assert_matches_oracle(&format!("random#{trial}"), p, false);
    }
}

#[test]
fn manual_does_fewer_transfers_than_jdbc_roundtrips() {
    let prog = compile(ORDER_SRC).unwrap();
    let (_, _, jdbc) = run_vm(&prog, Placement::all_app(&prog), false);
    let (_, _, manual) = run_vm(&prog, Placement::all_db(&prog), false);
    // JDBC: every db statement is a round trip; Manual: one control
    // transfer pair, db statements local.
    assert!(jdbc.db_round_trips >= 12, "jdbc {:?}", jdbc);
    assert_eq!(manual.db_round_trips, 0, "manual {:?}", manual);
    assert!(manual.db_local_calls >= 12);
    assert!(
        manual.control_transfers <= 4,
        "manual should transfer control twice, {:?}",
        manual
    );
    assert!(manual.bytes_app_to_db > 0);
}

#[test]
fn rollback_works_under_partitioning() {
    let src = r#"
        class C {
            int f(int k) {
                dbUpdate("INSERT INTO t VALUES (?)", k);
                rollback();
                return k;
            }
        }
    "#;
    let prog = compile(src).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    for placement in [Placement::all_app(&prog), Placement::all_db(&prog)] {
        let part = CompiledPartition::build(&prog, &analysis, placement, false);
        let mut db = Engine::new();
        db.create_table(TableDef::new(
            "t",
            vec![ColumnDef::new("k", ColTy::Int)],
            &["k"],
        ));
        let entry = part.il.prog.find_method("C", "f").unwrap();
        let mut sess = Session::new(&part, entry, &[ArgVal::Int(3)], &mut db).unwrap();
        run_to_completion(&mut sess, &mut db, 100_000).unwrap();
        assert!(sess.rolled_back);
        assert_eq!(sess.result, Some(Value::Int(3)));
        assert_eq!(db.table_len("t"), 0, "insert must be rolled back");
    }
}

#[test]
fn print_output_preserved_across_placements() {
    let src = r#"
        class C {
            void f(int n) {
                int doubled = n * 2;
                print("result=" + intToStr(doubled));
            }
        }
    "#;
    let prog = compile(src).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    for placement in [Placement::all_app(&prog), Placement::all_db(&prog)] {
        let part = CompiledPartition::build(&prog, &analysis, placement, false);
        let mut db = Engine::new();
        let entry = part.il.prog.find_method("C", "f").unwrap();
        let mut sess = Session::new(&part, entry, &[ArgVal::Int(21)], &mut db).unwrap();
        run_to_completion(&mut sess, &mut db, 100_000).unwrap();
        assert_eq!(sess.printed, vec!["result=42"]);
    }
}

#[test]
fn array_arguments_cross_hosts() {
    let src = r#"
        class C {
            int sum(int[] xs) {
                int s = 0;
                for (int x : xs) {
                    row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", x);
                    s = s + rs[0].getInt(0);
                }
                return s;
            }
        }
    "#;
    let prog = compile(src).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    for placement in [Placement::all_app(&prog), Placement::all_db(&prog)] {
        let part = CompiledPartition::build(&prog, &analysis, placement, false);
        let mut db = Engine::new();
        db.create_table(TableDef::new(
            "kv",
            vec![
                ColumnDef::new("k", ColTy::Int),
                ColumnDef::new("v", ColTy::Int),
            ],
            &["k"],
        ));
        for i in 0..10 {
            db.load_row("kv", vec![Scalar::Int(i), Scalar::Int(i * 100)]);
        }
        let entry = part.il.prog.find_method("C", "sum").unwrap();
        let mut sess =
            Session::new(&part, entry, &[ArgVal::IntArray(vec![1, 3, 5])], &mut db).unwrap();
        run_to_completion(&mut sess, &mut db, 500_000).unwrap();
        assert_eq!(sess.result, Some(Value::Int(900)));
    }
}

/// Acceptance: every `Advance::Net { bytes }` reports exactly the encoded
/// length of a decodable wire frame, the first transfer off the APP host
/// is an `Entry` frame, and the reply is a `Return` frame carrying the
/// result value.
#[test]
fn net_bytes_equal_encoded_frame_length() {
    use pyx_runtime::wire::{Frame, FrameKind};
    use pyx_runtime::Advance;

    let prog = compile(ORDER_SRC).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    let part = CompiledPartition::build(&prog, &analysis, Placement::all_db(&prog), false);
    let mut db = order_db();
    let entry = part.il.prog.find_method("Main", "run").unwrap();
    let mut sess = Session::new(
        &part,
        entry,
        &[ArgVal::Int(7), ArgVal::Int(1), ArgVal::Double(0.8)],
        &mut db,
    )
    .unwrap();

    let mut frames = Vec::new();
    for _ in 0..5_000_000u64 {
        match sess.advance(&mut db) {
            Advance::Net { bytes, .. } => {
                let encoded = sess.last_frame.clone().expect("frame recorded");
                assert_eq!(
                    bytes,
                    encoded.len() as u64,
                    "reported wire size must be the encoded frame length"
                );
                let frame = Frame::decode(&encoded).expect("transmitted frame decodes");
                frames.push(frame);
            }
            Advance::Finished => break,
            Advance::Error(e) => panic!("session failed: {e}"),
            _ => {}
        }
    }
    assert!(frames.len() >= 2, "all-DB placement must transfer control");
    assert_eq!(frames.first().unwrap().kind, FrameKind::Entry);
    let last = frames.last().unwrap();
    assert_eq!(last.kind, FrameKind::Return);
    assert_eq!(
        last.result,
        Some(Value::Double(48.00000000000001)),
        "return frame carries the entry result"
    );
    // The entry frame ships the invocation arguments as stack slots.
    assert!(
        !frames[0].stack.is_empty(),
        "entry frame carries argument slots"
    );
}

#[test]
#[ignore]
fn debug_random_trial() {
    let prog = compile(ORDER_SRC).unwrap();
    let mut db_call_stmts = vec![false; prog.stmt_count()];
    prog.for_each_stmt(|_, s| {
        if let pyx_lang::NStmtKind::Builtin { f, .. } = &s.kind {
            if f.is_db_call() {
                db_call_stmts[s.id.index()] = true;
            }
        }
    });
    let mut state = 0xC0FFEEu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) & 1 == 1
    };
    for trial in 0..8 {
        let mut p = Placement::all_app(&prog);
        let db_side = rnd();
        for (i, &is_db_call) in db_call_stmts.iter().enumerate().take(prog.stmt_count()) {
            if is_db_call {
                p.stmt_side[i] = if db_side { Side::Db } else { Side::App };
            } else {
                p.stmt_side[i] = if rnd() { Side::Db } else { Side::App };
            }
        }
        for f in 0..prog.fields.len() {
            p.field_side[f] = if rnd() { Side::Db } else { Side::App };
        }
        let analysis = analyze(&prog, AnalysisConfig::default());
        let part = CompiledPartition::build(&prog, &analysis, p, false);
        let mut db = order_db();
        let entry = part.il.prog.find_method("Main", "run").unwrap();
        let mut sess = Session::new(
            &part,
            entry,
            &[ArgVal::Int(7), ArgVal::Int(1), ArgVal::Double(0.8)],
            &mut db,
        )
        .unwrap();
        let r = run_to_completion(&mut sess, &mut db, 5_000_000);
        println!("trial {trial}: result: {r:?}");
        if r.is_err() {
            println!("{}", part.il.render());
            break;
        }
    }
}
