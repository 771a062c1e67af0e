//! Pipeline facade tests: the `Pyxis` API end to end on a self-contained
//! program.

use pyx_core::{Pyxis, PyxisConfig};
use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_partition::{Side, SolverKind};
use pyx_runtime::ArgVal;

const SRC: &str = r#"
    class App {
        int total;
        int work(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                row[] rs = dbQuery("SELECT v FROM data WHERE k = ?", i % 10);
                acc = acc + rs[0].getInt(0);
            }
            total = acc;
            return acc;
        }
    }
"#;

fn db() -> Engine {
    let mut e = Engine::new();
    e.create_table(TableDef::new(
        "data",
        vec![
            ColumnDef::new("k", ColTy::Int),
            ColumnDef::new("v", ColTy::Int),
        ],
        &["k"],
    ));
    for i in 0..10 {
        e.load_row("data", vec![Scalar::Int(i), Scalar::Int(i * i)]);
    }
    e
}

#[test]
fn full_pipeline_produces_runnable_deployments() {
    let pyxis = Pyxis::compile(SRC, PyxisConfig::default()).expect("compile");
    let entry = pyxis.entry("App", "work").expect("entry");
    assert!(pyxis.entry("App", "nosuch").is_none());
    assert!(pyxis.entry("NoClass", "work").is_none());

    let mut scratch = db();
    let profile = pyxis
        .profile(&mut scratch, vec![(entry, vec![ArgVal::Int(20)])])
        .expect("profile");
    assert!(profile.total_statements_executed() > 50);

    let set = pyxis.generate(&profile, &[0.0, 2.0]);
    assert_eq!(set.pyxis.len(), 2);
    let (b0, p0, _) = &set.pyxis[0];
    let (b1, p1, _) = &set.pyxis[1];
    assert_eq!(*b0, 0.0);
    assert_eq!(*b1, 2.0);
    assert_eq!(p0.db_fraction(), 0.0, "zero budget = JDBC-like");
    assert!(p1.db_fraction() > 0.5, "high budget pushes to DB");

    // Every deployment runs and computes the same answer.
    let mut answers = Vec::new();
    for part in [&set.jdbc, &set.manual, &set.pyxis[0].2, &set.pyxis[1].2] {
        let mut engine = db();
        let mut sess =
            pyx_runtime::Session::new(part, entry, &[ArgVal::Int(20)], &mut engine).unwrap();
        pyx_runtime::session::run_to_completion(&mut sess, &mut engine, 1_000_000).unwrap();
        answers.push(sess.result.clone());
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
}

#[test]
fn describe_placement_is_informative() {
    let pyxis = Pyxis::compile(SRC, PyxisConfig::default()).unwrap();
    let entry = pyxis.entry("App", "work").unwrap();
    let mut scratch = db();
    let profile = pyxis
        .profile(&mut scratch, vec![(entry, vec![ArgVal::Int(5)])])
        .unwrap();
    let graph = pyxis.graph(&profile);
    let p = pyxis.partition(&graph, 2.0);
    let desc = pyxis.describe_placement(&p);
    assert!(desc.contains("statements on DB"), "{desc}");
    assert!(desc.contains("predicted cost"), "{desc}");
}

#[test]
fn exact_solver_config_is_usable() {
    let cfg = PyxisConfig {
        solver: SolverKind::Exact { node_limit: 5_000 },
        ..PyxisConfig::default()
    };
    let pyxis = Pyxis::compile(SRC, cfg).unwrap();
    let entry = pyxis.entry("App", "work").unwrap();
    let mut scratch = db();
    let profile = pyxis
        .profile(&mut scratch, vec![(entry, vec![ArgVal::Int(5)])])
        .unwrap();
    let graph = pyxis.graph(&profile);
    let p = pyxis.partition(&graph, 0.0);
    assert!(p.stmt_side.iter().all(|&s| s == Side::App));
}

#[test]
fn profile_reports_runtime_errors() {
    let bad = r#"
        class App {
            int work(int n) { return 1 / (n - n); }
        }
    "#;
    let pyxis = Pyxis::compile(bad, PyxisConfig::default()).unwrap();
    let entry = pyxis.entry("App", "work").unwrap();
    let mut scratch = Engine::new();
    let err = pyxis
        .profile(&mut scratch, vec![(entry, vec![ArgVal::Int(3)])])
        .unwrap_err();
    assert!(err.msg.contains("division"), "{err}");
}

#[test]
fn reorder_flag_is_respected() {
    // With reorder disabled the PyxIL keeps source order; a quick proxy:
    // both configurations still produce equivalent results.
    for reorder in [false, true] {
        let cfg = PyxisConfig {
            reorder,
            ..PyxisConfig::default()
        };
        let pyxis = Pyxis::compile(SRC, cfg).unwrap();
        let entry = pyxis.entry("App", "work").unwrap();
        let mut scratch = db();
        let profile = pyxis
            .profile(&mut scratch, vec![(entry, vec![ArgVal::Int(10)])])
            .unwrap();
        let graph = pyxis.graph(&profile);
        let part = pyxis.deploy(pyxis.partition(&graph, 2.0));
        let mut engine = db();
        let mut sess =
            pyx_runtime::Session::new(&part, entry, &[ArgVal::Int(10)], &mut engine).unwrap();
        pyx_runtime::session::run_to_completion(&mut sess, &mut engine, 1_000_000).unwrap();
        assert!(sess.result.is_some());
    }
}
