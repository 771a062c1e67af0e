//! Cross-crate integration tests: the full Pyxis pipeline from PyxLang
//! source to simulated two-server execution, on the real workloads.

use pyxis::core::{Pyxis, PyxisConfig};
use pyxis::db::Engine;
use pyxis::partition::Side;
use pyxis::runtime::session::{run_to_completion, Session};
use pyxis::runtime::ArgVal;
use pyxis::sim::{Deployment, SimConfig, Workload};
use pyxis::workloads::{micro, tpcc, tpcw};

/// TPC-C through the whole pipeline: profile → partition at several
/// budgets → execute each partition on the VM → identical DB effects.
#[test]
fn tpcc_partitions_preserve_semantics() {
    let scale = tpcc::TpccScale {
        warehouses: 2,
        items: 200,
        ..tpcc::TpccScale::default()
    };
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, 5);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 5).with_lines(4, 8);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..60).map(|i| {
                let r = gen.next_txn(i);
                (r.entry, r.args)
            }),
        )
        .unwrap();
    let graph = pyxis.graph(&profile);

    // Reference: run 20 fixed transactions on the JDBC deployment.
    let fixed_reqs: Vec<_> = {
        let mut g = tpcc::NewOrderGen::new(entry, scale, 77).with_lines(4, 8);
        (0..20).map(|i| g.next_txn(i)).collect()
    };
    let run_all = |part: &pyxis::pyxil::CompiledPartition| -> Vec<Vec<Vec<pyxis::db::Scalar>>> {
        let mut db = Engine::new();
        tpcc::create_schema(&mut db);
        tpcc::load(&mut db, scale, 5);
        for req in &fixed_reqs {
            let mut sess = Session::new(part, req.entry, &req.args, &mut db).unwrap();
            run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
        }
        db.table_names().iter().map(|t| db.dump_table(t)).collect()
    };

    let jdbc = pyxis.deploy_jdbc();
    let reference = run_all(&jdbc);
    for budget in [0.0, 0.3, 1.0, 2.0] {
        let placement = pyxis.partition(&graph, budget);
        let part = pyxis.deploy(placement);
        let state = run_all(&part);
        assert_eq!(
            state, reference,
            "budget {budget}: partitioned execution diverged"
        );
    }
}

/// High budget ⇒ stored-procedure behaviour: zero JDBC round trips and a
/// couple of control transfers per transaction.
#[test]
fn tpcc_high_budget_behaves_like_stored_procedure() {
    let scale = tpcc::TpccScale {
        warehouses: 2,
        items: 200,
        ..tpcc::TpccScale::default()
    };
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, 5);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 5).with_lines(6, 6);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..40).map(|i| {
                let r = gen.next_txn(i);
                (r.entry, r.args)
            }),
        )
        .unwrap();
    let graph = pyxis.graph(&profile);
    let placement = pyxis.partition(&graph, 2.0);
    assert!(placement.db_fraction() > 0.9, "{}", placement.db_fraction());
    let part = pyxis.deploy(placement);

    let mut db = Engine::new();
    tpcc::create_schema(&mut db);
    tpcc::load(&mut db, scale, 5);
    let mut g = tpcc::NewOrderGen::new(entry, scale, 88)
        .with_lines(6, 6)
        .with_rollback_pct(0.0);
    let req = g.next_txn(0);
    let mut sess = Session::new(&part, req.entry, &req.args, &mut db).unwrap();
    run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
    assert_eq!(sess.stats.db_round_trips, 0, "{:?}", sess.stats);
    assert!(sess.stats.db_local_calls >= 15);
    assert!(sess.stats.control_transfers <= 4, "{:?}", sess.stats);

    // Zero budget ⇒ JDBC behaviour on the same transaction.
    let placement = pyxis.partition(&graph, 0.0);
    let part = pyxis.deploy(placement);
    let mut db = Engine::new();
    tpcc::create_schema(&mut db);
    tpcc::load(&mut db, scale, 5);
    let mut sess = Session::new(&part, req.entry, &req.args, &mut db).unwrap();
    run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
    assert!(sess.stats.db_round_trips >= 15, "{:?}", sess.stats);
    assert_eq!(sess.stats.db_local_calls, 0);
}

/// TPC-W: the DB-free order-inquiry interaction stays on the application
/// server even with an unconstrained budget (paper §7.2).
#[test]
fn tpcw_order_inquiry_stays_on_app() {
    let scale = tpcw::TpcwScale {
        items: 10_000,
        authors: 100,
        customers: 200,
        subjects: 8,
    };
    let (pyxis, mut scratch, entries) = tpcw::setup(scale, 9);
    let mut mix = tpcw::BrowsingMix::new(entries, scale, 9);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..150).map(|i| {
                let r = mix.next_txn(i);
                (r.entry, r.args)
            }),
        )
        .unwrap();
    let graph = pyxis.graph(&profile);
    let placement = pyxis.partition(&graph, 5.0);

    let oi = entries.order_inquiry;
    let mut app_stmts = 0;
    let mut db_stmts = 0;
    pyxis.prog.for_each_stmt(|m, s| {
        if m == oi {
            match placement.side_of_stmt(s.id) {
                Side::App => app_stmts += 1,
                Side::Db => db_stmts += 1,
            }
        }
    });
    assert!(app_stmts > 0);
    assert_eq!(db_stmts, 0, "order inquiry must stay on the app server");

    // And a query-heavy interaction did move to the DB.
    let bs = entries.best_sellers;
    let mut bs_db = 0;
    pyxis.prog.for_each_stmt(|m, s| {
        if m == bs && placement.side_of_stmt(s.id) == Side::Db {
            bs_db += 1;
        }
    });
    assert!(bs_db > 0, "best sellers should use the DB budget");
}

/// Micro 2 executes identically on all three budget partitions.
#[test]
fn micro2_partitions_agree() {
    let (pyxis, mut scratch, entry) = micro::micro2_setup();
    let profile = pyxis
        .profile(
            &mut scratch,
            vec![(
                entry,
                vec![ArgVal::Int(30), ArgVal::Int(100), ArgVal::Int(30)],
            )],
        )
        .unwrap();
    let graph = pyxis.graph(&profile);

    let mut results = Vec::new();
    for budget in [0.0, 0.45, 2.0] {
        let part = pyxis.deploy(pyxis.partition(&graph, budget));
        let mut db = micro::micro2_db();
        let mut sess = Session::new(
            &part,
            entry,
            &[ArgVal::Int(30), ArgVal::Int(100), ArgVal::Int(30)],
            &mut db,
        )
        .unwrap();
        run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
        results.push(sess.result.clone());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

/// A small end-to-end simulation: Pyxis-partitioned TPC-C sustains the
/// offered load and beats JDBC latency with spare DB CPU.
#[test]
fn simulated_tpcc_pyxis_beats_jdbc() {
    let scale = tpcc::TpccScale {
        warehouses: 4,
        items: 300,
        ..tpcc::TpccScale::default()
    };
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, 21);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 21).with_lines(4, 8);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..100).map(|i| {
                let r = gen.next_txn(i);
                (r.entry, r.args)
            }),
        )
        .unwrap();
    let set = pyxis.generate(&profile, &[2.0]);

    let cfg = SimConfig {
        duration_s: 8.0,
        warmup_s: 1.0,
        target_tps: 80.0,
        clients: 20,
        ..SimConfig::default()
    };
    let mut results = Vec::new();
    for part in [&set.jdbc, &set.pyxis[0].2] {
        let mut db = Engine::new();
        tpcc::create_schema(&mut db);
        tpcc::load(&mut db, scale, 21);
        let mut wl = tpcc::NewOrderGen::new(entry, scale, 500).with_lines(4, 8);
        results.push(pyxis::sim::run_sim(
            Deployment::Fixed(part),
            &mut db,
            &mut wl,
            &cfg,
        ));
    }
    let (jdbc, pyx) = (&results[0], &results[1]);
    assert!(
        jdbc.avg_latency_ms > 1.8 * pyx.avg_latency_ms,
        "jdbc {:.2} vs pyxis {:.2}",
        jdbc.avg_latency_ms,
        pyx.avg_latency_ms
    );
    assert!(pyx.throughput_tps > 70.0);
    assert!(pyx.rollbacks > 0, "10% programmed rollbacks should appear");
}

/// The pipeline facade compiles bad programs into diagnostics, not panics.
#[test]
fn pipeline_surfaces_compile_errors() {
    let err = Pyxis::compile(
        "class C { void f() { undefined(); } }",
        PyxisConfig::default(),
    );
    assert!(err.is_err());
}
