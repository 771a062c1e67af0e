//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **Solver** — exact Fig. 5 B&B versus the Lagrangian budgeted
//!    min-cut: solution quality (predicted cut cost) and wall time.
//! 2. **Statement reordering (§4.4)** — placement-alternation counts with
//!    and without the dual-queue topological sort, and the resulting
//!    control-transfer counts at runtime.
//! 3. **Points-to precision** — field-sensitive versus field-insensitive:
//!    dependence-edge counts and the cost of the resulting partitions.
//! 4. **Sync granularity** — how many heap sync operations the eager
//!    batched scheme ships per TPC-C transaction versus what per-write
//!    round trips would cost.

use pyx_analysis::{analyze, AnalysisConfig, PointsToConfig};
use pyx_core::{Pyxis, PyxisConfig};
use pyx_partition::{solve, SolverKind};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::session::{run_to_completion, Session};
use pyx_sim::Workload;
use pyx_workloads::tpcc;
use std::time::Instant;

fn main() {
    let scale = tpcc::TpccScale::default();
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, 7);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 7).with_lines(5, 15);
    let profile = pyx_bench::profile_with(&pyxis, &mut scratch, &mut gen, 300);
    let graph = pyxis.graph(&profile);
    let budget = graph.total_load() * 0.5;

    // ---- 1. Solver quality & time ----
    // Exact B&B over the dense-tableau simplex is tractable on micro2's
    // 30-statement graph; on TPC-C we report the Lagrangian solver only
    // (the contracted LP has thousands of rows — exactly why the paper
    // reached for Gurobi/lpsolve there).
    println!("# Ablation 1a: solver on micro2 (30 stmts), budget = 45% of load");
    println!("# solver\tcut_cost_us\tdb_load\twall_ms");
    {
        let (m2, mut m2db, m2entry) = pyx_workloads::micro::micro2_setup();
        let m2profile = m2
            .profile(
                &mut m2db,
                vec![(
                    m2entry,
                    vec![
                        pyx_runtime::ArgVal::Int(40),
                        pyx_runtime::ArgVal::Int(200),
                        pyx_runtime::ArgVal::Int(40),
                    ],
                )],
            )
            .unwrap();
        let g2 = m2.graph(&m2profile);
        let b2 = g2.total_load() * 0.45;
        let t0 = Instant::now();
        let lag2 = solve(&m2.prog, &g2, b2, SolverKind::Budgeted);
        let lag2_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "lagrangian-mincut\t{:.0}\t{:.0}\t{lag2_ms:.1}",
            lag2.predicted_cost, lag2.db_load
        );
        let t0 = Instant::now();
        let ex2 = solve(&m2.prog, &g2, b2, SolverKind::Exact { node_limit: 500 });
        let ex2_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "bnb(limit 500)\t{:.0}\t{:.0}\t{ex2_ms:.1}",
            ex2.predicted_cost, ex2.db_load
        );
    }
    println!("\n# Ablation 1b: solver on TPC-C (budget = 50% of load)");
    println!("# solver\tcut_cost_us\tdb_load\twall_ms");
    let t0 = Instant::now();
    let lag = solve(&pyxis.prog, &graph, budget, SolverKind::Budgeted);
    let lag_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "lagrangian-mincut\t{:.0}\t{:.0}\t{lag_ms:.1}",
        lag.predicted_cost, lag.db_load
    );
    println!("# (TPC-C finding: the hot loop is one tight cluster — at 50% budget the optimum");
    println!("#  is the all-APP layout, matching the paper's observation that TPC-C partitions");
    println!("#  resemble either the JDBC or the Manual extreme.)");

    // ---- 2. Statement reordering ----
    // TPC-C's solved partitions are all-or-nothing (see 1b), so the
    // reordering study uses micro2's genuinely split middle partition,
    // plus a synthetic block of interleaved independent statements.
    println!("\n# Ablation 2: statement reordering (§4.4)");
    {
        let (m2, mut m2db, m2entry) = pyx_workloads::micro::micro2_setup();
        let m2profile = m2
            .profile(
                &mut m2db,
                vec![(
                    m2entry,
                    vec![
                        pyx_runtime::ArgVal::Int(40),
                        pyx_runtime::ArgVal::Int(200),
                        pyx_runtime::ArgVal::Int(40),
                    ],
                )],
            )
            .unwrap();
        let g2 = m2.graph(&m2profile);
        let mid = solve(&m2.prog, &g2, g2.total_load() * 0.45, SolverKind::Budgeted);
        let a2 = analyze(&m2.prog, AnalysisConfig::default());
        let plain = pyx_pyxil::build_pyxil(&m2.prog, &a2, mid.clone(), false);
        let reordered = pyx_pyxil::build_pyxil(&m2.prog, &a2, mid.clone(), true);
        println!(
            "# micro2 middle partition — placement alternations: without = {}, with = {}",
            plain.transition_count(),
            reordered.transition_count()
        );
        let transfers = |il: pyx_pyxil::PyxilProgram| {
            let bp = pyx_pyxil::compile_blocks(&il);
            let bc = pyx_pyxil::compile_bytecode(&il, &bp);
            let part = CompiledPartition { il, bp, bc };
            let mut db = pyx_workloads::micro::micro2_db();
            let mut sess = Session::new(
                &part,
                m2entry,
                &[
                    pyx_runtime::ArgVal::Int(40),
                    pyx_runtime::ArgVal::Int(200),
                    pyx_runtime::ArgVal::Int(40),
                ],
                &mut db,
            )
            .unwrap();
            run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
            sess.stats.control_transfers
        };
        println!(
            "# runtime control transfers per micro2 run: without = {}, with = {}",
            transfers(plain),
            transfers(reordered)
        );
    }
    {
        // Synthetic: 8 independent APP/DB-interleaved statements.
        let src = "class S { int f(int x) { int a=x+1; int b=x+2; int c=x+3; int d=x+4; int e=x+5; int g=x+6; int h=x+7; int i=x+8; return a+b+c+d+e+g+h+i; } }";
        let prog = pyx_lang::compile(src).unwrap();
        let a = analyze(&prog, AnalysisConfig::default());
        let mut pl = pyx_partition::Placement::all_app(&prog);
        for i in 0..prog.stmt_count() {
            pl.stmt_side[i] = if i % 2 == 0 {
                pyx_partition::Side::App
            } else {
                pyx_partition::Side::Db
            };
        }
        let plain = pyx_pyxil::build_pyxil(&prog, &a, pl.clone(), false);
        let reordered = pyx_pyxil::build_pyxil(&prog, &a, pl, true);
        println!(
            "# synthetic interleaved block — alternations: without = {}, with = {}",
            plain.transition_count(),
            reordered.transition_count()
        );
    }

    // ---- 3. Points-to precision ----
    // TPC-C's new-order has no object fields, so precision is studied on
    // the paper's field-rich running example (Fig. 2).
    println!("\n# Ablation 3: points-to field sensitivity (Fig. 2 running example)");
    const ORDER_SRC: &str = r#"
        class Pair { double[] fst; double[] snd; }
        class Order {
            int id;
            double[] realCosts;
            double totalCost;
            Pair scratch;
            Order(int id) { this.id = id; this.scratch = new Pair(); }
            void placeOrder(int cid, double dct) {
                totalCost = 0.0;
                scratch.fst = new double[4];
                scratch.snd = new double[4];
                double[] probe = scratch.fst;
                probe[0] = dct;
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
                dbUpdate("INSERT INTO line_items VALUES (?, ?)", oid, c);
            }
        }
    "#;
    for (name, fs) in [("field-sensitive", true), ("field-insensitive", false)] {
        let cfg = PyxisConfig {
            analysis: AnalysisConfig {
                points_to: PointsToConfig {
                    field_sensitive: fs,
                },
            },
            ..PyxisConfig::default()
        };
        let p = Pyxis::compile(ORDER_SRC, cfg).unwrap();
        let heap_edges = p
            .analysis
            .data
            .iter()
            .filter(|d| d.kind == pyx_analysis::DataDepKind::Heap)
            .count();
        println!(
            "{name}\tdata_edges={}\theap_edges={heap_edges}\tpts_facts={}",
            p.analysis.data.len(),
            p.analysis.points_to.total_facts(),
        );
    }

    // ---- 4. Sync batching ----
    println!("\n# Ablation 4: eager batched sync vs per-write round trips");
    let part = pyxis.deploy_manual();
    let mut db = pyx_db::Engine::new();
    tpcc::create_schema(&mut db);
    tpcc::load(&mut db, scale, 7);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 13)
        .with_lines(8, 8)
        .with_rollback_pct(0.0);
    let req = gen.next_txn(0);
    let mut sess = Session::new(&part, req.entry, &req.args, &mut db).unwrap();
    run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
    let st = &sess.stats;
    let sync_ops: usize = part.il.sync.values().map(|v| v.len()).sum();
    println!(
        "# manual partition, one 8-line new-order: control transfers = {}, bytes app→db = {}, bytes db→app = {}",
        st.control_transfers, st.bytes_app_to_db, st.bytes_db_to_app
    );
    println!(
        "# static sync ops in PyxIL = {sync_ops}; batched into {} transfers. Per-write sync at 2 ms RTT would add ≥ {} ms of latency",
        st.control_transfers,
        sync_ops * 2
    );
}
