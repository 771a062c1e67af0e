//! Dispatcher throughput: sessions/sec through `pyx_server::Dispatcher`
//! with an `InstantEnv` (no virtual-time pricing — raw engine + VM + wire
//! protocol speed), as the concurrent client count grows. Each iteration
//! submits one batch of `clients` chatty transactions and drains the
//! dispatcher to idle; sessions/sec = clients / ns-per-iter. Measured
//! numbers are recorded in `EXPERIMENTS.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pyx_analysis::{analyze, AnalysisConfig};
use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_lang::compile;
use pyx_partition::Placement;
use pyx_pyxil::CompiledPartition;
use pyx_runtime::ArgVal;
use pyx_server::{Deployment, Dispatcher, DispatcherConfig, InstantEnv, TxnRequest};

/// A chatty read-modify-write transaction: 4 point queries + 2 updates.
/// Keeps table sizes constant, so iterations are comparable.
const SRC: &str = r#"
    class Txn {
        int run(int k) {
            int acc = 0;
            for (int i = 0; i < 4; i++) {
                row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", (k + i * 17) % 1024);
                acc = acc + rs[0].getInt(0);
            }
            dbUpdate("UPDATE kv SET v = v + ? WHERE k = ?", 1, k % 1024);
            dbUpdate("UPDATE counters SET n = n + ? WHERE id = ?", 1, k % 64);
            return acc;
        }
    }
"#;

fn mk_engine() -> Engine {
    let mut db = Engine::new();
    db.create_table(TableDef::new(
        "kv",
        vec![
            ColumnDef::new("k", ColTy::Int),
            ColumnDef::new("v", ColTy::Int),
        ],
        &["k"],
    ));
    db.create_table(TableDef::new(
        "counters",
        vec![
            ColumnDef::new("id", ColTy::Int),
            ColumnDef::new("n", ColTy::Int),
        ],
        &["id"],
    ));
    for i in 0..1024 {
        db.load_row("kv", vec![Scalar::Int(i), Scalar::Int(i)]);
    }
    for i in 0..64 {
        db.load_row("counters", vec![Scalar::Int(i), Scalar::Int(0)]);
    }
    db
}

fn bench_server_throughput(c: &mut Criterion) {
    let prog = compile(SRC).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    let entry = prog.find_method("Txn", "run").unwrap();
    let jdbc = CompiledPartition::build(&prog, &analysis, Placement::all_app(&prog), false);
    let manual = CompiledPartition::build(&prog, &analysis, Placement::all_db(&prog), false);

    let mut g = c.benchmark_group("server_throughput");

    for (pname, part) in [("jdbc", &jdbc), ("manual", &manual)] {
        for clients in [1usize, 8, 64, 256] {
            let mut engine = mk_engine();
            let mut disp = Dispatcher::new(
                Deployment::Fixed(part),
                &mut engine,
                DispatcherConfig {
                    max_sessions: clients,
                    queue_cap: usize::MAX,
                    ..DispatcherConfig::default()
                },
            );
            let mut env = InstantEnv;
            let mut k = 0i64;
            // ns/iter ÷ clients = ns per session; sessions/sec in
            // EXPERIMENTS.md is derived from that.
            g.bench_function(&format!("{pname}_batch_c{clients}"), |b| {
                b.iter(|| {
                    for i in 0..clients {
                        k += 7;
                        disp.submit(
                            0,
                            TxnRequest {
                                entry,
                                args: vec![ArgVal::Int(k % 1024)],
                                label: "bench",
                                // Micro-style routing key: the point key
                                // the transaction's statements hit.
                                route: Some(k % 1024),
                            },
                            i as u64,
                        );
                    }
                    let done = disp.run_until_idle(&mut engine, &mut env);
                    assert_eq!(done.len(), clients);
                    black_box(done.len())
                })
            });
        }
    }
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
