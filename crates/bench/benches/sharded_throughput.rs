//! Shard-per-core throughput: the TPC-C home-warehouse mix through
//! `ShardedServer` at 1/2/4 shards, against a single `Dispatcher`
//! baseline, 8 warehouses and 256 transactions per iteration everywhere.
//! Sessions/sec = 256 / ns-per-iter; the EXPERIMENTS.md scaling table is
//! derived from these numbers.
//!
//! Every generated order carries the programmed-rollback marker, so each
//! transaction performs its full read/insert/update work and then rolls
//! back — table sizes stay constant across iterations, which keeps the
//! numbers comparable (the same trick `server_throughput` plays with its
//! constant-size kv schema).
//!
//! NOTE: wall-clock scaling with shard count requires as many free cores;
//! on a single-core host the workers timeshare and the interesting number
//! is the sharding tax (channel hop + engine mutex) versus the
//! single-dispatcher baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pyx_db::Engine;
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, InstantEnv, ShardedConfig, ShardedServer,
};
use pyx_workloads::tpcc;
use std::sync::Arc;

const BATCH: usize = 256;
const CLIENTS: usize = 128;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    }
}

fn bench_sharded_throughput(c: &mut Criterion) {
    let pyxis = pyx_core::Pyxis::compile(tpcc::SRC, pyx_core::PyxisConfig::default())
        .expect("TPC-C compiles");
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let part = Arc::new(pyxis.deploy_jdbc());
    let mut g = c.benchmark_group("sharded_throughput");

    // Single-dispatcher baseline: same mix, same clients, one engine.
    {
        let mut engine = Engine::new();
        tpcc::create_schema(&mut engine);
        tpcc::load(&mut engine, scale(), 7);
        let mut disp = Dispatcher::new(
            Deployment::Fixed(&part),
            &mut engine,
            DispatcherConfig {
                max_sessions: CLIENTS,
                queue_cap: usize::MAX,
                ..DispatcherConfig::default()
            },
        );
        let mut env = InstantEnv;
        let mut gen = tpcc::NewOrderGen::new(entry, scale(), 99)
            .with_lines(3, 8)
            .with_rollback_pct(1.0);
        g.bench_function("single_batch256", |b| {
            b.iter(|| {
                for i in 0..BATCH {
                    let req = pyx_server::Workload::next_txn(&mut gen, i);
                    disp.submit(0, req, i as u64);
                }
                let done = disp.run_until_idle(&mut engine, &mut env);
                assert_eq!(done.len(), BATCH);
                black_box(done.len())
            })
        });
    }

    for shards in [1usize, 2, 4] {
        let mut engines: Vec<Engine> = (0..shards)
            .map(|_| {
                let mut e = Engine::new();
                tpcc::create_schema(&mut e);
                e
            })
            .collect();
        tpcc::load_sharded(&mut engines, scale(), 7);
        let per_shard = (CLIENTS / shards).max(1);
        let mut srv = ShardedServer::new(
            Arc::clone(&part),
            engines,
            ShardedConfig {
                shards,
                dispatcher: DispatcherConfig {
                    max_sessions: per_shard,
                    queue_cap: BATCH,
                    ..DispatcherConfig::default()
                },
                ..ShardedConfig::default()
            },
        );
        let mut gen = tpcc::NewOrderGen::new(entry, scale(), 99)
            .with_lines(3, 8)
            .with_rollback_pct(1.0);
        g.bench_function(&format!("sharded_w{shards}_batch256"), |b| {
            b.iter(|| {
                let mut done = 0usize;
                let mut submitted = 0usize;
                while done < BATCH {
                    while submitted < BATCH {
                        let req = pyx_server::Workload::next_txn(&mut gen, submitted);
                        match srv.submit(req, submitted as u64) {
                            Admit::Started | Admit::Queued { .. } => submitted += 1,
                            Admit::Rejected => break,
                            Admit::Unavailable => panic!("shard worker died mid-bench"),
                        }
                    }
                    srv.recv_done().expect("in flight");
                    done += 1;
                }
                black_box(done)
            })
        });
        let (rest, report) = srv.shutdown();
        assert!(rest.is_empty());
        assert_eq!(
            report.multi_txns, 0,
            "home mix runs no cross-shard transaction"
        );
    }
}

criterion_group!(benches, bench_sharded_throughput);
criterion_main!(benches);
