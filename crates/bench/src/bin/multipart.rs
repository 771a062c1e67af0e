//! Multi-partition fraction vs throughput through 2PC (EXPERIMENTS.md
//! table).
//!
//! Sweeps the fraction of cross-shard transactions in a TPC-C
//! remote-warehouse mix (remote-supplier new-orders + remote-customer
//! payments) over {0, 5, 10, 15, 25}% and runs each request stream
//! through a 4-shard [`ShardedServer`], whose shard threads run the
//! cross-shard transactions they home under per-statement 2PC. Requests are
//! submitted concurrently (a full admission window, refilled as
//! transactions retire), so cross-shard work competes with single-shard
//! traffic the way it does in serving. Each sweep point asserts that
//! every generated cross-shard request ran as one and that nothing
//! failed.
//!
//! ```sh
//! cargo run --release -p pyx-bench --bin multipart [txns]
//! ```

use pyx_server::{Admit, ShardedConfig, ShardedServer, TxnRequest, Workload};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    }
}

fn fresh_shards(seed: u64) -> Vec<pyx_db::Engine> {
    let mut engines: Vec<pyx_db::Engine> = (0..SHARDS)
        .map(|_| {
            let mut e = pyx_db::Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale(), seed);
    engines
}

struct RunStats {
    secs: f64,
    multi: u64,
    mean_participants: f64,
    prepares: u64,
    errors: u64,
}

fn run(part: &Arc<pyx_pyxil::CompiledPartition>, reqs: &[TxnRequest]) -> RunStats {
    let engines = fresh_shards(5);
    let mut srv = ShardedServer::new(
        Arc::clone(part),
        engines,
        ShardedConfig {
            shards: SHARDS,
            ..ShardedConfig::default()
        },
    );
    let mut errors = 0u64;
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        loop {
            match srv.submit(req.clone(), i as u64) {
                Admit::Started | Admit::Queued { .. } => break,
                // Window full: retire one transaction, then retry.
                Admit::Rejected => {
                    if let Some(d) = srv.recv_done() {
                        errors += u64::from(d.error.is_some());
                    }
                }
                Admit::Unavailable => panic!("no worker dies in this sweep"),
            }
        }
    }
    for d in srv.drain() {
        errors += u64::from(d.error.is_some());
    }
    let secs = start.elapsed().as_secs_f64();
    let (_, report) = srv.shutdown();
    let merged = report.merged_engine_stats();
    RunStats {
        secs,
        multi: report.multi_txns,
        mean_participants: if report.multi_txns > 0 {
            report.multi_participants as f64 / report.multi_txns as f64
        } else {
            0.0
        },
        prepares: merged.prepares,
        errors,
    }
}

fn main() {
    let txns: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let pyxis = pyx_core::Pyxis::compile(tpcc::REMOTE_SRC, pyx_core::PyxisConfig::default())
        .expect("remote TPC-C compiles");
    let part = Arc::new(pyxis.deploy_jdbc());
    let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
    let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");

    println!("# multi-partition fraction sweep: {txns} txns, {SHARDS} shards, 2PC");
    println!("remote%\ttxn/s\tmulti\tmean_parts\tprepares\terrors");
    for pct in [0.0, 0.05, 0.10, 0.15, 0.25] {
        let mut g = tpcc::RemoteMixGen::new(order, pay, scale(), 17)
            .with_remote_pct(pct)
            .with_lines(2, 5);
        let reqs: Vec<TxnRequest> = (0..txns).map(|i| g.next_txn(i)).collect();
        let remote = reqs.iter().filter(|r| r.route.is_none()).count() as u64;
        let s = run(&part, &reqs);
        println!(
            "{:.0}\t{:.0}\t{}\t{:.2}\t{}\t{}",
            pct * 100.0,
            txns as f64 / s.secs,
            s.multi,
            s.mean_participants,
            s.prepares,
            s.errors,
        );
        assert_eq!(s.multi, remote, "every cross-shard request ran as one");
        assert_eq!(s.errors, 0, "healthy sweep");
    }
}
