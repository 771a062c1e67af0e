//! Log-shipping replica measurements plus the CI ship/fingerprint smoke
//! (EXPERIMENTS.md tables).
//!
//! 1. **Read throughput vs replica count** — the routed read-mostly
//!    TPC-W mix (5% admin writes) through a one-shard [`ShardedServer`]
//!    with 0/1/2/4 log-shipping replicas, a full admission window kept
//!    in flight. Reports wall time, replica-served reads, primary
//!    fallbacks, and the peak observed staleness.
//! 2. **Replica lag vs write rate** — the same cluster with one replica,
//!    sweeping the admin-write fraction; reports peak and final lag (in
//!    commits behind the primary's durable horizon).
//! 3. **Ship + fingerprint smoke** — TPC-C new-orders through a logged
//!    engine whose feed is tailed *incrementally* into a replica during
//!    the run; at the end the replica must answer the row-count and
//!    aggregate-checksum queries identically to the primary. Any
//!    mismatch (including in the server runs above) exits nonzero — CI
//!    runs this binary as the replication smoke test.
//!
//! ```sh
//! cargo run --release -p pyx-bench --bin replica [txns]
//! ```

use pyx_db::wal::FeedSink;
use pyx_db::{Engine, MemSink, RedoTailer, Scalar, Wal};
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, InstantEnv, ShardedConfig, ShardedServer,
    Workload,
};
use pyx_workloads::{tpcc, tpcw};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_tpcw(seed: u64) -> Engine {
    let mut e = Engine::new();
    tpcw::create_schema(&mut e);
    tpcw::load(&mut e, tpcw::TpcwScale::default(), seed);
    e
}

struct RunStats {
    secs: f64,
    errors: u64,
    replica_reads: u64,
    fallbacks: u64,
    peak_lag: u64,
    final_lag: u64,
}

/// Drive `txns` routed read-mostly transactions with a full admission
/// window; replicas are fingerprinted against the primary at shutdown.
fn run_server(
    part: &Arc<pyx_pyxil::CompiledPartition>,
    entries: tpcw::ReadMostlyEntries,
    write_pct: u32,
    replicas: usize,
    txns: usize,
    seed: u64,
) -> RunStats {
    let mut engines = vec![fresh_tpcw(seed)];
    let feeds =
        ShardedServer::attach_shard_wals_with_feeds(&mut engines, 8, |_| Box::new(MemSink::new()));
    let mut srv = ShardedServer::new(
        Arc::clone(part),
        engines,
        ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        },
    );
    srv.spawn_replicas(
        &feeds,
        vec![(0..replicas).map(|_| fresh_tpcw(seed)).collect()],
    );

    let mut mix =
        tpcw::ReadMostlyMix::new(entries, tpcw::TpcwScale::default(), write_pct, seed).routed();
    let mut errors = 0u64;
    let mut peak_lag = 0u64;
    let start = Instant::now();
    for i in 0..txns {
        let req = mix.next_txn(0);
        loop {
            match srv.submit(req.clone(), i as u64) {
                Admit::Started | Admit::Queued { .. } => break,
                // Window full: retire one transaction, then retry.
                Admit::Rejected => {
                    if let Some(d) = srv.recv_done() {
                        errors += u64::from(d.error.is_some());
                    }
                }
                // A worker death surfaces here; the deadline-bounded
                // retry reaps the corpse and, when healing is
                // configured, rides out the failover window.
                Admit::Unavailable => {
                    let deadline = Instant::now() + Duration::from_millis(13);
                    match srv.submit_by_deadline(req.clone(), i as u64, deadline) {
                        Admit::Started | Admit::Queued { .. } => break,
                        other => panic!("shard stayed unavailable after retries: {other:?}"),
                    }
                }
            }
        }
        if i % 64 == 0 {
            let lag = srv
                .replica_lags()
                .iter()
                .map(|&(_, l)| l)
                .max()
                .unwrap_or(0);
            peak_lag = peak_lag.max(lag);
        }
    }
    for d in srv.drain() {
        errors += u64::from(d.error.is_some());
    }
    let secs = start.elapsed().as_secs_f64();
    let final_lag = srv
        .replica_lags()
        .iter()
        .map(|&(_, l)| l)
        .max()
        .unwrap_or(0);
    let (_, report) = srv.shutdown();

    // Fingerprint every replica against the primary: after the final
    // catch-up they must be row-for-row identical.
    let primary = &report.engines[0];
    for (_, replica) in &report.replica_engines {
        for table in primary.table_names() {
            if replica.dump_table(&table) != primary.dump_table(&table) {
                eprintln!("FINGERPRINT MISMATCH: table `{table}` diverged on a replica");
                std::process::exit(1);
            }
        }
    }
    RunStats {
        secs,
        errors,
        replica_reads: report.replica_reads,
        fallbacks: report.replica_fallbacks,
        peak_lag,
        final_lag,
    }
}

/// TPC-C checksum fingerprint (the columns new-order mutates).
fn fingerprint(e: &mut Engine) -> Vec<(String, Scalar)> {
    [
        ("stock", "SELECT SUM(s_quantity) FROM stock"),
        ("district", "SELECT SUM(d_next_o_id) FROM district"),
        ("orders", "SELECT COUNT(*) FROM orders"),
        ("order_line", "SELECT SUM(ol_amount) FROM order_line"),
    ]
    .iter()
    .map(|(name, sql)| {
        (
            name.to_string(),
            e.exec_auto(sql, &[]).expect("checksum query").rows[0].as_ref()[0].clone(),
        )
    })
    .collect()
}

/// Ship + fingerprint smoke: TPC-C new-orders on a logged primary, the
/// feed tailed incrementally into a replica between admission batches.
fn smoke(txns: u64, seed: u64) -> bool {
    let scale = tpcc::TpccScale {
        warehouses: 4,
        ..tpcc::TpccScale::default()
    };
    let mut primary = Engine::new();
    tpcc::create_schema(&mut primary);
    tpcc::load(&mut primary, scale, seed);
    let sink = FeedSink::new(MemSink::new());
    let feed = sink.feed();
    primary.set_wal(Wal::new(Box::new(sink)).with_group_commit(16));

    let mut replica = Engine::new();
    tpcc::create_schema(&mut replica);
    tpcc::load(&mut replica, scale, seed);
    let mut tailer = RedoTailer::new();
    let mut buf = Vec::new();

    let pyxis = pyx_core::Pyxis::compile(tpcc::SRC, pyx_core::PyxisConfig::default())
        .expect("TPC-C compiles");
    let part = pyxis.deploy_jdbc();
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let mut gen = tpcc::NewOrderGen::new(entry, scale, seed).with_lines(3, 8);
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&part),
        &mut primary,
        DispatcherConfig {
            max_sessions: 64,
            queue_cap: usize::MAX,
            ..DispatcherConfig::default()
        },
    );
    let mut env = InstantEnv;
    let mut submitted = 0u64;
    let mut shipped = 0u64;
    while submitted < txns {
        let batch = 64.min(txns - submitted);
        for _ in 0..batch {
            let req = Workload::next_txn(&mut gen, submitted as usize);
            match disp.submit(0, req, submitted) {
                Admit::Started | Admit::Queued { .. } => submitted += 1,
                Admit::Rejected => break,
                Admit::Unavailable => unreachable!("single dispatcher"),
            }
        }
        for d in disp.run_until_idle(&mut primary, &mut env) {
            if let Some(e) = d.error {
                panic!("transaction {} failed: {e}", d.tag);
            }
        }
        primary.wal_sync().expect("acknowledgement flush");
        // Incremental ship: only the new durable suffix moves.
        let got = tailer
            .catch_up_feed(&feed, &mut replica, &mut buf)
            .expect("catch-up");
        shipped += got.records;
    }
    println!(
        "# smoke: {txns} new-orders, {shipped} records shipped incrementally, \
         replica ts {} / primary ts {}",
        replica.current_commit_ts(),
        primary.current_commit_ts()
    );
    let want = fingerprint(&mut primary);
    let got = fingerprint(&mut replica);
    if got != want {
        eprintln!("FINGERPRINT MISMATCH: primary {want:?} vs replica {got:?}");
        return false;
    }
    if replica.current_commit_ts() != primary.current_commit_ts() {
        eprintln!("replica horizon did not converge");
        return false;
    }
    println!("# smoke: fingerprint ok");
    true
}

fn main() {
    let txns: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000);
    let seed = 0xFEED;
    let pyxis = pyx_core::Pyxis::compile(tpcw::SRC_READ_MOSTLY, pyx_core::PyxisConfig::default())
        .expect("read-mostly TPC-W compiles");
    let entries = tpcw::ReadMostlyEntries::find(&pyxis.prog);
    let part = Arc::new(pyxis.deploy_jdbc());

    println!("# Table 1: read throughput vs replica count");
    println!("# {txns} routed read-mostly TPC-W txns (5% writes), 1 shard");
    println!("replicas\ttxn/s\treplica_reads\tfallbacks\tpeak_lag\terrors");
    for replicas in [0usize, 1, 2, 4] {
        let s = run_server(&part, entries, 5, replicas, txns, seed);
        println!(
            "{replicas}\t{:.0}\t{}\t{}\t{}\t{}",
            txns as f64 / s.secs,
            s.replica_reads,
            s.fallbacks,
            s.peak_lag,
            s.errors
        );
    }

    println!("\n# Table 2: replica lag vs write rate (1 replica)");
    println!("write%\ttxn/s\treplica_reads\tpeak_lag\tfinal_lag\terrors");
    for write_pct in [0u32, 5, 10, 15] {
        let s = run_server(&part, entries, write_pct, 1, txns, seed);
        println!(
            "{write_pct}\t{:.0}\t{}\t{}\t{}\t{}",
            txns as f64 / s.secs,
            s.replica_reads,
            s.peak_lag,
            s.final_lag,
            s.errors
        );
    }

    println!("\n# Table 3: ship + fingerprint smoke (TPC-C)");
    if !smoke(txns as u64, 7) {
        std::process::exit(1);
    }
}
