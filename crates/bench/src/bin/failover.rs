//! Failover MTTR under a TPC-C fire hose (EXPERIMENTS.md table).
//!
//! A 4-shard server runs routed new-orders with per-shard WALs
//! (group-commit 4, in-memory sinks so the numbers isolate supervisor +
//! replay cost from disk), one log-shipping replica per shard,
//! self-healing promotion, and a respawn-from-log factory. Workers are
//! killed on a fixed schedule — each shard once while its replica is
//! alive (promotion path) and once after it has been consumed (respawn
//! path) — while the closed loop keeps submitting through
//! [`ShardedServer::submit_by_deadline`].
//!
//! Reports per-recovery MTTR (detection → shard accepting writes) for
//! both paths, then proves the run honest: every admitted transaction
//! retired exactly once, and each shard's survivor state equals a fresh
//! engine recovered from that shard's durable log bytes (no lost acks,
//! no double apply).
//!
//! ```sh
//! cargo run --release -p pyx-bench --bin failover [txns]
//! ```

use pyx_db::{shard_of, Engine, MemSink, Scalar};
use pyx_server::{Admit, ShardedConfig, ShardedServer, Workload};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    }
}

fn build_shards(seed: u64) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..SHARDS)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale(), seed);
    engines
}

fn wh(s: usize) -> i64 {
    (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), SHARDS) == s)
        .expect("every shard owns a warehouse")
}

fn checksum(e: &mut Engine, sql: &str) -> Scalar {
    e.exec_auto(sql, &[]).expect("checksum query").rows[0].as_ref()[0].clone()
}

fn main() {
    let txns: u64 = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("txns must be a number"))
        .unwrap_or(8_000);
    let seed = 7;

    let (pyxis, mut scratch, entry) = tpcc::setup(scale(), seed);
    let mut gen = tpcc::NewOrderGen::new(entry, scale(), seed).with_lines(3, 8);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..200).map(|i| {
                let r = Workload::next_txn(&mut gen, i);
                (r.entry, r.args)
            }),
        )
        .expect("profiling");
    let set = pyxis.generate(&profile, &[2.0]);
    let part = Arc::new(set.pyxis.into_iter().next().expect("partition").2);

    let sinks: Vec<MemSink> = (0..SHARDS).map(|_| MemSink::new()).collect();
    let mut engines = build_shards(seed);
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 4, |i| {
        Box::new(sinks[i].clone())
    });
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: SHARDS,
            ..ShardedConfig::default()
        },
    );
    let replicas = build_shards(seed).into_iter().map(|e| vec![e]).collect();
    srv.spawn_replicas(&feeds, replicas);
    srv.enable_self_healing();
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = build_shards(seed).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });

    // Eight kills: shards 0..3 with a live replica, then 0..3 again
    // after each replica was consumed by the first failover.
    let kill_at: Vec<u64> = (1..=8).map(|k| txns * k / 9).collect();
    let mut next_kill = 0usize;

    let mut wl = tpcc::NewOrderGen::new(entry, scale(), 999).with_lines(3, 8);
    println!(
        "serving {txns} routed TPC-C new-orders on {SHARDS} shards, killing a worker at each 1/9 mark…"
    );
    let t0 = Instant::now();
    let mut submitted = 0u64;
    let mut retired = 0u64;
    let mut errors = 0u64;
    let depth = 256u64;
    while retired < txns {
        while submitted < txns && srv.in_flight() < depth {
            if next_kill < kill_at.len() && submitted >= kill_at[next_kill] {
                srv.inject_worker_crash(next_kill % SHARDS, 0);
                next_kill += 1;
            }
            let mut req = Workload::next_txn(&mut wl, submitted as usize);
            let wid = wh(submitted as usize % SHARDS);
            req.args[0] = pyx_runtime::ArgVal::Int(wid);
            req.route = Some(wid);
            let deadline = Instant::now() + Duration::from_millis(600);
            match srv.submit_by_deadline(req, submitted, deadline) {
                Admit::Started | Admit::Queued { .. } => submitted += 1,
                Admit::Rejected => break,
                Admit::Unavailable => panic!("shard stayed unavailable after retries"),
            }
        }
        if let Some(d) = srv.recv_done() {
            retired += 1;
            errors += u64::from(d.error.is_some());
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(srv.dead_shards().is_empty(), "every kill healed");
    assert_eq!(submitted, retired, "every admitted transaction retired");

    let (rest, mut report) = srv.shutdown();
    assert!(rest.is_empty());

    println!(
        "\n  wall time {secs:>8.2} s  throughput {:>8.0} txn/s  lost-to-kill errors {errors}",
        retired as f64 / secs
    );
    println!("\n  shard  path     mttr_us  in-doubt  resolved(commit/abort)");
    let mut promote = Vec::new();
    let mut respawn = Vec::new();
    for r in &report.recoveries {
        let path = if r.promoted { "promote" } else { "respawn" };
        println!(
            "  {:>5}  {path}  {:>8.0}  {:>8}  {:>6}/{}",
            r.shard,
            r.mttr_ns as f64 / 1_000.0,
            r.in_doubt,
            r.resolved_commit,
            r.resolved_abort
        );
        if r.promoted {
            promote.push(r.mttr_ns);
        } else {
            respawn.push(r.mttr_ns);
        }
    }
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / 1_000.0
        }
    };
    println!(
        "\n  mean MTTR: promotion {:.0} us ({} kills), WAL respawn {:.0} us ({} kills)",
        mean(&promote),
        promote.len(),
        mean(&respawn),
        respawn.len()
    );

    // Honesty check: replay each shard's durable log into a fresh
    // engine; checksums and the commit horizon must match the survivor.
    for (s, live) in report.engines.iter_mut().enumerate() {
        let mut oracle = build_shards(seed).swap_remove(s);
        oracle
            .recover(&sinks[s].durable_bytes())
            .unwrap_or_else(|e| panic!("shard {s} log must replay: {e}"));
        assert_eq!(
            oracle.current_commit_ts(),
            live.current_commit_ts(),
            "shard {s} horizon"
        );
        for sql in [
            "SELECT SUM(s_quantity) FROM stock",
            "SELECT SUM(d_next_o_id) FROM district",
            "SELECT COUNT(*) FROM orders",
            "SELECT SUM(ol_amount) FROM order_line",
        ] {
            assert_eq!(
                checksum(&mut oracle, sql),
                checksum(live, sql),
                "shard {s}: {sql}"
            );
        }
    }
    println!("  durability differential: all {SHARDS} shard logs replay to the survivor state ✓");
}
