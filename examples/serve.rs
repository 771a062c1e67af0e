//! Serve TPC-C through the `pyx-server` dispatcher — no simulation.
//!
//! ```sh
//! cargo run --release --example serve [clients] [transactions] [--shards N]
//! ```
//!
//! Where `dynamic_switching` prices dispatcher events onto a virtual
//! testbed, this example drives the very same [`pyxis::server::Dispatcher`]
//! with an [`pyxis::server::InstantEnv`]: every admitted session executes
//! the real partitioned program against the real engine at full machine
//! speed. A closed loop of N clients keeps the admission queue fed —
//! exactly how the `server_throughput` bench measures sessions/sec — and
//! the run reports wall-clock throughput plus the dispatcher's own
//! counters (admissions, queue peaks, wait-die restarts).
//!
//! `--shards N` serves the same home-warehouse mix through the
//! shard-per-core [`pyxis::server::ShardedServer`] instead: N worker
//! threads, each owning one engine shard and its own dispatcher, requests
//! routed by home warehouse. Sharded runs fix the scale at 8 warehouses
//! regardless of N so the 1/2/4/8-shard numbers are directly comparable
//! (the EXPERIMENTS.md scaling table).

use pyxis::server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, InstantEnv, Polled, ShardedConfig,
    ShardedServer,
};
use pyxis::workloads::tpcc;
use std::time::{Duration, Instant};

fn main() {
    // Numeric args fill clients then transactions; `--shards N` switches
    // to the sharded server. Anything else is an error rather than a
    // silently ignored knob.
    let mut clients: usize = 200;
    let mut total: u64 = 20_000;
    let mut shards: Option<usize> = None;
    let mut nums = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("--shards needs a positive integer");
                assert!(n > 0, "--shards needs a positive integer");
                shards = Some(n);
            }
            _ => match (nums, a.parse::<u64>()) {
                (0, Ok(n)) => {
                    clients = n as usize;
                    nums = 1;
                }
                (1, Ok(n)) => {
                    total = n;
                    nums = 2;
                }
                _ => panic!(
                    "unexpected argument `{a}` (usage: serve [clients] [transactions] [--shards N])"
                ),
            },
        }
    }

    if let Some(w) = shards {
        return serve_sharded(w, clients, total);
    }

    let scale = tpcc::TpccScale::default();
    let seed = 7;
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, seed);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, seed).with_lines(3, 8);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..200).map(|i| {
                let r = pyxis::sim::Workload::next_txn(&mut gen, i);
                (r.entry, r.args)
            }),
        )
        .expect("profiling");
    let set = pyxis.generate(&profile, &[2.0]);
    let part = &set.pyxis[0].2;

    let mut engine = pyxis::db::Engine::new();
    tpcc::create_schema(&mut engine);
    tpcc::load(&mut engine, scale, seed);

    let mut disp = Dispatcher::new(
        Deployment::Fixed(part),
        &mut engine,
        DispatcherConfig {
            max_sessions: clients,
            queue_cap: clients * 4,
            ..DispatcherConfig::default()
        },
    );
    let mut env = InstantEnv;
    let mut wl = tpcc::NewOrderGen::new(entry, scale, 999).with_lines(3, 8);

    println!("serving {total} TPC-C new-order transactions over {clients} client sessions…");
    let t0 = Instant::now();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut rollbacks = 0u64;
    // Closed loop: keep every client slot occupied; when the dispatcher
    // pushes back, drain events until capacity frees up.
    while completed < total {
        while submitted < total && disp.active_sessions() + disp.queue_len() < clients {
            let req = pyxis::sim::Workload::next_txn(&mut wl, submitted as usize);
            match disp.submit(0, req, submitted) {
                Admit::Started | Admit::Queued { .. } => submitted += 1,
                Admit::Rejected => break,
                Admit::Unavailable => panic!("single-engine dispatcher has no workers to lose"),
            }
        }
        match disp.poll(&mut engine, &mut env) {
            Polled::Done(d) => {
                if let Some(e) = d.error {
                    panic!("transaction {} failed: {e}", d.tag);
                }
                completed += 1;
                if d.rolled_back {
                    rollbacks += 1;
                }
            }
            Polled::Progress => {}
            Polled::Idle => {
                assert!(submitted < total, "dispatcher idle with work outstanding");
            }
        }
    }
    let dt = t0.elapsed();
    let stats = disp.stats();

    println!("\n  wall time            {:>10.2} s", dt.as_secs_f64());
    println!(
        "  throughput           {:>10.0} txn/s",
        completed as f64 / dt.as_secs_f64()
    );
    println!("  completed            {completed:>10}");
    println!("  programmed rollbacks {rollbacks:>10}");
    println!("  wait-die restarts    {:>10}", stats.deadlock_restarts);
    println!("  peak sessions        {:>10}", stats.peak_sessions);
    println!("  peak queue depth     {:>10}", stats.peak_queue);
    println!("  vm blocks executed   {:>10}", stats.vm_blocks);
    println!("  vm instrs executed   {:>10}", stats.vm_instrs);
}

/// The sharded closed loop: same workload, same total client budget,
/// spread over W shard workers (each worker's dispatcher gets
/// `clients / W` session slots).
fn serve_sharded(shards: usize, clients: usize, total: u64) {
    let scale = tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    };
    let seed = 7;
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, seed);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, seed).with_lines(3, 8);
    let profile = pyxis
        .profile(
            &mut scratch,
            (0..200).map(|i| {
                let r = pyxis::sim::Workload::next_txn(&mut gen, i);
                (r.entry, r.args)
            }),
        )
        .expect("profiling");
    let set = pyxis.generate(&profile, &[2.0]);
    let part = std::sync::Arc::new(set.pyxis.into_iter().next().expect("partition").2);

    let mut engines: Vec<pyxis::db::Engine> = (0..shards)
        .map(|_| {
            let mut e = pyxis::db::Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale, seed);

    let per_shard = (clients / shards).max(1);
    let mut srv = ShardedServer::new(
        part,
        engines,
        ShardedConfig {
            shards,
            dispatcher: DispatcherConfig {
                max_sessions: per_shard,
                queue_cap: per_shard * 4,
                ..DispatcherConfig::default()
            },
            ..ShardedConfig::default()
        },
    );
    let mut wl = tpcc::NewOrderGen::new(entry, scale, 999).with_lines(3, 8);

    println!(
        "serving {total} TPC-C new-order transactions over {clients} clients on {shards} shard worker(s)…"
    );
    let t0 = Instant::now();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut rollbacks = 0u64;
    let mut rejected = 0u64;
    // Closed loop with a standing backlog: keep several batches of work
    // buffered in the worker queues so a retirement always admits a
    // staggered replacement immediately (a drained worker would otherwise
    // admit refills in synchronized bursts, which inflates wait-die
    // conflicts).
    let depth = (clients * 4) as u64;
    while completed < total {
        while submitted < total && srv.in_flight() < depth {
            let req = pyxis::sim::Workload::next_txn(&mut wl, submitted as usize);
            // Deadline-bounded submission rides out transient
            // unavailability (a worker death mid-failover) instead of
            // crashing the serving loop; persistent backpressure falls
            // through to the drain below, and a shard that stays dead past
            // the deadline is a real outage worth dying over.
            let deadline = Instant::now() + Duration::from_millis(13);
            match srv.submit_by_deadline(req, submitted, deadline) {
                Admit::Started | Admit::Queued { .. } => submitted += 1,
                Admit::Rejected => {
                    rejected += 1;
                    break;
                }
                Admit::Unavailable => {
                    panic!("shard worker died and no replica or respawn source healed it")
                }
            }
        }
        let d = srv.recv_done().expect("work in flight");
        if let Some(e) = d.error {
            panic!("transaction {} failed: {e}", d.tag);
        }
        completed += 1;
        if d.rolled_back {
            rollbacks += 1;
        }
    }
    let dt = t0.elapsed();
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());

    println!("\n  wall time            {:>10.2} s", dt.as_secs_f64());
    println!(
        "  throughput           {:>10.0} txn/s",
        completed as f64 / dt.as_secs_f64()
    );
    println!("  completed            {completed:>10}");
    println!("  programmed rollbacks {rollbacks:>10}");
    println!("  submit backpressure  {rejected:>10}");
    println!("  multi-partition txns {:>10}", report.multi_txns);
    for (i, d) in report.dispatchers.iter().enumerate() {
        println!(
            "  shard {i}: completed {:>8}  restarts {:>6}  peak sessions {:>4}  peak queue {:>4}",
            d.completed, d.deadlock_restarts, d.peak_sessions, d.peak_queue
        );
    }
    let es = report.merged_engine_stats();
    println!(
        "  engine (merged): statements {} commits {} aborts {}",
        es.statements, es.commits, es.aborts
    );
}
