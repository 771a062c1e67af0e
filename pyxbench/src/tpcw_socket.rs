//! `tpcw-socket`: the read-mostly TPC-W mix (browsing reads routed to
//! one shard, 5% admin writes on hot items as cross-shard transactions)
//! served by `NetServer` over a Unix-domain socket to one pipelined
//! `NetClient` connection, in front of a 2-shard `ShardedServer` running
//! the Pyxis partition. Each shard logs to its own file (group commit
//! 16, ack after fsync), as on `tpcc-sharded`.
//!
//! A run is [`driver::EPISODES`] episodes, each against a freshly set-up
//! server and connection with its own seed-derived stream and its own
//! correctness check.

use crate::driver::{self, Run, ShardCounts, EPISODES};
use crate::layers::Layers;
use crate::pipeline::{self, Built, StageTimes};
use crate::report::{median, Outcome, Provenance, Samples};
use crate::Ctx;
use pyx_db::wal::FileSink;
use pyx_db::Engine;
use pyx_server::{
    DispatcherConfig, Listener, NetAddr, NetClient, NetClientCfg, NetServer, NetServerCfg,
    NetServerHandle, ShardedConfig, ShardedServer, SocketEnv, Workload,
};
use pyx_workloads::tpcw;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
pub const WINDOW: usize = 4;
pub const GROUP_COMMIT: usize = 16;
/// Percent of requests that are admin writes.
pub const WRITE_PCT: u32 = 5;
const LOAD_SEED: u64 = 7;
const PROFILE_SEED: u64 = 0xFEED;
const PROFILE_TXNS: usize = 400;
const BUDGET: f64 = 2.0;
/// Item rows each admin update bumps (`adminUpdate` in the source).
const ITEMS_PER_ADMIN: i64 = 4;
const RTT_PROBES: usize = 2000;

// The browsing interactions walk a fixed 10 000-item catalogue, so the
// scale stays at the default.
fn scale() -> tpcw::TpcwScale {
    tpcw::TpcwScale::default()
}

fn mix(pyxis: &pyx_core::Pyxis, seed: u64) -> tpcw::ReadMostlyMix {
    let entries = tpcw::ReadMostlyEntries::find(&pyxis.prog);
    tpcw::ReadMostlyMix::new(entries, scale(), WRITE_PCT, seed).routed()
}

/// One engine holding the whole catalogue. Every TPC-W table is
/// replicated, so each shard holds the same rows.
fn engine() -> Engine {
    let mut e = Engine::new();
    tpcw::create_schema(&mut e);
    tpcw::load(&mut e, scale(), LOAD_SEED);
    e
}

fn shard_engines(dir: &Path, tag: &str) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..SHARDS).map(|_| engine()).collect();
    ShardedServer::attach_shard_wals(&mut engines, GROUP_COMMIT, |i| {
        Box::new(
            FileSink::create(dir.join(format!("tpcw-{tag}-{i}.log"))).expect("create shard log"),
        )
    });
    engines
}

fn config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        dispatcher: DispatcherConfig {
            max_sessions: WINDOW,
            ..DispatcherConfig::default()
        },
        ..ShardedConfig::default()
    }
}

struct Served {
    built: Built,
    handle: NetServerHandle,
    client: NetClient,
}

/// Compile, analyze, profile, partition, deploy, load the shards,
/// spawn the socket server and connect the client.
fn set_up(dir: &Path) -> (Served, Duration) {
    let t0 = Instant::now();
    let mut built = pipeline::build(
        tpcw::SRC_READ_MOSTLY,
        engine,
        |p| {
            let mut g = mix(p, PROFILE_SEED);
            (0..PROFILE_TXNS).map(|i| g.next_txn(i)).collect()
        },
        BUDGET,
    );
    let engines = pipeline::timed(&mut built.times.load, || shard_engines(dir, "socket"));
    let addr = NetAddr::parse(&format!("uds:{}", dir.join("tpcw.sock").display()))
        .expect("socket address");
    let listener = Listener::bind(&addr).expect("bind socket");
    let part = Arc::clone(&built.part);
    let handle = NetServer::serve(
        listener,
        move || ShardedServer::new(part, engines, config()),
        NetServerCfg::default(),
    );
    let client = NetClient::connect(
        handle.addr(),
        NetClientCfg {
            client_id: 1,
            ..NetClientCfg::default()
        },
    )
    .expect("client connects");
    (
        Served {
            built,
            handle,
            client,
        },
        t0.elapsed(),
    )
}

fn total_sold(e: &mut Engine) -> i64 {
    e.exec_auto("SELECT SUM(i_total_sold) FROM item", &[])
        .expect("sum")
        .rows[0][0]
        .as_int()
        .expect("integer sum")
}

/// Per-label request counts.
type Counts = BTreeMap<&'static str, u64>;

/// The correctness checks (after an error-free episode): every generated
/// request retired, label for label, and each shard's copy of the
/// catalogue took every admin write.
fn check(generated: &Counts, retired: &Counts, shards: &mut [Engine]) -> Result<(), String> {
    if generated != retired {
        return Err(format!("generated {generated:?} but retired {retired:?}"));
    }
    let admins = retired.get("admin-update").copied().unwrap_or(0) as i64;
    let base = total_sold(&mut engine());
    for (i, e) in shards.iter_mut().enumerate() {
        let sold = total_sold(e);
        if sold != base + ITEMS_PER_ADMIN * admins {
            return Err(format!(
                "shard {i}: i_total_sold rose by {} for {admins} admin updates",
                sold - base
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let measure = ctx.seconds.mul_f64(if ctx.trace { 0.3 } else { 1.0 }) / EPISODES as u32;
    let mut run = Run::default();
    let mut counts = ShardCounts::default();
    let (mut setup_secs, mut stages) = (Vec::new(), Vec::new());
    let mut checked = Ok(());
    let mut rtt = 0.0;
    let mut last = None;
    for ep in 0..EPISODES {
        let dir = ctx.dir.join(format!("episode-{ep}"));
        std::fs::create_dir_all(&dir).expect("create episode directory");
        let (
            Served {
                built,
                handle,
                mut client,
            },
            took,
        ) = set_up(&dir);
        setup_secs.push(took.as_secs_f64());
        stages.push(built.times);
        let mut gen = mix(&built.pyxis, crate::sub_seed(ctx.seed, ep));
        let mut generated = Counts::new();
        let mut retired = Counts::new();
        run.episode(
            &mut client,
            &mut || {
                let r = gen.next_txn(0);
                *generated.entry(r.label).or_insert(0) += 1;
                r
            },
            WINDOW,
            measure,
            |_, d| {
                if d.error.is_none() {
                    *retired.entry(d.label).or_insert(0) += 1;
                }
            },
        );
        if ctx.trace && ep + 1 == EPISODES {
            rtt = rtt_us(handle.addr());
        }
        client.close();
        let mut report = handle.shutdown();
        counts.add(&report);
        if checked.is_ok() {
            checked = match &run.first_error {
                None => check(&generated, &retired, &mut report.engines),
                Some(e) => Err(e.clone()),
            };
        }
        let _ = std::fs::remove_dir_all(&dir);
        last = Some(built);
    }
    let built = last.expect("at least one episode");

    println!(
        "tpcw-socket: {} retired over the socket, {} cross-shard",
        run.retired, counts.multi_txns
    );
    run.print_log();
    let mut prov = Provenance::default();
    prov.put("window", WINDOW);
    prov.put("shards", SHARDS);
    prov.put("connections", 1);
    prov.put("transport", "uds");
    prov.put("write_pct", WRITE_PCT);
    prov.put(
        "flush_policy",
        format!("FileSink per shard, group commit {GROUP_COMMIT}, ack after fsync"),
    );
    prov.put("episodes", EPISODES);
    prov.put("latency_samples", run.latency.len());
    prov.put(
        "partition",
        built.pyxis.describe_placement(&built.placement),
    );

    let metrics = if ctx.trace {
        let mut l = Layers::default();
        l.set_setup(&StageTimes::median_ms(&stages), &built.placement);
        l.set_sharded(&run, &counts);
        let twin = in_process(ctx, &built, ctx.seconds.mul_f64(0.2));
        let (socket_p50, inproc_p50) = (run.latency.pct_ms(50.0), twin.pct_ms(50.0));
        prov.put("inproc_latency_samples", twin.len());
        l.set("net.inproc_p50_ms", inproc_p50);
        l.set("net.tax_p50_ms", socket_p50 - inproc_p50);
        l.set(
            "net.submit_us",
            run.submit_time.as_secs_f64() * 1e6 / run.attempted.max(1) as f64,
        );
        l.set("net.rtt_us", rtt);
        let mut replay_gen = mix(&built.pyxis, ctx.seed);
        driver::replay_pair(
            &mut l,
            &built.part,
            engine,
            WINDOW,
            GROUP_COMMIT,
            ctx.seconds.mul_f64(0.4),
            &mut || replay_gen.next_txn(0),
            ctx,
        );
        l.into_metrics()
    } else {
        crate::end_to_end(run.figures(), median(&setup_secs), run.rss_mb)
    };
    prov.print();
    crate::outcome(checked, run.attempted, run.failed, metrics)
}

/// The same stream sent straight into an in-process `ShardedServer`:
/// its submit → retire latencies.
fn in_process(ctx: &Ctx, built: &Built, measure: Duration) -> Samples {
    let mut srv = ShardedServer::new(
        Arc::clone(&built.part),
        shard_engines(&ctx.dir, "inproc"),
        config(),
    );
    let mut gen = mix(&built.pyxis, ctx.seed);
    let mut run = Run::default();
    run.episode(
        &mut srv,
        &mut || gen.next_txn(0),
        WINDOW,
        measure,
        |_, _| {},
    );
    assert_eq!(run.failed, 0, "in-process twin retires cleanly");
    srv.shutdown();
    run.latency
}

/// Median socket round trip (64-byte frames each way) in microseconds,
/// measured by `SocketEnv` against the serving socket.
fn rtt_us(addr: &NetAddr) -> f64 {
    let mut env = SocketEnv::connect(addr, Duration::from_secs(2)).expect("echo connection");
    let probes: Vec<f64> = (0..RTT_PROBES)
        .map(|_| env.round_trip_ns(64, 64) as f64 / 1e3)
        .collect();
    median(&probes)
}
