//! `tpcc-sharded`: the TPC-C remote-warehouse mix (70% new-order, 30%
//! payment, 10% of transactions touching a second warehouse, ~10%
//! programmed rollbacks) on 8 warehouses, served in-process by a
//! 2-shard `ShardedServer` running the Pyxis partition. Each shard logs
//! to its own file (group commit 16) and acknowledges a commit only
//! after the worker's fsync.
//!
//! A run is [`driver::EPISODES`] episodes, each against a freshly set-up
//! server with its own seed-derived stream and its own correctness check.

use crate::driver::{self, Run, ShardCounts, EPISODES};
use crate::layers::Layers;
use crate::pipeline::{self, Built, StageTimes};
use crate::report::{median, Outcome, Provenance};
use crate::Ctx;
use pyx_db::wal::FileSink;
use pyx_db::{Engine, Scalar};
use pyx_server::{
    DispatcherConfig, ShardedConfig, ShardedReport, ShardedServer, TxnDone, TxnRequest, Workload,
};
use pyx_workloads::tpcc;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Requests in flight. Wider windows collapse into wait-die storms on
/// this mix, so the window stays small.
pub const WINDOW: usize = 2;
pub const GROUP_COMMIT: usize = 16;
const LOAD_SEED: u64 = 7;
const PROFILE_SEED: u64 = 0xC0DE;
const PROFILE_TXNS: usize = 300;
const BUDGET: f64 = 2.0;
/// `d_next_o_id` of every district after loading.
const FIRST_ORDER_ID: i64 = 3001;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        ..tpcc::TpccScale::default()
    }
}

fn mix(pyxis: &pyx_core::Pyxis, seed: u64) -> tpcc::RemoteMixGen {
    let order = pyxis
        .entry("RemoteOrder", "remoteOrder")
        .expect("order entry");
    let pay = pyxis.entry("RemoteOrder", "pay").expect("payment entry");
    tpcc::RemoteMixGen::new(order, pay, scale(), seed)
}

fn single_engine() -> Engine {
    let mut e = Engine::new();
    tpcc::create_schema(&mut e);
    tpcc::load(&mut e, scale(), LOAD_SEED);
    e
}

fn shard_engines() -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..SHARDS)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale(), LOAD_SEED);
    engines
}

fn log_path(dir: &Path, shard: usize) -> std::path::PathBuf {
    dir.join(format!("tpcc-shard-{shard}.log"))
}

struct Served {
    built: Built,
    srv: ShardedServer,
}

/// Compile, analyze, profile, partition, deploy, load the shards,
/// attach their logs and spawn the server.
fn set_up(dir: &Path) -> (Served, Duration) {
    let t0 = Instant::now();
    let mut built = pipeline::build(
        tpcc::REMOTE_SRC,
        single_engine,
        |p| {
            let mut g = mix(p, PROFILE_SEED);
            (0..PROFILE_TXNS).map(|i| g.next_txn(i)).collect()
        },
        BUDGET,
    );
    let mut engines = pipeline::timed(&mut built.times.load, shard_engines);
    ShardedServer::attach_shard_wals(&mut engines, GROUP_COMMIT, |i| {
        Box::new(FileSink::create(log_path(dir, i)).expect("create shard log"))
    });
    let srv = ShardedServer::new(Arc::clone(&built.part), engines, config());
    (Served { built, srv }, t0.elapsed())
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

/// Committed new-orders per (warehouse, district), from the driver's
/// view of the stream.
#[derive(Default)]
struct Expect {
    new_orders: BTreeMap<(i64, i64), i64>,
    payments: u64,
    rollbacks: u64,
}

impl Expect {
    fn note(&mut self, req: &TxnRequest, d: &TxnDone) {
        if d.error.is_some() {
            return;
        }
        if d.rolled_back {
            self.rollbacks += 1;
        } else if d.label.starts_with("new-order") {
            let key = match (&req.args[0], &req.args[1]) {
                (pyx_runtime::ArgVal::Int(w), pyx_runtime::ArgVal::Int(d)) => (*w, *d),
                other => panic!("new-order arguments {other:?}"),
            };
            *self.new_orders.entry(key).or_insert(0) += 1;
        } else {
            self.payments += 1;
        }
    }
}

fn int(s: &Scalar) -> i64 {
    s.as_int().expect("integer column")
}

fn count(e: &mut Engine, table: &str) -> i64 {
    int(&e
        .exec_auto(&format!("SELECT COUNT(*) FROM {table}"), &[])
        .expect("count rows")
        .rows[0][0])
}

/// A cheap digest of a shard's state: every district row plus row
/// counts and column sums of the tables the mix writes.
fn digest(e: &mut Engine) -> Vec<String> {
    let mut out: Vec<String> = e
        .dump_table("district")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for t in ["orders", "new_order", "order_line"] {
        out.push(format!("{t}={}", count(e, t)));
    }
    for q in [
        "SELECT SUM(s_quantity) FROM stock",
        "SELECT SUM(c_balance) FROM customer",
    ] {
        out.push(format!(
            "{:?}",
            e.exec_auto(q, &[]).expect("sum").rows[0][0]
        ));
    }
    out
}

/// The correctness checks: each district's order counter advanced by
/// exactly its committed new-orders, order rows match, and each shard's
/// state rebuilds from its log alone.
fn check(report: &mut ShardedReport, expect: &Expect, dir: &Path) -> Result<(), String> {
    let mut orders = 0;
    let mut districts = 0;
    for e in &report.engines {
        for row in e.dump_table("district") {
            let (w, d, next) = (int(&row[0]), int(&row[1]), int(&row[3]));
            let want = expect.new_orders.get(&(w, d)).copied().unwrap_or(0);
            if next - FIRST_ORDER_ID != want {
                return Err(format!(
                    "district ({w},{d}): d_next_o_id advanced {} but {want} new-orders committed",
                    next - FIRST_ORDER_ID
                ));
            }
            districts += 1;
        }
    }
    for e in report.engines.iter_mut() {
        orders += count(e, "orders");
    }
    let committed: i64 = expect.new_orders.values().sum();
    if districts != scale().warehouses * scale().districts_per_wh {
        return Err(format!("{districts} district rows across the shards"));
    }
    if orders != committed {
        return Err(format!(
            "{orders} order rows for {committed} committed new-orders"
        ));
    }
    let mut fresh = shard_engines();
    for (i, (recovered, live)) in fresh.iter_mut().zip(report.engines.iter_mut()).enumerate() {
        let log = FileSink::read_log(log_path(dir, i)).map_err(|e| e.to_string())?;
        recovered
            .recover(&log)
            .map_err(|e| format!("shard {i} log does not recover: {e}"))?;
        if digest(recovered) != digest(live) {
            return Err(format!(
                "shard {i} rebuilt from its log differs from the live shard"
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Outcome {
    // The traced pass spends part of its time on the measured episodes
    // (for the shard counters) and the rest on the two replays.
    let measure = ctx.seconds.mul_f64(if ctx.trace { 0.4 } else { 1.0 }) / EPISODES as u32;
    let mut run = Run::default();
    let mut counts = ShardCounts::default();
    let (mut setup_secs, mut stages) = (Vec::new(), Vec::new());
    let (mut rollbacks, mut payments) = (0, 0);
    let mut checked = Ok(());
    let mut last = None;
    for ep in 0..EPISODES {
        let dir = ctx.dir.join(format!("episode-{ep}"));
        std::fs::create_dir_all(&dir).expect("create episode directory");
        let (Served { built, mut srv }, took) = set_up(&dir);
        setup_secs.push(took.as_secs_f64());
        stages.push(built.times);
        let mut gen = mix(&built.pyxis, crate::sub_seed(ctx.seed, ep));
        let mut expect = Expect::default();
        run.episode(
            &mut srv,
            &mut || gen.next_txn(0),
            WINDOW,
            measure,
            |req, d| expect.note(req, d),
        );
        let (rest, mut report) = srv.shutdown();
        assert!(rest.is_empty(), "closed loop drained the server");
        counts.add(&report);
        if checked.is_ok() {
            checked = match &run.first_error {
                None => check(&mut report, &expect, &dir),
                Some(e) => Err(e.clone()),
            };
        }
        rollbacks += expect.rollbacks;
        payments += expect.payments;
        let _ = std::fs::remove_dir_all(&dir);
        last = Some(built);
    }
    let built = last.expect("at least one episode");

    println!(
        "tpcc-sharded: {} retired ({rollbacks} rollbacks, {payments} payments), {} cross-shard",
        run.retired, counts.multi_txns
    );
    run.print_log();
    let mut prov = Provenance::default();
    prov.put("window", WINDOW);
    prov.put("shards", SHARDS);
    prov.put("coordinators", config().coordinators);
    prov.put("warehouses", scale().warehouses);
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
        let mut replay_gen = mix(&built.pyxis, ctx.seed);
        driver::replay_pair(
            &mut l,
            &built.part,
            single_engine,
            WINDOW,
            GROUP_COMMIT,
            ctx.seconds.mul_f64(0.5),
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
