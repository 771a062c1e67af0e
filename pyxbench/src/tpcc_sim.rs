//! `tpcc-sim`: TPC-C new-order on the paper's testbed model (16-core DB
//! server, 1 ms round trip, 20 clients; `pyx_bench::scenarios::TpccEnv`)
//! in virtual time through `pyx_sim::run_sim`. Each round simulates the
//! Pyxis partition at a load below its saturation and at one above it,
//! plus JDBC at the low load for the paper's shape check. A run is a
//! fixed number of rounds, each with its own seed-derived stream, so the
//! same seed and `--seconds` give the same metrics on any host; metrics
//! are medians over rounds.
//!
//! The clock here is virtual, so the shared end-to-end names read:
//! `txn_per_s` the Pyxis throughput under overload, `mean_ms` the Pyxis
//! mean latency at the low load.

use crate::driver::{self, Figures};
use crate::layers::Layers;
use crate::pipeline::{self, StageTimes};
use crate::report::{median, ratio, Outcome, Provenance};
use crate::Ctx;
use pyx_bench::scenarios::TpccEnv;
use pyx_core::DeploymentSet;
use pyx_db::Engine;
use pyx_server::Workload;
use pyx_sim::SimResult;
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load below the Pyxis partition's saturation (txn/s).
pub const LOW_TPS: f64 = 400.0;
/// Offered load above it.
pub const HIGH_TPS: f64 = 3000.0;
pub const DB_CORES: usize = 16;
const SETUPS: usize = 9;
const WINDOW: usize = 4;
const GROUP_COMMIT: usize = 16;
/// The profiling set-up `TpccEnv::build` uses.
const ENV_SEED: u64 = 0xC0DE;
const PROFILE_TXNS: usize = 500;
const BUDGET: f64 = 2.0;
/// One round per this many seconds of `--seconds`. A round takes about
/// 3.5 s of wall time on a 2-vCPU x86 host, so a run takes about as long
/// as `--seconds`.
const SECONDS_PER_ROUND: u64 = 4;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 10,
        ..tpcc::TpccScale::default()
    }
}

fn engine() -> Engine {
    let mut e = Engine::new();
    tpcc::create_schema(&mut e);
    tpcc::load(&mut e, scale(), ENV_SEED);
    e
}

/// The `TpccEnv` the figure binaries use, built through the timed
/// pipeline.
fn set_up() -> (TpccEnv, pyx_partition::Placement, StageTimes, Duration) {
    let t0 = Instant::now();
    let built = pipeline::build(
        tpcc::SRC,
        engine,
        |p| {
            let entry = p.entry("NewOrder", "run").expect("entry");
            let mut g = tpcc::NewOrderGen::new(entry, scale(), ENV_SEED).with_lines(5, 15);
            (0..PROFILE_TXNS).map(|i| g.next_txn(i)).collect()
        },
        BUDGET,
    );
    let mut times = built.times;
    let pyxis = built.pyxis;
    let (jdbc, manual) = pipeline::timed(&mut times.deploy, || {
        (pyxis.deploy_jdbc(), pyxis.deploy_manual())
    });
    let part = Arc::try_unwrap(built.part).expect("sole owner of the partition");
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let env = TpccEnv {
        pyxis,
        set: DeploymentSet {
            jdbc,
            manual,
            pyxis: vec![(BUDGET, built.placement.clone(), part)],
        },
        entry,
        scale: scale(),
        seed: ENV_SEED,
    };
    // The serving database every simulation starts from.
    drop(pipeline::timed(&mut times.load, || env.fresh_engine()));
    (env, built.placement, times, t0.elapsed())
}

struct Round {
    low: SimResult,
    high: SimResult,
    jdbc: SimResult,
}

fn sim(env: &TpccEnv, part: &pyx_pyxil::CompiledPartition, tps: f64, seed: u64) -> SimResult {
    let cfg = pyx_sim::SimConfig {
        target_tps: tps,
        ..env.cfg(DB_CORES)
    };
    pyx_bench::run_point(
        part,
        &mut env.fresh_engine(),
        &mut env.fresh_workload(seed),
        &cfg,
    )
}

fn round(env: &TpccEnv, seed: u64) -> Round {
    let part = &env.set.pyxis[0].2;
    Round {
        low: sim(env, part, LOW_TPS, seed),
        high: sim(env, part, HIGH_TPS, seed),
        jdbc: sim(env, &env.set.jdbc, LOW_TPS, seed),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setup_secs = Vec::new();
    let mut stages = Vec::new();
    let (env, placement) = loop {
        let (env, placement, times, took) = set_up();
        setup_secs.push(took.as_secs_f64());
        stages.push(times);
        if setup_secs.len() == SETUPS {
            break (env, placement);
        }
    };

    let full = (ctx.seconds.as_secs() / SECONDS_PER_ROUND).max(1) as usize;
    // The traced pass leaves time for the replays.
    let n = if ctx.trace {
        (full * 2 / 5).max(1)
    } else {
        full
    };
    let rounds: Vec<Round> = (0..n)
        .map(|i| round(&env, crate::sub_seed(ctx.seed, i)))
        .collect();
    let peak_rss_mb = crate::report::peak_rss_mb();
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let attempted: u64 = rounds
        .iter()
        .map(|r| r.low.completed + r.high.completed + r.jdbc.completed)
        .sum();
    // The paper's shape: at a load both deployments sustain, Pyxis is
    // faster than JDBC, on every round.
    let checked = match rounds
        .iter()
        .find(|r| r.low.avg_latency_ms >= r.jdbc.avg_latency_ms)
    {
        Some(r) => Err(format!(
            "Pyxis latency {:.3} ms is not below JDBC's {:.3} ms at {LOW_TPS} txn/s",
            r.low.avg_latency_ms, r.jdbc.avg_latency_ms
        )),
        None => Ok(()),
    };

    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}: pyxis {:.1} ms mean / {:.1} ms p95 at {LOW_TPS} txn/s, {:.0} txn/s at {HIGH_TPS} offered; jdbc {:.1} ms",
            r.low.avg_latency_ms, r.low.p95_latency_ms, r.high.throughput_tps, r.jdbc.avg_latency_ms
        );
    }
    println!("failed_frac=0 (0 of {attempted})");
    let mut prov = Provenance::default();
    prov.put("rounds", rounds.len());
    prov.put("db_cores", DB_CORES);
    prov.put("clients", env.cfg(DB_CORES).clients);
    prov.put("low_tps", LOW_TPS);
    prov.put("high_tps", HIGH_TPS);
    prov.put("latency_samples_per_round", rounds[0].low.completed);
    prov.put("setups", SETUPS);
    prov.put("partition", env.pyxis.describe_placement(&placement));

    let metrics = if ctx.trace {
        let mut l = Layers::default();
        l.set_setup(&StageTimes::median_ms(&stages), &placement);
        l.set("sim.p95_ms", med(|r| r.low.p95_latency_ms));
        l.set("sim.db_cpu_pct", med(|r| r.low.db_cpu_pct));
        l.set(
            "sim.db_kb_per_txn",
            med(|r| ratio(r.low.db_recv_kbs + r.low.db_sent_kbs, r.low.throughput_tps)),
        );
        l.set("sim.jdbc_latency_ms", med(|r| r.jdbc.avg_latency_ms));
        let mut gen = env.fresh_workload(ctx.seed);
        driver::replay_pair(
            &mut l,
            &env.set.pyxis[0].2,
            engine,
            WINDOW,
            GROUP_COMMIT,
            ctx.seconds.mul_f64(0.4),
            &mut || gen.next_txn(0),
            ctx,
        );
        l.into_metrics()
    } else {
        let f = Figures {
            txn_per_s: med(|r| r.high.throughput_tps),
            mean_ms: med(|r| r.low.avg_latency_ms),
        };
        crate::end_to_end(f, median(&setup_secs), peak_rss_mb)
    };
    prov.print();
    // The simulator panics on any session error, so every simulated
    // transaction that reaches here succeeded.
    crate::outcome(checked, attempted, 0, metrics)
}
