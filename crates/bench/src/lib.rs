//! # pyx-bench — the paper's evaluation harness
//!
//! One binary per table/figure in §7 (see `src/bin/`): each regenerates
//! the corresponding series — same axes, same deployments — on the
//! virtual-time testbed. `EXPERIMENTS.md` records the serving, storage
//! and VM measurements; it holds no fig9–14 results yet.
//!
//! | binary      | what it measures                                      |
//! |-------------|-------------------------------------------------------|
//! | `fig9`      | TPC-C, 16-core DB: latency / CPU / network vs tput    |
//! | `fig10`     | TPC-C, 3-core DB: same                                |
//! | `fig11`     | TPC-C dynamic partition switching time series         |
//! | `fig12`     | TPC-W, 16-core DB: latency vs WIPS                    |
//! | `fig13`     | TPC-W, 3-core DB: latency vs WIPS                     |
//! | `fig14`     | Microbenchmark 2: completion time, 3 budgets × 3 loads|
//! | `micro1`    | §7.3: Pyxis VM overhead vs native                     |
//! | `ablations` | solver / reorder / points-to / sync design studies    |
//! | `mvcc`      | read-mostly TPC-W: 2PL reads vs MVCC snapshot reads   |
//! | `recovery`  | WAL group-commit latency + crash-recovery time        |
//! | `replica`   | log-shipping replicas: read scale-out, lag            |
//! | `failover`  | shard failover MTTR under routed TPC-C                |
//! | `multipart` | throughput vs cross-shard fraction through 2PC        |
//! | `netlat`    | socket round trips (UDS + TCP) vs the `NetModel`      |
//!
//! The Criterion benches (`benches/`) cover wall-clock costs of the
//! pipeline itself: VM dispatch overhead, solver comparison, and
//! end-to-end partitioning time.

use pyx_core::{DeploymentSet, Pyxis};
use pyx_db::Engine;
use pyx_profile::Profile;
use pyx_sim::{Deployment, SimConfig, SimResult, Workload};

pub mod scenarios;

/// Profile an application by running `n` workload-generated transactions
/// through the instrumented interpreter on a scratch database.
pub fn profile_with(
    pyxis: &Pyxis,
    scratch_db: &mut Engine,
    workload: &mut dyn Workload,
    n: usize,
) -> Profile {
    pyxis
        .profile(
            scratch_db,
            (0..n).map(|i| {
                let req = workload.next_txn(i);
                (req.entry, req.args)
            }),
        )
        .expect("profiling run")
}

/// Run one deployment point and return the result.
pub fn run_point(
    part: &pyx_pyxil::CompiledPartition,
    engine: &mut Engine,
    workload: &mut dyn Workload,
    cfg: &SimConfig,
) -> SimResult {
    pyx_sim::run_sim(Deployment::Fixed(part), engine, workload, cfg)
}

/// Print a Gnuplot-friendly data table: header then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n# {title}");
    println!("# {}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
}

/// Standard three-way comparison row (JDBC / Manual / Pyxis).
pub struct SweepPoint {
    pub x: f64,
    pub jdbc: SimResult,
    pub manual: SimResult,
    pub pyxis: SimResult,
}

/// Run a throughput sweep over the three deployments of a set.
/// `mk_engine` must build a fresh loaded database per run, `mk_workload`
/// a fresh generator (same seed ⇒ same transaction stream per deployment).
pub fn sweep(
    set: &DeploymentSet,
    xs: &[f64],
    base_cfg: &SimConfig,
    mut mk_engine: impl FnMut() -> Engine,
    mut mk_workload: impl FnMut() -> Box<dyn Workload>,
) -> Vec<SweepPoint> {
    let pyxis_part = &set.pyxis.first().expect("at least one pyxis partition").2;
    xs.iter()
        .map(|&x| {
            let cfg = SimConfig {
                target_tps: x,
                ..base_cfg.clone()
            };
            let jdbc = run_point(&set.jdbc, &mut mk_engine(), &mut *mk_workload(), &cfg);
            let manual = run_point(&set.manual, &mut mk_engine(), &mut *mk_workload(), &cfg);
            let pyxis = run_point(pyxis_part, &mut mk_engine(), &mut *mk_workload(), &cfg);
            SweepPoint {
                x,
                jdbc,
                manual,
                pyxis,
            }
        })
        .collect()
}
