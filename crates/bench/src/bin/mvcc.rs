//! MVCC scenario — read-mostly TPC-W: browsing mix plus ~10% admin
//! writes over a hot item range, JDBC-style deployment, before/after the
//! engine's snapshot reads.
//!
//! With snapshot reads **off** (the pre-MVCC engine), browsing
//! interactions take shared row locks, collide with the admin writer's
//! exclusive locks on hot items, and wait-die restart; with them **on**,
//! every read-only interaction runs as a lock-free snapshot transaction
//! and can never restart — the dispatcher keeps more sessions doing
//! useful work at the same offered load.

use pyx_bench::scenarios::TpcwReadMostlyEnv;
use pyx_bench::{print_table, run_point};
use pyx_sim::SimConfig;

fn main() {
    if let Some(a) = std::env::args().nth(1) {
        panic!("unexpected argument `{a}` (usage: mvcc)");
    }
    let env = TpcwReadMostlyEnv::build(2.0, 10);
    println!(
        "# read-mostly TPC-W: {}% admin writes over hot items, 40 clients, 3-core DB",
        env.write_pct
    );

    // A small DB server (the paper's 3-core loaded regime) makes lock
    // hold times — and thus restart pain — visible.
    let wips = [200.0, 400.0, 600.0, 800.0];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &w in &wips {
        let run = |snapshot_reads: bool| {
            let cfg = SimConfig {
                target_tps: w,
                ..env.cfg(3, snapshot_reads)
            };
            run_point(
                &env.set.jdbc,
                &mut env.fresh_engine(),
                &mut env.fresh_workload(4242),
                &cfg,
            )
        };
        let before = run(false);
        let after = run(true);
        rows.push(vec![
            format!("{w:.0}"),
            format!("{}", before.deadlock_restarts),
            format!("{}", after.deadlock_restarts),
            format!("{}", before.read_only_restarts),
            format!("{}", after.read_only_restarts),
            format!("{:.1}", before.throughput_tps),
            format!("{:.1}", after.throughput_tps),
            format!("{:.2}", before.avg_latency_ms),
            format!("{:.2}", after.avg_latency_ms),
        ]);
        println!(
            "# wips {w:>4.0}: snapshot stats after-run: {} snapshot reads, {} versions created, {} gced",
            after.engine_stats.snapshot_reads,
            after.engine_stats.versions_created,
            after.engine_stats.versions_gced,
        );
    }
    print_table(
        "Read-mostly TPC-W (JDBC deployment): pre-MVCC (2PL reads) vs MVCC snapshot reads",
        &[
            "wips",
            "restarts_2pl",
            "restarts_mvcc",
            "ro_restarts_2pl",
            "ro_restarts_mvcc",
            "tps_2pl",
            "tps_mvcc",
            "lat_ms_2pl",
            "lat_ms_mvcc",
        ],
        &rows,
    );
}
