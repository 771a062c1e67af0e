//! The per-layer metrics of the traced pass.
//!
//! Every workload reports every name in [`LAYERS`]. A layer a workload
//! does not exercise reads 0 (the socket layer on `tpcc-sharded`, the
//! simulator on the wall-clock workloads, and so on); `README.md` maps
//! each metric to the end-to-end metric and workload it should move.

use crate::driver::{Replay, Run, ShardCounts};
use crate::report::{ratio, Metrics};
use crate::trace::Trace;

/// Every per-layer metric: name, unit, and whether higher is better.
pub const LAYERS: &[(&str, &str, bool)] = &[
    // Pipeline stages (set-up), medians over the run's set-ups.
    ("lang.compile_ms", "ms", false),
    ("analysis.analyze_ms", "ms", false),
    ("profile.profile_ms", "ms", false),
    ("partition.graph_ms", "ms", false),
    ("partition.solve_ms", "ms", false),
    ("pyxil.deploy_ms", "ms", false),
    ("workloads.load_ms", "ms", false),
    // Partition quality.
    ("partition.db_stmt_frac", "ratio", true),
    ("partition.predicted_cost", "us", false),
    ("runtime.transfers_per_txn", "count", false),
    ("runtime.transfer_bytes_per_txn", "bytes", false),
    ("runtime.db_roundtrips_per_txn", "count", false),
    // VM.
    ("runtime.vm_self_us_per_txn", "us", false),
    ("runtime.vm_instrs_per_txn", "count", false),
    // Engine.
    ("db.stmt_us", "us", false),
    ("db.stmts_per_txn", "count", false),
    ("db.rows_examined_per_stmt", "count", false),
    ("db.commit_us", "us", false),
    ("db.would_blocks_per_txn", "count", false),
    ("db.snapshot_read_frac", "ratio", true),
    // Write-ahead log.
    ("wal.sync_us", "us", false),
    ("wal.commits_per_sync", "count", true),
    ("wal.bytes_per_txn", "bytes", false),
    ("wal.sync_share", "ratio", false),
    // Sharded server: 2PC and wait-die.
    ("shard.restarts_per_txn", "count", false),
    ("shard.restart_skew", "ratio", false),
    ("shard.multi_frac", "ratio", false),
    ("shard.participants_per_multi", "count", false),
    ("shard.home_p50_ms", "ms", false),
    ("shard.remote_p50_ms", "ms", false),
    ("shard.remote_p99_ms", "ms", false),
    // Socket transport.
    ("net.inproc_p50_ms", "ms", false),
    ("net.tax_p50_ms", "ms", false),
    ("net.submit_us", "us", false),
    ("net.rtt_us", "us", false),
    // Simulated testbed.
    ("sim.p95_ms", "ms", false),
    ("sim.db_cpu_pct", "%", false),
    ("sim.db_kb_per_txn", "kB", false),
    ("sim.jdbc_latency_ms", "ms", false),
    // The traced pass itself.
    ("trace.overhead_frac", "ratio", false),
];

/// Per-layer values, every name present (0 until set).
pub struct Layers(Vec<f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(vec![0.0; LAYERS.len()])
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYERS
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit, _), v) in LAYERS.iter().zip(self.0) {
            m.put(name, v, unit);
        }
        m
    }

    /// Runtime, engine and log metrics from a traced replay.
    pub fn set_replay(&mut self, r: &Replay, t: &Trace) {
        let txns = r.txns as f64;
        let e = &r.engine;
        let per_txn = |x: u64| ratio(x as f64, txns);
        let mean_us = |name: &str| {
            let a = t.agg(name);
            ratio(a.total_ns as f64, a.count as f64) / 1e3
        };
        self.set("runtime.transfers_per_txn", per_txn(r.env.transfers));
        self.set(
            "runtime.transfer_bytes_per_txn",
            per_txn(r.env.transfer_bytes),
        );
        self.set("runtime.db_roundtrips_per_txn", per_txn(r.env.app_db_ops));
        self.set(
            "runtime.vm_self_us_per_txn",
            per_txn(t.agg("driver.poll").self_ns) / 1e3,
        );
        self.set(
            "runtime.vm_instrs_per_txn",
            ratio(r.dispatcher.vm_instrs as f64, r.dispatcher.completed as f64),
        );
        self.set("db.stmt_us", mean_us("db.exec"));
        self.set("db.stmts_per_txn", per_txn(e.statements));
        self.set(
            "db.rows_examined_per_stmt",
            ratio(e.rows_examined as f64, e.statements as f64),
        );
        self.set("db.commit_us", mean_us("db.commit"));
        self.set("db.would_blocks_per_txn", per_txn(e.would_blocks));
        self.set(
            "db.snapshot_read_frac",
            ratio(e.snapshot_reads as f64, e.statements as f64),
        );
        let sync = t.agg("wal.sync");
        self.set("wal.sync_us", mean_us("wal.sync"));
        self.set(
            "wal.commits_per_sync",
            ratio(e.wal_records as f64, sync.count as f64),
        );
        self.set("wal.bytes_per_txn", per_txn(t.counter("wal.bytes")));
        self.set(
            "wal.sync_share",
            ratio(sync.total_ns as f64, r.wall.as_nanos() as f64),
        );
    }

    /// The traced replay's throughput cost against the untraced one.
    pub fn overhead(&mut self, plain: &Replay, traced: &Replay) {
        let tps = |r: &Replay| ratio(r.txns as f64, r.wall.as_secs_f64());
        self.set("trace.overhead_frac", 1.0 - ratio(tps(traced), tps(plain)));
    }

    /// 2PC and wait-die metrics from the measured sharded episodes.
    pub fn set_sharded(&mut self, run: &Run, counts: &ShardCounts) {
        let retired = run.retired as f64;
        let (max, min) = (
            counts.restarts.iter().copied().max().unwrap_or(0),
            counts.restarts.iter().copied().min().unwrap_or(0),
        );
        self.set(
            "shard.restarts_per_txn",
            ratio(run.restarts as f64, retired),
        );
        // +1 on both sides keeps the ratio finite when a shard never
        // restarted.
        self.set("shard.restart_skew", (max + 1) as f64 / (min + 1) as f64);
        self.set("shard.multi_frac", ratio(counts.multi_txns as f64, retired));
        self.set(
            "shard.participants_per_multi",
            ratio(counts.multi_participants as f64, counts.multi_txns as f64),
        );
        self.set("shard.home_p50_ms", run.home.pct_ms(50.0));
        self.set("shard.remote_p50_ms", run.remote.pct_ms(50.0));
        self.set("shard.remote_p99_ms", run.remote.pct_ms(99.0));
    }

    /// Pipeline stage times and partition quality.
    pub fn set_setup(
        &mut self,
        stages: &[(&'static str, f64)],
        placement: &pyx_partition::Placement,
    ) {
        for (name, v) in stages {
            self.set(name, *v);
        }
        self.set("partition.db_stmt_frac", placement.db_fraction());
        self.set("partition.predicted_cost", placement.predicted_cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the per-layer metrics emitted
    /// here, with the same units and directions.
    #[test]
    fn benchmark_json_declares_every_layer() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, higher) in LAYERS {
            let better = if *higher { "higher" } else { "lower" };
            let decl =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"better\"").count();
        let e2e = crate::END_TO_END.len();
        assert_eq!(declared, LAYERS.len() + e2e, "no undeclared extras");
        for (name, unit, higher) in crate::END_TO_END {
            let better = if *higher { "higher" } else { "lower" };
            let decl =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
    }
}
