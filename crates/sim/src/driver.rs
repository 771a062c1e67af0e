//! The discrete-event simulation driver — a thin *pricing shell* around
//! the [`pyx_server::Dispatcher`].
//!
//! Emulates the paper's testbed: N closed-loop clients issuing
//! transactions at a target rate against a two-host deployment. All
//! session scheduling — admission, lock-wait servicing, wait-die
//! restarts, monitor-driven partition switching — lives in `pyx-server`;
//! this driver owns only what a testbed owns: the workload pump (paced
//! client issues), the hardware model ([`CpuPool`]s + [`pyx_runtime::NetModel`]
//! behind the dispatcher's [`Env`]), scheduled external-load changes, and
//! metrics aggregation. Every event timestamp is an integer nanosecond;
//! `SimConfig` keeps seconds-as-`f64` only at the API edge, so runs are
//! bit-deterministic across platforms.

use crate::cpu::CpuPool;
use pyx_db::Engine;
use pyx_lang::MethodId;
use pyx_partition::Side;
use pyx_runtime::monitor::PartitionChoice;
use pyx_runtime::NetModel;
use pyx_server::{Dispatcher, DispatcherConfig, Env, Polled, Workload};
use std::collections::BinaryHeap;

pub use pyx_server::Deployment;

/// Simulation parameters. Defaults mirror the paper's testbed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub duration_s: f64,
    pub warmup_s: f64,
    /// Offered load: transactions per second across all clients.
    pub target_tps: f64,
    /// Concurrent client sessions (paper: 20).
    pub clients: usize,
    pub app_cores: usize,
    pub db_cores: usize,
    /// Virtual instructions per second per core.
    pub app_ips: u64,
    pub db_ips: u64,
    pub net: NetModel,
    /// Scheduled external-load changes on the DB server.
    pub load_events: Vec<LoadEvent>,
    /// Seconds between load-monitor polls (paper: 10 s).
    pub poll_s: f64,
    /// Timeline bucket width (Fig. 11 uses 30 s).
    pub timeline_bucket_s: f64,
    /// Stop issuing after this many completed transactions (single-shot
    /// measurements such as Fig. 14 use `Some(1)`).
    pub max_txns: Option<u64>,
    /// Run read-only entry fragments as MVCC snapshot transactions
    /// (lock-free, restart-free). Disable for pre-MVCC before/after
    /// comparisons.
    pub snapshot_reads: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_s: 30.0,
            warmup_s: 3.0,
            target_tps: 100.0,
            clients: 20,
            app_cores: 8,
            db_cores: 16,
            app_ips: 1_000_000_000,
            db_ips: 1_000_000_000,
            net: NetModel::default(),
            load_events: Vec::new(),
            poll_s: 10.0,
            timeline_bucket_s: 30.0,
            max_txns: None,
            snapshot_reads: true,
        }
    }
}

/// An external-load change at `t_s`: the DB server's usable cores drop to
/// `db_cores` and the load monitor additionally observes
/// `background_pct`% busy CPUs (the external tenant's work keeps showing
/// up in CPU polls — that is what the paper's monitor reacts to).
#[derive(Debug, Clone, Copy)]
pub struct LoadEvent {
    pub t_s: f64,
    pub db_cores: usize,
    pub background_pct: f64,
    /// Execution slowdown for work on the DB server (1.0 = full speed).
    pub speed_factor: f64,
}

/// One timeline bucket (Fig. 11's 30-second points).
#[derive(Debug, Clone)]
pub struct TimePoint {
    pub t_s: f64,
    pub avg_latency_ms: f64,
    pub completed: u64,
    /// Fraction of transactions run on the low-budget (JDBC-like)
    /// partition in this bucket.
    pub low_budget_frac: f64,
}

/// One partition-choice flip (per entry point) during the run.
#[derive(Debug, Clone, Copy)]
pub struct SwitchPoint {
    pub t_s: f64,
    pub entry: MethodId,
    /// True when the monitor switched this entry point to the low-budget
    /// (JDBC-like) partition.
    pub to_low: bool,
    /// Smoothed load level at the flip.
    pub level_pct: f64,
}

/// Aggregated results over the measurement window (post-warmup).
#[derive(Debug, Clone)]
pub struct SimResult {
    pub offered_tps: f64,
    pub completed: u64,
    pub throughput_tps: f64,
    pub avg_latency_ms: f64,
    pub p95_latency_ms: f64,
    pub db_cpu_pct: f64,
    pub app_cpu_pct: f64,
    /// Network traffic seen at the DB server, KB/s.
    pub db_recv_kbs: f64,
    pub db_sent_kbs: f64,
    pub deadlock_restarts: u64,
    /// Wait-die restarts of read-only entry fragments (zero when snapshot
    /// reads are enabled).
    pub read_only_restarts: u64,
    /// Completed transactions whose entry fragment was read-only.
    pub read_only_completed: u64,
    pub rollbacks: u64,
    /// Engine-level counters at run end (snapshot reads, version GC,
    /// aborts, lock conflicts).
    pub engine_stats: pyx_db::EngineStats,
    pub timeline: Vec<TimePoint>,
    /// Partition-switch timeline (dynamic deployments; empty otherwise).
    pub switches: Vec<SwitchPoint>,
}

/// Driver-owned events: workload pacing and testbed state changes only.
/// Session scheduling events live inside the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Issue { client: usize, paced: bool },
    WarmupDone,
    LoadChange { idx: usize },
}

/// The priced environment: finite-core CPU pools and a latency/bandwidth
/// network between them, plus the external tenant's visible load.
struct SimEnv {
    app: CpuPool,
    db: CpuPool,
    net: NetModel,
    background_pct: f64,
    warmup_ns: u64,
    duration_ns: u64,
    db_recv: u64,
    db_sent: u64,
}

impl SimEnv {
    fn in_window(&self, now: u64) -> bool {
        now >= self.warmup_ns && now < self.duration_ns
    }
}

impl Env for SimEnv {
    fn cpu(&mut self, now: u64, host: Side, cost: u64) -> u64 {
        match host {
            Side::App => self.app.schedule(now, cost),
            Side::Db => self.db.schedule(now, cost),
        }
    }

    fn net(&mut self, now: u64, from: Side, _to: Side, bytes: u64) -> u64 {
        if self.in_window(now) {
            match from {
                Side::App => self.db_recv += bytes,
                Side::Db => self.db_sent += bytes,
            }
        }
        now + self.net.one_way_ns(bytes)
    }

    fn db_op(
        &mut self,
        now: u64,
        issued_from: Side,
        db_cpu: u64,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> u64 {
        if issued_from == Side::App {
            let arrive = now + self.net.one_way_ns(req_bytes);
            let served = self.db.schedule(arrive, db_cpu);
            if self.in_window(now) {
                self.db_recv += req_bytes;
                self.db_sent += resp_bytes;
            }
            served + self.net.one_way_ns(resp_bytes)
        } else {
            self.db.schedule(now, db_cpu)
        }
    }

    fn db_load_pct(&mut self, now: u64) -> f64 {
        (self.background_pct + self.db.instant_load_pct(now)).min(100.0)
    }
}

/// Run one simulation.
pub fn run_sim<'a>(
    dep: Deployment<'a>,
    engine: &mut Engine,
    workload: &mut dyn Workload,
    cfg: &SimConfig,
) -> SimResult {
    let duration_ns = (cfg.duration_s * 1e9) as u64;
    let warmup_ns = (cfg.warmup_s * 1e9) as u64;
    let poll_ns = ((cfg.poll_s * 1e9) as u64).max(1);
    let bucket_ns = ((cfg.timeline_bucket_s * 1e9) as u64).max(1);

    let mut env = SimEnv {
        app: CpuPool::new(cfg.app_cores, cfg.app_ips),
        db: CpuPool::new(cfg.db_cores, cfg.db_ips),
        net: cfg.net,
        background_pct: 0.0,
        warmup_ns,
        duration_ns,
        db_recv: 0,
        db_sent: 0,
    };
    let mut disp = Dispatcher::new(
        dep,
        engine,
        DispatcherConfig {
            max_sessions: cfg.clients,
            queue_cap: usize::MAX,
            poll_interval_ns: poll_ns,
            snapshot_reads: cfg.snapshot_reads,
        },
    );

    // Driver event queue: min-heap on (time, seq).
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<std::cmp::Reverse<(u64, u64, Ev)>>, t: u64, ev: Ev| {
        heap.push(std::cmp::Reverse((t, seq, ev)));
        seq += 1;
    };

    // Client pacing.
    let interval_ns = ((cfg.clients as f64 / cfg.target_tps) * 1e9) as u64;
    for c in 0..cfg.clients {
        let first = (c as u64 * interval_ns) / cfg.clients as u64;
        push(
            &mut heap,
            first,
            Ev::Issue {
                client: c,
                paced: true,
            },
        );
    }
    push(&mut heap, warmup_ns, Ev::WarmupDone);
    for (i, le) in cfg.load_events.iter().enumerate() {
        push(&mut heap, (le.t_s * 1e9) as u64, Ev::LoadChange { idx: i });
    }

    // Closed-loop client model: each client has at most one transaction
    // in flight; paced issues that land while it is busy are deferred and
    // drained one-per-completion. (The dispatcher's admission queue is
    // global capacity; this is the per-client think-time loop of the
    // paper's testbed clients.)
    let mut client_busy: Vec<bool> = vec![false; cfg.clients];
    let mut client_pending: Vec<u64> = vec![0; cfg.clients];

    // Metrics.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut issued_total = 0u64;
    let mut rollbacks = 0u64;
    let n_buckets = (duration_ns / bucket_ns + 1) as usize;
    let mut bucket_lat = vec![0.0f64; n_buckets];
    let mut bucket_n = vec![0u64; n_buckets];
    let mut bucket_low = vec![0u64; n_buckets];

    let mut guard = 0u64;
    loop {
        guard += 1;
        assert!(guard < 500_000_000, "simulation runaway");

        // Merge the two event streams; the dispatcher wins ties so a
        // just-submitted session steps before the next paced issue.
        let t_drv = heap.peek().map(|r| r.0 .0);
        let t_disp = disp.next_event_at();
        let drive_dispatcher = match (t_drv, t_disp) {
            (None, None) => break,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(b)) => b <= a,
        };

        if drive_dispatcher {
            match disp.poll(engine, &mut env) {
                Polled::Done(d) => {
                    if let Some(e) = d.error {
                        panic!("session failed at t={}s: {e}", d.finished_ns as f64 / 1e9);
                    }
                    let now = d.finished_ns;
                    let client = d.tag as usize;
                    client_busy[client] = false;
                    if client_pending[client] > 0 && now < duration_ns {
                        client_pending[client] -= 1;
                        push(
                            &mut heap,
                            now,
                            Ev::Issue {
                                client,
                                paced: false,
                            },
                        );
                    }
                    // Service latency (session start → retire), matching
                    // the paper's per-transaction measurements; queueing
                    // delay shows up as lost throughput instead.
                    let lat_ms = (now - d.started_ns) as f64 / 1e6;
                    if now >= warmup_ns && now < duration_ns {
                        completed += 1;
                        latencies_ms.push(lat_ms);
                        if d.rolled_back {
                            rollbacks += 1;
                        }
                    }
                    let b = ((now.min(duration_ns.saturating_sub(1))) / bucket_ns) as usize;
                    if b < n_buckets {
                        bucket_lat[b] += lat_ms;
                        bucket_n[b] += 1;
                        if d.low_budget {
                            bucket_low[b] += 1;
                        }
                    }
                }
                Polled::Progress | Polled::Idle => {}
            }
            continue;
        }

        let Some(std::cmp::Reverse((now, _, ev))) = heap.pop() else {
            break;
        };
        match ev {
            Ev::Issue { client, paced } => {
                let quota_full = cfg.max_txns.map(|m| issued_total >= m).unwrap_or(false);
                // Only the paced stream re-schedules itself; backlog-drain
                // issues must not spawn extra pacing chains.
                if paced && now < duration_ns && !quota_full {
                    push(
                        &mut heap,
                        now + interval_ns,
                        Ev::Issue {
                            client,
                            paced: true,
                        },
                    );
                }
                if quota_full {
                    continue;
                }
                if client_busy[client] {
                    client_pending[client] += 1;
                    continue;
                }
                client_busy[client] = true;
                issued_total += 1;
                let req = workload.next_txn(client);
                disp.submit(now, req, client as u64);
            }
            Ev::WarmupDone => {
                env.app.reset_window();
                env.db.reset_window();
            }
            Ev::LoadChange { idx } => {
                let le = cfg.load_events[idx];
                env.db.set_cores(le.db_cores, now);
                env.db.set_speed(le.speed_factor);
                env.background_pct = le.background_pct;
            }
        }
    }

    let window_ns = duration_ns.saturating_sub(warmup_ns).max(1);
    let window_s = window_ns as f64 / 1e9;
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let avg = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };
    let p95 = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms[((latencies_ms.len() - 1) as f64 * 0.95) as usize]
    };

    let timeline = (0..n_buckets)
        .filter(|&b| bucket_n[b] > 0)
        .map(|b| TimePoint {
            t_s: (b as f64 + 0.5) * cfg.timeline_bucket_s,
            avg_latency_ms: bucket_lat[b] / bucket_n[b] as f64,
            completed: bucket_n[b],
            low_budget_frac: bucket_low[b] as f64 / bucket_n[b] as f64,
        })
        .collect();
    let switches = disp
        .switch_log()
        .iter()
        .map(|s| SwitchPoint {
            t_s: s.t_ns as f64 / 1e9,
            entry: s.entry,
            to_low: s.to == PartitionChoice::LowBudget,
            level_pct: s.level_pct,
        })
        .collect();

    SimResult {
        offered_tps: cfg.target_tps,
        completed,
        throughput_tps: completed as f64 / window_s,
        avg_latency_ms: avg,
        p95_latency_ms: p95,
        db_cpu_pct: env.db.window_utilization_pct(window_ns),
        app_cpu_pct: env.app.window_utilization_pct(window_ns),
        db_recv_kbs: env.db_recv as f64 / 1000.0 / window_s,
        db_sent_kbs: env.db_sent as f64 / 1000.0 / window_s,
        deadlock_restarts: disp.stats().deadlock_restarts,
        read_only_restarts: disp.stats().read_only_restarts,
        read_only_completed: disp.stats().read_only_completed,
        rollbacks,
        engine_stats: engine.stats.clone(),
        timeline,
        switches,
    }
}
