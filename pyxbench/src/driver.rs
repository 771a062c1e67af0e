//! The closed-loop load driver shared by the wall-clock workloads, and
//! the single-dispatcher replay the traced pass runs.
//!
//! Both loops are closed: a fixed window of requests is in flight, and a
//! retirement admits the next request, as app-server threads that each
//! wait for their reply would.

use crate::layers::Layers;
use crate::report::{median, ByLabel, Samples};
use crate::trace::{self, CountingEnv, EnvCounts, TimingDb, TimingSink, NONE};
use crate::Ctx;
use pyx_db::wal::{FileSink, Wal};
use pyx_db::{Engine, EngineStats};
use pyx_pyxil::CompiledPartition;
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, DispatcherStats, InstantEnv, NetClient,
    Polled, ShardedReport, ShardedServer, TxnDone, TxnRequest,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Something requests are submitted to and retirements come back from.
pub trait Front {
    /// Submit; `false` when the request was refused.
    fn submit(&mut self, req: TxnRequest, tag: u64) -> bool;
    /// The next retirement; `None` when nothing is in flight.
    fn recv(&mut self) -> Option<TxnDone>;
}

impl Front for ShardedServer {
    fn submit(&mut self, req: TxnRequest, tag: u64) -> bool {
        matches!(
            ShardedServer::submit(self, req, tag),
            Admit::Started | Admit::Queued { .. }
        )
    }

    fn recv(&mut self) -> Option<TxnDone> {
        self.recv_done()
    }
}

impl Front for NetClient {
    fn submit(&mut self, req: TxnRequest, tag: u64) -> bool {
        NetClient::submit(self, req, tag);
        true
    }

    fn recv(&mut self) -> Option<TxnDone> {
        self.recv_done()
    }
}

/// Episodes per wall-clock run. Each sets up and spawns a fresh server,
/// and the end-to-end figures are taken over episodes
/// ([`Run::figures`]): how fast a server runs varies from one spawn to
/// the next (thread placement, wait-die restart patterns), and a figure
/// over many spawns moves less than any one.
pub const EPISODES: usize = 10;

/// Each episode warms a freshly spawned server up for this long before
/// its measurement window opens.
pub const WARMUP: Duration = Duration::from_millis(250);

/// What closed-loop episodes saw, pooled over every episode run so far.
#[derive(Default)]
pub struct Run {
    /// Submit → retire latency of requests submitted after the warm-up
    /// and retired inside the measurement window.
    pub latency: Samples,
    pub by_label: ByLabel,
    /// The same samples split by routing: single-shard (`route` set)
    /// and cross-shard requests.
    pub home: Samples,
    pub remote: Samples,
    /// Every request submitted (warm-up and drain included).
    pub attempted: u64,
    /// Every retirement (warm-up and drain included).
    pub retired: u64,
    /// Refused submits plus retirements carrying an error.
    pub failed: u64,
    pub first_error: Option<String>,
    /// Wait-die restarts summed over every retirement.
    pub restarts: u64,
    /// Time spent inside `Front::submit`.
    pub submit_time: Duration,
    /// Each episode's end-to-end figures.
    pub episodes: Vec<Figures>,
    /// The process's resident-set high-water mark when the first
    /// episode's measurement window opened.
    pub rss_mb: f64,
}

/// One episode's end-to-end figures.
#[derive(Clone, Copy)]
pub struct Figures {
    pub txn_per_s: f64,
    pub mean_ms: f64,
}

impl Run {
    /// Each end-to-end figure, median over the better half of the
    /// episodes. Other tenants of a shared host only ever slow an
    /// episode down, and on a busy host they slow several episodes of a
    /// run; the better half is what the code did with the host to
    /// itself.
    pub fn figures(&self) -> Figures {
        let m = |f: fn(&Figures) -> f64, higher_is_better: bool| {
            let mut v: Vec<f64> = self.episodes.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            if higher_is_better {
                v.reverse();
            }
            median(&v[..v.len().div_ceil(2)])
        };
        Figures {
            txn_per_s: m(|f| f.txn_per_s, true),
            mean_ms: m(|f| f.mean_ms, false),
        }
    }

    /// The pooled latency percentiles and failure share, the per-label
    /// breakdown, and each episode's figures.
    pub fn print_log(&self) {
        println!(
            "latency: p50={:.3} ms p99={:.3} ms over {} samples; failed_frac={} ({} of {})",
            self.latency.pct_ms(50.0),
            self.latency.pct_ms(99.0),
            self.latency.len(),
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        self.by_label.print("label");
        let each = |f: fn(&Figures) -> f64| -> Vec<f64> {
            self.episodes
                .iter()
                .map(|e| (f(e) * 1e3).round() / 1e3)
                .collect()
        };
        println!("episodes txn/s: {:?}", each(|f| f.txn_per_s));
        println!("episodes mean ms: {:?}", each(|f| f.mean_ms));
    }

    /// Keep `window` requests in flight from `next` for [`WARMUP`] +
    /// `measure`, then drain, adding what the episode saw to `self`.
    /// `on_done` sees every retirement with its request.
    pub fn episode(
        &mut self,
        front: &mut dyn Front,
        next: &mut dyn FnMut() -> TxnRequest,
        window: usize,
        measure: Duration,
        mut on_done: impl FnMut(&TxnRequest, &TxnDone),
    ) {
        let start = Instant::now();
        let warm_end = start + WARMUP;
        let end = warm_end + measure;
        let mut in_flight: HashMap<u64, (Instant, TxnRequest)> = HashMap::new();
        let (mut tag, mut in_window) = (0u64, 0u64);
        let mut latency = Samples::default();
        loop {
            while in_flight.len() < window && Instant::now() < end {
                let req = next();
                let t = Instant::now();
                let ok = front.submit(req.clone(), tag);
                self.submit_time += t.elapsed();
                self.attempted += 1;
                if ok {
                    in_flight.insert(tag, (t, req));
                } else {
                    self.failed += 1;
                    self.first_error
                        .get_or_insert_with(|| "submit refused".into());
                }
                tag += 1;
            }
            let Some(d) = front.recv() else { break };
            let now = Instant::now();
            if now >= warm_end && self.rss_mb == 0.0 {
                self.rss_mb = crate::report::peak_rss_mb();
            }
            let (submitted, req) = in_flight
                .remove(&d.tag)
                .expect("a retirement for a submitted tag");
            if let Some(e) = &d.error {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("txn {} ({}): {e}", d.tag, d.label));
            }
            self.retired += 1;
            self.restarts += u64::from(d.restarts);
            if now >= warm_end && now <= end {
                in_window += 1;
                if submitted >= warm_end {
                    let lat = now - submitted;
                    latency.push(lat);
                    self.by_label.push(d.label, lat);
                    match req.route {
                        Some(_) => self.home.push(lat),
                        None => self.remote.push(lat),
                    }
                }
            }
            on_done(&req, &d);
        }
        assert!(
            in_flight.is_empty(),
            "front lost {} requests",
            in_flight.len()
        );
        self.episodes.push(Figures {
            txn_per_s: in_window as f64 / measure.as_secs_f64(),
            mean_ms: latency.mean_ms(),
        });
        self.latency.extend(latency);
    }
}

/// The `ShardedReport` counters of every episode, summed.
#[derive(Default)]
pub struct ShardCounts {
    pub multi_txns: u64,
    pub multi_participants: u64,
    /// Wait-die restarts per shard.
    pub restarts: Vec<u64>,
}

impl ShardCounts {
    pub fn add(&mut self, report: &ShardedReport) {
        self.multi_txns += report.multi_txns;
        self.multi_participants += report.multi_participants;
        self.restarts.resize(report.dispatchers.len(), 0);
        for (sum, d) in self.restarts.iter_mut().zip(&report.dispatchers) {
            *sum += d.deadlock_restarts;
        }
    }
}

/// What one single-dispatcher replay saw.
pub struct Replay {
    pub txns: u64,
    pub wall: Duration,
    pub failed: u64,
    pub dispatcher: DispatcherStats,
    pub engine: EngineStats,
    pub env: EnvCounts,
}

/// Replay the requests `next` yields through one `Dispatcher` over
/// `engine`, `window` in flight, syncing the log at each retirement (the
/// acknowledgement point, as shard workers do). The engine logs to the
/// file `log` (group commit `group_commit`).
///
/// Every seam sits behind its wrapper: the engine behind [`TimingDb`],
/// `InstantEnv` behind [`CountingEnv`], the log file behind
/// [`TimingSink`]. Whether spans are recorded is up to the caller: with
/// the recorder off a span costs one thread-local flag read.
pub fn replay(
    part: &CompiledPartition,
    mut engine: Engine,
    log: &Path,
    group_commit: usize,
    window: usize,
    next: &mut dyn FnMut() -> Option<TxnRequest>,
) -> Replay {
    let file = FileSink::create(log).expect("create replay log");
    engine.set_wal(Wal::new(Box::new(TimingSink { inner: file })).with_group_commit(group_commit));
    let cfg = DispatcherConfig {
        max_sessions: window,
        ..DispatcherConfig::default()
    };
    let mut disp = Dispatcher::new(
        Deployment::Fixed(part),
        &mut TimingDb { inner: &mut engine },
        cfg,
    );
    let mut env = CountingEnv::new(InstantEnv);
    let start = Instant::now();
    let (mut tag, mut in_flight, mut txns, mut failed) = (0u64, 0usize, 0u64, 0u64);
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight < window {
            let Some(req) = next() else {
                exhausted = true;
                break;
            };
            let _s = trace::span("driver.submit", tag);
            assert!(matches!(
                disp.submit(0, req, tag),
                Admit::Started | Admit::Queued { .. }
            ));
            tag += 1;
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let polled = {
            let s = trace::span("driver.poll", NONE);
            let p = disp.poll(&mut TimingDb { inner: &mut engine }, &mut env);
            if let Polled::Done(d) = &p {
                s.set_tag(d.tag);
            }
            p
        };
        match polled {
            Polled::Done(d) => {
                let _s = trace::span("driver.ack", d.tag);
                let synced = engine.wal_sync();
                in_flight -= 1;
                txns += 1;
                failed += u64::from(d.error.is_some() || synced.is_err());
            }
            Polled::Progress => {}
            Polled::Idle => panic!("dispatcher idle with {in_flight} requests in flight"),
        }
    }
    Replay {
        txns,
        wall: start.elapsed(),
        failed,
        dispatcher: disp.stats(),
        engine: engine.stats.clone(),
        env: env.counts,
    }
}

/// An untraced replay of requests from `gen` for half of `budget`, then
/// a traced replay of exactly the same requests on a fresh engine from
/// `load`. Sets the runtime, engine and log metrics from the traced
/// replay, the tracing overhead from the pair, and writes the spans out.
#[allow(clippy::too_many_arguments)]
pub fn replay_pair(
    l: &mut Layers,
    part: &CompiledPartition,
    load: fn() -> Engine,
    window: usize,
    group_commit: usize,
    budget: Duration,
    gen: &mut dyn FnMut() -> TxnRequest,
    ctx: &Ctx,
) {
    let deadline = Instant::now() + budget / 2;
    let mut reqs = Vec::new();
    let plain = replay(
        part,
        load(),
        &ctx.dir.join("plain.log"),
        group_commit,
        window,
        &mut || {
            (Instant::now() < deadline).then(|| {
                let r = gen();
                reqs.push(r.clone());
                r
            })
        },
    );
    let engine = load();
    trace::start(crate::SPAN_CAP);
    let mut recorded = reqs.into_iter();
    let traced = replay(
        part,
        engine,
        &ctx.dir.join("traced.log"),
        group_commit,
        window,
        &mut || recorded.next(),
    );
    let t = trace::finish();
    assert_eq!(
        plain.txns, traced.txns,
        "both replays retire the same stream"
    );
    assert_eq!(plain.failed + traced.failed, 0, "replays retire cleanly");
    l.set_replay(&traced, &t);
    l.overhead(&plain, &traced);
    println!(
        "replay: {} txns, {:.0} txn/s untraced, {:.0} txn/s traced, {} spans kept, {} past the cap",
        traced.txns,
        plain.txns as f64 / plain.wall.as_secs_f64(),
        traced.txns as f64 / traced.wall.as_secs_f64(),
        t.spans.len(),
        t.dropped
    );
    crate::save_spans(ctx, &t);
}
