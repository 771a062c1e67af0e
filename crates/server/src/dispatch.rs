//! The session dispatcher: the only session scheduler in the stack.
//! The simulator, every shard worker and read replica, and every shard
//! primary's cross-shard sessions each drive their sessions through one.
//!
//! A [`Dispatcher`] multiplexes many concurrent transactions over one
//! shared engine. Each admitted request becomes a [`pyx_runtime::Session`]
//! driven through its virtual-time events: CPU slices and wire frames are
//! priced by the [`Env`], lock waits park the session on the engine's wake
//! lists, wait-die victims are restarted after a backoff, and — for
//! dynamic deployments — a per-entry-point EWMA monitor picks which
//! partitioning each new invocation runs (§6.3).
//!
//! The public surface is a classic event loop: [`Dispatcher::submit`]
//! admits (or queues, or rejects — backpressure) a request,
//! [`Dispatcher::next_event_at`] says when the dispatcher next has work,
//! and [`Dispatcher::poll`] processes exactly one internal event,
//! reporting completed transactions as they retire.

use crate::env::Env;
use crate::workload::TxnRequest;
use pyx_db::{Database, Engine, TxnId};
use pyx_lang::{MethodId, RtError};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::monitor::{LoadMonitor, PartitionChoice};
use pyx_runtime::session::{PreparedSites, Session, VmScratch};
use pyx_runtime::Advance;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// What to deploy.
pub enum Deployment<'a> {
    Fixed(&'a CompiledPartition),
    /// Dynamic switching between a high-budget and a low-budget partition
    /// (§6.3). `monitor` is the template: each entry point gets its own
    /// clone, so different interactions can switch independently.
    Dynamic {
        high: &'a CompiledPartition,
        low: &'a CompiledPartition,
        monitor: LoadMonitor,
    },
}

/// Dispatcher tuning. Defaults suit the paper's 20-client testbed.
#[derive(Debug, Clone, Copy)]
pub struct DispatcherConfig {
    /// Maximum concurrently executing sessions (admission cap).
    pub max_sessions: usize,
    /// Maximum queued requests beyond the cap; further submits are
    /// rejected (backpressure).
    pub queue_cap: usize,
    /// Load-monitor poll period in nanoseconds (paper: 10 s). Only a
    /// dynamic deployment polls.
    pub poll_interval_ns: u64,
    /// Run statically read-only entry fragments as MVCC snapshot
    /// transactions (lock-free, restart-free). Disabled for
    /// pre-MVCC-equivalence regression tests and before/after benches.
    pub snapshot_reads: bool,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            max_sessions: 64,
            queue_cap: 65_536,
            poll_interval_ns: 10_000_000_000,
            snapshot_reads: true,
        }
    }
}

/// Virtual-time backoff before a wait-die victim restarts.
const RESTART_DELAY_NS: u64 = 1_000_000;

/// Virtual-time latency between a lock grant and the waiter resuming.
const WAKE_DELAY_NS: u64 = 10_000;

/// Outcome of [`Dispatcher::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A session started immediately.
    Started,
    /// Capacity is full; the request waits at queue depth `depth`.
    Queued { depth: usize },
    /// Queue full — backpressure. The caller should retry later.
    Rejected,
    /// The target shard's worker has died; the request cannot run
    /// until the shard heals (replica promotion or WAL respawn —
    /// `ShardedServer::submit_by_deadline` reaps and retries across
    /// that failover window) or the server is rebuilt. Only the
    /// sharded tier emits this — a single dispatcher has no workers
    /// to lose.
    Unavailable,
}

/// One retired transaction.
#[derive(Debug, Clone)]
pub struct TxnDone {
    /// Caller-chosen tag (the simulator uses the client index).
    pub tag: u64,
    pub entry: MethodId,
    pub label: &'static str,
    /// When the request was submitted (admission or queue entry).
    pub submitted_ns: u64,
    /// When its session started executing.
    pub started_ns: u64,
    /// When it retired.
    pub finished_ns: u64,
    /// Ran on the low-budget (JDBC-like) partition.
    pub low_budget: bool,
    pub rolled_back: bool,
    /// Entry fragment was statically read-only (ran — or, with snapshot
    /// reads disabled, would have run — as a snapshot transaction).
    pub read_only: bool,
    /// Wait-die restarts this transaction went through.
    pub restarts: u32,
    /// Shards that executed statements for this transaction: 0 for
    /// single-shard (and single-engine) work, ≥1 for cross-shard
    /// transactions run through their home's 2PC coordinator.
    pub participants: u32,
    /// The entry point's return value (differential tests compare it
    /// across deployments).
    pub result: Option<pyx_lang::Value>,
    /// Fatal session error, if the transaction failed (`None` = success).
    pub error: Option<String>,
}

impl TxnDone {
    /// A result that carries only `error`: no timing, result, restarts
    /// or participants. Used for transactions that never ran or whose
    /// outcome is unknown (a dead worker, an abandoned session, a lost
    /// connection).
    pub(crate) fn failed(tag: u64, entry: MethodId, label: &'static str, error: String) -> TxnDone {
        TxnDone {
            tag,
            entry,
            label,
            submitted_ns: 0,
            started_ns: 0,
            finished_ns: 0,
            low_budget: false,
            rolled_back: false,
            read_only: false,
            restarts: 0,
            participants: 0,
            result: None,
            error: Some(error),
        }
    }
}

/// One partition-choice flip, for the switch timeline.
#[derive(Debug, Clone, Copy)]
pub struct SwitchRecord {
    pub t_ns: u64,
    pub entry: MethodId,
    pub to: PartitionChoice,
    /// Smoothed load level at the moment of the flip.
    pub level_pct: f64,
}

/// Aggregate dispatcher counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatcherStats {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadlock_restarts: u64,
    /// Wait-die restarts of *read-only* entry fragments. Zero whenever
    /// snapshot reads are enabled — snapshot transactions cannot die.
    pub read_only_restarts: u64,
    /// Retired transactions whose entry fragment was read-only.
    pub read_only_completed: u64,
    /// Peak concurrently executing sessions.
    pub peak_sessions: usize,
    /// Peak admission-queue depth.
    pub peak_queue: usize,
    /// Execution blocks entered across all retired sessions.
    pub vm_blocks: u64,
    /// VM instructions executed across all retired sessions.
    pub vm_instrs: u64,
}

/// One-stop progress/health report: the dispatcher's own counters plus
/// the engine's (locks, aborts, snapshot reads, version GC). The engine
/// is an argument because the dispatcher never owns it — the same engine
/// is passed to every [`Dispatcher::poll`].
#[derive(Debug, Clone)]
pub struct DispatchReport {
    pub dispatcher: DispatcherStats,
    pub engine: pyx_db::EngineStats,
}

/// Result of one [`Dispatcher::poll`] call.
#[derive(Debug)]
pub enum Polled {
    /// A transaction retired.
    Done(TxnDone),
    /// An internal event was processed.
    Progress,
    /// No event was due (check [`Dispatcher::next_event_at`]): any live
    /// session waits on a lock until a wake readies it.
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Ready { sid: usize },
    Poll,
}

struct Live<'a> {
    sess: Session<'a>,
    tag: u64,
    submitted_ns: u64,
    started_ns: u64,
    req: TxnRequest,
    low_budget: bool,
    restarts: u32,
}

struct Queued {
    tag: u64,
    submitted_ns: u64,
    req: TxnRequest,
    age: Option<u64>,
}

/// The multi-session scheduler. See module docs.
pub struct Dispatcher<'a> {
    cfg: DispatcherConfig,
    dep: Deployment<'a>,
    /// Prepared-plan tables, one per deployable partition, shared by all
    /// sessions running that partition.
    sites_primary: PreparedSites,
    sites_low: Option<PreparedSites>,
    /// Per-entry-point monitors (dynamic deployments), cloned from the
    /// template on first sight of each entry point. A sorted `Vec` (few
    /// entry points) keeps iteration order — and thus the switch log —
    /// bit-deterministic across runs and platforms.
    monitors: Vec<(MethodId, LoadMonitor)>,
    sessions: Vec<Option<Live<'a>>>,
    free_slots: Vec<usize>,
    active: usize,
    queue: VecDeque<Queued>,
    blocked: HashMap<TxnId, usize>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, Ev)>>,
    seq: u64,
    /// Latest event time processed — the "now" for wake-ups injected from
    /// outside the event loop ([`Dispatcher::wake_txns`]).
    clock: u64,
    poll_scheduled: bool,
    /// Requests whose session could not be built (unknown entry, wrong
    /// argument count), retired by the next [`Dispatcher::poll`] with
    /// the session's error.
    refused: VecDeque<TxnDone>,
    switch_log: Vec<SwitchRecord>,
    stats: DispatcherStats,
    /// Recycled VM frame storage: retired sessions return their slabs
    /// here and new sessions draw from it, so steady-state frame setup
    /// allocates nothing.
    scratch_pool: Vec<VmScratch>,
}

impl<'a> Dispatcher<'a> {
    /// Build a dispatcher; prepares every db-call site of every deployable
    /// partition once so sessions share the resolved plans.
    pub fn new(
        dep: Deployment<'a>,
        engine: &mut dyn Database,
        cfg: DispatcherConfig,
    ) -> Dispatcher<'a> {
        let (sites_primary, sites_low) = match &dep {
            Deployment::Fixed(p) => (Session::prepare_sites(&p.bp, engine), None),
            Deployment::Dynamic { high, low, .. } => (
                Session::prepare_sites(&high.bp, engine),
                Some(Session::prepare_sites(&low.bp, engine)),
            ),
        };
        Dispatcher {
            cfg,
            dep,
            sites_primary,
            sites_low,
            monitors: Vec::new(),
            sessions: Vec::new(),
            free_slots: Vec::new(),
            active: 0,
            queue: VecDeque::new(),
            blocked: HashMap::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            clock: 0,
            poll_scheduled: false,
            refused: VecDeque::new(),
            switch_log: Vec::new(),
            stats: DispatcherStats::default(),
            scratch_pool: Vec::new(),
        }
    }

    pub fn config(&self) -> &DispatcherConfig {
        &self.cfg
    }

    pub fn stats(&self) -> DispatcherStats {
        self.stats
    }

    /// Combined dispatcher + engine counters (see [`DispatchReport`]).
    pub fn report(&self, engine: &Engine) -> DispatchReport {
        DispatchReport {
            dispatcher: self.stats,
            engine: engine.stats.clone(),
        }
    }

    /// Partition-switch timeline (dynamic deployments).
    pub fn switch_log(&self) -> &[SwitchRecord] {
        &self.switch_log
    }

    /// Currently executing sessions.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Requests waiting for a session slot.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Earliest pending internal event, if any.
    pub fn next_event_at(&self) -> Option<u64> {
        if !self.refused.is_empty() {
            return Some(self.clock);
        }
        self.heap.peek().map(|r| r.0 .0)
    }

    fn push(&mut self, t: u64, ev: Ev) {
        self.heap.push(std::cmp::Reverse((t, self.seq, ev)));
        self.seq += 1;
    }

    /// Arm the next load-monitor poll. Only a dynamic deployment has a
    /// monitor to feed; a lock wait ends on a wake, never on a poll.
    fn ensure_polling(&mut self, now: u64) {
        if !self.poll_scheduled && matches!(self.dep, Deployment::Dynamic { .. }) {
            self.poll_scheduled = true;
            self.push(now + self.cfg.poll_interval_ns, Ev::Poll);
        }
    }

    /// Pick the partition (and prepared-plan table) for `entry`'s next
    /// invocation.
    fn choose(&mut self, entry: MethodId) -> (&'a CompiledPartition, PreparedSites, bool) {
        match &self.dep {
            Deployment::Fixed(p) => (p, self.sites_primary.clone(), false),
            Deployment::Dynamic { high, low, monitor } => {
                let idx = match self.monitors.binary_search_by_key(&entry, |(e, _)| *e) {
                    Ok(i) => i,
                    Err(i) => {
                        self.monitors.insert(i, (entry, monitor.clone()));
                        i
                    }
                };
                match self.monitors[idx].1.choose() {
                    PartitionChoice::HighBudget => (high, self.sites_primary.clone(), false),
                    PartitionChoice::LowBudget => (
                        low,
                        self.sites_low.clone().expect("dynamic deployment"),
                        true,
                    ),
                }
            }
        }
    }

    /// Submit a request. Starts a session if capacity allows, otherwise
    /// queues it; a full queue rejects (backpressure). Plans were prepared
    /// at dispatcher construction, so admission never touches the engine.
    /// A request no session can be built for (unknown entry, wrong
    /// argument count) retires at the next poll with the session's error.
    pub fn submit(&mut self, now: u64, req: TxnRequest, tag: u64) -> Admit {
        self.submit_aged(now, req, tag, None)
    }

    /// [`Dispatcher::submit`] with the wait-die age every transaction of
    /// the request begins under fixed at admission, as a cross-shard
    /// home assigns it.
    pub(crate) fn submit_aged(
        &mut self,
        now: u64,
        req: TxnRequest,
        tag: u64,
        age: Option<u64>,
    ) -> Admit {
        if self.active >= self.cfg.max_sessions {
            if self.queue.len() >= self.cfg.queue_cap {
                self.stats.rejected += 1;
                return Admit::Rejected;
            }
            self.queue.push_back(Queued {
                tag,
                submitted_ns: now,
                req,
                age,
            });
            self.stats.submitted += 1;
            self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
            return Admit::Queued {
                depth: self.queue.len(),
            };
        }
        self.stats.submitted += 1;
        self.start_session(now, now, req, tag, age);
        Admit::Started
    }

    /// A session for `req` on the partition [`Dispatcher::choose`] picks,
    /// running in `scratch`'s frame slab under wait-die age `age`.
    /// Returns the session and whether it runs the low-budget partition,
    /// or the session's error for a request its entry cannot run.
    fn new_session(
        &mut self,
        req: &TxnRequest,
        scratch: VmScratch,
        age: Option<u64>,
    ) -> Result<(Session<'a>, bool), RtError> {
        let (part, sites, low_budget) = self.choose(req.entry);
        let mut sess = Session::with_prepared(part, req.entry, &req.args, sites, scratch)?;
        if !self.cfg.snapshot_reads {
            sess.set_snapshot_reads(false);
        }
        sess.set_txn_age(age);
        Ok((sess, low_budget))
    }

    fn start_session(
        &mut self,
        now: u64,
        submitted_ns: u64,
        req: TxnRequest,
        tag: u64,
        age: Option<u64>,
    ) {
        let scratch = self.scratch_pool.pop().unwrap_or_default();
        let (sess, low_budget) = match self.new_session(&req, scratch, age) {
            Ok(built) => built,
            Err(e) => {
                // Requests come from outside (sockets): one that names an
                // unknown entry or passes the wrong arguments must retire
                // once, with the session's error, and leave the thread
                // serving.
                self.stats.completed += 1;
                self.refused.push_back(TxnDone {
                    submitted_ns,
                    started_ns: now,
                    finished_ns: now,
                    ..TxnDone::failed(tag, req.entry, req.label, e.to_string())
                });
                return;
            }
        };
        let live = Live {
            sess,
            tag,
            submitted_ns,
            started_ns: now,
            req,
            low_budget,
            restarts: 0,
        };
        let sid = match self.free_slots.pop() {
            Some(s) => {
                self.sessions[s] = Some(live);
                s
            }
            None => {
                self.sessions.push(Some(live));
                self.sessions.len() - 1
            }
        };
        self.active += 1;
        self.stats.peak_sessions = self.stats.peak_sessions.max(self.active);
        self.push(now, Ev::Ready { sid });
        self.ensure_polling(now);
    }

    /// Process the next internal event. Call whenever
    /// [`Dispatcher::next_event_at`] is due by the caller's clock.
    pub fn poll(&mut self, engine: &mut dyn Database, env: &mut dyn Env) -> Polled {
        if let Some(d) = self.refused.pop_front() {
            return Polled::Done(d);
        }
        let Some(std::cmp::Reverse((now, _, ev))) = self.heap.pop() else {
            return Polled::Idle;
        };
        self.clock = self.clock.max(now);
        match ev {
            Ev::Poll => {
                self.poll_scheduled = false;
                let sample = env.db_load_pct(now);
                if let Deployment::Dynamic { monitor, .. } = &mut self.dep {
                    // Feed the template too, so entry points first seen
                    // later inherit the current smoothed level.
                    monitor.observe(sample);
                    for (entry, m) in self.monitors.iter_mut() {
                        let before = m.choose();
                        let level_pct = m.observe(sample);
                        let after = m.choose();
                        if before != after {
                            self.switch_log.push(SwitchRecord {
                                t_ns: now,
                                entry: *entry,
                                to: after,
                                level_pct,
                            });
                        }
                    }
                }
                if self.active > 0 || !self.queue.is_empty() {
                    self.ensure_polling(now);
                }
                Polled::Progress
            }
            Ev::Ready { sid } => self.step_session(now, sid, engine, env),
        }
    }

    /// Wake sessions blocked on something outside this dispatcher: local
    /// sessions whose locks a cross-shard branch's commit or abort just
    /// released, or cross-shard sessions whose remote answers came in.
    /// Wake-ups normally flow out of the local session that released the
    /// lock (`last_woken`); a 2PC branch releases locks outside any local
    /// session, so the shard worker feeds that wake list in here. These
    /// two are the only wakes: a blocked session waits for one, and
    /// nothing retries it meanwhile.
    pub fn wake_txns(&mut self, woken: &[TxnId]) {
        for txn in woken {
            if let Some(sid) = self.blocked.remove(txn) {
                let t = self.clock + WAKE_DELAY_NS;
                self.push(t, Ev::Ready { sid });
            }
        }
    }

    fn step_session(
        &mut self,
        now: u64,
        sid: usize,
        engine: &mut dyn Database,
        env: &mut dyn Env,
    ) -> Polled {
        let Some(live) = self.sessions[sid].as_mut() else {
            return Polled::Progress;
        };
        let step = live.sess.advance(engine);
        // Harvest wake-ups from any commit/abort in this step.
        let woken = live.sess.last_woken.clone();
        for txn in woken {
            if let Some(wsid) = self.blocked.remove(&txn) {
                self.push(now + WAKE_DELAY_NS, Ev::Ready { sid: wsid });
            }
        }
        let live = self.sessions[sid].as_mut().expect("live session");
        match step {
            Advance::Cpu { host, cost } => {
                let done = env.cpu(now, host, cost);
                self.push(done, Ev::Ready { sid });
                Polled::Progress
            }
            Advance::Net { from, to, bytes } => {
                let done = env.net(now, from, to, bytes);
                self.push(done, Ev::Ready { sid });
                Polled::Progress
            }
            Advance::DbOp {
                issued_from,
                db_cpu,
                req_bytes,
                resp_bytes,
            } => {
                let ready = env.db_op(now, issued_from, db_cpu, req_bytes, resp_bytes);
                self.push(ready, Ev::Ready { sid });
                Polled::Progress
            }
            Advance::Blocked { txn } => {
                self.blocked.insert(txn, sid);
                Polled::Progress
            }
            Advance::Deadlocked => {
                // Wait-die victim: restart the whole transaction on a
                // freshly chosen partition after a backoff.
                self.stats.deadlock_restarts += 1;
                if live.sess.is_read_only() {
                    // Only possible with snapshot reads disabled; snapshot
                    // transactions never conflict, so never die.
                    self.stats.read_only_restarts += 1;
                }
                let req = live.req.clone();
                // The replacement inherits the dead incarnation's wait-die
                // age: the retry re-begins as an *older* transaction, so a
                // contended request converges instead of dying repeatedly.
                let age = live.sess.txn_age();
                // The dead session's frame slab seeds the restarted one.
                let recycled = live.sess.take_scratch();
                let (fresh, low_budget) = match self.new_session(&req, recycled, age) {
                    Ok(built) => built,
                    Err(e) => return self.retire(now, sid, Some(e.to_string())),
                };
                let live = self.sessions[sid].as_mut().expect("live session");
                live.sess = fresh;
                live.low_budget = low_budget;
                live.restarts += 1;
                self.push(now + RESTART_DELAY_NS, Ev::Ready { sid });
                Polled::Progress
            }
            Advance::Finished => self.retire(now, sid, None),
            Advance::Error(e) => self.retire(now, sid, Some(e.to_string())),
        }
    }

    fn retire(&mut self, now: u64, sid: usize, error: Option<String>) -> Polled {
        let mut live = self.sessions[sid].take().expect("live session");
        self.free_slots.push(sid);
        self.active -= 1;
        self.stats.completed += 1;
        if live.sess.is_read_only() {
            self.stats.read_only_completed += 1;
        }
        self.stats.vm_blocks += live.sess.stats.blocks_executed;
        self.stats.vm_instrs += live.sess.stats.instrs_executed;
        self.scratch_pool.push(live.sess.take_scratch());
        let done = TxnDone {
            tag: live.tag,
            entry: live.req.entry,
            label: live.req.label,
            submitted_ns: live.submitted_ns,
            started_ns: live.started_ns,
            finished_ns: now,
            low_budget: live.low_budget,
            rolled_back: live.sess.rolled_back,
            read_only: live.sess.is_read_only(),
            restarts: live.restarts,
            participants: 0,
            result: live.sess.result.clone(),
            error,
        };
        // A freed slot admits the oldest queued request immediately (and
        // the next, if that one is refused and never takes the slot).
        while self.active < self.cfg.max_sessions {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.start_session(now, q.submitted_ns, q.req, q.tag, q.age);
        }
        Polled::Done(done)
    }

    /// Drive the dispatcher until it is fully idle, returning every
    /// retired transaction. Convenience for tests and in-process serving;
    /// virtual-time drivers interleave [`Dispatcher::poll`] with their own
    /// event queues instead.
    pub fn run_until_idle(&mut self, engine: &mut dyn Database, env: &mut dyn Env) -> Vec<TxnDone> {
        let mut done = Vec::new();
        loop {
            match self.poll(engine, env) {
                Polled::Done(d) => done.push(d),
                Polled::Progress => {}
                Polled::Idle => break,
            }
        }
        done
    }
}
