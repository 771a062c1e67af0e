//! Shard-per-core serving: a multi-threaded partitioned dispatcher.
//!
//! [`ShardedServer`] splits the database into W engine shards (H-Store
//! style) and gives each shard to a dedicated OS thread running its own
//! single-threaded [`crate::Dispatcher`] — its own sessions, compiled
//! partition, prepared plans, and admission queue. Partitionable requests
//! ([`TxnRequest::route`]` == Some(k)`) go to the inbox of shard
//! `shard_of(k, W)` and execute with zero cross-shard coordination, so
//! throughput scales with cores on a partitionable mix. Each shard
//! thread reads one inbox — submits, other shards' remote ops and their
//! answers, feed wakes and control all arrive there — and the server
//! bounds what it admits to each thread (see [`ShardedConfig`]).
//!
//! # Threading model
//!
//! * **What crosses threads:** loaded [`Engine`] shards (everything an
//!   engine owns is `Send` — rows, undo logs, plans), the shared
//!   [`CompiledPartition`] (immutable, behind an `Arc`), [`TxnRequest`]s,
//!   retired [`TxnDone`]s, and the cross-shard remote-op protocol
//!   messages (SQL text, parameter vectors, `Arc`-backed result rows).
//!   Compile-time assertions in `pyx-db` / `pyx-pyxil` keep these types
//!   `Send`.
//! * **What stays thread-local:** everything a running transaction
//!   touches — `Session`s, their `Rc`-shared prepared-site tables,
//!   session heaps, the dispatcher's scratch pools. No runtime `Rc` ever
//!   crosses a thread boundary. A cross-shard session lives on its home
//!   shard's thread from admission to retirement; only its statements'
//!   text and results travel.
//!
//! # Cross-shard transactions: two-phase commit
//!
//! A cross-shard request (`route == None`) goes to a *home*: a live
//! primary chosen round-robin. Each primary thread runs a second
//! [`crate::Dispatcher`] for the cross-shard sessions it homes (the
//! `coord` module, the only code that decides a cross-shard outcome),
//! over `Home`, a [`pyx_db::Database`] façade that borrows the thread's own
//! engine, so a cross-shard session is scheduled, restarted and retired
//! exactly as a local one is. Shards a transaction never touches are
//! never involved, so cross-shard transactions with disjoint shard sets
//! overlap with each other *and* with single-shard traffic. The
//! protocol, per transaction:
//!
//! * **Participant selection** — each statement's shard route
//!   ([`pyx_db::StmtRoute`]) names the shard(s) owning its rows. The home
//!   computes it on its own engine (`Engine::prepared_route` for a
//!   constant site, `Engine::route` for dynamic SQL): every shard shares
//!   the schema. The first statement to reach shard *s* opens a
//!   *branch* there: a plain engine transaction on *s*, begun under the
//!   transaction's global wait-die age. The participant set is exactly
//!   the set of open branches, the home's own included.
//! * **Statement execution** — a statement for the home shard, and any
//!   replicated read, runs on the home engine with no hop. A statement
//!   for another shard goes to that shard's inbox by its SQL text; the
//!   shard runs it between its own dispatcher events, so single-shard
//!   sessions never stall, and sends the answer back to the home's inbox.
//!   A scatter or replicated write goes to every shard at once and the
//!   answers merge in shard order. While an answer is out, the façade
//!   returns [`pyx_db::DbError::WouldBlock`] and the session parks,
//!   exactly as on a row lock; the answer wakes it, and the re-run takes
//!   the result. A statement that would block on a row lock — on any
//!   shard, the home included — is **parked** on that shard and retried
//!   until the lock frees or wait-die kills it (the answer is then a
//!   deadlock, and the home's dispatcher restarts the whole transaction
//!   with its age retained).
//! * **Prepare** — at commit, every participant is asked at once to
//!   [`Engine::prepare_commit`], the home's own branch inline after the
//!   others are sent: a *prepared* branch keeps all its locks, accepts
//!   no further statements, and has vetoed nothing — in particular a
//!   shard whose WAL is degraded votes **no** here, before the decision.
//!   Once every vote is in, any veto (or participant death) aborts every
//!   branch and the transaction reports the error. Single-participant
//!   transactions skip straight to commit (no prepare round needed).
//! * **Commit + WAL acknowledgement point** — the home sends commit to
//!   every participant at once; each commits its branch and syncs **its
//!   own shard's log** before acknowledging, so only *participating*
//!   shards pay an fsync, and settles its leg in the decision registry.
//!   The transaction's outcome is what its commit legs report; the
//!   home's own result batch sync does not re-mark it. Participants never
//!   decide, so a decided branch never aborts. A participant that *dies*
//!   after its durable yes-vote is covered: its branch recovers in-doubt
//!   and heal resolves it against the decision registry (see
//!   *Self-healing* below). One whose `Decide` append fails — its log
//!   failed after the vote — crash-stops the same way rather than abort.
//! * **Distributed wait-die** — the server draws each cross-shard
//!   request's age from one shared counter when it is submitted, and a
//!   restart keeps it, so every shard's lock table orders every pair of
//!   distributed transactions alike. The lock table alone grants, queues
//!   or kills each request (`pyx_db`'s `lock` module gives the rules,
//!   and why the shards' wait graphs stay acyclic). A release empties
//!   the lock's wait queue, so it retries the parked statements before
//!   the shard reads its next message. A lock released by a cross-shard
//!   commit or abort wakes blocked *local* sessions through
//!   [`crate::Dispatcher::wake_txns`].
//! * **A home's death** — a cross-shard transaction dies with its home.
//!   When the server reaps a dead primary it first forgets every gtid
//!   that primary opened and never decided (absence is presumed abort,
//!   and a dead home can no longer decide), then tells every live
//!   primary, before any successor starts: each ends the branches the
//!   dead home left there — an unprepared one aborts, a prepared one
//!   takes the registry's verdict. The dead home's own branch recovers
//!   with its log, and its clients get "outcome unknown" errors.
//!
//! Cross-shard transactions run with snapshot reads **disabled**:
//! per-shard snapshots taken at different instants are not one
//! consistent cut, so even statically read-only cross-shard entries take
//! real locks (their [`TxnDone::read_only`] flag still reports the
//! static property). Single-shard read-only traffic keeps its lock-free
//! MVCC snapshots — each such transaction touches one engine only.
//!
//! Observational equivalence with a single engine holds per statement,
//! with one SQL-sanctioned exception: an *unordered* cross-shard scatter
//! read returns its rows in shard-concatenation order rather than a
//! single engine's scan order (row order without ORDER BY is
//! unspecified; ordered scans are never scattered — see the `coord`
//! module's `merge`). `tests/sharded.rs` checks the 2PC path against one
//! [`crate::Dispatcher`] over one engine.
//!
//! # Log-shipping read replicas
//!
//! Each shard may carry N **replicas**: engines holding the same schema
//! and base load, fed the shard's redo stream through a
//! [`LogFeed`] published at the durability ack
//! ([`ShardedServer::attach_shard_wals_with_feeds`] +
//! [`ShardedServer::spawn_replicas`]). A replica runs the same thread
//! body as a primary, in a replica role: between polls it tails the
//! feed incrementally ([`RedoTailer`] → [`Engine::apply_redo`]). Both
//! roles block on their inbox when idle: remote ops and answers land in
//! a primary's inbox itself, and each publish of durable bytes wakes the
//! shard's replicas (a waker registered on the feed sends them a
//! `Msg::Wake`). A replica serves
//! **read-only routable** requests as lock-free MVCC snapshots at its
//! applied horizon — a committed durable prefix of the primary, so a
//! replica answer is always one the primary itself would have given at
//! that commit timestamp. Admission is **bounded staleness**: a read is
//! round-robined to a replica only when the replica trails the
//! primary's durable horizon by at most
//! `REPLICA_LAG_LIMIT` commits; over-lagged or dead
//! replicas are skipped and the read falls back to the primary (counted
//! in [`ShardedReport::replica_fallbacks`]). Replica reads also keep
//! serving when the primary worker has died — reads need no quorum.
//! Writes never touch replicas.
//!
//! # Failure model and recovery guarantees
//!
//! Workers fail **crash-stop**: a shard (or replica) thread dies at an
//! arbitrary point and loses everything except its durably synced log.
//! Primaries and replicas run the same thread body, which owns its
//! engine and runs its serving loop under `catch_unwind`, so a dying
//! thread — a panic or an injected kill — still hands its engine back.
//! A death arrives as a report: a thread's last message on the results
//! channel is its exit, sent by a drop guard however the thread ends,
//! so every result it shipped is ahead of it. Whichever reader of the
//! channel reads the exit reaps the worker on the spot: it synthesizes
//! "outcome unknown" error results for the transactions still
//! outstanding there — the cross-shard ones it homed included — and
//! marks the shard (or replica) unavailable. A remote op the dead thread
//! held, or that reached its closed inbox, answers its home as a
//! participant death when it is dropped. What *survives* is exactly the
//! shard log's durable prefix: every locally acknowledged commit, every
//! cross-shard commit decision, and — because
//! [`Engine::prepare_commit`] force-flushes a `Prepare` record before
//! the participant acks its yes-vote — every vote a home may have acted
//! on.
//!
//! ## Self-healing (opt-in supervision)
//!
//! With [`ShardedServer::enable_self_healing`] and/or a
//! [`ShardedServer::set_respawn_factory`] configured, the reap becomes
//! a supervisor: a dead shard is repaired *online*, at the reap, while
//! the other shards keep serving. One heal walks the successor
//! candidates once, as configured — each live replica in horizon
//! order, then the respawn factory — and keeps the first one the log
//! accepts.
//!
//! * **Replica promotion** (preferred): the most-caught-up live replica
//!   is shut down, drained to the primary's durable watermark, and
//!   handed the dead primary's log ([`pyx_db::Wal::resume_at`] — it
//!   *refuses* a successor not exactly at the durable watermark, so a
//!   promoted replica can never serve behind what the dead primary
//!   acknowledged). Prepares parked in its redo tailer become in-doubt
//!   branches ([`Engine::adopt_in_doubt`]). A refused replica is
//!   consumed, and the walk moves on to the next one.
//! * **Respawn from the log**: once no replica is left, the factory
//!   rebuilds the shard (schema + base load + [`Engine::recover`] over
//!   the durable bytes) and the supervisor re-anchors the stolen log
//!   the same way. The log, and the transaction-id floor the successor
//!   must not reuse, come from the engine the dead thread handed back.
//! * **In-doubt resolution**: recovered prepared branches re-hold their
//!   exclusive locks; the supervisor settles them against the decision
//!   registry every home shares — a globally-unique gtid (the
//!   transaction's wait-die age) maps to a `GtidState`: *voting* from
//!   before the prepare fan-out, *commit* once all yes-votes are in
//!   (recorded before the commit fan-out begins). Absent gtid ⇒
//!   **presumed abort**, safe because a cross-shard transaction is only
//!   ever acknowledged after every participant committed and synced.
//!   The registry lock makes resolution atomic with the home's decision
//!   point: a branch recovered while its gtid is still *voting* is
//!   presumed abort and the verdict is written into the entry, so the
//!   home — which may still collect the remaining yes-votes — finds the
//!   veto and aborts the surviving branches rather than committing a
//!   transaction one shard already aborted. A committed verdict settles
//!   its registry leg only once a sync of the successor's log has made
//!   its decide record durable; a successor that cannot log or sync its
//!   verdicts is parked in the shard's worker slot, log attached, and
//!   the shard stays down (a [`HealFailure`]). A participant that
//!   crash-stopped on a failed log is not healed:
//!   [`pyx_db::Wal::discard_unsynced`] refuses a degraded log, so the
//!   shard stays down (a [`HealFailure`]) with its vote in doubt and its
//!   registry entry kept, until a replacement log exists.
//! * **Availability**: the healed shard's new thread takes over the
//!   shard's worker slot with a fresh inbox (homes reach it through the
//!   shared link table) and the shard's horizon cell, and the shard
//!   flips back to accepting writes and homing cross-shard requests.
//!   Callers ride through the window with
//!   [`ShardedServer::submit_by_deadline`]; per-shard MTTR and in-doubt
//!   counts land in [`ShardedReport::recoveries`]. Each candidate that
//!   fails records a [`HealFailure`]. When every candidate failed, the
//!   heal stashes the stolen log back on the dead engine, which stays
//!   parked in the shard's worker slot (the durable handle is never
//!   silently dropped), and the shard stays dead: no timer retries it.
//!
//! During failover, reads: bounded-staleness replica reads keep serving
//! at their applied horizons (monotone, frozen at the durable watermark
//! until the successor resumes writes); writes to the dead shard report
//! [`Admit::Unavailable`] until healed. Without healing configured the
//! PR-8 behavior is unchanged — the shard stays dead and only its
//! replicas keep answering reads.

use crate::coord::{
    Coord, CoordStats, Decisions, HoldHook, HoldPoint, Home, RemoteOp, Reply, ShardLinks,
};
use crate::dispatch::{
    Admit, Deployment, Dispatcher, DispatcherConfig, DispatcherStats, Polled, TxnDone,
};
use crate::env::InstantEnv;
use crate::workload::TxnRequest;
use pyx_db::replica::RedoTailer;
use pyx_db::wal::{FeedSink, LogFeed, LogSink, Wal};
use pyx_db::{shard_of, Engine, EngineStats, Scalar};
use pyx_lang::MethodId;
use pyx_pyxil::CompiledPartition;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sharded-server tuning. One admission bound covers every thread: a
/// shard thread holds at most `max_sessions + queue_cap` unretired
/// routed requests, and a primary at most `coordinators + queue_cap`
/// unretired cross-shard requests besides; a submit past its bound is
/// [`Admit::Rejected`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of engine shards / primary threads.
    pub shards: usize,
    /// Per-worker dispatcher tuning (sessions, queue, snapshot reads).
    pub dispatcher: DispatcherConfig,
    /// Cross-shard sessions each shard thread runs at once (at least
    /// one); more queue behind them.
    pub coordinators: usize,
}

/// Bounded-staleness admission for read replicas: a read-only request
/// routes to a replica only when the primary's durable commit timestamp
/// minus the replica's applied timestamp is within this bound (commit
/// timestamps advance by 1 per write transaction, so the unit is
/// "commits behind"). Requests over the bound fall back to the primary.
/// Advisory at admission time: the primary keeps committing while the
/// read runs.
const REPLICA_LAG_LIMIT: u64 = 1024;

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 2,
            dispatcher: DispatcherConfig::default(),
            coordinators: 2,
        }
    }
}

/// Everything a [`ShardedServer`] hands back at shutdown: the shard
/// engines (with their statistics), per-shard dispatcher counters, and
/// the cross-shard transaction counters.
pub struct ShardedReport {
    pub engines: Vec<Engine>,
    pub dispatchers: Vec<DispatcherStats>,
    /// Cross-shard transactions executed.
    pub multi_txns: u64,
    /// Sum of participant-shard counts over *committed* cross-shard
    /// transactions (`multi_participants / commits` = mean fan-out; the
    /// per-shard prepare/prepare-abort counts live in the engines'
    /// [`EngineStats`]).
    pub multi_participants: u64,
    /// Replica engines handed back at shutdown, tagged with the shard
    /// they replicated (after a final catch-up, so a healthy replica's
    /// state equals its primary's durable prefix).
    pub replica_engines: Vec<(usize, Engine)>,
    /// Read-only requests served by a replica.
    pub replica_reads: u64,
    /// Read-only requests that fell back to the primary (replica lag
    /// over the bound, replica at its admission bound, or replica dead).
    pub replica_fallbacks: u64,
    /// One entry per shard failover the supervisor performed (empty
    /// unless self-healing was configured), in recovery order.
    pub recoveries: Vec<ShardRecovery>,
    /// One entry per successor candidate a heal tried and lost, in
    /// order. A heal that walks past refused candidates records each of
    /// them, and may still succeed (also appearing in `recoveries`).
    pub heal_failures: Vec<HealFailure>,
    /// Answers to a home's remote ops that showed a dead participant
    /// worker (counted per observation: a transaction whose cleanup also
    /// hits the dead shard counts more than once).
    pub participant_deaths: u64,
}

/// One completed shard failover ([`ShardedReport::recoveries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The shard that was healed.
    pub shard: usize,
    /// `true`: a replica was promoted; `false`: the respawn factory
    /// rebuilt the shard from its log.
    pub promoted: bool,
    /// Wall-clock nanoseconds from supervision start (death already
    /// detected) to the shard accepting writes again.
    pub mttr_ns: u64,
    /// In-doubt prepared branches reconstructed from the log.
    pub in_doubt: u64,
    /// In-doubt branches resolved as commits (coordinator decision
    /// registry said commit).
    pub resolved_commit: u64,
    /// In-doubt branches resolved as aborts (presumed abort).
    pub resolved_abort: u64,
}

/// One successor candidate a heal lost ([`ShardedReport::heal_failures`]):
/// a replica that could not be promoted or that the log refused, the
/// respawn factory, or — when no candidate was even tried — the log
/// itself. A heal tries each candidate once; when all of them fail, the
/// stolen durable log is stashed back on the dead engine, parked in the
/// shard's worker slot, so the log handle (and replica feed) survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealFailure {
    /// The shard whose heal lost this candidate.
    pub shard: usize,
    /// 1-based position of the candidate in its heal's walk.
    pub attempt: u32,
    /// The candidate, and why it failed.
    pub reason: String,
}

impl ShardedReport {
    /// Engine counters summed over all primary shards (replicas are
    /// reported separately — see [`ShardedReport::merged_replica_stats`]).
    pub fn merged_engine_stats(&self) -> EngineStats {
        let mut m = EngineStats::default();
        for e in &self.engines {
            m.merge(&e.stats);
        }
        m
    }

    /// Engine counters summed over all replicas.
    pub fn merged_replica_stats(&self) -> EngineStats {
        let mut m = EngineStats::default();
        for (_, e) in &self.replica_engines {
            m.merge(&e.stats);
        }
        m
    }
}

/// One message in a shard thread's inbox, the only channel it reads.
pub(crate) enum Msg {
    /// A routed request.
    Submit {
        req: TxnRequest,
        tag: u64,
    },
    /// A cross-shard request for this primary to home, with the global
    /// wait-die age the server drew for it at submission and the hold
    /// armed for it.
    SubmitMulti {
        req: TxnRequest,
        tag: u64,
        age: u64,
        hold: Option<HoldHook>,
    },
    /// A home's statement or 2PC leg for this primary.
    Remote(RemoteOp),
    /// A participant's answer to one of this home's remote ops.
    Reply(Reply),
    /// The hold on this home's transaction with this virtual id was
    /// released (test instrumentation).
    Release(u64),
    /// Shard `s`'s primary died: end every branch it opened here. Sent
    /// by the reaper before `s`'s successor starts, so no branch of the
    /// successor is taken for an orphan.
    HomeDied(usize),
    /// The shard's log published durable bytes for this replica to tail
    /// (the waker [`ShardedServer`] registers on the feed). Sent *after*
    /// the publish, so a replica that sees it finds the bytes on its
    /// next catch-up. A no-op when the replica is already awake.
    Wake,
    Shutdown,
    /// Test hook: die abruptly after reporting `after_done` more results,
    /// dropping everything else on the floor — the fault the graceful
    /// worker-death path exists to absorb. The kill unwinds the serving
    /// loop as a panic would (minus the panic hook's report), so it runs
    /// the same engine hand-back path as a real panic.
    Crash {
        after_done: usize,
    },
}

/// Results-channel index of a [`Waker`]'s wakes, which no worker sends.
const WAKER: usize = usize::MAX;

/// One message on the results channel, sent under the sender's worker
/// index ([`WAKER`] for a [`Waker`]).
pub(crate) enum Report {
    /// A retired transaction.
    Done(TxnDone),
    /// The worker's thread stopped. [`ExitGuard`] sends it last, so
    /// every result the thread shipped is ahead of it on the channel.
    Exit,
    /// A [`Waker`] fired: it carries nothing, and only ends a
    /// [`ShardedServer::wait`].
    Wake,
}

pub(crate) type Results = Sender<(usize, Report)>;

/// Wakes whoever is blocked in [`ShardedServer::wait`], from any
/// thread. An event loop that serves other inputs besides retirements
/// hands one to each of their producers: a producer queues its input
/// first and wakes second, so the woken loop finds the input when it
/// next looks.
#[derive(Clone)]
pub struct Waker(Results);

impl Waker {
    /// End the server's current [`ShardedServer::wait`], or its next
    /// one if none is blocked. A no-op once the server is gone.
    pub fn wake(&self) {
        let _ = self.0.send((WAKER, Report::Wake));
    }
}

/// Sends its worker's [`Report::Exit`] when dropped, however the thread
/// body ends: a return or an unwind.
struct ExitGuard {
    idx: usize,
    done: Results,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let _ = self.done.send((self.idx, Report::Exit));
    }
}

/// One shard thread, as the server tracks it: a shard's primary or one
/// of its log-shipping replicas. The worker table holds the primaries
/// first (worker `s` serves shard `s`), then the replicas; a worker's
/// index is also its id on the results channel.
struct Worker {
    /// The shard this thread serves (primary) or follows (replica).
    shard: usize,
    /// The thread's inbox.
    tx: Sender<Msg>,
    /// `None` once a promotion consumed this replica.
    thread: Option<Thread>,
    /// The commit timestamp the thread publishes: a primary's durable
    /// horizon, a replica's applied one (the two inputs of
    /// bounded-staleness admission).
    horizon: Arc<AtomicU64>,
    /// tag → (entry, label, cross-shard) of every submitted request whose
    /// result has not been filed, so a dead worker's losses surface as
    /// error results. Its size is the thread's admission count.
    outstanding: HashMap<u64, (MethodId, &'static str, bool)>,
    /// How many of `outstanding` are cross-shard requests this primary
    /// homes: their admission count.
    multi: usize,
    /// The thread's exit was reaped (its losses reported), or a
    /// promotion consumed it.
    dead: bool,
}

/// A worker's thread: running (or stopped but not yet joined), or the
/// [`Exit`] it handed back, which a failed heal parks here for
/// [`ShardedReport::engines`].
enum Thread {
    Running(JoinHandle<Exit>),
    Stopped(Box<Exit>),
}

/// What a shard thread hands back when it stops, even after a panic.
struct Exit {
    engine: Engine,
    /// A cleanly stopped replica's redo tailer: its parked prepares are a
    /// promoted replica's in-doubt branches. `None` for a primary, and
    /// for a replica whose feed failed or whose thread was killed.
    tailer: Option<RedoTailer>,
    /// The local dispatcher's counters.
    stats: DispatcherStats,
    /// A primary's counters for the cross-shard transactions it homed.
    coord: CoordStats,
}

impl Worker {
    /// Join the thread, or take what it already handed back. `None` once
    /// a promotion consumed this replica.
    fn take_exit(&mut self) -> Option<Exit> {
        Some(match self.thread.take()? {
            Thread::Running(h) => h.join().expect("shard threads hand their engine back"),
            Thread::Stopped(exit) => *exit,
        })
    }
}

/// The shard-per-core server. See module docs.
pub struct ShardedServer {
    /// Every shard thread: the primaries (worker `s` serves shard `s`),
    /// then the replicas.
    workers: Vec<Worker>,
    /// Shared link table: the live inbox per shard, rewritten whenever a
    /// primary's thread starts.
    links: ShardLinks,
    /// Commit-decision registry shared with every home (see
    /// [`Decisions`]) — the in-doubt resolution source at failover.
    decisions: Decisions,
    /// The global wait-die age counter every home draws from.
    ages: Arc<AtomicU64>,
    done_rx: Receiver<(usize, Report)>,
    done_tx: Results,
    part: Arc<CompiledPartition>,
    cfg: ShardedConfig,
    // -- self-healing supervision (opt-in) --
    /// Promote a replica when a primary dies (see module docs).
    self_heal: bool,
    /// Rebuild a dead shard's engine from its durable log (schema +
    /// base load + [`Engine::recover`]); the supervisor re-anchors the
    /// stolen [`Wal`] onto the returned engine. `None` from the factory
    /// leaves the shard dead.
    respawn: Option<Box<dyn FnMut(usize) -> Option<Engine> + Send>>,
    /// Completed failovers, in order.
    recoveries: Vec<ShardRecovery>,
    /// Successor candidates heals lost, in order (diagnostics).
    heal_failures: Vec<HealFailure>,
    // -- read replicas --
    /// Worker indices of the live replicas serving each shard.
    replica_of_shard: Vec<Vec<usize>>,
    /// Per-shard round-robin cursor over that shard's replicas.
    replica_rr: Vec<usize>,
    replica_reads: u64,
    replica_fallbacks: u64,
    /// Results read off the channel and not yet delivered, plus the
    /// synthesized error results of reaped workers.
    ready: VecDeque<TxnDone>,
    // -- cross-shard transactions --
    /// Round-robin cursor over the primaries that home cross-shard
    /// requests.
    home_rr: usize,
    hold_next: Option<HoldHook>,
    /// Coordinator counters of primary incarnations a heal replaced.
    coord: CoordStats,
}

impl ShardedServer {
    /// Spawn W workers, each owning one pre-loaded engine shard plus its
    /// own dispatchers over the shared compiled partition — one for
    /// routed requests, one for the cross-shard requests it homes.
    /// `engines` must all carry the same schema, with rows already routed
    /// by [`pyx_db::TableDef::shard_key`] (see `load_row_sharded`).
    pub fn new(
        part: Arc<CompiledPartition>,
        engines: Vec<Engine>,
        cfg: ShardedConfig,
    ) -> ShardedServer {
        assert_eq!(engines.len(), cfg.shards, "one engine per shard");
        assert!(cfg.shards > 0, "at least one shard");
        let (done_tx, done_rx) = mpsc::channel();
        let mut srv = ShardedServer {
            workers: Vec::with_capacity(cfg.shards),
            links: Arc::new(
                (0..cfg.shards)
                    .map(|_| Mutex::new(mpsc::channel().0))
                    .collect(),
            ),
            decisions: Decisions::default(),
            ages: Arc::new(AtomicU64::new(1)),
            done_rx,
            done_tx,
            part,
            cfg,
            self_heal: false,
            respawn: None,
            recoveries: Vec::new(),
            heal_failures: Vec::new(),
            replica_of_shard: vec![Vec::new(); cfg.shards],
            replica_rr: vec![0; cfg.shards],
            replica_reads: 0,
            replica_fallbacks: 0,
            ready: VecDeque::new(),
            home_rr: 0,
            hold_next: None,
            coord: CoordStats::default(),
        };
        for (s, engine) in engines.into_iter().enumerate() {
            srv.spawn(s, engine, None);
        }
        srv
    }

    /// Start a shard thread — the one place every shard thread starts.
    /// Without a `feed` it is shard `shard`'s primary, taking worker slot
    /// `shard` (a healed primary replaces the dead one and keeps its
    /// horizon cell, so replica staleness admission carries over) and
    /// publishing its inbox in the link table, where homes find it. With
    /// a `feed` it is a new replica of `shard`, tailing that feed, which
    /// wakes it on every publish. Returns the worker's index.
    fn spawn(&mut self, shard: usize, engine: Engine, feed: Option<LogFeed>) -> usize {
        let (tx, rx) = mpsc::channel();
        let (idx, role, name) = match feed {
            None => {
                *self.links[shard]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = tx.clone();
                let links = Arc::clone(&self.links);
                let coord = Coord::new(shard, tx.clone(), links, self.decisions.clone());
                (
                    shard,
                    Seed::Primary(Box::new(coord)),
                    format!("pyx-shard-{shard}"),
                )
            }
            Some(feed) => {
                let idx = self.workers.len();
                let wake = tx.clone();
                feed.on_publish(move || {
                    let _ = wake.send(Msg::Wake);
                });
                (
                    idx,
                    Seed::Replica(feed),
                    format!("pyx-replica-{shard}-{idx}"),
                )
            }
        };
        let horizon = match self.workers.get(idx) {
            Some(w) => Arc::clone(&w.horizon),
            None => Arc::new(AtomicU64::new(0)),
        };
        let part = Arc::clone(&self.part);
        let cfg = self.cfg;
        let done = self.done_tx.clone();
        let published = Arc::clone(&horizon);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || run_worker(idx, engine, role, part, cfg, rx, done, published))
            .expect("spawn shard worker");
        let worker = Worker {
            shard,
            tx,
            thread: Some(Thread::Running(handle)),
            horizon,
            outstanding: HashMap::new(),
            multi: 0,
            dead: false,
        };
        if idx < self.workers.len() {
            self.workers[idx] = worker;
        } else {
            self.workers.push(worker);
        }
        idx
    }

    /// Attach one write-ahead log per shard before serving: shard `i`
    /// gets `make_sink(i)` wrapped in a [`Wal`] stamping shard id `i`
    /// into every record, flushing every `group_commit` commits (workers
    /// force a flush at their acknowledgement point regardless; a
    /// cross-shard commit flushes only its participant shards). The
    /// canonical durability hookup for sharded deployments — recovery
    /// then rebuilds each shard independently from its own log.
    pub fn attach_shard_wals(
        engines: &mut [Engine],
        group_commit: usize,
        mut make_sink: impl FnMut(usize) -> Box<dyn LogSink>,
    ) {
        for (i, e) in engines.iter_mut().enumerate() {
            e.set_wal(
                Wal::new(make_sink(i))
                    .with_shard(i as u16)
                    .with_group_commit(group_commit),
            );
        }
    }

    /// [`ShardedServer::attach_shard_wals`], with each shard's sink
    /// wrapped in a [`FeedSink`] so its durable prefix is shippable to
    /// replicas. Returns one [`LogFeed`] per shard — pass them to
    /// [`ShardedServer::spawn_replicas`]. The feed publishes bytes only
    /// after a successful sync: the ship point is the durability ack,
    /// never the raw append.
    pub fn attach_shard_wals_with_feeds(
        engines: &mut [Engine],
        group_commit: usize,
        mut make_sink: impl FnMut(usize) -> Box<dyn LogSink>,
    ) -> Vec<LogFeed> {
        let mut feeds = Vec::with_capacity(engines.len());
        for (i, e) in engines.iter_mut().enumerate() {
            let sink = FeedSink::new(make_sink(i));
            feeds.push(sink.feed());
            e.set_wal(
                Wal::new(Box::new(sink))
                    .with_shard(i as u16)
                    .with_group_commit(group_commit),
            );
        }
        feeds
    }

    /// Spawn log-shipping read replicas: `replicas[s]` is the list of
    /// replica engines for shard `s` (each must hold shard `s`'s schema
    /// and base load — a copy of the engine as handed to
    /// [`ShardedServer::new`], *without* a WAL), and `feeds[s]` is that
    /// shard's durable redo feed from
    /// [`ShardedServer::attach_shard_wals_with_feeds`].
    ///
    /// Each replica runs on its own thread: it tails the feed
    /// incrementally into its engine ([`Engine::apply_redo`]) and
    /// serves read-only routable requests as lock-free MVCC snapshots
    /// at its applied horizon. Admission is bounded-staleness
    /// (`REPLICA_LAG_LIMIT`); over-lagged or dead
    /// replicas fall back to the primary. Requires snapshot reads to be
    /// enabled — a locking read on a replica would race the redo
    /// applier.
    pub fn spawn_replicas(&mut self, feeds: &[LogFeed], replicas: Vec<Vec<Engine>>) {
        assert_eq!(replicas.len(), self.cfg.shards, "one replica set per shard");
        assert!(feeds.len() >= self.cfg.shards, "one feed per shard");
        assert!(
            self.cfg.dispatcher.snapshot_reads,
            "replicas serve MVCC snapshots; enable dispatcher.snapshot_reads"
        );
        for (s, engines) in replicas.into_iter().enumerate() {
            for engine in engines {
                let i = self.spawn(s, engine, Some(feeds[s].clone()));
                self.replica_of_shard[s].push(i);
            }
        }
    }

    /// Per-replica staleness, in commits behind the primary's durable
    /// horizon: `(shard, lag)` per live replica, in spawn order.
    /// Diagnostics for tests and the lag benchmark.
    pub fn replica_lags(&self) -> Vec<(usize, u64)> {
        self.workers[self.cfg.shards..]
            .iter()
            .filter(|r| !r.dead)
            .map(|r| {
                let durable = self.workers[r.shard].horizon.load(Ordering::Acquire);
                let applied = r.horizon.load(Ordering::Acquire);
                (r.shard, durable.saturating_sub(applied))
            })
            .collect()
    }

    /// Shards whose worker has died (requests to them return
    /// [`Admit::Unavailable`]).
    pub fn dead_shards(&self) -> Vec<usize> {
        self.workers[..self.cfg.shards]
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.dead.then_some(i))
            .collect()
    }

    /// Test hook: make shard `shard`'s worker die abruptly after
    /// reporting `after_done` more results. See [`Msg::Crash`].
    #[doc(hidden)]
    pub fn inject_worker_crash(&mut self, shard: usize, after_done: usize) {
        let _ = self.workers[shard].tx.send(Msg::Crash { after_done });
    }

    /// Opt in to replica promotion: when a primary worker dies and the
    /// shard has a live replica, the supervisor promotes the
    /// most-caught-up one instead of leaving the shard dead (module
    /// docs, *Self-healing*). Off by default — without it a primary
    /// death permanently marks the shard unavailable (the PR-8
    /// behavior).
    pub fn enable_self_healing(&mut self) {
        self.self_heal = true;
    }

    /// Opt in to respawn-from-log: once a heal has no replica left to
    /// try, `factory(shard)` must rebuild its engine — same schema
    /// and base load, then [`Engine::recover`] over the shard's durable
    /// log bytes — *without* a WAL; the supervisor re-anchors the dead
    /// primary's log onto it ([`pyx_db::Wal::resume_at`]) and resolves
    /// in-doubt branches. Returning `None` leaves the shard dead.
    pub fn set_respawn_factory(
        &mut self,
        factory: impl FnMut(usize) -> Option<Engine> + Send + 'static,
    ) {
        self.respawn = Some(Box::new(factory));
    }

    /// Failovers completed so far (also in [`ShardedReport::recoveries`]
    /// at shutdown).
    pub fn recoveries(&self) -> &[ShardRecovery] {
        &self.recoveries
    }

    /// Apply pending exits now: read whatever is already on the results
    /// channel, and reap (and, if configured, heal) each worker whose
    /// exit report is among it. Every reader of the channel does this as
    /// it goes; callers that read no results — a chaos driver waiting
    /// for a failover — call this instead.
    pub fn reap_now(&mut self) {
        while let Ok(msg) = self.done_rx.try_recv() {
            self.file(msg);
        }
    }

    /// [`ShardedServer::submit`], retried until admitted or `deadline`
    /// passes. Only a results-channel message can turn a refusal into an
    /// admission: a filed retirement frees a slot under the admission
    /// bound ([`Admit::Rejected`]), and a reaped exit heals a dead shard
    /// ([`Admit::Unavailable`], a failover window). So after each
    /// refusal it blocks, until the deadline at most, for the next
    /// message, files it on the ready queue, where the next
    /// [`ShardedServer::recv_done`] / [`ShardedServer::try_recv_done`]
    /// delivers it exactly once, reaps whatever else is already there,
    /// and tries again. Returns the final admission (the last failure
    /// once the deadline passed).
    pub fn submit_by_deadline(&mut self, req: TxnRequest, tag: u64, deadline: Instant) -> Admit {
        loop {
            match self.submit(req.clone(), tag) {
                admit @ (Admit::Rejected | Admit::Unavailable) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return admit;
                    }
                    if let Ok(msg) = self.done_rx.recv_timeout(deadline - now) {
                        self.file(msg);
                        self.reap_now();
                    }
                }
                admit => return admit,
            }
        }
    }

    /// Non-blocking [`ShardedServer::recv_done`]: deliver one retired
    /// transaction if one is ready, else return immediately. It still
    /// reads the results channel when nothing is in flight, so a worker
    /// that dies idle is reaped here. Event loops (the socket server)
    /// park in [`ShardedServer::wait`] and then take what is ready with
    /// this, between their other inputs.
    pub fn try_recv_done(&mut self) -> Option<TxnDone> {
        self.next_done(false)
    }

    /// Block until there is something to act on: a result ready for
    /// [`ShardedServer::try_recv_done`], a worker's exit reaped (and its
    /// shard healed, if configured), or a [`Waker`] fired. Returns at
    /// once if a result is already ready. It never times out: with
    /// nothing in flight and no waker firing, it blocks for good.
    pub fn wait(&mut self) {
        if self.ready.is_empty() {
            let msg = self
                .done_rx
                .recv()
                .expect("the server holds a results sender");
            self.file(msg);
        }
    }

    /// A handle that ends a [`ShardedServer::wait`] from another thread.
    pub fn waker(&self) -> Waker {
        Waker(self.done_tx.clone())
    }

    /// Test hook: pause the *next* submitted cross-shard transaction at
    /// `at` (see [`HoldPoint`]). The returned receiver yields once the
    /// transaction is parked there, and it resumes when the returned
    /// sender fires (or drops). Used to prove that cross-shard
    /// transactions with disjoint shard sets commit concurrently, and to
    /// land faults inside the 2PC windows.
    #[doc(hidden)]
    pub fn hold_next_multi(&mut self, at: HoldPoint) -> (Receiver<()>, Sender<()>) {
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        self.hold_next = Some(HoldHook {
            at,
            held_tx,
            release_rx,
        });
        (held, release)
    }

    /// Cross-shard transactions with a live decision-registry entry
    /// (voting, or committed with unsettled participant legs). Zero
    /// once every transaction has settled — the registry-leak probe.
    #[doc(hidden)]
    pub fn pending_decisions(&self) -> usize {
        self.decisions.len()
    }

    /// Successor candidates heals lost so far (also in
    /// [`ShardedReport::heal_failures`] at shutdown).
    pub fn heal_failures(&self) -> &[HealFailure] {
        &self.heal_failures
    }

    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Requests submitted but not yet collected via [`ShardedServer::recv_done`]:
    /// the unfiled ones each thread holds, plus the filed ones on the
    /// ready queue.
    pub fn in_flight(&self) -> u64 {
        let unfiled: usize = self.workers.iter().map(|w| w.outstanding.len()).sum();
        (unfiled + self.ready.len()) as u64
    }

    /// Submit a request. `route: Some(k)` goes to shard `shard_of(k, W)`;
    /// `route: None` is a cross-shard transaction and goes to a live
    /// primary, its home, chosen round-robin among those with room. A
    /// thread past its admission bound (see [`ShardedConfig`]) refuses
    /// with [`Admit::Rejected`] — backpressure: retry once a retirement
    /// is filed. [`Admit::Unavailable`] means the shard's worker (for a
    /// cross-shard request: every primary) has died.
    pub fn submit(&mut self, req: TxnRequest, tag: u64) -> Admit {
        match req.route {
            Some(k) => {
                let s = shard_of(&Scalar::Int(k), self.cfg.shards);
                // Statically read-only routable requests may serve from a
                // shard replica — tried *before* the primary-death check,
                // so reads keep serving a shard whose primary died.
                if !self.replica_of_shard[s].is_empty()
                    && self.cfg.dispatcher.snapshot_reads
                    && self.part.bp.entry_read_only(req.entry)
                {
                    match self.try_submit_replica(s, req, tag) {
                        Ok(admit) => return admit,
                        Err(back) => return self.submit_primary(s, back, tag),
                    }
                }
                self.submit_primary(s, req, tag)
            }
            None => {
                let n = self.cfg.shards;
                let (mut req, mut refused) = (req, Admit::Unavailable);
                for probe in 0..n {
                    let s = (self.home_rr + probe) % n;
                    if self.workers[s].dead {
                        continue;
                    }
                    match self.send_to(s, req, tag) {
                        Ok(()) => {
                            self.home_rr = (s + 1) % n;
                            return Admit::Started;
                        }
                        Err((back, why)) => {
                            req = back;
                            if why == Admit::Rejected {
                                refused = why;
                            }
                        }
                    }
                }
                refused
            }
        }
    }

    /// Send `req` to worker `i` and track it as outstanding there, unless
    /// the thread already holds its bound — `max_sessions + queue_cap`
    /// routed requests, or `coordinators + queue_cap` cross-shard ones —
    /// (`Err((req, Admit::Rejected))`) or its inbox is closed (`Err((req,
    /// Admit::Unavailable))`: the thread stopped, its exit report is on
    /// the results channel, and the next reader reaps it). The bounds are
    /// the dispatchers' own, so neither of the thread's dispatchers ever
    /// refuses. A cross-shard request takes the armed hold along.
    fn send_to(&mut self, i: usize, req: TxnRequest, tag: u64) -> Result<(), (TxnRequest, Admit)> {
        let d = self.cfg.dispatcher;
        let multi = req.route.is_none();
        let w = &mut self.workers[i];
        let (held, bound) = match multi {
            true => (w.multi, self.cfg.coordinators.max(1)),
            false => (w.outstanding.len() - w.multi, d.max_sessions),
        };
        if held >= bound.saturating_add(d.queue_cap) {
            return Err((req, Admit::Rejected));
        }
        let (entry, label) = (req.entry, req.label);
        let msg = match multi {
            // Ages go out in submission order: the first submitted is
            // the oldest.
            true => Msg::SubmitMulti {
                req,
                tag,
                age: self.ages.fetch_add(1, Ordering::Relaxed),
                hold: self.hold_next.take(),
            },
            false => Msg::Submit { req, tag },
        };
        match w.tx.send(msg) {
            Ok(()) => {
                w.outstanding.insert(tag, (entry, label, multi));
                w.multi += usize::from(multi);
                Ok(())
            }
            Err(mpsc::SendError(Msg::Submit { req, .. })) => Err((req, Admit::Unavailable)),
            Err(mpsc::SendError(Msg::SubmitMulti { req, hold, .. })) => {
                self.hold_next = hold;
                Err((req, Admit::Unavailable))
            }
            Err(_) => unreachable!("send_to sends a submit"),
        }
    }

    /// Submit a routed request to shard `s`'s primary worker.
    fn submit_primary(&mut self, s: usize, req: TxnRequest, tag: u64) -> Admit {
        if self.workers[s].dead {
            return Admit::Unavailable;
        }
        match self.send_to(s, req, tag) {
            Ok(()) => Admit::Started,
            Err((_, refused)) => refused,
        }
    }

    /// Try to admit a read-only request on one of shard `s`'s replicas,
    /// round-robin, with bounded-staleness admission: a replica is
    /// eligible only while `primary_durable_ts - applied_ts` is within
    /// `REPLICA_LAG_LIMIT`. `Err(req)` hands the
    /// request back for the primary fallback (all replicas dead,
    /// over-lagged, or full) and counts the fallback.
    fn try_submit_replica(
        &mut self,
        s: usize,
        req: TxnRequest,
        tag: u64,
    ) -> Result<Admit, TxnRequest> {
        let n = self.replica_of_shard[s].len();
        let durable = self.workers[s].horizon.load(Ordering::Acquire);
        let mut req = req;
        for probe in 0..n {
            let i = self.replica_of_shard[s][(self.replica_rr[s] + probe) % n];
            let r = &self.workers[i];
            if r.dead
                || durable.saturating_sub(r.horizon.load(Ordering::Acquire)) > REPLICA_LAG_LIMIT
            {
                continue;
            }
            match self.send_to(i, req, tag) {
                Ok(()) => {
                    self.replica_rr[s] = (self.replica_rr[s] + probe + 1) % n;
                    self.replica_reads += 1;
                    return Ok(Admit::Started);
                }
                Err((back, _)) => req = back,
            }
        }
        self.replica_fallbacks += 1;
        Err(req)
    }

    /// Block until the next transaction retires (`None` when nothing is
    /// in flight). The server itself holds a results sender (healed
    /// workers and replicas are spawned from it), so the channel never
    /// disconnects: a worker's death arrives on it as an exit report,
    /// after everything the worker shipped, and this reaps it on the
    /// spot. A dead worker's lost transactions come back as **error
    /// results** (outcome unknown: the transaction may or may not have
    /// committed before the crash) and its shard is marked unavailable;
    /// the server itself keeps serving. (A participant's death mid-2PC
    /// is reported by the transaction's home: the op the dead thread
    /// dropped answers as a death, and the home aborts the survivors.)
    pub fn recv_done(&mut self) -> Option<TxnDone> {
        self.next_done(true)
    }

    /// Deliver the next ready result, reading the results channel until
    /// one is ready — blocking while anything is in flight if `block`,
    /// else only taking what is already there.
    fn next_done(&mut self, block: bool) -> Option<TxnDone> {
        while self.ready.is_empty() {
            let msg = if block && self.in_flight() > 0 {
                self.done_rx.recv().ok()
            } else {
                self.done_rx.try_recv().ok()
            };
            self.file(msg?);
        }
        self.ready.pop_front()
    }

    /// Act on one results-channel message: file a result on the ready
    /// queue, clearing its sender's admission count, or reap the worker
    /// an exit came from. A wake needs nothing.
    fn file(&mut self, (i, report): (usize, Report)) {
        match report {
            Report::Done(d) => {
                let w = &mut self.workers[i];
                if w.outstanding.remove(&d.tag).is_some_and(|u| u.2) {
                    w.multi -= 1;
                }
                self.ready.push_back(d);
            }
            Report::Exit => self.reap(i),
            Report::Wake => {}
        }
    }

    /// Reap worker `i`, whose exit was read. Channel order filed every
    /// result it shipped before its exit, so what is still outstanding
    /// there will never report: retire each as an error, mark the worker
    /// dead, and — for a primary — end the cross-shard transactions it
    /// homed, then heal it (see [`ShardedServer::heal_shard`]). A heal
    /// reads nothing off the channel, so it never runs inside another.
    fn reap(&mut self, i: usize) {
        let primary = i < self.cfg.shards;
        let w = &mut self.workers[i];
        w.dead = true;
        let error = match (primary, &w.thread) {
            (true, _) => format!("shard {i} worker died; transaction outcome unknown"),
            // A promotion took this replica's thread.
            (false, None) => format!("shard {} replica promoted; read not served", w.shard),
            (false, Some(_)) => format!("shard {} replica died; read not served", w.shard),
        };
        fail_outstanding(&mut w.outstanding, !primary, &error, &mut self.ready);
        w.multi = 0;
        if primary {
            // The dead home can no longer decide: its undecided gtids
            // become presumed aborts, and then every live primary ends
            // the branches it left there — before a successor starts, so
            // no branch of the successor is taken for an orphan.
            self.decisions.forget_home(i);
            for w in self.workers[..self.cfg.shards].iter().filter(|w| !w.dead) {
                let _ = w.tx.send(Msg::HomeDied(i));
            }
            self.heal_shard(i);
        }
    }

    /// The most-caught-up live replica of shard `s` (highest applied
    /// commit timestamp), if any.
    fn best_replica(&self, s: usize) -> Option<usize> {
        self.replica_of_shard[s]
            .iter()
            .copied()
            .filter(|&i| !self.workers[i].dead)
            .max_by_key(|&i| self.workers[i].horizon.load(Ordering::Acquire))
    }

    fn heal_failed(&mut self, shard: usize, attempt: u32, reason: String) {
        self.heal_failures.push(HealFailure {
            shard,
            attempt,
            reason,
        });
    }

    /// Supervise newly dead shard `s`: steal its log, build a successor
    /// around it ([`ShardedServer::build_successor`]), resolve in-doubt
    /// branches against the decision registry, and start the
    /// healed shard's thread with a fresh inbox. When no candidate
    /// succeeds the shard stays dead (submits keep reporting
    /// [`Admit::Unavailable`]) — healing never trades correctness for
    /// availability — with the stolen log stashed back on the dead
    /// engine; when the successor cannot make its in-doubt verdicts
    /// durable, it stays parked in the slot, log attached.
    fn heal_shard(&mut self, s: usize) {
        if !self.self_heal && self.respawn.is_none() {
            return; // supervision not configured: the shard stays dead
        }
        let start = Instant::now();
        // The dead thread handed its engine back. Steal its log — sink,
        // replica feed and durability watermarks move to the successor —
        // and its transaction-id floor.
        let mut dead = self.workers[s]
            .take_exit()
            .expect("a primary is never consumed");
        self.coord.merge(&std::mem::take(&mut dead.coord));
        let floor = dead.engine.txn_id_floor();
        let built = match dead.engine.take_wal() {
            None => {
                self.heal_failed(
                    s,
                    1,
                    format!("shard {s} has no durable log to recover from"),
                );
                Err(())
            }
            // The durable handle (and its replica feed) survives a
            // failed heal: stash it back.
            Some(wal) => self
                .build_successor(s, wal, floor)
                .map_err(|wal| dead.engine.set_wal(*wal)),
        };
        let Ok((mut engine, promoted, attempt)) = built else {
            // The dead engine, log and all, stays parked in the slot for
            // `ShardedReport::engines`.
            self.workers[s].thread = Some(Thread::Stopped(Box::new(dead)));
            return;
        };
        let (in_doubt, resolved_commit, resolved_abort) =
            match self.decisions.settle_in_doubt(&mut engine) {
                Ok(counts) => counts,
                Err(e) => {
                    // A verdict its log cannot keep: the successor, log
                    // attached, takes the slot instead, and the registry
                    // keeps the legs it did not settle.
                    self.heal_failed(s, attempt, format!("shard {s}: in-doubt verdicts: {e}"));
                    let exit = Exit { engine, ..dead };
                    self.workers[s].thread = Some(Thread::Stopped(Box::new(exit)));
                    return;
                }
            };
        // Swap the healed shard in: a fresh thread and inbox (the link
        // table points homes at it), same horizon cell.
        self.spawn(s, engine, None);
        self.recoveries.push(ShardRecovery {
            shard: s,
            promoted,
            mttr_ns: start.elapsed().as_nanos() as u64,
            in_doubt,
            resolved_commit,
            resolved_abort,
        });
    }

    /// Build shard `s`'s successor around the stolen log: truncate the
    /// log medium to its durable prefix, then walk the candidates once —
    /// each live replica in horizon order (with self-healing on), then
    /// the respawn factory — and re-anchor the log on the first one
    /// whose applied horizon is the durable watermark. Each candidate
    /// lost records a [`HealFailure`]. Returns the successor, log
    /// attached, whether it was a promotion and its place in the walk;
    /// on failure the log comes back for stashing.
    fn build_successor(
        &mut self,
        s: usize,
        mut wal: Wal,
        txn_floor: u64,
    ) -> Result<(Engine, bool, u32), Box<Wal>> {
        // Drop the dead incarnation's unsynced tail from the medium
        // BEFORE any successor reads it: with a file sink, appended-
        // but-unsynced bytes are already visible to a file reader
        // (they sit in the OS page cache), so a respawn factory that
        // recovered them would land past the durable watermark that
        // `resume_at` demands — and the shard would stay dead exactly
        // in the group-commit case failover exists for.
        if let Err(e) = wal.discard_unsynced() {
            self.heal_failed(s, 1, format!("shard {s}: {e}"));
            return Err(Box::new(wal));
        }
        let (mut attempt, mut factory_tried) = (0, false);
        loop {
            attempt += 1;
            let replica = self.best_replica(s).filter(|_| self.self_heal);
            let (candidate, built, lost) = match replica {
                Some(i) => (
                    format!("replica {i}"),
                    self.promote_replica(s, i),
                    "its feed failed or it did not stop cleanly",
                ),
                None if self.respawn.is_some() && !factory_tried => {
                    factory_tried = true;
                    let factory = self.respawn.as_mut().expect("checked above");
                    let built = factory(s);
                    ("respawn factory".into(), built, "it declined to rebuild")
                }
                None => {
                    if attempt == 1 {
                        let why = format!("shard {s}: no live replica and no respawn factory");
                        self.heal_failed(s, 1, why);
                    }
                    return Err(Box::new(wal));
                }
            };
            let accepted = match built {
                None => Err(lost.to_string()),
                Some(mut engine) => {
                    // The successor must not reuse transaction ids the
                    // dead incarnation named to homes (stale cleanup
                    // aborts).
                    engine.reserve_txn_ids(txn_floor);
                    // Promotion-at-durable-watermark rule: refuse a
                    // successor whose applied horizon is not exactly the
                    // durable prefix.
                    wal.resume_at(engine.current_commit_ts()).map(|()| engine)
                }
            };
            match accepted {
                Ok(mut engine) => {
                    engine.set_wal(wal);
                    return Ok((engine, replica.is_some(), attempt));
                }
                Err(why) => self.heal_failed(s, attempt, format!("shard {s}: {candidate}: {why}")),
            }
        }
    }

    /// Consume replica `i` of shard `s` as the failover successor: stop
    /// it — its clean stop takes a final catch-up, which lands it on the
    /// durable watermark, as the dead primary's feed is complete — and
    /// adopt its parked prepares as in-doubt branches. `None` if its
    /// feed failed or it did not stop cleanly. The reads it served before
    /// stopping are on the results channel, ahead of its exit; reaping
    /// that exit fails the reads queued behind the shutdown.
    fn promote_replica(&mut self, s: usize, i: usize) -> Option<Engine> {
        self.replica_of_shard[s].retain(|&j| j != i);
        self.workers[i].dead = true; // consumed: never serves reads again
        let _ = self.workers[i].tx.send(Msg::Shutdown);
        let mut exit = self.workers[i].take_exit()?;
        exit.tailer?.adopt_pending(&mut exit.engine).ok()?;
        Some(exit.engine)
    }

    /// Collect every outstanding transaction.
    pub fn drain(&mut self) -> Vec<TxnDone> {
        let mut out = Vec::with_capacity(self.in_flight() as usize);
        while let Some(d) = self.recv_done() {
            out.push(d);
        }
        out
    }

    /// Stop the workers and hand back the shard engines and counters.
    /// Outstanding results are drained first, then the primaries are
    /// joined, then the replicas. Tolerates dead workers: every shard
    /// thread hands its engine back however it stopped, with the
    /// dispatcher counters it had (the in-memory state of a dead one may
    /// hold uncommitted work — durable state lives in the write-ahead
    /// log, which is exactly what recovery replays).
    pub fn shutdown(mut self) -> (Vec<TxnDone>, ShardedReport) {
        let rest = self.drain();
        let mut coord = self.coord;
        // Replicas stop only after every primary has joined (all WAL
        // syncs done, feeds final): each replica's final catch-up then
        // lands exactly on the primary's durable prefix.
        let shards = self.cfg.shards;
        let (mut engines, mut dispatchers) = (Vec::new(), Vec::new());
        let mut replica_engines = Vec::new();
        for tier in [0..shards, shards..self.workers.len()] {
            for w in &self.workers[tier.clone()] {
                let _ = w.tx.send(Msg::Shutdown);
            }
            for i in tier {
                // `None`: a replica that a promotion consumed.
                let Some(exit) = self.workers[i].take_exit() else {
                    continue;
                };
                if i < shards {
                    engines.push(exit.engine);
                    dispatchers.push(exit.stats);
                    coord.merge(&exit.coord);
                } else {
                    replica_engines.push((self.workers[i].shard, exit.engine));
                }
            }
        }
        (
            rest,
            ShardedReport {
                engines,
                dispatchers,
                multi_txns: coord.txns,
                multi_participants: coord.participants,
                replica_engines,
                replica_reads: self.replica_reads,
                replica_fallbacks: self.replica_fallbacks,
                recoveries: std::mem::take(&mut self.recoveries),
                heal_failures: std::mem::take(&mut self.heal_failures),
                participant_deaths: coord.participant_deaths,
            },
        )
    }
}

/// A server dropped without [`ShardedServer::shutdown`] still stops its
/// threads: each running one is told to shut down, and none is joined.
/// Threads hold each other's inboxes (homes and participants, a replica
/// its feed's waker), so none would ever see its inbox close.
impl Drop for ShardedServer {
    fn drop(&mut self) {
        for w in &self.workers {
            if matches!(w.thread, Some(Thread::Running(_))) {
                let _ = w.tx.send(Msg::Shutdown);
            }
        }
    }
}

/// Retire every request in a dead worker's `outstanding` map with
/// `error`, in tag order, onto the `ready` queue.
fn fail_outstanding(
    outstanding: &mut HashMap<u64, (MethodId, &'static str, bool)>,
    read_only: bool,
    error: &str,
    ready: &mut VecDeque<TxnDone>,
) {
    let mut lost: Vec<_> = outstanding.drain().collect();
    lost.sort_unstable_by_key(|&(tag, _)| tag);
    for (tag, (entry, label, _)) in lost {
        ready.push_back(TxnDone {
            read_only,
            ..TxnDone::failed(tag, entry, label, error.to_string())
        });
    }
}

/// Report one retired transaction on the results channel under worker
/// id `idx`. When an injected crash countdown expires, the worker dies
/// on the spot ([`crash`]) instead.
fn report(idx: usize, d: TxnDone, done: &Results, crash_after: &mut Option<usize>) {
    if let Some(n) = crash_after {
        if *n == 0 {
            crash();
        }
        *n -= 1;
    }
    let _ = done.send((idx, Report::Done(d)));
}

/// Flush retired transactions to the results channel, syncing the
/// write-ahead log first — the **acknowledgement point**: under group
/// commit a transaction's redo record may still sit in the OS page cache
/// when its session retires, and one fsync here covers the whole batch.
/// If the sync fails, write commits in the batch are reported as
/// durability errors (conservatively — some may have been flushed by an
/// earlier sync; the log cannot say which without per-commit
/// bookkeeping, and under-acknowledging is the safe direction). A
/// replica has no log, so for it this only reports the batch. A crash
/// countdown that expires mid-flush drops the rest of the batch.
fn flush_dones(
    idx: usize,
    engine: &mut Engine,
    batch: &mut Vec<TxnDone>,
    done: &Results,
    crash_after: &mut Option<usize>,
) {
    if batch.is_empty() {
        return;
    }
    let sync_err = engine.wal_sync().err();
    for mut d in batch.drain(..) {
        if let Some(e) = &sync_err {
            if !d.read_only && !d.rolled_back && d.error.is_none() {
                d.error = Some(e.to_string());
            }
        }
        report(idx, d, done, crash_after);
    }
}

/// What sets a primary's thread apart: its part in cross-shard
/// transactions, and the dispatcher that runs the ones it homes.
struct Primary<'a> {
    coord: Coord,
    cdisp: Dispatcher<'a>,
}

impl Primary<'_> {
    /// Hand on the wakes the coordinator collected: local sessions whose
    /// locks its legs released, and its own sessions whose waits
    /// completed.
    fn wake(&mut self, disp: &mut Dispatcher<'_>) {
        let (woken, ready) = self.coord.take_wakes();
        disp.wake_txns(&woken);
        self.cdisp.wake_txns(&ready);
    }

    /// Step the coordinator dispatcher once; `false` when it had nothing
    /// to do. A retired cross-shard transaction is reported at once: its
    /// outcome is what its commit legs reported, each after its
    /// participant's log sync, so the home's batch sync must not re-mark
    /// it.
    fn poll(
        &mut self,
        idx: usize,
        engine: &mut Engine,
        disp: &mut Dispatcher<'_>,
        done: &Results,
        crash_after: &mut Option<usize>,
    ) -> bool {
        let mut home = Home {
            coord: &mut self.coord,
            engine,
        };
        let polled = self.cdisp.poll(&mut home, &mut InstantEnv);
        self.wake(disp);
        match polled {
            Polled::Done(mut d) => {
                d.participants = self.coord.retire(d.tag);
                report(idx, d, done, crash_after);
                true
            }
            Polled::Progress => true,
            Polled::Idle => false,
        }
    }
}

/// What sets a primary's thread apart from a replica's: the work
/// between polls, how it waits when idle, and what it hands back.
enum Role<'a> {
    /// A shard primary: publishes its durable commit timestamp, homes
    /// cross-shard transactions and serves other homes' remote ops.
    Primary(Box<Primary<'a>>),
    /// A log-shipping replica: tails its shard's durable redo feed into
    /// its engine ([`Engine::apply_redo`]) and publishes its applied
    /// commit timestamp.
    Replica {
        feed: LogFeed,
        tailer: RedoTailer,
        buf: Vec<u8>,
    },
}

/// A shard thread's role as [`ShardedServer::spawn`] hands it over: a
/// primary's coordinator, or a replica's feed.
enum Seed {
    Primary(Box<Coord>),
    Replica(LogFeed),
}

impl Role<'_> {
    /// The work between polls. `false` stops the thread: a replica
    /// whose feed is corrupt cannot converge, and must stop serving
    /// rather than answer from a frozen horizon forever.
    fn between_polls(&mut self, engine: &mut Engine, horizon: &AtomicU64) -> bool {
        match self {
            Role::Primary(_) => {
                // Volatile engines (no WAL) publish the commit counter
                // itself — every in-memory commit is as "durable" as
                // this deployment gets.
                let durable = engine.wal_durable_ts();
                horizon.store(
                    durable.unwrap_or_else(|| engine.current_commit_ts()),
                    Ordering::Release,
                );
            }
            Role::Replica { feed, tailer, buf } => {
                // Apply whatever the primary has made durable since last
                // look. Open snapshots pin GC through the ordinary
                // refcount horizon, so applying redo between polls never
                // prunes a version an in-flight read can still observe.
                if tailer.catch_up_feed(feed, engine, buf).is_err() {
                    return false;
                }
                horizon.store(engine.current_commit_ts(), Ordering::Release);
            }
        }
        true
    }

    /// Wait for the next message once both dispatchers are idle (nothing
    /// runnable: any live session waits on a lock, an answer or a
    /// release); `None` when the thread should loop instead. Every input
    /// arrives in the inbox it blocks on, so only a replica checks first:
    /// a [`Msg::Wake`] consumed by this iteration's drain may stand for
    /// bytes the feed published after this iteration's catch-up. Parked
    /// statements and blocked sessions are safe to sleep on: nothing here
    /// is runnable, so each waits, directly or through another blocked
    /// session, on a message — an answer, a release, or another home's
    /// releasing commit or abort.
    fn idle_wait(&self, rx: &Receiver<Msg>) -> Option<Msg> {
        if let Role::Replica { feed, tailer, .. } = self {
            if feed.durable_len() > tailer.offset() {
                return None;
            }
        }
        Some(rx.recv().unwrap_or(Msg::Shutdown))
    }
}

/// Act on one inbox message; `false` once it says stop. Only a primary
/// is sent cross-shard requests, remote ops, answers and deaths.
fn on_msg(
    msg: Msg,
    engine: &mut Engine,
    disp: &mut Dispatcher<'_>,
    role: &mut Role<'_>,
    crash_after: &mut Option<usize>,
) -> bool {
    let primary = match role {
        Role::Primary(p) => Some(&mut **p),
        Role::Replica { .. } => None,
    };
    match (msg, primary) {
        (
            Msg::SubmitMulti {
                req,
                tag,
                age,
                hold,
            },
            Some(p),
        ) => {
            p.coord.admit(tag, age, hold);
            let admit = p.cdisp.submit_aged(0, req, tag, Some(age));
            debug_assert_ne!(admit, Admit::Rejected, "the server admits what fits");
        }
        (Msg::Submit { req, tag }, _) => {
            let admit = disp.submit(0, req, tag);
            debug_assert_ne!(admit, Admit::Rejected, "the server admits what fits");
        }
        (Msg::Remote(op), Some(p)) => {
            p.coord.serve(engine, op);
            p.wake(disp);
        }
        (Msg::Reply(reply), Some(p)) => {
            p.coord.on_reply(engine, reply);
            p.wake(disp);
        }
        (Msg::Release(vid), Some(p)) => {
            p.coord.release(engine, vid);
            p.wake(disp);
        }
        (Msg::HomeDied(dead), Some(p)) => {
            p.coord.end_orphans(engine, dead);
            p.wake(disp);
        }
        (
            Msg::SubmitMulti { .. }
            | Msg::Remote(_)
            | Msg::Reply(_)
            | Msg::Release(_)
            | Msg::HomeDied(_),
            None,
        ) => {}
        (Msg::Wake, _) => {} // the feed is tailed every iteration
        (Msg::Crash { after_done: 0 }, _) => crash(),
        (Msg::Crash { after_done }, _) => *crash_after = Some(after_done),
        (Msg::Shutdown, _) => return false,
    }
    true
}

/// Kill this shard thread the way a panic would, minus the panic hook's
/// report: unwind to [`run_worker`]'s `catch_unwind`.
pub(crate) fn crash() -> ! {
    std::panic::resume_unwind(Box::new("injected shard worker crash"))
}

/// The serving loop of one shard thread, whatever its role: do the
/// role's work between polls, drain the whole inbox (the server admits
/// no more submits than the dispatchers hold), retry parked statements,
/// drive the local dispatcher and — on a primary — the coordinator one,
/// and ship local retirements to the results channel in batches through
/// [`flush_dones`], the group-commit acknowledgement point. Returns
/// whether the thread stopped cleanly.
fn serve(
    idx: usize,
    engine: &mut Engine,
    disp: &mut Dispatcher<'_>,
    role: &mut Role<'_>,
    rx: &Receiver<Msg>,
    done: &Results,
    horizon: &AtomicU64,
) -> bool {
    let mut open = true;
    let mut batch: Vec<TxnDone> = Vec::new();
    let mut crash_after: Option<usize> = None;
    loop {
        if !role.between_polls(engine, horizon) {
            return false;
        }
        if let Role::Primary(p) = role {
            // Before the drain, so a lock the last turn's polls freed
            // serves its parked statement first (a release inside the
            // drain retries them on the spot).
            p.coord.retry_parked(engine);
            p.wake(disp);
        }
        while open {
            let msg = match rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => Msg::Shutdown,
            };
            open = on_msg(msg, engine, disp, role, &mut crash_after);
        }
        let busy = match role {
            Role::Primary(p) => p.poll(idx, engine, disp, done, &mut crash_after),
            Role::Replica { .. } => false,
        };
        match disp.poll(engine, &mut InstantEnv) {
            // Consecutive retirements batch up; the next non-Done poll
            // flushes them behind one log sync.
            Polled::Done(d) => batch.push(d),
            Polled::Progress => flush_dones(idx, engine, &mut batch, done, &mut crash_after),
            Polled::Idle => {
                flush_dones(idx, engine, &mut batch, done, &mut crash_after);
                if busy {
                    continue;
                }
                if !open {
                    // One last step on the way out: a replica's final
                    // catch-up (its primary has stopped, so the feed is
                    // complete) lands it on the durable prefix.
                    return role.between_polls(engine, horizon);
                }
                if let Some(msg) = role.idle_wait(rx) {
                    open = on_msg(msg, engine, disp, role, &mut crash_after);
                }
            }
        }
    }
}

/// The body of every shard thread, primary or replica by `seed`. The
/// thread owns its engine by value — nothing else touches a live shard's
/// engine; other homes send their ops to its inbox — and runs [`serve`]
/// once under `catch_unwind`, so it hands the engine back however the
/// loop ends: a shutdown, a failed feed, an injected kill or a panic.
/// Its inbox closes when it returns, which drops what is still queued
/// there (a dropped remote op answers its home as a participant death);
/// the server learns of the stop from the exit report its [`ExitGuard`]
/// sends.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    idx: usize,
    mut engine: Engine,
    seed: Seed,
    part: Arc<CompiledPartition>,
    cfg: ShardedConfig,
    rx: Receiver<Msg>,
    done: Results,
    horizon: Arc<AtomicU64>,
) -> Exit {
    let _exit = ExitGuard {
        idx,
        done: done.clone(),
    };
    let mut disp = Dispatcher::new(Deployment::Fixed(&part), &mut engine, cfg.dispatcher);
    let mut role = match seed {
        Seed::Primary(mut coord) => {
            // Cross-shard reads must lock — per-shard snapshots taken at
            // different instants are not one consistent cut (module
            // docs).
            let ccfg = DispatcherConfig {
                max_sessions: cfg.coordinators.max(1),
                snapshot_reads: false,
                ..cfg.dispatcher
            };
            let mut home = Home {
                coord: &mut coord,
                engine: &mut engine,
            };
            let cdisp = Dispatcher::new(Deployment::Fixed(&part), &mut home, ccfg);
            Role::Primary(Box::new(Primary {
                coord: *coord,
                cdisp,
            }))
        }
        Seed::Replica(feed) => Role::Replica {
            feed,
            tailer: RedoTailer::new(),
            buf: Vec::new(),
        },
    };
    let clean = catch_unwind(AssertUnwindSafe(|| {
        serve(idx, &mut engine, &mut disp, &mut role, &rx, &done, &horizon)
    }))
    .unwrap_or(false);
    let (tailer, coord) = match role {
        Role::Replica { tailer, .. } if clean => (Some(tailer), CoordStats::default()),
        Role::Replica { .. } => (None, CoordStats::default()),
        Role::Primary(p) => (None, p.coord.stats),
    };
    Exit {
        engine,
        tailer,
        stats: disp.stats(),
        coord,
    }
}

/// Route one row image to its owning shard, or replicate it to every
/// shard when its table has no shard key. The canonical loader primitive:
/// every loader that feeds a [`ShardedServer`] must place rows exactly
/// like this, or routed statements will miss them.
pub fn load_row_sharded(engines: &mut [Engine], table: &str, row: Vec<Scalar>) {
    let def = engines[0]
        .table_def(table)
        .unwrap_or_else(|| panic!("unknown table `{table}`"));
    match def.shard_of_row(&row, engines.len()) {
        Some(s) => engines[s].load_row(table, row),
        None => {
            for e in engines.iter_mut() {
                e.load_row(table, row.clone());
            }
        }
    }
}
