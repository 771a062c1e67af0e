//! The cross-shard coordinator, the only code that decides a cross-shard
//! outcome. A coordinator thread ([`coordinator`]) runs a one-session
//! [`crate::Dispatcher`] over [`Coord`], a [`Database`] façade that plans
//! and routes each statement on a row-less copy of the shards' schema,
//! ships it to its shards by SQL text over the remote-op protocol
//! ([`RemoteOp`]), and records each 2PC decision in the [`Decisions`]
//! registry a heal reads. The [`crate::shard`] module docs describe the
//! protocol.

use crate::dispatch::{Deployment, Dispatcher, DispatcherConfig, Polled, TxnDone};
use crate::env::InstantEnv;
use crate::shard::{Msg, Report, Results, COORD};
use crate::workload::TxnRequest;
use pyx_db::{
    shard_of, Database, DbError, Engine, EngineStats, PreparedId, QueryResult, Scalar, StmtRoute,
    TxnId,
};
use pyx_pyxil::CompiledPartition;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Coordinator→worker remote operation: one statement, or one 2PC leg,
/// sent in the shard's inbox as [`Msg::Remote`]. Every op carries its
/// own reply channel; a worker that dies drops the op, which the
/// coordinator observes as a closed reply channel (participant death).
pub(crate) enum RemoteOp {
    /// Execute one statement on this shard's branch. With `txn: None`
    /// the statement opens the branch first: a local read-write
    /// transaction under the coordinator's global wait-die `age`. The
    /// reply names the branch even when the statement failed. A
    /// statement that would block is parked worker-side (no reply yet,
    /// its branch kept) and retried until the lock frees or wait-die
    /// kills it.
    Exec {
        txn: Option<TxnId>,
        age: u64,
        stmt: Stmt,
        params: Vec<Scalar>,
        reply: Sender<(TxnId, Result<QueryResult, DbError>)>,
    },
    /// Phase 1: vote on commit ([`pyx_db::Engine::prepare_commit`]). `gtid` is
    /// the transaction's globally-unique wait-die age; the participant's
    /// yes-vote is durable (a `Prepare` record under this gtid) before
    /// the reply is sent.
    PrepareCommit {
        txn: TxnId,
        gtid: u64,
        reply: LegReply,
    },
    /// Phase 2: commit the branch and sync this shard's WAL before
    /// acknowledging — the participant-local acknowledgement point.
    Commit { txn: TxnId, reply: LegReply },
    /// Roll the branch back (coordinator-side abort, wait-die restart,
    /// or phase-1 veto cleanup).
    Abort { txn: TxnId, reply: LegReply },
}

/// Where a 2PC leg's outcome goes.
pub(crate) type LegReply = Sender<Result<(), DbError>>;

/// A statement as a coordinator ships it to a shard: by its SQL text, so
/// no statement id crosses a thread or outlives a shard's incarnation. A
/// constant site runs through the shard's prepared registry (a lookup by
/// text, since the registry dedups), dynamic SQL through the engine's
/// bounded ad-hoc path.
#[derive(Clone)]
pub(crate) enum Stmt {
    Site(Arc<str>),
    Text(String),
}

impl Stmt {
    pub(crate) fn execute(
        &self,
        engine: &mut Engine,
        txn: TxnId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        match self {
            Stmt::Site(sql) => {
                let id = engine.prepare(sql)?;
                engine.execute_prepared(txn, id, params)
            }
            Stmt::Text(sql) => engine.execute(txn, sql, params),
        }
    }
}

/// Where [`crate::ShardedServer::hold_next_multi`] parks the next
/// cross-shard transaction (test instrumentation).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldPoint {
    /// Right after the first participant's durable prepare ack, with
    /// the other votes out: where a prepared participant's death races
    /// the decision, and a heal must veto the still-voting coordinator.
    Vote,
    /// Between the commit decision and the commit fan-out.
    Commit,
}

/// Test hook plumbing: pause one cross-shard transaction at `at`.
/// `held_tx` fires when the transaction is parked there; it resumes when
/// `release_rx` yields (or its sender drops).
pub(crate) struct HoldHook {
    pub(crate) at: HoldPoint,
    pub(crate) held_tx: Sender<()>,
    pub(crate) release_rx: Receiver<()>,
}

/// One queued cross-shard transaction, with the hold hook armed for it.
pub(crate) struct CoordJob {
    pub(crate) req: TxnRequest,
    pub(crate) tag: u64,
    pub(crate) hold: Option<HoldHook>,
}

/// Counters a coordinator thread reports at shutdown.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CoordStats {
    pub(crate) jobs: u64,
    pub(crate) participants: u64,
    /// Rpc legs that observed a dead participant worker (closed
    /// channel, or a branch its successor never knew) — one count per
    /// observation, so a transaction whose cleanup also touches the dead
    /// shard counts more than once.
    pub(crate) participant_deaths: u64,
}

/// The live inbox of each shard's primary. Coordinators read the
/// *current* inbox on every rpc, so a primary respawned after a death
/// is reachable without restarting the coordinator pool; a dead
/// incarnation's inbox is closed, which is the participant-death
/// signal. A shard holds a closed sender until its first primary
/// starts.
pub(crate) type ShardLinks = Arc<Vec<Mutex<Sender<Msg>>>>;

/// Decision state of one cross-shard transaction in the coordinator
/// pool's registry ([`Decisions`]). The registry lock is the atomicity
/// point between a coordinator deciding commit and the supervisor
/// presumed-aborting a recovered in-doubt branch of the same gtid:
/// whichever takes the lock first wins, and the other observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GtidState {
    /// Prepare fan-out in progress: inserted *before* the first
    /// `PrepareCommit` rpc, so any participant whose durable yes-vote
    /// outlives its worker is guaranteed a registry entry while the
    /// outcome is still open. The supervisor resolves an in-doubt
    /// branch in this state as abort and flips the entry to
    /// [`GtidState::Abort`] — vetoing the still-voting coordinator.
    Voting,
    /// Decided commit (all yes-votes in, recorded before any
    /// participant can learn the outcome). `outstanding` counts
    /// participant legs that have not yet settled — decremented by the
    /// coordinator per acknowledged commit rpc and by the supervisor
    /// per in-doubt branch resolved at heal time; the entry is removed
    /// at zero, when no shard can still be in doubt for this gtid.
    Commit { outstanding: u32 },
    /// The supervisor presumed-aborted a recovered branch while the
    /// coordinator was still collecting votes. The coordinator must
    /// abort the surviving branches and report an error; it removes
    /// the entry, after which absence means the same thing.
    Abort,
}

/// The coordinator pool's commit-decision registry: gtid (global
/// wait-die age) → [`GtidState`]. An absent gtid is **presumed abort**
/// (safe: success is only acknowledged after every participant
/// committed and synced). Entries exist only from prepare fan-out to
/// the last participant's settlement, so the map stays bounded by the
/// in-flight cross-shard transaction count plus any legs awaiting a
/// heal. An unsettled leg's shard may hold the vote without the
/// decision in its durable log: it died, crash-stopped because it could
/// not log the decision, or applied the decision but failed to sync it.
/// Its entry stays, since a later recovery of that log needs it.
///
/// Only coordinators decide; a heal reads the outcome, or vetoes a gtid
/// still voting. Each transition is one method under one lock.
#[derive(Clone, Default)]
pub(crate) struct Decisions(Arc<Mutex<HashMap<u64, GtidState>>>);

impl Decisions {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, GtidState>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open `gtid`'s voting window, before its first prepare rpc.
    fn open(&self, gtid: u64) {
        self.lock().insert(gtid, GtidState::Voting);
    }

    /// Forget `gtid` after a veto: absence is presumed abort.
    fn forget(&self, gtid: u64) {
        self.lock().remove(&gtid);
    }

    /// The decision point, once every yes-vote is in: record commit
    /// with `legs` unsettled participant legs and return `true`, unless
    /// a heal vetoed the gtid mid-vote — then forget it and return
    /// `false`.
    fn decide(&self, gtid: u64, legs: u32) -> bool {
        let mut dec = self.lock();
        if dec.get(&gtid) == Some(&GtidState::Abort) {
            dec.remove(&gtid);
            return false;
        }
        dec.insert(gtid, GtidState::Commit { outstanding: legs });
        true
    }

    /// Settle `legs` acknowledged commit legs of `gtid`. The entry goes
    /// once every leg has settled (acknowledged by the coordinator, or
    /// resolved at a heal), so the registry cannot grow without bound
    /// under worker churn, while a leg that may still be in doubt
    /// somewhere keeps its commit entry.
    fn settle(&self, gtid: u64, legs: u32) {
        let mut dec = self.lock();
        if let Some(GtidState::Commit { outstanding }) = dec.get_mut(&gtid) {
            *outstanding = outstanding.saturating_sub(legs);
            if *outstanding == 0 {
                dec.remove(&gtid);
            }
        }
    }

    /// A heal's verdict on a recovered in-doubt branch of `gtid`:
    /// commit only if the gtid was decided commit. A gtid still voting
    /// is vetoed — the abort is written into its entry, atomically with
    /// the coordinator's [`Decisions::decide`].
    fn resolve(&self, gtid: u64) -> bool {
        let mut dec = self.lock();
        match dec.get(&gtid) {
            Some(GtidState::Commit { .. }) => true,
            Some(GtidState::Voting) => {
                dec.insert(gtid, GtidState::Abort);
                false
            }
            Some(GtidState::Abort) | None => false,
        }
    }

    /// Settle every in-doubt branch a healed shard's `engine` recovered
    /// with [`Decisions::resolve`]'s verdict: a gtid still voting is
    /// presumed abort and vetoed, so its coordinator aborts the
    /// survivors when its votes complete instead of committing. A branch
    /// committed here settles its leg. Returns how many branches were in
    /// doubt, committed and aborted.
    pub(crate) fn settle_in_doubt(&self, engine: &mut Engine) -> (u64, u64, u64) {
        let gtids = engine.in_doubt_gtids();
        let (mut committed, mut aborted) = (0, 0);
        for &gtid in &gtids {
            let commit = self.resolve(gtid);
            if engine.resolve_prepared(gtid, commit).is_ok() {
                if commit {
                    committed += 1;
                    self.settle(gtid, 1);
                } else {
                    aborted += 1;
                }
            }
        }
        (gtids.len() as u64, committed, aborted)
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

/// High bit marking a virtual (coordinator) transaction id; shards
/// allocate their own local ids for branches. A coordinator folds its
/// global age into the low bits so a restarted session carries the age
/// back through [`Database::begin_aged`].
const VIRTUAL_BIT: u64 = 1 << 63;

// ---- the 2PC coordinator ----

/// Coordinator-side engine façade: a [`Database`] whose statements fan
/// out to shard workers over the remote-op protocol. One per coordinator
/// thread; holds that coordinator's schema copy and site texts, the open
/// branches of its (single) in-flight transaction, and its 2PC counters.
pub(crate) struct Coord {
    /// Shared link table: the *current* inbox per shard (rewritten by
    /// the supervisor on failover — see [`ShardLinks`]).
    links: ShardLinks,
    /// Commit-decision registry shared with the supervisor (see
    /// [`Decisions`]).
    decisions: Decisions,
    /// A copy of the shards' schema holding no rows. It registers the
    /// constant sites and routes every statement: a route reads only the
    /// schema, which every shard shares, so no shard is asked.
    schema: Engine,
    /// Each constant site's text, indexed by its id in `schema`.
    sites: Vec<Arc<str>>,
    /// Open branch (local transaction) per shard.
    branches: Vec<Option<TxnId>>,
    /// Current transaction's global wait-die age.
    age: u64,
    /// The shared age counter (globally unique distributed ages).
    ages: Arc<AtomicU64>,
    /// Shards that opened a branch this transaction (monotone within a
    /// transaction; reset at begin).
    touched: u32,
    /// Participant count of the most recently closed transaction.
    last_participants: u32,
    hold: Option<HoldHook>,
    stats: CoordStats,
}

impl Coord {
    /// A coordinator over `links`, planning on a row-less copy of
    /// `shard`'s schema (any shard's: they all share one).
    pub(crate) fn new(
        links: ShardLinks,
        ages: Arc<AtomicU64>,
        decisions: Decisions,
        shard: &Engine,
    ) -> Coord {
        let mut schema = Engine::new();
        for table in shard.table_names() {
            schema.create_table(shard.table_def(&table).expect("a listed table").clone());
        }
        let n = links.len();
        Coord {
            links,
            decisions,
            schema,
            sites: Vec::new(),
            branches: vec![None; n],
            age: 0,
            ages,
            touched: 0,
            last_participants: 0,
            hold: None,
            stats: CoordStats::default(),
        }
    }

    fn shards(&self) -> usize {
        self.links.len()
    }

    /// One remote round trip: put the op in shard `s`'s inbox and wait
    /// for the reply — `None` when a closed channel on either leg says
    /// the worker is gone. The inbox is re-read from the link table per
    /// call, so rpcs reach a respawned worker without restarting this
    /// coordinator.
    fn rpc<R>(&self, s: usize, make: impl FnOnce(Sender<R>) -> RemoteOp) -> Option<R> {
        let inbox = self.links[s]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let (tx, rx) = mpsc::channel();
        inbox.send(Msg::Remote(make(tx))).ok()?;
        rx.recv().ok()
    }

    /// Shard `s`'s answer, with a participant death made an error: the
    /// worker is gone, or the shard does not know the branch (a later
    /// incarnation: the branch died with the worker). The transaction
    /// cannot know its branch's fate there; each such observation counts
    /// in [`CoordStats::participant_deaths`].
    fn answer<T>(&mut self, s: usize, reply: Option<Result<T, DbError>>) -> Result<T, DbError> {
        match reply {
            Some(Err(DbError::UnknownTxn)) | None => {
                self.stats.participant_deaths += 1;
                Err(DbError::Durability(format!(
                    "shard {s} worker died during a cross-shard transaction"
                )))
            }
            Some(r) => r,
        }
    }

    /// One 2PC leg on shard `s`'s branch.
    fn leg(&mut self, s: usize, make: impl FnOnce(LegReply) -> RemoteOp) -> Result<(), DbError> {
        let reply = self.rpc(s, make);
        self.answer(s, reply)
    }

    /// Run `stmt` on shard `s`. The first statement there opens the
    /// branch under the transaction's global age — this lazy enlistment
    /// IS participant selection. The reply names the branch even when the
    /// statement failed, and it is recorded before the result is looked
    /// at, so every abort path reaches it.
    fn exec_on(&mut self, s: usize, stmt: Stmt, params: &[Scalar]) -> Result<QueryResult, DbError> {
        let (txn, age) = (self.branches[s], self.age);
        let reply = self.rpc(s, |reply| RemoteOp::Exec {
            txn,
            age,
            stmt,
            params: params.to_vec(),
            reply,
        });
        let result = reply.map(|(branch, result)| {
            if self.branches[s].replace(branch).is_none() {
                self.touched += 1;
            }
            result
        });
        self.answer(s, result)
    }

    /// Run `stmt` on the shards `route` names.
    fn run(
        &mut self,
        route: StmtRoute,
        stmt: Stmt,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        match route {
            StmtRoute::ByParam { param } => {
                let key = params
                    .get(param)
                    .ok_or_else(|| DbError::Schema(format!("routing parameter {param} missing")))?;
                let s = shard_of(key, self.shards());
                self.exec_on(s, stmt, params)
            }
            StmtRoute::ByLit(lit) => {
                let s = shard_of(&lit, self.shards());
                self.exec_on(s, stmt, params)
            }
            // Replicated reads may use any replica; shard 0 keeps runs
            // deterministic. Replicated writes apply everywhere so the
            // copies stay byte-identical (the result is the same on each).
            StmtRoute::Replicated { write: false } => self.exec_on(0, stmt, params),
            StmtRoute::Replicated { write: true } => {
                let mut out = None;
                for s in 0..self.shards() {
                    out = Some(self.exec_on(s, stmt.clone(), params)?);
                }
                Ok(out.expect("at least one shard"))
            }
            StmtRoute::Scatter {
                mergeable: false, ..
            } => Err(DbError::Schema(
                "cross-shard ordered/aggregate scan is not routable; \
                 add a shard-key equality predicate"
                    .into(),
            )),
            StmtRoute::Scatter { .. } => self.exec_scatter(&stmt, params),
            StmtRoute::Unroutable { reason } => Err(DbError::Schema(reason.into())),
        }
    }

    /// Run on every shard and merge: result rows concatenate in shard
    /// order, affected counts and virtual costs sum.
    ///
    /// Row ORDER contract: a statement without ORDER BY has unspecified
    /// row order in SQL, and that is exactly what a scatter read
    /// delivers — shard-concatenation order, which differs from a single
    /// engine's primary-key scan order (and cannot be reconstructed
    /// after projection may have dropped the key columns). Programs that
    /// depend on the order of an unordered multi-shard scan are relying
    /// on unspecified behavior; order-sensitive scans must add ORDER BY,
    /// which the router then refuses to scatter
    /// ([`StmtRoute::Scatter`]`::mergeable == false`) rather than merge
    /// wrongly.
    fn exec_scatter(&mut self, stmt: &Stmt, params: &[Scalar]) -> Result<QueryResult, DbError> {
        let mut merged: Option<QueryResult> = None;
        for s in 0..self.shards() {
            let r = self.exec_on(s, stmt.clone(), params)?;
            match &mut merged {
                None => merged = Some(r),
                Some(m) => {
                    m.rows.extend(r.rows);
                    m.affected += r.affected;
                    m.cost += r.cost;
                }
            }
        }
        Ok(merged.expect("at least one shard"))
    }

    /// Park here if this job's hold hook is armed for `at` (test
    /// instrumentation; see [`HoldPoint`]).
    fn hold(&mut self, at: HoldPoint) {
        if let Some(h) = self.hold.take_if(|h| h.at == at) {
            let _ = h.held_tx.send(());
            let _ = h.release_rx.recv();
        }
    }

    /// Abort every open branch, reporting the first failure: a veto, a
    /// vetoed decision, [`Database::abort`], and the leak-check after a
    /// session that never reached commit or abort.
    fn abort_branches(&mut self) -> Result<(), DbError> {
        let mut err = Ok(());
        for s in 0..self.branches.len() {
            if let Some(txn) = self.branches[s].take() {
                err = err.and(self.leg(s, |reply| RemoteOp::Abort { txn, reply }));
            }
        }
        err
    }

    /// The commit protocol. Participants = shards with an open branch.
    /// 0 participants: trivially committed. 1: straight commit, no
    /// prepare round (a single shard cannot partially commit). 2+: full
    /// presumed-abort 2PC — prepare everywhere (any veto or death
    /// aborts every branch), then commit everywhere (each participant
    /// syncs its own WAL before acknowledging).
    fn commit_2pc(&mut self) -> Result<(u64, Vec<TxnId>), DbError> {
        let parts: Vec<(usize, TxnId)> = self
            .branches
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (s, t)))
            .collect();
        self.last_participants = parts.len() as u32;
        let multi = parts.len() >= 2;
        if multi {
            let gtid = self.age;
            // Open the voting window in the registry BEFORE the first
            // participant can durably prepare. A participant that acks
            // its prepare and dies while the remaining votes are still
            // out is then guaranteed to find this entry: the
            // supervisor's heal resolves the branch as presumed abort
            // and vetoes the gtid — and the decision point below, taken
            // under the same lock, sees the veto instead of committing
            // the survivors.
            self.decisions.open(gtid);
            for (i, &(s, t)) in parts.iter().enumerate() {
                let vote = self.leg(s, |reply| RemoteOp::PrepareCommit {
                    txn: t,
                    gtid,
                    reply,
                });
                if i == 0 && vote.is_ok() {
                    self.hold(HoldPoint::Vote);
                }
                if let Err(e) = vote {
                    // Presumed abort: one veto rolls back every branch
                    // (prepared ones release their locks; the engines
                    // count those as prepare-aborts). Forgetting the
                    // gtid restores "absent gtid = abort": a
                    // participant that crashed with its prepare
                    // durable recovers the branch in-doubt and
                    // presumed-aborts it too. (Heal may already have
                    // vetoed the gtid — same verdict.)
                    self.decisions.forget(gtid);
                    let _ = self.abort_branches();
                    return Err(e);
                }
            }
            // All yes-votes are durable. The decision point: record
            // commit *before* any participant can learn the outcome (the
            // fan-out below), so a participant killed between its
            // prepare-ack and the decision recovers this gtid as a
            // commit — unless the supervisor presumed-aborted a
            // recovered branch of it mid-vote, in which case that branch
            // is gone and commit is no longer possible: honor the veto.
            if !self.decisions.decide(gtid, parts.len() as u32) {
                let _ = self.abort_branches();
                return Err(DbError::Durability(
                    "a prepared participant failed over during voting; \
                     transaction presumed aborted"
                        .into(),
                ));
            }
        }
        // Decided: clear the branch table, so no abort — the session's
        // or the job's leak-check — can reach a branch from here on.
        self.branches.fill(None);
        self.hold(HoldPoint::Commit);
        // Commit phase: a participant failure here (worker death, or a
        // participant that could not log the decision and crash-stopped)
        // is reported loudly as the transaction's error. The registry
        // entry retained for the unsettled legs lets a heal of that
        // participant complete the commit from its durable yes-vote.
        let mut first_err = None;
        let mut acked = 0u32;
        for &(s, t) in &parts {
            match self.leg(s, |reply| RemoteOp::Commit { txn: t, reply }) {
                Ok(()) => acked += 1,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if multi {
            self.decisions.settle(self.age, acked);
        }
        match first_err {
            None => {
                self.stats.participants += parts.len() as u64;
                Ok((0, Vec::new()))
            }
            Some(e) => Err(e),
        }
    }
}

impl Database for Coord {
    fn begin(&mut self) -> TxnId {
        debug_assert!(
            self.branches.iter().all(Option::is_none),
            "one transaction per coordinator at a time"
        );
        self.age = self.ages.fetch_add(1, Ordering::Relaxed);
        self.touched = 0;
        // The virtual id folds the age into its low bits: the session
        // records `id.0` as its wait-die age, so a restart hands the
        // original age back through `begin_aged` below.
        TxnId(VIRTUAL_BIT | self.age)
    }

    fn begin_aged(&mut self, age: u64) -> TxnId {
        self.age = age & !VIRTUAL_BIT;
        self.touched = 0;
        TxnId(VIRTUAL_BIT | self.age)
    }

    fn begin_read_only(&mut self) -> TxnId {
        // Never reached in practice: coordinator sessions run with
        // snapshot reads disabled (per-shard snapshots at different
        // instants are not one consistent cut). Defensive: run locking.
        self.begin()
    }

    fn commit(&mut self, _txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        self.commit_2pc()
    }

    fn abort(&mut self, _txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let aborted = self.abort_branches();
        self.last_participants = self.touched;
        aborted.map(|()| (0, Vec::new()))
    }

    /// Register a constant-SQL site on the schema copy and keep its text,
    /// in which it travels ([`Stmt::Site`]). No shard is asked. Sessions
    /// cache the handle in their prepared-site tables.
    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        let id = self.schema.prepare(sql)?;
        if id.0 as usize == self.sites.len() {
            self.sites.push(sql.into());
        }
        Ok(id)
    }

    /// Dynamic SQL is routed on the schema copy, and each shard it routes
    /// to runs the text through its engine's bounded ad-hoc path, so no
    /// registry grows with dynamic SQL.
    fn execute(
        &mut self,
        _txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let route = self.schema.route(sql)?;
        self.run(route, Stmt::Text(sql.to_string()), params)
    }

    fn execute_prepared(
        &mut self,
        _txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let route = self.schema.prepared_route(id)?;
        let sql = Arc::clone(&self.sites[id.0 as usize]);
        self.run(route, Stmt::Site(sql), params)
    }

    /// Coordinators run no statement themselves; per-shard counters
    /// (including the 2PC prepare/prepare-abort counts) are read off the
    /// shard engines at shutdown instead.
    fn db_stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

/// Poll budget of one cross-shard job; a session still running past it
/// is abandoned with an error result.
const STEP_BUDGET: u64 = 100_000_000;

/// One coordinator thread: build a one-session [`Dispatcher`] over the
/// [`Coord`] façade (its sites prepare on the schema copy), then serve
/// cross-shard jobs from the shared queue until the server drops it.
/// The dispatcher runs each job's session exactly as a shard worker
/// runs a local one, wait-die restarts with the age retained included.
/// A panic inside a job is contained: the job's branches are aborted,
/// the dispatcher is rebuilt, and the transaction reports an error
/// result instead of wedging the server.
pub(crate) fn coordinator(
    part: Arc<CompiledPartition>,
    dcfg: DispatcherConfig,
    jobs: Arc<Mutex<Receiver<CoordJob>>>,
    mut coord: Coord,
    done: Results,
) -> CoordStats {
    // Cross-shard reads must lock — per-shard snapshots taken at
    // different instants are not one consistent cut (module docs).
    let cfg = DispatcherConfig {
        max_sessions: 1,
        snapshot_reads: false,
        ..dcfg
    };
    let mut disp = Dispatcher::new(Deployment::Fixed(&part), &mut coord, cfg);
    loop {
        // Holding the queue lock across `recv` serializes job *pickup*
        // (one coordinator waits at a time); execution still overlaps.
        let job = match jobs.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(j) => j,
            Err(_) => break, // server dropped the sender: shutdown
        };
        coord.stats.jobs += 1;
        coord.hold = job.hold;
        coord.last_participants = 0;
        let (entry, label, tag) = (job.req.entry, job.req.label, job.tag);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_to_retirement(&mut disp, &mut coord, job.req, tag)
        }))
        .unwrap_or(Err("cross-shard coordinator panicked; transaction aborted"));
        let mut d = match ran {
            Ok(d) => d,
            Err(why) => {
                // The abandoned session goes with its dispatcher.
                disp = Dispatcher::new(Deployment::Fixed(&part), &mut coord, cfg);
                TxnDone::failed(tag, entry, label, why.into())
            }
        };
        // Leak-check: a session that died without reaching commit/abort
        // (step budget, panic) must not leave branches holding row locks.
        let _ = coord.abort_branches();
        d.participants = coord.last_participants;
        coord.hold = None;
        let _ = done.send((COORD, Report::Done(d)));
    }
    coord.stats
}

/// Submit `req` to the coordinator's idle one-session dispatcher and
/// poll until it retires, or `Err` once [`STEP_BUDGET`] polls pass.
/// After each wait-die restart the thread pauses 50µs of real time:
/// the older lock holder that killed the session runs on another
/// thread, and the pause lets it finish before the retry (the retained
/// age guarantees progress regardless).
fn run_to_retirement(
    disp: &mut Dispatcher<'_>,
    coord: &mut Coord,
    req: TxnRequest,
    tag: u64,
) -> Result<TxnDone, &'static str> {
    disp.submit(0, req, tag);
    let mut restarts = disp.stats().deadlock_restarts;
    for _ in 0..STEP_BUDGET {
        match disp.poll(coord, &mut InstantEnv) {
            Polled::Done(d) => return Ok(d),
            Polled::Progress => {}
            Polled::Idle => unreachable!("a live session always has a pending event"),
        }
        let seen = disp.stats().deadlock_restarts;
        if seen > restarts {
            restarts = seen;
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    Err("cross-shard session exceeded its step budget")
}

#[cfg(test)]
mod tests {
    use super::Decisions;

    #[test]
    fn absent_gtid_is_presumed_abort() {
        let dec = Decisions::default();
        assert!(!dec.resolve(7), "no entry: abort");
        assert_eq!(dec.len(), 0, "the verdict writes nothing");
        dec.settle(7, 1); // settling nothing is a no-op
        assert_eq!(dec.len(), 0);
    }

    #[test]
    fn a_veto_forgets_the_gtid() {
        let dec = Decisions::default();
        dec.open(7);
        assert_eq!(dec.len(), 1);
        dec.forget(7);
        assert_eq!(dec.len(), 0);
        assert!(!dec.resolve(7), "forgotten: presumed abort");
    }

    #[test]
    fn heal_during_voting_vetoes_the_decision() {
        let dec = Decisions::default();
        dec.open(7);
        assert!(!dec.resolve(7), "a voting gtid resolves as abort");
        assert!(!dec.resolve(7), "and stays aborted");
        assert!(!dec.decide(7, 2), "the coordinator finds the veto");
        assert_eq!(dec.len(), 0, "the vetoed entry is gone");
    }

    #[test]
    fn heal_after_the_decision_resolves_commit() {
        let dec = Decisions::default();
        dec.open(7);
        assert!(dec.decide(7, 2));
        assert!(dec.resolve(7), "a decided gtid resolves as commit");
        dec.settle(7, 1); // the healed leg
        assert_eq!(dec.len(), 1, "one leg still unsettled");
    }

    #[test]
    fn settling_the_last_leg_removes_the_entry() {
        let dec = Decisions::default();
        dec.open(7);
        dec.open(8);
        assert!(dec.decide(7, 3));
        dec.settle(7, 2);
        assert_eq!(dec.len(), 2);
        dec.settle(7, 1);
        assert_eq!(dec.len(), 1, "gtid 7 settled; 8 is still voting");
        assert!(!dec.resolve(7), "a settled gtid is absent again");
    }
}
