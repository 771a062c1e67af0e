//! Cross-shard transactions, hosted on the primary shard threads: the
//! only code that decides a cross-shard outcome. Each primary thread has
//! a [`Coord`]. As a *home* it runs the cross-shard sessions it admitted
//! on a second [`crate::Dispatcher`] over [`Home`], a [`Database`] façade
//! that plans each statement on the thread's own engine, runs the home
//! shard's part there and ships the rest to the other shards by SQL text
//! ([`RemoteOp`]); each commit runs through [`Commit`], the 2PC state
//! machine over the [`Decisions`] registry a heal reads. A façade call
//! that waits on another shard returns [`DbError::WouldBlock`], so its
//! session parks as on a row lock, and the answer that completes it
//! wakes it. As a *participant* it serves other homes' ops. The
//! [`crate::shard`] module docs describe the protocol.

use crate::shard::{crash, Msg};
use pyx_db::{
    shard_of, Database, DbError, Engine, EngineStats, PreparedId, QueryResult, Scalar, StmtRoute,
    TxnId,
};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// A home's op for one shard's branch, sent in that shard's inbox as
/// [`Msg::Remote`]; its answer goes to the home's inbox ([`ReplyTo`]).
pub(crate) struct RemoteOp {
    to: ReplyTo,
    kind: OpKind,
}

enum OpKind {
    /// Run one statement on the branch. With `txn: None` it opens the
    /// branch first, under the transaction's global wait-die `age`; the
    /// answer names the branch even when the statement failed. One that
    /// would block is parked and retried until the lock frees or
    /// wait-die kills it.
    Exec {
        txn: Option<TxnId>,
        age: u64,
        stmt: Stmt,
        params: Vec<Scalar>,
    },
    Leg(Leg),
}

/// What a 2PC leg asks of a participant's branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LegKind {
    /// Vote ([`Engine::prepare_commit`]): durable before it is answered.
    Prepare,
    /// Commit, and sync this shard's log before answering.
    Commit,
    Abort,
}

/// Legs to send: (shard, what to ask of its branch).
pub(crate) type Legs = Vec<(usize, LegKind)>;

/// One 2PC leg, addressed to a branch. `gtid` is the transaction's when
/// it has two or more participants: a prepare votes under it, and a
/// commit settles its registry entry. A one-participant commit decides
/// nothing and has none.
#[derive(Debug, Clone, Copy)]
struct Leg {
    kind: LegKind,
    txn: TxnId,
    gtid: Option<u64>,
}

/// Serve one 2PC leg on `engine`, adding the transactions its lock
/// releases wake to `woken`. A participant never decides: a prepared
/// branch whose decision cannot be logged crash-stops rather than abort,
/// leaving its vote in doubt in its durable log. A committed leg of a
/// decided gtid is settled here, once this shard's log is synced, so it
/// counts whoever dies next.
fn serve_leg(
    engine: &mut Engine,
    leg: Leg,
    decisions: &Decisions,
    woken: &mut Vec<TxnId>,
) -> Result<(), DbError> {
    let txn = leg.txn;
    match leg.kind {
        LegKind::Prepare => engine.prepare_commit(txn, leg.gtid.expect("a vote has a gtid")),
        LegKind::Commit => match engine.commit(txn) {
            Ok((_, released)) => {
                woken.extend(released);
                engine.wal_sync()?;
                if let Some(gtid) = leg.gtid {
                    decisions.settle(gtid, 1);
                }
                Ok(())
            }
            Err(DbError::Durability(_)) if engine.is_prepared(txn) => crash(),
            Err(e) => {
                // An unprepared branch's failed commit leaves it open
                // (locks held); abort to release them before reporting.
                if let Ok((_, released)) = engine.abort(txn) {
                    woken.extend(released);
                }
                Err(e)
            }
        },
        LegKind::Abort => engine
            .abort(txn)
            .map(|(_, released)| woken.extend(released)),
    }
}

/// Where an op's answer goes: its home's inbox, under the asking
/// transaction's virtual id. An op dropped unanswered — its shard died
/// holding it, or its inbox was closed — answers [`Answer::Lost`] from
/// its drop, so a participant's death always reaches the home.
pub(crate) struct ReplyTo {
    /// The home shard, which participants record per branch.
    home: usize,
    inbox: Sender<Msg>,
    vid: u64,
    /// The shard the op is for.
    shard: usize,
    answered: bool,
}

impl ReplyTo {
    fn answer(mut self, answer: Answer) {
        self.answered = true;
        let (vid, shard) = (self.vid, self.shard);
        let _ = self.inbox.send(Msg::Reply(Reply { vid, shard, answer }));
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if !self.answered {
            let (vid, shard, answer) = (self.vid, self.shard, Answer::Lost);
            let _ = self.inbox.send(Msg::Reply(Reply { vid, shard, answer }));
        }
    }
}

/// A participant's answer to one of a home's ops.
pub(crate) struct Reply {
    vid: u64,
    shard: usize,
    answer: Answer,
}

enum Answer {
    /// A statement's result, and the branch it ran on.
    Stmt(TxnId, Result<QueryResult, DbError>),
    Leg(Result<(), DbError>),
    /// The op was dropped unanswered: its shard died.
    Lost,
}

/// A statement as a home ships it to a shard: by its SQL text, so no
/// statement id crosses a thread or outlives a shard's incarnation. A
/// constant site runs through the shard's prepared registry (a lookup by
/// text, since the registry dedups), dynamic SQL through the engine's
/// bounded ad-hoc path.
#[derive(Clone)]
enum Stmt {
    Site(Arc<str>),
    Text(Arc<str>),
}

impl Stmt {
    fn execute(
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
    /// Right after the first participant's durable prepare ack, with the
    /// other votes still unread: where a prepared participant's death
    /// races the decision, and a heal must veto the still-voting home.
    /// The home sends the other prepares before it votes inline, so with
    /// the home participating its own vote comes first.
    Vote,
    /// Between the commit decision and the commit fan-out.
    Commit,
}

/// Test hook plumbing: pause one cross-shard transaction at `at`.
/// `held_tx` fires when the transaction parks there; it resumes when
/// `release_rx` receives (or its sender drops). The session parks, and a
/// helper thread blocked on `release_rx` wakes the home, so a hold never
/// blocks a shard thread.
pub(crate) struct HoldHook {
    pub(crate) at: HoldPoint,
    pub(crate) held_tx: Sender<()>,
    pub(crate) release_rx: Receiver<()>,
}

/// Counters a home reports when its thread stops.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CoordStats {
    /// Cross-shard transactions retired.
    pub(crate) txns: u64,
    pub(crate) participants: u64,
    /// Answers that showed a dead participant (an op lost with its
    /// shard, or a branch its successor never knew) — one count per
    /// observation, so a transaction whose cleanup also touches the dead
    /// shard counts more than once.
    pub(crate) participant_deaths: u64,
}

impl CoordStats {
    pub(crate) fn merge(&mut self, o: &CoordStats) {
        self.txns += o.txns;
        self.participants += o.participants;
        self.participant_deaths += o.participant_deaths;
    }
}

/// The live inbox of each shard's primary. Homes read the *current*
/// inbox on every send, so a primary respawned after a death is
/// reachable at once; a dead incarnation's inbox is closed, which drops
/// the op and so answers [`Answer::Lost`]. A shard holds a closed sender
/// until its first primary starts.
pub(crate) type ShardLinks = Arc<Vec<Mutex<Sender<Msg>>>>;

/// Decision state of one cross-shard transaction in the [`Decisions`]
/// registry. The registry lock is the atomicity point between a home
/// deciding commit and a heal presumed-aborting a recovered in-doubt
/// branch of the same gtid: whichever takes the lock first wins, and the
/// other observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GtidState {
    /// Prepare fan-out in progress: inserted *before* the first prepare
    /// is sent, so any participant whose durable yes-vote outlives its
    /// thread is guaranteed a registry entry while the outcome is still
    /// open. A heal resolves an in-doubt branch in this state as abort
    /// and flips the entry to [`GtidState::Abort`] — vetoing the
    /// still-voting home.
    Voting,
    /// Decided commit (all yes-votes in, recorded before any participant
    /// can learn the outcome). `outstanding` counts participant legs
    /// that have not yet settled — decremented by each participant that
    /// commits and syncs its branch, and by a heal per in-doubt branch
    /// it commits; the entry is removed at zero, when no shard can still
    /// be in doubt for this gtid.
    Commit { outstanding: u32 },
    /// A heal presumed-aborted a recovered branch while the home was
    /// still collecting votes. The home must abort the surviving branches
    /// and report an error; it removes the entry, after which absence
    /// means the same thing.
    Abort,
}

/// The commit-decision registry every home shares: gtid (global wait-die
/// age) → [`GtidState`], and the home that opened it. An absent gtid is
/// **presumed abort** (safe: success is only acknowledged after every
/// participant committed and synced). Entries exist only from prepare
/// fan-out to the last participant's settlement, so the map stays bounded
/// by the in-flight cross-shard transaction count plus any legs awaiting
/// a heal. An unsettled leg's shard may hold the vote without the
/// decision in its durable log: it died, crash-stopped because it could
/// not log the decision, or applied the decision but failed to sync it.
/// Its entry stays, since a later recovery of that log needs it.
///
/// Only homes decide; a heal reads the outcome, or vetoes a gtid still
/// voting. Each transition is one method under one lock.
#[derive(Clone, Default)]
pub(crate) struct Decisions(Arc<Mutex<HashMap<u64, (usize, GtidState)>>>);

impl Decisions {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, (usize, GtidState)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open `gtid`'s voting window for its `home`, before its first
    /// prepare is sent.
    fn open(&self, gtid: u64, home: usize) {
        self.lock().insert(gtid, (home, GtidState::Voting));
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
        match dec.get_mut(&gtid) {
            Some((_, state)) if *state == GtidState::Voting => {
                *state = GtidState::Commit { outstanding: legs };
                true
            }
            _ => {
                dec.remove(&gtid);
                false
            }
        }
    }

    /// Settle `legs` committed legs of `gtid`. The entry goes once every
    /// leg has settled, so the registry cannot grow without bound under
    /// worker churn, while a leg that may still be in doubt somewhere
    /// keeps its commit entry.
    pub(crate) fn settle(&self, gtid: u64, legs: u32) {
        let mut dec = self.lock();
        if let Some((_, GtidState::Commit { outstanding })) = dec.get_mut(&gtid) {
            *outstanding = outstanding.saturating_sub(legs);
            if *outstanding == 0 {
                dec.remove(&gtid);
            }
        }
    }

    /// The verdict on a prepared branch its home cannot finish — one a
    /// heal recovered in doubt, or one a dead home left on a live shard:
    /// commit only if the gtid was decided commit. A gtid still voting
    /// is vetoed — the abort is written into its entry, atomically with
    /// its home's [`Decisions::decide`].
    pub(crate) fn resolve(&self, gtid: u64) -> bool {
        match self.lock().get_mut(&gtid) {
            Some((_, GtidState::Commit { .. })) => true,
            Some((_, state)) => {
                *state = GtidState::Abort;
                false
            }
            None => false,
        }
    }

    /// The dead-home step, run when `home`'s primary is reaped and before
    /// any branch it left is ended: forget every gtid it opened and never
    /// decided. Absence is presumed abort, and a dead home can no longer
    /// decide; a decided gtid stays until its last leg settles.
    pub(crate) fn forget_home(&self, home: usize) {
        self.lock()
            .retain(|_, (h, state)| *h != home || matches!(state, GtidState::Commit { .. }));
    }

    /// Settle every in-doubt branch a healed shard's `engine` recovered
    /// with [`Decisions::resolve`]'s verdict: a gtid still voting is
    /// presumed abort and vetoed, so its home aborts the survivors when
    /// its votes complete instead of committing. The committed legs
    /// settle only once one sync has made their decide records durable,
    /// as [`serve_leg`]'s do: a leg settled sooner would be presumed
    /// aborted if the shard died again and lost the record. Returns how
    /// many branches were in doubt, committed and aborted, or the error
    /// that kept a verdict from the log — then nothing is settled.
    pub(crate) fn settle_in_doubt(&self, engine: &mut Engine) -> Result<(u64, u64, u64), DbError> {
        let gtids = engine.in_doubt_gtids();
        let mut committed = Vec::new();
        for &gtid in &gtids {
            let commit = self.resolve(gtid);
            engine.resolve_prepared(gtid, commit)?;
            if commit {
                committed.push(gtid);
            }
        }
        engine.wal_sync()?;
        for &gtid in &committed {
            self.settle(gtid, 1);
        }
        let (n, c) = (gtids.len() as u64, committed.len() as u64);
        Ok((n, c, n - c))
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

/// One transaction's commit protocol as a pure state machine over
/// [`Decisions`]: [`Commit::start`] and [`Commit::step`] turn each answer
/// into the legs to send next, with no thread or channel in sight.
/// Participants = shards with an open branch. 0: trivially committed.
/// 1: straight commit, no prepare round (a single shard cannot partially
/// commit). 2+: presumed-abort 2PC — open the gtid, prepare everywhere at
/// once, and once every vote is in either abort every branch (a veto, a
/// death, or a heal's veto) or decide commit and commit everywhere at
/// once. A failed commit leg fails the transaction; its registry entry
/// keeps the unsettled leg for that participant's heal.
#[derive(Debug)]
pub(crate) enum Commit {
    Voting {
        gtid: u64,
        parts: Vec<usize>,
        out: usize,
        veto: Option<(usize, DbError)>,
    },
    Committing {
        out: usize,
        err: Option<(usize, DbError)>,
    },
    Done(Result<(), DbError>),
}

impl Commit {
    /// Begin committing gtid `gtid`, homed at `home`, on `parts` (the
    /// shards with a branch, ascending).
    pub(crate) fn start(
        gtid: u64,
        home: usize,
        parts: Vec<usize>,
        dec: &Decisions,
    ) -> (Commit, Legs) {
        let (out, err) = (parts.len(), None);
        match out {
            0 => (Commit::Done(Ok(())), Vec::new()),
            1 => (
                Commit::Committing { out, err },
                vec![(parts[0], LegKind::Commit)],
            ),
            _ => {
                // Open the voting window BEFORE any participant can
                // durably prepare: a participant that acks its prepare
                // and dies while other votes are out then finds this
                // entry, and its heal vetoes the gtid — which the
                // decision point, under the same lock, honours.
                dec.open(gtid, home);
                let legs = parts.iter().map(|&s| (s, LegKind::Prepare)).collect();
                let veto = None;
                (
                    Commit::Voting {
                        gtid,
                        parts,
                        out,
                        veto,
                    },
                    legs,
                )
            }
        }
    }

    /// Feed shard `shard`'s answer to the leg it was last sent; returns
    /// the legs to send next. Failures keep the lowest-numbered shard's
    /// error, so an outcome does not depend on arrival order.
    pub(crate) fn step(&mut self, shard: usize, r: Result<(), DbError>, dec: &Decisions) -> Legs {
        let (out, err) = match self {
            Commit::Voting { out, veto, .. } => (out, veto),
            Commit::Committing { out, err } => (out, err),
            Commit::Done(_) => return Vec::new(),
        };
        if let Err(e) = r {
            if err.as_ref().is_none_or(|(s, _)| shard < *s) {
                *err = Some((shard, e));
            }
        }
        *out -= 1;
        if *out > 0 {
            return Vec::new();
        }
        let err = err.take().map(|(_, e)| e);
        let Commit::Voting { gtid, parts, .. } = self else {
            *self = Commit::Done(err.map_or(Ok(()), Err));
            return Vec::new();
        };
        let (gtid, parts) = (*gtid, std::mem::take(parts));
        let verdict = match err {
            // Presumed abort: one veto rolls back every branch.
            // Forgetting the gtid restores "absent gtid = abort" (a heal
            // may already have vetoed it — same verdict).
            Some(e) => {
                dec.forget(gtid);
                Err(e)
            }
            // All yes-votes are durable. Record commit before any
            // participant can learn the outcome — unless a heal
            // presumed-aborted a recovered branch mid-vote: that branch
            // is gone, so honour the veto.
            None if dec.decide(gtid, parts.len() as u32) => Ok(()),
            None => Err(DbError::Durability(
                "a prepared participant failed over during voting; \
                 transaction presumed aborted"
                    .into(),
            )),
        };
        let kind = if verdict.is_ok() {
            LegKind::Commit
        } else {
            LegKind::Abort
        };
        *self = match verdict {
            Ok(()) => Commit::Committing {
                out: parts.len(),
                err: None,
            },
            Err(e) => Commit::Done(Err(e)),
        };
        parts.iter().map(|&s| (s, kind)).collect()
    }
}

/// High bit marking a virtual (home-side) transaction id. Shards
/// allocate their own local ids for branches.
const VIRTUAL_BIT: u64 = 1 << 63;

/// The error a participant death becomes.
fn death(shard: usize) -> DbError {
    DbError::Durability(format!(
        "shard {shard} worker died during a cross-shard transaction"
    ))
}

/// One cross-shard request a home admitted, by its wait-die age.
struct Request {
    hold: Option<HoldHook>,
    /// Participants of its latest transaction to commit or abort.
    participants: u32,
}

/// Merge a statement's answers, in shard order: result rows concatenate,
/// affected counts and virtual costs sum (a replicated write keeps one
/// copy's answer), and the lowest-numbered shard's error wins.
///
/// Row ORDER contract: a statement without ORDER BY has unspecified row
/// order in SQL, and that is exactly what a scatter read delivers —
/// shard-concatenation order, which differs from a single engine's
/// primary-key scan order. Order-sensitive scans must add ORDER BY, which
/// the router then refuses to scatter ([`StmtRoute::Scatter`]`::mergeable
/// == false`) rather than merge wrongly.
fn merge(
    results: Vec<Option<Result<QueryResult, DbError>>>,
    replicated: bool,
) -> Result<QueryResult, DbError> {
    let mut merged: Option<QueryResult> = None;
    for r in results.into_iter().flatten() {
        let r = r?;
        match &mut merged {
            Some(m) if !replicated => {
                m.rows.extend(r.rows);
                m.affected += r.affected;
                m.cost += r.cost;
            }
            _ => merged = Some(r),
        }
    }
    Ok(merged.expect("a statement runs on at least one shard"))
}

/// One open cross-shard transaction (one attempt: a restart opens another
/// under the same age).
struct Txn {
    age: u64,
    /// Open branch per shard, the home's own included.
    branches: Vec<Option<TxnId>>,
    /// The statement's parts still out, and its answers, by shard.
    out: usize,
    results: Vec<Option<Result<QueryResult, DbError>>>,
    replicated: bool,
    commit: Option<Commit>,
    /// Parked at a hold point: the legs and answers that wait for the
    /// release.
    held: Option<(Legs, Vec<(usize, Answer)>)>,
}

impl Txn {
    /// Nothing of this transaction is out: its session may run.
    fn settled(&self) -> bool {
        let committing = matches!(
            self.commit,
            Some(Commit::Voting { .. } | Commit::Committing { .. })
        );
        self.held.is_none() && self.out == 0 && !committing
    }

    fn participants(&self) -> u32 {
        self.branches.iter().flatten().count() as u32
    }
}

/// A branch this shard serves for another home's transaction.
struct Branch {
    home: usize,
    /// The gtid it voted under, once a prepare reached it.
    gtid: Option<u64>,
}

/// One primary shard thread's part in cross-shard transactions: the ones
/// it homes, and the branches it serves for other homes. [`Home`] pairs
/// it with the thread's engine.
pub(crate) struct Coord {
    /// This shard: the home of every transaction here.
    me: usize,
    /// This thread's own inbox, where answers come back.
    inbox: Sender<Msg>,
    links: ShardLinks,
    decisions: Decisions,
    /// Each constant site's text, by its id in the home engine.
    sites: HashMap<PreparedId, Arc<str>>,
    next_vid: u64,
    /// Open transactions, by virtual id.
    txns: HashMap<u64, Txn>,
    /// Admitted requests by age, and each one's age by tag.
    requests: HashMap<u64, Request>,
    age_of_tag: HashMap<u64, u64>,
    /// Statements parked on this shard's row locks: other homes', and
    /// this home's own.
    parked: Vec<RemoteOp>,
    /// Open branches of other homes' transactions.
    branches: HashMap<TxnId, Branch>,
    /// Local transactions whose locks this thread's legs released.
    woken: Vec<TxnId>,
    /// Sessions whose waits completed.
    ready: Vec<TxnId>,
    pub(crate) stats: CoordStats,
}

impl Coord {
    pub(crate) fn new(
        me: usize,
        inbox: Sender<Msg>,
        links: ShardLinks,
        decisions: Decisions,
    ) -> Coord {
        Coord {
            me,
            inbox,
            links,
            decisions,
            sites: HashMap::new(),
            next_vid: 0,
            txns: HashMap::new(),
            requests: HashMap::new(),
            age_of_tag: HashMap::new(),
            parked: Vec::new(),
            branches: HashMap::new(),
            woken: Vec::new(),
            ready: Vec::new(),
            stats: CoordStats::default(),
        }
    }

    /// Admit cross-shard request `tag`, whose session begins every
    /// transaction under global wait-die age `age`, with `hold` armed.
    pub(crate) fn admit(&mut self, tag: u64, age: u64, hold: Option<HoldHook>) {
        let participants = 0;
        self.requests.insert(age, Request { hold, participants });
        self.age_of_tag.insert(tag, age);
    }

    /// Request `tag` retired: forget it, returning the participant count
    /// of its latest transaction.
    pub(crate) fn retire(&mut self, tag: u64) -> u32 {
        self.stats.txns += 1;
        let req = self
            .age_of_tag
            .remove(&tag)
            .and_then(|a| self.requests.remove(&a));
        req.map_or(0, |r| r.participants)
    }

    /// Take the wakes collected since the last call: local transactions
    /// whose locks this thread's legs released, and this home's sessions
    /// whose waits completed.
    pub(crate) fn take_wakes(&mut self) -> (Vec<TxnId>, Vec<TxnId>) {
        (
            std::mem::take(&mut self.woken),
            std::mem::take(&mut self.ready),
        )
    }

    // ---- the participant side ----

    /// Serve one op from a home (this one included) on `engine`.
    pub(crate) fn serve(&mut self, engine: &mut Engine, op: RemoteOp) {
        let RemoteOp { to, kind } = op;
        match kind {
            OpKind::Exec {
                txn,
                age,
                stmt,
                params,
            } => {
                // A home's first statement here opens its branch.
                let txn = txn.unwrap_or_else(|| {
                    let t = engine.begin_aged(age);
                    let home = to.home;
                    self.branches.insert(t, Branch { home, gtid: None });
                    t
                });
                match stmt.execute(engine, txn, &params) {
                    // The branch is now a registered lock waiter; retry
                    // until the lock frees (the statement has mutated
                    // nothing yet) or a later wait-die check kills it.
                    Err(DbError::WouldBlock) => {
                        let kind = OpKind::Exec {
                            txn: Some(txn),
                            age,
                            stmt,
                            params,
                        };
                        self.parked.push(RemoteOp { to, kind });
                    }
                    res => to.answer(Answer::Stmt(txn, res)),
                }
            }
            OpKind::Leg(leg) => {
                match leg.kind {
                    LegKind::Prepare => {
                        if let Some(b) = self.branches.get_mut(&leg.txn) {
                            b.gtid = leg.gtid;
                        }
                    }
                    _ => drop(self.branches.remove(&leg.txn)),
                }
                let r = self.leg(engine, leg);
                to.answer(Answer::Leg(r));
            }
        }
    }

    /// Serve a leg on this shard; a release that wakes a waiter retries
    /// the parked statements at once, before any later message — a
    /// restarted transaction's next statement, say — can take the freed
    /// lock from an older waiter.
    fn leg(&mut self, engine: &mut Engine, leg: Leg) -> Result<(), DbError> {
        let before = self.woken.len();
        let r = serve_leg(engine, leg, &self.decisions, &mut self.woken);
        if self.woken.len() > before {
            self.retry_parked(engine);
        }
        r
    }

    /// Retry the statements parked on row locks: a commit or abort since
    /// their last try may have freed them. A statement frees no lock, so
    /// one pass after the last release is enough. A release empties the
    /// lock's wait queue, so until the retry queues them again a younger
    /// request could take the lock: retry before the next message.
    pub(crate) fn retry_parked(&mut self, engine: &mut Engine) {
        for op in std::mem::take(&mut self.parked) {
            self.serve(engine, op);
        }
    }

    /// Shard `dead`'s primary died: end every branch it opened here. An
    /// unprepared branch aborts, its parked statement dropped; a prepared
    /// one takes the registry's verdict — the reaper has already
    /// forgotten the dead home's undecided gtids, so only a decided
    /// commit commits, and settles its leg.
    pub(crate) fn end_orphans(&mut self, engine: &mut Engine, dead: usize) {
        self.parked.retain(|op| op.to.home != dead);
        let orphans: Vec<_> = self.branches.extract_if(|_, b| b.home == dead).collect();
        for (txn, Branch { gtid, .. }) in orphans {
            let commit = engine.is_prepared(txn) && gtid.is_some_and(|g| self.decisions.resolve(g));
            let kind = if commit {
                LegKind::Commit
            } else {
                LegKind::Abort
            };
            let _ = self.leg(engine, Leg { kind, txn, gtid });
        }
    }

    // ---- the home side ----

    fn open(&mut self, age: u64) -> TxnId {
        let vid = VIRTUAL_BIT | self.next_vid;
        self.next_vid += 1;
        let txn = Txn {
            age,
            branches: vec![None; self.links.len()],
            out: 0,
            results: Vec::new(),
            replicated: false,
            commit: None,
            held: None,
        };
        self.txns.insert(vid, txn);
        TxnId(vid)
    }

    /// An op of `vid` for shard `shard`, answering to this inbox.
    fn op(&self, shard: usize, vid: u64, kind: OpKind) -> RemoteOp {
        let (home, inbox, answered) = (self.me, self.inbox.clone(), false);
        let to = ReplyTo {
            home,
            inbox,
            vid,
            shard,
            answered,
        };
        RemoteOp { to, kind }
    }

    /// Put an op in shard `s`'s inbox, read from the link table per send
    /// so ops reach a respawned primary. A closed inbox drops the op,
    /// which answers [`Answer::Lost`].
    fn send(&self, s: usize, vid: u64, kind: OpKind) {
        let inbox = self.links[s].lock().unwrap_or_else(PoisonError::into_inner);
        let _ = inbox.send(Msg::Remote(self.op(s, vid, kind)));
    }

    /// Run a statement on the shards `route` names: every other shard's
    /// part goes out at once, then the home's part runs here — one that
    /// would block parks with the remote ones. Returns the merged result,
    /// or [`DbError::WouldBlock`] while parts are out.
    fn run(
        &mut self,
        engine: &mut Engine,
        vid: u64,
        route: StmtRoute,
        stmt: Stmt,
        site: Option<PreparedId>,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let n = self.links.len();
        let (targets, replicated): (Vec<usize>, bool) = match route {
            StmtRoute::ByParam { param } => {
                let key = params
                    .get(param)
                    .ok_or_else(|| DbError::Schema(format!("routing parameter {param} missing")))?;
                (vec![shard_of(key, n)], false)
            }
            StmtRoute::ByLit(lit) => (vec![shard_of(&lit, n)], false),
            // Replicated reads may use any copy: the home's needs no hop.
            // Replicated writes apply everywhere so the copies stay
            // byte-identical (the result is the same on each).
            StmtRoute::Replicated { write: false } => (vec![self.me], false),
            StmtRoute::Replicated { write: true } => ((0..n).collect(), true),
            StmtRoute::Scatter {
                mergeable: false, ..
            } => {
                return Err(DbError::Schema(
                    "cross-shard ordered/aggregate scan is not routable; \
                     add a shard-key equality predicate"
                        .into(),
                ))
            }
            StmtRoute::Scatter { .. } => ((0..n).collect(), false),
            StmtRoute::Unroutable { reason } => return Err(DbError::Schema(reason.into())),
        };
        let (me, t) = (self.me, &self.txns[&vid]);
        let (age, mut out) = (t.age, 0);
        for &s in targets.iter().filter(|&&s| s != me) {
            let (txn, stmt, params) = (t.branches[s], stmt.clone(), params.to_vec());
            self.send(
                s,
                vid,
                OpKind::Exec {
                    txn,
                    age,
                    stmt,
                    params,
                },
            );
            out += 1;
        }
        let mut results: Vec<_> = (0..n).map(|_| None).collect();
        if targets.contains(&me) {
            let t = self.txns.get_mut(&vid).expect("open");
            let branch = *t.branches[me].get_or_insert_with(|| engine.begin_aged(age));
            let r = match site {
                Some(id) => engine.execute_prepared(branch, id, params),
                None => stmt.execute(engine, branch, params),
            };
            if matches!(r, Err(DbError::WouldBlock)) {
                let (txn, params) = (Some(branch), params.to_vec());
                let op = self.op(
                    me,
                    vid,
                    OpKind::Exec {
                        txn,
                        age,
                        stmt,
                        params,
                    },
                );
                self.parked.push(op);
                out += 1;
            } else {
                results[me] = Some(r);
            }
        }
        if out == 0 {
            return merge(results, replicated);
        }
        let t = self.txns.get_mut(&vid).expect("open");
        (t.out, t.results, t.replicated) = (out, results, replicated);
        Err(DbError::WouldBlock)
    }

    /// The merged result of `vid`'s statement once its parts are all in
    /// ([`DbError::WouldBlock`] before); `None` when no statement is out.
    fn take_gathered(&mut self, vid: u64) -> Option<Result<QueryResult, DbError>> {
        let t = self.txns.get_mut(&vid)?;
        match (t.out, t.results.is_empty()) {
            (0, true) => None,
            (0, false) => Some(merge(std::mem::take(&mut t.results), t.replicated)),
            _ => Some(Err(DbError::WouldBlock)),
        }
    }

    /// Start or continue `vid`'s commit: the outcome once the machine is
    /// done, else [`DbError::WouldBlock`].
    fn commit(&mut self, engine: &mut Engine, vid: u64) -> Result<(), DbError> {
        let t = self.txns.get_mut(&vid).ok_or(DbError::UnknownTxn)?;
        if t.commit.is_none() {
            let parts = (0..t.branches.len()).filter(|&s| t.branches[s].is_some());
            let (machine, legs) = Commit::start(t.age, self.me, parts.collect(), &self.decisions);
            t.commit = Some(machine);
            self.dispatch(engine, vid, legs);
        }
        if !self.txns[&vid].settled() {
            return Err(DbError::WouldBlock);
        }
        let t = self.end(vid);
        let parts = u64::from(t.participants());
        let Some(Commit::Done(r)) = t.commit else {
            unreachable!("a settled commit is done")
        };
        if r.is_ok() {
            self.stats.participants += parts;
        }
        r
    }

    /// Close `vid`, recording its participants on its request.
    fn end(&mut self, vid: u64) -> Txn {
        let t = self.txns.remove(&vid).expect("open");
        if let Some(r) = self.requests.get_mut(&t.age) {
            r.participants = t.participants();
        }
        t
    }

    /// Abort `vid`: send each remote branch its abort and roll the home's
    /// own back, without waiting. The answers still count participant
    /// deaths. Aborting a transaction already ended is a no-op.
    fn abort(&mut self, engine: &mut Engine, vid: u64) {
        if !self.txns.contains_key(&vid) {
            return;
        }
        let t = self.end(vid);
        for (s, txn) in t.branches.iter().enumerate() {
            let Some(txn) = *txn else { continue };
            let leg = Leg {
                kind: LegKind::Abort,
                txn,
                gtid: None,
            };
            match s == self.me {
                true => drop(self.leg(engine, leg)),
                false => self.send(s, vid, OpKind::Leg(leg)),
            }
        }
    }

    /// Send `legs` of `vid`'s commit — the remote ones first, then the
    /// home's own inline, its answer fed straight back. A hold armed for
    /// the commit point parks the decision's commit legs instead.
    fn dispatch(&mut self, engine: &mut Engine, vid: u64, legs: Legs) {
        let Some(&(_, kind)) = legs.first() else {
            return;
        };
        if kind == LegKind::Commit && self.hold(vid, HoldPoint::Commit) {
            self.txns.get_mut(&vid).expect("open").held = Some((legs, Vec::new()));
            return;
        }
        let t = &self.txns[&vid];
        let gtid = (t.participants() >= 2).then_some(t.age);
        let leg = |s: usize| Leg {
            kind,
            txn: t.branches[s].expect("a leg goes to a branch"),
            gtid,
        };
        let home = legs.iter().find(|l| l.0 == self.me).map(|_| leg(self.me));
        for &(s, _) in legs.iter().filter(|l| l.0 != self.me) {
            self.send(s, vid, OpKind::Leg(leg(s)));
        }
        if let Some(leg) = home {
            let r = self.leg(engine, leg);
            self.feed(engine, vid, self.me, r);
        }
    }

    /// Feed one leg's answer to `vid`'s commit machine and send what it
    /// asks for next. A hold armed for the vote parks the transaction
    /// right after its first yes-vote, with other votes still out.
    fn feed(&mut self, engine: &mut Engine, vid: u64, shard: usize, r: Result<(), DbError>) {
        let t = self.txns.get_mut(&vid).expect("open");
        let m = t.commit.as_mut().expect("a leg answers a commit");
        let yes = r.is_ok() && matches!(m, Commit::Voting { .. });
        let legs = m.step(shard, r, &self.decisions);
        if yes && matches!(m, Commit::Voting { .. }) && self.hold(vid, HoldPoint::Vote) {
            self.txns.get_mut(&vid).expect("open").held = Some((legs, Vec::new()));
        } else {
            self.dispatch(engine, vid, legs);
        }
    }

    /// Take `vid`'s request's hold if it is armed for `at`: signal the
    /// test, and start the helper that wakes this home on the release.
    fn hold(&mut self, vid: u64, at: HoldPoint) -> bool {
        let req = self.requests.get_mut(&self.txns[&vid].age);
        let Some(h) = req.and_then(|r| r.hold.take_if(|h| h.at == at)) else {
            return false;
        };
        let _ = h.held_tx.send(());
        let inbox = self.inbox.clone();
        std::thread::spawn(move || {
            let _ = h.release_rx.recv();
            let _ = inbox.send(Msg::Release(vid));
        });
        true
    }

    /// A participant's answer arrived. One for a transaction that has
    /// since ended only counts a participant death; one for a held
    /// transaction waits for the release.
    pub(crate) fn on_reply(&mut self, engine: &mut Engine, reply: Reply) {
        let Reply { vid, shard, answer } = reply;
        match self.txns.get_mut(&vid).map(|t| &mut t.held) {
            Some(Some((_, answers))) => answers.push((shard, answer)),
            Some(None) => self.apply(engine, vid, shard, answer),
            None if matches!(answer, Answer::Lost | Answer::Leg(Err(DbError::UnknownTxn))) => {
                self.stats.participant_deaths += 1;
            }
            None => {}
        }
    }

    /// The test released `vid`'s hold: send its held legs, then apply the
    /// answers that came in meanwhile.
    pub(crate) fn release(&mut self, engine: &mut Engine, vid: u64) {
        let Some((legs, answers)) = self.txns.get_mut(&vid).and_then(|t| t.held.take()) else {
            return;
        };
        self.dispatch(engine, vid, legs);
        for (shard, answer) in answers {
            self.on_reply(engine, Reply { vid, shard, answer });
        }
        self.wake_if_settled(vid);
    }

    fn wake_if_settled(&mut self, vid: u64) {
        if self.txns.get(&vid).is_some_and(Txn::settled) {
            self.ready.push(TxnId(vid));
        }
    }

    /// Apply shard `shard`'s answer to what `vid` has out there: a
    /// statement part, or a commit leg. A lost op, or a branch the
    /// shard's successor never knew, is a participant death; one that
    /// answers a commit leg leaves the outcome unknown, since the shard
    /// may have committed its branch before it died.
    fn apply(&mut self, engine: &mut Engine, vid: u64, shard: usize, answer: Answer) {
        let (branch, r) = match answer {
            Answer::Stmt(branch, r) => (Some(branch), r.map(Some)),
            Answer::Leg(r) => (None, r.map(|()| None)),
            Answer::Lost => (None, Err(DbError::UnknownTxn)),
        };
        let committing = matches!(self.txns[&vid].commit, Some(Commit::Committing { .. }));
        let r = r.map_err(|e| match e {
            DbError::UnknownTxn => {
                self.stats.participant_deaths += 1;
                match death(shard) {
                    DbError::Durability(m) if committing => {
                        DbError::Durability(format!("{m}; transaction outcome unknown"))
                    }
                    e => e,
                }
            }
            e => e,
        });
        let t = self.txns.get_mut(&vid).expect("open");
        if let Some(b) = branch {
            t.branches[shard] = Some(b);
        }
        if t.out > 0 {
            t.out -= 1;
            t.results[shard] = Some(r.map(|q| q.expect("a statement answers rows")));
        } else {
            self.feed(engine, vid, shard, r.map(|_| ()));
        }
        self.wake_if_settled(vid);
    }
}

/// The façade a home's coordinator dispatcher polls: [`Coord`] over the
/// home shard's engine. Virtual transaction ids stand for cross-shard
/// transactions; the engine routes and runs the home's part of each.
pub(crate) struct Home<'a> {
    pub(crate) coord: &'a mut Coord,
    pub(crate) engine: &'a mut Engine,
}

impl Database for Home<'_> {
    /// Never reached: [`Coord::admit`] gives every cross-shard session
    /// its age, so it begins through [`Database::begin_aged`].
    fn begin(&mut self) -> TxnId {
        unreachable!("cross-shard sessions begin under their admitted age")
    }

    fn begin_aged(&mut self, age: u64) -> TxnId {
        self.coord.open(age)
    }

    /// Never reached: cross-shard sessions run with snapshot reads
    /// disabled (per-shard snapshots at different instants are not one
    /// consistent cut).
    fn begin_read_only(&mut self) -> TxnId {
        unreachable!("cross-shard sessions read under locks")
    }

    fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let r = self.coord.commit(self.engine, txn.0);
        r.map(|()| (0, Vec::new()))
    }

    fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        self.coord.abort(self.engine, txn.0);
        Ok((0, Vec::new()))
    }

    /// Register a constant-SQL site on the home engine and keep its text,
    /// in which it travels to other shards ([`Stmt::Site`]).
    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        let id = self.engine.prepare(sql)?;
        self.coord.sites.entry(id).or_insert_with(|| sql.into());
        Ok(id)
    }

    /// Dynamic SQL is routed on the home engine, and each shard it
    /// routes to runs the text through its engine's bounded ad-hoc
    /// path, so no registry grows with dynamic SQL.
    fn execute(
        &mut self,
        txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        if let Some(r) = self.coord.take_gathered(txn.0) {
            return r;
        }
        let route = self.engine.route(sql)?;
        let stmt = Stmt::Text(sql.into());
        self.coord
            .run(self.engine, txn.0, route, stmt, None, params)
    }

    fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        if let Some(r) = self.coord.take_gathered(txn.0) {
            return r;
        }
        let route = self.engine.prepared_route(id)?;
        let stmt = Stmt::Site(Arc::clone(&self.coord.sites[&id]));
        self.coord
            .run(self.engine, txn.0, route, stmt, Some(id), params)
    }

    /// The façade runs no statement of its own; per-shard counters
    /// (including the 2PC prepare/prepare-abort counts) are read off the
    /// shard engines at shutdown instead.
    fn db_stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::{Commit, Decisions, LegKind};
    use pyx_db::DbError;

    const HOME: usize = 0;

    fn dead() -> DbError {
        super::death(1)
    }

    fn kinds(legs: &[(usize, LegKind)], kind: LegKind) -> Vec<usize> {
        legs.iter().filter(|l| l.1 == kind).map(|l| l.0).collect()
    }

    fn outcome(m: &Commit) -> Option<&Result<(), DbError>> {
        match m {
            Commit::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Deliver commit legs as participants would: each commit that
    /// succeeds settles its leg of a decided gtid.
    fn commit_all(dec: &Decisions, gtid: u64, m: &mut Commit, legs: &[(usize, LegKind)]) {
        for &(s, kind) in legs {
            assert_eq!(kind, LegKind::Commit);
            dec.settle(gtid, 1);
            assert!(m.step(s, Ok(()), dec).is_empty());
        }
    }

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
        dec.open(7, HOME);
        assert_eq!(dec.len(), 1);
        dec.forget(7);
        assert_eq!(dec.len(), 0);
        assert!(!dec.resolve(7), "forgotten: presumed abort");
    }

    #[test]
    fn heal_during_voting_vetoes_the_decision() {
        let dec = Decisions::default();
        dec.open(7, HOME);
        assert!(!dec.resolve(7), "a voting gtid resolves as abort");
        assert!(!dec.resolve(7), "and stays aborted");
        assert!(!dec.decide(7, 2), "the home finds the veto");
        assert_eq!(dec.len(), 0, "the vetoed entry is gone");
    }

    #[test]
    fn heal_after_the_decision_resolves_commit() {
        let dec = Decisions::default();
        dec.open(7, HOME);
        assert!(dec.decide(7, 2));
        assert!(dec.resolve(7), "a decided gtid resolves as commit");
        dec.settle(7, 1); // the healed leg
        assert_eq!(dec.len(), 1, "one leg still unsettled");
    }

    #[test]
    fn settling_the_last_leg_removes_the_entry() {
        let dec = Decisions::default();
        dec.open(7, HOME);
        dec.open(8, HOME);
        assert!(dec.decide(7, 3));
        dec.settle(7, 2);
        assert_eq!(dec.len(), 2);
        dec.settle(7, 1);
        assert_eq!(dec.len(), 1, "gtid 7 settled; 8 is still voting");
        assert!(!dec.resolve(7), "a settled gtid is absent again");
    }

    #[test]
    fn commit_without_participants_is_done_at_once() {
        let dec = Decisions::default();
        let (m, legs) = Commit::start(7, HOME, vec![], &dec);
        assert!(legs.is_empty());
        assert_eq!(outcome(&m), Some(&Ok(())));
        assert_eq!(dec.len(), 0, "no gtid opened");
    }

    #[test]
    fn one_participant_commits_without_a_vote() {
        let dec = Decisions::default();
        let (mut m, legs) = Commit::start(7, HOME, vec![1], &dec);
        assert_eq!(legs, vec![(1, LegKind::Commit)]);
        assert_eq!(dec.len(), 0, "one participant decides nothing");
        assert!(m.step(1, Ok(()), &dec).is_empty());
        assert_eq!(outcome(&m), Some(&Ok(())));
        // Its failure is the transaction's error.
        let (mut m, _) = Commit::start(8, HOME, vec![1], &dec);
        m.step(1, Err(dead()), &dec);
        assert_eq!(outcome(&m), Some(&Err(dead())));
        assert_eq!(dec.len(), 0);
    }

    #[test]
    fn two_participants_prepare_at_once_then_commit_at_once() {
        let dec = Decisions::default();
        let (mut m, legs) = Commit::start(7, HOME, vec![0, 2], &dec);
        assert_eq!(kinds(&legs, LegKind::Prepare), vec![0, 2]);
        assert_eq!(dec.len(), 1, "the voting window is open before any prepare");
        assert!(m.step(2, Ok(()), &dec).is_empty(), "one vote is still out");
        let legs = m.step(0, Ok(()), &dec);
        assert_eq!(kinds(&legs, LegKind::Commit), vec![0, 2]);
        assert!(dec.resolve(7), "decided before any commit leg goes out");
        commit_all(&dec, 7, &mut m, &legs);
        assert_eq!(outcome(&m), Some(&Ok(())));
        assert_eq!(dec.len(), 0, "both legs settled");
    }

    #[test]
    fn a_veto_aborts_every_branch_after_the_last_vote() {
        let dec = Decisions::default();
        let (mut m, _) = Commit::start(7, HOME, vec![0, 1, 2], &dec);
        assert!(
            m.step(2, Err(DbError::ReadOnly), &dec).is_empty(),
            "votes still out"
        );
        assert!(m.step(1, Err(dead()), &dec).is_empty());
        let legs = m.step(0, Ok(()), &dec);
        assert_eq!(kinds(&legs, LegKind::Abort), vec![0, 1, 2]);
        assert_eq!(
            outcome(&m),
            Some(&Err(dead())),
            "the lowest-numbered shard's veto, whatever the arrival order"
        );
        assert_eq!(dec.len(), 0, "the vetoed gtid is forgotten");
    }

    #[test]
    fn a_heal_that_vetoes_mid_vote_aborts_the_survivors() {
        let dec = Decisions::default();
        let (mut m, _) = Commit::start(7, HOME, vec![0, 1], &dec);
        m.step(0, Ok(()), &dec);
        // Shard 1 prepared and died; its heal resolves the branch first.
        assert!(!dec.resolve(7), "a voting gtid is presumed abort");
        let legs = m.step(1, Ok(()), &dec);
        assert_eq!(kinds(&legs, LegKind::Abort), vec![0, 1]);
        assert!(matches!(outcome(&m), Some(Err(DbError::Durability(_)))));
        assert_eq!(dec.len(), 0);
    }

    #[test]
    fn a_death_in_the_commit_round_keeps_its_leg_for_the_heal() {
        let dec = Decisions::default();
        let (mut m, _) = Commit::start(7, HOME, vec![0, 1], &dec);
        m.step(1, Ok(()), &dec);
        let legs = m.step(0, Ok(()), &dec);
        assert_eq!(kinds(&legs, LegKind::Commit), vec![0, 1]);
        dec.settle(7, 1); // shard 0 committed and settled its leg
        m.step(0, Ok(()), &dec);
        m.step(1, Err(dead()), &dec);
        assert_eq!(outcome(&m), Some(&Err(dead())));
        assert_eq!(dec.len(), 1, "shard 1's leg is unsettled");
        // Shard 1's heal recovers the vote in doubt and commits it.
        assert!(dec.resolve(7));
        dec.settle(7, 1);
        assert_eq!(dec.len(), 0);
    }

    #[test]
    fn the_dead_home_step_forgets_only_undecided_gtids() {
        let dec = Decisions::default();
        Commit::start(7, HOME, vec![0, 1], &dec);
        let (mut decided, _) = Commit::start(8, HOME, vec![0, 1], &dec);
        decided.step(0, Ok(()), &dec);
        let legs = decided.step(1, Ok(()), &dec);
        assert_eq!(kinds(&legs, LegKind::Commit), vec![0, 1]);
        Commit::start(9, HOME, vec![0, 1], &dec);
        assert!(!dec.resolve(9), "a heal vetoed gtid 9 mid-vote");
        Commit::start(10, 1, vec![0, 1], &dec);
        assert_eq!(dec.len(), 4);
        dec.forget_home(HOME);
        assert_eq!(dec.len(), 2, "gtids 7 and 9 are gone; 8 and 10 stay");
        assert!(!dec.resolve(7), "absent: presumed abort");
        assert!(dec.resolve(8), "decided: its legs still commit");
        dec.settle(8, 1);
        assert_eq!(dec.len(), 2, "one leg of gtid 8 is still unsettled");
        dec.settle(8, 1);
        assert_eq!(dec.len(), 1, "only the live home's gtid is left");
    }
}
