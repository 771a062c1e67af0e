//! The database engine: SQL execution over locked, multi-versioned tables.
//!
//! Execution is two-phase per statement: first plan and *lock*, then
//! mutate. A statement that hits a lock conflict returns
//! [`DbError::WouldBlock`] (older requester — safe to retry the same
//! statement after a wake-up) or [`DbError::Deadlock`] (wait-die victim —
//! the whole transaction must abort and restart) before any mutation, so
//! retries are idempotent.
//!
//! # MVCC snapshot reads
//!
//! [`Engine::begin_read_only`] starts a *snapshot* transaction: it takes
//! the current commit timestamp as its snapshot, and every statement it
//! executes resolves row versions as of that snapshot
//! ([`crate::table::Table::version_at`]) **without touching the lock
//! manager** — the lock table now only guards writes against writes and
//! locking reads. Snapshot transactions therefore can never block, never
//! deadlock, and never become wait-die victims. Write transactions stamp
//! every row they touched with a fresh commit timestamp at
//! [`Engine::commit`] (aborts stamp nothing), so a snapshot observes
//! exactly the transactions that committed before it began — a consistent
//! committed prefix. Superseded versions are garbage-collected once the
//! oldest active snapshot has advanced past them.
//!
//! Two execution paths share one resolved core:
//!
//! * [`Engine::execute`] — the ad-hoc path: parse-cache lookup, statement
//!   clone, per-execution name resolution and planning (JDBC-style).
//! * [`Engine::prepare`] + [`Engine::execute_prepared`] — the fast path:
//!   the plan (table id, column indices, predicate skeleton, access path)
//!   is resolved once and re-executed with only parameter substitution —
//!   no string hashing, no clone, no re-planning.
//!
//! Both produce identical results and identical virtual CPU `cost` (see
//! [`crate::cost`]): the cost model charges what a conventional server
//! *would* do per statement, while the prepared path cuts the real
//! (wall-clock) work — which is what the Criterion benches measure.

use crate::cost;
use crate::fxhash::FxHashMap;
use crate::index::RowId;
use crate::lock::{Acquire, LockMode, LockTable};
use crate::prepared::{self, Plan, PreparedId, PreparedStmt, ProjP, SetP};
use crate::replica::RedoTailer;
use crate::sqlparse::{self, AggFn, CmpOp, SqlStmt};
use crate::table::Table;
use crate::txn::{Txn, TxnId, UndoOp};
use crate::wal::{self, RecoveryReport, RedoOp, Wal};
use pyx_lang::Scalar;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Errors surfaced to the runtime / simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// SQL syntax error or unsupported construct.
    Parse(String),
    /// Unknown table/column, arity or type mismatch, duplicate key.
    Schema(String),
    /// Lock conflict; the transaction may wait and retry this statement.
    WouldBlock,
    /// Wait-die victim; the transaction must abort and restart.
    Deadlock,
    /// Write statement issued inside a read-only (snapshot) transaction.
    ReadOnly,
    /// Operation on an unknown or finished transaction.
    UnknownTxn,
    /// The write-ahead log could not make a commit durable (sink I/O
    /// failure). The transaction did **not** commit; the engine is in
    /// degraded mode — snapshot reads keep serving, write statements are
    /// rejected with this error until the log is replaced.
    Durability(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "SQL parse error: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::WouldBlock => write!(f, "lock conflict (would block)"),
            DbError::Deadlock => write!(f, "wait-die deadlock victim"),
            DbError::ReadOnly => write!(f, "write statement in a read-only (snapshot) transaction"),
            DbError::UnknownTxn => write!(f, "unknown transaction"),
            DbError::Durability(m) => write!(f, "durability failure: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result rows. Shared with table storage where possible (`SELECT *`
    /// is a refcount bump per row, not a copy).
    pub rows: Vec<Arc<Vec<Scalar>>>,
    /// Rows affected by a write.
    pub affected: u64,
    /// Virtual CPU cost consumed by this statement.
    pub cost: u64,
}

impl QueryResult {
    /// Total serialized size of the result rows in bytes (for the network
    /// model).
    pub fn wire_size(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| 4 + r.iter().map(Scalar::wire_size).sum::<u64>())
            .sum::<u64>()
            + 16
    }
}

/// Aggregate engine statistics (diagnostics and tests).
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    pub statements: u64,
    pub commits: u64,
    pub aborts: u64,
    pub would_blocks: u64,
    pub deadlocks: u64,
    /// `execute_prepared` calls served by a cached (still-valid) plan.
    pub prepared_hits: u64,
    /// `execute_prepared` calls that had to (re-)resolve their plan.
    pub prepared_misses: u64,
    /// Candidate rows examined across all statements (both paths).
    pub rows_examined: u64,
    /// Ad-hoc parse-cache entries evicted by the size cap.
    pub parse_evictions: u64,
    /// Read-only (snapshot) transactions started.
    pub read_only_txns: u64,
    /// SELECT statements served from a snapshot (lock-free).
    pub snapshot_reads: u64,
    /// Committed row versions stamped onto version chains.
    pub versions_created: u64,
    /// Versions (and vacated tombstoned slots) reclaimed by GC.
    pub versions_gced: u64,
    /// Redo-log bytes appended (header + payload).
    pub wal_bytes: u64,
    /// Commit records appended to the redo log.
    pub wal_records: u64,
    /// Log flushes (fsync calls) that completed successfully.
    pub wal_fsyncs: u64,
    /// Flushes that covered more than one commit record — true group
    /// commits, where one fsync amortized over a batch.
    pub wal_group_batches: u64,
    /// Two-phase-commit prepares accepted ([`Engine::prepare_commit`]).
    pub prepares: u64,
    /// Prepared transactions subsequently aborted by their coordinator.
    pub prepare_aborts: u64,
    /// Redo records applied incrementally ([`Engine::apply_redo`]).
    pub redo_records: u64,
    /// Row operations applied by [`Engine::apply_redo`].
    pub redo_ops: u64,
    /// Snapshot transactions opened at an explicitly lagged timestamp
    /// ([`Engine::begin_read_only_at`] with `ts` behind the commit
    /// horizon).
    pub lagged_snapshots: u64,
    /// [`Engine::begin_read_only_at`] requests refused: timestamp in the
    /// future, or behind the GC floor (versions already pruned).
    pub snapshot_rejects: u64,
    /// Durable 2PC yes-votes appended to the log (`Prepare` records).
    pub wal_prepare_records: u64,
    /// 2PC outcomes appended to the log (`Decide` records).
    pub wal_decide_records: u64,
    /// In-doubt branches reconstructed (recovery or
    /// [`Engine::adopt_in_doubt`]), locks re-held awaiting resolution.
    pub in_doubt_recovered: u64,
    /// In-doubt branches resolved as committed
    /// ([`Engine::resolve_prepared`]).
    pub in_doubt_commits: u64,
    /// In-doubt branches resolved as aborted (presumed abort included).
    pub in_doubt_aborts: u64,
}

impl EngineStats {
    /// Accumulate another engine's counters (sharded deployments report
    /// the sum over all shards). Destructured without a rest pattern so
    /// adding a counter to [`EngineStats`] is a compile error here
    /// rather than a silently missing column in merged reports.
    pub fn merge(&mut self, o: &EngineStats) {
        let EngineStats {
            statements,
            commits,
            aborts,
            would_blocks,
            deadlocks,
            prepared_hits,
            prepared_misses,
            rows_examined,
            parse_evictions,
            read_only_txns,
            snapshot_reads,
            versions_created,
            versions_gced,
            wal_bytes,
            wal_records,
            wal_fsyncs,
            wal_group_batches,
            prepares,
            prepare_aborts,
            redo_records,
            redo_ops,
            lagged_snapshots,
            snapshot_rejects,
            wal_prepare_records,
            wal_decide_records,
            in_doubt_recovered,
            in_doubt_commits,
            in_doubt_aborts,
        } = o;
        self.statements += statements;
        self.commits += commits;
        self.aborts += aborts;
        self.would_blocks += would_blocks;
        self.deadlocks += deadlocks;
        self.prepared_hits += prepared_hits;
        self.prepared_misses += prepared_misses;
        self.rows_examined += rows_examined;
        self.parse_evictions += parse_evictions;
        self.read_only_txns += read_only_txns;
        self.snapshot_reads += snapshot_reads;
        self.versions_created += versions_created;
        self.versions_gced += versions_gced;
        self.wal_bytes += wal_bytes;
        self.wal_records += wal_records;
        self.wal_fsyncs += wal_fsyncs;
        self.wal_group_batches += wal_group_batches;
        self.prepares += prepares;
        self.prepare_aborts += prepare_aborts;
        self.redo_records += redo_records;
        self.redo_ops += redo_ops;
        self.lagged_snapshots += lagged_snapshots;
        self.snapshot_rejects += snapshot_rejects;
        self.wal_prepare_records += wal_prepare_records;
        self.wal_decide_records += wal_decide_records;
        self.in_doubt_recovered += in_doubt_recovered;
        self.in_doubt_commits += in_doubt_commits;
        self.in_doubt_aborts += in_doubt_aborts;
    }
}

/// Cap on the ad-hoc (legacy) parse cache. Ad-hoc SQL with inline
/// literals would otherwise grow the cache without bound; prepared
/// statements are the right tool for hot statements, so the cap only
/// needs to keep the working set of distinct ad-hoc shapes.
const PARSE_CACHE_CAP: usize = 256;

/// The in-memory database engine.
pub struct Engine {
    tables: Vec<Table>,
    by_name: HashMap<String, usize>,
    locks: LockTable,
    txns: FxHashMap<TxnId, Txn>,
    next_txn: u64,
    /// Ad-hoc statement cache (FIFO-capped at [`PARSE_CACHE_CAP`]).
    parse_cache: HashMap<String, SqlStmt>,
    parse_order: VecDeque<String>,
    /// Prepared statements by handle; `prepared_by_sql` dedups repeats.
    prepared: Vec<PreparedStmt>,
    prepared_by_sql: HashMap<String, PreparedId>,
    /// Bumped by every schema change; plans resolved under an older epoch
    /// re-resolve on next use.
    schema_epoch: u64,
    /// Reused primary-key scratch buffer for point lookups and per-row
    /// lock keys (allocation-free hot path once warm).
    key_scratch: Vec<Scalar>,
    /// Reused buffers for per-execution resolved predicates and path
    /// values on the prepared path.
    pred_scratch: Vec<RPred>,
    path_scratch: Vec<Scalar>,
    rid_scratch: Vec<RowId>,
    /// Latest commit timestamp; new snapshots read as of this instant.
    commit_ts: u64,
    /// Active snapshot timestamps → number of open read-only transactions
    /// holding them. The first key is the GC horizon.
    snapshots: BTreeMap<u64, u32>,
    /// Slots stamped with prunable history, awaiting a GC pass.
    gc_pending: Vec<(usize, RowId)>,
    /// Highest GC horizon ever applied: versions older than this may be
    /// gone, so [`Engine::begin_read_only_at`] refuses timestamps below
    /// it (conservative — exact per-slot tracking isn't kept).
    gc_floor: u64,
    /// Optional retention pin: GC never prunes past `min(horizon, pin)`,
    /// so snapshots at any timestamp `>= pin` stay admissible. Used by
    /// replica-differential tests to hold primary history at a lagged
    /// replica's horizon.
    gc_pin: Option<u64>,
    /// Write-ahead log; `None` runs the engine volatile (tests, sim).
    wal: Option<Wal>,
    /// In-doubt 2PC branches by gtid: prepared (yes-vote durable), no
    /// decide on record. Locks are held by the branch's `TxnId`; the
    /// final images wait in `ops` for [`Engine::resolve_prepared`].
    in_doubt: FxHashMap<u64, InDoubtBranch>,
    pub stats: EngineStats,
}

/// One reconstructed in-doubt 2PC branch (see [`Engine::recover`]).
struct InDoubtBranch {
    /// Local transaction id holding the branch's re-acquired locks.
    txn: TxnId,
    /// The prepared final row images, applied only on a commit decision.
    ops: Vec<RedoOp>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Object-safe façade over a transactional SQL engine — the surface the
/// runtime ([`pyx_runtime::Session`]) and the dispatcher actually use.
///
/// Two implementors exist:
///
/// * [`Engine`] — one shard (or the whole database in single-shard
///   deployments); every method delegates to the inherent fast paths.
/// * `pyx-server`'s 2PC coordinator façade (`Coord`), which routes each
///   statement to the shard owning its rows, sending it to that shard
///   worker's inbox, and runs two-phase commit across the shards a
///   transaction touched.
///
/// Keeping the trait object-safe (and the session generic over it) is what
/// lets one compiled program run unchanged against a single engine, a
/// worker's shard, or a cross-shard transaction context.
pub trait Database {
    /// Start a read-write transaction.
    fn begin(&mut self) -> TxnId;
    /// Start a read-write transaction retaining a prior incarnation's
    /// wait-die age (see [`Engine::begin_aged`]). Implementations without
    /// a lock manager to age against may ignore the hint.
    fn begin_aged(&mut self, age: u64) -> TxnId {
        let _ = age;
        self.begin()
    }
    /// Start a read-only MVCC snapshot transaction.
    fn begin_read_only(&mut self) -> TxnId;
    /// Commit; returns (virtual CPU cost, woken lock waiters). A façade
    /// whose commit waits on other threads may return
    /// [`DbError::WouldBlock`] and be called again once the transaction
    /// is woken; [`Engine::commit`] never does.
    fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError>;
    /// Abort and undo; returns (virtual CPU cost, woken lock waiters).
    fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError>;
    /// Parse + cache a statement, returning a reusable handle.
    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError>;
    /// Ad-hoc execution (parse-cache + re-plan per call).
    fn execute(&mut self, txn: TxnId, sql: &str, params: &[Scalar])
        -> Result<QueryResult, DbError>;
    /// Fast-path execution of a prepared handle.
    fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError>;
    /// Aggregate statement/transaction counters.
    fn db_stats(&self) -> EngineStats;
    /// Flush the write-ahead log to durable storage — the commit
    /// acknowledgement point under group commit. Engines without a log
    /// (and implementations without durability) are a no-op.
    fn wal_sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }
}

impl Database for Engine {
    fn begin(&mut self) -> TxnId {
        Engine::begin(self)
    }

    fn begin_aged(&mut self, age: u64) -> TxnId {
        Engine::begin_aged(self, age)
    }

    fn begin_read_only(&mut self) -> TxnId {
        Engine::begin_read_only(self)
    }

    fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        Engine::commit(self, txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        Engine::abort(self, txn)
    }

    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        Engine::prepare(self, sql)
    }

    fn execute(
        &mut self,
        txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        Engine::execute(self, txn, sql, params)
    }

    fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        Engine::execute_prepared(self, txn, id, params)
    }

    fn db_stats(&self) -> EngineStats {
        self.stats.clone()
    }

    fn wal_sync(&mut self) -> Result<(), DbError> {
        Engine::wal_sync(self)
    }
}

// The sharded serving tier moves loaded engines into worker threads, so
// everything an engine owns (rows, undo logs, version chains, plans) must
// be `Send`. This assertion turns an accidental `Rc`/`RefCell` regression
// into a compile error at the source instead of a distant one in
// `pyx-server`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>()
};

/// Access path with values resolved for one execution.
#[derive(Debug)]
enum Path {
    PkPoint(Vec<Scalar>),
    PkPrefix(Vec<Scalar>),
    Secondary(usize, Scalar),
    Full,
}

/// Per-execution resolved predicate: column index, operator, value.
type RPred = (usize, CmpOp, Scalar);

impl Engine {
    pub fn new() -> Self {
        Engine {
            tables: Vec::new(),
            by_name: HashMap::new(),
            locks: LockTable::new(),
            txns: FxHashMap::default(),
            next_txn: 1,
            parse_cache: HashMap::new(),
            parse_order: VecDeque::new(),
            prepared: Vec::new(),
            prepared_by_sql: HashMap::new(),
            schema_epoch: 1,
            key_scratch: Vec::new(),
            pred_scratch: Vec::new(),
            path_scratch: Vec::new(),
            rid_scratch: Vec::new(),
            commit_ts: 0,
            snapshots: BTreeMap::new(),
            gc_pending: Vec::new(),
            gc_floor: 0,
            gc_pin: None,
            wal: None,
            in_doubt: FxHashMap::default(),
            stats: EngineStats::default(),
        }
    }

    // ---- durability (see `crate::wal` for the full protocol) ----

    /// Attach (or replace) the write-ahead log: every commit appends a
    /// redo record (and, per the log's group-commit policy, flushes)
    /// before the commit becomes visible. Replacing a degraded log with a
    /// healthy one brings the engine out of degraded mode.
    pub fn set_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detach and return the write-ahead log. Failover uses this to move
    /// a dead primary's log — sink, feed, and durability watermarks —
    /// onto its successor (see [`Wal::resume_at`]); the engine left
    /// behind runs volatile and is expected to be discarded.
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Shard id the attached log stamps into records.
    pub fn wal_shard(&self) -> Option<u16> {
        self.wal.as_ref().map(Wal::shard)
    }

    /// Highest commit timestamp the log knows is durable.
    pub fn wal_durable_ts(&self) -> Option<u64> {
        self.wal.as_ref().map(Wal::durable_ts)
    }

    /// The log's sticky failure, if the engine is running degraded.
    pub fn wal_failure(&self) -> Option<String> {
        self.wal
            .as_ref()
            .and_then(|w| w.failure().map(str::to_string))
    }

    /// Flush pending redo records to durable storage — the commit
    /// **acknowledgement point** under group commit: a commit may return
    /// `Ok` with its record only appended; nothing may be acknowledged to
    /// a client until this succeeds. No-op without a log; keeps returning
    /// [`DbError::Durability`] while the log is degraded (even with
    /// nothing pending) so batch acknowledgers always learn of the
    /// failure.
    pub fn wal_sync(&mut self) -> Result<(), DbError> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        match wal.sync() {
            Ok(Some(n)) => {
                self.stats.wal_fsyncs += 1;
                if n > 1 {
                    self.stats.wal_group_batches += 1;
                }
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(m) => Err(DbError::Durability(m)),
        }
    }

    /// Replay a redo-log byte stream onto this engine, reconstructing the
    /// committed prefix that reached the log.
    ///
    /// The engine must hold the same schema (tables created in the same
    /// order — table ids are positional) and the same bulk-loaded base
    /// data as the crashed engine, with no transactions run yet. A torn
    /// tail (crash mid-append) is truncated cleanly and reported; any
    /// mid-stream corruption — checksum mismatch, bad framing,
    /// non-monotone timestamps, a record from a different shard —
    /// fails loudly with [`DbError::Durability`], leaving the engine in
    /// an unspecified state that must be discarded.
    ///
    /// Recovery and log-shipping replicas share one replay loop: this
    /// runs a fresh [`RedoTailer`] over the whole log, so every commit
    /// applies through [`Engine::apply_redo`], and two-phase-commit
    /// records replay by protocol — a `Prepare` parks the branch's
    /// images under its gtid, a commit-`Decide` applies them at its
    /// commit timestamp, an abort-`Decide` drops them. A prepare still
    /// undecided at the end of the log becomes an **in-doubt** branch:
    /// its row locks are re-acquired (no new statement can touch those
    /// rows), nothing is applied, and the outcome waits for
    /// [`Engine::resolve_prepared`] — presumed abort when the
    /// coordinator, interrogated, does not know the gtid.
    pub fn recover(&mut self, log: &[u8]) -> Result<RecoveryReport, DbError> {
        if !self.txns.is_empty() || self.commit_ts != 0 {
            return Err(DbError::Durability(
                "recovery requires a fresh engine (schema + base load only)".into(),
            ));
        }
        let mut tailer = RedoTailer::new();
        let applied = tailer.catch_up(log, self)?;
        tailer.adopt_pending(self)?;
        if let Some(wal) = self.wal.as_mut() {
            wal.note_recovered(tailer.last_ts());
        }
        Ok(RecoveryReport {
            records_applied: applied.records,
            ops_applied: applied.ops,
            last_ts: tailer.last_ts(),
            valid_len: tailer.offset() as u64,
            truncated_bytes: (log.len() - tailer.offset()) as u64,
        })
    }

    /// Register one in-doubt 2PC branch: re-acquire exclusive locks on
    /// every row the prepared images touch (recovery has no competing
    /// writers, so a conflict means the log is inconsistent) and hold the
    /// images for [`Engine::resolve_prepared`]. Called through
    /// [`RedoTailer::adopt_pending`] for the prepares still undecided at
    /// the end of a replay: by [`Engine::recover`], and by failover when
    /// a promoted replica inherits its dead primary's pending prepares.
    pub fn adopt_in_doubt(&mut self, gtid: u64, ops: Vec<RedoOp>) -> Result<(), DbError> {
        let dur = |m: String| DbError::Durability(m);
        if self.in_doubt.contains_key(&gtid) {
            return Err(dur(format!("duplicate in-doubt gtid {gtid}")));
        }
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        for op in &ops {
            let (ti, key) = match op {
                RedoOp::Put { table, row } => {
                    let ti = *table as usize;
                    let t = self
                        .tables
                        .get(ti)
                        .ok_or_else(|| dur(format!("in-doubt gtid {gtid}: unknown table {ti}")))?;
                    (ti, t.def.key_of(row))
                }
                RedoOp::Delete { table, key } => {
                    let ti = *table as usize;
                    if self.tables.get(ti).is_none() {
                        return Err(dur(format!("in-doubt gtid {gtid}: unknown table {ti}")));
                    }
                    (ti, key.clone())
                }
            };
            if !matches!(
                self.locks.acquire(txn, ti, &key, LockMode::Exclusive),
                Acquire::Granted
            ) {
                self.locks.release_all(txn);
                return Err(dur(format!(
                    "in-doubt gtid {gtid} conflicts with already-held locks"
                )));
            }
        }
        self.txns.insert(
            txn,
            Txn {
                prepared: true,
                gtid: Some(gtid),
                ..Txn::default()
            },
        );
        self.in_doubt.insert(gtid, InDoubtBranch { txn, ops });
        self.stats.in_doubt_recovered += 1;
        Ok(())
    }

    /// Gtids of in-doubt branches awaiting [`Engine::resolve_prepared`],
    /// ascending.
    pub fn in_doubt_gtids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.in_doubt.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Resolve one in-doubt branch with the coordinator's verdict. A
    /// commit applies the prepared images at a fresh commit timestamp
    /// (logging the decide record first — same write-ahead discipline as
    /// [`Engine::commit`]); an abort simply drops them (the decide record
    /// is best-effort: presumed abort makes a lost abort-decide safe).
    /// Either way the branch's locks are released.
    pub fn resolve_prepared(&mut self, gtid: u64, commit: bool) -> Result<(), DbError> {
        let branch = self
            .in_doubt
            .remove(&gtid)
            .ok_or_else(|| DbError::Schema(format!("unknown in-doubt gtid {gtid}")))?;
        if commit {
            let ts = self.commit_ts + 1;
            let decide = wal::Record::Decide {
                gtid,
                commit: true,
                ts,
            };
            if let Err(msg) = self.wal_append(decide, &[]) {
                self.in_doubt.insert(gtid, branch);
                return Err(DbError::Durability(msg));
            }
            for op in branch.ops {
                self.replay_op(op, ts)
                    .map_err(|e| DbError::Durability(format!("in-doubt commit of {gtid}: {e}")))?;
            }
            self.commit_ts = ts;
            self.run_gc();
            self.stats.in_doubt_commits += 1;
            self.stats.commits += 1;
        } else {
            let abort = wal::Record::Decide {
                gtid,
                commit: false,
                ts: 0,
            };
            let _ = self.wal_append(abort, &[]);
            self.stats.in_doubt_aborts += 1;
            self.stats.prepare_aborts += 1;
            self.stats.aborts += 1;
        }
        self.locks.release_all(branch.txn);
        self.txns.remove(&branch.txn);
        Ok(())
    }

    /// Apply one redo record *incrementally*: the step of the one replay
    /// loop ([`RedoTailer`]) that both log-shipping replicas and
    /// [`Engine::recover`] run. The engine may be serving lagged snapshot
    /// reads concurrently (open snapshots pin GC through the normal
    /// refcount path, so a reader at an older horizon keeps its versions
    /// while new records stamp past it).
    ///
    /// The record's `commit_ts` must be strictly past this engine's
    /// applied horizon (ship order = commit order), and its shard must
    /// match the attached log's shard, if any. On success the engine's
    /// commit horizon advances to `rec.commit_ts` — the timestamp
    /// [`Engine::begin_read_only_at`] serves as the replica's applied
    /// horizon.
    pub fn apply_redo(&mut self, rec: wal::RedoRecord) -> Result<(), DbError> {
        let dur = |m: String| DbError::Durability(m);
        if rec.commit_ts <= self.commit_ts {
            return Err(dur(format!(
                "redo record ts {} is not past the applied horizon {}",
                rec.commit_ts, self.commit_ts
            )));
        }
        if let Some(shard) = self.wal_shard() {
            if rec.shard != shard {
                return Err(dur(format!(
                    "redo record belongs to shard {}, not {shard}",
                    rec.shard
                )));
            }
        }
        let ts = rec.commit_ts;
        for op in rec.ops {
            self.replay_op(op, ts)
                .map_err(|e| dur(format!("redo apply at ts {ts}: {e}")))?;
            self.stats.redo_ops += 1;
        }
        self.commit_ts = ts;
        self.stats.redo_records += 1;
        self.run_gc();
        Ok(())
    }

    /// Apply one redo op at commit timestamp `ts`. Redo is physical and
    /// keyed: a put overwrites (or inserts/resurrects) the row image by
    /// primary key; a delete tombstones it. Anything that does not line
    /// up with the replayed state — unknown table, delete of an absent
    /// row — is corruption.
    fn replay_op(&mut self, op: RedoOp, ts: u64) -> Result<(), String> {
        let (ti, rid) = match op {
            RedoOp::Put { table, row } => {
                let ti = table as usize;
                let t = self
                    .tables
                    .get_mut(ti)
                    .ok_or_else(|| format!("unknown table id {table}"))?;
                let key = t.def.key_of(&row);
                let rid = match t.pk_lookup(&key) {
                    // Live row: overwrite. Absent or retained-deleted:
                    // insert (which resurrects a retained slot).
                    Some(rid) if t.get(rid).is_some() => {
                        t.update_shared(rid, row)?;
                        rid
                    }
                    _ => t.insert_shared(row)?,
                };
                (ti, rid)
            }
            RedoOp::Delete { table, key } => {
                let ti = table as usize;
                let t = self
                    .tables
                    .get_mut(ti)
                    .ok_or_else(|| format!("unknown table id {table}"))?;
                let rid = t
                    .pk_lookup(&key)
                    .filter(|&r| t.get(r).is_some())
                    .ok_or_else(|| format!("delete of absent key {key:?}"))?;
                t.delete(rid)?;
                (ti, rid)
            }
        };
        let (stamped, prunable) = self.tables[ti].stamp_version(rid, ts);
        if stamped {
            self.stats.versions_created += 1;
        }
        if prunable {
            self.gc_pending.push((ti, rid));
        }
        Ok(())
    }

    pub fn create_table(&mut self, def: crate::schema::TableDef) {
        assert!(
            !self.by_name.contains_key(&def.name),
            "duplicate table `{}`",
            def.name
        );
        self.by_name.insert(def.name.clone(), self.tables.len());
        self.tables.push(Table::new(def));
        self.schema_epoch += 1;
    }

    /// Add (and backfill) a secondary index on an existing table.
    /// Invalidates cached prepared plans, which re-resolve — and may pick
    /// the new index — on their next execution.
    pub fn add_index(&mut self, table: &str, col: &str) -> Result<(), DbError> {
        let ti = self.table_id(table)?;
        let ci = self.tables[ti]
            .def
            .col_index(col)
            .ok_or_else(|| DbError::Schema(format!("unknown column `{col}` in `{table}`")))?;
        self.tables[ti].add_secondary(ci);
        self.schema_epoch += 1;
        Ok(())
    }

    /// Bulk-load a row outside any transaction (no locking, no undo). The
    /// row is stamped as committed at timestamp 0, so it is visible to
    /// every snapshot.
    pub fn load_row(&mut self, table: &str, row: Vec<Scalar>) {
        let ti = *self
            .by_name
            .get(table)
            .unwrap_or_else(|| panic!("unknown table `{table}`"));
        let rid = self.tables[ti]
            .insert(row)
            .unwrap_or_else(|e| panic!("bulk load failed: {e}"));
        self.tables[ti].stamp_version(rid, 0);
    }

    pub fn table_len(&self, table: &str) -> usize {
        self.by_name
            .get(table)
            .map(|&t| self.tables[t].len())
            .unwrap_or(0)
    }

    /// Committed versions retained in `table` (diagnostics and GC tests:
    /// with no open snapshot and GC caught up, exactly one per live row).
    pub fn table_versions(&self, table: &str) -> usize {
        self.by_name
            .get(table)
            .map(|&t| self.tables[t].total_versions())
            .unwrap_or(0)
    }

    /// Snapshot a table's full contents in primary-key order (testing and
    /// diagnostics — not a transactional read).
    pub fn dump_table(&self, table: &str) -> Vec<Vec<Scalar>> {
        let Some(&ti) = self.by_name.get(table) else {
            return Vec::new();
        };
        let t = &self.tables[ti];
        t.full_scan_iter()
            // Skip version-retained (deleted) slots: only current rows.
            .filter_map(|rid| t.get(rid).map(|r| r.to_vec()))
            .collect()
    }

    /// Schema of a table, if it exists (sharded loaders route rows by the
    /// def's shard key).
    pub fn table_def(&self, table: &str) -> Option<&crate::schema::TableDef> {
        self.by_name.get(table).map(|&t| &self.tables[t].def)
    }

    /// Names of all tables (testing and diagnostics).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.keys().cloned().collect();
        names.sort();
        names
    }

    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.txns.insert(id, Txn::default());
        id
    }

    /// Begin a read-write transaction that keeps the wait-die age of an
    /// earlier incarnation (`age` = the first incarnation's id). A
    /// restarted transaction thereby grows *older* relative to newer
    /// arrivals instead of re-entering as the youngest and dying again —
    /// wait-die's standard no-starvation rule.
    pub fn begin_aged(&mut self, age: u64) -> TxnId {
        let id = self.begin();
        self.locks.set_age(id, age);
        id
    }

    /// Begin a read-only *snapshot* transaction: every statement reads the
    /// committed prefix as of this instant, without locks. Write
    /// statements return [`DbError::ReadOnly`].
    pub fn begin_read_only(&mut self) -> TxnId {
        let ts = self.commit_ts;
        self.begin_read_only_at(ts)
            .expect("a snapshot at the current commit timestamp is always admissible")
    }

    /// Begin a read-only snapshot transaction at an explicit timestamp —
    /// the replica serving path, where `ts` is the replica's applied redo
    /// horizon rather than a timestamp this engine's own writers
    /// produced. `ts` may fall *between* local commit timestamps; the
    /// snapshot refcount pins the GC horizon at `ts` exactly as a
    /// current-instant snapshot would, so no version the snapshot can
    /// observe is pruned while it is open.
    ///
    /// Refused (with [`DbError::Schema`]) when `ts` is in the future —
    /// past the latest commit — or below the GC floor, where versions a
    /// snapshot at `ts` could observe may already have been pruned.
    pub fn begin_read_only_at(&mut self, ts: u64) -> Result<TxnId, DbError> {
        if ts > self.commit_ts {
            self.stats.snapshot_rejects += 1;
            return Err(DbError::Schema(format!(
                "snapshot timestamp {ts} is past the commit horizon {}",
                self.commit_ts
            )));
        }
        if ts < self.gc_floor {
            self.stats.snapshot_rejects += 1;
            return Err(DbError::Schema(format!(
                "snapshot timestamp {ts} is below the GC floor {} (versions pruned)",
                self.gc_floor
            )));
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        *self.snapshots.entry(ts).or_insert(0) += 1;
        self.txns.insert(
            id,
            Txn {
                read_only: true,
                snap_ts: ts,
                ..Txn::default()
            },
        );
        self.stats.read_only_txns += 1;
        if ts < self.commit_ts {
            self.stats.lagged_snapshots += 1;
        }
        Ok(id)
    }

    /// Pin the GC horizon: versions at or after `pin` are retained even
    /// when no snapshot holds them open, keeping
    /// [`Engine::begin_read_only_at`]`(ts)` admissible for any
    /// `ts >= pin`. `None` releases the pin. Used to hold primary
    /// history at a lagged replica's applied horizon for differential
    /// comparison.
    pub fn set_gc_pin(&mut self, pin: Option<u64>) {
        self.gc_pin = pin;
    }

    /// Latest commit timestamp (the snapshot a read-only transaction
    /// beginning now would observe).
    pub fn current_commit_ts(&self) -> u64 {
        self.commit_ts
    }

    /// Oldest snapshot still held open by a read-only transaction.
    pub fn oldest_snapshot(&self) -> Option<u64> {
        self.snapshots.keys().next().copied()
    }

    /// Next transaction id this engine would assign. A failover
    /// supervisor reads this off the dead engine and feeds it to the
    /// successor's [`Engine::reserve_txn_ids`].
    pub fn txn_id_floor(&self) -> u64 {
        self.next_txn
    }

    /// Never assign a transaction id below `floor`. A respawned shard
    /// must not reuse ids the dead incarnation handed to coordinators:
    /// a stale cleanup `abort(t)` arriving after failover would
    /// otherwise kill an unrelated new transaction that drew the same
    /// id.
    pub fn reserve_txn_ids(&mut self, floor: u64) {
        self.next_txn = self.next_txn.max(floor);
    }

    /// Commit: append the redo record to the write-ahead log (if one is
    /// attached), stamp touched rows with a fresh commit timestamp,
    /// release locks, return (cost, woken waiters). Read-only
    /// transactions hold no locks and stamp nothing; ending one may
    /// advance the GC horizon.
    ///
    /// A log-append failure returns [`DbError::Durability`] with the
    /// transaction **still open** — undo log intact, locks held — so the
    /// caller aborts it through the normal [`Engine::abort`] path (which
    /// also delivers the lock wake-ups). Nothing of the failed commit is
    /// visible to any snapshot.
    pub fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let t = self.txns.remove(&txn).ok_or(DbError::UnknownTxn)?;
        if t.gtid.is_some_and(|g| self.in_doubt.contains_key(&g)) {
            // A recovered in-doubt branch has no undo log to commit from;
            // its images apply through `resolve_prepared` only.
            self.txns.insert(txn, t);
            return Err(DbError::Schema(
                "in-doubt branch must be resolved via resolve_prepared".into(),
            ));
        }
        if t.read_only {
            self.end_snapshot(t.snap_ts);
            self.stats.commits += 1;
            return Ok((cost::TXN_END, Vec::new()));
        }
        if !t.undo.is_empty() {
            let ts = self.commit_ts + 1;
            let touched = self.touched_rows(&t.undo);
            // A branch whose yes-vote is already durable (prepare record
            // carries the images) logs only the outcome.
            let (rec, images) = match t.gtid {
                Some(gtid) => {
                    let decide = wal::Record::Decide {
                        gtid,
                        commit: true,
                        ts,
                    };
                    (decide, &[][..])
                }
                None => (wal::Record::Commit { ts }, &touched[..]),
            };
            if let Err(msg) = self.wal_append(rec, images) {
                self.txns.insert(txn, t);
                return Err(DbError::Durability(msg));
            }
            self.commit_ts = ts;
            self.stamp_touched(&touched, ts);
            self.run_gc();
        }
        let woken = self.locks.release_all(txn);
        self.stats.commits += 1;
        Ok((cost::TXN_END, woken))
    }

    /// Whether `txn` is open and has voted yes ([`Engine::prepare_commit`]):
    /// its outcome belongs to the coordinator.
    pub fn is_prepared(&self, txn: TxnId) -> bool {
        self.txns.get(&txn).is_some_and(|t| t.prepared)
    }

    /// Two-phase-commit **prepare**: promise that [`Engine::commit`] on
    /// this transaction will succeed barring a durability failure. The
    /// transaction's locks stay held and its undo log is retained, but no
    /// further statements are accepted — the outcome now belongs to the
    /// coordinator, which must call `commit` or [`Engine::abort`].
    ///
    /// With a write-ahead log attached, the yes-vote is **durable before
    /// it is returned**: the branch's final row images go to the log as a
    /// `Prepare` record under `gtid` (the coordinator's global
    /// transaction id) and are flushed — group commit does not apply to
    /// votes. A crash after this point recovers the branch as in-doubt
    /// with its locks held; the commit record itself is then just a
    /// `Decide`.
    ///
    /// Rejects read-only transactions (nothing to prepare — snapshot
    /// branches commit trivially) and refuses to prepare while the WAL is
    /// degraded: a shard that cannot make the commit durable must vote
    /// *no* at prepare time, not discover it after the coordinator
    /// decided.
    pub fn prepare_commit(&mut self, txn: TxnId, gtid: u64) -> Result<(), DbError> {
        if let Some(msg) = self.wal_failure() {
            return Err(DbError::Durability(msg));
        }
        let t = self.txns.get(&txn).ok_or(DbError::UnknownTxn)?;
        if t.read_only {
            return Err(DbError::ReadOnly);
        }
        let durable = if self.wal.is_some() && !t.undo.is_empty() {
            let touched = self.touched_rows(&t.undo);
            self.wal_append(wal::Record::Prepare { gtid }, &touched)
                .map_err(DbError::Durability)?;
            true
        } else {
            false
        };
        let t = self.txns.get_mut(&txn).expect("checked above");
        t.prepared = true;
        t.gtid = durable.then_some(gtid);
        self.stats.prepares += 1;
        Ok(())
    }

    /// The distinct `(table, rid)` pairs a transaction's undo log
    /// touched, each of which gets one committed version (and one redo
    /// entry) carrying the row's final state.
    fn touched_rows(&self, undo: &[UndoOp]) -> Vec<(usize, RowId)> {
        let mut touched: Vec<(usize, RowId)> = Vec::with_capacity(undo.len());
        for op in undo {
            let tr = match op {
                UndoOp::Update { table, rid, .. } => Some((*table, *rid)),
                // Inserted (possibly then deleted) and deleted rows keep
                // their primary entry while versions are retained; a miss
                // means the row never survived to commit (insert+delete of
                // a brand-new key), which needs no version.
                UndoOp::Insert { table, key } => {
                    self.tables[*table].pk_lookup(key).map(|r| (*table, r))
                }
                UndoOp::Delete { table, row } => {
                    let key = self.tables[*table].def.key_of(row);
                    self.tables[*table].pk_lookup(&key).map(|r| (*table, r))
                }
            };
            if let Some(tr) = tr {
                touched.push(tr);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Append one redo record of kind `rec` carrying `touched`'s final
    /// row images (a decide carries none: pass `&[]`), flushing per the
    /// log's policy (see [`Wal::append`]). A no-op without a log. Must
    /// run before stamping: the record reads each row's *current*
    /// (about-to-commit) image, and a failure must leave the version
    /// chains untouched.
    fn wal_append(&mut self, rec: wal::Record, touched: &[(usize, RowId)]) -> Result<(), String> {
        let Some(log) = self.wal.as_mut() else {
            return Ok(());
        };
        let mut ops = log.take_ops();
        for &(ti, rid) in touched {
            let t = &self.tables[ti];
            match t.get_shared(rid) {
                Some(img) => ops.push(RedoOp::Put {
                    table: ti as u32,
                    row: Arc::clone(img),
                }),
                None => {
                    // `None` when the latest committed state is already a
                    // tombstone — the same no-op `stamp_version` skips, so
                    // the record carries exactly the observable changes.
                    if let Some(key) = t.deleted_key(rid) {
                        ops.push(RedoOp::Delete {
                            table: ti as u32,
                            key,
                        });
                    }
                }
            }
        }
        let info = log.append(rec, ops)?;
        *match rec {
            wal::Record::Commit { .. } => &mut self.stats.wal_records,
            wal::Record::Prepare { .. } => &mut self.stats.wal_prepare_records,
            wal::Record::Decide { .. } => &mut self.stats.wal_decide_records,
        } += 1;
        self.stats.wal_bytes += info.bytes;
        if let Some(n) = info.flushed {
            self.stats.wal_fsyncs += 1;
            if n > 1 {
                self.stats.wal_group_batches += 1;
            }
        }
        Ok(())
    }

    /// Stamp one committed version per touched row. A row touched by
    /// several statements is stamped once with its final image.
    fn stamp_touched(&mut self, touched: &[(usize, RowId)], ts: u64) {
        for &(ti, rid) in touched {
            let (stamped, prunable) = self.tables[ti].stamp_version(rid, ts);
            if stamped {
                self.stats.versions_created += 1;
            }
            if prunable {
                self.gc_pending.push((ti, rid));
            }
        }
    }

    /// Close out a snapshot and garbage-collect versions the remaining
    /// snapshots can no longer observe.
    fn end_snapshot(&mut self, snap_ts: u64) {
        match self.snapshots.get_mut(&snap_ts) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.snapshots.remove(&snap_ts);
            }
            None => debug_assert!(false, "unbalanced snapshot release"),
        }
        self.run_gc();
    }

    /// Drain the pending-GC queue against the current horizon (the oldest
    /// active snapshot, or "now" when none is open, capped by the
    /// retention pin). Slots still blocked by an open snapshot re-queue
    /// for the next pass. The floor only advances when a pass actually
    /// runs — horizons never applied prune nothing, so lagged snapshots
    /// behind them stay admissible.
    fn run_gc(&mut self) {
        if self.gc_pending.is_empty() {
            return;
        }
        let mut horizon = self.oldest_snapshot().unwrap_or(self.commit_ts);
        if let Some(pin) = self.gc_pin {
            horizon = horizon.min(pin);
        }
        self.gc_floor = self.gc_floor.max(horizon);
        let pending = std::mem::take(&mut self.gc_pending);
        for (ti, rid) in pending {
            let (dropped, remains) = self.tables[ti].gc_versions(rid, horizon);
            self.stats.versions_gced += dropped;
            if remains {
                self.gc_pending.push((ti, rid));
            }
        }
    }

    /// Abort: apply the undo log in reverse, release locks. Aborted
    /// transactions stamp no versions — their writes never become visible
    /// to any snapshot.
    pub fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let t = self.txns.remove(&txn).ok_or(DbError::UnknownTxn)?;
        if t.gtid.is_some_and(|g| self.in_doubt.contains_key(&g)) {
            // Recovered in-doubt branches resolve through
            // `resolve_prepared`, never the plain abort path.
            self.txns.insert(txn, t);
            return Err(DbError::Schema(
                "in-doubt branch must be resolved via resolve_prepared".into(),
            ));
        }
        if t.read_only {
            self.end_snapshot(t.snap_ts);
            self.stats.aborts += 1;
            return Ok((cost::TXN_END, Vec::new()));
        }
        if t.prepared {
            // Coordinator-decided abort of a prepared participant branch.
            // If the yes-vote reached the log, record the outcome so
            // recovery does not resurrect the branch as in-doubt. Best
            // effort: presumed abort makes a lost abort-decide safe.
            self.stats.prepare_aborts += 1;
            if let Some(gtid) = t.gtid {
                let abort = wal::Record::Decide {
                    gtid,
                    commit: false,
                    ts: 0,
                };
                let _ = self.wal_append(abort, &[]);
            }
        }
        let mut c = cost::TXN_END;
        for op in t.undo.into_iter().rev() {
            c += cost::ROW_WRITE;
            match op {
                UndoOp::Insert { table, key } => {
                    if let Some(rid) = self.tables[table].pk_lookup(&key) {
                        self.tables[table]
                            .delete(rid)
                            .expect("undo insert: row must exist");
                    }
                }
                UndoOp::Delete { table, row } => {
                    self.tables[table]
                        .insert_shared(row)
                        .expect("undo delete: reinsert must succeed");
                }
                UndoOp::Update { table, rid, old } => {
                    self.tables[table]
                        .update_shared(rid, old)
                        .expect("undo update: restore must succeed");
                }
            }
        }
        let woken = self.locks.release_all(txn);
        self.stats.aborts += 1;
        Ok((c, woken))
    }

    // ---- prepared statements (the fast path) ----

    /// Parse `sql` once and return a reusable handle. Repeat calls with
    /// the same text return the same handle. The resolved plan is built
    /// lazily on first execution (so statements may be prepared before
    /// their tables exist) and rebuilt after schema changes.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        if let Some(&id) = self.prepared_by_sql.get(sql) {
            return Ok(id);
        }
        let stmt = sqlparse::parse(sql).map_err(DbError::Parse)?;
        let nparams = sqlparse::param_count(&stmt);
        let id = PreparedId(self.prepared.len() as u32);
        self.prepared.push(PreparedStmt {
            stmt,
            nparams,
            plan: None,
            epoch: 0,
        });
        self.prepared_by_sql.insert(sql.to_string(), id);
        Ok(id)
    }

    /// Access-path kind the statement's current plan uses (resolving the
    /// plan if needed) — for diagnostics and plan-inspection tests.
    pub fn prepared_path_kind(&mut self, id: PreparedId) -> Result<&'static str, DbError> {
        let plan = self.plan_of(id)?;
        Ok(plan.path_kind())
    }

    /// How a prepared statement routes across engine shards (resolving the
    /// plan if needed). See [`crate::prepared::StmtRoute`].
    pub fn prepared_route(&mut self, id: PreparedId) -> Result<prepared::StmtRoute, DbError> {
        let plan = self.plan_of(id)?;
        Ok(prepared::route_of(&plan, &self.tables))
    }

    /// Make sure `id`'s slot holds a plan resolved under the current
    /// schema epoch (the fast path is a hit: two integer compares, no
    /// refcount traffic).
    fn ensure_plan(&mut self, id: PreparedId) -> Result<(), DbError> {
        let idx = id.0 as usize;
        let entry = self
            .prepared
            .get(idx)
            .ok_or_else(|| DbError::Schema(format!("unknown prepared statement {:?}", id)))?;
        if entry.epoch == self.schema_epoch && entry.plan.is_some() {
            self.stats.prepared_hits += 1;
            return Ok(());
        }
        self.stats.prepared_misses += 1;
        let plan = Arc::new(prepared::resolve_plan(
            &self.prepared[idx].stmt,
            &self.tables,
            &self.by_name,
        )?);
        let entry = &mut self.prepared[idx];
        entry.plan = Some(plan);
        entry.epoch = self.schema_epoch;
        Ok(())
    }

    /// Fetch (or lazily resolve) a shared handle to the plan for `id`
    /// under the current schema epoch (diagnostics / routing).
    fn plan_of(&mut self, id: PreparedId) -> Result<Arc<Plan>, DbError> {
        self.ensure_plan(id)?;
        Ok(Arc::clone(
            self.prepared[id.0 as usize]
                .plan
                .as_ref()
                .expect("just resolved"),
        ))
    }

    /// Execute a prepared statement: parameter substitution only — no
    /// string hashing, no statement clone, no re-planning. Predicate and
    /// access-path values resolve into engine-owned scratch buffers, so
    /// the steady-state hot path is allocation-light.
    pub fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        if !self.txns.contains_key(&txn) {
            return Err(DbError::UnknownTxn);
        }
        self.stats.statements += 1;
        let nparams = self
            .prepared
            .get(id.0 as usize)
            .ok_or_else(|| DbError::Schema(format!("unknown prepared statement {:?}", id)))?
            .nparams;
        if params.len() < nparams {
            return Err(DbError::Schema(format!(
                "statement needs {nparams} parameters, got {}",
                params.len()
            )));
        }
        // Move the cached plan handle *out* of its slot for the duration
        // of execution instead of cloning it: zero refcount traffic on
        // the per-statement fast path (the `Arc` only pays atomics when a
        // handle is actually shared, e.g. by diagnostics). Nothing inside
        // `execute_plan` can touch the slot — it never prepares or
        // resolves — so the temporary `None` is unobservable.
        let plan = match self.ensure_plan(id) {
            Ok(()) => self.prepared[id.0 as usize]
                .plan
                .take()
                .expect("ensure_plan resolved the slot"),
            Err(e) => return self.finish_stmt(txn, Err(e)),
        };
        let res = self.execute_plan(txn, &plan, params);
        self.prepared[id.0 as usize].plan = Some(plan);
        self.finish_stmt(txn, res)
    }

    /// Execute a resolved plan: parameter substitution into the skeleton,
    /// then the shared execution core. Used by both the prepared path
    /// (cached plan) and the ad-hoc path (plan resolved per execution).
    /// Read-only (snapshot) transactions divert to the lock-free snapshot
    /// executor; their write statements are rejected before any mutation.
    fn execute_plan(
        &mut self,
        txn: TxnId,
        plan: &Plan,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        if self.txns.get(&txn).is_some_and(|t| t.prepared) {
            return Err(DbError::Schema(
                "statement on a prepared transaction (awaiting 2PC outcome)".into(),
            ));
        }
        let snap = self
            .txns
            .get(&txn)
            .filter(|t| t.read_only)
            .map(|t| t.snap_ts);
        if let Some(snap_ts) = snap {
            let Plan::Select(p) = plan else {
                return Err(DbError::ReadOnly);
            };
            let (preds, path) = self.resolve_exec(&p.preds, p.subsumed, &p.path, params);
            let r = self
                .run_select_snapshot(snap_ts, p.ti, &preds, &path, p.order_by, p.limit, &p.proj);
            self.recycle_exec(preds, path);
            return r;
        }
        match plan {
            Plan::Select(p) => {
                let (preds, path) = self.resolve_exec(&p.preds, p.subsumed, &p.path, params);
                let r = self.run_select(txn, p.ti, &preds, &path, p.order_by, p.limit, &p.proj);
                self.recycle_exec(preds, path);
                r
            }
            // Degraded-mode policy: a failed log can no longer make
            // commits durable, so write statements are rejected up front
            // (reads — locking or snapshot — keep serving).
            _ if self.wal.as_ref().is_some_and(|w| w.failure().is_some()) => Err(
                DbError::Durability(self.wal_failure().expect("checked in guard")),
            ),
            Plan::Insert(p) => {
                let row: Vec<Scalar> = p.row.iter().map(|t| t.resolve(params).clone()).collect();
                self.run_insert(txn, p.ti, row)
            }
            Plan::Update(p) => {
                let (preds, path) = self.resolve_exec(&p.preds, p.subsumed, &p.path, params);
                let r = self.run_update(txn, p.ti, &preds, &path, &p.sets, params);
                self.recycle_exec(preds, path);
                r
            }
            Plan::Delete(p) => {
                let (preds, path) = self.resolve_exec(&p.preds, p.subsumed, &p.path, params);
                let r = self.run_delete(txn, p.ti, &preds, &path);
                self.recycle_exec(preds, path);
                r
            }
        }
    }

    /// Substitute parameters into a plan's predicate and path skeletons,
    /// reusing the engine's scratch buffers.
    fn resolve_exec(
        &mut self,
        preds: &[prepared::PredP],
        subsumed: bool,
        path: &prepared::PathP,
        params: &[Scalar],
    ) -> (Vec<RPred>, Path) {
        let mut rp = std::mem::take(&mut self.pred_scratch);
        rp.clear();
        // Predicates the access path already guarantees (exact-pk point
        // lookups) need no per-row re-check: leave the list empty.
        if !subsumed {
            rp.extend(
                preds
                    .iter()
                    .map(|pr| (pr.col, pr.op, pr.term.resolve(params).clone())),
            );
        }
        let mut buf = std::mem::take(&mut self.path_scratch);
        buf.clear();
        let path = match path {
            prepared::PathP::PkPoint(terms) => {
                buf.extend(terms.iter().map(|t| t.resolve(params).clone()));
                Path::PkPoint(buf)
            }
            prepared::PathP::PkPrefix(terms) => {
                buf.extend(terms.iter().map(|t| t.resolve(params).clone()));
                Path::PkPrefix(buf)
            }
            prepared::PathP::Secondary { slot, term } => {
                self.path_scratch = buf;
                Path::Secondary(*slot, term.resolve(params).clone())
            }
            prepared::PathP::Full => {
                self.path_scratch = buf;
                Path::Full
            }
        };
        (rp, path)
    }

    /// Return scratch buffers taken by [`Engine::resolve_exec`].
    fn recycle_exec(&mut self, preds: Vec<RPred>, path: Path) {
        self.pred_scratch = preds;
        if let Path::PkPoint(v) | Path::PkPrefix(v) = path {
            self.path_scratch = v;
        }
    }

    // ---- ad-hoc execution (the legacy/JDBC-style path) ----

    /// Execute one SQL statement inside `txn`, re-resolving and
    /// re-planning from (cached) parse output. Hot statements should use
    /// [`Engine::prepare`] / [`Engine::execute_prepared`] instead.
    pub fn execute(
        &mut self,
        txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        if !self.txns.contains_key(&txn) {
            return Err(DbError::UnknownTxn);
        }
        self.stats.statements += 1;
        let stmt = self.parse_adhoc(sql)?;
        let needed = sqlparse::param_count(&stmt);
        if params.len() < needed {
            return Err(DbError::Schema(format!(
                "statement needs {needed} parameters, got {}",
                params.len()
            )));
        }
        // Ad-hoc statements pay full name resolution and planning on
        // every execution (the JDBC-style cost the prepared path
        // amortizes) — through the same resolver, so the two paths
        // cannot drift apart semantically.
        let res = prepared::resolve_plan(&stmt, &self.tables, &self.by_name)
            .and_then(|plan| self.execute_plan(txn, &plan, params));
        self.finish_stmt(txn, res)
    }

    /// How ad-hoc SQL routes across engine shards: the
    /// [`Engine::prepared_route`] of text parsed through the ad-hoc parse
    /// cache, planned without registering a prepared statement.
    pub fn route(&mut self, sql: &str) -> Result<prepared::StmtRoute, DbError> {
        let stmt = self.parse_adhoc(sql)?;
        let plan = prepared::resolve_plan(&stmt, &self.tables, &self.by_name)?;
        Ok(prepared::route_of(&plan, &self.tables))
    }

    /// Parse ad-hoc SQL through the parse cache (FIFO-capped at
    /// [`PARSE_CACHE_CAP`]).
    fn parse_adhoc(&mut self, sql: &str) -> Result<SqlStmt, DbError> {
        if let Some(s) = self.parse_cache.get(sql) {
            return Ok(s.clone());
        }
        let s = sqlparse::parse(sql).map_err(DbError::Parse)?;
        if self.parse_cache.len() >= PARSE_CACHE_CAP {
            // FIFO eviction: drop the oldest cached shape.
            if let Some(evict) = self.parse_order.pop_front() {
                self.parse_cache.remove(&evict);
                self.stats.parse_evictions += 1;
            }
        }
        self.parse_order.push_back(sql.to_string());
        self.parse_cache.insert(sql.to_string(), s.clone());
        Ok(s)
    }

    /// One-shot autocommit helper (tests, loaders).
    pub fn exec_auto(&mut self, sql: &str, params: &[Scalar]) -> Result<QueryResult, DbError> {
        let t = self.begin();
        match self.execute(t, sql, params) {
            Ok(r) => match self.commit(t) {
                Ok(_) => Ok(r),
                // A durability-failed commit leaves the txn open for the
                // caller to abort — that's us here.
                Err(e) => {
                    let _ = self.abort(t);
                    Err(e)
                }
            },
            Err(e) => {
                let _ = self.abort(t);
                Err(e)
            }
        }
    }

    /// Shared statement epilogue: stats + per-transaction cost tally.
    fn finish_stmt(
        &mut self,
        txn: TxnId,
        res: Result<QueryResult, DbError>,
    ) -> Result<QueryResult, DbError> {
        match &res {
            Err(DbError::WouldBlock) => self.stats.would_blocks += 1,
            Err(DbError::Deadlock) => self.stats.deadlocks += 1,
            Ok(r) => {
                if let Some(t) = self.txns.get_mut(&txn) {
                    t.cost += r.cost;
                }
            }
            _ => {}
        }
        res
    }

    // ---- helpers ----

    fn table_id(&self, name: &str) -> Result<usize, DbError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::Schema(format!("unknown table `{name}`")))
    }

    /// Drive `consider` over every candidate row id `path` yields. Shared
    /// by the locking and snapshot read paths so access-path dispatch can
    /// never drift between them. `scratch` is a reusable probe buffer for
    /// point lookups.
    fn for_each_candidate(
        t: &Table,
        path: &Path,
        scratch: &mut Vec<Scalar>,
        mut consider: impl FnMut(RowId),
    ) {
        match path {
            Path::PkPoint(k) => {
                if let Some(rid) = t.pk_lookup_buf(k, scratch) {
                    consider(rid);
                }
            }
            Path::PkPrefix(p) => t.pk_prefix_iter(p).for_each(&mut consider),
            Path::Secondary(slot, v) => t
                .index_scan(*slot, v)
                .iter()
                .copied()
                .for_each(&mut consider),
            Path::Full => t.full_scan_iter().for_each(&mut consider),
        }
    }

    /// Find matching rows without materializing the candidate list:
    /// fills `matched` (a reusable buffer) and returns rows examined.
    fn find_matches(
        t: &Table,
        preds: &[RPred],
        path: &Path,
        scratch: &mut Vec<Scalar>,
        matched: &mut Vec<RowId>,
    ) -> usize {
        matched.clear();
        let mut examined = 0usize;
        Self::for_each_candidate(t, path, scratch, |rid| {
            // Version-retained (deleted) slots have no current image;
            // they exist only for snapshot readers.
            let Some(row) = t.get(rid) else {
                return;
            };
            examined += 1;
            if preds.iter().all(|(c, op, v)| op.eval(row[*c].total_cmp(v))) {
                matched.push(rid);
            }
        });
        examined
    }

    /// Phantom protection for point writes: an UPDATE/DELETE whose exact
    /// primary-key probe matched nothing still X-locks the probed key, so
    /// a concurrent INSERT of that key serializes against it (poor man's
    /// next-key lock). Without this, a zero-match point write and an
    /// insert of the same key would not conflict and strict 2PL's
    /// commit-order serializability would not hold.
    fn lock_point_gap(&mut self, txn: TxnId, ti: usize, key: &[Scalar]) -> Result<u64, DbError> {
        match self.locks.acquire(txn, ti, key, LockMode::Exclusive) {
            Acquire::Granted => Ok(cost::LOCK_OP),
            Acquire::Wait => Err(DbError::WouldBlock),
            Acquire::Die => Err(DbError::Deadlock),
        }
    }

    /// Lock each matched row. Returns the lock cost, or the appropriate
    /// error before any mutation.
    fn lock_rows(
        &mut self,
        txn: TxnId,
        ti: usize,
        rids: &[RowId],
        mode: LockMode,
    ) -> Result<u64, DbError> {
        let mut key = std::mem::take(&mut self.key_scratch);
        for &r in rids {
            key.clear();
            {
                let t = &self.tables[ti];
                let row = t.get(r).expect("row exists");
                key.extend(t.def.pkey.iter().map(|&i| row[i].clone()));
            }
            let acq = self.locks.acquire(txn, ti, &key, mode);
            match acq {
                Acquire::Granted => {}
                Acquire::Wait => {
                    self.key_scratch = key;
                    return Err(DbError::WouldBlock);
                }
                Acquire::Die => {
                    self.key_scratch = key;
                    return Err(DbError::Deadlock);
                }
            }
        }
        self.key_scratch = key;
        Ok(cost::LOCK_OP * rids.len() as u64)
    }

    // ---- shared resolved execution core ----

    // The argument list *is* the resolved statement (one field per plan
    // component); bundling them into a struct would just rename the
    // problem.
    #[allow(clippy::too_many_arguments)]
    fn run_select(
        &mut self,
        txn: TxnId,
        ti: usize,
        preds: &[RPred],
        path: &Path,
        order_by: Option<(usize, bool)>,
        limit: Option<usize>,
        proj: &ProjP,
    ) -> Result<QueryResult, DbError> {
        let mut scratch = std::mem::take(&mut self.key_scratch);
        let mut matched = std::mem::take(&mut self.rid_scratch);
        let examined =
            Self::find_matches(&self.tables[ti], preds, path, &mut scratch, &mut matched);
        self.key_scratch = scratch;
        self.stats.rows_examined += examined as u64;

        let mut c = cost::STMT_BASE
            + cost::BTREE_STEP * cost::btree_depth(self.tables[ti].len())
            + cost::ROW_READ * matched.len() as u64
            + cost::ROW_SCAN * (examined - matched.len()) as u64;
        match self.lock_rows(txn, ti, &matched, LockMode::Shared) {
            Ok(lc) => c += lc,
            Err(e) => {
                self.rid_scratch = matched;
                return Err(e);
            }
        }

        let t = &self.tables[ti];
        let shared = |&r: &RowId| t.get_shared(r).expect("locked row exists");
        let out = Self::finish_select(matched.iter().map(shared), c, order_by, limit, proj);
        // Restore the scratch buffer on the error path too.
        self.rid_scratch = matched;
        out
    }

    /// Snapshot SELECT: resolve candidates through the same access paths
    /// as [`Engine::run_select`], but read each row's committed image *as
    /// of* `snap_ts` and acquire no locks. Charges the same virtual cost
    /// as a locking read minus the lock operations (a conventional MVCC
    /// server does the same index work; version resolution replaces lock
    /// acquisition).
    #[allow(clippy::too_many_arguments)]
    fn run_select_snapshot(
        &mut self,
        snap_ts: u64,
        ti: usize,
        preds: &[RPred],
        path: &Path,
        order_by: Option<(usize, bool)>,
        limit: Option<usize>,
        proj: &ProjP,
    ) -> Result<QueryResult, DbError> {
        let mut scratch = std::mem::take(&mut self.key_scratch);
        let mut examined = 0usize;
        let t = &self.tables[ti];
        let mut rows: Vec<&Arc<Vec<Scalar>>> = Vec::new();
        Self::for_each_candidate(t, path, &mut scratch, |rid| {
            // A candidate with no version at the snapshot was inserted
            // later or deleted earlier — invisible.
            let Some(img) = t.version_at(rid, snap_ts) else {
                return;
            };
            examined += 1;
            if preds.iter().all(|(c, op, v)| op.eval(img[*c].total_cmp(v))) {
                rows.push(img);
            }
        });

        let c = cost::STMT_BASE
            + cost::BTREE_STEP * cost::btree_depth(t.len())
            + cost::ROW_READ * rows.len() as u64
            + cost::ROW_SCAN * (examined - rows.len()) as u64;
        let out = Self::finish_select(rows.into_iter(), c, order_by, limit, proj);
        self.key_scratch = scratch;
        self.stats.rows_examined += examined as u64;
        self.stats.snapshot_reads += 1;
        out
    }

    /// The step both SELECT executors share once they have their matches
    /// in scan order and the statement's cost so far (`base_cost`):
    /// aggregate, or order, limit and project.
    ///
    /// An aggregate folds every match into one row, and LIMIT then applies
    /// to that row (the planner refuses ORDER BY beside an aggregate).
    /// Otherwise each match's sort key is read once. Under `LIMIT k` the k
    /// best rows are partitioned out in linear time and only they are
    /// sorted. Ties break by scan position, and DESC reverses the whole
    /// order, so the rows equal a stable sort, reversed for DESC, then
    /// truncated. The ORDER BY charge stays [`cost::ROW_SORT`]·n·log n
    /// over every match.
    fn finish_select<'a>(
        matches: impl ExactSizeIterator<Item = &'a Arc<Vec<Scalar>>>,
        base_cost: u64,
        order_by: Option<(usize, bool)>,
        limit: Option<usize>,
        proj: &ProjP,
    ) -> Result<QueryResult, DbError> {
        let result = |rows, cost| {
            Ok(QueryResult {
                rows,
                affected: 0,
                cost,
            })
        };
        let cols = match proj {
            ProjP::All => None,
            ProjP::Cols(idxs) => Some(&idxs[..]),
            ProjP::Agg(f, ci) => {
                let v = Self::aggregate(*f, *ci, matches)?;
                let rows = match limit {
                    Some(0) => Vec::new(),
                    _ => vec![Arc::new(vec![v])],
                };
                return result(rows, base_cost);
            }
        };
        let keep = limit.unwrap_or(usize::MAX);
        let Some((ci, desc)) = order_by else {
            return result(Self::project(matches.take(keep), cols), base_cost);
        };
        let n = matches.len().max(1) as u64;
        let sort_cost = cost::ROW_SORT * n * (64 - n.leading_zeros() as u64).max(1);
        let mut keyed: Vec<(&Scalar, usize, &Arc<Vec<Scalar>>)> = matches
            .enumerate()
            .map(|(pos, r)| (&r[ci], pos, r))
            .collect();
        let order = |a: &(&Scalar, usize, _), b: &(&Scalar, usize, _)| {
            let o = a.0.total_cmp(b.0).then(a.1.cmp(&b.1));
            if desc {
                o.reverse()
            } else {
                o
            }
        };
        if keep < keyed.len() {
            keyed.select_nth_unstable_by(keep, order);
            keyed.truncate(keep);
        }
        // (key, position) is unique, so an unstable sort is deterministic.
        keyed.sort_unstable_by(order);
        let rows = Self::project(keyed.into_iter().map(|(_, _, r)| r), cols);
        result(rows, base_cost + sort_cost)
    }

    /// Project a row stream onto `cols`, or share the stored row images
    /// (zero-copy) when every column is selected.
    fn project<'a>(
        rows: impl Iterator<Item = &'a Arc<Vec<Scalar>>>,
        cols: Option<&[usize]>,
    ) -> Vec<Arc<Vec<Scalar>>> {
        match cols {
            None => rows.map(Arc::clone).collect(),
            Some(idxs) => rows
                .map(|r| Arc::new(idxs.iter().map(|&i| r[i].clone()).collect()))
                .collect(),
        }
    }

    /// Single-pass aggregation over a row stream (NULLs skipped). An
    /// integer SUM whose total does not fit 64 bits fails the statement;
    /// AVG sums in f64 and always answers.
    fn aggregate<'a>(
        f: AggFn,
        ci: Option<usize>,
        rows: impl Iterator<Item = &'a Arc<Vec<Scalar>>>,
    ) -> Result<Scalar, DbError> {
        if f == AggFn::Count {
            return Ok(Scalar::Int(rows.count() as i64));
        }
        let ci = ci.expect("parser enforces column for non-COUNT aggregates");
        let mut best: Option<&Scalar> = None; // MIN / MAX
        let mut isum = 0i128; // cannot overflow before 2^64 rows
        let mut fsum = 0f64;
        let mut all_int = true;
        let mut n = 0u64;
        for r in rows {
            let v = &r[ci];
            if matches!(v, Scalar::Null) {
                continue;
            }
            n += 1;
            match f {
                AggFn::Min => {
                    if best.is_none_or(|b| v.total_cmp(b).is_lt()) {
                        best = Some(v);
                    }
                }
                AggFn::Max => {
                    // `>=` so ties keep the later row, like `max_by`.
                    if best.is_none_or(|b| !v.total_cmp(b).is_lt()) {
                        best = Some(v);
                    }
                }
                AggFn::Sum | AggFn::Avg => {
                    if let Scalar::Int(i) = v {
                        isum += i128::from(*i);
                        fsum += *i as f64;
                    } else {
                        all_int = false;
                        fsum += v
                            .as_double()
                            .ok_or_else(|| DbError::Schema(format!("cannot aggregate {v:?}")))?;
                    }
                }
                AggFn::Count => unreachable!(),
            }
        }
        if n == 0 {
            return Ok(Scalar::Null);
        }
        Ok(match f {
            AggFn::Min | AggFn::Max => best.expect("nonempty").clone(),
            AggFn::Sum if all_int => {
                Scalar::Int(i64::try_from(isum).map_err(|_| {
                    DbError::Schema(format!("integer SUM {isum} overflows 64 bits"))
                })?)
            }
            AggFn::Sum => Scalar::Double(fsum),
            AggFn::Avg => Scalar::Double(fsum / n as f64),
            AggFn::Count => unreachable!(),
        })
    }

    fn run_insert(
        &mut self,
        txn: TxnId,
        ti: usize,
        row: Vec<Scalar>,
    ) -> Result<QueryResult, DbError> {
        self.tables[ti].validate(&row).map_err(DbError::Schema)?;
        let key = self.tables[ti].def.key_of(&row);
        match self.locks.acquire(txn, ti, &key, LockMode::Exclusive) {
            Acquire::Granted => {}
            Acquire::Wait => return Err(DbError::WouldBlock),
            Acquire::Die => return Err(DbError::Deadlock),
        }
        self.tables[ti].insert(row).map_err(DbError::Schema)?;
        self.txns
            .get_mut(&txn)
            .expect("txn checked in execute")
            .undo
            .push(UndoOp::Insert { table: ti, key });
        Ok(QueryResult {
            rows: Vec::new(),
            affected: 1,
            cost: cost::STMT_BASE
                + cost::BTREE_STEP * cost::btree_depth(self.tables[ti].len())
                + cost::ROW_WRITE
                + cost::LOCK_OP,
        })
    }

    fn run_update(
        &mut self,
        txn: TxnId,
        ti: usize,
        preds: &[RPred],
        path: &Path,
        sets: &[(usize, SetP)],
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let mut scratch = std::mem::take(&mut self.key_scratch);
        let mut matched = std::mem::take(&mut self.rid_scratch);
        let examined =
            Self::find_matches(&self.tables[ti], preds, path, &mut scratch, &mut matched);
        self.key_scratch = scratch;
        self.stats.rows_examined += examined as u64;

        let mut c = cost::STMT_BASE
            + cost::BTREE_STEP * cost::btree_depth(self.tables[ti].len())
            + cost::ROW_SCAN * (examined - matched.len()) as u64;
        let locked = if matched.is_empty() {
            if let Path::PkPoint(k) = path {
                self.lock_point_gap(txn, ti, k)
            } else {
                Ok(0)
            }
        } else {
            self.lock_rows(txn, ti, &matched, LockMode::Exclusive)
        };
        match locked {
            Ok(lc) => c += lc,
            Err(e) => {
                self.rid_scratch = matched;
                return Err(e);
            }
        }

        let mut affected = 0u64;
        let mut apply = || -> Result<(), DbError> {
            for &rid in &matched {
                let old = Arc::clone(self.tables[ti].get_shared(rid).expect("locked row"));
                let mut new_row = old.as_ref().clone();
                for (ci, se) in sets {
                    new_row[*ci] = Self::eval_set(se, &old, params)?;
                }
                let old = self.tables[ti]
                    .update(rid, new_row)
                    .map_err(DbError::Schema)?;
                self.txns
                    .get_mut(&txn)
                    .expect("txn checked")
                    .undo
                    .push(UndoOp::Update {
                        table: ti,
                        rid,
                        old,
                    });
                affected += 1;
                c += cost::ROW_WRITE;
            }
            Ok(())
        };
        // Restore the scratch buffer on the error path too (the caller
        // aborts the transaction, which undoes any partial application).
        let applied = apply();
        self.rid_scratch = matched;
        applied?;
        Ok(QueryResult {
            rows: Vec::new(),
            affected,
            cost: c,
        })
    }

    /// Evaluate one SET expression against the row's old image. Integer
    /// `c ± ?` that overflows 64 bits fails the statement.
    fn eval_set(se: &SetP, old: &[Scalar], params: &[Scalar]) -> Result<Scalar, DbError> {
        let arith = |ci: usize, t: &prepared::PTerm, minus: bool| -> Result<Scalar, DbError> {
            let base = &old[ci];
            let delta = t.resolve(params);
            match (base, delta) {
                (Scalar::Int(a), Scalar::Int(b)) => {
                    let v = if minus {
                        a.checked_sub(*b)
                    } else {
                        a.checked_add(*b)
                    };
                    v.map(Scalar::Int).ok_or_else(|| {
                        DbError::Schema(format!("SET arithmetic overflows 64 bits on {a}"))
                    })
                }
                _ => {
                    let a = base.as_double().ok_or_else(|| {
                        DbError::Schema(format!("non-numeric SET arithmetic on {base:?}"))
                    })?;
                    let b = delta.as_double().ok_or_else(|| {
                        DbError::Schema(format!("non-numeric SET delta {delta:?}"))
                    })?;
                    Ok(Scalar::Double(if minus { a - b } else { a + b }))
                }
            }
        };
        match se {
            SetP::Term(t) => Ok(t.resolve(params).clone()),
            SetP::SelfPlus(ci, t) => arith(*ci, t, false),
            SetP::SelfMinus(ci, t) => arith(*ci, t, true),
        }
    }

    fn run_delete(
        &mut self,
        txn: TxnId,
        ti: usize,
        preds: &[RPred],
        path: &Path,
    ) -> Result<QueryResult, DbError> {
        let mut scratch = std::mem::take(&mut self.key_scratch);
        let mut matched = std::mem::take(&mut self.rid_scratch);
        let examined =
            Self::find_matches(&self.tables[ti], preds, path, &mut scratch, &mut matched);
        self.key_scratch = scratch;
        self.stats.rows_examined += examined as u64;

        let mut c = cost::STMT_BASE
            + cost::BTREE_STEP * cost::btree_depth(self.tables[ti].len())
            + cost::ROW_SCAN * (examined - matched.len()) as u64;
        let locked = if matched.is_empty() {
            if let Path::PkPoint(k) = path {
                self.lock_point_gap(txn, ti, k)
            } else {
                Ok(0)
            }
        } else {
            self.lock_rows(txn, ti, &matched, LockMode::Exclusive)
        };
        match locked {
            Ok(lc) => c += lc,
            Err(e) => {
                self.rid_scratch = matched;
                return Err(e);
            }
        }

        let mut affected = 0u64;
        for &rid in &matched {
            let row = match self.tables[ti].delete(rid) {
                Ok(row) => row,
                Err(e) => {
                    // Restore the scratch buffer on the error path too.
                    self.rid_scratch = matched;
                    return Err(DbError::Schema(e));
                }
            };
            self.txns
                .get_mut(&txn)
                .expect("txn checked")
                .undo
                .push(UndoOp::Delete { table: ti, row });
            affected += 1;
            c += cost::ROW_WRITE;
        }
        self.rid_scratch = matched;
        Ok(QueryResult {
            rows: Vec::new(),
            affected,
            cost: c,
        })
    }
}
