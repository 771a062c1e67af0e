//! # pyx-db — in-memory relational engine (MySQL/JDBC substitute)
//!
//! The Pyxis paper evaluates against MySQL 5.5 accessed over JDBC. This crate
//! is the reproduction's database substrate: an in-memory relational engine
//! with
//!
//! * a SQL subset parser ([`sqlparse`]) covering the statement shapes TPC-C
//!   and TPC-W need (point/range selects, aggregates, ORDER BY/LIMIT,
//!   parameterized INSERT/UPDATE/DELETE, arithmetic SET expressions),
//! * **prepared statements** ([`prepared`]): [`Engine::prepare`] resolves a
//!   statement once into an indexed plan (table id, column indices,
//!   predicate skeleton with param slots, access path) and
//!   [`Engine::execute_prepared`] re-runs it with no string hashing, no
//!   clone, and no re-planning — the hot path for the simulated workloads,
//! * B-tree primary-key indexes with a hash sidecar for O(1) point
//!   lookups, and secondary indexes ([`index`]),
//! * **strict two-phase row locking** with wait-die deadlock avoidance
//!   ([`lock`]) — essential because the paper's throughput improvements come
//!   from shorter lock hold times (§1),
//! * **multi-version concurrency control** for read-only transactions
//!   ([`table`] version chains + [`Engine::begin_read_only`]): snapshot
//!   reads resolve committed row versions without the lock manager, and
//! * a virtual **cost model** ([`cost`]): every operation reports how many
//!   abstract CPU instructions it consumed, which the discrete-event
//!   simulator charges to the database server's cores.
//!
//! The engine never blocks a thread: a lock conflict surfaces as
//! [`DbError::WouldBlock`], and the caller (the simulator's session driver)
//! suspends the transaction until [`Engine::commit`]/[`Engine::abort`]
//! report which waiters may retry.
//!
//! # Snapshot-isolation guarantees
//!
//! A transaction started with [`Engine::begin_read_only`] observes a
//! **consistent committed prefix**:
//!
//! * Its snapshot timestamp is the engine's commit counter at begin.
//!   Every write transaction atomically stamps all rows it touched with
//!   one fresh commit timestamp at [`Engine::commit`]; aborted
//!   transactions stamp nothing. A snapshot therefore sees *all* effects
//!   of transactions that committed before it began and *none* of any
//!   other transaction — no dirty reads, no non-repeatable reads, no
//!   torn transactions, regardless of how statements interleave.
//! * Snapshot statements never touch the lock manager: they cannot
//!   block, cannot deadlock, and can never be wait-die victims — a
//!   read-only transaction always runs to completion in one attempt.
//! * Write statements inside a read-only transaction are rejected with
//!   [`DbError::ReadOnly`] before any mutation.
//! * Superseded versions are garbage-collected only after the oldest
//!   active snapshot has advanced past them, so an open snapshot's reads
//!   stay stable for its whole lifetime.
//!
//! Read-*write* transactions keep full strict-2PL serializability: their
//! reads still take shared locks (so write skew between read-write
//! transactions remains impossible). Since read-only transactions see a
//! committed prefix of that serial order, the combined history stays
//! serializable. The randomized differential suite
//! (`tests/mvcc_differential.rs`) checks exactly this property against a
//! serial oracle.
//!
//! # Durability guarantees
//!
//! An engine with a write-ahead log attached ([`Engine::set_wal`])
//! promises: **a transaction acknowledged as committed survives a crash;
//! a transaction that does not reach the log never becomes visible.**
//! Mechanically ([`wal`] has the full protocol and record format):
//!
//! * At [`Engine::commit`] the transaction's final row images are encoded
//!   into one commit-timestamped redo record and appended to the log
//!   *before* the commit stamps version chains. If the append fails, the
//!   commit returns [`DbError::Durability`] and the transaction rolls
//!   back — nothing of it is ever visible.
//! * **Group commit**: the record may sit in the OS page cache until the
//!   log's group-commit threshold or the explicit acknowledgement point
//!   [`Engine::wal_sync`] forces an fsync. The contract is
//!   acknowledge-after-flush: a commit may return `Ok` before its record
//!   is durable, but no caller may *acknowledge* that commit externally
//!   until `wal_sync` succeeds — one fsync then covers every commit in
//!   the batch. The default group size of 1 flushes inside every commit.
//! * **Recovery**: re-create the schema (same table order), re-run the
//!   bulk loader (loads stamp at timestamp 0 and are not logged), then
//!   [`Engine::recover`] replays the log's committed prefix in timestamp
//!   order. A torn tail — a crash mid-append — is truncated cleanly and
//!   reported; *any* mid-stream corruption (checksum mismatch, bad
//!   framing, non-monotone timestamps, wrong shard) fails recovery
//!   loudly rather than silently dropping records.
//! * **Degraded mode**: once the log's sink reports an I/O failure the
//!   failure is sticky — the engine rejects further write statements and
//!   commits with [`DbError::Durability`] while reads (snapshot and
//!   locking) keep serving, and [`Engine::wal_sync`] keeps reporting the
//!   failure so acknowledgement points can surface it.
//!
//! The crash-recovery differential suite (`tests/wal_recovery.rs`) drives
//! randomized workloads through a logging engine, crashes it at
//! proptest-chosen byte offsets under every fault class
//! ([`wal::FaultySink`]), recovers, and asserts the result equals a
//! committed-prefix oracle; `tests/wal_faults.rs` pins each fault class
//! to the exact detection path that must catch it.
//!
//! # Replication and staleness guarantees
//!
//! Log-shipping replicas ([`replica`]) extend the durability story into
//! read scale-out: a replica engine replays the primary's redo stream
//! and serves lock-free snapshot reads at its applied horizon.
//!
//! * **The ship point is the durability ack, never the raw append.** A
//!   [`wal::FeedSink`] publishes log bytes to its [`wal::LogFeed`]
//!   readers only after the inner sink's `sync` succeeds, so a replica
//!   can only ever observe commits the primary has made durable —
//!   replica state is always a committed durable prefix of the
//!   primary, and a primary crash can never roll back something a
//!   replica already served.
//! * **Replica reads are real snapshots.** [`Engine::begin_read_only_at`]
//!   opens a snapshot at the replica's applied horizon; answers are
//!   byte-identical to what the primary would have answered at that
//!   same commit timestamp (the differential suite
//!   `tests/replica.rs` proves this per redo-stream prefix).
//! * **Lagged snapshots pin GC.** A snapshot timestamp enters the same
//!   refcounted horizon map whether or not a local writer produced it,
//!   so versions observable at that timestamp are retained while the
//!   snapshot is open. Conversely, the engine tracks the highest GC
//!   horizon it ever pruned at (the *GC floor*) and refuses
//!   `begin_read_only_at` below it rather than serving a half-pruned
//!   cut; [`Engine::set_gc_pin`] holds the floor down when history
//!   must stay readable.
//! * **Bounded staleness.** Replicas are asynchronous; freshness is
//!   monotone per replica but lags the primary by the unsynced +
//!   unshipped window. The serving tier (`pyx-server`) admits a
//!   read-only request to a replica only when `primary_durable_ts -
//!   replica_applied_ts` is within a configured bound, falling back to
//!   the primary otherwise.
//! * **Crash-resumable tailing.** The [`replica::RedoTailer`] resumes
//!   from its last applied byte offset and timestamp watermark; a
//!   tailer restarted at any point ≥ the durable prefix converges to
//!   the primary's committed-prefix state (`tests/replica.rs`
//!   randomized catch-up differential).
//!
//! # Failure model and recovery guarantees
//!
//! The engine assumes **crash-stop** failures: a process dies at an
//! arbitrary instruction and loses everything except what its log sink
//! had durably synced. Within that model:
//!
//! * **What survives a crash.** Every transaction whose commit record
//!   (or commit-`Decide` record) reached a synced log prefix; every
//!   two-phase-commit yes-vote, because [`Engine::prepare_commit`]
//!   force-flushes a `Prepare` record *before* the participant reports
//!   "prepared" ([`wal`] § *Two-phase-commit records*). Nothing else: an
//!   unlogged or unsynced transaction simply never happened.
//! * **In-doubt resolution protocol.** [`Engine::recover`] replays
//!   decided work and re-materializes each prepare-without-decide as an
//!   *in-doubt branch*: its exclusive locks are re-held so no reader or
//!   writer can observe or overwrite the undecided rows, but the branch
//!   accepts no statements. The caller (the serving tier's supervisor)
//!   interrogates the coordinator and settles each branch with
//!   [`Engine::resolve_prepared`]; a branch whose coordinator has no
//!   recorded commit decision is **presumed aborted** — safe because a
//!   coordinator only acknowledges success after every participant
//!   decided commit.
//! * **Replica promotion ordering rule.** A replica may replace its
//!   primary only once it has applied the primary's *entire durable
//!   prefix* ([`Wal::resume_at`] enforces `applied_ts ==
//!   durable_ts` and refuses otherwise), so promotion never serves a
//!   state behind what the dead primary acknowledged. Prepares parked in
//!   the promoted replica's tailer become in-doubt branches via
//!   [`Engine::adopt_in_doubt`] and follow the same resolution protocol.
//! * **Staleness during failover.** While a shard has no live primary,
//!   bounded-staleness reads keep serving from surviving replicas at
//!   their applied horizons (monotone, but frozen at the durable
//!   watermark until a new primary resumes writes); writes surface
//!   retryable unavailability rather than blocking.

pub mod cost;
pub mod engine;
pub mod fxhash;
pub mod index;
pub mod lock;
pub mod prepared;
pub mod replica;
pub mod schema;
pub mod sqlparse;
pub mod table;
pub mod txn;
pub mod wal;

pub use engine::{Database, DbError, Engine, EngineStats, QueryResult};
pub use lock::LockMode;
pub use prepared::{PreparedId, StmtRoute};
pub use pyx_lang::Scalar;
pub use replica::{CatchUp, RedoTailer};
pub use schema::{shard_of, ColTy, ColumnDef, TableDef};
pub use txn::TxnId;
pub use wal::{
    FaultPlan, FaultySink, FeedSink, FileSink, LogFeed, LogSink, MemSink, RecoveryReport, Wal,
    WalRecord, KIND_COMMIT, KIND_DECIDE, KIND_PREPARE,
};
