//! Log replay: tail a primary's redo stream into a replica [`Engine`],
//! or replay a whole log into a fresh one.
//!
//! A replica is an ordinary engine holding the same schema and base
//! load as its primary; [`RedoTailer`] incrementally applies the
//! primary's redo records via [`Engine::apply_redo`], advancing the
//! replica's commit horizon to each record's `commit_ts`. Crash
//! recovery is the same loop run once over the durable log:
//! [`Engine::recover`] catches a fresh tailer up from byte 0 and adopts
//! what it left parked as in-doubt branches, so recovery and replicas
//! share one replay path. The replica
//! then serves lock-free snapshot reads at its applied horizon through
//! [`Engine::begin_read_only_at`] — MVCC reads never touch the lock
//! manager, so a replica needs no lock table at all.
//!
//! # The ship point is the durability ack
//!
//! The tailer reads from a [`LogFeed`](crate::wal::LogFeed) (or any
//! byte prefix of the log stream). A `LogFeed` publishes bytes only
//! after the primary's `sync` succeeds, so a replica can never apply a
//! commit the primary could still lose in a crash — replica state is
//! always a *committed durable prefix* of the primary.
//!
//! # Incremental, resumable
//!
//! The tailer keeps `(offset, last_ts)`: each catch-up resumes scanning
//! at the last applied byte offset ([`crate::wal::scan_from`]) instead
//! of re-walking the whole log, and the timestamp watermark keeps the
//! monotonicity check intact across calls. A tailer that dies can be
//! rebuilt with [`RedoTailer::resume`] from its replica's applied
//! state; a torn byte suffix (reading a crash image of the stream) is
//! simply not consumed — the next catch-up picks it up once complete.
//!
//! # Two-phase-commit records in the stream
//!
//! Replicas apply only *decided* work. A `Prepare` record parks its
//! images in the tailer (nothing touches the replica engine — the
//! branch may still abort); the matching commit-`Decide` applies them at
//! its commit timestamp, an abort-`Decide` drops them. Prepares still
//! parked when a primary dies are exactly the in-doubt set a promoted
//! replica must adopt ([`RedoTailer::adopt_pending`]).

use crate::engine::{DbError, Engine};
use crate::fxhash::FxHashMap;
use crate::wal::{self, LogFeed, RedoOp, RedoRecord, WalRecord, KIND_COMMIT};

/// What one [`RedoTailer::catch_up`] pass applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Redo records applied to the replica.
    pub records: u64,
    /// Row operations inside those records.
    pub ops: u64,
    /// Log bytes consumed (the tailer's offset advanced this far).
    pub bytes: u64,
}

/// Incremental redo-stream reader feeding one replica engine.
#[derive(Debug, Clone, Default)]
pub struct RedoTailer {
    /// Absolute byte offset of the next unapplied record.
    offset: usize,
    /// Commit timestamp of the last applied record (monotonicity
    /// watermark for the resumed scan).
    last_ts: u64,
    /// Prepared-but-undecided 2PC branches seen in the stream, by gtid.
    pending: FxHashMap<u64, Vec<RedoOp>>,
}

impl RedoTailer {
    /// A tailer at the start of the stream (fresh replica: schema +
    /// base load only).
    pub fn new() -> RedoTailer {
        RedoTailer::default()
    }

    /// Resume after a tailer crash: `offset` is the byte position of
    /// the next unapplied record, `last_ts` the replica's applied
    /// horizon ([`Engine::current_commit_ts`]). The resume point must
    /// not have prepares outstanding (a decide for a gtid the resumed
    /// tailer never saw prepared fails loudly) — in practice replicas
    /// resume from offset 0 or from a continuously-tailed position.
    pub fn resume(offset: usize, last_ts: u64) -> RedoTailer {
        RedoTailer {
            offset,
            last_ts,
            pending: FxHashMap::default(),
        }
    }

    /// Byte offset of the next unapplied record.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Commit timestamp of the last applied record.
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    /// Gtids of prepares seen with no decide yet (ascending) — a
    /// promoted replica's in-doubt set.
    pub fn pending_gtids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pending.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Drain the parked prepares (gtid → final images), ascending by
    /// gtid.
    pub fn take_pending(&mut self) -> Vec<(u64, Vec<RedoOp>)> {
        let mut v: Vec<(u64, Vec<RedoOp>)> = self.pending.drain().collect();
        v.sort_unstable_by_key(|(gtid, _)| *gtid);
        v
    }

    /// Drain the parked prepares into `engine` as in-doubt branches
    /// ([`Engine::adopt_in_doubt`]), ascending by gtid: the end of a
    /// recovery replay, or a replica's promotion to primary.
    pub fn adopt_pending(&mut self, engine: &mut Engine) -> Result<(), DbError> {
        for (gtid, ops) in self.take_pending() {
            engine.adopt_in_doubt(gtid, ops)?;
        }
        Ok(())
    }

    /// Apply every complete record in `log` (the full stream from byte
    /// 0, e.g. a [`MemSink`](crate::wal::MemSink) crash image) past the
    /// tailer's current offset. An incomplete record at the end of
    /// `log` is left unconsumed; mid-stream corruption fails loudly
    /// with [`DbError::Durability`].
    pub fn catch_up(&mut self, log: &[u8], replica: &mut Engine) -> Result<CatchUp, DbError> {
        self.apply_stream(log, self.offset, 0, replica)
    }

    /// [`RedoTailer::catch_up`] over a [`LogFeed`]: read the durable
    /// bytes past the tailer's offset into `buf` (cleared; reusable
    /// across calls) and apply them.
    pub fn catch_up_feed(
        &mut self,
        feed: &LogFeed,
        replica: &mut Engine,
        buf: &mut Vec<u8>,
    ) -> Result<CatchUp, DbError> {
        buf.clear();
        if feed.read_from(self.offset, buf) == 0 {
            return Ok(CatchUp::default());
        }
        self.apply_stream(buf, 0, self.offset, replica)
    }

    /// Scan `bytes` from `start` (relative to `bytes`) and apply each
    /// record; `abs_base` maps relative offsets back to absolute stream
    /// positions (0 when `bytes` is the full stream). When the engine
    /// has a log attached, every record must carry that log's shard.
    fn apply_stream(
        &mut self,
        bytes: &[u8],
        start: usize,
        abs_base: usize,
        replica: &mut Engine,
    ) -> Result<CatchUp, DbError> {
        let dur = |m: String| DbError::Durability(m);
        let scan = wal::scan_from(bytes, start, self.last_ts);
        if let Some(e) = scan.error {
            return Err(dur(format!("corrupt log stream at byte {abs_base}: {e}")));
        }
        let own_shard = replica.wal_shard();
        let mut out = CatchUp::default();
        for span in &scan.records {
            let at = abs_base + span.offset;
            if let Some(shard) = own_shard.filter(|&s| s != span.shard) {
                return Err(dur(format!(
                    "record at byte {at} belongs to shard {}, not {shard}",
                    span.shard
                )));
            }
            let rec = wal::decode_any(&bytes[span.offset..span.offset + span.len])
                .map_err(|e| dur(format!("corrupt record at byte {at}: {e}")))?;
            match rec {
                WalRecord::Commit(rec) => {
                    out.ops += rec.ops.len() as u64;
                    replica.apply_redo(rec)?;
                    out.records += 1;
                    self.last_ts = span.commit_ts;
                }
                WalRecord::Prepare { gtid, ops, .. } => {
                    if self.pending.insert(gtid, ops).is_some() {
                        return Err(dur(format!(
                            "record at byte {at}: duplicate prepare for gtid {gtid}"
                        )));
                    }
                }
                WalRecord::Decide {
                    shard,
                    gtid,
                    commit,
                    commit_ts,
                } => {
                    let Some(ops) = self.pending.remove(&gtid) else {
                        return Err(dur(format!(
                            "record at byte {at}: decide for unknown gtid {gtid}"
                        )));
                    };
                    if commit {
                        out.ops += ops.len() as u64;
                        replica.apply_redo(RedoRecord {
                            shard,
                            commit_ts,
                            ops,
                        })?;
                        out.records += 1;
                        self.last_ts = commit_ts;
                    }
                }
            }
            self.offset = at + span.len;
            out.bytes += span.len as u64;
            debug_assert!(
                span.kind != KIND_COMMIT || span.commit_ts == self.last_ts,
                "commit span watermark drift"
            );
        }
        Ok(out)
    }
}
