//! Per-shard write-ahead logging and crash recovery.
//!
//! Everything the engine serves lives in memory; this module is what lets
//! a committed transaction survive the process. At [`crate::Engine::commit`]
//! a write transaction's final row images are serialized into one **redo
//! record** and appended to a pluggable [`LogSink`] *before* the commit
//! timestamp is stamped onto the version chains — if the append fails, the
//! transaction rolls back and the commit reports
//! [`crate::DbError::Durability`]. Recovery ([`crate::Engine::recover`])
//! replays the record stream onto a freshly re-created schema (plus the
//! same bulk-loaded base data) and reconstructs exactly the committed
//! prefix that reached the log.
//!
//! # Record format
//!
//! Records follow the same encoding discipline as the control-transfer
//! [`Frame`](../../pyx_runtime/wire/index.html): little-endian,
//! length-prefixed, versioned header, FNV-1a checksummed. The header is a
//! fixed 40 bytes:
//!
//! | offset | size | field                                          |
//! |--------|------|------------------------------------------------|
//! | 0      | 4    | magic `b"PYXW"`                                |
//! | 4      | 1    | version (currently `1`)                        |
//! | 5      | 1    | kind: 0 commit, 1 prepare, 2 decide            |
//! | 6      | 2    | shard id                                       |
//! | 8      | 8    | commit timestamp (gtid for prepare/decide)     |
//! | 16     | 4    | number of row operations                       |
//! | 20     | 4    | payload length in bytes                        |
//! | 24     | 8    | FNV-1a checksum of header[0..24]               |
//! | 32     | 8    | FNV-1a checksum of the payload                 |
//!
//! A **commit** payload is one entry per touched row: a tag byte (`0`
//! put, `1` delete), a `u32` table id, then a `u32` scalar count and
//! that many scalars (the full final image for a put, the primary key
//! for a delete). A record carries the transaction's **final** image per
//! row — redo is physical and idempotent per `(table, key)`, so replay
//! order within a record is irrelevant and a row touched by several
//! statements costs one entry.
//!
//! # Two-phase-commit records
//!
//! A cross-shard participant's yes-vote is made durable *before* it is
//! acknowledged to the coordinator: a **prepare** record (kind `1`)
//! carries the branch's final row images — the same op encoding as a
//! commit — with the cross-shard transaction's **gtid** in the timestamp
//! header field (a gtid is not a commit timestamp, so prepare records do
//! not participate in the monotonicity watermark). The branch's outcome
//! is a **decide** record (kind `2`): gtid in the header, and a 9-byte
//! payload `[commit: u8][commit_ts: u64 LE]`. A commit-decide applies
//! the prepared images at `commit_ts` (which *does* advance the
//! watermark); an abort-decide (flag `0`, ts `0`) drops them. A prepare
//! that reaches the durable log with no decide is an **in-doubt** branch:
//! recovery reconstructs it with its locks held (see
//! [`crate::Engine::recover`]) and leaves the outcome to
//! [`crate::Engine::resolve_prepared`] — presumed abort if the
//! coordinator does not know the gtid.
//!
//! # Torn tails vs corruption
//!
//! Two checksums make the two failure classes distinguishable. Appends
//! are sequential, so a crash can only lose a *suffix* of the stream
//! (possibly mid-record — a torn write):
//!
//! * **Torn tail** (crash): the stream ends before a complete header, or
//!   the header is intact (header checksum verifies, so the declared
//!   length is trustworthy) but the payload is cut short. Recovery
//!   truncates at the last complete record and succeeds —
//!   [`RecoveryReport::truncated_bytes`] says how much was dropped.
//! * **Corruption** (bit rot, bad hardware): all declared bytes are
//!   present but a checksum — header or payload — fails, the magic or
//!   version is wrong, or commit timestamps go non-monotone. Recovery
//!   fails **loudly** with [`crate::DbError::Durability`]; it never
//!   silently drops a mid-stream record. The header checksum is what
//!   keeps a bit flip in the length field from masquerading as a torn
//!   tail and truncating good records after it.
//!
//! # Group commit
//!
//! [`Wal::with_group_commit`]`(n)` defers the `sync` (fsync) until `n`
//! commit records are pending, amortizing one flush over a batch of
//! concurrently-committing transactions; callers that acknowledge commits
//! to clients (the shard workers in `pyx-server`) force the flush at the
//! acknowledgement point with [`crate::Engine::wal_sync`]. With the
//! default `n = 1` every commit flushes before returning — acknowledge-
//! after-flush with no batching. A failed flush puts the log in
//! **degraded mode**: the shard keeps serving reads (snapshot reads never
//! touch the log) but rejects further writes with
//! [`crate::DbError::Durability`], and [`crate::Engine::wal_sync`] keeps
//! reporting the failure so an acknowledgement point can surface it.

use pyx_lang::codec::{encode_scalar, Reader};
use pyx_lang::fnv::fnv1a;
use pyx_lang::Scalar;
use std::io::{Read, Seek, Write};
use std::sync::{Arc, Mutex};

/// Fixed record-header size in bytes.
pub const RECORD_HEADER_LEN: usize = 40;
/// Header bytes covered by the header checksum.
pub const CHECKED_HEADER_LEN: usize = 24;
const MAGIC: [u8; 4] = *b"PYXW";
const VERSION: u8 = 1;
/// Record kind: a committed transaction's final row images.
pub const KIND_COMMIT: u8 = 0;
/// Record kind: a durable 2PC yes-vote (gtid + final row images).
pub const KIND_PREPARE: u8 = 1;
/// Record kind: a 2PC outcome (gtid + commit flag + commit timestamp).
pub const KIND_DECIDE: u8 = 2;
/// Byte length of a decide record's payload: `[commit: u8][ts: u64]`.
const DECIDE_PAYLOAD_LEN: usize = 9;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// One redo entry: the final committed state of one row.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// The row exists at commit with this full image (insert or update —
    /// replay overwrites by primary key).
    Put { table: u32, row: Arc<Vec<Scalar>> },
    /// The row is deleted at commit; `key` is its primary key.
    Delete { table: u32, key: Vec<Scalar> },
}

/// One decoded commit record.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoRecord {
    pub shard: u16,
    pub commit_ts: u64,
    pub ops: Vec<RedoOp>,
}

/// Any decoded log record (see [`decode_any`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction's final row images.
    Commit(RedoRecord),
    /// A durable 2PC yes-vote: the branch's final images, keyed by the
    /// cross-shard transaction's gtid. Nothing is applied until a
    /// decide arrives.
    Prepare {
        shard: u16,
        gtid: u64,
        ops: Vec<RedoOp>,
    },
    /// A 2PC outcome for `gtid`: apply the prepared images at
    /// `commit_ts` when `commit`, drop them otherwise (`commit_ts` is 0
    /// for aborts).
    Decide {
        shard: u16,
        gtid: u64,
        commit: bool,
        commit_ts: u64,
    },
}

/// Where one record sits in the stream (diagnostics and the
/// crash-recovery test harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset of the record's header.
    pub offset: usize,
    /// Total encoded length (header + payload).
    pub len: usize,
    /// The header's timestamp field: the commit timestamp for
    /// [`KIND_COMMIT`], the gtid for [`KIND_PREPARE`]/[`KIND_DECIDE`].
    pub commit_ts: u64,
    pub shard: u16,
    /// Record kind ([`KIND_COMMIT`], [`KIND_PREPARE`], [`KIND_DECIDE`]).
    pub kind: u8,
}

/// Outcome of scanning a log byte stream. `error` is set for corruption
/// (never for a torn tail); `records` always holds the valid prefix.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    pub records: Vec<RecordSpan>,
    /// Bytes covered by complete, checksum-valid records.
    pub valid_len: usize,
    /// Torn bytes after `valid_len` (crash mid-append); `0` on a clean
    /// stream.
    pub torn_bytes: usize,
    /// Mid-stream corruption diagnostic; recovery refuses the log.
    pub error: Option<String>,
}

fn decode_scalars(r: &mut Reader<String>) -> Result<Vec<Scalar>, String> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.scalar()?);
    }
    Ok(out)
}

fn encode_ops(out: &mut Vec<u8>, ops: &[RedoOp]) {
    for op in ops {
        match op {
            RedoOp::Put { table, row } => {
                out.push(OP_PUT);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&(row.len() as u32).to_le_bytes());
                for s in row.iter() {
                    encode_scalar(out, s);
                }
            }
            RedoOp::Delete { table, key } => {
                out.push(OP_DELETE);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                for s in key {
                    encode_scalar(out, s);
                }
            }
        }
    }
}

/// Stamp the header (magic, version, kind, ids, lengths, checksums) onto
/// a buffer whose payload is already in place past `RECORD_HEADER_LEN`.
fn seal_record(out: &mut [u8], kind: u8, shard: u16, ts: u64, n_ops: u32) {
    let payload_len = out.len() - RECORD_HEADER_LEN;
    out[0..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5] = kind;
    out[6..8].copy_from_slice(&shard.to_le_bytes());
    out[8..16].copy_from_slice(&ts.to_le_bytes());
    out[16..20].copy_from_slice(&n_ops.to_le_bytes());
    out[20..24].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let hsum = fnv1a(&out[..CHECKED_HEADER_LEN]);
    out[24..32].copy_from_slice(&hsum.to_le_bytes());
    let psum = fnv1a(&out[RECORD_HEADER_LEN..]);
    out[32..40].copy_from_slice(&psum.to_le_bytes());
}

/// Encode one commit record into `out` (cleared first; the buffer is
/// reusable across commits, allocation-free once warm).
pub fn encode_record(out: &mut Vec<u8>, shard: u16, commit_ts: u64, ops: &[RedoOp]) {
    out.clear();
    out.resize(RECORD_HEADER_LEN, 0);
    encode_ops(out, ops);
    seal_record(out, KIND_COMMIT, shard, commit_ts, ops.len() as u32);
}

/// Encode one 2PC prepare record (the durable yes-vote for `gtid`).
pub fn encode_prepare_record(out: &mut Vec<u8>, shard: u16, gtid: u64, ops: &[RedoOp]) {
    out.clear();
    out.resize(RECORD_HEADER_LEN, 0);
    encode_ops(out, ops);
    seal_record(out, KIND_PREPARE, shard, gtid, ops.len() as u32);
}

/// Encode one 2PC decide record for `gtid` (`commit_ts` is ignored and
/// written as 0 for aborts).
pub fn encode_decide_record(
    out: &mut Vec<u8>,
    shard: u16,
    gtid: u64,
    commit: bool,
    commit_ts: u64,
) {
    out.clear();
    out.resize(RECORD_HEADER_LEN, 0);
    out.push(u8::from(commit));
    out.extend_from_slice(&if commit { commit_ts } else { 0 }.to_le_bytes());
    seal_record(out, KIND_DECIDE, shard, gtid, 0);
}

fn decode_ops(buf: &[u8], n_ops: usize) -> Result<Vec<RedoOp>, String> {
    let mut r = Reader::new(buf, str::to_string);
    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        let tag = r.u8()?;
        let table = r.u32()?;
        let scalars = decode_scalars(&mut r)?;
        ops.push(match tag {
            OP_PUT => RedoOp::Put {
                table,
                row: Arc::new(scalars),
            },
            OP_DELETE => RedoOp::Delete {
                table,
                key: scalars,
            },
            t => return Err(format!("unknown op tag {t}")),
        });
    }
    if !r.buf.is_empty() {
        return Err("trailing bytes after ops".into());
    }
    Ok(ops)
}

/// Decode the commit record starting at `buf[0]`, which the caller has
/// already scanned as complete and checksum-valid. Errors on a
/// prepare/decide record — callers dispatching on [`RecordSpan::kind`]
/// use [`decode_any`] for those.
pub fn decode_record(buf: &[u8]) -> Result<RedoRecord, String> {
    match decode_any(buf)? {
        WalRecord::Commit(rec) => Ok(rec),
        WalRecord::Prepare { .. } | WalRecord::Decide { .. } => {
            Err(format!("not a commit record (kind {})", buf[5]))
        }
    }
}

/// Decode any record kind starting at `buf[0]`, which the caller has
/// already scanned as complete and checksum-valid.
pub fn decode_any(buf: &[u8]) -> Result<WalRecord, String> {
    let kind = buf[5];
    let shard = u16::from_le_bytes(buf[6..8].try_into().unwrap());
    let ts = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let n_ops = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
    let payload_len = u32::from_le_bytes(buf[20..24].try_into().unwrap()) as usize;
    let payload = &buf[RECORD_HEADER_LEN..RECORD_HEADER_LEN + payload_len];
    Ok(match kind {
        KIND_COMMIT => WalRecord::Commit(RedoRecord {
            shard,
            commit_ts: ts,
            ops: decode_ops(payload, n_ops)?,
        }),
        KIND_PREPARE => WalRecord::Prepare {
            shard,
            gtid: ts,
            ops: decode_ops(payload, n_ops)?,
        },
        KIND_DECIDE => {
            if payload_len != DECIDE_PAYLOAD_LEN || n_ops != 0 {
                return Err("malformed decide record".into());
            }
            WalRecord::Decide {
                shard,
                gtid: ts,
                commit: payload[0] != 0,
                commit_ts: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
            }
        }
        k => return Err(format!("unknown kind {k}")),
    })
}

/// Scan a log byte stream into record spans, classifying anomalies.
///
/// Because appends are sequential, a crash can only lose a suffix: an
/// *incomplete* record at the end of the stream is a torn tail
/// (`torn_bytes`, no error). Any complete-but-invalid bytes — bad magic,
/// unknown version/kind, header or payload checksum mismatch,
/// non-monotone timestamps — are corruption: `error` is set and the scan
/// stops at the last good record.
pub fn scan(log: &[u8]) -> ScanOutcome {
    scan_from(log, 0, 0)
}

/// [`scan`], resuming mid-stream: start at byte `start_offset` with the
/// monotonicity watermark already at `last_ts`. This is what lets a
/// replica tailer pick up where its last catch-up left off instead of
/// re-walking the whole log — `valid_len` still reports an absolute
/// offset into the full stream.
pub fn scan_from(log: &[u8], start_offset: usize, last_ts: u64) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let mut off = start_offset;
    let mut last_ts = last_ts;
    out.valid_len = start_offset;
    while off < log.len() {
        let rest = &log[off..];
        if rest.len() < RECORD_HEADER_LEN {
            // Crash mid-header: the header checksum cannot even be read.
            out.torn_bytes = rest.len();
            break;
        }
        let hsum = u64::from_le_bytes(rest[24..32].try_into().unwrap());
        if fnv1a(&rest[..CHECKED_HEADER_LEN]) != hsum {
            out.error = Some(format!("record at byte {off}: header checksum mismatch"));
            break;
        }
        // Header verified: magic/version/length fields are trustworthy.
        if rest[0..4] != MAGIC {
            out.error = Some(format!("record at byte {off}: bad magic"));
            break;
        }
        if rest[4] != VERSION {
            out.error = Some(format!("record at byte {off}: unknown version {}", rest[4]));
            break;
        }
        let kind = rest[5];
        if kind != KIND_COMMIT && kind != KIND_PREPARE && kind != KIND_DECIDE {
            out.error = Some(format!("record at byte {off}: unknown kind {kind}"));
            break;
        }
        let payload_len = u32::from_le_bytes(rest[20..24].try_into().unwrap()) as usize;
        let total = RECORD_HEADER_LEN + payload_len;
        if rest.len() < total {
            // Trustworthy length, missing bytes: crash mid-payload.
            out.torn_bytes = rest.len();
            break;
        }
        let psum = u64::from_le_bytes(rest[32..40].try_into().unwrap());
        if fnv1a(&rest[RECORD_HEADER_LEN..total]) != psum {
            out.error = Some(format!("record at byte {off}: payload checksum mismatch"));
            break;
        }
        let ts = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        // Commit timestamps must be strictly monotone across the stream.
        // Prepare records carry a gtid (not a timestamp) and are exempt;
        // a decide record advances the watermark only when it commits
        // (its effective timestamp lives in the checksummed payload).
        let effective_ts = match kind {
            KIND_COMMIT => Some(ts),
            KIND_DECIDE => {
                if payload_len != DECIDE_PAYLOAD_LEN {
                    out.error = Some(format!("record at byte {off}: malformed decide record"));
                    break;
                }
                let p = &rest[RECORD_HEADER_LEN..total];
                (p[0] != 0).then(|| u64::from_le_bytes(p[1..9].try_into().unwrap()))
            }
            _ => None,
        };
        if let Some(cts) = effective_ts {
            if cts <= last_ts {
                out.error = Some(format!(
                    "record at byte {off}: non-monotone commit timestamp {cts} after {last_ts}"
                ));
                break;
            }
            last_ts = cts;
        }
        out.records.push(RecordSpan {
            offset: off,
            len: total,
            commit_ts: ts,
            shard: u16::from_le_bytes(rest[6..8].try_into().unwrap()),
            kind,
        });
        off += total;
        out.valid_len = off;
    }
    out
}

// ---- sinks ----

/// Where log bytes go. `append` buffers (OS page cache for files);
/// `sync` makes everything appended so far durable (fsync). Both report
/// I/O failure, which puts the owning [`Wal`] into degraded mode.
pub trait LogSink: Send {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()>;
    fn sync(&mut self) -> std::io::Result<()>;
    /// Drop every byte appended since the last successful `sync`, so the
    /// medium ends exactly at the durable prefix. Failover uses this
    /// before a promoted or respawned primary resumes appending: a dead
    /// worker may have buffered records past the durable watermark that
    /// the successor never applied, and a later `sync` must not make
    /// them durable behind its back. Sinks that buffer nothing (appends
    /// reach the medium only through `sync`) may keep the default no-op.
    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl LogSink for Box<dyn LogSink> {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        (**self).append(buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        (**self).sync()
    }
    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        (**self).discard_unsynced()
    }
}

/// A real log file. `append` is `write_all` (page cache), `sync` is
/// `sync_data`.
pub struct FileSink {
    file: std::fs::File,
    /// Bytes written so far (append offset).
    len: u64,
    /// Bytes covered by the last successful `sync`.
    synced: u64,
}

impl FileSink {
    /// Create (truncating any previous log) at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<FileSink> {
        let file = std::fs::File::create(path)?;
        Ok(FileSink {
            file,
            len: 0,
            synced: 0,
        })
    }

    /// Read a log file fully into memory (the input to
    /// [`crate::Engine::recover`]).
    pub fn read_log(path: impl AsRef<std::path::Path>) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

impl LogSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.file.write_all(buf)?;
        self.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.synced = self.len;
        Ok(())
    }

    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.synced)?;
        self.file.seek(std::io::SeekFrom::End(0))?;
        self.len = self.synced;
        Ok(())
    }
}

#[derive(Default)]
struct MemLog {
    /// Bytes a crash is guaranteed to preserve (synced).
    durable: Vec<u8>,
    /// Appended but unsynced bytes; a crash preserves an arbitrary
    /// prefix of these (the page cache may or may not have drained).
    volatile: Vec<u8>,
}

/// An in-memory sink with explicit durability semantics for tests: the
/// handle is cloneable, so a test keeps one side while the engine owns
/// the other, then inspects exactly which bytes "survive the crash".
#[derive(Clone, Default)]
pub struct MemSink(Arc<Mutex<MemLog>>);

impl MemSink {
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Bytes guaranteed durable (everything up to the last `sync`).
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().durable.clone()
    }

    /// Every byte appended so far, synced or not (the best-case crash).
    pub fn all_bytes(&self) -> Vec<u8> {
        let g = self.0.lock().unwrap();
        let mut out = g.durable.clone();
        out.extend_from_slice(&g.volatile);
        out
    }

    /// What a crash preserving `extra` unsynced bytes leaves behind:
    /// the durable prefix plus `extra` bytes of the volatile tail —
    /// possibly tearing a record in half.
    pub fn crash_bytes(&self, extra: usize) -> Vec<u8> {
        let g = self.0.lock().unwrap();
        let mut out = g.durable.clone();
        out.extend_from_slice(&g.volatile[..extra.min(g.volatile.len())]);
        out
    }
}

impl LogSink for MemSink {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.lock().unwrap().volatile.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut g = self.0.lock().unwrap();
        let v = std::mem::take(&mut g.volatile);
        g.durable.extend_from_slice(&v);
        Ok(())
    }

    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap().volatile.clear();
        Ok(())
    }
}

#[derive(Default)]
struct FeedBuf {
    /// Bytes covered by a successful `sync` — the only bytes a replica
    /// may ever observe.
    durable: Vec<u8>,
    /// Run after each publish of new durable bytes.
    wakers: Vec<Box<dyn Fn() + Send>>,
}

/// Reader handle onto a [`FeedSink`]'s durable prefix. Cloneable; each
/// replica tailer holds one and reads from its own byte offset.
#[derive(Clone, Default)]
pub struct LogFeed(Arc<Mutex<FeedBuf>>);

impl LogFeed {
    /// Length of the durable prefix (monotone).
    pub fn durable_len(&self) -> usize {
        self.0.lock().unwrap().durable.len()
    }

    /// Append the durable bytes at `offset..` onto `out`, returning how
    /// many were copied. Nothing past the last durability ack is ever
    /// visible here.
    pub fn read_from(&self, offset: usize, out: &mut Vec<u8>) -> usize {
        let g = self.0.lock().unwrap();
        if offset >= g.durable.len() {
            return 0;
        }
        out.extend_from_slice(&g.durable[offset..]);
        g.durable.len() - offset
    }

    /// Run `waker` each time the sink publishes new durable bytes, right
    /// after they become readable here — so a tailer can block between
    /// publishes instead of polling. Wakers run under the feed's lock
    /// and must not read the feed themselves.
    pub fn on_publish(&self, waker: impl Fn() + Send + 'static) {
        let mut g = self.0.lock().expect("no feed holder panics");
        g.wakers.push(Box::new(waker));
    }
}

/// A [`LogSink`] decorator that publishes the log's **durable prefix**
/// to [`LogFeed`] readers. Appends are buffered privately and only
/// become visible after the inner sink's `sync` succeeds — the ship
/// point for replication is the durability acknowledgement, never the
/// raw append, so a replica can never apply a commit the primary could
/// still lose in a crash. Each publish runs the feed's wakers
/// ([`LogFeed::on_publish`]).
pub struct FeedSink<S: LogSink> {
    inner: S,
    feed: Arc<Mutex<FeedBuf>>,
    /// Appended since the last successful sync; not yet visible.
    volatile: Vec<u8>,
}

impl<S: LogSink> FeedSink<S> {
    pub fn new(inner: S) -> FeedSink<S> {
        FeedSink {
            inner,
            feed: Arc::default(),
            volatile: Vec::new(),
        }
    }

    /// A reader handle for replica tailers.
    pub fn feed(&self) -> LogFeed {
        LogFeed(Arc::clone(&self.feed))
    }
}

impl<S: LogSink> LogSink for FeedSink<S> {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.inner.append(buf)?;
        self.volatile.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()?;
        if !self.volatile.is_empty() {
            let mut g = self.feed.lock().expect("no feed holder panics");
            g.durable.append(&mut self.volatile);
            g.wakers.iter().for_each(|wake| wake());
        }
        Ok(())
    }

    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        self.inner.discard_unsynced()?;
        self.volatile.clear();
        Ok(())
    }
}

/// Fault plan for [`FaultySink`]. Offsets are global byte positions in
/// the append stream; all faults are one-shot except `fail_sync_from`,
/// which models a dying device (every later fsync fails too).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Bytes at or past this offset never reach the inner sink, but the
    /// append still reports success — the crash nobody notices until
    /// recovery (torn tail).
    pub drop_after: Option<u64>,
    /// XOR this mask into the byte written at this offset (silent media
    /// corruption; caught only by record checksums at recovery).
    pub flip: Option<(u64, u8)>,
    /// The append that crosses this offset writes only the bytes before
    /// it and returns an I/O error (short write — the engine sees it and
    /// degrades immediately).
    pub fail_append_at: Option<u64>,
    /// `sync` calls numbered `>= this` (0-based) fail with an I/O error.
    pub fail_sync_from: Option<u64>,
}

/// A [`LogSink`] decorator injecting crash-point faults per a
/// [`FaultPlan`]. Wrap a [`MemSink`] to inspect what survived.
pub struct FaultySink<S: LogSink> {
    inner: S,
    plan: FaultPlan,
    written: u64,
    syncs: u64,
}

impl<S: LogSink> FaultySink<S> {
    pub fn new(inner: S, plan: FaultPlan) -> FaultySink<S> {
        FaultySink {
            inner,
            plan,
            written: 0,
            syncs: 0,
        }
    }
}

impl<S: LogSink> LogSink for FaultySink<S> {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let start = self.written;
        let end = start + buf.len() as u64;
        // A short write errors after its prefix reaches the medium.
        if let Some(at) = self.plan.fail_append_at {
            if start < at && at < end {
                let keep = (at - start) as usize;
                self.append(&buf[..keep]).ok();
                self.written = at;
                return Err(std::io::Error::other("injected short write"));
            }
            if start >= at {
                return Err(std::io::Error::other("injected append failure"));
            }
        }
        let mut owned;
        let mut out = buf;
        if let Some((off, mask)) = self.plan.flip {
            if start <= off && off < end {
                owned = buf.to_vec();
                owned[(off - start) as usize] ^= mask;
                out = &owned[..];
            }
        }
        // Silent post-crash-point drop: report success, write nothing
        // (or only the surviving prefix).
        if let Some(cut) = self.plan.drop_after {
            if start >= cut {
                self.written = end;
                return Ok(());
            }
            if end > cut {
                out = &out[..(cut - start) as usize];
            }
        }
        self.inner.append(out)?;
        self.written = end;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let n = self.syncs;
        self.syncs += 1;
        if self.plan.fail_sync_from.is_some_and(|at| n >= at) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }

    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        self.inner.discard_unsynced()
    }
}

// ---- the write-ahead log ----

/// The engine-side log state: sink, shard identity, group-commit policy,
/// and durability watermarks. Owned by [`crate::Engine`]; see the module
/// docs for the commit/sync/degraded protocol.
pub struct Wal {
    sink: Box<dyn LogSink>,
    shard: u16,
    /// Auto-sync once this many commit records are pending (1 = flush on
    /// every commit).
    group_max: usize,
    /// Records appended since the last successful sync.
    pending: usize,
    /// Highest commit timestamp appended to the sink.
    appended_ts: u64,
    /// Highest commit timestamp known durable (covered by a successful
    /// sync).
    durable_ts: u64,
    /// Sticky failure: the sink reported an I/O error. No further
    /// appends are attempted (a partial append must never be followed by
    /// more records — recovery would see mid-stream garbage).
    failed: Option<String>,
    /// Reused record-encode buffer.
    buf: Vec<u8>,
    /// Reused op-list buffer.
    ops: Vec<RedoOp>,
}

impl Wal {
    pub fn new(sink: Box<dyn LogSink>) -> Wal {
        Wal {
            sink,
            shard: 0,
            group_max: 1,
            pending: 0,
            appended_ts: 0,
            durable_ts: 0,
            failed: None,
            buf: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Tag every record with this shard id; recovery refuses a log whose
    /// records belong to a different shard.
    pub fn with_shard(mut self, shard: u16) -> Wal {
        self.shard = shard;
        self
    }

    /// Flush (fsync) only once `n` commits are pending. Callers that
    /// acknowledge commits must force the flush at the acknowledgement
    /// point via [`crate::Engine::wal_sync`].
    pub fn with_group_commit(mut self, n: usize) -> Wal {
        self.group_max = n.max(1);
        self
    }

    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Highest commit timestamp known durable.
    pub fn durable_ts(&self) -> u64 {
        self.durable_ts
    }

    /// Sticky sink failure, if the log is degraded.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Note a recovery replay: the recovered prefix is durable by
    /// definition, and future appends must stamp past it.
    pub(crate) fn note_recovered(&mut self, last_ts: u64) {
        self.appended_ts = last_ts;
        self.durable_ts = last_ts;
    }

    /// Take the reusable op buffer (cleared).
    pub(crate) fn take_ops(&mut self) -> Vec<RedoOp> {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        ops
    }

    /// Append one record of kind `rec` carrying `ops` (empty for a
    /// decide). Returns the encoded length, or the sink's error (the
    /// caller rolls the transaction back or votes no; the log is degraded
    /// from here on). A commit, and a commit-decide, advance the appended
    /// watermark to their commit timestamp (a decided branch's prepared
    /// images join the committed stream there); a prepare or abort-decide
    /// is bookkeeping only. A prepare is the participant's yes-vote, which
    /// may not be acknowledged until it is durable: it **forces a flush**
    /// (pending records flush with it). Everything else flushes per the
    /// group-commit policy; `flushed` in the result reports such a flush.
    pub(crate) fn append(&mut self, rec: Record, ops: Vec<RedoOp>) -> Result<AppendInfo, String> {
        if let Some(e) = &self.failed {
            self.ops = ops;
            return Err(e.clone());
        }
        let mut buf = std::mem::take(&mut self.buf);
        let advance_to = match rec {
            Record::Commit { ts } => {
                encode_record(&mut buf, self.shard, ts, &ops);
                Some(ts)
            }
            Record::Prepare { gtid } => {
                encode_prepare_record(&mut buf, self.shard, gtid, &ops);
                None
            }
            Record::Decide { gtid, commit, ts } => {
                encode_decide_record(&mut buf, self.shard, gtid, commit, ts);
                commit.then_some(ts)
            }
        };
        let res = self.sink.append(&buf);
        let bytes = buf.len() as u64;
        self.buf = buf;
        self.ops = ops;
        if let Err(e) = res {
            let msg = format!("wal append failed: {e}");
            self.failed = Some(msg.clone());
            return Err(msg);
        }
        if let Some(ts) = advance_to {
            self.appended_ts = ts;
        }
        self.pending += 1;
        let flushed = if matches!(rec, Record::Prepare { .. }) {
            self.sync()?
        } else if self.pending >= self.group_max {
            // Group-commit flush point reached inside the append. A
            // failure here degrades the log but the in-memory commit
            // stands; the acknowledgement point (`wal_sync`) re-reports.
            self.sync().ok().flatten()
        } else {
            None
        };
        Ok(AppendInfo { bytes, flushed })
    }

    /// Drop every byte appended past the durable prefix (records the
    /// dead primary buffered but never made durable) and reset the
    /// append watermark to the durable one. Failover calls this on a
    /// stolen log *before* a respawn factory reads the log medium: with
    /// a [`FileSink`], unsynced appends are already visible to a file
    /// reader (`write_all` reaches the OS page cache), and a factory
    /// that recovered them would sit past the durable watermark that
    /// [`Wal::resume_at`] demands. Refuses a degraded log.
    pub fn discard_unsynced(&mut self) -> Result<(), String> {
        if let Some(e) = &self.failed {
            return Err(format!("cannot re-anchor a degraded log: {e}"));
        }
        self.sink
            .discard_unsynced()
            .map_err(|e| format!("wal discard failed: {e}"))?;
        self.pending = 0;
        self.appended_ts = self.durable_ts;
        Ok(())
    }

    /// Re-anchor this log for a failover successor: drop every unsynced
    /// byte (records the dead primary appended but never made durable —
    /// the successor does not have them applied) and reset the
    /// watermarks at the durable prefix. Refuses a degraded log, and
    /// refuses a successor whose applied horizon is not exactly the
    /// durable watermark — promoting a lagging replica would serve a
    /// state behind what clients were acknowledged.
    pub fn resume_at(&mut self, applied_ts: u64) -> Result<(), String> {
        if let Some(e) = &self.failed {
            return Err(format!("cannot resume a degraded log: {e}"));
        }
        if applied_ts != self.durable_ts {
            return Err(format!(
                "successor applied horizon {applied_ts} is not at the durable watermark {}",
                self.durable_ts
            ));
        }
        self.discard_unsynced()
    }

    /// Flush pending records (the acknowledgement point). `Ok(Some(n))` —
    /// flushed a batch of `n` records; `Ok(None)` — nothing pending.
    /// Returns the sticky failure even when nothing is pending, so a
    /// batch acknowledger always learns the log is degraded.
    pub(crate) fn sync(&mut self) -> Result<Option<usize>, String> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.pending == 0 {
            return Ok(None);
        }
        match self.sink.sync() {
            Ok(()) => {
                self.durable_ts = self.appended_ts;
                let n = std::mem::take(&mut self.pending);
                Ok(Some(n))
            }
            Err(e) => {
                let msg = format!("wal fsync failed: {e}");
                self.failed = Some(msg.clone());
                Err(msg)
            }
        }
    }
}

/// One record for [`Wal::append`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Record {
    /// A local commit at `ts`.
    Commit { ts: u64 },
    /// A 2PC participant's yes-vote under `gtid`.
    Prepare { gtid: u64 },
    /// The outcome of `gtid`'s prepared branch (`ts` is written as 0 for
    /// an abort).
    Decide { gtid: u64, commit: bool, ts: u64 },
}

/// What one [`Wal::append`] did. `flushed` is `Some(n)` when the append
/// flushed a batch of `n` records.
pub(crate) struct AppendInfo {
    pub bytes: u64,
    pub flushed: Option<usize>,
}

/// What [`crate::Engine::recover`] reconstructed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Commit records replayed.
    pub records_applied: u64,
    /// Row operations (puts + deletes) replayed.
    pub ops_applied: u64,
    /// Commit timestamp of the last replayed record (the recovered
    /// engine's commit counter).
    pub last_ts: u64,
    /// Bytes of valid records: the log's length without its torn tail.
    pub valid_len: u64,
    /// Torn-tail bytes dropped after the last complete record.
    pub truncated_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, n: usize) -> Vec<u8> {
        let ops: Vec<RedoOp> = (0..n)
            .map(|i| RedoOp::Put {
                table: 0,
                row: Arc::new(vec![
                    Scalar::Int(i as i64),
                    Scalar::Str(format!("v{ts}-{i}").into()),
                ]),
            })
            .collect();
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, ts, &ops);
        buf
    }

    #[test]
    fn record_roundtrip() {
        let ops = vec![
            RedoOp::Put {
                table: 1,
                row: Arc::new(vec![
                    Scalar::Int(9),
                    Scalar::Double(2.5),
                    Scalar::Null,
                    Scalar::Bool(true),
                    Scalar::Str("héllo".into()),
                ]),
            },
            RedoOp::Delete {
                table: 2,
                key: vec![Scalar::Int(4), Scalar::Int(7)],
            },
        ];
        let mut buf = Vec::new();
        encode_record(&mut buf, 5, 42, &ops);
        let back = decode_record(&buf).expect("decode");
        assert_eq!(back.shard, 5);
        assert_eq!(back.commit_ts, 42);
        assert_eq!(back.ops, ops);
    }

    #[test]
    fn scan_walks_multiple_records() {
        let mut log = Vec::new();
        for ts in 1..=4u64 {
            log.extend_from_slice(&rec(ts, ts as usize));
        }
        let s = scan(&log);
        assert!(s.error.is_none());
        assert_eq!(s.records.len(), 4);
        assert_eq!(s.valid_len, log.len());
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(
            s.records.iter().map(|r| r.commit_ts).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn torn_tail_is_truncation_not_error() {
        let mut log = rec(1, 2);
        let first = log.len();
        log.extend_from_slice(&rec(2, 3));
        // Cut anywhere strictly inside the second record: scan keeps the
        // first and reports torn bytes, no error.
        for cut in first + 1..log.len() {
            let s = scan(&log[..cut]);
            assert!(s.error.is_none(), "cut {cut}");
            assert_eq!(s.records.len(), 1, "cut {cut}");
            assert_eq!(s.valid_len, first, "cut {cut}");
            assert_eq!(s.torn_bytes, cut - first, "cut {cut}");
        }
    }

    #[test]
    fn any_bit_flip_is_loud_corruption() {
        let mut log = rec(1, 2);
        log.extend_from_slice(&rec(2, 1));
        for byte in 0..log.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = log.clone();
                bad[byte] ^= bit;
                let s = scan(&bad);
                assert!(
                    s.error.is_some(),
                    "flip at byte {byte} mask {bit:#x} must be detected"
                );
            }
        }
    }

    #[test]
    fn length_field_corruption_cannot_masquerade_as_torn_tail() {
        // Enlarge the declared payload length of the FIRST record: without
        // a header checksum this would look like a torn tail and silently
        // drop the records after it.
        let mut log = rec(1, 2);
        log.extend_from_slice(&rec(2, 2));
        log[20] ^= 0x10;
        let s = scan(&log);
        assert!(
            s.error.expect("loud").contains("header checksum"),
            "length tampering is detected by the header checksum"
        );
    }

    #[test]
    fn non_monotone_timestamps_rejected() {
        let mut log = rec(5, 1);
        log.extend_from_slice(&rec(5, 1));
        let s = scan(&log);
        assert!(s.error.expect("loud").contains("non-monotone"));
    }

    #[test]
    fn scan_from_resumes_mid_stream() {
        let mut log = Vec::new();
        let mut spans = Vec::new();
        for ts in 1..=4u64 {
            let r = rec(ts, ts as usize);
            spans.push((log.len(), r.len()));
            log.extend_from_slice(&r);
        }
        // Resuming after record 2 sees exactly records 3 and 4, with
        // absolute offsets and the full-stream valid_len.
        let resume_at = spans[2].0;
        let s = scan_from(&log, resume_at, 2);
        assert!(s.error.is_none());
        assert_eq!(
            s.records.iter().map(|r| r.commit_ts).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(s.records[0].offset, resume_at);
        assert_eq!(s.valid_len, log.len());
        // The watermark still catches a replayed (non-monotone) record.
        let s = scan_from(&log, resume_at, 7);
        assert!(s.error.expect("loud").contains("non-monotone"));
        // An empty tail is a clean no-op, valid_len stays put.
        let s = scan_from(&log, log.len(), 4);
        assert!(s.error.is_none());
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, log.len());
    }

    #[test]
    fn feed_sink_publishes_only_on_sync() {
        let mut sink = FeedSink::new(MemSink::new());
        let feed = sink.feed();
        sink.append(b"abc").unwrap();
        assert_eq!(feed.durable_len(), 0, "raw appends are not shipped");
        sink.sync().unwrap();
        assert_eq!(feed.durable_len(), 3);
        sink.append(b"de").unwrap();
        let mut out = Vec::new();
        assert_eq!(feed.read_from(1, &mut out), 2);
        assert_eq!(out, b"bc");
        sink.sync().unwrap();
        out.clear();
        assert_eq!(feed.read_from(3, &mut out), 2);
        assert_eq!(out, b"de");
        assert_eq!(feed.read_from(99, &mut out), 0);
    }

    #[test]
    fn feed_sink_failed_sync_ships_nothing() {
        let mut sink = FeedSink::new(FaultySink::new(
            MemSink::new(),
            FaultPlan {
                fail_sync_from: Some(0),
                ..FaultPlan::default()
            },
        ));
        let feed = sink.feed();
        sink.append(b"abc").unwrap();
        assert!(sink.sync().is_err());
        assert_eq!(feed.durable_len(), 0, "unacked bytes never ship");
    }

    #[test]
    fn mem_sink_durability_views() {
        let mem = MemSink::new();
        let mut sink = mem.clone();
        sink.append(b"abc").unwrap();
        sink.sync().unwrap();
        sink.append(b"defg").unwrap();
        assert_eq!(mem.durable_bytes(), b"abc");
        assert_eq!(mem.all_bytes(), b"abcdefg");
        assert_eq!(mem.crash_bytes(2), b"abcde");
        assert_eq!(mem.crash_bytes(99), b"abcdefg");
    }

    #[test]
    fn faulty_sink_drop_after_keeps_prefix_silently() {
        let mem = MemSink::new();
        let mut sink = FaultySink::new(
            mem.clone(),
            FaultPlan {
                drop_after: Some(5),
                ..FaultPlan::default()
            },
        );
        sink.append(b"abc").unwrap();
        sink.append(b"defg").unwrap(); // crosses the cut: only "de" lands
        sink.append(b"hij").unwrap(); // fully past: nothing lands
        sink.sync().unwrap();
        assert_eq!(mem.durable_bytes(), b"abcde");
    }

    #[test]
    fn faulty_sink_flip_and_short_write_and_sync() {
        let mem = MemSink::new();
        let mut sink = FaultySink::new(
            mem.clone(),
            FaultPlan {
                flip: Some((1, 0xFF)),
                fail_append_at: Some(6),
                fail_sync_from: Some(1),
                ..FaultPlan::default()
            },
        );
        sink.append(b"ab").unwrap();
        assert_eq!(mem.all_bytes(), vec![b'a', b'b' ^ 0xFF]);
        sink.sync().unwrap(); // sync #0 still fine
        sink.append(b"cd").unwrap();
        // This append crosses offset 6: prefix lands, then an error.
        assert!(sink.append(b"efgh").is_err());
        assert_eq!(mem.all_bytes().len(), 6);
        // Everything at/past the failure point errors.
        assert!(sink.append(b"x").is_err());
        assert!(sink.sync().is_err(), "sync #1 injected to fail");
    }
}
