//! In-memory span recorder and the three timing wrappers the traced pass
//! puts around the program's public seams: a [`Database`] that times
//! every engine call, an [`Env`] that counts control transfers and
//! APP-issued statements, and a [`LogSink`] that times log appends and
//! flushes.
//!
//! The recorder is thread-local. The traced pass drives one
//! `Dispatcher` from one thread, and the engine calls its log sink on
//! the thread that calls the engine, so every span of that pass lands
//! in the same recorder without locking. When the recorder is off,
//! [`span`] costs one thread-local flag read.
//!
//! A span has a name, a start, an end, a parent and the request tag of
//! the driver-level span it sits under. Spans are kept in memory up to
//! a cap and written out by [`write_spans`]. Per-name totals and self
//! times (a span minus its direct children) are kept for every span,
//! including those past the cap.

use pyx_db::wal::LogSink;
use pyx_db::{Database, DbError, Engine, EngineStats, PreparedId, QueryResult, Scalar, TxnId};
use pyx_partition::Side;
use pyx_server::Env;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent, or no request tag.
pub const NONE: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list, or [`NONE`].
    pub parent: u64,
    /// Request tag of the driver-level span this one nests under.
    pub tag: u64,
}

/// Per-name aggregate over every closed span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index in `spans`, or [`NONE`] when past the cap.
    idx: u64,
    tag: u64,
}

struct Recorder {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    counters: BTreeMap<&'static str, u64>,
}

/// Everything a traced pass recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Spans closed after the cap was reached (aggregated, not kept).
    pub dropped: u64,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counters: BTreeMap<&'static str, u64>,
}

impl Trace {
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, keeping at most `cap` spans.
pub fn start(cap: usize) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            counters: BTreeMap::new(),
        })
    });
    ON.with(|on| on.set(true));
}

/// Stop recording on this thread and hand back what was recorded.
pub fn finish() -> Trace {
    ON.with(|on| on.set(false));
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start");
    assert!(rec.stack.is_empty(), "a span was still open at finish");
    Trace {
        spans: rec.spans,
        dropped: rec.dropped,
        aggs: rec.aggs,
        counters: rec.counters,
    }
}

fn on() -> bool {
    ON.with(Cell::get)
}

/// Add `n` to a named counter (no-op while not recording).
pub fn count(name: &'static str, n: u64) {
    if on() {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                *rec.counters.entry(name).or_insert(0) += n;
            }
        });
    }
}

/// An open span; closes when dropped.
pub struct Guard {
    live: bool,
}

impl Guard {
    /// Set the request tag of this (driver-level) span, for example once
    /// a poll learns which request it retired.
    pub fn set_tag(&self, tag: u64) {
        if self.live {
            REC.with(|r| {
                if let Some(top) = r.borrow_mut().as_mut().and_then(|rec| rec.stack.last_mut()) {
                    top.tag = tag;
                }
            });
        }
    }
}

/// Open a span named `name` carrying request tag `tag` ([`NONE`] to
/// inherit the enclosing span's tag).
pub fn span(name: &'static str, tag: u64) -> Guard {
    if !on() {
        return Guard { live: false };
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording");
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let (parent, inherited) = rec.stack.last().map_or((NONE, NONE), |p| (p.idx, p.tag));
        let tag = if tag == NONE { inherited } else { tag };
        let idx = if rec.spans.len() < rec.cap {
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                tag,
            });
            (rec.spans.len() - 1) as u64
        } else {
            NONE
        };
        rec.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            idx,
            tag,
        });
    });
    Guard { live: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let Some(open) = rec.stack.pop() else { return };
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            let dur = end_ns.saturating_sub(open.start_ns);
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += dur;
            }
            match rec.spans.get_mut(open.idx as usize) {
                Some(s) if open.idx != NONE => {
                    s.end_ns = end_ns;
                    s.tag = open.tag;
                }
                _ => rec.dropped += 1,
            }
            let a = rec.aggs.entry(open.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(open.child_ns);
        });
    }
}

/// Write spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, trace: &Trace) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in trace.spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tag\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            },
            if s.tag == NONE { -1 } else { s.tag as i64 },
        )?;
    }
    out.flush()
}

/// A [`Database`] that records a span around every call into the engine.
pub struct TimingDb<'e> {
    pub inner: &'e mut Engine,
}

impl Database for TimingDb<'_> {
    fn begin(&mut self) -> TxnId {
        let _s = span("db.begin", NONE);
        self.inner.begin()
    }

    fn begin_aged(&mut self, age: u64) -> TxnId {
        let _s = span("db.begin", NONE);
        self.inner.begin_aged(age)
    }

    fn begin_read_only(&mut self) -> TxnId {
        let _s = span("db.begin", NONE);
        self.inner.begin_read_only()
    }

    fn commit(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let _s = span("db.commit", NONE);
        self.inner.commit(txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<(u64, Vec<TxnId>), DbError> {
        let _s = span("db.abort", NONE);
        self.inner.abort(txn)
    }

    fn prepare(&mut self, sql: &str) -> Result<PreparedId, DbError> {
        let _s = span("db.prepare", NONE);
        self.inner.prepare(sql)
    }

    fn execute(
        &mut self,
        txn: TxnId,
        sql: &str,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let _s = span("db.exec", NONE);
        self.inner.execute(txn, sql, params)
    }

    fn execute_prepared(
        &mut self,
        txn: TxnId,
        id: PreparedId,
        params: &[Scalar],
    ) -> Result<QueryResult, DbError> {
        let _s = span("db.exec", NONE);
        self.inner.execute_prepared(txn, id, params)
    }

    fn db_stats(&self) -> EngineStats {
        self.inner.stats.clone()
    }

    fn wal_sync(&mut self) -> Result<(), DbError> {
        let _s = span("db.wal_sync", NONE);
        self.inner.wal_sync()
    }
}

/// Counts per [`Env`] call, gathered by [`CountingEnv`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvCounts {
    /// Control transfers between APP and DB (`Env::net`).
    pub transfers: u64,
    /// Bytes carried by those transfers.
    pub transfer_bytes: u64,
    /// Statements issued from APP: one JDBC-style round trip each.
    pub app_db_ops: u64,
    /// Statements issued from DB-side code (no round trip).
    pub db_db_ops: u64,
}

/// An [`Env`] that counts every call and forwards it unchanged.
pub struct CountingEnv<E: Env> {
    pub inner: E,
    pub counts: EnvCounts,
}

impl<E: Env> CountingEnv<E> {
    pub fn new(inner: E) -> Self {
        CountingEnv {
            inner,
            counts: EnvCounts::default(),
        }
    }
}

impl<E: Env> Env for CountingEnv<E> {
    fn cpu(&mut self, now: u64, host: Side, cost: u64) -> u64 {
        self.inner.cpu(now, host, cost)
    }

    fn net(&mut self, now: u64, from: Side, to: Side, bytes: u64) -> u64 {
        self.counts.transfers += 1;
        self.counts.transfer_bytes += bytes;
        self.inner.net(now, from, to, bytes)
    }

    fn db_op(
        &mut self,
        now: u64,
        issued_from: Side,
        db_cpu: u64,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> u64 {
        match issued_from {
            Side::App => self.counts.app_db_ops += 1,
            Side::Db => self.counts.db_db_ops += 1,
        }
        self.inner
            .db_op(now, issued_from, db_cpu, req_bytes, resp_bytes)
    }

    fn db_load_pct(&mut self, now: u64) -> f64 {
        self.inner.db_load_pct(now)
    }
}

/// A [`LogSink`] that records a span around every append and flush and
/// counts the bytes appended (counter `wal.bytes`).
pub struct TimingSink<S: LogSink> {
    pub inner: S,
}

impl<S: LogSink> LogSink for TimingSink<S> {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let _s = span("wal.append", NONE);
        count("wal.bytes", buf.len() as u64);
        self.inner.append(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let _s = span("wal.sync", NONE);
        self.inner.sync()
    }

    fn discard_unsynced(&mut self) -> std::io::Result<()> {
        self.inner.discard_unsynced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyx_db::wal::{MemSink, Wal};
    use pyx_server::{
        Admit, Deployment, Dispatcher, DispatcherConfig, InstantEnv, Polled, TxnDone, TxnRequest,
        Workload,
    };
    use pyx_workloads::tpcc;

    fn small() -> tpcc::TpccScale {
        tpcc::TpccScale {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 10,
            items: 100,
        }
    }

    /// A loaded single engine with a write-ahead log on `sink`.
    fn engine(sink: Box<dyn LogSink>) -> Engine {
        let mut e = Engine::new();
        tpcc::create_schema(&mut e);
        tpcc::load(&mut e, small(), 5);
        e.set_wal(Wal::new(sink).with_group_commit(16));
        e
    }

    fn fingerprint(e: &Engine) -> Vec<(String, Vec<Vec<Scalar>>)> {
        let mut names = e.table_names();
        names.sort();
        names
            .into_iter()
            .map(|t| (t.clone(), e.dump_table(&t)))
            .collect()
    }

    /// Run `reqs` through one dispatcher, two sessions in flight, syncing
    /// the log at each retirement. `wrapped` puts every seam behind its
    /// timing wrapper.
    fn run(
        part: &pyx_pyxil::CompiledPartition,
        e: &mut Engine,
        reqs: &[TxnRequest],
        wrapped: bool,
    ) -> (Vec<TxnDone>, EnvCounts) {
        let cfg = DispatcherConfig {
            max_sessions: 2,
            ..DispatcherConfig::default()
        };
        let mut disp = if wrapped {
            Dispatcher::new(Deployment::Fixed(part), &mut TimingDb { inner: e }, cfg)
        } else {
            Dispatcher::new(Deployment::Fixed(part), e, cfg)
        };
        let mut env = CountingEnv::new(InstantEnv);
        let mut dones = Vec::new();
        let mut next = 0;
        while dones.len() < reqs.len() {
            while next < reqs.len() && disp.active_sessions() + disp.queue_len() < 2 {
                let _s = span("driver.submit", next as u64);
                assert!(matches!(
                    disp.submit(0, reqs[next].clone(), next as u64),
                    Admit::Started | Admit::Queued { .. }
                ));
                next += 1;
            }
            let polled = {
                let _s = span("driver.poll", NONE);
                if wrapped {
                    disp.poll(&mut TimingDb { inner: e }, &mut env)
                } else {
                    disp.poll(e, &mut env)
                }
            };
            if let Polled::Done(d) = polled {
                let _s = span("driver.ack", d.tag);
                e.wal_sync().expect("log sync");
                dones.push(d);
            }
        }
        dones.sort_by_key(|d| d.tag);
        (dones, env.counts)
    }

    #[test]
    fn wrapping_changes_no_result() {
        let pyxis = pyx_core::Pyxis::compile(tpcc::REMOTE_SRC, pyx_core::PyxisConfig::default())
            .expect("compiles");
        let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
        let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");
        let mut gen = tpcc::RemoteMixGen::new(order, pay, small(), 9).with_lines(2, 5);
        let reqs: Vec<TxnRequest> = (0..120).map(|i| gen.next_txn(i)).collect();
        let set = pyxis.generate(
            &pyxis
                .profile(&mut engine(Box::new(MemSink::new())), {
                    reqs.iter().take(40).map(|r| (r.entry, r.args.clone()))
                })
                .expect("profile"),
            &[2.0],
        );
        let part = &set.pyxis[0].2;

        let plain_log = MemSink::new();
        let mut plain = engine(Box::new(plain_log.clone()));
        let (a, counts_a) = run(part, &mut plain, &reqs, false);

        let traced_log = MemSink::new();
        let mut traced = engine(Box::new(TimingSink {
            inner: traced_log.clone(),
        }));
        start(1 << 20);
        let (b, counts_b) = run(part, &mut traced, &reqs, true);
        let trace = finish();

        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tag, y.tag);
            assert_eq!(x.result, y.result, "txn {}", x.tag);
            assert_eq!(x.rolled_back, y.rolled_back, "txn {}", x.tag);
            assert_eq!(x.error, y.error, "txn {}", x.tag);
        }
        assert!(a.iter().any(|d| d.rolled_back), "mix has rollbacks");
        assert_eq!(fingerprint(&plain), fingerprint(&traced));
        assert_eq!(plain_log.durable_bytes(), traced_log.durable_bytes());
        assert_eq!(counts_a, counts_b);
        assert_eq!(plain.stats.statements, traced.stats.statements);

        // The recorder saw every layer, nested under the driver's polls.
        assert_eq!(trace.agg("driver.ack").count, reqs.len() as u64);
        assert!(trace.agg("db.exec").count >= plain.stats.statements);
        assert!(trace.agg("wal.sync").count > 0);
        assert_eq!(trace.counter("wal.bytes"), plain.stats.wal_bytes);
        let poll = trace.agg("driver.poll");
        assert!(poll.self_ns <= poll.total_ns);
        let exec = trace
            .spans
            .iter()
            .find(|s| s.name == "db.exec")
            .expect("an exec span");
        assert_eq!(trace.spans[exec.parent as usize].name, "driver.poll");
    }

    #[test]
    fn self_time_excludes_children_and_spans_past_the_cap_still_aggregate() {
        start(2);
        {
            let outer = span("outer", 7);
            {
                let _inner = span("inner", NONE);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span("inner", NONE);
            }
            outer.set_tag(8);
        }
        let t = finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans[0].tag, 8, "tag set after the fact");
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].tag, 7, "children inherit the open tag");
        let (o, i) = (t.agg("outer"), t.agg("inner"));
        assert_eq!(i.count, 2);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let _s = span("ignored", 1);
        count("ignored", 1);
        start(8);
        let t = finish();
        assert!(t.spans.is_empty() && t.aggs.is_empty() && t.counters.is_empty());
    }
}
