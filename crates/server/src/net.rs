//! Real socket transport for APP↔DB serving.
//!
//! Everything else in this crate moves transactions over in-process
//! channels priced by a simulated [`Env`]. This module puts the same
//! checksummed [`Frame`] wire protocol (`pyx_runtime::wire`) on actual
//! TCP or Unix-domain sockets, so an APP-host client *process* can drive
//! a [`ShardedServer`] DB-host process and the deployment numbers become
//! measured instead of modeled:
//!
//! * [`Listener`] / [`Stream`] — a thin TCP/UDS abstraction
//!   (`tcp:host:port`, `uds:/path` addresses).
//! * [`FrameConn`] — length-delimited frame streaming over one socket:
//!   `encode_into` on send, incremental reassembly via
//!   [`FrameAssembler`] on receive, read/write deadlines throughout.
//! * [`NetServer`] — the DB host: an accept thread plus per-connection
//!   reader/writer threads, each blocked on its socket, around one owner
//!   thread, the only one that touches the [`ShardedServer`]. The owner
//!   blocks in [`ShardedServer::wait`]: a retirement, a worker's exit,
//!   and every event a reader, the accept thread or the handle queues
//!   each wake it at once, and nothing polls. Each turn it routes
//!   retirements back to the connection that asked, then admits new
//!   transactions (via [`ShardedServer::submit_by_deadline`], which
//!   waits on retirements rather than sleeping). Shutdown wakes the
//!   accept thread with a connection of its own; the owner ends a
//!   connection's threads by shutting its socket down.
//! * [`NetClient`] — the partition-tolerant APP-host client: bounded
//!   reconnect with jittered exponential backoff,
//!   automatic re-submit of in-flight requests after reconnect, and
//!   explicit *outcome-unknown* error retirement once the reconnect
//!   budget is exhausted — a network failure is loud, never a hang and
//!   never a silent wrong answer.
//! * [`FaultScript`] — the network analogue of the WAL's `FaultySink`:
//!   scripted delays, drops, duplications, reorders, mid-frame cuts,
//!   byte corruption, stalled peers, and full partitions, injected on a
//!   client's link so the chaos suite can kill *links* as well as
//!   workers.
//! * [`SocketEnv`] — an [`Env`] whose network/DB-op pricing is a real
//!   measured round trip over a socket to an echo peer, replacing the
//!   simulated latency/bandwidth model with the wire itself.
//!
//! # RPC mapping
//!
//! There is no second serialization format: RPC messages *are* frames,
//! reusing the checksummed codec end to end (any single corrupted byte
//! on the wire is rejected by the frame checksum, not by RPC-level
//! guesswork).
//!
//! * `FrameKind::Entry` = **Submit**: stack slots carry
//!   `(tag, entry, route, acked_below)`; each argument travels as
//!   one `Native` sync entry `oid = arg index`, whose first element tags
//!   the [`ArgVal`] variant. No label travels: the server never needs
//!   one, and the client rebuilds each result from its own request.
//! * `FrameKind::Return` = **Done**: stack slots carry
//!   `(tag, flags, restarts, participants, error, timings)`; the
//!   entry return value rides the frame's native result slot.
//! * `FrameKind::Transfer` = **control**: hello/ack (client identity),
//!   echo request/reply (measured pricing), bye. Stack slot 0 is the op
//!   code.
//!
//! # Exactly-once
//!
//! Tags are client-assigned and monotone per client. The server keeps a
//! per-client dedup table: a tag's outcome is computed once and cached
//! until the client's `acked_below` watermark (sent with every submit)
//! prunes it. A re-submit of a completed tag — the normal aftermath of
//! a reconnect, a duplicated frame, or a lost reply — is answered from
//! the cache and **never re-executed**, so a retried commit is applied
//! exactly once. A re-submit of a still-running tag just rebinds the
//! reply path. See the failure-model section in the crate docs for the
//! full retry/outcome-unknown contract.

use crate::dispatch::{Admit, TxnDone};
use crate::env::Env;
use crate::shard::{ShardedReport, ShardedServer, Waker};
use crate::workload::TxnRequest;
use pyx_lang::{MethodId, Oid, RtError, Value};
use pyx_partition::Side;
use pyx_runtime::wire::{Frame, FrameAssembler, FrameKind, StackSlot, SyncEntry};
use pyx_runtime::ArgVal;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::{
    fs::FileTypeExt,
    net::{UnixListener, UnixStream},
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Addresses, listeners, streams
// ---------------------------------------------------------------------

/// A serving address: `tcp:host:port` or `uds:/path/to/socket`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    Tcp(String),
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

impl NetAddr {
    /// Parse `tcp:host:port` / `uds:/path`.
    pub fn parse(s: &str) -> io::Result<NetAddr> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return Ok(NetAddr::Tcp(rest.to_string()));
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("uds:") {
            return Ok(NetAddr::Uds(rest.into()));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad address {s:?}: expected tcp:host:port or uds:/path"),
        ))
    }
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            NetAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A bound serving socket (TCP or UDS).
pub enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

impl Listener {
    /// Bind. `tcp:127.0.0.1:0` picks a free port — read it back with
    /// [`Listener::local_addr`]. A UDS path is created fresh: a stale
    /// socket there is removed first, and anything else at the path makes
    /// the bind fail.
    pub fn bind(addr: &NetAddr) -> io::Result<Listener> {
        match addr {
            NetAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            NetAddr::Uds(p) => {
                if std::fs::symlink_metadata(p).is_ok_and(|m| m.file_type().is_socket()) {
                    std::fs::remove_file(p)?;
                }
                Ok(Listener::Uds(UnixListener::bind(p)?))
            }
        }
    }

    pub fn local_addr(&self) -> io::Result<NetAddr> {
        match self {
            Listener::Tcp(l) => Ok(NetAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Uds(l) => {
                let a = l.local_addr()?;
                let p = a
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed uds"))?;
                Ok(NetAddr::Uds(p.to_path_buf()))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Uds(s))
            }
        }
    }
}

/// One connected socket.
pub enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    /// Connect with a deadline (TCP; UDS connects are local and
    /// effectively instant, std offers no timed variant).
    pub fn connect(addr: &NetAddr, timeout: Duration) -> io::Result<Stream> {
        match addr {
            NetAddr::Tcp(a) => {
                let sa = a
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
                let s = TcpStream::connect_timeout(&sa, timeout)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            NetAddr::Uds(p) => Ok(Stream::Uds(UnixStream::connect(p)?)),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Uds(s) => Ok(Stream::Uds(s.try_clone()?)),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_write_timeout(t),
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What one framed receive produced.
pub enum Recv {
    /// A complete, checksum-verified frame.
    Frame(Frame),
    /// The read deadline passed with no complete frame; the connection
    /// is still presumed alive.
    Timeout,
    /// Peer closed the stream cleanly (EOF).
    Closed,
}

/// Length-delimited [`Frame`] streaming over one socket, with read and
/// write deadlines. Sends are `encode_into` a reused scratch buffer
/// (the zero-alloc path) followed by one `write_all`; receives feed a
/// [`FrameAssembler`], so frames fragmented or coalesced by the kernel
/// reassemble incrementally and a corrupt stream (bad magic, length
/// bomb, checksum mismatch) surfaces as an error that tears the
/// connection down — framing cannot be resynchronized after corruption.
pub struct FrameConn {
    stream: Stream,
    asm: FrameAssembler,
    scratch: Vec<u8>,
    rbuf: Vec<u8>,
}

impl FrameConn {
    pub fn new(stream: Stream, io_timeout: Duration) -> io::Result<FrameConn> {
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(FrameConn {
            stream,
            asm: FrameAssembler::new(),
            scratch: Vec::new(),
            rbuf: vec![0u8; 64 * 1024],
        })
    }

    pub fn send(&mut self, f: &Frame) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        f.encode_into(&mut scratch);
        let r = self.send_bytes_inner(&scratch);
        self.scratch = scratch;
        r
    }

    /// Send pre-encoded bytes verbatim (the fault injector uses this to
    /// put deliberately corrupted frames on the wire).
    fn send_bytes_inner(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Receive the next frame, waiting at most the stream's read
    /// deadline for progress. A wire-level decode failure is returned
    /// as `InvalidData` — the caller must drop the connection.
    pub fn recv(&mut self) -> io::Result<Recv> {
        loop {
            match self.asm.next_frame() {
                Ok(Some(f)) => return Ok(Recv::Frame(f)),
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.msg));
                }
            }
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return Ok(Recv::Closed),
                Ok(n) => {
                    let bytes = &self.rbuf[..n];
                    self.asm.feed(bytes);
                }
                Err(e) if timed_out(&e) => return Ok(Recv::Timeout),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn shutdown(&self) {
        self.stream.shutdown();
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// One scripted network fault, applied to one frame as it crosses the
/// decorated link (the network analogue of the WAL's `FaultySink`
/// fault classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pass through untouched.
    Deliver,
    /// Silently lose the frame (the peer never sees it; only a timeout
    /// can notice).
    Drop,
    /// Deliver after a pause.
    DelayMs(u64),
    /// Deliver the frame twice (the duplicate-suppression probe).
    Duplicate,
    /// Hold this frame and release it *after* the next one (reorder).
    Reorder,
    /// Flip one byte mid-frame; the peer's checksum must reject it and
    /// the connection dies loudly.
    CorruptByte,
    /// Write only the first `n` bytes of the frame, then hard-close the
    /// socket (a peer dying mid-write).
    CutAfter(usize),
    /// Swallow the frame and stall the socket: every subsequent send
    /// and receive blackholes until the client's request timeout kills
    /// the connection (a wedged-but-not-closed peer).
    Stall,
}

#[derive(Default)]
struct ScriptState {
    send: VecDeque<Fault>,
    recv: VecDeque<Fault>,
    partitioned: bool,
    sends_seen: u64,
    recvs_seen: u64,
}

/// A scripted fault plan, shared (`Clone` = same script) between the
/// test and the [`NetClient`] link it decorates. Faults are consumed
/// one per frame in order; an exhausted queue delivers cleanly. The
/// script survives reconnects — it scripts the *link*, not one socket —
/// and [`FaultScript::partition`] / [`FaultScript::heal`] black out and
/// restore the whole link (including new connection attempts) at any
/// moment, from any thread.
#[derive(Clone, Default)]
pub struct FaultScript {
    inner: Arc<Mutex<ScriptState>>,
}

impl FaultScript {
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Queue faults applied to outbound frames, one each, in order.
    pub fn on_send(&self, faults: impl IntoIterator<Item = Fault>) {
        self.lock().send.extend(faults);
    }

    /// Queue faults applied to inbound frames, one each, in order.
    pub fn on_recv(&self, faults: impl IntoIterator<Item = Fault>) {
        self.lock().recv.extend(faults);
    }

    /// Black out the link: in-flight and future I/O (and *new
    /// connections*) fail until [`FaultScript::heal`].
    pub fn partition(&self) {
        self.lock().partitioned = true;
    }

    /// Restore a partitioned link.
    pub fn heal(&self) {
        self.lock().partitioned = false;
    }

    pub fn is_partitioned(&self) -> bool {
        self.lock().partitioned
    }

    /// Frames that have crossed the link so far (sent, received).
    pub fn seen(&self) -> (u64, u64) {
        let g = self.lock();
        (g.sends_seen, g.recvs_seen)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScriptState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_send(&self) -> Fault {
        let mut g = self.lock();
        g.sends_seen += 1;
        g.send.pop_front().unwrap_or(Fault::Deliver)
    }

    fn next_recv(&self) -> Fault {
        let mut g = self.lock();
        g.recvs_seen += 1;
        g.recv.pop_front().unwrap_or(Fault::Deliver)
    }
}

/// A [`FrameConn`] decorated with a [`FaultScript`]: the `FaultyTransport`
/// the chaos tests drive. With no script it is a transparent passthrough.
struct Link {
    conn: FrameConn,
    script: Option<FaultScript>,
    /// Entered by [`Fault::Stall`]: the link looks alive but blackholes
    /// everything for this socket's lifetime.
    stalled: bool,
    /// Frame held back by [`Fault::Reorder`], released after the next
    /// send.
    held: Option<Vec<u8>>,
}

fn blackout() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "link partitioned")
}

impl Link {
    fn new(conn: FrameConn, script: Option<FaultScript>) -> Link {
        Link {
            conn,
            script,
            stalled: false,
            held: None,
        }
    }

    fn blacked_out(&mut self) -> bool {
        // A stall lasts for this socket's lifetime: the peer looks
        // alive but nothing moves, until the request timeout declares
        // the link dead and the *reconnected* link starts fresh.
        if self.stalled {
            return true;
        }
        match &self.script {
            Some(s) => s.is_partitioned(),
            None => false,
        }
    }

    fn send(&mut self, f: &Frame) -> io::Result<()> {
        let Some(script) = self.script.clone() else {
            return self.conn.send(f);
        };
        if self.blacked_out() {
            return Err(blackout());
        }
        let fault = script.next_send();
        match fault {
            Fault::Deliver => self.conn.send(f),
            Fault::Drop => Ok(()),
            Fault::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.conn.send(f)
            }
            Fault::Duplicate => {
                self.conn.send(f)?;
                self.conn.send(f)
            }
            Fault::Reorder => {
                self.held = Some(f.encode());
                Ok(())
            }
            Fault::CorruptByte => {
                let mut bytes = f.encode();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x20;
                self.conn.send_bytes_inner(&bytes)
            }
            Fault::CutAfter(n) => {
                let bytes = f.encode();
                let cut = n.min(bytes.len().saturating_sub(1));
                let _ = self.conn.send_bytes_inner(&bytes[..cut]);
                self.conn.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "link cut mid-frame",
                ))
            }
            Fault::Stall => {
                self.stalled = true;
                Ok(())
            }
        }?;
        // Release a reordered frame behind the one just sent.
        if fault != Fault::Reorder {
            if let Some(held) = self.held.take() {
                self.conn.send_bytes_inner(&held)?;
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Recv> {
        let Some(script) = self.script.clone() else {
            return self.conn.recv();
        };
        loop {
            if self.blacked_out() {
                // Pretend the wire is silent; the caller's deadline
                // machinery decides when that means "dead".
                std::thread::sleep(Duration::from_millis(1));
                return Ok(Recv::Timeout);
            }
            let r = self.conn.recv()?;
            let Recv::Frame(f) = r else { return Ok(r) };
            match script.next_recv() {
                Fault::Deliver | Fault::Duplicate | Fault::Reorder => return Ok(Recv::Frame(f)),
                Fault::Drop => continue,
                Fault::DelayMs(ms) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    return Ok(Recv::Frame(f));
                }
                Fault::CorruptByte => {
                    // As if the frame arrived corrupted: checksum
                    // rejection, connection must die.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "wire: checksum mismatch",
                    ));
                }
                Fault::CutAfter(_) => return Ok(Recv::Closed),
                Fault::Stall => {
                    self.stalled = true;
                    continue;
                }
            }
        }
    }

    fn shutdown(&self) {
        self.conn.shutdown();
    }
}

// ---------------------------------------------------------------------
// RPC message codec (over frames)
// ---------------------------------------------------------------------

const OP_HELLO: i64 = 0;
const OP_HELLO_ACK: i64 = 1;
const OP_ECHO_REQ: i64 = 2;
const OP_ECHO_REPLY: i64 = 3;
const OP_BYE: i64 = 4;

const ARG_INT: i64 = 0;
const ARG_DOUBLE: i64 = 1;
const ARG_BOOL: i64 = 2;
const ARG_STR: i64 = 3;
const ARG_INT_ARR: i64 = 4;
const ARG_DOUBLE_ARR: i64 = 5;

fn slot(i: u32, value: Value) -> StackSlot {
    StackSlot {
        depth: 0,
        slot: i,
        value,
    }
}

fn werr(m: &str) -> RtError {
    RtError::new(format!("net: {m}"))
}

fn slot_i64(f: &Frame, i: usize) -> Result<i64, RtError> {
    match f.stack.get(i).map(|s| &s.value) {
        Some(Value::Int(x)) => Ok(*x),
        _ => Err(werr("missing int slot")),
    }
}

fn control_frame(from: Side, op: i64, arg: i64) -> Frame {
    let mut f = Frame::new(FrameKind::Transfer, from);
    f.stack.push(slot(0, Value::Int(op)));
    f.stack.push(slot(1, Value::Int(arg)));
    f
}

/// Pad a control frame to roughly `bytes` total encoded length (echo
/// traffic for measured pricing). Null elements cost one byte each;
/// the fixed overhead is header + two stack slots + one native entry.
fn pad_frame(mut f: Frame, bytes: usize) -> Frame {
    const OVERHEAD: usize = 32 + 2 * 17 + 13;
    let pad = bytes.saturating_sub(OVERHEAD);
    f.sync.push(SyncEntry::Native {
        oid: Oid(0),
        elems: vec![Value::Null; pad],
    });
    f
}

/// A parsed Submit.
#[derive(Debug, Clone)]
struct NetSubmit {
    tag: u64,
    entry: MethodId,
    route: Option<i64>,
    acked_below: u64,
    args: Vec<ArgVal>,
}

fn submit_frame(tag: u64, acked_below: u64, req: &TxnRequest) -> Frame {
    let mut f = Frame::new(FrameKind::Entry, Side::App);
    f.stack.push(slot(0, Value::Int(tag as i64)));
    f.stack.push(slot(1, Value::Int(i64::from(req.entry.0))));
    f.stack.push(slot(
        2,
        match req.route {
            Some(k) => Value::Int(k),
            None => Value::Null,
        },
    ));
    f.stack.push(slot(3, Value::Int(acked_below as i64)));
    for (i, a) in req.args.iter().enumerate() {
        let mut elems = Vec::new();
        match a {
            ArgVal::Int(x) => {
                elems.push(Value::Int(ARG_INT));
                elems.push(Value::Int(*x));
            }
            ArgVal::Double(x) => {
                elems.push(Value::Int(ARG_DOUBLE));
                elems.push(Value::Double(*x));
            }
            ArgVal::Bool(x) => {
                elems.push(Value::Int(ARG_BOOL));
                elems.push(Value::Bool(*x));
            }
            ArgVal::Str(s) => {
                elems.push(Value::Int(ARG_STR));
                elems.push(Value::Str(s.as_str().into()));
            }
            ArgVal::IntArray(v) => {
                elems.push(Value::Int(ARG_INT_ARR));
                elems.extend(v.iter().map(|&x| Value::Int(x)));
            }
            ArgVal::DoubleArray(v) => {
                elems.push(Value::Int(ARG_DOUBLE_ARR));
                elems.extend(v.iter().map(|&x| Value::Double(x)));
            }
        }
        f.sync.push(SyncEntry::Native {
            oid: Oid(i as u64),
            elems,
        });
    }
    f
}

fn parse_submit(f: &Frame) -> Result<NetSubmit, RtError> {
    if f.kind != FrameKind::Entry {
        return Err(werr("not a submit frame"));
    }
    let tag = slot_i64(f, 0)? as u64;
    let entry64 = slot_i64(f, 1)?;
    let entry = MethodId(u32::try_from(entry64).map_err(|_| werr("entry id out of range"))?);
    let route = match f.stack.get(2).map(|s| &s.value) {
        Some(Value::Null) => None,
        Some(Value::Int(k)) => Some(*k),
        _ => return Err(werr("bad route slot")),
    };
    let acked_below = slot_i64(f, 3)? as u64;
    let mut args = Vec::with_capacity(f.sync.len());
    for (i, e) in f.sync.iter().enumerate() {
        let SyncEntry::Native { oid, elems } = e else {
            return Err(werr("bad arg entry"));
        };
        if oid.0 != i as u64 {
            return Err(werr("arg entries out of order"));
        }
        let Some(Value::Int(kind)) = elems.first() else {
            return Err(werr("missing arg kind"));
        };
        let rest = &elems[1..];
        let arg = match *kind {
            ARG_INT => match rest {
                [Value::Int(x)] => ArgVal::Int(*x),
                _ => return Err(werr("bad int arg")),
            },
            ARG_DOUBLE => match rest {
                [Value::Double(x)] => ArgVal::Double(*x),
                _ => return Err(werr("bad double arg")),
            },
            ARG_BOOL => match rest {
                [Value::Bool(x)] => ArgVal::Bool(*x),
                _ => return Err(werr("bad bool arg")),
            },
            ARG_STR => match rest {
                [Value::Str(s)] => ArgVal::Str(s.to_string()),
                _ => return Err(werr("bad str arg")),
            },
            ARG_INT_ARR => {
                let mut v = Vec::with_capacity(rest.len());
                for e in rest {
                    match e {
                        Value::Int(x) => v.push(*x),
                        _ => return Err(werr("bad int array arg")),
                    }
                }
                ArgVal::IntArray(v)
            }
            ARG_DOUBLE_ARR => {
                let mut v = Vec::with_capacity(rest.len());
                for e in rest {
                    match e {
                        Value::Double(x) => v.push(*x),
                        _ => return Err(werr("bad double array arg")),
                    }
                }
                ArgVal::DoubleArray(v)
            }
            _ => return Err(werr("unknown arg kind")),
        };
        args.push(arg);
    }
    Ok(NetSubmit {
        tag,
        entry,
        route,
        acked_below,
        args,
    })
}

const DONE_ROLLED_BACK: i64 = 1 << 0;
const DONE_READ_ONLY: i64 = 1 << 1;
const DONE_LOW_BUDGET: i64 = 1 << 2;

fn done_frame(tag: u64, d: &TxnDone) -> Frame {
    let mut f = Frame::new(FrameKind::Return, Side::Db);
    let mut flags = 0i64;
    if d.rolled_back {
        flags |= DONE_ROLLED_BACK;
    }
    if d.read_only {
        flags |= DONE_READ_ONLY;
    }
    if d.low_budget {
        flags |= DONE_LOW_BUDGET;
    }
    f.stack.push(slot(0, Value::Int(tag as i64)));
    f.stack.push(slot(1, Value::Int(flags)));
    f.stack.push(slot(2, Value::Int(i64::from(d.restarts))));
    f.stack.push(slot(3, Value::Int(i64::from(d.participants))));
    f.stack.push(slot(
        4,
        match &d.error {
            Some(e) => Value::Str(e.as_str().into()),
            None => Value::Null,
        },
    ));
    f.stack.push(slot(5, Value::Int(d.submitted_ns as i64)));
    f.stack.push(slot(6, Value::Int(d.started_ns as i64)));
    f.stack.push(slot(7, Value::Int(d.finished_ns as i64)));
    f.result.clone_from(&d.result);
    f
}

/// A Done parsed back on the client; joined with the client's stored
/// request (for the `'static` entry/label) to rebuild a [`TxnDone`].
struct NetDone {
    tag: u64,
    flags: i64,
    restarts: u32,
    participants: u32,
    error: Option<String>,
    submitted_ns: u64,
    started_ns: u64,
    finished_ns: u64,
    result: Option<Value>,
}

fn parse_done(f: &Frame) -> Result<NetDone, RtError> {
    if f.kind != FrameKind::Return {
        return Err(werr("not a done frame"));
    }
    let error = match f.stack.get(4).map(|s| &s.value) {
        Some(Value::Null) => None,
        Some(Value::Str(s)) => Some(s.to_string()),
        _ => return Err(werr("bad error slot")),
    };
    Ok(NetDone {
        tag: slot_i64(f, 0)? as u64,
        flags: slot_i64(f, 1)?,
        restarts: slot_i64(f, 2)? as u32,
        participants: slot_i64(f, 3)? as u32,
        error,
        submitted_ns: slot_i64(f, 5)? as u64,
        started_ns: slot_i64(f, 6)? as u64,
        finished_ns: slot_i64(f, 7)? as u64,
        result: f.result.clone(),
    })
}

/// The label every socket request runs under on the server. The wire
/// carries none: a label only names a class for the submitter's own
/// reports, and the client keeps its request's.
const NET_LABEL: &str = "net";

// ---------------------------------------------------------------------
// NetServer — the DB host
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct NetServerCfg {
    /// Per-connection socket read/write deadline. A peer that cannot
    /// make a write progress within this window is dropped (stalled-peer
    /// protection).
    pub io_timeout: Duration,
}

impl Default for NetServerCfg {
    fn default() -> NetServerCfg {
        NetServerCfg {
            io_timeout: Duration::from_secs(2),
        }
    }
}

/// Admission deadline per submit: how long
/// [`ShardedServer::submit_by_deadline`] keeps retrying
/// backpressure/failover before the request is answered with a (cached,
/// final) admission-failure result.
const SUBMIT_DEADLINE: Duration = Duration::from_millis(500);

/// How long a disconnected client's session (dedup table and
/// undelivered results) is retained awaiting its reconnect. Eviction
/// happens on the first owner turn after that, not by a timer: an idle
/// server keeps the session until something wakes its owner.
const SESSION_RETAIN: Duration = Duration::from_secs(60);

/// One message in the owner's inbox: a connection's protocol event, or
/// control from the [`NetServerHandle`].
enum ConnEvent {
    Opened(u64, SyncSender<Vec<u8>>, Stream),
    Hello(u64, u64),
    Submit(u64, NetSubmit),
    Bye(u64),
    Gone(u64),
    Ctl(Ctl),
}

enum Ctl {
    With(Box<dyn FnOnce(&mut ShardedServer) + Send>),
    Shutdown,
}

/// The owner's inbox as its producers hold it: connection readers, the
/// accept thread and the [`NetServerHandle`]. A send queues the event
/// first and wakes the owner second. The owner drains the inbox after
/// its last read of the results channel in each turn, so whichever read
/// consumes a wake, an inbox drain still to come finds the event queued
/// before it.
#[derive(Clone)]
struct Inbox {
    events: Sender<ConnEvent>,
    wake: Waker,
}

impl Inbox {
    /// Queue `ev` and wake the owner; `false` once the owner is gone.
    fn send(&self, ev: ConnEvent) -> bool {
        let queued = self.events.send(ev).is_ok();
        self.wake.wake();
        queued
    }
}

struct ConnState {
    writer: SyncSender<Vec<u8>>,
    /// The connection's socket, shut down when the owner drops the
    /// connection: that ends its reader (which holds a writer clone for
    /// echo replies, so closing the writer channel alone would not) and
    /// then its writer.
    socket: Stream,
    client: Option<u64>,
}

impl Drop for ConnState {
    fn drop(&mut self) {
        self.socket.shutdown();
    }
}

#[derive(Default)]
struct ClientSess {
    /// tag → encoded Done frame, kept until the client's `acked_below`
    /// watermark passes it. Answering a re-submitted tag from here is
    /// the exactly-once mechanism.
    completed: HashMap<u64, Vec<u8>>,
    /// Tags submitted into the sharded server and not yet retired.
    running: HashMap<u64, ()>,
    conn: Option<u64>,
    last_seen: Option<Instant>,
}

/// Handle to a running [`NetServer`]: the serving address, the owner's
/// inbox, and shutdown.
pub struct NetServerHandle {
    addr: NetAddr,
    inbox: Inbox,
    join: JoinHandle<ShardedReport>,
    stop: Arc<AtomicBool>,
    accept_join: JoinHandle<()>,
}

impl NetServerHandle {
    /// The bound serving address (resolves `tcp:...:0`).
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    /// Run `f` against the owned [`ShardedServer`] on the owner loop
    /// and return its result — the socket-tier equivalent of holding
    /// `&mut ShardedServer` (tests arm crash/hold hooks through this).
    pub fn with_server<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut ShardedServer) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        self.inbox
            .send(ConnEvent::Ctl(Ctl::With(Box::new(move |srv| {
                let _ = tx.send(f(srv));
            }))));
        rx.recv().expect("net server executes control")
    }

    /// Stop accepting, drain every in-flight transaction, shut the
    /// sharded server down, and hand back its report.
    pub fn shutdown(self) -> ShardedReport {
        // The accept loop blocks in `accept`: raise the flag, then wake
        // it with one connection of our own. Should even that connect
        // fail, the thread is left blocked rather than joined.
        self.stop.store(true, Ordering::SeqCst);
        if Stream::connect(&self.addr, Duration::from_secs(1)).is_ok() {
            let _ = self.accept_join.join();
        }
        self.inbox.send(ConnEvent::Ctl(Ctl::Shutdown));
        self.join.join().expect("net server owner loop")
    }
}

/// The DB-host serving loop. See module docs for the thread layout.
pub struct NetServer;

impl NetServer {
    /// Serve on `listener` until [`NetServerHandle::shutdown`].
    ///
    /// Builds the [`ShardedServer`] with `make_srv` and hands it to the
    /// owner thread, from then on the only thread that touches it. This
    /// returns once it is built, and only then starts accepting; arm
    /// test hooks afterwards through [`NetServerHandle::with_server`].
    pub fn serve(
        listener: Listener,
        make_srv: impl FnOnce() -> ShardedServer + Send + 'static,
        cfg: NetServerCfg,
    ) -> NetServerHandle {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let srv = make_srv();
        let (events, inbox_rx) = mpsc::channel::<ConnEvent>();
        let inbox = Inbox {
            events,
            wake: srv.waker(),
        };
        let join = std::thread::Builder::new()
            .name("pyx-net-owner".into())
            .spawn(move || owner_loop(srv, inbox_rx))
            .expect("spawn owner loop");

        let stop = Arc::new(AtomicBool::new(false));
        let accept_join = {
            let (stop, inbox) = (Arc::clone(&stop), inbox.clone());
            std::thread::Builder::new()
                .name("pyx-net-accept".into())
                .spawn(move || accept_loop(listener, stop, inbox, cfg))
                .expect("spawn accept loop")
        };

        NetServerHandle {
            addr,
            inbox,
            join,
            stop,
            accept_join,
        }
    }
}

/// Accept connections, blocked in `accept`, until
/// [`NetServerHandle::shutdown`] raises `stop` and wakes it.
fn accept_loop(listener: Listener, stop: Arc<AtomicBool>, inbox: Inbox, cfg: NetServerCfg) {
    let mut next_conn = 1u64;
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                spawn_conn(next_conn, stream, &inbox, &cfg);
                next_conn += 1;
            }
            // A failed accept (out of descriptors, say) backs off
            // instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection plumbing: a writer thread draining a bounded byte
/// channel (a stalled peer fills it and the connection dies instead of
/// wedging the owner loop), and a reader thread decoding frames and
/// forwarding protocol events to the owner. Echo requests are answered
/// directly on the reader thread — [`SocketEnv`] round trips never wait
/// on the owner loop. Both threads block on their socket until the
/// owner shuts it down (see [`ConnState`]) or the peer closes it.
fn spawn_conn(conn_id: u64, stream: Stream, inbox: &Inbox, cfg: &NetServerCfg) {
    let (Ok(wstream), Ok(socket)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let (wtx, wrx) = mpsc::sync_channel::<Vec<u8>>(256);
    let io_timeout = cfg.io_timeout;
    let _ = std::thread::Builder::new()
        .name(format!("pyx-net-w{conn_id}"))
        .spawn(move || {
            let _ = wstream.set_write_timeout(Some(io_timeout));
            let mut wstream = wstream;
            while let Ok(bytes) = wrx.recv() {
                if wstream
                    .write_all(&bytes)
                    .and_then(|()| wstream.flush())
                    .is_err()
                {
                    break;
                }
            }
            wstream.shutdown();
        });

    if !inbox.send(ConnEvent::Opened(conn_id, wtx.clone(), socket)) {
        return;
    }
    let inbox = inbox.clone();
    let _ = std::thread::Builder::new()
        .name(format!("pyx-net-r{conn_id}"))
        .spawn(move || {
            // No read deadline: peer liveness is the client's problem,
            // and the owner ends this thread by shutting the socket down.
            let Ok(mut conn) = FrameConn::new(stream, io_timeout) else {
                inbox.send(ConnEvent::Gone(conn_id));
                return;
            };
            let _ = conn.stream.set_read_timeout(None);
            let last = loop {
                match conn.recv() {
                    Ok(Recv::Frame(f)) => match frame_event(conn_id, &f, &wtx) {
                        Ok(Some(ev)) => {
                            inbox.send(ev);
                        }
                        Ok(None) => {}
                        Err(last) => break last,
                    },
                    Ok(Recv::Timeout) => {}
                    Ok(Recv::Closed) | Err(_) => break ConnEvent::Gone(conn_id),
                }
            };
            inbox.send(last);
        });
}

/// What one client frame means to its connection's reader: an event to
/// forward, nothing (an echo request it answered on `wtx` itself), or —
/// as `Err` — the connection's last event: a bye, or `Gone` for a frame
/// no client sends.
fn frame_event(
    conn_id: u64,
    f: &Frame,
    wtx: &SyncSender<Vec<u8>>,
) -> Result<Option<ConnEvent>, ConnEvent> {
    let gone = |_| ConnEvent::Gone(conn_id);
    match f.kind {
        FrameKind::Entry => parse_submit(f)
            .map(|sub| Some(ConnEvent::Submit(conn_id, sub)))
            .map_err(gone),
        FrameKind::Transfer => match slot_i64(f, 0).map_err(gone)? {
            OP_HELLO => {
                let client = slot_i64(f, 1).map_err(gone)?;
                Ok(Some(ConnEvent::Hello(conn_id, client as u64)))
            }
            OP_ECHO_REQ => {
                let resp = slot_i64(f, 1).unwrap_or(0).max(0) as usize;
                let reply = pad_frame(control_frame(Side::Db, OP_ECHO_REPLY, 0), resp);
                let sent = wtx.try_send(reply.encode());
                sent.map(|()| None).map_err(|_| ConnEvent::Gone(conn_id))
            }
            OP_BYE => Err(ConnEvent::Bye(conn_id)),
            _ => Err(ConnEvent::Gone(conn_id)),
        },
        // Clients don't send Done frames.
        FrameKind::Return => Err(ConnEvent::Gone(conn_id)),
    }
}

struct Owner {
    srv: ShardedServer,
    conns: HashMap<u64, ConnState>,
    clients: HashMap<u64, ClientSess>,
    /// server tag → (client id, client tag).
    tag_map: HashMap<u64, (u64, u64)>,
    next_tag: u64,
    shutting_down: bool,
}

/// The owner thread, the only one that touches the [`ShardedServer`].
/// It blocks in [`ShardedServer::wait`], which a retirement, a worker's
/// exit and every [`Inbox`] send end at once; the loop has no timer.
/// Each turn retires what the shards finished and then drains the
/// inbox: last, after every read of the results channel, so no wake
/// those reads consume can strand an event (see [`Inbox`]).
fn owner_loop(srv: ShardedServer, inbox: Receiver<ConnEvent>) -> ShardedReport {
    let mut o = Owner {
        srv,
        conns: HashMap::new(),
        clients: HashMap::new(),
        tag_map: HashMap::new(),
        next_tag: 1,
        shutting_down: false,
    };
    loop {
        o.srv.wait();
        // Retire everything the shards finished (including what a
        // waiting admission filed on the ready queue). A worker's death
        // arrives the same way, as its exit report: reading it reaps the
        // worker, heals its shard if configured, and retires what it
        // lost — no one has to drive a failover.
        while let Some(d) = o.srv.try_recv_done() {
            o.route_done(d);
        }
        // Until empty: an admission's backoff in here reads the results
        // channel too, and the wakes it consumes stand for events still
        // ahead in this drain.
        while let Ok(ev) = inbox.try_recv() {
            o.handle_event(ev);
        }
        o.sweep_sessions();
        if o.shutting_down && o.srv.in_flight() == 0 {
            break;
        }
    }
    o.conns.clear(); // shuts every socket down; its threads exit
    let (_rest, report) = o.srv.shutdown();
    report
}

impl Owner {
    fn handle_event(&mut self, ev: ConnEvent) {
        match ev {
            ConnEvent::Opened(id, writer, socket) => {
                self.conns.insert(
                    id,
                    ConnState {
                        writer,
                        socket,
                        client: None,
                    },
                );
            }
            ConnEvent::Hello(id, client_id) => {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.client = Some(client_id);
                    let sess = self.clients.entry(client_id).or_default();
                    sess.conn = Some(id);
                    sess.last_seen = Some(Instant::now());
                    let running = sess.running.len() as i64;
                    let ack = control_frame(Side::Db, OP_HELLO_ACK, running);
                    let _ = self.conns[&id].writer.try_send(ack.encode());
                }
            }
            ConnEvent::Submit(id, sub) => self.handle_submit(id, sub),
            ConnEvent::Ctl(Ctl::With(f)) => f(&mut self.srv),
            ConnEvent::Ctl(Ctl::Shutdown) => self.shutting_down = true,
            ConnEvent::Bye(id) | ConnEvent::Gone(id) => {
                if let Some(c) = self.conns.remove(&id) {
                    if let Some(client_id) = c.client {
                        if let Some(sess) = self.clients.get_mut(&client_id) {
                            if sess.conn == Some(id) {
                                sess.conn = None;
                                sess.last_seen = Some(Instant::now());
                            }
                        }
                    }
                }
            }
        }
    }

    fn handle_submit(&mut self, conn_id: u64, sub: NetSubmit) {
        let Some(client_id) = self.conns.get(&conn_id).and_then(|c| c.client) else {
            // Submit before hello: protocol violation, drop the conn.
            self.handle_event(ConnEvent::Gone(conn_id));
            return;
        };
        let sess = self.clients.entry(client_id).or_default();
        sess.last_seen = Some(Instant::now());
        sess.conn = Some(conn_id);
        // The watermark acknowledges delivery of everything below it;
        // those outcomes can never be asked for again.
        sess.completed.retain(|t, _| *t >= sub.acked_below);
        if let Some(cached) = sess.completed.get(&sub.tag) {
            // Exactly-once: a duplicate of a completed tag is answered
            // from the cache, never re-executed.
            let bytes = cached.clone();
            self.send_to_conn(conn_id, bytes);
            return;
        }
        if sess.running.contains_key(&sub.tag) {
            // Still executing; the rebound conn gets the reply when it
            // retires.
            return;
        }
        let req = TxnRequest {
            entry: sub.entry,
            args: sub.args,
            label: NET_LABEL,
            route: sub.route,
        };
        let server_tag = self.next_tag;
        self.next_tag += 1;
        let deadline = Instant::now() + SUBMIT_DEADLINE;
        let admit = self.srv.submit_by_deadline(req, server_tag, deadline);
        match admit {
            Admit::Started | Admit::Queued { .. } => {
                self.tag_map.insert(server_tag, (client_id, sub.tag));
                self.clients
                    .get_mut(&client_id)
                    .expect("session exists")
                    .running
                    .insert(sub.tag, ());
            }
            Admit::Rejected | Admit::Unavailable => {
                // Loud, final, and cached: the transaction never
                // started, and a duplicate submit gets the same answer.
                let why = match admit {
                    Admit::Rejected => "admission rejected: server overloaded",
                    _ => "admission failed: shard unavailable",
                };
                let d = TxnDone::failed(sub.tag, sub.entry, NET_LABEL, why.to_string());
                let bytes = done_frame(sub.tag, &d).encode();
                self.clients
                    .get_mut(&client_id)
                    .expect("session exists")
                    .completed
                    .insert(sub.tag, bytes.clone());
                self.send_to_conn(conn_id, bytes);
            }
        }
    }

    fn route_done(&mut self, d: TxnDone) {
        let Some((client_id, client_tag)) = self.tag_map.remove(&d.tag) else {
            return; // session evicted; outcome has no one to report to
        };
        let Some(sess) = self.clients.get_mut(&client_id) else {
            return;
        };
        sess.running.remove(&client_tag);
        let bytes = done_frame(client_tag, &d).encode();
        sess.completed.insert(client_tag, bytes.clone());
        if let Some(conn_id) = sess.conn {
            self.send_to_conn(conn_id, bytes);
        }
    }

    fn send_to_conn(&mut self, conn_id: u64, bytes: Vec<u8>) {
        let dead = match self.conns.get(&conn_id) {
            Some(c) => match c.writer.try_send(bytes) {
                Ok(()) => false,
                // Writer backlog full = stalled peer; writer thread gone
                // = already dead. Either way the conn is done for; the
                // result stays cached for the client's re-submit.
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => true,
            },
            None => false,
        };
        if dead {
            self.handle_event(ConnEvent::Gone(conn_id));
        }
    }

    /// Evict sessions whose client has been disconnected longer than
    /// the retention window. Their still-running transactions keep
    /// executing; the outcomes are dropped at `route_done`.
    fn sweep_sessions(&mut self) {
        self.clients.retain(|_, s| {
            s.conn.is_some() || s.last_seen.is_some_and(|t| t.elapsed() <= SESSION_RETAIN)
        });
    }
}

// ---------------------------------------------------------------------
// NetClient — the APP host
// ---------------------------------------------------------------------

#[derive(Clone)]
pub struct NetClientCfg {
    /// Stable client identity across reconnects; the server's dedup
    /// table is keyed by it. Defaults to a process-unique value.
    pub client_id: u64,
    /// Socket read/write deadline.
    pub io_timeout: Duration,
    /// How long an in-flight request may go unanswered before the link
    /// is declared dead and the reconnect cycle starts (covers stalled
    /// peers and silently dropped frames).
    pub request_timeout: Duration,
    /// Consecutive failed connection attempts before in-flight requests
    /// are retired with outcome-unknown errors.
    pub max_reconnects: u32,
    /// Fault injection for the chaos tests; `None` = clean link.
    pub fault: Option<FaultScript>,
}

static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// Deadline of one connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Reconnect backoff start and cap (exponential, [`jittered`]).
const BACKOFF: Duration = Duration::from_micros(50);
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Scale `d` by a deterministic pseudo-random fraction in `[0.5, 1.0)`,
/// advancing the xorshift64* state `rng`. Jitters [`NetClient`]'s
/// reconnect backoff.
fn jittered(rng: &mut u64, d: Duration) -> Duration {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let frac = 0.5 + (r >> 11) as f64 / (1u64 << 54) as f64;
    d.mul_f64(frac)
}

impl Default for NetClientCfg {
    fn default() -> NetClientCfg {
        NetClientCfg {
            client_id: NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed),
            io_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
            max_reconnects: 8,
            fault: None,
        }
    }
}

struct Pending {
    req: TxnRequest,
    first_sent: Instant,
}

/// Partition-tolerant APP-host client. Every submitted tag produces
/// exactly one [`TxnDone`] from [`NetClient::recv_done`]: the real
/// outcome when the network allows, an explicit outcome-unknown error
/// when it does not — never a hang, never a duplicate. Tags must be
/// assigned monotonically increasing per client (they drive the
/// acknowledgement watermark that bounds the server's dedup state).
pub struct NetClient {
    addr: NetAddr,
    cfg: NetClientCfg,
    link: Option<Link>,
    in_flight: HashMap<u64, Pending>,
    ready: VecDeque<TxnDone>,
    /// Everything below this tag has been delivered to the caller.
    acked_floor: u64,
    rng: u64,
    /// Consecutive failed connect attempts (reset by a successful
    /// hello).
    reconnects: u64,
}

impl NetClient {
    /// Connect and identify. Fails only if the *initial* connection
    /// cannot be established within the reconnect budget.
    pub fn connect(addr: &NetAddr, cfg: NetClientCfg) -> io::Result<NetClient> {
        let mut c = NetClient {
            addr: addr.clone(),
            cfg,
            link: None,
            in_flight: HashMap::new(),
            ready: VecDeque::new(),
            acked_floor: 0,
            rng: 0x5EED_5EED_5EED_5EED,
            reconnects: 0,
        };
        c.reconnect()?;
        Ok(c)
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submit one request under a caller-assigned (monotone) tag. The
    /// outcome — success, server-reported error, or outcome-unknown —
    /// always arrives via [`NetClient::recv_done`]; a send failure here
    /// just starts the reconnect machinery early.
    pub fn submit(&mut self, req: TxnRequest, tag: u64) {
        debug_assert!(
            tag >= self.acked_floor && !self.in_flight.contains_key(&tag),
            "tags must be fresh and monotone"
        );
        let frame = submit_frame(tag, self.acked_floor, &req);
        self.in_flight.insert(
            tag,
            Pending {
                req,
                first_sent: Instant::now(),
            },
        );
        let sent = match &mut self.link {
            Some(link) => link.send(&frame).is_ok(),
            None => false,
        };
        if !sent {
            self.teardown();
            // Reconnect re-submits everything in flight, including this
            // tag; total failure retires it outcome-unknown.
            if self.reconnect().is_err() {
                self.retire_unknown();
            }
        }
    }

    /// Wait for the next retirement. Returns `None` when nothing is in
    /// flight. This is where all link supervision happens: receive
    /// deadlines, duplicate suppression, reconnect cycles, and —
    /// after the reconnect budget — outcome-unknown retirement.
    pub fn recv_done(&mut self) -> Option<TxnDone> {
        loop {
            if let Some(d) = self.ready.pop_front() {
                self.note_delivered(d.tag);
                return Some(d);
            }
            if self.in_flight.is_empty() {
                return None;
            }
            if self.link.is_none() && self.reconnect().is_err() {
                self.retire_unknown();
                continue;
            }
            let r = self.link.as_mut().expect("link present").recv();
            match r {
                Ok(Recv::Frame(f)) => self.handle_frame(f),
                Ok(Recv::Timeout) => {
                    // No progress inside the read deadline. If some
                    // request has been waiting past the request
                    // timeout, the link is presumed dead (stalled peer
                    // or blackholed path): tear down and reconnect.
                    let stuck = self
                        .in_flight
                        .values()
                        .any(|p| p.first_sent.elapsed() > self.cfg.request_timeout);
                    if stuck {
                        self.teardown();
                        if self.reconnect().is_err() {
                            self.retire_unknown();
                        }
                    }
                }
                Ok(Recv::Closed) | Err(_) => {
                    self.teardown();
                    if self.reconnect().is_err() {
                        self.retire_unknown();
                    }
                }
            }
        }
    }

    /// Collect every outstanding retirement.
    pub fn drain(&mut self) -> Vec<TxnDone> {
        let mut out = Vec::with_capacity(self.in_flight.len());
        while let Some(d) = self.recv_done() {
            out.push(d);
        }
        out
    }

    /// Graceful goodbye (best effort; the server also survives an
    /// abrupt drop).
    pub fn close(mut self) {
        if let Some(link) = &mut self.link {
            let _ = link.send(&control_frame(Side::App, OP_BYE, 0));
        }
        self.teardown();
    }

    fn handle_frame(&mut self, f: Frame) {
        match f.kind {
            FrameKind::Return => {
                let Ok(nd) = parse_done(&f) else {
                    self.teardown();
                    return;
                };
                let Some(p) = self.in_flight.remove(&nd.tag) else {
                    return; // duplicate reply for a delivered tag
                };
                self.ready.push_back(TxnDone {
                    tag: nd.tag,
                    entry: p.req.entry,
                    label: p.req.label,
                    submitted_ns: nd.submitted_ns,
                    started_ns: nd.started_ns,
                    finished_ns: nd.finished_ns,
                    low_budget: nd.flags & DONE_LOW_BUDGET != 0,
                    rolled_back: nd.flags & DONE_ROLLED_BACK != 0,
                    read_only: nd.flags & DONE_READ_ONLY != 0,
                    restarts: nd.restarts,
                    participants: nd.participants,
                    result: nd.result,
                    error: nd.error,
                });
            }
            FrameKind::Transfer => {} // hello-ack / echo noise
            FrameKind::Entry => {
                // Servers don't send submits; framing is broken.
                self.teardown();
            }
        }
    }

    /// Establish (or re-establish) the link: connect, hello, ack, then
    /// re-submit everything in flight in tag order — the server's dedup
    /// table makes this idempotent. Bounded by `max_reconnects`
    /// *consecutive* failures with jittered exponential backoff.
    fn reconnect(&mut self) -> io::Result<()> {
        let mut backoff = BACKOFF;
        loop {
            match self.try_connect_once() {
                Ok(()) => {
                    self.reconnects = 0;
                    return Ok(());
                }
                Err(e) => {
                    self.reconnects += 1;
                    if self.reconnects > u64::from(self.cfg.max_reconnects) {
                        self.reconnects = 0;
                        return Err(e);
                    }
                    std::thread::sleep(jittered(&mut self.rng, backoff));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    fn try_connect_once(&mut self) -> io::Result<()> {
        if let Some(script) = &self.cfg.fault {
            if script.is_partitioned() {
                return Err(blackout());
            }
        }
        let stream = Stream::connect(&self.addr, CONNECT_TIMEOUT)?;
        let conn = FrameConn::new(stream, self.cfg.io_timeout)?;
        let mut link = Link::new(conn, self.cfg.fault.clone());
        link.send(&control_frame(
            Side::App,
            OP_HELLO,
            self.cfg.client_id as i64,
        ))?;
        // Wait for the ack so a half-open connection can't swallow the
        // re-submits below.
        let deadline = Instant::now() + self.cfg.io_timeout;
        loop {
            match link.recv()? {
                Recv::Frame(f)
                    if f.kind == FrameKind::Transfer && slot_i64(&f, 0) == Ok(OP_HELLO_ACK) =>
                {
                    break;
                }
                Recv::Frame(_) => {} // stale replies from a prior socket
                Recv::Closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "closed during hello",
                    ))
                }
                Recv::Timeout => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "hello timed out"));
                    }
                }
            }
        }
        // Re-submit in flight, oldest tag first. `first_sent` is *not*
        // reset: the request timeout spans the whole outage, so a
        // perpetually flapping link still converges to outcome-unknown.
        let mut tags: Vec<u64> = self.in_flight.keys().copied().collect();
        tags.sort_unstable();
        for t in tags {
            let p = &self.in_flight[&t];
            link.send(&submit_frame(t, self.acked_floor, &p.req))?;
        }
        self.link = Some(link);
        Ok(())
    }

    fn teardown(&mut self) {
        if let Some(link) = self.link.take() {
            link.shutdown();
        }
    }

    /// Retire everything in flight with an explicit outcome-unknown
    /// error — loud, final, and never silently retried into a double
    /// apply.
    fn retire_unknown(&mut self) {
        let mut tags: Vec<u64> = self.in_flight.keys().copied().collect();
        tags.sort_unstable();
        for t in tags {
            let p = self.in_flight.remove(&t).expect("tag in flight");
            self.ready.push_back(TxnDone::failed(
                t,
                p.req.entry,
                p.req.label,
                format!(
                    "connection to {} lost after {} attempts; transaction outcome unknown",
                    self.addr, self.cfg.max_reconnects
                ),
            ));
        }
    }

    fn note_delivered(&mut self, tag: u64) {
        // The floor rises to just past the highest delivered tag once
        // nothing older remains in flight.
        let min_in_flight = self.in_flight.keys().min().copied();
        let candidate = tag + 1;
        self.acked_floor = match min_in_flight {
            Some(m) => self.acked_floor.max(candidate.min(m)),
            None => self.acked_floor.max(candidate),
        };
    }
}

// ---------------------------------------------------------------------
// SocketEnv — measured pricing
// ---------------------------------------------------------------------

/// An [`Env`] that prices network and DB-op events with *measured*
/// socket round trips instead of the simulated latency/bandwidth model:
/// each `net`/`db_op` call ships an echo frame padded to the event's
/// byte size to an echo peer (any [`NetServer`] connection answers echo
/// requests on its reader thread) and advances virtual time by the real
/// elapsed nanoseconds. CPU work is real work on this host, so `cpu`
/// completes immediately. One-way sends are priced at a full
/// request/minimal-ack round trip — an honest upper bound, since
/// one-way latency is unmeasurable without synchronized clocks.
pub struct SocketEnv {
    link: FrameConn,
}

impl SocketEnv {
    pub fn connect(addr: &NetAddr, io_timeout: Duration) -> io::Result<SocketEnv> {
        let stream = Stream::connect(addr, io_timeout)?;
        Ok(SocketEnv {
            link: FrameConn::new(stream, io_timeout)?,
        })
    }

    /// One measured round trip: request padded to `req_bytes`, reply
    /// padded to `resp_bytes`; returns elapsed nanoseconds.
    pub fn round_trip_ns(&mut self, req_bytes: usize, resp_bytes: usize) -> u64 {
        let f = pad_frame(
            control_frame(Side::App, OP_ECHO_REQ, resp_bytes as i64),
            req_bytes,
        );
        let start = Instant::now();
        if self.link.send(&f).is_err() {
            return 0;
        }
        loop {
            match self.link.recv() {
                Ok(Recv::Frame(f))
                    if f.kind == FrameKind::Transfer && slot_i64(&f, 0) == Ok(OP_ECHO_REPLY) =>
                {
                    return start.elapsed().as_nanos() as u64;
                }
                Ok(Recv::Frame(_)) => {}
                Ok(Recv::Timeout) | Ok(Recv::Closed) | Err(_) => {
                    return start.elapsed().as_nanos() as u64;
                }
            }
        }
    }
}

impl Env for SocketEnv {
    fn cpu(&mut self, now: u64, _host: Side, _cost: u64) -> u64 {
        now
    }

    fn net(&mut self, now: u64, _from: Side, _to: Side, bytes: u64) -> u64 {
        now + self.round_trip_ns(bytes as usize, 0)
    }

    fn db_op(
        &mut self,
        now: u64,
        _issued_from: Side,
        db_cpu: u64,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> u64 {
        now + db_cpu + self.round_trip_ns(req_bytes as usize, resp_bytes as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(entry: u32, args: Vec<ArgVal>, route: Option<i64>) -> TxnRequest {
        TxnRequest {
            entry: MethodId(entry),
            args,
            label: "t",
            route,
        }
    }

    #[test]
    fn submit_roundtrips_every_argval_variant() {
        let r = req(
            7,
            vec![
                ArgVal::Int(-3),
                ArgVal::Double(2.5),
                ArgVal::Bool(true),
                ArgVal::Str("wï".into()),
                ArgVal::IntArray(vec![1, 2, 3]),
                ArgVal::DoubleArray(vec![0.5, -0.5]),
            ],
            Some(42),
        );
        let f = submit_frame(9, 4, &r);
        let bytes = f.encode();
        let back = parse_submit(&Frame::decode(&bytes).unwrap()).unwrap();
        assert_eq!(back.tag, 9);
        assert_eq!(back.acked_below, 4);
        assert_eq!(back.entry, MethodId(7));
        assert_eq!(back.route, Some(42));
        assert_eq!(format!("{:?}", back.args), format!("{:?}", r.args));
        // No label travels: a long one does not grow the frame.
        let long = TxnRequest {
            label: "a label far longer than the one above",
            ..r.clone()
        };
        assert_eq!(submit_frame(9, 4, &long).encode().len(), bytes.len());
        // route: None maps to Null and back.
        let r2 = req(1, vec![], None);
        let back2 =
            parse_submit(&Frame::decode(&submit_frame(1, 0, &r2).encode()).unwrap()).unwrap();
        assert_eq!(back2.route, None);
    }

    #[test]
    fn done_roundtrips_flags_error_result() {
        let d = TxnDone {
            tag: 0, // server tag; the wire carries the client tag
            entry: MethodId(3),
            label: "x",
            submitted_ns: 10,
            started_ns: 20,
            finished_ns: 30,
            low_budget: true,
            rolled_back: true,
            read_only: false,
            restarts: 2,
            participants: 3,
            result: Some(Value::Int(77)),
            error: Some("boom".into()),
        };
        let f = done_frame(5, &d);
        let nd = parse_done(&Frame::decode(&f.encode()).unwrap()).unwrap();
        assert_eq!(nd.tag, 5);
        assert_eq!(nd.flags, DONE_ROLLED_BACK | DONE_LOW_BUDGET);
        assert_eq!(nd.restarts, 2);
        assert_eq!(nd.participants, 3);
        assert_eq!(nd.error.as_deref(), Some("boom"));
        assert_eq!(nd.result, Some(Value::Int(77)));
        assert_eq!(
            (nd.submitted_ns, nd.started_ns, nd.finished_ns),
            (10, 20, 30)
        );
        // No error / no result.
        let mut d2 = d;
        d2.error = None;
        d2.result = None;
        d2.rolled_back = false;
        d2.low_budget = false;
        let nd2 = parse_done(&Frame::decode(&done_frame(6, &d2).encode()).unwrap()).unwrap();
        assert_eq!(nd2.error, None);
        assert_eq!(nd2.result, None);
        assert_eq!(nd2.flags, 0);
    }

    #[test]
    fn pad_frame_hits_requested_size_closely() {
        for target in [0usize, 100, 1000, 16 * 1024] {
            let f = pad_frame(control_frame(Side::App, OP_ECHO_REQ, 0), target);
            let len = f.encode().len();
            assert!(len >= target || target < 100, "target {target} → {len}");
            assert!(len <= target + 100, "target {target} → {len}");
        }
    }

    #[test]
    fn fault_script_consumes_in_order_and_survives_sharing() {
        let s = FaultScript::new();
        s.on_send([Fault::Drop, Fault::Duplicate]);
        let s2 = s.clone();
        assert_eq!(s2.next_send(), Fault::Drop);
        assert_eq!(s.next_send(), Fault::Duplicate);
        assert_eq!(s.next_send(), Fault::Deliver); // exhausted
        assert_eq!(s.seen().0, 3);
        s.partition();
        assert!(s2.is_partitioned());
        s2.heal();
        assert!(!s.is_partitioned());
    }

    #[test]
    fn net_addr_parses_and_displays() {
        let t = NetAddr::parse("tcp:127.0.0.1:8080").unwrap();
        assert_eq!(t.to_string(), "tcp:127.0.0.1:8080");
        #[cfg(unix)]
        {
            let u = NetAddr::parse("uds:/tmp/x.sock").unwrap();
            assert_eq!(u.to_string(), "uds:/tmp/x.sock");
        }
        assert!(NetAddr::parse("http://nope").is_err());
    }
}
