//! # pyx-server — the multi-session dispatch layer (§3.2, §6.3)
//!
//! The paper's runtime is a *server*: many concurrent clients execute
//! partitioned programs whose control transfers ship batched heap syncs
//! between the APP and DB hosts. This crate is that control plane,
//! factored out of the discrete-event simulator so the same scheduler can
//! be driven by a virtual-time pricing shell (`pyx-sim`) or directly as an
//! in-process server (the `serve` example, the `server_throughput` bench).
//!
//! * [`Dispatcher`] owns N concurrent [`pyx_runtime::Session`]s over one
//!   shared [`pyx_db::Engine`]: admission queue with backpressure,
//!   wait-die restart policy, lock-wait wake servicing, per-entry-point
//!   EWMA [`pyx_runtime::LoadMonitor`] partition selection, and
//!   per-partition prepared-plan reuse — all driven through a single
//!   [`Dispatcher::poll`] event-loop API.
//! * [`Env`] is the pluggable clock/transport: the dispatcher asks it when
//!   CPU work, network frames, and database round trips complete.
//!   [`InstantEnv`] answers "now" (an infinitely fast testbed);
//!   `pyx-sim` answers with finite-core CPU pools and a
//!   latency/bandwidth network model.
//! * [`Deployment`] selects what to run: one fixed partition, or dynamic
//!   switching between a high- and a low-budget partition (§6.3).
//!
//! All timestamps are integer nanoseconds; the dispatcher is fully
//! deterministic given a deterministic [`Env`] and workload.
//!
//! # Threading model
//!
//! The single-engine [`Dispatcher`] is strictly single-threaded. The
//! shard-per-core tier ([`shard::ShardedServer`]) runs them in parallel,
//! one OS thread per engine shard and one per read replica:
//!
//! * **`Send` (crosses threads):** loaded [`pyx_db::Engine`] shards —
//!   the `Rc`→`Arc` migration made every piece of engine state (row
//!   images, undo logs, version chains, cached plans, `Scalar` strings)
//!   `Send`, asserted at compile time in `pyx-db` — plus the immutable
//!   [`pyx_pyxil::CompiledPartition`] shared behind an `Arc`, and the
//!   [`TxnRequest`]/[`TxnDone`] message types.
//! * **Thread-local (never crosses):** running [`pyx_runtime::Session`]s
//!   and everything they touch — `Rc`-shared prepared-site tables, heap
//!   state, VM scratch slabs, dispatcher queues. (Runtime string/row
//!   values are `Arc`-backed since the migration, but sessions and their
//!   heaps still never leave their worker thread.)
//!   Each worker owns a full dispatcher, so the per-transaction hot path
//!   is exactly the single-threaded one: no locks, no atomics beyond
//!   `Arc` refcounts already present in engine row handles.
//! * **Cross-shard transactions (2PC, the default):** a request with
//!   `route == None` goes to a *home*, a primary shard thread chosen
//!   round-robin, which runs it on a second dispatcher of its own over a
//!   façade engine. The façade runs the home shard's statements on the
//!   thread's own engine, sends the others to their shards' threads and
//!   parks the session until their answers come back, then runs
//!   prepare/commit across just the shards the transaction touched.
//!   Wait-die ages come from one shared counter, extending wait-die
//!   across shards. A transaction dies with its home; the reap ends the
//!   branches it left on other shards. The private `coord` module is
//!   the only code that decides a cross-shard outcome; see [`shard`]
//!   for the protocol.
//! * **Waiting and deaths:** an idle shard thread blocks on its one
//!   inbox, where submits, other shards' remote ops and their answers
//!   arrive; durable log bytes a replica should tail send it a wake
//!   message. Results come back on one channel, and a thread's exit is
//!   its last message there, sent by a drop guard even when it panics.
//!   Whichever reader of the channel gets the exit reaps the worker and,
//!   if configured, heals its shard on the spot; nothing polls for
//!   liveness. An event loop that also serves other inputs — the socket
//!   server's owner — blocks on the same channel
//!   ([`shard::ShardedServer::wait`]), and each producer of those inputs
//!   sends a [`shard::Waker`]'s wake there after queueing its input. An
//!   idle server wakes no thread on a timer.
//!
//! # Network failure model (socket serving)
//!
//! The [`net`] module puts the dispatcher behind real TCP/UDS sockets:
//! a [`net::NetServer`] DB host serves [`net::NetClient`] APP-host
//! processes over the checksummed `pyx_runtime::wire` frame protocol.
//! The failure model is explicit and total — every fault class either
//! heals transparently or is reported loudly; there is no silent wrong
//! answer and no hung client:
//!
//! * **Corruption** (any flipped byte, truncated frame, or garbage
//!   prefix) is caught by the per-frame FNV-1a checksum / header
//!   validation during streaming reassembly. Framing cannot resync
//!   after corruption, so the connection is torn down and the client
//!   reconnects.
//! * **Loss, duplication, reordering, delay** are absorbed by
//!   client-assigned monotone tags plus a per-client server-side dedup
//!   table: a lost request or reply times out and is re-submitted on a
//!   fresh connection; a duplicate of a *completed* tag is answered
//!   from the cached outcome and **never re-executed** (a retried
//!   commit is applied exactly once); a duplicate of a still-running
//!   tag only rebinds the reply path. The client's `acked_below`
//!   watermark bounds the dedup table's memory.
//! * **Connection death / partition / stalled peer** triggers bounded
//!   reconnect with jittered exponential backoff.
//!   While the partition lasts, requests stay in flight; once it heals,
//!   re-submits converge to exactly-once outcomes. If the reconnect budget is exhausted, every
//!   in-flight request is retired with an explicit
//!   *transaction outcome unknown* error — the network analogue of the
//!   dead-worker retirement in [`shard`] — because a client that
//!   cannot reach the server genuinely cannot know whether its commit
//!   landed.
//! * **Server-side admission failure** (overload, dead shard) is a
//!   final, cached, per-tag outcome: deterministic under re-submit.
//!
//! Faults are injected for tests via [`net::FaultScript`] — scripted
//! drops, delays, duplications, reorders, mid-frame cuts, byte
//! corruption, stalls, and full partitions on a client's link — the
//! network analogue of the WAL's `FaultySink`.

mod coord;
pub mod dispatch;
pub mod env;
pub mod net;
pub mod shard;
pub mod workload;

pub use coord::HoldPoint;
pub use dispatch::{
    Admit, Deployment, DispatchReport, Dispatcher, DispatcherConfig, DispatcherStats, Polled,
    SwitchRecord, TxnDone,
};
pub use env::{Env, InstantEnv};
pub use net::{
    Fault, FaultScript, FrameConn, Listener, NetAddr, NetClient, NetClientCfg, NetServer,
    NetServerCfg, NetServerHandle, SocketEnv, Stream,
};
pub use shard::{
    load_row_sharded, HealFailure, ShardRecovery, ShardedConfig, ShardedReport, ShardedServer,
};
pub use workload::{FixedWorkload, TxnRequest, Workload};
