//! # pyx-runtime — the Pyxis distributed runtime (§6)
//!
//! Executes compiled execution-block programs across two logical hosts —
//! the application server (`APP`) and the database server (`DB`) — with a
//! single thread of control, an explicit managed stack, and a
//! **distributed heap**: every object has an APP part and a DB part, each
//! host reads its own copy, and explicit synchronization operations
//! (batched, piggy-backed on control transfers) keep the copies consistent
//! (§3.2, §6.2).
//!
//! The runtime is virtual-time friendly: [`Session::advance`] never blocks
//! and instead yields fine-grained events (CPU consumed, network transfer,
//! database round trip, lock wait), which the discrete-event simulator in
//! `pyx-sim` schedules against finite-core server models and a network
//! model. Heap reads genuinely go to the executing host's copy, so a
//! missing synchronization op produces a *wrong answer*, not just a wrong
//! cost — the differential tests exploit this.
//!
//! * [`heap`] — the split APP/DB heap with paired allocation and batched
//!   part transfer,
//! * [`session`] — the execution-block VM,
//! * [`cost`] — the virtual CPU cost model of VM execution (the ~6×
//!   interpretation overhead of §7.3 is a consequence of these constants),
//! * [`net`] — latency/bandwidth network model,
//! * [`monitor`] — EWMA load monitoring and dynamic partition switching
//!   (§6.3),
//! * [`wire`] — the control-transfer wire protocol: every transfer is an
//!   encodable [`wire::Frame`] (header + sync batch + dirty stack slots +
//!   optional entry/return payload) whose encoded length *is* the reported
//!   wire size, and the receiving heap is rebuilt by decoding and
//!   replaying the frame. The byte-exact layout is documented in the
//!   [`wire`] module docs.

pub mod cost;
pub mod heap;
pub mod monitor;
pub mod net;
pub mod session;
pub mod wire;

pub use heap::DistHeap;
pub use monitor::{LoadMonitor, MonitorError, PartitionChoice};
pub use net::NetModel;
pub use session::{Advance, ArgVal, PreparedSites, Session, SessionStats, VmScratch};
pub use wire::{Frame, FrameKind, StackSlot, SyncEntry};
