//! The execution-block VM (§5.1, §6).
//!
//! A [`Session`] executes one entry-point invocation (= one transaction)
//! over a [`CompiledPartition`]. It is driven by repeatedly calling
//! [`Session::advance`], which yields fine-grained virtual-time events:
//!
//! * [`Advance::Cpu`] — instructions consumed on the current host,
//! * [`Advance::Net`] — a control transfer with its payload (batched heap
//!   sync + dirty stack), to be delayed by the network model,
//! * [`Advance::DbOp`] — a database statement just executed; if issued
//!   from the APP host this is a JDBC-style round trip,
//! * [`Advance::Blocked`] — the transaction waits on a row lock (or on
//!   another thread's answer, for a façade that returns `WouldBlock`),
//! * [`Advance::Deadlocked`] — wait-die victim; the caller restarts the
//!   whole transaction with a fresh session,
//! * [`Advance::Finished`] / [`Advance::Error`].
//!
//! The session never blocks the calling thread and owns no clock: the
//! simulator decides what the events cost.
//!
//! # Dispatch
//!
//! A session runs the partition's pre-compiled
//! [`BytecodeProgram`](pyx_pyxil::BytecodeProgram) as flat register code:
//! constants are pool-index copies, field slots / entry pcs are
//! pre-resolved, frames draw their locals from a session-owned slab
//! (reusable across transactions via [`VmScratch`]), dirty-stack tracking
//! is a per-frame `u64` bitmask merged into the wire frame only at flush
//! time, and CPU accounting is batched per basic-block segment.
//!
//! A partitioned run must compute what the unpartitioned program
//! computes: `tests/differential.rs` and `tests/vm_differential.rs` hold
//! results, printed output, rollbacks, and final engine state to the
//! NIR interpreter (`pyx_profile::Interp`), and check every wire frame
//! round-trips byte for byte.

use crate::cost;
use crate::heap::{DistHeap, SyncKey};
use crate::wire::{Frame as WireFrame, FrameKind, StackSlot};
use pyx_db::{Database, DbError, PreparedId, TxnId};
use pyx_lang::{
    eval_binop, eval_unop, sha1_i64, Builtin, MethodId, Oid, Operand, RowGetKind, RtError, Scalar,
    Value,
};
use pyx_partition::Side;
use pyx_pyxil::bytecode::{Op, Src, DST_ACC, DST_NONE};
use pyx_pyxil::{BInstr, BlockProgram, BytecodeProgram, CompiledPartition};
use std::collections::HashMap;

/// Entry-point argument values (heap-free, so a session can be restarted
/// after a deadlock by rebuilding the arguments).
#[derive(Debug, Clone)]
pub enum ArgVal {
    Int(i64),
    Double(f64),
    Bool(bool),
    Str(String),
    IntArray(Vec<i64>),
    DoubleArray(Vec<f64>),
}

/// One step outcome. See module docs.
#[derive(Debug)]
pub enum Advance {
    Cpu {
        host: Side,
        cost: u64,
    },
    Net {
        from: Side,
        to: Side,
        bytes: u64,
    },
    DbOp {
        issued_from: Side,
        db_cpu: u64,
        req_bytes: u64,
        resp_bytes: u64,
    },
    Blocked {
        txn: TxnId,
    },
    Deadlocked,
    Finished,
    Error(RtError),
}

/// Aggregate statistics for one session.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    pub control_transfers: u64,
    pub bytes_app_to_db: u64,
    pub bytes_db_to_app: u64,
    /// JDBC-style round trips (db statements issued from APP).
    pub db_round_trips: u64,
    /// DB statements executed locally on the DB host.
    pub db_local_calls: u64,
    pub blocks_executed: u64,
    pub instrs_executed: u64,
}

enum State {
    Running,
    /// Entry returned, and its commit waits on other threads (a
    /// cross-shard commit's legs are out): `advance` retries the commit
    /// once the transaction is woken.
    Committing,
    /// Entry returned while control was on the DB: one reply transfer
    /// remains before the invocation completes.
    Returning,
    Finished,
    Deadlocked,
    Failed(RtError),
}

/// One bytecode frame: a window into the session's locals slab plus its
/// dirty-bitmask window. `ret_pc == u32::MAX` marks the entry frame.
#[derive(Debug, Clone, Copy)]
struct BcFrame {
    base: u32,
    len: u32,
    word_base: u32,
    words: u32,
    ret_pc: u32,
    ret_dst: u16,
}

/// Reusable bytecode-VM storage: the locals slab, the frame stack, the
/// per-side dirty bitmasks, and the db-parameter scratch buffer. A
/// dispatcher keeps a pool of these and threads them from retired sessions
/// into new ones, so steady-state transaction execution allocates nothing
/// for frames.
#[derive(Debug, Default)]
pub struct VmScratch {
    locals: Vec<Value>,
    frames: Vec<BcFrame>,
    dirty: [Vec<u64>; 2],
    params: Vec<Scalar>,
}

impl VmScratch {
    fn clear(&mut self) {
        self.locals.clear();
        self.frames.clear();
        self.dirty[0].clear();
        self.dirty[1].clear();
        self.params.clear();
    }
}

/// One transaction's execution over the partitioned program.
pub struct Session<'a> {
    bc: &'a BytecodeProgram,
    pub heap: DistHeap,
    pub loc: Side,
    txn: Option<TxnId>,
    /// Wait-die age of this logical transaction: the id of its first
    /// incarnation, set when the first statement begins the engine
    /// transaction, or inherited from a killed incarnation via
    /// [`Session::set_txn_age`]. Restarts re-begin under this age so the
    /// transaction cannot die forever.
    txn_age: Option<u64>,
    /// Entry fragment is statically read-only (no reachable db write):
    /// the transaction runs as an MVCC snapshot — lock-free, restart-free.
    read_only: bool,
    /// Kill switch for snapshot execution (regression tests and
    /// before/after measurements force the legacy 2PL read path).
    snapshot_reads: bool,
    pending_cpu: u64,
    state: State,
    /// Per-call-site prepared statements, keyed by (block, instr index):
    /// every constant-SQL db call in the program is prepared once, so the
    /// hot loop issues handles, not strings. The value carries the SQL
    /// byte length for the wire model. Shared (`Rc`) so a dispatcher can
    /// prepare a partition once and reuse the table across sessions.
    prepared: PreparedSites,
    pc: u32,
    acc: Value,
    vm: VmScratch,
    /// Cached top-frame slab offsets (mirrors `vm.frames.last()`), so
    /// every register read/write is a direct index.
    fbase: u32,
    fword: u32,
    pub stats: SessionStats,
    pub printed: Vec<String>,
    pub result: Option<Value>,
    pub rolled_back: bool,
    /// The encoded wire frame of the most recent control transfer. Its
    /// length is exactly the `bytes` reported by the matching
    /// [`Advance::Net`]; tests decode it to verify the protocol.
    pub last_frame: Option<Vec<u8>>,
    /// Transactions woken by this session's last commit/abort — the
    /// simulator must reschedule them.
    pub last_woken: Vec<TxnId>,
}

/// How much CPU may accumulate before `advance` yields (scheduling
/// granularity for the simulator).
const CPU_YIELD: u64 = 2_000_000;

/// Shared per-call-site prepared-plan table: (block, instr) → (plan
/// handle, SQL text length). Built once per compiled partition by
/// [`Session::prepare_sites`] and reused across every session running it.
pub type PreparedSites = std::rc::Rc<HashMap<(u32, u32), (PreparedId, u64)>>;

fn side_idx(s: Side) -> usize {
    match s {
        Side::App => 0,
        Side::Db => 1,
    }
}

impl<'a> Session<'a> {
    /// Prepare every constant-SQL db-call site of `bp` once. Statements
    /// are statically known per BlockProgram; repeat prepares of the same
    /// text are deduped inside the engine. Sites whose SQL fails to parse
    /// (or is dynamically computed) fall back to the ad-hoc
    /// `Engine::execute` path, which surfaces errors at execution time
    /// exactly as before.
    pub fn prepare_sites(bp: &BlockProgram, engine: &mut dyn Database) -> PreparedSites {
        let mut prepared = HashMap::new();
        for (bi, block) in bp.blocks.iter().enumerate() {
            for (ii, instr) in block.instrs.iter().enumerate() {
                if let BInstr::Builtin { f, args, .. } = instr {
                    if matches!(f, Builtin::DbQuery | Builtin::DbUpdate) {
                        if let Some(Operand::CStr(sql)) = args.first() {
                            if let Ok(pid) = engine.prepare(sql) {
                                prepared.insert((bi as u32, ii as u32), (pid, sql.len() as u64));
                            }
                        }
                    }
                }
            }
        }
        std::rc::Rc::new(prepared)
    }

    /// Prepare `part`'s db-call sites on `engine` and start a session on
    /// its bytecode.
    pub fn new(
        part: &'a CompiledPartition,
        entry: MethodId,
        args: &[ArgVal],
        engine: &mut dyn Database,
    ) -> Result<Session<'a>, RtError> {
        let sites = Session::prepare_sites(&part.bp, engine);
        Session::with_prepared(part, entry, args, sites, VmScratch::default())
    }

    /// Construct a session around a pre-built prepared-plan table and a
    /// (possibly recycled) frame slab — the dispatcher fast path: no
    /// per-session string hashing, prepares, or frame allocation.
    pub fn with_prepared(
        part: &'a CompiledPartition,
        entry: MethodId,
        args: &[ArgVal],
        prepared: PreparedSites,
        mut vm: VmScratch,
    ) -> Result<Session<'a>, RtError> {
        let prog = &part.il.prog;
        let mut heap = DistHeap::new();
        let m = prog
            .methods
            .get(entry.index())
            .ok_or_else(|| RtError::new(format!("unknown entry method {entry}")))?;
        vm.clear();
        vm.locals.resize(m.locals.len(), Value::Null);
        let mut slot = 0usize;
        if !m.is_static {
            let nf = prog.class(m.class).fields.len();
            vm.locals[0] = Value::Obj(heap.alloc_object(m.class, nf));
            slot = 1;
        }
        if slot + args.len() != m.num_params {
            return Err(RtError::new(format!(
                "entry `{}` expects {} args, got {}",
                m.name,
                m.num_params - slot,
                args.len()
            )));
        }
        for a in args {
            vm.locals[slot] = match a {
                ArgVal::Int(v) => Value::Int(*v),
                ArgVal::Double(v) => Value::Double(*v),
                ArgVal::Bool(v) => Value::Bool(*v),
                ArgVal::Str(s) => Value::Str(s.as_str().into()),
                ArgVal::IntArray(xs) => {
                    Value::Arr(heap.alloc_array_pair(xs.iter().map(|&v| Value::Int(v)).collect()))
                }
                ArgVal::DoubleArray(xs) => Value::Arr(
                    heap.alloc_array_pair(xs.iter().map(|&v| Value::Double(v)).collect()),
                ),
            };
            slot += 1;
        }

        // The invocation payload (receiver + arguments, including array
        // contents) rides the first control transfer off the APP server:
        // the argument slots are marked dirty, and array arguments enqueue
        // a native sync so their contents travel inside the entry frame.
        let len = vm.locals.len();
        let words = len.div_ceil(64);
        vm.dirty[0].resize(words, 0);
        vm.dirty[1].resize(words, 0);
        let first_arg_slot = if m.is_static { 0 } else { 1 };
        for (i, a) in args.iter().enumerate() {
            let s = i + first_arg_slot;
            vm.dirty[side_idx(Side::App)][s / 64] |= 1 << (s % 64);
            if matches!(a, ArgVal::IntArray(_) | ArgVal::DoubleArray(_)) {
                if let Value::Arr(oid) = vm.locals[s] {
                    heap.enqueue(Side::App, SyncKey::Native(oid));
                }
            }
        }
        vm.frames.push(BcFrame {
            base: 0,
            len: len as u32,
            word_base: 0,
            words: words as u32,
            ret_pc: u32::MAX,
            ret_dst: DST_NONE,
        });

        let entry_block = *part
            .bp
            .entry
            .get(&entry)
            .ok_or_else(|| RtError::new("entry method has no compiled blocks"))?;
        Ok(Session {
            bc: &part.bc,
            heap,
            loc: Side::App, // execution starts on the application server
            txn: None,
            txn_age: None,
            read_only: part.bp.entry_read_only(entry),
            snapshot_reads: true,
            pending_cpu: 0,
            state: State::Running,
            prepared,
            pc: part.bc.pc_of(entry_block),
            acc: Value::Null,
            vm,
            fbase: 0,
            fword: 0,
            stats: SessionStats::default(),
            printed: Vec::new(),
            result: None,
            rolled_back: false,
            last_frame: None,
            last_woken: Vec::new(),
        })
    }

    pub fn txn(&self) -> Option<TxnId> {
        self.txn
    }

    /// Wait-die age of this transaction (its first incarnation's id),
    /// available once the first statement has begun the engine
    /// transaction. The dispatcher carries it into the replacement
    /// session after a wait-die restart.
    pub fn txn_age(&self) -> Option<u64> {
        self.txn_age
    }

    /// Inherit the wait-die age of a killed incarnation. Call before the
    /// first `advance`.
    pub fn set_txn_age(&mut self, age: Option<u64>) {
        self.txn_age = age;
    }

    /// Is this invocation a statically read-only entry fragment (and thus
    /// run as an MVCC snapshot transaction)?
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Force read-only entries through the legacy locking read path
    /// instead of MVCC snapshots (differential tests, before/after
    /// benchmarks). Call before the first statement executes.
    pub fn set_snapshot_reads(&mut self, on: bool) {
        self.snapshot_reads = on;
    }

    /// Reclaim the frame slab from a retired (or about to be restarted)
    /// session so the next one allocates nothing. The slab comes back
    /// empty: a pooled slab pins none of its last transaction's values.
    pub fn take_scratch(&mut self) -> VmScratch {
        let mut s = std::mem::take(&mut self.vm);
        s.clear();
        s
    }

    fn fail(&mut self, engine: &mut dyn Database, e: RtError) -> Advance {
        if let Some(t) = self.txn.take() {
            if let Ok((_, woken)) = engine.abort(t) {
                self.last_woken = woken;
            }
        }
        self.state = State::Failed(e.clone());
        Advance::Error(e)
    }

    /// [`Session::fail`] for bytecode ops lowered from an `Assign`: wraps
    /// the error with its source statement as `stmt StmtId(n): …`.
    fn fail_at(&mut self, engine: &mut dyn Database, pc: usize, e: RtError) -> Advance {
        let e = match self.bc.stmt_of[pc] {
            u32::MAX => e,
            id => RtError::new(format!("stmt {:?}: {}", pyx_lang::StmtId(id), e.msg)),
        };
        self.fail(engine, e)
    }

    fn take_cpu(&mut self) -> Option<Advance> {
        if self.pending_cpu > 0 {
            let cost = std::mem::take(&mut self.pending_cpu);
            Some(Advance::Cpu {
                host: self.loc,
                cost,
            })
        } else {
            None
        }
    }

    /// Run until the next virtual-time event.
    pub fn advance(&mut self, engine: &mut dyn Database) -> Advance {
        self.last_woken.clear();
        match &self.state {
            State::Finished => return Advance::Finished,
            State::Deadlocked => return Advance::Deadlocked,
            State::Failed(e) => return Advance::Error(e.clone()),
            State::Committing => return self.commit_entry(engine),
            State::Returning => {
                if let Some(cpu) = self.take_cpu() {
                    return cpu;
                }
                self.state = State::Finished;
                if self.loc == Side::Db {
                    // Ship the reply frame (result + final state) back to
                    // APP.
                    let bytes = match self.flush_transfer(FrameKind::Return, Side::Db) {
                        Ok(b) => b,
                        Err(e) => {
                            self.state = State::Failed(e.clone());
                            return Advance::Error(e);
                        }
                    };
                    self.loc = Side::App;
                    self.stats.control_transfers += 1;
                    self.stats.bytes_db_to_app += bytes;
                    return Advance::Net {
                        from: Side::Db,
                        to: Side::App,
                        bytes,
                    };
                }
                return Advance::Finished;
            }
            State::Running => {}
        }
        self.run_bytecode(engine)
    }

    /// Entry-method return: commit, then hand off to the Returning state
    /// (which ships the reply frame if control sits on the DB host).
    fn finish_entry(&mut self, engine: &mut dyn Database, v: Option<Value>) -> Advance {
        self.result = v;
        self.commit_entry(engine)
    }

    /// Commit the entry's open transaction. A commit that must wait
    /// ([`DbError::WouldBlock`]) parks the session in
    /// [`State::Committing`] until it is woken.
    fn commit_entry(&mut self, engine: &mut dyn Database) -> Advance {
        if let Some(t) = self.txn.take() {
            match engine.commit(t) {
                Ok((c, woken)) => {
                    self.pending_cpu += c;
                    self.last_woken = woken;
                }
                Err(DbError::WouldBlock) => {
                    self.txn = Some(t);
                    self.state = State::Committing;
                    return Advance::Blocked { txn: t };
                }
                // A failed commit (e.g. a durability failure) leaves the
                // transaction open; hand it back so `fail` aborts it and
                // delivers the lock wake-ups.
                Err(e) => {
                    self.txn = Some(t);
                    return self.fail(engine, RtError::new(e.to_string()));
                }
            }
        }
        self.state = State::Returning;
        if let Some(cpu) = self.take_cpu() {
            return cpu;
        }
        // Re-enter via the Returning arm.
        self.advance(engine)
    }

    /// The control-transfer needed at a block whose host differs from the
    /// session's current location. Returns the `Advance` to yield.
    fn transfer_to(&mut self, engine: &mut dyn Database, host: Side) -> Advance {
        let from = self.loc;
        let kind = if self.stats.control_transfers == 0 {
            FrameKind::Entry
        } else {
            FrameKind::Transfer
        };
        match self.flush_transfer(kind, from) {
            Ok(bytes) => {
                self.loc = host;
                self.stats.control_transfers += 1;
                match from {
                    Side::App => self.stats.bytes_app_to_db += bytes,
                    Side::Db => self.stats.bytes_db_to_app += bytes,
                }
                // Serialization CPU charged on the new host's next
                // batch boundary (sender-side simplification).
                self.pending_cpu += cost::serialize_cost(bytes);
                Advance::Net {
                    from,
                    to: host,
                    bytes,
                }
            }
            Err(e) => self.fail(engine, e),
        }
    }

    /// Read a bytecode operand by reference — no `Value` is cloned unless
    /// the consumer needs ownership. Local reads index the cached top
    /// frame's slab window; constant reads index the pool.
    #[inline]
    fn rd_ref<'s>(&'s self, s: Src, consts: &'s [Value]) -> &'s Value {
        match s {
            Src::Reg(r) => &self.vm.locals[self.fbase as usize + r as usize],
            Src::Const(c) => &consts[c as usize],
            Src::Acc => &self.acc,
        }
    }

    /// Owned read (stores and call arguments need the value itself).
    #[inline]
    fn rd(&self, s: Src, consts: &[Value]) -> Value {
        self.rd_ref(s, consts).clone()
    }

    /// Binary-op evaluation shared by `Bin`/`BinBr`/`BinBrCharged`: the
    /// `(Int, Int)` fast path first (bit-for-bit [`eval_binop`] results,
    /// none of its dispatch), falling back to the full evaluator.
    #[inline]
    fn eval_bin(
        &self,
        op: pyx_lang::ast::BinOp,
        a: Src,
        b: Src,
        consts: &[Value],
    ) -> Result<Value, RtError> {
        if let (Value::Int(x), Value::Int(y)) = (self.rd_ref(a, consts), self.rd_ref(b, consts)) {
            if let Some(v) = int_binop_fast(op, *x, *y) {
                return Ok(v);
            }
        }
        eval_binop(op, self.rd_ref(a, consts), self.rd_ref(b, consts))
    }

    /// Write a bytecode destination: real slots update the slab and set
    /// the frame's dirty bit for the current host; the accumulator and the
    /// discard sentinel bypass dirty tracking entirely.
    #[inline]
    fn wr(&mut self, dst: u16, v: Value) {
        match dst {
            DST_NONE => {}
            DST_ACC => self.acc = v,
            r => {
                debug_assert!(
                    (r as u32) < self.vm.frames.last().expect("active frame").len,
                    "register in frame"
                );
                let w = (self.fword + r as u32 / 64) as usize;
                self.vm.dirty[side_idx(self.loc)][w] |= 1 << (r % 64);
                self.vm.locals[(self.fbase + r as u32) as usize] = v;
            }
        }
    }

    /// Charge one basic-block segment's batched CPU and stats. Charged at
    /// segment *entry*: a transaction that hits a runtime error mid-segment
    /// has already been billed for the whole segment (its virtual-time and
    /// instruction books are abandoned with the failed session; a
    /// successful run is billed exactly one charge per instruction).
    #[inline]
    fn charge(&mut self, seg: &pyx_pyxil::bytecode::SegCost) {
        let mut cpu = seg.instrs as u64 * cost::INSTR + seg.syncs as u64 * cost::SYNC;
        if seg.term {
            cpu += cost::TERM;
        }
        if seg.entry {
            cpu += cost::BLOCK_ENTRY;
            self.stats.blocks_executed += 1;
        }
        self.pending_cpu += cpu;
        self.stats.instrs_executed += seg.instrs as u64;
    }

    /// Dispatch flat register code in a tight indexed loop until the next
    /// virtual-time event.
    fn run_bytecode(&mut self, engine: &mut dyn Database) -> Advance {
        // `bc` borrows the program (`'a`), not `self`: ops never need
        // cloning and every arm has full mutable access to the session.
        let bc = self.bc;
        let consts = &bc.consts[..];
        let ops = &bc.ops[..];
        // The program counter lives in a register for the whole dispatch
        // loop; it is synced back to `self.pc` at every yield point.
        let mut pc = self.pc as usize;
        macro_rules! yield_now {
            ($e:expr) => {{
                self.pc = pc as u32;
                return $e;
            }};
        }
        loop {
            match &ops[pc] {
                Op::Enter { host, seg } => {
                    if *host != self.loc {
                        if let Some(cpu) = self.take_cpu() {
                            yield_now!(cpu);
                        }
                        yield_now!(self.transfer_to(engine, *host));
                    }
                    self.charge(seg);
                    pc += 1;
                    if self.pending_cpu >= CPU_YIELD {
                        yield_now!(self.take_cpu().expect("pending cpu"));
                    }
                }
                Op::Cpu { seg } => {
                    self.charge(seg);
                    pc += 1;
                    if self.pending_cpu >= CPU_YIELD {
                        yield_now!(self.take_cpu().expect("pending cpu"));
                    }
                }
                Op::Const { dst, c } => {
                    self.wr(*dst, consts[*c as usize].clone());
                    pc += 1;
                }
                Op::Move { dst, src } => {
                    let v = self.vm.locals[self.fbase as usize + *src as usize].clone();
                    self.wr(*dst, v);
                    pc += 1;
                }
                Op::Un { op, dst, a } => {
                    match eval_unop(*op, self.rd_ref(*a, consts)) {
                        Ok(v) => self.wr(*dst, v),
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    }
                    pc += 1;
                }
                Op::Bin { op, dst, a, b } => {
                    match self.eval_bin(*op, *a, *b, consts) {
                        Ok(v) => self.wr(*dst, v),
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    }
                    pc += 1;
                }
                Op::ReadField { dst, base, slot } => {
                    let r = as_obj(self.rd_ref(*base, consts))
                        .and_then(|oid| self.heap.host(self.loc).field(oid, *slot as usize));
                    match r {
                        Ok(v) => self.wr(*dst, v),
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    }
                    pc += 1;
                }
                Op::WriteField { base, slot, v } => {
                    let val = self.rd(*v, consts);
                    let r = as_obj(self.rd_ref(*base, consts)).and_then(|oid| {
                        self.heap
                            .host_mut(self.loc)
                            .set_field(oid, *slot as usize, val)
                    });
                    if let Err(e) = r {
                        yield_now!(self.fail_at(engine, pc, e));
                    }
                    pc += 1;
                }
                Op::ReadElem { dst, arr, idx } => {
                    let r = as_arr(self.rd_ref(*arr, consts)).and_then(|oid| {
                        let i = as_int(self.rd_ref(*idx, consts))?;
                        self.heap.host(self.loc).elem(oid, i)
                    });
                    match r {
                        Ok(v) => self.wr(*dst, v),
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    }
                    pc += 1;
                }
                Op::WriteElem { arr, idx, v } => {
                    let val = self.rd(*v, consts);
                    let r = as_arr(self.rd_ref(*arr, consts)).and_then(|oid| {
                        let i = as_int(self.rd_ref(*idx, consts))?;
                        self.heap.host_mut(self.loc).set_elem(oid, i, val)
                    });
                    if let Err(e) = r {
                        yield_now!(self.fail_at(engine, pc, e));
                    }
                    pc += 1;
                }
                Op::Len { dst, arr } => {
                    let r = as_arr(self.rd_ref(*arr, consts))
                        .and_then(|oid| self.heap.host(self.loc).array_len(oid));
                    match r {
                        Ok(n) => self.wr(*dst, Value::Int(n)),
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    }
                    pc += 1;
                }
                Op::NewArr { dst, ty, len } => {
                    let n = match as_int(self.rd_ref(*len, consts)) {
                        Ok(n) if n >= 0 => n,
                        Ok(_) => {
                            yield_now!(self.fail_at(
                                engine,
                                pc,
                                RtError::new("negative array length")
                            ))
                        }
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    };
                    let oid = self.heap.alloc_array(&bc.types[*ty as usize], n as usize);
                    self.wr(*dst, Value::Arr(oid));
                    pc += 1;
                }
                Op::NewObj { dst, class, nf } => {
                    let oid = self.heap.alloc_object(*class, *nf as usize);
                    self.wr(*dst, Value::Obj(oid));
                    pc += 1;
                }
                Op::RowGet {
                    dst,
                    row,
                    idx,
                    kind,
                } => {
                    let i = match as_int(self.rd_ref(*idx, consts)) {
                        Ok(i) => i,
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    };
                    let v = match self.rd_ref(*row, consts) {
                        Value::Row(cols) => match cols.get(i as usize) {
                            Some(cell) => Value::from_scalar(cell),
                            None => yield_now!(self.fail_at(
                                engine,
                                pc,
                                RtError::new(format!("row column {i} out of range"))
                            )),
                        },
                        _ => yield_now!(self.fail_at(
                            engine,
                            pc,
                            RtError::new("row getter on a non-row (stale remote data?)"),
                        )),
                    };
                    let v = match (kind, v) {
                        (RowGetKind::Double, Value::Int(x)) => Value::Double(x as f64),
                        (RowGetKind::Int, Value::Double(x)) => Value::Int(x as i64),
                        (_, v) => v,
                    };
                    self.wr(*dst, v);
                    pc += 1;
                }
                Op::SyncField { base, slot } => {
                    if let Value::Obj(oid) = self.rd_ref(*base, consts) {
                        let key = SyncKey::Field(*oid, *slot as u32);
                        self.heap.enqueue(self.loc, key);
                    }
                    pc += 1;
                }
                Op::SyncNative { arr } => {
                    if let Value::Arr(oid) = self.rd_ref(*arr, consts) {
                        let key = SyncKey::Native(*oid);
                        self.heap.enqueue(self.loc, key);
                    }
                    pc += 1;
                }
                Op::Builtin1 { f, dst, a } => {
                    let v = self.rd(*a, consts);
                    match self.exec_builtin1(*f, v) {
                        Ok(out) => {
                            if *dst != DST_NONE {
                                match out {
                                    Some(v) => self.wr(*dst, v),
                                    None => yield_now!(self
                                        .fail(engine, RtError::new("void builtin used as value"),)),
                                }
                            }
                        }
                        Err(e) => yield_now!(self.fail(engine, e)),
                    }
                    pc += 1;
                }
                Op::Rollback => {
                    // Yield accumulated CPU before the round trip so the
                    // simulator sequences it correctly.
                    if let Some(cpu) = self.take_cpu() {
                        yield_now!(cpu);
                    }
                    if let Some(t) = self.txn.take() {
                        match engine.abort(t) {
                            Ok((c, woken)) => {
                                self.pending_cpu += c;
                                self.last_woken = woken;
                            }
                            Err(e) => yield_now!(self.fail(engine, RtError::new(e.to_string()))),
                        }
                    }
                    self.rolled_back = true;
                    pc += 1;
                    yield_now!(Advance::DbOp {
                        issued_from: self.loc,
                        db_cpu: pyx_db::cost::TXN_END,
                        req_bytes: 16,
                        resp_bytes: 16,
                    });
                }
                Op::Db {
                    update,
                    dst,
                    site,
                    sql,
                    params,
                } => {
                    if let Some(cpu) = self.take_cpu() {
                        yield_now!(cpu);
                    }
                    // `exec_db` advances `self.pc` itself on success and
                    // leaves it in place on lock waits (the retry re-runs
                    // this op).
                    self.pc = pc as u32;
                    return self.exec_db(engine, *update, *dst, *site, *sql, params, consts);
                }
                Op::Jump { to } => pc = *to as usize,
                Op::Goto { to, seg } => {
                    // Same-host fused transition: charge the target block's
                    // entry segment and land past its Enter.
                    self.charge(seg);
                    pc = *to as usize;
                    if self.pending_cpu >= CPU_YIELD {
                        yield_now!(self.take_cpu().expect("pending cpu"));
                    }
                }
                Op::Br { cond, t, e } => match self.rd_ref(*cond, consts).truthy() {
                    Ok(c) => pc = if c { *t as usize } else { *e as usize },
                    Err(err) => yield_now!(self.fail(engine, err)),
                },
                Op::BrCharged {
                    cond,
                    t,
                    e,
                    tseg,
                    eseg,
                } => match self.rd_ref(*cond, consts).truthy() {
                    Ok(c) => {
                        let (to, seg) = if c { (*t, tseg) } else { (*e, eseg) };
                        self.charge(seg);
                        pc = to as usize;
                        if self.pending_cpu >= CPU_YIELD {
                            yield_now!(self.take_cpu().expect("pending cpu"));
                        }
                    }
                    Err(err) => yield_now!(self.fail(engine, err)),
                },
                Op::BinBr {
                    op,
                    a,
                    b,
                    dst,
                    t,
                    e,
                } => {
                    // Fused compare→branch: the condition local still gets
                    // its store (and dirty bit) before the branch decides.
                    let v = match self.eval_bin(*op, *a, *b, consts) {
                        Ok(v) => v,
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    };
                    let c = v.truthy();
                    self.wr(*dst, v);
                    match c {
                        Ok(c) => pc = if c { *t as usize } else { *e as usize },
                        Err(err) => yield_now!(self.fail(engine, err)),
                    }
                }
                Op::BinBrCharged {
                    op,
                    a,
                    b,
                    dst,
                    t,
                    e,
                    tseg,
                    eseg,
                } => {
                    // The loop-edge superinstruction: compare, store the
                    // condition local, charge the chosen target block, and
                    // land inside it — one dispatch for four block-level
                    // steps.
                    let v = match self.eval_bin(*op, *a, *b, consts) {
                        Ok(v) => v,
                        Err(e) => yield_now!(self.fail_at(engine, pc, e)),
                    };
                    let c = v.truthy();
                    self.wr(*dst, v);
                    match c {
                        Ok(c) => {
                            let (to, seg) = if c { (*t, tseg) } else { (*e, eseg) };
                            self.charge(seg);
                            pc = to as usize;
                            if self.pending_cpu >= CPU_YIELD {
                                yield_now!(self.take_cpu().expect("pending cpu"));
                            }
                        }
                        Err(err) => yield_now!(self.fail(engine, err)),
                    }
                }
                Op::Call {
                    entry,
                    nlocals,
                    args,
                    dst,
                    ret,
                } => {
                    let nlocals = *nlocals as usize;
                    let base = self.vm.locals.len();
                    self.vm.locals.resize(base + nlocals, Value::Null);
                    for (i, a) in args.iter().enumerate() {
                        // Reads address the caller frame — still the top of
                        // the frame stack until the push below.
                        self.vm.locals[base + i] = self.rd(*a, consts);
                    }
                    let words = nlocals.div_ceil(64);
                    let word_base = self.vm.dirty[0].len();
                    debug_assert_eq!(word_base, self.vm.dirty[1].len());
                    for side in 0..2 {
                        self.vm.dirty[side].resize(word_base + words, 0);
                    }
                    // Arguments are fresh stack state on the current host.
                    let sidx = side_idx(self.loc);
                    for i in 0..args.len() {
                        self.vm.dirty[sidx][word_base + i / 64] |= 1 << (i % 64);
                    }
                    self.vm.frames.push(BcFrame {
                        base: base as u32,
                        len: nlocals as u32,
                        word_base: word_base as u32,
                        words: words as u32,
                        ret_pc: *ret,
                        ret_dst: *dst,
                    });
                    self.fbase = base as u32;
                    self.fword = word_base as u32;
                    pc = *entry as usize;
                }
                Op::Ret { v } => {
                    let v = (*v).map(|s| self.rd(s, consts));
                    let frame = self.vm.frames.pop().expect("frame underflow");
                    self.vm.locals.truncate(frame.base as usize);
                    for side in 0..2 {
                        self.vm.dirty[side].truncate(frame.word_base as usize);
                    }
                    match self.vm.frames.last() {
                        Some(caller) => {
                            self.fbase = caller.base;
                            self.fword = caller.word_base;
                        }
                        None => {
                            self.fbase = 0;
                            self.fword = 0;
                        }
                    }
                    if frame.ret_pc == u32::MAX {
                        yield_now!(self.finish_entry(engine, v));
                    }
                    if frame.ret_dst != DST_NONE {
                        if let Some(v) = v {
                            self.wr(frame.ret_dst, v);
                        }
                    }
                    pc = frame.ret_pc as usize;
                }
            }
        }
    }

    /// Execute one db call: issue the prepared handle for `site` (or the
    /// ad-hoc SQL text), begin the transaction on first use, and price the
    /// round trip for the wire model. The parameter buffer is recycled
    /// across calls.
    #[allow(clippy::too_many_arguments)]
    fn exec_db(
        &mut self,
        engine: &mut dyn Database,
        update: bool,
        dst: u16,
        site: (u32, u32),
        sql: Src,
        params: &[Src],
        consts: &[Value],
    ) -> Advance {
        let mut buf = std::mem::take(&mut self.vm.params);
        buf.clear();
        for p in params {
            match self.rd_ref(*p, consts).to_scalar() {
                Ok(s) => buf.push(s),
                Err(e) => {
                    self.vm.params = buf;
                    return self.fail(engine, e);
                }
            }
        }
        // Constant-SQL sites were prepared at construction: issue the
        // handle, no string in the hot path. Dynamic SQL falls back to
        // the ad-hoc engine path. The wire model still charges the SQL
        // text length — a JDBC-style client ships the statement text.
        let prepared = self.prepared.get(&site).copied();
        let (sql_len, exec) = match prepared {
            Some((pid, sql_len)) => (sql_len, Ok(pid)),
            None => {
                let sql_v = self.rd(sql, consts);
                let Value::Str(s) = sql_v else {
                    self.vm.params = buf;
                    return self.fail(engine, RtError::new("SQL must be a string"));
                };
                (s.len() as u64, Err(s))
            }
        };
        let txn = match self.txn {
            Some(t) => t,
            None => {
                // Read-only entry fragments run as snapshot transactions:
                // lock-free reads that can never block or die.
                let t = if self.read_only && self.snapshot_reads {
                    engine.begin_read_only()
                } else if let Some(age) = self.txn_age {
                    engine.begin_aged(age)
                } else {
                    engine.begin()
                };
                self.txn = Some(t);
                self.txn_age.get_or_insert(t.0);
                t
            }
        };
        let req_bytes: u64 = 16 + sql_len + buf.iter().map(|s| s.wire_size()).sum::<u64>();
        let res = match &exec {
            Ok(pid) => engine.execute_prepared(txn, *pid, &buf),
            Err(sql) => engine.execute(txn, sql, &buf),
        };
        self.vm.params = buf;
        match res {
            Ok(res) => {
                let resp_bytes = res.wire_size();
                let db_cpu = res.cost;
                let out = if update {
                    Value::Int(res.affected as i64)
                } else {
                    Value::Arr(self.heap.alloc_rows_on(self.loc, res.rows))
                };
                if dst != DST_NONE {
                    self.wr(dst, out);
                }
                self.pc += 1;
                if self.loc == Side::App {
                    self.stats.db_round_trips += 1;
                } else {
                    self.stats.db_local_calls += 1;
                }
                Advance::DbOp {
                    issued_from: self.loc,
                    db_cpu,
                    req_bytes,
                    resp_bytes,
                }
            }
            Err(DbError::WouldBlock) => Advance::Blocked { txn },
            Err(DbError::Deadlock) => {
                if let Some(t) = self.txn.take() {
                    if let Ok((_, woken)) = engine.abort(t) {
                        self.last_woken = woken;
                    }
                }
                self.state = State::Deadlocked;
                Advance::Deadlocked
            }
            Err(e) => self.fail(engine, RtError::new(e.to_string())),
        }
    }

    /// Non-db builtin over one already-evaluated argument.
    fn exec_builtin1(&mut self, f: Builtin, v: Value) -> Result<Option<Value>, RtError> {
        match f {
            Builtin::Print => {
                self.printed.push(format!("{v}"));
                Ok(None)
            }
            Builtin::Sha1 => {
                self.pending_cpu += cost::SHA1;
                match v {
                    Value::Int(x) => Ok(Some(Value::Int(sha1_i64(x)))),
                    ref other => Err(RtError::new(format!("sha1 on {other:?}"))),
                }
            }
            Builtin::IntToStr => match v {
                Value::Int(x) => Ok(Some(Value::Str(x.to_string().into()))),
                ref other => Err(RtError::new(format!("intToStr on {other:?}"))),
            },
            Builtin::StrToInt => match &v {
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(|x| Some(Value::Int(x)))
                    .map_err(|_| RtError::new(format!("cannot parse `{s}`"))),
                other => Err(RtError::new(format!("strToInt on {other:?}"))),
            },
            Builtin::ToDouble => match v {
                Value::Int(x) => Ok(Some(Value::Double(x as f64))),
                ref other => Err(RtError::new(format!("toDouble on {other:?}"))),
            },
            Builtin::ToInt => match v {
                Value::Double(x) => Ok(Some(Value::Int(x as i64))),
                Value::Int(x) => Ok(Some(Value::Int(x))),
                ref other => Err(RtError::new(format!("toInt on {other:?}"))),
            },
            Builtin::StrLen => match &v {
                Value::Str(s) => Ok(Some(Value::Int(s.len() as i64))),
                other => Err(RtError::new(format!("strLen on {other:?}"))),
            },
            Builtin::DbQuery | Builtin::DbUpdate | Builtin::Rollback => {
                unreachable!("db calls lower to Op::Db / Op::Rollback")
            }
        }
    }

    /// Build, encode, and "transmit" the wire frame for a control transfer
    /// from `from`: the batched heap sync plus the dirty stack slots (and,
    /// for a [`FrameKind::Return`], the result value). The peer heap is
    /// updated by decoding and replaying the encoded frame — the same
    /// bytes a real two-host deployment would put on the network — and the
    /// returned size is exactly `encode().len()`.
    ///
    /// Dirty slots ship in (depth, slot) order from the per-frame
    /// bitmasks; slots of frames popped since the last transfer died with
    /// their call and ship nothing.
    fn flush_transfer(&mut self, kind: FrameKind, from: Side) -> Result<u64, RtError> {
        let mut frame = WireFrame::new(kind, from);
        frame.sync = self.heap.collect_sync(from)?;
        let idx = side_idx(from);
        for (depth, f) in self.vm.frames.iter().enumerate() {
            for w in 0..f.words as usize {
                let mut bits = self.vm.dirty[idx][f.word_base as usize + w];
                while bits != 0 {
                    let slot = (w * 64) as u32 + bits.trailing_zeros();
                    bits &= bits - 1;
                    if slot < f.len {
                        frame.stack.push(StackSlot {
                            depth: depth as u32,
                            slot,
                            value: self.vm.locals[(f.base + slot) as usize].clone(),
                        });
                    }
                }
            }
        }
        for w in self.vm.dirty[idx].iter_mut() {
            *w = 0;
        }
        if kind == FrameKind::Return {
            frame.result = self.result.clone();
        }
        // Recycle the previous transfer's buffer: one session-owned
        // allocation serves every control transfer (`encode_into` writes
        // header-then-payload into it, byte-identical to `encode`).
        let mut encoded = self.last_frame.take().unwrap_or_default();
        frame.encode_into(&mut encoded);
        // Differential replay: the receiving heap is reconstructed from
        // the decoded bytes, never from the in-memory batch, so any
        // encode/decode drift becomes a wrong answer instead of a silent
        // mis-costing.
        let decoded = WireFrame::decode(&encoded)?;
        // Canonical-bytes comparison (frame equality would reject NaN
        // payloads even though their bits round-trip exactly).
        debug_assert_eq!(decoded.encode(), encoded, "wire frame round-trip drift");
        self.heap.apply_sync(from.peer(), &decoded.sync)?;
        let bytes = encoded.len() as u64;
        self.last_frame = Some(encoded);
        Ok(bytes)
    }
}

/// Fast path for the dominant binop shape: both operands already `Int`.
/// Bit-for-bit the same results as [`eval_binop`] on `(Int, Int)` —
/// including its numeric-promotion comparison through `f64` — with none
/// of its string/bool/promotion dispatch. Returns `None` for operators
/// whose `(Int, Int)` case needs the full path (division by zero checks,
/// logic ops' error shapes).
#[inline]
fn int_binop_fast(op: pyx_lang::ast::BinOp, x: i64, y: i64) -> Option<Value> {
    use pyx_lang::ast::BinOp::*;
    Some(match op {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Lt => Value::Bool((x as f64) < (y as f64)),
        Le => Value::Bool((x as f64) <= (y as f64)),
        Gt => Value::Bool((x as f64) > (y as f64)),
        Ge => Value::Bool((x as f64) >= (y as f64)),
        Eq => Value::Bool((x as f64) == (y as f64)),
        Ne => Value::Bool((x as f64) != (y as f64)),
        _ => return None,
    })
}

fn as_int(v: &Value) -> Result<i64, RtError> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(RtError::new(format!("expected int, got {other:?}"))),
    }
}

fn as_obj(v: &Value) -> Result<Oid, RtError> {
    match v {
        Value::Obj(o) => Ok(*o),
        Value::Null => Err(RtError::new("null dereference")),
        other => Err(RtError::new(format!("expected object, got {other:?}"))),
    }
}

fn as_arr(v: &Value) -> Result<Oid, RtError> {
    match v {
        Value::Arr(o) => Ok(*o),
        Value::Null => Err(RtError::new("null array dereference")),
        other => Err(RtError::new(format!("expected array, got {other:?}"))),
    }
}

/// Drive a session to completion against `engine`, ignoring virtual time —
/// the workhorse for correctness (differential) tests and the in-process
/// "run it now" API. Returns an error on lock waits that never resolve
/// (single-session use cannot block).
pub fn run_to_completion(
    session: &mut Session<'_>,
    engine: &mut dyn Database,
    max_steps: u64,
) -> Result<(), RtError> {
    for _ in 0..max_steps {
        match session.advance(engine) {
            Advance::Finished => return Ok(()),
            Advance::Error(e) => return Err(e),
            Advance::Blocked { .. } => {
                return Err(RtError::new(
                    "single session blocked on a lock (self-conflict?)",
                ))
            }
            Advance::Deadlocked => return Err(RtError::new("unexpected wait-die abort")),
            Advance::Cpu { .. } | Advance::Net { .. } | Advance::DbOp { .. } => {}
        }
    }
    Err(RtError::new("session did not finish within step budget"))
}
