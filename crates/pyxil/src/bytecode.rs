//! Register-bytecode back end: flatten a [`BlockProgram`] into
//! pre-resolved straight-line code the runtime can dispatch in a tight
//! indexed loop.
//!
//! Walking the block program directly would re-match
//! `BInstr`/`Rvalue`/`Operand` nodes at every step, hash `FieldId`s to
//! find heap slots, look method entries up in a `HashMap`, and
//! materialize constants on each read. This pass pays all of that exactly
//! once, at compile time:
//!
//! * **Register form.** An operand is a [`Src`]: a frame slot index
//!   (`Reg`), a constant-pool index (`Const`), or the VM accumulator
//!   (`Acc`, used only for the rare store-to-heap-of-computed-value
//!   shape). Destinations are plain slot indices. No enum-tree matching
//!   remains on the hot path.
//! * **Constant pool.** Every constant operand is interned into
//!   [`BytecodeProgram::consts`] — `Value`s built once at compile time;
//!   a read is a pool-index copy (for strings, an `Arc` refcount bump).
//!   Doubles are deduplicated by bit pattern so `NaN` constants intern
//!   too.
//! * **Pre-resolved structure.** Field ids become slot offsets, method
//!   entries become program counters (with neutral `Goto` chains already
//!   skipped via [`BlockProgram::resolve`]), callee frame sizes and
//!   object field counts are baked into the `Call`/`NewObj` ops, and
//!   every jump target is a `pc`.
//! * **Fused superinstructions.** The dominant statement shapes observed
//!   by `pyx-profile` on the TPC-C / TPC-W mixes lower to single ops:
//!   load-const→store ([`Op::Const`]), field-read→local
//!   ([`Op::ReadField`]), `RowGet`→store ([`Op::RowGet`]), and
//!   compare→branch ([`Op::BinBr`], which still performs the store so the
//!   condition local and its dirty bit stay observable). Block
//!   transitions whose source and target provably share a host fuse too
//!   ([`Op::Goto`] / [`Op::BrCharged`] / [`Op::BinBrCharged`]): they
//!   charge the target block's entry segment inline and land one op past
//!   its [`Op::Enter`], skipping the statically-dead host check.
//! * **Batched CPU accounting.** Instead of bumping the virtual CPU
//!   counter per step, each basic-block segment (block start → next
//!   db-call or terminator) carries a [`SegCost`]: instruction / sync
//!   counts plus entry/terminator flags. The runtime charges a whole
//!   segment with three multiplies by the runtime's cost constants
//!   (`pyx_runtime::cost`); the compiled program carries only counts.
//!
//! The lowering keeps the block program's semantics: heap operations in
//! statement order, a dirty bit for every stored local (so a wire frame
//! ships exactly the slots written on the sending host), and
//! prepared-statement sites keyed by the db call's `(block, instr)` in
//! the block program. `crates/runtime/tests/differential.rs` and
//! `vm_differential.rs` hold the runtime to what the unpartitioned
//! program computes under the NIR interpreter.

use crate::blocks::{BInstr, Block, BlockId, BlockProgram, Term};
use crate::il::{PyxilProgram, SyncOp};
use pyx_ilp::Side;
use pyx_lang::ast::{BinOp, UnOp};
use pyx_lang::{Builtin, ClassId, FieldId, Operand, Place, RowGetKind, Rvalue, Ty, Value};
use std::collections::HashMap;

/// Destination sentinel: discard the computed value (`dst: None` sites).
pub const DST_NONE: u16 = u16::MAX;
/// Destination sentinel: the VM accumulator (never dirty-tracked, never
/// shipped — scratch for heap stores of computed values).
pub const DST_ACC: u16 = u16::MAX - 1;

/// A pre-resolved operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// Frame slot (local) of the current frame.
    Reg(u16),
    /// Constant-pool index.
    Const(u32),
    /// The accumulator register.
    Acc,
}

/// CPU accounting for one basic-block segment, in *counts* — the runtime
/// multiplies them by its cost constants (`pyx_runtime::cost`) at
/// execution time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegCost {
    /// Countable instructions (assigns + local builtins) in the segment.
    pub instrs: u32,
    /// Sync-enqueue instructions in the segment.
    pub syncs: u32,
    /// Segment ends at the block terminator (charge the term cost).
    pub term: bool,
    /// Segment starts the block (charge block-entry cost, count the block).
    pub entry: bool,
}

/// One bytecode instruction. `dst` fields use [`DST_NONE`] / [`DST_ACC`]
/// sentinels; all jump fields are final program counters.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Block start: control-transfer check against `host`, then batched
    /// CPU/stat accounting for the first segment.
    Enter {
        host: Side,
        seg: SegCost,
    },
    /// Mid-block segment boundary (after a db call): batched accounting.
    Cpu {
        seg: SegCost,
    },
    /// Fused load-const→store.
    Const {
        dst: u16,
        c: u32,
    },
    /// Local-to-local copy.
    Move {
        dst: u16,
        src: u16,
    },
    Un {
        op: UnOp,
        dst: u16,
        a: Src,
    },
    Bin {
        op: BinOp,
        dst: u16,
        a: Src,
        b: Src,
    },
    /// Fused field-read→local (slot pre-resolved).
    ReadField {
        dst: u16,
        base: Src,
        slot: u16,
    },
    WriteField {
        base: Src,
        slot: u16,
        v: Src,
    },
    ReadElem {
        dst: u16,
        arr: Src,
        idx: Src,
    },
    WriteElem {
        arr: Src,
        idx: Src,
        v: Src,
    },
    Len {
        dst: u16,
        arr: Src,
    },
    NewArr {
        dst: u16,
        ty: u16,
        len: Src,
    },
    NewObj {
        dst: u16,
        class: ClassId,
        nf: u16,
    },
    /// Fused row-get→store.
    RowGet {
        dst: u16,
        row: Src,
        idx: Src,
        kind: RowGetKind,
    },
    SyncField {
        base: Src,
        slot: u16,
    },
    SyncNative {
        arr: Src,
    },
    /// Non-db builtin (all take exactly one argument).
    Builtin1 {
        f: Builtin,
        dst: u16,
        a: Src,
    },
    /// Database call. `site` keys the shared prepared-plan table: the
    /// call's `(block id, instruction index)` in the block program.
    Db {
        update: bool,
        dst: u16,
        site: (u32, u32),
        sql: Src,
        params: Box<[Src]>,
    },
    Rollback,
    Jump {
        to: u32,
    },
    /// Fused same-host jump: the target block's entry segment is charged
    /// inline and `to` points *past* the target's [`Op::Enter`] — one
    /// dispatch instead of two, no host check (statically proven
    /// unnecessary because source and target share a host).
    Goto {
        to: u32,
        seg: SegCost,
    },
    Br {
        cond: Src,
        t: u32,
        e: u32,
    },
    /// `Br` with both targets on the source's host: charges the chosen
    /// target's entry segment and skips its `Enter`.
    BrCharged {
        cond: Src,
        t: u32,
        e: u32,
        tseg: SegCost,
        eseg: SegCost,
    },
    /// Fused compare→branch: computes `a op b`, stores it to `dst` (the
    /// condition local stays live and dirty-tracked), then branches.
    BinBr {
        op: BinOp,
        a: Src,
        b: Src,
        dst: u16,
        t: u32,
        e: u32,
    },
    /// `BinBr` with both targets on the source's host (the hot loop-edge
    /// shape: compare, store, charge the next block, land inside it).
    BinBrCharged {
        op: BinOp,
        a: Src,
        b: Src,
        dst: u16,
        t: u32,
        e: u32,
        tseg: SegCost,
        eseg: SegCost,
    },
    /// Call with pre-resolved callee entry pc and frame size.
    Call {
        entry: u32,
        nlocals: u16,
        args: Box<[Src]>,
        dst: u16,
        ret: u32,
    },
    Ret {
        v: Option<Src>,
    },
}

/// A block program lowered to flat register bytecode.
#[derive(Debug)]
pub struct BytecodeProgram {
    pub ops: Vec<Op>,
    /// Interned constants; reads are pool-index copies.
    pub consts: Vec<Value>,
    /// Array element types for `NewArr` (allocation defaults).
    pub types: Vec<Ty>,
    /// Program counter of each block's `Enter` op, indexed by [`BlockId`].
    pub block_pc: Vec<u32>,
    /// Per-op source statement (`u32::MAX` = none), parallel to `ops`.
    /// Used only on error paths, so a failing assign reports its source
    /// statement as `stmt StmtId(n): …`.
    pub stmt_of: Vec<u32>,
}

impl BytecodeProgram {
    /// Entry pc for a session starting at block `entry` (the *unresolved*
    /// entry block: unlike jump and call targets, a session's first block is not
    /// skipped when it is a neutral `Goto`).
    pub fn pc_of(&self, entry: BlockId) -> u32 {
        self.block_pc[entry.index()]
    }

    /// Number of fused compare→branch ops (diagnostics / tests).
    pub fn fused_branches(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::BinBr { .. } | Op::BinBrCharged { .. }))
            .count()
    }
}

/// Lower `bp` into flat register bytecode. Pure function of the compiled
/// partition: compile once, share across every session running it.
pub fn compile_bytecode(il: &PyxilProgram, bp: &BlockProgram) -> BytecodeProgram {
    let mut field_slot: HashMap<FieldId, u16> = HashMap::new();
    for c in &il.prog.classes {
        for (i, &f) in c.fields.iter().enumerate() {
            field_slot.insert(f, i as u16);
        }
    }
    let mut c = Lower {
        il,
        bp,
        field_slot,
        ops: Vec::new(),
        consts: Vec::new(),
        types: Vec::new(),
        block_pc: vec![0; bp.blocks.len()],
        stmt_of: Vec::new(),
    };
    for b in &bp.blocks {
        c.lower_block(b);
    }
    // Fixup pass. Jump fields held block ids during emission; rewrite
    // them to pcs — and fuse same-host block transitions: when a jump's
    // target(s) share the source block's host, the host check at the
    // target's `Enter` is statically dead, so the jump charges the
    // target's entry segment itself and lands one op past the `Enter`.
    let pcs = c.block_pc.clone();
    let enter_seg = |ops: &[Op], pc: u32| -> SegCost {
        match &ops[pc as usize] {
            Op::Enter { seg, .. } => *seg,
            _ => unreachable!("every block starts with Enter"),
        }
    };
    // Blocks were emitted in id order, so block `i` owns ops
    // [block_pc[i], block_pc[i+1]).
    for (bi, block) in bp.blocks.iter().enumerate() {
        let start = pcs[bi] as usize;
        let end = pcs.get(bi + 1).map_or(c.ops.len(), |&p| p as usize);
        let src_host = block.host;
        for i in start..end {
            let host_of = |b: u32| bp.blocks[b as usize].host;
            let new = match &c.ops[i] {
                Op::Jump { to } => {
                    let pc = pcs[*to as usize];
                    if host_of(*to) == src_host {
                        let seg = enter_seg(&c.ops, pc);
                        Some(Op::Goto { to: pc + 1, seg })
                    } else {
                        Some(Op::Jump { to: pc })
                    }
                }
                Op::Br { cond, t, e } => {
                    let (tpc, epc) = (pcs[*t as usize], pcs[*e as usize]);
                    if host_of(*t) == src_host && host_of(*e) == src_host {
                        Some(Op::BrCharged {
                            cond: *cond,
                            t: tpc + 1,
                            e: epc + 1,
                            tseg: enter_seg(&c.ops, tpc),
                            eseg: enter_seg(&c.ops, epc),
                        })
                    } else {
                        Some(Op::Br {
                            cond: *cond,
                            t: tpc,
                            e: epc,
                        })
                    }
                }
                Op::BinBr {
                    op,
                    a,
                    b,
                    dst,
                    t,
                    e,
                } => {
                    let (tpc, epc) = (pcs[*t as usize], pcs[*e as usize]);
                    if host_of(*t) == src_host && host_of(*e) == src_host {
                        Some(Op::BinBrCharged {
                            op: *op,
                            a: *a,
                            b: *b,
                            dst: *dst,
                            t: tpc + 1,
                            e: epc + 1,
                            tseg: enter_seg(&c.ops, tpc),
                            eseg: enter_seg(&c.ops, epc),
                        })
                    } else {
                        Some(Op::BinBr {
                            op: *op,
                            a: *a,
                            b: *b,
                            dst: *dst,
                            t: tpc,
                            e: epc,
                        })
                    }
                }
                _ => None,
            };
            if let Some(new) = new {
                c.ops[i] = new;
            } else if let Op::Call { entry, ret, .. } = &mut c.ops[i] {
                // Call entries and return continuations keep the full
                // `Enter` check: the frames they land in may sit on either
                // host (rets especially — any of the callee's Ret blocks
                // may be the one that runs).
                *entry = pcs[*entry as usize];
                *ret = pcs[*ret as usize];
            }
        }
    }
    debug_assert_eq!(c.stmt_of.len(), c.ops.len());
    BytecodeProgram {
        ops: c.ops,
        consts: c.consts,
        types: c.types,
        block_pc: c.block_pc,
        stmt_of: c.stmt_of,
    }
}

struct Lower<'a> {
    il: &'a PyxilProgram,
    bp: &'a BlockProgram,
    field_slot: HashMap<FieldId, u16>,
    ops: Vec<Op>,
    consts: Vec<Value>,
    types: Vec<Ty>,
    block_pc: Vec<u32>,
    stmt_of: Vec<u32>,
}

/// Constant equality for pool interning: doubles compare by bit pattern
/// so NaNs intern like any other constant.
fn const_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

impl Lower<'_> {
    /// Tag every op emitted since the last pad with `tag` (the source
    /// statement for assigns, `u32::MAX` otherwise).
    fn pad_stmt(&mut self, tag: u32) {
        self.stmt_of.resize(self.ops.len(), tag);
    }

    fn intern(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| const_eq(c, &v)) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn intern_ty(&mut self, t: &Ty) -> u16 {
        if let Some(i) = self.types.iter().position(|x| x == t) {
            return i as u16;
        }
        self.types.push(t.clone());
        (self.types.len() - 1) as u16
    }

    fn src(&mut self, o: &Operand) -> Src {
        match o {
            Operand::Local(l) => Src::Reg(reg(l.0)),
            Operand::CInt(v) => Src::Const(self.intern(Value::Int(*v))),
            Operand::CDouble(v) => Src::Const(self.intern(Value::Double(*v))),
            Operand::CBool(v) => Src::Const(self.intern(Value::Bool(*v))),
            Operand::CStr(s) => Src::Const(self.intern(Value::Str(s.clone()))),
            Operand::Null => Src::Const(self.intern(Value::Null)),
        }
    }

    fn slot(&self, f: &FieldId) -> u16 {
        self.field_slot[f]
    }

    /// Emit `rv` computed into `dst` (a real slot or [`DST_ACC`]).
    fn lower_rvalue(&mut self, dst: u16, rv: &Rvalue) {
        let op = match rv {
            Rvalue::Use(Operand::Local(l)) => Op::Move { dst, src: reg(l.0) },
            Rvalue::Use(o) => {
                let Src::Const(c) = self.src(o) else {
                    unreachable!("non-local operand interns")
                };
                Op::Const { dst, c }
            }
            Rvalue::Unary(uo, a) => Op::Un {
                op: *uo,
                dst,
                a: self.src(a),
            },
            Rvalue::Binary(bo, a, b) => Op::Bin {
                op: *bo,
                dst,
                a: self.src(a),
                b: self.src(b),
            },
            Rvalue::ReadField { base, field } => Op::ReadField {
                dst,
                base: self.src(base),
                slot: self.slot(field),
            },
            Rvalue::ReadElem { arr, idx } => Op::ReadElem {
                dst,
                arr: self.src(arr),
                idx: self.src(idx),
            },
            Rvalue::Len(a) => Op::Len {
                dst,
                arr: self.src(a),
            },
            Rvalue::NewArray { elem, len } => Op::NewArr {
                dst,
                ty: self.intern_ty(elem),
                len: self.src(len),
            },
            Rvalue::NewObject { class } => Op::NewObj {
                dst,
                class: *class,
                nf: self.il.prog.class(*class).fields.len() as u16,
            },
            Rvalue::RowGet { row, idx, kind } => Op::RowGet {
                dst,
                row: self.src(row),
                idx: self.src(idx),
                kind: *kind,
            },
        };
        self.ops.push(op);
    }

    fn lower_block(&mut self, b: &Block) {
        self.block_pc[b.id.index()] = self.ops.len() as u32;
        // Segment accounting: `seg_at` indexes the pending Enter/Cpu
        // placeholder, patched with the final counts when the segment
        // closes (at a db call or the terminator).
        let mut seg_at = self.ops.len();
        self.ops.push(Op::Enter {
            host: b.host,
            seg: SegCost::default(),
        });
        self.pad_stmt(u32::MAX);
        let mut seg = SegCost {
            entry: true,
            ..SegCost::default()
        };
        let patch = |ops: &mut Vec<Op>, at: usize, seg: SegCost| match &mut ops[at] {
            Op::Enter { seg: s, .. } | Op::Cpu { seg: s } => *s = seg,
            _ => unreachable!("segment placeholder"),
        };

        for (ii, instr) in b.instrs.iter().enumerate() {
            match instr {
                BInstr::Assign { dst, rv, stmt } => {
                    seg.instrs += 1;
                    let stmt = stmt.0;
                    match dst {
                        Place::Local(l) => self.lower_rvalue(reg(l.0), rv),
                        Place::Field { base, field } => {
                            let base = self.src(base);
                            let slot = self.slot(field);
                            let v = match rv {
                                // Plain stores skip the accumulator.
                                Rvalue::Use(o) => self.src(o),
                                _ => {
                                    self.lower_rvalue(DST_ACC, rv);
                                    Src::Acc
                                }
                            };
                            self.ops.push(Op::WriteField { base, slot, v });
                        }
                        Place::Elem { arr, idx } => {
                            let arr = self.src(arr);
                            let idx = self.src(idx);
                            let v = match rv {
                                Rvalue::Use(o) => self.src(o),
                                _ => {
                                    self.lower_rvalue(DST_ACC, rv);
                                    Src::Acc
                                }
                            };
                            self.ops.push(Op::WriteElem { arr, idx, v });
                        }
                    }
                    self.pad_stmt(stmt);
                }
                BInstr::Sync(op) => {
                    seg.syncs += 1;
                    let s = match op {
                        SyncOp::SendField { base, field, .. } => Op::SyncField {
                            base: self.src(base),
                            slot: self.slot(field),
                        },
                        SyncOp::SendNative { arr } => Op::SyncNative { arr: self.src(arr) },
                    };
                    self.ops.push(s);
                }
                BInstr::Builtin { dst, f, args, .. } => {
                    if f.is_db_call() {
                        // Close the running segment, emit the db op, open
                        // a fresh segment for whatever follows.
                        patch(&mut self.ops, seg_at, seg);
                        seg = SegCost::default();
                        if *f == Builtin::Rollback {
                            self.ops.push(Op::Rollback);
                        } else {
                            let sql = self.src(&args[0]);
                            let params: Box<[Src]> =
                                args[1..].iter().map(|a| self.src(a)).collect();
                            self.ops.push(Op::Db {
                                update: *f == Builtin::DbUpdate,
                                dst: dst.map_or(DST_NONE, |l| reg(l.0)),
                                site: (b.id.0, ii as u32),
                                sql,
                                params,
                            });
                        }
                        seg_at = self.ops.len();
                        self.ops.push(Op::Cpu {
                            seg: SegCost::default(),
                        });
                    } else {
                        seg.instrs += 1;
                        let a = self.src(&args[0]);
                        self.ops.push(Op::Builtin1 {
                            f: *f,
                            dst: dst.map_or(DST_NONE, |l| reg(l.0)),
                            a,
                        });
                    }
                }
            }
            self.pad_stmt(u32::MAX);
        }

        // Terminator: charge its cost in the closing segment. Jump fields
        // carry *resolved* block ids here; the fixup pass maps them to pcs.
        seg.term = true;
        patch(&mut self.ops, seg_at, seg);
        let resolved = |lower: &Self, id: BlockId| lower.bp.resolve(id).0;
        match &b.term {
            Term::Goto(t) => {
                let to = resolved(self, *t);
                self.ops.push(Op::Jump { to });
            }
            Term::Branch {
                cond,
                then_b,
                else_b,
            } => {
                let t = resolved(self, *then_b);
                let e = resolved(self, *else_b);
                let cond = self.src(cond);
                // Fuse `x = a op b; if (x)` when the branch reads the slot
                // the immediately preceding compare wrote.
                if let (Src::Reg(cr), Some(&Op::Bin { op, dst, a, b })) = (cond, self.ops.last()) {
                    if dst == cr {
                        // The popped Bin's stmt tag stays at this index, so
                        // the fused op's eval errors keep their context.
                        self.ops.pop();
                        self.ops.push(Op::BinBr {
                            op,
                            a,
                            b,
                            dst,
                            t,
                            e,
                        });
                        return;
                    }
                }
                self.ops.push(Op::Br { cond, t, e });
            }
            Term::Call {
                method,
                args,
                dst,
                ret_to,
                ..
            } => {
                let entry = resolved(self, self.bp.entry[method]);
                let ret = resolved(self, *ret_to);
                let nlocals = self.il.prog.method(*method).locals.len();
                assert!(nlocals < DST_ACC as usize, "frame too large for u16 regs");
                let args: Box<[Src]> = args.iter().map(|a| self.src(a)).collect();
                self.ops.push(Op::Call {
                    entry,
                    nlocals: nlocals as u16,
                    args,
                    dst: dst.map_or(DST_NONE, |l| reg(l.0)),
                    ret,
                });
            }
            Term::Ret { value } => {
                let v = value.as_ref().map(|o| self.src(o));
                self.ops.push(Op::Ret { v });
            }
        }
        self.pad_stmt(u32::MAX);
    }
}

fn reg(l: u32) -> u16 {
    assert!(l < DST_ACC as u32, "frame too large for u16 regs");
    l as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_blocks;
    use crate::il::build_pyxil;
    use pyx_analysis::{analyze, AnalysisConfig};
    use pyx_lang::compile;
    use pyx_partition::Placement;

    fn lower(src: &str) -> (PyxilProgram, BlockProgram, BytecodeProgram) {
        let prog = compile(src).unwrap();
        let analysis = analyze(&prog, AnalysisConfig::default());
        let il = build_pyxil(&prog, &analysis, Placement::all_app(&prog), false);
        let bp = compile_blocks(&il);
        let bc = compile_bytecode(&il, &bp);
        (il, bp, bc)
    }

    #[test]
    fn constants_intern_once() {
        let (_, _, bc) = lower(
            r#"class C { int f() { int a = 7; int b = 7; string s = "x"; string t = "x"; return a + b; } }"#,
        );
        let sevens = bc
            .consts
            .iter()
            .filter(|c| matches!(c, Value::Int(7)))
            .count();
        let xs = bc
            .consts
            .iter()
            .filter(|c| matches!(c, Value::Str(s) if &**s == "x"))
            .count();
        assert_eq!(sevens, 1, "duplicate int constant interned");
        assert_eq!(xs, 1, "duplicate string constant interned");
    }

    #[test]
    fn compare_branch_fuses() {
        let (_, _, bc) =
            lower("class C { int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; } }");
        assert!(bc.fused_branches() >= 1, "loop test should fuse");
    }

    #[test]
    fn jumps_resolve_to_pcs() {
        let (_, bp, bc) = lower(
            "class C { int f(bool c) { int x = 0; if (c) { x = 1; } else { x = 2; } return x; } }",
        );
        // Unfused targets land on a block's Enter; charged (same-host
        // fused) targets land exactly one op past one.
        let at_enter = |pc: u32| {
            assert!((pc as usize) < bc.ops.len(), "jump target in range");
            assert!(
                matches!(bc.ops[pc as usize], Op::Enter { .. }),
                "jump target is a block entry"
            );
        };
        let past_enter = |pc: u32| {
            assert!(pc >= 1 && (pc as usize) < bc.ops.len() + 1);
            assert!(
                matches!(bc.ops[pc as usize - 1], Op::Enter { .. }),
                "charged jump target skips exactly the Enter"
            );
        };
        for op in &bc.ops {
            match op {
                Op::Jump { to } => at_enter(*to),
                Op::Goto { to, .. } => past_enter(*to),
                Op::Br { t, e, .. } | Op::BinBr { t, e, .. } => {
                    at_enter(*t);
                    at_enter(*e);
                }
                Op::BrCharged { t, e, .. } | Op::BinBrCharged { t, e, .. } => {
                    past_enter(*t);
                    past_enter(*e);
                }
                Op::Call { entry, ret, .. } => {
                    at_enter(*entry);
                    at_enter(*ret);
                }
                _ => {}
            }
        }
        assert_eq!(bc.block_pc.len(), bp.blocks.len());
    }

    #[test]
    fn same_host_transitions_fuse_and_cross_host_do_not() {
        // Single-host program: every transition fuses (no plain Jump/Br
        // remains except none at all).
        let (_, _, bc) =
            lower("class C { int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; } }");
        assert!(
            !bc.ops
                .iter()
                .any(|o| matches!(o, Op::Jump { .. } | Op::Br { .. } | Op::BinBr { .. })),
            "all same-host transitions charge their target inline"
        );
        assert!(bc
            .ops
            .iter()
            .any(|o| matches!(o, Op::Goto { .. } | Op::BinBrCharged { .. })));

        // Split placement: the cross-host edge must keep the full Enter
        // host check.
        let prog = compile("class C { void f() { int a = 1; int b = 2; } }").unwrap();
        let analysis = analyze(&prog, AnalysisConfig::default());
        let mut placement = Placement::all_app(&prog);
        placement.stmt_side[1] = pyx_ilp::Side::Db;
        let il = build_pyxil(&prog, &analysis, placement, false);
        let bp = compile_blocks(&il);
        let bc = compile_bytecode(&il, &bp);
        assert!(
            bc.ops.iter().any(|o| matches!(o, Op::Jump { .. })),
            "cross-host goto stays unfused"
        );
    }

    #[test]
    fn segment_counts_match_block_shape() {
        let (_, bp, bc) = lower("class C { void f() { int a = 1; int b = 2; } }");
        // Single straight-line block: Enter carries both instrs + term.
        let entry = *bp.entry.values().next().unwrap();
        let pc = bc.pc_of(entry) as usize;
        let Op::Enter { seg, .. } = bc.ops[pc] else {
            panic!("entry op");
        };
        assert_eq!(seg.instrs, 2);
        assert!(seg.term && seg.entry);
    }

    #[test]
    fn db_calls_split_segments_and_keep_site_keys() {
        let (_, bp, bc) = lower(
            r#"class C { int f(int k) {
                row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", k);
                int v = rs[0].getInt(0);
                return v; } }"#,
        );
        let db = bc
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Db { site, update, .. } => Some((*site, *update)),
                _ => None,
            })
            .expect("db op");
        assert!(!db.1, "query, not update");
        // The site key names the db call's (block, instr).
        let (bi, ii) = db.0;
        let block = &bp.blocks[bi as usize];
        assert!(matches!(
            &block.instrs[ii as usize],
            BInstr::Builtin {
                f: Builtin::DbQuery,
                ..
            }
        ));
        // A Cpu segment follows the db call.
        assert!(bc.ops.iter().any(|o| matches!(o, Op::Cpu { .. })));
    }

    #[test]
    fn row_get_and_field_read_fuse_to_single_ops() {
        let (_, _, bc) = lower(
            r#"class O {
                int v;
                int f(int x) { this.v = x; int t = this.v; return t; }
            }"#,
        );
        assert!(bc
            .ops
            .iter()
            .any(|o| matches!(o, Op::ReadField { dst, .. } if *dst != DST_ACC)));
        assert!(bc.ops.iter().any(|o| matches!(o, Op::WriteField { .. })));
    }
}
