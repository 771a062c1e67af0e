//! Control-transfer wire protocol.
//!
//! A control transfer between the APP and DB runtimes ships one encoded
//! [`Frame`]: the batched heap synchronization entries accumulated since
//! the last transfer (§3.2), the dirty managed-stack slots, and — for the
//! first transfer of an invocation or the final reply — the entry
//! arguments or the return value. The *encoded length of the frame is the
//! wire size*: `Advance::Net { bytes }` reports `encode().len()`, not an
//! estimate, and the receiving heap is reconstructed by decoding and
//! replaying the frame (the differential tests assert the replayed heap
//! matches the sender's view exactly).
//!
//! # Frame layout
//!
//! All integers are little-endian. The header is a fixed 32 bytes:
//!
//! | offset | size | field                                        |
//! |--------|------|----------------------------------------------|
//! | 0      | 4    | magic `b"PYXF"`                              |
//! | 4      | 1    | version (currently `2`)                      |
//! | 5      | 1    | kind: 0 transfer, 1 entry, 2 return          |
//! | 6      | 1    | sender: 0 APP, 1 DB                          |
//! | 7      | 1    | flags: bit 0 = has result value              |
//! | 8      | 4    | number of sync entries                       |
//! | 12     | 4    | number of stack slots                        |
//! | 16     | 8    | payload length in bytes                      |
//! | 24     | 8    | FNV-1a checksum of header[0..24] + payload   |
//!
//! The checksum covers the header prefix as well as the payload (version
//! 2): since FNV-1a's per-byte step is a bijection, *any* single-byte
//! corruption anywhere in the frame is guaranteed to be rejected, not
//! just payload corruption — the decode-robustness suite flips every bit
//! of encoded frames and asserts exactly that.
//!
//! The payload is the sync entries, then the stack slots, then (if flagged)
//! the result value:
//!
//! * **sync entry** — tag byte (`0` field, `1` native array), `u64` oid,
//!   then for a field sync a `u32` slot and one value; for a native sync a
//!   `u32` element count and that many values.
//! * **stack slot** — `u32` frame depth, `u32` slot index, one value.
//! * **value** — tag byte, then: nothing (null), `i64`/`f64` (8 bytes),
//!   `u8` (bool), `u32` length + UTF-8 bytes (string), `u64` oid
//!   (object/array reference — heap parts travel via sync entries, never
//!   inline), or `u32` column count + scalars (database row). The encoded
//!   size of every value equals [`pyx_lang::Value::wire_size`], which keeps
//!   the §4.2 cost model and the wire format in exact agreement.

use pyx_lang::codec::{encode_scalar, Reader};
use pyx_lang::fnv::{fnv1a, fnv1a_cont};
use pyx_lang::{Oid, RtError, Value};
use pyx_partition::Side;
use std::sync::Arc;

use crate::heap::SyncKey;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Header bytes covered by the checksum (everything before the checksum
/// field itself).
const CHECKED_HEADER_LEN: usize = 24;
const MAGIC: [u8; 4] = *b"PYXF";
const VERSION: u8 = 2;

/// Length-bomb guard: the largest payload a decoder will accept. A
/// corrupted or hostile `payload_len` field is rejected from the 32-byte
/// header alone — *before* any payload is buffered or allocated — so a
/// flipped length bit on a socket can cost at most one header read, never
/// an OOM. 64 MiB is ~500× the largest frame any workload in this repo
/// produces; honest senders never get near it.
pub const MAX_PAYLOAD_LEN: usize = 1 << 26;

/// What a frame carries besides the heap/stack payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Mid-invocation control transfer.
    Transfer,
    /// First transfer of an invocation (carries the entry arguments in its
    /// stack slots).
    Entry,
    /// Final reply to the APP server (may carry the result value).
    Return,
}

/// One heap-sync entry: the key plus the value(s) read from the sender's
/// heap copy at flush time.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncEntry {
    /// Ship one field of one object part.
    Field { oid: Oid, slot: u32, value: Value },
    /// Ship the full contents of a native array.
    Native { oid: Oid, elems: Vec<Value> },
}

impl SyncEntry {
    pub fn key(&self) -> SyncKey {
        match self {
            SyncEntry::Field { oid, slot, .. } => SyncKey::Field(*oid, *slot),
            SyncEntry::Native { oid, .. } => SyncKey::Native(*oid),
        }
    }
}

/// One dirty managed-stack slot riding the transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSlot {
    pub depth: u32,
    pub slot: u32,
    pub value: Value,
}

/// A decoded control-transfer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    pub from: Side,
    pub sync: Vec<SyncEntry>,
    pub stack: Vec<StackSlot>,
    pub result: Option<Value>,
}

impl Frame {
    pub fn new(kind: FrameKind, from: Side) -> Frame {
        Frame {
            kind,
            from,
            sync: Vec::new(),
            stack: Vec::new(),
            result: None,
        }
    }

    /// Serialize. The returned buffer's length is the authoritative wire
    /// size of the control transfer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize into a caller-owned buffer (cleared first), producing
    /// bytes identical to [`Frame::encode`] with **zero** allocations
    /// once the buffer is warm: the payload is written directly after a
    /// reserved header window in the same buffer, then the header —
    /// including the checksum over header-prefix + payload — is patched
    /// in place. Sessions reuse one such buffer across every control
    /// transfer of a transaction.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(HEADER_LEN, 0);
        for e in &self.sync {
            match e {
                SyncEntry::Field { oid, slot, value } => {
                    out.push(0u8);
                    out.extend_from_slice(&oid.0.to_le_bytes());
                    out.extend_from_slice(&slot.to_le_bytes());
                    encode_value(out, value);
                }
                SyncEntry::Native { oid, elems } => {
                    out.push(1u8);
                    out.extend_from_slice(&oid.0.to_le_bytes());
                    out.extend_from_slice(&(elems.len() as u32).to_le_bytes());
                    for v in elems {
                        encode_value(out, v);
                    }
                }
            }
        }
        for s in &self.stack {
            out.extend_from_slice(&s.depth.to_le_bytes());
            out.extend_from_slice(&s.slot.to_le_bytes());
            encode_value(out, &s.value);
        }
        if let Some(v) = &self.result {
            encode_value(out, v);
        }
        let payload_len = out.len() - HEADER_LEN;

        out[0..4].copy_from_slice(&MAGIC);
        out[4] = VERSION;
        out[5] = match self.kind {
            FrameKind::Transfer => 0,
            FrameKind::Entry => 1,
            FrameKind::Return => 2,
        };
        out[6] = match self.from {
            Side::App => 0,
            Side::Db => 1,
        };
        out[7] = u8::from(self.result.is_some());
        out[8..12].copy_from_slice(&(self.sync.len() as u32).to_le_bytes());
        out[12..16].copy_from_slice(&(self.stack.len() as u32).to_le_bytes());
        out[16..24].copy_from_slice(&(payload_len as u64).to_le_bytes());
        // Checksum covers the header prefix and the payload, so a bit
        // flip anywhere in the frame is detectable.
        let sum = fnv1a_cont(fnv1a(&out[..CHECKED_HEADER_LEN]), &out[HEADER_LEN..]);
        out[24..32].copy_from_slice(&sum.to_le_bytes());
    }

    /// Deserialize; rejects truncated, oversized, corrupted, or
    /// unknown-version buffers.
    pub fn decode(buf: &[u8]) -> Result<Frame, RtError> {
        let err = |m: &str| RtError::new(format!("wire: {m}"));
        if buf.len() < HEADER_LEN {
            return Err(err("frame shorter than header"));
        }
        if buf[0..4] != MAGIC {
            return Err(err("bad magic"));
        }
        if buf[4] != VERSION {
            return Err(err("unknown version"));
        }
        let kind = match buf[5] {
            0 => FrameKind::Transfer,
            1 => FrameKind::Entry,
            2 => FrameKind::Return,
            _ => return Err(err("unknown frame kind")),
        };
        let from = match buf[6] {
            0 => Side::App,
            1 => Side::Db,
            _ => return Err(err("unknown sender")),
        };
        let has_result = match buf[7] {
            0 => false,
            1 => true,
            _ => return Err(err("bad flags")),
        };
        let n_sync = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        let n_stack = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let payload_len64 = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        if payload_len64 > MAX_PAYLOAD_LEN as u64 {
            return Err(err("payload length exceeds cap"));
        }
        let payload_len = payload_len64 as usize;
        let checksum = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        let payload = &buf[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(err("payload length mismatch"));
        }
        if fnv1a_cont(fnv1a(&buf[..CHECKED_HEADER_LEN]), payload) != checksum {
            return Err(err("checksum mismatch"));
        }

        let mut r = Reader::new(payload, |m| RtError::new(format!("wire: {m}")));
        let mut sync = Vec::with_capacity(n_sync);
        for _ in 0..n_sync {
            let tag = r.u8()?;
            let oid = Oid(r.u64()?);
            match tag {
                0 => {
                    let slot = r.u32()?;
                    let value = decode_value(&mut r)?;
                    sync.push(SyncEntry::Field { oid, slot, value });
                }
                1 => {
                    let n = r.u32()? as usize;
                    let mut elems = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        elems.push(decode_value(&mut r)?);
                    }
                    sync.push(SyncEntry::Native { oid, elems });
                }
                _ => return Err(err("unknown sync tag")),
            }
        }
        let mut stack = Vec::with_capacity(n_stack);
        for _ in 0..n_stack {
            let depth = r.u32()?;
            let slot = r.u32()?;
            let value = decode_value(&mut r)?;
            stack.push(StackSlot { depth, slot, value });
        }
        let result = if has_result {
            Some(decode_value(&mut r)?)
        } else {
            None
        };
        if !r.buf.is_empty() {
            return Err(err("trailing bytes after payload"));
        }
        Ok(Frame {
            kind,
            from,
            sync,
            stack,
            result,
        })
    }
}

/// Validate a frame header's fixed prefix and return the payload length
/// it announces. This is the streaming reader's pre-allocation gate: it
/// needs only the first [`HEADER_LEN`] bytes, checks magic/version and
/// the [`MAX_PAYLOAD_LEN`] length-bomb cap, and never touches (or
/// requires) the payload. Checksum and structural validation still
/// happen in [`Frame::decode`] once the whole frame has arrived.
pub fn frame_payload_len(header: &[u8]) -> Result<usize, RtError> {
    let err = |m: &str| RtError::new(format!("wire: {m}"));
    if header.len() < HEADER_LEN {
        return Err(err("frame header truncated"));
    }
    if header[0..4] != MAGIC {
        return Err(err("bad magic"));
    }
    if header[4] != VERSION {
        return Err(err("unknown version"));
    }
    let payload_len = u64::from_le_bytes(header[16..24].try_into().unwrap());
    if payload_len > MAX_PAYLOAD_LEN as u64 {
        return Err(err("payload length exceeds cap"));
    }
    Ok(payload_len as usize)
}

/// Incremental frame reassembly for byte streams (sockets). Feed it
/// arbitrarily fragmented reads; it yields complete decoded frames in
/// order. The header is validated (magic, version, length cap) as soon
/// as 32 bytes are available, so a corrupt stream fails fast instead of
/// buffering garbage, and the internal buffer never grows past
/// `HEADER_LEN + MAX_PAYLOAD_LEN` plus one read's worth of slack.
///
/// Errors are sticky: a stream that produced a bad header or a frame
/// that failed [`Frame::decode`] has lost framing (there is no
/// resynchronization marker), so every subsequent [`FrameAssembler::next_frame`]
/// returns the same error and the connection must be torn down.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames.
    off: usize,
    poisoned: Option<RtError>,
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Append raw bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim consumed prefix once it dominates the
        // buffer, keeping feed() amortized O(bytes).
        if self.off > 4096 && self.off * 2 > self.buf.len() {
            self.buf.drain(..self.off);
            self.off = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as a frame (diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Try to extract the next complete frame. `Ok(None)` means more
    /// bytes are needed; errors poison the assembler (see type docs).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, RtError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = &self.buf[self.off..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let payload_len = match frame_payload_len(&avail[..HEADER_LEN]) {
            Ok(n) => n,
            Err(e) => {
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        };
        let total = HEADER_LEN + payload_len;
        if avail.len() < total {
            return Ok(None);
        }
        match Frame::decode(&avail[..total]) {
            Ok(f) => {
                self.off += total;
                Ok(Some(f))
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }
}

// Value tags past the scalar ones, which values reuse (a row cell can
// never be a reference or a nested row).
const T_OBJ: u8 = 5;
const T_ARR: u8 = 6;
const T_ROW: u8 = 7;

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Obj(oid) => {
            out.push(T_OBJ);
            out.extend_from_slice(&oid.0.to_le_bytes());
        }
        Value::Arr(oid) => {
            out.push(T_ARR);
            out.extend_from_slice(&oid.0.to_le_bytes());
        }
        Value::Row(cols) => {
            out.push(T_ROW);
            out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
            for c in cols.iter() {
                encode_scalar(out, c);
            }
        }
        scalar => encode_scalar(out, &scalar.to_scalar().expect("a scalar value")),
    }
}

fn decode_value(r: &mut Reader<RtError>) -> Result<Value, RtError> {
    let tag = r.u8()?;
    if let Some(s) = r.scalar_after(tag)? {
        return Ok(Value::from_scalar(&s));
    }
    Ok(match tag {
        T_OBJ => Value::Obj(Oid(r.u64()?)),
        T_ARR => Value::Arr(Oid(r.u64()?)),
        T_ROW => {
            let n = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                cols.push(r.scalar()?);
            }
            Value::Row(Arc::new(cols))
        }
        _ => return Err(r.error("unknown value tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyx_lang::codec::T_NULL;
    use pyx_lang::Scalar;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = f.encode();
        let back = Frame::decode(&bytes).expect("decode");
        assert_eq!(&back, f);
        // Re-encoding is byte-identical (canonical form).
        assert_eq!(back.encode(), bytes);
        back
    }

    #[test]
    fn empty_frame_is_header_only() {
        let f = Frame::new(FrameKind::Transfer, Side::App);
        assert_eq!(f.encode().len(), HEADER_LEN);
        roundtrip(&f);
    }

    #[test]
    fn full_frame_roundtrips() {
        let mut f = Frame::new(FrameKind::Return, Side::Db);
        f.sync.push(SyncEntry::Field {
            oid: Oid(3),
            slot: 1,
            value: Value::Str("héllo".into()),
        });
        f.sync.push(SyncEntry::Native {
            oid: Oid(9),
            elems: vec![
                Value::Int(-1),
                Value::Double(2.5),
                Value::Null,
                Value::Row(Arc::new(vec![Scalar::Bool(true), Scalar::Str("x".into())])),
            ],
        });
        f.stack.push(StackSlot {
            depth: 0,
            slot: 4,
            value: Value::Arr(Oid(9)),
        });
        f.result = Some(Value::Int(42));
        roundtrip(&f);
    }

    #[test]
    fn value_encoding_matches_wire_size_model() {
        let vals = [
            Value::Null,
            Value::Int(7),
            Value::Double(1.5),
            Value::Bool(false),
            Value::Str("abcd".into()),
            Value::Obj(Oid(1)),
            Value::Arr(Oid(2)),
            Value::Row(Arc::new(vec![Scalar::Int(1), Scalar::Str("xy".into())])),
        ];
        for v in vals {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            assert_eq!(buf.len() as u64, v.wire_size(), "{v:?}");
        }
    }

    #[test]
    fn encode_into_is_byte_identical_and_reuses_dirty_buffers() {
        let mut f = Frame::new(FrameKind::Return, Side::Db);
        f.sync.push(SyncEntry::Native {
            oid: Oid(4),
            elems: vec![Value::Int(9), Value::Str("payload".into())],
        });
        f.stack.push(StackSlot {
            depth: 1,
            slot: 2,
            value: Value::Double(2.5),
        });
        f.result = Some(Value::Bool(true));
        // A previously used (larger, garbage-filled) buffer must produce
        // exactly the same bytes as a fresh encode.
        let mut buf = vec![0xAAu8; 512];
        f.encode_into(&mut buf);
        assert_eq!(buf, f.encode());
        // And an empty frame into the same buffer shrinks it correctly.
        let empty = Frame::new(FrameKind::Transfer, Side::App);
        empty.encode_into(&mut buf);
        assert_eq!(buf, empty.encode());
        assert_eq!(buf.len(), HEADER_LEN);
    }

    /// Hand-build a raw frame whose payload is one Native sync entry
    /// padded with nulls to exactly `payload_len` bytes, with a valid
    /// checksum — so cap-boundary behavior is tested on otherwise
    /// well-formed input.
    fn raw_frame_with_payload_len(payload_len: usize) -> Vec<u8> {
        assert!(payload_len >= 13); // tag + oid + count
        let mut buf = vec![0u8; HEADER_LEN];
        buf.push(1u8); // native sync entry
        buf.extend_from_slice(&7u64.to_le_bytes()); // oid
        let nulls = payload_len - 13;
        buf.extend_from_slice(&(nulls as u32).to_le_bytes());
        buf.resize(HEADER_LEN + payload_len, T_NULL);
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4] = VERSION;
        buf[5] = 0; // transfer
        buf[6] = 0; // app
        buf[7] = 0; // no result
        buf[8..12].copy_from_slice(&1u32.to_le_bytes()); // n_sync
        buf[12..16].copy_from_slice(&0u32.to_le_bytes()); // n_stack
        buf[16..24].copy_from_slice(&(payload_len as u64).to_le_bytes());
        let sum = fnv1a_cont(fnv1a(&buf[..CHECKED_HEADER_LEN]), &buf[HEADER_LEN..]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn payload_cap_boundary() {
        // Exactly at the cap: decodes fine.
        let at_cap = raw_frame_with_payload_len(MAX_PAYLOAD_LEN);
        let f = Frame::decode(&at_cap).expect("frame at cap decodes");
        assert_eq!(f.sync.len(), 1);
        // One past the cap: rejected, with the cap error — not a
        // checksum or truncation error — even though the buffer is
        // fully present and self-consistent.
        let mut over = raw_frame_with_payload_len(MAX_PAYLOAD_LEN + 1);
        let e = Frame::decode(&over).unwrap_err();
        assert!(e.msg.contains("cap"), "{e}");
        // The streaming gate rejects it from the header alone.
        let e = frame_payload_len(&over[..HEADER_LEN]).unwrap_err();
        assert!(e.msg.contains("cap"), "{e}");
        // And the assembler refuses before buffering the payload: feed
        // only the header.
        let mut asm = FrameAssembler::new();
        over.truncate(HEADER_LEN);
        asm.feed(&over);
        assert!(asm.next_frame().is_err());
        // Poisoned: the error is sticky.
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn assembler_reassembles_fragmented_stream() {
        let mut f1 = Frame::new(FrameKind::Entry, Side::App);
        f1.stack.push(StackSlot {
            depth: 0,
            slot: 0,
            value: Value::Str("first".into()),
        });
        let mut f2 = Frame::new(FrameKind::Return, Side::Db);
        f2.result = Some(Value::Int(99));
        let f3 = Frame::new(FrameKind::Transfer, Side::App);
        let mut stream = f1.encode();
        stream.extend_from_slice(&f2.encode());
        stream.extend_from_slice(&f3.encode());

        // Byte-at-a-time: every frame comes out whole, in order.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for b in &stream {
            asm.feed(std::slice::from_ref(b));
            while let Some(f) = asm.next_frame().expect("clean stream") {
                out.push(f);
            }
        }
        assert_eq!(out, vec![f1.clone(), f2.clone(), f3.clone()]);
        assert_eq!(asm.pending(), 0);

        // One big feed: same result.
        let mut asm = FrameAssembler::new();
        asm.feed(&stream);
        let mut out2 = Vec::new();
        while let Some(f) = asm.next_frame().expect("clean stream") {
            out2.push(f);
        }
        assert_eq!(out2, out);
    }

    #[test]
    fn assembler_poisons_on_corrupt_stream() {
        let mut f = Frame::new(FrameKind::Transfer, Side::App);
        f.stack.push(StackSlot {
            depth: 0,
            slot: 1,
            value: Value::Int(5),
        });
        let mut bytes = f.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // payload corruption → checksum mismatch
        let mut asm = FrameAssembler::new();
        asm.feed(&bytes);
        assert!(asm.next_frame().is_err());
        // Framing is lost for good: feeding a pristine frame afterwards
        // still errors (the connection must be torn down).
        asm.feed(&f.encode());
        assert!(asm.next_frame().is_err());
        // Bad magic poisons straight from the header.
        let mut asm = FrameAssembler::new();
        let mut b2 = f.encode();
        b2[0] = b'Z';
        asm.feed(&b2[..HEADER_LEN]);
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let mut f = Frame::new(FrameKind::Transfer, Side::App);
        f.sync.push(SyncEntry::Field {
            oid: Oid(0),
            slot: 0,
            value: Value::Int(5),
        });
        let mut bytes = f.encode();
        // Flip a payload bit: checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(Frame::decode(&bytes).is_err());
        // Truncation.
        assert!(Frame::decode(&f.encode()[..HEADER_LEN + 3]).is_err());
        // Bad magic.
        let mut b2 = f.encode();
        b2[0] = b'X';
        assert!(Frame::decode(&b2).is_err());
    }
}
