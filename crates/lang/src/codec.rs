//! The tag-length byte encoding of a [`Scalar`], shared by the WAL's
//! redo records (`pyx-db`) and the control-transfer wire protocol's
//! values (`pyx-runtime`), and the bounds-checked [`Reader`] both decode
//! with. One copy keeps the durable log and the wire from drifting, as
//! [`crate::fnv`] does for their checksum.
//!
//! A scalar is its tag byte, then a little-endian payload: nothing
//! (null), `i64` or `f64` bits (8 bytes), `u8` (bool), or a `u32` length
//! and that many UTF-8 bytes (string). Callers keep their own error
//! type and message prefix: a [`Reader`] reports every failure through
//! the function it was built with.

use crate::value::Scalar;

/// Scalar tags. The wire protocol's value tags extend them upward.
pub const T_NULL: u8 = 0;
pub const T_INT: u8 = 1;
pub const T_DOUBLE: u8 = 2;
pub const T_BOOL: u8 = 3;
pub const T_STR: u8 = 4;

/// Append `s` to `out`.
#[inline]
pub fn encode_scalar(out: &mut Vec<u8>, s: &Scalar) {
    match s {
        Scalar::Null => out.push(T_NULL),
        Scalar::Int(x) => {
            out.push(T_INT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Scalar::Double(x) => {
            out.push(T_DOUBLE);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Scalar::Bool(x) => {
            out.push(T_BOOL);
            out.push(u8::from(*x));
        }
        Scalar::Str(s) => {
            out.push(T_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// A cursor over encoded bytes. Every read is bounds-checked; a failure
/// comes back as the caller's error, built from a message by `err`.
pub struct Reader<'b, E> {
    /// The bytes not read yet.
    pub buf: &'b [u8],
    err: fn(&str) -> E,
}

impl<'b, E> Reader<'b, E> {
    pub fn new(buf: &'b [u8], err: fn(&str) -> E) -> Self {
        Reader { buf, err }
    }

    /// The caller's error for `msg`.
    pub fn error(&self, msg: &str) -> E {
        (self.err)(msg)
    }

    pub fn take(&mut self, n: usize) -> Result<&'b [u8], E> {
        if self.buf.len() < n {
            return Err(self.error("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, E> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, E> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, E> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    /// Decode one scalar.
    pub fn scalar(&mut self) -> Result<Scalar, E> {
        let tag = self.u8()?;
        self.scalar_after(tag)?
            .ok_or_else(|| self.error(&format!("unknown scalar tag {tag}")))
    }

    /// Decode the payload of a scalar whose `tag` was just read. `None`
    /// for a tag that is no scalar's, which a caller with more tags (the
    /// wire protocol's values) goes on to decode itself.
    pub fn scalar_after(&mut self, tag: u8) -> Result<Option<Scalar>, E> {
        Ok(Some(match tag {
            T_NULL => Scalar::Null,
            T_INT => Scalar::Int(self.u64()? as i64),
            T_DOUBLE => Scalar::Double(f64::from_bits(self.u64()?)),
            T_BOOL => Scalar::Bool(self.u8()? != 0),
            T_STR => {
                let n = self.u32()? as usize;
                let bytes = self.take(n)?;
                let s =
                    std::str::from_utf8(bytes).map_err(|_| self.error("invalid UTF-8 string"))?;
                Scalar::Str(s.into())
            }
            _ => return Ok(None),
        }))
    }
}
