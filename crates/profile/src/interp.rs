//! Direct NIR interpreter over a `pyx-db` engine.
//!
//! Used for profiling (with an instrumenting [`Tracer`]), as the oracle in
//! differential tests against the execution-block runtime, and as the
//! "native" baseline of microbenchmark 1.

use crate::heap::Heap;
use pyx_db::{DbError, Engine, PreparedId, TxnId};
use pyx_lang::{
    eval_binop, eval_unop, sha1_i64, Builtin, FieldId, MethodId, NStmt, NStmtKind, NirProgram,
    Operand, Place, RowGetKind, RtError, Rvalue, StmtId, Value,
};
use std::collections::HashMap;

/// Instrumentation hooks — the paper's source instrumentor (§4.1).
pub trait Tracer {
    /// A statement is about to execute.
    fn on_stmt(&mut self, _s: StmtId) {}
    /// A value of `size` bytes was assigned by statement `s`.
    fn on_assign(&mut self, _s: StmtId, _size: u64) {}
    /// A database call at `s` returned `bytes` of result data.
    fn on_db(&mut self, _s: StmtId, _bytes: u64) {}
}

/// No-op tracer (plain execution).
pub struct NullTracer;
impl Tracer for NullTracer {}

/// The interpreter. Owns a heap; borrows the program and database.
pub struct Interp<'a, T: Tracer> {
    pub prog: &'a NirProgram,
    pub db: &'a mut Engine,
    pub heap: Heap,
    pub tracer: T,
    txn: Option<TxnId>,
    fuel: u64,
    /// Captured `print` output.
    pub printed: Vec<String>,
    /// Set when the program called `rollback()` in the current entry call.
    pub rolled_back: bool,
    field_slot: HashMap<FieldId, usize>,
    /// Prepared handle per constant-SQL db-call statement, built once at
    /// construction (statements are statically known per `NirProgram`).
    prepared: HashMap<StmtId, PreparedId>,
}

enum Flow {
    Normal,
    Return(Option<Value>),
}

impl<'a, T: Tracer> Interp<'a, T> {
    pub fn new(prog: &'a NirProgram, db: &'a mut Engine, tracer: T) -> Self {
        let mut field_slot = HashMap::new();
        for c in &prog.classes {
            for (i, &f) in c.fields.iter().enumerate() {
                field_slot.insert(f, i);
            }
        }
        // Prepare each distinct constant-SQL statement once; execution
        // then issues handles instead of strings. Statements that fail to
        // parse fall back to the ad-hoc path so errors still surface at
        // execution time.
        let mut prepared = HashMap::new();
        for m in &prog.methods {
            collect_db_stmts(&m.body, db, &mut prepared);
        }
        Interp {
            prog,
            db,
            heap: Heap::new(),
            tracer,
            txn: None,
            fuel: 200_000_000,
            printed: Vec::new(),
            rolled_back: false,
            field_slot,
            prepared,
        }
    }

    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Invoke an entry-point method inside a fresh transaction; commits on
    /// success (unless the program rolled back), aborts on error.
    pub fn call_entry(
        &mut self,
        method: MethodId,
        mut args: Vec<Value>,
    ) -> Result<Option<Value>, RtError> {
        self.rolled_back = false;
        // Instance entry points get a fresh receiver, like the paper's
        // generated wrappers (Fig. 8) that push the receiver's oid.
        let m = self.prog.method(method);
        if !m.is_static && args.len() + 1 == m.num_params {
            let class = m.class;
            let nf = self.prog.class(class).fields.len();
            let recv = Value::Obj(self.heap.alloc_object(class, nf));
            args.insert(0, recv);
        }
        let r = self.call(method, args);
        match &r {
            Ok(_) => {
                if let Some(t) = self.txn.take() {
                    self.db
                        .commit(t)
                        .map_err(|e| RtError::new(format!("commit failed: {e}")))?;
                }
            }
            Err(_) => {
                if let Some(t) = self.txn.take() {
                    let _ = self.db.abort(t);
                }
            }
        }
        r
    }

    /// Invoke a method without transaction management.
    pub fn call(&mut self, method: MethodId, args: Vec<Value>) -> Result<Option<Value>, RtError> {
        let m = self.prog.method(method);
        if args.len() != m.num_params {
            return Err(RtError::new(format!(
                "method `{}` expects {} args, got {}",
                m.name,
                m.num_params,
                args.len()
            )));
        }
        let mut frame = vec![Value::Null; m.locals.len()];
        frame[..args.len()].clone_from_slice(&args);
        match self.exec_stmts(&m.body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(None),
        }
    }

    /// Allocate a host-constructed array (for building entry-point args).
    pub fn alloc_array(&mut self, elems: Vec<Value>) -> Value {
        Value::Arr(self.heap.alloc_array_of(elems))
    }

    fn exec_stmts(&mut self, stmts: &[NStmt], frame: &mut Vec<Value>) -> Result<Flow, RtError> {
        for s in stmts {
            if let f @ Flow::Return(_) = self.exec_stmt(s, frame)? {
                return Ok(f);
            }
        }
        Ok(Flow::Normal)
    }

    fn burn(&mut self, s: StmtId) -> Result<(), RtError> {
        self.tracer.on_stmt(s);
        if self.fuel == 0 {
            return Err(RtError::new("out of fuel (possible infinite loop)"));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_stmt(&mut self, s: &NStmt, frame: &mut Vec<Value>) -> Result<Flow, RtError> {
        self.burn(s.id)?;
        match &s.kind {
            NStmtKind::Assign { dst, rv } => {
                let v = self.eval_rvalue(rv, frame)?;
                let size = self.heap.size_of_value(&v);
                self.tracer.on_assign(s.id, size);
                self.store(dst, v, frame)?;
                Ok(Flow::Normal)
            }
            NStmtKind::Call { dst, method, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.operand(a, frame)).collect();
                let r = self.call(*method, argv)?;
                if let Some(d) = dst {
                    let v = r.ok_or_else(|| RtError::new("void call used as value"))?;
                    let size = self.heap.size_of_value(&v);
                    self.tracer.on_assign(s.id, size);
                    frame[d.index()] = v;
                }
                Ok(Flow::Normal)
            }
            NStmtKind::Builtin { dst, f, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.operand(a, frame)).collect();
                let r = self.builtin(s.id, *f, argv)?;
                if let Some(d) = dst {
                    let v = r.ok_or_else(|| RtError::new("void builtin used as value"))?;
                    let size = self.heap.size_of_value(&v);
                    self.tracer.on_assign(s.id, size);
                    frame[d.index()] = v;
                }
                Ok(Flow::Normal)
            }
            NStmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                if self.operand(cond, frame).truthy()? {
                    self.exec_stmts(then_b, frame)
                } else {
                    self.exec_stmts(else_b, frame)
                }
            }
            NStmtKind::While {
                cond_pre,
                cond,
                body,
            } => loop {
                if let f @ Flow::Return(_) = self.exec_stmts(cond_pre, frame)? {
                    return Ok(f);
                }
                if !self.operand(cond, frame).truthy()? {
                    return Ok(Flow::Normal);
                }
                if let f @ Flow::Return(_) = self.exec_stmts(body, frame)? {
                    return Ok(f);
                }
            },
            NStmtKind::Return(v) => {
                let val = v.as_ref().map(|o| self.operand(o, frame));
                Ok(Flow::Return(val))
            }
        }
    }

    fn operand(&self, o: &Operand, frame: &[Value]) -> Value {
        match o {
            Operand::Local(l) => frame[l.index()].clone(),
            Operand::CInt(v) => Value::Int(*v),
            Operand::CDouble(v) => Value::Double(*v),
            Operand::CBool(v) => Value::Bool(*v),
            Operand::CStr(s) => Value::Str(s.clone()),
            Operand::Null => Value::Null,
        }
    }

    fn field_slot(&self, f: FieldId) -> usize {
        self.field_slot[&f]
    }

    fn eval_rvalue(&mut self, rv: &Rvalue, frame: &[Value]) -> Result<Value, RtError> {
        match rv {
            Rvalue::Use(o) => Ok(self.operand(o, frame)),
            Rvalue::Unary(op, a) => eval_unop(*op, &self.operand(a, frame)),
            Rvalue::Binary(op, a, b) => {
                eval_binop(*op, &self.operand(a, frame), &self.operand(b, frame))
            }
            Rvalue::ReadField { base, field } => {
                let oid = self.as_obj(&self.operand(base, frame))?;
                self.heap.field(oid, self.field_slot(*field))
            }
            Rvalue::ReadElem { arr, idx } => {
                let oid = self.as_arr(&self.operand(arr, frame))?;
                let i = self.as_int(&self.operand(idx, frame))?;
                self.heap.elem(oid, i)
            }
            Rvalue::Len(a) => {
                let oid = self.as_arr(&self.operand(a, frame))?;
                Ok(Value::Int(self.heap.array_len(oid)?))
            }
            Rvalue::NewArray { elem, len } => {
                let n = self.as_int(&self.operand(len, frame))?;
                if n < 0 {
                    return Err(RtError::new("negative array length"));
                }
                Ok(Value::Arr(self.heap.alloc_array(elem, n as usize)))
            }
            Rvalue::NewObject { class } => {
                let nf = self.prog.class(*class).fields.len();
                Ok(Value::Obj(self.heap.alloc_object(*class, nf)))
            }
            Rvalue::RowGet { row, idx, kind } => {
                let r = self.operand(row, frame);
                let i = self.as_int(&self.operand(idx, frame))?;
                let Value::Row(cols) = r else {
                    return Err(RtError::new("row getter on a non-row"));
                };
                let cell = cols
                    .get(i as usize)
                    .ok_or_else(|| RtError::new(format!("row column {i} out of range")))?;
                let v = Value::from_scalar(cell);
                // Getter-directed coercion, JDBC style.
                Ok(match (kind, v) {
                    (RowGetKind::Double, Value::Int(x)) => Value::Double(x as f64),
                    (RowGetKind::Int, Value::Double(x)) => Value::Int(x as i64),
                    (_, v) => v,
                })
            }
        }
    }

    fn store(&mut self, dst: &Place, v: Value, frame: &mut [Value]) -> Result<(), RtError> {
        match dst {
            Place::Local(l) => {
                frame[l.index()] = v;
                Ok(())
            }
            Place::Field { base, field } => {
                let oid = self.as_obj(&self.operand(base, frame))?;
                self.heap.set_field(oid, self.field_slot(*field), v)
            }
            Place::Elem { arr, idx } => {
                let oid = self.as_arr(&self.operand(arr, frame))?;
                let i = self.as_int(&self.operand(idx, frame))?;
                self.heap.set_elem(oid, i, v)
            }
        }
    }

    fn builtin(
        &mut self,
        stmt: StmtId,
        f: Builtin,
        args: Vec<Value>,
    ) -> Result<Option<Value>, RtError> {
        match f {
            Builtin::DbQuery | Builtin::DbUpdate => {
                let params: Vec<pyx_lang::Scalar> = args[1..]
                    .iter()
                    .map(|v| v.to_scalar())
                    .collect::<Result<_, _>>()?;
                let txn = self.ensure_txn();
                // Constant-SQL statements were prepared at construction;
                // dynamic SQL takes the ad-hoc path.
                let res = match self.prepared.get(&stmt) {
                    Some(&pid) => self.db.execute_prepared(txn, pid, &params),
                    None => {
                        let Value::Str(sql) = &args[0] else {
                            return Err(RtError::new("SQL must be a string"));
                        };
                        self.db.execute(txn, sql, &params)
                    }
                };
                let res = res.map_err(|e| match e {
                    DbError::WouldBlock | DbError::Deadlock => {
                        RtError::new(format!("unexpected lock conflict during profiling: {e}"))
                    }
                    other => RtError::new(other.to_string()),
                })?;
                self.tracer.on_db(stmt, res.wire_size());
                if f == Builtin::DbQuery {
                    Ok(Some(Value::Arr(self.heap.alloc_rows(res.rows))))
                } else {
                    Ok(Some(Value::Int(res.affected as i64)))
                }
            }
            Builtin::Print => {
                self.printed.push(format!("{}", args[0]));
                Ok(None)
            }
            Builtin::Sha1 => {
                let v = self.as_int(&args[0])?;
                Ok(Some(Value::Int(sha1_i64(v))))
            }
            Builtin::Rollback => {
                if let Some(t) = self.txn.take() {
                    self.db
                        .abort(t)
                        .map_err(|e| RtError::new(format!("rollback failed: {e}")))?;
                }
                self.rolled_back = true;
                Ok(None)
            }
            Builtin::IntToStr => {
                let v = self.as_int(&args[0])?;
                Ok(Some(Value::Str(v.to_string().into())))
            }
            Builtin::StrToInt => match &args[0] {
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(|v| Some(Value::Int(v)))
                    .map_err(|_| RtError::new(format!("cannot parse `{s}` as int"))),
                other => Err(RtError::new(format!("strToInt on {other:?}"))),
            },
            Builtin::ToDouble => {
                let v = self.as_int(&args[0])?;
                Ok(Some(Value::Double(v as f64)))
            }
            Builtin::ToInt => match &args[0] {
                Value::Double(d) => Ok(Some(Value::Int(*d as i64))),
                Value::Int(i) => Ok(Some(Value::Int(*i))),
                other => Err(RtError::new(format!("toInt on {other:?}"))),
            },
            Builtin::StrLen => match &args[0] {
                Value::Str(s) => Ok(Some(Value::Int(s.len() as i64))),
                other => Err(RtError::new(format!("strLen on {other:?}"))),
            },
        }
    }

    fn ensure_txn(&mut self) -> TxnId {
        match self.txn {
            Some(t) => t,
            None => {
                let t = self.db.begin();
                self.txn = Some(t);
                t
            }
        }
    }

    fn as_int(&self, v: &Value) -> Result<i64, RtError> {
        match v {
            Value::Int(i) => Ok(*i),
            other => Err(RtError::new(format!("expected int, got {other:?}"))),
        }
    }

    fn as_obj(&self, v: &Value) -> Result<pyx_lang::Oid, RtError> {
        match v {
            Value::Obj(o) => Ok(*o),
            Value::Null => Err(RtError::new("null dereference")),
            other => Err(RtError::new(format!("expected object, got {other:?}"))),
        }
    }

    fn as_arr(&self, v: &Value) -> Result<pyx_lang::Oid, RtError> {
        match v {
            Value::Arr(o) => Ok(*o),
            Value::Null => Err(RtError::new("null array dereference")),
            other => Err(RtError::new(format!("expected array, got {other:?}"))),
        }
    }
}

/// Recursively collect constant-SQL db-call statements and prepare them.
fn collect_db_stmts(stmts: &[NStmt], db: &mut Engine, out: &mut HashMap<StmtId, PreparedId>) {
    for s in stmts {
        match &s.kind {
            NStmtKind::Builtin {
                f: Builtin::DbQuery | Builtin::DbUpdate,
                args,
                ..
            } => {
                if let Some(Operand::CStr(sql)) = args.first() {
                    if let Ok(pid) = db.prepare(sql) {
                        out.insert(s.id, pid);
                    }
                }
            }
            NStmtKind::If { then_b, else_b, .. } => {
                collect_db_stmts(then_b, db, out);
                collect_db_stmts(else_b, db, out);
            }
            NStmtKind::While { cond_pre, body, .. } => {
                collect_db_stmts(cond_pre, db, out);
                collect_db_stmts(body, db, out);
            }
            _ => {}
        }
    }
}
