//! Normalized intermediate representation (NIR).
//!
//! The paper's instrumentor runs on "normalized source" (Fig. 1): every
//! statement performs at most one call and at most one heap access, with
//! nested expressions flattened into compiler temporaries. All downstream
//! phases operate on this IR:
//!
//! * the profiler interprets it and counts executions per [`StmtId`],
//! * the static analyses build CFGs and dependence graphs over it,
//! * the partitioner assigns an [`crate::ids::StmtId`]-indexed placement,
//! * the PyxIL compiler turns placed NIR into execution blocks.
//!
//! Control flow stays structured (`If` / `While` trees) because the paper's
//! statement-reordering optimization (§4.4) and PyxIL code generation both
//! work on block-structured code.

use crate::ast::{BinOp, UnOp};
use crate::ids::{ClassId, FieldId, LocalId, MethodId, StmtId};
use std::sync::Arc;

/// A lowered, type-checked program.
#[derive(Debug, Clone)]
pub struct NirProgram {
    pub classes: Vec<NirClass>,
    pub methods: Vec<NirMethod>,
    pub fields: Vec<NirField>,
    /// Per-statement metadata, indexed by [`StmtId`].
    pub stmt_info: Vec<StmtInfo>,
}

impl NirProgram {
    pub fn class(&self, id: ClassId) -> &NirClass {
        &self.classes[id.index()]
    }

    pub fn method(&self, id: MethodId) -> &NirMethod {
        &self.methods[id.index()]
    }

    pub fn field(&self, id: FieldId) -> &NirField {
        &self.fields[id.index()]
    }

    pub fn stmt_count(&self) -> usize {
        self.stmt_info.len()
    }

    /// Look up a method by class and name (methods are monomorphic).
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        let c = self.classes.iter().find(|c| c.name == class)?;
        c.methods
            .iter()
            .copied()
            .find(|&m| self.methods[m.index()].name == name)
    }

    /// Walk every statement in the program (depth-first, source order).
    pub fn for_each_stmt<'a>(&'a self, mut f: impl FnMut(MethodId, &'a NStmt)) {
        fn walk<'a>(stmts: &'a [NStmt], m: MethodId, f: &mut impl FnMut(MethodId, &'a NStmt)) {
            for s in stmts {
                f(m, s);
                match &s.kind {
                    NStmtKind::If { then_b, else_b, .. } => {
                        walk(then_b, m, f);
                        walk(else_b, m, f);
                    }
                    NStmtKind::While { cond_pre, body, .. } => {
                        walk(cond_pre, m, f);
                        walk(body, m, f);
                    }
                    _ => {}
                }
            }
        }
        for method in &self.methods {
            walk(&method.body, method.id, &mut f);
        }
    }
}

/// Statement metadata for diagnostics and profiling reports.
#[derive(Debug, Clone)]
pub struct StmtInfo {
    pub method: MethodId,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct NirClass {
    pub id: ClassId,
    pub name: String,
    pub fields: Vec<FieldId>,
    pub methods: Vec<MethodId>,
    pub ctor: Option<MethodId>,
}

#[derive(Debug, Clone)]
pub struct NirField {
    pub id: FieldId,
    pub class: ClassId,
    pub name: String,
    pub ty: Ty,
}

#[derive(Debug, Clone)]
pub struct NirMethod {
    pub id: MethodId,
    pub class: ClassId,
    pub name: String,
    pub is_static: bool,
    pub is_ctor: bool,
    pub ret: Ty,
    /// All frame slots. Slots `0..num_params` are the parameters; slot 0 is
    /// `this` for instance methods.
    pub locals: Vec<LocalDecl>,
    pub num_params: usize,
    pub body: Vec<NStmt>,
}

#[derive(Debug, Clone)]
pub struct LocalDecl {
    pub name: String,
    pub ty: Ty,
}

/// Semantic types after checking.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    Int,
    Double,
    Bool,
    Str,
    /// A database result row.
    Row,
    Void,
    /// Type of the `null` literal; compatible with any reference type.
    Null,
    Class(ClassId),
    Array(Box<Ty>),
}

impl Ty {
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::Double)
    }

    pub fn is_reference(&self) -> bool {
        matches!(
            self,
            Ty::Class(_) | Ty::Array(_) | Ty::Str | Ty::Row | Ty::Null
        )
    }

    /// `other` may be assigned to a slot of type `self`.
    pub fn accepts(&self, other: &Ty) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (Ty::Double, Ty::Int) => true, // implicit widening
            (t, Ty::Null) if t.is_reference() => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Double => write!(f, "double"),
            Ty::Bool => write!(f, "bool"),
            Ty::Str => write!(f, "string"),
            Ty::Row => write!(f, "row"),
            Ty::Void => write!(f, "void"),
            Ty::Null => write!(f, "null"),
            Ty::Class(c) => write!(f, "class#{c}"),
            Ty::Array(e) => write!(f, "{e}[]"),
        }
    }
}

/// A normalized statement. `id` is globally unique — the partition graph has
/// one node per statement id.
#[derive(Debug, Clone)]
pub struct NStmt {
    pub id: StmtId,
    pub kind: NStmtKind,
}

#[derive(Debug, Clone)]
pub enum NStmtKind {
    /// `dst = rv` where `rv` is a single operation.
    Assign {
        dst: Place,
        rv: Rvalue,
    },
    /// Interprocedural call. For instance methods `args[0]` is the receiver.
    Call {
        dst: Option<LocalId>,
        method: MethodId,
        args: Vec<Operand>,
    },
    /// Call to a runtime builtin (`dbQuery`, `dbUpdate`, `print`, ...).
    Builtin {
        dst: Option<LocalId>,
        f: Builtin,
        args: Vec<Operand>,
    },
    If {
        cond: Operand,
        then_b: Vec<NStmt>,
        else_b: Vec<NStmt>,
    },
    /// `while` loop; `cond_pre` re-evaluates the condition into `cond`'s
    /// local before every test.
    While {
        cond_pre: Vec<NStmt>,
        cond: Operand,
        body: Vec<NStmt>,
    },
    Return(Option<Operand>),
}

/// Assignment destinations.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    Local(LocalId),
    Field { base: Operand, field: FieldId },
    Elem { arr: Operand, idx: Operand },
}

/// Atomic operands — no nested computation after normalization.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Local(LocalId),
    CInt(i64),
    CDouble(f64),
    CBool(bool),
    CStr(Arc<str>),
    Null,
}

impl Operand {
    pub fn as_local(&self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(*l),
            _ => None,
        }
    }
}

/// Right-hand sides: exactly one operation each.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    Use(Operand),
    Unary(UnOp, Operand),
    Binary(BinOp, Operand, Operand),
    ReadField {
        base: Operand,
        field: FieldId,
    },
    ReadElem {
        arr: Operand,
        idx: Operand,
    },
    /// `x.length` for arrays.
    Len(Operand),
    /// Array allocation; placement of the array follows this statement's
    /// placement (allocation-site placement, paper §3.1).
    NewArray {
        elem: Ty,
        len: Operand,
    },
    /// Object allocation; the constructor call is emitted as a separate
    /// `Call` statement immediately after.
    NewObject {
        class: ClassId,
    },
    /// `row.getInt(i)` etc.
    RowGet {
        row: Operand,
        idx: Operand,
        kind: RowGetKind,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowGetKind {
    Int,
    Double,
    Bool,
    Str,
}

/// Runtime builtins. `DbQuery` / `DbUpdate` model JDBC calls: the paper pins
/// all of them to a single partition variable (§4.3) because the JDBC driver
/// holds unserializable native state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `dbQuery(sql, args...) -> row[]`
    DbQuery,
    /// `dbUpdate(sql, args...) -> int` (rows affected)
    DbUpdate,
    /// `print(v)` — pinned to the application server (user console).
    Print,
    /// `sha1(int) -> int` — CPU-intensive digest (microbenchmark 2).
    Sha1,
    /// `rollback()` — abort the enclosing transaction.
    Rollback,
    /// `intToStr(int) -> string`
    IntToStr,
    /// `strToInt(string) -> int`
    StrToInt,
    /// `toDouble(int) -> double`
    ToDouble,
    /// `toInt(double) -> int` (truncating)
    ToInt,
    /// `strLen(string) -> int`
    StrLen,
}

impl Builtin {
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "dbQuery" => Builtin::DbQuery,
            "dbUpdate" => Builtin::DbUpdate,
            "print" => Builtin::Print,
            "sha1" => Builtin::Sha1,
            "rollback" => Builtin::Rollback,
            "intToStr" => Builtin::IntToStr,
            "strToInt" => Builtin::StrToInt,
            "toDouble" => Builtin::ToDouble,
            "toInt" => Builtin::ToInt,
            "strLen" => Builtin::StrLen,
            _ => return None,
        })
    }

    /// Is this a JDBC-style database call (subject to the co-location pin)?
    pub fn is_db_call(self) -> bool {
        matches!(
            self,
            Builtin::DbQuery | Builtin::DbUpdate | Builtin::Rollback
        )
    }

    /// Must this builtin run on the application server?
    pub fn pinned_to_app(self) -> bool {
        matches!(self, Builtin::Print)
    }

    pub fn name(self) -> &'static str {
        match self {
            Builtin::DbQuery => "dbQuery",
            Builtin::DbUpdate => "dbUpdate",
            Builtin::Print => "print",
            Builtin::Sha1 => "sha1",
            Builtin::Rollback => "rollback",
            Builtin::IntToStr => "intToStr",
            Builtin::StrToInt => "strToInt",
            Builtin::ToDouble => "toDouble",
            Builtin::ToInt => "toInt",
            Builtin::StrLen => "strLen",
        }
    }
}
