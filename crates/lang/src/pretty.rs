//! Pretty-printer for NIR programs.
//!
//! Supports an optional per-statement annotation callback so the PyxIL
//! layer can render placements exactly like the paper's Fig. 3
//! (`:APP:` / `:DB:` prefixes).

use crate::ids::StmtId;
use crate::nir::*;

/// Render a whole program. `annotate` returns a prefix for each statement
/// (e.g. `":DB: "`); return an empty string for none.
pub fn render_program(p: &NirProgram, annotate: &dyn Fn(StmtId) -> String) -> String {
    let mut out = String::new();
    for c in &p.classes {
        out.push_str(&format!("class {} {{\n", c.name));
        for &f in &c.fields {
            let f = p.field(f);
            out.push_str(&format!("  {} {}; // field #{}\n", f.ty, f.name, f.id));
        }
        for &m in &c.methods {
            let m = p.method(m);
            let params: Vec<String> = (0..m.num_params)
                .map(|i| {
                    let l = &m.locals[i];
                    format!("{} {}", l.ty, l.name)
                })
                .collect();
            out.push_str(&format!(
                "  {} {}({}) {{\n",
                m.ret,
                m.name,
                params.join(", ")
            ));
            render_stmts(p, m, &m.body, 2, annotate, &mut out);
            out.push_str("  }\n");
        }
        out.push_str("}\n");
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_stmts(
    p: &NirProgram,
    m: &NirMethod,
    stmts: &[NStmt],
    depth: usize,
    annotate: &dyn Fn(StmtId) -> String,
    out: &mut String,
) {
    for s in stmts {
        render_stmt(p, m, s, depth, annotate, out);
    }
}

fn render_stmt(
    p: &NirProgram,
    m: &NirMethod,
    s: &NStmt,
    depth: usize,
    annotate: &dyn Fn(StmtId) -> String,
    out: &mut String,
) {
    indent(out, depth);
    out.push_str(&annotate(s.id));
    match &s.kind {
        NStmtKind::Assign { dst, rv } => {
            out.push_str(&format!(
                "{} = {};\n",
                place_str(p, m, dst),
                rvalue_str(p, m, rv)
            ));
        }
        NStmtKind::Call { dst, method, args } => {
            let callee = p.method(*method);
            let args: Vec<String> = args.iter().map(|a| operand_str(m, a)).collect();
            match dst {
                Some(d) => out.push_str(&format!(
                    "{} = {}({});\n",
                    local_str(m, *d),
                    callee.name,
                    args.join(", ")
                )),
                None => out.push_str(&format!("{}({});\n", callee.name, args.join(", "))),
            }
        }
        NStmtKind::Builtin { dst, f, args } => {
            let args: Vec<String> = args.iter().map(|a| operand_str(m, a)).collect();
            match dst {
                Some(d) => out.push_str(&format!(
                    "{} = {}({});\n",
                    local_str(m, *d),
                    f.name(),
                    args.join(", ")
                )),
                None => out.push_str(&format!("{}({});\n", f.name(), args.join(", "))),
            }
        }
        NStmtKind::If {
            cond,
            then_b,
            else_b,
        } => {
            out.push_str(&format!("if ({}) {{\n", operand_str(m, cond)));
            render_stmts(p, m, then_b, depth + 1, annotate, out);
            if !else_b.is_empty() {
                indent(out, depth);
                out.push_str("} else {\n");
                render_stmts(p, m, else_b, depth + 1, annotate, out);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        NStmtKind::While {
            cond_pre,
            cond,
            body,
        } => {
            out.push_str("while (*) {\n");
            render_stmts(p, m, cond_pre, depth + 1, annotate, out);
            indent(out, depth + 1);
            out.push_str(&format!("break unless {};\n", operand_str(m, cond)));
            render_stmts(p, m, body, depth + 1, annotate, out);
            indent(out, depth);
            out.push_str("}\n");
        }
        NStmtKind::Return(v) => match v {
            Some(v) => out.push_str(&format!("return {};\n", operand_str(m, v))),
            None => out.push_str("return;\n"),
        },
    }
}

fn local_str(m: &NirMethod, l: crate::ids::LocalId) -> String {
    m.locals[l.index()].name.clone()
}

fn operand_str(m: &NirMethod, o: &Operand) -> String {
    match o {
        Operand::Local(l) => local_str(m, *l),
        Operand::CInt(v) => v.to_string(),
        Operand::CDouble(v) => format!("{v:?}"),
        Operand::CBool(v) => v.to_string(),
        Operand::CStr(s) => format!("{:?}", s.as_ref()),
        Operand::Null => "null".to_string(),
    }
}

fn place_str(p: &NirProgram, m: &NirMethod, pl: &Place) -> String {
    match pl {
        Place::Local(l) => local_str(m, *l),
        Place::Field { base, field } => {
            format!("{}.{}", operand_str(m, base), p.field(*field).name)
        }
        Place::Elem { arr, idx } => {
            format!("{}[{}]", operand_str(m, arr), operand_str(m, idx))
        }
    }
}

fn rvalue_str(p: &NirProgram, m: &NirMethod, rv: &Rvalue) -> String {
    use crate::ast::BinOp::*;
    match rv {
        Rvalue::Use(o) => operand_str(m, o),
        Rvalue::Unary(op, a) => format!("{op:?} {}", operand_str(m, a)),
        Rvalue::Binary(op, a, b) => {
            let sym = match op {
                Add => "+",
                Sub => "-",
                Mul => "*",
                Div => "/",
                Rem => "%",
                Eq => "==",
                Ne => "!=",
                Lt => "<",
                Le => "<=",
                Gt => ">",
                Ge => ">=",
                And => "&&",
                Or => "||",
            };
            format!("{} {sym} {}", operand_str(m, a), operand_str(m, b))
        }
        Rvalue::ReadField { base, field } => {
            format!("{}.{}", operand_str(m, base), p.field(*field).name)
        }
        Rvalue::ReadElem { arr, idx } => {
            format!("{}[{}]", operand_str(m, arr), operand_str(m, idx))
        }
        Rvalue::Len(a) => format!("{}.length", operand_str(m, a)),
        Rvalue::NewArray { elem, len } => format!("new {elem}[{}]", operand_str(m, len)),
        Rvalue::NewObject { class } => format!("new {}", p.class(*class).name),
        Rvalue::RowGet { row, idx, kind } => {
            let g = match kind {
                RowGetKind::Int => "getInt",
                RowGetKind::Double => "getDouble",
                RowGetKind::Bool => "getBool",
                RowGetKind::Str => "getStr",
            };
            format!("{}.{g}({})", operand_str(m, row), operand_str(m, idx))
        }
    }
}
