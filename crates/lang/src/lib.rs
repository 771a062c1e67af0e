//! # PyxLang — the source language for the Pyxis reproduction
//!
//! The Pyxis paper partitions Java/JDBC applications using the Polyglot and
//! Accrue frameworks. Rust has no mature Java front end, so this crate
//! implements **PyxLang**, a small Java-like imperative language with exactly
//! the features the paper's analyses exercise: classes with fields, methods,
//! arrays placed by allocation site, structured control flow, interprocedural
//! calls, and JDBC-style database calls (`dbQuery` / `dbUpdate`).
//!
//! The crate provides:
//!
//! * a lexer and recursive-descent parser ([`parse_program`]),
//! * an AST ([`ast`]),
//! * a combined resolver / type checker / normalizer ([`lower`]) producing
//!   the **normalized IR** ([`nir`]) that every downstream phase (profiler,
//!   static analysis, partitioner, PyxIL compiler, runtime) consumes, and
//! * runtime value types shared by the interpreter and the distributed
//!   runtime ([`value`]), and the scalar byte encoding the WAL and the
//!   wire protocol share ([`codec`]).
//!
//! Normalization flattens nested expressions into temporaries so that every
//! statement performs at most one call and one heap access — mirroring the
//! "normalized source" the paper's instrumentor emits (Fig. 1).

pub mod ast;
pub mod codec;
pub mod fnv;
pub mod ids;
pub mod lexer;
pub mod lower;
pub mod nir;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod value;

pub use ast::Program;
pub use ids::*;
pub use lower::{lower_program, Diag};
pub use nir::*;
pub use value::{eval_binop, eval_unop, sha1_i64, Oid, RtError, Scalar, Value};

/// Parse PyxLang source text into an AST.
///
/// This is the first stage of the Pyxis pipeline (Fig. 1 "Application
/// source"). Errors carry a line number and message.
pub fn parse_program(src: &str) -> Result<Program, Diag> {
    let tokens = lexer::lex(src).map_err(|e| Diag {
        line: e.line,
        msg: e.msg,
    })?;
    parser::Parser::new(tokens).parse_program()
}

/// Convenience: parse and lower in one step.
pub fn compile(src: &str) -> Result<NirProgram, Vec<Diag>> {
    let ast = parse_program(src).map_err(|d| vec![d])?;
    lower_program(&ast)
}
