//! SQL subset parser.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! select  := SELECT selcols FROM ident (WHERE conj)? (ORDER BY ident (ASC|DESC)?)? (LIMIT int)?
//! selcols := '*' | agg | ident (',' ident)*
//! agg     := (COUNT '(' '*' ')' | SUM|MIN|MAX|AVG '(' ident ')')
//! insert  := INSERT INTO ident ('(' ident,* ')')? VALUES '(' term,* ')'
//! update  := UPDATE ident SET ident '=' setexpr (',' ...)* (WHERE conj)?
//! setexpr := term | ident ('+'|'-') term
//! delete  := DELETE FROM ident (WHERE conj)?
//! conj    := cmp (AND cmp)*
//! cmp     := ident op term ;  op := = | <> | != | < | <= | > | >=
//! term    := '?' | int | float | string | TRUE | FALSE | NULL
//! ```
//!
//! `?` placeholders are positional, matching JDBC prepared statements.
//! The parser accepts ORDER BY beside an aggregate; planning refuses it,
//! since an aggregate folds every match into one row (LIMIT then caps
//! that row).

use pyx_lang::Scalar;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStmt {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub table: String,
    pub proj: Projection,
    pub where_: Vec<Cmp>,
    pub order_by: Option<(String, bool /* desc */)>,
    pub limit: Option<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    All,
    Cols(Vec<String>),
    Agg(AggFn, Option<String>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub cols: Option<Vec<String>>,
    pub values: Vec<Term>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub sets: Vec<(String, SetExpr)>,
    pub where_: Vec<Cmp>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_: Vec<Cmp>,
}

/// `col op term` predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmp {
    pub col: String,
    pub op: CmpOp,
    pub term: Term,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// A literal or positional placeholder.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Param(usize),
    Lit(Scalar),
}

/// `SET col = term` or `SET col = col ± term` (e.g. `bal = bal - ?`).
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Term(Term),
    SelfPlus(String, Term),
    SelfMinus(String, Term),
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<SqlStmt, String> {
    let toks = tokenize(sql)?;
    let mut p = P {
        toks,
        pos: 0,
        next_param: 0,
    };
    let stmt = match p.peek_kw().as_deref() {
        Some("SELECT") => SqlStmt::Select(p.select()?),
        Some("INSERT") => SqlStmt::Insert(p.insert()?),
        Some("UPDATE") => SqlStmt::Update(p.update()?),
        Some("DELETE") => SqlStmt::Delete(p.delete()?),
        _ => return Err(format!("unsupported SQL statement: {sql}")),
    };
    if p.pos != p.toks.len() {
        return Err(format!("trailing tokens in SQL: {sql}"));
    }
    Ok(stmt)
}

/// Number of `?` placeholders in a parsed statement.
pub fn param_count(stmt: &SqlStmt) -> usize {
    fn term(t: &Term, n: &mut usize) {
        if let Term::Param(i) = t {
            *n = (*n).max(i + 1);
        }
    }
    let mut n = 0;
    match stmt {
        SqlStmt::Select(s) => {
            for c in &s.where_ {
                term(&c.term, &mut n);
            }
        }
        SqlStmt::Insert(i) => {
            for v in &i.values {
                term(v, &mut n);
            }
        }
        SqlStmt::Update(u) => {
            for (_, se) in &u.sets {
                match se {
                    SetExpr::Term(t) | SetExpr::SelfPlus(_, t) | SetExpr::SelfMinus(_, t) => {
                        term(t, &mut n)
                    }
                }
            }
            for c in &u.where_ {
                term(&c.term, &mut n);
            }
        }
        SqlStmt::Delete(d) => {
            for c in &d.where_ {
                term(&c.term, &mut n);
            }
        }
    }
    n
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String), // keyword or identifier (uppercased keywords checked ad hoc)
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char), // ( ) , * = ? + -
    Op(String),  // <> != <= >= < >
}

fn tokenize(sql: &str) -> Result<Vec<Tok>, String> {
    let b = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' | b')' | b',' | b'*' | b'=' | b'?' | b'+' | b'-' => {
                out.push(Tok::Punct(c as char));
                i += 1;
            }
            b'<' | b'>' | b'!' => {
                let mut s = String::new();
                s.push(c as char);
                i += 1;
                if i < b.len() && (b[i] == b'=' || (c == b'<' && b[i] == b'>')) {
                    s.push(b[i] as char);
                    i += 1;
                }
                if s == "!" {
                    return Err("stray `!` in SQL".into());
                }
                out.push(Tok::Op(s));
            }
            b'\'' => {
                i += 1;
                let start = i;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err("unterminated string in SQL".into());
                }
                out.push(Tok::Str(
                    std::str::from_utf8(&b[start..i]).unwrap().to_string(),
                ));
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).unwrap();
                if text.contains('.') {
                    out.push(Tok::Float(
                        text.parse().map_err(|_| format!("bad number `{text}`"))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        text.parse().map_err(|_| format!("bad number `{text}`"))?,
                    ));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Word(
                    std::str::from_utf8(&b[start..i]).unwrap().to_string(),
                ));
            }
            other => return Err(format!("unexpected character `{}` in SQL", other as char)),
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    next_param: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_kw(&self) -> Option<String> {
        match self.peek() {
            Some(Tok::Word(w)) => Some(w.to_uppercase()),
            _ => None,
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn kw(&mut self, k: &str) -> Result<(), String> {
        match self.bump() {
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case(k) => Ok(()),
            other => Err(format!("expected `{k}`, found {other:?}")),
        }
    }

    fn try_kw(&mut self, k: &str) -> bool {
        if let Some(Tok::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(k) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn punct(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(format!("expected `{c}`, found {other:?}")),
        }
    }

    fn try_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(Tok::Word(w)) => Ok(w.to_lowercase()),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    fn term(&mut self) -> Result<Term, String> {
        match self.bump() {
            Some(Tok::Punct('?')) => {
                let i = self.next_param;
                self.next_param += 1;
                Ok(Term::Param(i))
            }
            Some(Tok::Int(v)) => Ok(Term::Lit(Scalar::Int(v))),
            Some(Tok::Float(v)) => Ok(Term::Lit(Scalar::Double(v))),
            Some(Tok::Str(s)) => Ok(Term::Lit(Scalar::Str(s.into()))),
            Some(Tok::Punct('-')) => match self.bump() {
                Some(Tok::Int(v)) => Ok(Term::Lit(Scalar::Int(-v))),
                Some(Tok::Float(v)) => Ok(Term::Lit(Scalar::Double(-v))),
                other => Err(format!("expected number after `-`, found {other:?}")),
            },
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("true") => {
                Ok(Term::Lit(Scalar::Bool(true)))
            }
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("false") => {
                Ok(Term::Lit(Scalar::Bool(false)))
            }
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("null") => Ok(Term::Lit(Scalar::Null)),
            other => Err(format!("expected literal or `?`, found {other:?}")),
        }
    }

    fn where_clause(&mut self) -> Result<Vec<Cmp>, String> {
        if !self.try_kw("WHERE") {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        loop {
            let col = self.ident()?;
            let op = match self.bump() {
                Some(Tok::Punct('=')) => CmpOp::Eq,
                Some(Tok::Op(o)) => match o.as_str() {
                    "<>" | "!=" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    other => return Err(format!("unknown operator `{other}`")),
                },
                other => return Err(format!("expected comparison operator, found {other:?}")),
            };
            let term = self.term()?;
            out.push(Cmp { col, op, term });
            if !self.try_kw("AND") {
                break;
            }
        }
        Ok(out)
    }

    fn select(&mut self) -> Result<Select, String> {
        self.kw("SELECT")?;
        let proj = if self.try_punct('*') {
            Projection::All
        } else if let Some(kw) = self.peek_kw() {
            let agg = match kw.as_str() {
                "COUNT" => Some(AggFn::Count),
                "SUM" => Some(AggFn::Sum),
                "MIN" => Some(AggFn::Min),
                "MAX" => Some(AggFn::Max),
                "AVG" => Some(AggFn::Avg),
                _ => None,
            };
            match agg {
                Some(f) => {
                    self.bump();
                    self.punct('(')?;
                    let col = if self.try_punct('*') {
                        None
                    } else {
                        Some(self.ident()?)
                    };
                    self.punct(')')?;
                    if f != AggFn::Count && col.is_none() {
                        return Err("aggregate requires a column".into());
                    }
                    Projection::Agg(f, col)
                }
                None => {
                    let mut cols = vec![self.ident()?];
                    while self.try_punct(',') {
                        cols.push(self.ident()?);
                    }
                    Projection::Cols(cols)
                }
            }
        } else {
            return Err("expected projection".into());
        };
        self.kw("FROM")?;
        let table = self.ident()?;
        let where_ = self.where_clause()?;
        let order_by = if self.try_kw("ORDER") {
            self.kw("BY")?;
            let col = self.ident()?;
            let desc = if self.try_kw("DESC") {
                true
            } else {
                self.try_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.try_kw("LIMIT") {
            match self.bump() {
                Some(Tok::Int(v)) if v >= 0 => Some(v as usize),
                other => return Err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };
        Ok(Select {
            table,
            proj,
            where_,
            order_by,
            limit,
        })
    }

    fn insert(&mut self) -> Result<Insert, String> {
        self.kw("INSERT")?;
        self.kw("INTO")?;
        let table = self.ident()?;
        let cols = if self.try_punct('(') {
            let mut cols = vec![self.ident()?];
            while self.try_punct(',') {
                cols.push(self.ident()?);
            }
            self.punct(')')?;
            Some(cols)
        } else {
            None
        };
        self.kw("VALUES")?;
        self.punct('(')?;
        let mut values = vec![self.term()?];
        while self.try_punct(',') {
            values.push(self.term()?);
        }
        self.punct(')')?;
        Ok(Insert {
            table,
            cols,
            values,
        })
    }

    fn update(&mut self) -> Result<Update, String> {
        self.kw("UPDATE")?;
        let table = self.ident()?;
        self.kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.punct('=')?;
            // `col = otherCol ± term` or `col = term`
            let se = if let Some(Tok::Word(w)) = self.peek() {
                let up = w.to_uppercase();
                if up == "TRUE" || up == "FALSE" || up == "NULL" {
                    SetExpr::Term(self.term()?)
                } else {
                    let refcol = self.ident()?;
                    if self.try_punct('+') {
                        SetExpr::SelfPlus(refcol, self.term()?)
                    } else if self.try_punct('-') {
                        SetExpr::SelfMinus(refcol, self.term()?)
                    } else {
                        return Err(format!(
                            "column reference `{refcol}` in SET must be `col + ?` or `col - ?`"
                        ));
                    }
                }
            } else {
                SetExpr::Term(self.term()?)
            };
            sets.push((col, se));
            if !self.try_punct(',') {
                break;
            }
        }
        let where_ = self.where_clause()?;
        Ok(Update {
            table,
            sets,
            where_,
        })
    }

    fn delete(&mut self) -> Result<Delete, String> {
        self.kw("DELETE")?;
        self.kw("FROM")?;
        let table = self.ident()?;
        let where_ = self.where_clause()?;
        Ok(Delete { table, where_ })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_select() {
        let s =
            parse("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?").unwrap();
        match s {
            SqlStmt::Select(sel) => {
                assert_eq!(sel.table, "district");
                assert_eq!(
                    sel.proj,
                    Projection::Cols(vec!["d_tax".into(), "d_next_o_id".into()])
                );
                assert_eq!(sel.where_.len(), 2);
                assert_eq!(sel.where_[0].term, Term::Param(0));
                assert_eq!(sel.where_[1].term, Term::Param(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_star_order_limit() {
        let s = parse("SELECT * FROM item WHERE i_subject = ? ORDER BY i_total_sold DESC LIMIT 50")
            .unwrap();
        match s {
            SqlStmt::Select(sel) => {
                assert_eq!(sel.proj, Projection::All);
                assert_eq!(sel.order_by, Some(("i_total_sold".into(), true)));
                assert_eq!(sel.limit, Some(50));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_aggregates() {
        match parse("SELECT COUNT(*) FROM t WHERE a = ?").unwrap() {
            SqlStmt::Select(s) => assert_eq!(s.proj, Projection::Agg(AggFn::Count, None)),
            other => panic!("{other:?}"),
        }
        match parse("SELECT SUM(ol_amount) FROM order_line").unwrap() {
            SqlStmt::Select(s) => {
                assert_eq!(
                    s.proj,
                    Projection::Agg(AggFn::Sum, Some("ol_amount".into()))
                )
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn parses_insert_with_and_without_columns() {
        let s = parse("INSERT INTO t (a, b) VALUES (?, 3.5)").unwrap();
        match s {
            SqlStmt::Insert(i) => {
                assert_eq!(i.cols, Some(vec!["a".into(), "b".into()]));
                assert_eq!(i.values[1], Term::Lit(Scalar::Double(3.5)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("INSERT INTO t VALUES (1, 'x', NULL, true)").unwrap(),
            SqlStmt::Insert(_)
        ));
    }

    #[test]
    fn parses_update_with_self_arithmetic() {
        let s = parse(
            "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?",
        )
        .unwrap();
        match s {
            SqlStmt::Update(u) => {
                assert_eq!(
                    u.sets[0],
                    (
                        "d_next_o_id".into(),
                        SetExpr::SelfPlus("d_next_o_id".into(), Term::Lit(Scalar::Int(1)))
                    )
                );
            }
            other => panic!("{other:?}"),
        }
        let s = parse("UPDATE accounts SET bal = bal - ? WHERE cid = ?").unwrap();
        match s {
            SqlStmt::Update(u) => assert!(matches!(u.sets[0].1, SetExpr::SelfMinus(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_delete() {
        assert!(matches!(
            parse("DELETE FROM new_order WHERE no_o_id = ?").unwrap(),
            SqlStmt::Delete(_)
        ));
    }

    #[test]
    fn param_counting() {
        let s = parse("UPDATE t SET a = ?, b = b + ? WHERE c = ? AND d < ?").unwrap();
        assert_eq!(param_count(&s), 4);
    }

    #[test]
    fn negative_literals_and_strings() {
        let s = parse("SELECT a FROM t WHERE b = -5 AND c = 'hi there'").unwrap();
        match s {
            SqlStmt::Select(sel) => {
                assert_eq!(sel.where_[0].term, Term::Lit(Scalar::Int(-5)));
                assert_eq!(
                    sel.where_[1].term,
                    Term::Lit(Scalar::Str("hi there".into()))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t extra").is_err());
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse("select a from T where B = 1 order by a limit 2").is_ok());
    }

    #[test]
    fn cmp_op_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(!CmpOp::Lt.eval(Greater));
    }
}
