//! Prepared statements: parse-once, resolve-once plans with param slots.
//!
//! [`crate::Engine::prepare`] parses a SQL string once and caches a fully
//! *resolved* plan: table id, column indices (instead of per-execution
//! string lookups), predicate skeleton with parameter slots, projection
//! index list, and the chosen access path. [`crate::Engine::execute_prepared`]
//! then runs the plan with no string hashing, no statement clone, and no
//! re-planning — the hot path the JDBC-style workloads hammer.
//!
//! Plans are invalidated by schema changes ([`crate::Engine::create_table`],
//! [`crate::Engine::add_index`]) via an engine-wide schema epoch; a stale
//! plan is transparently re-resolved from the retained parse tree on its
//! next execution (counted as a prepared-plan miss in
//! [`crate::engine::EngineStats`]).

use crate::engine::DbError;
use crate::sqlparse::{AggFn, Cmp, CmpOp, SetExpr, SqlStmt, Term};
use crate::table::Table;
use pyx_lang::Scalar;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle returned by [`crate::Engine::prepare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedId(pub u32);

/// A literal or a parameter slot, resolved against the schema.
#[derive(Debug, Clone)]
pub enum PTerm {
    Param(usize),
    Lit(Scalar),
}

impl PTerm {
    fn from_term(t: &Term) -> PTerm {
        match t {
            Term::Param(i) => PTerm::Param(*i),
            Term::Lit(s) => PTerm::Lit(s.clone()),
        }
    }

    /// Borrow the concrete value for one execution (no clone).
    #[inline]
    pub fn resolve<'a>(&'a self, params: &'a [Scalar]) -> &'a Scalar {
        match self {
            PTerm::Param(i) => &params[*i],
            PTerm::Lit(s) => s,
        }
    }
}

/// Resolved `col op term` predicate: column by index, value by slot.
#[derive(Debug, Clone)]
pub struct PredP {
    pub col: usize,
    pub op: CmpOp,
    pub term: PTerm,
}

/// Access-path skeleton chosen at prepare time. The choice depends only on
/// which columns carry equality predicates, never on parameter values, so
/// it is stable across executions.
#[derive(Debug, Clone)]
pub enum PathP {
    /// Equality on the full primary key: point lookup.
    PkPoint(Vec<PTerm>),
    /// Equality on a proper primary-key prefix: range scan.
    PkPrefix(Vec<PTerm>),
    /// Equality on a secondary-indexed column.
    Secondary { slot: usize, term: PTerm },
    /// No usable index: full scan.
    Full,
}

impl PathP {
    /// Short name for diagnostics and plan-inspection tests.
    pub fn kind(&self) -> &'static str {
        match self {
            PathP::PkPoint(_) => "pk_point",
            PathP::PkPrefix(_) => "pk_prefix",
            PathP::Secondary { .. } => "secondary",
            PathP::Full => "full_scan",
        }
    }
}

/// Projection with columns resolved to indices.
#[derive(Debug, Clone)]
pub enum ProjP {
    All,
    Cols(Vec<usize>),
    Agg(AggFn, Option<usize>),
}

/// Resolved SELECT plan.
#[derive(Debug, Clone)]
pub struct SelectP {
    pub ti: usize,
    pub preds: Vec<PredP>,
    pub path: PathP,
    /// True when the access path alone guarantees every predicate (exact
    /// primary-key equality): per-row re-evaluation is skipped.
    pub subsumed: bool,
    pub proj: ProjP,
    pub order_by: Option<(usize, bool)>,
    pub limit: Option<usize>,
}

/// Resolved INSERT plan: one term per column (absent columns are NULL
/// literals), in schema order.
#[derive(Debug, Clone)]
pub struct InsertP {
    pub ti: usize,
    pub row: Vec<PTerm>,
}

/// Resolved SET expression (`col = term` or `col = refcol ± term`).
#[derive(Debug, Clone)]
pub enum SetP {
    Term(PTerm),
    SelfPlus(usize, PTerm),
    SelfMinus(usize, PTerm),
}

/// Resolved UPDATE plan.
#[derive(Debug, Clone)]
pub struct UpdateP {
    pub ti: usize,
    pub sets: Vec<(usize, SetP)>,
    pub preds: Vec<PredP>,
    pub path: PathP,
    /// See [`SelectP::subsumed`].
    pub subsumed: bool,
}

/// Resolved DELETE plan.
#[derive(Debug, Clone)]
pub struct DeleteP {
    pub ti: usize,
    pub preds: Vec<PredP>,
    pub path: PathP,
    /// See [`SelectP::subsumed`].
    pub subsumed: bool,
}

/// A fully resolved plan for one statement shape.
#[derive(Debug, Clone)]
pub enum Plan {
    Select(SelectP),
    Insert(InsertP),
    Update(UpdateP),
    Delete(DeleteP),
}

impl Plan {
    /// Access-path kind (for plan-inspection tests); inserts are always
    /// point writes.
    pub fn path_kind(&self) -> &'static str {
        match self {
            Plan::Select(p) => p.path.kind(),
            Plan::Insert(_) => "pk_point",
            Plan::Update(p) => p.path.kind(),
            Plan::Delete(p) => p.path.kind(),
        }
    }
}

/// How a statement routes across engine shards, derived from its resolved
/// plan and the target table's [`crate::schema::TableDef::shard_key`].
/// The sharded serving tier's cross-shard transactions use this to send
/// each statement to the shard(s) owning its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtRoute {
    /// Table has no shard key: reads may use any replica, writes must be
    /// applied to every replica to keep them byte-identical.
    Replicated { write: bool },
    /// Shard key is equality-bound to parameter `param`: route by
    /// [`crate::schema::shard_of`] of the runtime value.
    ByParam { param: usize },
    /// Shard key is equality-bound to a literal.
    ByLit(Scalar),
    /// Sharded table without a shard-key equality (e.g. a full scan):
    /// every shard executes the statement over its own rows; reads
    /// concatenate, writes sum their affected counts. `mergeable` is
    /// false for reads whose per-shard results cannot be combined by
    /// concatenation (ORDER BY, LIMIT, aggregates) — a cross-shard
    /// executor must reject those rather than return wrong answers.
    Scatter { write: bool, mergeable: bool },
    /// The statement cannot run correctly on a sharded deployment at
    /// all — e.g. an UPDATE that sets the shard-key column, which would
    /// change a row's ownership without moving it. A cross-shard
    /// executor must fail loudly with `reason`.
    Unroutable { reason: &'static str },
}

/// Derive the shard route of a resolved plan. INSERTs route by the
/// shard-key column of the inserted row; SELECT/UPDATE/DELETE by an
/// equality predicate on the shard-key column. An UPDATE that sets the
/// shard-key column is [`StmtRoute::Unroutable`]: it would change the
/// row's ownership without moving it, so sharded schemas must treat
/// shard keys as immutable — the same rule the table layer enforces for
/// primary keys.
pub(crate) fn route_of(plan: &Plan, tables: &[Table]) -> StmtRoute {
    let (ti, write) = match plan {
        Plan::Select(p) => (p.ti, false),
        Plan::Insert(p) => (p.ti, true),
        Plan::Update(p) => (p.ti, true),
        Plan::Delete(p) => (p.ti, true),
    };
    let Some(sc) = tables[ti].def.shard_key else {
        return StmtRoute::Replicated { write };
    };
    if let Plan::Update(p) = plan {
        if p.sets.iter().any(|(ci, _)| *ci == sc) {
            return StmtRoute::Unroutable {
                reason: "UPDATE sets the shard-key column; shard keys are immutable \
                         (re-insert the row under its new key instead)",
            };
        }
    }
    let find_eq = |preds: &[PredP]| -> Option<PTerm> {
        preds
            .iter()
            .find(|p| p.col == sc && p.op == CmpOp::Eq)
            .map(|p| p.term.clone())
    };
    let term = match plan {
        Plan::Insert(p) => Some(p.row[sc].clone()),
        Plan::Select(p) => find_eq(&p.preds),
        Plan::Update(p) => find_eq(&p.preds),
        Plan::Delete(p) => find_eq(&p.preds),
    };
    match term {
        Some(PTerm::Param(i)) => StmtRoute::ByParam { param: i },
        Some(PTerm::Lit(s)) => StmtRoute::ByLit(s),
        None => {
            let mergeable = match plan {
                Plan::Select(p) => {
                    p.order_by.is_none() && p.limit.is_none() && !matches!(p.proj, ProjP::Agg(..))
                }
                _ => true,
            };
            StmtRoute::Scatter { write, mergeable }
        }
    }
}

/// One cached prepared statement: the retained parse tree plus the
/// (epoch-tagged) resolved plan.
#[derive(Debug)]
pub(crate) struct PreparedStmt {
    pub stmt: SqlStmt,
    pub nparams: usize,
    /// `None` until first execution or after schema invalidation.
    pub plan: Option<Arc<Plan>>,
    /// Schema epoch `plan` was resolved against; a mismatch with the
    /// engine's current epoch forces re-resolution.
    pub epoch: u64,
}

fn unknown_col(col: &str, table: &str) -> DbError {
    DbError::Schema(format!("unknown column `{col}` in `{table}`"))
}

fn resolve_preds(t: &Table, where_: &[Cmp]) -> Result<Vec<PredP>, DbError> {
    where_
        .iter()
        .map(|c| {
            let col = t
                .def
                .col_index(&c.col)
                .ok_or_else(|| unknown_col(&c.col, &t.def.name))?;
            Ok(PredP {
                col,
                op: c.op,
                term: PTerm::from_term(&c.term),
            })
        })
        .collect()
}

/// Does an exact-primary-key point path make per-row predicate checks
/// vacuous? True when the predicates are exactly one equality per primary
/// key column — the row the index returns already satisfies them all.
fn preds_subsumed(t: &Table, preds: &[PredP], path: &PathP) -> bool {
    matches!(path, PathP::PkPoint(_))
        && preds.len() == t.def.pkey.len()
        && preds.iter().all(|p| p.op == CmpOp::Eq)
        && t.def
            .pkey
            .iter()
            .all(|&pc| preds.iter().filter(|p| p.col == pc).count() == 1)
}

/// Pick the access path: longest primary-key prefix covered by equality
/// predicates (first predicate per column wins), else the first equality
/// predicate on a secondary-indexed column, else a full scan. Both
/// execution paths plan through here (the ad-hoc path re-resolves per
/// execution), so they can never choose differently.
fn resolve_path(t: &Table, preds: &[PredP]) -> PathP {
    let mut prefix: Vec<PTerm> = Vec::new();
    for &pc in &t.def.pkey {
        match preds.iter().find(|p| p.col == pc && p.op == CmpOp::Eq) {
            Some(p) => prefix.push(p.term.clone()),
            None => break,
        }
    }
    if !prefix.is_empty() {
        if prefix.len() == t.def.pkey.len() {
            return PathP::PkPoint(prefix);
        }
        return PathP::PkPrefix(prefix);
    }
    for p in preds {
        if p.op == CmpOp::Eq {
            if let Some(slot) = t.secondary_slot(p.col) {
                return PathP::Secondary {
                    slot,
                    term: p.term.clone(),
                };
            }
        }
    }
    PathP::Full
}

/// Resolve a parsed statement against the current schema into a plan.
pub(crate) fn resolve_plan(
    stmt: &SqlStmt,
    tables: &[Table],
    by_name: &HashMap<String, usize>,
) -> Result<Plan, DbError> {
    let table_id = |name: &str| -> Result<usize, DbError> {
        by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::Schema(format!("unknown table `{name}`")))
    };
    match stmt {
        SqlStmt::Select(s) => {
            let ti = table_id(&s.table)?;
            let t = &tables[ti];
            let preds = resolve_preds(t, &s.where_)?;
            let path = resolve_path(t, &preds);
            let subsumed = preds_subsumed(t, &preds, &path);
            let proj = match &s.proj {
                crate::sqlparse::Projection::All => ProjP::All,
                crate::sqlparse::Projection::Cols(cols) => ProjP::Cols(
                    cols.iter()
                        .map(|n| t.def.col_index(n).ok_or_else(|| unknown_col(n, &s.table)))
                        .collect::<Result<_, _>>()?,
                ),
                crate::sqlparse::Projection::Agg(f, col) => {
                    let ci = col
                        .as_deref()
                        .map(|n| {
                            t.def.col_index(n).ok_or_else(|| {
                                DbError::Schema(format!("unknown aggregate column `{n}`"))
                            })
                        })
                        .transpose()?;
                    ProjP::Agg(*f, ci)
                }
            };
            let order_by =
                s.order_by
                    .as_ref()
                    .map(|(col, desc)| {
                        t.def.col_index(col).map(|ci| (ci, *desc)).ok_or_else(|| {
                            DbError::Schema(format!("unknown ORDER BY column `{col}`"))
                        })
                    })
                    .transpose()?;
            if order_by.is_some() && matches!(proj, ProjP::Agg(..)) {
                return Err(DbError::Schema(
                    "ORDER BY beside an aggregate: the aggregate is one row".into(),
                ));
            }
            Ok(Plan::Select(SelectP {
                ti,
                preds,
                path,
                subsumed,
                proj,
                order_by,
                limit: s.limit,
            }))
        }
        SqlStmt::Insert(ins) => {
            let ti = table_id(&ins.table)?;
            let t = &tables[ti];
            let ncols = t.def.cols.len();
            let row = match &ins.cols {
                None => {
                    if ins.values.len() != ncols {
                        return Err(DbError::Schema(format!(
                            "INSERT into `{}` needs {ncols} values, got {}",
                            ins.table,
                            ins.values.len()
                        )));
                    }
                    ins.values.iter().map(PTerm::from_term).collect()
                }
                Some(cols) => {
                    if cols.len() != ins.values.len() {
                        return Err(DbError::Schema("INSERT column/value count mismatch".into()));
                    }
                    let mut row = vec![PTerm::Lit(Scalar::Null); ncols];
                    for (name, v) in cols.iter().zip(&ins.values) {
                        let ci = t
                            .def
                            .col_index(name)
                            .ok_or_else(|| unknown_col(name, &ins.table))?;
                        row[ci] = PTerm::from_term(v);
                    }
                    row
                }
            };
            Ok(Plan::Insert(InsertP { ti, row }))
        }
        SqlStmt::Update(u) => {
            let ti = table_id(&u.table)?;
            let t = &tables[ti];
            let preds = resolve_preds(t, &u.where_)?;
            let path = resolve_path(t, &preds);
            let subsumed = preds_subsumed(t, &preds, &path);
            let sets = u
                .sets
                .iter()
                .map(|(name, se)| {
                    let ci = t
                        .def
                        .col_index(name)
                        .ok_or_else(|| unknown_col(name, &u.table))?;
                    let sp = match se {
                        SetExpr::Term(term) => SetP::Term(PTerm::from_term(term)),
                        SetExpr::SelfPlus(refcol, term) => {
                            let ri = t.def.col_index(refcol).ok_or_else(|| {
                                DbError::Schema(format!("unknown column `{refcol}` in SET"))
                            })?;
                            SetP::SelfPlus(ri, PTerm::from_term(term))
                        }
                        SetExpr::SelfMinus(refcol, term) => {
                            let ri = t.def.col_index(refcol).ok_or_else(|| {
                                DbError::Schema(format!("unknown column `{refcol}` in SET"))
                            })?;
                            SetP::SelfMinus(ri, PTerm::from_term(term))
                        }
                    };
                    Ok((ci, sp))
                })
                .collect::<Result<_, _>>()?;
            Ok(Plan::Update(UpdateP {
                ti,
                sets,
                preds,
                path,
                subsumed,
            }))
        }
        SqlStmt::Delete(d) => {
            let ti = table_id(&d.table)?;
            let t = &tables[ti];
            let preds = resolve_preds(t, &d.where_)?;
            let path = resolve_path(t, &preds);
            let subsumed = preds_subsumed(t, &preds, &path);
            Ok(Plan::Delete(DeleteP {
                ti,
                preds,
                path,
                subsumed,
            }))
        }
    }
}
