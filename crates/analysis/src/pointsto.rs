//! Andersen-style points-to analysis with allocation-site heap abstraction.
//!
//! The paper uses a "2full+1H" object-sensitive analysis from the Accrue
//! framework (§4.2). PyxLang programs are small and monomorphic (no
//! inheritance, single call targets), where a context-insensitive
//! inclusion-based analysis already yields precise alias sets; the
//! remaining precision axis we expose is **field sensitivity**
//! ([`PointsToConfig::field_sensitive`]), which the `ablation_pointsto`
//! bench toggles to measure how analysis precision affects partition
//! quality — the paper's point that "the precision of these analyses can
//! affect the quality of the partitions".
//!
//! Abstract objects are allocation sites: `new C`, `new T[n]`, and
//! `dbQuery` result arrays (each identified by the allocating [`StmtId`]).
//! Heap locations `(site, field)` are modelled as synthetic set variables;
//! loads and stores become inclusion edges discovered during the worklist
//! iteration.

use pyx_lang::{
    Builtin, FieldId, LocalId, MethodId, NStmt, NStmtKind, NirProgram, Operand, Place, Rvalue,
    StmtId,
};
use std::collections::{BTreeSet, HashMap};

/// Analysis configuration.
#[derive(Debug, Clone, Copy)]
pub struct PointsToConfig {
    /// Distinguish fields of the same abstract object. Disabling merges
    /// every field (and array element) of an object into one location,
    /// mimicking a coarser analysis.
    pub field_sensitive: bool,
}

impl Default for PointsToConfig {
    fn default() -> Self {
        PointsToConfig {
            field_sensitive: true,
        }
    }
}

/// Field selector within an abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKey {
    Field(FieldId),
    /// Array elements (arrays are not split per index, §3.1).
    Elem,
    /// Collapsed selector used when field-insensitive.
    Any,
}

/// An allocation site.
pub type AllocSite = StmtId;

/// Points-to results.
#[derive(Debug)]
pub struct PointsTo {
    cfg: PointsToConfig,
    /// Dense var index per (method, local).
    var_ids: HashMap<(MethodId, LocalId), usize>,
    /// pts set per variable (indices into nothing — values are StmtId.0).
    pts: Vec<BTreeSet<u32>>,
}

impl PointsTo {
    /// Run the analysis over a whole program.
    pub fn analyze(prog: &NirProgram, cfg: PointsToConfig) -> PointsTo {
        let mut a = Solver::new(prog, cfg);
        a.collect(prog);
        a.solve();
        PointsTo {
            cfg,
            var_ids: a.var_ids,
            pts: a.pts,
        }
    }

    fn key(&self, f: FieldKey) -> FieldKey {
        if self.cfg.field_sensitive {
            f
        } else {
            FieldKey::Any
        }
    }

    /// Allocation sites a local may reference.
    pub fn pts_of_local(&self, m: MethodId, l: LocalId) -> BTreeSet<u32> {
        self.var_ids
            .get(&(m, l))
            .map(|&v| self.pts[v].clone())
            .unwrap_or_default()
    }

    /// Allocation sites an operand may reference.
    pub fn pts_of_operand(&self, m: MethodId, op: &Operand) -> BTreeSet<u32> {
        match op {
            Operand::Local(l) => self.pts_of_local(m, *l),
            _ => BTreeSet::new(),
        }
    }

    /// May two base-operand/field accesses alias?
    pub fn may_alias(
        &self,
        m1: MethodId,
        base1: &Operand,
        f1: FieldKey,
        m2: MethodId,
        base2: &Operand,
        f2: FieldKey,
    ) -> bool {
        if self.key(f1) != self.key(f2) {
            return false;
        }
        let s1 = self.pts_of_operand(m1, base1);
        if s1.is_empty() {
            return false;
        }
        let s2 = self.pts_of_operand(m2, base2);
        s1.intersection(&s2).next().is_some()
    }

    /// Total points-to facts (ablation metric: bigger = less precise).
    pub fn total_facts(&self) -> usize {
        self.pts.iter().map(|s| s.len()).sum()
    }
}

struct Solver {
    cfg: PointsToConfig,
    var_ids: HashMap<(MethodId, LocalId), usize>,
    pts: Vec<BTreeSet<u32>>,
    /// Copy edges: src var → dst vars.
    edges: Vec<Vec<usize>>,
    /// Pending load constraints indexed by base var: (field, dst var).
    loads: Vec<Vec<(FieldKey, usize)>>,
    /// Pending store constraints indexed by base var: (field, src var).
    stores: Vec<Vec<(FieldKey, usize)>>,
    heap_vars: HashMap<(u32, FieldKey), usize>,
    /// Per-method return-value vars.
    returns: HashMap<MethodId, Vec<usize>>,
    worklist: Vec<usize>,
}

impl Solver {
    fn new(prog: &NirProgram, cfg: PointsToConfig) -> Solver {
        let mut var_ids = HashMap::new();
        let mut n = 0;
        for m in &prog.methods {
            for li in 0..m.locals.len() {
                var_ids.insert((m.id, LocalId(li as u32)), n);
                n += 1;
            }
        }
        Solver {
            cfg,
            var_ids,
            pts: vec![BTreeSet::new(); n],
            edges: vec![Vec::new(); n],
            loads: vec![Vec::new(); n],
            stores: vec![Vec::new(); n],
            heap_vars: HashMap::new(),
            returns: HashMap::new(),
            worklist: Vec::new(),
        }
    }

    fn key(&self, f: FieldKey) -> FieldKey {
        if self.cfg.field_sensitive {
            f
        } else {
            FieldKey::Any
        }
    }

    fn var(&self, m: MethodId, l: LocalId) -> usize {
        self.var_ids[&(m, l)]
    }

    fn fresh_var(&mut self) -> usize {
        let v = self.pts.len();
        self.pts.push(BTreeSet::new());
        self.edges.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        v
    }

    fn heap_var(&mut self, site: u32, f: FieldKey) -> usize {
        let f = self.key(f);
        if let Some(&v) = self.heap_vars.get(&(site, f)) {
            return v;
        }
        let v = self.fresh_var();
        self.heap_vars.insert((site, f), v);
        v
    }

    fn add_alloc(&mut self, v: usize, site: StmtId) {
        if self.pts[v].insert(site.0) {
            self.worklist.push(v);
        }
    }

    fn add_edge(&mut self, src: usize, dst: usize) {
        if src != dst && !self.edges[src].contains(&dst) {
            self.edges[src].push(dst);
            if !self.pts[src].is_empty() {
                self.worklist.push(src);
            }
        }
    }

    fn operand_var(&self, m: MethodId, op: &Operand) -> Option<usize> {
        op.as_local().map(|l| self.var(m, l))
    }

    fn collect(&mut self, prog: &NirProgram) {
        // Gather return vars first (used when visiting call sites).
        for method in &prog.methods {
            let mut rets = Vec::new();
            collect_returns(&method.body, &mut |op: &Operand| {
                if let Some(l) = op.as_local() {
                    rets.push(self.var(method.id, l));
                }
            });
            self.returns.insert(method.id, rets);
        }

        let mut stmts: Vec<(MethodId, &NStmt)> = Vec::new();
        prog.for_each_stmt(|m, s| stmts.push((m, s)));
        for (m, s) in &stmts {
            self.visit(prog, *m, s);
        }

        // Entry-point roots: a method with no static call sites is invoked
        // from outside the analyzed program (paper §5.2, entry points).
        // Its reference-typed parameters (including the receiver) must be
        // assumed to point to *something*; give each a synthetic
        // allocation site so heap def/use edges through them are not
        // silently dropped. Synthetic ids live far above real StmtIds.
        let mut called: std::collections::HashSet<MethodId> = std::collections::HashSet::new();
        for (_, s) in &stmts {
            if let NStmtKind::Call { method, .. } = &s.kind {
                called.insert(*method);
            }
        }
        const SYNTHETIC_BASE: u32 = 1 << 30;
        for method in &prog.methods {
            if called.contains(&method.id) {
                continue;
            }
            for i in 0..method.num_params {
                let ty = &method.locals[i].ty;
                if matches!(ty, pyx_lang::Ty::Class(_) | pyx_lang::Ty::Array(_)) {
                    let v = self.var(method.id, LocalId(i as u32));
                    let site = StmtId(SYNTHETIC_BASE + v as u32);
                    self.add_alloc(v, site);
                }
            }
        }
    }

    fn visit(&mut self, prog: &NirProgram, m: MethodId, s: &NStmt) {
        match &s.kind {
            NStmtKind::Assign { dst, rv } => {
                // rhs → synthetic var `t`, then t → dst.
                let t = match rv {
                    Rvalue::Use(op) => self.operand_var(m, op),
                    Rvalue::NewObject { .. } | Rvalue::NewArray { .. } => {
                        let t = self.fresh_var();
                        self.add_alloc(t, s.id);
                        Some(t)
                    }
                    Rvalue::ReadField { base, field } => {
                        let bv = self.operand_var(m, base);
                        bv.map(|bv| {
                            let t = self.fresh_var();
                            let key = self.key(FieldKey::Field(*field));
                            self.loads[bv].push((key, t));
                            if !self.pts[bv].is_empty() {
                                self.worklist.push(bv);
                            }
                            t
                        })
                    }
                    Rvalue::ReadElem { arr, .. } => {
                        let av = self.operand_var(m, arr);
                        av.map(|av| {
                            let t = self.fresh_var();
                            let key = self.key(FieldKey::Elem);
                            self.loads[av].push((key, t));
                            if !self.pts[av].is_empty() {
                                self.worklist.push(av);
                            }
                            t
                        })
                    }
                    // Scalars — no pointer flow.
                    Rvalue::Unary(..)
                    | Rvalue::Binary(..)
                    | Rvalue::Len(_)
                    | Rvalue::RowGet { .. } => None,
                };
                let Some(t) = t else { return };
                match dst {
                    Place::Local(l) => {
                        let d = self.var(m, *l);
                        self.add_edge(t, d);
                    }
                    Place::Field { base, field } => {
                        if let Some(bv) = self.operand_var(m, base) {
                            let key = self.key(FieldKey::Field(*field));
                            self.stores[bv].push((key, t));
                            if !self.pts[bv].is_empty() {
                                self.worklist.push(bv);
                            }
                        }
                    }
                    Place::Elem { arr, .. } => {
                        if let Some(av) = self.operand_var(m, arr) {
                            let key = self.key(FieldKey::Elem);
                            self.stores[av].push((key, t));
                            if !self.pts[av].is_empty() {
                                self.worklist.push(av);
                            }
                        }
                    }
                }
            }
            NStmtKind::Call { dst, method, args } => {
                let callee = prog.method(*method);
                for (i, a) in args.iter().enumerate() {
                    if let Some(av) = self.operand_var(m, a) {
                        let p = self.var(callee.id, LocalId(i as u32));
                        self.add_edge(av, p);
                    }
                }
                if let Some(d) = dst {
                    let dv = self.var(m, *d);
                    for rv in self.returns.get(method).cloned().unwrap_or_default() {
                        self.add_edge(rv, dv);
                    }
                }
            }
            NStmtKind::Builtin { dst, f, .. } => {
                if *f == Builtin::DbQuery {
                    if let Some(d) = dst {
                        let dv = self.var(m, *d);
                        // The result row-array is allocated at this stmt.
                        self.add_alloc(dv, s.id);
                    }
                }
            }
            NStmtKind::If { .. } | NStmtKind::While { .. } | NStmtKind::Return(_) => {}
        }
    }

    fn solve(&mut self) {
        while let Some(v) = self.worklist.pop() {
            let objs: Vec<u32> = self.pts[v].iter().copied().collect();
            // Copy edges.
            for di in 0..self.edges[v].len() {
                let d = self.edges[v][di];
                let mut changed = false;
                for &o in &objs {
                    changed |= self.pts[d].insert(o);
                }
                if changed {
                    self.worklist.push(d);
                }
            }
            // Loads: pts(dst) ⊇ pts((o, f)) for each o ∈ pts(v).
            for li in 0..self.loads[v].len() {
                let (f, dst) = self.loads[v][li];
                for &o in &objs {
                    let hv = self.heap_var(o, f);
                    self.add_edge(hv, dst);
                }
            }
            // Stores: pts((o, f)) ⊇ pts(src).
            for si in 0..self.stores[v].len() {
                let (f, src) = self.stores[v][si];
                for &o in &objs {
                    let hv = self.heap_var(o, f);
                    self.add_edge(src, hv);
                }
            }
        }
    }
}

fn collect_returns(stmts: &[NStmt], f: &mut impl FnMut(&Operand)) {
    for s in stmts {
        match &s.kind {
            NStmtKind::Return(Some(op)) => f(op),
            NStmtKind::If { then_b, else_b, .. } => {
                collect_returns(then_b, f);
                collect_returns(else_b, f);
            }
            NStmtKind::While { cond_pre, body, .. } => {
                collect_returns(cond_pre, f);
                collect_returns(body, f);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyx_lang::compile;

    fn analyze_src(src: &str, field_sensitive: bool) -> (NirProgram, PointsTo) {
        let p = compile(src).expect("compile");
        let pt = PointsTo::analyze(&p, PointsToConfig { field_sensitive });
        (p, pt)
    }

    /// Find the local id of a named variable in a method.
    fn local(p: &NirProgram, method: &str, name: &str) -> (MethodId, LocalId) {
        let m = p.methods.iter().find(|m| m.name == method).unwrap();
        let l = m
            .locals
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no local `{name}`"));
        (m.id, LocalId(l as u32))
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let src = r#"
            class P { int v; }
            class C {
                void f() {
                    P a = new P();
                    P b = new P();
                    P c = a;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, a) = local(&p, "f", "a");
        let (_, b) = local(&p, "f", "b");
        let (_, c) = local(&p, "f", "c");
        let (sa, sb, sc) = (
            pt.pts_of_local(m, a),
            pt.pts_of_local(m, b),
            pt.pts_of_local(m, c),
        );
        assert_eq!(sa.len(), 1);
        assert_eq!(sb.len(), 1);
        assert!(sa.is_disjoint(&sb), "separate allocations must not alias");
        assert_eq!(sa, sc, "copy aliases its source");
    }

    #[test]
    fn flow_through_fields() {
        let src = r#"
            class Box { int[] data; }
            class C {
                void f() {
                    Box b = new Box();
                    b.data = new int[4];
                    int[] d = b.data;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, d) = local(&p, "f", "d");
        let sd = pt.pts_of_local(m, d);
        assert_eq!(sd.len(), 1, "d should point to the array allocation");
    }

    #[test]
    fn field_sensitivity_separates_fields() {
        let src = r#"
            class Pair { int[] fst; int[] snd; }
            class C {
                void f() {
                    Pair p = new Pair();
                    p.fst = new int[1];
                    p.snd = new int[2];
                    int[] x = p.fst;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, x) = local(&p, "f", "x");
        assert_eq!(pt.pts_of_local(m, x).len(), 1, "field-sensitive: only fst");

        let (p2, pt2) = analyze_src(src, false);
        let (m2, x2) = local(&p2, "f", "x");
        assert_eq!(
            pt2.pts_of_local(m2, x2).len(),
            2,
            "field-insensitive: fst and snd merge"
        );
        assert!(pt2.total_facts() >= pt.total_facts());
    }

    #[test]
    fn interprocedural_param_and_return_flow() {
        let src = r#"
            class P { int v; }
            class C {
                P id(P x) { return x; }
                void f() {
                    P a = new P();
                    P b = id(a);
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, a) = local(&p, "f", "a");
        let (_, b) = local(&p, "f", "b");
        assert_eq!(pt.pts_of_local(m, a), pt.pts_of_local(m, b));
    }

    #[test]
    fn array_elements_flow() {
        let src = r#"
            class P { int v; }
            class C {
                void f() {
                    P[] arr = new P[2];
                    P a = new P();
                    arr[0] = a;
                    P b = arr[1];
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, a) = local(&p, "f", "a");
        let (_, b) = local(&p, "f", "b");
        // Arrays are element-collapsed: b may alias a.
        assert_eq!(pt.pts_of_local(m, a), pt.pts_of_local(m, b));
    }

    #[test]
    fn dbquery_result_is_an_allocation() {
        let src = r#"
            class C {
                void f() {
                    row[] rs = dbQuery("SELECT a FROM t WHERE k = ?", 1);
                    row[] other = rs;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, rs) = local(&p, "f", "rs");
        let (_, other) = local(&p, "f", "other");
        assert_eq!(pt.pts_of_local(m, rs).len(), 1);
        assert_eq!(pt.pts_of_local(m, rs), pt.pts_of_local(m, other));
    }

    #[test]
    fn may_alias_api() {
        let src = r#"
            class P { int v; }
            class C {
                void f() {
                    P a = new P();
                    P b = a;
                    P c = new P();
                    a.v = 1;
                    int x = b.v;
                    int y = c.v;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, a) = local(&p, "f", "a");
        let (_, b) = local(&p, "f", "b");
        let (_, c) = local(&p, "f", "c");
        let fid = p.fields[0].id;
        let oa = Operand::Local(a);
        let ob = Operand::Local(b);
        let oc = Operand::Local(c);
        assert!(pt.may_alias(m, &oa, FieldKey::Field(fid), m, &ob, FieldKey::Field(fid)));
        assert!(!pt.may_alias(m, &oa, FieldKey::Field(fid), m, &oc, FieldKey::Field(fid)));
    }

    #[test]
    fn this_parameter_binds_receiver() {
        let src = r#"
            class P {
                int[] data;
                void setData(int[] d) { this.data = d; }
            }
            class C {
                void f() {
                    P p = new P();
                    int[] arr = new int[3];
                    p.setData(arr);
                    int[] got = p.data;
                }
            }
        "#;
        let (p, pt) = analyze_src(src, true);
        let (m, arr) = local(&p, "f", "arr");
        let (_, got) = local(&p, "f", "got");
        assert_eq!(pt.pts_of_local(m, arr), pt.pts_of_local(m, got));
    }
}
