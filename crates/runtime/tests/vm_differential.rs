//! VM differential suite against the NIR oracle: every partitioned run
//! must compute exactly what the *unpartitioned* program computes under
//! the reference interpreter (`pyx_profile::Interp`) on its own engine —
//! same result, printed output, and rollback flag per transaction, and
//! the same final engine state. Every control transfer must also report
//! exactly its encoded frame's length, and that frame must decode and
//! re-encode to the same bytes.
//!
//! Three layers of evidence:
//!
//! * the TPC-C new-order mix and the TPC-W browsing mix, run through the
//!   solver-chosen partition plus the JDBC (all-APP) and Manual (all-DB)
//!   references;
//! * proptest-generated random programs (arithmetic, control flow, field
//!   and array traffic, calls, prints, db reads/writes) under random
//!   statement/field placements;
//! * a rollback + error-shape spot check.

use proptest::prelude::*;
use pyx_analysis::{analyze, AnalysisConfig};
use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_lang::{compile, MethodId, NirProgram, Value};
use pyx_partition::{Placement, Side};
use pyx_profile::{Interp, NullTracer};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::session::{Session, VmScratch};
use pyx_runtime::wire::Frame;
use pyx_runtime::{Advance, ArgVal};
use pyx_sim::Workload;
use pyx_workloads::{tpcc, tpcw};

/// Everything observable about one transaction.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Option<Value>,
    printed: Vec<String>,
    rolled_back: bool,
}

/// Drive a session to completion, checking every wire frame on the way:
/// the reported size is the encoded length, and decode → encode
/// reproduces the bytes exactly.
fn drive(sess: &mut Session<'_>, engine: &mut Engine) -> Observed {
    for _ in 0..20_000_000u64 {
        match sess.advance(engine) {
            Advance::Net { bytes, .. } => {
                let f = sess.last_frame.as_ref().expect("frame recorded");
                assert_eq!(bytes, f.len() as u64, "net bytes == encoded frame length");
                let decoded = Frame::decode(f).expect("transmitted frame decodes");
                assert_eq!(&decoded.encode(), f, "frame round-trips byte for byte");
            }
            Advance::Finished => {
                return Observed {
                    result: sess.result.clone(),
                    printed: sess.printed.clone(),
                    rolled_back: sess.rolled_back,
                }
            }
            Advance::Error(e) => panic!("session failed: {e}"),
            Advance::Blocked { .. } => panic!("single session blocked"),
            Advance::Deadlocked => panic!("single session deadlocked"),
            Advance::Cpu { .. } | Advance::DbOp { .. } => {}
        }
    }
    panic!("session did not finish");
}

/// Run one entry invocation on the oracle.
fn oracle_call(
    it: &mut Interp<'_, NullTracer>,
    entry: MethodId,
    args: &[ArgVal],
) -> Result<Observed, String> {
    let vals = args
        .iter()
        .map(|a| match a {
            ArgVal::Int(v) => Value::Int(*v),
            ArgVal::Double(v) => Value::Double(*v),
            ArgVal::Bool(v) => Value::Bool(*v),
            ArgVal::Str(s) => Value::Str(s.as_str().into()),
            ArgVal::IntArray(xs) => it.alloc_array(xs.iter().map(|&v| Value::Int(v)).collect()),
            ArgVal::DoubleArray(xs) => {
                it.alloc_array(xs.iter().map(|&v| Value::Double(v)).collect())
            }
        })
        .collect();
    it.printed.clear();
    let result = it.call_entry(entry, vals).map_err(|e| e.msg)?;
    Ok(Observed {
        result,
        printed: std::mem::take(&mut it.printed),
        rolled_back: it.rolled_back,
    })
}

fn dump_all(db: &Engine) -> Vec<Vec<Vec<Scalar>>> {
    db.table_names().iter().map(|t| db.dump_table(t)).collect()
}

/// Run `txns` through `part` on the VM and through the unpartitioned
/// `prog` on the oracle, each against its own identically-loaded engine,
/// and assert they agree on every transaction and on the final state.
fn assert_matches_oracle(
    part: &CompiledPartition,
    prog: &NirProgram,
    mk_engine: &dyn Fn() -> Engine,
    txns: &[(MethodId, Vec<ArgVal>)],
    tag: &str,
) {
    let mut vm_db = mk_engine();
    let sites = Session::prepare_sites(&part.bp, &mut vm_db);
    let mut oracle_db = mk_engine();
    let mut oracle = Interp::new(prog, &mut oracle_db, NullTracer);
    // The scratch recycles across transactions, like the dispatcher pool.
    let mut scratch = VmScratch::default();
    for (n, (entry, args)) in txns.iter().enumerate() {
        let mut sess =
            Session::with_prepared(part, *entry, args, sites.clone(), scratch).expect("session");
        let got = drive(&mut sess, &mut vm_db);
        scratch = sess.take_scratch();
        let want = oracle_call(&mut oracle, *entry, args).expect("oracle run");
        assert_eq!(got, want, "{tag}: txn #{n} diverged from the oracle");
    }
    drop(oracle);
    assert_eq!(
        dump_all(&vm_db),
        dump_all(&oracle_db),
        "{tag}: final engine state diverged from the oracle"
    );
}

fn requests(wl: &mut dyn Workload, n: usize) -> Vec<(MethodId, Vec<ArgVal>)> {
    (0..n)
        .map(|i| {
            let r = wl.next_txn(i);
            (r.entry, r.args)
        })
        .collect()
}

#[test]
fn tpcc_new_order_mix_matches_oracle() {
    let scale = tpcc::TpccScale {
        warehouses: 2,
        ..tpcc::TpccScale::default()
    };
    let seed = 0xD1FF;
    let (pyxis, mut scratch, entry) = tpcc::setup(scale, seed);
    let mut gen = tpcc::NewOrderGen::new(entry, scale, seed).with_lines(3, 8);
    let profile = pyxis
        .profile(&mut scratch, requests(&mut gen, 40))
        .expect("profiling");
    let set = pyxis.generate(&profile, &[0.5]);

    let mk = || {
        let mut db = Engine::new();
        tpcc::create_schema(&mut db);
        tpcc::load(&mut db, scale, seed);
        db
    };
    let mut wl = tpcc::NewOrderGen::new(entry, scale, 42).with_lines(3, 8);
    let txns = requests(&mut wl, 25);
    let prog = &pyxis.prog;
    assert_matches_oracle(&set.pyxis[0].2, prog, &mk, &txns, "tpcc/pyxis");
    assert_matches_oracle(&set.jdbc, prog, &mk, &txns, "tpcc/jdbc");
    assert_matches_oracle(&set.manual, prog, &mk, &txns, "tpcc/manual");
}

#[test]
fn tpcw_browsing_mix_matches_oracle() {
    let scale = tpcw::TpcwScale::default();
    let seed = 0xB00C;
    let (pyxis, mut scratch, entries) = tpcw::setup(scale, seed);
    let mut mix = tpcw::BrowsingMix::new(entries, scale, seed);
    let profile = pyxis
        .profile(&mut scratch, requests(&mut mix, 40))
        .expect("profiling");
    let set = pyxis.generate(&profile, &[0.5]);

    let mk = || {
        let mut db = Engine::new();
        tpcw::create_schema(&mut db);
        tpcw::load(&mut db, scale, seed);
        db
    };
    let mut wl = tpcw::BrowsingMix::new(entries, scale, 7);
    let txns = requests(&mut wl, 30);
    let prog = &pyxis.prog;
    assert_matches_oracle(&set.pyxis[0].2, prog, &mk, &txns, "tpcw/pyxis");
    assert_matches_oracle(&set.jdbc, prog, &mk, &txns, "tpcw/jdbc");
    assert_matches_oracle(&set.manual, prog, &mk, &txns, "tpcw/manual");
}

#[test]
fn rollback_and_prints_match_oracle() {
    let src = r#"
        class C {
            int f(int k) {
                dbUpdate("INSERT INTO t VALUES (?)", k);
                print("inserted " + intToStr(k));
                rollback();
                return k * 3;
            }
        }
    "#;
    let prog = compile(src).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    for placement in [Placement::all_app(&prog), Placement::all_db(&prog)] {
        let part = CompiledPartition::build(&prog, &analysis, placement, false);
        let mk = || {
            let mut db = Engine::new();
            db.create_table(TableDef::new(
                "t",
                vec![ColumnDef::new("k", ColTy::Int)],
                &["k"],
            ));
            db
        };
        let entry = prog.find_method("C", "f").unwrap();
        let txns = vec![(entry, vec![ArgVal::Int(9)])];
        assert_matches_oracle(&part, &prog, &mk, &txns, "rollback");
    }
}

// ---- proptest-generated programs ----

/// Deterministic program builder driven by a single seed (SplitMix64):
/// emits a two-method class exercising arithmetic, if/while control flow,
/// field and array traffic, string builtins, calls, and db reads/writes
/// over a small `kv` table.
struct Gen {
    state: u64,
    /// Monotonic counter for generated local names (loop counters, row
    /// vars) — guarantees no duplicate declarations.
    fresh: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed,
            fresh: 0,
        }
    }

    fn fresh(&mut self) -> u32 {
        self.fresh += 1;
        self.fresh
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An int-typed expression over the temps `t0..t3`, the params, and
    /// small constants. Division is excluded (an error aborts the run).
    fn expr(&mut self) -> String {
        let atom = |g: &mut Gen| match g.below(4) {
            0 => format!("t{}", g.below(4)),
            1 => "a".to_string(),
            2 => "b".to_string(),
            _ => format!("{}", g.below(9) as i64 - 4),
        };
        let a = atom(self);
        match self.below(4) {
            0 => a,
            1 => format!("({a} + {})", atom(self)),
            2 => format!("({a} - {})", atom(self)),
            _ => format!("({a} * {})", atom(self)),
        }
    }

    fn stmt(&mut self, depth: u32, out: &mut String, indent: &str) {
        match self.below(if depth == 0 { 10 } else { 8 }) {
            0 | 1 => {
                let d = self.below(4);
                let e = self.expr();
                out.push_str(&format!("{indent}t{d} = {e};\n"));
            }
            2 => {
                let f = self.below(2);
                let e = self.expr();
                out.push_str(&format!("{indent}this.f{f} = {e};\n"));
            }
            3 => {
                let d = self.below(4);
                let f = self.below(2);
                out.push_str(&format!("{indent}t{d} = this.f{f};\n"));
            }
            4 => {
                let i = self.below(4);
                let e = self.expr();
                out.push_str(&format!("{indent}arr[{i}] = {e};\n"));
            }
            5 => {
                let d = self.below(4);
                let i = self.below(4);
                out.push_str(&format!("{indent}t{d} = arr[{i}];\n"));
            }
            6 => {
                let d = self.below(4);
                let e = self.expr();
                out.push_str(&format!("{indent}t{d} = helper({e});\n"));
            }
            7 => {
                let e = self.expr();
                out.push_str(&format!("{indent}print(\"v=\" + intToStr({e}));\n"));
            }
            8 => {
                // if / bounded while over a fresh loop counter.
                let (x, y) = (self.expr(), self.expr());
                if self.below(2) == 0 {
                    out.push_str(&format!("{indent}if ({x} < {y}) {{\n"));
                    self.stmt(depth + 1, out, &format!("{indent}    "));
                    out.push_str(&format!("{indent}}} else {{\n"));
                    self.stmt(depth + 1, out, &format!("{indent}    "));
                    out.push_str(&format!("{indent}}}\n"));
                } else {
                    let n = self.below(3) + 1;
                    let lv = format!("l{}", self.fresh());
                    out.push_str(&format!("{indent}int {lv} = 0;\n"));
                    out.push_str(&format!("{indent}while ({lv} < {n}) {{\n"));
                    self.stmt(depth + 1, out, &format!("{indent}    "));
                    out.push_str(&format!("{indent}    {lv} = {lv} + 1;\n"));
                    out.push_str(&format!("{indent}}}\n"));
                }
            }
            _ => {
                // db traffic over keys that always exist (0..8).
                let k = self.below(8);
                let d = self.below(4);
                if self.below(2) == 0 {
                    let e = self.expr();
                    out.push_str(&format!(
                        "{indent}t{d} = dbUpdate(\"UPDATE kv SET v = v + ? WHERE k = ?\", {e}, {k});\n"
                    ));
                } else {
                    let rv = format!("r{}", self.fresh());
                    out.push_str(&format!(
                        "{indent}row[] {rv} = dbQuery(\"SELECT v FROM kv WHERE k = ?\", {k});\n"
                    ));
                    out.push_str(&format!("{indent}t{d} = {rv}[0].getInt(0);\n"));
                }
            }
        }
    }

    fn program(&mut self) -> String {
        let mut body = String::new();
        let n = self.below(6) + 3;
        for _ in 0..n {
            self.stmt(0, &mut body, "            ");
        }
        let mut helper = String::new();
        for _ in 0..self.below(3) + 1 {
            let d = self.below(4);
            // Helper uses its own temps only (no heap/db: keeps the call
            // graph read-write analysis varied but the helper total).
            helper.push_str(&format!(
                "            t{d} = (t{d} + x) * {};\n",
                self.below(5) as i64 - 2
            ));
        }
        format!(
            r#"
    class D {{
        int f0;
        int f1;
        int helper(int x) {{
            int t0 = x;
            int t1 = 1;
            int t2 = 2;
            int t3 = 3;
{helper}            return t0 + t1 + t2 + t3;
        }}
        int run(int a, int b) {{
            int t0 = 0;
            int t1 = 1;
            int t2 = a;
            int t3 = b;
            this.f0 = a;
            this.f1 = b;
            int[] arr = new int[4];
{body}            return ((t0 + t1) + (t2 + t3)) + (this.f0 + this.f1);
        }}
    }}
"#
        )
    }
}

fn kv_engine() -> Engine {
    let mut db = Engine::new();
    db.create_table(TableDef::new(
        "kv",
        vec![
            ColumnDef::new("k", ColTy::Int),
            ColumnDef::new("v", ColTy::Int),
        ],
        &["k"],
    ));
    for k in 0..8 {
        db.load_row("kv", vec![Scalar::Int(k), Scalar::Int(k * 10)]);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs under random placements must compute what the
    /// unpartitioned program computes, with every wire frame intact.
    #[test]
    fn generated_programs_match_oracle(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let src = g.program();
        let prog = compile(&src).unwrap_or_else(|d| panic!("generated program compiles: {d:?}\n{src}"));
        let analysis = analyze(&prog, AnalysisConfig::default());

        // Random placement with the JDBC co-location pin respected.
        let mut db_call_stmts = vec![false; prog.stmt_count()];
        prog.for_each_stmt(|_, s| {
            if let pyx_lang::NStmtKind::Builtin { f, .. } = &s.kind {
                if f.is_db_call() {
                    db_call_stmts[s.id.index()] = true;
                }
            }
        });
        let mut placement = Placement::all_app(&prog);
        let db_side = g.below(2) == 0;
        for (i, &is_db_call) in db_call_stmts.iter().enumerate() {
            placement.stmt_side[i] = if is_db_call {
                if db_side { Side::Db } else { Side::App }
            } else if g.below(2) == 0 {
                Side::Db
            } else {
                Side::App
            };
        }
        for f in 0..prog.fields.len() {
            placement.field_side[f] = if g.below(2) == 0 { Side::Db } else { Side::App };
        }

        let reorder = g.below(2) == 0;
        let part = CompiledPartition::build(&prog, &analysis, placement, reorder);
        let entry = prog.find_method("D", "run").unwrap();
        let args = vec![
            ArgVal::Int(g.below(20) as i64 - 10),
            ArgVal::Int(g.below(20) as i64 - 10),
        ];
        assert_matches_oracle(&part, &prog, &kv_engine, &[(entry, args)], &format!("gen#{seed}"));
    }
}

#[test]
fn runtime_errors_carry_statement_context() {
    // A failing assign (division by zero) reports its source statement
    // as `stmt StmtId(n): …`; the oracle fails on it too.
    let src = r#"
        class C {
            int f(int k) {
                int z = 0;
                int r = k / z;
                return r;
            }
        }
    "#;
    let prog = compile(src).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    let part = CompiledPartition::build(&prog, &analysis, Placement::all_app(&prog), false);
    let entry = prog.find_method("C", "f").unwrap();

    let mut db = Engine::new();
    let mut sess = Session::new(&part, entry, &[ArgVal::Int(5)], &mut db).unwrap();
    let vm_err = (0..100_000)
        .find_map(|_| match sess.advance(&mut db) {
            Advance::Error(e) => Some(e.msg),
            Advance::Finished => panic!("expected a runtime error"),
            _ => None,
        })
        .expect("did not fail");
    assert!(
        vm_err.starts_with("stmt StmtId(") && vm_err.contains("division by zero"),
        "vm error shape: {vm_err}"
    );

    let mut oracle_db = Engine::new();
    let mut oracle = Interp::new(&prog, &mut oracle_db, NullTracer);
    let oracle_err = oracle_call(&mut oracle, entry, &[ArgVal::Int(5)]).expect_err("oracle fails");
    assert!(
        oracle_err.contains("division by zero"),
        "oracle error: {oracle_err}"
    );
}
