//! Property-based tests over core data structures and invariants.

use proptest::prelude::*;
use pyxis::db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyxis::ilp::{solve_lp, Constraint, Lp, LpStatus};

// ---------- database engine vs a model ----------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    Lookup(i64),
    Count,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..50, any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v % 1000)),
        (0i64..50, any::<i64>()).prop_map(|(k, v)| Op::Update(k, v % 1000)),
        (0i64..50).prop_map(Op::Delete),
        (0i64..50).prop_map(Op::Lookup),
        Just(Op::Count),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SQL engine agrees with a BTreeMap model under arbitrary
    /// insert/update/delete/lookup sequences.
    #[test]
    fn engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut db = Engine::new();
        db.create_table(TableDef::new(
            "t",
            vec![ColumnDef::new("k", ColTy::Int), ColumnDef::new("v", ColTy::Int)],
            &["k"],
        ));
        let mut model = std::collections::BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let r = db.exec_auto(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Scalar::Int(k), Scalar::Int(v)],
                    );
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(r.is_err(), "duplicate insert must fail");
                    }
                }
                Op::Update(k, v) => {
                    let r = db
                        .exec_auto(
                            "UPDATE t SET v = ? WHERE k = ?",
                            &[Scalar::Int(v), Scalar::Int(k)],
                        )
                        .unwrap();
                    let expect = u64::from(model.contains_key(&k));
                    prop_assert_eq!(r.affected, expect);
                    if let Some(slot) = model.get_mut(&k) {
                        *slot = v;
                    }
                }
                Op::Delete(k) => {
                    let r = db
                        .exec_auto("DELETE FROM t WHERE k = ?", &[Scalar::Int(k)])
                        .unwrap();
                    let expect = u64::from(model.remove(&k).is_some());
                    prop_assert_eq!(r.affected, expect);
                }
                Op::Lookup(k) => {
                    let r = db
                        .exec_auto("SELECT v FROM t WHERE k = ?", &[Scalar::Int(k)])
                        .unwrap();
                    match model.get(&k) {
                        Some(&v) => {
                            prop_assert_eq!(r.rows.len(), 1);
                            prop_assert_eq!(&r.rows[0][0], &Scalar::Int(v));
                        }
                        None => prop_assert!(r.rows.is_empty()),
                    }
                }
                Op::Count => {
                    let r = db.exec_auto("SELECT COUNT(*) FROM t", &[]).unwrap();
                    prop_assert_eq!(&r.rows[0][0], &Scalar::Int(model.len() as i64));
                }
            }
        }
        // Full scan ordering matches the model's key order.
        let all = db.exec_auto("SELECT k FROM t WHERE k >= ?", &[Scalar::Int(i64::MIN + 1)]).unwrap();
        let keys: Vec<i64> = all.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let expect: Vec<i64> = model.keys().copied().collect();
        prop_assert_eq!(keys, expect);
    }

    /// Abort restores exactly the pre-transaction state.
    #[test]
    fn abort_is_identity(
        setup in proptest::collection::vec((0i64..30, any::<i64>()), 0..20),
        work in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut db = Engine::new();
        db.create_table(TableDef::new(
            "t",
            vec![ColumnDef::new("k", ColTy::Int), ColumnDef::new("v", ColTy::Int)],
            &["k"],
        ));
        let mut seen = std::collections::HashSet::new();
        for (k, v) in setup {
            if seen.insert(k) {
                db.load_row("t", vec![Scalar::Int(k), Scalar::Int(v % 1000)]);
            }
        }
        let before = db.dump_table("t");

        let txn = db.begin();
        for op in work {
            let _ = match op {
                Op::Insert(k, v) => db.execute(
                    txn,
                    "INSERT INTO t VALUES (?, ?)",
                    &[Scalar::Int(k), Scalar::Int(v % 1000)],
                ),
                Op::Update(k, v) => db.execute(
                    txn,
                    "UPDATE t SET v = ? WHERE k = ?",
                    &[Scalar::Int(v % 1000), Scalar::Int(k)],
                ),
                Op::Delete(k) => db.execute(txn, "DELETE FROM t WHERE k = ?", &[Scalar::Int(k)]),
                Op::Lookup(k) => db.execute(txn, "SELECT v FROM t WHERE k = ?", &[Scalar::Int(k)]),
                Op::Count => db.execute(txn, "SELECT COUNT(*) FROM t", &[]),
            };
        }
        db.abort(txn).unwrap();
        prop_assert_eq!(db.dump_table("t"), before);
    }

    // ---------- simplex invariants ----------

    /// On random LPs with a bounded feasible region, the simplex result is
    /// feasible and no worse than any sampled feasible point.
    #[test]
    fn simplex_feasible_and_dominant(
        c in proptest::collection::vec(-5.0f64..5.0, 3),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.1f64..3.0, 3), 1.0f64..10.0),
            1..5
        ),
        samples in proptest::collection::vec(proptest::collection::vec(0.0f64..2.0, 3), 10),
    ) {
        let mut lp = Lp::new(3);
        lp.objective = c;
        for (coef, rhs) in &rows {
            lp.add(Constraint::le(
                coef.iter().enumerate().map(|(i, &a)| (i, a)).collect(),
                *rhs,
            ));
        }
        // Bound the region so the LP can't be unbounded.
        lp.add(Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 30.0));

        let sol = solve_lp(&lp);
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(lp.is_feasible(&sol.x, 1e-6), "optimal point must be feasible");
        for s in samples {
            if lp.is_feasible(&s, 1e-9) {
                prop_assert!(
                    sol.obj <= lp.objective_at(&s) + 1e-6,
                    "sampled feasible point beats 'optimal': {:?}",
                    s
                );
            }
        }
    }

    // ---------- values ----------

    /// eval_binop addition/multiplication on ints agrees with wrapping
    /// arithmetic; comparisons agree with Rust's.
    #[test]
    fn value_arithmetic_model(a in any::<i64>(), b in any::<i64>()) {
        use pyxis::lang::{eval_binop, Value};
        use pyxis::lang::ast::BinOp;
        let va = Value::Int(a);
        let vb = Value::Int(b);
        prop_assert_eq!(
            eval_binop(BinOp::Add, &va, &vb).unwrap(),
            Value::Int(a.wrapping_add(b))
        );
        prop_assert_eq!(
            eval_binop(BinOp::Mul, &va, &vb).unwrap(),
            Value::Int(a.wrapping_mul(b))
        );
        prop_assert_eq!(
            eval_binop(BinOp::Lt, &va, &vb).unwrap(),
            Value::Bool(a < b)
        );
        prop_assert_eq!(
            eval_binop(BinOp::Eq, &va, &vb).unwrap(),
            Value::Bool(a == b)
        );
    }

    /// Scalar total order is antisymmetric and transitive on random
    /// scalars (a total order suitable for B-tree keys).
    #[test]
    fn scalar_order_is_total(
        xs in proptest::collection::vec(
            prop_oneof![
                any::<i64>().prop_map(Scalar::Int),
                (-1e9f64..1e9).prop_map(Scalar::Double),
                any::<bool>().prop_map(Scalar::Bool),
                "[a-z]{0,6}".prop_map(|s| Scalar::Str(s.into())),
                Just(Scalar::Null),
            ],
            3,
        )
    ) {
        use std::cmp::Ordering;
        let (a, b, c) = (&xs[0], &xs[1], &xs[2]);
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
        // Transitivity.
        if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(c), Ordering::Greater);
        }
        // Reflexivity.
        prop_assert_eq!(a.total_cmp(a), Ordering::Equal);
    }
}

// ---------- reordering preserves semantics on random programs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generate random straight-line arithmetic programs, random
    /// placements, and check the reordered partitioned program computes
    /// the same value as the original under the interpreter.
    #[test]
    fn random_program_reordering_is_sound(
        ops in proptest::collection::vec((0usize..4, 0usize..6, 0usize..6), 4..20),
        sides in proptest::collection::vec(any::<bool>(), 64),
        x in -1000i64..1000,
    ) {
        // Build: int v0..v5 = x+i; then a chain of updates vD = vA op vB.
        let mut body = String::new();
        for i in 0..6 {
            body.push_str(&format!("int v{i} = x + {i};\n"));
        }
        for (op, a, b) in &ops {
            let sym = ["+", "-", "*", "+"][*op];
            let d = (a + b) % 6;
            body.push_str(&format!("v{d} = v{a} {sym} v{b};\n"));
        }
        body.push_str("return v0 + v1 + v2 + v3 + v4 + v5;\n");
        let src = format!("class C {{ int f(int x) {{\n{body}}} }}");

        let prog = pyxis::lang::compile(&src).expect("generated program compiles");
        let analysis = pyxis::analysis::analyze(&prog, pyxis::analysis::AnalysisConfig::default());

        // Oracle.
        let mut db0 = Engine::new();
        let entry = prog.find_method("C", "f").unwrap();
        let mut it = pyxis::profile::Interp::new(&prog, &mut db0, pyxis::profile::NullTracer);
        let expect = it.call_entry(entry, vec![pyxis::lang::Value::Int(x)]).unwrap();

        // Random placement + reorder + VM.
        let mut placement = pyxis::partition::Placement::all_app(&prog);
        for i in 0..prog.stmt_count() {
            placement.stmt_side[i] = if sides[i % sides.len()] {
                pyxis::partition::Side::Db
            } else {
                pyxis::partition::Side::App
            };
        }
        let part = pyxis::pyxil::CompiledPartition::build(&prog, &analysis, placement, true);
        let mut db1 = Engine::new();
        let mut sess = pyxis::runtime::Session::new(
            &part,
            entry,
            &[pyxis::runtime::ArgVal::Int(x)],
            &mut db1,
        )
        .unwrap();
        pyxis::runtime::session::run_to_completion(&mut sess, &mut db1, 1_000_000).unwrap();
        prop_assert_eq!(sess.result, expect);
    }
}
