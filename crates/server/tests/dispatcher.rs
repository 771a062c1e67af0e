//! Dispatcher behaviour tests over a small partitioned program: admission
//! and backpressure, queue drain order, wait-die restarts under
//! contention, per-entry-point monitor switching, and determinism.

use pyx_analysis::{analyze, AnalysisConfig};
use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_lang::compile;
use pyx_partition::{Placement, Side};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::monitor::LoadMonitor;
use pyx_runtime::ArgVal;
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, Env, InstantEnv, Polled, TxnRequest,
};

const SRC: &str = r#"
    class Txn {
        int bump(int k) {
            row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", k);
            int v = rs[0].getInt(0);
            dbUpdate("UPDATE kv SET v = v + ? WHERE k = ?", 1, k);
            return v;
        }
        int get(int k) {
            row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", k);
            return rs[0].getInt(0);
        }
        int put(int k) {
            dbUpdate("UPDATE kv SET v = v + ? WHERE k = ?", 1, k);
            row[] rs = dbQuery("SELECT v FROM kv WHERE k = ?", k);
            return rs[0].getInt(0);
        }
    }
"#;

struct Setup {
    jdbc: CompiledPartition,
    manual: CompiledPartition,
    bump: pyx_lang::MethodId,
    get: pyx_lang::MethodId,
    put: pyx_lang::MethodId,
}

fn setup() -> Setup {
    let prog = compile(SRC).unwrap();
    let analysis = analyze(&prog, AnalysisConfig::default());
    Setup {
        jdbc: CompiledPartition::build(&prog, &analysis, Placement::all_app(&prog), false),
        manual: CompiledPartition::build(&prog, &analysis, Placement::all_db(&prog), false),
        bump: prog.find_method("Txn", "bump").unwrap(),
        get: prog.find_method("Txn", "get").unwrap(),
        put: prog.find_method("Txn", "put").unwrap(),
    }
}

fn make_db() -> Engine {
    let mut db = Engine::new();
    db.create_table(TableDef::new(
        "kv",
        vec![
            ColumnDef::new("k", ColTy::Int),
            ColumnDef::new("v", ColTy::Int),
        ],
        &["k"],
    ));
    for i in 0..16 {
        db.load_row("kv", vec![Scalar::Int(i), Scalar::Int(100 * i)]);
    }
    db
}

fn req(entry: pyx_lang::MethodId, k: i64) -> TxnRequest {
    TxnRequest {
        entry,
        args: vec![ArgVal::Int(k)],
        label: "t",
        route: None,
    }
}

#[test]
fn admission_queue_applies_backpressure() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.jdbc),
        &mut engine,
        DispatcherConfig {
            max_sessions: 2,
            queue_cap: 1,
            ..DispatcherConfig::default()
        },
    );
    assert_eq!(disp.submit(0, req(s.bump, 0), 0), Admit::Started);
    assert_eq!(disp.submit(0, req(s.bump, 1), 1), Admit::Started);
    assert_eq!(
        disp.submit(0, req(s.bump, 2), 2),
        Admit::Queued { depth: 1 }
    );
    assert_eq!(disp.submit(0, req(s.bump, 3), 3), Admit::Rejected);
    assert_eq!(disp.active_sessions(), 2);
    assert_eq!(disp.queue_len(), 1);
    assert_eq!(disp.stats().rejected, 1);

    let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    // The queued request ran after a slot freed; the rejected one never did.
    assert_eq!(done.len(), 3);
    assert_eq!(disp.stats().completed, 3);
    let tags: Vec<u64> = done.iter().map(|d| d.tag).collect();
    assert!(tags.contains(&2) && !tags.contains(&3));
    for d in &done {
        assert!(d.error.is_none(), "{:?}", d.error);
    }
}

#[test]
fn results_match_across_deployments_and_runs_are_deterministic() {
    let s = setup();
    let run = |part: &CompiledPartition| -> (Vec<i64>, Vec<Vec<Scalar>>) {
        let mut engine = make_db();
        let mut disp = Dispatcher::new(
            Deployment::Fixed(part),
            &mut engine,
            DispatcherConfig {
                max_sessions: 4,
                ..DispatcherConfig::default()
            },
        );
        for i in 0..12 {
            disp.submit(i, req(s.bump, i as i64 % 8), i);
        }
        let mut done = disp.run_until_idle(&mut engine, &mut InstantEnv);
        done.sort_by_key(|d| d.tag);
        let vals = done
            .iter()
            .map(|d| {
                assert!(d.error.is_none(), "{:?}", d.error);
                d.finished_ns as i64
            })
            .collect();
        (vals, engine.dump_table("kv"))
    };
    let (a_t, a_state) = run(&s.jdbc);
    let (_b_t, b_state) = run(&s.manual);
    let (c_t, c_state) = run(&s.jdbc);
    assert_eq!(a_state, b_state, "JDBC and Manual reach the same db state");
    assert_eq!(a_t, c_t, "repeat runs are bit-deterministic");
    assert_eq!(a_state, c_state);
}

/// An env whose DB-load sample is scripted by the test.
struct ScriptedLoad {
    load: f64,
}

impl Env for ScriptedLoad {
    fn cpu(&mut self, now: u64, _h: Side, _c: u64) -> u64 {
        now
    }
    fn net(&mut self, now: u64, _f: Side, _t: Side, _b: u64) -> u64 {
        now
    }
    fn db_op(&mut self, now: u64, _i: Side, _c: u64, _rq: u64, _rs: u64) -> u64 {
        now
    }
    fn db_load_pct(&mut self, _now: u64) -> f64 {
        self.load
    }
}

#[test]
fn per_entry_point_monitor_switches_and_logs() {
    let s = setup();
    let mut engine = make_db();
    let poll_ns = 1_000_000;
    let mut disp = Dispatcher::new(
        Deployment::Dynamic {
            high: &s.manual,
            low: &s.jdbc,
            monitor: LoadMonitor::new(0.0, 40.0),
        },
        &mut engine,
        DispatcherConfig {
            max_sessions: 4,
            poll_interval_ns: poll_ns,
            ..DispatcherConfig::default()
        },
    );
    let mut env = ScriptedLoad { load: 0.0 };

    // Idle server: both entry points run high-budget.
    disp.submit(0, req(s.bump, 1), 0);
    disp.submit(0, req(s.get, 2), 1);
    let done = disp.run_until_idle(&mut engine, &mut env);
    assert!(done.iter().all(|d| !d.low_budget));

    // Saturate the server past several polls, then submit again: the
    // monitors must have switched both entries to the low-budget plan.
    env.load = 95.0;
    let mut t = poll_ns;
    for _ in 0..4 {
        disp.submit(t, req(s.bump, 1), 10);
        disp.submit(t, req(s.get, 2), 11);
        let _ = disp.run_until_idle(&mut engine, &mut env);
        t += 4 * poll_ns;
    }
    disp.submit(t, req(s.bump, 1), 20);
    disp.submit(t, req(s.get, 2), 21);
    let done = disp.run_until_idle(&mut engine, &mut env);
    assert!(
        done.iter().all(|d| d.low_budget),
        "after sustained load both entries run JDBC-like: {done:?}"
    );
    // The switch log recorded a flip for each entry point.
    let entries: std::collections::BTreeSet<_> =
        disp.switch_log().iter().map(|r| r.entry).collect();
    assert!(entries.contains(&s.bump) && entries.contains(&s.get));
}

/// Interleave read-only `get`s with hot-row `bump` writers. With MVCC
/// snapshot reads (the default) the read-only transactions must retire
/// with **zero** wait-die restarts, the engine must report snapshot
/// activity through the dispatcher's combined report, and the writers
/// must still all apply.
#[test]
fn read_only_transactions_never_restart_under_contention() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.jdbc),
        &mut engine,
        DispatcherConfig {
            max_sessions: 16,
            ..DispatcherConfig::default()
        },
    );
    // 8 writers and 8 readers all on the same hot key.
    for i in 0..8 {
        disp.submit(0, req(s.bump, 3), i);
        disp.submit(0, req(s.get, 3), 100 + i);
    }
    let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    assert_eq!(done.len(), 16);
    for d in &done {
        assert!(d.error.is_none(), "{:?}", d.error);
        if d.tag >= 100 {
            assert!(d.read_only, "get is a read-only entry fragment");
            assert_eq!(d.restarts, 0, "snapshot readers never wait-die");
        } else {
            assert!(!d.read_only, "bump writes");
        }
    }
    let report = disp.report(&engine);
    assert_eq!(report.dispatcher.read_only_restarts, 0);
    assert_eq!(report.dispatcher.read_only_completed, 8);
    assert_eq!(report.engine.read_only_txns, 8);
    assert!(
        report.engine.snapshot_reads >= 8,
        "gets served by snapshots"
    );
    assert!(
        report.engine.versions_created >= 8,
        "each bump commit stamps"
    );
    assert!(
        report.engine.versions_gced > 0,
        "superseded hot-row versions were collected"
    );
    // All 8 bumps applied despite the read traffic.
    let row = engine
        .dump_table("kv")
        .into_iter()
        .find(|r| r[0] == Scalar::Int(3))
        .unwrap();
    assert_eq!(row[1], Scalar::Int(308));
}

/// The same contended stream with snapshot reads disabled reproduces the
/// pre-MVCC behaviour: read-only transactions are wait-die victims again
/// (this is the regression the MVCC path removes) — while the final
/// database state stays identical.
#[test]
fn disabling_snapshots_restores_pre_mvcc_read_restarts() {
    let s = setup();
    let run = |snapshot_reads: bool| -> (u64, Vec<Vec<Scalar>>) {
        let mut engine = make_db();
        let mut disp = Dispatcher::new(
            Deployment::Fixed(&s.jdbc),
            &mut engine,
            DispatcherConfig {
                max_sessions: 16,
                snapshot_reads,
                ..DispatcherConfig::default()
            },
        );
        // Writers first (older transactions, X lock taken up front and
        // held across several scheduler steps), then the readers — under
        // 2PL the younger readers land on the held X lock and wait-die.
        for i in 0..4 {
            disp.submit(0, req(s.put, 3), i);
        }
        for i in 0..8 {
            disp.submit(0, req(s.get, 3), 100 + i);
        }
        let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
        assert_eq!(done.len(), 12);
        for d in &done {
            assert!(d.error.is_none(), "{:?}", d.error);
        }
        (disp.stats().read_only_restarts, engine.dump_table("kv"))
    };
    let (with_mvcc, state_mvcc) = run(true);
    let (without_mvcc, state_2pl) = run(false);
    assert_eq!(with_mvcc, 0, "snapshot readers never restart");
    assert!(
        without_mvcc > 0,
        "the stream genuinely contends: 2PL readers wait-die restart"
    );
    assert_eq!(state_mvcc, state_2pl, "final state identical either way");
}

#[test]
fn contention_restarts_are_counted_and_transactions_retire() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.jdbc),
        &mut engine,
        DispatcherConfig {
            max_sessions: 8,
            ..DispatcherConfig::default()
        },
    );
    // Everyone bumps the same key: write-write conflicts force lock waits
    // and possibly wait-die restarts; all must eventually retire.
    for i in 0..8 {
        disp.submit(0, req(s.bump, 3), i);
    }
    let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    assert_eq!(done.len(), 8);
    for d in &done {
        assert!(d.error.is_none(), "{:?}", d.error);
    }
    let row = engine
        .dump_table("kv")
        .into_iter()
        .find(|r| r[0] == Scalar::Int(3))
        .unwrap();
    assert_eq!(row[1], Scalar::Int(308), "all 8 bumps applied");
}

#[test]
fn contended_mix_restarts_on_recycled_scratch() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.manual),
        &mut engine,
        DispatcherConfig {
            max_sessions: 6,
            ..DispatcherConfig::default()
        },
    );
    // Readers and contending writers across all three entry points,
    // submitted at once: hot keys force lock waits and wait-die
    // restarts, and every replacement session starts on the frame slab
    // its dead incarnation (or a retired session) handed back.
    for i in 0..24u64 {
        let e = match i % 3 {
            0 => s.bump,
            1 => s.get,
            _ => s.put,
        };
        disp.submit(0, req(e, (i % 2) as i64), i);
    }
    let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    assert_eq!(done.len(), 24);
    for d in &done {
        assert!(d.error.is_none(), "{:?}", d.error);
    }
    assert!(
        disp.stats().deadlock_restarts >= 1,
        "the mix must restart at least one session"
    );
    // 8 bumps + 8 puts each add 1 exactly once, restarts included.
    let sum: i64 = engine
        .dump_table("kv")
        .iter()
        .map(|r| match r[1] {
            Scalar::Int(v) => v,
            ref other => panic!("int column, got {other:?}"),
        })
        .sum();
    assert_eq!(sum, (0..16).map(|i| 100 * i).sum::<i64>() + 16);
}

/// Admission check: a request whose argument count does not match its
/// entry retires once, with the session's own error, while the requests
/// around it run normally.
#[test]
fn mismatched_arguments_retire_with_the_session_error() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.jdbc),
        &mut engine,
        DispatcherConfig::default(),
    );
    let no_args = TxnRequest {
        args: Vec::new(),
        ..req(s.bump, 0)
    };
    for (tag, r) in [(0, req(s.bump, 5)), (1, no_args), (2, req(s.put, 6))] {
        assert_eq!(disp.submit(0, r, tag), Admit::Started);
    }
    let mut done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    done.sort_by_key(|d| d.tag);
    let errors: Vec<Option<&str>> = done.iter().map(|d| d.error.as_deref()).collect();
    assert_eq!(
        errors,
        [
            None,
            Some("runtime error: entry `bump` expects 1 args, got 0"),
            None
        ]
    );
    assert_eq!(disp.stats().completed, 3);
}

/// Admission check: a request naming an entry id past the program's
/// method table retires once with an error — here straight off the
/// admission queue, handing its session slot to the request behind it.
#[test]
fn unknown_entry_retires_with_an_error() {
    let s = setup();
    let mut engine = make_db();
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.jdbc),
        &mut engine,
        DispatcherConfig {
            max_sessions: 1,
            ..DispatcherConfig::default()
        },
    );
    assert_eq!(disp.submit(0, req(s.bump, 1), 0), Admit::Started);
    let unknown = req(pyx_lang::MethodId(9999), 1);
    assert_eq!(disp.submit(0, unknown, 1), Admit::Queued { depth: 1 });
    assert_eq!(
        disp.submit(0, req(s.bump, 1), 2),
        Admit::Queued { depth: 2 }
    );
    let done = disp.run_until_idle(&mut engine, &mut InstantEnv);
    let retired: Vec<(u64, Option<&str>)> =
        done.iter().map(|d| (d.tag, d.error.as_deref())).collect();
    assert_eq!(
        retired,
        [
            (0, None),
            (1, Some("runtime error: unknown entry method 9999")),
            (2, None)
        ]
    );
    assert_eq!(disp.active_sessions() + disp.queue_len(), 0);
    let row = engine
        .dump_table("kv")
        .into_iter()
        .find(|r| r[0] == Scalar::Int(1))
        .unwrap();
    assert_eq!(row[1], Scalar::Int(102), "both good bumps applied");
}

/// A session waiting on a lock leaves the dispatcher idle until its
/// wake; nothing retries it meanwhile. The holder is a younger
/// transaction opened directly on the engine, as a cross-shard branch is
/// on a shard worker, so its commit's wake list reaches the dispatcher
/// only through `wake_txns`.
#[test]
fn blocked_session_idles_until_its_wake() {
    let s = setup();
    let mut db = make_db();
    // Younger than any session, so wait-die makes the session wait.
    let holder = db.begin_aged(u64::MAX >> 1);
    db.execute(
        holder,
        "UPDATE kv SET v = v + ? WHERE k = ?",
        &[Scalar::Int(1), Scalar::Int(3)],
    )
    .expect("the holder locks row 3");
    let mut disp = Dispatcher::new(
        Deployment::Fixed(&s.manual),
        &mut db,
        DispatcherConfig::default(),
    );
    assert_eq!(disp.submit(0, req(s.put, 3), 0), Admit::Started);
    let mut env = InstantEnv;
    let idle = (0..10_000).any(|_| match disp.poll(&mut db, &mut env) {
        Polled::Done(d) => panic!("retired while the lock is held: {d:?}"),
        Polled::Progress => false,
        Polled::Idle => true,
    });
    assert!(idle, "a session waiting on a lock leaves nothing to poll");
    assert_eq!(disp.active_sessions(), 1);

    let (_, woken) = db.commit(holder).expect("the holder commits");
    disp.wake_txns(&woken);
    let done = disp.run_until_idle(&mut db, &mut env);
    assert_eq!(done.len(), 1, "the woken session retires");
    assert!(done[0].error.is_none(), "{:?}", done[0].error);
    assert_eq!(done[0].result, Some(pyx_lang::Value::Int(302)));
}
