//! Sharded-serving correctness: the shard-per-core tier must be
//! observationally identical to one dispatcher over one engine.
//!
//! * **Differential**: the same TPC-C request stream through a
//!   `ShardedServer` (W shards) and through a single `Dispatcher`, with
//!   per-transaction results compared tag-for-tag and the shards' merged
//!   final state compared row-for-row against the single engine — for a
//!   purely partitionable mix, for a mix with cross-shard transactions
//!   (including writes to a replicated table, which must fan out to every
//!   replica), and for a remote-warehouse TPC-C mix at ≥10%
//!   multi-partition fraction. Cross-shard transactions run through 2PC
//!   on their home shard and must agree with the single engine.
//! * **2PC concurrency**: two cross-shard transactions with disjoint
//!   participant sets commit concurrently (one parked mid-commit while
//!   the other completes), a younger transaction blocked by a parked
//!   one restarts under wait-die and retires exactly once, and a
//!   concurrent burst of transfers conserves total stock exactly.
//! * **Partition property** (proptest): over random scales/shard counts,
//!   the sharded loader places every row of a shard-keyed table on
//!   exactly the shard `shard_of` names — no loss, no duplication — and
//!   keeps replicated tables byte-identical across shards.
//! * **Backpressure**: a shard thread admits exactly `max_sessions +
//!   queue_cap` unretired routed requests and, as a home, exactly
//!   `coordinators + queue_cap` cross-shard ones; past that a submit is
//!   rejected instead of blocking, `submit_by_deadline` waits out the
//!   saturation by filing retirements, handing each one back exactly
//!   once, and a saturated shard still serves other homes' ops.
//! * **One decider**: a participant that cannot log its commit decision
//!   crash-stops instead of aborting the branch; a branch lost with its
//!   shard's incarnation fails as a participant death; constant sites
//!   and dynamic SQL reach a respawned shard as text.
//! * **A home's death**: killed with a branch open on another shard, at
//!   its vote, or after its decision, the home takes its transaction
//!   down with it — every branch ends, all of them committed or none,
//!   and the registry drains.

use proptest::prelude::*;
use pyx_db::{shard_of, DbError, Engine, FaultPlan, FaultySink, LogSink, MemSink, Scalar, Wal};
use pyx_pyxil::CompiledPartition;
use pyx_server::{
    Admit, Deployment, Dispatcher, DispatcherConfig, HoldPoint, InstantEnv, ShardedConfig,
    ShardedServer, TxnDone, TxnRequest,
};
use pyx_workloads::tpcc;
use std::collections::HashSet;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// TPC-C new-order plus three cross-shard entry points: a warehouse-to-
/// warehouse stock transfer, a replicated-table write, and a scatter
/// count. `newOrder` is byte-for-byte the partitionable transaction the
/// `tpcc` module ships.
const MIXED_SRC: &str = r#"
    class Mixed {
        double newOrder(int wId, int dId, int cId, int[] itemIds, int[] qtys) {
            row[] wr = dbQuery("SELECT w_tax FROM warehouse WHERE w_id = ?", wId);
            double wTax = wr[0].getDouble(0);
            dbUpdate("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", wId, dId);
            row[] dr = dbQuery("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", wId, dId);
            double dTax = dr[0].getDouble(0);
            int oId = dr[0].getInt(1) - 1;
            row[] cr = dbQuery("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", wId, dId, cId);
            double cDisc = cr[0].getDouble(0);
            dbUpdate("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", wId, dId, oId, cId, itemIds.length);
            dbUpdate("INSERT INTO new_order VALUES (?, ?, ?)", wId, dId, oId);
            double total = 0.0;
            int ol = 0;
            for (int iid : itemIds) {
                if (iid < 0) {
                    rollback();
                    return 0.0 - 1.0;
                }
                row[] ir = dbQuery("SELECT i_price FROM item WHERE i_id = ?", iid);
                double price = ir[0].getDouble(0);
                row[] sr = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", wId, iid);
                int sq = sr[0].getInt(0);
                int qty = qtys[ol];
                int newQ = sq - qty;
                if (newQ < 10) { newQ = newQ + 91; }
                dbUpdate("UPDATE stock SET s_quantity = ? WHERE s_w_id = ? AND s_i_id = ?", newQ, wId, iid);
                double amount = price * toDouble(qty);
                dbUpdate("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", wId, dId, oId, ol, iid, qty, amount);
                total = total + amount;
                ol = ol + 1;
            }
            total = total * (1.0 + wTax + dTax) * (1.0 - cDisc);
            return total;
        }

        int transfer(int fromW, int toW, int iid, int qty) {
            row[] a = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", fromW, iid);
            int have = a[0].getInt(0);
            if (have < qty) { return 0 - 1; }
            dbUpdate("UPDATE stock SET s_quantity = s_quantity - ? WHERE s_w_id = ? AND s_i_id = ?", qty, fromW, iid);
            dbUpdate("UPDATE stock SET s_quantity = s_quantity + ? WHERE s_w_id = ? AND s_i_id = ?", qty, toW, iid);
            return have - qty;
        }

        int reprice(int iid, double p) {
            int n = dbUpdate("UPDATE item SET i_price = ? WHERE i_id = ?", p, iid);
            return n;
        }

        int stockRows(int q) {
            row[] rs = dbQuery("SELECT s_i_id FROM stock WHERE s_quantity = ?", q);
            return rs.length;
        }

        int badScan() {
            row[] rs = dbQuery("SELECT s_i_id FROM stock ORDER BY s_quantity LIMIT 1");
            return rs.length;
        }

        int dynRead(int w) {
            // Dynamically computed SQL: not a constant site, so the
            // coordinator sends it to the shards as text.
            row[] rs = dbQuery("SELECT d_id FROM district WHERE d_w_id = " + intToStr(w));
            return rs.length;
        }
    }
"#;

fn compile_jdbc(src: &str) -> (pyx_core::Pyxis, CompiledPartition) {
    let pyxis =
        pyx_core::Pyxis::compile(src, pyx_core::PyxisConfig::default()).expect("source compiles");
    let part = pyxis.deploy_jdbc();
    (pyxis, part)
}

/// Run a request stream *serialized* (one transaction at a time) through
/// one dispatcher over one engine.
fn run_single(part: &CompiledPartition, engine: &mut Engine, reqs: &[TxnRequest]) -> Vec<TxnDone> {
    let mut disp = Dispatcher::new(Deployment::Fixed(part), engine, DispatcherConfig::default());
    let mut env = InstantEnv;
    let mut out = Vec::new();
    for (tag, req) in reqs.iter().enumerate() {
        assert_eq!(
            disp.submit(0, req.clone(), tag as u64),
            Admit::Started,
            "serialized submission always admits"
        );
        let done = disp.run_until_idle(engine, &mut env);
        assert_eq!(done.len(), 1);
        out.extend(done);
    }
    out
}

/// Run the same stream serialized through a `ShardedServer`.
fn run_sharded(
    part: &Arc<CompiledPartition>,
    engines: Vec<Engine>,
    shards: usize,
    reqs: &[TxnRequest],
) -> (Vec<TxnDone>, pyx_server::ShardedReport) {
    let mut srv = ShardedServer::new(
        Arc::clone(part),
        engines,
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        },
    );
    let mut out = Vec::new();
    for (tag, req) in reqs.iter().enumerate() {
        assert_eq!(srv.submit(req.clone(), tag as u64), Admit::Started);
        let d = srv.recv_done().expect("one in flight");
        out.push(d);
    }
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    (out, report)
}

fn sort_rows(mut rows: Vec<Vec<Scalar>>) -> Vec<Vec<Scalar>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Merged-state equality: for every table, the union of the shards' rows
/// (replicated tables: each replica individually) must equal the single
/// engine's rows; shard-keyed rows must sit on the shard `shard_of`
/// names.
fn assert_state_matches(single: &Engine, shards: &[Engine]) {
    let w = shards.len();
    for table in single.table_names() {
        let expect = sort_rows(single.dump_table(&table));
        let def = single.table_def(&table).expect("table exists");
        match def.shard_key {
            Some(sc) => {
                let mut union = Vec::new();
                for (s, e) in shards.iter().enumerate() {
                    for row in e.dump_table(&table) {
                        assert_eq!(
                            shard_of(&row[sc], w),
                            s,
                            "row {row:?} of `{table}` landed on shard {s}"
                        );
                        union.push(row);
                    }
                }
                assert_eq!(sort_rows(union), expect, "merged `{table}` state");
            }
            None => {
                for (s, e) in shards.iter().enumerate() {
                    assert_eq!(
                        sort_rows(e.dump_table(&table)),
                        expect,
                        "replica `{table}` on shard {s}"
                    );
                }
            }
        }
    }
}

fn fresh_shards(scale: tpcc::TpccScale, seed: u64, w: usize) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..w)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale, seed);
    engines
}

fn fresh_single(scale: tpcc::TpccScale, seed: u64) -> Engine {
    let mut e = Engine::new();
    tpcc::create_schema(&mut e);
    tpcc::load(&mut e, scale, seed);
    e
}

/// How long a submit may ride out a failover window.
fn admit_deadline() -> Instant {
    Instant::now() + Duration::from_millis(52)
}

fn scale8() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        districts_per_wh: 3,
        customers_per_district: 10,
        items: 100,
    }
}

#[test]
fn sharded_matches_single_on_partitionable_tpcc() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let seed = 11;

    let mut gen = tpcc::NewOrderGen::new(entry, scale, 42).with_lines(2, 5);
    let reqs: Vec<TxnRequest> = (0..120)
        .map(|i| pyx_server::Workload::next_txn(&mut gen, i))
        .collect();
    assert!(
        reqs.iter().all(|r| r.route.is_some()),
        "TPC-C new-order derives its home warehouse as the routing key"
    );

    let mut single = fresh_single(scale, seed);
    let singles = run_single(&part, &mut single, &reqs);

    let part = Arc::new(part);
    let engines = fresh_shards(scale, seed, 4);
    let (shardeds, report) = run_sharded(&part, engines, 4, &reqs);

    assert_eq!(
        report.multi_txns, 0,
        "home-warehouse mix never goes cross-shard"
    );
    assert_eq!(singles.len(), shardeds.len());
    for (a, b) in singles.iter().zip(&shardeds) {
        assert_eq!(a.tag, b.tag, "serialized order preserved");
        assert_eq!(a.result, b.result, "txn {} result", a.tag);
        assert_eq!(a.rolled_back, b.rolled_back, "txn {} rollback", a.tag);
        assert_eq!(a.error, b.error, "txn {} error", a.tag);
    }
    assert_state_matches(&single, &report.engines);
    let completed: u64 = report.dispatchers.iter().map(|d| d.completed).sum();
    assert_eq!(completed, 120, "every request retired on a shard worker");
}

#[test]
fn cross_shard_mix_matches_single() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let new_order = pyxis.entry("Mixed", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let reprice = pyxis.entry("Mixed", "reprice").expect("reprice");
    let stock_rows = pyxis.entry("Mixed", "stockRows").expect("stockRows");
    let dyn_read = pyxis.entry("Mixed", "dynRead").expect("dynRead");
    let scale = scale8();
    let seed = 23;

    let mut gen = tpcc::NewOrderGen::new(new_order, scale, 77).with_lines(2, 4);
    let mut reqs = Vec::new();
    let mut multi_expected = 0u64;
    for i in 0..90usize {
        match i % 5 {
            // Cross-warehouse stock transfer: touches two shards.
            2 => {
                let (from, to) = ((i as i64 % 8) + 1, ((i as i64 + 3) % 8) + 1);
                reqs.push(TxnRequest {
                    entry: transfer,
                    args: vec![
                        pyx_runtime::ArgVal::Int(from),
                        pyx_runtime::ArgVal::Int(to),
                        pyx_runtime::ArgVal::Int((i as i64 % 100) + 1),
                        pyx_runtime::ArgVal::Int(3),
                    ],
                    label: "transfer",
                    route: None,
                });
                multi_expected += 1;
            }
            // Replicated-table write: must reach every replica.
            4 => {
                reqs.push(TxnRequest {
                    entry: reprice,
                    args: vec![
                        pyx_runtime::ArgVal::Int((i as i64 % 100) + 1),
                        pyx_runtime::ArgVal::Double(1.5 + i as f64),
                    ],
                    label: "reprice",
                    route: None,
                });
                multi_expected += 1;
            }
            _ => reqs.push(pyx_server::Workload::next_txn(&mut gen, i)),
        }
    }
    // A mergeable scatter read (equality on a non-shard column).
    reqs.push(TxnRequest {
        entry: stock_rows,
        args: vec![pyx_runtime::ArgVal::Int(55)],
        label: "stock-rows",
        route: None,
    });
    multi_expected += 1;
    // Dynamic SQL through the coordinator's ad-hoc path (distinct statement
    // text per warehouse: exercises registration + routing of computed
    // statements).
    for w in 1..=8i64 {
        reqs.push(TxnRequest {
            entry: dyn_read,
            args: vec![pyx_runtime::ArgVal::Int(w)],
            label: "dyn-read",
            route: None,
        });
        multi_expected += 1;
    }

    let mut single = fresh_single(scale, seed);
    let singles = run_single(&part, &mut single, &reqs);

    let part = Arc::new(part);
    let engines = fresh_shards(scale, seed, 4);
    let (shardeds, report) = run_sharded(&part, engines, 4, &reqs);

    assert_eq!(report.multi_txns, multi_expected);
    for (a, b) in singles.iter().zip(&shardeds) {
        assert_eq!(a.result, b.result, "txn {} ({})", a.tag, a.label);
        assert_eq!(a.rolled_back, b.rolled_back, "txn {}", a.tag);
        assert_eq!(a.error, b.error, "txn {}", a.tag);
    }
    assert_state_matches(&single, &report.engines);
    let merged = report.merged_engine_stats();
    // Transfers between different-shard warehouses run real 2PC prepare
    // rounds; single-shard and replicated work does not prepare
    // spuriously.
    assert!(merged.prepares > 0, "2PC mix runs prepare rounds");
    assert!(report.multi_participants > 0);
}

#[test]
fn coordinator_rejects_unroutable_ordered_scan() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let bad = pyxis.entry("Mixed", "badScan").expect("badScan");
    let engines = fresh_shards(scale8(), 5, 2);
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    srv.submit(
        TxnRequest {
            entry: bad,
            args: vec![],
            label: "bad-scan",
            route: None,
        },
        0,
    );
    let d = srv.recv_done().expect("cross-shard result");
    let err = d.error.expect("ordered cross-shard scan must fail loudly");
    assert!(err.contains("not routable"), "{err}");
    srv.shutdown();
}

#[test]
fn sharded_backpressure_rejects_when_saturated() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let part = Arc::new(part);
    let engines = fresh_shards(scale, 3, 2);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 2,
            dispatcher: DispatcherConfig {
                max_sessions: 1,
                queue_cap: 2,
                ..DispatcherConfig::default()
            },
            ..ShardedConfig::default()
        },
    );
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 9).with_lines(2, 4);
    let mut accepted = 0u64;
    for i in 0..5_000usize {
        match srv.submit(pyx_server::Workload::next_txn(&mut gen, i), i as u64) {
            Admit::Started | Admit::Queued { .. } => accepted += 1,
            Admit::Rejected => {}
            Admit::Unavailable => panic!("no worker died in this test"),
        }
    }
    // Nothing retires into the server while it only submits, so each
    // shard admits exactly its bound: max_sessions + queue_cap = 1 + 2.
    assert_eq!(accepted, 6, "2 shards × (1 + 2)");
    let done = srv.drain();
    assert_eq!(done.len() as u64, accepted, "accepted requests all retire");
    srv.shutdown();
}

/// Collect every in-flight retirement without ever blocking past
/// `limit`: a retirement lost inside the server fails the count check
/// below instead of hanging `drain`.
fn collect_all(srv: &mut ShardedServer, limit: Duration) -> Vec<TxnDone> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while srv.in_flight() > 0 && t0.elapsed() < limit {
        match srv.try_recv_done() {
            Some(d) => out.push(d),
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    out
}

/// `submit_by_deadline` on the saturated shard of
/// `sharded_backpressure_rejects_when_saturated`: it admits once the
/// worker drains (the caller never calls `recv_done`), returns `Rejected`
/// only after its deadline when nothing can drain, and every retirement
/// it consumed while waiting comes back out exactly once.
#[test]
fn submit_by_deadline_waits_out_saturation_and_hands_back_retirements() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let engines = fresh_shards(scale, 3, 2);
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            coordinators: 1,
            dispatcher: DispatcherConfig {
                max_sessions: 1,
                queue_cap: 2,
                ..DispatcherConfig::default()
            },
        },
    );
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 9).with_lines(2, 4);
    let mut next = |i: usize| pyx_server::Workload::next_txn(&mut gen, i);

    // Saturate: plain submits until the shard pushes back.
    let mut admitted: HashSet<u64> = HashSet::new();
    let mut tag = 0u64;
    let refused = loop {
        assert!(tag < 5_000, "tiny channels must push back under a burst");
        let req = next(tag as usize);
        match srv.submit(req.clone(), tag) {
            Admit::Started | Admit::Queued { .. } => assert!(admitted.insert(tag)),
            Admit::Rejected => break req,
            Admit::Unavailable => panic!("no worker died in this test"),
        }
        tag += 1;
    };
    // The refused request is admitted once the worker drains, and a
    // further burst rides the same saturation — all without `recv_done`.
    let far = Instant::now() + Duration::from_secs(10);
    for req in std::iter::once(refused).chain((0..100).map(|i| next(10_000 + i))) {
        match srv.submit_by_deadline(req, tag, far) {
            Admit::Started | Admit::Queued { .. } => assert!(admitted.insert(tag)),
            other => panic!("admission must succeed once the shard drains: {other:?}"),
        }
        tag += 1;
    }
    let done = collect_all(&mut srv, Duration::from_secs(30));
    let tags: HashSet<u64> = done.iter().map(|d| d.tag).collect();
    assert_eq!(done.len(), admitted.len(), "every admitted request retires");
    assert_eq!(tags, admitted, "each retirement comes back exactly once");
    assert!(done.iter().all(|d| d.error.is_none()), "healthy run");

    // Nothing can drain: each home runs one cross-shard session, and
    // every cross-shard new-order hits the same district row, which the
    // first holds while parked mid-commit. Its younger peers die on that
    // lock and restart, or queue behind them, so each home holds its
    // bound and a cross-shard submit is refused — but only once its
    // deadline has passed.
    let mut cross = |i: usize| {
        let mut r = next(20_000 + i);
        r.args[0] = pyx_runtime::ArgVal::Int(1);
        r.args[1] = pyx_runtime::ArgVal::Int(1);
        TxnRequest { route: None, ..r }
    };
    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    let mut parked: HashSet<u64> = HashSet::new();
    assert_eq!(srv.submit(cross(0), tag), Admit::Started);
    parked.insert(tag);
    tag += 1;
    held.recv_timeout(Duration::from_secs(30))
        .expect("cross-shard transaction parks mid-commit");
    let mut queued = 1;
    let blocked = loop {
        let req = cross(queued);
        match srv.submit(req.clone(), tag) {
            Admit::Started => assert!(parked.insert(tag)),
            Admit::Rejected => break req,
            other => panic!("coordinator queue admits or rejects: {other:?}"),
        }
        tag += 1;
        queued += 1;
    };
    assert_eq!(
        parked.len(),
        6,
        "each of the 2 homes admits exactly coordinators + queue_cap = 1 + 2"
    );
    let deadline = Instant::now() + Duration::from_millis(50);
    assert_eq!(
        srv.submit_by_deadline(blocked, tag, deadline),
        Admit::Rejected
    );
    assert!(Instant::now() >= deadline, "rejected before its deadline");
    release.send(()).expect("coordinator waits on the release");
    let done = collect_all(&mut srv, Duration::from_secs(30));
    let tags: HashSet<u64> = done.iter().map(|d| d.tag).collect();
    assert_eq!(tags, parked, "parked and queued jobs retire exactly once");
    assert_eq!(done.len(), parked.len());
    assert!(done.iter().all(|d| d.error.is_none()), "healthy run");
    srv.shutdown();
}

/// A home's ops share a shard thread's one inbox with submits, and the
/// thread drains the whole inbox every turn, so a cross-shard commit
/// reaches a shard whose dispatcher is full. T1 (w0→w1) is held
/// at its commit point with shard 0's stock row locked; routed transfers
/// on that row fill shard 0's one session and one queue slot, and the
/// next is refused. Released, T1 commits on the full shard, and all
/// three retire.
#[test]
fn saturated_shard_still_serves_its_coordinators() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let mut srv = ShardedServer::new(
        Arc::new(part),
        fresh_shards(scale8(), 79, 2),
        ShardedConfig {
            shards: 2,
            coordinators: 1,
            dispatcher: DispatcherConfig {
                max_sessions: 1,
                queue_cap: 1,
                ..DispatcherConfig::default()
            },
        },
    );
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let pair = |from: i64, to: i64, route: Option<i64>| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(1),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route,
    };

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(srv.submit(pair(wh(0), wh(1), None), 0), Admit::Started);
    held.recv_timeout(Duration::from_secs(30))
        .expect("T1 parks at its commit point with shard 0's row locked");
    let mut routed: HashSet<u64> = HashSet::new();
    for tag in 1..100u64 {
        match srv.submit(pair(wh(0), wh(0), Some(wh(0))), tag) {
            Admit::Started | Admit::Queued { .. } => assert!(routed.insert(tag)),
            Admit::Rejected => break,
            Admit::Unavailable => panic!("no worker died in this test"),
        }
    }
    assert_eq!(
        routed.len(),
        2,
        "shard 0 admits max_sessions + queue_cap = 1 + 1"
    );

    release.send(()).expect("release T1");
    let done = collect_all(&mut srv, Duration::from_secs(30));
    let tags: HashSet<u64> = done.iter().map(|d| d.tag).collect();
    routed.insert(0);
    assert_eq!(tags, routed, "T1 and both routed transfers retire");
    assert_eq!(done.len(), 3);
    for d in &done {
        assert!(d.error.is_none(), "txn {}: {:?}", d.tag, d.error);
    }
    let (_, report) = srv.shutdown();
    assert_eq!(report.multi_txns, 1);
}

#[test]
fn concurrent_disjoint_warehouses_deterministic() {
    // Rounds of 8 requests, one per warehouse, all 8 in flight at once
    // across the 4 shards: within a round write sets are disjoint (item
    // is read-only), so genuinely parallel execution must still
    // reproduce the serialized single-engine state exactly. A drain
    // barrier between rounds keeps same-warehouse requests ordered.
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let seed = 31;
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 13)
        .with_lines(2, 4)
        .with_rollback_pct(0.0);
    // Round-robin the home warehouse deterministically.
    let mut reqs: Vec<TxnRequest> = Vec::new();
    for i in 0..160usize {
        let mut r = pyx_server::Workload::next_txn(&mut gen, i);
        let w = (i as i64 % 8) + 1;
        r.args[0] = pyx_runtime::ArgVal::Int(w);
        r.route = Some(w);
        reqs.push(r);
    }

    let mut single = fresh_single(scale, seed);
    run_single(&part, &mut single, &reqs);

    let part = Arc::new(part);
    let engines = fresh_shards(scale, seed, 4);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 4,
            ..ShardedConfig::default()
        },
    );
    for (round, chunk) in reqs.chunks(8).enumerate() {
        for (i, req) in chunk.iter().enumerate() {
            assert_eq!(
                srv.submit(req.clone(), (round * 8 + i) as u64),
                Admit::Started
            );
        }
        let done = srv.drain();
        assert_eq!(done.len(), chunk.len());
        assert!(done.iter().all(|d| d.error.is_none()));
    }
    let (_, report) = srv.shutdown();
    assert_state_matches(&single, &report.engines);
}

#[test]
fn per_shard_wal_recovery_rebuilds_every_shard_independently() {
    // Serve a mixed stream — partitionable new-orders plus cross-shard
    // transactions (transfers touch two shards, reprices touch every
    // replica) — with one WAL per shard under group commit, then treat
    // the post-shutdown engines as the lost in-memory state and rebuild
    // each shard from its own log alone.
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let new_order = pyxis.entry("Mixed", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let reprice = pyxis.entry("Mixed", "reprice").expect("reprice");
    let scale = scale8();
    let seed = 47;
    let w = 4usize;

    let mut gen = tpcc::NewOrderGen::new(new_order, scale, 19).with_lines(2, 4);
    let mut reqs = Vec::new();
    for i in 0..60usize {
        match i % 6 {
            3 => reqs.push(TxnRequest {
                entry: transfer,
                args: vec![
                    pyx_runtime::ArgVal::Int((i as i64 % 8) + 1),
                    pyx_runtime::ArgVal::Int(((i as i64 + 5) % 8) + 1),
                    pyx_runtime::ArgVal::Int((i as i64 % 100) + 1),
                    pyx_runtime::ArgVal::Int(2),
                ],
                label: "transfer",
                route: None,
            }),
            5 => reqs.push(TxnRequest {
                entry: reprice,
                args: vec![
                    pyx_runtime::ArgVal::Int((i as i64 % 100) + 1),
                    pyx_runtime::ArgVal::Double(2.0 + i as f64),
                ],
                label: "reprice",
                route: None,
            }),
            _ => reqs.push(pyx_server::Workload::next_txn(&mut gen, i)),
        }
    }

    let sinks: Vec<MemSink> = (0..w).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, w);
    ShardedServer::attach_shard_wals(&mut engines, 4, |i| Box::new(sinks[i].clone()));
    let part = Arc::new(part);
    let (dones, report) = run_sharded(&part, engines, w, &reqs);
    assert!(
        dones.iter().all(|d| d.error.is_none()),
        "healthy run: no durability errors"
    );
    assert!(report.multi_txns > 0, "the mix goes cross-shard");
    let merged = report.merged_engine_stats();
    assert!(merged.wal_records > 0, "commits were logged");
    assert!(merged.wal_fsyncs > 0, "acknowledgement points flushed");
    assert!(merged.wal_bytes > 0);

    // Every acknowledged commit must be durable: rebuild each shard from
    // its own log and compare against the crashed in-memory state.
    let mut recovered = fresh_shards(scale, seed, w);
    ShardedServer::attach_shard_wals(&mut recovered, 4, |_| Box::new(MemSink::new()));
    for (i, r) in recovered.iter_mut().enumerate() {
        let rep = r
            .recover(&sinks[i].durable_bytes())
            .unwrap_or_else(|e| panic!("shard {i} recovery failed: {e}"));
        assert_eq!(rep.truncated_bytes, 0, "clean shutdown leaves no torn tail");
    }
    for (i, (r, crashed)) in recovered.iter().zip(&report.engines).enumerate() {
        for table in crashed.table_names() {
            assert_eq!(
                sort_rows(r.dump_table(&table)),
                sort_rows(crashed.dump_table(&table)),
                "shard {i} table `{table}` after recovery"
            );
        }
        assert_eq!(r.current_commit_ts(), crashed.current_commit_ts());
    }

    // Logs are shard-stamped: replaying shard 1's log into shard 0's
    // engine must fail loudly, not silently cross-pollinate.
    if !sinks[1].durable_bytes().is_empty() {
        let mut wrong = fresh_shards(scale, seed, w);
        ShardedServer::attach_shard_wals(&mut wrong, 4, |_| Box::new(MemSink::new()));
        match wrong[0].recover(&sinks[1].durable_bytes()) {
            Err(DbError::Durability(m)) => assert!(m.contains("belongs to shard"), "{m}"),
            Err(e) => panic!("wrong error class: {e}"),
            Ok(_) => panic!("shard-mismatched log must be refused"),
        }
    }
}

/// A log sink that holds its first `sync` until the paired sender fires
/// or drops, so a shard worker logging to it reports no commit before
/// then.
struct GatedSink(Option<mpsc::Receiver<()>>);

impl LogSink for GatedSink {
    fn append(&mut self, _: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        if let Some(gate) = self.0.take() {
            let _ = gate.recv();
        }
        Ok(())
    }
}

#[test]
fn dead_worker_surfaces_errors_and_shard_goes_unavailable() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let part = Arc::new(part);
    let mut engines = fresh_shards(scale, 3, 2);
    let (open_gate, gate) = mpsc::channel::<()>();
    engines[0].set_wal(Wal::new(Box::new(GatedSink(Some(gate)))));
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    // Warehouse ids that route to each shard.
    let w_dead = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 0)
        .expect("some warehouse routes to shard 0");
    let w_live = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 1)
        .expect("some warehouse routes to shard 1");
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 71).with_lines(2, 4);
    let routed = |gen: &mut tpcc::NewOrderGen, i: usize, w: i64| {
        let mut r = pyx_server::Workload::next_txn(gen, i);
        r.args[0] = pyx_runtime::ArgVal::Int(w);
        r.route = Some(w);
        r
    };

    // Arm the kill pill first (the channel is ordered, so the countdown
    // is in place before any work arrives), then submit four
    // transactions while shard 0's log holds its first sync: the worker
    // can report no result, and so cannot die, before all four are
    // queued. Then it reports exactly two and dies with two in flight.
    srv.inject_worker_crash(0, 2);
    for i in 0..4usize {
        assert_eq!(
            srv.submit(routed(&mut gen, i, w_dead), i as u64),
            Admit::Started
        );
    }
    drop(open_gate);
    let mut ok = 0;
    let mut lost = Vec::new();
    for _ in 0..4 {
        let d = srv.recv_done().expect("all four must retire");
        match d.error {
            None => ok += 1,
            Some(e) => {
                assert!(e.contains("worker died"), "{e}");
                lost.push(d.tag);
            }
        }
    }
    assert_eq!(ok, 2, "results shipped before the crash still count");
    assert_eq!(lost.len(), 2, "in-flight losses surface as error results");
    assert_eq!(srv.dead_shards(), vec![0]);

    // The dead shard refuses new work up front…
    assert_eq!(
        srv.submit(routed(&mut gen, 100, w_dead), 100),
        Admit::Unavailable
    );
    // …while the healthy shard keeps serving.
    assert_eq!(
        srv.submit(routed(&mut gen, 101, w_live), 101),
        Admit::Started
    );
    let d = srv.recv_done().expect("healthy shard result");
    assert_eq!(d.tag, 101);
    assert!(d.error.is_none(), "{:?}", d.error);

    // Shutdown is clean despite the death: the crashed worker contributes
    // default stats and its engine comes back for inspection/recovery.
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.engines.len(), 2);
}

/// Run `f` on a thread of its own and fail unless it returns within
/// `limit`: a lost wake then fails the test instead of hanging it.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("returned before the watchdog fired")
}

/// A two-shard TPC-C server, plus a generator of new-orders routed to a
/// warehouse on a given shard.
fn two_shard_server() -> (ShardedServer, impl FnMut(usize) -> TxnRequest) {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let srv = ShardedServer::new(
        Arc::new(part),
        fresh_shards(scale, 3, 2),
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 71).with_lines(2, 4);
    let mut i = 0;
    let on_shard = move |s: usize| {
        let w = (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == s)
            .expect("some warehouse routes to each shard");
        let mut r = pyx_server::Workload::next_txn(&mut gen, i);
        i += 1;
        r.args[0] = pyx_runtime::ArgVal::Int(w);
        r.route = Some(w);
        r
    };
    (srv, on_shard)
}

/// With nothing in flight, a `Waker` fired from another thread ends
/// `wait`, and the wake itself delivers no result.
#[test]
fn wait_returns_when_a_waker_fires() {
    let (mut srv, _) = two_shard_server();
    let waker = srv.waker();
    let mut srv = within(Duration::from_secs(30), move || {
        // Fires while the wait most likely blocks; fired first, it must
        // still end the wait.
        let fire = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        srv.wait();
        fire.join().expect("waker thread");
        srv
    });
    assert_eq!(srv.in_flight(), 0);
    assert!(srv.try_recv_done().is_none(), "a wake carries no result");
    srv.shutdown();
}

/// A retirement ends `wait` with its result ready.
#[test]
fn wait_returns_on_a_retirement() {
    let (mut srv, mut on_shard) = two_shard_server();
    assert_eq!(srv.submit(on_shard(1), 7), Admit::Started);
    let mut srv = within(Duration::from_secs(30), move || {
        srv.wait();
        srv
    });
    let d = srv
        .try_recv_done()
        .expect("wait returned with the result ready");
    assert_eq!(d.tag, 7);
    assert!(d.error.is_none(), "{:?}", d.error);
    srv.shutdown();
}

/// An idle worker's death ends `wait`, which reaps it: the shard is dead
/// by the time `wait` returns, and nothing was in flight to lose.
#[test]
fn wait_reaps_an_idle_workers_death() {
    let (mut srv, mut on_shard) = two_shard_server();
    srv.inject_worker_crash(0, 0);
    let mut srv = within(Duration::from_secs(30), move || {
        srv.wait();
        srv
    });
    assert_eq!(srv.dead_shards(), vec![0]);
    assert!(
        srv.try_recv_done().is_none(),
        "an idle worker loses nothing"
    );
    assert_eq!(srv.submit(on_shard(0), 1), Admit::Unavailable);
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.engines.len(), 2);
}

/// TPC-C remote-warehouse mix at ~15% remote transactions (remote-supplier
/// new-orders + remote-customer payments): serialized submission through
/// 2PC must reproduce the single-engine run tag-for-tag and state
/// row-for-row.
#[test]
fn remote_warehouse_mix_matches_single_under_2pc() {
    let (pyxis, part) = compile_jdbc(tpcc::REMOTE_SRC);
    let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
    let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");
    let scale = scale8();
    let seed = 61;

    let mut gen = tpcc::RemoteMixGen::new(order, pay, scale, 83)
        .with_remote_pct(0.15)
        .with_lines(2, 5);
    let reqs: Vec<TxnRequest> = (0..150)
        .map(|i| pyx_server::Workload::next_txn(&mut gen, i))
        .collect();
    let remote = reqs.iter().filter(|r| r.route.is_none()).count();
    assert!(
        remote * 10 >= reqs.len(),
        "mix must be ≥10% multi-partition (got {remote}/{})",
        reqs.len()
    );

    let mut single = fresh_single(scale, seed);
    let singles = run_single(&part, &mut single, &reqs);

    let part = Arc::new(part);
    let engines = fresh_shards(scale, seed, 4);
    let (shardeds, report) = run_sharded(&part, engines, 4, &reqs);
    assert_eq!(report.multi_txns, remote as u64);
    for (a, b) in singles.iter().zip(&shardeds) {
        assert_eq!(a.result, b.result, "txn {} ({})", a.tag, a.label);
        assert_eq!(a.rolled_back, b.rolled_back, "txn {}", a.tag);
        assert_eq!(a.error, b.error, "txn {}", a.tag);
    }
    assert_state_matches(&single, &report.engines);
    let merged = report.merged_engine_stats();
    assert!(merged.prepares > 0, "remote mix runs prepare rounds");
    assert_eq!(merged.prepare_aborts, 0, "healthy run: no vetoes");
    // Committed cross-shard transactions average more than one
    // participant (same-shard "remote" warehouses allow exactly one, but
    // two-shard transfers dominate).
    assert!(report.multi_participants > report.multi_txns / 2);
}

/// Cross-shard transfers submitted concurrently over a handful of hot
/// items and overlapping participant sets: every transaction retires
/// without error, their homes run all of them, at least one
/// goes through a prepare round, and total stock is conserved exactly.
/// Whether two transfers actually conflict depends on thread timing, so
/// this does not prove the restart path runs; see
/// `cross_shard_wait_die_victim_restarts_and_retires_once` for that.
#[test]
fn concurrent_cross_shard_transfers_conserve_stock() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let engines = fresh_shards(scale, 67, 4);
    let initial: i64 = engines
        .iter()
        .flat_map(|e| e.dump_table("stock"))
        .map(|row| match row[2] {
            Scalar::Int(q) => q,
            ref other => panic!("{other:?}"),
        })
        .sum();

    let part = Arc::new(part);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 4,
            coordinators: 3,
            ..ShardedConfig::default()
        },
    );
    let n = 80usize;
    for i in 0..n {
        // Five hot items shuffled between eight warehouses: plenty of
        // write-write conflict between in-flight transfers.
        let req = TxnRequest {
            entry: transfer,
            args: vec![
                pyx_runtime::ArgVal::Int((i as i64 % 8) + 1),
                pyx_runtime::ArgVal::Int(((i as i64 * 3 + 1) % 8) + 1),
                pyx_runtime::ArgVal::Int((i as i64 % 5) + 1),
                pyx_runtime::ArgVal::Int(1),
            ],
            label: "transfer",
            route: None,
        };
        assert_eq!(srv.submit(req, i as u64), Admit::Started);
    }
    let done = srv.drain();
    assert_eq!(done.len(), n);
    for d in &done {
        assert!(d.error.is_none(), "txn {}: {:?}", d.tag, d.error);
    }
    let (_, report) = srv.shutdown();
    assert_eq!(report.multi_txns, n as u64);
    let after: i64 = report
        .engines
        .iter()
        .flat_map(|e| e.dump_table("stock"))
        .map(|row| match row[2] {
            Scalar::Int(q) => q,
            ref other => panic!("{other:?}"),
        })
        .sum();
    assert_eq!(after, initial, "transfers conserve total stock");
    let merged = report.merged_engine_stats();
    assert!(merged.prepares > 0);
}

/// A cross-shard wait-die victim restarts on its coordinator and still
/// retires exactly once. T1 (w0→w1, item 1) is parked at its commit
/// point holding exclusive locks on both stock rows. The younger T2
/// (w1→w0, same item) dies on T1's lock, and keeps dying on each retry
/// under its retained age, until T1 is released. Both then commit.
#[test]
fn cross_shard_wait_die_victim_restarts_and_retires_once() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let mut srv = ShardedServer::new(
        Arc::new(part),
        fresh_shards(scale8(), 71, 2),
        ShardedConfig {
            shards: 2,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let pair = |from: i64, to: i64| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(1),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(srv.submit(pair(wh(0), wh(1)), 1), Admit::Started);
    held.recv_timeout(Duration::from_secs(30))
        .expect("T1 parks at its commit point with both rows locked");
    assert_eq!(srv.submit(pair(wh(1), wh(0)), 2), Admit::Started);
    std::thread::sleep(Duration::from_millis(20));
    release.send(()).expect("release T1");

    let mut done = vec![
        srv.recv_done().expect("first retirement"),
        srv.recv_done().expect("second retirement"),
    ];
    assert_eq!(srv.in_flight(), 0, "nothing else retires");
    done.sort_by_key(|d| d.tag);
    assert_eq!(done.iter().map(|d| d.tag).collect::<Vec<_>>(), [1, 2]);
    for d in &done {
        assert!(d.error.is_none(), "txn {}: {:?}", d.tag, d.error);
        assert_eq!(d.participants, 2, "txn {}", d.tag);
    }
    assert_eq!(done[0].restarts, 0, "the older holder never dies");
    assert!(
        done[1].restarts >= 1,
        "the younger transfer dies on the held lock and restarts"
    );
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.multi_txns, 2);
    // Each of T2's restarts died on its first statement on shard 1, the
    // statement that opened its branch there: every such branch aborts.
    assert_eq!(report.engines[1].stats.aborts, u64::from(done[1].restarts));
}

/// Ten transfers of one item between the same two warehouses, all in
/// flight at once on 4 shards with 2 cross-shard sessions per home. Each
/// reads its source row, then updates it: under wait-die younger ones
/// die on the upgrade and restart at once, and while they keep sharing
/// the row the oldest one's upgrade would wait indefinitely. The lock
/// table kills a younger shared request while an older transaction waits
/// on the row instead, so the burst retires with a bounded number of
/// restarts (at most about 11,000 per round over 60 rounds on a 2-core
/// host, against 0.3–1 million without the rule).
#[test]
fn hot_row_transfers_retire_without_a_restart_storm() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let part = Arc::new(part);
    let wh = |shard: usize| {
        (1..=64i64)
            .find(|&k| shard_of(&Scalar::Int(k), 4) == shard)
            .expect("some warehouse routes to every shard")
    };
    for round in 0..3u64 {
        let mut srv = ShardedServer::new(
            Arc::clone(&part),
            fresh_shards(scale8(), 83 + round, 4),
            ShardedConfig {
                shards: 4,
                coordinators: 2,
                ..ShardedConfig::default()
            },
        );
        for tag in 0..10 {
            let int = pyx_runtime::ArgVal::Int;
            let req = TxnRequest {
                entry: transfer,
                args: vec![int(wh(0)), int(wh(1)), int(1), int(1)],
                label: "transfer",
                route: None,
            };
            assert_eq!(srv.submit(req, tag), Admit::Started);
        }
        let done = collect_all(&mut srv, Duration::from_secs(60));
        assert_eq!(done.len(), 10, "round {round}: every transfer retires");
        assert!(done.iter().all(|d| d.error.is_none()), "round {round}");
        let restarts: u32 = done.iter().map(|d| d.restarts).sum();
        assert!(restarts < 100_000, "round {round}: {restarts} restarts");
        srv.shutdown();
    }
}

/// The headline 2PC property: two cross-shard transactions with disjoint
/// participant sets commit *concurrently*. T1 (shards {0,1}) is parked
/// between its prepare and commit phases — locks held on both
/// participants — while T2 (shards {2,3}) is submitted and runs to
/// completion: no cross-shard transaction waits on shards it does not
/// touch.
#[test]
fn disjoint_cross_shard_transactions_commit_concurrently() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let part = Arc::new(part);
    let engines = fresh_shards(scale, 73, 4);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 4,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    // One warehouse per shard.
    let wh = |shard: usize| {
        (1..=64i64)
            .find(|&k| shard_of(&Scalar::Int(k), 4) == shard)
            .expect("some warehouse routes to every shard")
    };
    let pair = |from: i64, to: i64| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(1),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(srv.submit(pair(wh(0), wh(1)), 1), Admit::Started);
    held.recv_timeout(std::time::Duration::from_secs(30))
        .expect("T1 reaches its commit point (prepared on shards 0 and 1)");
    // T1 is now parked mid-2PC with locks held on shards 0 and 1.
    assert_eq!(srv.submit(pair(wh(2), wh(3)), 2), Admit::Started);
    let d2 = srv.recv_done().expect("T2 retires while T1 is parked");
    assert_eq!(d2.tag, 2, "disjoint transaction commits while T1 holds");
    assert!(d2.error.is_none(), "{:?}", d2.error);
    assert_eq!(d2.participants, 2);
    release.send(()).expect("release T1");
    let d1 = srv.recv_done().expect("T1 retires after release");
    assert_eq!(d1.tag, 1);
    assert!(d1.error.is_none(), "{:?}", d1.error);
    assert_eq!(d1.participants, 2);
    let (_, report) = srv.shutdown();
    assert_eq!(report.multi_txns, 2);
    assert_eq!(report.multi_participants, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded loader is a partition: every shard-keyed row lands on
    /// exactly the shard `shard_of` names (checked inside
    /// `assert_state_matches` via union equality + placement), and
    /// replicated tables are byte-identical on every shard.
    #[test]
    fn routing_is_a_partition(
        warehouses in 1i64..7,
        shards in 1usize..6,
        seed in 0i64..1000,
    ) {
        let scale = tpcc::TpccScale {
            warehouses,
            districts_per_wh: 2,
            customers_per_district: 3,
            items: 20,
        };
        let single = fresh_single(scale, seed as u64);
        let sharded = fresh_shards(scale, seed as u64, shards);
        assert_state_matches(&single, &sharded);
    }

    /// `shard_of` is total and in-range for every scalar type.
    #[test]
    fn shard_of_total_and_in_range(
        shards in 1usize..10,
        i in any::<i64>(),
        d in any::<f64>(),
        s in "[a-z0-9]{0,12}",
        b in any::<bool>(),
    ) {
        for key in [Scalar::Int(i), Scalar::Double(d), Scalar::Str(s.as_str().into()),
                    Scalar::Bool(b), Scalar::Null] {
            prop_assert!(shard_of(&key, shards) < shards);
        }
    }
}

/// Satellite: a participant worker dying mid-2PC must not wedge its
/// home. T1 is parked between its commit decision and its commit legs
/// on shards {0,1}; shard 1's worker is killed before its leg arrives.
/// The transaction must retire with an error (outcome unknown: shard 1
/// holds its vote in doubt, and the decision was commit), the survivor's
/// branch must end cleanly (it commits, and its locks free), the death
/// is counted, and the live homes keep serving cross-shard work.
#[test]
fn participant_death_mid_2pc_aborts_cleanly_and_coordinator_survives() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let part = Arc::new(part);
    let engines = fresh_shards(scale, 67, 4);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: 4,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    let wh = |shard: usize| {
        (1..=64i64)
            .find(|&k| shard_of(&Scalar::Int(k), 4) == shard)
            .expect("some warehouse routes to every shard")
    };
    let pair = |from: i64, to: i64| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(1),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };

    // T1's home is shard 0, which would take T1 down with it — so shard
    // 1 is the victim.
    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(srv.submit(pair(wh(0), wh(1)), 1), Admit::Started);
    held.recv_timeout(std::time::Duration::from_secs(30))
        .expect("T1 parked between prepare and commit");
    // Kill shard 1's worker while T1's outcome is pending there.
    srv.inject_worker_crash(1, 0);
    let t0 = std::time::Instant::now();
    while srv.dead_shards() != vec![1] {
        assert!(t0.elapsed().as_secs() < 30, "worker death undetected");
        std::thread::sleep(std::time::Duration::from_millis(1));
        srv.reap_now();
    }
    release.send(()).expect("release T1");
    let d1 = srv.recv_done().expect("T1 retires despite the death");
    assert_eq!(d1.tag, 1);
    let err = d1.error.expect("unknown outcome must surface as an error");
    assert!(err.contains("worker died"), "{err}");
    assert!(err.contains("outcome unknown"), "{err}");

    // The live homes keep serving cross-shard work that avoids the dead
    // shard…
    assert_eq!(srv.submit(pair(wh(2), wh(3)), 2), Admit::Started);
    let d2 = srv.recv_done().expect("T2 retires");
    assert!(d2.error.is_none(), "{:?}", d2.error);
    // …and the survivor shard 0, whose branch committed — its stock
    // row is unlocked, so a new transaction through it commits.
    assert_eq!(srv.submit(pair(wh(0), wh(0)), 3), Admit::Started);
    let d3 = srv.recv_done().expect("T3 retires");
    assert!(d3.error.is_none(), "survivor locks freed: {:?}", d3.error);

    assert_eq!(srv.dead_shards(), vec![1], "no healing configured");
    let (_, report) = srv.shutdown();
    assert!(
        report.participant_deaths > 0,
        "the death was observed and counted"
    );
    assert!(report.recoveries.is_empty());
}

/// Quantity of `item`'s stock row for warehouse `w` on `engine`.
fn stock_of(engine: &Engine, w: i64, item: i64) -> i64 {
    let row = engine
        .dump_table("stock")
        .into_iter()
        .find(|r| r[0] == Scalar::Int(w) && r[1] == Scalar::Int(item))
        .expect("stock row exists");
    match row[2] {
        Scalar::Int(q) => q,
        ref other => panic!("{other:?}"),
    }
}

/// Only the coordinator decides a cross-shard outcome. Shard 1's log
/// lets its first sync through — the transfer's prepare, its durable
/// yes-vote — and fails every later one. While the transfer is held at
/// its decision, a routed write on shard 1 degrades that log, so the
/// released commit's `Decide` append fails. The participant must not
/// abort the decided branch: it crash-stops with its vote in doubt in
/// its durable log, shard 0 commits, the registry keeps the unsettled
/// leg, and the heal refuses the degraded log, so shard 1 stays down.
#[test]
fn participant_that_cannot_log_its_decision_crash_stops() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let seed = 67;
    let sinks: Vec<MemSink> = (0..2).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, 2);
    ShardedServer::attach_shard_wals(&mut engines, 1, |i| {
        let sink = sinks[i].clone();
        if i == 0 {
            return Box::new(sink);
        }
        let plan = FaultPlan {
            fail_sync_from: Some(1),
            ..FaultPlan::default()
        };
        Box::new(FaultySink::new(sink, plan))
    });
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale, seed, 2).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let move_stock = |from: i64, to: i64, item: i64, route: Option<i64>| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(item),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route,
    };
    let before = stock_of(&fresh_shards(scale, seed, 2)[0], wh(0), 1);

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(
        srv.submit(move_stock(wh(0), wh(1), 1, None), 1),
        Admit::Started
    );
    held.recv_timeout(Duration::from_secs(30))
        .expect("the transfer is decided, prepared on both shards");
    // A write local to shard 1 on another row: its commit's sync is the
    // log's second, which fails and degrades the log.
    let local = move_stock(wh(1), wh(1), 2, Some(wh(1)));
    assert_eq!(srv.submit(local, 2), Admit::Started);
    let d = srv.recv_done().expect("the local write retires");
    assert_eq!(d.tag, 2);
    assert!(d.error.is_some(), "its acknowledgement sync failed");

    release.send(()).expect("release the transfer");
    let d = srv.recv_done().expect("the transfer retires");
    assert_eq!(d.tag, 1);
    let err = d.error.expect("a participant that did not commit fails it");
    assert!(err.contains("worker died"), "{err}");
    let t0 = Instant::now();
    while srv.dead_shards() != vec![1] {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "shard 1 must crash-stop, not abort the decided branch"
        );
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
    assert_eq!(
        srv.pending_decisions(),
        1,
        "the unsettled leg keeps its commit entry"
    );
    let failures = srv.heal_failures().to_vec();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].shard, 1);
    assert!(failures[0].reason.contains("degraded"), "{failures:?}");
    assert!(srv.recoveries().is_empty(), "the shard stays down");

    let mut recovered = fresh_shards(scale, seed, 2).swap_remove(1);
    recovered
        .recover(&sinks[1].durable_bytes())
        .expect("shard 1's durable log replays");
    assert_eq!(
        recovered.in_doubt_gtids().len(),
        1,
        "the yes-vote recovers in doubt"
    );
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(
        stock_of(&report.engines[0], wh(0), 1),
        before - 1,
        "shard 0 committed the transfer"
    );
}

/// A branch dies with its shard's incarnation. T1 is held mid-vote: its
/// home, shard 0, has prepared, and its prepare went out to shard 1 with
/// it, so shard 1 prepares before it is killed and respawned from its
/// log. The respawn recovers that vote in doubt and vetoes the
/// still-voting gtid; released, the home finds the veto and aborts. Its
/// abort reaches the new incarnation, which never heard of the branch:
/// that counts as a participant death, not an unknown transaction, the
/// registry drains, and the shards serve the next transfer.
#[test]
fn branch_on_a_respawned_shard_fails_as_a_participant_death() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let seed = 59;
    let sinks: Vec<MemSink> = (0..2).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, 2);
    ShardedServer::attach_shard_wals(&mut engines, 1, |i| Box::new(sinks[i].clone()));
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale, seed, 2).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let pair = |from: i64, to: i64| TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(from),
            pyx_runtime::ArgVal::Int(to),
            pyx_runtime::ArgVal::Int(1),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };

    let (held, release) = srv.hold_next_multi(HoldPoint::Vote);
    assert_eq!(srv.submit(pair(wh(0), wh(1)), 1), Admit::Started);
    held.recv_timeout(Duration::from_secs(30))
        .expect("T1 held after shard 0's prepare");
    srv.inject_worker_crash(1, 0);
    let t0 = Instant::now();
    while srv.recoveries().is_empty() {
        assert!(t0.elapsed().as_secs() < 30, "respawn never completed");
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
    let rec = srv.recoveries()[0];
    assert_eq!(rec.in_doubt, 1, "shard 1 prepared with shard 0");
    assert_eq!(rec.resolved_abort, 1, "a still-voting gtid is vetoed");
    release.send(()).expect("release T1");
    let d = srv.recv_done().expect("T1 retires");
    let err = d.error.expect("T1 lost a branch");
    assert!(err.contains("presumed aborted"), "{err}");
    assert_eq!(srv.pending_decisions(), 0, "the vetoed gtid is forgotten");

    assert_eq!(srv.submit(pair(wh(0), wh(1)), 2), Admit::Started);
    let d = srv.recv_done().expect("T2 retires");
    assert!(d.error.is_none(), "{:?}", d.error);
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert!(report.participant_deaths > 0);
}

// ---- a home's death: the cross-shard transactions it homed end ----

/// A two-shard server over durable logs (group commit of `group`
/// records, shard 1's with `faults`) that respawns a dead shard from its
/// log, one cross-shard session per home, plus the logs and the transfer
/// entry.
fn durable_two_shard_server(
    seed: u64,
    group: usize,
    faults: FaultPlan,
) -> (ShardedServer, Vec<MemSink>, pyx_lang::MethodId) {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let sinks: Vec<MemSink> = (0..2).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale8(), seed, 2);
    ShardedServer::attach_shard_wals(&mut engines, group, |i| {
        let plan = if i == 1 { faults } else { FaultPlan::default() };
        Box::new(FaultySink::new(sinks[i].clone(), plan))
    });
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            coordinators: 1,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale8(), seed, 2).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });
    (srv, sinks, transfer)
}

/// The `n`th warehouse (from 0) that routes to `shard` of 2.
fn nth_wh(shard: usize, n: usize) -> i64 {
    (1..=8i64)
        .filter(|&k| shard_of(&Scalar::Int(k), 2) == shard)
        .nth(n)
        .expect("warehouses enough on every shard")
}

/// A cross-shard stock transfer of `qty` units of `item`.
fn transfer_req(entry: pyx_lang::MethodId, from: i64, to: i64, item: i64, qty: i64) -> TxnRequest {
    let int = pyx_runtime::ArgVal::Int;
    TxnRequest {
        entry,
        args: vec![int(from), int(to), int(item), int(qty)],
        label: "transfer",
        route: None,
    }
}

/// The next retirement, failing the test past `limit`: a transaction
/// that waits on an orphaned lock fails instead of hanging the test.
fn retire_within(srv: &mut ShardedServer, limit: Duration) -> TxnDone {
    let t0 = Instant::now();
    loop {
        if let Some(d) = srv.try_recv_done() {
            return d;
        }
        assert!(t0.elapsed() < limit, "no retirement within {limit:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Kill shard 0's primary and wait out its respawn from the log.
fn kill_and_respawn_home(srv: &mut ShardedServer) {
    kill_and_respawn(srv, 0);
}

/// Kill shard `s`'s primary and wait out its respawn from the log.
fn kill_and_respawn(srv: &mut ShardedServer, s: usize) {
    let healed = srv.recoveries().len() + 1;
    srv.inject_worker_crash(s, 0);
    let t0 = Instant::now();
    while srv.recoveries().len() < healed {
        assert!(t0.elapsed().as_secs() < 30, "respawn never completed");
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
}

/// `item`'s stock in warehouse `w` after replaying each shard's durable
/// log into a fresh engine.
fn recovered_stock(sinks: &[MemSink], seed: u64, w: i64, item: i64) -> i64 {
    let s = shard_of(&Scalar::Int(w), 2);
    let mut e = fresh_shards(scale8(), seed, 2).swap_remove(s);
    e.recover(&sinks[s].durable_bytes())
        .expect("the durable log replays");
    stock_of(&e, w, item)
}

/// A transaction dies with its home. T1, homed on shard 0, moves stock
/// between two warehouses of shard 1: its branch there holds the first
/// row, and its last statement is parked behind a younger transaction T2
/// (homed on shard 1, held at its commit point) holding the second.
/// Shard 0 dies: T1's client hears "outcome unknown", shard 1 aborts the
/// orphaned branch and drops its parked statement, and once T2 commits
/// a later transaction on T1's rows commits too. No log holds any write
/// of T1's.
#[test]
fn home_death_aborts_its_open_branch_on_another_shard() {
    let seed = 139;
    let (mut srv, sinks, transfer) = durable_two_shard_server(seed, 1, FaultPlan::default());
    let (w0, w0b) = (nth_wh(0, 0), nth_wh(0, 1));
    let (w1, w1b, w1c) = (nth_wh(1, 0), nth_wh(1, 1), nth_wh(1, 2));
    let fresh = fresh_shards(scale8(), seed, 2);
    let (from0, to0) = (stock_of(&fresh[1], w1, 7), stock_of(&fresh[1], w1b, 7));
    let limit = Duration::from_secs(30);
    let submit = |srv: &mut ShardedServer, tag, from, to, item, qty| {
        let req = transfer_req(transfer, from, to, item, qty);
        assert_eq!(srv.submit(req, tag), Admit::Started);
    };

    // T0 fills home 0's one cross-shard session, held at its commit;
    // F runs on home 1; T1 queues on home 0 behind T0, older than T2.
    let (held_t0, release_t0) = srv.hold_next_multi(HoldPoint::Commit);
    submit(&mut srv, 0, w0, w0b, 3, 1);
    held_t0.recv_timeout(limit).expect("T0 parks on home 0");
    submit(&mut srv, 1, w1, w0b, 5, 1);
    submit(&mut srv, 2, w1, w1b, 7, 2);
    // T2, homed on shard 1, takes T1's second row and holds it.
    let (held_t2, release_t2) = srv.hold_next_multi(HoldPoint::Commit);
    submit(&mut srv, 3, w1b, w1c, 7, 1);
    held_t2.recv_timeout(limit).expect("T2 parks on home 1");
    assert_eq!(retire_within(&mut srv, limit).tag, 1, "F retires");
    // Released, T0 commits and T1 starts: its branch on shard 1 takes
    // the first row, and its last statement parks behind T2.
    release_t0.send(()).expect("release T0");
    let d = retire_within(&mut srv, limit);
    assert_eq!((d.tag, d.error), (0, None));
    std::thread::sleep(Duration::from_millis(200));

    kill_and_respawn_home(&mut srv);
    let d = retire_within(&mut srv, limit);
    assert_eq!(d.tag, 2);
    let err = d.error.expect("T1 died with its home");
    assert!(err.contains("outcome unknown"), "{err}");
    release_t2.send(()).expect("release T2");
    let d = retire_within(&mut srv, limit);
    assert_eq!((d.tag, d.error), (3, None));
    // A later transaction on T1's rows: an orphaned branch holding the
    // first would make it die and restart for ever.
    submit(&mut srv, 4, w1, w1b, 7, 4);
    let d = retire_within(&mut srv, limit);
    assert_eq!((d.tag, d.error), (4, None));
    assert_eq!(srv.pending_decisions(), 0);
    let (rest, _) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(recovered_stock(&sinks, seed, w1, 7), from0 - 4, "T3 only");
    assert_eq!(recovered_stock(&sinks, seed, w1b, 7), to0 - 1 + 4, "T2, T3");
}

/// A home dies at `at` with a transfer of 2 units from shard 0 to shard
/// 1 in flight. Its client hears "outcome unknown", the registry
/// drains, a later transfer on the same rows commits, and the durable
/// logs hold the transfer on both shards (`committed`) or on neither.
fn home_death_at(at: HoldPoint, committed: bool) {
    let seed = 149;
    let (mut srv, sinks, transfer) = durable_two_shard_server(seed, 1, FaultPlan::default());
    let (w0, w1) = (nth_wh(0, 0), nth_wh(1, 0));
    let fresh = fresh_shards(scale8(), seed, 2);
    let (from0, to0) = (stock_of(&fresh[0], w0, 1), stock_of(&fresh[1], w1, 1));
    let limit = Duration::from_secs(30);

    let (held, release) = srv.hold_next_multi(at);
    assert_eq!(
        srv.submit(transfer_req(transfer, w0, w1, 1, 2), 1),
        Admit::Started
    );
    held.recv_timeout(limit)
        .expect("the transfer parks on home 0");
    kill_and_respawn_home(&mut srv);
    let d = retire_within(&mut srv, limit);
    assert_eq!(d.tag, 1);
    let err = d.error.expect("the transfer died with its home");
    assert!(err.contains("outcome unknown"), "{err}");
    drop(release);
    let t0 = Instant::now();
    while srv.pending_decisions() > 0 {
        assert!(t0.elapsed() < limit, "the registry never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Shard 1's branch holds its row until it is ended: the later
    // transfer, younger, would die on it and restart for ever.
    assert_eq!(
        srv.submit(transfer_req(transfer, w0, w1, 1, 4), 2),
        Admit::Started
    );
    let d = retire_within(&mut srv, limit);
    assert_eq!((d.tag, d.error), (2, None));
    assert_eq!(srv.pending_decisions(), 0);
    let (rest, _) = srv.shutdown();
    assert!(rest.is_empty());
    let moved = if committed { 2 + 4 } else { 4 };
    assert_eq!(recovered_stock(&sinks, seed, w0, 1), from0 - moved);
    assert_eq!(recovered_stock(&sinks, seed, w1, 1), to0 + moved);
}

/// A heal settles a recovered branch's commit leg only once the commit
/// is durable in the successor's log. Under group commit of 16, a
/// transfer from shard 0 to shard 1, homed on shard 0, is held after its
/// commit decision. Shard 1 dies, and its respawn commits the branch it
/// recovered in doubt. Released, the transfer commits on shard 0, and
/// the registry drains. Shard 1 then dies again before it syncs anything
/// else: had the heal settled its leg before the commit was durable, its
/// second respawn would find the branch in doubt with no registry entry
/// and presume it aborted, while shard 0 committed it.
#[test]
fn heal_settles_a_recovered_commit_only_once_it_is_durable() {
    let seed = 157;
    let (mut srv, sinks, transfer) = durable_two_shard_server(seed, 16, FaultPlan::default());
    let (w0, w1) = (nth_wh(0, 0), nth_wh(1, 0));
    let fresh = fresh_shards(scale8(), seed, 2);
    let (from0, to0) = (stock_of(&fresh[0], w0, 1), stock_of(&fresh[1], w1, 1));
    let limit = Duration::from_secs(30);

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    assert_eq!(
        srv.submit(transfer_req(transfer, w0, w1, 1, 2), 1),
        Admit::Started
    );
    held.recv_timeout(limit)
        .expect("the transfer parks on home 0 after its decision");
    kill_and_respawn(&mut srv, 1);
    assert_eq!(srv.recoveries()[0].resolved_commit, 1);
    release.send(()).expect("release the transfer");
    let d = retire_within(&mut srv, limit);
    assert_eq!(d.tag, 1);
    let err = d.error.expect("shard 1's successor never knew the branch");
    assert!(err.contains("outcome unknown"), "{err}");
    let t0 = Instant::now();
    while srv.pending_decisions() > 0 {
        assert!(t0.elapsed() < limit, "the registry never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    kill_and_respawn(&mut srv, 1);
    let (rest, _) = srv.shutdown();
    assert!(rest.is_empty());
    let moved = (
        from0 - recovered_stock(&sinks, seed, w0, 1),
        recovered_stock(&sinks, seed, w1, 1) - to0,
    );
    assert_eq!(moved, (2, 2), "the logs must agree on the commit");
}

/// A heal whose successor cannot make its in-doubt verdicts durable
/// fails instead of serving. Shard 1's log fails every sync after the
/// first, its transfer branch's prepare. With the transfer held after
/// its commit decision, shard 1 dies; its respawn recovers the branch in
/// doubt and commits it, but cannot sync the decide record. The shard
/// stays down with one heal failure, the registry keeps shard 1's leg
/// for a later heal, and the transfer's client hears "outcome unknown".
#[test]
fn heal_that_cannot_sync_its_verdicts_keeps_the_shard_down() {
    let faults = FaultPlan {
        fail_sync_from: Some(1),
        ..FaultPlan::default()
    };
    let (mut srv, _, transfer) = durable_two_shard_server(163, 1, faults);
    let limit = Duration::from_secs(30);

    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    let req = transfer_req(transfer, nth_wh(0, 0), nth_wh(1, 0), 1, 2);
    assert_eq!(srv.submit(req, 1), Admit::Started);
    held.recv_timeout(limit)
        .expect("the transfer parks on home 0 after its decision");
    srv.inject_worker_crash(1, 0);
    let t0 = Instant::now();
    while srv.heal_failures().is_empty() {
        assert!(t0.elapsed() < limit, "the heal never failed");
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
    let failure = &srv.heal_failures()[0];
    assert_eq!(failure.shard, 1);
    assert!(failure.reason.contains("in-doubt verdicts"), "{failure:?}");
    assert!(srv.recoveries().is_empty());
    assert_eq!(srv.dead_shards(), vec![1]);
    release.send(()).expect("release the transfer");
    let d = retire_within(&mut srv, limit);
    assert_eq!(d.tag, 1);
    let err = d.error.expect("shard 1 died after the decision");
    assert!(err.contains("outcome unknown"), "{err}");
    assert_eq!(srv.pending_decisions(), 1, "shard 1's leg stays unsettled");
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.heal_failures.len(), 1);
}

/// Killed mid-vote, the home's undecided gtid is forgotten: both
/// prepared branches — shard 1's on the live shard, shard 0's recovered
/// in doubt — abort.
#[test]
fn home_death_mid_vote_aborts_every_branch() {
    home_death_at(HoldPoint::Vote, false);
}

/// Killed after deciding commit, the home's decided gtid stands: shard
/// 1 commits its prepared branch, and shard 0's respawn commits the one
/// it recovered in doubt.
#[test]
fn home_death_after_the_decision_commits_every_branch() {
    home_death_at(HoldPoint::Commit, true);
}

/// Tentpole: with self-healing enabled and a log-shipping replica per
/// shard, a primary death promotes the replica — drained to the dead
/// primary's durable watermark — and the shard resumes accepting
/// writes. Because every acked commit was durable (group size 1) and
/// nothing was in flight at the kill, the full serialized run must
/// match a single-engine oracle tag-for-tag and row-for-row.
#[test]
fn self_healing_promotes_a_replica_and_resumes_writes() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let seed = 29;
    let w = 2usize;

    let w_dead = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 0)
        .expect("warehouse on shard 0");
    let w_live = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 1)
        .expect("warehouse on shard 1");
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 55).with_lines(2, 4);
    let reqs: Vec<TxnRequest> = (0..24usize)
        .map(|i| {
            let mut r = pyx_server::Workload::next_txn(&mut gen, i);
            let wid = if i % 2 == 0 { w_dead } else { w_live };
            r.args[0] = pyx_runtime::ArgVal::Int(wid);
            r.route = Some(wid);
            r
        })
        .collect();

    let mut single = fresh_single(scale, seed);
    let singles = run_single(&part, &mut single, &reqs);

    let sinks: Vec<MemSink> = (0..w).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, w);
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 1, |i| {
        Box::new(sinks[i].clone())
    });
    let part = Arc::new(part);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: w,
            ..ShardedConfig::default()
        },
    );
    let replicas = fresh_shards(scale, seed, w)
        .into_iter()
        .map(|e| vec![e])
        .collect();
    srv.spawn_replicas(&feeds, replicas);
    srv.enable_self_healing();

    let mut shardeds = Vec::new();
    for (tag, req) in reqs.iter().take(12).enumerate() {
        assert_eq!(srv.submit(req.clone(), tag as u64), Admit::Started);
        shardeds.push(srv.recv_done().expect("pre-kill result"));
    }

    // Kill shard 0's primary; the supervisor must promote its replica.
    srv.inject_worker_crash(0, 0);
    let t0 = std::time::Instant::now();
    while srv.recoveries().is_empty() {
        assert!(t0.elapsed().as_secs() < 30, "failover never completed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        srv.reap_now();
    }
    let rec = srv.recoveries()[0];
    assert_eq!(rec.shard, 0);
    assert!(
        rec.promoted,
        "a live replica must be preferred over respawn"
    );
    assert_eq!(rec.in_doubt, 0, "nothing was mid-2PC at the kill");
    assert!(rec.mttr_ns > 0);
    assert!(srv.dead_shards().is_empty(), "shard 0 accepts writes again");

    // The remaining requests — including to the healed shard — serve
    // and must answer exactly as the never-killed oracle.
    for (tag, req) in reqs.iter().enumerate().skip(12) {
        assert_eq!(
            srv.submit_by_deadline(req.clone(), tag as u64, admit_deadline()),
            Admit::Started
        );
        shardeds.push(srv.recv_done().expect("post-failover result"));
    }
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(singles.len(), shardeds.len());
    for (a, b) in singles.iter().zip(&shardeds) {
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.result, b.result, "txn {} result", a.tag);
        assert_eq!(a.error, b.error, "txn {} error", a.tag);
    }
    assert_state_matches(&single, &report.engines);
    assert_eq!(report.recoveries.len(), 1);
}

/// Tentpole (no-replica path): a dead shard with a respawn factory is
/// rebuilt from its own write-ahead log — schema + base load, replay of
/// the durable prefix, log re-anchored — and resumes serving with every
/// acked commit intact.
#[test]
fn respawn_factory_rebuilds_a_dead_shard_from_its_log() {
    let (pyxis, part) = compile_jdbc(tpcc::SRC);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    let scale = scale8();
    let seed = 37;
    let w = 2usize;

    let w_dead = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 0)
        .expect("warehouse on shard 0");
    let w_live = (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), 2) == 1)
        .expect("warehouse on shard 1");
    let mut gen = tpcc::NewOrderGen::new(entry, scale, 21).with_lines(2, 4);
    let reqs: Vec<TxnRequest> = (0..24usize)
        .map(|i| {
            let mut r = pyx_server::Workload::next_txn(&mut gen, i);
            let wid = if i % 2 == 0 { w_dead } else { w_live };
            r.args[0] = pyx_runtime::ArgVal::Int(wid);
            r.route = Some(wid);
            r
        })
        .collect();

    let mut single = fresh_single(scale, seed);
    let singles = run_single(&part, &mut single, &reqs);

    let sinks: Vec<MemSink> = (0..w).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, w);
    ShardedServer::attach_shard_wals(&mut engines, 1, |i| Box::new(sinks[i].clone()));
    let part = Arc::new(part);
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: w,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale, seed, w).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });

    let mut shardeds = Vec::new();
    for (tag, req) in reqs.iter().take(12).enumerate() {
        assert_eq!(srv.submit(req.clone(), tag as u64), Admit::Started);
        shardeds.push(srv.recv_done().expect("pre-kill result"));
    }
    srv.inject_worker_crash(0, 0);
    let t0 = std::time::Instant::now();
    while srv.recoveries().is_empty() {
        assert!(t0.elapsed().as_secs() < 30, "respawn never completed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        srv.reap_now();
    }
    let rec = srv.recoveries()[0];
    assert_eq!(rec.shard, 0);
    assert!(!rec.promoted, "no replicas: this is the respawn path");
    assert!(srv.dead_shards().is_empty());

    for (tag, req) in reqs.iter().enumerate().skip(12) {
        assert_eq!(
            srv.submit_by_deadline(req.clone(), tag as u64, admit_deadline()),
            Admit::Started
        );
        shardeds.push(srv.recv_done().expect("post-respawn result"));
    }
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    for (a, b) in singles.iter().zip(&shardeds) {
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.result, b.result, "txn {} result", a.tag);
        assert_eq!(a.error, b.error, "txn {} error", a.tag);
    }
    assert_state_matches(&single, &report.engines);
}

/// Dynamic SQL reaches a respawned shard as text. Shard 0 is rebuilt
/// from its log with a fresh statement registry; a coordinator that had
/// cached a statement id for `dynRead`'s text would now name another
/// statement there and read nothing.
#[test]
fn dynamic_sql_survives_a_shard_respawn() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let dyn_read = pyxis.entry("Mixed", "dynRead").expect("dynRead");
    let scale = scale8();
    let seed = 43;
    let w = 2usize;
    let sinks: Vec<MemSink> = (0..w).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, w);
    ShardedServer::attach_shard_wals(&mut engines, 1, |i| Box::new(sinks[i].clone()));
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: w,
            coordinators: 1,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale, seed, w).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let mut tag = 0u64;
    let mut districts = |srv: &mut ShardedServer, warehouse: i64| {
        let req = TxnRequest {
            entry: dyn_read,
            args: vec![pyx_runtime::ArgVal::Int(warehouse)],
            label: "dyn-read",
            route: None,
        };
        tag += 1;
        assert_eq!(srv.submit(req, tag), Admit::Started);
        let d = srv.recv_done().expect("the read retires");
        assert!(d.error.is_none(), "{:?}", d.error);
        d.result
    };
    let three = Some(pyx_lang::Value::Int(3));

    assert_eq!(districts(&mut srv, wh(0)), three);
    srv.inject_worker_crash(0, 0);
    let t0 = Instant::now();
    while srv.recoveries().is_empty() {
        assert!(t0.elapsed().as_secs() < 30, "respawn never completed");
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
    assert_eq!(districts(&mut srv, wh(1)), three);
    assert_eq!(
        districts(&mut srv, wh(0)),
        three,
        "the respawned shard runs the same text"
    );
    let (rest, _) = srv.shutdown();
    assert!(rest.is_empty());
}

/// Constant sites reach a respawned shard as text. The respawn factory
/// prepares a statement of its own before the new worker prepares the
/// partition's sites, so every site gets another id there; a coordinator
/// that named sites by the old ids would now run the wrong statements.
#[test]
fn sites_survive_a_respawn_that_renumbers_the_registry() {
    let (pyxis, part) = compile_jdbc(MIXED_SRC);
    let transfer = pyxis.entry("Mixed", "transfer").expect("transfer");
    let scale = scale8();
    let seed = 67;
    let sinks: Vec<MemSink> = (0..2).map(|_| MemSink::new()).collect();
    let mut engines = fresh_shards(scale, seed, 2);
    ShardedServer::attach_shard_wals(&mut engines, 1, |i| Box::new(sinks[i].clone()));
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            coordinators: 1,
            ..ShardedConfig::default()
        },
    );
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = fresh_shards(scale, seed, 2).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        e.prepare("SELECT i_id FROM item WHERE i_id = ?").ok()?;
        Some(e)
    });
    let wh = |shard: usize| {
        (1..=8i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == shard)
            .expect("some warehouse routes to every shard")
    };
    let run_transfer = |srv: &mut ShardedServer, tag: u64| {
        let req = TxnRequest {
            entry: transfer,
            args: vec![
                pyx_runtime::ArgVal::Int(wh(0)),
                pyx_runtime::ArgVal::Int(wh(1)),
                pyx_runtime::ArgVal::Int(1),
                pyx_runtime::ArgVal::Int(1),
            ],
            label: "transfer",
            route: None,
        };
        assert_eq!(srv.submit(req, tag), Admit::Started);
        let d = srv.recv_done().expect("the transfer retires");
        assert!(d.error.is_none(), "txn {tag}: {:?}", d.error);
        assert_eq!(d.participants, 2, "txn {tag}");
        match d.result {
            Some(pyx_lang::Value::Int(left)) => left,
            other => panic!("txn {tag}: {other:?}"),
        }
    };

    let first = run_transfer(&mut srv, 1);
    srv.inject_worker_crash(0, 0);
    let t0 = Instant::now();
    while srv.recoveries().is_empty() {
        assert!(t0.elapsed().as_secs() < 30, "respawn never completed");
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
    assert_eq!(run_transfer(&mut srv, 2), first - 1);
    let (rest, _) = srv.shutdown();
    assert!(rest.is_empty());
}
