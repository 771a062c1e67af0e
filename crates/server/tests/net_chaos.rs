//! Network chaos harness: the PR 9 kill-anywhere suite extended to
//! kill *links* as well as workers.
//!
//! A [`pyx_server::net::NetClient`] drives a socket-served
//! [`pyx_server::ShardedServer`] through a [`FaultScript`]-decorated
//! link while the script injects every fault class the transport
//! claims to survive — drops, delays, duplications, reorders,
//! mid-frame cuts, byte corruption, stalled peers, and full
//! partitions — and, in the combined test, a worker is killed while
//! the link is misbehaving. The invariants, matching the in-process
//! chaos harness:
//!
//! * every submitted tag retires **exactly once** — a real outcome or
//!   an explicit "outcome unknown" error; never a hang, never a
//!   duplicate retirement;
//! * every *acknowledged* success is applied **exactly once** — stock
//!   moved by scripted-duplicated, partition-retried transfers adds up
//!   to precisely the acknowledged count (no lost ack, no double
//!   apply);
//! * a partitioned-then-healed client converges to exactly-once
//!   effects;
//! * the durability differential holds: a fresh engine recovered from
//!   each shard's durable log bytes is row-for-row identical to the
//!   survivor, link faults or not.

use pyx_db::{shard_of, Engine, MemSink, Scalar};
use pyx_lang::Value;
use pyx_pyxil::CompiledPartition;
use pyx_runtime::ArgVal;
use pyx_server::net::{
    Fault, FaultScript, Listener, NetAddr, NetClient, NetClientCfg, NetServer, NetServerCfg,
};
use pyx_server::{HoldPoint, ShardedConfig, ShardedServer, TxnRequest};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::Duration;

const W: usize = 4;

/// The cross-shard stock transfer from the in-process chaos harness —
/// a 2PC write whose effects are exactly countable.
const SRC: &str = r#"
    class NetChaos {
        int transfer(int fromW, int toW, int iid, int qty) {
            row[] a = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", fromW, iid);
            int have = a[0].getInt(0);
            if (have < qty) { return 0 - 1; }
            dbUpdate("UPDATE stock SET s_quantity = s_quantity - ? WHERE s_w_id = ? AND s_i_id = ?", qty, fromW, iid);
            dbUpdate("UPDATE stock SET s_quantity = s_quantity + ? WHERE s_w_id = ? AND s_i_id = ?", qty, toW, iid);
            return have - qty;
        }
    }
"#;

const ITEM: i64 = 5;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        districts_per_wh: 2,
        customers_per_district: 5,
        items: 50,
    }
}

fn compile() -> (pyx_core::Pyxis, CompiledPartition) {
    let pyxis =
        pyx_core::Pyxis::compile(SRC, pyx_core::PyxisConfig::default()).expect("source compiles");
    let part = pyxis.deploy_jdbc();
    (pyxis, part)
}

fn build_shards(seed: u64) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..W)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale(), seed);
    engines
}

fn wh(s: usize) -> i64 {
    (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), W) == s)
        .expect("every shard owns a warehouse")
}

/// `s_quantity` of `(warehouse, ITEM)` read out of a dumped engine set.
fn stock_of(engines: &[Engine], warehouse: i64) -> i64 {
    let shard = shard_of(&Scalar::Int(warehouse), W);
    for row in engines[shard].dump_table("stock") {
        if row[0] == Scalar::Int(warehouse) && row[1] == Scalar::Int(ITEM) {
            if let Scalar::Int(q) = row[2] {
                return q;
            }
        }
    }
    panic!("stock row ({warehouse}, {ITEM}) missing");
}

fn transfer_req(entry: pyx_lang::MethodId, from: i64, to: i64) -> TxnRequest {
    TxnRequest {
        entry,
        args: vec![
            ArgVal::Int(from),
            ArgVal::Int(to),
            ArgVal::Int(ITEM),
            ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    }
}

fn fast_client_cfg(fault: FaultScript) -> NetClientCfg {
    NetClientCfg {
        client_id: 77,
        io_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(300),
        max_reconnects: 200,
        fault: Some(fault),
    }
}

struct Rig {
    handle: pyx_server::net::NetServerHandle,
    entry: pyx_lang::MethodId,
    sinks: Vec<MemSink>,
    seed: u64,
}

/// Spin up a WAL-backed sharded server behind a TCP socket.
fn rig(seed: u64) -> Rig {
    let (pyxis, part) = compile();
    let entry = pyxis.entry("NetChaos", "transfer").expect("transfer");
    let part = Arc::new(part);
    let sinks: Vec<MemSink> = (0..W).map(|_| MemSink::new()).collect();
    let srv_sinks = sinks.clone();
    let listener = Listener::bind(&NetAddr::parse("tcp:127.0.0.1:0").unwrap()).expect("bind");
    let handle = NetServer::serve(
        listener,
        move || {
            let mut engines = build_shards(seed);
            ShardedServer::attach_shard_wals(&mut engines, 2, |i| Box::new(srv_sinks[i].clone()));
            ShardedServer::new(
                part,
                engines,
                ShardedConfig {
                    shards: W,
                    coordinators: 2,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg {
            io_timeout: Duration::from_millis(500),
        },
    );
    Rig {
        handle,
        entry,
        sinks,
        seed,
    }
}

/// Acked success = retired without error and with a non-negative
/// result (the transfer's guard returns -1 without touching stock).
fn acked_success(d: &pyx_server::TxnDone) -> bool {
    d.error.is_none() && matches!(d.result, Some(Value::Int(q)) if q >= 0)
}

/// Durability differential under link chaos: replay each shard's
/// durable bytes into a fresh engine, demand equality with the
/// survivor.
fn durability_differential(report: &pyx_server::ShardedReport, sinks: &[MemSink], seed: u64) {
    for (s, live) in report.engines.iter().enumerate() {
        let mut oracle = build_shards(seed).swap_remove(s);
        oracle
            .recover(&sinks[s].durable_bytes())
            .unwrap_or_else(|e| panic!("shard {s} durable log must replay cleanly: {e}"));
        assert_eq!(
            oracle.current_commit_ts(),
            live.current_commit_ts(),
            "shard {s} commit-timestamp horizon"
        );
        for table in live.table_names() {
            let mut a = oracle.dump_table(&table);
            let mut b = live.dump_table(&table);
            a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            assert_eq!(a, b, "shard {s} `{table}` state after link chaos");
        }
    }
}

/// One of each scripted fault class on a live server: every class is
/// either transparently retried or loudly reported — all tags retire
/// exactly once, and the applied count equals the acknowledged count.
#[test]
fn every_fault_class_retries_or_reports_loudly() {
    let r = rig(211);
    let initial = stock_of(&build_shards(r.seed), wh(1));

    let script = FaultScript::new();
    script.on_send([
        Fault::Deliver,
        Fault::Drop,
        Fault::DelayMs(5),
        Fault::Duplicate,
        Fault::Reorder,
        Fault::CorruptByte,
        Fault::CutAfter(40),
        Fault::Stall,
    ]);
    script.on_recv([
        Fault::Deliver,
        Fault::Drop,
        Fault::DelayMs(5),
        Fault::CorruptByte,
        Fault::CutAfter(0),
    ]);

    let mut client = NetClient::connect(r.handle.addr(), fast_client_cfg(script)).expect("connect");
    const N: u64 = 24;
    for tag in 0..N {
        // All one direction so the applied count is exactly observable
        // at wh(1).
        client.submit(transfer_req(r.entry, wh(0), wh(1)), tag);
    }
    let dones = client.drain();
    client.close();

    assert_eq!(dones.len() as u64, N, "every tag retires exactly once");
    let mut tags: Vec<u64> = dones.iter().map(|d| d.tag).collect();
    tags.sort_unstable();
    assert_eq!(
        tags,
        (0..N).collect::<Vec<_>>(),
        "no tag lost or duplicated"
    );
    // On a live server with a generous reconnect budget every fault
    // class heals transparently: no outcome-unknown retirements, but
    // any that do appear must say so loudly.
    for d in &dones {
        if let Some(e) = &d.error {
            assert!(
                e.contains("outcome unknown") || e.contains("admission"),
                "only loud, explicit failures allowed: {e}"
            );
        }
    }
    let acked = dones.iter().filter(|d| acked_success(d)).count() as i64;
    assert!(acked > 0, "the batch makes real progress through the chaos");

    let report = r.handle.shutdown();
    let applied = stock_of(&report.engines, wh(1)) - initial;
    assert_eq!(
        applied, acked,
        "duplicated/re-submitted transfers applied exactly once per ack"
    );
    durability_differential(&report, &r.sinks, r.seed);
}

/// Full partition mid-batch, healed while the client is mid-reconnect:
/// the client converges to exactly-once outcomes for every tag.
#[test]
fn partitioned_then_healed_client_observes_exactly_once_effects() {
    let r = rig(223);
    let initial = stock_of(&build_shards(r.seed), wh(2));

    let script = FaultScript::new();
    // A couple of duplicates in flight when the partition hits.
    script.on_send([Fault::Deliver, Fault::Duplicate, Fault::Duplicate]);
    let mut client =
        NetClient::connect(r.handle.addr(), fast_client_cfg(script.clone())).expect("connect");

    const N: u64 = 12;
    for tag in 0..N / 2 {
        client.submit(transfer_req(r.entry, wh(3), wh(2)), tag);
    }
    script.partition();
    // Heal while the client is inside its reconnect loop.
    let healer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        script.heal();
    });
    for tag in N / 2..N {
        client.submit(transfer_req(r.entry, wh(3), wh(2)), tag);
    }
    let dones = client.drain();
    healer.join().unwrap();
    client.close();

    assert_eq!(dones.len() as u64, N, "every tag retires exactly once");
    let acked = dones.iter().filter(|d| acked_success(d)).count() as i64;
    let unknown = dones
        .iter()
        .filter(|d| {
            d.error
                .as_deref()
                .is_some_and(|e| e.contains("outcome unknown"))
        })
        .count() as i64;
    assert_eq!(
        acked + unknown,
        N as i64,
        "an outage yields only real outcomes or loud unknowns"
    );
    assert!(acked > 0, "the healed link delivers real outcomes");

    let report = r.handle.shutdown();
    let applied = stock_of(&report.engines, wh(2)) - initial;
    // Acked successes are applied exactly once; unknowns at most once.
    assert!(
        applied >= acked && applied <= acked + unknown,
        "applied {applied} vs acked {acked} + unknown {unknown}"
    );
    if unknown == 0 {
        assert_eq!(applied, acked, "healed partition converges to exactly-once");
    }
    durability_differential(&report, &r.sinks, r.seed);
}

/// A partition that never heals: the reconnect budget exhausts and
/// every in-flight request is retired with an explicit outcome-unknown
/// error — loud, not hung. After the partition lifts, the same client
/// recovers.
#[test]
fn exhausted_reconnect_budget_reports_outcome_unknown() {
    let r = rig(227);
    let script = FaultScript::new();
    let cfg = NetClientCfg {
        max_reconnects: 2,
        ..fast_client_cfg(script.clone())
    };
    let mut client = NetClient::connect(r.handle.addr(), cfg).expect("connect");

    client.submit(transfer_req(r.entry, wh(0), wh(1)), 0);
    let first = client.recv_done().expect("clean link works");
    assert!(first.error.is_none());

    script.partition();
    client.submit(transfer_req(r.entry, wh(0), wh(1)), 1);
    client.submit(transfer_req(r.entry, wh(0), wh(1)), 2);
    let dones = client.drain();
    assert_eq!(dones.len(), 2);
    for d in &dones {
        let e = d.error.as_deref().expect("partitioned outcome is an error");
        assert!(
            e.contains("transaction outcome unknown"),
            "the error names the uncertainty: {e}"
        );
    }

    // The client object survives its own budget exhaustion: once the
    // network returns, fresh submits work (and the server's dedup table
    // still answers — never double-applies — any tag that did land).
    script.heal();
    client.submit(transfer_req(r.entry, wh(0), wh(1)), 3);
    let d = client.recv_done().expect("healed link works");
    assert_eq!(d.tag, 3);
    assert!(d.error.is_none());
    client.close();
    let report = r.handle.shutdown();
    durability_differential(&report, &r.sinks, r.seed);
}

/// Satellite: the client's connection dies *between a cross-shard
/// transfer's prepare fan-out and its commit decision* — the transport
/// analogue of the in-process chaos harness's targeted mid-2PC kill.
/// The decision registry plus the server's per-client dedup table must
/// keep the outcome atomic and exactly-once across the reconnect: the
/// re-submitted tag is answered from the cache, both shards apply the
/// transfer exactly once, and no decision leaks.
#[test]
fn reconnect_during_two_phase_commit_stays_exactly_once() {
    let r = rig(229);
    let fresh = build_shards(r.seed);
    let from0 = stock_of(&fresh, wh(0));
    let to0 = stock_of(&fresh, wh(1));

    // Park the next cross-shard commit between unanimous prepare and
    // the decide fan-out.
    let (held, release) = r
        .handle
        .with_server(|s| s.hold_next_multi(HoldPoint::Commit));

    let script = FaultScript::new();
    let mut client =
        NetClient::connect(r.handle.addr(), fast_client_cfg(script.clone())).expect("connect");
    client.submit(transfer_req(r.entry, wh(0), wh(1)), 0);
    held.recv_timeout(Duration::from_secs(30))
        .expect("transfer parked in the in-doubt window");

    // Cut the link while the transaction sits between prepare and
    // decide; release the decision and heal while the client is
    // reconnecting and re-submitting tag 0.
    script.partition();
    let healer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        release.send(()).expect("release the parked coordinator");
        std::thread::sleep(Duration::from_millis(100));
        script.heal();
    });

    let d = client.recv_done().expect("the parked transfer retires");
    healer.join().unwrap();
    assert_eq!(d.tag, 0);
    assert!(
        d.error.is_none(),
        "reconnect during 2PC must not lose the outcome: {:?}",
        d.error
    );
    assert!(acked_success(&d));
    assert!(client.recv_done().is_none(), "exactly one retirement");
    client.close();

    // A fresh connection presenting the same client identity and
    // re-submitting the same tag — the worst-case duplicate after a
    // crash-restart of the APP host — is answered from the dedup
    // cache, not re-executed.
    let mut ghost = NetClient::connect(
        r.handle.addr(),
        NetClientCfg {
            client_id: 77,
            ..NetClientCfg::default()
        },
    )
    .expect("reconnect as the same identity");
    ghost.submit(transfer_req(r.entry, wh(0), wh(1)), 0);
    let dup = ghost.recv_done().expect("cached answer");
    assert_eq!(dup.tag, 0);
    assert_eq!(
        format!("{:?}", dup.result),
        format!("{:?}", d.result),
        "cached outcome, not a re-execution"
    );
    ghost.close();

    let pending = r.handle.with_server(|s| s.pending_decisions());
    assert_eq!(pending, 0, "no decision registry leak");

    let report = r.handle.shutdown();
    assert_eq!(
        stock_of(&report.engines, wh(0)),
        from0 - 1,
        "source shard applied exactly once"
    );
    assert_eq!(
        stock_of(&report.engines, wh(1)),
        to0 + 1,
        "destination shard applied exactly once"
    );
    durability_differential(&report, &r.sinks, r.seed);
}

/// Link chaos and worker death together: a worker is killed while the
/// link is dropping and duplicating frames. Self-healing respawns the
/// shard from its WAL; the client retires every tag; the durability
/// differential still holds.
#[test]
fn link_faults_and_worker_kill_compose() {
    let r = rig(233);
    let seed = r.seed;
    let sinks = r.sinks.clone();
    r.handle.with_server(move |s| {
        s.enable_self_healing();
        s.set_respawn_factory(move |sh| {
            let mut e = build_shards(seed).swap_remove(sh);
            e.recover(&sinks[sh].durable_bytes()).ok()?;
            Some(e)
        });
    });

    let script = FaultScript::new();
    script.on_send([
        Fault::Deliver,
        Fault::Drop,
        Fault::Duplicate,
        Fault::Deliver,
        Fault::Drop,
    ]);
    script.on_recv([Fault::Drop, Fault::Deliver, Fault::Duplicate]);
    let mut client = NetClient::connect(r.handle.addr(), fast_client_cfg(script)).expect("connect");

    // Wave 1: kill a participant mid-batch, while the link is flaky.
    // (`after_done: 0` dies on receipt — a 2PC-only workload produces
    // no worker-local dones to count down on.)
    let victim = shard_of(&Scalar::Int(wh(1)), W);
    for tag in 0..10u64 {
        if tag == 4 {
            r.handle
                .with_server(move |s| s.inject_worker_crash(victim, 0));
        }
        client.submit(transfer_req(r.entry, wh(0), wh(1)), tag);
    }
    let wave1 = client.drain();
    assert_eq!(wave1.len(), 10, "every wave-1 tag retires exactly once");
    for d in &wave1 {
        if let Some(e) = &d.error {
            assert!(
                e.contains("outcome unknown")
                    || e.contains("admission")
                    || e.contains("worker died")
                    || e.contains("unavailable")
                    || e.contains("aborted"),
                "failures stay loud and explicit: {e}"
            );
        }
    }

    // The serving loop's own reap tick performs the failover — no test
    // hook drives it.
    let t0 = std::time::Instant::now();
    loop {
        let healed = r.handle.with_server(|s| s.recoveries().len());
        if healed >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "self-healing socket server never failed over"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Wave 2: the healed shard serves cross-shard commits again.
    for tag in 10..20u64 {
        client.submit(transfer_req(r.entry, wh(0), wh(1)), tag);
    }
    let wave2 = client.drain();
    client.close();
    assert_eq!(wave2.len(), 10, "every wave-2 tag retires exactly once");
    assert!(
        wave2.iter().any(acked_success),
        "progress resumes after the kill"
    );
    let dead = r.handle.with_server(|s| s.dead_shards());
    assert!(dead.is_empty(), "no shard left dead: {dead:?}");

    let report = r.handle.shutdown();
    durability_differential(&report, &r.sinks, r.seed);
}
