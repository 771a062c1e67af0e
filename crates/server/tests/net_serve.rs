//! Socket transport differential: the same TPC-C workload driven
//! through the in-process path (`ShardedServer::submit`/`recv_done`,
//! the `InstantEnv`-priced oracle) and through the real socket path
//! (`NetServer` + `NetClient` over UDS and TCP) must retire identical
//! per-transaction outcomes and leave byte-identical engine state. A
//! fault-free link must be invisible. Requests no session can be built
//! for retire with an error over the wire and harm nothing else.

use pyx_db::{shard_of, Engine, Scalar};
use pyx_pyxil::CompiledPartition;
use pyx_runtime::ArgVal;
use pyx_server::net::{Listener, NetAddr, NetClient, NetClientCfg, NetServer, NetServerCfg};
use pyx_server::{ShardedConfig, ShardedServer, TxnDone, TxnRequest, Workload};
use pyx_workloads::tpcc;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const W: usize = 4;
/// How long an in-process submit may wait for admission.
const ADMIT_WAIT: Duration = Duration::from_millis(13);

const SRC: &str = r#"
    class Serve {
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
    }
"#;

fn scale() -> tpcc::TpccScale {
    tpcc::TpccScale {
        warehouses: 8,
        districts_per_wh: 3,
        customers_per_district: 10,
        items: 100,
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

/// The closed-loop mixed workload both paths run: `n` transactions,
/// 1-in-4 a cross-shard transfer, the rest routed new-orders cycling
/// warehouses.
fn mixed_requests(pyxis: &pyx_core::Pyxis, n: usize) -> Vec<TxnRequest> {
    let new_order = pyxis.entry("Serve", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Serve", "transfer").expect("transfer");
    let mut gen = tpcc::NewOrderGen::new(new_order, scale(), 17).with_lines(2, 4);
    let mut no_i = 0usize;
    (0..n)
        .map(|slot| {
            if slot % 4 == 3 {
                let s = slot % W;
                TxnRequest {
                    entry: transfer,
                    args: vec![
                        ArgVal::Int(wh(s)),
                        ArgVal::Int(wh((s + 1) % W)),
                        ArgVal::Int(1 + (slot as i64 % 100)),
                        ArgVal::Int(1),
                    ],
                    label: "transfer",
                    route: None,
                }
            } else {
                let mut r = Workload::next_txn(&mut gen, slot);
                let wid = wh(no_i % W);
                no_i += 1;
                r.args[0] = ArgVal::Int(wid);
                r.route = Some(wid);
                r
            }
        })
        .collect()
}

/// Outcome signature for the differential: everything except wall-clock
/// timestamps and host-side tags.
type Sig = (u64, String, bool, Option<String>);
/// Per-shard sorted table dumps: the final-state half of the differential.
type State = Vec<Vec<(String, Vec<Vec<Scalar>>)>>;

fn sig(d: &TxnDone) -> Sig {
    (
        d.tag,
        format!("{:?}", d.result),
        d.rolled_back,
        d.error.clone(),
    )
}

/// Run the workload closed-loop in process: the ordering oracle.
fn run_in_process(
    part: &Arc<CompiledPartition>,
    reqs: &[TxnRequest],
    seed: u64,
) -> (Vec<Sig>, State) {
    let mut srv = ShardedServer::new(
        Arc::clone(part),
        build_shards(seed),
        ShardedConfig {
            shards: W,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    let mut sigs = Vec::with_capacity(reqs.len());
    for (tag, r) in reqs.iter().enumerate() {
        assert_eq!(
            srv.submit_by_deadline(r.clone(), tag as u64, Instant::now() + ADMIT_WAIT),
            pyx_server::Admit::Started
        );
        let d = srv.recv_done().expect("closed loop retires");
        sigs.push(sig(&d));
    }
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    (sigs, dump_all(&report.engines))
}

fn dump_all(engines: &[Engine]) -> State {
    engines
        .iter()
        .map(|e| {
            e.table_names()
                .into_iter()
                .map(|t| {
                    let mut rows = e.dump_table(&t);
                    rows.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
                    (t, rows)
                })
                .collect()
        })
        .collect()
}

/// Run the same workload closed-loop through a real socket.
fn run_over_socket(
    part: &Arc<CompiledPartition>,
    reqs: &[TxnRequest],
    seed: u64,
    addr: &NetAddr,
) -> (Vec<Sig>, State) {
    let listener = Listener::bind(addr).expect("bind");
    let part2 = Arc::clone(part);
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part2,
                build_shards(seed),
                ShardedConfig {
                    shards: W,
                    coordinators: 2,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let bound = handle.addr().clone();
    let mut client = NetClient::connect(&bound, NetClientCfg::default()).expect("connect");
    let mut sigs = Vec::with_capacity(reqs.len());
    for (tag, r) in reqs.iter().enumerate() {
        client.submit(r.clone(), tag as u64);
        let d = client.recv_done().expect("closed loop retires");
        assert_eq!(d.tag, tag as u64);
        sigs.push(sig(&d));
    }
    client.close();
    let report = handle.shutdown();
    (sigs, dump_all(&report.engines))
}

#[test]
fn uds_socket_path_matches_in_process_path() {
    let (pyxis, part) = compile();
    let part = Arc::new(part);
    let reqs = mixed_requests(&pyxis, 48);
    let seed = 23;

    let (oracle_sigs, oracle_state) = run_in_process(&part, &reqs, seed);
    let dir = std::env::temp_dir().join(format!("pyx-net-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let addr = NetAddr::Uds(dir.join("serve.sock"));
    let (net_sigs, net_state) = run_over_socket(&part, &reqs, seed, &addr);

    assert_eq!(oracle_sigs, net_sigs, "per-transaction outcomes diverge");
    assert_eq!(oracle_state, net_state, "final engine state diverges");
    assert!(
        oracle_sigs.iter().any(|s| s.3.is_none()),
        "the mix commits real work"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `uds:` bind replaces only a stale socket: over a regular file it
/// fails, and the file keeps its bytes.
#[test]
fn uds_bind_never_deletes_a_regular_file() {
    let dir = std::env::temp_dir().join(format!("pyx-net-bind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("data.txt");
    std::fs::write(&file, b"keep me").expect("write the file");
    assert!(
        Listener::bind(&NetAddr::Uds(file.clone())).is_err(),
        "a regular file is not a stale socket"
    );
    assert_eq!(std::fs::read(&file).expect("the file survives"), b"keep me");

    let sock = NetAddr::Uds(dir.join("stale.sock"));
    drop(Listener::bind(&sock).expect("first bind"));
    drop(Listener::bind(&sock).expect("a stale socket is replaced"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_socket_path_matches_in_process_path() {
    let (pyxis, part) = compile();
    let part = Arc::new(part);
    let reqs = mixed_requests(&pyxis, 24);
    let seed = 41;

    let (oracle_sigs, oracle_state) = run_in_process(&part, &reqs, seed);
    let addr = NetAddr::parse("tcp:127.0.0.1:0").unwrap();
    let (net_sigs, net_state) = run_over_socket(&part, &reqs, seed, &addr);

    assert_eq!(oracle_sigs, net_sigs);
    assert_eq!(oracle_state, net_state);
}

/// Two concurrent clients with independent tag spaces: every submit
/// retires exactly once per client, the server's dedup tables never
/// cross identities, and total committed work adds up.
#[test]
fn concurrent_clients_each_get_exactly_once_streams() {
    let (pyxis, part) = compile();
    let part = Arc::new(part);
    let seed = 59;
    let addr = NetAddr::parse("tcp:127.0.0.1:0").unwrap();
    let listener = Listener::bind(&addr).expect("bind");
    let part2 = Arc::clone(&part);
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part2,
                build_shards(seed),
                ShardedConfig {
                    shards: W,
                    coordinators: 2,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let bound = handle.addr().clone();

    let mut joins = Vec::new();
    for c in 0..2u64 {
        let bound = bound.clone();
        let reqs = mixed_requests(&pyxis, 20);
        joins.push(std::thread::spawn(move || {
            let cfg = NetClientCfg {
                client_id: 1000 + c,
                ..NetClientCfg::default()
            };
            let mut client = NetClient::connect(&bound, cfg).expect("connect");
            let mut ok = 0usize;
            let mut retired = 0usize;
            for (tag, r) in reqs.iter().enumerate() {
                client.submit(r.clone(), tag as u64);
                let d = client.recv_done().expect("retires");
                assert_eq!(d.tag, tag as u64, "tags stay within this client");
                retired += 1;
                if d.error.is_none() {
                    ok += 1;
                }
            }
            client.close();
            (retired, ok)
        }));
    }
    let mut total_ok = 0usize;
    for j in joins {
        let (retired, ok) = j.join().expect("client thread");
        assert_eq!(retired, 20, "every submit retires exactly once");
        total_ok += ok;
    }
    assert!(total_ok > 0);
    let report = handle.shutdown();
    assert!(report.dispatchers.iter().map(|s| s.completed).sum::<u64>() > 0);
}

/// Admission check over the wire: a routed and a cross-shard request
/// with too few arguments, and a request naming an unknown entry, each
/// retire once with the session's own error, and the good requests
/// between and after them succeed. No shard worker dies over them, so
/// nothing is left dead or healed.
#[test]
fn malformed_requests_over_the_socket_retire_with_errors() {
    let (pyxis, part) = compile();
    let new_order = pyxis.entry("Serve", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Serve", "transfer").expect("transfer");
    let part = Arc::new(part);
    let seed = 31;
    let addr = NetAddr::parse("tcp:127.0.0.1:0").unwrap();
    let listener = Listener::bind(&addr).expect("bind");
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part,
                build_shards(seed),
                ShardedConfig {
                    shards: W,
                    coordinators: 2,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let bad = |entry, label, route| TxnRequest {
        entry,
        args: vec![ArgVal::Int(wh(0))],
        label,
        route,
    };
    let mut good = mixed_requests(&pyxis, 8).into_iter().map(|r| (r, None));
    let mut reqs: Vec<(TxnRequest, Option<&str>)> = good.by_ref().take(1).collect();
    reqs.push((
        bad(new_order, "short-routed", Some(wh(0))),
        Some("runtime error: entry `newOrder` expects 5 args, got 1"),
    ));
    reqs.extend(good.by_ref().take(1));
    reqs.push((
        bad(transfer, "short-cross", None),
        Some("runtime error: entry `transfer` expects 4 args, got 1"),
    ));
    reqs.extend(good.by_ref().take(1));
    reqs.push((
        bad(pyx_lang::MethodId(9999), "unknown", Some(wh(1))),
        Some("runtime error: unknown entry method 9999"),
    ));
    reqs.extend(good);

    let mut client = NetClient::connect(handle.addr(), NetClientCfg::default()).expect("connect");
    for (tag, (r, want)) in reqs.iter().enumerate() {
        client.submit(r.clone(), tag as u64);
        let d = client.recv_done().expect("every request retires");
        assert_eq!(d.tag, tag as u64);
        assert_eq!(d.error.as_deref(), *want, "txn {tag} ({})", r.label);
    }
    client.close();
    let (dead, recoveries) = handle.with_server(|s| (s.dead_shards(), s.recoveries().len()));
    assert!(dead.is_empty(), "no worker died: {dead:?}");
    assert_eq!(recoveries, 0, "nothing needed healing");
    let report = handle.shutdown();
    assert_eq!(report.multi_txns, 3, "two good transfers and the short one");
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

/// An idle server's owner blocks until something wakes it: after
/// ~100 ms of idling, a control call and a submit each complete. The
/// client's request timeout is far above the watchdog's, so a reconnect
/// and re-submit, whose fresh events would wake the owner, cannot hide
/// a lost wake.
#[test]
fn idle_server_wakes_for_control_and_submit() {
    let (pyxis, part) = compile();
    let part = Arc::new(part);
    let seed = 13;
    let addr = NetAddr::parse("tcp:127.0.0.1:0").unwrap();
    let listener = Listener::bind(&addr).expect("bind");
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part,
                build_shards(seed),
                ShardedConfig {
                    shards: W,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let cfg = NetClientCfg {
        request_timeout: Duration::from_secs(30),
        ..NetClientCfg::default()
    };
    let mut client = NetClient::connect(handle.addr(), cfg).expect("connect");
    let req = mixed_requests(&pyxis, 1).remove(0);
    let (handle, client) = within(Duration::from_secs(10), move || {
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(handle.with_server(|s| s.shards()), W);
        std::thread::sleep(Duration::from_millis(100));
        client.submit(req, 0);
        let d = client.recv_done().expect("the submit retires");
        assert_eq!(d.tag, 0);
        assert!(d.error.is_none(), "{:?}", d.error);
        (handle, client)
    });
    client.close();
    let report = handle.shutdown();
    assert_eq!(
        report.dispatchers.iter().map(|s| s.completed).sum::<u64>(),
        1
    );
}

/// `SocketEnv` prices events with real measured round trips: nonzero,
/// monotone in time, and larger payloads never measure as instant.
#[test]
fn socket_env_measures_real_round_trips() {
    use pyx_server::net::SocketEnv;
    use pyx_server::Env;

    let (_pyxis, part) = compile();
    let part = Arc::new(part);
    let seed = 7;
    let addr = NetAddr::parse("tcp:127.0.0.1:0").unwrap();
    let listener = Listener::bind(&addr).expect("bind");
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part,
                build_shards(seed),
                ShardedConfig {
                    shards: W,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    let mut env = SocketEnv::connect(handle.addr(), Duration::from_secs(2)).expect("env connect");
    let t1 = env.net(1000, pyx_partition::Side::App, pyx_partition::Side::Db, 128);
    assert!(t1 > 1000, "a real wire takes real time");
    let t2 = env.db_op(t1, pyx_partition::Side::App, 500, 256, 1024);
    assert!(t2 > t1 + 500, "db_op includes cpu plus a round trip");
    assert_eq!(
        env.cpu(t2, pyx_partition::Side::App, 99),
        t2,
        "cpu is real work, priced as now"
    );
    drop(env);
    handle.shutdown();
}
