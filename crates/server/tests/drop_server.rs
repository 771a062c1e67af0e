//! Dropping a `ShardedServer` without `shutdown()` stops every thread it
//! started. The threads hold each other's inboxes — a home and its
//! participants, a replica its feed's waker — so none of them would see
//! its inbox close on its own. The only test in this file, so it runs in
//! a process of its own and may count that process's threads.
#![cfg(target_os = "linux")]

use pyx_db::{shard_of, Engine, MemSink, Scalar};
use pyx_server::{ShardedConfig, ShardedServer, TxnRequest};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SRC: &str = r#"
    class Bank {
        int transfer(int fromW, int toW, int iid, int qty) {
            row[] a = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", fromW, iid);
            int have = a[0].getInt(0);
            dbUpdate("UPDATE stock SET s_quantity = s_quantity - ? WHERE s_w_id = ? AND s_i_id = ?", qty, fromW, iid);
            dbUpdate("UPDATE stock SET s_quantity = s_quantity + ? WHERE s_w_id = ? AND s_i_id = ?", qty, toW, iid);
            return have - qty;
        }
    }
"#;

fn shards() -> Vec<Engine> {
    let scale = tpcc::TpccScale {
        warehouses: 4,
        districts_per_wh: 1,
        customers_per_district: 2,
        items: 10,
    };
    let mut engines: Vec<Engine> = (0..2)
        .map(|_| {
            let mut e = Engine::new();
            tpcc::create_schema(&mut e);
            e
        })
        .collect();
    tpcc::load_sharded(&mut engines, scale, 5);
    engines
}

/// The names of this process's threads that the server started.
fn server_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("pyx-"))
        .collect()
}

#[test]
fn dropping_the_server_stops_every_thread() {
    let pyxis =
        pyx_core::Pyxis::compile(SRC, pyx_core::PyxisConfig::default()).expect("source compiles");
    let part = pyxis.deploy_jdbc();
    let transfer = pyxis.entry("Bank", "transfer").expect("transfer");
    let sinks: Vec<MemSink> = (0..2).map(|_| MemSink::new()).collect();
    let mut engines = shards();
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 1, |i| {
        Box::new(sinks[i].clone())
    });
    let mut srv = ShardedServer::new(
        Arc::new(part),
        engines,
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
    );
    let replica = shards().swap_remove(0);
    srv.spawn_replicas(&feeds, vec![vec![replica], Vec::new()]);
    let wh = |s: usize| {
        (1..=4i64)
            .find(|&k| shard_of(&Scalar::Int(k), 2) == s)
            .expect("a warehouse on every shard")
    };
    let int = pyx_runtime::ArgVal::Int;
    let req = TxnRequest {
        entry: transfer,
        args: vec![int(wh(0)), int(wh(1)), int(1), int(1)],
        label: "transfer",
        route: None,
    };
    srv.submit(req, 0);
    let d = srv.recv_done().expect("the transfer retires");
    assert!(d.error.is_none(), "{:?}", d.error);
    assert_eq!(d.participants, 2);
    assert!(!server_threads().is_empty(), "the probe sees the threads");

    drop(srv);
    let t0 = Instant::now();
    loop {
        let left = server_threads();
        if left.is_empty() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "threads outlive their dropped server: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
