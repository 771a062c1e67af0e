//! Standalone DB-host process: serve a TPC-C-loaded sharded server
//! over a real socket until told to stop, then print a fingerprint of
//! the final engine state.
//!
//! ```sh
//! dbhost <tcp:host:port | uds:/path> <shards> <seed>
//! ```
//!
//! Protocol (used by the `net_process` smoke test):
//! * stdout `READY <addr>` once the listener is bound (with the real
//!   port when given `tcp:...:0`);
//! * stdin line `shutdown` drains the server and prints
//!   `FINGERPRINT <hex>` and `COMPLETED <n>`, then exits.
//!
//! Both this process and its driver derive the same compiled partition
//! ([`tpcc::HOST_SRC`]) and the same loaded shards
//! ([`tpcc::host_shards`]) deterministically from the seed — nothing
//! compiled ships over the wire, exactly the paper's deployment story:
//! the DB host holds the DB-side program; clients send entry
//! invocations only.

use pyxis::server::net::{Listener, NetAddr, NetServer, NetServerCfg};
use pyxis::server::{ShardedConfig, ShardedServer};
use pyxis::workloads::tpcc;
use std::io::BufRead;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 3 {
        eprintln!("usage: dbhost <tcp:host:port | uds:/path> <shards> <seed>");
        std::process::exit(2);
    }
    let addr = NetAddr::parse(&args[0]).expect("valid address");
    let shards: usize = args[1].parse().expect("shard count");
    let seed: u64 = args[2].parse().expect("seed");

    let pyxis = pyxis::core::Pyxis::compile(tpcc::HOST_SRC, pyxis::core::PyxisConfig::default())
        .expect("host program compiles");
    let part = Arc::new(pyxis.deploy_jdbc());

    let listener = Listener::bind(&addr).expect("bind serving socket");
    let handle = NetServer::serve(
        listener,
        move || {
            ShardedServer::new(
                part,
                tpcc::host_shards(shards, seed),
                ShardedConfig {
                    shards,
                    coordinators: 2,
                    ..ShardedConfig::default()
                },
            )
        },
        NetServerCfg::default(),
    );
    println!("READY {}", handle.addr());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        if line.trim() == "shutdown" {
            break;
        }
    }
    let report = handle.shutdown();
    println!("FINGERPRINT {:016x}", tpcc::fingerprint(&report.engines));
    println!(
        "COMPLETED {}",
        report.dispatchers.iter().map(|d| d.completed).sum::<u64>() + report.multi_txns
    );
}
