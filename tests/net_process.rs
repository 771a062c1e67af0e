//! Process-separation smoke: a real APP-host process drives a real
//! DB-host process (the `dbhost` binary) over a Unix-domain socket,
//! then proves the served state is byte-identical to an in-process run
//! of the same closed-loop workload.
//!
//! Nothing compiled crosses the wire: both processes derive the same
//! `CompiledPartition` (from `tpcc::HOST_SRC`) and the same loaded
//! shards (`tpcc::host_shards`) deterministically from the same seed —
//! the paper's deployment split, with the APP and DB runtimes in
//! genuinely separate address spaces.

#![cfg(unix)]

use pyxis::runtime::ArgVal;
use pyxis::server::net::{NetAddr, NetClient, NetClientCfg};
use pyxis::server::{ShardedConfig, ShardedServer, TxnRequest, Workload};
use pyxis::workloads::tpcc;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const W: usize = 4;
const SEED: u64 = 1009;
/// How long an in-process submit may wait for admission.
const ADMIT_WAIT: Duration = Duration::from_millis(13);

fn wh(s: usize) -> i64 {
    (1..=8i64)
        .find(|&k| pyxis::db::shard_of(&pyxis::db::Scalar::Int(k), W) == s)
        .expect("every shard owns a warehouse")
}

/// The closed-loop workload both sides run, in identical order.
fn mixed_requests(pyxis: &pyxis::core::Pyxis, n: usize) -> Vec<TxnRequest> {
    let new_order = pyxis.entry("Host", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Host", "transfer").expect("transfer");
    let mut gen = tpcc::NewOrderGen::new(new_order, tpcc::HOST_SCALE, 17).with_lines(2, 4);
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

struct DbHost {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
}

impl DbHost {
    fn spawn(addr: &str) -> DbHost {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dbhost"))
            .args([addr, &W.to_string(), &SEED.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dbhost");
        let stdout = BufReader::new(child.stdout.take().expect("dbhost stdout piped"));
        DbHost { child, stdout }
    }

    /// The serving address from the `READY <addr>` banner.
    fn ready(&mut self) -> NetAddr {
        let ready = self.read_line();
        let addr_str = ready
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("unexpected dbhost banner: {ready}"));
        NetAddr::parse(addr_str).expect("dbhost address")
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("dbhost line");
        line.trim().to_string()
    }

    fn shutdown(mut self) -> (String, String) {
        self.child
            .stdin
            .as_mut()
            .expect("dbhost stdin piped")
            .write_all(b"shutdown\n")
            .expect("send shutdown");
        let fp = self.read_line();
        let completed = self.read_line();
        let status = self.child.wait().expect("dbhost exits");
        assert!(status.success(), "dbhost exit: {status}");
        (fp, completed)
    }
}

#[test]
fn separate_process_db_host_over_uds_matches_in_process_state() {
    let dir = std::env::temp_dir().join(format!("pyx-dbhost-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let sock = dir.join("dbhost.sock");
    let mut host = DbHost::spawn(&format!("uds:{}", sock.display()));
    let addr = host.ready();

    // Drive the workload closed-loop from *this* process over the wire.
    let pyxis = pyxis::core::Pyxis::compile(tpcc::HOST_SRC, pyxis::core::PyxisConfig::default())
        .expect("driver compiles the same program");
    let reqs = mixed_requests(&pyxis, 40);
    let mut client = NetClient::connect(&addr, NetClientCfg::default()).expect("connect");
    let mut committed = 0u64;
    for (tag, r) in reqs.iter().enumerate() {
        client.submit(r.clone(), tag as u64);
        let d = client.recv_done().expect("closed loop retires");
        assert_eq!(d.tag, tag as u64);
        assert!(
            d.error.is_none(),
            "txn {tag} failed across processes: {:?}",
            d.error
        );
        committed += 1;
    }
    client.close();
    let (fp_line, completed_line) = host.shutdown();
    let served_fp = fp_line
        .strip_prefix("FINGERPRINT ")
        .unwrap_or_else(|| panic!("unexpected dbhost output: {fp_line}"));
    // 30 routed new-orders on the shards' own dispatchers plus 10
    // cross-shard transfers on their homes': each counted exactly once.
    assert_eq!(completed_line, "COMPLETED 40");
    assert_eq!(committed, 40);

    // Oracle: identical workload, identical order, in process.
    let part = Arc::new(pyxis.deploy_jdbc());
    let mut srv = ShardedServer::new(
        part,
        tpcc::host_shards(W, SEED),
        ShardedConfig {
            shards: W,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    for (tag, r) in reqs.iter().enumerate() {
        assert_eq!(
            srv.submit_by_deadline(r.clone(), tag as u64, Instant::now() + ADMIT_WAIT),
            pyxis::server::Admit::Started
        );
        let d = srv.recv_done().expect("closed loop retires");
        assert!(d.error.is_none());
    }
    let (_, report) = srv.shutdown();
    let oracle_fp = format!("{:016x}", tpcc::fingerprint(&report.engines));

    assert_eq!(
        served_fp, oracle_fp,
        "state served across process + socket boundaries diverged from \
         the in-process oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Voluntary context switches so far of the thread named `name` in
/// process `pid`, from `/proc/<pid>/task/*/status`.
#[cfg(target_os = "linux")]
fn voluntary_switches(pid: u32, name: &str) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("dbhost task list");
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if status.lines().any(|l| l == format!("Name:\t{name}")) {
            return status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse().ok())
                .expect("status reports voluntary switches");
        }
    }
    panic!("dbhost has no thread named {name}");
}

/// An idle `dbhost`'s owner thread sleeps until something wakes it:
/// once the workload has retired, with the client still connected, it
/// makes next to no voluntary context switches in a second. A timed
/// wait in its loop would make one per tick. Counting switches, not CPU
/// time, keeps the check independent of host load.
#[cfg(target_os = "linux")]
#[test]
fn idle_dbhost_owner_thread_makes_no_wakeups() {
    let dir = std::env::temp_dir().join(format!("pyx-dbhost-idle-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let sock = dir.join("dbhost.sock");
    let mut host = DbHost::spawn(&format!("uds:{}", sock.display()));
    let addr = host.ready();

    let pyxis = pyxis::core::Pyxis::compile(tpcc::HOST_SRC, pyxis::core::PyxisConfig::default())
        .expect("driver compiles the same program");
    let mut client = NetClient::connect(&addr, NetClientCfg::default()).expect("connect");
    for (tag, r) in mixed_requests(&pyxis, 8).into_iter().enumerate() {
        client.submit(r, tag as u64);
        let d = client.recv_done().expect("closed loop retires");
        assert!(d.error.is_none(), "txn {tag} failed: {:?}", d.error);
    }

    let pid = host.child.id();
    let before = voluntary_switches(pid, "pyx-net-owner");
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(pid, "pyx-net-owner") - before;
    assert!(woke < 20, "idle owner thread woke {woke} times in 1 s");

    client.close();
    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
