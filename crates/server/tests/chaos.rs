//! Kill-anywhere chaos harness for the self-healing shard tier.
//!
//! A TPC-C mix of routed new-orders and cross-shard 2PC stock transfers
//! runs against a 4-shard server with per-shard WALs, log-shipping
//! replicas, self-healing promotion, and a respawn-from-log factory.
//! Workers are killed round-robin *while the batch is in flight* — six
//! untargeted kills plus one targeted kill landed precisely between a
//! transfer's prepare acknowledgement and its commit decision (the
//! in-doubt window 2PC exists to protect). The harness then proves:
//!
//! * every admitted transaction retires exactly once (acked result or
//!   explicit "outcome unknown" error — nothing wedges, nothing is
//!   silently dropped);
//! * the supervisor restores full availability after every kill, via
//!   replica promotion while a replica exists and via WAL respawn once
//!   it is consumed, with a measured MTTR;
//! * the targeted kill's prepared branch is adopted in-doubt and
//!   resolved to COMMIT from the decision registry;
//! * **durability differential**: for every shard, a fresh engine
//!   recovered from that shard's durable log bytes is row-for-row and
//!   timestamp-identical to the survivor — every acked commit is
//!   present exactly once (no lost acks, no double apply).

use pyx_db::{shard_of, Engine, FileSink, MemSink, Scalar};
use pyx_pyxil::CompiledPartition;
use pyx_server::{Admit, HoldPoint, ShardedConfig, ShardedServer, TxnRequest, Workload};
use pyx_workloads::tpcc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const W: usize = 4;

/// How long a submit may ride out a failover window before the test
/// treats the shard as unavailable.
fn admit_deadline() -> Instant {
    Instant::now() + Duration::from_millis(600)
}

/// TPC-C new-order (byte-for-byte the partitionable transaction the
/// `tpcc` module ships) plus the cross-shard warehouse-to-warehouse
/// stock transfer — the 2PC workload under fire.
const CHAOS_SRC: &str = r#"
    class Chaos {
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
    let pyxis = pyx_core::Pyxis::compile(CHAOS_SRC, pyx_core::PyxisConfig::default())
        .expect("source compiles");
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

/// First warehouse id that `shard_of` places on shard `s`.
fn wh(s: usize) -> i64 {
    (1..=8i64)
        .find(|&k| shard_of(&Scalar::Int(k), W) == s)
        .expect("every shard owns a warehouse")
}

/// Spin the reaper until `n` recoveries have completed; panics if a
/// failover wedges.
fn wait_heal(srv: &mut ShardedServer, n: usize) {
    let t0 = Instant::now();
    while srv.recoveries().len() < n {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "failover stuck: {} of {n} recoveries after 30s",
            srv.recoveries().len()
        );
        std::thread::sleep(Duration::from_millis(1));
        srv.reap_now();
    }
}

#[test]
fn kill_anywhere_chaos_preserves_every_acked_commit() {
    let (pyxis, part) = compile();
    let new_order = pyxis.entry("Chaos", "newOrder").expect("newOrder");
    let transfer = pyxis.entry("Chaos", "transfer").expect("transfer");
    let part = Arc::new(part);
    let seed = 97;

    let sinks: Vec<MemSink> = (0..W).map(|_| MemSink::new()).collect();
    let mut engines = build_shards(seed);
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 2, |i| {
        Box::new(sinks[i].clone())
    });
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: W,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    let replicas = build_shards(seed).into_iter().map(|e| vec![e]).collect();
    srv.spawn_replicas(&feeds, replicas);
    srv.enable_self_healing();
    let factory_sinks = sinks.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = build_shards(seed).swap_remove(s);
        e.recover(&factory_sinks[s].durable_bytes()).ok()?;
        Some(e)
    });

    let mut gen = tpcc::NewOrderGen::new(new_order, scale(), 41).with_lines(2, 4);
    let mut tag = 0u64;
    let mut accepted = 0u64;
    let mut retired = 0u64;
    let mut committed = 0u64;

    // Six rounds: arm a delayed kill on the round's victim, then push a
    // 20-transaction mix through while it detonates mid-batch. Shards
    // 0..3 die once each with a live replica (promotion), then 0 and 1
    // die again with the replica consumed (respawn from the WAL).
    let mut no_i = 0usize;
    for round in 0..6usize {
        let victim = round % W;
        srv.inject_worker_crash(victim, 2);
        for slot in 0..20usize {
            let req = if slot % 4 == 3 {
                let s = slot % W;
                TxnRequest {
                    entry: transfer,
                    args: vec![
                        pyx_runtime::ArgVal::Int(wh(s)),
                        pyx_runtime::ArgVal::Int(wh((s + 1) % W)),
                        pyx_runtime::ArgVal::Int(1 + (slot as i64 % 100)),
                        pyx_runtime::ArgVal::Int(1),
                    ],
                    label: "transfer",
                    route: None,
                }
            } else {
                // Cycle new-order warehouses on their own counter so
                // every shard — including the one whose slot index
                // collides with the transfer slots — gets routed dones.
                let mut r = Workload::next_txn(&mut gen, slot);
                let wid = wh(no_i % W);
                no_i += 1;
                r.args[0] = pyx_runtime::ArgVal::Int(wid);
                r.route = Some(wid);
                r
            };
            if srv.submit_by_deadline(req, tag, admit_deadline()) == Admit::Started {
                accepted += 1;
            }
            tag += 1;
        }
        for done in srv.drain() {
            retired += 1;
            if done.error.is_none() {
                committed += 1;
            }
        }
        wait_heal(&mut srv, round + 1);
    }
    assert_eq!(accepted, retired, "every admitted transaction retires");
    assert!(committed > 0, "the mix makes real progress between kills");

    // Targeted kill inside the 2PC in-doubt window: park a transfer
    // between its unanimous prepare acknowledgement and the commit
    // fan-out, then kill a participant. Its durably-prepared branch
    // must be adopted in-doubt by the successor and resolved to COMMIT
    // from the decision registry. (Shard 1 is the victim: the transfer's
    // home, shard 0, would take the transaction down with it.)
    let healed_before = srv.recoveries().len();
    let (held, release) = srv.hold_next_multi(HoldPoint::Commit);
    let parked = TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(wh(0)),
            pyx_runtime::ArgVal::Int(wh(1)),
            pyx_runtime::ArgVal::Int(7),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };
    assert_eq!(srv.submit(parked, tag), Admit::Started);
    tag += 1;
    accepted += 1;
    held.recv_timeout(Duration::from_secs(30))
        .expect("transfer parked between prepare and commit");
    srv.inject_worker_crash(1, 0);
    wait_heal(&mut srv, healed_before + 1);
    let rec = *srv.recoveries().last().expect("targeted recovery");
    assert_eq!(rec.shard, 1);
    assert_eq!(rec.in_doubt, 1, "the prepared branch was adopted in-doubt");
    assert_eq!(rec.resolved_commit, 1, "registry says COMMIT — applied");
    assert_eq!(rec.resolved_abort, 0);
    release.send(()).expect("release the parked home");
    // The commit leg raced the kill: either outcome is a valid ack, and
    // the durability differential below holds regardless.
    let _ = srv.recv_done().expect("the parked transfer retires");
    retired += 1;

    // Full availability is restored: every shard serves a routed write.
    assert!(srv.dead_shards().is_empty(), "no shard left dead");
    for s in 0..W {
        let mut r = Workload::next_txn(&mut gen, s);
        r.args[0] = pyx_runtime::ArgVal::Int(wh(s));
        r.route = Some(wh(s));
        assert_eq!(
            srv.submit_by_deadline(r, tag, admit_deadline()),
            Admit::Started,
            "healed shard {s} accepts writes"
        );
        tag += 1;
        accepted += 1;
        let done = srv.recv_done().expect("post-chaos write retires");
        retired += 1;
        assert!(done.error.is_none(), "shard {s}: {:?}", done.error);
    }
    assert_eq!(accepted, retired);
    assert_eq!(
        srv.pending_decisions(),
        0,
        "every cross-shard decision settled: the registry does not leak \
         entries under worker churn"
    );

    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty(), "drain retired everything before shutdown");
    assert!(
        report.heal_failures.is_empty(),
        "no heal attempt failed: {:?}",
        report.heal_failures
    );
    let recs = &report.recoveries;
    assert_eq!(recs.len(), 7, "six round kills plus the targeted kill");
    assert!(recs.iter().all(|r| r.mttr_ns > 0));
    assert!(
        recs.iter().any(|r| r.promoted) && recs.iter().any(|r| !r.promoted),
        "both failover paths exercised: promotion and WAL respawn"
    );

    // Durability differential: replay each shard's durable log into a
    // fresh engine and demand row-for-row, timestamp-for-timestamp
    // equality with the survivor. Acked state lost in a kill would be
    // missing here; a double-applied redo record would show up as a
    // divergent row or timestamp.
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
            assert_eq!(a, b, "shard {s} `{table}` state after chaos");
        }
    }
}

/// A prepared participant dies while the home is still collecting the
/// remaining votes. The registry entry is still *voting*, so the
/// supervisor's heal pass must presume abort, write the veto into the
/// entry, and the home — whose remaining votes all succeed — must honor
/// it and abort the survivors instead of committing a transaction one
/// shard already rolled back.
#[test]
fn mid_vote_participant_death_presumed_aborts_atomically() {
    let (pyxis, part) = compile();
    let transfer = pyxis.entry("Chaos", "transfer").expect("transfer");
    let part = Arc::new(part);
    let seed = 131;

    let sinks: Vec<MemSink> = (0..W).map(|_| MemSink::new()).collect();
    let mut engines = build_shards(seed);
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 2, |i| {
        Box::new(sinks[i].clone())
    });
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: W,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    let replicas = build_shards(seed).into_iter().map(|e| vec![e]).collect();
    srv.spawn_replicas(&feeds, replicas);
    srv.enable_self_healing();

    // Park the transfer right after its home, shard 0, prepared inline,
    // with shard 1's vote unread — shard 1 received its prepare first,
    // so it prepares before anything sent later reaches it...
    let (held, release) = srv.hold_next_multi(HoldPoint::Vote);
    let mut tag = 0u64;
    let parked = TxnRequest {
        entry: transfer,
        args: vec![
            pyx_runtime::ArgVal::Int(wh(0)),
            pyx_runtime::ArgVal::Int(wh(1)),
            pyx_runtime::ArgVal::Int(7),
            pyx_runtime::ArgVal::Int(1),
        ],
        label: "transfer",
        route: None,
    };
    assert_eq!(srv.submit(parked, tag), Admit::Started);
    tag += 1;
    held.recv_timeout(Duration::from_secs(30))
        .expect("transfer parked mid-vote");

    // ...and kill that prepared participant. Its successor adopts the
    // branch in-doubt; the gtid is still voting, so the heal pass
    // presumed-aborts it and records the veto.
    srv.inject_worker_crash(1, 0);
    wait_heal(&mut srv, 1);
    let rec = *srv.recoveries().last().expect("shard 1 healed");
    assert_eq!(rec.shard, 1);
    assert_eq!(rec.in_doubt, 1, "the durable prepare came back in-doubt");
    assert_eq!(
        rec.resolved_abort, 1,
        "a still-voting gtid is presumed abort"
    );
    assert_eq!(rec.resolved_commit, 0);

    // Release the home: its remaining vote succeeds, but the decision
    // point must find the veto — the transfer fails, and the settled
    // registry entry is reclaimed.
    release.send(()).expect("release the parked home");
    let done = srv.recv_done().expect("the vetoed transfer retires");
    assert!(
        done.error.is_some(),
        "a transaction with a presumed-aborted branch must not ack success"
    );
    assert_eq!(srv.pending_decisions(), 0, "the vetoed entry is reclaimed");
    assert!(srv.dead_shards().is_empty(), "shard 1 healed");
    assert!(srv.heal_failures().is_empty());

    // Full availability, through the healed participant: a qty-0
    // transfer per shard pair runs the whole 2PC path but perturbs no
    // stock value, keeping the atomicity differential below exact.
    let mut accepted = 1u64;
    let mut retired = 1u64;
    for s in 0..W {
        let probe = TxnRequest {
            entry: transfer,
            args: vec![
                pyx_runtime::ArgVal::Int(wh(s)),
                pyx_runtime::ArgVal::Int(wh((s + 1) % W)),
                pyx_runtime::ArgVal::Int(50),
                pyx_runtime::ArgVal::Int(0),
            ],
            label: "transfer",
            route: None,
        };
        assert_eq!(
            srv.submit_by_deadline(probe, tag, admit_deadline()),
            Admit::Started
        );
        tag += 1;
        accepted += 1;
        let done = srv.recv_done().expect("post-heal transfer retires");
        retired += 1;
        assert!(done.error.is_none(), "shard {s}: {:?}", done.error);
    }
    assert_eq!(accepted, retired);
    assert_eq!(srv.pending_decisions(), 0);

    // Atomicity differential: every shard is row-for-row identical to
    // an untouched copy of the initial load — neither the debit branch
    // nor the credit branch of the vetoed transfer survived anywhere.
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());
    let pristine = build_shards(seed);
    for (s, live) in report.engines.iter().enumerate() {
        for table in live.table_names() {
            let mut a = pristine[s].dump_table(&table);
            let mut b = live.dump_table(&table);
            a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            assert_eq!(a, b, "shard {s} `{table}` must show no transfer effect");
        }
    }
}

/// Respawn-from-log over a *real file* sink: the factory's only source
/// of truth is what it reads back from the shard's log file, so the
/// dead incarnation's appended-but-unsynced tail (visible to any file
/// reader via the page cache) must be discarded from the medium before
/// the factory runs — otherwise the factory recovers past the durable
/// watermark, `resume_at` refuses the successor, and the shard stays
/// dead. (The tail mechanics are pinned deterministically in
/// `pyx-db`'s `wal_failover` tests; this exercises the full failover
/// path end to end over a file.)
#[test]
fn respawn_from_a_file_log_reanchors_at_the_durable_prefix() {
    let (pyxis, part) = compile();
    let new_order = pyxis.entry("Chaos", "newOrder").expect("newOrder");
    let part = Arc::new(part);
    let seed = 53;

    let dir = std::env::temp_dir();
    let paths: Vec<std::path::PathBuf> = (0..W)
        .map(|s| dir.join(format!("pyx-chaos-{}-shard{s}.wal", std::process::id())))
        .collect();
    let mut engines = build_shards(seed);
    {
        let paths = &paths;
        ShardedServer::attach_shard_wals(&mut engines, 4, |i| {
            Box::new(FileSink::create(&paths[i]).expect("wal file"))
        });
    }
    let mut srv = ShardedServer::new(
        Arc::clone(&part),
        engines,
        ShardedConfig {
            shards: W,
            coordinators: 2,
            ..ShardedConfig::default()
        },
    );
    // No replicas: every heal must go through the respawn factory.
    let factory_paths = paths.clone();
    srv.set_respawn_factory(move |s| {
        let mut e = build_shards(seed).swap_remove(s);
        e.recover(&std::fs::read(&factory_paths[s]).ok()?).ok()?;
        Some(e)
    });

    // Keep the victim busy with routed new-orders and kill it with the
    // batch in flight.
    let victim = 1usize;
    let mut gen = tpcc::NewOrderGen::new(new_order, scale(), 7).with_lines(2, 4);
    let mut tag = 0u64;
    let mut accepted = 0u64;
    for slot in 0..12usize {
        let mut r = Workload::next_txn(&mut gen, slot);
        r.args[0] = pyx_runtime::ArgVal::Int(wh(victim));
        r.route = Some(wh(victim));
        if srv.submit_by_deadline(r, tag, admit_deadline()) == Admit::Started {
            accepted += 1;
        }
        tag += 1;
        if slot == 3 {
            srv.inject_worker_crash(victim, 2);
        }
    }
    let mut retired = srv.drain().len() as u64;
    wait_heal(&mut srv, 1);
    let rec = *srv.recoveries().last().expect("respawn recovery");
    assert_eq!(rec.shard, victim);
    assert!(
        !rec.promoted,
        "no replicas exist: the factory rebuilt the shard from its file"
    );
    assert!(
        srv.heal_failures().is_empty(),
        "the respawn succeeded on the first attempt: {:?}",
        srv.heal_failures()
    );
    assert!(srv.dead_shards().is_empty());

    // The healed shard serves writes again and the re-anchored file
    // keeps extending the durable prefix.
    for s in 0..W {
        let mut r = Workload::next_txn(&mut gen, 100 + s);
        r.args[0] = pyx_runtime::ArgVal::Int(wh(s));
        r.route = Some(wh(s));
        assert_eq!(
            srv.submit_by_deadline(r, tag, admit_deadline()),
            Admit::Started,
            "healed shard {s} accepts writes"
        );
        tag += 1;
        accepted += 1;
        let done = srv.recv_done().expect("post-heal write retires");
        retired += 1;
        assert!(done.error.is_none(), "shard {s}: {:?}", done.error);
    }
    assert_eq!(accepted, retired, "every admitted transaction retires");
    let (rest, report) = srv.shutdown();
    assert!(rest.is_empty());

    // Durability differential over the real files: replaying each
    // shard's log file into a fresh engine reproduces the survivor
    // exactly — nothing acked was lost in the kill, nothing the dead
    // incarnation buffered leaked past the watermark.
    for (s, live) in report.engines.iter().enumerate() {
        let mut oracle = build_shards(seed).swap_remove(s);
        oracle
            .recover(&std::fs::read(&paths[s]).expect("log file"))
            .unwrap_or_else(|e| panic!("shard {s} file log must replay cleanly: {e}"));
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
            assert_eq!(a, b, "shard {s} `{table}` state after file failover");
        }
    }
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}
