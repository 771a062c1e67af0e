//! Log-shipping replica serving through the [`ShardedServer`].
//!
//! * **End-to-end ship + fingerprint**: the read-mostly TPC-W mix (reads
//!   routed, admin writes cross-shard) runs against one shard with two
//!   replicas; every transaction must retire cleanly, a healthy share of
//!   the reads must be served by replicas, and at shutdown each replica
//!   engine must be row-for-row identical to the primary (the feed's
//!   final catch-up lands exactly on the primary's durable prefix).
//! * **Degraded shard serves reads** (regression): a shard whose log
//!   sink fails keeps serving read-only routed requests through the
//!   server — admission must stay `Started`, never `Unavailable`, and
//!   the reads retire without errors while writes surface the
//!   durability failure.
//! * **Reads survive primary death**: after the primary worker dies,
//!   routed read-only requests still admit to replicas and retire.
//! * **Replica death falls back to the primary**: a replica whose feed
//!   fails its checksum stops; the reaper reports its lost reads, later
//!   reads fall back to the primary, and its engine still comes back at
//!   shutdown.
//! * **Idle replicas follow the feed**: with writes going only to the
//!   primary, each publish wakes the replica, which reaches the
//!   primary's durable horizon without a request of its own.
//! * **One heal tries every candidate**: when the preferred replica
//!   cannot be promoted, the same heal promotes the next one.

use pyx_db::wal::{FeedSink, LogFeed};
use pyx_db::{Engine, FaultPlan, FaultySink, MemSink, Scalar, Wal};
use pyx_runtime::ArgVal;
use pyx_server::{Admit, ShardedConfig, ShardedServer, TxnDone, TxnRequest, Workload};
use pyx_workloads::tpcw;
use std::sync::Arc;
use std::time::{Duration, Instant};

// The browsing interactions walk a hardcoded 10 000-item catalogue
// (`% 10000 + 1` promo/related links), so the item count must stay at
// the default scale.
fn scale() -> tpcw::TpcwScale {
    tpcw::TpcwScale::default()
}

fn fresh_tpcw(seed: u64) -> Engine {
    let mut e = Engine::new();
    tpcw::create_schema(&mut e);
    tpcw::load(&mut e, scale(), seed);
    e
}

struct Cluster {
    srv: ShardedServer,
    entries: tpcw::ReadMostlyEntries,
    feeds: Vec<LogFeed>,
}

/// One-shard read-mostly TPC-W server with a WAL whose feeds are ready
/// for [`ShardedServer::spawn_replicas`].
fn cluster(make_sink: impl FnMut(usize) -> Box<dyn pyx_db::LogSink>) -> Cluster {
    let mut engines = vec![fresh_tpcw(7)];
    let feeds = ShardedServer::attach_shard_wals_with_feeds(&mut engines, 1, make_sink);
    cluster_over(engines, feeds)
}

/// One-shard read-mostly TPC-W server over `engines`, whose WAL already
/// publishes `feeds`.
fn cluster_over(engines: Vec<Engine>, feeds: Vec<LogFeed>) -> Cluster {
    let pyxis = pyx_core::Pyxis::compile(tpcw::SRC_READ_MOSTLY, pyx_core::PyxisConfig::default())
        .expect("read-mostly TPC-W compiles");
    let entries = tpcw::ReadMostlyEntries::find(&pyxis.prog);
    let part = Arc::new(pyxis.deploy_jdbc());
    let srv = ShardedServer::new(
        part,
        engines,
        ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        },
    );
    Cluster {
        srv,
        entries,
        feeds,
    }
}

/// Drive `n` transactions of the routed read-mostly mix, serialized.
/// Returns the retired results in submission order.
fn drive(srv: &mut ShardedServer, entries: tpcw::ReadMostlyEntries, n: usize) -> Vec<TxnDone> {
    let mut mix = tpcw::ReadMostlyMix::new(entries, scale(), 10, 42).routed();
    let mut out = Vec::new();
    for tag in 0..n {
        let req = mix.next_txn(0);
        assert_eq!(
            srv.submit(req, tag as u64),
            Admit::Started,
            "serialized submission always admits"
        );
        out.push(srv.recv_done().expect("one in flight"));
    }
    out
}

#[test]
fn replicas_serve_reads_and_converge_on_the_primary() {
    let mut c = cluster(|_| Box::new(MemSink::new()));
    c.srv
        .spawn_replicas(&c.feeds, vec![vec![fresh_tpcw(7), fresh_tpcw(7)]]);

    let dones = drive(&mut c.srv, c.entries, 300);
    for d in &dones {
        assert!(
            d.error.is_none(),
            "txn {} ({}) failed: {:?}",
            d.tag,
            d.label,
            d.error
        );
    }
    let lags = c.srv.replica_lags();
    assert_eq!(lags.len(), 2, "both replicas alive");

    let (rest, report) = c.srv.shutdown();
    assert!(rest.is_empty());
    assert!(
        report.replica_reads > 0,
        "routed read-only requests must reach the replicas"
    );
    assert_eq!(report.replica_engines.len(), 2);
    let replica_stats = report.merged_replica_stats();
    assert!(replica_stats.redo_records > 0, "redo stream was applied");
    assert_eq!(replica_stats.snapshot_rejects, 0);

    // Fingerprint: after the final catch-up each replica is row-for-row
    // the primary (which synced everything — group commit of 1).
    let primary = &report.engines[0];
    for (s, replica) in &report.replica_engines {
        assert_eq!(*s, 0);
        assert_eq!(
            replica.current_commit_ts(),
            primary.current_commit_ts(),
            "replica horizon"
        );
        for table in primary.table_names() {
            assert_eq!(
                replica.dump_table(&table),
                primary.dump_table(&table),
                "table `{table}` diverged on a replica"
            );
        }
    }
}

/// Regression: a degraded shard (failed log sink) keeps serving
/// read-only routed requests — `Admit::Started`, clean retirement — while
/// writes report the durability failure. The shard must never go
/// `Unavailable`: degraded is not dead.
#[test]
fn degraded_shard_keeps_serving_read_only() {
    let mut c = cluster(|_| {
        Box::new(FaultySink::new(
            MemSink::new(),
            FaultPlan {
                fail_sync_from: Some(0),
                ..FaultPlan::default()
            },
        ))
    });

    let dones = drive(&mut c.srv, c.entries, 200);
    let mut reads = 0;
    let mut failed_writes = 0;
    for d in &dones {
        if d.label == "admin-update" {
            assert!(
                d.error.is_some(),
                "write {} must surface the sink failure",
                d.tag
            );
            failed_writes += 1;
        } else {
            assert!(
                d.error.is_none(),
                "read {} ({}) failed on a degraded shard: {:?}",
                d.tag,
                d.label,
                d.error
            );
            reads += 1;
        }
    }
    assert!(reads > 0 && failed_writes > 0, "mix exercised both paths");
    assert!(
        c.srv.dead_shards().is_empty(),
        "degraded shard must not be marked dead"
    );
    let (rest, report) = c.srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.replica_reads, 0, "no replicas were spawned");
}

/// Reads survive primary death: routed read-only requests are admitted
/// to replicas *before* the primary-death check, so a shard whose
/// primary worker died keeps answering reads from its replicas.
#[test]
fn reads_survive_primary_death() {
    let mut c = cluster(|_| Box::new(MemSink::new()));
    c.srv.spawn_replicas(&c.feeds, vec![vec![fresh_tpcw(7)]]);

    // Warm up (writes reach the replica), then kill the primary and
    // give its thread a moment to exit. The replica admission path runs
    // *before* the primary-death check, so reads keep serving whether or
    // not the reaper has marked the shard dead yet.
    let dones = drive(&mut c.srv, c.entries, 50);
    assert!(dones.iter().all(|d| d.error.is_none()));
    c.srv.inject_worker_crash(0, 0);
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Primary is gone; routed reads still serve from the replica.
    let mut mix = tpcw::ReadMostlyMix::new(c.entries, scale(), 0, 77).routed();
    for tag in 0..40u64 {
        let req = mix.next_txn(0);
        assert_eq!(
            c.srv.submit(req, 10_000 + tag),
            Admit::Started,
            "reads must admit to the replica after primary death"
        );
        let d = c.srv.recv_done().expect("one in flight");
        assert!(
            d.error.is_none(),
            "read failed after primary death: {:?}",
            d.error
        );
    }
    let (_, report) = c.srv.shutdown();
    assert!(report.replica_reads >= 40);
}

/// Replica death: a byte flipped in the shipped stream fails the
/// replica tailer's checksum, so the replica stops rather than serve
/// from a frozen horizon. The reaper reports the reads it lost as
/// "replica died" errors, later reads fall back to the primary, and the
/// dead replica's engine still comes back at shutdown.
#[test]
fn corrupt_feed_kills_the_replica_and_reads_fall_back() {
    // The flip lands in the log itself, which the primary never reads
    // back: it keeps committing while the shipped copy fails the
    // replica's checksum.
    let sink = FeedSink::new(MemSink::new());
    let feed = sink.feed();
    let plan = FaultPlan {
        flip: Some((2_000, 0xFF)),
        ..FaultPlan::default()
    };
    let mut primary = fresh_tpcw(7);
    primary.set_wal(Wal::new(Box::new(FaultySink::new(sink, plan))));
    let mut c = cluster_over(vec![primary], vec![feed]);
    c.srv.spawn_replicas(&c.feeds, vec![vec![fresh_tpcw(7)]]);

    let mut mix = tpcw::ReadMostlyMix::new(c.entries, scale(), 10, 42).routed();
    let mut tag = 0u64;
    let t0 = Instant::now();
    while !c.srv.replica_lags().is_empty() {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "the corrupt feed never stopped the replica"
        );
        assert_eq!(c.srv.submit(mix.next_txn(0), tag), Admit::Started);
        tag += 1;
        let d = c.srv.recv_done().expect("one in flight");
        if let Some(e) = &d.error {
            assert!(
                e.contains("replica died"),
                "txn {} ({}): {e}",
                d.tag,
                d.label
            );
        }
        c.srv.reap_now();
    }

    let mut reads = tpcw::ReadMostlyMix::new(c.entries, scale(), 0, 77).routed();
    for i in 0..40u64 {
        assert_eq!(c.srv.submit(reads.next_txn(0), 10_000 + i), Admit::Started);
        let d = c.srv.recv_done().expect("one in flight");
        assert!(d.error.is_none(), "fallback read failed: {:?}", d.error);
    }
    assert!(c.srv.dead_shards().is_empty(), "the primary never died");
    let (rest, report) = c.srv.shutdown();
    assert!(rest.is_empty());
    assert!(
        report.replica_fallbacks >= 40,
        "{}",
        report.replica_fallbacks
    );
    assert_eq!(report.replica_engines.len(), 1, "the dead replica's engine");
    let (shard, replica) = &report.replica_engines[0];
    assert_eq!(*shard, 0);
    assert!(replica.current_commit_ts() < report.engines[0].current_commit_ts());
}

/// Replicas wait the way primaries do: blocked until woken. With writes
/// going only to the primary, each publish of durable bytes wakes the
/// idle replica, which tails them and reaches the primary's durable
/// horizon without serving anything itself.
#[test]
fn idle_replica_reaches_the_primary_durable_horizon() {
    let mut c = cluster(|_| Box::new(MemSink::new()));
    c.srv.spawn_replicas(&c.feeds, vec![vec![fresh_tpcw(7)]]);
    let writes = 20u64;
    for tag in 0..writes {
        let req = TxnRequest {
            entry: c.entries.admin_update,
            args: vec![ArgVal::Int(tag as i64 % tpcw::HOT_ITEMS + 1)],
            label: "admin-update",
            route: None,
        };
        assert_eq!(c.srv.submit(req, tag), Admit::Started);
        let d = c.srv.recv_done().expect("one in flight");
        assert!(d.error.is_none(), "write {tag}: {:?}", d.error);
    }
    // An unrouted read runs on a primary, its home, and never touches a
    // replica; waking the primary makes it publish its
    // final durable horizon.
    let read = tpcw::ReadMostlyMix::new(c.entries, scale(), 0, 77).next_txn(0);
    assert_eq!(read.route, None);
    assert_eq!(c.srv.submit(read, writes), Admit::Started);
    assert!(c.srv.recv_done().expect("one in flight").error.is_none());

    let t0 = Instant::now();
    while c.srv.replica_lags() != [(0, 0)] {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the idle replica never caught up: {:?}",
            c.srv.replica_lags()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (rest, report) = c.srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.replica_reads, 0, "the replica served nothing");
    assert_eq!(report.engines[0].current_commit_ts(), writes);
}

/// One heal walks every candidate. Shard 0's preferred replica — two
/// commits of its own put it ahead of every other — is past the durable
/// watermark, so the log refuses it; the same heal then promotes the
/// other replica. The first reap that records anything shows the
/// promotion, one failure naming the refused replica, and no dead shard.
#[test]
fn one_heal_tries_every_candidate() {
    let mut c = cluster(|_| Box::new(MemSink::new()));
    // Insert a row, then delete it: the engine's state is the base load
    // again, but its commit horizon is 2 while the primary's is 0.
    let mut ahead = fresh_tpcw(7);
    let t = ahead.begin();
    let row = [Scalar::Int(1_000_000), Scalar::Str("x".into())];
    ahead
        .execute(t, "INSERT INTO author VALUES (?, ?)", &row)
        .expect("insert");
    ahead.commit(t).expect("commit the insert");
    let t = ahead.begin();
    ahead
        .execute(t, "DELETE FROM author WHERE a_id = ?", &row[..1])
        .expect("delete");
    ahead.commit(t).expect("commit the delete");
    assert_eq!(ahead.current_commit_ts(), 2);
    // Replicas take the worker indices after the one primary.
    c.srv
        .spawn_replicas(&c.feeds, vec![vec![ahead, fresh_tpcw(7)]]);
    c.srv.enable_self_healing();

    // One read per replica, round-robin: each retires only after its
    // replica published its applied horizon, so the heal ranks them.
    let mut reads = tpcw::ReadMostlyMix::new(c.entries, scale(), 0, 77).routed();
    for tag in 0..2 {
        assert_eq!(c.srv.submit(reads.next_txn(0), tag), Admit::Started);
        assert!(c.srv.recv_done().expect("one in flight").error.is_none());
    }

    // Kill the primary before the shard takes a write.
    c.srv.inject_worker_crash(0, 0);
    let t0 = Instant::now();
    while c.srv.recoveries().is_empty() && c.srv.heal_failures().is_empty() {
        assert!(t0.elapsed() < Duration::from_secs(30), "death never reaped");
        std::thread::sleep(Duration::from_millis(1));
        c.srv.reap_now();
    }
    let recoveries = c.srv.recoveries().to_vec();
    assert_eq!(recoveries.len(), 1, "{recoveries:?}");
    assert!(recoveries[0].promoted, "the other replica was promoted");
    let failures = c.srv.heal_failures().to_vec();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].shard, 0);
    assert!(
        failures[0].reason.contains("replica 1:")
            && failures[0].reason.contains("not at the durable watermark"),
        "{}",
        failures[0].reason
    );
    assert!(c.srv.dead_shards().is_empty(), "shard 0 healed in one pass");

    // The healed shard takes writes again.
    let write = TxnRequest {
        entry: c.entries.admin_update,
        args: vec![ArgVal::Int(1)],
        label: "admin-update",
        route: None,
    };
    assert_eq!(c.srv.submit(write, 2), Admit::Started);
    let d = c.srv.recv_done().expect("one in flight");
    assert!(d.error.is_none(), "{:?}", d.error);
    let (rest, report) = c.srv.shutdown();
    assert!(rest.is_empty());
    assert_eq!(report.engines[0].current_commit_ts(), 1);
}
