//! Integration tests of the transactional key-value store, exercised
//! through the public `yesquel` facade: snapshot isolation, the
//! first-committer-wins rule, one-phase vs two-phase commit, and the
//! no-communication read-only commit.

use std::time::Duration;
use yesquel::common::tempdir::TempDir;
use yesquel::kv::protocol::{KvRequest, KvResponse, WriteOp};
use yesquel::rpc::TransportKind;

use yesquel::{Error, KvConfig, KvDatabase, ObjectId, YesquelConfig};

fn obj(oid: u64) -> ObjectId {
    ObjectId::new(1, oid)
}

#[test]
fn snapshot_isolation_holds_across_concurrent_commit() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();

    let setup = client.begin();
    setup.put(obj(1), b"v1".to_vec()).unwrap();
    setup.commit().unwrap();

    let reader = client.begin();
    assert_eq!(reader.get(obj(1)).unwrap().as_deref(), Some(&b"v1"[..]));

    let writer = client.begin();
    writer.put(obj(1), b"v2".to_vec()).unwrap();
    writer.commit().unwrap();

    // The reader's snapshot must not observe the later commit.
    assert_eq!(reader.get(obj(1)).unwrap().as_deref(), Some(&b"v1"[..]));
    reader.commit().unwrap();

    let fresh = client.begin();
    assert_eq!(fresh.get(obj(1)).unwrap().as_deref(), Some(&b"v2"[..]));
    fresh.commit().unwrap();
}

/// A re-read is answered by the transaction: after another transaction
/// commits a newer version, the reader gets the same bytes again without
/// asking a server.
#[test]
fn repeatable_read_across_a_concurrent_commit_costs_no_get() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();
    let gets = db.stats().counter("kv.get_rpcs");

    let setup = client.begin();
    setup.put(obj(7), b"v1".to_vec()).unwrap();
    setup.commit().unwrap();

    let reader = client.begin();
    let first = reader.get(obj(7)).unwrap();
    assert_eq!(first.as_deref(), Some(&b"v1"[..]));

    let writer = client.begin();
    writer.put(obj(7), b"v2".to_vec()).unwrap();
    writer.commit().unwrap();

    let before = gets.get();
    assert_eq!(reader.get(obj(7)).unwrap(), first);
    assert_eq!(gets.get(), before, "the re-read asked a server");
    reader.commit().unwrap();
}

/// A read that gives up on a prepare lock remembers nothing: once the
/// writer has committed, the next read asks the server again, and gets the
/// value at the reader's snapshot — not the writer's.
#[test]
fn a_read_that_timed_out_on_a_lock_remembers_nothing() {
    // Impatient: the read gives up at a 6 ms deadline, not a second.
    let db = KvDatabase::new(YesquelConfig {
        kv: KvConfig::impatient(),
        ..YesquelConfig::with_servers(1)
    });
    let client = db.client();
    let gets = db.stats().counter("kv.get_rpcs");
    let transport = db.cluster().transport();

    let setup = client.begin();
    setup.put(obj(8), b"before".to_vec()).unwrap();
    setup.commit().unwrap();
    let reader = client.begin();

    // A writer prepares, and its coordinator goes quiet.
    let writer = 0xABBA;
    let prepared = transport
        .call(
            0,
            KvRequest::Prepare {
                txn: writer,
                start_ts: db.oracle().next_timestamp(),
                writes: vec![WriteOp {
                    obj: obj(8),
                    value: Some(bytes::Bytes::from_static(b"after")),
                }],
                // The other participant never answers a probe, so the lock
                // stays live until the decision arrives.
                participants: vec![0, 1],
                lease_us: 600_000_000,
            },
        )
        .unwrap();
    assert!(
        matches!(prepared, KvResponse::Prepared { .. }),
        "{prepared:?}"
    );
    match reader.get(obj(8)) {
        Err(Error::LockTimeout(_)) => {}
        other => panic!("expected a lock timeout, got {other:?}"),
    }

    let committed = transport
        .call(
            0,
            KvRequest::Commit {
                txn: writer,
                commit_ts: db.oracle().next_timestamp(),
            },
        )
        .unwrap();
    assert!(
        matches!(committed, KvResponse::Committed { .. }),
        "{committed:?}"
    );
    let before = gets.get();
    assert_eq!(reader.get(obj(8)).unwrap().as_deref(), Some(&b"before"[..]));
    assert_eq!(gets.get() - before, 1, "the read after the lock asks again");
    reader.commit().unwrap();
}

/// A reader held up by a live prepare lock waits for it until its
/// statement's deadline — a second by default, two leases — instead of
/// giving up and restarting: the writer commits 150 ms on, and the read
/// returns the committed value within its first attempt.
#[test]
fn a_reader_outwaits_a_live_lock_without_restarting() {
    let db = KvDatabase::with_servers(1);
    let client = db.client();
    let restarts = db.stats().counter("kv.txn_retries");
    let transport = db.cluster().transport();

    let setup = client.begin();
    setup.put(obj(9), b"before".to_vec()).unwrap();
    setup.commit().unwrap();
    let writer = 0xB0B;
    let prepared = transport
        .call(
            0,
            KvRequest::Prepare {
                txn: writer,
                start_ts: db.oracle().next_timestamp(),
                writes: vec![WriteOp {
                    obj: obj(9),
                    value: Some(bytes::Bytes::from_static(b"after")),
                }],
                // The other participant never answers a probe, so the lock
                // stays live until the decision arrives.
                participants: vec![0, 1],
                lease_us: 600_000_000,
            },
        )
        .unwrap();
    assert!(
        matches!(prepared, KvResponse::Prepared { .. }),
        "{prepared:?}"
    );
    // Drawn before the reader's snapshot: the reader must see the write.
    let commit_ts = db.oracle().next_timestamp();
    let before = restarts.get();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(150));
            let decide = KvRequest::Commit {
                txn: writer,
                commit_ts,
            };
            let committed = transport.call(0, decide).unwrap();
            assert!(matches!(committed, KvResponse::Committed { .. }));
        });
        let read = client.run_txn(|txn| txn.get(obj(9))).unwrap();
        assert_eq!(read.as_deref(), Some(&b"after"[..]));
    });
    assert_eq!(restarts.get(), before, "the reader restarted");
}

#[test]
fn first_committer_wins_second_aborts() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();

    let a = client.begin();
    let b = client.begin();
    a.put(obj(2), b"from-a".to_vec()).unwrap();
    b.put(obj(2), b"from-b".to_vec()).unwrap();
    a.commit().unwrap();
    match b.commit() {
        Err(Error::Conflict(_)) => {}
        other => panic!("second committer must conflict, got {other:?}"),
    }

    let check = client.begin();
    assert_eq!(check.get(obj(2)).unwrap().as_deref(), Some(&b"from-a"[..]));
    check.commit().unwrap();
}

#[test]
fn single_server_transactions_use_one_phase_commit() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();
    let before_1pc = db.stats().counter("kv.commit_1pc").get();
    let before_2pc = db.stats().counter("kv.commit_2pc").get();

    // One object -> exactly one participant server.
    let t = client.begin();
    t.put(obj(3), b"single".to_vec()).unwrap();
    t.commit().unwrap();

    assert_eq!(db.stats().counter("kv.commit_1pc").get(), before_1pc + 1);
    assert_eq!(db.stats().counter("kv.commit_2pc").get(), before_2pc);
    // A one-phase commit is a single RPC: no prepare recorded server-side.
    let prepares: u64 = db
        .cluster()
        .servers()
        .iter()
        .map(|s| s.store().stats().prepares)
        .sum();
    assert_eq!(prepares, 0);
}

#[test]
fn multi_server_transactions_use_two_phase_commit_atomically() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();

    // Find one object per server so every server participates.
    let mut per_server: Vec<Option<ObjectId>> = vec![None; db.num_servers()];
    let mut oid = 100;
    while per_server.iter().any(Option::is_none) {
        let o = obj(oid);
        let s = o.home_server(db.num_servers());
        per_server[s].get_or_insert(o);
        oid += 1;
    }

    let before_2pc = db.stats().counter("kv.commit_2pc").get();
    let t = client.begin();
    for o in per_server.iter().flatten() {
        t.put(*o, b"spread".to_vec()).unwrap();
    }
    t.commit().unwrap();
    assert_eq!(db.stats().counter("kv.commit_2pc").get(), before_2pc + 1);

    // Atomic: every write is visible, and every server prepared exactly once.
    let r = client.begin();
    for o in per_server.iter().flatten() {
        assert_eq!(r.get(*o).unwrap().as_deref(), Some(&b"spread"[..]));
    }
    r.commit().unwrap();
    for s in db.cluster().servers() {
        assert_eq!(s.store().stats().prepares, 1);
        assert_eq!(s.store().stats().commits, 1);
    }
}

#[test]
fn read_only_commit_needs_no_communication() {
    let db = KvDatabase::with_servers(4);
    let client = db.client();
    let setup = client.begin();
    setup.put(obj(5), b"x".to_vec()).unwrap();
    setup.commit().unwrap();

    let t = client.begin();
    let _ = t.get(obj(5)).unwrap();
    let rpcs_before = db.stats().counter("rpc.calls").get();
    t.commit().unwrap();
    assert_eq!(
        db.stats().counter("rpc.calls").get(),
        rpcs_before,
        "read-only commit must not issue RPCs"
    );
    assert_eq!(db.stats().counter("kv.readonly_commits").get(), 1);
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let db = KvDatabase::with_servers(2);
    let client = db.client();
    let t = client.begin();
    t.put(obj(6), b"ghost".to_vec()).unwrap();
    t.abort();
    let r = client.begin();
    assert_eq!(r.get(obj(6)).unwrap(), None);
    r.commit().unwrap();
    assert_eq!(db.total_objects(), 0);
}

/// How many of this process's threads have a name starting with `prefix`
/// (`None` where the system does not list threads under `/proc`).
fn threads_named(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            // The kernel keeps 15 bytes of a thread's name.
            .filter(|name| name.starts_with(prefix))
            .count(),
    )
}

/// One object on each of the first `n` servers of a 4-server deployment.
fn one_object_per_server(n: usize) -> Vec<ObjectId> {
    (0..n)
        .map(|server| {
            (1_000..)
                .map(obj)
                .find(|o| o.home_server(4) == server)
                .unwrap()
        })
        .collect()
}

/// What a three-participant commit costs, counted: in memory, nothing but
/// the calls, all on the committing thread — no thread is started at all;
/// over forced logs, one prepare round whose three flushes overlap on the
/// logs' flushers — the commit point, so one flush wait — and three commit
/// records riding along unforced.  Both halves are one
/// test because the first asserts something about the whole process: no
/// other test in this file may start a thread of the system's, or this one
/// can see it.
#[test]
fn three_participant_commit_is_serial_in_memory_one_flush_wait_on_disk() {
    let commit_three = |db: &KvDatabase| {
        let client = db.client();
        let t = client.begin();
        for o in one_object_per_server(3) {
            t.put(o, b"three".to_vec()).unwrap();
        }
        t.commit().unwrap();
        assert_eq!(db.stats().counter("kv.commit_participants").get(), 3);
        assert_eq!(db.stats().counter("kv.commit_2pc").get(), 1);
    };

    let in_memory = KvDatabase::with_servers(4);
    commit_three(&in_memory);
    if let Some(n) = threads_named("yesquel-") {
        assert_eq!(n, 0, "the in-memory commit path must not start any thread");
    }

    let tmp = TempDir::new("yesquel-kv-fastpath").unwrap();
    let mut cfg = YesquelConfig::with_servers(4);
    cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
    let logged = KvDatabase::try_new(cfg).unwrap();
    let c = |name: &str| logged.stats().counter(name).get();
    let (fsyncs, appends) = (c("wal.fsyncs"), c("wal.appends"));
    commit_three(&logged);
    assert_eq!(c("wal.appends") - appends, 6, "a vote and a commit each");
    assert_eq!(c("wal.fsyncs") - fsyncs, 3, "the votes alone");
    assert_eq!(c("wal.group_solo"), 0, "a lone appender sleeps no window");
    if let (Some(flushers), Some(all)) =
        (threads_named("yesquel-wal-flu"), threads_named("yesquel-"))
    {
        assert!(
            (3..=4).contains(&flushers),
            "one flusher per participant's log, at most one per server: {flushers}"
        );
        assert_eq!(all, flushers, "the flushers are the only threads started");
    }
}

/// The fallible constructors refuse a zero in the configuration with an
/// error, not a panic, before opening a log or starting a thread (so these
/// tests start none).
#[test]
fn try_new_refuses_a_deployment_without_servers() {
    let built = KvDatabase::try_new(YesquelConfig::with_servers(0));
    assert!(matches!(built.err(), Some(Error::InvalidArgument(_))));
}

#[test]
fn try_with_faults_refuses_a_threaded_transport_without_workers() {
    let tmp = TempDir::new("yesquel-kv-no-workers").unwrap();
    let mut cfg = YesquelConfig::with_servers(2);
    cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
    let none = TransportKind::Threaded {
        workers_per_server: 0,
    };
    let built = KvDatabase::try_with_faults(cfg, none, vec![]);
    assert!(matches!(built.err(), Some(Error::InvalidArgument(_))));
    let logs = std::fs::read_dir(tmp.path()).unwrap().count();
    assert_eq!(logs, 0, "no log was opened");
}
