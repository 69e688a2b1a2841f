//! Integration tests of the fault-tolerance machinery: servers crashing
//! mid-two-phase-commit, coordinators dying after prepare, lost commit
//! messages, and duplicate deliveries — all driven either through the real
//! client (with a [`FaultyTransport`] between it and the servers) or by
//! speaking the wire protocol directly to stand in for a coordinator that
//! dies at a precise point.
//!
//! The invariants under test are the commit rules of a protocol whose
//! prepare round is the commit point: a transaction every participant voted
//! yes on is committed, at the largest prepare timestamp, and every
//! participant ends up installing it, whoever else forgot or never heard
//! the decision; one that some participant refused, or was fenced from,
//! leaves *no* orphaned prepared locks once the resolvers have run; and in
//! every scenario the outcome is all-or-nothing across shards.

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use yesquel::common::tempdir::TempDir;
use yesquel::kv::protocol::{KvRequest, KvResponse, TxnStatusKind, WriteOp};
use yesquel::kv::store::TxnOutcome;
use yesquel::rpc::{FaultPlan, Transport, TransportKind};
use yesquel::{
    params, Error, KvConfig, KvDatabase, NetConfig, ObjectId, Value, Yesquel, YesquelConfig,
};

/// First oid ≥ `from` in tree 1 homed at `server` in a `nservers` cluster.
fn oid_on(server: usize, nservers: usize, from: u64) -> ObjectId {
    (from..)
        .map(|o| ObjectId::new(1, o))
        .find(|obj| obj.home_server(nservers) == server)
        .unwrap()
}

fn impatient(nservers: usize) -> YesquelConfig {
    let mut cfg = YesquelConfig::with_servers(nservers);
    cfg.kv = KvConfig::impatient();
    cfg
}

/// Waits up to five seconds for `done`.  Over a transport that makes calls
/// wait — a fault layer counts — a commit returns once every participant
/// has voted, with its `Commit`s still in flight, so what a test inspects
/// at a participant has to be waited for.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn write(obj: ObjectId, val: &[u8]) -> WriteOp {
    WriteOp {
        obj,
        value: Some(bytes::Bytes::copy_from_slice(val)),
    }
}

/// A prepare of `obj` for `txn` whose participants are servers 0 and 1.
fn prepare2(txn: u64, start_ts: u64, obj: ObjectId, val: &[u8], lease_us: u64) -> KvRequest {
    KvRequest::Prepare {
        txn,
        start_ts,
        writes: vec![write(obj, val)],
        participants: vec![0, 1],
        lease_us,
    }
}

/// The prepare timestamp of a yes vote.
fn voted(resp: KvResponse) -> u64 {
    match resp {
        KvResponse::Prepared { prepare_ts } => prepare_ts,
        other => panic!("expected a yes vote, got {other:?}"),
    }
}

/// A coordinator whose prepare reached one of its two participants goes
/// silent forever.  Once the lease expires the prepared participant fences
/// the other, which never heard of the transaction, and aborts: every lock
/// is released, and the prepare that never arrived can no longer vote yes.
#[test]
fn silent_coordinator_is_presumed_aborted() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xDEAD;
    let start_ts = db.oracle().next_timestamp();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    let resp = transport
        .call(1, prepare2(txn, start_ts, o1, b"never", 2_000))
        .unwrap();
    voted(resp);
    assert_eq!(db.prepared_total(), 1);

    // The lock is real: a conflicting prepare is refused while it holds.
    let other = transport
        .call(
            1,
            prepare2(0xBEEF, db.oracle().next_timestamp(), o1, b"blocked", 2_000),
        )
        .unwrap();
    assert!(matches!(other, KvResponse::Conflict { .. }), "{other:?}");

    // Coordinator never comes back.  Let the lease lapse and reap.
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0, "no orphaned prepared locks");
    for srv in db.cluster().servers() {
        assert_eq!(srv.store().outcome(txn), Some(TxnOutcome::Aborted));
    }

    // All-or-nothing: nothing of the aborted transaction is visible, and
    // the objects are writable again.
    let client = db.client();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap(), None);
    assert_eq!(t.get(o1).unwrap(), None);
    t.put(o0, &b"after"[..]).unwrap();
    t.put(o1, &b"after"[..]).unwrap();
    t.commit().unwrap();

    // The late coordinator's prepare is refused: server 0 was fenced.
    let late = transport
        .call(0, prepare2(txn, start_ts, o0, b"never", 2_000))
        .unwrap();
    assert!(matches!(late, KvResponse::Conflict { .. }), "{late:?}");
    let late = transport
        .call(
            1,
            KvRequest::Commit {
                txn,
                commit_ts: db.oracle().next_timestamp(),
            },
        )
        .unwrap();
    assert!(matches!(late, KvResponse::Aborted), "{late:?}");
}

/// The coordinator goes silent right after both participants voted yes:
/// the transaction is committed, at the larger prepare timestamp, though
/// no `Commit` was ever sent.  A read that meets a lock asks the other
/// participant, finds its yes vote, and installs the commit at once — long
/// before the lease would let anybody fence.
#[test]
fn a_read_commits_a_fully_voted_transaction_before_its_lease() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xAC4;
    let start_ts = db.oracle().next_timestamp();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));
    let lease_us = 600_000_000;
    let votes = [(0, o0), (1, o1)].map(|(server, obj)| {
        voted(
            transport
                .call(server, prepare2(txn, start_ts, obj, b"voted", lease_us))
                .unwrap(),
        )
    });
    let commit_ts = votes[0].max(votes[1]);

    let ts = db.oracle().next_timestamp();
    for (server, obj) in [(1, o1), (0, o0)] {
        match transport.call(server, KvRequest::Get { obj, ts }).unwrap() {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"voted"),
            other => panic!("server {server}: expected the committed value, got {other:?}"),
        }
    }
    let servers = db.cluster().servers();
    for (server, obj) in [(0, o0), (1, o1)] {
        assert_eq!(
            servers[server].store().dump_versions(obj),
            vec![(commit_ts, Some(bytes::Bytes::from_static(b"voted")))]
        );
    }
    assert_eq!(db.prepared_total(), 0);
}

/// The coordinator's `Commit` reaches one participant, and the coordinator
/// dies.  The other's lease expires, it asks the first for the verdict,
/// and installs the commit — the transaction lands atomically on both
/// shards.
#[test]
fn secondary_adopts_commit_from_primary() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xC0FFEE;
    let start_ts = db.oracle().next_timestamp();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    let votes = [(0, o0), (1, o1)].map(|(server, obj)| {
        voted(
            transport
                .call(server, prepare2(txn, start_ts, obj, b"both", 2_000))
                .unwrap(),
        )
    });

    // Commit reaches server 0 only; the coordinator dies before telling
    // server 1.
    let commit_ts = votes[0].max(votes[1]);
    let resp = transport
        .call(0, KvRequest::Commit { txn, commit_ts })
        .unwrap();
    assert!(matches!(resp, KvResponse::Committed { .. }), "{resp:?}");
    assert_eq!(db.prepared_total(), 1, "server 1 still in doubt");

    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0);
    let servers = db.cluster().servers();
    for srv in servers {
        assert_eq!(
            srv.store().outcome(txn),
            Some(TxnOutcome::Committed(commit_ts))
        );
    }
    let (adopted, presumed) = servers[1].reap_counts();
    assert_eq!((adopted, presumed), (1, 0), "server 1 adopted the commit");

    // Both writes visible at the same timestamp: atomic across shards.
    assert_eq!(
        servers[0].store().dump_versions(o0),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"both")))]
    );
    assert_eq!(
        servers[1].store().dump_versions(o1),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"both")))]
    );

    let client = db.client();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"both"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"both"[..]));
    t.commit().unwrap();
}

/// A participant is down when the real client's prepare round reaches it:
/// server 0 votes yes, server 1 never hears of the transaction.  The
/// coordinator cannot fence server 1 either, so it reports the commit in
/// doubt and tells nobody to abort.  Once server 1 is back and the lease
/// is over, server 0 fences it, learns the abort, and lets go.  Nothing is
/// ever visible on either shard.
#[test]
fn server_crash_between_prepare_and_commit_resolves_to_abort() {
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    faults.crash(1);
    let t = client.begin();
    t.put(o0, &b"half"[..]).unwrap();
    t.put(o1, &b"half"[..]).unwrap();
    match t.commit() {
        Err(Error::Indeterminate(_)) => {}
        other => panic!("expected Indeterminate from an unreachable vote, got {other:?}"),
    }
    assert!(db.stats().counter("kv.commit_indeterminate").get() >= 1);
    assert_eq!(db.prepared_total(), 1, "server 0's vote stands");

    // The lease has long expired (impatient config) once server 1 is back.
    faults.restart(1);
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();
    assert_eq!(db.prepared_total(), 0, "no orphaned prepared locks");
    let servers = db.cluster().servers();
    assert_eq!(servers[0].reap_counts(), (0, 1));

    // All-or-nothing held: neither shard shows the write, and the objects
    // are usable again.
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap(), None);
    assert_eq!(t.get(o1).unwrap(), None);
    t.put(o0, &b"retry"[..]).unwrap();
    t.put(o1, &b"retry"[..]).unwrap();
    t.commit().unwrap();
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"retry"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"retry"[..]));
    t.commit().unwrap();
}

/// The `Commit` to one participant is lost (every participant voted yes,
/// so the transaction is committed).  The client still reports success;
/// the participant converges to the commit via the resolver rather than
/// losing the write.
#[test]
fn lost_secondary_commit_converges_to_committed() {
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    // Lose server 1's answer to its `Commit`: flipping the plan between
    // prepare and commit is impossible from outside one `commit()` call, so
    // instead crash server 1 after it has delivered two requests — the
    // prepare (request 1) and the `Commit` (request 2), whose response is
    // lost.
    faults.set_plan(
        1,
        FaultPlan {
            crash_after_requests: Some(2),
            ..FaultPlan::healthy()
        },
    );

    let t = client.begin();
    t.put(o0, &b"kept"[..]).unwrap();
    t.put(o1, &b"kept"[..]).unwrap();
    // The commit succeeds: both voted yes; server 1's lost ack only makes
    // it a lagging participant, once its submits run out against the
    // crashed server.
    let commit_ts = t.commit().unwrap();
    assert!(eventually(|| db
        .stats()
        .counter("kv.commit_lagging_participants")
        .get()
        >= 1));

    // Did server 1 apply before crashing, or is it still prepared?  Either
    // is legal; what matters is convergence after restart.
    faults.set_plan(1, FaultPlan::healthy());
    faults.restart(1);
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();

    assert_eq!(db.prepared_total(), 0);
    let servers = db.cluster().servers();
    assert_eq!(
        servers[1].store().dump_versions(o1),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"kept")))],
        "server 1 converged to the commit, applied exactly once"
    );
    let t = client.begin();
    assert_eq!(t.get(o0).unwrap().as_deref(), Some(&b"kept"[..]));
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"kept"[..]));
    t.commit().unwrap();
}

/// A participant's `Commit` that the transport refuses at submit is
/// submitted again at once, three times in all, never backed off from.
/// Server 1 crashed once its prepare was delivered (the prepare's duplicate
/// crashes it, after the prepare was answered), so every submit is
/// refused: the commit returns counting server 1 as lagging, and server 1
/// learns the commit from server 0 once it is back.
#[test]
fn a_refused_secondary_decision_is_resubmitted_without_backoff() {
    let plans = vec![
        FaultPlan::healthy(),
        FaultPlan {
            duplicate: 1.0,
            crash_after_requests: Some(2),
            ..FaultPlan::healthy()
        },
    ];
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, plans);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let retries = db.stats().counter("rpc.retries");
    let lagging = db.stats().counter("kv.commit_lagging_participants");
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));

    let t = client.begin();
    t.put(o0, &b"once"[..]).unwrap();
    t.put(o1, &b"once"[..]).unwrap();
    let (retried, lagged) = (retries.get(), lagging.get());
    let commit_ts = t.commit().unwrap();
    assert!(faults.is_crashed(1));
    assert_eq!(retries.get(), retried + 2, "the decision's resubmits");
    assert_eq!(lagging.get(), lagged + 1);

    faults.set_plan(1, FaultPlan::healthy());
    faults.restart(1);
    std::thread::sleep(Duration::from_millis(5));
    db.reap_all();
    assert_eq!(db.prepared_total(), 0);
    assert_eq!(
        db.cluster().servers()[1].store().dump_versions(o1),
        vec![(commit_ts, Some(bytes::Bytes::from_static(b"once")))],
        "server 1 holds the commit exactly once"
    );
}

/// Duplicate deliveries of prepare and commit (retransmissions racing the
/// original) must not double-apply: one version per object, the second
/// prepare reports the same vote, and the second commit the original
/// timestamp.  The prepare names two participants, so that server 0's vote
/// is not the commit by itself.
#[test]
fn duplicate_prepare_and_commit_are_idempotent() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let txn = 0xD0D0;
    let start_ts = db.oracle().next_timestamp();
    let obj = oid_on(0, 2, 0);

    let prep = prepare2(txn, start_ts, obj, b"once", 1_000_000);
    let commit_ts = voted(transport.call(0, prep.clone()).unwrap());
    assert_eq!(voted(transport.call(0, prep.clone()).unwrap()), commit_ts);
    assert_eq!(db.prepared_total(), 1);

    for _ in 0..2 {
        match transport
            .call(0, KvRequest::Commit { txn, commit_ts })
            .unwrap()
        {
            KvResponse::Committed { commit_ts: ts } => assert_eq!(ts, commit_ts),
            other => panic!("expected Committed, got {other:?}"),
        }
    }
    let store = db.cluster().servers()[0].store();
    assert_eq!(store.dump_versions(obj).len(), 1, "applied exactly once");
    assert!(
        store.stats().dedup_hits >= 2,
        "duplicates answered from the table"
    );

    // A duplicate prepare arriving after the commit reports the commit
    // (the retransmission is stale) and re-acquires nothing.
    match transport.call(0, prep).unwrap() {
        KvResponse::Committed { commit_ts: ts } => assert_eq!(ts, commit_ts),
        other => panic!("expected Committed, got {other:?}"),
    }
    assert_eq!(db.prepared_total(), 0);
    assert_eq!(store.dump_versions(obj).len(), 1);
    let ts = db.oracle().next_timestamp();
    let read = transport.call(0, KvRequest::Get { obj, ts }).unwrap();
    assert!(matches!(read, KvResponse::Value(Some(_))), "{read:?}");
}

/// The wire-level `TxnStatus` query reports each fate correctly, through
/// the transport (not just the store API).
#[test]
fn txn_status_over_the_wire() {
    let db = KvDatabase::with_servers(1);
    let transport = db.cluster().transport();
    let obj = oid_on(0, 1, 0);

    let status = |txn| {
        let probe = KvRequest::TxnStatus { txn, fence: false };
        match transport.call(0, probe).unwrap() {
            KvResponse::TxnOutcome { status } => status,
            other => panic!("expected TxnOutcome, got {other:?}"),
        }
    };

    assert_eq!(status(42), TxnStatusKind::Unknown);

    let start_ts = db.oracle().next_timestamp();
    let prepare_ts = voted(
        transport
            .call(0, prepare2(42, start_ts, obj, b"x", 1_000_000))
            .unwrap(),
    );
    assert_eq!(status(42), TxnStatusKind::Prepared(prepare_ts));

    let commit_ts = db.oracle().next_timestamp();
    transport
        .call(0, KvRequest::Commit { txn: 42, commit_ts })
        .unwrap();
    assert_eq!(status(42), TxnStatusKind::Committed(commit_ts));

    transport.call(0, KvRequest::Abort { txn: 43 }).unwrap();
    assert_eq!(status(43), TxnStatusKind::Aborted);
}

/// A whole-cluster crash makes client operations fail with availability
/// errors (after bounded retries), never hangs and never panics; service
/// resumes after restart with all pre-crash data intact.
#[test]
fn full_outage_fails_cleanly_and_recovers() {
    let db = KvDatabase::with_faults(impatient(3), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();

    let t = client.begin();
    for i in 0..9 {
        t.put(ObjectId::new(1, i), format!("v{i}")).unwrap();
    }
    t.commit().unwrap();

    for s in 0..3 {
        faults.crash(s);
    }
    let t = client.begin();
    match t.get(ObjectId::new(1, 0)) {
        Err(e) if e.is_availability() => {}
        other => panic!("expected an availability error, got {other:?}"),
    }
    t.abort();
    assert!(db.stats().counter("rpc.retries").get() > 0);
    assert!(db.stats().counter("rpc.faults_injected").get() > 0);

    faults.heal_all();
    let t = client.begin();
    for i in 0..9 {
        assert_eq!(
            t.get(ObjectId::new(1, i)).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
            "data survived the outage"
        );
    }
    t.commit().unwrap();
}

/// A sweep does not stop at the first server it cannot reach: with server 1
/// down, `run_gc` reports the failure, and servers 0, 2 and 3 — the later
/// ones included — are swept all the same.
#[test]
fn gc_sweeps_every_reachable_server_when_one_is_down() {
    let db = KvDatabase::with_faults(impatient(4), TransportKind::Direct, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let live = [0usize, 2, 3];

    faults.crash(1);
    for &server in &live {
        let obj = oid_on(server, 4, 0);
        for i in 0..10 {
            let t = client.begin();
            t.put(obj, format!("v{i}")).unwrap();
            t.commit().unwrap();
        }
    }
    let stores = db.cluster().servers();
    for &server in &live {
        assert_eq!(stores[server].store().version_count(), 10);
    }

    match db.run_gc() {
        Err(e) if e.is_availability() => {}
        other => panic!("expected server 1's availability error, got {other:?}"),
    }
    for &server in &live {
        let store = stores[server].store();
        assert_eq!(store.object_count(), 1);
        assert_eq!(
            store.version_count(),
            store.object_count(),
            "server {server} was not swept"
        );
    }

    faults.heal_all();
    db.run_gc().unwrap();
}

/// A deployment of `nservers` logging servers behind a fault layer that
/// injects only what `plans` say, with the coordinator lease set to
/// `lease_us` (recovered prepares get the same).
fn logged(nservers: usize, lease_us: u64, plans: Vec<FaultPlan>) -> (TempDir, KvDatabase) {
    let tmp = TempDir::new("yesquel-faults-wal").unwrap();
    let mut cfg = YesquelConfig::with_servers(nservers);
    cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
    cfg.kv.prepare_lease_us = lease_us;
    let db = KvDatabase::try_with_faults(cfg, TransportKind::Direct, plans).unwrap();
    (tmp, db)
}

/// Every participant logs its `Commit` without waiting for the disk, so a
/// crash right after the acknowledgement takes the record with it and
/// recovery finds the transaction merely prepared.  Every vote was forced
/// before the commit was acknowledged, and a restarted participant learns
/// the commit the moment it can ask another: when it restarts, or — if
/// none was reachable then — when a read runs into the lock.  Never by
/// waiting out the lease.
#[test]
fn unforced_secondary_commit_comes_back_from_the_primary() {
    // A lease no test run outlives: anything that needed it would hang the
    // reads below into `LockTimeout`.
    let (_tmp, db) = logged(4, 600_000_000, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let servers = db.cluster().servers();
    let objs = [oid_on(0, 4, 0), oid_on(1, 4, 0), oid_on(2, 4, 0)];

    let client = db.client();
    let t = client.begin();
    let txn = t.id();
    for o in objs {
        t.put(o, &b"durable"[..]).unwrap();
    }
    let commit_ts = t.commit().unwrap();

    // The commit is acknowledged, and once the `Commit`s land every
    // participant holds it in an unsynced log tail.
    assert!(eventually(
        || (0..3).all(|s| !servers[s].store().dump_versions(objs[s]).is_empty())
    ));
    for (server, srv) in servers.iter().enumerate().take(3) {
        let wal = srv.store().wal().unwrap();
        assert!(wal.durable_len() < wal.len(), "server {server}");
    }

    // Server 1 loses its memory and its log tail, and comes back with the
    // others reachable: the commit is reinstalled during the restart.
    servers[1].amnesia_restart().unwrap();
    assert_eq!(servers[1].store().prepared_count(), 0);
    assert_eq!(servers[1].reap_counts(), (1, 0));

    // Server 2 comes back while the others are unreachable, so it stays
    // prepared — and must not guess.
    faults.crash(0);
    faults.crash(1);
    servers[2].amnesia_restart().unwrap();
    assert!(servers[2].store().is_prepared(txn));
    assert_eq!(servers[2].reap_counts(), (0, 0));
    faults.restart(0);
    faults.restart(1);

    // A fresh client's read finds the lock and gets the committed value at
    // once: the server asked the others instead of answering "locked".
    let fresh = db.client();
    let r = fresh.begin();
    for o in objs {
        assert_eq!(r.get(o).unwrap().as_deref(), Some(&b"durable"[..]));
    }
    r.commit().unwrap();
    assert_eq!(db.stats().counter("kv.get_lock_retries").get(), 0);
    assert_eq!(servers[2].reap_counts(), (1, 0));

    // Every participant says committed at the acknowledged timestamp, and
    // holds exactly that version.
    let probe = KvRequest::TxnStatus { txn, fence: false };
    match faults.call(0, probe).unwrap() {
        KvResponse::TxnOutcome { status } => {
            assert_eq!(status, TxnStatusKind::Committed(commit_ts))
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(db.prepared_total(), 0);
    for (server, o) in objs.iter().enumerate() {
        assert_eq!(
            servers[server].store().outcome(txn),
            Some(TxnOutcome::Committed(commit_ts))
        );
        assert_eq!(
            servers[server].store().dump_versions(*o),
            vec![(commit_ts, Some(bytes::Bytes::from_static(b"durable")))]
        );
    }
}

/// The converse: a restarted participant that cannot learn the fate keeps
/// its lock.  Its coordinator is alive and its prepare to server 0 is
/// merely slow, so server 0 answers "unknown" — and the transaction then
/// commits.  Releasing the lock on that answer would have torn it in half.
#[test]
fn restarted_secondary_keeps_its_lock_while_the_primary_is_undecided() {
    let (_tmp, db) = logged(2, 600_000_000, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let servers = db.cluster().servers();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));
    let txn = 0xFEED;
    let start_ts = db.oracle().next_timestamp();
    let prepare = |obj| prepare2(txn, start_ts, obj, b"whole", 600_000_000);

    let vote1 = voted(faults.call(1, prepare(o1)).unwrap());
    // The prepare to server 0 is still on its way while server 1 crashes,
    // restarts and asks: "unknown".  Reads and reaper passes at server 1
    // ask again and keep the lock.
    servers[1].amnesia_restart().unwrap();
    assert!(servers[1].store().is_prepared(txn));
    let ts = db.oracle().next_timestamp();
    let resp = faults.call(1, KvRequest::Get { obj: o1, ts }).unwrap();
    assert!(matches!(resp, KvResponse::Locked), "{resp:?}");
    servers[1].reap();
    assert!(servers[1].store().is_prepared(txn));
    assert_eq!(servers[1].reap_counts(), (0, 0));

    // Server 0 votes; the next read at server 1 finds both votes and
    // commits at the larger prepare timestamp.
    let vote0 = voted(faults.call(0, prepare(o0)).unwrap());
    let ts = db.oracle().next_timestamp();
    match faults.call(1, KvRequest::Get { obj: o1, ts }).unwrap() {
        KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"whole"),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(servers[1].reap_counts(), (1, 0));
    assert_eq!(
        servers[1].store().outcome(txn),
        Some(TxnOutcome::Committed(vote0.max(vote1)))
    );
}

/// Presuming abort still takes the lease: a restarted participant whose
/// fellow never heard of the transaction holds its lock until the lease
/// given to recovered prepares runs out, and only then fences it and lets
/// go.
#[test]
fn restarted_secondary_presumes_abort_only_after_its_lease() {
    let lease = Duration::from_millis(40);
    let lease_us = lease.as_micros() as u64;
    let (_tmp, db) = logged(2, lease_us, vec![]);
    let faults = Arc::clone(db.faults().unwrap());
    let servers = db.cluster().servers();
    let o1 = oid_on(1, 2, 0);
    let txn = 0xF00D;
    let start_ts = db.oracle().next_timestamp();
    voted(
        faults
            .call(1, prepare2(txn, start_ts, o1, b"orphan", lease_us))
            .unwrap(),
    );

    // Restarted; server 0 answers "unknown"; the lease has just begun.
    let restarted = std::time::Instant::now();
    servers[1].amnesia_restart().unwrap();
    servers[1].reap();
    let ts = db.oracle().next_timestamp();
    let resp = faults.call(1, KvRequest::Get { obj: o1, ts }).unwrap();
    if restarted.elapsed() < lease {
        assert!(matches!(resp, KvResponse::Locked), "{resp:?}");
        assert_eq!(servers[1].reap_counts(), (0, 0));
    }

    std::thread::sleep(lease);
    servers[1].reap();
    assert_eq!(servers[1].reap_counts(), (0, 1));
    assert_eq!(servers[1].store().outcome(txn), Some(TxnOutcome::Aborted));
    assert_eq!(servers[0].store().outcome(txn), Some(TxnOutcome::Aborted));
    let resp = faults.call(1, KvRequest::Get { obj: o1, ts }).unwrap();
    assert!(matches!(resp, KvResponse::Value(None)), "{resp:?}");
}

/// The lease an orphaned prepare is given below, and how long a test waits
/// for it to lapse.
const ORPHAN_LEASE_US: u64 = 20_000;
const ORPHAN_OVERDUE: Duration = Duration::from_millis(25);

/// A prepare of `obj` for `txn`, whose participants are servers 0 and 1,
/// whose coordinator is never heard from again.
fn orphan(txn: u64, start_ts: u64, obj: ObjectId) -> KvRequest {
    prepare2(txn, start_ts, obj, b"orphan", ORPHAN_LEASE_US)
}

/// A read that meets an orphaned prepare past its lease resolves it then
/// and there, with no `reap()` and no other request coming by first: the
/// other participant never heard of it and is fenced, and the read
/// answers the committed value under the lock.
#[test]
fn a_read_resolves_the_overdue_prepare_it_meets() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let obj = oid_on(0, 2, 0);
    let t = db.client().begin();
    t.put(obj, &b"before"[..]).unwrap();
    t.commit().unwrap();
    let resp = transport
        .call(0, orphan(0xA1, db.oracle().next_timestamp(), obj))
        .unwrap();
    voted(resp);

    std::thread::sleep(ORPHAN_OVERDUE);
    let ts = db.oracle().next_timestamp();
    match transport.call(0, KvRequest::Get { obj, ts }).unwrap() {
        KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"before"),
        other => panic!("expected the committed value, got {other:?}"),
    }
    assert_eq!(db.prepared_total(), 0);
    assert_eq!(db.cluster().servers()[0].reap_counts(), (0, 1));
}

/// A blind write — no read first, the way replica copies are written —
/// whose prepare conflicts with an overdue orphan resolves the orphan by
/// fencing its other participant, and `run_txn`'s retry commits.
#[test]
fn a_blind_write_resolves_the_overdue_prepare_it_conflicts_with() {
    let db = KvDatabase::with_servers(2);
    let transport = db.cluster().transport();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));
    let txn = 0xC3;
    let start_ts = db.oracle().next_timestamp();
    voted(transport.call(1, orphan(txn, start_ts, o1)).unwrap());

    std::thread::sleep(ORPHAN_OVERDUE);
    let beside = oid_on(0, 2, o0.oid + 1);
    let client = db.client();
    client
        .run_txn(|t| {
            t.put(o1, &b"blind"[..])?;
            t.put(beside, &b"blind"[..])
        })
        .unwrap();
    assert_eq!(db.prepared_total(), 0);
    for srv in db.cluster().servers() {
        assert_eq!(srv.store().outcome(txn), Some(TxnOutcome::Aborted));
    }
    let t = client.begin();
    assert_eq!(t.get(o1).unwrap().as_deref(), Some(&b"blind"[..]));
    assert_eq!(t.get(o0).unwrap(), None);
    t.commit().unwrap();
}

/// A participant whose `Commit` was lost learns the commit from the other
/// while that one still remembers it, even though nobody reads the locked
/// object: any request sweeps the overdue prepares.  The other then
/// decides more transactions than it keeps outcomes for, and a read of the
/// first one's object still answers the committed value — had it waited to
/// be met, it would have found the commit forgotten, fenced, and aborted a
/// committed transaction.
#[test]
fn a_lost_commit_is_learnt_before_the_primary_forgets_it() {
    let db = KvDatabase::new(impatient(2));
    let transport = db.cluster().transport();
    let (o0, o1) = (oid_on(0, 2, 0), oid_on(1, 2, 0));
    let txn = 0xE5;
    let start_ts = db.oracle().next_timestamp();
    let votes = [(0, o0), (1, o1)]
        .map(|(server, obj)| voted(transport.call(server, orphan(txn, start_ts, obj)).unwrap()));
    // The coordinator's `Commit` reaches server 0, and the one to server 1
    // is lost.
    let commit_ts = votes[0].max(votes[1]);
    let resp = transport
        .call(0, KvRequest::Commit { txn, commit_ts })
        .unwrap();
    assert!(matches!(resp, KvResponse::Committed { .. }), "{resp:?}");
    assert_eq!(
        db.cluster().servers()[0].store().outcome(txn),
        Some(TxnOutcome::Committed(commit_ts))
    );

    std::thread::sleep(ORPHAN_OVERDUE);
    let elsewhere = oid_on(1, 2, o1.oid + 1);
    let ts = db.oracle().next_timestamp();
    let resp = transport
        .call(1, KvRequest::Get { obj: elsewhere, ts })
        .unwrap();
    assert!(matches!(resp, KvResponse::Value(None)), "{resp:?}");

    // More decisions at server 0 than it retains outcomes for (4 096).
    let mut from = o0.oid + 1;
    for i in 0..5_000 {
        let obj = oid_on(0, 2, from);
        from = obj.oid + 1;
        let req = KvRequest::Prepare {
            txn: 0x10_000 + i,
            start_ts: db.oracle().next_timestamp(),
            writes: vec![write(obj, b"filler")],
            participants: vec![0],
            lease_us: ORPHAN_LEASE_US,
        };
        let resp = transport.call(0, req).unwrap();
        assert!(matches!(resp, KvResponse::Committed { .. }), "{resp:?}");
    }

    let ts = db.oracle().next_timestamp();
    for (server, obj) in [(0, o0), (1, o1)] {
        match transport.call(server, KvRequest::Get { obj, ts }).unwrap() {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"orphan"),
            other => panic!("server {server}: expected the committed value, got {other:?}"),
        }
    }
    assert_eq!(
        db.cluster().servers()[1].store().outcome(txn),
        Some(TxnOutcome::Committed(commit_ts))
    );
    assert_eq!(db.prepared_total(), 0);
}

/// Resolutions that must ask another server take one worker at a time.
/// Two servers with two workers each hold orphans that every read must
/// resolve by asking the other server — reads of server 1's locks probe
/// server 0, reads of server 0's locks probe server 1 — and four readers
/// per server run into them at once.  A millisecond of service time per
/// request lines the workers up.  Every read gets the committed value
/// (both participants voted yes), because each server keeps a worker free
/// to answer its peer's `TxnStatus`; were all four workers waiting on each
/// other, none would.
#[test]
fn crossing_resolutions_keep_a_worker_free() {
    let mut cfg = YesquelConfig::with_servers(2);
    cfg.net = NetConfig {
        sleep_latency: true,
        service_time_us: 1_000,
        ..NetConfig::default()
    };
    let db = KvDatabase::with_transport(
        cfg,
        TransportKind::Threaded {
            workers_per_server: 2,
        },
    );
    let transport = db.cluster().transport();
    let mut locked = Vec::new();
    let mut from = 0;
    for i in 0..8u64 {
        let (asked, read) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
        let (at_asked, at_read) = (oid_on(asked, 2, from), oid_on(read, 2, from));
        from = at_asked.oid.max(at_read.oid) + 1;
        let start_ts = db.oracle().next_timestamp();
        for (server, obj) in [(asked, at_asked), (read, at_read)] {
            let resp = transport
                .call(server, orphan(0xD0 + i, start_ts, obj))
                .unwrap();
            voted(resp);
        }
        locked.push((read, at_read));
    }
    assert_eq!(db.prepared_total(), 16);

    std::thread::sleep(ORPHAN_OVERDUE);
    let (tx, rx) = mpsc::channel();
    let start = Arc::new(Barrier::new(locked.len()));
    let readers: Vec<_> = locked
        .into_iter()
        .map(|(server, obj)| {
            let (transport, tx, start) = (Arc::clone(&transport), tx.clone(), Arc::clone(&start));
            let ts = db.oracle().next_timestamp();
            std::thread::spawn(move || {
                start.wait();
                loop {
                    match transport.call(server, KvRequest::Get { obj, ts }) {
                        Ok(KvResponse::Locked) => std::thread::sleep(Duration::from_millis(1)),
                        read => return tx.send(read).unwrap(),
                    }
                }
            })
        })
        .collect();
    // A reader stuck behind deadlocked workers is never joined: the test
    // fails on the deadline instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(5);
    for _ in 0..readers.len() {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok(KvResponse::Value(Some(v)))) => assert_eq!(&v[..], b"orphan"),
            Ok(read) => panic!("expected the committed value, got {read:?}"),
            Err(_) => panic!("a reader got no value within 5 s"),
        }
    }
    for reader in readers {
        reader.join().unwrap();
    }
    // The copies nobody read learn the commit from the ones that were.
    db.reap_all();
    assert_eq!(db.prepared_total(), 0);
}

/// With every server down an autocommit statement gives up with a clean
/// `Unavailable`, and service resumes once the servers are back.
#[test]
fn autocommit_degrades_to_unavailable_and_recovers() {
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, vec![]);
    let y = Yesquel::open_db(db).unwrap();
    y.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    y.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();

    let faults = Arc::clone(y.db().faults().expect("fault-injected deployment"));
    faults.crash(0);
    faults.crash(1);
    match y.execute("SELECT v FROM t WHERE id = 1", &[]) {
        Err(Error::Unavailable(msg)) => {
            assert!(msg.contains("attempts"), "degradation message: {msg}")
        }
        other => panic!("expected clean Unavailable, got {other:?}"),
    }

    // Service resumes transparently once the servers come back.
    faults.restart(0);
    faults.restart(1);
    let rs = y.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("a".into())]]);
}

#[test]
fn autocommit_rides_out_transient_faults() {
    // Every server drops ~20% of requests and delays some others; the
    // retry stack must hide all of it from SQL callers.
    let plan = FaultPlan {
        seed: 7,
        drop_request: 0.15,
        drop_response: 0.05,
        transient_error: 0.05,
        ..FaultPlan::healthy()
    };
    let db = KvDatabase::with_faults(
        impatient(2),
        TransportKind::Direct,
        vec![plan.clone(), plan],
    );
    let y = Yesquel::open_db(db).unwrap();
    y.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INT)", &[])
        .unwrap();
    let ins = y.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    for i in 0..40i64 {
        ins.execute(params![i, i * 10]).unwrap();
    }
    let rs = y.execute("SELECT COUNT(*), SUM(n) FROM t", &[]).unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Int(40),
            Value::Int((0..40).map(|i| i * 10).sum())
        ]]
    );
    assert!(y.db().faults().unwrap().faults_injected() > 0);
}

/// Opening a stream is an autocommit statement like any other: no row has
/// been handed out yet, so a transient fault during the open (where a point
/// select does all of its reading) is retried, not returned.
#[test]
fn streamed_queries_ride_out_transient_faults() {
    let db = KvDatabase::with_faults(impatient(2), TransportKind::Direct, vec![]);
    let y = Yesquel::open_db(db).unwrap();
    y.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INT)", &[])
        .unwrap();
    for i in 0..40i64 {
        y.execute("INSERT INTO t VALUES (?, ?)", params![i, i * 10])
            .unwrap();
    }
    let by_id = y.prepare("SELECT n FROM t WHERE id = ?").unwrap();

    // Half of all requests now fail; every open retries its reads within
    // its statement's deadline.
    let faults = Arc::clone(y.db().faults().expect("fault-injected deployment"));
    for server in 0..2 {
        let plan = FaultPlan {
            seed: 11 + server as u64,
            transient_error: 0.5,
            ..FaultPlan::healthy()
        };
        faults.set_plan(server, plan);
    }
    let retries = y.db().stats().counter("rpc.retries");
    let before = retries.get();
    for round in 0..10 {
        for i in 0..40i64 {
            let rows = if round % 2 == 0 {
                y.query("SELECT n FROM t WHERE id = ?", params![i])
            } else {
                by_id.query(params![i])
            };
            let rs = rows.unwrap().into_result_set().unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(i * 10)]]);
        }
    }
    assert!(
        retries.get() > before,
        "no open retried a read: the faults never reached a statement"
    );
}

/// A statement that cannot succeed gives up at its deadline, whatever the
/// fault and over either transport: an `impatient` statement (6 ms)
/// returns within its deadline plus one round trip — and an allowance for
/// sleeps that overshoot on a loaded machine — having spent most of it.
#[test]
fn a_failing_statement_returns_by_its_deadline() {
    let deadline = Duration::from_micros(KvConfig::impatient().op_deadline_us());
    let obj = ObjectId::new(1, 0);
    let threaded = TransportKind::Threaded {
        workers_per_server: 1,
    };
    for transport in [TransportKind::Direct, threaded] {
        for kind in ["crash", "drop_request", "drop_response", "transient_error"] {
            let db = KvDatabase::with_faults(impatient(1), transport, vec![]);
            let client = db.client();
            let t0 = Instant::now();
            client.run_txn(|txn| txn.get(obj)).unwrap();
            let round_trip = t0.elapsed();
            let faults = db.faults().unwrap();
            let mut plan = FaultPlan::healthy();
            match kind {
                "crash" => faults.crash(0),
                "drop_request" => plan.drop_request = 1.0,
                "drop_response" => plan.drop_response = 1.0,
                _ => plan.transient_error = 1.0,
            }
            faults.set_plan(0, plan);

            let t0 = Instant::now();
            let out = client.run_txn(|txn| txn.get(obj));
            let took = t0.elapsed();
            assert!(
                matches!(out, Err(Error::RetriesExhausted { attempts: 1, .. })),
                "{kind} over {transport:?}: {out:?}"
            );
            assert!(
                took >= deadline / 2 && took <= deadline + round_trip + Duration::from_millis(10),
                "{kind} over {transport:?}: gave up after {took:?}"
            );
        }
    }
}
