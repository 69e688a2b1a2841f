//! Multi-threaded smoke tests: many client threads reading and committing
//! concurrently against the lock-striped server stores.  These tests are
//! about absence of deadlock, lost updates and torn reads under real
//! parallelism, not about throughput.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use yesquel::rpc::{FaultPlan, TransportKind};
use yesquel::{KvDatabase, NetConfig, ObjectId, Yesquel, YesquelConfig};

#[test]
fn concurrent_disjoint_writers_all_commit() {
    let db = Arc::new(KvDatabase::with_servers(4));
    let threads = 8u64;
    let per_thread = 200u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let client = db.client();
            for i in 0..per_thread {
                let txn = client.begin();
                txn.put(ObjectId::new(2, t * 100_000 + i), format!("t{t}i{i}"))
                    .unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let client = db.client();
    let r = client.begin();
    for t in 0..threads {
        for i in (0..per_thread).step_by(37) {
            let v = r
                .get(ObjectId::new(2, t * 100_000 + i))
                .unwrap()
                .expect("committed");
            assert_eq!(&v[..], format!("t{t}i{i}").as_bytes());
        }
    }
    r.commit().unwrap();
}

#[test]
fn concurrent_counter_increments_never_lose_updates() {
    // Writers increment one contended object under first-committer-wins with
    // retry; the final value must equal the number of successful commits.
    let db = Arc::new(KvDatabase::with_servers(4));
    let obj = ObjectId::new(3, 1);
    {
        let c = db.client();
        let t = c.begin();
        t.put(obj, 0u64.to_be_bytes().to_vec()).unwrap();
        t.commit().unwrap();
    }
    let commits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let db = Arc::clone(&db);
        let commits = Arc::clone(&commits);
        handles.push(std::thread::spawn(move || {
            let client = db.client();
            for _ in 0..50 {
                client
                    .run_txn(|txn| {
                        let cur = txn.get(obj)?.expect("initialised");
                        let mut buf = [0u8; 8];
                        buf.copy_from_slice(&cur[..8]);
                        let next = u64::from_be_bytes(buf) + 1;
                        txn.put(obj, next.to_be_bytes().to_vec())?;
                        Ok(())
                    })
                    .unwrap();
                commits.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let client = db.client();
    let r = client.begin();
    let v = r.get(obj).unwrap().expect("present");
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&v[..8]);
    assert_eq!(u64::from_be_bytes(buf), commits.load(Ordering::SeqCst));
    r.commit().unwrap();
}

#[test]
fn one_phase_commit_counter_totals_exactly() {
    // Two threads read-modify-write one object, each transaction one
    // participant's prepare, whose vote is the commit.  The server must
    // draw the prepare timestamp, which is the commit timestamp, only once
    // its lock on the object is in: drawn before, a transaction that
    // begins in between reads the old value at a snapshot above that
    // timestamp, passes first-committer-wins and overwrites.  The window
    // is a few instructions wide and was hit about once in 10^4
    // increments, hence the volume.
    const THREADS: u64 = 2;
    const INCREMENTS: u64 = 60_000;
    let db = Arc::new(KvDatabase::with_servers(1));
    let obj = ObjectId::new(4, 1);
    let value_of = |v: &[u8]| u64::from_be_bytes(v[..8].try_into().unwrap());
    {
        let t = db.client().begin();
        t.put(obj, 0u64.to_be_bytes().to_vec()).unwrap();
        t.commit().unwrap();
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let client = db.client();
                let mut done = 0;
                while done < INCREMENTS {
                    let txn = client.begin();
                    let cur = value_of(&txn.get(obj).unwrap().expect("initialised"));
                    txn.put(obj, (cur + 1).to_be_bytes().to_vec()).unwrap();
                    // A conflict is the other thread winning the round; only
                    // acknowledged commits count.
                    if txn.commit().is_ok() {
                        done += 1;
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let r = db.client().begin();
    let total = value_of(&r.get(obj).unwrap().expect("present"));
    assert_eq!(
        total,
        THREADS * INCREMENTS,
        "an acknowledged increment was lost"
    );
    assert_eq!(
        db.stats().counter("kv.commit_2pc").get(),
        0,
        "every commit had one participant"
    );
}

#[test]
fn concurrent_readers_and_writers_on_one_tree() {
    // Readers sweep the tree while writers append; every lookup must return
    // either nothing (not yet committed) or the exact committed value.
    let y = Arc::new(Yesquel::open(4));
    let dbt = y.create_tree(1).unwrap();
    let total = 400u64;

    let writer = {
        let y = Arc::clone(&y);
        let dbt = dbt.clone();
        std::thread::spawn(move || {
            let client = y.db().client();
            for i in 0..total {
                client
                    .run_txn(|txn| {
                        dbt.insert(txn, &i.to_be_bytes(), format!("value{i}").as_bytes())
                    })
                    .unwrap();
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..4 {
        let y = Arc::clone(&y);
        let dbt = dbt.clone();
        readers.push(std::thread::spawn(move || {
            let client = y.db().client();
            for round in 0..40u64 {
                let txn = client.begin();
                for i in (0..total).step_by(13) {
                    if let Some(v) = dbt.lookup(&txn, &i.to_be_bytes()).unwrap() {
                        assert_eq!(&v[..], format!("value{i}").as_bytes(), "round {round}");
                    }
                }
                txn.commit().unwrap();
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    y.engine().wait_for_splits();
    let client = y.db().client();
    let txn = client.begin();
    assert_eq!(dbt.count(&txn).unwrap(), total);
    txn.commit().unwrap();
}

#[test]
fn gc_never_drops_what_a_starting_snapshot_reads() {
    // Garbage collection against live traffic, at default settings: a
    // collector thread sweeps in a loop while writers overwrite and readers
    // start fresh snapshots.  A sweep keeps exactly what a snapshot at or
    // above its watermark reads, so it is only safe if no snapshot can start
    // below a watermark already taken — drawing a start timestamp and
    // registering it must be one step.  Were they two, a reader descheduled
    // between them would find its version gone: an object that has existed
    // since before any thread started reads as `None`.
    const SERVERS: usize = 4;
    const OBJECTS: u64 = 32;
    const RUN: std::time::Duration = std::time::Duration::from_secs(2);

    let db = Arc::new(KvDatabase::with_servers(SERVERS));
    let objs: Vec<ObjectId> = (0..OBJECTS).map(|i| ObjectId::new(5, i)).collect();
    // One object per server for the three-object writer, so its commits are
    // two-phase.
    let spread: Vec<ObjectId> = (0..3)
        .map(|s| {
            *objs
                .iter()
                .find(|o| o.home_server(SERVERS) == s)
                .expect("32 objects cover every server")
        })
        .collect();
    let value_of = |v: &[u8]| u64::from_be_bytes(v[..8].try_into().unwrap());
    {
        let t = db.client().begin();
        for &o in &objs {
            t.put(o, 0u64.to_be_bytes().to_vec()).unwrap();
        }
        t.commit().unwrap();
    }

    let stop = std::sync::atomic::AtomicBool::new(false);
    let increments = AtomicU64::new(0);
    let missing = AtomicU64::new(0);
    let backwards = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let sweeps = AtomicU64::new(0);
    let bump = |txn: &yesquel::Txn, obj: ObjectId| match txn.get(obj)? {
        Some(cur) => txn.put(obj, (value_of(&cur) + 1).to_be_bytes().to_vec()),
        None => {
            // Counted, and retried at a fresh snapshot.
            missing.fetch_add(1, Ordering::SeqCst);
            Err(yesquel::Error::Conflict(format!("{obj} read as absent")))
        }
    };
    // First-committer-wins can starve one writer while the other keeps
    // committing, until its autocommit loop gives up with `RetriesExhausted`
    // over a `Conflict`.  Nothing of that statement was applied, so its
    // increment is simply not counted; any other error fails the test.
    let applied = |r: yesquel::Result<()>| match r {
        Ok(()) => true,
        Err(yesquel::Error::RetriesExhausted { last, .. })
            if matches!(*last, yesquel::Error::Conflict(_)) =>
        {
            false
        }
        Err(e) => panic!("{e:?}"),
    };
    std::thread::scope(|s| {
        // Writer one: single-object increments (one participant each).
        s.spawn(|| {
            let client = db.client();
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                let obj = objs[i % objs.len()];
                if applied(client.run_txn(|txn| bump(txn, obj))) {
                    increments.fetch_add(1, Ordering::SeqCst);
                }
                i += 1;
            }
        });
        // Writer two: three objects on three servers (two-phase commits).
        s.spawn(|| {
            let client = db.client();
            while !stop.load(Ordering::SeqCst) {
                let r = client.run_txn(|txn| spread.iter().try_for_each(|&obj| bump(txn, obj)));
                if applied(r) {
                    increments.fetch_add(3, Ordering::SeqCst);
                }
            }
        });
        // Readers: a fresh snapshot per pass over every object.
        for _ in 0..2 {
            s.spawn(|| {
                let client = db.client();
                let mut seen = vec![0u64; objs.len()];
                while !stop.load(Ordering::SeqCst) {
                    let txn = client.begin();
                    for (i, &obj) in objs.iter().enumerate() {
                        match txn.get(obj).unwrap() {
                            None => {
                                missing.fetch_add(1, Ordering::SeqCst);
                            }
                            Some(v) if value_of(&v) < seen[i] => {
                                backwards.fetch_add(1, Ordering::SeqCst);
                            }
                            Some(v) => seen[i] = value_of(&v),
                        }
                    }
                    reads.fetch_add(objs.len() as u64, Ordering::SeqCst);
                    txn.commit().unwrap();
                }
            });
        }
        // The collector.
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                db.run_gc().unwrap();
                sweeps.fetch_add(1, Ordering::SeqCst);
            }
        });
        std::thread::sleep(RUN);
        stop.store(true, Ordering::SeqCst);
    });

    let (reads, sweeps) = (reads.into_inner(), sweeps.into_inner());
    assert!(reads > 0 && sweeps > 0, "{reads} reads, {sweeps} sweeps");
    assert_eq!(
        (missing.into_inner(), backwards.into_inner()),
        (0, 0),
        "(reads of an existing object that returned None, reads older than one \
         already seen) out of {reads} reads against {sweeps} sweeps"
    );
    let r = db.client().begin();
    let total: u64 = objs
        .iter()
        .map(|&o| value_of(&r.get(o).unwrap().expect("present")))
        .sum();
    r.commit().unwrap();
    assert_eq!(total, increments.into_inner(), "an increment was lost");
    // Quiescent: one sweep leaves one version of each object.
    db.run_gc().unwrap();
    assert_eq!(db.total_objects(), OBJECTS);
    assert_eq!(db.total_versions(), db.total_objects());
}

/// Snapshot isolation at the commit point, over worker threads, with
/// messages — `Commit`s among them — delayed at random, so a commit's
/// `Commit`s land one by one, the last well after the first.  A writer
/// commits transactions that write the same counter to an object on each
/// of two servers, while readers draw snapshots and read both:
///
/// * a snapshot drawn after a commit was acknowledged reads its writes;
/// * one drawn before its first prepare reads none of them;
/// * no snapshot reads one of its writes without the other.
#[test]
fn snapshots_see_a_commit_whole_from_its_acknowledgement_on() {
    let mut cfg = YesquelConfig::with_servers(2);
    cfg.net = NetConfig {
        one_way_latency_us: 50,
        sleep_latency: true,
        service_time_us: 100,
        ..NetConfig::default()
    };
    let plans = (0..2)
        .map(|seed| FaultPlan {
            seed,
            delay: 0.5,
            delay_us: (50, 600),
            ..FaultPlan::healthy()
        })
        .collect();
    let threaded = TransportKind::Threaded {
        workers_per_server: 2,
    };
    let db = KvDatabase::with_faults(cfg, threaded, plans);
    let on = |server| {
        (0..)
            .map(|o| ObjectId::new(1, o))
            .find(|o| o.home_server(2) == server)
            .unwrap()
    };
    let (a, b) = (on(0), on(1));
    let client = db.client();
    let read_both = |t: &yesquel::kv::Txn| {
        let [va, vb] = [a, b].map(|o| t.get(o).unwrap().map(|v| v.to_vec()));
        assert_eq!(va, vb, "snapshot {} read a mix", t.start_ts());
        va
    };
    // Retried on a conflict: the last commit's `Commit` may not have
    // released its lock at the second server yet.
    let put_both = |n: u64| {
        client
            .run_txn(|t| {
                for o in [a, b] {
                    t.put(o, n.to_string())?;
                }
                Ok(())
            })
            .unwrap()
    };
    put_both(0);
    let stop = AtomicBool::new(false);
    /// Stops the readers however the writer ends, so that a failed
    /// assertion fails the test instead of hanging it.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let client = db.client();
                    let mut snapshots = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let t = client.begin();
                        read_both(&t);
                        t.commit().unwrap();
                        snapshots += 1;
                        // Leave the CPU to the tests running beside this one.
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    snapshots
                })
            })
            .collect();
        let stopping = Stop(&stop);
        for n in 1..=40u64 {
            let before = client.begin();
            put_both(n);
            let after = client.begin();
            let value = |n: u64| Some(n.to_string().into_bytes());
            assert_eq!(read_both(&after), value(n), "after the ack");
            assert_eq!(read_both(&before), value(n - 1), "before the prepares");
            before.commit().unwrap();
            after.commit().unwrap();
        }
        drop(stopping);
        for reader in readers {
            assert!(reader.join().unwrap() > 0);
        }
    });
    let locked: u64 = (db.cluster().servers().iter())
        .map(|s| s.store().stats().locked_reads)
        .sum();
    assert!(locked > 0, "no read met a lock: the window was never open");
}
