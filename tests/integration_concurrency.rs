//! Multi-threaded smoke tests: many client threads reading and committing
//! concurrently against the lock-striped server stores.  These tests are
//! about absence of deadlock, lost updates and torn reads under real
//! parallelism, not about throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yesquel::{KvDatabase, ObjectId, Yesquel};

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
    // Two threads read-modify-write one object, each transaction a
    // single-server one-phase commit (the default).  The server must fix
    // the commit timestamp only once it holds the object: drawn before, a
    // transaction that begins in between reads the old value at a snapshot
    // above that timestamp, passes first-committer-wins and overwrites.
    // The window is a few instructions wide and was hit about once in 10^4
    // increments, hence the volume.
    const THREADS: u64 = 2;
    const INCREMENTS: u64 = 60_000;
    let db = Arc::new(KvDatabase::with_servers(1));
    assert!(db.config().kv.one_phase_commit);
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
        "every commit took the one-phase path"
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
