//! Seeded kill-and-restart storm over durable storage servers: every server
//! logs to a per-server write-ahead log (group-commit fsync policy) and runs
//! under an **amnesia** fault plan — a crash drops all volatile state, and
//! the restart hook rebuilds the store by replaying the log's clean prefix,
//! exactly as a killed process would on a real machine.
//!
//! On top of the fault storm of `prop_chaos_commit` (drops, duplicates,
//! transient errors, a scripted crash-looper), the driver periodically
//! kill-restarts random servers mid-run and checkpoints others, then ends
//! with a full-cluster kill: every server loses its memory at once and comes
//! back from its log alone.  The invariant checked throughout is
//! **committed iff acknowledged**:
//!
//! * every commit acknowledged to the client survives every restart — the
//!   primary still reports `Committed` at the reported timestamp, all
//!   participants agree, and the version chains contain exactly the
//!   acknowledged writes (no loss, no double-apply, no phantoms);
//! * every transaction reported cleanly as not-applied committed nowhere;
//! * in-doubt transactions resolve to exactly one fate, decided by the
//!   primary, even when the deciding state was itself recovered from a log.
//!
//! Each seed runs over two deployments: direct calls, and per-server worker
//! threads (two per server) over a slept network of 50 µs one way.  On the
//! second, prepares answered by the logs' flushers, secondaries' decisions
//! still landing after their commit returned, and amnesia restarts that
//! must wait for both meet in one run.
//!
//! All randomness flows from the per-case seed, so a failure reproduces.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use yesquel::common::rand_util::seeded_rng;
use yesquel::common::tempdir::TempDir;
use yesquel::common::WalFsyncPolicy;
use yesquel::kv::store::TxnOutcome;
use yesquel::rpc::{FaultPlan, TransportKind};
use yesquel::{Error, KvConfig, KvDatabase, NetConfig, ObjectId, YesquelConfig};

const SERVERS: usize = 4;
const KEYS: usize = 24;
const TXNS: usize = 220;
/// Every this many transactions the driver kills and restarts one random
/// server and checkpoints another.
const RESTART_EVERY: usize = 45;

type VersionHistory = Vec<(u64, Option<Vec<u8>>)>;

/// What the client was told about a transaction.
#[derive(Debug, Clone, PartialEq)]
enum Reported {
    Committed(u64),
    /// Conflict or clean unavailability: guaranteed not applied.
    NotApplied,
    /// Timeout / indeterminate: only the primary knows.
    Maybe,
}

#[derive(Debug)]
struct TxnRecord {
    id: u64,
    writes: Vec<(ObjectId, Option<Vec<u8>>)>,
    reported: Reported,
}

fn key_pool() -> Vec<ObjectId> {
    (0..KEYS as u64).map(|o| ObjectId::new(1, o)).collect()
}

fn keys_by_server(keys: &[ObjectId]) -> Vec<Vec<ObjectId>> {
    let mut by = vec![Vec::new(); SERVERS];
    for &k in keys {
        by[k.home_server(SERVERS)].push(k);
    }
    by
}

fn participants(writes: &[(ObjectId, Option<Vec<u8>>)]) -> Vec<usize> {
    let mut ps: Vec<usize> = writes.iter().map(|(o, _)| o.home_server(SERVERS)).collect();
    ps.sort_unstable();
    ps.dedup();
    ps
}

/// After a restart of `server`, every commit previously acknowledged whose
/// primary is that server must still be known-committed there: the commit
/// record was durable before the ack, so amnesia cannot erase it.
fn assert_acks_survived(db: &KvDatabase, records: &[TxnRecord], server: usize, seed: u64) {
    let servers = db.cluster().servers();
    for rec in records {
        if let Reported::Committed(ts) = rec.reported {
            let primary = participants(&rec.writes)[0];
            if primary != server {
                continue;
            }
            assert_eq!(
                servers[primary].store().outcome(rec.id),
                Some(TxnOutcome::Committed(ts)),
                "seed {seed}: restart of server {server} lost acknowledged txn {}",
                rec.id
            );
        }
    }
}

/// The transports every seed runs over.
const TRANSPORTS: [TransportKind; 2] = [
    TransportKind::Direct,
    TransportKind::Threaded {
        workers_per_server: 2,
    },
];

fn recovery_case(seed: u64, transport: TransportKind) {
    let mut rng = seeded_rng(seed, 1);
    let tmp = TempDir::new("yesquel-crash-recovery").unwrap();
    let mut cfg = YesquelConfig::with_servers(SERVERS);
    cfg.kv = KvConfig::impatient();
    cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
    cfg.kv.wal_fsync = WalFsyncPolicy::Group { window_us: 50 };
    if matches!(transport, TransportKind::Threaded { .. }) {
        cfg.net = NetConfig {
            one_way_latency_us: 50,
            sleep_latency: true,
            ..NetConfig::default()
        };
    }

    // Every server weathers the same storm under an amnesia plan; one
    // additionally crash-loops on a scripted schedule, losing its memory on
    // every scripted recovery.
    let mut plans: Vec<FaultPlan> = (0..SERVERS)
        .map(|_| FaultPlan {
            amnesia: true,
            ..FaultPlan::storm(seed)
        })
        .collect();
    let looper = rng.gen_range(0..SERVERS as u64) as usize;
    plans[looper].crash_after_requests = Some(rng.gen_range(40..80));
    plans[looper].restart_after_rejects = Some(rng.gen_range(4..12));

    let db = KvDatabase::with_faults(cfg, transport, plans);
    let faults = Arc::clone(db.faults().unwrap());
    let client = db.client();
    let keys = key_pool();
    let by_server = keys_by_server(&keys);

    let mut records: Vec<TxnRecord> = Vec::new();
    let mut restarts = 0u64;
    let mut checkpoints = 0u64;

    for i in 0..TXNS {
        if i > 0 && i % RESTART_EVERY == 0 {
            // Kill-restart one random server: volatile state gone, store
            // rebuilt from its log.  Acknowledged commits must survive.
            let victim = rng.gen_range(0..SERVERS as u64) as usize;
            faults.crash(victim);
            faults.restart(victim);
            restarts += 1;
            assert_acks_survived(&db, &records, victim, seed);
            // And checkpoint another, so recovery sometimes starts from a
            // checkpoint segment instead of a full replay.
            let ckpt = rng.gen_range(0..SERVERS as u64) as usize;
            db.cluster().servers()[ckpt].checkpoint().unwrap();
            checkpoints += 1;
        }

        // Mixed workload: one-phase (single-server) or two-phase writes,
        // with occasional deletes, mirroring the chaos commit test.
        let kind = rng.gen_range(0..10u32);
        let writes: Vec<(ObjectId, Option<Vec<u8>>)> = if kind < 5 {
            let s = rng.gen_range(0..SERVERS as u64) as usize;
            let n = rng.gen_range(1..=3u64) as usize;
            (0..n)
                .map(|j| {
                    let k = by_server[s][rng.gen_range(0..by_server[s].len() as u64) as usize];
                    let del = rng.gen_bool(0.1);
                    (k, (!del).then(|| format!("s{seed}-t{i}-{j}").into_bytes()))
                })
                .collect()
        } else {
            let n = rng.gen_range(2..=4u64) as usize;
            (0..n)
                .map(|j| {
                    let k = keys[rng.gen_range(0..KEYS as u64) as usize];
                    let del = rng.gen_bool(0.1);
                    (k, (!del).then(|| format!("s{seed}-t{i}-{j}").into_bytes()))
                })
                .collect()
        };
        let mut dedup: HashMap<ObjectId, Option<Vec<u8>>> = HashMap::new();
        for (k, v) in writes {
            dedup.insert(k, v);
        }
        let writes: Vec<_> = dedup.into_iter().collect();

        let t = client.begin();
        let mut write_failed = false;
        for (k, v) in &writes {
            let r = match v {
                Some(bytes) => t.put(*k, bytes.clone()),
                None => t.delete(*k),
            };
            if r.is_err() {
                write_failed = true;
                break;
            }
        }
        if write_failed {
            t.abort();
            continue;
        }
        let id = t.id();
        let reported = match t.commit() {
            Ok(ts) => Reported::Committed(ts),
            Err(Error::Conflict(_)) | Err(Error::Unavailable(_)) => Reported::NotApplied,
            Err(Error::Indeterminate(_)) | Err(Error::Timeout(_)) => Reported::Maybe,
            Err(e) => panic!("seed {seed}: unexpected commit error: {e:?}"),
        };
        records.push(TxnRecord {
            id,
            writes,
            reported,
        });
    }

    assert!(
        faults.faults_injected() > 0,
        "seed {seed}: the storm never injected anything"
    );
    let wal = |n: &str| db.stats().counter(&format!("wal.{n}")).get();
    assert!(wal("appends") > 0, "seed {seed}: nothing was ever logged");
    assert!(wal("fsyncs") > 0, "seed {seed}: nothing was ever synced");

    // The full-cluster kill: every server loses its volatile memory at once
    // and comes back from its write-ahead log alone.
    for server in 0..SERVERS {
        faults.crash(server);
        faults.restart(server);
        assert_acks_survived(&db, &records, server, seed);
    }
    assert!(
        wal("recovered_txns") > 0,
        "seed {seed}: full-cluster restart recovered no transactions"
    );

    // Heal and let the reaper resolve whatever came back prepared (its
    // coordinator is long gone; recovered prepares carry a fresh lease).
    faults.heal_all();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.prepared_total() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        db.reap_all();
    }
    assert_eq!(
        db.prepared_total(),
        0,
        "seed {seed}: prepared state survived recovery + heal + reap"
    );

    {
        let (na, mb, ok) = records
            .iter()
            .fold((0, 0, 0), |(a, m, o), r| match r.reported {
                Reported::NotApplied => (a + 1, m, o),
                Reported::Maybe => (a, m + 1, o),
                Reported::Committed(_) => (a, m, o + 1),
            });
        eprintln!(
            "seed {seed} {transport:?}: ok={ok} notapplied={na} maybe={mb} restarts={restarts} \
             checkpoints={checkpoints} appends={} fsyncs={} recovered={}",
            wal("appends"),
            wal("fsyncs"),
            wal("recovered_txns"),
        );
    }

    // Ground truth from the primary participant, with every participant in
    // agreement — all of it reconstructed from the logs.
    let servers = db.cluster().servers();
    let mut actually_committed: Vec<(&TxnRecord, u64)> = Vec::new();
    for rec in &records {
        let ps = participants(&rec.writes);
        let primary = ps[0];
        let primary_outcome = servers[primary].store().outcome(rec.id);
        let actual_ts = match (&rec.reported, primary_outcome) {
            (Reported::Committed(ts), Some(TxnOutcome::Committed(actual))) => {
                assert_eq!(
                    actual, *ts,
                    "seed {seed}: txn {} recovered at a different timestamp than acknowledged",
                    rec.id
                );
                Some(*ts)
            }
            (Reported::Committed(ts), other) => panic!(
                "seed {seed}: txn {} was acknowledged at {ts} but after recovery \
                 the primary says {other:?}",
                rec.id
            ),
            (Reported::NotApplied, Some(TxnOutcome::Committed(ts))) => panic!(
                "seed {seed}: txn {} was reported not-applied but committed at {ts}",
                rec.id
            ),
            (Reported::NotApplied, _) => None,
            (Reported::Maybe, Some(TxnOutcome::Committed(ts))) => Some(ts),
            (Reported::Maybe, _) => None,
        };
        match actual_ts {
            Some(ts) => {
                for &p in &ps {
                    assert_eq!(
                        servers[p].store().outcome(rec.id),
                        Some(TxnOutcome::Committed(ts)),
                        "seed {seed}: participant {p} of txn {} disagrees with its primary \
                         after recovery",
                        rec.id
                    );
                }
                actually_committed.push((rec, ts));
            }
            None => {
                for &p in &ps {
                    assert!(
                        !matches!(
                            servers[p].store().outcome(rec.id),
                            Some(TxnOutcome::Committed(_))
                        ),
                        "seed {seed}: txn {} aborted at its primary but committed at {p}",
                        rec.id
                    );
                }
            }
        }
    }

    // No loss, no double-apply, no phantoms: each object's recovered version
    // chain equals, as a multiset, the writes of the transactions that
    // actually committed to it.
    let mut expected: HashMap<ObjectId, VersionHistory> = HashMap::new();
    for (rec, ts) in &actually_committed {
        for (k, v) in &rec.writes {
            expected.entry(*k).or_default().push((*ts, v.clone()));
        }
    }
    for &k in &keys {
        let store = servers[k.home_server(SERVERS)].store();
        let mut got: VersionHistory = store
            .dump_versions(k)
            .into_iter()
            .map(|(ts, v)| (ts, v.map(|b| b.to_vec())))
            .collect();
        got.sort();
        let mut want = expected.remove(&k).unwrap_or_default();
        want.sort();
        assert_eq!(
            got, want,
            "seed {seed}: recovered version chain of {k} diverges from the committed history"
        );
    }

    // Epilogue: a fresh reader sees the newest actually-committed write.
    let t = client.begin();
    for &k in &keys {
        let winner = actually_committed
            .iter()
            .flat_map(|(rec, ts)| {
                rec.writes
                    .iter()
                    .filter(|(o, _)| *o == k)
                    .map(move |(_, v)| (*ts, v.clone()))
            })
            .max_by_key(|(ts, _)| *ts);
        let visible = t.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(
            visible,
            winner.and_then(|(_, v)| v),
            "seed {seed}: final read of {k} is not the newest committed write"
        );
    }
    t.commit().unwrap();
}

#[test]
fn crash_recovery_seed_matrix() {
    // The CI recovery job pins RECOVERY_SEED to fan the matrix out across
    // jobs; locally all seeds run in sequence.
    let seeds = match std::env::var("RECOVERY_SEED") {
        Ok(seed) => vec![seed.parse().expect("RECOVERY_SEED must be a u64")],
        Err(_) => vec![11, 23, 47, 101, 907],
    };
    for seed in seeds {
        for transport in TRANSPORTS {
            recovery_case(seed, transport);
        }
    }
}
