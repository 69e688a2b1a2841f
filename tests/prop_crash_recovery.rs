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
//! * every commit acknowledged to the client survives every restart — a
//!   restarted participant still has it committed, or still prepared with
//!   its vote, until resolution installs it at the reported timestamp; all
//!   participants agree, and the version chains contain exactly the
//!   acknowledged writes (no loss, no double-apply, no phantoms);
//! * every transaction reported cleanly as not-applied committed nowhere;
//! * in-doubt transactions resolve to exactly one fate, decided by the
//!   participants' votes, even when the votes were themselves recovered
//!   from the logs.
//!
//! A second storm checks the commit point itself: transactions prepared as
//! the coordinator prepares them, acknowledged once every vote is in, whose
//! every `Commit` is lost, on participants restarted with no memory.
//!
//! Each seed runs over two deployments: direct calls, and per-server worker
//! threads (two per server) over a slept network of 50 µs one way.  On the
//! second, prepares answered by the logs' flushers, `Commit`s still landing
//! after their commit returned, and amnesia restarts that must wait for
//! both meet in one run.
//!
//! All randomness flows from the per-case seed, so a failure reproduces.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use yesquel::common::rand_util::seeded_rng;
use yesquel::common::tempdir::TempDir;
use yesquel::common::WalFsyncPolicy;
use yesquel::kv::protocol::{KvRequest, KvResponse, WriteOp};
use yesquel::kv::store::TxnOutcome;
use yesquel::rpc::{FaultPlan, Transport, TransportKind};
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
    /// Timeout / indeterminate: the participants' records decide.
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

/// After a restart of `server`, every commit previously acknowledged that
/// `server` took part in is still committed there at the acknowledged
/// timestamp, or still prepared: its vote was durable before the ack, so
/// amnesia cannot erase it, and resolution installs the commit.
fn assert_acks_survived(db: &KvDatabase, records: &[TxnRecord], server: usize, seed: u64) {
    let store = db.cluster().servers()[server].store();
    for rec in records {
        if let Reported::Committed(ts) = rec.reported {
            if !participants(&rec.writes).contains(&server) {
                continue;
            }
            assert!(
                store.outcome(rec.id) == Some(TxnOutcome::Committed(ts))
                    || store.is_prepared(rec.id),
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

/// The deployment both storms run: logging servers (group commit) with
/// impatient leases, over `transport` — on a slept network when threaded.
fn logged(transport: TransportKind, tmp: &TempDir) -> YesquelConfig {
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
    cfg
}

fn recovery_case(seed: u64, transport: TransportKind) {
    let mut rng = seeded_rng(seed, 1);
    let tmp = TempDir::new("yesquel-crash-recovery").unwrap();
    let cfg = logged(transport, &tmp);

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

    // Ground truth from the participants, every one of them in agreement —
    // all of it reconstructed from the logs.
    let servers = db.cluster().servers();
    let mut actually_committed: Vec<(&TxnRecord, u64)> = Vec::new();
    for rec in &records {
        let ps = participants(&rec.writes);
        // Committed at any participant means committed: every one of
        // them voted yes, and the rest install the same timestamp.
        let committed = ps
            .iter()
            .find_map(|&p| match servers[p].store().outcome(rec.id) {
                Some(TxnOutcome::Committed(ts)) => Some(ts),
                _ => None,
            });
        let actual_ts = match (&rec.reported, committed) {
            (Reported::Committed(ts), Some(actual)) => {
                assert_eq!(
                    actual, *ts,
                    "seed {seed}: txn {} committed at a different timestamp than reported",
                    rec.id
                );
                Some(*ts)
            }
            (Reported::Committed(ts), None) => panic!(
                "seed {seed}: txn {} reported committed at {ts} but committed nowhere",
                rec.id
            ),
            (Reported::NotApplied, Some(ts)) => panic!(
                "seed {seed}: txn {} reported not applied but committed at {ts}",
                rec.id
            ),
            (Reported::NotApplied, None) => None,
            (Reported::Maybe, committed) => committed,
        };
        match actual_ts {
            Some(ts) => {
                for &p in &ps {
                    assert_eq!(
                        servers[p].store().outcome(rec.id),
                        Some(TxnOutcome::Committed(ts)),
                        "seed {seed}: participant {p} of txn {} disagrees with the others \
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
                        "seed {seed}: txn {} committed nowhere else but at {p}",
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

/// How many transactions the lost-commit storm prepares.
const LOST_TXNS: u64 = 60;

/// The prepare round is the commit point: a coordinator that dies right
/// after the last vote is acknowledged has committed.  This storm prepares
/// each transaction at two to four participants in one round, as the
/// client's coordinator does, and counts it acknowledged, at the largest
/// prepare timestamp, once every participant has voted yes; one in five
/// reuses a key of the transaction before it, whose lock refuses it.  Every
/// `Commit` — and every abort — is then lost: none is sent.  Participants
/// are restarted with no memory along the way, and the whole cluster at
/// the end.  After `reap`, every acknowledged transaction is installed at
/// its acknowledged timestamp on every participant, a refused one
/// nowhere, and nothing stays prepared.
fn lost_commits_case(seed: u64, transport: TransportKind) {
    let mut rng = seeded_rng(seed, 2);
    let tmp = TempDir::new("yesquel-lost-commits").unwrap();
    let plans = vec![
        FaultPlan {
            amnesia: true,
            ..FaultPlan::healthy()
        };
        SERVERS
    ];
    let db = KvDatabase::with_faults(logged(transport, &tmp), transport, plans);
    let faults = Arc::clone(db.faults().unwrap());
    let mut voted = Vec::new();
    let mut last: Vec<ObjectId> = Vec::new();
    for i in 0..LOST_TXNS {
        let mut by_server: BTreeMap<usize, Vec<WriteOp>> = BTreeMap::new();
        let n = rng.gen_range(2..=4u64);
        for j in 0..n {
            let obj = match last.first() {
                Some(&reused) if j == 0 && rng.gen_bool(0.2) => reused,
                _ => ObjectId::new(2, 4 * i + j),
            };
            let value = format!("s{seed}-t{i}-{j}").into_bytes();
            by_server
                .entry(obj.home_server(SERVERS))
                .or_default()
                .push(WriteOp {
                    obj,
                    value: Some(value.into()),
                });
        }
        if by_server.len() < 2 {
            continue;
        }
        let (txn, start_ts) = (0x5_0000 + i, db.oracle().next_timestamp());
        let participants: Vec<usize> = by_server.keys().copied().collect();
        let writes: Vec<WriteOp> = by_server.values().flatten().cloned().collect();
        last = writes.iter().map(|w| w.obj).collect();
        let round: Vec<_> = by_server
            .into_iter()
            .map(|(server, writes)| {
                let prepare = KvRequest::Prepare {
                    txn,
                    start_ts,
                    writes,
                    participants: participants.clone(),
                    lease_us: db.config().kv.prepare_lease_us,
                };
                faults.submit(server, prepare)
            })
            .collect();
        let votes: Option<Vec<u64>> = round
            .into_iter()
            .map(|vote| match vote.wait() {
                Ok(KvResponse::Prepared { prepare_ts }) => Some(prepare_ts),
                _ => None,
            })
            .collect();
        let acked = votes.map(|votes| votes.into_iter().max().expect("two votes"));
        voted.push((txn, participants, writes, acked));
        if i % 8 == 7 {
            let victim = rng.gen_range(0..SERVERS as u64) as usize;
            faults.crash(victim);
            faults.restart(victim);
        }
    }
    for server in 0..SERVERS {
        faults.crash(server);
        faults.restart(server);
    }
    db.reap_all();
    assert_eq!(
        db.prepared_total(),
        0,
        "seed {seed} {transport:?}: votes left undecided after reap"
    );

    let servers = db.cluster().servers();
    let mut acked = 0;
    for (txn, participants, writes, commit_ts) in &voted {
        for &p in participants {
            let outcome = servers[p].store().outcome(*txn);
            match commit_ts {
                Some(ts) => assert_eq!(
                    outcome,
                    Some(TxnOutcome::Committed(*ts)),
                    "seed {seed} {transport:?}: acknowledged txn {txn} at participant {p}"
                ),
                None => assert_ne!(
                    outcome.map(|o| o == TxnOutcome::Aborted),
                    Some(false),
                    "seed {seed} {transport:?}: refused txn {txn} committed at {p}"
                ),
            }
        }
        for w in writes {
            let versions = servers[w.obj.home_server(SERVERS)]
                .store()
                .dump_versions(w.obj);
            let installed = versions
                .iter()
                .any(|(ts, v)| Some(*ts) == *commit_ts && *v == w.value);
            assert_eq!(
                installed,
                commit_ts.is_some(),
                "seed {seed} {transport:?}: txn {txn} at {}",
                w.obj
            );
        }
        acked += commit_ts.is_some() as usize;
    }
    assert!(
        acked > 0,
        "seed {seed} {transport:?}: nothing was acknowledged"
    );
    eprintln!(
        "seed {seed} {transport:?}: lost commits: acknowledged={acked} refused={}",
        voted.len() - acked
    );
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
            lost_commits_case(seed, transport);
        }
    }
}
