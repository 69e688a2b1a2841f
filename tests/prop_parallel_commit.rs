//! Seeded chaos test of concurrent 2PC: four client threads run concurrent
//! multi-server write transactions while a deterministic fault storm
//! (dropped requests and responses, duplicates, transient errors, delays,
//! one crash-looping server) batters the transport.  Every prepare round is
//! submitted whole before it is waited for, and every secondary's decision
//! is submitted and not waited for.  Each seed runs over both transports:
//! direct calls, and per-server worker threads resolving completions over a
//! slept network (50 µs one way, as the `net_mixed` benchmark deploys), so
//! that a thread's next transaction starts while its last one's decisions
//! are still in flight.
//!
//! The safety bar is the same as `prop_chaos_commit`, now under real
//! concurrency:
//!
//! * committed-iff-acknowledged — a commit reported to any client thread
//!   is `Committed` at every participant; a reported abort is applied
//!   nowhere; an in-doubt result resolves to whatever the primary decided,
//!   and all participants agree;
//! * no write is double-applied: each object's version chain equals, as a
//!   multiset, the writes of the transactions that actually committed it;
//! * after healing, the reaper clears every orphaned prepare.
//!
//! The test also asserts the machinery actually engaged: two-phase commits
//! happened on every transport.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use yesquel::common::rand_util::seeded_rng;
use yesquel::kv::store::TxnOutcome;
use yesquel::rpc::{FaultPlan, TransportKind};
use yesquel::{Error, KvConfig, KvDatabase, NetConfig, ObjectId, YesquelConfig};

const SERVERS: usize = 4;
const KEYS: usize = 24;
const THREADS: usize = 4;
const TXNS_PER_THREAD: usize = 60;

/// What one client thread was told about one of its transactions.
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
    writes: Vec<(ObjectId, Vec<u8>)>,
    reported: Reported,
}

fn key_pool() -> Vec<ObjectId> {
    (0..KEYS as u64).map(|o| ObjectId::new(1, o)).collect()
}

fn participants(writes: &[(ObjectId, Vec<u8>)]) -> Vec<usize> {
    let mut ps: Vec<usize> = writes.iter().map(|(o, _)| o.home_server(SERVERS)).collect();
    ps.sort_unstable();
    ps.dedup();
    ps
}

/// The transports every seed runs over.
const TRANSPORTS: [TransportKind; 2] = [
    TransportKind::Direct,
    TransportKind::Threaded {
        workers_per_server: 2,
    },
];

fn storm_case(seed: u64, transport: TransportKind) {
    let mut rng = seeded_rng(seed, 0);
    let mut cfg = YesquelConfig::with_servers(SERVERS);
    cfg.kv = KvConfig::impatient();
    if matches!(transport, TransportKind::Threaded { .. }) {
        cfg.net = NetConfig {
            one_way_latency_us: 50,
            sleep_latency: true,
            ..NetConfig::default()
        };
    }

    let mut plans = vec![FaultPlan::storm(seed); SERVERS];
    let looper = rng.gen_range(0..SERVERS as u64) as usize;
    plans[looper].crash_after_requests = Some(rng.gen_range(40..80));
    plans[looper].restart_after_rejects = Some(rng.gen_range(4..12));

    let db = KvDatabase::with_faults(cfg, transport, plans);
    let faults = Arc::clone(db.faults().unwrap());
    let keys = key_pool();

    // Four threads, each running its own seeded stream of mostly
    // multi-server write transactions through its own client clone.
    let records: Vec<TxnRecord> = std::thread::scope(|scope| {
        let keys = &keys;
        let db = &db;
        (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let client = db.client();
                    let mut rng = seeded_rng(seed, 1 + t as u64);
                    let mut recs = Vec::new();
                    for i in 0..TXNS_PER_THREAD {
                        // 2-4 keys drawn across the whole pool: with 4
                        // servers nearly every transaction spans several
                        // participants, forcing a prepare round.
                        let n = rng.gen_range(2..=4u64) as usize;
                        let mut dedup: HashMap<ObjectId, Vec<u8>> = HashMap::new();
                        for j in 0..n {
                            let k = keys[rng.gen_range(0..KEYS as u64) as usize];
                            dedup.insert(k, format!("s{seed}-th{t}-i{i}-{j}").into_bytes());
                        }
                        let writes: Vec<_> = dedup.into_iter().collect();

                        let txn = client.begin();
                        let mut write_failed = false;
                        for (k, v) in &writes {
                            if txn.put(*k, v.clone()).is_err() {
                                write_failed = true;
                                break;
                            }
                        }
                        if write_failed {
                            txn.abort();
                            continue;
                        }
                        let id = txn.id();
                        let reported = match txn.commit() {
                            Ok(ts) => Reported::Committed(ts),
                            Err(Error::Conflict(_)) | Err(Error::Unavailable(_)) => {
                                Reported::NotApplied
                            }
                            Err(Error::Indeterminate(_)) | Err(Error::Timeout(_)) => {
                                Reported::Maybe
                            }
                            Err(e) => panic!("seed {seed}: unexpected commit error: {e:?}"),
                        };
                        recs.push(TxnRecord {
                            id,
                            writes,
                            reported,
                        });
                    }
                    recs
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("storm thread panicked"))
            .collect()
    });

    assert!(
        faults.faults_injected() > 0,
        "seed {seed}: the storm never injected anything"
    );
    // The machinery under test must actually have engaged.
    let two_phase = db.stats().counter("kv.commit_2pc").get();
    assert!(
        two_phase > 0,
        "seed {seed} {transport:?}: no commit took two phases"
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
            "seed {seed} {transport:?}: ok={ok} notapplied={na} maybe={mb} faults={} two_phase={two_phase}",
            faults.faults_injected(),
        );
    }

    // Heal and let the reaper — and the decisions still in flight —
    // converge every in-doubt prepare.
    faults.heal_all();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.prepared_total() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        db.reap_all();
    }
    assert_eq!(
        db.prepared_total(),
        0,
        "seed {seed}: orphaned prepared locks survived heal + reap"
    );

    // Ground truth per transaction from the primary's outcome table.
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
                    "seed {seed}: txn {} committed at a different timestamp than reported",
                    rec.id
                );
                Some(*ts)
            }
            (Reported::Committed(ts), other) => panic!(
                "seed {seed}: txn {} reported committed at {ts} but primary says {other:?}",
                rec.id
            ),
            (Reported::NotApplied, Some(TxnOutcome::Committed(ts))) => panic!(
                "seed {seed}: txn {} reported aborted but committed at {ts}",
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
                        "seed {seed}: participant {p} of txn {} disagrees with its primary",
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

    // No double-apply, nothing lost: each object's version chain equals,
    // as a multiset, the writes of the transactions that committed it.
    let mut expected: HashMap<ObjectId, Vec<(u64, Vec<u8>)>> = HashMap::new();
    for (rec, ts) in &actually_committed {
        for (k, v) in &rec.writes {
            expected.entry(*k).or_default().push((*ts, v.clone()));
        }
    }
    for &k in &keys {
        let store = servers[k.home_server(SERVERS)].store();
        let mut got: Vec<(u64, Vec<u8>)> = store
            .dump_versions(k)
            .into_iter()
            .map(|(ts, v)| (ts, v.expect("storm writes no tombstones").to_vec()))
            .collect();
        got.sort();
        let mut want = expected.remove(&k).unwrap_or_default();
        want.sort();
        assert_eq!(
            got, want,
            "seed {seed}: version chain of {k} diverges from the committed history"
        );
    }

    // Epilogue: a fresh reader sees the newest actually-committed write.
    let client = db.client();
    let txn = client.begin();
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
        let visible = txn.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(
            visible,
            winner.map(|(_, v)| v),
            "seed {seed}: final read of {k} is not the newest committed write"
        );
    }
    txn.commit().unwrap();
}

#[test]
fn parallel_commit_seed_matrix() {
    // CI pins CHAOS_SEED to fan seeds out across jobs; locally all run.
    let seeds = match std::env::var("CHAOS_SEED") {
        Ok(seed) => vec![seed.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![13, 29, 53, 103, 911],
    };
    for seed in seeds {
        for transport in TRANSPORTS {
            storm_case(seed, transport);
        }
    }
}
