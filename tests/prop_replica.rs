//! Seeded fault storms over a *replicated* distributed balanced tree.
//!
//! The tree warms up healthy: a read-hammered leaf is promoted to a
//! replica set (read-any/write-all) and a write-hammered leaf load-splits.
//! Then a deterministic storm (dropped requests and responses, duplicates,
//! transient errors, delays, one crash-looping server) batters the
//! transport while a single-threaded, model-checked mix of lookups and
//! updates keeps running through `run_txn`.
//!
//! The safety bar:
//!
//! * a replica read never observes an unpublished page: every mid-storm
//!   lookup of a tracked key returns a value some transaction actually
//!   wrote there (committed, or in-doubt at the time the client gave up),
//!   and never `None`, never a corruption error — the read-any path falls
//!   back to the primary rather than serving garbage;
//! * after healing and reaping, no prepared state survives, every replica
//!   listed by a page is byte-identical to its primary at one snapshot
//!   (no divergence), and a full scan agrees with the client-side model;
//! * the machinery actually engaged under fire: faults were injected, and
//!   the replica-read, promotion, load-split and cell-edit counters all
//!   moved.
//!
//! Half the storm's writes are cell edits ([`yesquel::Dbt::put_unread`]),
//! applied by the leaves' servers; the replicated leaf, which this client
//! knows to be replicated, takes the fetch path and writes every copy.
//!
//! All randomness flows from the per-case seed, so a failure reproduces.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rand::Rng;
use yesquel::common::encoding::order_encode_i64;
use yesquel::common::ids::ROOT_OID;
use yesquel::common::rand_util::seeded_rng;
use yesquel::common::{config::SplitMode, DbtConfig};
use yesquel::rpc::{FaultPlan, TransportKind};
use yesquel::ydbt::NodeView;
use yesquel::{KvConfig, KvDatabase, ObjectId, Yesquel, YesquelConfig};

const SERVERS: usize = 4;
const TREE: u64 = 1;
/// Keys loaded during the healthy warm-up; all storm writes update these.
const KEYS: u64 = 48;
/// The read-hammered range (one leaf): promoted to a replica set.
const HOT_READ: std::ops::Range<u64> = 0..4;
/// The write-hammered range (another leaf): load-split, never promoted.
const HOT_WRITE: std::ops::Range<u64> = 40..44;
const STORM_OPS: usize = 200;

fn key(i: u64) -> [u8; 8] {
    order_encode_i64(i as i64)
}

fn tree_cfg() -> DbtConfig {
    DbtConfig {
        leaf_max_cells: 8,
        split_mode: SplitMode::Delegated,
        load_splits: true,
        // High enough that warm-up inserts on the read-hot leaf (~8
        // writes) do not tip its first hot window into the write-heavy
        // (split) classification: 8 * 4 < 60.
        load_split_threshold: 60,
        replica_factor: 2,
        ..DbtConfig::default()
    }
}

fn storm_case(seed: u64) {
    let mut rng = seeded_rng(seed, 0);
    let mut cfg = YesquelConfig::with_servers(SERVERS);
    cfg.kv = KvConfig::impatient();
    cfg.dbt = tree_cfg();

    // Start healthy (the warm-up must establish the replica set
    // deterministically); the storm is switched on afterwards.
    let db = KvDatabase::with_faults(
        cfg,
        TransportKind::Direct,
        vec![FaultPlan::healthy(); SERVERS],
    );
    let y = Yesquel::open_db(db).expect("healthy bootstrap");
    let faults = Arc::clone(y.db().faults().unwrap());
    let client = y.db().client();
    let dbt = y.create_tree(TREE).unwrap();
    let stats = y.db().stats().clone();

    // Healthy warm-up: load the key space (size splits fan the tree out
    // over several leaves), then read-hammer one leaf until the load
    // tracker promotes it to a replica set.
    let mut admissible: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
    let txn = y.begin();
    for i in 0..KEYS {
        let v = format!("init-{i}").into_bytes();
        dbt.insert(&txn, &key(i), &v).unwrap();
        admissible.insert(i, vec![v]);
    }
    txn.commit().unwrap();
    y.engine().wait_for_splits();

    for round in 0..60 {
        let txn = y.begin();
        for i in HOT_READ {
            assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
        }
        txn.commit().unwrap();
        if round % 10 == 9 {
            y.engine().wait_for_splits();
            if stats.counter("dbt.replica_promotions").get() >= 1 {
                break;
            }
        }
    }
    y.engine().wait_for_splits();
    assert!(
        stats.counter("dbt.replica_promotions").get() >= 1,
        "seed {seed}: warm-up never promoted the read-hot leaf: {}",
        stats.render_counters()
    );

    // Storm on: every server weathers the same template (independent
    // schedules via seed mixing); one additionally crash-loops.
    let mut plans = vec![FaultPlan::storm(seed); SERVERS];
    let looper = rng.gen_range(0..SERVERS as u64) as usize;
    plans[looper].crash_after_requests = Some(rng.gen_range(40..80));
    plans[looper].restart_after_rejects = Some(rng.gen_range(4..12));
    for (s, plan) in plans.into_iter().enumerate() {
        faults.set_plan(s, plan);
    }

    // Single-threaded model-checked mix: reads of the replicated range
    // (the read-any path under fire), updates of the write-hot range
    // (write-all fan-out + load splits under fire), and random point
    // reads.  `run_txn` absorbs retryable failures; when it still gives
    // up on a write, the value may or may not have landed, so it joins
    // the key's admissible set instead of replacing it.
    for i in 0..STORM_OPS {
        match rng.gen_range(0..10u32) {
            0..=3 => {
                // Read the replicated range: must see exactly the
                // admissible values, never None, never corruption.
                let k = HOT_READ.start + rng.gen_range(0..HOT_READ.end - HOT_READ.start);
                if let Ok(got) = client.run_txn(|txn| dbt.lookup(txn, &key(k))) {
                    let got = got.unwrap_or_else(|| panic!("seed {seed}: storm read lost key {k}"));
                    assert!(
                        admissible[&k].contains(&got.to_vec()),
                        "seed {seed}: read of key {k} returned a value no \
                         transaction could have written: {got:?}"
                    );
                }
            }
            4..=7 => {
                // Update a key (write-hot range or anywhere): the value is
                // deterministic per op, so a retried-after-indeterminate
                // attempt rewrites the same bytes.
                let k = if rng.gen_range(0..2u32) == 0 {
                    HOT_WRITE.start + rng.gen_range(0..HOT_WRITE.end - HOT_WRITE.start)
                } else {
                    rng.gen_range(0..KEYS)
                };
                let v = format!("s{seed}-op{i}").into_bytes();
                // Half the writes are cell edits the leaf's server applies,
                // where the leaf may take one (not the replicated one).
                let unread = rng.gen_range(0..2u32) == 0;
                let write = |txn: &yesquel::Txn| match unread {
                    true => dbt.put_unread(txn, &key(k), &v),
                    false => dbt.insert(txn, &key(k), &v).map(drop),
                };
                match client.run_txn(write) {
                    Ok(()) => {
                        admissible.insert(k, vec![v]);
                    }
                    Err(_) => {
                        // In doubt: either the old or the new value stands.
                        admissible.get_mut(&k).unwrap().push(v);
                    }
                }
            }
            _ => {
                let k = rng.gen_range(0..KEYS);
                if let Ok(Some(got)) = client.run_txn(|txn| dbt.lookup(txn, &key(k))) {
                    assert!(
                        admissible[&k].contains(&got.to_vec()),
                        "seed {seed}: read of key {k} returned a value no \
                         transaction could have written: {got:?}"
                    );
                }
            }
        }
    }

    assert!(
        faults.faults_injected() > 0,
        "seed {seed}: the storm never injected anything"
    );

    // Heal, then let the prepare reaper and the maintenance worker
    // converge: no orphaned prepared locks may survive.
    faults.heal_all();
    y.engine().wait_for_splits();
    for _ in 0..100 {
        if y.db().prepared_total() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        y.db().reap_all();
    }
    assert_eq!(
        y.db().prepared_total(),
        0,
        "seed {seed}: orphaned prepared locks survived heal + reap"
    );

    // Post-heal traffic until the load-split counter has moved (a split
    // abandoned under the storm is simply re-requested by fresh heat).
    for _ in 0..50 {
        if stats.counter("dbt.load_splits").get() >= 1 {
            break;
        }
        for _ in 0..20 {
            for k in HOT_WRITE {
                client
                    .run_txn(|txn| dbt.insert(txn, &key(k), b"post-heal"))
                    .unwrap();
                admissible.insert(k, vec![b"post-heal".to_vec()]);
            }
        }
        y.engine().wait_for_splits();
    }

    // The machinery under test must actually have engaged.
    let promotions = stats.counter("dbt.replica_promotions").get();
    let replica_reads = stats.counter("dbt.replica_reads").get();
    let load_splits = stats.counter("dbt.load_splits").get();
    let cell_edits = stats.counter("dbt.cell_edits").get();
    eprintln!(
        "seed {seed}: faults={} promotions={promotions} replica_reads={replica_reads} \
         load_splits={load_splits} fanout_writes={} cell_edits={cell_edits} refusals={}",
        faults.faults_injected(),
        stats.counter("dbt.replica_fanout_writes").get(),
        stats.counter("dbt.cell_edit_refusals").get(),
    );
    assert!(cell_edits >= 1, "seed {seed}: no write went unread");
    assert!(
        promotions >= 1,
        "seed {seed}: no hot node was ever promoted"
    );
    assert!(
        replica_reads >= 1,
        "seed {seed}: read-any never served a read from a replica"
    );
    assert!(
        load_splits >= 1,
        "seed {seed}: the write-hot leaf never load-split"
    );

    // No divergence after heal + reap: walk the tree at one snapshot and
    // check every replica a page lists is byte-identical to its primary.
    let txn = y.begin();
    let mut queue = vec![ROOT_OID];
    let mut seen = std::collections::HashSet::new();
    let mut replicated_nodes = 0usize;
    while let Some(oid) = queue.pop() {
        if !seen.insert(oid) {
            continue;
        }
        let page = txn
            .get(ObjectId::new(TREE, oid))
            .unwrap()
            .unwrap_or_else(|| panic!("seed {seed}: node {oid} vanished"));
        let view = NodeView::parse(Bytes::from(page.to_vec())).unwrap();
        for roid in view.replicas() {
            replicated_nodes += 1;
            let copy = txn.get(ObjectId::new(TREE, roid)).unwrap();
            assert_eq!(
                copy.as_deref(),
                Some(&page[..]),
                "seed {seed}: replica {roid} of node {oid} diverged from its primary"
            );
        }
        if let NodeView::Inner(inner) = &view {
            for i in 0..inner.len() {
                queue.push(inner.child(i));
            }
        }
    }
    assert!(
        replicated_nodes >= 1,
        "seed {seed}: no page listed a replica after the run"
    );

    // The surviving data agrees with the model: every key scans back as
    // one of its admissible values.
    let mut scanned: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for row in dbt.scan(&txn, None, None).unwrap() {
        let (k, v) = row.unwrap();
        scanned.insert(k.to_vec(), v.to_vec());
    }
    assert_eq!(
        scanned.len(),
        KEYS as usize,
        "seed {seed}: scan lost or invented keys"
    );
    for (k, vals) in &admissible {
        let got = scanned
            .get(key(*k).as_slice())
            .unwrap_or_else(|| panic!("seed {seed}: key {k} missing from final scan"));
        assert!(
            vals.contains(got),
            "seed {seed}: final value of key {k} ({got:?}) matches no admissible write"
        );
    }
    txn.commit().unwrap();
}

#[test]
fn replica_storm_seed_matrix() {
    // CI pins CHAOS_SEED to fan seeds out across jobs; locally all run.
    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        storm_case(seed.parse().expect("CHAOS_SEED must be a u64"));
        return;
    }
    for seed in [17, 31, 59, 107, 919] {
        storm_case(seed);
    }
}
