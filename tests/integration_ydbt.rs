//! Integration tests of the distributed balanced tree through the facade:
//! growth under splits, scans, cache behaviour (single-fetch warm reads,
//! shared cache entries), stale-cache recovery, and the fallbacks of cell
//! edits that go unread.

use std::collections::BTreeMap;
use std::sync::Arc;

use yesquel::common::config::SplitMode;
use yesquel::common::encoding::order_encode_i64;
use yesquel::ydbt::NodeView;
use yesquel::{Dbt, DbtConfig, DbtEngine, ObjectId, Yesquel, YesquelConfig};

fn key(i: u64) -> [u8; 8] {
    order_encode_i64(i as i64)
}

fn small_tree_cfg() -> DbtConfig {
    DbtConfig {
        leaf_max_cells: 4,
        inner_max_children: 4,
        split_mode: SplitMode::Synchronous,
        load_splits: false,
        ..DbtConfig::default()
    }
}

#[test]
fn grows_scans_and_survives_cache_invalidation() {
    let mut cfg = YesquelConfig::with_servers(3);
    cfg.dbt = small_tree_cfg();
    let y = Yesquel::open_with(cfg);
    let dbt = y.create_tree(1).unwrap();
    let n = 300u64;

    let txn = y.begin();
    for i in 0..n {
        dbt.insert(&txn, &key(i), format!("v{i}").as_bytes())
            .unwrap();
    }
    txn.commit().unwrap();

    let txn = y.begin();
    assert!(
        dbt.height(&txn).unwrap() >= 2,
        "tree should have split into layers"
    );
    assert_eq!(dbt.count(&txn).unwrap(), n);

    // Scans return sorted keys (as zero-copy slices of the leaf pages).
    let keys: Vec<bytes::Bytes> = dbt
        .scan(&txn, None, None)
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    let mut expected: Vec<Vec<u8>> = (0..n).map(|i| key(i).to_vec()).collect();
    expected.sort();
    assert_eq!(keys, expected);

    // Dropping the cache must not affect correctness, only fetch counts.
    y.engine().invalidate_cache(dbt.tree_id());
    assert_eq!(y.engine().cached_nodes(), 0);
    for i in (0..n).step_by(17) {
        assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
    }
    txn.commit().unwrap();
}

#[test]
fn warm_point_reads_fetch_one_node() {
    let mut cfg = YesquelConfig::with_servers(4);
    cfg.dbt = DbtConfig {
        leaf_max_cells: 8,
        ..small_tree_cfg()
    };
    let y = Yesquel::open_with(cfg);
    let dbt = y.create_tree(1).unwrap();
    let n = 400u64;
    let txn = y.begin();
    for i in 0..n {
        dbt.insert(&txn, &key(i), b"v").unwrap();
    }
    txn.commit().unwrap();

    // Warm the cache.
    let txn = y.begin();
    for i in 0..n {
        dbt.lookup(&txn, &key(i)).unwrap();
    }
    txn.commit().unwrap();

    let stats = y.db().stats();
    let before = stats.counter("dbt.node_fetches").get();
    let lookups = 200u64;
    let txn = y.begin();
    for i in 0..lookups {
        assert!(dbt.lookup(&txn, &key(i * 2)).unwrap().is_some());
    }
    txn.commit().unwrap();
    let per_lookup = (stats.counter("dbt.node_fetches").get() - before) as f64 / lookups as f64;
    assert!(
        per_lookup < 1.6,
        "warm lookups should fetch ~1 node, got {per_lookup:.2}"
    );
}

#[test]
fn delete_and_reinsert_round_trips() {
    let y = Yesquel::open(2);
    let dbt = y.create_tree(9).unwrap();
    let txn = y.begin();
    for i in 0..50u64 {
        dbt.insert(&txn, &key(i), b"first").unwrap();
    }
    for i in (0..50u64).step_by(2) {
        assert!(dbt.delete(&txn, &key(i)).unwrap());
    }
    for i in (0..50u64).step_by(4) {
        dbt.insert(&txn, &key(i), b"second").unwrap();
    }
    txn.commit().unwrap();

    let txn = y.begin();
    for i in 0..50u64 {
        let got = dbt.lookup(&txn, &key(i)).unwrap();
        match (i % 4, i % 2) {
            (0, _) => assert_eq!(got.as_deref(), Some(&b"second"[..])),
            (_, 0) => assert_eq!(got, None),
            _ => assert_eq!(got.as_deref(), Some(&b"first"[..])),
        }
    }
    txn.commit().unwrap();
}

/// Small delegated-split leaves, with no load splits or promotions unless a
/// test asks for them.
fn edit_cfg() -> DbtConfig {
    DbtConfig {
        leaf_max_cells: 8,
        split_mode: SplitMode::Delegated,
        load_splits: false,
        replicate_hot_nodes: false,
        ..DbtConfig::default()
    }
}

/// A client engine over `y`'s deployment that splits in the writing
/// transaction, so the trees it writes are at rest when it returns.
fn splitting_client(y: &Yesquel) -> Arc<DbtEngine> {
    let cfg = DbtConfig {
        split_mode: SplitMode::Synchronous,
        ..edit_cfg()
    };
    DbtEngine::new(y.db().client(), cfg)
}

/// A deployment of 4 servers with tree 1 holding `keys`, no leaf over its
/// bound, and every key read once by the deployment's engine, so that it
/// has cached the inner nodes.
fn warm_tree(cfg: DbtConfig, keys: std::ops::Range<u64>) -> (Yesquel, Dbt) {
    let mut ycfg = YesquelConfig::with_servers(4);
    ycfg.dbt = cfg;
    let y = Yesquel::open_with(ycfg);
    let dbt = y.create_tree(1).unwrap();
    let loader = splitting_client(&y).tree(1);
    for i in keys.clone() {
        let client = y.db().client();
        client
            .run_txn(|txn| loader.insert(txn, &key(i), b"v"))
            .unwrap();
    }
    let txn = y.begin();
    for i in keys {
        assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
    }
    txn.commit().unwrap();
    (y, dbt)
}

/// The tree's entries at a fresh snapshot must be the model's.
fn assert_rows(y: &Yesquel, dbt: &Dbt, model: &BTreeMap<u64, Vec<u8>>) {
    let txn = y.begin();
    let rows: Vec<(Vec<u8>, Vec<u8>)> = (dbt.scan(&txn, None, None).unwrap())
        .map(|r| r.map(|(k, v)| (k.to_vec(), v.to_vec())).unwrap())
        .collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = (model.iter())
        .map(|(k, v)| (key(*k).to_vec(), v.clone()))
        .collect();
    assert_eq!(rows, want);
    txn.commit().unwrap();
}

/// Another client splits the leaf after this one cached its parent: the
/// edit goes to the leaf the stale parent names, whose fences no longer
/// hold the key.  Its participant refuses it, once, and the statement's
/// retry fetches the leaf, backs down and writes the right one.
#[test]
fn a_stale_route_is_refused_once_and_retried_through_the_fetch_path() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..20);
    let mut model: BTreeMap<u64, Vec<u8>> = (0..20).map(|i| (i, b"v".to_vec())).collect();
    let stats = y.db().stats();
    let refusals = stats.counter("dbt.cell_edit_refusals");

    // Client B fills the rightmost leaf past its bound, many times over.
    let b = splitting_client(&y).tree(1);
    for i in 100..140 {
        let client = y.db().client();
        client.run_txn(|txn| b.insert(txn, &key(i), b"b")).unwrap();
        model.insert(i, b"b".to_vec());
    }

    // This client's cached root still routes key 120 to the old rightmost
    // leaf.
    let before = refusals.get();
    let client = y.db().client();
    client
        .run_txn(|txn| dbt.put_unread(txn, &key(120), b"a"))
        .unwrap();
    model.insert(120, b"a".to_vec());
    assert_eq!(refusals.get() - before, 1, "{}", stats.render_counters());
    client
        .run_txn(|txn| dbt.remove_unread(txn, &key(121)))
        .unwrap();
    model.remove(&121);
    assert_eq!(
        refusals.get() - before,
        1,
        "the retry's fetch warmed the cache"
    );
    assert_rows(&y, &dbt, &model);
}

/// Another client promoted a leaf to a replica set that this client's
/// `ReplicaMap` does not list.  The participant refuses the edit, since every
/// copy must be written, and the retry's fetch learns the set and writes
/// every copy.
#[test]
fn a_leaf_promoted_by_another_client_is_refused_and_every_copy_written() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..32);
    let mut model: BTreeMap<u64, Vec<u8>> = (0..32).map(|i| (i, b"v".to_vec())).collect();
    let stats = y.db().stats();
    let refusals = stats.counter("dbt.cell_edit_refusals");

    // Client B read-hammers the first leaf until it promotes it.
    let promoting = DbtConfig {
        replicate_hot_nodes: true,
        replica_factor: 2,
        load_split_threshold: 20,
        ..edit_cfg()
    };
    let other = DbtEngine::new(y.db().client(), promoting);
    let b = other.tree(1);
    for _ in 0..60 {
        let txn = y.begin();
        for i in 0..2 {
            assert!(b.lookup(&txn, &key(i)).unwrap().is_some());
        }
        txn.commit().unwrap();
        other.wait_for_splits();
        if stats.counter("dbt.replica_promotions").get() > 0 {
            break;
        }
    }
    assert_eq!(stats.counter("dbt.replica_promotions").get(), 1);
    let before = refusals.get();
    let client = y.db().client();
    client
        .run_txn(|txn| dbt.put_unread(txn, &key(1), b"a"))
        .unwrap();
    model.insert(1, b"a".to_vec());
    assert_eq!(refusals.get() - before, 1, "{}", stats.render_counters());
    assert_rows(&y, &dbt, &model);

    // The leaf and each of its copies are one page.
    let txn = y.begin();
    let root = txn.get(ObjectId::new(1, 0)).unwrap().unwrap();
    let NodeView::Inner(root) = NodeView::parse(root).unwrap() else {
        panic!("the tree should have split");
    };
    let leaf = ObjectId::new(1, root.child_for(&key(1)).unwrap());
    let page = txn.get(leaf).unwrap().unwrap();
    let replicas = NodeView::parse(page.clone()).unwrap().replicas();
    assert_eq!(replicas.len(), 2);
    for r in replicas {
        assert_eq!(txn.get(ObjectId::new(1, r)).unwrap(), Some(page.clone()));
    }
    txn.commit().unwrap();
}

/// An edit that takes a leaf past its bound is applied, not refused, and
/// the participant's vote names the leaf, so the client asks for the split
/// a fetched insert would have asked for.
#[test]
fn an_edit_that_fills_a_leaf_is_applied_and_its_split_requested() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..8);
    let stats = y.db().stats();
    let txn = y.begin();
    assert_eq!(dbt.height(&txn).unwrap(), 0, "one leaf, at its bound");
    txn.commit().unwrap();
    let (refusals, requests) = (
        stats.counter("dbt.cell_edit_refusals"),
        stats.counter("dbt.split_requests"),
    );
    let (refused, requested) = (refusals.get(), requests.get());
    let edits = stats.counter("dbt.cell_edits").get();

    let client = y.db().client();
    client
        .run_txn(|txn| dbt.put_unread(txn, &key(8), b"v"))
        .unwrap();
    assert_eq!(stats.counter("dbt.cell_edits").get() - edits, 1);
    assert_eq!(refusals.get(), refused);
    assert_eq!(requests.get() - requested, 1);
    y.engine().wait_for_splits();

    let txn = y.begin();
    assert_eq!(dbt.height(&txn).unwrap(), 1, "the full leaf was split");
    txn.commit().unwrap();
    let model: BTreeMap<u64, Vec<u8>> = (0..9).map(|i| (i, b"v".to_vec())).collect();
    assert_rows(&y, &dbt, &model);
}

/// A transaction that reads a leaf it edited unread sees the snapshot's
/// version with its edits applied, and its commit writes that page.
#[test]
fn a_transaction_reads_its_own_cell_edits() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..4);
    let gets = y.db().stats().counter("kv.get_rpcs");
    let txn = y.begin();
    let before = gets.get();
    dbt.remove_unread(&txn, &key(1)).unwrap();
    dbt.put_unread(&txn, &key(9), b"new").unwrap();
    assert_eq!(gets.get(), before, "an unread edit fetches nothing");
    assert_eq!(dbt.lookup(&txn, &key(1)).unwrap(), None);
    assert_eq!(
        dbt.lookup(&txn, &key(9)).unwrap().as_deref(),
        Some(&b"new"[..])
    );
    assert_eq!(dbt.count(&txn).unwrap(), 4);
    txn.commit().unwrap();
    let model: BTreeMap<u64, Vec<u8>> = [(0, b"v".to_vec()), (2, b"v".to_vec())]
        .into_iter()
        .chain([(3, b"v".to_vec()), (9, b"new".to_vec())])
        .collect();
    assert_rows(&y, &dbt, &model);
}

/// A refusal ends one transaction, not the next: a client whose cache holds
/// no inner node edits a tree's root, which is inner, and its explicit
/// transaction is refused at commit; the application's next transaction
/// fetches the root, which warms the cache, and commits.
#[test]
fn a_transaction_after_a_refusal_fetches_the_leaf() {
    let (y, _) = warm_tree(edit_cfg(), 0..32);
    let refusals = y.db().stats().counter("dbt.cell_edit_refusals");
    let cold = DbtEngine::new(y.db().client(), edit_cfg()).tree(1);

    let txn = y.begin();
    cold.put_unread(&txn, &key(40), b"a").unwrap();
    let refused = txn.commit().unwrap_err();
    assert!(
        matches!(refused, yesquel::Error::EditRefused { obj, .. } if obj == ObjectId::new(1, 0)),
        "{refused:?}"
    );
    assert!(refused.is_retryable());
    assert_eq!(refusals.get(), 1);

    let txn = y.begin();
    assert!(
        !cold.edits_unread(&txn, &key(40)),
        "the root is fetched now"
    );
    cold.put_unread(&txn, &key(40), b"a").unwrap();
    txn.commit().unwrap();
    let txn = y.begin();
    assert!(
        cold.edits_unread(&txn, &key(41)),
        "the fetch warmed the cache"
    );
    cold.put_unread(&txn, &key(41), b"b").unwrap();
    txn.commit().unwrap();
    assert_eq!(refusals.get(), 1);

    let mut model: BTreeMap<u64, Vec<u8>> = (0..32).map(|i| (i, b"v".to_vec())).collect();
    model.insert(40, b"a".to_vec());
    model.insert(41, b"b".to_vec());
    assert_rows(&y, &cold, &model);
}

/// A read of a leaf whose edits its participant would refuse fails as the
/// commit would, and the edits stay buffered: a commit after the failed
/// read is refused too, and writes nothing.
#[test]
fn a_read_that_would_refuse_an_edit_fails_and_the_commit_with_it() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..32);
    let refusals = y.db().stats().counter("dbt.cell_edit_refusals");
    let cold = DbtEngine::new(y.db().client(), edit_cfg()).tree(1);
    let txn = y.begin();
    cold.put_unread(&txn, &key(40), b"a").unwrap();
    let read = cold.lookup(&txn, &key(40)).unwrap_err();
    assert!(
        matches!(read, yesquel::Error::EditRefused { .. }),
        "{read:?}"
    );
    assert_eq!(refusals.get(), 1, "the read's refusal is counted");
    let commit = txn.commit().unwrap_err();
    assert!(
        matches!(commit, yesquel::Error::EditRefused { .. }),
        "{commit:?}"
    );
    assert_eq!(refusals.get(), 2, "and so is the commit's");
    let model: BTreeMap<u64, Vec<u8>> = (0..32).map(|i| (i, b"v".to_vec())).collect();
    assert_rows(&y, &dbt, &model);
}

/// A read of a leaf with a buffered put-if-absent of a key the leaf holds
/// fails as the commit would, with `KeyPresent`, and the edit stays
/// buffered: the commit fails too, writes nothing, and neither counts as a
/// refusal.  A put-if-absent of an absent key reads back as put.
#[test]
fn a_read_of_a_present_put_if_absent_fails_and_the_commit_with_it() {
    let (y, dbt) = warm_tree(edit_cfg(), 0..32);
    let stats = y.db().stats();
    let (refusals, gets) = (
        stats.counter("dbt.cell_edit_refusals"),
        stats.counter("kv.get_rpcs"),
    );
    let txn = y.begin();
    let before = gets.get();
    assert!(dbt.insert_if_absent_unread(&txn, &key(40), b"a").unwrap());
    assert!(dbt.insert_if_absent_unread(&txn, &key(5), b"a").unwrap());
    assert!(
        !dbt.insert_if_absent_unread(&txn, &key(40), b"b").unwrap(),
        "the transaction put key 40 itself"
    );
    assert_eq!(
        gets.get(),
        before,
        "an unread put-if-absent fetches nothing"
    );
    assert_eq!(
        dbt.lookup(&txn, &key(40)).unwrap().as_deref(),
        Some(&b"a"[..])
    );
    let read = dbt.lookup(&txn, &key(5)).unwrap_err();
    assert!(
        matches!(&read, yesquel::Error::KeyPresent { key: k, .. } if k[..] == key(5)),
        "{read:?}"
    );
    assert!(!read.is_retryable());
    let commit = txn.commit().unwrap_err();
    assert!(
        matches!(&commit, yesquel::Error::KeyPresent { key: k, .. } if k[..] == key(5)),
        "{commit:?}"
    );
    assert_eq!(refusals.get(), 0);
    let model: BTreeMap<u64, Vec<u8>> = (0..32).map(|i| (i, b"v".to_vec())).collect();
    assert_rows(&y, &dbt, &model);
}

/// The number of cells of every leaf of tree 1, read at a fresh snapshot.
fn leaf_sizes(y: &Yesquel) -> Vec<usize> {
    let txn = y.begin();
    let (mut sizes, mut todo) = (Vec::new(), vec![0]);
    while let Some(oid) = todo.pop() {
        let page = txn.get(ObjectId::new(1, oid)).unwrap().unwrap();
        match NodeView::parse(page).unwrap() {
            NodeView::Leaf(leaf) => sizes.push(leaf.len()),
            NodeView::Inner(inner) => todo.extend(inner.children()),
        }
    }
    txn.commit().unwrap();
    sizes
}

/// Inserts that go unread grow a leaf past its bound before the split it
/// asked for runs.  A split that leaves a half still over the bound asks
/// for that half's split, so once the splitter is idle every leaf is
/// within its bound, with no later write to ask again.
#[test]
fn a_split_that_leaves_a_half_over_its_bound_splits_it_too() {
    let mut ycfg = YesquelConfig::with_servers(4);
    ycfg.dbt = edit_cfg();
    let y = Yesquel::open_with(ycfg);
    let dbt = y.create_tree(1).unwrap();
    for i in 0..32 {
        let client = y.db().client();
        client
            .run_txn(|txn| dbt.put_unread(txn, &key(i), b"v"))
            .unwrap();
    }
    y.engine().wait_for_splits();
    let sizes = leaf_sizes(&y);
    assert!(
        sizes.iter().all(|&n| n <= 8),
        "leaf sizes {sizes:?}\n{}",
        y.db().stats().render_counters()
    );
    assert_eq!(sizes.iter().sum::<usize>(), 32);
    let model: BTreeMap<u64, Vec<u8>> = (0..32).map(|i| (i, b"v".to_vec())).collect();
    assert_rows(&y, &dbt, &model);
}
