//! The DBT engine: per-client state shared by all trees the client uses.
//!
//! In the paper's architecture every client process links the storage-engine
//! library; the engine here is that library's state: the key-value client,
//! the cache of inner nodes, the load tracker, the node-id allocator, the
//! client's map of known replica sets, and (when splits are delegated or
//! hot-node replication is enabled) the background maintenance task.

use std::collections::HashSet;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use yesquel_common::config::SplitMode;
use yesquel_common::ids::ROOT_OID;
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::{DbtConfig, Error, ObjectId, Oid, Result, TreeId};
use yesquel_kv::txn::{LeafReport, OnReport};
use yesquel_kv::KvClient;

use crate::alloc::OidAllocator;
use crate::cache::NodeCache;
use crate::load::LoadTracker;
use crate::node::{LeafView, NodeView};
use crate::replica::{PlacementTracker, ReplicaMap};
use crate::split::{MaintRequest, SplitContext, SplitReason, SplitRequest, Splitter};
use crate::tree::Dbt;

/// Counters bumped on the per-operation hot paths, resolved from the
/// registry **once** at engine construction.  Resolving a counter by name
/// takes the registry mutex and walks a `BTreeMap`; doing that four times
/// per microsecond-scale point read is measurable, so the hot paths bump
/// these pre-resolved handles (a relaxed atomic add) instead.
pub(crate) struct HotCounters {
    pub(crate) lookups: Arc<Counter>,
    pub(crate) inserts: Arc<Counter>,
    pub(crate) deletes: Arc<Counter>,
    pub(crate) scans: Arc<Counter>,
    pub(crate) node_fetches: Arc<Counter>,
    pub(crate) search_restarts: Arc<Counter>,
    pub(crate) back_downs: Arc<Counter>,
    pub(crate) scan_leaf_fetches: Arc<Counter>,
    /// Reads served by a replica instead of the primary (read-any hits).
    pub(crate) replica_reads: Arc<Counter>,
    /// Node writes that fanned out to a replica set (write-all).
    pub(crate) replica_fanout_writes: Arc<Counter>,
    /// Node fetches per root-to-leaf descent (recorded only while
    /// `Obs::timing_on`; cache hits make the common warm value 1).
    pub(crate) descent_fetches: Arc<Histogram>,
}

impl HotCounters {
    fn new(stats: &StatsRegistry) -> Self {
        HotCounters {
            lookups: stats.counter("dbt.lookups"),
            inserts: stats.counter("dbt.inserts"),
            deletes: stats.counter("dbt.deletes"),
            scans: stats.counter("dbt.scans"),
            node_fetches: stats.counter("dbt.node_fetches"),
            search_restarts: stats.counter("dbt.search_restarts"),
            back_downs: stats.counter("dbt.back_downs"),
            scan_leaf_fetches: stats.counter("dbt.scan_leaf_fetches"),
            replica_reads: stats.counter("dbt.replica_reads"),
            replica_fanout_writes: stats.counter("dbt.replica_fanout_writes"),
            descent_fetches: stats.histogram("dbt.descent_fetches"),
        }
    }
}

/// Per-client DBT engine.  Create one per client process (or one per test)
/// and open any number of trees through it.
pub struct DbtEngine {
    kv: KvClient,
    cfg: DbtConfig,
    cache: Arc<NodeCache>,
    load: Arc<LoadTracker>,
    alloc: OidAllocator,
    stats: StatsRegistry,
    counters: HotCounters,
    replicas: Arc<ReplicaMap>,
    placement: Arc<PlacementTracker>,
    /// Background maintenance worker (delegated splits and replica
    /// promotions); absent when neither feature needs it.
    splitter: Option<Splitter>,
    /// Resolved once: replication needs opt-in, a factor, and more than one
    /// server to replicate onto.
    replication_on: bool,
    /// What a participant's report on this client's cell edits of a leaf
    /// does: a full leaf is split, a refused one is noted in `refused`.
    on_report: OnReport,
    /// Leaves whose cell edits a participant refused: they take the fetch
    /// path until it writes them (see `Dbt::edits_unread`).
    refused: Mutex<HashSet<ObjectId>>,
}

impl DbtEngine {
    /// Creates an engine over an existing key-value client.
    pub fn new(kv: KvClient, cfg: DbtConfig) -> Arc<DbtEngine> {
        let stats = kv.stats().clone();
        let cache = Arc::new(NodeCache::new(stats.clone()));
        let load = Arc::new(LoadTracker::new(cfg.load_split_threshold));
        let alloc = OidAllocator::new(kv.clone());
        let replicas = Arc::new(ReplicaMap::new());
        let placement = Arc::new(PlacementTracker::new());
        let replication_on =
            cfg.replicate_hot_nodes && cfg.replica_factor > 0 && kv.num_servers() > 1;
        // The worker serves delegated splits and replica promotions; spawn
        // it if either needs it, so synchronous-split engines still promote
        // hot nodes in the background.
        let splitter = if cfg.split_mode == SplitMode::Delegated || replication_on {
            Some(Splitter::spawn(SplitContext {
                kv: kv.clone(),
                cfg: cfg.clone(),
                cache: Arc::clone(&cache),
                load: Arc::clone(&load),
                alloc: alloc.clone(),
                stats: stats.clone(),
                replicas: Arc::clone(&replicas),
                placement: Arc::clone(&placement),
            }))
        } else {
            None
        };
        Arc::new_cyclic(|engine: &Weak<DbtEngine>| {
            let engine = Weak::clone(engine);
            let on_report: OnReport = Arc::new(move |obj: ObjectId, what| {
                let Some(engine) = engine.upgrade() else {
                    return;
                };
                match what {
                    LeafReport::Full => engine.request_split(SplitRequest {
                        tree: obj.tree,
                        oid: obj.oid,
                        reason: SplitReason::Size,
                    }),
                    LeafReport::Refused => engine.refuse_unread(obj),
                }
            });
            DbtEngine {
                kv,
                cfg,
                cache,
                load,
                alloc,
                counters: HotCounters::new(&stats),
                stats,
                replicas,
                placement,
                splitter,
                replication_on,
                on_report,
                refused: Mutex::new(HashSet::new()),
            }
        })
    }

    /// What a cell edit calls with its leaf and its participant's report
    /// ([`yesquel_kv::Txn::edit_cell`]).
    pub(crate) fn on_report(&self) -> &OnReport {
        &self.on_report
    }

    /// Whether a participant refused this client's cell edits of `obj`
    /// since the fetch path last wrote it.
    pub(crate) fn was_refused(&self, obj: ObjectId) -> bool {
        self.refused.lock().contains(&obj)
    }

    /// Sends this client's writes of the leaf `obj` down the fetch path
    /// until it writes `obj`, as a participant's refusal of its edits does:
    /// for a caller whose unread edit failed in a way the fetch path
    /// answers better (a SQL rowid the allocator chose, found taken).
    pub fn refuse_unread(&self, obj: ObjectId) {
        self.refused.lock().insert(obj);
    }

    /// Notes that the fetch path wrote `obj`: the route to it is fresh, and
    /// its replicas known.
    pub(crate) fn wrote_fetched(&self, obj: ObjectId) {
        self.refused.lock().remove(&obj);
    }

    /// The key-value client this engine issues its operations through.
    pub fn kv(&self) -> &KvClient {
        &self.kv
    }

    /// The engine's DBT configuration.
    pub fn config(&self) -> &DbtConfig {
        &self.cfg
    }

    /// The statistics registry shared with the lower layers.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// The client cache of inner nodes.
    pub(crate) fn cache(&self) -> &NodeCache {
        &self.cache
    }

    /// Pre-resolved hot-path counters.
    pub(crate) fn counters(&self) -> &HotCounters {
        &self.counters
    }

    /// The load tracker used for load splits and replica promotions.
    pub(crate) fn load(&self) -> &LoadTracker {
        &self.load
    }

    /// The client's map of known replica sets.
    pub(crate) fn replicas(&self) -> &ReplicaMap {
        &self.replicas
    }

    /// True if hot-node replication is active for this engine.
    pub(crate) fn replication_enabled(&self) -> bool {
        self.replication_on
    }

    /// Number of inner nodes currently cached (diagnostics).
    pub fn cached_nodes(&self) -> usize {
        self.cache.len()
    }

    /// Number of nodes whose replica set this client knows (diagnostics).
    pub fn known_replica_sets(&self) -> usize {
        self.replicas.len()
    }

    /// Drops every cached inner node of `tree`.  The cache is a performance
    /// hint, so this is always safe; benchmarks use it to measure cold-cache
    /// lookups and tests use it to force back-down searches.
    pub fn invalidate_cache(&self, tree: TreeId) {
        self.cache.invalidate_tree(tree);
    }

    /// Initialises `tree`: writes an empty root leaf.  Fails if the tree
    /// already exists.
    pub fn create_tree(&self, tree: TreeId) -> Result<()> {
        let txn = self.kv.begin();
        self.create_tree_in_txn(&txn, tree)?;
        txn.commit()?;
        Ok(())
    }

    /// Writes `tree`'s empty root leaf as part of the caller's transaction
    /// (used by `CREATE TABLE`, which records the schema in the same
    /// transaction).  Fails if the tree already exists at its snapshot.
    pub fn create_tree_in_txn(&self, txn: &yesquel_kv::Txn, tree: TreeId) -> Result<()> {
        if txn.get(ObjectId::root(tree))?.is_some() {
            return Err(Error::InvalidArgument(format!(
                "tree {tree} already exists"
            )));
        }
        txn.put(ObjectId::root(tree), LeafView::empty_root())
    }

    /// Removes every node of `tree` reachable from its root, in its own
    /// transaction.  (Unreachable nodes left behind by unfinished splits are
    /// reclaimed by GC of their versions.)
    pub fn drop_tree(&self, tree: TreeId) -> Result<()> {
        let txn = self.kv.begin();
        self.drop_tree_in_txn(&txn, tree)?;
        txn.commit()?;
        Ok(())
    }

    /// Removes every node of `tree` reachable from its root, as part of the
    /// caller's transaction (used by `DROP TABLE`, which also removes the
    /// catalog entry in the same transaction).
    pub fn drop_tree_in_txn(&self, txn: &yesquel_kv::Txn, tree: TreeId) -> Result<()> {
        // Walk the tree and delete every node, including replica copies.
        let mut queue = vec![ROOT_OID];
        while let Some(oid) = queue.pop() {
            if let Some(node) = crate::tree::fetch_view(txn, tree, oid)? {
                if let NodeView::Inner(inner) = &node {
                    queue.extend(inner.children());
                }
                for r in node.replicas() {
                    txn.delete(ObjectId::new(tree, r))?;
                }
            }
            txn.delete(ObjectId::new(tree, oid))?;
        }
        self.cache.invalidate_tree(tree);
        self.replicas.forget_tree(tree);
        Ok(())
    }

    /// Opens a handle to `tree`.  The tree must have been created (by this
    /// client or any other) before operations are issued through the handle.
    pub fn tree(self: &Arc<Self>, tree: TreeId) -> Dbt {
        Dbt::new(Arc::clone(self), tree)
    }

    /// Builds the context handed to the split machinery.
    pub(crate) fn split_ctx(&self) -> SplitContext {
        SplitContext {
            kv: self.kv.clone(),
            cfg: self.cfg.clone(),
            cache: Arc::clone(&self.cache),
            load: Arc::clone(&self.load),
            alloc: self.alloc.clone(),
            stats: self.stats.clone(),
            replicas: Arc::clone(&self.replicas),
            placement: Arc::clone(&self.placement),
        }
    }

    /// Routes a split request: enqueued to the maintenance worker when
    /// delegated splitting is active, otherwise ignored (the synchronous
    /// path splits inline and never calls this; the worker may exist purely
    /// for replication).
    pub(crate) fn request_split(&self, req: SplitRequest) {
        if self.cfg.split_mode != SplitMode::Delegated {
            return;
        }
        if let Some(s) = &self.splitter {
            s.request(MaintRequest::Split(req));
            self.stats.counter("dbt.split_requests").inc();
        }
    }

    /// Enqueues a replica promotion of a read-hot node to the maintenance
    /// worker.
    pub(crate) fn request_replicate(&self, tree: TreeId, oid: Oid) {
        if !self.replication_on {
            return;
        }
        if let Some(s) = &self.splitter {
            s.request(MaintRequest::Replicate { tree, oid });
            self.stats.counter("dbt.replica_requests").inc();
        }
    }

    /// Blocks until every queued maintenance request (delegated splits,
    /// replica promotions) has been processed.  Tests and benchmark loaders
    /// call this to reach a quiescent tree before measuring.
    pub fn wait_for_splits(&self) {
        if let Some(s) = &self.splitter {
            s.wait_idle();
        }
    }

    /// Number of maintenance requests still queued (diagnostics).
    pub fn pending_splits(&self) -> usize {
        self.splitter
            .as_ref()
            .map(|s| s.pending_count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yesquel_kv::KvDatabase;

    #[test]
    fn create_tree_twice_fails() {
        let db = KvDatabase::with_servers(2);
        let engine = DbtEngine::new(db.client(), DbtConfig::default());
        engine.create_tree(5).unwrap();
        assert!(engine.create_tree(5).is_err());
    }

    #[test]
    fn engine_without_delegation_or_replication_has_no_worker() {
        let db = KvDatabase::with_servers(1);
        // Synchronous splits and a single server (replication cannot apply):
        // no background thread at all.
        let engine = DbtEngine::new(db.client(), DbtConfig::ablation_sync_splits());
        assert!(!engine.replication_enabled());
        assert_eq!(engine.pending_splits(), 0);
        engine.wait_for_splits(); // no-op
    }

    #[test]
    fn replication_gates_on_config_and_cluster_size() {
        let multi = KvDatabase::with_servers(4);
        assert!(DbtEngine::new(multi.client(), DbtConfig::default()).replication_enabled());
        assert!(
            !DbtEngine::new(multi.client(), DbtConfig::ablation_no_replication())
                .replication_enabled()
        );
        let single = KvDatabase::with_servers(1);
        assert!(!DbtEngine::new(single.client(), DbtConfig::default()).replication_enabled());
    }

    #[test]
    fn drop_tree_removes_nodes() {
        let db = KvDatabase::with_servers(2);
        let engine = DbtEngine::new(db.client(), DbtConfig::default());
        engine.create_tree(9).unwrap();
        let objects_before = db.total_objects();
        engine.drop_tree(9).unwrap();
        // The root's tombstone means the object may still exist as versions,
        // but a fresh read must see nothing.
        let txn = db.client().begin();
        assert!(txn.get(ObjectId::root(9)).unwrap().is_none());
        txn.commit().unwrap();
        assert!(db.total_objects() >= objects_before);
    }
}
