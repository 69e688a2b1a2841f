//! Client-side cache of inner nodes.
//!
//! Each Yesquel client caches the inner nodes of the trees it uses, so that
//! a warm lookup needs to fetch only the leaf (one RPC) instead of walking
//! the whole tree through the root.  Without this cache the server holding
//! the root becomes a bottleneck — the "no caching" ablation
//! (`DbtConfig::ablation_no_cache`) demonstrates exactly that.
//!
//! Cache entries can be stale: splits performed by other clients change the
//! tree underneath the cache.  Staleness is *detected*, not prevented: every
//! node carries its fence interval, and a search that lands on a node whose
//! interval does not contain the key invalidates the offending entries and
//! backs up (see `tree.rs`).
//!
//! ## Hot-path behaviour
//!
//! The cache sits on the point-read fast path (one probe per tree level per
//! lookup), so it is built to cost almost nothing:
//!
//! * entries are [`InnerView`]s — lazy views over the encoded page.  A hit
//!   clones the view, which is one reference-count bump on the page buffer
//!   plus a few words; no node is ever materialised for the cache;
//! * the map is split over [`CACHE_SHARDS`] independently locked shards so
//!   concurrent client threads do not serialize on one mutex;
//! * the hit/miss/invalidation counters are resolved **once** at
//!   construction — bumping them is a relaxed atomic add, not a registry
//!   lookup (which takes a mutex and walks a `BTreeMap`);
//! * overflow is handled per shard by **second-chance eviction**: entries
//!   touched since the last sweep survive, untouched ones go.  The previous
//!   policy cleared the whole cache, which made every client re-walk every
//!   tree from the root after each overflow.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use yesquel_common::ids::shard_index;
use yesquel_common::stats::{Counter, StatsRegistry};
use yesquel_common::{Oid, TreeId};

use crate::node::InnerView;

/// Default bound on cached entries; inner nodes are tiny, so this is
/// generous.
const DEFAULT_MAX_ENTRIES: usize = 262_144;

/// Number of cache shards (power of two).
pub const CACHE_SHARDS: usize = 16;

struct Entry {
    view: InnerView,
    /// Second-chance bit: set on every hit, cleared by an eviction sweep.
    referenced: bool,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<(TreeId, Oid), Entry>,
}

impl CacheShard {
    /// Evicts entries not referenced since the last sweep and clears the
    /// bit on the survivors.  If every entry was recently referenced nothing
    /// is evicted this round — the bits are now cleared, so the next
    /// overflow sweep reclaims whatever was not touched in between; the
    /// shard overshoots its bound by at most the inserts between two sweeps.
    fn sweep(&mut self) -> usize {
        let before = self.map.len();
        self.map
            .retain(|_, e| std::mem::replace(&mut e.referenced, false));
        before - self.map.len()
    }
}

/// A shared cache of inner nodes, keyed by `(tree, oid)`.
pub struct NodeCache {
    shards: Vec<Mutex<CacheShard>>,
    max_per_shard: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl NodeCache {
    /// Creates an empty cache reporting into `stats`.
    pub fn new(stats: StatsRegistry) -> Self {
        Self::with_capacity(DEFAULT_MAX_ENTRIES, stats)
    }

    /// Creates an empty cache with an explicit entry bound.
    pub fn with_capacity(max_entries: usize, stats: StatsRegistry) -> Self {
        NodeCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            max_per_shard: (max_entries.max(CACHE_SHARDS) / CACHE_SHARDS).max(1),
            hits: stats.counter("dbt.cache_hits"),
            misses: stats.counter("dbt.cache_misses"),
            evictions: stats.counter("dbt.cache_evictions"),
            invalidations: stats.counter("dbt.cache_invalidations"),
        }
    }

    fn shard_of(tree: TreeId, oid: Oid) -> usize {
        shard_index(tree, oid, 0x1234_5678_9abc_def0, CACHE_SHARDS)
    }

    /// Returns the cached inner-node view, if present.  A hit clones the
    /// view — a reference-count bump on the page, never a materialisation.
    pub fn get(&self, tree: TreeId, oid: Oid) -> Option<InnerView> {
        let mut g = self.shards[Self::shard_of(tree, oid)].lock();
        match g.map.get_mut(&(tree, oid)) {
            Some(e) => {
                e.referenced = true;
                self.hits.inc();
                Some(e.view.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts or refreshes an entry.
    pub fn put(&self, tree: TreeId, oid: Oid, view: InnerView) {
        let mut g = self.shards[Self::shard_of(tree, oid)].lock();
        // Refreshing an existing entry cannot grow the shard, so it must not
        // trigger an eviction sweep (a refresh-heavy phase would otherwise
        // purge its neighbours for nothing).
        if g.map.len() >= self.max_per_shard && !g.map.contains_key(&(tree, oid)) {
            let evicted = g.sweep();
            if evicted > 0 {
                self.evictions.add(evicted as u64);
            }
        }
        g.map.insert(
            (tree, oid),
            Entry {
                view,
                referenced: false,
            },
        );
    }

    /// Removes one entry (after a fence miss showed it was stale).
    pub fn invalidate(&self, tree: TreeId, oid: Oid) {
        self.shards[Self::shard_of(tree, oid)]
            .lock()
            .map
            .remove(&(tree, oid));
        self.invalidations.inc();
    }

    /// Removes every entry of one tree (used when a tree is dropped).
    pub fn invalidate_tree(&self, tree: TreeId) {
        for shard in &self.shards {
            shard.lock().map.retain(|(t, _), _| *t != tree);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Bound;

    fn inner(children: Vec<Oid>) -> InnerView {
        let seps = vec![&b"m"[..]; children.len() - 1];
        let page =
            InnerView::build(Bound::NegInf, Bound::PosInf, 1, &[], &children, &seps).unwrap();
        InnerView::parse(page).unwrap()
    }

    #[test]
    fn put_get_invalidate() {
        let stats = StatsRegistry::new();
        let c = NodeCache::new(stats.clone());
        assert!(c.get(1, 0).is_none());
        c.put(1, 0, inner(vec![5, 6]));
        assert!(c.get(1, 0).is_some());
        assert_eq!(c.len(), 1);
        c.invalidate(1, 0);
        assert!(c.get(1, 0).is_none());
        assert_eq!(stats.counter("dbt.cache_hits").get(), 1);
        assert_eq!(stats.counter("dbt.cache_misses").get(), 2);
        assert_eq!(stats.counter("dbt.cache_invalidations").get(), 1);
    }

    #[test]
    fn hits_share_the_encoded_page() {
        let c = NodeCache::new(StatsRegistry::new());
        c.put(1, 0, inner(vec![5, 6]));
        let a = c.get(1, 0).unwrap();
        let b = c.get(1, 0).unwrap();
        // Both hits route through the same page bytes (the views are clones
        // sharing one buffer, not re-parses of separate copies).
        assert_eq!(a.child_for(b"a").unwrap(), b.child_for(b"a").unwrap());
        assert_eq!(a.first_child(), 5);
        assert_eq!(a.child_for(b"z").unwrap(), 6);
    }

    #[test]
    fn invalidate_tree_scoped() {
        let c = NodeCache::new(StatsRegistry::new());
        c.put(1, 0, inner(vec![5, 6]));
        c.put(2, 0, inner(vec![7, 8]));
        c.invalidate_tree(1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some());
    }

    #[test]
    fn capacity_bound_evicts() {
        let stats = StatsRegistry::new();
        let c = NodeCache::with_capacity(16, stats.clone());
        for oid in 0..200u64 {
            c.put(1, oid, inner(vec![oid + 100, oid + 200]));
        }
        assert!(
            c.len() <= 2 * CACHE_SHARDS,
            "cache grew unboundedly: {}",
            c.len()
        );
        assert!(stats.counter("dbt.cache_evictions").get() >= 1);
    }

    #[test]
    fn second_chance_keeps_recently_used() {
        let stats = StatsRegistry::new();
        // One entry per shard before overflow.
        let c = NodeCache::with_capacity(CACHE_SHARDS * 4, stats.clone());
        // Find two oids in the same shard.
        let shard0 = NodeCache::shard_of(1, 0);
        let mut same: Vec<Oid> = Vec::new();
        let mut oid = 0;
        while same.len() < 6 {
            if NodeCache::shard_of(1, oid) == shard0 {
                same.push(oid);
            }
            oid += 1;
        }
        // Fill the shard to its bound (4 entries), touch the first one, then
        // overflow: the touched entry must survive the sweep.
        for &o in &same[..4] {
            c.put(1, o, inner(vec![o + 1, o + 2]));
        }
        assert!(c.get(1, same[0]).is_some());
        c.put(1, same[4], inner(vec![1, 2]));
        assert!(
            c.get(1, same[0]).is_some(),
            "recently used entry was evicted"
        );
        assert!(
            c.get(1, same[1]).is_none(),
            "untouched entry should have been evicted"
        );
    }
}
