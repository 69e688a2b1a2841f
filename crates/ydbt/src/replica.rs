//! Hot-node replica sets: read-any/write-all replication of DBT nodes.
//!
//! The paper's second read-scalability lever (next to client caching): a
//! node the load tracker flags as **read**-hot gains replicas on other
//! servers.  A replica is an ordinary object — the same page bytes stored
//! under a different oid whose hash placement puts it on a different server
//! — and the primary page lists its replica oids in its header (see
//! `node.rs`).  Reads go **read-any**: the client picks one copy by
//! rotation and falls back to the primary if the copy has no version at
//! its snapshot.  Writes go **write-all**: every writer edits the page it
//! fetched, so it reads the replica list at its snapshot from that page's
//! header for free and writes the edited page under every copy's oid in its
//! one transaction — the existing multi-shard 2PC makes all copies move
//! atomically.
//!
//! ## Why read-any is safe
//!
//! Replica-set changes (promotion, and the drop on split) rewrite the
//! primary page, and every node write also writes the primary, so snapshot
//! isolation's first-committer-wins rule serialises replica-set changes
//! against concurrent node writes.  Every committed write therefore fanned
//! out to exactly the replica set committed at its snapshot, which gives
//! the invariant the read path relies on: **at any snapshot, a replica
//! object is either absent (not yet promoted, or dropped) or byte-identical
//! to its primary**.  Absent falls back to the primary; identical is as
//! good as the primary — a replica read can never observe a fence or a
//! version the write-all commit did not publish.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use yesquel_common::ids::shard_index;
use yesquel_common::stats::{Counter, StatsRegistry};
use yesquel_common::{ObjectId, Oid, Result, ServerId, TreeId};
use yesquel_kv::Txn;

use crate::split::SplitContext;
use crate::tree::fetch_view;

const MAP_SHARDS: usize = 16;

/// Process-wide seed so distinct engines (clients) start their read-any
/// rotation at different offsets — a cheap stand-in for client affinity:
/// with several client processes, each settles on a different copy first.
static AFFINITY_SEED: AtomicU64 = AtomicU64::new(0);

/// One shard of the map: primary `(tree, oid)` → its replica oids.
type Shard = HashMap<(TreeId, Oid), Arc<Vec<Oid>>>;

/// The client-side map of known replica sets, keyed by primary oid.
///
/// Purely a performance hint, like the inner-node cache: a stale entry
/// costs one wasted fetch (the replica misses and the read falls back to
/// the primary), never a wrong answer.  `choose` is designed to cost one
/// relaxed atomic load when nothing is replicated — replication must be
/// pay-as-you-go on unreplicated trees.
pub struct ReplicaMap {
    shards: Vec<Mutex<Shard>>,
    /// Total entries across shards; the fast emptiness check.
    entries: AtomicUsize,
    /// Read-any rotation cursor (shared; staggered per engine by the seed).
    cursor: AtomicU64,
}

impl Default for ReplicaMap {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        let seed = AFFINITY_SEED.fetch_add(1, Ordering::Relaxed);
        ReplicaMap {
            shards: (0..MAP_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            entries: AtomicUsize::new(0),
            cursor: AtomicU64::new(yesquel_common::ids::splitmix64(seed)),
        }
    }

    fn shard_of(tree: TreeId, oid: Oid) -> usize {
        shard_index(tree, oid, 0x9e37_79b9_7f4a_7c15, MAP_SHARDS)
    }

    /// Picks the copy of `(tree, oid)` to read: `None` means "read the
    /// primary" (always the answer while nothing is replicated), `Some(r)`
    /// names a replica oid.  Rotates over the primary plus every known
    /// replica so read load spreads across all copies.
    pub fn choose(&self, tree: TreeId, oid: Oid) -> Option<Oid> {
        if self.entries.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let g = self.shards[Self::shard_of(tree, oid)].lock();
        let reps = g.get(&(tree, oid))?;
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % (reps.len() as u64 + 1);
        if slot == 0 {
            None
        } else {
            Some(reps[slot as usize - 1])
        }
    }

    /// Whether `(tree, oid)` has a known replica set, so that [`Self::choose`]
    /// rotates over its copies.
    pub fn lists(&self, tree: TreeId, oid: Oid) -> bool {
        self.entries.load(Ordering::Relaxed) != 0
            && self.shards[Self::shard_of(tree, oid)]
                .lock()
                .contains_key(&(tree, oid))
    }

    /// Records (or refreshes) the replica set of `(tree, oid)` as learned
    /// from a fetched primary page.
    pub fn learn(&self, tree: TreeId, oid: Oid, replicas: &[Oid]) {
        if replicas.is_empty() {
            self.forget(tree, oid);
            return;
        }
        let mut g = self.shards[Self::shard_of(tree, oid)].lock();
        match g.get(&(tree, oid)) {
            Some(known) if known.as_slice() == replicas => {}
            _ => {
                if g.insert((tree, oid), Arc::new(replicas.to_vec())).is_none() {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Forgets the replica set of `(tree, oid)` (after a replica miss or a
    /// split that dropped the replicas).
    pub fn forget(&self, tree: TreeId, oid: Oid) {
        if self.entries.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut g = self.shards[Self::shard_of(tree, oid)].lock();
        if g.remove(&(tree, oid)).is_some() {
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Forgets every entry of `tree` (used by `drop_tree`).
    pub fn forget_tree(&self, tree: TreeId) {
        if self.entries.load(Ordering::Relaxed) == 0 {
            return;
        }
        for shard in &self.shards {
            let mut g = shard.lock();
            let before = g.len();
            g.retain(|(t, _), _| *t != tree);
            self.entries.fetch_sub(before - g.len(), Ordering::Relaxed);
        }
    }

    /// Number of nodes with a known replica set (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True if no replica set is known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writes `page` under its primary oid **and** every oid in `replicas` (the
/// list the page itself carries), as identical bytes, inside the caller's
/// transaction — the write-all half of read-any/write-all.  One page
/// regardless of fan-out; the per-copy cost is a `Bytes` refcount bump.
pub(crate) fn put_node_all(
    txn: &Txn,
    tree: TreeId,
    oid: Oid,
    page: Bytes,
    replicas: &[Oid],
    fanout_writes: &Counter,
) -> Result<()> {
    if replicas.is_empty() {
        return txn.put(ObjectId::new(tree, oid), page);
    }
    fanout_writes.inc();
    let objs = std::iter::once(oid)
        .chain(replicas.iter().copied())
        .map(|o| ObjectId::new(tree, o));
    txn.put_many(objs, page)
}

/// Per-server load snapshot: windowed deltas of each server's request
/// counter.  Placement decisions (load-split targets, replica targets) call
/// [`PlacementTracker::snapshot`] and get the requests served *since the
/// previous decision* — a much better "least loaded right now" signal than
/// the cumulative totals, which forever favour the newest server.
pub struct PlacementTracker {
    prev: Mutex<Vec<u64>>,
}

impl Default for PlacementTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementTracker {
    /// Creates a tracker with an empty window.
    pub fn new() -> Self {
        PlacementTracker {
            prev: Mutex::new(Vec::new()),
        }
    }

    /// Returns each server's request count since the previous snapshot (the
    /// first snapshot sees the cumulative totals) and starts a new window.
    pub fn snapshot(&self, stats: &StatsRegistry, nservers: usize) -> Vec<u64> {
        let cur: Vec<u64> = (0..nservers)
            .map(|i| stats.counter(&format!("rpc.server.{i}.requests")).get())
            .collect();
        let mut prev = self.prev.lock();
        prev.resize(nservers, 0);
        let delta = cur
            .iter()
            .zip(prev.iter())
            .map(|(c, p)| c.saturating_sub(*p))
            .collect();
        *prev = cur;
        delta
    }
}

/// Promotes `(tree, oid)` to a replicated node in its own transaction:
/// allocates replica oids on the least-loaded other servers, rewrites the
/// primary with the replica list, and writes every replica — all one
/// commit.  Retries with contention back-off on write-write conflicts (the
/// node is hot by definition, so conflicts are expected); returns true if a
/// promotion committed.
pub(crate) fn execute_replication(ctx: &SplitContext, tree: TreeId, oid: Oid) -> Result<bool> {
    const ATTEMPTS: usize = 4;
    let nservers = ctx.kv.num_servers();
    let factor = ctx.cfg.replica_factor.min(nservers.saturating_sub(1));
    if !ctx.cfg.replicate_hot_nodes || factor == 0 {
        return Ok(false);
    }
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            // Contention back-off: the writers this promotion conflicts
            // with are exactly the traffic that made the node hot.
            std::thread::sleep(std::time::Duration::from_micros(200 << attempt));
        }
        let txn = ctx.kv.begin();
        let Some(node) = fetch_view(&txn, tree, oid)? else {
            // The node vanished (split away or tree dropped): nothing to do.
            txn.abort();
            return Ok(false);
        };
        let mut replicas = node.replicas();
        if replicas.len() >= factor {
            txn.abort();
            return Ok(false);
        }
        // One copy per distinct server: skip the primary's home and every
        // server already holding a replica, then fill the least-loaded
        // servers first.
        let mut occupied: Vec<ServerId> = vec![ObjectId::new(tree, oid).home_server(nservers)];
        for r in &replicas {
            occupied.push(ObjectId::new(tree, *r).home_server(nservers));
        }
        let loads = ctx.placement.snapshot(&ctx.stats, nservers);
        let mut targets: Vec<ServerId> = (0..nservers).filter(|s| !occupied.contains(s)).collect();
        targets.sort_by_key(|s| loads[*s]);
        targets.truncate(factor - replicas.len());
        if targets.is_empty() {
            txn.abort();
            return Ok(false);
        }
        for target in targets {
            replicas.push(ctx.alloc.allocate_on_server(tree, target)?);
        }
        // Only the header section changes; cells are copied as they are.
        put_node_all(
            &txn,
            tree,
            oid,
            node.with_replicas(&replicas)?,
            &replicas,
            &ctx.stats.counter("dbt.replica_fanout_writes"),
        )?;
        match txn.commit() {
            Ok(_) => {
                ctx.stats.counter("dbt.replica_promotions").inc();
                ctx.replicas.learn(tree, oid, &replicas);
                ctx.load.forget(tree, oid);
                return Ok(true);
            }
            Err(e) if e.is_retryable() && attempt + 1 < ATTEMPTS => {
                ctx.stats.counter("dbt.replica_retries").inc();
                continue;
            }
            Err(e) if e.is_retryable() => {
                ctx.stats.counter("dbt.replica_abandoned").inc();
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_answers_primary_without_locking() {
        let m = ReplicaMap::new();
        assert_eq!(m.choose(1, 2), None);
        assert!(m.is_empty());
        m.forget(1, 2); // no-op, no underflow
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn rotation_spreads_over_all_copies() {
        let m = ReplicaMap::new();
        m.learn(1, 5, &[100, 101]);
        assert_eq!(m.len(), 1);
        let mut saw = std::collections::HashSet::new();
        for _ in 0..30 {
            saw.insert(m.choose(1, 5));
        }
        // Primary (None) and both replicas all serve reads.
        assert_eq!(saw.len(), 3, "choices {saw:?}");
        // Unknown nodes still read the primary.
        assert_eq!(m.choose(1, 6), None);
    }

    #[test]
    fn learn_refresh_and_forget() {
        let m = ReplicaMap::new();
        m.learn(1, 5, &[100]);
        m.learn(1, 5, &[100]); // idempotent refresh
        assert_eq!(m.len(), 1);
        m.learn(1, 5, &[100, 101]); // replacement
        assert_eq!(m.len(), 1);
        m.learn(1, 5, &[]); // empty set == forget
        assert_eq!(m.len(), 0);
        m.learn(1, 5, &[100]);
        m.learn(2, 9, &[200]);
        m.forget_tree(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.choose(1, 5), None);
    }

    #[test]
    fn placement_snapshot_is_windowed() {
        let stats = StatsRegistry::new();
        let t = PlacementTracker::new();
        stats.counter("rpc.server.0.requests").add(10);
        stats.counter("rpc.server.1.requests").add(3);
        assert_eq!(t.snapshot(&stats, 2), vec![10, 3]);
        stats.counter("rpc.server.1.requests").add(20);
        // Only the traffic since the previous snapshot counts.
        assert_eq!(t.snapshot(&stats, 2), vec![0, 20]);
    }
}
