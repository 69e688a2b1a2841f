//! Node splits: size splits, load splits, root splits, and the delegated
//! splitter task.
//!
//! Because the DBT sits **above** distributed transactions, moving cells
//! between nodes is simply a transaction that rewrites the affected nodes
//! and their parent — if it commits, the tree changed atomically; if it
//! conflicts with a concurrent operation, it retries.  This is the property
//! the paper emphasises about building the DBT over the transactional layer.
//!
//! Two execution modes exist (selected by
//! [`DbtConfig::split_mode`](yesquel_common::DbtConfig)):
//!
//! * **Synchronous** — the client that made a node over-full performs the
//!   split inside its own transaction before committing.  Simple, but that
//!   client pays the split latency.
//! * **Delegated** — the client only enqueues a split request; a background
//!   splitter task performs the split as its own transaction.  Ordinary
//!   operations never wait for splits (the paper's design).
//!
//! **Load splits** use the same machinery but are triggered by access
//! frequency rather than size, and may place the new node on the least
//! loaded server (see [`crate::alloc::OidAllocator::allocate_on_server`]).

use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use yesquel_common::ids::ROOT_OID;
use yesquel_common::stats::StatsRegistry;
use yesquel_common::{DbtConfig, Error, ObjectId, Oid, Result, ServerId, TreeId};
use yesquel_kv::{KvClient, Txn};

use crate::alloc::OidAllocator;
use crate::cache::NodeCache;
use crate::load::LoadTracker;
use crate::node::{Bound, InnerView, LeafView, NodeView};
use crate::replica::{execute_replication, put_node_all, PlacementTracker, ReplicaMap};
use crate::tree::fetch_view;

/// Why a split was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitReason {
    /// The node exceeded its size bound.
    Size,
    /// The node became an access hot spot.
    Load,
}

/// A request for the splitter to split one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRequest {
    /// Tree containing the node.
    pub tree: TreeId,
    /// The node to split.
    pub oid: Oid,
    /// Why the split was requested.
    pub reason: SplitReason,
}

/// Everything the split machinery needs, independent of the engine that
/// spawned it (so the splitter thread does not keep the engine alive).
#[derive(Clone)]
pub(crate) struct SplitContext {
    pub(crate) kv: KvClient,
    pub(crate) cfg: DbtConfig,
    pub(crate) cache: Arc<NodeCache>,
    pub(crate) load: Arc<LoadTracker>,
    pub(crate) alloc: OidAllocator,
    pub(crate) stats: StatsRegistry,
    pub(crate) replicas: Arc<ReplicaMap>,
    pub(crate) placement: Arc<PlacementTracker>,
}

impl SplitContext {
    /// Chooses the least-loaded server as the placement target for the new
    /// node of a load split.  "Least loaded" is judged over the window since
    /// the previous placement decision (see [`PlacementTracker`]), not over
    /// cumulative totals, which would forever favour whichever server
    /// started latest.
    fn pick_target_server(&self) -> ServerId {
        let n = self.kv.num_servers();
        let loads = self.placement.snapshot(&self.stats, n);
        (0..n)
            .min_by_key(|i| loads[*i])
            .expect("a deployment has at least one server")
    }

    /// Allocates the object id for the new (right) half of a split: on the
    /// least-loaded server for a load split, wherever the allocator's
    /// rotation lands for a size split.
    fn new_oid(&self, tree: TreeId, load_split: bool) -> Result<Oid> {
        if load_split {
            self.alloc
                .allocate_on_server(tree, self.pick_target_server())
        } else {
            self.alloc.allocate(tree)
        }
    }
}

/// Splits the node at `path[idx]` inside the caller's transaction, updating
/// its parent and cascading upward if the parent becomes over-full.
/// Returns the halves of a split leaf that are still over
/// `leaf_max_cells`: a leaf that unread inserts grew past twice its bound
/// before its split ran.
///
/// `path` is the chain of object ids from the root (`path[0] == ROOT_OID`)
/// down to the node; it must have been built from nodes read in the same
/// transaction (or, for the synchronous path, the search that produced it).
pub(crate) fn split_node_in_txn(
    ctx: &SplitContext,
    txn: &Txn,
    tree: TreeId,
    path: &[Oid],
    idx: usize,
    reason: SplitReason,
) -> Result<Vec<Oid>> {
    let oid = path[idx];
    let node = fetch_view(txn, tree, oid)?
        .ok_or_else(|| Error::Internal(format!("node {tree}:{oid} vanished during split")))?;
    // Re-check that the split is still warranted at this snapshot.
    let (len, min_len, max_len) = match &node {
        NodeView::Leaf(l) => (l.len(), 2, ctx.cfg.leaf_max_cells),
        NodeView::Inner(i) => (i.len(), 3, ctx.cfg.inner_max_children),
    };
    if len < min_len {
        return Ok(Vec::new());
    }
    if reason == SplitReason::Size && len <= max_len {
        // Someone else already split it.
        ctx.stats.counter("dbt.split_skipped").inc();
        return Ok(Vec::new());
    }
    // A split retires the node's replica set: the halves cover different key
    // ranges, so the old copies are meaningless.  Delete the replica objects
    // in the same transaction (atomic with the split) and let the halves
    // start unreplicated (the split edits write no replica list) — if they
    // stay hot, the load tracker re-promotes them.
    if node.has_replicas() {
        for r in node.replicas() {
            txn.delete(ObjectId::new(tree, r))?;
        }
        ctx.replicas.forget(tree, oid);
    }
    let load_split = reason == SplitReason::Load && matches!(node, NodeView::Leaf(_));
    let right_oid = ctx.new_oid(tree, load_split)?;
    let (left, right, split_key) = match &node {
        NodeView::Leaf(leaf) => leaf.split(right_oid)?,
        NodeView::Inner(inner) => inner.split()?,
    };
    if load_split {
        ctx.stats.counter("dbt.load_splits").inc();
    }
    ctx.stats.counter("dbt.splits").inc();
    let still_over = |halves: [(Oid, &Bytes); 2]| -> Result<Vec<Oid>> {
        let mut over = Vec::new();
        if let NodeView::Leaf(_) = node {
            for (oid, page) in halves {
                if LeafView::parse(page.clone())?.len() > max_len {
                    over.push(oid);
                }
            }
        }
        Ok(over)
    };

    if idx == 0 {
        // The root split.  The root keeps its well-known object id, so both
        // halves move to fresh ids and the root becomes (or stays) an inner
        // node one level taller.
        debug_assert_eq!(oid, ROOT_OID);
        let left_oid = ctx.alloc.allocate(tree)?;
        let new_root = InnerView::build(
            Bound::NegInf,
            Bound::PosInf,
            node.height() + 1,
            &[],
            &[left_oid, right_oid],
            &[&split_key],
        )?;
        let over = still_over([(left_oid, &left), (right_oid, &right)])?;
        txn.put(ObjectId::new(tree, left_oid), left)?;
        txn.put(ObjectId::new(tree, right_oid), right)?;
        txn.put(ObjectId::new(tree, ROOT_OID), new_root)?;
        ctx.cache.invalidate(tree, ROOT_OID);
        ctx.load.forget(tree, ROOT_OID);
        ctx.stats.counter("dbt.root_splits").inc();
        return Ok(over);
    }

    let over = still_over([(oid, &left), (right_oid, &right)])?;
    txn.put(ObjectId::new(tree, oid), left)?;
    txn.put(ObjectId::new(tree, right_oid), right)?;

    // Link the new half into the parent.
    let parent_oid = path[idx - 1];
    let parent = match fetch_view(txn, tree, parent_oid)? {
        Some(NodeView::Inner(parent)) => parent,
        Some(NodeView::Leaf(_)) => {
            return Err(Error::Corruption("expected inner node, found leaf".into()))
        }
        None => {
            return Err(Error::Internal(format!(
                "parent {tree}:{parent_oid} vanished"
            )))
        }
    };
    let child_pos = parent.children().position(|c| c == oid).ok_or_else(|| {
        Error::Internal(format!("parent {parent_oid} no longer references {oid}"))
    })?;
    // The parent keeps its replica set across the child split, so its
    // rewrite must fan out to every copy (write-all).
    put_node_all(
        txn,
        tree,
        parent_oid,
        parent.insert_child_after(child_pos, &split_key, right_oid)?,
        &parent.replicas(),
        &ctx.stats.counter("dbt.replica_fanout_writes"),
    )?;
    ctx.cache.invalidate(tree, parent_oid);
    ctx.load.forget(tree, oid);

    if parent.len() + 1 > ctx.cfg.inner_max_children {
        split_node_in_txn(ctx, txn, tree, path, idx - 1, SplitReason::Size)?;
    }
    Ok(over)
}

/// Performs a delegated split in its own transaction, retrying a few times
/// on write-write conflicts.  Returns the halves of a committed leaf split
/// that are still over `leaf_max_cells`, for the caller to split in turn.
pub(crate) fn execute_delegated_split(ctx: &SplitContext, req: &SplitRequest) -> Result<Vec<Oid>> {
    const ATTEMPTS: usize = 4;
    for attempt in 0..ATTEMPTS {
        let txn = ctx.kv.begin();
        let Some(target) = fetch_view(&txn, req.tree, req.oid)? else {
            txn.abort();
            return Ok(Vec::new());
        };
        // Re-check that the split is still warranted at this snapshot.
        let (warranted, lower) = match &target {
            NodeView::Leaf(l) => (
                l.len() >= 2
                    && (req.reason != SplitReason::Size || l.len() > ctx.cfg.leaf_max_cells),
                l.lower(),
            ),
            NodeView::Inner(i) => (i.len() > ctx.cfg.inner_max_children, i.lower()),
        };
        if !warranted {
            txn.abort();
            ctx.stats.counter("dbt.split_skipped").inc();
            return Ok(Vec::new());
        }
        // Any key of the target routes to it: its lower fence does.
        let nav_key: &[u8] = match lower {
            Bound::Key(k) => k,
            _ => b"",
        };

        // Build the root-to-target path within this transaction's snapshot.
        let mut path: Vec<Oid> = vec![ROOT_OID];
        let found = loop {
            let cur = *path.last().expect("path never empty");
            if cur == req.oid {
                break true;
            }
            if path.len() > 64 {
                break false;
            }
            match fetch_view(&txn, req.tree, cur)? {
                Some(NodeView::Inner(inner)) => path.push(inner.child_for(nav_key)?),
                // Reached a leaf (or a hole) that is not the target: the
                // tree changed since the request was made.
                _ => break false,
            }
        };
        if !found {
            txn.abort();
            ctx.stats.counter("dbt.split_skipped").inc();
            return Ok(Vec::new());
        }

        let idx = path.len() - 1;
        let over = split_node_in_txn(ctx, &txn, req.tree, &path, idx, req.reason)?;
        match txn.commit() {
            Ok(_) => {
                ctx.load.forget(req.tree, req.oid);
                // Splits are the signal that this tree sees real traffic:
                // (re-)establish the root's replica set if replication is on
                // ("root and upper inner nodes replicate by default").  A
                // root split just dropped the old root replicas, and on a
                // tree's first split this is what bootstraps them.  No-op if
                // the root already has its full factor.
                let _ = execute_replication(ctx, req.tree, ROOT_OID);
                return Ok(over);
            }
            Err(e) if e.is_retryable() && attempt + 1 < ATTEMPTS => {
                ctx.stats.counter("dbt.split_retries").inc();
                continue;
            }
            Err(e) if e.is_retryable() => {
                ctx.stats.counter("dbt.split_abandoned").inc();
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Vec::new())
}

/// Kind of maintenance work, used to deduplicate the queue per node: a
/// pending split of a node must not suppress a replication request for it
/// (or vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MaintKind {
    Split,
    Replicate,
}

/// A unit of background tree maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaintRequest {
    /// Split an over-full or write-hot node.
    Split(SplitRequest),
    /// Promote a read-hot node to a replica set.
    Replicate { tree: TreeId, oid: Oid },
}

impl MaintRequest {
    fn dedup_key(&self) -> (TreeId, Oid, MaintKind) {
        match self {
            MaintRequest::Split(s) => (s.tree, s.oid, MaintKind::Split),
            MaintRequest::Replicate { tree, oid } => (*tree, *oid, MaintKind::Replicate),
        }
    }
}

/// Handle to the background maintenance task (historically the "splitter";
/// it now also executes replica promotions).
pub(crate) struct Splitter {
    tx: Option<Sender<MaintRequest>>,
    pending: Arc<Mutex<HashSet<(TreeId, Oid, MaintKind)>>>,
    handle: Option<JoinHandle<()>>,
}

impl Splitter {
    /// Spawns the maintenance thread.
    pub(crate) fn spawn(ctx: SplitContext) -> Splitter {
        let (tx, rx) = unbounded::<MaintRequest>();
        let pending: Arc<Mutex<HashSet<(TreeId, Oid, MaintKind)>>> =
            Arc::new(Mutex::new(HashSet::new()));
        let pending_worker = Arc::clone(&pending);
        let handle = std::thread::Builder::new()
            .name("ydbt-splitter".to_string())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    // Failures are recorded but must not kill the worker: a
                    // failed split leaves an over-full node that a later
                    // request (or the next insert) will pick up again, and a
                    // failed promotion leaves the node unreplicated — hot
                    // traffic will flag it again.
                    match &req {
                        MaintRequest::Split(split) => {
                            // A half still over its bound is split before
                            // the request counts as done.
                            let mut todo = vec![*split];
                            while let Some(split) = todo.pop() {
                                match execute_delegated_split(&ctx, &split) {
                                    Ok(over) => {
                                        todo.extend(over.into_iter().map(|oid| SplitRequest {
                                            oid,
                                            reason: SplitReason::Size,
                                            ..split
                                        }))
                                    }
                                    Err(_) => ctx.stats.counter("dbt.split_errors").inc(),
                                }
                            }
                        }
                        MaintRequest::Replicate { tree, oid } => {
                            if let Err(e) = execute_replication(&ctx, *tree, *oid) {
                                ctx.stats.counter("dbt.replica_errors").inc();
                                let _ = e;
                            }
                        }
                    }
                    pending_worker.lock().remove(&req.dedup_key());
                }
            })
            .expect("failed to spawn splitter thread");
        Splitter {
            tx: Some(tx),
            pending,
            handle: Some(handle),
        }
    }

    /// Enqueues a maintenance request, deduplicating per node and kind.
    pub(crate) fn request(&self, req: MaintRequest) {
        let mut pending = self.pending.lock();
        let key = req.dedup_key();
        if pending.insert(key) {
            if let Some(tx) = &self.tx {
                if tx.send(req).is_err() {
                    pending.remove(&key);
                }
            }
        }
    }

    /// Number of requests not yet processed.
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Blocks until the splitter has drained its queue (tests and benchmark
    /// loading phases use this to reach a quiescent tree).
    pub(crate) fn wait_idle(&self) {
        while self.pending_count() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Splitter {
    fn drop(&mut self) {
        // Disconnect the channel so the worker exits, then join it.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
