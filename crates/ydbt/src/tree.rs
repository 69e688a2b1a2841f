//! Tree operations: lookup, insert, delete and the search algorithm with
//! client caching and back-down recovery.
//!
//! Every operation runs inside a caller-supplied key-value transaction
//! ([`Txn`]), so a SQL statement that touches several trees (a table and its
//! secondary indexes, say) is atomic and reads a consistent snapshot.
//!
//! ## The search path
//!
//! A search for key `k` proceeds in two phases:
//!
//! 1. **Cached descent** — starting at the root's well-known object id, the
//!    client walks down using only its cache of inner nodes, picking the
//!    child responsible for `k` at each level.  This costs no RPCs.
//! 2. **Verified descent** — the deepest node reached in phase 1 is fetched
//!    through the transaction.  If its fence interval contains `k`, the
//!    descent continues from it (caching any inner nodes fetched on the
//!    way) until a leaf containing `k` in its fence interval is reached.
//!    If a fetched node's fence interval does **not** contain `k` (or the
//!    node no longer exists in this snapshot), the cache was stale: the
//!    offending entry is invalidated and the search **backs up** one level
//!    and tries again — the paper's "back-down search".  With back-down
//!    disabled the search restarts from the root instead.
//!
//! With a warm cache the common case fetches exactly one node — the leaf —
//! which is what lets Yesquel approach NOSQL key-value latency for point
//! queries.  Phase 1 alone names that node ([`Dbt::leaf_to_fetch`]), so a
//! statement that is about to search several trees can fetch their leaves
//! in one round first ([`Txn::prefetch`]); the searches then find them in
//! the transaction.
//!
//! ## Nodes are never materialised
//!
//! Both phases operate on [`NodeView`]s — lazy views over the encoded pages
//! (see [`crate::node`]).  A warm point read therefore costs one node fetch
//! plus an O(log n) binary search straight over the page bytes; no cell is
//! decoded except the ones the search compares, and nothing is allocated
//! per cell.  `insert`/`delete` run the same search and the same probe, then
//! **edit the page**: the destination leaf's next page is built from the
//! fetched bytes in one allocation and one copy ([`LeafView::put`] /
//! [`LeafView::remove`]) and buffered in the transaction as it is.
//!
//! ## Edits that go unread
//!
//! A write whose caller needs no answer from the leaf — [`Dbt::put_unread`]
//! and [`Dbt::remove_unread`]: an index entry removed, a non-unique entry
//! added — need not fetch the leaf at all, and neither does one whose
//! caller can take its answer at the commit —
//! [`Dbt::insert_if_absent_unread`]: the row and the unique-index entries
//! of a SQL INSERT that is its own transaction.  It is buffered as a **cell
//! edit** ([`Txn::edit_cell`]) and applied by the leaf's participant at
//! prepare time, to the version the transaction's snapshot reads, which is
//! the page the fetch path would have edited; a put-if-absent whose key
//! that version holds fails the commit with [`Error::KeyPresent`], as the
//! fetch path's probe would have answered `false`.  An edit goes unread
//! when all of these hold, and takes the fetch path otherwise:
//!
//! - the inner-node cache names the leaf: phase 1 ends under a cached node
//!   of height 1, or, with no inner node of the tree cached, at the root (a
//!   one-leaf tree; a root that turns out to be inner is refused once, and
//!   the fetch that follows warms the cache);
//! - the client's [`ReplicaMap`](crate::ReplicaMap) lists no replicas for
//!   it (every copy must be written, so a replicated leaf is fetched);
//! - the transaction holds no page of it ([`Txn::may_edit_unread`]): a leaf
//!   it fetched or wrote is edited where it is held;
//! - no participant refused this client's edits of it since the fetch path
//!   last wrote it: the engine notes each refusal before the statement's
//!   next attempt begins, so that attempt fetches the leaf, and so does an
//!   explicit transaction its application retries; the fetch refreshes the
//!   route;
//! - splits are delegated: a client that splits synchronously, in the
//!   writing transaction, edits what it reads.
//!
//! The participant refuses an edit whose leaf is not a leaf, does not fence
//! the key or lists replicas; the statement's retry fetches that leaf.  A
//! leaf an edit fills past `leaf_max_cells` is named in the vote, and the
//! engine asks for its split, as a fetched insert does.

use std::sync::Arc;

use bytes::Bytes;
use yesquel_common::config::SplitMode;
use yesquel_common::ids::ROOT_OID;
use yesquel_common::obs::trace::{count, span, SpanKind, TraceCounter};
use yesquel_common::{Error, ObjectId, Oid, Result, TreeId};
use yesquel_kv::Txn;

use crate::engine::DbtEngine;
use crate::iter::{DbtCursor, RawCursor};
use crate::node::{CellEdit, LeafView, NodeView};
use crate::replica::put_node_all;
use crate::split::{split_node_in_txn, SplitReason, SplitRequest};

/// Upper bound on the depth of any search path; also the cycle guard for
/// descents through (possibly inconsistent) cached nodes.  A tree with
/// branching factor ≥ 2 of this depth would be astronomically large, so
/// hitting the bound always means a stale or corrupt path.
const MAX_SEARCH_DEPTH: usize = 64;

/// Number of search restarts (stale cached node: invalidate, back down or
/// start over from the root) after which an operation reports an internal
/// error — a guard against livelock under adversarial staleness.
const MAX_SEARCH_RESTARTS: usize = 64;

/// Reads a node page within a transaction and wraps it in a lazy view —
/// no cells are decoded.  Returns `None` if the object has no visible
/// version at the transaction's snapshot.
pub(crate) fn fetch_view(txn: &Txn, tree: TreeId, oid: Oid) -> Result<Option<NodeView>> {
    match txn.get(ObjectId::new(tree, oid))? {
        Some(bytes) => Ok(Some(NodeView::parse(bytes)?)),
        None => Ok(None),
    }
}

/// Follows a leaf's right-sibling pointer, returning the sibling's view.
/// The chain is maintained transactionally, so a dangling pointer or a
/// sibling that is not a leaf means a damaged tree at this snapshot and is
/// reported as corruption.  Shared by cursors and the leaf-chain walk of
/// [`Dbt::count`].
pub(crate) fn fetch_leaf_sibling(txn: &Txn, tree: TreeId, oid: Oid) -> Result<LeafView> {
    match fetch_view(txn, tree, oid)? {
        Some(NodeView::Leaf(l)) => Ok(l),
        Some(NodeView::Inner(_)) => Err(Error::Corruption(format!(
            "leaf sibling pointer {tree}:{oid} refers to an inner node"
        ))),
        None => Err(Error::Corruption(format!(
            "leaf sibling pointer {tree}:{oid} dangles at this snapshot"
        ))),
    }
}

/// The leaf that a search arrived at — still a lazy view — together with
/// the root-to-leaf path of object ids used to reach it (needed by
/// synchronous splits).
pub(crate) struct LeafRef {
    pub(crate) path: Vec<Oid>,
    pub(crate) leaf: LeafView,
}

impl LeafRef {
    pub(crate) fn oid(&self) -> Oid {
        *self.path.last().expect("path never empty")
    }
}

/// Returns the smallest byte string strictly greater than every key that
/// starts with `prefix`; `None` means unbounded (the prefix was all `0xff`).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// A handle to one distributed balanced tree.
///
/// Handles are cheap to clone and share the client's engine (cache, load
/// tracker, splitter).
#[derive(Clone)]
pub struct Dbt {
    engine: Arc<DbtEngine>,
    tree: TreeId,
}

impl Dbt {
    pub(crate) fn new(engine: Arc<DbtEngine>, tree: TreeId) -> Self {
        Dbt { engine, tree }
    }

    /// The tree id this handle operates on.
    pub fn tree_id(&self) -> TreeId {
        self.tree
    }

    /// The engine backing this handle.
    pub fn engine(&self) -> &Arc<DbtEngine> {
        &self.engine
    }

    /// Fetches a node for reading, **read-any** style: if the client knows
    /// the node has replicas, it rotates over primary and replicas so read
    /// load spreads across their servers.  A replica with no version at this
    /// snapshot (the set changed, or the promotion postdates the snapshot)
    /// falls back to the primary — under snapshot isolation a replica is
    /// otherwise byte-identical to the primary (see [`crate::replica`]), so
    /// the fallback is the only correctness hook the read path needs.
    fn fetch_view_any(&self, txn: &Txn, oid: Oid, fetches: &mut u64) -> Result<Option<NodeView>> {
        let counters = self.engine.counters();
        let replicas = self.engine.replicas();
        if let Some(roid) = replicas.choose(self.tree, oid) {
            counters.node_fetches.inc();
            count(TraceCounter::NodeFetches, 1);
            *fetches += 1;
            if let Some(view) = fetch_view(txn, self.tree, roid)? {
                counters.replica_reads.inc();
                count(TraceCounter::ReplicaReads, 1);
                return Ok(Some(view));
            }
            replicas.forget(self.tree, oid);
        }
        counters.node_fetches.inc();
        count(TraceCounter::NodeFetches, 1);
        *fetches += 1;
        let view = fetch_view(txn, self.tree, oid)?;
        // Keep the client's replica map in sync with what the primary page
        // says (pages are where replica sets live; the map is just a hint).
        if let Some(v) = &view {
            if v.has_replicas() {
                replicas.learn(self.tree, oid, &v.replicas());
            } else {
                replicas.forget(self.tree, oid);
            }
        }
        Ok(view)
    }

    /// Phase 1 of a search for `key`: the path from the root as far as the
    /// inner-node cache routes it, with no RPC.  Its last oid is the node
    /// phase 2 fetches first — the leaf, when the cache is warm and right.
    ///
    /// Termination is guaranteed by the depth bound alone — O(depth), unlike
    /// a per-step scan of the whole path, which made deep descents
    /// O(depth²).  The `child != cur` guard only short-circuits the trivial
    /// self-loop a corrupt cache entry could produce; longer cycles run into
    /// the depth bound.
    fn cached_path(&self, key: &[u8]) -> Vec<Oid> {
        let cache = self.engine.cache();
        let mut path: Vec<Oid> = vec![ROOT_OID];
        if self.engine.config().cache_inner_nodes {
            while path.len() < MAX_SEARCH_DEPTH {
                let cur = *path.last().expect("path never empty");
                match cache.get(self.tree, cur) {
                    Some(inner) if inner.fence_contains(key) => {
                        match inner.child_for(key) {
                            Ok(child) if child != cur => path.push(child),
                            // A cached page that cannot route (corrupt or
                            // self-referential) is simply not descended
                            // through; phase 2 will verify and invalidate.
                            _ => break,
                        }
                    }
                    _ => break,
                }
            }
        }
        path
    }

    /// The object a search for `key` fetches first — with a warm cache, the
    /// leaf — named from the cache alone, with no RPC, so that a statement
    /// can [`Txn::prefetch`] the leaves it is about to search together.
    /// `None` for a node the client knows to be replicated: the search picks
    /// one of its copies by rotation, and which one cannot be named ahead.
    pub fn leaf_to_fetch(&self, key: &[u8]) -> Option<ObjectId> {
        let oid = *self.cached_path(key).last().expect("path never empty");
        (!self.engine.replicas().lists(self.tree, oid)).then(|| ObjectId::new(self.tree, oid))
    }

    /// Finds the leaf responsible for `key` at the transaction's snapshot.
    pub(crate) fn find_leaf(&self, txn: &Txn, key: &[u8]) -> Result<LeafRef> {
        let cfg = self.engine.config();
        let counters = self.engine.counters();
        let cache = self.engine.cache();

        let mut path = self.cached_path(key);

        // Phase 2: verified descent.
        let mut idx = path.len() - 1;
        let mut restarts = 0usize;
        let mut fetches = 0u64;
        loop {
            let oid = path[idx];
            let fetched = self.fetch_view_any(txn, oid, &mut fetches)?;
            match fetched {
                Some(NodeView::Leaf(leaf)) if leaf.fence_contains(key) => {
                    if self.engine.stats().obs().timing_on() {
                        counters.descent_fetches.record(fetches);
                    }
                    path.truncate(idx + 1);
                    return Ok(LeafRef { path, leaf });
                }
                Some(NodeView::Inner(inner)) if inner.fence_contains(key) => {
                    let child = inner.child_for(key)?;
                    if cfg.cache_inner_nodes {
                        // The cache stores the view; later hits clone it
                        // (a refcount bump) instead of re-fetching.
                        cache.put(self.tree, oid, inner);
                    }
                    // An inner node that had to be fetched is read traffic
                    // on its server; hot inner nodes (the root above all)
                    // are what replication exists to relieve.
                    self.track_inner_access(oid);
                    path.truncate(idx + 1);
                    path.push(child);
                    idx += 1;
                    if idx >= MAX_SEARCH_DEPTH {
                        return Err(Error::Corruption(format!(
                            "search path in tree {} exceeded depth {MAX_SEARCH_DEPTH}",
                            self.tree
                        )));
                    }
                    continue;
                }
                None if oid == ROOT_OID => {
                    return Err(Error::NotFound(format!(
                        "tree {} has no root node (was it created?)",
                        self.tree
                    )));
                }
                // Stale cache: wrong fence interval, or a node that does not
                // exist at this snapshot.
                _ => {
                    cache.invalidate(self.tree, oid);
                    restarts += 1;
                    counters.search_restarts.inc();
                    if restarts > MAX_SEARCH_RESTARTS {
                        return Err(Error::Internal(format!(
                            "search for key in tree {} did not converge after {restarts} restarts",
                            self.tree
                        )));
                    }
                    if cfg.back_down_search && idx > 0 {
                        counters.back_downs.inc();
                        idx -= 1;
                        path.truncate(idx + 1);
                    } else {
                        path.clear();
                        path.push(ROOT_OID);
                        idx = 0;
                    }
                }
            }
        }
    }

    /// Records an access to a leaf and routes the node to the right remedy
    /// if it just became hot: **write-heavy** hot leaves are load-split
    /// (spreading the key range over servers), **read-heavy** hot leaves are
    /// replicated (spreading the read traffic over copies) when replication
    /// is enabled — replicating a write-heavy node would only multiply its
    /// write fan-out, and splitting a read-heavy node leaves each half's
    /// server as loaded as before when the hot set is small.
    fn track_access(&self, oid: Oid, leaf_len: usize, write: bool) {
        let cfg = self.engine.config();
        let replication = self.engine.replication_enabled();
        if !cfg.load_splits && !replication {
            return;
        }
        let Some(hot) = self.engine.load().record(self.tree, oid, write) else {
            return;
        };
        if replication && !hot.write_heavy() {
            self.engine.request_replicate(self.tree, oid);
        } else if cfg.load_splits && leaf_len >= 2 {
            self.engine.request_split(SplitRequest {
                tree: self.tree,
                oid,
                reason: SplitReason::Load,
            });
        }
    }

    /// Records a fetch of an inner node; a read-hot inner node (the upper
    /// levels of the tree, when caches are cold or churning) is promoted to
    /// a replica set.  Inner nodes are never load-split from here — their
    /// routing load follows their children's, which splitting does not
    /// change.
    fn track_inner_access(&self, oid: Oid) {
        if !self.engine.replication_enabled() {
            return;
        }
        if let Some(hot) = self.engine.load().record(self.tree, oid, false) {
            if !hot.write_heavy() {
                self.engine.request_replicate(self.tree, oid);
            }
        }
    }

    /// Looks up `key`, returning its value if present.
    ///
    /// The returned [`Bytes`] is a zero-copy slice of the fetched leaf
    /// buffer, so holding it keeps the whole encoded leaf (typically a few
    /// KB) alive.  Callers that retain many values long-term should copy
    /// them out (`Bytes::copy_from_slice(&v)`); callers that consume values
    /// immediately — the common case — pay no copy at all.
    pub fn lookup(&self, txn: &Txn, key: &[u8]) -> Result<Option<Bytes>> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().lookups.inc();
        let lr = self.find_leaf(txn, key)?;
        self.track_access(lr.oid(), lr.leaf.len(), false);
        lr.leaf.find(key)
    }

    /// Inserts (or replaces) `key` → `value`.  Returns true if an existing
    /// value was replaced.
    pub fn insert(&self, txn: &Txn, key: &[u8], value: &[u8]) -> Result<bool> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().inserts.inc();
        let lr = self.find_leaf(txn, key)?;
        let (page, replaced) = lr.leaf.put(key, value)?;
        self.write_leaf(txn, &lr, page, lr.leaf.len() + usize::from(!replaced))?;
        Ok(replaced)
    }

    /// Inserts `key` → `value` unless `key` is already present; returns true
    /// if it was inserted.  One descent and one probe decide and write —
    /// what a uniqueness check followed by an insert would fetch twice — and
    /// a `false` buffers nothing in the transaction.
    pub fn insert_if_absent(&self, txn: &Txn, key: &[u8], value: &[u8]) -> Result<bool> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().inserts.inc();
        let lr = self.find_leaf(txn, key)?;
        match lr.leaf.put_if_absent(key, value)? {
            Some(page) => {
                self.write_leaf(txn, &lr, page, lr.leaf.len() + 1)?;
                Ok(true)
            }
            None => {
                self.track_access(lr.oid(), lr.leaf.len(), false);
                Ok(false)
            }
        }
    }

    /// Buffers the edited `page` of the leaf `lr` found, under its primary
    /// oid and every replica oid (write-all: the edit kept the replica list
    /// the fetched page had).  A leaf left over its size bound is split in
    /// this transaction, or the splitter is asked to.
    fn write_leaf(&self, txn: &Txn, lr: &LeafRef, page: Bytes, new_len: usize) -> Result<()> {
        self.engine
            .wrote_fetched(ObjectId::new(self.tree, lr.oid()));
        put_node_all(
            txn,
            self.tree,
            lr.oid(),
            page,
            &lr.leaf.replicas(),
            &self.engine.counters().replica_fanout_writes,
        )?;
        self.track_access(lr.oid(), new_len, true);
        if new_len > self.engine.config().leaf_max_cells {
            match self.engine.config().split_mode {
                SplitMode::Synchronous => {
                    let ctx = self.engine.split_ctx();
                    let idx = lr.path.len() - 1;
                    split_node_in_txn(&ctx, txn, self.tree, &lr.path, idx, SplitReason::Size)?;
                }
                SplitMode::Delegated => {
                    self.engine.request_split(SplitRequest {
                        tree: self.tree,
                        oid: lr.oid(),
                        reason: SplitReason::Size,
                    });
                }
            }
        }
        Ok(())
    }

    /// The leaf a cell edit of `key` goes to without fetching it, if it may
    /// (module docs, "Edits that go unread").  No RPC.
    fn unread_leaf(&self, txn: &Txn, key: &[u8]) -> Option<ObjectId> {
        let cfg = self.engine.config();
        if !cfg.cache_inner_nodes || cfg.split_mode != SplitMode::Delegated {
            return None;
        }
        let path = self.cached_path(key);
        if let [.., parent, _] = path[..] {
            if self.engine.cache().get(self.tree, parent)?.height() != 1 {
                return None;
            }
        }
        let leaf = *path.last().expect("path never empty");
        let obj = ObjectId::new(self.tree, leaf);
        let listed = self.engine.replicas().lists(self.tree, leaf);
        let fetch = listed || self.engine.was_refused(obj);
        (!fetch && txn.may_edit_unread(obj)).then_some(obj)
    }

    /// Whether a [`Dbt::put_unread`], [`Dbt::insert_if_absent_unread`] or
    /// [`Dbt::remove_unread`] of `key` would go unread now, so that a
    /// statement leaves its leaf out of the leaves it fetches first.
    pub fn edits_unread(&self, txn: &Txn, key: &[u8]) -> bool {
        self.unread_leaf(txn, key).is_some()
    }

    /// Buffers `edit` of its key's leaf unread, if it may: `None` if the
    /// write must take the fetch path, else what [`Txn::edit_cell`]
    /// answers.
    fn edit_unread(&self, txn: &Txn, edit: CellEdit) -> Result<Option<bool>> {
        let Some(obj) = self.unread_leaf(txn, &edit.key) else {
            return Ok(None);
        };
        let _dbt_span = span(SpanKind::Dbt);
        let (cfg, counters) = (self.engine.config(), self.engine.counters());
        let kind = if edit.value.is_some() {
            &counters.inserts
        } else {
            &counters.deletes
        };
        kind.inc();
        let added = txn.edit_cell(obj, edit, cfg.leaf_max_cells, self.engine.on_report())?;
        // The leaf's length is not known here; 2 lets a write-hot leaf be
        // load-split, and the splitter checks the length it reads.
        self.track_access(obj.oid, 2, true);
        Ok(Some(added))
    }

    /// Inserts or replaces `key` → `value` for a caller that needs no
    /// answer from the leaf: unread where it may go unread (module docs),
    /// else through [`Dbt::insert`].
    pub fn put_unread(&self, txn: &Txn, key: &[u8], value: &[u8]) -> Result<()> {
        let edit = CellEdit::put(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        if self.edit_unread(txn, edit)?.is_none() {
            self.insert(txn, key, value)?;
        }
        Ok(())
    }

    /// Inserts `key` → `value` unless `key` is present, answering at the
    /// commit: unread where it may go unread (module docs), the put-if-absent
    /// the leaf's participant applies, which fails the commit with
    /// [`Error::KeyPresent`] if the snapshot's leaf holds `key`; else
    /// through [`Dbt::insert_if_absent`].  False only if `key` is known
    /// present now: found by the fetch path, or put by this transaction.
    pub fn insert_if_absent_unread(&self, txn: &Txn, key: &[u8], value: &[u8]) -> Result<bool> {
        let (k, v) = (Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        match self.edit_unread(txn, CellEdit::put_if_absent(k, v))? {
            Some(added) => Ok(added),
            None => self.insert_if_absent(txn, key, value),
        }
    }

    /// Removes `key`, if present, for a caller that needs no answer from
    /// the leaf: unread where it may go unread (module docs), else through
    /// [`Dbt::delete`].
    pub fn remove_unread(&self, txn: &Txn, key: &[u8]) -> Result<()> {
        if self
            .edit_unread(txn, CellEdit::remove(Bytes::copy_from_slice(key)))?
            .is_none()
        {
            self.delete(txn, key)?;
        }
        Ok(())
    }

    /// Deletes `key`.  Returns true if it existed.
    pub fn delete(&self, txn: &Txn, key: &[u8]) -> Result<bool> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().deletes.inc();
        let lr = self.find_leaf(txn, key)?;
        // A miss (the common case for blind deletes) rewrites nothing.
        match lr.leaf.remove(key)? {
            Some(page) => {
                self.write_leaf(txn, &lr, page, lr.leaf.len() - 1)?;
                Ok(true)
            }
            None => {
                self.track_access(lr.oid(), lr.leaf.len(), false);
                Ok(false)
            }
        }
    }

    /// Opens a forward cursor over `[start, end)`.  `None` bounds mean
    /// "from the smallest key" / "to the end of the tree".
    pub fn scan<'a>(
        &self,
        txn: &'a Txn,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<DbtCursor<'a>> {
        Ok(DbtCursor::new(txn, self.scan_raw(txn, start, end)?))
    }

    /// Opens the transaction-free scan state over `[start, end)`; the same
    /// transaction must be passed to every [`RawCursor::next_entry`] call.
    /// This is the shape owned operator trees (the SQL executor) store.
    pub fn scan_raw(
        &self,
        txn: &Txn,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<RawCursor> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().scans.inc();
        let start_key = start.unwrap_or(b"");
        let lr = self.find_leaf(txn, start_key)?;
        let idx = lr.leaf.lower_bound(start_key)?;
        Ok(RawCursor::new(
            self.tree,
            lr.leaf,
            idx,
            end.map(|e| e.to_vec()),
            Arc::clone(&self.engine.counters().scan_leaf_fetches),
        ))
    }

    /// Returns the last entry whose key is strictly below `hi` (or the last
    /// entry of the tree when `hi` is `None`).
    ///
    /// The tree has no left-sibling pointers, so this is a verified descent
    /// from the root that backtracks through earlier children when a subtree
    /// turns out to hold nothing below the bound — O(height) node fetches in
    /// the common case.  This is what compiles `MAX(col)` over an indexed
    /// column into a bounded read instead of a full scan.
    pub fn seek_last(&self, txn: &Txn, hi: Option<&[u8]>) -> Result<Option<(Bytes, Bytes)>> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().scans.inc();
        self.last_under(txn, ROOT_OID, hi, 0)
    }

    fn last_under(
        &self,
        txn: &Txn,
        oid: Oid,
        hi: Option<&[u8]>,
        depth: usize,
    ) -> Result<Option<(Bytes, Bytes)>> {
        if depth >= MAX_SEARCH_DEPTH {
            return Err(Error::Corruption(format!(
                "reverse seek in tree {} exceeded depth {MAX_SEARCH_DEPTH}",
                self.tree
            )));
        }
        self.engine.counters().node_fetches.inc();
        count(TraceCounter::NodeFetches, 1);
        match fetch_view(txn, self.tree, oid)? {
            None if oid == ROOT_OID => Err(Error::NotFound(format!(
                "tree {} has no root node (was it created?)",
                self.tree
            ))),
            // The descent never trusts the cache, so a dangling child means
            // a damaged tree at this snapshot.
            None => Err(Error::Corruption(format!(
                "child pointer {}:{oid} dangles at this snapshot",
                self.tree
            ))),
            Some(NodeView::Leaf(leaf)) => {
                let idx = match hi {
                    Some(h) => leaf.lower_bound(h)?,
                    None => leaf.len(),
                };
                if idx == 0 {
                    Ok(None)
                } else {
                    leaf.cell_bytes(idx - 1).map(Some)
                }
            }
            Some(NodeView::Inner(inner)) => {
                // Start at the child responsible for the bound; children to
                // its left hold strictly smaller keys, so walk leftwards
                // only when a subtree is empty below the bound.
                let start = match hi {
                    Some(h) if inner.fence_contains(h) => inner.child_index(h)?,
                    _ => inner.len() - 1,
                };
                for j in (0..=start).rev() {
                    if let Some(found) = self.last_under(txn, inner.child(j), hi, depth + 1)? {
                        return Ok(Some(found));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Opens a cursor over exactly the keys that start with `prefix`.
    ///
    /// The upper bound is the smallest byte string greater than every key
    /// with that prefix (computed here, not by the caller), so the scan
    /// stops at the bound instead of over-reading and filtering client-side.
    /// This is the shape of a secondary-index equality scan: the prefix is
    /// the encoded indexed values and the entries differ only in their
    /// rowid suffix.
    pub fn scan_prefix<'a>(&self, txn: &'a Txn, prefix: &[u8]) -> Result<DbtCursor<'a>> {
        let end = prefix_successor(prefix);
        self.scan(txn, Some(prefix), end.as_deref())
    }

    /// Number of keys in the tree (full scan; tests and small tools only).
    ///
    /// Walks the leaf chain and sums per-leaf cell counts from the page
    /// headers — no cell is decoded, nothing is allocated per key.
    pub fn count(&self, txn: &Txn) -> Result<u64> {
        let _dbt_span = span(SpanKind::Dbt);
        self.engine.counters().scans.inc();
        let counters = self.engine.counters();
        let lr = self.find_leaf(txn, b"")?;
        let mut n = lr.leaf.len() as u64;
        let mut next = lr.leaf.next();
        while let Some(oid) = next {
            counters.scan_leaf_fetches.inc();
            count(TraceCounter::NodeFetches, 1);
            let leaf = fetch_leaf_sibling(txn, self.tree, oid)?;
            n += leaf.len() as u64;
            next = leaf.next();
        }
        Ok(n)
    }

    /// Height of the tree at the transaction's snapshot (0 = the root is a
    /// leaf).  Diagnostics and tests.
    pub fn height(&self, txn: &Txn) -> Result<u8> {
        let root = fetch_view(txn, self.tree, ROOT_OID)?
            .ok_or_else(|| Error::NotFound(format!("tree {} has no root", self.tree)))?;
        Ok(root.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yesquel_common::DbtConfig;
    use yesquel_kv::KvDatabase;

    fn setup(nservers: usize, cfg: DbtConfig) -> (KvDatabase, Arc<DbtEngine>, Dbt) {
        let db = KvDatabase::with_servers(nservers);
        let engine = DbtEngine::new(db.client(), cfg);
        engine.create_tree(1).unwrap();
        let dbt = engine.tree(1);
        (db, engine, dbt)
    }

    fn small_cfg() -> DbtConfig {
        DbtConfig {
            leaf_max_cells: 4,
            inner_max_children: 4,
            split_mode: SplitMode::Synchronous,
            load_splits: false,
            ..DbtConfig::default()
        }
    }

    fn key(i: u64) -> Vec<u8> {
        yesquel_common::encoding::order_encode_i64(i as i64).to_vec()
    }

    #[test]
    fn insert_lookup_delete_single_leaf() {
        let (_db, _engine, dbt) = setup(2, DbtConfig::default());
        let txn = _db.client().begin();
        assert_eq!(dbt.lookup(&txn, b"a").unwrap(), None);
        assert!(!dbt.insert(&txn, b"a", b"1").unwrap());
        assert!(!dbt.insert(&txn, b"b", b"2").unwrap());
        assert!(dbt.insert(&txn, b"a", b"1bis").unwrap());
        assert_eq!(
            dbt.lookup(&txn, b"a").unwrap().as_deref(),
            Some(&b"1bis"[..])
        );
        assert!(dbt.delete(&txn, b"a").unwrap());
        assert!(!dbt.delete(&txn, b"a").unwrap());
        assert_eq!(dbt.lookup(&txn, b"a").unwrap(), None);
        txn.commit().unwrap();
    }

    #[test]
    fn uncommitted_writes_invisible_to_other_transactions() {
        let (db, _engine, dbt) = setup(2, DbtConfig::default());
        let txn = db.client().begin();
        dbt.insert(&txn, b"k", b"v").unwrap();
        let other = db.client().begin();
        assert_eq!(dbt.lookup(&other, b"k").unwrap(), None);
        other.commit().unwrap();
        txn.commit().unwrap();
        let after = db.client().begin();
        assert_eq!(
            dbt.lookup(&after, b"k").unwrap().as_deref(),
            Some(&b"v"[..])
        );
        after.commit().unwrap();
    }

    #[test]
    fn synchronous_splits_grow_tree_and_preserve_data() {
        let (db, _engine, dbt) = setup(4, small_cfg());
        let n = 200u64;
        for i in 0..n {
            let txn = db.client().begin();
            dbt.insert(&txn, &key(i), format!("val{i}").as_bytes())
                .unwrap();
            txn.commit().unwrap();
        }
        let txn = db.client().begin();
        assert!(dbt.height(&txn).unwrap() >= 2, "tree should have grown");
        assert_eq!(dbt.count(&txn).unwrap(), n);
        for i in 0..n {
            let v = dbt.lookup(&txn, &key(i)).unwrap().expect("present");
            assert_eq!(&v[..], format!("val{i}").as_bytes());
        }
        txn.commit().unwrap();
        assert!(db.stats().counter("dbt.splits").get() > 10);
        assert!(db.stats().counter("dbt.root_splits").get() >= 1);
    }

    #[test]
    fn delegated_splits_reach_same_state() {
        let cfg = DbtConfig {
            leaf_max_cells: 4,
            inner_max_children: 4,
            split_mode: SplitMode::Delegated,
            load_splits: false,
            ..DbtConfig::default()
        };
        let (db, engine, dbt) = setup(4, cfg);
        let n = 300u64;
        let client = db.client();
        for i in 0..n {
            // Delegated splits commit concurrently with these transactions,
            // so an individual attempt may hit a write-write conflict; the
            // retry wrapper is the intended usage pattern.
            client
                .run_txn(|txn| dbt.insert(txn, &key(i), b"x"))
                .unwrap();
        }
        engine.wait_for_splits();
        let txn = db.client().begin();
        assert_eq!(dbt.count(&txn).unwrap(), n);
        assert!(dbt.height(&txn).unwrap() >= 1);
        for i in (0..n).step_by(17) {
            assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
        }
        txn.commit().unwrap();
        assert!(db.stats().counter("dbt.splits").get() >= 1);
    }

    #[test]
    fn random_order_inserts_scan_sorted() {
        let (db, _engine, dbt) = setup(3, small_cfg());
        let mut keys: Vec<u64> = (0..150).collect();
        // Deterministic shuffle.
        keys.sort_by_key(|k| yesquel_common::ids::splitmix64(*k));
        let txn = db.client().begin();
        for k in &keys {
            dbt.insert(&txn, &key(*k), b"v").unwrap();
        }
        let collected: Vec<Bytes> = dbt
            .scan(&txn, None, None)
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        let mut expected: Vec<Vec<u8>> = (0..150u64).map(key).collect();
        expected.sort();
        assert_eq!(collected, expected);
        txn.commit().unwrap();
    }

    #[test]
    fn range_scan_bounds() {
        let (db, _engine, dbt) = setup(2, small_cfg());
        let txn = db.client().begin();
        for i in 0..50u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        let got: Vec<Bytes> = dbt
            .scan(&txn, Some(&key(10)), Some(&key(20)))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        let expected: Vec<Vec<u8>> = (10..20u64).map(key).collect();
        assert_eq!(got, expected);
        // Empty range.
        assert_eq!(
            dbt.scan(&txn, Some(&key(30)), Some(&key(30)))
                .unwrap()
                .count(),
            0
        );
        txn.commit().unwrap();
    }

    #[test]
    fn bounded_scan_stops_without_fetching_past_the_bound() {
        let (db, _engine, dbt) = setup(2, small_cfg());
        let txn = db.client().begin();
        for i in 0..50u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        let txn = db.client().begin();
        let lr = dbt.find_leaf(&txn, &key(0)).unwrap();
        let n0 = lr.leaf.len();
        assert!(lr.leaf.next().is_some(), "tree should have several leaves");
        // End the scan exactly at the first leaf's upper fence (the first
        // key of its right sibling): the cursor must stop on the fence
        // check alone, without fetching the sibling.
        let end = key(n0 as u64);
        let before = db.stats().counter("dbt.scan_leaf_fetches").get();
        let got = dbt.scan(&txn, None, Some(&end)).unwrap().count();
        assert_eq!(got, n0);
        assert_eq!(
            db.stats().counter("dbt.scan_leaf_fetches").get(),
            before,
            "scan bounded at a leaf boundary must not fetch the next leaf"
        );
        txn.commit().unwrap();
    }

    #[test]
    fn scan_prefix_yields_exactly_prefixed_keys() {
        let (db, _engine, dbt) = setup(2, small_cfg());
        let txn = db.client().begin();
        for k in [
            &[1u8, 1][..],
            &[1, 2],
            &[2],
            &[2, 0],
            &[2, 255],
            &[2, 255, 255],
            &[3, 0],
        ] {
            dbt.insert(&txn, k, b"v").unwrap();
        }
        let got: Vec<Bytes> = dbt
            .scan_prefix(&txn, &[2])
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        let expected: Vec<&[u8]> = vec![&[2], &[2, 0], &[2, 255], &[2, 255, 255]];
        assert_eq!(got, expected);
        // An all-0xff prefix has no successor: the scan is unbounded above.
        dbt.insert(&txn, &[255, 255, 7], b"v").unwrap();
        assert_eq!(dbt.scan_prefix(&txn, &[255, 255]).unwrap().count(), 1);
        txn.commit().unwrap();
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor(&[1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_successor(&[1, 0xff]), Some(vec![2]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(&[]), None);
    }

    #[test]
    fn cache_makes_warm_lookups_single_fetch() {
        let (db, engine, dbt) = setup(
            4,
            DbtConfig {
                leaf_max_cells: 8,
                ..DbtConfig::default()
            },
        );
        // Build a tree of a few hundred keys so there are inner nodes.
        let txn = db.client().begin();
        for i in 0..400u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        engine.wait_for_splits();

        // Warm the cache.
        let txn = db.client().begin();
        for i in 0..400u64 {
            dbt.lookup(&txn, &key(i)).unwrap();
        }
        txn.commit().unwrap();

        // Measure fetches per warm lookup.
        let before = db.stats().counter("dbt.node_fetches").get();
        let txn = db.client().begin();
        let lookups = 200u64;
        for i in 0..lookups {
            assert!(dbt.lookup(&txn, &key(i * 2)).unwrap().is_some());
        }
        txn.commit().unwrap();
        let fetches = db.stats().counter("dbt.node_fetches").get() - before;
        let per_lookup = fetches as f64 / lookups as f64;
        assert!(
            per_lookup < 1.6,
            "warm lookups should fetch ~1 node, measured {per_lookup:.2}"
        );
    }

    #[test]
    fn no_cache_fetches_whole_path() {
        let cfg = DbtConfig {
            leaf_max_cells: 8,
            ..DbtConfig::ablation_no_cache()
        };
        let (db, engine, dbt) = setup(4, cfg);
        let txn = db.client().begin();
        for i in 0..400u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        engine.wait_for_splits();

        let txn = db.client().begin();
        let height = dbt.height(&txn).unwrap() as f64;
        let before = db.stats().counter("dbt.node_fetches").get();
        let lookups = 100u64;
        for i in 0..lookups {
            dbt.lookup(&txn, &key(i * 3)).unwrap();
        }
        let fetches = db.stats().counter("dbt.node_fetches").get() - before;
        txn.commit().unwrap();
        let per_lookup = fetches as f64 / lookups as f64;
        assert!(
            per_lookup >= height,
            "without a cache every lookup must walk the path: {per_lookup:.2} < height {height}"
        );
    }

    #[test]
    fn stale_cache_recovers_via_back_down() {
        // Two engines over the same deployment: engine A builds its cache,
        // engine B splits nodes underneath it, then A must still find keys.
        let db = KvDatabase::with_servers(3);
        let cfg = DbtConfig {
            leaf_max_cells: 4,
            inner_max_children: 4,
            split_mode: SplitMode::Synchronous,
            load_splits: false,
            ..DbtConfig::default()
        };
        let engine_a = DbtEngine::new(db.client(), cfg.clone());
        let engine_b = DbtEngine::new(db.client(), cfg);
        engine_a.create_tree(1).unwrap();
        let dbt_a = engine_a.tree(1);
        let dbt_b = engine_b.tree(1);

        // A inserts a little and warms its cache.
        let txn = db.client().begin();
        for i in 0..30u64 {
            dbt_a.insert(&txn, &key(i), b"a").unwrap();
        }
        txn.commit().unwrap();
        let txn = db.client().begin();
        for i in 0..30u64 {
            dbt_a.lookup(&txn, &key(i)).unwrap();
        }
        txn.commit().unwrap();

        // B inserts a lot more, causing many splits A does not know about.
        let txn = db.client().begin();
        for i in 30..400u64 {
            dbt_b.insert(&txn, &key(i), b"b").unwrap();
        }
        txn.commit().unwrap();

        // A must still find everything despite its stale cache.
        let txn = db.client().begin();
        for i in (0..400u64).step_by(7) {
            assert!(
                dbt_a.lookup(&txn, &key(i)).unwrap().is_some(),
                "key {i} lost"
            );
        }
        txn.commit().unwrap();
        assert!(db.stats().counter("dbt.search_restarts").get() > 0);
    }

    #[test]
    fn load_splits_fire_on_hot_leaf() {
        let cfg = DbtConfig {
            leaf_max_cells: 64,
            load_splits: true,
            load_split_threshold: 50,
            split_mode: SplitMode::Delegated,
            // This test is about load *splits*; with replication on, the
            // read-heavy hammering below would promote the leaf instead.
            replicate_hot_nodes: false,
            ..DbtConfig::default()
        };
        let (db, engine, dbt) = setup(4, cfg);
        let txn = db.client().begin();
        for i in 0..16u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();

        // Hammer the same small key range.
        for _ in 0..40 {
            let txn = db.client().begin();
            for i in 0..4u64 {
                dbt.lookup(&txn, &key(i)).unwrap();
            }
            txn.commit().unwrap();
        }
        engine.wait_for_splits();
        assert!(
            db.stats().counter("dbt.load_splits").get() >= 1,
            "hot leaf should have triggered a load split: {}",
            db.stats().render_counters()
        );
        // Data is intact afterwards.
        let txn = db.client().begin();
        assert_eq!(dbt.count(&txn).unwrap(), 16);
        txn.commit().unwrap();
    }

    /// Configuration under which a hammered leaf promotes quickly.  The
    /// threshold is high enough that the 16 setup inserts do not tip the
    /// first hot window into the write-heavy (split) classification.
    fn replication_cfg() -> DbtConfig {
        DbtConfig {
            leaf_max_cells: 64,
            load_splits: true,
            load_split_threshold: 100,
            split_mode: SplitMode::Delegated,
            replica_factor: 2,
            ..DbtConfig::default()
        }
    }

    #[test]
    fn read_hot_leaf_promotes_and_reads_spread_to_replicas() {
        let (db, engine, dbt) = setup(4, replication_cfg());
        let txn = db.client().begin();
        for i in 0..16u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();

        // Read-hammer a small range: the leaf must be *replicated*, not
        // load-split (its traffic is read-heavy).
        for _ in 0..60 {
            let txn = db.client().begin();
            for i in 0..4u64 {
                assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
            }
            txn.commit().unwrap();
        }
        engine.wait_for_splits();
        assert!(
            db.stats().counter("dbt.replica_promotions").get() >= 1,
            "hot leaf should have been promoted: {}",
            db.stats().render_counters()
        );
        assert_eq!(
            db.stats().counter("dbt.load_splits").get(),
            0,
            "read-heavy traffic must replicate, not split"
        );

        // Further reads rotate over the copies and stay correct.
        let before = db.stats().counter("dbt.replica_reads").get();
        for _ in 0..10 {
            let txn = db.client().begin();
            for i in 0..16u64 {
                assert!(dbt.lookup(&txn, &key(i)).unwrap().is_some());
            }
            txn.commit().unwrap();
        }
        assert!(
            db.stats().counter("dbt.replica_reads").get() > before,
            "read-any should serve some reads from replicas"
        );
    }

    #[test]
    fn writes_fan_out_and_replicas_stay_byte_identical() {
        let (db, engine, dbt) = setup(4, replication_cfg());
        let client = db.client();
        let txn = client.begin();
        for i in 0..16u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        for _ in 0..60 {
            let txn = client.begin();
            for i in 0..4u64 {
                dbt.lookup(&txn, &key(i)).unwrap();
            }
            txn.commit().unwrap();
        }
        engine.wait_for_splits();
        assert!(db.stats().counter("dbt.replica_promotions").get() >= 1);

        // Writes to the replicated leaf fan out to every copy.
        for i in 0..8u64 {
            client
                .run_txn(|txn| dbt.insert(txn, &key(i), b"updated"))
                .unwrap();
        }
        assert!(db.stats().counter("dbt.replica_fanout_writes").get() >= 1);

        // Every replica listed by any reachable node is byte-identical to
        // its primary at a fresh snapshot.
        let txn = client.begin();
        let mut queue = vec![ROOT_OID];
        let mut replicated_nodes = 0;
        while let Some(oid) = queue.pop() {
            let primary = txn.get(ObjectId::new(1, oid)).unwrap().expect("node");
            let node = NodeView::parse(primary.clone()).unwrap();
            if let NodeView::Inner(inner) = &node {
                queue.extend(inner.children());
            }
            for r in node.replicas() {
                replicated_nodes += 1;
                let copy = txn.get(ObjectId::new(1, r)).unwrap().expect("replica");
                assert_eq!(primary, copy, "replica {r} of node {oid} diverged");
            }
        }
        assert!(replicated_nodes >= 1);
        for i in 0..8u64 {
            assert_eq!(
                dbt.lookup(&txn, &key(i)).unwrap().as_deref(),
                Some(&b"updated"[..])
            );
        }
        txn.commit().unwrap();
    }

    #[test]
    fn splitting_a_replicated_leaf_drops_its_replicas() {
        let (db, engine, dbt) = setup(4, replication_cfg());
        let client = db.client();
        let txn = client.begin();
        for i in 0..16u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        for _ in 0..60 {
            let txn = client.begin();
            for i in 0..16u64 {
                dbt.lookup(&txn, &key(i)).unwrap();
            }
            txn.commit().unwrap();
        }
        engine.wait_for_splits();
        assert!(db.stats().counter("dbt.replica_promotions").get() >= 1);
        let txn = client.begin();
        let lr = dbt.find_leaf(&txn, &key(0)).unwrap();
        let old_replicas = lr.leaf.replicas();
        txn.abort();
        assert!(!old_replicas.is_empty(), "leaf should be replicated");

        // Grow the leaf past its size bound so it splits.
        for i in 100..200u64 {
            client
                .run_txn(|txn| dbt.insert(txn, &key(i), b"x"))
                .unwrap();
        }
        engine.wait_for_splits();
        let txn = client.begin();
        // The old replica objects are gone at a fresh snapshot.
        for r in &old_replicas {
            assert!(
                txn.get(ObjectId::new(1, *r)).unwrap().is_none(),
                "stale replica {r} survived the split"
            );
        }
        assert_eq!(dbt.count(&txn).unwrap(), 116);
        txn.commit().unwrap();
    }

    #[test]
    fn operations_on_missing_tree_fail_cleanly() {
        let db = KvDatabase::with_servers(1);
        let engine = DbtEngine::new(db.client(), DbtConfig::default());
        let dbt = engine.tree(77);
        let txn = db.client().begin();
        match dbt.lookup(&txn, b"x") {
            Err(Error::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
        txn.abort();
    }

    #[test]
    fn atomic_multi_insert_within_one_transaction() {
        let (db, _engine, dbt) = setup(4, small_cfg());
        // A transaction inserting many keys (causing splits) either commits
        // entirely or not at all.
        let txn = db.client().begin();
        for i in 0..100u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.abort();
        let check = db.client().begin();
        assert_eq!(dbt.count(&check).unwrap(), 0);
        check.commit().unwrap();

        let txn = db.client().begin();
        for i in 0..100u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        txn.commit().unwrap();
        let check = db.client().begin();
        assert_eq!(dbt.count(&check).unwrap(), 100);
        check.commit().unwrap();
    }

    #[test]
    fn seek_last_finds_predecessor_across_leaves() {
        let (db, _engine, dbt) = setup(3, small_cfg());
        let txn = db.client().begin();
        // Empty tree: nothing below any bound.
        assert_eq!(dbt.seek_last(&txn, None).unwrap(), None);
        for i in (0..100u64).step_by(2) {
            dbt.insert(&txn, &key(i), format!("v{i}").as_bytes())
                .unwrap();
        }
        txn.commit().unwrap();
        let txn = db.client().begin();
        // Unbounded: the very last entry.
        let (k, v) = dbt.seek_last(&txn, None).unwrap().unwrap();
        assert_eq!(&k[..], &key(98)[..]);
        assert_eq!(&v[..], b"v98");
        // Exclusive bound on a present key returns its predecessor.
        let (k, _) = dbt.seek_last(&txn, Some(&key(50))).unwrap().unwrap();
        assert_eq!(&k[..], &key(48)[..]);
        // Bound between keys returns the last key below it.
        let (k, _) = dbt.seek_last(&txn, Some(&key(51))).unwrap().unwrap();
        assert_eq!(&k[..], &key(50)[..]);
        // Bound below the smallest key: nothing.
        assert_eq!(dbt.seek_last(&txn, Some(&key(0))).unwrap(), None);
        // Bound above the largest key: the last entry.
        let (k, _) = dbt.seek_last(&txn, Some(&key(1000))).unwrap().unwrap();
        assert_eq!(&k[..], &key(98)[..]);
        txn.commit().unwrap();
    }

    #[test]
    fn raw_cursor_threads_transaction_per_call() {
        let (db, _engine, dbt) = setup(2, small_cfg());
        let txn = db.client().begin();
        for i in 0..30u64 {
            dbt.insert(&txn, &key(i), b"v").unwrap();
        }
        // The raw cursor owns only scan state; the transaction is passed to
        // every pull (the shape the SQL executor's owned pipelines need).
        let mut raw = dbt.scan_raw(&txn, Some(&key(5)), Some(&key(25))).unwrap();
        let mut got = Vec::new();
        while let Some((k, _)) = raw.next_entry(&txn).unwrap() {
            got.push(k);
        }
        let expected: Vec<Vec<u8>> = (5..25u64).map(key).collect();
        assert_eq!(got, expected);
        txn.commit().unwrap();
    }

    #[test]
    fn scan_yields_page_slices() {
        // Cursor items must be zero-copy slices of the fetched leaf pages,
        // not per-item allocations.
        let (db, _engine, dbt) = setup(2, small_cfg());
        let txn = db.client().begin();
        for i in 0..20u64 {
            dbt.insert(&txn, &key(i), b"scan-value").unwrap();
        }
        txn.commit().unwrap();
        let txn = db.client().begin();
        for item in dbt.scan(&txn, None, None).unwrap() {
            let (k, v) = item.unwrap();
            // Key and value slices of one leaf page share its backing
            // allocation; both being non-empty views is the observable
            // contract (pointer identity is checked in node.rs tests).
            assert_eq!(k.len(), 8);
            assert_eq!(&v[..], b"scan-value");
        }
        txn.commit().unwrap();
    }
}
