//! Per-server multi-version storage with prepare locks.
//!
//! Each storage server owns one [`ServerStore`]: a map from [`ObjectId`] to
//! the object's committed [`VersionChain`] plus, while a transaction is
//! between its prepare and commit phases, a **prepare lock** holding the
//! staged new value.  The store also owns the server's non-transactional
//! allocation counters (used for node-id and row-id allocation).
//!
//! ## Lock striping
//!
//! The store is **lock-striped**: objects are hash-partitioned over
//! [`SHARD_COUNT`] shards, each behind its own mutex, and statistics are
//! plain atomics.  The paper's headline property — a warm client touches one
//! server per point read — only buys scalability if that one server does not
//! serialize every request behind a single lock; with striping, concurrent
//! gets to different objects proceed in parallel, and the per-request cost
//! stays flat as client concurrency grows (the scale-independence argument
//! of the SCADS line of work).
//!
//! A prepare acquires the shards it touches in **ascending shard order**,
//! which makes concurrent multi-shard validations deadlock-free.
//! `commit`/`abort` release locks shard by shard; a reader that catches a
//! transaction between two shards simply sees a still-held prepare lock
//! and retries, exactly as it would had the commit message not arrived at
//! that server yet — per-object atomicity (the invariant snapshot
//! isolation needs) is preserved by the per-shard critical sections.
//!
//! ## Durability
//!
//! When constructed with a write-ahead log ([`ServerStore::with_wal`]), the
//! store logs every state transition before it is acknowledged or becomes
//! visible, and distinguishes the records somebody must **wait for** from
//! the ones recovery can get back some other way:
//!
//! * **Forced** — appended, then waited for until an `fdatasync` covers
//!   them: every yes vote ([`WalRecord::Vote`]: a transaction is committed
//!   once every participant's vote is durable), every *refusal* (a prepare
//!   that failed validation, or arrived for a transaction already aborted
//!   here) and every *fence* (an abort recorded for a transaction this
//!   server had no record of, when a probe asks for one) and every
//!   allocation.  A refusal or a fence is what makes an abort final: no
//!   prepare of the transaction can vote yes here afterwards.
//! * **Unforced** — appended in order and left to ride this log's next
//!   flush: every commit, and every other abort.  Each only applies a fate
//!   that the forced records already settled, so if a crash drops one,
//!   replay finds the transaction still prepared and the server learns the
//!   fate again from the other participants' records
//!   ([`ServerStore::undecided`]): a commit one of them remembers, a yes
//!   vote from every one (commit at the maximum prepare timestamp), or a
//!   refusal or fence (abort).
//!
//! No lock is held across a flush.  Votes, refusals, fences and decisions
//! are appended while holding the transaction table's lock, so log order
//! matches the order in which this store learnt fates and replay
//! reconstructs exactly that history.  A forced record is then waited for
//! by nobody here: the store returns the completion the log's flusher
//! answers once it is durable ([`Wal::durable`]), and the server answers
//! with it, or, when it is the transaction's only participant, waits for
//! it with no lock held (the prepare locks already fence conflicting
//! writers).  An allocation is appended and waited for under no shard,
//! table or counter lock.  GC is the one deliberately volatile operation:
//! versions it dropped reappear after recovery (a harmless superset of
//! committed state) until the next checkpoint prunes them from the log.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock};
use yesquel_common::ids::{shard_index, splitmix64};
use yesquel_common::{Completion, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_wal::{CheckpointSnapshot, PreparedImage, Wal, WalPosition, WalRecord};

use crate::mvcc::VersionChain;
use crate::protocol::{TxnStatusKind, WriteOp};

/// Number of lock stripes per server store.  Power of two; sized so that a
/// few dozen client threads rarely collide on a stripe while keeping the
/// per-store footprint negligible.
pub const SHARD_COUNT: usize = 32;

/// Result of reading an object at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The visible value (or `None` if unwritten/deleted at the snapshot).
    Value(Option<Bytes>),
    /// The object is locked by a preparing transaction; retry shortly.
    Locked,
}

/// Result of a prepare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareOutcome {
    /// Validation passed, the locks are held, and this server's vote
    /// carries this prepare timestamp.
    Prepared(Timestamp),
    /// Committed at this timestamp: a prepare that arrived after its
    /// transaction was resolved committed.
    Committed(Timestamp),
    /// Refused: validation failed, or the transaction had already aborted
    /// here.  Nothing is locked.
    Conflict(String),
}

/// A prepare lock: the owning transaction and the value it intends to
/// install.
#[derive(Debug, Clone)]
struct PrepareLock {
    txn: TxnId,
    staged: Option<Bytes>,
}

/// Book-keeping for a transaction between its prepare and commit phases.
#[derive(Debug, Clone)]
struct PreparedTxn {
    /// Objects this transaction holds prepare locks on.
    objs: Vec<ObjectId>,
    /// Snapshot timestamp the prepare validated against (carried into
    /// checkpoint images so a recovered prepare is indistinguishable from a
    /// live one).
    start_ts: Timestamp,
    /// This server's vote: the timestamp it drew under its shard guards.
    prepare_ts: Timestamp,
    /// Every participant, this server included.
    participants: Vec<ServerId>,
    /// When the coordinator's lease expires and a resolver may fence the
    /// participants that have no record.
    lease_deadline: Instant,
    /// Restored from the log rather than prepared by a live coordinator:
    /// the fate may have been settled, and its record lost here, before the
    /// crash.
    recovered: bool,
    /// Where the vote is in the log, while it may not be durable yet.
    vote: Option<WalPosition>,
}

/// A prepared transaction as [`ServerStore::undecided`] reports it.
#[derive(Debug, Clone)]
pub struct Undecided {
    /// Transaction id.
    pub txn: TxnId,
    /// This server's prepare timestamp.
    pub prepare_ts: Timestamp,
    /// Every participant, this server included.
    pub participants: Vec<ServerId>,
    /// The lease has expired: the participants with no record get fenced.
    pub overdue: bool,
    /// Where this server's vote is in the log, while it may not be durable.
    pub vote: Option<WalPosition>,
}

/// Recorded fate of a finished transaction, kept in a bounded FIFO so that
/// retried or duplicated prepare / commit / abort messages are recognized
/// and answered idempotently instead of re-applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed here at this timestamp.
    Committed(Timestamp),
    /// The transaction aborted here: refused, fenced, or aborted once a
    /// refusal or fence elsewhere settled it.
    Aborted,
}

/// One-round [`splitmix64`] hasher for `TxnId` keys.  The outcome and
/// prepared tables sit on the commit hot path, where SipHash (the `HashMap`
/// default) is measurable; a single multiply-xorshift round gives full
/// avalanche on a 64-bit id for a fraction of the cost.
#[derive(Default, Clone)]
struct TxnIdHasher(u64);

impl std::hash::Hasher for TxnIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("TxnId keys hash via write_u64");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(x);
    }
}

type TxnIdMap<V> = HashMap<TxnId, V, std::hash::BuildHasherDefault<TxnIdHasher>>;

/// Number of transaction outcomes (committed / aborted) a server retains for
/// deduplicating retried or duplicated prepare / commit / abort messages and
/// for answering `TxnStatus`.  It must exceed, by a wide margin, the number
/// of decisions that can land between a message and its last retry — and
/// between a participant's prepare and the moment another one asks it.
const OUTCOME_RETENTION: usize = 4_096;

/// What a server knows of transactions: the prepared ones, and the fates of
/// the last [`OUTCOME_RETENTION`] finished ones in a FIFO.
#[derive(Default)]
struct TxnTable {
    prepared: TxnIdMap<PreparedTxn>,
    map: TxnIdMap<TxnOutcome>,
    order: VecDeque<TxnId>,
}

impl TxnTable {
    fn get(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.map.get(&txn).copied()
    }

    /// Records an outcome.  A `Committed` record is never downgraded: a
    /// stale abort arriving after the commit installed must not rewrite
    /// history.
    fn record(&mut self, txn: TxnId, outcome: TxnOutcome) {
        match self.map.entry(txn) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if !matches!(e.get(), TxnOutcome::Committed(_)) {
                    e.insert(outcome);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(outcome);
                self.order.push_back(txn);
                if self.order.len() > OUTCOME_RETENTION {
                    if let Some(old) = self.order.pop_front() {
                        self.map.remove(&old);
                    }
                }
            }
        }
    }

    /// The retained outcomes in FIFO order, as checkpoint images
    /// (`Some(ts)` committed, `None` aborted).  Replaying these through
    /// [`TxnTable::record`] in order reconstructs the table exactly,
    /// eviction behavior included.
    fn fifo(&self) -> Vec<(TxnId, Option<Timestamp>)> {
        self.order
            .iter()
            .filter_map(|txn| {
                self.map.get(txn).map(|o| match o {
                    TxnOutcome::Committed(ts) => (*txn, Some(*ts)),
                    TxnOutcome::Aborted => (*txn, None),
                })
            })
            .collect()
    }

    fn clear(&mut self) {
        self.prepared.clear();
        self.map.clear();
        self.order.clear();
    }
}

/// State of one object on one server.
#[derive(Debug, Default, Clone)]
struct ObjectState {
    chain: VersionChain,
    lock: Option<PrepareLock>,
}

/// Aggregate statistics of one server store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `Get` requests served.
    pub gets: u64,
    /// Number of prepares that acquired locks.
    pub prepares: u64,
    /// Number of commits applied.
    pub commits: u64,
    /// Number of aborts processed.
    pub aborts: u64,
    /// Number of validation failures.
    pub conflicts: u64,
    /// Number of reads that found a prepare lock.
    pub locked_reads: u64,
    /// Number of versions dropped by garbage collection.
    pub gc_dropped: u64,
    /// Number of retried or duplicated prepare/commit/abort messages that
    /// were answered from the outcome table instead of re-applied.
    pub dedup_hits: u64,
}

/// Atomic counters behind [`StoreStats`]; updated without any lock so the
/// striped hot paths never serialize on statistics.
#[derive(Default)]
struct StatsCells {
    gets: AtomicU64,
    prepares: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
    locked_reads: AtomicU64,
    gc_dropped: AtomicU64,
    dedup_hits: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            gets: self.gets.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            locked_reads: self.locked_reads.load(Ordering::Relaxed),
            gc_dropped: self.gc_dropped.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }
}

/// One lock stripe: the objects whose ids hash to this shard.
#[derive(Default)]
struct Shard {
    objects: HashMap<ObjectId, ObjectState>,
}

/// The storage of one server.  All methods are safe to call concurrently;
/// object state is partitioned over [`SHARD_COUNT`] independently locked
/// shards, so requests for different objects proceed in parallel.
pub struct ServerStore {
    shards: Vec<Mutex<Shard>>,
    /// Prepared transactions (objects locked, vote, participants, lease) and
    /// the fates of finished ones, for deduplicating retried and duplicated
    /// messages and answering probes.  Touched once per prepare, commit or
    /// abort, never per object, so one small mutex suffices; it is never
    /// held while a shard is locked.
    txns: Mutex<TxnTable>,
    /// Lock-free hint mirroring the number of prepared transactions, so
    /// the server's sweep of overdue prepares skips clock reads and locking
    /// entirely while no transaction is in the prepared state (the
    /// overwhelmingly common case).  Only a hint: the sweep re-checks under
    /// the real lock.
    prepared_hint: AtomicU64,
    /// Non-transactional allocation counters (a handful of objects per tree;
    /// not on the read/commit hot path).
    counters: Mutex<HashMap<ObjectId, u64>>,
    /// The write-ahead log, if this store is durable.  `None` keeps the
    /// store purely in-memory with zero logging overhead.
    wal: Option<Arc<Wal>>,
    /// Checkpoint gate: every mutating operation holds `read` across its
    /// append-then-apply critical section; [`ServerStore::checkpoint`] takes
    /// `write`, so a snapshot can never observe (and a log rotation can
    /// never drop) a record whose in-memory effect is still in flight.
    ckpt_gate: RwLock<()>,
    stats: StatsCells,
}

impl Default for ServerStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::with_wal(None)
    }

    /// Creates an empty store backed by `wal` (when `Some`): every
    /// acknowledgeable state change is logged before it is acknowledged.
    /// Call [`ServerStore::replay`] with the log's recovered records to
    /// restore pre-crash state.
    pub fn with_wal(wal: Option<Arc<Wal>>) -> Self {
        ServerStore {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            txns: Mutex::new(TxnTable::default()),
            prepared_hint: AtomicU64::new(0),
            counters: Mutex::new(HashMap::new()),
            wal,
            ckpt_gate: RwLock::new(()),
            stats: StatsCells::default(),
        }
    }

    /// The write-ahead log backing this store, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Appends the record `rec` builds without waiting for the disk, if
    /// this store has a log, and returns its position.  The record is built
    /// only then: an in-memory store copies no writes into a record.
    fn log(&self, rec: impl FnOnce() -> WalRecord) -> Result<Option<WalPosition>> {
        self.wal
            .as_ref()
            .map(|w| w.append_unforced(&rec()))
            .transpose()
    }

    /// The completion that answers once the record at `pos` is durable,
    /// answered already when there is no record to wait for.
    pub fn durable(&self, pos: Option<WalPosition>) -> Completion<()> {
        match (&self.wal, pos) {
            (Some(wal), Some(pos)) => wal.durable(pos),
            _ => Completion::ready(Ok(())),
        }
    }

    /// Shard index of an object.  Mixes both halves of the id so that the
    /// nodes of one tree spread over the stripes.
    fn shard_of(&self, obj: ObjectId) -> usize {
        shard_index(obj.tree, obj.oid, 0x5851_f42d_4c95_7f2d, SHARD_COUNT)
    }

    /// Locks, in ascending shard order, every shard touched by `writes`.
    /// Returns the sorted deduplicated shard ids alongside their guards.
    fn lock_shards_for(&self, writes: &[WriteOp]) -> Vec<(usize, MutexGuard<'_, Shard>)> {
        let mut ids: Vec<usize> = writes.iter().map(|w| self.shard_of(w.obj)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|i| (i, self.shards[i].lock()))
            .collect()
    }

    /// The guard covering `obj` within a `lock_shards_for` result.
    fn guard_for<'a, 'g>(
        &self,
        guards: &'a mut [(usize, MutexGuard<'g, Shard>)],
        obj: ObjectId,
    ) -> &'a mut Shard {
        let shard = self.shard_of(obj);
        let pos = guards
            .binary_search_by_key(&shard, |(i, _)| *i)
            .expect("object's shard must be among the locked shards");
        &mut guards[pos].1
    }

    /// Reads `obj` at snapshot `ts`.
    pub fn get(&self, obj: ObjectId, ts: Timestamp) -> ReadOutcome {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards[self.shard_of(obj)].lock();
        match shard.objects.get(&obj) {
            None => ReadOutcome::Value(None),
            Some(state) => {
                if state.lock.is_some() {
                    self.stats.locked_reads.fetch_add(1, Ordering::Relaxed);
                    ReadOutcome::Locked
                } else {
                    ReadOutcome::Value(state.chain.read_at(ts))
                }
            }
        }
    }

    /// Validates and locks `writes` on behalf of transaction `txn` reading
    /// at `start_ts`, then draws its prepare timestamp from `next_ts` (the
    /// server passes its oracle handle).  Either all writes are locked or
    /// none are.  The locks are leased: once `lease` has passed without a
    /// decision, whoever resolves the transaction fences the participants
    /// that have no record of it.
    ///
    /// The timestamp is drawn **while the shard guards are held**, after
    /// the locks are in: every snapshot above it is issued afterwards and
    /// finds the locks, so the commit, at the maximum prepare timestamp of
    /// all participants, is visible to exactly the snapshots above it.
    /// Drawn any earlier, a transaction could begin between the draw and
    /// the locks, read the old version at a snapshot above the commit, pass
    /// first-committer-wins against it and overwrite: a lost update.
    ///
    /// Idempotent under retries and duplicate deliveries: a prepared
    /// transaction reports its vote again, a committed one `Committed`, and
    /// an aborted one is refused again.  A refusal is recorded as an abort
    /// and logged, and both it and a vote come with the log's completion
    /// for the record ([`Wal::durable`]): the answer may be given only once
    /// it answers `Ok`, so no crash can undo what a coordinator was told.
    /// An `Err` means the log append failed; nothing is acknowledged and the
    /// locks taken for this prepare are released.
    pub fn prepare(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        writes: &[WriteOp],
        participants: &[ServerId],
        lease: Duration,
        next_ts: impl FnOnce() -> Timestamp,
    ) -> Result<(PrepareOutcome, Completion<()>)> {
        let _ckpt = self.ckpt_gate.read();
        let mut guards = self.lock_shards_for(writes);
        // Validation pass: no lock held by another transaction, and no
        // committed version newer than the snapshot (first-committer-wins).
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            if let Some(reason) = Self::validate_one(shard, txn, start_ts, w) {
                drop(guards);
                let mut txns = self.txns.lock();
                if let Some(known) = self.known_vote(&mut txns, txn)? {
                    return Ok(known);
                }
                self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                let refused = self.log_abort(&mut txns, txn)?;
                return Ok((PrepareOutcome::Conflict(reason), refused));
            }
        }
        // Lock pass.
        for w in writes {
            let shard = self.guard_for(&mut guards, w.obj);
            shard.objects.entry(w.obj).or_default().lock = Some(PrepareLock {
                txn,
                staged: w.value.clone(),
            });
        }
        let prepare_ts = next_ts();
        drop(guards);
        // Log after dropping the shard guards: the prepare locks already
        // block conflicting validations, and same-shard readers are not
        // stalled behind the append.  The checkpoint gate is still held, so
        // a checkpoint cannot rotate the log between the append and the
        // table insert.
        let mut txns = self.txns.lock();
        // A duplicate of this prepare, or a fence, may have got here first.
        if let Some(known) = self.known_vote(&mut txns, txn)? {
            drop(txns);
            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            if !matches!(known.0, PrepareOutcome::Prepared(_)) {
                self.release_locks_of(txn, writes.iter().map(|w| w.obj));
            }
            return Ok(known);
        }
        let vote = self.log(|| {
            WalRecord::Vote(PreparedImage {
                txn,
                start_ts,
                prepare_ts,
                participants: participants.to_vec(),
                writes: writes.to_vec(),
            })
        });
        let vote = match vote {
            Ok(vote) => vote,
            Err(e) => {
                drop(txns);
                // The prepare is not acknowledged; roll the locks back.
                self.release_locks_of(txn, writes.iter().map(|w| w.obj));
                return Err(e);
            }
        };
        txns.prepared.insert(
            txn,
            PreparedTxn {
                objs: writes.iter().map(|w| w.obj).collect(),
                start_ts,
                prepare_ts,
                participants: participants.to_vec(),
                lease_deadline: Instant::now() + lease,
                recovered: false,
                vote,
            },
        );
        self.prepared_hint.fetch_add(1, Ordering::Relaxed);
        self.stats.prepares.fetch_add(1, Ordering::Relaxed);
        Ok((PrepareOutcome::Prepared(prepare_ts), self.durable(vote)))
    }

    /// What a prepare of `txn` is answered without validating, if this
    /// server already has a record of it: its vote, its commit, or a
    /// refusal of an aborted one (see `ServerStore::record_of`).
    fn known_vote(
        &self,
        txns: &mut TxnTable,
        txn: TxnId,
    ) -> Result<Option<(PrepareOutcome, Completion<()>)>> {
        let (status, durable) = self.record_of(txns, txn, false)?;
        let vote = match status {
            TxnStatusKind::Unknown => return Ok(None),
            TxnStatusKind::Prepared(ts) => PrepareOutcome::Prepared(ts),
            TxnStatusKind::Committed(ts) => PrepareOutcome::Committed(ts),
            TxnStatusKind::Aborted => {
                PrepareOutcome::Conflict(format!("txn {txn} was already aborted here"))
            }
        };
        Ok(Some((vote, durable)))
    }

    /// Records `txn` aborted — it is not prepared here — and logs it;
    /// returns the completion that answers once the record is durable.
    fn log_abort(&self, txns: &mut TxnTable, txn: TxnId) -> Result<Completion<()>> {
        let pos = self.log(|| WalRecord::Abort { txn })?;
        txns.record(txn, TxnOutcome::Aborted);
        Ok(self.durable(pos))
    }

    /// Releases any prepare locks held by `txn` on `objs` (rollback path).
    fn release_locks_of(&self, txn: TxnId, objs: impl Iterator<Item = ObjectId>) {
        for obj in objs {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            if let Some(state) = shard.objects.get_mut(&obj) {
                if state.lock.as_ref().map(|l| l.txn == txn).unwrap_or(false) {
                    state.lock = None;
                }
            }
        }
    }

    /// First-committer-wins and lock-conflict validation of one write within
    /// its (locked) shard; returns a failure reason or `None`.
    fn validate_one(shard: &Shard, txn: TxnId, start_ts: Timestamp, w: &WriteOp) -> Option<String> {
        if let Some(state) = shard.objects.get(&w.obj) {
            if let Some(lock) = &state.lock {
                if lock.txn != txn {
                    return Some(format!("object {} locked by txn {}", w.obj, lock.txn));
                }
            }
            if state.chain.has_newer_than(start_ts) {
                return Some(format!(
                    "object {} has a version newer than snapshot {}",
                    w.obj, start_ts
                ));
            }
        }
        None
    }

    /// Decides the fate of `txn` as `want` unless this server already knows
    /// it, and returns the fate that holds and whether this call applied
    /// it.  The record is appended unforced under the table's lock, so the
    /// log's record order is the order fates became known here.  Unforced
    /// is enough: a commit or an abort only applies a fate the votes,
    /// refusals and fences have already settled, and a replay that misses
    /// it finds the transaction prepared and learns the fate again.
    ///
    /// A stale abort after the commit is ignored, and a repeat for a
    /// transaction no longer prepared here is answered from the table.  An
    /// abort of a transaction never prepared here is recorded, so that its
    /// prepare is refused if it arrives after all.  A commit of one has
    /// nothing to install and records nothing: its fate may live on at the
    /// other participants.
    fn decide(&self, txn: TxnId, want: TxnOutcome) -> Result<(TxnOutcome, bool)> {
        let txns = self.txns.lock();
        if let Some(fate) = txns.get(txn) {
            self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((fate, false));
        }
        if !txns.prepared.contains_key(&txn) && want != TxnOutcome::Aborted {
            return Ok((TxnOutcome::Aborted, false));
        }
        self.log(|| match want {
            TxnOutcome::Committed(commit_ts) => WalRecord::Commit { txn, commit_ts },
            TxnOutcome::Aborted => WalRecord::Abort { txn },
        })?;
        self.settle(txns, txn, want);
        Ok((want, true))
    }

    /// Makes a decision observable — the outcome enters the table, the
    /// transaction leaves the prepared set — then, with the table's lock
    /// released, applies it to the objects: a commit installs the staged
    /// values at its timestamp, an abort discards them; both release the
    /// prepare locks.
    fn settle(&self, mut txns: MutexGuard<'_, TxnTable>, txn: TxnId, fate: TxnOutcome) {
        let entry = txns.prepared.remove(&txn);
        if entry.is_some() {
            self.prepared_hint.fetch_sub(1, Ordering::Relaxed);
        }
        txns.record(txn, fate);
        drop(txns);
        for obj in entry.map(|p| p.objs).unwrap_or_default() {
            let mut shard = self.shards[self.shard_of(obj)].lock();
            let Some(state) = shard.objects.get_mut(&obj) else {
                continue;
            };
            // Locks are only released by their owner, so a lock of another
            // transaction here would be a protocol bug; leave it alone.
            if let Some(lock) = state.lock.take_if(|l| l.txn == txn) {
                if let TxnOutcome::Committed(commit_ts) = fate {
                    state.chain.install(commit_ts, lock.staged);
                }
            }
        }
    }

    /// Installs the versions staged by a successful prepare of `txn` at
    /// `commit_ts`, releases the locks, and returns the fate that holds.
    /// Idempotent: a re-delivered commit answers from the outcome table.  A
    /// commit for a transaction not prepared here and not known committed
    /// installs nothing and reports `Aborted`.  Logged unforced, per
    /// `ServerStore::decide`.
    pub fn commit(&self, txn: TxnId, commit_ts: Timestamp) -> Result<TxnOutcome> {
        let _ckpt = self.ckpt_gate.read();
        let (fate, applied) = self.decide(txn, TxnOutcome::Committed(commit_ts))?;
        if applied {
            self.stats.commits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(fate)
    }

    /// Releases every lock held by `txn` and discards its staged writes,
    /// and returns the fate that holds: `Aborted`, or `Committed` when the
    /// transaction had already committed here, in which case the commit
    /// stands.  Idempotent; records an `Aborted` outcome (never overwriting
    /// a commit) so duplicate prepares of this transaction are refused from
    /// then on.  Logged unforced, per `ServerStore::decide`.
    pub fn abort(&self, txn: TxnId) -> Result<TxnOutcome> {
        let _ckpt = self.ckpt_gate.read();
        let (fate, _) = self.decide(txn, TxnOutcome::Aborted)?;
        if fate == TxnOutcome::Aborted {
            self.stats.aborts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(fate)
    }

    /// What this store's records say about `txn`, for a `TxnStatus` probe,
    /// and the completion the answer waits for: a yes vote is reported once
    /// it is durable, an abort once an abort record is, and with no record
    /// `fence` records (forced) an abort, so that a prepare arriving later is
    /// refused; without it the answer is `Unknown`.
    pub fn status(&self, txn: TxnId, fence: bool) -> Result<(TxnStatusKind, Completion<()>)> {
        let _ckpt = self.ckpt_gate.read();
        self.record_of(&mut self.txns.lock(), txn, fence)
    }

    /// What this store's records say about `txn`, and the completion the
    /// answer waits for.  A yes vote is reported once it is durable, and an
    /// abort once an abort record is: logged again here, so the answer never
    /// outruns the refusal or fence that made it.  With no record, `fence`
    /// records an abort the same way, so that a prepare arriving later is
    /// refused; without it the answer is `Unknown`.
    fn record_of(
        &self,
        txns: &mut TxnTable,
        txn: TxnId,
        fence: bool,
    ) -> Result<(TxnStatusKind, Completion<()>)> {
        if let Some(p) = txns.prepared.get(&txn) {
            return Ok((TxnStatusKind::Prepared(p.prepare_ts), self.durable(p.vote)));
        }
        Ok(match txns.get(txn) {
            Some(TxnOutcome::Committed(ts)) => (TxnStatusKind::Committed(ts), self.durable(None)),
            None if !fence => (TxnStatusKind::Unknown, self.durable(None)),
            _ => (TxnStatusKind::Aborted, self.log_abort(txns, txn)?),
        })
    }

    /// What this store knows about `txn`'s fate (outcome table only; a
    /// still-prepared transaction reports `None` — see
    /// [`ServerStore::is_prepared`]).
    pub fn outcome(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.txns.lock().get(txn)
    }

    /// True if `txn` is currently prepared (locks held) at this store.
    pub fn is_prepared(&self, txn: TxnId) -> bool {
        self.txns.lock().prepared.contains_key(&txn)
    }

    /// Number of transactions currently holding prepare locks.
    pub fn prepared_count(&self) -> usize {
        self.txns.lock().prepared.len()
    }

    /// The transaction holding the prepare lock on `obj`, if any.
    pub fn lock_holder(&self, obj: ObjectId) -> Option<TxnId> {
        let shard = self.shards[self.shard_of(obj)].lock();
        Some(shard.objects.get(&obj)?.lock.as_ref()?.txn)
    }

    /// Lock-free check for "is anything prepared at all", the gate of the
    /// server's sweep.  Approximate during concurrent prepare/commit, exact
    /// when quiescent.
    pub fn has_prepared(&self) -> bool {
        self.prepared_hint.load(Ordering::Relaxed) != 0
    }

    /// The prepared transactions to resolve: `txn` alone, whenever it is
    /// prepared (somebody met it), or, when `None`, those a sweep resolves —
    /// every one whose lease has expired, and every one restored from the
    /// log, whose fate may have been settled before the crash.  Returned by
    /// value so the server can resolve them, RPCs included, without holding
    /// any store lock.
    pub fn undecided(&self, txn: Option<TxnId>) -> Vec<Undecided> {
        let now = Instant::now();
        let txns = self.txns.lock();
        let undecided = |(txn, p): (&TxnId, &PreparedTxn)| Undecided {
            txn: *txn,
            prepare_ts: p.prepare_ts,
            participants: p.participants.clone(),
            overdue: p.lease_deadline <= now,
            vote: p.vote,
        };
        match txn {
            Some(txn) => Vec::from_iter(txns.prepared.get_key_value(&txn).map(undecided)),
            None => txns
                .prepared
                .iter()
                .filter(|(_, p)| p.recovered || p.lease_deadline <= now)
                .map(undecided)
                .collect(),
        }
    }

    /// Committed version history of `obj`, newest first, as
    /// `(timestamp, value)` pairs.  White-box accessor for durability and
    /// double-apply assertions in the chaos tests.
    pub fn dump_versions(&self, obj: ObjectId) -> Vec<(Timestamp, Option<Bytes>)> {
        let shard = self.shards[self.shard_of(obj)].lock();
        shard
            .objects
            .get(&obj)
            .map(|state| {
                state
                    .chain
                    .versions()
                    .iter()
                    .map(|v| (v.ts, v.value.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Atomically adds `delta` to the counter at `obj`, returning the
    /// pre-increment value.  Durable stores log the post-increment value
    /// before acknowledging (replay takes the maximum, so concurrent
    /// allocations commute); losing an acknowledged allocation would hand
    /// out already-used ids after recovery.
    pub fn allocate(&self, obj: ObjectId, delta: u64) -> Result<u64> {
        let _ckpt = self.ckpt_gate.read();
        let (start, value) = {
            let mut g = self.counters.lock();
            let c = g.entry(obj).or_insert(0);
            let start = *c;
            *c += delta;
            (start, *c)
        };
        // On append failure the in-memory counter stays advanced: the ids
        // are burned, never re-issued, which is safe for id allocation.
        if let Some(wal) = &self.wal {
            wal.append(&WalRecord::Alloc { obj, value })?;
        }
        Ok(start)
    }

    /// Drops every piece of volatile state — committed versions, prepare
    /// locks, the prepared table, the outcome table, allocation counters —
    /// as an amnesia crash would.  Statistics survive: they are
    /// observability, not state, and resetting them mid-chaos-run would
    /// hide what happened before the crash.
    pub fn wipe_volatile(&self) {
        let _gate = self.ckpt_gate.write();
        for shard in &self.shards {
            shard.lock().objects.clear();
        }
        self.txns.lock().clear();
        self.prepared_hint.store(0, Ordering::Relaxed);
        self.counters.lock().clear();
    }

    /// Replays the clean-prefix records recovered from the log into this
    /// store.  Must run on a freshly wiped (or freshly constructed) store
    /// before it serves traffic.  Recovered prepares get `lease` from now
    /// and are resolved through the other participants
    /// ([`ServerStore::undecided`]).  Returns the number of transaction
    /// fates restored.
    pub fn replay(&self, records: &[WalRecord], lease: Duration) -> u64 {
        let mut recovered = 0u64;
        for rec in records {
            match rec {
                WalRecord::Checkpoint(snap) => {
                    recovered += self.apply_checkpoint(snap, lease);
                }
                // Nothing in the store writes the earlier protocol's record.
                WalRecord::Prepare { .. } => {}
                WalRecord::Vote(p) => {
                    // A vote whose fate appears earlier in the log was
                    // already resolved; do not resurrect its locks.
                    if self.txns.lock().get(p.txn).is_none() {
                        self.restore_prepared(p, lease);
                    }
                }
                WalRecord::Commit { txn, commit_ts } => {
                    // Install the staged writes of the restored prepare; a
                    // commit record without one was answered from the
                    // table live, and is skipped here too.
                    let txns = self.txns.lock();
                    if txns.prepared.contains_key(txn) {
                        self.settle(txns, *txn, TxnOutcome::Committed(*commit_ts));
                        recovered += 1;
                    }
                }
                WalRecord::Abort { txn } => {
                    let txns = self.txns.lock();
                    if matches!(txns.get(*txn), Some(TxnOutcome::Committed(_))) {
                        continue;
                    }
                    self.settle(txns, *txn, TxnOutcome::Aborted);
                    recovered += 1;
                }
                WalRecord::Alloc { obj, value } => {
                    let mut g = self.counters.lock();
                    let c = g.entry(*obj).or_insert(0);
                    *c = (*c).max(*value);
                }
            }
        }
        recovered
    }

    /// Restores one prepared transaction from its vote: its locks, staged
    /// writes, and table entry with a fresh lease.
    fn restore_prepared(&self, p: &PreparedImage, lease: Duration) {
        for w in &p.writes {
            let mut shard = self.shards[self.shard_of(w.obj)].lock();
            let state = shard.objects.entry(w.obj).or_default();
            state.lock = Some(PrepareLock {
                txn: p.txn,
                staged: w.value.clone(),
            });
        }
        let replaced = self.txns.lock().prepared.insert(
            p.txn,
            PreparedTxn {
                objs: p.writes.iter().map(|w| w.obj).collect(),
                start_ts: p.start_ts,
                prepare_ts: p.prepare_ts,
                participants: p.participants.clone(),
                lease_deadline: Instant::now() + lease,
                recovered: true,
                vote: None,
            },
        );
        if replaced.is_none() {
            self.prepared_hint.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies a checkpoint snapshot (the first record of a rotated
    /// segment): version chains, counters, the outcome table in its
    /// original FIFO order, and in-flight prepares.
    fn apply_checkpoint(&self, snap: &CheckpointSnapshot, lease: Duration) -> u64 {
        for (obj, chain) in &snap.versions {
            let mut shard = self.shards[self.shard_of(*obj)].lock();
            let state = shard.objects.entry(*obj).or_default();
            for (ts, value) in chain {
                state.chain.install(*ts, value.clone());
            }
        }
        {
            let mut g = self.counters.lock();
            for (obj, value) in &snap.counters {
                let c = g.entry(*obj).or_insert(0);
                *c = (*c).max(*value);
            }
        }
        {
            let mut txns = self.txns.lock();
            for (txn, fate) in &snap.outcomes {
                let outcome = match fate {
                    Some(ts) => TxnOutcome::Committed(*ts),
                    None => TxnOutcome::Aborted,
                };
                txns.record(*txn, outcome);
            }
        }
        for p in &snap.prepared {
            self.restore_prepared(p, lease);
        }
        snap.outcomes.len() as u64
    }

    /// Snapshots the entire store into a fresh log segment and truncates
    /// the older ones ([`Wal::checkpoint`]).  Takes the checkpoint gate in
    /// write mode plus every store lock, so the snapshot is a consistent
    /// cut: no operation can be between its log append and its in-memory
    /// application while the snapshot is taken.  No-op for an in-memory
    /// store.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = self.wal.clone() else {
            return Ok(());
        };
        let _gate = self.ckpt_gate.write();
        let guards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|s| s.lock()).collect();
        let txns = self.txns.lock();
        let counters = self.counters.lock();
        let mut versions = Vec::new();
        for guard in &guards {
            for (obj, state) in &guard.objects {
                let chain: Vec<(Timestamp, Option<Bytes>)> = state
                    .chain
                    .versions()
                    .iter()
                    .map(|v| (v.ts, v.value.clone()))
                    .collect();
                if !chain.is_empty() {
                    versions.push((*obj, chain));
                }
            }
        }
        let prepared_images = txns
            .prepared
            .iter()
            .map(|(txn, p)| PreparedImage {
                txn: *txn,
                start_ts: p.start_ts,
                prepare_ts: p.prepare_ts,
                participants: p.participants.clone(),
                writes: p
                    .objs
                    .iter()
                    .filter_map(|obj| {
                        guards[self.shard_of(*obj)]
                            .objects
                            .get(obj)
                            .and_then(|state| state.lock.as_ref())
                            .filter(|lock| lock.txn == *txn)
                            .map(|lock| WriteOp {
                                obj: *obj,
                                value: lock.staged.clone(),
                            })
                    })
                    .collect(),
            })
            .collect();
        let snap = CheckpointSnapshot {
            versions,
            counters: counters.iter().map(|(k, v)| (*k, *v)).collect(),
            outcomes: txns.fifo(),
            prepared: prepared_images,
        };
        wal.checkpoint(snap)
    }

    /// Drops every version below the watermark `min_active_ts` that is not
    /// the newest such version of its object ([`VersionChain::gc`]), and
    /// every object that is nothing but tombstones at or below it.  Returns
    /// the number of versions dropped.  Shards are collected one at a time
    /// so GC never stalls the whole store.
    pub fn gc(&self, min_active_ts: Timestamp) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut g = shard.lock();
            let mut dead = Vec::new();
            for (obj, state) in g.objects.iter_mut() {
                dropped += state.chain.gc(min_active_ts) as u64;
                if state.lock.is_none() && state.chain.is_fully_dead(min_active_ts) {
                    dead.push(*obj);
                }
            }
            for obj in dead {
                g.objects.remove(&obj);
            }
        }
        self.stats.gc_dropped.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Snapshot of the store's statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().objects.len() as u64)
            .sum()
    }

    /// Total number of committed versions currently stored.
    pub fn version_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .objects
                    .values()
                    .map(|o| o.chain.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Highest timestamp and transaction id observable in this store: the
    /// maximum over installed versions, prepare locks, prepared entries
    /// (their prepare timestamps) and retained outcomes.  The deployment
    /// layer calls this after recovery to advance the timestamp oracle past
    /// everything the previous incarnation issued — otherwise fresh
    /// snapshots could not see recovered versions, nor a commit that
    /// resolution may still make at a restored prepare timestamp, and
    /// reused transaction ids would collide with the outcome table.
    pub fn high_water(&self) -> (Timestamp, TxnId) {
        let mut ts: Timestamp = 0;
        let mut txn: TxnId = 0;
        for shard in &self.shards {
            let guard = shard.lock();
            for state in guard.objects.values() {
                if let Some(v) = state.chain.versions().last() {
                    ts = ts.max(v.ts);
                }
                if let Some(lock) = &state.lock {
                    txn = txn.max(lock.txn);
                }
            }
        }
        let txns = self.txns.lock();
        for (id, p) in txns.prepared.iter() {
            txn = txn.max(*id);
            ts = ts.max(p.prepare_ts);
        }
        for (id, commit_ts) in txns.fifo() {
            txn = txn.max(id);
            if let Some(c) = commit_ts {
                ts = ts.max(c);
            }
        }
        (ts, txn)
    }
}

#[cfg(test)]
impl ServerStore {
    /// Prepares `writes` for `txn` with a generous lease and its snapshot as
    /// its prepare timestamp, and waits for the vote to be durable: the
    /// single-store tests' way to get a transaction prepared.
    fn vote(&self, txn: TxnId, start_ts: Timestamp, writes: &[WriteOp]) -> Result<PrepareOutcome> {
        let lease = Duration::from_secs(3600);
        let (outcome, durable) = self.prepare(txn, start_ts, writes, &[0], lease, || start_ts)?;
        durable.wait()?;
        Ok(outcome)
    }

    /// Commits `writes` for `txn` as the server does when this store's
    /// server is the only participant: the prepare draws `prepare_ts`, and
    /// once the vote is durable it is the commit.
    fn commit_alone(
        &self,
        txn: TxnId,
        start_ts: Timestamp,
        writes: &[WriteOp],
        prepare_ts: Timestamp,
    ) -> Result<PrepareOutcome> {
        let lease = Duration::from_secs(3600);
        let (outcome, durable) = self.prepare(txn, start_ts, writes, &[0], lease, || prepare_ts)?;
        durable.wait()?;
        Ok(match outcome {
            PrepareOutcome::Prepared(ts) => match self.commit(txn, ts)? {
                TxnOutcome::Committed(ts) => PrepareOutcome::Committed(ts),
                TxnOutcome::Aborted => PrepareOutcome::Conflict(format!("txn {txn} aborted")),
            },
            decided => decided,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(o: u64) -> ObjectId {
        ObjectId::new(1, o)
    }

    fn w(o: u64, v: &str) -> WriteOp {
        WriteOp {
            obj: obj(o),
            value: Some(Bytes::copy_from_slice(v.as_bytes())),
        }
    }

    fn del(o: u64) -> WriteOp {
        WriteOp {
            obj: obj(o),
            value: None,
        }
    }

    #[test]
    fn prepare_commit_read_cycle() {
        let s = ServerStore::new();
        assert_eq!(
            s.vote(1, 5, &[w(1, "a"), w(2, "b")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        // Reads see the lock, not the staged value.
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Locked);
        s.commit(1, 10).unwrap();
        assert_eq!(
            s.get(obj(1), 100),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.get(obj(1), 9), ReadOutcome::Value(None));
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn conflict_on_newer_version() {
        let s = ServerStore::new();
        assert_eq!(
            s.vote(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        s.commit(1, 10).unwrap();
        // A transaction that started before ts 10 cannot overwrite object 1.
        match s.vote(2, 5, &[w(1, "b")]).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.stats().conflicts, 1);
        // A later snapshot can.
        assert_eq!(
            s.vote(3, 11, &[w(1, "c")]).unwrap(),
            PrepareOutcome::Prepared(11)
        );
        s.commit(3, 12).unwrap();
        assert_eq!(
            s.get(obj(1), 20),
            ReadOutcome::Value(Some(Bytes::from_static(b"c")))
        );
    }

    #[test]
    fn conflict_on_foreign_lock_and_abort_releases() {
        let s = ServerStore::new();
        assert_eq!(
            s.vote(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        match s.vote(2, 6, &[w(1, "b")]).unwrap() {
            PrepareOutcome::Conflict(msg) => assert!(msg.contains("locked")),
            other => panic!("expected conflict, got {other:?}"),
        }
        s.abort(1).unwrap();
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Value(None));
        // The refusal is final: the refused transaction stays refused, and
        // another with the same writes goes through.
        assert!(matches!(
            s.vote(2, 6, &[w(1, "b")]).unwrap(),
            PrepareOutcome::Conflict(_)
        ));
        assert_eq!(
            s.vote(3, 6, &[w(1, "b")]).unwrap(),
            PrepareOutcome::Prepared(6)
        );
        s.commit(3, 7).unwrap();
        assert_eq!(
            s.get(obj(1), 100),
            ReadOutcome::Value(Some(Bytes::from_static(b"b")))
        );
    }

    #[test]
    fn delete_writes_tombstone() {
        let s = ServerStore::new();
        s.vote(1, 1, &[w(1, "a")]).unwrap();
        s.commit(1, 2).unwrap();
        s.vote(2, 3, &[del(1)]).unwrap();
        s.commit(2, 4).unwrap();
        assert_eq!(
            s.get(obj(1), 3),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.get(obj(1), 10), ReadOutcome::Value(None));
    }

    #[test]
    fn one_phase_commit_validates_and_installs() {
        let s = ServerStore::new();
        assert_eq!(
            s.commit_alone(1, 1, &[w(1, "a")], 5).unwrap(),
            PrepareOutcome::Committed(5)
        );
        assert_eq!(
            s.get(obj(1), 10),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        // Stale snapshot conflicts.
        match s.commit_alone(2, 1, &[w(1, "b")], 6).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(
            s.get(obj(1), 10),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
    }

    #[test]
    fn allocate_is_monotone() {
        let s = ServerStore::new();
        assert_eq!(s.allocate(obj(9), 10).unwrap(), 0);
        assert_eq!(s.allocate(obj(9), 5).unwrap(), 10);
        assert_eq!(s.allocate(obj(9), 1).unwrap(), 15);
        assert_eq!(s.allocate(obj(8), 1).unwrap(), 0);
    }

    #[test]
    fn gc_drops_old_versions_and_dead_objects() {
        let s = ServerStore::new();
        for i in 0..5u64 {
            s.vote(i, 2 * i, &[w(1, &format!("v{i}"))]).unwrap();
            s.commit(i, 2 * i + 1).unwrap();
        }
        assert_eq!(s.version_count(), 5);
        let dropped = s.gc(100);
        assert_eq!(dropped, 4);
        assert_eq!(s.version_count(), 1);
        // Delete the object entirely, then GC removes it from the map.
        s.vote(10, 50, &[del(1)]).unwrap();
        s.commit(10, 51).unwrap();
        // A snapshot at 50 still reads the value: the object stays.
        s.gc(50);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.version_count(), 2);
        s.gc(100);
        assert_eq!(s.object_count(), 0);
    }

    #[test]
    fn commit_unknown_txn_presumes_abort() {
        let s = ServerStore::new();
        // A commit for a transaction this store never prepared can only be
        // the tail of a reaped transaction: refuse it.
        assert_eq!(s.commit(999, 5).unwrap(), TxnOutcome::Aborted);
        s.abort(999).unwrap();
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.outcome(999), Some(TxnOutcome::Aborted));
    }

    #[test]
    fn duplicate_commit_and_abort_are_deduped() {
        let s = ServerStore::new();
        assert_eq!(
            s.vote(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        assert_eq!(s.commit(1, 10).unwrap(), TxnOutcome::Committed(10));
        // Retried commit (response was lost): same answer, nothing re-done.
        assert_eq!(s.commit(1, 10).unwrap(), TxnOutcome::Committed(10));
        // A stale abort after the commit must not erase it.
        s.abort(1).unwrap();
        assert_eq!(s.outcome(1), Some(TxnOutcome::Committed(10)));
        assert_eq!(
            s.get(obj(1), 20),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
        assert_eq!(s.version_count(), 1, "commit must not double-install");
        assert!(s.stats().dedup_hits >= 2);
    }

    #[test]
    fn abort_reports_the_fate_that_holds() {
        let s = ServerStore::new();
        s.vote(1, 5, &[w(1, "a")]).unwrap();
        s.commit(1, 10).unwrap();
        // An abort that lost to the commit: the commit stands.
        assert_eq!(s.abort(1).unwrap(), TxnOutcome::Committed(10));
        assert_eq!(
            s.dump_versions(obj(1)),
            vec![(10, Some(Bytes::from_static(b"a")))]
        );
        s.vote(2, 11, &[w(1, "b")]).unwrap();
        assert_eq!(s.abort(2).unwrap(), TxnOutcome::Aborted);
        assert_eq!(
            s.get(obj(1), 20),
            ReadOutcome::Value(Some(Bytes::from_static(b"a")))
        );
    }

    #[test]
    fn duplicate_prepare_is_idempotent() {
        let s = ServerStore::new();
        assert_eq!(
            s.vote(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        // Duplicate delivery of the same prepare: still prepared, exactly
        // one lock, exactly one prepared entry.
        assert_eq!(
            s.vote(1, 5, &[w(1, "a")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        assert_eq!(s.prepared_count(), 1);
        s.commit(1, 10).unwrap();
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.prepared_count(), 0);
    }

    #[test]
    fn lease_expiry_feeds_the_reaper_and_blocks_resurrection() {
        let s = ServerStore::new();
        let prepare = |lease| s.prepare(7, 5, &[w(1, "a")], &[1, 3], lease, || 6);
        let voted = prepare(Duration::from_micros(1)).unwrap().0;
        assert_eq!(voted, PrepareOutcome::Prepared(6));
        assert_eq!(s.undecided(Some(7)).len(), 1, "met, it is resolved at once");
        std::thread::sleep(Duration::from_millis(1));
        let due = s.undecided(None);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].txn, due[0].prepare_ts), (7, 6));
        assert_eq!(due[0].participants, vec![1, 3]);
        assert!(due[0].overdue);
        // A resolver learns of a fence and aborts...
        s.abort(7).unwrap();
        assert_eq!(s.prepared_count(), 0);
        assert_eq!(s.get(obj(1), 100), ReadOutcome::Value(None));
        // ...after which neither a late prepare nor a late commit of the
        // same transaction may resurrect it.
        match prepare(Duration::from_secs(10)).unwrap().0 {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.commit(7, 20).unwrap(), TxnOutcome::Aborted);
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn one_phase_commit_retry_reports_original_fate() {
        let s = ServerStore::new();
        assert_eq!(
            s.commit_alone(1, 1, &[w(1, "a")], 5).unwrap(),
            PrepareOutcome::Committed(5)
        );
        // Retry with a fresh timestamp: the original fate is reported and
        // nothing is re-installed.
        assert_eq!(
            s.commit_alone(1, 1, &[w(1, "a")], 9).unwrap(),
            PrepareOutcome::Committed(5)
        );
        assert_eq!(s.version_count(), 1);
        // A refused prepare is remembered as aborted.
        match s.commit_alone(2, 1, &[w(1, "b")], 10).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(s.outcome(2), Some(TxnOutcome::Aborted));
        match s.commit_alone(2, 1, &[w(1, "b")], 11).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict on retry, got {other:?}"),
        }
    }

    #[test]
    fn outcome_table_is_bounded_and_keeps_commits_intact() {
        let s = ServerStore::new();
        let n = OUTCOME_RETENTION as u64 + 100;
        for i in 0..n {
            assert_eq!(
                s.commit_alone(i + 1, 2 * i + 1, &[w(i, "v")], 2 * i + 2)
                    .unwrap(),
                PrepareOutcome::Committed(2 * i + 2)
            );
        }
        // Old outcomes were evicted, recent ones retained.
        assert_eq!(s.outcome(1), None);
        assert_eq!(s.outcome(100), None);
        assert_eq!(s.outcome(101), Some(TxnOutcome::Committed(202)));
        assert_eq!(s.outcome(n), Some(TxnOutcome::Committed(2 * n)));
    }

    #[test]
    fn dump_versions_reports_history() {
        let s = ServerStore::new();
        s.vote(1, 1, &[w(1, "a")]).unwrap();
        s.commit(1, 2).unwrap();
        s.vote(2, 3, &[del(1)]).unwrap();
        s.commit(2, 4).unwrap();
        let hist = s.dump_versions(obj(1));
        assert_eq!(hist.len(), 2);
        assert!(hist.contains(&(2, Some(Bytes::from_static(b"a")))));
        assert!(hist.contains(&(4, None)));
        assert!(s.dump_versions(obj(99)).is_empty());
    }

    #[test]
    fn multi_shard_prepare_is_all_or_nothing() {
        let s = ServerStore::new();
        // Spread writes over many shards; make one of them conflict.
        let mut writes: Vec<WriteOp> = (0..64).map(|i| w(i, "x")).collect();
        assert_eq!(
            s.vote(1, 5, &[w(33, "old")]).unwrap(),
            PrepareOutcome::Prepared(5)
        );
        s.commit(1, 10).unwrap();
        writes[33] = w(33, "conflicting");
        match s.vote(2, 5, &writes).unwrap() {
            PrepareOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        // Nothing must be left locked by the failed prepare.
        for i in 0..64u64 {
            assert_ne!(
                s.get(obj(i), 100),
                ReadOutcome::Locked,
                "object {i} leaked a lock"
            );
        }
    }

    #[test]
    fn concurrent_disjoint_commits_succeed() {
        use std::sync::Arc;
        let s = Arc::new(ServerStore::new());
        let threads = 8;
        let per_thread = 200u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let o = t as u64 * 10_000 + i;
                    let txn = o + 1;
                    let ts = 2 * o + 1;
                    assert_eq!(
                        s.commit_alone(txn, ts, &[w(o, "v")], ts + 1).unwrap(),
                        PrepareOutcome::Committed(ts + 1)
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), threads as u64 * per_thread);
        assert_eq!(s.stats().commits, threads as u64 * per_thread);
    }

    #[test]
    fn concurrent_same_object_writers_one_winner_per_round() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let s = Arc::new(ServerStore::new());
        let wins = Arc::new(AtomicU64::new(0));
        let losses = Arc::new(AtomicU64::new(0));
        let ts = Arc::new(AtomicU64::new(1));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            let losses = Arc::clone(&losses);
            let ts = Arc::clone(&ts);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let start = ts.fetch_add(1, Ordering::SeqCst);
                    let commit = ts.fetch_add(1, Ordering::SeqCst);
                    let txn = t * 1000 + i + 1;
                    match s
                        .commit_alone(txn, start, &[w(7, "contended")], commit)
                        .unwrap()
                    {
                        PrepareOutcome::Committed(_) => wins.fetch_add(1, Ordering::SeqCst),
                        PrepareOutcome::Conflict(_) => losses.fetch_add(1, Ordering::SeqCst),
                        other => panic!("a one-participant commit answered {other:?}"),
                    };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = wins.load(Ordering::SeqCst) + losses.load(Ordering::SeqCst);
        assert_eq!(total, 800);
        assert!(wins.load(Ordering::SeqCst) >= 1);
        // Every committed version is still ordered in the chain.
        assert_eq!(s.object_count(), 1);
    }
}
