//! Client-side transactions: snapshot reads, buffered writes, and the
//! two-phase-commit coordinator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use yesquel_common::ids::splitmix64;
use yesquel_common::obs::clock;
use yesquel_common::obs::trace::{count, span, SpanKind, TraceCounter};
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::timeutil::sleep_backoff;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_rpc::Transport;

use crate::fanout::FanoutPool;
use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, WriteOp};
use crate::server::KvServer;
use crate::snapshot::SnapshotTracker;

/// How many times [`Txn::get`] re-reads an object it found under a prepare
/// lock before giving up with [`Error::LockTimeout`].
const LOCK_READ_RETRIES: usize = 100;
/// Base backoff, in microseconds, between those re-reads: retry `n` sleeps
/// `n` times this, capped at 16 times.
const LOCK_BACKOFF_US: u64 = 50;
/// How many fetched values a transaction remembers (see [`ReadMemo`]): a
/// statement's leaves, a few times over.
const READ_MEMO: usize = 16;

/// Pre-resolved statistics handles for the client's per-operation paths:
/// one registry lookup at client construction instead of a mutex acquisition
/// plus string allocation per call (the same discipline as the tree layer's
/// `HotCounters`).  Error-path counters stay as name lookups.
pub(crate) struct KvHot {
    pub(crate) txn_started: Arc<Counter>,
    pub(crate) get_rpcs: Arc<Counter>,
    pub(crate) readonly_commits: Arc<Counter>,
    pub(crate) txn_committed: Arc<Counter>,
    pub(crate) txn_conflicts: Arc<Counter>,
    pub(crate) commit_participants: Arc<Counter>,
    pub(crate) commit_1pc: Arc<Counter>,
    pub(crate) commit_2pc: Arc<Counter>,
    pub(crate) prepare_parallel_fanouts: Arc<Counter>,
    pub(crate) get_lock_retries: Arc<Counter>,
    pub(crate) txn_retries: Arc<Counter>,
    /// Commit-phase latencies, recorded only while `Obs::timing_on`:
    /// `prepare` is the whole phase-one round, `decide` the commit-point RPC
    /// at the primary (1PC charges its single round here too), `apply` one
    /// secondary's decision, from its hand-off to its landing — off the
    /// commit's critical path where decisions are not waited for.
    pub(crate) commit_prepare_us: Arc<Histogram>,
    pub(crate) commit_decide_us: Arc<Histogram>,
    pub(crate) commit_apply_us: Arc<Histogram>,
}

impl KvHot {
    pub(crate) fn resolve(stats: &StatsRegistry) -> Self {
        KvHot {
            txn_started: stats.counter("kv.txn_started"),
            get_rpcs: stats.counter("kv.get_rpcs"),
            readonly_commits: stats.counter("kv.readonly_commits"),
            txn_committed: stats.counter("kv.txn_committed"),
            txn_conflicts: stats.counter("kv.txn_conflicts"),
            commit_participants: stats.counter("kv.commit_participants"),
            commit_1pc: stats.counter("kv.commit_1pc"),
            commit_2pc: stats.counter("kv.commit_2pc"),
            prepare_parallel_fanouts: stats.counter("kv.prepare_parallel_fanouts"),
            get_lock_retries: stats.counter("kv.get_lock_retries"),
            txn_retries: stats.counter("kv.txn_retries"),
            commit_prepare_us: stats.histogram("kv.commit_prepare_us"),
            commit_decide_us: stats.histogram("kv.commit_decide_us"),
            commit_apply_us: stats.histogram("kv.commit_apply_us"),
        }
    }
}

/// Internals shared by a [`crate::KvClient`] and every transaction it
/// creates.
pub(crate) struct ClientCore {
    pub(crate) transport: Arc<dyn Transport<KvServer>>,
    pub(crate) oracle: TimestampOracle,
    pub(crate) snapshots: SnapshotTracker,
    pub(crate) cfg: KvConfig,
    pub(crate) stats: StatsRegistry,
    pub(crate) hot: KvHot,
    /// Counter the retry loops draw their jitter salts from (see
    /// [`ClientCore::backoff`]).
    pub(crate) retry_salt: AtomicU64,
    /// Whether a call through the transport spends wall-clock time blocked
    /// outside the server's own work: a worker queue, slept latency,
    /// injected faults.  Then rounds overlap, a transaction's reads can be
    /// fetched together ([`Txn::prefetch`]) and secondaries' decisions are
    /// sent without waiting for them.
    pub(crate) transport_blocks: bool,
    /// Whether the servers force a log, so every prepare ends in an
    /// `fdatasync`: the prepare round then overlaps too, so that the
    /// participants' flushes do.
    pub(crate) forced_log: bool,
    /// Worker pool for overlapped rounds and unwaited decisions; lazy, so it
    /// costs nothing until the first one.
    pub(crate) fanout: FanoutPool,
}

impl ClientCore {
    /// Whether a coordinator round is worth issuing from several threads at
    /// once (see [`round`]).
    fn overlaps_rounds(&self) -> bool {
        self.transport_blocks || self.forced_log
    }

    pub(crate) fn num_servers(&self) -> usize {
        self.transport.num_servers()
    }

    /// Home server of an object in this deployment.
    pub(crate) fn home(&self, obj: ObjectId) -> ServerId {
        obj.home_server(self.num_servers())
    }

    /// Sleeps before retry `attempt` of one retry loop: exponential backoff
    /// from [`KvConfig::rpc_backoff_us`] with jitter.  `salt` is the loop's
    /// jitter salt, `None` until the loop first backs off; it is drawn then,
    /// once per loop, from the client's counter, so concurrent loops do not
    /// sleep in lockstep and a loop that never retries touches no shared
    /// state.
    pub(crate) fn backoff(&self, attempt: usize, salt: &mut Option<u64>) {
        let salt = *salt
            .get_or_insert_with(|| splitmix64(self.retry_salt.fetch_add(1, Ordering::Relaxed)));
        sleep_backoff(
            attempt,
            self.cfg.rpc_backoff_us,
            self.cfg.rpc_backoff_cap_us,
            salt,
        );
    }

    /// Issues one RPC with a deadline-and-retry policy: availability-class
    /// failures ([`Error::Timeout`], [`Error::Unavailable`]) are retried up
    /// to `max_attempts` times with exponential backoff and jitter; every
    /// other error propagates immediately.
    ///
    /// Retrying is safe for every request in the protocol: reads, GC and
    /// status queries are idempotent, allocation merely skips ids, and
    /// prepare / commit / abort are deduplicated server-side by transaction
    /// id.  On exhaustion, if *any* attempt timed out the returned error is
    /// a `Timeout` (the operation may have been applied — a commit path must
    /// escalate to [`Error::Indeterminate`]); otherwise the operation was
    /// definitely not applied and the last `Unavailable` is returned.
    pub(crate) fn call_retry(
        &self,
        server: ServerId,
        req: KvRequest,
        max_attempts: usize,
    ) -> Result<KvResponse> {
        let _rpc_span = span(SpanKind::Rpc);
        count(TraceCounter::Rpcs, 1);
        let max = max_attempts.max(1);
        let mut salt: Option<u64> = None;
        let mut saw_timeout = false;
        let mut last: Option<Error> = None;
        let mut req = Some(req);
        for attempt in 0..max {
            // The final attempt consumes the request; earlier ones clone it.
            let this_req = if attempt + 1 < max {
                req.clone()
                    .expect("request present until the final attempt")
            } else {
                req.take().expect("request present until the final attempt")
            };
            match self.transport.call(server, this_req) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_availability() => {
                    if matches!(e, Error::Timeout(_)) {
                        saw_timeout = true;
                        self.stats.counter("rpc.timeouts").inc();
                    }
                    last = Some(e);
                    if attempt + 1 < max {
                        self.stats.counter("rpc.retries").inc();
                        count(TraceCounter::Retries, 1);
                        self.backoff(attempt, &mut salt);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let last = last.expect("loop ran at least once and only exits retryably");
        if saw_timeout && !matches!(last, Error::Timeout(_)) {
            // An earlier attempt may have been applied even though the final
            // one failed differently; report the in-doubt flavour.
            Err(Error::Timeout(format!(
                "server {server}: {last} (an earlier attempt timed out)"
            )))
        } else {
            Err(last)
        }
    }
}

/// Issues one round — a transaction's prefetch, or the coordinator's
/// prepares or aborts — of one `(server, request)` call per entry, and
/// returns each outcome with its entry's index, in entry order.  This is
/// the one place that chooses how:
///
/// * **Calls block** ([`ClientCore::overlaps_rounds`]): every call is in
///   flight at once, so the round costs its slowest call instead of the sum
///   (and, on a forced log, one flush instead of one per participant).  All
///   but the last go to the fan-out pool and the last runs on the calling
///   thread, so a round never needs more workers than it has calls; a call
///   the pool cannot take runs on the calling thread too.  `stop_after` is
///   not consulted: nothing is left to stop.  If a pool worker dies
///   mid-round (a panic in the transport stack) its entry is simply missing
///   from the result; callers that need every entry accounted for must
///   check the length.
/// * **Calls are pure CPU** on the caller's thread (direct transport, no
///   forced log): a plain loop in entry order, no pool thread ever spawned,
///   ending early once `stop_after` says an outcome makes the rest of the
///   round pointless — a failed prepare, so that later participants are
///   never locked for a doomed transaction.
pub(crate) fn round(
    core: &Arc<ClientCore>,
    reqs: Vec<(ServerId, KvRequest)>,
    max_attempts: usize,
    stop_after: impl Fn(&Result<KvResponse>) -> bool,
) -> Vec<(usize, Result<KvResponse>)> {
    let n = reqs.len();
    let mut out = Vec::with_capacity(n);
    if !core.overlaps_rounds() {
        for (i, (server, req)) in reqs.into_iter().enumerate() {
            let resp = core.call_retry(server, req, max_attempts);
            let stop = stop_after(&resp);
            out.push((i, resp));
            if stop {
                break;
            }
        }
        return out;
    }
    let (tx, rx) = bounded::<(usize, Result<KvResponse>)>(n);
    let mut reqs = reqs.into_iter().enumerate();
    let Some((last, (last_server, last_req))) = reqs.next_back() else {
        return out;
    };
    for (i, (server, req)) in reqs {
        let job_core = Arc::clone(core);
        let tx = tx.clone();
        let job = Box::new(move || {
            let resp = job_core.call_retry(server, req, max_attempts);
            let _ = tx.send((i, resp));
        });
        if let Err(job) = core.fanout.submit(job) {
            // No worker can take it: the round loses its overlap for this
            // call, not the call.
            job();
        }
    }
    drop(tx);
    out.push((last, core.call_retry(last_server, last_req, max_attempts)));
    while let Ok(pair) = rx.recv() {
        out.push(pair);
    }
    out.sort_by_key(|(i, _)| *i);
    out
}

/// Delivers a commit decision to one secondary: the commit already stands
/// at the primary, so a failure only makes the participant lagging (the
/// reaper converges it).  `handed_off` is when the decision left the
/// coordinator, if phase timing is on.
fn deliver_decision(
    core: &ClientCore,
    server: ServerId,
    txn: TxnId,
    commit_ts: Timestamp,
    handed_off: Option<Instant>,
) {
    let resp = core.call_retry(
        server,
        KvRequest::Commit { txn, commit_ts },
        core.cfg.rpc_max_attempts,
    );
    if let Some(t0) = handed_off {
        core.hot.commit_apply_us.record(clock::elapsed_us(t0));
    }
    if !matches!(resp, Ok(KvResponse::Committed { .. })) {
        core.stats.counter("kv.commit_lagging_participants").inc();
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Still accepting reads and writes.
    Active,
    /// Successfully committed.
    Committed,
    /// Aborted (explicitly, or after a failed commit).
    Aborted,
}

/// The values a transaction fetched, so that reading one again costs no RPC.
///
/// Exact under snapshot isolation: a value read at `start_ts` cannot change
/// later.  A prepared writer answers `Locked`, never a value, and nothing
/// that answer carries is remembered; any commit that had not prepared at
/// the server when it answered draws its timestamp afterwards, above
/// `start_ts` (1PC draws it under the server's shard guards).  Bounded:
/// the newest [`READ_MEMO`] values, oldest replaced first.
#[derive(Default)]
struct ReadMemo {
    entries: Vec<(ObjectId, Option<Bytes>)>,
    /// The entry the next value replaces once `entries` is full.
    next: usize,
}

impl ReadMemo {
    fn get(&self, obj: ObjectId) -> Option<&Option<Bytes>> {
        self.entries.iter().find(|(o, _)| *o == obj).map(|(_, v)| v)
    }

    fn remember(&mut self, obj: ObjectId, value: Option<Bytes>) {
        if self.get(obj).is_some() {
            return;
        }
        if self.entries.len() < READ_MEMO {
            // One allocation for the whole memo, not one per doubling.
            self.entries.reserve_exact(READ_MEMO - self.entries.len());
            self.entries.push((obj, value));
        } else {
            self.entries[self.next] = (obj, value);
            self.next = (self.next + 1) % READ_MEMO;
        }
    }
}

/// What a transaction can answer without a server: its buffered writes and
/// the values it fetched, under one lock.
#[derive(Default)]
struct Local {
    writes: BTreeMap<ObjectId, Option<Bytes>>,
    reads: ReadMemo,
}

impl Local {
    /// `obj` at this transaction's snapshot as it knows it: its own write
    /// first, else a value it fetched; `None` if it has to ask.
    fn read(&self, obj: ObjectId) -> Option<&Option<Bytes>> {
        self.writes.get(&obj).or_else(|| self.reads.get(obj))
    }
}

/// A transaction with snapshot-isolation semantics.
///
/// Reads observe the snapshot defined by the start timestamp plus the
/// transaction's own buffered writes; writes are buffered locally and sent
/// to the storage servers only at commit.  An object is fetched at most
/// once while its value stays in the transaction's read memo.
///
/// All access methods take `&self`: the write buffer is internally
/// synchronized so that the layers above (tree cursors, SQL operators) can
/// hold several references to the same transaction.  A `Txn` is nevertheless
/// meant to be driven by one thread at a time, as in the real client
/// library.
pub struct Txn {
    core: Arc<ClientCore>,
    id: TxnId,
    start_ts: Timestamp,
    state: Mutex<TxnState>,
    local: Mutex<Local>,
}

impl Txn {
    pub(crate) fn begin(core: Arc<ClientCore>) -> Self {
        let id = core.oracle.next_txn_id();
        let start_ts = core.snapshots.begin(&core.oracle);
        core.hot.txn_started.inc();
        Txn {
            core,
            id,
            start_ts,
            state: Mutex::new(TxnState::Active),
            local: Mutex::new(Local::default()),
        }
    }

    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp this transaction reads at.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TxnState {
        *self.state.lock()
    }

    /// True if the transaction has not written anything (such transactions
    /// commit without any communication).
    pub fn is_read_only(&self) -> bool {
        self.local.lock().writes.is_empty()
    }

    /// Number of objects written so far.
    pub fn write_count(&self) -> usize {
        self.local.lock().writes.len()
    }

    fn check_active(&self) -> Result<()> {
        match self.state() {
            TxnState::Active => Ok(()),
            TxnState::Committed => Err(Error::InvalidArgument(
                "transaction already committed".into(),
            )),
            TxnState::Aborted => Err(Error::Aborted("transaction already aborted".into())),
        }
    }

    /// Reads `obj` at this transaction's snapshot (observing its own writes,
    /// and fetching it only if it has not already).
    pub fn get(&self, obj: ObjectId) -> Result<Option<Bytes>> {
        self.check_active()?;
        if let Some(v) = self.local.lock().read(obj).cloned() {
            return Ok(v);
        }
        let _get_span = span(SpanKind::KvGet);
        let server = self.core.home(obj);
        let mut attempts = 0usize;
        loop {
            self.core.hot.get_rpcs.inc();
            match self.core.call_retry(
                server,
                KvRequest::Get {
                    obj,
                    ts: self.start_ts,
                },
                self.core.cfg.rpc_max_attempts,
            )? {
                KvResponse::Value(v) => {
                    self.local.lock().reads.remember(obj, v.clone());
                    return Ok(v);
                }
                KvResponse::Locked => {
                    attempts += 1;
                    self.core.hot.get_lock_retries.inc();
                    if attempts > LOCK_READ_RETRIES {
                        return Err(Error::LockTimeout(format!(
                            "object {obj} still locked after {attempts} read attempts"
                        )));
                    }
                    let us = LOCK_BACKOFF_US * attempts.min(16) as u64;
                    std::thread::sleep(Duration::from_micros(us));
                }
                KvResponse::ServerError { message } => return Err(Error::Io(message)),
                other => {
                    return Err(Error::Internal(format!(
                        "unexpected Get response: {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches `objs` at this transaction's snapshot in one round, so that
    /// the [`Txn::get`]s that follow are answered from the transaction.
    ///
    /// Only where the transport makes a call wait: the round then costs one
    /// round trip instead of one per object.  Elsewhere a call is CPU on
    /// this thread, and `get` pays the same later, so nothing is fetched.
    /// Advisory: objects the transaction wrote or already fetched are
    /// skipped, and only values are remembered — a locked object, or a call
    /// that failed, is left to `get`, which waits or reports it.
    pub fn prefetch(&self, objs: &[ObjectId]) {
        if !self.prefetches() || self.state() != TxnState::Active {
            return;
        }
        let mut wanted: Vec<ObjectId> = Vec::with_capacity(objs.len());
        {
            let local = self.local.lock();
            for &obj in objs {
                if local.read(obj).is_none() && !wanted.contains(&obj) {
                    wanted.push(obj);
                }
            }
        }
        if wanted.is_empty() {
            return;
        }
        let _get_span = span(SpanKind::KvGet);
        let gets = wanted
            .iter()
            .map(|&obj| {
                let get = KvRequest::Get {
                    obj,
                    ts: self.start_ts,
                };
                (self.core.home(obj), get)
            })
            .collect();
        self.core.hot.get_rpcs.add(wanted.len() as u64);
        let outcomes = round(&self.core, gets, self.core.cfg.rpc_max_attempts, |_| false);
        let mut local = self.local.lock();
        for (i, resp) in outcomes {
            if let Ok(KvResponse::Value(v)) = resp {
                local.reads.remember(wanted[i], v);
            }
        }
    }

    /// Whether [`Txn::prefetch`] fetches anything in this deployment, so a
    /// caller can skip working out what to name.
    pub fn prefetches(&self) -> bool {
        self.core.transport_blocks
    }

    /// Buffers a write of `value` to `obj`.
    pub fn put(&self, obj: ObjectId, value: impl Into<Bytes>) -> Result<()> {
        self.check_active()?;
        self.local.lock().writes.insert(obj, Some(value.into()));
        Ok(())
    }

    /// Buffers a write of the same `value` to every object in `objs` — the
    /// write-all primitive behind replicated objects.  The payload is shared
    /// (`Bytes` is reference-counted), so the per-copy cost is one buffered
    /// entry, and commit fans the copies out through the ordinary 1PC/2PC
    /// path: either every copy becomes visible or none does.
    pub fn put_many(&self, objs: impl IntoIterator<Item = ObjectId>, value: Bytes) -> Result<()> {
        self.check_active()?;
        let mut local = self.local.lock();
        for obj in objs {
            local.writes.insert(obj, Some(value.clone()));
        }
        Ok(())
    }

    /// Buffers a deletion of `obj`.
    pub fn delete(&self, obj: ObjectId) -> Result<()> {
        self.check_active()?;
        self.local.lock().writes.insert(obj, None);
        Ok(())
    }

    /// Commits the transaction, returning its commit timestamp.
    ///
    /// Read-only transactions commit locally with no communication.  Single-
    /// participant transactions use one-phase commit (one RPC).  Multi-
    /// participant transactions use two-phase commit: one prepare RPC per
    /// participant, then the decision at the primary — the commit point,
    /// after which this returns — and at every other participant.  Where
    /// the transport makes calls wait, the secondaries' decisions are sent
    /// without being waited for: a secondary that misses one adopts the
    /// commit from the primary, and a reader that meets its lock meanwhile
    /// waits for it.
    pub fn commit(self) -> Result<Timestamp> {
        self.check_active()?;

        let writes = std::mem::take(&mut self.local.lock().writes);
        if writes.is_empty() {
            *self.state.lock() = TxnState::Committed;
            self.core.hot.readonly_commits.inc();
            return Ok(self.start_ts);
        }
        let _commit_span = span(SpanKind::KvCommit);
        // Phase timing is pay-as-you-go: no clock is read unless the
        // deployment turned `Obs::timing_on`.
        let timing = self.core.stats.obs().timing_on();

        // Group writes by participant server, preserving ObjectId order so
        // that servers acquire locks in a deterministic order.
        let mut by_server: BTreeMap<ServerId, Vec<WriteOp>> = BTreeMap::new();
        for (obj, value) in &writes {
            by_server
                .entry(self.core.home(*obj))
                .or_default()
                .push(WriteOp {
                    obj: *obj,
                    value: value.clone(),
                });
        }
        let participants: Vec<ServerId> = by_server.keys().copied().collect();
        self.core
            .hot
            .commit_participants
            .add(participants.len() as u64);

        // One-phase commit when a single server holds every written object.
        // Retries are deduplicated server-side, so a lost response does not
        // double-apply; only full exhaustion with a possible application
        // (timeout) escalates to `Indeterminate`.
        if participants.len() == 1 {
            let (server, writes) = by_server.into_iter().next().expect("one participant");
            self.core.hot.commit_1pc.inc();
            let t0 = timing.then(clock::now);
            let resp = self
                .core
                .call_retry(
                    server,
                    KvRequest::CommitOnePhase {
                        txn: self.id,
                        start_ts: self.start_ts,
                        writes,
                    },
                    self.core.cfg.rpc_max_attempts,
                )
                .map_err(|e| {
                    if matches!(e, Error::Timeout(_)) {
                        self.core.stats.counter("kv.commit_indeterminate").inc();
                        Error::Indeterminate(format!(
                            "one-phase commit of txn {} to server {server}: {e}",
                            self.id
                        ))
                    } else {
                        e
                    }
                })?;
            if let Some(t0) = t0 {
                self.core.hot.commit_decide_us.record(clock::elapsed_us(t0));
            }
            return match resp {
                KvResponse::Committed { commit_ts } => {
                    *self.state.lock() = TxnState::Committed;
                    self.core.hot.txn_committed.inc();
                    Ok(commit_ts)
                }
                KvResponse::Conflict { reason } => {
                    *self.state.lock() = TxnState::Aborted;
                    self.core.hot.txn_conflicts.inc();
                    count(TraceCounter::Conflicts, 1);
                    Err(Error::Conflict(reason))
                }
                KvResponse::ServerError { message } => {
                    // The server's log-before-apply ordering guarantees the
                    // commit was not applied; this is a definite abort, not
                    // an in-doubt outcome.
                    *self.state.lock() = TxnState::Aborted;
                    Err(Error::Io(message))
                }
                other => Err(Error::Internal(format!(
                    "unexpected 1PC response: {other:?}"
                ))),
            };
        }

        // Phase one: prepare at every participant.  The lowest-numbered
        // participant is the primary — the 2PC commit point the reaper
        // protocol revolves around (see `crate::server`).
        self.core.hot.commit_2pc.inc();
        let prepare_t0 = timing.then(clock::now);
        let primary = participants[0];
        let prepares = by_server
            .into_iter()
            .map(|(server, writes)| {
                let req = KvRequest::Prepare {
                    txn: self.id,
                    start_ts: self.start_ts,
                    writes,
                    primary,
                    lease_us: self.core.cfg.prepare_lease_us,
                };
                (server, req)
            })
            .collect();
        if self.core.overlaps_rounds() {
            // Reporting only: `round` is what acts on it.
            self.core.hot.prepare_parallel_fanouts.inc();
        }
        // Server-side nothing depends on how the round is issued: each
        // participant validates, locks, and leases its own slice.
        let outcomes = round(
            &self.core,
            prepares,
            self.core.cfg.rpc_max_attempts,
            |resp| !matches!(resp, Ok(KvResponse::Prepared)),
        );
        if let Some(t0) = prepare_t0 {
            self.core
                .hot
                .commit_prepare_us
                .record(clock::elapsed_us(t0));
        }
        // Judge the round in server order, so the reported failure matches
        // what the sequential round would have surfaced first.
        let all_prepared = outcomes.len() == participants.len()
            && outcomes
                .iter()
                .all(|(_, r)| matches!(r, Ok(KvResponse::Prepared)));
        if !all_prepared {
            for (i, resp) in outcomes {
                let server = participants[i];
                match resp {
                    Ok(KvResponse::Prepared) => {}
                    Ok(KvResponse::Conflict { reason }) => {
                        self.abort_participants(&participants);
                        *self.state.lock() = TxnState::Aborted;
                        self.core.hot.txn_conflicts.inc();
                        count(TraceCounter::Conflicts, 1);
                        return Err(Error::Conflict(reason));
                    }
                    Ok(KvResponse::ServerError { message }) => {
                        // The participant could not make the prepare durable,
                        // so it holds no locks for us; nothing can have
                        // committed.
                        self.abort_participants(&participants);
                        *self.state.lock() = TxnState::Aborted;
                        return Err(Error::Io(message));
                    }
                    Ok(other) => {
                        self.abort_participants(&participants);
                        *self.state.lock() = TxnState::Aborted;
                        return Err(Error::Internal(format!(
                            "unexpected prepare response: {other:?}"
                        )));
                    }
                    Err(e) => {
                        // Coordinator deadline: a participant stayed
                        // unreachable through the retry budget.  No commit
                        // was sent, so the transaction cannot have committed
                        // anywhere — abort the others (best-effort; the
                        // reaper collects whatever the aborts miss) and
                        // report a clean retryable failure.
                        self.abort_participants(&participants);
                        *self.state.lock() = TxnState::Aborted;
                        self.core.stats.counter("kv.prepare_deadline_aborts").inc();
                        return Err(if e.is_availability() {
                            Error::Unavailable(format!(
                                "prepare of txn {} at server {server} failed ({e}); \
                                 transaction aborted",
                                self.id
                            ))
                        } else {
                            e
                        });
                    }
                }
            }
            // Every collected outcome was `Prepared`, yet a participant is
            // missing (a fan-out worker died): the transaction's locks may
            // be partially held, so abort cleanly.
            self.abort_participants(&participants);
            *self.state.lock() = TxnState::Aborted;
            return Err(Error::Internal(format!(
                "prepare round of txn {} lost a participant outcome",
                self.id
            )));
        }

        // All participants prepared: the transaction is committed as soon as
        // its commit timestamp is fixed *at the primary*.
        let commit_ts = self.core.oracle.next_timestamp();

        // Phase two, commit point: the primary, with the larger resolve
        // budget — once everyone is prepared, pounding on the primary is far
        // cheaper than surfacing an indeterminate commit.
        let decide_t0 = timing.then(clock::now);
        let decide_resp = self.core.call_retry(
            primary,
            KvRequest::Commit {
                txn: self.id,
                commit_ts,
            },
            self.core.cfg.commit_resolve_attempts,
        );
        if let Some(t0) = decide_t0 {
            self.core.hot.commit_decide_us.record(clock::elapsed_us(t0));
        }
        let commit_ts = match decide_resp {
            Ok(KvResponse::Committed { commit_ts }) => commit_ts,
            Ok(KvResponse::Aborted) => {
                // The primary's reaper presumed abort before our commit
                // arrived (lease expired).  Nothing committed anywhere:
                // secondaries never commit before the primary.
                self.abort_participants(&participants);
                *self.state.lock() = TxnState::Aborted;
                self.core.hot.txn_conflicts.inc();
                count(TraceCounter::Conflicts, 1);
                return Err(Error::Conflict(format!(
                    "txn {} aborted by the prepare-lease reaper before commit reached \
                     the primary",
                    self.id
                )));
            }
            Ok(KvResponse::ServerError { message }) => {
                // The primary could not log the commit decision, so it was
                // not applied (log-before-apply); the transaction is still
                // merely prepared.  Abort it cleanly rather than leave it to
                // the reaper's lease expiry.
                self.abort_participants(&participants);
                *self.state.lock() = TxnState::Aborted;
                return Err(Error::Io(message));
            }
            Ok(other) => {
                *self.state.lock() = TxnState::Aborted;
                return Err(Error::Internal(format!(
                    "unexpected commit response: {other:?}"
                )));
            }
            Err(e) => {
                // The commit decision is in flight but unconfirmed: the
                // primary may have installed it, or its reaper may abort it.
                // Only the primary knows; blindly retrying the transaction
                // could double-apply, so surface the in-doubt state.
                self.core.stats.counter("kv.commit_indeterminate").inc();
                return Err(Error::Indeterminate(format!(
                    "commit of txn {} unconfirmed by primary server {primary}: {e}",
                    self.id
                )));
            }
        };

        self.decide_secondaries(&participants[1..], commit_ts, timing);
        *self.state.lock() = TxnState::Committed;
        self.core.hot.txn_committed.inc();
        Ok(commit_ts)
    }

    /// Phase two at the secondaries: best-effort, because the outcome no
    /// longer depends on these calls.  The transaction is durably committed
    /// at the primary; a secondary logs its decision without waiting for the
    /// disk, and one that misses the message — or loses the record in a
    /// crash — adopts the commit from the primary (a reader that meets its
    /// lock meanwhile waits, never reads around it).
    ///
    /// Where the transport makes a call wait, each decision goes to the
    /// fan-out pool and the commit returns without waiting for any of them:
    /// the round trip leaves the commit's critical path.  Elsewhere a
    /// decision is CPU on this thread, or an unforced log append, and runs
    /// inline.
    fn decide_secondaries(&self, secondaries: &[ServerId], commit_ts: Timestamp, timing: bool) {
        for &server in secondaries {
            let handed_off = timing.then(clock::now);
            if !self.core.transport_blocks {
                deliver_decision(&self.core, server, self.id, commit_ts, handed_off);
                continue;
            }
            let core = Arc::clone(&self.core);
            let txn = self.id;
            let job = Box::new(move || deliver_decision(&core, server, txn, commit_ts, handed_off));
            if let Err(job) = self.core.fanout.submit(job) {
                job();
            }
        }
    }

    /// Best-effort abort round used when a prepare round fails.  Abort is
    /// idempotent and deduplicated server-side, and participants that miss
    /// the message are cleaned up by the prepare-lease reaper.  Overlapped
    /// where calls block: a failed prepare round under faults would otherwise
    /// serialise several full retry budgets.
    fn abort_participants(&self, participants: &[ServerId]) {
        let aborts = participants
            .iter()
            .map(|&s| (s, KvRequest::Abort { txn: self.id }))
            .collect();
        let _ = round(&self.core, aborts, self.core.cfg.rpc_max_attempts, |_| {
            false
        });
    }

    /// Aborts the transaction, discarding its buffered writes.
    ///
    /// Because writes are buffered at the client until commit, aborting an
    /// active transaction requires no communication.
    pub fn abort(self) {
        if self.state() == TxnState::Active {
            *self.state.lock() = TxnState::Aborted;
            self.core.stats.counter("kv.txn_user_aborts").inc();
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        // However the transaction ends — `commit` and `abort` consume it, or
        // it is dropped while active, holding no server-side state — its
        // snapshot ends here and not before: while a commit is validating,
        // the versions (and tombstones) newer than `start_ts` that
        // first-committer-wins must find have to survive a sweep.
        self.core.snapshots.unregister(self.start_ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::KvDatabase;

    #[test]
    fn methods_take_shared_reference() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let t = client.begin();
        let r1 = &t;
        let r2 = &t;
        r1.put(ObjectId::new(1, 1), Bytes::from_static(b"a"))
            .unwrap();
        assert_eq!(
            r2.get(ObjectId::new(1, 1)).unwrap().as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(t.write_count(), 1);
        t.commit().unwrap();
    }

    #[test]
    fn use_after_commit_rejected() {
        let db = KvDatabase::with_servers(1);
        let client = db.client();
        let t = client.begin();
        t.put(ObjectId::new(1, 1), Bytes::from_static(b"a"))
            .unwrap();
        // `commit` consumes the transaction, so using it afterwards is a
        // compile error; the runtime guard is exercised through `state`.
        assert_eq!(t.state(), TxnState::Active);
        t.commit().unwrap();
    }

    #[test]
    fn read_rpcs_counted() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let get_rpcs = db.stats().counter("kv.get_rpcs");
        let before = get_rpcs.get();
        let t = client.begin();
        let _ = t.get(ObjectId::new(1, 1)).unwrap();
        let _ = t.get(ObjectId::new(1, 2)).unwrap();
        assert_eq!(get_rpcs.get() - before, 2);
        // A re-read of a fetched object is answered by the transaction.
        let _ = t.get(ObjectId::new(1, 1)).unwrap();
        let _ = t.get(ObjectId::new(1, 2)).unwrap();
        assert_eq!(get_rpcs.get() - before, 2);
        // So is a read of a buffered write.
        t.put(ObjectId::new(1, 3), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(
            t.get(ObjectId::new(1, 3)).unwrap().as_deref(),
            Some(&b"x"[..])
        );
        assert_eq!(get_rpcs.get() - before, 2);
        t.commit().unwrap();
    }

    #[test]
    fn read_memo_keeps_the_newest_values() {
        let mut memo = ReadMemo::default();
        for oid in 0..READ_MEMO as u64 + 2 {
            memo.remember(ObjectId::new(1, oid), None);
        }
        assert_eq!(memo.entries.len(), READ_MEMO);
        assert!(memo.get(ObjectId::new(1, 0)).is_none());
        assert!(memo.get(ObjectId::new(1, 1)).is_none());
        for oid in 2..READ_MEMO as u64 + 2 {
            assert!(memo.get(ObjectId::new(1, oid)).is_some(), "oid {oid}");
        }
    }
}
