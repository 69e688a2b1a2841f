//! Client-side transactions: snapshot reads, buffered writes, and the
//! two-phase-commit coordinator, whose prepare round is the commit point.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use yesquel_common::ids::splitmix64;
use yesquel_common::node::{edit_leaf, CellEdit};
use yesquel_common::obs::clock;
use yesquel_common::obs::trace::{count, span, Span, SpanKind, TraceCounter};
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::timeutil::retry_backoff_us;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_rpc::{Completion, Transport};

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, LeafEdit, TxnStatusKind, WriteOp};
use crate::server::KvServer;
use crate::snapshot::SnapshotTracker;

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
    pub(crate) get_lock_retries: Arc<Counter>,
    pub(crate) txn_retries: Arc<Counter>,
    /// Cell edits buffered, and prepares refused over one.  Named for the
    /// tree layer, whose leaves they edit.
    pub(crate) cell_edits: Arc<Counter>,
    pub(crate) cell_edit_refusals: Arc<Counter>,
    /// Commit-phase latencies, recorded only while `Obs::timing_on`:
    /// `prepare` is the whole prepare round of a commit with several
    /// participants, the commit point; `decide` the same round of a commit
    /// with one participant, whose vote is the commit; `apply` one
    /// participant's `Commit`, from its submit to its landing — off the
    /// commit's critical path wherever it lands after the submit returns.
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
            get_lock_retries: stats.counter("kv.get_lock_retries"),
            txn_retries: stats.counter("kv.txn_retries"),
            cell_edits: stats.counter("dbt.cell_edits"),
            cell_edit_refusals: stats.counter("dbt.cell_edit_refusals"),
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
}

/// The first backoff's window is the deadline over this (1 µs at least)...
const BACKOFF_BASE_DIV: u64 = 10_000;
/// ...and no backoff's exceeds the deadline over this.
const BACKOFF_CAP_DIV: u64 = 100;
/// A read that meets a lock reads again after this many µs times the reads
/// so far (16 at most): a live lock lasts a round trip, so it is polled.
const LOCK_WAIT_STEP_US: u64 = 50;
/// How often a participant's `Commit` is submitted while refused at submit.
const DECISION_SUBMITS: usize = 3;

impl ClientCore {
    pub(crate) fn num_servers(&self) -> usize {
        self.transport.num_servers()
    }

    /// Home server of an object in this deployment.
    pub(crate) fn home(&self, obj: ObjectId) -> ServerId {
        obj.home_server(self.num_servers())
    }

    /// Sleeps before retry `n` of one retry loop if the loop has the time,
    /// and says whether it had: the one backoff policy, exponential with
    /// jitter from [`KvConfig::op_deadline_us`] over `BACKOFF_BASE_DIV` up
    /// to the deadline over `BACKOFF_CAP_DIV` (100 µs to 10 ms by default).
    /// `salt` is the loop's jitter salt, `None` until the loop first backs
    /// off; it is drawn then, once per loop, from the client's counter, so
    /// concurrent loops do not sleep in lockstep and a loop that never
    /// retries touches no shared state.
    pub(crate) fn backoff(&self, n: usize, salt: &mut Option<u64>, deadline: &Deadline) -> bool {
        let salt = *salt
            .get_or_insert_with(|| splitmix64(self.retry_salt.fetch_add(1, Ordering::Relaxed)));
        let budget = self.cfg.op_deadline_us();
        let base = (budget / BACKOFF_BASE_DIV).max(1);
        deadline.sleep(retry_backoff_us(n, base, budget / BACKOFF_CAP_DIV, salt))
    }

    /// Issues one RPC with a deadline-and-retry policy: availability-class
    /// failures ([`Error::Timeout`], [`Error::Unavailable`]) are retried
    /// with [`ClientCore::backoff`] until `deadline`; every other error
    /// propagates immediately.
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
        deadline: &Deadline,
    ) -> Result<KvResponse> {
        self.submit(server, req, deadline).wait(self)
    }

    /// [`ClientCore::call_retry`]'s policy for a call that is submitted now
    /// and waited for later: a failure reported at submit — the request was
    /// never delivered — is retried before this returns, one that arrives
    /// later in [`Call::wait`].
    pub(crate) fn submit<'d>(
        &self,
        server: ServerId,
        req: KvRequest,
        deadline: &'d Deadline,
    ) -> Call<'d> {
        count(TraceCounter::Rpcs, 1);
        let span = span(SpanKind::Rpc);
        let mut retry = Retry {
            server,
            req,
            deadline,
            attempt: 0,
            salt: None,
            saw_timeout: false,
            spent: false,
        };
        let reply = Call::send(&mut retry, self);
        Call {
            retry,
            reply,
            _span: span,
        }
    }
}

thread_local! {
    /// The deadline of the [`crate::KvClient::retry_txn`] statement running
    /// on this thread: `None` outside one, `Some(None)` until it is anchored.
    static STATEMENT: Cell<Option<Option<Instant>>> = const { Cell::new(None) };
}

/// Marks the running thread as inside a statement for as long as it lives,
/// with a deadline not yet anchored; a statement nested in another has its
/// own, and the outer one's is back once the inner one ends.
pub(crate) struct Statement(Option<Option<Instant>>);

impl Statement {
    pub(crate) fn enter() -> Self {
        Statement(STATEMENT.replace(Some(None)))
    }
}

impl Drop for Statement {
    fn drop(&mut self) {
        STATEMENT.set(self.0);
    }
}

/// The instant one KV call's retry loops stop at: its statement's, for a
/// call of a transaction a statement began, made on the thread running the
/// statement; otherwise the call's own.  Either is anchored
/// [`KvConfig::op_deadline_us`] after the first retry or wait that asks for
/// it, so a call that never has to wait reads no clock.
pub(crate) struct Deadline {
    budget: Duration,
    statement: bool,
    own: Cell<Option<Instant>>,
}

impl Deadline {
    pub(crate) fn new(cfg: &KvConfig, statement: bool) -> Self {
        Deadline {
            budget: Duration::from_micros(cfg.op_deadline_us()),
            statement,
            own: Cell::new(None),
        }
    }

    /// Whether a wait of `us` from now ends before the deadline, anchoring
    /// it if nothing has yet.  A wait that does not fit spends the deadline
    /// for every loop under it, so the loops above return at once too.
    pub(crate) fn allows(&self, us: u64) -> bool {
        let now = Instant::now();
        let judge = |at: Option<Instant>| {
            let until = at.unwrap_or(now + self.budget);
            let fits = now + Duration::from_micros(us) < until;
            (if fits { until } else { now }, fits)
        };
        if self.statement {
            let shared = STATEMENT.with(|s| {
                let (until, fits) = judge(s.get()?);
                s.set(Some(Some(until)));
                Some(fits)
            });
            if let Some(fits) = shared {
                return fits;
            }
        }
        let (until, fits) = judge(self.own.get());
        self.own.set(Some(until));
        fits
    }

    /// Sleeps `us` (yields for 0) if that ends before the deadline, and
    /// says whether it did: no wait is slept that would end past it.
    pub(crate) fn sleep(&self, us: u64) -> bool {
        if !self.allows(us) {
            return false;
        }
        if us == 0 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(us));
        }
        true
    }
}

/// The retry state of one RPC.
struct Retry<'d> {
    server: ServerId,
    req: KvRequest,
    deadline: &'d Deadline,
    attempt: usize,
    salt: Option<u64>,
    saw_timeout: bool,
    /// Set once a failure found no time for another attempt.
    spent: bool,
}

impl Retry<'_> {
    /// Notes a failed attempt and, if the deadline allows another, backs
    /// off and returns true.
    fn again(&mut self, core: &ClientCore, e: &Error) -> bool {
        if self.spent {
            return false;
        }
        if matches!(e, Error::Timeout(_)) {
            self.saw_timeout = true;
            core.stats.counter("rpc.timeouts").inc();
        }
        if !core.backoff(self.attempt, &mut self.salt, self.deadline) {
            self.spent = true;
            return false;
        }
        core.stats.counter("rpc.retries").inc();
        count(TraceCounter::Retries, 1);
        self.attempt += 1;
        true
    }

    /// The error a call that ran out of time reports.
    fn exhausted(&self, last: Error) -> Error {
        if self.saw_timeout && !matches!(last, Error::Timeout(_)) {
            // An earlier attempt may have been applied even though the final
            // one failed differently; report the in-doubt flavour.
            Error::Timeout(format!(
                "server {}: {last} (an earlier attempt timed out)",
                self.server
            ))
        } else {
            last
        }
    }
}

/// One RPC in flight under [`ClientCore::submit`].
pub(crate) struct Call<'d> {
    retry: Retry<'d>,
    /// The latest attempt's reply.
    reply: Completion<KvResponse>,
    /// Charges the call, retries included, to the op's trace.
    _span: Span,
}

impl Call<'_> {
    /// Submits the next attempt, and another after each the transport
    /// rejects at submit while the deadline allows.
    fn send(retry: &mut Retry<'_>, core: &ClientCore) -> Completion<KvResponse> {
        loop {
            let reply = core.transport.submit(retry.server, retry.req.clone());
            match reply.resolved() {
                Some(Err(e)) if e.is_availability() && retry.again(core, e) => {}
                _ => return reply,
            }
        }
    }

    /// Waits for the response, retrying availability failures that arrive
    /// while waiting.
    pub(crate) fn wait(self, core: &ClientCore) -> Result<KvResponse> {
        let Call {
            mut retry,
            mut reply,
            _span,
        } = self;
        loop {
            match reply.wait() {
                Err(e) if e.is_availability() && retry.again(core, &e) => {
                    reply = Call::send(&mut retry, core);
                }
                Err(e) if e.is_availability() => return Err(retry.exhausted(e)),
                done => return done,
            }
        }
    }
}

/// Issues one round — a transaction's prefetch, or the coordinator's
/// prepares or aborts — of one `(server, request)` call per entry, all
/// retrying until `deadline`, and returns each outcome in entry order.
/// Every call is submitted before any is waited for, so the round costs its
/// slowest call rather than the sum: one round trip on a slept network, one
/// flush wait when the servers force their logs.  Submitting stops early
/// once a call that came back answered satisfies `stop_after` (a failed
/// prepare, so that later participants are never locked for a doomed
/// transaction); the outcomes then end with it.
pub(crate) fn round(
    core: &ClientCore,
    reqs: impl IntoIterator<Item = (ServerId, KvRequest)>,
    deadline: &Deadline,
    stop_after: impl Fn(&Result<KvResponse>) -> bool,
) -> Vec<Result<KvResponse>> {
    let mut calls = Vec::new();
    for (server, req) in reqs {
        let call = core.submit(server, req, deadline);
        let stop = call.reply.resolved().is_some_and(&stop_after);
        calls.push(call);
        if stop {
            break;
        }
    }
    calls.into_iter().map(|call| call.wait(core)).collect()
}

/// Sends a `Commit` to one participant without waiting for it: every
/// participant has voted yes, so the transaction is committed and the
/// outcome only matters to bookkeeping, done where the answer lands.  A
/// refusal at submit is submitted again at once, never backed off from, so
/// the committing thread is not held.  A failure that remains makes the
/// participant lagging; it learns the commit from the other participants
/// when a request or a sweep resolves its prepare.  `kv.commit_apply_us` is
/// the time from submit to landing, if phase timing is on.
fn send_commit(
    core: &Arc<ClientCore>,
    server: ServerId,
    txn: TxnId,
    commit_ts: Timestamp,
    timing: bool,
) {
    count(TraceCounter::Rpcs, 1);
    let _span = span(SpanKind::Rpc);
    let submitted = timing.then(clock::now);
    let decide = KvRequest::Commit { txn, commit_ts };
    let mut reply = core.transport.submit(server, decide.clone());
    for _ in 1..DECISION_SUBMITS {
        match reply.resolved() {
            Some(Err(Error::Timeout(_))) => core.stats.counter("rpc.timeouts").inc(),
            Some(Err(Error::Unavailable(_))) => {}
            _ => break,
        }
        core.stats.counter("rpc.retries").inc();
        count(TraceCounter::Retries, 1);
        reply = core.transport.submit(server, decide.clone());
    }
    let core = Arc::clone(core);
    reply.then(move |(resp, _)| {
        if let Some(t0) = submitted {
            core.hot.commit_apply_us.record(clock::elapsed_us(t0));
        }
        if !matches!(resp, Ok(KvResponse::Committed { .. })) {
            core.stats.counter("kv.commit_lagging_participants").inc();
        }
    });
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
/// the server when it answered draws its prepare timestamp afterwards,
/// above `start_ts`, under the server's shard guards.  Bounded:
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

/// What the participant of a leaf that a transaction edited unread
/// reported about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafReport {
    /// The edits took the leaf over its `max_cells`; reported once the
    /// transaction has committed.
    Full,
    /// The participant refused the edits, and the transaction aborted.
    Refused,
}

/// Called with a leaf a transaction edited unread and its participant's
/// report: how the tree layer asks for the split a fetched insert would
/// have asked for, and learns to fetch a leaf whose edits were refused.
pub type OnReport = Arc<dyn Fn(ObjectId, LeafReport) + Send + Sync>;

/// The cell edits a transaction buffered for one leaf it has not read.
struct Edits {
    /// Key → its edit: the value of the last edit of the key, and whether
    /// any edit of it asked for the key to be absent at the snapshot.
    cells: BTreeMap<Bytes, CellEdit>,
    max_cells: u32,
    on_report: OnReport,
}

impl Edits {
    fn cells(&self) -> Vec<CellEdit> {
        self.cells.values().cloned().collect()
    }

    /// Adds `edit` to the edits of its key; false, adding nothing, for a
    /// put-if-absent of a key this transaction has put.
    fn add(&mut self, edit: CellEdit) -> bool {
        match self.cells.get_mut(&edit.key) {
            Some(held) if edit.if_absent && held.value.is_some() => return false,
            // An earlier put-if-absent's check stands; after a remove the
            // key is absent, whatever the snapshot holds.
            Some(held) => held.value = edit.value,
            None => {
                self.cells.insert(edit.key.clone(), edit);
            }
        }
        true
    }
}

/// What a transaction can answer without a server: its buffered writes and
/// the values it fetched, under one lock.  Its cell edits are here too; an
/// object has buffered edits or a buffered write, never both: fetching the
/// leaf itself turns its edits into a write, [`Txn::put`] and
/// [`Txn::delete`] replace them, and [`Txn::put_many`] refuses an object
/// that has them, since a page read from a replica copy of the leaf does
/// not include its edits.
#[derive(Default)]
struct Local {
    writes: BTreeMap<ObjectId, Option<Bytes>>,
    edits: BTreeMap<ObjectId, Edits>,
    reads: ReadMemo,
}

impl Local {
    /// `obj` at this transaction's snapshot as it knows it: its own write
    /// first, else a value it fetched; `None` if it has to ask.
    fn read(&self, obj: ObjectId) -> Option<&Option<Bytes>> {
        self.writes.get(&obj).or_else(|| self.reads.get(obj))
    }

    /// Remembers `value`, fetched for `obj`.  If the transaction edited
    /// `obj` unread, its edits are applied to `value` as the participant
    /// would, and the page becomes an ordinary write; edits the participant
    /// would refuse are refused here, and reported, and a put-if-absent of
    /// a present key fails here; either way the edits stay buffered, so
    /// that the commit fails too.  Returns what a read of `obj` answers.
    fn fetched(&mut self, obj: ObjectId, value: Option<Bytes>) -> Result<Option<Bytes>> {
        let Some(edits) = self.edits.get(&obj) else {
            self.reads.remember(obj, value.clone());
            return Ok(value);
        };
        match edit_leaf(obj, value, &edits.cells()) {
            Ok((page, _)) => {
                self.edits.remove(&obj);
                self.writes.insert(obj, Some(page.clone()));
                Ok(Some(page))
            }
            Err(e) => {
                if let Error::EditRefused { .. } = e {
                    (edits.on_report)(obj, LeafReport::Refused);
                }
                Err(e)
            }
        }
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
    /// Whether the transaction's calls retry until its statement's
    /// deadline (see [`Deadline`]) rather than one each.
    statement: bool,
}

impl Txn {
    /// Begins a transaction; `statement` if it is an attempt of a
    /// [`crate::KvClient::retry_txn`] statement.
    pub(crate) fn begin(core: Arc<ClientCore>, statement: bool) -> Self {
        let id = core.oracle.next_txn_id();
        let start_ts = core.snapshots.begin(&core.oracle);
        core.hot.txn_started.inc();
        Txn {
            core,
            id,
            start_ts,
            state: Mutex::new(TxnState::Active),
            local: Mutex::new(Local::default()),
            statement,
        }
    }

    /// The deadline of one call of this transaction.
    fn deadline(&self) -> Deadline {
        Deadline::new(&self.core.cfg, self.statement)
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
        let local = self.local.lock();
        local.writes.is_empty() && local.edits.is_empty()
    }

    /// Number of objects written so far, edited leaves included.
    pub fn write_count(&self) -> usize {
        let local = self.local.lock();
        local.writes.len() + local.edits.len()
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
    /// and fetching it only if it has not already).  A leaf the transaction
    /// edited unread is fetched and answered with its edits applied; from
    /// then on it is an ordinary write.  If they cannot be applied, this
    /// fails as the participant would have refused them.
    pub fn get(&self, obj: ObjectId) -> Result<Option<Bytes>> {
        self.check_active()?;
        if let Some(v) = self.local.lock().read(obj).cloned() {
            return Ok(v);
        }
        let _get_span = span(SpanKind::KvGet);
        let server = self.core.home(obj);
        let deadline = self.deadline();
        let mut reads = 0;
        loop {
            self.core.hot.get_rpcs.inc();
            let get = KvRequest::Get {
                obj,
                ts: self.start_ts,
            };
            match self.core.call_retry(server, get, &deadline)? {
                KvResponse::Value(v) => {
                    let read = self.local.lock().fetched(obj, v);
                    if let Err(Error::EditRefused { .. }) = read {
                        self.core.hot.cell_edit_refusals.inc();
                    }
                    return read;
                }
                KvResponse::Locked => {
                    reads += 1;
                    self.core.hot.get_lock_retries.inc();
                    if !deadline.sleep(LOCK_WAIT_STEP_US * reads.min(16)) {
                        return Err(Error::LockTimeout(format!(
                            "object {obj} still locked at the deadline, after {reads} reads"
                        )));
                    }
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
    /// Only where a call finishes after it is submitted: the round then
    /// costs one round trip instead of one per object.  Elsewhere a call is
    /// CPU on this thread, and `get` pays the same later, so nothing is
    /// fetched.
    /// Advisory: objects the transaction wrote, edited or already fetched
    /// are skipped, and only values are remembered — a locked object, or a
    /// call that failed, is left to `get`, which waits or reports it.
    pub fn prefetch(&self, objs: &[ObjectId]) {
        if !self.prefetches() || self.state() != TxnState::Active {
            return;
        }
        let mut wanted: Vec<ObjectId> = Vec::with_capacity(objs.len());
        {
            let local = self.local.lock();
            for &obj in objs {
                let known = local.read(obj).is_some() || local.edits.contains_key(&obj);
                if !known && !wanted.contains(&obj) {
                    wanted.push(obj);
                }
            }
        }
        if wanted.is_empty() {
            return;
        }
        let _get_span = span(SpanKind::KvGet);
        let gets = wanted.iter().map(|&obj| {
            let get = KvRequest::Get {
                obj,
                ts: self.start_ts,
            };
            (self.core.home(obj), get)
        });
        self.core.hot.get_rpcs.add(wanted.len() as u64);
        let outcomes = round(&self.core, gets, &self.deadline(), |_| false);
        let mut local = self.local.lock();
        for (obj, resp) in wanted.into_iter().zip(outcomes) {
            if let Ok(KvResponse::Value(v)) = resp {
                local.reads.remember(obj, v);
            }
        }
    }

    /// Whether [`Txn::prefetch`] fetches anything in this deployment — the
    /// transport's calls finish after they are submitted — so a caller can
    /// skip working out what to name.
    pub fn prefetches(&self) -> bool {
        self.core.transport.finishes_after_submit()
    }

    /// Buffers a write of `value` to `obj`.  The page replaces any cell
    /// edits buffered for it: a page is written from what was read, and
    /// reading the edited leaf itself applied its edits.  (A page read from
    /// one of its replica copies did not, but a replicated leaf is written
    /// with [`Txn::put_many`], which refuses it.)
    pub fn put(&self, obj: ObjectId, value: impl Into<Bytes>) -> Result<()> {
        self.check_active()?;
        let mut local = self.local.lock();
        local.edits.remove(&obj);
        local.writes.insert(obj, Some(value.into()));
        Ok(())
    }

    /// Whether a cell edit of `obj` may go unread: the transaction holds no
    /// page for it, fetched or written.  A leaf it holds is edited where it
    /// is held.
    pub fn may_edit_unread(&self, obj: ObjectId) -> bool {
        self.local.lock().read(obj).is_none()
    }

    /// Buffers a cell edit of the leaf `obj`, which the transaction has not
    /// read ([`Txn::may_edit_unread`]): a put, a put-if-absent or a remove
    /// of one key.  The leaf's participant applies the edits to the version
    /// this transaction's snapshot reads, after validating the leaf like any
    /// write, or refuses the prepare when that version is not a leaf, does
    /// not fence the key or lists replicas ([`Error::EditRefused`]), or
    /// when a put-if-absent finds its key there ([`Error::KeyPresent`]).
    /// False, buffering nothing, for a put-if-absent of a key the
    /// transaction has put in this leaf already.  `on_report` is called
    /// with the leaf when its participant refuses the edits, and, once the
    /// transaction has committed, when it found the leaf over `max_cells`.
    pub fn edit_cell(
        &self,
        obj: ObjectId,
        edit: CellEdit,
        max_cells: usize,
        on_report: &OnReport,
    ) -> Result<bool> {
        self.check_active()?;
        let mut local = self.local.lock();
        debug_assert!(local.read(obj).is_none(), "{obj} is held: edit it locally");
        let edits = local.edits.entry(obj).or_insert_with(|| Edits {
            cells: BTreeMap::new(),
            max_cells: u32::try_from(max_cells).unwrap_or(u32::MAX),
            on_report: Arc::clone(on_report),
        });
        let added = edits.add(edit);
        if added {
            self.core.hot.cell_edits.inc();
        }
        Ok(added)
    }

    /// Buffers a write of the same `value` to every object in `objs` — the
    /// write-all primitive behind replicated objects.  The payload is shared
    /// (`Bytes` is reference-counted), so the per-copy cost is one buffered
    /// entry, and commit fans the copies out through the ordinary commit
    /// path: either every copy becomes visible or none does.
    ///
    /// An object with buffered cell edits is refused, as its participant
    /// would refuse them, and nothing is buffered: the page was read from a
    /// replica copy, which lacks the edits, and writing it would lose them.
    pub fn put_many(&self, objs: impl IntoIterator<Item = ObjectId>, value: Bytes) -> Result<()> {
        self.check_active()?;
        let mut local = self.local.lock();
        let objs: Vec<ObjectId> = objs.into_iter().collect();
        if let Some((&obj, edits)) = objs.iter().find_map(|o| local.edits.get_key_value(o)) {
            (edits.on_report)(obj, LeafReport::Refused);
            self.core.hot.cell_edit_refusals.inc();
            let reason = "written whole from a replica copy, which lacks the edits".into();
            return Err(Error::EditRefused { obj, reason });
        }
        for obj in objs {
            local.writes.insert(obj, Some(value.clone()));
        }
        Ok(())
    }

    /// Buffers a deletion of `obj`, which replaces any cell edits buffered
    /// for it.
    pub fn delete(&self, obj: ObjectId) -> Result<()> {
        self.check_active()?;
        let mut local = self.local.lock();
        local.edits.remove(&obj);
        local.writes.insert(obj, None);
        Ok(())
    }

    /// Commits the transaction, returning its commit timestamp.
    ///
    /// Read-only transactions commit locally with no communication.  Every
    /// other commits through one prepare round, its commit point, which
    /// carries its writes and its cell edits: once
    /// every participant has voted yes — locked, drawn a prepare timestamp
    /// and forced its vote — the transaction is committed at the largest
    /// prepare timestamp, and this returns.  A participant that is the only
    /// one applies the commit itself before it answers.  Otherwise the
    /// participants' `Commit`s are submitted and not waited for: one that
    /// misses its `Commit` learns the fate from the others, and a reader
    /// that meets its lock meanwhile gets it resolved.
    pub fn commit(self) -> Result<Timestamp> {
        self.check_active()?;

        let (writes, edits) = {
            let mut local = self.local.lock();
            (
                std::mem::take(&mut local.writes),
                std::mem::take(&mut local.edits),
            )
        };
        if writes.is_empty() && edits.is_empty() {
            *self.state.lock() = TxnState::Committed;
            self.core.hot.readonly_commits.inc();
            return Ok(self.start_ts);
        }
        let _commit_span = span(SpanKind::KvCommit);
        // Phase timing is pay-as-you-go: no clock is read unless the
        // deployment turned `Obs::timing_on`.
        let timing = self.core.stats.obs().timing_on();
        // One deadline for the whole commit: the prepares, the probes of
        // lost votes and the aborts of a failed round.
        let deadline = self.deadline();

        // Group writes and edits by participant server, preserving ObjectId
        // order so that servers acquire locks in a deterministic order.
        let mut by_server: BTreeMap<ServerId, (Vec<WriteOp>, Vec<LeafEdit>)> = BTreeMap::new();
        for (obj, value) in &writes {
            let server = by_server.entry(self.core.home(*obj)).or_default();
            server.0.push(WriteOp {
                obj: *obj,
                value: value.clone(),
            });
        }
        for (obj, e) in &edits {
            let server = by_server.entry(self.core.home(*obj)).or_default();
            server.1.push(LeafEdit {
                obj: *obj,
                cells: e.cells(),
                max_cells: e.max_cells,
            });
        }
        let participants: Vec<ServerId> = by_server.keys().copied().collect();
        let hot = &self.core.hot;
        hot.commit_participants.add(participants.len() as u64);
        let alone = participants.len() == 1;
        let (kind, phase) = if alone {
            (&hot.commit_1pc, &hot.commit_decide_us)
        } else {
            (&hot.commit_2pc, &hot.commit_prepare_us)
        };
        kind.inc();

        // The prepare round, and the commit point.  Each participant
        // validates, locks, draws its prepare timestamp and forces its vote;
        // over forced logs the votes' flushes overlap, one per server.
        let t0 = timing.then(clock::now);
        let prepares = by_server.into_iter().map(|(server, (writes, edits))| {
            let req = KvRequest::Prepare {
                txn: self.id,
                start_ts: self.start_ts,
                writes,
                edits,
                participants: participants.clone(),
                lease_us: self.core.cfg.prepare_lease_us,
            };
            (server, req)
        });
        let votes = round(&self.core, prepares, &deadline, |resp| {
            !matches!(resp, Ok(KvResponse::Prepared { .. }))
        });
        if let Some(t0) = t0 {
            phase.record(clock::elapsed_us(t0));
        }
        let report = |obj: ObjectId, what: LeafReport| {
            if let Some(e) = edits.get(&obj) {
                (e.on_report)(obj, what);
            }
        };
        let mut full = Vec::new();
        match self.tally(&participants, votes, &deadline, &mut full) {
            Ok(commit_ts) => {
                if !alone {
                    for &server in &participants {
                        send_commit(&self.core, server, self.id, commit_ts, timing);
                    }
                }
                *self.state.lock() = TxnState::Committed;
                hot.txn_committed.inc();
                full.into_iter()
                    .for_each(|obj| report(obj, LeafReport::Full));
                Ok(commit_ts)
            }
            Err(e) => {
                *self.state.lock() = TxnState::Aborted;
                if let Error::EditRefused { obj, .. } = e {
                    report(obj, LeafReport::Refused);
                }
                Err(e)
            }
        }
    }

    /// Judges a prepare round, in participant order, and returns the commit
    /// timestamp — the largest prepare timestamp — once every participant
    /// has voted yes, or the error to report.  The edited leaves the votes
    /// name as full are added to `full`.
    ///
    /// A `Committed` answer is the commit: a sole participant's, or one
    /// that resolved the transaction already.  A refusal aborts; a refused
    /// cell edit is counted on its own, not as a conflict, and a key a
    /// put-if-absent found present is not counted here.  Every
    /// other vote not heard — an answer lost, a failure, a prepare the round
    /// never sent — is asked for with a fencing probe, after which its
    /// participant has voted yes or never will: a clean abort, reported as
    /// the failure that caused it.  Only a participant that cannot be
    /// reached by the deadline leaves the fate unknown (`Indeterminate`),
    /// and then nobody is told to abort, since the transaction may have
    /// committed.  A clean abort is sent to the other participants,
    /// best-effort.
    fn tally(
        &self,
        participants: &[ServerId],
        votes: Vec<Result<KvResponse>>,
        deadline: &Deadline,
        full: &mut Vec<ObjectId>,
    ) -> Result<Timestamp> {
        let failed = |server: ServerId, why: String| {
            Error::Unavailable(format!(
                "prepare of txn {} at server {server} failed ({why}); transaction aborted",
                self.id
            ))
        };
        let mut commit_ts = self.start_ts;
        let mut unheard = Vec::new();
        let mut votes = votes.into_iter();
        for &server in participants {
            let failure = match votes.next() {
                Some(Ok(KvResponse::Prepared {
                    prepare_ts,
                    full: named,
                })) => {
                    commit_ts = commit_ts.max(prepare_ts);
                    full.extend(named);
                    continue;
                }
                // A sole participant's vote, or a commit resolved already.
                Some(Ok(KvResponse::Committed {
                    commit_ts,
                    full: named,
                })) => {
                    full.extend(named);
                    return Ok(commit_ts);
                }
                Some(Ok(KvResponse::Conflict { reason })) => {
                    self.core.hot.txn_conflicts.inc();
                    count(TraceCounter::Conflicts, 1);
                    let conflict = Error::Conflict(reason);
                    return Err(self.aborted(participants, server, deadline, conflict));
                }
                Some(Ok(KvResponse::EditRefused { obj, reason })) => {
                    self.core.hot.cell_edit_refusals.inc();
                    let refused = Error::EditRefused { obj, reason };
                    return Err(self.aborted(participants, server, deadline, refused));
                }
                Some(Ok(KvResponse::KeyPresent { obj, key })) => {
                    let present = Error::KeyPresent { obj, key };
                    return Err(self.aborted(participants, server, deadline, present));
                }
                Some(Ok(KvResponse::ServerError { message })) => Error::Io(message),
                Some(Ok(other)) => {
                    Error::Internal(format!("unexpected prepare response: {other:?}"))
                }
                Some(Err(e)) => failed(server, e.to_string()),
                None => failed(server, "never sent".into()),
            };
            unheard.push((server, failure));
        }
        let fence = KvRequest::TxnStatus {
            txn: self.id,
            fence: true,
        };
        let probes = unheard.iter().map(|(server, _)| (*server, fence.clone()));
        let answers = round(&self.core, probes, deadline, |_| false);
        let mut unknown = None;
        for ((server, failure), answer) in unheard.into_iter().zip(answers) {
            match answer {
                Ok(KvResponse::TxnOutcome { status }) => match status {
                    TxnStatusKind::Prepared(ts) => commit_ts = commit_ts.max(ts),
                    TxnStatusKind::Committed(ts) => return Ok(ts),
                    TxnStatusKind::Aborted => {
                        return Err(self.aborted(participants, server, deadline, failure))
                    }
                    TxnStatusKind::Unknown => unknown = unknown.or(Some((server, failure))),
                },
                _ => unknown = unknown.or(Some((server, failure))),
            }
        }
        match unknown {
            Some((server, failure)) => Err(self.indeterminate(format!(
                "the vote of server {server} on txn {} is unknown: {failure}",
                self.id
            ))),
            None => Ok(commit_ts),
        }
    }

    /// An in-doubt commit, counted.
    fn indeterminate(&self, what: String) -> Error {
        self.core.stats.counter("kv.commit_indeterminate").inc();
        Error::Indeterminate(what)
    }

    /// Best-effort abort round used when a prepare round fails, under the
    /// commit's deadline, returning `failure`: each abort gets one attempt
    /// even if the deadline has passed.  `settled_at` — the participant
    /// whose refusal or fence settled the abort — has recorded it already
    /// and is sent none, so a transaction with one participant sends no
    /// abort at all.  Abort is idempotent and deduplicated server-side, and
    /// a participant that misses the message learns the abort from the
    /// refusal or fence that caused it when its prepare is resolved.
    fn aborted(
        &self,
        participants: &[ServerId],
        settled_at: ServerId,
        deadline: &Deadline,
        failure: Error,
    ) -> Error {
        let aborts = (participants.iter())
            .filter(|&&s| s != settled_at)
            .map(|&s| (s, KvRequest::Abort { txn: self.id }));
        let _ = round(&self.core, aborts, deadline, |_| false);
        if matches!(failure, Error::Unavailable(_)) {
            self.core.stats.counter("kv.prepare_deadline_aborts").inc();
        }
        failure
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
    fn fault_free_calls_and_statements_anchor_no_deadline() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let (a, b) = (ObjectId::new(1, 1), ObjectId::new(1, 3));
        client
            .retry_txn(|txn| {
                assert_eq!(txn.get(a)?, None);
                txn.put(a, Bytes::from_static(b"a"))?;
                txn.put(b, Bytes::from_static(b"b"))?;
                txn.commit()?;
                // Nothing waited, so nothing read the clock to anchor.
                assert_eq!(STATEMENT.get(), Some(None), "the statement anchored");
                Ok(())
            })
            .unwrap();
        assert_eq!(STATEMENT.get(), None, "the statement outlived its call");
        assert_eq!(db.stats().counter("kv.commit_2pc").get(), 1);
        assert_eq!(db.stats().counter("kv.txn_retries").get(), 0);
    }

    /// A leaf edited unread and then written whole with its copies — a page
    /// read from a replica copy, which lacks the edits — is refused, and
    /// nothing is buffered.
    #[test]
    fn a_write_all_of_an_edited_leaf_is_refused() {
        let db = KvDatabase::with_servers(1);
        let t = db.client().begin();
        let (leaf, copy) = (ObjectId::new(1, 1), ObjectId::new(1, 2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let on_report: OnReport = Arc::new(move |obj, what| s.lock().push((obj, what)));
        let edit = CellEdit::put(Bytes::from_static(b"k"), Bytes::from_static(b"v"));
        assert!(t.edit_cell(leaf, edit, 8, &on_report).unwrap());
        let page = Bytes::from_static(b"page");
        let refused = t.put_many([copy, leaf], page).unwrap_err();
        assert!(
            matches!(refused, Error::EditRefused { obj, .. } if obj == leaf),
            "{refused:?}"
        );
        assert_eq!(*seen.lock(), vec![(leaf, LeafReport::Refused)]);
        assert_eq!(t.write_count(), 1, "only the edited leaf");
        let refusals = db.stats().counter("dbt.cell_edit_refusals");
        assert_eq!(refusals.get(), 1);
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
