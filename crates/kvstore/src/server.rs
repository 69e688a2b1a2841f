//! The storage-server process: dispatches protocol requests to the store.
//!
//! Besides plain dispatch, the server **resolves undecided prepares**
//! whose coordinator may have gone silent.  The prepare round is the
//! commit point:
//!
//! * each participant locks, draws a prepare timestamp under its shard
//!   guards and forces its yes vote to its log before answering; a
//!   transaction is committed once every participant has voted yes, at the
//!   maximum prepare timestamp, and the coordinator's `Commit`s only apply
//!   that fate.  A participant that is the only one is the only voter:
//!   once its vote is durable it applies the commit itself and answers
//!   `Committed`, so no `Commit` is sent;
//! * **a yes vote is never revoked**: a transaction aborts only on a
//!   *refusal* (a prepare that failed validation) or a *fence* (an abort a
//!   participant with no record of the transaction writes when a probe asks
//!   for one, after which its prepare is refused), and either is forced
//!   before anybody hears of it.
//!
//! So an undecided prepare is settled from the participants' records
//! alone — a sole participant's from its own vote.  `KvServer::resolve`
//! asks every other participant ([`KvRequest::TxnStatus`]): a
//! `Committed(ts)` anywhere installs at `ts`; a yes vote from every one
//! commits at the maximum at once, lease or not; a refusal or fence
//! anywhere aborts; anything else waits.  Once the lease
//! has passed, the probes fence: a participant that never saw the prepare
//! records an abort, and the transaction aborts.  A probe is answered from
//! the probed server's records and never asks another server.
//!
//! The routine runs where an undecided prepare is met: a `Get` that finds
//! its lock, and a `Prepare` that conflicts on it or finds it on a leaf it
//! edits, at once; and [`KvServer::reap`], which restart and deployment
//! build call.  A resolver counts its own vote only once it is durable.  A
//! `Get` that finds a lock always reads again once its holder's resolution
//! is done, and a `Prepare` that found one only on the leaves it edits
//! prepares again ([`PrepareOutcome::Locked`]).  A resolution waits for
//! the store's transaction table (a prepare is in it before anyone can
//! wait for it), so a `Locked` answer, or a refusal on such a lock, means
//! the holder is still undecided after resolution: the other participants'
//! records did not settle it.
//!
//! **An orphan nobody meets is still resolved in bounded time.**  Every
//! request but a `TxnStatus` sweeps the overdue prepares, and those
//! restored from the log, once a tenth of the lease has passed since the
//! last sweep, while anything is prepared.  The bound matters: a server
//! remembers an outcome only for its next `OUTCOME_RETENTION` decisions, so
//! a participant that lost its `Commit` and asked only when met could find
//! every other participant's record of the commit forgotten, fence, and
//! abort a transaction that committed.
//!
//! **A server never waits.**  What a request must wait for — its vote's
//! flush, the other participants' answers to its probes, the holders of the
//! locks it met — it leaves a continuation on, and its answer is the
//! completion that continuation answers; the worker moves on to the next
//! request.  So two servers whose every worker resolves a prepare by
//! probing the other still answer each other's `TxnStatus`, with one
//! worker each.  A continuation never blocks and never submits: a request's
//! probes are all submitted by the request's own thread before it returns.
//! [`KvServer::reap`] is the one entry point that waits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_rpc::{Completion, Service, Transport};
use yesquel_wal::Wal;

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, LeafEdit, TxnStatusKind, WriteOp};
use crate::store::{PrepareOutcome, ReadOutcome, ServerStore, TxnOutcome, Undecided};

/// One storage server: a [`ServerStore`], a handle to the timestamp oracle
/// (prepares draw their prepare timestamps from it), and what resolving an
/// undecided prepare needs.
pub struct KvServer {
    id: ServerId,
    /// Shared with the continuations that commit a sole vote, read again
    /// after a resolution, or apply a resolution's fate.
    store: Arc<ServerStore>,
    oracle: TimestampOracle,
    /// Transport to the sibling servers, used to probe the other
    /// participants of a transaction.  `Weak` because the transport owns
    /// the servers — an `Arc` here would leak the whole cluster.
    peer: Mutex<Option<Weak<dyn Transport<KvServer>>>>,
    /// When the last sweep ran, in microseconds since `started`.
    last_sweep_us: AtomicU64,
    started: Instant,
    /// Shared with the continuations that apply a resolution's fate.
    reaped: Arc<Reaped>,
    /// The configured prepare lease.  Prepared transactions restored from
    /// the log get it, since their coordinator may be gone; and sweeps run
    /// at most once per tenth of it.
    lease: Duration,
}

/// A `Prepare` request, kept whole so that it can be run again once the
/// holders of the locks it met are resolved.
struct PrepareCall {
    txn: TxnId,
    start_ts: Timestamp,
    writes: Vec<WriteOp>,
    edits: Vec<LeafEdit>,
    participants: Vec<ServerId>,
    lease: Duration,
}

impl PrepareCall {
    /// Validates, locks and votes at `store`, drawing from `oracle`.
    fn run(
        &self,
        store: &ServerStore,
        oracle: &TimestampOracle,
    ) -> Result<(PrepareOutcome, Completion<()>)> {
        let next_ts = || oracle.next_timestamp();
        let (writes, edits) = (&self.writes, &self.edits);
        store.prepare(
            self.txn,
            self.start_ts,
            writes,
            edits,
            &self.participants,
            self.lease,
            next_ts,
        )
    }

    /// Every object the prepare locks.
    fn objs(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (self.writes.iter().map(|w| w.obj)).chain(self.edits.iter().map(|e| e.obj))
    }
}

/// Prepares a server resolved, by the fate its resolution reached.
#[derive(Default)]
struct Reaped {
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl KvServer {
    /// Creates server `id` sharing the deployment's timestamp oracle, with
    /// the default configuration.
    pub fn new(id: ServerId, oracle: TimestampOracle) -> Self {
        Self::with_config(id, oracle, &KvConfig::default())
    }

    /// Creates server `id` with an explicit configuration.
    pub fn with_config(id: ServerId, oracle: TimestampOracle, cfg: &KvConfig) -> Self {
        Self::with_wal(id, oracle, cfg, None).expect("in-memory server construction cannot fail")
    }

    /// Creates server `id` backed by a write-ahead log (when `Some`), and
    /// **recovers** from it: whatever clean-prefix records the log holds
    /// are replayed into the store before the server handles any request.
    /// The database layer constructs the per-server logs and wires this up
    /// when `KvConfig::wal_dir` is set.
    pub fn with_wal(
        id: ServerId,
        oracle: TimestampOracle,
        cfg: &KvConfig,
        wal: Option<Arc<Wal>>,
    ) -> Result<Self> {
        let server = KvServer {
            id,
            store: Arc::new(ServerStore::with_wal(wal.clone())),
            oracle,
            peer: Mutex::new(None),
            last_sweep_us: AtomicU64::new(0),
            started: Instant::now(),
            reaped: Arc::default(),
            lease: Duration::from_micros(cfg.prepare_lease_us.max(1)),
        };
        if let Some(wal) = wal {
            let records = wal.recover()?;
            let recovered = server.store.replay(&records, server.lease);
            wal.note_recovered_txns(recovered);
        }
        Ok(server)
    }

    /// Simulates an amnesia crash-restart of this server: volatile state is
    /// dropped, the log loses its never-fsynced tail (a power loss would
    /// have taken it), and the store is rebuilt by replaying the clean
    /// prefix.  Without a log this is a plain amnesia crash: everything
    /// volatile is simply gone, as on a real diskless server.  Prepared
    /// transactions that come back undecided are looked up at the other
    /// participants before the call returns ([`KvServer::reap`]).
    pub fn amnesia_restart(&self) -> Result<()> {
        let wal = self.store().wal().cloned();
        self.store.wipe_volatile();
        let Some(wal) = wal else {
            return Ok(());
        };
        wal.power_loss()?;
        let records = wal.recover()?;
        let recovered = self.store.replay(&records, self.lease);
        wal.note_recovered_txns(recovered);
        self.reap();
        Ok(())
    }

    /// Checkpoints the store into a fresh log segment and truncates the old
    /// ones (no-op without a log).
    pub fn checkpoint(&self) -> Result<()> {
        self.store.checkpoint()
    }

    /// This server's id (its index in the cluster).
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Direct access to the underlying store (tests, GC driving, stats).
    pub fn store(&self) -> &ServerStore {
        &self.store
    }

    /// Connects this server to its siblings, to probe other participants.
    /// Called once at deployment build time.
    pub fn set_peer_transport(&self, transport: &Arc<dyn Transport<KvServer>>) {
        *self.peer.lock() = Some(Arc::downgrade(transport));
    }

    /// Creates `n` servers sharing one oracle and a configuration.
    pub fn make_servers_with(
        n: usize,
        oracle: &TimestampOracle,
        cfg: &KvConfig,
    ) -> Vec<Arc<KvServer>> {
        (0..n)
            .map(|id| Arc::new(KvServer::with_config(id, oracle.clone(), cfg)))
            .collect()
    }

    /// Transactions resolved by this server so far, as `(commits,
    /// aborts)`.
    pub fn reap_counts(&self) -> (u64, u64) {
        (
            self.reaped.commits.load(Ordering::Relaxed),
            self.reaped.aborts.load(Ordering::Relaxed),
        )
    }

    /// Resolves every prepared transaction that is due: overdue, or
    /// restored from the log, and waits until each resolution is done.
    /// Restart and deployment build call it, and tests force convergence
    /// with it after healing faults.  The one entry point that waits.
    pub fn reap(&self) {
        let _ = self.resolve(None).wait();
    }

    /// Starts resolving the due prepares, without waiting for them, if a
    /// tenth of the lease has passed since the last sweep.  The fast path
    /// is one relaxed atomic load: unless some transaction is actually
    /// prepared, neither the clock (tens of nanoseconds — measurable on a
    /// sub-microsecond Get) nor any lock is touched.
    fn maybe_sweep(&self) {
        if !self.store.has_prepared() {
            return;
        }
        let now_us = self.started.elapsed().as_micros() as u64;
        let every_us = self.lease.as_micros() as u64 / 10;
        let due = |last: u64| (now_us.saturating_sub(last) >= every_us).then_some(now_us);
        // One request per interval wins the sweep.
        if self
            .last_sweep_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, due)
            .is_ok()
        {
            let _ = self.resolve(None);
        }
    }

    /// The one routine that resolves an undecided prepare: `txn` — one
    /// somebody just met — or, when `None`, every one that is due.  The
    /// fate comes from the participants' records (see the module docs) and
    /// a continuation applies it once they have answered; the returned
    /// completion answers after that.  On no verdict, or a failed log
    /// append, the prepare stays as it is for the next meeting.
    fn resolve(&self, txn: Option<TxnId>) -> Completion<()> {
        let resolutions = self.store.undecided(txn).into_iter().map(|p| {
            let (store, reaped) = (Arc::clone(&self.store), Arc::clone(&self.reaped));
            self.ask_participants(&p).chain(move |(want, due)| {
                if let Ok(Some(want)) = want {
                    let (fate, tally) = match want {
                        TxnOutcome::Committed(ts) => (store.commit(p.txn, ts), &reaped.commits),
                        TxnOutcome::Aborted => (store.abort(p.txn), &reaped.aborts),
                    };
                    // Tally only the fate this call reached for: one that
                    // lost to a decision landing meanwhile is not this
                    // resolution's.
                    if matches!(fate, Ok(fate) if fate == want) {
                        tally.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (Ok(()), due)
            })
        });
        Self::all_of(resolutions)
    }

    /// Probes every other participant of an undecided prepare in one round,
    /// fencing if it is overdue, and answers with the fate their records
    /// settle: a commit any of them installed, an abort on any refusal or
    /// fence, a commit at the maximum prepare timestamp when every one voted
    /// yes — this server's own vote counting once it is durable, and
    /// settling a prepare that names no other participant on its own.
    /// `None` when they do not settle it, or when there is no peer
    /// transport to probe with.
    fn ask_participants(&self, p: &Undecided) -> Completion<Option<TxnOutcome>> {
        let status = TxnStatusKind::Prepared(p.prepare_ts);
        let own = (self.store.durable(p.vote))
            .chain(move |(voted, due)| (voted.map(|()| KvResponse::TxnOutcome { status }), due));
        let peer = self.peer.lock().as_ref().and_then(Weak::upgrade);
        let probe = KvRequest::TxnStatus {
            txn: p.txn,
            fence: p.overdue,
        };
        let probes = (p.participants.iter().filter(|&&s| s != self.id))
            .map(|&s| Some(peer.as_ref()?.submit(s, probe.clone())));
        let Some(answers) = std::iter::once(Some(own)).chain(probes).collect() else {
            return Completion::ready(Ok(None));
        };
        Completion::all(answers).chain(|(answers, due)| (answers.map(Self::tally), due))
    }

    /// The fate one round of answers settles, own vote included (see
    /// [`KvServer::ask_participants`]).
    fn tally(answers: Vec<Result<KvResponse>>) -> Option<TxnOutcome> {
        let mut all_voted = Some(0);
        for answer in answers {
            match answer {
                Ok(KvResponse::TxnOutcome { status }) => match status {
                    TxnStatusKind::Committed(ts) => return Some(TxnOutcome::Committed(ts)),
                    TxnStatusKind::Aborted => return Some(TxnOutcome::Aborted),
                    TxnStatusKind::Prepared(ts) => all_voted = all_voted.map(|max| max.max(ts)),
                    TxnStatusKind::Unknown => all_voted = None,
                },
                _ => all_voted = None,
            }
        }
        all_voted.map(TxnOutcome::Committed)
    }

    /// Resolves the prepare holding `obj`'s lock, unless it is `own`'s.
    fn resolve_holder(&self, obj: ObjectId, own: Option<TxnId>) -> Completion<()> {
        match self.store.lock_holder(obj) {
            Some(holder) if Some(holder) != own => self.resolve(Some(holder)),
            _ => Completion::ready(Ok(())),
        }
    }

    /// The completion that answers once every one of `waits` has, with the
    /// first failure among them.
    fn all_of(waits: impl Iterator<Item = Completion<()>>) -> Completion<()> {
        Completion::all(waits.collect())
            .chain(|(all, due)| (all.and_then(|all| all.into_iter().collect()), due))
    }

    /// Renders a store-level failure (log append / fsync) as a response.
    /// The store's log-before-apply ordering guarantees nothing was
    /// installed or made observable when this is returned.
    fn server_error(e: Error) -> KvResponse {
        KvResponse::ServerError {
            message: e.to_string(),
        }
    }

    /// Commits the prepare of `txn` that names this server as its only
    /// participant: its vote, once `durable`, is the commit, at
    /// `prepare_ts`, and the answer names the edited leaves `full`.
    /// Applied here at once when the vote is durable already
    /// (no log), else by a continuation on the vote's flush.  Once the vote
    /// is durable the answer is `Committed`, whatever applying it reports: a
    /// reader that met the lock may have committed it already, and its
    /// outcome may since have left the table; a commit record that fails to
    /// append leaves the prepare for [`KvServer::resolve`], which commits it
    /// from the vote alone.
    fn commit_sole_vote(
        store: &Arc<ServerStore>,
        txn: TxnId,
        prepare_ts: Timestamp,
        full: Vec<ObjectId>,
        durable: Completion<()>,
    ) -> Completion<KvResponse> {
        let commit = move |store: &ServerStore, flushed: Result<()>| match flushed {
            Ok(()) => {
                let _ = store.commit(txn, prepare_ts);
                let commit_ts = prepare_ts;
                KvResponse::Committed { commit_ts, full }
            }
            Err(e) => Self::server_error(e),
        };
        if let Some(flushed) = durable.resolved() {
            return Completion::ready(Ok(commit(store, flushed.clone())));
        }
        let store = Arc::clone(store);
        durable.chain(move |(flushed, due)| (Ok(commit(&store, flushed)), due))
    }

    /// Prepares `call`, and answers once its vote or refusal is durable.
    /// A refusal is answered once the prepares whose locks it met are
    /// resolved too, so that its retry finds those locks gone.  A prepare
    /// that met only the locks of other transactions on the leaves it edits
    /// ([`PrepareOutcome::Locked`]) has their holders resolved, as a `Get`
    /// does, and is prepared again by the continuation on that resolution;
    /// what it meets then, it is refused on.
    fn prepare(&self, call: PrepareCall) -> Completion<KvResponse> {
        let prepared = match call.run(&self.store, &self.oracle) {
            Ok((PrepareOutcome::Locked(held), _)) => {
                let met = held
                    .iter()
                    .map(|&obj| self.resolve_holder(obj, Some(call.txn)));
                let (store, oracle) = (Arc::clone(&self.store), self.oracle.clone());
                return Self::all_of(met).and_then(move |_| {
                    let prepared = call.run(&store, &oracle);
                    Self::answer_prepare(&store, &call, prepared)
                });
            }
            Ok((PrepareOutcome::Conflict(reason), durable)) => {
                let met = call
                    .objs()
                    .map(|obj| self.resolve_holder(obj, Some(call.txn)));
                let durable = Self::all_of(std::iter::once(durable).chain(met));
                Ok((PrepareOutcome::Conflict(reason), durable))
            }
            prepared => prepared,
        };
        Self::answer_prepare(&self.store, &call, prepared)
    }

    /// The answer to `call` that `prepared` settles, once the completion it
    /// comes with answers: a sole participant's vote is its commit, and a
    /// prepare that is `Locked` again is refused.
    fn answer_prepare(
        store: &Arc<ServerStore>,
        call: &PrepareCall,
        prepared: Result<(PrepareOutcome, Completion<()>)>,
    ) -> Completion<KvResponse> {
        let prepared = prepared.and_then(|(outcome, durable)| match outcome {
            PrepareOutcome::Locked(held) => store.refuse(call.txn, &held),
            outcome => Ok((outcome, durable)),
        });
        let (outcome, durable) = match prepared {
            Ok(prepared) => prepared,
            Err(e) => return Completion::ready(Ok(Self::server_error(e))),
        };
        let resp = match outcome {
            PrepareOutcome::Prepared(prepare_ts, full) if call.participants.len() == 1 => {
                return Self::commit_sole_vote(store, call.txn, prepare_ts, full, durable);
            }
            PrepareOutcome::Prepared(prepare_ts, full) => KvResponse::Prepared { prepare_ts, full },
            PrepareOutcome::Committed(commit_ts) => KvResponse::Committed {
                commit_ts,
                full: Vec::new(),
            },
            PrepareOutcome::Conflict(reason) => KvResponse::Conflict { reason },
            PrepareOutcome::EditRefused { obj, reason } => KvResponse::EditRefused { obj, reason },
            PrepareOutcome::KeyPresent { obj, key } => KvResponse::KeyPresent { obj, key },
            PrepareOutcome::Locked(_) => unreachable!("a lock met again is refused above"),
        };
        Self::when_durable(durable, resp)
    }

    /// Answers `resp` once `durable` — the completion of the log record the
    /// answer promises — answers `Ok`, or `ServerError` if the record could
    /// not be made durable.  The log's flusher answers, and no thread waits
    /// meanwhile.
    fn when_durable(durable: Completion<()>, resp: KvResponse) -> Completion<KvResponse> {
        durable.chain(move |(flushed, due)| {
            (Ok(flushed.map_or_else(Self::server_error, |()| resp)), due)
        })
    }
}

impl Service for KvServer {
    type Request = KvRequest;
    type Response = KvResponse;

    fn call(&self, req: KvRequest) -> Completion<KvResponse> {
        // A probe never sweeps, so answering one never asks another server.
        if !matches!(req, KvRequest::TxnStatus { .. }) {
            self.maybe_sweep();
        }
        let resp = match req {
            KvRequest::Get { obj, ts } => {
                let read = move |store: &ServerStore| match store.get(obj, ts) {
                    ReadOutcome::Value(v) => KvResponse::Value(v),
                    ReadOutcome::Locked => KvResponse::Locked,
                };
                match read(&self.store) {
                    KvResponse::Locked => {
                        let store = Arc::clone(&self.store);
                        let met = self.resolve_holder(obj, None);
                        return met.chain(move |(_, due)| (Ok(read(&store)), due));
                    }
                    value => value,
                }
            }
            KvRequest::Prepare {
                txn,
                start_ts,
                writes,
                edits,
                participants,
                lease_us,
            } => {
                return self.prepare(PrepareCall {
                    txn,
                    start_ts,
                    writes,
                    edits,
                    participants,
                    lease: Duration::from_micros(lease_us.max(1)),
                })
            }
            KvRequest::Commit { txn, commit_ts } => match self.store.commit(txn, commit_ts) {
                Ok(TxnOutcome::Committed(commit_ts)) => KvResponse::Committed {
                    commit_ts,
                    full: Vec::new(),
                },
                Ok(TxnOutcome::Aborted) => KvResponse::Aborted,
                Err(e) => Self::server_error(e),
            },
            KvRequest::Abort { txn } => match self.store.abort(txn) {
                Ok(_) => KvResponse::Aborted,
                Err(e) => Self::server_error(e),
            },
            KvRequest::Allocate { obj, delta } => match self.store.allocate(obj, delta) {
                Ok((start, durable)) => {
                    return Self::when_durable(durable, KvResponse::Allocated { start })
                }
                Err(e) => Self::server_error(e),
            },
            KvRequest::Gc { min_active_ts } => {
                self.store.gc(min_active_ts);
                KvResponse::Ok
            }
            KvRequest::TxnStatus { txn, fence } => match self.store.status(txn, fence) {
                Ok((status, durable)) => {
                    return Self::when_durable(durable, KvResponse::TxnOutcome { status })
                }
                Err(e) => Self::server_error(e),
            },
        };
        Completion::ready(Ok(resp))
    }

    fn request_wire_size(req: &KvRequest) -> usize {
        req.wire_size()
    }

    fn response_wire_size(resp: &KvResponse) -> usize {
        resp.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use yesquel_common::node::{CellEdit, LeafView};

    fn call(srv: &KvServer, req: KvRequest) -> KvResponse {
        Service::call(srv, req).wait().expect("a server answers")
    }

    fn prepare_req(txn: u64, start_ts: u64, writes: Vec<crate::protocol::WriteOp>) -> KvRequest {
        KvRequest::Prepare {
            txn,
            start_ts,
            writes,
            edits: Vec::new(),
            // Server 1 does not exist: the prepare stays until decided.
            participants: vec![0, 1],
            lease_us: 1_000_000,
        }
    }

    #[test]
    fn server_dispatch_roundtrip() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let obj = ObjectId::new(5, 7);

        // Commit a value with a prepare that names this server alone, then
        // read it back.
        let resp = call(
            &srv,
            KvRequest::Prepare {
                txn: 1,
                start_ts: oracle.next_timestamp(),
                writes: vec![crate::protocol::WriteOp {
                    obj,
                    value: Some(Bytes::from_static(b"x")),
                }],
                edits: Vec::new(),
                participants: vec![0],
                lease_us: 1_000_000,
            },
        );
        let commit_ts = match resp {
            KvResponse::Committed { commit_ts, .. } => commit_ts,
            other => panic!("unexpected response {other:?}"),
        };
        match call(&srv, KvRequest::Get { obj, ts: commit_ts }) {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"x"),
            other => panic!("unexpected response {other:?}"),
        }
        match call(
            &srv,
            KvRequest::Get {
                obj,
                ts: commit_ts - 1,
            },
        ) {
            KvResponse::Value(None) => {}
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(srv.store().object_count(), 1);
        assert_eq!(srv.store().stats().commits, 1);
        assert_eq!(srv.store().prepared_count(), 0);
    }

    #[test]
    fn two_phase_dispatch() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let obj = ObjectId::new(1, 1);
        let start = oracle.next_timestamp();
        match call(
            &srv,
            prepare_req(
                7,
                start,
                vec![crate::protocol::WriteOp {
                    obj,
                    value: Some(Bytes::from_static(b"v")),
                }],
            ),
        ) {
            KvResponse::Prepared { prepare_ts, .. } => assert!(prepare_ts > start),
            other => panic!("unexpected response {other:?}"),
        }
        match call(&srv, KvRequest::Get { obj, ts: start }) {
            KvResponse::Locked => {}
            other => panic!("unexpected response {other:?}"),
        }
        let cts = oracle.next_timestamp();
        call(
            &srv,
            KvRequest::Commit {
                txn: 7,
                commit_ts: cts,
            },
        );
        match call(&srv, KvRequest::Get { obj, ts: cts }) {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"v"),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn allocate_dispatch() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle);
        let obj = ObjectId::meta(3);
        match call(&srv, KvRequest::Allocate { obj, delta: 100 }) {
            KvResponse::Allocated { start } => assert_eq!(start, 0),
            other => panic!("unexpected response {other:?}"),
        }
        match call(&srv, KvRequest::Allocate { obj, delta: 1 }) {
            KvResponse::Allocated { start } => assert_eq!(start, 100),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn txn_status_reports_fate() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let obj = ObjectId::new(1, 1);
        let w = crate::protocol::WriteOp {
            obj,
            value: Some(Bytes::from_static(b"v")),
        };
        let status = |txn| match call(&srv, KvRequest::TxnStatus { txn, fence: false }) {
            KvResponse::TxnOutcome { status } => status,
            other => panic!("unexpected response {other:?}"),
        };
        // Unknown before anything happens, and an unfenced probe records
        // nothing.
        assert_eq!(status(42), TxnStatusKind::Unknown);
        assert_eq!(srv.store().outcome(42), None);
        // The vote while prepared.
        let prepare_ts = match call(&srv, prepare_req(42, oracle.next_timestamp(), vec![w])) {
            KvResponse::Prepared { prepare_ts, .. } => prepare_ts,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(status(42), TxnStatusKind::Prepared(prepare_ts));
        // Committed after commit.
        let cts = oracle.next_timestamp();
        call(
            &srv,
            KvRequest::Commit {
                txn: 42,
                commit_ts: cts,
            },
        );
        assert_eq!(status(42), TxnStatusKind::Committed(cts));
        // Aborted for an aborted transaction.
        call(&srv, KvRequest::Abort { txn: 43 });
        assert_eq!(status(43), TxnStatusKind::Aborted);
    }

    /// A fenced probe of a transaction this server never saw records an
    /// abort, forced, before it answers; the transaction's prepare arriving
    /// afterwards is refused — also once the server has restarted from its
    /// log with no memory.
    #[test]
    fn a_fenced_probe_refuses_a_later_prepare() {
        let dir = yesquel_common::tempdir::TempDir::new("srv-fence").unwrap();
        let stats = yesquel_common::stats::StatsRegistry::new();
        let wal = Wal::open(dir.path(), yesquel_common::WalFsyncPolicy::Always, &stats).unwrap();
        let oracle = TimestampOracle::new();
        let cfg = KvConfig::default();
        let srv = KvServer::with_wal(0, oracle.clone(), &cfg, Some(Arc::new(wal))).unwrap();
        let obj = ObjectId::new(1, 1);
        let (txn, start_ts) = (9, oracle.next_timestamp());
        match call(&srv, KvRequest::TxnStatus { txn, fence: true }) {
            KvResponse::TxnOutcome { status } => assert_eq!(status, TxnStatusKind::Aborted),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(srv.store().outcome(txn), Some(TxnOutcome::Aborted));
        let prepare = || KvRequest::Prepare {
            txn,
            start_ts,
            writes: vec![WriteOp {
                obj,
                value: Some(Bytes::from_static(b"late")),
            }],
            edits: Vec::new(),
            participants: vec![0, 1],
            lease_us: 1_000_000,
        };
        for restarted in [false, true] {
            if restarted {
                srv.amnesia_restart().unwrap();
                assert_eq!(srv.store().outcome(txn), Some(TxnOutcome::Aborted));
            }
            let resp = call(&srv, prepare());
            assert!(matches!(resp, KvResponse::Conflict { .. }), "{resp:?}");
            assert_eq!(srv.store().prepared_count(), 0);
            let ts = oracle.next_timestamp();
            let read = call(&srv, KvRequest::Get { obj, ts });
            assert!(matches!(read, KvResponse::Value(None)), "{read:?}");
        }
    }

    /// A one-participant prepare refused on another transaction's lock is
    /// recorded, forced, like any refusal: delivered again after the lock is
    /// gone and the server has restarted from its log with no memory, it is
    /// refused again, and nothing is installed.
    #[test]
    fn a_refused_sole_prepare_stays_refused_across_a_restart() {
        let dir = yesquel_common::tempdir::TempDir::new("srv-sole-refusal").unwrap();
        let stats = yesquel_common::stats::StatsRegistry::new();
        let wal = Wal::open(dir.path(), yesquel_common::WalFsyncPolicy::Always, &stats).unwrap();
        let oracle = TimestampOracle::new();
        let cfg = KvConfig::default();
        let srv = KvServer::with_wal(0, oracle.clone(), &cfg, Some(Arc::new(wal))).unwrap();
        let obj = ObjectId::new(1, 1);
        let value = |v: &'static [u8]| WriteOp {
            obj,
            value: Some(Bytes::from_static(v)),
        };
        // T1's coordinator went silent after its prepare here: an orphan.
        let t1 = prepare_req(1, oracle.next_timestamp(), vec![value(b"orphan")]);
        assert!(matches!(call(&srv, t1), KvResponse::Prepared { .. }));
        let t2 = KvRequest::Prepare {
            txn: 2,
            start_ts: oracle.next_timestamp(),
            writes: vec![value(b"late")],
            edits: Vec::new(),
            participants: vec![0],
            lease_us: 1_000_000,
        };
        let resp = call(&srv, t2.clone());
        assert!(matches!(resp, KvResponse::Conflict { .. }), "{resp:?}");
        assert!(matches!(
            call(&srv, KvRequest::Abort { txn: 1 }),
            KvResponse::Aborted
        ));
        // T1's unforced abort reaches the disk, as the next forced record
        // of any transaction would carry it there.
        srv.store().wal().unwrap().sync().unwrap();
        srv.amnesia_restart().unwrap();
        assert_eq!(srv.store().outcome(2), Some(TxnOutcome::Aborted));
        let resp = call(&srv, t2);
        assert!(matches!(resp, KvResponse::Conflict { .. }), "{resp:?}");
        assert_eq!(srv.store().prepared_count(), 0);
        let ts = oracle.next_timestamp();
        let read = call(&srv, KvRequest::Get { obj, ts });
        assert!(matches!(read, KvResponse::Value(None)), "{read:?}");
    }

    /// A put-if-absent of a key the snapshot's leaf holds refuses the
    /// prepare as `KeyPresent` and installs nothing, not even the other
    /// edits and writes of the transaction.  The refusal is logged: the
    /// prepare delivered again, before and after a restart from the log
    /// with no memory, is answered `KeyPresent` again.
    #[test]
    fn a_present_key_installs_nothing_and_is_answered_again_after_a_restart() {
        let dir = yesquel_common::tempdir::TempDir::new("srv-key-present").unwrap();
        let stats = yesquel_common::stats::StatsRegistry::new();
        let wal = Wal::open(dir.path(), yesquel_common::WalFsyncPolicy::Always, &stats).unwrap();
        let oracle = TimestampOracle::new();
        let cfg = KvConfig::default();
        let srv = KvServer::with_wal(0, oracle.clone(), &cfg, Some(Arc::new(wal))).unwrap();
        let (full, empty, plain) = (
            ObjectId::new(1, 1),
            ObjectId::new(1, 2),
            ObjectId::new(1, 3),
        );
        let root = LeafView::parse(LeafView::empty_root()).unwrap();
        let (holding_k, _) = root.put(b"k", b"old").unwrap();
        let pages = vec![
            WriteOp {
                obj: full,
                value: Some(holding_k),
            },
            WriteOp {
                obj: empty,
                value: Some(LeafView::empty_root()),
            },
        ];
        let load = KvRequest::Prepare {
            txn: 1,
            start_ts: oracle.next_timestamp(),
            writes: pages,
            edits: Vec::new(),
            participants: vec![0],
            lease_us: 1_000_000,
        };
        assert!(matches!(call(&srv, load), KvResponse::Committed { .. }));
        let (k, v) = (Bytes::from_static(b"k"), Bytes::from_static(b"new"));
        let leaf_edit = |obj, cell| LeafEdit {
            obj,
            cells: vec![cell],
            max_cells: 8,
        };
        let insert = KvRequest::Prepare {
            txn: 2,
            start_ts: oracle.next_timestamp(),
            writes: vec![WriteOp {
                obj: plain,
                value: Some(Bytes::from_static(b"plain")),
            }],
            edits: vec![
                leaf_edit(full, CellEdit::put_if_absent(k.clone(), v.clone())),
                leaf_edit(empty, CellEdit::put_if_absent(k.clone(), v)),
            ],
            participants: vec![0],
            lease_us: 1_000_000,
        };
        for restarted in [false, false, true] {
            if restarted {
                // The load's unforced commit record goes to the disk too.
                srv.store().wal().unwrap().sync().unwrap();
                srv.amnesia_restart().unwrap();
            }
            let resp = call(&srv, insert.clone());
            assert!(
                matches!(&resp, KvResponse::KeyPresent { obj, key } if *obj == full && *key == k),
                "restarted {restarted}: {resp:?}"
            );
            assert_eq!(srv.store().outcome(2), Some(TxnOutcome::Aborted));
            assert_eq!(srv.store().prepared_count(), 0);
            let ts = oracle.next_timestamp();
            let read = |obj| match call(&srv, KvRequest::Get { obj, ts }) {
                KvResponse::Value(v) => v,
                other => panic!("unexpected response {other:?}"),
            };
            let page = |obj| LeafView::parse(read(obj).unwrap()).unwrap();
            assert_eq!(page(full).find(b"k").unwrap().as_deref(), Some(&b"old"[..]));
            assert_eq!(page(empty).len(), 0);
            assert_eq!(read(plain), None);
        }
    }

    /// A one-participant commit whose unforced commit record a power loss
    /// took comes back from its vote alone: replay restores the prepare,
    /// and the restart's `reap` commits it at the acknowledged timestamp,
    /// with nobody to ask.
    #[test]
    fn a_sole_vote_restored_without_its_commit_commits_on_restart() {
        let dir = yesquel_common::tempdir::TempDir::new("srv-sole-vote").unwrap();
        let stats = yesquel_common::stats::StatsRegistry::new();
        let wal = Wal::open(dir.path(), yesquel_common::WalFsyncPolicy::Always, &stats).unwrap();
        let wal = Arc::new(wal);
        let oracle = TimestampOracle::new();
        let cfg = KvConfig::default();
        let srv = KvServer::with_wal(0, oracle.clone(), &cfg, Some(Arc::clone(&wal))).unwrap();
        let obj = ObjectId::new(1, 1);
        let sole = KvRequest::Prepare {
            txn: 1,
            start_ts: oracle.next_timestamp(),
            writes: vec![WriteOp {
                obj,
                value: Some(Bytes::from_static(b"v")),
            }],
            edits: Vec::new(),
            participants: vec![0],
            lease_us: 1_000_000,
        };
        let commit_ts = match call(&srv, sole) {
            KvResponse::Committed { commit_ts, .. } => commit_ts,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(
            wal.durable_len() < wal.len(),
            "the commit record is unsynced"
        );
        srv.amnesia_restart().unwrap();
        assert_eq!(srv.reap_counts(), (1, 0));
        assert_eq!(srv.store().prepared_count(), 0);
        assert_eq!(
            srv.store().dump_versions(obj),
            vec![(commit_ts, Some(Bytes::from_static(b"v")))]
        );
    }

    /// A reader that meets the lock of a prepare that names no other
    /// participant commits it from its vote alone, with nobody to ask, and
    /// reads the committed value.
    #[test]
    fn a_reader_commits_a_sole_prepare_it_meets_from_its_vote() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let obj = ObjectId::new(1, 1);
        let write = WriteOp {
            obj,
            value: Some(Bytes::from_static(b"v")),
        };
        let lease = Duration::from_secs(3600);
        let start_ts = oracle.next_timestamp();
        let next_ts = || oracle.next_timestamp();
        let store = srv.store();
        let (voted, _) = store
            .prepare(1, start_ts, &[write], &[], &[0], lease, next_ts)
            .unwrap();
        let PrepareOutcome::Prepared(prepare_ts, _) = voted else {
            panic!("unexpected outcome {voted:?}");
        };
        let ts = oracle.next_timestamp();
        match call(&srv, KvRequest::Get { obj, ts }) {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"v"),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            srv.store().outcome(1),
            Some(TxnOutcome::Committed(prepare_ts))
        );
    }

    /// A sole prepare that a reader met and committed, and whose outcome
    /// then left the table behind 5 000 later fates, is still answered
    /// `Committed` at its prepare timestamp when its own thread gets round
    /// to it: the durable vote was the commit.
    #[test]
    fn a_sole_vote_a_reader_committed_is_answered_committed() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let write = |oid, v: &'static [u8]| WriteOp {
            obj: ObjectId::new(1, oid),
            value: Some(Bytes::from_static(v)),
        };
        let (lease, start_ts) = (Duration::from_secs(3600), oracle.next_timestamp());
        let next_ts = || oracle.next_timestamp();
        let (voted, durable) = (srv.store())
            .prepare(1, start_ts, &[write(0, b"v")], &[], &[0], lease, next_ts)
            .unwrap();
        let PrepareOutcome::Prepared(prepare_ts, _) = voted else {
            panic!("unexpected outcome {voted:?}");
        };
        let (obj, ts) = (ObjectId::new(1, 0), oracle.next_timestamp());
        match call(&srv, KvRequest::Get { obj, ts }) {
            KvResponse::Value(Some(v)) => assert_eq!(&v[..], b"v"),
            other => panic!("unexpected response {other:?}"),
        }
        for txn in 2..5_002 {
            let sole = KvRequest::Prepare {
                txn,
                start_ts: oracle.next_timestamp(),
                writes: vec![write(txn, b"w")],
                edits: Vec::new(),
                participants: vec![0],
                lease_us: 1_000_000,
            };
            let resp = call(&srv, sole);
            assert!(matches!(resp, KvResponse::Committed { .. }), "{resp:?}");
        }
        assert_eq!(srv.store().outcome(1), None, "the outcome was forgotten");
        match KvServer::commit_sole_vote(&srv.store, 1, prepare_ts, Vec::new(), durable).wait() {
            Ok(KvResponse::Committed { commit_ts, .. }) => assert_eq!(commit_ts, prepare_ts),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            srv.store().dump_versions(obj),
            vec![(prepare_ts, Some(Bytes::from_static(b"v")))]
        );
    }

    /// A prepare of an empty leaf's page for `txn`, sole or with server 1,
    /// which does not exist, then the edit of `key` into that leaf by
    /// another transaction whose snapshot is drawn after the first voted.
    fn leaf_and_edit(srv: &KvServer, oracle: &TimestampOracle, sole: bool) -> (u64, KvRequest) {
        let obj = ObjectId::new(1, 1);
        let page = LeafView::empty_root();
        let write = WriteOp {
            obj,
            value: Some(page),
        };
        let participants: &[ServerId] = if sole { &[0] } else { &[0, 1] };
        let (lease, start_ts) = (Duration::from_secs(3600), oracle.next_timestamp());
        let next_ts = || oracle.next_timestamp();
        let (voted, _) = (srv.store())
            .prepare(1, start_ts, &[write], &[], participants, lease, next_ts)
            .unwrap();
        let PrepareOutcome::Prepared(prepare_ts, _) = voted else {
            panic!("unexpected outcome {voted:?}");
        };
        let edit = LeafEdit {
            obj,
            cells: vec![CellEdit::put(
                Bytes::from_static(b"k"),
                Bytes::from_static(b"v"),
            )],
            max_cells: 8,
        };
        let prepare = KvRequest::Prepare {
            txn: 2,
            start_ts: oracle.next_timestamp(),
            writes: Vec::new(),
            edits: vec![edit],
            participants: vec![0],
            lease_us: 1_000_000,
        };
        (prepare_ts, prepare)
    }

    /// A cell edit that meets the lock of a prepare that voted before its
    /// snapshot was drawn is no conflict: the server resolves the holder,
    /// as a read would, and prepares the edit again on the committed page.
    #[test]
    fn an_edit_that_meets_a_decided_lock_resolves_it_and_commits() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let (holder_ts, edit) = leaf_and_edit(&srv, &oracle, true);
        let resp = call(&srv, edit);
        let KvResponse::Committed { commit_ts, .. } = resp else {
            panic!("unexpected response {resp:?}");
        };
        assert_eq!(
            srv.store().outcome(1),
            Some(TxnOutcome::Committed(holder_ts))
        );
        let obj = ObjectId::new(1, 1);
        let ReadOutcome::Value(Some(page)) = srv.store().get(obj, commit_ts) else {
            panic!("the edited leaf is gone");
        };
        let leaf = LeafView::parse(page).unwrap();
        assert_eq!(leaf.find(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(srv.store().stats().conflicts, 0);
    }

    /// A holder that its resolution leaves undecided still refuses the
    /// edit, as a conflict, and the refusal is recorded.
    #[test]
    fn an_edit_that_meets_an_undecided_lock_is_refused() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let (_, edit) = leaf_and_edit(&srv, &oracle, false);
        let resp = call(&srv, edit);
        assert!(matches!(resp, KvResponse::Conflict { .. }), "{resp:?}");
        assert_eq!(srv.store().outcome(2), Some(TxnOutcome::Aborted));
        assert_eq!(srv.store().stats().conflicts, 1);
        assert!(srv.store().is_prepared(1));
    }
}
