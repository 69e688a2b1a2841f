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
//!   that fate.  A participant that is the only one is the only voter: it
//!   waits for its vote to be durable, applies the commit itself and
//!   answers `Committed`, so no `Commit` is sent;
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
//! its lock, and a `Prepare` that conflicts on it, at once; and
//! [`KvServer::reap`], which restart and deployment build call.  A
//! resolver counts its own vote only once it is durable.
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
//! **A server keeps a worker free.**  Only one resolution that must ask
//! another server runs at a time per server; a request that finds one
//! under way answers as it would for a live lock instead of waiting.  With
//! two workers per server, two servers whose workers all waited on each
//! other's `TxnStatus` would otherwise deadlock.  A resolution with no
//! other participant to ask takes no turn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, Timestamp, TxnId};
use yesquel_rpc::{Completion, Service, Transport};
use yesquel_wal::Wal;

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, TxnStatusKind, WriteOp};
use crate::store::{PrepareOutcome, ReadOutcome, ServerStore, TxnOutcome, Undecided};

/// One storage server: a [`ServerStore`], a handle to the timestamp oracle
/// (prepares draw their prepare timestamps from it), and what resolving an
/// undecided prepare needs.
pub struct KvServer {
    id: ServerId,
    store: ServerStore,
    oracle: TimestampOracle,
    /// Transport to the sibling servers, used to probe the other
    /// participants of a transaction.  `Weak` because the transport owns
    /// the servers — an `Arc` here would leak the whole cluster.
    peer: Mutex<Option<Weak<dyn Transport<KvServer>>>>,
    /// Held while a resolution asks other servers: one at a time, so the
    /// other workers stay free to answer the `TxnStatus` probes of peers.
    asking: Mutex<()>,
    /// When the last sweep ran, in microseconds since `started`.
    last_sweep_us: AtomicU64,
    started: Instant,
    reaped_aborts: AtomicU64,
    reaped_commits: AtomicU64,
    /// The configured prepare lease.  Prepared transactions restored from
    /// the log get it, since their coordinator may be gone; and sweeps run
    /// at most once per tenth of it.
    lease: Duration,
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
            store: ServerStore::with_wal(wal.clone()),
            oracle,
            peer: Mutex::new(None),
            asking: Mutex::new(()),
            last_sweep_us: AtomicU64::new(0),
            started: Instant::now(),
            reaped_aborts: AtomicU64::new(0),
            reaped_commits: AtomicU64::new(0),
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
            self.reaped_commits.load(Ordering::Relaxed),
            self.reaped_aborts.load(Ordering::Relaxed),
        )
    }

    /// Resolves every prepared transaction that is due: overdue, or
    /// restored from the log.  Restart and deployment build call it, and
    /// tests force convergence with it after healing faults.  Unlike a
    /// request, it waits its turn to ask.
    pub fn reap(&self) {
        self.resolve(None, true);
    }

    /// Sweeps the due prepares, without waiting for a turn to ask, if a
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
            self.resolve(None, false);
        }
    }

    /// The one routine that resolves an undecided prepare: `txn` — one
    /// somebody just met — or, when `None`, every one that is due; `wait`
    /// queues for the turn to ask instead of skipping the ask.  The fate
    /// comes from the participants' records (see the module docs); on no
    /// verdict, a failed log append, or another resolution already asking,
    /// the prepare stays as it is for the next meeting.  Returns whether a
    /// fate was settled, so a caller it blocked can look again.
    fn resolve(&self, txn: Option<TxnId>, wait: bool) -> bool {
        let mut settled = false;
        for p in self.store.undecided(txn) {
            let Some(want) = self.ask_participants(&p, wait) else {
                continue;
            };
            let fate = match want {
                TxnOutcome::Committed(ts) => self.store.commit(p.txn, ts),
                TxnOutcome::Aborted => self.store.abort(p.txn),
            };
            let Ok(fate) = fate else { continue };
            settled = true;
            // Tally only the fate this call reached for: one that lost to a
            // decision landing meanwhile is not this resolution's.
            if fate == want {
                let tally = match fate {
                    TxnOutcome::Committed(_) => &self.reaped_commits,
                    TxnOutcome::Aborted => &self.reaped_aborts,
                };
                tally.fetch_add(1, Ordering::Relaxed);
            }
        }
        settled
    }

    /// Probes every other participant of an undecided prepare in one round,
    /// fencing if it is overdue, and returns the fate their records settle:
    /// a commit any of them installed, an abort on any refusal or fence, a
    /// commit at the maximum prepare timestamp when every one voted yes —
    /// this server's own vote counting once it is durable, and settling a
    /// prepare that names no other participant on its own.  `None` when
    /// they do not settle it, or when no probe could be sent: another
    /// resolution holds the `asking` turn and `wait` is false, or there is
    /// no peer transport.
    fn ask_participants(&self, p: &Undecided, wait: bool) -> Option<TxnOutcome> {
        let alone = p.participants.iter().all(|&s| s == self.id);
        let _turn = match (alone, wait) {
            (true, _) => None,
            (false, true) => Some(self.asking.lock()),
            (false, false) => Some(self.asking.try_lock()?),
        };
        self.store.durable(p.vote).wait().ok()?;
        let peer = self.peer.lock().as_ref().and_then(Weak::upgrade);
        let probe = KvRequest::TxnStatus {
            txn: p.txn,
            fence: p.overdue,
        };
        let answers = (p.participants.iter().filter(|&&s| s != self.id))
            .map(|&s| Some(peer.as_ref()?.submit(s, probe.clone())))
            .collect::<Option<Vec<_>>>()?;
        let mut all_voted = Some(p.prepare_ts);
        for answer in answers {
            match answer.wait() {
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
    fn resolve_holder(&self, obj: ObjectId, own: Option<TxnId>) -> bool {
        match self.store.lock_holder(obj) {
            Some(holder) if Some(holder) != own => self.resolve(Some(holder), false),
            _ => false,
        }
    }

    /// Answers a write that conflicted, once the prepares whose locks it
    /// met are resolved where due: its retry finds those locks gone.
    fn conflict(&self, txn: TxnId, writes: &[WriteOp], reason: String) -> KvResponse {
        for w in writes {
            self.resolve_holder(w.obj, Some(txn));
        }
        KvResponse::Conflict { reason }
    }

    /// Renders a store-level failure (log append / fsync) as a response.
    /// The store's log-before-apply ordering guarantees nothing was
    /// installed or made observable when this is returned.
    fn server_error(e: Error) -> KvResponse {
        KvResponse::ServerError {
            message: e.to_string(),
        }
    }

    /// The answer to a `Commit`, or to a sole participant's `Prepare`: the
    /// fate that holds.
    fn decided(fate: TxnOutcome) -> KvResponse {
        match fate {
            TxnOutcome::Committed(commit_ts) => KvResponse::Committed { commit_ts },
            TxnOutcome::Aborted => KvResponse::Aborted,
        }
    }

    /// Commits the prepare of `txn` that names this server as its only
    /// participant: its vote, once `durable`, is the commit, at
    /// `prepare_ts`.  Waited for on the calling thread, with no lock held.
    /// Once the vote is durable the answer is `Committed` even if the commit
    /// record fails to append: the prepare then stays for
    /// [`KvServer::resolve`], which commits it from the vote alone.
    fn commit_sole_vote(
        &self,
        txn: TxnId,
        prepare_ts: Timestamp,
        durable: Completion<()>,
    ) -> KvResponse {
        if let Err(e) = durable.wait() {
            return Self::server_error(e);
        }
        let fate = self.store.commit(txn, prepare_ts);
        Self::decided(fate.unwrap_or(TxnOutcome::Committed(prepare_ts)))
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
        // A probe never sweeps, so it never asks another server.
        if !matches!(req, KvRequest::TxnStatus { .. }) {
            self.maybe_sweep();
        }
        let resp = match req {
            KvRequest::Get { obj, ts } => {
                let mut read = self.store.get(obj, ts);
                if read == ReadOutcome::Locked && self.resolve_holder(obj, None) {
                    read = self.store.get(obj, ts);
                }
                match read {
                    ReadOutcome::Value(v) => KvResponse::Value(v),
                    ReadOutcome::Locked => KvResponse::Locked,
                }
            }
            KvRequest::Prepare {
                txn,
                start_ts,
                writes,
                participants,
                lease_us,
            } => {
                let lease = Duration::from_micros(lease_us.max(1));
                let next_ts = || self.oracle.next_timestamp();
                match self
                    .store
                    .prepare(txn, start_ts, &writes, &participants, lease, next_ts)
                {
                    Ok((outcome, durable)) => {
                        let resp = match outcome {
                            PrepareOutcome::Prepared(prepare_ts) if participants.len() == 1 => {
                                let resp = self.commit_sole_vote(txn, prepare_ts, durable);
                                return Completion::ready(Ok(resp));
                            }
                            PrepareOutcome::Prepared(prepare_ts) => {
                                KvResponse::Prepared { prepare_ts }
                            }
                            PrepareOutcome::Committed(commit_ts) => {
                                KvResponse::Committed { commit_ts }
                            }
                            PrepareOutcome::Conflict(reason) => self.conflict(txn, &writes, reason),
                        };
                        return Self::when_durable(durable, resp);
                    }
                    Err(e) => Self::server_error(e),
                }
            }
            KvRequest::Commit { txn, commit_ts } => match self.store.commit(txn, commit_ts) {
                Ok(fate) => Self::decided(fate),
                Err(e) => Self::server_error(e),
            },
            KvRequest::Abort { txn } => match self.store.abort(txn) {
                Ok(_) => KvResponse::Aborted,
                Err(e) => Self::server_error(e),
            },
            KvRequest::Allocate { obj, delta } => match self.store.allocate(obj, delta) {
                Ok(start) => KvResponse::Allocated { start },
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

    fn call(srv: &KvServer, req: KvRequest) -> KvResponse {
        Service::call(srv, req).wait().expect("a server answers")
    }

    fn prepare_req(txn: u64, start_ts: u64, writes: Vec<crate::protocol::WriteOp>) -> KvRequest {
        KvRequest::Prepare {
            txn,
            start_ts,
            writes,
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
                participants: vec![0],
                lease_us: 1_000_000,
            },
        );
        let commit_ts = match resp {
            KvResponse::Committed { commit_ts } => commit_ts,
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
            KvResponse::Prepared { prepare_ts } => assert!(prepare_ts > start),
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
            KvResponse::Prepared { prepare_ts } => prepare_ts,
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
            participants: vec![0],
            lease_us: 1_000_000,
        };
        let commit_ts = match call(&srv, sole) {
            KvResponse::Committed { commit_ts } => commit_ts,
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
    /// participant resolves it without the turn to ask, even while another
    /// resolution holds that turn, and reads the committed value.
    #[test]
    fn a_sole_prepare_is_resolved_without_the_turn_to_ask() {
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
            .prepare(1, start_ts, &[write], &[0], lease, next_ts)
            .unwrap();
        let PrepareOutcome::Prepared(prepare_ts) = voted else {
            panic!("unexpected outcome {voted:?}");
        };
        let _turn = srv.asking.lock();
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
}
