//! The storage-server process: dispatches protocol requests to the store.
//!
//! Besides plain dispatch, the server **resolves undecided prepares**
//! whose coordinator may have gone silent.  The protocol is presumed-abort
//! with a primary participant acting as the commit point:
//!
//! * the coordinator commits the **primary first**; only after the primary
//!   acknowledges does it commit the remaining participants;
//! * a primary whose lease expires may therefore **unilaterally abort** —
//!   no secondary can have committed before it;
//! * a secondary whose lease expires asks the primary (over the peer
//!   transport) what happened and **adopts** the primary's outcome:
//!   committed → install, aborted/unknown → release.  If the primary is
//!   unreachable the secondary conservatively stays prepared and asks
//!   again on a later sweep or meeting;
//! * a secondary **restored from its log** does not wait for the lease to
//!   learn of a commit.  Its own `Commit` record is unforced (only the
//!   primary's is waited for), so a crash can leave it prepared for a
//!   transaction the primary has durably committed.  It asks the primary
//!   at once and adopts `Committed`.  That is always safe: the primary
//!   reports a commit only once it is on its disk, and a commit is never
//!   revoked.  Anything else the primary says — pending, unknown, even
//!   aborted — is acted on only after the lease, exactly as above:
//!   "unknown" before the lease may just mean the coordinator's prepare has
//!   not reached the primary yet.
//!
//! One routine, `KvServer::resolve`, applies these rules, and it runs
//! where an undecided prepare is met: a `Get` that finds its lock, a
//! `Prepare` or one-phase commit that conflicts on it, a `TxnStatus` probe
//! at its primary (local: the primary sends nothing), and
//! [`KvServer::reap`], which restart and deployment build call.  A live
//! lock inside its lease costs a holder lookup on a path that is already
//! slow, and nothing else.
//!
//! **An orphan nobody meets is still resolved in bounded time.**  Every
//! request but a `TxnStatus` sweeps the due prepares once a tenth of the
//! lease has passed since the last sweep, while anything is prepared.  The
//! bound matters: a primary remembers an outcome only for its next
//! `OUTCOME_RETENTION` decisions, so a secondary that asked only when met
//! could find its primary's commit forgotten, hear `Unknown`, and presume
//! abort on a transaction the primary committed.
//!
//! **A server keeps a worker free.**  Only one resolution that must ask
//! another server runs at a time per server; a request that finds one
//! under way answers as it would for a live lock instead of waiting.  With
//! two workers per server, two servers whose workers all waited on each
//! other's `TxnStatus` would otherwise deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yesquel_common::{Error, KvConfig, ObjectId, Result, ServerId, TxnId};
use yesquel_rpc::{Completion, Service, Transport};
use yesquel_wal::Wal;

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, TxnStatusKind, WriteOp};
use crate::store::{
    CommitOnePhaseOutcome, CommitOutcome, PrepareOutcome, ReadOutcome, ServerStore, TxnOutcome,
};

/// One storage server: a [`ServerStore`], a handle to the timestamp oracle
/// (used only for one-phase commits, where the server assigns the commit
/// timestamp itself), and what resolving an undecided prepare needs.
pub struct KvServer {
    id: ServerId,
    store: ServerStore,
    oracle: TimestampOracle,
    /// Transport to the sibling servers, used to ask a transaction's
    /// primary for its outcome.  `Weak` because the transport owns the
    /// servers — an `Arc` here would leak the whole cluster.
    peer: Mutex<Option<Weak<dyn Transport<KvServer>>>>,
    /// Held while a resolution asks another server: one at a time, so the
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
            store: ServerStore::with_wal(id, wal.clone()),
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
    /// transactions that come back undecided are looked up at their
    /// primaries before the call returns ([`KvServer::reap`]).
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

    /// Connects this server to its siblings, to ask primaries for outcomes.
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

    /// Transactions resolved by this server so far, as `(adopted commits,
    /// presumed aborts)`.
    pub fn reap_counts(&self) -> (u64, u64) {
        (
            self.reaped_commits.load(Ordering::Relaxed),
            self.reaped_aborts.load(Ordering::Relaxed),
        )
    }

    /// Resolves every prepared transaction that is due: overdue, or
    /// restored from the log with another server as its primary.  Restart
    /// and deployment build call it, and tests force convergence with it
    /// after healing faults.  Unlike a request, it waits its turn to ask a
    /// primary.
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
    /// queues for the turn to ask a primary instead of skipping the ask.  At its
    /// primary an overdue prepare is presumed aborted: the coordinator
    /// commits the primary before any secondary, so none can have
    /// committed.  A secondary asks the primary and adopts `Committed` at
    /// once — always safe, the primary reports it only once durable — but
    /// releases on `Aborted` or `Unknown` only once overdue: before the
    /// lease, "unknown" may just mean the coordinator's prepare has not
    /// reached the primary yet.  On an unreachable primary, a `Pending`
    /// answer, a failed log append, or another resolution already asking,
    /// the prepare stays as it is for the next meeting.  Returns whether a
    /// fate was settled, so a caller it blocked can look again.
    fn resolve(&self, txn: Option<TxnId>, wait: bool) -> bool {
        let mut settled = false;
        for (txn, primary, overdue) in self.store.due(txn) {
            let want = if primary == self.id {
                TxnOutcome::Aborted
            } else {
                match self.ask_primary(txn, primary, wait) {
                    Some(TxnStatusKind::Committed(ts)) => TxnOutcome::Committed(ts),
                    Some(TxnStatusKind::Aborted | TxnStatusKind::Unknown) if overdue => {
                        TxnOutcome::Aborted
                    }
                    _ => continue,
                }
            };
            let fate = match want {
                TxnOutcome::Committed(ts) => self.store.commit(txn, ts).map(|o| match o {
                    CommitOutcome::Committed(ts) => TxnOutcome::Committed(ts),
                    CommitOutcome::AlreadyAborted => TxnOutcome::Aborted,
                }),
                TxnOutcome::Aborted => self.store.abort(txn),
            };
            let Ok(fate) = fate else { continue };
            settled = true;
            // Tally only the fate this call reached for: a presumed abort
            // that lost to a commit is no presumed abort.
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

    /// Asks `primary` for `txn`'s fate, holding the `asking` turn for the
    /// call: `wait` queues for it, otherwise a turn already taken means no
    /// answer.  `None` too on no peer transport, an unreachable primary or
    /// a malformed answer.
    fn ask_primary(&self, txn: TxnId, primary: ServerId, wait: bool) -> Option<TxnStatusKind> {
        let _turn = if wait {
            self.asking.lock()
        } else {
            self.asking.try_lock()?
        };
        let peer = self.peer.lock().as_ref().and_then(Weak::upgrade)?;
        match peer.call(primary, KvRequest::TxnStatus { txn }) {
            Ok(KvResponse::TxnOutcome { status }) => Some(status),
            _ => None,
        }
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

    /// What this server knows about a transaction, for `TxnStatus`.
    fn txn_status(&self, txn: TxnId) -> TxnStatusKind {
        match self.store.outcome(txn) {
            Some(TxnOutcome::Committed(ts)) => TxnStatusKind::Committed(ts),
            Some(TxnOutcome::Aborted) => TxnStatusKind::Aborted,
            None if self.store.is_prepared(txn) => TxnStatusKind::Pending,
            None => TxnStatusKind::Unknown,
        }
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
                primary,
                lease_us,
            } => match self.store.prepare_leased(
                txn,
                start_ts,
                &writes,
                primary,
                Duration::from_micros(lease_us.max(1)),
            ) {
                Ok((PrepareOutcome::Prepared, Some(durable))) => {
                    // Acknowledged once the record is durable: the log's
                    // flusher answers, and no thread waits meanwhile.
                    return durable.chain(|(flushed, due)| {
                        let ack =
                            flushed.map_or_else(Self::server_error, |()| KvResponse::Prepared);
                        (Ok(ack), due)
                    });
                }
                Ok((PrepareOutcome::Prepared, None)) => KvResponse::Prepared,
                Ok((PrepareOutcome::Conflict(reason), _)) => self.conflict(txn, &writes, reason),
                Err(e) => Self::server_error(e),
            },
            KvRequest::Commit { txn, commit_ts } => match self.store.commit(txn, commit_ts) {
                Ok(CommitOutcome::Committed(ts)) => KvResponse::Committed { commit_ts: ts },
                Ok(CommitOutcome::AlreadyAborted) => KvResponse::Aborted,
                Err(e) => Self::server_error(e),
            },
            KvRequest::CommitOnePhase {
                txn,
                start_ts,
                writes,
            } => {
                // The store draws the commit timestamp itself, once it holds
                // the locks that make validation and installation atomic, so
                // any snapshot issued after the timestamp observes the
                // installed versions.  A deduplicated retry draws nothing
                // and reports the original timestamp.
                match self
                    .store
                    .commit_one_phase(txn, start_ts, &writes, || self.oracle.next_timestamp())
                {
                    Ok(CommitOnePhaseOutcome::Committed(ts)) => {
                        KvResponse::Committed { commit_ts: ts }
                    }
                    Ok(CommitOnePhaseOutcome::Conflict(reason)) => {
                        self.conflict(txn, &writes, reason)
                    }
                    Err(e) => Self::server_error(e),
                }
            }
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
            KvRequest::TxnStatus { txn } => {
                self.resolve(Some(txn), false);
                KvResponse::TxnOutcome {
                    status: self.txn_status(txn),
                }
            }
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
            primary: 0,
            lease_us: 1_000_000,
        }
    }

    /// An overdue probe at a primary whose decision is on its way to the
    /// disk answers `Pending` at once: the fate is taken, and resolving it
    /// would only hold this worker for the flush.
    #[test]
    fn a_probe_does_not_wait_for_a_decision_in_flight() {
        let dir = yesquel_common::tempdir::TempDir::new("srv-deciding").unwrap();
        let stats = yesquel_common::stats::StatsRegistry::new();
        let wal = Wal::open(dir.path(), yesquel_common::WalFsyncPolicy::Always, &stats).unwrap();
        let oracle = TimestampOracle::new();
        let cfg = KvConfig::default();
        let srv = KvServer::with_wal(0, oracle.clone(), &cfg, Some(Arc::new(wal))).unwrap();
        let obj = ObjectId::new(1, 1);
        let (txn, start_ts) = (9, oracle.next_timestamp());
        let prepare = KvRequest::Prepare {
            txn,
            start_ts,
            writes: vec![WriteOp {
                obj,
                value: Some(Bytes::from_static(b"v")),
            }],
            primary: 0,
            lease_us: 1,
        };
        assert!(matches!(call(&srv, prepare), KvResponse::Prepared));
        let commit_ts = oracle.next_timestamp();
        srv.store()
            .start_deciding(txn, TxnOutcome::Committed(commit_ts));
        std::thread::sleep(Duration::from_millis(2));

        let status = |srv: &KvServer| match call(srv, KvRequest::TxnStatus { txn }) {
            KvResponse::TxnOutcome { status } => status,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(status(&srv), TxnStatusKind::Pending);
        let ts = oracle.next_timestamp();
        let read = call(&srv, KvRequest::Get { obj, ts });
        assert!(matches!(read, KvResponse::Locked), "{read:?}");
        assert_eq!(srv.store().prepared_count(), 1);
        assert_eq!(srv.reap_counts(), (0, 0));
        // The flush ends; the commit stands.
        assert_eq!(
            srv.store().commit(txn, commit_ts).unwrap(),
            CommitOutcome::Committed(commit_ts)
        );
        assert_eq!(status(&srv), TxnStatusKind::Committed(commit_ts));
    }

    #[test]
    fn server_dispatch_roundtrip() {
        let oracle = TimestampOracle::new();
        let srv = KvServer::new(0, oracle.clone());
        let obj = ObjectId::new(5, 7);

        // One-phase commit a value, then read it back.
        let resp = call(
            &srv,
            KvRequest::CommitOnePhase {
                txn: 1,
                start_ts: oracle.next_timestamp(),
                writes: vec![crate::protocol::WriteOp {
                    obj,
                    value: Some(Bytes::from_static(b"x")),
                }],
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
            KvResponse::Prepared => {}
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
        // Unknown before anything happens.
        match call(&srv, KvRequest::TxnStatus { txn: 42 }) {
            KvResponse::TxnOutcome {
                status: TxnStatusKind::Unknown,
            } => {}
            other => panic!("unexpected response {other:?}"),
        }
        // Pending while prepared.
        call(&srv, prepare_req(42, oracle.next_timestamp(), vec![w]));
        match call(&srv, KvRequest::TxnStatus { txn: 42 }) {
            KvResponse::TxnOutcome {
                status: TxnStatusKind::Pending,
            } => {}
            other => panic!("unexpected response {other:?}"),
        }
        // Committed after commit.
        let cts = oracle.next_timestamp();
        call(
            &srv,
            KvRequest::Commit {
                txn: 42,
                commit_ts: cts,
            },
        );
        match call(&srv, KvRequest::TxnStatus { txn: 42 }) {
            KvResponse::TxnOutcome {
                status: TxnStatusKind::Committed(ts),
            } => assert_eq!(ts, cts),
            other => panic!("unexpected response {other:?}"),
        }
        // Aborted for an aborted transaction.
        call(&srv, KvRequest::Abort { txn: 43 });
        match call(&srv, KvRequest::TxnStatus { txn: 43 }) {
            KvResponse::TxnOutcome {
                status: TxnStatusKind::Aborted,
            } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn primary_reaper_presumes_abort_on_expired_lease() {
        let oracle = TimestampOracle::new();
        let cfg = KvConfig {
            prepare_lease_us: 1,
            ..Default::default()
        };
        let srv = KvServer::with_config(0, oracle.clone(), &cfg);
        let obj = ObjectId::new(1, 1);
        match call(
            &srv,
            KvRequest::Prepare {
                txn: 9,
                start_ts: oracle.next_timestamp(),
                writes: vec![crate::protocol::WriteOp {
                    obj,
                    value: Some(Bytes::from_static(b"v")),
                }],
                primary: 0, // this server is the primary
                lease_us: 1,
            },
        ) {
            KvResponse::Prepared => {}
            other => panic!("unexpected response {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
        // Any ordinary request sweeps the overdue prepare.
        let _ = call(&srv, KvRequest::Get { obj, ts: 1 });
        assert_eq!(srv.store().prepared_count(), 0, "reaper must have fired");
        assert_eq!(srv.reap_counts().1, 1);
        // The coordinator's late commit is refused.
        match call(
            &srv,
            KvRequest::Commit {
                txn: 9,
                commit_ts: oracle.next_timestamp(),
            },
        ) {
            KvResponse::Aborted => {}
            other => panic!("unexpected response {other:?}"),
        }
        match call(&srv, KvRequest::Get { obj, ts: 1_000 }) {
            KvResponse::Value(None) => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
}
