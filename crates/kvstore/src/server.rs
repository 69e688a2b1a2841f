//! The storage-server process: dispatches protocol requests to the store.
//!
//! Besides plain dispatch, the server owns the **prepare-lease reaper**: a
//! pass, piggybacked on request processing (and callable explicitly), that
//! resolves prepared transactions whose coordinator went silent.  The
//! protocol is presumed-abort with a primary participant acting as the
//! commit point:
//!
//! * the coordinator commits the **primary first**; only after the primary
//!   acknowledges does it commit the remaining participants;
//! * a primary whose lease expires may therefore **unilaterally abort** —
//!   no secondary can have committed before it;
//! * a secondary whose lease expires asks the primary (over the peer
//!   transport) what happened and **adopts** the primary's outcome:
//!   committed → install, aborted/unknown → release.  If the primary is
//!   unreachable the secondary conservatively stays prepared and retries on
//!   a later pass;
//! * a secondary **restored from its log** does not wait for the lease to
//!   learn of a commit.  Its own `Commit` record is unforced (only the
//!   primary's is waited for), so a crash can leave it prepared for a
//!   transaction the primary has durably committed.  It asks the primary as
//!   soon as it is back, and again whenever a read runs into such a lock,
//!   and adopts `Committed` at once.  That is always safe: the primary
//!   reports a commit only once it is on its disk, and a commit is never
//!   revoked.  Anything else the primary says — pending, unknown, even
//!   aborted — is acted on only after the lease, exactly as above:
//!   "unknown" before the lease may just mean the coordinator's prepare has
//!   not reached the primary yet.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yesquel_common::{Error, KvConfig, Result, ServerId, TxnId};
use yesquel_rpc::{Completion, Service, Transport};
use yesquel_wal::{Wal, WalPosition};

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse, TxnStatusKind};
use crate::store::{
    CommitOnePhaseOutcome, CommitOutcome, PrepareOutcome, ReadOutcome, ServerStore, TxnOutcome,
};

/// One storage server: a [`ServerStore`], a handle to the timestamp oracle
/// (used only for one-phase commits, where the server assigns the commit
/// timestamp itself), and the reaper state.
pub struct KvServer {
    id: ServerId,
    store: ServerStore,
    oracle: TimestampOracle,
    /// Transport to the sibling servers, used by the reaper to ask a
    /// transaction's primary for its outcome.  `Weak` because the transport
    /// owns the servers — an `Arc` here would leak the whole cluster.
    peer: Mutex<Option<Weak<dyn Transport<KvServer>>>>,
    /// Minimum microseconds between piggybacked reaper passes.
    reap_interval_us: u64,
    /// Elapsed-microsecond timestamp (relative to `started`) of the last
    /// reaper pass.
    last_reap_us: AtomicU64,
    started: Instant,
    reaped_aborts: AtomicU64,
    reaped_commits: AtomicU64,
    /// Lease granted to prepared transactions restored from the log; their
    /// coordinator may be gone, so after this long the reaper takes over.
    recovery_lease: Duration,
}

impl KvServer {
    /// Creates server `id` sharing the deployment's timestamp oracle, with
    /// default reaper settings.
    pub fn new(id: ServerId, oracle: TimestampOracle) -> Self {
        Self::with_config(id, oracle, &KvConfig::default())
    }

    /// Creates server `id` with explicit reaper configuration.
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
            reap_interval_us: cfg.reap_interval_us.max(1),
            last_reap_us: AtomicU64::new(0),
            started: Instant::now(),
            reaped_aborts: AtomicU64::new(0),
            reaped_commits: AtomicU64::new(0),
            recovery_lease: Duration::from_micros(cfg.prepare_lease_us.max(1)),
        };
        if let Some(wal) = wal {
            let records = wal.recover()?;
            let recovered = server.store.replay(&records, server.recovery_lease);
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
    /// primaries before the call returns ([`KvServer::adopt_recovered`]).
    pub fn amnesia_restart(&self) -> Result<()> {
        let wal = self.store().wal().cloned();
        self.store.wipe_volatile();
        let Some(wal) = wal else {
            return Ok(());
        };
        wal.power_loss()?;
        let records = wal.recover()?;
        let recovered = self.store.replay(&records, self.recovery_lease);
        wal.note_recovered_txns(recovered);
        self.adopt_recovered();
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

    /// Connects this server to its siblings for reaper resolution calls.
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

    /// Transactions resolved by this server's reaper so far, as
    /// `(adopted commits, presumed aborts)`.
    pub fn reap_counts(&self) -> (u64, u64) {
        (
            self.reaped_commits.load(Ordering::Relaxed),
            self.reaped_aborts.load(Ordering::Relaxed),
        )
    }

    /// Runs a reaper pass if at least `reap_interval_us` elapsed since the
    /// previous one.  The fast path is one relaxed atomic load: unless some
    /// transaction is actually sitting in the prepared state, neither the
    /// monotonic clock (tens of nanoseconds — measurable on a
    /// sub-microsecond Get) nor any lock is touched.
    fn maybe_reap(&self) {
        if !self.store.has_prepared() {
            return;
        }
        let now_us = self.started.elapsed().as_micros() as u64;
        let last = self.last_reap_us.load(Ordering::Relaxed);
        if now_us.saturating_sub(last) < self.reap_interval_us {
            return;
        }
        if self
            .last_reap_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another request's piggyback won the race
        }
        self.reap();
    }

    /// Resolves every prepared transaction whose coordinator lease expired.
    /// Normally piggybacked on request processing; exposed so tests and the
    /// deployment can force convergence after healing a partition.
    pub fn reap(&self) {
        let expired = self.store.expired_prepared(Instant::now());
        if expired.is_empty() {
            return;
        }
        for (txn, primary) in expired {
            if primary == self.id {
                // Primary participant: the coordinator commits the primary
                // before any secondary, so if we are still prepared past the
                // lease, no secondary has committed — presumed abort is safe.
                // A log append failure leaves the transaction prepared (the
                // abort is durable before it is observable); retry later.
                if self.store.abort(txn).is_ok() {
                    self.reaped_aborts.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                self.adopt_from_primary(txn, primary, true);
            }
        }
    }

    /// Asks the primaries about every prepared transaction this server
    /// restored from its log as a secondary, and installs the ones they have
    /// committed.  Runs when the server comes back — from
    /// [`KvServer::amnesia_restart`], and from the deployment once a freshly
    /// built server has its peer transport — so that a commit whose unforced
    /// record died with the crash is back before the first read.
    pub fn adopt_recovered(&self) {
        for (txn, primary) in self.store.recovered_prepared() {
            self.adopt_from_primary(txn, primary, false);
        }
    }

    /// Secondary participant: asks `primary` for `txn`'s fate and adopts it.
    /// A commit is adopted whenever it is learnt; an abort is presumed —
    /// from `Aborted`, or from a primary that never heard of the transaction
    /// (its prepare never landed, so the coordinator cannot have committed)
    /// — only once the coordinator's lease has expired.  On an unreachable
    /// primary, a malformed answer, or a primary still waiting on its own
    /// lease, stay conservative: keep the locks and ask again later.
    fn adopt_from_primary(&self, txn: TxnId, primary: ServerId, lease_expired: bool) {
        let Some(peer) = self.peer.lock().as_ref().and_then(Weak::upgrade) else {
            return; // no peer transport wired up: stay prepared
        };
        let Ok(KvResponse::TxnOutcome { status }) =
            peer.call(primary, KvRequest::TxnStatus { txn })
        else {
            return;
        };
        // A failed log append leaves the transaction prepared; a later pass
        // asks again.
        let (resolved, tally) = match status {
            // The commit to this participant was lost, on the wire or with
            // the log's tail; install it from the primary's record.
            TxnStatusKind::Committed(commit_ts) => (
                self.store.commit(txn, commit_ts).is_ok(),
                &self.reaped_commits,
            ),
            TxnStatusKind::Aborted | TxnStatusKind::Unknown if lease_expired => {
                (self.store.abort(txn).is_ok(), &self.reaped_aborts)
            }
            _ => return,
        };
        if resolved {
            tally.fetch_add(1, Ordering::Relaxed);
        }
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
            None => {
                if self.store.is_prepared(txn) {
                    TxnStatusKind::Pending
                } else {
                    TxnStatusKind::Unknown
                }
            }
        }
    }

    /// Acknowledges a prepare once its log record is durable: the log's
    /// flusher resolves the returned completion, and no thread waits for it
    /// meanwhile.  A failed flush answers `ServerError`.
    fn ack_when_durable(&self, pos: WalPosition) -> Completion<KvResponse> {
        let Some(wal) = self.store.wal() else {
            return Completion::ready(Ok(KvResponse::Prepared));
        };
        let (ack, resolver) = Completion::pending();
        wal.on_durable(pos, move |flushed| {
            resolver.resolve(Ok(match flushed {
                Ok(()) => KvResponse::Prepared,
                Err(e) => Self::server_error(e),
            }))
        });
        ack
    }
}

impl Service for KvServer {
    type Request = KvRequest;
    type Response = KvResponse;

    fn call(&self, req: KvRequest) -> Completion<KvResponse> {
        // Piggyback the reaper on ordinary traffic — but not on TxnStatus,
        // which the reaper itself sends (bounding reaper recursion to one
        // hop: secondary reap → primary status, never further).
        if !matches!(req, KvRequest::TxnStatus { .. }) {
            self.maybe_reap();
        }
        let resp = match req {
            KvRequest::Get { obj, ts } => {
                let mut read = self.store.get(obj, ts);
                if read == ReadOutcome::Locked {
                    // A lock restored from the log may belong to a commit
                    // this server has lost and the primary still has.
                    if let Some((txn, primary)) = self.store.recovered_lock_holder(obj) {
                        self.adopt_from_primary(txn, primary, false);
                        read = self.store.get(obj, ts);
                    }
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
                Ok((PrepareOutcome::Prepared, Some(pos))) => return self.ack_when_durable(pos),
                Ok((PrepareOutcome::Prepared, None)) => KvResponse::Prepared,
                Ok((PrepareOutcome::Conflict(reason), _)) => KvResponse::Conflict { reason },
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
                    Ok(CommitOnePhaseOutcome::Conflict(reason)) => KvResponse::Conflict { reason },
                    Err(e) => Self::server_error(e),
                }
            }
            KvRequest::Abort { txn } => match self.store.abort(txn) {
                Ok(()) => KvResponse::Aborted,
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
            KvRequest::TxnStatus { txn } => KvResponse::TxnOutcome {
                status: self.txn_status(txn),
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
    use yesquel_common::ObjectId;

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
            reap_interval_us: 1,
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
        // Any ordinary request piggybacks the reaper.
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
