//! The key-value client library linked into every Yesquel client process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yesquel_common::stats::StatsRegistry;
use yesquel_common::{Error, KvConfig, ObjectId, Result};
use yesquel_rpc::Transport;

use crate::oracle::TimestampOracle;
use crate::protocol::{KvRequest, KvResponse};
use crate::server::KvServer;
use crate::snapshot::SnapshotTracker;
use crate::txn::{round, ClientCore, Deadline, KvHot, Statement, Txn};

/// Clients created so far in this process: each client's retry-salt
/// counter starts in its own 2^32 range, so loops of different clients
/// draw different salts too.
static CLIENTS: AtomicU64 = AtomicU64::new(0);

/// Client handle to a key-value deployment.  Cheap to clone; each clone can
/// be used from its own thread.
#[derive(Clone)]
pub struct KvClient {
    core: Arc<ClientCore>,
}

impl KvClient {
    /// Creates a client from the deployment's shared pieces.  Most callers
    /// obtain clients from [`crate::KvDatabase::client`] instead.
    ///
    /// Every RPC the client issues is submitted through `transport` and
    /// waited for on the calling thread — a round of them submitted
    /// together, so their waits overlap — except the `Commit`s that follow a
    /// prepare round every participant voted yes in, which nobody waits
    /// for.  The client starts no thread.
    pub fn new(
        transport: Arc<dyn Transport<KvServer>>,
        oracle: TimestampOracle,
        snapshots: SnapshotTracker,
        cfg: KvConfig,
        stats: StatsRegistry,
    ) -> Self {
        let hot = KvHot::resolve(&stats);
        KvClient {
            core: Arc::new(ClientCore {
                transport,
                oracle,
                snapshots,
                cfg,
                stats,
                hot,
                retry_salt: AtomicU64::new(CLIENTS.fetch_add(1, Ordering::Relaxed) << 32),
            }),
        }
    }

    /// Starts a new transaction.  Each of its calls retries until a
    /// deadline of its own ([`KvConfig::op_deadline_us`]).
    pub fn begin(&self) -> Txn {
        Txn::begin(Arc::clone(&self.core), false)
    }

    /// Runs `body` inside a transaction, committing it afterwards, and
    /// retries the whole transaction when it aborts for a retryable reason.
    /// This is the standard usage pattern under snapshot isolation and what
    /// the layers above use for auto-commit operations.
    ///
    /// The call is one statement with one deadline: its attempts, and every
    /// KV call inside them, retry until [`KvConfig::op_deadline_us`] after
    /// the statement first had to retry or wait.  A write-write conflict
    /// restarts the transaction; a lock wait or an availability failure is
    /// waited out by the call that met it.  Once a failure finds no time
    /// left the caller receives [`Error::RetriesExhausted`] with the number
    /// of attempts made and the error from the final one, so "retried
    /// conflicts until the deadline" and "the cluster is down" stay
    /// distinguishable.
    pub fn run_txn<T>(&self, mut body: impl FnMut(&Txn) -> Result<T>) -> Result<T> {
        self.retry_txn(|txn| match body(&txn) {
            Ok(value) => txn.commit().map(|_| value),
            Err(e) => {
                txn.abort();
                Err(e)
            }
        })
    }

    /// The retry loop under [`KvClient::run_txn`], for callers that end the
    /// transaction themselves: every attempt is handed a fresh transaction
    /// by value, and whatever it returns on success is the result — a
    /// committed value, or the transaction itself still open (a read-only
    /// stream that outlives the call).  Failures are classified, counted
    /// (`kv.txn_retries`), backed off and bounded exactly as for `run_txn`.
    ///
    /// An attempt whose cell edit of a leaf was refused is counted as an
    /// attempt, but not as a retry (the refusal is counted, as
    /// `dbt.cell_edit_refusals`), and is not backed off from: the refusal
    /// was reported to the edit's caller, which fetches that leaf in the
    /// next attempt, and that attempt begins at once.
    pub fn retry_txn<T>(&self, mut attempt: impl FnMut(Txn) -> Result<T>) -> Result<T> {
        let _statement = Statement::enter();
        let deadline = Deadline::new(&self.core.cfg, true);
        let (mut attempts, mut salt) = (0, None);
        loop {
            let txn = Txn::begin(Arc::clone(&self.core), true);
            let (last, refused) = match attempt(txn) {
                Ok(value) => return Ok(value),
                Err(e @ Error::EditRefused { .. }) => (e, true),
                Err(e) if e.is_retryable() => (e, false),
                Err(e) => return Err(e),
            };
            attempts += 1;
            if !refused {
                self.core.hot.txn_retries.inc();
            }
            // Once restarts repeat, back off so the conflicting transaction
            // gets a chance.
            let again = if refused {
                deadline.allows(0)
            } else if attempts > 3 {
                self.core.backoff(attempts - 1, &mut salt, &deadline)
            } else {
                deadline.allows(0)
            };
            if !again {
                return Err(Error::RetriesExhausted {
                    attempts,
                    last: Box::new(last),
                });
            }
        }
    }

    /// Number of storage servers in the deployment.
    pub fn num_servers(&self) -> usize {
        self.core.num_servers()
    }

    /// The statistics registry shared with the transport.
    pub fn stats(&self) -> &StatsRegistry {
        &self.core.stats
    }

    /// The key-value configuration this client operates under (the prepare
    /// lease, which sets the statement deadline and so the backoff;
    /// read-only).
    pub fn config(&self) -> &KvConfig {
        &self.core.cfg
    }

    /// The deployment's timestamp oracle.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.core.oracle
    }

    /// Atomically allocates a block of `count` ids from the non-
    /// transactional counter stored at `obj`, returning the first id.
    /// Retried on availability failures until a deadline of its own: a
    /// retry after a lost response wastes a block of ids but never hands
    /// the same id out twice.
    pub fn allocate(&self, obj: ObjectId, count: u64) -> Result<u64> {
        let server = obj.home_server(self.num_servers());
        let req = KvRequest::Allocate { obj, delta: count };
        let deadline = Deadline::new(&self.core.cfg, false);
        match self.core.call_retry(server, req, &deadline)? {
            KvResponse::Allocated { start } => Ok(start),
            KvResponse::ServerError { message } => Err(Error::Io(message)),
            other => Err(Error::Internal(format!(
                "unexpected Allocate response: {other:?}"
            ))),
        }
    }

    /// Runs one round of multi-version garbage collection: reads the
    /// watermark — the oldest active snapshot, or the newest timestamp issued
    /// when none is active — and has every server drop the versions no
    /// snapshot at or above it reads.  The sweeps are one round: a server
    /// that cannot be reached does not stop the others from being swept, and
    /// the first error is returned once every server has answered.
    pub fn run_gc(&self) -> Result<()> {
        let min_active_ts = self.core.snapshots.watermark(&self.core.oracle);
        let sweeps = (0..self.num_servers()).map(|s| (s, KvRequest::Gc { min_active_ts }));
        let deadline = Deadline::new(&self.core.cfg, false);
        round(&self.core, sweeps, &deadline, |_| false)
            .into_iter()
            .try_for_each(|swept| swept.map(drop))
    }
}
