//! Yesquel's transactional key-value storage system.
//!
//! This is the lowest layer of the Yesquel architecture (boxes 3 in Figure 1
//! of the paper): a distributed key-value store whose keys are
//! [`ObjectId`](yesquel_common::ObjectId)s, whose values are byte strings,
//! and which provides **distributed transactions with snapshot isolation**
//! implemented with multi-version concurrency control.  The distributed
//! balanced tree (`yesquel-ydbt`) stores every tree node as one key-value
//! pair in this store, and relies on these transactions for all of its
//! consistency — including atomically moving data between nodes when
//! splitting.
//!
//! ## Transaction protocol
//!
//! * Every transaction obtains a **start timestamp** from the timestamp
//!   oracle and reads the newest committed version of each object with
//!   timestamp ≤ start timestamp (its snapshot).  Drawing the timestamp and
//!   registering the snapshot are one step ([`snapshot::SnapshotTracker`]),
//!   and the registration lasts until the transaction has finished
//!   committing.
//! * Writes are **buffered at the client** until commit; reads observe the
//!   transaction's own buffered writes, and a value once fetched is served
//!   again from the transaction (exact under snapshot isolation: a value at
//!   the start timestamp never changes).  Where a call finishes after it is
//!   submitted, a caller can fetch several objects in one round
//!   ([`Txn::prefetch`]).
//! * Commit runs **two-phase commit** over the storage servers holding
//!   written objects: each participant validates (first-committer-wins:
//!   no committed version newer than the start timestamp) and locks the
//!   written objects; the coordinator then obtains a **commit timestamp**
//!   and tells participants to install the new versions and release locks —
//!   the primary first, the commit point, after which the commit returns;
//!   the other participants' decisions are submitted and not waited for.
//! * Every RPC is submitted through the transport and answered on a
//!   [`Completion`](yesquel_rpc::Completion), and so is every wait for the
//!   log: a server acknowledges a prepare with the completion its log's
//!   flusher answers once the record is synced
//!   ([`Wal::durable`](yesquel_wal::Wal::durable)), mapped to `Prepared`
//!   or, when the sync fails, `ServerError`.  A round — a prefetch, the
//!   prepares, the aborts — is submitted whole and then waited for on the
//!   caller's thread, so its waits overlap: one round trip on a slept
//!   network, one flush wait when every participant forces its log.  On
//!   the direct transport without a log every call is answered inline and
//!   the client starts no thread.  A write travels as the log's own type
//!   ([`WriteOp`] is [`yesquel_wal::WalWrite`]), so a participant logs what
//!   it received without converting it.
//! * Transactions that wrote to a single server always use one-phase
//!   commit (the server validates, assigns the commit timestamp and
//!   installs versions in one round trip).
//! * **Read-only transactions commit with no communication at all** — a
//!   property the paper calls out, and which
//!   `read_only_commit_needs_no_communication` in `tests/integration_kv.rs`
//!   checks.
//! * Readers that encounter an object locked by a preparing transaction
//!   wait for it, until their statement's deadline: the lock window spans
//!   the coordinator's commit round trip, or the lease of a coordinator
//!   that died.  This preserves snapshot correctness: if a transaction's
//!   commit timestamp precedes a reader's snapshot, its locks were already
//!   held when the reader started, so the reader cannot miss its writes.
//!
//! The isolation level is **snapshot isolation**, exactly as stated in the
//! paper (write-write conflicts abort; write skew is permitted).  The
//! `exp_si_semantics` experiment demonstrates both halves.
//!
//! ## Version retention
//!
//! A version lives while a snapshot can read it.  A sweep
//! ([`KvClient::run_gc`]) carries a **watermark** — the oldest registered
//! snapshot, or the newest timestamp issued when none is registered — that
//! no current or future snapshot is below, and each server keeps, of every
//! object, the newest version at or below the watermark and everything
//! newer ([`mvcc::VersionChain::gc`]).  There is no retention setting:
//! with no snapshot open, one sweep leaves one version per object.
//!
//! ## Non-transactional helpers
//!
//! Two deliberately non-transactional operations exist because the layers
//! above need them: [`protocol::KvRequest::Allocate`] (a per-object atomic
//! counter used to allocate fresh tree-node ids and row ids without creating
//! write-write conflicts) and the garbage-collection sweep above.

pub mod client;
pub mod database;
pub mod mvcc;
pub mod oracle;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod txn;

pub use client::KvClient;
pub use database::KvDatabase;
pub use oracle::TimestampOracle;
pub use protocol::{KvRequest, KvResponse, WriteOp};
pub use server::KvServer;
pub use txn::Txn;
