//! Wire protocol between key-value clients and storage servers.
//!
//! The messages mirror what the real system would put on the network.  The
//! transport delivers them in-process, but every `call` still counts as one
//! RPC round trip for the network model, and the wire-size estimators below
//! feed the bandwidth model.

use bytes::Bytes;
use yesquel_common::node::CellEdit;
use yesquel_common::{ObjectId, ServerId, Timestamp, TxnId};

/// A buffered write shipped to a participant at prepare time: the log's
/// write type, so a participant logs what it received as is.
pub use yesquel_wal::WalWrite as WriteOp;

/// The cell edits a transaction made to one tree leaf it never read,
/// shipped to the leaf's participant at prepare time.  The participant
/// applies them to the version the transaction's snapshot reads
/// ([`yesquel_common::node::edit_leaf`]) and stages, logs and installs the
/// page that results like any [`WriteOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafEdit {
    /// The leaf.
    pub obj: ObjectId,
    /// The cells to put, put if absent, or remove, in key order.
    pub cells: Vec<CellEdit>,
    /// The participant names the leaf in its vote when the edited page holds
    /// more cells than this, so that the client asks for its split.
    pub max_cells: u32,
}

/// Approximate number of bytes `writes` and `edits` occupy on the wire.
fn writes_wire_size(writes: &[WriteOp], edits: &[LeafEdit]) -> usize {
    let writes: usize = (writes.iter())
        .map(|w| 16 + w.value.as_ref().map_or(0, |v| v.len()))
        .sum();
    let cells = |e: &LeafEdit| -> usize {
        (e.cells.iter())
            .map(|c| 8 + c.key.len() + c.value.as_ref().map_or(0, |v| v.len()))
            .sum()
    };
    writes + edits.iter().map(|e| 20 + cells(e)).sum::<usize>()
}

/// Requests a client can send to one storage server.
#[derive(Debug, Clone)]
pub enum KvRequest {
    /// Read the newest version of `obj` with timestamp ≤ `ts`.
    Get {
        /// Object to read.
        obj: ObjectId,
        /// Snapshot timestamp of the reading transaction.
        ts: Timestamp,
    },
    /// The prepare round, and the commit point: validate and lock
    /// `writes`, draw a prepare timestamp, and force the vote to the log
    /// before answering `Prepared`.  Once every participant has voted yes
    /// the transaction is committed, at the maximum prepare timestamp; a
    /// participant that is the only one applies that commit itself and
    /// answers `Committed`.
    Prepare {
        /// Transaction id (used to identify the lock owner).
        txn: TxnId,
        /// Snapshot timestamp of the transaction (for first-committer-wins
        /// validation).
        start_ts: Timestamp,
        /// Writes destined for objects homed at this server.
        writes: Vec<WriteOp>,
        /// Cell edits of leaves homed at this server that the transaction
        /// did not read: validated like `writes`, then applied here.
        edits: Vec<LeafEdit>,
        /// Every participant of the transaction, this one included: whoever
        /// resolves an undecided prepare asks the others
        /// ([`KvRequest::TxnStatus`]).
        participants: Vec<ServerId>,
        /// Coordinator lease in microseconds: how long a resolver waits
        /// before it fences a participant that has no record.
        lease_us: u64,
    },
    /// Install the versions staged by `Prepare` at `commit_ts` and release
    /// the locks.  Submitted to every participant once all voted yes, and
    /// never waited for: the transaction is already committed.
    Commit {
        /// Transaction id.
        txn: TxnId,
        /// Commit timestamp: the maximum of the participants' prepare
        /// timestamps.
        commit_ts: Timestamp,
    },
    /// Abort: release this transaction's locks and discard staged writes.
    Abort {
        /// Transaction id.
        txn: TxnId,
    },
    /// Atomically add `delta` to the non-transactional counter stored at
    /// `obj` and return the pre-increment value.  Used to allocate node ids
    /// and row ids without transactional conflicts.
    Allocate {
        /// Counter object.
        obj: ObjectId,
        /// Amount to add (the caller receives a block of this many ids).
        delta: u64,
    },
    /// Drop the versions no snapshot can read.  `min_active_ts` is the
    /// watermark (`SnapshotTracker::watermark`): every snapshot that exists
    /// or can still start reads at or above it.  Of each object the server
    /// keeps the newest version with timestamp ≤ `min_active_ts` and every
    /// newer one, and nothing else; an object left with only tombstones at or
    /// below the watermark goes entirely.
    Gc {
        /// Lower bound on the timestamp of every current and future
        /// snapshot.
        min_active_ts: Timestamp,
    },
    /// Ask this participant what its records say about a transaction.  Sent
    /// server-to-server by a resolver, and by a coordinator whose prepare
    /// round lost an answer.  Answered from the records alone: a probe
    /// never asks another server.
    TxnStatus {
        /// Transaction being resolved.
        txn: TxnId,
        /// With no record of the transaction, record (forced) an abort
        /// before answering, so that a prepare arriving later is refused.
        fence: bool,
    },
}

/// What a participant's records say about a transaction, in response to
/// [`KvRequest::TxnStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatusKind {
    /// The transaction committed at this timestamp.
    Committed(Timestamp),
    /// The transaction aborted: refused or fenced here, or aborted after a
    /// refusal or fence elsewhere.
    Aborted,
    /// This participant voted yes, with this prepare timestamp, and the
    /// vote is on its disk.
    Prepared(Timestamp),
    /// Nothing is known about the transaction, and the probe did not
    /// fence: its prepare may still be on the way.
    Unknown,
}

/// Responses from a storage server.
#[derive(Debug, Clone)]
pub enum KvResponse {
    /// Result of a `Get`: the value, or `None` if the object has no visible
    /// version (never written, or deleted) at the snapshot.
    Value(Option<Bytes>),
    /// The object is currently locked by a preparing transaction; the
    /// client should retry the read shortly.
    Locked,
    /// Prepare succeeded and the vote is durable; locks are held until
    /// `Commit` or `Abort`.
    Prepared {
        /// Timestamp this participant drew under its shard guards.
        prepare_ts: Timestamp,
        /// The edited leaves now over their `max_cells`.
        full: Vec<ObjectId>,
    },
    /// Prepare refused: validation failed (write-write conflict or lock
    /// conflict), or the transaction had already aborted here; the
    /// transaction must abort.
    Conflict {
        /// Human-readable reason, used in error messages and abort stats.
        reason: String,
    },
    /// Prepare refused because a cell edit cannot be applied to the
    /// version the snapshot reads: it is not a leaf, the key is outside its
    /// fences, or it lists replicas.  Recorded and answered like a
    /// conflict; the client's retry fetches that leaf.
    EditRefused {
        /// The leaf.
        obj: ObjectId,
        /// Why the edit was refused.
        reason: String,
    },
    /// Prepare refused because a put-if-absent cell edit found its key
    /// present in the version of the leaf the snapshot reads.  Recorded and
    /// answered like a refusal, also to a prepare delivered again; not
    /// retried by the client.
    KeyPresent {
        /// The leaf.
        obj: ObjectId,
        /// The key that was present.
        key: Bytes,
    },
    /// Commit applied — or, in answer to a `Prepare`, the transaction is
    /// committed here: this server is its only participant and its vote is
    /// durable, or it was already resolved committed.
    Committed {
        /// Commit timestamp of the transaction.
        commit_ts: Timestamp,
        /// In answer to a sole participant's `Prepare`: the edited leaves
        /// now over their `max_cells`.
        full: Vec<ObjectId>,
    },
    /// Abort processed — or, in response to a `Commit`, the transaction is
    /// not prepared here and not known committed, so nothing was installed.
    Aborted,
    /// Response to [`KvRequest::TxnStatus`].
    TxnOutcome {
        /// What this server knows about the transaction.
        status: TxnStatusKind,
    },
    /// Result of `Allocate`: the first id of the allocated block.
    Allocated {
        /// Pre-increment counter value.
        start: u64,
    },
    /// Acknowledgement of a `Gc`.
    Ok,
    /// The server failed to process the request for a non-protocol reason —
    /// in practice a write-ahead-log append or fsync failure.  Nothing was
    /// applied or acknowledged (the log is written before any state
    /// change); the client surfaces this as a typed I/O error.
    ServerError {
        /// Rendered error (includes the failing path and the OS error).
        message: String,
    },
}

impl KvRequest {
    /// Approximate wire size of the request in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            KvRequest::Get { .. } => 32,
            KvRequest::Prepare { writes, edits, .. } => 32 + writes_wire_size(writes, edits),
            KvRequest::Commit { .. } => 24,
            KvRequest::Abort { .. } => 16,
            KvRequest::Allocate { .. } => 28,
            KvRequest::Gc { .. } => 16,
            KvRequest::TxnStatus { .. } => 16,
        }
    }
}

impl KvResponse {
    /// Approximate wire size of the response in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            KvResponse::Value(v) => 16 + v.as_ref().map(|b| b.len()).unwrap_or(0),
            KvResponse::Conflict { reason } => 16 + reason.len(),
            KvResponse::EditRefused { reason, .. } => 32 + reason.len(),
            KvResponse::KeyPresent { key, .. } => 32 + key.len(),
            KvResponse::Prepared { full, .. } | KvResponse::Committed { full, .. } => {
                16 + 16 * full.len()
            }
            KvResponse::ServerError { message } => 16 + message.len(),
            _ => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = KvRequest::Get {
            obj: ObjectId::new(1, 2),
            ts: 3,
        };
        let w = WriteOp {
            obj: ObjectId::new(1, 2),
            value: Some(Bytes::from(vec![0u8; 1000])),
        };
        let big = KvRequest::Prepare {
            txn: 1,
            start_ts: 1,
            writes: vec![w],
            edits: Vec::new(),
            participants: vec![0, 1],
            lease_us: 500_000,
        };
        assert!(big.wire_size() > small.wire_size() + 900);

        let rv = KvResponse::Value(Some(Bytes::from(vec![0u8; 500])));
        assert!(rv.wire_size() >= 500);
        assert!(KvResponse::Ok.wire_size() < 64);
    }

    #[test]
    fn write_op_delete_is_small() {
        let del = WriteOp {
            obj: ObjectId::new(1, 2),
            value: None,
        };
        assert_eq!(writes_wire_size(&[del], &[]), 16);
    }

    #[test]
    fn a_cell_edit_costs_its_bytes_not_its_page() {
        let edit = LeafEdit {
            obj: ObjectId::new(1, 2),
            cells: vec![CellEdit::remove(Bytes::from_static(b"key"))],
            max_cells: 64,
        };
        assert_eq!(writes_wire_size(&[], &[edit]), 20 + 8 + 3);
    }

    /// A put-if-absent costs its key and value bytes, as a put does.
    #[test]
    fn a_put_if_absent_costs_its_key_and_value() {
        let (key, value) = (Bytes::from_static(b"key"), Bytes::from_static(b"value"));
        let edit = |cell| LeafEdit {
            obj: ObjectId::new(1, 2),
            cells: vec![cell],
            max_cells: 64,
        };
        let if_absent = edit(CellEdit::put_if_absent(key.clone(), value.clone()));
        assert_eq!(writes_wire_size(&[], &[if_absent]), 20 + 8 + 3 + 5);
        let put = edit(CellEdit::put(key, value));
        assert_eq!(writes_wire_size(&[], &[put]), 20 + 8 + 3 + 5);
    }
}
