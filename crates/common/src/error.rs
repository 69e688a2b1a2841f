//! Error type shared by every layer of the system.
//!
//! The error enum is deliberately flat: storage, tree and SQL layers all
//! return the same [`Error`] so that an error raised deep inside a storage
//! server can be propagated unchanged through the distributed balanced tree
//! and the query processor back to the application.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the Yesquel layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A key or object was not found where it was required to exist.
    NotFound(String),
    /// A transaction could not commit because of a write-write conflict
    /// under snapshot isolation.  The transaction has been aborted and the
    /// caller may retry it.
    Conflict(String),
    /// A participant refused to apply a cell edit to a leaf the transaction
    /// had not read (not a leaf at the snapshot, a key outside its fences,
    /// or a replicated leaf).  The transaction has been aborted; a retry
    /// fetches `obj` and edits it locally.
    EditRefused {
        /// The leaf the edit was for.
        obj: crate::ObjectId,
        /// Why it was refused.
        reason: String,
    },
    /// A put-if-absent cell edit found its key present in the version of
    /// the leaf the transaction's snapshot reads.  The transaction has
    /// been aborted; not retryable: the caller owns the key's meaning (a
    /// SQL insert reports the uniqueness violation).
    KeyPresent {
        /// The leaf.
        obj: crate::ObjectId,
        /// The key that was present.
        key: bytes::Bytes,
    },
    /// The transaction was explicitly aborted (by the user or by the system)
    /// and can no longer be used.
    Aborted(String),
    /// A prepare-phase lock could not be acquired within the configured
    /// bound; the transaction aborts rather than deadlock.
    LockTimeout(String),
    /// The requested server does not exist or is unreachable.
    ServerUnavailable(String),
    /// An RPC deadline elapsed before a response arrived (request or
    /// response lost on the wire, or the server stalled).  The operation may
    /// or may not have been applied server-side; retries are made safe by
    /// server-side deduplication on the transaction id.
    Timeout(String),
    /// A server is temporarily unreachable (crashed, restarting, or a
    /// transient transport failure) and the operation was definitely not
    /// applied.  Retrying the whole transaction after a backoff is the
    /// documented recovery strategy; the SQL layer surfaces this variant
    /// only once its own retries are exhausted.
    Unavailable(String),
    /// The fate of a commit could not be determined: the commit decision was
    /// in flight when the coordinator lost contact with the commit point, so
    /// the transaction may or may not have committed.  Never blindly retried
    /// (a retry could double-apply); the application must reconcile.
    Indeterminate(String),
    /// A bounded retry loop gave up.  Carries the attempt count and the last
    /// underlying error so callers can distinguish "retried conflicts until
    /// the limit" from "the cluster is down".
    RetriesExhausted {
        /// Number of attempts made before giving up.
        attempts: usize,
        /// The error observed on the final attempt.
        last: Box<Error>,
    },
    /// Stored bytes could not be decoded (corrupt node, record or message).
    Corruption(String),
    /// A disk operation failed (open, write, fsync, rename).  Carries the
    /// failing path or operation for context.  Never retried blindly: a
    /// server whose log is failing must stop acknowledging writes.
    Io(String),
    /// The write-ahead log contains a record that fails its checksum or
    /// cannot be decoded *before* the recoverable tail.  A torn or corrupt
    /// tail record is not an error — recovery truncates it — so this variant
    /// only surfaces for damage that makes the clean prefix ambiguous (e.g.
    /// an unreadable checkpoint with no older segment to fall back to).
    WalCorrupt(String),
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// The SQL statement refers to a table, column or index that does not
    /// exist, or redefines one that already exists.
    Schema(String),
    /// A constraint (primary-key uniqueness, NOT NULL, unique index) was
    /// violated by a DML statement.
    Constraint(String),
    /// A SQL type error (e.g. adding a string to an integer without a
    /// defined coercion).
    Type(String),
    /// A statement parameter could not be bound: arity mismatch, an unknown
    /// `:name`, mixing named and positional placeholders, or a typed row
    /// access that does not fit the value.  Surfaced at bind time, before
    /// any row is touched.
    Bind(String),
    /// The feature is recognised but not supported by this implementation.
    Unsupported(String),
    /// Invalid argument or state transition requested by the caller.
    InvalidArgument(String),
    /// An invariant inside the system was violated; indicates a bug.
    Internal(String),
}

impl Error {
    /// Returns true if the error indicates a transient condition under which
    /// retrying the whole transaction is the documented recovery strategy.
    ///
    /// `Timeout` and `Unavailable` qualify because every path that surfaces
    /// them has either not applied the operation or made it idempotent via
    /// server-side deduplication; `Indeterminate` deliberately does not (the
    /// commit may have been applied, so re-running could double-apply).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Conflict(_)
                | Error::EditRefused { .. }
                | Error::LockTimeout(_)
                | Error::Timeout(_)
                | Error::Unavailable(_)
        )
    }

    /// True for the availability-class errors (`Timeout`, `Unavailable`):
    /// the cluster misbehaved, not the transaction.  Retry loops use this to
    /// pick a longer backoff and to report exhaustion as [`Error::Unavailable`]
    /// rather than a conflict.
    pub fn is_availability(&self) -> bool {
        matches!(self, Error::Timeout(_) | Error::Unavailable(_))
    }

    /// Short machine-readable tag for the error category, used by the
    /// benchmark harness when tabulating abort reasons.
    pub fn tag(&self) -> &'static str {
        match self {
            Error::NotFound(_) => "not_found",
            Error::Conflict(_) => "conflict",
            Error::EditRefused { .. } => "edit_refused",
            Error::KeyPresent { .. } => "key_present",
            Error::Aborted(_) => "aborted",
            Error::LockTimeout(_) => "lock_timeout",
            Error::ServerUnavailable(_) => "server_unavailable",
            Error::Timeout(_) => "timeout",
            Error::Unavailable(_) => "unavailable",
            Error::Indeterminate(_) => "indeterminate",
            Error::RetriesExhausted { .. } => "retries_exhausted",
            Error::Corruption(_) => "corruption",
            Error::Io(_) => "io",
            Error::WalCorrupt(_) => "wal_corrupt",
            Error::Parse(_) => "parse",
            Error::Schema(_) => "schema",
            Error::Constraint(_) => "constraint",
            Error::Type(_) => "type",
            Error::Bind(_) => "bind",
            Error::Unsupported(_) => "unsupported",
            Error::InvalidArgument(_) => "invalid_argument",
            Error::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Conflict(m) => write!(f, "transaction conflict: {m}"),
            Error::EditRefused { obj, reason } => write!(f, "cell edit of {obj} refused: {reason}"),
            Error::KeyPresent { obj, key } => write!(f, "key {key:?} already present in {obj}"),
            Error::Aborted(m) => write!(f, "transaction aborted: {m}"),
            Error::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            Error::ServerUnavailable(m) => write!(f, "server unavailable: {m}"),
            Error::Timeout(m) => write!(f, "rpc timeout: {m}"),
            Error::Unavailable(m) => write!(f, "unavailable: {m}"),
            Error::Indeterminate(m) => write!(f, "commit outcome indeterminate: {m}"),
            Error::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            Error::Corruption(m) => write!(f, "data corruption: {m}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
            Error::WalCorrupt(m) => write!(f, "write-ahead log corrupt: {m}"),
            Error::Parse(m) => write!(f, "SQL parse error: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Constraint(m) => write!(f, "constraint violation: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Bind(m) => write!(f, "bind error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl Error {
    /// Wraps a [`std::io::Error`] with context (typically the path or the
    /// operation that failed), so disk failures surface as typed errors
    /// instead of panics or stringly `Internal`s.
    pub fn io(context: impl std::fmt::Display, err: std::io::Error) -> Self {
        Error::Io(format!("{context}: {err}"))
    }
}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err.to_string())
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(Error::Conflict("x".into()).is_retryable());
        assert!(Error::LockTimeout("x".into()).is_retryable());
        assert!(Error::Timeout("x".into()).is_retryable());
        assert!(Error::Unavailable("x".into()).is_retryable());
        assert!(!Error::Indeterminate("x".into()).is_retryable());
        assert!(!Error::NotFound("x".into()).is_retryable());
        assert!(!Error::Parse("x".into()).is_retryable());
        let exhausted = Error::RetriesExhausted {
            attempts: 3,
            last: Box::new(Error::Conflict("x".into())),
        };
        assert!(!exhausted.is_retryable());
    }

    #[test]
    fn availability_classification() {
        assert!(Error::Timeout("x".into()).is_availability());
        assert!(Error::Unavailable("x".into()).is_availability());
        assert!(!Error::Conflict("x".into()).is_availability());
        assert!(!Error::Indeterminate("x".into()).is_availability());
    }

    #[test]
    fn retries_exhausted_reports_cause() {
        let e = Error::RetriesExhausted {
            attempts: 7,
            last: Box::new(Error::Timeout("server 2 silent".into())),
        };
        let s = e.to_string();
        assert!(s.contains("7 attempts"));
        assert!(s.contains("server 2 silent"));
        assert_eq!(e.tag(), "retries_exhausted");
    }

    #[test]
    fn display_includes_message() {
        let e = Error::Schema("no such table t".into());
        assert!(e.to_string().contains("no such table t"));
        assert_eq!(e.tag(), "schema");
    }

    #[test]
    fn io_errors_are_typed_and_not_retryable() {
        let e = Error::io(
            "/var/wal/segment-0.wal",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        assert_eq!(e.tag(), "io");
        assert!(e.to_string().contains("/var/wal/segment-0.wal"));
        assert!(e.to_string().contains("denied"));
        assert!(!e.is_retryable());
        assert!(!e.is_availability());

        let from: Error = std::io::Error::other("disk on fire").into();
        assert_eq!(from.tag(), "io");

        let wc = Error::WalCorrupt("checkpoint checksum mismatch".into());
        assert_eq!(wc.tag(), "wal_corrupt");
        assert!(!wc.is_retryable());
    }

    #[test]
    fn tags_are_distinct() {
        let errs = [
            Error::NotFound(String::new()),
            Error::Conflict(String::new()),
            Error::Aborted(String::new()),
            Error::LockTimeout(String::new()),
            Error::ServerUnavailable(String::new()),
            Error::Timeout(String::new()),
            Error::Unavailable(String::new()),
            Error::Indeterminate(String::new()),
            Error::RetriesExhausted {
                attempts: 0,
                last: Box::new(Error::Internal(String::new())),
            },
            Error::Corruption(String::new()),
            Error::Io(String::new()),
            Error::WalCorrupt(String::new()),
            Error::Parse(String::new()),
            Error::Schema(String::new()),
            Error::Constraint(String::new()),
            Error::Type(String::new()),
            Error::Bind(String::new()),
            Error::Unsupported(String::new()),
            Error::InvalidArgument(String::new()),
            Error::Internal(String::new()),
        ];
        let mut tags: Vec<_> = errs.iter().map(|e| e.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), errs.len());
    }
}
