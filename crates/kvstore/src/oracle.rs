//! Timestamp oracle and transaction-id allocation.
//!
//! The paper's transactions do not require special hardware clocks (unlike
//! Spanner/F1, as its related-work section notes); a logical counter is
//! sufficient because Yesquel runs within a single data center.  The oracle
//! is shared by every client and server of one deployment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yesquel_common::{Timestamp, TxnId};

/// Monotonic source of timestamps and transaction ids.
///
/// Cloning shares the underlying counters.
#[derive(Clone, Default)]
pub struct TimestampOracle {
    inner: Arc<OracleInner>,
}

#[derive(Default)]
struct OracleInner {
    // Starts at 1, so that `last_timestamp` (the counter minus one) is 0 —
    // below every snapshot and every version — before anything is issued.
    next_ts: AtomicU64,
    next_txn: AtomicU64,
}

impl TimestampOracle {
    /// Creates a fresh oracle.
    pub fn new() -> Self {
        let o = TimestampOracle {
            inner: Arc::new(OracleInner::default()),
        };
        o.inner.next_ts.store(1, Ordering::SeqCst);
        o.inner.next_txn.store(1, Ordering::SeqCst);
        o
    }

    /// Returns the next timestamp (strictly increasing across all callers).
    pub fn next_timestamp(&self) -> Timestamp {
        self.inner.next_ts.fetch_add(1, Ordering::SeqCst)
    }

    /// Returns the most recently issued timestamp without issuing a new one.
    pub fn last_timestamp(&self) -> Timestamp {
        self.inner.next_ts.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// Returns a fresh transaction id.
    pub fn next_txn_id(&self) -> TxnId {
        self.inner.next_txn.fetch_add(1, Ordering::SeqCst)
    }

    /// Advances the counter so the next issued timestamp is strictly greater
    /// than `ts`.  Never moves the counter backwards.  Called after
    /// write-ahead-log recovery, when the stores hold versions stamped by a
    /// previous incarnation's oracle.
    pub fn advance_past(&self, ts: Timestamp) {
        self.inner.next_ts.fetch_max(ts + 1, Ordering::SeqCst);
    }

    /// Advances the counter so the next issued transaction id is strictly
    /// greater than `txn` (recovery counterpart of [`Self::advance_past`];
    /// reusing an id would collide with recovered outcome-table entries).
    pub fn advance_txn_past(&self, txn: TxnId) {
        self.inner.next_txn.fetch_max(txn + 1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn timestamps_strictly_increase() {
        let o = TimestampOracle::new();
        let a = o.next_timestamp();
        let b = o.next_timestamp();
        assert!(b > a);
        assert!(a >= 1);
        assert_eq!(o.last_timestamp(), b);
    }

    #[test]
    fn clone_shares_counter() {
        let o = TimestampOracle::new();
        let o2 = o.clone();
        let a = o.next_timestamp();
        let b = o2.next_timestamp();
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_uniqueness() {
        let o = TimestampOracle::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let o = o.clone();
            handles.push(thread::spawn(move || {
                (0..1000).map(|_| o.next_timestamp()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for ts in h.join().unwrap() {
                assert!(all.insert(ts), "duplicate timestamp {ts}");
            }
        }
        assert_eq!(all.len(), 8000);
    }
}
