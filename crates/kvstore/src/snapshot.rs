//! Tracking of active snapshots, which bounds garbage collection.
//!
//! A version may be dropped only when no snapshot that exists, and none that
//! can still start, reads it.  The tracker therefore owns the two steps
//! whose order decides that: **starting a snapshot** ([`SnapshotTracker::begin`]
//! draws the timestamp from the oracle *and* registers it under the
//! tracker's lock) and **reading the watermark** a sweep carries
//! ([`SnapshotTracker::watermark`], under the same lock).  Every snapshot
//! registered before a watermark read is counted in it; every snapshot begun
//! after it draws a timestamp the oracle had not issued yet, which is above
//! it.  So each snapshot's timestamp is ≥ every watermark computed while it
//! can still read, and [`crate::mvcc::VersionChain::gc`] keeps exactly what
//! such a snapshot reads.
//!
//! Drawing and registering as two steps loses reads.  With `x` last written
//! at 5:
//!
//! ```text
//! reader                   writer                collector / server
//! ts = oracle.next() -> 7
//!                          begins at 8, commits
//!                          x at 9, ends
//!                                                nothing registered, so
//!                                                watermark = oracle.last() = 9
//!                                                Gc { 9 }: keeps x@9, drops x@5
//! register(7)
//! Get { x, ts: 7 }  ---------------------------> no version ≤ 7: None
//! ```
//!
//! The reader is told an object that has existed all along does not.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use yesquel_common::Timestamp;

use crate::oracle::TimestampOracle;

/// Shared registry of active snapshot timestamps.
#[derive(Clone, Default)]
pub struct SnapshotTracker {
    inner: Arc<Mutex<BTreeSet<Timestamp>>>,
}

impl SnapshotTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a snapshot: draws a fresh timestamp from `oracle` and
    /// registers it, as one step under the tracker's lock (see the module
    /// docs for what two steps lose).  Pair with [`Self::unregister`].
    pub fn begin(&self, oracle: &TimestampOracle) -> Timestamp {
        let mut active = self.inner.lock();
        let ts = oracle.next_timestamp();
        active.insert(ts);
        ts
    }

    /// Ends the snapshot [`Self::begin`] returned `ts` for.
    pub fn unregister(&self, ts: Timestamp) {
        self.inner.lock().remove(&ts);
    }

    /// The garbage-collection watermark: the oldest active snapshot, or the
    /// newest timestamp `oracle` has issued when none is active.  No
    /// snapshot that exists now or starts later reads below it.
    pub fn watermark(&self, oracle: &TimestampOracle) -> Timestamp {
        let active = self.inner.lock();
        match active.first() {
            Some(&oldest) => oldest,
            None => oracle.last_timestamp(),
        }
    }

    /// Number of active snapshots (diagnostics).
    pub fn active_count(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn register_unregister_min() {
        let oracle = TimestampOracle::new();
        let t = SnapshotTracker::new();
        // Nothing active: whatever the oracle issued last.
        assert_eq!(t.watermark(&oracle), oracle.last_timestamp());
        let issued = oracle.next_timestamp();
        assert_eq!(t.watermark(&oracle), issued);

        let a = t.begin(&oracle);
        let b = t.begin(&oracle);
        assert!(issued < a && a < b);
        assert_eq!(t.active_count(), 2);
        // Later commits do not move it while `a` is open.
        oracle.next_timestamp();
        assert_eq!(t.watermark(&oracle), a);
        t.unregister(a);
        assert_eq!(t.watermark(&oracle), b);
        t.unregister(b);
        assert_eq!(t.active_count(), 0);
        assert_eq!(t.watermark(&oracle), oracle.last_timestamp());
    }

    #[test]
    fn unregister_unknown_is_harmless() {
        let oracle = TimestampOracle::new();
        let t = SnapshotTracker::new();
        t.unregister(5);
        assert_eq!(t.watermark(&oracle), oracle.last_timestamp());
    }

    /// The property a sweep relies on: a snapshot that is not yet registered
    /// when a watermark is read gets a timestamp at or above that watermark.
    /// A collector thread publishes every watermark it reads; a beginner
    /// picks up the latest published one (and reads one itself), then
    /// begins.
    #[test]
    fn no_begin_returns_a_timestamp_below_an_earlier_watermark() {
        const THREADS: usize = 8;
        const BEGINS: usize = 10_000;
        let oracle = TimestampOracle::new();
        let tracker = SnapshotTracker::new();
        let done = AtomicBool::new(false);
        let published = AtomicU64::new(0);
        std::thread::scope(|s| {
            let collector = s.spawn(|| {
                let mut reads = 0u64;
                let mut last = 0;
                while !done.load(Ordering::SeqCst) {
                    let w = tracker.watermark(&oracle);
                    // A new snapshot is above every timestamp issued so
                    // far, so the watermark never goes back.
                    assert!(w >= last, "watermark went back from {last} to {w}");
                    last = w;
                    published.store(w, Ordering::SeqCst);
                    reads += 1;
                }
                reads
            });
            let beginners: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..BEGINS {
                            let before = published
                                .load(Ordering::SeqCst)
                                .max(tracker.watermark(&oracle));
                            let ts = tracker.begin(&oracle);
                            assert!(
                                ts >= before,
                                "snapshot {ts} began below watermark {before} read before it"
                            );
                            assert!(tracker.watermark(&oracle) <= ts);
                            tracker.unregister(ts);
                        }
                    })
                })
                .collect();
            for b in beginners {
                b.join().expect("beginner thread");
            }
            done.store(true, Ordering::SeqCst);
            assert!(collector.join().expect("collector thread") > 0);
        });
        assert_eq!(tracker.active_count(), 0);
    }
}
