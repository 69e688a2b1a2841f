//! Multi-version storage for a single object.
//!
//! Yesquel keeps multiple versions of each data item because, as the paper
//! notes, multi-version concurrency control is implemented "at the layer
//! that stores the actual data", which makes version management cheap: the
//! version chain lives right next to the bytes.

use bytes::Bytes;
use yesquel_common::Timestamp;

/// One committed version of an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp of the transaction that installed this version.
    pub ts: Timestamp,
    /// The value; `None` is a tombstone (the object was deleted).
    pub value: Option<Bytes>,
}

/// The committed versions of one object, ordered by ascending timestamp.
#[derive(Debug, Default, Clone)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// An empty chain (object never written).
    pub fn new() -> Self {
        VersionChain {
            versions: Vec::new(),
        }
    }

    /// Number of committed versions currently retained.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if no version has ever been installed (or all were collected).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Timestamp of the newest committed version, if any.
    pub fn latest_ts(&self) -> Option<Timestamp> {
        self.versions.last().map(|v| v.ts)
    }

    /// Returns the value visible to a snapshot taken at `ts`: the newest
    /// version with timestamp ≤ `ts`.  Returns `None` both when no such
    /// version exists and when the visible version is a tombstone — the two
    /// cases are indistinguishable to readers, as in the real system.
    pub fn read_at(&self, ts: Timestamp) -> Option<Bytes> {
        // Versions are sorted ascending; scan from the back since readers
        // overwhelmingly want a recent version.
        for v in self.versions.iter().rev() {
            if v.ts <= ts {
                return v.value.clone();
            }
        }
        None
    }

    /// Returns true if a committed version newer than `ts` exists — the
    /// first-committer-wins validation used at prepare time.
    pub fn has_newer_than(&self, ts: Timestamp) -> bool {
        self.latest_ts().map(|l| l > ts).unwrap_or(false)
    }

    /// Installs a version at `ts`.
    ///
    /// Timestamps normally arrive in increasing order (commit timestamps are
    /// issued by a monotonic oracle and installation is serialized by the
    /// per-object lock), but nothing here depends on it: a version that
    /// arrives out of order is inserted at its sorted position, and one at
    /// an existing timestamp replaces it.
    pub fn install(&mut self, ts: Timestamp, value: Option<Bytes>) {
        match self.versions.last() {
            Some(last) if last.ts < ts => self.versions.push(Version { ts, value }),
            _ => {
                let pos = self.versions.partition_point(|v| v.ts < ts);
                if pos < self.versions.len() && self.versions[pos].ts == ts {
                    self.versions[pos].value = value;
                } else {
                    self.versions.insert(pos, Version { ts, value });
                }
            }
        }
    }

    /// Drops the versions no snapshot can read, given the watermark
    /// `min_active_ts` ([`crate::snapshot::SnapshotTracker::watermark`]):
    /// every snapshot that exists or can still start reads at a timestamp
    /// ≥ `min_active_ts`, so the newest version ≤ `min_active_ts` and
    /// everything newer stay, and nothing else does.  A chain whose versions
    /// are all newer than the watermark loses nothing.
    ///
    /// Returns the number of versions dropped.
    pub fn gc(&mut self, min_active_ts: Timestamp) -> usize {
        let keep_from = self
            .versions
            .iter()
            .rposition(|v| v.ts <= min_active_ts)
            .unwrap_or(0);
        self.versions.drain(..keep_from);
        keep_from
    }

    /// If the only remaining versions are tombstones older than every active
    /// snapshot, the whole object can be removed from the store.  Returns
    /// true in that case.
    pub fn is_fully_dead(&self, min_active_ts: Timestamp) -> bool {
        !self.versions.is_empty()
            && self.versions.iter().all(|v| v.value.is_none())
            && self
                .versions
                .last()
                .map(|v| v.ts <= min_active_ts)
                .unwrap_or(false)
    }

    /// Iterates over the retained versions (oldest first); used by tests and
    /// the stats reporter.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn read_at_picks_visible_version() {
        let mut c = VersionChain::new();
        c.install(10, b("a"));
        c.install(20, b("b"));
        c.install(30, None); // delete
        assert_eq!(c.read_at(5), None);
        assert_eq!(c.read_at(10), b("a"));
        assert_eq!(c.read_at(19), b("a"));
        assert_eq!(c.read_at(20), b("b"));
        assert_eq!(c.read_at(29), b("b"));
        assert_eq!(c.read_at(30), None);
        assert_eq!(c.read_at(1000), None);
        assert_eq!(c.latest_ts(), Some(30));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn first_committer_wins_check() {
        let mut c = VersionChain::new();
        assert!(!c.has_newer_than(0));
        c.install(10, b("a"));
        assert!(c.has_newer_than(5));
        assert!(!c.has_newer_than(10));
        assert!(!c.has_newer_than(15));
    }

    #[test]
    fn out_of_order_install_sorts() {
        let mut c = VersionChain::new();
        c.install(20, b("b"));
        c.install(10, b("a"));
        assert_eq!(c.read_at(15), b("a"));
        assert_eq!(c.read_at(25), b("b"));
        // Same-timestamp install replaces.
        c.install(10, b("a2"));
        assert_eq!(c.read_at(15), b("a2"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let mut c = VersionChain::new();
        for ts in [10, 20, 30, 40, 50] {
            c.install(ts, b("v"));
        }
        // Oldest active snapshot at 25: version 10 is reclaimable (20 is the
        // newest visible at 25 and must stay).
        let dropped = c.gc(25);
        assert_eq!(dropped, 1);
        assert_eq!(c.read_at(25), b("v"));
        assert_eq!(c.len(), 4);

        // Watermark far in the future: only the newest version survives.
        let dropped = c.gc(1000);
        assert_eq!(dropped, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.read_at(1000), b("v"));
    }

    #[test]
    fn gc_keeps_everything_when_snapshot_is_old() {
        let mut c = VersionChain::new();
        for ts in [10, 20, 30] {
            c.install(ts, b("v"));
        }
        assert_eq!(c.gc(5), 0);
        assert_eq!(c.len(), 3);
    }

    /// The retention rule, case by case: `(versions, watermark, kept)`.
    #[test]
    fn gc_keeps_the_newest_version_at_or_below_the_watermark_and_all_newer() {
        let cases: &[(&[Timestamp], Timestamp, &[Timestamp])] = &[
            // A version exactly at the watermark is the one it reads.
            (&[10, 20, 30], 20, &[20, 30]),
            // Watermark between two versions: the older of the two stays.
            (&[10, 20, 30], 29, &[20, 30]),
            (&[10, 20, 30], 19, &[10, 20, 30]),
            // Every version newer than the watermark: nothing to drop.
            (&[10, 20, 30], 9, &[10, 20, 30]),
            // Watermark past the newest: the newest alone.
            (&[10, 20, 30], 31, &[30]),
            // A single version is never dropped, wherever the watermark is.
            (&[10], 5, &[10]),
            (&[10], 10, &[10]),
            (&[10], 1000, &[10]),
            (&[], 7, &[]),
        ];
        for (versions, watermark, kept) in cases {
            let mut c = VersionChain::new();
            for &ts in *versions {
                c.install(ts, b(&format!("v{ts}")));
            }
            let dropped = c.gc(*watermark);
            let left: Vec<Timestamp> = c.versions().iter().map(|v| v.ts).collect();
            assert_eq!(left, *kept, "{versions:?} swept at {watermark}");
            assert_eq!(dropped, versions.len() - kept.len());
            // Whatever a snapshot at or above the watermark read before, it
            // reads after.
            for ts in *watermark..*watermark + 40 {
                let want = versions.iter().rev().find(|&&v| v <= ts);
                assert_eq!(c.read_at(ts), want.and_then(|v| b(&format!("v{v}"))));
            }
        }
    }

    #[test]
    fn gc_keeps_a_tombstone_that_is_the_newest_visible_version() {
        let mut c = VersionChain::new();
        c.install(10, b("a"));
        c.install(20, None);
        c.install(30, b("c"));
        // A snapshot at 25 must keep reading "deleted", so the tombstone
        // stays though the value under it goes.
        assert_eq!(c.gc(25), 1);
        assert_eq!(c.read_at(25), None);
        assert_eq!(c.len(), 2);
        assert!(!c.is_fully_dead(25));
    }

    #[test]
    fn fully_dead_detection() {
        let mut c = VersionChain::new();
        c.install(10, b("a"));
        c.install(20, None);
        assert!(!c.is_fully_dead(30));
        // The tombstone is the newest visible version: gc keeps it, and the
        // chain is dead only for a watermark that has reached it.
        assert_eq!(c.gc(1000), 1);
        assert_eq!(c.len(), 1);
        assert!(c.is_fully_dead(30));
        assert!(!c.is_fully_dead(10));
    }

    #[test]
    fn empty_chain_reads_none() {
        let c = VersionChain::new();
        assert_eq!(c.read_at(100), None);
        assert!(c.is_empty());
        assert_eq!(c.latest_ts(), None);
    }
}
