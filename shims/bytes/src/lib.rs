//! Offline stand-in for the `bytes` crate.
//!
//! The container this workspace builds in has no access to crates.io, so the
//! handful of external crates the code depends on are vendored as minimal
//! API-compatible shims (see `shims/` in the workspace root).  This one
//! provides [`Bytes`]: a cheaply clonable, sliceable view into a
//! reference-counted byte buffer.  Cloning and slicing never copy the
//! underlying bytes — which is exactly the property the YDBT leaf-fetch hot
//! path relies on (a `LeafView` hands out values that are slices of the
//! fetched page).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable and sliceable chunk of contiguous memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates `Bytes` from a static slice without copying.
    ///
    /// (The real crate stores the reference; the shim copies once into a
    /// shared buffer, which is equivalent for every use in this workspace.)
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes::copy_from_slice(b)
    }

    /// Copies `b` into a fresh shared buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes {
            data: Arc::from(b),
            start: 0,
            end: b.len(),
        }
    }

    /// Allocates a shared buffer of exactly `len` zeroed bytes **once** and
    /// lets `fill` write it in place — no intermediate `Vec`, no second copy
    /// (`From<Vec<u8>>` shrinks, re-allocates and copies).  This is what the
    /// YDBT page edits produce their result pages through.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        // Collecting an exact-size iterator into `Arc<[u8]>` allocates the
        // reference-counted slice directly.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut data).expect("a fresh Arc has one owner"));
        Bytes {
            data,
            start: 0,
            end: len,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of this buffer without copying.
    ///
    /// # Panics
    /// Panics when the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice start {begin} > end {end}");
        assert!(end <= len, "slice end {end} out of bounds of {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Returns a `Bytes` view of `subset`, which must lie inside `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_slice().as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len(),
            "slice_ref: subset is not within the Bytes"
        );
        let off = sub - base;
        self.slice(off..off + subset.len())
    }

    /// Copies this view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end: len,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(Arc::as_ptr(&b.data), Arc::as_ptr(&c.data));
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(Arc::as_ptr(&b.data), Arc::as_ptr(&s.data));
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn slice_ref_finds_offset() {
        let b = Bytes::from(vec![9u8, 8, 7, 6]);
        let sub = &b[1..3];
        let s = b.slice_ref(sub);
        assert_eq!(&s[..], &[8, 7]);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1u8, 2]);
        let _ = b.slice(0..3);
    }

    #[test]
    fn build_fills_in_place() {
        let b = Bytes::build(5, |buf| {
            assert_eq!(buf, &[0u8; 5], "buffer starts zeroed at its exact size");
            for (i, x) in buf.iter_mut().enumerate() {
                *x = i as u8 * 2;
            }
        });
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], &[0, 2, 4, 6, 8]);
        assert_eq!(b, Bytes::from(vec![0u8, 2, 4, 6, 8]));
        // Slices and clones of a built buffer share it like any other.
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 4, 6]);
        assert_eq!(Arc::as_ptr(&b.data), Arc::as_ptr(&s.data));
        assert_eq!(&b.slice_ref(&b[3..])[..], &[6, 8]);
    }

    #[test]
    fn build_zero_length() {
        let mut called = false;
        let b = Bytes::build(0, |buf| {
            called = true;
            assert!(buf.is_empty());
        });
        assert!(called);
        assert!(b.is_empty());
        assert_eq!(b, Bytes::new());
        assert!(b.slice(..).is_empty());
    }

    #[test]
    fn equality_and_order() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert!(Bytes::from_static(b"a") < Bytes::from_static(b"b"));
        assert_eq!(Bytes::from_static(b"xy"), b"xy".to_vec());
        assert_eq!(b"xy".to_vec(), Bytes::from_static(b"xy"));
    }
}
