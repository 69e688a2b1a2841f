//! Tree-node pages: the binary layout, lazy views over it, and the page
//! edits the write path is made of.
//!
//! Every node of a YDBT is stored as one key-value pair in the transactional
//! key-value store: the key is the node's [`ObjectId`]
//! and the value is the page defined here.  Nodes carry their **fence
//! interval** `[lower, upper)` — the range of keys the node is responsible
//! for — which is what lets clients detect that a cached path is stale (the
//! "back-down search" of the paper): if a search for key `k` arrives at a
//! node whose fence interval does not contain `k`, the client's cache was
//! out of date and the search backs up.
//!
//! ## Page layout: the cell-offset directory
//!
//! Nodes are encoded as **directory pages** (the design SQLite's b-tree
//! pages and LMDB use): a fixed header, a table of `u32` cell offsets, and
//! then the cell payloads.  The k-th cell is addressable in O(1) through the
//! directory, so a point probe binary-searches the encoded page directly —
//! no cell is decoded except the O(log n) keys the search actually compares.
//!
//! ```text
//! Leaf page                            Inner page
//! +----------------------------+      +----------------------------+
//! | 0  tag (0xd3)              |      | 0  tag (0xd4)              |
//! | 1  flags                   |      | 1  flags                   |
//! | 2  next sibling oid (8B)   |      | 2  height (1B)             |
//! | 10 ncells (u32)            |      | 3  nchildren (u32)         |
//! | 14 directory:              |      | 7  children: nchildren ×   |
//! |    ncells × u32 offset ----+--+   |    u64 child oid           |
//! +----------------------------+  |   +----------------------------+
//! | lower fence key (if any)   |  |   | directory: (nchildren-1)   |
//! | upper fence key (if any)   |  |   |   × u32 separator offset   |
//! +----------------------------+  |   +----------------------------+
//! | cell 0: klen k vlen v   <--+--+   | lower/upper fence keys     |
//! | cell 1: klen k vlen v      |      +----------------------------+
//! | ...                        |      | sep 0: klen k              |
//! +----------------------------+      | ...                        |
//!                                     +----------------------------+
//! ```
//!
//! `flags` packs the leaf's has-next bit (bit 0), the kind of each fence
//! bound (bits 1–2 lower, bits 3–4 upper: 0 = −∞, 1 = key, 2 = +∞), and a
//! has-replicas bit (bit 5).  When bit 5 is set, a **replica set** — a `u8`
//! count followed by that many `u64` replica oids — sits between the fence
//! keys and the cell payloads: the node is additionally stored, byte for
//! byte, under each listed oid (read-any/write-all replication; see
//! `yesquel_ydbt::replica`).  Pages written before replication existed have bit 5
//! clear and parse unchanged.
//! Offsets are absolute page offsets; the directory is validated once at
//! view-construction time (in range, monotonically increasing) and each
//! cell decode is bounded to its directory slot, so a corrupt page yields
//! [`Error::Corruption`] — never a panic or an out-of-bounds read.
//!
//! ## One in-memory shape: the view
//!
//! A node is never materialised.  [`LeafView`] and [`InnerView`] wrap the
//! fetched [`Bytes`] and answer `find`, `lower_bound`, `child_for` and
//! `fence_contains` by binary search over the directory with **zero
//! per-cell allocation**; values and keys are handed out as `Bytes` slices
//! of the page (reference-count bumps).
//!
//! ## Writes are page edits
//!
//! A write produces the node's next page straight from the bytes of the
//! current one — the supervalue `ListAdd` / `ListDelRange` of the paper, done
//! at the client.  [`LeafView::put`] / [`LeafView::remove`] find the cell
//! with the probe reads use, allocate the result at its exact size
//! ([`Bytes::build`]) and fill it in one pass: header, the directory with
//! every offset rebased, fences and replica list as they were, the cells
//! before, the new cell, the cells after — one allocation and one copy, no
//! cell other than the probed keys decoded.  [`InnerView::insert_child_after`]
//! does the same for a parent gaining a child.  The rare structural edits —
//! [`LeafView::split`] / [`InnerView::split`] (cut the directory at the
//! median, copy each half's cells as one run under new fences) and
//! `with_replicas` (promotion / drop) — and the from-scratch builders
//! ([`LeafView::build`], [`InnerView::build`]: a new tree's root, the new
//! root of a root split, tests) share one page writer, so an edited page is
//! byte-identical to the page the builder makes for the same contents.
//!
//! ## Cell edits: the same edits, where the leaf lives
//!
//! The codec lives below the key-value store so that a storage server can
//! make the same edits.  A transaction that only puts, puts if absent or
//! removes keys in a leaf need not fetch it: it ships the [`CellEdit`]s,
//! and the participant applies them with [`edit_leaf`] to the version the
//! transaction's snapshot reads — the same `put` / `put_if_absent` /
//! `remove`, so the page it stages is byte-identical to the one the fetch
//! path would have written, and a key a put-if-absent finds present fails
//! the edit as the fetch path's probe would have failed the statement.  A
//! page that is not a leaf, a key outside the leaf's fences, or a page that
//! lists replicas (every copy must be written) is refused, never guessed
//! at.

use std::ops::{Deref, Range};

use crate::encoding::Reader;
use crate::{Error, ObjectId, Oid, Result};
use bytes::Bytes;

/// One endpoint of a fence interval, borrowing its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound<'a> {
    /// Below every key.
    NegInf,
    /// An actual key.
    Key(&'a [u8]),
    /// Above every key.
    PosInf,
}

impl Bound<'_> {
    /// True if `key` is ≥ this bound when used as a lower bound.
    pub fn le_key(&self, key: &[u8]) -> bool {
        match self {
            Bound::NegInf => true,
            Bound::Key(k) => *k <= key,
            Bound::PosInf => false,
        }
    }

    /// True if `key` is < this bound when used as an upper bound.
    pub fn gt_key(&self, key: &[u8]) -> bool {
        match self {
            Bound::NegInf => false,
            Bound::Key(k) => key < *k,
            Bound::PosInf => true,
        }
    }

    fn kind_bits(&self) -> u8 {
        match self {
            Bound::NegInf => 0,
            Bound::Key(_) => 1,
            Bound::PosInf => 2,
        }
    }

    /// Bytes the bound occupies in a page (infinities live in the flags).
    fn framed_len(&self) -> usize {
        match self {
            Bound::Key(k) => framed_len(k.len()),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Page constants
// ---------------------------------------------------------------------------

const LEAF_TAG: u8 = 0xd3;
const INNER_TAG: u8 = 0xd4;

/// Leaf header: tag(1) flags(1) next(8) ncells(4).
const LEAF_DIR_START: usize = 14;
/// Inner header: tag(1) flags(1) height(1) nchildren(4).
const INNER_CHILDREN_START: usize = 7;

const FLAG_HAS_NEXT: u8 = 0b1;
const FLAG_HAS_REPLICAS: u8 = 0b10_0000;

// ---------------------------------------------------------------------------
// Fence references (positions within a page, no allocation)
// ---------------------------------------------------------------------------

/// A fence bound as stored in a page: either infinite, or a key identified
/// by its byte range within the page.  `Copy`, so cloning a view copies two
/// words instead of bumping extra reference counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FenceRef {
    NegInf,
    Key { start: u32, len: u32 },
    PosInf,
}

impl FenceRef {
    fn get(self, page: &[u8]) -> Bound<'_> {
        match self {
            FenceRef::NegInf => Bound::NegInf,
            FenceRef::Key { start, len } => {
                Bound::Key(&page[start as usize..(start + len) as usize])
            }
            FenceRef::PosInf => Bound::PosInf,
        }
    }

    /// Reads one fence of the given kind bits at the reader's position.
    /// `base` is the reader's offset from the start of the page.
    fn read(kind: u8, r: &mut Reader<'_>, base: usize) -> Result<FenceRef> {
        match kind {
            0 => Ok(FenceRef::NegInf),
            1 => {
                let k = r.bytes()?;
                let end = base + r.pos();
                Ok(FenceRef::Key {
                    start: (end - k.len()) as u32,
                    len: k.len() as u32,
                })
            }
            2 => Ok(FenceRef::PosInf),
            b => Err(Error::Corruption(format!("bad fence kind {b}"))),
        }
    }
}

fn dir_entry(page: &[u8], dir_start: usize, i: usize) -> usize {
    let at = dir_start + 4 * i;
    u32::from_be_bytes(page[at..at + 4].try_into().expect("validated")) as usize
}

/// Validates a cell-offset directory: every entry must point past the end of
/// the fixed region (`floor`), lie inside the page, and be monotonically
/// increasing.  O(n) over the raw `u32` table — no cell is decoded.
fn check_directory(page: &[u8], dir_start: usize, n: usize, floor: usize) -> Result<()> {
    let mut prev = floor;
    for i in 0..n {
        let off = dir_entry(page, dir_start, i);
        if off < prev || off >= page.len() {
            return Err(Error::Corruption(format!(
                "directory offset {off} of cell {i} out of range [{prev}, {})",
                page.len()
            )));
        }
        prev = off + 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The page writer
// ---------------------------------------------------------------------------

/// Length of `len` as an unsigned LEB128 varint (the cells' length prefix).
fn varint_len(len: usize) -> usize {
    let bits = usize::BITS - (len | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

/// Bytes a length-prefixed slice of `len` bytes occupies.
fn framed_len(len: usize) -> usize {
    varint_len(len) + len
}

/// What a page holds between its directory and its first cell — the fences
/// and the replica list — together with the flag bits that announce them.
#[derive(Clone, Copy)]
struct Mid<'a> {
    lower: Bound<'a>,
    upper: Bound<'a>,
    replicas: &'a [Oid],
}

impl Mid<'_> {
    /// Bytes the section occupies; refuses a replica list the `u8` count
    /// cannot hold (config caps the replica factor far below that).
    fn len(&self) -> Result<usize> {
        let reps = match self.replicas.len() {
            0 => 0,
            n if n <= u8::MAX as usize => 1 + 8 * n,
            n => {
                return Err(Error::InvalidArgument(format!(
                    "replica set of {n} exceeds the page's u8 count"
                )))
            }
        };
        Ok(self.lower.framed_len() + self.upper.framed_len() + reps)
    }

    fn flags(&self) -> u8 {
        let reps = if self.replicas.is_empty() {
            0
        } else {
            FLAG_HAS_REPLICAS
        };
        (self.lower.kind_bits() << 1) | (self.upper.kind_bits() << 3) | reps
    }
}

/// A cursor filling a page buffer that was allocated at its exact size.
/// Writing past the end, or stopping short of it, is a bug in the length
/// computed beforehand and panics.
struct Out<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Out<'_> {
    fn raw(&mut self, b: &[u8]) {
        self.buf[self.pos..self.pos + b.len()].copy_from_slice(b);
        self.pos += b.len();
    }

    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    fn u32(&mut self, v: usize) {
        // Every offset and count is below the page length, which
        // `build_page` bounds by `u32::MAX`.
        self.raw(&(v as u32).to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.raw(&v.to_be_bytes());
    }

    /// A length-prefixed slice, framed exactly as `Reader::bytes` reads it.
    fn framed(&mut self, b: &[u8]) {
        let mut len = b.len();
        while len >= 0x80 {
            self.u8(len as u8 | 0x80);
            len >>= 7;
        }
        self.u8(len as u8);
        self.raw(b);
    }

    /// Directory entries `range` of `page`, each moved by `delta` bytes.
    fn dir(&mut self, page: &[u8], dir_start: usize, range: Range<usize>, delta: isize) {
        for i in range {
            self.u32(dir_entry(page, dir_start, i).wrapping_add_signed(delta));
        }
    }

    fn mid(&mut self, mid: Mid<'_>) {
        for bound in [mid.lower, mid.upper] {
            if let Bound::Key(k) = bound {
                self.framed(k);
            }
        }
        if !mid.replicas.is_empty() {
            self.u8(mid.replicas.len() as u8);
            for r in mid.replicas {
                self.u64(*r);
            }
        }
    }
}

/// Allocates a page of exactly `len` bytes and lets `fill` write all of it.
fn build_page(len: usize, fill: impl FnOnce(&mut Out<'_>)) -> Result<Bytes> {
    if u32::try_from(len).is_err() {
        return Err(Error::InvalidArgument(format!(
            "a node page of {len} bytes exceeds the u32 cell offsets"
        )));
    }
    Ok(Bytes::build(len, |buf| {
        let mut out = Out { buf, pos: 0 };
        fill(&mut out);
        assert_eq!(out.pos, len, "page length computed wrong");
    }))
}

// ---------------------------------------------------------------------------
// PageHead: what both node kinds share
// ---------------------------------------------------------------------------

/// The part of a parsed page leaves and inner nodes have in common: the
/// page bytes, the fence interval and the replica list.  Both views (and
/// [`NodeView`]) dereference to it.
#[derive(Debug, Clone)]
pub struct PageHead {
    page: Bytes,
    lower: FenceRef,
    upper: FenceRef,
    /// Page offset and count of the replica-oid array (0, 0 when absent).
    rep_start: u32,
    rep_n: u8,
}

impl PageHead {
    /// Reads the fences and the replica header that follow the directory
    /// ending at `dir_end`; also returns the offset of the first cell.
    fn read(page: Bytes, flags: u8, dir_end: usize) -> Result<(PageHead, usize)> {
        let mut r = Reader::new(&page[dir_end..]);
        let lower = FenceRef::read((flags >> 1) & 0b11, &mut r, dir_end)?;
        let upper = FenceRef::read((flags >> 3) & 0b11, &mut r, dir_end)?;
        let (mut rep_start, mut rep_n) = (0, 0);
        if flags & FLAG_HAS_REPLICAS != 0 {
            rep_n = r.u8()?;
            if rep_n == 0 {
                return Err(Error::Corruption("replica flag set but count is 0".into()));
            }
            rep_start = (dir_end + r.pos()) as u32;
            r.take(8 * rep_n as usize)?;
        }
        let cells_start = dir_end + r.pos();
        let head = PageHead {
            page,
            lower,
            upper,
            rep_start,
            rep_n,
        };
        Ok((head, cells_start))
    }

    /// The encoded page this view reads.
    pub fn page(&self) -> &Bytes {
        &self.page
    }

    /// True if the page carries a replica set (cheap flag check).
    pub fn has_replicas(&self) -> bool {
        self.rep_n != 0
    }

    /// The replica oids listed in the page (empty for most nodes).
    pub fn replicas(&self) -> Vec<Oid> {
        let oids = &self.page[self.rep_start as usize..][..8 * self.rep_n as usize];
        oids.chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("chunk of 8")))
            .collect()
    }

    /// Inclusive lower fence.
    pub fn lower(&self) -> Bound<'_> {
        self.lower.get(&self.page)
    }

    /// Exclusive upper fence.
    pub fn upper(&self) -> Bound<'_> {
        self.upper.get(&self.page)
    }

    /// True if `key` is within the node's fence interval.
    pub fn fence_contains(&self, key: &[u8]) -> bool {
        self.lower().le_key(key) && self.upper().gt_key(key)
    }

    /// The fences as they are, over `replicas`.
    fn mid<'a>(&'a self, replicas: &'a [Oid]) -> Mid<'a> {
        Mid {
            lower: self.lower(),
            upper: self.upper(),
            replicas,
        }
    }
}

// ---------------------------------------------------------------------------
// LeafView
// ---------------------------------------------------------------------------

/// A leaf node: a lazy view of its encoded page.
///
/// Construction validates the header and the offset directory (O(ncells)
/// over the raw `u32` table); every accessor afterwards decodes **only the
/// cells it touches**, bounded to their directory slots, and returns keys
/// and values as `Bytes` slices of the page.  Cloning a view is one
/// reference-count bump plus a few words.  The edits (`put`, `remove`,
/// `split`, `with_replicas`) return the node's next page and leave the view
/// as it was.
#[derive(Debug, Clone)]
pub struct LeafView {
    head: PageHead,
    n: usize,
    next: Option<Oid>,
}

impl Deref for LeafView {
    type Target = PageHead;
    fn deref(&self) -> &PageHead {
        &self.head
    }
}

/// Where a page's cells come from.
enum Cells<'a> {
    /// Cells `range` of an existing leaf, copied as one run of bytes.
    Run(&'a LeafView, Range<usize>),
    /// Cells framed from scratch, in key order.
    Pairs(&'a [(&'a [u8], &'a [u8])]),
}

impl LeafView {
    /// Parses `page` as a leaf, validating the header and directory.
    pub fn parse(page: Bytes) -> Result<LeafView> {
        let buf: &[u8] = &page;
        if buf.len() < LEAF_DIR_START {
            return Err(Error::Corruption(format!(
                "leaf page too short: {} bytes",
                buf.len()
            )));
        }
        if buf[0] != LEAF_TAG {
            return Err(Error::Corruption(format!("bad leaf tag 0x{:02x}", buf[0])));
        }
        let flags = buf[1];
        if flags >> 6 != 0 {
            return Err(Error::Corruption(format!("bad leaf flags 0x{flags:02x}")));
        }
        let next = if flags & FLAG_HAS_NEXT != 0 {
            Some(u64::from_be_bytes(buf[2..10].try_into().expect("len ok")))
        } else {
            None
        };
        let n = u32::from_be_bytes(buf[10..14].try_into().expect("len ok")) as usize;
        let dir_end = LEAF_DIR_START
            .checked_add(4usize.saturating_mul(n))
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| {
                Error::Corruption(format!("leaf directory of {n} cells overflows page"))
            })?;
        let (head, cells_start) = PageHead::read(page, flags, dir_end)?;
        check_directory(&head.page, LEAF_DIR_START, n, cells_start)?;
        Ok(LeafView { head, n, next })
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the leaf has no cells.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Right sibling, if any.
    pub fn next(&self) -> Option<Oid> {
        self.next
    }

    /// True if this leaf's upper fence is strictly below `key`, i.e. a right
    /// sibling could still hold keys `< key`.  Bounded cursors use this to
    /// stop at the end of their range without fetching the next leaf.
    pub fn upper_fence_below(&self, key: &[u8]) -> bool {
        match self.upper() {
            Bound::NegInf => true,
            Bound::Key(k) => k < key,
            Bound::PosInf => false,
        }
    }

    /// Page offset where cell `i` starts; the end of the page for `i == n`.
    fn offset(&self, i: usize) -> usize {
        if i < self.n {
            dir_entry(&self.page, LEAF_DIR_START, i)
        } else {
            self.page.len()
        }
    }

    /// The byte range of cell `i` within the page: its directory slot, ending
    /// where the next cell starts (or at the end of the page for the last).
    fn slot(&self, i: usize) -> (usize, usize) {
        (self.offset(i), self.offset(i + 1))
    }

    /// Key and value ranges of cell `i`, bounds-checked against its slot.
    fn cell_ranges(&self, i: usize) -> Result<(Range<usize>, Range<usize>)> {
        debug_assert!(i < self.n);
        let (start, end) = self.slot(i);
        let mut r = Reader::new(&self.page[start..end]);
        let k = r.bytes()?;
        let key_end = start + r.pos();
        let key_range = key_end - k.len()..key_end;
        let v = r.bytes()?;
        let val_end = start + r.pos();
        Ok((key_range, val_end - v.len()..val_end))
    }

    /// The key of cell `i`, borrowed from the page (no refcount traffic —
    /// this is what the binary searches compare against).
    fn key_at(&self, i: usize) -> Result<&[u8]> {
        let (start, end) = self.slot(i);
        let mut r = Reader::new(&self.page[start..end]);
        let k = r.bytes()?;
        Ok(k)
    }

    /// Cell `i` as borrowed slices of the page.
    pub fn cell(&self, i: usize) -> Result<(&[u8], &[u8])> {
        let (kr, vr) = self.cell_ranges(i)?;
        Ok((&self.page[kr], &self.page[vr]))
    }

    /// Cell `i` as zero-copy `Bytes` slices of the page (what cursors
    /// yield: holding one keeps the page alive, copies nothing).
    pub fn cell_bytes(&self, i: usize) -> Result<(Bytes, Bytes)> {
        let (kr, vr) = self.cell_ranges(i)?;
        Ok((self.page.slice(kr), self.page.slice(vr)))
    }

    /// Index of the first cell with key ≥ `key` — an O(log n) binary search
    /// over the directory that decodes only the keys it compares.
    pub fn lower_bound(&self, key: &[u8]) -> Result<usize> {
        let (mut lo, mut hi) = (0usize, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid)? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// `lower_bound(key)`, and whether the cell there holds exactly `key`:
    /// the one probe reads and edits share.
    fn probe(&self, key: &[u8]) -> Result<(usize, bool)> {
        let i = self.lower_bound(key)?;
        Ok((i, i < self.n && self.key_at(i)? == key))
    }

    /// Looks up `key`, returning its value as a zero-copy slice of the page.
    pub fn find(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let (i, hit) = self.probe(key)?;
        if !hit {
            return Ok(None);
        }
        let (_, vr) = self.cell_ranges(i)?;
        Ok(Some(self.page.slice(vr)))
    }

    /// The page with `key` → `value` inserted or replaced, and whether an
    /// existing cell was replaced.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(Bytes, bool)> {
        let (i, hit) = self.probe(key)?;
        Ok((self.splice(i, hit, Some((key, value)))?, hit))
    }

    /// The page with `key` → `value` inserted, or `None` if `key` is already
    /// present (nothing is built).
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Bytes>> {
        match self.probe(key)? {
            (_, true) => Ok(None),
            (i, false) => self.splice(i, false, Some((key, value))).map(Some),
        }
    }

    /// The page without `key`, or `None` if `key` is absent.
    pub fn remove(&self, key: &[u8]) -> Result<Option<Bytes>> {
        match self.probe(key)? {
            (i, true) => self.splice(i, true, None).map(Some),
            (_, false) => Ok(None),
        }
    }

    /// The one-cell edit: drops cell `i` if `drop_old`, then puts `new` at
    /// index `i`.  One pass over the page: the header, the directory with
    /// every entry rebased, then three runs of bytes — everything up to the
    /// cut, the new cell, everything after it.
    fn splice(&self, i: usize, drop_old: bool, new: Option<(&[u8], &[u8])>) -> Result<Bytes> {
        let page: &[u8] = &self.page;
        let (cut_start, cut_end) = (self.offset(i), self.offset(i + usize::from(drop_old)));
        let new_len = new.map_or(0, |(k, v)| framed_len(k.len()) + framed_len(v.len()));
        let n = self.n - usize::from(drop_old) + usize::from(new.is_some());
        let dir_delta = 4 * n as isize - 4 * self.n as isize;
        let tail_delta = dir_delta + new_len as isize - (cut_end - cut_start) as isize;
        build_page(page.len().wrapping_add_signed(tail_delta), |o| {
            o.raw(&page[..10]);
            o.u32(n);
            o.dir(page, LEAF_DIR_START, 0..i, dir_delta);
            if new.is_some() {
                o.u32(cut_start.wrapping_add_signed(dir_delta));
            }
            let after = i + usize::from(drop_old);
            o.dir(page, LEAF_DIR_START, after..self.n, tail_delta);
            o.raw(&page[LEAF_DIR_START + 4 * self.n..cut_start]);
            if let Some((k, v)) = new {
                o.framed(k);
                o.framed(v);
            }
            o.raw(&page[cut_end..]);
        })
    }

    /// Cuts the leaf at its median cell: returns the left page (cells below
    /// the median, sibling pointer to `right_oid`), the right page (the
    /// rest, under the old sibling pointer) and the median key that now
    /// fences them.  Both halves start without replicas — they cover
    /// different key ranges than the copies did.
    pub fn split(&self, right_oid: Oid) -> Result<(Bytes, Bytes, Bytes)> {
        if self.n < 2 {
            return Err(Error::InvalidArgument(format!(
                "cannot split a leaf of {} cells",
                self.n
            )));
        }
        let at = self.n / 2;
        let sep = self.key_at(at)?;
        let (mut left, mut right) = (self.mid(&[]), self.mid(&[]));
        left.upper = Bound::Key(sep);
        right.lower = Bound::Key(sep);
        Ok((
            leaf_page(Some(right_oid), left, Cells::Run(self, 0..at))?,
            leaf_page(self.next, right, Cells::Run(self, at..self.n))?,
            self.page.slice_ref(sep),
        ))
    }

    /// The page with its replica list replaced by `replicas` (empty drops
    /// the list); cells and fences are copied as they are.
    pub fn with_replicas(&self, replicas: &[Oid]) -> Result<Bytes> {
        leaf_page(self.next, self.mid(replicas), Cells::Run(self, 0..self.n))
    }

    /// Builds a leaf page from scratch; `cells` must be in key order.
    pub fn build(
        lower: Bound<'_>,
        upper: Bound<'_>,
        next: Option<Oid>,
        replicas: &[Oid],
        cells: &[(&[u8], &[u8])],
    ) -> Result<Bytes> {
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        let mid = Mid {
            lower,
            upper,
            replicas,
        };
        leaf_page(next, mid, Cells::Pairs(cells))
    }

    /// The page of an empty leaf responsible for the whole key space: a new
    /// tree's root.
    pub fn empty_root() -> Bytes {
        LeafView::build(Bound::NegInf, Bound::PosInf, None, &[], &[])
            .expect("an empty page is below every limit")
    }
}

/// Writes a leaf page: the shared tail of `split`, `with_replicas` and
/// `build`.
fn leaf_page(next: Option<Oid>, mid: Mid<'_>, cells: Cells<'_>) -> Result<Bytes> {
    let (n, cells_len) = match &cells {
        Cells::Run(v, r) => (r.len(), v.offset(r.end) - v.offset(r.start)),
        Cells::Pairs(p) => (
            p.len(),
            p.iter()
                .map(|(k, v)| framed_len(k.len()) + framed_len(v.len()))
                .sum(),
        ),
    };
    let head = LEAF_DIR_START + 4 * n + mid.len()?;
    build_page(head + cells_len, |o| {
        o.u8(LEAF_TAG);
        let has_next = if next.is_some() { FLAG_HAS_NEXT } else { 0 };
        o.u8(mid.flags() | has_next);
        o.u64(next.unwrap_or(0));
        o.u32(n);
        match &cells {
            Cells::Run(v, r) => {
                let delta = head as isize - v.offset(r.start) as isize;
                o.dir(&v.page, LEAF_DIR_START, r.clone(), delta);
            }
            Cells::Pairs(p) => {
                let mut at = head;
                for (k, v) in *p {
                    o.u32(at);
                    at += framed_len(k.len()) + framed_len(v.len());
                }
            }
        }
        o.mid(mid);
        match &cells {
            Cells::Run(v, r) => o.raw(&v.page[v.offset(r.start)..v.offset(r.end)]),
            Cells::Pairs(p) => {
                for (k, v) in *p {
                    o.framed(k);
                    o.framed(v);
                }
            }
        }
    })
}

// ---------------------------------------------------------------------------
// InnerView
// ---------------------------------------------------------------------------

/// An inner node: a lazy view of its encoded page.  Child `i` is
/// responsible for keys in `[sep[i-1], sep[i])`, with the node's own fences
/// standing in at the ends (one separator fewer than children).
///
/// Child oids live in a fixed-width array (O(1) access); separator keys sit
/// behind their own offset directory, so `child_for` is an O(log n) binary
/// search decoding only the separators it compares.  This is the type the
/// client cache stores: cloning it is one reference-count bump.
#[derive(Debug, Clone)]
pub struct InnerView {
    head: PageHead,
    /// Number of children (= separators + 1).
    n: usize,
    height: u8,
    dir_start: usize,
}

impl Deref for InnerView {
    type Target = PageHead;
    fn deref(&self) -> &PageHead {
        &self.head
    }
}

/// Where an inner page's children and separators come from.
enum Routes<'a> {
    /// Children `range` of an existing node and the separators between
    /// them, copied as runs of bytes.
    Run(&'a InnerView, Range<usize>),
    /// Children and the separators between them, framed from scratch.
    Parts(&'a [Oid], &'a [&'a [u8]]),
}

impl InnerView {
    /// Parses `page` as an inner node, validating the header and directory.
    pub fn parse(page: Bytes) -> Result<InnerView> {
        let buf: &[u8] = &page;
        if buf.len() < INNER_CHILDREN_START {
            return Err(Error::Corruption(format!(
                "inner page too short: {} bytes",
                buf.len()
            )));
        }
        if buf[0] != INNER_TAG {
            return Err(Error::Corruption(format!("bad inner tag 0x{:02x}", buf[0])));
        }
        let flags = buf[1];
        if flags >> 6 != 0 || flags & FLAG_HAS_NEXT != 0 {
            return Err(Error::Corruption(format!("bad inner flags 0x{flags:02x}")));
        }
        let height = buf[2];
        let n = u32::from_be_bytes(buf[3..7].try_into().expect("len ok")) as usize;
        if n == 0 {
            return Err(Error::Corruption("inner node with no children".into()));
        }
        let dir_start = INNER_CHILDREN_START
            .checked_add(8usize.saturating_mul(n))
            .ok_or_else(|| Error::Corruption("child array overflows".into()))?;
        let dir_end = dir_start
            .checked_add(4usize.saturating_mul(n - 1))
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| {
                Error::Corruption(format!("inner node of {n} children overflows page"))
            })?;
        let (head, keys_start) = PageHead::read(page, flags, dir_end)?;
        check_directory(&head.page, dir_start, n - 1, keys_start)?;
        Ok(InnerView {
            head,
            n,
            height,
            dir_start,
        })
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the node has no children (never the case for a valid node).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Height above the leaves (1 = children are leaves).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The `i`-th child oid — O(1) from the fixed-width array.
    pub fn child(&self, i: usize) -> Oid {
        debug_assert!(i < self.n);
        let at = INNER_CHILDREN_START + 8 * i;
        u64::from_be_bytes(self.page[at..at + 8].try_into().expect("validated"))
    }

    /// The child oids, left to right.
    pub fn children(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.n).map(|i| self.child(i))
    }

    /// The leftmost child (used when descending for the smallest key).
    pub fn first_child(&self) -> Oid {
        self.child(0)
    }

    /// Page offset where separator `j` starts; the end of the page for
    /// `j == n - 1`.
    fn key_offset(&self, j: usize) -> usize {
        if j + 1 < self.n {
            dir_entry(&self.page, self.dir_start, j)
        } else {
            self.page.len()
        }
    }

    /// Separator key `j`, borrowed from the page.
    fn key_at(&self, j: usize) -> Result<&[u8]> {
        let mut r = Reader::new(&self.page[self.key_offset(j)..self.key_offset(j + 1)]);
        r.bytes()
    }

    /// Index of the child responsible for `key` — O(log n) binary search
    /// over the separator directory.
    pub fn child_index(&self, key: &[u8]) -> Result<usize> {
        let (mut lo, mut hi) = (0usize, self.n - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid)? <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Object id of the child responsible for `key`.
    pub fn child_for(&self, key: &[u8]) -> Result<Oid> {
        Ok(self.child(self.child_index(key)?))
    }

    /// The page with separator `sep` and child `oid` inserted immediately
    /// after child `i` (the child that was split at `sep`) — the same
    /// one-pass copy as a leaf's one-cell edit, with the child array grown
    /// by one entry as well.
    pub fn insert_child_after(&self, i: usize, sep: &[u8], oid: Oid) -> Result<Bytes> {
        if i >= self.n {
            return Err(Error::InvalidArgument(format!(
                "no child {i} in an inner node of {}",
                self.n
            )));
        }
        let page: &[u8] = &self.page;
        // One child oid and one directory entry wider before the separators.
        let grow = 12;
        let sep_len = framed_len(sep.len());
        let at = self.key_offset(i);
        let after_child = INNER_CHILDREN_START + 8 * (i + 1);
        build_page(page.len() + grow + sep_len, |o| {
            o.raw(&page[..3]);
            o.u32(self.n + 1);
            o.raw(&page[INNER_CHILDREN_START..after_child]);
            o.u64(oid);
            o.raw(&page[after_child..self.dir_start]);
            o.dir(page, self.dir_start, 0..i, grow as isize);
            o.u32(at + grow);
            o.dir(
                page,
                self.dir_start,
                i..self.n - 1,
                (grow + sep_len) as isize,
            );
            o.raw(&page[self.dir_start + 4 * (self.n - 1)..at]);
            o.framed(sep);
            o.raw(&page[at..]);
        })
    }

    /// Cuts the node at its median child: returns the left page, the right
    /// page and the separator between them, which moves up to the parent
    /// (it is in neither half).  Both halves start without replicas.
    pub fn split(&self) -> Result<(Bytes, Bytes, Bytes)> {
        if self.n < 3 {
            return Err(Error::InvalidArgument(format!(
                "cannot split an inner node of {} children",
                self.n
            )));
        }
        let at = self.n / 2;
        let sep = self.key_at(at - 1)?;
        let (mut left, mut right) = (self.mid(&[]), self.mid(&[]));
        left.upper = Bound::Key(sep);
        right.lower = Bound::Key(sep);
        Ok((
            inner_page(self.height, left, Routes::Run(self, 0..at))?,
            inner_page(self.height, right, Routes::Run(self, at..self.n))?,
            self.page.slice_ref(sep),
        ))
    }

    /// The page with its replica list replaced by `replicas` (empty drops
    /// the list); children, separators and fences are copied as they are.
    pub fn with_replicas(&self, replicas: &[Oid]) -> Result<Bytes> {
        let routes = Routes::Run(self, 0..self.n);
        inner_page(self.height, self.mid(replicas), routes)
    }

    /// Builds an inner page from scratch: `seps[j]` separates `children[j]`
    /// from `children[j + 1]`.
    pub fn build(
        lower: Bound<'_>,
        upper: Bound<'_>,
        height: u8,
        replicas: &[Oid],
        children: &[Oid],
        seps: &[&[u8]],
    ) -> Result<Bytes> {
        if children.len() != seps.len() + 1 {
            return Err(Error::InvalidArgument(format!(
                "{} children need one separator fewer, got {}",
                children.len(),
                seps.len()
            )));
        }
        let mid = Mid {
            lower,
            upper,
            replicas,
        };
        inner_page(height, mid, Routes::Parts(children, seps))
    }
}

/// Writes an inner page: the shared tail of `split`, `with_replicas` and
/// `build`.
fn inner_page(height: u8, mid: Mid<'_>, routes: Routes<'_>) -> Result<Bytes> {
    let (n, seps_len) = match &routes {
        Routes::Run(v, r) => (r.len(), v.key_offset(r.end - 1) - v.key_offset(r.start)),
        Routes::Parts(c, s) => (c.len(), s.iter().map(|k| framed_len(k.len())).sum()),
    };
    let head = INNER_CHILDREN_START + 8 * n + 4 * (n - 1) + mid.len()?;
    build_page(head + seps_len, |o| {
        o.u8(INNER_TAG);
        o.u8(mid.flags());
        o.u8(height);
        o.u32(n);
        match &routes {
            Routes::Run(v, r) => {
                let children = INNER_CHILDREN_START + 8 * r.start..INNER_CHILDREN_START + 8 * r.end;
                o.raw(&v.page[children]);
                let delta = head as isize - v.key_offset(r.start) as isize;
                o.dir(&v.page, v.dir_start, r.start..r.end - 1, delta);
            }
            Routes::Parts(c, s) => {
                for child in *c {
                    o.u64(*child);
                }
                let mut at = head;
                for k in *s {
                    o.u32(at);
                    at += framed_len(k.len());
                }
            }
        }
        o.mid(mid);
        match &routes {
            Routes::Run(v, r) => o.raw(&v.page[v.key_offset(r.start)..v.key_offset(r.end - 1)]),
            Routes::Parts(_, s) => {
                for k in *s {
                    o.framed(k);
                }
            }
        }
    })
}

/// One cell a transaction edits in a leaf it has not read: the whole of
/// what a [`LeafView::put`], [`LeafView::put_if_absent`] or
/// [`LeafView::remove`] needs besides the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellEdit {
    /// The key.
    pub key: Bytes,
    /// The value to put, or `None` to remove the key.
    pub value: Option<Bytes>,
    /// Only if the key is absent from the page: a present key fails the
    /// edit ([`Error::KeyPresent`]).  With `value` `None` the edit only
    /// checks: what a put-if-absent of a key and a later remove of it in
    /// one transaction leave.
    pub if_absent: bool,
}

impl CellEdit {
    /// Puts `key` → `value`, replacing any value it has.
    pub fn put(key: Bytes, value: Bytes) -> CellEdit {
        CellEdit {
            key,
            value: Some(value),
            if_absent: false,
        }
    }

    /// Puts `key` → `value` if `key` is absent.
    pub fn put_if_absent(key: Bytes, value: Bytes) -> CellEdit {
        CellEdit {
            key,
            value: Some(value),
            if_absent: true,
        }
    }

    /// Removes `key`, if present.
    pub fn remove(key: Bytes) -> CellEdit {
        CellEdit {
            key,
            value: None,
            if_absent: false,
        }
    }
}

/// Applies `edits`, in order, to `page`, the version of the leaf `obj` that
/// a transaction's snapshot reads, with the edits the fetch path makes: the
/// result, returned with its cell count, is byte-identical to the page a
/// client that had fetched `page` would write.  Refused
/// ([`Error::EditRefused`], with the reason) when there is no page or it is
/// not a leaf, when an edited key lies outside the leaf's fences, or when
/// the page lists replicas; a page that does not parse is refused too.  A
/// put-if-absent of a key the page holds fails with [`Error::KeyPresent`];
/// refusals are judged first.
pub fn edit_leaf(obj: ObjectId, page: Option<Bytes>, edits: &[CellEdit]) -> Result<(Bytes, usize)> {
    let refused = |reason: String| Error::EditRefused { obj, reason };
    let mut leaf = match page.map(NodeView::parse) {
        Some(Ok(NodeView::Leaf(leaf))) => leaf,
        Some(Ok(NodeView::Inner(_))) | None => return Err(refused("not a leaf".into())),
        Some(Err(e)) => return Err(refused(e.to_string())),
    };
    if leaf.has_replicas() {
        return Err(refused("the leaf lists replicas".into()));
    }
    if edits.iter().any(|e| !leaf.fence_contains(&e.key)) {
        return Err(refused("a key lies outside the leaf's fences".into()));
    }
    let mut edited = (leaf.page().clone(), leaf.len());
    for (i, edit) in edits.iter().enumerate() {
        if i > 0 {
            // Each edit starts from the page the last one made.
            leaf = LeafView::parse(edited.0).map_err(|e| refused(e.to_string()))?;
        }
        edited = match apply_cell_edit(&leaf, edit).map_err(|e| refused(e.to_string()))? {
            Some(next) => next,
            None => {
                let key = edit.key.clone();
                return Err(Error::KeyPresent { obj, key });
            }
        };
    }
    Ok(edited)
}

/// `edit` applied to `leaf`: the page and its cell count, or `None` for a
/// put-if-absent whose key the leaf holds.
fn apply_cell_edit(leaf: &LeafView, edit: &CellEdit) -> Result<Option<(Bytes, usize)>> {
    let (key, n) = (&edit.key[..], leaf.len());
    Ok(match &edit.value {
        Some(v) if edit.if_absent => leaf.put_if_absent(key, v)?.map(|page| (page, n + 1)),
        Some(v) => {
            let (page, hit) = leaf.put(key, v)?;
            Some((page, n + usize::from(!hit)))
        }
        None if edit.if_absent && leaf.find(key)?.is_some() => None,
        None => Some(match leaf.remove(key)? {
            Some(page) => (page, n - 1),
            None => (leaf.page().clone(), n),
        }),
    })
}

/// A parsed node of either kind: what the fetch path hands back.
#[derive(Debug, Clone)]
pub enum NodeView {
    /// Leaf page view.
    Leaf(LeafView),
    /// Inner page view.
    Inner(InnerView),
}

impl Deref for NodeView {
    type Target = PageHead;
    fn deref(&self) -> &PageHead {
        match self {
            NodeView::Leaf(l) => l,
            NodeView::Inner(i) => i,
        }
    }
}

impl NodeView {
    /// Parses a fetched page into the appropriate view, dispatching on the
    /// tag byte.
    pub fn parse(page: Bytes) -> Result<NodeView> {
        match page.first() {
            Some(&LEAF_TAG) => Ok(NodeView::Leaf(LeafView::parse(page)?)),
            Some(&INNER_TAG) => Ok(NodeView::Inner(InnerView::parse(page)?)),
            Some(&t) => Err(Error::Corruption(format!("bad node tag 0x{t:02x}"))),
            None => Err(Error::Corruption("empty node page".into())),
        }
    }

    /// Height above the leaves (0 for a leaf).
    pub fn height(&self) -> u8 {
        match self {
            NodeView::Leaf(_) => 0,
            NodeView::Inner(i) => i.height(),
        }
    }

    /// The page with its replica list replaced by `replicas`.
    pub fn with_replicas(&self, replicas: &[Oid]) -> Result<Bytes> {
        match self {
            NodeView::Leaf(l) => l.with_replicas(replicas),
            NodeView::Inner(i) => i.with_replicas(replicas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cell = (Vec<u8>, Vec<u8>);

    fn cell(k: &str, v: &str) -> Cell {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    /// The from-scratch page for a leaf with these contents.
    fn built(
        lower: Bound<'_>,
        upper: Bound<'_>,
        next: Option<Oid>,
        replicas: &[Oid],
        cells: &[Cell],
    ) -> Bytes {
        let refs: Vec<(&[u8], &[u8])> = cells.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        LeafView::build(lower, upper, next, replicas, &refs).unwrap()
    }

    fn leaf(page: &Bytes) -> LeafView {
        LeafView::parse(page.clone()).unwrap()
    }

    fn inner(page: &Bytes) -> InnerView {
        InnerView::parse(page.clone()).unwrap()
    }

    fn built_inner(
        lower: Bound<'_>,
        upper: Bound<'_>,
        height: u8,
        replicas: &[Oid],
        children: &[Oid],
        seps: &[Vec<u8>],
    ) -> Bytes {
        let refs: Vec<&[u8]> = seps.iter().map(|k| &k[..]).collect();
        InnerView::build(lower, upper, height, replicas, children, &refs).unwrap()
    }

    /// Every shape of the section between the directory and the cells:
    /// fences of each kind, with and without a sibling and a replica list.
    fn leaf_shapes() -> Vec<(Bound<'static>, Bound<'static>, Option<Oid>, Vec<Oid>)> {
        vec![
            (Bound::NegInf, Bound::PosInf, None, vec![]),
            (Bound::NegInf, Bound::Key(b"zz"), Some(7), vec![]),
            (Bound::Key(b"a"), Bound::PosInf, None, vec![900]),
            (
                Bound::Key(b"a"),
                Bound::Key(b"zz"),
                Some(42),
                vec![900, 901, 902],
            ),
            (Bound::Key(b""), Bound::Key(b"zz"), Some(1), vec![]),
        ]
    }

    #[test]
    fn bound_comparisons() {
        assert!(Bound::NegInf.le_key(b""));
        assert!(!Bound::PosInf.le_key(b"zzz"));
        assert!(Bound::PosInf.gt_key(b"zzz"));
        assert!(!Bound::NegInf.gt_key(b""));
        assert!(Bound::Key(b"m").le_key(b"m"));
        assert!(Bound::Key(b"m").le_key(b"z"));
        assert!(!Bound::Key(b"m").le_key(b"a"));
        assert!(Bound::Key(b"m").gt_key(b"a"));
        assert!(!Bound::Key(b"m").gt_key(b"m"));
    }

    #[test]
    fn varint_len_matches_the_framing() {
        for len in [0usize, 1, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152] {
            let mut framed = Vec::new();
            crate::encoding::put_uvarint(&mut framed, len as u64);
            assert_eq!(varint_len(len), framed.len(), "len {len}");
        }
    }

    #[test]
    fn built_pages_report_what_was_built() {
        for (lower, upper, next, replicas) in leaf_shapes() {
            let cells = vec![cell("b", "vb"), cell("c", ""), cell("d", "vd")];
            let view = leaf(&built(lower, upper, next, &replicas, &cells));
            assert_eq!(view.len(), 3);
            assert_eq!(view.lower(), lower);
            assert_eq!(view.upper(), upper);
            assert_eq!(view.next(), next);
            assert_eq!(view.has_replicas(), !replicas.is_empty());
            assert_eq!(view.replicas(), replicas);
            for (i, (k, v)) in cells.iter().enumerate() {
                assert_eq!(view.cell(i).unwrap(), (&k[..], &v[..]));
                assert_eq!(view.find(k).unwrap().as_deref(), Some(&v[..]));
            }
        }
        let page = built_inner(
            Bound::NegInf,
            Bound::Key(b"zz"),
            3,
            &[],
            &[7, 9],
            &[b"g".to_vec()],
        );
        let view = inner(&page);
        assert_eq!((view.len(), view.height()), (2, 3));
        assert_eq!(view.children().collect::<Vec<_>>(), vec![7, 9]);
        assert_eq!(
            (view.lower(), view.upper()),
            (Bound::NegInf, Bound::Key(b"zz"))
        );
        // A child count that does not match the separators is refused.
        assert!(InnerView::build(Bound::NegInf, Bound::PosInf, 1, &[], &[1, 2], &[]).is_err());
        assert!(InnerView::build(Bound::NegInf, Bound::PosInf, 1, &[], &[], &[]).is_err());

        // An empty root is an empty leaf over the whole key space.
        let root = leaf(&LeafView::empty_root());
        assert!(root.is_empty() && root.next().is_none() && !root.has_replicas());
        assert!(root.fence_contains(b"") && root.fence_contains(b"\xff\xff"));
        assert_eq!(root.find(b"a").unwrap(), None);
    }

    #[test]
    fn leaf_view_probes_like_a_sorted_list() {
        let cells: Vec<Cell> = (0..64)
            .map(|i| cell(&format!("c{:03}", i * 3), "val"))
            .collect();
        let page = built(
            Bound::Key(b"c000"),
            Bound::Key(b"c999"),
            Some(77),
            &[],
            &cells,
        );
        let view = leaf(&page);
        assert_eq!(view.len(), 64);
        assert_eq!(view.next(), Some(77));
        assert!(view.fence_contains(b"c000"));
        assert!(view.fence_contains(b"c500"));
        assert!(!view.fence_contains(b"c999"));
        assert!(!view.fence_contains(b"b"));
        assert!(view.upper_fence_below(b"d") && !view.upper_fence_below(b"c999"));
        // Every present key is found; absent keys are not.
        for (key, _) in &cells {
            assert_eq!(view.find(key).unwrap().as_deref(), Some(&b"val"[..]));
        }
        assert_eq!(view.find(b"c001").unwrap(), None);
        assert_eq!(view.find(b"zzz").unwrap(), None);
        for probe in ["c000", "c004", "c095", "c999", ""] {
            assert_eq!(
                view.lower_bound(probe.as_bytes()).unwrap(),
                cells.partition_point(|(k, _)| &k[..] < probe.as_bytes()),
                "probe {probe}"
            );
        }
        // cell() and cell_bytes() agree.
        let (ck, cv) = view.cell(5).unwrap();
        let (bk, bv) = view.cell_bytes(5).unwrap();
        assert_eq!(ck, &bk[..]);
        assert_eq!(cv, &bv[..]);
    }

    #[test]
    fn leaf_view_zero_copy() {
        let cells = [cell("b", "value-b"), cell("c", "value-c")];
        let page = built(Bound::Key(b"b"), Bound::PosInf, None, &[], &cells);
        let view = leaf(&page);
        let base = page.as_ref().as_ptr() as usize;
        let inside = |b: &[u8]| {
            let p = b.as_ptr() as usize;
            p >= base && p + b.len() <= base + page.len()
        };
        // find() and cell_bytes() hand out slices of the page, and so do the
        // fences and a split's separator.
        assert!(inside(&view.find(b"b").unwrap().unwrap()), "value copied");
        let (ck, cv) = view.cell_bytes(1).unwrap();
        assert!(inside(&ck) && inside(&cv), "cell copied instead of sliced");
        let Bound::Key(fence) = view.lower() else {
            panic!("key fence expected")
        };
        assert!(inside(fence), "fence copied instead of borrowed");
        assert!(inside(&view.split(5).unwrap().2), "separator copied");
    }

    #[test]
    fn inner_view_routes_like_a_sorted_list() {
        let seps: Vec<Vec<u8>> = (1..64).map(|i| format!("k{i:03}").into_bytes()).collect();
        let children: Vec<Oid> = (0..64u64).map(|i| 100 + i).collect();
        let view = inner(&built_inner(
            Bound::Key(b"aa"),
            Bound::PosInf,
            2,
            &[],
            &children,
            &seps,
        ));
        assert_eq!(view.len(), 64);
        assert_eq!(view.height(), 2);
        assert_eq!(view.first_child(), 100);
        for probe in ["", "aa", "k001", "k0015", "k032", "k063", "zz"] {
            let i = seps.partition_point(|k| &k[..] <= probe.as_bytes());
            assert_eq!(
                view.child_index(probe.as_bytes()).unwrap(),
                i,
                "probe {probe}"
            );
            assert_eq!(view.child_for(probe.as_bytes()).unwrap(), children[i]);
            assert_eq!(view.fence_contains(probe.as_bytes()), probe >= "aa");
        }
    }

    #[test]
    fn node_view_dispatch() {
        let page = LeafView::empty_root();
        assert!(matches!(NodeView::parse(page).unwrap(), NodeView::Leaf(_)));
        let page = built_inner(
            Bound::NegInf,
            Bound::PosInf,
            4,
            &[],
            &[1, 2],
            &[b"m".to_vec()],
        );
        let view = NodeView::parse(page).unwrap();
        assert_eq!(view.height(), 4);
        assert!(NodeView::parse(Bytes::new()).is_err());
        assert!(NodeView::parse(Bytes::copy_from_slice(&[0x00, 0x01])).is_err());
    }

    #[test]
    fn parse_rejects_truncations() {
        // Truncations of a valid page must error or parse, never panic.
        let cells = [cell("a", "1"), cell("b", "2")];
        let good = built(Bound::NegInf, Bound::Key(b"zz"), Some(9), &[], &cells);
        for cut in 0..good.len() {
            let _ = NodeView::parse(good.slice(..cut));
        }
        assert!(NodeView::parse(good).is_ok());
    }

    #[test]
    fn parse_rejects_bad_directory() {
        let cells = [cell("a", "1"), cell("b", "2")];
        let good = built(Bound::NegInf, Bound::PosInf, None, &[], &cells).to_vec();
        // Directory entry 0 lives at LEAF_DIR_START; point it past the page.
        let mut bad = good.clone();
        bad[LEAF_DIR_START..LEAF_DIR_START + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(LeafView::parse(Bytes::from(bad)).is_err());
        // Non-monotonic directory (entry 1 before entry 0).
        let mut bad = good.clone();
        let e0 = bad[LEAF_DIR_START..LEAF_DIR_START + 4].to_vec();
        let e1 = bad[LEAF_DIR_START + 4..LEAF_DIR_START + 8].to_vec();
        bad[LEAF_DIR_START..LEAF_DIR_START + 4].copy_from_slice(&e1);
        bad[LEAF_DIR_START + 4..LEAF_DIR_START + 8].copy_from_slice(&e0);
        assert!(LeafView::parse(Bytes::from(bad)).is_err());
        // Overstated cell count overflows the directory region.
        let mut bad = good;
        bad[10..14].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(LeafView::parse(Bytes::from(bad)).is_err());
    }

    #[test]
    fn overlapping_cells_error_on_access_and_on_edit() {
        // Two cells; move cell 1's offset to one byte after cell 0's start:
        // the directory stays monotonic and in-range, but cell 0's slot is
        // now a single byte, so decoding it must report corruption — to a
        // read and to an edit that has to compare its key.
        let cells = [cell("aaaa", "1111"), cell("bbbb", "2222")];
        let mut bad = built(Bound::NegInf, Bound::PosInf, None, &[], &cells).to_vec();
        let off0 = u32::from_be_bytes(bad[LEAF_DIR_START..LEAF_DIR_START + 4].try_into().unwrap());
        bad[LEAF_DIR_START + 4..LEAF_DIR_START + 8].copy_from_slice(&(off0 + 1).to_be_bytes());
        let view = LeafView::parse(Bytes::from(bad)).unwrap();
        assert!(view.cell(0).is_err(), "overlapping cell decoded");
        assert!(matches!(view.put(b"a", b"x"), Err(Error::Corruption(_))));
        assert!(matches!(view.remove(b"a"), Err(Error::Corruption(_))));
    }

    #[test]
    fn replica_set_roundtrips_and_stays_pay_as_you_go() {
        // The view reports the set, and probes still work with the replica
        // header between the fences and the cells.
        let cells = [cell("b", "vb"), cell("c", "vc")];
        let reps = [900, 901, 902];
        let page = built(Bound::Key(b"b"), Bound::Key(b"x"), Some(42), &reps, &cells);
        let view = leaf(&page);
        assert!(view.has_replicas());
        assert_eq!(view.replicas(), reps);
        assert_eq!(view.find(b"c").unwrap().as_deref(), Some(&b"vc"[..]));

        let seps = [b"m".to_vec()];
        let page = built_inner(Bound::NegInf, Bound::PosInf, 1, &[700], &[1, 2], &seps);
        let view = inner(&page);
        assert!(view.has_replicas());
        assert_eq!(view.replicas(), vec![700]);
        assert_eq!(view.child_for(b"z").unwrap(), 2);

        // Unreplicated pages do not pay a byte for the feature, a page with
        // the flag set but a zero count is rejected as corrupt, and a set the
        // u8 count cannot hold is refused.
        let mut plain = LeafView::empty_root().to_vec();
        assert_eq!(plain[1] & FLAG_HAS_REPLICAS, 0);
        plain[1] |= FLAG_HAS_REPLICAS;
        assert!(LeafView::parse(Bytes::from(plain)).is_err());
        let too_many: Vec<Oid> = (0..256).collect();
        assert!(leaf(&LeafView::empty_root())
            .with_replicas(&too_many)
            .is_err());
    }

    /// Applies `put` / `remove` to the page and to the sorted-list model and
    /// requires the edited page to be the page the builder makes.
    fn check_edit(
        shape: &(Bound<'static>, Bound<'static>, Option<Oid>, Vec<Oid>),
        cells: &mut Vec<Cell>,
        page: &mut Bytes,
        key: &str,
        value: Option<&str>,
    ) {
        let view = leaf(page);
        let at = cells.binary_search_by(|(k, _)| k[..].cmp(key.as_bytes()));
        let edited = match value {
            Some(v) => {
                assert_eq!(
                    view.put_if_absent(key.as_bytes(), v.as_bytes())
                        .unwrap()
                        .is_some(),
                    at.is_err()
                );
                let (edited, replaced) = view.put(key.as_bytes(), v.as_bytes()).unwrap();
                assert_eq!(replaced, at.is_ok(), "put {key}");
                match at {
                    Ok(i) => cells[i].1 = v.as_bytes().to_vec(),
                    Err(i) => cells.insert(i, cell(key, v)),
                }
                edited
            }
            None => {
                let edited = view.remove(key.as_bytes()).unwrap();
                assert_eq!(edited.is_some(), at.is_ok(), "remove {key}");
                if let Ok(i) = at {
                    cells.remove(i);
                }
                edited.unwrap_or_else(|| page.clone())
            }
        };
        let (lower, upper, next, replicas) = shape;
        assert_eq!(
            edited,
            built(*lower, *upper, *next, replicas, cells),
            "{key} -> {value:?} on {cells:?}"
        );
        *page = edited;
    }

    #[test]
    fn one_cell_edits_at_every_edge_match_the_builder() {
        let long = "x".repeat(300);
        for shape in leaf_shapes() {
            let (lower, upper, next, replicas) = &shape;
            let mut cells: Vec<Cell> = Vec::new();
            let mut page = built(*lower, *upper, *next, replicas, &cells);
            let steps: [(&str, Option<&str>); 16] = [
                ("m", None),          // remove from an empty leaf: absent
                ("m", Some("only")),  // the only cell
                ("m", Some("")),      // replace, shorter
                ("m", Some("same")),  // replace, longer
                ("m", Some("size")),  // replace, equal length
                ("c", Some("first")), // before the first cell
                ("t", Some("last")),  // after the last cell
                ("p", Some(&long)),   // a two-byte length prefix, in the middle
                ("c", Some(&long)),   // replace the first, longer
                ("t", Some("l")),     // replace the last, shorter
                ("d", None),          // absent, between cells
                ("c", None),          // the first cell
                ("t", None),          // the last cell
                ("p", None),          // a middle cell
                ("m", None),          // the only cell
                ("m", None),          // absent again
            ];
            for (key, value) in steps {
                check_edit(&shape, &mut cells, &mut page, key, value);
            }
            assert!(leaf(&page).is_empty());
        }
    }

    #[test]
    fn leaf_one_over_its_bound_splits_at_the_median() {
        // 64 is the default `leaf_max_cells`; the insert that makes 65 is
        // the one that splits.
        for (lower, upper, next, replicas) in leaf_shapes() {
            let cells: Vec<Cell> = (0..65).map(|i| cell(&format!("k{i:02}"), "v")).collect();
            let view = leaf(&built(lower, upper, next, &replicas, &cells));
            let (left, right, sep) = view.split(555).unwrap();
            assert_eq!(&sep[..], b"k32");
            // Halves drop the replica list; the left one points at the right.
            assert_eq!(
                left,
                built(lower, Bound::Key(&sep), Some(555), &[], &cells[..32])
            );
            assert_eq!(
                right,
                built(Bound::Key(&sep), upper, next, &[], &cells[32..])
            );
            assert_eq!((leaf(&left).len(), leaf(&right).len()), (32, 33));
        }
        // Two cells is the least a leaf can split; one is refused.
        let two = [cell("a", "1"), cell("b", "2")];
        let (left, right, sep) = leaf(&built(Bound::NegInf, Bound::PosInf, None, &[], &two))
            .split(9)
            .unwrap();
        assert_eq!(
            (leaf(&left).len(), leaf(&right).len(), &sep[..]),
            (1, 1, &b"b"[..])
        );
        let one = built(Bound::NegInf, Bound::PosInf, None, &[], &two[..1]);
        assert!(leaf(&one).split(9).is_err());
    }

    #[test]
    fn inner_edits_match_the_builder() {
        for replicas in [vec![], vec![70, 71]] {
            let (lower, upper) = (Bound::Key(b"a"), Bound::Key(b"zz"));
            let mut seps = vec![b"m".to_vec()];
            let mut children: Vec<Oid> = vec![1, 2];
            let mut page = built_inner(lower, upper, 1, &replicas, &children, &seps);
            // Child 0 splits at "f", then the last child at "t", then a
            // middle one at "h"; the parent keeps its replica list.
            for (after, sep, oid) in [(0usize, "f", 3u64), (2, "t", 4), (1, "h", 5)] {
                page = inner(&page)
                    .insert_child_after(after, sep.as_bytes(), oid)
                    .unwrap();
                seps.insert(after, sep.as_bytes().to_vec());
                children.insert(after + 1, oid);
                assert_eq!(
                    page,
                    built_inner(lower, upper, 1, &replicas, &children, &seps)
                );
            }
            let view = inner(&page);
            assert_eq!(children, vec![1, 3, 5, 2, 4]);
            assert_eq!(view.child_for(b"a").unwrap(), 1);
            assert_eq!(view.child_for(b"g").unwrap(), 3);
            assert_eq!(view.child_for(b"x").unwrap(), 4);
            assert!(view.insert_child_after(5, b"q", 6).is_err());

            // Five children split 2 | 3; separator 1 moves up, in neither half.
            let (left, right, sep) = view.split().unwrap();
            assert_eq!(&sep[..], b"h");
            let expect = built_inner(lower, Bound::Key(b"h"), 1, &[], &children[..2], &seps[..1]);
            assert_eq!(left, expect);
            let expect = built_inner(Bound::Key(b"h"), upper, 1, &[], &children[2..], &seps[2..]);
            assert_eq!(right, expect);
        }
        // Three children is the least an inner node can split.
        let seps = [b"g".to_vec(), b"p".to_vec()];
        let three = built_inner(Bound::NegInf, Bound::PosInf, 2, &[], &[1, 2, 3], &seps);
        let (left, right, sep) = inner(&three).split().unwrap();
        assert_eq!(
            (inner(&left).len(), inner(&right).len(), &sep[..]),
            (1, 2, &b"g"[..])
        );
        assert!(inner(&left).split().is_err());
    }

    #[test]
    fn replica_lists_are_set_and_cleared_in_the_header_only() {
        for (lower, upper, next, replicas) in leaf_shapes() {
            let cells = [cell("b", "vb"), cell("c", "vc")];
            let view = leaf(&built(lower, upper, next, &replicas, &cells));
            for reps in [&[][..], &[5], &[5, 6, 7]] {
                let page = NodeView::Leaf(view.clone()).with_replicas(reps).unwrap();
                assert_eq!(page, built(lower, upper, next, reps, &cells));
            }
        }
        let seps = [b"m".to_vec()];
        let view = inner(&built_inner(
            Bound::NegInf,
            Bound::Key(b"z"),
            1,
            &[9],
            &[1, 2],
            &seps,
        ));
        for reps in [&[][..], &[5, 6]] {
            let page = NodeView::Inner(view.clone()).with_replicas(reps).unwrap();
            let expect = built_inner(Bound::NegInf, Bound::Key(b"z"), 1, reps, &[1, 2], &seps);
            assert_eq!(page, expect);
        }
    }
}
