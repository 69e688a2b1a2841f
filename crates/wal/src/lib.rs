//! Per-server write-ahead log for the Yesquel storage servers.
//!
//! The paper's storage servers "log updates to stable storage", so a server
//! crash loses no committed transaction.  This crate supplies that log for
//! the reproduction: a file of checksummed, length-prefixed records (reusing
//! `common::encoding` for the payloads), written in order at a cursor that
//! only moves forward, **before** the corresponding state change is
//! acknowledged, and replayed into a fresh
//! [`ServerStore`](../yesquel_kv/store/struct.ServerStore.html) after an
//! amnesia crash.
//!
//! ## Record framing
//!
//! A segment file starts with a 16-byte header (`YWALSEG1` magic plus the
//! big-endian segment sequence number) followed by frames:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! No record encodes to an empty payload, so a frame header with
//! `payload_len == 0` is the **end of the log**.  Past the last frame, the
//! active segment holds a zero tail: the log's flusher keeps a chunk of
//! zero-filled, already synced file ahead of the write cursor, so a frame
//! lands inside the file and the `fdatasync` that makes it durable flushes
//! data blocks only, never a new file size through the file system's
//! journal (which costs a sync about as much again).  The flusher refills
//! the chunk after answering the waits a sync covered, one bounded piece at
//! a time and never below the cursor.  An append that outruns the zeros
//! grows the file as it would without them: correctness never depends on
//! the tail.  [`Wal::len`] is the end of the frames, not the file's size.
//!
//! Recovery scans frames until the end of the log or the first torn or
//! corrupt one — a short header, a length running past end-of-file, a
//! checksum mismatch, or a payload that does not decode — and
//! **truncates** the file there, zero tail included.  A torn tail is the
//! expected shape of a crash mid-append (in a preallocated segment, a torn
//! frame followed by zeros) and is silently recovered to the clean prefix;
//! it is never an error and never a panic.
//!
//! ## Forced and unforced appends
//!
//! Appending and waiting are two steps.  [`Wal::append_unforced`] writes the
//! frame at the end of the log — so the order of calls is the order of
//! records — and returns its [`WalPosition`] without waiting for the disk.
//! [`Wal::durable`] returns the [`Completion`] that answers once a sync
//! covers a position — the same type an RPC's reply arrives on, so a caller
//! waits for it, or leaves a continuation on it, as for any call;
//! [`Wal::append`] is append plus wait, for a record that must be durable
//! before its effect is acknowledged.  A record that is only appended is
//! *unforced*: it becomes durable with the next sync of this log, whoever
//! asks for it, and [`Wal::power_loss`] drops it until then — a wait for it
//! then fails.
//!
//! ## The flusher and group commit
//!
//! Every sync of a log runs on that log's one **flusher thread**, started by
//! the first wait that needs it and stopped when the log is dropped.  While
//! anybody waits, the flusher issues one `fdatasync` covering every frame
//! written so far and answers every wait it covers; waits arriving during a
//! sync ride the next one.  So concurrent appenders share flushes, and the
//! logs of different servers flush in parallel with no caller thread
//! blocked on any of them.  Per [`WalFsyncPolicy`]:
//!
//! * `Always` — the flusher syncs as soon as somebody waits.
//! * `Group { window_us }` — the same, except that the flusher first
//!   lingers `window_us` when another append on this log is in flight (its
//!   frame is about to land and can ride this sync); alone, it syncs at
//!   once.  The `wal.fsyncs` / `wal.group_size` counters expose the
//!   achieved batching (mean group size = group_size / fsyncs);
//!   `wal.group_solo` counts windows that were slept and joined by nobody.
//! * `Off` — no flusher and no sync; every wait is answered at once, so an
//!   acknowledged commit can be lost by [`Wal::power_loss`].  Measures the
//!   log's CPU cost without its durability cost.
//!
//! `fdatasync` runs outside the file mutex: appends — forced or not — never
//! queue behind a flush in progress.  Once a round's waits are answered, the
//! flusher tops up the zero tail when less than half of it is left, and
//! syncs the fill once; `wal.prealloc_syncs` counts those syncs, which
//! `wal.fsyncs` does not.  Under `Off` there is no flusher and no tail.
//!
//! ## Checkpoints and truncation
//!
//! [`Wal::checkpoint`] writes a [`CheckpointSnapshot`] of the entire store
//! state as the first record of a **new** segment file, syncs it and the log
//! directory (a new file's name is not durable until its directory is), and
//! only then deletes the older segments — so a crash at any point leaves
//! either the old segments (checkpoint not yet durable) or the new one.
//! Recovery prefers the highest-numbered usable segment and falls back
//! across torn checkpoints.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use yesquel_common::encoding::{Reader, Writer};
use yesquel_common::obs::clock;
use yesquel_common::obs::trace::{span, SpanKind};
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::{
    Completion, Error, ObjectId, Resolver, Result, ServerId, Timestamp, TxnId, WalFsyncPolicy,
};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"YWALSEG1";

/// Size of the segment header: magic plus the big-endian sequence number.
pub const SEGMENT_HEADER_LEN: u64 = 16;

/// Size of a frame header: payload length plus checksum.
pub const FRAME_HEADER_LEN: u64 = 8;

/// Zero-filled, synced bytes the flusher keeps ahead of the write cursor of
/// the active segment, topped up once less than half of them is left.
const PREALLOC_LEN: u64 = 4 << 20;

/// What a fill writes at a time, under the file mutex: the most an append
/// can wait behind it.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven; the offline build has no crc crate.
// ---------------------------------------------------------------------------

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC-32 (IEEE 802.3) of `data`, as used by the frame checksums.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One write of a transaction: the object and its new value (`None`
/// deletes the object).  The one write type below SQL: the kv layer ships
/// it to a participant as its `WriteOp` and logs it as is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalWrite {
    /// Object being written.
    pub obj: ObjectId,
    /// New value, or `None` for a delete tombstone.
    pub value: Option<Bytes>,
}

/// A participant's yes vote on a transaction: its prepare record, and how
/// a checkpoint carries a prepared-but-undecided transaction.  Enough to
/// restore the prepare locks and staged writes, and for anyone resolving
/// the transaction to ask the other participants and commit it at the
/// maximum of their prepare timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedImage {
    /// Transaction id.
    pub txn: TxnId,
    /// Snapshot timestamp the prepare validated against.
    pub start_ts: Timestamp,
    /// Timestamp this participant drew once it held the locks.
    pub prepare_ts: Timestamp,
    /// Every participant of the transaction, this one included.
    pub participants: Vec<ServerId>,
    /// The staged writes.
    pub writes: Vec<WalWrite>,
}

/// A transaction fate as carried by a checkpoint, in the outcome table's
/// FIFO order: `Some(ts)` committed at `ts`, `None` aborted.
pub type OutcomeImage = (TxnId, Option<Timestamp>);

/// One object's committed version chain as carried by a checkpoint,
/// oldest version first; `None` values are tombstones.
pub type VersionImage = (ObjectId, Vec<(Timestamp, Option<Bytes>)>);

/// Full image of a server store at checkpoint time.  Everything recovery
/// needs: committed version chains, allocation counters, the outcome table
/// (for dedup and for answering other participants) and in-flight prepares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointSnapshot {
    /// Committed versions per object, oldest first within each object.
    pub versions: Vec<VersionImage>,
    /// Non-transactional allocation counters.
    pub counters: Vec<(ObjectId, u64)>,
    /// Recorded transaction fates, oldest first.
    pub outcomes: Vec<OutcomeImage>,
    /// Transactions holding prepare locks at checkpoint time.
    pub prepared: Vec<PreparedImage>,
}

/// One record of the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The prepare record of the earlier protocol, whose commit point was a
    /// primary participant's forced decision.  The store writes
    /// [`WalRecord::Vote`] instead and replay skips this one; it still
    /// encodes and decodes because `ybench`'s ladder appends it to time a
    /// synced prepare-sized append.
    Prepare {
        /// Transaction id.
        txn: TxnId,
        /// Snapshot timestamp the prepare validated against.
        start_ts: Timestamp,
        /// Primary participant.
        primary: ServerId,
        /// The staged writes.
        writes: Vec<WalWrite>,
    },
    /// A participant's yes vote, forced before it answers `Prepared`: once
    /// every participant's is on its disk the transaction is committed, at
    /// the maximum of their prepare timestamps, and a crash cannot undo it.
    Vote(PreparedImage),
    /// A commit, unforced: a participant that loses it replays as
    /// prepared and learns the fate again from the other participants.
    Commit {
        /// Transaction id.
        txn: TxnId,
        /// Commit timestamp.
        commit_ts: Timestamp,
    },
    /// An abort.  Forced when it is a *refusal* (a prepare that failed
    /// validation) or a *fence* (a probe found no record of the
    /// transaction): the participant answers only once it is durable, so a
    /// delayed prepare can never vote yes afterwards.  Unforced when the
    /// fate was already settled by such a record elsewhere.
    Abort {
        /// Transaction id.
        txn: TxnId,
    },
    /// A non-transactional counter allocation.  Replay takes the maximum,
    /// so re-applying is idempotent; losing allocations would hand out
    /// already-used node ids after recovery.
    Alloc {
        /// Counter object.
        obj: ObjectId,
        /// Counter value *after* the allocation.
        value: u64,
    },
    /// A full store snapshot; always the first record of a segment.
    Checkpoint(Box<CheckpointSnapshot>),
}

const TAG_PREPARE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 4;
const TAG_ALLOC: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_VOTE: u8 = 8;
// Tags 3 and 7 are retired: they marked a one-phase commit and a bulk
// load, which nothing writes any more.  They decode as corruption like
// every unknown tag; do not reuse them.

fn put_writes(w: &mut Writer, writes: &[WalWrite]) {
    w.uvarint(writes.len() as u64);
    for wr in writes {
        w.u64(wr.obj.tree).u64(wr.obj.oid);
        match &wr.value {
            Some(v) => {
                w.u8(1).bytes(v);
            }
            None => {
                w.u8(0);
            }
        }
    }
}

fn get_writes(r: &mut Reader<'_>) -> Result<Vec<WalWrite>> {
    let n = r.uvarint()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let obj = ObjectId::new(r.u64()?, r.u64()?);
        let value = match r.u8()? {
            0 => None,
            1 => Some(Bytes::copy_from_slice(r.bytes()?)),
            other => {
                return Err(Error::Corruption(format!(
                    "invalid write-op value flag {other}"
                )))
            }
        };
        out.push(WalWrite { obj, value });
    }
    Ok(out)
}

fn put_prepared(w: &mut Writer, p: &PreparedImage) {
    let n = p.participants.len() as u64;
    let w = w.u64(p.txn).u64(p.start_ts).u64(p.prepare_ts).uvarint(n);
    let w = p.participants.iter().fold(w, |w, &s| w.uvarint(s as u64));
    put_writes(w, &p.writes);
}

fn get_prepared(r: &mut Reader<'_>) -> Result<PreparedImage> {
    Ok(PreparedImage {
        txn: r.u64()?,
        start_ts: r.u64()?,
        prepare_ts: r.u64()?,
        participants: (0..r.uvarint()?)
            .map(|_| Ok(r.uvarint()? as ServerId))
            .collect::<Result<_>>()?,
        writes: get_writes(r)?,
    })
}

impl WalRecord {
    /// Encodes the record payload (the bytes the frame checksum covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            WalRecord::Prepare {
                txn,
                start_ts,
                primary,
                writes,
            } => {
                w.u8(TAG_PREPARE).u64(*txn).u64(*start_ts);
                w.uvarint(*primary as u64);
                put_writes(&mut w, writes);
            }
            WalRecord::Vote(p) => {
                w.u8(TAG_VOTE);
                put_prepared(&mut w, p);
            }
            WalRecord::Commit { txn, commit_ts } => {
                w.u8(TAG_COMMIT).u64(*txn).u64(*commit_ts);
            }
            WalRecord::Abort { txn } => {
                w.u8(TAG_ABORT).u64(*txn);
            }
            WalRecord::Alloc { obj, value } => {
                w.u8(TAG_ALLOC).u64(obj.tree).u64(obj.oid).u64(*value);
            }
            WalRecord::Checkpoint(snap) => {
                w.u8(TAG_CHECKPOINT);
                w.uvarint(snap.versions.len() as u64);
                for (obj, versions) in &snap.versions {
                    w.u64(obj.tree).u64(obj.oid);
                    w.uvarint(versions.len() as u64);
                    for (ts, value) in versions {
                        w.u64(*ts);
                        match value {
                            Some(v) => {
                                w.u8(1).bytes(v);
                            }
                            None => {
                                w.u8(0);
                            }
                        }
                    }
                }
                w.uvarint(snap.counters.len() as u64);
                for (obj, value) in &snap.counters {
                    w.u64(obj.tree).u64(obj.oid).u64(*value);
                }
                w.uvarint(snap.outcomes.len() as u64);
                for (txn, fate) in &snap.outcomes {
                    w.u64(*txn);
                    match fate {
                        Some(ts) => {
                            w.u8(1).u64(*ts);
                        }
                        None => {
                            w.u8(0);
                        }
                    }
                }
                w.uvarint(snap.prepared.len() as u64);
                for p in &snap.prepared {
                    put_prepared(&mut w, p);
                }
            }
        }
        w.finish()
    }

    /// Decodes a record payload.  Any malformation — unknown tag, truncated
    /// field, trailing garbage — reports [`Error::Corruption`]; recovery
    /// turns that into clean-prefix truncation.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_PREPARE => WalRecord::Prepare {
                txn: r.u64()?,
                start_ts: r.u64()?,
                primary: r.uvarint()? as ServerId,
                writes: get_writes(&mut r)?,
            },
            TAG_VOTE => WalRecord::Vote(get_prepared(&mut r)?),
            TAG_COMMIT => WalRecord::Commit {
                txn: r.u64()?,
                commit_ts: r.u64()?,
            },
            TAG_ABORT => WalRecord::Abort { txn: r.u64()? },
            TAG_ALLOC => WalRecord::Alloc {
                obj: ObjectId::new(r.u64()?, r.u64()?),
                value: r.u64()?,
            },
            TAG_CHECKPOINT => {
                let n_objects = r.uvarint()? as usize;
                let mut versions = Vec::with_capacity(n_objects.min(4096));
                for _ in 0..n_objects {
                    let obj = ObjectId::new(r.u64()?, r.u64()?);
                    let n_versions = r.uvarint()? as usize;
                    let mut chain = Vec::with_capacity(n_versions.min(1024));
                    for _ in 0..n_versions {
                        let ts = r.u64()?;
                        let value = match r.u8()? {
                            0 => None,
                            1 => Some(Bytes::copy_from_slice(r.bytes()?)),
                            other => {
                                return Err(Error::Corruption(format!(
                                    "invalid version value flag {other}"
                                )))
                            }
                        };
                        chain.push((ts, value));
                    }
                    versions.push((obj, chain));
                }
                let n_counters = r.uvarint()? as usize;
                let mut counters = Vec::with_capacity(n_counters.min(4096));
                for _ in 0..n_counters {
                    counters.push((ObjectId::new(r.u64()?, r.u64()?), r.u64()?));
                }
                let n_outcomes = r.uvarint()? as usize;
                let mut outcomes = Vec::with_capacity(n_outcomes.min(8192));
                for _ in 0..n_outcomes {
                    let txn = r.u64()?;
                    let fate = match r.u8()? {
                        0 => None,
                        1 => Some(r.u64()?),
                        other => {
                            return Err(Error::Corruption(format!("invalid outcome flag {other}")))
                        }
                    };
                    outcomes.push((txn, fate));
                }
                let n_prepared = r.uvarint()? as usize;
                let mut prepared = Vec::with_capacity(n_prepared.min(4096));
                for _ in 0..n_prepared {
                    prepared.push(get_prepared(&mut r)?);
                }
                WalRecord::Checkpoint(Box::new(CheckpointSnapshot {
                    versions,
                    counters,
                    outcomes,
                    prepared,
                }))
            }
            other => return Err(Error::Corruption(format!("unknown wal record tag {other}"))),
        };
        if !r.is_empty() {
            return Err(Error::Corruption(format!(
                "{} trailing bytes after wal record",
                r.remaining()
            )));
        }
        Ok(rec)
    }
}

/// Encodes a full frame (header + payload) for `rec`.
fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let payload = rec.encode();
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// State behind the file mutex: the active segment and its write cursor.
struct Inner {
    /// Shared so that the flusher can `fdatasync` its own handle after
    /// releasing the mutex; appenders write through `&File` under it.
    file: Arc<File>,
    path: PathBuf,
    /// Active segment sequence number.
    seq: u64,
    /// Bytes of frames written to the active segment (including the
    /// header): the write cursor.  The file may be longer by its zero tail.
    len: u64,
    /// End of the zeros written ahead of the cursor; at or below `len` when
    /// none are left.
    zeroed: u64,
    /// Frames appended to the active segment (checkpoint included).
    frames: u64,
    /// Bumped (together with [`SyncState::generation`], under both mutexes)
    /// whenever the active segment is replaced or truncated: reload,
    /// checkpoint, power loss.  Offsets of an older generation mean nothing
    /// in the current file.
    generation: u64,
}

/// A wait for a position to become durable, answered by the flusher (or by
/// the end of its generation).
struct Waiter {
    generation: u64,
    end: u64,
    /// When the append started, if timing was on then.
    started: Option<Instant>,
    done: Option<Resolver<()>>,
}

impl Drop for Waiter {
    fn drop(&mut self) {
        // A wait nobody answered fails as the log's own error, not as a
        // request a server dropped.
        if let Some(done) = self.done.take() {
            done.resolve(Err(Error::Io("the log flusher exited".into())));
        }
    }
}

/// State behind the sync mutex: what is known durable, and who waits for
/// more.
struct SyncState {
    /// Bytes of the active segment known to be on stable storage.
    durable: u64,
    /// Frames of the active segment known to be on stable storage.
    durable_frames: u64,
    /// Mirror of [`Inner::generation`].
    generation: u64,
    /// Generations a power loss or a reload cut short, each with the bytes
    /// of it that survived.  A generation that ended otherwise (a
    /// checkpoint, which synced everything first) lost nothing.
    cuts: Vec<(u64, u64)>,
    /// Waits the flusher has not answered yet.
    waiters: Vec<Waiter>,
    /// The flusher thread, once started.
    flusher: Option<std::thread::JoinHandle<()>>,
    /// Set when the [`Wal`] is dropped: the flusher fails what is left and
    /// exits.
    closed: bool,
}

impl SyncState {
    /// What waiting for `end` of `generation` comes to without another
    /// flush: `Some` once a flush covered it or its generation ended, `None`
    /// while it needs a flush.
    fn settled(&self, generation: u64, end: u64) -> Option<Result<()>> {
        if generation == self.generation {
            return (end <= self.durable).then_some(Ok(()));
        }
        Some(match self.cuts.iter().find(|(g, _)| *g == generation) {
            Some(&(_, kept)) if end > kept => Err(Error::Io(format!(
                "log record ending at byte {end} was lost in a power failure before it was synced"
            ))),
            _ => Ok(()),
        })
    }
}

/// Where an appended record ends in the log: what [`Wal::durable`] waits
/// for.  A position taken before the segment was replaced or truncated is
/// judged by how its generation ended: a checkpoint synced
/// everything before it, and a simulated power loss kept only what was
/// synced.
#[derive(Debug, Clone, Copy)]
pub struct WalPosition {
    generation: u64,
    end: u64,
    /// When the append started, stamped only while `Obs::timing_on`, so the
    /// answer to its wait can record the append's end-to-end latency.
    started: Option<Instant>,
}

/// A per-server write-ahead log over one directory of segment files.
pub struct Wal {
    dir: PathBuf,
    policy: WalFsyncPolicy,
    /// Everything the flusher thread shares with the appenders.
    log: Arc<Log>,
    recovered_txns: Arc<Counter>,
}

/// The state of a [`Wal`] its flusher thread shares.
struct Log {
    inner: Mutex<Inner>,
    sync: Mutex<SyncState>,
    /// Wakes the flusher when a wait arrives or the log closes.
    wanted: Condvar,
    /// How long the flusher lingers before a sync that another append can
    /// still join (`Group`), zero otherwise.
    window: Duration,
    /// Appends between entry and their frame being written: what the
    /// flusher looks at to decide whether lingering can pay.
    appending: AtomicUsize,
    /// Runs on the flusher just before `fdatasync`, outside every lock;
    /// lets a test hold a sync open while it appends.
    #[cfg(test)]
    before_sync: Mutex<Option<Box<dyn Fn() + Send>>>,
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    group_size: Arc<Counter>,
    group_solo: Arc<Counter>,
    /// Syncs of a zero fill, kept out of `fsyncs`.
    prealloc_syncs: Arc<Counter>,
    /// End-to-end latency of a forced append — the frame write plus the
    /// wait for the flush that covers it (recorded only while
    /// `Obs::timing_on`).
    append_us: Arc<Histogram>,
    /// Latency of each `fdatasync` (recorded only while `Obs::timing_on`).
    fsync_us: Arc<Histogram>,
    /// Frames made durable per fsync — the group-commit amortisation
    /// distribution (recorded only while `Obs::timing_on`).
    group_size_dist: Arc<Histogram>,
    /// Kept for the `Obs::timing_on` check on the append path.
    stats: StatsRegistry,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("segment-{seq}.wal"))
}

/// Result of scanning one segment file.
struct ScannedSegment {
    seq: u64,
    path: PathBuf,
    /// Byte length of the clean prefix (header + valid frames).
    clean_len: u64,
    /// Number of valid frames in the clean prefix.
    frames: u64,
    records: Vec<WalRecord>,
}

/// Scans a segment file: validates the header, decodes frames until the
/// first torn or corrupt one.  Returns `None` if the header itself is
/// unusable (or, for `seq > 0`, the mandatory leading checkpoint is not a
/// valid checkpoint record) — the segment carries no recoverable state.
fn scan_segment(path: &Path, seq: u64) -> Result<Option<ScannedSegment>> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io(path.display(), e)),
    };
    if data.len() < SEGMENT_HEADER_LEN as usize
        || &data[..8] != SEGMENT_MAGIC
        || u64::from_be_bytes(data[8..16].try_into().unwrap()) != seq
    {
        return Ok(None);
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN as usize;
    let mut frames = 0u64;
    loop {
        if data.len() - pos < FRAME_HEADER_LEN as usize {
            break; // torn frame header (or exactly end-of-log)
        }
        let len = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 {
            break; // the zero tail of a preallocated segment: end of the log
        }
        let crc = u32::from_be_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + FRAME_HEADER_LEN as usize;
        if data.len() - body_start < len {
            break; // torn payload
        }
        let payload = &data[body_start..body_start + len];
        if crc32(payload) != crc {
            break; // corrupt payload (or garbage tail)
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            break; // checksum collides with garbage, or a decoder bug: truncate
        };
        records.push(rec);
        frames += 1;
        pos = body_start + len;
    }
    if seq > 0 && !matches!(records.first(), Some(WalRecord::Checkpoint(_))) {
        // A post-checkpoint segment whose checkpoint did not survive carries
        // nothing usable; recovery falls back to the previous segments.
        return Ok(None);
    }
    Ok(Some(ScannedSegment {
        seq,
        path: path.to_path_buf(),
        clean_len: pos as u64,
        frames,
        records,
    }))
}

/// Lists the segment sequence numbers present in `dir`, descending.
fn list_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| Error::io(dir.display(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(dir.display(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("segment-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

impl Log {
    /// Answers waits outside every lock, recording the latency of each
    /// timed append made durable.
    fn answer(&self, answers: Vec<(Waiter, Result<()>)>) {
        for (mut w, r) in answers {
            self.record_append(w.started, &r);
            if let Some(done) = w.done.take() {
                done.resolve(r);
            }
        }
    }

    /// Records a timed append's end-to-end latency once it is durable.
    fn record_append(&self, started: Option<Instant>, durable: &Result<()>) {
        if let (Some(t0), Ok(())) = (started, durable) {
            self.append_us.record(clock::elapsed_us(t0));
        }
    }

    /// Ends the active generation — the segment is being replaced or
    /// truncated, its zero tail with it — and returns the waits it leaves
    /// answered.  The caller has set `inner.len` to the new segment's end.
    /// `kept` is how many of the old segment's bytes survive, when not all
    /// of them do.  Both guards are taken by the caller, so a holder of
    /// either sees the counters move together.
    fn end_generation(
        inner: &mut Inner,
        sync: &mut SyncState,
        kept: Option<u64>,
    ) -> Vec<(Waiter, Result<()>)> {
        if let Some(kept) = kept {
            sync.cuts.push((inner.generation, kept));
        }
        inner.zeroed = inner.len;
        inner.generation += 1;
        sync.generation = inner.generation;
        std::mem::take(&mut sync.waiters)
            .into_iter()
            .map(|w| {
                let r = sync.settled(w.generation, w.end).unwrap_or(Ok(()));
                (w, r)
            })
            .collect()
    }

    /// Syncs everything written so far, on the calling thread.
    fn sync_written(&self, lingered: bool) -> Result<()> {
        let timing = self.stats.obs().timing_on();
        let (file, end, frames, generation) = {
            let g = self.inner.lock().unwrap();
            (Arc::clone(&g.file), g.len, g.frames, g.generation)
        };
        #[cfg(test)]
        if let Some(hook) = self.before_sync.lock().unwrap().as_ref() {
            hook();
        }
        let t0 = timing.then(clock::now);
        let synced = file
            .sync_data()
            .map_err(|e| Error::io(self.inner.lock().unwrap().path.display(), e));
        if let (Some(t0), Ok(())) = (t0, &synced) {
            self.fsync_us.record(clock::elapsed_us(t0));
        }
        let mut s = self.sync.lock().unwrap();
        // A segment replaced or truncated under the sync keeps its own
        // durability accounting; `end` says nothing about the new file.
        if synced.is_ok() && s.generation == generation && end > s.durable {
            s.durable = end;
            self.fsyncs.inc();
            let group = frames.saturating_sub(s.durable_frames);
            self.group_size.add(group);
            if timing {
                self.group_size_dist.record(group);
            }
            if lingered && group == 1 {
                // The window was slept and the sync still covered only one
                // frame: it bought nothing this round.
                self.group_solo.inc();
            }
            s.durable_frames = frames;
        }
        synced
    }

    /// The flusher thread: while somebody waits, syncs everything written
    /// and answers every wait the sync covers; a wait that arrived after the
    /// sync read the log's length rides the next one.  A failed sync fails
    /// every wait, as does closing the log.
    fn flush_loop(&self) {
        loop {
            let mut s = self.sync.lock().unwrap();
            while s.waiters.is_empty() && !s.closed {
                s = self.wanted.wait(s).unwrap();
            }
            let closed = s.closed;
            drop(s);
            let synced = if closed {
                Err(Error::Io("the log was closed".into()))
            } else {
                // Every frame already written rides this sync whether the
                // flusher waits or not; only an append caught between entry
                // and its write can still join, so only then is the window
                // worth sleeping.
                let lingered = !self.window.is_zero() && self.appending.load(Ordering::Relaxed) > 0;
                if lingered {
                    std::thread::sleep(self.window);
                }
                self.sync_written(lingered)
            };
            let mut s = self.sync.lock().unwrap();
            let mut answers = Vec::new();
            for w in std::mem::take(&mut s.waiters) {
                match synced
                    .clone()
                    .err()
                    .map(Err)
                    .or_else(|| s.settled(w.generation, w.end))
                {
                    Some(r) => answers.push((w, r)),
                    None => s.waiters.push(w),
                }
            }
            drop(s);
            self.answer(answers);
            if closed {
                return;
            }
            self.fill_ahead();
        }
    }

    /// Tops the zero tail of the active segment up to [`PREALLOC_LEN`] past
    /// the cursor once less than half of it is left, then syncs it, so the
    /// next forced sync finds the file's size already durable.  Each piece
    /// is written under the file mutex at or beyond the cursor: zeros never
    /// land on a frame, and an append waits for one piece at most.  A fill
    /// that fails is dropped — an append past the zeros grows the file — and
    /// one whose segment was replaced or cut stops: that file's tail is gone.
    fn fill_ahead(&self) {
        let (file, generation, end) = {
            let g = self.inner.lock().unwrap();
            if g.zeroed.saturating_sub(g.len) >= PREALLOC_LEN / 2 {
                return;
            }
            (Arc::clone(&g.file), g.generation, g.len + PREALLOC_LEN)
        };
        loop {
            let mut g = self.inner.lock().unwrap();
            if g.generation != generation {
                return;
            }
            let at = g.zeroed.max(g.len);
            if at >= end {
                break;
            }
            let piece = &ZEROS[..(end - at).min(ZEROS.len() as u64) as usize];
            if g.file.write_all_at(piece, at).is_err() {
                return;
            }
            g.zeroed = at + piece.len() as u64;
        }
        if file.sync_data().is_ok() {
            self.prealloc_syncs.inc();
        }
    }
}

/// Makes the entries of `dir` durable: a segment created in it survives a
/// crash only once this returns.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| Error::io(dir.display(), e))
}

impl Wal {
    /// Opens (creating if necessary) the log in `dir` and performs
    /// file-level recovery: the highest-numbered usable segment is selected,
    /// its torn tail truncated, and the append cursor positioned after the
    /// clean prefix.  Call [`Wal::recover`] to obtain the clean-prefix
    /// records for state replay.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: WalFsyncPolicy,
        registry: &StatsRegistry,
    ) -> Result<Wal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(dir.display(), e))?;
        let window = match policy {
            WalFsyncPolicy::Group { window_us } => Duration::from_micros(window_us),
            _ => Duration::ZERO,
        };
        let log = Log {
            inner: Mutex::new(Inner {
                // Placeholder until reload picks the real segment; reload
                // runs before `open` returns, so this file is never used.
                file: Arc::new(
                    File::create(segment_path(&dir, u64::MAX))
                        .map_err(|e| Error::io(dir.display(), e))?,
                ),
                path: segment_path(&dir, u64::MAX),
                seq: 0,
                len: 0,
                zeroed: 0,
                frames: 0,
                generation: 0,
            }),
            sync: Mutex::new(SyncState {
                durable: 0,
                durable_frames: 0,
                generation: 0,
                cuts: Vec::new(),
                waiters: Vec::new(),
                flusher: None,
                closed: false,
            }),
            wanted: Condvar::new(),
            window,
            appending: AtomicUsize::new(0),
            #[cfg(test)]
            before_sync: Mutex::new(None),
            appends: registry.counter("wal.appends"),
            fsyncs: registry.counter("wal.fsyncs"),
            group_size: registry.counter("wal.group_size"),
            group_solo: registry.counter("wal.group_solo"),
            prealloc_syncs: registry.counter("wal.prealloc_syncs"),
            append_us: registry.histogram("wal.append_us"),
            fsync_us: registry.histogram("wal.fsync_us"),
            group_size_dist: registry.histogram("wal.group_size_dist"),
            stats: registry.clone(),
        };
        let wal = Wal {
            log: Arc::new(log),
            recovered_txns: registry.counter("wal.recovered_txns"),
            dir,
            policy,
        };
        let placeholder = segment_path(&wal.dir, u64::MAX);
        let reload = wal.reload();
        let _ = std::fs::remove_file(placeholder);
        reload?;
        Ok(wal)
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> WalFsyncPolicy {
        self.policy
    }

    /// Path of the segment currently being appended to (tests use this to
    /// inflict targeted damage).
    pub fn active_segment(&self) -> PathBuf {
        self.log.inner.lock().unwrap().path.clone()
    }

    /// Bytes of frames written to the active segment, header included: the
    /// end of the log, not the file's size, which counts its zero tail too.
    pub fn len(&self) -> u64 {
        self.log.inner.lock().unwrap().len
    }

    /// True if the active segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.log.inner.lock().unwrap().frames == 0
    }

    /// Bytes of the active segment known durable (advanced by fsyncs).
    pub fn durable_len(&self) -> u64 {
        self.log.sync.lock().unwrap().durable
    }

    /// Selects and repairs the active segment, then returns its records for
    /// replay.  Called by `open`, and again by recovery after
    /// [`Wal::power_loss`] or external damage.
    pub fn recover(&self) -> Result<Vec<WalRecord>> {
        self.reload()
    }

    /// Bumps the `wal.recovered_txns` counter; called by the replay code
    /// once per transaction whose effects were restored from this log.
    pub fn note_recovered_txns(&self, n: u64) {
        self.recovered_txns.add(n);
    }

    fn reload(&self) -> Result<Vec<WalRecord>> {
        let mut inner = self.log.inner.lock().unwrap();
        let mut sync = self.log.sync.lock().unwrap();
        let seqs = list_segments(&self.dir)?;
        let mut chosen: Option<ScannedSegment> = None;
        let mut unusable: Vec<u64> = Vec::new();
        for seq in seqs.iter().copied().filter(|&s| s != u64::MAX) {
            match scan_segment(&segment_path(&self.dir, seq), seq)? {
                Some(s) => {
                    chosen = Some(s);
                    break;
                }
                None => unusable.push(seq),
            }
        }
        let scanned = match chosen {
            Some(s) => s,
            None if seqs.iter().any(|&s| s != u64::MAX) => {
                // Segment files exist but none carries a usable prefix: the
                // damage is not a recoverable torn tail, so refuse to serve
                // an empty store as if it were the truth.
                return Err(Error::WalCorrupt(format!(
                    "no usable segment among {:?} in {}",
                    seqs,
                    self.dir.display()
                )));
            }
            None => {
                // Fresh log: create segment 0.
                let path = segment_path(&self.dir, 0);
                let mut file = File::create(&path).map_err(|e| Error::io(path.display(), e))?;
                let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
                header.extend_from_slice(SEGMENT_MAGIC);
                header.extend_from_slice(&0u64.to_be_bytes());
                file.write_all(&header)
                    .and_then(|_| file.sync_all())
                    .map_err(|e| Error::io(path.display(), e))?;
                sync_dir(&self.dir)?;
                ScannedSegment {
                    seq: 0,
                    path,
                    clean_len: SEGMENT_HEADER_LEN,
                    frames: 0,
                    records: Vec::new(),
                }
            }
        };
        // Unusable newer segments are dead weight; remove them so they can
        // never shadow the chosen one again.
        for seq in unusable {
            let _ = std::fs::remove_file(segment_path(&self.dir, seq));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&scanned.path)
            .map_err(|e| Error::io(scanned.path.display(), e))?;
        // Truncate the torn tail and the zeros so appends continue after the
        // clean prefix; the flusher lays a new zero tail.
        file.set_len(scanned.clean_len)
            .map_err(|e| Error::io(scanned.path.display(), e))?;
        let mut file = file;
        file.seek(SeekFrom::Start(scanned.clean_len))
            .map_err(|e| Error::io(scanned.path.display(), e))?;
        // What was appended to the segment being replaced survives only up
        // to the clean prefix, and only if recovery kept that segment.
        let kept = if scanned.seq == inner.seq {
            scanned.clean_len
        } else {
            0
        };
        inner.file = Arc::new(file);
        inner.path = scanned.path;
        inner.seq = scanned.seq;
        inner.len = scanned.clean_len;
        inner.frames = scanned.frames;
        // The surviving prefix is on stable storage by definition.
        sync.durable = scanned.clean_len;
        sync.durable_frames = scanned.frames;
        let answers = Log::end_generation(&mut inner, &mut sync, Some(kept));
        drop((inner, sync));
        self.log.answer(answers);
        Ok(scanned.records)
    }

    /// Appends `rec` and returns once it is durable per the fsync policy.
    /// Concurrent appenders share one flush.
    pub fn append(&self, rec: &WalRecord) -> Result<()> {
        let pos = self.append_unforced(rec)?;
        let _wal_span = span(SpanKind::Wal);
        self.durable(pos).wait()
    }

    /// Writes `rec` at the end of the log without waiting for the disk and
    /// returns where it ends.  Calls are ordered: a record appended after
    /// another is never durable before it.  Until some sync covers the
    /// returned position the record can be lost in a power failure, so
    /// nothing that depends on it may be acknowledged before
    /// [`Wal::durable`] says it is.
    pub fn append_unforced(&self, rec: &WalRecord) -> Result<WalPosition> {
        let _wal_span = span(SpanKind::Wal);
        let log = &self.log;
        let started = log.stats.obs().timing_on().then(clock::now);
        log.appending.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(rec);
        let written = {
            let mut g = log.inner.lock().unwrap();
            match (&*g.file).write_all(&frame) {
                Ok(()) => {
                    g.len += frame.len() as u64;
                    g.frames += 1;
                    Ok(WalPosition {
                        generation: g.generation,
                        end: g.len,
                        started,
                    })
                }
                Err(e) => Err(Error::io(g.path.display(), e)),
            }
        };
        log.appending.fetch_sub(1, Ordering::Relaxed);
        if written.is_ok() {
            log.appends.inc();
        }
        written
    }

    /// The completion that answers once `pos` is durable per the fsync
    /// policy: ready at once, allocating nothing, under `Off` or when a sync
    /// already covers it; otherwise pending until this log's flusher syncs
    /// it and answers, outside its locks — so a continuation left on it
    /// runs on the flusher and must not block.  The answer is
    /// [`Error::Io`] if that sync failed, if a power loss took the record
    /// first, or if the flusher cannot start or has exited.  The flusher
    /// starts with the first wait that needs it and exits when the log is
    /// dropped.
    pub fn durable(&self, pos: WalPosition) -> Completion<()> {
        let answered = |r: Result<()>| {
            self.log.record_append(pos.started, &r);
            Completion::ready(r)
        };
        if self.policy == WalFsyncPolicy::Off {
            return answered(Ok(()));
        }
        let mut s = self.log.sync.lock().unwrap();
        if let Some(r) = s.settled(pos.generation, pos.end) {
            drop(s);
            return answered(r);
        }
        if s.flusher.is_none() {
            let log = Arc::clone(&self.log);
            match std::thread::Builder::new()
                .name("yesquel-wal-flusher".into())
                .spawn(move || log.flush_loop())
            {
                Ok(flusher) => s.flusher = Some(flusher),
                Err(e) => {
                    drop(s);
                    return answered(Err(Error::Io(format!("cannot start the log flusher: {e}"))));
                }
            }
        }
        let (durable, done) = Completion::pending();
        s.waiters.push(Waiter {
            generation: pos.generation,
            end: pos.end,
            started: pos.started,
            done: Some(done),
        });
        drop(s);
        self.log.wanted.notify_one();
        durable
    }

    /// Forces everything appended so far to stable storage, on the calling
    /// thread, regardless of policy.
    pub fn sync(&self) -> Result<()> {
        self.log.sync_written(false)
    }

    /// Writes `snapshot` as the sole record of a fresh segment, syncs it,
    /// and deletes every older segment — the log-truncation half of
    /// checkpointing.  The caller must guarantee no append is in flight
    /// (the kv store holds its checkpoint gate across this call).
    pub fn checkpoint(&self, snapshot: CheckpointSnapshot) -> Result<()> {
        let mut inner = self.log.inner.lock().unwrap();
        let mut sync = self.log.sync.lock().unwrap();
        let new_seq = inner.seq + 1;
        let path = segment_path(&self.dir, new_seq);
        let mut file = File::create(&path).map_err(|e| Error::io(path.display(), e))?;
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(SEGMENT_MAGIC);
        buf.extend_from_slice(&new_seq.to_be_bytes());
        buf.extend_from_slice(&encode_frame(&WalRecord::Checkpoint(Box::new(snapshot))));
        file.write_all(&buf)
            .and_then(|_| file.sync_all())
            .map_err(|e| Error::io(path.display(), e))?;
        self.log.fsyncs.inc();
        sync_dir(&self.dir)?;
        // The new segment and its name are durable: older segments are now
        // garbage.  A crash before these deletes leaves extra files that
        // recovery skips (it prefers the highest usable sequence number).
        let old_seq = inner.seq;
        let old_path = inner.path.clone();
        inner.file = Arc::new(file);
        inner.path = path;
        inner.seq = new_seq;
        inner.len = buf.len() as u64;
        inner.frames = 1;
        sync.durable = buf.len() as u64;
        sync.durable_frames = 1;
        let answers = Log::end_generation(&mut inner, &mut sync, None);
        drop((inner, sync));
        self.log.answer(answers);
        let _ = std::fs::remove_file(old_path);
        for seq in list_segments(&self.dir)?
            .into_iter()
            .filter(|&s| s < old_seq)
        {
            let _ = std::fs::remove_file(segment_path(&self.dir, seq));
        }
        Ok(())
    }

    /// Simulates a power loss: everything not yet fsynced is discarded by
    /// truncating the active segment to its durable length, zero tail
    /// included.  The fault layer's amnesia restart calls this before
    /// replaying, so recovery only ever sees what a real machine would find
    /// on disk.  A wait for a record the loss took fails.
    pub fn power_loss(&self) -> Result<()> {
        let mut inner = self.log.inner.lock().unwrap();
        let mut sync = self.log.sync.lock().unwrap();
        inner
            .file
            .set_len(sync.durable)
            .and_then(|()| (&*inner.file).seek(SeekFrom::Start(sync.durable)))
            .map_err(|e| Error::io(inner.path.display(), e))?;
        inner.len = sync.durable;
        inner.frames = sync.durable_frames;
        let kept = sync.durable;
        let answers = Log::end_generation(&mut inner, &mut sync, Some(kept));
        drop((inner, sync));
        self.log.answer(answers);
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let flusher = {
            let mut s = self.log.sync.lock().unwrap_or_else(|e| e.into_inner());
            s.closed = true;
            s.flusher.take()
        };
        self.log.wanted.notify_one();
        // The thread dropping the log may be its flusher, answering a wait
        // whose continuation held the last handle.
        if let Some(flusher) = flusher.filter(|f| f.thread().id() != std::thread::current().id()) {
            let _ = flusher.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yesquel_common::tempdir::TempDir;

    fn registry() -> StatsRegistry {
        StatsRegistry::new()
    }

    fn obj(o: u64) -> ObjectId {
        ObjectId::new(1, o)
    }

    fn wr(o: u64, v: &str) -> WalWrite {
        WalWrite {
            obj: obj(o),
            value: Some(Bytes::copy_from_slice(v.as_bytes())),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Prepare {
                txn: 7,
                start_ts: 40,
                primary: 2,
                writes: vec![
                    wr(1, "a"),
                    WalWrite {
                        obj: obj(2),
                        value: None,
                    },
                ],
            },
            WalRecord::Vote(PreparedImage {
                txn: 7,
                start_ts: 40,
                prepare_ts: 41,
                participants: vec![0, 2, 300],
                writes: vec![wr(3, "c")],
            }),
            WalRecord::Commit {
                txn: 7,
                commit_ts: 41,
            },
            WalRecord::Vote(PreparedImage {
                txn: 8,
                start_ts: 49,
                prepare_ts: 50,
                participants: vec![1],
                writes: vec![wr(3, "b")],
            }),
            WalRecord::Abort { txn: 9 },
            WalRecord::Alloc {
                obj: obj(0),
                value: 128,
            },
            WalRecord::Vote(PreparedImage {
                txn: 10,
                start_ts: 50,
                prepare_ts: 51,
                participants: vec![0],
                writes: vec![WalWrite {
                    obj: obj(4),
                    value: None,
                }],
            }),
        ]
    }

    #[test]
    fn crc32_known_values() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
        let snap = CheckpointSnapshot {
            versions: vec![
                (obj(1), vec![(5, Some(Bytes::from_static(b"x"))), (9, None)]),
                (obj(2), vec![]),
            ],
            counters: vec![(obj(0), 42)],
            outcomes: vec![(3, Some(10)), (4, None)],
            prepared: vec![PreparedImage {
                txn: 11,
                start_ts: 12,
                prepare_ts: 14,
                participants: vec![1, 3],
                writes: vec![wr(5, "staged")],
            }],
        };
        let rec = WalRecord::Checkpoint(Box::new(snap));
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        // The retired bulk-load tag, over what used to be a well-formed
        // payload (object, timestamp, length-prefixed value): corruption,
        // like any tag nothing writes.
        let mut retired = Writer::with_capacity(32);
        retired.u8(7).u64(1).u64(4).u64(3).bytes(b"seed");
        assert!(matches!(
            WalRecord::decode(&retired.finish()),
            Err(Error::Corruption(_))
        ));
        let mut enc = sample_records()[0].encode();
        enc.push(0); // trailing byte
        assert!(WalRecord::decode(&enc).is_err());
        enc.truncate(enc.len().saturating_sub(3));
        assert!(WalRecord::decode(&enc).is_err());
    }

    #[test]
    fn append_recover_roundtrip() {
        let t = TempDir::new("wal-roundtrip").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        assert_eq!(
            reg.counter("wal.appends").get(),
            sample_records().len() as u64
        );
        assert!(reg.counter("wal.fsyncs").get() >= 1);
        drop(wal);
        // A fresh handle over the same directory sees every record.
        let wal2 = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        assert_eq!(wal2.recover().unwrap(), sample_records());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let t = TempDir::new("wal-torn").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let path = wal.active_segment();
        let full = wal.len();
        drop(wal);
        // Cut the last record in half: a torn append.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..full as usize - 4]).unwrap();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        let recs = wal.recover().unwrap();
        let n = sample_records().len();
        assert_eq!(recs, sample_records()[..n - 1].to_vec());
        assert!(wal.len() < full);
        // The log keeps working after truncation.
        wal.append(&WalRecord::Abort { txn: 77 }).unwrap();
        let recs = wal.recover().unwrap();
        assert_eq!(recs.len(), n);
        assert_eq!(recs[n - 1], WalRecord::Abort { txn: 77 });
    }

    #[test]
    fn checkpoint_rotates_and_truncates() {
        let t = TempDir::new("wal-ckpt").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let old_path = wal.active_segment();
        let snap = CheckpointSnapshot {
            counters: vec![(obj(0), 9)],
            ..Default::default()
        };
        wal.checkpoint(snap.clone()).unwrap();
        assert!(!old_path.exists(), "old segment must be deleted");
        wal.append(&WalRecord::Abort { txn: 1 }).unwrap();
        let recs = wal.recover().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], WalRecord::Checkpoint(Box::new(snap)));
        assert_eq!(recs[1], WalRecord::Abort { txn: 1 });
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_segment() {
        let t = TempDir::new("wal-ckpt-torn").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let seg0 = wal.active_segment();
        let seg0_bytes = std::fs::read(&seg0).unwrap();
        wal.checkpoint(CheckpointSnapshot::default()).unwrap();
        let seg1 = wal.active_segment();
        let seg1_len = wal.len() as usize;
        drop(wal);
        // Simulate a crash mid-checkpoint: segment 1's record is torn and
        // segment 0 was not yet deleted.
        let seg1_bytes = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, &seg1_bytes[..seg1_len - 2]).unwrap();
        std::fs::write(&seg0, &seg0_bytes).unwrap();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        assert_eq!(wal.recover().unwrap(), sample_records());
        assert!(!seg1.exists(), "the torn checkpoint segment is removed");
    }

    #[test]
    fn unusable_only_segment_is_a_typed_error() {
        let t = TempDir::new("wal-corrupt").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        let path = wal.active_segment();
        drop(wal);
        // Destroy the header: nothing in the file can be trusted.
        let mut data = std::fs::read(&path).unwrap();
        data[0] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        match Wal::open(t.path(), WalFsyncPolicy::Always, &reg) {
            Err(Error::WalCorrupt(_)) => {}
            Err(other) => panic!("expected WalCorrupt, got {other:?}"),
            Ok(_) => panic!("expected WalCorrupt, got a usable log"),
        }
    }

    #[test]
    fn power_loss_drops_unsynced_tail() {
        let t = TempDir::new("wal-powerloss").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Off, &reg).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.sync().unwrap();
        let pos = wal.append_unforced(&sample_records()[1]).unwrap(); // never synced
        assert!(wal.durable_len() < wal.len());
        // Off answers every wait at once.
        assert_eq!(wal.durable(pos).resolved(), Some(&Ok(())));
        // No flusher, so no zero tail either.
        let size = std::fs::metadata(wal.active_segment()).unwrap().len();
        assert_eq!(size, wal.len());
        wal.power_loss().unwrap();
        let recs = wal.recover().unwrap();
        assert_eq!(recs, sample_records()[..1].to_vec());
        // With Always, the ack implies durability: nothing is lost.
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        wal.recover().unwrap();
        wal.append(&sample_records()[1]).unwrap();
        wal.power_loss().unwrap();
        assert_eq!(wal.recover().unwrap(), sample_records()[..2].to_vec());
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        let t = TempDir::new("wal-group").unwrap();
        let reg = registry();
        let wal = Arc::new(
            Wal::open(t.path(), WalFsyncPolicy::Group { window_us: 2_000 }, &reg).unwrap(),
        );
        let threads = 8;
        let per_thread = 20u64;
        let mut handles = Vec::new();
        for th in 0..threads {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    wal.append(&WalRecord::Commit {
                        txn: th * 1000 + i,
                        commit_ts: i,
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let appends = reg.counter("wal.appends").get();
        let fsyncs = reg.counter("wal.fsyncs").get();
        let grouped = reg.counter("wal.group_size").get();
        assert_eq!(appends, threads * per_thread);
        assert_eq!(grouped, appends, "every append is covered by some sync");
        assert!(fsyncs >= 1);
        assert!(
            fsyncs < appends,
            "group commit must batch: {fsyncs} fsyncs for {appends} appends"
        );
        // Everything acknowledged is durable.
        assert_eq!(wal.durable_len(), wal.len());
        assert_eq!(wal.recover().unwrap().len(), appends as usize);
    }

    /// Makes the flusher announce its next sync on the returned receiver
    /// and then hold that `fdatasync` until the returned sender fires; later
    /// syncs pass straight through.
    fn hold_next_sync(
        wal: &Wal,
    ) -> (
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::SyncSender<()>,
    ) {
        let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (release_tx, release_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let release_rx = Mutex::new(Some(release_rx));
        *wal.log.before_sync.lock().unwrap() = Some(Box::new(move || {
            if let Some(rx) = release_rx.lock().unwrap().take() {
                entered_tx.send(()).unwrap();
                rx.recv().unwrap();
            }
        }));
        (entered_rx, release_tx)
    }

    #[test]
    fn append_does_not_queue_behind_a_sync_and_waits_for_its_own() {
        let t = TempDir::new("wal-split").unwrap();
        let reg = registry();
        let wal = Arc::new(Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap());
        let (entered, release) = hold_next_sync(&wal);
        let first = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append(&WalRecord::Abort { txn: 1 }))
        };
        entered.recv().unwrap();
        // The first appender is now inside its sync, which covers the log as
        // it was when the sync started.  An append issued now must not wait
        // for it (this call would deadlock the test if it took a lock the
        // flusher holds across `fdatasync`) ...
        let pos = wal.append_unforced(&WalRecord::Abort { txn: 2 }).unwrap();
        assert_eq!(reg.counter("wal.fsyncs").get(), 0);
        assert!(wal.durable_len() < wal.len());
        // ... and is not covered by it: waiting for the new position needs a
        // sync of its own, started after the first one returns.
        let second = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.durable(pos).wait())
        };
        release.send(()).unwrap();
        first.join().unwrap().unwrap();
        second.join().unwrap().unwrap();
        assert_eq!(reg.counter("wal.fsyncs").get(), 2);
        assert_eq!(wal.durable_len(), wal.len());
        // Waiting again for a position already covered syncs nothing: the
        // completion comes back answered.
        assert_eq!(wal.durable(pos).resolved(), Some(&Ok(())));
        assert_eq!(reg.counter("wal.fsyncs").get(), 2);
    }

    #[test]
    fn unforced_append_rides_the_next_forced_one() {
        let t = TempDir::new("wal-unforced").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Group { window_us: 100 }, &reg).unwrap();
        // Alone, an unforced record is lost with the power.
        wal.append_unforced(&sample_records()[0]).unwrap();
        assert_eq!(reg.counter("wal.fsyncs").get(), 0);
        wal.power_loss().unwrap();
        assert!(wal.recover().unwrap().is_empty());
        // Followed by a forced one, it is durable with it, in order.
        wal.append_unforced(&sample_records()[0]).unwrap();
        wal.append(&sample_records()[1]).unwrap();
        wal.append_unforced(&sample_records()[2]).unwrap();
        assert_eq!(reg.counter("wal.fsyncs").get(), 1);
        wal.power_loss().unwrap();
        assert_eq!(wal.recover().unwrap(), sample_records()[..2].to_vec());
    }

    #[test]
    fn a_wait_for_a_record_older_than_a_checkpoint_succeeds() {
        let t = TempDir::new("wal-wait-ckpt").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Group { window_us: 100 }, &reg).unwrap();
        let pos = wal.append_unforced(&sample_records()[0]).unwrap();
        // The checkpoint syncs its own segment, which holds everything the
        // old one did: the record is safe although nobody flushed it.
        wal.checkpoint(CheckpointSnapshot::default()).unwrap();
        wal.durable(pos).wait().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        wal.durable(pos).then(move |r| tx.send(r).unwrap());
        rx.recv().unwrap().unwrap();
    }

    #[test]
    fn a_wait_for_a_record_a_power_loss_took_fails() {
        let t = TempDir::new("wal-wait-loss").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Group { window_us: 100 }, &reg).unwrap();
        let synced = wal.append_unforced(&sample_records()[0]).unwrap();
        wal.sync().unwrap();
        let lost = wal.append_unforced(&sample_records()[1]).unwrap();
        wal.power_loss().unwrap();
        // What was synced before the loss is still acknowledged ...
        wal.durable(synced).wait().unwrap();
        // ... and what the loss truncated never is, whichever way it is
        // waited for.
        assert!(matches!(wal.durable(lost).wait(), Err(Error::Io(_))));
        let (tx, rx) = std::sync::mpsc::channel();
        wal.durable(lost).then(move |r| tx.send(r).unwrap());
        assert!(matches!(rx.recv().unwrap(), Err(Error::Io(_))));
        assert_eq!(wal.recover().unwrap(), sample_records()[..1].to_vec());
        assert!(matches!(wal.durable(lost).wait(), Err(Error::Io(_))));
    }

    #[test]
    fn solo_group_appender_never_sleeps_the_window() {
        let t = TempDir::new("wal-solo").unwrap();
        let reg = registry();
        let n = 5u64;
        let time_appends = |policy| {
            let wal = Wal::open(t.path(), policy, &reg).unwrap();
            let t0 = Instant::now();
            for txn in 0..n {
                wal.append(&WalRecord::Abort { txn }).unwrap();
            }
            t0.elapsed()
        };
        let always = time_appends(WalFsyncPolicy::Always);
        // A window no disk is slow enough to hide: slept even once it shows.
        let window = Duration::from_millis(400);
        let group = time_appends(WalFsyncPolicy::Group {
            window_us: window.as_micros() as u64,
        });
        assert!(
            group < always + window,
            "{n} solo appends took {group:?} under Group against {always:?} under Always"
        );
        assert_eq!(reg.counter("wal.fsyncs").get(), 2 * n);
        assert_eq!(reg.counter("wal.group_solo").get(), 0);
    }

    #[test]
    fn mid_log_corruption_recovers_prefix_only() {
        let t = TempDir::new("wal-flip").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let path = wal.active_segment();
        let full = wal.len() as usize;
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the frames: every record from the
        // damaged frame onward is dropped.
        let mid = full / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        let recs = wal.recover().unwrap();
        assert!(recs.len() < sample_records().len());
        for (got, want) in recs.iter().zip(sample_records().iter()) {
            assert_eq!(got, want, "recovered prefix must match what was logged");
        }
    }

    /// Waits until the flusher has synced `n` zero fills in all.
    fn await_prealloc_syncs(reg: &StatsRegistry, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while reg.counter("wal.prealloc_syncs").get() < n {
            assert!(Instant::now() < deadline, "no zero fill was synced");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_zero_frame_header_ends_the_log() {
        let t = TempDir::new("wal-zero-tail").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let path = wal.active_segment();
        let full = wal.len() as usize;
        drop(wal);
        let frames = std::fs::read(&path).unwrap()[..full].to_vec();
        let last = full - encode_frame(sample_records().last().unwrap()).len();
        let n = sample_records().len();
        // The empty payload's checksum is 0, so only the length says that
        // an all-zero header is no record.
        assert_eq!(crc32(&[]), 0);
        assert!(WalRecord::decode(&[]).is_err());
        let with_zeros = |mut data: Vec<u8>| {
            data.extend_from_slice(&[0u8; 4096]);
            data
        };
        let mut beyond = frames[..last].to_vec();
        beyond.extend_from_slice(&[0u8; FRAME_HEADER_LEN as usize]);
        beyond.extend_from_slice(&encode_frame(&WalRecord::Abort { txn: 99 }));
        for (damage, data, kept) in [
            (
                "a zero tail after the last frame",
                with_zeros(frames.clone()),
                n,
            ),
            (
                "a torn frame followed by zeros",
                with_zeros(frames[..full - 5].to_vec()),
                n - 1,
            ),
            ("a frame beyond a zero header", with_zeros(beyond), n - 1),
        ] {
            std::fs::write(&path, &data).unwrap();
            let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
            assert_eq!(
                wal.recover().unwrap(),
                sample_records()[..kept].to_vec(),
                "{damage}"
            );
            let clean = if kept == n { full } else { last };
            assert_eq!(wal.len(), clean as u64, "{damage}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), clean as u64);
        }
    }

    #[test]
    fn a_forced_sync_into_the_zero_tail_writes_no_file_size() {
        let t = TempDir::new("wal-prealloc").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        let size = || std::fs::metadata(wal.active_segment()).unwrap().len();
        assert_eq!(size(), SEGMENT_HEADER_LEN, "opening a log writes no zeros");
        wal.append(&sample_records()[0]).unwrap();
        await_prealloc_syncs(&reg, 1);
        let filled = size();
        assert_eq!(filled, wal.len() + PREALLOC_LEN);
        let fsyncs = reg.counter("wal.fsyncs").get();
        let n = 20;
        for txn in 0..n {
            wal.append(&WalRecord::Abort { txn }).unwrap();
        }
        assert_eq!(size(), filled, "every frame landed in the zero tail");
        assert_eq!(reg.counter("wal.fsyncs").get(), fsyncs + n);
        assert_eq!(reg.counter("wal.prealloc_syncs").get(), 1);
        // Recovery cuts the zero tail with the clean prefix, and the
        // flusher lays it again.
        assert_eq!(wal.recover().unwrap().len(), 1 + n as usize);
        wal.append(&sample_records()[1]).unwrap();
        await_prealloc_syncs(&reg, 2);
        assert!(size() >= wal.len() + PREALLOC_LEN / 2);
    }

    #[test]
    fn an_append_that_outruns_the_zeros_grows_the_file() {
        let t = TempDir::new("wal-prealloc-outrun").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        await_prealloc_syncs(&reg, 1);
        let big = WalRecord::Vote(PreparedImage {
            txn: 1,
            start_ts: 1,
            prepare_ts: 2,
            participants: vec![0],
            writes: vec![WalWrite {
                obj: obj(1),
                value: Some(Bytes::from(vec![7u8; PREALLOC_LEN as usize + 4096])),
            }],
        });
        wal.append(&big).unwrap();
        // The next fill starts at the cursor, past the record, not where
        // the last one ended.
        await_prealloc_syncs(&reg, 2);
        wal.append(&sample_records()[1]).unwrap();
        drop(wal);
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        let want = vec![
            sample_records()[0].clone(),
            big,
            sample_records()[1].clone(),
        ];
        assert_eq!(wal.recover().unwrap(), want);
    }

    #[test]
    fn an_append_after_a_power_loss_is_recovered() {
        let t = TempDir::new("wal-prealloc-loss").unwrap();
        let reg = registry();
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        await_prealloc_syncs(&reg, 1);
        wal.append_unforced(&sample_records()[1]).unwrap();
        wal.power_loss().unwrap();
        assert_eq!(
            std::fs::metadata(wal.active_segment()).unwrap().len(),
            wal.len(),
            "the cut takes the zero tail"
        );
        // The cursor and the fill start again from the cut.
        wal.append(&sample_records()[2]).unwrap();
        await_prealloc_syncs(&reg, 2);
        wal.append(&sample_records()[3]).unwrap();
        drop(wal);
        let wal = Wal::open(t.path(), WalFsyncPolicy::Always, &reg).unwrap();
        let want = [0, 2, 3].map(|i| sample_records()[i].clone());
        assert_eq!(wal.recover().unwrap(), want.to_vec());
    }
}
