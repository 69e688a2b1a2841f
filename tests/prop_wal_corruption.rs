//! Adversarial corruption of write-ahead-log files: truncations at every
//! byte boundary, seeded byte-flip storms, and garbage tails.  Whatever the
//! damage, recovery must either come back with a **clean prefix** of the
//! original history or fail with a **typed** error ([`Error::WalCorrupt`] /
//! [`Error::Io`]) — never panic, and never invent a transaction that was
//! not acknowledged (no phantoms).
//!
//! The reference history is produced by a real single-server deployment
//! (fsync policy `Always`, so the frames *are* the durable state), cut at the
//! end of its frames; each case then mutilates a copy of the frames, lays a
//! zero tail after them — what a crash leaves in a preallocated segment —
//! and rebuilds a server from it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::Rng;
use yesquel::common::rand_util::seeded_rng;
use yesquel::common::stats::StatsRegistry;
use yesquel::common::tempdir::TempDir;
use yesquel::common::WalFsyncPolicy;
use yesquel::kv::store::TxnOutcome;
use yesquel::kv::{KvServer, TimestampOracle};
use yesquel::wal::Wal;
use yesquel::{Error, KvConfig, KvDatabase, ObjectId, YesquelConfig};

/// One acknowledged commit of the reference history, in commit order.
#[derive(Debug, Clone)]
struct Acked {
    txn: u64,
    commit_ts: u64,
    obj: ObjectId,
    value: Vec<u8>,
}

/// Runs `n` acknowledged single-key commits against a one-server durable
/// deployment (checkpointing after `checkpoint_after` commits when `Some`),
/// and returns the history plus the bytes of every surviving segment file,
/// ordered by sequence number, the active one up to the end of its frames.
fn build_reference(
    n: usize,
    checkpoint_after: Option<usize>,
) -> (Vec<Acked>, Vec<(String, Vec<u8>)>) {
    let tmp = TempDir::new("yesquel-wal-corruption-src").unwrap();
    let mut cfg = YesquelConfig::with_servers(1);
    cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
    cfg.kv.wal_fsync = WalFsyncPolicy::Always;
    let mut acked = Vec::new();
    {
        let db = KvDatabase::new(cfg);
        let client = db.client();
        for i in 0..n {
            if checkpoint_after == Some(i) {
                db.checkpoint_all().unwrap();
            }
            let obj = ObjectId::new(5, (i % 6) as u64);
            let value = format!("value-{i}").into_bytes();
            let t = client.begin();
            t.put(obj, value.clone()).unwrap();
            let txn = t.id();
            let commit_ts = t.commit().unwrap();
            acked.push(Acked {
                txn,
                commit_ts,
                obj,
                value,
            });
        }
    }
    let server_dir = tmp.path().join("server-0");
    let (active, frames_end) = {
        let wal = Wal::open(&server_dir, WalFsyncPolicy::Always, &StatsRegistry::new()).unwrap();
        (wal.active_segment(), wal.len() as usize)
    };
    let mut segments: Vec<(String, Vec<u8>)> = std::fs::read_dir(&server_dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let mut bytes = std::fs::read(e.path()).unwrap();
            if e.path() == active {
                bytes.truncate(frames_end);
            }
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    segments.sort();
    (acked, segments)
}

/// `frames` followed by zeros: the shape of a preallocated segment after a
/// crash.  How far the zeros run does not matter to recovery, which stops at
/// the first zero frame header.
fn with_zero_tail(frames: &[u8]) -> Vec<u8> {
    let mut bytes = frames.to_vec();
    bytes.resize(frames.len() + 4096, 0);
    bytes
}

/// Writes the given segment files into a fresh directory and rebuilds a
/// server from them: `Ok` carries the recovered server, `Err` the typed
/// open/recovery error.  A panic anywhere in here is a test failure.
fn rebuild(segments: &[(String, Vec<u8>)]) -> (TempDir, yesquel::Result<Arc<KvServer>>) {
    let tmp = TempDir::new("yesquel-wal-corruption-case").unwrap();
    let dir: PathBuf = tmp.path().join("server-0");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in segments {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let result = open_server(&dir);
    (tmp, result)
}

fn open_server(dir: &Path) -> yesquel::Result<Arc<KvServer>> {
    let stats = StatsRegistry::new();
    let wal = Wal::open(dir.to_path_buf(), WalFsyncPolicy::Always, &stats)?;
    let server = KvServer::with_wal(
        0,
        TimestampOracle::new(),
        &KvConfig::default(),
        Some(Arc::new(wal)),
    )?;
    Ok(Arc::new(server))
}

/// The core acceptance check: the recovered server knows a *prefix* of the
/// acknowledged history — some first `k` commits recovered exactly (same
/// timestamp), everything after unknown, and nothing else invented.
/// Returns `k` for reporting.
fn assert_clean_prefix(server: &KvServer, acked: &[Acked], context: &str) -> usize {
    let store = server.store();
    let mut prefix = acked.len();
    for (i, a) in acked.iter().enumerate() {
        match store.outcome(a.txn) {
            Some(TxnOutcome::Committed(ts)) => {
                assert_eq!(
                    ts, a.commit_ts,
                    "{context}: txn {} recovered at wrong timestamp",
                    a.txn
                );
                assert!(
                    i < prefix || prefix == acked.len(),
                    "{context}: txn {} recovered after a gap — not a prefix",
                    a.txn
                );
            }
            _ => {
                if prefix == acked.len() {
                    prefix = i;
                } // else: already inside the lost suffix, fine.
            }
        }
    }
    // Re-scan: nothing after the cut may have survived.
    for a in &acked[prefix..] {
        assert!(
            !matches!(store.outcome(a.txn), Some(TxnOutcome::Committed(_))),
            "{context}: txn {} survived beyond the clean prefix",
            a.txn
        );
    }
    // No phantom versions: every recovered version belongs to a recovered
    // acknowledged commit.
    for a in acked {
        for (ts, v) in store.dump_versions(a.obj) {
            let known = acked
                .iter()
                .any(|b| b.commit_ts == ts && b.obj == a.obj && Some(&b.value[..]) == v.as_deref());
            assert!(
                known,
                "{context}: phantom version (ts {ts}, {:?}) on {}",
                v, a.obj
            );
        }
    }
    prefix
}

/// Accepts the two legal outcomes of recovering a damaged log; anything
/// else — a panic got here first, or an untyped error — fails the test.
fn assert_recovers_or_typed_error(
    result: yesquel::Result<Arc<KvServer>>,
    acked: &[Acked],
    context: &str,
) -> Option<usize> {
    match result {
        Ok(server) => Some(assert_clean_prefix(&server, acked, context)),
        Err(Error::WalCorrupt(_)) | Err(Error::Io(_)) => None,
        Err(e) => panic!("{context}: untyped recovery error {e:?}"),
    }
}

#[test]
fn truncation_at_every_byte_boundary() {
    let (acked, segments) = build_reference(8, None);
    assert_eq!(
        segments.len(),
        1,
        "single segment expected before any checkpoint"
    );
    let (name, bytes) = &segments[0];
    let mut recovered_counts = Vec::new();
    for len in 0..=bytes.len() {
        let cut = vec![(name.clone(), with_zero_tail(&bytes[..len]))];
        let (_tmp, result) = rebuild(&cut);
        let ctx = format!("truncate to {len}/{} bytes", bytes.len());
        if let Some(k) = assert_recovers_or_typed_error(result, &acked, &ctx) {
            recovered_counts.push(k);
        }
    }
    // Sanity on the sweep itself: the prefix grows monotonically with the
    // cut, reaches the full history at full length, and starts empty.
    assert!(recovered_counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*recovered_counts.last().unwrap(), acked.len());
    assert_eq!(recovered_counts[0], 0);
}

#[test]
fn byte_flip_storms_recover_prefix_or_fail_typed() {
    let (acked, segments) = build_reference(12, None);
    let (name, bytes) = &segments[0];
    for seed in [11u64, 23, 47, 101, 907] {
        let mut rng = seeded_rng(seed, 2);
        for round in 0..40 {
            let mut corrupt = bytes.clone();
            let flips = rng.gen_range(1..=4u64);
            for _ in 0..flips {
                let pos = rng.gen_range(0..corrupt.len() as u64) as usize;
                let mask = rng.gen_range(1..=255u64) as u8;
                corrupt[pos] ^= mask;
            }
            let case = vec![(name.clone(), with_zero_tail(&corrupt))];
            let (_tmp, result) = rebuild(&case);
            let ctx = format!("seed {seed} round {round} ({flips} flips)");
            assert_recovers_or_typed_error(result, &acked, &ctx);
        }
    }
}

#[test]
fn garbage_tail_is_dropped_without_losing_history() {
    let (acked, segments) = build_reference(10, None);
    let (name, bytes) = &segments[0];
    for seed in [11u64, 23, 47] {
        let mut rng = seeded_rng(seed, 3);
        for _ in 0..20 {
            let mut padded = bytes.clone();
            let tail = rng.gen_range(1..=64u64) as usize;
            for _ in 0..tail {
                padded.push(rng.gen_range(0..=255u64) as u8);
            }
            let case = vec![(name.clone(), with_zero_tail(&padded))];
            let (_tmp, result) = rebuild(&case);
            let server = result.expect("a garbage tail is a torn write, not corruption");
            let k = assert_clean_prefix(&server, &acked, "garbage tail");
            assert_eq!(
                k,
                acked.len(),
                "a garbage tail must not cost any acknowledged commit"
            );
        }
    }
}

#[test]
fn corrupted_checkpoint_is_a_typed_error_not_a_panic() {
    // Checkpointing truncates the old segments, so the only segment starts
    // with a checkpoint record; corrupting that record leaves nothing to
    // fall back to.
    let (acked, segments) = build_reference(10, Some(5));
    assert_eq!(
        segments.len(),
        1,
        "checkpoint must have truncated old segments"
    );
    let (name, bytes) = &segments[0];

    // Flip one byte inside the checkpoint frame (just past the segment
    // header): the segment is unusable and recovery must say so, typed.
    let mut corrupt = bytes.clone();
    corrupt[24] ^= 0xff;
    let case = vec![(name.clone(), with_zero_tail(&corrupt))];
    let (_tmp, result) = rebuild(&case);
    match result {
        Err(Error::WalCorrupt(_)) => {}
        Err(e) => panic!("expected WalCorrupt, got {e:?}"),
        Ok(_) => panic!("a segment with a corrupt leading checkpoint cannot be usable"),
    }

    // Truncating *after* the checkpoint instead keeps at least the
    // checkpointed prefix: sweep a few cuts through the tail half.
    for len in (bytes.len() / 2..=bytes.len()).step_by(7) {
        let cut = vec![(name.clone(), with_zero_tail(&bytes[..len]))];
        let (_tmp, result) = rebuild(&cut);
        let ctx = format!("post-checkpoint truncate to {len}");
        assert_recovers_or_typed_error(result, &acked, &ctx);
    }

    // And the intact file recovers everything.
    let (_tmp, result) = rebuild(&[(name.clone(), with_zero_tail(bytes))]);
    let server = result.unwrap();
    assert_eq!(
        assert_clean_prefix(&server, &acked, "intact checkpointed log"),
        acked.len()
    );
}
