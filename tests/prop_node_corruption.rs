//! Robustness of the node page codec against corrupt input.
//!
//! Node pages travel through the key-value store and (in a real deployment)
//! the network, so the views must treat every byte as hostile: truncated
//! buffers, out-of-range directory offsets, overlapping cells and garbage
//! tags must all surface as `Err(Corruption)` — never a panic or an
//! out-of-bounds read.  The randomized sections byte-flip and truncate
//! valid pages and then exercise **every** accessor and **every edit** of
//! the resulting views; a flip that happens to leave the page well-formed is
//! fine (the data is simply different, and an edit of it must again be a
//! page that parses), a panic is a bug.

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use yesquel::common::{Error, Result};
use yesquel::ydbt::{Bound, InnerView, LeafView, NodeView};

fn leaf_page(
    lower: Bound<'_>,
    upper: Bound<'_>,
    next: Option<u64>,
    replicas: &[u64],
    cells: &[(Vec<u8>, Vec<u8>)],
) -> Vec<u8> {
    let refs: Vec<(&[u8], &[u8])> = cells.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    LeafView::build(lower, upper, next, replicas, &refs)
        .unwrap()
        .to_vec()
}

/// A spread of leaf shapes: empty, single-cell, empty keys/values, many
/// cells, finite and infinite fences, with and without a sibling.  The last
/// one is the 64-cell page the single-page tests damage.
fn sample_leaves() -> Vec<Vec<u8>> {
    let many: Vec<(Vec<u8>, Vec<u8>)> = (0..64u8)
        .map(|i| {
            let key = format!("k{:03}", u32::from(i) * 7).into_bytes();
            (key, vec![i; (i % 13) as usize])
        })
        .collect();
    let cell = |k: &str, v: &str| (k.as_bytes().to_vec(), v.as_bytes().to_vec());
    vec![
        LeafView::empty_root().to_vec(),
        leaf_page(Bound::NegInf, Bound::PosInf, None, &[], &[cell("", "")]),
        leaf_page(
            Bound::Key(b"a"),
            Bound::PosInf,
            Some(7),
            &[],
            &[cell("a", "1"), cell("b", ""), cell("c", "333")],
        ),
        leaf_page(
            Bound::Key(b"k000"),
            Bound::Key(b"k999"),
            Some(4242),
            &[11, 12],
            &many,
        ),
    ]
}

fn sample_inners() -> Vec<Vec<u8>> {
    let seps: Vec<Vec<u8>> = (1..64).map(|i| format!("s{i:03}").into_bytes()).collect();
    let seps: Vec<&[u8]> = seps.iter().map(|k| &k[..]).collect();
    let children: Vec<u64> = (0..64).collect();
    let (neg, pos) = (Bound::NegInf, Bound::PosInf);
    [
        InnerView::build(neg, pos, 1, &[], &[9], &[]),
        InnerView::build(
            Bound::Key(b"g"),
            Bound::Key(b"zz"),
            3,
            &[77],
            &[1, 2],
            &[b"m"],
        ),
        InnerView::build(neg, pos, 1, &[], &children, &seps),
    ]
    .into_iter()
    .map(|page| page.unwrap().to_vec())
    .collect()
}

fn sample_pages() -> Vec<Vec<u8>> {
    let mut pages = sample_leaves();
    pages.extend(sample_inners());
    pages
}

/// An edit of a page that parsed must yield a page that parses too.
fn reparse(edited: Bytes) -> Result<()> {
    NodeView::parse(edited).map(|_| ())
}

/// Drives every accessor and every edit of a parsed view.  Errors are fine
/// (and expected for corrupt pages); panics and out-of-bounds reads are what
/// this guards against.
fn exercise(page: &[u8]) -> Result<()> {
    let view = NodeView::parse(Bytes::copy_from_slice(page))?;
    view.height();
    reparse(view.with_replicas(&[])?)?;
    reparse(view.with_replicas(&[5, 6])?)?;
    match view {
        NodeView::Leaf(l) => {
            l.fence_contains(b"");
            l.fence_contains(b"k050");
            l.upper_fence_below(b"k050");
            l.next();
            l.replicas();
            for i in 0..l.len() {
                l.cell(i)?;
                l.cell_bytes(i)?;
            }
            l.find(b"k014")?;
            l.find(b"")?;
            l.lower_bound(b"k")?;
            // Present, absent-in-the-middle, below-all and above-all keys.
            for key in [&b"k014"[..], b"k015", b"", b"zzzz"] {
                reparse(l.put(key, b"value")?.0)?;
                reparse(l.put(key, b"")?.0)?;
                if let Some(page) = l.put_if_absent(key, &[7u8; 200])? {
                    reparse(page)?;
                }
                if let Some(page) = l.remove(key)? {
                    reparse(page)?;
                }
            }
            if l.len() >= 2 {
                let (left, right, _) = l.split(99)?;
                reparse(left)?;
                reparse(right)?;
            }
        }
        NodeView::Inner(i) => {
            i.fence_contains(b"m");
            i.replicas();
            i.first_child();
            i.children().count();
            i.child_for(b"")?;
            i.child_for(b"s031")?;
            i.child_for(b"zzz")?;
            for at in [0, i.len() / 2, i.len() - 1] {
                reparse(i.insert_child_after(at, b"s0315", 4242)?)?;
            }
            if i.len() >= 3 {
                let (left, right, _) = i.split()?;
                reparse(left)?;
                reparse(right)?;
            }
        }
    }
    Ok(())
}

fn assert_corruption(r: Result<()>, what: &str) {
    match r {
        Err(Error::Corruption(_)) => {}
        Err(other) => panic!("{what}: expected Corruption, got {other:?}"),
        Ok(()) => panic!("{what}: corrupt page decoded successfully"),
    }
}

#[test]
fn valid_pages_exercise_cleanly() {
    for page in sample_pages() {
        exercise(&page).expect("every read and edit of a valid page succeeds");
    }
}

#[test]
fn garbage_tags_rejected() {
    let mut buf = sample_leaves().pop().unwrap();
    for tag in [0x00u8, 0x01, 0x7f, 0xd1, 0xd2, 0xff] {
        buf[0] = tag;
        assert_corruption(exercise(&buf), &format!("tag 0x{tag:02x}"));
    }
}

#[test]
fn every_truncation_errors_or_decodes_cleanly() {
    // Chopping a valid page at any length must never panic; any successful
    // parse must also survive full accessor and edit exercise.
    for page in sample_pages() {
        for cut in 0..page.len() {
            let _ = exercise(&page[..cut]);
        }
    }
}

#[test]
fn out_of_range_directory_offsets_rejected() {
    // Leaf directory entries start at byte 14 (tag 1 + flags 1 + next 8 +
    // ncells 4); each is a big-endian u32 absolute offset.
    const LEAF_DIR_START: usize = 14;
    let good = sample_leaves().pop().unwrap();
    for (i, bad_off) in [(0usize, u32::MAX), (1, 0), (5, u32::MAX - 7)] {
        let mut bad = good.clone();
        let at = LEAF_DIR_START + 4 * i;
        bad[at..at + 4].copy_from_slice(&bad_off.to_be_bytes());
        assert_corruption(exercise(&bad), &format!("dir[{i}] = {bad_off}"));
    }
    // Inner directory entries start after the header (7 bytes) and the
    // fixed-width child array.
    let good = sample_inners().pop().unwrap();
    let dir_start = 7 + 8 * 64;
    let mut bad = good.clone();
    bad[dir_start..dir_start + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_corruption(exercise(&bad), "inner dir[0] out of range");
}

#[test]
fn overlapping_cells_rejected() {
    // Shift a later directory entry so that the preceding cell's slot can
    // no longer hold the cell it frames: decode must report corruption.
    const LEAF_DIR_START: usize = 14;
    let cells = [
        (b"aaaa".to_vec(), b"11111111".to_vec()),
        (b"bbbb".to_vec(), b"22222222".to_vec()),
    ];
    let good = leaf_page(Bound::NegInf, Bound::PosInf, None, &[], &cells);
    let off0 = u32::from_be_bytes(good[LEAF_DIR_START..LEAF_DIR_START + 4].try_into().unwrap());
    let mut bad = good;
    bad[LEAF_DIR_START + 4..LEAF_DIR_START + 8].copy_from_slice(&(off0 + 2).to_be_bytes());
    assert_corruption(exercise(&bad), "overlapping cells");
}

#[test]
fn random_byte_flips_never_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_c0de);
    for page in &sample_pages() {
        for _round in 0..2000 {
            let mut mutated = page.clone();
            // 1–4 random byte flips anywhere in the page.
            let flips = rng.gen_range(1usize..=4);
            for _ in 0..flips {
                let at = rng.gen_range(0usize..mutated.len());
                mutated[at] ^= 1 << rng.gen_range(0u32..8);
            }
            // Occasionally also truncate.
            if rng.gen_range(0u32..4) == 0 {
                let cut = rng.gen_range(0usize..=mutated.len());
                mutated.truncate(cut);
            }
            // Corruption errors are expected; panics are bugs.  A flip may
            // also leave a structurally valid page with different data —
            // exercise() walking it without panicking is the whole point.
            let _ = exercise(&mutated);
        }
    }
}

#[test]
fn random_multi_flip_storms_never_panic() {
    // Heavier damage: flip up to 32 bytes at once so whole header fields
    // (counts, offsets, flags) are scrambled.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xdead_beef);
    let base = sample_leaves().pop().unwrap();
    for _round in 0..5000 {
        let mut mutated = base.clone();
        for _ in 0..rng.gen_range(1usize..=32) {
            let at = rng.gen_range(0usize..mutated.len());
            mutated[at] = (rng.gen_range(0u32..256)) as u8;
        }
        let _ = exercise(&mutated);
    }
}
