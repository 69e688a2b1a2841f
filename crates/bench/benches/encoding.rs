//! Benchmarks of node and key encodings: the per-fetch parse cost is paid
//! on every RPC of every tree operation, so this is the innermost hot loop
//! of the whole system.  The headline number is `node/point_probe_leaf64`:
//! one point probe through a [`LeafView`] — parse the page header plus an
//! O(log n) binary search over the cell-offset directory, decoding only the
//! keys it compares and allocating nothing.  The `leaf_*` / `inner_*`
//! benches time the page edits every tree write is made of: one allocation
//! and one copy of the page per edit.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use yesquel_common::encoding::{order_decode_i64, order_encode_i64};
use yesquel_ydbt::{Bound, InnerView, LeafView};

fn sample_leaf(cells: usize, value_len: usize) -> Bytes {
    let value = vec![0xabu8; value_len];
    let keys: Vec<[u8; 8]> = (0..cells).map(|i| order_encode_i64(i as i64)).collect();
    let cells: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &value[..])).collect();
    LeafView::build(Bound::NegInf, Bound::PosInf, None, &[], &cells).unwrap()
}

fn sample_inner(children: usize) -> Bytes {
    let keys: Vec<[u8; 8]> = (1..children).map(|i| order_encode_i64(i as i64)).collect();
    let seps: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
    let children: Vec<u64> = (0..children as u64).map(|i| 100 + i).collect();
    let lower = order_encode_i64(0);
    InnerView::build(Bound::Key(&lower), Bound::PosInf, 1, &[], &children, &seps).unwrap()
}

/// A key absent from the samples that sorts right after key `i`: one byte
/// longer.
fn key_after(i: i64) -> [u8; 9] {
    let mut key = [1u8; 9];
    key[..8].copy_from_slice(&order_encode_i64(i));
    key
}

fn bench_node_edits(c: &mut Criterion) {
    let leaf = LeafView::parse(sample_leaf(64, 100)).unwrap();
    let inner = InnerView::parse(sample_inner(64)).unwrap();
    let value = vec![0xcdu8; 100];

    // What `Dbt::insert` pays per leaf beyond the fetch: probe + one-pass
    // copy into an exactly sized page.
    c.bench_function("node/leaf_put_64x100B", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 37) % 64;
            black_box(leaf.put(&key_after(i), &value).unwrap())
        });
    });
    c.bench_function("node/leaf_replace_64x100B", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 37) % 64;
            black_box(leaf.put(&order_encode_i64(i), &value).unwrap())
        });
    });
    c.bench_function("node/leaf_remove_64x100B", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 37) % 64;
            black_box(leaf.remove(&order_encode_i64(i)).unwrap())
        });
    });
    c.bench_function("node/leaf_split_64x100B", |b| {
        b.iter(|| black_box(leaf.split(4242).unwrap()))
    });
    c.bench_function("node/inner_insert_child_64", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 29) % 64;
            let sep = key_after(i as i64);
            black_box(inner.insert_child_after(i, &sep, 4242).unwrap())
        });
    });
}

fn bench_node_views(c: &mut Criterion) {
    let leaf_buf = sample_leaf(64, 100);
    let inner_buf = sample_inner(64);

    // The paper's point-read inner loop: validate the page and binary-search
    // one key, touching O(log 64) cells instead of decoding all 64.
    c.bench_function("node/point_probe_leaf64", |b| {
        let view = LeafView::parse(leaf_buf.clone()).unwrap();
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 37) % 64;
            let key = order_encode_i64(i);
            black_box(view.find(&key).unwrap())
        });
    });
    // Parse alone (what a leaf fetch now pays instead of a full decode).
    c.bench_function("node/view_parse_leaf64x100B", |b| {
        b.iter(|| black_box(LeafView::parse(leaf_buf.clone()).unwrap()))
    });
    // Inner-node routing through the separator directory (the per-level
    // cost of a cached descent).
    c.bench_function("node/child_for_inner64", |b| {
        let view = InnerView::parse(inner_buf.clone()).unwrap();
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 29) % 64;
            let key = order_encode_i64(i);
            black_box(view.child_for(&key).unwrap())
        });
    });
}

fn bench_key_codec(c: &mut Criterion) {
    c.bench_function("encoding/order_encode_i64", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37);
            black_box(order_encode_i64(i))
        });
    });
    let k = order_encode_i64(123_456_789);
    c.bench_function("encoding/order_decode_i64", |b| {
        b.iter(|| black_box(order_decode_i64(&k).unwrap()))
    });
}

criterion_group!(
    encoding_benches,
    bench_node_edits,
    bench_node_views,
    bench_key_codec
);
criterion_main!(encoding_benches);
