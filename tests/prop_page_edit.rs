//! Page edits against a model: every edit of a node page must yield the
//! page the from-scratch builder makes for the same contents.
//!
//! The write path never materialises a node — it edits the encoded page
//! (`LeafView::put` / `remove` / `split`, `InnerView::insert_child_after` /
//! `split`, `with_replicas`).  This storm applies random sequences of those
//! edits to a pool of pages and, in step, to plain `BTreeMap` / `Vec` models.
//! After every step the edited page must parse, answer `find` /
//! `lower_bound` / `child_for` / `fence_contains` like the model, and be
//! **byte-identical** to `build(model)`: pages are canonical, which is what
//! replica byte-identity (`prop_replica`) and any deterministic replay of a
//! write rest on.
//!
//! Cell edits are in the storm too: a storage server's store, as a
//! transaction's participant, applies a few puts, puts-if-absent and
//! removes to a leaf the transaction never read, and the page it installs
//! must be the one the client's fetch path would have written and the
//! builder's.  An edit the participant must refuse — a key outside the
//! leaf's fences, a leaf that lists replicas — must be refused, and a
//! put-if-absent of a key the leaf holds must fail as the fetch path's
//! `put_if_absent` does, naming that key; either leaves the leaf as it was.

use std::collections::BTreeMap;

use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yesquel::common::node::CellEdit;
use yesquel::kv::protocol::LeafEdit;
use yesquel::kv::store::{PrepareOutcome, ReadOutcome, ServerStore};
use yesquel::kv::WriteOp;
use yesquel::ydbt::{Bound, InnerView, LeafView, NodeView};
use yesquel::ObjectId;

#[derive(Debug, Clone, PartialEq)]
enum Fence {
    NegInf,
    Key(Vec<u8>),
    PosInf,
}

impl Fence {
    fn bound(&self) -> Bound<'_> {
        match self {
            Fence::NegInf => Bound::NegInf,
            Fence::Key(k) => Bound::Key(k),
            Fence::PosInf => Bound::PosInf,
        }
    }
}

fn contains(lower: &Fence, upper: &Fence, key: &[u8]) -> bool {
    lower.bound().le_key(key) && upper.bound().gt_key(key)
}

#[derive(Debug, Clone)]
struct LeafModel {
    lower: Fence,
    upper: Fence,
    next: Option<u64>,
    replicas: Vec<u64>,
    cells: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl LeafModel {
    fn build(&self) -> Bytes {
        let cells: Vec<(&[u8], &[u8])> = self.cells.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let (lower, upper) = (self.lower.bound(), self.upper.bound());
        LeafView::build(lower, upper, self.next, &self.replicas, &cells).unwrap()
    }

    /// The edited `page` must be the model's page and read like the model.
    fn check(&self, page: &Bytes, rng: &mut StdRng, what: &str) {
        let view = LeafView::parse(page.clone())
            .unwrap_or_else(|e| panic!("{what}: edited leaf does not parse: {e}"));
        assert_eq!(page, &self.build(), "{what}: not the builder's page");
        assert_eq!(view.len(), self.cells.len(), "{what}");
        assert_eq!(view.next(), self.next, "{what}");
        assert_eq!(view.replicas(), self.replicas, "{what}");
        assert_eq!(view.lower(), self.lower.bound(), "{what}");
        assert_eq!(view.upper(), self.upper.bound(), "{what}");
        let mut probes: Vec<Vec<u8>> = (0..6).map(|_| random_key(rng)).collect();
        probes.extend(self.cells.keys().step_by(7).cloned());
        probes.extend(self.cells.keys().next_back().cloned());
        for probe in probes {
            let found = view.find(&probe).unwrap();
            assert_eq!(found.as_deref(), self.cells.get(&probe).map(|v| &v[..]));
            let below = self.cells.range(..probe.clone()).count();
            assert_eq!(view.lower_bound(&probe).unwrap(), below, "{what}");
            let inside = contains(&self.lower, &self.upper, &probe);
            assert_eq!(view.fence_contains(&probe), inside, "{what}");
        }
    }
}

#[derive(Debug, Clone)]
struct InnerModel {
    lower: Fence,
    upper: Fence,
    height: u8,
    replicas: Vec<u64>,
    children: Vec<u64>,
    seps: Vec<Vec<u8>>,
}

impl InnerModel {
    fn build(&self) -> Bytes {
        let seps: Vec<&[u8]> = self.seps.iter().map(|k| &k[..]).collect();
        let (lower, upper) = (self.lower.bound(), self.upper.bound());
        InnerView::build(
            lower,
            upper,
            self.height,
            &self.replicas,
            &self.children,
            &seps,
        )
        .unwrap()
    }

    fn check(&self, page: &Bytes, rng: &mut StdRng, what: &str) {
        let view = InnerView::parse(page.clone())
            .unwrap_or_else(|e| panic!("{what}: edited inner page does not parse: {e}"));
        assert_eq!(page, &self.build(), "{what}: not the builder's page");
        assert_eq!(view.children().collect::<Vec<_>>(), self.children, "{what}");
        assert_eq!(view.height(), self.height, "{what}");
        assert_eq!(view.replicas(), self.replicas, "{what}");
        let mut probes: Vec<Vec<u8>> = (0..6).map(|_| random_key(rng)).collect();
        probes.extend(self.seps.iter().step_by(5).cloned());
        for probe in probes {
            let i = self.seps.partition_point(|k| k[..] <= probe[..]);
            assert_eq!(view.child_for(&probe).unwrap(), self.children[i], "{what}");
            let inside = contains(&self.lower, &self.upper, &probe);
            assert_eq!(view.fence_contains(&probe), inside, "{what}");
        }
    }
}

/// A storage server's store, applying cell edits as a participant would:
/// each leaf is installed as a version, and a later transaction prepares
/// its edits against that version and commits.
struct Participant {
    store: ServerStore,
    ts: u64,
}

impl Participant {
    const LEAF: ObjectId = ObjectId { tree: 1, oid: 1 };

    /// Commits `writes` and `edits` as one sole-participant transaction
    /// reading at the newest timestamp; `Err` with the refusal if refused.
    fn commit(&mut self, writes: &[WriteOp], edits: &[LeafEdit]) -> Result<(), PrepareOutcome> {
        let (txn, start_ts) = (self.ts + 1, self.ts);
        self.ts += 1;
        let lease = Duration::from_secs(60);
        let next_ts = || start_ts + 1;
        let (vote, _) = (self.store)
            .prepare(txn, start_ts, writes, edits, &[0], lease, next_ts)
            .unwrap();
        match vote {
            PrepareOutcome::Prepared(ts, _) => {
                self.store.commit(txn, ts).unwrap();
                Ok(())
            }
            refused @ (PrepareOutcome::EditRefused { .. } | PrepareOutcome::KeyPresent { .. }) => {
                Err(refused)
            }
            other => panic!("unexpected vote {other:?}"),
        }
    }

    /// The page a transaction that never read `page` leaves once its
    /// participant applied `cells` to it, or the refusal, which leaves
    /// `page`.
    fn edit(&mut self, page: &Bytes, cells: Vec<CellEdit>) -> Result<Bytes, PrepareOutcome> {
        let install = WriteOp {
            obj: Self::LEAF,
            value: Some(page.clone()),
        };
        self.commit(&[install], &[]).unwrap();
        let edit = LeafEdit {
            obj: Self::LEAF,
            cells,
            max_cells: 64,
        };
        let edited = self.commit(&[], &[edit]);
        match self.store.get(Self::LEAF, self.ts) {
            ReadOutcome::Value(Some(now)) => {
                assert!(
                    edited.is_ok() || now == *page,
                    "a refused edit changed the leaf"
                );
                edited.map(|()| now)
            }
            other => panic!("the leaf is gone: {other:?}"),
        }
    }
}

/// Short keys over a small alphabet, so random puts hit existing cells and
/// their neighbours often; the empty key is in the domain.
fn random_key(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0usize..5);
    (0..len)
        .map(|_| b"abcd"[rng.gen_range(0usize..4)])
        .collect()
}

/// Values on both sides of every width of the cells' length prefix.
fn random_value(rng: &mut StdRng) -> Vec<u8> {
    let len = match rng.gen_range(0u32..20) {
        0 => 0,
        1 => rng.gen_range(120usize..140),
        2 => rng.gen_range(16_380usize..16_390),
        _ => rng.gen_range(1usize..60),
    };
    vec![rng.gen_range(0u32..256) as u8; len]
}

fn random_replicas(rng: &mut StdRng) -> Vec<u64> {
    let n = rng.gen_range(0usize..4);
    (0..n).map(|_| rng.gen_range(1_000u64..2_000)).collect()
}

/// A separator strictly between the separators around child `i`, if the
/// key space has room for one.
fn separator_after(m: &InnerModel, i: usize, rng: &mut StdRng) -> Option<Vec<u8>> {
    let mut sep = match (i.checked_sub(1), &m.lower) {
        (Some(j), _) => m.seps[j].clone(),
        (None, Fence::Key(k)) => k.clone(),
        (None, _) => Vec::new(),
    };
    sep.extend(random_key(rng));
    sep.push(b"abcd"[rng.gen_range(0usize..4)]);
    let below_next = match (m.seps.get(i), &m.upper) {
        (Some(next), _) => sep < *next,
        (None, Fence::Key(k)) => sep < *k,
        (None, _) => true,
    };
    below_next.then_some(sep)
}

fn storm_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let root = LeafModel {
        lower: Fence::NegInf,
        upper: Fence::PosInf,
        next: None,
        replicas: Vec::new(),
        cells: BTreeMap::new(),
    };
    assert_eq!(root.build(), LeafView::empty_root());
    let mut leaves = vec![root];
    let mut inners = vec![InnerModel {
        lower: Fence::NegInf,
        upper: Fence::PosInf,
        height: 1,
        replicas: Vec::new(),
        children: vec![1],
        seps: Vec::new(),
    }];
    let mut next_oid = 10u64;
    let (mut leaf_splits, mut inner_splits, mut replaced, mut removed) = (0, 0, 0, 0);
    let mut participant = Participant {
        store: ServerStore::new(),
        ts: 1,
    };
    let (mut cell_edits, mut refusals) = (0, 0);
    // Puts-if-absent the participant applied, and ones it found present.
    let (mut absent, mut present) = (0, 0);

    for step in 0..6_000 {
        let what = format!("seed {seed} step {step}");
        // Every step starts from the parsed bytes of the previous result:
        // the builder's page, which the previous check proved identical.
        let pick = rng.gen_range(0u32..20);
        if pick < 5 {
            // Cell edits, applied by a participant to a leaf it stores.
            let at = rng.gen_range(0usize..leaves.len());
            let m = &mut leaves[at];
            let page = m.build();
            // Key → (value or remove, put only if absent).
            let mut edits: BTreeMap<Vec<u8>, (Option<Vec<u8>>, bool)> = BTreeMap::new();
            for _ in 0..rng.gen_range(1usize..4) {
                // Mostly keys the leaf fences: existing ones, or fresh ones
                // drawn until one falls inside.
                let existing = m
                    .cells
                    .keys()
                    .nth(rng.gen_range(0usize..m.cells.len().max(1)));
                let key = match (existing, rng.gen_range(0u32..8)) {
                    (_, 0) => random_key(&mut rng),
                    (Some(k), 1..=3) => k.clone(),
                    _ => (0..16)
                        .map(|_| random_key(&mut rng))
                        .find(|k| contains(&m.lower, &m.upper, k))
                        .unwrap_or_else(|| random_key(&mut rng)),
                };
                let edit = match rng.gen_range(0u32..3) {
                    0 => (None, false),
                    1 => (Some(random_value(&mut rng)), false),
                    _ => (Some(random_value(&mut rng)), true),
                };
                edits.insert(key, edit);
            }
            let cells: Vec<CellEdit> = (edits.iter())
                .map(|(k, (v, if_absent))| CellEdit {
                    key: Bytes::from(k.clone()),
                    value: v.clone().map(Bytes::from),
                    if_absent: *if_absent,
                })
                .collect();
            let refused =
                !m.replicas.is_empty() || edits.keys().any(|k| !contains(&m.lower, &m.upper, k));
            // The first key, in the order the edits apply, that a
            // put-if-absent finds present.
            let held = (edits.iter())
                .find(|(k, (_, if_absent))| *if_absent && m.cells.contains_key(*k))
                .map(|(k, _)| k.clone());
            match participant.edit(&page, cells) {
                Err(PrepareOutcome::EditRefused { reason, .. }) => {
                    assert!(refused, "{what}: refused a valid edit: {reason}");
                    refusals += 1;
                }
                Err(PrepareOutcome::KeyPresent { key, .. }) => {
                    assert!(!refused, "{what}: judged an edit it must refuse");
                    assert_eq!(Some(key.to_vec()), held, "{what}: not the key held");
                    // The fetch path's probe finds it too.
                    let fetched = LeafView::parse(page).unwrap();
                    assert!(
                        fetched.put_if_absent(&key, b"").unwrap().is_none(),
                        "{what}"
                    );
                    present += 1;
                }
                Err(other) => panic!("{what}: unexpected refusal {other:?}"),
                Ok(edited) => {
                    assert!(!refused, "{what}: applied an edit it must refuse");
                    assert_eq!(held, None, "{what}: put a key present");
                    // The page the client's fetch path would have written.
                    let mut fetched = LeafView::parse(page).unwrap();
                    for (key, (value, if_absent)) in &edits {
                        let next = match value {
                            Some(v) if *if_absent => {
                                absent += 1;
                                Some(fetched.put_if_absent(key, v).unwrap().expect("absent"))
                            }
                            Some(v) => Some(fetched.put(key, v).unwrap().0),
                            None => fetched.remove(key).unwrap(),
                        };
                        if let Some(next) = next {
                            fetched = LeafView::parse(next).unwrap();
                        }
                        match value {
                            Some(v) => m.cells.insert(key.clone(), v.clone()),
                            None => m.cells.remove(key),
                        };
                    }
                    assert_eq!(&edited, fetched.page(), "{what}: not the fetch path's page");
                    m.check(&edited, &mut rng, &what);
                    cell_edits += 1;
                }
            }
        } else if pick < 15 {
            let at = rng.gen_range(0usize..leaves.len());
            let m = &mut leaves[at];
            let view = LeafView::parse(m.build()).unwrap();
            match rng.gen_range(0u32..100) {
                // put: a fresh key, or an existing one with a shorter,
                // equal-length or longer value.
                0..=54 => {
                    let existing = m
                        .cells
                        .keys()
                        .nth(rng.gen_range(0usize..m.cells.len().max(1)));
                    let (key, value) = match existing {
                        Some(k) if rng.gen_range(0u32..3) == 0 => {
                            let old = &m.cells[k];
                            let value = match rng.gen_range(0u32..3) {
                                0 => old[..old.len() / 2].to_vec(),
                                1 => vec![0xee; old.len()],
                                _ => [&old[..], &random_value(&mut rng)[..]].concat(),
                            };
                            (k.clone(), value)
                        }
                        _ => (random_key(&mut rng), random_value(&mut rng)),
                    };
                    let present = m.cells.contains_key(&key);
                    assert_eq!(
                        view.put_if_absent(&key, &value).unwrap().is_none(),
                        present,
                        "{what}"
                    );
                    let (page, hit) = view.put(&key, &value).unwrap();
                    assert_eq!(hit, present, "{what}: put {key:?}");
                    replaced += usize::from(hit);
                    m.cells.insert(key, value);
                    m.check(&page, &mut rng, &what);
                }
                // remove: an existing key or (often) a missing one.
                55..=84 => {
                    let key = match m
                        .cells
                        .keys()
                        .nth(rng.gen_range(0usize..m.cells.len().max(1)))
                    {
                        Some(k) if rng.gen_range(0u32..2) == 0 => k.clone(),
                        _ => random_key(&mut rng),
                    };
                    let page = view.remove(&key).unwrap();
                    assert_eq!(page.is_some(), m.cells.remove(&key).is_some(), "{what}");
                    removed += usize::from(page.is_some());
                    m.check(
                        &page.unwrap_or_else(|| view.page().clone()),
                        &mut rng,
                        &what,
                    );
                }
                85..=92 if m.cells.len() >= 2 => {
                    let right_oid = next_oid;
                    next_oid += 1;
                    let (left, right, sep) = view.split(right_oid).unwrap();
                    let mid_key = m.cells.keys().nth(m.cells.len() / 2).unwrap().clone();
                    assert_eq!(&sep[..], &mid_key[..], "{what}");
                    let right_model = LeafModel {
                        lower: Fence::Key(mid_key.clone()),
                        upper: m.upper.clone(),
                        next: m.next,
                        replicas: Vec::new(),
                        cells: m.cells.split_off(&mid_key),
                    };
                    m.upper = Fence::Key(mid_key);
                    m.next = Some(right_oid);
                    m.replicas.clear();
                    m.check(&left, &mut rng, &what);
                    right_model.check(&right, &mut rng, &what);
                    leaf_splits += 1;
                    leaves.push(right_model);
                    if leaves.len() > 12 {
                        leaves.swap_remove(rng.gen_range(0usize..12));
                    }
                }
                // set-replicas / clear-replicas.
                _ => {
                    m.replicas = random_replicas(&mut rng);
                    let page = NodeView::Leaf(view).with_replicas(&m.replicas).unwrap();
                    m.check(&page, &mut rng, &what);
                }
            }
        } else {
            let at = rng.gen_range(0usize..inners.len());
            let m = &mut inners[at];
            let view = InnerView::parse(m.build()).unwrap();
            match rng.gen_range(0u32..100) {
                0..=69 => {
                    let i = rng.gen_range(0usize..m.children.len());
                    let Some(sep) = separator_after(m, i, &mut rng) else {
                        continue;
                    };
                    let page = view.insert_child_after(i, &sep, next_oid).unwrap();
                    m.seps.insert(i, sep);
                    m.children.insert(i + 1, next_oid);
                    next_oid += 1;
                    m.check(&page, &mut rng, &what);
                }
                70..=89 if m.children.len() >= 3 => {
                    let (left, right, sep) = view.split().unwrap();
                    let mid = m.children.len() / 2;
                    assert_eq!(&sep[..], &m.seps[mid - 1][..], "{what}");
                    let right_model = InnerModel {
                        lower: Fence::Key(sep.to_vec()),
                        upper: m.upper.clone(),
                        height: m.height,
                        replicas: Vec::new(),
                        children: m.children.split_off(mid),
                        seps: m.seps.split_off(mid),
                    };
                    m.seps.pop();
                    m.upper = Fence::Key(sep.to_vec());
                    m.replicas.clear();
                    m.check(&left, &mut rng, &what);
                    right_model.check(&right, &mut rng, &what);
                    inner_splits += 1;
                    inners.push(right_model);
                    if inners.len() > 6 {
                        inners.swap_remove(rng.gen_range(0usize..6));
                    }
                }
                _ => {
                    m.replicas = random_replicas(&mut rng);
                    let page = NodeView::Inner(view).with_replicas(&m.replicas).unwrap();
                    m.check(&page, &mut rng, &what);
                }
            }
        }
    }
    println!(
        "seed {seed}: leaf_splits={leaf_splits} inner_splits={inner_splits} \
         replaced={replaced} removed={removed} oids={next_oid} \
         cell_edits={cell_edits} refusals={refusals} \
         put_if_absent: applied={absent} present={present}"
    );
    // The storm must have reached every kind of edit.
    assert!(leaf_splits > 10 && inner_splits > 5 && replaced > 100 && removed > 100);
    assert!(cell_edits > 100 && refusals > 50);
    assert!(absent > 20 && present > 20);
}

#[test]
fn page_edit_storm_seed_matrix() {
    // CI pins CHAOS_SEED to fan seeds out across jobs; locally all run.
    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        storm_case(seed.parse().expect("CHAOS_SEED must be a u64"));
        return;
    }
    for seed in [11, 23, 47, 101, 907] {
        storm_case(seed);
    }
}
