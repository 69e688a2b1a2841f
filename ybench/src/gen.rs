//! Seeded data and operation generators.
//!
//! Everything the system under test sees — row values, statement kinds,
//! parameters — is a pure function of `--seed`, the client number and the
//! order of acknowledgements.  Row ids are the bit-reversal of a counter, so
//! consecutive inserts scatter over the primary tree instead of appending to
//! its rightmost leaf, and **every other column is a hash of the id**: a
//! column derived from the counter itself (`grp = i % 997`) puts two
//! clients' consecutive inserts on the same index leaf and measures the
//! generator's conflicts, not the system's.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;
use yesquel::common::ids::splitmix64;
use yesquel::common::rand_util::{seeded_rng, ScrambledZipfian};

/// The eight statement kinds, in report order: three reads, five writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointSelect,
    TitleSelect,
    Scan16,
    Insert,
    Update,
    UpdateIndexed,
    Delete,
    EditTxn,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::PointSelect,
        Kind::TitleSelect,
        Kind::Scan16,
        Kind::Insert,
        Kind::Update,
        Kind::UpdateIndexed,
        Kind::Delete,
        Kind::EditTxn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointSelect => "point_select",
            Kind::TitleSelect => "title_select",
            Kind::Scan16 => "scan16",
            Kind::Insert => "insert",
            Kind::Update => "update",
            Kind::UpdateIndexed => "update_indexed",
            Kind::Delete => "delete",
            Kind::EditTxn => "edit_txn",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// The read class is the first three kinds; the rest write.
    pub fn is_read(self) -> bool {
        self.index() < 3
    }
}

/// Length of the `body` column; with the other columns a row is ~130 bytes.
pub const BODY_LEN: usize = 100;

/// Range of the preloaded `views` values.
pub const VIEWS_RANGE: u64 = 1000;

/// Row id of the `counter`-th row (counters start at 1).
pub fn row_id(counter: u64) -> i64 {
    (counter.reverse_bits() >> 1) as i64
}

/// Unique title of a row: a bijection of the id, so the unique index never
/// sees a duplicate.
pub fn title_of(id: i64) -> String {
    format!("p{:016x}", splitmix64(id as u64 ^ 0x7469_746c_6500_0000))
}

/// Group of a row, in `0..groups`.
pub fn grp_of(id: i64, groups: u64) -> i64 {
    ((splitmix64(id as u64 ^ 0x6772_7000) >> 8) % groups) as i64
}

/// Preloaded view count of a row.
pub fn views_of(id: i64) -> i64 {
    ((splitmix64(id as u64 ^ 0x7669_6577_7300) >> 8) % VIEWS_RANGE) as i64
}

/// The `version`-th body of a row (version 0 is what inserts write).
pub fn body_of(id: i64, version: u64) -> String {
    let mut x = splitmix64(id as u64 ^ version.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut s = String::with_capacity(BODY_LEN + 16);
    while s.len() < BODY_LEN {
        x = splitmix64(x);
        s.push_str(&format!("{x:016x}"));
    }
    s.truncate(BODY_LEN);
    s
}

/// Payload bytes a user hands over with a row (the write-amplification base).
pub fn row_user_bytes(id: i64) -> u64 {
    (title_of(id).len() + BODY_LEN + 3 * 8) as u64
}

/// One generated operation.  `id` is the target row (for `Scan16` the group
/// is in `grp`); `version` is the new body version of `Update`/`EditTxn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub id: i64,
    pub grp: i64,
    pub version: u64,
}

/// Per-client operation generator.
///
/// Reads pick preloaded rows by scrambled Zipfian (θ = 0.99, Web popularity
/// skew).  Updates pick uniformly among the preloaded rows whose counter is
/// congruent to the client number, so each row has one writer and the
/// client's model of acknowledged values is exact (leaf-level conflicts
/// between clients remain, because ids scatter).  Deletes remove the
/// client's own oldest acknowledged insert, which keeps the table in steady
/// state; a delete drawn while nothing is outstanding becomes an insert.
pub struct OpGen {
    rng: StdRng,
    zipf: ScrambledZipfian,
    rows: u64,
    groups: u64,
    client: u64,
    clients: u64,
    cumulative: [u32; 8],
    next_insert: u64,
    next_version: u64,
    live: VecDeque<i64>,
}

impl OpGen {
    pub fn new(seed: u64, client: usize, clients: usize, rows: u64, mix: &[u32; 8]) -> OpGen {
        let mut cumulative = [0u32; 8];
        let mut total = 0;
        for (c, w) in cumulative.iter_mut().zip(mix) {
            total += w;
            *c = total;
        }
        assert!(total > 0, "a mix needs weight");
        assert!(rows >= clients as u64, "fewer rows than clients");
        OpGen {
            rng: seeded_rng(seed, client as u64),
            zipf: ScrambledZipfian::new(rows, 0.99),
            rows,
            groups: groups_for(rows),
            client: client as u64,
            clients: clients as u64,
            cumulative,
            next_insert: 0,
            next_version: 0,
            live: VecDeque::new(),
        }
    }

    fn pick_kind(&mut self) -> Kind {
        let total = self.cumulative[7];
        let r = self.rng.gen_range(0..total);
        let i = self.cumulative.iter().position(|&c| r < c).unwrap_or(7);
        Kind::ALL[i]
    }

    /// A preloaded row chosen by popularity.
    fn popular_row(&mut self) -> i64 {
        row_id(self.zipf.next(&mut self.rng) + 1)
    }

    /// A preloaded row this client owns for writing, chosen uniformly.
    fn own_row(&mut self) -> i64 {
        let slots = self.rows / self.clients;
        let k = self.rng.gen_range(0..slots) * self.clients + self.client;
        row_id(k + 1)
    }

    /// Id of this client's next fresh row.
    fn fresh_row(&mut self) -> i64 {
        let counter = self.rows + 1 + self.next_insert * self.clients + self.client;
        self.next_insert += 1;
        row_id(counter)
    }

    fn next_version(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    /// Draws the next operation from the mix.
    pub fn next_op(&mut self) -> Op {
        let kind = self.pick_kind();
        self.op_of(kind)
    }

    /// Draws the next operation of one given kind (the ladder's rungs).
    pub fn op_of(&mut self, kind: Kind) -> Op {
        let mut op = Op {
            kind,
            id: 0,
            grp: 0,
            version: 0,
        };
        match kind {
            Kind::PointSelect | Kind::TitleSelect => op.id = self.popular_row(),
            Kind::Scan16 => {
                let id = self.popular_row();
                op.grp = grp_of(id, self.groups);
            }
            Kind::Insert => op.id = self.fresh_row(),
            Kind::Update | Kind::EditTxn => {
                op.id = self.own_row();
                op.version = self.next_version();
            }
            Kind::UpdateIndexed => op.id = self.own_row(),
            Kind::Delete => match self.live.pop_front() {
                Some(id) => op.id = id,
                None => {
                    op.kind = Kind::Insert;
                    op.id = self.fresh_row();
                }
            },
        }
        op
    }

    /// Records that an insert of `id` was acknowledged (it becomes a delete
    /// candidate).
    pub fn acknowledged_insert(&mut self, id: i64) {
        self.live.push_back(id);
    }

    /// This client's acknowledged inserts not yet deleted, oldest first.
    pub fn live(&self) -> &VecDeque<i64> {
        &self.live
    }

    pub fn groups(&self) -> u64 {
        self.groups
    }
}

/// Number of groups for a table of `rows` rows: ~100 rows per group, so a
/// `scan16` reads the first sixth of a group and stops.
pub fn groups_for(rows: u64) -> u64 {
    (rows / 100).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [u32; 8] = [30, 10, 10, 12, 15, 8, 10, 5];

    fn stream(seed: u64, client: usize) -> Vec<Op> {
        let mut g = OpGen::new(seed, client, 2, 5000, &MIX);
        (0..2000)
            .map(|_| {
                let op = g.next_op();
                if op.kind == Kind::Insert {
                    g.acknowledged_insert(op.id);
                }
                op
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_clients_differ() {
        let a = format!("{:?}", stream(7, 0));
        assert_eq!(a, format!("{:?}", stream(7, 0)), "same seed must repeat");
        assert_ne!(a, format!("{:?}", stream(7, 1)), "clients must differ");
        assert_ne!(a, format!("{:?}", stream(8, 0)), "seeds must differ");
    }

    #[test]
    fn every_kind_is_drawn_and_writers_are_partitioned() {
        for client in 0..2 {
            let ops = stream(3, client);
            for kind in Kind::ALL {
                assert!(ops.iter().any(|o| o.kind == kind), "{kind:?} never drawn");
            }
        }
        let written = |c| -> Vec<i64> {
            stream(3, c)
                .into_iter()
                .filter(|o| !o.kind.is_read())
                .map(|o| o.id)
                .collect()
        };
        let (w0, w1) = (written(0), written(1));
        assert!(
            w0.iter().all(|id| !w1.contains(id)),
            "a row has two writers"
        );
    }

    #[test]
    fn ids_and_titles_are_unique() {
        let mut ids: Vec<i64> = (1..=20_000).map(row_id).collect();
        assert!(ids.iter().all(|&id| id > 0));
        let mut titles: Vec<String> = ids.iter().map(|&id| title_of(id)).collect();
        ids.sort_unstable();
        ids.dedup();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!((ids.len(), titles.len()), (20_000, 20_000));
    }

    /// Consecutive counters must not be neighbours in any index order, or
    /// two clients inserting in lockstep would share leaves by construction.
    #[test]
    fn consecutive_counters_scatter_in_every_index() {
        let n = 4096u64;
        let groups = groups_for(100_000);
        let ids: Vec<i64> = (1..=n).map(row_id).collect();
        let mut same_grp = 0;
        let mut near_views = 0;
        let mut near_title = 0;
        let mut near_id = 0;
        for w in ids.windows(2) {
            same_grp += (grp_of(w[0], groups) == grp_of(w[1], groups)) as u32;
            near_views += ((views_of(w[0]) - views_of(w[1])).abs() <= 1) as u32;
            near_title += (title_of(w[0])[..3] == title_of(w[1])[..3]) as u32;
            // 64-cell leaves over 100k rows: neighbours are within 2^63/1500.
            near_id += ((w[0] - w[1]).unsigned_abs() < (1u64 << 63) / 1500) as u32;
        }
        // Chance levels are n/groups, 3n/1000 and n/256; allow 3x.
        assert!(
            same_grp < 3 * (n / groups) as u32 + 8,
            "{same_grp} share a group"
        );
        assert!(near_views < 40, "{near_views} adjacent in views");
        assert!(near_title < 48, "{near_title} share a title prefix");
        assert_eq!(near_id, 0, "{near_id} adjacent ids");
    }

    #[test]
    fn bodies_have_the_stated_length_and_change_with_version() {
        assert_eq!(body_of(42, 0).len(), BODY_LEN);
        assert_ne!(body_of(42, 0), body_of(42, 1));
        assert_ne!(body_of(42, 0), body_of(43, 0));
    }
}
