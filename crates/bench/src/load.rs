//! Multi-threaded closed-loop load harness.
//!
//! The criterion benches measure single-threaded operation latency; this
//! module measures what they cannot: throughput and tail latency under
//! **concurrent** clients, which is where group commit and overlapped 2PC
//! rounds actually earn their keep.  `N` client
//! threads each run a closed loop (issue an operation, wait for it, issue
//! the next) against one in-process deployment of `M` storage servers,
//! drawing operations from a weighted mix of op classes:
//!
//! * `select` — SQL point select by primary key over a preloaded table,
//! * `insert` — SQL insert of a fresh row (no write-write conflicts),
//! * `scan`   — SQL bounded range scan (`>= ? AND < ? ORDER BY ... LIMIT`),
//! * `kv_1pc` — a raw KV transaction writing objects on one server
//!   (one-phase commit),
//! * `kv_2pc` — a raw KV transaction writing objects on two distinct
//!   servers (two-phase commit, its prepares submitted as one round).
//!
//! Contention is controlled by `key_pool`: KV writes pick their objects
//! uniformly from a pool of that many keys, so a small pool forces
//! write-write conflicts (visible as `kv.txn_conflicts` in the report).
//! Every run reports ops/sec, exact nearest-rank p50/p99/p999 latency per
//! op class, the deployment counters that explain the numbers (fsyncs,
//! group sizes, two-phase commits, replica reads and promotions), and
//! every non-empty latency histogram (log-bucketed, relative error
//! ≤ 1/64) so each cell carries full per-subsystem distributions, not just
//! per-class percentiles.  The
//! `load` bench binary sweeps these specs and writes
//! `BENCH_10_LOAD.json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yesquel::{params, Yesquel};
use yesquel_common::config::SplitMode;
use yesquel_common::stats::HistogramSummary;
use yesquel_common::tempdir::TempDir;
use yesquel_common::{DbtConfig, NetConfig, ObjectId, WalFsyncPolicy, YesquelConfig};
use yesquel_kv::KvDatabase;
use yesquel_rpc::TransportKind;

/// The operation classes a load mix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// SQL point select by primary key.
    Select,
    /// SQL insert of a fresh row.
    Insert,
    /// SQL bounded range scan.
    Scan,
    /// Raw KV write transaction confined to one server (1PC).
    Kv1pc,
    /// Raw KV write transaction spanning two servers (2PC).
    Kv2pc,
}

impl OpClass {
    /// All classes, in report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Select,
        OpClass::Insert,
        OpClass::Scan,
        OpClass::Kv1pc,
        OpClass::Kv2pc,
    ];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Select => "select",
            OpClass::Insert => "insert",
            OpClass::Scan => "scan",
            OpClass::Kv1pc => "kv_1pc",
            OpClass::Kv2pc => "kv_2pc",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Select => 0,
            OpClass::Insert => 1,
            OpClass::Scan => 2,
            OpClass::Kv1pc => 3,
            OpClass::Kv2pc => 4,
        }
    }
}

/// The mixed read/write workload used by the scaling sweeps.
pub fn mixed_mix() -> Vec<(OpClass, u32)> {
    vec![
        (OpClass::Select, 35),
        (OpClass::Insert, 15),
        (OpClass::Scan, 10),
        (OpClass::Kv1pc, 25),
        (OpClass::Kv2pc, 15),
    ]
}

/// The commit-heavy workload used by the `wal_fsync` sweep: every
/// operation ends in a durable commit, so fsync policy dominates.
pub fn commit_mix() -> Vec<(OpClass, u32)> {
    vec![(OpClass::Kv1pc, 60), (OpClass::Kv2pc, 40)]
}

/// The read-heavy workload used by the replication sweep: dominated by
/// point selects (which, aimed at a small hot range via
/// [`LoadSpec::hot_select_range`], all land on one leaf) plus a trickle of
/// inserts so the write-all path runs under the same load.
pub fn read_heavy_mix() -> Vec<(OpClass, u32)> {
    vec![(OpClass::Select, 90), (OpClass::Insert, 10)]
}

/// One load-harness configuration cell.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Sweep label (e.g. `"scaling"`, `"wal"`).
    pub workload: String,
    /// Number of closed-loop client threads.
    pub threads: usize,
    /// Number of storage servers.
    pub servers: usize,
    /// How long the measured phase runs.
    pub duration: Duration,
    /// Weighted op mix (weights need not sum to anything particular).
    pub mix: Vec<(OpClass, u32)>,
    /// KV write key-pool size per server; smaller is hotter.
    pub key_pool: u64,
    /// `None` runs without a write-ahead log; `Some(policy)` attaches one
    /// per server under a temp directory with the given fsync policy.
    pub wal: Option<WalFsyncPolicy>,
    /// Transport between clients and servers.
    pub transport: TransportKind,
    /// Simulated network/service model; `None` keeps the free default.
    /// The scale-out sweeps set slept latency + per-request service time
    /// so the bottleneck is modelled server capacity, not host cores.
    pub net: Option<NetConfig>,
    /// Seed for the per-thread operation generators.
    pub seed: u64,
    /// DBT configuration override.  `None` keeps the harness baseline
    /// (synchronous splits, load splits and replication off) so cells stay
    /// comparable across reports; the replication sweep supplies a full
    /// config here.
    pub dbt: Option<DbtConfig>,
    /// When set, point selects draw their ids from `0..n` instead of the
    /// whole preloaded table — a deliberate read hot spot landing on one
    /// DBT leaf, the workload hot-node replication exists for.
    pub hot_select_range: Option<i64>,
    /// When set, inserted ids are the bit-reversal of the shared counter
    /// instead of the counter itself: still unique, but spread uniformly
    /// over the id domain rather than all appending to the rightmost
    /// leaf.  Sequential append makes concurrent inserts conflict-storm
    /// on one page (a real hotspot, documented in ROADMAP "Scale-out");
    /// the replication sweep scatters them so its read-scaling signal is
    /// not drowned by that separate, already-known collapse.
    pub scatter_inserts: bool,
    /// Record latency histograms during the measured phase (two clock reads
    /// per instrumented site).  On by default so every report cell carries
    /// full latency distributions next to its nearest-rank percentiles.
    pub obs_timing: bool,
    /// Sample 1-in-N operations into a full trace (0 = off).  The overhead
    /// cell sets this to disclose the cost of sampled tracing honestly.
    pub trace_sample_every: u32,
}

impl LoadSpec {
    /// A spec with the mixed workload and library defaults everywhere else.
    pub fn new(workload: &str, threads: usize, servers: usize, duration: Duration) -> Self {
        LoadSpec {
            workload: workload.to_string(),
            threads,
            servers,
            duration,
            mix: mixed_mix(),
            key_pool: 1024,
            wal: None,
            transport: TransportKind::Direct,
            net: None,
            seed: 0x10ad,
            dbt: None,
            hot_select_range: None,
            scatter_inserts: false,
            obs_timing: true,
            trace_sample_every: 0,
        }
    }

    /// Stable label for the WAL column of the report.
    pub fn wal_label(&self) -> String {
        match self.wal {
            None => "none".to_string(),
            Some(WalFsyncPolicy::Off) => "off".to_string(),
            Some(WalFsyncPolicy::Always) => "always".to_string(),
            Some(WalFsyncPolicy::Group { window_us }) => format!("group{window_us}"),
        }
    }
}

/// Latency summary for one op class within a run.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Which class.
    pub class: OpClass,
    /// Operations completed successfully.
    pub count: u64,
    /// Operations that failed (after the client library's own retries).
    pub errors: u64,
    /// Nearest-rank percentiles over successful-op latencies, microseconds.
    pub p50_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
}

/// The outcome of one `run_load` cell.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// The spec that produced this result (WAL label pre-rendered).
    pub workload: String,
    /// Client threads.
    pub threads: usize,
    /// Storage servers.
    pub servers: usize,
    /// WAL column label (`none`/`off`/`always`/`group{window}`).
    pub wal: String,
    /// KV write key-pool size.
    pub key_pool: u64,
    /// Measured wall-clock duration, seconds.
    pub elapsed_s: f64,
    /// Total successful operations across all classes.
    pub ops: u64,
    /// Throughput.
    pub ops_per_sec: f64,
    /// Per-class latency summaries (only classes present in the mix).
    pub classes: Vec<ClassStats>,
    /// Selected deployment counters after the run.
    pub counters: Vec<(String, u64)>,
    /// Every non-empty latency histogram after the run: name, summary, and
    /// the non-zero `[low, high, count]` buckets (a consumer can recompute
    /// any quantile).  Empty when the cell ran with `obs_timing` off.
    pub histograms: Vec<HistogramCell>,
}

/// One exported histogram: name, summary, and its non-zero
/// `(low, high, count)` buckets.
pub type HistogramCell = (String, HistogramSummary, Vec<(u64, u64, u64)>);

/// Exact nearest-rank percentile: the smallest sample such that at least
/// `q` of the distribution is ≤ it.  `sorted` must be ascending and
/// non-empty; `q` in (0, 1].  With `n` samples the rank is `ceil(q·n)`
/// clamped to `[1, n]`, so p50 of `[10, 20]` is 10 (the first sample
/// already covers half the distribution) and any percentile of a single
/// sample is that sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts `samples` and returns `(p50, p99, p999)`; all zero when empty.
pub fn latency_summary(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    (
        percentile(samples, 0.50),
        percentile(samples, 0.99),
        percentile(samples, 0.999),
    )
}

/// The counters worth reporting alongside throughput: they explain *why*
/// a cell is fast or slow (fsyncs amortised, commits that took two phases,
/// conflicts suffered).
const REPORT_COUNTERS: [&str; 11] = [
    "wal.appends",
    "wal.fsyncs",
    "wal.group_size",
    "wal.group_solo",
    "kv.txn_conflicts",
    "kv.txn_retries",
    "kv.commit_2pc",
    "dbt.replica_reads",
    "dbt.replica_fanout_writes",
    "dbt.replica_promotions",
    "dbt.load_splits",
];

// KV load objects live in their own tree id, far above anything the SQL
// catalog will ever allocate, so raw writes never collide with table trees.
const LOAD_TREE: u64 = 0x10ad_0000_0000;

/// Rows preloaded into the SQL table for selects and scans.
const SQL_ROWS: i64 = 512;

/// Runs one load cell: builds the deployment, preloads it, drives the
/// closed loop from `spec.threads` threads for `spec.duration`, and
/// summarises.
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    let mut cfg = YesquelConfig::with_servers(spec.servers);
    match &spec.dbt {
        Some(dbt) => cfg.dbt = dbt.clone(),
        None => {
            // Baseline: no background tree maintenance, so cells measure the
            // swept variable and nothing else (and stay comparable with
            // reports recorded before hot-node replication existed).
            cfg.dbt.split_mode = SplitMode::Synchronous;
            cfg.dbt.load_splits = false;
            cfg.dbt.replicate_hot_nodes = false;
        }
    }
    if let Some(net) = &spec.net {
        cfg.net = net.clone();
    }
    let _wal_tmp: Option<TempDir> = spec.wal.map(|policy| {
        let tmp = TempDir::new("yesquel-load-wal").expect("load harness tempdir");
        cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
        cfg.kv.wal_fsync = policy;
        tmp
    });
    let db = KvDatabase::with_transport(cfg, spec.transport);
    db.stats().obs().set_timing(spec.obs_timing);
    db.stats().obs().set_sample_every(spec.trace_sample_every);
    let y = Yesquel::open_db(db).expect("load harness bootstrap");

    // Preload the SQL side.
    y.execute(
        "CREATE TABLE load (id INTEGER PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)",
        &[],
    )
    .expect("create load table");
    {
        let ins = y
            .session()
            .prepare("INSERT INTO load (id, grp, val) VALUES (?, ?, ?)")
            .expect("prepare preload insert");
        for i in 0..SQL_ROWS {
            ins.execute(params![i, i % 16, 0]).expect("preload row");
        }
    }
    y.engine().wait_for_splits();

    // Build per-server KV object pools: walk oids, bucketing by home
    // server, until every server has its share of the key pool.
    let per_server_pool = ((spec.key_pool as usize) / spec.servers).max(4);
    let mut pools: Vec<Vec<ObjectId>> = vec![Vec::new(); spec.servers];
    let mut oid = yesquel_common::ids::FIRST_NODE_OID;
    while pools.iter().any(|p| p.len() < per_server_pool) {
        let obj = ObjectId::new(LOAD_TREE, oid);
        let home = obj.home_server(spec.servers);
        if pools[home].len() < per_server_pool {
            pools[home].push(obj);
        }
        oid += 1;
    }

    // Drop everything accumulated during preload — counters, latency
    // histograms, and the slow-op ring — so the report reflects the
    // measured phase only.
    y.db().stats().reset();

    let insert_next = AtomicU64::new(SQL_ROWS as u64 + 1_000_000);
    let started = Instant::now();
    let deadline = started + spec.duration;

    let merged: Vec<ThreadRecord> = std::thread::scope(|scope| {
        let pools = &pools;
        let insert_next = &insert_next;
        let y = &y;
        (0..spec.threads)
            .map(|t| {
                scope.spawn(move || run_thread(y, spec, pools, insert_next, deadline, t as u64))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    // Merge per-thread records into per-class summaries.
    let mut classes = Vec::new();
    let mut total_ops = 0u64;
    for class in OpClass::ALL {
        let i = class.index();
        if !spec.mix.iter().any(|&(c, w)| c == class && w > 0) {
            continue;
        }
        let mut lats: Vec<u64> = Vec::new();
        let mut errors = 0u64;
        for rec in &merged {
            lats.extend_from_slice(&rec.latencies_us[i]);
            errors += rec.errors[i];
        }
        let count = lats.len() as u64;
        total_ops += count;
        let (p50_us, p99_us, p999_us) = latency_summary(&mut lats);
        classes.push(ClassStats {
            class,
            count,
            errors,
            p50_us,
            p99_us,
            p999_us,
        });
    }

    let stats = y.db().stats();
    let counters = REPORT_COUNTERS
        .iter()
        .map(|&name| (name.to_string(), stats.counter(name).get()))
        .collect();
    let histograms = stats
        .histogram_snapshot()
        .into_iter()
        .filter(|(_, s)| s.count > 0)
        .map(|(name, summary)| {
            let buckets = stats.histogram(&name).nonzero_buckets();
            (name, summary, buckets)
        })
        .collect();

    let elapsed_s = elapsed.as_secs_f64();
    LoadResult {
        workload: spec.workload.clone(),
        threads: spec.threads,
        servers: spec.servers,
        wal: spec.wal_label(),
        key_pool: spec.key_pool,
        elapsed_s,
        ops: total_ops,
        ops_per_sec: total_ops as f64 / elapsed_s.max(1e-9),
        classes,
        counters,
        histograms,
    }
}

/// What one client thread brings home.
struct ThreadRecord {
    latencies_us: [Vec<u64>; 5],
    errors: [u64; 5],
}

fn run_thread(
    y: &Yesquel,
    spec: &LoadSpec,
    pools: &[Vec<ObjectId>],
    insert_next: &AtomicU64,
    deadline: Instant,
    thread_id: u64,
) -> ThreadRecord {
    let session = y.new_session().expect("load thread session");
    let client = y.db().client();
    let sel = session
        .prepare("SELECT id, grp, val FROM load WHERE id = ?")
        .expect("prepare select");
    let scan = session
        .prepare("SELECT id, val FROM load WHERE id >= ? AND id < ? ORDER BY id LIMIT 16")
        .expect("prepare scan");
    let ins = session
        .prepare("INSERT INTO load (id, grp, val) VALUES (?, ?, ?)")
        .expect("prepare insert");

    let mut rng = StdRng::seed_from_u64(spec.seed ^ (thread_id.wrapping_mul(0x9e37_79b9)));
    let weight_total: u32 = spec.mix.iter().map(|&(_, w)| w).sum();
    assert!(weight_total > 0, "load mix has no weight");

    let mut rec = ThreadRecord {
        latencies_us: Default::default(),
        errors: [0; 5],
    };
    let mut payload_counter = 0u64;
    let select_range = spec.hot_select_range.unwrap_or(SQL_ROWS).clamp(1, SQL_ROWS);

    while Instant::now() < deadline {
        // Weighted class pick.
        let mut roll = rng.gen_range(0..weight_total);
        let class = spec
            .mix
            .iter()
            .find(|&&(_, w)| {
                if roll < w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .map(|&(c, _)| c)
            .expect("weighted pick within total");

        let start = Instant::now();
        let outcome: Result<(), yesquel_common::Error> = match class {
            OpClass::Select => {
                let id = rng.gen_range(0..select_range);
                sel.execute(params![id]).map(|_| ())
            }
            OpClass::Scan => {
                let lo = rng.gen_range(0..SQL_ROWS.max(33) - 32);
                scan.execute(params![lo, lo + 32]).map(|_| ())
            }
            OpClass::Insert => {
                let seq = insert_next.fetch_add(1, Ordering::Relaxed);
                // Bit-reversal is a bijection, so scattered ids stay
                // unique; keeping 40 bits keeps them positive i64s far
                // above the preloaded 0..SQL_ROWS range.
                let id = if spec.scatter_inserts {
                    (seq.reverse_bits() >> 24) as i64
                } else {
                    seq as i64
                };
                ins.execute(params![id, id % 16, 1]).map(|_| ())
            }
            OpClass::Kv1pc => {
                // One server, two objects: still a single-server txn, so
                // the coordinator uses one-phase commit.
                let server = rng.gen_range(0..spec.servers);
                let pool = &pools[server];
                let a = pool[rng.gen_range(0..pool.len())];
                let b = pool[rng.gen_range(0..pool.len())];
                payload_counter += 1;
                let payload = payload_counter.to_le_bytes().to_vec();
                client
                    .run_txn(|txn| {
                        txn.put(a, payload.clone())?;
                        if b != a {
                            txn.put(b, payload.clone())?;
                        }
                        Ok(())
                    })
                    .map(|_| ())
            }
            OpClass::Kv2pc => {
                // Two distinct servers (degrades to 1PC on a one-server
                // deployment, where 2PC cannot exist).
                let s1 = rng.gen_range(0..spec.servers);
                let s2 = if spec.servers > 1 {
                    (s1 + 1 + rng.gen_range(0..spec.servers - 1)) % spec.servers
                } else {
                    s1
                };
                let a = pools[s1][rng.gen_range(0..pools[s1].len())];
                let b = pools[s2][rng.gen_range(0..pools[s2].len())];
                payload_counter += 1;
                let payload = payload_counter.to_le_bytes().to_vec();
                client
                    .run_txn(|txn| {
                        txn.put(a, payload.clone())?;
                        if b != a {
                            txn.put(b, payload.clone())?;
                        }
                        Ok(())
                    })
                    .map(|_| ())
            }
        };
        let i = class.index();
        match outcome {
            Ok(()) => rec.latencies_us[i].push(start.elapsed().as_micros() as u64),
            Err(_) => rec.errors[i] += 1,
        }
    }
    rec
}

/// Renders one result as a single JSON object line (hand-rolled; the
/// offline build has no serde).
pub fn render_result(r: &LoadResult) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"threads\": {}, \"servers\": {}, \"wal\": \"{}\", \
         \"key_pool\": {}, \"elapsed_s\": {:.3}, \"ops\": {}, \
         \"ops_per_sec\": {:.1}, \"classes\": [",
        r.workload, r.threads, r.servers, r.wal, r.key_pool, r.elapsed_s, r.ops, r.ops_per_sec
    );
    for (i, c) in r.classes.iter().enumerate() {
        let comma = if i + 1 == r.classes.len() { "" } else { ", " };
        let _ = write!(
            out,
            "{{\"class\": \"{}\", \"count\": {}, \"errors\": {}, \"p50_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}}}{comma}",
            c.class.name(),
            c.count,
            c.errors,
            c.p50_us,
            c.p99_us,
            c.p999_us
        );
    }
    let _ = write!(out, "], \"counters\": {{");
    for (i, (name, v)) in r.counters.iter().enumerate() {
        let comma = if i + 1 == r.counters.len() { "" } else { ", " };
        let _ = write!(out, "\"{name}\": {v}{comma}");
    }
    let _ = write!(out, "}}, \"histograms\": {{");
    for (i, (name, s, buckets)) in r.histograms.iter().enumerate() {
        let comma = if i + 1 == r.histograms.len() {
            ""
        } else {
            ", "
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"p999\": {}, \"max\": {}, \"buckets\": [",
            s.count, s.mean, s.p50, s.p90, s.p99, s.p999, s.max
        );
        for (j, (lo, hi, c)) in buckets.iter().enumerate() {
            let bcomma = if j + 1 == buckets.len() { "" } else { ", " };
            let _ = write!(out, "[{lo}, {hi}, {c}]{bcomma}");
        }
        let _ = write!(out, "]}}{comma}");
    }
    let _ = write!(out, "}}}}");
    out
}

/// Renders a full sweep as the stable `BENCH_*_LOAD.json` layout: a
/// header, then one result object per line under `"runs"`.
pub fn render_load_report(label: &str, description: &str, results: &[LoadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(out, "  \"description\": \"{description}\",");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{comma}", render_result(r));
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_known_uniform_distribution() {
        // 1..=100: nearest-rank pX is exactly X, and p99.9 rounds up to
        // the maximum.
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 0.999), 100);
        assert_eq!(percentile(&sorted, 1.0), 100);
    }

    #[test]
    fn percentile_tiny_samples() {
        // A single sample is every percentile.
        assert_eq!(percentile(&[42], 0.50), 42);
        assert_eq!(percentile(&[42], 0.999), 42);
        // Two samples: rank ceil(0.5 * 2) = 1 -> the first covers p50.
        assert_eq!(percentile(&[10, 20], 0.50), 10);
        assert_eq!(percentile(&[10, 20], 0.99), 20);
        // Four samples: p50 is the second, p99/p999 the last.
        assert_eq!(percentile(&[1, 2, 3, 4], 0.50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.999), 4);
    }

    #[test]
    fn percentile_skewed_distribution() {
        // 990 fast samples and 10 slow ones: p50/p99 sit in the fast
        // cluster, p999 lands in the tail.
        let mut samples: Vec<u64> = vec![100; 990];
        samples.extend(std::iter::repeat_n(10_000, 10));
        samples.sort_unstable();
        assert_eq!(percentile(&samples, 0.50), 100);
        assert_eq!(percentile(&samples, 0.99), 100);
        assert_eq!(percentile(&samples, 0.999), 10_000);
    }

    #[test]
    fn latency_summary_sorts_and_handles_empty() {
        assert_eq!(latency_summary(&mut Vec::new()), (0, 0, 0));
        let mut unsorted = vec![30, 10, 20];
        assert_eq!(latency_summary(&mut unsorted), (20, 30, 30));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_rejects_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    fn percentile_matches_histogram_quantile_within_relative_error() {
        // Satellite cross-check: the harness's exact nearest-rank
        // percentiles and the log-bucketed histogram's quantiles must agree
        // within the histogram's documented relative-error bound on the
        // same sample set. Mix a fast cluster, a mid band and a heavy tail
        // so every quantile of interest lands in a different bucket regime.
        use yesquel_common::obs::hist::{Histogram, MAX_RELATIVE_ERROR};
        let mut samples: Vec<u64> = Vec::new();
        samples.extend((0..600).map(|i| 80 + i % 40)); // fast cluster
        samples.extend((0..350).map(|i| 1_500 + i * 7)); // mid band
        samples.extend((0..50).map(|i| 90_000 + i * 1_000)); // heavy tail
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        for q in [0.50, 0.90, 0.99, 0.999] {
            let exact = percentile(&samples, q) as f64;
            let bucketed = hist.quantile(q) as f64;
            // The histogram reports the midpoint of the containing bucket,
            // so it can land on either side of the exact value but never
            // further than half the bucket's width.
            let rel = (bucketed - exact).abs() / exact;
            assert!(
                rel <= MAX_RELATIVE_ERROR,
                "q{q}: bucketed {bucketed} vs exact {exact}: rel err {rel} > {MAX_RELATIVE_ERROR}"
            );
        }
    }

    #[test]
    fn render_result_is_balanced_json() {
        let r = LoadResult {
            workload: "t".into(),
            threads: 2,
            servers: 2,
            wal: "group100".into(),
            key_pool: 64,
            elapsed_s: 0.5,
            ops: 10,
            ops_per_sec: 20.0,
            classes: vec![ClassStats {
                class: OpClass::Kv2pc,
                count: 10,
                errors: 0,
                p50_us: 5,
                p99_us: 9,
                p999_us: 9,
            }],
            counters: vec![("wal.fsyncs".into(), 3)],
            histograms: vec![(
                "kv.commit.prepare_us".into(),
                HistogramSummary {
                    count: 4,
                    mean: 7.5,
                    p50: 7,
                    p90: 9,
                    p99: 9,
                    p999: 9,
                    max: 9,
                },
                vec![(7, 7, 2), (8, 9, 2)],
            )],
        };
        let s = render_result(&r);
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.contains("\"kv_2pc\""));
        assert!(s.contains("\"wal.fsyncs\": 3"));
        assert!(s.contains("\"kv.commit.prepare_us\""));
        assert!(s.contains("[7, 7, 2]"));
        let report = render_load_report("BENCH_TEST_LOAD", "unit test", &[r]);
        assert_eq!(report.matches('{').count(), report.matches('}').count());
        assert!(!report.contains("},\n  ]"), "no trailing comma: {report}");
    }

    #[test]
    fn tiny_load_run_completes_and_counts_ops() {
        // A sub-100ms smoke of the whole closed loop: every op class, two
        // threads, two servers, and the WAL in group mode — a forced log,
        // so every prepare round waits for flushes on both servers' logs.
        let mut spec = LoadSpec::new("unit", 2, 2, Duration::from_millis(60));
        spec.key_pool = 64;
        spec.wal = Some(WalFsyncPolicy::Group { window_us: 50 });
        let r = run_load(&spec);
        assert!(r.ops > 0, "closed loop made no progress: {r:?}");
        assert_eq!(r.classes.len(), 5, "all mixed classes present");
        let two_phase = r
            .counters
            .iter()
            .find(|(n, _)| n == "kv.commit_2pc")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(two_phase > 0, "no commit took two phases");
    }

    #[test]
    fn tiny_replicated_load_run_promotes_hot_leaf() {
        // Read-heavy closed loop over a deliberate hot range with the
        // replication machinery on: the hot leaf must get promoted and the
        // run must finish with consistent answers (errors == 0 for selects).
        let mut spec = LoadSpec::new("unit_replication", 2, 2, Duration::from_millis(150));
        spec.mix = read_heavy_mix();
        spec.hot_select_range = Some(8);
        spec.dbt = Some(DbtConfig {
            split_mode: SplitMode::Delegated,
            load_splits: true,
            load_split_threshold: 40,
            replica_factor: 1,
            ..DbtConfig::default()
        });
        let r = run_load(&spec);
        assert!(r.ops > 0, "closed loop made no progress: {r:?}");
        let counter = |n: &str| {
            r.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(
            counter("dbt.replica_promotions") >= 1,
            "hot leaf was never promoted: {r:?}"
        );
        let selects = r
            .classes
            .iter()
            .find(|c| c.class == OpClass::Select)
            .unwrap();
        assert_eq!(selects.errors, 0, "replicated reads must not fail: {r:?}");
    }
}
