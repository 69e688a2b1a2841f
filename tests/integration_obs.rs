//! Integration tests of the observability subsystem end to end: EXPLAIN
//! ANALYZE per-operator reports cross-checked against the global stats
//! counters, the pay-as-you-go guarantee (zero clock reads and zero
//! observability allocations on the untraced fast path), sampled tracing
//! into the slow-op ring, and the unified reset + windowed snapshot flow
//! the load harness relies on between cells.

use std::time::{Duration, Instant};

use yesquel::common::config::YesquelConfig;
use yesquel::common::obs::clock;
use yesquel::rpc::TransportKind;
use yesquel::sql::Value;
use yesquel::{params, DbtConfig, KvDatabase, NetConfig, Yesquel};

/// 50 rows, 5 per `views` value, with a secondary index on `views`.
fn fixture() -> Yesquel {
    let y = Yesquel::open(4);
    y.execute_script(
        "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, views INT);
         CREATE INDEX by_views ON pages (views);",
    )
    .unwrap();
    for i in 0..50i64 {
        y.execute(
            "INSERT INTO pages (title, views) VALUES (?, ?)",
            &[Value::Text(format!("page-{i:02}")), Value::Int(i % 10)],
        )
        .unwrap();
    }
    y
}

fn int_at(row: &[Value], idx: usize) -> i64 {
    match &row[idx] {
        Value::Int(i) => *i,
        other => panic!("expected int at column {idx}, got {other:?}"),
    }
}

/// The first report row whose operator column starts with `prefix`.
fn op_row<'a>(rows: &'a [Vec<Value>], prefix: &str) -> &'a Vec<Value> {
    rows.iter()
        .find(|r| matches!(&r[0], Value::Text(t) if t.starts_with(prefix)))
        .unwrap_or_else(|| panic!("no operator row starting with {prefix:?} in {rows:?}"))
}

// Report columns: operator, rows_in, rows_out, kv_fetches, fetchbacks,
// elapsed_us.
const ROWS_IN: usize = 1;
const ROWS_OUT: usize = 2;
const KV_FETCHES: usize = 3;
const FETCHBACKS: usize = 4;

#[test]
fn explain_analyze_warm_point_select_fetches_exactly_one_leaf() {
    let y = fixture();
    let stats = y.db().stats();
    let ea = y
        .prepare("EXPLAIN ANALYZE SELECT title FROM pages WHERE id = ?")
        .unwrap();
    // First run warms the descent (root and inner nodes cached); the
    // second is the measured one.
    ea.execute(params![7]).unwrap();
    let before = stats.counter("dbt.node_fetches").get();
    let rs = ea.execute(params![7]).unwrap();
    let fetched = (stats.counter("dbt.node_fetches").get() - before) as i64;

    let leaf = op_row(&rs.rows, "point pages");
    assert_eq!(
        int_at(leaf, KV_FETCHES),
        1,
        "warm point select = 1 leaf fetch"
    );
    assert_eq!(int_at(leaf, FETCHBACKS), 0);
    assert_eq!(int_at(leaf, ROWS_OUT), 1);

    let total = op_row(&rs.rows, "total");
    assert_eq!(int_at(total, KV_FETCHES), 1);
    assert_eq!(
        int_at(total, KV_FETCHES),
        fetched,
        "reported kv_fetches must equal the dbt.node_fetches counter delta"
    );
    assert_eq!(int_at(total, ROWS_OUT), 1);
}

#[test]
fn explain_analyze_fetch_counts_match_stats_counter_deltas() {
    let y = fixture();
    let stats = y.db().stats();
    // Non-covering index scan: the by_views index yields rowids, every
    // row's title is fetched back from the base table.
    let ea = y
        .prepare("EXPLAIN ANALYZE SELECT title FROM pages WHERE views = ?")
        .unwrap();
    ea.execute(params![3]).unwrap();
    let before = stats.snapshot();
    let rs = ea.execute(params![3]).unwrap();
    let deltas = stats.snapshot().counter_delta(&before);

    let node_fetches = deltas.get("dbt.node_fetches").copied().unwrap_or(0)
        + deltas.get("dbt.scan_leaf_fetches").copied().unwrap_or(0);
    let fetchbacks = deltas.get("sql.fetchbacks").copied().unwrap_or(0);

    let total = op_row(&rs.rows, "total");
    assert_eq!(int_at(total, KV_FETCHES) as u64, node_fetches);
    assert_eq!(int_at(total, FETCHBACKS) as u64, fetchbacks);
    assert_eq!(int_at(total, ROWS_OUT), 5, "5 rows carry views = 3");
    assert!(fetchbacks >= 5, "one fetch-back per matching row");

    // The fetch-backs happen inside the index leaf's row production, so
    // they are charged to the leaf operator.
    let leaf = op_row(&rs.rows, "index pages.by_views");
    assert_eq!(int_at(leaf, FETCHBACKS) as u64, fetchbacks);
}

#[test]
fn covering_index_scan_reports_zero_fetchbacks() {
    let y = fixture();
    let stats = y.db().stats();
    let ea = y
        .prepare("EXPLAIN ANALYZE SELECT views FROM pages WHERE views = ?")
        .unwrap();
    ea.execute(params![4]).unwrap();
    let before = stats.counter("sql.covering_scans").get();
    let rs = ea.execute(params![4]).unwrap();
    assert!(
        stats.counter("sql.covering_scans").get() > before,
        "selecting only the indexed column is served from the index"
    );
    let leaf = op_row(&rs.rows, "index pages.by_views");
    assert!(
        matches!(&leaf[0], Value::Text(t) if t.contains("covering")),
        "leaf label advertises the covering read: {:?}",
        leaf[0]
    );
    assert_eq!(int_at(leaf, FETCHBACKS), 0);
    let total = op_row(&rs.rows, "total");
    assert_eq!(int_at(total, FETCHBACKS), 0);
    assert_eq!(int_at(total, ROWS_OUT), 5);
}

#[test]
fn order_by_limit_reports_exactly_limit_plus_offset_rows_examined() {
    let y = fixture();
    let ea = y
        .prepare("EXPLAIN ANALYZE SELECT id, title FROM pages ORDER BY id LIMIT 5 OFFSET 2")
        .unwrap();
    ea.execute(&[]).unwrap();
    let rs = ea.execute(&[]).unwrap();
    // ORDER BY the primary key streams in key order: the limit stops the
    // scan after limit + offset entries, which the leaf's rows_in exposes.
    let leaf = op_row(&rs.rows, "scan pages");
    assert_eq!(
        int_at(leaf, ROWS_IN),
        7,
        "scan examined limit + offset rows"
    );
    assert_eq!(int_at(leaf, ROWS_OUT), 7);
    let limit = op_row(&rs.rows, "limit");
    assert_eq!(int_at(limit, ROWS_OUT), 5);
    let total = op_row(&rs.rows, "total");
    assert_eq!(int_at(total, ROWS_OUT), 5);
}

#[test]
fn untraced_fast_path_reads_no_clocks_and_allocates_nothing() {
    // Default configuration: timing off, sampling off.  All observability
    // clock reads and allocations self-report through thread-local
    // tallies, and the direct transport executes server work on the
    // calling thread, so a zero delta here covers every layer.
    let y = Yesquel::open(2);
    y.execute_script("CREATE TABLE kvt (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    let ins = y.prepare("INSERT INTO kvt (id, v) VALUES (?, ?)").unwrap();
    for i in 0..20i64 {
        ins.execute(params![i, i]).unwrap();
    }
    let sel = y.prepare("SELECT v FROM kvt WHERE id = ?").unwrap();
    sel.execute(params![5]).unwrap();

    let clocks = clock::clock_reads();
    let allocs = clock::tracked_allocs();
    for i in 0..100i64 {
        sel.execute(params![i % 20]).unwrap();
        ins.execute(params![100 + i, i]).unwrap();
    }
    assert_eq!(
        clock::clock_reads(),
        clocks,
        "untraced ops must not read the clock"
    );
    assert_eq!(
        clock::tracked_allocs(),
        allocs,
        "untraced ops must not allocate for observability"
    );

    // Off means off on a network with a modelled cost too: the cost is
    // charged, and no histogram records it or anything else.
    let y = Yesquel::open_with(YesquelConfig {
        net: NetConfig {
            one_way_latency_us: 50,
            sleep_latency: false,
            ..NetConfig::default()
        },
        ..YesquelConfig::with_servers(2)
    });
    y.execute_script("CREATE TABLE kvt (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..5i64 {
        y.execute("INSERT INTO kvt (id, v) VALUES (?, ?)", params![i, i])
            .unwrap();
        y.execute("SELECT v FROM kvt WHERE id = ?", params![i])
            .unwrap();
    }
    let stats = y.db().stats();
    assert!(stats.counter("net.charged_us").get() > 0);
    for (name, h) in stats.histogram_snapshot() {
        assert_eq!(h.count, 0, "{name} recorded with timing off");
    }
}

/// Turns timing on or off, traces every op and keeps every trace.
fn trace_everything(y: &Yesquel, timing: bool) {
    let obs = y.db().stats().obs();
    obs.set_timing(timing);
    obs.set_sample_every(1);
    obs.set_slow_threshold_us(0);
}

#[test]
fn sampled_tracing_populates_the_slow_op_ring() {
    let y = Yesquel::open(2);
    trace_everything(&y, true);
    y.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..10i64 {
        y.execute("INSERT INTO t (v) VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    y.execute("SELECT COUNT(*) FROM t", &[]).unwrap();

    let ring = y.db().stats().obs().slow_ring();
    assert!(!ring.is_empty(), "every traced op clears a 0us threshold");
    let dump = ring.dump_json();
    assert!(dump.contains("\"label\": \"sql.execute\""), "dump: {dump}");
    assert!(dump.contains("\"spans\""));
    // Balanced JSON, consumable as-is.
    assert_eq!(dump.matches('{').count(), dump.matches('}').count());
    assert_eq!(dump.matches('[').count(), dump.matches(']').count());
}

#[test]
fn unified_reset_clears_counters_histograms_and_ring() {
    let y = Yesquel::open(2);
    trace_everything(&y, true);
    y.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    y.execute("INSERT INTO t (v) VALUES (1)", &[]).unwrap();
    y.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();

    let stats = y.db().stats();
    assert!(stats.counter("sql.parses").get() > 0);
    let hist = &stats.histogram_snapshot()["sql.stmt_us.select"];
    assert!(hist.count > 0, "timing on records statement latency");
    assert!(!stats.obs().slow_ring().is_empty());

    stats.reset();
    assert_eq!(stats.counter("sql.parses").get(), 0);
    assert_eq!(stats.histogram_snapshot()["sql.stmt_us.select"].count, 0);
    assert!(stats.obs().slow_ring().is_empty());

    // The windowed flow the load harness uses between cells: snapshot,
    // work, delta — the window sees exactly its own operations.
    let before = stats.snapshot();
    // Fresh statement text: a repeat of the pre-reset select would hit
    // the plan cache (which a stats reset rightly leaves alone) and
    // never reach the parser.
    y.execute("SELECT v FROM t WHERE id = 1 + 0", &[]).unwrap();
    let delta = stats.snapshot().counter_delta(&before);
    assert_eq!(delta.get("sql.parses").copied().unwrap_or(0), 1);
    assert_eq!(
        stats.histogram_snapshot()["sql.stmt_us.select"].count,
        1,
        "one select since the reset"
    );
}

/// Every RPC an op issues is counted on its trace, wherever it completes:
/// the calls of a prefetch or prepare round and the secondaries' decisions
/// nobody waits for are all submitted on the op's thread.  Over the
/// threaded transport, a sampled INSERT into a two-index table reports as
/// many `rpcs` as `rpc.calls` moved once its decisions have landed.
#[test]
fn a_sampled_insert_counts_every_rpc_of_its_rounds() {
    let mut config = YesquelConfig::with_servers(4);
    // Nothing but the statement issues RPCs: splits run inside it, and
    // neither load splits nor replication start background work.
    config.dbt = DbtConfig {
        load_splits: false,
        replicate_hot_nodes: false,
        ..DbtConfig::ablation_sync_splits()
    };
    let workers = TransportKind::Threaded {
        workers_per_server: 2,
    };
    let y = Yesquel::open_db(KvDatabase::with_transport(config, workers)).unwrap();
    trace_everything(&y, false);
    y.execute_script(
        "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, views INT);
         CREATE UNIQUE INDEX by_title ON pages (title);
         CREATE INDEX by_views ON pages (views);",
    )
    .unwrap();
    const INSERT: &str = "INSERT INTO pages (id, title, views) VALUES (?, ?, ?)";
    let calls = y.db().stats().counter("rpc.calls");
    // Waits until no RPC has landed for a while: the decisions of the last
    // commit are in.
    let settle = || {
        let mut last = calls.get();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = calls.get();
            if now == last {
                return now;
            }
            last = now;
        }
    };
    for i in 0..4i64 {
        y.execute(INSERT, params![i, format!("page-{i}"), i * 10])
            .unwrap();
    }
    let ring = y.db().stats().obs().slow_ring();
    let two_phase = y.db().stats().counter("kv.commit_2pc");
    let (before, two_phase_before) = (settle(), two_phase.get());
    ring.clear();
    y.execute(INSERT, params![100, "page-100", 1000]).unwrap();
    let traced = ring
        .snapshot()
        .into_iter()
        .find(|r| r.label == "sql.execute")
        .expect("the sampled INSERT is in the ring")
        .counter("rpcs");
    assert_eq!(
        two_phase.get() - two_phase_before,
        1,
        "an insert into three trees commits on several servers"
    );
    let deadline = Instant::now() + Duration::from_secs(2);
    while calls.get() - before < traced && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        calls.get() - before,
        traced,
        "the trace must count every RPC the INSERT issued"
    );
}
