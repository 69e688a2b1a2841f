//! The multi-threaded load harness entry point: sweeps closed-loop load
//! cells over thread count, server count, `wal_fsync` policy, contention,
//! hot-node replication and observability mode, printing one JSON line per cell and (with
//! `LOAD_JSON_OUT=<path>`) writing the full `BENCH_*_LOAD.json` report.
//!
//! * `BENCH_SMOKE=1` or `LOAD_SMOKE=1`: a seconds-long CI smoke — two
//!   threads, two servers, all three fsync policies, tiny cells — that
//!   proves the harness runs end to end.
//! * Otherwise: the full sweep (a few minutes). `LOAD_CELL_MS` overrides
//!   the per-cell measured duration (default 1200 ms).

use std::time::Duration;

use yesquel_bench::load::{
    commit_mix, read_heavy_mix, render_load_report, run_load, LoadResult, LoadSpec,
};
use yesquel_common::config::SplitMode;
use yesquel_common::{DbtConfig, NetConfig, WalFsyncPolicy};
use yesquel_rpc::TransportKind;

const WAL_POLICIES: [WalFsyncPolicy; 4] = [
    WalFsyncPolicy::Off,
    WalFsyncPolicy::Always,
    WalFsyncPolicy::Group { window_us: 50 },
    WalFsyncPolicy::Group { window_us: 100 },
];

/// The modelled network for the scale-out sweeps: slept 50us one-way
/// latency plus 500us of slept per-request *service time* occupying a
/// server worker.  With the bottleneck in slept time rather than host
/// CPU, per-server capacity is `workers / service_time` (here one worker
/// -> 2k requests/s per server) and the scaling curve is measurable on
/// any machine, even a single-core CI box whose own CPU ceiling sits far
/// above the modelled aggregate.
fn modelled_net() -> NetConfig {
    NetConfig {
        one_way_latency_us: 50,
        bytes_per_us: 0,
        sleep_latency: true,
        service_time_us: 500,
    }
}

/// The scale-out mix: commit-dominated (1PC/2PC RPCs are what consume
/// modelled server capacity) plus warm SQL point selects.  SQL inserts
/// are deliberately excluded here: every insert lands on the same few
/// DBT leaf pages of one table, so under many threads they serialize on
/// write-write conflicts and retry backoff — a real hotspot (the paper
/// solves it with load-aware splitting, still an open item), but one
/// that would swamp the server-capacity signal this sweep is after.
/// Inserts stay covered by the smoke cells' default mixed workload.
fn scale_mix() -> Vec<(yesquel_bench::load::OpClass, u32)> {
    use yesquel_bench::load::OpClass;
    vec![
        (OpClass::Select, 20),
        (OpClass::Kv1pc, 50),
        (OpClass::Kv2pc, 30),
    ]
}

/// DBT configuration of the replication sweep.  Both the "on" and the
/// "off" cells use this — identical delegated maintenance, load splits,
/// and threshold — so the only swept variable is `replicate_hot_nodes`
/// itself.  The factor is high enough that a hot node gets a copy on
/// every server (capped at `servers - 1` at promotion time), and the
/// low threshold keeps the promotion ramp-up short relative to the
/// measured cell.
fn replication_dbt(replicate: bool) -> DbtConfig {
    DbtConfig {
        split_mode: SplitMode::Delegated,
        load_splits: true,
        load_split_threshold: 200,
        replica_factor: 7,
        replicate_hot_nodes: replicate,
        ..DbtConfig::default()
    }
}

fn run_cell(spec: LoadSpec, results: &mut Vec<LoadResult>) {
    let r = run_load(&spec);
    println!("{}", yesquel_bench::load::render_result(&r));
    results.push(r);
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok() || std::env::var("LOAD_SMOKE").is_ok();
    let cell_ms: u64 = std::env::var("LOAD_CELL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 40 } else { 1200 });
    let cell = Duration::from_millis(cell_ms);
    let mut results = Vec::new();

    if smoke {
        // Tiny cells across all three fsync policies: the point is that
        // every code path (WAL group commit, parallel fan-out)
        // executes, not that the numbers mean anything.
        for policy in WAL_POLICIES {
            let mut spec = LoadSpec::new("smoke", 2, 2, cell);
            spec.wal = Some(policy);
            run_cell(spec, &mut results);
        }
        // One replicated cell so the read-any/write-all path runs in CI:
        // read-heavy traffic on a small hot range with the replication
        // machinery on.
        let mut spec = LoadSpec::new(
            "smoke_replication",
            2,
            2,
            cell.max(Duration::from_millis(80)),
        );
        spec.mix = read_heavy_mix();
        spec.hot_select_range = Some(8);
        spec.scatter_inserts = true;
        spec.dbt = Some(replication_dbt(true));
        run_cell(spec, &mut results);
        // One sampled-tracing cell so the span machinery (trace start,
        // per-layer spans, slow-op ring) runs end to end in CI.
        let mut spec = LoadSpec::new("smoke_traced", 2, 2, cell);
        spec.trace_sample_every = 8;
        run_cell(spec, &mut results);
        maybe_write_report(&results, "smoke run");
        return;
    }

    // Sweep A — scaling: commit-dominated workload over threads x
    // servers under the modelled network (slept latency + per-request
    // service time on one worker per server).  Each server serves 2k
    // requests/s; as client threads grow, a small deployment saturates
    // while a larger one keeps scaling — the paper's scale-out curve.
    // The parallel fan-out has real waits to overlap here.
    for &servers in &[1usize, 2, 4, 8] {
        for &threads in &[1usize, 2, 4, 8, 16] {
            let mut spec = LoadSpec::new("scaling", threads, servers, cell);
            spec.mix = scale_mix();
            spec.transport = TransportKind::Threaded {
                workers_per_server: 1,
            };
            spec.net = Some(modelled_net());
            run_cell(spec, &mut results);
        }
    }

    // Sweep B — durability: commit-heavy workload against a real on-disk
    // WAL under each fsync policy, over thread count.  This is the
    // group-commit amortisation curve: `always` pays one fsync per
    // commit regardless of concurrency; `group{100}` lets concurrent
    // committers share, so it crosses over as threads grow.  One server,
    // so the thread count IS the number of committers sharing that
    // server's log; Direct transport so commit concurrency is bounded by
    // client threads, not server workers.
    for policy in WAL_POLICIES {
        for &threads in &[1usize, 2, 4, 8, 16] {
            let mut spec = LoadSpec::new("wal", threads, 1, cell);
            spec.mix = commit_mix();
            spec.wal = Some(policy);
            spec.key_pool = 4096;
            run_cell(spec, &mut results);
        }
    }

    // Sweep C — contention: same commit-heavy workload, hot vs cool key
    // pool, under the modelled network.  The hot pool forces write-write
    // conflicts (first-committer-wins aborts plus client retries) and
    // shows up in kv.txn_conflicts.
    for &key_pool in &[64u64, 4096] {
        let mut spec = LoadSpec::new("contention", 8, 4, cell);
        spec.mix = commit_mix();
        spec.key_pool = key_pool;
        spec.transport = TransportKind::Threaded {
            workers_per_server: 1,
        };
        spec.net = Some(modelled_net());
        run_cell(spec, &mut results);
    }

    // Sweep D — replication: point selects aimed at a SINGLE hot row,
    // over server count, with hot-node replication on vs off and
    // everything else — delegated maintenance, load splits, threshold —
    // held identical.  One row is the case load splits cannot help: a
    // read-heavy leaf with replication off does load-split, but the hot
    // row lands in exactly one half, so its heat follows one page down
    // to a single-cell leaf and stays on one server whose modelled
    // capacity (2k requests/s) caps read throughput no matter how many
    // servers exist — the curve is flat.  On, that page is promoted to
    // a replica set spanning every server and read-any spreads the
    // fetches, so the curve climbs with server count.  The mix is pure
    // selects: an insert trickle turns out to drown the signal in
    // closed-loop conflict-retry stalls (all fresh ids funnel into the
    // one rightmost leaf — see the mixed pair below, which measures
    // exactly that cost).
    for &servers in &[1usize, 2, 4, 8] {
        for &replication in &[false, true] {
            let name = if replication {
                "replication_on"
            } else {
                "replication_off"
            };
            let mut spec = LoadSpec::new(name, 16, servers, cell);
            spec.mix = vec![(yesquel_bench::load::OpClass::Select, 100)];
            spec.hot_select_range = Some(1);
            spec.dbt = Some(replication_dbt(replication));
            spec.transport = TransportKind::Threaded {
                workers_per_server: 1,
            };
            spec.net = Some(modelled_net());
            run_cell(spec, &mut results);
        }
    }

    // Sweep D' — the same hot-range read traffic with a 10% trickle of
    // scattered-id inserts, at a fixed deployment: the honest cost view.
    // Inserts conflict-retry on the tail leaf and stall the closed loop
    // in both cells (too few land per heat window to trip a load split);
    // the on-cell additionally pays write-all fan-out and maintenance
    // traffic, which widens the conflict window further.  The pair
    // measures what the insert hotspot costs and what replication adds
    // on top of it — see the ROADMAP replication section's open items
    // (demotion, conflict-aware heat) for the remedies this motivates.
    for &replication in &[false, true] {
        let name = if replication {
            "replication_mixed_on"
        } else {
            "replication_mixed_off"
        };
        let mut spec = LoadSpec::new(name, 16, 4, cell);
        spec.mix = read_heavy_mix();
        spec.hot_select_range = Some(8);
        spec.scatter_inserts = true;
        spec.dbt = Some(replication_dbt(replication));
        spec.transport = TransportKind::Threaded {
            workers_per_server: 1,
        };
        spec.net = Some(modelled_net());
        run_cell(spec, &mut results);
    }

    // Sweep E — observability overhead: the same mixed workload at a
    // fixed deployment with (1) timing histograms off entirely, (2) the
    // default pay-as-you-go mode (histograms on, tracing off — the
    // configuration every other sweep above runs under), and (3) 1-in-64
    // sampled tracing on top.  The off/default pair bounds what the
    // histogram records cost on the hot paths; the default/sampled pair
    // is the honest disclosure of what turning traces on costs.
    for &(name, timing, sample_every) in &[
        ("obs_off", false, 0u32),
        ("obs_default", true, 0),
        ("obs_sampled", true, 64),
    ] {
        let mut spec = LoadSpec::new(name, 8, 2, cell);
        spec.obs_timing = timing;
        spec.trace_sample_every = sample_every;
        run_cell(spec, &mut results);
    }

    maybe_write_report(&results, "full sweep");
}

fn maybe_write_report(results: &[LoadResult], kind: &str) {
    if let Ok(path) = std::env::var("LOAD_JSON_OUT") {
        let report = render_load_report(
            "BENCH_10_LOAD",
            &format!(
                "Closed-loop multi-threaded load harness ({kind}): ops/sec, \
                 nearest-rank p50/p99/p999 per op class, and full per-subsystem \
                 latency histograms (log-bucketed, rel err <= 1/64) per cell, swept \
                 over threads, servers, wal_fsync policy, contention, hot-node \
                 replication, and \
                 observability mode (timing off / histograms on / 1-in-64 sampled \
                 tracing). One JSON object per cell under 'runs'."
            ),
            results,
        );
        std::fs::write(&path, report).expect("write LOAD_JSON_OUT");
        eprintln!("wrote {} cells to {path}", results.len());
    }
}
