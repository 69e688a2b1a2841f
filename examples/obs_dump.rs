//! Observability smoke dump: open a deployment, turn timing histograms and
//! trace sampling on through its stats registry (the only place the
//! switches exist), run a small mixed workload, then print the two
//! artifacts an operator would actually look at — the full metrics
//! snapshot (counters + latency histograms) and the slow-op ring — as
//! JSON.  CI runs this to prove the whole `obs` pipeline (histogram
//! records on every layer's hot path, sampled traces, span accounting,
//! ring capture, JSON export) works end to end: it exits non-zero if
//! timing recorded no statement latency or sampling kept no trace.
//!
//! Run with: `cargo run --release --example obs_dump`

use yesquel::{params, Result, Yesquel};

fn main() -> Result<()> {
    let y = Yesquel::open(4);
    let obs = y.db().stats().obs();
    obs.set_timing(true);
    obs.set_sample_every(4); // sample aggressively: this is a demo
    obs.set_slow_threshold_us(0); // keep every sampled trace in the ring

    y.execute_script(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, kind TEXT NOT NULL, weight INT NOT NULL);
         CREATE INDEX events_by_weight ON events (weight)",
    )?;

    // A little of everything so every subsystem histogram has samples:
    // inserts (2PC + WAL), point selects (DBT descents), a range scan, an
    // aggregate, an update and a delete.
    let insert = y.prepare("INSERT INTO events (kind, weight) VALUES (?, ?)")?;
    for id in 0..200i64 {
        insert.execute(params![format!("kind-{}", id % 5), id % 17])?;
    }
    let by_id = y.prepare("SELECT kind, weight FROM events WHERE id = ?")?;
    for id in 0..200i64 {
        by_id.execute(params![id + 1])?;
    }
    y.execute("SELECT COUNT(*) FROM events WHERE weight >= 10", &[])?;
    y.execute(
        "SELECT id, kind FROM events WHERE weight >= ? ORDER BY weight LIMIT 10",
        &[8.into()],
    )?;
    y.execute("UPDATE events SET weight = weight + 1 WHERE id <= 20", &[])?;
    y.execute("DELETE FROM events WHERE id > 190", &[])?;

    // EXPLAIN ANALYZE executes and reports per-operator work.
    let rs = y.execute("EXPLAIN ANALYZE SELECT kind FROM events WHERE id = 42", &[])?;
    println!("-- EXPLAIN ANALYZE SELECT kind FROM events WHERE id = 42");
    for row in &rs.rows {
        println!("{row:?}");
    }
    println!();

    let stats = y.db().stats();
    println!("-- metrics snapshot (counters + histograms)");
    println!("{}", stats.render_json());
    println!();
    println!("-- slow-op ring (sampled traces over the slow threshold)");
    println!("{}", stats.obs().slow_ring().dump_json());

    let timed = stats
        .histogram_snapshot()
        .iter()
        .any(|(name, h)| name.starts_with("sql.stmt_us.") && h.count > 0);
    if !timed {
        eprintln!("obs_dump: timing on, yet no sql.stmt_us.* histogram has a sample");
        std::process::exit(1);
    }
    if stats.obs().slow_ring().is_empty() {
        eprintln!("obs_dump: sampling on, yet the slow-op ring is empty");
        std::process::exit(1);
    }
    Ok(())
}
