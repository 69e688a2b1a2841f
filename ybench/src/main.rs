//! `ybench`: the gated benchmark.
//!
//! One process, two closed-loop client threads, one fresh deployment per
//! run, driven through `Session::prepare` / `Prepared::execute` and measured
//! from outside.  See `README.md` beside this package for what each workload
//! and metric is for.
//!
//! ```text
//! ybench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]
//!        [--repeat k] [--trace-out path] [--smoke]
//! ```
//!
//! With `--trace 0` a run measures and prints the end-to-end metrics; with
//! `--trace 1` it runs shorter timed and traced phases and the ladder and
//! prints the per-layer metrics; without `--trace` it does both.  The last
//! line on standard output is the result object of the last workload run.

mod client;
mod deploy;
mod gen;
mod layers;
mod report;
mod verify;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use yesquel::{DbtEngine, Error, Result, Session};

use client::{run_phase, Client, Phase, Span};
use deploy::{set_up, OneCpu, Workload, CLIENTS, WORKLOADS};
use gen::Kind;
use report::{quantile_us, Metrics, RunResult};

/// Windows the timed phase is cut into.
const TIMED_WINDOWS: usize = 5;

/// The gated metrics taken per window, in the order they are computed.
const GATED_TIMINGS: [&str; 5] = [
    "ops_per_s",
    "read_p50_us",
    "read_p95_us",
    "write_p50_us",
    "write_p95_us",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    Layers,
    Both,
}

#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    repeat: usize,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str =
    "usage: ybench --workload <read_mostly|write_heavy|net_mixed|durable_write|all> \
[--seed n] [--seconds s] [--trace 0|1] [--repeat k] [--trace-out path] [--smoke]";

fn parse_args(args: &[String]) -> std::result::Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        mode: Mode::Both,
        repeat: 1,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.mode = match value()?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.smoke {
        // Seconds-long: tiny tables (see `Workload::smoke`) and 1 s of phases.
        o.seconds = 1.0;
        if o.workload.is_empty() {
            o.workload = "all".to_string();
        }
    }
    if o.workload != "all" && Workload::by_name(&o.workload).is_none() {
        return Err(format!("unknown workload '{}'", o.workload));
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) || o.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".to_string());
    }
    Ok(o)
}

/// A field of `/proc/self/status` in MB (`VmHWM` is the peak resident set).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Sorted latencies of one class (reads or writes) across kinds, and for
/// p50 and p95 the kind of the statement the quantile landed in — which is
/// part of what the quantile means.
fn class_latencies(phase: &Phase, reads: bool) -> (Vec<u32>, [&'static str; 2]) {
    let mut all: Vec<(u32, Kind)> = Kind::ALL
        .iter()
        .filter(|k| k.is_read() == reads)
        .flat_map(|&k| {
            phase.samples.latency_ns[k.index()]
                .iter()
                .map(move |&ns| (ns, k))
        })
        .collect();
    all.sort_unstable_by_key(|&(ns, k)| (ns, k.index()));
    let kind_at = |q| match all.is_empty() {
        true => "-",
        false => all[report::rank_index(all.len(), q)].1.name(),
    };
    let kinds = [kind_at(0.50), kind_at(0.95)];
    (all.into_iter().map(|(ns, _)| ns).collect(), kinds)
}

fn write_spans(path: &PathBuf, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"client\": {}, \"start_ns\": {}, \"end_ns\": {}, \"ok\": {}}}",
            s.id, s.parent, s.name, s.client, s.start_ns, s.end_ns, s.ok
        )?;
    }
    out.flush()
}

/// One run of one workload: a fresh deployment taken through the phases.
fn run_workload(w: &Workload, o: &Options) -> Result<RunResult> {
    let phase_s = |share: f64| Duration::from_secs_f64(o.seconds * share);
    let layers = o.mode != Mode::EndToEnd;
    // A `--trace 1` run splits its seconds between the timed and the traced
    // phase; the gate's end-to-end numbers come from `--trace 0` runs.
    let timed_share = if o.mode == Mode::Layers { 0.5 } else { 1.0 };
    let mut m = Metrics::default();
    // Held until the run ends, so every deployment's threads inherit it.
    let one_cpu = w.one_cpu.then(OneCpu::pin).flatten();
    if w.one_cpu && one_cpu.is_none() {
        eprintln!("{}: not pinned to one CPU: the scheduler places it", w.name);
    }

    // Phase 1: set-up.
    let (dep, setup) = set_up(w)?;
    let y = &dep.y;
    let mut setup_seconds = vec![setup.seconds];
    m.set("client.rss_after_setup_mb", status_mb("VmRSS"));
    m.set("client.setup_failed_inserts", setup.failed_inserts as f64);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|c| Client::new(o.seed, c, w)).collect();

    // Phase 2: warm-up, client 0 alone; its rate is the one-client base.
    let warm = run_phase(y, &mut clients[..1], phase_s(0.2), false, || {})?;

    // Phase 3: timed, both clients, timing histograms and spans off.  The
    // phase is cut into windows and each gated metric is the median over
    // them, so a second of interference from outside moves one window, not
    // the result.
    let mut gated: [Vec<f64>; 5] = Default::default();
    let mut timed = Phase::default();
    for _ in 0..TIMED_WINDOWS {
        let share = timed_share / TIMED_WINDOWS as f64;
        let window = run_phase(y, &mut clients, phase_s(share), false, || {})?;
        let (reads, _) = class_latencies(&window, true);
        let (writes, _) = class_latencies(&window, false);
        let values = [
            window.ops_per_s(),
            quantile_us(&reads, 0.50),
            quantile_us(&reads, 0.95),
            quantile_us(&writes, 0.50),
            quantile_us(&writes, 0.95),
        ];
        eprintln!("{}: window {values:.1?}", w.name);
        for (all, v) in gated.iter_mut().zip(values) {
            all.push(v);
        }
        timed.absorb(window);
    }
    m.set("rss_peak_mb", status_mb("VmHWM"));
    for (name, values) in GATED_TIMINGS.iter().zip(&gated) {
        m.set(*name, report::median(values));
    }
    let (reads, read_kinds) = class_latencies(&timed, true);
    let (writes, write_kinds) = class_latencies(&timed, false);
    m.set("client.read_p999_us", quantile_us(&reads, 0.999));
    m.set("client.write_p999_us", quantile_us(&writes, 0.999));
    for kind in Kind::ALL {
        let ns = &mut timed.samples.latency_ns[kind.index()];
        ns.sort_unstable();
        m.set(
            format!("client.{}_p50_us", kind.name()),
            quantile_us(ns, 0.50),
        );
        m.set(
            format!("client.{}_p99_us", kind.name()),
            quantile_us(ns, 0.99),
        );
    }
    let timed_attempted =
        timed.samples.succeeded() + timed.samples.failed_total() + timed.samples.wrong;
    m.set(
        "client.failed_share",
        timed.samples.failed_total() as f64 / timed_attempted.max(1) as f64,
    );
    m.set("client.ops_per_s_1c", warm.ops_per_s());
    m.set(
        "client.scaling_2c",
        report::median(&gated[0]) / warm.ops_per_s().max(1e-9),
    );
    m.set("client.gc_calls", timed.samples.gc_calls as f64);
    m.set(
        "client.gc_stall_ms_per_call",
        timed.samples.gc_ns as f64 / 1e6 / timed.samples.gc_calls.max(1) as f64,
    );
    eprintln!(
        "{}: {:.0} ops/s; reads p50 {:.2} us ({}) p95 {:.2} us ({}) over {} samples; \
         writes p50 {:.2} us ({}) p95 {:.2} us ({}) over {} samples; failed {} of {} attempted",
        w.name,
        timed.ops_per_s(),
        quantile_us(&reads, 0.50),
        read_kinds[0],
        quantile_us(&reads, 0.95),
        read_kinds[1],
        reads.len(),
        quantile_us(&writes, 0.50),
        write_kinds[0],
        quantile_us(&writes, 0.95),
        write_kinds[1],
        writes.len(),
        timed.samples.failed_total(),
        timed_attempted,
    );

    let mut phases = vec![warm, timed];
    let mut ladder_failed = 0;
    let mut ladder_wrong = 0;
    if layers {
        // Phase 4: traced — same mix and clients, counters reset, timing
        // histograms on, one harness span per op.
        let stats = y.db().stats();
        let log_before = layers::log_bytes(y);
        let traced = run_phase(y, &mut clients, phase_s(0.5), true, || {
            stats.reset();
            stats.obs().set_timing(true);
        })?;
        stats.obs().set_timing(false);
        layers::traced_metrics(y, &traced, layers::log_bytes(y) - log_before, &mut m);
        let timed_rate = phases[1].ops_per_s();
        m.set(
            "obs.timing_overhead_share",
            1.0 - traced.ops_per_s() / timed_rate.max(1e-9),
        );

        // Phase 5: the ladder, client 0 alone.
        let keep_spans = o.trace_out.is_some();
        let ladder = layers::run_ladder(&dep, w, o.seed, &mut clients[0], keep_spans, &mut m)?;
        ladder_failed = ladder.failed;
        ladder_wrong = ladder.wrong;
        if let Some(path) = &o.trace_out {
            write_spans(path, w.name, &traced.samples.spans)
                .and_then(|()| write_spans(path, w.name, &ladder.spans))
                .map_err(|e| Error::io(path.display(), e))?;
        }
        m.set(
            "kvstore.versions_per_object",
            y.db().total_versions() as f64 / y.db().total_objects().max(1) as f64,
        );
        phases.push(traced);
    }

    // Phase 6: verify; with a log, again after every server lost its memory
    // and whatever its log had not flushed.
    let open_here = || y.new_session();
    let verdict = verify::verify(w, &clients, setup.failed_inserts, &open_here)?;
    for v in verdict.violations.iter().take(20) {
        eprintln!("{}: VIOLATION {v}", w.name);
    }
    let (mut recovery_s, mut recovered, mut lost_in_restart) = (0.0, 0.0, 0);
    if w.wal {
        let recovered_txns = y.db().stats().counter("wal.recovered_txns");
        let before = recovered_txns.get();
        let started = Instant::now();
        for server in y.db().cluster().servers() {
            server.amnesia_restart()?;
        }
        recovery_s = started.elapsed().as_secs_f64();
        recovered = (recovered_txns.get() - before) as f64;
        // A new engine has no cached nodes: what it reads, the servers hold.
        let open_fresh = || -> Result<Session> {
            let engine: Arc<DbtEngine> =
                DbtEngine::new(y.db().client(), y.db().config().dbt.clone());
            Session::new(engine)
        };
        let again = verify::verify(w, &clients, setup.failed_inserts, &open_fresh)?;
        // Acknowledged implies readable after the restart: nothing may be
        // missing that was there before it.
        let new = again.new_since(&verdict);
        for v in new.iter().take(20) {
            eprintln!("{}: VIOLATION after restart: {v}", w.name);
        }
        lost_in_restart = new.len() as u64 + again.violated.saturating_sub(verdict.violated);
    }
    m.set("wal.recovery_s", recovery_s);
    m.set("wal.recovered_txns", recovered);
    drop(dep);

    // Set-up again on fresh deployments, so `setup_s` is a median.
    if o.mode != Mode::Layers {
        for _ in 0..2 {
            let (dep, again) = set_up(w)?;
            setup_seconds.push(again.seconds);
            drop(dep);
        }
    }
    m.set("setup_s", report::median(&setup_seconds));

    let sum = |f: &dyn Fn(&Phase) -> u64| phases.iter().map(f).sum::<u64>();
    let wrong = sum(&|p| p.samples.wrong) + ladder_wrong;
    let failed = sum(&|p| p.samples.failed_total()) + setup.failed_inserts + ladder_failed;
    let lost_writes = wrong + verdict.violated;
    let allowed = verify::allowed_lost_writes(sum(&|p| p.samples.writes_succeeded()));
    m.set("client.lost_writes", lost_writes as f64);
    eprintln!(
        "{}: {} checks; {} wrong replies and {} violations ({} allowed, see README), \
         {} more after restart; set-up {:?} s",
        w.name, verdict.checks, wrong, verdict.violated, allowed, lost_in_restart, setup_seconds
    );
    Ok(RunResult {
        correct: lost_writes <= allowed && lost_in_restart == 0,
        attempted: sum(&|p| p.samples.succeeded()) + w.rows + failed + wrong,
        failed,
        metrics: m,
    })
}

fn catalogue(mode: Mode) -> Vec<(String, &'static str)> {
    let mut c = Vec::new();
    if mode != Mode::Layers {
        c.extend(report::end_to_end_catalogue());
    }
    if mode != Mode::EndToEnd {
        c.extend(report::per_layer_catalogue());
    }
    c
}

/// Runs what the options ask for and prints one result line per run.
/// Returns whether every run was correct.
fn run(o: &Options, out: &mut dyn std::io::Write) -> Result<bool> {
    let chosen: Vec<Workload> = WORKLOADS
        .iter()
        .filter(|w| o.workload == "all" || o.workload == w.name)
        .map(|w| if o.smoke { w.smoke() } else { w.clone() })
        .collect();
    if let Some(path) = &o.trace_out {
        std::fs::write(path, "").map_err(|e| Error::io(path.display(), e))?;
    }
    let catalogue = catalogue(o.mode);
    let mut all_correct = true;
    for w in &chosen {
        let mut runs = Vec::new();
        for _ in 0..o.repeat {
            let result = run_workload(w, o)?;
            all_correct &= result.correct;
            let _ = writeln!(out, "{}", report::render(&result, &catalogue));
            runs.push(result);
        }
        if o.repeat > 1 && o.mode != Mode::Layers {
            let _ = writeln!(
                out,
                "# {} x{}: metric median q1 q3 (max-min)/median",
                w.name, o.repeat
            );
            for (name, _) in report::END_TO_END {
                let values: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(name)).collect();
                let s = report::spread(&values);
                let _ = writeln!(
                    out,
                    "# {name} {:.4} {:.4} {:.4} {:.4}",
                    s.median, s.q1, s.q3, s.range_share
                );
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options, &mut std::io::stdout().lock()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ybench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ybench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::tests::{parse_json, Json};

    fn smoke_lines(workload: &str) -> Vec<Json> {
        let args = ["--smoke", "--workload", workload, "--seed", "5"].map(String::from);
        let options = parse_args(&args).expect("valid arguments");
        let mut out = Vec::new();
        assert!(run(&options, &mut out).expect("smoke run"), "incorrect run");
        let text = String::from_utf8(out).expect("utf-8 output");
        text.lines()
            .map(|l| parse_json(l).expect("a JSON line"))
            .collect()
    }

    fn names(list: &Json) -> Vec<String> {
        let mut v: Vec<String> = list
            .arr()
            .iter()
            .map(|e| e.get("name").expect("name").str().to_string())
            .collect();
        v.sort();
        v
    }

    /// What `--smoke` prints is what `BENCHMARK.json` declares, for every
    /// workload, and every ladder self time on the two CPU-bound workloads
    /// is non-negative.
    #[test]
    fn smoke_output_matches_the_declaration() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = parse_json(&declared).expect("BENCHMARK.json parses");
        let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        workloads.sort();
        assert_eq!(names(declared.get("workloads").unwrap()), workloads);
        assert!(workloads.len() <= 8);
        let mut metrics = names(declared.get("end_to_end").unwrap());
        assert!(metrics.len() <= 16 && metrics.contains(&"setup_s".to_string()));
        let layers = names(declared.get("per_layer").unwrap());
        assert!(layers.len() <= 128);
        metrics.extend(layers);
        metrics.sort();

        let lines = smoke_lines("all");
        assert_eq!(lines.len(), WORKLOADS.len());
        for (line, w) in lines.iter().zip(&WORKLOADS) {
            assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
            let printed = line.get("metrics").unwrap();
            let mut printed_names: Vec<String> =
                printed.keys().iter().map(|k| k.to_string()).collect();
            printed_names.sort();
            assert_eq!(printed_names, metrics, "{}", w.name);
            // The paper's one-fetch claim, as an exact count: a warm lookup
            // fetches the leaf and nothing else.
            let value = |name: &str| match printed.get(name).and_then(|m| m.get("value")) {
                Some(Json::Num(v)) => *v,
                other => panic!("{name} has no value: {other:?}"),
            };
            assert_eq!(value("ydbt.node_fetches_per_lookup"), 1.0, "{}", w.name);
            assert!(value("sql.parse_plan_per_op") < 0.5, "{}", w.name);
            if w.slept_network || w.wal {
                continue;
            }
            for name in printed.keys().iter().filter(|k| k.ends_with("_self_us")) {
                assert!(value(name) >= 0.0, "{}: {name} = {}", w.name, value(name));
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "net_mixed", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "net_mixed", "--seconds", "0"]).is_err());
        assert!(parse(&[]).is_err());
        let o = parse(&[
            "--workload",
            "net_mixed",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.mode), (9, 3.0, Mode::Layers));
    }
}
