//! Quantiles, the metric catalogue and the hand-rolled JSON result line
//! (the offline build has no serde).

use std::fmt::Write as _;

use crate::gen::Kind;

/// Index of the nearest-rank quantile `q` in an ascending sample of `n`: the
/// smallest value with at least `q` of the sample at or below it (rank
/// `ceil(q·n)`).
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Exact nearest-rank quantile of an ascending sample.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    sorted[rank_index(sorted.len(), q)]
}

/// Nearest-rank quantile in microseconds of nanosecond samples; 0 when the
/// sample is empty (a kind the workload's mix does not contain).
pub fn quantile_us(sorted_ns: &[u32], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    f64::from(quantile(sorted_ns, q)) / 1000.0
}

/// Median of a small set of floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The end-to-end metrics, with their units: what `--trace 0` prints.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("write_p50_us", "us"),
    ("write_p95_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics other than the per-kind client latencies.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("client.read_p999_us", "us"),
    ("client.write_p999_us", "us"),
    ("client.ops_per_s_1c", "1/s"),
    ("client.scaling_2c", "ratio"),
    ("client.failed_share", "ratio"),
    ("client.lost_writes", "count"),
    ("client.gc_calls", "count"),
    ("client.gc_stall_ms_per_call", "ms"),
    ("client.rss_after_setup_mb", "MB"),
    ("client.setup_failed_inserts", "count"),
    ("sql.point_select_us", "us"),
    ("sql.point_select_self_us", "us"),
    ("sql.scan16_us", "us"),
    ("sql.scan16_self_us", "us"),
    ("sql.insert_us", "us"),
    ("sql.insert_self_us", "us"),
    ("sql.rows_scanned_per_row_returned", "ratio"),
    ("sql.fetchbacks_per_op", "ratio"),
    ("sql.parse_plan_per_op", "ratio"),
    ("sql.stmt_select_p50_us", "us"),
    ("sql.stmt_insert_p50_us", "us"),
    ("ydbt.lookup_txn_us", "us"),
    ("ydbt.lookup_self_us", "us"),
    ("ydbt.scan16_txn_us", "us"),
    ("ydbt.scan16_self_us", "us"),
    ("ydbt.insert3_txn_us", "us"),
    ("ydbt.insert3_self_us", "us"),
    ("ydbt.node_fetches_per_lookup", "ratio"),
    ("ydbt.node_fetches_per_op", "ratio"),
    ("ydbt.cache_hit_share", "ratio"),
    ("ydbt.cache_invalidations_per_kop", "ratio"),
    ("ydbt.back_downs_per_kop", "ratio"),
    ("ydbt.search_restarts_per_kop", "ratio"),
    ("ydbt.splits_per_kwrite", "ratio"),
    ("ydbt.load_splits", "count"),
    ("ydbt.replica_promotions", "count"),
    ("ydbt.replica_read_share", "ratio"),
    ("ydbt.replica_fanout_writes_per_write", "ratio"),
    ("ydbt.descent_fetches_p99", "count"),
    ("kvstore.get_txn_us", "us"),
    ("kvstore.get_self_us", "us"),
    ("kvstore.put3_txn_us", "us"),
    ("kvstore.put3_self_us", "us"),
    ("kvstore.conflict_share", "ratio"),
    ("kvstore.retries_per_kop", "ratio"),
    ("kvstore.participants_per_commit", "ratio"),
    ("kvstore.readonly_commit_share", "ratio"),
    ("kvstore.get_lock_retries_per_kop", "ratio"),
    ("kvstore.commit_prepare_p50_us", "us"),
    ("kvstore.commit_decide_p50_us", "us"),
    ("kvstore.commit_apply_p50_us", "us"),
    ("kvstore.indeterminate_commits", "count"),
    ("kvstore.versions_per_object", "ratio"),
    ("rpc.call_us", "us"),
    ("rpc.calls_per_op", "ratio"),
    ("rpc.bytes_per_op", "bytes"),
    ("rpc.charged_us_per_op", "us"),
    ("rpc.queue_p50_us", "us"),
    ("rpc.service_p50_us", "us"),
    ("rpc.retries_per_kop", "ratio"),
    ("rpc.timeouts", "count"),
    ("rpc.server_imbalance", "ratio"),
    ("wal.appends_per_write_op", "ratio"),
    ("wal.fsyncs_per_write_op", "ratio"),
    ("wal.group_size_mean", "ratio"),
    ("wal.group_solo_share", "ratio"),
    ("wal.append_p50_us", "us"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.log_bytes_per_user_byte", "ratio"),
    ("wal.append_sync_us", "us"),
    ("wal.recovery_s", "s"),
    ("wal.recovered_txns", "count"),
    ("obs.timing_overhead_share", "ratio"),
];

/// Every per-layer metric with its unit: what `--trace 1` prints.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for kind in Kind::ALL {
        all.push((format!("client.{}_p50_us", kind.name()), "us"));
        all.push((format!("client.{}_p99_us", kind.name()), "us"));
    }
    all.extend(LAYER_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The outcome of one workload run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A finite JSON number with all the digits it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every catalogue entry in
/// order.  Panics if a catalogue entry was not measured: a missing metric is
/// a bug in the harness, not a result.
pub fn render(result: &RunResult, catalogue: &[(String, &str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = result
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}

pub fn end_to_end_catalogue() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Spread of `--repeat k` runs of one metric.
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub range_share: f64,
}

/// Median, quartiles (the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the gate uses) and
/// (max − min) / median.
pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        // Position p·(n+1), 1-based, clamped and linearly interpolated.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    let m = median(&v);
    Spread {
        median: m,
        q1: at(0.25),
        q3: at(0.75),
        range_share: (v[n - 1] - v[0]) / m,
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), 50);
        assert_eq!(quantile(&s, 0.95), 95);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 0.999), 100);
        assert_eq!(quantile(&s, 1.0), 100);
        // The first sample already covers half of a pair.
        assert_eq!(quantile(&[10, 20], 0.5), 10);
        assert_eq!(quantile(&[10, 20], 0.51), 20);
        assert_eq!(quantile(&[7], 0.999), 7);
        assert_eq!(quantile_us(&[1500, 2500, 3500], 0.5), 2.5);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.range_share - 9.0 / 5.5).abs() < 1e-12);
    }

    /// A minimal JSON value and parser, enough to check the renderer and to
    /// read `BENCHMARK.json` in the declaration test.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        pub fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' || self.s[self.i] < 0x20 {
                    return Err(format!("escape or control byte at {}", self.i));
                }
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
            self.eat(b'"')?;
            Ok(text.to_string())
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Json::Obj(kv));
                    }
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.eat(b':')?;
                        kv.push((k, self.value()?));
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Json::Obj(kv));
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') if self.s[self.i..].starts_with(b"true") => {
                    self.i += 4;
                    Ok(Json::Bool(true))
                }
                Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                    self.i += 5;
                    Ok(Json::Bool(false))
                }
                Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                    self.i += 4;
                    Ok(Json::Null)
                }
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                    // JSON has no NaN, inf or bare '.5'; f64::from_str is
                    // laxer, so check the leading character too.
                    if !text.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
                        return Err(format!("bad number '{text}' at byte {start}"));
                    }
                    text.parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad number '{text}'"))
                }
                None => Err("unexpected end".to_string()),
            }
        }
    }

    pub fn parse_json(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {}", p.i))
        }
    }

    #[test]
    fn rendered_line_is_valid_json_with_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            metrics.set(*name, 1.5 + i as f64 / 3.0);
        }
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics,
        };
        let line = render(&result, &end_to_end_catalogue());
        assert!(!line.contains('\n'));
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted"), Some(&Json::Num(1234.0)));
        let m = json.get("metrics").unwrap();
        assert_eq!(m.keys().len(), END_TO_END.len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.keys(), ["value", "unit"]);
        assert_eq!(setup.get("value"), Some(&Json::Num(1.5)));
        assert_eq!(setup.get("unit").unwrap().str(), "s");
    }

    #[test]
    fn non_finite_values_render_as_numbers() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(3.612), "3.612");
        assert!(parse_json("{\"a\": nan}").is_err());
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        let layers = per_layer_catalogue();
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }
}
