//! The per-layer view, measured from outside the system: the public
//! counters and `obs.timing` histograms after the traced phase, and the
//! ladder — the equivalent call made at each layer boundary.

use std::time::Instant;

use bytes::Bytes;
use yesquel::common::ids::splitmix64;
use yesquel::common::stats::StatsRegistry;
use yesquel::kv::{KvRequest, KvResponse};
use yesquel::sql::row::{encode_index_key, encode_row, encode_rowid_key, index_prefix};
use yesquel::wal::{Wal, WalRecord, WalWrite};
use yesquel::ydbt::prefix_successor;
use yesquel::{Error, ObjectId, Result, Value, Yesquel};

use crate::client::{self, Client, Phase, Samples, Span, Stmts};
use crate::deploy::{Deployment, Workload, SERVERS};
use crate::gen::{self, Kind, OpGen};
use crate::report::{quantile_us, Metrics};

/// Tree id of the ladder's own objects, far above anything the catalog
/// hands out.
const LADDER_TREE: u64 = 0x1add_0000_0000;

/// Size of a ladder object: a leaf of ~44 cells (64-cell leaves split in
/// half and refill to ~0.69) of ~150 bytes each.
const PAGE_BYTES: usize = 6 * 1024;

/// Ladder objects the key-value read rung spreads its gets over.
const PAGE_OBJECTS: u64 = 64;

/// Attempts of a ladder write transaction before it counts as failed (the
/// SQL rung above gets the client library's retries; the delegated splitter
/// can conflict with any of them).
const WRITE_ATTEMPTS: usize = 8;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Total bytes in every server's log (0 without logs).
pub fn log_bytes(y: &Yesquel) -> u64 {
    let servers = y.db().cluster().servers();
    servers
        .iter()
        .filter_map(|s| s.store().wal().map(|w| w.len()))
        .sum()
}

/// The count, ratio and histogram metrics of the traced phase.  Counters
/// were reset when the phase started, so every reading is the phase's own.
pub fn traced_metrics(y: &Yesquel, phase: &Phase, log_growth: u64, m: &mut Metrics) {
    let stats = y.db().stats();
    let c = |name: &str| stats.counter(name).get();
    let p50 = |name: &str| stats.histogram(name).summary().p50 as f64;
    let ops = phase.samples.succeeded() + phase.samples.failed_total();
    let writes = phase.samples.writes_succeeded();
    let per_kop = |n: u64| 1000.0 * ratio(n, ops);

    m.set(
        "sql.rows_scanned_per_row_returned",
        ratio(c("sql.rows_scanned"), phase.samples.rows_out),
    );
    m.set("sql.fetchbacks_per_op", ratio(c("sql.fetchbacks"), ops));
    m.set(
        "sql.parse_plan_per_op",
        ratio(c("sql.parses") + c("sql.plans"), ops),
    );
    m.set("sql.stmt_select_p50_us", p50("sql.stmt_us.select"));
    m.set("sql.stmt_insert_p50_us", p50("sql.stmt_us.insert"));

    let fetches = c("dbt.node_fetches");
    m.set("ydbt.node_fetches_per_op", ratio(fetches, ops));
    m.set(
        "ydbt.cache_hit_share",
        ratio(
            c("dbt.cache_hits"),
            c("dbt.cache_hits") + c("dbt.cache_misses"),
        ),
    );
    m.set(
        "ydbt.cache_invalidations_per_kop",
        per_kop(c("dbt.cache_invalidations")),
    );
    m.set("ydbt.back_downs_per_kop", per_kop(c("dbt.back_downs")));
    m.set(
        "ydbt.search_restarts_per_kop",
        per_kop(c("dbt.search_restarts")),
    );
    m.set(
        "ydbt.splits_per_kwrite",
        1000.0 * ratio(c("dbt.splits"), writes),
    );
    m.set("ydbt.load_splits", c("dbt.load_splits") as f64);
    m.set(
        "ydbt.replica_promotions",
        c("dbt.replica_promotions") as f64,
    );
    m.set(
        "ydbt.replica_read_share",
        ratio(c("dbt.replica_reads"), fetches),
    );
    m.set(
        "ydbt.replica_fanout_writes_per_write",
        ratio(c("dbt.replica_fanout_writes"), writes),
    );
    m.set(
        "ydbt.descent_fetches_p99",
        stats.histogram("dbt.descent_fetches").summary().p99 as f64,
    );

    m.set(
        "kvstore.conflict_share",
        ratio(c("kv.txn_conflicts"), c("kv.txn_started")),
    );
    m.set("kvstore.retries_per_kop", per_kop(c("kv.txn_retries")));
    m.set(
        "kvstore.participants_per_commit",
        ratio(
            c("kv.commit_participants"),
            c("kv.commit_1pc") + c("kv.commit_2pc"),
        ),
    );
    m.set(
        "kvstore.readonly_commit_share",
        ratio(
            c("kv.readonly_commits"),
            c("kv.readonly_commits") + c("kv.commit_1pc") + c("kv.commit_2pc"),
        ),
    );
    m.set(
        "kvstore.get_lock_retries_per_kop",
        per_kop(c("kv.get_lock_retries")),
    );
    m.set("kvstore.commit_prepare_p50_us", p50("kv.commit_prepare_us"));
    m.set("kvstore.commit_decide_p50_us", p50("kv.commit_decide_us"));
    m.set("kvstore.commit_apply_p50_us", p50("kv.commit_apply_us"));
    m.set(
        "kvstore.indeterminate_commits",
        (phase.samples.indeterminate + c("kv.commit_indeterminate")) as f64,
    );

    m.set("rpc.calls_per_op", ratio(c("rpc.calls"), ops));
    m.set(
        "rpc.bytes_per_op",
        ratio(c("rpc.bytes_sent") + c("rpc.bytes_received"), ops),
    );
    m.set("rpc.charged_us_per_op", ratio(c("net.charged_us"), ops));
    m.set("rpc.queue_p50_us", p50("rpc.queue_us"));
    m.set("rpc.service_p50_us", p50("rpc.service_us"));
    m.set("rpc.retries_per_kop", per_kop(c("rpc.retries")));
    m.set("rpc.timeouts", c("rpc.timeouts") as f64);
    let per_server = y.db().per_server_requests();
    let busiest = per_server.iter().copied().max().unwrap_or(0);
    let total: u64 = per_server.iter().sum();
    m.set(
        "rpc.server_imbalance",
        ratio(busiest * per_server.len() as u64, total),
    );

    let fsyncs = c("wal.fsyncs");
    m.set("wal.appends_per_write_op", ratio(c("wal.appends"), writes));
    m.set("wal.fsyncs_per_write_op", ratio(fsyncs, writes));
    m.set("wal.group_size_mean", ratio(c("wal.group_size"), fsyncs));
    m.set("wal.group_solo_share", ratio(c("wal.group_solo"), fsyncs));
    m.set("wal.append_p50_us", p50("wal.append_us"));
    m.set("wal.fsync_p50_us", p50("wal.fsync_us"));
    m.set(
        "wal.fsync_p99_us",
        stats.histogram("wal.fsync_us").summary().p99 as f64,
    );
    m.set(
        "wal.log_bytes_per_user_byte",
        ratio(log_growth, phase.samples.user_bytes),
    );
}

/// One rung's timed calls.
struct Rung {
    name: &'static str,
    ns: Vec<u32>,
    failed: u64,
}

impl Rung {
    fn median_us(&mut self) -> f64 {
        self.ns.sort_unstable();
        quantile_us(&self.ns, 0.5)
    }
}

/// What the ladder found besides its metrics.
pub struct Ladder {
    pub failed: u64,
    pub wrong: u64,
    pub spans: Vec<Span>,
}

struct LadderRun<'a> {
    epoch: Instant,
    keep_spans: bool,
    spans: Vec<Span>,
    failed: u64,
    wrong: u64,
    m: &'a mut Metrics,
}

impl LadderRun<'_> {
    /// Times one call of a rung per input.  `Ok(false)` is a wrong reply.
    fn rung<T>(
        &mut self,
        name: &'static str,
        inputs: &[T],
        mut call: impl FnMut(&T) -> Result<bool>,
    ) -> Rung {
        let rung_id = (1u64 << 56) | self.spans.len() as u64;
        let rung_start = self.epoch.elapsed().as_nanos() as u64;
        let mut rung = Rung {
            name,
            ns: Vec::with_capacity(inputs.len()),
            failed: 0,
        };
        for input in inputs {
            let started = Instant::now();
            let outcome = call(input);
            let elapsed = started.elapsed();
            match outcome {
                Ok(true) => rung
                    .ns
                    .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)),
                Ok(false) => self.wrong += 1,
                Err(_) => rung.failed += 1,
            }
            if self.keep_spans {
                let start_ns = (started - self.epoch).as_nanos() as u64;
                self.spans.push(Span {
                    id: rung_id + 1 + rung.ns.len() as u64 + rung.failed,
                    parent: rung_id,
                    name,
                    client: 0,
                    start_ns,
                    end_ns: start_ns + elapsed.as_nanos() as u64,
                    ok: matches!(outcome, Ok(true)),
                });
            }
        }
        if self.keep_spans {
            self.spans.push(Span {
                id: rung_id,
                parent: 0,
                name: rung.name,
                client: 0,
                start_ns: rung_start,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
                ok: rung.failed == 0,
            });
        }
        self.failed += rung.failed;
        rung
    }

    /// Records a rung's median and its self time over the rung beneath.
    fn step(&mut self, name: &str, self_name: &str, rung: &mut Rung, beneath_us: f64) -> f64 {
        let us = rung.median_us();
        self.m.set(name, us);
        self.m.set(self_name, us - beneath_us);
        us
    }
}

/// Runs a read rung's calls once untimed, so the timed pass over the same
/// inputs finds the caches as it leaves them.
fn warm<T>(inputs: &[T], mut call: impl FnMut(&T) -> Result<bool>) {
    for input in inputs {
        let _ = call(input);
    }
}

/// Retries a write transaction the way the layer above would.
fn with_retries(mut body: impl FnMut() -> Result<()>) -> Result<bool> {
    let mut last = None;
    for _ in 0..WRITE_ATTEMPTS {
        match body() {
            Ok(()) => return Ok(true),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("a retry implies an error"))
}

/// Phase 5: one client makes the equivalent call at each layer boundary,
/// over the same seeded ids at every rung, and a layer's self time is its
/// rung's median minus the median of the rung beneath it.
///
/// Point read: `Prepared::execute` → a transaction of one `Dbt::lookup` on
/// the table's own tree → a transaction of one `Txn::get` of a page-sized
/// ladder object → `Cluster::call(Get)`.  Scan: `Prepared::execute` → a
/// 16-entry `Dbt::scan` of the index tree in a transaction.  Insert:
/// `Prepared::execute` → one transaction of three `Dbt::insert`s with the
/// keys and values the SQL layer would write → one transaction of three
/// page-sized `Txn::put`s → (with a log) `Wal::append` of one page-sized
/// prepare record on the ladder's own log.
pub fn run_ladder(
    dep: &Deployment,
    w: &Workload,
    seed: u64,
    client0: &mut Client,
    keep_spans: bool,
    m: &mut Metrics,
) -> Result<Ladder> {
    let y = &dep.y;
    let stats = y.db().stats().clone();
    let kv = y.db().client();
    let session = y.new_session()?;
    let stmts = Stmts::prepare(&session)?;
    let schema = {
        let txn = kv.begin();
        let schema = session.catalog().require_table(&txn, "pages")?;
        txn.commit()?;
        schema
    };
    let index_tree = |name: &str| -> Result<_> {
        let ix = schema
            .indexes
            .iter()
            .find(|ix| ix.name == name)
            .ok_or_else(|| Error::Schema(format!("no index {name}")))?;
        Ok(y.tree(ix.tree))
    };
    let table = y.tree(schema.tree);
    let by_title = index_tree("pages_by_title")?;
    let by_grp = index_tree("pages_by_grp")?;
    let groups = gen::groups_for(w.rows);

    // The ladder's own objects: page-sized, spread over the servers.
    let page = Bytes::from(vec![0x5a_u8; PAGE_BYTES]);
    let pages: Vec<ObjectId> = (0..PAGE_OBJECTS)
        .map(|i| ObjectId::new(LADDER_TREE, 1000 + i))
        .collect();
    let load = kv.begin();
    for &obj in &pages {
        load.put(obj, page.clone())?;
    }
    load.commit()?;
    // The same seeded ids at every rung, drawn like the clients' reads.
    let mut ids_gen = OpGen::new(seed ^ 0x1add, 0, 1, w.rows, &w.mix);
    let read_ids: Vec<i64> = (0..w.ladder_reads)
        .map(|_| ids_gen.op_of(Kind::PointSelect).id)
        .collect();
    let scan_grps: Vec<i64> = (0..w.ladder_reads / 4)
        .map(|_| ids_gen.op_of(Kind::Scan16).grp)
        .collect();

    let mut run = LadderRun {
        epoch: Instant::now(),
        keep_spans,
        spans: Vec::new(),
        failed: 0,
        wrong: 0,
        m,
    };

    // --- point read, bottom rung first -----------------------------------
    let snapshot = kv.begin();
    let ts = snapshot.start_ts();
    let mut rpc_get = |&id: &i64| {
        let obj = pages[id as usize % pages.len()];
        let req = KvRequest::Get { obj, ts };
        let resp = y.db().cluster().call(obj.home_server(SERVERS), req)?;
        Ok(matches!(resp, KvResponse::Value(Some(_))))
    };
    warm(&read_ids, &mut rpc_get);
    let mut rpc = run.rung("rpc.get", &read_ids, rpc_get);
    snapshot.commit()?;
    let rpc_us = rpc.median_us();
    run.m.set("rpc.call_us", rpc_us);

    let mut get_txn = |&id: &i64| {
        let txn = kv.begin();
        let found = txn.get(pages[id as usize % pages.len()])?.is_some();
        txn.commit()?;
        Ok(found)
    };
    warm(&read_ids, &mut get_txn);
    let mut get = run.rung("kvstore.get_txn", &read_ids, get_txn);
    let get_us = run.step(
        "kvstore.get_txn_us",
        "kvstore.get_self_us",
        &mut get,
        rpc_us,
    );

    let mut lookup_txn = |&id: &i64| {
        let txn = kv.begin();
        let found = table.lookup(&txn, &encode_rowid_key(id))?.is_some();
        txn.commit()?;
        Ok(found)
    };
    warm(&read_ids, &mut lookup_txn);
    // The one-fetch claim: on its second pass over the same ids a lookup
    // fetches the leaf and nothing else.
    y.engine().wait_for_splits();
    let fetches = stats.counter("dbt.node_fetches");
    let fetches_before = fetches.get();
    let mut lookup = run.rung("ydbt.lookup_txn", &read_ids, lookup_txn);
    run.m.set(
        "ydbt.node_fetches_per_lookup",
        ratio(fetches.get() - fetches_before, read_ids.len() as u64),
    );
    let lookup_us = run.step(
        "ydbt.lookup_txn_us",
        "ydbt.lookup_self_us",
        &mut lookup,
        get_us,
    );

    let mut point_select = |&id: &i64| {
        let rs = stmts.point().execute(&[Value::Int(id)])?;
        Ok(rs.rows.len() == 1)
    };
    warm(&read_ids, &mut point_select);
    let mut select = run.rung("sql.point_select", &read_ids, point_select);
    run.step(
        "sql.point_select_us",
        "sql.point_select_self_us",
        &mut select,
        lookup_us,
    );

    // --- scan16 ------------------------------------------------------------
    let mut scan_txn = |&grp: &i64| {
        let lo = index_prefix(&[Value::Int(grp)]);
        let hi = prefix_successor(&lo);
        let txn = kv.begin();
        let mut entries = 0;
        for entry in by_grp.scan(&txn, Some(&lo), hi.as_deref())?.take(16) {
            entry?;
            entries += 1;
        }
        txn.commit()?;
        Ok(entries > 0)
    };
    warm(&scan_grps, &mut scan_txn);
    let mut scan = run.rung("ydbt.scan16_txn", &scan_grps, scan_txn);
    let scan_us = run.step(
        "ydbt.scan16_txn_us",
        "ydbt.scan16_self_us",
        &mut scan,
        get_us,
    );
    let mut scan_select = |&grp: &i64| {
        let bound = client::bind(
            gen::Op {
                kind: Kind::Scan16,
                id: 0,
                grp,
                version: 0,
            },
            groups,
        );
        Ok(matches!(
            client::execute(&stmts, &bound),
            client::Outcome::Ok { .. }
        ))
    };
    warm(&scan_grps, &mut scan_select);
    let mut sql_scan = run.rung("sql.scan16", &scan_grps, scan_select);
    run.step(
        "sql.scan16_us",
        "sql.scan16_self_us",
        &mut sql_scan,
        scan_us,
    );

    // --- insert, bottom rung first ---------------------------------------
    let writes: Vec<u64> = (0..w.ladder_writes as u64).collect();
    let mut append_us = 0.0;
    if let Some(dir) = &dep.wal_dir {
        let policy = y.db().config().kv.wal_fsync;
        let log = Wal::open(dir.path().join("ladder"), policy, &StatsRegistry::new())?;
        let mut append = run.rung("wal.append_sync", &writes, |&i| {
            log.append(&WalRecord::Prepare {
                txn: i,
                start_ts: i,
                primary: 0,
                writes: vec![WalWrite {
                    obj: pages[0],
                    value: Some(page.clone()),
                }],
            })?;
            Ok(true)
        });
        append_us = append.median_us();
    }
    run.m.set("wal.append_sync_us", append_us);

    // Beneath a put transaction are the RPCs it issues and, with a log, the
    // appends its participants wait for: both counted, not assumed.
    let calls = stats.counter("rpc.calls");
    let appends = stats.counter("wal.appends");
    let (calls_before, appends_before) = (calls.get(), appends.get());
    let mut put3 = run.rung("kvstore.put3_txn", &writes, |&i| {
        // Three pages wherever they hash to, as an insert's three leaves do:
        // the participant count is part of what the rung above pays for.
        let objs = [0, 1, 2].map(|j| pages[splitmix64(3 * i + j) as usize % pages.len()]);
        with_retries(|| {
            let txn = kv.begin();
            for obj in objs {
                txn.put(obj, page.clone())?;
            }
            txn.commit().map(|_| ())
        })
    });
    let calls_per_put3 = ratio(calls.get() - calls_before, writes.len() as u64);
    let appends_per_put3 = ratio(appends.get() - appends_before, writes.len() as u64);
    let put3_us = run.step(
        "kvstore.put3_txn_us",
        "kvstore.put3_self_us",
        &mut put3,
        calls_per_put3 * rpc_us + appends_per_put3 * append_us,
    );

    let mut out = Samples::default();
    let mut insert3 = run.rung("ydbt.insert3_txn", &writes, |_| {
        let id = client0.gen.op_of(Kind::Insert).id;
        let (title, views, grp) = (
            gen::title_of(id),
            gen::views_of(id),
            gen::grp_of(id, groups),
        );
        let row = encode_row(&[
            Value::Int(id),
            Value::Text(title.clone()),
            Value::Text(gen::body_of(id, 0)),
            Value::Int(views),
            Value::Int(grp),
        ]);
        let title_key = encode_index_key(&[Value::Text(title)], None);
        let title_value = encode_row(&[Value::Int(id)]);
        let grp_key = encode_index_key(&[Value::Int(grp), Value::Int(views)], Some(id));
        let done = with_retries(|| {
            let txn = kv.begin();
            table.insert(&txn, &encode_rowid_key(id), &row)?;
            by_title.insert(&txn, &title_key, &title_value)?;
            by_grp.insert(&txn, &grp_key, &[])?;
            txn.commit().map(|_| ())
        });
        match &done {
            // Verification reads these rows back through SQL, which checks
            // the harness wrote what the SQL layer would have.
            Ok(_) => client0.gen.acknowledged_insert(id),
            Err(_) => {
                client0.model.tainted.insert(id);
            }
        }
        done
    });
    let insert3_us = run.step(
        "ydbt.insert3_txn_us",
        "ydbt.insert3_self_us",
        &mut insert3,
        put3_us,
    );

    let mut sql_insert = run.rung("sql.insert", &writes, |_| {
        let op = client0.gen.op_of(Kind::Insert);
        let failed_before = out.failed_total();
        client::run_op(y, &stmts, client0, op, &mut out, None);
        if out.failed_total() > failed_before {
            return Err(Error::Unavailable("ladder insert failed".into()));
        }
        Ok(true)
    });
    run.step(
        "sql.insert_us",
        "sql.insert_self_us",
        &mut sql_insert,
        insert3_us,
    );

    Ok(Ladder {
        failed: run.failed,
        wrong: run.wrong + out.wrong,
        spans: run.spans,
    })
}
