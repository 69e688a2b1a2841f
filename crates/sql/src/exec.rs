//! The executor: a streaming, Volcano-style operator pipeline that pulls
//! rows one at a time out of DBT cursors.
//!
//! Every statement executes entirely within one caller-supplied [`Txn`], so
//! a statement touching a table and its secondary indexes is atomic and
//! reads one consistent snapshot; the session layer decides when that
//! transaction commits (autocommit or explicit BEGIN/COMMIT).
//!
//! ## The operator stack
//!
//! A SELECT compiles to a pull pipeline assembled from the plan's physical
//! properties; an operator that stops pulling (LIMIT) stops everything
//! beneath it, so bounded plans touch only the rows they return:
//!
//! ```text
//!      DbtCursor (RawCursor)            Dbt::seek_last
//!            │ index/row entries              │ one-row MIN/MAX
//!            ▼                                │
//!   ScanOp ─ covering: decode entries         │
//!          ─ else: rowid fetch-back lookup    │
//!          ─ residual WHERE filter            │
//!            │ base rows                      │
//!            ▼                                ▼
//!   [AggregateOp: stream | hash]  ◄──── OneRowOp (minmax)
//!            │ post-aggregation rows [group keys…, aggregates…]
//!            ▼
//!   ProjectOp (output exprs; appends sort keys when a sort is needed)
//!            ▼
//!   [SortOp → TrimOp]   — elided when the scan order subsumes ORDER BY
//!            ▼
//!   [DistinctOp]        — streaming set-based dedup, order-preserving
//!            ▼
//!   [OffsetLimitOp]     — stops pulling after limit+offset rows
//! ```
//!
//! Operators implement [`RowSource`] and own no borrow of the transaction:
//! it is threaded through every [`RowSource::next_row`] call via
//! [`ExecCtx`], which is what lets [`RowStream`]s live inside fully owned
//! values (the facade's pulling `Rows` iterator owns its autocommit
//! transaction *and* its operator tree).
//!
//! Row access follows the plan's [`AccessPath`]: a rowid point lookup is one
//! DBT `lookup` (one node fetch when the client cache is warm — the paper's
//! headline property); an index scan is a bounded DBT range scan over the
//! index tree that either decodes rows straight out of the entries
//! (covering plans — zero fetch-backs) or pays one `lookup` fetch-back per
//! entry; a lone `MIN`/`MAX` over the scanned column is a one-row bounded
//! read (first entry of the range, or a reverse fence descent for `MAX`).
//! UPDATE/DELETE materialise their match set before mutating so the scan
//! never observes its own writes (the classic Halloween problem).
//!
//! ## Index maintenance
//!
//! A write statement reads only the leaves it needs an answer from: the
//! row's leaf (an INSERT's occupancy check; an UPDATE's or DELETE's match,
//! which its scan already fetched) and, for an INSERT, each unique index's
//! leaf, whose probe is the uniqueness check — a violation belongs to the
//! statement, not to the commit.  Every other index write needs no answer:
//! removing an entry, or adding a non-unique one (its key carries the
//! rowid).  Those go through [`Dbt::put_unread`] / [`Dbt::remove_unread`],
//! which buffer a cell edit that the leaf's server applies at commit, with
//! no fetch, wherever the client's cache names the leaf.  So a DELETE by id
//! and an index-moving UPDATE read one leaf and commit: two round trips on
//! a slept network.  The leaves a statement does read are fetched together
//! first (`prefetch_leaves`).
//!
//! An **autocommit** INSERT is its own transaction, so its commit is still
//! the statement and a violation found there still belongs to it: its
//! occupancy check and unique-index probes go unread too
//! ([`Dbt::insert_if_absent_unread`], a put-if-absent the leaf's server
//! checks on the snapshot's version), it fetches nothing, and it costs one
//! round trip.  A key found present at the commit fails the statement
//! ([`execute_and_commit`]) with the text the fetch path's probe gives,
//! except a rowid the allocator chose: that one retries the statement
//! through the fetch path, which skips taken ids.  Inside `BEGIN … COMMIT`
//! an INSERT keeps its probes, so its violation surfaces at the statement;
//! so does an UPDATE that moves a unique entry.  A leaf that the client
//! knows to be replicated, or whose edits were refused, takes the fetch
//! path in autocommit too.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use bytes::Bytes;
use yesquel_common::obs::clock;
use yesquel_common::obs::trace::{count, counter_value, TraceCounter};
use yesquel_common::stats::Histogram;
use yesquel_common::{Error, ObjectId, Result};
use yesquel_kv::Txn;
use yesquel_ydbt::{Dbt, RawCursor};

use crate::ast::{Expr, Statement};
use crate::catalog::{Catalog, IndexInfo, TableSchema};
use crate::expr::{ColumnLayout, EvalCtx};
use crate::plan::{
    plan_statement, AccessPath, AggFunc, AggStrategy, AggregatePlan, DmlTarget, InsertPlan,
    OrderSpec, OrderTarget, OutputCol, Plan, RangeBound, SelectPlan,
};
use crate::row::{
    decode_index_entry, decode_index_rowid, decode_row, decode_rowid_key, encode_index_key,
    encode_index_value, encode_row, encode_rowid_key, index_nonnull_floor, prefix_upper_bound,
};
use crate::typed::Row;
use crate::types::{ColumnType, Value};

/// The result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Column headers (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
    /// Rowid assigned to the last inserted row.
    pub last_rowid: Option<i64>,
}

impl ResultSet {
    fn empty() -> ResultSet {
        ResultSet::default()
    }

    /// Position of the named result column (case-insensitive), the typed
    /// alternative to hard-coding `rows[i][2]`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// The column header as the shared `Arc` form [`Row`]s carry.
    fn header(&self) -> Arc<[String]> {
        Arc::from(self.columns.clone())
    }

    /// Iterates the result as typed [`Row`]s (values cloned; the header is
    /// shared).  Consume the set with `into_iter()` to avoid the clones.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        let header = self.header();
        self.rows
            .iter()
            .map(move |r| Row::new(Arc::clone(&header), r.clone()))
    }
}

impl IntoIterator for ResultSet {
    type Item = Row;
    type IntoIter = ResultRows;

    /// Consumes the result into typed [`Row`]s without cloning the values
    /// (the header moves too).
    fn into_iter(self) -> ResultRows {
        ResultRows {
            header: Arc::from(self.columns),
            rows: self.rows.into_iter(),
        }
    }
}

/// Consuming [`Row`] iterator over a [`ResultSet`].
pub struct ResultRows {
    header: Arc<[String]>,
    rows: std::vec::IntoIter<Vec<Value>>,
}

impl Iterator for ResultRows {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        self.rows
            .next()
            .map(|r| Row::new(Arc::clone(&self.header), r))
    }
}

/// Everything an operator needs per pull that it must not own: the catalog
/// (engine + counters), the transaction, and the statement parameters.
pub struct ExecCtx<'a> {
    /// The catalog the statement was planned against.
    pub catalog: &'a Catalog,
    /// The transaction every read and write goes through.
    pub txn: &'a Txn,
    /// Positional parameters bound to the statement.
    pub params: &'a [Value],
    /// The statement is its own transaction, committed once it has run, so
    /// a uniqueness violation found at the commit still belongs to it: an
    /// INSERT's probes then go unread (module docs, "Index maintenance").
    /// `false` is always safe.
    pub autocommit: bool,
}

/// A pull-based row operator: the executor's one interface.  `next_row`
/// returns the next row of the operator's output, or `None` at the end.
pub trait RowSource {
    /// Pulls the next row.
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>>;
}

/// An open, pullable query: column headers plus the operator stack.  Owns
/// no borrow of the transaction — the caller passes it (via [`ExecCtx`]) on
/// every pull, which is what lets a session hand out a `Rows` iterator that
/// owns both its transaction and this stream.
pub struct RowStream {
    columns: Vec<String>,
    src: Box<dyn RowSource + Send>,
}

impl RowStream {
    /// Column headers of the result.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Pulls the next output row.
    pub fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        self.src.next_row(cx)
    }
}

/// Plans and executes one statement inside `txn`.  Transaction control
/// statements are rejected here; the session intercepts them.
pub fn execute(
    catalog: &Catalog,
    txn: &Txn,
    stmt: &Statement,
    params: &[Value],
) -> Result<ResultSet> {
    let plan = plan_statement(catalog, txn, stmt)?;
    execute_plan(catalog, txn, &plan, params)
}

/// Executes an already-built plan inside `txn`, recording statement latency
/// by kind (`sql.stmt_us.<kind>`) while `Obs::timing_on`.
pub fn execute_plan(
    catalog: &Catalog,
    txn: &Txn,
    plan: &Plan,
    params: &[Value],
) -> Result<ResultSet> {
    let cx = ExecCtx {
        catalog,
        txn,
        params,
        autocommit: false,
    };
    execute_timed(&cx, plan)
}

/// Executes an already-built plan as a statement that is its own
/// transaction, `txn`, and commits it — one attempt of an autocommit
/// statement.  An INSERT's row and unique-index entries then go to their
/// leaves unread, and a key one of them finds present at the commit fails
/// the statement as the fetch path's probe would have (module docs, "Index
/// maintenance").
pub fn execute_and_commit(
    catalog: &Catalog,
    txn: Txn,
    plan: &Plan,
    params: &[Value],
) -> Result<ResultSet> {
    let cx = ExecCtx {
        catalog,
        txn: &txn,
        params,
        autocommit: true,
    };
    let out = match execute_timed(&cx, plan) {
        Ok(rs) => txn.commit().map(|_| rs),
        Err(e) => {
            txn.abort();
            Err(e)
        }
    };
    // A read of a leaf can meet a put-if-absent of the statement as well.
    out.map_err(|e| match e {
        Error::KeyPresent { obj, key } => key_present(catalog, plan, params, obj, key),
        e => e,
    })
}

/// [`execute_plan_inner`], recording the statement's latency.
fn execute_timed(cx: &ExecCtx<'_>, plan: &Plan) -> Result<ResultSet> {
    let catalog = cx.catalog;
    let t0 = catalog.engine().stats().obs().timing_on().then(clock::now);
    let res = execute_plan_inner(cx, plan);
    if let Some(t0) = t0 {
        if res.is_ok() {
            stmt_hist(catalog, plan).record(clock::elapsed_us(t0));
        }
    }
    res
}

/// The per-kind statement-latency histogram a plan's execution charges.
fn stmt_hist<'a>(catalog: &'a Catalog, plan: &Plan) -> &'a Arc<Histogram> {
    let h = &catalog.counters().stmt_us;
    match plan {
        Plan::ConstSelect(_) | Plan::Select(_) | Plan::Explain(_) | Plan::ExplainAnalyze(_) => {
            &h.select
        }
        Plan::Insert(_) => &h.insert,
        Plan::Update(_) => &h.update,
        Plan::Delete(_) => &h.delete,
        Plan::CreateTable(_) | Plan::CreateIndex(_) | Plan::DropTable { .. } => &h.ddl,
    }
}

/// Rows to reserve for a plan's [`ResultSet`]: its `LIMIT`, capped (a limit
/// is an upper bound, not a promise), else none.
///
/// A vector grown by `push` is `realloc`ed at 4, 8, 16… rows, and glibc's
/// `realloc` never takes the thread cache: every growth locks the arena and,
/// unless a bin holds an exact fit, sorts whatever the arena's unsorted list
/// has collected — with page versions being freed all the time, tens of
/// microseconds on a state that differs from one second to the next.  A
/// sixteen-row page reserved once costs one thread-cache allocation.
fn result_capacity(plan: &Plan) -> usize {
    const MAX_RESERVED_ROWS: u64 = 64;
    match plan {
        Plan::Select(p) => p.limit.map_or(0, |l| l.min(MAX_RESERVED_ROWS) as usize),
        _ => 0,
    }
}

/// [`execute_plan`] without the latency record (so EXPLAIN ANALYZE's inner
/// execution is not charged twice).
fn execute_plan_inner(cx: &ExecCtx<'_>, plan: &Plan) -> Result<ResultSet> {
    let (catalog, txn, params) = (cx.catalog, cx.txn, cx.params);
    match plan {
        Plan::ConstSelect(_) | Plan::Select(_) | Plan::Explain(_) => {
            let mut stream = open_stream(catalog, txn, plan, params)?;
            let mut rows = Vec::with_capacity(result_capacity(plan));
            while let Some(row) = stream.next_row(cx)? {
                rows.push(row);
            }
            Ok(ResultSet {
                columns: stream.columns,
                rows,
                rows_affected: 0,
                last_rowid: None,
            })
        }
        Plan::ExplainAnalyze(inner) => exec_explain_analyze(cx, inner),
        Plan::Insert(p) => exec_insert(cx, p),
        Plan::Update(p) => exec_update(cx, p),
        Plan::Delete(p) => exec_delete(cx, p),
        Plan::CreateTable(ct) => {
            catalog.create_table(txn, ct)?;
            Ok(ResultSet::empty())
        }
        Plan::CreateIndex(ci) => {
            catalog.create_index(txn, ci)?;
            Ok(ResultSet::empty())
        }
        Plan::DropTable { name, if_exists } => {
            catalog.drop_table(txn, name, *if_exists)?;
            Ok(ResultSet::empty())
        }
    }
}

/// Opens a query plan as a pullable [`RowStream`].  Only query-shaped plans
/// (SELECT, expression-only SELECT, EXPLAIN) can stream; DML and DDL have
/// no rows to pull.
pub fn open_stream(
    catalog: &Catalog,
    txn: &Txn,
    plan: &Plan,
    params: &[Value],
) -> Result<RowStream> {
    let cx = ExecCtx {
        catalog,
        txn,
        params,
        autocommit: false,
    };
    match plan {
        Plan::ConstSelect(output) => Ok(RowStream {
            columns: output.iter().map(|o| o.name.clone()).collect(),
            src: Box::new(ConstOp {
                exprs: output.iter().map(|o| o.expr.clone()).collect(),
                done: false,
            }),
        }),
        Plan::Explain(inner) => Ok(RowStream {
            columns: vec!["plan".to_string()],
            src: Box::new(OneRowOp {
                row: Some(vec![Value::Text(inner.describe())]),
            }),
        }),
        Plan::ExplainAnalyze(inner) => {
            // The report needs the whole execution drained, so the "stream"
            // is the materialised report replayed row by row.
            let rs = exec_explain_analyze(&cx, inner)?;
            Ok(RowStream {
                columns: rs.columns,
                src: Box::new(CollectedOp {
                    rows: rs.rows.into_iter(),
                }),
            })
        }
        Plan::Select(p) => open_select(&cx, p, None),
        _ => Err(Error::InvalidArgument(
            "only SELECT and EXPLAIN statements produce a row stream".into(),
        )),
    }
}

/// Evaluates a constant expression (no column references).
fn const_eval(e: &Expr, params: &[Value]) -> Result<Value> {
    EvalCtx {
        layout: &ColumnLayout::empty(),
        row: &[],
        params,
    }
    .eval(e)
}

/// An exact rowid from a value, if the value can ever equal a rowid.
fn value_to_rowid(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Real(r) if r.fract() == 0.0 && *r >= i64::MIN as f64 && *r <= i64::MAX as f64 => {
            Some(*r as i64)
        }
        _ => None,
    }
}

/// A rowid-range endpoint resolved to an integer.
enum RowidBound {
    /// The predicate can never hold: the scan is empty.
    Empty,
    /// The bound does not constrain the scan.
    Unbounded,
    /// Scan from/to this rowid (inclusive).
    At(i64),
}

/// Resolves a lower bound on the rowid.  Non-numeric bound values follow
/// SQL's cross-class ordering (numbers sort below text and blobs), so
/// `rowid > 'x'` is always false and `rowid > NULL` is never true.
fn rowid_lower_bound(v: &Value, inclusive: bool) -> RowidBound {
    match v {
        Value::Null | Value::Text(_) | Value::Blob(_) => RowidBound::Empty,
        Value::Int(i) => {
            if inclusive {
                RowidBound::At(*i)
            } else if *i == i64::MAX {
                RowidBound::Empty
            } else {
                RowidBound::At(*i + 1)
            }
        }
        Value::Real(r) => {
            let b = if inclusive { r.ceil() } else { r.floor() + 1.0 };
            if b > i64::MAX as f64 {
                RowidBound::Empty
            } else if b < i64::MIN as f64 {
                RowidBound::Unbounded
            } else {
                RowidBound::At(b as i64)
            }
        }
    }
}

/// Resolves an upper bound on the rowid (`rowid < 'x'` is always true).
fn rowid_upper_bound(v: &Value, inclusive: bool) -> RowidBound {
    match v {
        Value::Null => RowidBound::Empty,
        Value::Text(_) | Value::Blob(_) => RowidBound::Unbounded,
        Value::Int(i) => {
            if inclusive {
                RowidBound::At(*i)
            } else if *i == i64::MIN {
                RowidBound::Empty
            } else {
                RowidBound::At(*i - 1)
            }
        }
        Value::Real(r) => {
            let b = if inclusive { r.floor() } else { r.ceil() - 1.0 };
            if b < i64::MIN as f64 {
                RowidBound::Empty
            } else if b > i64::MAX as f64 {
                RowidBound::Unbounded
            } else {
                RowidBound::At(b as i64)
            }
        }
    }
}

/// Encoded start key for an index range lower bound; `None` = empty scan.
fn index_lower_key(prefix: &[u8], b: &RangeBound, params: &[Value]) -> Result<Option<Vec<u8>>> {
    let v = const_eval(&b.expr, params)?;
    if v.is_null() {
        return Ok(None);
    }
    let mut k = prefix.to_vec();
    encode_index_value(&mut k, &v);
    if b.inclusive {
        Ok(Some(k))
    } else {
        // Skip every entry whose column value equals the bound: start at the
        // successor of the value prefix (entries append a rowid suffix, so a
        // plain +1 on the last byte is not enough).
        Ok(prefix_upper_bound(&k))
    }
}

enum IndexUpper {
    Empty,
    Unbounded,
    Key(Vec<u8>),
}

/// Encoded end key (exclusive) for an index range upper bound.
fn index_upper_key(prefix: &[u8], b: &RangeBound, params: &[Value]) -> Result<IndexUpper> {
    let v = const_eval(&b.expr, params)?;
    if v.is_null() {
        return Ok(IndexUpper::Empty);
    }
    let mut k = prefix.to_vec();
    encode_index_value(&mut k, &v);
    if b.inclusive {
        // Include entries equal to the bound (they carry a rowid suffix):
        // end at the successor of the value prefix.
        match prefix_upper_bound(&k) {
            Some(k) => Ok(IndexUpper::Key(k)),
            None => Ok(IndexUpper::Unbounded),
        }
    } else {
        Ok(IndexUpper::Key(k))
    }
}

/// Resolved byte-key bounds of an index scan.  `None` = provably empty.
struct IndexBounds {
    /// Encoded equality prefix.
    prefix: Vec<u8>,
    /// Inclusive start key.
    lo: Vec<u8>,
    /// Exclusive end key; `None` = to the end of the tree.
    hi: Option<Vec<u8>>,
}

/// Computes the byte-key bounds of an index scan from the plan's equality
/// probes and range bounds.
fn index_scan_bounds(
    eq: &[Expr],
    lo: &Option<RangeBound>,
    hi: &Option<RangeBound>,
    params: &[Value],
) -> Result<Option<IndexBounds>> {
    let mut prefix = Vec::new();
    for e in eq {
        let v = const_eval(e, params)?;
        if v.is_null() {
            // Equality with NULL matches nothing.
            return Ok(None);
        }
        encode_index_value(&mut prefix, &v);
    }
    let lo_key = match lo {
        None => prefix.clone(),
        Some(b) => match index_lower_key(&prefix, b, params)? {
            Some(k) => k,
            None => return Ok(None),
        },
    };
    let hi_key = match hi {
        None => prefix_upper_bound(&prefix),
        Some(b) => match index_upper_key(&prefix, b, params)? {
            IndexUpper::Empty => return Ok(None),
            IndexUpper::Unbounded => prefix_upper_bound(&prefix),
            IndexUpper::Key(k) => Some(k),
        },
    };
    Ok(Some(IndexBounds {
        prefix,
        lo: lo_key,
        hi: hi_key,
    }))
}

/// Optional `[start, end)` byte keys of a rowid scan (`None` side =
/// unbounded).
type RowidKeys = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Resolved rowid-scan bounds.  `None` = provably empty.
fn rowid_scan_bounds(
    lo: &Option<RangeBound>,
    hi: &Option<RangeBound>,
    params: &[Value],
) -> Result<Option<RowidKeys>> {
    let lo_key = match lo {
        None => None,
        Some(b) => match rowid_lower_bound(&const_eval(&b.expr, params)?, b.inclusive) {
            RowidBound::Empty => return Ok(None),
            RowidBound::Unbounded => None,
            RowidBound::At(i) => Some(encode_rowid_key(i)),
        },
    };
    let hi_key = match hi {
        None => None,
        Some(b) => match rowid_upper_bound(&const_eval(&b.expr, params)?, b.inclusive) {
            RowidBound::Empty => return Ok(None),
            RowidBound::Unbounded => None,
            RowidBound::At(i) => {
                // Inclusive end: the smallest key above rowid i.
                let mut k = encode_rowid_key(i);
                k.push(0);
                Some(k)
            }
        },
    };
    Ok(Some((lo_key, hi_key)))
}

// ---------------------------------------------------------------------------
// Scan operator
// ---------------------------------------------------------------------------

/// How [`ScanOp`] reaches its entries.
enum ScanKind {
    /// Provably empty (NULL probe, contradictory bounds).
    Empty,
    /// One rowid point lookup, already performed at open.
    Point(Option<(i64, Vec<Value>)>),
    /// Bounded cursor over the primary tree.
    Rowid(RawCursor),
    /// Bounded cursor over an index tree.
    Index {
        /// The cursor over the entries.
        cur: RawCursor,
        /// Position of the index in the schema.
        index: usize,
        /// Decode rows from the entries instead of fetching them back.
        covering: bool,
    },
}

/// The leaf operator: walks the access path, reconstructs base rows, and
/// applies the residual filter.  Yields `(rowid, row)` pairs through
/// [`ScanOp::next_base`] (the DML shape) and plain rows through
/// [`RowSource`].
struct ScanOp {
    schema: std::sync::Arc<TableSchema>,
    /// Handle to the primary tree, resolved once at open (fetch-backs pay
    /// one lookup per row; they should not also pay a handle construction).
    table: Dbt,
    kind: ScanKind,
    filter: Option<std::sync::Arc<Expr>>,
    layout: ColumnLayout,
}

impl ScanOp {
    /// Opens the access path: evaluates bound expressions, seeks cursors,
    /// performs the point lookup.  `covering` must only be set when the
    /// plan proved coverage.
    fn open(
        cx: &ExecCtx<'_>,
        schema: std::sync::Arc<TableSchema>,
        layout: ColumnLayout,
        access: &AccessPath,
        filter: Option<std::sync::Arc<Expr>>,
        covering: bool,
    ) -> Result<ScanOp> {
        let table = cx.catalog.engine().tree(schema.tree);
        let kind = match access {
            AccessPath::RowidPoint(e) => {
                let v = const_eval(e, cx.params)?;
                match value_to_rowid(&v) {
                    None => ScanKind::Empty,
                    Some(rid) => match table.lookup(cx.txn, &encode_rowid_key(rid))? {
                        None => ScanKind::Empty,
                        Some(bytes) => {
                            cx.catalog.counters().rows_scanned.inc();
                            count(TraceCounter::RowsScanned, 1);
                            ScanKind::Point(Some((rid, decode_row(&bytes)?)))
                        }
                    },
                }
            }
            AccessPath::RowidRange { lo, hi } => match rowid_scan_bounds(lo, hi, cx.params)? {
                None => ScanKind::Empty,
                Some((lo_key, hi_key)) => {
                    ScanKind::Rowid(table.scan_raw(cx.txn, lo_key.as_deref(), hi_key.as_deref())?)
                }
            },
            AccessPath::FullScan => ScanKind::Rowid(table.scan_raw(cx.txn, None, None)?),
            AccessPath::IndexScan { index, eq, lo, hi } => {
                match index_scan_bounds(eq, lo, hi, cx.params)? {
                    None => ScanKind::Empty,
                    Some(b) => {
                        let ix = &schema.indexes[*index];
                        let itree = cx.catalog.engine().tree(ix.tree);
                        if covering {
                            cx.catalog.counters().covering_scans.inc();
                        }
                        ScanKind::Index {
                            cur: itree.scan_raw(cx.txn, Some(&b.lo), b.hi.as_deref())?,
                            index: *index,
                            covering,
                        }
                    }
                }
            }
        };
        Ok(ScanOp {
            schema,
            table,
            kind,
            filter,
            layout,
        })
    }

    /// Pulls the next base row that passes the residual filter.
    fn next_base(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(i64, Vec<Value>)>> {
        loop {
            let counters = cx.catalog.counters();
            let (rid, row) = match &mut self.kind {
                ScanKind::Empty => return Ok(None),
                ScanKind::Point(slot) => match slot.take() {
                    None => return Ok(None),
                    Some(pair) => pair,
                },
                ScanKind::Rowid(cur) => match cur.next_entry(cx.txn)? {
                    None => return Ok(None),
                    Some((key, value)) => {
                        counters.rows_scanned.inc();
                        count(TraceCounter::RowsScanned, 1);
                        (decode_rowid_key(&key)?, decode_row(&value)?)
                    }
                },
                ScanKind::Index {
                    cur,
                    index,
                    covering,
                } => {
                    let ix = &self.schema.indexes[*index];
                    match cur.next_entry(cx.txn)? {
                        None => return Ok(None),
                        Some((key, value)) => {
                            counters.rows_scanned.inc();
                            count(TraceCounter::RowsScanned, 1);
                            if *covering {
                                decode_covered_row(&self.schema, ix, &key, &value)?
                            } else {
                                let rid = if value.is_empty() {
                                    decode_index_rowid(&key)?
                                } else {
                                    // Unique-index entry: the value is the
                                    // rowid record.
                                    decode_row(&value)?
                                        .first()
                                        .and_then(value_to_rowid)
                                        .ok_or_else(|| {
                                            Error::Corruption(format!(
                                                "bad unique index entry in {}",
                                                ix.name
                                            ))
                                        })?
                                };
                                counters.fetchbacks.inc();
                                count(TraceCounter::FetchBacks, 1);
                                let row_bytes = self
                                    .table
                                    .lookup(cx.txn, &encode_rowid_key(rid))?
                                    .ok_or_else(|| {
                                        Error::Corruption(format!(
                                            "index {} refers to missing rowid {rid} of table {}",
                                            ix.name, self.schema.name
                                        ))
                                    })?;
                                (rid, decode_row(&row_bytes)?)
                            }
                        }
                    }
                }
            };
            let keep = match &self.filter {
                None => true,
                Some(f) => EvalCtx {
                    layout: &self.layout,
                    row: &row,
                    params: cx.params,
                }
                .eval(f.as_ref())?
                .is_truthy(),
            };
            if keep {
                return Ok(Some((rid, row)));
            }
        }
    }
}

impl RowSource for ScanOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        Ok(self.next_base(cx)?.map(|(_, row)| row))
    }
}

/// Reconstructs a base row from a covering-index entry: decoded indexed
/// values at their column positions, the rowid at the rowid column, NULL in
/// every slot the statement never reads.
fn decode_covered_row(
    schema: &TableSchema,
    ix: &IndexInfo,
    key: &[u8],
    value: &[u8],
) -> Result<(i64, Vec<Value>)> {
    let types: Vec<ColumnType> = ix
        .columns
        .iter()
        .map(|&c| schema.columns[c].ctype)
        .collect();
    let (vals, rid) = decode_index_entry(key, value, &types)?;
    let mut row = vec![Value::Null; schema.columns.len()];
    for (v, &c) in vals.into_iter().zip(&ix.columns) {
        row[c] = v;
    }
    if let Some(rc) = schema.rowid_col {
        row[rc] = Value::Int(rid);
    }
    Ok((rid, row))
}

// ---------------------------------------------------------------------------
// Stateless / one-shot sources
// ---------------------------------------------------------------------------

/// Expression-only SELECT: one row of constant expressions.
struct ConstOp {
    exprs: Vec<Expr>,
    done: bool,
}

impl RowSource for ConstOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let ctx = EvalCtx {
            layout: &ColumnLayout::empty(),
            row: &[],
            params: cx.params,
        };
        let row: Vec<Value> = self
            .exprs
            .iter()
            .map(|e| ctx.eval(e))
            .collect::<Result<_>>()?;
        Ok(Some(row))
    }
}

/// A single precomputed row (EXPLAIN output, one-row MIN/MAX reads).
struct OneRowOp {
    row: Option<Vec<Value>>,
}

impl RowSource for OneRowOp {
    fn next_row(&mut self, _cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        Ok(self.row.take())
    }
}

/// Replays rows materialised up front (the EXPLAIN ANALYZE report, which
/// needs the whole execution drained before its first row exists).
struct CollectedOp {
    rows: std::vec::IntoIter<Vec<Value>>,
}

impl RowSource for CollectedOp {
    fn next_row(&mut self, _cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        Ok(self.rows.next())
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Running state of one aggregate within one group.
enum AccState {
    CountStar(i64),
    Count(i64),
    /// Integer sum until a non-integer input promotes it to real; `None`
    /// while no non-NULL input has been seen.
    Sum(Option<SumVal>),
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

enum SumVal {
    Int(i64),
    Real(f64),
}

impl AccState {
    fn new(func: AggFunc) -> AccState {
        match func {
            AggFunc::CountStar => AccState::CountStar(0),
            AggFunc::Count => AccState::Count(0),
            AggFunc::Sum => AccState::Sum(None),
            AggFunc::Avg => AccState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AccState::Min(None),
            AggFunc::Max => AccState::Max(None),
        }
    }

    /// Folds one input value in (`None` only for `COUNT(*)`).
    fn update(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            AccState::CountStar(n) => *n += 1,
            AccState::Count(n) => {
                if matches!(v, Some(ref x) if !x.is_null()) {
                    *n += 1;
                }
            }
            AccState::Sum(state) => {
                let Some(v) = v else { return Ok(()) };
                if v.is_null() {
                    return Ok(());
                }
                let next = match (state.take(), &v) {
                    (None, Value::Int(i)) => SumVal::Int(*i),
                    (Some(SumVal::Int(a)), Value::Int(b)) => SumVal::Int(
                        a.checked_add(*b)
                            .ok_or_else(|| Error::Type("integer overflow in SUM()".into()))?,
                    ),
                    // A non-integer input promotes the whole sum to real
                    // (text coerces numerically, like SQLite; non-numeric
                    // text counts as 0).
                    (prev, other) => {
                        let acc = match prev {
                            None => 0.0,
                            Some(SumVal::Int(a)) => a as f64,
                            Some(SumVal::Real(a)) => a,
                        };
                        SumVal::Real(acc + other.as_real().unwrap_or(0.0))
                    }
                };
                *state = Some(next);
            }
            AccState::Avg { sum, n } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *sum += v.as_real().unwrap_or(0.0);
                        *n += 1;
                    }
                }
            }
            AccState::Min(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .map(|b| v.sort_cmp(b) == Ordering::Less)
                            .unwrap_or(true)
                    {
                        *best = Some(v);
                    }
                }
            }
            AccState::Max(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .map(|b| v.sort_cmp(b) == Ordering::Greater)
                            .unwrap_or(true)
                    {
                        *best = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Final value of the aggregate for its group.
    fn finish(self) -> Value {
        match self {
            AccState::CountStar(n) | AccState::Count(n) => Value::Int(n),
            AccState::Sum(None) => Value::Null,
            AccState::Sum(Some(SumVal::Int(i))) => Value::Int(i),
            AccState::Sum(Some(SumVal::Real(r))) => Value::Real(r),
            AccState::Avg { n: 0, .. } => Value::Null,
            AccState::Avg { sum, n } => Value::Real(sum / n as f64),
            AccState::Min(best) | AccState::Max(best) => best.unwrap_or(Value::Null),
        }
    }
}

/// Groups its input and folds the aggregates, yielding one row per group in
/// the layout `[group key values…, aggregate results…]`.
///
/// In **stream** mode (group keys are a prefix of the scan order) only one
/// group's state is live at a time and each group row is emitted the moment
/// the key changes — an early-exiting consumer stops the scan after the
/// groups it needs.  In **hash** mode the whole input is drained into a map
/// keyed by the order-preserving encoding of the group key (so groups with
/// SQL-equal keys — `2` and `2.0` — merge, and output order is
/// deterministic: group-key order).
struct AggregateOp {
    input: Box<dyn RowSource + Send>,
    layout: ColumnLayout,
    plan: std::sync::Arc<AggregatePlan>,
    hash: bool,
    // Stream state.
    cur: Option<(Vec<Value>, Vec<AccState>)>,
    emitted_any: bool,
    input_done: bool,
    // Hash state.
    drained: Option<std::collections::btree_map::IntoIter<Vec<u8>, Group>>,
}

/// One group under accumulation: its key values and aggregate states.
type Group = (Vec<Value>, Vec<AccState>);

impl AggregateOp {
    fn new(
        input: Box<dyn RowSource + Send>,
        layout: ColumnLayout,
        plan: std::sync::Arc<AggregatePlan>,
    ) -> AggregateOp {
        AggregateOp {
            input,
            layout,
            hash: plan.strategy == AggStrategy::Hash,
            plan,
            cur: None,
            emitted_any: false,
            input_done: false,
            drained: None,
        }
    }

    fn fresh_accs(&self) -> Vec<AccState> {
        self.plan
            .aggs
            .iter()
            .map(|a| AccState::new(a.func))
            .collect()
    }

    fn eval_keys(&self, row: &[Value], params: &[Value]) -> Result<Vec<Value>> {
        let ctx = EvalCtx {
            layout: &self.layout,
            row,
            params,
        };
        self.plan.group_by.iter().map(|g| ctx.eval(g)).collect()
    }

    fn accumulate(&self, accs: &mut [AccState], row: &[Value], params: &[Value]) -> Result<()> {
        let ctx = EvalCtx {
            layout: &self.layout,
            row,
            params,
        };
        for (acc, spec) in accs.iter_mut().zip(&self.plan.aggs) {
            let v = match &spec.arg {
                None => None,
                Some(e) => Some(ctx.eval(e)?),
            };
            acc.update(v)?;
        }
        Ok(())
    }

    fn finish_group(keys: Vec<Value>, accs: Vec<AccState>) -> Vec<Value> {
        let mut row = keys;
        row.extend(accs.into_iter().map(AccState::finish));
        row
    }

    fn next_stream(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        loop {
            if self.input_done {
                if let Some((keys, accs)) = self.cur.take() {
                    self.emitted_any = true;
                    return Ok(Some(Self::finish_group(keys, accs)));
                }
                // Zero input rows without GROUP BY still yields one row of
                // defaults (COUNT = 0, SUM = NULL, ...).
                if self.plan.group_by.is_empty() && !self.emitted_any {
                    self.emitted_any = true;
                    return Ok(Some(Self::finish_group(vec![], self.fresh_accs())));
                }
                return Ok(None);
            }
            match self.input.next_row(cx)? {
                None => {
                    self.input_done = true;
                }
                Some(row) => {
                    let keys = self.eval_keys(&row, cx.params)?;
                    let same = match &self.cur {
                        Some((ck, _)) => ck
                            .iter()
                            .zip(&keys)
                            .all(|(a, b)| a.sort_cmp(b) == Ordering::Equal),
                        None => false,
                    };
                    if same || self.cur.is_none() {
                        let (group_keys, mut accs) = match self.cur.take() {
                            Some(x) => x,
                            None => (keys, self.fresh_accs()),
                        };
                        self.accumulate(&mut accs, &row, cx.params)?;
                        self.cur = Some((group_keys, accs));
                    } else {
                        // Key change: emit the finished group, start the new
                        // one with this row.
                        let mut accs = self.fresh_accs();
                        self.accumulate(&mut accs, &row, cx.params)?;
                        let done = self.cur.replace((keys, accs)).expect("checked");
                        self.emitted_any = true;
                        return Ok(Some(Self::finish_group(done.0, done.1)));
                    }
                }
            }
        }
    }

    fn next_hash(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.drained.is_none() {
            let mut groups: BTreeMap<Vec<u8>, Group> = BTreeMap::new();
            while let Some(row) = self.input.next_row(cx)? {
                let keys = self.eval_keys(&row, cx.params)?;
                let mut enc = Vec::with_capacity(keys.len() * 10);
                for k in &keys {
                    encode_index_value(&mut enc, k);
                }
                // `groups` is local, so the entry borrow and the `&self` of
                // accumulate() do not conflict; fresh state is built only
                // when the group is first seen.
                let entry = groups
                    .entry(enc)
                    .or_insert_with(|| (keys, self.fresh_accs()));
                self.accumulate(&mut entry.1, &row, cx.params)?;
            }
            self.drained = Some(groups.into_iter());
        }
        Ok(self
            .drained
            .as_mut()
            .expect("set above")
            .next()
            .map(|(_, (keys, accs))| Self::finish_group(keys, accs)))
    }
}

impl RowSource for AggregateOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.hash {
            self.next_hash(cx)
        } else {
            self.next_stream(cx)
        }
    }
}

/// Opens the one-row bounded MIN/MAX read: the first entry of the scanned
/// range for MIN (NULL entries skipped by key), a reverse fence descent
/// ([`Dbt::seek_last`]) for MAX.  Returns the post-aggregation row `[value]`.
fn open_minmax(cx: &ExecCtx<'_>, p: &SelectPlan, agg: &AggregatePlan) -> Result<Vec<Value>> {
    let is_max = agg.aggs[0].func == AggFunc::Max;
    let counters = cx.catalog.counters();
    match &p.access {
        AccessPath::IndexScan { index, eq, lo, hi } => {
            let ix = &p.schema.indexes[*index];
            let itree = cx.catalog.engine().tree(ix.tree);
            let Some(bounds) = index_scan_bounds(eq, lo, hi, cx.params)? else {
                return Ok(vec![Value::Null]);
            };
            // MIN/MAX ignore NULLs; NULL entries sort first, so the floor
            // skips them and a MAX landing on one means all entries were
            // NULL (in which case NULL is the correct answer anyway).
            let lo_key = if lo.is_none() {
                index_nonnull_floor(&bounds.prefix)
            } else {
                bounds.lo.clone()
            };
            counters.covering_scans.inc();
            let entry = if is_max {
                match itree.seek_last(cx.txn, bounds.hi.as_deref())? {
                    Some((k, v)) if k.as_ref() >= lo_key.as_slice() => Some((k, v)),
                    _ => None,
                }
            } else {
                itree
                    .scan_raw(cx.txn, Some(&lo_key), bounds.hi.as_deref())?
                    .next_entry(cx.txn)?
            };
            match entry {
                None => Ok(vec![Value::Null]),
                Some((key, value)) => {
                    counters.rows_scanned.inc();
                    count(TraceCounter::RowsScanned, 1);
                    let (_, row) = decode_covered_row(&p.schema, ix, &key, &value)?;
                    Ok(vec![row[ix.columns[eq.len()]].clone()])
                }
            }
        }
        AccessPath::RowidRange { .. } | AccessPath::FullScan => {
            // MIN/MAX of the rowid itself: the edge of the primary tree.
            let (lo, hi) = match &p.access {
                AccessPath::RowidRange { lo, hi } => (lo.clone(), hi.clone()),
                _ => (None, None),
            };
            let table = cx.catalog.engine().tree(p.schema.tree);
            let Some((lo_key, hi_key)) = rowid_scan_bounds(&lo, &hi, cx.params)? else {
                return Ok(vec![Value::Null]);
            };
            let entry = if is_max {
                match table.seek_last(cx.txn, hi_key.as_deref())? {
                    Some((k, v)) if lo_key.as_deref().map(|l| k.as_ref() >= l).unwrap_or(true) => {
                        Some((k, v))
                    }
                    _ => None,
                }
            } else {
                table
                    .scan_raw(cx.txn, lo_key.as_deref(), hi_key.as_deref())?
                    .next_entry(cx.txn)?
            };
            match entry {
                None => Ok(vec![Value::Null]),
                Some((key, _)) => {
                    counters.rows_scanned.inc();
                    count(TraceCounter::RowsScanned, 1);
                    Ok(vec![Value::Int(decode_rowid_key(&key)?)])
                }
            }
        }
        _ => Err(Error::Internal(
            "minmax aggregate over an unsupported access path".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Projection / sort / distinct / limit operators
// ---------------------------------------------------------------------------

/// Computes the output expressions (and, when a sort follows, appends the
/// evaluated sort keys after the output columns).  Holds the plan's shared
/// projection and ORDER BY lists by reference count.
struct ProjectOp {
    input: Box<dyn RowSource + Send>,
    layout: ColumnLayout,
    output: std::sync::Arc<Vec<OutputCol>>,
    order: std::sync::Arc<Vec<OrderSpec>>,
    with_keys: bool,
}

impl RowSource for ProjectOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        let Some(row) = self.input.next_row(cx)? else {
            return Ok(None);
        };
        let ctx = EvalCtx {
            layout: &self.layout,
            row: &row,
            params: cx.params,
        };
        let mut out: Vec<Value> = self
            .output
            .iter()
            .map(|o| ctx.eval(&o.expr))
            .collect::<Result<_>>()?;
        if self.with_keys {
            for spec in self.order.iter() {
                let v = match &spec.target {
                    OrderTarget::Output(i) => out[*i].clone(),
                    OrderTarget::Expr(e) => ctx.eval(e)?,
                };
                out.push(v);
            }
        }
        Ok(Some(out))
    }
}

/// Materialises its input and emits it sorted by the key slots appended by
/// [`ProjectOp`] (only present in plans whose scan order does not already
/// satisfy the ORDER BY).
struct SortOp {
    input: Box<dyn RowSource + Send>,
    key_start: usize,
    desc: Vec<bool>,
    sorted: Option<std::vec::IntoIter<Vec<Value>>>,
}

impl RowSource for SortOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.sorted.is_none() {
            let mut rows = Vec::new();
            while let Some(r) = self.input.next_row(cx)? {
                rows.push(r);
            }
            let key_start = self.key_start;
            let desc = self.desc.clone();
            rows.sort_by(|a, b| {
                for (i, d) in desc.iter().enumerate() {
                    let ord = a[key_start + i].sort_cmp(&b[key_start + i]);
                    let ord = if *d { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            self.sorted = Some(rows.into_iter());
        }
        Ok(self.sorted.as_mut().expect("set above").next())
    }
}

/// Truncates rows back to the output width (drops the sort-key suffix).
struct TrimOp {
    input: Box<dyn RowSource + Send>,
    keep: usize,
}

impl RowSource for TrimOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        Ok(self.input.next_row(cx)?.map(|mut r| {
            r.truncate(self.keep);
            r
        }))
    }
}

/// Streaming DISTINCT: drops rows whose output values were already seen,
/// preserving input order.  Values are compared by their order-preserving
/// encoding, so SQL-equal numerics (`2`, `2.0`) deduplicate and NULLs are
/// one value, as in SQLite.
struct DistinctOp {
    input: Box<dyn RowSource + Send>,
    seen: HashSet<Vec<u8>>,
}

impl RowSource for DistinctOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        while let Some(row) = self.input.next_row(cx)? {
            let mut enc = Vec::with_capacity(row.len() * 10);
            for v in &row {
                encode_index_value(&mut enc, v);
            }
            if self.seen.insert(enc) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// OFFSET/LIMIT: skips, then yields at most `take` rows — and never pulls
/// the row after the last one, which is what makes bounded ordered scans
/// read `limit + offset` entries and stop.
struct OffsetLimitOp {
    input: Box<dyn RowSource + Send>,
    skip: u64,
    take: Option<u64>,
    yielded: u64,
    done: bool,
}

impl RowSource for OffsetLimitOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        if self.done {
            return Ok(None);
        }
        if let Some(t) = self.take {
            if self.yielded >= t {
                self.done = true;
                return Ok(None);
            }
        }
        while self.skip > 0 {
            if self.input.next_row(cx)?.is_none() {
                self.done = true;
                return Ok(None);
            }
            self.skip -= 1;
        }
        match self.input.next_row(cx)? {
            Some(r) => {
                self.yielded += 1;
                Ok(Some(r))
            }
            None => {
                self.done = true;
                Ok(None)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE metering
// ---------------------------------------------------------------------------

/// Per-operator measurements accumulated while an EXPLAIN ANALYZE pipeline
/// runs.  Counts are *inclusive* of everything beneath the operator (they
/// are trace-counter deltas taken around `next_row`); [`Meter::report`]
/// subtracts the child's share so the report shows each operator's own KV
/// work.
struct MeterCell {
    label: String,
    /// The pipeline leaf (scan / minmax): its `rows_in` is the number of
    /// entries it examined (`RowsScanned` delta) rather than a child's
    /// output.
    leaf: bool,
    rows_out: AtomicU64,
    scanned: AtomicU64,
    kv_fetches: AtomicU64,
    fetchbacks: AtomicU64,
    elapsed_us: AtomicU64,
}

impl MeterCell {
    fn new(label: String, leaf: bool) -> MeterCell {
        MeterCell {
            label,
            leaf,
            rows_out: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
            kv_fetches: AtomicU64::new(0),
            fetchbacks: AtomicU64::new(0),
            elapsed_us: AtomicU64::new(0),
        }
    }
}

/// Collects the cells of one metered pipeline, leaf first.  Built only for
/// EXPLAIN ANALYZE — a plain SELECT never constructs meter state.
struct Meter {
    cells: std::cell::RefCell<Vec<Arc<MeterCell>>>,
}

/// `(clock, NodeFetches, FetchBacks, RowsScanned)` snapshot bracketing a
/// metered region.
type MeterProbe = (std::time::Instant, u64, u64, u64);

fn meter_probe() -> MeterProbe {
    (
        clock::now(),
        counter_value(TraceCounter::NodeFetches),
        counter_value(TraceCounter::FetchBacks),
        counter_value(TraceCounter::RowsScanned),
    )
}

impl Meter {
    fn new() -> Meter {
        Meter {
            cells: std::cell::RefCell::new(Vec::new()),
        }
    }

    fn cell(&self, label: String, leaf: bool) -> Arc<MeterCell> {
        let cell = Arc::new(MeterCell::new(label, leaf));
        self.cells.borrow_mut().push(Arc::clone(&cell));
        cell
    }

    /// One report row per operator, top of the pipeline first:
    /// `[operator, rows_in, rows_out, kv_fetches, fetchbacks, elapsed_us]`.
    fn report(&self) -> Vec<Vec<Value>> {
        let cells = self.cells.borrow();
        let mut rows = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate().rev() {
            let child = if i > 0 { Some(&cells[i - 1]) } else { None };
            let rows_in = if cell.leaf {
                cell.scanned.load(AtomicOrdering::Relaxed)
            } else {
                child
                    .map(|c| c.rows_out.load(AtomicOrdering::Relaxed))
                    .unwrap_or(0)
            };
            // A parent's inclusive count minus its child's is the KV work
            // the operator performed itself (in practice: fetches at the
            // scan, zero above it).
            let own = |f: fn(&MeterCell) -> &AtomicU64| {
                f(cell).load(AtomicOrdering::Relaxed).saturating_sub(
                    child
                        .map(|c| f(c).load(AtomicOrdering::Relaxed))
                        .unwrap_or(0),
                )
            };
            rows.push(vec![
                Value::Text(cell.label.clone()),
                Value::Int(rows_in as i64),
                Value::Int(cell.rows_out.load(AtomicOrdering::Relaxed) as i64),
                Value::Int(own(|c| &c.kv_fetches) as i64),
                Value::Int(own(|c| &c.fetchbacks) as i64),
                Value::Int(cell.elapsed_us.load(AtomicOrdering::Relaxed) as i64),
            ]);
        }
        rows
    }
}

/// Wraps one operator of a metered pipeline: charges elapsed time and the
/// trace-counter deltas of every `next_row` to its cell.
struct MeterOp {
    inner: Box<dyn RowSource + Send>,
    cell: Arc<MeterCell>,
}

impl MeterOp {
    /// Charges a bracketed region (a `next_row`, or the open-time work of
    /// the access path) to `cell`.
    fn charge(cell: &MeterCell, probe: MeterProbe) {
        let (t0, f0, b0, s0) = probe;
        cell.elapsed_us
            .fetch_add(clock::elapsed_us(t0), AtomicOrdering::Relaxed);
        cell.kv_fetches.fetch_add(
            counter_value(TraceCounter::NodeFetches) - f0,
            AtomicOrdering::Relaxed,
        );
        cell.fetchbacks.fetch_add(
            counter_value(TraceCounter::FetchBacks) - b0,
            AtomicOrdering::Relaxed,
        );
        cell.scanned.fetch_add(
            counter_value(TraceCounter::RowsScanned) - s0,
            AtomicOrdering::Relaxed,
        );
    }
}

impl RowSource for MeterOp {
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>> {
        let probe = meter_probe();
        let r = self.inner.next_row(cx);
        Self::charge(&self.cell, probe);
        if matches!(r, Ok(Some(_))) {
            self.cell.rows_out.fetch_add(1, AtomicOrdering::Relaxed);
        }
        r
    }
}

/// Wraps `src` in a [`MeterOp`] when a meter is present, else passes it
/// through untouched (the plain-SELECT path).
fn metered(
    meter: Option<&Meter>,
    label: &str,
    leaf: bool,
    src: Box<dyn RowSource + Send>,
) -> Box<dyn RowSource + Send> {
    match meter {
        None => src,
        Some(m) => Box::new(MeterOp {
            inner: src,
            cell: m.cell(label.to_string(), leaf),
        }),
    }
}

/// The report label of the pipeline leaf.
fn leaf_label(p: &SelectPlan) -> String {
    match &p.access {
        AccessPath::RowidPoint(_) => format!("point {}", p.schema.name),
        AccessPath::RowidRange { .. } => format!("range {}", p.schema.name),
        AccessPath::FullScan => format!("scan {}", p.schema.name),
        AccessPath::IndexScan { index, .. } => {
            let ix = &p.schema.indexes[*index];
            if p.covering {
                format!("index {}.{} covering", p.schema.name, ix.name)
            } else {
                format!("index {}.{}", p.schema.name, ix.name)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SELECT pipeline assembly
// ---------------------------------------------------------------------------

/// Assembles the operator stack of a SELECT (see the module diagram).  With
/// a meter (EXPLAIN ANALYZE) every operator is wrapped in a [`MeterOp`] and
/// the access path's open-time work (the point lookup, cursor seeks, the
/// one-row MIN/MAX read) is charged to the leaf's cell.
fn open_select(cx: &ExecCtx<'_>, p: &SelectPlan, meter: Option<&Meter>) -> Result<RowStream> {
    let open_probe = meter.map(|_| meter_probe());
    // Source: scan (+ aggregation), or the one-row MIN/MAX read.
    let (src, proj_layout): (Box<dyn RowSource + Send>, ColumnLayout) = match &p.aggregate {
        Some(agg) if agg.strategy == AggStrategy::MinMax => {
            let row = open_minmax(cx, p, agg)?;
            let leaf = metered(
                meter,
                &format!("minmax {}", p.schema.name),
                true,
                Box::new(OneRowOp { row: Some(row) }),
            );
            if let (Some(m), Some(probe)) = (meter, open_probe) {
                MeterOp::charge(m.cells.borrow().last().expect("leaf cell"), probe);
            }
            (leaf, ColumnLayout::empty())
        }
        Some(agg) => {
            let scan = ScanOp::open(
                cx,
                std::sync::Arc::clone(&p.schema),
                p.layout.clone(),
                &p.access,
                p.filter.clone(),
                p.covering,
            )?;
            let leaf = metered(meter, &leaf_label(p), true, Box::new(scan));
            if let (Some(m), Some(probe)) = (meter, open_probe) {
                MeterOp::charge(m.cells.borrow().last().expect("leaf cell"), probe);
            }
            (
                metered(
                    meter,
                    &format!("aggregate {}", agg.strategy.name()),
                    false,
                    Box::new(AggregateOp::new(
                        leaf,
                        p.layout.clone(),
                        std::sync::Arc::clone(agg),
                    )),
                ),
                // Aggregate-query expressions are Slot-based; no names to
                // resolve.
                ColumnLayout::empty(),
            )
        }
        None => {
            let scan = ScanOp::open(
                cx,
                std::sync::Arc::clone(&p.schema),
                p.layout.clone(),
                &p.access,
                p.filter.clone(),
                p.covering,
            )?;
            let leaf = metered(meter, &leaf_label(p), true, Box::new(scan));
            if let (Some(m), Some(probe)) = (meter, open_probe) {
                MeterOp::charge(m.cells.borrow().last().expect("leaf cell"), probe);
            }
            (leaf, p.layout.clone())
        }
    };

    // Projection (+ sort keys when the sort survives).
    let n_out = p.output.len();
    let mut src: Box<dyn RowSource + Send> = metered(
        meter,
        "project",
        false,
        Box::new(ProjectOp {
            input: src,
            layout: proj_layout,
            output: std::sync::Arc::clone(&p.output),
            order: std::sync::Arc::clone(&p.order_by),
            with_keys: p.sort_needed,
        }),
    );

    if p.sort_needed {
        src = metered(
            meter,
            "sort",
            false,
            Box::new(TrimOp {
                input: Box::new(SortOp {
                    input: src,
                    key_start: n_out,
                    desc: p.order_by.iter().map(|s| s.desc).collect(),
                    sorted: None,
                }),
                keep: n_out,
            }),
        );
    }
    if p.distinct {
        src = metered(
            meter,
            "distinct",
            false,
            Box::new(DistinctOp {
                input: src,
                seen: HashSet::new(),
            }),
        );
    }
    if p.limit.is_some() || p.offset.is_some() {
        src = metered(
            meter,
            "limit",
            false,
            Box::new(OffsetLimitOp {
                input: src,
                skip: p.offset.unwrap_or(0),
                take: p.limit,
                yielded: 0,
                done: false,
            }),
        );
    }

    Ok(RowStream {
        columns: p.output.iter().map(|o| o.name.clone()).collect(),
        src,
    })
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// Executes the inner plan and reports per-operator measurements instead of
/// its rows: `(operator, rows_in, rows_out, kv_fetches, fetchbacks,
/// elapsed_us)`, with the plan description first and a `total` row last.
///
/// A trace is forced for the duration (regardless of the sampling rate), so
/// the per-operator KV-fetch and fetch-back numbers come from the same
/// trace counters the histograms and slow-op ring use — the report is
/// cross-checkable against the `dbt.*` / `sql.*` registry counters.
/// `elapsed_us` is inclusive of the operator's children (as in other
/// engines' EXPLAIN ANALYZE); `kv_fetches`/`fetchbacks` are each operator's
/// own.  SELECT plans get one row per operator; DML and DDL report the
/// `total` row only (their work is not operator-shaped).
fn exec_explain_analyze(cx: &ExecCtx<'_>, inner: &Plan) -> Result<ResultSet> {
    let obs = cx.catalog.engine().stats().obs();
    let _trace = obs.force_trace("explain_analyze".to_string());
    let probe = meter_probe();
    let (mut op_rows, rows_out) = match inner {
        Plan::Select(p) => {
            let meter = Meter::new();
            let mut stream = open_select(cx, p, Some(&meter))?;
            let mut n = 0u64;
            while stream.next_row(cx)?.is_some() {
                n += 1;
            }
            (meter.report(), n)
        }
        other => {
            let rs = execute_plan_inner(cx, other)?;
            let n = if rs.rows.is_empty() {
                rs.rows_affected
            } else {
                rs.rows.len() as u64
            };
            (Vec::new(), n)
        }
    };
    let (t0, f0, b0, _) = probe;
    let mut rows = Vec::with_capacity(op_rows.len() + 2);
    rows.push(vec![
        Value::Text(format!("plan: {}", inner.describe())),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ]);
    rows.append(&mut op_rows);
    rows.push(vec![
        Value::Text("total".to_string()),
        Value::Null,
        Value::Int(rows_out as i64),
        Value::Int((counter_value(TraceCounter::NodeFetches) - f0) as i64),
        Value::Int((counter_value(TraceCounter::FetchBacks) - b0) as i64),
        Value::Int(clock::elapsed_us(t0) as i64),
    ]);
    Ok(ResultSet {
        columns: [
            "operator",
            "rows_in",
            "rows_out",
            "kv_fetches",
            "fetchbacks",
            "elapsed_us",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        rows_affected: 0,
        last_rowid: None,
    })
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

/// An exact rowid from a column value, for explicit rowid-column writes.
fn exact_rowid(v: &Value, table: &str, col: &str) -> Result<i64> {
    value_to_rowid(v).ok_or_else(|| {
        Error::Type(format!(
            "{table}.{col} is the rowid and must be an integer, got {v}"
        ))
    })
}

/// Enforces NOT NULL (and PRIMARY KEY, which implies it) on a full row.
fn check_not_null(schema: &TableSchema, row: &[Value]) -> Result<()> {
    for (i, c) in schema.columns.iter().enumerate() {
        if (c.not_null || c.primary_key) && row[i].is_null() {
            return Err(Error::Constraint(format!(
                "NOT NULL constraint failed: {}.{}",
                schema.name, c.name
            )));
        }
    }
    Ok(())
}

/// The indexed values of a row for one index.
fn index_values(ix: &IndexInfo, row: &[Value]) -> Vec<Value> {
    ix.columns.iter().map(|&c| row[c].clone()).collect()
}

/// The key of the entry a row with rowid `rid` and indexed values `vals`
/// has in `ix`, and whether it is a unique key — the bare values, mapping
/// to the rowid — rather than values plus a rowid suffix mapping to
/// nothing.  Unique entries with any NULL value take the suffix like
/// non-unique ones (SQL treats NULLs as distinct, so they never conflict).
/// Every reader and writer of index entries goes through here.
fn index_entry_key(ix: &IndexInfo, vals: &[Value], rid: i64) -> (Vec<u8>, bool) {
    if ix.unique && !vals.iter().any(Value::is_null) {
        (encode_index_key(vals, None), true)
    } else {
        (encode_index_key(vals, Some(rid)), false)
    }
}

/// Inserts one index entry, enforcing uniqueness; a non-unique entry is
/// put unread, and so is a unique one whose check may answer at the commit
/// (`at_commit`: an autocommit INSERT; module docs, "Index maintenance").
fn insert_index_entry(
    itree: &Dbt,
    txn: &Txn,
    ix: &IndexInfo,
    table_name: &str,
    (vals, rid): (&[Value], i64),
    at_commit: bool,
) -> Result<()> {
    match index_entry_key(ix, vals, rid) {
        (key, true) => {
            // One descent decides and writes: the leaf's probe is the
            // uniqueness check, here or at the commit.
            let value = encode_row(&[Value::Int(rid)]);
            let inserted = if at_commit {
                itree.insert_if_absent_unread(txn, &key, &value)?
            } else {
                itree.insert_if_absent(txn, &key, &value)?
            };
            if !inserted {
                return Err(index_taken(table_name, ix));
            }
            Ok(())
        }
        (key, false) => itree.put_unread(txn, &key, &[]),
    }
}

/// The violation of the unique index `ix` of `table_name`.
fn index_taken(table_name: &str, ix: &IndexInfo) -> Error {
    Error::Constraint(format!(
        "UNIQUE constraint failed: {table_name} index {}",
        ix.name
    ))
}

/// The violation of the rowid column of `schema`, which has one.
fn rowid_taken(schema: &TableSchema) -> Error {
    let rc = schema.rowid_col.expect("a rowid column");
    Error::Constraint(format!(
        "UNIQUE constraint failed: {}.{}",
        schema.name, schema.columns[rc].name
    ))
}

/// What an autocommit statement answers for a put-if-absent that found
/// `key` present in the leaf `obj` at its commit: the uniqueness violation
/// the fetch path's probe reports for a unique-index entry or a rowid the
/// INSERT was given; for a rowid the allocator chose, a refusal of the
/// leaf's edits, whose retry takes the fetch path, which skips taken ids.
fn key_present(
    catalog: &Catalog,
    plan: &Plan,
    params: &[Value],
    obj: ObjectId,
    key: Bytes,
) -> Error {
    let p = match plan {
        Plan::Insert(p) => p,
        Plan::ExplainAnalyze(inner) => return key_present(catalog, inner, params, obj, key),
        _ => return Error::KeyPresent { obj, key },
    };
    let schema = &p.schema;
    if let Some(ix) = schema.indexes.iter().find(|ix| ix.tree == obj.tree) {
        return index_taken(&schema.name, ix);
    }
    let rid = match decode_rowid_key(&key) {
        Ok(rid) if obj.tree == schema.tree => rid,
        _ => return Error::KeyPresent { obj, key },
    };
    let given = |exprs: &Vec<Expr>| -> bool {
        let row = new_row(p, exprs, params);
        let rid_of = |row: Vec<Value>| schema.rowid_col.and_then(|rc| value_to_rowid(&row[rc]));
        row.ok().and_then(rid_of) == Some(rid)
    };
    if p.rows.iter().any(given) {
        return rowid_taken(schema);
    }
    catalog.engine().refuse_unread(obj);
    let reason = format!("rowid {rid}, chosen by the allocator, is taken");
    Error::EditRefused { obj, reason }
}

/// Removes the index entry a row contributed, unread.
fn delete_index_entry(
    itree: &Dbt,
    txn: &Txn,
    ix: &IndexInfo,
    vals: &[Value],
    rid: i64,
) -> Result<()> {
    itree.remove_unread(txn, &index_entry_key(ix, vals, rid).0)
}

/// `(tree, key)` if writing `key` fetches its leaf: a write whose answer
/// the statement needs now (`answer_now`: an insert that checks the key is
/// absent, outside autocommit) always does, any other only when it cannot
/// go unread ([`Dbt::edits_unread`]).
fn leaf_to_fetch<'t>(
    txn: &Txn,
    tree: &'t Dbt,
    (key, answer_now): (Vec<u8>, bool),
) -> Option<(&'t Dbt, Vec<u8>)> {
    (answer_now || !tree.edits_unread(txn, &key)).then_some((tree, key))
}

/// Fetches, in one round, the leaves a statement is about to search for
/// `keys`, each `(tree, key)` — the row leaf and the index leaves of one
/// row, which are independent of each other — so that the searches that
/// follow cost no round trip each.  Only where the transaction prefetches
/// ([`Txn::prefetches`]); elsewhere not even the keys are built.
fn prefetch_leaves<'t>(cx: &ExecCtx<'_>, keys: impl FnOnce() -> Vec<(&'t Dbt, Vec<u8>)>) {
    if !cx.txn.prefetches() {
        return;
    }
    let leaves: Vec<ObjectId> = keys()
        .iter()
        .filter_map(|(tree, key)| tree.leaf_to_fetch(key))
        .collect();
    cx.txn.prefetch(&leaves);
}

/// The rowid a new row asks for first, and whether it was given: its
/// rowid-column value, or else the next id from the table's allocator.
/// The row's rowid column is set to it, and the row is checked complete.
fn first_rowid(catalog: &Catalog, schema: &TableSchema, row: &mut [Value]) -> Result<(i64, bool)> {
    let picked = match schema.rowid_col {
        Some(rc) if !row[rc].is_null() => (
            exact_rowid(&row[rc], &schema.name, &schema.columns[rc].name)?,
            true,
        ),
        _ => (catalog.allocate_rowids(schema, 1)?, false),
    };
    if let Some(rc) = schema.rowid_col {
        row[rc] = Value::Int(picked.0);
    }
    check_not_null(schema, row)?;
    Ok(picked)
}

/// Stores a new row under its rowid and returns it: `rid` from
/// [`first_rowid`], and if that was allocated and is taken, the next free id
/// from the table's allocator.  The row leaf's own probe is the occupancy
/// check, so each candidate rowid costs one descent, and an occupied one
/// buffers nothing; in autocommit the probe goes unread, and answers at
/// the commit ([`key_present`]) unless the fetch path takes it.
fn insert_row(
    cx: &ExecCtx<'_>,
    schema: &TableSchema,
    table: &Dbt,
    row: &mut [Value],
    (mut rid, explicit): (i64, bool),
) -> Result<i64> {
    loop {
        let (key, value) = (encode_rowid_key(rid), encode_row(row));
        let inserted = if cx.autocommit {
            table.insert_if_absent_unread(cx.txn, &key, &value)?
        } else {
            table.insert_if_absent(cx.txn, &key, &value)?
        };
        if inserted {
            return Ok(rid);
        }
        if explicit && schema.rowid_col.is_some() {
            return Err(rowid_taken(schema));
        }
        // The allocator is non-transactional (ids burned by aborts are lost,
        // like SQLite's AUTOINCREMENT under concurrency); explicit inserts
        // may have taken ids ahead of the counter, so skip occupied ones.
        rid = cx.catalog.allocate_rowids(schema, 1)?;
        if let Some(rc) = schema.rowid_col {
            row[rc] = Value::Int(rid);
        }
    }
}

/// One row of an INSERT's `VALUES`, each given column coerced to its type
/// and every other NULL.
fn new_row(p: &InsertPlan, exprs: &[Expr], params: &[Value]) -> Result<Vec<Value>> {
    let schema = &p.schema;
    let mut row = vec![Value::Null; schema.columns.len()];
    for (e, &col) in exprs.iter().zip(&p.columns) {
        row[col] = const_eval(e, params)?.coerce(schema.columns[col].ctype);
    }
    Ok(row)
}

/// The trees of a table's secondary indexes, in `schema.indexes` order.
fn index_trees(cx: &ExecCtx<'_>, schema: &TableSchema) -> Vec<Dbt> {
    schema
        .indexes
        .iter()
        .map(|ix| cx.catalog.engine().tree(ix.tree))
        .collect()
}

fn exec_insert(cx: &ExecCtx<'_>, p: &InsertPlan) -> Result<ResultSet> {
    let schema = &p.schema;
    let table = cx.catalog.engine().tree(schema.tree);
    let itrees = index_trees(cx, schema);
    let mut affected = 0u64;
    let mut last_rowid = None;
    // A probe's answer is needed now unless the statement commits alone.
    let answer_now = !cx.autocommit;
    for value_exprs in &p.rows {
        let mut row = new_row(p, value_exprs, cx.params)?;
        let first = first_rowid(cx.catalog, schema, &mut row)?;
        prefetch_leaves(cx, || {
            let row_key = (encode_rowid_key(first.0), answer_now);
            let mut keys: Vec<_> = leaf_to_fetch(cx.txn, &table, row_key).into_iter().collect();
            for (ix, itree) in schema.indexes.iter().zip(&itrees) {
                let (key, unique) = index_entry_key(ix, &index_values(ix, &row), first.0);
                keys.extend(leaf_to_fetch(cx.txn, itree, (key, unique && answer_now)));
            }
            keys
        });
        let rid = insert_row(cx, schema, &table, &mut row, first)?;
        for (ix, itree) in schema.indexes.iter().zip(&itrees) {
            let entry = (&index_values(ix, &row)[..], rid);
            insert_index_entry(itree, cx.txn, ix, &schema.name, entry, cx.autocommit)?;
        }
        affected += 1;
        last_rowid = Some(rid);
    }
    Ok(ResultSet {
        columns: Vec::new(),
        rows: Vec::new(),
        rows_affected: affected,
        last_rowid,
    })
}

/// Materialises the rows an UPDATE/DELETE affects.  Collecting first keeps
/// the mutation phase from racing the scan that feeds it (the scan would
/// otherwise observe the statement's own writes through the transaction's
/// buffer — the Halloween problem).
fn collect_matches(cx: &ExecCtx<'_>, target: &DmlTarget) -> Result<Vec<(i64, Vec<Value>)>> {
    let mut scan = ScanOp::open(
        cx,
        std::sync::Arc::clone(&target.schema),
        target.layout.clone(),
        &target.access,
        target.filter.clone(),
        false,
    )?;
    let mut matches = Vec::new();
    while let Some(m) = scan.next_base(cx)? {
        matches.push(m);
    }
    Ok(matches)
}

/// Every row an UPDATE (or a DELETE) changes was fetched by
/// [`collect_matches`], so rewriting its row leaf costs no round trip — the
/// transaction remembers the leaf.  Its index entries are edited unread
/// where they may be (module docs, "Index maintenance"); the leaves it must
/// read are fetched together, first.
fn exec_update(cx: &ExecCtx<'_>, p: &crate::plan::UpdatePlan) -> Result<ResultSet> {
    let schema = &p.target.schema;
    let table = cx.catalog.engine().tree(schema.tree);
    let itrees = index_trees(cx, schema);
    let layout = p.target.layout.clone();
    let matches = collect_matches(cx, &p.target)?;
    let mut affected = 0u64;
    for (rid, old_row) in matches {
        let ctx = EvalCtx {
            layout: &layout,
            row: &old_row,
            params: cx.params,
        };
        let mut new_row = old_row.clone();
        for (pos, e) in &p.assignments {
            new_row[*pos] = ctx.eval(e)?.coerce(schema.columns[*pos].ctype);
        }
        let mut new_rid = rid;
        if let Some(rc) = schema.rowid_col {
            if p.assignments.iter().any(|(pos, _)| *pos == rc) {
                new_rid = exact_rowid(&new_row[rc], &schema.name, &schema.columns[rc].name)?;
                new_row[rc] = Value::Int(new_rid);
            }
        }
        check_not_null(schema, &new_row)?;

        // The indexes whose entry moves, with the old and the new values.
        let moved: Vec<_> = schema
            .indexes
            .iter()
            .zip(&itrees)
            .map(|(ix, itree)| {
                let (old, new) = (index_values(ix, &old_row), index_values(ix, &new_row));
                (ix, itree, old, new)
            })
            .filter(|(_, _, old, new)| old != new || new_rid != rid)
            .collect();
        prefetch_leaves(cx, || {
            let mut keys: Vec<_> = moved
                .iter()
                .flat_map(|(ix, itree, old, new)| {
                    let old = (index_entry_key(ix, old, rid).0, false);
                    let new = index_entry_key(ix, new, new_rid);
                    [old, new]
                        .into_iter()
                        .filter_map(|entry| leaf_to_fetch(cx.txn, itree, entry))
                })
                .collect();
            if new_rid != rid {
                keys.push((&table, encode_rowid_key(new_rid)));
            }
            keys
        });
        if new_rid != rid {
            if table.lookup(cx.txn, &encode_rowid_key(new_rid))?.is_some() {
                return Err(rowid_taken(schema));
            }
            table.delete(cx.txn, &encode_rowid_key(rid))?;
        }
        for (ix, itree, old_vals, new_vals) in &moved {
            delete_index_entry(itree, cx.txn, ix, old_vals, rid)?;
            let entry = (&new_vals[..], new_rid);
            insert_index_entry(itree, cx.txn, ix, &schema.name, entry, false)?;
        }
        table.insert(cx.txn, &encode_rowid_key(new_rid), &encode_row(&new_row))?;
        affected += 1;
    }
    Ok(ResultSet {
        rows_affected: affected,
        ..ResultSet::empty()
    })
}

fn exec_delete(cx: &ExecCtx<'_>, p: &crate::plan::DeletePlan) -> Result<ResultSet> {
    let schema = &p.target.schema;
    let table = cx.catalog.engine().tree(schema.tree);
    let itrees = index_trees(cx, schema);
    let matches = collect_matches(cx, &p.target)?;
    let mut affected = 0u64;
    for (rid, row) in matches {
        prefetch_leaves(cx, || {
            (schema.indexes.iter().zip(&itrees))
                .filter_map(|(ix, itree)| {
                    let key = index_entry_key(ix, &index_values(ix, &row), rid).0;
                    leaf_to_fetch(cx.txn, itree, (key, false))
                })
                .collect()
        });
        for (ix, itree) in schema.indexes.iter().zip(&itrees) {
            delete_index_entry(itree, cx.txn, ix, &index_values(ix, &row), rid)?;
        }
        table.delete(cx.txn, &encode_rowid_key(rid))?;
        affected += 1;
    }
    Ok(ResultSet {
        rows_affected: affected,
        ..ResultSet::empty()
    })
}
