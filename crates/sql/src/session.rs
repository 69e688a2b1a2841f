//! The SQL session: one way to run a statement.
//!
//! A [`Session`] is one SQL connection — the catalog (its schema cache), the
//! statement cache, and the explicit transaction opened by `BEGIN`, if any.
//! Every entry point reduces to the same two steps:
//!
//! 1. **Look up or prepare** a `Stmt`: the SQL text, its retained AST, its
//!    [`ParamInfo`] table, and a *pin* — the `(Arc<Plan>, generation)` it was
//!    last planned under.  [`Session::prepare`] hands one out inside a
//!    [`Prepared`] handle; [`Session::execute`] / [`Session::query`] find
//!    theirs in the per-session statement cache (an LRU keyed by the text).
//!    It is the same object either way, so ad-hoc and prepared execution
//!    cannot drift apart.
//! 2. **Run it**: `run` collects a [`ResultSet`], `open` streams [`Rows`].
//!    Inside an explicit transaction the statement joins it; otherwise it
//!    autocommits through [`KvClient::retry_txn`] and
//!    [`crate::execute_and_commit`] — one snapshot-isolated transaction per
//!    attempt, retried on conflicts, lock timeouts and availability
//!    failures.  The pin is revalidated against the catalog
//!    generation inside the attempt's transaction, and a stale one replans
//!    from the AST there: never a reparse, never a throwaway transaction.
//!
//! # The invalidation rule
//!
//! The schema cache is only ever made *wrong* by this session's own DDL:
//! `CREATE TABLE` / `CREATE INDEX` / `DROP TABLE` update it (and bump the
//! generation) when they execute, before their transaction commits.  So:
//!
//! * a transaction that **executed a DDL plan and did not commit** — rolled
//!   back, failed at `COMMIT`, killed by an error, or an autocommit attempt
//!   about to be retried — clears the cache (an explicit transaction
//!   remembers having run DDL in a flag);
//! * a **non-retryable error** from planning or executing still clears it:
//!   the staleness heuristic [`Catalog::invalidate`] documents (another
//!   session's DDL shows up here as "no such table/column" or a constraint
//!   failure, and the next statement should re-read the schema);
//! * a **retryable failure** — conflict, lock timeout, timeout, unavailable —
//!   of a DML or query statement touches nothing: not the cache, not the
//!   generation, not a single pin.
//!
//! The last point is safe because DML cannot stale a schema.  DML *reads*
//! schemas through its transaction's snapshot, which holds committed data
//! only, so whatever an aborted attempt cached is what the retry would load
//! again; and a conflict says two transactions wrote the same row or tree
//! node, which says nothing about any table's definition.  Throwing the
//! cache away there cost every pinned plan of the session a replan (and, over
//! a slow network, a schema reload) per conflict, for nothing.
//!
//! All of it lives in one function, `Session::uncommitted`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use yesquel_common::obs::trace::Trace;
use yesquel_common::{Error, Result};
use yesquel_kv::{KvClient, Txn};
use yesquel_ydbt::DbtEngine;

use crate::ast::Statement;
use crate::{Catalog, ExecCtx, ParamInfo, Plan, ResultSet, Row, RowStream, Value};

/// Capacity of the per-session statement cache.  Web workloads repeat a
/// small set of statement shapes, so a small LRU captures nearly all of the
/// parse cost (and, between DDLs, the plan cost).
const STMT_CACHE_CAP: usize = 128;

/// One parsed statement and its pinned plan — what a [`Prepared`] handle
/// owns and what the statement cache stores.
struct Stmt {
    sql: Arc<str>,
    ast: Statement,
    info: ParamInfo,
    /// The plan and the catalog generation it was planned under; `None`
    /// until first planned.
    pin: Mutex<Option<(Arc<Plan>, u64)>>,
}

impl Stmt {
    fn new(sql: Arc<str>, ast: Statement, info: ParamInfo) -> Stmt {
        Stmt {
            sql,
            ast,
            info,
            pin: Mutex::new(None),
        }
    }

    fn parse(catalog: &Catalog, sql: &str) -> Result<Stmt> {
        catalog.counters().parses.inc();
        let (ast, info) = crate::parse_with_params(sql)?;
        Ok(Stmt::new(sql.into(), ast, info))
    }

    /// The pinned plan if the catalog has not moved since it was made, else
    /// a replan from the retained AST inside `txn`, re-pinned.
    fn plan(&self, catalog: &Catalog, txn: &Txn) -> Result<Arc<Plan>> {
        // Read before planning: an invalidation that lands mid-plan leaves
        // the new pin already stale, and the next use replans.
        let generation = catalog.generation();
        if let Some((plan, pinned_at)) = &*self.pin.lock() {
            if *pinned_at == generation {
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(crate::plan_statement(catalog, txn, &self.ast)?);
        *self.pin.lock() = Some((Arc::clone(&plan), generation));
        Ok(plan)
    }

    fn is_txn_control(&self) -> bool {
        matches!(
            self.ast,
            Statement::Begin | Statement::Commit | Statement::Rollback
        )
    }

    /// EXPLAIN describes the plan without evaluating parameters, so unbound
    /// placeholders are fine there.
    fn is_explain(&self) -> bool {
        matches!(self.ast, Statement::Explain(_))
    }

    fn check_arity(&self, supplied: usize) -> Result<()> {
        if self.is_explain() {
            Ok(())
        } else {
            self.info.check_arity(supplied)
        }
    }

    /// Resolves named pairs into the positional array.  Under EXPLAIN
    /// unknown names and double binds still error (they are mistakes), but
    /// unbound slots are filled with NULL.
    fn bind_named(&self, pairs: &[(&str, Value)]) -> Result<Vec<Value>> {
        if self.is_explain() {
            self.info.bind_named_lenient(pairs)
        } else {
            self.info.bind_named(pairs)
        }
    }

    /// Only statements that produce rows can be opened as a stream.
    fn require_query(&self) -> Result<()> {
        match self.ast {
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_) => Ok(()),
            _ => Err(Error::InvalidArgument(
                "query() streams SELECT/EXPLAIN statements; use execute() for everything else"
                    .into(),
            )),
        }
    }
}

/// The per-session LRU of statements, keyed by SQL text: each entry is the
/// statement and the tick it was last used at.
#[derive(Default)]
struct StmtCache {
    map: HashMap<Arc<str>, (Arc<Stmt>, u64)>,
    tick: u64,
}

/// The explicit transaction of a session, and whether it has executed DDL
/// (see the module doc's invalidation rule).
struct OpenTxn {
    txn: Txn,
    ran_ddl: bool,
}

/// One SQL connection: the catalog (schema cache), the statement cache, and
/// the explicit transaction opened by `BEGIN`, if any.
///
/// Outside an explicit transaction every statement autocommits: it runs in
/// its own snapshot-isolated transaction, retried on write-write conflicts
/// and availability failures; when the retries run out on an unreachable
/// cluster the caller gets a clean [`Error::Unavailable`].  Inside
/// `BEGIN`…`COMMIT` all statements share one transaction and a commit-time
/// conflict surfaces as [`Error::Conflict`] from `COMMIT`.
pub struct Session {
    client: KvClient,
    catalog: Arc<Catalog>,
    current: Mutex<Option<OpenTxn>>,
    stmt_cache: Mutex<StmtCache>,
}

impl Session {
    /// Opens a session over a client-side DBT engine (bootstrapping the
    /// catalog tree on first use of the deployment).
    pub fn new(engine: Arc<DbtEngine>) -> Result<Session> {
        let client = engine.kv().clone();
        let catalog = Arc::new(Catalog::open(engine)?);
        Ok(Session {
            client,
            catalog,
            current: Mutex::new(None),
            stmt_cache: Mutex::new(StmtCache::default()),
        })
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// True while an explicit transaction (`BEGIN`) is open.
    pub fn in_transaction(&self) -> bool {
        self.current.lock().is_some()
    }

    /// Number of statements resident in the statement cache (diagnostics).
    pub fn stmt_cache_len(&self) -> usize {
        self.stmt_cache.lock().map.len()
    }

    /// Prepares one statement for repeated execution: parses it, resolves
    /// its placeholders into a [`ParamInfo`] table, plans it against the
    /// catalog, and returns a [`Prepared`] handle that owns the result.
    ///
    /// Re-executing the handle performs **zero** parse and **zero** plan
    /// work — no statement-cache text hash either.  The pinned plan is
    /// revalidated against the catalog generation on every use, so DDL
    /// forces a replan from the retained AST, never a reparse.
    ///
    /// Transaction control (`BEGIN`/`COMMIT`/`ROLLBACK`) cannot be
    /// prepared; bind-time errors (arity, unknown names) surface as
    /// [`Error::Bind`] from the handle's execute/query calls.
    pub fn prepare(&self, sql_text: &str) -> Result<Prepared<'_>> {
        let stmt = Stmt::parse(&self.catalog, sql_text)?;
        if stmt.is_txn_control() {
            return Err(Error::InvalidArgument(
                "transaction control statements cannot be prepared".into(),
            ));
        }
        self.plan_of(&stmt)?;
        Ok(Prepared {
            session: self,
            stmt,
        })
    }

    /// Parses and executes one statement.
    ///
    /// The statement comes out of the session's statement cache: the second
    /// execution of the same SQL text skips the parse, and — until DDL moves
    /// the catalog generation — the plan (parameters still bind per
    /// execution, with bind-time arity checking).  For a hot statement,
    /// [`Session::prepare`] skips the text hash too.
    pub fn execute(&self, sql_text: &str, params: &[Value]) -> Result<ResultSet> {
        let stmt = self.cached(sql_text)?;
        if stmt.is_txn_control() {
            return self.execute_statement(&stmt.ast, params);
        }
        stmt.check_arity(params.len())?;
        self.run(&stmt, params)
    }

    /// Opens a statement as a pulling [`Rows`] iterator instead of
    /// materialising a [`ResultSet`].
    ///
    /// Only query statements (SELECT, EXPLAIN) can stream.  In autocommit
    /// mode the iterator owns its read-only transaction and commits it when
    /// the stream is drained (or abandons it on drop — read-only
    /// transactions hold no server-side state); opening the stream is
    /// retried like any autocommit statement, errors after that surface
    /// from the iterator.  Inside an explicit transaction the result is
    /// materialised eagerly (the session's transaction must stay available
    /// to subsequent statements) and the iterator merely replays it.
    pub fn query(&self, sql_text: &str, params: &[Value]) -> Result<Rows> {
        let stmt = self.cached(sql_text)?;
        stmt.require_query()?;
        stmt.check_arity(params.len())?;
        self.open(&stmt, params)
    }

    /// Executes every statement of a semicolon-separated script, returning
    /// the result of each.
    pub fn execute_script(&self, sql_text: &str) -> Result<Vec<ResultSet>> {
        let stmts = crate::parse_script(sql_text)?;
        self.catalog.counters().parses.add(stmts.len() as u64);
        stmts
            .iter()
            .map(|stmt| self.execute_statement(stmt, &[]))
            .collect()
    }

    /// Executes one parsed statement.
    pub fn execute_statement(&self, stmt: &Statement, params: &[Value]) -> Result<ResultSet> {
        let mut cur = self.current.lock();
        match stmt {
            Statement::Begin => {
                if cur.is_some() {
                    return Err(Error::InvalidArgument(
                        "cannot BEGIN: a transaction is already open".into(),
                    ));
                }
                *cur = Some(OpenTxn {
                    txn: self.client.begin(),
                    ran_ddl: false,
                });
            }
            Statement::Commit => {
                let open = cur.take().ok_or_else(|| {
                    Error::InvalidArgument("cannot COMMIT: no open transaction".into())
                })?;
                if let Err(e) = open.txn.commit() {
                    self.uncommitted(open.ran_ddl, Some(&e));
                    return Err(e);
                }
            }
            Statement::Rollback => {
                let open = cur.take().ok_or_else(|| {
                    Error::InvalidArgument("cannot ROLLBACK: no open transaction".into())
                })?;
                open.txn.abort();
                self.uncommitted(open.ran_ddl, None);
            }
            other => {
                drop(cur);
                let stmt = Stmt::new("".into(), other.clone(), ParamInfo::default());
                return self.run(&stmt, params);
            }
        }
        Ok(ResultSet::default())
    }

    /// Look up or prepare: the statement cache's entry for `sql_text`,
    /// parsed and inserted on a miss (evicting the least recently used
    /// entry past [`STMT_CACHE_CAP`]).  Every text that parses is cached —
    /// transaction control never plans and a DDL "plan" is its AST, so
    /// neither needs a rule of its own.  An entry whose pin DDL has made
    /// stale stays: its next run replans from its AST, like a [`Prepared`].
    fn cached(&self, sql_text: &str) -> Result<Arc<Stmt>> {
        let counters = self.catalog.counters();
        {
            let mut cache = self.stmt_cache.lock();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((stmt, last_used)) = cache.map.get_mut(sql_text) {
                *last_used = tick;
                counters.stmt_cache_hits.inc();
                return Ok(Arc::clone(stmt));
            }
        }
        counters.stmt_cache_misses.inc();
        let stmt = Arc::new(Stmt::parse(&self.catalog, sql_text)?);
        let mut cache = self.stmt_cache.lock();
        let tick = cache.tick;
        cache
            .map
            .insert(Arc::clone(&stmt.sql), (Arc::clone(&stmt), tick));
        if cache.map.len() > STMT_CACHE_CAP {
            let coldest = cache.map.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(evict) = coldest.map(|(sql, _)| Arc::clone(sql)) {
                cache.map.remove(&evict);
                counters.stmt_cache_evictions.inc();
            }
        }
        Ok(stmt)
    }

    /// The invalidation rule (module doc), in its one home.  Called with
    /// every transaction that ended without committing: whether it had
    /// executed DDL, and the error that ended it, if one did.
    fn uncommitted(&self, ran_ddl: bool, err: Option<&Error>) {
        // `RetriesExhausted` wraps a retryable error by construction.
        let stale_schema =
            err.is_some_and(|e| !e.is_retryable() && !matches!(e, Error::RetriesExhausted { .. }));
        if ran_ddl || stale_schema {
            self.catalog.invalidate_all();
        }
    }

    /// Sampled op-scoped trace (1-in-N; one relaxed load when off).  The
    /// guard spans the statement, so span timings and trace counters from
    /// every layer beneath attribute to it.
    fn trace(&self, label: &'static str) -> Option<Trace> {
        let obs = self.catalog.engine().stats().obs();
        obs.maybe_trace(|| label.to_string())
    }

    /// Runs `stmt` inside the explicit transaction, if one is open (`None`:
    /// there is none, the caller autocommits).  Planning errors write
    /// nothing and leave the transaction usable; an execution error may have
    /// buffered partial writes, so the whole transaction is aborted
    /// (statement-level rollback is not implemented).
    fn run_in_open_txn(&self, stmt: &Stmt, params: &[Value]) -> Option<Result<ResultSet>> {
        let mut cur = self.current.lock();
        let open = cur.as_mut()?;
        let plan = match stmt.plan(&self.catalog, &open.txn) {
            Ok(plan) => plan,
            Err(e) => return Some(Err(e)),
        };
        open.ran_ddl |= plan.is_ddl();
        let out = crate::execute_plan(&self.catalog, &open.txn, &plan, params);
        if let Err(e) = &out {
            let open = cur.take().expect("held since the check above");
            open.txn.abort();
            self.uncommitted(open.ran_ddl, Some(e));
        }
        Some(out)
    }

    /// First step of every autocommit attempt: the plan to run inside `txn`.
    /// `ran_ddl` carries over from the previous attempt — if that one
    /// executed DDL it did not commit, or this one would not be running.
    fn plan_attempt(&self, stmt: &Stmt, txn: &Txn, ran_ddl: &mut bool) -> Result<Arc<Plan>> {
        if std::mem::take(ran_ddl) {
            self.uncommitted(true, None);
        }
        let plan = stmt.plan(&self.catalog, txn)?;
        *ran_ddl = plan.is_ddl();
        Ok(plan)
    }

    /// Last step of an autocommit statement: applies the invalidation rule
    /// to a failure, and degrades retries exhausted on an unreachable
    /// cluster to a clean "service unavailable" the application can act on
    /// (anything else keeps the full retry context).
    fn finish<T>(&self, ran_ddl: bool, out: Result<T>) -> Result<T> {
        out.map_err(|e| {
            self.uncommitted(ran_ddl, Some(&e));
            match e {
                Error::RetriesExhausted { attempts, last } if last.is_availability() => {
                    Error::Unavailable(format!(
                        "statement gave up after {attempts} attempts: {last}"
                    ))
                }
                e => e,
            }
        })
    }

    /// Runs one statement to a [`ResultSet`]: inside the explicit
    /// transaction, or in a transaction of its own.
    fn run(&self, stmt: &Stmt, params: &[Value]) -> Result<ResultSet> {
        let _trace = self.trace("sql.execute");
        if let Some(out) = self.run_in_open_txn(stmt, params) {
            return out;
        }
        let mut ran_ddl = false;
        let out = self.client.retry_txn(|txn| {
            let plan = match self.plan_attempt(stmt, &txn, &mut ran_ddl) {
                Ok(plan) => plan,
                Err(e) => {
                    txn.abort();
                    return Err(e);
                }
            };
            crate::execute_and_commit(&self.catalog, txn, &plan, params)
        });
        self.finish(ran_ddl, out)
    }

    /// Opens one query statement as [`Rows`].  The trace covers the open
    /// (and the eager execution inside an explicit transaction); the per-row
    /// pulls of a stream belong to the caller's iteration, which has no
    /// statement-shaped scope to trace.
    fn open(&self, stmt: &Stmt, params: &[Value]) -> Result<Rows> {
        let _trace = self.trace("sql.query");
        let catalog = Arc::clone(&self.catalog);
        let params_owned = params.to_vec();
        if let Some(out) = self.run_in_open_txn(stmt, params) {
            let rs = out?;
            return Ok(Rows {
                catalog,
                params: params_owned,
                header: Arc::from(rs.columns),
                state: RowsState::Collected(rs.rows.into_iter()),
            });
        }
        // No row has been handed out before the open returns, so a failed
        // open is retried like any autocommit statement.
        let mut ran_ddl = false;
        let out = self.client.retry_txn(|txn| {
            let plan = self.plan_attempt(stmt, &txn, &mut ran_ddl)?;
            let stream = crate::open_stream(&self.catalog, &txn, &plan, params)?;
            // The rows still to pull are pulled after the statement has
            // ended, so each pull's calls get a deadline of their own.
            Ok((txn, stream))
        });
        let (txn, stream) = self.finish(ran_ddl, out)?;
        Ok(Rows {
            catalog,
            params: params_owned,
            header: Arc::from(stream.columns().to_vec()),
            state: RowsState::Streaming {
                txn: Some(txn),
                stream,
            },
        })
    }

    /// The statement's current plan for callers that will not run it:
    /// planned, if stale, inside the explicit transaction or a throwaway
    /// read-only one (dropped: it holds no server-side state).
    fn plan_of(&self, stmt: &Stmt) -> Result<Arc<Plan>> {
        match self.current.lock().as_ref() {
            Some(open) => stmt.plan(&self.catalog, &open.txn),
            None => stmt.plan(&self.catalog, &self.client.begin()),
        }
    }
}

/// A prepared statement: the parsed AST, its parameter table, and the
/// pinned [`Plan`], owned by the handle and re-executable with fresh
/// parameters.
///
/// The handle holds its plan directly — re-execution performs **zero**
/// parse and **zero** plan work, and never hashes the SQL text through
/// the session's statement cache.  Before every use the pin is revalidated
/// against the catalog generation: DDL or a schema-cache invalidation makes
/// it stale, and the next call replans from the retained AST (still zero
/// parse) and re-pins.
///
/// Binding is checked before execution: a positional arity mismatch or an
/// unknown `:name` is an [`Error::Bind`], not a runtime expression error
/// deep in the scan.
pub struct Prepared<'s> {
    session: &'s Session,
    stmt: Stmt,
}

impl std::fmt::Debug for Prepared<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.stmt.sql)
            .field("params", &self.stmt.info.len())
            .finish_non_exhaustive()
    }
}

impl Prepared<'_> {
    /// The SQL text the statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.stmt.sql
    }

    /// The statement's parameter table.
    pub fn param_info(&self) -> &ParamInfo {
        &self.stmt.info
    }

    /// Number of parameters the statement takes.
    pub fn param_count(&self) -> usize {
        self.stmt.info.len()
    }

    /// The planner's one-line description of the currently pinned plan
    /// (what `EXPLAIN` would print), revalidating first — after a
    /// `CREATE INDEX` this reflects the replanned access path.
    pub fn describe(&self) -> Result<String> {
        Ok(self.session.plan_of(&self.stmt)?.describe())
    }

    /// Executes the statement with positional parameters (see
    /// [`params!`](macro@crate::params)), checking arity at bind time.
    pub fn execute(&self, params: &[Value]) -> Result<ResultSet> {
        self.stmt.check_arity(params.len())?;
        self.session.run(&self.stmt, params)
    }

    /// Executes the statement with named parameters:
    /// `prep.execute_named(&[(":title", title.into())])?`.  Every pair must
    /// match a `:name` placeholder and every placeholder must be bound.
    pub fn execute_named(&self, params: &[(&str, Value)]) -> Result<ResultSet> {
        self.session.run(&self.stmt, &self.stmt.bind_named(params)?)
    }

    /// Opens the statement (SELECT/EXPLAIN) as a pulling [`Rows`] iterator
    /// of typed [`Row`]s.
    pub fn query(&self, params: &[Value]) -> Result<Rows> {
        self.stmt.require_query()?;
        self.stmt.check_arity(params.len())?;
        self.session.open(&self.stmt, params)
    }

    /// [`Prepared::query`] with named parameters.
    pub fn query_named(&self, params: &[(&str, Value)]) -> Result<Rows> {
        self.stmt.require_query()?;
        self.session
            .open(&self.stmt, &self.stmt.bind_named(params)?)
    }

    /// Runs the query and maps every [`Row`] through `f`:
    ///
    /// ```ignore
    /// let titles: Vec<(String, i64)> =
    ///     top.query_map(params![10], |r| Ok((r.get("title")?, r.get("views")?)))?;
    /// ```
    pub fn query_map<T>(
        &self,
        params: &[Value],
        mut f: impl FnMut(&Row) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.query(params)?.map(|row| f(&row?)).collect()
    }
}

/// How an open [`Rows`] iterator produces its rows.
enum RowsState {
    /// Pulling straight out of the operator pipeline, inside an iterator-
    /// owned autocommit transaction (`None` once the stream has ended).
    Streaming { txn: Option<Txn>, stream: RowStream },
    /// Materialised up front (queries inside an explicit transaction).
    Collected(std::vec::IntoIter<Vec<Value>>),
}

/// A pulling result iterator returned by [`Session::query`] and
/// [`Prepared::query`]: rows stream one at a time out of the executor's
/// operator stack, so abandoning the iterator early leaves unvisited rows
/// unread (a `LIMIT`-less query you stop consuming costs only what you
/// consumed).
///
/// Yields `Result<Row>` — typed rows sharing one `Arc` column header, so
/// each item costs its values plus a reference-count bump.  The first error
/// ends the stream.  When the stream is drained the owned read-only
/// transaction commits (a local no-op that cannot conflict); dropping the
/// iterator mid-stream simply drops the transaction (client-buffered, no
/// server-side state).
pub struct Rows {
    catalog: Arc<Catalog>,
    params: Vec<Value>,
    header: Arc<[String]>,
    state: RowsState,
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("columns", &self.header)
            .finish_non_exhaustive()
    }
}

impl Rows {
    /// Column headers of the result.
    pub fn columns(&self) -> &[String] {
        &self.header
    }

    /// Drains the remaining rows into a [`ResultSet`] (the collect-all
    /// convenience the executor's `ResultSet` path is itself built on).
    pub fn into_result_set(mut self) -> Result<ResultSet> {
        let columns = self.header.to_vec();
        let rows = (&mut self)
            .map(|row| row.map(Row::into_values))
            .collect::<Result<_>>()?;
        Ok(ResultSet {
            columns,
            rows,
            rows_affected: 0,
            last_rowid: None,
        })
    }
}

impl Iterator for Rows {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        let values = match &mut self.state {
            RowsState::Collected(iter) => iter.next()?,
            RowsState::Streaming { txn, stream } => {
                let cx = ExecCtx {
                    catalog: &self.catalog,
                    txn: txn.as_ref()?,
                    params: &self.params,
                    autocommit: false,
                };
                match stream.next_row(&cx) {
                    Ok(Some(values)) => values,
                    Ok(None) => return txn.take()?.commit().err().map(Err),
                    Err(e) => {
                        txn.take()?.abort();
                        return Some(Err(e));
                    }
                }
            }
        };
        Some(Ok(Row::new(Arc::clone(&self.header), values)))
    }
}
