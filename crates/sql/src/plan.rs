//! The query planner: binds a parsed [`Statement`] against the [`Catalog`]
//! and produces a typed physical plan.
//!
//! Plan shapes are deliberately few and scale-predictable (in the spirit of
//! PIQL): a point lookup by rowid, a bounded rowid range scan, a secondary-
//! index scan with an equality prefix plus at most one range column, and a
//! full table scan — each followed by a residual filter, optional
//! aggregation, projection, ORDER BY / DISTINCT / LIMIT / OFFSET.  Joins are
//! rejected with [`Error::Unsupported`] until the executor grows them.
//!
//! ## Physical properties
//!
//! Beyond choosing an access path, the planner derives two *physical
//! properties* of the chosen scan that the streaming executor exploits:
//!
//! * **Output ordering** — every access path yields rows in a known order:
//!   the primary tree by rowid, an index scan by the indexed columns (with
//!   the equality-probed prefix constant) and then by rowid.  When that
//!   order subsumes the `ORDER BY` prefix, [`SelectPlan::sort_needed`] is
//!   false, the sort operator is elided, and `LIMIT` turns into streaming
//!   early-exit: a bounded query touches only the rows it returns.
//! * **Coverage** — when the index entries alone supply every column the
//!   statement references, [`SelectPlan::covering`] is set and the executor
//!   reconstructs rows from the entries ([`crate::row::decode_index_entry`])
//!   without the per-entry rowid fetch-back into the primary tree.
//!   Coverage is refused for BLOB-declared columns, whose numeric key
//!   encodings are ambiguous (see `decode_index_entry`).
//!
//! When the WHERE clause constrains nothing, the planner will still switch a
//! full table scan to an unconstrained *covering* index scan if doing so
//! makes the requested order or grouping come out of the scan itself.
//!
//! ## Aggregates
//!
//! `COUNT(*) / COUNT(x) / SUM / AVG / MIN / MAX` with optional `GROUP BY`
//! compile to an [`AggregatePlan`].  Grouping is **streamed** when the group
//! keys are a prefix of the scan order (groups arrive contiguously, one
//! group of state at a time) and **hashed** otherwise.  A lone `MIN`/`MAX`
//! over a column positioned right after the index's equality prefix — with
//! the whole WHERE clause pushed down exactly — becomes a *one-row bounded
//! read*: the first entry of the scan for `MIN`, a reverse fence descent
//! ([`yesquel_ydbt::Dbt::seek_last`]) for `MAX`.  Output expressions of an
//! aggregate query are rewritten onto the post-aggregation row layout
//! `[group keys..., aggregates...]` via [`Expr::Slot`] references.
//!
//! ## Why predicate pushdown is exact
//!
//! The index-key encoding ([`crate::row`]) orders entries exactly as
//! [`crate::types::Value::sort_cmp`] orders values — one numeric class shared by integers
//! and reals, then text, then blobs, with NULLs first.  A pushed-down bound
//! therefore never excludes a row the predicate would accept, whatever the
//! storage classes involved; the residual filter (the full WHERE clause is
//! always re-evaluated) only ever removes rows, so access-path choice is a
//! pure performance decision, never a correctness one.  The planner
//! additionally tracks when the pushdown is *exact* (every conjunct fully
//! absorbed into the probe and bounds); only then may an operator skip the
//! residual filter, which is what licenses the one-row `MIN`/`MAX` reads.

use std::collections::HashSet;
use std::sync::Arc;

use yesquel_common::{Error, Result};
use yesquel_kv::Txn;

use crate::ast::{
    BinOp, CreateIndex, CreateTable, Delete, Expr, Insert, Select, SelectItem, Statement, Update,
};
use crate::catalog::{Catalog, IndexInfo, TableSchema};
use crate::expr::ColumnLayout;
use crate::types::ColumnType;

/// One endpoint of a pushed-down range predicate.  The expression is
/// constant (no column references) and is evaluated at execution time, so
/// plans with parameters (`WHERE id > ?`) stay reusable.
#[derive(Debug, Clone)]
pub struct RangeBound {
    /// Constant expression producing the bound value.
    pub expr: Expr,
    /// True for `>=` / `<=`, false for `>` / `<`.
    pub inclusive: bool,
}

/// How the executor reaches the rows of one table.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// `rowid = const`: one DBT point lookup.
    RowidPoint(Expr),
    /// Bounded scan of the primary tree by rowid.
    RowidRange {
        /// Lower bound, if any.
        lo: Option<RangeBound>,
        /// Upper bound, if any.
        hi: Option<RangeBound>,
    },
    /// Secondary-index scan: equality on a prefix of the indexed columns,
    /// optionally a range on the next one, then (unless the plan is
    /// covering) a rowid fetch-back per entry.
    IndexScan {
        /// Position of the index in [`TableSchema::indexes`].
        index: usize,
        /// Constant equality probes for `index.columns[..eq.len()]`.
        eq: Vec<Expr>,
        /// Range lower bound on column `index.columns[eq.len()]`.
        lo: Option<RangeBound>,
        /// Range upper bound on the same column.
        hi: Option<RangeBound>,
    },
    /// Scan every row of the primary tree.
    FullScan,
}

impl AccessPath {
    /// True if the path can yield at most one row (a rowid point lookup or
    /// a unique index probed on all of its columns).
    fn single_row(&self, schema: &TableSchema) -> bool {
        match self {
            AccessPath::RowidPoint(_) => true,
            AccessPath::IndexScan { index, eq, .. } => {
                let ix = &schema.indexes[*index];
                ix.unique && eq.len() == ix.columns.len()
            }
            _ => false,
        }
    }
}

/// One projected output column.
#[derive(Debug, Clone)]
pub struct OutputCol {
    /// Result-set header.
    pub name: String,
    /// Alias explicitly given with `AS` (resolvable in ORDER BY).
    pub alias: Option<String>,
    /// Expression over the base table's columns — or, for aggregate
    /// queries, over the post-aggregation row via [`Expr::Slot`].
    pub expr: Expr,
}

/// What one ORDER BY key sorts on.
#[derive(Debug, Clone)]
pub enum OrderTarget {
    /// An output column (by ordinal `ORDER BY 2` or by alias).
    Output(usize),
    /// An arbitrary expression over the projection's input row.
    Expr(Expr),
}

/// A resolved ORDER BY key.
#[derive(Debug, Clone)]
pub struct OrderSpec {
    /// What to sort on.
    pub target: OrderTarget,
    /// Descending order.
    pub desc: bool,
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`: rows in the group.
    CountStar,
    /// `COUNT(x)`: non-NULL values.
    Count,
    /// `SUM(x)`: integer sum while all inputs are integers, real otherwise;
    /// NULL over zero non-NULL inputs.
    Sum,
    /// `AVG(x)`: real mean of the non-NULL inputs; NULL over zero.
    Avg,
    /// `MIN(x)` by [`crate::types::Value::sort_cmp`], ignoring NULLs.
    Min,
    /// `MAX(x)` by [`crate::types::Value::sort_cmp`], ignoring NULLs.
    Max,
}

impl AggFunc {
    /// Display name used by `EXPLAIN`.
    pub fn display(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate call of the statement, deduplicated by (function, arg).
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument expression over the base row (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
}

/// How groups are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Group keys are a prefix of the scan order: groups arrive
    /// contiguously and one group of state streams through at a time.
    Stream,
    /// Arbitrary scan order: accumulate per group key in a map (emitted in
    /// group-key order for determinism).
    Hash,
    /// A lone `MIN`/`MAX` answered by a one-row bounded read at the edge of
    /// the scanned range.
    MinMax,
}

impl AggStrategy {
    /// Display name used by `EXPLAIN`.
    pub fn name(&self) -> &'static str {
        match self {
            AggStrategy::Stream => "stream",
            AggStrategy::Hash => "hash",
            AggStrategy::MinMax => "minmax",
        }
    }
}

/// Aggregation step of a SELECT.  The post-aggregation row layout is
/// `[group key values..., aggregate results...]`; projection and ORDER BY
/// expressions of the plan reference it through [`Expr::Slot`].
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// GROUP BY expressions over the base row.
    pub group_by: Vec<Expr>,
    /// Aggregate calls, in first-appearance order.
    pub aggs: Vec<AggSpec>,
    /// Grouping strategy.
    pub strategy: AggStrategy,
}

/// Physical plan of a SELECT over one table.
///
/// The shared pieces (filter, projection, sort keys, aggregation, layout)
/// sit behind `Arc`s: plans are built once (and live in the session's
/// statement cache), while every execution clones them into its owned
/// operator stack — those clones must be reference-count bumps, not deep
/// expression copies.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// The table scanned.
    pub schema: Arc<TableSchema>,
    /// Qualifier rows resolve against (alias if given, else table name).
    pub qualifier: String,
    /// Column layout of the base row (resolved once at plan time).
    pub layout: ColumnLayout,
    /// How rows are reached.
    pub access: AccessPath,
    /// Residual filter: the full WHERE clause, re-evaluated on every row.
    pub filter: Option<Arc<Expr>>,
    /// Aggregation, if the statement aggregates.
    pub aggregate: Option<Arc<AggregatePlan>>,
    /// Projection (over the base row, or the post-aggregation row).
    pub output: Arc<Vec<OutputCol>>,
    /// Sort keys.
    pub order_by: Arc<Vec<OrderSpec>>,
    /// False when the scan already yields `order_by`'s order (or at most
    /// one row reaches the sort): the sort operator is elided and LIMIT
    /// early-exit applies.
    pub sort_needed: bool,
    /// True when the index entries alone supply every referenced column:
    /// the executor skips the per-entry rowid fetch-back.
    pub covering: bool,
    /// Drop duplicate output rows.
    pub distinct: bool,
    /// Row limit.
    pub limit: Option<u64>,
    /// Rows skipped before the limit.
    pub offset: Option<u64>,
}

/// Rows the executor must visit for an UPDATE or DELETE.
#[derive(Debug, Clone)]
pub struct DmlTarget {
    /// The table mutated.
    pub schema: Arc<TableSchema>,
    /// Column layout of the base row (resolved once at plan time).
    pub layout: ColumnLayout,
    /// How the affected rows are found.
    pub access: AccessPath,
    /// Residual filter (full WHERE clause).
    pub filter: Option<Arc<Expr>>,
}

/// Physical plan of an INSERT.
#[derive(Debug, Clone)]
pub struct InsertPlan {
    /// Target table.
    pub schema: Arc<TableSchema>,
    /// Column positions the value lists assign, in statement order.
    pub columns: Vec<usize>,
    /// Value expressions (constant: no column references).
    pub rows: Vec<Vec<Expr>>,
}

/// Physical plan of an UPDATE.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Affected rows.
    pub target: DmlTarget,
    /// `(column position, new-value expression)` assignments.
    pub assignments: Vec<(usize, Expr)>,
}

/// Physical plan of a DELETE.
#[derive(Debug, Clone)]
pub struct DeletePlan {
    /// Affected rows.
    pub target: DmlTarget,
}

/// A planned statement, ready for the executor.
#[derive(Debug, Clone)]
pub enum Plan {
    /// SELECT without FROM: evaluate the items once.
    ConstSelect(Vec<OutputCol>),
    /// SELECT over a table.
    Select(SelectPlan),
    /// INSERT.
    Insert(InsertPlan),
    /// UPDATE.
    Update(UpdatePlan),
    /// DELETE.
    Delete(DeletePlan),
    /// EXPLAIN: return the inner plan's description instead of running it.
    Explain(Box<Plan>),
    /// EXPLAIN ANALYZE: run the inner plan with per-operator metering and
    /// return the measurements instead of the result rows.
    ExplainAnalyze(Box<Plan>),
    /// CREATE TABLE (executed by the catalog).
    CreateTable(CreateTable),
    /// CREATE INDEX (executed by the catalog).
    CreateIndex(CreateIndex),
    /// DROP TABLE (executed by the catalog).
    DropTable {
        /// Table to drop.
        name: String,
        /// Do not error if missing.
        if_exists: bool,
    },
}

impl Plan {
    /// True if executing the plan performs DDL — it updates the session's
    /// schema cache before its transaction commits, which is what the
    /// session's invalidation rule keys on.
    pub fn is_ddl(&self) -> bool {
        match self {
            Plan::CreateTable(_) | Plan::CreateIndex(_) | Plan::DropTable { .. } => true,
            Plan::ExplainAnalyze(inner) => inner.is_ddl(),
            _ => false,
        }
    }

    /// A one-line, EXPLAIN-style description of the plan (tests and
    /// diagnostics; the format is stable enough to assert on):
    ///
    /// ```text
    /// <access> [covering] [ordered by index] [AGG <strategy>(<funcs>) [GROUP BY <n>]]
    /// ```
    pub fn describe(&self) -> String {
        fn access(schema: &TableSchema, a: &AccessPath) -> String {
            match a {
                AccessPath::RowidPoint(_) => format!("POINT {} (rowid=?)", schema.name),
                AccessPath::RowidRange { lo, hi } => format!(
                    "RANGE {} (rowid {}..{})",
                    schema.name,
                    if lo.is_some() { "lo" } else { "" },
                    if hi.is_some() { "hi" } else { "" }
                ),
                AccessPath::IndexScan { index, eq, lo, hi } => {
                    let ix = &schema.indexes[*index];
                    let mut parts = vec![format!("eq={}", eq.len())];
                    if lo.is_some() || hi.is_some() {
                        parts.push(format!(
                            "range {}..{}",
                            if lo.is_some() { "lo" } else { "" },
                            if hi.is_some() { "hi" } else { "" }
                        ));
                    }
                    format!(
                        "INDEX {} USING {} ({})",
                        schema.name,
                        ix.name,
                        parts.join(", ")
                    )
                }
                AccessPath::FullScan => format!("SCAN {}", schema.name),
            }
        }
        match self {
            Plan::ConstSelect(_) => "CONST".into(),
            Plan::Select(p) => {
                let mut s = access(&p.schema, &p.access);
                if p.covering {
                    s.push_str(" covering");
                }
                if !p.order_by.is_empty() && !p.sort_needed {
                    s.push_str(" ordered by index");
                }
                if let Some(a) = &p.aggregate {
                    let funcs: Vec<&str> = a.aggs.iter().map(|x| x.func.display()).collect();
                    s.push_str(&format!(" AGG {}({})", a.strategy.name(), funcs.join(",")));
                    if !a.group_by.is_empty() {
                        s.push_str(&format!(" GROUP BY {}", a.group_by.len()));
                    }
                }
                s
            }
            Plan::Insert(p) => format!("INSERT {}", p.schema.name),
            Plan::Update(p) => format!("UPDATE {}", access(&p.target.schema, &p.target.access)),
            Plan::Delete(p) => format!("DELETE {}", access(&p.target.schema, &p.target.access)),
            Plan::Explain(inner) => format!("EXPLAIN {}", inner.describe()),
            Plan::ExplainAnalyze(inner) => format!("EXPLAIN ANALYZE {}", inner.describe()),
            Plan::CreateTable(ct) => format!("CREATE TABLE {}", ct.name),
            Plan::CreateIndex(ci) => format!("CREATE INDEX {}", ci.name),
            Plan::DropTable { name, .. } => format!("DROP TABLE {name}"),
        }
    }
}

/// Plans one statement.  `BEGIN`/`COMMIT`/`ROLLBACK` are session control and
/// must be intercepted before planning.
pub fn plan_statement(catalog: &Catalog, txn: &Txn, stmt: &Statement) -> Result<Plan> {
    catalog.counters().plans.inc();
    plan_inner(catalog, txn, stmt)
}

/// [`plan_statement`] without the `sql.plans` bump (so an EXPLAIN counts as
/// one plan, not two).
fn plan_inner(catalog: &Catalog, txn: &Txn, stmt: &Statement) -> Result<Plan> {
    match stmt {
        Statement::CreateTable(ct) => Ok(Plan::CreateTable(ct.clone())),
        Statement::CreateIndex(ci) => Ok(Plan::CreateIndex(ci.clone())),
        Statement::DropTable { name, if_exists } => Ok(Plan::DropTable {
            name: name.clone(),
            if_exists: *if_exists,
        }),
        Statement::Select(sel) => plan_select(catalog, txn, sel),
        Statement::Insert(ins) => plan_insert(catalog, txn, ins),
        Statement::Update(upd) => plan_update(catalog, txn, upd),
        Statement::Delete(del) => plan_delete(catalog, txn, del),
        Statement::Explain(inner) => {
            let inner = plan_inner(catalog, txn, inner)?;
            Ok(Plan::Explain(Box::new(inner)))
        }
        Statement::ExplainAnalyze(inner) => {
            let inner = plan_inner(catalog, txn, inner)?;
            Ok(Plan::ExplainAnalyze(Box::new(inner)))
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::InvalidArgument(
            "transaction control must be handled by the session".into(),
        )),
    }
}

/// The column layout of one table under a qualifier.
pub fn table_layout(schema: &TableSchema, qualifier: &str) -> ColumnLayout {
    ColumnLayout::new(
        schema
            .columns
            .iter()
            .map(|c| (Some(qualifier.to_string()), c.name.clone()))
            .collect(),
    )
}

/// True for the names of aggregate functions.
pub fn is_aggregate_fn(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// True if `e` references no columns (parameters and scalar functions are
/// fine) — i.e. it can be evaluated once at execution start.
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Column { .. } | Expr::Slot(_) => false,
        Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
        Expr::Neg(x) | Expr::Not(x) => is_const(x),
        Expr::IsNull { expr, .. } => is_const(expr),
        Expr::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
        Expr::Between {
            expr, low, high, ..
        } => is_const(expr) && is_const(low) && is_const(high),
        Expr::Function { args, star, .. } => !star && args.iter().all(is_const),
    }
}

/// Validates every column reference in `e` against `layout` and rejects
/// aggregates, so errors surface at plan time rather than per-row.  Used
/// for every scalar context (WHERE, GROUP BY keys, aggregate arguments,
/// non-aggregate projections).
fn validate_expr(e: &Expr, layout: &ColumnLayout) -> Result<()> {
    match e {
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) => Ok(()),
        Expr::Column { table, name } => {
            layout.resolve(table.as_deref(), name)?;
            Ok(())
        }
        Expr::Binary { left, right, .. } => {
            validate_expr(left, layout)?;
            validate_expr(right, layout)
        }
        Expr::Neg(x) | Expr::Not(x) => validate_expr(x, layout),
        Expr::IsNull { expr, .. } => validate_expr(expr, layout),
        Expr::InList { expr, list, .. } => {
            validate_expr(expr, layout)?;
            list.iter().try_for_each(|x| validate_expr(x, layout))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            validate_expr(expr, layout)?;
            validate_expr(low, layout)?;
            validate_expr(high, layout)
        }
        Expr::Function { name, args, star } => {
            if *star || is_aggregate_fn(name) {
                return Err(Error::Unsupported(format!(
                    "aggregate {name}() is not allowed here"
                )));
            }
            args.iter().try_for_each(|x| validate_expr(x, layout))
        }
    }
}

/// Flattens a conjunction into its conjuncts.
fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// A conjunct normalized to `column <op> constant`.
struct ColConstraint {
    col: usize,
    op: BinOp,
    value: Expr,
    /// Which WHERE conjunct this constraint came from (for exactness
    /// accounting: a conjunct is absorbed only if all of its constraints
    /// end up in the chosen access path).
    conjunct: usize,
}

/// Resolves a column reference within one table under `qualifier`.
fn resolve_col(
    schema: &TableSchema,
    qualifier: &str,
    table: &Option<String>,
    name: &str,
) -> Option<usize> {
    if let Some(t) = table {
        if !t.eq_ignore_ascii_case(qualifier) {
            return None;
        }
    }
    schema.col_index(name)
}

/// `e` as a plain base-table column reference, if it is one.
fn plain_col(schema: &TableSchema, qualifier: &str, e: &Expr) -> Option<usize> {
    match e {
        Expr::Column { table, name } => resolve_col(schema, qualifier, table, name),
        _ => None,
    }
}

/// Tries to view a conjunct as `column <op> const` (commuting if the column
/// is on the right).  BETWEEN becomes a `Ge` + `Le` pair.
fn extract_constraints(
    conjunct: &Expr,
    conjunct_idx: usize,
    schema: &TableSchema,
    qualifier: &str,
    out: &mut Vec<ColConstraint>,
) {
    match conjunct {
        Expr::Binary { op, left, right }
            if matches!(
                op,
                BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            if let (Expr::Column { table, name }, v) = (&**left, &**right) {
                if is_const(v) {
                    if let Some(col) = resolve_col(schema, qualifier, table, name) {
                        out.push(ColConstraint {
                            col,
                            op: *op,
                            value: v.clone(),
                            conjunct: conjunct_idx,
                        });
                    }
                }
            } else if let (v, Expr::Column { table, name }) = (&**left, &**right) {
                if is_const(v) {
                    if let Some(col) = resolve_col(schema, qualifier, table, name) {
                        let flipped = match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            other => *other,
                        };
                        out.push(ColConstraint {
                            col,
                            op: flipped,
                            value: v.clone(),
                            conjunct: conjunct_idx,
                        });
                    }
                }
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            if let Expr::Column { table, name } = &**expr {
                if is_const(low) && is_const(high) {
                    if let Some(col) = resolve_col(schema, qualifier, table, name) {
                        out.push(ColConstraint {
                            col,
                            op: BinOp::Ge,
                            value: (**low).clone(),
                            conjunct: conjunct_idx,
                        });
                        out.push(ColConstraint {
                            col,
                            op: BinOp::Le,
                            value: (**high).clone(),
                            conjunct: conjunct_idx,
                        });
                    }
                }
            }
        }
        _ => {}
    }
}

/// A chosen range bound plus the index (into the constraints list) it came
/// from, for exactness accounting.
type PickedBound = Option<(RangeBound, usize)>;

/// Range bounds on one column assembled from its constraints; also returns
/// the indexes (into `constraints`) of the bounds chosen.
fn range_for(constraints: &[ColConstraint], col: usize) -> (PickedBound, PickedBound) {
    let mut lo = None;
    let mut hi = None;
    for (i, c) in constraints.iter().enumerate().filter(|(_, c)| c.col == col) {
        // Keep the first bound seen on each side; duplicates stay in the
        // residual filter.
        match c.op {
            BinOp::Gt | BinOp::Ge if lo.is_none() => {
                lo = Some((
                    RangeBound {
                        expr: c.value.clone(),
                        inclusive: c.op == BinOp::Ge,
                    },
                    i,
                ));
            }
            BinOp::Lt | BinOp::Le if hi.is_none() => {
                hi = Some((
                    RangeBound {
                        expr: c.value.clone(),
                        inclusive: c.op == BinOp::Le,
                    },
                    i,
                ));
            }
            _ => {}
        }
    }
    (lo, hi)
}

/// Derived facts about the chosen access path that the property checks
/// (ordering, grouping, one-row MIN/MAX) consume.
struct AccessProps {
    /// Columns held constant by an equality conjunct of the WHERE clause
    /// (whether or not the access path probes them): the residual filter
    /// re-applies every conjunct, so these never vary across emitted rows.
    pinned: HashSet<usize>,
    /// True when the pushdown is exact: every WHERE conjunct was fully
    /// absorbed into the access path's probe and bounds, so the residual
    /// filter cannot reject any scanned row.
    exact: bool,
}

/// Chooses the access path for one table given the WHERE clause.
fn choose_access(
    schema: &TableSchema,
    qualifier: &str,
    where_clause: Option<&Expr>,
) -> (AccessPath, AccessProps) {
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        split_conjuncts(w, &mut conjuncts);
    }
    let mut constraints = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        extract_constraints(c, i, schema, qualifier, &mut constraints);
    }
    let pinned: HashSet<usize> = constraints
        .iter()
        .filter(|c| c.op == BinOp::Eq)
        .map(|c| c.col)
        .collect();

    // A conjunct is absorbed iff it produced constraints and every one of
    // them is in the used set; the pushdown is exact iff all conjuncts are.
    let exactness = |used: &[usize]| -> bool {
        conjuncts.iter().enumerate().all(|(ci, _)| {
            let mut produced = 0usize;
            let mut consumed = 0usize;
            for (k, c) in constraints.iter().enumerate() {
                if c.conjunct == ci {
                    produced += 1;
                    if used.contains(&k) {
                        consumed += 1;
                    }
                }
            }
            produced > 0 && produced == consumed
        })
    };

    if constraints.is_empty() {
        let exact = conjuncts.is_empty();
        return (AccessPath::FullScan, AccessProps { pinned, exact });
    }

    // 1. Equality on the rowid column: a point lookup beats everything.
    if let Some(rc) = schema.rowid_col {
        if let Some((k, c)) = constraints
            .iter()
            .enumerate()
            .find(|(_, c)| c.col == rc && c.op == BinOp::Eq)
        {
            let exact = exactness(&[k]);
            return (
                AccessPath::RowidPoint(c.value.clone()),
                AccessProps { pinned, exact },
            );
        }
    }

    // 2. Best secondary index: longest equality prefix, then a range on the
    //    next column; unique indexes win ties.
    struct IndexCandidate {
        index: usize,
        eq: Vec<Expr>,
        lo: Option<RangeBound>,
        hi: Option<RangeBound>,
        used: Vec<usize>,
        score: u64,
    }
    let mut best: Option<IndexCandidate> = None;
    for (i, ix) in schema.indexes.iter().enumerate() {
        let mut eq = Vec::new();
        let mut used = Vec::new();
        for &col in &ix.columns {
            match constraints
                .iter()
                .enumerate()
                .find(|(_, c)| c.col == col && c.op == BinOp::Eq)
            {
                Some((k, c)) => {
                    eq.push(c.value.clone());
                    used.push(k);
                }
                None => break,
            }
        }
        let (lo, hi) = if eq.len() < ix.columns.len() {
            range_for(&constraints, ix.columns[eq.len()])
        } else {
            (None, None)
        };
        let (lo, hi) = (
            lo.map(|(b, k)| {
                used.push(k);
                b
            }),
            hi.map(|(b, k)| {
                used.push(k);
                b
            }),
        );
        let score = (eq.len() as u64) * 4
            + u64::from(lo.is_some())
            + u64::from(hi.is_some())
            + u64::from(ix.unique && eq.len() == ix.columns.len());
        if score > 0 && best.as_ref().map(|b| b.score < score).unwrap_or(true) {
            best = Some(IndexCandidate {
                index: i,
                eq,
                lo,
                hi,
                used,
                score,
            });
        }
    }
    if let Some(IndexCandidate {
        index,
        eq,
        lo,
        hi,
        used,
        ..
    }) = best
    {
        let exact = exactness(&used);
        return (
            AccessPath::IndexScan { index, eq, lo, hi },
            AccessProps { pinned, exact },
        );
    }

    // 3. Range on the rowid column.
    if let Some(rc) = schema.rowid_col {
        let (lo, hi) = range_for(&constraints, rc);
        if lo.is_some() || hi.is_some() {
            let mut used = Vec::new();
            let lo = lo.map(|(b, k)| {
                used.push(k);
                b
            });
            let hi = hi.map(|(b, k)| {
                used.push(k);
                b
            });
            let exact = exactness(&used);
            return (
                AccessPath::RowidRange { lo, hi },
                AccessProps { pinned, exact },
            );
        }
    }

    (
        AccessPath::FullScan,
        AccessProps {
            pinned,
            exact: false,
        },
    )
}

/// The base-table column an ORDER BY key sorts on, if it is a plain column.
fn order_key_col(
    schema: &TableSchema,
    qualifier: &str,
    output: &[OutputCol],
    spec: &OrderSpec,
) -> Option<usize> {
    match &spec.target {
        OrderTarget::Output(i) => plain_col(schema, qualifier, &output[*i].expr),
        OrderTarget::Expr(e) => plain_col(schema, qualifier, e),
    }
}

/// True when the access path's output ordering subsumes `order_by`, so the
/// sort can be elided.
///
/// The scan's order is: equality-pinned columns are constant; an index scan
/// then varies `ix.columns[eq..]` in ascending order with the rowid as the
/// final tie-break (non-unique indexes store it as a key suffix); rowid
/// scans vary the rowid.  Once a key that makes the order total is consumed,
/// any further ORDER BY keys are tie-breaks over singleton groups and hold
/// trivially.  The rowid is always total; the last column of a unique index
/// is total only when every scanned column is declared NOT NULL — unique
/// indexes store NULL-containing entries non-unique style (rowid suffix,
/// duplicates allowed), so with nullable columns equal-key groups are
/// ordered by rowid, not by the remaining ORDER BY keys.  All scans are
/// forward, so any `DESC` key defeats elision.
fn scan_satisfies_order(
    schema: &TableSchema,
    qualifier: &str,
    access: &AccessPath,
    props: &AccessProps,
    order_by: &[OrderSpec],
    output: &[OutputCol],
) -> bool {
    if order_by.is_empty() || access.single_row(schema) {
        return true;
    }
    // The sequence of columns the scan varies, in order.
    let (seq, rowid_tiebreak): (Vec<usize>, bool) = match access {
        AccessPath::RowidPoint(_) => return true,
        AccessPath::RowidRange { .. } | AccessPath::FullScan => match schema.rowid_col {
            Some(rc) => (vec![rc], false),
            None => (vec![], false),
        },
        AccessPath::IndexScan { index, eq, .. } => {
            let ix = &schema.indexes[*index];
            (ix.columns[eq.len()..].to_vec(), !ix.unique)
        }
    };
    let mut pos = 0usize;
    for spec in order_by {
        if spec.desc {
            return false;
        }
        let Some(col) = order_key_col(schema, qualifier, output, spec) else {
            return false;
        };
        if props.pinned.contains(&col) {
            continue;
        }
        if pos < seq.len() && seq[pos] == col {
            pos += 1;
            // Consuming the whole key of the primary tree — or of a unique
            // index none of whose scanned columns can be NULL (equality-
            // probed columns are never NULL: a NULL probe matches nothing)
            // — makes the prefix total.
            let total = match access {
                AccessPath::RowidRange { .. } | AccessPath::FullScan => true,
                AccessPath::IndexScan { index, .. } => {
                    let ix = &schema.indexes[*index];
                    pos == seq.len()
                        && ix.unique
                        && seq
                            .iter()
                            .all(|&c| schema.columns[c].not_null || schema.columns[c].primary_key)
                }
                AccessPath::RowidPoint(_) => true,
            };
            if total && pos == seq.len() {
                return true;
            }
            continue;
        }
        // After all index columns, the rowid suffix orders equal entries.
        if pos >= seq.len() && rowid_tiebreak && Some(col) == schema.rowid_col {
            return true;
        }
        return false;
    }
    true
}

/// True when rows with equal group keys arrive contiguously from the scan:
/// the non-pinned group columns are exactly the first columns the scan
/// varies (as a set — within the prefix their mutual order is free).
fn scan_groups_contiguous(
    schema: &TableSchema,
    qualifier: &str,
    access: &AccessPath,
    props: &AccessProps,
    group_by: &[Expr],
) -> bool {
    if access.single_row(schema) {
        return true;
    }
    let mut group_cols = HashSet::new();
    for g in group_by {
        match plain_col(schema, qualifier, g) {
            Some(c) => {
                if !props.pinned.contains(&c) {
                    group_cols.insert(c);
                }
            }
            None => return false,
        }
    }
    if group_cols.is_empty() {
        // All keys pinned: a single group.
        return true;
    }
    let seq: Vec<usize> = match access {
        AccessPath::RowidPoint(_) => return true,
        AccessPath::RowidRange { .. } | AccessPath::FullScan => match schema.rowid_col {
            Some(rc) => vec![rc],
            None => vec![],
        },
        AccessPath::IndexScan { index, eq, .. } => {
            schema.indexes[*index].columns[eq.len()..].to_vec()
        }
    };
    if group_cols.len() > seq.len() {
        return false;
    }
    seq[..group_cols.len()]
        .iter()
        .all(|c| group_cols.contains(c))
}

/// Collects the base-table columns referenced by `e` into `out`.  Returns
/// false (coverage impossible) on a column that does not resolve against
/// this table.
fn collect_cols(schema: &TableSchema, qualifier: &str, e: &Expr, out: &mut HashSet<usize>) -> bool {
    match e {
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) => true,
        Expr::Column { table, name } => match resolve_col(schema, qualifier, table, name) {
            Some(c) => {
                out.insert(c);
                true
            }
            None => false,
        },
        Expr::Binary { left, right, .. } => {
            collect_cols(schema, qualifier, left, out)
                && collect_cols(schema, qualifier, right, out)
        }
        Expr::Neg(x) | Expr::Not(x) => collect_cols(schema, qualifier, x, out),
        Expr::IsNull { expr, .. } => collect_cols(schema, qualifier, expr, out),
        Expr::InList { expr, list, .. } => {
            collect_cols(schema, qualifier, expr, out)
                && list.iter().all(|x| collect_cols(schema, qualifier, x, out))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_cols(schema, qualifier, expr, out)
                && collect_cols(schema, qualifier, low, out)
                && collect_cols(schema, qualifier, high, out)
        }
        Expr::Function { args, .. } => args.iter().all(|x| collect_cols(schema, qualifier, x, out)),
    }
}

/// True when index `ix` supplies every referenced column exactly: each is
/// either the rowid (recoverable from any entry) or an indexed column whose
/// declared type permits exact decode from the order-preserving key (BLOB
/// columns are refused — their numeric encodings are ambiguous, see
/// [`crate::row::decode_index_entry`]).
fn index_covers(schema: &TableSchema, ix: &IndexInfo, referenced: &HashSet<usize>) -> bool {
    referenced.iter().all(|c| {
        Some(*c) == schema.rowid_col
            || (ix.columns.contains(c) && schema.columns[*c].ctype != ColumnType::Blob)
    })
}

/// Display name of a projected expression without an alias.
fn output_name(e: &Expr, ordinal: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => format!("{}()", name.to_lowercase()),
        _ => format!("column{}", ordinal + 1),
    }
}

/// Structural expression equivalence up to column-name resolution: two
/// column references are the same if they resolve to the same slot of
/// `layout` (so `CAT`, `cat` and `g.cat` all match a `GROUP BY cat` key),
/// everything else compares structurally.  Derived `PartialEq` would treat
/// identifier case and qualifiers as significant, which no other resolution
/// path does.
fn exprs_equivalent(a: &Expr, b: &Expr, layout: &ColumnLayout) -> bool {
    let eq = |x: &Expr, y: &Expr| exprs_equivalent(x, y, layout);
    match (a, b) {
        (
            Expr::Column {
                table: ta,
                name: na,
            },
            Expr::Column {
                table: tb,
                name: nb,
            },
        ) => match (
            layout.resolve(ta.as_deref(), na),
            layout.resolve(tb.as_deref(), nb),
        ) {
            (Ok(x), Ok(y)) => x == y,
            _ => ta == tb && na.eq_ignore_ascii_case(nb),
        },
        (Expr::Literal(x), Expr::Literal(y)) => x == y,
        (Expr::Param(x), Expr::Param(y)) => x == y,
        (Expr::Slot(x), Expr::Slot(y)) => x == y,
        (
            Expr::Binary {
                op: oa,
                left: la,
                right: ra,
            },
            Expr::Binary {
                op: ob,
                left: lb,
                right: rb,
            },
        ) => oa == ob && eq(la, lb) && eq(ra, rb),
        (Expr::Neg(x), Expr::Neg(y)) | (Expr::Not(x), Expr::Not(y)) => eq(x, y),
        (
            Expr::IsNull {
                expr: xa,
                negated: na,
            },
            Expr::IsNull {
                expr: xb,
                negated: nb,
            },
        ) => na == nb && eq(xa, xb),
        (
            Expr::InList {
                expr: xa,
                list: la,
                negated: na,
            },
            Expr::InList {
                expr: xb,
                list: lb,
                negated: nb,
            },
        ) => {
            na == nb
                && eq(xa, xb)
                && la.len() == lb.len()
                && la.iter().zip(lb).all(|(x, y)| eq(x, y))
        }
        (
            Expr::Between {
                expr: xa,
                low: loa,
                high: hia,
                negated: na,
            },
            Expr::Between {
                expr: xb,
                low: lob,
                high: hib,
                negated: nb,
            },
        ) => na == nb && eq(xa, xb) && eq(loa, lob) && eq(hia, hib),
        (
            Expr::Function {
                name: fa,
                args: aa,
                star: sa,
            },
            Expr::Function {
                name: fb,
                args: ab,
                star: sb,
            },
        ) => {
            // Function names are uppercased by the parser.
            fa == fb && sa == sb && aa.len() == ab.len() && aa.iter().zip(ab).all(|(x, y)| eq(x, y))
        }
        _ => false,
    }
}

/// Rewrites an aggregate-query expression onto the post-aggregation row
/// layout `[group keys..., aggregates...]`: subtrees equal to a GROUP BY
/// expression become `Slot(i)`, aggregate calls become
/// `Slot(group_by.len() + j)` (collecting specs into `aggs`, deduplicated),
/// and any base-column reference outside both is an error — the strict SQL
/// rule that every projected column appears in GROUP BY or an aggregate.
fn rewrite_agg_expr(
    e: &Expr,
    group_by: &[Expr],
    aggs: &mut Vec<AggSpec>,
    layout: &ColumnLayout,
) -> Result<Expr> {
    if let Some(i) = group_by.iter().position(|g| exprs_equivalent(g, e, layout)) {
        return Ok(Expr::Slot(i));
    }
    match e {
        Expr::Function { name, args, star } if *star || is_aggregate_fn(name) => {
            let spec = match (name.as_str(), *star) {
                ("COUNT", true) => AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                (_, true) => {
                    return Err(Error::Unsupported(format!("{name}(*) is not valid")));
                }
                (fname, false) => {
                    if args.len() != 1 {
                        return Err(Error::Schema(format!(
                            "{fname}() takes exactly one argument"
                        )));
                    }
                    let arg = &args[0];
                    if arg.contains_aggregate() {
                        return Err(Error::Unsupported(
                            "nested aggregate functions are not allowed".into(),
                        ));
                    }
                    validate_expr(arg, layout)?;
                    let func = match fname {
                        "COUNT" => AggFunc::Count,
                        "SUM" => AggFunc::Sum,
                        "AVG" => AggFunc::Avg,
                        "MIN" => AggFunc::Min,
                        "MAX" => AggFunc::Max,
                        other => {
                            return Err(Error::Unsupported(format!("unknown aggregate {other}()")))
                        }
                    };
                    AggSpec {
                        func,
                        arg: Some(arg.clone()),
                    }
                }
            };
            let j = match aggs
                .iter()
                .position(|s| s.func == spec.func && s.arg == spec.arg)
            {
                Some(j) => j,
                None => {
                    aggs.push(spec);
                    aggs.len() - 1
                }
            };
            Ok(Expr::Slot(group_by.len() + j))
        }
        Expr::Column { table, name } => Err(Error::Schema(format!(
            "column {}{name} must appear in GROUP BY or inside an aggregate",
            table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
        ))),
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(_) => Ok(e.clone()),
        Expr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rewrite_agg_expr(left, group_by, aggs, layout)?),
            right: Box::new(rewrite_agg_expr(right, group_by, aggs, layout)?),
        }),
        Expr::Neg(x) => Ok(Expr::Neg(Box::new(rewrite_agg_expr(
            x, group_by, aggs, layout,
        )?))),
        Expr::Not(x) => Ok(Expr::Not(Box::new(rewrite_agg_expr(
            x, group_by, aggs, layout,
        )?))),
        Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs, layout)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs, layout)?),
            list: list
                .iter()
                .map(|x| rewrite_agg_expr(x, group_by, aggs, layout))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs, layout)?),
            low: Box::new(rewrite_agg_expr(low, group_by, aggs, layout)?),
            high: Box::new(rewrite_agg_expr(high, group_by, aggs, layout)?),
            negated: *negated,
        }),
        Expr::Function { name, args, star } => Ok(Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|x| rewrite_agg_expr(x, group_by, aggs, layout))
                .collect::<Result<_>>()?,
            star: *star,
        }),
    }
}

fn plan_select(catalog: &Catalog, txn: &Txn, sel: &Select) -> Result<Plan> {
    let Some(from) = &sel.from else {
        // Expression-only SELECT: items must not reference columns.
        let layout = ColumnLayout::empty();
        let mut output = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    return Err(Error::Schema("SELECT * requires a FROM clause".into()))
                }
                SelectItem::Expr { expr, alias } => {
                    validate_expr(expr, &layout)?;
                    output.push(OutputCol {
                        name: alias.clone().unwrap_or_else(|| output_name(expr, i)),
                        alias: alias.clone(),
                        expr: expr.clone(),
                    });
                }
            }
        }
        return Ok(Plan::ConstSelect(output));
    };

    if !from.joins.is_empty() {
        return Err(Error::Unsupported(
            "joins are not yet supported by the executor".into(),
        ));
    }
    let schema = catalog.require_table(txn, &from.base.name)?;
    let qualifier = from
        .base
        .alias
        .clone()
        .unwrap_or_else(|| schema.name.clone());
    let layout = table_layout(&schema, &qualifier);

    if let Some(w) = &sel.where_clause {
        validate_expr(w, &layout)?;
    }

    let is_aggregate_query = !sel.group_by.is_empty()
        || sel.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
        || sel.order_by.iter().any(|k| k.expr.contains_aggregate());

    // Base-table columns the statement references (everything the scan must
    // supply): drives the coverage decision.
    let mut referenced = HashSet::new();
    let mut resolvable = sel
        .where_clause
        .as_ref()
        .map(|w| collect_cols(&schema, &qualifier, w, &mut referenced))
        .unwrap_or(true);
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                referenced.extend(0..schema.columns.len());
            }
            SelectItem::Expr { expr, .. } => {
                resolvable &= collect_cols(&schema, &qualifier, expr, &mut referenced);
            }
        }
    }
    for g in &sel.group_by {
        resolvable &= collect_cols(&schema, &qualifier, g, &mut referenced);
    }
    for k in &sel.order_by {
        // Ordinals and aliases reference output columns already collected;
        // collecting the raw expression is a harmless over-approximation.
        resolvable &= collect_cols(&schema, &qualifier, &k.expr, &mut referenced);
    }

    let (access, props) = choose_access(&schema, &qualifier, sel.where_clause.as_ref());

    if is_aggregate_query {
        plan_aggregate_select(
            sel, schema, qualifier, layout, access, props, referenced, resolvable,
        )
    } else {
        plan_plain_select(
            sel, schema, qualifier, layout, access, props, referenced, resolvable,
        )
    }
}

/// Resolves one ORDER BY key of a non-aggregate SELECT: ordinals and output
/// aliases resolve to output columns, anything else is an expression over
/// the base row.
fn resolve_order_target(
    key: &crate::ast::OrderKey,
    output: &[OutputCol],
    layout: &ColumnLayout,
) -> Result<Option<OrderTarget>> {
    match &key.expr {
        Expr::Literal(crate::types::Value::Int(n)) => {
            let n = *n;
            if n < 1 || n as usize > output.len() {
                return Err(Error::Schema(format!(
                    "ORDER BY position {n} is out of range (1..{})",
                    output.len()
                )));
            }
            Ok(Some(OrderTarget::Output(n as usize - 1)))
        }
        Expr::Column { table: None, name } => {
            match output.iter().position(|o| {
                o.alias
                    .as_deref()
                    .map(|a| a.eq_ignore_ascii_case(name))
                    .unwrap_or(false)
            }) {
                Some(i) => Ok(Some(OrderTarget::Output(i))),
                None => {
                    validate_expr(&key.expr, layout)?;
                    Ok(None)
                }
            }
        }
        _ => Ok(None),
    }
}

#[allow(clippy::too_many_arguments)]
fn plan_plain_select(
    sel: &Select,
    schema: Arc<TableSchema>,
    qualifier: String,
    layout: ColumnLayout,
    mut access: AccessPath,
    props: AccessProps,
    referenced: HashSet<usize>,
    resolvable: bool,
) -> Result<Plan> {
    // Projection.
    let mut output = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for c in &schema.columns {
                    output.push(OutputCol {
                        name: c.name.clone(),
                        alias: None,
                        expr: Expr::Column {
                            table: Some(qualifier.clone()),
                            name: c.name.clone(),
                        },
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                validate_expr(expr, &layout)?;
                output.push(OutputCol {
                    name: alias.clone().unwrap_or_else(|| output_name(expr, i)),
                    alias: alias.clone(),
                    expr: expr.clone(),
                });
            }
        }
    }

    let mut order_by = Vec::new();
    for key in &sel.order_by {
        let target = match resolve_order_target(key, &output, &layout)? {
            Some(t) => t,
            None => {
                validate_expr(&key.expr, &layout)?;
                OrderTarget::Expr(key.expr.clone())
            }
        };
        order_by.push(OrderSpec {
            target,
            desc: key.desc,
        });
    }

    // An unconstrained scan that cannot produce the requested order may
    // still get it (and LIMIT early-exit) from an unconstrained *covering*
    // index scan — coverage is required so the switch never trades the
    // sort for a fetch-back per row.
    if matches!(access, AccessPath::FullScan) && !order_by.is_empty() && resolvable {
        for (i, ix) in schema.indexes.iter().enumerate() {
            let candidate = AccessPath::IndexScan {
                index: i,
                eq: Vec::new(),
                lo: None,
                hi: None,
            };
            if index_covers(&schema, ix, &referenced)
                && !scan_satisfies_order(&schema, &qualifier, &access, &props, &order_by, &output)
                && scan_satisfies_order(&schema, &qualifier, &candidate, &props, &order_by, &output)
            {
                access = candidate;
                break;
            }
        }
    }

    let covering = resolvable
        && match &access {
            AccessPath::IndexScan { index, .. } => {
                index_covers(&schema, &schema.indexes[*index], &referenced)
            }
            _ => false,
        };
    let sort_needed =
        !scan_satisfies_order(&schema, &qualifier, &access, &props, &order_by, &output);

    Ok(Plan::Select(SelectPlan {
        schema,
        qualifier,
        layout,
        access,
        filter: sel.where_clause.clone().map(Arc::new),
        aggregate: None,
        output: Arc::new(output),
        order_by: Arc::new(order_by),
        sort_needed,
        covering,
        distinct: sel.distinct,
        limit: sel.limit,
        offset: sel.offset,
    }))
}

#[allow(clippy::too_many_arguments)]
fn plan_aggregate_select(
    sel: &Select,
    schema: Arc<TableSchema>,
    qualifier: String,
    layout: ColumnLayout,
    mut access: AccessPath,
    props: AccessProps,
    referenced: HashSet<usize>,
    resolvable: bool,
) -> Result<Plan> {
    for g in &sel.group_by {
        validate_expr(g, &layout)?;
    }
    let group_by = sel.group_by.clone();
    let mut aggs: Vec<AggSpec> = Vec::new();

    // Projection, rewritten onto the post-aggregation layout.
    let mut output = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                return Err(Error::Schema(
                    "SELECT * is not allowed in an aggregate query".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                let rewritten = rewrite_agg_expr(expr, &group_by, &mut aggs, &layout)?;
                output.push(OutputCol {
                    name: alias.clone().unwrap_or_else(|| output_name(expr, i)),
                    alias: alias.clone(),
                    expr: rewritten,
                });
            }
        }
    }

    let mut order_by = Vec::new();
    for key in &sel.order_by {
        let target = match resolve_order_target(key, &output, &layout)? {
            Some(t) => t,
            // Not an ordinal or alias: rewrite onto the aggregation layout.
            None => OrderTarget::Expr(rewrite_agg_expr(&key.expr, &group_by, &mut aggs, &layout)?),
        };
        order_by.push(OrderSpec {
            target,
            desc: key.desc,
        });
    }

    // One-row bounded MIN/MAX: a single aggregate over the column the scan
    // varies first, with the whole WHERE clause pushed down exactly.
    let minmax_col = if group_by.is_empty() && aggs.len() == 1 {
        match (&aggs[0].func, &aggs[0].arg) {
            (AggFunc::Min | AggFunc::Max, Some(arg)) => plain_col(&schema, &qualifier, arg)
                .filter(|c| schema.columns[*c].ctype != ColumnType::Blob),
            _ => None,
        }
    } else {
        None
    };
    let mut strategy = None;
    if let Some(col) = minmax_col {
        match &access {
            AccessPath::IndexScan { index, eq, .. } if props.exact => {
                let ix = &schema.indexes[*index];
                if eq.len() < ix.columns.len() && ix.columns[eq.len()] == col {
                    strategy = Some(AggStrategy::MinMax);
                }
            }
            AccessPath::FullScan if sel.where_clause.is_none() => {
                // No constraints at all: any index leading on the column
                // gives the bounded read.
                if let Some(i) = schema.indexes.iter().position(|ix| ix.columns[0] == col) {
                    access = AccessPath::IndexScan {
                        index: i,
                        eq: Vec::new(),
                        lo: None,
                        hi: None,
                    };
                    strategy = Some(AggStrategy::MinMax);
                }
            }
            _ => {}
        }
        // MIN/MAX of the rowid itself: the edge of the primary tree.
        if strategy.is_none()
            && props.exact
            && Some(col) == schema.rowid_col
            && matches!(access, AccessPath::RowidRange { .. } | AccessPath::FullScan)
        {
            strategy = Some(AggStrategy::MinMax);
        }
    }

    // Grouped scans over an unconstrained table: prefer an unconstrained
    // covering index scan that makes groups contiguous (streaming state for
    // one group at a time instead of a hash of all of them).
    if strategy.is_none()
        && matches!(access, AccessPath::FullScan)
        && !group_by.is_empty()
        && resolvable
        && !scan_groups_contiguous(&schema, &qualifier, &access, &props, &group_by)
    {
        for (i, ix) in schema.indexes.iter().enumerate() {
            let candidate = AccessPath::IndexScan {
                index: i,
                eq: Vec::new(),
                lo: None,
                hi: None,
            };
            if index_covers(&schema, ix, &referenced)
                && scan_groups_contiguous(&schema, &qualifier, &candidate, &props, &group_by)
            {
                access = candidate;
                break;
            }
        }
    }

    let strategy = strategy.unwrap_or_else(|| {
        if group_by.is_empty()
            || scan_groups_contiguous(&schema, &qualifier, &access, &props, &group_by)
        {
            AggStrategy::Stream
        } else {
            AggStrategy::Hash
        }
    });

    let covering = resolvable
        && match &access {
            AccessPath::IndexScan { index, .. } => {
                index_covers(&schema, &schema.indexes[*index], &referenced)
            }
            _ => false,
        };
    // Aggregation reorders rows, so ORDER BY always sorts the (few) group
    // rows — except the one-row MIN/MAX read.
    let sort_needed = !sel.order_by.is_empty() && strategy != AggStrategy::MinMax;

    Ok(Plan::Select(SelectPlan {
        schema,
        qualifier,
        layout,
        access,
        filter: sel.where_clause.clone().map(Arc::new),
        aggregate: Some(Arc::new(AggregatePlan {
            group_by,
            aggs,
            strategy,
        })),
        output: Arc::new(output),
        order_by: Arc::new(order_by),
        sort_needed,
        covering,
        distinct: sel.distinct,
        limit: sel.limit,
        offset: sel.offset,
    }))
}

fn plan_insert(catalog: &Catalog, txn: &Txn, ins: &Insert) -> Result<Plan> {
    let schema = catalog.require_table(txn, &ins.table)?;
    let columns: Vec<usize> = if ins.columns.is_empty() {
        (0..schema.columns.len()).collect()
    } else {
        let mut cols = Vec::with_capacity(ins.columns.len());
        for name in &ins.columns {
            let pos = schema
                .col_index(name)
                .ok_or_else(|| Error::Schema(format!("no such column: {name}")))?;
            if cols.contains(&pos) {
                return Err(Error::Schema(format!("duplicate column {name} in INSERT")));
            }
            cols.push(pos);
        }
        cols
    };
    for row in &ins.rows {
        if row.len() != columns.len() {
            return Err(Error::Schema(format!(
                "INSERT has {} values for {} columns",
                row.len(),
                columns.len()
            )));
        }
        for e in row {
            if !is_const(e) {
                return Err(Error::Schema(
                    "INSERT values must not reference columns".into(),
                ));
            }
        }
    }
    Ok(Plan::Insert(InsertPlan {
        schema,
        columns,
        rows: ins.rows.clone(),
    }))
}

fn plan_dml_target(
    catalog: &Catalog,
    txn: &Txn,
    table: &str,
    where_clause: Option<&Expr>,
) -> Result<DmlTarget> {
    let schema = catalog.require_table(txn, table)?;
    let qualifier = schema.name.clone();
    let layout = table_layout(&schema, &qualifier);
    if let Some(w) = where_clause {
        validate_expr(w, &layout)?;
    }
    let (access, _props) = choose_access(&schema, &qualifier, where_clause);
    Ok(DmlTarget {
        access,
        layout,
        filter: where_clause.cloned().map(Arc::new),
        schema,
    })
}

fn plan_update(catalog: &Catalog, txn: &Txn, upd: &Update) -> Result<Plan> {
    let target = plan_dml_target(catalog, txn, &upd.table, upd.where_clause.as_ref())?;
    let layout = table_layout(&target.schema, &target.schema.name);
    let mut assignments = Vec::with_capacity(upd.assignments.len());
    for (name, expr) in &upd.assignments {
        let pos = target
            .schema
            .col_index(name)
            .ok_or_else(|| Error::Schema(format!("no such column: {name}")))?;
        if assignments.iter().any(|(p, _)| *p == pos) {
            return Err(Error::Schema(format!("column {name} assigned twice")));
        }
        validate_expr(expr, &layout)?;
        assignments.push((pos, expr.clone()));
    }
    Ok(Plan::Update(UpdatePlan {
        target,
        assignments,
    }))
}

fn plan_delete(catalog: &Catalog, txn: &Txn, del: &Delete) -> Result<Plan> {
    let target = plan_dml_target(catalog, txn, &del.table, del.where_clause.as_ref())?;
    Ok(Plan::Delete(DeletePlan { target }))
}
