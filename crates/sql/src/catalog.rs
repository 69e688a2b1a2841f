//! The catalog: table and index schemas, stored in their own DBT.
//!
//! Tree 0 is the catalog tree; its cells map table names to serialized
//! [`TableSchema`]s.  Because the catalog lives in the same transactional
//! storage as the data, DDL is transactional like everything else.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use yesquel_common::encoding::{Reader, Writer};
use yesquel_common::stats::{Counter, Histogram};
use yesquel_common::{Error, ObjectId, Result, TreeId};
use yesquel_kv::Txn;
use yesquel_ydbt::{Dbt, DbtEngine};

use crate::ast::{ColumnDef, CreateIndex, CreateTable};
use crate::row::{encode_index_key, encode_row, encode_rowid_key};
use crate::types::{ColumnType, Value};

/// The catalog lives in tree 0.
pub const CATALOG_TREE: TreeId = 0;
/// Counter object (within the catalog tree) from which new tree ids are
/// allocated.
const TREE_ID_ALLOC_OID: u64 = 2;
/// Counter object (within each table's tree) from which rowids are
/// allocated.
const ROWID_ALLOC_OID: u64 = 3;
/// First tree id handed out to user tables and indexes.
const FIRST_USER_TREE: TreeId = 16;

/// A column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ctype: ColumnType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// Declared PRIMARY KEY.
    pub primary_key: bool,
}

/// A secondary index of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// Index name.
    pub name: String,
    /// Tree storing the index entries.
    pub tree: TreeId,
    /// Indexed columns (positions into the table's column list).
    pub columns: Vec<usize>,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Tree storing the rows.
    pub tree: TreeId,
    /// Columns in declaration order.
    pub columns: Vec<ColumnInfo>,
    /// Column that aliases the rowid (`INTEGER PRIMARY KEY`), if any.
    pub rowid_col: Option<usize>,
    /// Secondary indexes.
    pub indexes: Vec<IndexInfo>,
}

impl TableSchema {
    /// Index of the column called `name` (case-insensitive).
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The index named `name`, if any.
    pub fn index_named(&self, name: &str) -> Option<&IndexInfo> {
        self.indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// Serializes the schema for storage in the catalog tree.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128);
        w.bytes(self.name.as_bytes());
        w.u64(self.tree);
        w.uvarint(self.columns.len() as u64);
        for c in &self.columns {
            w.bytes(c.name.as_bytes());
            w.u8(match c.ctype {
                ColumnType::Integer => 0,
                ColumnType::Real => 1,
                ColumnType::Text => 2,
                ColumnType::Blob => 3,
            });
            w.u8(u8::from(c.not_null));
            w.u8(u8::from(c.primary_key));
        }
        match self.rowid_col {
            Some(i) => {
                w.u8(1);
                w.uvarint(i as u64);
            }
            None => {
                w.u8(0);
            }
        }
        w.uvarint(self.indexes.len() as u64);
        for ix in &self.indexes {
            w.bytes(ix.name.as_bytes());
            w.u64(ix.tree);
            w.u8(u8::from(ix.unique));
            w.uvarint(ix.columns.len() as u64);
            for c in &ix.columns {
                w.uvarint(*c as u64);
            }
        }
        w.finish()
    }

    /// Deserializes a schema stored by [`TableSchema::encode`].
    pub fn decode(buf: &[u8]) -> Result<TableSchema> {
        let mut r = Reader::new(buf);
        let name = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| Error::Corruption("bad table name".into()))?;
        let tree = r.u64()?;
        let ncols = r.uvarint()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| Error::Corruption("bad column name".into()))?;
            let ctype = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Real,
                2 => ColumnType::Text,
                3 => ColumnType::Blob,
                t => return Err(Error::Corruption(format!("bad column type tag {t}"))),
            };
            let not_null = r.u8()? != 0;
            let primary_key = r.u8()? != 0;
            columns.push(ColumnInfo {
                name: cname,
                ctype,
                not_null,
                primary_key,
            });
        }
        let rowid_col = if r.u8()? == 1 {
            Some(r.uvarint()? as usize)
        } else {
            None
        };
        let nidx = r.uvarint()? as usize;
        let mut indexes = Vec::with_capacity(nidx);
        for _ in 0..nidx {
            let iname = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| Error::Corruption("bad index name".into()))?;
            let itree = r.u64()?;
            let unique = r.u8()? != 0;
            let nic = r.uvarint()? as usize;
            let mut cols = Vec::with_capacity(nic);
            for _ in 0..nic {
                cols.push(r.uvarint()? as usize);
            }
            indexes.push(IndexInfo {
                name: iname,
                tree: itree,
                columns: cols,
                unique,
            });
        }
        Ok(TableSchema {
            name,
            tree,
            columns,
            rowid_col,
            indexes,
        })
    }
}

/// Counters bumped on the SQL executor's hot paths, resolved from the
/// registry once at catalog construction (the same pattern as the DBT
/// engine's `HotCounters` — a registry lookup per row would be measurable).
pub struct SqlCounters {
    /// Base rows (index entries or primary rows) examined by scans.  With
    /// streaming LIMIT early-exit, a bounded plan bumps this at most
    /// `limit + offset` times.
    pub rows_scanned: Arc<Counter>,
    /// Primary-tree fetch-back lookups performed by non-covering index
    /// scans; a covering scan performs exactly zero.
    pub fetchbacks: Arc<Counter>,
    /// Index scans that ran in covering mode (rows reconstructed from the
    /// index entries alone).
    pub covering_scans: Arc<Counter>,
    /// Statement-cache hits (plan reused without parsing or planning).
    pub stmt_cache_hits: Arc<Counter>,
    /// Statement-cache misses (fresh parse + plan).
    pub stmt_cache_misses: Arc<Counter>,
    /// Statement-cache entries evicted because the cache was full (the
    /// least recently used one goes).  A stale entry is not evicted: its
    /// next run replans it.
    pub stmt_cache_evictions: Arc<Counter>,
    /// SQL texts parsed by the session layer.  Re-executing a prepared
    /// handle performs zero parses; tests assert on the delta.
    pub parses: Arc<Counter>,
    /// Statements planned ([`crate::plan_statement`] calls).  A statement-
    /// cache hit or a prepared re-execution performs zero.
    pub plans: Arc<Counter>,
    /// Statement latency by kind (`sql.stmt_us.select` …), recorded by
    /// [`crate::execute_plan`] only while `Obs::timing_on`.
    pub stmt_us: StmtHistograms,
}

/// Per-kind statement-latency histograms (`sql.stmt_us.<kind>`).
pub struct StmtHistograms {
    /// SELECT (including const selects and EXPLAIN variants).
    pub select: Arc<Histogram>,
    /// INSERT.
    pub insert: Arc<Histogram>,
    /// UPDATE.
    pub update: Arc<Histogram>,
    /// DELETE.
    pub delete: Arc<Histogram>,
    /// CREATE TABLE / CREATE INDEX / DROP TABLE.
    pub ddl: Arc<Histogram>,
}

impl SqlCounters {
    fn new(stats: &yesquel_common::stats::StatsRegistry) -> SqlCounters {
        SqlCounters {
            rows_scanned: stats.counter("sql.rows_scanned"),
            fetchbacks: stats.counter("sql.fetchbacks"),
            covering_scans: stats.counter("sql.covering_scans"),
            stmt_cache_hits: stats.counter("sql.stmt_cache_hits"),
            stmt_cache_misses: stats.counter("sql.stmt_cache_misses"),
            stmt_cache_evictions: stats.counter("sql.stmt_cache_evictions"),
            parses: stats.counter("sql.parses"),
            plans: stats.counter("sql.plans"),
            stmt_us: StmtHistograms {
                select: stats.histogram("sql.stmt_us.select"),
                insert: stats.histogram("sql.stmt_us.insert"),
                update: stats.histogram("sql.stmt_us.update"),
                delete: stats.histogram("sql.stmt_us.delete"),
                ddl: stats.histogram("sql.stmt_us.ddl"),
            },
        }
    }
}

/// Per-connection catalog handle: resolves names to schemas and performs
/// DDL.
pub struct Catalog {
    engine: Arc<DbtEngine>,
    tree: Dbt,
    cache: Mutex<HashMap<String, Arc<TableSchema>>>,
    /// Bumped whenever this connection's view of any schema may have
    /// changed (local DDL or cache invalidation).  Statement caches keyed
    /// by SQL text store the generation their plan was built under and
    /// replan when it moves.
    generation: AtomicU64,
    counters: SqlCounters,
}

impl Catalog {
    /// Opens (and bootstraps if needed) the catalog for one connection.
    pub fn open(engine: Arc<DbtEngine>) -> Result<Catalog> {
        // Bootstrap the catalog tree; racing connections may both try, and
        // exactly one create succeeds.
        match engine.create_tree(CATALOG_TREE) {
            Ok(()) => {}
            Err(Error::InvalidArgument(_)) | Err(Error::Conflict(_)) => {}
            Err(e) if e.is_retryable() => {}
            Err(e) => return Err(e),
        }
        let tree = engine.tree(CATALOG_TREE);
        let counters = SqlCounters::new(engine.stats());
        Ok(Catalog {
            engine,
            tree,
            cache: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            counters,
        })
    }

    /// The engine this catalog issues storage operations through.
    pub fn engine(&self) -> &Arc<DbtEngine> {
        &self.engine
    }

    /// Pre-resolved SQL-layer counters.
    pub fn counters(&self) -> &SqlCounters {
        &self.counters
    }

    /// Current schema generation of this connection (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    fn catalog_key(name: &str) -> Vec<u8> {
        name.to_ascii_lowercase().into_bytes()
    }

    /// Looks up a table's schema.
    pub fn get_table(&self, txn: &Txn, name: &str) -> Result<Option<Arc<TableSchema>>> {
        let key = name.to_ascii_lowercase();
        if let Some(s) = self.cache.lock().get(&key) {
            return Ok(Some(Arc::clone(s)));
        }
        match self.tree.lookup(txn, &Self::catalog_key(name))? {
            Some(bytes) => {
                let schema = Arc::new(TableSchema::decode(&bytes)?);
                self.cache.lock().insert(key, Arc::clone(&schema));
                Ok(Some(schema))
            }
            None => Ok(None),
        }
    }

    /// Looks up a table's schema, erroring if it does not exist.
    pub fn require_table(&self, txn: &Txn, name: &str) -> Result<Arc<TableSchema>> {
        self.get_table(txn, name)?
            .ok_or_else(|| Error::Schema(format!("no such table: {name}")))
    }

    /// Drops a cached schema (after local DDL, or when a statement fails in
    /// a way that suggests staleness).
    pub fn invalidate(&self, name: &str) {
        self.cache.lock().remove(&name.to_ascii_lowercase());
        self.bump_generation();
    }

    /// Clears the whole schema cache.
    pub fn invalidate_all(&self) {
        self.cache.lock().clear();
        self.bump_generation();
    }

    fn allocate_tree_id(&self) -> Result<TreeId> {
        let raw = self
            .engine
            .kv()
            .allocate(ObjectId::new(CATALOG_TREE, TREE_ID_ALLOC_OID), 1)?;
        Ok(FIRST_USER_TREE + raw)
    }

    /// Allocates `count` consecutive rowids for a table.
    pub fn allocate_rowids(&self, schema: &TableSchema, count: u64) -> Result<i64> {
        let raw = self
            .engine
            .kv()
            .allocate(ObjectId::new(schema.tree, ROWID_ALLOC_OID), count)?;
        Ok(raw as i64 + 1)
    }

    /// Creates a table (and the implicit unique index for a non-integer
    /// primary key).  Returns the new schema.
    pub fn create_table(&self, txn: &Txn, stmt: &CreateTable) -> Result<Arc<TableSchema>> {
        if self.get_table(txn, &stmt.name)?.is_some() {
            if stmt.if_not_exists {
                return self.require_table(txn, &stmt.name);
            }
            return Err(Error::Schema(format!("table {} already exists", stmt.name)));
        }
        if self.name_in_use(txn, &stmt.name)? {
            // get_table found no table of this name, so the collision is
            // with an index.
            return Err(Error::Schema(format!(
                "there is already an index named {}",
                stmt.name
            )));
        }
        if stmt.columns.is_empty() {
            return Err(Error::Schema("a table needs at least one column".into()));
        }
        let mut seen = HashMap::new();
        for (i, c) in stmt.columns.iter().enumerate() {
            if seen.insert(c.name.to_ascii_lowercase(), i).is_some() {
                return Err(Error::Schema(format!("duplicate column name {}", c.name)));
            }
        }

        let tree = self.allocate_tree_id()?;
        let columns: Vec<ColumnInfo> = stmt
            .columns
            .iter()
            .map(|c: &ColumnDef| ColumnInfo {
                name: c.name.clone(),
                ctype: c.ctype,
                not_null: c.not_null,
                primary_key: c.primary_key,
            })
            .collect();
        // INTEGER PRIMARY KEY aliases the rowid.
        let rowid_col = stmt
            .columns
            .iter()
            .position(|c| c.primary_key && c.ctype == ColumnType::Integer);

        let mut indexes = Vec::new();
        // Non-integer primary keys and UNIQUE columns get implicit unique
        // indexes.
        for (i, c) in stmt.columns.iter().enumerate() {
            let needs_unique_index =
                (c.primary_key && rowid_col != Some(i)) || (c.unique && rowid_col != Some(i));
            if needs_unique_index {
                indexes.push(IndexInfo {
                    name: format!("sqlite_autoindex_{}_{}", stmt.name, indexes.len() + 1),
                    tree: self.allocate_tree_id()?,
                    columns: vec![i],
                    unique: true,
                });
            }
        }

        let schema = TableSchema {
            name: stmt.name.clone(),
            tree,
            columns,
            rowid_col,
            indexes,
        };

        // Create the trees and record the schema, all in the caller's
        // transaction.
        self.engine.create_tree_in_txn(txn, tree)?;
        for ix in &schema.indexes {
            self.engine.create_tree_in_txn(txn, ix.tree)?;
        }
        self.tree
            .insert(txn, &Self::catalog_key(&stmt.name), &schema.encode())?;
        let schema = Arc::new(schema);
        self.cache
            .lock()
            .insert(stmt.name.to_ascii_lowercase(), Arc::clone(&schema));
        self.bump_generation();
        Ok(schema)
    }

    /// True if any table or index in the catalog already uses `name`
    /// (tables and indexes share one namespace, as in SQLite).  Walks every
    /// schema in the catalog tree; DDL is rare, so the full scan is fine.
    fn name_in_use(&self, txn: &Txn, name: &str) -> Result<bool> {
        for entry in self.tree.scan(txn, None, None)? {
            let (_, value) = entry?;
            let schema = TableSchema::decode(&value)?;
            if schema.name.eq_ignore_ascii_case(name)
                || schema
                    .indexes
                    .iter()
                    .any(|ix| ix.name.eq_ignore_ascii_case(name))
            {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Creates a secondary index and backfills it from the table's existing
    /// rows.
    pub fn create_index(&self, txn: &Txn, stmt: &CreateIndex) -> Result<Arc<TableSchema>> {
        let schema = self.require_table(txn, &stmt.table)?;
        if schema.index_named(&stmt.name).is_some() {
            if stmt.if_not_exists {
                return Ok(schema);
            }
            return Err(Error::Schema(format!("index {} already exists", stmt.name)));
        }
        if self.name_in_use(txn, &stmt.name)? {
            if stmt.if_not_exists {
                return Ok(schema);
            }
            return Err(Error::Schema(format!(
                "there is already a table or index named {}",
                stmt.name
            )));
        }
        if stmt.columns.is_empty() {
            return Err(Error::Schema("an index needs at least one column".into()));
        }
        let mut col_positions = Vec::with_capacity(stmt.columns.len());
        for c in &stmt.columns {
            let pos = schema
                .col_index(c)
                .ok_or_else(|| Error::Schema(format!("no such column: {c}")))?;
            if col_positions.contains(&pos) {
                return Err(Error::Schema(format!(
                    "duplicate column {c} in index {}",
                    stmt.name
                )));
            }
            col_positions.push(pos);
        }
        let index = IndexInfo {
            name: stmt.name.clone(),
            tree: self.allocate_tree_id()?,
            columns: col_positions.clone(),
            unique: stmt.unique,
        };
        self.engine.create_tree_in_txn(txn, index.tree)?;

        // Backfill from existing rows.
        let table_tree = self.engine.tree(schema.tree);
        let index_tree = self.engine.tree(index.tree);
        // Materialise first: the scan borrows the transaction immutably and
        // inserts need it too, which is fine, but collecting keeps the code
        // simple and tables being indexed are typically freshly created.
        let rows: Vec<(bytes::Bytes, bytes::Bytes)> = table_tree
            .scan(txn, None, None)?
            .collect::<Result<Vec<_>>>()?;
        for (key, value) in rows {
            let rowid = crate::row::decode_rowid_key(&key)?;
            let row = crate::row::decode_row(&value)?;
            let vals: Vec<Value> = index.columns.iter().map(|i| row[*i].clone()).collect();
            // Entry shape must match the executor's index maintenance:
            // unique entries keyed by the values alone (rowid in the value),
            // except that entries containing NULL never conflict and are
            // stored non-unique style, with the rowid as a key suffix.
            if index.unique && !vals.iter().any(Value::is_null) {
                let ikey = encode_index_key(&vals, None);
                if index_tree.lookup(txn, &ikey)?.is_some() {
                    return Err(Error::Constraint(format!(
                        "UNIQUE constraint failed while building index {}",
                        index.name
                    )));
                }
                index_tree.insert(txn, &ikey, &encode_row(&[Value::Int(rowid)]))?;
            } else {
                let ikey = encode_index_key(&vals, Some(rowid));
                index_tree.insert(txn, &ikey, &[])?;
            }
        }

        let mut new_schema = (*schema).clone();
        new_schema.indexes.push(index);
        self.tree
            .insert(txn, &Self::catalog_key(&stmt.table), &new_schema.encode())?;
        let new_schema = Arc::new(new_schema);
        self.cache
            .lock()
            .insert(stmt.table.to_ascii_lowercase(), Arc::clone(&new_schema));
        self.bump_generation();
        Ok(new_schema)
    }

    /// Drops a table: removes its schema entry and all of its trees.
    pub fn drop_table(&self, txn: &Txn, name: &str, if_exists: bool) -> Result<bool> {
        let Some(schema) = self.get_table(txn, name)? else {
            if if_exists {
                return Ok(false);
            }
            return Err(Error::Schema(format!("no such table: {name}")));
        };
        self.tree.delete(txn, &Self::catalog_key(name))?;
        self.engine.drop_tree_in_txn(txn, schema.tree)?;
        for ix in &schema.indexes {
            self.engine.drop_tree_in_txn(txn, ix.tree)?;
        }
        self.invalidate(name);
        Ok(true)
    }

    /// Internal helper for the primary-tree rowid key of a row.
    pub fn rowid_key(rowid: i64) -> Vec<u8> {
        encode_rowid_key(rowid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yesquel_common::DbtConfig;
    use yesquel_kv::KvDatabase;

    fn setup() -> (KvDatabase, Catalog) {
        let db = KvDatabase::with_servers(2);
        let engine = DbtEngine::new(db.client(), DbtConfig::default());
        let catalog = Catalog::open(engine).unwrap();
        (db, catalog)
    }

    fn create(catalog: &Catalog, txn: &Txn, sql: &str) -> Result<Arc<TableSchema>> {
        match crate::parse(sql).unwrap() {
            crate::ast::Statement::CreateTable(ct) => catalog.create_table(txn, &ct),
            crate::ast::Statement::CreateIndex(ci) => catalog.create_index(txn, &ci),
            other => panic!("not DDL: {other:?}"),
        }
    }

    #[test]
    fn duplicate_table_name_rejected() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        create(&catalog, &txn, "CREATE TABLE t (a INT)").unwrap();
        match create(&catalog, &txn, "CREATE TABLE t (b INT)") {
            Err(Error::Schema(m)) => assert!(m.contains("already exists"), "{m}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        // IF NOT EXISTS downgrades the error to a no-op.
        let s = create(&catalog, &txn, "CREATE TABLE IF NOT EXISTS t (b INT)").unwrap();
        assert_eq!(s.columns[0].name, "a");
        txn.commit().unwrap();
    }

    #[test]
    fn duplicate_column_name_rejected() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        match create(&catalog, &txn, "CREATE TABLE t (a INT, A TEXT)") {
            Err(Error::Schema(m)) => assert!(m.contains("duplicate column"), "{m}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        txn.abort();
    }

    #[test]
    fn index_on_unknown_column_rejected() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        create(&catalog, &txn, "CREATE TABLE t (a INT)").unwrap();
        match create(&catalog, &txn, "CREATE INDEX i ON t (nope)") {
            Err(Error::Schema(m)) => assert!(m.contains("no such column"), "{m}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        match create(&catalog, &txn, "CREATE INDEX i ON missing (a)") {
            Err(Error::Schema(m)) => assert!(m.contains("no such table"), "{m}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        txn.abort();
    }

    #[test]
    fn duplicate_index_names_rejected_across_tables() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        create(&catalog, &txn, "CREATE TABLE t (a INT)").unwrap();
        create(&catalog, &txn, "CREATE TABLE u (b INT)").unwrap();
        create(&catalog, &txn, "CREATE INDEX i ON t (a)").unwrap();
        // Same table.
        assert!(matches!(
            create(&catalog, &txn, "CREATE INDEX i ON t (a)"),
            Err(Error::Schema(_))
        ));
        // Other table: indexes share one namespace.
        assert!(matches!(
            create(&catalog, &txn, "CREATE INDEX i ON u (b)"),
            Err(Error::Schema(_))
        ));
        // An index may not shadow a table name, nor a table an index name.
        assert!(matches!(
            create(&catalog, &txn, "CREATE INDEX u ON t (a)"),
            Err(Error::Schema(_))
        ));
        assert!(matches!(
            create(&catalog, &txn, "CREATE TABLE i (x INT)"),
            Err(Error::Schema(_))
        ));
        txn.commit().unwrap();
    }

    #[test]
    fn duplicate_column_in_index_rejected() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        create(&catalog, &txn, "CREATE TABLE t (a INT, b INT)").unwrap();
        match create(&catalog, &txn, "CREATE INDEX i ON t (a, b, A)") {
            Err(Error::Schema(m)) => assert!(m.contains("duplicate column"), "{m}"),
            other => panic!("expected Schema error, got {other:?}"),
        }
        txn.abort();
    }

    #[test]
    fn schema_roundtrips_through_catalog_tree() {
        let (db, catalog) = setup();
        let txn = db.client().begin();
        create(
            &catalog,
            &txn,
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, tag TEXT UNIQUE)",
        )
        .unwrap();
        create(&catalog, &txn, "CREATE INDEX by_name ON t (name)").unwrap();
        txn.commit().unwrap();

        // A second catalog over the same storage sees the same schema.
        let engine2 = DbtEngine::new(db.client(), yesquel_common::DbtConfig::default());
        let catalog2 = Catalog::open(engine2).unwrap();
        let txn = db.client().begin();
        let s = catalog2.require_table(&txn, "T").unwrap();
        assert_eq!(s.rowid_col, Some(0));
        assert_eq!(s.columns.len(), 3);
        assert!(s.columns[1].not_null);
        // The UNIQUE column got an implicit unique index plus the named one.
        assert_eq!(s.indexes.len(), 2);
        assert!(s.index_named("by_name").is_some());
        txn.commit().unwrap();
    }
}
