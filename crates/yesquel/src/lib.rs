//! Top-level facade of the Yesquel reproduction.
//!
//! Re-exports the public surface of every layer so applications (and the
//! workspace's integration tests and examples) can depend on one crate:
//!
//! * [`KvDatabase`] / [`KvClient`] — the transactional key-value deployment;
//! * [`DbtEngine`] / [`Dbt`] — the distributed balanced tree;
//! * [`sql`] — the SQL front end (parser, catalog, planner, executor);
//! * [`baselines`] — single-node comparison stores.
//!
//! The application-facing shape is the prepared-statement API of
//! [`sql::session`], re-exported here: a [`Session`] [`prepare`]s a statement
//! once — parsed, bound against the catalog, the plan pinned in the returned
//! [`Prepared`] handle — and then re-executes it with fresh parameters
//! millions of times, paying zero parse and zero plan work per call.
//! Parameters bind positionally (`?`, `?NNN`) or by name (`:name`) through
//! the [`params!`] macro and [`Prepared::execute_named`]; results come back
//! as typed [`Row`]s (`row.get::<i64>("views")?`).  [`Yesquel::execute`] is
//! the ad-hoc entry point — SQL text in, [`ResultSet`] out — and runs the
//! very same statement object, found in a per-session statement cache
//! instead of a handle.
//!
//! This crate itself defines one type: [`Yesquel`], a deployment opened
//! together with a client-side engine and a default session.
//!
//! [`prepare`]: Session::prepare

pub use yesquel_baselines as baselines;
pub use yesquel_common as common;
pub use yesquel_kv as kv;
pub use yesquel_rpc as rpc;
pub use yesquel_sql as sql;
pub use yesquel_wal as wal;
pub use yesquel_ydbt as ydbt;

pub use yesquel_common::{DbtConfig, Error, KvConfig, NetConfig, ObjectId, Result, YesquelConfig};
pub use yesquel_kv::{KvClient, KvDatabase, Txn};
pub use yesquel_sql::{
    params, FromValue, ParamInfo, Prepared, ResultSet, Row, Rows, Session, ToValue, Value,
};
pub use yesquel_ydbt::{Dbt, DbtEngine};

use std::sync::Arc;

/// A whole Yesquel deployment plus one client-side DBT engine and a default
/// SQL session — the shape an embedding application uses: open, `prepare`
/// or `execute` SQL, or drop down to trees and raw transactions.
pub struct Yesquel {
    db: KvDatabase,
    engine: Arc<DbtEngine>,
    session: Session,
}

impl Yesquel {
    /// Opens an in-process deployment with `num_servers` storage servers and
    /// default configuration.
    pub fn open(num_servers: usize) -> Self {
        Self::open_with(YesquelConfig::with_servers(num_servers))
    }

    /// Opens a deployment from an explicit configuration.
    pub fn open_with(config: YesquelConfig) -> Self {
        Self::open_db(KvDatabase::new(config)).expect("catalog bootstrap cannot fail")
    }

    /// Opens the SQL stack over a pre-built key-value deployment.  This is
    /// the entry point for fault-injected deployments: build the database
    /// with [`KvDatabase::with_faults`], then open SQL on top.  Returns an
    /// error if the catalog bootstrap itself fails (possible when faults
    /// are already active during open).
    pub fn open_db(db: KvDatabase) -> Result<Self> {
        let dbt_cfg = db.config().dbt.clone();
        let engine = DbtEngine::new(db.client(), dbt_cfg);
        let session = Session::new(Arc::clone(&engine))?;
        Ok(Yesquel {
            db,
            engine,
            session,
        })
    }

    /// The key-value deployment.
    pub fn db(&self) -> &KvDatabase {
        &self.db
    }

    /// This client's DBT engine (cache, splitter, allocator).
    pub fn engine(&self) -> &Arc<DbtEngine> {
        &self.engine
    }

    /// The default SQL session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Opens an additional, independent SQL session (its own schema cache
    /// and transaction state) over the same deployment.
    pub fn new_session(&self) -> Result<Session> {
        Session::new(Arc::clone(&self.engine))
    }

    /// Prepares a statement on the default session (see
    /// [`Session::prepare`]).
    pub fn prepare(&self, sql_text: &str) -> Result<Prepared<'_>> {
        self.session.prepare(sql_text)
    }

    /// Parses and executes one SQL statement on the default session.
    pub fn execute(&self, sql_text: &str, params: &[Value]) -> Result<ResultSet> {
        self.session.execute(sql_text, params)
    }

    /// Executes a semicolon-separated SQL script on the default session.
    pub fn execute_script(&self, sql_text: &str) -> Result<Vec<ResultSet>> {
        self.session.execute_script(sql_text)
    }

    /// Opens a SELECT as a pulling [`Rows`] iterator on the default session.
    pub fn query(&self, sql_text: &str, params: &[Value]) -> Result<Rows> {
        self.session.query(sql_text, params)
    }

    /// Starts a key-value transaction.
    pub fn begin(&self) -> Txn {
        self.db.client().begin()
    }

    /// Creates a tree (table/index) and returns a handle to it.
    pub fn create_tree(&self, tree: u64) -> Result<Dbt> {
        self.engine.create_tree(tree)?;
        Ok(self.engine.tree(tree))
    }

    /// Opens a handle to an existing tree.
    pub fn tree(&self, tree: u64) -> Dbt {
        self.engine.tree(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_create_put_get() {
        let y = Yesquel::open(3);
        let t = y.create_tree(1).unwrap();
        let txn = y.begin();
        t.insert(&txn, b"k", b"v").unwrap();
        assert_eq!(t.lookup(&txn, b"k").unwrap().as_deref(), Some(&b"v"[..]));
        txn.commit().unwrap();
    }

    #[test]
    fn execute_sql_end_to_end() {
        let y = Yesquel::open(3);
        y.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)", &[])
            .unwrap();
        let ins = y
            .execute(
                "INSERT INTO kv (v) VALUES (?), (?)",
                &["a".into(), "b".into()],
            )
            .unwrap();
        assert_eq!(ins.rows_affected, 2);
        assert_eq!(ins.last_rowid, Some(2));
        let rs = y
            .execute("SELECT v FROM kv WHERE id = ?", &[Value::Int(2)])
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("b".into())]]);
    }

    #[test]
    fn prepared_handles_bind_and_rebind() {
        let y = Yesquel::open(2);
        y.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)", &[])
            .unwrap();
        let ins = y.prepare("INSERT INTO kv (v) VALUES (?)").unwrap();
        for word in ["a", "b", "c"] {
            ins.execute(params![word]).unwrap();
        }
        let get = y.prepare("SELECT v FROM kv WHERE id = :id").unwrap();
        let rs = get.execute_named(&[(":id", Value::Int(2))]).unwrap();
        let row = rs.iter().next().unwrap();
        assert_eq!(row.get::<&str>("v").unwrap(), "b");
        // Positional binding works against named slots too.
        let rows: Vec<String> = get.query_map(params![3], |r| r.get::<String>("v")).unwrap();
        assert_eq!(rows, vec!["c".to_string()]);
        // Arity is checked at bind time.
        assert!(matches!(get.execute(params![1, 2]), Err(Error::Bind(_))));
        assert!(matches!(
            get.execute_named(&[(":nope", Value::Null)]),
            Err(Error::Bind(_))
        ));
        // Transaction control cannot be prepared.
        assert!(y.prepare("BEGIN").is_err());
    }

    #[test]
    fn explicit_transactions_roll_back() {
        let y = Yesquel::open(2);
        y.execute("CREATE TABLE t (a INT)", &[]).unwrap();
        y.execute_script("BEGIN; INSERT INTO t VALUES (1); ROLLBACK")
            .unwrap();
        assert!(y.execute("SELECT * FROM t", &[]).unwrap().rows.is_empty());
        y.execute_script("BEGIN; INSERT INTO t VALUES (2); COMMIT")
            .unwrap();
        assert_eq!(y.execute("SELECT * FROM t", &[]).unwrap().rows.len(), 1);
        assert!(!y.session().in_transaction());
    }
}
