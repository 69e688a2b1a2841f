//! End-to-end integration tests of the SQL layer: statements entered as
//! text, compiled by the planner onto DBT operations, executed inside
//! distributed transactions — DDL, DML with secondary-index maintenance,
//! point/range/filtered queries, explicit transactions and conflict
//! handling.

use std::time::{Duration, Instant};

use yesquel::rpc::TransportKind;
use yesquel::sql::{plan_statement, Value};
use yesquel::{params, Error, KvDatabase, NetConfig, Yesquel, YesquelConfig};

fn rows_i64(y: &Yesquel, sql: &str) -> Vec<Vec<i64>> {
    y.execute(sql, &[])
        .unwrap()
        .rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    Value::Int(i) => i,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The planner's one-line description of how a query would run.
fn plan_of(y: &Yesquel, sql: &str) -> String {
    let stmt = yesquel::sql::parse(sql).unwrap();
    let txn = y.begin();
    let plan = plan_statement(y.session().catalog(), &txn, &stmt).unwrap();
    txn.commit().unwrap();
    plan.describe()
}

fn wiki_fixture() -> Yesquel {
    let y = Yesquel::open(4);
    y.execute_script(
        "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, views INT, body TEXT);
         CREATE UNIQUE INDEX by_title ON pages (title);
         CREATE INDEX by_views ON pages (views);",
    )
    .unwrap();
    for i in 0..50i64 {
        y.execute(
            "INSERT INTO pages (title, views, body) VALUES (?, ?, ?)",
            &[
                Value::Text(format!("page-{i:02}")),
                Value::Int(i * 10),
                Value::Text(format!("body of {i}")),
            ],
        )
        .unwrap();
    }
    y
}

#[test]
fn ddl_then_dml_then_queries() {
    let y = Yesquel::open(3);
    y.execute(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score FLOAT)",
        &[],
    )
    .unwrap();
    let rs = y
        .execute(
            "INSERT INTO users (name, score) VALUES ('alice', 3.5), ('bob', 1.0), ('carol', 9.5)",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows_affected, 3);
    assert_eq!(rs.last_rowid, Some(3));

    // Point read by primary key.
    let rs = y
        .execute("SELECT name, score FROM users WHERE id = 2", &[])
        .unwrap();
    assert_eq!(rs.columns, vec!["name", "score"]);
    assert_eq!(
        rs.rows,
        vec![vec![Value::Text("bob".into()), Value::Real(1.0)]]
    );

    // Expression projection with alias.
    let rs = y
        .execute(
            "SELECT name, score * 2 AS double FROM users WHERE score >= 3.5 ORDER BY double DESC",
            &[],
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["name", "double"]);
    assert_eq!(rs.rows[0][0], Value::Text("carol".into()));
    assert_eq!(rs.rows[1][1], Value::Real(7.0));

    // Expression-only SELECT still works.
    let rs = y.execute("SELECT 1 + 1, 'x' || 'y'", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2), Value::Text("xy".into())]]);
}

#[test]
fn planner_chooses_expected_access_paths() {
    let y = wiki_fixture();
    assert!(plan_of(&y, "SELECT * FROM pages WHERE id = 7").starts_with("POINT pages"));
    assert!(plan_of(&y, "SELECT * FROM pages WHERE title = 'page-01'").contains("USING by_title"));
    assert!(
        plan_of(&y, "SELECT * FROM pages WHERE views >= 10 AND views < 90")
            .contains("USING by_views")
    );
    assert!(plan_of(&y, "SELECT * FROM pages WHERE id > 10").starts_with("RANGE pages"));
    assert!(plan_of(&y, "SELECT * FROM pages WHERE body LIKE '%x%'").starts_with("SCAN pages"));
    assert!(plan_of(&y, "SELECT * FROM pages").starts_with("SCAN pages"));
}

#[test]
fn secondary_index_equality_and_range_scans() {
    let y = wiki_fixture();

    // Unique-index equality with fetch-back of non-indexed columns.
    let rs = y
        .execute(
            "SELECT id, body FROM pages WHERE title = ?",
            &[Value::Text("page-07".into())],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![Value::Int(8), Value::Text("body of 7".into())]]
    );

    // Non-unique index range scan, bounded on both sides.
    let rs = y
        .execute(
            "SELECT views FROM pages WHERE views > 100 AND views <= 150 ORDER BY views",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(110)],
            vec![Value::Int(120)],
            vec![Value::Int(130)],
            vec![Value::Int(140)],
            vec![Value::Int(150)],
        ]
    );

    // BETWEEN compiles onto the same bounded scan.
    let rs = y
        .execute(
            "SELECT COUNT_ROWS FROM pages WHERE views BETWEEN 0 AND 40",
            &[],
        )
        .unwrap_err();
    // (no such column: the typo surfaces as a schema error, not a panic)
    assert!(matches!(rs, Error::Schema(_)));
    let rs = y
        .execute("SELECT views FROM pages WHERE views BETWEEN 0 AND 40", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 5);

    // Residual filter on top of an index scan.
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views >= 100 AND title LIKE '%page-1%'",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 10, "{:?}", rs.rows);
}

#[test]
fn order_by_limit_offset_distinct() {
    let y = wiki_fixture();
    let rs = y
        .execute(
            "SELECT title FROM pages ORDER BY views DESC LIMIT 3 OFFSET 1",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Text("page-48".into())],
            vec![Value::Text("page-47".into())],
            vec![Value::Text("page-46".into())],
        ]
    );
    // ORDER BY ordinal.
    let rs = y
        .execute("SELECT id, views FROM pages ORDER BY 2 LIMIT 2", &[])
        .unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(0)]);

    // DISTINCT.
    y.execute("UPDATE pages SET views = 7", &[]).unwrap();
    let rs = y.execute("SELECT DISTINCT views FROM pages", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn update_maintains_secondary_indexes() {
    let y = wiki_fixture();
    let rs = y
        .execute(
            "UPDATE pages SET views = views + 1000, title = 'bumped-' || title WHERE views >= 480",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows_affected, 2);

    // New values are findable through both indexes...
    let rs = y
        .execute("SELECT id FROM pages WHERE title = 'bumped-page-48'", &[])
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(49)]]);
    let rs = y
        .execute(
            "SELECT views FROM pages WHERE views > 1000 ORDER BY views",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![Value::Int(1480)], vec![Value::Int(1490)]]
    );

    // ...and the old index entries are gone.
    assert!(y
        .execute("SELECT id FROM pages WHERE title = 'page-48'", &[])
        .unwrap()
        .rows
        .is_empty());
    assert!(y
        .execute("SELECT id FROM pages WHERE views = 480", &[])
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn delete_maintains_secondary_indexes() {
    let y = wiki_fixture();
    let rs = y
        .execute("DELETE FROM pages WHERE views < 100", &[])
        .unwrap();
    assert_eq!(rs.rows_affected, 10);
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE views = 0").len(),
        0
    );
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE views = 100"),
        vec![vec![11]]
    );
    // Full table count agrees.
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 40);
    // Deleted titles are gone from the unique index.
    assert!(y
        .execute("SELECT id FROM pages WHERE title = 'page-03'", &[])
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn constraints_are_enforced() {
    let y = wiki_fixture();
    // Duplicate primary key.
    let err = y
        .execute("INSERT INTO pages (id, title) VALUES (1, 'dup-pk')", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    // Unique index violation.
    let err = y
        .execute("INSERT INTO pages (title) VALUES ('page-01')", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    // NOT NULL violation.
    let err = y
        .execute("INSERT INTO pages (views) VALUES (1)", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    // UPDATE into a unique conflict.
    let err = y
        .execute("UPDATE pages SET title = 'page-02' WHERE id = 1", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    // Failed statements leave the data intact.
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 50);
}

#[test]
fn nulls_are_distinct_in_unique_indexes() {
    let y = Yesquel::open(2);
    y.execute_script(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT);
         CREATE UNIQUE INDEX by_tag ON t (tag);",
    )
    .unwrap();
    y.execute("INSERT INTO t (tag) VALUES (NULL), (NULL), ('x')", &[])
        .unwrap();
    let err = y
        .execute("INSERT INTO t (tag) VALUES ('x')", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)));
    assert_eq!(rows_i64(&y, "SELECT id FROM t").len(), 3);
    // NULLs are invisible to equality but found by IS NULL.
    assert!(y
        .execute("SELECT id FROM t WHERE tag = NULL", &[])
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(rows_i64(&y, "SELECT id FROM t WHERE tag IS NULL").len(), 2);
}

#[test]
fn explicit_transactions_and_first_committer_wins() {
    let y = Yesquel::open(3);
    y.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INT)", &[])
        .unwrap();
    y.execute("INSERT INTO acct VALUES (1, 100)", &[]).unwrap();

    // Two sessions race an update to the same row under snapshot isolation.
    let a = y.new_session().unwrap();
    let b = y.new_session().unwrap();
    a.execute("BEGIN", &[]).unwrap();
    b.execute("BEGIN", &[]).unwrap();
    a.execute("UPDATE acct SET bal = bal + 10 WHERE id = 1", &[])
        .unwrap();
    b.execute("UPDATE acct SET bal = bal + 77 WHERE id = 1", &[])
        .unwrap();
    a.execute("COMMIT", &[]).unwrap();
    // The second committer must abort (first-committer-wins).
    let err = b.execute("COMMIT", &[]).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert!(!b.in_transaction());

    // Only A's update survived.
    assert_eq!(rows_i64(&y, "SELECT bal FROM acct"), vec![vec![110]]);

    // ROLLBACK undoes buffered statements.
    a.execute("BEGIN", &[]).unwrap();
    a.execute("UPDATE acct SET bal = 0", &[]).unwrap();
    a.execute("ROLLBACK", &[]).unwrap();
    assert_eq!(rows_i64(&y, "SELECT bal FROM acct"), vec![vec![110]]);
}

#[test]
fn rolled_back_ddl_leaves_no_trace() {
    let y = Yesquel::open(2);
    let s = y.session();
    s.execute("BEGIN", &[]).unwrap();
    s.execute("CREATE TABLE ghost (a INT)", &[]).unwrap();
    s.execute("INSERT INTO ghost VALUES (1)", &[]).unwrap();
    s.execute("ROLLBACK", &[]).unwrap();
    // The table never existed: neither in storage nor in the schema cache.
    let err = y.execute("SELECT * FROM ghost", &[]).unwrap_err();
    assert!(matches!(err, Error::Schema(_)), "{err}");
    // And the name is free again.
    y.execute("CREATE TABLE ghost (b TEXT)", &[]).unwrap();
}

#[test]
fn unsupported_features_error_cleanly() {
    let y = wiki_fixture();
    for sql in [
        "SELECT p.title FROM pages p JOIN pages q ON p.id = q.id",
        "SELECT MAX(MIN(views)) FROM pages",
        "SELECT LENGTH(*) FROM pages",
    ] {
        let err = y.execute(sql, &[]).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{sql}: {err}");
    }
    // A bare column in an aggregate query must be grouped or aggregated.
    let err = y
        .execute("SELECT title, COUNT(*) FROM pages", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Schema(_)), "{err}");
}

#[test]
fn aggregates_without_group_by() {
    let y = wiki_fixture();
    // views are 0, 10, ..., 490.
    let rs = y
        .execute(
            "SELECT COUNT(*), SUM(views), MIN(views), MAX(views), AVG(views) \
             FROM pages WHERE views < 50",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Int(5),
            Value::Int(100),
            Value::Int(0),
            Value::Int(40),
            Value::Real(20.0),
        ]]
    );
    // Aggregates over zero rows: COUNT is 0, the others NULL.
    let rs = y
        .execute(
            "SELECT COUNT(*), COUNT(views), SUM(views), AVG(views), MIN(views) \
             FROM pages WHERE views > 10000",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
        ]]
    );
    // Aggregates compose inside expressions.
    let rs = y
        .execute("SELECT MAX(views) - MIN(views) + 1 FROM pages", &[])
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(491)]]);
}

#[test]
fn group_by_streams_and_hashes() {
    let y = Yesquel::open(3);
    y.execute_script(
        "CREATE TABLE g (id INTEGER PRIMARY KEY, cat TEXT, v INT);
         CREATE INDEX g_by_cat ON g (cat);
         INSERT INTO g (cat, v) VALUES
            ('a', 1), ('a', 2), ('b', NULL), ('b', 3), (NULL, 4)",
    )
    .unwrap();

    // Indexed group keys: streamed, covering needs only cat + v?  v is not
    // indexed, so this one pays fetch-backs — correctness is the point.
    let rs = y
        .execute(
            "SELECT cat, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) \
             FROM g GROUP BY cat ORDER BY cat",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![
                Value::Null,
                Value::Int(1),
                Value::Int(1),
                Value::Int(4),
                Value::Real(4.0),
                Value::Int(4),
                Value::Int(4),
            ],
            vec![
                Value::Text("a".into()),
                Value::Int(2),
                Value::Int(2),
                Value::Int(3),
                Value::Real(1.5),
                Value::Int(1),
                Value::Int(2),
            ],
            vec![
                Value::Text("b".into()),
                Value::Int(2),
                Value::Int(1),
                Value::Int(3),
                Value::Real(3.0),
                Value::Int(3),
                Value::Int(3),
            ],
        ]
    );

    // Un-indexed group keys: hash aggregation, same answers.
    let rs = y
        .execute(
            "SELECT v % 2, COUNT(*) FROM g WHERE v IS NOT NULL GROUP BY v % 2 ORDER BY 1",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(0), Value::Int(2)], // 2, 4
            vec![Value::Int(1), Value::Int(2)], // 1, 3
        ]
    );

    // ORDER BY an aggregate (via alias) with GROUP BY.
    let rs = y
        .execute(
            "SELECT cat, COUNT(*) AS n FROM g GROUP BY cat ORDER BY n DESC, cat",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Text("a".into()), Value::Int(2)],
            vec![Value::Text("b".into()), Value::Int(2)],
            vec![Value::Null, Value::Int(1)],
        ]
    );

    // Zero matching rows with GROUP BY: zero groups.
    let rs = y
        .execute("SELECT cat, COUNT(*) FROM g WHERE v > 99 GROUP BY cat", &[])
        .unwrap();
    assert!(rs.rows.is_empty());

    // Group-key matching resolves names like everything else: identifier
    // case and table qualifiers are insignificant.
    let rs = y
        .execute("SELECT CAT, COUNT(*) FROM g GROUP BY g.cat ORDER BY 1", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[1][0], Value::Text("a".into()));

    // An out-of-range ORDER BY ordinal errors in aggregate queries too.
    let err = y
        .execute("SELECT cat, COUNT(*) FROM g GROUP BY cat ORDER BY 5", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Schema(_)), "{err}");
}

#[test]
fn min_max_compile_to_bounded_reads() {
    let y = wiki_fixture();
    let stats = y.db().stats();

    // Warm the schema cache so the measured statements only touch data.
    y.execute("SELECT MIN(views) FROM pages", &[]).unwrap();

    let before = stats.counter("sql.rows_scanned").get();
    assert_eq!(
        y.execute("SELECT MIN(views) FROM pages", &[]).unwrap().rows,
        vec![vec![Value::Int(0)]]
    );
    assert_eq!(
        y.execute("SELECT MAX(views) FROM pages", &[]).unwrap().rows,
        vec![vec![Value::Int(490)]]
    );
    assert_eq!(
        y.execute("SELECT MAX(views) FROM pages WHERE views < 245", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(240)]]
    );
    assert_eq!(
        y.execute("SELECT MIN(views) FROM pages WHERE views > 245", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(250)]]
    );
    // Four MIN/MAX statements, one entry examined each.
    assert_eq!(stats.counter("sql.rows_scanned").get() - before, 4);

    // MIN/MAX of the rowid run against the primary tree's edges.
    assert_eq!(
        y.execute("SELECT MIN(id) FROM pages WHERE id > 10", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(11)]]
    );
    assert_eq!(
        y.execute("SELECT MAX(id) FROM pages", &[]).unwrap().rows,
        vec![vec![Value::Int(50)]]
    );

    // A residual the pushdown cannot absorb falls back to a scan — and
    // still answers correctly.
    assert_eq!(
        y.execute(
            "SELECT MAX(views) FROM pages WHERE title LIKE 'page-1%'",
            &[]
        )
        .unwrap()
        .rows,
        vec![vec![Value::Int(190)]]
    );
}

#[test]
fn explain_reports_physical_properties() {
    let y = wiki_fixture();
    let explain = |sql: &str| -> String {
        let rs = y.execute(&format!("EXPLAIN {sql}"), &[]).unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        match &rs.rows[0][0] {
            Value::Text(s) => s.clone(),
            other => panic!("EXPLAIN returned {other:?}"),
        }
    };
    assert_eq!(
        explain("SELECT * FROM pages WHERE id = 7"),
        "POINT pages (rowid=?)"
    );
    // Covering: the projection and predicate live entirely in the index.
    assert_eq!(
        explain("SELECT views FROM pages WHERE views > 10"),
        "INDEX pages USING by_views (eq=0, range lo..) covering"
    );
    // Order elision without coverage: fetch-backs, but no sort.
    assert_eq!(
        explain("SELECT title FROM pages WHERE views > 10 ORDER BY views LIMIT 3"),
        "INDEX pages USING by_views (eq=0, range lo..) ordered by index"
    );
    // An unconstrained ORDER BY switches to a covering index scan.
    assert_eq!(
        explain("SELECT views FROM pages ORDER BY views LIMIT 3"),
        "INDEX pages USING by_views (eq=0) covering ordered by index"
    );
    // DESC defeats elision (scans are forward-only).
    assert_eq!(
        explain("SELECT views FROM pages WHERE views > 10 ORDER BY views DESC"),
        "INDEX pages USING by_views (eq=0, range lo..) covering"
    );
    // Aggregates.
    assert_eq!(
        explain("SELECT COUNT(*) FROM pages"),
        "SCAN pages AGG stream(COUNT(*))"
    );
    assert_eq!(
        explain("SELECT MAX(views) FROM pages"),
        "INDEX pages USING by_views (eq=0) covering AGG minmax(MAX)"
    );
    assert_eq!(
        explain("SELECT views, COUNT(*) FROM pages GROUP BY views"),
        "INDEX pages USING by_views (eq=0) covering AGG stream(COUNT(*)) GROUP BY 1"
    );
    assert_eq!(
        explain("SELECT body, COUNT(*) FROM pages GROUP BY body"),
        "SCAN pages AGG hash(COUNT(*)) GROUP BY 1"
    );
    // EXPLAIN of DML describes without executing.
    assert_eq!(
        explain("DELETE FROM pages WHERE id = 1"),
        "DELETE POINT pages (rowid=?)"
    );
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 50);
}

#[test]
fn covering_scan_performs_zero_fetchbacks() {
    let y = wiki_fixture();
    let stats = y.db().stats();

    // Warm up (schema + node cache).
    y.execute(
        "SELECT views FROM pages WHERE views >= 100 AND views < 200",
        &[],
    )
    .unwrap();

    let fetchbacks = stats.counter("sql.fetchbacks").get();
    let lookups = stats.counter("dbt.lookups").get();
    let rs = y
        .execute(
            "SELECT views FROM pages WHERE views >= 100 AND views < 200 ORDER BY views",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 10);
    assert_eq!(
        stats.counter("sql.fetchbacks").get() - fetchbacks,
        0,
        "covering scan must not fetch back"
    );
    assert_eq!(
        stats.counter("dbt.lookups").get() - lookups,
        0,
        "covering scan must not touch the primary tree"
    );

    // The same query projecting an uncovered column pays one fetch-back
    // per matching entry.
    let fetchbacks = stats.counter("sql.fetchbacks").get();
    let rs = y
        .execute(
            "SELECT body FROM pages WHERE views >= 100 AND views < 200",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 10);
    assert_eq!(stats.counter("sql.fetchbacks").get() - fetchbacks, 10);
}

#[test]
fn ordered_limit_reads_only_limit_entries() {
    let y = wiki_fixture();
    let stats = y.db().stats();
    y.execute(
        "SELECT title FROM pages WHERE views >= 0 ORDER BY views LIMIT 3",
        &[],
    )
    .unwrap();

    // The scan order subsumes ORDER BY, so LIMIT k pulls exactly k index
    // entries — not the whole match set.
    let before = stats.counter("sql.rows_scanned").get();
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views >= 0 ORDER BY views LIMIT 3",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Text("page-00".into())],
            vec![Value::Text("page-01".into())],
            vec![Value::Text("page-02".into())],
        ]
    );
    assert_eq!(stats.counter("sql.rows_scanned").get() - before, 3);

    // OFFSET counts against the bound too.
    let before = stats.counter("sql.rows_scanned").get();
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views >= 0 ORDER BY views LIMIT 2 OFFSET 2",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Text("page-02".into())]);
    assert_eq!(stats.counter("sql.rows_scanned").get() - before, 4);

    // A DESC order cannot come from the forward scan: the whole match set
    // is read and sorted (correctness baseline for the elision).
    let before = stats.counter("sql.rows_scanned").get();
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views >= 0 ORDER BY views DESC LIMIT 3",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows[0], vec![Value::Text("page-49".into())]);
    assert_eq!(stats.counter("sql.rows_scanned").get() - before, 50);
}

#[test]
fn limit_reserves_the_result_rows_once() {
    let y = wiki_fixture();
    // Reserved up front from the LIMIT — a vector grown by `push` would
    // have been reallocated at 4 and 8 rows and ended at capacity 16.
    let rs = y
        .execute("SELECT title FROM pages ORDER BY views LIMIT 10", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 10);
    assert_eq!(rs.rows.capacity(), 10);
    // The limit is an upper bound, not a promise: the reservation is capped.
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views < 30 LIMIT 1000000",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert!(rs.rows.capacity() <= 64, "{}", rs.rows.capacity());
}

#[test]
fn order_elision_respects_nullable_unique_indexes() {
    // Unique indexes store NULL-containing entries non-unique style (rowid
    // suffix, duplicates allowed), so consuming all columns of a unique
    // index only totalises the order when the scanned columns are NOT NULL
    // — otherwise ORDER BY keys past the index columns must still sort.
    let y = Yesquel::open(2);
    y.execute_script(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b INT, c INT);
         CREATE UNIQUE INDEX u ON t (a, b);
         INSERT INTO t (a, b, c) VALUES (5, NULL, 9), (5, NULL, 1)",
    )
    .unwrap();
    let rs = y
        .execute("SELECT c FROM t WHERE a = 5 ORDER BY b, c", &[])
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(9)]]);
    // And the plan admits the sort is needed.
    let rs = y
        .execute("EXPLAIN SELECT c FROM t WHERE a = 5 ORDER BY b, c", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Text("INDEX t USING u (eq=1)".into()));

    // With NOT NULL columns the unique key is genuinely total and the
    // trailing ORDER BY keys elide.
    let y2 = Yesquel::open(2);
    y2.execute_script(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INT NOT NULL, b INT NOT NULL, c INT);
         CREATE UNIQUE INDEX u ON t (a, b)",
    )
    .unwrap();
    let rs = y2
        .execute("EXPLAIN SELECT c FROM t WHERE a = 5 ORDER BY b, c", &[])
        .unwrap();
    assert_eq!(
        rs.rows[0][0],
        Value::Text("INDEX t USING u (eq=1) ordered by index".into())
    );
}

#[test]
fn statement_cache_reuses_and_invalidates_plans() {
    let y = Yesquel::open(2);
    y.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b TEXT)",
        &[],
    )
    .unwrap();
    for i in 0..20i64 {
        y.execute(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            &[Value::Int(i % 5), Value::Text(format!("b{i}"))],
        )
        .unwrap();
    }
    let stats = y.db().stats();

    let sql = "SELECT id FROM t WHERE a = ?";
    y.execute(sql, &[Value::Int(3)]).unwrap();
    let hits = stats.counter("sql.stmt_cache_hits").get();
    let rs = y.execute(sql, &[Value::Int(4)]).unwrap();
    assert_eq!(rs.rows.len(), 4);
    assert!(
        stats.counter("sql.stmt_cache_hits").get() > hits,
        "second execution of the same text must hit the statement cache"
    );

    // Before the index exists, the cached plan is a full scan...
    let explain_sql = "EXPLAIN SELECT id FROM t WHERE a = ?";
    let plan_before = y.execute(explain_sql, &[]).unwrap().rows[0][0].clone();
    assert_eq!(plan_before, Value::Text("SCAN t".into()));
    // ...and DDL bumps the catalog generation, so the same cached text
    // replans onto the new index.
    y.execute("CREATE INDEX t_by_a ON t (a)", &[]).unwrap();
    let plan_after = y.execute(explain_sql, &[]).unwrap().rows[0][0].clone();
    assert_eq!(
        plan_after,
        Value::Text("INDEX t USING t_by_a (eq=1) covering".into())
    );
    // And the cached data statement keeps answering correctly.
    assert_eq!(y.execute(sql, &[Value::Int(4)]).unwrap().rows.len(), 4);
}

#[test]
fn query_streams_rows_lazily() {
    let y = wiki_fixture();
    let stats = y.db().stats();
    y.execute("SELECT id FROM pages", &[]).unwrap();

    // Pull three rows of an unbounded ordered query, then drop the
    // iterator: only the pulled prefix is ever read from storage.  The
    // stream yields typed rows, so the prefix reads by column name.
    let before = stats.counter("sql.rows_scanned").get();
    let mut rows = y
        .query("SELECT id, title FROM pages ORDER BY id", &[])
        .unwrap();
    assert_eq!(rows.columns(), &["id".to_string(), "title".to_string()]);
    let got: Vec<(i64, String)> = rows
        .by_ref()
        .take(3)
        .map(|r| {
            let r = r.unwrap();
            (
                r.get::<i64>("id").unwrap(),
                r.get::<String>("title").unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (1, "page-00".to_string()),
            (2, "page-01".to_string()),
            (3, "page-02".to_string()),
        ]
    );
    drop(rows);
    let scanned = stats.counter("sql.rows_scanned").get() - before;
    assert!(
        scanned <= 4,
        "pulling 3 rows must not scan the table ({scanned} scanned)"
    );

    // Draining matches execute() and commits cleanly.
    let all: Result<Vec<_>, _> = y.query("SELECT id FROM pages", &[]).unwrap().collect();
    assert_eq!(all.unwrap().len(), 50);

    // query() rejects DML.
    assert!(y.query("DELETE FROM pages", &[]).is_err());
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 50);

    // Inside an explicit transaction the iterator still works (collected) —
    // and DML through query() is rejected there too, without executing.
    let s = y.new_session().unwrap();
    s.execute("BEGIN", &[]).unwrap();
    let n = s.query("SELECT id FROM pages", &[]).unwrap().count();
    assert_eq!(n, 50);
    assert!(s.query("DELETE FROM pages", &[]).is_err());
    assert!(s.in_transaction(), "a rejected query() must not abort");
    assert_eq!(s.query("SELECT id FROM pages", &[]).unwrap().count(), 50);
    s.execute("COMMIT", &[]).unwrap();
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 50);
}

#[test]
fn prepared_reexecution_does_zero_parse_and_zero_plan_work() {
    let y = wiki_fixture();
    let stats = y.db().stats();

    let by_title = y
        .prepare("SELECT id, views FROM pages WHERE title = ?")
        .unwrap();
    // One warm-up execution, then measure: N re-executions with fresh
    // parameters must not parse or plan anything.
    by_title.execute(params!["page-00"]).unwrap();
    let parses = stats.counter("sql.parses").get();
    let plans = stats.counter("sql.plans").get();
    for i in 0..20i64 {
        let rs = by_title.execute(params![format!("page-{i:02}")]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(i + 1), Value::Int(i * 10)]]);
    }
    assert_eq!(
        stats.counter("sql.parses").get(),
        parses,
        "prepared re-execution must not parse"
    );
    assert_eq!(
        stats.counter("sql.plans").get(),
        plans,
        "prepared re-execution must not plan"
    );

    // The streaming query path through the same handle is also plan-free.
    let n = by_title.query(params!["page-07"]).unwrap().count();
    assert_eq!(n, 1);
    assert_eq!(stats.counter("sql.parses").get(), parses);
    assert_eq!(stats.counter("sql.plans").get(), plans);
}

#[test]
fn prepared_handle_replans_after_ddl() {
    let y = Yesquel::open(2);
    y.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b TEXT)",
        &[],
    )
    .unwrap();
    for i in 0..20i64 {
        y.execute(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            params![i % 5, format!("b{i}")],
        )
        .unwrap();
    }

    let by_a = y.prepare("SELECT id FROM t WHERE a = ?").unwrap();
    assert_eq!(by_a.describe().unwrap(), "SCAN t");
    assert_eq!(by_a.execute(params![3]).unwrap().rows.len(), 4);

    // DDL bumps the catalog generation: the pinned plan is stale and the
    // handle replans (from the retained AST — no reparse) onto the index.
    y.execute("CREATE INDEX t_by_a ON t (a)", &[]).unwrap();
    let stats = y.db().stats();
    let parses = stats.counter("sql.parses").get();
    assert_eq!(
        by_a.describe().unwrap(),
        "INDEX t USING t_by_a (eq=1) covering"
    );
    assert_eq!(by_a.execute(params![3]).unwrap().rows.len(), 4);
    assert_eq!(
        stats.counter("sql.parses").get(),
        parses,
        "replanning must not reparse"
    );
    // EXPLAIN through the ad-hoc path agrees with the handle.
    let rs = y
        .execute("EXPLAIN SELECT id FROM t WHERE a = ?", &[])
        .unwrap();
    assert_eq!(
        rs.rows[0][0],
        Value::Text("INDEX t USING t_by_a (eq=1) covering".into())
    );
}

#[test]
fn named_and_numbered_placeholders_bind() {
    let y = wiki_fixture();

    // :name placeholders, bound by name in any order; :lo appears once in
    // the table even though the WHERE uses distinct names.
    let window = y
        .prepare("SELECT title, views FROM pages WHERE views >= :lo AND views < :hi ORDER BY views")
        .unwrap();
    assert_eq!(window.param_count(), 2);
    let rs = window
        .execute_named(&[(":hi", Value::Int(130)), (":lo", Value::Int(100))])
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][1], Value::Int(100));
    // Positional binding fills named slots in declaration order.
    let rs = window.execute(params![100, 130]).unwrap();
    assert_eq!(rs.rows.len(), 3);

    // A repeated :name binds one slot that feeds both uses.
    let eq = y
        .prepare("SELECT id FROM pages WHERE views >= :v AND views <= :v")
        .unwrap();
    assert_eq!(eq.param_count(), 1);
    let rs = eq.execute_named(&[("v", Value::Int(110))]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(12)]]);

    // ?NNN placeholders bind by number, here deliberately reversed.
    let rs = y
        .execute(
            "SELECT title FROM pages WHERE views >= ?2 AND views < ?1",
            params![120, 100],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);

    // Named placeholders work through the ad-hoc text path too (positional
    // values fill the slots).
    let rs = y
        .execute("SELECT id FROM pages WHERE title = :t", params!["page-04"])
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(5)]]);

    // EXPLAIN never evaluates parameters: unbound slots are fine through
    // both binding styles, but a misspelled name still errors.
    let p = y
        .prepare("EXPLAIN SELECT id FROM pages WHERE views = :v")
        .unwrap();
    assert!(p.execute(&[]).is_ok());
    assert!(p.execute_named(&[]).is_ok());
    assert!(p.execute_named(&[(":v", Value::Int(1))]).is_ok());
    assert!(matches!(
        p.execute_named(&[(":typo", Value::Null)]),
        Err(Error::Bind(_))
    ));
}

#[test]
fn bind_errors_surface_before_execution() {
    let y = wiki_fixture();

    // Arity mismatch on the ad-hoc path: too few and too many.
    for params in [&[][..], params![1, 2]] {
        let err = y
            .execute("SELECT id FROM pages WHERE id = ?", params)
            .unwrap_err();
        assert!(matches!(err, Error::Bind(_)), "{err}");
    }
    // Arity is also checked on the streaming path.
    let err = y
        .query("SELECT id FROM pages WHERE id = ?", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Bind(_)), "{err}");

    // Unknown :name.
    let p = y.prepare("SELECT id FROM pages WHERE views = :v").unwrap();
    let err = p.execute_named(&[(":nope", Value::Int(1))]).unwrap_err();
    assert!(matches!(err, Error::Bind(_)), "{err}");
    // Unbound :name.
    let err = p.execute_named(&[]).unwrap_err();
    assert!(matches!(err, Error::Bind(_)), "{err}");

    // Mixing named and positional placeholders is rejected at parse.
    let err = y
        .execute(
            "SELECT id FROM pages WHERE views = :v AND id = ?",
            params![1, 2],
        )
        .unwrap_err();
    assert!(matches!(err, Error::Bind(_)), "{err}");
    // Out-of-range parameter number.
    let err = y.prepare("SELECT id FROM pages WHERE id = ?0").unwrap_err();
    assert!(matches!(err, Error::Bind(_)), "{err}");

    // A bind failure executes nothing (the table is intact and usable).
    assert_eq!(rows_i64(&y, "SELECT id FROM pages").len(), 50);
}

#[test]
fn typed_row_access() {
    let y = wiki_fixture();
    let rs = y
        .execute(
            "SELECT id, title, views, body FROM pages WHERE id = ?",
            params![8],
        )
        .unwrap();

    assert_eq!(rs.column_index("views"), Some(2));
    assert_eq!(rs.column_index("VIEWS"), Some(2));
    assert_eq!(rs.column_index("nope"), None);

    let row = rs.iter().next().unwrap();
    assert_eq!(row.get::<i64>("id").unwrap(), 8);
    assert_eq!(row.get::<&str>("title").unwrap(), "page-07");
    assert_eq!(row.get::<i64>("views").unwrap(), 70);
    assert_eq!(row.get_at::<&str>(1).unwrap(), "page-07");
    assert_eq!(row.get::<Option<i64>>("views").unwrap(), Some(70));
    // Type mismatches and unknown columns are bind errors, not panics.
    assert!(matches!(row.get::<i64>("title"), Err(Error::Bind(_))));
    assert!(matches!(row.get::<&str>("nope"), Err(Error::Bind(_))));

    // NULL reads as None through Option.
    y.execute("INSERT INTO pages (title) VALUES ('untitled')", &[])
        .unwrap();
    let rs = y
        .execute(
            "SELECT views FROM pages WHERE title = ?",
            params!["untitled"],
        )
        .unwrap();
    let row = rs.iter().next().unwrap();
    assert_eq!(row.get::<Option<i64>>("views").unwrap(), None);
    assert!(matches!(row.get::<i64>("views"), Err(Error::Bind(_))));

    // The consuming iterator hands out the same typed rows.
    let total: i64 = y
        .execute("SELECT id, views FROM pages WHERE views < 30", &[])
        .unwrap()
        .into_iter()
        .map(|r| r.get::<i64>("views").unwrap())
        .sum();
    assert_eq!(total, 30); // views 0 + 10 + 20
}

#[test]
fn stale_statement_cache_entries_replan_from_their_ast() {
    let y = Yesquel::open(2);
    y.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, a INT)", &[])
        .unwrap();
    y.execute("INSERT INTO s (a) VALUES (0), (0), (1)", &[])
        .unwrap();
    let stats = y.db().stats();
    let count = |name: &str| stats.counter(name).get();

    // Populate the cache with several distinct statement texts.
    let text = |i: i64| format!("SELECT id FROM s WHERE a = {i}");
    for i in 0..6i64 {
        y.execute(&text(i), &[]).unwrap();
    }
    let resident = y.session().stmt_cache_len();
    assert!(
        resident >= 6,
        "expected ≥6 cached statements, got {resident}"
    );

    // DDL bumps the catalog generation: every resident pin is stale.  The
    // entries are not thrown away — a stale entry is what a stale
    // `Prepared` is, and its next run replans from the AST it kept: one
    // plan, no parse, no eviction, and the new access path.
    y.execute("CREATE INDEX s_by_a ON s (a)", &[]).unwrap();
    assert_eq!(y.session().stmt_cache_len(), resident + 1);
    let (parses, plans, evictions, hits) = (
        count("sql.parses"),
        count("sql.plans"),
        count("sql.stmt_cache_evictions"),
        count("sql.stmt_cache_hits"),
    );
    for _ in 0..3 {
        assert_eq!(y.execute(&text(0), &[]).unwrap().rows.len(), 2);
    }
    assert_eq!(
        count("sql.parses"),
        parses,
        "a stale entry must not reparse"
    );
    assert_eq!(
        count("sql.plans"),
        plans + 1,
        "one replan, then pinned again"
    );
    assert_eq!(count("sql.stmt_cache_hits"), hits + 3);
    assert_eq!(count("sql.stmt_cache_evictions"), evictions);
    assert_eq!(y.session().stmt_cache_len(), resident + 1);
    // The replan picked up the index (both texts hit the cache: the first
    // EXPLAIN of this text was planned before the index existed).
    let explain = format!("EXPLAIN {}", text(0));
    assert_eq!(
        y.execute(&explain, &[]).unwrap().rows[0][0],
        Value::Text("INDEX s USING s_by_a (eq=1) covering".into())
    );

    // What bounds the cache is its capacity, not the generation: dead texts
    // age out of the LRU as live ones arrive.
    for i in 0..200i64 {
        y.execute(&format!("SELECT {i}"), &[]).unwrap();
    }
    assert!(
        y.session().stmt_cache_len() <= 128,
        "cache over capacity: {}",
        y.session().stmt_cache_len()
    );
    assert!(count("sql.stmt_cache_evictions") > evictions);
}

#[test]
fn adhoc_and_prepared_are_one_path() {
    let y = Yesquel::open(2);
    y.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b TEXT)",
        &[],
    )
    .unwrap();
    for i in 0..20i64 {
        y.execute(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            params![i % 5, format!("b{i}")],
        )
        .unwrap();
    }
    let stats = y.db().stats();
    let count = |name: &str| stats.counter(name).get();
    let explain_line = |y: &Yesquel, sql: &str| match &y.execute(sql, &[]).unwrap().rows[0][0] {
        Value::Text(line) => line.clone(),
        other => panic!("EXPLAIN returned {other:?}"),
    };

    // The same text twice through execute(), then once through prepare():
    // one parse for the cache entry, none for the hit, one for the handle.
    let sql = "SELECT id, b FROM t WHERE a = ? ORDER BY id";
    let explain = format!("EXPLAIN {sql}");
    let parses = count("sql.parses");
    let first = y.execute(sql, params![3]).unwrap();
    assert_eq!(count("sql.parses"), parses + 1);
    let second = y.execute(sql, params![3]).unwrap();
    assert_eq!(count("sql.parses"), parses + 1);
    let handle = y.prepare(sql).unwrap();
    assert_eq!(count("sql.parses"), parses + 2);
    let third = handle.execute(params![3]).unwrap();
    let streamed = handle.query(params![3]).unwrap().into_result_set().unwrap();
    assert_eq!(first.rows.len(), 4);
    for other in [&second, &third, &streamed] {
        assert_eq!(first.columns, other.columns);
        assert_eq!(first.rows, other.rows);
    }
    assert_eq!(handle.describe().unwrap(), "SCAN t ordered by index");
    assert_eq!(explain_line(&y, &explain), handle.describe().unwrap());

    // DDL stales the cache entry and the handle alike, and both come back
    // the same way: replanned from the AST each kept, onto the same plan.
    y.execute("CREATE INDEX t_by_a ON t (a)", &[]).unwrap();
    let (parses, plans) = (count("sql.parses"), count("sql.plans"));
    let adhoc = y.execute(sql, params![3]).unwrap();
    let prepared = handle.execute(params![3]).unwrap();
    assert_eq!(count("sql.parses"), parses, "neither side reparses");
    assert_eq!(count("sql.plans"), plans + 2, "each side replans once");
    assert_eq!(adhoc.rows, first.rows);
    assert_eq!(prepared.rows, first.rows);
    let line = handle.describe().unwrap();
    assert!(line.starts_with("INDEX t USING t_by_a (eq=1)"), "{line}");
    assert_eq!(explain_line(&y, &explain), line);
    // Bind errors are the same error from both.
    assert!(matches!(y.execute(sql, &[]), Err(Error::Bind(_))));
    assert!(matches!(handle.execute(&[]), Err(Error::Bind(_))));
}

#[test]
fn conflicts_cost_retries_not_plans() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    let y = Arc::new(Yesquel::open(4));
    y.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, n INT)", &[])
        .unwrap();
    y.execute("INSERT INTO c VALUES (0, 0), (1, 0), (2, 0)", &[])
        .unwrap();
    let conflicts = y.db().stats().counter("kv.txn_conflicts");
    // Two sessions on two threads, each with its own prepared UPDATE, over
    // the same three rows (one leaf: every overlap in time is a conflict).
    // The main thread reads the counters between the barriers, once both
    // handles are prepared and warm.
    //
    // First-committer-wins can starve one thread while the other keeps
    // committing, until the autocommit loop gives up with `RetriesExhausted`
    // wrapping a `Conflict`.  That statement is simply unacknowledged: its
    // increment is not counted, and any other error still fails the test.
    let barrier = Arc::new(Barrier::new(3));
    let acked: Arc<[AtomicU64; 3]> = Arc::default();
    let starved = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..2u64)
        .map(|t| {
            let (y, barrier, acked, starved, conflicts) = (
                Arc::clone(&y),
                Arc::clone(&barrier),
                Arc::clone(&acked),
                Arc::clone(&starved),
                Arc::clone(&conflicts),
            );
            std::thread::spawn(move || {
                let s = y.new_session().unwrap();
                let bump = s.prepare("UPDATE c SET n = n + 1 WHERE id = ?").unwrap();
                let run = |id: u64| match bump.execute(params![id as i64]) {
                    Ok(_) => {
                        acked[id as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    Err(Error::RetriesExhausted { last, .. })
                        if matches!(*last, Error::Conflict(_)) =>
                    {
                        starved.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("thread {t}: {e:?}"),
                };
                run(t);
                barrier.wait();
                barrier.wait();
                let base = conflicts.get();
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut i = t;
                while conflicts.get() < base + 50 && Instant::now() < deadline {
                    run(i % 3);
                    i += 1;
                }
            })
        })
        .collect();
    barrier.wait();
    let stats = y.db().stats();
    let (parses, plans, before) = (
        stats.counter("sql.parses").get(),
        stats.counter("sql.plans").get(),
        conflicts.get(),
    );
    barrier.wait();
    for t in threads {
        t.join().unwrap();
    }
    let retried = conflicts.get() - before;
    eprintln!(
        "{retried} conflicts, {} statements starved out of their retries",
        starved.load(Ordering::Relaxed)
    );
    assert!(retried >= 50, "only {retried} conflicts in 60 s");
    // A conflict says two transactions wrote the same node; it says nothing
    // about any schema, so it stales no pin.
    assert_eq!(
        stats.counter("sql.plans").get(),
        plans,
        "conflicts replanned"
    );
    assert_eq!(stats.counter("sql.parses").get(), parses);
    // Every acknowledged increment is in the final state, row by row.
    let want: Vec<Vec<i64>> = acked
        .iter()
        .map(|n| vec![n.load(Ordering::Relaxed) as i64])
        .collect();
    assert_eq!(rows_i64(&y, "SELECT n FROM c ORDER BY id"), want);
}

/// The three ways a transaction that ran DDL can fail to commit.  After
/// each: the table it created is not visible, creating it for real works,
/// and a handle pinned before the transaction replans exactly once (the
/// schema cache was cleared once, not per statement and not never).
#[test]
fn uncommitted_ddl_leaves_no_schema_behind() {
    let y = Yesquel::open(2);
    y.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INT)", &[])
        .unwrap();
    y.execute("INSERT INTO t VALUES (1, 0)", &[]).unwrap();
    let stats = y.db().stats();
    let plans = || stats.counter("sql.plans").get();
    let s = y.session();
    let pinned = s.prepare("SELECT n FROM t WHERE id = ?").unwrap();
    let replans_of_pinned = || {
        let before = plans();
        for _ in 0..3 {
            pinned.execute(params![1]).unwrap();
        }
        plans() - before
    };
    let assert_gone_then_creatable = |table: &str| {
        let err = s
            .execute(&format!("SELECT * FROM {table}"), &[])
            .unwrap_err();
        assert!(matches!(err, Error::Schema(_)), "{table}: {err:?}");
        s.execute(
            &format!("CREATE TABLE {table} (id INTEGER PRIMARY KEY)"),
            &[],
        )
        .unwrap();
        s.execute(&format!("INSERT INTO {table} VALUES (7)"), &[])
            .unwrap();
        pinned.execute(params![1]).unwrap();
    };

    // The converse first: a rollback (or a failed statement's retry) of a
    // transaction that ran no DDL leaves every pin alone.
    s.execute_script("BEGIN; UPDATE t SET n = n + 1 WHERE id = 1; ROLLBACK")
        .unwrap();
    assert_eq!(replans_of_pinned(), 0, "a DML rollback staled a pin");

    // 1. ROLLBACK.
    s.execute_script("BEGIN; CREATE TABLE rolled (id INTEGER PRIMARY KEY, v TEXT)")
        .unwrap();
    s.execute("INSERT INTO rolled VALUES (1, 'x')", &[])
        .unwrap();
    s.execute("ROLLBACK", &[]).unwrap();
    assert_eq!(replans_of_pinned(), 1);
    assert_gone_then_creatable("rolled");

    // 2. A COMMIT that conflicts: another session commits a write to the
    //    row this transaction updated after its snapshot was taken.
    s.execute_script(
        "BEGIN; CREATE TABLE conflicted (id INTEGER PRIMARY KEY);
         UPDATE t SET n = n + 10 WHERE id = 1",
    )
    .unwrap();
    let other = y.new_session().unwrap();
    other
        .execute("UPDATE t SET n = n + 100 WHERE id = 1", &[])
        .unwrap();
    let err = s.execute("COMMIT", &[]).unwrap_err();
    assert!(matches!(err, Error::Conflict(_)), "{err:?}");
    assert!(!s.in_transaction());
    assert_eq!(replans_of_pinned(), 1);
    assert_gone_then_creatable("conflicted");

    // 3. An execution error inside the transaction (duplicate primary key),
    //    which aborts the whole of it.
    s.execute_script("BEGIN; CREATE TABLE killed (id INTEGER PRIMARY KEY)")
        .unwrap();
    let err = s.execute("INSERT INTO t VALUES (1, 5)", &[]).unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err:?}");
    assert!(!s.in_transaction());
    assert_eq!(replans_of_pinned(), 1);
    assert_gone_then_creatable("killed");

    // Only the other session's committed write ever reached the row.
    assert_eq!(rows_i64(&y, "SELECT n FROM t"), vec![vec![100]]);
}

#[test]
fn autocommit_statements_retry_conflicts_to_success() {
    use std::sync::Arc;
    let y = Arc::new(Yesquel::open(4));
    y.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, n INT)", &[])
        .unwrap();
    y.execute("INSERT INTO c VALUES (1, 0)", &[]).unwrap();
    // Hammer one row from several threads; every increment must stick.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let y = Arc::clone(&y);
            std::thread::spawn(move || {
                let s = y.new_session().unwrap();
                for _ in 0..25 {
                    s.execute("UPDATE c SET n = n + 1 WHERE id = 1", &[])
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(rows_i64(&y, "SELECT n FROM c"), vec![vec![100]]);
}

#[test]
fn insert_probes_each_leaf_once() {
    // The wiki fixture has one unique and one plain index.  An INSERT writes
    // three leaves.  Inside an explicit transaction the row leaf's and the
    // unique-index leaf's own probes are the uniqueness checks, and the
    // plain index's entry is a cell edit its leaf's server applies, so a
    // warm statement fetches two nodes — not five (a lookup and then an
    // insert on two of the trees, and the plain index's leaf).  An
    // autocommit INSERT leaves both checks to the leaves' servers, as
    // puts-if-absent, and fetches none.
    let y = wiki_fixture();
    let stats = y.db().stats();
    let insert = y
        .prepare("INSERT INTO pages (id, title, views, body) VALUES (?, ?, ?, ?)")
        .unwrap();
    insert.execute(params![1000, "warm", 1, "b"]).unwrap();
    y.engine().wait_for_splits();
    let fetches = stats.counter("dbt.node_fetches").get();
    insert.execute(params![1001, "measured", 2, "b"]).unwrap();
    assert_eq!(stats.counter("dbt.node_fetches").get() - fetches, 0);
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE title = 'measured'"),
        vec![vec![1001]]
    );
    y.engine().wait_for_splits();
    let fetches = stats.counter("dbt.node_fetches").get();
    y.execute("BEGIN", &[]).unwrap();
    insert.execute(params![1003, "explicit", 3, "b"]).unwrap();
    assert_eq!(stats.counter("dbt.node_fetches").get() - fetches, 2);
    y.execute("COMMIT", &[]).unwrap();

    // A duplicate primary key is refused by the row leaf's probe, before
    // anything is buffered in the transaction.
    let stmt = yesquel::sql::parse("INSERT INTO pages (id, title) VALUES (1001, 'other')").unwrap();
    let txn = y.begin();
    let writes = txn.write_count();
    let err = yesquel::sql::execute(y.session().catalog(), &txn, &stmt, &[]).unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err:?}");
    assert_eq!(txn.write_count(), writes);
    txn.abort();
    // So is a duplicate of the unique index, by that index leaf's server
    // at the autocommit's commit.
    let err = insert
        .execute(params![1002, "measured", 3, "b"])
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err:?}");
    assert_eq!(rows_i64(&y, "SELECT count(*) FROM pages").concat(), [53]);
}

/// The wiki fixture's table over per-server worker threads, on a network
/// that sleeps `one_way_latency_us` each way: every call blocks, as on a
/// real network, so a statement fetches its leaves together and a commit
/// does not wait for its secondaries' decisions.  Rowids are explicit, so
/// no statement below pays an allocation round trip.
fn threaded_wiki(one_way_latency_us: u64) -> Yesquel {
    let mut cfg = YesquelConfig::with_servers(4);
    cfg.net = NetConfig {
        one_way_latency_us,
        sleep_latency: one_way_latency_us > 0,
        ..NetConfig::default()
    };
    let workers = TransportKind::Threaded {
        workers_per_server: 2,
    };
    let y = Yesquel::open_db(KvDatabase::with_transport(cfg, workers)).unwrap();
    y.execute_script(
        "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, views INT, body TEXT);
         CREATE UNIQUE INDEX by_title ON pages (title);
         CREATE INDEX by_views ON pages (views);",
    )
    .unwrap();
    {
        let insert = y.prepare(WIKI_INSERT).unwrap();
        for i in 0..8i64 {
            insert
                .execute(params![i, format!("page-{i:02}"), i * 10, "body"])
                .unwrap();
        }
    }
    y
}

const WIKI_INSERT: &str = "INSERT INTO pages (id, title, views, body) VALUES (?, ?, ?, ?)";

/// A statement's round trips, counted as `Get`s on warm caches.  A row an
/// UPDATE changes was fetched by the scan that found it, so rewriting its
/// leaf is not a second fetch; a transaction that read the row already
/// holds the leaf, so its UPDATE fetches nothing.
#[test]
fn warm_updates_fetch_the_row_leaf_once() {
    let y = threaded_wiki(0);
    let gets = y.db().stats().counter("kv.get_rpcs");
    let update = y.prepare("UPDATE pages SET body = ? WHERE id = ?").unwrap();
    let read = y.prepare("SELECT body FROM pages WHERE id = ?").unwrap();
    update.execute(params!["warm", 3]).unwrap();

    let before = gets.get();
    assert_eq!(
        update
            .execute(params!["measured", 3])
            .unwrap()
            .rows_affected,
        1
    );
    assert_eq!(
        gets.get() - before,
        1,
        "an UPDATE fetches its row leaf once"
    );

    let before = gets.get();
    y.execute("BEGIN", &[]).unwrap();
    let rs = read.execute(params![3]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("measured".into())]]);
    assert_eq!(
        update.execute(params!["edited", 3]).unwrap().rows_affected,
        1
    );
    y.execute("COMMIT", &[]).unwrap();
    assert_eq!(
        gets.get() - before,
        1,
        "the SELECT's fetch serves the UPDATE of the same row"
    );
    let rs = read.execute(params![3]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("edited".into())]]);
}

/// `threaded_wiki` over `rows` rows: enough, at 300, that every tree has
/// inner nodes.
fn threaded_wiki_rows(one_way_latency_us: u64, rows: i64) -> Yesquel {
    let y = threaded_wiki(one_way_latency_us);
    {
        let insert = y.prepare(WIKI_INSERT).unwrap();
        for i in 8..rows {
            insert
                .execute(params![i, format!("page-{i:02}"), i * 10, "body"])
                .unwrap();
        }
    }
    y.engine().wait_for_splits();
    y
}

/// A statement that edits index entries reads only the leaves it needs an
/// answer from, counted as `Get`s on warm caches: a DELETE by id and an
/// index-moving UPDATE read the row's leaf, an autocommit INSERT none (its
/// checks are puts-if-absent, answered at its commit), and an INSERT in an
/// explicit transaction the row's leaf and its unique-index leaf.  The
/// index leaves they only edit take cell edits, applied by the leaves'
/// servers.  This holds on one-leaf trees, where the edit goes to the root,
/// and on trees with inner nodes, where it goes to the leaf a cached parent
/// names.
#[test]
fn index_edits_fetch_no_index_leaf() {
    for rows in [8, 300] {
        let y = threaded_wiki_rows(0, rows);
        let stats = y.db().stats();
        let gets = stats.counter("kv.get_rpcs");
        let refusals = stats.counter("dbt.cell_edit_refusals");
        let delete = y.prepare("DELETE FROM pages WHERE id = ?").unwrap();
        let update = y
            .prepare("UPDATE pages SET views = views + 1 WHERE id = ?")
            .unwrap();
        let insert = y.prepare(WIKI_INSERT).unwrap();
        let count_gets = |run: &dyn Fn()| {
            y.engine().wait_for_splits();
            let before = gets.get();
            run();
            gets.get() - before
        };
        // Warm every cache, with one statement of each kind.
        delete.execute(params![1]).unwrap();
        update.execute(params![2]).unwrap();
        insert.execute(params![1, "page-01", 10, "body"]).unwrap();

        // Each measured statement leaves every leaf's size as it found it,
        // so none asks for a split whose reads would be counted here.
        let refused = refusals.get();
        let deleted = count_gets(&|| {
            assert_eq!(delete.execute(params![5]).unwrap().rows_affected, 1);
        });
        assert_eq!(
            deleted, 1,
            "{rows} rows: a DELETE by id fetches its row leaf"
        );
        let updated = count_gets(&|| {
            assert_eq!(update.execute(params![6]).unwrap().rows_affected, 1);
        });
        assert_eq!(
            updated, 1,
            "{rows} rows: an index-moving UPDATE fetches its row leaf"
        );
        let inserted = count_gets(&|| {
            insert.execute(params![5, "page-05", 50, "body"]).unwrap();
        });
        assert_eq!(inserted, 0, "{rows} rows: an autocommit INSERT fetches");
        let deleted = count_gets(&|| {
            assert_eq!(delete.execute(params![7]).unwrap().rows_affected, 1);
        });
        assert_eq!(deleted, 1);
        let inserted_in_txn = count_gets(&|| {
            y.execute("BEGIN", &[]).unwrap();
            insert.execute(params![7, "page-07", 70, "body"]).unwrap();
            y.execute("COMMIT", &[]).unwrap();
        });
        assert_eq!(
            inserted_in_txn, 2,
            "{rows} rows: an INSERT in a transaction fetches its row and title leaves"
        );
        assert_eq!(
            refusals.get(),
            refused,
            "{rows} rows: a warm edit was refused"
        );

        // The rows and both indexes agree with the model.
        let views = |i: i64| i * 10 + i64::from(i == 2 || i == 6);
        assert_eq!(
            rows_i64(&y, "SELECT id, views FROM pages ORDER BY id"),
            (0..rows).map(|i| vec![i, views(i)]).collect::<Vec<_>>()
        );
        for i in [2, 5, 6] {
            let by_views = format!("SELECT id FROM pages WHERE views = {}", views(i));
            assert_eq!(rows_i64(&y, &by_views), vec![vec![i]]);
            let by_title = format!("SELECT id FROM pages WHERE title = 'page-{i:02}'");
            assert_eq!(rows_i64(&y, &by_title), vec![vec![i]]);
        }
        assert_eq!(
            rows_i64(&y, "SELECT id FROM pages WHERE views = 60"),
            Vec::<Vec<i64>>::new()
        );
    }
}

/// An explicit transaction that deletes a row and moves another's index
/// entry, then reads through both indexes, sees its own cell edits: the
/// read applies them to the leaf it fetches.
#[test]
fn a_transaction_reads_its_own_index_edits() {
    let y = threaded_wiki_rows(0, 300);
    let refusals = y.db().stats().counter("dbt.cell_edit_refusals");
    y.prepare("DELETE FROM pages WHERE id = ?")
        .unwrap()
        .execute(params![1])
        .unwrap();
    let refused = refusals.get();
    let none = Vec::<Vec<i64>>::new();

    y.execute("BEGIN", &[]).unwrap();
    y.execute("DELETE FROM pages WHERE id = 150", &[]).unwrap();
    y.execute("UPDATE pages SET views = 7 WHERE id = 151", &[])
        .unwrap();
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE views = 1500"),
        none
    );
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE title = 'page-150'"),
        none
    );
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE views = 1510"),
        none
    );
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE views < 10 ORDER BY views"),
        vec![vec![0], vec![151]]
    );
    y.execute("COMMIT", &[]).unwrap();
    assert_eq!(refusals.get(), refused);

    let mut model: Vec<Vec<i64>> = (2..300)
        .filter(|&i| i != 150)
        .map(|i| vec![i, if i == 151 { 7 } else { i * 10 }])
        .collect();
    model.insert(0, vec![0, 0]);
    assert_eq!(
        rows_i64(&y, "SELECT id, views FROM pages ORDER BY id"),
        model
    );
    model.sort_by_key(|r| (r[1], r[0]));
    assert_eq!(
        rows_i64(
            &y,
            "SELECT id, views FROM pages WHERE views >= 0 ORDER BY views"
        ),
        model
    );
}

/// The shortest of `runs` timings of `op`, each after a pause of `settle`
/// that lets the last statement's `Commit`s land: a leaf still locked by
/// them would cost the next one a wait that is not its own.
fn fastest(runs: impl Iterator<Item = i64>, settle: Duration, op: impl Fn(i64)) -> Duration {
    runs.map(|i| {
        std::thread::sleep(settle);
        let started = Instant::now();
        op(i);
        started.elapsed()
    })
    .min()
    .unwrap()
}

/// A round trip on the slept network of `threaded_wiki`: what a warm point
/// select takes.
fn round_trip(y: &Yesquel) -> Duration {
    let point = y.prepare("SELECT id FROM pages WHERE id = ?").unwrap();
    point.execute(params![3]).unwrap();
    fastest(0..5, Duration::ZERO, |_| {
        assert_eq!(point.execute(params![3]).unwrap().rows.len(), 1);
    })
}

/// Over a slept network an autocommit INSERT into a two-index table sends
/// its three leaves' edits — the row's and the title's as puts-if-absent —
/// in its prepare round and returns once every participant has voted: one
/// round trip, whether or not one server holds every leaf, where fetching
/// the row and title leaves first took two, and fetching the leaves one by
/// one and waiting for a decision after the votes took six.
#[test]
fn an_insert_into_a_two_index_table_takes_under_two_round_trips() {
    let y = threaded_wiki(1_000);
    let insert = y.prepare(WIKI_INSERT).unwrap();
    insert
        .execute(params![100, "new-100", 100, "body"])
        .unwrap();
    let round_trip = round_trip(&y);
    let insert_time = fastest(101..106, round_trip * 2, |id| {
        insert
            .execute(params![id, format!("new-{id}"), id, "body"])
            .unwrap();
    });
    assert!(
        insert_time < round_trip * 2,
        "an INSERT took {insert_time:?}, a round trip {round_trip:?}"
    );
}

/// An INSERT inside `BEGIN … COMMIT` keeps its probes: it fetches its row
/// and title leaves in one round, and the `COMMIT` is the prepare round —
/// two round trips.
#[test]
fn an_insert_in_a_transaction_takes_under_three_round_trips() {
    let y = threaded_wiki(1_000);
    let insert = y.prepare(WIKI_INSERT).unwrap();
    let in_txn = |id: i64| {
        y.execute("BEGIN", &[]).unwrap();
        insert
            .execute(params![id, format!("new-{id}"), id, "body"])
            .unwrap();
        y.execute("COMMIT", &[]).unwrap();
    };
    in_txn(100);
    let round_trip = round_trip(&y);
    let insert_time = fastest(101..106, round_trip * 2, in_txn);
    assert!(
        insert_time < round_trip * 3,
        "BEGIN; INSERT; COMMIT took {insert_time:?}, a round trip {round_trip:?}"
    );
}

/// A DELETE by id reads the row's leaf, edits its index entries where they
/// live and returns once every participant has voted: two round trips.
#[test]
fn a_delete_by_id_takes_under_three_round_trips() {
    let y = threaded_wiki(1_000);
    let delete = y.prepare("DELETE FROM pages WHERE id = ?").unwrap();
    assert_eq!(delete.execute(params![0]).unwrap().rows_affected, 1);
    let round_trip = round_trip(&y);
    let delete_time = fastest(1..6, round_trip * 2, |id| {
        assert_eq!(delete.execute(params![id]).unwrap().rows_affected, 1);
    });
    assert!(
        delete_time < round_trip * 3,
        "a DELETE took {delete_time:?}, a round trip {round_trip:?}"
    );
}

/// An UPDATE that moves a row's index entry reads the row's leaf, edits the
/// entry where it lives and returns once every participant has voted: two
/// round trips.
#[test]
fn an_index_moving_update_takes_under_three_round_trips() {
    let y = threaded_wiki(1_000);
    let update = y
        .prepare("UPDATE pages SET views = views + 1 WHERE id = ?")
        .unwrap();
    assert_eq!(update.execute(params![2]).unwrap().rows_affected, 1);
    let round_trip = round_trip(&y);
    let update_time = fastest(3..8, round_trip * 2, |id| {
        assert_eq!(update.execute(params![id]).unwrap().rows_affected, 1);
    });
    assert!(
        update_time < round_trip * 3,
        "an index-moving UPDATE took {update_time:?}, a round trip {round_trip:?}"
    );
}

/// The error a duplicate `INSERT` gets inside `BEGIN … COMMIT`, where its
/// probes fetch their leaves: the text an autocommit INSERT must match.
fn fetch_path_error(y: &Yesquel, id: i64, title: &str) -> String {
    y.execute("BEGIN", &[]).unwrap();
    let err = y
        .execute(WIKI_INSERT, params![id, title, 0, "dup"])
        .unwrap_err();
    assert!(
        !y.session().in_transaction(),
        "the error ends the transaction"
    );
    err.to_string()
}

/// An autocommit INSERT whose id or title is taken fails, at its commit,
/// with the very error the fetch path's probe gives, and leaves the table
/// and its title index as they were.  It fetched no leaf: the leaves'
/// servers found the keys.
#[test]
fn a_duplicate_autocommit_insert_fails_as_the_fetch_path_does() {
    // One-leaf trees: no split, so no refused or stale route sends an edit
    // down the fetch path.
    let y = threaded_wiki(0);
    let gets = y.db().stats().counter("kv.get_rpcs");
    let insert = y.prepare(WIKI_INSERT).unwrap();
    let count = || rows_i64(&y, "SELECT count(*) FROM pages").concat();
    let by_title = |title: &str| {
        let sql = format!("SELECT id FROM pages WHERE title = '{title}'");
        rows_i64(&y, &sql)
    };
    for (id, title) in [(3, "fresh-title"), (1_000, "page-03")] {
        let expected = fetch_path_error(&y, id, title);
        assert!(expected.contains("UNIQUE constraint failed"), "{expected}");
        // The error emptied the schema cache; this reloads it.
        assert_eq!(count(), [8]);
        let before = gets.get();
        let err = insert.execute(params![id, title, 0, "dup"]).unwrap_err();
        assert_eq!(gets.get(), before, "{title}: the INSERT fetched a leaf");
        assert!(matches!(err, Error::Constraint(_)), "{err:?}");
        assert_eq!(err.to_string(), expected);
        assert_eq!(count(), [8]);
        assert_eq!(by_title("page-03"), vec![vec![3]]);
        assert!(by_title("fresh-title").is_empty());
        assert!(rows_i64(&y, "SELECT id FROM pages WHERE id = 1000").is_empty());
    }
}

/// Two sessions INSERT rows of one title at once, round after round:
/// exactly one of each pair commits, the other fails on the title.
#[test]
fn racing_inserts_of_one_title_commit_once() {
    let y = threaded_wiki(0);
    let barrier = std::sync::Barrier::new(2);
    let wins: Vec<Vec<bool>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..2i64)
            .map(|side| {
                let (y, barrier) = (&y, &barrier);
                s.spawn(move || {
                    let session = y.new_session().unwrap();
                    (0..20i64)
                        .map(|round| {
                            let id = 1_000 + 2 * round + side;
                            barrier.wait();
                            let title = format!("raced-{round}");
                            let out = session.execute(WIKI_INSERT, params![id, title, 0, "b"]);
                            match out {
                                Ok(_) => true,
                                Err(Error::Constraint(_)) => false,
                                Err(e) => panic!("round {round}: {e}"),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for round in 0..20 {
        assert!(wins[0][round] != wins[1][round], "round {round}: {wins:?}");
        let sql = format!("SELECT count(*) FROM pages WHERE title = 'raced-{round}'");
        assert_eq!(rows_i64(&y, &sql).concat(), [1]);
    }
    assert_eq!(rows_i64(&y, "SELECT count(*) FROM pages").concat(), [28]);
}

/// A multi-row autocommit INSERT that repeats an id, or a title, fails as
/// a whole: none of its rows is stored.
#[test]
fn a_multi_row_insert_that_repeats_a_key_fails_whole() {
    let y = threaded_wiki(0);
    for values in [
        "(100, 'a-100', 1, 'b'), (101, 'a-101', 1, 'b'), (100, 'a-102', 1, 'b')",
        "(100, 'a-100', 1, 'b'), (101, 'a-100', 1, 'b')",
    ] {
        let sql = format!("INSERT INTO pages (id, title, views, body) VALUES {values}");
        let err = y.execute(&sql, &[]).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)), "{err:?}");
        assert_eq!(rows_i64(&y, "SELECT count(*) FROM pages").concat(), [8]);
        assert!(rows_i64(&y, "SELECT id FROM pages WHERE title = 'a-100'").is_empty());
    }
}

/// Inside `BEGIN … COMMIT` a duplicate INSERT fails at the statement, which
/// ends the transaction, not at the `COMMIT`.
#[test]
fn a_duplicate_insert_in_a_transaction_fails_at_the_statement() {
    let y = threaded_wiki(0);
    for (id, title) in [(3, "new-title"), (100, "page-03")] {
        y.execute("BEGIN", &[]).unwrap();
        y.execute(WIKI_INSERT, params![50, "before", 0, "b"])
            .unwrap();
        let err = y
            .execute(WIKI_INSERT, params![id, title, 0, "b"])
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)), "{err:?}");
        assert!(!y.session().in_transaction());
        assert!(y.execute("COMMIT", &[]).is_err(), "no transaction is open");
        assert_eq!(rows_i64(&y, "SELECT count(*) FROM pages").concat(), [8]);
    }
}

/// A rowid-less autocommit INSERT whose allocated rowid an explicit INSERT
/// took ahead of the allocator is retried through the fetch path, which
/// skips the taken id: it succeeds with the next free one.
#[test]
fn an_allocated_rowid_found_taken_takes_the_next_free_one() {
    let y = threaded_wiki(0);
    let gets = y.db().stats().counter("kv.get_rpcs");
    let insert = y
        .prepare("INSERT INTO pages (title, views, body) VALUES (?, ?, ?)")
        .unwrap();
    let first = insert.execute(params!["alloc-1", 1, "b"]).unwrap();
    let rid = first.last_rowid.unwrap();
    y.execute(WIKI_INSERT, params![rid + 1, "ahead", 2, "b"])
        .unwrap();
    y.engine().wait_for_splits();
    let before = gets.get();
    let next = insert.execute(params!["alloc-2", 3, "b"]).unwrap();
    assert!(gets.get() > before, "the retry fetched no leaf");
    assert_eq!(next.last_rowid, Some(rid + 2));
    assert_eq!(
        rows_i64(
            &y,
            &format!("SELECT id FROM pages WHERE id > {} ORDER BY id", rid - 1)
        ),
        vec![vec![rid], vec![rid + 1], vec![rid + 2]]
    );
    assert_eq!(
        rows_i64(&y, "SELECT id FROM pages WHERE title = 'alloc-2'"),
        vec![vec![rid + 2]]
    );
}
