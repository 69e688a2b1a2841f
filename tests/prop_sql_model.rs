//! Randomized property test of the SQL executor: a deterministic stream of
//! random DML and queries runs both through `Yesquel::execute` and against a
//! plain in-memory model; results must match at every step.
//!
//! Queries are drawn so that every access path gets exercised — rowid point
//! reads, rowid ranges, secondary-index equality and range scans (the table
//! has a composite index on `(cat, score)`), covering scans, and full scans
//! with residual filters — and compared as ordered rows when the query has
//! a total ORDER BY, as multisets otherwise.  Aggregate queries (global,
//! GROUP BY cat streamed off the index, and the one-row bounded MIN/MAX
//! plans) are checked value-exactly against the model: generated scores are
//! integers or halves, so even float sums have one exact answer.
//!
//! Executions mix the ad-hoc text path with prepared handles re-executed
//! under varying parameters (positional and named), and a `CREATE INDEX`
//! lands mid-stream so every pinned and cached plan goes stale and must
//! replan without results moving.
//!
//! Explicit transactions delete a row and move another's index entry —
//! index edits that go to the leaves' servers unread — then read through
//! the index before they commit or roll back, and must see their own
//! edits.
//!
//! Duplicate INSERTs — a taken id, a taken title (the table has a unique
//! index on `title`), or a statement whose rows repeat one — must fail
//! whole and change nothing, in autocommit, where the leaves' servers find
//! the key at the commit, and inside `BEGIN`, where the statement's own
//! probes find it and the transaction ends with its earlier writes undone.
//!
//! `CHAOS_SEED` picks one seed, as for the other storms; without it every
//! seed of the matrix runs.

use std::cmp::Ordering;

use rand::Rng;
use yesquel::common::rand_util::seeded_rng;
use yesquel::sql::Value;
use yesquel::{params, Yesquel};

/// One row of the model: rowid plus the non-rowid columns.
#[derive(Debug, Clone)]
struct ModelRow {
    id: i64,
    cat: Value,
    score: Value,
    note: Value,
    title: Value,
}

/// SQL comparison truth: NULL operands never satisfy a comparison.
fn cmp_true(a: &Value, op: &str, b: &Value) -> bool {
    let Some(ord) = a.compare(b) else {
        return false;
    };
    match op {
        "=" => ord == Ordering::Equal,
        "<" => ord == Ordering::Less,
        "<=" => ord != Ordering::Greater,
        ">" => ord == Ordering::Greater,
        ">=" => ord != Ordering::Less,
        _ => unreachable!(),
    }
}

/// The WHERE clauses the generator draws, mirrored on the model.
#[derive(Debug, Clone)]
enum Pred {
    All,
    IdEq(i64),
    IdRange(i64, i64),
    CatEq(Value),
    CatEqScoreRange(Value, i64, i64),
    ScoreGe(i64),
    NoteLike,
}

impl Pred {
    fn sql(&self) -> (String, Vec<Value>) {
        match self {
            Pred::All => (String::new(), vec![]),
            Pred::IdEq(i) => (" WHERE id = ?".into(), vec![Value::Int(*i)]),
            Pred::IdRange(a, b) => (
                " WHERE id >= ? AND id < ?".into(),
                vec![Value::Int(*a), Value::Int(*b)],
            ),
            Pred::CatEq(c) => (" WHERE cat = ?".into(), vec![c.clone()]),
            Pred::CatEqScoreRange(c, a, b) => (
                " WHERE cat = ? AND score BETWEEN ? AND ?".into(),
                vec![c.clone(), Value::Int(*a), Value::Int(*b)],
            ),
            Pred::ScoreGe(a) => (" WHERE score >= ?".into(), vec![Value::Int(*a)]),
            Pred::NoteLike => (" WHERE note LIKE 'n1%'".into(), vec![]),
        }
    }

    fn eval(&self, r: &ModelRow) -> bool {
        match self {
            Pred::All => true,
            Pred::IdEq(i) => r.id == *i,
            Pred::IdRange(a, b) => r.id >= *a && r.id < *b,
            Pred::CatEq(c) => cmp_true(&r.cat, "=", c),
            Pred::CatEqScoreRange(c, a, b) => {
                cmp_true(&r.cat, "=", c)
                    && cmp_true(&r.score, ">=", &Value::Int(*a))
                    && cmp_true(&r.score, "<=", &Value::Int(*b))
            }
            Pred::ScoreGe(a) => cmp_true(&r.score, ">=", &Value::Int(*a)),
            Pred::NoteLike => match &r.note {
                Value::Text(s) => s.to_ascii_lowercase().starts_with("n1"),
                _ => false,
            },
        }
    }
}

fn random_cat(rng: &mut impl Rng) -> Value {
    match rng.gen_range(0u32..10) {
        0 => Value::Null,
        n => Value::Text(format!("cat-{}", n % 4)),
    }
}

fn random_score(rng: &mut impl Rng) -> Value {
    match rng.gen_range(0u32..12) {
        0 => Value::Null,
        1 => Value::Real(rng.gen_range(0i64..40) as f64 + 0.5),
        _ => Value::Int(rng.gen_range(0i64..40)),
    }
}

fn random_pred(rng: &mut impl Rng, max_id: i64) -> Pred {
    match rng.gen_range(0u32..8) {
        0 => Pred::All,
        1 => Pred::IdEq(rng.gen_range(1..max_id.max(2))),
        2 => {
            let a = rng.gen_range(0..max_id.max(2));
            Pred::IdRange(a, a + rng.gen_range(1i64..20))
        }
        3 => Pred::CatEq(random_cat(rng)),
        4 => {
            let a = rng.gen_range(0i64..30);
            Pred::CatEqScoreRange(random_cat(rng), a, a + rng.gen_range(0i64..15))
        }
        5 => Pred::ScoreGe(rng.gen_range(0i64..40)),
        _ => Pred::NoteLike,
    }
}

/// Canonical form of a result row for multiset comparison.
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Model aggregates over a stream of score values, mirroring the executor:
/// `(COUNT(*), COUNT(score), SUM(score), MIN(score), MAX(score),
/// AVG(score))`.  SUM stays an integer until a real appears; every score the
/// generator draws is an integer or a half (`k + 0.5`), so float sums are
/// exact in any accumulation order and model-vs-engine comparison is exact.
fn model_aggs(scores: &[&Value]) -> Vec<Value> {
    let count_star = scores.len() as i64;
    let non_null: Vec<&Value> = scores.iter().copied().filter(|v| !v.is_null()).collect();
    let count = non_null.len() as i64;
    let sum = if non_null.is_empty() {
        Value::Null
    } else if non_null.iter().all(|v| matches!(v, Value::Int(_))) {
        Value::Int(
            non_null
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    _ => unreachable!(),
                })
                .sum(),
        )
    } else {
        Value::Real(
            non_null
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i as f64,
                    Value::Real(r) => *r,
                    _ => 0.0,
                })
                .sum(),
        )
    };
    let best = |want_less: bool| -> Value {
        let mut best: Option<&Value> = None;
        for v in &non_null {
            let better = match best {
                None => true,
                Some(b) => {
                    let ord = v.sort_cmp(b);
                    if want_less {
                        ord == Ordering::Less
                    } else {
                        ord == Ordering::Greater
                    }
                }
            };
            if better {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    let avg = if non_null.is_empty() {
        Value::Null
    } else {
        let total: f64 = non_null
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i as f64,
                Value::Real(r) => *r,
                _ => 0.0,
            })
            .sum();
        Value::Real(total / count as f64)
    };
    vec![
        Value::Int(count_star),
        Value::Int(count),
        sum,
        best(true),
        best(false),
        avg,
    ]
}

const AGG_SELECT: &str = "COUNT(*), COUNT(score), SUM(score), MIN(score), MAX(score), AVG(score)";

#[test]
fn random_sql_matches_in_memory_model() {
    // CI pins CHAOS_SEED to fan seeds out across jobs; locally all run.
    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        model_case(seed.parse().expect("CHAOS_SEED must be a u64"));
        return;
    }
    for seed in [0x5A1_51E2E, 907] {
        model_case(seed);
    }
}

/// The `cat = ?` rows of `rows`, as `(id, score)`, in the canonical order.
fn cat_rows<'a>(rows: impl Iterator<Item = &'a ModelRow>, cat: &Value) -> Vec<String> {
    let rows: Vec<Vec<Value>> = rows
        .filter(|r| cmp_true(&r.cat, "=", cat))
        .map(|r| vec![Value::Int(r.id), r.score.clone()])
        .collect();
    canon(&rows)
}

fn model_case(seed: u64) {
    let y = Yesquel::open(3);
    y.execute_script(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, cat TEXT, score INT, note TEXT, title TEXT);
         CREATE INDEX by_cat_score ON items (cat, score);
         CREATE UNIQUE INDEX by_title ON items (title);",
    )
    .unwrap();
    let mut model: Vec<ModelRow> = Vec::new();
    let mut next_id = 1i64;
    // Titles are unique but for the NULLs (which never collide); the ids of
    // the rows duplicate INSERTs try to add lie far above the allocator's.
    let mut next_title = 0u32;
    let mut next_stray_id = 1_000_000i64;
    // Duplicate INSERTs run in autocommit, and inside `BEGIN`.
    let mut duplicates = [0u32; 2];
    let mut rng = seeded_rng(seed, 7);

    // Prepared handles reused across the whole stream, interleaved with
    // ad-hoc text executions of the same statements: both paths must agree
    // with the model, and the handles must survive the mid-stream DDL below
    // (plan revalidation against the catalog generation).
    let prep_insert = y
        .prepare("INSERT INTO items (cat, score, note, title) VALUES (:cat, :score, :note, :title)")
        .unwrap();
    let prep_point = y
        .prepare("SELECT id, cat, score, note FROM items WHERE id = ?")
        .unwrap();
    let prep_min = y
        .prepare("SELECT MIN(score) FROM items WHERE cat = ?")
        .unwrap();
    let prep_max = y
        .prepare("SELECT MAX(score) FROM items WHERE cat = ?")
        .unwrap();

    for step in 0..600u32 {
        // Mid-stream DDL: a new index stales every cached and pinned plan;
        // later ScoreGe queries replan onto it, and results must not move.
        if step == 300 {
            y.execute("CREATE INDEX by_score ON items (score)", &[])
                .unwrap();
        }
        match rng.gen_range(0u32..12) {
            // A duplicate INSERT: a taken id, a taken title, or rows of one
            // statement that repeat an id or a title, in autocommit or
            // after a good row inside `BEGIN`.  It fails whole.
            11 if !model.is_empty() => {
                let taken = model[rng.gen_range(0..model.len())].clone();
                let mut stray = || {
                    next_stray_id += 1;
                    next_stray_id
                };
                let fresh_title = |n: i64| Value::Text(format!("stray-{n}"));
                let (a, b) = (stray(), stray());
                let rows: Vec<(i64, Value)> = match rng.gen_range(0u32..4) {
                    0 => vec![(taken.id, fresh_title(a))],
                    1 if !taken.title.is_null() => vec![(a, taken.title.clone())],
                    2 => vec![(a, fresh_title(a)), (a, fresh_title(b))],
                    _ => vec![(a, fresh_title(a)), (b, fresh_title(a))],
                };
                let values = vec!["(?, 'cat-0', 1, 'dup', ?)"; rows.len()].join(", ");
                let sql =
                    format!("INSERT INTO items (id, cat, score, note, title) VALUES {values}");
                let params: Vec<Value> = (rows.iter())
                    .flat_map(|(id, title)| [Value::Int(*id), title.clone()])
                    .collect();
                let explicit = rng.gen_range(0u32..2) == 0;
                duplicates[usize::from(explicit)] += 1;
                if explicit {
                    y.execute("BEGIN", &[]).unwrap();
                    let good = stray();
                    y.execute(
                        "INSERT INTO items (id, title) VALUES (?, ?)",
                        params![good, fresh_title(good)],
                    )
                    .unwrap();
                }
                let err = y.execute(&sql, &params).unwrap_err();
                assert!(
                    matches!(err, yesquel::Error::Constraint(_)),
                    "step {step}: {rows:?} (explicit {explicit}): {err:?}"
                );
                assert!(!y.session().in_transaction(), "step {step}: still open");
                let count = y.execute("SELECT COUNT(*) FROM items", &[]).unwrap();
                assert_eq!(count.rows, vec![vec![Value::Int(model.len() as i64)]]);
                for (id, title) in &rows {
                    let owner = (model.iter())
                        .find(|r| cmp_true(&r.title, "=", title))
                        .map(|r| vec![Value::Int(r.id)]);
                    let got = y
                        .execute(
                            "SELECT id FROM items WHERE title = ?",
                            std::slice::from_ref(title),
                        )
                        .unwrap();
                    assert_eq!(
                        got.rows,
                        Vec::from_iter(owner),
                        "step {step}: title {title:?}"
                    );
                    let got = prep_point.execute(params![*id]).unwrap();
                    let held = model.iter().filter(|r| r.id == *id).count();
                    assert_eq!(got.rows.len(), held, "step {step}: id {id}");
                }
            }
            // An explicit transaction: delete one row, move another's
            // (cat, score) entry, then read both categories through the
            // index before committing or rolling back.
            10 if model.len() >= 2 => {
                let victim = model[rng.gen_range(0..model.len())].clone();
                let moved = model[rng.gen_range(0..model.len())].id;
                let bump = rng.gen_range(1i64..5);
                y.execute("BEGIN", &[]).unwrap();
                let gone = y
                    .execute("DELETE FROM items WHERE id = ?", params![victim.id])
                    .unwrap();
                assert_eq!(gone.rows_affected, 1, "step {step}: DELETE in BEGIN");
                let rs = y
                    .execute(
                        "UPDATE items SET score = score + ? WHERE id = ?",
                        params![bump, moved],
                    )
                    .unwrap();
                let mut after = model.clone();
                after.retain(|r| r.id != victim.id);
                let mut moved_cat = None;
                for r in after.iter_mut().filter(|r| r.id == moved) {
                    r.score = match &r.score {
                        Value::Int(s) => Value::Int(s + bump),
                        Value::Real(s) => Value::Real(s + bump as f64),
                        other => other.clone(),
                    };
                    moved_cat = Some(r.cat.clone());
                }
                assert_eq!(rs.rows_affected, u64::from(moved_cat.is_some()));
                for cat in std::iter::once(victim.cat).chain(moved_cat) {
                    let got = y
                        .execute(
                            "SELECT id, score FROM items WHERE cat = ?",
                            std::slice::from_ref(&cat),
                        )
                        .unwrap();
                    assert_eq!(
                        canon(&got.rows),
                        cat_rows(after.iter(), &cat),
                        "step {step}: own edits of cat {cat:?}"
                    );
                }
                if rng.gen_range(0u32..3) == 0 {
                    y.execute("ROLLBACK", &[]).unwrap();
                } else {
                    y.execute("COMMIT", &[]).unwrap();
                    model = after;
                }
            }
            // ~40% inserts, half through the prepared handle with named
            // parameters.
            0..=3 => {
                let cat = random_cat(&mut rng);
                let score = random_score(&mut rng);
                let note = Value::Text(format!("n{}", rng.gen_range(0u32..30)));
                let title = match rng.gen_range(0u32..8) {
                    0 => Value::Null,
                    _ => {
                        next_title += 1;
                        Value::Text(format!("t{next_title}"))
                    }
                };
                let rs = if rng.gen_range(0u32..2) == 0 {
                    prep_insert
                        .execute_named(&[
                            (":cat", cat.clone()),
                            (":score", score.clone()),
                            (":note", note.clone()),
                            (":title", title.clone()),
                        ])
                        .unwrap()
                } else {
                    y.execute(
                        "INSERT INTO items (cat, score, note, title) VALUES (?, ?, ?, ?)",
                        &[cat.clone(), score.clone(), note.clone(), title.clone()],
                    )
                    .unwrap()
                };
                let id = rs.last_rowid.unwrap();
                assert_eq!(id, next_id, "step {step}: rowid allocation diverged");
                model.push(ModelRow {
                    id,
                    cat,
                    // Stored values are coerced to the declared column type.
                    score: score.coerce(yesquel::sql::ColumnType::Integer),
                    note,
                    title,
                });
                next_id += 1;
            }
            // ~20% updates through a random access path.
            4 | 5 => {
                let pred = random_pred(&mut rng, next_id);
                let bump = rng.gen_range(1i64..5);
                let (where_sql, mut params) = pred.sql();
                params.insert(0, Value::Int(bump));
                let rs = y
                    .execute(
                        &format!("UPDATE items SET score = score + ?{where_sql}"),
                        &params,
                    )
                    .unwrap();
                let mut affected = 0;
                for r in model.iter_mut().filter(|r| pred.eval(r)) {
                    r.score = match &r.score {
                        Value::Int(s) => Value::Int(s + bump),
                        Value::Real(s) => Value::Real(s + bump as f64),
                        Value::Null => Value::Null,
                        other => other.clone(),
                    };
                    affected += 1;
                }
                assert_eq!(rs.rows_affected, affected, "step {step}: UPDATE count");
            }
            // ~10% deletes.
            6 => {
                let pred = random_pred(&mut rng, next_id);
                let (where_sql, params) = pred.sql();
                let rs = y
                    .execute(&format!("DELETE FROM items{where_sql}"), &params)
                    .unwrap();
                let before = model.len();
                model.retain(|r| !pred.eval(r));
                assert_eq!(
                    rs.rows_affected,
                    (before - model.len()) as u64,
                    "step {step}: DELETE count"
                );
            }
            // ~10% aggregate queries (global, grouped, and the one-row
            // MIN/MAX plans), checked value-exactly against the model.
            7 => {
                let pred = random_pred(&mut rng, next_id);
                let (where_sql, params) = pred.sql();
                let matching: Vec<&ModelRow> = model.iter().filter(|r| pred.eval(r)).collect();
                match rng.gen_range(0u32..3) {
                    // Global aggregates.
                    0 => {
                        let got = y
                            .execute(
                                &format!("SELECT {AGG_SELECT} FROM items{where_sql}"),
                                &params,
                            )
                            .unwrap();
                        let scores: Vec<&Value> = matching.iter().map(|r| &r.score).collect();
                        assert_eq!(
                            got.rows,
                            vec![model_aggs(&scores)],
                            "step {step}: aggregate {pred:?}"
                        );
                    }
                    // GROUP BY cat (streamed off the (cat, score) index when
                    // the access path allows, hashed otherwise).
                    1 => {
                        let got = y
                            .execute(
                                &format!(
                                    "SELECT cat, {AGG_SELECT} FROM items{where_sql} GROUP BY cat"
                                ),
                                &params,
                            )
                            .unwrap();
                        let mut groups: Vec<(&Value, Vec<&Value>)> = Vec::new();
                        for r in &matching {
                            match groups
                                .iter_mut()
                                .find(|(k, _)| k.sort_cmp(&r.cat) == Ordering::Equal)
                            {
                                Some((_, scores)) => scores.push(&r.score),
                                None => groups.push((&r.cat, vec![&r.score])),
                            }
                        }
                        let expected: Vec<Vec<Value>> = groups
                            .into_iter()
                            .map(|(k, scores)| {
                                let mut row = vec![k.clone()];
                                row.extend(model_aggs(&scores));
                                row
                            })
                            .collect();
                        assert_eq!(
                            canon(&got.rows),
                            canon(&expected),
                            "step {step}: group {pred:?}"
                        );
                    }
                    // Lone MIN/MAX — the equality-prefix form compiles to a
                    // one-row bounded read (first entry / reverse seek),
                    // alternating between the prepared handles and the text
                    // path.
                    _ => {
                        let cat = random_cat(&mut rng);
                        let func = if rng.gen_range(0u32..2) == 0 {
                            "MIN"
                        } else {
                            "MAX"
                        };
                        let got = if rng.gen_range(0u32..2) == 0 {
                            let prep = if func == "MIN" { &prep_min } else { &prep_max };
                            prep.execute(std::slice::from_ref(&cat)).unwrap()
                        } else {
                            y.execute(
                                &format!("SELECT {func}(score) FROM items WHERE cat = ?"),
                                std::slice::from_ref(&cat),
                            )
                            .unwrap()
                        };
                        let scores: Vec<&Value> = model
                            .iter()
                            .filter(|r| cmp_true(&r.cat, "=", &cat))
                            .map(|r| &r.score)
                            .collect();
                        let aggs = model_aggs(&scores);
                        let expected = if func == "MIN" { &aggs[3] } else { &aggs[4] };
                        assert_eq!(
                            got.rows,
                            vec![vec![expected.clone()]],
                            "step {step}: {func}(score) cat={cat:?}"
                        );
                    }
                }
            }
            // ~20% queries (and the explicit transactions' share while the
            // table has fewer than two rows).
            _ => {
                let pred = random_pred(&mut rng, next_id);
                let (where_sql, params) = pred.sql();
                let mut expected: Vec<Vec<Value>> = model
                    .iter()
                    .filter(|r| pred.eval(r))
                    .map(|r| {
                        vec![
                            Value::Int(r.id),
                            r.cat.clone(),
                            r.score.clone(),
                            r.note.clone(),
                        ]
                    })
                    .collect();
                if rng.gen_range(0u32..2) == 0 {
                    // Totally ordered query: compare rows in order, with
                    // LIMIT/OFFSET applied to both sides.
                    let limit = rng.gen_range(1u64..15);
                    let offset = rng.gen_range(0u64..5);
                    let got = y
                        .execute(
                            &format!(
                                "SELECT id, cat, score, note FROM items{where_sql} \
                                 ORDER BY score DESC, id LIMIT {limit} OFFSET {offset}"
                            ),
                            &params,
                        )
                        .unwrap();
                    expected
                        .sort_by(|a, b| b[2].sort_cmp(&a[2]).then_with(|| a[0].sort_cmp(&b[0])));
                    let expected: Vec<Vec<Value>> = expected
                        .into_iter()
                        .skip(offset as usize)
                        .take(limit as usize)
                        .collect();
                    assert_eq!(got.rows, expected, "step {step}: ordered {pred:?}");
                } else {
                    // Point predicates alternate between the prepared
                    // handle (re-executed with a fresh id) and the text
                    // path; everything else goes through the text path.
                    let got = match &pred {
                        Pred::IdEq(id) if rng.gen_range(0u32..2) == 0 => {
                            prep_point.execute(params![*id]).unwrap()
                        }
                        _ => y
                            .execute(
                                &format!("SELECT id, cat, score, note FROM items{where_sql}"),
                                &params,
                            )
                            .unwrap(),
                    };
                    assert_eq!(
                        canon(&got.rows),
                        canon(&expected),
                        "step {step}: unordered {pred:?}"
                    );
                }
            }
        }
    }

    println!("seed {seed}: duplicate INSERTs (autocommit, in BEGIN) = {duplicates:?}");
    assert!(duplicates.iter().all(|&n| n >= 5), "{duplicates:?}");

    // Final invariant: the secondary index agrees with the base table for
    // every category value it can hold — and because `id` is the rowid and
    // `cat` is indexed, these queries are covering: across the whole loop
    // the executor must never fetch back into the primary tree.
    let stats = y.db().stats();
    let fetchbacks_before = stats.counter("sql.fetchbacks").get();
    for cat in [
        Value::Text("cat-0".into()),
        Value::Text("cat-1".into()),
        Value::Text("cat-2".into()),
        Value::Text("cat-3".into()),
    ] {
        let via_index = y
            .execute(
                "SELECT id FROM items WHERE cat = ?",
                std::slice::from_ref(&cat),
            )
            .unwrap();
        let expected: Vec<Vec<Value>> = model
            .iter()
            .filter(|r| cmp_true(&r.cat, "=", &cat))
            .map(|r| vec![Value::Int(r.id)])
            .collect();
        assert_eq!(canon(&via_index.rows), canon(&expected));
    }
    assert_eq!(
        stats.counter("sql.fetchbacks").get(),
        fetchbacks_before,
        "covering index scans must not fetch back"
    );
}
