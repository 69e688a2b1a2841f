//! The closed-loop clients: prepared statements, the per-client model of
//! what was acknowledged, and the phase runner.
//!
//! A client is a Web application thread: it waits for each reply before it
//! issues the next statement.  An *op* is one autocommit prepared statement
//! or one explicit `BEGIN … COMMIT` block.  Parameters are generated before
//! the clock starts; a latency sample covers the call into the library and
//! nothing of the harness except the result check.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use yesquel::sql::Statement;
use yesquel::{Error, Prepared, Result, ResultSet, Session, Value, Yesquel};

use crate::deploy::{Workload, CLIENTS, GC_EVERY_WRITES, INSERT_SQL};
use crate::gen::{self, Kind, Op, OpGen};

/// The application retries a conflicted explicit transaction this often
/// (autocommit statements are retried by the client library itself).
const EDIT_ATTEMPTS: usize = 8;

/// One client's prepared handles, created once per phase.
pub struct Stmts<'s> {
    session: &'s Session,
    point: Prepared<'s>,
    title: Prepared<'s>,
    scan: Prepared<'s>,
    insert: Prepared<'s>,
    update: Prepared<'s>,
    update_indexed: Prepared<'s>,
    delete: Prepared<'s>,
    edit_read: Prepared<'s>,
}

const POINT_SQL: &str = "SELECT id, body, views FROM pages WHERE id = ?";
const TITLE_SQL: &str = "SELECT id, body, views FROM pages WHERE title = ?";
const SCAN_SQL: &str = "SELECT id, views FROM pages WHERE grp = ? ORDER BY views LIMIT 16";

impl<'s> Stmts<'s> {
    pub fn prepare(session: &'s Session) -> Result<Stmts<'s>> {
        Ok(Stmts {
            session,
            point: session.prepare(POINT_SQL)?,
            title: session.prepare(TITLE_SQL)?,
            scan: session.prepare(SCAN_SQL)?,
            insert: session.prepare(INSERT_SQL)?,
            update: session.prepare("UPDATE pages SET body = ? WHERE id = ?")?,
            update_indexed: session.prepare("UPDATE pages SET views = views + 1 WHERE id = ?")?,
            delete: session.prepare("DELETE FROM pages WHERE id = ?")?,
            edit_read: session.prepare("SELECT body FROM pages WHERE id = ?")?,
        })
    }

    pub fn point(&self) -> &Prepared<'s> {
        &self.point
    }

    pub fn title(&self) -> &Prepared<'s> {
        &self.title
    }
}

/// The parameters of one op, generated before its latency clock starts.
pub struct Bound {
    op: Op,
    params: Vec<Value>,
}

pub fn bind(op: Op, groups: u64) -> Bound {
    let id = Value::Int(op.id);
    let params = match op.kind {
        Kind::PointSelect | Kind::UpdateIndexed | Kind::Delete => vec![id],
        Kind::TitleSelect => vec![Value::Text(gen::title_of(op.id))],
        Kind::Scan16 => vec![Value::Int(op.grp)],
        Kind::Insert => vec![
            id,
            Value::Text(gen::title_of(op.id)),
            Value::Text(gen::body_of(op.id, 0)),
            Value::Int(gen::views_of(op.id)),
            Value::Int(gen::grp_of(op.id, groups)),
        ],
        Kind::Update | Kind::EditTxn => vec![Value::Text(gen::body_of(op.id, op.version)), id],
    };
    Bound { op, params }
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Acknowledged, and the reply passed its check.
    Ok { rows_out: u64 },
    /// Acknowledged with a reply that cannot be right.
    Wrong,
    /// An error after the library's (or, for `edit_txn`, the application's)
    /// retries; `indeterminate` when the commit may or may not have applied.
    Failed { indeterminate: bool },
}

fn one_row_with_id(rs: &ResultSet, id: i64) -> bool {
    rs.rows.len() == 1 && rs.rows[0].first() == Some(&Value::Int(id))
}

/// A `scan16` reply: at most 16 rows, ascending by `views`.
fn ordered_page(rs: &ResultSet) -> bool {
    let views = |r: &Vec<Value>| match r.get(1) {
        Some(Value::Int(v)) => *v,
        _ => i64::MIN,
    };
    rs.rows.len() <= 16 && rs.rows.windows(2).all(|w| views(&w[0]) <= views(&w[1]))
}

/// The wiki example's read-modify-write.  Transaction control goes in as
/// parsed statements: `execute("BEGIN")` would parse its text on every call
/// (transaction control is never cached), which is not what is measured.
fn edit_txn(s: &Stmts<'_>, b: &Bound) -> Result<bool> {
    s.session.execute_statement(&Statement::Begin, &[])?;
    let body = (|| {
        let read = s.edit_read.execute(&b.params[1..])?;
        let written = s.update.execute(&b.params)?;
        Ok(read.rows.len() == 1 && written.rows_affected == 1)
    })();
    match body {
        Ok(found) => s
            .session
            .execute_statement(&Statement::Commit, &[])
            .map(|_| found),
        Err(e) => {
            // A failed statement already aborted the transaction.
            if s.session.in_transaction() {
                let _ = s.session.execute_statement(&Statement::Rollback, &[]);
            }
            Err(e)
        }
    }
}

/// Executes one bound op and checks its reply.
pub fn execute(s: &Stmts<'_>, b: &Bound) -> Outcome {
    let id = b.op.id;
    let checked = |r: Result<ResultSet>, good: &dyn Fn(&ResultSet) -> bool, rows_out: u64| match r {
        Ok(rs) if good(&rs) => Outcome::Ok {
            rows_out: rows_out.max(rs.rows.len() as u64),
        },
        Ok(_) => Outcome::Wrong,
        Err(e) => Outcome::Failed {
            indeterminate: matches!(e, Error::Indeterminate(_)),
        },
    };
    let one_affected = |rs: &ResultSet| rs.rows_affected == 1;
    match b.op.kind {
        Kind::PointSelect => checked(s.point.execute(&b.params), &|rs| one_row_with_id(rs, id), 0),
        Kind::TitleSelect => checked(s.title.execute(&b.params), &|rs| one_row_with_id(rs, id), 0),
        Kind::Scan16 => checked(s.scan.execute(&b.params), &ordered_page, 0),
        Kind::Insert => checked(s.insert.execute(&b.params), &one_affected, 1),
        Kind::Update => checked(s.update.execute(&b.params), &one_affected, 1),
        Kind::UpdateIndexed => checked(s.update_indexed.execute(&b.params), &one_affected, 1),
        Kind::Delete => checked(s.delete.execute(&b.params), &one_affected, 1),
        Kind::EditTxn => {
            let mut last = Outcome::Failed {
                indeterminate: false,
            };
            for _ in 0..EDIT_ATTEMPTS {
                match edit_txn(s, b) {
                    Ok(true) => return Outcome::Ok { rows_out: 2 },
                    Ok(false) => return Outcome::Wrong,
                    Err(e) if e.is_retryable() => {}
                    Err(e) => {
                        last = Outcome::Failed {
                            indeterminate: matches!(e, Error::Indeterminate(_)),
                        };
                        break;
                    }
                }
            }
            last
        }
    }
}

/// What a client knows to be true of the rows it wrote: the acknowledged
/// state, which verification compares the database against.
#[derive(Default)]
pub struct Model {
    /// Last acknowledged body version per updated row.
    pub body_version: HashMap<i64, u64>,
    /// Acknowledged `views + 1` bumps per row.
    pub view_bumps: HashMap<i64, i64>,
    /// Acknowledged deletes.
    pub deleted: Vec<i64>,
    /// Rows whose state is unknown because a write to them failed.
    pub tainted: HashSet<i64>,
}

/// A harness span: one op of the traced phase, or one call of a ladder rung.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub client: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// One client thread's state, kept across the phases of a run.
pub struct Client {
    pub number: usize,
    pub gen: OpGen,
    pub model: Model,
    writes_since_gc: u64,
}

impl Client {
    pub fn new(seed: u64, number: usize, w: &Workload) -> Client {
        Client {
            number,
            gen: OpGen::new(seed, number, CLIENTS, w.rows, &w.mix),
            model: Model::default(),
            writes_since_gc: 0,
        }
    }

    /// Folds an op's outcome into the generator and the model.
    pub fn record(&mut self, op: &Op, outcome: Outcome) {
        if op.kind.is_read() {
            return;
        }
        match outcome {
            Outcome::Ok { .. } => match op.kind {
                Kind::Insert => self.gen.acknowledged_insert(op.id),
                Kind::Update | Kind::EditTxn => {
                    self.model.body_version.insert(op.id, op.version);
                }
                Kind::UpdateIndexed => *self.model.view_bumps.entry(op.id).or_insert(0) += 1,
                Kind::Delete => self.model.deleted.push(op.id),
                _ => {}
            },
            Outcome::Wrong | Outcome::Failed { .. } => {
                self.model.tainted.insert(op.id);
            }
        }
    }
}

/// What one client measured in one phase.
#[derive(Default)]
pub struct Samples {
    /// Latency of every acknowledged op, nanoseconds, by kind.
    pub latency_ns: [Vec<u32>; 8],
    pub failed: [u64; 8],
    pub wrong: u64,
    pub indeterminate: u64,
    /// Rows returned by selects plus rows changed by writes.
    pub rows_out: u64,
    /// Payload bytes of acknowledged writes.
    pub user_bytes: u64,
    pub gc_calls: u64,
    pub gc_ns: u64,
    pub spans: Vec<Span>,
}

impl Samples {
    pub fn succeeded(&self) -> u64 {
        self.latency_ns.iter().map(|v| v.len() as u64).sum()
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn writes_succeeded(&self) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| !k.is_read())
            .map(|k| self.latency_ns[k.index()].len() as u64)
            .sum()
    }

    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.latency_ns.iter_mut().zip(other.latency_ns) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.failed.iter_mut().zip(other.failed) {
            *mine += theirs;
        }
        self.wrong += other.wrong;
        self.indeterminate += other.indeterminate;
        self.rows_out += other.rows_out;
        self.user_bytes += other.user_bytes;
        self.gc_calls += other.gc_calls;
        self.gc_ns += other.gc_ns;
        self.spans.extend(other.spans);
    }
}

/// Payload bytes a user hands over with one write.
fn user_bytes(op: &Op) -> u64 {
    match op.kind {
        Kind::Insert => gen::row_user_bytes(op.id),
        Kind::Update | Kind::EditTxn => gen::BODY_LEN as u64,
        Kind::UpdateIndexed | Kind::Delete => 8,
        _ => 0,
    }
}

/// Runs one op of `client` and accounts for it: latency sample or failure,
/// model, optional span, and the garbage-collection duty of client 0.
pub fn run_op(
    y: &Yesquel,
    s: &Stmts<'_>,
    client: &mut Client,
    op: Op,
    out: &mut Samples,
    epoch: Option<Instant>,
) {
    let bound = bind(op, client.gen.groups());
    let started = Instant::now();
    let outcome = execute(s, &bound);
    let elapsed = started.elapsed();
    let op = &bound.op;
    match outcome {
        Outcome::Ok { rows_out } => {
            let ns = u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX);
            out.latency_ns[op.kind.index()].push(ns);
            out.rows_out += rows_out;
            out.user_bytes += user_bytes(op);
        }
        Outcome::Wrong => out.wrong += 1,
        Outcome::Failed { indeterminate } => {
            out.failed[op.kind.index()] += 1;
            out.indeterminate += indeterminate as u64;
        }
    }
    client.record(op, outcome);
    if let Some(epoch) = epoch {
        let start_ns = (started - epoch).as_nanos() as u64;
        out.spans.push(Span {
            id: ((client.number as u64) << 48) | (out.spans.len() as u64 + 1),
            parent: 0,
            name: op.kind.name(),
            client: client.number,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
            ok: matches!(outcome, Outcome::Ok { .. }),
        });
    }
    if client.number == 0 && !op.kind.is_read() && matches!(outcome, Outcome::Ok { .. }) {
        client.writes_since_gc += 1;
        if client.writes_since_gc >= GC_EVERY_WRITES {
            client.writes_since_gc = 0;
            let gc_started = Instant::now();
            // A GC round only trims versions; its failure loses nothing.
            let _ = y.db().run_gc();
            out.gc_calls += 1;
            out.gc_ns += gc_started.elapsed().as_nanos() as u64;
        }
    }
}

/// The result of one phase: merged samples and the wall time they took.
#[derive(Default)]
pub struct Phase {
    pub samples: Samples,
    pub seconds: f64,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.samples.succeeded() as f64 / self.seconds.max(1e-9)
    }

    /// Appends a phase that ran after this one.
    pub fn absorb(&mut self, later: Phase) {
        self.samples.absorb(later.samples);
        self.seconds += later.seconds;
    }
}

/// Runs the mix from the given clients for `duration`, each on its own
/// thread with its own session and prepared handles.  `before_start` runs on
/// the calling thread after every client has prepared and before any issues
/// an op (the traced phase resets the counters there, so preparing is not
/// counted).  With `spans`, every op leaves a span.
pub fn run_phase(
    y: &Yesquel,
    clients: &mut [Client],
    duration: Duration,
    spans: bool,
    before_start: impl FnOnce(),
) -> Result<Phase> {
    let sessions = (0..clients.len())
        .map(|_| y.new_session())
        .collect::<Result<Vec<Session>>>()?;
    let prepared = Barrier::new(clients.len() + 1);
    let go = Barrier::new(clients.len() + 1);
    let epoch = Instant::now();
    let (results, seconds) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&sessions)
            .map(|(client, session)| {
                let (prepared, go) = (&prepared, &go);
                scope.spawn(move || -> Result<Samples> {
                    // Both barriers are passed even if preparing failed, or
                    // the other threads would wait for ever.
                    let stmts = Stmts::prepare(session);
                    prepared.wait();
                    go.wait();
                    let stmts = stmts?;
                    let mut out = Samples::default();
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        let op = client.gen.next_op();
                        run_op(y, &stmts, client, op, &mut out, spans.then_some(epoch));
                    }
                    Ok(out)
                })
            })
            .collect();
        prepared.wait();
        before_start();
        let started = Instant::now();
        go.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (results, started.elapsed().as_secs_f64())
    });
    let mut samples = Samples::default();
    for r in results {
        samples.absorb(r?);
    }
    Ok(Phase { samples, seconds })
}
