//! Yesquel's SQL layer: tokenizer, parser, expression evaluation, typed
//! rows, the catalog mapping tables and indexes onto distributed balanced
//! trees, the query processor ([`plan`] + [`exec`]) compiling statements
//! into DBT operations, and the [`session`] an application talks to —
//! statement cache, prepared statements, explicit transactions, autocommit.
//!
//! The layering follows Figure 1 of the paper: the SQL layer compiles
//! statements into operations on DBTs (`yesquel-ydbt`), which in turn run
//! inside the distributed transactions of the key-value store
//! (`yesquel-kv`).  Every table is one DBT keyed by rowid; every secondary
//! index is another DBT keyed by the order-preserving encoding of the
//! indexed columns (see [`row`]).  The planner binds a parsed statement
//! against the catalog into one of a small set of physical plan shapes
//! (point lookup, bounded index/rowid range scan, full scan); the executor
//! runs the plan inside a caller-supplied transaction, maintaining every
//! secondary index on DML.

pub mod ast;
pub mod catalog;
pub mod exec;
pub mod expr;
pub mod params;
pub mod parser;
pub mod plan;
pub mod row;
pub mod session;
pub mod token;
pub mod typed;
pub mod types;

pub use ast::Statement;
pub use catalog::{Catalog, SqlCounters};
pub use exec::{
    execute, execute_and_commit, execute_plan, open_stream, ExecCtx, ResultRows, ResultSet,
    RowSource, RowStream,
};
pub use params::ParamInfo;
pub use parser::{parse, parse_script, parse_with_params};
pub use plan::{plan_statement, AccessPath, AggFunc, AggStrategy, Plan};
pub use session::{Prepared, Rows, Session};
pub use token::tokenize;
pub use typed::{FromValue, Row, ToValue};
pub use types::{ColumnType, Value};
