//! Shared substrate for the Yesquel reproduction.
//!
//! This crate contains the types that every layer of the system speaks:
//! identifiers for servers, trees and objects; error types; the
//! order-preserving key encodings used by the distributed balanced tree and
//! the SQL record format; the tree-node page codec, which clients and
//! storage servers both edit pages with; configuration knobs for every layer; statistics
//! primitives (counters and latency histograms) used by the benchmark
//! harness; and the random-distribution generators (Zipfian, uniform) used by
//! the workloads in the evaluation.
//!
//! Nothing in this crate knows about networking, transactions or SQL — it
//! is the leaf of the dependency graph.

/// Re-export of the observability crate, so every layer above `common`
/// reaches spans, trace counters and the clock through one path
/// (`yesquel_common::obs::…`) without its own dependency edge.
pub use yesquel_obs as obs;

pub mod completion;
pub mod config;
pub mod encoding;
pub mod error;
pub mod ids;
pub mod node;
pub mod rand_util;
pub mod stats;
pub mod tempdir;
pub mod timeutil;

pub use completion::{Completion, Resolver};
pub use config::{DbtConfig, KvConfig, NetConfig, WalFsyncPolicy, YesquelConfig};
pub use error::{Error, Result};
pub use ids::{ObjectId, Oid, ServerId, Timestamp, TreeId, TxnId};
