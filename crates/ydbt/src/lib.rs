//! YDBT: Yesquel's distributed balanced tree.
//!
//! The storage engine of Yesquel is a balanced search tree whose nodes are
//! spread over the storage servers (Figure 1, box 2 of the paper).  Every
//! SQL table and every secondary index is one such tree.  The tree is built
//! **above** the distributed transactions of the key-value store, so every
//! structural change — splitting a node, moving cells, growing the tree —
//! is simply a transaction; this is the architectural choice the paper
//! contrasts with systems such as F1/Spanner, where the tree-like storage
//! sits *below* the transaction layer.
//!
//! The techniques that make the DBT fast and scalable (and which the
//! ablation experiments in `yesquel-bench` isolate) are:
//!
//! * **client caching of inner nodes** — warm point lookups fetch only the
//!   leaf, so the root's server is not a bottleneck;
//! * **back-down searches** — stale cache entries are detected through
//!   per-node fence intervals and recovered from locally, instead of
//!   restarting at the root;
//! * **delegated splits** — ordinary operations never pay split latency;
//!   a background task performs splits as separate transactions;
//! * **load splits and hot-node placement** — write-heavy hot nodes are
//!   split and the new node is placed on the least loaded server;
//! * **hot-node replica sets** — read-heavy hot nodes are replicated across
//!   servers (read-any/write-all), spreading read load without multiplying
//!   write fan-out on cold nodes.

pub mod alloc;
pub mod cache;
pub mod engine;
pub mod iter;
pub mod load;
pub use yesquel_common::node;
pub mod replica;
pub mod split;
pub mod tree;

pub use alloc::OidAllocator;
pub use cache::NodeCache;
pub use engine::DbtEngine;
pub use iter::{DbtCursor, RawCursor};
pub use load::{HotStats, LoadTracker};
pub use node::{Bound, InnerView, LeafView, NodeView};
pub use replica::{PlacementTracker, ReplicaMap};
pub use split::{SplitReason, SplitRequest};
pub use tree::{prefix_successor, Dbt};
