//! Simulated cluster and RPC substrate for the Yesquel reproduction.
//!
//! The original Yesquel deployment runs storage servers on separate machines
//! and clients talk to them over a datacenter network.  This crate provides
//! the equivalent substrate inside one process:
//!
//! * a [`Service`] trait implemented by a storage-server "process" (the
//!   transactional key-value server in `yesquel-kv`),
//! * [`Transport`] implementations that deliver requests to a server —
//!   either by direct function call ([`DirectTransport`], lowest overhead,
//!   used for unit tests and throughput experiments) or through per-server
//!   worker threads fed by bounded channels ([`ThreadedTransport`], which
//!   models per-server CPU capacity and request queueing),
//! * a [`NetworkModel`] that charges each round trip a configurable latency
//!   and bandwidth cost, either merely accounted in the `net.charged_us`
//!   counter or actually slept (for closed-loop latency experiments), and
//! * per-server request counters (`rpc.server.<i>.requests`) used by the
//!   load-balancing experiments.
//!
//! Substitution note: replacing real machines with in-process shards
//! preserves everything the paper's evaluation measures about the
//! *algorithms* — RPC counts per operation, contention on hot nodes, load
//! imbalance across servers, scalability with the number of servers — while
//! absolute wall-clock numbers necessarily differ.

pub mod cluster;
pub mod fault;
pub mod netmodel;
pub mod transport;

pub use cluster::{Cluster, ClusterBuilder};
pub use fault::{FaultPlan, FaultyTransport};
pub use netmodel::NetworkModel;
pub use transport::{DirectTransport, Service, ThreadedTransport, Transport, TransportKind};
