//! Simulated cluster and RPC substrate for the Yesquel reproduction.
//!
//! The original Yesquel deployment runs storage servers on separate machines
//! and clients talk to them over a datacenter network.  This crate provides
//! the equivalent substrate inside one process:
//!
//! * a [`Service`] trait implemented by a storage-server "process" (the
//!   transactional key-value server in `yesquel-kv`),
//! * one way to issue a call and wait for it: [`Transport::submit`] returns
//!   a [`Completion`] (defined in `yesquel-common`, where the write-ahead
//!   log answers its durability waits with the same type), which the caller
//!   waits for or leaves a continuation on.  A round of calls is submitted together and then waited for, so
//!   its waits overlap on the caller's thread; a call nobody waits for
//!   finishes wherever its answer arrives,
//! * [`Transport`] implementations that deliver requests to a server —
//!   either by direct function call ([`DirectTransport`], lowest overhead,
//!   used for unit tests and throughput experiments; its completions come
//!   back resolved unless the server answers later) or through per-server
//!   worker threads fed by bounded channels ([`ThreadedTransport`], which
//!   models per-server CPU capacity and request queueing).  Each takes the
//!   deployment's [`NetConfig`](yesquel_common::NetConfig) and charges every
//!   round trip its latency and bandwidth cost, either merely accounted in
//!   the `net.charged_us` counter or actually slept (for closed-loop latency
//!   experiments): a completion is due a round trip after its server
//!   answered, and waiting for it sleeps until then,
//! * [`FaultyTransport`], a seeded fault injector decorating `submit`, and
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
pub mod transport;

pub use cluster::{Cluster, ClusterBuilder};
pub use fault::{FaultPlan, FaultyTransport};
pub use transport::{DirectTransport, Service, ThreadedTransport, Transport, TransportKind};
pub use yesquel_common::completion::{Completion, Resolver};
