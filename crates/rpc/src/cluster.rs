//! A cluster of storage servers behind a single transport handle.
//!
//! [`Cluster`] owns the server objects, the chosen [`Transport`] (which
//! charges the network cost) and the [`StatsRegistry`], and hands out cheap
//! clones of the transport handle to any number of clients.  It is the in-process
//! equivalent of "deploy N storage servers and give every client their
//! addresses".

use std::sync::Arc;

use yesquel_common::stats::StatsRegistry;
use yesquel_common::{NetConfig, Result, ServerId};

use crate::transport::{DirectTransport, Service, ThreadedTransport, Transport, TransportKind};

/// Builder for a [`Cluster`].
pub struct ClusterBuilder<S: Service> {
    servers: Vec<Arc<S>>,
    kind: TransportKind,
    net: NetConfig,
    registry: StatsRegistry,
}

impl<S: Service> ClusterBuilder<S> {
    /// Starts building a cluster from already-constructed server objects.
    pub fn new(servers: Vec<Arc<S>>) -> Self {
        ClusterBuilder {
            servers,
            kind: TransportKind::Direct,
            net: NetConfig::default(),
            registry: StatsRegistry::new(),
        }
    }

    /// Chooses the transport (direct calls or per-server worker threads).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the network cost model.
    pub fn network(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Uses an existing statistics registry (so several layers share one).
    pub fn stats(mut self, registry: StatsRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Builds the cluster.  Fails if a threaded transport cannot start its
    /// workers.
    pub fn build(self) -> Result<Cluster<S>> {
        let transport: Arc<dyn Transport<S>> = match self.kind {
            TransportKind::Direct => Arc::new(DirectTransport::new(
                self.servers.clone(),
                self.net,
                self.registry.clone(),
            )),
            TransportKind::Threaded { workers_per_server } => Arc::new(ThreadedTransport::new(
                self.servers.clone(),
                workers_per_server,
                self.net,
                self.registry.clone(),
            )?),
        };
        Ok(Cluster {
            servers: self.servers,
            transport,
            registry: self.registry,
        })
    }
}

/// A running cluster of `S` servers plus the transport clients use to reach
/// them.
pub struct Cluster<S: Service> {
    servers: Vec<Arc<S>>,
    transport: Arc<dyn Transport<S>>,
    registry: StatsRegistry,
}

impl<S: Service> Cluster<S> {
    /// Number of storage servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// The transport handle clients use to issue RPCs.
    pub fn transport(&self) -> Arc<dyn Transport<S>> {
        Arc::clone(&self.transport)
    }

    /// Direct access to a server object, for white-box assertions in tests
    /// and for administrative operations (e.g. garbage-collection ticks)
    /// that the real system would perform inside the server process.
    pub fn server(&self, id: ServerId) -> Option<&Arc<S>> {
        self.servers.get(id)
    }

    /// All server objects.
    pub fn servers(&self) -> &[Arc<S>] {
        &self.servers
    }

    /// The statistics registry shared by the cluster's transports.
    pub fn stats(&self) -> &StatsRegistry {
        &self.registry
    }

    /// Convenience wrapper for issuing one RPC.
    pub fn call(&self, server: ServerId, req: S::Request) -> Result<S::Response> {
        self.transport.call(server, req)
    }
}

impl<S: Service> Clone for Cluster<S> {
    fn clone(&self) -> Self {
        Cluster {
            servers: self.servers.clone(),
            transport: Arc::clone(&self.transport),
            registry: self.registry.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Completion;

    struct Doubler;
    impl Service for Doubler {
        type Request = u64;
        type Response = u64;
        fn call(&self, req: u64) -> Completion<u64> {
            Completion::ready(Ok(req * 2))
        }
    }

    #[test]
    fn builder_direct() {
        let servers = (0..4).map(|_| Arc::new(Doubler)).collect();
        let cluster = ClusterBuilder::new(servers).build().unwrap();
        assert_eq!(cluster.num_servers(), 4);
        assert_eq!(cluster.call(3, 21).unwrap(), 42);
        assert!(cluster.call(4, 21).is_err());
        assert!(cluster.server(0).is_some());
        assert!(cluster.server(9).is_none());
    }

    #[test]
    fn builder_threaded_with_network() {
        let servers = (0..2).map(|_| Arc::new(Doubler)).collect();
        let cluster = ClusterBuilder::new(servers)
            .transport(TransportKind::Threaded {
                workers_per_server: 2,
            })
            .network(NetConfig {
                one_way_latency_us: 10,
                bytes_per_us: 0,
                sleep_latency: false,
                service_time_us: 0,
            })
            .build()
            .unwrap();
        assert_eq!(cluster.call(1, 5).unwrap(), 10);
        assert_eq!(cluster.stats().counter("net.charged_us").get(), 20);
        assert_eq!(cluster.stats().counter("rpc.calls").get(), 1);
    }

    #[test]
    fn cluster_clone_shares_servers() {
        let servers = (0..1).map(|_| Arc::new(Doubler)).collect();
        let cluster = ClusterBuilder::new(servers).build().unwrap();
        let c2 = cluster.clone();
        assert_eq!(c2.call(0, 2).unwrap(), 4);
        assert_eq!(cluster.stats().counter("rpc.calls").get(), 1);
    }
}
