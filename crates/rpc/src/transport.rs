//! RPC transports: how a client request reaches a storage server.
//!
//! A transport has one way to issue a call: [`Transport::submit`] hands the
//! request over and returns its [`Completion`]; [`Transport::call`] is
//! submit, then wait.  [`DirectTransport`] runs the server on the caller's
//! thread, so its completions come back resolved unless the server itself
//! answers later (a prepare waiting for its log flush); [`ThreadedTransport`]
//! queues the request to a server worker, which resolves the completion.
//!
//! The simulated cluster runs inside one process, so the real network is
//! absent.  To keep the *shape* of the paper's latency results, both
//! transports charge every round trip the cost their [`NetConfig`] gives it:
//! per message, a fixed one-way latency plus a bandwidth term proportional
//! to its size.  The cost is always added to the `net.charged_us` counter
//! and, if `sleep_latency` is set, dates the reply: its completion is due
//! that far after the server answered — or after the reply the server
//! answered on was due, when it asked a peer first — and whoever waits for
//! it sleeps until then.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use yesquel_common::obs::clock;
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::{Error, NetConfig, Result, ServerId};

use crate::{Completion, Resolver};

/// A storage-server "process": receives a request, answers it.
///
/// Implementations must be callable concurrently from many client threads;
/// internal synchronization is the server's responsibility (exactly as a
/// real multi-threaded RPC server would).
pub trait Service: Send + Sync + 'static {
    /// Request message type.
    type Request: Send + 'static;
    /// Response message type.
    type Response: Send + 'static;

    /// Handles one request.  The response may come later: the server then
    /// returns a pending completion and resolves it from whatever thread
    /// finishes the work, leaving the caller's thread free.
    fn call(&self, req: Self::Request) -> Completion<Self::Response>;

    /// Approximate wire size of a request, for the bandwidth model.
    fn request_wire_size(_req: &Self::Request) -> usize {
        64
    }

    /// Approximate wire size of a response, for the bandwidth model.
    fn response_wire_size(_resp: &Self::Response) -> usize {
        64
    }
}

/// Which transport a cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Requests are executed by a direct function call on the caller's
    /// thread.  Fastest; models a server with unbounded worker threads.
    #[default]
    Direct,
    /// Requests are queued to a fixed pool of worker threads per server,
    /// modelling bounded per-server CPU capacity and queueing delay.
    Threaded {
        /// Number of worker threads per storage server.
        workers_per_server: usize,
    },
}

/// A connection from clients to every server of the cluster.
pub trait Transport<S: Service>: Send + Sync {
    /// Sends `req` to server `server` and returns the completion its
    /// response arrives on.  Every call counts as one RPC round trip for the
    /// network model.
    fn submit(&self, server: ServerId, req: S::Request) -> Completion<S::Response>;

    /// Sends `req` to server `server` and waits for its response.
    fn call(&self, server: ServerId, req: S::Request) -> Result<S::Response> {
        self.submit(server, req).wait()
    }

    /// Whether a submitted call can finish after `submit` returns — a
    /// server worker answers it, or its reply travels a slept network — so
    /// that calls submitted together overlap.
    fn finishes_after_submit(&self) -> bool;

    /// Number of servers reachable through this transport.
    fn num_servers(&self) -> usize;
}

/// Book-keeping shared by both transports, and the network cost that dates
/// each reply.
///
/// Per-server request counts are registry counters named
/// `rpc.server.<id>.requests`, so code holding only the shared
/// [`StatsRegistry`] (e.g. the load-imbalance experiment) can read them.
struct TransportStats {
    registry: StatsRegistry,
    net: NetConfig,
    // Every handle below is resolved once here: `answered` runs on every
    // RPC, and a by-name lookup per call is a mutex acquisition plus a
    // string allocation.
    calls: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    /// Modelled network cost of every round trip, slept or not.
    charged_us: Arc<Counter>,
    /// Time a request waited in a server worker queue before being picked
    /// up (threaded transport; recorded only while `Obs::timing_on`).
    queue_us: Arc<Histogram>,
    /// Time from the server taking a request to its answer, a log flush it
    /// waits for included (recorded only while `Obs::timing_on`).
    service_us: Arc<Histogram>,
    per_server_requests: Vec<Arc<Counter>>,
}

impl TransportStats {
    fn new(registry: StatsRegistry, net: NetConfig, nservers: usize) -> Self {
        let per_server_requests = (0..nservers)
            .map(|i| registry.counter(&format!("rpc.server.{i}.requests")))
            .collect();
        TransportStats {
            calls: registry.counter("rpc.calls"),
            bytes_sent: registry.counter("rpc.bytes_sent"),
            bytes_received: registry.counter("rpc.bytes_received"),
            charged_us: registry.counter("net.charged_us"),
            queue_us: registry.histogram("rpc.queue_us"),
            service_us: registry.histogram("rpc.service_us"),
            registry,
            net,
            per_server_requests,
        }
    }

    /// Cost in microseconds of sending one message of `bytes` bytes one way.
    fn one_way_cost_us(&self, bytes: usize) -> u64 {
        let bw = (bytes as u64)
            .checked_div(self.net.bytes_per_us)
            .unwrap_or(0);
        self.net.one_way_latency_us + bw
    }

    /// Whether the modelled cost is really slept, so that a reply is due
    /// some time after its server answered.
    fn sleeps(&self) -> bool {
        let net = &self.net;
        net.sleep_latency && (net.one_way_latency_us > 0 || net.bytes_per_us > 0)
    }

    /// Stamps the start of a server's work when timing is on.
    fn started(&self) -> Option<Instant> {
        self.registry.obs().timing_on().then(clock::now)
    }

    /// Accounts one answered call, its network cost included, and returns
    /// when its reply is due, if the round trip is slept: the round trip
    /// from now, or from `inner` if later — the instant the reply the server
    /// answered on is due (a peer's reply it asked for).
    fn answered<S: Service>(
        &self,
        server: ServerId,
        req_bytes: usize,
        resp: &Result<S::Response>,
        started: Option<Instant>,
        inner: Option<Instant>,
    ) -> Option<Instant> {
        if let Some(t0) = started {
            self.service_us.record(clock::elapsed_us(t0));
        }
        let resp_bytes = resp.as_ref().map_or(0, S::response_wire_size);
        self.calls.inc();
        self.bytes_sent.add(req_bytes as u64);
        self.bytes_received.add(resp_bytes as u64);
        if let Some(c) = self.per_server_requests.get(server) {
            c.inc();
        }
        let lat = self.one_way_cost_us(req_bytes) + self.one_way_cost_us(resp_bytes);
        if lat == 0 {
            return None;
        }
        self.charged_us.add(lat);
        self.sleeps().then(|| {
            let now = Instant::now();
            inner.map_or(now, |inner| inner.max(now)) + Duration::from_micros(lat)
        })
    }
}

fn no_server<R: Send + 'static>(server: ServerId) -> Completion<R> {
    Completion::ready(Err(Error::ServerUnavailable(format!("no server {server}"))))
}

/// Transport that executes requests by calling the server object directly on
/// the caller's thread.
pub struct DirectTransport<S: Service> {
    servers: Vec<Arc<S>>,
    stats: Arc<TransportStats>,
}

impl<S: Service> DirectTransport<S> {
    /// Creates a direct transport over the given server objects, charging
    /// each call the network cost `net` gives it.
    pub fn new(servers: Vec<Arc<S>>, net: NetConfig, registry: StatsRegistry) -> Self {
        let stats = Arc::new(TransportStats::new(registry, net, servers.len()));
        DirectTransport { servers, stats }
    }
}

impl<S: Service> Transport<S> for DirectTransport<S> {
    fn submit(&self, server: ServerId, req: S::Request) -> Completion<S::Response> {
        let Some(srv) = self.servers.get(server) else {
            return no_server(server);
        };
        let req_bytes = S::request_wire_size(&req);
        let started = self.stats.started();
        let reply = srv.call(req);
        if let Some(resp) = reply.resolved() {
            // The common case allocates nothing and, with no latency slept
            // and timing off, reads no clock.
            let due = (self.stats).answered::<S>(server, req_bytes, resp, started, reply.due());
            return reply.chain(move |(resp, _)| (resp, due));
        }
        let stats = Arc::clone(&self.stats);
        reply.chain(move |(resp, inner)| {
            let due = stats.answered::<S>(server, req_bytes, &resp, started, inner);
            (resp, due)
        })
    }

    fn finishes_after_submit(&self) -> bool {
        self.stats.sleeps()
    }

    fn num_servers(&self) -> usize {
        self.servers.len()
    }
}

/// A request queued to a server worker thread, with the resolver of the
/// completion its caller holds.
struct Envelope<S: Service> {
    req: S::Request,
    req_bytes: usize,
    reply: Resolver<S::Response>,
    /// Stamped at enqueue when `Obs::timing_on`; the worker turns it into a
    /// queue-wait observation.  `None` (the default) costs nothing.
    enqueued_at: Option<Instant>,
}

/// Transport that runs a fixed pool of worker threads per server and
/// delivers requests through bounded channels.
///
/// This models the paper's deployment more closely than [`DirectTransport`]:
/// each storage server has a bounded amount of CPU, so when many clients
/// target one server (for example, the root server when client caching is
/// disabled) requests queue up and per-operation latency grows, while other
/// servers sit idle.  A worker hands a request to its server and moves on:
/// a response the server gives later resolves the caller's completion from
/// wherever it is produced.
pub struct ThreadedTransport<S: Service> {
    // Worker threads are detached; they exit when the queue senders are
    // dropped (the channel disconnects and `recv` returns Err).
    queues: Vec<Sender<Envelope<S>>>,
    stats: Arc<TransportStats>,
}

impl<S: Service> ThreadedTransport<S> {
    /// Creates the transport and spawns `workers_per_server` threads per
    /// server, charging each call the network cost `net` gives it.  Fails
    /// with [`Error::InvalidArgument`] on zero workers, and if the system
    /// refuses a thread; the workers already started then exit.
    pub fn new(
        servers: Vec<Arc<S>>,
        workers_per_server: usize,
        net: NetConfig,
        registry: StatsRegistry,
    ) -> Result<Self> {
        if workers_per_server == 0 {
            return Err(Error::InvalidArgument(
                "a threaded transport needs at least one worker per server".into(),
            ));
        }
        // Modelled per-request service time: each request occupies this
        // worker for `service_time_us`, capping per-server throughput at
        // `workers_per_server / service_time` independent of host CPUs.
        let service_us = if net.sleep_latency {
            net.service_time_us
        } else {
            0
        };
        let stats = Arc::new(TransportStats::new(registry, net, servers.len()));
        let mut queues = Vec::with_capacity(servers.len());
        for (sid, srv) in servers.iter().enumerate() {
            let (tx, rx) = bounded::<Envelope<S>>(1024);
            for w in 0..workers_per_server {
                let rx = rx.clone();
                let srv = Arc::clone(srv);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("yesquel-server-{sid}-worker-{w}"))
                    .spawn(move || {
                        while let Ok(env) = rx.recv() {
                            // The enqueue stamp doubles as the timing switch:
                            // absent (timing off) the worker reads no clock.
                            let started = env.enqueued_at.map(|at| {
                                stats.queue_us.record(clock::elapsed_us(at));
                                clock::now()
                            });
                            if service_us > 0 {
                                std::thread::sleep(Duration::from_micros(service_us));
                            }
                            let Envelope {
                                req,
                                req_bytes,
                                reply,
                                ..
                            } = env;
                            let stats = Arc::clone(&stats);
                            srv.call(req).then(move |(resp, inner)| {
                                let due =
                                    stats.answered::<S>(sid, req_bytes, &resp, started, inner);
                                reply.resolve_due(resp, due);
                            });
                        }
                    })
                    .map_err(|e| {
                        Error::Io(format!("cannot start a worker of server {sid}: {e}"))
                    })?;
            }
            queues.push(tx);
        }
        Ok(ThreadedTransport { queues, stats })
    }
}

impl<S: Service> Transport<S> for ThreadedTransport<S> {
    fn submit(&self, server: ServerId, req: S::Request) -> Completion<S::Response> {
        let Some(q) = self.queues.get(server) else {
            return no_server(server);
        };
        let (reply, resolver) = Completion::pending();
        let env = Envelope {
            req_bytes: S::request_wire_size(&req),
            req,
            reply: resolver,
            enqueued_at: self.stats.started(),
        };
        if q.send(env).is_err() {
            return Completion::ready(Err(Error::ServerUnavailable(format!(
                "server {server} shut down"
            ))));
        }
        reply
    }

    fn finishes_after_submit(&self) -> bool {
        true
    }

    fn num_servers(&self) -> usize {
        self.queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy service that echoes the request plus one.
    struct AddOne;

    impl Service for AddOne {
        type Request = u64;
        type Response = u64;
        fn call(&self, req: u64) -> Completion<u64> {
            Completion::ready(Ok(req + 1))
        }
    }

    fn servers(n: usize) -> Vec<Arc<AddOne>> {
        (0..n).map(|_| Arc::new(AddOne)).collect()
    }

    /// A service whose messages are as big as the request says: it
    /// answers `(request bytes, response bytes)` with the response size.
    struct Sizes;

    impl Service for Sizes {
        type Request = (usize, usize);
        type Response = usize;
        fn call(&self, (_, resp): (usize, usize)) -> Completion<usize> {
            Completion::ready(Ok(resp))
        }
        fn request_wire_size(req: &(usize, usize)) -> usize {
            req.0
        }
        fn response_wire_size(resp: &usize) -> usize {
            *resp
        }
    }

    /// Both transports over one `Sizes` server, charging per `net`.
    fn sized_transports(net: NetConfig) -> Vec<(Box<dyn Transport<Sizes>>, StatsRegistry)> {
        let direct = StatsRegistry::new();
        let threaded = StatsRegistry::new();
        vec![
            (
                Box::new(DirectTransport::new(
                    vec![Arc::new(Sizes)],
                    net.clone(),
                    direct.clone(),
                )) as Box<dyn Transport<Sizes>>,
                direct,
            ),
            (
                Box::new(
                    ThreadedTransport::new(vec![Arc::new(Sizes)], 1, net, threaded.clone())
                        .unwrap(),
                ),
                threaded,
            ),
        ]
    }

    #[test]
    fn a_free_network_charges_nothing() {
        for (t, reg) in sized_transports(NetConfig::default()) {
            assert_eq!(t.call(0, (1000, 1000)).unwrap(), 1000);
            assert_eq!(reg.counter("net.charged_us").get(), 0);
        }
    }

    #[test]
    fn a_round_trip_costs_latency_and_bandwidth_each_way() {
        let net = NetConfig {
            one_way_latency_us: 50,
            bytes_per_us: 100,
            sleep_latency: false,
            service_time_us: 0,
        };
        for (t, reg) in sized_transports(net) {
            // 1000 bytes at 100 B/us = 10us + 50us latency out, and an
            // empty reply's 50us latency back.
            t.call(0, (1000, 0)).unwrap();
            assert_eq!(reg.counter("net.charged_us").get(), 60 + 50);
            // The bandwidth term applies to the reply the same way.
            t.call(0, (0, 1000)).unwrap();
            assert_eq!(reg.counter("net.charged_us").get(), 110 + 50 + 60);
        }
    }

    #[test]
    fn direct_transport_routes_and_counts() {
        let reg = StatsRegistry::new();
        let t = DirectTransport::new(servers(3), NetConfig::default(), reg.clone());
        assert_eq!(t.num_servers(), 3);
        assert_eq!(t.call(0, 41).unwrap(), 42);
        assert_eq!(t.call(2, 1).unwrap(), 2);
        assert!(t.call(7, 1).is_err());
        assert_eq!(reg.counter("rpc.calls").get(), 2);
        let per: Vec<u64> = (0..3)
            .map(|i| reg.counter(&format!("rpc.server.{i}.requests")).get())
            .collect();
        assert_eq!(per, vec![1, 0, 1]);
    }

    #[test]
    fn threaded_transport_routes_and_counts() {
        let reg = StatsRegistry::new();
        let t = ThreadedTransport::new(servers(2), 2, NetConfig::default(), reg.clone()).unwrap();
        assert_eq!(t.num_servers(), 2);
        for i in 0..100u64 {
            assert_eq!(t.call((i % 2) as usize, i).unwrap(), i + 1);
        }
        assert!(t.call(9, 1).is_err());
        assert_eq!(reg.counter("rpc.calls").get(), 100);
        let none = ThreadedTransport::new(servers(1), 0, NetConfig::default(), reg.clone());
        assert!(matches!(none.err(), Some(Error::InvalidArgument(_))));
        let per: u64 = (0..2)
            .map(|i| reg.counter(&format!("rpc.server.{i}.requests")).get())
            .sum();
        assert_eq!(per, 100);
    }

    #[test]
    fn threaded_transport_concurrent_clients() {
        let reg = StatsRegistry::new();
        let t = Arc::new(
            ThreadedTransport::new(servers(4), 2, NetConfig::default(), reg.clone()).unwrap(),
        );
        let mut handles = Vec::new();
        for c in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let v = c * 1000 + i;
                    assert_eq!(t.call((v % 4) as usize, v).unwrap(), v + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("rpc.calls").get(), 1600);
    }
}
