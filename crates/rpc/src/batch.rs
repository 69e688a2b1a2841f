//! Request batching: coalescing same-server requests into one frame.
//!
//! [`BatchingTransport`] is the RPC-plane analogue of the write-ahead log's
//! group commit.  The first caller to find a server's queue idle becomes the
//! batch leader: it waits a small window for concurrent callers to pile
//! their requests in, then ships the whole group to the inner transport as
//! one multi-request frame.  One transport call — one network-model round
//! trip, one queue handoff on a threaded transport — carries many logical
//! requests, amortising per-message costs exactly as one fsync amortises
//! over a commit group.
//!
//! The decorator composes below [`crate::FaultyTransport`]: faults are drawn
//! per *logical* message (a dropped request is dropped before it can join a
//! batch, a duplicate joins as its own logical message), so chaos tests keep
//! their per-message semantics while survivors still coalesce.  A batch of
//! one is sent bare — no envelope, no overhead — which keeps single-threaded
//! callers at exactly one inner call per request.

use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use yesquel_common::stats::{Counter, Histogram, StatsRegistry};
use yesquel_common::{Error, Result, RpcBatchConfig, ServerId};

use crate::transport::{Service, Transport};

/// A [`Service`] whose request type can carry several requests in one frame.
///
/// `make_batch` wraps a group of requests into one envelope request;
/// `split_batch` recovers the per-request responses from the envelope
/// response (in the same order), returning `None` if the response is not an
/// envelope — the transport surfaces that as an internal error rather than
/// misdelivering responses.
pub trait BatchableService: Service {
    /// Wraps `reqs` into one envelope request.
    fn make_batch(reqs: Vec<Self::Request>) -> Self::Request;
    /// Unwraps an envelope response into per-request responses.
    fn split_batch(resp: Self::Response) -> Option<Vec<Self::Response>>;
}

/// A request parked with the batch leader, paired with the channel its
/// caller is blocked on.
struct Parked<S: Service> {
    req: S::Request,
    reply: Sender<Result<S::Response>>,
}

/// Per-server coalescing state: whether a leader is collecting, and the
/// requests parked behind it.
struct ServerQueue<S: Service> {
    leader_active: bool,
    parked: Vec<Parked<S>>,
}

/// Transport decorator that coalesces same-server requests issued within a
/// small window into one multi-request frame.  See the module docs.
pub struct BatchingTransport<S: BatchableService> {
    inner: Arc<dyn Transport<S>>,
    queues: Vec<Mutex<ServerQueue<S>>>,
    window: std::time::Duration,
    /// Nagle-style extra wait: a leader whose window closed with no
    /// followers re-arms and lingers up to this long for one to arrive
    /// before shipping solo.  Zero disables lingering.
    linger: std::time::Duration,
    max_batch: usize,
    /// Frames that carried ≥ 2 logical requests.
    batches: Arc<Counter>,
    /// Logical requests that travelled inside a multi-request frame.
    batched_requests: Arc<Counter>,
    /// Leader rounds that found no companions and sent the request bare.
    solo: Arc<Counter>,
    /// Leader rounds that lingered past the window hoping for a follower.
    linger_waits: Arc<Counter>,
    /// Logical requests per shipped frame (solo frames count as 1; recorded
    /// only while `Obs::timing_on`).
    occupancy: Arc<Histogram>,
    registry: StatsRegistry,
}

impl<S: BatchableService> BatchingTransport<S> {
    /// Wraps `inner`, coalescing per the given window and size cap.
    pub fn new(
        inner: Arc<dyn Transport<S>>,
        cfg: RpcBatchConfig,
        registry: &StatsRegistry,
    ) -> Self {
        let queues = (0..inner.num_servers())
            .map(|_| {
                Mutex::new(ServerQueue {
                    leader_active: false,
                    parked: Vec::new(),
                })
            })
            .collect();
        BatchingTransport {
            inner,
            queues,
            window: std::time::Duration::from_micros(cfg.window_us),
            linger: std::time::Duration::from_micros(cfg.linger_us),
            max_batch: cfg.max_batch.max(2),
            batches: registry.counter("rpc.batches"),
            batched_requests: registry.counter("rpc.batched_requests"),
            solo: registry.counter("rpc.batch_solo"),
            linger_waits: registry.counter("rpc.batch_linger_waits"),
            occupancy: registry.histogram("rpc.batch_occupancy"),
            registry: registry.clone(),
        }
    }

    /// Ships one group: `mine` (the leader's own request, first in the
    /// frame) plus the parked followers.  Distributes each follower's
    /// response — or a clone of the frame-level error — onto its reply
    /// channel, and returns the leader's own result.
    fn ship(
        &self,
        server: ServerId,
        mine: S::Request,
        followers: Vec<Parked<S>>,
    ) -> Result<S::Response> {
        let timing = self.registry.obs().timing_on();
        if followers.is_empty() {
            self.solo.inc();
            if timing {
                self.occupancy.record(1);
            }
            return self.inner.call(server, mine);
        }
        let total = followers.len() + 1;
        if timing {
            self.occupancy.record(total as u64);
        }
        let mut reqs = Vec::with_capacity(total);
        reqs.push(mine);
        let mut replies = Vec::with_capacity(followers.len());
        for p in followers {
            reqs.push(p.req);
            replies.push(p.reply);
        }
        self.batches.inc();
        self.batched_requests.add(total as u64);
        let outcome: Result<Vec<S::Response>> = match self.inner.call(server, S::make_batch(reqs)) {
            Ok(resp) => match S::split_batch(resp) {
                Some(resps) if resps.len() == total => Ok(resps),
                Some(resps) => Err(Error::Internal(format!(
                    "batch of {total} answered with {} responses",
                    resps.len()
                ))),
                None => Err(Error::Internal(
                    "batch answered with a non-batch response".into(),
                )),
            },
            Err(e) => Err(e),
        };
        match outcome {
            Ok(mut resps) => {
                // First response is the leader's; the rest pair off with the
                // followers in parking order.
                let rest = resps.split_off(1);
                for (reply, resp) in replies.into_iter().zip(rest) {
                    let _ = reply.send(Ok(resp));
                }
                Ok(resps.pop().expect("leader response present"))
            }
            Err(e) => {
                // The whole frame failed (dropped, server down, malformed):
                // every logical request shares its fate.
                for reply in replies {
                    let _ = reply.send(Err(e.clone()));
                }
                Err(e)
            }
        }
    }
}

impl<S: BatchableService> Transport<S> for BatchingTransport<S> {
    fn call(&self, server: ServerId, req: S::Request) -> Result<S::Response> {
        let Some(queue) = self.queues.get(server) else {
            return self.inner.call(server, req);
        };
        {
            let mut q = queue.lock();
            if q.leader_active {
                if q.parked.len() + 1 < self.max_batch {
                    // A leader is collecting: park behind it and wait for
                    // our share of its frame.
                    let (tx, rx) = bounded(1);
                    q.parked.push(Parked { req, reply: tx });
                    drop(q);
                    return rx
                        .recv()
                        .map_err(|_| Error::Internal("batch leader vanished".into()))?;
                }
                // The forming frame is full: send bare rather than stall
                // behind a frame this request cannot join.
                drop(q);
                self.solo.inc();
                return self.inner.call(server, req);
            }
            q.leader_active = true;
        }
        // Leader: give concurrent callers the window to pile in, then drain
        // whatever arrived and ship it as one frame.
        if !self.window.is_zero() {
            std::thread::sleep(self.window);
        }
        // Nagle-style linger: if the window closed with nobody parked, stay
        // leader a little longer (polling in slices up to `linger`) rather
        // than concede immediately to a solo send.  Trades the leader's
        // latency for fewer frames under trickling concurrency; off by
        // default (`linger_us = 0`).
        if !self.linger.is_zero() && queue.lock().parked.is_empty() {
            self.linger_waits.inc();
            let deadline = std::time::Instant::now() + self.linger;
            let slice = (self.linger / 8).max(std::time::Duration::from_micros(5));
            loop {
                let now = std::time::Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep(slice.min(deadline - now));
                if !queue.lock().parked.is_empty() {
                    break;
                }
            }
        }
        let followers = {
            let mut q = queue.lock();
            q.leader_active = false;
            std::mem::take(&mut q.parked)
        };
        self.ship(server, req, followers)
    }

    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetworkModel;
    use crate::transport::DirectTransport;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Echo service whose batch envelope is a `Vec` tagged by a sentinel
    /// first element; counts inner calls so tests can observe coalescing.
    struct Echo {
        calls: AtomicU64,
    }

    const TAG: u64 = u64::MAX;

    impl Service for Echo {
        type Request = Vec<u64>;
        type Response = Vec<u64>;
        fn call(&self, req: Vec<u64>) -> Vec<u64> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            req
        }
    }

    impl BatchableService for Echo {
        fn make_batch(reqs: Vec<Vec<u64>>) -> Vec<u64> {
            let mut out = vec![TAG];
            for r in reqs {
                out.push(r.len() as u64);
                out.extend(r);
            }
            out
        }
        fn split_batch(resp: Vec<u64>) -> Option<Vec<Vec<u64>>> {
            if resp.first() != Some(&TAG) {
                return None;
            }
            let mut out = Vec::new();
            let mut i = 1;
            while i < resp.len() {
                let n = resp[i] as usize;
                out.push(resp[i + 1..i + 1 + n].to_vec());
                i += 1 + n;
            }
            Some(out)
        }
    }

    fn deployment(window_us: u64) -> (Arc<BatchingTransport<Echo>>, Arc<Echo>, StatsRegistry) {
        deployment_linger(window_us, 0)
    }

    fn deployment_linger(
        window_us: u64,
        linger_us: u64,
    ) -> (Arc<BatchingTransport<Echo>>, Arc<Echo>, StatsRegistry) {
        let reg = StatsRegistry::new();
        let srv = Arc::new(Echo {
            calls: AtomicU64::new(0),
        });
        let inner = Arc::new(DirectTransport::new(
            vec![Arc::clone(&srv)],
            NetworkModel::free(reg.clone()),
            reg.clone(),
        ));
        let t = Arc::new(BatchingTransport::new(
            inner,
            RpcBatchConfig {
                window_us,
                max_batch: 8,
                linger_us,
            },
            &reg,
        ));
        (t, srv, reg)
    }

    #[test]
    fn solo_requests_skip_the_envelope() {
        let (t, srv, reg) = deployment(0);
        for i in 0..10u64 {
            assert_eq!(t.call(0, vec![i]).unwrap(), vec![i]);
        }
        assert_eq!(srv.calls.load(Ordering::SeqCst), 10);
        assert_eq!(reg.counter("rpc.batched_requests").get(), 0);
        assert_eq!(reg.counter("rpc.batch_solo").get(), 10);
    }

    #[test]
    fn concurrent_requests_coalesce() {
        let (t, srv, reg) = deployment(2_000);
        let mut handles = Vec::new();
        for c in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..20u64 {
                    let v = c * 100 + i;
                    assert_eq!(t.call(0, vec![v]).unwrap(), vec![v]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = 8 * 20;
        let batched = reg.counter("rpc.batched_requests").get();
        let solo = reg.counter("rpc.batch_solo").get();
        assert_eq!(batched + solo, total, "every logical request accounted");
        assert!(batched > 0, "a 2ms window with 8 threads must coalesce");
        // Coalescing means strictly fewer inner calls than logical requests.
        assert!(srv.calls.load(Ordering::SeqCst) < total);
    }

    #[test]
    fn unknown_server_propagates_inner_error() {
        let (t, _srv, _reg) = deployment(0);
        assert!(t.call(5, vec![1]).is_err());
    }

    #[test]
    fn linger_rescues_a_trickling_follower() {
        // Window 0 closes empty every time; a generous linger lets a
        // follower that arrives shortly after still join the frame.
        let (t, srv, reg) = deployment_linger(0, 20_000);
        let t2 = Arc::clone(&t);
        let follower = std::thread::spawn(move || {
            // Arrive well inside the leader's linger.
            std::thread::sleep(std::time::Duration::from_millis(2));
            t2.call(0, vec![7]).unwrap()
        });
        assert_eq!(t.call(0, vec![3]).unwrap(), vec![3]);
        assert_eq!(follower.join().unwrap(), vec![7]);
        assert!(reg.counter("rpc.batch_linger_waits").get() >= 1);
        // Both logical requests travelled in one frame.
        assert_eq!(reg.counter("rpc.batched_requests").get(), 2);
        assert_eq!(srv.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_linger_never_waits() {
        let (t, _srv, reg) = deployment(0);
        t.call(0, vec![1]).unwrap();
        assert_eq!(reg.counter("rpc.batch_linger_waits").get(), 0);
    }
}
