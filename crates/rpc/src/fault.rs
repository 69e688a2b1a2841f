//! Deterministic fault injection for transports.
//!
//! [`FaultyTransport`] is a decorator: it wraps any [`Transport`] and, per
//! destination server, consults a seeded [`FaultPlan`] to decide whether a
//! request is dropped, delayed, duplicated, rejected with a transient error,
//! or refused because the server is "crashed".  The wrapped transport still
//! performs all of its own accounting (network cost, per-server request
//! counts), so fault injection composes with both [`crate::DirectTransport`]
//! and [`crate::ThreadedTransport`] and with any network configuration.
//!
//! The decorator wraps [`Transport::submit`].  A fault that keeps a request
//! from being delivered resolves its completion before `submit` returns; a
//! fault that strikes after delivery shows when the completion resolves:
//!
//! * **drop request** — the message never reaches the server; the caller
//!   observes [`Error::Timeout`] and the operation was *not* applied.
//! * **drop response** — the server processed the request but the reply is
//!   lost; the caller observes [`Error::Timeout`] even though the operation
//!   *was* applied.  This is the case that exercises server-side
//!   deduplication of retried non-idempotent operations.
//! * **duplicate** — the message is delivered twice back-to-back (a model of
//!   a retransmission following the original once it is answered); the
//!   caller sees the first response, the duplicate's response is discarded.
//! * **transient error** — the connection fails before the message is sent;
//!   the caller observes [`Error::Unavailable`] and may retry immediately.
//! * **delay** — `submit` sleeps for a bounded random time before delivery.
//! * **crash** — the server stops accepting requests ([`Error::Unavailable`]
//!   on every call) until [`FaultyTransport::restart`] is called or a
//!   scripted restart triggers.  By default the store behind the transport
//!   keeps its memory, so a plain crash models a partition /
//!   stall-and-recover.  With [`FaultPlan::amnesia`] set, every restart of a
//!   crashed server first runs that server's restart hook (see
//!   [`FaultyTransport::set_restart_hook`]), which the deployment wires to
//!   drop the server's volatile state and recover from its write-ahead log —
//!   a process kill rather than a stall.  A restart waits until the server
//!   has answered every call it was delivered — including calls whose
//!   completions nobody waits for — so the kill lands between requests.
//!   ROADMAP.md § "Fault model" discusses the distinction.
//!
//! All randomness comes from per-server xoshiro generators seeded from the
//! plan, so a fixed seed reproduces the exact same fault schedule — the
//! property tests rely on this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yesquel_common::stats::{Counter, StatsRegistry};
use yesquel_common::{Error, ServerId};

use crate::transport::{Service, Transport};
use crate::Completion;

/// Fault schedule for one server, mixing probabilistic faults (per-message
/// coin flips) with scripted ones (crash after the n-th delivered request).
///
/// All probabilities are in `[0, 1]` and are evaluated independently per
/// call in a fixed order: transient error, then drop-request, then delay,
/// then duplicate, then drop-response.  A plan with every probability at
/// zero and no scripted crash injects nothing and costs two atomic loads
/// per call.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for this server's fault generator.  The same `(seed, server)`
    /// pair always yields the same fault schedule.
    pub seed: u64,
    /// Probability that a request is dropped before reaching the server
    /// (caller sees [`Error::Timeout`]; the operation is not applied).
    pub drop_request: f64,
    /// Probability that the response is dropped after the server processed
    /// the request (caller sees [`Error::Timeout`]; the operation *is*
    /// applied).
    pub drop_response: f64,
    /// Probability that the request is delivered twice.
    pub duplicate: f64,
    /// Probability of a transient connection error before delivery (caller
    /// sees [`Error::Unavailable`]; the operation is not applied).
    pub transient_error: f64,
    /// Probability that a call is delayed before delivery.
    pub delay: f64,
    /// Delay bounds in microseconds, inclusive, drawn uniformly.
    pub delay_us: (u64, u64),
    /// If set, the server crashes immediately after delivering this many
    /// requests since its last (re)start; the response of the triggering
    /// request is lost.  Together with `restart_after_rejects` this scripts
    /// a repeating crash/recover cycle.
    pub crash_after_requests: Option<u64>,
    /// If set, a crashed server restarts automatically after rejecting this
    /// many requests (a cheap way to script crash/recovery cycles without a
    /// controlling thread).
    pub restart_after_rejects: Option<u64>,
    /// If true, a crash loses the server's volatile memory: every restart of
    /// a crashed server (manual, scripted, or via [`FaultyTransport::heal_all`])
    /// runs the server's restart hook before the server accepts requests
    /// again.  The hook — installed with [`FaultyTransport::set_restart_hook`]
    /// — is expected to wipe volatile state and replay durable state, so a
    /// crash models a process kill instead of a stall.
    pub amnesia: bool,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn healthy() -> Self {
        FaultPlan {
            seed: 0,
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate: 0.0,
            transient_error: 0.0,
            delay: 0.0,
            delay_us: (0, 0),
            crash_after_requests: None,
            restart_after_rejects: None,
            amnesia: false,
        }
    }

    /// A moderate all-of-the-above storm used by the chaos property test:
    /// every fault kind is enabled at a few percent, with short delays.
    pub fn storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_request: 0.03,
            drop_response: 0.03,
            duplicate: 0.05,
            transient_error: 0.03,
            delay: 0.05,
            delay_us: (10, 200),
            crash_after_requests: None,
            restart_after_rejects: None,
            amnesia: false,
        }
    }

    /// True if no fault can ever fire under this plan.
    pub fn is_healthy(&self) -> bool {
        self.drop_request == 0.0
            && self.drop_response == 0.0
            && self.duplicate == 0.0
            && self.transient_error == 0.0
            && self.delay == 0.0
            && self.crash_after_requests.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::healthy()
    }
}

/// Per-server mutable fault state.
struct FaultState {
    plan: Mutex<FaultPlan>,
    rng: Mutex<StdRng>,
    crashed: AtomicBool,
    /// Requests delivered to the server since its last (re)start, for
    /// `crash_after_requests`.
    delivered: AtomicU64,
    /// Requests rejected since the last crash, for `restart_after_rejects`.
    rejected_while_down: AtomicU64,
    /// Calls that found the server up and that it has not answered yet,
    /// waited for or not.  An amnesia restart waits for them, so a kill
    /// lands between two requests and never inside one: state a request is
    /// still changing is not wiped and replayed under it.
    in_flight: Arc<AtomicU64>,
    /// Runs when a crashed server restarts under an amnesia plan, *before*
    /// the server accepts requests again.  The lock is held across the whole
    /// restart sequence so concurrent scripted restarts run the hook exactly
    /// once and callers never observe a half-recovered server.
    restart_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

/// One call counted in its server's [`FaultState::in_flight`] until dropped.
struct InFlight(Arc<AtomicU64>);

impl InFlight {
    fn enter(count: &Arc<AtomicU64>) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        InFlight(Arc::clone(count))
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl FaultState {
    fn new(server: ServerId, plan: FaultPlan) -> Self {
        // Mix the server id into the seed so sibling servers sharing one
        // plan template still see independent schedules.
        let seed = yesquel_common::ids::splitmix64(
            plan.seed ^ (server as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        FaultState {
            plan: Mutex::new(plan),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            crashed: AtomicBool::new(false),
            delivered: AtomicU64::new(0),
            rejected_while_down: AtomicU64::new(0),
            in_flight: Arc::new(AtomicU64::new(0)),
            restart_hook: Mutex::new(None),
        }
    }
}

/// Per-message fault decisions, drawn under one RNG lock so the schedule is
/// a pure function of (seed, call sequence) even with concurrent callers.
#[derive(Default)]
struct Decisions {
    transient: bool,
    drop_request: bool,
    delay_us: u64,
    duplicate: bool,
    drop_response: bool,
}

/// Counters published by the fault layer.
struct FaultCounters {
    injected: Arc<Counter>,
    drop_request: Arc<Counter>,
    drop_response: Arc<Counter>,
    duplicate: Arc<Counter>,
    transient: Arc<Counter>,
    delay: Arc<Counter>,
    crash: Arc<Counter>,
    crash_reject: Arc<Counter>,
}

impl FaultCounters {
    fn new(registry: &StatsRegistry) -> Self {
        FaultCounters {
            injected: registry.counter("rpc.faults_injected"),
            drop_request: registry.counter("rpc.fault.drop_request"),
            drop_response: registry.counter("rpc.fault.drop_response"),
            duplicate: registry.counter("rpc.fault.duplicate"),
            transient: registry.counter("rpc.fault.transient_error"),
            delay: registry.counter("rpc.fault.delay"),
            crash: registry.counter("rpc.fault.crash"),
            crash_reject: registry.counter("rpc.fault.crash_reject"),
        }
    }
}

/// A [`Transport`] decorator that injects faults per [`FaultPlan`].
///
/// Requires `S::Request: Clone` so a message can be duplicated on the wire.
pub struct FaultyTransport<S: Service> {
    inner: Arc<dyn Transport<S>>,
    states: Vec<FaultState>,
    counters: FaultCounters,
}

impl<S: Service> FaultyTransport<S>
where
    S::Request: Clone,
{
    /// Wraps `inner`, applying `plans[i]` to server `i`.  Servers beyond the
    /// end of `plans` get [`FaultPlan::healthy`].
    pub fn new(
        inner: Arc<dyn Transport<S>>,
        plans: Vec<FaultPlan>,
        registry: StatsRegistry,
    ) -> Self {
        let n = inner.num_servers();
        let mut plans = plans;
        plans.resize(n, FaultPlan::healthy());
        let states = plans
            .into_iter()
            .enumerate()
            .map(|(i, p)| FaultState::new(i, p))
            .collect();
        FaultyTransport {
            inner,
            states,
            counters: FaultCounters::new(&registry),
        }
    }

    /// Crashes `server`: every subsequent call fails with
    /// [`Error::Unavailable`] until [`restart`](Self::restart) (or a
    /// scripted auto-restart) revives it.  The server's memory is kept.
    pub fn crash(&self, server: ServerId) {
        if let Some(st) = self.states.get(server) {
            if !st.crashed.swap(true, Ordering::SeqCst) {
                st.rejected_while_down.store(0, Ordering::SeqCst);
                self.counters.crash.inc();
                self.counters.injected.inc();
            }
        }
    }

    /// Restarts a crashed `server`; calls flow again and the scripted-crash
    /// delivery counter starts over.  Under an amnesia plan the server's
    /// restart hook runs first (while the server still rejects requests), so
    /// a restarted server comes back with only what it recovered from its
    /// durable state.  Restarting a server that never crashed is a no-op
    /// apart from resetting the scripted-crash counters — in particular it
    /// does not wipe the server.
    pub fn restart(&self, server: ServerId) {
        if let Some(st) = self.states.get(server) {
            let hook = st.restart_hook.lock();
            Self::revive(st, &hook);
            st.rejected_while_down.store(0, Ordering::SeqCst);
            st.delivered.store(0, Ordering::SeqCst);
        }
    }

    /// Brings a crashed server back; the caller holds its hook lock.  Under
    /// an amnesia plan, the calls the server has not answered yet finish
    /// first, then the hook runs, and only then do calls flow again.
    fn revive(st: &FaultState, hook: &Option<Box<dyn Fn() + Send + Sync>>) {
        if !st.crashed.load(Ordering::SeqCst) {
            return;
        }
        if st.plan.lock().amnesia {
            while st.in_flight.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
            if let Some(h) = hook.as_ref() {
                h();
            }
        }
        st.crashed.store(false, Ordering::SeqCst);
        st.rejected_while_down.store(0, Ordering::SeqCst);
        st.delivered.store(0, Ordering::SeqCst);
    }

    /// Installs the hook run when `server` restarts from a crash under an
    /// amnesia plan.  The deployment layer wires this to the server's
    /// wipe-and-recover path; tests can override it to observe restarts.
    pub fn set_restart_hook(&self, server: ServerId, hook: impl Fn() + Send + Sync + 'static) {
        if let Some(st) = self.states.get(server) {
            *st.restart_hook.lock() = Some(Box::new(hook));
        }
    }

    /// True if `server` is currently crashed.
    pub fn is_crashed(&self, server: ServerId) -> bool {
        self.states
            .get(server)
            .map(|st| st.crashed.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Replaces `server`'s plan and reseeds its fault generator from the new
    /// plan's seed (so healing a server mid-test is deterministic too).
    pub fn set_plan(&self, server: ServerId, plan: FaultPlan) {
        if let Some(st) = self.states.get(server) {
            let seed = yesquel_common::ids::splitmix64(
                plan.seed ^ (server as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            *st.rng.lock() = StdRng::seed_from_u64(seed);
            *st.plan.lock() = plan;
        }
    }

    /// Current plan of `server`.
    pub fn plan(&self, server: ServerId) -> Option<FaultPlan> {
        self.states.get(server).map(|st| st.plan.lock().clone())
    }

    /// Heals every server: healthy plans everywhere, all crashed servers
    /// restarted.  Chaos tests call this before checking convergence.
    /// Servers are restarted *before* their plan is replaced so a crashed
    /// server under an amnesia plan still loses its volatile memory — the
    /// crash already happened; healing must not un-kill the process.
    pub fn heal_all(&self) {
        for i in 0..self.states.len() {
            self.restart(i);
            self.set_plan(i, FaultPlan::healthy());
        }
    }

    /// Total faults injected so far (also available as the
    /// `rpc.faults_injected` registry counter).
    pub fn faults_injected(&self) -> u64 {
        self.counters.injected.get()
    }

    /// Draws this call's fault decisions from the server's seeded generator.
    fn draw(&self, st: &FaultState) -> Decisions {
        let plan = st.plan.lock();
        if plan.is_healthy() && plan.restart_after_rejects.is_none() {
            return Decisions::default();
        }
        let mut rng = st.rng.lock();
        Decisions {
            transient: plan.transient_error > 0.0 && rng.gen_bool(plan.transient_error),
            drop_request: plan.drop_request > 0.0 && rng.gen_bool(plan.drop_request),
            delay_us: if plan.delay > 0.0 && rng.gen_bool(plan.delay) {
                rng.gen_range(plan.delay_us.0..=plan.delay_us.1)
            } else {
                0
            },
            duplicate: plan.duplicate > 0.0 && rng.gen_bool(plan.duplicate),
            drop_response: plan.drop_response > 0.0 && rng.gen_bool(plan.drop_response),
        }
    }

    /// Records a delivery and fires a scripted crash if the plan says so.
    /// Returns true if the server crashed on this delivery (the response is
    /// considered lost).
    fn note_delivery(&self, st: &FaultState) -> bool {
        let delivered = st.delivered.fetch_add(1, Ordering::SeqCst) + 1;
        let crash_at = st.plan.lock().crash_after_requests;
        if let Some(n) = crash_at {
            if delivered >= n && !st.crashed.swap(true, Ordering::SeqCst) {
                st.rejected_while_down.store(0, Ordering::SeqCst);
                self.counters.crash.inc();
                self.counters.injected.inc();
                return true;
            }
        }
        false
    }
}

impl<S: Service> Transport<S> for FaultyTransport<S>
where
    S::Request: Clone,
{
    fn submit(&self, server: ServerId, req: S::Request) -> Completion<S::Response> {
        let Some(st) = self.states.get(server) else {
            // Unknown server: let the inner transport produce its usual error.
            return self.inner.submit(server, req);
        };

        // Counted in flight before the crash check: a restart that finds the
        // server crashed then also finds every call that saw it up.
        let in_flight = loop {
            let entered = InFlight::enter(&st.in_flight);
            if !st.crashed.load(Ordering::SeqCst) {
                break entered;
            }
            drop(entered);
            let rejected = st.rejected_while_down.fetch_add(1, Ordering::SeqCst) + 1;
            let restart_at = st.plan.lock().restart_after_rejects;
            // Scripted recovery: this call restarts the server and goes
            // through.  A call that finds another restart under way is
            // refused as if the server were still down: waiting for that
            // restart could close a cycle of restarts, each waiting for a
            // call the other holds up.
            let hook = match restart_at {
                Some(n) if rejected >= n => st.restart_hook.try_lock(),
                _ => None,
            };
            match hook {
                Some(hook) => Self::revive(st, &hook),
                None => {
                    self.counters.crash_reject.inc();
                    self.counters.injected.inc();
                    return Completion::ready(Err(Error::Unavailable(format!(
                        "server {server} is down"
                    ))));
                }
            }
        };

        let d = self.draw(st);

        if d.transient {
            self.counters.transient.inc();
            self.counters.injected.inc();
            return Completion::ready(Err(Error::Unavailable(format!(
                "transient fault talking to server {server}"
            ))));
        }
        if d.drop_request {
            self.counters.drop_request.inc();
            self.counters.injected.inc();
            return Completion::ready(Err(Error::Timeout(format!(
                "request to server {server} dropped"
            ))));
        }
        if d.delay_us > 0 {
            self.counters.delay.inc();
            self.counters.injected.inc();
            std::thread::sleep(std::time::Duration::from_micros(d.delay_us));
        }

        let dup_req = if d.duplicate { Some(req.clone()) } else { None };
        let mut reply = self.inner.submit(server, req);
        let crashed_now = self.note_delivery(st);

        if let Some(dup) = dup_req {
            if !st.crashed.load(Ordering::SeqCst) {
                self.counters.duplicate.inc();
                self.counters.injected.inc();
                // The retransmission reaches the server once the original
                // has been answered; its own response is discarded.
                reply = reply.settled();
                let dup_in_flight = InFlight::enter(&st.in_flight);
                self.inner
                    .submit(server, dup)
                    .then(move |_| drop(dup_in_flight));
                self.note_delivery(st);
            }
        }

        let lost = if crashed_now {
            Some("crashed before responding")
        } else if d.drop_response {
            self.counters.drop_response.inc();
            self.counters.injected.inc();
            Some("dropped the response")
        } else {
            None
        };
        // The call stays in flight until the server has answered it, whether
        // or not anybody waits for the answer.
        reply.chain(move |(resp, due)| {
            drop(in_flight);
            match lost {
                Some(what) => (Err(Error::Timeout(format!("server {server} {what}"))), due),
                None => (resp, due),
            }
        })
    }

    fn finishes_after_submit(&self) -> bool {
        self.inner.finishes_after_submit()
    }

    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DirectTransport;
    use yesquel_common::NetConfig;

    /// A toy service that counts how many requests it actually handled.
    struct Counting {
        handled: AtomicU64,
    }

    impl Service for Counting {
        type Request = u64;
        type Response = u64;
        fn call(&self, req: u64) -> Completion<u64> {
            self.handled.fetch_add(1, Ordering::SeqCst);
            Completion::ready(Ok(req + 1))
        }
    }

    fn make(
        n: usize,
        plans: Vec<FaultPlan>,
    ) -> (
        Arc<Vec<Arc<Counting>>>,
        FaultyTransport<Counting>,
        StatsRegistry,
    ) {
        let servers: Vec<Arc<Counting>> = (0..n)
            .map(|_| {
                Arc::new(Counting {
                    handled: AtomicU64::new(0),
                })
            })
            .collect();
        let reg = StatsRegistry::new();
        let inner: Arc<dyn Transport<Counting>> = Arc::new(DirectTransport::new(
            servers.clone(),
            NetConfig::default(),
            reg.clone(),
        ));
        let faulty = FaultyTransport::new(inner, plans, reg.clone());
        (Arc::new(servers), faulty, reg)
    }

    #[test]
    fn healthy_plan_is_transparent() {
        let (servers, t, reg) = make(2, vec![]);
        for i in 0..50u64 {
            assert_eq!(t.call((i % 2) as usize, i).unwrap(), i + 1);
        }
        assert_eq!(t.faults_injected(), 0);
        assert_eq!(reg.counter("rpc.calls").get(), 50);
        assert_eq!(
            servers[0].handled.load(Ordering::SeqCst) + servers[1].handled.load(Ordering::SeqCst),
            50
        );
    }

    #[test]
    fn dropped_request_is_a_timeout_and_never_delivered() {
        let plan = FaultPlan {
            drop_request: 1.0,
            ..FaultPlan::healthy()
        };
        let (servers, t, _) = make(1, vec![plan]);
        for _ in 0..10 {
            match t.call(0, 1) {
                Err(Error::Timeout(_)) => {}
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 0);
        assert_eq!(t.faults_injected(), 10);
    }

    #[test]
    fn dropped_response_is_a_timeout_but_was_applied() {
        let plan = FaultPlan {
            drop_response: 1.0,
            ..FaultPlan::healthy()
        };
        let (servers, t, reg) = make(1, vec![plan]);
        for _ in 0..10 {
            match t.call(0, 1) {
                Err(Error::Timeout(_)) => {}
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        // The server did process every request: only the acks were lost.
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 10);
        assert_eq!(reg.counter("rpc.fault.drop_response").get(), 10);
    }

    #[test]
    fn transient_error_is_unavailable_and_never_delivered() {
        let plan = FaultPlan {
            transient_error: 1.0,
            ..FaultPlan::healthy()
        };
        let (servers, t, _) = make(1, vec![plan]);
        match t.call(0, 1) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn duplicates_deliver_twice_and_return_first_response() {
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::healthy()
        };
        let (servers, t, reg) = make(1, vec![plan]);
        for _ in 0..5 {
            assert_eq!(t.call(0, 41).unwrap(), 42);
        }
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 10);
        assert_eq!(reg.counter("rpc.fault.duplicate").get(), 5);
    }

    #[test]
    fn crash_rejects_until_restart() {
        let (servers, t, _) = make(2, vec![]);
        assert_eq!(t.call(0, 1).unwrap(), 2);
        t.crash(0);
        assert!(t.is_crashed(0));
        for _ in 0..3 {
            match t.call(0, 1) {
                Err(Error::Unavailable(_)) => {}
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        // The other server is unaffected.
        assert_eq!(t.call(1, 5).unwrap(), 6);
        t.restart(0);
        assert!(!t.is_crashed(0));
        // Memory survived the crash (the service object is untouched).
        assert_eq!(t.call(0, 1).unwrap(), 2);
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn scripted_crash_and_auto_restart() {
        let plan = FaultPlan {
            crash_after_requests: Some(3),
            restart_after_rejects: Some(2),
            ..FaultPlan::healthy()
        };
        let (servers, t, _) = make(1, vec![plan]);
        assert_eq!(t.call(0, 1).unwrap(), 2);
        assert_eq!(t.call(0, 1).unwrap(), 2);
        // Third delivery triggers the crash; its response is lost even
        // though the server processed it.
        match t.call(0, 1) {
            Err(Error::Timeout(_)) => {}
            other => panic!("expected Timeout at crash point, got {other:?}"),
        }
        assert_eq!(servers[0].handled.load(Ordering::SeqCst), 3);
        // One rejection while down...
        assert!(matches!(t.call(0, 1), Err(Error::Unavailable(_))));
        // ...then the scripted restart lets the next call through.
        assert_eq!(t.call(0, 1).unwrap(), 2);
    }

    #[test]
    fn amnesia_restart_runs_hook_only_for_crashed_servers() {
        let plan = FaultPlan {
            amnesia: true,
            ..FaultPlan::healthy()
        };
        let (_, t, _) = make(2, vec![plan.clone(), plan]);
        let fired = Arc::new(AtomicU64::new(0));
        for i in 0..2 {
            let fired = Arc::clone(&fired);
            t.set_restart_hook(i, move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        t.crash(0);
        t.heal_all();
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "only the crashed server loses its memory"
        );
        // Restarting a server that is already up must not wipe it.
        t.restart(0);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    /// A service that takes a while and says how many calls it is in.
    struct Slow {
        executing: AtomicU64,
        handled: AtomicU64,
    }

    impl Service for Slow {
        type Request = u64;
        type Response = u64;
        fn call(&self, req: u64) -> Completion<u64> {
            self.executing.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            self.handled.fetch_add(1, Ordering::SeqCst);
            self.executing.fetch_sub(1, Ordering::SeqCst);
            Completion::ready(Ok(req + 1))
        }
    }

    #[test]
    fn amnesia_restart_waits_for_a_call_nobody_waits_for() {
        let reg = StatsRegistry::new();
        let srv = Arc::new(Slow {
            executing: AtomicU64::new(0),
            handled: AtomicU64::new(0),
        });
        let inner: Arc<dyn Transport<Slow>> = Arc::new(
            crate::transport::ThreadedTransport::new(
                vec![Arc::clone(&srv)],
                1,
                NetConfig::default(),
                reg.clone(),
            )
            .unwrap(),
        );
        let plan = FaultPlan {
            amnesia: true,
            ..FaultPlan::healthy()
        };
        let t = FaultyTransport::new(inner, vec![plan], reg);
        let seen_executing = Arc::new(AtomicU64::new(u64::MAX));
        {
            let (srv, seen) = (Arc::clone(&srv), Arc::clone(&seen_executing));
            t.set_restart_hook(0, move || {
                seen.store(srv.executing.load(Ordering::SeqCst), Ordering::SeqCst);
            });
        }
        // Submitted, and its completion dropped at once.
        drop(t.submit(0, 1));
        while srv.executing.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        t.crash(0);
        t.restart(0);
        assert_eq!(
            seen_executing.load(Ordering::SeqCst),
            0,
            "the restart wiped the server under a call it was executing"
        );
        assert_eq!(srv.handled.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn plain_crash_restart_keeps_memory() {
        // Without `amnesia`, the hook stays dormant: a crash is a stall.
        let (_, t, _) = make(1, vec![]);
        let fired = Arc::new(AtomicU64::new(0));
        {
            let fired = Arc::clone(&fired);
            t.set_restart_hook(0, move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        t.crash(0);
        t.restart(0);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn scripted_amnesia_restart_fires_hook_before_serving() {
        let plan = FaultPlan {
            crash_after_requests: Some(2),
            restart_after_rejects: Some(1),
            amnesia: true,
            ..FaultPlan::healthy()
        };
        let (_, t, _) = make(1, vec![plan]);
        let fired = Arc::new(AtomicU64::new(0));
        {
            let fired = Arc::clone(&fired);
            t.set_restart_hook(0, move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(t.call(0, 1).unwrap(), 2);
        // The second delivery crashes the server; its response is lost.
        assert!(matches!(t.call(0, 1), Err(Error::Timeout(_))));
        // The first rejected call triggers the scripted restart: the hook
        // runs before the call is allowed through.
        assert_eq!(t.call(0, 1).unwrap(), 2);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let plan = FaultPlan {
            drop_request: 0.3,
            drop_response: 0.2,
            duplicate: 0.2,
            transient_error: 0.1,
            ..FaultPlan::healthy()
        };
        let outcomes = |seed: u64| -> Vec<String> {
            let (_, t, _) = make(
                2,
                vec![
                    FaultPlan {
                        seed,
                        ..plan.clone()
                    },
                    FaultPlan {
                        seed,
                        ..plan.clone()
                    },
                ],
            );
            (0..100u64)
                .map(|i| match t.call((i % 2) as usize, i) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.tag().to_string(),
                })
                .collect()
        };
        let a = outcomes(42);
        let b = outcomes(42);
        let c = outcomes(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The storm actually injected a mix of outcomes.
        assert!(a.iter().any(|s| s == "ok"));
        assert!(a.iter().any(|s| s == "timeout"));
        assert!(a.iter().any(|s| s == "unavailable"));
    }

    #[test]
    fn sibling_servers_get_independent_schedules() {
        let plan = FaultPlan {
            seed: 7,
            drop_request: 0.5,
            ..FaultPlan::healthy()
        };
        let (_, t, _) = make(2, vec![plan.clone(), plan]);
        let seq = |server: usize| -> Vec<bool> {
            (0..64u64).map(|i| t.call(server, i).is_ok()).collect()
        };
        // Same seed, different server id: schedules must differ.
        assert_ne!(seq(0), seq(1));
    }

    #[test]
    fn heal_all_stops_injection() {
        let (_, t, _) = make(
            2,
            vec![
                FaultPlan {
                    drop_request: 1.0,
                    ..FaultPlan::healthy()
                },
                FaultPlan::healthy(),
            ],
        );
        t.crash(1);
        assert!(t.call(0, 1).is_err());
        assert!(t.call(1, 1).is_err());
        t.heal_all();
        assert_eq!(t.call(0, 1).unwrap(), 2);
        assert_eq!(t.call(1, 1).unwrap(), 2);
        assert!(t.plan(0).unwrap().is_healthy());
    }
}
