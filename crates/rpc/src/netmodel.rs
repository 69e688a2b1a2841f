//! Network cost model.
//!
//! The simulated cluster runs inside one process, so the real network is
//! absent.  To keep the *shape* of the paper's latency results, every RPC is
//! charged a configurable cost: a fixed one-way latency per message plus a
//! bandwidth term proportional to message size.  The cost is always added to
//! the `net.charged_us` counter and, if so configured, actually slept
//! (closed-loop latency experiments): the transport dates the reply's
//! [`Completion`](crate::Completion) that far after the server answered, and
//! whoever waits for it sleeps until then.

use std::sync::Arc;

use yesquel_common::stats::{Counter, StatsRegistry};
use yesquel_common::NetConfig;

/// Shared network cost model; cheap to clone.
#[derive(Clone)]
pub struct NetworkModel {
    inner: Arc<Inner>,
}

struct Inner {
    cfg: NetConfig,
    /// `net.charged_us`, resolved once: charging is on every RPC's path.
    charged_us: Arc<Counter>,
}

impl NetworkModel {
    /// Creates a model with the given configuration.
    pub fn new(cfg: NetConfig, registry: StatsRegistry) -> Self {
        NetworkModel {
            inner: Arc::new(Inner {
                cfg,
                charged_us: registry.counter("net.charged_us"),
            }),
        }
    }

    /// A model that charges nothing (unit tests, pure-throughput runs).
    pub fn free(registry: StatsRegistry) -> Self {
        Self::new(NetConfig::default(), registry)
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &NetConfig {
        &self.inner.cfg
    }

    /// Cost in microseconds of sending one message of `bytes` bytes one way.
    pub fn one_way_cost_us(&self, bytes: usize) -> u64 {
        let cfg = &self.inner.cfg;
        let bw = (bytes as u64).checked_div(cfg.bytes_per_us).unwrap_or(0);
        cfg.one_way_latency_us + bw
    }

    /// Whether the modelled latency is really slept, so that a reply is due
    /// some time after its server answered.
    pub fn sleeps(&self) -> bool {
        let cfg = &self.inner.cfg;
        cfg.sleep_latency && (cfg.one_way_latency_us > 0 || cfg.bytes_per_us > 0)
    }

    /// Charges a full request/response round trip and returns the charged
    /// microseconds.  Nothing sleeps here: the transport makes the reply due
    /// that much later when the model [`sleeps`](Self::sleeps).
    pub fn charge_round_trip(&self, req_bytes: usize, resp_bytes: usize) -> u64 {
        let us = self.one_way_cost_us(req_bytes) + self.one_way_cost_us(resp_bytes);
        if us > 0 {
            self.inner.charged_us.add(us);
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        let reg = StatsRegistry::new();
        let m = NetworkModel::free(reg.clone());
        assert_eq!(m.charge_round_trip(1000, 1000), 0);
        assert_eq!(reg.counter("net.charged_us").get(), 0);
    }

    #[test]
    fn latency_and_bandwidth_terms() {
        let cfg = NetConfig {
            one_way_latency_us: 50,
            bytes_per_us: 100,
            sleep_latency: false,
            service_time_us: 0,
        };
        let reg = StatsRegistry::new();
        let m = NetworkModel::new(cfg, reg.clone());
        // 1000 bytes at 100 B/us = 10us + 50us latency each way.
        assert_eq!(m.one_way_cost_us(1000), 60);
        let rt = m.charge_round_trip(1000, 0);
        assert_eq!(rt, 60 + 50);
        assert_eq!(reg.counter("net.charged_us").get(), 110);
    }
}
