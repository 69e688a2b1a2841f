//! Configuration for every layer of the system.
//!
//! What is here is what a deployment, a test or a benchmark actually sets
//! to different values: the number of servers, the network model, the log's
//! directory and flush policy, the prepare lease (fault tests shorten
//! it), tree fan-out, and the DBT technique ablations (no client cache,
//! no back-down search, no load splits, no replication, synchronous
//! splits), which are expressed purely as configurations of [`DbtConfig`].
//! A value with one setting in use is a constant beside the code that
//! reads it, and a choice the code can make from what it observes
//! (whether calls through the transport block, how many servers a
//! transaction touched, which snapshots are open) is made there, not here.
//! The observability switches — latency timing, trace sampling, the
//! slow-op threshold — are not configuration: they are flipped at runtime
//! through the deployment's stats registry (`StatsRegistry::obs`), and a
//! new deployment starts with all of them off.

/// How splits of over-full or overloaded DBT nodes are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// The client that detects the over-full node performs the split
    /// synchronously inside its own transaction (simple, but the unlucky
    /// client pays the split latency).
    Synchronous,
    /// The client only marks the node as needing a split; a per-server
    /// splitter task performs the split as its own transaction in the
    /// background.  This is the paper's design: ordinary operations never
    /// pay split latency.
    Delegated,
}

/// Configuration of the distributed balanced tree (YDBT).
#[derive(Debug, Clone, PartialEq)]
pub struct DbtConfig {
    /// Maximum number of cells in a leaf node before it must split.
    pub leaf_max_cells: usize,
    /// Maximum number of children of an inner node before it must split.
    pub inner_max_children: usize,
    /// Whether clients cache inner nodes.  Disabling this reproduces the
    /// "no caching" ablation: every operation walks from the root and the
    /// root's server becomes a bottleneck.
    pub cache_inner_nodes: bool,
    /// Whether clients may start a search from the deepest cached node and
    /// back up on a fence miss ("back-down search").  If disabled while
    /// caching is enabled, stale cache entries force a restart from the
    /// root instead of a local back-up.
    pub back_down_search: bool,
    /// How splits are executed.
    pub split_mode: SplitMode,
    /// Whether nodes are also split when they become access hot spots
    /// ("load splits"), not only when they exceed their size bound.
    pub load_splits: bool,
    /// Number of accesses within one load-tracking window that marks a leaf
    /// as hot and eligible for a load split.
    pub load_split_threshold: u64,
    /// Whether nodes the load tracker flags as *read*-hot gain replicas on
    /// other servers (read-any/write-all).  Write-hot nodes still load-split;
    /// read-hot nodes replicate instead, so point reads of the hot node
    /// spread over `replica_factor + 1` servers.  A no-op on single-server
    /// deployments (there is nowhere to replicate to).
    pub replicate_hot_nodes: bool,
    /// Number of replicas a promoted hot node gains, capped at
    /// `num_servers - 1` at promotion time (one copy per distinct server).
    pub replica_factor: usize,
}

impl Default for DbtConfig {
    fn default() -> Self {
        DbtConfig {
            leaf_max_cells: 64,
            inner_max_children: 64,
            cache_inner_nodes: true,
            back_down_search: true,
            split_mode: SplitMode::Delegated,
            load_splits: true,
            load_split_threshold: 2000,
            replicate_hot_nodes: true,
            replica_factor: 2,
        }
    }
}

impl DbtConfig {
    /// Configuration for the "no client caching" ablation (F4).
    pub fn ablation_no_cache() -> Self {
        DbtConfig {
            cache_inner_nodes: false,
            back_down_search: false,
            ..Self::default()
        }
    }

    /// Configuration for the "no back-down search" ablation (F4): caching is
    /// kept, but a stale cache entry forces a restart from the root.
    pub fn ablation_no_back_down() -> Self {
        DbtConfig {
            back_down_search: false,
            ..Self::default()
        }
    }

    /// Configuration for the "no load splits" ablation (F4, F8): all
    /// load-driven reorganisation off — no load splits (and so no
    /// least-loaded placement of their new halves), no hot-node replication.
    pub fn ablation_no_load_splits() -> Self {
        DbtConfig {
            load_splits: false,
            replicate_hot_nodes: false,
            ..Self::default()
        }
    }

    /// Configuration for the "no hot-node replication" ablation: load splits
    /// stay on, but read-hot nodes are never promoted to replica sets.
    pub fn ablation_no_replication() -> Self {
        DbtConfig {
            replicate_hot_nodes: false,
            ..Self::default()
        }
    }

    /// Configuration with synchronous (client-side) splits, used to measure
    /// the benefit of delegated splits.
    pub fn ablation_sync_splits() -> Self {
        DbtConfig {
            split_mode: SplitMode::Synchronous,
            ..Self::default()
        }
    }
}

/// When a storage server's write-ahead log forces appended records to disk.
///
/// Orthogonal to *whether* a server logs at all (that is
/// [`KvConfig::wal_dir`]): the policy only governs when an append is
/// considered durable enough to acknowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFsyncPolicy {
    /// Every append fsyncs before the operation is acknowledged.  Strongest
    /// guarantee, one disk sync per commit.
    Always,
    /// Group commit: an appender waits up to `window_us` microseconds for
    /// concurrent committers to pile in, then one fsync covers the whole
    /// group.  Same guarantee as `Always` once the append call returns —
    /// the ack still waits for the sync — at a fraction of the fsyncs under
    /// concurrency, traded against up to `window_us` of added commit
    /// latency.
    Group {
        /// How long the sync leader waits for the group to grow.
        window_us: u64,
    },
    /// Appends are buffered OS-side and never explicitly synced (checkpoint
    /// and segment rotation still sync).  An acknowledged commit can vanish
    /// in a power loss; only suitable when durability is externally
    /// guaranteed or deliberately waived (benchmarking the log's CPU cost).
    Off,
}

/// Configuration of the transactional key-value store.
#[derive(Debug, Clone, PartialEq)]
pub struct KvConfig {
    /// Lease, in microseconds, granted to the coordinator by each prepare.
    /// A prepare is resolved from the participants' records whenever a
    /// request runs into it; once the lease has expired, the resolver also
    /// fences the participants that have no record of the transaction, so
    /// a coordinator presumed dead cannot commit it afterwards, and an
    /// orphan nobody meets is resolved on the first request a tenth of a
    /// lease after the server's last sweep.  Must comfortably exceed the
    /// worst-case prepare round.  Also sets the client's
    /// statement deadline ([`KvConfig::op_deadline_us`]).
    pub prepare_lease_us: u64,
    /// Directory under which each storage server keeps its write-ahead log
    /// (server `i` logs in `<wal_dir>/server-<i>`).  `None` — the default —
    /// runs the store purely in memory, exactly as before durability was
    /// added: no logging, no recovery, zero overhead on the hot paths.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Fsync policy of the write-ahead log; ignored when `wal_dir` is
    /// `None`.
    pub wal_fsync: WalFsyncPolicy,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            prepare_lease_us: 500_000,
            wal_dir: None,
            wal_fsync: WalFsyncPolicy::Group { window_us: 100 },
        }
    }
}

impl KvConfig {
    /// A configuration with a short lease, sized for fault-injection tests:
    /// an orphaned prepare is resolved 3 ms on, by the first request that
    /// runs into it or sweeps, and a statement that cannot succeed gives up
    /// 6 ms after it first retried, so a chaos run converges quickly.  Not
    /// meant for production-shaped benchmarks (the lease is far too short
    /// for a loaded commit path).
    pub fn impatient() -> Self {
        KvConfig {
            prepare_lease_us: 3_000,
            ..Self::default()
        }
    }

    /// The one time budget of the client's retry loops, in microseconds:
    /// two leases, so a reader that meets a dead coordinator's lock
    /// outwaits its lease.  A statement (one `KvClient::run_txn` /
    /// `retry_txn` call) retries — its restarts, its RPCs' timeouts and
    /// refusals, its reads' lock waits, its probes of lost votes — until
    /// this long after it first had to; any other KV call has its own.
    pub fn op_deadline_us(&self) -> u64 {
        2 * self.prepare_lease_us
    }
}

/// Configuration of the simulated network between clients and storage
/// servers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetConfig {
    /// One-way latency, in microseconds, charged to every RPC by the
    /// network model.  Zero disables latency simulation (throughput mode).
    pub one_way_latency_us: u64,
    /// Bytes per microsecond of modelled bandwidth; 0 disables the
    /// bandwidth term.
    pub bytes_per_us: u64,
    /// If true, the latency is actually slept (useful for latency
    /// experiments); if false it is only accounted in the simulated-time
    /// counters (useful for throughput experiments).
    pub sleep_latency: bool,
    /// Modelled per-request service time, in microseconds, spent *on a
    /// server worker thread* for every transport-level request.  Only
    /// meaningful (and only slept) on the threaded transport with
    /// `sleep_latency` set: each request then occupies one of the server's
    /// workers for this long, so per-server throughput is capped at
    /// `workers_per_server / service_time` regardless of host CPU count.
    /// This is what lets a scale-out experiment show server capacity on a
    /// small machine — the bottleneck is slept time, not host cores.  Zero
    /// disables the term.
    pub service_time_us: u64,
}

/// Top-level configuration of a Yesquel deployment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct YesquelConfig {
    /// Number of storage servers in the cluster.
    pub num_servers: usize,
    /// Distributed-balanced-tree configuration.
    pub dbt: DbtConfig,
    /// Transactional key-value store configuration.
    pub kv: KvConfig,
    /// Network model.
    pub net: NetConfig,
}

impl YesquelConfig {
    /// A deployment with `num_servers` storage servers and default settings
    /// for everything else.
    pub fn with_servers(num_servers: usize) -> Self {
        YesquelConfig {
            num_servers,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = YesquelConfig::default();
        assert_eq!(c.dbt.leaf_max_cells, 64);
        assert!(c.dbt.cache_inner_nodes);
        assert_eq!(c.kv.op_deadline_us(), 1_000_000);
        assert!(KvConfig::impatient().op_deadline_us() < c.kv.op_deadline_us());
        assert_eq!(c.net.one_way_latency_us, 0);
    }

    #[test]
    fn ablations_differ_from_default() {
        let d = DbtConfig::default();
        assert_ne!(DbtConfig::ablation_no_cache(), d);
        assert_ne!(DbtConfig::ablation_no_back_down(), d);
        assert_ne!(DbtConfig::ablation_no_load_splits(), d);
        assert_ne!(DbtConfig::ablation_no_replication(), d);
        assert_ne!(DbtConfig::ablation_sync_splits(), d);
        assert!(!DbtConfig::ablation_no_load_splits().replicate_hot_nodes);
        assert!(DbtConfig::ablation_no_replication().load_splits);
        assert!(!DbtConfig::ablation_no_cache().cache_inner_nodes);
        assert!(DbtConfig::ablation_no_back_down().cache_inner_nodes);
        assert!(!DbtConfig::ablation_no_back_down().back_down_search);
    }

    #[test]
    fn with_servers_sets_count() {
        assert_eq!(YesquelConfig::with_servers(8).num_servers, 8);
    }

    #[test]
    fn config_debug_names_fields() {
        // Configurations are embedded in benchmark reports through their
        // Debug rendering; make sure the field names survive.
        let c = YesquelConfig::with_servers(4);
        let s = format!("{c:?}");
        assert!(s.contains("num_servers"));
        assert!(s.contains("leaf_max_cells"));
    }
}
