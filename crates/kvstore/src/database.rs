//! Construction of a whole key-value deployment: servers, cluster, oracle.

use std::sync::Arc;

use yesquel_common::stats::StatsRegistry;
use yesquel_common::{Error, Result, YesquelConfig};
use yesquel_rpc::{Cluster, ClusterBuilder, FaultPlan, FaultyTransport, Transport, TransportKind};
use yesquel_wal::Wal;

use crate::client::KvClient;
use crate::oracle::TimestampOracle;
use crate::server::KvServer;
use crate::snapshot::SnapshotTracker;

/// A complete transactional key-value deployment: `num_servers` storage
/// servers, the timestamp oracle, the snapshot tracker and the cluster
/// transport.  This is what the higher layers (YDBT, SQL) and the benchmark
/// harness instantiate.
pub struct KvDatabase {
    cluster: Cluster<KvServer>,
    /// The transport clients (and servers probing other participants)
    /// actually use:
    /// the cluster transport, optionally wrapped in a [`FaultyTransport`].
    client_transport: Arc<dyn Transport<KvServer>>,
    faults: Option<Arc<FaultyTransport<KvServer>>>,
    oracle: TimestampOracle,
    snapshots: SnapshotTracker,
    config: YesquelConfig,
    stats: StatsRegistry,
}

impl KvDatabase {
    /// Creates a deployment from a configuration, using the direct (same
    /// thread) transport.  Panics if `KvConfig::wal_dir` is set and a log
    /// cannot be opened; durability-aware callers use [`KvDatabase::try_new`].
    pub fn new(config: YesquelConfig) -> Self {
        Self::with_transport(config, TransportKind::Direct)
    }

    /// Fallible variant of [`KvDatabase::new`]: a configuration with no
    /// server, or a per-server write-ahead log that cannot be opened or
    /// recovered, surfaces as a typed error instead of a panic.
    pub fn try_new(config: YesquelConfig) -> Result<Self> {
        Self::build(config, TransportKind::Direct, None)
    }

    /// Creates a deployment with an explicit transport choice.
    pub fn with_transport(config: YesquelConfig, transport: TransportKind) -> Self {
        Self::build(config, transport, None).expect("failed to build the deployment")
    }

    /// Creates a deployment whose transport injects faults according to
    /// `plans` (one [`FaultPlan`] per server; missing entries are healthy).
    /// Everything — client RPCs and the `TxnStatus` probes a server sends
    /// the other participants to resolve a prepare — goes through the faulty
    /// transport, so crashes partition a server from its peers too.  When a
    /// plan has [`FaultPlan::amnesia`] set, restarting that crashed server
    /// wipes its volatile state and recovers from its write-ahead log (or
    /// comes back empty without one).
    pub fn with_faults(
        config: YesquelConfig,
        transport: TransportKind,
        plans: Vec<FaultPlan>,
    ) -> Self {
        Self::build(config, transport, Some(plans)).expect("failed to build the deployment")
    }

    /// Fallible variant of [`KvDatabase::with_faults`]: no server, no worker
    /// per server, a log that cannot be opened, or a server worker thread
    /// the system refuses, is an error.
    pub fn try_with_faults(
        config: YesquelConfig,
        transport: TransportKind,
        plans: Vec<FaultPlan>,
    ) -> Result<Self> {
        Self::build(config, transport, Some(plans))
    }

    fn build(
        config: YesquelConfig,
        transport: TransportKind,
        plans: Option<Vec<FaultPlan>>,
    ) -> Result<Self> {
        // Refused before any log is opened or thread started.
        if config.num_servers == 0 {
            return Err(Error::InvalidArgument(
                "a deployment needs at least one storage server".into(),
            ));
        }
        if let TransportKind::Threaded {
            workers_per_server: 0,
        } = transport
        {
            return Err(Error::InvalidArgument(
                "a threaded transport needs at least one worker per server".into(),
            ));
        }
        let stats = StatsRegistry::new();
        let oracle = TimestampOracle::new();
        let servers = match &config.kv.wal_dir {
            None => KvServer::make_servers_with(config.num_servers, &oracle, &config.kv),
            Some(dir) => {
                // One log per server, under `<wal_dir>/server-<i>`; opening
                // a log also recovers it, so building a deployment over an
                // existing directory restores the previous incarnation.
                let mut servers = Vec::with_capacity(config.num_servers);
                for id in 0..config.num_servers {
                    let wal = Wal::open(
                        dir.join(format!("server-{id}")),
                        config.kv.wal_fsync,
                        &stats,
                    )?;
                    servers.push(Arc::new(KvServer::with_wal(
                        id,
                        oracle.clone(),
                        &config.kv,
                        Some(Arc::new(wal)),
                    )?));
                }
                // Recovered versions carry timestamps issued by the previous
                // incarnation's oracle; move this one past them so fresh
                // snapshots can see them and ids are never reissued.
                for srv in &servers {
                    let (ts, txn) = srv.store().high_water();
                    oracle.advance_past(ts);
                    oracle.advance_txn_past(txn);
                }
                servers
            }
        };
        let cluster = ClusterBuilder::new(servers)
            .transport(transport)
            .network(config.net.clone())
            .stats(stats.clone())
            .build()?;
        let mut faults = None;
        let client_transport: Arc<dyn Transport<KvServer>> = match plans {
            None => cluster.transport(),
            Some(plans) => {
                let faulty = Arc::new(FaultyTransport::new(
                    cluster.transport(),
                    plans,
                    stats.clone(),
                ));
                // A restart of a crashed server under an amnesia plan kills
                // the "process": volatile state is dropped and the store is
                // rebuilt from the write-ahead log before any request gets
                // through.
                for (id, srv) in cluster.servers().iter().enumerate() {
                    let srv = Arc::clone(srv);
                    faulty.set_restart_hook(id, move || {
                        srv.amnesia_restart()
                            .expect("amnesia recovery from the write-ahead log failed");
                    });
                }
                faults = Some(Arc::clone(&faulty));
                faulty
            }
        };
        // A server rebuilt from its log replayed it before it had peers to
        // ask; now that it does, a participant whose unforced commit record
        // died with the previous incarnation gets the fate back from the
        // others' records (a probe needs no peers to answer) before any
        // client finds the lock.
        for srv in cluster.servers() {
            srv.set_peer_transport(&client_transport);
            srv.reap();
        }
        Ok(KvDatabase {
            cluster,
            client_transport,
            faults,
            oracle,
            snapshots: SnapshotTracker::new(),
            config,
            stats,
        })
    }

    /// Convenience constructor: `n` servers, everything else default.
    pub fn with_servers(n: usize) -> Self {
        Self::new(YesquelConfig::with_servers(n))
    }

    /// Creates a client handle.  Every application thread typically has its
    /// own clone of a client.
    pub fn client(&self) -> KvClient {
        KvClient::new(
            Arc::clone(&self.client_transport),
            self.oracle.clone(),
            self.snapshots.clone(),
            self.config.kv.clone(),
            self.stats.clone(),
        )
    }

    /// The fault-injection layer, when this deployment was built with
    /// [`KvDatabase::with_faults`].  Tests use it to crash and restart
    /// servers or rewrite fault plans mid-run.
    pub fn faults(&self) -> Option<&Arc<FaultyTransport<KvServer>>> {
        self.faults.as_ref()
    }

    /// Resolves, on every server, each prepared transaction that is due
    /// ([`KvServer::reap`]).  Tests call this after healing faults instead
    /// of waiting for request traffic to trigger a sweep.
    pub fn reap_all(&self) {
        for srv in self.cluster.servers() {
            srv.reap();
        }
    }

    /// Checkpoints every server's store into a fresh write-ahead-log
    /// segment, truncating the old ones (no-op for servers without a log).
    pub fn checkpoint_all(&self) -> Result<()> {
        for srv in self.cluster.servers() {
            srv.checkpoint()?;
        }
        Ok(())
    }

    /// Total number of prepared (in-doubt) transactions across all servers.
    pub fn prepared_total(&self) -> usize {
        self.cluster
            .servers()
            .iter()
            .map(|s| s.store().prepared_count())
            .sum()
    }

    /// Number of storage servers.
    pub fn num_servers(&self) -> usize {
        self.cluster.num_servers()
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &YesquelConfig {
        &self.config
    }

    /// The shared statistics registry (RPC counts, transaction counters).
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// The timestamp oracle (exposed for tests and the GC driver).
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Direct access to the underlying cluster (tests, experiments).
    pub fn cluster(&self) -> &Cluster<KvServer> {
        &self.cluster
    }

    /// Runs one round of garbage collection across all servers.
    pub fn run_gc(&self) -> Result<()> {
        self.client().run_gc()
    }

    /// Total number of committed versions across all servers (diagnostics).
    pub fn total_versions(&self) -> u64 {
        self.cluster
            .servers()
            .iter()
            .map(|s| s.store().version_count())
            .sum()
    }

    /// Total number of stored objects across all servers (diagnostics).
    pub fn total_objects(&self) -> u64 {
        self.cluster
            .servers()
            .iter()
            .map(|s| s.store().object_count())
            .sum()
    }

    /// Per-server request counts observed by the transport, for load-
    /// imbalance reports.
    pub fn per_server_requests(&self) -> Vec<u64> {
        (0..self.num_servers())
            .map(|i| {
                self.stats
                    .counter(&format!("rpc.server.{i}.requests"))
                    .get()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{KvRequest, KvResponse};
    use bytes::Bytes;
    use yesquel_common::{Error, ObjectId};
    use yesquel_rpc::Completion;

    #[test]
    fn put_get_commit_across_servers() {
        let db = KvDatabase::with_servers(4);
        let client = db.client();

        let t = client.begin();
        for oid in 0..20u64 {
            t.put(ObjectId::new(1, oid), Bytes::from(format!("value-{oid}")))
                .unwrap();
        }
        assert_eq!(t.write_count(), 20);
        let commit_ts = t.commit().unwrap();
        assert!(commit_ts > 0);

        let t2 = client.begin();
        for oid in 0..20u64 {
            let v = t2.get(ObjectId::new(1, oid)).unwrap().expect("value");
            assert_eq!(&v[..], format!("value-{oid}").as_bytes());
        }
        assert!(t2.is_read_only());
        t2.commit().unwrap();
        assert!(db.total_objects() >= 20);
    }

    #[test]
    fn snapshot_isolation_reads_old_version() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(3, 1);

        let t1 = client.begin();
        t1.put(obj, Bytes::from_static(b"v1")).unwrap();
        t1.commit().unwrap();

        // Reader starts now; a later writer must not be visible to it.
        let reader = client.begin();
        let before = reader.get(obj).unwrap();
        assert_eq!(before.as_deref(), Some(&b"v1"[..]));

        let writer = client.begin();
        writer.put(obj, Bytes::from_static(b"v2")).unwrap();
        writer.commit().unwrap();

        let after = reader.get(obj).unwrap();
        assert_eq!(after.as_deref(), Some(&b"v1"[..]), "snapshot must not move");
        reader.commit().unwrap();

        let fresh = client.begin();
        assert_eq!(fresh.get(obj).unwrap().as_deref(), Some(&b"v2"[..]));
        fresh.commit().unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_second_committer() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(4, 1);

        let a = client.begin();
        let b = client.begin();
        a.put(obj, Bytes::from_static(b"a")).unwrap();
        b.put(obj, Bytes::from_static(b"b")).unwrap();
        a.commit().unwrap();
        match b.commit() {
            Err(Error::Conflict(_)) => {}
            other => panic!("expected conflict, got {other:?}"),
        }

        let check = client.begin();
        assert_eq!(check.get(obj).unwrap().as_deref(), Some(&b"a"[..]));
        check.commit().unwrap();
    }

    #[test]
    fn multi_server_transaction_is_atomic() {
        let db = KvDatabase::with_servers(8);
        let client = db.client();

        // Write enough objects that multiple servers participate.
        let t = client.begin();
        for oid in 0..32u64 {
            t.put(ObjectId::new(9, oid), Bytes::from_static(b"x"))
                .unwrap();
        }
        let stats_before = db.stats().counter("kv.commit_2pc").get();
        t.commit().unwrap();
        assert_eq!(db.stats().counter("kv.commit_2pc").get(), stats_before + 1);

        // All or nothing: every object is visible.
        let r = client.begin();
        for oid in 0..32u64 {
            assert!(r.get(ObjectId::new(9, oid)).unwrap().is_some());
        }
        r.commit().unwrap();
    }

    #[test]
    fn readonly_commit_needs_no_rpcs() {
        let db = KvDatabase::with_servers(4);
        let client = db.client();
        let t = client.begin();
        let _ = t.get(ObjectId::new(1, 1)).unwrap();
        let rpcs_before = db.stats().counter("rpc.calls").get();
        t.commit().unwrap();
        assert_eq!(db.stats().counter("rpc.calls").get(), rpcs_before);
        assert_eq!(db.stats().counter("kv.readonly_commits").get(), 1);
    }

    #[test]
    fn delete_then_read_none() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(5, 5);
        let t = client.begin();
        t.put(obj, Bytes::from_static(b"x")).unwrap();
        t.commit().unwrap();
        let t = client.begin();
        t.delete(obj).unwrap();
        t.commit().unwrap();
        let t = client.begin();
        assert_eq!(t.get(obj).unwrap(), None);
        t.commit().unwrap();
    }

    #[test]
    fn abort_discards_writes() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(6, 1);
        let t = client.begin();
        t.put(obj, Bytes::from_static(b"x")).unwrap();
        t.abort();
        let r = client.begin();
        assert_eq!(r.get(obj).unwrap(), None);
        r.commit().unwrap();
    }

    #[test]
    fn read_your_own_writes() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(7, 1);
        let t = client.begin();
        assert_eq!(t.get(obj).unwrap(), None);
        t.put(obj, Bytes::from_static(b"mine")).unwrap();
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"mine"[..]));
        t.delete(obj).unwrap();
        assert_eq!(t.get(obj).unwrap(), None);
        t.abort();
    }

    #[test]
    fn allocate_blocks_are_disjoint() {
        let db = KvDatabase::with_servers(3);
        let client = db.client();
        let ctr = ObjectId::meta(12);
        let a = client.allocate(ctr, 100).unwrap();
        let b = client.allocate(ctr, 100).unwrap();
        assert_eq!(b, a + 100);
    }

    #[test]
    fn gc_trims_versions() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(8, 1);
        for i in 0..10 {
            let t = client.begin();
            t.put(obj, Bytes::from(format!("v{i}"))).unwrap();
            t.commit().unwrap();
        }
        assert!(db.total_versions() >= 10);
        db.run_gc().unwrap();
        assert_eq!(db.total_versions(), 1);
        let r = client.begin();
        assert_eq!(r.get(obj).unwrap().as_deref(), Some(&b"v9"[..]));
        r.commit().unwrap();
    }

    #[test]
    fn gc_preserves_active_snapshot_reads() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(8, 2);

        let t = client.begin();
        t.put(obj, Bytes::from_static(b"old")).unwrap();
        t.commit().unwrap();

        let reader = client.begin();
        assert_eq!(reader.get(obj).unwrap().as_deref(), Some(&b"old"[..]));

        for i in 0..5 {
            let w = client.begin();
            w.put(obj, Bytes::from(format!("new{i}"))).unwrap();
            w.commit().unwrap();
        }
        db.run_gc().unwrap();
        // The reader's snapshot predates the new versions; its value must
        // still be readable after GC.
        assert_eq!(reader.get(obj).unwrap().as_deref(), Some(&b"old"[..]));
        reader.commit().unwrap();
    }

    #[test]
    fn gc_keeps_what_a_held_snapshot_reads_and_everything_newer() {
        let db = KvDatabase::with_servers(2);
        let client = db.client();
        let obj = ObjectId::new(8, 3);
        let put = |i: usize| {
            let t = client.begin();
            t.put(obj, Bytes::from(format!("v{i}"))).unwrap();
            t.commit().unwrap();
        };
        for i in 0..500 {
            put(i);
        }
        // Held open from the middle of the overwrites.
        let reader = client.begin();
        assert_eq!(reader.get(obj).unwrap().as_deref(), Some(&b"v499"[..]));
        for i in 500..1_000 {
            put(i);
        }
        assert_eq!(db.total_versions(), 1_000);
        // The version it reads and the 500 newer ones stay, sweep after
        // sweep, and nothing else does.
        for _ in 0..10 {
            db.run_gc().unwrap();
            assert_eq!(db.total_versions(), 501);
            assert_eq!(reader.get(obj).unwrap().as_deref(), Some(&b"v499"[..]));
        }
        reader.commit().unwrap();
        // They go on the first sweep after it ends.
        db.run_gc().unwrap();
        assert_eq!(db.total_versions(), 1);
        let r = client.begin();
        assert_eq!(r.get(obj).unwrap().as_deref(), Some(&b"v999"[..]));
        r.commit().unwrap();
    }

    /// Forwards to the deployment's transport, but first sweeps every server
    /// at the current watermark whenever a commit's validating message
    /// (`Prepare` / `CommitOnePhase`) goes out: garbage collection landing
    /// at the worst moment of every commit.
    struct SweepBeforeValidate {
        inner: Arc<dyn Transport<KvServer>>,
        snapshots: SnapshotTracker,
        oracle: TimestampOracle,
    }

    impl Transport<KvServer> for SweepBeforeValidate {
        fn submit(&self, server: usize, req: KvRequest) -> Completion<KvResponse> {
            if matches!(
                req,
                KvRequest::Prepare { .. } | KvRequest::CommitOnePhase { .. }
            ) {
                let min_active_ts = self.snapshots.watermark(&self.oracle);
                for s in 0..self.inner.num_servers() {
                    if let Err(e) = self.inner.call(s, KvRequest::Gc { min_active_ts }) {
                        return Completion::ready(Err(e));
                    }
                }
            }
            self.inner.submit(server, req)
        }

        fn finishes_after_submit(&self) -> bool {
            self.inner.finishes_after_submit()
        }

        fn num_servers(&self) -> usize {
            self.inner.num_servers()
        }
    }

    #[test]
    fn sweep_during_commit_cannot_hide_a_delete_from_validation() {
        for servers in [1, 3] {
            let db = KvDatabase::with_servers(servers);
            let client = KvClient::new(
                Arc::new(SweepBeforeValidate {
                    inner: Arc::clone(&db.client_transport),
                    snapshots: db.snapshots.clone(),
                    oracle: db.oracle.clone(),
                }),
                db.oracle.clone(),
                db.snapshots.clone(),
                db.config.kv.clone(),
                db.stats.clone(),
            );
            let objs: Vec<ObjectId> = (0..servers as u64).map(|o| ObjectId::new(9, o)).collect();
            let t = client.begin();
            for &o in &objs {
                t.put(o, Bytes::from_static(b"v")).unwrap();
            }
            t.commit().unwrap();

            // `late` reads, then somebody else deletes everything it read.
            let late = client.begin();
            assert!(late.get(objs[0]).unwrap().is_some());
            let deleter = client.begin();
            for &o in &objs {
                deleter.delete(o).unwrap();
            }
            deleter.commit().unwrap();
            // The sweep that runs as `late` validates must leave the
            // tombstones (newer than its snapshot) for validation to find:
            // were they collected as "fully dead", `late` would overwrite a
            // delete it never saw.
            for &o in &objs {
                late.put(o, Bytes::from_static(b"late")).unwrap();
            }
            match late.commit() {
                Err(Error::Conflict(_)) => {}
                other => panic!("{servers} servers: expected a conflict, got {other:?}"),
            }
            db.run_gc().unwrap();
            assert_eq!(db.total_objects(), 0);
            assert_eq!(db.snapshots.active_count(), 0);
        }
    }

    #[test]
    fn durable_deployment_survives_rebuild() {
        let tmp = yesquel_common::tempdir::TempDir::new("kvdb-durable").unwrap();
        let mut cfg = YesquelConfig::with_servers(2);
        cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
        let obj = ObjectId::new(21, 1);
        let committed_ts;
        {
            let db = KvDatabase::new(cfg.clone());
            let client = db.client();
            let t = client.begin();
            t.put(obj, Bytes::from_static(b"persisted")).unwrap();
            committed_ts = t.commit().unwrap();
        }
        // A fresh deployment over the same directory recovers the commit and
        // advances its oracle past the previous incarnation's timestamps.
        let db = KvDatabase::new(cfg);
        assert!(db.oracle().last_timestamp() >= committed_ts);
        let client = db.client();
        let t = client.begin();
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"persisted"[..]));
        t.commit().unwrap();
        // A write in the second incarnation must win over the recovered one.
        let t = client.begin();
        t.put(obj, Bytes::from_static(b"newer")).unwrap();
        t.commit().unwrap();
        let t = client.begin();
        assert_eq!(t.get(obj).unwrap().as_deref(), Some(&b"newer"[..]));
        t.commit().unwrap();
    }

    /// Every `Commit` of an acknowledged two-participant commit is lost —
    /// its record never reached either disk — and the deployment is rebuilt
    /// from the logs alone.  The votes came back, so the oracle starts past
    /// their prepare timestamps, and a fresh snapshot reads the write at the
    /// acknowledged timestamp, which resolution installs.
    #[test]
    fn a_rebuild_whose_commits_were_all_lost_reads_the_acknowledged_write() {
        let tmp = yesquel_common::tempdir::TempDir::new("kvdb-lost-commits").unwrap();
        let mut cfg = YesquelConfig::with_servers(2);
        cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
        let (a, b) = (ObjectId::new(24, 0), ObjectId::new(24, 1));
        assert_ne!(a.home_server(2), b.home_server(2));
        let committed_ts;
        {
            let db = KvDatabase::new(cfg.clone());
            let t = db.client().begin();
            t.put(a, Bytes::from_static(b"a")).unwrap();
            t.put(b, Bytes::from_static(b"b")).unwrap();
            committed_ts = t.commit().unwrap();
            for srv in db.cluster().servers() {
                srv.store().wal().unwrap().power_loss().unwrap();
            }
        }
        let db = KvDatabase::new(cfg);
        assert!(db.oracle().last_timestamp() >= committed_ts);
        for srv in db.cluster().servers() {
            assert_eq!(srv.reap_counts(), (1, 0), "the commit was not lost");
        }
        let t = db.client().begin();
        assert_eq!(t.get(a).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(t.get(b).unwrap().as_deref(), Some(&b"b"[..]));
        t.commit().unwrap();
        for (obj, v) in [(a, &b"a"[..]), (b, &b"b"[..])] {
            let store = db.cluster().servers()[obj.home_server(2)].store();
            assert_eq!(
                store.dump_versions(obj),
                vec![(committed_ts, Some(Bytes::copy_from_slice(v)))]
            );
        }
    }

    #[test]
    fn amnesia_restart_recovers_acknowledged_commits() {
        let tmp = yesquel_common::tempdir::TempDir::new("kvdb-amnesia").unwrap();
        let mut cfg = YesquelConfig::with_servers(2);
        cfg.kv.wal_dir = Some(tmp.path().to_path_buf());
        let plan = FaultPlan {
            amnesia: true,
            ..FaultPlan::healthy()
        };
        let db = KvDatabase::with_faults(cfg, TransportKind::Direct, vec![plan.clone(), plan]);
        let client = db.client();
        for oid in 0..16u64 {
            let t = client.begin();
            t.put(ObjectId::new(22, oid), Bytes::from(format!("v{oid}")))
                .unwrap();
            t.commit().unwrap();
        }
        let faults = db.faults().unwrap();
        for server in 0..2 {
            faults.crash(server);
            faults.restart(server);
        }
        // The restart wiped volatile memory; everything acknowledged must
        // still be readable because it was replayed from the log.
        let t = client.begin();
        for oid in 0..16u64 {
            assert_eq!(
                t.get(ObjectId::new(22, oid)).unwrap().as_deref(),
                Some(format!("v{oid}").as_bytes()),
                "object {oid} lost across amnesia restart"
            );
        }
        t.commit().unwrap();
        assert!(db.stats().counter("wal.recovered_txns").get() > 0);
    }

    #[test]
    fn amnesia_restart_without_wal_loses_everything() {
        let plan = FaultPlan {
            amnesia: true,
            ..FaultPlan::healthy()
        };
        let db = KvDatabase::with_faults(
            YesquelConfig::with_servers(1),
            TransportKind::Direct,
            vec![plan],
        );
        let client = db.client();
        let t = client.begin();
        t.put(ObjectId::new(23, 1), Bytes::from_static(b"volatile"))
            .unwrap();
        t.commit().unwrap();
        let faults = db.faults().unwrap();
        faults.crash(0);
        faults.restart(0);
        // No log: an amnesia crash is a disk-less process kill.
        let t = client.begin();
        assert_eq!(t.get(ObjectId::new(23, 1)).unwrap(), None);
        t.commit().unwrap();
    }

    #[test]
    fn per_server_requests_reported() {
        let db = KvDatabase::with_servers(4);
        let client = db.client();
        let t = client.begin();
        for oid in 0..64u64 {
            let _ = t.get(ObjectId::new(11, oid)).unwrap();
        }
        t.commit().unwrap();
        let per = db.per_server_requests();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().sum::<u64>(), 64);
        assert!(
            per.iter().all(|&c| c > 0),
            "reads should spread over servers: {per:?}"
        );
    }
}
