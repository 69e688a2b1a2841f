//! The four workloads and how a deployment for one of them is set up.
//!
//! Every deployment is the shipped configuration — `with_servers(4)`, every
//! knob at its library default — except for what the workload names: the
//! transport and network model of `net_mixed`, the write-ahead-log directory
//! of `durable_write`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use yesquel::common::config::WalFsyncPolicy;
use yesquel::rpc::TransportKind;
use yesquel::{params, Error, KvDatabase, NetConfig, Result, Yesquel, YesquelConfig};

use crate::gen;

/// Storage servers in every deployment.
pub const SERVERS: usize = 4;

/// Closed-loop client threads: one per core of the 2-core reference box.
pub const CLIENTS: usize = 2;

/// Client 0 runs one MVCC garbage collection after this many of its own
/// successful writes (and the preload after this many rows): the system
/// never schedules GC itself, so the harness is the operator.
pub const GC_EVERY_WRITES: u64 = 2000;

pub const SCHEMA: &str = "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL,
                     body TEXT, views INT NOT NULL, grp INT NOT NULL);
 CREATE UNIQUE INDEX pages_by_title ON pages (title);
 CREATE INDEX pages_by_grp ON pages (grp, views);";

pub const INSERT_SQL: &str =
    "INSERT INTO pages (id, title, body, views, grp) VALUES (?, ?, ?, ?, ?)";

/// One workload: a deployment, a table size and a statement mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Rows preloaded before anything is measured.
    pub rows: u64,
    /// Weights in `Kind::ALL` order.
    pub mix: [u32; 8],
    /// Slept network and worker-thread transport (`net_mixed`).
    pub slept_network: bool,
    /// Per-server on-disk write-ahead log (`durable_write`).
    pub wal: bool,
    /// Hold the run on one CPU (see [`OneCpu`]): set where the clients
    /// mostly wait, for the network or for the log, and need under one core.
    pub one_cpu: bool,
    /// Ladder operations per read rung and per write rung.
    pub ladder_reads: usize,
    pub ladder_writes: usize,
}

const READ_MOSTLY_MIX: [u32; 8] = [55, 15, 15, 3, 5, 2, 3, 2];
const WRITE_HEAVY_MIX: [u32; 8] = [15, 0, 5, 20, 20, 12, 18, 10];
const NET_MIXED_MIX: [u32; 8] = [30, 10, 10, 12, 15, 8, 10, 5];
const DURABLE_WRITE_MIX: [u32; 8] = [3940, 0, 1313, 20, 20, 12, 18, 10];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_mostly",
        rows: 100_000,
        mix: READ_MOSTLY_MIX,
        slept_network: false,
        wal: false,
        one_cpu: false,
        ladder_reads: 20_000,
        ladder_writes: 5_000,
    },
    Workload {
        name: "write_heavy",
        rows: 100_000,
        mix: WRITE_HEAVY_MIX,
        slept_network: false,
        wal: false,
        one_cpu: false,
        ladder_reads: 20_000,
        ladder_writes: 5_000,
    },
    Workload {
        name: "net_mixed",
        rows: 1_500,
        mix: NET_MIXED_MIX,
        slept_network: true,
        wal: false,
        one_cpu: true,
        ladder_reads: 1_000,
        ladder_writes: 500,
    },
    Workload {
        name: "durable_write",
        rows: 1_500,
        mix: DURABLE_WRITE_MIX,
        slept_network: false,
        wal: true,
        one_cpu: true,
        ladder_reads: 1_000,
        ladder_writes: 500,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload over a tiny table with short ladders (`--smoke`).
    pub fn smoke(&self) -> Workload {
        Workload {
            rows: 400,
            ladder_reads: 200,
            ladder_writes: 50,
            ..self.clone()
        }
    }
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Holds the calling thread, and every thread spawned while it lives, on one
/// of the CPUs the thread may use; the thread gets its CPUs back on drop.
///
/// A run whose clients mostly wait needs a fraction of a core, and where the
/// scheduler puts its threads decides what a wake-up costs.  Over the slept
/// network, client and worker packed on one CPU hand over by a context
/// switch; spread over two, by an inter-processor interrupt to a halted
/// virtual CPU, +12% on every round trip.  With a log, set-up takes 10%
/// longer on a CPU that is not the one the disk interrupts.  Which placement
/// a run gets is settled when its threads start, by how busy the previous
/// process left each CPU, and then holds for the whole run: unpinned, the
/// benchmark measures the order it was run in.
pub struct OneCpu(CpuSet);

impl OneCpu {
    /// `None`, and nothing changed, if the kernel refuses.
    pub fn pin() -> Option<OneCpu> {
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread, and `allowed` is a writable
        // buffer of the `size` bytes the call is told it may fill.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        // The highest one, so that every run takes the same.
        let word = allowed.iter().rposition(|&bits| bits != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: as above, and `one` is only read.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(OneCpu(allowed))
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`; the mask is the one the kernel handed out.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) };
    }
}

/// A directory under `./.ybench_tmp`, removed on drop.  The benchmark may
/// only write inside its checkout, so the log does not go to the system
/// temporary directory.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".ybench_tmp").join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| Error::io(path.display(), e))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using the parent.
        let _ = std::fs::remove_dir(".ybench_tmp");
    }
}

/// A set-up deployment, with the scratch directory its logs live in.
pub struct Deployment {
    pub y: Yesquel,
    pub wal_dir: Option<ScratchDir>,
}

/// What phase 1 measured.
pub struct Setup {
    pub seconds: f64,
    pub failed_inserts: u64,
}

/// Phase 1: build the deployment, create the schema, preload `rows` rows
/// through one prepared INSERT from one thread, let delegated splits finish
/// and collect garbage once.
///
/// The preload is single-threaded on purpose: two concurrent preloaders into
/// an empty table over the slept network exhaust the client library's
/// retries (`RetriesExhausted { attempts: 24, last: Conflict }`).  A failed
/// insert is counted, not unwrapped.
pub fn set_up(w: &Workload) -> Result<(Deployment, Setup)> {
    let started = Instant::now();
    let mut cfg = YesquelConfig::with_servers(SERVERS);
    if w.slept_network {
        cfg.net = NetConfig {
            one_way_latency_us: 50,
            sleep_latency: true,
            bytes_per_us: 0,
            service_time_us: 0,
        };
    }
    let wal_dir = if w.wal {
        let dir = ScratchDir::new(w.name)?;
        cfg.kv.wal_dir = Some(dir.path().to_path_buf());
        // The library default, stated because it is the flush policy every
        // comparison must hold fixed.
        assert_eq!(cfg.kv.wal_fsync, WalFsyncPolicy::Group { window_us: 100 });
        Some(dir)
    } else {
        None
    };
    let db = if w.slept_network {
        let workers = TransportKind::Threaded {
            workers_per_server: 2,
        };
        KvDatabase::with_transport(cfg, workers)
    } else {
        KvDatabase::try_new(cfg)?
    };
    let y = Yesquel::open_db(db)?;
    y.execute_script(SCHEMA)?;

    let groups = gen::groups_for(w.rows);
    let mut failed_inserts = 0;
    {
        let insert = y.prepare(INSERT_SQL)?;
        for counter in 1..=w.rows {
            let id = gen::row_id(counter);
            let row = params![
                id,
                gen::title_of(id),
                gen::body_of(id, 0),
                gen::views_of(id),
                gen::grp_of(id, groups)
            ];
            if insert.execute(row).is_err() {
                failed_inserts += 1;
            }
            if counter % GC_EVERY_WRITES == 0 {
                y.db().run_gc()?;
            }
        }
    }
    y.engine().wait_for_splits();
    y.db().run_gc()?;
    let setup = Setup {
        seconds: started.elapsed().as_secs_f64(),
        failed_inserts,
    };
    Ok((Deployment { y, wal_dir }, setup))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus_of_this_thread() -> u32 {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: as in `OneCpu::pin`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        assert_eq!(rc, 0);
        mask.iter().map(|bits| bits.count_ones()).sum()
    }

    #[test]
    fn one_cpu_is_inherited_and_given_back() {
        let before = cpus_of_this_thread();
        {
            let _pin = OneCpu::pin().expect("the kernel lets a thread narrow its CPUs");
            assert_eq!(cpus_of_this_thread(), 1);
            let spawned = std::thread::spawn(cpus_of_this_thread);
            assert_eq!(spawned.join().expect("the spawned thread ran"), 1);
        }
        assert_eq!(cpus_of_this_thread(), before);
    }
}
