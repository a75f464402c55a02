//! Live-object census at cell end (the first slice of ROADMAP item 2): a
//! record type that counts its live instances goes through `cache()` and a
//! `group_by_key().count()` on each of the paper's four systems, and once
//! `System::run` has returned none is alive — the cached partitions, the
//! shuffle blocks, every in-flight chunk and every task's records are gone
//! with the cell. A cached partition is shared, not copied: neither its
//! first computation nor a later hit constructs a record. A shuffle fetch is
//! a chain of continuations: it spawns no thread, and no thread serves a
//! fabric port or a Basic communicator. Nothing keeps a cell's engine alive
//! once the cell is done.

use std::sync::atomic::{AtomicI64, Ordering};

use fabric::ClusterSpec;
use netz::buf::{ByteReader, ByteWriter};
use sparklet::deploy::ClusterConfig;
use sparklet::{Element, SparkConf};
use workloads::ohb::{group_by_app, OhbConfig};
use workloads::System;

/// Instances alive now, and the most that ever were, per census. Each test
/// owns one census `C` and counts only its `Counted<C>`, so tests may run in
/// parallel.
static ALIVE: [AtomicI64; 2] = [const { AtomicI64::new(0) }; 2];
static PEAK: [AtomicI64; 2] = [const { AtomicI64::new(0) }; 2];

#[derive(Debug)]
struct Counted<const C: usize>(u64);

impl<const C: usize> Counted<C> {
    fn new(v: u64) -> Self {
        PEAK[C].fetch_max(ALIVE[C].fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        Counted(v)
    }
}

impl<const C: usize> Clone for Counted<C> {
    fn clone(&self) -> Self {
        Counted::new(self.0)
    }
}

impl<const C: usize> Drop for Counted<C> {
    fn drop(&mut self) {
        ALIVE[C].fetch_sub(1, Ordering::SeqCst);
    }
}

impl<const C: usize> Element for Counted<C> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        Counted::new(r.get_u64().expect("counted element"))
    }
    fn virtual_size(&self) -> u64 {
        1 << 12
    }
}

#[test]
fn no_record_outlives_its_cell_on_any_system() {
    let (parts, per_part, keys) = (8usize, 60u64, 17u64);
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let spec = ClusterSpec::test(4);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        let cluster = ClusterConfig::paper_layout(spec.len(), conf);
        PEAK[0].store(0, Ordering::SeqCst);
        let out = system.run(&spec, cluster, move |sc| {
            let data = sc
                .generate(parts, move |p| {
                    (0..per_part)
                        .map(|i| ((p as u64 * per_part + i) % keys, Counted::<0>::new(i)))
                        .collect()
                })
                .cache();
            assert_eq!(data.count(), parts as u64 * per_part);
            data.group_by_key(parts).count()
        });
        assert_eq!(out.result, keys, "{}: one group per key", system.label());
        // The cache alone holds every record while the shuffle copies them.
        let records = (parts as u64 * per_part) as i64;
        assert!(
            PEAK[0].load(Ordering::SeqCst) > records,
            "{}: the census saw no copies",
            system.label()
        );
        assert_eq!(
            ALIVE[0].load(Ordering::SeqCst),
            0,
            "{}: records outlive the cell",
            system.label()
        );
    }
}

#[test]
fn a_cache_hit_constructs_no_record() {
    let (parts, per_part) = (8usize, 60u64);
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let spec = ClusterSpec::test(4);
        let mut conf = SparkConf::default();
        conf.executor_cores = 4;
        let cluster = ClusterConfig::paper_layout(spec.len(), conf);
        PEAK[1].store(0, Ordering::SeqCst);
        let out = system.run(&spec, cluster, move |sc| {
            let data = sc
                .generate(parts, move |p| {
                    (0..per_part).map(|i| Counted::<1>::new(p as u64 + i)).collect()
                })
                .cache();
            assert_eq!(data.count(), parts as u64 * per_part);
            assert_eq!(data.count(), parts as u64 * per_part);
            data.map_partitions(|_ctx, v| vec![v.iter().map(|c| c.0).sum::<u64>()]).collect()
        });
        let want: u64 = (0..parts as u64).map(|p| (0..per_part).map(|i| p + i).sum::<u64>()).sum();
        assert_eq!(out.result.iter().sum::<u64>(), want, "{}: sums", system.label());
        let records = (parts as u64 * per_part) as i64;
        assert_eq!(
            PEAK[1].load(Ordering::SeqCst),
            records,
            "{}: a record was copied",
            system.label()
        );
        assert_eq!(
            ALIVE[1].load(Ordering::SeqCst),
            0,
            "{}: records outlive the cell",
            system.label()
        );
    }
}

/// The shuffle the thread census runs.
const CLEAN: OhbConfig = OhbConfig {
    partitions: 8,
    records_per_partition: 24,
    value_bytes: 1 << 14,
    key_range: 40,
    seed: 7,
};

/// A clean GroupBy cell on `system`.
fn clean_group_by(system: System) -> workloads::RunOutcome<u64> {
    let spec = ClusterSpec::test(4);
    let mut conf = SparkConf::default();
    conf.executor_cores = 4;
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    system.run(&spec, cluster, move |sc| group_by_app(sc, CLEAN))
}

#[test]
fn a_clean_shuffle_spawns_no_per_request_thread() {
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let out = clean_group_by(system);
        let remote_bytes: u64 = (out.jobs.iter().flat_map(|j| &j.stages))
            .map(|s| s.metrics.counter(obs::keys::TASK_REMOTE_BYTES))
            .sum();
        assert!(remote_bytes > 0, "{}: the reduce fetched nothing remotely", system.label());
        // A fetch is a chain of continuations, and so is the Optimized
        // design's body receive: no thread fetches, and none waits for bodies.
        let per_request: Vec<_> =
            out.spawned.keys().filter(|p| p.starts_with("fetch") || p.contains("body")).collect();
        assert!(per_request.is_empty(), "{}: requests spawned {per_request:?}", system.label());
        // So are netz's event loops and rmpi's progress pumps
        // (`fabric::net::PortRx::serve`), and the Basic design's MPI receive
        // loops: no thread serves a port or a communicator.
        let loops: Vec<_> = ["netz-boss", "netz-loop", "mpi-pump", "mpi-basic-rx"]
            .into_iter()
            .filter(|p| out.spawned.contains_key(*p))
            .collect();
        assert!(loops.is_empty(), "{}: threads serve ports: {loops:?}", system.label());
        // A job runs on the driver thread that submits it.
        let jobs: Vec<_> = out.spawned.keys().filter(|p| p.starts_with("job-")).collect();
        assert!(jobs.is_empty(), "{}: jobs spawned {jobs:?}", system.label());
        assert!(out.spawned.contains_key("task-e"), "{}: the census counts tasks", system.label());
    }
}

#[test]
fn a_clean_run_ends_with_its_last_job() {
    // Every fetch, RPC and body receive arms a deadline (120 s under the
    // default conf) that its reply beats: cancelled, none of them outlives
    // the application and stretches the run past it.
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let out = clean_group_by(system);
        let last_job_end = out.jobs.iter().map(|j| j.end_ns).max().expect("the app ran a job");
        let tail = out.end_ns - last_job_end;
        assert!(tail < 1_000_000_000, "{}: the run ends {tail} ns after its app", system.label());
    }
}

#[test]
fn nothing_holds_a_cells_engine_after_shutdown() {
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let out = clean_group_by(system);
        let want = workloads::ohb::distinct_keys(CLEAN);
        assert_eq!(out.result, want, "{}: one group per key", system.label());
        assert!(!out.engine.is_alive(), "{}: the engine outlives its cell", system.label());
    }
}
