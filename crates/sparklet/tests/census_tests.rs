//! Live-object census at cell end (the first slice of ROADMAP item 2): a
//! record type that counts its live instances goes through `cache()` and a
//! `group_by_key().count()` on each of the paper's four systems, and once
//! `System::run` has returned none is alive — the cached partitions, the
//! shuffle blocks, every in-flight chunk and every task's records are gone
//! with the cell.

use std::sync::atomic::{AtomicI64, Ordering};

use fabric::ClusterSpec;
use netz::buf::{ByteReader, ByteWriter};
use sparklet::deploy::ClusterConfig;
use sparklet::{Element, SparkConf};
use workloads::System;

/// Instances alive now, and the most that ever were. One test owns them.
static ALIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[derive(Debug)]
struct Counted(u64);

impl Counted {
    fn new(v: u64) -> Counted {
        PEAK.fetch_max(ALIVE.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        Counted(v)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Counted {
        Counted::new(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        ALIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Element for Counted {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader) -> Counted {
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
        PEAK.store(0, Ordering::SeqCst);
        let out = system.run(&spec, cluster, move |sc| {
            let data = sc
                .generate(parts, move |p| {
                    (0..per_part)
                        .map(|i| ((p as u64 * per_part + i) % keys, Counted::new(i)))
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
            PEAK.load(Ordering::SeqCst) > records,
            "{}: the census saw no copies",
            system.label()
        );
        assert_eq!(ALIVE.load(Ordering::SeqCst), 0, "{}: records outlive the cell", system.label());
    }
}
