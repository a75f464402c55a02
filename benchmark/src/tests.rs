//! Tests that cross modules: the pinned PRNG stream, the oracles against real
//! runs, and the error count.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::ml::MlConfig;
use workloads::ohb::OhbConfig;
use workloads::System;

use crate::cell::run_cell;
use crate::run::{trace_self_virtual_ns, Judge};
use crate::spans::Recorder;
use crate::workload::{App, Oracle, Workload};

const SYSTEMS: [System; 4] =
    [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark];

fn tiny(app: App) -> Workload {
    Workload { name: "tiny", workers: 2, cores: 2, app }
}

fn tiny_group_by() -> Workload {
    tiny(App::GroupBy(OhbConfig {
        partitions: 4,
        records_per_partition: 24,
        value_bytes: 1 << 14,
        key_range: 40,
        seed: 7,
    }))
}

/// Every virtual figure depends on this stream: a change to the `rand`
/// stand-in under `shims/` must show here before it shows in a metric.
#[test]
fn prng_stream_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x05B05B);
    let words: [u64; 3] = [rng.gen(), rng.gen(), rng.gen()];
    let rest = (
        rng.gen_range(0..3584u64),
        rng.gen_range(0..1000usize),
        rng.gen::<f64>().to_bits(),
        rng.gen_range(-1.0..1.0f64).to_bits(),
        rng.gen_bool(0.5),
    );
    assert_eq!(words, [2796953055099330463, 4340360102606188433, 13385066659700899220]);
    assert_eq!(rest, (91, 937, 4606633448816729423, 4599578451068233440, false));
}

#[test]
fn shuffle_bulk_oracle_is_pinned() {
    let w = Workload::by_name("shuffle_bulk", 0x05B05B).unwrap();
    assert_eq!(w.oracle(), Oracle::Exact(3508));
}

#[test]
fn oracle_replay_equals_a_real_run_on_all_four_systems() {
    let w = tiny_group_by();
    let rec = Arc::new(Recorder::default());
    let mut judge = Judge::new(w.oracle());
    for system in SYSTEMS {
        let cell = run_cell(&w, system, false, &rec);
        assert_eq!(Oracle::Exact(cell.result), w.oracle(), "{}", system.label());
        judge.check(&cell);
    }
    assert_eq!((judge.attempted, judge.failed), (4, 0));
}

#[test]
fn lr_loss_is_bit_equal_across_systems_and_below_ln2() {
    let w = tiny(App::Lr(MlConfig {
        partitions: 4,
        samples_per_partition: 32,
        virtual_samples_per_partition: 1000,
        dim: 4,
        iterations: 3,
        agg_partitions: 2,
        pad_bytes: 4096,
        seed: 11,
    }));
    let rec = Arc::new(Recorder::default());
    let mut judge = Judge::new(w.oracle());
    for system in SYSTEMS {
        let cell = run_cell(&w, system, false, &rec);
        assert_eq!(cell.jobs.len(), 4, "datagen + one job per iteration");
        judge.check(&cell);
    }
    assert_eq!((judge.attempted, judge.failed), (4, 0));
    // The zero model's loss is not below ln 2, and a different loss on a later
    // cell is not bit-equal.
    assert!(!Oracle::LossBelowLn2.accepts(std::f64::consts::LN_2.to_bits(), 0));
    assert!(!Oracle::LossBelowLn2.accepts(0.5f64.to_bits(), 0.25f64.to_bits()));
}

#[test]
fn a_cell_that_misses_the_oracle_raises_the_error_rate() {
    let w = tiny_group_by();
    let rec = Arc::new(Recorder::default());
    let cell = run_cell(&w, System::Mpi4Spark, false, &rec);
    let Oracle::Exact(groups) = w.oracle() else { panic!("GroupBy has an exact oracle") };
    let mut judge = Judge::new(Oracle::Exact(groups + 1));
    judge.check(&cell);
    assert_eq!((judge.attempted, judge.failed), (1, 1));
}

#[test]
fn traced_cell_keeps_virtual_time_and_its_harness_spans_nest() {
    let w = tiny_group_by();
    let rec = Arc::new(Recorder::default());
    let plain = run_cell(&w, System::Mpi4Spark, false, &rec);
    let traced = run_cell(&w, System::Mpi4Spark, true, &rec);
    assert_eq!(plain.job_virtual_ns(), traced.job_virtual_ns());
    assert!(plain.records.is_empty() && !traced.records.is_empty());
    assert!(traced.timeline_bytes > 0);

    let self_ns = trace_self_virtual_ns(&traced.records);
    assert!(self_ns["spark_task"] > 0 && self_ns["fabric_tx"] > 0, "{self_ns:?}");

    let spans = rec.snapshot();
    assert_eq!(spans.iter().filter(|s| s.parent == 0).count(), 2, "one root span per cell");
    for parent in &spans {
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == parent.id)
            .map(|s| s.host_end_ns - s.host_start_ns)
            .sum();
        assert!(children <= parent.host_end_ns - parent.host_start_ns, "{}", parent.name);
    }
    for name in ["setup", "app", "job.datagen", "job.action", "teardown", "shutdown"] {
        assert_eq!(spans.iter().filter(|s| s.name == name).count(), 2, "{name}");
    }
}
