//! The suites: the paper's figures and Table IV here, the fetch-batching
//! ablation in [`ablations`], the post-paper recovery bench in [`features`].

mod ablations;
mod features;

pub use ablations::ablation_batching;
pub use features::recovery;

use obs::keys;
use sparklet::deploy::ClusterConfig;
use sparklet::scheduler::SparkContext;
use sparklet::SparkConf;
use workloads::graph::{nweight_app, NWeightConfig};
use workloads::micro::{repartition_app, terasort_app, MicroConfig};
use workloads::ml::{gmm_app, lda_app, lr_app, svm_app, MlConfig};
use workloads::ohb::{distinct_keys, group_by_app, sort_by_app, OhbConfig, StageBreakdown};
use workloads::System;

use crate::hibench::{run_hibench, HiBenchParams, HiBenchWorkload};
use crate::ohb_runner::{run_cell, OhbBench, OhbCell};
use crate::pingpong::{run_pingpong, PingPongTransport};
use crate::record::{counters, real_x1000, x1000, Run};
use crate::Scale;

/// Fig. 8: Netty ping-pong one-way latency, NIO vs Netty+MPI, 1 B–4 MiB on
/// the internal cluster (IB-EDR). Paper: "speedups of up to 9× for 4MB".
pub fn fig08(run: &mut Run<'_>) {
    for size in (0..=22).map(|i| 1u64 << i) {
        let label = if size < 1024 { format!("{size}B") } else { format!("{}K", size / 1024) };
        let mut nio = None;
        for (name, transport) in
            [("NIO", PingPongTransport::Nio), ("Netty+MPI", PingPongTransport::NettyMpi)]
        {
            let ns = run_pingpong(transport, size, 10);
            let base = *nio.get_or_insert(ns);
            let cell = [("size", label.clone()), ("transport", name.to_string())];
            run.emit(&cell, ns, vec![("vs_nio_x1000", x1000(base, ns))]);
        }
    }
}

/// Write a traced cell's timeline to
/// `<trace-dir>/<bench>-<system>-<workers>w.json`; no-op without
/// `--trace-dir` or for an untraced cell.
fn dump_timeline(run: &Run<'_>, bench: OhbBench, system: System, workers: usize, cell: &OhbCell) {
    let (Some(dir), Some(json)) = (&run.trace_dir, &cell.timeline) else { return };
    let path = dir.join(format!("{}-{}-{}w.json", bench.name(), system.label(), workers));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("--trace-dir: cannot write {}: {e}", path.display()));
}

/// One OHB sweep (Figs. 9–11): GroupByTest and SortByTest on Frontera under
/// `systems` (IPoIB first: it is the ratios' base) at each worker count,
/// with the stage breakdown of the paper's bars; each cell is traced into
/// `--trace-dir` when that is set.
fn ohb_sweep(
    run: &mut Run<'_>,
    systems: &[System],
    mut workers_list: Vec<usize>,
    gb_per_worker: impl Fn(usize) -> u64,
) {
    let cores = run.scale.frontera_cores();
    workers_list.dedup(); // small scale collapses neighbouring paper sizes
                          // Small clusters first: a sweep that dies in its widest cells has
                          // already recorded every cell it could run.
    for &workers in &workers_list {
        let gb = gb_per_worker(workers);
        for bench in [OhbBench::GroupBy, OhbBench::SortBy] {
            let mut vanilla = None;
            for &system in systems {
                let c = run_cell(system, bench, workers, cores, gb, run.trace_dir.is_some());
                dump_timeline(run, bench, system, workers, &c);
                let read = c.breakdown.shuffle_read_ns;
                let (base_total, base_read) = *vanilla.get_or_insert((c.total_ns, read));
                let cell = [
                    ("bench", bench.name().to_string()),
                    (
                        "config",
                        format!("{}GB/{workers}w/{}c", gb * workers as u64, workers as u32 * cores),
                    ),
                    ("system", system.label().to_string()),
                ];
                let values = vec![
                    ("datagen_ns", c.breakdown.datagen_ns as i64),
                    ("shuffle_write_ns", c.breakdown.shuffle_write_ns as i64),
                    ("shuffle_read_ns", read as i64),
                    ("total_vs_ipoib_x1000", x1000(base_total, c.total_ns)),
                    ("read_vs_ipoib_x1000", x1000(base_read, read)),
                    ("check", c.check as i64),
                ];
                run.emit(&cell, c.total_ns, values);
            }
        }
    }
}

/// Fig. 9: MPI4Spark-Basic vs -Optimized vs Vanilla, 28 GB @ 112 cores and
/// 56 GB @ 224 cores. Paper: Optimized beats Basic because Basic's selector
/// loop spins in `select()` + `MPI_Iprobe`, "starving the actual compute
/// tasks" (§VII-B).
pub fn fig09(run: &mut Run<'_>) {
    let (scale, gb) = (run.scale, run.scale.gb(14));
    let systems = [System::Vanilla, System::Mpi4SparkBasic, System::Mpi4Spark];
    ohb_sweep(run, &systems, vec![scale.workers(2), scale.workers(4)], |_| gb);
}

const SCALING_SYSTEMS: [System; 3] = [System::Vanilla, System::RdmaSpark, System::Mpi4Spark];

fn scaling_workers(scale: Scale) -> Vec<usize> {
    [8, 16, 32].iter().map(|w| scale.workers(*w)).collect()
}

/// Fig. 10: weak scaling, 14 GB/worker on 8, 16, 32 workers. Paper at 448
/// cores: GroupBy total 4.23× vs IPoIB / 2.04× vs RDMA, shuffle read
/// 13.08× / 5.56×; at 1792 cores: total 3.78× / 2.07×.
pub fn fig10(run: &mut Run<'_>) {
    let (scale, gb) = (run.scale, run.scale.gb(14));
    ohb_sweep(run, &SCALING_SYSTEMS, scaling_workers(scale), |_| gb);
}

/// Fig. 11: strong scaling, 224 GB total across 8, 16, 32 workers. Paper at
/// 448 cores: GroupBy 3.72× / 2.06×, SortBy 3.51× / 1.41×.
pub fn fig11(run: &mut Run<'_>) {
    let (scale, total_gb) = (run.scale, run.scale.gb(224));
    ohb_sweep(run, &SCALING_SYSTEMS, scaling_workers(scale), |w| (total_gb / w as u64).max(1));
}

fn fig12(run: &mut Run<'_>, stampede2: bool) {
    let scale = run.scale;
    let shrink = if scale == Scale::Full { 1 } else { 32 };
    let (spec, params, workloads) = if stampede2 {
        let workers = scale.workers(8);
        // 48 cores × 2 HT per §VII-C.
        let cores = if scale == Scale::Full { 96 } else { 4 };
        let params = HiBenchParams { workers, cores, shrink };
        (crate::stampede2_cluster(workers), params, HiBenchWorkload::stampede2_set())
    } else {
        let workers = scale.workers(16);
        let params = HiBenchParams { workers, cores: scale.frontera_cores(), shrink };
        (crate::frontera_cluster(workers), params, HiBenchWorkload::frontera_set())
    };
    for w in workloads {
        let mut vanilla = None;
        for system in System::available_on(&spec) {
            let total = run_hibench(system, &spec, params, w);
            let base = *vanilla.get_or_insert(total);
            let cell = [("workload", w.name().to_string()), ("system", system.label().to_string())];
            run.emit(&cell, total, vec![("total_vs_ipoib_x1000", x1000(base, total))]);
        }
    }
}

/// Fig. 12(a,b): HiBench Huge on Frontera, 16 workers × 56 cores, IPoIB /
/// RDMA / MPI. Paper: LDA 1.74×/1.66×, SVM 1.17×/1.10×, GMM 1.50×,
/// Repartition 1.49×, NWeight 1.61× (≈RDMA), TeraSort ≈par.
pub fn fig12_frontera(run: &mut Run<'_>) {
    fig12(run, false);
}

/// Fig. 12(c): HiBench Huge on Stampede2, 8 workers × 48 cores × 2 HT,
/// Omni-Path, no RDMA-Spark (IB-only). Paper: LR 2.17×, GMM 1.09×, SVM
/// 1.16×, Repartition 1.48×.
pub fn fig12_stampede2(run: &mut Run<'_>) {
    fig12(run, true);
}

/// Table IV: every workload of both suites runs under MPI4Spark (always at
/// smoke size) and reports its category and a sanity value.
pub fn table4(run: &mut Run<'_>) {
    let spec = crate::frontera_cluster(2);
    let conf = SparkConf::paper_defaults(4);
    let cluster = || ClusterConfig::paper_layout(spec.len(), conf);
    let ohb = OhbConfig {
        partitions: 8,
        records_per_partition: 32,
        value_bytes: 1 << 14,
        key_range: 64,
        seed: 4,
    };
    let micro =
        MicroConfig { partitions: 8, records_per_partition: 24, record_bytes: 1 << 13, seed: 4 };
    let ml = MlConfig {
        partitions: 8,
        samples_per_partition: 96,
        virtual_samples_per_partition: 96,
        dim: 8,
        iterations: 3,
        agg_partitions: 4,
        pad_bytes: 2048,
        seed: 4,
    };
    let nw = NWeightConfig {
        vertices: 64,
        degree: 3,
        hops: 2,
        partitions: 8,
        payload_pad: 256,
        seed: 4,
    };

    type App = Box<dyn FnOnce(&SparkContext) -> i64 + Send>;
    let (hibench, ml_cat, micro_cat) = ("HiBench", "Machine Learning", "Micro Benchmarks");
    let rows: Vec<(&str, &str, &str, &'static str, App)> = vec![
        (
            hibench,
            "SVM",
            ml_cat,
            "loss_x1000",
            Box::new(move |sc| real_x1000(svm_app(sc, ml).final_loss)),
        ),
        (
            hibench,
            "LDA",
            ml_cat,
            "loss_x1000",
            Box::new(move |sc| real_x1000(lda_app(sc, ml, 32, 4).final_loss)),
        ),
        (
            hibench,
            "GMM",
            ml_cat,
            "loss_x1000",
            Box::new(move |sc| real_x1000(gmm_app(sc, ml, 2).final_loss)),
        ),
        (
            hibench,
            "LR",
            ml_cat,
            "loss_x1000",
            Box::new(move |sc| real_x1000(lr_app(sc, ml).final_loss)),
        ),
        (
            hibench,
            "Repartition",
            micro_cat,
            "check",
            Box::new(move |sc| repartition_app(sc, micro) as i64),
        ),
        (
            hibench,
            "TeraSort",
            micro_cat,
            "check",
            Box::new(move |sc| terasort_app(sc, micro) as i64),
        ),
        (hibench, "NWeight", "Graph", "check", Box::new(move |sc| nweight_app(sc, nw) as i64)),
        (
            "OHB",
            "GroupBy",
            "RDD Benchmarks",
            "check",
            Box::new(move |sc| group_by_app(sc, ohb) as i64),
        ),
        (
            "OHB",
            "SortBy",
            "RDD Benchmarks",
            "check",
            Box::new(move |sc| sort_by_app(sc, ohb) as i64),
        ),
    ];
    for (suite, workload, category, check, app) in rows {
        let r = System::Mpi4Spark.run(&spec, cluster(), app);
        let cell = [
            ("benchmark_suite", suite.to_string()),
            ("workload", workload.to_string()),
            ("category", category.to_string()),
        ];
        run.emit(&cell, r.total_ns(), vec![(check, r.result)]);
    }
}

/// One small traced GroupBy cell: the timeline must be valid Chrome-trace
/// JSON carrying every layer's spans. CI runs this suite in two processes
/// with `--trace-dir` and `cmp`s the files — the export is byte-identical
/// across same-seed runs.
pub fn traced(run: &mut Run<'_>) {
    let (system, bench, workers) = (System::Mpi4Spark, OhbBench::GroupBy, 2);
    let cell = run_cell(system, bench, workers, 4, 1, true);
    assert!(cell.check > 0, "workload sanity value must be positive");
    let json = cell.timeline.as_deref().expect("a traced cell has a timeline");
    obs::timeline::validate_json(json).unwrap_or_else(|e| panic!("invalid timeline JSON: {e}"));
    for name in ["simt.task", "netz.msg.send", "spark.stage", "rmpi.coll.bcast"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "timeline lacks {name} spans");
    }
    dump_timeline(run, bench, system, workers, &cell);
    let mut values = vec![("check", cell.check as i64), ("timeline_bytes", json.len() as i64)];
    // The engine's own counters: deterministic, so the ledger pins them too,
    // and the channels opened: one connection per peer pair, so a return of
    // racing connects moves this line.
    values.extend(counters(&cell.metrics, &keys::SIMT_STATS));
    values.extend(counters(&cell.metrics, &[keys::NETZ_CHANNELS_OPENED]));
    run.emit(&[("bench", bench.name().to_string())], cell.total_ns, values);
}

/// GroupByTest over *real* records on all four systems: 4 workers × 4 cores,
/// the virtual volume of the 1 GiB/worker cell carried by 200 k records per
/// partition (20 k at small scale) instead of 64, so the ledger gate runs
/// sparklet's record path — bucket, encode, decode, group — at volume. The
/// group count must equal the distinct keys replayed from the seed.
pub fn realdata(run: &mut Run<'_>) {
    let (workers, cores) = (4, 4);
    let records = if run.scale == Scale::Full { 200_000 } else { 20_000 };
    let paper = OhbConfig::paper(workers, cores, 1);
    let partition_bytes = paper.records_per_partition * u64::from(paper.value_bytes);
    let cfg = OhbConfig {
        records_per_partition: records,
        value_bytes: (partition_bytes / records) as u32,
        key_range: paper.partitions as u64 * records / 4,
        ..paper
    };
    let want = distinct_keys(cfg);
    let spec = crate::frontera_cluster(workers);
    for system in [System::Vanilla, System::RdmaSpark, System::Mpi4SparkBasic, System::Mpi4Spark] {
        let cluster = ClusterConfig::paper_layout(spec.len(), SparkConf::paper_defaults(cores));
        let out = system.run(&spec, cluster, move |sc| group_by_app(sc, cfg));
        assert_eq!(out.result, want, "{}: groups differ from the replayed keys", system.label());
        let read = StageBreakdown::from_jobs(&out.jobs).shuffle_read_ns;
        let values = vec![("shuffle_read_ns", read as i64), ("check", out.result as i64)];
        run.emit(&[("system", system.label().to_string())], out.total_ns(), values);
    }
}
