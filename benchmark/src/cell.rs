//! One cell: a fresh `simt::Sim` + `fabric::Net` + cluster launch + the
//! workload's jobs + `sim.shutdown()`. The launch is
//! `workloads::System::run_inner` done again here, so that the harness keeps
//! the `obs::Obs` handle and can stamp host time where the app closure starts.

use std::sync::Arc;

use fabric::Net;
use mpi4spark::{Design, MpiBackend};
use rdma_spark::RdmaBackend;
use simt::sync::OnceCell;
use simt::Sim;
use sparklet::deploy::{self, ProcessBuilderLauncher};
use sparklet::scheduler::JobMetrics;
use sparklet::VanillaBackend;
use workloads::System;

use crate::spans::Recorder;
use crate::workload::Workload;

pub struct Cell {
    pub system: System,
    /// The workload's outcome, reduced to one word (see `Workload::run`).
    pub result: u64,
    pub jobs: Vec<JobMetrics>,
    pub metrics: obs::MetricsSnapshot,
    /// The program's own spans; empty unless the cell was traced.
    pub records: Vec<obs::SpanRecord>,
    /// Size of the Chrome-trace export; 0 unless the cell was traced.
    pub timeline_bytes: usize,
    /// No deadlock and no blocked non-daemon thread at quiescence.
    pub clean: bool,
    /// Virtual time at which the app closure started.
    pub launch_virtual_ns: u64,
    /// `Sim::new()` to app-closure entry.
    pub setup_s: f64,
    /// App-closure entry to `sim.shutdown()` returning.
    pub wall_s: f64,
    pub datagen_host_s: f64,
    pub action_host_s: f64,
    pub shutdown_host_s: f64,
}

impl Cell {
    pub fn job_virtual_ns(&self) -> u64 {
        self.jobs.iter().map(JobMetrics::duration_ns).sum()
    }
}

pub fn run_cell(w: &Workload, system: System, traced: bool, rec: &Arc<Recorder>) -> Cell {
    let cell_span = rec.open(&format!("cell.{}", system.label()), 0, 0);
    let setup_span = rec.open("setup", cell_span, 0);
    let sim = Sim::new();
    let obs = if traced { obs::Obs::traced() } else { obs::Obs::disabled() };
    let (spec, cluster) = w.cluster(traced);
    let net = Net::with_obs(&spec, obs.clone());
    if traced {
        sim.set_observer(Arc::new(obs::TaskSpans::new(&obs)));
    }

    let app = {
        let (w, rec) = (*w, rec.clone());
        move |sc: &sparklet::scheduler::SparkContext| {
            let launch_virtual_ns = simt::now();
            rec.close(setup_span, launch_virtual_ns);
            let app_span = rec.open("app", cell_span, launch_virtual_ns);
            let result = w.run(sc, &rec, app_span);
            rec.close(app_span, simt::now());
            let teardown_span = rec.open("teardown", cell_span, simt::now());
            (result, app_span, teardown_span)
        }
    };
    let out: OnceCell<((u64, u64, u64), Vec<JobMetrics>)> = OnceCell::new();
    let out2 = out.clone();
    let conf = cluster.conf;
    let interconnect = spec.interconnect.clone();
    sim.spawn("launcher", move || {
        let mpi = |design| Arc::new(MpiBackend::with_conf(design, &conf));
        let launcher = Arc::new(ProcessBuilderLauncher);
        out2.put(match system {
            System::Vanilla => {
                let backend = Arc::new(VanillaBackend::with_conf(&conf));
                deploy::run_app(&net, &cluster, backend, launcher, app)
            }
            System::RdmaSpark => {
                let backend = Arc::new(RdmaBackend::with_conf(&interconnect, &conf));
                deploy::run_app(&net, &cluster, backend, launcher, app)
            }
            System::Mpi4SparkBasic => {
                mpi4spark::run_app_with_backend(&net, &cluster, mpi(Design::Basic), app)
            }
            System::Mpi4Spark => {
                mpi4spark::run_app_with_backend(&net, &cluster, mpi(Design::Optimized), app)
            }
        });
    });

    let report = sim.run().expect("simulation completes");
    let ((result, app_span, teardown_span), jobs) = out.try_take().expect("workload finished");
    rec.close(teardown_span, report.now);
    let metrics = obs.registry().snapshot();
    let records = obs.tracer().records();
    let timeline_bytes = if traced { obs.export_timeline().len() } else { 0 };
    let shutdown = rec.scope("shutdown", cell_span, |id| {
        sim.shutdown();
        id
    });
    rec.close(cell_span, report.now);

    let spans = rec.snapshot();
    let span = |id: u64| &spans[id as usize - 1];
    let job_host_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == app_span && s.name == name)
            .fold(0.0, |sum, s| sum + s.host_s())
    };
    Cell {
        system,
        result,
        jobs,
        metrics,
        records,
        timeline_bytes,
        clean: report.deadlocks.is_empty() && report.blocked.is_empty(),
        launch_virtual_ns: span(setup_span).virtual_end_ns,
        setup_s: span(setup_span).host_s(),
        wall_s: (span(cell_span).host_end_ns - span(app_span).host_start_ns) as f64 / 1e9,
        datagen_host_s: job_host_s("job.datagen"),
        action_host_s: job_host_s("job.action"),
        shutdown_host_s: span(shutdown).host_s(),
    }
}
