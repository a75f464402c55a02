//! The unified system-under-test runner.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use mpi4spark::Design;
use rdma_spark::RdmaBackend;
use simt::sync::{Mutex, OnceCell};
use simt::Sim;
use sparklet::deploy::{ClusterConfig, ProcessBuilderLauncher};
use sparklet::scheduler::{JobMetrics, SparkContext};
use sparklet::VanillaBackend;

/// The systems the paper evaluates (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Vanilla Spark — Netty NIO over sockets ("IPoIB" in the figures).
    Vanilla,
    /// RDMA-Spark — UCR `BlockTransferService` (IB only).
    RdmaSpark,
    /// MPI4Spark-Basic (§VI-D).
    Mpi4SparkBasic,
    /// MPI4Spark-Optimized (§VI-E) — "MPI" in the figures.
    Mpi4Spark,
}

impl System {
    /// Label used in tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            System::Vanilla => "IPoIB",
            System::RdmaSpark => "RDMA",
            System::Mpi4SparkBasic => "MPI-Basic",
            System::Mpi4Spark => "MPI",
        }
    }

    /// All systems runnable on `spec`'s interconnect (RDMA-Spark is
    /// IB-only, hence absent from the paper's Stampede2 results).
    pub fn available_on(spec: &ClusterSpec) -> Vec<System> {
        let mut v = vec![System::Vanilla];
        if spec.interconnect.kind == fabric::FabricKind::InfiniBand {
            v.push(System::RdmaSpark);
        }
        v.push(System::Mpi4Spark);
        v
    }
}

/// Result of running one workload on one system.
pub struct RunOutcome<R> {
    /// Workload return value.
    pub result: R,
    /// Per-job metrics in submission order.
    pub jobs: Vec<JobMetrics>,
    /// Final metrics snapshot of the run's registry (fabric, netz, and
    /// process-wide spark counters; per-task counters live in
    /// [`JobMetrics`] stage snapshots).
    pub metrics: obs::MetricsSnapshot,
    /// Virtual time when the simulation went quiet ([`simt::SimReport::now`]):
    /// the application's end plus its processes' shutdown.
    pub end_ns: u64,
    /// Chrome-trace timeline JSON, present when the run's `SparkConf` set
    /// `trace_timeline`. Byte-identical across re-runs of the same seed.
    pub timeline: Option<String>,
    /// Green threads the run spawned per name prefix
    /// ([`simt::Sim::spawn_census`]).
    pub spawned: BTreeMap<String, u64>,
    /// The run's engine, which nothing may hold once the run has returned.
    pub engine: simt::SimRef,
}

/// Every run's [`RunOutcome::spawned`], summed over this process.
static SPAWNED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Green threads spawned per name prefix by every run in this process so
/// far, largest first (ties by name). Host-side bookkeeping: it depends on
/// what the process ran, so it belongs in notes, never in a ledger value.
pub fn spawn_census() -> Vec<(String, u64)> {
    let mut census: Vec<(String, u64)> = SPAWNED.lock().clone().into_iter().collect();
    census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    census
}

impl<R> RunOutcome<R> {
    /// Total virtual duration summed over all jobs.
    pub fn total_ns(&self) -> u64 {
        self.jobs.iter().map(JobMetrics::duration_ns).sum()
    }
}

impl System {
    /// Run `app` on a fresh simulation of `spec` hardware with the paper's
    /// cluster layout. One call = one experiment cell.
    pub fn run<R: Send + Sync + 'static>(
        &self,
        spec: &ClusterSpec,
        cluster: ClusterConfig,
        app: impl FnOnce(&SparkContext) -> R + Send + 'static,
    ) -> RunOutcome<R> {
        self.run_inner(spec, cluster, None, app)
    }

    /// [`System::run`] with a seeded fault plan installed on the fabric
    /// before any process starts. The whole run — fault schedule, retry
    /// timing, results — is a pure function of the plan's seed.
    pub fn run_with_chaos<R: Send + Sync + 'static>(
        &self,
        spec: &ClusterSpec,
        cluster: ClusterConfig,
        plan: fabric::FaultPlan,
        app: impl FnOnce(&SparkContext) -> R + Send + 'static,
    ) -> RunOutcome<R> {
        self.run_inner(spec, cluster, Some(plan), app)
    }

    fn run_inner<R: Send + Sync + 'static>(
        &self,
        spec: &ClusterSpec,
        cluster: ClusterConfig,
        chaos: Option<fabric::FaultPlan>,
        app: impl FnOnce(&SparkContext) -> R + Send + 'static,
    ) -> RunOutcome<R> {
        let sim = Sim::new();
        // One observability context per run: metrics always on, span
        // recording (and the timeline export below) behind the conf flag.
        let obs =
            if cluster.conf.trace_timeline { obs::Obs::traced() } else { obs::Obs::disabled() };
        let net = Net::with_obs(spec, obs.clone());
        if obs.is_traced() {
            sim.set_observer(Arc::new(obs::TaskSpans::new(&obs)));
        }
        if let Some(plan) = chaos {
            net.install_chaos(plan);
        }
        let out: OnceCell<(R, Vec<JobMetrics>)> = OnceCell::new();
        let out2 = out.clone();
        let system = *self;
        let interconnect = spec.interconnect.clone();
        let conf = cluster.conf;
        let mpi_backend =
            move |design: Design| Arc::new(mpi4spark::MpiBackend::with_conf(design, &conf));
        sim.spawn("launcher", move || {
            let r = match system {
                System::Vanilla => sparklet::deploy::run_app(
                    &net,
                    &cluster,
                    Arc::new(VanillaBackend::with_conf(&conf)),
                    Arc::new(ProcessBuilderLauncher),
                    app,
                ),
                System::RdmaSpark => sparklet::deploy::run_app(
                    &net,
                    &cluster,
                    Arc::new(RdmaBackend::with_conf(&interconnect, &conf)),
                    Arc::new(ProcessBuilderLauncher),
                    app,
                ),
                System::Mpi4SparkBasic => {
                    mpi4spark::run_app_with_backend(&net, &cluster, mpi_backend(Design::Basic), app)
                }
                System::Mpi4Spark => mpi4spark::run_app_with_backend(
                    &net,
                    &cluster,
                    mpi_backend(Design::Optimized),
                    app,
                ),
            };
            out2.put(r);
        });
        let report = sim.run().expect("simulation completes");
        report.assert_clean();
        let (result, jobs) = out.try_take().expect("workload finished");
        // The timeline's bytes cover the registry and are pinned, so the
        // engine's counters join the snapshot after the export.
        let timeline = obs.is_traced().then(|| obs.export_timeline());
        obs.record_sim_stats(sim.stats());
        let metrics = obs.registry().snapshot();
        let spawned = sim.spawn_census();
        let mut total = SPAWNED.lock();
        for (prefix, n) in &spawned {
            *total.entry(prefix.clone()).or_default() += n;
        }
        drop(total);
        sim.shutdown();
        let end_ns = report.now;
        RunOutcome { result, jobs, metrics, end_ns, timeline, spawned, engine: sim.downgrade() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(System::Vanilla.label(), "IPoIB");
        assert_eq!(System::RdmaSpark.label(), "RDMA");
        assert_eq!(System::Mpi4Spark.label(), "MPI");
    }

    #[test]
    fn rdma_unavailable_on_omni_path() {
        let stampede = ClusterSpec::stampede2(4);
        let systems = System::available_on(&stampede);
        assert!(!systems.contains(&System::RdmaSpark));
        let frontera = ClusterSpec::frontera(4);
        assert!(System::available_on(&frontera).contains(&System::RdmaSpark));
    }
}
