//! Cluster deployment: master / worker / executor / driver processes and
//! the standalone launcher (Spark's `deploy` package).
//!
//! The [`ExecutorLauncher`] seam is where MPI4Spark differs from standalone
//! Spark: "Executors in Spark are originally launched using the
//! `ProcessBuilder` class in Java... instead, DPM here was used to launch
//! the executors" (paper §V). [`ProcessBuilderLauncher`] forks a simulated
//! process directly; `mpi4spark::DpmLauncher` allgathers executor specs
//! across worker ranks and spawns them collectively.

pub mod executor;
pub mod master;
pub mod messages;
pub mod worker;

use std::sync::Arc;

use fabric::{Net, NodeId};
use simt::sync::OnceCell;

use crate::config::SparkConf;
use crate::net_backend::{NetworkBackend, ProcIdentity, Role};
use crate::rpc::RpcEnv;
use crate::scheduler::{DagScheduler, JobMetrics, SparkContext, StopExecutor};

pub use executor::{executor_main, ExecutorArgs, ExecutorMain};
pub use messages::*;

/// Cluster topology + engine configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Node hosting the master process.
    pub master_node: NodeId,
    /// Node hosting the driver process.
    pub driver_node: NodeId,
    /// Nodes hosting one worker (and thus one executor) each.
    pub worker_nodes: Vec<NodeId>,
    /// Virtual size of the application jar executors fetch from the driver
    /// at startup (`StreamRequest`/`StreamResponse` path).
    pub app_jar_bytes: u64,
    /// Engine configuration.
    pub conf: SparkConf,
}

impl ClusterConfig {
    /// The paper's usual layout on an `n`-node cluster: workers on nodes
    /// `0..n-2`, master on `n-2`, driver on `n-1`. (Fig. 3 places master
    /// and driver on their own nodes.)
    pub fn paper_layout(total_nodes: usize, conf: SparkConf) -> Self {
        assert!(total_nodes >= 3, "need at least one worker plus master and driver nodes");
        ClusterConfig {
            master_node: total_nodes - 2,
            driver_node: total_nodes - 1,
            worker_nodes: (0..total_nodes - 2).collect(),
            app_jar_bytes: 32 << 20,
            conf,
        }
    }

    /// Total executor task slots.
    pub fn total_cores(&self) -> usize {
        self.worker_nodes.len() * self.conf.executor_cores as usize
    }
}

/// How a worker turns a `LaunchExecutor` command into a running executor
/// process.
pub trait ExecutorLauncher: Send + Sync + 'static {
    /// Launch `main` as executor `exec_id` on `node`. Implementations may
    /// coordinate across workers (DPM) before the executor actually starts.
    fn launch(&self, node: NodeId, exec_id: usize, main: ExecutorMain);
}

/// Standalone Spark's launcher: fork a local process (`ProcessBuilder`).
pub struct ProcessBuilderLauncher;

impl ExecutorLauncher for ProcessBuilderLauncher {
    fn launch(&self, _node: NodeId, exec_id: usize, main: ExecutorMain) {
        simt::spawn_daemon(format!("executor-{exec_id}"), main);
    }
}

/// Deploy a cluster, run `app` on the driver, stop everything, and return
/// the app result plus per-job metrics. Must be called from a simulation
/// green thread; the calling thread acts as the driver process.
pub fn run_app<R: Send + 'static>(
    net: &Net,
    cluster: &ClusterConfig,
    backend: Arc<dyn NetworkBackend>,
    launcher: Arc<dyn ExecutorLauncher>,
    app: impl FnOnce(&SparkContext) -> R + Send,
) -> (R, Vec<JobMetrics>) {
    // Master.
    {
        let net = net.clone();
        let backend = backend.clone();
        let args = master::MasterArgs {
            net,
            node: cluster.master_node,
            backend,
            expected_workers: cluster.worker_nodes.len(),
        };
        simt::spawn_daemon("master", move || master::master_main(args));
    }
    // Workers.
    for (i, node) in cluster.worker_nodes.iter().enumerate() {
        let args = worker::WorkerArgs {
            net: net.clone(),
            node: *node,
            index: i,
            master_node: cluster.master_node,
            backend: backend.clone(),
            launcher: launcher.clone(),
            conf: cluster.conf,
        };
        simt::spawn_daemon(format!("worker-{i}"), move || worker::worker_main(args));
    }
    // Driver (this thread).
    driver_main(net, cluster, backend, app)
}

/// The driver process body: build the RPC environment and scheduler,
/// register the application, wait for executors, run `app`, tear down.
/// Exposed separately so the MPI4Spark wrapper can run it under its own
/// process layout.
pub fn driver_main<R: Send + 'static>(
    net: &Net,
    cluster: &ClusterConfig,
    backend: Arc<dyn NetworkBackend>,
    app: impl FnOnce(&SparkContext) -> R + Send,
) -> (R, Vec<JobMetrics>) {
    let identity = ProcIdentity::new(Role::Driver, cluster.driver_node, "driver");
    let env = RpcEnv::new(net, &identity, &backend, None);
    let sched = Arc::new(DagScheduler::with_conf(cluster.conf));
    sched.attach_env(env.clone());
    env.register("DagScheduler", sched.clone());
    env.register("MapOutputTracker", sched.tracker.clone());

    // Register the application; the master replies NotReady until all its
    // workers have checked in.
    let master_ref = env.endpoint_ref(
        fabric::PortAddr { node: cluster.master_node, port: master::MASTER_PORT },
        "Master",
    );
    // Serve the application jar and broadcast values to executors
    // (Spark's NettyStreamManager + TorrentBroadcast driver side).
    struct DriverStreams {
        jar_bytes: u64,
        broadcasts: Arc<crate::broadcast::BroadcastRegistry>,
    }
    impl netz::StreamManager for DriverStreams {
        fn get_chunk(&self, _s: u64, _c: u32) -> Result<fabric::Payload, String> {
            Err("driver only serves streams".into())
        }
        fn open_stream(&self, name: &str) -> Result<fabric::Payload, String> {
            if name == "/jars/app.jar" {
                return Ok(fabric::Payload::bytes_scaled(
                    bytes::Bytes::from_static(b"JAR"),
                    self.jar_bytes.max(3),
                ));
            }
            if let Some(id) = name.strip_prefix("/broadcast/") {
                let id: u64 = id.parse().map_err(|_| format!("bad broadcast name '{name}'"))?;
                return self.broadcasts.open(id);
            }
            Err(format!("no such file '{name}'"))
        }
    }
    let broadcasts: Arc<crate::broadcast::BroadcastRegistry> = Arc::default();
    env.set_stream_manager(std::sync::Arc::new(DriverStreams {
        jar_bytes: cluster.app_jar_bytes,
        broadcasts: broadcasts.clone(),
    }));

    let n_workers = cluster.worker_nodes.len();
    loop {
        let reply = master_ref.ask::<RegisteredApp>(RegisterApp {
            name: "app".into(),
            driver_sched_addr: env.addr(),
            executor_cores: cluster.conf.executor_cores,
            executor_mem_gb: cluster.conf.executor_mem_gb,
            jar_bytes: cluster.app_jar_bytes,
        });
        match reply {
            Ok(r) if r.executors == n_workers => break,
            Ok(_) | Err(_) => simt::sleep(simt::time::millis(5)),
        }
    }
    sched.wait_for_executors(n_workers);

    let sc = SparkContext::with_broadcasts(
        cluster.conf,
        cluster.total_cores(),
        sched.clone(),
        broadcasts,
    );
    let result = app(&sc);
    let metrics = sc.job_metrics();

    // Teardown: stop executors, then the cluster.
    for exec in sched.executors() {
        #[expect(clippy::let_underscore_must_use, reason = "an unreachable executor is gone")]
        let _ = exec.rpc.send(StopExecutor);
    }
    #[expect(clippy::let_underscore_must_use, reason = "an unreachable master is gone")]
    let _ = master_ref.send(StopCluster);
    simt::sleep(simt::time::millis(5));
    env.shutdown();
    (result, metrics)
}

/// Run `app` inside a fresh simulation on `cluster_spec` hardware;
/// convenience for tests and examples. Returns the result and job metrics.
pub fn simulate<R: Send + 'static>(
    cluster_spec: &fabric::ClusterSpec,
    cluster: ClusterConfig,
    backend: Arc<dyn NetworkBackend>,
    launcher: Arc<dyn ExecutorLauncher>,
    app: impl FnOnce(&SparkContext) -> R + Send + 'static,
) -> (R, Vec<JobMetrics>) {
    let sim = simt::Sim::new();
    let net = Net::new(cluster_spec);
    let out: OnceCell<(R, Vec<JobMetrics>)> = OnceCell::new();
    let out2 = out.clone();
    sim.spawn("driver", move || {
        let r = run_app(&net, &cluster, backend, launcher, app);
        out2.put(r);
    });
    sim.run().expect("simulation completes").assert_clean();
    let result = out.try_take().expect("driver finished");
    sim.shutdown();
    result
}
