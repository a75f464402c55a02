//! Launching the Spark ecosystem with MPI (paper §V, Fig. 3).
//!
//! `mpiexec` starts W+2 wrapper ranks (Step A). Each wrapper "forks" its
//! Spark process — worker ranks `0..W`, the master at rank `W`, the driver
//! at rank `W+1` (Step B) — and then acts as a *DPM agent*: when the master
//! commands executor launches, each worker's `DpmLauncher` hands its
//! executor specification to its wrapper, the wrappers exchange the full
//! set with `MPI_Allgather`, and all of `MPI_COMM_WORLD` collectively calls
//! `MPI_Comm_spawn_multiple` to create the executors (Step C). Executors
//! share the child world (`DPM_COMM`) and reach their parents through the
//! returned intercommunicator.

use std::sync::Arc;

use fabric::{Net, NodeId};
use rmpi::{mpiexec_with, Comm, SpawnSpec};
use simt::queue::Queue;
use simt::sync::{Mutex, OnceCell};
use sparklet::deploy::{self, master, worker, ClusterConfig, ExecutorLauncher, ExecutorMain};
use sparklet::net_backend::{NetworkBackend, Role};
use sparklet::scheduler::JobMetrics;

use crate::backend::{Design, MpiBackend};
use crate::ctx::MpiProcCtx;

/// One executor awaiting collective spawn: its target node plus the
/// pre-bound entry closure (the paper's "executable specification").
pub struct SpawnUnit {
    /// Executor id (the process is `executor-<exec_id>`).
    pub exec_id: usize,
    /// Node to spawn on (the worker's own node).
    pub node: NodeId,
    main: Mutex<Option<ExecutorMain>>,
}

/// Executor launcher used under MPI4Spark: forwards the executor spec to
/// this wrapper rank's DPM agent instead of forking directly (§V:
/// "`ProcessBuilder` ... can no longer work ... DPM here was used").
pub struct DpmLauncher {
    agent: Queue<Arc<SpawnUnit>>,
}

impl DpmLauncher {
    /// Launcher feeding `agent`.
    pub fn new(agent: Queue<Arc<SpawnUnit>>) -> Self {
        DpmLauncher { agent }
    }
}

impl ExecutorLauncher for DpmLauncher {
    fn launch(&self, node: NodeId, exec_id: usize, main: ExecutorMain) {
        self.agent.send(Arc::new(SpawnUnit { exec_id, node, main: Mutex::new(Some(main)) }));
    }
}

/// One collective spawn round executed by every wrapper rank: allgather the
/// executor specifications (workers contribute one; master/driver
/// contribute none) and spawn the executors with root 0. Each child
/// registers its communicators with `backend` before running the executor.
fn dpm_round(
    world: &Comm,
    ctx: &Arc<MpiProcCtx>,
    backend: &Arc<MpiBackend>,
    my_unit: Option<Arc<SpawnUnit>>,
) {
    let units = world.allgather(my_unit, 256).expect("executor-spec allgather");
    let specs = if world.rank() == 0 {
        let specs: Vec<SpawnSpec> = units
            .into_iter()
            .flatten()
            .map(|u| {
                let backend = backend.clone();
                SpawnSpec::new(format!("executor-{}", u.exec_id), u.node, move |child_world| {
                    let parent = child_world.parent().expect("DPM child has a parent");
                    backend.register(
                        Role::Executor(u.exec_id),
                        MpiProcCtx::dpm_proc(child_world, parent),
                    );
                    let main = u.main.lock().take().expect("executor spawned once");
                    main();
                })
            })
            .collect();
        Some(specs)
    } else {
        None
    };
    let inter = world.spawn_multiple(0, specs).expect("collective executor spawn");
    ctx.set_inter(inter);
}

/// Launch the full MPI4Spark stack on `cluster` and run `app` on the
/// driver. Must be called from a simulation green thread; blocks until the
/// application finishes and returns its result plus per-job metrics.
pub fn run_app<R: Send + Sync + 'static>(
    net: &Net,
    cluster: &ClusterConfig,
    design: Design,
    app: impl FnOnce(&sparklet::scheduler::SparkContext) -> R + Send + 'static,
) -> (R, Vec<JobMetrics>) {
    run_app_with_backend(net, cluster, Arc::new(MpiBackend::with_conf(design, &cluster.conf)), app)
}

/// [`run_app`] with an explicit (possibly tuned) backend.
pub fn run_app_with_backend<R: Send + Sync + 'static>(
    net: &Net,
    cluster: &ClusterConfig,
    backend: Arc<MpiBackend>,
    app: impl FnOnce(&sparklet::scheduler::SparkContext) -> R + Send + 'static,
) -> (R, Vec<JobMetrics>) {
    let w = cluster.worker_nodes.len();
    let mut placements: Vec<NodeId> = cluster.worker_nodes.clone();
    placements.push(cluster.master_node);
    placements.push(cluster.driver_node);

    let result: OnceCell<(R, Vec<JobMetrics>)> = OnceCell::new();
    let mut entries: Vec<rmpi::launch::RankEntry> = Vec::with_capacity(w + 2);

    // Worker wrapper ranks 0..W (Fig. 3: ranks 0,1 are workers).
    for (i, node) in cluster.worker_nodes.iter().copied().enumerate() {
        let net = net.clone();
        let backend = backend.clone();
        let conf = cluster.conf;
        let master_node = cluster.master_node;
        entries.push(Box::new(move |world: Comm| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            backend.register(Role::Worker(i), ctx.clone());
            let agent: Queue<Arc<SpawnUnit>> = Queue::new();
            let launcher = Arc::new(DpmLauncher::new(agent.clone()));
            let args = worker::WorkerArgs {
                net,
                node,
                index: i,
                master_node,
                backend: backend.clone(),
                launcher,
                conf,
            };
            // "Fork" the Spark worker process (Step B).
            simt::spawn(format!("spark-worker-{i}"), move || worker::worker_main(args));
            // DPM agent: one executor wave per application.
            let unit = agent.recv().expect("worker received a LaunchExecutor command");
            dpm_round(&world, &ctx, &backend, Some(unit));
        }));
    }

    // Master wrapper, rank W.
    {
        let net = net.clone();
        let backend = backend.clone();
        let node = cluster.master_node;
        entries.push(Box::new(move |world: Comm| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            backend.register(Role::Master, ctx.clone());
            let args =
                master::MasterArgs { net, node, backend: backend.clone(), expected_workers: w };
            simt::spawn("spark-master", move || master::master_main(args));
            dpm_round(&world, &ctx, &backend, None);
        }));
    }

    // Driver wrapper, rank W+1.
    {
        let net = net.clone();
        let backend = backend.clone();
        let cluster = cluster.clone();
        let result = result.clone();
        entries.push(Box::new(move |world: Comm| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            backend.register(Role::Driver, ctx.clone());
            {
                let backend: Arc<dyn NetworkBackend> = backend.clone();
                simt::spawn("spark-driver", move || {
                    result.put(deploy::driver_main(&net, &cluster, backend, app));
                });
            }
            dpm_round(&world, &ctx, &backend, None);
        }));
    }

    mpiexec_with(net, &placements, entries);
    result.take()
}
