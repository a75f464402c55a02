//! The executor process: task slots, block manager, shuffle service, and
//! the `Executor` RPC endpoint.

use std::sync::Arc;

use fabric::{Net, NodeId};
use simt::sync::{Mutex, Notify};

use crate::config::SparkConf;
use crate::deploy::messages::ExecutorSpec;
use crate::net_backend::{NetworkBackend, ProcIdentity, Role};
use crate::rpc::{AnyMsg, ReplyFn, RpcEndpoint, RpcEnv, RpcRef};
use crate::scheduler::{
    InvalidateShuffle, LaunchTask, RegisterExecutor, StopExecutor, TaskFinishedMsg,
};
use crate::shuffle::MapOutputClient;
use crate::storage::BlockManager;
use crate::task::{ExecutorServices, TaskContext};
use crate::transfer::{
    BlockTransferService, NettyBlockTransferService, RetryingBlockFetcher, ShuffleService,
};

/// Arguments for [`executor_main`].
#[derive(Clone)]
pub struct ExecutorArgs {
    /// The fabric.
    pub net: Net,
    /// Node to run on (same as the launching worker's).
    pub node: NodeId,
    /// Launch specification.
    pub spec: ExecutorSpec,
    /// Network backend.
    pub backend: Arc<dyn NetworkBackend>,
    /// Engine configuration.
    pub conf: SparkConf,
}

/// An executor entry point, pre-bound to its arguments.
pub type ExecutorMain = Box<dyn FnOnce() + Send>;

/// Test hook: shut down this executor's shuffle service (fault injection
/// for the fetch-failure recovery path).
pub struct KillShuffleService;

struct ExecutorEndpoint {
    services: Arc<ExecutorServices>,
    driver: RpcRef,
    stop: Notify,
    shuffle_ep: netz::Endpoint,
}

impl RpcEndpoint for ExecutorEndpoint {
    fn receive(&self, msg: AnyMsg, _reply: Option<ReplyFn>) {
        if let Ok(task) = msg.clone().downcast::<LaunchTask>() {
            let services = self.services.clone();
            let driver = self.driver.clone();
            let name = format!("task-e{}-s{}-p{}", services.exec_id, task.stage_seq, task.part);
            // One green thread per running task = one occupied task slot;
            // slot accounting lives in the driver's scheduler.
            // Launches carry the map-output epoch they were scheduled
            // under; observing it ages out location tables cached before a
            // recovery (Spark's `updateEpoch` on task launch).
            self.services.map_outputs.observe_epoch(task.epoch);
            if !task.cleaned_shuffles.is_empty() {
                self.services.block_manager.remove_shuffles(&task.cleaned_shuffles);
                self.services.map_outputs.forget(&task.cleaned_shuffles);
            }
            simt::spawn_daemon(name, move || {
                let obs = services.net.obs().clone();
                let _span = obs.is_traced().then(|| {
                    obs.span(
                        "spark.task",
                        obs::kv! {"stage_seq" => task.stage_seq,
                        "part" => task.part,
                        "attempt" => task.attempt,
                        "exec" => services.exec_id},
                    )
                });
                let ctx = TaskContext::new(services.clone(), task.part, task.attempt);
                ctx.charge(ctx.cost().task_overhead_ns);
                let t0 = simt::now();
                let output = task.runner.run(&ctx);
                ctx.metrics.counter(obs::keys::TASK_RUN_NS).add(simt::now() - t0);
                let metrics = ctx.metrics.snapshot();
                let wire = 256 + metrics.counter(obs::keys::TASK_RESULT_BYTES);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a completion lost to a crash is settled by the driver's \
                              executor-lost event"
                )]
                let _ = driver.send_sized(
                    TaskFinishedMsg {
                        stage_seq: task.stage_seq,
                        part: task.part,
                        exec_id: services.exec_id,
                        epoch: task.epoch,
                        output: Mutex::new(Some(output)),
                        metrics,
                    },
                    wire,
                );
            });
            return;
        }
        if let Ok(inv) = msg.clone().downcast::<InvalidateShuffle>() {
            self.services.map_outputs.invalidate_as_of(inv.shuffle_id, inv.epoch);
            return;
        }
        if msg.clone().downcast::<KillShuffleService>().is_ok() {
            self.shuffle_ep.shutdown();
            return;
        }
        if msg.downcast::<StopExecutor>().is_ok() {
            self.stop.notify();
        }
    }
}

/// Executor process body: build services, register with the driver, serve
/// tasks until stopped.
pub fn executor_main(args: ExecutorArgs) {
    let identity = ProcIdentity::new(
        Role::Executor(args.spec.exec_id),
        args.node,
        format!("executor-{}", args.spec.exec_id),
    );
    let env = RpcEnv::new(&args.net, &identity, &args.backend, None);
    let block_manager = Arc::new(BlockManager::default());
    let (_svc, shuffle_ep) = ShuffleService::start(
        &identity,
        &args.net,
        &args.backend,
        block_manager.clone(),
        args.conf,
    );
    let transfer = RetryingBlockFetcher::new(
        NettyBlockTransferService::new(&identity, &args.net, &args.backend),
        &args.conf,
        args.spec.exec_id as u64 + 1,
        args.net.obs().clone(),
    );
    let driver_sched = env.endpoint_ref(args.spec.driver_sched_addr, "DagScheduler");
    let tracker_ref = env.endpoint_ref(args.spec.driver_sched_addr, "MapOutputTracker");

    let services = Arc::new(ExecutorServices {
        exec_id: args.spec.exec_id,
        net: args.net.clone(),
        node: args.node,
        cpu: args.net.cpu(args.node),
        conf: args.conf,
        block_manager,
        transfer: transfer.clone(),
        map_outputs: MapOutputClient::new(tracker_ref),
        shuffle_addr: shuffle_ep.addr(),
        rpc_env: env.clone(),
        driver_addr: args.spec.driver_sched_addr,
        broadcast_cache: Mutex::new(Default::default()),
    });

    let stop = Notify::new();
    env.register(
        "Executor",
        Arc::new(ExecutorEndpoint {
            services,
            driver: driver_sched.clone(),
            stop: stop.clone(),
            shuffle_ep: shuffle_ep.clone(),
        }),
    );

    // Fetch the application jar from the driver before accepting tasks
    // (paper §VI-E: jar dependencies travel as StreamResponse, whose body
    // the Optimized design moves over MPI).
    if args.spec.jar_bytes > 0 {
        let jar = env
            .fetch_stream(args.spec.driver_sched_addr, "/jars/app.jar")
            .expect("application jar reachable");
        assert_eq!(jar.virtual_len, args.spec.jar_bytes.max(3), "jar size mismatch");
    }

    driver_sched
        .ask::<bool>(RegisterExecutor {
            exec_id: args.spec.exec_id,
            cores: args.spec.cores,
            rpc_addr: env.addr(),
        })
        .expect("driver reachable during executor registration");

    stop.wait();
    transfer.close();
    shuffle_ep.shutdown();
    env.shutdown();
}
