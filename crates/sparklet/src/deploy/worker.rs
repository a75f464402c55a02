//! The worker process: registers with the master and launches executors on
//! command through the configured [`crate::deploy::ExecutorLauncher`].

use std::sync::Arc;

use fabric::{Net, NodeId, PortAddr};
use simt::sync::Notify;

use crate::config::SparkConf;
use crate::deploy::executor::{executor_main, ExecutorArgs};
use crate::deploy::master::MASTER_PORT;
use crate::deploy::messages::*;
use crate::deploy::ExecutorLauncher;
use crate::net_backend::{NetworkBackend, ProcIdentity, Role};
use crate::rpc::{AnyMsg, ReplyFn, RpcEndpoint, RpcEnv};

/// Arguments for [`worker_main`].
pub struct WorkerArgs {
    /// The fabric.
    pub net: Net,
    /// Node to run on.
    pub node: NodeId,
    /// Worker index.
    pub index: usize,
    /// Node hosting the master.
    pub master_node: NodeId,
    /// Network backend.
    pub backend: Arc<dyn NetworkBackend>,
    /// Executor launch strategy.
    pub launcher: Arc<dyn ExecutorLauncher>,
    /// Engine configuration (handed to executors).
    pub conf: SparkConf,
}

struct WorkerEndpoint {
    net: Net,
    node: NodeId,
    backend: Arc<dyn NetworkBackend>,
    launcher: Arc<dyn ExecutorLauncher>,
    conf: SparkConf,
    stop: Notify,
}

impl RpcEndpoint for WorkerEndpoint {
    fn receive(&self, msg: AnyMsg, _reply: Option<ReplyFn>) {
        if let Ok(cmd) = msg.clone().downcast::<LaunchExecutorCmd>() {
            let spec = cmd.spec;
            let args = ExecutorArgs {
                net: self.net.clone(),
                node: self.node,
                spec,
                backend: self.backend.clone(),
                conf: self.conf,
            };
            let main: crate::deploy::ExecutorMain = Box::new(move || executor_main(args));
            // May block coordinating with other workers (DPM allgather +
            // collective spawn under MPI4Spark, §V) — safe on this
            // endpoint's own dispatcher thread.
            self.launcher.launch(self.node, spec.exec_id, main);
            return;
        }
        if msg.downcast::<StopWorker>().is_ok() {
            self.stop.notify();
        }
    }
}

/// Worker process body.
pub fn worker_main(args: WorkerArgs) {
    let identity =
        ProcIdentity::new(Role::Worker(args.index), args.node, format!("worker-{}", args.index));
    let env = RpcEnv::new(&args.net, &identity, &args.backend, None);
    let stop = Notify::new();
    let ep = Arc::new(WorkerEndpoint {
        net: args.net.clone(),
        node: args.node,
        backend: args.backend.clone(),
        launcher: args.launcher.clone(),
        conf: args.conf,
        stop: stop.clone(),
    });
    env.register("Worker", ep);

    // Register with the master, retrying while it comes up.
    let master_ref =
        env.endpoint_ref(PortAddr { node: args.master_node, port: MASTER_PORT }, "Master");
    loop {
        let r = master_ref.ask::<bool>(RegisterWorker {
            worker_id: args.index,
            node: args.node,
            rpc_addr: env.addr(),
        });
        if matches!(r.as_deref(), Ok(true)) {
            break;
        }
        simt::sleep(simt::time::millis(10));
    }

    stop.wait();
    env.shutdown();
}
