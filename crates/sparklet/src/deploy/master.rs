//! The cluster master process.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fabric::{Net, NodeId};
use simt::sync::{Mutex, Notify};

use crate::deploy::messages::*;
use crate::net_backend::{NetworkBackend, ProcIdentity, Role};
use crate::rpc::{AnyMsg, ReplyFn, RpcEndpoint, RpcEnv, RpcRef};

/// Well-known master RPC port (Spark's 7077).
pub const MASTER_PORT: u64 = 7077;

/// Arguments for [`master_main`].
pub struct MasterArgs {
    /// The fabric.
    pub net: Net,
    /// Node to run on.
    pub node: NodeId,
    /// Network backend.
    pub backend: Arc<dyn NetworkBackend>,
    /// Workers the master waits for before accepting applications.
    pub expected_workers: usize,
}

#[derive(Clone)]
struct WorkerHandle {
    rpc: RpcRef,
}

struct MasterEndpoint {
    env: Arc<RpcEnv>,
    workers: Mutex<Vec<WorkerHandle>>,
    expected: usize,
    next_app: AtomicU32,
    stop: Notify,
}

impl RpcEndpoint for MasterEndpoint {
    fn receive(&self, msg: AnyMsg, reply: Option<ReplyFn>) {
        if let Ok(reg) = msg.clone().downcast::<RegisterWorker>() {
            let rpc = self.env.endpoint_ref(reg.rpc_addr, "Worker");
            self.workers.lock().push(WorkerHandle { rpc });
            if let Some(reply) = reply {
                reply(Arc::new(true));
            }
            return;
        }
        if let Ok(app) = msg.clone().downcast::<RegisterApp>() {
            // Snapshot, then send launch commands with the lock released:
            // each send blocks on the virtual clock, and a late
            // `RegisterWorker` must not wedge against a held guard.
            let workers = self.workers.lock().clone();
            if workers.len() < self.expected {
                if let Some(reply) = reply {
                    reply(Arc::new(RegisteredApp { app_id: 0, executors: 0 }));
                }
                return;
            }
            let app_id = self.next_app.fetch_add(1, Ordering::Relaxed);
            for (i, w) in workers.iter().enumerate() {
                let spec = ExecutorSpec {
                    exec_id: i,
                    app_id,
                    driver_sched_addr: app.driver_sched_addr,
                    cores: app.executor_cores,
                    mem_gb: app.executor_mem_gb,
                    jar_bytes: app.jar_bytes,
                };
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "an unreachable worker registers no executor; the driver keeps asking"
                )]
                let _ = w.rpc.send(LaunchExecutorCmd { spec });
            }
            if let Some(reply) = reply {
                reply(Arc::new(RegisteredApp { app_id, executors: workers.len() }));
            }
            return;
        }
        if msg.downcast::<StopCluster>().is_ok() {
            let workers = self.workers.lock().clone();
            for w in &workers {
                #[expect(clippy::let_underscore_must_use, reason = "an unreachable worker is gone")]
                let _ = w.rpc.send(StopWorker);
            }
            self.stop.notify();
        }
    }
}

/// Master process body: serve registrations until stopped.
pub fn master_main(args: MasterArgs) {
    let identity = ProcIdentity::new(Role::Master, args.node, "master");
    let env = RpcEnv::new(&args.net, &identity, &args.backend, Some(MASTER_PORT));
    let stop = Notify::new();
    let ep = Arc::new(MasterEndpoint {
        env: env.clone(),
        workers: Mutex::new(Vec::new()),
        expected: args.expected_workers,
        next_app: AtomicU32::new(1),
        stop: stop.clone(),
    });
    env.register("Master", ep);
    stop.wait();
    env.shutdown();
}
