//! Control-plane message types between deploy processes.

use fabric::{NodeId, PortAddr};

/// Worker → master registration (ask; reply `bool`).
pub struct RegisterWorker {
    /// Worker index.
    pub worker_id: usize,
    /// Node the worker runs on.
    pub node: NodeId,
    /// Address of the worker's RPC environment.
    pub rpc_addr: PortAddr,
}

/// Driver → master application registration (ask; reply [`RegisteredApp`]).
pub struct RegisterApp {
    /// Application name.
    pub name: String,
    /// Address of the driver's RPC environment (scheduler + tracker).
    pub driver_sched_addr: PortAddr,
    /// Task slots per executor.
    pub executor_cores: u32,
    /// Virtual jar size executors must fetch before starting.
    pub jar_bytes: u64,
}

/// Master's reply to [`RegisterApp`]. `executors == 0` means "not all
/// workers have registered yet; retry".
#[derive(Debug, Clone, Copy)]
pub struct RegisteredApp {
    /// Assigned application id.
    pub app_id: u32,
    /// Executors being launched (= registered workers), 0 when not ready.
    pub executors: usize,
}

/// Master → worker executor launch command (one-way).
pub struct LaunchExecutorCmd {
    /// The executor to launch.
    pub spec: ExecutorSpec,
}

/// Everything an executor process needs to start.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorSpec {
    /// Executor id (== worker index in this deployment).
    pub exec_id: usize,
    /// Owning application.
    pub app_id: u32,
    /// Driver RPC address (scheduler + map output tracker).
    pub driver_sched_addr: PortAddr,
    /// Task slots.
    pub cores: u32,
    /// Virtual size of the application jar the executor must fetch from the
    /// driver before starting (served via `StreamRequest`/`StreamResponse`,
    /// paper §VI-E: "StreamResponse ... is used to communicate metadata such
    /// as jar dependencies to the worker nodes").
    pub jar_bytes: u64,
}

/// Driver → master: stop workers and master (one-way).
pub struct StopCluster;

/// Master → worker: stop (one-way).
pub struct StopWorker;
