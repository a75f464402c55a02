//! Task-side execution context: the services an executor exposes to its
//! running tasks, and per-task metrics.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::{Net, Payload, PortAddr};
use simt::sync::Mutex;
use simt::wait::WaitList;
use simt::Cpu;

use crate::config::SparkConf;
use crate::rpc::RpcEnv;
use crate::shuffle::MapOutputClient;
use crate::storage::BlockManager;
use crate::transfer::BlockTransferService;

/// Everything a task can reach on its executor (Spark's `SparkEnv`).
pub struct ExecutorServices {
    /// Executor id within the application.
    pub exec_id: usize,
    /// The fabric (disk writes, diagnostics).
    pub net: Net,
    /// Node the executor runs on.
    pub node: usize,
    /// The node's shared CPU (compute charging).
    pub cpu: Cpu,
    /// Engine configuration.
    pub conf: SparkConf,
    /// Local block store.
    pub block_manager: Arc<BlockManager>,
    /// Shuffle-plane client.
    pub transfer: Arc<dyn BlockTransferService>,
    /// Map-output location client (caches driver responses).
    pub map_outputs: MapOutputClient,
    /// Address of this executor's shuffle service (advertised in
    /// `MapStatus`).
    pub shuffle_addr: PortAddr,
    /// This executor's RPC environment (driver stream fetches).
    pub rpc_env: Arc<RpcEnv>,
    /// The driver's environment address.
    pub driver_addr: PortAddr,
    /// Executor-local cache of fetched broadcast values.
    pub broadcast_cache: Mutex<BTreeMap<u64, BroadcastSlot>>,
}

/// State of one broadcast id on an executor.
pub enum BroadcastSlot {
    /// A task is fetching it from the driver; the others wait on the list
    /// for `Ready`.
    Fetching(Arc<WaitList>),
    /// Cached value.
    Ready(Arc<dyn Any + Send + Sync>),
}

impl ExecutorServices {
    /// Fetch a named stream from the driver (jars, broadcasts).
    pub fn fetch_driver_stream(&self, name: &str) -> Result<Payload, String> {
        self.rpc_env.fetch_stream(self.driver_addr, name).map_err(|e| e.to_string())
    }
}

/// Context handed to a running task.
pub struct TaskContext {
    /// Executor services.
    pub services: Arc<ExecutorServices>,
    /// Partition this task computes.
    pub partition: usize,
    /// Attempt number (0 on first try).
    pub attempt: u32,
    /// Per-task metrics registry. Task code records through typed handles
    /// under the `task.*` keys in [`obs::keys`]; the executor snapshots the
    /// registry when the task finishes and ships the
    /// [`obs::MetricsSnapshot`] to the scheduler, which merges snapshots
    /// per stage.
    pub metrics: obs::Registry,
}

impl TaskContext {
    /// Build a context for `partition`.
    pub fn new(services: Arc<ExecutorServices>, partition: usize, attempt: u32) -> Self {
        TaskContext { services, partition, attempt, metrics: obs::Registry::new() }
    }

    /// Charge `work_ns` of compute against the executor's node CPU.
    pub fn charge(&self, work_ns: u64) {
        self.services.cpu.execute(work_ns);
    }

    /// The cost model.
    pub fn cost(&self) -> crate::config::CostModel {
        self.services.conf.cost
    }
}
