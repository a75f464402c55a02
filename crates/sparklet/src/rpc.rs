//! The control-plane RPC environment (Spark's `RpcEnv` + `Dispatcher`).
//!
//! Every Spark process (master, worker, driver, executor) owns one `RpcEnv`:
//! a netz endpoint plus named local endpoints, each with its own dispatcher
//! green thread and mailbox — mirroring Spark's `Dispatcher`/`MessageLoop`
//! so that endpoint logic may block (e.g. the master RPCs workers while
//! handling a registration) without stalling the Netty event loop.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use fabric::{Net, NodeId, Payload, PortAddr};
use netz::{ChannelCore, NetzError, TransportClient, TransportConf, TransportContext};
use simt::queue::Queue;
use simt::sync::Mutex;

use crate::net_backend::{NetworkBackend, Plane, ProcIdentity};

/// Default virtual wire size charged for a control-plane message.
pub const CONTROL_WIRE_BYTES: u64 = 256;

/// A typed message as it travels the simulated control plane.
pub type AnyMsg = Arc<dyn Any + Send + Sync>;

/// Reply hook for two-way messages; absent for one-way sends.
pub type ReplyFn = Box<dyn FnOnce(AnyMsg) + Send>;

/// Listener told which node a crash took down ([`RpcEnv::on_peer_lost`]).
type PeerLostFn = Box<dyn Fn(NodeId) + Send + Sync>;

/// A named in-process endpoint (Spark's `RpcEndpoint`).
pub trait RpcEndpoint: Send + Sync + 'static {
    /// Handle one inbound message on the endpoint's dispatcher thread.
    /// Blocking here is safe; it only delays this endpoint's own mailbox.
    fn receive(&self, msg: AnyMsg, reply: Option<ReplyFn>);
}

struct Envelope {
    endpoint: String,
    msg: AnyMsg,
}

struct Inbound {
    msg: AnyMsg,
    reply: Option<ReplyFn>,
}

struct EnvHandler {
    endpoints: Arc<Mutex<BTreeMap<String, Queue<Inbound>>>>,
    streams: Arc<Mutex<Option<Arc<dyn netz::StreamManager>>>>,
    peer_lost: Arc<OnceLock<PeerLostFn>>,
}

impl netz::RpcHandler for EnvHandler {
    fn receive(
        &self,
        _chan: &Arc<ChannelCore>,
        body: Payload,
        reply: netz::context::RpcResponseCallback,
    ) {
        let Some(env) = body.value_as::<Envelope>() else {
            reply(Err("malformed control message".into()));
            return;
        };
        let q = self.endpoints.lock().get(&env.endpoint).cloned();
        match q {
            Some(q) => {
                let msg = env.msg.clone();
                q.send(Inbound {
                    msg,
                    reply: Some(Box::new(move |v: AnyMsg| {
                        reply(Ok(Payload::control_arc(v, CONTROL_WIRE_BYTES)));
                    })),
                });
            }
            None => reply(Err(format!("no such endpoint '{}'", env.endpoint))),
        }
    }

    fn receive_oneway(&self, _chan: &Arc<ChannelCore>, body: Payload) {
        let Some(env) = body.value_as::<Envelope>() else {
            return;
        };
        if let Some(q) = self.endpoints.lock().get(&env.endpoint).cloned() {
            q.send(Inbound { msg: env.msg.clone(), reply: None });
        }
    }

    fn stream_manager(&self) -> Arc<dyn netz::StreamManager> {
        self.streams.lock().clone().unwrap_or_else(|| Arc::new(netz::context::NoStreams))
    }

    fn peer_lost(&self, node: NodeId) {
        if let Some(listener) = self.peer_lost.get() {
            listener(node);
        }
    }
}

/// One process's RPC environment.
pub struct RpcEnv {
    server: netz::Endpoint,
    endpoints: Arc<Mutex<BTreeMap<String, Queue<Inbound>>>>,
    streams: Arc<Mutex<Option<Arc<dyn netz::StreamManager>>>>,
    peer_lost: Arc<OnceLock<PeerLostFn>>,
    clients: Mutex<BTreeMap<PortAddr, TransportClient>>,
    conf: TransportConf,
    name: String,
}

impl RpcEnv {
    /// Build the environment for process `identity`, optionally binding the
    /// server to a well-known `port` (the master does; everyone else takes
    /// an automatic port).
    pub fn new(
        net: &Net,
        identity: &ProcIdentity,
        backend: &Arc<dyn NetworkBackend>,
        port: Option<u64>,
    ) -> Arc<RpcEnv> {
        let endpoints: Arc<Mutex<BTreeMap<String, Queue<Inbound>>>> = Arc::default();
        let streams: Arc<Mutex<Option<Arc<dyn netz::StreamManager>>>> = Arc::default();
        let peer_lost: Arc<OnceLock<PeerLostFn>> = Arc::default();
        let handler = Arc::new(EnvHandler {
            endpoints: endpoints.clone(),
            streams: streams.clone(),
            peer_lost: peer_lost.clone(),
        });
        let ctx: TransportContext = backend.context(Plane::Rpc, identity, net, handler);
        let conf = ctx.conf();
        let name = format!("rpc:{}", identity.name);
        let server = match port {
            Some(p) => ctx.create_server(name.clone(), identity.node, p),
            None => ctx.create_client_endpoint(name.clone(), identity.node),
        };
        Arc::new(RpcEnv {
            server,
            endpoints,
            streams,
            peer_lost,
            clients: Mutex::new(BTreeMap::new()),
            conf,
            name,
        })
    }

    /// Address other processes reach this environment at.
    pub fn addr(&self) -> PortAddr {
        self.server.addr()
    }

    /// Node this environment runs on.
    pub fn node(&self) -> NodeId {
        self.server.node()
    }

    /// The fabric's observability handle (tracer + metrics registry).
    pub fn obs(&self) -> &obs::Obs {
        self.server.net().obs()
    }

    /// Serve named streams from this environment (jar/file distribution;
    /// Spark's `NettyStreamManager`). Streams are answered with
    /// `StreamResponse` — one of the two message types whose body
    /// MPI4Spark-Optimized moves over MPI (§VI-E).
    pub fn set_stream_manager(&self, sm: Arc<dyn netz::StreamManager>) {
        *self.streams.lock() = Some(sm);
    }

    /// Call `listener(node)` when a crash takes `node` down: by then every
    /// channel this environment had to it is reset (Spark's disconnect
    /// path). One listener per environment.
    pub fn on_peer_lost(&self, listener: impl Fn(NodeId) + Send + Sync + 'static) {
        let set = self.peer_lost.set(Box::new(listener));
        assert!(set.is_ok(), "{}: a peer-lost listener is already set", self.name);
    }

    /// Fetch a named stream from a remote environment (blocks for the
    /// data).
    pub fn fetch_stream(&self, addr: PortAddr, name: &str) -> Result<Payload, NetzError> {
        let client = self.client(addr)?;
        client.open_stream(name)
    }

    /// Register a named endpoint; spawns its dispatcher thread.
    pub fn register(&self, name: impl Into<String>, endpoint: Arc<dyn RpcEndpoint>) {
        let name = name.into();
        let q: Queue<Inbound> = Queue::new();
        let prev = self.endpoints.lock().insert(name.clone(), q.clone());
        assert!(prev.is_none(), "endpoint '{name}' already registered");
        simt::spawn_daemon(format!("{}:dispatch:{name}", self.name), move || {
            while let Ok(inbound) = q.recv() {
                endpoint.receive(inbound.msg, inbound.reply);
            }
        });
    }

    /// Unregister an endpoint (its dispatcher drains and stops).
    pub fn unregister(&self, name: &str) {
        if let Some(q) = self.endpoints.lock().remove(name) {
            q.close();
        }
    }

    /// A reference to endpoint `name` at `addr`.
    pub fn endpoint_ref(self: &Arc<Self>, addr: PortAddr, name: impl Into<String>) -> RpcRef {
        RpcRef { env: self.clone(), addr, endpoint: name.into() }
    }

    fn client(&self, addr: PortAddr) -> Result<TransportClient, NetzError> {
        {
            let cache = self.clients.lock();
            if let Some(c) = cache.get(&addr) {
                if c.is_active() {
                    return Ok(c.clone());
                }
            }
        }
        let c = self.server.connect(addr)?;
        self.clients.lock().insert(addr, c.clone());
        Ok(c)
    }

    /// Tear down outgoing connections and the server endpoint.
    pub fn shutdown(&self) {
        // Snapshot under the lock, close outside it. `close()` charges
        // virtual send time for the FIN frame — a simt wait point — and
        // writing `for c in ...lock()...` would hold the guard across it
        // (the iterator expression's temporary lives for the whole loop).
        // A task on a lost executor can still be running here, and its
        // completion send must be able to take this lock meanwhile.
        let clients: Vec<TransportClient> =
            std::mem::take(&mut *self.clients.lock()).into_values().collect();
        for c in clients {
            c.close();
        }
        let names: Vec<String> = self.endpoints.lock().keys().cloned().collect();
        for n in names {
            self.unregister(&n);
        }
        self.server.shutdown();
    }

    /// Request timeout from the transport configuration.
    pub fn request_timeout_ns(&self) -> u64 {
        self.conf.request_timeout_ns
    }
}

/// A remote endpoint reference (Spark's `RpcEndpointRef`).
#[derive(Clone)]
pub struct RpcRef {
    env: Arc<RpcEnv>,
    addr: PortAddr,
    endpoint: String,
}

impl RpcRef {
    /// Remote address.
    pub fn addr(&self) -> PortAddr {
        self.addr
    }

    /// Two-way ask: blocks for the typed reply.
    pub fn ask<R: Any + Send + Sync>(
        &self,
        msg: impl Any + Send + Sync,
    ) -> Result<Arc<R>, NetzError> {
        self.ask_sized::<R>(msg, CONTROL_WIRE_BYTES)
    }

    /// Two-way ask with an explicit virtual wire size.
    pub fn ask_sized<R: Any + Send + Sync>(
        &self,
        msg: impl Any + Send + Sync,
        wire: u64,
    ) -> Result<Arc<R>, NetzError> {
        let client = self.env.client(self.addr)?;
        let envelope = Envelope { endpoint: self.endpoint.clone(), msg: Arc::new(msg) };
        let reply = client.send_rpc(Payload::control(envelope, wire))?;
        reply
            .value
            .clone()
            .and_then(|v| v.downcast::<R>().ok())
            .ok_or_else(|| NetzError::codec("reply type mismatch"))
    }

    /// One-way send (no reply).
    pub fn send(&self, msg: impl Any + Send + Sync) -> Result<(), NetzError> {
        self.send_sized(msg, CONTROL_WIRE_BYTES)
    }

    /// One-way send with an explicit virtual wire size.
    pub fn send_sized(&self, msg: impl Any + Send + Sync, wire: u64) -> Result<(), NetzError> {
        let client = self.env.client(self.addr)?;
        let envelope = Envelope { endpoint: self.endpoint.clone(), msg: Arc::new(msg) };
        client.send_oneway(Payload::control(envelope, wire));
        Ok(())
    }
}

impl std::fmt::Debug for RpcRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcRef({}@{})", self.endpoint, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_backend::{Role, VanillaBackend};
    use fabric::ClusterSpec;
    use simt::Sim;

    struct Adder;
    impl RpcEndpoint for Adder {
        fn receive(&self, msg: AnyMsg, reply: Option<ReplyFn>) {
            let pair = msg.downcast::<(u64, u64)>().expect("typed message");
            if let Some(reply) = reply {
                reply(Arc::new(pair.0 + pair.1));
            }
        }
    }

    struct Recorder(Arc<Mutex<Vec<u64>>>);
    impl RpcEndpoint for Recorder {
        fn receive(&self, msg: AnyMsg, _reply: Option<ReplyFn>) {
            self.0.lock().push(*msg.downcast::<u64>().unwrap());
        }
    }

    fn identity(node: usize, name: &str) -> ProcIdentity {
        ProcIdentity::new(Role::Driver, node, name)
    }

    fn backend() -> Arc<dyn NetworkBackend> {
        Arc::new(VanillaBackend::with_conf(&crate::config::SparkConf::default()))
    }

    #[test]
    fn ask_roundtrip() {
        let sim = Sim::new();
        sim.spawn("main", || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let server_env = RpcEnv::new(&net, &identity(0, "server"), &backend, Some(700));
            server_env.register("adder", Arc::new(Adder));
            let client_env = RpcEnv::new(&net, &identity(1, "client"), &backend, None);
            let r = client_env.endpoint_ref(server_env.addr(), "adder");
            let sum = r.ask::<u64>((20u64, 22u64)).unwrap();
            assert_eq!(*sum, 42);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn oneway_send_reaches_endpoint() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        sim.spawn("main", move || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let server_env = RpcEnv::new(&net, &identity(0, "server"), &backend, Some(700));
            server_env.register("rec", Arc::new(Recorder(seen2)));
            let client_env = RpcEnv::new(&net, &identity(1, "client"), &backend, None);
            let r = client_env.endpoint_ref(server_env.addr(), "rec");
            for i in 0..5u64 {
                r.send(i).unwrap();
            }
            simt::sleep(simt::time::millis(10));
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(seen.lock().clone(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unknown_endpoint_is_remote_error() {
        let sim = Sim::new();
        sim.spawn("main", || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let server_env = RpcEnv::new(&net, &identity(0, "server"), &backend, Some(700));
            let client_env = RpcEnv::new(&net, &identity(1, "client"), &backend, None);
            let r = client_env.endpoint_ref(server_env.addr(), "ghost");
            match r.ask::<u64>(1u64) {
                Err(NetzError::Remote(e)) => assert!(e.contains("ghost")),
                other => panic!("expected remote error, got {other:?}"),
            }
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn reply_type_mismatch_is_codec_error() {
        let sim = Sim::new();
        sim.spawn("main", || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let server_env = RpcEnv::new(&net, &identity(0, "server"), &backend, Some(700));
            server_env.register("adder", Arc::new(Adder));
            let client_env = RpcEnv::new(&net, &identity(1, "client"), &backend, None);
            let r = client_env.endpoint_ref(server_env.addr(), "adder");
            // Ask for a String where the endpoint replies u64.
            assert!(matches!(r.ask::<String>((1u64, 2u64)), Err(NetzError::Codec(_))));
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn fetch_stream_roundtrip() {
        use crate::net_backend::{ProcIdentity, Role};
        use fabric::{ClusterSpec, Net};
        use std::sync::Arc;
        struct S;
        impl netz::StreamManager for S {
            fn get_chunk(&self, _s: u64, _c: u32) -> Result<fabric::Payload, String> {
                Err("no".into())
            }
            fn open_stream(&self, name: &str) -> Result<fabric::Payload, String> {
                Ok(fabric::Payload::control(name.to_string(), 128))
            }
        }
        let sim = simt::Sim::new();
        sim.spawn("main", || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let a = crate::rpc::RpcEnv::new(
                &net,
                &ProcIdentity::new(Role::Driver, 0, "a"),
                &backend,
                Some(700),
            );
            a.set_stream_manager(Arc::new(S));
            let b = crate::rpc::RpcEnv::new(
                &net,
                &ProcIdentity::new(Role::Executor(0), 1, "b"),
                &backend,
                None,
            );
            let p = b.fetch_stream(a.addr(), "/broadcast/7").unwrap();
            assert_eq!(*p.value_as::<String>().unwrap(), "/broadcast/7");
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn endpoints_block_independently() {
        // A blocking endpoint must not stall another endpoint in the same
        // env (separate dispatcher threads).
        struct Slow;
        impl RpcEndpoint for Slow {
            fn receive(&self, _m: AnyMsg, reply: Option<ReplyFn>) {
                simt::sleep(simt::time::millis(100));
                if let Some(r) = reply {
                    r(Arc::new(1u64));
                }
            }
        }
        let sim = Sim::new();
        sim.spawn("main", || {
            let net = Net::new(&ClusterSpec::test(2));
            let backend = backend();
            let server_env = RpcEnv::new(&net, &identity(0, "server"), &backend, Some(700));
            server_env.register("slow", Arc::new(Slow));
            server_env.register("adder", Arc::new(Adder));
            let client_env = RpcEnv::new(&net, &identity(1, "client"), &backend, None);
            let slow = client_env.endpoint_ref(server_env.addr(), "slow");
            let fast = client_env.endpoint_ref(server_env.addr(), "adder");
            simt::spawn("slow-ask", move || {
                slow.ask::<u64>(0u64).unwrap();
            });
            simt::sleep(simt::time::millis(1));
            let t0 = simt::now();
            fast.ask::<u64>((1u64, 1u64)).unwrap();
            assert!(simt::now() - t0 < simt::time::millis(50));
        });
        sim.run().unwrap().assert_clean();
    }
}
