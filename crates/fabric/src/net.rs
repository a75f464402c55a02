//! The fabric runtime: per-node CPUs, NIC link occupancy, and message
//! delivery between typed ports.
//!
//! All software stacks (sockets, RDMA, MPI) share the same per-node NIC
//! links, so a shuffle's all-to-all traffic exhibits realistic incast
//! serialization regardless of which transport issues it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simt::cpu::Done;
use simt::queue::{Queue, RecvError};
use simt::sync::Mutex;
use simt::Cpu;

use crate::chaos::{FaultPlan, Verdict};
use crate::cluster::{ClusterSpec, NodeId};
use crate::model::{StackModel, Wire};
use crate::payload::Payload;

/// Address of a message port: a node plus a port number on that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortAddr {
    /// Destination node.
    pub node: NodeId,
    /// Port number on that node.
    pub port: u64,
}

impl std::fmt::Display for PortAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// A delivered message.
#[derive(Debug)]
pub struct Packet {
    /// Sending node (reply routing is a higher-layer concern).
    pub src_node: NodeId,
    /// The body.
    pub payload: Payload,
    /// Receiver-side CPU cost, charged by [`PortRx::recv`].
    pub recv_cpu_ns: u64,
    /// Virtual time at which the fabric delivered the packet.
    pub delivered_at: u64,
}

/// A work-conserving fluid queue: backlog drains continuously at link rate;
/// a message waits out the backlog present at its arrival, then occupies
/// the link for its own serialization time. No future windows are reserved,
/// so the link never develops unusable holes under bursty all-to-all load.
#[derive(Default)]
struct LinkState {
    backlog_ns: f64,
    last_update: u64,
    busy_ns: u64,
}

impl LinkState {
    /// Account a `tx_ns` transmission arriving at `now`; returns the wait
    /// before it starts draining.
    fn book(&mut self, now: u64, tx_ns: u64) -> u64 {
        let dt = now.saturating_sub(self.last_update);
        self.backlog_ns = (self.backlog_ns - dt as f64).max(0.0);
        self.last_update = now;
        let wait = self.backlog_ns as u64;
        self.backlog_ns += tx_ns as f64;
        self.busy_ns += tx_ns;
        wait
    }
}

struct NodeRt {
    cpu: Cpu,
    /// NIC egress queue.
    egress: Mutex<LinkState>,
    /// NIC ingress queue.
    ingress: Mutex<LinkState>,
    /// Local storage (HDFS-style output writes; see [`Net::disk_write`]).
    disk: Mutex<LinkState>,
    /// Cumulative egress serialization time, mirrored into the registry.
    egress_busy: obs::Gauge,
    /// Cumulative ingress serialization time, mirrored into the registry.
    ingress_busy: obs::Gauge,
}

/// Registry counter handles cached at construction (delivery runs on the
/// hot path of every message).
struct NetCounters {
    delivered_msgs: obs::Counter,
    delivered_bytes: obs::Counter,
    dropped_msgs: obs::Counter,
    chaos_dropped_msgs: obs::Counter,
    chaos_delayed_msgs: obs::Counter,
}

impl NetCounters {
    fn new(reg: &obs::Registry) -> NetCounters {
        NetCounters {
            delivered_msgs: reg.counter(obs::keys::NET_DELIVERED_MSGS),
            delivered_bytes: reg.counter(obs::keys::NET_DELIVERED_BYTES),
            dropped_msgs: reg.counter(obs::keys::NET_DROPPED_MSGS),
            chaos_dropped_msgs: reg.counter(obs::keys::NET_CHAOS_DROPPED_MSGS),
            chaos_delayed_msgs: reg.counter(obs::keys::NET_CHAOS_DELAYED_MSGS),
        }
    }
}

struct NetInner {
    wire: Wire,
    nodes: Vec<NodeRt>,
    ports: Mutex<BTreeMap<PortAddr, Queue<Packet>>>,
    next_auto_port: AtomicU64,
    obs: obs::Obs,
    counters: NetCounters,
    /// Fault-injection schedule consulted on every send (None = healthy).
    chaos: Mutex<Option<Arc<FaultPlan>>>,
}

/// The simulated cluster network. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Net {
    inner: Arc<NetInner>,
}

/// First port number handed out by [`Net::bind_auto`]. Lower numbers are
/// reserved for well-known services (Spark master, MPI daemons, ...).
const AUTO_PORT_BASE: u64 = 1 << 32;

/// Local-storage drain rate in bytes/ns (HDFS-style replicated writes land
/// around 0.6 GB/s per node).
const DISK_RATE_BPNS: f64 = 0.6;

impl Net {
    /// Build the runtime for a cluster with a default (untraced)
    /// observability context.
    pub fn new(cluster: &ClusterSpec) -> Self {
        Net::with_obs(cluster, obs::Obs::disabled())
    }

    /// Build the runtime for a cluster, attaching `obs` as the shared
    /// observability context for every layer above the fabric.
    pub fn with_obs(cluster: &ClusterSpec, obs: obs::Obs) -> Self {
        let reg = obs.registry();
        let nodes = cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| NodeRt {
                cpu: Cpu::with_hyperthreading(spec.cores(), spec.threads_per_core),
                egress: Mutex::new(LinkState::default()),
                ingress: Mutex::new(LinkState::default()),
                disk: Mutex::new(LinkState::default()),
                egress_busy: reg.gauge(&format!("fabric.link.n{i}.egress_busy_ns")),
                ingress_busy: reg.gauge(&format!("fabric.link.n{i}.ingress_busy_ns")),
            })
            .collect();
        let counters = NetCounters::new(reg);
        Net {
            inner: Arc::new(NetInner {
                wire: cluster.interconnect.wire,
                nodes,
                ports: Mutex::new(BTreeMap::new()),
                next_auto_port: AtomicU64::new(AUTO_PORT_BASE),
                obs,
                counters,
                chaos: Mutex::new(None),
            }),
        }
    }

    /// The observability context shared by everything running on this net.
    pub fn obs(&self) -> &obs::Obs {
        &self.inner.obs
    }

    /// Install a fault-injection plan. Every subsequent [`Net::send`]
    /// consults it; installing `None`-equivalent behaviour again requires a
    /// fresh `Net`. Call before the simulation's processes start so the
    /// schedule covers the whole run.
    pub fn install_chaos(&self, plan: FaultPlan) {
        *self.inner.chaos.lock() = Some(Arc::new(plan));
    }

    /// Run `hook(node)` at the start of each crash window of the installed
    /// plan, on a daemon green thread that sleeps until then (a hook may
    /// park: failing a channel's pending requests runs their callbacks).
    /// Windows that started before the call are skipped. Without a plan, or
    /// with a plan that crashes no node, nothing is spawned.
    pub fn on_node_down(&self, hook: impl Fn(NodeId) + Send + 'static) {
        let Some(plan) = self.inner.chaos.lock().clone() else { return };
        let mut crashes: Vec<(NodeId, u64)> = plan.crashes().collect();
        if crashes.is_empty() {
            return;
        }
        crashes.sort_by_key(|&(node, start)| (start, node));
        simt::spawn_daemon("fabric-node-down", move || {
            for (node, start) in crashes {
                let now = simt::now();
                if start >= now {
                    simt::sleep(start - now);
                    hook(node);
                }
            }
        });
    }

    /// The shared CPU resource of `node`.
    pub fn cpu(&self, node: NodeId) -> Cpu {
        self.inner.nodes[node].cpu.clone()
    }

    /// The wire model.
    pub fn wire(&self) -> Wire {
        self.inner.wire
    }

    /// Write `bytes` to `node`'s local storage, blocking the calling green
    /// thread until the (shared, per-node) disk drains the request. Models
    /// HDFS-style output phases (TeraSort writes its sorted output), which
    /// are transport-independent and can dominate end-to-end times — the
    /// reason the paper's TeraSort shows near-parity across systems.
    pub fn disk_write(&self, node: NodeId, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let tx = (bytes as f64 / DISK_RATE_BPNS).ceil() as u64;
        let now = simt::now();
        let wait = self.inner.nodes[node].disk.lock().book(now, tx);
        simt::sleep(wait + tx);
    }

    /// Bind a well-known port on `node`. Panics if already bound — a
    /// misconfigured simulation, not a runtime condition.
    pub fn bind(&self, node: NodeId, port: u64) -> PortRx {
        let addr = PortAddr { node, port };
        let q = Queue::new();
        let prev = self.inner.ports.lock().insert(addr, q.clone());
        assert!(prev.is_none(), "port {addr} already bound");
        PortRx { net: self.clone(), addr, queue: q }
    }

    /// Bind an automatically allocated port on `node`.
    pub fn bind_auto(&self, node: NodeId) -> PortRx {
        let port = self.inner.next_auto_port.fetch_add(1, Ordering::Relaxed);
        self.bind(node, port)
    }

    /// True if `addr` currently accepts messages.
    pub fn is_bound(&self, addr: PortAddr) -> bool {
        self.inner.ports.lock().contains_key(&addr)
    }

    /// Send `payload` from `from_node` to `to` over `stack`.
    ///
    /// Charges the sender's CPU synchronously (blocking the calling green
    /// thread for the send-side software time), reserves NIC link windows,
    /// and schedules delivery. Same-node messages use the loopback model and
    /// skip the NIC entirely. Returns the scheduled delivery time; messages
    /// to unbound ports are dropped at delivery time, like a TCP RST.
    pub fn send(
        &self,
        stack: &StackModel,
        from_node: NodeId,
        to: PortAddr,
        payload: Payload,
    ) -> u64 {
        let stack = Self::effective(stack, from_node, to);
        self.inner.nodes[from_node].cpu.execute(stack.send_cpu_ns(payload.virtual_len));
        self.book(&stack, from_node, to, payload)
    }

    /// [`send`](Net::send) without parking: the CPU charge ends in a
    /// continuation that books the message and then runs `then`.
    pub fn send_then(
        &self,
        stack: &StackModel,
        from_node: NodeId,
        to: PortAddr,
        payload: Payload,
        then: impl FnOnce() + Send + 'static,
    ) {
        let stack = Self::effective(stack, from_node, to);
        let (net, work_ns) = (self.clone(), stack.send_cpu_ns(payload.virtual_len));
        let booked = move || {
            net.book(&stack, from_node, to, payload);
            then();
        };
        self.inner.nodes[from_node].cpu.submit(work_ns, Done::Call(Box::new(booked)));
    }

    /// The stack a message takes: loopback between two ports of one node.
    fn effective(stack: &StackModel, from_node: NodeId, to: PortAddr) -> StackModel {
        if from_node == to.node {
            StackModel::loopback()
        } else {
            *stack
        }
    }

    /// The half of a send after its CPU charge: the fault plan's verdict, the
    /// link bookings and the delivery event. Returns the delivery time.
    fn book(
        &self,
        eff_stack: &StackModel,
        from_node: NodeId,
        to: PortAddr,
        payload: Payload,
    ) -> u64 {
        let n = payload.virtual_len;
        let now = simt::now();

        // Fault injection: the plan rules on every message at its send
        // instant, before any link bandwidth is booked — a message a dead
        // link drops never occupies the NIC.
        let chaos_extra_ns = {
            let plan = self.inner.chaos.lock().clone();
            match plan.map(|p| p.verdict(now, from_node, to.node, eff_stack.name)) {
                Some(Verdict::Drop) => {
                    self.inner.counters.chaos_dropped_msgs.inc();
                    self.inner.obs.event(
                        "fabric.chaos.drop",
                        obs::kv! {"src" => from_node, "dst" => to.node, "stack" => eff_stack.name},
                    );
                    return now + self.inner.wire.latency_ns;
                }
                Some(Verdict::Delay(extra)) => {
                    self.inner.counters.chaos_delayed_msgs.inc();
                    self.inner.obs.event(
                        "fabric.chaos.delay",
                        obs::kv! {"src" => from_node, "dst" => to.node, "extra_ns" => extra},
                    );
                    extra
                }
                Some(Verdict::Deliver) | None => 0,
            }
        };

        let base_deliver_at = if from_node == to.node {
            // In-memory handoff: fixed small latency, no NIC occupancy.
            now + 300 + eff_stack.tx_time_ns(n, &self.inner.wire).min(n / 10)
        } else {
            let tx = eff_stack.tx_time_ns(n, &self.inner.wire);
            let wait_e = {
                let rt = &self.inner.nodes[from_node];
                let mut link = rt.egress.lock();
                let wait = link.book(now, tx);
                rt.egress_busy.set(link.busy_ns);
                wait
            };
            let wait_i = {
                let rt = &self.inner.nodes[to.node];
                let mut link = rt.ingress.lock();
                let wait = link.book(now, tx);
                rt.ingress_busy.set(link.busy_ns);
                wait
            };
            // The slower of the two queues gates the transfer; both drain
            // concurrently (sender pushes while receiver pulls).
            now + wait_e.max(wait_i) + tx + self.inner.wire.latency_ns
        };
        let deliver_at = base_deliver_at + chaos_extra_ns;

        if self.inner.obs.is_traced() && from_node != to.node {
            // Wire occupancy span: from send instant to delivery.
            self.inner.obs.tracer().record_complete(
                "fabric.tx",
                now,
                deliver_at,
                obs::kv! {"src" => from_node, "dst" => to.node, "bytes" => n,
                "stack" => eff_stack.name},
            );
        }

        let recv_cpu_ns = eff_stack.recv_cpu_ns(n);
        let inner = self.inner.clone();
        simt::engine::call_at(deliver_at, move || {
            let q = inner.ports.lock().get(&to).cloned();
            match q {
                Some(q) => {
                    inner.counters.delivered_msgs.inc();
                    inner.counters.delivered_bytes.add(n);
                    q.send(Packet {
                        src_node: from_node,
                        payload,
                        recv_cpu_ns,
                        delivered_at: deliver_at,
                    });
                }
                None => {
                    inner.counters.dropped_msgs.inc();
                }
            }
        });
        deliver_at
    }

    fn unbind(&self, addr: PortAddr) {
        if let Some(q) = self.inner.ports.lock().remove(&addr) {
            q.close();
        }
    }
}

/// Receiving end of a bound port. Closing (or dropping) unbinds it.
pub struct PortRx {
    net: Net,
    addr: PortAddr,
    queue: Queue<Packet>,
}

impl PortRx {
    /// This port's address (hand it to peers).
    pub fn addr(&self) -> PortAddr {
        self.addr
    }

    /// Blocking receive; charges the receiver-side CPU cost before
    /// returning, so the caller's virtual time reflects protocol processing.
    pub fn recv(&self) -> Result<Packet, RecvError> {
        let pkt = self.queue.recv()?;
        self.net.cpu(self.addr.node).execute(pkt.recv_cpu_ns);
        Ok(pkt)
    }

    /// Blocking receive with a relative timeout (ns).
    pub fn recv_timeout(&self, timeout: u64) -> Result<Packet, RecvError> {
        let pkt = self.queue.recv_timeout(timeout)?;
        self.net.cpu(self.addr.node).execute(pkt.recv_cpu_ns);
        Ok(pkt)
    }

    /// Non-blocking receive. Charges receive CPU when a packet is returned.
    pub fn try_recv(&self) -> Option<Packet> {
        let pkt = self.queue.try_recv()?;
        self.net.cpu(self.addr.node).execute(pkt.recv_cpu_ns);
        Some(pkt)
    }

    /// Unbind and drain.
    pub fn close(&self) {
        self.net.unbind(self.addr);
    }
}

impl Drop for PortRx {
    fn drop(&mut self) {
        self.net.unbind(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use bytes::Bytes;
    use simt::Sim;

    fn two_node_net() -> Net {
        Net::new(&ClusterSpec::test(2))
    }

    #[test]
    fn message_arrives_with_model_latency() {
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(1, 7);
        let net2 = net.clone();
        sim.spawn("tx", move || {
            let stack = StackModel::native_mpi();
            net2.send(
                &stack,
                0,
                PortAddr { node: 1, port: 7 },
                Payload::bytes(Bytes::from_static(b"hi")),
            );
        });
        sim.spawn("rx", move || {
            let pkt = rx.recv().unwrap();
            assert_eq!(&pkt.payload.bytes[..], b"hi");
            assert_eq!(pkt.src_node, 0);
            // send cpu (1500) + tx(2B≈1) + wire 1000 = ~2501; recv cpu 1500
            // charged after delivery.
            let now = simt::now();
            assert!((3_900..=4_200).contains(&now), "now={now}");
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn loopback_skips_nic() {
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(0, 9);
        let net2 = net.clone();
        sim.spawn("tx", move || {
            net2.send(
                &StackModel::java_sockets_ipoib(),
                0,
                PortAddr { node: 0, port: 9 },
                Payload::bytes(Bytes::from_static(b"x")),
            );
        });
        sim.spawn("rx", move || {
            let pkt = rx.recv().unwrap();
            // Loopback per-message cost (300ns each side) applies, not the
            // 15 µs socket cost.
            assert!(pkt.recv_cpu_ns < 1_000, "recv_cpu={}", pkt.recv_cpu_ns);
            assert!(simt::now() < 5_000, "now={}", simt::now());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn incast_serializes_on_ingress_link() {
        // Two senders on different nodes target one receiver; the second
        // transfer must queue behind the first on the receiver's ingress.
        let sim = Sim::new();
        let net = Net::new(&ClusterSpec::test(3));
        let rx = net.bind(2, 1);
        let one_mb = 1u64 << 20;
        for src in 0..2usize {
            let net = net.clone();
            sim.spawn(format!("tx{src}"), move || {
                net.send(
                    &StackModel::native_mpi(),
                    src,
                    PortAddr { node: 2, port: 1 },
                    Payload::bytes_scaled(Bytes::new(), one_mb),
                );
            });
        }
        sim.spawn("rx", move || {
            let a = rx.recv().unwrap();
            let b = rx.recv().unwrap();
            let tx_time =
                StackModel::native_mpi().tx_time_ns(one_mb, &Interconnect::ib_hdr100().wire);
            let gap = b.delivered_at - a.delivered_at;
            // Second delivery waits a full serialization window.
            assert!(gap + 1_000 >= tx_time, "gap={gap} tx={tx_time}");
        });
        use crate::model::Interconnect;
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn unbound_port_drops() {
        let sim = Sim::new();
        let net = two_node_net();
        let net2 = net.clone();
        sim.spawn("tx", move || {
            net2.send(
                &StackModel::native_mpi(),
                0,
                PortAddr { node: 1, port: 99 },
                Payload::bytes(Bytes::from_static(b"void")),
            );
            simt::sleep(1_000_000);
        });
        sim.run().unwrap().assert_clean();
        let snap = net.obs().registry().snapshot();
        assert_eq!(snap.counter(obs::keys::NET_DROPPED_MSGS), 1);
        assert_eq!(snap.counter(obs::keys::NET_DELIVERED_MSGS), 0);
    }

    #[test]
    fn close_unbinds_port() {
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(1, 5);
        assert!(net.is_bound(rx.addr()));
        let net2 = net.clone();
        sim.spawn("a", move || {
            rx.close();
            assert!(!net2.is_bound(PortAddr { node: 1, port: 5 }));
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let net = two_node_net();
        let _a = net.bind(0, 1);
        let _b = net.bind(0, 1);
    }

    #[test]
    fn auto_ports_are_distinct() {
        let net = two_node_net();
        let a = net.bind_auto(0);
        let b = net.bind_auto(0);
        assert_ne!(a.addr(), b.addr());
    }

    #[test]
    fn per_link_fifo_ordering() {
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(1, 3);
        let net2 = net.clone();
        sim.spawn("tx", move || {
            for i in 0..10u8 {
                net2.send(
                    &StackModel::native_mpi(),
                    0,
                    PortAddr { node: 1, port: 3 },
                    Payload::bytes(Bytes::from(vec![i])),
                );
            }
        });
        sim.spawn("rx", move || {
            for i in 0..10u8 {
                let pkt = rx.recv().unwrap();
                assert_eq!(pkt.payload.bytes[0], i);
            }
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn disk_writes_serialize_per_node() {
        let sim = Sim::new();
        let net = two_node_net();
        let done = Arc::new(simt::sync::Mutex::new(Vec::new()));
        for i in 0..2 {
            let net = net.clone();
            let done = done.clone();
            sim.spawn(format!("writer{i}"), move || {
                net.disk_write(0, 600_000_000); // 1s at 0.6 B/ns
                done.lock().push(simt::now());
            });
        }
        sim.run().unwrap().assert_clean();
        let times = done.lock().clone();
        // First write drains in ~1s; the second queues behind it (~2s).
        assert!((0.9e9..1.1e9).contains(&(times[0] as f64)), "{times:?}");
        assert!((1.9e9..2.1e9).contains(&(times[1] as f64)), "{times:?}");
    }

    #[test]
    fn disk_backlog_drains_over_idle_time() {
        let sim = Sim::new();
        let net = two_node_net();
        sim.spawn("w", move || {
            net.disk_write(0, 600_000_000); // done at ~1s
            simt::sleep(simt::time::secs(5)); // disk idle, backlog drains
            let t0 = simt::now();
            net.disk_write(0, 600_000_000);
            assert!((simt::now() - t0) as f64 <= 1.1e9, "no stale backlog");
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn disks_are_independent_per_node() {
        let sim = Sim::new();
        let net = two_node_net();
        for node in 0..2usize {
            let net = net.clone();
            sim.spawn(format!("w{node}"), move || {
                net.disk_write(node, 600_000_000);
                assert!((simt::now() as f64) < 1.2e9, "node {node} uncontended");
            });
        }
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn fluid_links_are_work_conserving() {
        // Saturating a link with back-to-back sends must deliver at full
        // rate: N messages of tx each finish in ≈ N*tx, not more.
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(1, 2);
        let net2 = net.clone();
        let n = 50u64;
        let sz = 1u64 << 20; // 1 MiB, tx ≈ 100µs at MPI 10.5 B/ns
        sim.spawn("tx", move || {
            for _ in 0..n {
                net2.send(
                    &StackModel::native_mpi(),
                    0,
                    PortAddr { node: 1, port: 2 },
                    Payload::bytes_scaled(Bytes::new(), sz),
                );
            }
        });
        sim.spawn("rx", move || {
            for _ in 0..n {
                rx.recv().unwrap();
            }
            let expect = StackModel::native_mpi()
                .tx_time_ns(sz, &crate::model::Interconnect::ib_hdr100().wire)
                * n;
            let now = simt::now();
            assert!(now < expect * 13 / 10, "utilization hole: {now} vs ideal {expect}");
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn chaos_drop_window_swallows_messages_then_heals() {
        let sim = Sim::new();
        let net = two_node_net();
        net.install_chaos(crate::FaultPlan::seeded(5).drop_link(0, 1, 0, 1_000_000).build());
        let rx = net.bind(1, 7);
        let net2 = net.clone();
        sim.spawn("tx", move || {
            let to = PortAddr { node: 1, port: 7 };
            net2.send(&StackModel::native_mpi(), 0, to, Payload::bytes(Bytes::from_static(b"a")));
            simt::sleep(2_000_000); // past the window
            net2.send(&StackModel::native_mpi(), 0, to, Payload::bytes(Bytes::from_static(b"b")));
        });
        sim.spawn("rx", move || {
            let pkt = rx.recv().unwrap();
            assert_eq!(&pkt.payload.bytes[..], b"b", "the windowed message never arrives");
        });
        sim.run().unwrap().assert_clean();
        let snap = net.obs().registry().snapshot();
        assert_eq!(snap.counter(obs::keys::NET_CHAOS_DROPPED_MSGS), 1);
        assert_eq!(snap.counter(obs::keys::NET_DELIVERED_MSGS), 1);
    }

    #[test]
    fn chaos_delay_shifts_delivery_by_the_scheduled_extra() {
        let extra = 500_000u64;
        let deliver = |chaos: bool| {
            let sim = Sim::new();
            let net = two_node_net();
            if chaos {
                net.install_chaos(
                    crate::FaultPlan::seeded(5).delay_link(0, 1, 0, u64::MAX, extra).build(),
                );
            }
            let rx = net.bind(1, 7);
            let net2 = net.clone();
            sim.spawn("tx", move || {
                let to = PortAddr { node: 1, port: 7 };
                net2.send(
                    &StackModel::native_mpi(),
                    0,
                    to,
                    Payload::bytes(Bytes::from_static(b"x")),
                );
            });
            let at = Arc::new(AtomicU64::new(0));
            let at2 = at.clone();
            sim.spawn("rx", move || {
                at2.store(rx.recv().unwrap().delivered_at, Ordering::Relaxed);
            });
            sim.run().unwrap().assert_clean();
            at.load(Ordering::Relaxed)
        };
        assert_eq!(deliver(true), deliver(false) + extra);
    }

    #[test]
    fn node_down_hooks_run_once_at_each_crash_start_and_cost_nothing_otherwise() {
        let run = |plan: Option<crate::FaultPlan>| {
            let sim = Sim::new();
            let net = two_node_net();
            if let Some(plan) = plan {
                net.install_chaos(plan);
            }
            let fired = Arc::new(simt::sync::Mutex::new(Vec::new()));
            let fired2 = fired.clone();
            sim.spawn("main", move || {
                net.on_node_down(move |node| fired2.lock().push((node, simt::now())));
                simt::sleep(10_000_000);
            });
            sim.run().unwrap().assert_clean();
            let hooks = sim.spawn_census().get("fabric-node-down").copied().unwrap_or(0);
            let fired = fired.lock().clone();
            (fired, hooks)
        };
        assert_eq!(run(None), (vec![], 0), "no plan");
        let no_crash = crate::FaultPlan::seeded(1).drop_link(0, 1, 0, 1_000).build();
        assert_eq!(run(Some(no_crash)), (vec![], 0), "a plan without a crash window");
        let crash = crate::FaultPlan::seeded(1).crash_node(1, 3_000_000, 1_000).build();
        assert_eq!(run(Some(crash)), (vec![(1, 3_000_000)], 1), "one crash window");
    }

    #[test]
    fn virtual_size_drives_cost_not_real_bytes() {
        let sim = Sim::new();
        let net = two_node_net();
        let rx = net.bind(1, 4);
        let net2 = net.clone();
        sim.spawn("tx", move || {
            // 1 real byte, 8 MB virtual.
            net2.send(
                &StackModel::native_mpi(),
                0,
                PortAddr { node: 1, port: 4 },
                Payload::bytes_scaled(Bytes::from_static(b"k"), 8 << 20),
            );
        });
        sim.spawn("rx", move || {
            let pkt = rx.recv().unwrap();
            // 8 MB at 11 B/ns ≈ 762 µs minimum.
            assert!(pkt.delivered_at > 700_000, "delivered_at={}", pkt.delivered_at);
        });
        sim.run().unwrap().assert_clean();
    }
}
