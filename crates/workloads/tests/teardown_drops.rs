//! Where an `iter_ml`-shaped cell's `fabric.dropped_msgs` come from: none
//! while the application runs, and a fixed number at teardown. Each of them is
//! a netz `Close` frame that a process ships to a peer whose endpoint has
//! already shut down and unbound its port (a channel's `close` notifies the
//! peer whether or not it is still there, as a TCP FIN to a closed socket
//! draws an RST). Their number follows the order in which the processes of
//! the cell shut down, so it is pinned here.

use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use mpi4spark::{Design, MpiBackend};
use simt::sync::OnceCell;
use simt::Sim;
use sparklet::deploy::ClusterConfig;
use sparklet::SparkConf;
use workloads::ml::{lr_app, MlConfig};

#[test]
fn an_iter_ml_cell_drops_messages_only_at_teardown() {
    // The benchmark's `iter_ml` cell: HiBench LR on 8 workers × 8 cores, plus a
    // master and a driver node, under MPI4Spark (Optimized).
    let cfg = MlConfig {
        partitions: 8 * 8,
        samples_per_partition: 128,
        virtual_samples_per_partition: 270_000,
        dim: 12,
        iterations: 60,
        agg_partitions: 8,
        pad_bytes: 1_048_576,
        seed: 7,
    };
    let spec = ClusterSpec::frontera(8 + 2);
    let conf = SparkConf::paper_defaults(8);
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let sim = Sim::new();
    let obs = obs::Obs::disabled();
    let net = Net::with_obs(&spec, obs.clone());
    let during_app: OnceCell<u64> = OnceCell::new();
    let (seen, registry) = (during_app.clone(), obs.registry().clone());
    sim.spawn("launcher", move || {
        let backend = Arc::new(MpiBackend::with_conf(Design::Optimized, &conf));
        mpi4spark::run_app_with_backend(&net, &cluster, backend, move |sc| {
            let loss = lr_app(sc, cfg).final_loss;
            assert!(loss < std::f64::consts::LN_2, "the model learned nothing: {loss}");
            seen.put(registry.snapshot().counter(obs::keys::NET_DROPPED_MSGS));
        });
    });
    sim.run().unwrap().assert_clean();
    let dropped = obs.registry().snapshot().counter(obs::keys::NET_DROPPED_MSGS);
    sim.shutdown();
    assert_eq!(during_app.try_take(), Some(0), "a message was dropped while the app ran");
    assert_eq!(dropped, 12, "messages dropped at teardown");
}
