//! Unit-level checks of the rank↔channel / communicator-type routing
//! (paper §VI-B) and the launcher's process layout (Fig. 3).

use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use mpi4spark::MpiProcCtx;
use netz::CommKind;
use rmpi::{mpiexec, Comm, SpawnSpec};
use simt::sync::Mutex;
use simt::Sim;

#[test]
fn route_selects_world_comm_for_same_kind() {
    let sim = Sim::new();
    sim.spawn("launcher", || {
        let net = Net::new(&ClusterSpec::test(2));
        mpiexec(&net, &[0, 1], |world: Comm| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            let peer = (world.rank() + 1) % 2;
            let (comm, dest) = ctx.route(peer, CommKind::World);
            assert_eq!(comm.id(), world.id(), "same-kind peers use the shared intracomm");
            assert_eq!(dest, peer);
        });
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn route_selects_intercomm_across_kinds() {
    let sim = Sim::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let seen3 = seen2.clone();
        mpiexec(&net, &[0, 1], move |world: Comm| {
            let ctx = MpiProcCtx::world_proc(world.clone());
            let seen4 = seen3.clone();
            let specs = (world.rank() == 0).then(|| {
                vec![SpawnSpec::new("exec", 1, move |child: Comm| {
                    let parent = child.parent().unwrap();
                    let child_ctx = MpiProcCtx::dpm_proc(child.clone(), parent.clone());
                    // Executor → driver-side (World rank 1): must route over
                    // the parent intercomm addressing group A.
                    let (comm, dest) = child_ctx.route(1, CommKind::World);
                    assert_eq!(comm.id(), parent.id());
                    assert_eq!(dest, 1);
                    // Executor → executor would use the child world.
                    let (comm, _) = child_ctx.route(0, CommKind::Dpm);
                    assert_eq!(comm.id(), child.id());
                    seen4.lock().push(child_ctx.rank());
                })]
            });
            let inter = world.spawn_multiple(0, specs).unwrap();
            ctx.set_inter(inter.clone());
            // World proc → executor rank 0: over the intercomm.
            let (comm, dest) = ctx.route(0, CommKind::Dpm);
            assert_eq!(comm.id(), inter.id());
            assert_eq!(dest, 0);
        });
    });
    sim.run().unwrap().assert_clean();
    assert_eq!(*seen.lock(), vec![0]);
}

#[test]
fn launcher_layout_matches_figure_3() {
    // W workers at ranks 0..W, master at W, driver at W+1; executors as DPM
    // children — verified through the deployed cluster's behavior: each
    // executor's handshake rank equals its worker index in the child world.
    use sparklet::deploy::ClusterConfig;
    use sparklet::SparkConf;
    let sim = Sim::new();
    let spec = ClusterSpec::test(5); // 3 workers + master + driver
    let mut conf = SparkConf::default();
    conf.executor_cores = 2;
    conf.cost.task_overhead_ns = 10_000;
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let out: simt::sync::OnceCell<u64> = simt::sync::OnceCell::new();
    let out2 = out.clone();
    sim.spawn("launcher", move || {
        let net = Net::new(&spec);
        let (r, _) = mpi4spark::run_app(&net, &cluster, mpi4spark::Design::Optimized, |sc| {
            // 3 executors registered == 3 DPM children.
            assert_eq!(sc.scheduler().executors().len(), 3);
            sc.parallelize((0..30u64).collect(), 6).count()
        });
        out2.put(r);
    });
    sim.run().unwrap().assert_clean();
    assert_eq!(out.try_take(), Some(30));
    sim.shutdown();
}
