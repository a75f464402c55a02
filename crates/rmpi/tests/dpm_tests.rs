//! End-to-end tests of Dynamic Process Management: spawn, parent
//! intercommunicators and child-world shuffles — the MPI machinery
//! MPI4Spark's launcher is built on (paper §V, Fig. 3).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fabric::{ClusterSpec, Net};
use rmpi::{mpiexec, Comm, SpawnSpec};
use simt::sync::Mutex;
use simt::Sim;

fn run(n_nodes: usize, ranks: usize, f: impl Fn(Comm) + Send + Sync + 'static) {
    let sim = Sim::new();
    let placements: Vec<usize> = (0..ranks).map(|i| i % n_nodes).collect();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(n_nodes));
        mpiexec(&net, &placements, f);
    });
    sim.run().unwrap().assert_clean();
}

#[test]
fn spawned_children_get_their_own_world() {
    let child_views = Arc::new(Mutex::new(Vec::new()));
    let cv = child_views.clone();
    run(2, 2, move |world| {
        let specs = if world.rank() == 0 {
            let mut v = Vec::new();
            for i in 0..3usize {
                let cv = cv.clone();
                v.push(SpawnSpec::new(format!("child{i}"), i % 2, move |child_world: Comm| {
                    cv.lock().push((child_world.rank(), child_world.size()));
                }));
            }
            Some(v)
        } else {
            None
        };
        let inter = world.spawn_multiple(0, specs).unwrap();
        assert!(inter.is_inter());
        assert_eq!(inter.remote_size(), 3);
        assert_eq!(inter.size(), 2);
    });
    let mut v = child_views.lock().clone();
    v.sort_unstable();
    assert_eq!(v, vec![(0, 3), (1, 3), (2, 3)]);
}

#[test]
fn parent_and_child_communicate_over_intercomm() {
    run(2, 2, move |world| {
        let specs = if world.rank() == 0 {
            Some(vec![SpawnSpec::new("child", 1, move |child_world: Comm| {
                let parent = child_world.parent().expect("child has a parent intercomm");
                assert_eq!(parent.remote_size(), 2); // two parents
                let (v, st) = parent.recv_value::<String>(Some(0), Some(9)).unwrap();
                assert_eq!(*v, "hello child");
                assert_eq!(st.source, 0);
                parent
                    .send_value(0, 10, format!("ack from child {}", child_world.rank()), 32)
                    .unwrap();
            })])
        } else {
            None
        };
        let inter = world.spawn_multiple(0, specs).unwrap();
        if world.rank() == 0 {
            inter.send_value(0, 9, "hello child".to_string(), 32).unwrap();
            let (v, _) = inter.recv_value::<String>(Some(0), Some(10)).unwrap();
            assert_eq!(*v, "ack from child 0");
        }
    });
}

#[test]
fn children_shuffle_over_child_world_dpm_comm() {
    // The paper's executor-to-executor pattern: shuffle traffic flows over
    // DPM_COMM (the child world), not the parent intercomm.
    let sum = Arc::new(AtomicU32::new(0));
    let s2 = sum.clone();
    run(2, 2, move |world| {
        let specs = if world.rank() == 0 {
            let mut v = Vec::new();
            for i in 0..4usize {
                let s3 = s2.clone();
                v.push(SpawnSpec::new(format!("exec{i}"), i % 2, move |dpm_comm: Comm| {
                    // All-to-all: every child sends its rank to every other.
                    let me = dpm_comm.rank();
                    let n = dpm_comm.size();
                    for dst in 0..n {
                        if dst != me {
                            dpm_comm.send_value(dst, 500 + u64::from(me), me, 8).unwrap();
                        }
                    }
                    let mut acc = 0;
                    for src in 0..n {
                        if src != me {
                            let (v, _) = dpm_comm
                                .recv_value::<u32>(Some(src), Some(500 + u64::from(src)))
                                .unwrap();
                            acc += *v;
                        }
                    }
                    s3.fetch_add(acc, Ordering::SeqCst);
                }));
            }
            Some(v)
        } else {
            None
        };
        world.spawn_multiple(0, specs).unwrap();
    });
    // Each of 4 children receives the other three ranks: per-child sums are
    // (1+2+3)=6, (0+2+3)=5, (0+1+3)=4, (0+1+2)=3 → 18 total.
    assert_eq!(sum.load(Ordering::SeqCst), 18);
}

#[test]
fn spawn_from_nonzero_root() {
    let hits = Arc::new(AtomicU32::new(0));
    let h2 = hits.clone();
    run(2, 3, move |world| {
        let specs = if world.rank() == 2 {
            let h3 = h2.clone();
            Some(vec![SpawnSpec::new("kid", 0, move |_cw: Comm| {
                h3.fetch_add(1, Ordering::SeqCst);
            })])
        } else {
            None
        };
        let inter = world.spawn_multiple(2, specs).unwrap();
        assert_eq!(inter.remote_size(), 1);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn nested_spawn_children_can_spawn_grandchildren() {
    let hits = Arc::new(AtomicU32::new(0));
    let h2 = hits.clone();
    run(2, 1, move |world| {
        let h3 = h2.clone();
        let specs = Some(vec![SpawnSpec::new("child", 1, move |cw: Comm| {
            let h4 = h3.clone();
            let specs = Some(vec![SpawnSpec::new("grandchild", 0, move |_gw: Comm| {
                h4.fetch_add(1, Ordering::SeqCst);
            })]);
            cw.spawn_multiple(0, specs).unwrap();
        })]);
        world.spawn_multiple(0, specs).unwrap();
    });
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn deterministic_virtual_times_across_runs() {
    fn once() -> u64 {
        let sim = Sim::new();
        let end = Arc::new(Mutex::new(0));
        let e2 = end.clone();
        sim.spawn("launcher", move || {
            let net = Net::new(&ClusterSpec::test(2));
            mpiexec(&net, &[0, 1, 0, 1], move |comm| {
                let v = comm.allgather(u64::from(comm.rank()), 1024).unwrap();
                assert_eq!(v.len(), 4);
            });
        });
        let r = sim.run().unwrap();
        *e2.lock() = r.now;
        let out = *end.lock();
        out
    }
    assert_eq!(once(), once());
}
