//! Processor-sharing CPU model for simulated nodes.
//!
//! Each node owns a [`Cpu`] with `cores` hardware threads. Green threads
//! charge compute work via [`Cpu::execute`] (continuations: [`Cpu::submit`]);
//! when more jobs are active than cores, every job's service rate degrades
//! proportionally (egalitarian processor sharing — a good first-order model
//! of a loaded Spark worker).
//!
//! A *background load* models spinning threads that consume core time without
//! ever finishing — exactly what MPI4Spark-Basic's non-blocking
//! `select()`+`MPI_Iprobe` selector loop does (paper §VI-D/§VII-B). Raising
//! the background load slows co-located tasks, which is the effect Fig. 9
//! measures.
//!
//! Every state change (an arrival, a load step, a completion) re-arms the
//! CPU's one engine tick for the next completion in place, so each change
//! costs O(live jobs) and leaves no stale event behind.

use std::panic::Location;
use std::sync::Arc;

use crate::engine::{wait_token, EngineHandle, State, Tick, WaitToken};
use crate::sync::Mutex;

/// Completion threshold for floating-point work accounting (nanoseconds).
const EPS: f64 = 1e-3;

/// How a job on a [`Cpu`] ends.
pub enum Done {
    /// Wake the green thread parked on the token ([`Cpu::execute`]).
    Wake(WaitToken),
    /// Run a continuation on the engine, under the `(time, seq)` the wake
    /// would have taken. It must not park.
    Call(Box<dyn FnOnce() + Send>),
}

struct Job {
    /// The lowest slot free when the job arrived. Jobs that finish in one
    /// reschedule wake in slot order.
    slot: usize,
    /// Unique per `execute` on this CPU: slots are reused, tickets are not.
    ticket: u64,
    remaining: f64,
    done: Done,
    /// Where the job was submitted: a `Call`'s host-profile label.
    from: &'static Location<'static>,
}

struct CpuState {
    cores: f64,
    /// Equivalent number of always-runnable phantom jobs (spinners).
    background_load: f64,
    /// The live jobs, in ascending slot order.
    jobs: Vec<Job>,
    next_ticket: u64,
    last_update: u64,
    handle: Option<EngineHandle>,
}

/// A shared, contention-aware compute resource for one simulated node.
pub struct Cpu {
    state: Arc<Mutex<CpuState>>,
}

impl Clone for Cpu {
    fn clone(&self) -> Self {
        Cpu { state: self.state.clone() }
    }
}

impl Tick for Mutex<CpuState> {
    fn fire(&self, at: u64, engine: &mut State) {
        let mut s = self.lock();
        Cpu::advance(&mut s, at);
        Cpu::reschedule(&mut s, at, Some(engine));
    }
}

impl Cpu {
    /// A CPU with `cores` physical hardware threads and no hyper-threading.
    pub fn new(cores: u32) -> Self {
        Self::with_hyperthreading(cores, 1)
    }

    /// A CPU with `cores` physical cores, each exposing `threads_per_core`
    /// hardware threads. Hyper-threads add scheduling slots but only ~30%
    /// extra throughput per core (a common empirical figure; Stampede2 runs 2
    /// threads/core).
    pub fn with_hyperthreading(cores: u32, threads_per_core: u32) -> Self {
        let ht_factor = if threads_per_core >= 2 { 1.3 } else { 1.0 };
        Cpu {
            state: Arc::new(Mutex::new(CpuState {
                cores: f64::from(cores) * ht_factor,
                background_load: 0.0,
                jobs: Vec::new(),
                next_ticket: 0,
                last_update: 0,
                handle: None,
            })),
        }
    }

    /// Charge `work_ns` of single-threaded compute against this CPU,
    /// blocking the calling green thread for the (contention-scaled)
    /// virtual duration.
    pub fn execute(&self, work_ns: u64) {
        if work_ns == 0 {
            return;
        }
        let ticket = self.state.lock().next_ticket; // the one `submit` hands out
        self.submit(work_ns, Done::Wake(wait_token()));
        loop {
            crate::engine::park();
            let mut s = self.state.lock();
            match s.jobs.iter_mut().find(|j| j.ticket == ticket) {
                None => return,
                // Spurious wake: refresh our token so a future tick can reach us.
                Some(job) => job.done = Done::Wake(wait_token()),
            }
        }
    }

    /// Charge `work_ns` like [`execute`](Cpu::execute), but end the job with
    /// `done` instead of parking. A `Call` for no work runs at once; any
    /// other is labelled with the caller's site in the host profile.
    #[track_caller]
    pub fn submit(&self, work_ns: u64, done: Done) {
        let done = match done {
            Done::Call(f) if work_ns == 0 => return f(),
            done => done,
        };
        let from = Location::caller();
        let mut s = self.state.lock();
        s.handle.get_or_insert_with(|| EngineHandle::register(&self.state));
        let now = crate::now();
        Self::advance(&mut s, now);
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        // The first position whose job holds a higher slot is the lowest free slot.
        let slot = s.jobs.iter().enumerate().position(|(i, j)| j.slot != i);
        let slot = slot.unwrap_or(s.jobs.len());
        s.jobs.insert(slot, Job { slot, ticket, remaining: work_ns as f64, done, from });
        Self::reschedule(&mut s, now, None);
    }

    /// Add (or remove, with a negative delta) always-on background load,
    /// measured in phantom runnable threads. Used by the Basic design's
    /// polling selector.
    pub fn add_background_load(&self, delta: f64) {
        let mut s = self.state.lock();
        let now = if crate::in_sim() {
            s.handle.get_or_insert_with(|| EngineHandle::register(&self.state));
            crate::now()
        } else {
            s.last_update
        };
        Self::advance(&mut s, now);
        s.background_load = (s.background_load + delta).max(0.0);
        Self::reschedule(&mut s, now, None);
    }

    /// Per-job service rate with `jobs` jobs live under the current load.
    fn rate(s: &CpuState, jobs: usize) -> f64 {
        let n = jobs as f64 + s.background_load;
        if n <= 0.0 {
            return 1.0;
        }
        (s.cores / n).min(1.0)
    }

    /// Bring all job accounts up to `now`.
    fn advance(s: &mut CpuState, now: u64) {
        if now <= s.last_update {
            return;
        }
        let dt = (now - s.last_update) as f64;
        let rate = Self::rate(s, s.jobs.len());
        if rate > 0.0 {
            for job in &mut s.jobs {
                let burn = (rate * dt).min(job.remaining);
                job.remaining -= burn;
            }
        }
        s.last_update = now;
    }

    /// End the finished jobs, in slot order, and re-arm the tick for the
    /// next completion of the jobs left (or disarm it when none is), all in
    /// one engine call (under `engine`, the lock a tick fires under).
    fn reschedule(s: &mut CpuState, now: u64, engine: Option<&mut State>) {
        let finished = |job: &Job| job.remaining <= EPS;
        let (left, min_rem) = (s.jobs.iter().filter(|j| !finished(j)))
            .fold((0, f64::INFINITY), |(n, min), j| (n + 1, min.min(j.remaining)));
        let next = (left > 0).then(|| now + (min_rem / Self::rate(s, left)).ceil().max(1.0) as u64);
        // No handle yet: no job was ever submitted, so none can finish.
        if let Some(handle) = &s.handle {
            let ended = s.jobs.extract_if(.., |job| finished(job));
            handle.settle(engine, ended.map(|job| (job.done, job.from)), next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeededRng, Sim};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn single_job_runs_at_full_rate() {
        let sim = Sim::new();
        let cpu = Cpu::new(4);
        sim.spawn("a", move || {
            cpu.execute(1_000);
            assert_eq!(crate::now(), 1_000);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn jobs_within_core_count_do_not_contend() {
        let sim = Sim::new();
        let cpu = Cpu::new(4);
        for i in 0..4 {
            let cpu = cpu.clone();
            sim.spawn(format!("t{i}"), move || {
                cpu.execute(1_000);
                assert_eq!(crate::now(), 1_000);
            });
        }
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn oversubscription_slows_everyone() {
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        for i in 0..2 {
            let cpu = cpu.clone();
            sim.spawn(format!("t{i}"), move || {
                cpu.execute(1_000);
                // Two jobs share one core: both finish at ~2000 ns.
                assert!((1_990..=2_010).contains(&crate::now()), "now={}", crate::now());
            });
        }
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn staggered_arrivals_account_correctly() {
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        let cpu2 = cpu.clone();
        sim.spawn("first", move || {
            cpu.execute(1_000);
            // Alone for 500 ns (500 done), then shared: remaining 500 at
            // rate 0.5 → 1000 more → finish at 1500.
            assert!((1_490..=1_510).contains(&crate::now()), "now={}", crate::now());
        });
        sim.spawn("second", move || {
            crate::sleep(500);
            cpu2.execute(1_000);
            // Shares until 1500 (500 done), alone for remaining 500 →
            // finishes at 2000.
            assert!((1_990..=2_010).contains(&crate::now()), "now={}", crate::now());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn background_load_slows_compute() {
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        let cpu2 = cpu.clone();
        sim.spawn("spinner-sim", move || {
            cpu2.add_background_load(1.0);
        });
        sim.spawn("worker", move || {
            crate::sleep(1); // ensure the load is registered
            cpu.execute(1_000);
            // One real job + 1.0 phantom load on one core → rate 0.5.
            assert!((1_990..=2_011).contains(&crate::now()), "now={}", crate::now());
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn background_load_removal_restores_rate() {
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        sim.spawn("w", move || {
            cpu.add_background_load(1.0);
            cpu.add_background_load(-1.0);
            let t0 = crate::now();
            cpu.execute(1_000);
            assert_eq!(crate::now() - t0, 1_000);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn hyperthreading_adds_partial_throughput() {
        let sim = Sim::new();
        let cpu = Cpu::with_hyperthreading(1, 2);
        for i in 0..2 {
            let cpu = cpu.clone();
            sim.spawn(format!("t{i}"), move || {
                cpu.execute(1_300);
                // 2 jobs on 1.3 effective cores → rate 0.65 → 2000 ns.
                assert!((1_990..=2_010).contains(&crate::now()), "now={}", crate::now());
            });
        }
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn work_conservation() {
        // Five jobs of 1..5 µs on two cores: each phase shares the cores
        // among the jobs left, so the k-th job ends when the cores have done
        // its work plus (5 - k) times the work of every shorter job.
        let sim = Sim::new();
        let cpu = Cpu::new(2);
        let probe = cpu.clone();
        for (i, end) in [2_500u64, 4_500, 6_000, 7_000, 8_000].into_iter().enumerate() {
            let cpu = cpu.clone();
            sim.spawn(format!("t{i}"), move || {
                cpu.execute(1_000 * (i as u64 + 1));
                assert!(crate::now().abs_diff(end) <= 2, "t{i} ended at {}", crate::now());
            });
        }
        sim.run().unwrap().assert_clean();
        assert!(probe.state.lock().jobs.is_empty());
    }

    #[test]
    fn zero_work_is_free() {
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        sim.spawn("a", move || {
            cpu.execute(0);
            assert_eq!(crate::now(), 0);
        });
        sim.run().unwrap().assert_clean();
    }

    #[test]
    fn a_submitted_job_takes_the_events_an_executing_thread_takes() {
        // One job parks its thread, the other ends in a continuation: both
        // finish at 2 µs, and each completion is one popped event.
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        let (cpu2, log) = (cpu.clone(), Arc::new(Mutex::new(Vec::new())));
        let (log2, log3) = (log.clone(), log.clone());
        sim.spawn("parked", move || {
            cpu.execute(1_000);
            log2.lock().push(("parked", crate::now()));
        });
        sim.spawn("submitting", move || {
            let done = move || log3.lock().push(("called", crate::now()));
            cpu2.submit(1_000, Done::Call(Box::new(done)));
            cpu2.submit(0, Done::Call(Box::new(|| assert_eq!(crate::now(), 0))));
        });
        sim.run().unwrap().assert_clean();
        assert_eq!(*log.lock(), [("parked", 2_000), ("called", 2_000)]);
        let st = sim.stats();
        assert_eq!((st.wakes, st.calls, st.events_popped), (3, 2, 5));
    }

    #[test]
    fn state_is_freed_after_the_sim_and_the_cpu_are_dropped() {
        // `run` gives up on a panic with the computing job's tick still
        // armed. The engine holds that tick weakly, so the CPU's state, which
        // holds the engine, goes with the last `Cpu`.
        let sim = Sim::new();
        let cpu = Cpu::new(1);
        let state = Arc::downgrade(&cpu.state);
        let computing = cpu.clone();
        sim.spawn("computing", move || computing.execute(1_000));
        sim.spawn("failing", || {
            crate::sleep(10);
            panic!("the run stops mid-job");
        });
        assert!(catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
        drop(sim);
        drop(cpu);
        assert!(state.upgrade().is_none(), "the CPU state outlived its last handle");
    }

    /// The CPU model as it was before the re-armable tick, kept as the
    /// equivalence test's oracle: every slot ever used is scanned, and every
    /// reschedule boxes a `call_at` closure that a generation counter turns
    /// stale when a later change supersedes it. Only the accessors nothing
    /// reads are left out.
    mod oracle {
        use std::sync::Arc;

        use super::super::EPS;
        use crate::engine::{current_handle, wait_token, Inner, WaitToken};
        use crate::sync::Mutex;

        struct Job {
            remaining: f64,
            token: WaitToken,
            done: Arc<Mutex<bool>>,
        }

        struct CpuState {
            cores: f64,
            background_load: f64,
            jobs: Vec<Option<Job>>,
            active: usize,
            last_update: u64,
            gen: u64,
            handle: Option<Arc<Inner>>,
        }

        #[derive(Clone)]
        pub(super) struct Cpu {
            state: Arc<Mutex<CpuState>>,
        }

        fn current() -> Arc<Inner> {
            current_handle().expect("a green thread").0
        }

        impl Cpu {
            pub(super) fn with_hyperthreading(cores: u32, threads_per_core: u32) -> Self {
                let ht_factor = if threads_per_core >= 2 { 1.3 } else { 1.0 };
                Cpu {
                    state: Arc::new(Mutex::new(CpuState {
                        cores: f64::from(cores) * ht_factor,
                        background_load: 0.0,
                        jobs: Vec::new(),
                        active: 0,
                        last_update: 0,
                        gen: 0,
                        handle: None,
                    })),
                }
            }

            pub(super) fn execute(&self, work_ns: u64) {
                if work_ns == 0 {
                    return;
                }
                let done = Arc::new(Mutex::new(false));
                let slot = {
                    let mut s = self.state.lock();
                    if s.handle.is_none() {
                        s.handle = Some(current());
                    }
                    let now = crate::now();
                    Self::advance(&mut s, now);
                    let job =
                        Job { remaining: work_ns as f64, token: wait_token(), done: done.clone() };
                    let idx = s.jobs.iter().position(Option::is_none);
                    let slot = match idx {
                        Some(i) => {
                            s.jobs[i] = Some(job);
                            i
                        }
                        None => {
                            s.jobs.push(Some(job));
                            s.jobs.len() - 1
                        }
                    };
                    s.active += 1;
                    self.reschedule(&mut s, now);
                    slot
                };
                loop {
                    crate::engine::park();
                    let mut s = self.state.lock();
                    if *done.lock() {
                        return;
                    }
                    if let Some(job) = s.jobs[slot].as_mut() {
                        job.token = wait_token();
                    }
                }
            }

            pub(super) fn add_background_load(&self, delta: f64) {
                let mut s = self.state.lock();
                if s.handle.is_none() && crate::in_sim() {
                    s.handle = Some(current());
                }
                let now = if crate::in_sim() { crate::now() } else { s.last_update };
                Self::advance(&mut s, now);
                s.background_load = (s.background_load + delta).max(0.0);
                self.reschedule(&mut s, now);
            }

            fn rate(s: &CpuState) -> f64 {
                let n = s.active as f64 + s.background_load;
                if n <= 0.0 {
                    return 1.0;
                }
                (s.cores / n).min(1.0)
            }

            fn advance(s: &mut CpuState, now: u64) {
                if now <= s.last_update {
                    s.last_update = s.last_update.max(now);
                    return;
                }
                let dt = (now - s.last_update) as f64;
                let rate = Self::rate(s);
                if s.active > 0 && rate > 0.0 {
                    for job in s.jobs.iter_mut().flatten() {
                        let burn = (rate * dt).min(job.remaining);
                        job.remaining -= burn;
                    }
                }
                s.last_update = now;
            }

            fn reschedule(&self, s: &mut CpuState, now: u64) {
                for slot in s.jobs.iter_mut() {
                    if let Some(job) = slot {
                        if job.remaining <= EPS {
                            *job.done.lock() = true;
                            job.token.wake();
                            *slot = None;
                            s.active -= 1;
                        }
                    }
                }
                s.gen += 1;
                if s.active == 0 {
                    return;
                }
                let rate = Self::rate(s);
                let min_rem =
                    s.jobs.iter().flatten().map(|j| j.remaining).fold(f64::INFINITY, f64::min);
                let dt = (min_rem / rate).ceil().max(1.0) as u64;
                let gen = s.gen;
                let at = now + dt;
                let state = self.state.clone();
                let this = Cpu { state: state.clone() };
                let handle = s.handle.clone().expect("cpu used before any green thread touched it");
                handle.schedule_call(
                    at,
                    Box::new(move || {
                        let mut s = state.lock();
                        if s.gen != gen {
                            return; // superseded by a later state change
                        }
                        Cpu::advance(&mut s, at);
                        this.reschedule(&mut s, at);
                    }),
                    std::panic::Location::caller(),
                );
            }
        }
    }

    /// What the equivalence test drives: the models' public surface. A job
    /// charges its work, then runs `done`.
    trait Model: Clone + Send + 'static {
        fn build(cores: u32, threads_per_core: u32) -> Self;
        fn charge(&self, work_ns: u64, done: Box<dyn FnOnce() + Send>);
        fn add_background_load(&self, delta: f64);
    }

    impl Model for Cpu {
        fn build(cores: u32, threads_per_core: u32) -> Self {
            Cpu::with_hyperthreading(cores, threads_per_core)
        }
        fn charge(&self, work_ns: u64, done: Box<dyn FnOnce() + Send>) {
            Cpu::execute(self, work_ns);
            done();
        }
        fn add_background_load(&self, delta: f64) {
            Cpu::add_background_load(self, delta);
        }
    }

    /// The same CPU, its jobs ending in a `Done::Call` instead of a wake.
    #[derive(Clone)]
    struct Submitted(Cpu);

    impl Model for Submitted {
        fn build(cores: u32, threads_per_core: u32) -> Self {
            Submitted(Cpu::with_hyperthreading(cores, threads_per_core))
        }
        fn charge(&self, work_ns: u64, done: Box<dyn FnOnce() + Send>) {
            self.0.submit(work_ns, Done::Call(done));
        }
        fn add_background_load(&self, delta: f64) {
            self.0.add_background_load(delta);
        }
    }

    impl Model for oracle::Cpu {
        fn build(cores: u32, threads_per_core: u32) -> Self {
            oracle::Cpu::with_hyperthreading(cores, threads_per_core)
        }
        fn charge(&self, work_ns: u64, done: Box<dyn FnOnce() + Send>) {
            oracle::Cpu::execute(self, work_ns);
            done();
        }
        fn add_background_load(&self, delta: f64) {
            oracle::Cpu::add_background_load(self, delta);
        }
    }

    /// One node's load: jobs as `(arrival, work)` and background-load steps
    /// as `(time, delta)`, each on a green thread of its own.
    struct Case {
        cores: u32,
        threads_per_core: u32,
        jobs: Vec<(u64, u64)>,
        load: Vec<(u64, f64)>,
    }

    fn draw(rng: &mut SeededRng) -> Case {
        let cores = match rng.next_range(0, 2) {
            0 => 1 << rng.next_range(0, 4),
            _ => rng.next_range(1, 57) as u32,
        };
        // On a µs grid many jobs finish in the same reschedule; the fine
        // draw spans 1 ns to 10 ms.
        let grid = rng.next_range(0, 2) == 0;
        let jobs = (0..rng.next_range(1, 41))
            .map(|_| {
                if grid {
                    (rng.next_range(0, 8) * 1_000, rng.next_range(1, 5) * 1_000)
                } else {
                    let work = 10f64.powf(rng.next_f64() * 7.0) as u64;
                    (rng.next_range(0, 10_000_000), work.clamp(1, 10_000_000))
                }
            })
            .collect();
        let horizon = if grid { 12_000 } else { 12_000_000 };
        let mut load = Vec::new();
        for _ in 0..rng.next_range(0, 5) {
            let at = rng.next_range(0, horizon);
            let delta = [0.5, 1.0, 2.0, 8.0][rng.next_range(0, 4) as usize];
            match rng.next_range(0, 3) {
                0 => load.push((at, delta)),
                // A step down that may go below zero (the model clamps it).
                1 => load.push((at, -delta)),
                // A spinner that comes and goes.
                _ => load.extend([(at, delta), (rng.next_range(at, horizon + 1), -delta)]),
            }
        }
        Case { cores, threads_per_core: rng.next_range(1, 3) as u32, jobs, load }
    }

    /// `(job, completion time)` in the order the jobs' threads woke (or
    /// their continuations ran).
    fn wake_log<M: Model>(case: &Case) -> Vec<(usize, u64)> {
        let sim = Sim::new();
        let cpu = M::build(case.cores, case.threads_per_core);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, &(at, work)) in case.jobs.iter().enumerate() {
            let (cpu, log) = (cpu.clone(), log.clone());
            sim.spawn(format!("job{i}"), move || {
                crate::sleep(at);
                cpu.charge(work, Box::new(move || log.lock().push((i, crate::now()))));
            });
        }
        for (i, &(at, delta)) in case.load.iter().enumerate() {
            let cpu = cpu.clone();
            sim.spawn(format!("load{i}"), move || {
                crate::sleep(at);
                cpu.add_background_load(delta);
            });
        }
        sim.run().unwrap().assert_clean();
        let log = log.lock().clone();
        log
    }

    #[test]
    fn completion_times_and_wake_order_match_the_previous_model() {
        // Jobs that finish in one reschedule wake in slot order, and a job
        // that arrives later can hold a lower (reused) slot: count the cases
        // where such a pair woke at one instant, so that a model waking in
        // arrival order cannot pass.
        let mut inversions = 0;
        crate::for_each_case(300, |rng| {
            let case = draw(rng);
            let want = wake_log::<oracle::Cpu>(&case);
            assert_eq!(wake_log::<Cpu>(&case), want, "Done::Wake completions");
            assert_eq!(wake_log::<Submitted>(&case), want, "Done::Call completions");
            let called = |i: usize| (case.jobs[i].0, i);
            inversions += want
                .windows(2)
                .filter(|w| w[0].1 == w[1].1 && called(w[0].0) > called(w[1].0))
                .count();
        });
        assert!(inversions > 0, "no case woke a later arrival first at one instant");
    }
}
