//! Processor-sharing CPU model for simulated nodes.
//!
//! Each node owns a [`Cpu`] with `cores` hardware threads. Green threads
//! charge compute work via [`Cpu::execute`]; when more jobs are active than
//! cores, every job's service rate degrades proportionally (egalitarian
//! processor sharing — a good first-order model of a loaded Spark worker).
//!
//! A *background load* models spinning threads that consume core time without
//! ever finishing — exactly what MPI4Spark-Basic's non-blocking
//! `select()`+`MPI_Iprobe` selector loop does (paper §VI-D/§VII-B). Raising
//! the background load slows co-located tasks, which is the effect Fig. 9
//! measures.

use std::sync::Arc;

use crate::engine::{wait_token, EngineHandle, WaitToken};
use crate::sync::Mutex;

/// Completion threshold for floating-point work accounting (nanoseconds).
const EPS: f64 = 1e-3;

struct Job {
    remaining: f64,
    token: WaitToken,
    done: Arc<Mutex<bool>>,
}

struct CpuState {
    cores: f64,
    hyper_threads: f64,
    /// Equivalent number of always-runnable phantom jobs (spinners).
    background_load: f64,
    jobs: Vec<Option<Job>>,
    active: usize,
    last_update: u64,
    gen: u64,
    handle: Option<EngineHandle>,
    total_work_done: f64,
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
                hyper_threads: f64::from(cores) * f64::from(threads_per_core),
                background_load: 0.0,
                jobs: Vec::new(),
                active: 0,
                last_update: 0,
                gen: 0,
                handle: None,
                total_work_done: 0.0,
            })),
        }
    }

    /// Number of schedulable hardware threads (cores × threads/core).
    pub fn slots(&self) -> u32 {
        self.state.lock().hyper_threads as u32
    }

    /// Charge `work_ns` of single-threaded compute against this CPU,
    /// blocking the calling green thread for the (contention-scaled)
    /// virtual duration.
    pub fn execute(&self, work_ns: u64) {
        if work_ns == 0 {
            return;
        }
        let done = Arc::new(Mutex::new(false));
        let slot = {
            let mut s = self.state.lock();
            if s.handle.is_none() {
                s.handle = Some(EngineHandle::current());
            }
            let now = crate::now();
            Self::advance(&mut s, now);
            let job = Job { remaining: work_ns as f64, token: wait_token(), done: done.clone() };
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
            // Spurious wake: refresh our token so a future tick can reach us.
            if let Some(job) = s.jobs[slot].as_mut() {
                job.token = wait_token();
            }
        }
    }

    /// Add (or remove, with a negative delta) always-on background load,
    /// measured in phantom runnable threads. Used by the Basic design's
    /// polling selector.
    pub fn add_background_load(&self, delta: f64) {
        let mut s = self.state.lock();
        if s.handle.is_none() && crate::in_sim() {
            s.handle = Some(EngineHandle::current());
        }
        let now = if crate::in_sim() { crate::now() } else { s.last_update };
        Self::advance(&mut s, now);
        s.background_load = (s.background_load + delta).max(0.0);
        self.reschedule(&mut s, now);
    }

    /// Current background load in phantom threads.
    pub fn background_load(&self) -> f64 {
        self.state.lock().background_load
    }

    /// Number of in-flight compute jobs.
    pub fn active_jobs(&self) -> usize {
        self.state.lock().active
    }

    /// Total single-threaded work completed so far (ns of work, not
    /// wall-clock). Useful for utilization accounting in tests.
    pub fn total_work_done(&self) -> f64 {
        self.state.lock().total_work_done
    }

    /// Per-job service rate under the current load.
    fn rate(s: &CpuState) -> f64 {
        let n = s.active as f64 + s.background_load;
        if n <= 0.0 {
            return 1.0;
        }
        (s.cores / n).min(1.0)
    }

    /// Bring all job accounts up to `now`.
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
                s.total_work_done += burn;
            }
        }
        s.last_update = now;
    }

    /// Complete any finished jobs and schedule the next completion tick.
    fn reschedule(&self, s: &mut CpuState, now: u64) {
        // Complete jobs at or below the threshold.
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
        let min_rem = s.jobs.iter().flatten().map(|j| j.remaining).fold(f64::INFINITY, f64::min);
        let dt = (min_rem / rate).ceil().max(1.0) as u64;
        let gen = s.gen;
        let at = now + dt;
        let state = self.state.clone();
        let this = Cpu { state: state.clone() };
        let handle = s.handle.clone().expect("cpu used before any green thread touched it");
        handle.call_at(at, move || {
            let mut s = state.lock();
            if s.gen != gen {
                return; // superseded by a later state change
            }
            Cpu::advance(&mut s, at);
            this.reschedule(&mut s, at);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

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
        assert_eq!(cpu.slots(), 2);
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
        let sim = Sim::new();
        let cpu = Cpu::new(2);
        let probe = cpu.clone();
        let mut expected = 0.0;
        for i in 0..5u64 {
            let cpu = cpu.clone();
            expected += (1_000 * (i + 1)) as f64;
            sim.spawn(format!("t{i}"), move || {
                cpu.execute(1_000 * (i + 1));
            });
        }
        sim.run().unwrap().assert_clean();
        let done = probe.total_work_done();
        assert!((done - expected).abs() < 1.0, "done={done} expected={expected}");
        assert_eq!(probe.active_jobs(), 0);
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
}
