//! CPU pinning. The simulator runs one green thread at a time, so one CPU
//! costs no parallelism, and unpinned the same cell takes several times
//! longer and varies several-fold (the OS migrates every hand-off).
//! `sched_setaffinity(0, ..)` sets the calling thread's mask and threads
//! inherit it at creation, so pinning `main` before anything is spawned pins
//! every green thread.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn set(mask: &CpuSet) {
    // SAFETY: `mask` points to a live `cpu_set_t`-sized buffer whose size is
    // the one passed; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    assert_eq!(rc, 0, "sched_setaffinity failed: {}", std::io::Error::last_os_error());
}

/// The calling thread pinned to one CPU; remembers the mask it started with.
pub struct Pinned {
    allowed: CpuSet,
    only: CpuSet,
}

/// Pin the calling thread to the first CPU it is allowed to run on.
pub fn pin() -> Pinned {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer whose
    // size is the one passed; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    assert_eq!(rc, 0, "sched_getaffinity failed: {}", std::io::Error::last_os_error());
    let word = allowed.iter().position(|w| *w != 0).expect("at least one allowed CPU");
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << allowed[word].trailing_zeros();
    set(&only);
    Pinned { allowed, only }
}

impl Pinned {
    /// The CPU the thread is pinned to.
    pub fn cpu(&self) -> usize {
        let word = self.only.iter().position(|w| *w != 0).expect("one CPU is set");
        word * 64 + self.only[word].trailing_zeros() as usize
    }

    /// How many CPUs the thread was allowed before pinning.
    pub fn allowed_cpus(&self) -> u32 {
        self.allowed.iter().map(|w| w.count_ones()).sum()
    }

    /// Run `f` with the original mask (threads it spawns float), then re-pin.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        set(&self.allowed);
        let out = f();
        set(&self.only);
        out
    }
}
