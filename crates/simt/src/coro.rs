//! Stackful coroutines: the one module of the workspace that uses `unsafe`.
//!
//! A [`Coroutine`] is a closure with a stack of its own. [`Coroutine::resume`]
//! runs it on that stack until it calls [`suspend`] or returns; both switch
//! back to the resumer, on the resumer's stack. The engine resumes one
//! coroutine at a time from its event loop, so a whole simulation — engine and
//! every green thread — lives on the OS thread that called `Sim::run`.
//!
//! The switch saves the callee-saved registers of the C ABI on the stack being
//! left, stores that stack pointer, loads the other one and pops the registers
//! found there. Everything else is caller-saved: the compiler already treats it
//! as clobbered by the call to `simt_switch`. The floating-point control words
//! (`mxcsr`/x87 CW, `fpcr`) are callee-saved too, but nothing in this workspace
//! changes them, so both sides of every switch hold the same value.
//!
//! Invariants the rest of `simt` relies on, and keeps:
//!
//! * **A green thread must not yield while it unwinds** (a destructor that
//!   blocks on the virtual clock). The panic count is a thread-local of the OS
//!   thread, which all green threads now share: until the suspended thread is
//!   resumed and finishes unwinding, every other green thread looks as if it
//!   were panicking — `thread::panicking()` guards misfire, `std` mutexes they
//!   unlock are poisoned. Nothing in the workspace does it. (During
//!   `shutdown()` it aborts the process, as it always did: the wake that
//!   follows re-raises the unwind signal inside the destructor.)
//! * **Thread-locals are per OS thread, not per green thread.** Per-task state
//!   goes through [`crate::with_local`]; `clippy.toml` bans `thread_local!`
//!   (D7), and only `simt`'s own cells waive it.
//! * A suspended coroutine may be resumed by another OS thread than the one it
//!   last ran on, but only between two `Sim::run`/`Sim::shutdown` calls, never
//!   while it runs.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

use crate::mutex::RawMutex;

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("simt's coroutine switch is written for x86_64 and aarch64 Linux only");

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK` (Linux, both
/// architectures). `NORESERVE`: a stack is mostly address space, and ten
/// thousand of them must not be refused by the overcommit heuristic.
const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x20000;
const SC_PAGESIZE: i32 = 30;
/// Floor for a stack: room for the root frame, a panic and its hook.
const MIN_STACK: usize = 16 * 1024;
/// Stack of every engine green thread. Simulated Spark/MPI code is ordinary
/// blocking Rust, so stacks stay shallow; 512 KiB leaves comfortable margin.
pub(crate) const STACK_SIZE: usize = 512 * 1024;
/// Most stacks kept idle. Thread churn is short-lived tasks and fetches, so a small
/// list carries the gain; an idle stack keeps the pages its threads touched, which
/// shows in peak RSS (the stack-recycling entry of CHANGES.md).
const MAX_IDLE: usize = 128;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn sysconf(name: i32) -> isize;

    /// Save the callee-saved registers on the current stack, store the stack
    /// pointer in `*save`, switch to the stack `to`, restore the registers
    /// saved there and return into that context.
    fn simt_switch(save: *mut *mut u8, to: *mut u8);
}

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    ".global simt_switch",
    ".type simt_switch,@function",
    "simt_switch:",
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size simt_switch, .-simt_switch",
);

/// Words of a saved context below the return address (x86_64) or in the
/// register frame (aarch64: x19–x30 and d8–d15).
#[cfg(target_arch = "x86_64")]
const SAVED_WORDS: usize = 6;
#[cfg(target_arch = "aarch64")]
const SAVED_WORDS: usize = 20;

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".text",
    ".global simt_switch",
    ".type simt_switch,%function",
    "simt_switch:",
    "    sub sp, sp, #160",
    "    stp x19, x20, [sp, #0]",
    "    stp x21, x22, [sp, #16]",
    "    stp x23, x24, [sp, #32]",
    "    stp x25, x26, [sp, #48]",
    "    stp x27, x28, [sp, #64]",
    "    stp x29, x30, [sp, #80]",
    "    stp d8, d9, [sp, #96]",
    "    stp d10, d11, [sp, #112]",
    "    stp d12, d13, [sp, #128]",
    "    stp d14, d15, [sp, #144]",
    "    mov x9, sp",
    "    str x9, [x0]",
    "    mov sp, x1",
    "    ldp x19, x20, [sp, #0]",
    "    ldp x21, x22, [sp, #16]",
    "    ldp x23, x24, [sp, #32]",
    "    ldp x25, x26, [sp, #48]",
    "    ldp x27, x28, [sp, #64]",
    "    ldp x29, x30, [sp, #80]",
    "    ldp d8, d9, [sp, #96]",
    "    ldp d10, d11, [sp, #112]",
    "    ldp d12, d13, [sp, #128]",
    "    ldp d14, d15, [sp, #144]",
    "    add sp, sp, #160",
    "    ret",
    ".size simt_switch, .-simt_switch",
    // First entry of a coroutine: the return address lives in x30 here, not on
    // the stack, so the root frame gets its null return address from this stub.
    ".global simt_boot",
    ".type simt_boot,%function",
    "simt_boot:",
    "    mov x30, xzr",
    "    b {root}",
    ".size simt_boot, .-simt_boot",
    root = sym root,
);

#[cfg(target_arch = "aarch64")]
extern "C" {
    fn simt_boot();
}

thread_local! {
    /// The coroutine running on this OS thread (null on a plain stack).
    static ACTIVE: Cell<*mut Coroutine> = const { Cell::new(ptr::null_mut()) };
}

/// The running coroutine. Never inlined: a coroutine can be suspended on one
/// OS thread and resumed on another (between two `Sim::run`s), and an inlined
/// thread-local access lets the compiler reuse the first thread's address for
/// a read made after the switch.
#[inline(never)]
fn active() -> *mut Coroutine {
    ACTIVE.get()
}

/// What a panic leaves behind.
pub(crate) type Payload = Box<dyn Any + Send>;

/// How a [`Coroutine::resume`] ended.
pub(crate) enum Step {
    /// The coroutine called [`suspend`]; it can be resumed again.
    Suspended,
    /// The body returned (`None`) or unwound (`Some`). The coroutine is dead.
    Finished(Option<Payload>),
}

/// A mapping no coroutine runs on. The first page of `base .. base + len` is
/// `PROT_NONE` from the day it is mapped to the day it is unmapped: an overflow
/// faults instead of running into the mapping below. The rest is the stack.
struct Stack {
    base: *mut u8,
    len: usize,
}

// SAFETY: a `Stack` is the only pointer to its mapping, and whoever holds it
// may hand it to a coroutine on any OS thread: nothing in it is bound to one.
unsafe impl Send for Stack {}

/// Host-side census of the process's green-thread stacks. Not [`crate::SimStats`]
/// fields: what a `Sim` finds idle depends on what the process ran before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Stacks mapped (`mmap` + guard `mprotect`).
    pub mapped: u64,
    /// Green threads that started on a stack an earlier one had finished on.
    pub reused: u64,
    /// Stacks waiting for their next green thread right now (at most 128).
    pub idle: u64,
    /// Stacks unmapped: over the bound, odd-sized, or released on `ENOMEM`.
    pub unmapped: u64,
}

/// Every stack's life cycle: mapped once, run on by one coroutine after another,
/// idle in between (last in, first out: the warmest next), unmapped over the bound.
struct Pool {
    idle: Vec<Stack>,
    stats: StackStats,
}

/// Process-wide: back-to-back `Sim`s start on warm stacks. Locked: a `Sim` may
/// be built, run and dropped on different OS threads.
static POOL: RawMutex<Pool> = RawMutex::new(Pool::new());

/// The process's stack census (see [`StackStats`]).
pub fn stack_stats() -> StackStats {
    let pool = POOL.lock();
    StackStats { idle: pool.idle.len() as u64, ..pool.stats }
}

fn page_size() -> usize {
    // SAFETY: `sysconf` has no preconditions.
    usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).expect("page size")
}

/// Length of an engine green thread's mapping: guard page and stack.
fn engine_len() -> usize {
    page_size() + STACK_SIZE
}

impl Pool {
    const fn new() -> Pool {
        Pool { idle: Vec::new(), stats: StackStats { mapped: 0, reused: 0, idle: 0, unmapped: 0 } }
    }

    /// A stack of `len` bytes: the last one idled, else a fresh mapping. Only
    /// engine-sized stacks are ever idle, so the list needs no size classes.
    fn take(&mut self, len: usize) -> Stack {
        if len == engine_len() {
            if let Some(stack) = self.idle.pop() {
                self.stats.reused += 1;
                return stack;
            }
        }
        let idle = self.idle.len() as u64;
        let live = self.stats.mapped - self.stats.unmapped - idle;
        if let Ok(stack) = self.map(len) {
            return stack;
        }
        // Either call fails with ENOMEM at the process's mapping limit. Idle
        // stacks count against it too: let them go and ask once more.
        self.release_idle();
        self.map(len).unwrap_or_else(|e| {
            panic!(
                "simt: cannot {e} ({live} live and {idle} idle green-thread stacks, the idle ones \
                 released before the second attempt; each takes two of the process's \
                 `vm.max_map_count` mappings)"
            )
        })
    }

    /// Map `len` bytes and guard the lowest page; the error says which failed.
    fn map(&mut self, len: usize) -> Result<Stack, String> {
        let refused = |what: &str| {
            let os = std::io::Error::last_os_error();
            format!("{what} a {len}-byte green-thread stack: {os}")
        };
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases nothing.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
        // MAP_FAILED is -1.
        if base as isize == -1 || base.is_null() {
            return Err(refused("map"));
        }
        self.stats.mapped += 1;
        let stack = Stack { base: base.cast(), len };
        // SAFETY: the first page of the mapping made above, page-aligned.
        if unsafe { mprotect(base, page_size(), PROT_NONE) } != 0 {
            let e = refused("guard");
            self.unmap(stack);
            return Err(e);
        }
        Ok(stack)
    }

    /// Take back the stack of a coroutine that finished or was dropped.
    fn give(&mut self, stack: Stack) {
        if stack.len == engine_len() && self.idle.len() < MAX_IDLE {
            self.idle.push(stack);
        } else {
            self.unmap(stack);
        }
    }

    fn release_idle(&mut self) {
        while let Some(stack) = self.idle.pop() {
            self.unmap(stack);
        }
    }

    fn unmap(&mut self, stack: Stack) {
        // SAFETY: a mapping made by `map`, unmapped once: `stack` is the only
        // pointer to it and is consumed here. Nothing runs on it — a stack is
        // a `Stack` only before `Coroutine::new` and after `Coroutine::drop`.
        let rc = unsafe { munmap(stack.base.cast(), stack.len) };
        debug_assert_eq!(rc, 0, "simt: munmap of a green-thread stack failed");
        self.stats.unmapped += 1;
    }
}

/// A closure and the stack it runs on: `stack .. stack + len` is a [`Stack`]
/// that `new` took from the pool and `drop` gives back.
pub(crate) struct Coroutine {
    stack: *mut u8,
    len: usize,
    /// Saved stack pointer while suspended; null once the body has finished.
    /// Owned by whoever owns the `Coroutine`: only `resume` (through
    /// `&mut self`) loads it, only the coroutine itself, while running, stores
    /// it.
    sp: *mut u8,
    /// Stack pointer of the `resume` call in progress.
    resumer_sp: *mut u8,
    body: Option<Box<dyn FnOnce() + Send>>,
    panic: Option<Payload>,
}

// SAFETY: the raw pointers are the coroutine's own mapping (nothing else refers
// to it) and `body`/`panic` are `Send`. The frames of a suspended coroutine may
// hold values that are not `Send`; they are only ever touched again by the
// coroutine itself, so what must hold is that they do not alias state bound to
// one OS thread. The only such state is thread-locals: `simt`'s own are
// re-installed on every resume, the panic count is balanced whenever a green
// thread yields (see the module invariants), and `clippy.toml` (D7) keeps
// `thread_local!` out of every other crate.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// A coroutine that will run `body` on a stack of `stack_size` bytes (rounded
    /// up to whole pages, at least [`MIN_STACK`]) on first resume.
    pub(crate) fn new(stack_size: usize, body: Box<dyn FnOnce() + Send>) -> Coroutine {
        let page = page_size();
        let len = page + stack_size.max(MIN_STACK).next_multiple_of(page);
        let Stack { base: stack, len } = POOL.lock().take(len);

        // The context `simt_switch` will "return" into on first resume: zeroed
        // callee-saved registers and `root` as the return address.
        //
        // SAFETY: all writes land in the top 64 (x86_64) or 160 (aarch64) bytes
        // of the writable part of the mapping, which is at least `MIN_STACK`
        // long; `top` is page-aligned, so every slot is 8-byte aligned. A
        // recycled stack needs no clearing: every word the first switch pops
        // is written here, and below it frames write before they read, as on
        // any stack — what the last thread left there is dead bytes.
        let sp = unsafe {
            let top = stack.add(len).cast::<usize>();
            #[cfg(target_arch = "x86_64")]
            {
                // The ABI wants `rsp + 8` 16-byte aligned at function entry,
                // i.e. the slot `ret` pops `root` from 16-byte aligned. Above
                // it sits the root frame's return address, 0: unwinders and
                // backtraces stop there instead of reading past the mapping.
                top.sub(1).write(0);
                top.sub(2).write(root as *const () as usize);
                let sp = top.sub(2 + SAVED_WORDS);
                ptr::write_bytes(sp, 0, SAVED_WORDS);
                sp.cast::<u8>()
            }
            #[cfg(target_arch = "aarch64")]
            {
                // `sp` must be 16-byte aligned at all times: the frame is 160
                // bytes below the page-aligned top. x30 (slot 11) is where
                // `ret` goes: `simt_boot`, which zeroes x30 — the root frame's
                // return address — and branches to `root`.
                let sp = top.sub(SAVED_WORDS);
                ptr::write_bytes(sp, 0, SAVED_WORDS);
                sp.add(11).write(simt_boot as *const () as usize);
                sp.cast::<u8>()
            }
        };
        Coroutine { stack, len, sp, resumer_sp: ptr::null_mut(), body: Some(body), panic: None }
    }

    /// Run the coroutine until it suspends or finishes.
    ///
    /// Panics when called on a finished coroutine: a dead coroutine's `sp` is
    /// null and is never loaded.
    pub(crate) fn resume(&mut self) -> Step {
        assert!(!self.sp.is_null(), "simt: resumed a finished coroutine");
        let this: *mut Coroutine = self;
        let outer = ACTIVE.replace(this);
        // SAFETY: `sp` is non-null, so it was stored by `new` or by the
        // `simt_switch` in `suspend`, and its stack holds a context that
        // `simt_switch` pushed (or `new` forged) and nothing has popped:
        // `&mut self` excludes a concurrent resume, and the coroutine cannot
        // resume itself because it is not suspended while it runs. `this`
        // stays valid throughout — `self` is borrowed until the switch comes
        // back. The save slot is this coroutine's own `resumer_sp`.
        unsafe { simt_switch(&raw mut (*this).resumer_sp, (*this).sp) };
        ACTIVE.set(outer);
        if self.sp.is_null() {
            Step::Finished(self.panic.take())
        } else {
            Step::Suspended
        }
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // Dropping a suspended coroutine frees its frames without running
        // their destructors (a leak, not a fault: the body is `'static`). The
        // engine unwinds every green thread before it lets go of one.
        //
        // Nothing runs on the stack (a running coroutine is borrowed by
        // `resume`) and `self` was the only pointer to it.
        POOL.lock().give(Stack { base: self.stack, len: self.len });
    }
}

/// First and only frame that `simt_switch` enters rather than returns to.
extern "C" fn root() -> ! {
    // SAFETY: `active()` is the `this` of the `resume` that switched here; that
    // call is suspended in `simt_switch` for as long as this coroutine runs and
    // touches no field meanwhile.
    let body = unsafe { (*active()).body.take() }.expect("a coroutine is entered once");
    // A panic must not leave this frame: there is nothing above it.
    let panic = panic::catch_unwind(AssertUnwindSafe(body)).err();
    // The `Coroutine` may have moved between resumes: ask again where it is.
    let co = active();
    let mut dead = ptr::null_mut();
    // SAFETY: as above, for the `resume` in progress now. A null `sp` marks
    // the coroutine finished, so this context is never switched to again and
    // the save slot can be a local; `resumer_sp` was stored by that `resume`.
    unsafe {
        (*co).panic = panic;
        (*co).sp = ptr::null_mut();
        simt_switch(&raw mut dead, (*co).resumer_sp);
    }
    unreachable!("simt: a finished coroutine was resumed");
}

/// Switch from the running coroutine back to its resumer; returns when the
/// coroutine is next resumed. Panics outside a coroutine.
pub(crate) fn suspend() {
    let co = active();
    assert!(!co.is_null(), "simt: suspend() called outside a green thread");
    // SAFETY: `ACTIVE` is set by `resume` for exactly as long as the coroutine
    // runs, so `co` is the coroutine whose stack we are on and its `resume`
    // call is suspended in `simt_switch`, waiting at `resumer_sp`. Storing our
    // stack pointer in `sp` hands this context to the coroutine's owner.
    unsafe { simt_switch(&raw mut (*co).sp, (*co).resumer_sp) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counter() -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let c = Arc::new(AtomicUsize::new(0));
        (c.clone(), c)
    }

    #[test]
    fn runs_body_across_suspends_then_finishes() {
        let (seen, c) = counter();
        let mut co = Coroutine::new(
            64 * 1024,
            Box::new(move || {
                for _ in 0..3 {
                    c.fetch_add(1, Ordering::SeqCst);
                    suspend();
                }
            }),
        );
        for expect in 1..=3 {
            assert!(matches!(co.resume(), Step::Suspended));
            assert_eq!(seen.load(Ordering::SeqCst), expect);
        }
        assert!(matches!(co.resume(), Step::Finished(None)));
    }

    #[test]
    fn a_suspended_coroutine_may_move_and_still_panic_into_its_new_home() {
        // The engine moves a parked thread's `Coroutine` into its slot and out
        // again; the running side must not remember the old address.
        let mut co = Coroutine::new(
            64 * 1024,
            Box::new(|| {
                suspend();
                panic!("after the move");
            }),
        );
        assert!(matches!(co.resume(), Step::Suspended));
        let mut moved = Box::new(co);
        let Step::Finished(Some(p)) = moved.resume() else { panic!("expected a payload") };
        assert_eq!(p.downcast_ref::<&str>(), Some(&"after the move"));
    }

    #[test]
    fn panic_in_body_comes_back_as_payload() {
        let mut co = Coroutine::new(64 * 1024, Box::new(|| panic!("inside")));
        let Step::Finished(Some(p)) = co.resume() else { panic!("expected a payload") };
        assert_eq!(p.downcast_ref::<&str>(), Some(&"inside"));
    }

    #[test]
    #[should_panic(expected = "resumed a finished coroutine")]
    fn finished_coroutine_refuses_resume() {
        let mut co = Coroutine::new(64 * 1024, Box::new(|| ()));
        assert!(matches!(co.resume(), Step::Finished(None)));
        co.resume();
    }

    #[test]
    fn coroutines_nest() {
        let (seen, c) = counter();
        let mut outer = Coroutine::new(
            64 * 1024,
            Box::new(move || {
                let c2 = c.clone();
                let mut inner = Coroutine::new(
                    64 * 1024,
                    Box::new(move || {
                        c2.fetch_add(1, Ordering::SeqCst);
                        suspend(); // leaves `inner` only
                        c2.fetch_add(10, Ordering::SeqCst);
                    }),
                );
                assert!(matches!(inner.resume(), Step::Suspended));
                suspend(); // `ACTIVE` is `outer` again
                assert!(matches!(inner.resume(), Step::Finished(None)));
                c.fetch_add(100, Ordering::SeqCst);
            }),
        );
        assert!(matches!(outer.resume(), Step::Suspended));
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert!(matches!(outer.resume(), Step::Finished(None)));
        assert_eq!(seen.load(Ordering::SeqCst), 111);
    }

    #[test]
    fn deep_frames_and_floats_survive_a_switch() {
        // Callee-saved registers (integer and, on aarch64, d8–d15) hold live
        // values across `suspend`; a wrong save/restore shows as a wrong sum.
        fn descend(depth: u32, acc: f64) -> f64 {
            if depth == 0 {
                suspend();
                return acc;
            }
            let here = f64::from(depth).sqrt();
            descend(depth - 1, acc + here) + here
        }
        let expect: f64 = (1..=200u32).map(|d| f64::from(d).sqrt()).sum::<f64>() * 2.0;
        let out = Arc::new(crate::mutex::RawMutex::new(0.0));
        let out2 = out.clone();
        let mut co = Coroutine::new(256 * 1024, Box::new(move || *out2.lock() = descend(200, 0.0)));
        assert!(matches!(co.resume(), Step::Suspended));
        let noise: f64 = (1..=50u32).map(|d| f64::from(d).cbrt()).sum();
        assert!(noise > 0.0);
        assert!(matches!(co.resume(), Step::Finished(None)));
        assert!((*out.lock() - expect).abs() < 1e-6);
    }

    #[test]
    fn released_idle_stacks_are_unmapped_and_the_next_one_is_mapped_fresh() {
        // A pool of its own: the process's is shared with every other test.
        let mut pool = Pool::new();
        let len = engine_len();
        let stacks: Vec<Stack> = (0..3).map(|_| pool.take(len)).collect();
        stacks.into_iter().for_each(|s| pool.give(s));
        let warm = pool.take(len);
        pool.give(warm);
        assert_eq!((pool.idle.len(), pool.stats.mapped, pool.stats.reused), (3, 3, 1));
        pool.release_idle();
        assert_eq!((pool.idle.len(), pool.stats.unmapped), (0, 3));
        let fresh = pool.take(len);
        assert_eq!((pool.stats.mapped, pool.stats.reused), (4, 1));
        // An odd-sized stack is never kept.
        let odd = pool.take(page_size() + MIN_STACK);
        pool.give(odd);
        pool.give(fresh);
        assert_eq!((pool.idle.len(), pool.stats.mapped, pool.stats.unmapped), (1, 5, 4));
        pool.release_idle();
    }

    #[test]
    fn tiny_stack_request_is_raised_to_the_floor() {
        let mut co = Coroutine::new(0, Box::new(suspend));
        assert!(co.len >= MIN_STACK);
        assert!(matches!(co.resume(), Step::Suspended));
        assert!(matches!(co.resume(), Step::Finished(None)));
    }
}
