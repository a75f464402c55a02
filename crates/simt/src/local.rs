//! Per-green-thread storage.
//!
//! All green threads of a simulation share one OS thread, so a `thread_local!`
//! is shared by all of them. State that belongs to one green thread (the `obs`
//! span stack, say) lives in that thread's slot in the engine instead; the
//! engine installs it here for as long as the thread runs. Outside a green
//! thread — on the engine's own stack, or in a plain unit test — the cell holds
//! the OS thread's own values, so callers need not care where they run.

use std::any::Any;
use std::cell::RefCell;

/// One value per type that was asked for; a handful at most.
pub(crate) type Locals = Vec<Box<dyn Any + Send>>;

thread_local! {
    /// Locals of whatever runs on this OS thread right now.
    static CURRENT: RefCell<Locals> = const { RefCell::new(Vec::new()) };
}

/// Exchange the installed locals with `other`. The engine calls this on both
/// sides of a resume: in with the green thread's, out with them again.
pub(crate) fn swap(other: &mut Locals) {
    on_current(&mut |current| std::mem::swap(current, other));
}

// Never inlined, so that a green thread resumed by another OS thread than the
// one it parked on reaches that thread's cell (see `coro::active`).
#[inline(never)]
fn on_current(f: &mut dyn FnMut(&mut Locals)) {
    CURRENT.with(|c| f(&mut c.borrow_mut()));
}

/// Run `f` on the calling green thread's own `T`, made with `T::default()` the
/// first time that thread asks for one. Outside a green thread the `T` belongs
/// to the calling OS thread.
///
/// `f` must not block on the virtual clock or call `with_local` again.
pub fn with_local<T: Default + Send + 'static, R>(f: impl FnOnce(&mut T) -> R) -> R {
    let mut call = Some(f);
    let mut out = None;
    on_current(&mut |locals| {
        let i = locals.iter().position(|l| l.is::<T>()).unwrap_or_else(|| {
            locals.push(Box::new(T::default()));
            locals.len() - 1
        });
        let value = locals[i].downcast_mut().expect("position() matched on the type");
        out = call.take().map(|f| f(value));
    });
    out.expect("on_current runs its closure once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[derive(Default)]
    struct Trail(Vec<&'static str>);

    #[test]
    fn each_green_thread_and_the_os_thread_have_their_own_value() {
        with_local(|t: &mut Trail| t.0.push("os"));
        let sim = Sim::new();
        for name in ["a", "b"] {
            sim.spawn(name, move || {
                with_local(|t: &mut Trail| t.0.push(name));
                crate::sleep(1); // the other thread runs in between
                with_local(|t: &mut Trail| t.0.push(name));
                assert_eq!(with_local(|t: &mut Trail| t.0.clone()), vec![name, name]);
            });
        }
        sim.run().unwrap().assert_clean();
        assert_eq!(with_local(|t: &mut Trail| t.0.clone()), vec!["os"]);
    }

    #[test]
    fn engine_closures_see_the_os_threads_value() {
        #[derive(Default)]
        struct Mark(u32);
        with_local(|m: &mut Mark| m.0 = 7);
        let sim = Sim::new();
        sim.spawn("t", || {
            with_local(|m: &mut Mark| m.0 = 1);
            crate::engine::call_at(crate::now(), || assert_eq!(with_local(|m: &mut Mark| m.0), 7));
            crate::sleep(1);
        });
        sim.run().unwrap().assert_clean();
    }
}
