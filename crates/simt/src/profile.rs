//! The host profile: host time the engine spends per popped event, summed per
//! label over the process. Off by default, when it costs `Sim::run` one flag
//! test per event. It measures the machine, not the simulated program, so
//! nothing it reads may reach a ledger value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::mutex::RawMutex;

#[expect(
    clippy::disallowed_types,
    reason = "D1: host time of the engine itself, printed as a note and never recorded"
)]
type HostClock = std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// What an event's host time is summed under; named by [`take_host_profile`].
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Label {
    Wake(String),
    Call(&'static str, u32),
    Tick,
}

/// Events and host nanoseconds per label.
static PROFILE: RawMutex<BTreeMap<Label, (u64, u64)>> = RawMutex::new(BTreeMap::new());

/// Profile the [`Sim::run`](crate::Sim::run) calls that start from now on.
pub fn set_host_profile(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
/// `label → (events, host ns)`, clearing the table. A label is `wake <thread
/// name up to a digit or :>`, `call <file:line>` (who called `call_at`, or the
/// wake that ran a continuation) or `tick` (a CPU model's tick).
pub fn take_host_profile() -> BTreeMap<String, (u64, u64)> {
    let name = |label| match label {
        Label::Wake(prefix) => format!("wake {prefix}"),
        Label::Call(file, line) => format!("call {file}:{line}"),
        Label::Tick => "tick".into(),
    };
    let table = std::mem::take(&mut *PROFILE.lock());
    table.into_iter().map(|(label, sums)| (name(label), sums)).collect()
}

/// One event being profiled: its label and the host instant it began.
pub(crate) struct Probe(Label, HostClock);

impl Probe {
    pub(crate) fn start(label: Label) -> Probe {
        Probe(label, HostClock::now())
    }

    pub(crate) fn finish(self) {
        let ns = self.1.elapsed().as_nanos() as u64;
        let mut table = PROFILE.lock();
        let (events, host_ns) = table.entry(self.0).or_default();
        *events += 1;
        *host_ns += ns;
    }
}
