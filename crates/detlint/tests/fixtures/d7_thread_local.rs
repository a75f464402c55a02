//! Fixture: rule D7 — per-task state kept in a thread-local.

thread_local! {
    static OPEN_SPANS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

pub fn depth() -> usize {
    OPEN_SPANS.with(|s| s.borrow().len())
}
