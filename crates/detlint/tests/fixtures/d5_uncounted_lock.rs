//! Fixture: rule D5 — locks whose guards the engine cannot count.

use std::sync::{Arc, Mutex};

pub fn drain(q: &simt::queue::Queue<u64>, state: &std::sync::RwLock<Vec<u64>>) {
    let mut held = state.write().unwrap();
    let v = q.recv().unwrap();
    held.push(v);
}

pub fn share(v: u64) -> Arc<Mutex<u64>> {
    Arc::new(Mutex::new(v))
}
