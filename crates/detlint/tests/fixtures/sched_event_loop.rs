//! Fixture: a stage-attempt event loop written against every determinism
//! rule at once — the shapes `sparklet::scheduler`'s engine must avoid.

use std::collections::HashMap;

pub struct Attempt {
    pub launches: HashMap<u64, u64>,
}

pub fn run_attempt(
    att: &Attempt,
    events: &simt::queue::Queue<u64>,
    state: &std::sync::Mutex<Vec<u64>>,
) -> u64 {
    let tick = std::time::Instant::now();
    std::thread::spawn(|| {});
    let mut rng = rand::thread_rng();
    let jitter: u8 = rand::Rng::gen(&mut rng);
    let mut straggliest = 0;
    for at_ns in att.launches.values() {
        straggliest = straggliest.max(*at_ns);
    }
    let mut held = state.lock().unwrap();
    let part = events.recv().unwrap();
    held.push(part);
    drop(held);
    straggliest + part + u64::from(jitter) + tick.elapsed().as_nanos() as u64
}
