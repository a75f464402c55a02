//! Harness spans: one record per call into a layer, stamped on both clocks,
//! kept in memory and written out when the benchmark ends. Also the self-time
//! arithmetic shared with the program's own `obs::SpanRecord`s.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) harness span. Times are nanoseconds: host
/// time since the recorder was created, virtual time of the simulation the
/// span ran in (0 outside any simulation).
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub name: String,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virtual_start_ns: u64,
    pub virtual_end_ns: u64,
}

impl HarnessSpan {
    pub fn host_s(&self) -> f64 {
        (self.host_end_ns - self.host_start_ns) as f64 / 1e9
    }
}

/// In-memory span store. Green threads are OS threads, so spans are opened
/// and closed from several threads; ids are handed out in open order.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<HarnessSpan>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Recorder {
    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root) at virtual time `virtual_ns`.
    pub fn open(&self, name: &str, parent: u64, virtual_ns: u64) -> u64 {
        let host = self.host_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = spans.len() as u64 + 1;
        spans.push(HarnessSpan {
            id,
            parent,
            name: name.to_string(),
            host_start_ns: host,
            host_end_ns: host,
            virtual_start_ns: virtual_ns,
            virtual_end_ns: virtual_ns,
        });
        id
    }

    /// Close span `id` at virtual time `virtual_ns`.
    pub fn close(&self, id: u64, virtual_ns: u64) {
        let host = self.host_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        let span = &mut spans[id as usize - 1];
        span.host_end_ns = host;
        span.virtual_end_ns = virtual_ns;
    }

    /// Run `f` inside a span. Inside a simulation the virtual stamps come from
    /// the calling green thread's clock.
    pub fn scope<R>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let virtual_now = || if simt::in_sim() { simt::now() } else { 0 };
        let id = self.open(name, parent, virtual_now());
        let out = f(id);
        self.close(id, virtual_now());
        out
    }

    pub fn snapshot(&self) -> Vec<HarnessSpan> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// A span reduced to what self-time needs.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
}

/// Self time per span id: the span's duration minus the part of its interval
/// that its direct children cover. Children may overlap each other and may
/// stick out of the parent; overlaps count once and the excess is clipped.
pub fn self_times(spans: &[Interval]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// The harness spans as a JSON document (`benchmark/out/trace-<workload>.json`).
pub fn to_json(workload: &str, spans: &[HarnessSpan]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"clock_unit\": \"ns\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"host_start\": {}, \"host_end\": {}, \
             \"virtual_start\": {}, \"virtual_end\": {}}}{sep}",
            s.id,
            s.parent,
            s.name,
            s.host_start_ns,
            s.host_end_ns,
            s.virtual_start_ns,
            s.virtual_end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(id: u64, parent: u64, start: u64, end: u64) -> Interval {
        Interval { id, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_the_interval_children_cover() {
        let spans = [
            iv(1, 0, 0, 100),
            iv(2, 1, 10, 30),   // plain child
            iv(3, 1, 20, 50),   // overlaps child 2: 20..30 counts once
            iv(4, 1, 90, 120),  // sticks out of the parent: clipped to 90..100
            iv(5, 3, 25, 45),   // grandchild: charged to 3, not to 1
            iv(6, 0, 200, 200), // empty root
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - (40 + 10));
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 30 - 20);
        assert_eq!(t[&4], 30);
        assert_eq!(t[&5], 20);
        assert_eq!(t[&6], 0);
    }

    #[test]
    fn child_covering_its_parent_leaves_no_self_time() {
        let t = self_times(&[iv(1, 0, 5, 9), iv(2, 1, 0, 20)]);
        assert_eq!(t[&1], 0);
    }

    #[test]
    fn recorder_nests_scopes_and_serializes() {
        let rec = Recorder::default();
        rec.scope("outer", 0, |outer| rec.scope("inner", outer, |_| ()));
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, spans[0].id));
        assert!(spans[0].host_start_ns <= spans[1].host_start_ns);
        assert!(spans[1].host_end_ns <= spans[0].host_end_ns);
        let json = to_json("w", &spans);
        assert!(obs::timeline::validate_json(&json).is_ok(), "{json}");
    }
}
