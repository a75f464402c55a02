//! The registry-backed metrics surface: a `StageMetrics` snapshot is its
//! tasks' snapshots merged, and `JobMetrics::stage_duration` refuses
//! ambiguous fragments instead of silently returning the first match (the
//! old bug: `"ShuffleMapStage"` would quietly pick between a primary run and
//! its `-retry` recomputation).

use obs::keys;
use sparklet::scheduler::{JobMetrics, StageMetrics};

fn stage(name: &str, start_ns: u64, end_ns: u64) -> StageMetrics {
    StageMetrics {
        name: name.to_string(),
        attempt: 0,
        start_ns,
        end_ns,
        tasks: 1,
        metrics: obs::MetricsSnapshot::default(),
    }
}

fn job(stages: Vec<StageMetrics>) -> JobMetrics {
    JobMetrics { job_id: 0, action: "collect".to_string(), start_ns: 0, end_ns: 100, stages }
}

#[test]
fn unique_fragment_resolves_and_missing_is_none() {
    let j = job(vec![stage("Job0-ShuffleMapStage", 0, 40), stage("Job0-ResultStage", 40, 100)]);
    assert_eq!(j.stage_duration("ResultStage"), Some(60));
    assert_eq!(j.stage_duration("ShuffleMapStage"), Some(40));
    assert_eq!(j.stage_duration("NoSuchStage"), None);
}

#[test]
#[should_panic(expected = "ambiguous stage fragment")]
fn fragment_matching_distinct_stage_names_panics() {
    let j = job(vec![stage("Job0-ShuffleMapStage", 0, 40), stage("Job0-ResultStage", 40, 100)]);
    // "Stage" matches both stages — the old API silently returned the
    // ShuffleMapStage duration here.
    let _ = j.stage_duration("Stage");
}

#[test]
fn identically_named_stage_retries_resolve_to_the_first_run() {
    // A stage retry reruns under its original label; the fragment is not
    // ambiguous (one distinct name) and resolves to the first run.
    let j = job(vec![stage("Job0-ShuffleMapStage", 0, 40), stage("Job0-ShuffleMapStage", 50, 70)]);
    assert_eq!(j.stage_duration("ShuffleMapStage"), Some(40));
}

#[test]
fn stage_accessors_read_the_merged_snapshot() {
    // A stage's traffic is its tasks' snapshots merged, read by key.
    let mut s = stage("Job0-ResultStage", 0, 10);
    for (wait, remote, local) in [(7, 100, 30), (3, 0, 12)] {
        let task = obs::Registry::new();
        task.counter(keys::TASK_FETCH_WAIT_NS).add(wait);
        task.counter(keys::TASK_REMOTE_BYTES).add(remote);
        task.counter(keys::TASK_LOCAL_BYTES).add(local);
        s.metrics.merge(&task.snapshot());
    }
    assert_eq!(s.metrics.counter(keys::TASK_FETCH_WAIT_NS), 10);
    assert_eq!(s.metrics.counter(keys::TASK_REMOTE_BYTES), 100);
    assert_eq!(s.metrics.counter(keys::TASK_LOCAL_BYTES), 42);
    assert_eq!(s.metrics.counter(keys::TASK_RECORDS_OUT), 0);
}
