//! The `repro` harness: every figure, table, ablation and feature bench of
//! the paper's evaluation (§VII) is a *suite* — a plain function that runs
//! its cells and emits one [`Record`] per cell through the [`Run`] it is
//! given. `repro <suite>… --scale small|full` runs them; `all` runs every
//! suite in [`SUITES`] order.
//!
//! Ledger lines go to stdout when it is redirected, the human table to
//! stderr: `repro all --scale small > /tmp/l` regenerates the small-scale
//! records of `results/ledger.json` byte for byte.

#![forbid(unsafe_code)]

pub mod hibench;
pub mod ohb_runner;
pub mod pingpong;
pub mod record;
mod suites;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use fabric::ClusterSpec;
pub use record::{Record, Run};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale clusters and data volumes.
    Full,
    /// Shrunk for smoke tests.
    Small,
}

impl Scale {
    /// The `--scale` value naming this scale.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }

    /// Cores per worker to simulate (the paper's 56 on Frontera).
    pub fn frontera_cores(&self) -> u32 {
        match self {
            Scale::Full => 56,
            Scale::Small => 4,
        }
    }

    /// Scale a paper worker count.
    pub fn workers(&self, paper: usize) -> usize {
        match self {
            Scale::Full => paper,
            Scale::Small => 2.max(paper / 8),
        }
    }

    /// Scale a per-worker data volume in GiB.
    pub fn gb(&self, paper: u64) -> u64 {
        match self {
            Scale::Full => paper,
            Scale::Small => 1.max(paper / 16),
        }
    }
}

/// A Frontera-like cluster hosting `workers` workers (plus master+driver
/// nodes).
pub fn frontera_cluster(workers: usize) -> ClusterSpec {
    ClusterSpec::frontera(workers + 2)
}

/// A Stampede2-like cluster hosting `workers` workers.
pub fn stampede2_cluster(workers: usize) -> ClusterSpec {
    ClusterSpec::stampede2(workers + 2)
}

/// A suite: runs its cells, emits a record per cell, asserts its contracts.
pub type Suite = fn(&mut Run<'_>);

/// Every suite by name, in `all` order.
pub const SUITES: &[(&str, Suite)] = &[
    ("fig08", suites::fig08),
    ("fig09", suites::fig09),
    ("fig10", suites::fig10),
    ("fig11", suites::fig11),
    ("fig12-frontera", suites::fig12_frontera),
    ("fig12-stampede2", suites::fig12_stampede2),
    ("table4", suites::table4),
    ("ablation-batching", suites::ablation_batching),
    ("recovery", suites::recovery),
    ("traced", suites::traced),
    ("realdata", suites::realdata),
];

/// A parsed `repro` command line.
pub struct Args {
    /// Suites to run, in command-line order.
    pub suites: Vec<(&'static str, Suite)>,
    /// `--scale` (default: full, the paper's sizes).
    pub scale: Scale,
    /// `--trace-dir`.
    pub trace_dir: Option<PathBuf>,
    /// `--host-profile`: the engine's host time per event label
    /// ([`simt::take_host_profile`]), top entries as notes on the table.
    pub host_profile: bool,
}

/// Parse `repro`'s arguments (without the program name). Unknown suites,
/// scales and flags are errors that list the valid values.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let names = || SUITES.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ");
    let mut args =
        Args { suites: Vec::new(), scale: Scale::Full, trace_dir: None, host_profile: false };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    v => return Err(format!("unknown --scale '{v}'; valid: small full")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--host-profile" => args.host_profile = true,
            "all" => args.suites.extend_from_slice(SUITES),
            name => match SUITES.iter().find(|(n, _)| *n == name) {
                Some(suite) => args.suites.push(*suite),
                None => return Err(format!("unknown suite '{name}'; valid: {} all", names())),
            },
        }
    }
    if args.suites.is_empty() {
        return Err(format!(
            "usage: repro <suite>… [--scale small|full] [--trace-dir DIR] [--host-profile]; \
             suites: {} all",
            names()
        ));
    }
    Ok(args)
}

impl Args {
    /// Run the suites, ledger lines to `ledger`, the human table to `table`;
    /// returns every record emitted.
    pub fn run(&self, ledger: &mut dyn Write, table: &mut dyn Write) -> Vec<Record> {
        let mut run = Run::new(self.scale, ledger, table);
        run.trace_dir = self.trace_dir.clone();
        simt::set_host_profile(self.host_profile);
        for (name, suite) in &self.suites {
            run.suite = name;
            suite(&mut run);
        }
        // Host side of the thread life cycle: depends on what this process ran
        // before each cell, so it is a note and never a ledger value.
        let s = simt::stack_stats();
        run.suite = "simt";
        run.note(&format!(
            "of {} green threads spawned, {} mapped a stack and {} reused one ({} idle now, {} \
             unmapped)",
            s.mapped + s.reused,
            s.mapped,
            s.reused,
            s.idle,
            s.unmapped
        ));
        let census = workloads::spawn_census();
        let all: Vec<String> = census.iter().map(|(p, n)| format!("{p} {n}")).collect();
        run.note(&format!("green threads spawned by name, largest first: {}", all.join(", ")));
        if self.host_profile {
            simt::set_host_profile(false);
            host_profile_notes(&mut run, simt::take_host_profile());
        }
        // The process's peak memory: a host measurement, never a ledger value.
        run.suite = "host";
        match peak_rss_kb() {
            Some(kb) => {
                run.note(&format!("peak resident set (VmHWM) {:.1} MB", kb as f64 / 1024.0))
            }
            None => run.note("peak resident set unknown: no VmHWM in /proc/self/status"),
        }
        run.records
    }
}

/// The process's peak resident set in kB, from `/proc/self/status` (Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The host profile's ten largest labels, one note each: events, host time,
/// its share of the profiled total, and host ns per event.
fn host_profile_notes(run: &mut Run<'_>, profile: BTreeMap<String, (u64, u64)>) {
    let total: u64 = profile.values().map(|&(_, ns)| ns).sum();
    let mut rows: Vec<(String, u64, u64)> =
        profile.into_iter().map(|(label, (events, ns))| (label, events, ns)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    run.suite = "host-profile";
    run.note(&format!("{:.1} ms of host time over {} labels", total as f64 / 1e6, rows.len()));
    for (label, events, ns) in rows.into_iter().take(10) {
        run.note(&format!(
            "{label}: {events} events, {:.1} ms ({:.1} %), {} ns/event",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total as f64,
            ns / events
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    fn run(argv: &[&str]) -> (Vec<Record>, String) {
        let mut ledger = Vec::new();
        let records = parse(argv).unwrap().run(&mut ledger, &mut std::io::sink());
        (records, String::from_utf8(ledger).unwrap())
    }

    #[test]
    fn the_host_profile_is_off_unless_asked_for() {
        assert!(!parse(&["traced"]).unwrap().host_profile);
        assert!(parse(&["traced", "--host-profile"]).unwrap().host_profile);
    }

    #[test]
    fn a_scale_typo_is_rejected_not_run_at_full_scale() {
        let err = parse(&["fig09", "--scale", "samll"]).err().expect("typo must be rejected");
        assert!(err.contains("samll") && err.contains("small full"), "{err}");
        assert!(parse(&["fig09", "--scale"]).is_err());
        assert!(parse(&["fig09", "--scale", "small"]).unwrap().scale == Scale::Small);
        assert!(parse(&["fig09"]).unwrap().scale == Scale::Full);
    }

    #[test]
    fn an_unknown_suite_is_rejected_with_the_valid_names() {
        let err = parse(&["fig13"]).err().expect("unknown suite must be rejected");
        for (name, _) in SUITES {
            assert!(err.contains(name), "{err}");
        }
        assert!(parse(&["--json", "recovery"]).is_err(), "removed flags are unknown suites");
        assert!(parse(&["--scale", "small"]).is_err(), "no suite named");
        assert_eq!(parse(&["all"]).unwrap().suites.len(), SUITES.len());
    }

    #[test]
    fn small_scale_shrinks() {
        assert!(Scale::Small.workers(32) < 32);
        assert!(Scale::Small.gb(14) < 14);
        assert_eq!(Scale::Full.workers(32), 32);
    }

    #[test]
    fn emitting_a_suite_twice_yields_identical_ledger_bytes() {
        let (records, first) = run(&["recovery", "table4", "--scale", "small"]);
        assert_eq!(first, run(&["recovery", "table4", "--scale", "small"]).1);
        let lines: Vec<String> = records.iter().map(Record::ledger_line).collect();
        assert_eq!(first.lines().collect::<Vec<_>>(), lines);
        assert_eq!(lines.len(), 3 + 9);
    }

    /// The committed ledger holds records of `SUITES` only, and every suite
    /// at both scales. `scripts/ci.sh` regenerates the small records alone,
    /// so this is what notices a deleted suite's full-scale records.
    #[test]
    fn ledger_records_name_the_suites_at_both_scales() {
        let ledger = include_str!("../../../results/ledger.json");
        let mut seen = std::collections::BTreeSet::new();
        for line in ledger.lines() {
            let fields = line
                .strip_prefix("{\"suite\":\"")
                .and_then(|rest| rest.split_once("\",\"scale\":\""))
                .and_then(|(suite, rest)| Some((suite, rest.split_once('"')?.0)));
            let (suite, scale) = fields.unwrap_or_else(|| panic!("not a ledger record: {line}"));
            assert!(SUITES.iter().any(|(n, _)| *n == suite), "record of no suite: {line}");
            seen.insert((suite, scale));
        }
        for (name, _) in SUITES {
            for scale in [Scale::Small.name(), Scale::Full.name()] {
                assert!(seen.contains(&(*name, scale)), "{name}: no {scale} record");
            }
        }
    }

    /// Every suite runs at small scale and emits records with a positive
    /// virtual time; where a cell carries a workload check value or a
    /// shuffle-read time, those are positive too (every system of the
    /// fig10 GroupBy cell and of the fig12 HiBench cells included).
    #[test]
    fn every_suite_runs_at_small_scale() {
        for (name, _) in SUITES {
            let (records, _) = run(&[name, "--scale", "small"]);
            assert!(!records.is_empty(), "{name} emitted nothing");
            for r in &records {
                assert_eq!((r.suite, r.scale), (*name, Scale::Small));
                assert!(r.virtual_ns > 0, "{r:?}");
                for (value, v) in &r.values {
                    assert!(*v > 0 || !["check", "shuffle_read_ns"].contains(value), "{r:?}");
                }
            }
        }
    }
}
