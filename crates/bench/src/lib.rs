//! Benchmark harness support: experiment runners shared by the per-figure
//! binaries and the calibration tests.
//!
//! Every figure/table of the paper's evaluation (§VII) has a binary in
//! `src/bin/` that prints the same rows/series the paper reports, built on
//! the runners here. `REPRO_SCALE=small` (or `--scale small`) shrinks the
//! clusters and data volumes for quick smoke runs; the default reproduces
//! the paper's sizes.

pub mod hibench;
pub mod ohb_runner;
pub mod pingpong;
pub mod report;

use fabric::ClusterSpec;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale clusters and data volumes.
    Full,
    /// Shrunk for smoke tests.
    Small,
}

impl Scale {
    /// Resolve from `--scale` argv or the `REPRO_SCALE` env var.
    pub fn from_env_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for i in 0..args.len() {
            if args[i] == "--scale" {
                if let Some(v) = args.get(i + 1) {
                    return Scale::parse(v);
                }
            }
        }
        match std::env::var("REPRO_SCALE") {
            Ok(v) => Scale::parse(&v),
            Err(_) => Scale::Full,
        }
    }

    fn parse(v: &str) -> Scale {
        match v {
            "small" | "smoke" => Scale::Small,
            _ => Scale::Full,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Scale::Small);
        assert_eq!(Scale::parse("full"), Scale::Full);
        assert_eq!(Scale::parse("anything"), Scale::Full);
    }

    #[test]
    fn small_scale_shrinks() {
        assert!(Scale::Small.workers(32) < 32);
        assert!(Scale::Small.gb(14) < 14);
        assert_eq!(Scale::Full.workers(32), 32);
    }
}
