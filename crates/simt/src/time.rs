//! Virtual-time units. The simulation clock counts nanoseconds in a `u64`,
//! which covers ~584 years of virtual time — ample for any experiment here.

/// Absolute virtual time, nanoseconds since simulation start.
pub type Instant = u64;

/// A span of virtual time, nanoseconds.
pub type Duration = u64;

/// Nanoseconds per microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const SEC: u64 = 1_000_000_000;

/// Build a duration from microseconds.
pub const fn micros(n: u64) -> Duration {
    n * US
}

/// Build a duration from milliseconds.
pub const fn millis(n: u64) -> Duration {
    n * MS
}

/// Build a duration from seconds.
pub const fn secs(n: u64) -> Duration {
    n * SEC
}

/// Render a duration in a human-friendly unit (used by harness output).
pub fn fmt_duration(ns: u64) -> String {
    if ns >= SEC {
        format!("{:.3} s", ns as f64 / SEC as f64)
    } else if ns >= MS {
        format!("{:.3} ms", ns as f64 / MS as f64)
    } else if ns >= US {
        format!("{:.3} us", ns as f64 / US as f64)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(micros(3), 3_000);
        assert_eq!(millis(3), 3_000_000);
        assert_eq!(secs(3), 3_000_000_000);
    }

    #[test]
    fn formatting_picks_sane_units() {
        assert_eq!(fmt_duration(15), "15 ns");
        assert_eq!(fmt_duration(1_500), "1.500 us");
        assert_eq!(fmt_duration(2_500_000), "2.500 ms");
        assert_eq!(fmt_duration(3_000_000_000), "3.000 s");
    }
}
