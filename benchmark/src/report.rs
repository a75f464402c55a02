//! Metrics as the benchmark prints them: a table for people, then one JSON
//! object on the last line for the driver.

use std::fmt::Write as _;

use crate::stats::{summarize, Summary};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Present for host timings measured over several cells; `value` is then
    /// the median.
    pub samples: Option<Summary>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        assert!(value.is_finite(), "metric {name} is {value}");
        Metric { name: name.to_string(), unit, value, samples: None }
    }

    /// The median of `values`, with its quartiles and sample count.
    pub fn median(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let s = summarize(values).unwrap_or_else(|| panic!("metric {name} has no samples"));
        Metric { samples: Some(s), ..Metric::new(name, unit, s.median) }
    }
}

pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        write!(out, "{:<44} {:>16.6} {:<6}", m.name, m.value, m.unit).expect("String write");
        match m.samples {
            Some(s) => writeln!(out, " n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3),
            None => writeln!(out, " n=1"),
        }
        .expect("String write");
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_every_digit() {
        let metrics = [
            Metric::new("wall_s", "s", 1.234567890123),
            Metric::median("setup_s", "s", &[3.0, 1.0, 2.0]),
        ];
        let line = result_line(5, 0, &metrics);
        assert!(obs::timeline::validate_json(&line).is_ok(), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "));
        assert!(line.contains("\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"));
        assert!(result_line(5, 1, &metrics).starts_with("{\"correct\": false"));
    }
}
