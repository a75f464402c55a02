//! The one record every suite emits, the one function that serialises it,
//! and the emitter that renders it as a ledger line and a human table row.
//!
//! A record holds deterministic columns only — virtual time, counters and
//! check values, all integers — so the ledger (`results/ledger.json`, one
//! JSON object per line) is byte-reproducible and is gated with `cmp`. Host
//! time is printed in the table and never recorded.

use std::io::Write;
use std::path::PathBuf;

use crate::Scale;

#[expect(
    clippy::disallowed_types,
    reason = "D1: host time of the simulator itself, printed per cell and never recorded"
)]
type HostClock = std::time::Instant;

/// One measured cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Suite that produced the cell.
    pub suite: &'static str,
    /// Scale it ran at.
    pub scale: Scale,
    /// Ordered labels naming the cell within its suite.
    pub cell: Vec<(&'static str, String)>,
    /// The cell's virtual time.
    pub virtual_ns: u64,
    /// Named integer values. By suffix: `_ns` is virtual nanoseconds,
    /// `_x1000` a ratio or real value in thousandths; `obs::keys` names are
    /// counters read from the run's metrics snapshot.
    pub values: Vec<(&'static str, i64)>,
}

impl Record {
    /// The value named `name`; the suites' contracts read cells through it.
    pub fn value(&self, name: &str) -> i64 {
        let found = self.values.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("{}: record has no value {name}", self.suite)).1
    }

    /// The ledger line: the only place the crate builds JSON. Labels and
    /// names are ASCII, for which `{:?}` quoting is JSON quoting.
    pub fn ledger_line(&self) -> String {
        let cell: Vec<String> = self.cell.iter().map(|(k, v)| format!("{k:?}:{v:?}")).collect();
        let values: Vec<String> = self.values.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        format!(
            "{{\"suite\":{:?},\"scale\":{:?},\"cell\":{{{}}},\"virtual_ns\":{},\"values\":{{{}}}}}",
            self.suite,
            self.scale.name(),
            cell.join(","),
            self.virtual_ns,
            values.join(",")
        )
    }
}

/// Counters `names` of a run's metrics snapshot as record values.
pub fn counters(
    metrics: &obs::MetricsSnapshot,
    names: &[&'static str],
) -> Vec<(&'static str, i64)> {
    names.iter().map(|n| (*n, metrics.counter(n) as i64)).collect()
}

/// A real value in thousandths, rounded.
pub fn real_x1000(x: f64) -> i64 {
    (x * 1e3).round() as i64
}

/// `base / other` in thousandths, rounded (0 when `other` is 0).
pub fn x1000(base: u64, other: u64) -> i64 {
    if other == 0 {
        return 0;
    }
    ((base as u128 * 1000 + other as u128 / 2) / other as u128) as i64
}

fn human(name: &str, v: i64) -> String {
    let f = v as f64;
    if name.ends_with("_x1000") {
        format!("{:.3}", f / 1e3)
    } else if !name.ends_with("_ns") {
        v.to_string()
    } else if v < 1_000_000 {
        format!("{:.1}us", f / 1e3)
    } else if v < 1_000_000_000 {
        format!("{:.2}ms", f / 1e6)
    } else {
        format!("{:.2}s", f / 1e9)
    }
}

/// What a suite runs against: the invocation's settings and the emitter.
pub struct Run<'a> {
    /// `--scale`.
    pub scale: Scale,
    /// `--trace-dir`: OHB cells record their timeline and write it here.
    pub trace_dir: Option<PathBuf>,
    pub(crate) suite: &'static str,
    /// Every record emitted so far.
    pub records: Vec<Record>,
    ledger: &'a mut dyn Write,
    table: &'a mut dyn Write,
    /// Suite and column names of the table block being printed.
    block: Vec<&'static str>,
    last_emit: HostClock,
}

impl<'a> Run<'a> {
    /// A run at `scale` writing ledger lines to `ledger` and the table to
    /// `table`.
    pub fn new(scale: Scale, ledger: &'a mut dyn Write, table: &'a mut dyn Write) -> Run<'a> {
        Run {
            scale,
            trace_dir: None,
            suite: "",
            records: Vec::new(),
            ledger,
            table,
            block: Vec::new(),
            last_emit: HostClock::now(),
        }
    }

    /// Record one finished cell: its ledger line is written and flushed at
    /// once, so an aborted sweep keeps every cell that ran. The table row
    /// adds the host time since the previous row (set-up cells a suite runs
    /// without recording count towards the next row).
    pub fn emit(
        &mut self,
        cell: &[(&'static str, String)],
        virtual_ns: u64,
        values: Vec<(&'static str, i64)>,
    ) -> Record {
        let rec = Record {
            suite: self.suite,
            scale: self.scale,
            cell: cell.to_vec(),
            virtual_ns,
            values,
        };
        let host_ms = self.last_emit.elapsed().as_millis();

        // Rows print as cells finish, so widths are fixed: labels 16, numbers 10.
        let mut block = vec![self.suite];
        let mut header = String::new();
        let mut row = String::new();
        let mut column = |name: &'static str, value: String, min: usize| {
            let w = name.len().max(min);
            block.push(name);
            header += &format!("{name:>w$}  ");
            row += &format!("{value:>w$}  ");
        };
        for (k, v) in &rec.cell {
            column(k, v.clone(), 16);
        }
        column("virtual_ns", human("virtual_ns", virtual_ns as i64), 10);
        for (k, v) in &rec.values {
            column(k, human(k, *v), 10);
        }
        column("host_ms", host_ms.to_string(), 0);
        let io = "cannot write the ledger or the table";
        if block != self.block {
            writeln!(self.table, "\n== {} ({}) ==\n{header}", self.suite, self.scale.name())
                .expect(io);
            self.block = block;
        }
        writeln!(self.table, "{row}").expect(io);
        writeln!(self.ledger, "{}", rec.ledger_line())
            .and_then(|()| self.ledger.flush())
            .expect(io);
        self.records.push(rec.clone());
        self.last_emit = HostClock::now();
        rec
    }

    /// A line for the human reader only (never in the ledger).
    pub fn note(&mut self, msg: &str) {
        writeln!(self.table, "{}: {msg}", self.suite).expect("cannot write the table");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_line_is_one_json_object() {
        let (mut ledger, mut table) = (Vec::new(), Vec::new());
        let mut run = Run::new(Scale::Small, &mut ledger, &mut table);
        run.suite = "fig09";
        let rec = run.emit(
            &[("bench", "GroupByTest".into()), ("system", "MPI".into())],
            6_219_302_725,
            vec![("shuffle_read_ns", 228_711_951), ("total_vs_ipoib_x1000", 1105)],
        );
        assert_eq!(rec.value("total_vs_ipoib_x1000"), 1105);
        assert_eq!(
            String::from_utf8(ledger).unwrap(),
            "{\"suite\":\"fig09\",\"scale\":\"small\",\
             \"cell\":{\"bench\":\"GroupByTest\",\"system\":\"MPI\"},\
             \"virtual_ns\":6219302725,\
             \"values\":{\"shuffle_read_ns\":228711951,\"total_vs_ipoib_x1000\":1105}}\n"
        );
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("6.22s") && table.contains("228.71ms") && table.contains("1.105"));
    }

    #[test]
    fn ratios_round_to_thousandths() {
        assert_eq!(x1000(4230, 1000), 4230);
        assert_eq!(x1000(2, 3), 667);
        assert_eq!(x1000(100, 0), 0);
    }
}
