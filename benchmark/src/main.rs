//! The repo benchmark: one workload per process, pinned to one CPU.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a table of metrics and, as the last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for what each pass and each metric is.

mod affinity;
mod cell;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str =
    "usage: benchmark --workload <shuffle_bulk|shuffle_fanin|iter_ml|shuffle_realdata> \
                     --seed <u64> --seconds <number> --trace <0|1>";

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let name = name.ok_or_else(|| missing("--workload"))?;
    let seed = seed.ok_or_else(|| missing("--seed"))?;
    Ok(Args {
        workload: Workload::by_name(&name, seed)
            .ok_or_else(|| format!("unknown workload {name:?}"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pinned = affinity::pin();
    let w = &args.workload;
    println!(
        "workload {} ({} workers x {} cores), pinned to CPU {} of {} allowed, {} s timed pass, trace {}",
        w.name, w.workers, w.cores, pinned.cpu(), pinned.allowed_cpus(), args.seconds, args.trace
    );
    let run = run::run(w, args.seconds, args.trace, &pinned);
    print!("{}{}", report::table(&run.end_to_end), report::table(&run.per_layer));
    println!("cells attempted {} failed {}", run.attempted, run.failed);

    if args.trace {
        let path = format!("out/trace-{}.json", w.name);
        let written = std::fs::create_dir_all("out")
            .and_then(|()| std::fs::write(&path, spans::to_json(w.name, &run.spans)));
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = if args.trace { &run.per_layer } else { &run.end_to_end };
    println!("{}", report::result_line(run.attempted, run.failed, metrics));
    ExitCode::SUCCESS
}
