//! CLI for the determinism & protocol lints:
//! `cargo run -p detlint [-- --json|--ndjson|--sarif] [ROOT]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    /// One valid JSON array (jq-friendly).
    Json,
    /// One JSON object per line.
    Ndjson,
    /// SARIF 2.1.0 for CI code scanning.
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--ndjson" => format = Format::Ndjson,
            "--sarif" => format = Format::Sarif,
            "--help" | "-h" => {
                println!(
                    "usage: detlint [--json|--ndjson|--sarif] [ROOT]\n\n\
                     Scans every workspace crate for determinism violations (rules D1-D7)\n\
                     and runs the two-pass workspace analysis (lock-order rule L1,\n\
                     protocol rules P1-P3, stale-waiver check).\n\
                     ROOT defaults to the enclosing cargo workspace.\n\n\
                     --json    one valid JSON array of findings\n\
                     --ndjson  one JSON object per line\n\
                     --sarif   SARIF 2.1.0 log for CI code scanning\n\n\
                     exit codes: 0 clean, 1 findings, 2 error"
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("detlint: unknown flag `{arg}` (try --help)");
                return ExitCode::from(2);
            }
            _ => root = Some(PathBuf::from(arg)),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("detlint: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match detlint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("detlint: no cargo workspace found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match detlint::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("detlint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = &analysis.diagnostics;

    match format {
        Format::Text => {
            for d in diags {
                println!("{}", d.render());
            }
        }
        Format::Json => println!("{}", detlint::render_json_array(diags)),
        Format::Ndjson => {
            for d in diags {
                println!("{}", d.render_json());
            }
        }
        Format::Sarif => println!("{}", detlint::sarif::render(diags)),
    }
    if diags.is_empty() {
        if matches!(format, Format::Text) {
            eprintln!("detlint: workspace clean");
        }
        ExitCode::SUCCESS
    } else {
        if matches!(format, Format::Text) {
            eprintln!("detlint: {} finding(s)", diags.len());
        }
        ExitCode::from(1)
    }
}
