//! CLI for the determinism & protocol lints:
//! `cargo run -p detlint [-- --json] [ROOT]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: detlint [--json] [ROOT]\n\n\
                     Scans every workspace crate for determinism violations (rules D1-D5, D7)\n\
                     and runs the two-pass workspace analysis (protocol rules P1-P3,\n\
                     stale-waiver check).\n\
                     ROOT defaults to the enclosing cargo workspace.\n\n\
                     --json    one valid JSON array of findings\n\n\
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

    if json {
        println!("{}", detlint::render_json_array(diags));
    } else if diags.is_empty() {
        eprintln!("detlint: workspace clean");
    } else {
        for d in diags {
            println!("{}", d.render());
        }
        eprintln!("detlint: {} finding(s)", diags.len());
    }
    ExitCode::from(if diags.is_empty() { 0 } else { 1 })
}
