//! `repro <suite>… [--scale small|full] [--trace-dir DIR] [--host-profile]`
//! — see the crate docs of `mpi4spark_bench`.

#![forbid(unsafe_code)]

use std::io::IsTerminal;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match mpi4spark_bench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    // Ledger lines are for files and pipes; on a terminal the table alone.
    let stdout = std::io::stdout();
    if stdout.is_terminal() {
        args.run(&mut std::io::sink(), &mut std::io::stderr());
    } else {
        args.run(&mut &stdout, &mut std::io::stderr());
    }
    ExitCode::SUCCESS
}
