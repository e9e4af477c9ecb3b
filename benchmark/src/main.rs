//! `benchmark`: the repo benchmark's command line (see `cli::USAGE`).

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match coyote_benchmark::cli::dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}\n\n{}", coyote_benchmark::cli::USAGE);
            ExitCode::from(2)
        }
    }
}
