//! Entry point; everything lives in the library so the tests can reach it.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ec_benchmark::run(&args)
}
