//! `julienne` — command-line front-end for the SPAA'17 reproduction:
//! generate/convert/analyze graphs and run the bucketing-based algorithms.
//!
//! Run `julienne help` for usage.

mod args;
mod commands;

use args::Args;
use std::io::{ErrorKind, Write};

/// Writes `text` to stdout. A reader that went away (`| head`) is not an
/// error: exit 0 quietly. Any other write failure exits 1.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        emit(&commands::usage());
        std::process::exit(2);
    }
    // Usage errors (exit 2) mean the invocation was wrong; runtime errors
    // (exit 1) mean the work failed. Both append the usage text so a
    // failing run always shows the correct invocation forms.
    match Args::parse(argv)
        .map_err(commands::CmdError::from)
        .and_then(|parsed| commands::dispatch(&parsed))
    {
        Ok(report) => emit(&report),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(e.exit_code());
        }
    }
}
