//! `julienne` — command-line front-end for the SPAA'17 reproduction:
//! generate/convert/analyze graphs and run the bucketing-based algorithms.
//!
//! Run `julienne help` for usage.

mod args;
mod commands;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", commands::usage());
        std::process::exit(2);
    }
    // Usage errors (exit 2) mean the invocation was wrong; runtime errors
    // (exit 1) mean the work failed. Both append the usage text so a
    // failing run always shows the correct invocation forms.
    match Args::parse(argv)
        .map_err(commands::CmdError::from)
        .and_then(|parsed| commands::dispatch(&parsed))
    {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(e.exit_code());
        }
    }
}
