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
            report(&mut std::io::stderr().lock(), &format!("error: {e}\n"));
            std::process::exit(1);
        }
    }
}

/// Writes an error report to `err`. A failed write is ignored, so a closed
/// stderr cannot turn the exit code that says what failed into a panic's.
fn report(err: &mut impl Write, text: &str) {
    let _ = err.write_all(text.as_bytes()).and_then(|()| err.flush());
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
        Ok(out) => emit(&out),
        Err(e) => {
            let text = format!("error: {e}\n\n{}\n", commands::usage());
            report(&mut std::io::stderr().lock(), &text);
            std::process::exit(e.exit_code());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stderr whose reader went away.
    struct Closed;

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn an_error_report_to_a_closed_stderr_does_not_panic() {
        report(&mut Closed, "error: no such file\n");
    }
}
