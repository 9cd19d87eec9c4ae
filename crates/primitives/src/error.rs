//! The workspace-wide typed error enum.
//!
//! Until PR 5 every fallible layer spoke its own dialect: graph loaders
//! returned `io::Result` with stringly `InvalidData` payloads,
//! `Backend::parse` returned `Result<_, String>`, and the CLI re-formatted
//! both into its own `CmdError` strings. [`Error`] is the single currency
//! all of them now trade in; the CLI's `CmdError` and the server's
//! wire-level error objects are thin views over it (exit code / wire code
//! respectively), not re-parsers of display strings.
//!
//! The variants are deliberately coarse — they encode *how the caller
//! should react*, not where the error was minted:
//!
//! * [`Error::Io`] — the operating system failed us (open/read/write).
//!   Retrying with the same arguments might succeed.
//! * [`Error::Parse`] — the bytes were readable but malformed, with the
//!   file and 1-based line when known. Retrying is pointless; fix the file.
//! * [`Error::Usage`] — the *request* was malformed (bad option value,
//!   unknown algorithm). Maps to CLI exit 2 / wire code `"usage"`.
//! * [`Error::Input`] — the request was well-formed but this data cannot
//!   satisfy it (empty graph, asymmetric graph where symmetry is required,
//!   source vertex out of range).
//! * [`Error::Cancelled`] / [`Error::DeadlineExceeded`] — the query
//!   lifecycle ended the run at a round boundary; no partial output exists.
//! * [`Error::Internal`] — the program broke its own contract (a check on
//!   its own output failed, or a served run panicked). Not the caller's
//!   fault; the message says what broke.

use std::fmt;
use std::path::{Path, PathBuf};

/// A structured error from any layer of the workspace. See the module docs
/// for the reaction each variant calls for.
#[derive(Debug)]
pub enum Error {
    /// An operating-system I/O failure, with the path involved when known.
    Io {
        /// File being read or written, if the failure involved one.
        path: Option<PathBuf>,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Malformed input data, positioned by file and 1-based line when known.
    Parse {
        /// File being parsed, if known.
        path: Option<PathBuf>,
        /// 1-based line number of the offending record, if known.
        line: Option<usize>,
        /// What was wrong with the record.
        msg: String,
    },
    /// The request itself was malformed (CLI exit 2, wire code `"usage"`).
    Usage(String),
    /// The request was well-formed but the data cannot satisfy it.
    Input(String),
    /// The query's cancellation token was triggered; the run stopped at a
    /// round boundary and produced no output.
    Cancelled,
    /// The query's deadline passed; the run stopped at a round boundary and
    /// produced no output.
    DeadlineExceeded,
    /// A bug: the program broke its own contract (wire code `"internal"`).
    Internal(String),
}

impl Error {
    /// An [`Error::Io`] tagged with the file it concerned.
    pub fn io_at(path: &Path, source: std::io::Error) -> Error {
        Error::Io {
            path: Some(path.to_path_buf()),
            source,
        }
    }

    /// An [`Error::Parse`] with no position information.
    pub fn parse(msg: impl Into<String>) -> Error {
        Error::Parse {
            path: None,
            line: None,
            msg: msg.into(),
        }
    }

    /// An [`Error::Parse`] positioned at a 1-based line of `path`.
    pub fn parse_at(path: &Path, line: usize, msg: impl Into<String>) -> Error {
        Error::Parse {
            path: Some(path.to_path_buf()),
            line: Some(line),
            msg: msg.into(),
        }
    }

    /// An [`Error::Usage`].
    pub fn usage(msg: impl Into<String>) -> Error {
        Error::Usage(msg.into())
    }

    /// An [`Error::Input`].
    pub fn input(msg: impl Into<String>) -> Error {
        Error::Input(msg.into())
    }

    /// True for [`Error::Usage`] — the caller got the invocation wrong, as
    /// opposed to the work failing.
    pub fn is_usage(&self) -> bool {
        matches!(self, Error::Usage(_))
    }

    /// The stable machine-readable class used by the server wire protocol:
    /// `io`, `parse`, `usage`, `input`, `cancelled`, `deadline`, or
    /// `internal`.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Io { .. } => "io",
            Error::Parse { .. } => "parse",
            Error::Usage(_) => "usage",
            Error::Input(_) => "input",
            Error::Cancelled => "cancelled",
            Error::DeadlineExceeded => "deadline",
            Error::Internal(_) => "internal",
        }
    }

    /// Attaches `path` to an [`Error::Io`] or [`Error::Parse`] that does
    /// not already carry one; other variants pass through unchanged.
    pub fn with_path(self, path: &Path) -> Error {
        match self {
            Error::Io { path: None, source } => Error::io_at(path, source),
            Error::Parse {
                path: None,
                line,
                msg,
            } => Error::Parse {
                path: Some(path.to_path_buf()),
                line,
                msg,
            },
            other => other,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, source } => match path {
                Some(p) => write!(f, "{}: {source}", p.display()),
                None => write!(f, "{source}"),
            },
            Error::Parse { path, line, msg } => match (path, line) {
                (Some(p), Some(l)) => write!(f, "{}:{l}: {msg}", p.display()),
                (Some(p), None) => write!(f, "{}: {msg}", p.display()),
                (None, Some(l)) => write!(f, "line {l}: {msg}"),
                (None, None) => f.write_str(msg),
            },
            Error::Usage(msg) | Error::Input(msg) | Error::Internal(msg) => f.write_str(msg),
            Error::Cancelled => f.write_str("query cancelled"),
            Error::DeadlineExceeded => f.write_str("query deadline exceeded"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(source: std::io::Error) -> Error {
        Error::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn display_includes_position() {
        let e = Error::parse_at(Path::new("g.adj"), 7, "vertex id out of range");
        assert_eq!(e.to_string(), "g.adj:7: vertex id out of range");
        let e = Error::parse("truncated header");
        assert_eq!(e.to_string(), "truncated header");
        let e = Error::io_at(
            Path::new("missing.el"),
            io::Error::new(io::ErrorKind::NotFound, "no such file"),
        );
        assert!(e.to_string().starts_with("missing.el: "));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Error::from(io::Error::other("x")).code(), "io");
        assert_eq!(Error::parse("x").code(), "parse");
        assert_eq!(Error::usage("x").code(), "usage");
        assert_eq!(Error::input("x").code(), "input");
        assert_eq!(Error::Cancelled.code(), "cancelled");
        assert_eq!(Error::DeadlineExceeded.code(), "deadline");
        assert_eq!(Error::Internal("x".into()).code(), "internal");
        assert!(Error::usage("x").is_usage());
        assert!(!Error::input("x").is_usage());
    }

    #[test]
    fn with_path_fills_only_missing_positions() {
        let e = Error::parse("bad record").with_path(Path::new("a.el"));
        assert_eq!(e.to_string(), "a.el: bad record");
        let e = Error::parse_at(Path::new("a.el"), 3, "bad").with_path(Path::new("b.el"));
        assert_eq!(e.to_string(), "a.el:3: bad");
        let e = Error::usage("delta must be >= 1").with_path(Path::new("a.el"));
        assert_eq!(e.to_string(), "delta must be >= 1");
    }

    #[test]
    fn io_source_is_preserved() {
        let e = Error::io_at(Path::new("x"), io::Error::other("disk on fire"));
        let src = std::error::Error::source(&e).expect("io errors carry a source");
        assert_eq!(src.to_string(), "disk on fire");
    }
}
