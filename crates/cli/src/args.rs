//! Minimal dependency-free argument splitting: a subcommand followed by
//! `key=value`, `--key=value`, and `--key value` options, collected into
//! the registry's [`ParamMap`] — whose typed getters and unknown-key
//! detection serve the CLI's own options and the algorithms' alike.

use julienne::Error;
use julienne_algorithms::registry::ParamMap;

/// Parsed command line: a subcommand plus `key=value` options.
#[derive(Debug)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Everything after it.
    pub opts: ParamMap,
}

impl Args {
    /// Parses `argv` (without the program name). Options may be spelled
    /// `key=value`, `--key=value`, or `--key value`.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, Error> {
        let mut it = argv.into_iter();
        let command = it
            .next()
            .ok_or_else(|| Error::usage("missing subcommand"))?;
        let malformed =
            |raw: &str| Error::usage(format!("malformed argument {raw:?}; expected key=value"));
        let mut opts = ParamMap::default();
        while let Some(raw) = it.next() {
            if let Some(flag) = raw.strip_prefix("--") {
                if let Some((k, v)) = flag.split_once('=') {
                    opts.set(k, v);
                } else {
                    let v = it.next().ok_or_else(|| malformed(&raw))?;
                    opts.set(flag, v);
                }
            } else {
                let (k, v) = raw.split_once('=').ok_or_else(|| malformed(&raw))?;
                opts.set(k, v);
            }
        }
        Ok(Args { command, opts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parse(s: &str) -> ParamMap {
        Args::parse(argv(s)).unwrap().opts
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(argv("gen kind=rmat scale=10")).unwrap();
        assert_eq!(a.command, "gen");
        assert_eq!(a.opts.require("kind").unwrap(), "rmat");
        assert_eq!(a.opts.get_or("scale", 0u32).unwrap(), 10);
        a.opts.finish(None).unwrap();
    }

    #[test]
    fn defaults_apply() {
        let a = parse("stats");
        assert_eq!(a.get_or("scale", 14u32).unwrap(), 14);
        assert_eq!(a.string_or("out", "-"), "-");
        a.finish(None).unwrap();
    }

    #[test]
    fn missing_command() {
        let e = Args::parse(Vec::new()).unwrap_err();
        assert!(e.is_usage());
        assert_eq!(e.to_string(), "missing subcommand");
    }

    #[test]
    fn malformed_option() {
        let e = Args::parse(argv("gen oops")).unwrap_err();
        assert!(e.is_usage());
        assert_eq!(
            e.to_string(),
            "malformed argument \"oops\"; expected key=value"
        );
    }

    #[test]
    fn double_dash_forms() {
        let a = parse("kcore --in g.bin --stats=json --top 3");
        assert_eq!(a.require("in").unwrap(), "g.bin");
        assert_eq!(a.string_or("stats", "none"), "json");
        assert_eq!(a.get_or("top", 0usize).unwrap(), 3);
        a.finish(None).unwrap();
    }

    #[test]
    fn dangling_flag_rejected() {
        let e = Args::parse(argv("kcore --stats")).unwrap_err();
        assert_eq!(
            e.to_string(),
            "malformed argument \"--stats\"; expected key=value"
        );
    }

    #[test]
    fn missing_required() {
        let e = parse("gen").require("kind").unwrap_err();
        assert!(e.is_usage());
        assert_eq!(e.to_string(), "missing required option kind=");
    }

    #[test]
    fn bad_typed_value() {
        let e = parse("gen scale=abc").get_or("scale", 1u32).unwrap_err();
        assert!(e.is_usage());
        assert_eq!(e.to_string(), "option scale=\"abc\" has the wrong type");
    }

    #[test]
    fn remaining_hands_over_untouched_options_once() {
        let a = parse("sssp in=g.bin src=3 delta=16");
        let _ = a.require("in");
        let rest = a.remaining();
        assert_eq!(
            rest,
            vec![
                ("delta".to_string(), "16".to_string()),
                ("src".to_string(), "3".to_string())
            ]
        );
        // remaining() consumed them: finish() no longer complains and a
        // second call hands over nothing.
        a.finish(None).unwrap();
        assert!(a.remaining().is_empty());
    }

    #[test]
    fn unknown_options_rejected() {
        let a = parse("gen kind=er tpyo=1");
        let _ = a.require("kind");
        let e = a.finish(None).unwrap_err();
        assert!(e.is_usage());
        assert_eq!(e.to_string(), "unknown options: tpyo");
    }
}
