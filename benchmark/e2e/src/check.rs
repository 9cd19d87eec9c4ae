//! Output checks. Every op's answer is compared with an oracle computed
//! at set-up; a mismatch is a failed op, not a warning.

/// What a correct answer looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// The report must equal this text byte for byte.
    Exact(String),
    /// The report must carry these `key=value` tokens; the rest of it may
    /// differ. An `sssp` report must agree with `algo=dijkstra` on
    /// `reached=` and `max_dist=` (its `rounds=` is the algorithm's own); a
    /// `components` report must agree on `components=` (its `rounds=`
    /// depends on the representation the labels propagate over).
    Fields(Vec<(&'static str, String)>),
    /// A `kcore` report must carry this `k_max=` and these top-vertex
    /// lines; `rounds=`/`moves=` differ between the peel, the sequential
    /// oracle and the incrementally maintained answer.
    Kcore(String),
    /// Only the shape is knowable (a read racing with writes may see any
    /// epoch): the report must start with this.
    StartsWith(&'static str),
}

/// Value of the first whitespace-separated `key=value` token in `text`.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Splits a report from the `stats` trace line that `"stats":true` /
/// `stats=json` appends to it.
pub fn split_stats(output: &str) -> (&str, Option<&str>) {
    let body = output.strip_suffix('\n').unwrap_or(output);
    match body
        .rfind('\n')
        .map_or((0, body), |at| (at + 1, &body[at + 1..]))
    {
        (at, last) if last.starts_with("{\"algorithm\"") => (&output[..at], Some(last)),
        _ => (output, None),
    }
}

/// The parts of a `kcore` report every producer agrees on: `k_max=` and
/// the lines after the first.
pub fn kcore_essence(report: &str) -> Option<String> {
    let (first, rest) = report.split_once('\n')?;
    Some(format!("k_max={}\n{rest}", field(first, "k_max")?))
}

impl Check {
    /// The check that accepts any report agreeing with `oracle_report` on
    /// every one of `keys`.
    pub fn fields_from(oracle_report: &str, keys: &[&'static str]) -> Result<Check, String> {
        keys.iter()
            .map(|&key| Some((key, field(oracle_report, key)?.to_string())))
            .collect::<Option<_>>()
            .map(Check::Fields)
            .ok_or_else(|| format!("oracle printed no {keys:?}: {oracle_report:?}"))
    }

    /// What an `sssp` report must share with the `algo=dijkstra` report for
    /// the same source.
    pub fn sssp_from(oracle_report: &str) -> Result<Check, String> {
        Check::fields_from(oracle_report, &["reached", "max_dist"])
    }

    pub fn kcore_from(oracle_report: &str) -> Result<Check, String> {
        kcore_essence(oracle_report)
            .map(Check::Kcore)
            .ok_or_else(|| format!("oracle printed no k_max=: {oracle_report:?}"))
    }

    /// `Ok` when `output` (with any stats line already removed) passes.
    pub fn verify(&self, output: &str) -> Result<(), String> {
        let pass = match self {
            Check::Exact(want) => output == want,
            Check::Fields(want) => want
                .iter()
                .all(|(key, value)| field(output, key) == Some(value)),
            Check::Kcore(want) => kcore_essence(output).as_ref() == Some(want),
            Check::StartsWith(prefix) => output.starts_with(prefix),
        };
        if pass {
            Ok(())
        } else {
            Err(format!("wrong answer: got {output:?}, want {self:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELTA: &str = "algo=delta src=5 reached=46707/65536 max_dist=172273 rounds=25\n";
    const DIJKSTRA: &str = "algo=dijkstra src=5 reached=46707/65536 max_dist=172273 rounds=0\n";

    #[test]
    fn sssp_check_compares_reach_and_distance_only() {
        let check = Check::sssp_from(DIJKSTRA).unwrap();
        assert!(check.verify(DELTA).is_ok());
        assert!(check.verify(&DELTA.replace("172273", "172274")).is_err());
        assert!(check.verify(&DELTA.replace("46707/", "46708/")).is_err());
        assert!(check.verify("").is_err());
        assert!(Check::sssp_from("nonsense").is_err());
    }

    #[test]
    fn components_check_ignores_rounds() {
        let check = Check::fields_from("components=18659 rounds=4\n", &["components"]).unwrap();
        assert!(check.verify("components=18659 rounds=5\n").is_ok());
        assert!(check.verify("components=18660 rounds=4\n").is_err());
    }

    #[test]
    fn kcore_check_ignores_peel_counters() {
        let peel = "k_max=3 rounds=9 moves=40\ntop vertices by coreness:\n  v7: coreness 3\n";
        let maintained = "k_max=3\ntop vertices by coreness:\n  v7: coreness 3\n";
        let check = Check::kcore_from(maintained).unwrap();
        assert!(check.verify(peel).is_ok());
        assert!(check.verify(&peel.replace("v7", "v8")).is_err());
        assert!(check.verify(&peel.replace("k_max=3", "k_max=4")).is_err());
    }

    #[test]
    fn stats_line_is_split_off() {
        let with = format!("{DELTA}{{\"algorithm\":\"sssp_delta\",\"rounds\":[]}}\n");
        let (body, stats) = split_stats(&with);
        assert_eq!(body, DELTA);
        assert_eq!(stats, Some("{\"algorithm\":\"sssp_delta\",\"rounds\":[]}"));
        assert_eq!(split_stats(DELTA), (DELTA, None));
        assert_eq!(split_stats(""), ("", None));
    }

    #[test]
    fn exact_and_prefix_checks() {
        assert!(Check::Exact("a\n".into()).verify("a\n").is_ok());
        assert!(Check::Exact("a\n".into()).verify("a").is_err());
        assert!(Check::StartsWith("components=")
            .verify("components=3 rounds=2\n")
            .is_ok());
        assert!(Check::StartsWith("components=")
            .verify("k_max=1\n")
            .is_err());
    }

    #[test]
    fn field_takes_whole_tokens() {
        assert_eq!(field("a=1 reached=2/3 b=4", "reached"), Some("2/3"));
        assert_eq!(field("unreached=9", "reached"), None);
        assert_eq!(field("x", "x"), None);
    }
}
