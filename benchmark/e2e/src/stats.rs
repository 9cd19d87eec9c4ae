//! Order statistics for the benchmark's reported numbers.
//!
//! Every timing the benchmark prints is an order statistic of per-op
//! samples, never a mean of them: one descheduled op on a shared host moves
//! a mean and leaves a percentile where it was. The numbers a later change
//! is held to are *lower* percentiles ([`LOW`]): what the host adds to an
//! op — a busy neighbour on the sibling hardware thread, a stolen core — is
//! only ever time on top, so the fast end of a run's samples repeats from
//! run to run where its middle does not.

/// Sorts a copy of `samples` ascending (NaN-free input assumed; a NaN is a
/// bug in the caller and panics here rather than skewing a result).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `p`-th percentile (`0.0..=1.0`) of an ascending slice by linear
/// interpolation between closest ranks (the "inclusive" rule: p=0 is the
/// minimum, p=1 the maximum). Returns 0.0 for an empty slice so that a
/// workload with no completed op reports a visible zero, not a panic; the
/// run is already marked failed by then.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 0.5)
}

/// `p`-th percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// The percentile the guarded timings are read at: the lower decile.
pub const LOW: f64 = 0.10;

/// The typical undisturbed cost of one op of a run whose ops are not all
/// the same request: every sample is replaced by the [`LOW`] percentile of
/// its group (the ops that sent the identical request), and the mean of
/// those is returned — each request weighs as much as the run sent of it.
/// With one group this is plainly that group's lower decile. 0.0 when
/// there are no samples.
pub fn grouped_low(samples: &[(u32, f64)]) -> f64 {
    let mut groups: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for &(group, value) in samples {
        groups.entry(group).or_default().push(value);
    }
    let weighted: f64 = groups
        .values()
        .map(|g| percentile(g, LOW) * g.len() as f64)
        .sum();
    weighted / samples.len().max(1) as f64
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile. The
/// sample-count rule for tails: a percentile is reported as a tail only
/// when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon absorbs `1.0 - 0.9 = 0.0999…98`, which would otherwise
    // floor 100 × 0.1 down to 9.
    ((n as f64) * (1.0 - p) + 1e-9).floor() as usize
}

/// Relative difference `|a - b| / max(|a|, |b|)`, 0 when both are 0. Used
/// by the `--repeat` self-check against each metric's bound.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&v, 1.5), 5.0);
        assert_eq!(percentile(&v, -0.5), 1.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(
            percentile(&[9.0, 1.0, 5.0, 3.0, 7.0], 0.25),
            percentile(&[1.0, 3.0, 5.0, 7.0, 9.0], 0.25)
        );
    }

    #[test]
    fn grouped_low_is_the_lower_decile_within_each_request() {
        // One group: its lower decile (rank 0.1 × 10 = 1 of 0..=10).
        let one: Vec<(u32, f64)> = (0..=10).map(|i| (7, f64::from(i))).collect();
        assert_eq!(grouped_low(&one), 1.0);
        // Two requests of different cost, one sent three times as often:
        // each sample counts as its own group's decile.
        let mut two: Vec<(u32, f64)> = vec![(0, 10.0), (0, 10.0), (0, 10.0), (1, 100.0)];
        assert_eq!(grouped_low(&two), (3.0 * 10.0 + 100.0) / 4.0);
        // A slow stretch that makes half the ops five times slower moves
        // the mean of the samples from 32.5 to 97.5 and this to 42.5.
        two.extend([(0, 50.0), (0, 50.0), (0, 50.0), (1, 500.0)]);
        assert_eq!(grouped_low(&two), (6.0 * 10.0 + 2.0 * 140.0) / 8.0);
        assert_eq!(grouped_low(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(39, 0.75), 9);
    }

    #[test]
    fn rel_diff_is_symmetric_and_zero_safe() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(10.0, 9.0), rel_diff(9.0, 10.0));
        assert!((rel_diff(10.0, 9.0) - 0.1).abs() < 1e-12);
    }
}
