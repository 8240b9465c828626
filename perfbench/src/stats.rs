//! Order statistics for the benchmark's reports.

/// Percentiles tried for a tail, highest first, in tenths of a percent.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples a tail percentile must leave above itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values
/// for an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so the spreads printed here match those a caller computes
/// over repeated runs. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        // Like CPython, clamp the index but not the interpolation
        // weight, which extrapolates for very small samples.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile together with the counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 that
/// leaves at least [`TAIL_MIN_BEYOND`] samples beyond its nearest rank.
/// `None` when even the 75th percentile has too few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // Nearest rank, ceil(p * n), in exact integer arithmetic.
        let rank = (p * n).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: v[rank - 1],
            beyond,
            n,
        })
    })
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            Some([2.75, 5.5, 8.25])
        );
        // Order of the input does not matter.
        assert_eq!(
            quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]),
            Some([2.75, 5.5, 8.25])
        );
        assert_eq!(
            quartiles(&[0.5, 7.25, 1.0, 3.5, 2.0]),
            Some([0.75, 2.0, 5.375])
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Fewer than 40 samples leave fewer than 10 above the 75th.
        assert_eq!(tail(&xs(5)), None);
        assert_eq!(tail(&xs(39)), None);
        let t = tail(&xs(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.n), (75.0, 30.0, 10, 40));
        let t = tail(&xs(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&xs(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&xs(1_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&xs(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9_990.0, 10));
        // 76 months: the 75th percentile is the highest with 10 beyond.
        let t = tail(&xs(76)).unwrap();
        assert_eq!((t.percentile, t.beyond), (75.0, 19));
    }

    #[test]
    fn names_and_units() {
        for ok in ["wall_s", "notary.fold_ns_per_flow", "0ab", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ns/flow"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "bytes per flow!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
