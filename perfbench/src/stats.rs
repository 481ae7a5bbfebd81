//! The benchmark's own statistics, computed from raw samples.
//!
//! The program's `LogHistogram` answers percentiles with power-of-two
//! bucket bounds, which cannot tell a 0.29 ms median from a 0.54 ms one,
//! so every percentile, quartile and rate reported here is taken from
//! the samples themselves.

/// A percentile read from raw samples, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// A tail percentile is trustworthy only with at least ten samples
    /// beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Rank r (1-based) is the smallest with r >= q * n.
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `samples` (the mean of the middle pair for even counts);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so in-run spreads read like the cross-run ones.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..=n-1, then interpolate
        // (or extrapolate, at the clamped ends) by delta = i*(n+1) - 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One timed call into the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Items the call completed.
    pub items: u64,
    /// Host wall seconds the call took.
    pub host_s: f64,
    /// Simulated seconds the call advanced the PPE clock.
    pub sim_s: f64,
}

/// `items` per second of `seconds`; 0 when no time passed.
pub fn rate(items: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        items as f64 / seconds
    } else {
        0.0
    }
}

/// `total` per item; 0 for a run that completed no items (a layer that
/// saw no work reports zero, not a division by zero).
pub fn per_item(total: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        total / items as f64
    }
}

/// Why items failed. Every kind counts against the number attempted: a
/// shed or degraded response missed the service a caller asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Items lost to an error returned by the program.
    pub errors: u64,
    /// Requests shed instead of served.
    pub shed: u64,
    /// Responses served with kernels dropped.
    pub degraded: u64,
    /// Outputs that differ from the oracle (or are missing).
    pub mismatches: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.errors + self.shed + self.degraded + self.mismatches
    }
}

/// Failed items as a share of items attempted (0 for nothing attempted).
pub fn fail_frac(attempted: u64, failures: &Failures) -> f64 {
    per_item(failures.total() as f64, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let p50 = percentile(&ramp(100), 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&ramp(100), 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        // Order of the input does not matter.
        let mut shuffled = ramp(10);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9).unwrap().value, 9.0);
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert_eq!(percentile(&[7.0], 0.0).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly ten above it.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 10));
        assert!(p.supported());
        // One sample fewer and the tail is no longer supported.
        assert!(!percentile(&ramp(999), 0.99).unwrap().supported());
        // p90 of 100 samples is supported, p90 of 99 is not.
        assert!(percentile(&ramp(100), 0.9).unwrap().supported());
        assert!(!percentile(&ramp(99), 0.9).unwrap().supported());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some((1.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn rates_are_items_over_seconds() {
        assert_eq!(rate(12, 3.0), 4.0);
        assert_eq!(rate(12, 0.0), 0.0);
    }

    #[test]
    fn per_item_normalisation() {
        // 13,027,800 instructions over 150 jobs.
        assert_eq!(per_item(13_027_800.0, 150), 86_852.0);
        assert_eq!(per_item(5.0, 0), 0.0);
    }

    #[test]
    fn fail_frac_counts_sheds_degradations_and_mismatches() {
        // A crafted run: one shed request, two degraded responses and
        // one output that differs from its oracle.
        let failures = Failures {
            errors: 0,
            shed: 1,
            degraded: 2,
            mismatches: 1,
        };
        assert_eq!(failures.total(), 4);
        assert_eq!(fail_frac(40, &failures), 0.1);
        assert_eq!(fail_frac(40, &Failures::default()), 0.0);
        assert_eq!(fail_frac(0, &failures), 0.0);
    }
}
