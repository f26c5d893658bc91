//! Summary statistics for experiment reporting.
//!
//! The paper reports "the mean of all n = 50 individual costs, as well as
//! the 95th-percentile confidence interval" (§4.2). NaN entries (dead
//! nodes) are skipped throughout.

/// The finite entries of `xs`, in order.
fn finite(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().filter(|x| x.is_finite()).collect()
}

/// Mean of an all-finite slice; NaN when empty.
fn mean_of(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard deviation of an all-finite slice.
fn stddev_of(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean_of(v);
    let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
    var.sqrt()
}

/// Mean of finite values; NaN when none.
pub fn mean(xs: &[f64]) -> f64 {
    mean_of(&finite(xs))
}

/// Half-width of the 95% confidence interval of the mean
/// (normal approximation, `1.96 · s/√n`).
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    let v = finite(xs);
    if v.len() < 2 {
        return 0.0;
    }
    1.96 * stddev_of(&v) / (v.len() as f64).sqrt()
}

/// Mean together with its 95% CI half-width.
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    (mean(xs), ci95_half_width(xs))
}

/// The `qs` percentiles (each 0..=100) of a multiset of finite values
/// held as runs: `(value, count)` pairs in ascending [`f64::total_cmp`]
/// order, one per distinct bit pattern, counts > 0. Linear interpolation
/// between order statistics, `at_lo·(1−frac) + at_hi·frac` — bit for bit
/// what sorting the expanded values gives; NaN when the runs are empty.
/// O(runs) per percentile.
pub fn percentiles<const N: usize>(runs: &[(f64, u64)], qs: [f64; N]) -> [f64; N] {
    let len: u64 = runs.iter().map(|&(_, count)| count).sum();
    qs.map(|q| {
        if len == 0 {
            return f64::NAN;
        }
        let pos = (q / 100.0) * (len - 1) as f64;
        let lo = pos.floor() as u64;
        // The run holding order statistic `lo`, and where the next begins.
        let (mut at, mut end) = (0, runs[0].1);
        while end <= lo {
            at += 1;
            end += runs[at].1;
        }
        let at_lo = runs[at].0;
        if pos.ceil() as u64 == lo {
            return at_lo;
        }
        let at_hi = if lo + 1 < end { at_lo } else { runs[at + 1].0 };
        let frac = pos - lo as f64;
        at_lo * (1.0 - frac) + at_hi * frac
    })
}

/// `q`-th percentile (0..=100) of finite values, linear interpolation:
/// sort, run-length, then [`percentiles`].
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = finite(xs);
    v.sort_unstable_by(f64::total_cmp);
    let mut runs: Vec<(f64, u64)> = Vec::new();
    for x in v {
        match runs.last_mut() {
            Some((value, count)) if value.to_bits() == x.to_bits() => *count += 1,
            _ => runs.push((x, 1)),
        }
    }
    percentiles(&runs, [q])[0]
}

/// Ratio of two means (`a/b`), NaN-safe — the "normalized cost" the
/// figures plot.
pub fn normalized(a: &[f64], b: &[f64]) -> f64 {
    let mb = mean(b);
    if mb == 0.0 {
        return f64::NAN;
    }
    mean(a) / mb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_skips_nan() {
        assert_eq!(mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean(&[f64::NAN]).is_nan());
    }

    #[test]
    fn ci_of_constant_is_zero() {
        assert_eq!(ci95_half_width(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn ci_known_value() {
        // Sample std of [2, 4, 4, 4, 5, 5, 7, 9] = ~2.138, over √8.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let want = 1.96 * 2.138089935 / 8f64.sqrt();
        assert!((ci95_half_width(&xs) - want).abs() < 1e-6);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small = [1.0, 2.0, 3.0, 4.0];
        let big: Vec<f64> = (0..64).map(|i| 1.0 + (i % 4) as f64).collect();
        assert!(ci95_half_width(&big) < ci95_half_width(&small));
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
    }

    #[test]
    fn percentiles_read_what_a_sort_would() {
        // Pseudo-random values with repeats, signed zeros, NaNs and
        // infinities mixed in.
        let xs: Vec<f64> = (0..257u32)
            .map(|i| match i % 13 {
                0 => f64::NAN,
                5 => f64::INFINITY,
                7 => f64::NEG_INFINITY,
                9 => -0.0,
                11 => 0.0,
                _ => (i.wrapping_mul(2654435761) % 40) as f64 * 0.25 - 6.0,
            })
            .collect();
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let mut runs: Vec<(f64, u64)> = Vec::new();
        for &x in &sorted {
            match runs.last_mut() {
                Some((v, c)) if v.to_bits() == x.to_bits() => *c += 1,
                _ => runs.push((x, 1)),
            }
        }
        assert!(runs.len() < sorted.len() / 2, "the values repeat");
        assert!(runs.iter().any(|r| r.0.to_bits() == (-0.0f64).to_bits()));
        let qs = [0.0, 12.5, 50.0, 99.0, 100.0];
        let got = percentiles(&runs, qs);
        // Any order of `qs` gives the same values.
        let shuffled = [99.0, 0.0, 100.0, 12.5, 50.0];
        let again = percentiles(&runs, shuffled);
        for (q, got) in qs.iter().zip(got).chain(shuffled.iter().zip(again)) {
            let pos = (q / 100.0) * (sorted.len() - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos - pos.floor());
            let want = if frac == 0.0 {
                sorted[lo]
            } else {
                sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
            };
            assert_eq!(got.to_bits(), want.to_bits(), "q={q}");
            assert_eq!(percentile(&xs, *q).to_bits(), want.to_bits());
        }
        // Every order statistic, each one on either side of a run's end.
        for lo in 0..sorted.len() - 1 {
            let q = (lo as f64 + 0.5) * 100.0 / (sorted.len() - 1) as f64;
            let pos = (q / 100.0) * (sorted.len() - 1) as f64;
            let (at, frac) = (pos.floor() as usize, pos - pos.floor());
            let want = sorted[at] * (1.0 - frac) + sorted[at + 1] * frac;
            assert_eq!(
                percentiles(&runs, [q])[0].to_bits(),
                want.to_bits(),
                "q={q}"
            );
        }
        // -0.0 sorts before +0.0, and a run of one reads as itself.
        assert_eq!(percentile(&[0.0, -0.0], 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(percentile(&[0.0, -0.0], 100.0).to_bits(), 0.0f64.to_bits());
        assert!(percentile(&[f64::NAN, f64::INFINITY], 50.0).is_nan());
        assert!(percentiles(&[], [50.0, 99.0]).iter().all(|p| p.is_nan()));
    }

    #[test]
    fn normalized_ratio() {
        assert!((normalized(&[2.0, 4.0], &[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_ci_tuple() {
        let (m, ci) = mean_ci(&[1.0, 2.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!(ci > 0.0);
    }
}
