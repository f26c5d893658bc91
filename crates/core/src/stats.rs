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

/// Sample standard deviation of finite values.
pub fn stddev(xs: &[f64]) -> f64 {
    stddev_of(&finite(xs))
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

/// The `qs` percentiles (each 0..=100) of the finite values of `xs`,
/// linear interpolation between order statistics; NaN when there are
/// none. Selection, not a sort: O(len) per percentile, less when `qs`
/// ascend. Reorders `xs`.
pub fn percentiles(xs: &mut [f64], qs: &[f64]) -> Vec<f64> {
    // Finite values to the front; order statistics ignore the order.
    let mut len = 0;
    for i in 0..xs.len() {
        if xs[i].is_finite() {
            xs.swap(len, i);
            len += 1;
        }
    }
    let v = &mut xs[..len];
    // Everything before `split` is already ≤ everything from it on, so a
    // later, higher percentile only has to look at the upper part.
    let mut split = 0;
    qs.iter()
        .map(|q| {
            if v.is_empty() {
                return f64::NAN;
            }
            let pos = (q / 100.0) * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let from = if lo >= split { split } else { 0 };
            let (_, &mut at_lo, above) =
                v[from..].select_nth_unstable_by(lo - from, f64::total_cmp);
            split = lo;
            if pos.ceil() as usize == lo {
                return at_lo;
            }
            // The next order statistic is the least of what lies above.
            let at_hi = above.iter().copied().min_by(f64::total_cmp).unwrap();
            let frac = pos - lo as f64;
            at_lo * (1.0 - frac) + at_hi * frac
        })
        .collect()
}

/// `q`-th percentile (0..=100) of finite values, linear interpolation.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    percentiles(&mut xs.to_vec(), &[q])[0]
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
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // Sample std of [2, 4, 4, 4, 5, 5, 7, 9] = ~2.138.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.138089935).abs() < 1e-6);
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
    fn percentiles_select_what_a_sort_would() {
        // Pseudo-random values with repeats, NaNs and infinities mixed in.
        let xs: Vec<f64> = (0..257u32)
            .map(|i| match i % 11 {
                0 => f64::NAN,
                5 => f64::INFINITY,
                _ => (i.wrapping_mul(2654435761) % 1000) as f64 * 0.25,
            })
            .collect();
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let qs = [0.0, 12.5, 50.0, 99.0, 100.0];
        let got = percentiles(&mut xs.clone(), &qs);
        // Any order of `qs` gives the same values.
        let shuffled = [99.0, 0.0, 100.0, 12.5, 50.0];
        let again = percentiles(&mut xs.clone(), &shuffled);
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
        assert!(percentiles(&mut [f64::NAN], &[50.0])[0].is_nan());
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
