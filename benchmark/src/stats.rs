//! Order statistics over small samples.

/// Sorts and returns the value at quantile `q` by linear interpolation
/// between closest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The estimator for a cost (time per unit of work) sampled across a run:
/// what the program costs whenever a tenth of the run meets the host's
/// fast level (README, "Steadiness"). Over eight mixed-phase runs the
/// decile spread 4.0 % on `sim_shared` where the quartile spread 7.8 %
/// and the median 9.5 %.
pub fn lower_decile(values: &[f64]) -> Option<f64> {
    quantile(values, 0.10)
}

/// The estimator for a rate sampled across a run; see [`lower_decile`].
pub fn upper_decile(values: &[f64]) -> Option<f64> {
    quantile(values, 0.90)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method the driver uses). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance; 0 for a single value.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(iqr(&[4.0]), 0.0);
    }
}
