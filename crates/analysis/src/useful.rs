//! Closed-form expressions from Section 3 of the paper.
//!
//! * [`expected_useful_general`] — Lemma 1 / Eq. (1): `E[Y_j]` for an
//!   arbitrary frame-size PMF under Bernoulli loss.
//! * [`expected_useful_fixed`] — Eq. (2): the constant-frame-size special
//!   case.
//! * [`best_effort_utility`] — Eq. (3): utility of best-effort streaming.
//! * [`optimal_useful`] / optimal utility — the preferential ("drop from the
//!   top") benchmark where all `H(1-p)` surviving packets are consecutive.
//! * [`pels_utility_lower_bound`] — Eq. (6): the PELS guarantee under the
//!   γ-controller.

/// Eq. (1): expected number of useful (consecutively received) packets in a
/// frame whose size `H` (in packets) has PMF `pmf[k-1] = P(H = k)`, under
/// i.i.d. Bernoulli packet loss `p`.
///
/// `E[Y] = (1-p)/p * Σ_k (1 - (1-p)^k) q_k`
///
/// # Examples
///
/// ```
/// use pels_analysis::useful::{expected_useful_general, expected_useful_fixed};
///
/// // A point mass at H = 100 reduces to the fixed-size formula.
/// let mut pmf = vec![0.0; 100];
/// pmf[99] = 1.0;
/// let general = expected_useful_general(0.1, &pmf);
/// let fixed = expected_useful_fixed(0.1, 100);
/// assert!((general - fixed).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1]` or the PMF does not sum to ~1.
pub fn expected_useful_general(p: f64, pmf: &[f64]) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "loss must be in (0,1]: {p}");
    let total: f64 = pmf.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "PMF must sum to 1 (got {total})");
    let q = 1.0 - p;
    let sum: f64 = pmf.iter().enumerate().map(|(i, &qk)| (1.0 - q.powi(i as i32 + 1)) * qk).sum();
    q / p * sum
}

/// Eq. (2): `E[Y] = (1-p)/p * (1 - (1-p)^H)` for fixed frame size `H`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1]`, `H == 0`, or `H > i32::MAX` (the
/// largest exponent `powi` takes).
pub fn expected_useful_fixed(p: f64, h: u32) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "loss must be in (0,1]: {p}");
    assert!(h > 0, "frame size must be positive");
    assert!(h <= i32::MAX as u32, "frame size {h} exceeds i32::MAX");
    let q = 1.0 - p;
    q / p * (1.0 - q.powi(h as i32))
}

/// The saturation limit of Eq. (2) as `H → ∞`: `(1-p)/p`.
pub fn useful_saturation(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "loss must be in (0,1]: {p}");
    (1.0 - p) / p
}

/// Eq. (3): utility of best-effort streaming,
/// `U = E[Y] / (H(1-p)) = (1 - (1-p)^H) / (Hp)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1]`, `H == 0`, or `H > i32::MAX` (the
/// largest exponent `powi` takes).
pub fn best_effort_utility(p: f64, h: u32) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "loss must be in (0,1]: {p}");
    assert!(h > 0, "frame size must be positive");
    assert!(h <= i32::MAX as u32, "frame size {h} exceeds i32::MAX");
    (1.0 - (1.0 - p).powi(h as i32)) / (h as f64 * p)
}

/// Useful packets under *optimal* preferential streaming: all `H(1-p)`
/// survivors are consecutive (Section 3.2), so every received packet is
/// useful and utility is 1.
pub fn optimal_useful(p: f64, h: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "loss must be in [0,1]: {p}");
    h as f64 * (1.0 - p)
}

/// Eq. (6): lower bound on PELS utility when γ is controlled to keep red
/// loss at `p_thr`: `U >= (1 - p/p_thr) / (1 - p)`.
///
/// Returns 0 when the bound is vacuous (`p >= p_thr`).
///
/// # Examples
///
/// ```
/// use pels_analysis::useful::pels_utility_lower_bound;
///
/// // The paper's examples: U >= 0.96 for p=0.1, and >= 0.996 for p=0.01.
/// assert!(pels_utility_lower_bound(0.10, 0.75) > 0.96);
/// assert!(pels_utility_lower_bound(0.01, 0.75) > 0.996);
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)` or `p_thr` outside `(0, 1]`.
pub fn pels_utility_lower_bound(p: f64, p_thr: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "loss must be in [0,1): {p}");
    assert!(p_thr > 0.0 && p_thr <= 1.0, "p_thr must be in (0,1]: {p_thr}");
    ((1.0 - p / p_thr) / (1.0 - p)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        // Paper Table 1 (H = 100): model column.
        assert!((expected_useful_fixed(0.0001, 100) - 99.49).abs() < 0.01);
        assert!((expected_useful_fixed(0.01, 100) - 62.76).abs() < 0.01);
        assert!((expected_useful_fixed(0.1, 100) - 8.99).abs() < 0.01);
    }

    #[test]
    fn saturation_limit() {
        // Section 3.1: at p = 0.1 the useful count saturates at 9.
        assert!((useful_saturation(0.1) - 9.0).abs() < 1e-12);
        let big = expected_useful_fixed(0.1, 10_000);
        assert!((big - 9.0).abs() < 1e-9);
    }

    #[test]
    fn paper_utility_example() {
        // Section 3.1: U = 0.1 for p = 0.1, H = 100 (to one significant digit).
        let u = best_effort_utility(0.1, 100);
        assert!((u - 0.09999).abs() < 1e-3, "utility {u}");
    }

    #[test]
    fn utility_decays_inverse_in_h() {
        // U ~ 1/(Hp) for large H: doubling H halves utility.
        let u1 = best_effort_utility(0.1, 1_000);
        let u2 = best_effort_utility(0.1, 2_000);
        assert!((u1 / u2 - 2.0).abs() < 1e-3);
    }

    #[test]
    fn utility_tends_to_one_for_tiny_frames() {
        assert!(best_effort_utility(0.1, 1) > 0.999);
    }

    #[test]
    fn general_reduces_to_fixed_for_point_mass() {
        for h in [1usize, 10, 100] {
            let mut pmf = vec![0.0; h];
            pmf[h - 1] = 1.0;
            assert!(
                (expected_useful_general(0.05, &pmf) - expected_useful_fixed(0.05, h as u32)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn general_mixture_is_between_components() {
        // 50/50 mixture of H=10 and H=100.
        let mut pmf = vec![0.0; 100];
        pmf[9] = 0.5;
        pmf[99] = 0.5;
        let mix = expected_useful_general(0.1, &pmf);
        let lo = expected_useful_fixed(0.1, 10);
        let hi = expected_useful_fixed(0.1, 100);
        assert!(mix > lo && mix < hi);
        // E[Y] for a mixture is the mixture of E[Y]s (linearity).
        assert!((mix - 0.5 * (lo + hi)).abs() < 1e-12);
    }

    #[test]
    fn pels_bound_dominates_best_effort() {
        for p in [0.01, 0.05, 0.1, 0.2] {
            let pels = pels_utility_lower_bound(p, 0.75);
            let be = best_effort_utility(p, 105);
            assert!(pels > be, "p={p}: pels bound {pels} <= best-effort {be}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds i32::MAX")]
    fn frame_sizes_past_the_powi_exponent_panic() {
        // `powi(h as i32)` would wrap to a negative exponent and return -inf.
        let _ = best_effort_utility(0.1, 1 << 31);
    }

    #[test]
    #[should_panic(expected = "PMF must sum to 1")]
    fn rejects_unnormalized_pmf() {
        let _ = expected_useful_general(0.1, &[0.5, 0.2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Utility is in (0, 1], decreasing in H, and decreasing in p.
        #[test]
        fn utility_bounds_and_monotonicity(p in 0.001f64..0.9, h in 1u32..2000) {
            let u = best_effort_utility(p, h);
            // (1e-12 slack: for H = 1 the exact value is 1 up to rounding.)
            prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
            prop_assert!(best_effort_utility(p, h + 1) <= u + 1e-12);
            prop_assert!(best_effort_utility((p + 0.05).min(0.95), h) <= u + 1e-12);
        }

        /// E[Y] never exceeds the optimal H(1-p) nor the saturation (1-p)/p.
        #[test]
        fn useful_dominated_by_optimal(p in 0.001f64..0.9, h in 1u32..2000) {
            let ey = expected_useful_fixed(p, h);
            prop_assert!(ey <= optimal_useful(p, h) + 1e-9);
            prop_assert!(ey <= useful_saturation(p) + 1e-9);
        }

        /// Eq. (6) bound is within [0, 1].
        #[test]
        fn pels_bound_in_unit_interval(p in 0.0f64..0.99, thr in 0.01f64..=1.0) {
            let b = pels_utility_lower_bound(p, thr);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&b));
        }
    }
}
