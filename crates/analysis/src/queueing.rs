//! Classical queueing formulas used to validate the packet simulator.
//!
//! `pels-netsim` claims to model links as fixed-rate servers with FIFO
//! queues; these closed forms (M/M/1, M/D/1, Pollaczek–Khinchine) predict
//! its behaviour under Poisson arrivals exactly, so the integration tests
//! can calibrate the simulator against eighty-year-old ground truth.

/// Utilization `ρ = λ·E[S]`.
///
/// # Panics
///
/// Panics if inputs are non-positive or not finite.
pub fn utilization(lambda: f64, mean_service_s: f64) -> f64 {
    assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be positive");
    assert!(mean_service_s > 0.0 && mean_service_s.is_finite(), "service time must be positive");
    lambda * mean_service_s
}

/// M/M/1 mean time in system: `W = 1 / (μ − λ)`.
///
/// # Panics
///
/// Panics unless `0 < λ < μ`.
pub fn mm1_mean_sojourn(lambda: f64, mu: f64) -> f64 {
    assert!(lambda > 0.0 && mu > lambda, "need 0 < lambda < mu");
    1.0 / (mu - lambda)
}

/// M/M/1 mean number in system: `L = ρ / (1 − ρ)`.
pub fn mm1_mean_in_system(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "rho must be in [0,1): {rho}");
    rho / (1.0 - rho)
}

/// Pollaczek–Khinchine mean *waiting* time for M/G/1:
/// `Wq = λ·E[S²] / (2(1−ρ))`.
///
/// # Panics
///
/// Panics if `ρ >= 1` or inputs are invalid.
pub fn mg1_mean_wait(lambda: f64, mean_service_s: f64, second_moment_service: f64) -> f64 {
    let rho = utilization(lambda, mean_service_s);
    assert!(rho < 1.0, "unstable queue: rho = {rho}");
    assert!(second_moment_service >= mean_service_s * mean_service_s, "E[S^2] >= E[S]^2");
    lambda * second_moment_service / (2.0 * (1.0 - rho))
}

/// M/D/1 mean sojourn (deterministic service `s`):
/// `W = s + λ s² / (2(1−ρ))`.
pub fn md1_mean_sojourn(lambda: f64, service_s: f64) -> f64 {
    service_s + mg1_mean_wait(lambda, service_s, service_s * service_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_values() {
        // λ = 8/s, μ = 10/s: ρ = 0.8, L = 4, W = 0.5 s.
        assert!((utilization(8.0, 0.1) - 0.8).abs() < 1e-12);
        assert!((mm1_mean_in_system(0.8) - 4.0).abs() < 1e-12);
        assert!((mm1_mean_sojourn(8.0, 10.0) - 0.5).abs() < 1e-12);
        // P-K agrees with the direct formula: exponential service has
        // E[S²] = 2/μ².
        let (lambda, mu) = (8.0, 10.0);
        let pk = 1.0 / mu + mg1_mean_wait(lambda, 1.0 / mu, 2.0 / (mu * mu));
        assert!((pk - 0.5).abs() < 1e-12);
    }

    #[test]
    fn md1_is_half_the_mm1_wait() {
        // Deterministic service halves the queueing delay term.
        let lambda = 8.0;
        let s = 0.1;
        let md1_wait = md1_mean_sojourn(lambda, s) - s;
        let mm1_wait = mm1_mean_sojourn(lambda, 10.0) - s;
        assert!((md1_wait - 0.5 * mm1_wait).abs() < 1e-12);
    }

    #[test]
    fn little_law_consistency() {
        // L = λ W for M/M/1.
        let (lambda, mu) = (3.0, 5.0);
        let w = mm1_mean_sojourn(lambda, mu);
        let l = mm1_mean_in_system(lambda / mu);
        assert!((l - lambda * w).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable queue")]
    fn pk_rejects_overload() {
        let _ = mg1_mean_wait(11.0, 0.1, 0.01);
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1 for perfectly equal shares,
/// `1/n` when one flow takes everything.
///
/// # Examples
///
/// ```
/// use pels_analysis::queueing::jain_index;
///
/// assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `shares` is empty or contains negative/non-finite values.
pub fn jain_index(shares: &[f64]) -> f64 {
    assert!(!shares.is_empty(), "need at least one share");
    assert!(
        shares.iter().all(|x| x.is_finite() && *x >= 0.0),
        "shares must be non-negative and finite"
    );
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0; // all-zero allocation is (vacuously) equal
    }
    sum * sum / (shares.len() as f64 * sum_sq)
}

#[cfg(test)]
mod jain_tests {
    use super::jain_index;

    #[test]
    fn bounds_and_known_values() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[4.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // 2:1 between two flows: (3)^2 / (2*5) = 0.9.
        assert!((jain_index(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one share")]
    fn rejects_empty() {
        let _ = jain_index(&[]);
    }
}
