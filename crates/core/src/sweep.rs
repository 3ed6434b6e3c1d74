//! Parallel parameter sweeps.
//!
//! Each run is deterministic and, left at one worker, executes its shards
//! on the calling thread, so a sweep over configurations is
//! embarrassingly parallel: [`run_parallel`] fans
//! the configurations out over OS threads (scoped; no runtime dependency)
//! and returns the reports in input order.

use crate::scenario::{Scenario, ScenarioConfig, ScenarioReport};
use pels_netsim::time::SimTime;

/// Runs every configuration for `duration_s` simulated seconds, in parallel
/// across at most `max_threads` OS threads, and returns the reports in the
/// same order as the input.
///
/// # Examples
///
/// ```
/// use pels_core::scenario::{pels_flows, ScenarioConfig};
/// use pels_core::sweep::run_parallel;
///
/// let configs: Vec<ScenarioConfig> = (2..=4)
///     .map(|n| ScenarioConfig { flows: pels_flows(&vec![0.0; n]), ..Default::default() })
///     .collect();
/// let reports = run_parallel(configs, 5.0, 4);
/// assert_eq!(reports.len(), 3);
/// assert_eq!(reports[2].flows.len(), 4);
/// ```
///
/// # Panics
///
/// Panics if `max_threads == 0`, `duration_s <= 0`, or any scenario panics
/// (the panic is propagated).
pub fn run_parallel(
    configs: Vec<ScenarioConfig>,
    duration_s: f64,
    max_threads: usize,
) -> Vec<ScenarioReport> {
    assert!(max_threads >= 1, "need at least one thread");
    assert!(duration_s > 0.0, "duration must be positive");
    if configs.is_empty() {
        return Vec::new();
    }

    let mut reports: Vec<Option<ScenarioReport>> = Vec::new();
    reports.resize_with(configs.len(), || None);
    let jobs: Vec<(usize, ScenarioConfig)> = configs.into_iter().enumerate().collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(&mut reports);

    std::thread::scope(|scope| {
        let workers = max_threads.min(jobs.len());
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    return;
                }
                let (slot, cfg) = &jobs[i];
                let mut s = Scenario::build(cfg.clone());
                s.run_until(SimTime::from_secs_f64(duration_s));
                let report = s.report();
                results.lock().expect("no poisoned sweeps")[*slot] = Some(report);
            });
        }
    });

    reports.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::pels_flows;

    fn cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            flows: pels_flows(&vec![0.0; n]),
            keep_series: false,
            ..Default::default()
        }
    }

    #[test]
    fn preserves_input_order() {
        let configs = vec![cfg(1, 1), cfg(3, 1), cfg(2, 1)];
        let reports = run_parallel(configs, 3.0, 3);
        assert_eq!(reports.iter().map(|r| r.flows.len()).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn parallel_equals_serial() {
        let configs = vec![cfg(2, 9), cfg(2, 9)];
        let reports = run_parallel(configs, 5.0, 2);
        // Identical configs -> identical (deterministic) reports.
        assert_eq!(
            serde_json::to_string(&reports[0]).unwrap(),
            serde_json::to_string(&reports[1]).unwrap()
        );
        // And a fresh serial run agrees too.
        let mut s = Scenario::build(cfg(2, 9));
        s.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(
            serde_json::to_string(&s.report()).unwrap(),
            serde_json::to_string(&reports[0]).unwrap()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run_parallel(Vec::new(), 1.0, 4).is_empty());
    }

    #[test]
    fn more_jobs_than_threads() {
        let configs: Vec<_> = (0..7).map(|i| cfg(1, i)).collect();
        let reports = run_parallel(configs, 2.0, 2);
        assert_eq!(reports.len(), 7);
    }
}
