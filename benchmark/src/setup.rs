//! How set-up is timed, the same way on both stacks.
//!
//! A set-up is 0.25-6 ms of allocation, page faults and (on the wire)
//! socket calls. Two things make a single timing useless. The first few
//! set-ups of a batch run two to ten times slower than the rest (cold
//! allocator, cold caches), so each batch starts with untimed ones. And the
//! host prices this kind of work at one of two levels about 1.35x apart,
//! holds a level for anything from a second to a minute, and so a batch of
//! back-to-back set-ups reads one level or the other throughout. Set-up is
//! therefore timed in three batches spread over the run (before it, right
//! after it, and [`GAP`] later), each batch is summarised by its median,
//! and the lowest of the three is reported: the cost at the host's fast
//! level, if any batch met it.

use crate::stats::median;
use std::time::Duration;

/// Untimed set-ups ahead of each batch.
const WARMUPS: usize = 3;
/// Timed set-ups per batch.
const REPEATS: usize = 15;
/// Idle time between the second and the third batch.
const GAP: Duration = Duration::from_secs(2);

/// The timed batches of one run.
#[derive(Debug)]
pub struct SetupTimes {
    batches: Vec<Vec<f64>>,
    gap: Duration,
}

impl SetupTimes {
    /// A smoke run checks shape, not steadiness, and does not wait.
    pub fn new(smoke: bool) -> Self {
        SetupTimes { batches: Vec::new(), gap: if smoke { Duration::ZERO } else { GAP } }
    }

    /// Idles between the second and the third batch.
    pub fn pause(&self) {
        std::thread::sleep(self.gap);
    }

    /// Runs one batch: `once` sets up and returns the seconds it took.
    pub fn batch(&mut self, mut once: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
        let mut timed = Vec::with_capacity(REPEATS);
        for i in 0..WARMUPS + REPEATS {
            let secs = once()?;
            if i >= WARMUPS {
                timed.push(secs);
            }
        }
        self.batches.push(timed);
        Ok(())
    }

    /// The lowest of the batches' medians; NaN before the first batch.
    pub fn lowest_batch_median(&self) -> f64 {
        self.batches.iter().filter_map(|b| median(b)).fold(f64::NAN, f64::min)
    }

    /// For the run's notes: `what` names one set-up.
    pub fn note(&self, what: &str) -> String {
        format!(
            "setup_s is the lowest median of {} batches of {REPEATS} x ({what}), {WARMUPS} untimed \
             ones ahead of each: before the run, right after it, and {} s later",
            self.batches.len(),
            self.gap.as_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_fastest_batch_and_skips_warmups() {
        let mut times = SetupTimes::new(true);
        assert!(times.lowest_batch_median().is_nan());
        for level in [3.0, 2.0, 4.0] {
            let mut calls = 0;
            times
                .batch(|| {
                    calls += 1;
                    // The warm-ups are slow and must not count.
                    Ok(if calls <= WARMUPS { 100.0 } else { level })
                })
                .unwrap();
            assert_eq!(calls, WARMUPS + REPEATS);
        }
        assert_eq!(times.lowest_batch_median(), 2.0);
        assert!(times.batch(|| Err("bind failed".into())).is_err());
    }
}
