//! Router feedback computation and source-side freshness filtering
//! (paper Section 5.2, Eq. 11).
//!
//! Every `T` time units the router computes the arrival rate `R = S/T` of
//! its PELS queue, the loss `p = (R − C)/R`, increments its epoch `z`, and
//! resets the byte counter. The label `(router ID, z, p)` is stamped into
//! every passing packet; receivers echo it in ACKs; sources apply each epoch
//! at most once.

use crate::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::packet::{AgentId, Feedback};
use pels_netsim::time::{Rate, SimDuration};
use serde::{Deserialize, Serialize};

/// Router-side feedback estimator for one PELS queue (Eq. 11).
///
/// # Examples
///
/// ```
/// use pels_core::feedback::FeedbackEstimator;
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::time::{Rate, SimDuration};
///
/// // 2 Mb/s of PELS capacity, 30 ms measurement interval.
/// let mut est = FeedbackEstimator::new(Rate::from_mbps(2.0), SimDuration::from_millis(30));
/// // 9,000 bytes in 30 ms = 2.4 Mb/s: 1/6 overload (the first window is
/// // taken as measured; later ones are smoothed).
/// for _ in 0..18 { est.on_arrival(500, 1); }
/// let fb = est.tick(AgentId(1));
/// assert!((fb.loss - 1.0 / 6.0).abs() < 1e-9);
/// assert_eq!(fb.epoch, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackEstimator {
    capacity: Rate,
    interval: SimDuration,
    epoch: u64,
    bytes_total: u64,
    bytes_green: u64,
    bytes_enh: u64,
    rate_total: Option<f64>,
    rate_green: f64,
    rate_enh: f64,
    last_loss: f64,
    last_fgs_loss: f64,
}

/// Loss reported while the queue sees no arrivals at all (maximum spare
/// capacity; the value is clamped by each controller's
/// [`MIN_FEEDBACK`](crate::mkc::MIN_FEEDBACK)).
const IDLE_LOSS: f64 = -100.0;

/// The feedback interval `T` of Eq. 11 (paper: 30 ms), on both stacks: the
/// simulator's default [`AqmConfig::feedback_interval`](crate::router::AqmConfig)
/// and the wire server's shared router.
pub const FEEDBACK_INTERVAL: SimDuration = SimDuration::from_millis(30);

/// EWMA weight applied to each new window's rate measurement after the
/// first, on both stacks. 1 would be raw per-window rates (the paper's
/// literal Eq. 11); a smaller weight damps the quantization noise a
/// `T`-sized window picks up from frame-paced sources (packets arrive every
/// few ms, so a 30 ms window miscounts by ±1–2 packets, which MKC would
/// otherwise amplify into a rate limit cycle).
pub const FEEDBACK_SMOOTHING: f64 = 0.15;

impl FeedbackEstimator {
    /// Creates an estimator for a queue served at `capacity`, measuring
    /// over `interval` (`T` in the paper; [`FEEDBACK_INTERVAL`]).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the interval is zero.
    pub fn new(capacity: Rate, interval: SimDuration) -> Self {
        Self::try_new(capacity, interval).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`FeedbackEstimator::new`]: returns
    /// [`SimError::InvalidConfig`] instead of panicking.
    pub fn try_new(capacity: Rate, interval: SimDuration) -> Result<Self, SimError> {
        if capacity.as_bps() == 0 {
            return Err(invalid_config("capacity must be positive"));
        }
        if interval.is_zero() {
            return Err(invalid_config("interval must be positive"));
        }
        Ok(FeedbackEstimator {
            capacity,
            interval,
            epoch: 0,
            bytes_total: 0,
            bytes_green: 0,
            bytes_enh: 0,
            rate_total: None,
            rate_green: 0.0,
            rate_enh: 0.0,
            last_loss: IDLE_LOSS,
            last_fgs_loss: 0.0,
        })
    }

    /// Records the arrival of a PELS packet of `bytes` with wire `class`
    /// (`S = S + s_i` in the paper's algorithm).
    pub fn on_arrival(&mut self, bytes: u32, class: u8) {
        self.bytes_total += bytes as u64;
        if class == 0 {
            self.bytes_green += bytes as u64;
        } else {
            self.bytes_enh += bytes as u64;
        }
    }

    /// Closes the current measurement interval: computes `R = S/T`,
    /// `p = (R − C)/R`, increments the epoch, resets counters (Eq. 11), and
    /// returns the fresh label for router `router`.
    pub fn tick(&mut self, router: AgentId) -> Feedback {
        self.tick_elapsed(router, self.interval)
    }

    /// [`tick`](Self::tick) with the *measured* window length instead of
    /// the nominal `T`. Simulations fire the measurement timer exactly on
    /// schedule, so `tick` is exact there — but a wall-clock server's tick
    /// slips under load, and dividing a long window's arrivals by the
    /// nominal `T` inflates `R` several-fold and reports phantom loss the
    /// moment the scheduler stalls the process. Eq. 11's `R = S/T` wants
    /// the window the bytes actually arrived in.
    pub fn tick_elapsed(&mut self, router: AgentId, elapsed: SimDuration) -> Feedback {
        // Floor at the nominal interval: the timer can fire late, never
        // early, and a degenerate zero window must not divide by zero.
        let t = elapsed.as_secs_f64().max(self.interval.as_secs_f64());
        let c = self.capacity.as_bps() as f64;
        let w_total = self.bytes_total as f64 * 8.0 / t;
        let w_green = self.bytes_green as f64 * 8.0 / t;
        let w_enh = self.bytes_enh as f64 * 8.0 / t;

        let a = FEEDBACK_SMOOTHING;
        let (r_total, r_green, r_enh) = match self.rate_total {
            None => (w_total, w_green, w_enh),
            Some(prev_total) => (
                a * w_total + (1.0 - a) * prev_total,
                a * w_green + (1.0 - a) * self.rate_green,
                a * w_enh + (1.0 - a) * self.rate_enh,
            ),
        };
        self.rate_total = Some(r_total);
        self.rate_green = r_green;
        self.rate_enh = r_enh;

        self.last_loss =
            if r_total > 0.0 { ((r_total - c) / r_total).max(IDLE_LOSS) } else { IDLE_LOSS };
        // Strict priority serves green first: the enhancement layer gets
        // whatever capacity the green traffic leaves, and absorbs the whole
        // overload.
        let avail_enh = (c - r_green).max(0.0);
        self.last_fgs_loss =
            if r_enh > 0.0 { ((r_enh - avail_enh) / r_enh).clamp(0.0, 1.0) } else { 0.0 };

        self.epoch += 1;
        self.bytes_total = 0;
        self.bytes_green = 0;
        self.bytes_enh = 0;
        self.label(router)
    }

    /// The current label without closing the interval (what gets stamped
    /// into packets between ticks).
    pub fn label(&self, router: AgentId) -> Feedback {
        Feedback::new(router, self.epoch, self.last_loss.min(0.999_999), self.last_fgs_loss)
    }

    /// The measurement interval `T`.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Current epoch `z`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Most recent signed total loss.
    pub fn loss(&self) -> f64 {
        self.last_loss
    }

    /// Most recent enhancement-layer loss.
    pub fn fgs_loss(&self) -> f64 {
        self.last_fgs_loss
    }
}

/// Source-side freshness filter (paper Section 5.2): accept a label only if
/// it is newer than the last one applied, so re-ordered or duplicated
/// feedback never drives the control loop twice. A label from a *different*
/// router (bottleneck shift, tracked via the router ID field) is always
/// accepted and resets the epoch horizon.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochFilter {
    last: Option<(AgentId, u64)>,
}

impl EpochFilter {
    /// Creates a filter that accepts the first label it sees.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` (and advances the horizon) iff `fb` is fresh.
    pub fn accept(&mut self, fb: &Feedback) -> bool {
        match self.last {
            Some((router, z)) if router == fb.router => {
                if fb.epoch > z {
                    self.last = Some((router, fb.epoch));
                    true
                } else {
                    false
                }
            }
            _ => {
                self.last = Some((fb.router, fb.epoch));
                true
            }
        }
    }

    /// Forgets the horizon so the next label is accepted unconditionally.
    ///
    /// For when the staleness watchdog fires on a sender whose labels
    /// cannot be old ([`FlowControl::reanchor`](crate::flow::FlowControl::reanchor)):
    /// if no feedback has been fresh for a full timeout, the horizon itself
    /// is suspect — a corrupted label may have jumped it past every genuine
    /// epoch, or the router may have restarted with its epoch counter
    /// reset. Either way the filter must re-anchor or the control loop
    /// stays deaf forever.
    pub fn reset(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> FeedbackEstimator {
        // 40 ms interval: 1 Mb/s = exactly ten 500-byte packets.
        FeedbackEstimator::new(Rate::from_mbps(2.0), SimDuration::from_millis(40))
    }

    #[test]
    fn idle_interval_reports_spare_capacity() {
        let mut e = est();
        let fb = e.tick(AgentId(1));
        assert!(fb.loss < -1.0, "idle loss should be very negative");
        assert_eq!(fb.fgs_loss, 0.0);
    }

    #[test]
    fn underload_is_negative_overload_is_positive() {
        let mut e = est();
        // 1 Mb/s arrival on 2 Mb/s capacity: p = (1-2)/1 = -1.
        for _ in 0..10 {
            e.on_arrival(500, 1);
        }
        let fb = e.tick(AgentId(1));
        assert!((fb.loss + 1.0).abs() < 1e-9, "loss {}", fb.loss);

        // A 4 Mb/s window moves the smoothed rate by the EWMA weight:
        // R = 1 + 0.15 · (4 − 1) = 1.45 Mb/s, p = (1.45 − 2) / 1.45.
        for _ in 0..40 {
            e.on_arrival(500, 1);
        }
        let fb = e.tick(AgentId(1));
        let r = 1.0 + FEEDBACK_SMOOTHING * 3.0;
        assert!((fb.loss - (r - 2.0) / r).abs() < 1e-9, "loss {}", fb.loss);
    }

    #[test]
    fn fgs_loss_accounts_for_green_priority() {
        let mut e = est();
        // Green at 1 Mb/s, enhancement at 2 Mb/s, capacity 2 Mb/s:
        // enhancement gets 1 Mb/s -> fgs loss = 0.5; total loss = 1/3.
        for _ in 0..10 {
            e.on_arrival(500, 0);
        }
        for _ in 0..20 {
            e.on_arrival(500, 2);
        }
        let fb = e.tick(AgentId(1));
        assert!((fb.fgs_loss - 0.5).abs() < 1e-9, "fgs {}", fb.fgs_loss);
        assert!((fb.loss - 1.0 / 3.0).abs() < 1e-9, "loss {}", fb.loss);
    }

    #[test]
    fn green_overload_alone_saturates_fgs_loss() {
        let mut e = est();
        // Green 3 Mb/s > capacity, tiny enhancement: all enhancement lost.
        for _ in 0..30 {
            e.on_arrival(500, 0);
        }
        e.on_arrival(500, 1);
        let fb = e.tick(AgentId(1));
        assert_eq!(fb.fgs_loss, 1.0);
    }

    #[test]
    fn smoothing_damps_window_noise() {
        let mut e = est();
        // Alternating 1 Mb/s and 3 Mb/s windows (mean = capacity). Raw
        // windows would report p in {-1, +1/3}; the smoothed estimate
        // converges near 0.
        let mut last = 0.0;
        for k in 0..200 {
            let n = if k % 2 == 0 { 10 } else { 30 };
            for _ in 0..n {
                e.on_arrival(500, 1);
            }
            last = e.tick(AgentId(0)).loss;
        }
        assert!(last.abs() < 0.1, "smoothed loss {last}");
    }

    #[test]
    fn epochs_increment_and_counters_reset() {
        let mut e = est();
        e.on_arrival(500, 1);
        let fb1 = e.tick(AgentId(1));
        let fb2 = e.tick(AgentId(1));
        assert_eq!(fb1.epoch, 1);
        assert_eq!(fb2.epoch, 2);
        // Second interval was empty.
        assert!(fb2.loss < -1.0);
    }

    #[test]
    fn label_between_ticks_is_stable() {
        let mut e = est();
        e.on_arrival(500, 1);
        let t = e.tick(AgentId(3));
        let l = e.label(AgentId(3));
        assert_eq!(t, l);
    }

    #[test]
    fn epoch_filter_rejects_stale_and_duplicate() {
        let mut f = EpochFilter::new();
        let fb = |z: u64| Feedback::new(AgentId(1), z, 0.1, 0.1);
        assert!(f.accept(&fb(5)));
        assert!(!f.accept(&fb(5)), "duplicate epoch must be rejected");
        assert!(!f.accept(&fb(3)), "stale epoch must be rejected");
        assert!(f.accept(&fb(6)));
        assert_eq!(f.last, Some((AgentId(1), 6)));
    }

    #[test]
    fn epoch_filter_reset_reanchors_after_poisoned_horizon() {
        let mut f = EpochFilter::new();
        let fb = |z: u64| Feedback::new(AgentId(1), z, 0.1, 0.1);
        assert!(f.accept(&fb(7)));
        // A corrupted label from the same router jumps the horizon so far
        // forward that every genuine epoch is now "stale".
        assert!(f.accept(&fb(u64::MAX)));
        assert!(!f.accept(&fb(8)), "poisoned horizon rejects real labels");
        f.reset();
        assert_eq!(f.last, None);
        assert!(f.accept(&fb(8)), "reset must re-anchor on the next label");
    }

    #[test]
    fn epoch_filter_accepts_bottleneck_shift() {
        let mut f = EpochFilter::new();
        assert!(f.accept(&Feedback::new(AgentId(1), 100, 0.1, 0.1)));
        // A different router with a *smaller* epoch is still fresh: epochs
        // are router-local.
        assert!(f.accept(&Feedback::new(AgentId(2), 3, 0.2, 0.2)));
        assert!(!f.accept(&Feedback::new(AgentId(2), 3, 0.2, 0.2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Each epoch of one router is applied at most once, in order, no
        /// matter how labels are duplicated or reordered in flight.
        #[test]
        fn at_most_once_semantics(epochs in proptest::collection::vec(0u64..50, 1..300)) {
            let mut f = EpochFilter::new();
            let mut applied = Vec::new();
            for z in epochs {
                if f.accept(&Feedback::new(AgentId(9), z, 0.0, 0.0)) {
                    applied.push(z);
                }
            }
            // Strictly increasing => no epoch applied twice.
            prop_assert!(applied.windows(2).all(|w| w[0] < w[1]));
        }

        /// The estimator's total loss is always < 1 and equals the
        /// closed-form (R-C)/R for any arrival pattern.
        #[test]
        fn loss_matches_closed_form(packets in proptest::collection::vec((100u32..1500, 0u8..3), 0..500)) {
            let mut e = FeedbackEstimator::new(Rate::from_mbps(2.0), SimDuration::from_millis(30));
            let mut total = 0u64;
            for &(bytes, class) in &packets {
                e.on_arrival(bytes, class);
                total += bytes as u64;
            }
            let fb = e.tick(AgentId(0));
            prop_assert!(fb.loss < 1.0);
            let r = total as f64 * 8.0 / 0.03;
            if r > 0.0 {
                let expect = ((r - 2_000_000.0) / r).max(-100.0);
                prop_assert!((fb.loss - expect).abs() < 1e-9);
            }
        }
    }
}
