//! A single-rate three-color marker (srTCM, RFC 2697) — the DiffServ-style
//! *network-side* marking the paper's related work critiques (Section 2.1:
//! ingress routers "can arbitrarily remark" packets, and network-side
//! markers cannot see the video's frame structure).
//!
//! Two token buckets share a committed information rate: the committed
//! bucket (size CBS) colors conforming traffic green, the excess bucket
//! (size EBS) colors the next tier yellow, everything else is red. Coloring
//! depends only on arrival times and sizes — exactly why it cannot place
//! the green tokens on the packets the *decoder* needs.

use crate::color::Color;
use pels_netsim::time::{Rate, SimTime};
use serde::{Deserialize, Serialize};

/// Committed information rate: the aggregate base-layer bitrate of the
/// marking ablation's four flows (4 × 128 kb/s), the most favourable honest
/// setting for the marker.
pub const CIR: Rate = Rate::from_bps(512_000);
/// Committed burst size, bytes (green bucket).
pub const CBS: u32 = 8_000;
/// Excess burst size, bytes (yellow bucket).
pub const EBS: u32 = 64_000;

/// Ingress marking for the DiffServ comparison: an `AqmConfig`'s
/// `ingress_tcm: Some(TcmConfig {})` re-marks video at the router with a
/// [`SrTcm`]. The marker has no settings ([`CIR`], [`CBS`], [`EBS`]); the
/// struct keeps a config file's `"ingress_tcm": {…}` meaning on and `null`
/// off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcmConfig {}

/// The color-blind single-rate three-color marker, buckets full at first.
///
/// # Examples
///
/// ```
/// use pels_core::color::Color;
/// use pels_core::tcm::SrTcm;
/// use pels_netsim::time::SimTime;
///
/// let mut tcm = SrTcm::default();
/// // The first packets fit the committed burst: green.
/// assert_eq!(tcm.mark(500, SimTime::ZERO), Color::Green);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SrTcm {
    tc: f64,
    te: f64,
    last: SimTime,
    /// Packets marked per color (green, yellow, red).
    pub marked: [u64; 3],
}

impl Default for SrTcm {
    fn default() -> Self {
        SrTcm { tc: CBS as f64, te: EBS as f64, last: SimTime::ZERO, marked: [0; 3] }
    }
}

impl SrTcm {
    fn refill(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        let mut tokens = CIR.as_bps() as f64 / 8.0 * dt;
        let room_c = CBS as f64 - self.tc;
        let to_c = tokens.min(room_c);
        self.tc += to_c;
        tokens -= to_c;
        self.te = (self.te + tokens).min(EBS as f64);
    }

    /// Colors a packet of `bytes` arriving at `now` (RFC 2697, color-blind
    /// mode).
    pub fn mark(&mut self, bytes: u32, now: SimTime) -> Color {
        self.refill(now);
        let b = bytes as f64;
        let color = if self.tc >= b {
            self.tc -= b;
            Color::Green
        } else if self.te >= b {
            self.te -= b;
            Color::Yellow
        } else {
            Color::Red
        };
        self.marked[color.class() as usize] += 1;
        color
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_netsim::time::SimDuration;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A 500-byte packet's worth of committed tokens: 500 B at 64,000 B/s.
    const PACKET_AT_CIR_NS: u64 = 7_812_500;

    #[test]
    fn burst_progression_green_yellow_red() {
        // 8 kB committed + 64 kB excess, all at t=0: 16 green, 128 yellow,
        // then red.
        let mut tcm = SrTcm::default();
        let mut colors = Vec::new();
        for _ in 0..150 {
            colors.push(tcm.mark(500, SimTime::ZERO));
        }
        assert_eq!(colors.iter().filter(|&&c| c == Color::Green).count(), 16);
        assert_eq!(colors.iter().filter(|&&c| c == Color::Yellow).count(), 128);
        assert_eq!(colors.iter().filter(|&&c| c == Color::Red).count(), 6);
        assert_eq!(tcm.marked, [16, 128, 6]);
    }

    #[test]
    fn committed_rate_stays_green() {
        // 512 kb/s = 64,000 B/s = one 500-byte packet every 7.8125 ms.
        // Sending at exactly that pace keeps everything green.
        let mut tcm = SrTcm::default();
        for k in 0..100u64 {
            let t = SimTime::ZERO + SimDuration::from_nanos(k * PACKET_AT_CIR_NS);
            assert_eq!(tcm.mark(500, t), Color::Green, "packet {k}");
        }
    }

    #[test]
    fn double_rate_splits_green_yellow() {
        // Sending at 2x CIR: after the committed burst, the committed
        // bucket refills at CIR and passes every other packet green; the
        // excess bucket never refills, so the rest go yellow until EBS is
        // spent and red after.
        let mut tcm = SrTcm::default();
        let mut greens = 0u32;
        let n = 2_000u64;
        for k in 0..n {
            let t = SimTime::ZERO + SimDuration::from_nanos(k * PACKET_AT_CIR_NS / 2);
            if tcm.mark(500, t) == Color::Green {
                greens += 1;
            }
        }
        let frac = greens as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "green fraction {frac}");
        assert_eq!(tcm.marked[1], 128, "EBS / 500 B yellows");
    }

    #[test]
    fn idle_refills_buckets() {
        let mut tcm = SrTcm::default();
        for _ in 0..150 {
            tcm.mark(500, SimTime::ZERO); // drain everything
        }
        assert_eq!(tcm.mark(500, SimTime::ZERO), Color::Red);
        // After a long idle period both buckets are full again.
        assert_eq!(tcm.mark(500, at_ms(10_000)), Color::Green);
    }

    #[test]
    fn marking_ignores_content() {
        // The defining limitation: two identical arrival patterns get
        // identical colors regardless of what the packets carry.
        let mut a = SrTcm::default();
        let mut b = SrTcm::default();
        for k in 0..50u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(k);
            assert_eq!(a.mark(500, t), b.mark(500, t));
        }
    }
}
