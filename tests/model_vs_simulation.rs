//! Cross-validation of the analytical models (pels-analysis) against the
//! packet-level machinery (pels-netsim + pels-fgs): every closed form in
//! Section 3 must agree with what the simulator's components actually do.

use pels_analysis::lossmodel::{BernoulliChannel, BurstStats};
use pels_analysis::montecarlo::simulate_useful_fixed;
use pels_analysis::useful::{best_effort_utility, expected_useful_fixed};
use pels_fgs::decoder::{FrameReception, UtilityStats};
use pels_fgs::packetize::packetize;
use pels_fgs::scaling::ScaledFrame;
use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit};
use pels_netsim::event::PacketSlot;
use pels_netsim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// A FIFO discipline that drops arriving packets of class `>= protect_below`
/// uniformly at random with a settable probability: the Bernoulli loss model
/// of Section 3 (uniform random loss in the FGS enhancement layer with a
/// "magically" protected base layer) as a netsim [`Discipline`], the oracle
/// the tests below hold the closed forms and the channel model against.
#[derive(Debug)]
struct UniformLoss {
    inner: DropTail,
    /// Classes strictly below this value are never randomly dropped.
    protect_below: u8,
    drop_prob: f64,
    rng: StdRng,
    /// Random drops performed so far.
    random_drops: u64,
}

impl UniformLoss {
    /// Creates a uniform-loss FIFO protecting classes `< protect_below`.
    fn new(limit: QueueLimit, protect_below: u8, seed: u64) -> Self {
        UniformLoss {
            inner: DropTail::new(limit),
            protect_below,
            drop_prob: 0.0,
            rng: StdRng::seed_from_u64(seed),
            random_drops: 0,
        }
    }

    /// Sets the current random drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or not finite.
    fn set_drop_prob(&mut self, p: f64) {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "invalid probability: {p}");
        self.drop_prob = p;
    }
}

impl Discipline for UniformLoss {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn enqueue(&mut self, entry: QEntry, now: SimTime, dropped: &mut Vec<QEntry>) {
        if entry.class >= self.protect_below
            && self.drop_prob > 0.0
            && self.rng.gen::<f64>() < self.drop_prob
        {
            self.random_drops += 1;
            dropped.push(entry);
            return;
        }
        self.inner.enqueue(entry, now, dropped);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QEntry> {
        self.inner.dequeue(now)
    }

    fn peek_size(&self) -> Option<u32> {
        self.inner.peek_size()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

/// A queue entry: the slot is the packet's identity (the arena is not
/// involved: slots are opaque to disciplines).
fn ent(seq: u32, class: u8, size: u32) -> QEntry {
    QEntry::new(PacketSlot(seq), size, class)
}

/// Streams `frames` frames of `h` enhancement packets through a Bernoulli
/// channel and decodes with the real FGS decoder.
fn decode_through_channel(p: f64, h: u32, frames: u64, seed: u64) -> UtilityStats {
    let mut channel = BernoulliChannel::new(p, seed);
    let mut stats = UtilityStats::new();
    let frame = ScaledFrame { base_bytes: 500, enhancement_bytes: h * 500 };
    let plan = packetize(&frame, h * 500, 0, 500);
    for f in 0..frames {
        let mut rx = FrameReception::from_plan(&plan);
        rx.mark_received(0); // base protected, as in the paper's comparator
        for pkt in plan.iter().skip(1) {
            if !channel.is_lost() {
                rx.mark_received(pkt.index);
            }
        }
        stats.add(&rx.decode(f));
    }
    stats
}

#[test]
fn fgs_decoder_reproduces_eq2_exactly() {
    // Table 1 regenerated through the *decoder* rather than the ad-hoc
    // Monte Carlo: same closed form, independent code path.
    for (p, expect) in [(0.01, 62.76), (0.1, 8.99)] {
        let stats = decode_through_channel(p, 100, 40_000, 11);
        let measured = stats.mean_useful_per_frame();
        assert!(
            (measured - expect).abs() < 0.5,
            "p={p}: decoder gives {measured}, Eq. 2 gives {expect}"
        );
    }
}

#[test]
fn fgs_decoder_reproduces_eq3_utility() {
    let stats = decode_through_channel(0.1, 100, 40_000, 13);
    let expect = best_effort_utility(0.1, 100);
    assert!(
        (stats.utility() - expect).abs() < 0.01,
        "utility {} vs Eq. 3 {expect}",
        stats.utility()
    );
}

#[test]
fn montecarlo_and_decoder_agree() {
    let mc = simulate_useful_fixed(0.05, 80, 30_000, 17);
    let dec = decode_through_channel(0.05, 80, 30_000, 17);
    assert!(
        (mc.mean - dec.mean_useful_per_frame()).abs() < 0.3,
        "two independent estimators: {} vs {}",
        mc.mean,
        dec.mean_useful_per_frame()
    );
}

#[test]
fn uniform_loss_discipline_is_a_bernoulli_channel() {
    // The UniformLoss discipline must produce geometric bursts —
    // the Section 3 assumption the best-effort comparator relies on.
    let mut q = UniformLoss::new(QueueLimit::Packets(1_000_000), 0, 23);
    q.set_drop_prob(0.2);
    let mut dropped = Vec::new();
    let mut lost_flags = Vec::with_capacity(100_000);
    for seq in 0..100_000u32 {
        let before = dropped.len();
        q.enqueue(ent(seq, 1, 500), SimTime::ZERO, &mut dropped);
        lost_flags.push(dropped.len() > before);
    }
    let bursts = BurstStats::from_sequence(lost_flags.iter().copied());
    // Geometric with ratio p: mean burst = 1/(1-p) = 1.25.
    assert!((bursts.mean() - 1.25).abs() < 0.02, "burst mean {}", bursts.mean());
    assert!((bursts.geometric_ratio() - 0.2).abs() < 0.02);
    let loss = lost_flags.iter().filter(|&&l| l).count() as f64 / lost_flags.len() as f64;
    assert!((loss - 0.2).abs() < 0.01);
}

#[test]
fn uniform_loss_protects_low_classes() {
    let mut q = UniformLoss::new(QueueLimit::Packets(100_000), 1, 3);
    q.set_drop_prob(1.0);
    let mut d = Vec::new();
    for i in 0..100u32 {
        q.enqueue(ent(2 * i, 0, 500), SimTime::ZERO, &mut d); // protected
        q.enqueue(ent(2 * i + 1, 1, 500), SimTime::ZERO, &mut d); // always dropped
    }
    assert_eq!(q.len_packets(), 100);
    assert_eq!(d.len(), 100);
    assert_eq!(q.random_drops, 100);
    assert!(d.iter().all(|e| e.class == 1));
}

#[test]
fn uniform_loss_rate_is_approximately_p() {
    let mut q = UniformLoss::new(QueueLimit::Packets(1_000_000), 1, 11);
    q.set_drop_prob(0.1);
    let mut d = Vec::new();
    let n = 20_000u32;
    for i in 0..n {
        q.enqueue(ent(i, 1, 500), SimTime::ZERO, &mut d);
    }
    let rate = d.len() as f64 / n as f64;
    assert!((rate - 0.1).abs() < 0.01, "measured {rate}");
}

#[test]
#[should_panic(expected = "invalid probability")]
fn uniform_loss_rejects_bad_probability() {
    let mut q = UniformLoss::new(QueueLimit::Packets(10), 1, 0);
    q.set_drop_prob(1.5);
}

#[test]
fn lemma1_general_pmf_matches_variable_size_traces() {
    // Eq. (1) with an arbitrary frame-size PMF, validated against the real
    // decoder fed a synthetic variable-size trace through a Bernoulli
    // channel (the paper only simulates the constant-size special case).
    use pels_analysis::useful::expected_useful_general;
    use pels_fgs::trace_gen::{generate, TraceGenConfig};

    let p = 0.1;
    let cfg = TraceGenConfig {
        n_frames: 12_000,
        mean_enhancement_bytes: 20_000, // 40 packets mean
        cv: 0.3,
        smoothness: 0.0, // i.i.d. sizes, as Lemma 1 assumes
        base_bytes: 500,
        ..Default::default()
    };
    let trace = generate(&cfg, 5);

    // Empirical PMF of enhancement-packet counts.
    let counts: Vec<u32> = trace.iter().map(|f| f.enhancement_bytes.div_ceil(500)).collect();
    let max_h = *counts.iter().max().unwrap() as usize;
    let mut pmf = vec![0.0; max_h];
    for &h in &counts {
        pmf[h as usize - 1] += 1.0 / counts.len() as f64;
    }
    let model = expected_useful_general(p, &pmf);

    // Decode every frame through a Bernoulli channel.
    let mut channel = BernoulliChannel::new(p, 9);
    let mut stats = UtilityStats::new();
    for spec in trace.iter() {
        let frame = ScaledFrame { base_bytes: 500, enhancement_bytes: spec.enhancement_bytes };
        let plan = packetize(&frame, spec.enhancement_bytes, 0, 500);
        let mut rx = FrameReception::from_plan(&plan);
        rx.mark_received(0);
        for pkt in plan.iter().skip(1) {
            if !channel.is_lost() {
                rx.mark_received(pkt.index);
            }
        }
        stats.add(&rx.decode(spec.index));
    }
    let measured = stats.mean_useful_per_frame();
    assert!(
        (measured - model).abs() < 0.25,
        "Lemma 1 general: decoder {measured:.3} vs Eq. 1 {model:.3}"
    );
}

#[test]
fn saturation_effect_matches_model_at_large_h() {
    // Section 3.1: as H grows, E[Y] saturates at (1-p)/p while the loss
    // keeps shredding everything above the first gap.
    let small = decode_through_channel(0.1, 20, 20_000, 29);
    let large = decode_through_channel(0.1, 500, 4_000, 31);
    assert!(
        (large.mean_useful_per_frame() - 9.0).abs() < 0.5,
        "E[Y] saturates at 9: {}",
        large.mean_useful_per_frame()
    );
    assert!(
        small.utility() > 4.0 * large.utility(),
        "utility decays ~1/H: {} vs {}",
        small.utility(),
        large.utility()
    );
    assert!((small.mean_useful_per_frame() - expected_useful_fixed(0.1, 20)).abs() < 0.2);
}
