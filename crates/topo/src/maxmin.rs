//! The multi-bottleneck MKC stationary-rate reference.
//!
//! The router feedback is the *relative* overload `p = (R − C)/R` (Eq. 11)
//! and MKC holds `r ← r + α − β·p·r`, so a flow bound at price `p` settles
//! at `r* = α/(β·p)` — every flow sharing a binding bottleneck gets the
//! same rate. For one bottleneck with `m` such flows and `F` bits/s of
//! fixed transit (flows bound elsewhere, plus steady PELS-class CBR), the
//! fixed point solves
//!
//! ```text
//! (F + m·x − C) / (F + m·x) = (α/β) / x
//! ⇒  m·x² + (F − C − m·α/β)·x − (α/β)·F = 0
//! ```
//!
//! whose positive root at `F = 0` is Lemma 6's `x = C/m + α/β`. Packets
//! carry the *maximum* loss stamped along their path, so a flow is governed
//! by its highest-price bottleneck; [`predict`] therefore water-fills in
//! price order: repeatedly solve every bottleneck's fixed point over its
//! unbound flows and fix the globally lowest-rate (highest-price) one.

use crate::model::{Bottleneck, TopoModel, TrafficKind};
use pels_core::mkc::{MkcConfig, MIN_RATE};
use pels_netsim::time::SimDuration;

/// The stationary-rate fixed point for one generated scenario.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted stationary rate per video flow (video-pair order), kb/s;
    /// `None` for flows inactive at the horizon (departed or not yet
    /// arrived).
    pub flow_kbps: Vec<Option<f64>>,
    /// Index (into the scenario's bottleneck table) where each active flow
    /// is bound — its highest-price bottleneck.
    pub bound_at: Vec<Option<usize>>,
    /// The MKC offset `α/β`, kb/s (the single-bottleneck per-flow margin).
    pub offset_kbps: f64,
}

/// Whether video flow `v` (video-pair order) is still active at `horizon`.
pub fn active_at(model: &TopoModel, v: usize, horizon: SimDuration) -> bool {
    let pi = model.video_pairs()[v];
    match model.pairs[pi].kind {
        TrafficKind::Video { start, stop, .. } => {
            start < horizon && stop.is_none_or(|s| s >= horizon)
        }
        _ => unreachable!("video_pairs returns video kinds"),
    }
}

/// The positive root of the bottleneck fixed point: `m` unbound flows at
/// rate `x` each, over capacity `c` with fixed transit `f` (all bits/s).
fn bottleneck_rate(m: f64, c: f64, f: f64, offset: f64) -> f64 {
    let b = f - c - m * offset;
    ((-b + (b * b + 4.0 * m * offset * f).sqrt()) / (2.0 * m)).max(0.0)
}

/// Computes the stationary fixed point at `horizon` (the end of the run:
/// departed flows release their capacity, late waves hold theirs).
///
/// Iteratively: every bottleneck's candidate rate is its fixed point over
/// its unbound active flows given already-bound transit; the globally
/// lowest candidate binds its flows; repeat. Final rates are clamped to the
/// controller's `[MIN_RATE, max_rate]`.
pub fn predict(
    model: &TopoModel,
    bottlenecks: &[Bottleneck],
    horizon: SimDuration,
    cc: &MkcConfig,
) -> Prediction {
    let n_video = model.video_pairs().len();
    let active: Vec<bool> = (0..n_video).map(|v| active_at(model, v, horizon)).collect();
    let offset_bps = cc.alpha_bps / cc.beta;

    // rate[v] = Some(stationary rate, bits/s) once bound.
    let mut rate: Vec<Option<f64>> = vec![None; n_video];
    let mut bound_at: Vec<Option<usize>> = vec![None; n_video];
    loop {
        // (candidate rate, bottleneck index, its unbound active flows)
        let mut best: Option<(f64, usize, Vec<usize>)> = None;
        for (bi, bn) in bottlenecks.iter().enumerate() {
            let unbound: Vec<usize> = bn
                .video_flows
                .iter()
                .copied()
                .filter(|&v| active[v] && rate[v].is_none())
                .collect();
            if unbound.is_empty() {
                continue;
            }
            let transit: f64 =
                bn.video_flows.iter().filter(|&&v| active[v]).filter_map(|&v| rate[v]).sum::<f64>()
                    + bn.cbr_load_bps;
            let x = bottleneck_rate(
                unbound.len() as f64,
                bn.pels_capacity.as_bps() as f64,
                transit,
                offset_bps,
            );
            if best.as_ref().is_none_or(|(r, _, _)| x < *r) {
                best = Some((x, bi, unbound));
            }
        }
        let Some((x, bi, unbound)) = best else { break };
        for v in unbound {
            rate[v] = Some(x);
            bound_at[v] = Some(bi);
        }
    }

    let min_bps = MIN_RATE.as_bps() as f64;
    let max_bps = cc.max_rate.as_bps() as f64;
    let flow_kbps = (0..n_video)
        .map(|v| {
            if !active[v] {
                return None;
            }
            // A video flow always crosses a designated egress (validated),
            // so an active flow is always bound.
            Some(rate[v].unwrap_or(0.0).clamp(min_bps, max_bps) / 1e3)
        })
        .collect();
    Prediction { flow_kbps, bound_at, offset_kbps: offset_bps / 1e3 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopoSpec;

    #[test]
    fn single_bottleneck_matches_lemma6() {
        // One parking-lot segment, no cross traffic: r* = C/N + α/β.
        let mut spec = TopoSpec::from_shorthand("parkinglot:segments=1,cross=0,flows=4").unwrap();
        spec.tcp_per_path = Some(0);
        let model = crate::gen::generate(&spec).unwrap();
        let bns = crate::model::bottlenecks(&model, &spec);
        assert_eq!(bns.len(), 1);
        let cc = MkcConfig::default();
        let p = predict(&model, &bns, SimDuration::from_secs(30), &cc);
        let expected = bns[0].pels_capacity.as_kbps() / 4.0 + 40.0;
        for r in &p.flow_kbps {
            let r = r.expect("all flows active");
            assert!((r - expected).abs() < 1e-6, "{r} vs {expected}");
        }
    }

    #[test]
    fn transit_bottleneck_solves_the_quadratic() {
        // 2 segments, 1 cross flow each, 3 long flows, default 400 kb/s
        // budget: the long flows bind at segment 1 (factor 0.8,
        // C = 1280 kb/s shared by 4) at 360 kb/s; segment 0 (C = 1600 kb/s)
        // then carries 1080 kb/s of bound transit, and its cross flow
        // settles at the positive root of x² − 560x − 43200 = 0 ≈ 628.7 —
        // NOT the linear leftover 680, because the feedback price is
        // relative to arrival rate.
        let mut spec = TopoSpec::from_shorthand("parkinglot:segments=2,cross=1,flows=3").unwrap();
        spec.tcp_per_path = Some(0);
        let model = crate::gen::generate(&spec).unwrap();
        let bns = crate::model::bottlenecks(&model, &spec);
        let cc = MkcConfig::default();
        let p = predict(&model, &bns, SimDuration::from_secs(30), &cc);
        let long = p.flow_kbps[0].unwrap();
        assert!((long - 360.0).abs() < 1e-6, "long flows at Lemma 6: {long}");
        let cross0 = p.flow_kbps[3].unwrap();
        let root = (560.0 + (560.0f64 * 560.0 + 4.0 * 43200.0).sqrt()) / 2.0;
        assert!((cross0 - root).abs() < 1e-6, "cross {cross0} vs root {root}");
        assert!(cross0 > long, "leftover capacity yields a higher rate");
    }

    #[test]
    fn departed_flows_release_capacity() {
        let mut spec = TopoSpec::from_shorthand("parkinglot:segments=1,cross=0,flows=4").unwrap();
        spec.tcp_per_path = Some(0);
        spec.flash_crowd = Some(crate::spec::FlashCrowdSpec {
            waves: 1,
            wave_gap_s: None,
            depart_fraction: Some(0.5),
            depart_at_s: Some(10.0),
        });
        let model = crate::gen::generate(&spec).unwrap();
        let bns = crate::model::bottlenecks(&model, &spec);
        let cc = MkcConfig::default();
        let p = predict(&model, &bns, SimDuration::from_secs(30), &cc);
        assert!(p.flow_kbps[3].is_none(), "departed flow has no stationary rate");
        let survivor = p.flow_kbps[0].unwrap();
        // Capacity was sized for 4 flows; 2 survivors split it.
        let expected = bns[0].pels_capacity.as_kbps() / 2.0 + 40.0;
        assert!((survivor - expected).abs() < 1e-6, "{survivor} vs {expected}");
    }
}
