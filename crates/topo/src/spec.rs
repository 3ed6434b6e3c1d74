//! The declarative topology specification.
//!
//! A [`TopoSpec`] is the JSON surface of the subsystem: generator family and
//! shape, seed, flow count, cross-traffic composition. Optional knobs are
//! `Option<_>` with accessor methods supplying defaults, so hand-written
//! spec files can stay minimal. The same spec is also expressible as a CLI
//! shorthand, e.g. `fattree:k=4,flows=16` or
//! `waxman:routers=24,flows=16,seed=7` (see [`TopoSpec::from_shorthand`]).

use crate::gen::{CBR_FLOW_BASE, TCP_FLOW_BASE};
use pels_core::router::AqmConfig;
use pels_core::SimError;
use pels_netsim::error::invalid_config;
use serde::{Deserialize, Serialize};

/// The fastest Poisson burst, kb/s: 10 Gb/s, 2,500 times the paper's
/// bottleneck. Past it a burst costs the engine more than a second of wall
/// clock per simulated second, and a rate near `f64::MAX` never finishes.
pub const MAX_CBR_KBPS: f64 = 1e7;

/// Which generator family builds the topology, and its shape parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GeneratorSpec {
    /// A parking-lot chain: `segments` AQM routers in tandem, long flows
    /// crossing every segment plus per-segment cross flows.
    ParkingLot {
        /// Number of tandem AQM segments.
        segments: usize,
        /// Cross video flows entering and leaving at each segment
        /// (default 2).
        cross_per_segment: Option<usize>,
    },
    /// A k-ary fat-tree (k even, ≥ 4): `(k/2)²` cores, `k` pods of `k/2`
    /// aggregation and `k/2` edge switches; flows cross pods through
    /// designated edge→agg→core uplinks.
    FatTree {
        /// Switch arity (even, ≥ 4). Supports up to `k³/8` flows.
        k: usize,
    },
    /// An ISP-like Waxman random graph: routers at seeded plane positions,
    /// edge probability `alpha·exp(−d/(beta·√2))` over a random spanning
    /// tree, heterogeneous link speeds/delays/buffers.
    Waxman {
        /// Number of routers.
        routers: usize,
        /// Waxman `α` (overall edge density; default 0.4).
        alpha: Option<f64>,
        /// Waxman `β` (long-edge likelihood; default 0.14).
        beta: Option<f64>,
    },
}

/// A Poisson CBR burst schedule: `bursts` sources of PELS-class (yellow)
/// background traffic aimed at designated bottleneck links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoissonSpec {
    /// Mean rate per burst source, kb/s.
    pub rate_kbps: f64,
    /// Burst start, seconds (default 0).
    pub start_s: Option<f64>,
    /// Burst stop, seconds (`None` = steady background, which the max-min
    /// prediction then accounts for).
    pub stop_s: Option<f64>,
    /// Number of burst sources, round-robin over bottlenecks (default 1).
    pub bursts: Option<usize>,
}

/// A flash-crowd schedule: video flows arrive in waves and a fraction
/// departs mid-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashCrowdSpec {
    /// Number of arrival waves (≥ 1).
    pub waves: usize,
    /// Gap between wave starts, seconds (default 5).
    pub wave_gap_s: Option<f64>,
    /// Fraction of flows (the highest-numbered) departing mid-run
    /// (default 0).
    pub depart_fraction: Option<f64>,
    /// When the departing flows stop, seconds (default 60).
    pub depart_at_s: Option<f64>,
}

/// The full topology + traffic specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoSpec {
    /// Simulator and generator seed (default 1).
    pub seed: Option<u64>,
    /// Generator family and shape.
    pub generator: GeneratorSpec,
    /// Number of PELS video flows (default 8).
    pub flows: Option<usize>,
    /// Per-flow PELS-share budget used to size designated links, kb/s
    /// (default 400, matching the proportional dumbbell configs).
    pub per_flow_kbps: Option<f64>,
    /// TCP Reno herd size per distinct bottleneck path (default 1;
    /// 0 disables cross TCP).
    pub tcp_per_path: Option<usize>,
    /// Optional Poisson CBR burst schedule.
    pub poisson: Option<PoissonSpec>,
    /// Optional flash-crowd arrival/departure schedule.
    pub flash_crowd: Option<FlashCrowdSpec>,
    /// AQM configuration of every bottleneck router (default
    /// [`AqmConfig::default`]).
    pub aqm: Option<AqmConfig>,
    /// Retain per-step time series (default false; expensive at scale).
    pub keep_series: Option<bool>,
}

impl TopoSpec {
    /// A spec with every optional knob unset.
    pub fn new(generator: GeneratorSpec) -> Self {
        TopoSpec {
            seed: None,
            generator,
            flows: None,
            per_flow_kbps: None,
            tcp_per_path: None,
            poisson: None,
            flash_crowd: None,
            aqm: None,
            keep_series: None,
        }
    }

    /// The generator/simulator seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    /// Number of video flows.
    pub fn flows(&self) -> usize {
        self.flows.unwrap_or(8)
    }

    /// Per-flow PELS-share budget, kb/s.
    pub fn per_flow_kbps(&self) -> f64 {
        self.per_flow_kbps.unwrap_or(400.0)
    }

    /// TCP herd size per distinct bottleneck path.
    pub fn tcp_per_path(&self) -> usize {
        self.tcp_per_path.unwrap_or(1)
    }

    /// The AQM configuration.
    pub fn aqm(&self) -> AqmConfig {
        self.aqm.unwrap_or_default()
    }

    /// Whether to retain per-step time series.
    pub fn keep_series(&self) -> bool {
        self.keep_series.unwrap_or(false)
    }

    /// Parses a JSON spec document.
    pub fn from_json(json: &str) -> Result<Self, SimError> {
        let spec: Self = serde_json::from_str(json)
            .map_err(|e| invalid_config(format!("bad topo spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Rejects what the generator cannot run: a per-flow budget that is not
    /// finite and positive (it sizes every designated link), and flow counts
    /// whose ids would collide. Video flows are numbered from 0, TCP flows
    /// from `TCP_FLOW_BASE` and CBR flows from `CBR_FLOW_BASE`; with at
    /// most one herd per video flow, `flows × tcp` bounds the TCP flows, and
    /// Poisson bursts count up to the video bound. It also rejects what the
    /// generator once clamped, hung or crashed on: a burst rate that is not
    /// in `(0,` [`MAX_CBR_KBPS`]`]`, no burst or no wave, a departing fraction
    /// outside `[0, 1]`, and a time that is negative or not finite.
    pub fn validate(&self) -> Result<(), SimError> {
        let budget = self.per_flow_kbps();
        if !(budget.is_finite() && budget > 0.0) {
            return Err(invalid_config(format!("per-flow budget must be positive, got {budget}")));
        }
        let tcp_ids = (CBR_FLOW_BASE - TCP_FLOW_BASE) as usize;
        if self.flows() >= TCP_FLOW_BASE as usize {
            return Err(invalid_config(format!(
                "{} video flows reach the TCP flow ids at {TCP_FLOW_BASE}",
                self.flows()
            )));
        }
        if self.flows().checked_mul(self.tcp_per_path()).is_none_or(|herds| herds > tcp_ids) {
            return Err(invalid_config(format!(
                "{} flows with {} TCP flows per path may need more than the {tcp_ids} TCP flow ids",
                self.flows(),
                self.tcp_per_path()
            )));
        }
        let (poisson, crowd) = (self.poisson.as_ref(), self.flash_crowd.as_ref());
        if poisson.is_some_and(|p| !(p.rate_kbps > 0.0 && p.rate_kbps <= MAX_CBR_KBPS)) {
            return Err(invalid_config(format!(
                "poisson rate_kbps must be in (0, {MAX_CBR_KBPS}]"
            )));
        }
        if poisson.is_some_and(|p| !(1..TCP_FLOW_BASE as usize).contains(&p.bursts.unwrap_or(1))) {
            return Err(invalid_config(format!("poisson bursts must be in 1..{TCP_FLOW_BASE}")));
        }
        if crowd.is_some_and(|c| c.waves == 0) {
            return Err(invalid_config("flash_crowd waves must be at least 1"));
        }
        if crowd.and_then(|c| c.depart_fraction).is_some_and(|f| !(0.0..=1.0).contains(&f)) {
            return Err(invalid_config("flash_crowd depart_fraction must be in [0, 1]"));
        }
        let seconds = [poisson.and_then(|p| p.start_s), poisson.and_then(|p| p.stop_s)]
            .into_iter()
            .chain([crowd.and_then(|c| c.wave_gap_s), crowd.and_then(|c| c.depart_at_s)]);
        match seconds.flatten().find(|s| !(s.is_finite() && *s >= 0.0)) {
            Some(s) => {
                Err(invalid_config(format!("times must be finite and non-negative, got {s}")))
            }
            None => Ok(()),
        }
    }

    /// Parses a CLI shorthand: `family:key=value,...`.
    ///
    /// Families: `parkinglot` (keys `segments`, `cross`), `fattree` (key
    /// `k`), `waxman`/`random` (keys `routers`, `alpha`, `beta`). Common
    /// keys for all families: `flows`, `seed`, `tcp`, `budget` (kb/s).
    ///
    /// # Examples
    ///
    /// ```
    /// use pels_topo::spec::TopoSpec;
    /// let spec = TopoSpec::from_shorthand("fattree:k=4,flows=16,seed=7").unwrap();
    /// assert_eq!(spec.flows(), 16);
    /// assert_eq!(spec.seed(), 7);
    /// ```
    pub fn from_shorthand(s: &str) -> Result<Self, SimError> {
        let (family, rest) = match s.split_once(':') {
            Some((f, r)) => (f, r),
            None => (s, ""),
        };
        let mut kv = std::collections::BTreeMap::new();
        for part in rest.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| invalid_config(format!("bad shorthand entry `{part}`")))?;
            kv.insert(k.trim().to_string(), v.trim().to_string());
        }
        let take_usize = |kv: &mut std::collections::BTreeMap<String, String>,
                          key: &str|
         -> Result<Option<usize>, SimError> {
            kv.remove(key)
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| invalid_config(format!("bad value for `{key}`: {v}")))
                })
                .transpose()
        };
        let take_f64 = |kv: &mut std::collections::BTreeMap<String, String>,
                        key: &str|
         -> Result<Option<f64>, SimError> {
            kv.remove(key)
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| invalid_config(format!("bad value for `{key}`: {v}")))
                })
                .transpose()
        };
        let generator = match family {
            "parkinglot" | "parking_lot" | "tandem" => GeneratorSpec::ParkingLot {
                segments: take_usize(&mut kv, "segments")?.unwrap_or(3),
                cross_per_segment: take_usize(&mut kv, "cross")?,
            },
            "fattree" | "fat_tree" => {
                GeneratorSpec::FatTree { k: take_usize(&mut kv, "k")?.unwrap_or(4) }
            }
            "waxman" | "random" => GeneratorSpec::Waxman {
                routers: take_usize(&mut kv, "routers")?.unwrap_or(16),
                alpha: take_f64(&mut kv, "alpha")?,
                beta: take_f64(&mut kv, "beta")?,
            },
            other => {
                return Err(invalid_config(format!(
                    "unknown topology family `{other}` (try parkinglot, fattree, waxman)"
                )))
            }
        };
        let mut spec = TopoSpec::new(generator);
        spec.flows = take_usize(&mut kv, "flows")?;
        spec.seed = take_usize(&mut kv, "seed")?.map(|v| v as u64);
        spec.tcp_per_path = take_usize(&mut kv, "tcp")?;
        spec.per_flow_kbps = take_f64(&mut kv, "budget")?;
        if let Some(k) = kv.keys().next() {
            return Err(invalid_config(format!("unknown shorthand key `{k}`")));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Whether `s` names a topo generator family this crate understands
    /// (used by the CLI to route `--topology` values).
    pub fn is_shorthand(s: &str) -> bool {
        let family = s.split(':').next().unwrap_or(s);
        matches!(
            family,
            "parkinglot" | "parking_lot" | "tandem" | "fattree" | "fat_tree" | "waxman" | "random"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthand_roundtrip() {
        let spec = TopoSpec::from_shorthand("waxman:routers=24,flows=12,alpha=0.5").unwrap();
        assert_eq!(spec.flows(), 12);
        match spec.generator {
            GeneratorSpec::Waxman { routers, alpha, beta } => {
                assert_eq!(routers, 24);
                assert_eq!(alpha, Some(0.5));
                assert_eq!(beta, None);
            }
            _ => panic!("wrong family"),
        }
    }

    #[test]
    fn a_budget_must_be_finite_and_positive() {
        for budget in ["nan", "inf", "0", "-1"] {
            let shorthand = format!("waxman:budget={budget}");
            assert!(TopoSpec::from_shorthand(&shorthand).is_err(), "{shorthand} accepted");
        }
        assert!(TopoSpec::from_json(r#"{"generator": {"FatTree": {"k": 4}}, "per_flow_kbps": 0}"#)
            .is_err());
        assert!(TopoSpec::from_shorthand("waxman:budget=0.5").is_ok());
    }

    #[test]
    fn video_flow_ids_stay_below_the_tcp_ids() {
        assert!(TopoSpec::from_shorthand("waxman:flows=1000001,tcp=1").is_err());
        assert!(TopoSpec::from_shorthand("waxman:flows=1000000,tcp=0").is_err());
        assert!(TopoSpec::from_shorthand("waxman:flows=999999,tcp=1").is_ok());
    }

    #[test]
    fn the_tcp_herds_fit_below_the_cbr_ids() {
        assert!(TopoSpec::from_shorthand("waxman:tcp=100000000").is_err());
        assert!(TopoSpec::from_shorthand(&format!("waxman:flows=2,tcp={}", usize::MAX)).is_err());
        let json = r#"{"generator": {"FatTree": {"k": 4}}, "flows": 1000, "tcp_per_path": 1001}"#;
        assert!(TopoSpec::from_json(json).is_err());
        assert!(TopoSpec::from_shorthand("waxman:flows=1000,tcp=1000").is_ok());
    }

    #[test]
    fn shorthand_rejects_unknown_keys() {
        assert!(TopoSpec::from_shorthand("fattree:k=4,bogus=1").is_err());
        assert!(TopoSpec::from_shorthand("mesh:k=4").is_err());
    }

    #[test]
    fn json_roundtrip_preserves_generator() {
        let spec = TopoSpec::from_shorthand("fattree:k=6,flows=20").unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back = TopoSpec::from_json(&json).unwrap();
        assert_eq!(back.flows(), 20);
        match back.generator {
            GeneratorSpec::FatTree { k } => assert_eq!(k, 6),
            _ => panic!("wrong family"),
        }
    }

    /// A three-segment parking lot with 4 flows and `extra` spliced in.
    fn parking_lot(extra: &str) -> Result<TopoSpec, SimError> {
        let json =
            format!(r#"{{"generator": {{"ParkingLot": {{"segments": 3}}}}, "flows": 4, {extra}}}"#);
        TopoSpec::from_json(&json)
    }

    #[test]
    fn a_negative_departure_time_is_rejected() {
        // Once: "invalid duration: -3" and exit 101.
        let crowd = r#""flash_crowd": {"waves": 2, "depart_fraction": 0.5, "depart_at_s": -3}"#;
        assert!(parking_lot(crowd).is_err());
        assert!(parking_lot(&crowd.replace("-3", "3")).is_ok());
    }

    #[test]
    fn a_burst_rate_past_the_ceiling_is_rejected() {
        // Once: a two-second run still busy after 30 s.
        assert!(parking_lot(r#""poisson": {"rate_kbps": 1e300}"#).is_err());
        assert!(parking_lot(r#""poisson": {"rate_kbps": 1e7}"#).is_ok());
    }

    #[test]
    fn a_trillion_bursts_are_rejected() {
        // Once: a two-second run still busy after 30 s.
        assert!(parking_lot(r#""poisson": {"rate_kbps": 100, "bursts": 1000000000000}"#).is_err());
        assert!(parking_lot(r#""poisson": {"rate_kbps": 100, "bursts": 0}"#).is_err());
        assert!(parking_lot(r#""poisson": {"rate_kbps": 100, "bursts": 999999}"#).is_ok());
    }

    #[test]
    fn values_the_generator_clamped_are_rejected() {
        for extra in [
            r#""flash_crowd": {"waves": 0}"#,
            r#""flash_crowd": {"waves": 2, "depart_fraction": 7}"#,
            r#""flash_crowd": {"waves": 2, "wave_gap_s": -1}"#,
            r#""poisson": {"rate_kbps": 100, "start_s": -1}"#,
            r#""poisson": {"rate_kbps": 100, "stop_s": -1}"#,
            r#""poisson": {"rate_kbps": -100}"#,
        ] {
            assert!(parking_lot(extra).is_err(), "{extra} accepted");
        }
        assert!(parking_lot(r#""flash_crowd": {"waves": 1, "depart_fraction": 1}"#).is_ok());
    }

    #[test]
    fn minimal_json_spec_uses_defaults() {
        let spec = TopoSpec::from_json(r#"{"generator": {"FatTree": {"k": 4}}}"#).unwrap();
        assert_eq!(spec.flows(), 8);
        assert_eq!(spec.seed(), 1);
        assert!((spec.per_flow_kbps() - 400.0).abs() < 1e-9);
    }
}
