//! # pels-core — Partitioned Enhancement Layer Streaming
//!
//! The primary contribution of *"Multi-layer Active Queue Management and
//! Congestion Control for Scalable Video Streaming"* (Kang, Zhang, Dai,
//! Loguinov — ICDCS 2004), implemented end to end:
//!
//! * [`color`] — the green/yellow/red marking scheme (Section 4).
//! * [`gamma`] — the γ partition controller (Eq. 4–5, Lemmas 2–4).
//! * [`mkc`] — Max-min Kelly congestion control (Eq. 8, Lemmas 5–6).
//! * [`feedback`] — router feedback `p = (R−C)/R` with epochs (Eq. 11) and
//!   the source-side freshness filter (Section 5.2).
//! * [`router`] — the PELS AQM router (WRR + strict priority, Fig. 4) and
//!   the uniform-loss best-effort comparator (Section 6.5).
//! * [`flow`] — the sender control core both stacks run: Eq. 4, Eq. 8, the
//!   epoch filter, the stale-feedback watchdog, frame planning (rate
//!   scaling, partitioning) and the frame being sent, held as its three
//!   segment byte counts and a cursor that cuts each packet when it is sent.
//! * [`source`] / [`receiver`] — streaming endpoints: the timers, pacing,
//!   ARQ and degradation policy around [`flow`]; the receiver core both
//!   stacks record through ([`receiver::Reception`]: prefix decoding, NACK
//!   scheduling, delay and utility measurement).
//! * [`network`] — the network model (routers, links, hosts, traffic
//!   pairs) and the one builder that turns models into agents, routes and
//!   the partition graph; [`scenario`] — the dumbbell evaluation topology
//!   (Fig. 6) as such a model, with TCP cross traffic on the sharded engine,
//!   plus serializable run reports; [`roles`] — agent ids by role and the
//!   summaries read off them.
//! * [`chaos`] — scripted fault scenarios (link failures, feedback loss,
//!   router flushes) and the one recovery checker both stacks' matrices
//!   run: their config, invariants and loop.
//!
//! ## Example: PELS keeps utility ≈ 1 where best-effort collapses
//!
//! ```no_run
//! use pels_core::scenario::{pels_flows, to_best_effort, Scenario, ScenarioConfig};
//! use pels_netsim::time::SimTime;
//!
//! let cfg = ScenarioConfig { flows: pels_flows(&[0.0; 4]), ..Default::default() };
//! let mut pels = Scenario::build(cfg.clone());
//! let mut be = Scenario::build(to_best_effort(cfg));
//! pels.run_until(SimTime::from_secs_f64(40.0));
//! be.run_until(SimTime::from_secs_f64(40.0));
//! assert!(pels.total_utility().utility() > be.total_utility().utility());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aimd;
pub mod chaos;
pub mod color;
pub mod feedback;
pub mod flow;
pub mod gamma;
pub mod mkc;
pub mod network;
pub mod parallel;
pub mod receiver;
pub mod roles;
pub mod router;
pub mod scenario;
pub mod source;
pub mod sweep;
pub mod tcm;
pub mod tfrc;

pub use aimd::AimdController;
pub use color::Color;
pub use feedback::{EpochFilter, FeedbackEstimator};
pub use flow::{FlowControl, Planned};
pub use gamma::{GammaConfig, GammaController};
pub use mkc::{MkcConfig, MkcController};
pub use parallel::ParallelScenario;
pub use pels_netsim::SimError;
pub use receiver::{NackConfig, PelsReceiver};
pub use roles::RoleIds;
pub use router::{AqmConfig, AqmRouter, QueueMode};
pub use scenario::{FlowSpec, Scenario, ScenarioConfig, ScenarioReport};
pub use source::{ArqConfig, CcSpec, PelsSource, SourceConfig, SourceMode};
pub use tcm::{SrTcm, TcmConfig};
pub use tfrc::TfrcController;
