//! Workspace umbrella crate: re-exports the PELS reproduction crates for examples and integration tests.
pub use pels_analysis as analysis;
pub use pels_core as pels;
pub use pels_fgs as fgs;
pub use pels_netsim as netsim;

use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_topo::model::{Host, RouterLink, TopoModel, TrafficKind, TrafficPair};

/// The two-AQM-hop chain of the paper's multi-router feedback rule
/// (Section 5.2, Eq. 12: each router overrides the stamped loss only with a
/// larger one, so sources follow the tighter hop):
///
/// ```text
///  srcs ── R0 ══ rate_a ══ R1 ══ rate_b ══ R2 ── receivers
///         (AQM)           (AQM)          (plain)
/// ```
///
/// `n_flows` video flows cross both hops over 2 ms, 10 Mb/s access links.
/// `background`, when given, is a yellow CBR of `(rate, start)` entering at
/// R1 and crossing only the second hop — enough to move the binding
/// bottleneck mid-run.
pub fn two_hop_chain(
    rate_a: Rate,
    rate_b: Rate,
    n_flows: usize,
    background: Option<(Rate, SimDuration)>,
) -> TopoModel {
    let delay = SimDuration::from_millis(2);
    let access = Rate::from_mbps(10.0);
    let hop = |a: usize, rate: Rate| RouterLink {
        rate_ab: rate,
        rate_ba: access,
        aqm_ab: true,
        ..RouterLink::plain(a, a + 1, delay)
    };
    let host = |router: usize| Host { router, rate: access, delay, queue: 400 };
    let mut hosts = Vec::new();
    let mut pairs = Vec::new();
    let mut pair = |kind: TrafficKind, path: Vec<usize>| {
        let (first, last) = (path[0], path[path.len() - 1]);
        hosts.extend([host(first), host(last)]);
        pairs.push(TrafficPair {
            kind,
            src_host: hosts.len() - 2,
            dst_host: hosts.len() - 1,
            path,
            ack_path: None,
        });
    };
    for flow in 0..n_flows as u32 {
        let video = TrafficKind::Video {
            flow,
            start: SimDuration::ZERO,
            stop: None,
            cc: Default::default(),
            gamma: Default::default(),
            mode: pels_core::SourceMode::Pels,
            arq: false,
        };
        pair(video, vec![0, 1, 2]);
    }
    if let Some((rate, start)) = background {
        let kind = TrafficKind::Cbr {
            flow: 9_999,
            rate,
            class: pels_core::Color::Yellow.class(),
            poisson: false,
            start,
            stop: SimTime::MAX,
        };
        pair(kind, vec![1, 2]);
    }
    TopoModel {
        family: "two_hop_chain".into(),
        n_routers: 3,
        links: vec![hop(0, rate_a), hop(1, rate_b)],
        hosts,
        pairs,
    }
}
