//! Seeded topology generators and the cross-traffic composer.
//!
//! Three families, all deterministic in the spec seed:
//!
//! - **parking lot** — the classic multi-bottleneck tandem: long flows
//!   crossing every segment compete with per-segment cross flows, each
//!   segment a designated AQM egress with a different tightness factor;
//! - **fat tree** — a k-ary Clos: flows cross pods over designated
//!   edge→agg→core uplinks (the agg→core hop is the binding bottleneck at
//!   factor 0.9), ACKs return over undesignated sibling uplinks so feedback
//!   never queues behind video;
//! - **Waxman** — an ISP-like random graph: a random spanning tree plus
//!   distance-decayed extra edges, heterogeneous delays/queues/tightness,
//!   shortest-path routing, and greedy AQM designation that guarantees every
//!   video flow crosses at least one designated egress.
//!
//! On top of any family the composer adds TCP Reno herds (one herd per
//! distinct bottleneck path), Poisson CBR bursts aimed at bottlenecks, and
//! flash-crowd arrival/departure schedules. [`finalize`] then sizes every
//! link: designated egresses from the per-flow budget (times the link's
//! tightness factor, plus steady CBR), everything else overprovisioned from
//! the computed crossing load so only designated egresses bind.

use crate::model::{Host, RouterLink, TopoModel, TrafficKind, TrafficPair};
use crate::spec::{GeneratorSpec, TopoSpec};
use pels_core::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// The first TCP flow id: video flows are numbered from 0, below it.
pub(crate) const TCP_FLOW_BASE: u32 = 1_000_000;
/// The first CBR flow id, above every TCP flow
/// ([`crate::spec::TopoSpec::validate`] keeps the herds below it).
pub(crate) const CBR_FLOW_BASE: u32 = 2_000_000;

/// AQM tightness factors cycled over parking-lot segments.
const SEGMENT_FACTORS: [f64; 5] = [1.0, 0.8, 1.2, 0.9, 1.1];
/// Queue-limit tiers for Waxman links (packets).
const QUEUE_TIERS: [usize; 4] = [100, 150, 200, 300];
/// AQM tightness tiers for Waxman links.
const FACTOR_TIERS: [f64; 5] = [0.8, 0.9, 1.0, 1.1, 1.2];

/// A SplitMix64 stream: small, seedable, and good enough for topology
/// shaping (the simulator's own RNG streams are separate).
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Prng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gen_range(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Generates the full topology + traffic model for `spec`: base family,
/// then TCP herds, Poisson bursts, and capacity finalization. The result
/// passes [`crate::model::validate`].
pub fn generate(spec: &TopoSpec) -> Result<TopoModel, SimError> {
    if spec.flows() == 0 {
        return Err(invalid_config("a topo scenario needs at least one video flow"));
    }
    let mut model = match spec.generator {
        GeneratorSpec::ParkingLot { segments, cross_per_segment } => {
            parking_lot(segments, cross_per_segment.unwrap_or(2), spec)?
        }
        GeneratorSpec::FatTree { k } => fat_tree(k, spec)?,
        GeneratorSpec::Waxman { routers, alpha, beta } => {
            waxman(routers, alpha.unwrap_or(0.4), beta.unwrap_or(0.14), spec)?
        }
    };
    add_tcp_herds(&mut model, spec);
    add_poisson_bursts(&mut model, spec);
    finalize(&mut model, spec);
    crate::model::validate(&model)?;
    Ok(model)
}

/// Arrival/departure schedule for video flow `v` of `n`: starts staggered
/// across 0.1 s (avoiding phase-locked frame clocks), shifted by flash-crowd
/// wave, with the highest-numbered fraction departing mid-run.
fn video_schedule(spec: &TopoSpec, v: usize, n: usize) -> (SimDuration, Option<SimDuration>) {
    let mut start_s = 0.1 * v as f64 / n.max(1) as f64;
    let mut stop = None;
    if let Some(fc) = &spec.flash_crowd {
        let waves = fc.waves.max(1);
        start_s += (v * waves / n.max(1)) as f64 * fc.wave_gap_s.unwrap_or(5.0).max(0.0);
        let frac = fc.depart_fraction.unwrap_or(0.0).clamp(0.0, 1.0);
        let departing = (frac * n as f64).ceil() as usize;
        if departing > 0 && v + departing >= n {
            stop = Some(SimDuration::from_secs_f64(fc.depart_at_s.unwrap_or(60.0)));
        }
    }
    (SimDuration::from_secs_f64(start_s), stop)
}

fn add_host(model: &mut TopoModel, router: usize, delay: SimDuration) -> usize {
    model.hosts.push(Host { router, rate: Rate::ZERO, delay, queue: 400 });
    model.hosts.len() - 1
}

fn add_pair(
    model: &mut TopoModel,
    kind: TrafficKind,
    path: Vec<usize>,
    ack_path: Option<Vec<usize>>,
    host_delay: SimDuration,
) {
    let src_host = add_host(model, path[0], host_delay);
    let dst_host = add_host(model, *path.last().expect("non-empty path"), host_delay);
    model.pairs.push(TrafficPair { kind, src_host, dst_host, path, ack_path });
}

/// The parking lot: `segments` designated tandem hops with cycled tightness
/// factors; `spec.flows()` long flows cross them all, `cross` extra video
/// flows enter and leave at each segment.
fn parking_lot(segments: usize, cross: usize, spec: &TopoSpec) -> Result<TopoModel, SimError> {
    if segments == 0 {
        return Err(invalid_config("parking lot needs at least one segment"));
    }
    let mut model = TopoModel {
        family: "parkinglot".into(),
        n_routers: segments + 1,
        links: Vec::new(),
        hosts: Vec::new(),
        pairs: Vec::new(),
    };
    for i in 0..segments {
        let mut l = RouterLink::plain(i, i + 1, SimDuration::from_millis(5));
        l.aqm_ab = true;
        l.aqm_factor = SEGMENT_FACTORS[i % SEGMENT_FACTORS.len()];
        model.links.push(l);
    }
    let host_delay = SimDuration::from_millis(1);
    let long = spec.flows();
    let n_video = long + segments * cross;
    let mut flow = 0u32;
    for v in 0..long {
        let (start, stop) = video_schedule(spec, v, n_video);
        let path: Vec<usize> = (0..=segments).collect();
        add_pair(&mut model, TrafficKind::Video { flow, start, stop }, path, None, host_delay);
        flow += 1;
    }
    for seg in 0..segments {
        for _ in 0..cross {
            let (start, stop) = video_schedule(spec, flow as usize, n_video);
            add_pair(
                &mut model,
                TrafficKind::Video { flow, start, stop },
                vec![seg, seg + 1],
                None,
                host_delay,
            );
            flow += 1;
        }
    }
    Ok(model)
}

/// The k-ary fat tree. Routers: `(k/2)²` cores first, then per pod `k/2`
/// aggregation and `k/2` edge switches. Designations: every edge switch
/// uplinks to its same-index aggregation (factor 1.0), every aggregation to
/// its first core (factor 0.9 — the binding hop, since both carry the same
/// flow set). Flow `i` sources at edge slot `i mod L` (`L = k²/2`) and sinks
/// at the same edge index half the pods away; ACKs return over the
/// `(e+1) mod k/2` sibling uplinks, which are never designated.
fn fat_tree(k: usize, spec: &TopoSpec) -> Result<TopoModel, SimError> {
    if k < 4 || !k.is_multiple_of(2) {
        return Err(invalid_config("fat tree needs an even arity k >= 4"));
    }
    let h = k / 2;
    let n = spec.flows();
    if n > k * k * k / 8 {
        return Err(invalid_config(format!(
            "fat tree k={k} supports at most {} flows; use a larger k",
            k * k * k / 8
        )));
    }
    let cores = h * h;
    let agg = |p: usize, a: usize| cores + p * k + a;
    let edge = |p: usize, e: usize| cores + p * k + h + e;
    let mut model = TopoModel {
        family: "fattree".into(),
        n_routers: cores + k * k,
        links: Vec::new(),
        hosts: Vec::new(),
        pairs: Vec::new(),
    };
    for p in 0..k {
        for e in 0..h {
            for a in 0..h {
                let mut l = RouterLink::plain(edge(p, e), agg(p, a), SimDuration::from_millis(2));
                l.aqm_ab = a == e;
                l.aqm_factor = 1.0;
                model.links.push(l);
            }
        }
        for a in 0..h {
            for c in 0..h {
                let mut l = RouterLink::plain(agg(p, a), a * h + c, SimDuration::from_millis(6));
                l.aqm_ab = c == 0;
                l.aqm_factor = 0.9;
                model.links.push(l);
            }
        }
    }
    let host_delay = SimDuration::from_millis(1);
    let slots = k * h;
    for v in 0..n {
        let s = v % slots;
        let (p, e) = (s / h, s % h);
        let p2 = (p + k / 2) % k;
        let a2 = (e + 1) % h;
        let path = vec![edge(p, e), agg(p, e), e * h, agg(p2, e), edge(p2, e)];
        let ack = vec![edge(p2, e), agg(p2, a2), a2 * h + 1, agg(p, a2), edge(p, e)];
        let (start, stop) = video_schedule(spec, v, n);
        add_pair(
            &mut model,
            TrafficKind::Video { flow: v as u32, start, stop },
            path,
            Some(ack),
            host_delay,
        );
    }
    Ok(model)
}

/// Deterministic Dijkstra over the link set, by propagation delay, breaking
/// ties toward lower router indices. Returns the router path `src..=dst`.
fn shortest_path(adj: &[Vec<(usize, u64)>], src: usize, dst: usize) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut dist = vec![u64::MAX; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[src] = 0;
    heap.push(std::cmp::Reverse((0u64, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == dst {
            break;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] || (nd == dist[v] && u < prev[v]) {
                dist[v] = nd;
                prev[v] = u;
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }
    if dist[dst] == u64::MAX {
        return None;
    }
    let mut path = vec![dst];
    while *path.last().expect("non-empty") != src {
        path.push(prev[*path.last().expect("non-empty")]);
    }
    path.reverse();
    Some(path)
}

/// The ISP-like Waxman graph: seeded plane positions, a random spanning
/// tree for connectivity, extra edges with probability
/// `α·exp(−d/(β·√2))`, distance-proportional quantized delays, and
/// heterogeneous queue/tightness tiers. Video flows route over shortest
/// paths; a greedy pass designates AQM egresses so every flow crosses at
/// least one (rerouting a flow to its source's designated neighbor when the
/// whole path is already designated elsewhere).
fn waxman(routers: usize, alpha: f64, beta: f64, spec: &TopoSpec) -> Result<TopoModel, SimError> {
    if routers < 2 {
        return Err(invalid_config("waxman needs at least two routers"));
    }
    let mut prng = Prng::new(spec.seed());
    let points: Vec<(f64, f64)> =
        (0..routers).map(|_| (prng.next_f64(), prng.next_f64())).collect();
    let dist = |a: usize, b: usize| {
        let (dx, dy) = (points[a].0 - points[b].0, points[a].1 - points[b].1);
        (dx * dx + dy * dy).sqrt()
    };
    let mut model = TopoModel {
        family: "waxman".into(),
        n_routers: routers,
        links: Vec::new(),
        hosts: Vec::new(),
        pairs: Vec::new(),
    };
    let mut linked: BTreeSet<(usize, usize)> = BTreeSet::new();
    let add_link = |model: &mut TopoModel,
                    linked: &mut BTreeSet<(usize, usize)>,
                    prng: &mut Prng,
                    a: usize,
                    b: usize| {
        let key = (a.min(b), a.max(b));
        if !linked.insert(key) {
            return;
        }
        // Distance maps to delay at 20 ms across the unit square, quantized
        // to 0.5 ms steps with a 1 ms floor so the partitioner always has
        // usable lookahead tiers.
        let micros = (((dist(a, b) * 20.0 * 2.0).round() as u64) * 500).max(1_000);
        let mut l = RouterLink::plain(a, b, SimDuration::from_micros(micros));
        l.queue = QUEUE_TIERS[prng.gen_range(QUEUE_TIERS.len())];
        l.aqm_factor = FACTOR_TIERS[prng.gen_range(FACTOR_TIERS.len())];
        model.links.push(l);
    };
    // Random spanning tree over a shuffled order keeps the graph connected.
    let mut order: Vec<usize> = (0..routers).collect();
    for i in (1..routers).rev() {
        order.swap(i, prng.gen_range(i + 1));
    }
    for i in 1..routers {
        let j = prng.gen_range(i);
        add_link(&mut model, &mut linked, &mut prng, order[i], order[j]);
    }
    let scale = beta.max(1e-6) * std::f64::consts::SQRT_2;
    for a in 0..routers {
        for b in (a + 1)..routers {
            if linked.contains(&(a, b)) {
                continue;
            }
            if prng.next_f64() < alpha * (-dist(a, b) / scale).exp() {
                add_link(&mut model, &mut linked, &mut prng, a, b);
            }
        }
    }
    // Delay-weighted adjacency for routing.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); routers];
    for l in &model.links {
        let micros = duration_micros(l.delay);
        adj[l.a].push((l.b, micros));
        adj[l.b].push((l.a, micros));
    }
    for list in &mut adj {
        list.sort_unstable();
    }

    let n = spec.flows();
    let host_delay = SimDuration::from_micros(500);
    let mut designated: Vec<Option<usize>> = vec![None; routers];
    let designate = |model: &mut TopoModel, from: usize, to: usize| {
        for l in &mut model.links {
            if l.a == from && l.b == to {
                l.aqm_ab = true;
                return;
            }
            if l.b == from && l.a == to {
                l.aqm_ba = true;
                return;
            }
        }
        unreachable!("designated hop {from} -> {to} has no link");
    };
    for v in 0..n {
        let src = prng.gen_range(routers);
        let mut dst = prng.gen_range(routers);
        while dst == src {
            dst = prng.gen_range(routers);
        }
        let mut path = shortest_path(&adj, src, dst).expect("spanning tree connects the graph");
        let crosses = path.windows(2).any(|w| designated[w[0]] == Some(w[1]));
        if !crosses {
            if let Some(i) = (0..path.len() - 1).find(|&i| designated[path[i]].is_none()) {
                designated[path[i]] = Some(path[i + 1]);
                designate(&mut model, path[i], path[i + 1]);
            } else {
                // Every router on the path already watches another egress:
                // reroute this flow to terminate at the source's designated
                // neighbor, guaranteeing feedback.
                let d = designated[path[0]].expect("source is designated");
                path = vec![path[0], d];
            }
        }
        let (start, stop) = video_schedule(spec, v, n);
        add_pair(
            &mut model,
            TrafficKind::Video { flow: v as u32, start, stop },
            path,
            None,
            host_delay,
        );
    }
    Ok(model)
}

fn duration_micros(d: SimDuration) -> u64 {
    (d.as_secs_f64() * 1e6).round() as u64
}

/// Adds one TCP Reno herd (`spec.tcp_per_path()` greedy flows) per distinct
/// bottleneck path: the representative path of each designated egress is the
/// one of its lowest-numbered crossing video flow, deduplicated so an egress
/// chain shared by the same flows gets one herd.
fn add_tcp_herds(model: &mut TopoModel, spec: &TopoSpec) {
    if spec.tcp_per_path() == 0 {
        return;
    }
    let video = model.video_pairs();
    let mut reps: BTreeSet<usize> = BTreeSet::new();
    for bn in crate::model::bottlenecks(model, spec) {
        if let Some(&v) = bn.video_flows.first() {
            reps.insert(video[v]);
        }
    }
    let mut flow = TCP_FLOW_BASE;
    for pi in reps {
        let pair = model.pairs[pi].clone();
        let delay = model.hosts[pair.src_host].delay;
        for _ in 0..spec.tcp_per_path() {
            add_pair(
                model,
                TrafficKind::Tcp { flow },
                pair.path.clone(),
                pair.ack_path.clone(),
                delay,
            );
            flow += 1;
        }
    }
}

/// Adds the Poisson CBR burst schedule: `bursts` yellow-class (PELS class 1)
/// sources round-robin over designated egresses, each one hop long into a
/// null sink behind the bottleneck.
fn add_poisson_bursts(model: &mut TopoModel, spec: &TopoSpec) {
    let Some(ps) = spec.poisson.clone() else { return };
    let bns = crate::model::bottlenecks(model, spec);
    if bns.is_empty() {
        return;
    }
    let host_delay = SimDuration::from_micros(500);
    let start = SimDuration::from_secs_f64(ps.start_s.unwrap_or(0.0).max(0.0));
    let stop = match ps.stop_s {
        Some(s) => SimTime::ZERO + SimDuration::from_secs_f64(s.max(0.0)),
        None => SimTime::MAX,
    };
    for i in 0..ps.bursts.unwrap_or(1) {
        let bn = &bns[i % bns.len()];
        add_pair(
            model,
            TrafficKind::Cbr {
                flow: CBR_FLOW_BASE + i as u32,
                rate: Rate::from_bps((ps.rate_kbps.max(1.0) * 1_000.0) as u64),
                class: 1,
                poisson: true,
                start,
                stop,
            },
            vec![bn.router, bn.next_hop],
            None,
            host_delay,
        );
    }
}

/// Sizes every link and host. Designated egresses get
/// `(n_video·budget·factor + steady_cbr) / pels_share` (with a floor), so
/// the per-flow MKC stationary point lands at `budget·factor + α/β`;
/// everything else is overprovisioned to twice its computed crossing load
/// (video envelope, TCP internet share, CBR rate; ACK paths at a tenth) so
/// only designated egresses bind.
fn finalize(model: &mut TopoModel, spec: &TopoSpec) {
    let share = spec.aqm().pels_share.max(0.05);
    let budget = spec.per_flow_kbps() * 1_000.0;
    let floor = (2.0 * budget / share).max(1_000_000.0);
    let bns = crate::model::bottlenecks(model, spec);

    let mut hop_link: HashMap<(usize, usize), usize> = HashMap::new();
    for (li, l) in model.links.iter().enumerate() {
        hop_link.insert((l.a, l.b), li);
        hop_link.insert((l.b, l.a), li);
    }

    // Pass 1: designated egress rates from the budget.
    let mut designated_raw: HashMap<(usize, usize), f64> = HashMap::new();
    for bn in &bns {
        let li = hop_link[&(bn.router, bn.next_hop)];
        let factor = model.links[li].aqm_factor;
        let raw =
            ((bn.video_flows.len() as f64 * budget * factor + bn.cbr_load_bps) / share).max(floor);
        set_rate(&mut model.links[li], bn.router, raw);
        designated_raw.insert((bn.router, bn.next_hop), raw);
    }

    // Pass 2: per-directed-hop crossing load.
    let envelope = budget * 1.3 + 40_000.0;
    let mut load: HashMap<(usize, usize), f64> = HashMap::new();
    let mut host_rate: Vec<f64> = vec![0.0; model.hosts.len()];
    for pair in &model.pairs {
        let fwd = match pair.kind {
            TrafficKind::Video { .. } => envelope,
            TrafficKind::Tcp { .. } => pair
                .path
                .windows(2)
                .find_map(|w| designated_raw.get(&(w[0], w[1])))
                .map(|raw| raw * (1.0 - share) / spec.tcp_per_path().max(1) as f64)
                .unwrap_or(envelope),
            TrafficKind::Cbr { rate, .. } => rate.as_bps() as f64,
        };
        for w in pair.path.windows(2) {
            *load.entry((w[0], w[1])).or_default() += fwd;
        }
        let back: Vec<usize> = match &pair.ack_path {
            Some(p) => p.clone(),
            None => pair.path.iter().rev().copied().collect(),
        };
        for w in back.windows(2) {
            *load.entry((w[0], w[1])).or_default() += fwd * 0.1;
        }
        let h = (4.0 * fwd).max(10_000_000.0);
        host_rate[pair.src_host] = host_rate[pair.src_host].max(h);
        host_rate[pair.dst_host] = host_rate[pair.dst_host].max(h);
    }

    // Pass 3: plain directions at twice their load; idle directions get the
    // baseline so no port ever has zero rate.
    for l in &mut model.links {
        for (from, to, designated) in [(l.a, l.b, l.aqm_ab), (l.b, l.a, l.aqm_ba)] {
            if designated {
                continue;
            }
            let crossing = load.get(&(from, to)).copied().unwrap_or(0.0);
            set_rate(l, from, (2.0 * crossing).max(20_000_000.0));
        }
    }
    for (h, host) in model.hosts.iter_mut().enumerate() {
        host.rate = Rate::from_bps(host_rate[h].max(10_000_000.0) as u64);
    }
}

fn set_rate(link: &mut RouterLink, from: usize, bps: f64) {
    let rate = Rate::from_bps(bps as u64);
    if link.a == from {
        link.rate_ab = rate;
    } else {
        link.rate_ba = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopoSpec;

    #[test]
    fn fat_tree_shape() {
        let spec = TopoSpec::from_shorthand("fattree:k=4,flows=8").unwrap();
        let model = generate(&spec).unwrap();
        // (k/2)^2 cores + k pods of k switches.
        assert_eq!(model.n_routers, 4 + 16);
        // Per pod: (k/2)^2 edge-agg + (k/2)^2 agg-core links.
        assert_eq!(model.links.len(), 4 * (4 + 4));
        let designated = model
            .links
            .iter()
            .map(|l| usize::from(l.aqm_ab) + usize::from(l.aqm_ba))
            .sum::<usize>();
        // One uplink per edge switch + one per agg switch.
        assert_eq!(designated, 8 + 8);
    }

    #[test]
    fn fat_tree_ack_paths_avoid_designated_uplinks() {
        let spec = TopoSpec::from_shorthand("fattree:k=4,flows=8").unwrap();
        let model = generate(&spec).unwrap();
        for pair in &model.pairs {
            if let Some(ack) = &pair.ack_path {
                for w in ack.windows(2) {
                    assert!(!model.is_designated(w[0], w[1]), "ack hop {w:?} is designated");
                }
            }
        }
    }

    #[test]
    fn waxman_is_seed_deterministic() {
        let spec = TopoSpec::from_shorthand("waxman:routers=20,flows=10,seed=9").unwrap();
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!((x.a, x.b, x.queue), (y.a, y.b, y.queue));
            assert_eq!(x.delay, y.delay);
        }
        let paths_a: Vec<_> = a.pairs.iter().map(|p| p.path.clone()).collect();
        let paths_b: Vec<_> = b.pairs.iter().map(|p| p.path.clone()).collect();
        assert_eq!(paths_a, paths_b);
    }

    #[test]
    fn parking_lot_long_flows_cross_every_segment() {
        let spec = TopoSpec::from_shorthand("parkinglot:segments=3,cross=1,flows=4").unwrap();
        let model = generate(&spec).unwrap();
        let long: Vec<_> = model
            .pairs
            .iter()
            .filter(|p| matches!(p.kind, TrafficKind::Video { .. }) && p.path.len() == 4)
            .collect();
        assert_eq!(long.len(), 4);
        let bns = crate::model::bottlenecks(&model, &spec);
        assert_eq!(bns.len(), 3);
        for bn in &bns {
            assert!(bn.video_flows.len() >= 4, "every segment carries the long flows");
        }
    }
}
