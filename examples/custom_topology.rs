//! Building a custom experiment on the simulator substrate — no PELS
//! involved. This is the "downstream user" path: describe routers, links,
//! hosts and traffic as a `TopoModel` and let `pels_topo` wire the agents,
//! routes and shard partition.
//!
//! Here: three TCP flows compete with an unresponsive 1.5 Mb/s CBR blast
//! through a 4 Mb/s drop-tail bottleneck; we measure how much each TCP flow
//! salvages and verify TCP's well-known capitulation to unresponsive
//! traffic (the motivation for fair queueing, and context for why the
//! PELS/Internet split uses WRR isolation).
//!
//! Run with: `cargo run --release --example custom_topology`

use pels_analysis::queueing::jain_index;
use pels_netsim::cbr::CbrSource;
use pels_netsim::packet::AgentId;
use pels_netsim::tcp::TcpSink;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_topo::model::{Host, RouterLink, TopoModel, TrafficKind, TrafficPair};
use pels_topo::spec::{GeneratorSpec, TopoSpec};
use pels_topo::TopoScenario;

const N_TCP: u32 = 3;

/// Two routers joined by a plain (no AQM egress: the model carries no
/// video) 4 Mb/s link; every pair's source hangs off router 0 and its sink
/// off router 1, over 10 Mb/s access links.
fn dumbbell() -> TopoModel {
    let bottleneck = Rate::from_mbps(4.0);
    let link = RouterLink {
        rate_ab: bottleneck,
        rate_ba: bottleneck,
        queue: 100,
        ..RouterLink::plain(0, 1, SimDuration::from_millis(5))
    };
    let host = |router: usize| Host {
        router,
        rate: Rate::from_mbps(10.0),
        delay: SimDuration::from_millis(1),
        queue: 100,
    };
    let mut kinds: Vec<TrafficKind> = (0..N_TCP).map(|flow| TrafficKind::Tcp { flow }).collect();
    // The last pair is the unresponsive blast, in the Internet class.
    kinds.push(TrafficKind::Cbr {
        flow: N_TCP,
        rate: Rate::from_mbps(1.5),
        class: 3,
        poisson: false,
        start: SimDuration::ZERO,
        stop: SimTime::MAX,
    });
    let mut hosts = Vec::new();
    let pairs = kinds
        .into_iter()
        .map(|kind| {
            hosts.extend([host(0), host(1)]);
            TrafficPair {
                kind,
                src_host: hosts.len() - 2,
                dst_host: hosts.len() - 1,
                path: vec![0, 1],
                ack_path: None,
            }
        })
        .collect();
    TopoModel { family: "custom_dumbbell".into(), n_routers: 2, links: vec![link], hosts, pairs }
}

fn main() {
    let model = dumbbell();
    // Hosts follow the routers in agent-id order: the blast's source is the
    // second-to-last host.
    let cbr_source = AgentId((model.n_routers + model.hosts.len() - 2) as u32);
    // The spec only supplies the seed here; its generator is not consulted
    // for a hand-built model.
    let mut spec =
        TopoSpec::new(GeneratorSpec::ParkingLot { segments: 1, cross_per_segment: None });
    spec.seed = Some(11);
    let mut sc = TopoScenario::try_from_model(model, spec).expect("valid model");
    sc.run_until(SimTime::from_secs_f64(60.0));

    println!("=== custom dumbbell: 3 TCP flows vs a 1.5 Mb/s unresponsive CBR ===\n");
    let mut tcp_rates = Vec::new();
    for i in 0..N_TCP as usize {
        let delivered = sc.sim.agent::<TcpSink>(sc.ids.tcp_sinks[i]).delivered();
        let kbps = delivered as f64 * 1_000.0 * 8.0 / 60.0 / 1_000.0;
        println!("TCP flow {i}: {delivered} packets ({kbps:.0} kb/s)");
        tcp_rates.push(kbps);
    }
    let cbr_sent = sc.sim.agent::<CbrSource>(cbr_source).sent;
    println!("CBR blast:  {cbr_sent} packets offered (1500 kb/s, unresponsive)");

    // The TCP flows share what the CBR leaves (~2.5 Mb/s minus overheads)
    // roughly fairly among themselves.
    let total_tcp: f64 = tcp_rates.iter().sum();
    let jain = jain_index(&tcp_rates);
    println!("\nTCP aggregate {total_tcp:.0} kb/s, Jain index {jain:.3}");
    assert!(total_tcp > 1_800.0 && total_tcp < 2_700.0, "TCP takes the remainder: {total_tcp}");
    assert!(jain > 0.85, "TCP flows stay mutually fair: {jain}");
    println!(
        "\nTCP backs off around the blast while the blast concedes nothing — \
         drop-tail FIFOs cannot protect responsive flows, which is why the \
         paper isolates video and Internet queues with WRR."
    );
}
