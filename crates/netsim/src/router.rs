//! A generic store-and-forward router that forwards packets by destination.
//!
//! Specialized routers (the PELS AQM router, the best-effort comparator)
//! live in `pels-core` and embed the same [`Port`]s; this one provides plain
//! destination-based forwarding for access/aggregation nodes and tests.

use crate::fasthash::FastMap;
use crate::faults::{apply_port_fault, FaultAction};
use crate::packet::{AgentId, Packet};
use crate::port::Port;
use crate::sim::{Agent, Context};

/// Destination-based forwarding table: `dst agent -> output port index`.
///
/// Looked up once per forwarded packet, so it hashes with the fixed-seed
/// [`FastMap`] rather than SipHash.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: FastMap<AgentId, usize>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `n` routes.
    pub fn with_capacity(n: usize) -> Self {
        RouteTable { routes: FastMap::with_capacity_and_hasher(n, Default::default()) }
    }

    /// Adds a host route.
    pub fn add(&mut self, dst: AgentId, port: usize) -> &mut Self {
        self.routes.insert(dst, port);
        self
    }

    /// Looks up the output port for `dst`.
    pub fn lookup(&self, dst: AgentId) -> Option<usize> {
        self.routes.get(&dst).copied()
    }
}

/// A FIFO store-and-forward router.
///
/// Packets addressed to an unknown destination (no route) are
/// counted in [`Router::no_route_drops`] and discarded.
#[derive(Debug)]
pub struct Router {
    ports: Vec<Port>,
    routes: RouteTable,
    /// Packets dropped because no route matched.
    pub no_route_drops: u64,
}

impl Router {
    /// Creates a router from its ports and routing table.
    pub fn new(ports: Vec<Port>, routes: RouteTable) -> Self {
        for (i, p) in ports.iter().enumerate() {
            assert_eq!(p.index, i, "port index must match its position");
        }
        Router { ports, routes, no_route_drops: 0 }
    }

    /// Access a port (e.g. to read statistics after a run).
    pub fn port(&self, i: usize) -> &Port {
        &self.ports[i]
    }
}

impl Agent for Router {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        match self.routes.lookup(packet.dst) {
            Some(port) => {
                self.ports[port].send(packet, ctx);
            }
            None => {
                self.no_route_drops += 1;
            }
        }
    }

    fn on_tx_complete(&mut self, port: usize, ctx: &mut Context<'_>) {
        self.ports[port].on_tx_complete(ctx);
    }

    fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
        apply_port_fault(&mut self.ports, action, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit};
    use crate::packet::FlowId;
    use crate::shard::{Partition, ShardedSimulator};
    use crate::time::{Rate, SimDuration, SimTime};

    struct Sink {
        got: Vec<Packet>,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, p: Packet, _ctx: &mut Context<'_>) {
            self.got.push(p);
        }
    }

    struct Injector {
        router: AgentId,
        dsts: Vec<AgentId>,
    }
    impl Agent for Injector {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for (i, &dst) in self.dsts.iter().enumerate() {
                let pkt = Packet::data(FlowId(i as u32), ctx.self_id, dst, 500);
                ctx.deliver(self.router, SimDuration::from_millis(1), pkt);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    }

    fn port_to(index: usize, peer: AgentId) -> Port {
        Port::new(
            index,
            peer,
            Rate::from_mbps(10.0),
            SimDuration::from_millis(5),
            Box::new(DropTail::new(QueueLimit::Packets(100))),
        )
    }

    /// `agents` on one queue, run for a second.
    fn run(agents: Vec<Box<dyn Agent>>) -> ShardedSimulator {
        let mut sim = ShardedSimulator::new(1, &Partition::serial(agents.len()), agents);
        sim.run_until(SimTime::from_secs_f64(1.0));
        sim
    }

    #[test]
    fn forwards_by_destination() {
        let router_id = AgentId(0);
        let sink_a = AgentId(1);
        let sink_b = AgentId(2);

        let mut routes = RouteTable::new();
        routes.add(sink_a, 0).add(sink_b, 1);
        let sim = run(vec![
            Box::new(Router::new(vec![port_to(0, sink_a), port_to(1, sink_b)], routes)),
            Box::new(Sink { got: vec![] }),
            Box::new(Sink { got: vec![] }),
            Box::new(Injector { router: router_id, dsts: vec![sink_a, sink_b, sink_a] }),
        ]);
        assert_eq!(sim.agent::<Sink>(sink_a).got.len(), 2);
        assert_eq!(sim.agent::<Sink>(sink_b).got.len(), 1);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let router_id = AgentId(0);
        let sink = AgentId(1);
        let nowhere = AgentId(99);
        let mut routes = RouteTable::new();
        routes.add(sink, 0);
        let sim = run(vec![
            Box::new(Router::new(vec![port_to(0, sink)], routes)),
            Box::new(Sink { got: vec![] }),
            Box::new(Injector { router: router_id, dsts: vec![nowhere] }),
        ]);
        assert_eq!(sim.agent::<Router>(router_id).no_route_drops, 1);
    }

    #[test]
    #[should_panic(expected = "port index must match")]
    fn misindexed_ports_rejected() {
        let _ = Router::new(vec![port_to(1, AgentId(1))], RouteTable::new());
    }
}
