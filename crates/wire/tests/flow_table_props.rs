//! Property tests for the flow table under churn: thousands of flows
//! through randomized HELLO/BYE/idle-eviction interleavings must preserve
//! per-flow state isolation and never leak table entries — against the
//! bare [`FlowTable`] and through a [`ServeLoop`] hosting it.

use std::collections::HashMap;
use std::net::SocketAddr;

use pels_netsim::packet::{AgentId, Feedback, FlowId, FrameTag};
use pels_netsim::time::{SimDuration, SimTime};
use pels_wire::codec::{WireAck, WireBye, WireData, WireHello, WireNack};
use pels_wire::serve::FLOW_IDLE_TIMEOUT;
use pels_wire::{FlowTable, MemHub, ServeConfig, ServeLoop, Transport};
use proptest::prelude::*;

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

/// One churn step against the table.
#[derive(Debug, Clone)]
enum Op {
    /// HELLO from flow `id` (register or refresh) off address `127.0.0.1:id+p`.
    Hello { id: u32, port_salt: u16 },
    /// BYE from flow `id`.
    Bye { id: u32 },
    /// Advance time by `ms` and run idle eviction.
    Evict { ms: u64 },
    /// BYE, ACK and NACK naming flow `id` from an address that never
    /// registered it. The bare table has no sender to check: a no-op there.
    Foreign { id: u32 },
}

fn op_strategy(max_flow: u32) -> impl Strategy<Value = Op> {
    // Weighted 4:2:1:1 Hello/Bye/Evict/Foreign mix; the vendored proptest
    // stub has no `prop_oneof!`, so the weights ride on a plain range +
    // `prop_map`.
    (0u32..8, 1..=max_flow, 0u16..4, 1u64..400).prop_map(|(w, id, port_salt, ms)| match w {
        0..=3 => Op::Hello { id, port_salt },
        4..=5 => Op::Bye { id },
        6 => Op::Evict { ms },
        _ => Op::Foreign { id },
    })
}

const TIMEOUT_MS: u64 = FLOW_IDLE_TIMEOUT.as_nanos() / 1_000_000;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The table agrees with a reference `HashMap` model at every step:
    /// same membership, and each survivor still carries the state written
    /// at its *registration* (a refresh must never reset it) — across up
    /// to 2000 distinct flows.
    #[test]
    fn churn_matches_model_and_never_leaks(
        ops in proptest::collection::vec(op_strategy(2000), 1..600),
    ) {
        let timeout = SimDuration::from_millis(TIMEOUT_MS);
        let mut table: FlowTable<u64> = FlowTable::new();
        // Model: flow -> (registration stamp, last hello ms).
        let mut model: HashMap<u32, (u64, u64)> = HashMap::new();
        let mut now_ms = 0u64;
        let mut stamp = 0u64;
        for op in &ops {
            match *op {
                Op::Hello { id, port_salt } => {
                    let a = addr(1000 + (id % 30000) as u16 + port_salt);
                    stamp += 1;
                    let s = stamp;
                    let new = table.hello(
                        FlowId(id),
                        a,
                        SimTime::from_nanos(now_ms * 1_000_000),
                        || s,
                    );
                    let entry = model.entry(id);
                    match entry {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            prop_assert!(!new, "flow {id} double-registered");
                            e.get_mut().1 = now_ms;
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            prop_assert!(new, "flow {id} not registered");
                            v.insert((s, now_ms));
                        }
                    }
                    prop_assert_eq!(table.addr_of(FlowId(id)), Some(a));
                }
                Op::Bye { id } => {
                    let removed = table.bye(FlowId(id));
                    let modeled = model.remove(&id);
                    prop_assert_eq!(removed.is_some(), modeled.is_some());
                }
                Op::Evict { ms } => {
                    now_ms += ms;
                    let evicted =
                        table.evict_idle(SimTime::from_nanos(now_ms * 1_000_000), timeout);
                    let before = model.len();
                    model.retain(|_, (_, last)| now_ms - *last <= TIMEOUT_MS);
                    prop_assert_eq!(evicted, (before - model.len()) as u64);
                }
                Op::Foreign { .. } => {}
            }
            prop_assert_eq!(table.len(), model.len(), "table leaked or lost entries");
        }
        // State isolation: every survivor holds its own registration
        // stamp, untouched by any other flow's churn or its own refreshes.
        for (id, entry) in table.iter() {
            let (reg_stamp, _) = model[&id.0];
            prop_assert_eq!(entry.state, reg_stamp, "flow {} state bled", id.0);
        }
        // Drain everything: a full idle pass leaves no entry behind.
        table.evict_idle(
            SimTime::from_nanos((now_ms + 10 * TIMEOUT_MS) * 1_000_000),
            timeout,
        );
        prop_assert!(table.is_empty(), "idle eviction leaked {} entries", table.len());
    }
}

fn data(flow: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    WireData {
        flow: FlowId(flow),
        seq,
        tag: FrameTag { frame: 0, index: 0, total: 1, base: 1 },
        class: 0,
        retransmission: false,
        sent_at: SimTime::ZERO,
        rate_echo: 128_000.0,
        feedback: None,
        payload,
    }
    .encode()
}

/// Drives a [`ServeLoop`] through the same churn alphabet and checks that
/// its table tracks the model (`registrations − byes − evictions = live
/// flows`, exactly, at every step), with stray data packets and control
/// frames from a foreign address interleaved, and an idle drain at the end
/// proving nothing leaks.
fn serve_churn(ops: &[Op]) {
    let hub = MemHub::new();
    let client = hub.endpoint(addr(11));
    let intruder = hub.endpoint(addr(12));
    let mut foreign = 0u64;
    let cfg = ServeConfig::new(addr(10));
    let tick_ms = cfg.feedback_interval.as_nanos() / 1_000_000;
    let mut lp = ServeLoop::new(cfg, hub.endpoint(addr(10)), None);
    // Model: flow -> ms of its last HELLO.
    let mut model: HashMap<u32, u64> = HashMap::new();
    let (mut registrations, mut byes) = (0u64, 0u64);
    let mut now_ms = 0u64;
    // Eviction runs on the feedback tick, so after a time jump the loop is
    // polled at the next tick too before the table is compared.
    let settle = |lp: &mut ServeLoop<_>, now_ms: &mut u64, model: &mut HashMap<u32, u64>| {
        lp.poll(SimTime::from_nanos(*now_ms * 1_000_000)).unwrap();
        *now_ms += tick_ms;
        lp.poll(SimTime::from_nanos(*now_ms * 1_000_000)).unwrap();
        let now = *now_ms;
        model.retain(|_, last| now - *last <= TIMEOUT_MS);
    };
    for (seq, op) in ops.iter().enumerate() {
        let seq = seq as u64;
        match *op {
            Op::Hello { id, .. } => {
                client.send_to(&WireHello { flow: FlowId(id), seq }.encode(), addr(10)).unwrap();
                registrations += u64::from(model.insert(id, now_ms).is_none());
                // A data packet is not something a server takes: it must
                // be refused without touching the table.
                client.send_to(&data(id + 100_000, seq, &[0u8; 64]), addr(10)).unwrap();
            }
            Op::Bye { id } => {
                client.send_to(&WireBye { flow: FlowId(id) }.encode(), addr(10)).unwrap();
                byes += u64::from(model.remove(&id).is_some());
            }
            Op::Evict { ms } => now_ms += ms,
            Op::Foreign { id } => {
                // Frames that would end the flow, steer its rate and γ (an
                // unseen router's label passes the epoch filter), and queue
                // a repair of its latest frame — had its owner sent them.
                let flow = FlowId(id);
                let before = lp.flow(flow);
                let fb = Feedback { router: AgentId(99), epoch: seq, loss: 0.5, fgs_loss: 0.5 };
                let ack = WireAck {
                    flow,
                    seq,
                    sent_at: SimTime::ZERO,
                    rate_echo: 64e3,
                    feedback: Some(fb),
                };
                let frame = before.map_or(0, |v| v.frames_sent.saturating_sub(1));
                let nack = WireNack { flow, tag: FrameTag { frame, index: 0, total: 1, base: 1 } };
                for frame in [ack.encode(), nack.encode(), WireBye { flow }.encode()] {
                    intruder.send_to(&frame, addr(10)).unwrap();
                    // Polled at the instant of the last settle, so no timer
                    // fires and only the frame can move the flow.
                    lp.poll(SimTime::from_nanos(now_ms * 1_000_000)).unwrap();
                    assert_eq!(lp.flow(flow), before, "a foreign address moved flow {id}");
                }
                foreign += 3 * u64::from(before.is_some());
            }
        }
        settle(&mut lp, &mut now_ms, &mut model);
        let report = lp.report(SimTime::from_nanos(now_ms * 1_000_000));
        assert_eq!(lp.flows(), model.len(), "table and model disagree after {op:?}");
        assert_eq!((report.byes, report.foreign_control), (byes, foreign));
        assert_eq!(registrations - byes - report.evictions, model.len() as u64, "{report:?}");
    }
    // Whatever survived churn, a quiet period past the timeout clears it,
    // and every flow's timers die with it.
    now_ms += 10 * TIMEOUT_MS;
    settle(&mut lp, &mut now_ms, &mut model);
    let report = lp.report(SimTime::from_nanos(now_ms * 1_000_000));
    assert_eq!((lp.flows(), report.leaked_flows), (0, 0), "serve table leaked entries");
    assert_eq!(registrations - byes, report.evictions);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Serve-loop churn never leaks flow-table entries, with stray data
    /// traffic interleaved throughout.
    #[test]
    fn serve_churn_never_leaks(
        ops in proptest::collection::vec(op_strategy(256), 1..120),
    ) {
        serve_churn(&ops);
    }
}

/// A deterministic full-width churn: 2000 flows all register, half say
/// BYE, the rest idle out — the table must hit exactly zero, and strict
/// drops must cover every packet from flows that died with data queued.
#[test]
fn two_thousand_flows_register_and_fully_unwind() {
    let timeout = SimDuration::from_millis(TIMEOUT_MS);
    let mut table: FlowTable<u32> = FlowTable::new();
    for id in 1..=2000u32 {
        let new = table.hello(
            FlowId(id),
            addr(1000 + (id % 30000) as u16),
            SimTime::from_nanos(u64::from(id) * 1_000),
            || id,
        );
        assert!(new);
    }
    assert_eq!(table.len(), 2000);
    for id in (2..=2000u32).step_by(2) {
        assert_eq!(table.bye(FlowId(id)), Some(id), "flow {id} state mismatch");
    }
    assert_eq!(table.len(), 1000);
    // Survivors keep isolated state after mass removal of their neighbors.
    for (id, entry) in table.iter() {
        assert_eq!(entry.state, id.0);
        assert_eq!(id.0 % 2, 1);
    }
    let evicted = table.evict_idle(SimTime::from_nanos(3_000_000_000), timeout);
    assert_eq!(evicted, 1000);
    assert!(table.is_empty());
}
