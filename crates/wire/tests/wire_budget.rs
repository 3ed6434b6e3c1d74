//! The wire stack's deterministic cost and control budget (the simulator's
//! are `tests/event_budget.rs` and `tests/exchange_budget.rs`).
//!
//! `ServeLoop` over `MemHub` on a clock stepped one millisecond at a time,
//! against one client that answers every data packet with an ACK echoing
//! its label and rate (what `pels loadgen` does; `common`), at
//! `ServeConfig::new`'s own queue limits. Two shapes with the same Lemma 6
//! operating point `r* = C/N + α/β = 195.3 + 40 = 235.3 kb/s`: 64 flows at
//! 12.5 Mb/s and
//! 512 at 100 Mb/s (the benchmark's `wire_paced`). Every flow asks for the
//! whole 928 kb/s trace, so the shared router is overloaded four times over
//! and Eq. 8, Eq. 4 and Eq. 11 have to do all the work: the rates must sit
//! on `r*`, γ on `p_fgs / p_thr`, the router must shed red and nothing
//! else, the pacer must spend about one timer event per packet, and —
//! every flow behind one client address — the packets must leave sharing
//! containers.

mod common;

use pels_netsim::clock::{Clock, ManualClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{Rate, SimDuration};
use pels_wire::{MemHub, ServeConfig, ServeLoop, ServeReport};
use std::net::SocketAddr;

const SECS: u64 = 6;
/// Rates and γ have left the start-up transient by here.
const SETTLED_SECS: u64 = 4;

struct Outcome {
    report: ServeReport,
    /// Per flow, the MKC rate averaged over the last simulated second.
    tail_kbps: Vec<f64>,
    /// `p_fgs / p_thr` averaged over the last simulated second.
    tail_gamma_star: f64,
    /// The last periodic scrape's `wire.serve.{rate,gamma}_mean`.
    rate_mean_kbps: f64,
    gamma_mean: f64,
}

fn run(flows: u32, capacity_mbps: f64) -> Outcome {
    let addr = |port: u16| -> SocketAddr { ([127, 0, 0, 1], port).into() };
    let (hub, clock) = (MemHub::new(), ManualClock::new());
    let cfg = ServeConfig {
        capacity: Rate::from_mbps(capacity_mbps),
        max_flows: flows as usize,
        ..ServeConfig::new(addr(1))
    };
    let p_thr = cfg.gamma.p_thr;
    let mut server = ServeLoop::new(cfg, hub.endpoint(addr(1)), None);
    let client = hub.endpoint(addr(2));

    let mut tail_bps = vec![0.0; flows as usize];
    let mut tail_fgs_loss = 0.0;
    let (mut rate_mean_kbps, mut gamma_mean) = (0.0, 0.0);
    for ms in 0..SECS * 1_000 {
        let now = clock.now();
        if ms % 100 == 0 {
            common::hello_all(&client, flows, addr(1));
        }
        common::echo_acks(&client, addr(1));
        server.poll(now).unwrap();
        if ms >= (SECS - 1) * 1_000 {
            for (f, sum) in tail_bps.iter_mut().enumerate() {
                *sum += server.flow(FlowId(f as u32 + 1)).expect("registered").rate_bps;
            }
            tail_fgs_loss += server.report(now).fgs_loss;
        }
        // What `pels serve --telemetry` publishes, at its cadence; the last
        // scrape is the state the run ends in.
        if ms % 1_000 == 999 {
            let snap = server.scrape(now);
            let gauge = |name: &str| snap.gauges[name].value;
            (rate_mean_kbps, gamma_mean) =
                (gauge("wire.serve.rate_mean") / 1e3, gauge("wire.serve.gamma_mean"));
            if ms >= SETTLED_SECS * 1_000 {
                let at_max = gauge("wire.serve.flows_at_max_rate");
                assert_eq!(at_max, 0.0, "{at_max} flows at max_rate, {ms} ms");
            }
        }
        clock.advance(SimDuration::from_millis(1));
    }
    Outcome {
        report: server.report(clock.now()),
        tail_kbps: tail_bps.iter().map(|sum| sum / 1_000.0 / 1e3).collect(),
        tail_gamma_star: tail_fgs_loss / 1_000.0 / p_thr,
        rate_mean_kbps,
        gamma_mean,
    }
}

/// The bounds both shapes must meet; `r_star_kbps` is Lemma 6.
fn check(o: &Outcome, r_star_kbps: f64) {
    let n = o.tail_kbps.len() as f64;
    let mean = o.tail_kbps.iter().sum::<f64>() / n;
    let jain = o.tail_kbps.iter().sum::<f64>().powi(2)
        / (n * o.tail_kbps.iter().map(|v| v * v).sum::<f64>());
    let rel = |a: f64, b: f64| (a - b).abs() / b;
    assert!(rel(mean, r_star_kbps) < 0.05, "mean rate {mean:.1} vs r* {r_star_kbps:.1} kb/s");
    assert!(jain >= 0.99, "Jain {jain:.4}");
    assert!(
        rel(o.rate_mean_kbps, r_star_kbps) < 0.05,
        "scraped rate_mean {:.1} vs r* {r_star_kbps:.1} kb/s",
        o.rate_mean_kbps
    );
    // γ steers on red loss at the router (Eq. 4). The comparison is with
    // the trailing mean of `p_fgs`: one 30 ms sample of it swings by more
    // than the bound.
    assert!(o.gamma_mean > 0.1, "γ {:.3} on its floor", o.gamma_mean);
    assert!(
        (o.gamma_mean - o.tail_gamma_star).abs() < 0.1,
        "γ {:.3} vs p_fgs / p_thr = {:.3}",
        o.gamma_mean,
        o.tail_gamma_star
    );
    let r = &o.report;
    let drops = r.queue_drops_by_class;
    assert!(drops[0] == 0 && drops[1] == 0 && drops[2] > 0, "router shed {drops:?}");
    let planned = r.paced_by_class.iter().sum::<u64>() + r.abandoned_packets;
    let abandoned = r.abandoned_packets as f64 / planned as f64;
    assert!(abandoned <= 0.05, "{abandoned:.3} of planned packets abandoned");
    let events_per_pkt = r.timer_events as f64 / r.data_sent as f64;
    assert!(events_per_pkt <= 1.5, "{events_per_pkt:.2} timer events per packet sent");
    // One client address, so only the 1472-byte cap (three 478-byte
    // packets) and the 1 ms flush end a container.
    let pkts_per_container = r.data_sent as f64 / r.containers_sent as f64;
    assert!(pkts_per_container >= 2.5, "{pkts_per_container:.2} packets per container");
    println!(
        "{n} flows: rate {mean:.1} kb/s (r* {r_star_kbps:.1}), Jain {jain:.4}, γ {:.3} \
         (p_fgs / p_thr {:.3}), p {:.3}, drops {drops:?}, abandoned {abandoned:.4}, \
         {events_per_pkt:.3} timer events per packet, {pkts_per_container:.2} packets per \
         container, {:.1} per send_batch",
        o.gamma_mean,
        o.tail_gamma_star,
        r.loss,
        r.data_sent as f64 / r.send_batches as f64
    );
}

#[test]
fn sixty_four_paced_flows_stay_inside_the_wire_budget() {
    let o = run(64, 12.5);
    check(&o, 12_500.0 / 64.0 + 40.0);
    // Exact on a stepped clock: a change that moves one of these states its
    // new value, as the simulator's budgets do.
    let r = &o.report;
    let io = (r.containers_sent, r.send_batches);
    assert_eq!(
        (r.data_sent, r.timer_events, r.abandoned_packets, r.queue_drops_by_class, io),
        // 2.76 packets per container, 8.5 per `send_batch`.
        (25_344, 34_786, 590, [0, 0, 3_648], (9_185, 2_980)),
        "pinned counts moved"
    );
}

#[test]
fn five_hundred_twelve_flows_hold_the_same_operating_point() {
    check(&run(512, 100.0), 100_000.0 / 512.0 + 40.0);
}
