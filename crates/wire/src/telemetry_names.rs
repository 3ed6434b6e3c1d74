//! Static metric names for the wire agents' telemetry.
//!
//! Per-class metrics are hot-path (per received packet), so the names are
//! `&'static str` lookups rather than `format!` allocations. The naming
//! scheme is documented in DESIGN.md §10.

/// `wire.rx.delay.<color>` — one-way delay distribution per color class.
pub(crate) fn rx_delay_metric(class: u8) -> &'static str {
    match class {
        0 => "wire.rx.delay.green",
        1 => "wire.rx.delay.yellow",
        _ => "wire.rx.delay.red",
    }
}

/// `wire.fault.<kind>` — datagrams touched by [`crate::faults::FaultTransport`],
/// indexed by the fate's position in the cumulative partition (blackout = 6).
pub(crate) fn fault_metric(kind: usize) -> &'static str {
    match kind {
        0 => "wire.fault.dropped",
        1 => "wire.fault.duplicated",
        2 => "wire.fault.reordered",
        3 => "wire.fault.delayed",
        4 => "wire.fault.truncated",
        5 => "wire.fault.corrupted",
        _ => "wire.fault.blackout",
    }
}

/// `wire.rx.hellos` — heartbeat HELLO frames sent by the receiver.
pub(crate) const RX_HELLOS: &str = "wire.rx.hellos";

/// `wire.udp.send_drops` — UDP sends dropped on `WouldBlock`/refusal.
pub(crate) const UDP_SEND_DROPS: &str = "wire.udp.send_drops";

/// `wire.serve.flows` — live flow-table size of `pels serve` (gauge).
pub(crate) const SERVE_FLOWS: &str = "wire.serve.flows";

/// `wire.serve.tx` — data datagrams sent by `pels serve`, all flows.
pub(crate) const SERVE_TX: &str = "wire.serve.tx";

/// `wire.serve.acks` — feedback ACKs consumed by per-flow controllers.
pub(crate) const SERVE_ACKS: &str = "wire.serve.acks";

/// `wire.serve.decode_errors` — undecodable datagrams at the serve socket.
pub(crate) const SERVE_DECODE_ERRORS: &str = "wire.serve.decode_errors";

/// `wire.serve.pacing_jitter` — timer-wheel event lateness in seconds
/// (actual fire time minus scheduled deadline).
pub(crate) const SERVE_PACING_JITTER: &str = "wire.serve.pacing_jitter";

/// `wire.serve.flow.<id>.rate` — per-flow MKC rate series. Allocates per
/// sample, and with thousands of flows every series multiplies the JSONL
/// sink's cardinality — emitted only behind `--telemetry-per-flow`.
pub(crate) fn serve_flow_rate_metric(flow: u32) -> String {
    format!("wire.serve.flow.{flow}.rate")
}
