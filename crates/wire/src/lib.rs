//! `pels-wire`: the PELS protocol over actual datagrams.
//!
//! Everything upstream of this crate is a discrete-event *simulation* of
//! the paper's protocol stack (Kang, Zhang, Dai & Loguinov, ICDCS 2004).
//! This crate runs the same control laws in real time:
//!
//! * [`codec`] — versioned, big-endian on-the-wire formats for data
//!   packets (with a fixed-size block for the shared router's Eq. 11
//!   label), ACKs carrying the MKC feedback triplet
//!   `(p, z, router)`, NACKs, and the HELLO/BYE session frames. Packets
//!   are self-delimiting, so several ride one datagram;
//!   [`codec::packets`] is the one walk every receive path uses. Decoding
//!   is zero-copy for payloads.
//! * [`transport`] — the [`Transport`] datagram abstraction with a
//!   deterministic in-memory hub ([`MemHub`]) and a non-blocking UDP
//!   backend ([`UdpTransport`]) whose batch hooks are the
//!   `recvmmsg`/`sendmmsg` bindings of [`batch`].
//! * [`serve`] — [`ServeLoop`], the one place the control path is
//!   assembled: a `poll(now)`-driven server hosting a
//!   [`FlowTable`] of per-flow state machines that
//!   reuse the simulator's controllers verbatim — MKC (Eq. 8), the γ
//!   partitioner (Eq. 4), the router feedback estimator (Eq. 11) — paced
//!   off a shared timer wheel through one in-process strict-priority
//!   router, answering NACKs with rate-charged base-layer repairs.
//!   `pels serve` runs it for thousands of flows on UDP.
//! * [`receiver`] — [`WireReceiver`], the decoding client of one flow:
//!   the socket end of the simulator's receiver core (reassembly, NACK/ARQ
//!   scheduling), per-packet ACKs, and the HELLO heartbeat that keeps the
//!   flow in the server's table.
//!   [`loadgen`] is the non-decoding client of thousands (`pels loadgen`).
//! * [`live`] — [`run_live`]: one [`ServeLoop`] streaming to one
//!   [`WireReceiver`] over loopback UDP or the in-memory hub, reported in
//!   the simulator's `ScenarioReport` schema, so live and simulated runs
//!   are directly comparable (`pels live`).
//! * [`faults`] — [`FaultTransport`], the wire's fault injector: a
//!   deterministic middleware over any [`Transport`] that draws each
//!   datagram's fate (drop/duplicate/reorder/delay/truncate/corrupt, plus
//!   timed blackouts) in the simulator's fault vocabulary
//!   (`pels_netsim::faults`), scriptable per endpoint via [`LiveFaults`]
//!   and `pels live --faults`.
//! * [`chaos`] — the six-case wire recovery matrix behind
//!   `pels chaos --wire`, on the same session as [`live`]: the simulator
//!   matrix's config, invariants and loop (`pels_core::chaos`) checking
//!   that the stack re-converges to the Lemma 6 rate, keeps the base layer
//!   fed, and never panics on mutated bytes.
//!
//! Time comes from a [`Clock`](pels_netsim::clock::Clock): wall time for
//! live runs, a hand-stepped mock for reproducible tests. Endpoints never
//! read clocks themselves — they are pure state machines over `SimTime`.

// `deny` rather than `forbid`: the whole crate stays safe except the one
// vendored-syscall module (`batch::sys`) that declares `recvmmsg`/
// `sendmmsg`, which opts in with a scoped `allow` and keeps every unsafe
// block behind a safe, bounds-checked wrapper.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod codec;
pub mod faults;
pub mod flowtable;
pub mod live;
pub mod loadgen;
pub mod receiver;
pub mod serve;
pub mod transport;

pub use chaos::{run_wire_matrix, WireCaseReport, WireChaosCase, WireChaosReport};
pub use codec::{WireAck, WireBye, WireData, WireHello, WireKind, WireNack};
pub use faults::{FaultTransport, LiveFaults, WireFaultSpec, WireFaultTotals};
pub use flowtable::FlowTable;
pub use live::{run_live, LiveBackend, LiveConfig, LiveOutcome, LiveStats};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use receiver::{WireReceiver, WireReceiverConfig, HELLO_INTERVAL};
pub use serve::{run_serve_with, FlowView, ServeConfig, ServeLoop, ServeReport};
// `benchmark/src/wire.rs` imports the one UDP backend under both names.
pub use transport::UdpTransport as BatchedUdp;
pub use transport::{Datagram, MemHub, MemTransport, Transport, UdpTransport};
