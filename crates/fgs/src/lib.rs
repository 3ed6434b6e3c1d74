//! # pels-fgs — the MPEG-4 FGS scalable-video substrate
//!
//! Everything the PELS reproduction needs from the video side of the system:
//!
//! * frame and trace models with the paper's CIF Foreman packetization
//!   constants ([`frame`], [`trace_gen`]),
//! * rate scaling of the FGS enhancement layer and its partition into
//!   yellow/red segments ([`scaling`]),
//! * packetization into 500-byte wire packets ([`packetize`](mod@packetize)),
//! * the receiver-side prefix decoder and utility accounting ([`decoder`]),
//! * GOP/motion-compensation loss propagation in the base layer ([`gop`]),
//! * a calibrated synthetic quality model replacing the offline codec, a
//!   smooth R-D map ([`psnr`]),
//! * and R-D-aware budget allocation across frames ([`rd_scaling`], the
//!   paper's cited-but-unused refinement).
//!
//! ## Example: how much of a frame survives 10% random loss?
//!
//! ```
//! use pels_fgs::decoder::FrameReception;
//! use pels_fgs::packetize::packetize;
//! use pels_fgs::scaling::{scale_to_rate, partition_enhancement};
//! use pels_fgs::frame::foreman;
//!
//! let trace = foreman::trace();
//! let scaled = scale_to_rate(trace.frame(0), 1_500_000.0, trace.fps);
//! let (yellow, red) = partition_enhancement(scaled.enhancement_bytes, 0.2);
//! let plan = packetize(&scaled, yellow, red, foreman::PACKET_BYTES);
//!
//! let mut rx = FrameReception::from_plan(&plan);
//! for p in &plan {
//!     if p.index % 10 != 9 { rx.mark_received(p.index); } // drop every 10th
//! }
//! let decoded = rx.decode(0);
//! assert!(decoded.enh_useful_packets <= decoded.enh_received_packets);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decoder;
pub mod frame;
pub mod gop;
pub mod packetize;
pub mod psnr;
pub mod rd_scaling;
pub mod scaling;
pub mod trace_gen;

pub use decoder::{DecodedFrame, FrameLog, FrameReception, UtilityStats};
pub use frame::{FrameSpec, VideoTrace};
pub use gop::{propagate_base_loss, GopConfig};
pub use packetize::{packetize, FramePackets, PacketPlan, Segment};
pub use psnr::{RdConfig, RdModel};
pub use scaling::{partition_enhancement, scale_to_rate, ScaledFrame};
