//! Binary on-the-wire codecs for PELS packets.
//!
//! Every datagram starts with a 4-byte header — magic `0x504C` ("PL"),
//! format version, packet kind — and all multi-byte fields are big-endian
//! (network byte order). Five kinds exist:
//!
//! * **Data** ([`WireData`]) — one video packet: flow, sequence number,
//!   frame tag, color class, pacing metadata (send timestamp, rate echo),
//!   a fixed-size feedback block holding the shared router's label, and
//!   the payload. Decoding is zero-copy: the payload borrows from the
//!   receive buffer.
//! * **Ack** ([`WireAck`]) — the receiver's echo of a data packet's control
//!   fields back to the source: sequence, send timestamp, rate echo, and
//!   the router feedback label `(router, z, p, p_fgs)` (Eq. 11).
//! * **Nack** ([`WireNack`]) — a retransmission request for one packet,
//!   identified by its frame tag.
//! * **Hello** ([`WireHello`]) — a receiver heartbeat: "flow N is alive
//!   here". Routers use it to register and refresh flow-table entries.
//! * **Bye** ([`WireBye`]) — a receiver's explicit leave, removing its
//!   flow-table entry immediately instead of waiting for idle eviction.
//!
//! ## Data packet layout (78-byte header + payload)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 2 | magic `0x504C` |
//! | 2  | 1 | version (`1`) |
//! | 3  | 1 | kind (`0` data) |
//! | 4  | 4 | flow id |
//! | 8  | 8 | sequence number |
//! | 16 | 8 | frame number |
//! | 24 | 2 | packet index within frame |
//! | 26 | 2 | total packets in frame |
//! | 28 | 2 | base-layer packets in frame |
//! | 30 | 1 | class (0 green, 1 yellow, 2 red) |
//! | 31 | 1 | flags (bit 0: feedback valid, bit 1: retransmission) |
//! | 32 | 8 | send timestamp, nanoseconds |
//! | 40 | 8 | rate echo, bits/s (f64) |
//! | 48 | 4 | feedback: router id |
//! | 52 | 8 | feedback: epoch `z` |
//! | 60 | 8 | feedback: loss `p` (f64) |
//! | 68 | 8 | feedback: FGS loss (f64) |
//! | 76 | 2 | payload length |
//! | 78 | n | payload |
//!
//! The 28-byte feedback block is *always* present (reserved when the valid
//! flag is clear), so a header is written in one pass and a label costs no
//! framing. The label and the rate echo are written when the packet leaves
//! the shared router (`ServeRouter::drain` encodes it then, once). The wire
//! has one router, so Eq. 12's max-loss override has one implementation:
//! [`pels_netsim::packet::Packet::stamp_feedback`], in the simulator, where
//! a packet can cross several.
//!
//! ## Ack layout (61 bytes)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 4  | 4 | flow id |
//! | 8  | 8 | sequence number of the acknowledged packet |
//! | 16 | 8 | echoed send timestamp, nanoseconds |
//! | 24 | 8 | echoed rate, bits/s (f64) |
//! | 32 | 1 | flags (bit 0: feedback valid) |
//! | 33 | 28 | feedback block (router, epoch, loss, FGS loss) |
//!
//! ## Nack layout (22 bytes)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 4  | 4 | flow id |
//! | 8  | 8 | frame number |
//! | 16 | 2 | packet index |
//! | 18 | 2 | total packets in frame |
//! | 20 | 2 | base-layer packets in frame |
//!
//! ## Hello layout (16 bytes)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 4  | 4 | flow id |
//! | 8  | 8 | heartbeat sequence number |
//!
//! ## Bye layout (8 bytes)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 4  | 4 | flow id |

use pels_netsim::packet::{AgentId, Feedback, FlowId, FrameTag};
use pels_netsim::time::SimTime;

/// The protocol magic, `"PL"` in ASCII.
pub const MAGIC: u16 = 0x504C;
/// The wire-format version this crate encodes and accepts.
pub const VERSION: u8 = 1;
/// Bytes before the payload of a data packet.
pub const DATA_HEADER_BYTES: usize = 78;
/// Size of an encoded [`WireAck`].
pub const ACK_BYTES: usize = 61;
/// Size of an encoded [`WireNack`].
pub const NACK_BYTES: usize = 22;
/// Size of an encoded [`WireHello`].
pub const HELLO_BYTES: usize = 16;
/// Size of an encoded [`WireBye`].
pub const BYE_BYTES: usize = 8;

/// Flag bit: the feedback block carries a valid label.
const FLAG_FEEDBACK: u8 = 0b0000_0001;
/// Flag bit: this data packet is a retransmission.
const FLAG_RETX: u8 = 0b0000_0010;

/// Packet kind discriminator (header byte 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// A video data packet.
    Data,
    /// A receiver acknowledgment echoing the feedback label.
    Ack,
    /// A retransmission request.
    Nack,
    /// A receiver heartbeat (session liveness).
    Hello,
    /// A receiver's explicit leave.
    Bye,
}

impl WireKind {
    fn to_byte(self) -> u8 {
        match self {
            WireKind::Data => 0,
            WireKind::Ack => 1,
            WireKind::Nack => 2,
            WireKind::Hello => 3,
            WireKind::Bye => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(WireKind::Data),
            1 => Ok(WireKind::Ack),
            2 => Ok(WireKind::Nack),
            3 => Ok(WireKind::Hello),
            4 => Ok(WireKind::Bye),
            other => Err(CodecError::BadKind(other)),
        }
    }
}

/// Decode failures. Every variant is a hard reject: a datagram that fails
/// to decode is dropped, never partially applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the structure requires.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes do not spell `0x504C`.
    BadMagic(u16),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no known packet kind.
    BadKind(u8),
    /// A field failed semantic validation (bad class, inconsistent frame
    /// tag, out-of-range feedback, trailing garbage).
    InvalidField(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, got } => {
                write!(f, "truncated packet: need {need} bytes, got {got}")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v} (expected {VERSION})"),
            CodecError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            CodecError::InvalidField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A decoded (or to-be-encoded) PELS data packet. The payload borrows from
/// the receive buffer — decoding copies nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireData<'a> {
    /// Flow identifier.
    pub flow: FlowId,
    /// Monotone per-flow sequence number.
    pub seq: u64,
    /// Position of this packet within its frame.
    pub tag: FrameTag,
    /// Color class: 0 green, 1 yellow, 2 red.
    pub class: u8,
    /// Whether this packet is an ARQ retransmission.
    pub retransmission: bool,
    /// When the source transmitted it (source-clock nanoseconds).
    pub sent_at: SimTime,
    /// The sending rate in effect at transmission (Eq. 8 needs `r(k − D)`).
    pub rate_echo: f64,
    /// Router feedback label, once a router has stamped one.
    pub feedback: Option<Feedback>,
    /// Video payload.
    pub payload: &'a [u8],
}

/// A receiver acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireAck {
    /// Flow identifier.
    pub flow: FlowId,
    /// Sequence number of the acknowledged data packet.
    pub seq: u64,
    /// Echoed send timestamp of the acknowledged packet.
    pub sent_at: SimTime,
    /// Echoed sending rate of the acknowledged packet.
    pub rate_echo: f64,
    /// The echoed router feedback label.
    pub feedback: Option<Feedback>,
}

/// A retransmission request for one packet of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireNack {
    /// Flow identifier.
    pub flow: FlowId,
    /// The missing packet's frame tag.
    pub tag: FrameTag,
}

/// A receiver heartbeat: registers (and keeps alive) a flow-table entry at
/// the router that receives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHello {
    /// Flow identifier.
    pub flow: FlowId,
    /// Monotone heartbeat counter (diagnostic; routers only use arrival).
    pub seq: u64,
}

/// A receiver's explicit leave, removing its flow-table entry immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireBye {
    /// Flow identifier.
    pub flow: FlowId,
}

fn put_header(buf: &mut Vec<u8>, kind: WireKind) {
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.push(VERSION);
    buf.push(kind.to_byte());
}

fn put_feedback(buf: &mut Vec<u8>, fb: Option<Feedback>) {
    let fb = fb.unwrap_or(Feedback { router: AgentId(0), epoch: 0, loss: 0.0, fgs_loss: 0.0 });
    buf.extend_from_slice(&fb.router.0.to_be_bytes());
    buf.extend_from_slice(&fb.epoch.to_be_bytes());
    buf.extend_from_slice(&fb.loss.to_be_bytes());
    buf.extend_from_slice(&fb.fgs_loss.to_be_bytes());
}

/// Reads `N` bytes at `at`, as a [`CodecError::Truncated`] instead of a
/// panic when the buffer is short. Every field accessor below goes through
/// this, so no decode path can index out of bounds no matter what arrives
/// off the network.
fn get_bytes<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], CodecError> {
    buf.get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(CodecError::Truncated { need: at + N, got: buf.len() })
}

fn get_u8(buf: &[u8], at: usize) -> Result<u8, CodecError> {
    buf.get(at).copied().ok_or(CodecError::Truncated { need: at + 1, got: buf.len() })
}

fn get_u16(buf: &[u8], at: usize) -> Result<u16, CodecError> {
    Ok(u16::from_be_bytes(get_bytes(buf, at)?))
}

fn get_u32(buf: &[u8], at: usize) -> Result<u32, CodecError> {
    Ok(u32::from_be_bytes(get_bytes(buf, at)?))
}

fn get_u64(buf: &[u8], at: usize) -> Result<u64, CodecError> {
    Ok(u64::from_be_bytes(get_bytes(buf, at)?))
}

fn get_f64(buf: &[u8], at: usize) -> Result<f64, CodecError> {
    Ok(f64::from_be_bytes(get_bytes(buf, at)?))
}

/// Reads the 28-byte feedback block at `at`, validating ranges so a
/// corrupted datagram can never smuggle a non-finite loss into a controller
/// ([`Feedback::new`] enforces the same invariants by panicking).
fn get_feedback(buf: &[u8], at: usize, valid: bool) -> Result<Option<Feedback>, CodecError> {
    if !valid {
        return Ok(None);
    }
    let loss = get_f64(buf, at + 12)?;
    let fgs_loss = get_f64(buf, at + 20)?;
    if !loss.is_finite() || loss >= 1.0 {
        return Err(CodecError::InvalidField("feedback loss"));
    }
    if !fgs_loss.is_finite() || !(0.0..=1.0).contains(&fgs_loss) {
        return Err(CodecError::InvalidField("feedback fgs loss"));
    }
    Ok(Some(Feedback {
        router: AgentId(get_u32(buf, at)?),
        epoch: get_u64(buf, at + 4)?,
        loss,
        fgs_loss,
    }))
}

/// Validates the common header and returns the packet kind.
pub fn peek_kind(buf: &[u8]) -> Result<WireKind, CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated { need: 4, got: buf.len() });
    }
    let magic = get_u16(buf, 0)?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = get_u8(buf, 2)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    WireKind::from_byte(get_u8(buf, 3)?)
}

/// Returns the encoded length of the packet at the head of `buf`.
///
/// Every wire packet is self-delimiting — control kinds have fixed sizes
/// and a data packet declares its payload length at offset 76 — so several
/// packets can be carried back-to-back in one coalesced datagram and split
/// apart with this function. The per-kind `decode`s reject trailing bytes,
/// so callers must slice exactly `packet_len` bytes before decoding.
pub fn packet_len(buf: &[u8]) -> Result<usize, CodecError> {
    Ok(match peek_kind(buf)? {
        WireKind::Data => DATA_HEADER_BYTES + get_u16(buf, 76)? as usize,
        WireKind::Ack => ACK_BYTES,
        WireKind::Nack => NACK_BYTES,
        WireKind::Hello => HELLO_BYTES,
        WireKind::Bye => BYE_BYTES,
    })
}

/// Walks the wire packets packed back-to-back in one received datagram
/// (the one container walk every receive path shares).
///
/// Yields each packet's exact slice, ready for the per-kind `decode`. A
/// head that [`packet_len`] rejects, or that declares more bytes than
/// remain, yields one error and ends the walk: without its length the rest
/// of the container has no frame boundary. A single-packet datagram is the
/// one-iteration case; an empty one yields nothing.
pub fn packets(buf: &[u8]) -> Packets<'_> {
    Packets { rest: buf }
}

/// Iterator returned by [`packets`].
#[derive(Debug, Clone)]
pub struct Packets<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Packets<'a> {
    type Item = Result<&'a [u8], CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        // Taken, so that an error leaves nothing to walk.
        let rest = std::mem::take(&mut self.rest);
        Some(packet_len(rest).and_then(|len| {
            if len > rest.len() {
                return Err(CodecError::Truncated { need: len, got: rest.len() });
            }
            let (packet, tail) = rest.split_at(len);
            self.rest = tail;
            Ok(packet)
        }))
    }
}

fn expect_kind(buf: &[u8], want: WireKind) -> Result<(), CodecError> {
    let kind = peek_kind(buf)?;
    if kind != want {
        return Err(CodecError::InvalidField("packet kind"));
    }
    Ok(())
}

impl<'a> WireData<'a> {
    /// Encodes into a fresh datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(DATA_HEADER_BYTES + self.payload.len());
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes into `buf`, clearing it first.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.append_to(buf);
    }

    /// Appends the encoded packet to `buf` without clearing it: the shared
    /// router encodes each departure straight into the container datagram
    /// it leaves in.
    pub fn append_to(&self, buf: &mut Vec<u8>) {
        buf.reserve(DATA_HEADER_BYTES + self.payload.len());
        put_header(buf, WireKind::Data);
        buf.extend_from_slice(&self.flow.0.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.tag.frame.to_be_bytes());
        buf.extend_from_slice(&self.tag.index.to_be_bytes());
        buf.extend_from_slice(&self.tag.total.to_be_bytes());
        buf.extend_from_slice(&self.tag.base.to_be_bytes());
        buf.push(self.class);
        let mut flags = 0u8;
        if self.feedback.is_some() {
            flags |= FLAG_FEEDBACK;
        }
        if self.retransmission {
            flags |= FLAG_RETX;
        }
        buf.push(flags);
        buf.extend_from_slice(&self.sent_at.as_nanos().to_be_bytes());
        buf.extend_from_slice(&self.rate_echo.to_be_bytes());
        put_feedback(buf, self.feedback);
        let len = u16::try_from(self.payload.len()).expect("payload fits a u16 length");
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(self.payload);
    }

    /// Decodes a datagram, borrowing the payload from `buf`.
    ///
    /// # Errors
    ///
    /// Rejects short buffers, wrong magic/version/kind, classes outside
    /// green/yellow/red, inconsistent frame tags, non-finite rate echoes,
    /// out-of-range feedback, and length mismatches (a datagram must be
    /// exactly header + payload; trailing bytes are corruption, not slack).
    pub fn decode(buf: &'a [u8]) -> Result<Self, CodecError> {
        expect_kind(buf, WireKind::Data)?;
        if buf.len() < DATA_HEADER_BYTES {
            return Err(CodecError::Truncated { need: DATA_HEADER_BYTES, got: buf.len() });
        }
        let payload_len = get_u16(buf, 76)? as usize;
        let need = DATA_HEADER_BYTES + payload_len;
        if buf.len() < need {
            return Err(CodecError::Truncated { need, got: buf.len() });
        }
        if buf.len() > need {
            return Err(CodecError::InvalidField("trailing bytes"));
        }
        let tag = FrameTag {
            frame: get_u64(buf, 16)?,
            index: get_u16(buf, 24)?,
            total: get_u16(buf, 26)?,
            base: get_u16(buf, 28)?,
        };
        if tag.index >= tag.total || tag.base > tag.total {
            return Err(CodecError::InvalidField("frame tag"));
        }
        let class = get_u8(buf, 30)?;
        if class > 2 {
            return Err(CodecError::InvalidField("class"));
        }
        let flags = get_u8(buf, 31)?;
        let rate_echo = get_f64(buf, 40)?;
        if !rate_echo.is_finite() || rate_echo < 0.0 {
            return Err(CodecError::InvalidField("rate echo"));
        }
        let payload = buf
            .get(DATA_HEADER_BYTES..)
            .ok_or(CodecError::Truncated { need: DATA_HEADER_BYTES, got: buf.len() })?;
        Ok(WireData {
            flow: FlowId(get_u32(buf, 4)?),
            seq: get_u64(buf, 8)?,
            tag,
            class,
            retransmission: flags & FLAG_RETX != 0,
            sent_at: SimTime::from_nanos(get_u64(buf, 32)?),
            rate_echo,
            feedback: get_feedback(buf, 48, flags & FLAG_FEEDBACK != 0)?,
            payload,
        })
    }
}

impl WireAck {
    /// The acknowledgment of `data`: its flow, sequence number, send time,
    /// rate echo and feedback label, echoed back to the source.
    pub fn echo(data: &WireData<'_>) -> Self {
        WireAck {
            flow: data.flow,
            seq: data.seq,
            sent_at: data.sent_at,
            rate_echo: data.rate_echo,
            feedback: data.feedback,
        }
    }

    /// Encodes into a fresh datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ACK_BYTES);
        self.append_to(&mut buf);
        buf
    }

    /// Appends the encoded ACK to `buf` without clearing it, so a
    /// coalescing sender can write ACKs back-to-back into one container
    /// datagram with no per-ACK allocation.
    pub fn append_to(&self, buf: &mut Vec<u8>) {
        buf.reserve(ACK_BYTES);
        put_header(buf, WireKind::Ack);
        buf.extend_from_slice(&self.flow.0.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.sent_at.as_nanos().to_be_bytes());
        buf.extend_from_slice(&self.rate_echo.to_be_bytes());
        buf.push(if self.feedback.is_some() { FLAG_FEEDBACK } else { 0 });
        put_feedback(buf, self.feedback);
    }

    /// Decodes an acknowledgment datagram.
    ///
    /// # Errors
    ///
    /// Rejects short or oversized buffers, wrong magic/version/kind,
    /// non-finite rate echoes, and out-of-range feedback.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        expect_kind(buf, WireKind::Ack)?;
        if buf.len() < ACK_BYTES {
            return Err(CodecError::Truncated { need: ACK_BYTES, got: buf.len() });
        }
        if buf.len() > ACK_BYTES {
            return Err(CodecError::InvalidField("trailing bytes"));
        }
        let rate_echo = get_f64(buf, 24)?;
        if !rate_echo.is_finite() || rate_echo < 0.0 {
            return Err(CodecError::InvalidField("rate echo"));
        }
        Ok(WireAck {
            flow: FlowId(get_u32(buf, 4)?),
            seq: get_u64(buf, 8)?,
            sent_at: SimTime::from_nanos(get_u64(buf, 16)?),
            rate_echo,
            feedback: get_feedback(buf, 33, get_u8(buf, 32)? & FLAG_FEEDBACK != 0)?,
        })
    }
}

impl WireNack {
    /// Encodes into a fresh datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(NACK_BYTES);
        put_header(&mut buf, WireKind::Nack);
        buf.extend_from_slice(&self.flow.0.to_be_bytes());
        buf.extend_from_slice(&self.tag.frame.to_be_bytes());
        buf.extend_from_slice(&self.tag.index.to_be_bytes());
        buf.extend_from_slice(&self.tag.total.to_be_bytes());
        buf.extend_from_slice(&self.tag.base.to_be_bytes());
        buf
    }

    /// Decodes a retransmission-request datagram.
    ///
    /// # Errors
    ///
    /// Rejects short or oversized buffers, wrong magic/version/kind, and
    /// inconsistent frame tags.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        expect_kind(buf, WireKind::Nack)?;
        if buf.len() < NACK_BYTES {
            return Err(CodecError::Truncated { need: NACK_BYTES, got: buf.len() });
        }
        if buf.len() > NACK_BYTES {
            return Err(CodecError::InvalidField("trailing bytes"));
        }
        let tag = FrameTag {
            frame: get_u64(buf, 8)?,
            index: get_u16(buf, 16)?,
            total: get_u16(buf, 18)?,
            base: get_u16(buf, 20)?,
        };
        if tag.index >= tag.total || tag.base > tag.total {
            return Err(CodecError::InvalidField("frame tag"));
        }
        Ok(WireNack { flow: FlowId(get_u32(buf, 4)?), tag })
    }
}

impl WireHello {
    /// Encodes into a fresh datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HELLO_BYTES);
        put_header(&mut buf, WireKind::Hello);
        buf.extend_from_slice(&self.flow.0.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf
    }

    /// Decodes a heartbeat datagram.
    ///
    /// # Errors
    ///
    /// Rejects short or oversized buffers and wrong magic/version/kind.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        expect_kind(buf, WireKind::Hello)?;
        if buf.len() < HELLO_BYTES {
            return Err(CodecError::Truncated { need: HELLO_BYTES, got: buf.len() });
        }
        if buf.len() > HELLO_BYTES {
            return Err(CodecError::InvalidField("trailing bytes"));
        }
        Ok(WireHello { flow: FlowId(get_u32(buf, 4)?), seq: get_u64(buf, 8)? })
    }
}

impl WireBye {
    /// Encodes into a fresh datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BYE_BYTES);
        put_header(&mut buf, WireKind::Bye);
        buf.extend_from_slice(&self.flow.0.to_be_bytes());
        buf
    }

    /// Decodes a leave datagram.
    ///
    /// # Errors
    ///
    /// Rejects short or oversized buffers and wrong magic/version/kind.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        expect_kind(buf, WireKind::Bye)?;
        if buf.len() < BYE_BYTES {
            return Err(CodecError::Truncated { need: BYE_BYTES, got: buf.len() });
        }
        if buf.len() > BYE_BYTES {
            return Err(CodecError::InvalidField("trailing bytes"));
        }
        Ok(WireBye { flow: FlowId(get_u32(buf, 4)?) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data<'a>(payload: &'a [u8]) -> WireData<'a> {
        WireData {
            flow: FlowId(7),
            seq: 42,
            tag: FrameTag { frame: 3, index: 5, total: 126, base: 21 },
            class: 1,
            retransmission: false,
            sent_at: SimTime::from_nanos(123_456_789),
            rate_echo: 1_500_000.0,
            feedback: Some(Feedback::new(AgentId(1), 9, 0.25, 0.4)),
            payload,
        }
    }

    #[test]
    fn data_roundtrip_zero_copy() {
        let payload = [0xAB; 480];
        let buf = data(&payload).encode();
        assert_eq!(buf.len(), DATA_HEADER_BYTES + 480);
        let d = WireData::decode(&buf).unwrap();
        assert_eq!(d, data(&payload));
        // Zero-copy: the payload points into the buffer.
        assert_eq!(d.payload.as_ptr(), buf[DATA_HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn data_without_feedback_roundtrips() {
        let d = WireData { feedback: None, retransmission: true, ..data(&[]) };
        let decoded_buf = d.encode();
        let back = WireData::decode(&decoded_buf).unwrap();
        assert_eq!(back.feedback, None);
        assert!(back.retransmission);
    }

    #[test]
    fn ack_and_nack_roundtrip() {
        let ack = WireAck {
            flow: FlowId(7),
            seq: 42,
            sent_at: SimTime::from_nanos(55),
            rate_echo: 128_000.0,
            feedback: Some(Feedback::new(AgentId(2), 3, -1.5, 0.0)),
        };
        assert_eq!(WireAck::decode(&ack.encode()).unwrap(), ack);
        let nack =
            WireNack { flow: FlowId(7), tag: FrameTag { frame: 8, index: 0, total: 4, base: 1 } };
        assert_eq!(WireNack::decode(&nack.encode()).unwrap(), nack);
    }

    #[test]
    fn hello_and_bye_roundtrip() {
        let hello = WireHello { flow: FlowId(7), seq: 99 };
        let buf = hello.encode();
        assert_eq!(buf.len(), HELLO_BYTES);
        assert_eq!(peek_kind(&buf), Ok(WireKind::Hello));
        assert_eq!(WireHello::decode(&buf).unwrap(), hello);
        let bye = WireBye { flow: FlowId(7) };
        let buf = bye.encode();
        assert_eq!(buf.len(), BYE_BYTES);
        assert_eq!(peek_kind(&buf), Ok(WireKind::Bye));
        assert_eq!(WireBye::decode(&buf).unwrap(), bye);
        // Strict sizing: trailing bytes and prefixes are rejects.
        let mut long = hello.encode();
        long.push(0);
        assert_eq!(WireHello::decode(&long), Err(CodecError::InvalidField("trailing bytes")));
        assert!(WireBye::decode(&bye.encode()[..BYE_BYTES - 1]).is_err());
    }

    #[test]
    fn packet_len_delimits_coalesced_packets() {
        let payload = [0x5A; 137];
        let d = data(&payload).encode();
        let ack = WireAck {
            flow: FlowId(7),
            seq: 42,
            sent_at: SimTime::from_nanos(55),
            rate_echo: 128_000.0,
            feedback: None,
        }
        .encode();
        let hello = WireHello { flow: FlowId(7), seq: 1 }.encode();
        let bye = WireBye { flow: FlowId(7) }.encode();
        // Pack four packets back-to-back into one container datagram and
        // walk it: each slice must decode cleanly and the walk must consume
        // the container exactly.
        let mut container = Vec::new();
        for part in [&d, &ack, &hello, &bye] {
            container.extend_from_slice(part);
        }
        // Appending encodes the same bytes where they are to leave from.
        let mut appended = d.clone();
        data(&payload).append_to(&mut appended);
        assert_eq!(appended, [&d[..], &d[..]].concat());
        let mut walked = 0;
        let mut kinds = Vec::new();
        for pkt in packets(&container) {
            let pkt = pkt.unwrap();
            kinds.push(peek_kind(pkt).unwrap());
            match kinds.last().unwrap() {
                WireKind::Data => assert!(WireData::decode(pkt).is_ok()),
                WireKind::Ack => assert!(WireAck::decode(pkt).is_ok()),
                WireKind::Hello => assert!(WireHello::decode(pkt).is_ok()),
                WireKind::Bye => assert!(WireBye::decode(pkt).is_ok()),
                WireKind::Nack => unreachable!(),
            }
            walked += pkt.len();
        }
        assert_eq!(walked, container.len());
        assert_eq!(kinds, [WireKind::Data, WireKind::Ack, WireKind::Hello, WireKind::Bye]);
        // A container cut inside its last packet yields the whole packets
        // before the cut, then one error, then nothing.
        let cut = &container[..container.len() - 3];
        let walk: Vec<_> = packets(cut).collect();
        assert_eq!(walk.len(), 4);
        assert!(walk[..3].iter().all(Result::is_ok) && walk[3].is_err());
        // A data header cut before the length field is a truncation error.
        assert!(packet_len(&d[..20]).is_err());
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let mut buf = data(&[1, 2, 3]).encode();
        buf[0] = 0xFF;
        assert!(matches!(WireData::decode(&buf), Err(CodecError::BadMagic(_))));
        let mut buf = data(&[1, 2, 3]).encode();
        buf[2] = 9;
        assert_eq!(WireData::decode(&buf), Err(CodecError::BadVersion(9)));
        let mut buf = data(&[1, 2, 3]).encode();
        buf[3] = 7;
        assert_eq!(WireData::decode(&buf), Err(CodecError::BadKind(7)));
        // An ACK buffer is not a data packet.
        let ack = WireAck {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: 0.0,
            feedback: None,
        };
        assert_eq!(WireData::decode(&ack.encode()), Err(CodecError::InvalidField("packet kind")));
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let buf = data(&[9; 100]).encode();
        for cut in [0, 3, 10, DATA_HEADER_BYTES - 1, buf.len() - 1] {
            assert!(WireData::decode(&buf[..cut]).is_err(), "prefix of {cut} must fail");
        }
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(WireData::decode(&long), Err(CodecError::InvalidField("trailing bytes")));
    }

    #[test]
    fn rejects_semantic_corruption() {
        // class 3
        let mut buf = data(&[]).encode();
        buf[30] = 3;
        assert_eq!(WireData::decode(&buf), Err(CodecError::InvalidField("class")));
        // index >= total
        let mut buf = data(&[]).encode();
        buf[24..26].copy_from_slice(&200u16.to_be_bytes());
        assert_eq!(WireData::decode(&buf), Err(CodecError::InvalidField("frame tag")));
        // NaN feedback loss
        let mut buf = data(&[]).encode();
        buf[60..68].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(WireData::decode(&buf), Err(CodecError::InvalidField("feedback loss")));
    }

    #[test]
    fn decoders_reject_arbitrary_short_buffers_without_panicking() {
        for len in 0..DATA_HEADER_BYTES + 2 {
            let buf = vec![0xFFu8; len];
            assert!(WireData::decode(&buf).is_err());
            assert!(WireAck::decode(&buf).is_err());
            assert!(WireNack::decode(&buf).is_err());
            assert!(WireHello::decode(&buf).is_err());
            assert!(WireBye::decode(&buf).is_err());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Runs every decoder over a buffer; the property under test is simply
    /// "no panic" — any `Err` is fine.
    fn exercise_decoders(buf: &[u8]) {
        let _ = peek_kind(buf);
        let _ = WireData::decode(buf);
        let _ = WireAck::decode(buf);
        let _ = WireNack::decode(buf);
        let _ = WireHello::decode(buf);
        let _ = WireBye::decode(buf);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Completely random byte strings must never panic a decoder —
        /// anything a UDP socket can deliver is either decoded or rejected
        /// with a typed [`CodecError`].
        #[test]
        fn decode_survives_random_bytes(bytes in collection::vec(any::<u8>(), 0..256)) {
            exercise_decoders(&bytes);
        }

        /// Valid packets that are truncated mid-field and bit-flipped must
        /// never panic a decoder. This walks the interesting edge: buffers
        /// that pass the early header checks but lie about their contents.
        #[test]
        fn decode_survives_truncated_and_corrupted_packets(
            payload_len in 0usize..64,
            cut in 0usize..256,
            flip_at in 0usize..256,
            flip_bits in any::<u8>(),
        ) {
            let payload = vec![0x5Au8; payload_len];
            let data = WireData {
                flow: FlowId(9),
                seq: 1,
                tag: FrameTag { frame: 2, index: 0, total: 4, base: 1 },
                class: 2,
                retransmission: false,
                sent_at: SimTime::from_nanos(1_000),
                rate_echo: 250_000.0,
                feedback: Some(Feedback::new(AgentId(1), 5, 0.3, 0.2)),
                payload: &payload,
            };
            let ack = WireAck {
                flow: FlowId(9),
                seq: 1,
                sent_at: SimTime::from_nanos(1_000),
                rate_echo: 250_000.0,
                feedback: None,
            };
            let nack = WireNack {
                flow: FlowId(9),
                tag: FrameTag { frame: 2, index: 1, total: 4, base: 1 },
            };
            for encoded in [data.encode(), ack.encode(), nack.encode()] {
                let mut mutated = encoded.clone();
                mutated.truncate(cut % (encoded.len() + 1));
                if !mutated.is_empty() {
                    let at = flip_at % mutated.len();
                    mutated[at] ^= flip_bits;
                }
                exercise_decoders(&mutated);
            }
        }
    }
}
