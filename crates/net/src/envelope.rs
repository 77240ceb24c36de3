//! Wire representation: frames packed into envelopes.
//!
//! A [`Frame`] is one logical message (a TSL protocol invocation); an
//! [`Envelope`] is one physical transfer between two machines. The
//! transparent packing optimization (paper §4.2) batches many small
//! asynchronous frames bound for the same machine into one envelope, so the
//! per-transfer network overhead is paid once instead of per message.
//!
//! Frame payloads are [`FrameBuf`] shared slices: every frame of a packed
//! envelope aliases one contiguous arena, and cloning an envelope (the
//! chaos duplicate fault) bumps refcounts instead of copying bytes.

use crate::framebuf::FrameBuf;
use crate::{MachineId, ProtoId};

/// The wire layout, defined once. `wire_bytes` accounting, the cost
/// model, and the frame-ledger conservation tests all derive from these
/// constants — they can't drift apart.
pub(crate) mod layout {
    /// Per-frame header fields.
    pub(super) const FRAME_PROTO_BYTES: u64 = 2;
    pub(super) const FRAME_KIND_BYTES: u64 = 1;
    pub(super) const FRAME_CORR_BYTES: u64 = 8;
    pub(super) const FRAME_LEN_BYTES: u64 = 4;
    pub(super) const FRAME_PAD_BYTES: u64 = 1;
    /// Total per-frame overhead: proto id, kind tag, correlation id,
    /// payload length prefix, alignment pad.
    pub(crate) const FRAME_HEADER_BYTES: u64 =
        FRAME_PROTO_BYTES + FRAME_KIND_BYTES + FRAME_CORR_BYTES + FRAME_LEN_BYTES + FRAME_PAD_BYTES;

    /// Per-envelope header fields.
    pub(super) const ENV_SRC_BYTES: u64 = 2;
    pub(super) const ENV_DST_BYTES: u64 = 2;
    pub(super) const ENV_LEN_BYTES: u64 = 4;
    pub(super) const ENV_CHECKSUM_BYTES: u64 = 8;
    pub(super) const ENV_TRACE_BYTES: u64 = 8;
    pub(super) const ENV_DEADLINE_BYTES: u64 = 8;
    pub(super) const ENV_FRAME_COUNT_BYTES: u64 = 4;
    pub(super) const ENV_MAGIC_BYTES: u64 = 4;
    /// Total per-envelope overhead: src, dst, length, checksum, trace id,
    /// deadline, frame count, magic.
    pub(crate) const ENV_HEADER_BYTES: u64 = ENV_SRC_BYTES
        + ENV_DST_BYTES
        + ENV_LEN_BYTES
        + ENV_CHECKSUM_BYTES
        + ENV_TRACE_BYTES
        + ENV_DEADLINE_BYTES
        + ENV_FRAME_COUNT_BYTES
        + ENV_MAGIC_BYTES;
}

/// How a frame participates in the request/response paradigm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Fire-and-forget message (asynchronous protocol).
    OneWay,
    /// Request expecting a response, tagged with a correlation id.
    Request(u64),
    /// Response to the request with the same correlation id.
    Response(u64),
    /// Response indicating the callee had no handler for the protocol.
    NoHandler(u64),
    /// Response indicating the callee refused the request because its
    /// deadline budget was already exhausted on arrival.
    Expired(u64),
}

/// One logical message. Cloning shares the payload (refcount bump).
#[derive(Debug, Clone)]
pub struct Frame {
    pub proto: ProtoId,
    pub kind: FrameKind,
    pub payload: FrameBuf,
}

impl Frame {
    /// Bytes this frame contributes to a transfer: payload plus the frame
    /// header (`layout::FRAME_HEADER_BYTES`).
    pub fn wire_bytes(&self) -> u64 {
        self.payload.len() as u64 + layout::FRAME_HEADER_BYTES
    }
}

/// One physical transfer between two machines.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub src: MachineId,
    pub dst: MachineId,
    /// Trace id of the query/job this transfer belongs to
    /// ([`trinity_obs::NO_TRACE`] when untraced). Carried in the envelope
    /// header so a distributed query can be reconstructed across machines.
    pub trace: u64,
    /// Absolute deadline of the query this transfer serves, in
    /// microseconds on the [`crate::deadline_now_us`] clock
    /// ([`crate::NO_DEADLINE`] when unbounded). Carried next to the trace
    /// id so the receiving machine can abort work the client has already
    /// given up on.
    pub deadline: u64,
    pub frames: Vec<Frame>,
}

impl Envelope {
    /// Total bytes on the wire: frames plus the envelope header
    /// (`layout::ENV_HEADER_BYTES`).
    pub fn wire_bytes(&self) -> u64 {
        self.frames.iter().map(Frame::wire_bytes).sum::<u64>() + layout::ENV_HEADER_BYTES
    }

    /// Payload bytes carried (headers excluded) — the denominator of the
    /// copies-per-payload-byte ratio.
    pub fn payload_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.payload.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_count_headers() {
        let f = Frame {
            proto: 1,
            kind: FrameKind::OneWay,
            payload: FrameBuf::from_vec(vec![0; 100]),
        };
        assert_eq!(f.wire_bytes(), 116);
        let e = Envelope {
            src: MachineId(0),
            dst: MachineId(1),
            trace: 0,
            deadline: crate::NO_DEADLINE,
            frames: vec![f.clone(), f],
        };
        assert_eq!(e.wire_bytes(), 2 * 116 + 40);
        assert_eq!(e.payload_bytes(), 200);
    }

    #[test]
    fn layout_sums_match_the_advertised_overheads() {
        // The historical constants (16-byte frame header, 40-byte envelope
        // header) are now sums of the per-field layout definition; this
        // pins the components so neither can drift from the other.
        assert_eq!(layout::FRAME_HEADER_BYTES, 16);
        assert_eq!(layout::ENV_HEADER_BYTES, 40);
        assert_eq!(
            layout::FRAME_HEADER_BYTES,
            layout::FRAME_PROTO_BYTES
                + layout::FRAME_KIND_BYTES
                + layout::FRAME_CORR_BYTES
                + layout::FRAME_LEN_BYTES
                + layout::FRAME_PAD_BYTES
        );
    }
}
