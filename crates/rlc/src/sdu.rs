//! RLC service data units and segments.
//!
//! One RLC SDU corresponds to one PDCP PDU (one downlink IP packet).
//! When the MAC grants fewer bytes than the head SDU's remaining length,
//! the RLC emits a *segment* and keeps the rest (Figure 9: segmentation &
//! concatenation at the sender, reassembly at the receiver).

use outran_pdcp::{FiveTuple, Priority};
use outran_simcore::Time;

/// An RLC SDU queued for transmission.
#[derive(Debug, Clone)]
pub struct RlcSdu {
    /// Unique SDU identifier within the bearer (simulator-wide counter).
    pub id: u64,
    /// Application flow this SDU belongs to.
    pub flow_id: u64,
    /// Flow key (for per-flow state lookups).
    pub tuple: FiveTuple,
    /// Total SDU length in bytes.
    pub len: u32,
    /// Bytes already emitted in earlier segments.
    pub offset: u32,
    /// MLFQ priority assigned by PDCP at ingress.
    pub priority: Priority,
    /// When the SDU entered the RLC buffer.
    pub arrival: Time,
    /// Transport-layer sequence number of the SDU's first byte.
    pub seq: u64,
}

impl RlcSdu {
    /// Bytes still awaiting transmission.
    pub fn remaining(&self) -> u32 {
        self.len - self.offset
    }
}

/// A transmitted piece of an SDU (possibly the whole of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlcSegment {
    /// SDU this segment belongs to.
    pub sdu_id: u64,
    /// Flow of the parent SDU.
    pub flow_id: u64,
    /// Flow key of the parent SDU.
    pub tuple: FiveTuple,
    /// Byte offset of this segment within the SDU.
    pub offset: u32,
    /// Segment payload length in bytes.
    pub len: u32,
    /// Total length of the parent SDU (receiver needs it to detect
    /// completion).
    pub sdu_len: u32,
    /// Transport-layer sequence number of the segment's first byte.
    pub seq: u64,
    /// PDCP sequence number stamped at (possibly delayed) numbering time.
    pub pdcp_sn: Option<u32>,
    /// When the parent SDU entered the RLC buffer (queue-delay metric).
    pub arrival: Time,
}

impl RlcSegment {
    /// Whether this segment completes its SDU.
    pub fn is_last(&self) -> bool {
        self.offset + self.len == self.sdu_len
    }

    /// Whether this segment is the whole SDU (no segmentation happened).
    pub fn is_whole(&self) -> bool {
        self.offset == 0 && self.len == self.sdu_len
    }
}

use outran_simcore::snap_fields;

// A queued SDU has bytes left to send, and its byte range fits the
// transport sequence space (a `counter` is far enough below `u64::MAX`).
snap_fields! {
    RlcSdu {
        id, flow_id in index(flows), tuple, len, offset in lt(len), priority, arrival,
        seq in counter,
    }
}
snap_fields! {
    RlcSegment {
        sdu_id, flow_id in index(flows), tuple, offset in lt(sdu_len), len in le(sdu_len),
        sdu_len, seq in ge(offset) & counter, pdcp_sn, arrival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdu(len: u32, offset: u32) -> RlcSdu {
        RlcSdu {
            id: 1,
            flow_id: 9,
            tuple: FiveTuple::simulated(9, 0),
            len,
            offset,
            priority: Priority::TOP,
            arrival: Time::ZERO,
            seq: 0,
        }
    }

    #[test]
    fn remaining_math() {
        assert_eq!(sdu(1500, 0).remaining(), 1500);
        assert_eq!(sdu(1500, 600).remaining(), 900);
    }

    #[test]
    fn segment_flags() {
        let seg = RlcSegment {
            sdu_id: 1,
            flow_id: 9,
            tuple: FiveTuple::simulated(9, 0),
            offset: 0,
            len: 1500,
            sdu_len: 1500,
            seq: 0,
            pdcp_sn: None,
            arrival: Time::ZERO,
        };
        assert!(seg.is_whole());
        assert!(seg.is_last());
        let mid = RlcSegment {
            offset: 100,
            len: 200,
            sdu_len: 1500,
            ..seg.clone()
        };
        assert!(!mid.is_whole());
        assert!(!mid.is_last());
        let tail = RlcSegment {
            offset: 1300,
            len: 200,
            sdu_len: 1500,
            ..seg
        };
        assert!(tail.is_last());
        assert!(!tail.is_whole());
    }
}
