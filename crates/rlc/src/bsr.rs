//! Buffer Status Reports with OutRAN's priority attribute.
//!
//! In downlink scheduling the MAC consults the RLC buffer occupancy of
//! each UE to decide who has data. OutRAN's Appendix B extends this
//! report with the per-MLFQ-priority occupancy so the inter-user flow
//! scheduler can read "the status of the MLFQ (queued size for each
//! priority queue) at the MAC layer scheduling".

use outran_pdcp::Priority;

/// RLC → MAC buffer status for one UE/bearer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferStatus {
    /// Queued payload bytes per MLFQ priority (index 0 = P1).
    pub bytes_per_priority: Vec<u64>,
    /// Bytes queued outside the MLFQ (AM control + retransmission
    /// queues); always scheduled ahead of the Tx queue.
    pub ctrl_and_retx_bytes: u64,
}

impl BufferStatus {
    /// An empty report with `k` priority levels.
    pub fn empty(k: usize) -> BufferStatus {
        BufferStatus {
            bytes_per_priority: vec![0; k],
            ctrl_and_retx_bytes: 0,
        }
    }

    /// Total queued bytes across all queues.
    pub fn total(&self) -> u64 {
        self.ctrl_and_retx_bytes + self.bytes_per_priority.iter().sum::<u64>()
    }

    /// The highest-priority non-empty MLFQ level — the "user priority"
    /// `P_u = max_{f∈F_u} Priority(f)` of eq. (2). `None` when the MLFQ
    /// is empty (the UE may still have ctrl/retx data).
    ///
    /// Note: AM ctrl/retx traffic intentionally does **not** influence
    /// the user priority; eq. (2) is defined over the flows in the Tx
    /// queue only (§4.4 "The per-flow state is kept only for the TxQ").
    pub fn head_priority(&self) -> Option<Priority> {
        self.bytes_per_priority
            .iter()
            .position(|&b| b > 0)
            .map(|i| Priority(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report() {
        let b = BufferStatus::empty(4);
        assert_eq!(b.total(), 0);
        assert_eq!(b.head_priority(), None);
    }

    #[test]
    fn head_priority_finds_first_nonempty() {
        let mut b = BufferStatus::empty(4);
        b.bytes_per_priority[2] = 100;
        b.bytes_per_priority[3] = 999;
        assert_eq!(b.head_priority(), Some(Priority(2)));
        b.bytes_per_priority[0] = 1;
        assert_eq!(b.head_priority(), Some(Priority(0)));
    }

    #[test]
    fn ctrl_bytes_count_toward_total_but_not_priority() {
        let mut b = BufferStatus::empty(4);
        b.ctrl_and_retx_bytes = 50;
        assert_eq!(b.total(), 50);
        assert_eq!(b.head_priority(), None);
    }
}
