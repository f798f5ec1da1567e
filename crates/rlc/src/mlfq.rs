//! The per-UE Multi-Level Feedback Queue (intra-user flow scheduler).
//!
//! §4.2: srsRAN's single FIFO `tx_sdu_queue` is split into K strict-
//! priority queues; each ingress SDU lands in the queue matching the MLFQ
//! priority PDCP marked it with. Dequeueing serves the highest-priority
//! non-empty queue first, approximating SJF on the flows sharing this UE.
//!
//! §4.4 adds the *segmented-SDU promotion*: when a transmission
//! opportunity ends in the middle of an SDU, the leftover is promoted to
//! the head of the first priority queue. Otherwise packets from higher
//! queues could delay the remaining segment past the receiver's
//! reassembly window, causing a discard that hurts FCT.
//!
//! A K=1 instance is exactly the legacy FIFO, which is how the vanilla
//! srsRAN baseline is expressed in this codebase.
//!
//! A level, or the promoted slot, that an operation leaves empty gives its
//! buffer back, so a UE's queues hold capacity only for the SDUs they
//! hold: a burst's peak returns to the allocator, where another UE's
//! queues reuse it, instead of staying with the level that saw it. Two
//! small buffers (of at most 8 SDUs) are kept back as the UE's spares
//! for the next levels that fill, so a queue that drains and refills
//! every TTI does not allocate every TTI.

use std::collections::VecDeque;

use outran_pdcp::Priority;

use crate::sdu::{RlcSdu, RlcSegment};

/// The largest drained buffer, in SDUs, a UE keeps as a spare (512 B).
const SPARE_SLOTS: usize = 8;

/// Strict-priority multi-queue with a promoted slot for segmented SDUs.
#[derive(Debug, Clone)]
pub struct MlfqQueues {
    /// One FIFO per priority level (index 0 = P1, highest).
    queues: Vec<VecDeque<RlcSdu>>,
    /// Partially-sent SDUs, served before everything else (§4.4).
    promoted: VecDeque<RlcSdu>,
    /// Empty buffers of at most `SPARE_SLOTS` SDUs, or none: what the
    /// next levels (or `promoted`) to fill without a buffer take.
    spare: [VecDeque<RlcSdu>; 2],
    /// Remaining bytes per priority level.
    bytes: Vec<u64>,
    /// Occupancy bitmask: bit `l` set iff `bytes[l] > 0`. Makes
    /// [`MlfqQueues::head_priority`] O(1) instead of a K-level scan —
    /// the MAC reads it for every UE every TTI.
    occupied: u64,
    /// Remaining bytes in the promoted slot.
    promoted_bytes: u64,
    /// Total SDUs across all queues (for the buffer cap).
    n_sdus: usize,
    /// Maximum SDUs held (srsENB UM default: 128).
    capacity_sdus: usize,
    /// Whether the §4.4 promotion is active (off reproduces a "strict
    /// MLFQ without the reassembly fix" ablation).
    promote_segments: bool,
    /// Whether a full buffer evicts the worst-priority tail SDU to admit
    /// a better one (push-out) or drops the incoming SDU (drop-tail).
    pushout: bool,
}

impl MlfqQueues {
    /// Create with `k` priority levels and an SDU capacity.
    pub fn new(k: usize, capacity_sdus: usize) -> MlfqQueues {
        assert!(k >= 1, "need at least one queue");
        assert!(k <= 64, "occupancy bitmask holds at most 64 levels");
        MlfqQueues {
            queues: (0..k).map(|_| VecDeque::new()).collect(),
            promoted: VecDeque::new(),
            spare: Default::default(),
            bytes: vec![0; k],
            occupied: 0,
            promoted_bytes: 0,
            n_sdus: 0,
            capacity_sdus,
            promote_segments: true,
            pushout: true,
        }
    }

    /// Disable/enable segmented-SDU promotion (§4.4 ablation knob).
    pub fn set_promote_segments(&mut self, on: bool) {
        self.promote_segments = on;
    }

    /// Select the overflow policy: push-out (default) or plain drop-tail
    /// (ablation knob; K=1 queues behave identically either way).
    pub fn set_pushout(&mut self, on: bool) {
        self.pushout = on;
    }

    /// Total queued SDUs (whole + partial).
    pub fn len_sdus(&self) -> usize {
        self.n_sdus
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.n_sdus == 0
    }

    /// Total queued bytes still to transmit.
    pub fn queued_bytes(&self) -> u64 {
        self.promoted_bytes + self.bytes.iter().sum::<u64>()
    }

    /// Queued bytes per priority level; promoted bytes count at level 0,
    /// since that is where they are served.
    pub fn bytes_per_priority(&self) -> Vec<u64> {
        // The MAC path reads O(1) occupancy instead (see mac_sched);
        // this accessor serves tests and diagnostics.
        let mut v = self.bytes.clone();
        v[0] += self.promoted_bytes;
        v
    }

    /// The highest-priority level with data — the user priority of
    /// eq. (2). Promoted segments count as P1. O(1) via the occupancy
    /// bitmask.
    pub fn head_priority(&self) -> Option<Priority> {
        if !self.promoted.is_empty() {
            return Some(Priority::TOP);
        }
        if self.occupied == 0 {
            None
        } else {
            Some(Priority(self.occupied.trailing_zeros() as u8))
        }
    }

    /// Account bytes into `level`, maintaining the occupancy bitmask.
    fn add_level_bytes(&mut self, level: usize, n: u64) {
        self.bytes[level] += n;
        if n > 0 {
            self.occupied |= 1 << level;
        }
    }

    /// Account bytes out of `level`, maintaining the occupancy bitmask.
    fn sub_level_bytes(&mut self, level: usize, n: u64) {
        self.bytes[level] -= n;
        if self.bytes[level] == 0 {
            self.occupied &= !(1 << level);
        }
    }

    /// Enqueue an SDU at its marked priority (clamped to the available
    /// levels, so a K=1 instance degrades to FIFO).
    ///
    /// Overflow policy: **priority push-out**. When the buffer is full,
    /// the tail SDU of the lowest-priority queue *strictly below* the
    /// incoming SDU's level is evicted to make room; if no worse queue
    /// has data, the incoming SDU itself is dropped. A K=1 instance
    /// therefore degrades to plain drop-tail (the legacy behaviour). The
    /// `Err` carries whichever SDU was dropped, so TCP sees the loss.
    pub fn push(&mut self, sdu: RlcSdu) -> Result<(), RlcSdu> {
        let level = (sdu.priority.0 as usize).min(self.queues.len() - 1);
        if self.n_sdus >= self.capacity_sdus {
            if !self.pushout {
                return Err(sdu); // drop-tail ablation
            }
            // Find a victim strictly below the incoming priority.
            let victim_level = (level + 1..self.queues.len())
                .rev()
                .find(|&l| !self.queues[l].is_empty());
            let Some(vl) = victim_level else {
                return Err(sdu); // nothing worse to evict: drop incoming
            };
            let Some(victim) = self.queues[vl].pop_back() else {
                return Err(sdu); // unreachable: vl was found non-empty
            };
            self.sub_level_bytes(vl, victim.remaining() as u64);
            self.n_sdus -= 1;
            self.add_level_bytes(level, sdu.remaining() as u64);
            with_buffer(&mut self.queues[level], &mut self.spare).push_back(sdu);
            self.n_sdus += 1;
            release_if_empty(&mut self.queues[vl], &mut self.spare);
            return Err(victim);
        }
        self.add_level_bytes(level, sdu.remaining() as u64);
        with_buffer(&mut self.queues[level], &mut self.spare).push_back(sdu);
        self.n_sdus += 1;
        Ok(())
    }

    /// Dequeue up to `budget` bytes into segments, honoring strict
    /// priority and charging `header_bytes` of RLC/MAC overhead per
    /// emitted segment. Returns the segments and the bytes consumed
    /// (payload + headers).
    ///
    /// Segmentation: a partial emit leaves the remainder either promoted
    /// to the head of P1 (OutRAN) or at the head of its own queue
    /// (promotion disabled / legacy FIFO — where the head position makes
    /// it next anyway).
    pub fn pull(&mut self, budget: u64, header_bytes: u32) -> (Vec<RlcSegment>, u64) {
        let mut out = Vec::new();
        let used = self.pull_into(&mut out, budget, header_bytes);
        (out, used)
    }

    /// Like [`MlfqQueues::pull`], but appends into a caller-owned scratch
    /// vector (the per-TTI hot path reuses one buffer across UEs instead
    /// of allocating per pull). Returns the bytes consumed.
    pub fn pull_into(&mut self, out: &mut Vec<RlcSegment>, budget: u64, header_bytes: u32) -> u64 {
        let mut used = 0u64;
        while used + (header_bytes as u64) < budget {
            let avail = budget - used - header_bytes as u64;
            let Some((mut sdu, from_promoted)) = self.pop_next() else {
                break;
            };
            let take = (sdu.remaining() as u64).min(avail) as u32;
            if take == 0 {
                // Not even one payload byte fits; put it back untouched.
                self.unpop(sdu, from_promoted);
                break;
            }
            out.push(RlcSegment {
                sdu_id: sdu.id,
                flow_id: sdu.flow_id,
                tuple: sdu.tuple,
                offset: sdu.offset,
                len: take,
                sdu_len: sdu.len,
                seq: sdu.seq + sdu.offset as u64,
                pdcp_sn: None,
                arrival: sdu.arrival,
            });
            sdu.offset += take;
            used += take as u64 + header_bytes as u64;
            if sdu.remaining() > 0 {
                // Partial: requeue for the next opportunity.
                if self.promote_segments {
                    self.promoted_bytes += sdu.remaining() as u64;
                    with_buffer(&mut self.promoted, &mut self.spare).push_front(sdu);
                } else {
                    let level = (sdu.priority.0 as usize).min(self.queues.len() - 1);
                    self.add_level_bytes(level, sdu.remaining() as u64);
                    self.queues[level].push_front(sdu);
                }
                self.n_sdus += 1;
                break; // budget necessarily exhausted
            }
        }
        // Only now: a level is empty between `pop_next` and the requeue
        // of a partly sent SDU, and releasing there would reallocate
        // every TTI for a backlogged UE.
        self.release_drained();
        used
    }

    /// Give back the buffer of every empty level and of an empty
    /// `promoted` — at the end of an operation that took SDUs out.
    fn release_drained(&mut self) {
        for q in &mut self.queues {
            release_if_empty(q, &mut self.spare);
        }
        release_if_empty(&mut self.promoted, &mut self.spare);
    }

    /// Buffer slots held by empty levels and an empty `promoted`: zero
    /// after every operation — a memory probe for tests.
    #[doc(hidden)]
    pub fn idle_capacity(&self) -> usize {
        let queues = self.queues.iter().chain(std::iter::once(&self.promoted));
        queues
            .filter(|q| q.is_empty())
            .map(VecDeque::capacity)
            .sum()
    }

    /// Pop the next SDU in service order, accounting bytes out.
    fn pop_next(&mut self) -> Option<(RlcSdu, bool)> {
        if let Some(sdu) = self.promoted.pop_front() {
            self.promoted_bytes -= sdu.remaining() as u64;
            self.n_sdus -= 1;
            return Some((sdu, true));
        }
        for level in 0..self.queues.len() {
            if let Some(sdu) = self.queues[level].pop_front() {
                self.sub_level_bytes(level, sdu.remaining() as u64);
                self.n_sdus -= 1;
                return Some((sdu, false));
            }
        }
        None
    }

    /// Undo a [`MlfqQueues::pop_next`].
    fn unpop(&mut self, sdu: RlcSdu, from_promoted: bool) {
        if from_promoted {
            self.promoted_bytes += sdu.remaining() as u64;
            self.promoted.push_front(sdu);
        } else {
            let level = (sdu.priority.0 as usize).min(self.queues.len() - 1);
            self.add_level_bytes(level, sdu.remaining() as u64);
            self.queues[level].push_front(sdu);
        }
        self.n_sdus += 1;
    }

    /// Current SDU capacity.
    pub fn capacity(&self) -> usize {
        self.capacity_sdus
    }

    /// Change the SDU capacity at runtime (mid-run buffer shrink). When
    /// the buffer is over the new bound, SDUs are shed worst-priority-
    /// tail first (promoted partials last — evicting a partial guarantees
    /// a receiver-side reassembly failure, so they go only when whole
    /// SDUs cannot cover the overshoot). Returns the evicted SDUs so the
    /// caller can account the lost bytes.
    pub fn set_capacity(&mut self, capacity_sdus: usize) -> Vec<RlcSdu> {
        self.capacity_sdus = capacity_sdus;
        let mut evicted = Vec::new();
        while self.n_sdus > self.capacity_sdus {
            let victim_level = (0..self.queues.len())
                .rev()
                .find(|&l| !self.queues[l].is_empty());
            let victim = match victim_level {
                Some(l) => match self.queues[l].pop_back() {
                    Some(v) => {
                        self.sub_level_bytes(l, v.remaining() as u64);
                        v
                    }
                    None => break, // unreachable: l was found non-empty
                },
                None => match self.promoted.pop_back() {
                    Some(v) => {
                        self.promoted_bytes -= v.remaining() as u64;
                        v
                    }
                    None => break, // n_sdus drifted from queue contents
                },
            };
            self.n_sdus -= 1;
            evicted.push(victim);
        }
        self.release_drained();
        evicted
    }

    /// Drain every queued SDU (RLC re-establishment). Returns the flushed
    /// SDUs so the caller can account the lost bytes.
    pub fn flush(&mut self) -> Vec<RlcSdu> {
        let mut out: Vec<RlcSdu> = std::mem::take(&mut self.promoted).into();
        for q in &mut self.queues {
            out.extend(std::mem::take(q));
        }
        self.promoted_bytes = 0;
        self.bytes.iter_mut().for_each(|b| *b = 0);
        self.occupied = 0;
        self.n_sdus = 0;
        out
    }

    /// Iterate over all queued SDUs (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = &RlcSdu> {
        self.promoted.iter().chain(self.queues.iter().flatten())
    }

    /// Arrival time of the oldest SDU at the head of any level — the
    /// head-of-line sojourn anchor the CQA baseline weighs by. Within a
    /// level SDUs are FIFO, so per-level heads bound the minimum.
    pub fn oldest_head_arrival(&self) -> Option<outran_simcore::Time> {
        self.promoted
            .front()
            .map(|s| s.arrival)
            .into_iter()
            .chain(
                self.queues
                    .iter()
                    .filter_map(|q| q.front().map(|s| s.arrival)),
            )
            .min()
    }
}

use outran_simcore::snap::SnapError;
use outran_simcore::snap_fields;

impl MlfqQueues {
    /// Rebuild the byte/occupancy aggregates from the restored SDUs,
    /// guaranteeing internal consistency.
    fn rebuild_aggregates(&mut self) -> Result<(), SnapError> {
        self.bytes = self
            .queues
            .iter()
            .map(|q| q.iter().map(|s| s.remaining() as u64).sum())
            .collect();
        self.occupied = 0;
        for (level, &b) in self.bytes.iter().enumerate() {
            if b > 0 {
                self.occupied |= 1 << level;
            }
        }
        self.promoted_bytes = self.promoted.iter().map(|s| s.remaining() as u64).sum();
        self.n_sdus = self.promoted.len() + self.queues.iter().map(VecDeque::len).sum::<usize>();
        self.release_drained();
        Ok(())
    }
}

/// Take an empty queue's buffer away: into a free `spare` if the buffer
/// is small, else back to the allocator.
fn release_if_empty(q: &mut VecDeque<RlcSdu>, spare: &mut [VecDeque<RlcSdu>]) {
    if q.is_empty() && q.capacity() > 0 {
        let buf = std::mem::take(q);
        if buf.capacity() <= SPARE_SLOTS {
            if let Some(free) = spare.iter_mut().find(|s| s.capacity() == 0) {
                *free = buf;
            }
        }
    }
}

/// `q`, given a spare buffer if it has none of its own.
fn with_buffer<'q>(
    q: &'q mut VecDeque<RlcSdu>,
    spare: &mut [VecDeque<RlcSdu>],
) -> &'q mut VecDeque<RlcSdu> {
    if q.capacity() == 0 {
        if let Some(s) = spare.iter_mut().find(|s| s.capacity() > 0) {
            std::mem::swap(q, s);
        }
    }
    q
}

// Only the SDUs themselves and the capacity (it can shrink mid-run
// under a buffer fault) go to the wire. The owner constructs the queues
// from its RLC configuration, which fixes the level count and the two
// policy switches.
snap_fields! {
    overlay MlfqQueues { queues: fixed, promoted, capacity_sdus }
    rebuilt { bytes, occupied, promoted_bytes, n_sdus, spare, promote_segments, pushout }
    then MlfqQueues::rebuild_aggregates
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_pdcp::FiveTuple;
    use outran_simcore::Time;

    fn sdu(id: u64, len: u32, prio: u8) -> RlcSdu {
        RlcSdu {
            id,
            flow_id: id / 100,
            tuple: FiveTuple::simulated(id / 100, 0),
            len,
            offset: 0,
            priority: Priority(prio),
            arrival: Time::ZERO,
            seq: 0,
        }
    }

    #[test]
    fn set_capacity_sheds_worst_priority_first() {
        let mut q = MlfqQueues::new(4, 8);
        for i in 0..6u64 {
            // Priorities 0,0,1,1,2,2 — higher number = worse.
            q.push(sdu(i, 100, (i / 2) as u8)).unwrap();
        }
        let evicted = q.set_capacity(3);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.len_sdus(), 3);
        assert_eq!(evicted.len(), 3);
        // Shed from the worst (highest) priority levels first.
        assert!(evicted.iter().all(|s| s.priority.0 >= 1), "{evicted:?}");
        assert_eq!(
            evicted.iter().filter(|s| s.priority.0 == 2).count(),
            2,
            "both P2 SDUs must go before any P1"
        );
        // Growing capacity back evicts nothing further.
        assert!(q.set_capacity(8).is_empty());
        assert_eq!(q.len_sdus(), 3);
    }

    #[test]
    fn flush_drains_everything() {
        let mut q = MlfqQueues::new(4, 16);
        for i in 0..5u64 {
            q.push(sdu(i, 80, (i % 4) as u8)).unwrap();
        }
        let flushed = q.flush();
        assert_eq!(flushed.len(), 5);
        assert_eq!(q.len_sdus(), 0);
        assert_eq!(q.queued_bytes(), 0);
        // The queue is reusable after a flush (re-establishment).
        q.push(sdu(9, 50, 0)).unwrap();
        assert_eq!(q.len_sdus(), 1);
    }

    #[test]
    fn strict_priority_order() {
        let mut q = MlfqQueues::new(4, 128);
        q.push(sdu(1, 100, 3)).unwrap();
        q.push(sdu(2, 100, 0)).unwrap();
        q.push(sdu(3, 100, 1)).unwrap();
        let (segs, used) = q.pull(10_000, 0);
        assert_eq!(used, 300);
        let ids: Vec<u64> = segs.iter().map(|s| s.sdu_id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn fifo_within_level() {
        let mut q = MlfqQueues::new(4, 128);
        for id in 1..=5 {
            q.push(sdu(id, 50, 1)).unwrap();
        }
        let (segs, _) = q.pull(10_000, 0);
        let ids: Vec<u64> = segs.iter().map(|s| s.sdu_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn segmentation_and_promotion() {
        let mut q = MlfqQueues::new(4, 128);
        q.push(sdu(1, 1500, 2)).unwrap(); // low priority, big
        let (segs, used) = q.pull(600, 0);
        assert_eq!(used, 600);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].offset, 0);
        assert_eq!(segs[0].len, 600);
        assert!(!segs[0].is_last());
        // A high-priority SDU arrives; the promoted segment must still win.
        q.push(sdu(2, 100, 0)).unwrap();
        assert_eq!(q.head_priority(), Some(Priority::TOP));
        let (segs2, _) = q.pull(10_000, 0);
        assert_eq!(segs2[0].sdu_id, 1);
        assert_eq!(segs2[0].offset, 600);
        assert!(segs2[0].is_last());
        assert_eq!(segs2[1].sdu_id, 2);
    }

    #[test]
    fn no_promotion_keeps_segment_at_own_level() {
        let mut q = MlfqQueues::new(4, 128);
        q.set_promote_segments(false);
        q.push(sdu(1, 1500, 2)).unwrap();
        let _ = q.pull(600, 0);
        q.push(sdu(2, 100, 0)).unwrap();
        // Without promotion, the fresh P1 SDU preempts the leftover.
        let (segs, _) = q.pull(10_000, 0);
        assert_eq!(segs[0].sdu_id, 2);
        assert_eq!(segs[1].sdu_id, 1);
        assert_eq!(segs[1].offset, 600);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = MlfqQueues::new(4, 3);
        for id in 0..3 {
            q.push(sdu(id, 100, 0)).unwrap();
        }
        assert!(q.push(sdu(99, 100, 0)).is_err());
        assert_eq!(q.len_sdus(), 3);
    }

    #[test]
    fn byte_accounting_consistent() {
        let mut q = MlfqQueues::new(4, 128);
        q.push(sdu(1, 1000, 0)).unwrap();
        q.push(sdu(2, 500, 2)).unwrap();
        assert_eq!(q.queued_bytes(), 1500);
        assert_eq!(q.bytes_per_priority(), vec![1000, 0, 500, 0]);
        let (_, used) = q.pull(700, 0);
        assert_eq!(used, 700);
        assert_eq!(q.queued_bytes(), 800);
        // 300 left of SDU 1, promoted => counts at level 0.
        assert_eq!(q.bytes_per_priority(), vec![300, 0, 500, 0]);
        let (_, used2) = q.pull(10_000, 0);
        assert_eq!(used2, 800);
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
    }

    #[test]
    fn header_overhead_charged_per_segment() {
        let mut q = MlfqQueues::new(1, 128);
        q.push(sdu(1, 100, 0)).unwrap();
        q.push(sdu(2, 100, 0)).unwrap();
        // Budget 110 with 5-byte headers: the first segment consumes
        // 5 + 100 = 105 and no payload byte fits after the next header.
        let (segs, used) = q.pull(110, 5);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 100);
        assert_eq!(used, 105);
        // A budget of 116 fits 100 payload + header and then 6 payload
        // bytes of the second SDU after its header.
        let (segs2, used2) = q.pull(11, 5);
        assert_eq!(segs2.len(), 1);
        assert_eq!(segs2[0].len, 6);
        assert_eq!(used2, 11);
        assert_eq!(q.queued_bytes(), 94);
    }

    #[test]
    fn budget_smaller_than_header_yields_nothing() {
        let mut q = MlfqQueues::new(1, 128);
        q.push(sdu(1, 100, 0)).unwrap();
        let (segs, used) = q.pull(4, 5);
        assert!(segs.is_empty());
        assert_eq!(used, 0);
        assert_eq!(q.len_sdus(), 1);
    }

    #[test]
    fn clamps_priority_to_levels() {
        let mut q = MlfqQueues::new(1, 128);
        q.push(sdu(1, 100, 3)).unwrap(); // clamped to level 0
        assert_eq!(q.head_priority(), Some(Priority::TOP));
        let (segs, _) = q.pull(1000, 0);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn occupancy_bitmask_matches_byte_scan() {
        // The O(1) head_priority must agree with a linear scan of the
        // per-level byte counters through pushes, partial pulls,
        // capacity shrinks, and flushes.
        let check = |q: &MlfqQueues| {
            let scan: u64 = q
                .bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b > 0)
                .fold(0u64, |m, (l, _)| m | 1 << l);
            assert_eq!(q.occupied, scan, "bitmask diverged from bytes");
        };
        let mut q = MlfqQueues::new(4, 4);
        check(&q);
        for i in 0..4u64 {
            q.push(sdu(i, 200, (i % 4) as u8)).unwrap();
            check(&q);
        }
        let _ = q.push(sdu(9, 100, 0)); // push-out of a worse victim
        check(&q);
        let _ = q.pull(250, 0); // partial pull promotes a remainder
        check(&q);
        let _ = q.set_capacity(1);
        check(&q);
        let _ = q.flush();
        check(&q);
        assert_eq!(q.head_priority(), None);
    }

    /// The buffer a level (or `promoted`) holds, as an address.
    fn buffer(q: &VecDeque<RlcSdu>) -> *const RlcSdu {
        q.as_slices().0.as_ptr()
    }

    #[test]
    fn a_partly_sent_sdu_keeps_its_buffer_across_pulls() {
        for (k, promote) in [(4, true), (4, false), (1, true), (1, false)] {
            let mut q = MlfqQueues::new(k, 128);
            q.set_promote_segments(promote);
            q.push(sdu(1, 10_000, 2)).unwrap();
            let _ = q.pull(600, 0);
            // Where the remainder waits: promoted, or its own level (P2,
            // clamped to the levels there are).
            let holder = |q: &MlfqQueues| {
                let q = if promote {
                    &q.promoted
                } else {
                    &q.queues[2.min(k - 1)]
                };
                (buffer(q), q.capacity())
            };
            let first = holder(&q);
            assert!(first.1 > 0, "k {k} promote {promote}: no buffer");
            for round in 0..10 {
                let (segs, used) = q.pull(600, 0);
                assert_eq!((segs.len(), used), (1, 600));
                assert_eq!(holder(&q), first, "k {k} promote {promote} round {round}");
                assert_eq!(q.idle_capacity(), 0);
            }
            let _ = q.pull(u64::MAX, 0);
            assert!(q.is_empty());
            assert_eq!(holder(&q).1, 0, "a drained level keeps its buffer");
        }
    }

    /// No empty level, nor an empty `promoted`, holds a buffer, and the
    /// spares are small.
    fn assert_drained_levels_hold_nothing(q: &MlfqQueues, what: &str) {
        let all = q.queues.iter().chain(std::iter::once(&q.promoted));
        for (l, level) in all.enumerate() {
            assert!(
                !level.is_empty() || level.capacity() == 0,
                "{what}: empty level {l} holds {}",
                level.capacity()
            );
        }
        assert_eq!(q.idle_capacity(), 0, "{what}");
        assert!(q
            .spare
            .iter()
            .all(|s| s.is_empty() && s.capacity() <= SPARE_SLOTS));
    }

    #[test]
    fn a_level_that_refills_takes_a_drained_buffer_back() {
        let mut q = MlfqQueues::new(4, 128);
        for i in 0..3 {
            q.push(sdu(i, 100, 1)).unwrap();
        }
        let spares = |q: &MlfqQueues| q.spare.each_ref().map(VecDeque::capacity);
        let _ = q.pull(u64::MAX, 0);
        assert_eq!((q.queues[1].capacity(), spares(&q)), (0, [4, 0]));
        // The next level to fill, any level, takes the drained buffer.
        q.push(sdu(9, 100, 3)).unwrap();
        assert_eq!((q.queues[3].capacity(), spares(&q)), (4, [0, 0]));
        // A burst's buffer goes back to the allocator, not to a spare.
        for i in 10..40 {
            q.push(sdu(i, 100, 2)).unwrap();
        }
        let _ = q.pull(u64::MAX, 0);
        assert_drained_levels_hold_nothing(&q, "after a burst");
        assert_eq!(q.spare.iter().map(VecDeque::capacity).max(), Some(4));
    }

    #[test]
    fn emptied_levels_give_their_buffers_back() {
        // A partial in `promoted` and whole SDUs on every level.
        let filled = || {
            let mut q = MlfqQueues::new(4, 64);
            q.push(sdu(1, 1_000, 0)).unwrap();
            let _ = q.pull(300, 0);
            for i in 2..40u64 {
                q.push(sdu(i, 100, (i % 4) as u8)).unwrap();
            }
            assert!(!q.promoted.is_empty() && q.queues.iter().all(|l| l.len() >= 9));
            q
        };
        let mut q = filled();
        assert_eq!(q.flush().len(), 39);
        assert_drained_levels_hold_nothing(&q, "flush");
        assert!(q.promoted.capacity() == 0 && q.queues.iter().all(|l| l.capacity() == 0));

        // Shedding down to 10 SDUs empties levels 3, 2 and 1 (9–10 each).
        let mut q = filled();
        assert_eq!(q.set_capacity(10).len(), 29);
        assert!(q.queues[3].is_empty() && q.queues[2].is_empty());
        assert_drained_levels_hold_nothing(&q, "set_capacity");
        assert_eq!(q.set_capacity(0).len(), 10);
        assert_drained_levels_hold_nothing(&q, "set_capacity to zero");

        // Push-out takes level 3's only SDU.
        let mut q = MlfqQueues::new(4, 2);
        q.push(sdu(1, 100, 0)).unwrap();
        q.push(sdu(2, 100, 3)).unwrap();
        let victim = q.push(sdu(3, 100, 1)).unwrap_err();
        assert_eq!(victim.id, 2);
        assert_drained_levels_hold_nothing(&q, "push-out");

        // A pull that drains levels leaves none of their buffers.
        let mut q = filled();
        let _ = q.pull(2_000, 0);
        assert_drained_levels_hold_nothing(&q, "pull");
        let _ = q.pull(u64::MAX, 0);
        assert!(q.is_empty());
        assert_drained_levels_hold_nothing(&q, "pull to empty");
    }

    #[test]
    fn head_priority_tracks_occupancy() {
        let mut q = MlfqQueues::new(4, 128);
        assert_eq!(q.head_priority(), None);
        q.push(sdu(1, 100, 2)).unwrap();
        assert_eq!(q.head_priority(), Some(Priority(2)));
        q.push(sdu(2, 100, 1)).unwrap();
        assert_eq!(q.head_priority(), Some(Priority(1)));
        let _ = q.pull(10_000, 0);
        assert_eq!(q.head_priority(), None);
    }
}
