//! RLC Acknowledged Mode.
//!
//! AM "provides a bidirectional data transfer service and supports
//! link-layer retransmission" (§4.4) through queues of strictly
//! decreasing priority: the Ctrl Q (link-layer STATUS = ACK/NACK), the
//! Retx Q (PDUs NACKed or re-polled, awaiting retransmission) and the Tx
//! Q (fresh SDUs waiting for a first transmission opportunity). The
//! simulator carries no uplink data, so there is no reverse-direction
//! STATUS to queue: the transmitter models the Retx Q and the Tx Q, and
//! the receiver's STATUS for downlink data returns over the uplink delay.
//!
//! "OutRAN complies with the priority levels of each queue specified in
//! the 3GPP standard … we only apply intra & inter-user scheduling on the
//! TxQ and schedule the TxQ within the leftover tx opportunity bytes after
//! scheduling the Ctrl and the Retx Q. The per-flow state is kept only for
//! the TxQ." The Tx Q here is the same [`MlfqQueues`] the UM entity uses
//! (or a FIFO for the PF baseline).
//!
//! The retransmission protocol is an LTE-flavoured AM: every transmitted
//! PDU gets a sequence number; the receiver delivers in SN order and
//! reports `STATUS {ack_sn, nacks[]}` when polled (gated by
//! t-StatusProhibit); the transmitter moves NACKed PDUs to the Retx Q and
//! re-polls on t-PollRetransmit expiry — the mechanism §6.3 notes "could
//! generate unnecessary retransmissions \[55\] … wasting the bandwidth"
//! when timers are mis-set.

use std::collections::{BTreeMap, VecDeque};

use outran_pdcp::Priority;
use outran_simcore::{Dur, Time};

use crate::mlfq::MlfqQueues;
use crate::sdu::{RlcSdu, RlcSegment};
use crate::um::DeliveredSdu;

/// AM entity configuration (timer defaults follow the NS-3 LENA module,
/// as in the §6.3 case study).
#[derive(Debug, Clone, Copy)]
pub struct AmConfig {
    /// MLFQ levels for the Tx Q (1 = legacy FIFO).
    pub mlfq_levels: usize,
    /// Tx buffer capacity in SDUs.
    pub capacity_sdus: usize,
    /// Header bytes charged per PDU.
    pub header_bytes: u32,
    /// Poll every N data PDUs (pollPDU).
    pub poll_pdu: u32,
    /// Re-poll if no STATUS arrives within this time (t-PollRetransmit).
    pub t_poll_retransmit: Dur,
    /// Minimum spacing between STATUS reports (t-StatusProhibit).
    pub t_status_prohibit: Dur,
    /// Maximum retransmissions of one PDU before it is dropped
    /// (maxRetxThreshold).
    pub max_retx: u8,
    /// §4.4 segmented-SDU promotion on the Tx Q.
    pub promote_segments: bool,
    /// Priority push-out on overflow (vs drop-tail).
    pub pushout: bool,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            mlfq_levels: 4,
            capacity_sdus: 128,
            header_bytes: 5,
            poll_pdu: 4,
            t_poll_retransmit: Dur::from_millis(45),
            t_status_prohibit: Dur::from_millis(10),
            max_retx: 8,
            promote_segments: true,
            pushout: true,
        }
    }
}

/// The most gaps one STATUS PDU NACKs: LTE's AM window (TS 36.322
/// `AM_Window_Size`), the most SNs a 3GPP transmitter has outstanding.
/// A receiver restored with an SN far past what its transmitter sent
/// then reports one bounded list, not one NACK per SN in between.
pub const MAX_STATUS_NACKS: usize = 512;

/// A STATUS control PDU: cumulative ACK + selective NACKs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusPdu {
    /// All SNs below this are acknowledged…
    pub ack_sn: u32,
    /// …except these (received SNs above `ack_sn` imply the gaps listed).
    pub nacks: Vec<u32>,
}

/// A numbered AM data PDU (one RLC segment + AM header state).
#[derive(Debug, Clone)]
pub struct AmPdu {
    /// AM sequence number.
    pub sn: u32,
    /// The data carried.
    pub seg: RlcSegment,
    /// Poll bit: receiver must emit a STATUS when it sees this.
    pub poll: bool,
}

/// AM transmitting entity (eNodeB side for downlink).
#[derive(Debug, Clone)]
pub struct AmTx {
    cfg: AmConfig,
    txq: MlfqQueues,
    retxq: VecDeque<AmPdu>,
    /// Unacknowledged PDUs awaiting STATUS, by SN.
    flight: BTreeMap<u32, (AmPdu, u8)>,
    next_sn: u32,
    pdus_since_poll: u32,
    poll_outstanding: Option<Time>,
    /// PDUs abandoned after maxRetx (counts toward upper-layer loss).
    pub dropped_pdus: u64,
    /// SDUs dropped at the full Tx buffer.
    pub dropped_sdus: u64,
    /// Total retransmitted PDUs (diagnostics for the §6.3 discussion).
    pub retx_count: u64,
    /// Reusable buffers for `pull_into`/`on_status`: always drained
    /// before returning, never part of the snapshot.
    seg_scratch: Vec<RlcSegment>,
    ack_scratch: Vec<u32>,
}

impl AmTx {
    /// Create a transmitter.
    pub fn new(cfg: AmConfig) -> AmTx {
        let mut txq = MlfqQueues::new(cfg.mlfq_levels, cfg.capacity_sdus);
        txq.set_promote_segments(cfg.promote_segments);
        txq.set_pushout(cfg.pushout);
        AmTx {
            cfg,
            txq,
            retxq: VecDeque::new(),
            flight: BTreeMap::new(),
            next_sn: 0,
            pdus_since_poll: 0,
            poll_outstanding: None,
            dropped_pdus: 0,
            dropped_sdus: 0,
            retx_count: 0,
            seg_scratch: Vec::new(),
            ack_scratch: Vec::new(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &AmConfig {
        &self.cfg
    }

    /// Enqueue a fresh SDU into the Tx Q.
    pub fn write_sdu(&mut self, sdu: RlcSdu) -> Result<(), RlcSdu> {
        self.txq.push(sdu).inspect_err(|_s| {
            self.dropped_sdus += 1;
        })
    }

    /// Serve a transmission opportunity: Retx ≻ Tx (§4.4). Returns the
    /// data PDUs emitted and the bytes consumed.
    ///
    /// Allocating wrapper around [`AmTx::pull_into`]; hot per-TTI callers
    /// should pass a pooled buffer instead.
    pub fn pull(&mut self, budget: u64, now: Time) -> (Vec<AmPdu>, u64) {
        let mut out = Vec::new();
        let used = self.pull_into(&mut out, budget, now);
        (out, used)
    }

    /// Serve a transmission opportunity, appending emitted data PDUs to
    /// `out` (not cleared). Returns the bytes consumed.
    pub fn pull_into(&mut self, out: &mut Vec<AmPdu>, budget: u64, now: Time) -> u64 {
        let before = out.len();
        let mut used = 0u64;
        let hdr = self.cfg.header_bytes as u64;

        // 1. Retransmission queue (whole PDUs).
        while let Some(front) = self.retxq.front() {
            let cost = hdr + front.seg.len as u64;
            if used + cost > budget {
                break;
            }
            let Some(mut pdu) = self.retxq.pop_front() else {
                break;
            };
            used += cost;
            self.retx_count += 1;
            pdu.poll = self.should_poll(now);
            let retx = self.flight.get(&pdu.sn).map(|(_, r)| *r).unwrap_or(0);
            self.flight.insert(pdu.sn, (pdu.clone(), retx));
            out.push(pdu);
        }

        // 2. Tx queue (MLFQ / FIFO) within the leftover opportunity,
        // segmented into the reusable scratch buffer.
        if used < budget {
            let mut segs = std::mem::take(&mut self.seg_scratch);
            segs.clear();
            used += self
                .txq
                .pull_into(&mut segs, budget - used, self.cfg.header_bytes);
            for seg in segs.drain(..) {
                let sn = self.next_sn;
                self.next_sn = self.next_sn.wrapping_add(1);
                let poll = self.should_poll(now);
                let pdu = AmPdu { sn, seg, poll };
                self.flight.insert(sn, (pdu.clone(), 0));
                out.push(pdu);
            }
            self.seg_scratch = segs;
        }

        // Poll on buffer drain (standard trigger) if data went out unpolled.
        let emitted = &mut out[before..];
        if !emitted.is_empty()
            && self.txq.is_empty()
            && self.retxq.is_empty()
            && !emitted.iter().any(|p| p.poll)
        {
            if let Some(last) = emitted.last_mut() {
                last.poll = true;
                let sn = last.sn;
                if let Some((fp, _)) = self.flight.get_mut(&sn) {
                    fp.poll = true;
                }
            }
            self.poll_outstanding = Some(now + self.cfg.t_poll_retransmit);
        }

        used
    }

    fn should_poll(&mut self, now: Time) -> bool {
        self.pdus_since_poll += 1;
        if self.pdus_since_poll >= self.cfg.poll_pdu {
            self.pdus_since_poll = 0;
            self.poll_outstanding = Some(now + self.cfg.t_poll_retransmit);
            true
        } else {
            false
        }
    }

    /// Process a STATUS PDU from the receiver. Returns whether it
    /// abandoned a PDU at maxRetxThreshold: the receiver still waits for
    /// that SN, so the caller re-establishes both entities (TS 36.322
    /// §5.2.1 tells upper layers, TS 36.331 §5.3.11.3 declares radio link
    /// failure).
    pub fn on_status(&mut self, status: &StatusPdu) -> bool {
        self.poll_outstanding = None;
        let dropped = self.dropped_pdus;
        // Positive acknowledgement below ack_sn (minus explicit NACKs),
        // collected into the reusable scratch buffer.
        let mut acked = std::mem::take(&mut self.ack_scratch);
        acked.clear();
        acked.extend(
            self.flight
                .range(..status.ack_sn)
                .map(|(&sn, _)| sn)
                .filter(|sn| !status.nacks.contains(sn)),
        );
        for sn in acked.drain(..) {
            self.flight.remove(&sn);
        }
        self.ack_scratch = acked;
        // NACKs: schedule retransmission (unless already queued / expired).
        for &sn in &status.nacks {
            if let Some((pdu, retx)) = self.flight.get_mut(&sn) {
                if self.retxq.iter().any(|p| p.sn == sn) {
                    continue;
                }
                *retx += 1;
                if *retx > self.cfg.max_retx {
                    self.flight.remove(&sn);
                    self.dropped_pdus += 1;
                } else {
                    let p = pdu.clone();
                    self.retxq.push_back(p);
                }
            }
        }
        self.dropped_pdus > dropped
    }

    /// Timer maintenance: t-PollRetransmit expiry re-queues the earliest
    /// unacknowledged PDU with a fresh poll (the "unnecessary
    /// retransmissions" pathway of §6.3 when the timer is aggressive).
    ///
    /// The timer self-arms whenever PDUs are in flight without an
    /// outstanding poll — a STATUS can clear the poll while a *later*
    /// PDU (one past the receiver's highest seen SN) is still missing,
    /// and only the timer can recover that tail loss.
    pub fn on_tick(&mut self, now: Time) {
        if self.poll_outstanding.is_none() && !self.flight.is_empty() {
            self.poll_outstanding = Some(now + self.cfg.t_poll_retransmit);
            return;
        }
        if let Some(deadline) = self.poll_outstanding {
            if now >= deadline {
                self.poll_outstanding = None;
                if let Some((&sn, (pdu, _))) = self.flight.iter().next() {
                    if !self.retxq.iter().any(|p| p.sn == sn) {
                        let mut p = pdu.clone();
                        p.poll = true;
                        self.retxq.push_back(p);
                        self.poll_outstanding = Some(now + self.cfg.t_poll_retransmit);
                    }
                }
            }
        }
    }

    /// The eq. (2) user priority (Tx Q only: retx bytes are always
    /// served first and do not raise it).
    pub fn head_priority(&self) -> Option<Priority> {
        self.txq.head_priority()
    }

    /// Total pending bytes (retx with their headers + Tx Q), for the
    /// per-TTI MAC input scan.
    pub fn pending_bytes(&self) -> u64 {
        let retx_bytes: u64 = self
            .retxq
            .iter()
            .map(|p| p.seg.len as u64 + self.cfg.header_bytes as u64)
            .sum();
        retx_bytes + self.txq.queued_bytes()
    }

    /// Unacknowledged PDUs in flight.
    pub fn in_flight(&self) -> usize {
        self.flight.len()
    }

    /// Oldest head-of-line arrival across the Tx queue.
    pub fn oldest_head_arrival(&self) -> Option<Time> {
        self.txq.oldest_head_arrival()
    }

    /// See [`MlfqQueues::idle_capacity`].
    #[doc(hidden)]
    pub fn idle_capacity(&self) -> usize {
        self.txq.idle_capacity()
    }

    /// Whether every queue is drained and nothing is unacknowledged.
    pub fn is_idle(&self) -> bool {
        self.txq.is_empty() && self.retxq.is_empty()
    }

    /// Whether the entity is fully quiescent: all queues drained, nothing
    /// in flight, and no poll timer pending. A quiescent entity's
    /// [`AmTx::on_tick`] is a no-op at every future instant, so virtual
    /// time may skip over it without changing behaviour; a non-quiescent
    /// one still needs dense ticks (the poll timer self-arms or fires).
    pub fn is_quiescent(&self) -> bool {
        self.is_idle() && self.flight.is_empty() && self.poll_outstanding.is_none()
    }

    /// Current Tx-Q capacity in SDUs.
    pub fn capacity_sdus(&self) -> usize {
        self.txq.capacity()
    }

    /// Queued Tx-Q SDUs (whole + partial; excludes retx PDUs).
    pub fn len_sdus(&self) -> usize {
        self.txq.len_sdus()
    }

    /// Clamp the Tx Q to `capacity_sdus` (mid-run buffer shrink),
    /// shedding overflow worst-priority first. Returns `(sdus, bytes)`
    /// shed.
    pub fn set_capacity(&mut self, capacity_sdus: usize) -> (u64, u64) {
        let evicted = self.txq.set_capacity(capacity_sdus);
        let bytes: u64 = evicted.iter().map(|s| s.remaining() as u64).sum();
        self.dropped_sdus += evicted.len() as u64;
        (evicted.len() as u64, bytes)
    }

    /// RLC re-establishment (TS 36.322 §5.4): discard all queues and
    /// in-flight state, reset sequence numbers and timers. Upper layers
    /// (TCP) refill via retransmission. Returns `(sdus, bytes)` flushed
    /// (Tx-Q SDUs plus retransmission-queue PDUs).
    pub fn reestablish(&mut self) -> (u64, u64) {
        let flushed = self.txq.flush();
        let mut bytes: u64 = flushed.iter().map(|s| s.remaining() as u64).sum();
        let mut sdus = flushed.len() as u64;
        for p in self.retxq.drain(..) {
            bytes += p.seg.len as u64;
            sdus += 1;
        }
        self.flight.clear();
        self.next_sn = 0;
        self.pdus_since_poll = 0;
        self.poll_outstanding = None;
        (sdus, bytes)
    }
}

#[derive(Debug, Clone)]
struct RxPartial {
    /// Bytes received so far: segments arrive in offset order.
    next_offset: u32,
    sdu_len: u32,
    flow_id: u64,
    seq: u64,
}

/// AM receiving entity (UE side for downlink).
#[derive(Debug, Clone)]
pub struct AmRx {
    cfg: AmConfig,
    /// Buffered out-of-order PDUs awaiting in-order delivery.
    window: BTreeMap<u32, AmPdu>,
    rx_next: u32,
    highest_seen: Option<u32>,
    /// Keyed by SDU id, ordered for deterministic traversal (hashed
    /// maps are refused by `clippy.toml`).
    partials: BTreeMap<u64, RxPartial>,
    last_status_at: Option<Time>,
    status_requested: bool,
    /// SDUs delivered in order.
    pub delivered_count: u64,
}

impl AmRx {
    /// Create a receiver.
    pub fn new(cfg: AmConfig) -> AmRx {
        AmRx {
            cfg,
            window: BTreeMap::new(),
            rx_next: 0,
            highest_seen: None,
            partials: BTreeMap::new(),
            last_status_at: None,
            status_requested: false,
            delivered_count: 0,
        }
    }

    /// Process one arriving data PDU; returns SDUs that completed
    /// *in order*, plus a STATUS PDU when polled and permitted by
    /// t-StatusProhibit.
    ///
    /// Allocating wrapper around [`AmRx::on_pdu_into`]; hot per-TTI
    /// callers should pass a recycled buffer instead.
    pub fn on_pdu(&mut self, pdu: AmPdu, now: Time) -> (Vec<DeliveredSdu>, Option<StatusPdu>) {
        let mut delivered = Vec::new();
        let status = self.on_pdu_into(pdu, now, &mut delivered);
        (delivered, status)
    }

    /// Process one arriving data PDU, appending completed in-order SDUs
    /// to `delivered` (not cleared). Returns a STATUS PDU when polled
    /// and permitted by t-StatusProhibit.
    pub fn on_pdu_into(
        &mut self,
        pdu: AmPdu,
        now: Time,
        delivered: &mut Vec<DeliveredSdu>,
    ) -> Option<StatusPdu> {
        let before = delivered.len();
        if pdu.poll {
            self.status_requested = true;
        }
        self.highest_seen = Some(self.highest_seen.map_or(pdu.sn, |h| h.max(pdu.sn)));
        if pdu.sn >= self.rx_next {
            self.window.entry(pdu.sn).or_insert(pdu);
        }
        // In-order delivery: drain the contiguous prefix of the window.
        while let Some(p) = self.window.remove(&self.rx_next) {
            self.rx_next = self.rx_next.wrapping_add(1);
            if let Some(d) = self.reassemble(&p.seg) {
                delivered.push(d);
            }
        }
        self.delivered_count += (delivered.len() - before) as u64;
        self.maybe_status(now)
    }

    fn reassemble(&mut self, seg: &RlcSegment) -> Option<DeliveredSdu> {
        if seg.is_whole() {
            return Some(DeliveredSdu {
                sdu_id: seg.sdu_id,
                flow_id: seg.flow_id,
                len: seg.sdu_len,
                seq: seg.seq,
            });
        }
        let p = self.partials.entry(seg.sdu_id).or_insert(RxPartial {
            next_offset: 0,
            sdu_len: seg.sdu_len,
            flow_id: seg.flow_id,
            seq: seg.seq - seg.offset as u64,
        });
        // AM delivers PDUs in SN order, so segments arrive in offset
        // order. Only a restored state that contradicts its own segments
        // breaks that; the SDU is then lost, as a UM gap loses it.
        if seg.offset != p.next_offset {
            self.partials.remove(&seg.sdu_id);
            return None;
        }
        p.next_offset += seg.len;
        if p.next_offset == p.sdu_len {
            self.partials.remove(&seg.sdu_id).map(|p| DeliveredSdu {
                sdu_id: seg.sdu_id,
                flow_id: p.flow_id,
                len: p.sdu_len,
                seq: p.seq,
            })
        } else {
            None
        }
    }

    fn maybe_status(&mut self, now: Time) -> Option<StatusPdu> {
        if !self.status_requested {
            return None;
        }
        if let Some(last) = self.last_status_at {
            if now.saturating_since(last) < self.cfg.t_status_prohibit {
                return None; // prohibited; will fire on a later PDU/poll
            }
        }
        self.status_requested = false;
        self.last_status_at = Some(now);
        Some(self.build_status())
    }

    /// Build the current STATUS PDU (cumulative ACK + gap NACKs). It
    /// lists at most [`MAX_STATUS_NACKS`] gaps; past the last one listed
    /// it acknowledges nothing, so every SN below `ack_sn` is received
    /// or NACKed.
    fn build_status(&self) -> StatusPdu {
        // STATUS PDUs are occasional poll-paced control messages, not
        // per-TTI; the NACK list is owned by the uplink event.
        let mut nacks = Vec::new();
        let Some(high) = self.highest_seen else {
            return StatusPdu { ack_sn: 0, nacks };
        };
        for sn in self.rx_next..=high {
            if !self.window.contains_key(&sn) {
                if nacks.len() == MAX_STATUS_NACKS {
                    return StatusPdu { ack_sn: sn, nacks };
                }
                nacks.push(sn);
            }
        }
        StatusPdu {
            // Everything up to the highest seen is covered by the report:
            // received SNs are implicitly ACKed, gaps are NACKed.
            ack_sn: high.saturating_add(1),
            nacks,
        }
    }

    /// Payload bytes currently held (out-of-order window + partial
    /// reassemblies).
    pub fn held_bytes(&self) -> u64 {
        self.window.values().map(|p| p.seg.len as u64).sum::<u64>()
            + self
                .partials
                .values()
                .map(|p| p.next_offset as u64)
                .sum::<u64>()
    }

    /// RLC re-establishment: drop the reordering window and partial
    /// reassemblies, reset sequence state to match a re-established
    /// transmitter. Returns `(sdus, bytes)` discarded.
    pub fn reestablish(&mut self) -> (u64, u64) {
        let sdus = (self.window.len() + self.partials.len()) as u64;
        let bytes = self.held_bytes();
        self.window.clear();
        self.partials.clear();
        self.rx_next = 0;
        self.highest_seen = None;
        self.last_status_at = None;
        self.status_requested = false;
        (sdus, bytes)
    }
}

use outran_simcore::snap_fields;

snap_fields! { StatusPdu { ack_sn, nacks } }
snap_fields! { AmPdu { sn, seg, poll } }

// The config is re-established by the owner via [`AmTx::new`]; the
// scratch buffers are always drained before `pull_into`/`on_status`
// return.
snap_fields! {
    overlay AmTx {
        txq, retxq, flight, next_sn, pdus_since_poll in counter, poll_outstanding,
        dropped_pdus in counter, dropped_sdus in counter, retx_count in counter,
    }
    rebuilt { cfg, seg_scratch, ack_scratch }
}

// What in-order reassembly keeps true: the bytes received fall short of
// the SDU (a complete one is delivered), and the SDU's bytes fit the
// transport sequence space.
snap_fields! {
    RxPartial {
        next_offset in lt(sdu_len), sdu_len,
        flow_id in index(flows), seq in counter,
    }
}

// Both maps iterate in key order, so the byte stream is deterministic.
snap_fields! {
    overlay AmRx {
        window, rx_next, highest_seen, partials, last_status_at, status_requested,
        delivered_count in counter,
    }
    rebuilt { cfg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_pdcp::FiveTuple;

    fn sdu(id: u64, len: u32, prio: u8) -> RlcSdu {
        RlcSdu {
            id,
            flow_id: id,
            tuple: FiveTuple::simulated(id, 0),
            len,
            offset: 0,
            priority: Priority(prio),
            arrival: Time::ZERO,
            seq: id * 1_000_000,
        }
    }

    fn cfg0() -> AmConfig {
        AmConfig {
            header_bytes: 0,
            ..AmConfig::default()
        }
    }

    #[test]
    fn pending_bytes_counts_retx_and_tx() {
        let mut tx = AmTx::new(AmConfig::default());
        for i in 0..4 {
            tx.write_sdu(sdu(i, 1000, (i % 2) as u8)).unwrap();
        }
        assert_eq!(tx.pending_bytes(), 4000);
        // Two whole SDUs and 485 bytes of a third, 5 header bytes each.
        let _ = tx.pull(2500, Time::ZERO);
        assert_eq!(tx.pending_bytes(), 1515);
        // A NACKed PDU queues again with its header.
        assert!(!tx.on_status(&StatusPdu {
            ack_sn: 3,
            nacks: vec![0],
        }));
        assert_eq!(tx.pending_bytes(), 1515 + 1005);
    }

    #[test]
    fn max_retx_drops_pdu() {
        let mut cfg = cfg0();
        cfg.max_retx = 1;
        let mut tx = AmTx::new(cfg);
        tx.write_sdu(sdu(0, 100, 0)).unwrap();
        let _ = tx.pull(100_000, Time::ZERO);
        let nack = StatusPdu {
            ack_sn: 1,
            nacks: vec![0],
        };
        assert!(!tx.on_status(&nack)); // retx 1 queued
        let _ = tx.pull(100_000, Time::ZERO);
        assert!(tx.on_status(&nack)); // exceeds max_retx => dropped, reported
        assert_eq!(tx.dropped_pdus, 1);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn status_prohibit_rate_limits() {
        let mut cfg = cfg0();
        cfg.poll_pdu = 1; // poll on every PDU
        cfg.t_status_prohibit = Dur::from_millis(10);
        let mut tx = AmTx::new(cfg);
        let mut rx = AmRx::new(cfg);
        for i in 0..5 {
            tx.write_sdu(sdu(i, 100, 0)).unwrap();
        }
        let (pdus, _) = tx.pull(100_000, Time::ZERO);
        let mut statuses = 0;
        for (i, p) in pdus.into_iter().enumerate() {
            // All within 5 ms => only the first status escapes.
            let (_, s) = rx.on_pdu(p, Time::from_millis(i as u64));
            statuses += s.is_some() as u32;
        }
        assert_eq!(statuses, 1);
    }

    /// A PDU numbered far past the receiver's next expected SN — the
    /// top of the SN space included — yields one STATUS of at most
    /// `MAX_STATUS_NACKS` gaps, and every SN below its `ack_sn` is
    /// received or NACKed.
    #[test]
    fn status_nacks_are_bounded_by_the_am_window() {
        let mut tx = AmTx::new(cfg0());
        for i in 0..3 {
            tx.write_sdu(sdu(i, 100, 0)).unwrap();
        }
        let (pdus, _) = tx.pull(100_000, Time::ZERO);
        for far in [600, u32::MAX - 1, u32::MAX] {
            let mut rx = AmRx::new(cfg0());
            for (i, mut p) in pdus.iter().cloned().enumerate() {
                if i == 1 {
                    p.sn = far;
                }
                rx.on_pdu(p, Time::ZERO);
            }
            let status = rx.build_status();
            assert!(status.nacks.len() <= MAX_STATUS_NACKS, "{far}");
            assert_eq!(status.nacks.first(), Some(&1), "{far}");
            let received = [0, 2, far];
            for sn in 0..status.ack_sn {
                assert!(
                    received.contains(&sn) ^ status.nacks.contains(&sn),
                    "{sn} of {far}"
                );
            }
        }
    }
}
