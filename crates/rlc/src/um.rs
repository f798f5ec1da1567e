//! RLC Unacknowledged Mode.
//!
//! UM "provides unidirectional data transfer and only has a tx buffer"
//! (§4.4). It is the paper's default mode: no link-layer retransmission,
//! losses are left to TCP. The moving parts reproduced here:
//!
//! * **Transmitter** ([`UmTx`]) — the per-UE MLFQ tx buffer (or legacy
//!   FIFO), capped at the srsENB default capacity of 128 SDUs (§6.1
//!   "maximum buffer size of the RLC UM entity is set to the default
//!   value of srsENB"). Overflow = drop-tail, which the sender's TCP
//!   perceives as congestion loss — this is precisely the bufferbloat
//!   interaction the motivation section (§3) studies.
//! * **Receiver** ([`UmRx`]) — reassembles segmented SDUs; a partial SDU
//!   whose remaining segments do not arrive within the reassembly window
//!   is discarded (TS 38.322 t-Reassembly), the §4.4 hazard that makes
//!   segment promotion necessary.

use std::collections::BTreeMap;

use outran_pdcp::Priority;
use outran_simcore::{Dur, Time};

use crate::mlfq::MlfqQueues;
use crate::sdu::{RlcSdu, RlcSegment};

/// UM entity configuration.
#[derive(Debug, Clone, Copy)]
pub struct UmConfig {
    /// MLFQ levels (1 = legacy FIFO).
    pub mlfq_levels: usize,
    /// Tx buffer capacity in SDUs (srsENB default 128).
    pub capacity_sdus: usize,
    /// RLC+MAC header overhead charged per emitted segment.
    pub header_bytes: u32,
    /// Receiver reassembly window (t-Reassembly).
    pub reassembly_window: Dur,
    /// §4.4 segmented-SDU promotion.
    pub promote_segments: bool,
    /// Priority push-out on overflow (vs drop-tail).
    pub pushout: bool,
}

impl Default for UmConfig {
    fn default() -> Self {
        UmConfig {
            mlfq_levels: 4,
            capacity_sdus: 128,
            header_bytes: 3,
            reassembly_window: Dur::from_millis(50),
            promote_segments: true,
            pushout: true,
        }
    }
}

/// UM transmitting entity for one UE/bearer.
#[derive(Debug, Clone)]
pub struct UmTx {
    cfg: UmConfig,
    queues: MlfqQueues,
    /// SDUs dropped at the full buffer (drop-tail), for diagnostics.
    pub dropped_sdus: u64,
}

impl UmTx {
    /// Create a transmitter.
    pub fn new(cfg: UmConfig) -> UmTx {
        let mut queues = MlfqQueues::new(cfg.mlfq_levels, cfg.capacity_sdus);
        queues.set_promote_segments(cfg.promote_segments);
        queues.set_pushout(cfg.pushout);
        UmTx {
            cfg,
            queues,
            dropped_sdus: 0,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &UmConfig {
        &self.cfg
    }

    /// Enqueue an SDU; `Err` carries the SDU back when the buffer is full
    /// (the caller treats it as a congestion drop).
    pub fn write_sdu(&mut self, sdu: RlcSdu) -> Result<(), RlcSdu> {
        self.queues.push(sdu).inspect_err(|_s| {
            self.dropped_sdus += 1;
        })
    }

    /// Serve a transmission opportunity of `budget` bytes; returns the
    /// emitted segments and bytes consumed.
    pub fn pull(&mut self, budget: u64) -> (Vec<RlcSegment>, u64) {
        self.queues.pull(budget, self.cfg.header_bytes)
    }

    /// Like [`UmTx::pull`], but appends into a caller-owned scratch
    /// vector (hot-path variant). Returns the bytes consumed.
    pub fn pull_into(&mut self, out: &mut Vec<RlcSegment>, budget: u64) -> u64 {
        self.queues.pull_into(out, budget, self.cfg.header_bytes)
    }

    /// The user priority of eq. (2).
    pub fn head_priority(&self) -> Option<Priority> {
        self.queues.head_priority()
    }

    /// Queued bytes.
    pub fn queued_bytes(&self) -> u64 {
        self.queues.queued_bytes()
    }

    /// Queued SDUs.
    pub fn len_sdus(&self) -> usize {
        self.queues.len_sdus()
    }

    /// Whether the tx buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Current tx-buffer capacity in SDUs.
    pub fn capacity_sdus(&self) -> usize {
        self.queues.capacity()
    }

    /// Clamp the tx buffer to `capacity_sdus`, shedding overflow worst-
    /// priority first (mid-run buffer shrink fault). Returns
    /// `(sdus, bytes)` shed.
    pub fn set_capacity(&mut self, capacity_sdus: usize) -> (u64, u64) {
        let evicted = self.queues.set_capacity(capacity_sdus);
        let bytes: u64 = evicted.iter().map(|s| s.remaining() as u64).sum();
        self.dropped_sdus += evicted.len() as u64;
        (evicted.len() as u64, bytes)
    }

    /// RLC re-establishment (TS 38.322 §5.1.2): discard the whole tx
    /// buffer; upper layers (TCP) refill via retransmission. Returns
    /// `(sdus, bytes)` flushed.
    pub fn reestablish(&mut self) -> (u64, u64) {
        let flushed = self.queues.flush();
        let bytes: u64 = flushed.iter().map(|s| s.remaining() as u64).sum();
        (flushed.len() as u64, bytes)
    }

    /// Oldest head-of-line arrival across the MLFQ (CQA's d_HOL anchor).
    pub fn oldest_head_arrival(&self) -> Option<Time> {
        self.queues.oldest_head_arrival()
    }

    /// See [`MlfqQueues::idle_capacity`].
    #[doc(hidden)]
    pub fn idle_capacity(&self) -> usize {
        self.queues.idle_capacity()
    }
}

/// A fully reassembled SDU delivered up to PDCP/transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredSdu {
    /// SDU identity.
    pub sdu_id: u64,
    /// Flow the SDU belongs to.
    pub flow_id: u64,
    /// SDU length in bytes.
    pub len: u32,
    /// Transport sequence of the first byte.
    pub seq: u64,
}

#[derive(Debug, Clone)]
struct Partial {
    /// Bytes received so far: segments arrive in offset order.
    next_offset: u32,
    sdu_len: u32,
    flow_id: u64,
    seq: u64,
    deadline: Time,
}

/// UM receiving entity (UE side).
#[derive(Debug, Clone, Default)]
pub struct UmRx {
    /// Keyed by SDU id, ordered so held-bytes accounting and expiry
    /// sweeps traverse deterministically (hashed maps are refused by
    /// `clippy.toml`).
    partials: BTreeMap<u64, Partial>,
    /// SDUs discarded because the reassembly window expired (§4.4 hazard).
    pub discarded_sdus: u64,
    /// Payload bytes that reached this receiver but were discarded with
    /// their SDU (expiry or gap abort) — byte-conservation accounting.
    pub discarded_bytes: u64,
    window: Dur,
}

impl UmRx {
    /// Create a receiver with the given reassembly window.
    pub fn new(window: Dur) -> UmRx {
        UmRx {
            partials: BTreeMap::new(),
            discarded_sdus: 0,
            discarded_bytes: 0,
            window,
        }
    }

    /// Process one arriving segment; returns the SDU if it completed.
    ///
    /// Out-of-order or gapped segments within an SDU abort that SDU's
    /// reassembly (UM has no retransmission to fill gaps — TS 38.322
    /// discards on reassembly failure).
    pub fn on_segment(&mut self, seg: &RlcSegment, now: Time) -> Option<DeliveredSdu> {
        self.expire(now);
        if seg.is_whole() {
            return Some(DeliveredSdu {
                sdu_id: seg.sdu_id,
                flow_id: seg.flow_id,
                len: seg.sdu_len,
                seq: seg.seq,
            });
        }
        let p = self.partials.entry(seg.sdu_id).or_insert(Partial {
            next_offset: 0,
            sdu_len: seg.sdu_len,
            flow_id: seg.flow_id,
            seq: seg.seq - seg.offset as u64,
            deadline: now + self.window,
        });
        if seg.offset != p.next_offset {
            // Gap (a middle segment was lost): reassembly cannot succeed.
            let held = p.next_offset;
            self.partials.remove(&seg.sdu_id);
            self.discarded_sdus += 1;
            self.discarded_bytes += held as u64 + seg.len as u64;
            return None;
        }
        p.next_offset += seg.len;
        if p.next_offset == p.sdu_len {
            let p = self.partials.remove(&seg.sdu_id)?;
            return Some(DeliveredSdu {
                sdu_id: seg.sdu_id,
                flow_id: p.flow_id,
                len: p.sdu_len,
                seq: p.seq,
            });
        }
        None
    }

    /// Drop partials whose reassembly window expired; returns how many
    /// SDUs were discarded by this sweep.
    pub fn expire(&mut self, now: Time) -> u64 {
        let before = self.partials.len();
        let mut freed = 0u64;
        self.partials.retain(|_, p| {
            if p.deadline > now {
                true
            } else {
                freed += p.next_offset as u64;
                false
            }
        });
        let dropped = (before - self.partials.len()) as u64;
        self.discarded_sdus += dropped;
        self.discarded_bytes += freed;
        dropped
    }

    /// Number of SDUs currently awaiting more segments.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Payload bytes currently held in partial reassemblies.
    pub fn held_bytes(&self) -> u64 {
        self.partials.values().map(|p| p.next_offset as u64).sum()
    }

    /// RLC re-establishment: drop every partial reassembly. Returns
    /// `(sdus, bytes)` discarded.
    pub fn reestablish(&mut self) -> (u64, u64) {
        let sdus = self.partials.len() as u64;
        let bytes = self.held_bytes();
        self.partials.clear();
        self.discarded_sdus += sdus;
        self.discarded_bytes += bytes;
        (sdus, bytes)
    }
}

use outran_simcore::snap_fields;

// The config is re-established by the owner via [`UmTx::new`].
snap_fields! { overlay UmTx { queues, dropped_sdus } rebuilt { cfg } }

// What reassembly keeps true: the bytes received fall short of the SDU
// (a complete one is delivered), and the SDU's bytes fit the transport
// sequence space.
snap_fields! {
    Partial {
        next_offset in lt(sdu_len), sdu_len,
        flow_id in index(flows), seq in counter, deadline,
    }
}

// BTreeMap iteration is key-ordered, so the byte stream is deterministic.
// The window is configuration: the owner constructs the receiver from it.
snap_fields! {
    overlay UmRx { partials, discarded_sdus in counter, discarded_bytes in counter }
    rebuilt { window }
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
            seq: id * 100_000,
        }
    }

    #[test]
    fn whole_sdu_roundtrip() {
        let mut tx = UmTx::new(UmConfig {
            header_bytes: 0,
            ..UmConfig::default()
        });
        let mut rx = UmRx::new(Dur::from_millis(50));
        tx.write_sdu(sdu(1, 1500, 0)).unwrap();
        let (segs, _) = tx.pull(10_000);
        assert_eq!(segs.len(), 1);
        let got = rx.on_segment(&segs[0], Time::ZERO).unwrap();
        assert_eq!(got.sdu_id, 1);
        assert_eq!(got.len, 1500);
        assert_eq!(got.seq, 100_000);
    }

    #[test]
    fn segmented_roundtrip() {
        let mut tx = UmTx::new(UmConfig {
            header_bytes: 0,
            ..UmConfig::default()
        });
        let mut rx = UmRx::new(Dur::from_millis(50));
        tx.write_sdu(sdu(1, 3000, 1)).unwrap();
        let mut delivered = None;
        let mut t = Time::ZERO;
        for _ in 0..5 {
            let (segs, _) = tx.pull(700);
            for s in &segs {
                if let Some(d) = rx.on_segment(s, t) {
                    delivered = Some(d);
                }
            }
            t += Dur::from_millis(1);
        }
        let d = delivered.expect("SDU must complete");
        assert_eq!(d.len, 3000);
        assert_eq!(rx.discarded_sdus, 0);
    }

    #[test]
    fn reassembly_window_discards_stale_partial() {
        let mut tx = UmTx::new(UmConfig {
            header_bytes: 0,
            ..UmConfig::default()
        });
        let mut rx = UmRx::new(Dur::from_millis(50));
        tx.write_sdu(sdu(1, 3000, 0)).unwrap();
        let (segs, _) = tx.pull(700);
        assert!(rx.on_segment(&segs[0], Time::ZERO).is_none());
        assert_eq!(rx.pending(), 1);
        // Window expires before the rest arrives.
        rx.expire(Time::from_millis(60));
        assert_eq!(rx.pending(), 0);
        assert_eq!(rx.discarded_sdus, 1);
        // Remaining segments of the dead SDU now open a fresh partial that
        // can never complete (offset gap) and is discarded immediately.
        let (segs2, _) = tx.pull(10_000);
        let mut any = false;
        for s in &segs2 {
            any |= rx.on_segment(s, Time::from_millis(61)).is_some();
        }
        assert!(!any);
    }

    #[test]
    fn gap_aborts_reassembly() {
        let mut tx = UmTx::new(UmConfig {
            header_bytes: 0,
            ..UmConfig::default()
        });
        let mut rx = UmRx::new(Dur::from_millis(50));
        tx.write_sdu(sdu(7, 2100, 0)).unwrap();
        let (a, _) = tx.pull(700);
        let (b, _) = tx.pull(700);
        let (c, _) = tx.pull(700);
        assert!(rx.on_segment(&a[0], Time::ZERO).is_none());
        // b lost on the air.
        let _ = b;
        assert!(rx.on_segment(&c[0], Time::ZERO).is_none());
        assert_eq!(rx.discarded_sdus, 1);
        assert_eq!(rx.pending(), 0);
    }

    #[test]
    fn buffer_cap_drops() {
        let mut tx = UmTx::new(UmConfig {
            capacity_sdus: 2,
            ..UmConfig::default()
        });
        tx.write_sdu(sdu(1, 100, 0)).unwrap();
        tx.write_sdu(sdu(2, 100, 0)).unwrap();
        assert!(tx.write_sdu(sdu(3, 100, 0)).is_err());
        assert_eq!(tx.dropped_sdus, 1);
        assert_eq!(tx.len_sdus(), 2);
    }

    #[test]
    fn reports_queued_bytes_and_head_priority() {
        let mut tx = UmTx::new(UmConfig::default());
        tx.write_sdu(sdu(1, 900, 2)).unwrap();
        assert_eq!(tx.head_priority(), Some(Priority(2)));
        tx.write_sdu(sdu(2, 100, 0)).unwrap();
        assert_eq!(tx.queued_bytes(), 1000);
        assert_eq!(tx.head_priority(), Some(Priority(0)));
    }

    #[test]
    fn legacy_config_is_fifo() {
        let mut tx = UmTx::new(UmConfig {
            mlfq_levels: 1,
            ..UmConfig::default()
        });
        tx.write_sdu(sdu(1, 100, 3)).unwrap();
        tx.write_sdu(sdu(2, 100, 0)).unwrap();
        let (segs, _) = tx.pull(10_000);
        let ids: Vec<u64> = segs.iter().map(|s| s.sdu_id).collect();
        assert_eq!(ids, vec![1, 2], "legacy FIFO must not reorder");
    }
}
