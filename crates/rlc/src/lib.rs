//! # outran-rlc
//!
//! The Radio Link Control layer of the xNodeB user plane, carrying
//! OutRAN's **intra-user flow scheduler** (paper §4.2) and the RLC-level
//! integration details of §4.4.
//!
//! What this crate reproduces from srsRAN's RLC plus the OutRAN patch:
//!
//! * [`sdu`] — RLC SDUs (one per PDCP PDU / IP packet) and the segments
//!   produced when a transmission opportunity is smaller than the head
//!   SDU (segmentation & concatenation, Figure 9).
//! * [`mlfq`] — the per-UE Multi-Level Feedback Queue replacing the FIFO
//!   `tx_sdu_queue`: K strict-priority queues, SDUs enqueued at the
//!   priority marked by PDCP, **segmented-SDU promotion** to the head of
//!   P1 so a partially-sent SDU can never be trapped behind later
//!   arrivals and miss the receiver's reassembly window (§4.4).
//! * [`um`] — Unacknowledged Mode: unidirectional transfer, tx buffer
//!   capped at the srsENB default of 128 SDUs, receiver-side reassembly
//!   window with discard of stale partials.
//! * [`am`] — Acknowledged Mode: the Retx ≻ Tx strict priority of
//!   TS 38.322 (no uplink data, so no Ctrl queue to serve first),
//!   poll-driven STATUS reporting, NACK-triggered retransmission; OutRAN
//!   schedules only the Tx queue, within the opportunity bytes left after
//!   Retx (§4.4, §6.3 case study).
//!
//! Appendix B's Buffer Status Report "with the 'priority' attribute" is
//! not a separate message here: the MAC reads each UE's queued bytes
//! (`queued_bytes` / `pending_bytes`) and head priority
//! (`head_priority`, O(1) on the MLFQ's occupancy bitmask) straight from
//! its entity, without building a per-priority vector.

//!
//! # Example
//!
//! ```
//! use outran_rlc::{UmConfig, UmTx, UmRx, RlcSdu};
//! use outran_pdcp::{FiveTuple, Priority};
//! use outran_simcore::{Dur, Time};
//!
//! let mut tx = UmTx::new(UmConfig { header_bytes: 0, ..UmConfig::default() });
//! let mut rx = UmRx::new(Dur::from_millis(50));
//! tx.write_sdu(RlcSdu {
//!     id: 1, flow_id: 7, tuple: FiveTuple::simulated(7, 0),
//!     len: 3000, offset: 0, priority: Priority::TOP,
//!     arrival: Time::ZERO, seq: 0,
//! }).unwrap();
//! // Two transmission opportunities segment and reassemble the SDU.
//! let (segs, _) = tx.pull(2000);
//! assert!(rx.on_segment(&segs[0], Time::ZERO).is_none());
//! let (segs, _) = tx.pull(2000);
//! let delivered = rx.on_segment(&segs[0], Time::from_millis(1)).unwrap();
//! assert_eq!(delivered.len, 3000);
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod am;
pub mod mlfq;
pub mod sdu;
pub mod um;

pub use am::{AmConfig, AmRx, AmTx, StatusPdu};
pub use mlfq::MlfqQueues;
pub use sdu::{RlcSdu, RlcSegment};
pub use um::{UmConfig, UmRx, UmTx};
