//! # outran-pdcp
//!
//! The Packet Data Convergence Protocol layer of the xNodeB user plane,
//! extended with OutRAN's flow machinery (paper §4.2 and §4.4, Appendix B
//! implementation notes).
//!
//! Responsibilities reproduced from srsENB's PDCP plus the OutRAN patch:
//!
//! * **Flow identification** ([`packet`]) — the five-tuple key each
//!   ingress packet carries. Packets are metadata records, so the key
//!   travels with them instead of being parsed out of header bytes.
//! * **Per-flow state** ([`flow_table`]) — a hash table keyed by
//!   five-tuple holding `sent-bytes` so far (the 41-byte state of §7),
//!   from which the MLFQ priority of the flow is derived.
//! * **MLFQ marking** ([`flow_table::FlowTable::observe`]) — a new flow
//!   starts at priority P1 and is demoted each time its cumulative bytes
//!   cross a threshold α_i; "Priority Boost" resets (§6.3).
//!
//! §4.4's delayed SN numbering and ciphering has no counterpart: with no
//! payload bytes there is nothing to number or cipher, and no COUNT that
//! MLFQ reordering could desynchronise (`DESIGN.md`, "Why there is no
//! PDCP SN").

//!
//! # Example
//!
//! ```
//! use outran_pdcp::{FlowTable, MlfqConfig, FiveTuple, Priority};
//! use outran_simcore::Time;
//!
//! let mut table = FlowTable::new(MlfqConfig::new(vec![10_000, 100_000]));
//! let flow = FiveTuple::simulated(1, 0);
//! // A fresh flow starts at the top priority...
//! assert_eq!(table.observe(flow, 1_500, Time::ZERO), Priority::TOP);
//! // ...and demotes once its sent-bytes cross the first threshold.
//! for _ in 0..7 { table.observe(flow, 1_500, Time::ZERO); }
//! assert_eq!(table.priority_of(&flow), Priority(1));
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod flow_table;
pub mod packet;

pub use flow_table::{FlowTable, MlfqConfig, Priority};
pub use packet::FiveTuple;
