//! Deterministic fault injection and runtime invariant auditing.
//!
//! This crate owns three concerns, deliberately separated from the cell
//! so that fault logic stays testable in isolation:
//!
//! * [`plan`] — a seeded, scripted timeline of fault events ([`FaultPlan`])
//!   that the cell consults each TTI. Same plan + same seed ⇒ bit-for-bit
//!   identical runs.
//! * [`audit`] — an [`InvariantAuditor`] that checks conservation and
//!   ordering invariants every N TTIs and at end-of-run, reporting
//!   structured [`Violation`]s instead of panicking mid-simulation.
//! * [`stats`] — counters ([`FaultStats`]) describing what was injected
//!   and what the recovery paths did, surfaced in metric summaries.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod audit;
pub mod handover;
pub mod plan;
pub mod stats;

pub use audit::{AuditSnapshot, ByteLedger, InvariantAuditor, Violation, ViolationKind};
pub use handover::HandoverStats;
pub use plan::{ActiveFaults, FaultKind, FaultPlan, FaultWindow};
pub use stats::FaultStats;
