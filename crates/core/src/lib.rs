//! # outran-core
//!
//! The paper's contribution, assembled: **OutRAN — a practical flow
//! scheduler for the Radio Access Network that co-optimizes Flow
//! Completion Time with the legacy cellular scheduler's objectives.**
//!
//! The mechanism spans three layers (Figure 5), each implemented in its
//! own substrate crate; this crate owns the *policy* and ties the pieces
//! together behind one configuration type:
//!
//! * **PDCP** (`outran-pdcp`) — five-tuple flow keys and the per-flow
//!   sent-bytes table that drives MLFQ priorities (§4.2). §4.4's delayed
//!   SN numbering has no counterpart: packets carry no bytes to number.
//! * **RLC** (`outran-rlc`) — the per-UE MLFQ replacing the FIFO tx
//!   queue (intra-user flow scheduler, §4.2), segmented-SDU promotion,
//!   and AM-mode queue precedence (§4.4).
//! * **MAC** (`outran-mac`) — the ε-relaxed inter-user re-selection
//!   (Algorithm 1, §4.3).
//!
//! This crate adds:
//!
//! * [`OutRanConfig`] — the policy knobs the cell simulator reads, with
//!   the paper's defaults (the K = 4 [`PAPER_THRESHOLDS`], promotion
//!   and push-out on, no priority reset). ε travels with the scheduler
//!   selection and the RLC buffer size and PF window T_f with the cell
//!   configuration (`outran-ran`), so each is stored once.
//! * [`thresholds`] — the MLFQ demotion-threshold optimizer. The paper
//!   "referred to the solution method presented in PIAS, which solves
//!   the optimization problem of finding the MLFQ thresholds … using the
//!   global optimization toolbox in SciPy" (§4.2); we implement the same
//!   queueing-theoretic objective with a deterministic coordinate-descent
//!   solver in pure Rust, and, as the paper did, solve it offline.
//! * [`reset`] — the §6.3 "Priority Boost" safety measure.

//!
//! # Example
//!
//! ```
//! use outran_core::{optimize_thresholds, OutRanConfig};
//! use outran_workload::FlowSizeDist;
//!
//! // The paper's default policy: K = 4 queues...
//! let cfg = OutRanConfig::default();
//! assert_eq!(cfg.thresholds.len() + 1, 4);
//! // ...and PIAS-style thresholds for another flow-size distribution.
//! let cdf = FlowSizeDist::Websearch.cdf();
//! let alphas = optimize_thresholds(&cdf, 4, 0.6);
//! assert_eq!(alphas.len(), 3);
//! assert!(alphas.windows(2).all(|w| w[0] < w[1]));
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod reset;
pub mod thresholds;

use outran_pdcp::MlfqConfig;
use outran_simcore::{Dur, Time};

pub use reset::PriorityReset;
pub use thresholds::optimize_thresholds;

/// The MLFQ demotion thresholds (bytes) [`optimize_thresholds`] finds
/// for the LTE cellular distribution with K = 4 queues at load 0.6 —
/// the paper's parameter choice (§4.2: steady for K > 4), recorded.
pub const PAPER_THRESHOLDS: [u64; 3] = [56_104, 1_305_684, 4_771_501];

/// OutRAN policy configuration with the paper's defaults.
#[derive(Debug, Clone)]
pub struct OutRanConfig {
    /// Demotion thresholds in bytes, strictly increasing; the queue
    /// count K is their number plus one. Default [`PAPER_THRESHOLDS`].
    pub thresholds: Vec<u64>,
    /// §6.3 priority-reset period S (`None` = disabled, the default).
    pub reset_period: Option<Dur>,
    /// Segmented-SDU promotion (§4.4; default on).
    pub promote_segments: bool,
    /// Priority push-out on buffer overflow (default on; off = the
    /// legacy drop-tail, an ablation knob).
    pub pushout: bool,
    /// Per-segment RLC/MAC header overhead in bytes.
    pub header_bytes: u32,
    /// UM receiver reassembly window (t-Reassembly). The §4.4
    /// segmented-SDU promotion exists to keep partially-sent SDUs from
    /// overrunning this window.
    pub reassembly_window: Dur,
}

impl Default for OutRanConfig {
    fn default() -> Self {
        OutRanConfig {
            thresholds: PAPER_THRESHOLDS.to_vec(),
            reset_period: None,
            promote_segments: true,
            pushout: true,
            header_bytes: 3,
            reassembly_window: Dur::from_millis(50),
        }
    }
}

impl OutRanConfig {
    /// The MLFQ marking configuration: K = `thresholds.len() + 1`
    /// queues (panics unless the thresholds strictly increase).
    pub fn resolve_mlfq(&self) -> MlfqConfig {
        MlfqConfig::new(self.thresholds.clone())
    }

    /// The priority-reset driver, if configured.
    pub fn priority_reset(&self, start: Time) -> Option<PriorityReset> {
        self.reset_period.map(|p| PriorityReset::new(p, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_workload::FlowSizeDist;

    #[test]
    fn defaults_match_paper() {
        let c = OutRanConfig::default();
        assert_eq!(c.thresholds, PAPER_THRESHOLDS);
        assert!(c.reset_period.is_none());
        assert!(c.promote_segments);
        assert!(c.pushout);
        assert_eq!(c.header_bytes, 3);
        assert_eq!(c.reassembly_window, Dur::from_millis(50));
    }

    /// The recorded default is the solver's answer for the paper's
    /// inputs, so the constant cannot drift from the model.
    #[test]
    fn default_thresholds_are_the_pias_solution() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        assert_eq!(
            OutRanConfig::default().thresholds,
            optimize_thresholds(&cdf, 4, 0.6)
        );
        assert_eq!(OutRanConfig::default().resolve_mlfq().num_queues(), 4);
    }

    #[test]
    fn explicit_thresholds_pass_through() {
        let c = OutRanConfig {
            thresholds: vec![1_000, 2_000, 3_000],
            ..OutRanConfig::default()
        };
        assert_eq!(c.resolve_mlfq().thresholds, vec![1_000, 2_000, 3_000]);
    }
}
