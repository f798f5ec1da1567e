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
//!   the paper's defaults (K = 4 queues, promotion and push-out on, no
//!   priority reset). ε travels with the scheduler selection and the
//!   RLC buffer size and PF window T_f with the cell configuration
//!   (`outran-ran`), so each is stored once.
//! * [`thresholds`] — the MLFQ demotion-threshold optimizer. The paper
//!   "referred to the solution method presented in PIAS, which solves
//!   the optimization problem of finding the MLFQ thresholds … using the
//!   global optimization toolbox in SciPy" (§4.2); we implement the same
//!   queueing-theoretic objective with a deterministic coordinate-descent
//!   solver in pure Rust.
//! * [`reset`] — the §6.3 "Priority Boost" safety measure.

//!
//! # Example
//!
//! ```
//! use outran_core::{optimize_thresholds, OutRanConfig};
//! use outran_workload::FlowSizeDist;
//!
//! // The paper's default policy...
//! let cfg = OutRanConfig::default();
//! assert_eq!(cfg.mlfq_queues, 4);
//! // ...and PIAS-style thresholds for a given flow-size distribution.
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

/// OutRAN policy configuration with the paper's defaults.
#[derive(Debug, Clone)]
pub struct OutRanConfig {
    /// MLFQ queue count K (§4.2: steady for K > 4; default 4).
    pub mlfq_queues: usize,
    /// Demotion thresholds; `None` = run [`optimize_thresholds`] against
    /// the LTE cellular distribution at build time.
    pub thresholds: Option<Vec<u64>>,
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
            mlfq_queues: 4,
            thresholds: None,
            reset_period: None,
            promote_segments: true,
            pushout: true,
            header_bytes: 3,
            reassembly_window: Dur::from_millis(50),
        }
    }
}

impl OutRanConfig {
    /// Resolve the MLFQ thresholds (explicit, or optimized for the LTE
    /// cellular distribution at 60 % load as the paper's defaults were).
    pub fn resolve_mlfq(&self) -> MlfqConfig {
        match &self.thresholds {
            Some(t) => MlfqConfig::new(t.clone()),
            None => {
                let cdf = outran_workload::FlowSizeDist::LteCellular.cdf();
                MlfqConfig::new(optimize_thresholds(&cdf, self.mlfq_queues, 0.6))
            }
        }
    }

    /// The priority-reset driver, if configured.
    pub fn priority_reset(&self, start: Time) -> Option<PriorityReset> {
        self.reset_period.map(|p| PriorityReset::new(p, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OutRanConfig::default();
        assert_eq!(c.mlfq_queues, 4);
        assert!(c.thresholds.is_none());
        assert!(c.reset_period.is_none());
        assert!(c.promote_segments);
        assert!(c.pushout);
        assert_eq!(c.header_bytes, 3);
        assert_eq!(c.reassembly_window, Dur::from_millis(50));
    }

    #[test]
    fn resolve_mlfq_has_k_minus_1_thresholds() {
        let c = OutRanConfig::default();
        let mlfq = c.resolve_mlfq();
        assert_eq!(mlfq.num_queues(), 4);
        assert_eq!(mlfq.thresholds.len(), 3);
        // Strictly increasing is enforced by MlfqConfig::new already;
        // sanity-check the range is sane for the LTE distribution.
        assert!(mlfq.thresholds[0] >= 1_000);
        assert!(mlfq.thresholds[0] <= 100_000);
    }

    #[test]
    fn explicit_thresholds_pass_through() {
        let c = OutRanConfig {
            thresholds: Some(vec![1_000, 2_000, 3_000]),
            ..OutRanConfig::default()
        };
        assert_eq!(c.resolve_mlfq().thresholds, vec![1_000, 2_000, 3_000]);
    }
}
