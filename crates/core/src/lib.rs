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
//! * **PDCP** (`outran-pdcp`) — five-tuple inspection and the per-flow
//!   sent-bytes table that drives MLFQ priorities (§4.2), plus delayed SN
//!   numbering & ciphering (§4.4).
//! * **RLC** (`outran-rlc`) — the per-UE MLFQ replacing the FIFO tx
//!   queue (intra-user flow scheduler, §4.2), segmented-SDU promotion,
//!   and AM-mode queue precedence (§4.4).
//! * **MAC** (`outran-mac`) — the ε-relaxed inter-user re-selection
//!   (Algorithm 1, §4.3).
//!
//! This crate adds:
//!
//! * [`OutRanConfig`] — every knob of the system with the paper's
//!   defaults (ε = 0.2, K = 4 queues, promotion on, delayed SN, no
//!   priority reset), plus builders that hand ready-made pieces to the
//!   cell simulator.
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
//! assert_eq!(cfg.epsilon, 0.2);
//! // ...and PIAS-style thresholds for a given flow-size distribution.
//! let cdf = FlowSizeDist::Websearch.cdf();
//! let alphas = optimize_thresholds(&cdf, 4, 0.6);
//! assert_eq!(alphas.len(), 3);
//! assert!(alphas.windows(2).all(|w| w[0] < w[1]));
//! ```
#![warn(missing_docs)]

pub mod reset;
pub mod thresholds;

use outran_mac::OutRanScheduler;
use outran_pdcp::{MlfqConfig, SnMode};
use outran_rlc::{AmConfig, UmConfig};
use outran_simcore::{Dur, Time};

pub use reset::PriorityReset;
pub use thresholds::optimize_thresholds;

/// Complete OutRAN configuration with the paper's defaults.
#[derive(Debug, Clone)]
pub struct OutRanConfig {
    /// Inter-user relaxation threshold ε (§4.3; default 0.2, "steady
    /// performance for ε < 0.4").
    pub epsilon: f64,
    /// MLFQ queue count K (§4.2: steady for K > 4; default 4).
    pub mlfq_queues: usize,
    /// Demotion thresholds; `None` = run [`optimize_thresholds`] against
    /// the LTE cellular distribution at build time.
    pub thresholds: Option<Vec<u64>>,
    /// §6.3 priority-reset period S (`None` = disabled, the default).
    pub reset_period: Option<Dur>,
    /// SN numbering mode; OutRAN requires [`SnMode::Delayed`] (§4.4).
    pub sn_mode: SnMode,
    /// Segmented-SDU promotion (§4.4; default on).
    pub promote_segments: bool,
    /// Priority push-out on buffer overflow (default on; off = the
    /// legacy drop-tail, an ablation knob).
    pub pushout: bool,
    /// RLC tx buffer capacity in SDUs (srsENB default 128).
    pub buffer_sdus: usize,
    /// Per-segment RLC/MAC header overhead in bytes.
    pub header_bytes: u32,
    /// PF fairness window T_f the underlying legacy scheduler uses.
    pub fairness_window: Dur,
    /// UM receiver reassembly window (t-Reassembly). The §4.4
    /// segmented-SDU promotion exists to keep partially-sent SDUs from
    /// overrunning this window.
    pub reassembly_window: Dur,
}

impl Default for OutRanConfig {
    fn default() -> Self {
        OutRanConfig {
            epsilon: OutRanScheduler::DEFAULT_EPSILON,
            mlfq_queues: 4,
            thresholds: None,
            reset_period: None,
            sn_mode: SnMode::Delayed,
            promote_segments: true,
            pushout: true,
            buffer_sdus: 128,
            header_bytes: 3,
            fairness_window: Dur::from_millis(1000),
            reassembly_window: Dur::from_millis(50),
        }
    }
}

impl OutRanConfig {
    /// The ε = 0 variant: intra-user scheduling only (used by the
    /// Fig 18b ablation and the Fig 7 ε = 0 comparison).
    pub fn intra_only() -> OutRanConfig {
        OutRanConfig {
            epsilon: 0.0,
            ..OutRanConfig::default()
        }
    }

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

    /// RLC UM configuration for this policy.
    pub fn um_config(&self) -> UmConfig {
        UmConfig {
            mlfq_levels: self.mlfq_queues,
            capacity_sdus: self.buffer_sdus,
            header_bytes: self.header_bytes,
            reassembly_window: self.reassembly_window,
            promote_segments: self.promote_segments,
            pushout: self.pushout,
        }
    }

    /// RLC AM configuration for this policy (§6.3 case study).
    pub fn am_config(&self) -> AmConfig {
        AmConfig {
            mlfq_levels: self.mlfq_queues,
            capacity_sdus: self.buffer_sdus,
            header_bytes: self.header_bytes.max(5),
            promote_segments: self.promote_segments,
            pushout: self.pushout,
            ..AmConfig::default()
        }
    }

    /// The MAC scheduler (Algorithm 1 over PF with T_f).
    pub fn mac_scheduler(&self, n_ues: usize, tti: Dur) -> OutRanScheduler {
        OutRanScheduler::over_pf(n_ues, self.fairness_window, tti, self.epsilon)
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
        assert!((c.epsilon - 0.2).abs() < 1e-12);
        assert_eq!(c.mlfq_queues, 4);
        assert_eq!(c.buffer_sdus, 128);
        assert_eq!(c.sn_mode, SnMode::Delayed);
        assert!(c.promote_segments);
        assert!(c.reset_period.is_none());
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

    #[test]
    fn builders_are_consistent() {
        let c = OutRanConfig::default();
        let um = c.um_config();
        assert_eq!(um.mlfq_levels, 4);
        assert_eq!(um.capacity_sdus, 128);
        let am = c.am_config();
        assert_eq!(am.mlfq_levels, 4);
        let sched = c.mac_scheduler(8, Dur::from_millis(1));
        assert!((sched.epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn intra_only_is_epsilon_zero() {
        let c = OutRanConfig::intra_only();
        assert_eq!(c.epsilon, 0.0);
        let sched = c.mac_scheduler(4, Dur::from_millis(1));
        assert_eq!(sched.epsilon(), 0.0);
    }
}
