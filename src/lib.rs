//! # OutRAN — facade crate
//!
//! One-stop import for the OutRAN reproduction (CoNEXT '22: *"OutRAN:
//! Co-optimizing for Flow Completion Time in Radio Access Network"*).
//!
//! OutRAN is a downlink flow scheduler for LTE/5G base stations that
//! minimises short-flow Flow Completion Time (FCT) **without prior flow
//! knowledge** while preserving the legacy MAC scheduler's spectral
//! efficiency and user fairness. See `DESIGN.md` at the repository root for
//! the system inventory and `EXPERIMENTS.md` for the paper-vs-measured
//! results of every table and figure.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `outran-simcore` | virtual time, RNG, event queue, stats |
//! | [`phy`] | `outran-phy` | channel model, CQI/MCS, numerologies |
//! | [`pdcp`] | `outran-pdcp` | five-tuple flow keys, MLFQ marking |
//! | [`rlc`] | `outran-rlc` | UM/AM entities, segmentation, MLFQ queues |
//! | [`mac`] | `outran-mac` | per-RB schedulers incl. OutRAN inter-user |
//! | [`transport`] | `outran-transport` | TCP-Cubic endpoint model |
//! | [`workload`] | `outran-workload` | flow-size dists, arrivals, web pages |
//! | [`metrics`] | `outran-metrics` | FCT/fairness/SE collectors, tables |
//! | [`core`] | `outran-core` | the OutRAN scheduler itself + thresholds |
//! | [`ran`] | `outran-ran` | end-to-end cell simulator & experiments |
//!
//! ## Quickstart
//!
//! ```
//! use outran::ran::{Experiment, SchedulerKind};
//!
//! let report = Experiment::lte_default()
//!     .users(8)
//!     .load(0.6)
//!     .duration_secs(2)
//!     .scheduler(SchedulerKind::OutRan)
//!     .seed(7)
//!     .run();
//! println!("short-flow mean FCT: {:.1} ms", report.fct.short_mean_ms);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub use outran_core as core;
pub use outran_faults as faults;
pub use outran_mac as mac;
pub use outran_metrics as metrics;
pub use outran_pdcp as pdcp;
pub use outran_phy as phy;
pub use outran_ran as ran;
pub use outran_rlc as rlc;
pub use outran_simcore as simcore;
pub use outran_transport as transport;
pub use outran_workload as workload;
