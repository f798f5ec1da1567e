//! # outran-metrics
//!
//! Measurement machinery for the evaluation:
//!
//! * [`fct`] — flow completion time collection with the paper's size
//!   buckets: S = (0, 10 KB], M = (10 KB, 0.1 MB], L = (0.1 MB, ∞)
//!   (Figure 15 captions), means and percentiles per bucket.
//! * [`cell`] — per-TTI cell telemetry: spectral efficiency (bit/s/Hz)
//!   and Jain's fairness index of the long-term average per-UE
//!   throughput (eq. 3), sampled every 50 TTIs as in Figure 7; plus
//!   queueing-delay accounting for the Figure 17 columns.
//! * [`mod@paired`] — the paired estimator over seeds: quartiles of the
//!   per-seed ratios candidate ÷ base and a sign-test count.
//! * [`table`] — plain-text table/series renderers so each bench binary
//!   prints rows directly comparable to the paper's tables and figures.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod cell;
pub mod fct;
pub mod paired;
pub mod table;

pub use cell::{cdf, CellMetrics};
pub use fct::{FctCollector, FctReport, SizeBucket};
pub use paired::{paired, Paired};
pub use table::Table;
