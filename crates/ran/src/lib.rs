//! # outran-ran
//!
//! The end-to-end cell simulator assembling every substrate into the
//! paper's evaluation topology (Figure 11b):
//!
//! ```text
//! remote server ──wired (10 ms)── CN/P-GW ── xNodeB ──air── UEs
//!      TCP senders                          PDCP → RLC → MAC → PHY
//! ```
//!
//! * [`qos`] — the 3GPP QCI/5QI profile model behind Table 1: why all
//!   internet traffic lands on the default best-effort bearer.
//! * [`cell`] — the single-cell discrete-event simulator: TTI-clocked
//!   MAC/PHY with event-driven flow arrivals, TCP feedback, RLC UM/AM,
//!   OutRAN or any baseline scheduler.
//! * [`experiment`] — a builder + report API over [`cell`] for the
//!   common "Poisson flows at load ρ, measure FCT/SE/fairness" pattern
//!   used by most figures.
//! * [`webplt`] — the browser page-load driver for the PLT experiments
//!   (Figures 12/21/22): object fetches over a loaded cell, ≤6
//!   concurrent connections, HTML-first, render time.
//! * [`network`] — the coupled radio network: shared hex-grid geometry,
//!   load-coupled interference and deterministic A3 handover.
//! * [`pool`] — a std-only scoped-thread worker pool for fanning
//!   independent experiment cells across cores with bit-identical
//!   results versus serial execution.
//! * [`work`] — the deterministic work counters of a cell or network.
//!
//! [`experiment`] (cell-owned geometry) and [`network`] (network-owned)
//! are the two run harnesses; Figure 19's four separate-carrier cells
//! are plain [`cell`]s its bench binary fans across the [`pool`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod cell;
pub mod checkpoint;
pub mod config;
pub mod experiment;
pub mod network;
pub mod pool;
pub mod qos;
pub mod stages;
pub mod webplt;
pub mod work;

pub use cell::{Cell, CellConfig, FlowDone, RlcMode, SchedulerKind};
pub use checkpoint::CheckpointMeta;
pub use experiment::{Experiment, ExperimentReport};
pub use network::{Network, NetworkReport, NetworkRun};
pub use pool::{default_threads, parallel_map};
pub use qos::{AppKind, BearerKind, QosProfile, TrafficClass};
pub use work::WorkCounters;
