//! # outran-workload
//!
//! Traffic generation for the OutRAN evaluation.
//!
//! * [`distributions`] — the flow-size distributions the paper draws
//!   from: the LTE cellular TCP distribution of Huang et al. \[41\]
//!   (Fig 2a: "90 % of flows are smaller than 35.9 KB"), the MIRAGE
//!   mobile-app distribution \[12\] used for 5G, the websearch
//!   distribution \[13\] used as heavy background traffic in the testbed
//!   (avg 1.92 MB), and the incast fixed-8 KB bursts of the §6.3 priority
//!   reset case study.
//! * [`arrivals`] — Poisson open-loop flow arrivals calibrated to a
//!   target cell load ("each UE requests … according to a Poisson
//!   process", §3/§6.1/§6.2).
//! * [`web`] — the Alexa-top-20 web page models behind Figures 12/21/22
//!   and Table 2: per-page total size, number of sub-flows, number of
//!   QUIC flows, and the QUIC five-tuple aggregation that exercises the
//!   §4.2 "Limitation" (persistent connections accumulating sent-bytes).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod arrivals;
pub mod distributions;
pub mod web;

pub use arrivals::{FlowArrival, PoissonFlowGen};
pub use distributions::FlowSizeDist;
pub use web::{BrowserModel, WebObject, WebPage};
