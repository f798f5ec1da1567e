//! # outran-mac
//!
//! The MAC-layer downlink resource scheduler of the xNodeB — the place
//! where, every TTI, the available Resource Blocks are distributed among
//! users (paper §4.1), and where OutRAN's **inter-user flow scheduler**
//! (§4.3, Algorithm 1) re-selects users within the ε-relaxed metric band.
//!
//! All schedulers share the practical per-RB-metric architecture of
//! §4.1 — for each RB, score the users and give the RB to the best —
//! and allocate through one RB-grid walk ([`cache`]), the only code that
//! skips the RBs a GBR grant holds. PF, MT and the OutRAN family are one
//! type, [`OutRanScheduler`], a PF or MT metric core with or without
//! Algorithm 1's second iteration:
//!
//! | constructor | per-RB metric | picks | paper role |
//! |---|---|---|---|
//! | [`PfScheduler::with_tf`] | `r_{u,b} / r̃_u` (EWMA window = fairness window T_f) | per subband, cached | the de-facto baseline |
//! | [`OutRanScheduler::mt`] | `r_{u,b}` | per subband, cached | max-throughput extreme of the T_f sweep |
//! | [`OutRanScheduler::over_pf`], [`OutRanScheduler::over_mt`] | either, then re-selection by MLFQ head in the ε-band | per subband, cached | the paper's contribution (ε = 1: strict MLFQ) |
//! | [`pf::RrScheduler`] | round-robin over active users | per free RB | small-T_f extreme |
//! | [`srjf::SrjfScheduler`] | oracle: min remaining flow size, channel-blind | per free RB | the §3 motivation / upper bound |
//! | [`qos::PssScheduler`] | PF restricted to the QoS (delay-budget) set first | per subband, cached | QoS-aware baseline (NS-3 PSS) |
//! | [`qos::CqaScheduler`] | PF × HOL-delay urgency, weighed once per TTI | per subband, cached | QoS-aware baseline (NS-3 CQA) |
//!
//! # Example
//!
//! ```
//! use outran_mac::{OutRanScheduler, Scheduler, UeTti};
//! use outran_mac::types::FlatRates;
//! use outran_pdcp::Priority;
//! use outran_simcore::Time;
//!
//! // Two users with near-equal channels; the one holding a P1 (short)
//! // flow wins the RBs under the e-relaxed re-selection.
//! let rates = FlatRates { per_ue: vec![100.0, 95.0], rbs: 4 };
//! let mk = |prio| UeTti {
//!     active: true, head_priority: Some(Priority(prio)),
//!     queued_bytes: 10_000, ..UeTti::idle()
//! };
//! let ues = vec![mk(2), mk(0)];
//! let mut sched = OutRanScheduler::over_mt(0.2);
//! let alloc = sched.allocate(Time::ZERO, &ues, &rates);
//! assert!(alloc.rb_to_ue.iter().all(|&u| u == Some(1)));
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod cache;
pub mod outran;
pub mod pf;
pub mod qos;
pub mod rates;
pub mod srjf;
pub mod types;

pub use cache::SubbandMetricCache;
pub use outran::{OutRanScheduler, PfScheduler};
pub use pf::{PfCore, RrScheduler};
pub use qos::{CqaScheduler, PssScheduler};
pub use rates::TtiRates;
pub use srjf::{SrjfMode, SrjfScheduler};
pub use types::{Allocation, RateSource, Scheduler, UeTti};
