//! # outran-phy
//!
//! The radio substrate of the OutRAN reproduction: everything below the
//! MAC scheduler's per-RB metric.
//!
//! The paper's systems obtain channel state three ways — real USRP
//! radios over the air, Colosseum RF emulation, and 3GPP TS 36.141 fading
//! traces fed to srsENB / NS-3. All of them ultimately hand the MAC
//! scheduler one thing: an *achievable rate per Resource Block per user*,
//! derived from CQI reports. This crate synthesises that signal with the
//! same structure:
//!
//! ```text
//! position ──► path loss ──┐
//! shadowing (log-normal) ──┼──► per-subband SINR ──► CQI ──► MCS
//! fast fading (Rayleigh,   │        │                          │
//!   time- & freq-selective)┘        └──► BLER (truth)          └──► bits/RB
//! ```
//!
//! * [`numerology`] — LTE and 5G NR µ0–µ3 frame parameters (TTI length,
//!   subchannel width, RB counts; paper §4.1 and Figure 5).
//! * [`cqi`] — the 3GPP 36.213 CQI→(modulation, code rate, efficiency)
//!   tables (64-QAM and 256-QAM variants) and an SINR→CQI mapping.
//! * [`fading`] — Gauss–Markov Rayleigh fading with Doppler-derived
//!   coherence time and per-subband frequency selectivity.
//! * [`channel`] — the composed per-UE channel: SINR, reported CQI (with
//!   reporting period and delay), achievable per-RB rate, and a BLER
//!   truth model for link-layer loss.
//! * [`mobility`] — random-walk mobility (pedestrian 1.4 m/s, §6.2).
//! * [`geometry`] — multi-site layouts (hex grids), global UE
//!   coordinates, neighbor RSRP and load-coupled interference for the
//!   network layer.
//! * [`scenario`] — presets reproducing the paper's environments:
//!   the LTE pedestrian cell (Fig 2b's Medium/Good/Excellent mix), the
//!   NR urban cell, and Colosseum-like Rome/Boston/POWDER profiles
//!   (Fig 19's close/moderate, close/fast, medium/static).

//!
//! # Example
//!
//! ```
//! use outran_phy::{channel::{CellChannel, ChannelConfig}};
//! use outran_simcore::{Rng, Time};
//!
//! let cfg = ChannelConfig::lte_default();
//! let mut cell = CellChannel::new(cfg, 4, &Rng::new(7));
//! cell.advance_tti(Time::from_millis(1));
//! // The scheduler consumes per-RB achievable rates (bits per TTI).
//! let r = cell.reported_rate_per_rb(0, 10);
//! assert!(r >= 0.0);
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod bler;
pub mod channel;
pub mod cqi;
pub mod fading;
pub mod geometry;
pub mod harq;
pub mod mobility;
pub mod numerology;
pub mod scenario;

pub use channel::{CellChannel, ChannelConfig, ChannelWork};
pub use cqi::{Cqi, CqiTable};
pub use numerology::{Numerology, RadioConfig};
pub use scenario::Scenario;
