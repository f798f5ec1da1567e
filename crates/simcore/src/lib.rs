//! # outran-simcore
//!
//! Deterministic discrete-event simulation primitives shared by every other
//! crate in the OutRAN reproduction.
//!
//! The OutRAN evaluation (CoNEXT '22) mixes per-TTI clocked processing at
//! the base station with asynchronous events (Poisson flow arrivals, TCP
//! retransmission timers, wired-link deliveries). This crate provides the
//! glue for both styles:
//!
//! * [`Time`] / [`Dur`] — integer-nanosecond virtual time. No floats, no
//!   `std::time`: simulations are bit-for-bit reproducible.
//! * [`Rng`] — a self-contained xoshiro256** generator seeded explicitly.
//!   We implement it ourselves (no external generator crate) so the
//!   stream is stable across toolchains and platforms.
//! * [`math`] — `cos_tau` (private) and [`math::ln_positive`], the two
//!   elementary functions under [`Normal::fill`]: the second thing
//!   implemented locally so the stream can never change underneath us.
//!   The per-TTI fading draws go through them, so tap values no longer
//!   depend on which libm the host ships. [`math::cbrt`], correctly
//!   rounded, is Cubic's cube root, so the TCP sender does not depend on
//!   whether libm was linked statically or shared.
//! * [`EventQueue`] — a monotonic priority queue of `(Time, E)` events with
//!   stable FIFO ordering for simultaneous events: a 64-slot near wheel
//!   for the link-delay traffic, one `BinaryHeap` for the far future.
//! * [`dist`] — samplers used throughout the evaluation: exponential
//!   inter-arrivals (Poisson processes), empirical flow-size CDFs with
//!   log-linear interpolation, Box–Muller normals for shadowing.
//! * [`stats`] — running mean/variance, exponentially-weighted moving
//!   averages (the PF scheduler's long-term throughput `r̃_u`),
//!   and percentile helpers.
//! * [`check()`] — the seeded case loop every property test runs on.
//!
//! Everything here is `no_std`-shaped in spirit (no I/O, no globals) but
//! uses `std` collections for simplicity, following smoltcp's "simplicity
//! and robustness over cleverness" ethos.

//!
//! # Example
//!
//! ```
//! use outran_simcore::{Empirical, EventQueue, Rng, Time};
//!
//! // Deterministic RNG + empirical CDF sampling.
//! let mut rng = Rng::new(42);
//! let cdf = Empirical::from_cdf(&[(1e3, 0.5), (1e5, 1.0)]);
//! let size = cdf.sample(&mut rng);
//! assert!(size > 0.0);
//!
//! // Event queue pops in time order, FIFO within an instant.
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_millis(5), "later");
//! q.schedule(Time::from_millis(1), "sooner");
//! assert_eq!(q.pop().unwrap().1, "sooner");
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod check;
pub mod dist;
pub mod events;
pub mod math;
pub mod pool;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;

pub use check::check;
pub use dist::{Empirical, Exponential, Normal, Poisson};
pub use events::EventQueue;
pub use pool::{PoolStats, VecPool};
pub use rng::Rng;
pub use snap::{fnv1a, write_atomic, SnapError, SnapReader, SnapWriter, SnapshotFile};
pub use stats::{Ewma, Percentiles, RunningStats};
pub use time::{Dur, Time};
