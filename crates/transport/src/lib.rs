//! # outran-transport
//!
//! A windowed TCP-Cubic endpoint model, the transport substrate under
//! every evaluation scenario: "The transport protocol is TCP-Cubic
//! \[39\] and the buffer size per-user at xNodeB is set to the default
//! value of srsRAN" (§3, §6.2).
//!
//! Why a real window dynamic matters here: the whole motivation of the
//! paper — queue build-up behind long flows, bufferbloat in the per-UE
//! RLC buffer, short flows stuck behind bursts (§3) — is produced by the
//! *feedback loop* between TCP's congestion window and the base station
//! buffer. A fluid or fixed-rate model would not reproduce Figure 3(b)'s
//! buffer-size sensitivity or the 5G queue-delay inflation of Figure 17.
//!
//! The model implements: slow start, congestion avoidance (Cubic window
//! growth), duplicate-ACK fast retransmit with fast recovery, RTO with
//! exponential backoff and go-back-N resume, and an RFC 6298 RTT
//! estimator. The receiver tracks out-of-order ranges and produces
//! cumulative ACKs.
//!
//! What is deliberately left out (and why it does not change the paper's
//! phenomena): SACK (recovery is slightly slower without it — the same
//! for every scheduler under comparison), delayed ACKs, ECN, window
//! scaling limits, and the three-way handshake (flows are server-push;
//! the request RTT is accounted by the workload layer).

//!
//! # Example
//!
//! ```
//! use outran_transport::{TcpConfig, TcpSender, TcpReceiver};
//! use outran_simcore::{Dur, Time};
//!
//! let mut tx = TcpSender::new(TcpConfig::default(), 30_000);
//! let mut rx = TcpReceiver::new(30_000);
//! let mut now = Time::ZERO;
//! while !rx.complete() {
//!     let mut cum = rx.cum();
//!     for seg in tx.emit(now) {
//!         cum = rx.on_segment(seg.seq, seg.len);
//!     }
//!     now = now + Dur::from_millis(20);
//!     tx.on_ack(now, cum);
//! }
//! assert!(tx.done());
//! ```
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]

pub mod receiver;
pub mod sender;

pub use receiver::TcpReceiver;
pub use sender::{Segment, TcpConfig, TcpSender};
