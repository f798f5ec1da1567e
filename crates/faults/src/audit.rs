//! Runtime invariant auditing.
//!
//! The [`InvariantAuditor`] is fed cheap observations every TTI (clock,
//! RB usage, per-flow delivery order) and a fuller [`AuditSnapshot`]
//! every [`CHECK_EVERY_TTIS`] TTIs plus once at end-of-run. Failed checks
//! become structured [`Violation`] records rather than panics, so a run
//! under fault injection can finish and report everything it saw.

use std::collections::BTreeMap;
use std::fmt;

use outran_simcore::Time;

/// Byte-conservation ledger for the downlink path, maintained by the
/// cell. Every payload byte scheduled toward the eNB must be accounted
/// for: `injected == delivered + dropped + in_flight` at all times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteLedger {
    /// Bytes emitted by server-side senders toward the eNB.
    pub injected: u64,
    /// Bytes delivered to UE-side receivers.
    pub delivered: u64,
    /// Bytes terminally lost, across every drop path (CN faults, buffer
    /// overflow, residual loss, HARQ exhaustion, reassembly discard,
    /// re-establishment flushes).
    pub dropped: u64,
    /// Bytes currently held: CN link in flight, RLC tx queues, HARQ
    /// queues, and rx reassembly buffers.
    pub in_flight: u64,
}

impl ByteLedger {
    /// Signed conservation error (0 when the ledger balances), clamped
    /// to `i64`: a term restored near `u64::MAX` reads as a huge
    /// imbalance, not an overflow.
    pub fn imbalance(&self) -> i64 {
        let out = self.delivered as i128 + self.dropped as i128 + self.in_flight as i128;
        let imbalance = self.injected as i128 - out;
        imbalance.clamp(i64::MIN.into(), i64::MAX.into()) as i64
    }
}

/// Periodic state handed to [`InvariantAuditor::check`].
#[derive(Debug, Clone, Default)]
pub struct AuditSnapshot {
    /// Byte ledger, if the cell can compute one exactly for its RLC mode.
    pub bytes: Option<ByteLedger>,
    /// Per-UE RLC queue depth in SDUs: `(ue, depth)`.
    pub queue_depths: Vec<(usize, usize)>,
    /// Effective queue bound in SDUs (after any active buffer shrink).
    pub queue_bound: usize,
}

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// `injected != delivered + dropped + in_flight`.
    ByteConservation {
        /// The unbalanced ledger.
        ledger: ByteLedger,
    },
    /// A TTI allocated more RBs than the grid holds.
    RbOverCommit {
        /// RBs handed out.
        used: u32,
        /// RBs available this TTI.
        available: u32,
    },
    /// The event clock moved backwards.
    ClockWentBackwards {
        /// Previously observed instant.
        prev: Time,
        /// Offending instant.
        now: Time,
    },
    /// RLC delivered SDUs of one flow out of push order.
    IntraFlowReorder {
        /// UE owning the bearer.
        ue: usize,
        /// Flow identifier.
        flow: u64,
        /// Highest SDU id delivered before the offender.
        prev_sdu: u64,
        /// Out-of-order SDU id.
        sdu: u64,
    },
    /// An RLC queue exceeded its configured bound.
    QueueDepthExceeded {
        /// UE owning the queue.
        ue: usize,
        /// Observed depth in SDUs.
        depth: usize,
        /// Configured bound in SDUs.
        bound: usize,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::ByteConservation { ledger } => write!(
                f,
                "byte conservation broken: injected {} != delivered {} + dropped {} + in-flight {} (imbalance {})",
                ledger.injected, ledger.delivered, ledger.dropped, ledger.in_flight,
                ledger.imbalance()
            ),
            ViolationKind::RbOverCommit { used, available } => {
                write!(f, "RB over-commit: allocated {used} of {available}")
            }
            ViolationKind::ClockWentBackwards { prev, now } => write!(
                f,
                "event clock went backwards: {} -> {} ns",
                prev.as_nanos(),
                now.as_nanos()
            ),
            ViolationKind::IntraFlowReorder { ue, flow, prev_sdu, sdu } => write!(
                f,
                "intra-flow reorder on ue {ue} flow {flow}: sdu {sdu} after {prev_sdu}"
            ),
            ViolationKind::QueueDepthExceeded { ue, depth, bound } => {
                write!(f, "queue depth exceeded on ue {ue}: {depth} > bound {bound}")
            }
        }
    }
}

/// A [`ViolationKind`] plus when it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulation time of the failed check.
    pub at: Time,
    /// What failed.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}s] {}", self.at.as_nanos() as f64 / 1e9, self.kind)
    }
}

/// Full-snapshot cadence in TTIs.
pub const CHECK_EVERY_TTIS: u64 = 100;
/// Cap on retained violations (later ones are counted, not stored).
pub const MAX_RECORDED: usize = 64;

/// Collects invariant violations over a run.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    violations: Vec<Violation>,
    total_violations: u64,
    checks_run: u64,
    ttis_seen: u64,
    last_clock: Option<Time>,
    // (ue, flow) -> highest delivered sdu id, for open flows only: the
    // cell forgets a flow when it completes, and a UE's flows when it
    // re-establishes.
    delivery_order: BTreeMap<(usize, u64), u64>,
}

impl InvariantAuditor {
    fn record(&mut self, at: Time, kind: ViolationKind) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation { at, kind });
        }
    }

    /// Observe the event clock once per TTI; flags regressions.
    pub fn observe_clock(&mut self, now: Time) {
        if let Some(prev) = self.last_clock {
            if now < prev {
                self.record(now, ViolationKind::ClockWentBackwards { prev, now });
            }
        }
        self.last_clock = Some(now);
        self.ttis_seen += 1;
    }

    /// Observe one TTI's RB usage (cheap, called every TTI).
    pub fn observe_rbs(&mut self, now: Time, used: u32, available: u32) {
        if used > available {
            self.record(now, ViolationKind::RbOverCommit { used, available });
        }
    }

    /// Observe one delivered SDU; flags per-flow push-order regressions.
    /// SDU ids are assigned in push order per UE, so within one flow they
    /// must be strictly increasing (gaps from discards are fine).
    pub fn observe_delivery(&mut self, now: Time, ue: usize, flow: u64, sdu: u64) {
        let key = (ue, flow);
        match self.delivery_order.get(&key) {
            Some(&prev_sdu) if sdu <= prev_sdu => {
                self.record(
                    now,
                    ViolationKind::IntraFlowReorder {
                        ue,
                        flow,
                        prev_sdu,
                        sdu,
                    },
                );
            }
            _ => {
                self.delivery_order.insert(key, sdu);
            }
        }
    }

    /// Forget delivery-order history for one UE (radio-link failure or
    /// detach re-establishes RLC, which legitimately restarts SDU ids).
    pub fn forget_ue(&mut self, ue: usize) {
        self.delivery_order.retain(|&(u, _), _| u != ue);
    }

    /// Forget delivery-order history for one flow (it completed: no SDU
    /// of it is accepted again).
    pub fn forget_flow(&mut self, ue: usize, flow: u64) {
        self.delivery_order.remove(&(ue, flow));
    }

    /// Keep the delivery-order history of the `(ue, flow)` pairs `keep`
    /// accepts, and forget the rest.
    pub fn retain_flows(&mut self, mut keep: impl FnMut(usize, u64) -> bool) {
        self.delivery_order.retain(|&(ue, flow), _| keep(ue, flow));
    }

    /// Flows with delivery-order history — a memory probe for tests.
    #[doc(hidden)]
    pub fn order_entries(&self) -> usize {
        self.delivery_order.len()
    }

    /// Whether the periodic full check is due this TTI.
    pub fn due(&self) -> bool {
        self.ttis_seen.is_multiple_of(CHECK_EVERY_TTIS)
    }

    /// Run the full snapshot check (periodically and at end-of-run).
    pub fn check(&mut self, now: Time, snap: &AuditSnapshot) {
        self.checks_run += 1;
        if let Some(ledger) = snap.bytes {
            if ledger.imbalance() != 0 {
                self.record(now, ViolationKind::ByteConservation { ledger });
            }
        }
        for &(ue, depth) in &snap.queue_depths {
            if depth > snap.queue_bound {
                self.record(
                    now,
                    ViolationKind::QueueDepthExceeded {
                        ue,
                        depth,
                        bound: snap.queue_bound,
                    },
                );
            }
        }
    }

    /// All retained violations, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed (including any beyond the retention cap).
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Number of full snapshot checks run.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// True when no invariant has failed.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

use outran_simcore::{snap_enum, snap_fields};

snap_fields! { ByteLedger { injected, delivered, dropped, in_flight } }
snap_enum! { ViolationKind, "unknown violation kind tag" {
    0 => ByteConservation { ledger },
    1 => RbOverCommit { used, available },
    2 => ClockWentBackwards { prev, now },
    3 => IntraFlowReorder { ue, flow, prev_sdu, sdu },
    4 => QueueDepthExceeded { ue, depth, bound },
} }
snap_fields! { Violation { at, kind } }

snap_fields! {
    overlay InvariantAuditor {
        violations, total_violations, checks_run in counter, ttis_seen in counter, last_clock,
        delivery_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn clean_run_stays_clean() {
        let mut a = InvariantAuditor::default();
        for i in 0..500 {
            a.observe_clock(t(i));
            a.observe_rbs(t(i), 25, 25);
            if a.due() {
                a.check(
                    t(i),
                    &AuditSnapshot {
                        bytes: Some(ByteLedger {
                            injected: 100,
                            delivered: 60,
                            dropped: 10,
                            in_flight: 30,
                        }),
                        queue_depths: vec![(0, 8), (1, 0)],
                        queue_bound: 64,
                    },
                );
            }
        }
        assert!(a.is_clean());
        assert!(a.checks_run() > 0);
    }

    #[test]
    fn each_invariant_trips() {
        let mut a = InvariantAuditor::default();
        a.observe_clock(t(10));
        a.observe_clock(t(5));
        a.observe_rbs(t(10), 30, 25);
        a.observe_delivery(t(10), 0, 7, 4);
        a.observe_delivery(t(11), 0, 7, 3);
        a.check(
            t(12),
            &AuditSnapshot {
                bytes: Some(ByteLedger {
                    injected: 100,
                    delivered: 50,
                    dropped: 10,
                    in_flight: 30,
                }),
                queue_depths: vec![(1, 99)],
                queue_bound: 64,
            },
        );
        assert_eq!(a.total_violations(), 5);
        assert_eq!(a.violations().len(), 5);
        let shown = a
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>();
        assert!(shown[0].contains("backwards"));
        assert!(shown[1].contains("over-commit"));
        assert!(shown[2].contains("reorder"));
        assert!(shown[3].contains("imbalance 10"));
        assert!(shown[4].contains("depth"));
    }

    #[test]
    fn forget_ue_allows_sdu_id_restart() {
        let mut a = InvariantAuditor::default();
        a.observe_delivery(t(1), 2, 5, 40);
        a.forget_ue(2);
        a.observe_delivery(t(2), 2, 5, 1);
        assert!(a.is_clean());
    }

    #[test]
    fn forgotten_flows_leave_the_order_map() {
        let mut a = InvariantAuditor::default();
        for (ue, flow) in [(0, 1), (0, 2), (1, 3), (1, 4)] {
            a.observe_delivery(t(1), ue, flow, 10);
        }
        a.forget_flow(0, 1);
        a.forget_flow(1, 1); // no such pair: nothing happens
        assert_eq!(a.order_entries(), 3);
        a.retain_flows(|_, flow| flow != 3);
        assert_eq!(a.order_entries(), 2);
        // History that is kept still checks order.
        a.observe_delivery(t(2), 1, 4, 9);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn retention_cap_counts_everything() {
        let mut a = InvariantAuditor::default();
        for i in 0..MAX_RECORDED as u64 + 3 {
            a.observe_rbs(t(i), 99, 1);
        }
        assert_eq!(a.total_violations(), MAX_RECORDED as u64 + 3);
        assert_eq!(a.violations().len(), MAX_RECORDED);
    }
}
