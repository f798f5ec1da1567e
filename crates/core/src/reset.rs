//! "Priority Boost" — periodic flow-state reset (§6.3).
//!
//! "One of them is 'Priority Boost', which is resetting the flow state of
//! every flow and moving all flows to the topmost queue after some time
//! period S. … when S = 500 ms, the long flow FCT remains almost the same
//! as the PF, and OutRAN still provides significant improvement for short
//! flow FCT. The period S can be tuned according to the network
//! operator's interest."

use outran_simcore::{Dur, Time};

/// Periodic reset driver. The cell loop asks [`PriorityReset::due`] each
/// TTI and, when it fires, calls `FlowTable::reset_priorities` on every
/// UE's flow table.
#[derive(Debug, Clone, Copy)]
pub struct PriorityReset {
    period: Dur,
    next_at: Time,
    /// Number of resets performed (diagnostics).
    pub resets: u64,
}

impl PriorityReset {
    /// Create with period `s`, first firing one period after `start`.
    pub fn new(s: Dur, start: Time) -> PriorityReset {
        assert!(s > Dur::ZERO, "reset period must be positive");
        PriorityReset {
            period: s,
            next_at: start + s,
            resets: 0,
        }
    }

    /// The configured period S.
    pub fn period(&self) -> Dur {
        self.period
    }

    /// Whether a reset is due at `now`; advances the schedule when it is.
    pub fn due(&mut self, now: Time) -> bool {
        if now >= self.next_at {
            // Skip any missed periods (coarse callers) but stay phase-locked.
            while self.next_at <= now {
                self.next_at += self.period;
            }
            self.resets += 1;
            true
        } else {
            false
        }
    }

    /// When the next reset will fire.
    pub fn next_at(&self) -> Time {
        self.next_at
    }

    /// Advance the schedule past `now`, counting **every** crossed period
    /// (unlike [`PriorityReset::due`], which coalesces missed periods into
    /// one reset). Returns how many periods fired.
    ///
    /// Virtual-time skipping uses this so that a span of idle TTIs books
    /// the same number of resets whether it is stepped densely or skipped
    /// in one jump.
    pub fn catch_up(&mut self, now: Time) -> u64 {
        let mut fired = 0u64;
        while self.next_at <= now {
            self.next_at += self.period;
            fired += 1;
        }
        self.resets += fired;
        fired
    }
}

// The period is config-derived and not written.
outran_simcore::snap_fields! { overlay PriorityReset { next_at, resets } rebuilt { period } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_period() {
        let mut r = PriorityReset::new(Dur::from_millis(500), Time::ZERO);
        assert!(!r.due(Time::from_millis(499)));
        assert!(r.due(Time::from_millis(500)));
        assert!(!r.due(Time::from_millis(501)));
        assert!(r.due(Time::from_millis(1000)));
        assert_eq!(r.resets, 2);
    }

    #[test]
    fn catches_up_after_gap() {
        let mut r = PriorityReset::new(Dur::from_millis(100), Time::ZERO);
        assert!(r.due(Time::from_millis(1000)));
        // Phase-locked: next at 1100, not 2000.
        assert_eq!(r.next_at(), Time::from_millis(1100));
        assert_eq!(r.resets, 1);
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = PriorityReset::new(Dur::ZERO, Time::ZERO);
    }
}
