//! The Shortest Remaining Job First oracle scheduler.
//!
//! §3/§6.2: "SRJF is an optimal flow scheduling scheme in DCN that has
//! perfect knowledge of flow size. SRJF schedules flows based on the
//! remaining flow size, being ignorant of the channel condition." In the
//! worst case "the user will grab all the bandwidth (with poor spectral
//! efficiency) to finish its flow" — exactly the behaviour reproduced
//! here: the UE carrying the globally smallest remaining flow receives
//! every RB of the TTI, regardless of its channel.

use outran_simcore::Time;

use crate::cache::walk_free_rbs;
use crate::types::{Allocation, RateSource, Scheduler, UeTti};

/// How the SRJF oracle spends a TTI's leftover capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SrjfMode {
    /// Serve only the user carrying the globally shortest remaining
    /// flow; idle every RB beyond that flow's bytes. The most literal
    /// "schedule the shortest flow, ignore everything else".
    WinnerOnly,
    /// Serve users in ascending shortest-remaining order, each bounded
    /// by its shortest flow's bytes, waterfall the leftover RBs to the
    /// next user (still channel-blind in the order and RB choice).
    #[default]
    Waterfall,
}

/// Channel-blind SRJF (requires the oracle flow-size inputs).
///
/// "SRJF schedules flows based on the remaining flow size, being
/// ignorant of the channel condition … the user will grab all the
/// bandwidth (with poor spectral efficiency) to finish its flow"
/// (§3/§6.2). Users are visited in ascending order of their shortest
/// remaining flow, blindly to channel quality; [`SrjfMode`] picks what
/// happens with the capacity the head flow does not use.
#[derive(Debug, Clone, Default)]
pub struct SrjfScheduler {
    /// Leftover-capacity policy.
    pub mode: SrjfMode,
    /// The TTI's visiting order (scratch, rewritten by every allocation).
    order: Vec<u16>,
}

impl SrjfScheduler {
    /// Create with an explicit mode.
    pub fn with_mode(mode: SrjfMode) -> SrjfScheduler {
        SrjfScheduler {
            mode,
            order: Vec::new(),
        }
    }
}

outran_simcore::snap_fields! { overlay SrjfScheduler {} rebuilt { mode, order } }

impl Scheduler for SrjfScheduler {
    fn allocate_into(
        &mut self,
        _now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    ) {
        alloc.reset(rates.n_rbs(), ues.len());
        // Stable sort of the ascending list: equal remainders keep
        // index order.
        self.order.clear();
        self.order.extend_from_slice(active);
        self.order
            .sort_by_key(|&u| ues[u as usize].oracle_min_remaining.unwrap_or(u64::MAX));
        // The free RBs go, in order, to the head of the order until its
        // shortest flow is covered or it has no rate on the next one
        // (channel-blind: it gives up the rest), then to the next UE.
        let need_bits = |u: u16| {
            let ue = &ues[u as usize];
            let need = ue
                .queued_bytes
                .min(ue.oracle_min_remaining.unwrap_or(u64::MAX))
                .max(1);
            need.saturating_mul(8) as f64 + 256.0
        };
        let (order, mode) = (&self.order, self.mode);
        // The head's place in the order, the UE, and the bits it needs.
        let mut head = order.first().map(|&u| (0, u, need_bits(u)));
        let mut granted = 0.0;
        walk_free_rbs(alloc, rates, |sb, sr| {
            while let Some((i, u, need)) = head {
                let r = sr.get(u, sb);
                if granted < need && r > 0.0 {
                    granted += r;
                    return Some((u, r));
                }
                head = match order.get(i + 1) {
                    Some(&v) if mode == SrjfMode::Waterfall => Some((i + 1, v, need_bits(v))),
                    _ => None,
                };
                granted = 0.0;
            }
            None
        });
    }

    fn on_served(&mut self, _served_bits: &[f64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlatRates;

    fn ue(active: bool, remaining: Option<u64>) -> UeTti {
        UeTti {
            active,
            oracle_min_remaining: remaining,
            queued_bytes: remaining.unwrap_or(0),
            ..UeTti::idle()
        }
    }

    #[test]
    fn shortest_remaining_takes_everything() {
        let mut s = SrjfScheduler::default();
        let rates = FlatRates {
            per_ue: vec![1000.0, 10.0, 100.0],
            rbs: 8,
        };
        let ues = vec![
            ue(true, Some(50_000)),
            ue(true, Some(100)), // shortest, worst channel
            ue(true, Some(5_000)),
        ];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
        // Grabs all bandwidth at poor spectral efficiency: 8 RBs × 10 bits.
        assert_eq!(a.total_bits(), 80.0);
    }

    #[test]
    fn skips_inactive() {
        let mut s = SrjfScheduler::default();
        let rates = FlatRates {
            per_ue: vec![10.0, 10.0],
            rbs: 2,
        };
        let ues = vec![ue(false, Some(1)), ue(true, Some(100))];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rb_to_ue.iter().all(|&x| x == Some(1)));
    }

    #[test]
    fn empty_cell_idles() {
        let mut s = SrjfScheduler::default();
        let rates = FlatRates {
            per_ue: vec![10.0],
            rbs: 2,
        };
        let a = s.allocate(Time::ZERO, &[ue(false, None)], &rates);
        assert_eq!(a.rbs_used(), 0);
    }

    #[test]
    fn winner_only_idles_leftover_rbs() {
        let mut s = SrjfScheduler::with_mode(SrjfMode::WinnerOnly);
        let rates = FlatRates {
            per_ue: vec![1000.0, 1000.0],
            rbs: 50,
        };
        // Winner's flow needs ~2 RBs; the rest must idle even though
        // UE 1 is backlogged.
        let ues = vec![ue(true, Some(200)), ue(true, Some(100_000))];
        let a = s.allocate(Time::ZERO, &ues, &rates);
        assert!(a.rbs_used() < 5, "rbs_used={}", a.rbs_used());
        assert!(a.rb_to_ue.iter().flatten().all(|&u| u == 0));
    }

    #[test]
    fn waterfall_fills_the_tti() {
        let mut s = SrjfScheduler::with_mode(SrjfMode::Waterfall);
        let rates = FlatRates {
            per_ue: vec![1000.0, 1000.0],
            rbs: 50,
        };
        let mut short = ue(true, Some(200));
        short.queued_bytes = 200;
        let mut long = ue(true, Some(100_000));
        long.queued_bytes = 100_000;
        let a = s.allocate(Time::ZERO, &[short, long], &rates);
        assert_eq!(a.rbs_used(), 50, "leftover RBs must waterfall");
        // The short-flow UE still goes first.
        assert_eq!(a.rb_to_ue[0], Some(0));
        assert!(a.rb_to_ue.contains(&Some(1)));
    }
}
