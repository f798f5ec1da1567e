//! Hybrid-ARQ retransmission modelling.
//!
//! The cell simulator's default air-interface model folds HARQ into an
//! effective BLER: a failed transport block simply is not pulled from
//! RLC, costing airtime and delay. This module provides the explicit
//! alternative — per-UE HARQ processes with feedback delay and
//! chase-combining gain — for studies where the retransmission *timing*
//! matters (it shifts a recovered TB by one HARQ RTT instead of leaving
//! the data at the head of the RLC queue):
//!
//! * a failed TB is retransmitted after `rtt_ttis` (ACK/NACK feedback
//!   plus scheduling delay; 8 TTIs in LTE FDD);
//! * each retransmission combines with the previous soft bits —
//!   modelled as `combining_gain_db` of extra effective SINR per
//!   attempt (chase combining ≈ +3 dB per repeat);
//! * after `max_tx` attempts the block is dropped and the loss becomes
//!   visible to RLC/TCP (the residual-BLER path).
//!
//! The type is generic over the TB payload so the MAC/cell layer can
//! carry RLC segments (UM) or AM PDUs without this crate depending on
//! the RLC crate.

use std::collections::VecDeque;

use outran_simcore::{Dur, Time};

/// HARQ entity configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarqConfig {
    /// Parallel processes per UE (LTE FDD: 8). Bounds how many TBs can
    /// be awaiting feedback at once.
    pub processes: usize,
    /// TTIs between a transmission and its retransmission opportunity.
    pub rtt_ttis: u32,
    /// Maximum transmissions of one TB (initial + retx).
    pub max_tx: u8,
    /// Effective SINR gain per additional transmission (dB).
    pub combining_gain_db: f64,
}

impl Default for HarqConfig {
    fn default() -> Self {
        HarqConfig {
            processes: 8,
            rtt_ttis: 8,
            max_tx: 4,
            combining_gain_db: 3.0,
        }
    }
}

/// A transport block awaiting retransmission.
#[derive(Debug, Clone)]
pub struct HarqTb<T> {
    /// The data carried (RLC segments / AM PDUs).
    pub payload: T,
    /// Airtime cost of the block in bits (charged against the UE's
    /// grant on every retransmission).
    pub bits: f64,
    /// Subband the block is mapped to (its channel draws).
    pub subband: usize,
    /// 1 as the cell builds a failed block, +1 per [`HarqQueue::on_failure`]:
    /// transmissions so far plus one, so the combining gain is one step
    /// (3 dB) optimistic (DESIGN.md, "Explicit HARQ is one step optimistic").
    pub attempts: u8,
}

impl<T> HarqTb<T> {
    /// Extra effective SINR from soft combining at the *next* attempt.
    pub fn combining_gain_db(&self, cfg: &HarqConfig) -> f64 {
        cfg.combining_gain_db * self.attempts as f64
    }
}

/// Per-UE HARQ retransmission queue.
#[derive(Debug, Clone)]
pub struct HarqQueue<T> {
    cfg: HarqConfig,
    /// (due time, block) — FIFO by due time since rtt is constant.
    pending: VecDeque<(Time, HarqTb<T>)>,
    /// Blocks dropped after max_tx (diagnostics).
    pub dropped_tbs: u64,
    /// Total retransmission attempts served.
    pub retx_served: u64,
}

impl<T> HarqQueue<T> {
    /// Create a queue.
    pub fn new(cfg: HarqConfig) -> HarqQueue<T> {
        HarqQueue {
            cfg,
            pending: VecDeque::new(),
            dropped_tbs: 0,
            retx_served: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &HarqConfig {
        &self.cfg
    }

    /// Register a failed (re)transmission at `now`; returns the payload
    /// back when the process limit or `max_tx` forces a drop.
    pub fn on_failure(&mut self, mut tb: HarqTb<T>, now: Time, tti: Dur) -> Option<T> {
        tb.attempts += 1;
        if tb.attempts > self.cfg.max_tx {
            self.dropped_tbs += 1;
            return Some(tb.payload);
        }
        if self.pending.len() >= self.cfg.processes {
            // No free process: in a real MAC the scheduler would stall
            // new transmissions; dropping is the conservative model and
            // is surfaced to the caller.
            self.dropped_tbs += 1;
            return Some(tb.payload);
        }
        let due = now + tti.mul(self.cfg.rtt_ttis as u64);
        self.pending.push_back((due, tb));
        None
    }

    /// Pop the first block due at or before `now` whose airtime fits in
    /// `budget_bits`. Scans past a too-large head so a big TB cannot
    /// head-of-line-block smaller ones behind it (the MAC would do the
    /// same across its HARQ processes).
    pub fn pop_due(&mut self, now: Time, budget_bits: f64) -> Option<HarqTb<T>> {
        let idx = self
            .pending
            .iter()
            .position(|(due, tb)| *due <= now && tb.bits <= budget_bits)?;
        let (_, tb) = self.pending.remove(idx)?;
        self.retx_served += 1;
        Some(tb)
    }

    /// Blocks currently awaiting retransmission.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no blocks are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The blocks awaiting retransmission, in due order.
    pub fn iter(&self) -> impl Iterator<Item = &HarqTb<T>> {
        self.pending.iter().map(|(_, tb)| tb)
    }

    /// Drop every pending block (RLC re-establishment / radio-link
    /// failure). Returns the payloads so the caller can account the
    /// lost bytes.
    pub fn clear(&mut self) -> Vec<HarqTb<T>> {
        self.pending.drain(..).map(|(_, tb)| tb).collect()
    }
}

use outran_simcore::snap_fields;

snap_fields! { HarqTb<T> { payload, bits, subband in index(subbands), attempts } }

// The config is re-established by the owner via [`HarqQueue::new`].
snap_fields! {
    overlay HarqQueue<T> { pending, dropped_tbs in counter, retx_served in counter }
    rebuilt { cfg }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: HarqConfig = HarqConfig {
        processes: 3,
        rtt_ttis: 2,
        max_tx: 4,
        combining_gain_db: 3.0,
    };
    /// Retransmission budgets (bits) the TTIs offer in turn.
    const BUDGETS: [f64; 3] = [f64::INFINITY, 250.0, 0.0];
    /// The TTI the last block of the slowest case is delivered or dropped
    /// at. A case that needs longer fails there.
    const HARQ_WORST_TTI: u64 = 10;

    /// Blocks `b` of `100 (b + 1)` bits go out at TTI 0, one per
    /// process and one more; block `b`'s first `fails[b]` transmissions
    /// fail and its next one succeeds. Returns the TTI the last block is
    /// delivered or dropped at.
    fn harq_case(fails: &[u8]) -> u64 {
        let mut q = HarqQueue::new(CFG);
        let mut due = vec![0; fails.len()];
        let mut sent: Vec<_> = (0..fails.len())
            .map(|b| HarqTb {
                payload: b,
                bits: 100.0 * (b + 1) as f64,
                subband: 0,
                attempts: 1,
            })
            .collect();
        let (mut open, mut served, mut dropped) = (fails.len(), 0, 0);
        for t in 0..=HARQ_WORST_TTI {
            let now = Time::from_millis(t);
            for tb in sent.drain(..) {
                let b = tb.payload;
                if tb.attempts > fails[b] {
                    open -= 1;
                    continue;
                }
                let drop = tb.attempts == CFG.max_tx || q.len() == CFG.processes;
                let lost = q.on_failure(tb, now, Dur::from_millis(1));
                assert_eq!(lost, drop.then_some(b), "block {b} at TTI {t}");
                due[b] = t + u64::from(CFG.rtt_ttis);
                dropped += u64::from(drop);
                open -= usize::from(drop);
            }
            assert_eq!((q.len() <= CFG.processes, q.dropped_tbs), (true, dropped));
            if open == 0 {
                assert!(q.is_empty());
                return t;
            }
            assert!(q.iter().map(|tb| due[tb.payload]).is_sorted());
            let mut budget = BUDGETS[t as usize % BUDGETS.len()];
            loop {
                let fits = |tb: &&HarqTb<usize>| due[tb.payload] <= t && tb.bits <= budget;
                let want = q.iter().find(fits).map(|tb| tb.payload);
                let Some(tb) = q.pop_due(now, budget) else {
                    assert_eq!(want, None, "a due block that fits waits at TTI {t}");
                    break;
                };
                served += 1;
                assert_eq!((Some(tb.payload), q.retx_served), (want, served));
                let gain = CFG.combining_gain_db * f64::from(tb.attempts);
                assert_eq!(tb.combining_gain_db(&CFG), gain);
                budget -= tb.bits;
                sent.push(tb);
            }
        }
        panic!("past the pinned worst case");
    }

    /// Every outcome sequence up to `max_tx` for each of the four blocks:
    /// 5⁴ = 625 cases.
    #[test]
    fn every_outcome_sequence_in_scope() {
        let (n, blocks) = (usize::from(CFG.max_tx) + 1, CFG.processes + 1);
        let mut worst = 0;
        for code in 0..n.pow(blocks as u32) {
            let fails: Vec<u8> = (0..blocks)
                .map(|b| (code / n.pow(b as u32) % n) as u8)
                .collect();
            let end = std::panic::catch_unwind(|| harq_case(&fails));
            let Ok(end) = end else {
                panic!("counterexample: harq_case(&{fails:?})");
            };
            worst = worst.max(end);
        }
        eprintln!("HARQ: {} cases, worst TTI {worst}", n.pow(blocks as u32));
        assert_eq!(worst, HARQ_WORST_TTI);
    }
}
