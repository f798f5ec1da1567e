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
    /// Transmissions so far (≥1 once it has failed the first time).
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

    fn tb(bits: f64) -> HarqTb<&'static str> {
        HarqTb {
            payload: "data",
            bits,
            subband: 0,
            attempts: 1,
        }
    }

    #[test]
    fn failure_schedules_retx_after_rtt() {
        let mut q = HarqQueue::new(HarqConfig::default());
        let tti = Dur::from_millis(1);
        assert!(q.on_failure(tb(1000.0), Time::ZERO, tti).is_none());
        assert_eq!(q.len(), 1);
        // Not due before the HARQ RTT.
        assert!(q.pop_due(Time::from_millis(7), 1e9).is_none());
        let got = q.pop_due(Time::from_millis(8), 1e9).unwrap();
        assert_eq!(got.attempts, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn max_tx_drops() {
        let cfg = HarqConfig {
            max_tx: 3,
            ..HarqConfig::default()
        };
        let mut q = HarqQueue::new(cfg);
        let tti = Dur::from_millis(1);
        let mut block = tb(100.0);
        block.attempts = 2;
        // 3rd transmission still allowed (max_tx = 3)...
        assert!(q.on_failure(block, Time::ZERO, tti).is_none());
        let block = q.pop_due(Time::from_millis(8), 1e9).unwrap();
        assert_eq!(block.attempts, 3);
        // ...but a 4th is not: dropped, payload returned.
        let lost = q.on_failure(block, Time::from_millis(8), tti);
        assert_eq!(lost, Some("data"));
        assert_eq!(q.dropped_tbs, 1);
    }

    #[test]
    fn process_limit_enforced() {
        let cfg = HarqConfig {
            processes: 2,
            ..HarqConfig::default()
        };
        let mut q = HarqQueue::new(cfg);
        let tti = Dur::from_millis(1);
        assert!(q.on_failure(tb(1.0), Time::ZERO, tti).is_none());
        assert!(q.on_failure(tb(1.0), Time::ZERO, tti).is_none());
        assert!(q.on_failure(tb(1.0), Time::ZERO, tti).is_some());
        assert_eq!(q.dropped_tbs, 1);
    }

    #[test]
    fn budget_gates_retx() {
        let mut q = HarqQueue::new(HarqConfig::default());
        let tti = Dur::from_millis(1);
        q.on_failure(tb(5000.0), Time::ZERO, tti);
        let due = Time::from_millis(8);
        assert!(q.pop_due(due, 4000.0).is_none(), "budget too small");
        assert!(q.pop_due(due, 5000.0).is_some());
    }

    #[test]
    fn combining_gain_grows_with_attempts() {
        let cfg = HarqConfig::default();
        let mut block = tb(1.0);
        assert!((block.combining_gain_db(&cfg) - 3.0).abs() < 1e-9);
        block.attempts = 3;
        assert!((block.combining_gain_db(&cfg) - 9.0).abs() < 1e-9);
    }
}
