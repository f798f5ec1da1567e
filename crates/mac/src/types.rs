//! Shared scheduler interfaces.

use outran_pdcp::Priority;
use outran_simcore::snap::LoadSnap;
use outran_simcore::{Dur, Time};

use crate::rates::TtiRates;

/// What the MAC knows about one UE at the start of a TTI.
#[derive(Debug, Clone, Copy)]
pub struct UeTti {
    /// Whether the UE has anything to send (RLC buffer status).
    pub active: bool,
    /// Highest-priority non-empty MLFQ level — the user priority of
    /// eq. (2) carried in OutRAN's extended BSR. `None` when the Tx queue
    /// is empty (retx-only UEs report `None`).
    pub head_priority: Option<Priority>,
    /// Total queued bytes (SRJF bounds a UE's grant by it).
    pub queued_bytes: u64,
    /// Oracle knowledge: the smallest remaining flow size queued for this
    /// UE, in bytes. Only the SRJF/PSS/CQA baselines may read this — the
    /// paper grants them perfect flow information (§6.2 Baselines).
    pub oracle_min_remaining: Option<u64>,
    /// Head-of-line sojourn time of the oldest queued SDU.
    pub hol_delay: Dur,
    /// Oracle knowledge: whether a QoS-tagged (short, delay-budget) flow
    /// is queued for this UE.
    pub oracle_has_qos_flow: bool,
}

impl UeTti {
    /// An inactive UE.
    pub fn idle() -> UeTti {
        UeTti {
            active: false,
            head_priority: None,
            queued_bytes: 0,
            oracle_min_remaining: None,
            hol_delay: Dur::ZERO,
            oracle_has_qos_flow: false,
        }
    }
}

/// Source of per-(UE, subband) achievable rates — implemented by the
/// PHY channel. Rates are in **bits per RB per TTI** (the `r_{u,b}(t)` of
/// eq. (1) integrated over one scheduling interval), constant across the
/// RBs of a CQI subband.
pub trait RateSource {
    /// Achievable bits-per-RB for `ue` anywhere inside subband `sb`
    /// (reported CQI), *ignoring* per-RB reservations (see
    /// [`RateSource::rb_reserved`]).
    fn rate_in_subband(&self, ue: usize, sb: usize) -> f64;
    /// Number of RBs.
    fn n_rbs(&self) -> u16;
    /// Number of UEs.
    fn n_ues(&self) -> usize;

    /// Number of CQI subbands. Schedulers evaluate metrics once per
    /// subband instead of once per RB. Defaults to one subband per RB,
    /// which is always correct.
    fn n_subbands(&self) -> usize {
        self.n_rbs() as usize
    }

    /// The subband that `rb` belongs to. Must be monotone non-decreasing
    /// in `rb` and `< n_subbands()`.
    fn subband_of(&self, rb: u16) -> usize {
        rb as usize
    }

    /// Whether `rb` is reserved (e.g. by a semi-persistent GBR grant)
    /// and must be skipped by the dynamic scheduler. The rates keep the
    /// subband's real value so caches stay valid; the one RB-grid walk
    /// every scheduler allocates through skips the reserved RBs.
    fn rb_reserved(&self, _rb: u16) -> bool {
        false
    }

    /// A version stamp for `ue`'s rate row, if the source tracks one.
    /// Two calls returning the same `Some(v)` guarantee the UE's rates
    /// (all RBs) are unchanged between them; `None` disables caching for
    /// that UE. Defaults to `None` (always recompute).
    fn rates_version(&self, _ue: usize) -> Option<u64> {
        None
    }

    /// This source as the flat per-TTI rate matrix, when it is one.
    /// Schedulers then run their inner loops straight over its
    /// contiguous arrays, with no per-element virtual dispatch. Defaults
    /// to `None` (callers use the virtual accessors).
    fn planes(&self) -> Option<&TtiRates> {
        None
    }
}

/// A trivially uniform [`RateSource`] for unit tests.
#[derive(Debug, Clone)]
pub struct FlatRates {
    /// Per-UE flat rate applied to every RB.
    pub per_ue: Vec<f64>,
    /// RB count.
    pub rbs: u16,
}

impl RateSource for FlatRates {
    fn rate_in_subband(&self, ue: usize, _sb: usize) -> f64 {
        self.per_ue[ue]
    }
    fn n_rbs(&self) -> u16 {
        self.rbs
    }
    fn n_ues(&self) -> usize {
        self.per_ue.len()
    }
}

/// The outcome of one TTI's RB allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// For each RB, the UE it was assigned to (None = idle RB).
    pub rb_to_ue: Vec<Option<u16>>,
    /// Granted bits per UE this TTI (sum of assigned RB rates).
    pub bits_per_ue: Vec<f64>,
}

impl Allocation {
    /// An empty allocation for `n_rbs` RBs and `n_ues` UEs.
    pub fn empty(n_rbs: u16, n_ues: usize) -> Allocation {
        Allocation {
            rb_to_ue: vec![None; n_rbs as usize],
            bits_per_ue: vec![0.0; n_ues],
        }
    }

    /// Make this an empty allocation for `n_rbs` RBs and `n_ues` UEs,
    /// keeping the buffers.
    pub fn reset(&mut self, n_rbs: u16, n_ues: usize) {
        self.rb_to_ue.clear();
        self.rb_to_ue.resize(n_rbs as usize, None);
        self.bits_per_ue.clear();
        self.bits_per_ue.resize(n_ues, 0.0);
    }

    /// Assign `rb` to `ue` at `bits` per this RB.
    pub fn assign(&mut self, rb: u16, ue: u16, bits: f64) {
        debug_assert!(self.rb_to_ue[rb as usize].is_none(), "RB double-assigned");
        self.rb_to_ue[rb as usize] = Some(ue);
        self.bits_per_ue[ue as usize] += bits;
    }

    /// Number of RBs assigned.
    pub fn rbs_used(&self) -> usize {
        self.rb_to_ue.iter().filter(|x| x.is_some()).count()
    }

    /// Total bits granted across UEs.
    pub fn total_bits(&self) -> f64 {
        self.bits_per_ue.iter().sum()
    }
}

/// A downlink MAC scheduler. Called once per TTI.
///
/// Checkpointing rides the [`LoadSnap`] supertrait: a scheduler's wire
/// layout is its dynamic state only (stateless schedulers write
/// nothing). Configuration (window lengths, epsilon) and metric caches
/// never travel — the restore path reconstructs the scheduler from the
/// run config first, then overlays the snapshot.
pub trait Scheduler: LoadSnap {
    /// Compute the RB allocation for this TTI into `alloc`, which is
    /// overwritten (a caller that keeps it across TTIs allocates nothing).
    ///
    /// `ues[i]` describes UE `i`; `rates` provides `r_{u,b}(t)`; `active`
    /// lists, ascending, exactly the UEs with `ues[u].active`. A
    /// scheduler looks at no other UE: an inactive UE's `ues` entry, rate
    /// row and any state cached for it are not read, so the cost of a
    /// TTI follows the UEs with something to send.
    fn allocate_into(
        &mut self,
        now: Time,
        ues: &[UeTti],
        active: &[u16],
        rates: &dyn RateSource,
        alloc: &mut Allocation,
    );

    /// [`Scheduler::allocate_into`] for a caller that has neither the
    /// active list nor a buffer: derives the one, allocates the other.
    fn allocate(&mut self, now: Time, ues: &[UeTti], rates: &dyn RateSource) -> Allocation {
        let active: Vec<u16> = (0..ues.len() as u16)
            .filter(|&u| ues[u as usize].active)
            .collect();
        // Sized by `allocate_into`'s reset.
        let mut alloc = Allocation::empty(0, 0);
        self.allocate_into(now, ues, &active, rates, &mut alloc);
        alloc
    }

    /// Feed back the bits actually served to each UE this TTI (PF-family
    /// schedulers update their long-term average `r̃_u` from this; others
    /// may ignore it). Must be called exactly once per TTI after
    /// transmission.
    fn on_served(&mut self, served_bits: &[f64]);

    /// Fold in `k` idle TTIs in which no UE was served, as a single
    /// composed update — semantically `k` calls of `on_served` with
    /// all-zero bits. The cell loop batches idle spans (dense stepping
    /// defers by the same amount as event-driven skipping, so both
    /// modes apply identical updates) and calls this right before the
    /// next active TTI's `allocate`. Stateless schedulers ignore it.
    fn on_idle(&mut self, k: u64) {
        let _ = k;
    }

    /// Metric-cache rows recomputed so far (0 for a scheduler without a
    /// [`crate::SubbandMetricCache`]) — a deterministic work counter.
    #[doc(hidden)]
    fn metric_rows_refreshed(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_bookkeeping() {
        let mut a = Allocation::empty(4, 2);
        a.assign(0, 1, 100.0);
        a.assign(3, 0, 50.0);
        assert_eq!(a.rbs_used(), 2);
        assert_eq!(a.bits_per_ue, vec![50.0, 100.0]);
        assert_eq!(a.total_bits(), 150.0);
        assert_eq!(a.rb_to_ue, vec![Some(1), None, None, Some(0)]);
    }

    // The guard is a debug_assert, so the panic only exists in debug
    // builds; under --release the test would fail for the wrong reason.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn double_assign_caught() {
        let mut a = Allocation::empty(2, 1);
        a.assign(0, 0, 1.0);
        a.assign(0, 0, 1.0);
    }

    #[test]
    fn flat_rates_source() {
        let r = FlatRates {
            per_ue: vec![10.0, 20.0],
            rbs: 5,
        };
        assert_eq!(r.rate_in_subband(1, 4), 20.0);
        assert_eq!(r.n_rbs(), 5);
        assert_eq!(r.n_ues(), 2);
    }
}
