//! Shared scheduler interfaces.

use outran_pdcp::Priority;
use outran_simcore::snap::LoadSnap;
use outran_simcore::{Dur, Time};

/// What the MAC knows about one UE at the start of a TTI.
#[derive(Debug, Clone, Copy)]
pub struct UeTti {
    /// Whether the UE has anything to send (RLC buffer status).
    pub active: bool,
    /// Highest-priority non-empty MLFQ level — the user priority of
    /// eq. (2) carried in OutRAN's extended BSR. `None` when the Tx queue
    /// is empty (retx-only UEs report `None`).
    pub head_priority: Option<Priority>,
    /// Total queued bytes (for diagnostics and RR short-circuits).
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

/// Source of per-(UE, RB) achievable rates — implemented by the PHY
/// channel. Rates are in **bits per RB per TTI** (the `r_{u,b}(t)` of
/// eq. (1) integrated over one scheduling interval).
pub trait RateSource {
    /// Achievable bits for `ue` on `rb` this TTI (reported CQI).
    fn rate(&self, ue: usize, rb: u16) -> f64;
    /// Number of RBs.
    fn n_rbs(&self) -> u16;
    /// Number of UEs.
    fn n_ues(&self) -> usize;

    /// Number of CQI subbands. Rates are constant across the RBs of a
    /// subband, so schedulers may evaluate metrics once per subband
    /// instead of once per RB. Defaults to one subband per RB, which is
    /// always correct.
    fn n_subbands(&self) -> usize {
        self.n_rbs() as usize
    }

    /// The subband that `rb` belongs to. Must be monotone non-decreasing
    /// in `rb` and `< n_subbands()`.
    fn subband_of(&self, rb: u16) -> usize {
        rb as usize
    }

    /// Achievable bits-per-RB for `ue` anywhere inside subband `sb`,
    /// *ignoring* per-RB reservations (see [`RateSource::rb_reserved`]).
    fn rate_in_subband(&self, ue: usize, sb: usize) -> f64 {
        self.rate(ue, sb as u16)
    }

    /// Whether `rb` is reserved (e.g. by a semi-persistent GBR grant)
    /// and must be skipped by the dynamic scheduler. Reserved RBs report
    /// `rate() == 0` for every UE; the subband view keeps the real rate
    /// so caches stay valid, and exposes the reservation here instead.
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

    /// A borrowed structure-of-arrays view of this source's backing
    /// planes, when it keeps its data flat (see [`RatePlanes`]). Sources
    /// that expose one let schedulers run their inner loops directly over
    /// contiguous arrays — no per-element virtual dispatch. The view must
    /// agree exactly with the per-call accessors (`rate_in_subband`,
    /// `subband_of`, `rb_reserved`, `rates_version`). Defaults to `None`
    /// (callers fall back to the virtual accessors).
    fn planes(&self) -> Option<RatePlanes<'_>> {
        None
    }
}

/// A flat, borrowed view of a [`RateSource`]'s backing arrays — the
/// structure-of-arrays contract between the PHY-fed rate matrix and the
/// scheduler kernels. Per-(UE, subband) data is UE-major
/// (`per_ue_sb[ue * n_sb + sb]`); per-RB and per-UE planes are indexed
/// directly.
#[derive(Debug, Clone, Copy)]
pub struct RatePlanes<'a> {
    /// Achievable bits-per-RB for each `(ue, sb)`, ignoring reservations
    /// (the [`RateSource::rate_in_subband`] values).
    pub per_ue_sb: &'a [f64],
    /// Per-UE rate-row version stamps ([`RateSource::rates_version`],
    /// always present for plane-backed sources).
    pub versions: &'a [u64],
    /// RB index → subband index ([`RateSource::subband_of`]).
    pub rb_to_sb: &'a [usize],
    /// Per-RB reservation flags ([`RateSource::rb_reserved`]).
    pub reserved: &'a [bool],
    /// UE count.
    pub n_ues: usize,
    /// Subband count.
    pub n_sb: usize,
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
    fn rate(&self, ue: usize, _rb: u16) -> f64 {
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
/// nothing). Configuration (window lengths, epsilon, QoS params) never
/// travels — the restore path reconstructs the scheduler from the run
/// config first, then overlays the snapshot.
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
        assert_eq!(r.rate(1, 4), 20.0);
        assert_eq!(r.n_rbs(), 5);
        assert_eq!(r.n_ues(), 2);
    }
}
