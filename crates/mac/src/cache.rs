//! Incremental per-UE scheduler-metric cache over CQI subbands.
//!
//! The per-RB metric architecture of §4.1 is O(|U|·|B|) per TTI, but two
//! structural facts make most of that work redundant:
//!
//! 1. Reported rates are constant across the RBs of a CQI **subband**
//!    ([`RateSource::subband_of`]), so a metric that depends only on
//!    `(ue, rate)` takes at most `|U| × |SB|` distinct values per TTI.
//! 2. CQI reports arrive on a multi-TTI cadence
//!    ([`RateSource::rates_version`]), and PF's EWMA only moves when the
//!    UE's average actually changes, so most `(ue, subband)` rows are
//!    unchanged between consecutive TTIs.
//!
//! [`SubbandMetricCache`] exploits both: it keeps a `|SB| × |U|` matrix
//! of metric values plus a per-UE `(rates_version, metric_rev)` key, and
//! only recomputes the rows whose key changed — and only looks at the
//! rows it is asked for, which the schedulers make the active UEs: an
//! idle UE's PF average still decays every TTI, but its eight divisions
//! wait until the TTI it has data again. Ineligible entries
//! (rate ≤ 0) are stored as [`f64::NEG_INFINITY`] so a strict-`>` argmax
//! over rows folds the eligibility test into the comparison — `-inf`
//! can never beat an eligible metric (metrics are strictly positive for
//! eligible UEs) and never enters an ε-band whose floor is ≥ 0.
//!
//! ## Data layout
//!
//! The matrix is stored **subband-major** (`cols[sb * n_ues + ue]`), so
//! the schedulers' per-subband argmax reads one column of `n_ues`
//! doubles, while the refresh writes strided but runs only on misses.
//!
//! ## The grid walk
//!
//! Every scheduler allocates through one RB-grid walk, the only code
//! that reads GBR reservations ([`RateSource::rb_reserved`]) or grants
//! an RB: PF, MT, OutRAN, PSS and CQA name a winner per subband run off
//! the metric columns ([`allocate_by_subband`]); RR and SRJF name one
//! per free RB. When the [`RateSource`] is the flat matrix
//! ([`RateSource::planes`]), refresh and walk read its arrays directly.

use crate::rates::TtiRates;
use crate::types::{Allocation, RateSource};

/// A `|SB| × |U|` subband-major matrix of cached metric values with
/// per-UE validity keys. See the module docs for the invalidation
/// contract and layout.
#[derive(Debug, Clone, Default)]
pub struct SubbandMetricCache {
    n_sb: usize,
    n_ues: usize,
    /// Metric planes, subband-major: `cols[sb * n_ues + ue]`.
    cols: Vec<f64>,
    /// Per-UE cached rate-row version (valid when `key_ok`).
    key_rv: Vec<u64>,
    /// Per-UE cached metric revision (valid when `key_ok`).
    key_mr: Vec<u64>,
    /// Whether the UE's key is present (versioned source) at all.
    key_ok: Vec<bool>,
    /// Rows served from cache since construction (diagnostics).
    pub hits: u64,
    /// Rows recomputed since construction (diagnostics).
    pub misses: u64,
}

impl SubbandMetricCache {
    /// An empty cache; sizes itself on first [`SubbandMetricCache::refresh`].
    pub fn new() -> SubbandMetricCache {
        SubbandMetricCache::default()
    }

    fn resize_if_needed(&mut self, n_ues: usize, n_sb: usize) {
        if self.n_sb != n_sb || self.n_ues != n_ues {
            self.n_sb = n_sb;
            self.n_ues = n_ues;
            self.cols = vec![f64::NEG_INFINITY; n_ues * n_sb];
            self.key_rv = vec![0; n_ues];
            self.key_mr = vec![0; n_ues];
            self.key_ok = vec![false; n_ues];
        }
    }

    /// Bring every row of the matrix up to date for this TTI — see
    /// [`SubbandMetricCache::refresh_rows`].
    pub fn refresh(
        &mut self,
        rates: &dyn RateSource,
        metric_rev: impl Fn(usize) -> u64,
        metric: impl Fn(usize, f64) -> f64,
    ) {
        self.refresh_rows(rates, 0..rates.n_ues(), metric_rev, metric);
    }

    /// Bring the rows of the UEs in `rows` up to date for this TTI. No
    /// other row is touched, and none may be read before a later call
    /// names it: a row left out keeps the key it was last computed
    /// under, so the call that names it again recomputes it unless
    /// nothing behind it moved in between.
    ///
    /// `metric_rev(ue)` must change whenever the scheduler-side state
    /// behind `metric` changes for that UE (e.g. PF's EWMA average);
    /// `metric(ue, rate)` computes the per-RB metric for a strictly
    /// positive rate. A UE's row is recomputed when either its rate row
    /// version ([`RateSource::rates_version`]) or its metric revision
    /// moved — or always, for sources that report no version.
    pub fn refresh_rows(
        &mut self,
        rates: &dyn RateSource,
        rows: impl Iterator<Item = usize>,
        metric_rev: impl Fn(usize) -> u64,
        metric: impl Fn(usize, f64) -> f64,
    ) {
        self.resize_if_needed(rates.n_ues(), rates.n_subbands());
        // One body, instantiated for the flat matrix (no per-element
        // virtual dispatch) and for the virtual accessors.
        match rates.planes() {
            Some(t) => self.refresh_from(t, rows, metric_rev, metric),
            None => self.refresh_from(rates, rows, metric_rev, metric),
        }
    }

    fn refresh_from<R: RateSource + ?Sized>(
        &mut self,
        rates: &R,
        rows: impl Iterator<Item = usize>,
        metric_rev: impl Fn(usize) -> u64,
        metric: impl Fn(usize, f64) -> f64,
    ) {
        let (n_ues, n_sb) = (self.n_ues, self.n_sb);
        for ue in rows {
            match rates.rates_version(ue) {
                Some(rv) => {
                    let mr = metric_rev(ue);
                    if self.key_ok[ue] && self.key_rv[ue] == rv && self.key_mr[ue] == mr {
                        self.hits += 1;
                        continue;
                    }
                    self.key_ok[ue] = true;
                    self.key_rv[ue] = rv;
                    self.key_mr[ue] = mr;
                }
                None => self.key_ok[ue] = false,
            }
            self.misses += 1;
            for sb in 0..n_sb {
                let r = rates.rate_in_subband(ue, sb);
                self.cols[sb * n_ues + ue] = if r > 0.0 {
                    metric(ue, r)
                } else {
                    f64::NEG_INFINITY
                };
            }
        }
    }

    /// The cached metric for `(ue, sb)`; [`f64::NEG_INFINITY`] when the
    /// UE has no usable rate there.
    pub fn metric(&self, ue: usize, sb: usize) -> f64 {
        self.cols[sb * self.n_ues + ue]
    }

    /// The contiguous metric column of subband `sb`: one entry per UE.
    /// This is the slice the per-subband argmax loops read, at the
    /// indices of the active UEs.
    pub fn column(&self, sb: usize) -> &[f64] {
        &self.cols[sb * self.n_ues..(sb + 1) * self.n_ues]
    }
}

/// The listed UE with the largest `metric`, and that metric: a
/// strict-`>` argmax from -inf in list order, so ties go to the lowest
/// index and an ineligible (-inf) entry never wins.
pub(crate) fn best_of(active: &[u16], metric: impl Fn(usize) -> f64) -> Option<(u16, f64)> {
    let mut best = None;
    let mut best_m = f64::NEG_INFINITY;
    for &u in active {
        let m = metric(u as usize);
        if m > best_m {
            best = Some(u);
            best_m = m;
        }
    }
    best.map(|u| (u, best_m))
}

/// A UE's rate in a subband: read off the flat matrix when the source
/// is one, through the virtual accessor otherwise.
#[derive(Clone, Copy)]
pub(crate) struct SubbandRates<'a> {
    rates: &'a dyn RateSource,
    planes: Option<&'a TtiRates>,
}

impl SubbandRates<'_> {
    pub(crate) fn get(&self, ue: u16, sb: usize) -> f64 {
        match self.planes {
            Some(t) => t.rate_in_subband(ue as usize, sb),
            None => self.rates.rate_in_subband(ue as usize, sb),
        }
    }
}

/// The one walk over the RB grid, which every scheduler allocates
/// through: visits the RBs in order, skips the reserved ones (a GBR
/// grant's RBs are not the dynamic scheduler's to give), and gives each
/// free RB to the UE `pick(sb, rates)` names, at the rate it returns —
/// the UE's rate in the RB's subband `sb`, read from `rates`. `None`
/// leaves the RB idle.
pub(crate) fn walk_free_rbs(
    alloc: &mut Allocation,
    rates: &dyn RateSource,
    mut pick: impl FnMut(usize, SubbandRates<'_>) -> Option<(u16, f64)>,
) {
    let sr = SubbandRates {
        rates,
        planes: rates.planes(),
    };
    for rb in 0..rates.n_rbs() {
        // One call site of `pick`, so it inlines into the loop.
        let (sb, reserved) = match sr.planes {
            Some(t) => (t.subband_of(rb), t.rb_reserved(rb)),
            None => (rates.subband_of(rb), rates.rb_reserved(rb)),
        };
        if !reserved {
            if let Some((u, r)) = pick(sb, sr) {
                alloc.assign(rb, u, r);
            }
        }
    }
}

/// Drive a per-subband winner function over the free RBs of the grid.
///
/// Evaluates `winner_of(sb)` once per *contiguous run* of RBs in the
/// same subband (subband ids are monotone in RB) and gives each free RB
/// of the run to the returned UE. The winner's subband rate is looked up
/// once per run (it is constant across the run — that is what a subband
/// is), and the per-RB `assign` (one f64 add per RB) keeps the exact
/// accumulation order of a per-RB scheduler, so allocations stay
/// bit-identical to one.
pub fn allocate_by_subband(
    alloc: &mut Allocation,
    rates: &dyn RateSource,
    mut winner_of: impl FnMut(usize) -> Option<u16>,
) {
    // Winner and its rate, memoized per contiguous subband run.
    let mut memo: Option<(usize, Option<(u16, f64)>)> = None;
    walk_free_rbs(alloc, rates, |sb, sr| match memo {
        Some((s, w)) if s == sb => w,
        _ => {
            let w = winner_of(sb).map(|u| (u, sr.get(u, sb)));
            memo = Some((sb, w));
            w
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::TtiRates;
    use crate::types::FlatRates;

    #[test]
    fn caches_rows_when_versions_stable() {
        struct Versioned {
            inner: FlatRates,
            vers: Vec<u64>,
        }
        impl RateSource for Versioned {
            fn rate_in_subband(&self, ue: usize, sb: usize) -> f64 {
                self.inner.rate_in_subband(ue, sb)
            }
            fn n_rbs(&self) -> u16 {
                self.inner.n_rbs()
            }
            fn n_ues(&self) -> usize {
                self.inner.n_ues()
            }
            fn rates_version(&self, ue: usize) -> Option<u64> {
                Some(self.vers[ue])
            }
        }
        let mut src = Versioned {
            inner: FlatRates {
                per_ue: vec![10.0, 0.0],
                rbs: 3,
            },
            vers: vec![0, 0],
        };
        let mut cache = SubbandMetricCache::new();
        cache.refresh(&src, |_| 0, |_, r| r * 2.0);
        assert_eq!(cache.metric(0, 1), 20.0);
        assert_eq!(cache.metric(1, 0), f64::NEG_INFINITY);
        assert_eq!(cache.misses, 2);

        cache.refresh(&src, |_| 0, |_, r| r * 2.0);
        assert_eq!(cache.hits, 2);

        // Bump UE 0's rate version: only that row recomputes.
        src.vers[0] = 1;
        src.inner.per_ue[0] = 5.0;
        cache.refresh(&src, |_| 0, |_, r| r * 2.0);
        assert_eq!(cache.metric(0, 0), 10.0);
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.hits, 3);
    }

    #[test]
    fn unversioned_sources_always_recompute() {
        let src = FlatRates {
            per_ue: vec![1.0],
            rbs: 2,
        };
        let mut cache = SubbandMetricCache::new();
        cache.refresh(&src, |_| 0, |_, r| r);
        cache.refresh(&src, |_| 0, |_, r| r);
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn plane_backed_refresh_matches_virtual_path() {
        // Same source content, one behind planes() and one behind the
        // virtual accessors only: identical cache contents.
        let tti = TtiRates {
            per_ue_sb: vec![10.0, 0.0, 25.0, 40.0, 5.0, 0.0],
            rb_to_sb: vec![0, 0, 1, 1, 2, 2],
            n_sb: 3,
            n_ues: 2,
            reserved: vec![false; 6],
            versions: vec![4, 9],
        };
        struct NoPlanes<'a>(&'a TtiRates);
        impl RateSource for NoPlanes<'_> {
            fn n_rbs(&self) -> u16 {
                self.0.n_rbs()
            }
            fn n_ues(&self) -> usize {
                self.0.n_ues()
            }
            fn n_subbands(&self) -> usize {
                self.0.n_subbands()
            }
            fn subband_of(&self, rb: u16) -> usize {
                self.0.subband_of(rb)
            }
            fn rate_in_subband(&self, ue: usize, sb: usize) -> f64 {
                self.0.rate_in_subband(ue, sb)
            }
            fn rates_version(&self, ue: usize) -> Option<u64> {
                self.0.rates_version(ue)
            }
        }
        let metric = |u: usize, r: f64| r / (u + 1) as f64;
        let mut flat = SubbandMetricCache::new();
        flat.refresh(&tti, |_| 0, metric);
        let mut virt = SubbandMetricCache::new();
        virt.refresh(&NoPlanes(&tti), |_| 0, metric);
        for ue in 0..2 {
            for sb in 0..3 {
                assert_eq!(
                    flat.metric(ue, sb).to_bits(),
                    virt.metric(ue, sb).to_bits(),
                    "ue {ue} sb {sb}"
                );
            }
        }
        // Second flat refresh with stable versions: all hits.
        flat.refresh(&tti, |_| 0, metric);
        assert_eq!(flat.hits, 2);
    }

    #[test]
    fn columns_are_contiguous_per_subband() {
        let tti = TtiRates {
            per_ue_sb: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            rb_to_sb: vec![0, 1],
            n_sb: 2,
            n_ues: 3,
            reserved: vec![false; 2],
            versions: vec![0; 3],
        };
        let mut cache = SubbandMetricCache::new();
        cache.refresh(&tti, |_| 0, |_, r| r);
        assert_eq!(cache.column(0), &[1.0, 3.0, 5.0]);
        assert_eq!(cache.column(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn detach_reattach_cycles_rows_without_staleness() {
        // A detach is modelled upstream (outran-ran) as a zeroed rate
        // row under an odd version tag; re-attach restores the live row
        // under a fresh even tag. The cache must recompute on both edges
        // — never serving the zeroed row after re-attach — and must
        // reproduce the original metrics bit-for-bit, while the other
        // UEs' rows stay cached throughout.
        let live = vec![10.0, 20.0, 30.0, 40.0, 5.0, 15.0];
        let mut tti = TtiRates {
            per_ue_sb: live.clone(),
            rb_to_sb: vec![0, 0, 1, 1, 2, 2],
            n_sb: 3,
            n_ues: 2,
            reserved: vec![false; 6],
            versions: vec![4, 6], // live rows carry even tags upstream
        };
        let metric = |u: usize, r: f64| r / (u as f64 + 2.0);
        let mut cache = SubbandMetricCache::new();
        cache.refresh(&tti, |_| 0, metric);
        let before: Vec<u64> = (0..3).map(|sb| cache.metric(1, sb).to_bits()).collect();
        assert_eq!(cache.misses, 2);

        // Detach UE 1: zeroed row, odd tag → the whole row collapses to
        // -inf (ineligible in any argmax or ε-band).
        tti.per_ue_sb[3..6].fill(0.0);
        tti.versions[1] = 7;
        cache.refresh(&tti, |_| 0, metric);
        for sb in 0..3 {
            assert_eq!(cache.metric(1, sb), f64::NEG_INFINITY, "sb {sb}");
        }
        assert_eq!(cache.hits, 1, "UE 0 must be served from cache");
        assert_eq!(cache.misses, 3);

        // Re-attach with the same report content under a fresh even tag:
        // recompute (tag moved), bit-identical metrics return.
        tti.per_ue_sb[3..6].copy_from_slice(&live[3..6]);
        tti.versions[1] = 8;
        cache.refresh(&tti, |_| 0, metric);
        let after: Vec<u64> = (0..3).map(|sb| cache.metric(1, sb).to_bits()).collect();
        assert_eq!(before, after);
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 4);
    }

    #[test]
    fn allocate_by_subband_matches_per_rb() {
        let src = FlatRates {
            per_ue: vec![4.0, 8.0],
            rbs: 6,
        };
        let mut alloc = Allocation::empty(6, 2);
        allocate_by_subband(&mut alloc, &src, |_| Some(1));
        assert_eq!(alloc.rbs_used(), 6);
        assert_eq!(alloc.bits_per_ue[1], 48.0);
    }

    #[test]
    fn allocate_by_subband_plane_path_skips_reserved() {
        let tti = TtiRates {
            per_ue_sb: vec![4.0, 8.0],
            rb_to_sb: vec![0, 0, 1, 1],
            n_sb: 2,
            n_ues: 1,
            reserved: vec![false, true, false, false],
            versions: vec![0],
        };
        let mut alloc = Allocation::empty(4, 1);
        allocate_by_subband(&mut alloc, &tti, |_| Some(0));
        assert_eq!(alloc.rb_to_ue, vec![Some(0), None, Some(0), Some(0)]);
        assert_eq!(alloc.bits_per_ue[0], 4.0 + 8.0 + 8.0);
    }

    /// With a GBR grant holding the lowest RBs, every scheduler still
    /// fills the rest of a saturated grid, and none touches the grant.
    #[test]
    fn every_scheduler_grants_exactly_the_free_rbs() {
        use crate::{
            CqaScheduler, OutRanScheduler, PfScheduler, PssScheduler, RrScheduler, Scheduler,
            SrjfMode, SrjfScheduler, UeTti,
        };
        use outran_pdcp::Priority;
        use outran_simcore::{Dur, Time};
        let (tf, tti) = (Dur::from_millis(100), Dur::from_millis(1));
        let rates = TtiRates {
            per_ue_sb: vec![
                300.0, 200.0, 100.0, 400.0, //
                250.0, 350.0, 150.0, 120.0, //
                90.0, 60.0, 500.0, 210.0,
            ],
            rb_to_sb: vec![0, 0, 1, 1, 2, 2, 3, 3],
            n_sb: 4,
            n_ues: 3,
            reserved: vec![true, true, false, false, false, false, false, false],
            versions: vec![0; 3],
        };
        let ues: Vec<UeTti> = (0..3)
            .map(|u| UeTti {
                active: true,
                head_priority: Some(Priority(u as u8)),
                queued_bytes: 1_000_000,
                oracle_min_remaining: Some(1_000_000),
                hol_delay: Dur::from_millis(20),
                oracle_has_qos_flow: u == 1,
            })
            .collect();
        let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
            ("PF", Box::new(PfScheduler::with_tf(3, tf, tti))),
            ("MT", Box::new(OutRanScheduler::mt())),
            (
                "OutRAN",
                Box::new(OutRanScheduler::over_pf(3, tf, tti, 0.2)),
            ),
            ("RR", Box::new(RrScheduler::default())),
            ("SRJF", Box::new(SrjfScheduler::default())),
            (
                "SRJF winner-only",
                Box::new(SrjfScheduler::with_mode(SrjfMode::WinnerOnly)),
            ),
            ("PSS", Box::new(PssScheduler::new(3, tf, tti))),
            ("CQA", Box::new(CqaScheduler::new(3, tf, tti))),
        ];
        for (name, mut s) in schedulers {
            let a = s.allocate(Time::ZERO, &ues, &rates);
            assert_eq!(a.rb_to_ue[..2], [None, None], "{name} granted a GBR RB");
            assert_eq!(a.rbs_used(), 6, "{name}: {:?}", a.rb_to_ue);
        }
    }
}
