//! The reusable per-TTI rate matrix fed by the PHY's delivered CQI
//! reports — the concrete plane-backed [`RateSource`] behind the
//! scheduler kernels.

use crate::types::RateSource;

/// Per-TTI rate matrix adapter (subband-granular) for the scheduler.
/// Reused across TTIs: the MAC stage rewrites only the rows whose
/// content version moved.
///
/// All state is stored as flat planes (UE-major `per_ue_sb`, per-RB
/// `rb_to_sb`/`reserved`, per-UE `versions`), which the scheduler
/// kernels read directly (see [`RateSource::planes`]).
#[derive(Default)]
pub struct TtiRates {
    /// Per-(UE, subband) deliverable bits per RB this TTI.
    pub per_ue_sb: Vec<f64>,
    /// RB index → subband index.
    pub rb_to_sb: Vec<usize>,
    /// Subband count.
    pub n_sb: usize,
    /// UE count.
    pub n_ues: usize,
    /// RBs pre-empted by semi-persistent GBR grants this TTI: the grid
    /// walk every scheduler allocates through skips them.
    pub reserved: Vec<bool>,
    /// Per-UE content version of the `per_ue_sb` row: the delivered CQI
    /// report version doubled, plus one while the UE's link is down (a
    /// zeroed row never aliases a live one). Schedulers key their metric
    /// caches on this.
    pub versions: Vec<u64>,
}

impl RateSource for TtiRates {
    fn n_rbs(&self) -> u16 {
        self.rb_to_sb.len() as u16
    }
    fn n_ues(&self) -> usize {
        self.n_ues
    }
    fn n_subbands(&self) -> usize {
        self.n_sb
    }
    fn subband_of(&self, rb: u16) -> usize {
        self.rb_to_sb[rb as usize]
    }
    fn rate_in_subband(&self, ue: usize, sb: usize) -> f64 {
        self.per_ue_sb[ue * self.n_sb + sb]
    }
    fn rb_reserved(&self, rb: u16) -> bool {
        self.reserved[rb as usize]
    }
    fn rates_version(&self, ue: usize) -> Option<u64> {
        Some(self.versions[ue])
    }
    fn planes(&self) -> Option<&TtiRates> {
        Some(self)
    }
}
