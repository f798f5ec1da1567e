//! Per-cell telemetry: spectral efficiency, fairness, queueing delay.

use outran_simcore::stats::jain_fairness;
use outran_simcore::{Dur, Ewma, Percentiles, RunningStats};

/// Collects per-TTI cell-level measurements.
///
/// * **Spectral efficiency** — delivered bits ÷ (bandwidth × time), in
///   bit/s/Hz, sampled over windows of `sample_ttis` TTIs ("the CDF of
///   the spectral efficiency and fairness values obtained from the
///   xNodeB for every 50 TTIs", Fig 7).
/// * **Fairness** — Jain's index (eq. 3) over per-UE service within the
///   sampling window, computed over the UEs that *had data queued*
///   during the window (demand-aware: an idle UE has no throughput to be
///   fair about, while a backlogged-but-starved UE drags the index down
///   — which is exactly how SRJF's 47 % fairness collapse in Fig 4b
///   manifests).
/// * **Queueing delay** — sojourn of each SDU in the RLC buffer, split
///   by short-flow membership (the Fig 17 ②/③ columns).
#[derive(Debug, Clone)]
pub struct CellMetrics {
    bandwidth_hz: f64,
    tti: Dur,
    sample_ttis: u32,
    tti_in_window: u32,
    bits_in_window: f64,
    window_ue_bits: Vec<f64>,
    window_ue_active: Vec<bool>,
    se_samples: Percentiles,
    fairness_samples: Percentiles,
    se_series: Vec<f64>,
    fairness_series: Vec<f64>,
    /// Long-term `r̃_u` per UE. Nothing reads it; it stays because the
    /// version-1 snapshot layout carries it.
    ue_avg: Vec<Ewma>,
    total_bits: f64,
    total_ttis: u64,
    qdelay_all: RunningStats,
    qdelay_short: RunningStats,
    /// Nothing reads it; carried by the version-1 snapshot layout.
    qdelay_short_p: Percentiles,
}

impl CellMetrics {
    /// Create for a cell of `bandwidth_hz`, `n_ues` UEs, TTI length
    /// `tti`; SE/fairness sampled every `sample_ttis` (paper: 50) with
    /// the fairness window `tf` for `r̃_u`.
    pub fn new(
        bandwidth_hz: f64,
        n_ues: usize,
        tti: Dur,
        sample_ttis: u32,
        tf: Dur,
    ) -> CellMetrics {
        let window = (tf.as_nanos() / tti.as_nanos()).max(1);
        CellMetrics {
            bandwidth_hz,
            tti,
            sample_ttis: sample_ttis.max(1),
            tti_in_window: 0,
            bits_in_window: 0.0,
            window_ue_bits: vec![0.0; n_ues],
            window_ue_active: vec![false; n_ues],
            se_samples: Percentiles::new(),
            fairness_samples: Percentiles::new(),
            se_series: Vec::new(),
            fairness_series: Vec::new(),
            ue_avg: vec![Ewma::from_window(window); n_ues],
            total_bits: 0.0,
            total_ttis: 0,
            qdelay_all: RunningStats::new(),
            qdelay_short: RunningStats::new(),
            qdelay_short_p: Percentiles::new(),
        }
    }

    /// Record one TTI's delivered bits per UE. `had_data[u]` reports
    /// whether UE `u` had anything queued this TTI (the demand mask the
    /// fairness sample is computed over).
    pub fn on_tti(&mut self, delivered_bits_per_ue: &[f64], had_data: &[bool]) {
        let total: f64 = delivered_bits_per_ue.iter().sum();
        self.total_bits += total;
        self.total_ttis += 1;
        self.bits_in_window += total;
        self.tti_in_window += 1;
        for (u, (avg, &b)) in self
            .ue_avg
            .iter_mut()
            .zip(delivered_bits_per_ue)
            .enumerate()
        {
            avg.update(b);
            self.window_ue_bits[u] += b;
            if had_data.get(u).copied().unwrap_or(false) {
                self.window_ue_active[u] = true;
            }
        }
        if self.tti_in_window >= self.sample_ttis {
            let window_secs = self.tti.as_secs_f64() * self.tti_in_window as f64;
            let se = self.bits_in_window / (window_secs * self.bandwidth_hz);
            self.se_samples.push(se);
            self.se_series.push(se);
            // Fairness over the service received within the window by
            // the UEs that had demand in it (skip windows with at most
            // one demanding UE — fairness is undefined there). A
            // backlogged-but-starved UE contributes a zero and drags the
            // index down, which is how SRJF's fairness collapse (Fig 4b)
            // registers.
            let demanded: Vec<f64> = self
                .window_ue_bits
                .iter()
                .zip(&self.window_ue_active)
                .filter(|(_, &a)| a)
                .map(|(&b, _)| b)
                .collect();
            if demanded.len() >= 2 {
                let f = jain_fairness(&demanded);
                self.fairness_samples.push(f);
                self.fairness_series.push(f);
            }
            self.tti_in_window = 0;
            self.bits_in_window = 0.0;
            self.window_ue_bits.iter_mut().for_each(|b| *b = 0.0);
            self.window_ue_active.iter_mut().for_each(|a| *a = false);
        }
    }

    /// Account for `k` idle TTIs in which nothing was queued or served.
    ///
    /// Only wall-clock accounting moves: `total_ttis` (the denominator of
    /// [`CellMetrics::spectral_efficiency`]) grows by `k`, while the
    /// 50-TTI SE/fairness sampling windows and the per-UE EWMAs are
    /// frozen — an all-zero TTI carries no service to smooth or be fair
    /// about. Both the dense and event-driven cell loops call this for
    /// idle TTIs, so the two modes book identical metrics.
    pub fn note_idle_ttis(&mut self, k: u64) {
        self.total_ttis += k;
    }

    /// Record the RLC-buffer sojourn of one delivered SDU.
    pub fn on_queue_delay(&mut self, delay: Dur, short_flow: bool) {
        let ms = delay.as_millis_f64();
        self.qdelay_all.push(ms);
        if short_flow {
            self.qdelay_short.push(ms);
            self.qdelay_short_p.push(ms);
        }
    }

    /// Long-run spectral efficiency over the whole run (bit/s/Hz).
    pub fn spectral_efficiency(&self) -> f64 {
        if self.total_ttis == 0 {
            return 0.0;
        }
        let secs = self.tti.as_secs_f64() * self.total_ttis as f64;
        self.total_bits / (secs * self.bandwidth_hz)
    }

    /// Mean of the windowed fairness samples.
    pub fn mean_fairness(&mut self) -> f64 {
        if self.fairness_samples.is_empty() {
            return f64::NAN;
        }
        self.fairness_samples.mean()
    }

    /// CDF of windowed SE samples (Fig 7a).
    pub fn se_cdf(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        self.se_samples.cdf_points(max_points)
    }

    /// CDF of windowed fairness samples (Fig 7b).
    pub fn fairness_cdf(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        self.fairness_samples.cdf_points(max_points)
    }

    /// Windowed SE samples in time order (Fig 4a's time series).
    pub fn se_series(&self) -> &[f64] {
        &self.se_series
    }

    /// Windowed fairness samples in time order (Fig 4b's time series).
    pub fn fairness_series(&self) -> &[f64] {
        &self.fairness_series
    }

    /// Mean queueing delay over all SDUs (ms) — Fig 17 ②.
    pub fn mean_qdelay_ms(&self) -> f64 {
        self.qdelay_all.mean()
    }

    /// Mean queueing delay of short-flow SDUs (ms) — Fig 17 ③.
    pub fn short_qdelay_ms(&self) -> f64 {
        self.qdelay_short.mean()
    }

    /// Total bits delivered.
    pub fn total_bits(&self) -> f64 {
        self.total_bits
    }
}

// The configuration-derived fields are re-established by constructing
// from the run config; the per-UE vectors must keep its UE count.
outran_simcore::snap_fields! {
    overlay CellMetrics {
        tti_in_window, bits_in_window, window_ue_bits: fixed, window_ue_active: fixed,
        se_samples, fairness_samples, se_series, fairness_series, ue_avg: fixed,
        total_bits, total_ttis, qdelay_all, qdelay_short, qdelay_short_p,
    }
    rebuilt { bandwidth_hz, tti, sample_ttis }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CellMetrics {
        CellMetrics::new(20e6, 4, Dur::from_millis(1), 50, Dur::from_millis(200))
    }

    const ALL: [bool; 4] = [true; 4];

    #[test]
    fn spectral_efficiency_math() {
        let mut c = m();
        // 20 MHz, 1 ms TTI: 40 kbit/TTI => 2 bit/s/Hz.
        for _ in 0..100 {
            c.on_tti(&[10_000.0, 10_000.0, 10_000.0, 10_000.0], &ALL);
        }
        assert!((c.spectral_efficiency() - 2.0).abs() < 1e-9);
        let cdf = c.se_cdf(10);
        assert!(!cdf.is_empty());
        assert!((cdf[0].0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn starved_demanding_ues_tank_fairness() {
        // All four UEs have data, only one is served (SRJF-like): the
        // windowed fairness sample must approach 1/4.
        let mut c = m();
        for _ in 0..100 {
            c.on_tti(&[40_000.0, 0.0, 0.0, 0.0], &ALL);
        }
        let f = c.mean_fairness();
        assert!((f - 0.25).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn idle_ues_do_not_tank_fairness() {
        // Only UE 0 has data and is served: nothing unfair happened.
        let mut c = m();
        for _ in 0..100 {
            c.on_tti(&[40_000.0, 0.0, 0.0, 0.0], &[true, false, false, false]);
        }
        // Fewer than two demanding UEs => no fairness samples at all.
        assert!(c.mean_fairness().is_nan());
    }

    #[test]
    fn skewed_service_detected() {
        let mut c2 = m();
        for i in 0..100 {
            // Serve UE 0 three times as often; both demand always.
            if i % 4 == 0 {
                c2.on_tti(&[0.0, 10_000.0, 0.0, 0.0], &[true, true, false, false]);
            } else {
                c2.on_tti(&[10_000.0, 0.0, 0.0, 0.0], &[true, true, false, false]);
            }
        }
        let f = c2.mean_fairness();
        assert!(f < 0.95, "f={f}");
        assert!(f > 0.5, "f={f}");
    }

    #[test]
    fn equal_service_is_fair() {
        let mut c = m();
        for _ in 0..200 {
            c.on_tti(&[5_000.0; 4], &ALL);
        }
        assert!((c.mean_fairness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qdelay_split_by_bucket() {
        let mut c = m();
        c.on_queue_delay(Dur::from_millis(10), true);
        c.on_queue_delay(Dur::from_millis(30), true);
        c.on_queue_delay(Dur::from_millis(100), false);
        assert!((c.short_qdelay_ms() - 20.0).abs() < 1e-9);
        assert!((c.mean_qdelay_ms() - 140.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_window_boundary() {
        let mut c = m();
        for _ in 0..49 {
            c.on_tti(&[1000.0; 4], &ALL);
        }
        assert!(c.se_cdf(10).is_empty(), "no full window yet");
        c.on_tti(&[1000.0; 4], &ALL);
        assert_eq!(c.se_cdf(10).len(), 1);
    }
}
