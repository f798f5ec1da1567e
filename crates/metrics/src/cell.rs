//! Per-cell telemetry: spectral efficiency, fairness, queueing delay.

use outran_simcore::stats::jain_fairness;
use outran_simcore::{Dur, Percentiles, RunningStats};

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
    /// Windowed samples in time order: the one store behind both the
    /// time series (Fig 4) and the CDFs (Fig 7).
    se_series: Vec<f64>,
    fairness_series: Vec<f64>,
    total_bits: f64,
    total_ttis: u64,
    qdelay_all: RunningStats,
    qdelay_short: RunningStats,
}

impl CellMetrics {
    /// Create for a cell of `bandwidth_hz`, `n_ues` UEs, TTI length
    /// `tti`; SE/fairness sampled every `sample_ttis` (paper: 50).
    pub fn new(bandwidth_hz: f64, n_ues: usize, tti: Dur, sample_ttis: u32) -> CellMetrics {
        CellMetrics {
            bandwidth_hz,
            tti,
            sample_ttis: sample_ttis.max(1),
            tti_in_window: 0,
            bits_in_window: 0.0,
            window_ue_bits: vec![0.0; n_ues],
            window_ue_active: vec![false; n_ues],
            se_series: Vec::new(),
            fairness_series: Vec::new(),
            total_bits: 0.0,
            total_ttis: 0,
            qdelay_all: RunningStats::new(),
            qdelay_short: RunningStats::new(),
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
        for (u, &b) in delivered_bits_per_ue.iter().enumerate() {
            self.window_ue_bits[u] += b;
            if had_data.get(u).copied().unwrap_or(false) {
                self.window_ue_active[u] = true;
            }
        }
        if self.tti_in_window >= self.sample_ttis {
            let window_secs = self.tti.as_secs_f64() * self.tti_in_window as f64;
            let se = self.bits_in_window / (window_secs * self.bandwidth_hz);
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
                self.fairness_series.push(jain_fairness(&demanded));
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
    /// 50-TTI SE/fairness sampling windows are frozen — an all-zero TTI
    /// carries no service to be fair about. Both the dense and
    /// event-driven cell loops call this for idle TTIs, so the two modes
    /// book identical metrics.
    pub fn note_idle_ttis(&mut self, k: u64) {
        self.total_ttis += k;
    }

    /// TTIs booked, active and idle.
    pub fn total_ttis(&self) -> u64 {
        self.total_ttis
    }

    /// Record the RLC-buffer sojourn of one delivered SDU.
    pub fn on_queue_delay(&mut self, delay: Dur, short_flow: bool) {
        let ms = delay.as_millis_f64();
        self.qdelay_all.push(ms);
        if short_flow {
            self.qdelay_short.push(ms);
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

    /// Mean of the windowed fairness samples, summed in time order; NaN
    /// when there are none.
    pub fn mean_fairness(&self) -> f64 {
        let n = self.fairness_series.len();
        if n == 0 {
            return f64::NAN;
        }
        self.fairness_series.iter().sum::<f64>() / n as f64
    }

    /// Windowed SE samples in time order (Fig 4a's time series; [`cdf`]
    /// of it is Fig 7a).
    pub fn se_series(&self) -> &[f64] {
        &self.se_series
    }

    /// Windowed fairness samples in time order (Fig 4b's time series;
    /// [`cdf`] of it is Fig 7b).
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

/// At most `max_points` CDF points of a time-ordered series, from a
/// sorted copy (the series keeps its order).
pub fn cdf(series: &[f64], max_points: usize) -> Vec<(f64, f64)> {
    let mut p = Percentiles::new();
    series.iter().for_each(|&x| p.push(x));
    p.cdf_points(max_points)
}

// The configuration-derived fields are re-established by constructing
// from the run config; the per-UE vectors must keep its UE count.
outran_simcore::snap_fields! {
    overlay CellMetrics {
        tti_in_window in counter, bits_in_window, window_ue_bits: fixed,
        window_ue_active: fixed, se_series, fairness_series, total_bits,
        total_ttis in counter, qdelay_all, qdelay_short,
    }
    rebuilt { bandwidth_hz, tti, sample_ttis }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CellMetrics {
        CellMetrics::new(20e6, 4, Dur::from_millis(1), 50)
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
        let cdf = cdf(c.se_series(), 10);
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

    /// The window statistics of a seeded `on_tti` run, restored from a
    /// snapshot halfway through, pinned bit for bit: the mean fairness,
    /// then both CDFs (500 windows, so the 200-point down-sampling steps).
    #[test]
    fn window_statistics_are_pinned_across_a_restore() {
        use outran_simcore::snap::{fnv1a, LoadSnap, Snap, SnapReader, SnapWriter};
        use outran_simcore::Rng;
        let mut rng = Rng::new(0xC311);
        let mut tti = |c: &mut CellMetrics| {
            let bits: Vec<f64> = (0..4)
                .map(|_| rng.chance(0.8) as u8 as f64 * rng.range_f64(0.0, 40_000.0))
                .collect();
            let had_data: Vec<bool> = (0..4).map(|_| rng.chance(0.7)).collect();
            c.on_tti(&bits, &had_data);
        };
        let mut first = m();
        for _ in 0..12_345 {
            tti(&mut first);
        }
        let mut w = SnapWriter::new();
        first.snap(&mut w);
        let bytes = w.into_bytes();
        let mut c = m();
        c.load_snap(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 12_345..25_000 {
            tti(&mut c);
        }
        let digest = |points: &[(f64, f64)]| {
            let words: Vec<u8> = points
                .iter()
                .flat_map(|&(x, p)| [x.to_bits(), p.to_bits()])
                .flat_map(u64::to_le_bytes)
                .collect();
            fnv1a(&words)
        };
        let mean = c.mean_fairness();
        let (se, fairness) = (cdf(c.se_series(), 200), cdf(c.fairness_series(), 200));
        assert_eq!(mean.to_bits(), 0x3fef_b044_10ac_9b8b);
        assert_eq!((se.len(), digest(&se)), (251, 0x880e_f166_1cd5_6463));
        assert_eq!(
            (fairness.len(), digest(&fairness)),
            (251, 0x450a_765e_0fe3_affa)
        );
    }

    #[test]
    fn sampling_window_boundary() {
        let mut c = m();
        for _ in 0..49 {
            c.on_tti(&[1000.0; 4], &ALL);
        }
        assert!(cdf(c.se_series(), 10).is_empty(), "no full window yet");
        c.on_tti(&[1000.0; 4], &ALL);
        assert_eq!(cdf(c.se_series(), 10).len(), 1);
    }
}
