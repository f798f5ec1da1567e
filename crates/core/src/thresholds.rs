//! MLFQ demotion-threshold optimization (the PIAS method, §4.2).
//!
//! PIAS \[18, 19\] derives the demotion thresholds by minimising the
//! expected flow completion time of an M/G/1 system with K strict
//! priority queues, where a flow of size `s` sends its bytes in
//! `(α_{j−1}, α_j]` slices through queues of decreasing priority. We use
//! the same analytical objective:
//!
//! * per-queue load: `ρ_i = λ·E[min(S,α_i) − min(S,α_{i−1})]` expressed
//!   as a fraction of capacity (λ chosen so total load = the target);
//! * a flow finishing in queue `j` sees delay dominated by the work of
//!   queues 1..=j (priority M/G/1 approximation):
//!   `T_j ∝ 1 / (1 − Σ_{i≤j} ρ_i)` per byte of service;
//! * objective: `E_S[ Σ_{j : flow passes j} bytes_j · T_j ]`.
//!
//! The paper solved this with SciPy's global optimizer; a deterministic
//! log-grid coordinate descent reaches the same fixed point for these
//! smooth single-basin objectives and keeps the build dependency-free.
//!
//! Like the paper's, the solve is offline: no run calls it.
//! [`crate::PAPER_THRESHOLDS`], `OutRanConfig`'s default, is its answer
//! for the LTE cellular distribution at K = 4 and load 0.6, and a test
//! holds the two equal.

use outran_simcore::Empirical;

/// Midpoint-rule resolution of the objective's integrals over the
/// quantile function.
const N_QUANTILES: usize = 600;

/// Everything the objective reads from the CDF — the midpoint quantiles
/// and the mean — tabulated once per solve, so the candidate vectors a
/// solve scores (611 in the default LTE, K = 4, load 0.6 solve) pay for
/// the `ln`/`exp` work once. Sums run over the table in quantile order,
/// the order the original per-candidate integration used, so every
/// value is that integration's bit pattern.
struct SizeTable {
    sizes: Vec<f64>,
    mean: f64,
}

impl SizeTable {
    fn new(cdf: &Empirical) -> SizeTable {
        SizeTable {
            sizes: (0..N_QUANTILES)
                .map(|i| cdf.quantile((i as f64 + 0.5) / N_QUANTILES as f64))
                .collect(),
            mean: cdf.mean(),
        }
    }

    /// Expected bytes a flow sends between cumulative sizes `lo` and
    /// `hi`: `E[min(S,hi) − min(S,lo)]`.
    fn expected_bytes_between(&self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        let mut acc = 0.0;
        for &s in &self.sizes {
            acc += (s.min(hi) - s.min(lo)).max(0.0);
        }
        acc / N_QUANTILES as f64
    }

    /// The PIAS mean-delay objective over the tabulated sizes.
    fn objective(&self, thresholds: &[f64], load: f64) -> f64 {
        let mean_size = self.mean;
        // λ per unit capacity so that Σρ = load.
        let lam = load / mean_size;
        let mut bounds = Vec::with_capacity(thresholds.len() + 2);
        bounds.push(0.0);
        bounds.extend_from_slice(thresholds);
        bounds.push(f64::INFINITY);
        // Per-queue loads.
        let k = bounds.len() - 1;
        let mut rho = Vec::with_capacity(k);
        for j in 0..k {
            rho.push(lam * self.expected_bytes_between(bounds[j], bounds[j + 1]));
        }
        // Cumulative delay factor and per-queue waiting time. A flow being
        // serviced in queue j progresses at 1/factor_j of the line rate
        // (higher-priority work preempts it), and each queue it enters costs
        // an M/G/1-style waiting term W_j = R·Σρ_{i≤j}/(1−Σρ_{i≤j}) with the
        // mean residual R of the flow-size distribution. The waiting term is
        // what penalises a bloated P1: *every* flow starts in P1, and 90 %
        // of flows are short, so their count dominates the mean FCT.
        let mut cum = 0.0;
        let mut delay_factor = Vec::with_capacity(k);
        let mut wait = Vec::with_capacity(k);
        let residual = mean_size / 2.0;
        for &r in &rho {
            cum = (cum + r).min(0.999);
            delay_factor.push(1.0 / (1.0 - cum));
            wait.push(residual * cum / (1.0 - cum));
        }
        // E_S[ Σ_{queues traversed} (W_j + bytes_j · factor_j) ] via quantiles.
        let mut acc = 0.0;
        for &s in &self.sizes {
            for j in 0..k {
                let lo = bounds[j];
                let hi = bounds[j + 1];
                if s <= lo && j > 0 {
                    break; // flow finished before reaching this queue
                }
                let bytes = (s.min(hi) - s.min(lo)).max(0.0);
                acc += wait[j] + bytes * delay_factor[j];
                if s <= hi {
                    break;
                }
            }
        }
        acc / N_QUANTILES as f64
    }
}

/// The PIAS mean-delay objective for a threshold vector (lower = better).
pub fn objective(cdf: &Empirical, thresholds: &[f64], load: f64) -> f64 {
    SizeTable::new(cdf).objective(thresholds, load)
}

/// Optimize `k − 1` demotion thresholds for a flow-size CDF at a target
/// load, by coordinate descent over a log-spaced grid. Deterministic.
pub fn optimize_thresholds(cdf: &Empirical, k: usize, load: f64) -> Vec<u64> {
    assert!(k >= 2, "need at least 2 queues for thresholds to exist");
    assert!(load > 0.0 && load < 1.0);
    // Search grid: log-spaced between the 5th and 99.9th percentile.
    let lo = cdf.quantile(0.05).max(64.0);
    let hi = cdf.quantile(0.999);
    let grid_n = 64;
    let grid: Vec<f64> = (0..grid_n)
        .map(|i| {
            let f = i as f64 / (grid_n - 1) as f64;
            (lo.ln() + f * (hi.ln() - lo.ln())).exp()
        })
        .collect();
    // Initial guess: equal quantile split.
    let mut th: Vec<f64> = (1..k)
        .map(|j| cdf.quantile(j as f64 / k as f64).max(lo))
        .collect();
    th.sort_by(|a, b| a.total_cmp(b));
    dedup_increasing(&mut th);

    let table = SizeTable::new(cdf);
    let mut best = table.objective(&th, load);
    for _round in 0..8 {
        let mut improved = false;
        for idx in 0..th.len() {
            let lo_bound = if idx == 0 { 0.0 } else { th[idx - 1] };
            let hi_bound = if idx + 1 < th.len() {
                th[idx + 1]
            } else {
                f64::INFINITY
            };
            let mut cand = th.clone();
            let mut best_here = th[idx];
            for &g in grid.iter().filter(|&&g| g > lo_bound && g < hi_bound) {
                cand[idx] = g;
                let v = table.objective(&cand, load);
                if v < best - 1e-9 {
                    best = v;
                    best_here = g;
                    improved = true;
                }
            }
            th[idx] = best_here;
        }
        if !improved {
            break;
        }
    }
    th.iter()
        .map(|&t| t.round() as u64)
        .scan(0u64, |prev, t| {
            // Enforce strict monotonicity after rounding.
            let t = t.max(*prev + 1);
            *prev = t;
            Some(t)
        })
        .collect()
}

fn dedup_increasing(v: &mut [f64]) {
    for i in 1..v.len() {
        if v[i] <= v[i - 1] {
            v[i] = v[i - 1] * 1.5;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_workload::FlowSizeDist;

    #[test]
    fn thresholds_strictly_increasing() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let th = optimize_thresholds(&cdf, 4, 0.6);
        assert_eq!(th.len(), 3);
        for w in th.windows(2) {
            assert!(w[0] < w[1], "{th:?}");
        }
    }

    #[test]
    fn optimizer_beats_naive_split() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let th = optimize_thresholds(&cdf, 4, 0.6);
        let thf: Vec<f64> = th.iter().map(|&t| t as f64).collect();
        let opt = objective(&cdf, &thf, 0.6);
        // Naive: equal log-split of the size range.
        let naive = vec![1_000.0, 31_623.0, 1_000_000.0];
        let naive_obj = objective(&cdf, &naive, 0.6);
        assert!(
            opt <= naive_obj * 1.001,
            "optimized {opt} must beat naive {naive_obj}"
        );
    }

    #[test]
    fn first_threshold_protects_short_flows() {
        // With 90% of flows < 35.9KB, the first demotion must happen at
        // a size that lets typical short flows finish in P1/P2.
        let cdf = FlowSizeDist::LteCellular.cdf();
        let th = optimize_thresholds(&cdf, 4, 0.6);
        // 90 % of flows are < 35.9 KB; a first demotion anywhere between
        // a few hundred bytes and ~150 KB keeps them in the top queues
        // (PIAS's own thresholds for heavy-tailed web workloads sit in
        // the tens-of-KB to ~1 MB range depending on load).
        assert!(
            (500..=150_000).contains(&th[0]),
            "alpha_1 = {} out of expected band",
            th[0]
        );
    }

    #[test]
    fn deterministic() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        assert_eq!(
            optimize_thresholds(&cdf, 4, 0.6),
            optimize_thresholds(&cdf, 4, 0.6)
        );
    }

    /// Solver output and objective bits recorded at e9aa854, before the
    /// quantile table replaced per-candidate integration: the table must
    /// reproduce the direct integration exactly, not approximately.
    #[test]
    fn solver_is_pinned_bit_for_bit() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let pins: [(usize, f64, &[u64], u64); 5] = [
            (2, 0.6, &[1085015], 0x4102bd0dfcdb24a4),
            (4, 0.3, &[38743, 749257, 3294960], 0x40f6b80188c74c45),
            (4, 0.6, &[56104, 1305684, 4771501], 0x40ff6a0a0f9c2e76),
            (4, 0.8, &[97770, 1890789, 5741923], 0x4106092572778863),
            (
                8,
                0.6,
                &[104, 125, 5056, 81246, 749257, 2275335, 5741923],
                0x40fe2e0f28097979,
            ),
        ];
        for (k, load, want, want_bits) in pins {
            let th = optimize_thresholds(&cdf, k, load);
            assert_eq!(th, want, "k={k} load={load}");
            let thf: Vec<f64> = th.iter().map(|&t| t as f64).collect();
            assert_eq!(
                objective(&cdf, &thf, load).to_bits(),
                want_bits,
                "k={k} load={load}"
            );
        }
    }

    /// Thresholds and objective bits for every distribution, K ∈ {2, 3,
    /// 4, 6, 8} and load ∈ {0.3, 0.6, 0.8}, recorded at f4b5711 — the
    /// scan that scored one candidate at a time — before the batch
    /// scorer replaced it.
    #[rustfmt::skip]
    const EVERY_DISTRIBUTION: [(FlowSizeDist, usize, f64, &[u64], u64); 60] = {
        use FlowSizeDist::*;
        [
            (LteCellular, 2, 0.3, &[517400], 0x40f87398dccda1d4),
            (LteCellular, 2, 0.6, &[1085015], 0x4102bd0dfcdb24a4),
            (LteCellular, 2, 0.8, &[1890789], 0x410d4814f61c0f3f),
            (LteCellular, 3, 0.3, &[97770, 2275335], 0x40f7362feff49e0b),
            (LteCellular, 3, 0.6, &[170377, 3294960], 0x41009a451a405b96),
            (LteCellular, 3, 0.8, &[357290, 3965086], 0x410829ec44916d0c),
            (LteCellular, 4, 0.3, &[38743, 749257, 3294960], 0x40f6b80188c74c45),
            (LteCellular, 4, 0.6, &[56104, 1305684, 4771501], 0x40ff6a0a0f9c2e76),
            (LteCellular, 4, 0.8, &[97770, 1890789, 5741923], 0x4106092572778863),
            (LteCellular, 6, 0.3, &[4201, 38743, 517400, 1890789, 4771501], 0x40f656275c1bc58f),
            (LteCellular, 6, 0.6, &[4201, 56104, 749257, 2275335, 5741923], 0x40fe36e56de0a36a),
            (LteCellular, 6, 0.8, &[8810, 170377, 1305684, 3294960, 6909710], 0x410489dc3ef12ed2),
            (LteCellular, 8, 0.3, &[104, 125, 4201, 38743, 517400, 1890789, 4771501], 0x40f656bacba81e23),
            (LteCellular, 8, 0.6, &[104, 125, 5056, 81246, 749257, 2275335, 5741923], 0x40fe2e0f28097979),
            (LteCellular, 8, 0.8, &[104, 379, 10602, 205028, 1305684, 3294960, 6909710], 0x4104809a6293c560),
            (MirageMobileApp, 2, 0.3, &[283440], 0x40e55552e582a7c8),
            (MirageMobileApp, 2, 0.6, &[588206], 0x40f0aba81bf24cb0),
            (MirageMobileApp, 2, 0.8, &[1220667], 0x40fb0e2a4ec08db1),
            (MirageMobileApp, 3, 0.3, &[31714, 1220667], 0x40e435c58a9677b8),
            (MirageMobileApp, 3, 0.6, &[113796, 2110562], 0x40ed5cbb56747f8a),
            (MirageMobileApp, 3, 0.8, &[196756, 2533174], 0x40f61d3fdb812fd0),
            (MirageMobileApp, 4, 0.3, &[15282, 408315, 2110562], 0x40e3c1bd56956c71),
            (MirageMobileApp, 4, 0.6, &[31714, 588206, 2533174], 0x40ebc57cfb8519e1),
            (MirageMobileApp, 4, 0.8, &[78994, 1220667, 3649212], 0x40f403a5457e9e18),
            (MirageMobileApp, 6, 0.3, &[1187, 18342, 196756, 1017022, 3040409], 0x40e36824ddbf61df),
            (MirageMobileApp, 6, 0.6, &[2957, 45687, 408315, 1465089, 3649212], 0x40ea7b200675bed4),
            (MirageMobileApp, 6, 0.8, &[6136, 163931, 847351, 2533174, 4379919], 0x40f274b03abb251d),
            (MirageMobileApp, 8, 0.3, &[64, 191, 2957, 31714, 283440, 1220667, 3040409], 0x40e35db4df182082),
            (MirageMobileApp, 8, 0.6, &[64, 276, 4259, 65815, 490075, 1758454, 3649212], 0x40ea605e858ce57d),
            (MirageMobileApp, 8, 0.8, &[64, 824, 10609, 196756, 847351, 2533174, 4379919], 0x40f254dd01e97149),
            (Websearch, 2, 0.3, &[3079953], 0x41441bc461309eeb),
            (Websearch, 2, 0.6, &[4224032], 0x41501c23cb104eea),
            (Websearch, 2, 0.8, &[6784249], 0x415ae6fb5505945e),
            (Websearch, 3, 0.3, &[1193974, 6784249], 0x41434ce08f926814),
            (Websearch, 3, 0.6, &[1917651, 9304325], 0x414d021b9577ddef),
            (Websearch, 3, 0.8, &[3079953, 12760507], 0x4156596904f9758d),
            (Websearch, 4, 0.3, &[462856, 3079953, 10896234], 0x4142e84fbaed912c),
            (Websearch, 4, 0.6, &[634788, 3606913, 10896234], 0x414bb6ec1388dee3),
            (Websearch, 4, 0.8, &[1193974, 5793090, 14943746], 0x4154bc96ce18b300),
            (Websearch, 6, 0.3, &[16789, 246082, 1398255, 4224032, 10896234], 0x4142c36854cbec2b),
            (Websearch, 6, 0.6, &[59396, 634788, 3079953, 7944990, 14943746], 0x414ad17888511f22),
            (Websearch, 6, 0.8, &[153216, 1398255, 4224032, 9304325, 17500523], 0x41537c7d6238bb77),
            (Websearch, 8, 0.3, &[2154, 2523, 36981, 395234, 1917651, 5793090, 12760507], 0x4142bc1464d55767),
            (Websearch, 8, 0.6, &[2154, 4052, 95396, 1019538, 3079953, 7944990, 14943746], 0x414ac4b4786602b1),
            (Websearch, 8, 0.8, &[2154, 6508, 179431, 1398255, 4224032, 9304325, 17500523], 0x4153782d24701fc5),
            (Incast8k, 2, 0.3, &[8150], 0x40c9ea5990076390),
            (Incast8k, 2, 0.6, &[8150], 0x40d9a34fc775632e),
            (Incast8k, 2, 0.8, &[8150], 0x40eb9cc60769dc6a),
            (Incast8k, 3, 0.3, &[8148, 8150], 0x40c9f751fe9ca521),
            (Incast8k, 3, 0.6, &[8148, 8150], 0x40d9ba002c60e29d),
            (Incast8k, 3, 0.8, &[8148, 8150], 0x40ebbaff350c5b07),
            (Incast8k, 4, 0.3, &[8145, 8148, 8150], 0x40ca14202d9692f0),
            (Incast8k, 4, 0.6, &[8145, 8148, 8150], 0x40d9ec5dc4ed8c6c),
            (Incast8k, 4, 0.8, &[8145, 8148, 8150], 0x40ebfe03bf7132c4),
            (Incast8k, 6, 0.3, &[8141, 8143, 8145, 8148, 8150], 0x40ca705212f37a8e),
            (Incast8k, 6, 0.6, &[8141, 8143, 8145, 8148, 8150], 0x40da8d971613befa),
            (Incast8k, 6, 0.8, &[8141, 8143, 8145, 8148, 8150], 0x40ecd49d848998e0),
            (Incast8k, 8, 0.3, &[8136, 8139, 8141, 8143, 8145, 8148, 8150], 0x40cb005414cc6efd),
            (Incast8k, 8, 0.6, &[8136, 8139, 8141, 8143, 8145, 8148, 8150], 0x40db895c0b399b65),
            (Incast8k, 8, 0.8, &[8136, 8139, 8141, 8143, 8145, 8148, 8150], 0x40ee238c42df11ec),
        ]
    };

    #[test]
    fn solver_is_pinned_on_every_distribution() {
        for (dist, k, load, want, want_bits) in EVERY_DISTRIBUTION {
            let cdf = dist.cdf();
            let th = optimize_thresholds(&cdf, k, load);
            assert_eq!(th, want, "{dist:?} k={k} load={load}");
            let thf: Vec<f64> = th.iter().map(|&t| t as f64).collect();
            assert_eq!(
                objective(&cdf, &thf, load).to_bits(),
                want_bits,
                "{dist:?} k={k} load={load}"
            );
        }
    }

    #[test]
    fn objective_increases_with_load() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let th = vec![10_000.0, 100_000.0, 1_000_000.0];
        assert!(objective(&cdf, &th, 0.8) > objective(&cdf, &th, 0.3));
    }

    #[test]
    fn works_for_other_distributions() {
        for d in [FlowSizeDist::MirageMobileApp, FlowSizeDist::Websearch] {
            let cdf = d.cdf();
            let th = optimize_thresholds(&cdf, 4, 0.5);
            assert_eq!(th.len(), 3);
            for w in th.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn k2_single_threshold() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let th = optimize_thresholds(&cdf, 2, 0.6);
        assert_eq!(th.len(), 1);
    }

    #[test]
    #[should_panic]
    fn k1_rejected() {
        let cdf = FlowSizeDist::LteCellular.cdf();
        let _ = optimize_thresholds(&cdf, 1, 0.6);
    }
}
