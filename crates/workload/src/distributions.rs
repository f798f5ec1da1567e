//! Flow-size distributions from the paper's workloads.
//!
//! Each distribution is an [`Empirical`] CDF with knots digitised from
//! the cited figures. Absolute fidelity to the original traces is not
//! required (the traces are not public at byte granularity); what the
//! experiments need is the *shape*: heavy tail, the 90 %-below-35.9 KB
//! property for \[41\], and the ~1.92 MB mean for websearch \[13\].

use outran_simcore::{Empirical, Rng};

/// Named flow-size distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSizeDist {
    /// Downlink LTE TCP flows (Huang et al. \[41\], Fig 2a): 90 % of
    /// flows < 35.9 KB, heavy-hitter tail carrying most bytes.
    LteCellular,
    /// MIRAGE mobile-app traffic \[12\] (used for the 5G simulations):
    /// shifted toward even smaller objects.
    MirageMobileApp,
    /// Websearch background traffic \[13\]: avg flow ≈ 1.92 MB (§6.1).
    Websearch,
    /// Fixed 8 KB short flows (the §6.3 incast case study).
    Incast8k,
}

impl FlowSizeDist {
    /// Materialise the CDF (values in bytes).
    pub fn cdf(self) -> Empirical {
        match self {
            FlowSizeDist::LteCellular => Empirical::from_cdf(&[
                (200.0, 0.07),
                (600.0, 0.18),
                (1.5e3, 0.35),
                (5.0e3, 0.57),
                (1.0e4, 0.70),
                (3.59e4, 0.90), // the paper's anchor point
                (1.0e5, 0.952),
                (3.0e5, 0.975),
                (1.0e6, 0.988),
                (5.0e6, 0.997),
                (1.5e7, 0.9995),
                (3.0e7, 1.0),
            ]),
            FlowSizeDist::MirageMobileApp => Empirical::from_cdf(&[
                (100.0, 0.10),
                (400.0, 0.32),
                (1.2e3, 0.55),
                (4.0e3, 0.75),
                (1.0e4, 0.86),
                (3.0e4, 0.94),
                (1.0e5, 0.975),
                (1.0e6, 0.995),
                (1.0e7, 1.0),
            ]),
            FlowSizeDist::Websearch => Empirical::from_cdf(&[
                (1.0e4, 0.15),
                (3.0e4, 0.28),
                (1.0e5, 0.45),
                (3.0e5, 0.58),
                (1.0e6, 0.72),
                (3.0e6, 0.87),
                (1.0e7, 0.95),
                (3.0e7, 0.995),
                (5.0e7, 1.0),
            ]),
            FlowSizeDist::Incast8k => {
                // Degenerate CDF pinned tightly around 8 KB; the first
                // knot carries negligible mass so the below-first-knot
                // interpolation region is effectively never sampled.
                Empirical::from_cdf(&[(8_000.0, 1e-9), (8_150.0, 0.999), (8_200.0, 1.0)])
            }
        }
    }

    /// Draw one flow size in bytes (≥ 64).
    pub fn sample(self, cdf: &Empirical, rng: &mut Rng) -> u64 {
        (cdf.sample(rng).round() as u64).max(64)
    }

    /// Mean flow size of the materialised CDF, in bytes.
    pub fn mean_bytes(self) -> f64 {
        self.cdf().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_simcore::snap::fnv1a;

    /// FNV-1a digests of `quantile(p).to_bits()` (and of the `cdf` of
    /// that value) over p = 0, 1e-4, …, 1, plus `mean().to_bits()`,
    /// recorded at e9aa854 when every call still took the `ln` of both
    /// bracketing knots: the per-knot `ln` table must not move a bit.
    #[test]
    fn quantile_bits_are_pinned() {
        let pins = [
            (
                FlowSizeDist::LteCellular,
                0x80f519a907aa6d49,
                0x90f531a293fa2149,
                0x40f2be71239e4865,
            ),
            (
                FlowSizeDist::MirageMobileApp,
                0xb96716da4811aae2,
                0xa094b721c0aaa016,
                0x40df7fa11dce9ec7,
            ),
            (
                FlowSizeDist::Websearch,
                0x176a460f3e05c49c,
                0x51a298588e4d5c27,
                0x413c8ce289ec9e99,
            ),
            (
                FlowSizeDist::Incast8k,
                0xa9419643c03dfb0d,
                0x9582e42dac3dcb25,
                0x40bf8ade35725a0b,
            ),
        ];
        for (dist, want_quantile, want_cdf, want_mean) in pins {
            let cdf = dist.cdf();
            let (mut q, mut c) = (Vec::new(), Vec::new());
            for i in 0..=10_000u32 {
                let v = cdf.quantile(i as f64 / 10_000.0);
                q.extend(v.to_bits().to_le_bytes());
                c.extend(cdf.cdf(v).to_bits().to_le_bytes());
            }
            let (q, c) = (fnv1a(&q), fnv1a(&c));
            assert_eq!(q, want_quantile, "{dist:?} quantile sweep");
            assert_eq!(c, want_cdf, "{dist:?} cdf sweep");
            assert_eq!(cdf.mean().to_bits(), want_mean, "{dist:?} mean");
        }
    }

    #[test]
    fn lte_cellular_anchor_point() {
        // Fig 2a: "90% of flows are < 35.9KB".
        let cdf = FlowSizeDist::LteCellular.cdf();
        assert!((cdf.cdf(3.59e4) - 0.90).abs() < 0.005);
    }

    #[test]
    fn lte_cellular_is_heavy_tailed() {
        let d = FlowSizeDist::LteCellular;
        let cdf = d.cdf();
        let median = cdf.quantile(0.5);
        let mean = cdf.mean();
        // Heavy tail: mean far above median.
        assert!(mean > 10.0 * median, "mean={mean} median={median}");
        // Most flows small, most bytes in big flows: sample and check.
        let mut rng = Rng::new(42);
        let samples: Vec<u64> = (0..50_000).map(|_| d.sample(&cdf, &mut rng)).collect();
        let total: u64 = samples.iter().sum();
        let from_big: u64 = samples.iter().filter(|&&s| s > 100_000).sum();
        let frac_flows_big =
            samples.iter().filter(|&&s| s > 100_000).count() as f64 / samples.len() as f64;
        assert!(frac_flows_big < 0.06, "big-flow fraction={frac_flows_big}");
        assert!(
            from_big as f64 / total as f64 > 0.5,
            "heavy hitters must carry most volume: {}",
            from_big as f64 / total as f64
        );
    }

    #[test]
    fn websearch_mean_matches_paper() {
        // §6.1: "average flow size of 1.92 MB".
        let mean = FlowSizeDist::Websearch.mean_bytes();
        assert!(
            (1.4e6..2.5e6).contains(&mean),
            "websearch mean={mean} (want ≈1.92 MB)"
        );
    }

    #[test]
    fn mirage_smaller_than_lte() {
        let m = FlowSizeDist::MirageMobileApp.cdf();
        let l = FlowSizeDist::LteCellular.cdf();
        assert!(m.quantile(0.5) < l.quantile(0.5));
        assert!(m.quantile(0.9) < l.quantile(0.9));
    }

    #[test]
    fn incast_is_8k() {
        let d = FlowSizeDist::Incast8k;
        let cdf = d.cdf();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let s = d.sample(&cdf, &mut rng);
            assert!((7_000..=8_500).contains(&s), "s={s}");
        }
    }

    #[test]
    fn samples_are_positive_and_bounded() {
        let mut rng = Rng::new(5);
        for d in [
            FlowSizeDist::LteCellular,
            FlowSizeDist::MirageMobileApp,
            FlowSizeDist::Websearch,
        ] {
            let cdf = d.cdf();
            for _ in 0..10_000 {
                let s = d.sample(&cdf, &mut rng);
                assert!(s >= 64);
                assert!(s <= 200_000_000);
            }
        }
    }
}
