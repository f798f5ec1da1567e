//! Poisson open-loop flow arrivals calibrated to a target cell load.
//!
//! The evaluation drives every scenario the same way: "UEs … request a
//! service from a remote server that generates downlink traffic according
//! to a Poisson process with a size distribution that follows the LTE
//! traffic distribution" (§3), with the *cell load* (offered bytes ÷ cell
//! capacity) swept as the experiment parameter (§6.2: 40–80 %).
//!
//! The arrival rate is derived as `λ = load · capacity / (8 · E[size])`
//! flows per second, with each arrival assigned to a uniformly random UE.

use outran_simcore::{Dur, Empirical, Exponential, Rng, Time};

use crate::distributions::FlowSizeDist;

/// One generated flow arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrival {
    /// When the first byte is offered at the server.
    pub at: Time,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Destination UE index.
    pub ue: usize,
}

/// Poisson flow generator.
#[derive(Debug, Clone)]
pub struct PoissonFlowGen {
    cdf: Empirical,
    dist: FlowSizeDist,
    inter: Exponential,
    n_ues: usize,
    next_at: Time,
    rng: Rng,
}

impl PoissonFlowGen {
    /// Create a generator targeting `load` (0–1] of `capacity_bps` across
    /// `n_ues` UEs with sizes from `dist`.
    pub fn new(
        dist: FlowSizeDist,
        load: f64,
        capacity_bps: f64,
        n_ues: usize,
        rng: Rng,
    ) -> PoissonFlowGen {
        assert!(load > 0.0 && load <= 2.0, "load={load}");
        assert!(capacity_bps > 0.0);
        assert!(n_ues > 0);
        let cdf = dist.cdf();
        let mean_bytes = cdf.mean();
        let lambda = load * capacity_bps / (8.0 * mean_bytes);
        PoissonFlowGen {
            cdf,
            dist,
            inter: Exponential::new(lambda),
            n_ues,
            next_at: Time::ZERO,
            rng,
        }
    }

    /// Arrival rate in flows per second.
    pub fn lambda(&self) -> f64 {
        self.inter.lambda()
    }

    /// Generate the next arrival (strictly increasing times).
    #[allow(clippy::should_implement_trait, reason = "an endless arrival stream")]
    pub fn next(&mut self) -> FlowArrival {
        let dt = self.inter.sample(&mut self.rng);
        self.next_at += Dur::from_secs_f64(dt);
        FlowArrival {
            at: self.next_at,
            bytes: self.dist.sample(&self.cdf, &mut self.rng),
            ue: self.rng.index(self.n_ues),
        }
    }

    /// Generate all arrivals up to `horizon`.
    pub fn take_until(&mut self, horizon: Time) -> Vec<FlowArrival> {
        let mut out = Vec::new();
        loop {
            let a = self.next();
            if a.at > horizon {
                break;
            }
            out.push(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_matches_target() {
        let cap = 100e6; // 100 Mbps
        let load = 0.6;
        let mut g = PoissonFlowGen::new(FlowSizeDist::LteCellular, load, cap, 10, Rng::new(3));
        let horizon = Time::from_secs(300);
        let flows = g.take_until(horizon);
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered_bps = bytes as f64 * 8.0 / horizon.as_secs_f64();
        let ratio = offered_bps / (load * cap);
        assert!(
            (0.75..1.3).contains(&ratio),
            "offered/target={ratio} ({} flows)",
            flows.len()
        );
    }

    #[test]
    fn times_strictly_increase() {
        let mut g = PoissonFlowGen::new(FlowSizeDist::Websearch, 0.4, 50e6, 4, Rng::new(7));
        let mut prev = Time::ZERO;
        for _ in 0..1000 {
            let a = g.next();
            assert!(a.at > prev);
            prev = a.at;
        }
    }

    #[test]
    fn ues_roughly_uniform() {
        let mut g = PoissonFlowGen::new(FlowSizeDist::LteCellular, 0.6, 100e6, 5, Rng::new(9));
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[g.next().ue] += 1;
        }
        for &c in &counts {
            assert!((1_700..=2_300).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let mk = || {
            let mut g = PoissonFlowGen::new(FlowSizeDist::LteCellular, 0.5, 100e6, 8, Rng::new(11));
            (0..100).map(|_| g.next()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn higher_load_means_more_flows() {
        let count_at = |load: f64| {
            let mut g = PoissonFlowGen::new(FlowSizeDist::LteCellular, load, 100e6, 8, Rng::new(2));
            g.take_until(Time::from_secs(60)).len()
        };
        assert!(count_at(0.8) > count_at(0.4) * 3 / 2);
    }
}
