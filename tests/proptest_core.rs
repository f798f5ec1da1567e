//! Property tests on the OutRAN policy crate: the threshold optimizer
//! must produce valid, useful MLFQ configurations for *any* plausible
//! flow-size distribution, and the priority reset must stay phase-locked.

use outran::core::thresholds::objective;
use outran::core::{optimize_thresholds, PriorityReset};
use outran::simcore::{check, Dur, Empirical, Time};

/// Build a random but valid heavy-tail-ish CDF from sorted knot values.
fn cdf_from(mut values: Vec<f64>) -> Option<Empirical> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values.dedup_by(|a, b| (*a / *b) < 1.2); // keep knots separated
    if values.len() < 3 {
        return None;
    }
    let n = values.len();
    let knots: Vec<(f64, f64)> = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect();
    Some(Empirical::from_cdf(&knots))
}

/// Thresholds are strictly increasing, inside the distribution's
/// body, and never worse than a naive equal-quantile split.
#[test]
fn optimizer_output_is_valid_and_competitive() {
    check("optimizer_output_is_valid_and_competitive", 24, |rng| {
        let values = (0..4 + rng.index(6))
            .map(|_| rng.range_f64(100.0, 1e8))
            .collect();
        let load = rng.range_f64(0.2, 0.9);
        let k = 2 + rng.index(4);
        let Some(cdf) = cdf_from(values) else {
            return;
        };
        let th = optimize_thresholds(&cdf, k, load);
        assert_eq!(th.len(), k - 1);
        for w in th.windows(2) {
            assert!(w[0] < w[1]);
        }
        let thf: Vec<f64> = th.iter().map(|&t| t as f64).collect();
        let naive: Vec<f64> = (1..k)
            .map(|j| cdf.quantile(j as f64 / k as f64).max(101.0 * j as f64))
            .collect();
        // Guard against degenerate naive vectors.
        let naive_ok = naive.windows(2).all(|w| w[0] < w[1]);
        if naive_ok {
            assert!(
                objective(&cdf, &thf, load) <= objective(&cdf, &naive, load) * 1.01,
                "optimizer must not lose to the naive split"
            );
        }
    });
}

/// The reset driver fires exactly floor(T/S) times over a horizon
/// when polled every tick, regardless of tick size.
#[test]
fn reset_fires_expected_count() {
    check("reset_fires_expected_count", 24, |rng| {
        let period_ms = 50 + rng.below(1950);
        let tick_ms = 1 + rng.below(39);
        let horizon_s = 1 + rng.below(9);
        let mut r = PriorityReset::new(Dur::from_millis(period_ms), Time::ZERO);
        let mut t = Time::ZERO;
        let horizon = Time::from_secs(horizon_s);
        while t < horizon {
            t += Dur::from_millis(tick_ms);
            let _ = r.due(t);
        }
        let expected = t.as_nanos() / Dur::from_millis(period_ms).as_nanos();
        // Allow off-by-one at the boundary.
        assert!(
            (r.resets as i64 - expected as i64).abs() <= 1,
            "resets={} expected≈{}",
            r.resets,
            expected
        );
    });
}
