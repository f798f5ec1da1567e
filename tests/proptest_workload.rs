//! Property tests on workload generation and the PHY substrate.

use outran::phy::channel::{CellChannel, ChannelConfig};
use outran::phy::Scenario;
use outran::simcore::{check, Empirical, Time};
use outran::workload::{FlowSizeDist, PoissonFlowGen, WebPage};

/// Sampled flow sizes always fall inside the distribution's support
/// and the empirical CDF tracks the analytic one.
#[test]
fn samples_match_cdf() {
    check("samples_match_cdf", 32, |rng| {
        let p = rng.range_f64(0.05, 0.95);
        let dist = FlowSizeDist::LteCellular;
        let cdf = dist.cdf();
        let q = cdf.quantile(p);
        let n = 4000;
        let below = (0..n)
            .filter(|_| (dist.sample(&cdf, rng) as f64) <= q)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - p).abs() < 0.06, "p={p} frac={frac}");
    });
}

/// The quantile function is monotone for any valid knot set.
#[test]
fn quantile_monotone() {
    check("quantile_monotone", 32, |rng| {
        let mut vs: Vec<f64> = (0..2 + rng.index(8))
            .map(|_| rng.range_f64(1.0, 1e9))
            .collect();
        vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vs.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        if vs.len() < 2 {
            return;
        }
        let n = vs.len();
        let knots: Vec<(f64, f64)> = vs
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
            .collect();
        let cdf = Empirical::from_cdf(&knots);
        let mut prev = 0.0;
        for i in 0..100 {
            let p = i as f64 / 99.0;
            let q = cdf.quantile(p);
            assert!(q >= prev - 1e-9);
            prev = q;
        }
    });
}

/// Poisson arrivals: strictly increasing, all UEs in range, offered
/// volume within a factor of the target for long horizons.
#[test]
fn arrivals_sane() {
    check("arrivals_sane", 32, |rng| {
        let load = rng.range_f64(0.2, 1.0);
        let n_ues = 1 + rng.index(39);
        let mut g = PoissonFlowGen::new(
            FlowSizeDist::MirageMobileApp,
            load,
            50e6,
            n_ues,
            rng.fork(0),
        );
        let mut prev = Time::ZERO;
        for _ in 0..300 {
            let a = g.next();
            assert!(a.at > prev);
            assert!(a.ue < n_ues);
            assert!(a.bytes >= 64);
            prev = a.at;
        }
    });
}

/// Page objects always sum to the page size within the min-object
/// padding tolerance, for any RNG state.
#[test]
fn page_objects_conserve_bytes() {
    check("page_objects_conserve_bytes", 32, |rng| {
        let pages = WebPage::top20();
        let page = &pages[rng.index(pages.len())];
        let objs = page.objects(rng);
        assert_eq!(objs.len(), page.n_flows as usize);
        let total: u64 = objs.iter().map(|o| o.bytes).sum();
        let tol = 64 * page.n_flows as u64;
        assert!(total + tol >= page.page_bytes && total <= page.page_bytes + tol);
        let quic: u64 = objs.iter().filter(|o| o.is_quic).map(|o| o.bytes).sum();
        let qtol = 64 * (page.n_quic_flows as u64 + 1);
        assert!(quic <= page.quic_bytes + qtol);
    });
}

/// The channel is deterministic per seed and its reported rates are
/// always within the MCS table's physical bounds.
#[test]
fn channel_rates_bounded() {
    check("channel_rates_bounded", 32, |rng| {
        let cfg = ChannelConfig::lte_default();
        let mut ch = CellChannel::new(cfg, 4, rng);
        let peak = cfg.table.peak_efficiency() * cfg.radio.data_re_per_rb();
        let tti = cfg.radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += tti;
            ch.advance_tti(now);
            for u in 0..4 {
                for sb in 0..cfg.n_subbands {
                    let r = ch.reported_rate_per_rb_subband(u, sb);
                    assert!(r >= 0.0 && r <= peak + 1e-9);
                }
            }
        }
    });
}

/// Every scenario preset produces a usable cell (positive peak rate,
/// at least one RB, UEs placeable).
#[test]
fn scenario_presets_always_valid() {
    check("scenario_presets_always_valid", 32, |rng| {
        let scenarios = [
            Scenario::LtePedestrian,
            Scenario::NrUrban(0),
            Scenario::NrUrban(3),
            Scenario::ColosseumRome,
            Scenario::ColosseumBoston,
            Scenario::ColosseumPowder,
            Scenario::Testbed,
        ];
        let cfg = scenarios[rng.index(scenarios.len())].channel_config();
        let ch = CellChannel::new(cfg, 3, rng);
        assert!(ch.n_rbs() >= 1);
        assert!(cfg.radio.data_re_per_rb() > 0.0);
        for u in 0..3 {
            assert!(ch.ue_distance(u) >= cfg.min_radius_m - 1e-6);
            assert!(ch.ue_distance(u) <= cfg.radius_m + 1e-6);
        }
    });
}
