//! Fault-driven detach/re-attach through the MAC rate matrix and metric
//! cache.
//!
//! [`MacSchedStage::refresh_rates`] encodes link state in the rate-row
//! version tag (`report_version * 2 + !link_up`): a downed UE's row is
//! zeroed under an odd tag, and re-attach restores the reported rates
//! under the even tag — even when no new CQI report was delivered in
//! between. The `outran_mac` metric cache keys its rows on exactly that
//! tag, so these tests pin the full invalidation cascade: fault window
//! edge → version parity flip → row recompute, with every other active
//! UE's cached row untouched and an idle UE's row not looked at.

use outran_faults::FaultPlan;
use outran_mac::SubbandMetricCache;
use outran_phy::channel::CellChannel;
use outran_ran::stages::MacSchedStage;
use outran_ran::{CellConfig, SchedulerKind};
use outran_simcore::{Dur, Rng, Time};

const UES: usize = 4;

/// A cell config + channel warmed long enough that every UE has
/// delivered at least one CQI report (period 5, delay 2 TTIs).
fn warmed() -> (CellConfig, CellChannel, Time) {
    let cfg = CellConfig::lte_default(UES, SchedulerKind::Pf, 7);
    let mut ch = CellChannel::new(cfg.channel, UES, &Rng::new(7));
    let tti = cfg.channel.radio.tti();
    let mut now = Time::ZERO;
    for _ in 0..50 {
        now += tti;
        ch.advance_tti(now);
    }
    (cfg, ch, now)
}

#[test]
fn detach_zeroes_row_and_reattach_restores_it() {
    let (cfg, ch, now) = warmed();
    let mut mac = MacSchedStage::new(&cfg, cfg.channel.radio.tti());
    let down_at = now + Dur::from_millis(10);
    let up_at = down_at + Dur::from_millis(20);
    let plan = FaultPlan::new().detach(down_at, up_at, 2);
    let n_sb = cfg.channel.n_subbands;

    // Healthy: the row matches the channel's reported rates, under the
    // even (link-up) tag derived from the report version.
    mac.refresh_rates(&cfg, &ch, &plan.active_at(now));
    let mut want = vec![0.0; n_sb];
    ch.fill_reported_rates(2, &mut want);
    assert!(want.iter().any(|&r| r > 0.0), "warmed UE must have rates");
    assert_eq!(mac.rates().per_ue_sb[2 * n_sb..3 * n_sb], want[..]);
    let v_live = mac.rates().versions[2];
    assert_eq!(v_live, ch.report_version(2) * 2);

    // Detach window: row zeroed, tag odd — it can never alias a live
    // tag, so the scheduler-side cache is forced to recompute.
    mac.refresh_rates(&cfg, &ch, &plan.active_at(down_at));
    assert!(mac.rates().per_ue_sb[2 * n_sb..3 * n_sb]
        .iter()
        .all(|&r| r == 0.0));
    assert_eq!(mac.rates().versions[2] % 2, 1);
    // The other UEs' rows keep their live tags.
    for u in [0usize, 1, 3] {
        assert_eq!(mac.rates().versions[u], ch.report_version(u) * 2);
    }

    // Re-attach with no new report delivered: the row must refill from
    // the channel even though the report version never moved (the
    // parity flip alone is the invalidation edge).
    mac.refresh_rates(&cfg, &ch, &plan.active_at(up_at));
    assert_eq!(mac.rates().per_ue_sb[2 * n_sb..3 * n_sb], want[..]);
    assert_eq!(mac.rates().versions[2], v_live);
}

#[test]
fn metric_cache_tracks_fault_driven_versions() {
    let (cfg, ch, now) = warmed();
    let mut mac = MacSchedStage::new(&cfg, cfg.channel.radio.tti());
    let down_at = now + Dur::from_millis(10);
    let up_at = down_at + Dur::from_millis(20);
    let plan = FaultPlan::new().detach(down_at, up_at, 1);
    let n_sb = cfg.channel.n_subbands;

    // MT-style metric (metric == rate): any metric works, the cascade
    // under test is version-driven, not metric-driven.
    let metric = |_u: usize, r: f64| r;
    let mut cache = SubbandMetricCache::new();
    // UEs 1 and 3 have data; the schedulers ask for their rows alone.
    let active = [1usize, 3];

    mac.refresh_rates(&cfg, &ch, &plan.active_at(now));
    cache.refresh_rows(mac.rates(), active.into_iter(), |_| 0, metric);
    let live: Vec<u64> = (0..n_sb).map(|sb| cache.metric(1, sb).to_bits()).collect();
    assert!(
        (0..n_sb).any(|sb| cache.metric(1, sb) > 0.0),
        "warmed UE must be eligible somewhere"
    );
    let misses0 = cache.misses;
    assert_eq!(misses0, active.len() as u64, "idle rows are not computed");

    // Detach: the UE's cached row collapses to -inf (ineligible in any
    // argmax/ε-band); the other active UE is a version hit.
    mac.refresh_rates(&cfg, &ch, &plan.active_at(down_at));
    cache.refresh_rows(mac.rates(), active.into_iter(), |_| 0, metric);
    for sb in 0..n_sb {
        assert_eq!(cache.metric(1, sb), f64::NEG_INFINITY, "sb {sb}");
    }
    assert_eq!(cache.misses, misses0 + 1);
    assert_eq!(cache.hits, 1);

    // Re-attach without a fresh report: bit-identical metrics return,
    // again at the cost of exactly one recomputed row.
    mac.refresh_rates(&cfg, &ch, &plan.active_at(up_at));
    cache.refresh_rows(mac.rates(), active.into_iter(), |_| 0, metric);
    let back: Vec<u64> = (0..n_sb).map(|sb| cache.metric(1, sb).to_bits()).collect();
    assert_eq!(live, back);
    assert_eq!(cache.misses, misses0 + 2);
    assert_eq!(cache.hits, 2);

    // UE 0 has data for the first time: its row is keyed and computed
    // now, from today's rates — three refreshes went by without it.
    cache.refresh_rows(mac.rates(), [0usize, 1, 3].into_iter(), |_| 0, metric);
    let mut want = vec![0.0; n_sb];
    ch.fill_reported_rates(0, &mut want);
    for (sb, &r) in want.iter().enumerate() {
        let m = if r > 0.0 { r } else { f64::NEG_INFINITY };
        assert_eq!(cache.metric(0, sb), m, "sb {sb}");
    }
    assert_eq!(cache.misses, misses0 + 3);
    assert_eq!(cache.hits, 4);
}
