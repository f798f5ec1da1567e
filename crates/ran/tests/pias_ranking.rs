//! The ranking half of the queueing oracle: the PIAS M/G/1 model of §4.2
//! (`outran_core::thresholds::objective`), from which the default MLFQ
//! thresholds come, must order threshold vectors the way the simulator
//! does.
//!
//! The simulated system is the one the model describes: one OutRAN UE on
//! a static, fade-free channel, CQI 15 on every sub-band, no residual
//! loss, a TCP window that takes a 10 MB flow in one flight and an RLC
//! buffer no run fills. The air is then the only bottleneck and the
//! UE's MLFQ the only scheduler. Arrivals are LTE-cellular Poisson at
//! 0.6 of that UE's rate, and every vector sees the same arrivals per
//! seed.

use outran_core::thresholds::objective;
use outran_core::PAPER_THRESHOLDS;
use outran_phy::channel::CellChannel;
use outran_ran::{Cell, CellConfig, SchedulerKind};
use outran_simcore::{Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

const LOAD: f64 = 0.6;
const SEEDS: std::ops::Range<u64> = 1..9;
/// Arrival horizon; every run drains until its last flow completes.
const HORIZON: Time = Time::from_secs(6);
const DRAIN: Time = Time::from_secs(30);

fn vectors() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("default", PAPER_THRESHOLDS.to_vec()),
        ("pdcp default", vec![10_000, 100_000, 1_000_000]),
        ("log split", vec![1_000, 31_623, 1_000_000]),
        ("K = 2", vec![75_000]),
        ("tiny", vec![200, 400, 800]),
        ("huge", vec![20_000_000, 40_000_000, 80_000_000]),
    ]
}

fn config(thresholds: &[u64], seed: u64) -> CellConfig {
    let mut cfg = CellConfig::lte_default(1, SchedulerKind::OutRan, seed);
    let ch = &mut cfg.channel;
    ch.ue_speed_mps = 0.0;
    ch.fading_scale = 0.0;
    ch.shadowing_sd_db = 0.0;
    // 10–11 m from the antenna the SINR is above the 45 dB cap, so the
    // UE reports CQI 15 wherever it is placed.
    ch.min_radius_m = 10.0;
    ch.radius_m = 11.0;
    cfg.residual_loss = 0.0;
    let segs = 10_000_000 / cfg.tcp.mss + 1;
    cfg.tcp.init_cwnd_segs = segs;
    cfg.tcp.max_cwnd_segs = segs;
    cfg.buffer_sdus = 1 << 20;
    cfg.outran.thresholds = thresholds.to_vec();
    cfg
}

/// The UE's rate: every RB at the one CQI its sub-bands report.
fn ue_rate_bps(cfg: &CellConfig) -> f64 {
    let ch = cfg.channel;
    let mut probe = CellChannel::new(ch, 1, &Rng::new(cfg.seed));
    let mut now = Time::ZERO;
    for _ in 0..20 {
        now += ch.radio.tti();
        probe.advance_tti(now);
    }
    let cqi = probe.reported_cqi_subband(0, 0);
    for sb in 0..ch.n_subbands {
        assert_eq!(probe.reported_cqi_subband(0, sb), cqi, "sub-band {sb}");
    }
    assert_eq!(cqi.0, 15);
    ch.radio.peak_rate_bps(ch.table.efficiency(cqi))
}

/// Mean FCT (ms) of one seed's arrivals under one threshold vector.
fn mean_fct_ms(thresholds: &[u64], seed: u64) -> f64 {
    let cfg = config(thresholds, seed);
    let rate = ue_rate_bps(&cfg);
    let mut cell = Cell::new(cfg);
    let arrivals = PoissonFlowGen::new(FlowSizeDist::LteCellular, LOAD, rate, 1, Rng::new(seed))
        .take_until(HORIZON);
    for a in &arrivals {
        cell.schedule_flow(a.at, a.ue, a.bytes, None);
    }
    cell.run_until(DRAIN);
    let done = cell.take_completions();
    assert_eq!(
        done.len(),
        arrivals.len(),
        "seed {seed}: a flow never finished"
    );
    assert_eq!(cell.buffer_drops(), 0, "seed {seed}: the buffer filled");
    done.iter().map(|d| d.fct.as_millis_f64()).sum::<f64>() / done.len() as f64
}

/// Every pair of vectors whose objectives differ by at least 10 % is
/// ordered the same way by the simulated mean FCT in a strict majority
/// of the paired seeds. The closest such pair, the default against the
/// log split (objectives 10.1 % apart), is the model's weakest call:
/// the simulation agrees on 5 of these 8 seeds and on 22 of seeds 1–40
/// (DESIGN.md "The queueing oracle").
#[test]
fn pias_objective_ranks_thresholds_as_the_simulation_does() {
    let cdf = FlowSizeDist::LteCellular.cdf();
    let vectors = vectors();
    let model: Vec<f64> = vectors
        .iter()
        .map(|(_, th)| {
            let th: Vec<f64> = th.iter().map(|&t| t as f64).collect();
            objective(&cdf, &th, LOAD)
        })
        .collect();
    // One thread per vector: the runs are independent.
    let sim: Vec<Vec<f64>> = std::thread::scope(|s| {
        let runs: Vec<_> = vectors
            .iter()
            .map(|(_, th)| s.spawn(move || SEEDS.map(|seed| mean_fct_ms(th, seed)).collect()))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let mut pairs = 0;
    for i in 0..vectors.len() {
        for j in i + 1..vectors.len() {
            if model[i].max(model[j]) < 1.1 * model[i].min(model[j]) {
                continue;
            }
            pairs += 1;
            let agree = (0..SEEDS.count())
                .filter(|&s| (model[i] < model[j]) == (sim[i][s] < sim[j][s]))
                .count();
            assert!(
                2 * agree > SEEDS.count(),
                "{} vs {}: objectives {} and {}, the simulation agrees on {agree} of {} seeds; \
                 mean FCTs (ms) {:?} and {:?}",
                vectors[i].0,
                vectors[j].0,
                model[i],
                model[j],
                SEEDS.count(),
                sim[i],
                sim[j],
            );
        }
    }
    // 12 of the 15 pairs qualify; the other three are within 10 %.
    assert_eq!(pairs, 12);
}
