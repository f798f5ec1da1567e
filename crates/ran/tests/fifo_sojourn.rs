//! The FIFO half of the queueing oracle: one UE's RLC buffer under PF
//! (FIFO RLC) on a static channel is an M/G/1 queue of flows, so its
//! mean SDU sojourn must be the Pollaczek–Khinchine waiting time plus the
//! SDU's own place in its flow's service.
//!
//! The simulated system: one UE on a static, fade-free channel, CQI 15
//! on every sub-band, no residual loss, a TCP window that takes the
//! largest flow of the CDF in one flight and a retransmission timer no
//! run reaches, and an RLC buffer no run fills. Each flow then reaches
//! the RLC as one batch of SDUs, and the air drains that buffer at a
//! fixed number of bytes per TTI. Arrivals are Poisson with sizes from
//! the paper's LTE-cellular CDF.

use outran_phy::channel::CellChannel;
use outran_ran::{Cell, CellConfig, SchedulerKind};
use outran_rlc::UmConfig;
use outran_simcore::{Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

const LOAD: f64 = 0.5;
const SEEDS: std::ops::Range<u64> = 1..33;
/// Arrival horizon; every run drains until its last flow completes. A
/// run starts empty and the CDF's tail is heavy, so a short horizon
/// reads low: 20 s over seeds 1–16 gave 430 ± 66 ms against 557 ms
/// (DESIGN.md "Testing strategy").
const HORIZON: Time = Time::from_secs(40);
const DRAIN: Time = Time::from_secs(100);

fn config(seed: u64) -> CellConfig {
    let mut cfg = CellConfig::lte_default(1, SchedulerKind::Pf, seed);
    let ch = &mut cfg.channel;
    ch.ue_speed_mps = 0.0;
    ch.fading_scale = 0.0;
    ch.shadowing_sd_db = 0.0;
    // 10–11 m from the antenna the SINR is above the 45 dB cap, so the
    // UE reports CQI 15 wherever it is placed.
    ch.min_radius_m = 10.0;
    ch.radius_m = 11.0;
    cfg.residual_loss = 0.0;
    let largest = FlowSizeDist::LteCellular.cdf().quantile(1.0) as u32;
    let segs = largest / cfg.tcp.mss + 1;
    cfg.tcp.init_cwnd_segs = segs;
    cfg.tcp.max_cwnd_segs = segs;
    // A flow waits behind a backlog for seconds: its timer must not
    // fire and put a duplicate in the queue.
    cfg.tcp.min_rto = DRAIN - Time::ZERO;
    cfg.tcp.max_rto = DRAIN - Time::ZERO;
    cfg.buffer_sdus = 1 << 22;
    cfg
}

/// Payload bytes the air carries per busy TTI: each sub-band's
/// transport block, less the header of the one segment that continues
/// an SDU the previous TTI split.
fn bytes_per_tti(cfg: &CellConfig, header: u64) -> u64 {
    let ch = cfg.channel;
    let mut probe = CellChannel::new(ch, 1, &Rng::new(cfg.seed));
    let mut now = Time::ZERO;
    for _ in 0..20 {
        now += ch.radio.tti();
        probe.advance_tti(now);
    }
    let mut bits_per_rb = vec![0.0; ch.n_subbands];
    probe.fill_reported_rates(0, &mut bits_per_rb);
    let mut sb_bits = vec![0.0; ch.n_subbands];
    for rb in 0..probe.n_rbs() {
        let sb = probe.subband_of_rb(rb);
        sb_bits[sb] += bits_per_rb[sb];
    }
    sb_bits
        .iter()
        .map(|&bits| (bits / 8.0).floor() as u64 - header)
        .sum()
}

/// Pollaczek–Khinchine's mean SDU sojourn, in TTIs, for flows arriving
/// at `lambda` per TTI onto a server of `c` bytes per TTI.
///
/// A flow of `s` bytes is `n = ⌈s / mss⌉` SDUs and `a = s + n·header`
/// bytes on the air, served in `x = a / c` TTIs. An arriving flow waits
/// `E[W] = λE[x²] / 2(1 − ρ)`; its `k`-th SDU then leaves once the
/// flow's first `C_k` air bytes are out. Averaged over SDUs:
/// `E[W] + E[Σ_k C_k] / (c·E[n])`. Expectations integrate the sampler's
/// quantile function (midpoint rule), sizes rounded as it rounds them.
fn pk_sojourn_ttis(lambda: f64, c: f64, mss: u64, header: u64) -> f64 {
    let cdf = FlowSizeDist::LteCellular.cdf();
    const N: usize = 400_000;
    let (mut ex, mut ex2, mut en, mut eck) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..N {
        let s = (cdf.quantile((i as f64 + 0.5) / N as f64).round() as u64).max(64);
        let n = s.div_ceil(mss);
        let a = (s + n * header) as f64;
        let x = a / c;
        ex += x;
        ex2 += x * x;
        en += n as f64;
        // C_k = k·(mss + header) for k < n, C_n = a.
        eck += (mss + header) as f64 * ((n - 1) * n / 2) as f64 + a;
    }
    let (ex, ex2, en, eck) = (ex / N as f64, ex2 / N as f64, en / N as f64, eck / N as f64);
    let rho = lambda * ex;
    assert!(rho < 1.0, "ρ = {rho}");
    lambda * ex2 / (2.0 * (1.0 - rho)) + eck / (c * en)
}

/// Mean RLC sojourn (ms) of every SDU of one seed's arrivals.
fn mean_sojourn_ms(seed: u64, capacity_bps: f64) -> f64 {
    let cfg = config(seed);
    let mut cell = Cell::new(cfg);
    let arrivals = PoissonFlowGen::new(
        FlowSizeDist::LteCellular,
        LOAD,
        capacity_bps,
        1,
        Rng::new(seed),
    )
    .take_until(HORIZON);
    for a in &arrivals {
        cell.schedule_flow(a.at, a.ue, a.bytes, None);
    }
    cell.run_until(DRAIN);
    assert_eq!(
        cell.take_completions().len(),
        arrivals.len(),
        "seed {seed}: a flow never finished"
    );
    assert_eq!(cell.buffer_drops(), 0, "seed {seed}: the buffer filled");
    assert_eq!(cell.harq_wasted_tbs(), 0, "seed {seed}: a block failed");
    cell.metrics.mean_qdelay_ms()
}

/// The seed mean of the simulated mean SDU sojourn is within one
/// standard error of the seed means, plus one TTI of slot quantisation,
/// of Pollaczek–Khinchine's. Arrivals wait for the next TTI boundary and
/// an SDU leaves at the start of the TTI that carries its last byte: the
/// two roundings move a sojourn by less than a TTI.
#[test]
fn fifo_sojourn_matches_pollaczek_khinchine() {
    let cfg = config(0);
    let header = UmConfig::default().header_bytes as u64;
    let tti = cfg.channel.radio.tti();
    let tti_ms = tti.as_millis_f64();
    let c = bytes_per_tti(&cfg, header);
    let capacity_bps = c as f64 * 8.0 / tti.as_secs_f64();
    let lambda = PoissonFlowGen::new(
        FlowSizeDist::LteCellular,
        LOAD,
        capacity_bps,
        1,
        Rng::new(0),
    )
    .lambda()
        * tti.as_secs_f64();
    let want_ms = pk_sojourn_ttis(lambda, c as f64, cfg.tcp.mss as u64, header) * tti_ms;

    let seeds: Vec<u64> = SEEDS.collect();
    let got: Vec<f64> = std::thread::scope(|s| {
        let halves: Vec<_> = seeds
            .chunks(seeds.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| mean_sojourn_ms(seed, capacity_bps))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        halves.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let n = got.len() as f64;
    let mean = got.iter().sum::<f64>() / n;
    let var = got.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    assert!(
        (mean - want_ms).abs() <= se + tti_ms,
        "mean SDU sojourn {mean:.3} ms (SE {se:.3} ms over {n} seeds) vs Pollaczek–Khinchine {want_ms:.3} ms: {got:?}"
    );
}
