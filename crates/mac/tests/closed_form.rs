//! The one Algorithm 1 kernel, and round robin, against closed forms
//! (the flat-Rayleigh full-buffer comparison of Carpin et al.'s LTE
//! downlink study, PAPERS.md), on LTE's 64-QAM staircase at a 1 ms TTI
//! and, as the O-RAN NS-3 scheduling study repeats it for 5G, on NR's
//! 256-QAM staircase at numerologies 1–3 (TTIs of 0.5, 0.25 and
//! 0.125 ms). The TTI enters through PF alone: its window is 100 ms on
//! every radio, which is 100, 200, 400 and 800 TTIs.
//!
//! *N* full-buffer users; each TTI every (UE, subband) SNR is drawn
//! afresh, γ ~ Exp(γ̄ᵤ), and mapped to bits per RB through a CQI-like
//! staircase: rate `R[k]` on `[G[k], G[k+1])`, 0 below `G[0]`. With
//! `F(g) = 1 − e^(−g/γ̄)`:
//!
//! - MT gives each subband to the best rate, so its mean rate per RB is
//!   `Σₖ R[k]·[F(G[k+1])ᴺ − F(G[k])ᴺ]` (the top step runs to ∞);
//! - RR ignores the channel: the same sum with exponent 1;
//! - PF over identical users gives each 1/*N* of the granted airtime
//!   and of the throughput, and a cell rate between the two sums;
//! - with unequal means, MT's edge user wins only when every other user
//!   sits on a strictly lower step, `Σₖ [Fₑ(G[k+1]) − Fₑ(G[k])]·Π_c
//!   F_c(G[k])`, while PF keeps equal shares where the rate laws are
//!   scaled copies of each other, and nearly equal ones on the staircase.
//!
//! Every estimate averages independent subband draws (PF's time shares
//! are mean-reverting, so their spread is at most the binomial one).
//! Each tolerance is `Z` standard errors at the sample count, with the
//! standard error bounded from the range of what is averaged: a rate
//! lies in `[0, R_max]`, so σ ≤ R_max / 2; a share is a Bernoulli mean,
//! so σ ≤ √(p(1−p)).

use outran_mac::{
    Allocation, OutRanScheduler, PfScheduler, RrScheduler, Scheduler, TtiRates, UeTti,
};
use outran_simcore::stats::jain_fairness;
use outran_simcore::{Dur, Rng, Time};

/// SNR thresholds (dB) of the 15 CQI steps. The simulator maps SINR
/// to CQI through this one set for both of its MCS tables
/// (`outran_phy::cqi::CQI_THRESH_DB`); the table only sets what a step
/// is worth.
const G_DB: [f64; 15] = [
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
];

/// A staircase: the bits per RB of each step.
type Staircase = [f64; 15];

/// After the 36.213 64-QAM table (efficiency × 144 data REs).
const LTE_64QAM: Staircase = [
    22.0, 34.0, 54.0, 87.0, 126.0, 169.0, 213.0, 276.0, 347.0, 393.0, 478.0, 562.0, 651.0, 737.0,
    800.0,
];

/// After the 38.214 Table 5.2.2.1-3 256-QAM table (efficiency × 132
/// data REs: a 14-symbol slot less two PDCCH symbols, 12 × 12 REs,
/// less one front-loaded DMRS symbol's 12, the `N'_RE` of 38.214
/// §5.1.3.2).
const NR_256QAM: Staircase = [
    20.0, 50.0, 116.0, 195.0, 253.0, 318.0, 360.0, 439.0, 515.0, 597.0, 675.0, 733.0, 822.0, 913.0,
    978.0,
];

/// One radio the oracles run on: a staircase, the TTI that sets PF's
/// window in TTIs, and an offset to every seed so that radios draw
/// apart (0 on LTE).
struct Radio {
    name: &'static str,
    steps: &'static Staircase,
    tti: Dur,
    seed_offset: u64,
}

const RADIOS: [Radio; 4] = [
    Radio {
        name: "LTE",
        steps: &LTE_64QAM,
        tti: Dur::from_micros(1000),
        seed_offset: 0,
    },
    Radio {
        name: "NR mu=1",
        steps: &NR_256QAM,
        tti: Dur::from_micros(500),
        seed_offset: 100,
    },
    Radio {
        name: "NR mu=2",
        steps: &NR_256QAM,
        tti: Dur::from_micros(250),
        seed_offset: 200,
    },
    Radio {
        name: "NR mu=3",
        steps: &NR_256QAM,
        tti: Dur::from_micros(125),
        seed_offset: 300,
    },
];

/// Standard errors per tolerance: a false alarm is a 5.7e-7 event.
const Z: f64 = 5.0;
const N_SB: usize = 8;
/// PF's fairness window, the same span of time at every numerology.
const PF_WINDOW: Dur = Dur::from_millis(100);
/// TTIs measured after the warm-up.
const MEASURED: usize = 18_000;

fn threshold(k: usize) -> f64 {
    10f64.powf(G_DB[k] / 10.0)
}

fn rate_of(r: &Staircase, snr: f64) -> f64 {
    (0..G_DB.len())
        .rev()
        .find(|&k| snr >= threshold(k))
        .map_or(0.0, |k| r[k])
}

/// `F(G[k])` for a mean SNR `mean`; `k = 15` is the top step's ∞.
fn cdf(mean: f64, k: usize) -> f64 {
    G_DB.get(k)
        .map_or(1.0, |_| 1.0 - (-threshold(k) / mean).exp())
}

/// Mean rate per RB of the best of `n` users of mean SNR `mean`.
fn best_of_n_rate(r: &Staircase, mean: f64, n: i32) -> f64 {
    (0..r.len())
        .map(|k| r[k] * (cdf(mean, k + 1).powi(n) - cdf(mean, k).powi(n)))
        .sum()
}

impl Radio {
    /// TTIs left out of PF's shares while its averages warm up (20
    /// windows).
    fn warmup(&self) -> usize {
        20 * (PF_WINDOW.as_nanos() / self.tti.as_nanos()) as usize
    }

    fn ttis(&self) -> usize {
        self.warmup() + MEASURED
    }

    fn pf(&self, n: usize) -> PfScheduler {
        PfScheduler::with_tf(n, PF_WINDOW, self.tti)
    }

    /// `Z` standard errors of a mean of every RB's draw, bounded in
    /// `[0, R_max]`.
    fn rate_tolerance(&self) -> f64 {
        Z * (self.steps[14] / 2.0) / ((self.ttis() * N_SB) as f64).sqrt()
    }
}

/// What a run saw: mean bits per RB, and each user's share of the
/// granted RBs and the bits it was served after the warm-up.
struct Run {
    mean_rate: f64,
    shares: Vec<f64>,
    granted: usize,
    served: Vec<f64>,
}

fn run(
    radio: &Radio,
    sched: &mut dyn Scheduler,
    rate: &dyn Fn(f64) -> f64,
    means: &[f64],
    seed: u64,
) -> Run {
    let n = means.len();
    let mut rng = Rng::new(seed + radio.seed_offset);
    let mut rates = TtiRates {
        per_ue_sb: vec![0.0; n * N_SB],
        rb_to_sb: (0..N_SB).collect(),
        n_sb: N_SB,
        n_ues: n,
        reserved: vec![false; N_SB],
        versions: vec![0; n],
    };
    let full = UeTti {
        active: true,
        queued_bytes: u64::MAX / 2,
        ..UeTti::idle()
    };
    let ues = vec![full; n];
    let active: Vec<u16> = (0..n as u16).collect();
    let mut alloc = Allocation::empty(0, 0);
    let (mut bits, mut won, mut granted) = (0.0, vec![0usize; n], 0);
    let mut served = vec![0.0; n];
    for tti in 0..radio.ttis() {
        for (u, &mean) in means.iter().enumerate() {
            for sb in 0..N_SB {
                let snr = -mean * rng.f64_open().ln();
                rates.per_ue_sb[u * N_SB + sb] = rate(snr);
            }
            rates.versions[u] += 1;
        }
        sched.allocate_into(Time::ZERO, &ues, &active, &rates, &mut alloc);
        bits += alloc.total_bits();
        if tti >= radio.warmup() {
            for (s, b) in served.iter_mut().zip(&alloc.bits_per_ue) {
                *s += b;
            }
            for (u, &sb) in alloc.rb_to_ue.iter().zip(&rates.rb_to_sb) {
                if let Some(u) = u.filter(|&u| rates.per_ue_sb[u as usize * N_SB + sb] > 0.0) {
                    won[u as usize] += 1;
                    granted += 1;
                }
            }
        }
        sched.on_served(&alloc.bits_per_ue);
    }
    Run {
        mean_rate: bits / (radio.ttis() * N_SB) as f64,
        shares: won.iter().map(|&w| w as f64 / granted as f64).collect(),
        granted,
        served,
    }
}

/// `Z` standard errors of a share `p` estimated from `count` draws.
fn share_tolerance(p: f64, count: usize) -> f64 {
    Z * (p * (1.0 - p) / count as f64).sqrt()
}

const GAMMA: f64 = 10.0;
/// MT and RR never read the TTI, so their oracles run once per
/// staircase: LTE and NR at numerology 1.
const ONE_PER_STAIRCASE: &[Radio] = RADIOS.split_at(2).0;

/// MT's mean rate is the best-of-*N* sum; RR's, the single-user one.
#[test]
fn mt_and_rr_mean_rates_are_the_staircase_sums() {
    for radio in ONE_PER_STAIRCASE {
        let steps = radio.steps;
        for (seed, n) in [1, 4, 16].into_iter().enumerate() {
            let mt: &mut dyn Scheduler = &mut OutRanScheduler::mt();
            let rr: &mut dyn Scheduler = &mut RrScheduler::default();
            for (name, sched, want) in [
                ("MT", mt, best_of_n_rate(steps, GAMMA, n as i32)),
                ("RR", rr, best_of_n_rate(steps, GAMMA, 1)),
            ] {
                let got = run(
                    radio,
                    sched,
                    &|g| rate_of(steps, g),
                    &vec![GAMMA; n],
                    seed as u64,
                );
                let tol = radio.rate_tolerance();
                assert!(
                    (got.mean_rate - want).abs() <= tol,
                    "{}, {name}, N = {n}: {} bits/RB, closed form {want} ± {tol}",
                    radio.name,
                    got.mean_rate
                );
            }
        }
    }
}

/// PF's mean cell rate lies between RR's single-user sum and MT's
/// best-of-*N* one. (Over identical users the averages `r̃` are nearly
/// equal, so `r / r̃` ranks users as `r` does and PF comes within noise
/// of MT.)
#[test]
fn pf_cell_rate_lies_between_rr_and_mt() {
    for radio in &RADIOS {
        let steps = radio.steps;
        for (seed, n) in [4, 16].into_iter().enumerate() {
            let rate = |g| rate_of(steps, g);
            let got = run(
                radio,
                &mut radio.pf(n),
                &rate,
                &vec![GAMMA; n],
                40 + seed as u64,
            );
            let (rr, mt) = (
                best_of_n_rate(steps, GAMMA, 1),
                best_of_n_rate(steps, GAMMA, n as i32),
            );
            let tol = radio.rate_tolerance();
            assert!(
                rr + tol < got.mean_rate && got.mean_rate < mt + tol,
                "{}, PF, N = {n}: {} bits/RB, not within RR {rr} and MT {mt} ± {tol}",
                radio.name,
                got.mean_rate
            );
        }
    }
}

/// Identical users under PF end up with the same throughput: Jain's
/// index of what each was served is at least 0.99.
#[test]
fn pf_serves_identical_users_fairly() {
    for radio in &RADIOS {
        for (seed, n) in [4, 16].into_iter().enumerate() {
            let rate = |g| rate_of(radio.steps, g);
            let got = run(
                radio,
                &mut radio.pf(n),
                &rate,
                &vec![GAMMA; n],
                50 + seed as u64,
            );
            let jain = jain_fairness(&got.served);
            assert!(
                jain >= 0.99,
                "{}, PF, N = {n}: Jain {jain} of {:?}",
                radio.name,
                got.served
            );
        }
    }
}

#[test]
fn pf_gives_identical_users_equal_airtime() {
    for radio in &RADIOS {
        for (seed, n) in [1, 4, 16].into_iter().enumerate() {
            let rate = |g| rate_of(radio.steps, g);
            let got = run(
                radio,
                &mut radio.pf(n),
                &rate,
                &vec![GAMMA; n],
                20 + seed as u64,
            );
            let p = 1.0 / n as f64;
            let tol = share_tolerance(p, got.granted);
            for (u, &s) in got.shares.iter().enumerate() {
                assert!(
                    (s - p).abs() <= tol,
                    "{}, PF, N = {n}: UE {u} holds {s} of the airtime, not {p} ± {tol}",
                    radio.name
                );
            }
        }
    }
}

/// Three users at 10 dB and an edge user at 0 dB.
const EDGE_CELL: [f64; 4] = [GAMMA, GAMMA, GAMMA, GAMMA / 10.0];

/// MT's closed-form share of the granted airtime for `EDGE_CELL`'s edge
/// user: it wins a subband only when the other three all sit on a
/// strictly lower step (it loses index ties). Only the thresholds
/// enter, so it is the same on every radio.
fn mt_edge_share() -> f64 {
    let edge = EDGE_CELL[3];
    let wins: f64 = (0..G_DB.len())
        .map(|k| (cdf(edge, k + 1) - cdf(edge, k)) * cdf(GAMMA, k).powi(3))
        .sum();
    wins / (1.0 - cdf(GAMMA, 0).powi(3) * cdf(edge, 0))
}

/// About 0.2 % of the airtime.
#[test]
fn mt_starves_the_edge_user() {
    for radio in ONE_PER_STAIRCASE {
        let rate = |g| rate_of(radio.steps, g);
        let got = run(radio, &mut OutRanScheduler::mt(), &rate, &EDGE_CELL, 30);
        let want = mt_edge_share();
        let tol = share_tolerance(want, got.granted);
        assert!(want < 0.01, "closed form {want}");
        assert!(
            (got.shares[3] - want).abs() <= tol,
            "{}, MT edge share {}, closed form {want} ± {tol}",
            radio.name,
            got.shares[3]
        );
    }
}

/// PF's metric `r / r̃` is unchanged when one user's rates are all
/// scaled by a constant, so where each user's rate is a scaled copy of
/// one law (`r = c·γ`, Shannon's low-SNR line) an edge user 10 dB down
/// keeps the airtime of identical users: 1/*N*.
#[test]
fn pf_gives_a_scaled_edge_user_equal_airtime() {
    for radio in &RADIOS {
        let got = run(radio, &mut radio.pf(4), &|snr| 100.0 * snr, &EDGE_CELL, 31);
        let tol = share_tolerance(0.25, got.granted);
        for (u, &s) in got.shares.iter().enumerate() {
            assert!(
                (s - 0.25).abs() <= tol,
                "{}, PF: UE {u} holds {s} of the airtime, not 0.25 ± {tol}",
                radio.name
            );
        }
    }
}

/// On the staircase the edge user's rate law is not a scaled copy of
/// the others' — it falls below the first step in 19 % of its draws —
/// and PF's equal shares do not hold exactly: the edge user gets 21 to
/// 22 % of the airtime on every radio, not 25 % (a measured divergence from the
/// equal-share rule, pinned here by its sign). The three identical
/// users still split the rest equally, and the edge user keeps fifty
/// times MT's share.
#[test]
fn pf_on_the_staircase_shares_airtime_nearly_equally() {
    for radio in &RADIOS {
        let rate = |g| rate_of(radio.steps, g);
        let got = run(radio, &mut radio.pf(4), &rate, &EDGE_CELL, 32);
        let centre = (got.shares[0] + got.shares[1] + got.shares[2]) / 3.0;
        let tol = share_tolerance(centre, got.granted);
        for (u, &s) in got.shares[..3].iter().enumerate() {
            assert!(
                (s - centre).abs() <= tol,
                "{}, PF: UE {u} holds {s}, not the identical users' {centre} ± {tol}",
                radio.name
            );
        }
        let edge = got.shares[3];
        assert!(
            edge < 0.25 - share_tolerance(0.25, got.granted) && edge > 50.0 * mt_edge_share(),
            "{}, PF edge share {edge}",
            radio.name
        );
    }
}
