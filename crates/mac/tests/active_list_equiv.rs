//! The list-driven schedulers against a full scan.
//!
//! Every scheduler walks the ascending list of active UEs it is handed
//! and never looks at another UE: an inactive UE's input, rate row and
//! cached metric row go unread, and unrefreshed, until the TTI it is
//! active again. The references below are what the schedulers did
//! before that — compute every metric from the current rates, visit
//! every slot, skip the inactive ones — kept here, per RB and without a
//! cache, so a stale row, a missed re-key or a wrong visiting order
//! shows as a differing allocation. Every reference leaves the
//! GBR-reserved RBs alone: they are not the dynamic scheduler's to give. 10⁴ TTIs a scheduler, UEs flipping
//! between active and idle while their rate rows, link state and queue
//! state keep changing underneath them.

use outran_mac::qos::{CQA_BETA, DELAY_BUDGET};
use outran_mac::{
    Allocation, CqaScheduler, OutRanScheduler, PfCore, PfScheduler, PssScheduler, RateSource,
    RrScheduler, Scheduler, SrjfMode, SrjfScheduler, TtiRates, UeTti,
};
use outran_pdcp::Priority;
use outran_simcore::{Dur, Rng, Time};

const N_UES: usize = 12;
const N_SB: usize = 4;
const RBS_PER_SB: usize = 3;
const TTIS: usize = 10_000;
const TF: Dur = Dur::from_millis(200);
const TTI: Dur = Dur::from_millis(1);

/// What the schedulers did before the active list: every slot visited.
trait FullScan {
    fn allocate(&mut self, ues: &[UeTti], rates: &TtiRates) -> Allocation;
    fn on_served(&mut self, _bits: &[f64]) {}
    fn on_idle(&mut self, _k: u64) {}
}

/// `u`'s rate on `rb`, reserved or not.
fn rate(rates: &TtiRates, u: usize, rb: u16) -> f64 {
    rates.per_ue_sb[u * N_SB + rates.rb_to_sb[rb as usize]]
}

/// The RBs no GBR grant holds, ascending.
fn free_rbs(rates: &TtiRates) -> impl Iterator<Item = u16> + '_ {
    (0..rates.n_rbs()).filter(|&rb| !rates.reserved[rb as usize])
}

/// Per-RB strict-`>` argmax of `metric(u, rate)` over every active slot
/// with a usable rate, restricted to `eligible`.
fn best_on_rb(
    ues: &[UeTti],
    rates: &TtiRates,
    rb: u16,
    eligible: impl Fn(&UeTti) -> bool,
    metric: impl Fn(usize, f64) -> f64,
) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (u, ue) in ues.iter().enumerate() {
        if !ue.active || !eligible(ue) {
            continue;
        }
        let r = rate(rates, u, rb);
        if r <= 0.0 {
            continue;
        }
        let m = metric(u, r);
        if best.is_none_or(|(_, bm, _)| m > bm) {
            best = Some((u, m, r));
        }
    }
    best
}

fn per_rb(
    ues: &[UeTti],
    rates: &TtiRates,
    mut winner: impl FnMut(u16) -> Option<(usize, f64)>,
) -> Allocation {
    let mut alloc = Allocation::empty(rates.n_rbs(), ues.len());
    for rb in free_rbs(rates) {
        if let Some((u, r)) = winner(rb) {
            alloc.assign(rb, u as u16, r);
        }
    }
    alloc
}

/// PF, MT, and OutRAN over either. PF and MT are checked against ε = 0,
/// which still breaks an exact metric tie by head priority where they
/// keep the lower index; that agrees only because this file's
/// continuous rates never tie exactly. The exact-tie rule is pinned by
/// `epsilon_zero_breaks_exact_ties_by_priority_and_pf_does_not` in
/// `outran.rs`.
struct RefRelaxed {
    core: Option<PfCore>,
    epsilon: f64,
}

impl FullScan for RefRelaxed {
    fn allocate(&mut self, ues: &[UeTti], rates: &TtiRates) -> Allocation {
        let metric = |u: usize, r: f64| self.core.as_ref().map_or(r, |c| c.metric(u, r));
        let prio = |ue: &UeTti| ue.head_priority.map_or(u8::MAX, |p| p.0);
        per_rb(ues, rates, |rb| {
            let (legacy, m_max, _) = best_on_rb(ues, rates, rb, |_| true, metric)?;
            let floor = (1.0 - self.epsilon) * m_max;
            let (mut sel, mut sel_prio, mut sel_m) = (legacy, prio(&ues[legacy]), m_max);
            for (u, ue) in ues.iter().enumerate() {
                let r = rate(rates, u, rb);
                if u == legacy || !ue.active || r <= 0.0 {
                    continue;
                }
                let m = metric(u, r);
                if m < floor {
                    continue;
                }
                let p = prio(ue);
                if p < sel_prio || (p == sel_prio && m > sel_m) {
                    (sel, sel_prio, sel_m) = (u, p, m);
                }
            }
            Some((sel, rate(rates, sel, rb)))
        })
    }
    fn on_served(&mut self, bits: &[f64]) {
        if let Some(c) = &mut self.core {
            c.update(bits);
        }
    }
    fn on_idle(&mut self, k: u64) {
        if let Some(c) = &mut self.core {
            c.decay(k);
        }
    }
}

#[derive(Default)]
struct RefRr {
    next: usize,
}

impl FullScan for RefRr {
    fn allocate(&mut self, ues: &[UeTti], rates: &TtiRates) -> Allocation {
        let active: Vec<usize> = (0..ues.len()).filter(|&u| ues[u].active).collect();
        per_rb(ues, rates, |rb| {
            if active.is_empty() {
                return None;
            }
            let u = active[self.next % active.len()];
            self.next = self.next.wrapping_add(1);
            Some((u, rate(rates, u, rb)))
        })
    }
}

struct RefSrjf {
    mode: SrjfMode,
}

impl FullScan for RefSrjf {
    fn allocate(&mut self, ues: &[UeTti], rates: &TtiRates) -> Allocation {
        let mut alloc = Allocation::empty(rates.n_rbs(), ues.len());
        let free: Vec<u16> = free_rbs(rates).collect();
        let mut order: Vec<usize> = (0..ues.len()).filter(|&u| ues[u].active).collect();
        order.sort_by_key(|&u| ues[u].oracle_min_remaining.unwrap_or(u64::MAX));
        let mut i = 0;
        for u in order {
            let ue = &ues[u];
            let need = ue
                .queued_bytes
                .min(ue.oracle_min_remaining.unwrap_or(u64::MAX))
                .max(1);
            let need_bits = need.saturating_mul(8) as f64 + 256.0;
            let mut granted = 0.0;
            while i < free.len() && granted < need_bits {
                let r = rate(rates, u, free[i]);
                if r <= 0.0 {
                    break;
                }
                alloc.assign(free[i], u as u16, r);
                granted += r;
                i += 1;
            }
            if i >= free.len() || self.mode == SrjfMode::WinnerOnly {
                break;
            }
        }
        alloc
    }
}

/// PSS (`cqa = false`) and CQA.
struct RefQos {
    core: PfCore,
    cqa: bool,
}

impl FullScan for RefQos {
    fn allocate(&mut self, ues: &[UeTti], rates: &TtiRates) -> Allocation {
        let core = &self.core;
        per_rb(ues, rates, |rb| {
            let best = if self.cqa {
                best_on_rb(
                    ues,
                    rates,
                    rb,
                    |_| true,
                    |u, r| {
                        let weight = if ues[u].oracle_has_qos_flow {
                            let budget = DELAY_BUDGET.as_secs_f64();
                            (1.0 + ues[u].hol_delay.as_secs_f64() / budget).powf(CQA_BETA)
                        } else {
                            1.0
                        };
                        core.metric(u, r) * weight
                    },
                )
            } else {
                best_on_rb(
                    ues,
                    rates,
                    rb,
                    |ue| ue.oracle_has_qos_flow,
                    |u, r| core.metric(u, r),
                )
                .or_else(|| best_on_rb(ues, rates, rb, |_| true, |u, r| core.metric(u, r)))
            };
            best.map(|(u, _, r)| (u, r))
        })
    }
    fn on_served(&mut self, bits: &[f64]) {
        self.core.update(bits);
    }
    fn on_idle(&mut self, k: u64) {
        self.core.decay(k);
    }
}

/// The rate matrix and UE inputs of one cell, churning.
struct World {
    rates: TtiRates,
    link_up: Vec<bool>,
    ues: Vec<UeTti>,
    active: Vec<u16>,
}

impl World {
    fn new(rng: &mut Rng) -> World {
        let n_rbs = N_SB * RBS_PER_SB;
        let mut w = World {
            rates: TtiRates {
                per_ue_sb: vec![0.0; N_UES * N_SB],
                rb_to_sb: (0..n_rbs).map(|rb| rb / RBS_PER_SB).collect(),
                n_sb: N_SB,
                n_ues: N_UES,
                reserved: vec![false; n_rbs],
                versions: vec![0; N_UES],
            },
            link_up: vec![true; N_UES],
            ues: vec![UeTti::idle(); N_UES],
            active: Vec::new(),
        };
        for ue in 0..N_UES {
            w.new_report(ue, rng);
        }
        w
    }

    /// A new CQI report for `ue` (even version), or the zeroed row of a
    /// downed link (odd version) — `MacSchedStage::refresh_rates`'s tags.
    fn new_report(&mut self, ue: usize, rng: &mut Rng) {
        for r in &mut self.rates.per_ue_sb[ue * N_SB..(ue + 1) * N_SB] {
            *r = if !self.link_up[ue] || rng.chance(0.15) {
                0.0
            } else {
                rng.range_f64(8.0, 5000.0)
            };
        }
        self.rates.versions[ue] = (self.rates.versions[ue] / 2 + 1) * 2 + !self.link_up[ue] as u64;
    }

    fn churn(&mut self, rng: &mut Rng) {
        for ue in 0..N_UES {
            // Reports and link edges arrive whether or not the UE has
            // anything queued: an idle UE's row goes stale in the caches.
            if rng.chance(0.03) {
                self.link_up[ue] = !self.link_up[ue];
                self.new_report(ue, rng);
            } else if rng.chance(0.2) {
                self.new_report(ue, rng);
            }
            // Activity in bursts: a UE stays idle or busy for a while.
            let was = self.ues[ue].active;
            let busy = self.link_up[ue]
                && if was {
                    rng.chance(0.9)
                } else {
                    rng.chance(0.1)
                };
            self.ues[ue] = if busy {
                UeTti {
                    active: true,
                    head_priority: rng.chance(0.8).then(|| Priority(rng.below(4) as u8)),
                    queued_bytes: 1 + rng.below(50_000),
                    oracle_min_remaining: rng.chance(0.9).then(|| 1 + rng.below(20_000)),
                    hol_delay: Dur::from_micros(rng.below(120_000)),
                    oracle_has_qos_flow: rng.chance(0.3),
                }
            } else {
                UeTti::idle()
            };
        }
        for r in &mut self.rates.reserved {
            *r = rng.chance(0.1);
        }
        self.active.clear();
        self.active
            .extend((0..N_UES as u16).filter(|&u| self.ues[u as usize].active));
    }
}

fn assert_list_driven_is_full_scan(
    name: &str,
    mut sched: Box<dyn Scheduler>,
    mut reference: Box<dyn FullScan>,
    seed: u64,
) {
    let mut rng = Rng::new(seed);
    let mut world = World::new(&mut rng);
    let mut alloc = Allocation::empty(0, 0);
    let (mut granted_ttis, mut empty_ttis, mut activations) = (0, 0, 0);
    for tti in 0..TTIS {
        let before: Vec<bool> = world.ues.iter().map(|u| u.active).collect();
        world.churn(&mut rng);
        activations += (0..N_UES)
            .filter(|&u| world.ues[u].active && !before[u])
            .count();
        if rng.chance(0.02) {
            let k = 1 + rng.below(400);
            sched.on_idle(k);
            reference.on_idle(k);
        }
        sched.allocate_into(
            Time::ZERO,
            &world.ues,
            &world.active,
            &world.rates,
            &mut alloc,
        );
        let want = reference.allocate(&world.ues, &world.rates);
        assert_eq!(alloc.rb_to_ue, want.rb_to_ue, "{name}: RB map, TTI {tti}");
        let bits = |a: &Allocation| {
            a.bits_per_ue
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&alloc), bits(&want), "{name}: granted bits, TTI {tti}");
        granted_ttis += (alloc.rbs_used() > 0) as usize;
        empty_ttis += world.active.is_empty() as usize;
        // What was put on the air is some of what was granted.
        let served: Vec<f64> = alloc
            .bits_per_ue
            .iter()
            .map(|&b| if rng.chance(0.8) { b } else { 0.0 })
            .collect();
        sched.on_served(&served);
        reference.on_served(&served);
    }
    // The walk did exercise the cases it is about.
    assert!(
        granted_ttis > TTIS / 2,
        "{name}: {granted_ttis} TTIs granted"
    );
    assert!(empty_ttis > 0, "{name}: never an empty list");
    assert!(activations > TTIS / 10, "{name}: {activations} activations");
}

#[test]
fn pf_mt_and_outran_over_both_match_a_full_scan() {
    let pf_core = || Some(PfCore::new(N_UES, TF, TTI));
    let relaxed = |core, epsilon| Box::new(RefRelaxed { core, epsilon });
    let cases: Vec<(&str, Box<dyn Scheduler>, Box<RefRelaxed>)> = vec![
        (
            "PF",
            Box::new(PfScheduler::with_tf(N_UES, TF, TTI)),
            relaxed(pf_core(), 0.0),
        ),
        ("MT", Box::new(OutRanScheduler::mt()), relaxed(None, 0.0)),
        (
            "OutRAN/PF",
            Box::new(OutRanScheduler::over_pf(N_UES, TF, TTI, 0.2)),
            relaxed(pf_core(), 0.2),
        ),
        (
            "OutRAN/MT",
            Box::new(OutRanScheduler::over_mt(0.35)),
            relaxed(None, 0.35),
        ),
    ];
    for (seed, (name, sched, reference)) in cases.into_iter().enumerate() {
        assert_list_driven_is_full_scan(name, sched, reference, 0xAC7 + seed as u64);
    }
}

#[test]
fn rr_and_srjf_match_a_full_scan() {
    assert_list_driven_is_full_scan(
        "RR",
        Box::new(RrScheduler::default()),
        Box::<RefRr>::default(),
        1,
    );
    for (seed, mode) in [SrjfMode::WinnerOnly, SrjfMode::Waterfall]
        .into_iter()
        .enumerate()
    {
        assert_list_driven_is_full_scan(
            "SRJF",
            Box::new(SrjfScheduler::with_mode(mode)),
            Box::new(RefSrjf { mode }),
            4 + seed as u64,
        );
    }
}

#[test]
fn pss_and_cqa_match_a_full_scan() {
    assert_list_driven_is_full_scan(
        "PSS",
        Box::new(PssScheduler::new(N_UES, TF, TTI)),
        Box::new(RefQos {
            core: PfCore::new(N_UES, TF, TTI),
            cqa: false,
        }),
        7,
    );
    assert_list_driven_is_full_scan(
        "CQA",
        Box::new(CqaScheduler::new(N_UES, TF, TTI)),
        Box::new(RefQos {
            core: PfCore::new(N_UES, TF, TTI),
            cqa: true,
        }),
        8,
    );
}

/// The provided `allocate` is `allocate_into` with the list derived from
/// the inputs: same allocation, for callers that have neither.
#[test]
fn allocate_derives_the_list_it_hands_to_allocate_into() {
    let mut rng = Rng::new(9);
    let mut world = World::new(&mut rng);
    let mut a = OutRanScheduler::over_pf(N_UES, TF, TTI, 0.2);
    let mut b = OutRanScheduler::over_pf(N_UES, TF, TTI, 0.2);
    let mut alloc = Allocation::empty(0, 0);
    for _ in 0..500 {
        world.churn(&mut rng);
        a.allocate_into(
            Time::ZERO,
            &world.ues,
            &world.active,
            &world.rates,
            &mut alloc,
        );
        assert_eq!(alloc, b.allocate(Time::ZERO, &world.ues, &world.rates));
        a.on_served(&alloc.bits_per_ue);
        b.on_served(&alloc.bits_per_ue);
    }
}
