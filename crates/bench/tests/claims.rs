//! The paper's headline claims against PF, as a paired test over 32
//! seeds: Fig 16's cell (`lte40`: LTE, 40 UEs, 20 s of arrivals) at
//! loads 0.6 and 0.8 under PF and under OutRAN at ε = 0, 0.1, 0.2 (the
//! default, `SchedulerKind::OutRan`) and 0.4, each OutRAN run divided by
//! the PF run of its seed. Release only (320 runs of ≈ 0.5 s); the
//! `claims` CI job runs it.

use outran_bench::figures::lte40;
use outran_bench::run_grid;
use outran_metrics::{paired, Paired};
use outran_ran::{default_threads, ExperimentReport, SchedulerKind};
use std::ops::Range;

type Metric = fn(&ExperimentReport) -> f64;

/// The ε frontier, in order; ε = 0.2 is the default OutRAN.
const EPS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Seeds of 32 on which a step up in ε must lower the short p95 and the
/// Jain index (assertion 4): a majority. Recorded: 19 for the short p95
/// at load 0.6 from ε = 0 to 0.1 (median step ratio 0.985, where the
/// median ratio to PF reads 0.447 → 0.467), 21–30 for every other step.
const STEP_WINS: usize = 17;

/// The band the intra-user share of the short-flow gain, (1 − r(0)) /
/// (1 − r(0.2)) of the median FCT ratios to PF, must stay in (assertion
/// 6): almost all of the gain, not all of it. Recorded on the mean 0.899
/// / 0.938 and on the p95 0.954 / 0.945 at loads 0.6 / 0.8
/// (EXPERIMENTS.md, divergence 7).
const INTRA_USER_SHARE: Range<f64> = 0.88..1.0;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: the claims CI job runs it")]
fn outran_against_pf_over_32_seeds() {
    let seeds: Vec<u64> = (1..=32).collect();
    let [e0, e1, _, e4] = EPS.map(SchedulerKind::OutRanEps);
    let kinds = [SchedulerKind::Pf, e0, e1, SchedulerKind::OutRan, e4];
    let points: Vec<_> = [0.6, 0.8]
        .iter()
        .flat_map(|&load| kinds.map(|kind| (load, kind)))
        .collect();
    let grid = run_grid(default_threads(), points, &seeds, |&(load, kind), seed| {
        lte40(load, kind, seed).run()
    });
    // Each load's OutRAN ÷ PF ratios, one per ε (short mean, short p95,
    // Jain, SE), and each step up in ε paired per seed with the step
    // below it (short p95, Jain). Every row prints before any assertion.
    let rows: Vec<_> = grid
        .chunks(1 + EPS.len())
        .map(|row| {
            let ((load, _), pf) = &row[0];
            let ratio = |a: &[ExperimentReport], b: &[ExperimentReport], metric: Metric| {
                paired(a.iter().map(metric).zip(b.iter().map(metric)))
            };
            let curve = |metric: Metric| -> Vec<Paired> {
                row[1..]
                    .iter()
                    .map(|(_, runs)| ratio(runs, pf, metric))
                    .collect()
            };
            let steps = |metric: Metric| -> Vec<Paired> {
                let step = |w: &[(_, Vec<_>)]| ratio(&w[1].1, &w[0].1, metric);
                row[1..].windows(2).map(step).collect()
            };
            let p95: Metric = |r| r.fct.short_p95_ms;
            let jain: Metric = |r| r.fairness;
            let curves = [curve(|r| r.fct.short_mean_ms), curve(p95), curve(jain)];
            let se = ratio(&row[3].1, pf, |r| r.spectral_efficiency);
            for (i, eps) in EPS.iter().enumerate() {
                let [mean, p95, jain] = curves.each_ref().map(|c| c[i]);
                println!("load {load}, eps {eps}: short mean {mean:?}\n  short p95 {p95:?}");
                println!("  Jain {jain:?}");
            }
            let steps = [steps(p95), steps(jain)];
            for k in 0..EPS.len() - 1 {
                let (from, to, p95, jain) = (EPS[k], EPS[k + 1], steps[0][k], steps[1][k]);
                println!("load {load}, eps {from} -> {to}: short p95 {p95:?}\n  Jain {jain:?}");
            }
            println!("load {load}, OutRAN: SE {se:?}");
            (*load, curves, steps, se)
        })
        .collect();
    for (load, [short_mean, short_p95, jain], steps, se) in &rows {
        // 1. Short-flow FCT, a sign test: OutRAN lower on at least 28 of
        //    32 seeds. Recorded: 32/32 for the mean and the p95 at both
        //    loads (medians 0.69 / 0.42 at 0.6, 0.39 / 0.15 at 0.8), so a
        //    margin of 4 seeds.
        for (name, p) in [("mean", short_mean[2]), ("p95", short_p95[2])] {
            assert!(
                p.n == 32 && p.wins >= 28,
                "load {load}: OutRAN's short-flow {name} FCT is below PF's on only {} of {} seeds: {p:?}",
                p.wins,
                p.n
            );
        }
        // 2. OutRAN keeps ≥ 98 % of PF's spectral efficiency (median
        //    ratio). Recorded 1.006 at 0.6 and 1.016 at 0.8: a margin of
        //    2.6–3.6 points.
        assert!(
            se.median >= 0.98,
            "load {load}: OutRAN's SE median ratio to PF is {se:?}, below the paper's 0.98"
        );
        // 3. Expected divergence: the paper's "≥ 97 % of PF's fairness"
        //    fails at load 0.8. Recorded median 0.964 (q1 0.942, q3
        //    0.985, 14 of 32 seeds ≥ 0.97); the band [0.93, 0.97) holds
        //    it 3.4 points above the floor and 0.6 below the paper's
        //    bar, and is asserted in both directions.
        if *load == 0.8 {
            assert!(
                (0.93..0.97).contains(&jain[2].median),
                "load 0.8: OutRAN's Jain median ratio to PF moved out of its recorded band \
                 [0.93, 0.97) (recorded 0.964): {:?}. Re-record the band here and in \
                 EXPERIMENTS.md's Fig 16 section, and say why it moved",
                jain[2]
            );
        }
        // 4. The frontier is monotone: each step up in ε lowers the short
        //    p95 and Jain, per seed (the step's median ratio is below 1)
        //    and on at least STEP_WINS of 32 seeds.
        for (name, steps) in [("short p95", &steps[0]), ("Jain", &steps[1])] {
            for (k, step) in steps.iter().enumerate() {
                assert!(
                    step.median < 1.0 && step.wins >= STEP_WINS,
                    "load {load}: {name} does not fall from eps {} to {}: {step:?}",
                    EPS[k],
                    EPS[k + 1]
                );
            }
        }
        // 5. ε = 0 is MLFQ RLC over PF, near enough: PF's fairness. At
        //    ε = 0.1 the paper's "≥ 97 % of PF's fairness" holds at both
        //    loads, where at ε = 0.2 it fails at load 0.8 (assertion 3).
        //    Recorded medians 1.007 / 1.004 (ε = 0) and 0.994 / 0.985
        //    (ε = 0.1) at loads 0.6 / 0.8.
        for (i, floor) in [(0, 0.99), (1, 0.97)] {
            assert!(
                jain[i].median >= floor,
                "load {load}: OutRAN(e={})'s Jain median ratio to PF is {:?}, below {floor}",
                EPS[i],
                jain[i]
            );
        }
        // 6. The intra-user share of OutRAN's short-flow gain: the part
        //    of ε = 0.2's reduction (1 − r) that ε = 0, the per-UE MLFQ
        //    alone, already gives, on the mean and on the p95.
        for (name, curve) in [("mean", short_mean), ("p95", short_p95)] {
            let share = (1.0 - curve[0].median) / (1.0 - curve[2].median);
            println!("load {load}: intra-user share of the short {name} gain {share:.3}");
            assert!(
                INTRA_USER_SHARE.contains(&share),
                "load {load}: the intra-user share of the short {name} gain moved out of \
                 {INTRA_USER_SHARE:?}: {share:.3}. Re-record it here and in EXPERIMENTS.md's \
                 divergence 7, and say why it moved"
            );
        }
    }
}
