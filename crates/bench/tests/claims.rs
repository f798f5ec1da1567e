//! The paper's headline claims against PF, as a paired test over 32
//! seeds: Fig 16's cell (`lte40`: LTE, 40 UEs, 20 s of arrivals) under
//! PF and under OutRAN (ε = 0.2) at loads 0.6 and 0.8, and at load 0.8
//! under OutRAN at ε = 0 and ε = 0.1, each OutRAN run divided by the PF
//! run of its seed. Release only (192 runs of ≈ 0.5 s); the `claims` CI
//! job runs it.

use outran_bench::figures::lte40;
use outran_bench::run_grid;
use outran_metrics::{paired, Paired};
use outran_ran::{default_threads, ExperimentReport, SchedulerKind};

type Metric = fn(&ExperimentReport) -> f64;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: the claims CI job runs it")]
fn outran_against_pf_over_32_seeds() {
    let seeds: Vec<u64> = (1..=32).collect();
    let mut points: Vec<_> = [0.6, 0.8]
        .iter()
        .flat_map(|&load| [SchedulerKind::Pf, SchedulerKind::OutRan].map(|kind| (load, kind)))
        .collect();
    points.extend([0.0, 0.1].map(|e| (0.8, SchedulerKind::OutRanEps(e))));
    let grid = run_grid(default_threads(), points, &seeds, |&(load, kind), seed| {
        lte40(load, kind, seed).run()
    });
    let ratio = |runs: &[ExperimentReport], pf: &[ExperimentReport], metric: Metric| {
        paired(runs.iter().map(metric).zip(pf.iter().map(metric)))
    };
    for pair in grid[..4].chunks(2) {
        let (((load, _), pf), outran) = (&pair[0], &pair[1].1);
        let ratio = |metric: Metric| -> Paired { ratio(outran, pf, metric) };
        let short_mean = ratio(|r| r.fct.short_mean_ms);
        let short_p95 = ratio(|r| r.fct.short_p95_ms);
        let se = ratio(|r| r.spectral_efficiency);
        let jain = ratio(|r| r.fairness);
        println!("load {load}: short mean {short_mean:?}\n  short p95 {short_p95:?}");
        println!("  SE {se:?}\n  Jain {jain:?}");

        // 1. Short-flow FCT, a sign test: OutRAN lower on at least 28 of
        //    32 seeds. Recorded: 32/32 for the mean and the p95 at both
        //    loads (medians 0.69 / 0.42 at 0.6, 0.39 / 0.15 at 0.8), so a
        //    margin of 4 seeds.
        for (name, p) in [("mean", short_mean), ("p95", short_p95)] {
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
                (0.93..0.97).contains(&jain.median),
                "load 0.8: OutRAN's Jain median ratio to PF moved out of its recorded band \
                 [0.93, 0.97) (recorded 0.964): {jain:?}. Re-record the band here and in \
                 EXPERIMENTS.md's Fig 16 section, and say why it moved"
            );
        }
    }

    // The ε frontier at load 0.8 (EXPERIMENTS.md, divergence 7).
    let short_mean: Metric = |r| r.fct.short_mean_ms;
    let pf = &grid[2].1;
    let at = |i: usize| ratio(&grid[i].1, pf, short_mean).median;
    let (r0, r1, r2) = (at(4), at(5), at(3));
    for (i, eps, floor) in [(4, 0.0, 0.99), (5, 0.1, 0.97)] {
        let jain = ratio(&grid[i].1, pf, |r| r.fairness);
        println!(
            "load 0.8, eps {eps}: short mean {:?}",
            ratio(&grid[i].1, pf, short_mean)
        );
        println!("  Jain {jain:?}");
        // 4. ε = 0 is MLFQ RLC over PF, near enough: PF's fairness
        //    (recorded median 1.004). At ε = 0.1 the paper's "≥ 97 % of
        //    PF's fairness" holds (recorded 0.985), where at ε = 0.2 it
        //    fails (assertion 3).
        assert!(
            jain.median >= floor,
            "load 0.8: OutRAN(e={eps})'s Jain median ratio to PF is {jain:?}, below {floor}"
        );
    }
    // 5. The intra-user share of OutRAN's short-flow gain: the part of
    //    ε = 0.2's mean reduction (1 - r) that ε = 0, the per-UE MLFQ
    //    alone, already gives. Recorded 0.94 (r = 0.431 at ε = 0, 0.399
    //    at ε = 0.1, 0.394 at ε = 0.2); the band [0.88, 1.0) keeps it
    //    intra-user, as divergence 7 says, and below the whole gain.
    let intra = (1.0 - r0) / (1.0 - r2);
    println!("intra-user share {intra:.3} (short mean ratios {r0:.3} / {r1:.3} / {r2:.3})");
    assert!(
        (0.88..1.0).contains(&intra),
        "load 0.8: the intra-user share of the short-mean gain moved out of its recorded \
         band [0.88, 1.0) (recorded 0.94): {intra:.3}. Re-record it here and in \
         EXPERIMENTS.md's divergence 7, and say why it moved"
    );
}
