//! # outran-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation, plus the metro and chaos-soak studies beyond it. Each is
//! one function in [`figures`], listed once in [`figures::FIGURES`]; the
//! `outran-fig` binary prints them, writes them to `results/` and checks
//! `results/` against them (DESIGN.md's experiment index has the mapping).
//!
//! Shared plumbing lives here: the (point, seed) grid fan-out, whose
//! points carry their per-seed reports, and the FCT tail pooled over
//! them.

#![warn(missing_docs)]

pub mod figures;

use outran_metrics::SizeBucket;
use outran_ran::{parallel_map, ExperimentReport};

/// The seeds of a figure point, whose tables print their mean. Three
/// seeds keeps each figure's runtime in seconds while smoothing the
/// heavy-tailed FCT noise.
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// Run every `(point, seed)` combination of a sweep grid on up to
/// `threads` workers and return each point with its per-seed results,
/// in `seeds` order. One job per combination keeps all cores busy even
/// when `seeds.len()` is small; every job is a function of its point
/// and seed alone (a seeded [`outran_ran::Experiment`]'s `run`, say), so
/// the result depends on neither `threads` nor how points are grouped.
pub fn run_grid<T: Send + Sync, R: Send>(
    threads: usize,
    points: Vec<T>,
    seeds: &[u64],
    job: impl Fn(&T, u64) -> R + Sync,
) -> Vec<(T, Vec<R>)> {
    assert!(!seeds.is_empty());
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| seeds.iter().map(move |&s| (p, s)))
        .collect();
    let mut it = parallel_map(threads, jobs, |(p, s)| job(&points[p], s)).into_iter();
    points
        .into_iter()
        .map(|point| (point, it.by_ref().take(seeds.len()).collect()))
        .collect()
}

/// The tail (p >= 0.9) of one bucket's FCT CDF, pooled over the seeds.
pub fn fct_cdf_tail(runs: &[ExperimentReport], bucket: SizeBucket) -> Vec<(f64, f64)> {
    let mut all = outran_simcore::Percentiles::new();
    for v in runs.iter().flat_map(|run| run.fcts(Some(bucket))) {
        all.push(v);
    }
    let mut cdf = all.cdf_points(400);
    cdf.retain(|&(_, p)| p >= 0.9);
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_ran::{Experiment, SchedulerKind};

    fn build(load: &f64, seed: u64) -> ExperimentReport {
        Experiment::lte_default()
            .users(4)
            .load(*load)
            .duration_secs(2)
            .scheduler(SchedulerKind::Pf)
            .seed(seed)
            .run()
    }

    /// A 2-point x 2-seed grid is the same bytes — everything a figure
    /// can read, through `Debug` — submitted one point at a time, and
    /// on 1, 2 and 3 threads; each point's reports are in seed order.
    #[test]
    fn grid_depends_on_neither_grouping_nor_threads() {
        let grid = |threads, loads: Vec<f64>| run_grid(threads, loads, &[1, 2], build);
        let whole = grid(1, vec![0.2, 0.4]);
        assert_eq!(whole[0].0, 0.2);
        assert_eq!(whole[1].1.len(), 2);
        assert!(ExperimentReport::mean(&whole[1].1, |r| r.fct.overall_mean_ms) > 0.0);
        assert_eq!(
            format!("{:?}", whole[0].1[1]),
            format!("{:?}", build(&0.2, 2))
        );
        let mut solo = grid(1, vec![0.2]);
        solo.extend(grid(1, vec![0.4]));
        assert_eq!(format!("{whole:?}"), format!("{solo:?}"));
        for threads in [2, 3] {
            let pooled = grid(threads, vec![0.2, 0.4]);
            assert_eq!(format!("{whole:?}"), format!("{pooled:?}"), "{threads}");
        }
    }
}
