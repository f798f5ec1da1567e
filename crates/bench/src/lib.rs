//! # outran-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation, plus the metro and chaos-soak studies beyond it. Each is
//! one function in [`figures`], listed once in [`figures::FIGURES`]; the
//! `outran-fig` binary prints them, writes them to `results/` and checks
//! `results/` against them (DESIGN.md's experiment index has the mapping).
//!
//! Shared plumbing lives here: the (point, seed) grid fan-out and the
//! multi-seed averaging of experiment reports.

#![warn(missing_docs)]

pub mod figures;

use outran_metrics::SizeBucket;
use outran_ran::{parallel_map, Experiment, ExperimentReport};

/// Seeds used by default for averaged experiment points. Three seeds
/// keeps each figure's runtime in seconds while smoothing the
/// heavy-tailed FCT noise.
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// Averages of the scalar metrics of several reports.
#[derive(Debug, Clone)]
pub struct AvgReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Mean of overall mean FCTs (ms).
    pub overall_mean_ms: f64,
    /// Mean of short-flow mean FCTs (ms).
    pub short_mean_ms: f64,
    /// Mean of short-flow 95th percentiles (ms).
    pub short_p95_ms: f64,
    /// Mean of short-flow 99th percentiles (ms).
    pub short_p99_ms: f64,
    /// Mean of medium-flow mean FCTs (ms).
    pub medium_mean_ms: f64,
    /// Mean of long-flow mean FCTs (ms).
    pub long_mean_ms: f64,
    /// Mean spectral efficiency (bit/s/Hz).
    pub spectral_efficiency: f64,
    /// Mean Jain fairness.
    pub fairness: f64,
    /// Mean queueing delay (ms).
    pub mean_qdelay_ms: f64,
    /// Mean short-flow queueing delay (ms).
    pub short_qdelay_ms: f64,
    /// Mean TCP RTT (ms).
    pub mean_rtt_ms: f64,
    /// The individual reports (for CDFs, series and event counts).
    pub runs: Vec<ExperimentReport>,
}

/// Run every `(point, seed)` combination of a sweep grid on up to
/// `threads` workers, then average each point's seeds. One job per
/// combination keeps all cores busy even when `seeds.len()` is small;
/// every job is an independent seeded [`Experiment`], so the result
/// depends on neither `threads` nor how points are grouped into grids.
pub fn run_avg_grid<T: Send + Sync>(
    threads: usize,
    points: Vec<T>,
    seeds: &[u64],
    build: impl Fn(&T, u64) -> Experiment + Sync,
) -> Vec<(T, AvgReport)> {
    assert!(!seeds.is_empty());
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| seeds.iter().map(move |&s| (p, s)))
        .collect();
    let mut it = parallel_map(threads, jobs, |(p, s)| build(&points[p], s).run()).into_iter();
    let n_seeds = seeds.len();
    points
        .into_iter()
        .map(|point| (point, average(it.by_ref().take(n_seeds).collect())))
        .collect()
}

/// Average already-computed reports (all from the same scheduler).
fn average(runs: Vec<ExperimentReport>) -> AvgReport {
    assert!(!runs.is_empty());
    let mean = |metric| ExperimentReport::mean(&runs, metric);
    AvgReport {
        scheduler: runs[0].scheduler.clone(),
        overall_mean_ms: mean(|r| r.fct.overall_mean_ms),
        short_mean_ms: mean(|r| r.fct.short_mean_ms),
        short_p95_ms: mean(|r| r.fct.short_p95_ms),
        short_p99_ms: mean(|r| r.fct.short_p99_ms),
        medium_mean_ms: mean(|r| r.fct.medium_mean_ms),
        long_mean_ms: mean(|r| r.fct.long_mean_ms),
        spectral_efficiency: mean(|r| r.spectral_efficiency),
        fairness: mean(|r| r.fairness),
        mean_qdelay_ms: mean(|r| r.mean_qdelay_ms),
        short_qdelay_ms: mean(|r| r.short_qdelay_ms),
        mean_rtt_ms: mean(|r| r.mean_rtt_ms),
        runs,
    }
}

/// The tail (p >= 0.9) of one bucket's FCT CDF, pooled over the seeds.
pub fn fct_cdf_tail(report: &mut AvgReport, bucket: SizeBucket) -> Vec<(f64, f64)> {
    let mut all = outran_simcore::Percentiles::new();
    for run in &mut report.runs {
        for &(v, _) in &run.fct_collector.cdf(Some(bucket), usize::MAX) {
            all.push(v);
        }
    }
    let mut cdf = all.cdf_points(400);
    cdf.retain(|&(_, p)| p >= 0.9);
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_ran::SchedulerKind;

    fn build(load: &f64, seed: u64) -> Experiment {
        Experiment::lte_default()
            .users(4)
            .load(*load)
            .duration_secs(2)
            .scheduler(SchedulerKind::Pf)
            .seed(seed)
    }

    /// A 2-point x 2-seed grid is the same bytes — everything a figure
    /// can read, through `Debug` — submitted one point at a time, and
    /// on 1, 2 and 3 threads.
    #[test]
    fn grid_depends_on_neither_grouping_nor_threads() {
        let grid = |threads, loads: Vec<f64>| run_avg_grid(threads, loads, &[1, 2], build);
        let whole = grid(1, vec![0.2, 0.4]);
        assert_eq!(whole[0].0, 0.2);
        assert_eq!(whole[1].1.runs.len(), 2);
        assert!(whole[1].1.overall_mean_ms > 0.0);
        let mut solo = grid(1, vec![0.2]);
        solo.extend(grid(1, vec![0.4]));
        assert_eq!(format!("{whole:?}"), format!("{solo:?}"));
        for threads in [2, 3] {
            let pooled = grid(threads, vec![0.2, 0.4]);
            assert_eq!(format!("{whole:?}"), format!("{pooled:?}"), "{threads}");
        }
    }
}
