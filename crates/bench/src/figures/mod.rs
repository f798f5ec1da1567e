//! Every table and figure of the evaluation as a function
//! `fn(threads, out)`: simulate on up to `threads` workers, append the
//! text to `out`. Output is a function of the commit alone — no host
//! time, no thread count — so `outran-fig --check results` can demand
//! byte equality. Host timings go to stderr.

// The vocabulary the figures share; each starts `use super::*`.
use crate::{fct_cdf_tail, run_grid, SEEDS};
use outran_metrics::table::{f1, f2, f3, render_series};
use outran_metrics::{SizeBucket, Table};
use outran_ran::{parallel_map, Experiment, ExperimentReport, SchedulerKind};
use outran_simcore::Dur;

/// The LTE cell most figures (and the claims test) run (§6.2): 40 UEs,
/// 20 s of arrivals, SRJF as the paper's winner-takes-all grant.
pub fn lte40(load: f64, kind: SchedulerKind, seed: u64) -> Experiment {
    Experiment::lte_default()
        .users(40)
        .srjf_mode(outran_mac::SrjfMode::WinnerOnly)
        .load(load)
        .duration_secs(20)
        .scheduler(kind)
        .seed(seed)
}

/// A figure: its name (the stem of its `results/NAME.txt`) and the
/// function that renders it.
pub type Figure = (&'static str, fn(usize, &mut String));

/// One module per figure, each with a `run`, listed once, in the
/// paper's order (the studies beyond the paper last). `outran-fig` and
/// the `results/` check know figures only through [`FIGURES`].
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*
        /// The registry.
        pub const FIGURES: &[Figure] = &[$((stringify!($name), $name::run)),*];
    };
}
figures![
    table1_qos,
    table2_quic,
    fig2_distributions,
    fig3_motivation,
    fig4_sideeffects,
    fig7_poc,
    fig8_epsilon,
    fig12_plt,
    fig13_overhead,
    fig14_rb_scaling,
    fig15_lte_fct,
    fig16_se_fairness,
    fig17_5g_impact,
    fig18a_tf,
    fig18b_ablation,
    fig18c_am,
    fig18d_reset,
    fig19_colosseum,
    fig20_5g_fct,
    harq_study,
    ablation_design,
    work_ledger,
    metro,
    chaos_soak,
];

#[cfg(test)]
mod tests {
    use super::FIGURES;
    use std::collections::BTreeSet;

    /// `results/` holds one `.txt` per registered figure and nothing
    /// else: no orphan file, no unrecorded figure, no duplicate name.
    #[test]
    fn registry_and_results_dir_name_the_same_set() {
        let names: BTreeSet<String> = FIGURES.iter().map(|(n, _)| format!("{n}.txt")).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let files: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ is committed")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        assert_eq!(files, names);
    }
}
