//! Cell-level metamorphic identities at whole-report equality: pairs of
//! configurations that are the same simulation by construction, compared
//! on every report field but the scheduler label. They hold exactly, so
//! they hold on any channel or arrival model.

use outran_core::OutRanConfig;
use outran_ran::{Experiment, SchedulerKind};

const SEEDS: [u64; 3] = [1, 2, 3];

fn cell(users: usize, kind: SchedulerKind, seed: u64) -> Experiment {
    Experiment::lte_default()
        .users(users)
        .load(0.6)
        .duration_secs(4)
        .scheduler(kind)
        .seed(seed)
}

/// The whole report but the scheduler label, which names the
/// configuration rather than anything it simulated.
fn report(exp: Experiment) -> String {
    let mut report = exp.run();
    assert!(report.completed > 0, "vacuous run");
    report.scheduler.clear();
    format!("{report:?}")
}

/// With every demotion threshold above the largest flow the size CDF can
/// draw, every packet stays in the top MLFQ queue, which is then a FIFO;
/// ε = 0 leaves the inter-user step PF's argmax. That is PF over FIFO RLC.
#[test]
fn one_queue_outran_at_epsilon_zero_is_pf() {
    let never = 1 << 40; // bytes; the LTE CDF ends at 30 MB
    let one_queue = OutRanConfig {
        thresholds: Some(vec![never, never + 1, never + 2]),
        ..OutRanConfig::default()
    };
    for seed in SEEDS {
        assert_eq!(
            report(cell(6, SchedulerKind::OutRanEps(0.0), seed).outran(one_queue.clone())),
            report(cell(6, SchedulerKind::Pf, seed)),
            "seed {seed}"
        );
    }
}

/// A one-UE cell gives the inter-user step nothing to choose between, so
/// ε cannot change a grant.
#[test]
fn one_ue_cell_is_epsilon_independent() {
    for seed in SEEDS {
        let at = |eps: f64| report(cell(1, SchedulerKind::OutRanEps(eps), seed));
        let base = at(0.0);
        for eps in [0.2, 1.0] {
            assert_eq!(at(eps), base, "seed {seed}, ε = {eps}");
        }
    }
}

/// Strict MLFQ is OutRAN's inter-user step with its whole room given to
/// the MLFQ: ε = 1. Premise guard: on the same cells ε = 0.5 does differ
/// from strict MLFQ, so the comparison sees ε.
#[test]
fn outran_at_epsilon_one_is_strict_mlfq() {
    for seed in SEEDS {
        let strict = report(cell(6, SchedulerKind::StrictMlfq, seed));
        let at = |eps: f64| report(cell(6, SchedulerKind::OutRanEps(eps), seed));
        assert_eq!(at(1.0), strict, "seed {seed}");
        assert_ne!(at(0.5), strict, "seed {seed}: ε = 0.5 ran as strict MLFQ");
    }
}
