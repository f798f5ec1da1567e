//! Figure 19 — Colosseum-style multi-cell experiments: three RF
//! scenarios (Rome: close/moderate, Boston: close/fast, POWDER:
//! medium/static) × three cell loads, vanilla srsRAN (PF) vs OutRAN,
//! reporting the appendix table's FCT columns.
//!
//! The topology is "4 eNodeBs and 16 UEs, where each eNodeB maintains 4
//! UEs" (§6.1) on separate carriers: four independent [`Cell`]s with
//! per-cell seeds, their completions merged.

use super::*;
use outran_metrics::{FctCollector, FctReport};
use outran_phy::Scenario;
use outran_ran::experiment::DRAIN;
use outran_ran::{Cell, CellConfig};
use outran_simcore::{Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

const CELLS: u64 = 4;
const UES_PER_CELL: usize = 4;
const SEED: u64 = 42;

/// Run the four cells (cell `c` seeded `SEED + c`, own Poisson arrival
/// stream) on up to `threads` workers and merge their FCT statistics in
/// cell-index order: byte-identical for any thread count.
fn colosseum(
    scenario: Scenario,
    kind: SchedulerKind,
    load: f64,
    secs: u64,
    threads: usize,
) -> FctReport {
    let duration = Time::from_secs(secs);
    let end = duration + DRAIN;
    let per_cell = parallel_map(threads, (0..CELLS).collect(), |c| {
        let seed = SEED + c;
        let mut cfg = CellConfig::lte_default(UES_PER_CELL, kind, seed);
        cfg.channel = scenario.channel_config();
        let capacity = cfg.channel.nominal_capacity_bps();
        let mut cell = Cell::new(cfg);
        let mut gen = PoissonFlowGen::new(
            FlowSizeDist::LteCellular,
            load,
            capacity,
            UES_PER_CELL,
            Rng::new(seed ^ 0xC0105),
        );
        for a in gen.take_until(duration) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell.run_until(end);
        cell.take_completions()
    });
    let mut merged = FctCollector::new();
    for d in per_cell.iter().flatten() {
        merged.record(d.bytes, d.fct);
    }
    merged.report()
}

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 19: Colosseum scenarios (4 cells x 4 UEs, 15 RBs)",
        &[
            "scenario",
            "load",
            "sched",
            "overall(ms)",
            "S(ms)",
            "S p95(ms)",
            "M(ms)",
            "L(ms)",
        ],
    );
    for scenario in [
        Scenario::ColosseumRome,
        Scenario::ColosseumBoston,
        Scenario::ColosseumPowder,
    ] {
        // The paper's loads {0.2, 0.4, 0.6} are fractions of the 15-RB
        // cells' *achieved* capacity under Colosseum RF; our load knob is
        // nominal-peak-relative, so the equivalent contention needs
        // roughly 1.7x the nominal setting.
        for load in [0.35, 0.7, 1.05] {
            for (kind, label) in [
                (SchedulerKind::Pf, "srsRAN"),
                (SchedulerKind::OutRan, "OutRAN"),
            ] {
                let r = colosseum(scenario, kind, load, 15, threads);
                t.row(&[
                    scenario.name(),
                    format!("{load:.1}"),
                    label.into(),
                    f1(r.overall_mean_ms),
                    f1(r.short_mean_ms),
                    f1(r.short_p95_ms),
                    f1(r.medium_mean_ms),
                    f1(r.long_mean_ms),
                ]);
            }
        }
    }
    *out += &t.render();
    *out += "\npaper: OutRAN improves average FCT by ~32 % and short-flow FCT by\n\
         ~56 % across scenarios/loads without hurting long flows\n";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sharding the four cells across workers changes wall clock only.
    #[test]
    fn parallel_shards_match_serial() {
        let run = |threads| {
            colosseum(
                Scenario::ColosseumRome,
                SchedulerKind::OutRan,
                0.4,
                3,
                threads,
            )
        };
        let serial = run(1);
        assert!(serial.count > 5, "completed={}", serial.count);
        assert_eq!(
            format!("{serial:?}"),
            format!("{:?}", run(4)),
            "sharded four-cell run diverged from serial"
        );
    }
}
