//! Multi-cell (Colosseum-style) experiment wrapper — Figure 19.
//!
//! The Colosseum runs use "a four-cell topology that consists of 4
//! eNodeBs and 16 UEs, where each eNodeB maintains 4 UEs" (§6.1). Cells
//! in those runs are on separate carriers, so we model them as
//! independent [`crate::cell::Cell`] instances with per-cell seeds and
//! merge the statistics.

use std::path::PathBuf;

use outran_metrics::{FctCollector, FctReport};
use outran_phy::Scenario;
use outran_simcore::{Dur, Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, SchedulerKind};
use crate::checkpoint::{write_checkpoint, CheckpointMeta};
use crate::pool::parallel_map_eager;

/// A multi-cell experiment: `n_cells` independent cells, each with
/// `ues_per_cell` UEs on the given scenario.
#[derive(Debug, Clone)]
pub struct MultiCell {
    /// RF scenario for every cell.
    pub scenario: Scenario,
    /// Cells in the deployment.
    pub n_cells: usize,
    /// UEs attached per cell.
    pub ues_per_cell: usize,
    /// MAC scheduler under test.
    pub scheduler: SchedulerKind,
    /// Offered load per cell.
    pub load: f64,
    /// Flow-size distribution.
    pub dist: FlowSizeDist,
    /// Horizon per cell.
    pub duration: Time,
    /// Root seed; cell *i* runs with `seed + i`.
    pub seed: u64,
    /// Worker threads to shard cells across (1 = serial). The merged
    /// report is byte-identical for every value.
    pub threads: usize,
    /// Wall-time watchdog: if one 1-second simulation epoch takes longer
    /// than this to compute, the run is presumed wedged (livelock,
    /// thrashing) and aborts gracefully — a final checkpoint is written
    /// to [`MultiCell::checkpoint_dir`] (when set) and the completions
    /// collected so far are still merged into the report. `None`
    /// disables the watchdog.
    pub epoch_wall_limit: Option<std::time::Duration>,
    /// Directory for the watchdog's final checkpoint. `None` skips the
    /// checkpoint on abort.
    pub checkpoint_dir: Option<PathBuf>,
    /// Canonical argv recorded in abort checkpoints so `resume` can
    /// rebuild the configuration. Callers that enable
    /// [`MultiCell::checkpoint_dir`] should set this (the CLI passes its
    /// canonical flag form); the library never reads the process
    /// environment itself, so bench/test-invoked runs checkpoint exactly
    /// what they were configured with.
    pub argv: Vec<String>,
}

/// Outcome of [`MultiCell::run_supervised`]: the merged report plus what
/// the watchdog did, if anything.
#[derive(Debug)]
pub struct MultiCellRun {
    /// Merged FCT statistics over every completion collected before the
    /// run ended (normally or via watchdog abort).
    pub report: FctReport,
    /// Simulation instant the watchdog aborted at, or `None` for a run
    /// that completed its full horizon.
    pub aborted_at: Option<Time>,
    /// Path of the final checkpoint written on abort, when one was
    /// requested and succeeded.
    pub checkpoint: Option<PathBuf>,
}

impl MultiCell {
    /// The Figure 19 topology: 4 cells × 4 UEs, LTE traffic distribution.
    pub fn colosseum(scenario: Scenario, scheduler: SchedulerKind, load: f64) -> MultiCell {
        MultiCell {
            scenario,
            n_cells: 4,
            ues_per_cell: 4,
            scheduler,
            load,
            dist: FlowSizeDist::LteCellular,
            duration: Time::from_secs(10),
            seed: 42,
            threads: 1,
            epoch_wall_limit: None,
            checkpoint_dir: None,
            argv: Vec::new(),
        }
    }

    /// Build cell `c` with its flows scheduled (per-cell seed
    /// `self.seed + c`, own Poisson arrival stream).
    fn build_cell(&self, c: usize) -> Cell {
        let seed = self.seed + c as u64;
        let mut cfg = CellConfig::lte_default(self.ues_per_cell, self.scheduler, seed);
        cfg.channel = self.scenario.channel_config();
        let capacity = cfg.channel.nominal_capacity_bps();
        let mut cell = Cell::new(cfg);
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            capacity,
            self.ues_per_cell,
            Rng::new(seed ^ 0xC0105),
        );
        for a in gen.take_until(self.duration) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell
    }

    /// Run all cells and merge FCT statistics.
    ///
    /// Cells are sharded across up to [`MultiCell::threads`] workers and
    /// advanced epoch by epoch with a barrier in between — the hook
    /// where future inter-cell coupling (handover, X2 load exchange)
    /// would live. Each cell evolves from its own seed and the merge
    /// walks cells in index order after the barrier loop, so the report
    /// is byte-identical for any thread count.
    pub fn run(&self) -> FctReport {
        self.run_supervised().report
    }

    /// [`MultiCell::run`] plus graceful degradation: when
    /// [`MultiCell::epoch_wall_limit`] is set and one epoch's barrier
    /// takes longer than the limit in wall time, the run stops advancing,
    /// writes a final multi-cell checkpoint (when
    /// [`MultiCell::checkpoint_dir`] is set) and returns the statistics
    /// accumulated so far with [`MultiCellRun::aborted_at`] marking where
    /// it stopped. The wall clock only ever gates *whether the run
    /// continues* — never any simulated quantity — so results that are
    /// produced remain bit-identical across machines and thread counts.
    pub fn run_supervised(&self) -> MultiCellRun {
        let end = Time(self.duration.0 + Time::from_secs(4).0);
        let epoch = Dur::from_secs(1);
        let mut cells: Vec<Cell> = (0..self.n_cells).map(|c| self.build_cell(c)).collect();
        let mut t = Time::ZERO;
        let mut aborted_at = None;
        let mut checkpoint = None;
        while t < end {
            t = (t + epoch).min(end);
            // The watchdog gates only *whether the run continues*, never
            // any simulated quantity.
            // outran-lint: allow(D1,S5) -- wall-time watchdog, measurement only; never feeds sim state
            let epoch_start = std::time::Instant::now();
            cells = parallel_map_eager(self.threads, cells, |mut cell| {
                cell.run_until(t);
                cell
            });
            if let Some(limit) = self.epoch_wall_limit {
                let took = epoch_start.elapsed();
                if took > limit {
                    eprintln!(
                        "warning: multicell epoch to {t} took {:.1}s wall \
                         (limit {:.1}s); aborting gracefully",
                        took.as_secs_f64(),
                        limit.as_secs_f64()
                    );
                    aborted_at = Some(t);
                    if let Some(dir) = &self.checkpoint_dir {
                        let meta = CheckpointMeta {
                            argv: self.argv.clone(),
                            sim_time: t,
                            dense: false,
                            n_cells: cells.len(),
                        };
                        let refs: Vec<&Cell> = cells.iter().collect();
                        let secs = t.as_nanos() / 1_000_000_000;
                        let path = dir.join(format!("multicell-abort-{secs}s.orsn"));
                        match write_checkpoint(&path, &meta, &refs) {
                            Ok(()) => checkpoint = Some(path),
                            Err(e) => {
                                eprintln!(
                                    "warning: abort checkpoint {} failed: {e}",
                                    path.display()
                                );
                            }
                        }
                    }
                    break;
                }
            }
        }
        let mut merged = FctCollector::new();
        for cell in &mut cells {
            for d in cell.take_completions() {
                merged.record(d.bytes, d.fct);
            }
        }
        MultiCellRun {
            report: merged.report(),
            aborted_at,
            checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colosseum_topology_runs() {
        let mut mc = MultiCell::colosseum(Scenario::ColosseumRome, SchedulerKind::Pf, 0.3);
        mc.duration = Time::from_secs(3);
        mc.n_cells = 2; // keep the unit test fast
        let r = mc.run();
        assert!(r.count > 5, "completed={}", r.count);
        assert!(r.overall_mean_ms > 0.0);
    }

    #[test]
    fn watchdog_aborts_gracefully_with_final_checkpoint() {
        let dir = std::env::temp_dir().join(format!("outran-mc-wd-{}", std::process::id()));
        let mut mc = MultiCell::colosseum(Scenario::ColosseumRome, SchedulerKind::Pf, 0.3);
        mc.duration = Time::from_secs(3);
        mc.n_cells = 2;
        // A zero wall limit trips after the very first epoch.
        mc.epoch_wall_limit = Some(std::time::Duration::ZERO);
        mc.checkpoint_dir = Some(dir.clone());
        let out = mc.run_supervised();
        assert_eq!(out.aborted_at, Some(Time::from_secs(1)));
        let ckpt = out.checkpoint.expect("abort checkpoint should be written");
        let (meta, file) = crate::checkpoint::read_checkpoint(&ckpt).unwrap();
        assert_eq!(meta.n_cells, 2);
        assert_eq!(meta.sim_time, Time::from_secs(1));
        // Both cell sections restore into freshly built cells.
        for c in 0..2 {
            let mut fresh = mc.build_cell(c);
            crate::checkpoint::restore_cell(&file, c, &mut fresh).unwrap();
            assert_eq!(fresh.now(), Time::from_secs(1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_cell_seeds_differ() {
        let mut a = MultiCell::colosseum(Scenario::ColosseumPowder, SchedulerKind::Pf, 0.3);
        a.duration = Time::from_secs(3);
        a.n_cells = 1;
        let mut b = a.clone();
        b.seed += 1;
        let ra = a.run();
        let rb = b.run();
        assert_ne!(ra.overall_mean_ms, rb.overall_mean_ms);
    }
}
