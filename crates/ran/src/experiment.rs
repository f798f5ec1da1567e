//! High-level experiment builder and report.
//!
//! Wraps [`crate::cell::Cell`] in the evaluation's standard pattern:
//! Poisson flow arrivals at a target cell load over a chosen scenario,
//! run for a horizon, report FCT buckets + spectral efficiency +
//! fairness. Every figure's bench binary is a thin loop over this type.

use std::path::PathBuf;

use outran_core::OutRanConfig;
use outran_faults::{FaultPlan, FaultStats, Violation};
use outran_metrics::SizeBucket;
use outran_phy::Scenario;
use outran_simcore::{Dur, Rng, Time};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, RlcMode, SchedulerKind};
use crate::checkpoint::{write_checkpoint, CheckpointMeta};

/// Flows spawned before this are left out of the FCT report, in cell
/// and network runs alike.
pub const WARMUP: Dur = Dur::from_secs(1);
/// How long a run continues past its arrival horizon, to let late flows
/// finish.
pub const DRAIN: Dur = Dur::from_secs(4);

/// Builder for a standard Poisson-load cell experiment: a
/// [`CellConfig`] plus the arrival process and horizon that drive it.
/// Every cell-level builder below writes straight through to that one
/// configuration, which [`Experiment::build_cell`] hands to
/// [`Cell::new`] unchanged.
#[derive(Debug, Clone)]
pub struct Experiment {
    cell: CellConfig,
    /// Target cell load (offered bits / capacity).
    pub load: f64,
    dist: FlowSizeDist,
    /// Arrival horizon; the run drains [`DRAIN`] beyond it.
    pub duration: Time,
    /// Periodic checkpointing as `(interval, directory, argv)`: once per
    /// interval of simulated time, write a crash-safe snapshot into the
    /// directory (see [`crate::checkpoint`]), embedding the argv in its
    /// metadata so `resume` can rebuild the identical experiment.
    checkpoint: Option<(Dur, PathBuf, Vec<String>)>,
}

impl Experiment {
    /// The paper's main LTE setting: pedestrian cell, LTE cellular flow
    /// sizes, PF unless overridden.
    pub fn lte_default() -> Experiment {
        Experiment {
            cell: CellConfig::lte_default(20, SchedulerKind::Pf, 1),
            load: 0.6,
            dist: FlowSizeDist::LteCellular,
            duration: Time::from_secs(10),
            checkpoint: None,
        }
    }

    /// The 5G setting of §6.2 (NR urban, MIRAGE sizes).
    pub fn nr_default(mu: u8) -> Experiment {
        Experiment::lte_default()
            .scenario(Scenario::NrUrban(mu))
            .dist(FlowSizeDist::MirageMobileApp)
            .users(40)
    }

    /// The cell configuration built so far (read-only).
    pub fn config(&self) -> &CellConfig {
        &self.cell
    }

    /// Select the scenario preset.
    pub fn scenario(mut self, s: Scenario) -> Self {
        self.cell.channel = s.channel_config();
        self
    }

    /// Select the MAC scheduler.
    pub fn scheduler(mut self, k: SchedulerKind) -> Self {
        self.cell.scheduler = k;
        self
    }

    /// Number of UEs.
    pub fn users(mut self, n: usize) -> Self {
        self.cell.n_ues = n;
        self
    }

    /// Target cell load (offered bits / capacity).
    pub fn load(mut self, l: f64) -> Self {
        self.load = l;
        self
    }

    /// Flow-size distribution.
    pub fn dist(mut self, d: FlowSizeDist) -> Self {
        self.dist = d;
        self
    }

    /// Simulated horizon in seconds.
    pub fn duration_secs(mut self, s: u64) -> Self {
        self.duration = Time::from_secs(s);
        self
    }

    /// Root seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cell.seed = s;
        self
    }

    /// PF fairness window T_f.
    pub fn fairness_window(mut self, tf: Dur) -> Self {
        self.cell.tf = tf;
        self
    }

    /// RLC mode (UM default).
    pub fn rlc_mode(mut self, m: RlcMode) -> Self {
        self.cell.rlc_mode = m;
        self
    }

    /// RLC buffer capacity in SDUs (Fig 3b sweeps ×1 / ×5).
    pub fn buffer_sdus(mut self, n: usize) -> Self {
        self.cell.buffer_sdus = n;
        self
    }

    /// One-way CN propagation delay (Fig 17: 20 ms remote, 5 ms MEC).
    pub fn cn_delay(mut self, d: Dur) -> Self {
        self.cell.cn_delay = d;
        self
    }

    /// OutRAN policy configuration.
    pub fn outran(mut self, c: OutRanConfig) -> Self {
        self.cell.outran = c;
        self
    }

    /// Post-HARQ residual segment-loss probability (fault injection).
    pub fn residual_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.cell.residual_loss = p;
        self
    }

    /// SRJF leftover-capacity policy (see [`outran_mac::srjf::SrjfMode`]).
    pub fn srjf_mode(mut self, m: outran_mac::srjf::SrjfMode) -> Self {
        self.cell.srjf_mode = m;
        self
    }

    /// Explicit HARQ retransmission modelling (`None` = folded model).
    pub fn harq(mut self, h: Option<outran_phy::harq::HarqConfig>) -> Self {
        self.cell.harq = h;
        self
    }

    /// Scripted fault plan consulted each TTI (chaos runs).
    pub fn faults(mut self, p: FaultPlan) -> Self {
        self.cell.faults = p;
        self
    }

    /// Stalled-flow watchdog: force a retransmission after this long
    /// without cumulative-ACK progress.
    pub fn watchdog(mut self, stall: Option<Dur>) -> Self {
        self.cell.watchdog = stall;
        self
    }

    /// Flow-table admission-control cap (LRU eviction beyond it).
    pub fn max_flow_entries(mut self, cap: Option<usize>) -> Self {
        self.cell.max_flow_entries = cap;
        self
    }

    /// Write a crash-safe checkpoint into `dir` every `every` of
    /// *simulated* time (rounded up to whole-second epoch boundaries).
    /// `argv` is embedded in the checkpoint metadata so
    /// `outran-sim resume <ckpt>` can rebuild the identical experiment.
    pub fn checkpoint_every(mut self, every: Dur, dir: PathBuf, argv: Vec<String>) -> Self {
        assert!(every > Dur::ZERO, "checkpoint interval must be positive");
        self.checkpoint = Some((every, dir, argv));
        self
    }

    /// Estimated cell capacity in bit/s for the scenario (see
    /// [`outran_phy::channel::ChannelConfig::nominal_capacity_bps`]).
    pub fn capacity_bps(&self) -> f64 {
        self.cell.channel.nominal_capacity_bps()
    }

    /// Build the configured cell with every Poisson arrival scheduled
    /// up-front, ready to advance. Used by [`Experiment::run`] and by
    /// checkpoint restore (construct-then-overlay: a restored run
    /// rebuilds this exact cell, then overlays the snapshot's dynamic
    /// state with `load_snap`).
    pub fn build_cell(&self) -> Cell {
        let mut cell = Cell::new(self.cell.clone());
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            self.capacity_bps(),
            self.cell.n_ues,
            Rng::new(self.cell.seed ^ 0xA11CE),
        );
        for a in gen.take_until(self.duration) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell
    }

    /// Build the cell + arrivals and run to completion.
    pub fn run(self) -> ExperimentReport {
        let cell = self.build_cell();
        self.run_cell(cell)
    }

    /// Run an already-built (or checkpoint-restored) cell from its
    /// current clock to the end of the drain window, then assemble the
    /// report. With checkpointing configured, the horizon is walked in
    /// whole-second epochs and a snapshot is written atomically at every
    /// interval boundary — the chunked walk is bit-identical to one
    /// `run_until` call, since both stepping loops only ever advance one
    /// TTI at a time. A checkpoint write failure is reported to stderr
    /// and the run continues: losing a checkpoint must not kill a soak.
    pub fn run_cell(self, mut cell: Cell) -> ExperimentReport {
        let drain_end = self.duration + DRAIN;
        match &self.checkpoint {
            Some((every, dir, argv)) => {
                let every = Dur::from_secs(every.as_nanos().div_ceil(Time::from_secs(1).0));
                let mut next = Time(cell.now().0 + every.as_nanos());
                while cell.now() < drain_end {
                    let to = next.min(drain_end);
                    cell.run_until(to);
                    if cell.now() >= next {
                        let meta = CheckpointMeta {
                            argv: argv.clone(),
                            sim_time: cell.now(),
                            dense: false,
                            n_cells: 1,
                        };
                        let secs = cell.now().as_nanos() / 1_000_000_000;
                        let path = dir.join(format!("ckpt-{secs}s.orsn"));
                        if let Err(e) = write_checkpoint(&path, &meta, &[&cell]) {
                            eprintln!("warning: checkpoint {} failed: {e}", path.display());
                        }
                        next = Time(next.0 + every.as_nanos());
                    }
                }
            }
            None => {
                cell.run_until(self.duration);
                cell.run_until(drain_end);
            }
        }

        // Only count flows that *started* after warmup. The pipeline
        // yields completions already in completion order (delivery runs
        // once per TTI, in TTI order), so no re-sort is needed — the
        // debug assertion guards that contract.
        let mut fct = outran_metrics::FctCollector::new();
        let mut records = Vec::new();
        let mut last_done = Time::ZERO;
        for d in cell.take_completions() {
            let done_at = d.spawn + d.fct;
            debug_assert!(
                done_at >= last_done,
                "pipeline must emit completions in completion order"
            );
            last_done = done_at;
            if d.spawn >= Time::ZERO + WARMUP {
                fct.record(d.bytes, d.fct);
                records.push((d.bytes, d.fct.as_millis_f64()));
            }
        }
        let report = fct.report();
        let se = cell.metrics.spectral_efficiency();
        let fairness = cell.metrics.mean_fairness();
        // Final invariant sweep so end-of-run state is always audited.
        cell.audit_now();
        ExperimentReport {
            scheduler: self.cell.scheduler.label(),
            fct: report,
            spectral_efficiency: se,
            fairness,
            mean_qdelay_ms: cell.metrics.mean_qdelay_ms(),
            short_qdelay_ms: cell.metrics.short_qdelay_ms(),
            mean_rtt_ms: cell.mean_last_rtt_ms(),
            completed: cell.n_completed(),
            offered: cell.n_flows(),
            buffer_drops: cell.buffer_drops(),
            residual_losses: cell.residual_losses(),
            fault_stats: cell.fault_stats(),
            violations: cell.violations().to_vec(),
            total_violations: cell.total_violations(),
            se_series: cell.metrics.se_series().to_vec(),
            fairness_series: cell.metrics.fairness_series().to_vec(),
            flow_records: records,
        }
    }
}

/// Results of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Scheduler name.
    pub scheduler: String,
    /// FCT summary (ms).
    pub fct: outran_metrics::FctReport,
    /// Long-run spectral efficiency (bit/s/Hz).
    pub spectral_efficiency: f64,
    /// Mean Jain fairness of windowed samples.
    pub fairness: f64,
    /// Mean RLC queueing delay (ms) — Fig 17 ②.
    pub mean_qdelay_ms: f64,
    /// Mean short-flow RLC queueing delay (ms) — Fig 17 ③.
    pub short_qdelay_ms: f64,
    /// Mean of last TCP RTT samples (ms) — Fig 17 ①.
    pub mean_rtt_ms: f64,
    /// Flows completed (including warmup).
    pub completed: usize,
    /// Flows offered.
    pub offered: usize,
    /// SDUs dropped at full RLC buffers.
    pub buffer_drops: u64,
    /// Segments lost after HARQ (configured residual + injected spikes).
    pub residual_losses: u64,
    /// Injected-fault and recovery-path counters.
    pub fault_stats: FaultStats,
    /// Recorded invariant violations (bounded; see `total_violations`).
    pub violations: Vec<Violation>,
    /// Total invariant violations, including any past the record cap.
    pub total_violations: u64,
    /// SE samples in time order (Figs 4a and 7a).
    pub se_series: Vec<f64>,
    /// Fairness samples in time order (Figs 4b and 7b).
    pub fairness_series: Vec<f64>,
    /// Per-flow (size bytes, FCT ms) records of the flows that started
    /// after warmup, in completion order: what `fct` summarises, and the
    /// source of CSV exports and FCT CDFs.
    pub flow_records: Vec<(u64, f64)>,
}

impl ExperimentReport {
    /// The FCTs (ms) of the post-warmup flows in `bucket`, or of every
    /// one for `None`, in completion order.
    pub fn fcts(&self, bucket: Option<SizeBucket>) -> impl Iterator<Item = f64> + '_ {
        let kept = move |bytes: u64| bucket.is_none_or(|b| SizeBucket::of(bytes) == b);
        self.flow_records
            .iter()
            .filter(move |&&(bytes, _)| kept(bytes))
            .map(|&(_, ms)| ms)
    }

    /// The mean of `metric` over the seeds of `runs`, skipping a NaN (a
    /// size bucket one seed saw no flow in); NaN when every seed's is.
    pub fn mean(runs: &[ExperimentReport], metric: fn(&ExperimentReport) -> f64) -> f64 {
        let vals: Vec<f64> = runs.iter().map(metric).filter(|v| !v.is_nan()).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: SchedulerKind) -> ExperimentReport {
        Experiment::lte_default()
            .users(6)
            .load(0.4)
            .duration_secs(4)
            .scheduler(kind)
            .seed(3)
            .run()
    }

    #[test]
    fn experiment_produces_flows_and_metrics() {
        let r = tiny(SchedulerKind::Pf);
        assert!(r.fct.count > 5, "completed={}", r.fct.count);
        assert!(r.spectral_efficiency > 0.1);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
        assert!(r.completed as f64 / r.offered as f64 > 0.7);
    }

    #[test]
    fn deterministic_reports() {
        let a = tiny(SchedulerKind::OutRan);
        let b = tiny(SchedulerKind::OutRan);
        assert_eq!(a.fct.count, b.fct.count);
        assert_eq!(a.spectral_efficiency, b.spectral_efficiency);
    }

    /// Every builder set to a non-default value lands in the
    /// configuration the cell is built from (or, for the arrival-process
    /// builders, in the schedule); fields with no builder keep the
    /// `CellConfig::lte_default` values.
    #[test]
    fn every_builder_reaches_the_built_cell() {
        let dbg = |x: &dyn std::fmt::Debug| format!("{x:?}");
        let outran = OutRanConfig {
            thresholds: vec![10_000, 50_000, 200_000, 1_000_000, 5_000_000],
            pushout: false,
            ..OutRanConfig::default()
        };
        let harq = outran_phy::harq::HarqConfig {
            max_tx: 2,
            ..Default::default()
        };
        let faults = FaultPlan::chaos(3, Dur::from_secs(2), 5, 0.5);
        let exp = Experiment::lte_default()
            .scenario(Scenario::NrUrban(1))
            .scheduler(SchedulerKind::OutRanEps(0.35))
            .users(5)
            .load(0.3)
            .dist(FlowSizeDist::Websearch)
            .duration_secs(2)
            .seed(77)
            .fairness_window(Dur::from_millis(250))
            .rlc_mode(RlcMode::Am)
            .buffer_sdus(64)
            .cn_delay(Dur::from_millis(5))
            .outran(outran.clone())
            .residual_loss(0.01)
            .srjf_mode(outran_mac::srjf::SrjfMode::WinnerOnly)
            .harq(Some(harq))
            .faults(faults.clone())
            .watchdog(Some(Dur::from_millis(750)))
            .max_flow_entries(Some(9));
        let cell = exp.build_cell();
        let c = cell.config();
        let channel = Scenario::NrUrban(1).channel_config();
        assert_eq!(dbg(&c.channel), dbg(&channel));
        assert_eq!(c.scheduler, SchedulerKind::OutRanEps(0.35));
        assert_eq!(c.n_ues, 5);
        assert_eq!(c.seed, 77);
        assert_eq!(c.tf, Dur::from_millis(250));
        assert_eq!(c.rlc_mode, RlcMode::Am);
        assert_eq!(c.buffer_sdus, 64);
        assert_eq!(c.cn_delay, Dur::from_millis(5));
        assert_eq!(dbg(&c.outran), dbg(&outran));
        assert_eq!(c.residual_loss, 0.01);
        assert_eq!(c.srjf_mode, outran_mac::srjf::SrjfMode::WinnerOnly);
        assert_eq!(dbg(&c.harq), dbg(&Some(harq)));
        assert_eq!(c.faults, faults);
        assert_eq!(c.watchdog, Some(Dur::from_millis(750)));
        assert_eq!(c.max_flow_entries, Some(9));
        let d = CellConfig::lte_default(5, c.scheduler, 77);
        assert_eq!(c.ul_air_delay, d.ul_air_delay);
        assert_eq!(dbg(&c.tcp), dbg(&d.tcp));
        // The buffer size reaches the RLC transmit entity of either mode.
        for mode in [RlcMode::Um, RlcMode::Am] {
            let exp = exp.clone().rlc_mode(mode);
            let ues = crate::stages::UeContext::build_all(exp.config());
            assert!(ues.iter().all(|u| u.rlc_tx.capacity_sdus() == 64));
        }
        // load, dist, duration and seed drive the arrival schedule.
        let mut gen = PoissonFlowGen::new(
            FlowSizeDist::Websearch,
            0.3,
            channel.nominal_capacity_bps(),
            5,
            Rng::new(77 ^ 0xA11CE),
        );
        let expected = gen.take_until(Time::from_secs(2)).len();
        assert!(expected > 0);
        assert_eq!(cell.n_flows(), expected);
    }

    #[test]
    fn capacity_is_sane() {
        let e = Experiment::lte_default();
        let c = e.capacity_bps();
        // 20 MHz LTE @256QAM: ~97-102 Mbps peak, mildly derated.
        assert!((6e7..1.0e8).contains(&c), "capacity={c}");
    }
}
