//! Work ledger (beyond the paper) — every `WorkCounters` row for four
//! CI-sized shapes that mirror the benchmark's workloads, as totals and
//! per active cell-TTI.
//!
//! The counters are deterministic work (draws, slot steps, scan visits,
//! event-tier traffic, high waters), equal on any host and thread
//! count, so a change that moves work moves this file and says why; a
//! change that should not, holds it byte for byte. High waters are
//! sizes, not rates: their per-TTI cell reads "-".

use super::*;
use outran_faults::FaultPlan;
use outran_phy::harq::HarqConfig;
use outran_phy::numerology::RadioConfig;
use outran_phy::Scenario;
use outran_ran::cell::GbrBearer;
use outran_ran::webplt::idle_heavy_arrivals;
use outran_ran::{Cell, CellConfig, Network, RlcMode, WorkCounters};
use outran_simcore::Time;

const SEED: u64 = 42;
/// The busy and chaos cells' arrival horizon; every run drains 4 s more.
const CELL_SECS: u64 = 5;
/// The soak's arrival horizon: two hours of page loads on two UEs.
const SOAK_SECS: u64 = 2 * 3_600;
const METRO_SECS: u64 = 3;
const DRAIN_SECS: u64 = 4;

#[derive(Clone, Copy)]
enum Shape {
    BusyCell,
    ChaosCell,
    IdleSoak,
    Metro,
}

const SHAPES: [Shape; 4] = [
    Shape::BusyCell,
    Shape::ChaosCell,
    Shape::IdleSoak,
    Shape::Metro,
];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::BusyCell => "busy_cell",
            Shape::ChaosCell => "chaos_cell",
            Shape::IdleSoak => "idle_soak",
            Shape::Metro => "metro",
        }
    }

    /// Run the shape through its drain window and return its work.
    fn work(self) -> WorkCounters {
        let lte16 = || {
            Experiment::lte_default()
                .users(16)
                .load(0.6)
                .duration_secs(CELL_SECS)
                .seed(SEED)
        };
        let (mut cell, secs) = match self {
            Shape::BusyCell => (
                lte16().scheduler(SchedulerKind::OutRan).build_cell(),
                CELL_SECS,
            ),
            Shape::ChaosCell => {
                let mut c = lte16()
                    .scheduler(SchedulerKind::Pf)
                    .rlc_mode(RlcMode::Am)
                    .harq(Some(HarqConfig::default()))
                    .residual_loss(0.02)
                    .faults(FaultPlan::chaos(SEED, Dur::from_secs(CELL_SECS), 16, 0.2))
                    .watchdog(Some(Dur::from_millis(750)))
                    .build_cell();
                c.add_gbr_bearer(GbrBearer::volte(0));
                (c, CELL_SECS)
            }
            Shape::IdleSoak => (soak_cell(), SOAK_SECS),
            Shape::Metro => {
                let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::OutRan, 0.6);
                net.slots_per_cell = 32;
                net.n_ues = 440;
                net.duration = Time::from_secs(METRO_SECS);
                net.seed = SEED;
                return net.run().work;
            }
        };
        cell.run_until(Time::from_secs(secs + DRAIN_SECS));
        cell.work()
    }
}

/// The benchmark's soak cell: 2 UEs on 25 RBs, page loads every ~5 min.
fn soak_cell() -> Cell {
    let mut cfg = CellConfig::lte_default(2, SchedulerKind::OutRan, SEED);
    cfg.channel.radio = RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    let mut cell = Cell::new(cfg);
    let horizon = Time::from_secs(SOAK_SECS);
    for (at, ue, bytes) in idle_heavy_arrivals(horizon, Dur::from_secs(300), 2, SEED) {
        cell.schedule_flow(at, ue, bytes, None);
    }
    cell
}

pub(super) fn run(threads: usize, out: &mut String) {
    let works = parallel_map(threads, SHAPES.to_vec(), Shape::work);
    let mut headers = vec!["counter"];
    headers.extend(SHAPES.iter().map(|s| s.name()));
    let mut totals = Table::new("work ledger: totals", &headers);
    let mut per_tti = Table::new("work ledger: per active cell-TTI", &headers);
    let rows: Vec<Vec<(&str, u64)>> = works.iter().map(WorkCounters::rows).collect();
    for (i, &(name, _)) in rows[0].iter().enumerate() {
        let mut total = vec![name.to_string()];
        let mut rate = vec![name.to_string()];
        for (w, r) in works.iter().zip(&rows) {
            let v = r[i].1;
            total.push(v.to_string());
            rate.push(if name.ends_with("_high_water") {
                "-".to_string()
            } else {
                f3(v as f64 / w.active_cell_ttis.max(1) as f64)
            });
        }
        totals.row(&total);
        per_tti.row(&rate);
    }
    *out += &format!(
        "shapes (seed {SEED}, each drained {DRAIN_SECS} s past its horizon):\n\
         busy_cell  OutRAN, 16 UEs, load 0.6, {CELL_SECS} s\n\
         chaos_cell PF, RLC AM, HARQ, 2 % residual loss, chaos 0.2, watchdog, VoLTE GBR, {CELL_SECS} s\n\
         idle_soak  OutRAN, 2 UEs, 25 RBs, page loads ~5 min apart, {SOAK_SECS} s\n\
         metro      OutRAN, 7 sites x 3 sectors, 440 UEs, 32 slots, load 0.6, {METRO_SECS} s\n\n"
    );
    *out += &totals.render();
    *out += "\n";
    *out += &per_tti.render();
}
