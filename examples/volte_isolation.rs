//! Demonstrate the QoS split of Table 1: a VoLTE call rides a dedicated
//! GBR bearer (semi-persistent grants) and keeps ~one-frame latency no
//! matter how congested the best-effort bearers get — while the
//! best-effort short flows live or die by the scheduler, which is
//! exactly the gap OutRAN fills.
//!
//! Usage: cargo run --release --example volte_isolation

use outran::metrics::FctCollector;
use outran::ran::cell::{Cell, CellConfig, GbrBearer, SchedulerKind};
use outran::simcore::{Rng, Time};
use outran::workload::{FlowSizeDist, PoissonFlowGen};

fn main() {
    println!("VoLTE on a dedicated GBR bearer vs best-effort shorts, load 0.8\n");
    println!(
        "{:<8} {:>14} {:>14} {:>16} {:>16}",
        "sched", "VoLTE avg(ms)", "VoLTE p99(ms)", "BE S avg(ms)", "BE S p95(ms)"
    );
    for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
        let cfg = CellConfig::lte_default(12, kind, 7);
        let mut cell = Cell::new(cfg);
        cell.add_gbr_bearer(GbrBearer::volte(0));
        let mut gen = PoissonFlowGen::new(FlowSizeDist::LteCellular, 0.8, 87e6, 12, Rng::new(0x70));
        for a in gen.take_until(Time::from_secs(15)) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell.run_until(Time::from_secs(18));
        let mut fct = FctCollector::new();
        for d in cell.take_completions() {
            fct.record(d.bytes, d.fct);
        }
        let report = fct.report();
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>16.1} {:>16.1}",
            kind.name(),
            cell.gbr_latency.mean(),
            cell.gbr_latency.percentile(99.0),
            report.short_mean_ms,
            report.short_p95_ms,
        );
    }
    println!(
        "\nThe GBR bearer is isolated by provisioning (same under both\n\
         schedulers); the best-effort Interactive class only improves with\n\
         OutRAN — QoS provisioning alone does not help it (paper §1/§3)."
    );
}
