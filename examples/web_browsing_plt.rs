//! Load a web page over a contended LTE cell and compare the page load
//! time under the vanilla PF scheduler vs OutRAN.
//!
//! Usage:
//!   cargo run --release --example web_browsing_plt [-- <page> [runs]]
//!
//! `page` is an Alexa-top-20 name (default "google.com"); `runs` is the
//! number of page loads to average (default 5).

use outran::phy::Scenario;
use outran::ran::cell::{Cell, CellConfig, SchedulerKind};
use outran::ran::webplt::load_page;
use outran::simcore::{Dur, Rng, Time};
use outran::workload::{BrowserModel, FlowSizeDist, PoissonFlowGen, WebPage};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let page_name = args.get(1).map(|s| s.as_str()).unwrap_or("google.com");
    let runs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    let Some(page) = WebPage::top20().into_iter().find(|p| p.name == page_name) else {
        eprintln!("unknown page '{page_name}'. Known pages:");
        for p in WebPage::top20() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    };
    println!(
        "Loading {} ({} KB, {} sub-flows, {} over QUIC) {runs}x per scheduler\n",
        page.name,
        page.page_bytes / 1000,
        page.n_flows,
        page.n_quic_flows
    );

    for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
        let mut cfg = CellConfig::lte_default(4, kind, 42);
        cfg.channel = Scenario::Testbed.channel_config();
        let mut cell = Cell::new(cfg);
        // Background bulk transfers on every UE keep the cell busy
        // (websearch, §6.1) — including the browsing UE itself.
        let mut bg = PoissonFlowGen::new(FlowSizeDist::Websearch, 0.6, 87e6, 4, Rng::new(0xB6));
        for a in bg.take_until(Time::from_secs(120)) {
            cell.schedule_flow(a.at, a.ue, a.bytes, None);
        }
        cell.run_until(Time::from_secs(1));
        let mut rng = Rng::new(0x9A);
        let mut plts = Vec::new();
        for run in 0..runs {
            let r = load_page(
                &mut cell,
                &page,
                0,
                BrowserModel::default(),
                &mut rng,
                (run as u64 + 1) * 1000,
            );
            plts.push(r.plt.as_millis_f64());
            let resume = Time(cell.now().0 + Dur::from_millis(500).as_nanos());
            cell.run_until(resume);
        }
        let mean = plts.iter().sum::<f64>() / plts.len() as f64;
        println!(
            "{:<8} PLT: mean {:>7.0} ms   per-run: {:?}",
            kind.name(),
            mean,
            plts.iter().map(|p| p.round() as u64).collect::<Vec<_>>()
        );
    }
    println!("\n(render time is part of the PLT; render-heavy pages like zoom.us\n show little scheduler effect — §6.1)");
}
