//! Figures 12/21/22 — web page load times over the testbed model:
//! Alexa-top-20 pages loaded by a UE while background websearch traffic
//! (avg 1.92 MB flows) keeps the cell at ~60 % load, vanilla srsRAN (PF)
//! vs OutRAN. QUIC is enabled: QUIC pages multiplex objects over one
//! five-tuple, exercising the §4.2 limitation.

use super::*;
use outran_phy::Scenario;
use outran_ran::cell::{Cell, CellConfig};
use outran_ran::webplt::load_page;
use outran_simcore::{Rng, Time};
use outran_workload::{BrowserModel, FlowSizeDist, PoissonFlowGen, WebPage};

const RUNS_PER_PAGE: usize = 16;

/// Mean PLT and mean sub-flow FCT for one page under one scheduler.
fn page_plt(page: &WebPage, kind: SchedulerKind, seed: u64) -> (f64, f64) {
    let mut cfg = CellConfig::lte_default(4, kind, seed);
    // Pages live on their original (internet) servers — §6.1.
    cfg.cn_delay = Dur::from_millis(25);
    cfg.channel = Scenario::Testbed.channel_config();
    let mut cell = Cell::new(cfg);
    // Background websearch on every UE — §6.1: "Each UE requests
    // background flows (i.e., bulky file transfer)". The browsing UE's
    // page sub-flows therefore contend with elephants both across UEs
    // and inside its own RLC buffer.
    // The paper sets "average cell load … to 60 %" of the cell's
    // *achieved* capacity under its CQI trace; our load knob is relative
    // to the nominal 97 Mbps peak, so an equivalent contention level
    // needs a higher nominal setting (the trace-driven testbed channel
    // sustains well below peak).
    let capacity = 87e6;
    let mut bg = PoissonFlowGen::new(
        FlowSizeDist::Websearch,
        0.9,
        capacity,
        4,
        Rng::new(seed ^ 0xB0),
    );
    for a in bg.take_until(Time::from_secs(240)) {
        cell.schedule_flow(a.at, a.ue, a.bytes, None);
    }
    cell.run_until(Time::from_secs(1)); // warm the cell up
    let mut rng = Rng::new(seed ^ 0x9A);
    let mut plts = Vec::new();
    let mut fcts = Vec::new();
    for run in 0..RUNS_PER_PAGE {
        let r = load_page(
            &mut cell,
            page,
            0,
            BrowserModel::default(),
            &mut rng,
            (run as u64 + 1) * 1000,
        );
        plts.push(r.plt.as_millis_f64());
        fcts.extend(r.object_fcts.iter().map(|d| d.as_millis_f64()));
        // Think time between page loads (paper: every 15 s; shortened —
        // the background process keeps the contention level equivalent).
        let resume = Time(cell.now().0 + Dur::from_millis(500).as_nanos());
        cell.run_until(resume);
    }
    (
        plts.iter().sum::<f64>() / plts.len() as f64,
        fcts.iter().sum::<f64>() / fcts.len().max(1) as f64,
    )
}

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Fig 12/21: page load time, srsRAN (PF) vs OutRAN",
        &[
            "page",
            "PLT PF(ms)",
            "PLT OutRAN(ms)",
            "dPLT(%)",
            "FCT PF(ms)",
            "FCT OutRAN(ms)",
            "dFCT(%)",
        ],
    );
    let mut plt_gains = Vec::new();
    let mut fct_gains = Vec::new();
    // Each (page, scheduler) run is its own seeded cell.
    let pages = WebPage::top20();
    let jobs = (0..pages.len())
        .flat_map(|p| [(p, SchedulerKind::Pf), (p, SchedulerKind::OutRan)])
        .collect();
    let runs = parallel_map(threads, jobs, |(p, kind)| page_plt(&pages[p], kind, 7));
    for (page, pair) in pages.iter().zip(runs.chunks(2)) {
        let ((pf_plt, pf_fct), (or_plt, or_fct)) = (pair[0], pair[1]);
        let dplt = 100.0 * (pf_plt - or_plt) / pf_plt;
        let dfct = 100.0 * (pf_fct - or_fct) / pf_fct;
        plt_gains.push(dplt);
        fct_gains.push(dfct);
        t.row(&[
            page.name.to_string(),
            f1(pf_plt),
            f1(or_plt),
            f1(dplt),
            f1(pf_fct),
            f1(or_fct),
            f1(dfct),
        ]);
    }
    *out += &t.render();
    let avg_plt = plt_gains.iter().sum::<f64>() / plt_gains.len() as f64;
    let max_plt = plt_gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let avg_fct = fct_gains.iter().sum::<f64>() / fct_gains.len() as f64;
    *out += &format!(
        "\nmean PLT improvement: {avg_plt:.1} % (paper: 14 %), max {max_plt:.1} % (paper: 34 %)\n\
         mean sub-flow FCT improvement: {avg_fct:.1} % (paper: 20 %)\n"
    );
    *out += "render-dominated pages (zoom.us) are expected to show ~0 % PLT gain.\n";
}
