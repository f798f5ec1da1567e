//! Table 2 — flow statistics of the QUIC-supported webpages.

use super::*;
use outran_simcore::Rng;
use outran_workload::WebPage;

pub(super) fn run(_threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Table 2: Flow statistics for QUIC-supported webpages",
        &[
            "Page",
            "Page Size (KB)",
            "QUIC bytes (KB)",
            "# Flows",
            "# QUIC Flows",
        ],
    );
    for p in WebPage::table2() {
        t.row(&[
            p.name.to_string(),
            (p.page_bytes / 1000).to_string(),
            format!("{:.1}", p.quic_bytes as f64 / 1000.0),
            p.n_flows.to_string(),
            p.n_quic_flows.to_string(),
        ]);
    }
    *out += &t.render();

    // §6.1: the largest aggregated QUIC connection stays "short" compared
    // to the 1.92 MB background average.
    let mut rng = Rng::new(1);
    let max_quic = WebPage::table2()
        .iter()
        .map(|p| {
            p.objects(&mut rng)
                .iter()
                .filter(|o| o.is_quic)
                .map(|o| o.bytes)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    *out += &format!(
        "\nLargest single QUIC connection: {:.0} KB (paper: 736 KB max, from\n\
         Instagram) — still short against the 1.92 MB websearch background.\n",
        max_quic as f64 / 1000.0
    );
}
