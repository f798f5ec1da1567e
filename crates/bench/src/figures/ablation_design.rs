//! Ablation of OutRAN's §4.4 integration choices (beyond the paper's
//! own figures, but for design decisions the paper calls out):
//!
//! 1. **Segmented-SDU promotion** — without it, a partially-sent SDU can
//!    be trapped behind fresh high-priority arrivals and miss the
//!    receiver's reassembly window (§4.4 predicts discards that hurt
//!    FCT).
//! 2. **Buffer overflow policy** — priority push-out (evict the worst
//!    queued SDU) vs legacy drop-tail (drop the incoming one): drop-tail
//!    lets elephants squeeze out freshly arriving short flows.
//! 3. **MLFQ thresholds** — the PIAS-style optimizer vs a naive
//!    log-split, validating the §4.2 parameter-choice machinery.

use super::*;
use outran_core::OutRanConfig;

type CfgMod = fn(&mut OutRanConfig);

pub(super) fn run(threads: usize, out: &mut String) {
    let mut t = Table::new(
        "OutRAN design ablations (LTE, 40 UEs, load 0.7)",
        &[
            "variant",
            "S avg(ms)",
            "S p95(ms)",
            "M avg(ms)",
            "L avg(ms)",
            "overall(ms)",
        ],
    );
    let cases: Vec<(&str, CfgMod)> = vec![
        ("full OutRAN", |_| {}),
        ("no segment promotion", |c| c.promote_segments = false),
        ("drop-tail buffers", |c| c.pushout = false),
        ("naive log-split thresholds", |c| {
            c.thresholds = vec![1_000, 31_623, 1_000_000]
        }),
        ("K=2 queues", |c| c.thresholds = vec![75_000]),
        ("tight 6ms reassembly window", |c| {
            c.reassembly_window = Dur::from_millis(6)
        }),
        ("tight window, no promotion", |c| {
            c.reassembly_window = Dur::from_millis(6);
            c.promote_segments = false;
        }),
        ("K=8 queues", |c| {
            c.thresholds = vec![
                4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000,
            ]
        }),
    ];
    let results = run_grid(threads, cases, &SEEDS, |(_, modify), seed| {
        let mut oc = OutRanConfig::default();
        modify(&mut oc);
        lte40(0.7, SchedulerKind::OutRan, seed).outran(oc).run()
    });
    let mean = ExperimentReport::mean;
    for ((label, _), runs) in results {
        t.row(&[
            label.to_string(),
            f1(mean(&runs, |r| r.fct.short_mean_ms)),
            f1(mean(&runs, |r| r.fct.short_p95_ms)),
            f1(mean(&runs, |r| r.fct.medium_mean_ms)),
            f1(mean(&runs, |r| r.fct.long_mean_ms)),
            f1(mean(&runs, |r| r.fct.overall_mean_ms)),
        ]);
    }
    *out += &t.render();
    *out += "\nexpected: at the default 50 ms reassembly window the promotion and\n\
         drop-policy effects are within noise (queues drain fast in this\n\
         simulator); with a tight window, disabling the §4.4 promotion\n\
         causes reassembly discards that inflate medium/long FCT. K beyond\n\
         4 changes little (§4.2 'for K > 4 … stays steady').\n";
}
