//! Figure 17 — [NS-3 5G] impact of OutRAN in 5G RAN: numerology 0–3 ×
//! server location {remote 20 ms, MEC 5 ms} × cell load {10 %, 60 %},
//! reporting ① RTT, ② average queueing delay, ③ short-flow queueing
//! delay, ④ short-flow 95th-percentile FCT, for PF vs OutRAN.

use super::*;

pub(super) fn run(threads: usize, out: &mut String) {
    // Two seeds keep the 32-cell sweep affordable; each point is a
    // 40-UE NR cell.
    let seeds = [11u64, 23];
    let mut points = Vec::new();
    for (server, prop_ms) in [("Remote", 20u64), ("MEC", 5)] {
        for load in [0.1, 0.6] {
            for mu in 0u8..=3 {
                for kind in [SchedulerKind::Pf, SchedulerKind::OutRan] {
                    points.push((server, prop_ms, load, mu, kind));
                }
            }
        }
    }
    let results = run_grid(
        threads,
        points,
        &seeds,
        |&(_, prop_ms, load, mu, kind), seed| {
            Experiment::nr_default(mu)
                .load(load)
                .duration_secs(8)
                .cn_delay(Dur::from_millis(prop_ms))
                .scheduler(kind)
                .seed(seed)
                .run()
        },
    );
    let mean = ExperimentReport::mean;
    // One table per (server, load): 4 numerologies x 2 schedulers.
    for block in results.chunks(8) {
        let (server, prop_ms, load, ..) = block[0].0;
        let mut t = Table::new(
            &format!(
                "Fig 17 [{server} server, prop {prop_ms} ms, load {:.0}%]",
                load * 100.0
            ),
            &[
                "numerology/slot(us)",
                "sched",
                "RTT(ms)",
                "avgQ(ms)",
                "S Q(ms)",
                "S p95 FCT(ms)",
            ],
        );
        for ((_, _, _, mu, kind), runs) in block {
            t.row(&[
                format!("{} / {}", mu, 1000 >> mu),
                kind.name().to_string(),
                f1(mean(runs, |r| r.mean_rtt_ms)),
                f1(mean(runs, |r| r.mean_qdelay_ms)),
                f1(mean(runs, |r| r.short_qdelay_ms)),
                f1(mean(runs, |r| r.fct.short_p95_ms)),
            ]);
        }
        *out += &t.render();
        out.push('\n');
    }
    *out += "expected shapes (paper): at load 10% RTT falls with MEC + higher\n\
         numerology; at load 60% queue build-up at the gNodeB inflates short\n\
         queueing delay and tail FCT for PF even with the best RAN settings,\n\
         while OutRAN keeps the short-flow queue delay near the slot length.\n";
}
