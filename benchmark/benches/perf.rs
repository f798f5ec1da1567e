//! `perf` — the repository's benchmark (contract in `/BENCHMARK.json`,
//! rationale in `benchmark/README.md`). It drives the simulator only
//! through public functions and times them from outside.
//!
//! ```console
//! benchmark/run.sh --workload busy_cell --seed 42 --seconds 20 --trace 0
//! benchmark/run.sh                      # every workload, untraced then traced
//! benchmark/run.sh --compare A.json B.json
//! ```
//!
//! Run from the repository root: `BENCHMARK.json` and `benchmark/out/`
//! are addressed relative to it.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod kernels;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::Json;
use outran_ran::stages::StageId;
use outran_simcore::fnv1a;
use workloads::{
    ckpt_dir, metro_cell_ttis, metro_setup_probe, run_cell_rep, run_metro, Counters, Drive,
    Outcome, Rep, Workload, METRO_THREADS,
};

const SPEC_PATH: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

/// Abort the run: a failed correctness check must exit non-zero without
/// printing a result.
pub fn fail(msg: &str) -> ! {
    eprintln!("perf: FAILED: {msg}");
    std::process::exit(1)
}

// ------------------------------------------------------------------ spec

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, the one place metric names, units, directions and
/// bounds are written down.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(key)
                .ok_or(format!("no \"{key}\""))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or(format!("{key}: no \"{k}\""))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no \"run_seconds\"")?,
            workloads: root
                .get("workloads")
                .ok_or("no \"workloads\"")?
                .as_arr()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let names = spec.workloads.iter().chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        );
        for n in names {
            if !valid_name(n) {
                return Err(format!(
                    "name {n:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
                ));
            }
        }
        Ok(spec)
    }

    fn load() -> Spec {
        let text = std::fs::read_to_string(SPEC_PATH)
            .unwrap_or_else(|e| fail(&format!("{SPEC_PATH}: {e} (run from the repository root)")));
        Spec::parse(&text).unwrap_or_else(|e| fail(&format!("{SPEC_PATH}: {e}")))
    }
}

/// Emitted names and `BENCHMARK.json` must list exactly each other.
pub fn names_mismatch<'a>(
    emitted: impl Iterator<Item = &'a str>,
    listed: impl Iterator<Item = &'a str>,
) -> Option<String> {
    let emitted: std::collections::BTreeSet<&str> = emitted.collect();
    let listed: std::collections::BTreeSet<&str> = listed.collect();
    if let Some(bad) = emitted.iter().find(|n| !valid_name(n)) {
        return Some(format!("emitted name {bad:?} is not a valid name"));
    }
    let extra: Vec<_> = emitted.difference(&listed).collect();
    let missing: Vec<_> = listed.difference(&emitted).collect();
    (!extra.is_empty() || !missing.is_empty()).then(|| {
        format!("emitted but not in {SPEC_PATH}: {extra:?}; listed but not emitted: {missing:?}")
    })
}

// ----------------------------------------------------------------- stats

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Run-to-run noise of a host-time metric: for each seed timed more
/// than once, `(max − min) / median` of its samples; the median seed is
/// reported. `None` when nothing was timed twice.
fn repeat_spread<'a>(groups: impl Iterator<Item = &'a Vec<f64>>) -> Option<f64> {
    let spreads: Vec<f64> = groups
        .filter(|g| g.len() > 1)
        .map(|g| {
            let (lo, hi) = min_max(g);
            (hi - lo) / median(g)
        })
        .collect();
    (!spreads.is_empty()).then(|| median(&spreads))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or_else(|| fail("cannot read VmHWM from /proc/self/status"));
    kib / 1024.0
}

// ---------------------------------------------------------------- checks

fn guard_outcome(w: Workload, o: &Outcome) {
    if o.violations > 0 {
        fail(&format!(
            "{}: {} invariant violation(s)",
            w.name(),
            o.violations
        ));
    }
}

fn guard_counters(w: Workload, c: &Counters) {
    let vacuous = match w {
        Workload::IdleSoak if c.skipped_ttis == 0 => "the soak skipped no TTIs",
        Workload::ChaosCell if c.harq_retx == 0 => "no HARQ retransmission was served",
        Workload::ChaosCell if c.fault_windows == 0 => "the fault plan is empty",
        _ => return,
    };
    fail(&format!("{}: vacuous workload: {vacuous}", w.name()));
}

/// Count and remove the checkpoints a chaos rep left behind.
fn tally_checkpoints(w: Workload, out_dir: &Path) -> (u64, u64) {
    if w != Workload::ChaosCell {
        return (0, 0);
    }
    let mut tally = (0, 0);
    for entry in std::fs::read_dir(ckpt_dir(out_dir))
        .into_iter()
        .flatten()
        .flatten()
    {
        if entry.path().extension().is_some_and(|e| e == "orsn") {
            tally.0 += 1;
            tally.1 += entry.metadata().map(|m| m.len()).unwrap_or(0);
            let _ = std::fs::remove_file(entry.path());
        }
    }
    if tally.0 == 0 {
        fail("chaos_cell: vacuous workload: no checkpoint was written");
    }
    tally
}

/// One digest for the run: FNV-1a over the reps' digests in rep order.
fn combined_digest(digests: &[(u64, u64)]) -> String {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.1.to_le_bytes()).collect();
    format!("{:016x}", fnv1a(&bytes))
}

// ------------------------------------------------------------------ runs

/// What one process measured.
struct RunOutput {
    values: Vec<(&'static str, f64)>,
    /// Run-to-run noise per metric, where the run could observe it.
    spreads: Vec<(&'static str, f64)>,
    attempted: u64,
    /// `(seed, digest)` of every first-pass rep, in rep order.
    digests: Vec<(u64, u64)>,
}

/// One rep through the calls a user makes, with its in-run checks.
fn public_rep(w: Workload, seed: u64, out_dir: &Path) -> Rep {
    let rep = if w == Workload::Metro {
        let setup_s = metro_setup_probe(seed, METRO_THREADS);
        let (wall_s, outcome, report) = run_metro(seed, METRO_THREADS);
        if report.handover.successes == 0 {
            fail("metro: vacuous workload: no handover succeeded");
        }
        Rep {
            seed,
            setup_s,
            wall_chunks_s: vec![wall_s],
            outcome,
        }
    } else {
        let (rep, extras) = run_cell_rep(w, seed, out_dir, Drive::Public);
        if let Some(x) = extras {
            guard_counters(w, &x.counters);
        }
        tally_checkpoints(w, out_dir);
        rep
    };
    guard_outcome(w, &rep.outcome);
    rep
}

/// Host times of every rep that ran one seed. Reps that share a seed
/// time the same thing and must produce the same simulated results.
struct SeedTimes {
    seed: u64,
    digest: u64,
    /// Per rep, the chunks its timed region was timed in.
    wall_chunks_s: Vec<Vec<f64>>,
    setup_s: Vec<f64>,
}

/// A seed's time at its least-disturbed: interference on a shared box
/// only ever adds time and comes in bursts, so each chunk is taken from
/// the rep that ran it fastest.
fn least_disturbed(reps: &[Vec<f64>]) -> f64 {
    (0..reps[0].len())
        .map(|chunk| reps.iter().map(|r| r[chunk]).fold(f64::MAX, f64::min))
        .sum()
}

/// The untraced run: whole passes over the workload's fixed reps until
/// `seconds` are used up (always at least one). Simulated metrics come
/// from the first pass; any later rep of a seed must reproduce that
/// seed's digest.
fn run_untraced(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunOutput {
    let started = Instant::now();
    let mut first: Vec<Rep> = Vec::new();
    let mut times: Vec<SeedTimes> = Vec::new();
    loop {
        let pass_started = Instant::now();
        for i in 0..w.reps() {
            let rep = public_rep(w, w.rep_seed(seed, i), out_dir);
            let f = &rep.outcome.fct;
            println!(
                "# rep {i} seed {} setup_s {:.6} wall_s {:.6} fct_ms short {:.3} p95 {:.3} long {:.3} overall {:.3} flows {}/{}",
                rep.seed, rep.setup_s, rep.wall_s(), f.short_mean_ms, f.short_p95_ms, f.long_mean_ms,
                f.overall_mean_ms, rep.outcome.completed, rep.outcome.offered
            );
            let slot = match times.iter().position(|t| t.seed == rep.seed) {
                Some(slot) => slot,
                None => {
                    times.push(SeedTimes {
                        seed: rep.seed,
                        digest: rep.outcome.digest,
                        wall_chunks_s: Vec::new(),
                        setup_s: Vec::new(),
                    });
                    times.len() - 1
                }
            };
            if times[slot].digest != rep.outcome.digest {
                fail(&format!(
                    "{}: two reps of seed {} gave different digests",
                    w.name(),
                    rep.seed
                ));
            }
            times[slot].wall_chunks_s.push(rep.wall_chunks_s.clone());
            times[slot].setup_s.push(rep.setup_s);
            if first.len() < w.reps() {
                first.push(rep);
            }
        }
        let pass_s = pass_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + pass_s / 2.0 >= seconds {
            break;
        }
    }

    // Whole-rep times per seed, for the printed range and the spread.
    let rep_wall: Vec<Vec<f64>> = times
        .iter()
        .map(|t| {
            t.wall_chunks_s
                .iter()
                .map(|c| c.iter().sum::<f64>() / w.sim_s())
                .collect()
        })
        .collect();
    let all_wall = rep_wall.concat();
    let (lo, hi) = min_max(&all_wall);
    println!(
        "# {}: {} reps timed over {} seed(s); wall_s_per_sim_s min {lo:.6} median {:.6} max {hi:.6}",
        w.name(),
        all_wall.len(),
        times.len(),
        median(&all_wall)
    );
    let fct =
        |f: fn(&outran_metrics::FctReport) -> f64| mean(first.iter().map(|r| f(&r.outcome.fct)));
    let completed: u64 = first.iter().map(|r| r.outcome.completed).sum();
    let offered: u64 = first.iter().map(|r| r.outcome.offered).sum();
    println!(
        "# {}: FCT sample {} flows over {} rep(s); {completed} of {offered} offered flows complete at end of drain",
        w.name(),
        first.iter().map(|r| r.outcome.fct.count).sum::<usize>(),
        first.len()
    );
    let per_seed = |f: fn(&SeedTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let mut spreads = Vec::new();
    if let Some(s) = repeat_spread(rep_wall.iter()) {
        spreads.push(("wall_s_per_sim_s", s));
    }
    if let Some(s) = repeat_spread(times.iter().map(|t| &t.setup_s)) {
        spreads.push(("setup_s", s));
    }
    RunOutput {
        values: vec![
            ("setup_s", median(&per_seed(|t| min_max(&t.setup_s).0))),
            (
                "wall_s_per_sim_s",
                median(&per_seed(|t| least_disturbed(&t.wall_chunks_s))) / w.sim_s(),
            ),
            ("peak_rss_mb", peak_rss_mb()),
            ("fct_short_mean_ms", fct(|f| f.short_mean_ms)),
            ("fct_short_p95_ms", fct(|f| f.short_p95_ms)),
            ("fct_long_mean_ms", fct(|f| f.long_mean_ms)),
            ("fct_overall_mean_ms", fct(|f| f.overall_mean_ms)),
            ("flows_completed_frac", completed as f64 / offered as f64),
        ],
        spreads,
        attempted: offered,
        digests: first.iter().map(|r| (r.seed, r.outcome.digest)).collect(),
    }
}

/// Per-layer metrics that only a single observed cell can report.
const CELL_LAYER: [&str; 25] = [
    "ran.ingress_self_s",
    "ran.rlc_down_self_s",
    "ran.mac_sched_self_s",
    "ran.phy_tx_self_s",
    "ran.delivery_self_s",
    "ran.housekeeping_self_s",
    "ran.unattributed_s",
    "ran.active_ttis",
    "ran.skipped_ttis",
    "ran.active_tti_us",
    "ran.trace_overhead_frac",
    "phy.used_rb_frac",
    "phy.harq_retx",
    "phy.harq_wasted_tbs",
    "phy.residual_losses",
    "rlc.buffer_drops",
    "rlc.reassembly_discards",
    "simcore.pool_hits",
    "simcore.pool_misses",
    "core.priority_resets",
    "faults.injected",
    "faults.watchdog_kicks",
    "pdcp.flow_table_entries",
    "ran.checkpoint_writes",
    "ran.checkpoint_bytes",
];

/// Per-layer metrics that only the coupled network can report.
const METRO_LAYER: [&str; 8] = [
    "ran.network_wall_1thread_s",
    "ran.network_parallel_eff",
    "ran.network_cell_ttis_per_s",
    "ran.handover_attempts",
    "ran.handover_successes",
    "ran.handover_blocked",
    "ran.flows_transferred",
    "ran.cell_completed_imbalance",
];

/// The traced pass of a cell workload: every rep once without and once
/// with the span observer, through the same manual walk, so the two
/// walls differ by the tracing alone. Counts are summed over the reps.
fn run_traced_cell(w: Workload, seed: u64, out_dir: &Path) -> RunOutput {
    let run_started = Instant::now();
    let mut reps = Vec::new();
    let mut traces = Vec::new();
    let (mut plain_wall_s, mut traced_wall_s) = (0.0, 0.0);
    let mut counters: Vec<Counters> = Vec::new();
    let mut ckpt = (0, 0);
    for i in 0..w.reps() {
        let rep_seed = w.rep_seed(seed, i);
        let (plain, _) = run_cell_rep(w, rep_seed, out_dir, Drive::Manual(None));
        tally_checkpoints(w, out_dir);
        let sink = Arc::new(Mutex::new(None));
        let rep_started_s = run_started.elapsed().as_secs_f64();
        let (traced, extras) = run_cell_rep(w, rep_seed, out_dir, Drive::Manual(Some(sink)));
        if plain.outcome.digest != traced.outcome.digest {
            fail(&format!(
                "{}: the observer perturbed the simulation (seed {rep_seed})",
                w.name()
            ));
        }
        guard_outcome(w, &traced.outcome);
        let extras = extras.expect("a manual rep keeps its cell");
        guard_counters(w, &extras.counters);
        counters.push(extras.counters);
        let t = tally_checkpoints(w, out_dir);
        ckpt = (ckpt.0 + t.0, ckpt.1 + t.1);
        plain_wall_s += plain.wall_s();
        traced_wall_s += traced.wall_s();
        // The rep span is the timed region, which follows construction.
        let start_ns = ((rep_started_s + traced.setup_s) * 1e9) as u64;
        let end_ns = start_ns + (traced.wall_s() * 1e9) as u64;
        let trace = extras
            .trace
            .unwrap_or_else(|| fail("the span observer returned no trace"));
        traces.push((start_ns, end_ns, trace));
        reps.push(traced);
    }

    let mut self_s = [0.0; trace::N_STAGES];
    let (mut active, mut used, mut total) = (0u64, 0u64, 0u64);
    for (_, _, t) in &traces {
        for (acc, s) in self_s.iter_mut().zip(t.self_s()) {
            *acc += s;
        }
        active += t.active_ttis;
        used += t.used_rbs;
        total += t.total_rbs;
    }
    let attributed: f64 = self_s.iter().sum();
    let unattributed = traced_wall_s - attributed;
    // The ledger: stage self times plus the unattributed remainder are
    // the traced wall by construction, so the check that can fail is
    // that the stages do not claim more than the wall they ran inside.
    if unattributed < -0.01 * traced_wall_s {
        fail(&format!(
            "{}: stage self times ({attributed:.3} s) exceed the traced wall ({traced_wall_s:.3} s)",
            w.name()
        ));
    }
    let largest = StageId::ALL
        .iter()
        .zip(self_s)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(id, s)| format!("{} {:.1} %", id.name(), 100.0 * s / traced_wall_s))
        .unwrap_or_default();
    println!(
        "# {}: traced wall {traced_wall_s:.3} s = stages {attributed:.3} s + unattributed {unattributed:.3} s; largest stage {largest}",
        w.name()
    );

    let path = out_dir.join(format!("trace-{}.json", w.name()));
    let spans = trace::spans_json(w.name(), run_started.elapsed().as_nanos() as u64, &traces);
    std::fs::write(&path, spans.to_line() + "\n")
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));

    let sum = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let mut values = vec![
        ("ran.unattributed_s", unattributed),
        ("ran.active_ttis", active as f64),
        ("ran.skipped_ttis", sum(|c| c.skipped_ttis)),
        ("ran.active_tti_us", attributed * 1e6 / active as f64),
        (
            "ran.trace_overhead_frac",
            traced_wall_s / plain_wall_s - 1.0,
        ),
        ("phy.used_rb_frac", used as f64 / total as f64),
        ("phy.harq_retx", sum(|c| c.harq_retx)),
        ("phy.harq_wasted_tbs", sum(|c| c.harq_wasted_tbs)),
        ("phy.residual_losses", sum(|c| c.residual_losses)),
        ("rlc.buffer_drops", sum(|c| c.buffer_drops)),
        ("rlc.reassembly_discards", sum(|c| c.reassembly_discards)),
        ("simcore.pool_hits", sum(|c| c.pool_hits)),
        ("simcore.pool_misses", sum(|c| c.pool_misses)),
        ("core.priority_resets", sum(|c| c.priority_resets)),
        ("faults.injected", sum(|c| c.fault_windows)),
        ("faults.watchdog_kicks", sum(|c| c.watchdog_kicks)),
        ("pdcp.flow_table_entries", sum(|c| c.flow_table_entries)),
        ("ran.checkpoint_writes", ckpt.0 as f64),
        ("ran.checkpoint_bytes", ckpt.1 as f64),
        ("ran.flows_scheduled", sum(|c| c.flows_scheduled)),
    ];
    values.extend(CELL_LAYER[..trace::N_STAGES].iter().copied().zip(self_s));
    values.extend(METRO_LAYER.iter().map(|&n| (n, 0.0)));
    RunOutput {
        values,
        spreads: Vec::new(),
        attempted: reps.iter().map(|r| r.outcome.offered).sum(),
        digests: reps.iter().map(|r| (r.seed, r.outcome.digest)).collect(),
    }
}

/// The metro has no observer hook reachable from outside, so its layer
/// numbers come from running the same network on one thread and two.
fn run_traced_metro(seed: u64) -> RunOutput {
    let setup_s = metro_setup_probe(seed, METRO_THREADS);
    let (wall2, outcome2, report) = run_metro(seed, METRO_THREADS);
    let (wall1, outcome1, _) = run_metro(seed, 1);
    if outcome1.digest != outcome2.digest {
        fail("metro: threads = 1 and threads = 2 gave different digests");
    }
    guard_outcome(Workload::Metro, &outcome2);
    let h = report.handover;
    if h.successes == 0 {
        fail("metro: vacuous workload: no handover succeeded");
    }
    let per_cell = &report.per_cell_completed;
    let busiest = per_cell.iter().copied().max().unwrap_or(0) as f64;
    let mut values = vec![
        ("ran.network_wall_1thread_s", wall1),
        (
            "ran.network_parallel_eff",
            wall1 / (METRO_THREADS as f64 * wall2),
        ),
        (
            "ran.network_cell_ttis_per_s",
            metro_cell_ttis() / (wall2 - setup_s),
        ),
        ("ran.handover_attempts", h.attempts as f64),
        ("ran.handover_successes", h.successes as f64),
        ("ran.handover_blocked", h.blocked as f64),
        ("ran.flows_transferred", h.flows_transferred as f64),
        (
            "ran.cell_completed_imbalance",
            busiest / mean(per_cell.iter().map(|&c| c as f64)),
        ),
    ];
    values.push(("ran.flows_scheduled", outcome2.offered as f64));
    values.extend(CELL_LAYER.iter().map(|&n| (n, 0.0)));
    RunOutput {
        values,
        spreads: Vec::new(),
        attempted: outcome2.offered,
        digests: vec![(seed, outcome2.digest)],
    }
}

/// Print every metric as `name unit value`, a `detail` line carrying
/// what the contract's result object has no key for, and the result
/// object itself as the last line.
fn emit(listed: &[MetricSpec], w: Workload, seed: u64, out: RunOutput) {
    if let Some(err) = names_mismatch(
        out.values.iter().map(|v| v.0),
        listed.iter().map(|m| m.name.as_str()),
    ) {
        fail(&err);
    }
    let mut metrics = Vec::new();
    for m in listed {
        let value = out
            .values
            .iter()
            .find(|v| v.0 == m.name)
            .map(|v| v.1)
            .unwrap_or(f64::NAN);
        if !value.is_finite() {
            fail(&format!(
                "{}: metric {} is not a finite number",
                w.name(),
                m.name
            ));
        }
        println!("{} {} {}", m.name, m.unit, value);
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    let spreads = out
        .spreads
        .iter()
        .map(|&(n, s)| (n.to_string(), Json::Num(s)))
        .collect();
    let detail = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "sim_digest".into(),
            Json::Str(combined_digest(&out.digests)),
        ),
        (
            "rep_digests".into(),
            Json::Arr(
                out.digests
                    .iter()
                    .map(|&(seed, d)| {
                        Json::Arr(vec![Json::Num(seed as f64), Json::Str(format!("{d:016x}"))])
                    })
                    .collect(),
            ),
        ),
        ("spread".into(), Json::Obj(spreads)),
    ]);
    println!("detail {}", detail.to_line());
    // A flow the simulator lost or corrupted trips an invariant and
    // aborts the run above; flows merely unfinished when the drain ends
    // are censored, not failed, and show in `flows_completed_frac`.
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(0.0)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_line());
}

fn run_one(spec: &Spec, w: Workload, seed: u64, seconds: f64, traced: bool) {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(ckpt_dir(&out_dir))
        .unwrap_or_else(|e| fail(&format!("{OUT_DIR}: {e}")));
    if !traced {
        emit(
            &spec.end_to_end,
            w,
            seed,
            run_untraced(w, seed, seconds, &out_dir),
        );
        return;
    }
    let mut out = match w {
        Workload::Metro => run_traced_metro(seed),
        _ => run_traced_cell(w, seed, &out_dir),
    };
    out.values.extend(kernels::run_all());
    emit(&spec.per_layer, w, seed, out);
}

// ------------------------------------------------------------- full pass

/// Run one workload in a child process; returns its result object and
/// its `detail` object.
fn run_child(w: Workload, seed: u64, seconds: f64, traced: bool) -> (Json, Json) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let trace = if traced { "1" } else { "0" };
    eprintln!("perf: {} --trace {trace}", w.name());
    let child = std::process::Command::new(&exe)
        .args(["--workload", w.name(), "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn {}: {e}", exe.display())));
    let stdout = String::from_utf8_lossy(&child.stdout);
    print!("{stdout}");
    if !child.status.success() {
        fail(&format!(
            "{} --trace {trace} exited with {}",
            w.name(),
            child.status
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|l| Json::parse(l).ok());
    match (result, detail) {
        (Some(result), Some(detail)) => (result, detail),
        _ => fail(&format!("{}: unreadable child output", w.name())),
    }
}

/// Every workload in a process of its own (so `peak_rss_mb` is per
/// workload), untraced then traced, gathered into `out/result.json`.
fn full_pass(seed: u64, seconds: f64) {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let (result, detail) = run_child(w, seed, seconds, false);
        let (traced_result, traced_detail) = run_child(w, seed, seconds, true);
        // The traced pass re-runs seeds the untraced run already ran.
        let rep_digests = |d: &Json| {
            d.get("rep_digests")
                .map(|r| r.as_arr().to_vec())
                .unwrap_or_default()
        };
        let untraced_digests = rep_digests(&detail);
        for d in rep_digests(&traced_detail) {
            if !untraced_digests.contains(&d) {
                fail(&format!(
                    "{}: the traced run's (seed, digest) {} is not among the untraced run's",
                    w.name(),
                    d.to_line()
                ));
            }
        }
        // Fold the run-to-run spreads in beside the values they belong to.
        let mut end_to_end = result.get("metrics").cloned().unwrap_or(Json::Null);
        if let (Json::Obj(ms), Some(spread)) = (&mut end_to_end, detail.get("spread")) {
            for (name, s) in spread.as_obj() {
                if let Some((_, Json::Obj(m))) = ms.iter_mut().find(|(n, _)| n == name) {
                    m.push(("spread".into(), s.clone()));
                }
            }
        }
        let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        workloads.push((
            w.name().to_string(),
            Json::Obj(vec![
                ("sim_digest".into(), field(&detail, "sim_digest")),
                ("attempted".into(), field(&result, "attempted")),
                ("failed".into(), field(&result, "failed")),
                ("end_to_end".into(), end_to_end),
                ("per_layer".into(), field(&traced_result, "metrics")),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    std::fs::write(&path, result.to_line() + "\n")
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    eprintln!("perf: wrote {}", path.display());
}

// ------------------------------------------------------------------ main

fn usage() -> ! {
    eprintln!(
        "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       \
         benchmark/run.sh --compare A.json B.json\n\
         workloads: busy_cell chaos_cell idle_soak metro (all of them when none is named)"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    if let Some(err) = names_mismatch(
        Workload::ALL.iter().map(|w| w.name()),
        spec.workloads.iter().map(String::as_str),
    ) {
        fail(&err);
    }
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        std::process::exit(compare::run(&spec, Path::new(a), Path::new(b)));
    }

    let (mut workload, mut seed, mut seconds, mut traced) = (None, 42u64, spec.run_seconds, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, traced) {
        (Some(w), traced) => run_one(&spec, w, seed, seconds, traced.unwrap_or(false)),
        (None, None) => full_pass(seed, seconds),
        (None, Some(_)) => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let spec = committed_spec();
        let listed = |ms: &[MetricSpec]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            names_mismatch(
                Workload::ALL.iter().map(|w| w.name()),
                spec.workloads.iter().map(String::as_str)
            ),
            None
        );
        let e2e = [
            "setup_s",
            "wall_s_per_sim_s",
            "peak_rss_mb",
            "fct_short_mean_ms",
            "fct_short_p95_ms",
            "fct_long_mean_ms",
            "fct_overall_mean_ms",
            "flows_completed_frac",
        ];
        let e2e_listed = listed(&spec.end_to_end);
        assert_eq!(
            names_mismatch(e2e.iter().copied(), e2e_listed.iter().map(String::as_str)),
            None
        );
        // Every other per-layer name must be `ran.flows_scheduled` or a
        // kernel arm; the run itself checks the arms' names.
        let layer_listed = listed(&spec.per_layer);
        for n in CELL_LAYER.iter().chain(&METRO_LAYER) {
            assert!(
                layer_listed.iter().any(|l| l == n),
                "{n} not in BENCHMARK.json"
            );
        }
        let (flows_scheduled, kernel_arms) = (1, 25);
        assert_eq!(
            layer_listed.len(),
            CELL_LAYER.len() + METRO_LAYER.len() + flows_scheduled + kernel_arms
        );
    }

    #[test]
    fn names_are_checked_both_ways() {
        assert!(valid_name("ran.phy_tx_self_s") && valid_name("5qi-9"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        let err = names_mismatch(["a", "b"].into_iter(), ["b", "c"].into_iter()).unwrap();
        assert!(err.contains("[\"a\"]") && err.contains("[\"c\"]"), "{err}");
        assert!(names_mismatch(["a b"].into_iter(), ["a b"].into_iter()).is_some());
    }

    #[test]
    fn spread_needs_something_timed_twice() {
        assert_eq!(repeat_spread([vec![1.0], vec![2.0]].iter()), None);
        let s = repeat_spread([vec![1.0, 1.1], vec![2.0, 2.0, 2.0]].iter()).unwrap();
        assert!((s - 0.1 / 1.05 / 2.0).abs() < 1e-12, "{s}");
    }
}
