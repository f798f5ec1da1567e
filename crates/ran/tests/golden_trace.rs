//! Golden-trace lockstep harness for the staged per-TTI pipeline.
//!
//! A [`StageObserver`] digests every active TTI's scheduling outcome
//! (per-TTI granted RBs + cumulative delivered bytes + completions)
//! into one FNV-1a fingerprint per scenario. The fixture
//! `tests/fixtures/golden_trace.txt` was recorded against the
//! pre-refactor monolithic `Cell` (PR 5); the staged pipeline must
//! reproduce every fingerprint bit-for-bit, for all four paper
//! schedulers, UM and AM, with and without a chaos fault plan.
//!
//! Re-record (only when a deliberate behavior change is made) with:
//! `OUTRAN_RECORD_GOLDEN=1 cargo test -p outran-ran --test golden_trace -- --ignored`

use std::path::Path;
use std::sync::{Arc, Mutex};

use outran_faults::FaultPlan;
use outran_ran::cell::{Cell, CellConfig, RlcMode, SchedulerKind};
use outran_ran::stages::{StageObserver, TtiSummary};
use outran_simcore::{Dur, Time};

/// FNV-1a 64-bit fold.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Observer that digests each active TTI's summary.
struct TraceDigest {
    acc: Arc<Mutex<Fnv>>,
}

impl StageObserver for TraceDigest {
    fn on_tti(&mut self, now: Time, s: &TtiSummary) {
        let mut acc = self.acc.lock().unwrap();
        acc.u64(now.0);
        acc.u64(s.used_rbs as u64);
        acc.u64(s.total_rbs as u64);
        acc.u64(s.delivered_bytes);
        acc.u64(s.completed_flows);
    }
}

const SECS: u64 = 6;
const SEED: u64 = 0xD1CE;

fn scenario_cfg(kind: SchedulerKind, mode: RlcMode, chaos: bool) -> CellConfig {
    let mut cfg = CellConfig::lte_default(4, kind, SEED);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    cfg.rlc_mode = mode;
    if chaos {
        cfg.faults = FaultPlan::chaos(SEED, Dur::from_secs(SECS), 4, 0.6);
        cfg.watchdog = Some(Dur::from_millis(750));
    }
    cfg
}

fn populate(cell: &mut Cell) {
    for i in 0..10u64 {
        let size = match i % 3 {
            0 => 400_000,
            1 => 30_000,
            _ => 5_000,
        };
        cell.schedule_flow(
            Time::from_millis(10 + i * 250),
            (i % 4) as usize,
            size,
            None,
        );
    }
}

/// Run one scenario event-driven and return its trace fingerprint.
fn run_digest(kind: SchedulerKind, mode: RlcMode, chaos: bool, dense: bool) -> u64 {
    let acc = Arc::new(Mutex::new(Fnv::new()));
    let mut cell = Cell::new(scenario_cfg(kind, mode, chaos));
    cell.set_stage_observer(Box::new(TraceDigest { acc: acc.clone() }));
    populate(&mut cell);
    let end = Time::from_secs(SECS);
    if dense {
        cell.run_until_dense(end);
    } else {
        cell.run_until(end);
    }
    let mut acc = *acc.lock().unwrap();
    // Fold the completion records and end-of-run counters on top of the
    // per-TTI stream so the fingerprint also pins final state.
    let done = cell.take_completions();
    for d in &done {
        acc.u64(d.id as u64);
        acc.u64(d.ue as u64);
        acc.u64(d.bytes);
        acc.u64(d.spawn.0);
        acc.u64(d.fct.as_nanos());
    }
    acc.u64(done.len() as u64);
    acc.u64(cell.metrics.total_bits().to_bits());
    acc.u64(cell.idle_ttis);
    acc.0
}

const SCHEDULERS: [(SchedulerKind, &str); 4] = [
    (SchedulerKind::Pf, "pf"),
    (SchedulerKind::Mt, "mt"),
    (SchedulerKind::Srjf, "srjf"),
    (SchedulerKind::OutRan, "outran"),
];

fn cases() -> Vec<(String, SchedulerKind, RlcMode, bool)> {
    let mut out = Vec::new();
    for (kind, kname) in SCHEDULERS {
        for (mode, mname) in [(RlcMode::Um, "um"), (RlcMode::Am, "am")] {
            for (chaos, cname) in [(false, "clean"), (true, "chaos")] {
                out.push((format!("{kname}_{mname}_{cname}"), kind, mode, chaos));
            }
        }
    }
    out
}

fn fixture_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace.txt")
}

/// Re-record the fixture (ignored; see module docs).
#[test]
#[ignore = "fixture recorder — run explicitly with OUTRAN_RECORD_GOLDEN=1"]
fn record_golden_trace() {
    if std::env::var("OUTRAN_RECORD_GOLDEN").is_err() {
        eprintln!("set OUTRAN_RECORD_GOLDEN=1 to re-record");
        return;
    }
    let mut out = String::new();
    for (name, kind, mode, chaos) in cases() {
        let digest = run_digest(kind, mode, chaos, false);
        out.push_str(&format!("{name} {digest:016x}\n"));
    }
    std::fs::write(fixture_path(), out).expect("write fixture");
}

/// The staged pipeline must match the pre-refactor monolith's recorded
/// trace exactly: same RB grants on the same TTIs, same delivered-byte
/// progression, same completions — for every scheduler × RLC mode ×
/// fault combination.
#[test]
fn pipeline_matches_recorded_golden_trace() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture present");
    let mut recorded = std::collections::BTreeMap::new();
    for line in fixture.lines() {
        let (name, hex) = line.split_once(' ').expect("fixture line format");
        recorded.insert(
            name.to_string(),
            u64::from_str_radix(hex, 16).expect("fixture digest"),
        );
    }
    let all = cases();
    assert_eq!(recorded.len(), all.len(), "fixture case count");
    for (name, kind, mode, chaos) in all {
        let want = recorded[&name];
        let got = run_digest(kind, mode, chaos, false);
        assert_eq!(
            got, want,
            "{name}: staged pipeline diverged from the pre-refactor golden trace"
        );
    }
}

/// The per-TTI trace fingerprint is stepping-mode invariant: dense
/// and event-driven runs emit identical `on_tti` streams (idle TTIs
/// produce none in either mode).
#[test]
fn trace_digest_is_stepping_mode_invariant() {
    outran_simcore::check("trace_digest_is_stepping_mode_invariant", 6, |rng| {
        let kind = SCHEDULERS[rng.index(SCHEDULERS.len())].0;
        let mode = [RlcMode::Um, RlcMode::Am][rng.index(2)];
        let chaos = rng.chance(0.5);
        let dense = run_digest(kind, mode, chaos, true);
        let event = run_digest(kind, mode, chaos, false);
        assert_eq!(dense, event);
    });
}
