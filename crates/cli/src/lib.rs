//! Argument parsing and execution for the `outran-sim` CLI.
//!
//! Kept as a library so the parser is unit-testable without spawning the
//! binary. No external argument-parsing crates: a ~flag=value / flag
//! value grammar over `std::env` keeps the dependency set minimal
//! (smoltcp ethos).
//!
//! Every flag is declared once, as a row of `FLAGS` (or of the
//! never-replayed `HOST_FLAGS`); [`parse_args`], [`canonical_argv`]
//! and [`help`] all walk those rows, so a flag cannot be parsed but not
//! replayed into checkpoints, or accepted by a subcommand that ignores
//! it.

#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

use outran_core::OutRanConfig;
use outran_faults::FaultPlan;
use outran_mac::{OutRanScheduler, SrjfMode};
use outran_metrics::{FctReport, SizeBucket, Table};
use outran_phy::harq::HarqConfig;
use outran_phy::Scenario;
use outran_ran::checkpoint::{read_checkpoint, restore_cell};
use outran_ran::{Experiment, ExperimentReport, Network, NetworkRun, RlcMode, SchedulerKind};
use outran_simcore::snap::write_atomic;
use outran_simcore::{Dur, Time};
use outran_workload::FlowSizeDist;

/// Which subcommand to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Command {
    /// Standard experiment (the default).
    #[default]
    Run,
    /// Experiment under a seeded chaos fault plan with auditing.
    Chaos,
    /// Coupled multi-cell network with A3 handover.
    Metro,
    /// Continue a checkpointed run from its snapshot.
    Resume,
}

/// Parsed options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Subcommand.
    pub command: Command,
    /// Chaos fault-plan intensity in [0, 1].
    pub intensity: f64,
    /// MAC scheduler under test.
    pub scheduler: SchedulerKind,
    /// Radio scenario.
    pub scenario: Scenario,
    /// Flow-size distribution (None = scenario default).
    pub dist: Option<FlowSizeDist>,
    /// Number of UEs.
    pub users: usize,
    /// Offered load.
    pub load: f64,
    /// Horizon (s).
    pub secs: u64,
    /// Seed.
    pub seed: u64,
    /// RLC mode.
    pub rlc: RlcMode,
    /// Buffer SDUs.
    pub buffer: usize,
    /// PF fairness window.
    pub tf: Dur,
    /// CN delay.
    pub cn: Dur,
    /// OutRAN ε (applied when scheduler is OutRAN-family).
    pub epsilon: f64,
    /// Priority-reset period.
    pub reset: Option<Dur>,
    /// Explicit HARQ.
    pub harq: bool,
    /// Residual loss.
    pub loss: f64,
    /// SRJF grant mode.
    pub srjf_mode: SrjfMode,
    /// Independent repetitions (seeds `seed..seed+reps`), averaged.
    pub reps: usize,
    /// Worker threads for the `--reps` fan-out.
    pub threads: usize,
    /// Which FCT CDF to print, if any.
    pub cdf: Option<CdfSel>,
    /// Write per-flow records (size_bytes,fct_ms) to this CSV path.
    pub csv: Option<String>,
    /// Checkpoint interval in simulated seconds (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Directory checkpoints are written to (`--checkpoint-dir`).
    pub checkpoint_dir: Option<String>,
    /// Checkpoint file to resume from (the `resume` positional).
    pub resume: Option<String>,
    /// Metro: hex-grid cell sites (`--sites`).
    pub sites: usize,
    /// Metro: co-sited cells per site (`--sectors`).
    pub sectors: usize,
    /// Metro: inter-site distance in metres (`--isd`).
    pub isd: f64,
    /// Metro: UE slots per cell (`--slots`).
    pub slots: usize,
    /// Metro: network UE population (`--ues`).
    pub ues: usize,
    /// Metro: vehicular corridor speed in m/s (`--vehicle-mps`).
    pub vehicle_mps: f64,
    /// Metro: fraction of UEs on corridors (`--corridor-frac`).
    pub corridor_frac: f64,
    /// Metro: A3 hysteresis in dB (`--hysteresis`).
    pub hysteresis: f64,
    /// Metro: A3 time-to-trigger in epochs (`--ttt`).
    pub ttt: u32,
    /// Metro: chaos fault-plan intensity layered on every cell
    /// (`--chaos`; `None` = no faults).
    pub chaos: Option<f64>,
}

/// CDF selection for `--cdf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdfSel {
    /// Short flows only.
    Short,
    /// Medium flows only.
    Medium,
    /// Long flows only.
    Long,
    /// All flows.
    All,
}

impl Default for Opts {
    /// The libraries' own defaults ([`Experiment::lte_default`],
    /// [`Network::metro`]), so `--help` cannot drift from them. Two
    /// deliberate differences: the CLI demonstrates OutRAN where the
    /// library baseline is PF, and `metro` shares the cell runs' seed 1.
    fn default() -> Self {
        let exp = Experiment::lte_default();
        let cell = exp.config();
        let scenario = Scenario::LtePedestrian;
        let scheduler = SchedulerKind::OutRan;
        let net = Network::metro(scenario, scheduler, exp.load);
        Opts {
            command: Command::Run,
            intensity: 0.5,
            scheduler,
            scenario,
            dist: None,
            users: cell.n_ues,
            load: exp.load,
            secs: exp.duration.as_nanos() / 1_000_000_000,
            seed: 1,
            rlc: cell.rlc_mode,
            buffer: cell.buffer_sdus,
            tf: cell.tf,
            cn: cell.cn_delay,
            epsilon: OutRanScheduler::DEFAULT_EPSILON,
            reset: cell.outran.reset_period,
            harq: false,
            loss: cell.residual_loss,
            srjf_mode: cell.srjf_mode,
            reps: 1,
            threads: outran_ran::default_threads(),
            cdf: None,
            csv: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            sites: net.n_sites,
            sectors: net.sectors_per_site,
            isd: net.isd_m,
            slots: net.slots_per_cell,
            ues: net.n_ues,
            vehicle_mps: net.vehicle_speed_mps,
            corridor_frac: net.corridor_frac,
            hysteresis: net.hysteresis_db,
            ttt: net.ttt_epochs,
            chaos: None,
        }
    }
}

/// A spelled-out list of values: the one place an enum's CLI tokens are
/// typed, read by parse, canonical print and help alike.
type Tokens<T> = &'static [(&'static str, T)];

const COMMANDS: Tokens<Command> = &[
    ("run", Command::Run),
    ("chaos", Command::Chaos),
    ("metro", Command::Metro),
    ("resume", Command::Resume),
];

const SCENARIOS: Tokens<Scenario> = &[
    ("lte", Scenario::LtePedestrian),
    ("nr0", Scenario::NrUrban(0)),
    ("nr1", Scenario::NrUrban(1)),
    ("nr2", Scenario::NrUrban(2)),
    ("nr3", Scenario::NrUrban(3)),
    ("rome", Scenario::ColosseumRome),
    ("boston", Scenario::ColosseumBoston),
    ("powder", Scenario::ColosseumPowder),
    ("testbed", Scenario::Testbed),
];

const DISTS: Tokens<FlowSizeDist> = &[
    ("lte", FlowSizeDist::LteCellular),
    ("mirage", FlowSizeDist::MirageMobileApp),
    ("websearch", FlowSizeDist::Websearch),
    ("incast", FlowSizeDist::Incast8k),
];

const RLC_MODES: Tokens<RlcMode> = &[("um", RlcMode::Um), ("am", RlcMode::Am)];

const SRJF_MODES: Tokens<SrjfMode> = &[
    ("waterfall", SrjfMode::Waterfall),
    ("winner-only", SrjfMode::WinnerOnly),
];

const CDFS: Tokens<CdfSel> = &[
    ("short", CdfSel::Short),
    ("medium", CdfSel::Medium),
    ("long", CdfSel::Long),
    ("all", CdfSel::All),
];

/// The schedulers with a fixed token; `outran:<eps>` rides on top.
/// `OutRanOverMt` has no CLI spelling: only library callers can
/// construct it.
const SCHEDULERS: Tokens<SchedulerKind> = &[
    ("pf", SchedulerKind::Pf),
    ("mt", SchedulerKind::Mt),
    ("rr", SchedulerKind::Rr),
    ("srjf", SchedulerKind::Srjf),
    ("pss", SchedulerKind::Pss),
    ("cqa", SchedulerKind::Cqa),
    ("outran", SchedulerKind::OutRan),
    ("strict-mlfq", SchedulerKind::StrictMlfq),
];

/// The `a | b | c` grammar of a token list.
fn alternatives<T>(list: Tokens<T>) -> String {
    let toks: Vec<&str> = list.iter().map(|&(t, _)| t).collect();
    toks.join(" | ")
}

/// The value `tok` spells.
fn value_of<T: Copy>(list: Tokens<T>, tok: &str) -> Result<T, String> {
    let found = list.iter().find(|(t, _)| *t == tok);
    found
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("'{tok}' is not one of: {}", alternatives(list)))
}

/// The token that spells `v`.
fn token_of<T: PartialEq>(list: Tokens<T>, v: &T) -> Option<String> {
    list.iter().find(|(_, x)| x == v).map(|&(t, _)| t.into())
}

fn scheduler_grammar() -> String {
    format!("{} | outran:<eps in {UNIT}>", alternatives(SCHEDULERS))
}

fn scheduler_of(tok: &str) -> Result<SchedulerKind, String> {
    match tok.strip_prefix("outran:") {
        Some(eps) => real(eps, UNIT).map(SchedulerKind::OutRanEps),
        None => value_of(SCHEDULERS, tok),
    }
}

fn scheduler_token(k: SchedulerKind) -> Option<String> {
    match k {
        SchedulerKind::OutRanEps(e) => Some(format!("outran:{e}")),
        k => token_of(SCHEDULERS, &k),
    }
}

/// The numbers a flag accepts: `[lo, hi]`, or `(lo, hi]` when `open`.
/// NaN and the infinities are outside every range.
#[derive(Clone, Copy)]
struct Range {
    lo: f64,
    hi: f64,
    open: bool,
}

const fn closed(lo: f64, hi: f64) -> Range {
    let open = false;
    Range { lo, hi, open }
}

const fn above(lo: f64, hi: f64) -> Range {
    let open = true;
    Range { lo, hi, open }
}

/// No upper limit beyond finiteness (and what the field's type holds).
const MAX: f64 = f64::MAX;
const UNIT: Range = closed(0.0, 1.0);
/// UE slots in one cell: the MAC indexes a UE as a `u16`.
const UE_SLOTS: Range = closed(1.0, outran_ran::cell::MAX_UES as f64);
/// The longest horizon in whole seconds: a quarter of what `Time`'s
/// nanosecond `u64` holds, so horizon + drain window + one checkpoint
/// interval cannot overflow it.
const MAX_SECS: f64 = (u64::MAX / 1_000_000_000 / 4) as f64;
/// [`MAX_SECS`] in milliseconds, for the `-ms` flags.
const MAX_MS: f64 = MAX_SECS * 1000.0;
/// The most cells (`--sites` x `--sectors`) one metro run builds: every
/// cell carries about 25 KB of state before its first UE slot and is
/// visited at every epoch barrier, so 4096 cells, 72 times the metro
/// figure's 57, hold about 100 MB.
const MAX_CELLS: usize = 4096;
/// The most attach slots (cells x `--slots`), and so UEs, in one metro
/// run: every slot is a UE context of about 1.2 KB built before the
/// first TTI, so 2 Mi slots hold about 2.5 GB, enough for a full
/// [`UE_SLOTS`] cell at each of the default 21 cells.
const MAX_ATTACH_SLOTS: usize = 1 << 21;
/// The most (UE, cell) pairs (`--ues` x cells) in one metro run: the
/// RSRP table holds one `f64` per pair and every epoch barrier
/// re-evaluates all of them, so 16 Mi pairs are 128 MiB a barrier.
const MAX_UE_CELL_PAIRS: usize = 1 << 24;

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let open = if self.open { '(' } else { '[' };
        if self.hi == MAX {
            write!(f, "{open}{}, inf)", self.lo)
        } else {
            write!(f, "{open}{}, {}]", self.lo, self.hi)
        }
    }
}

impl Range {
    fn check(self, x: f64) -> Result<(), String> {
        if x <= self.hi && if self.open { x > self.lo } else { x >= self.lo } {
            return Ok(());
        }
        Err(format!("must be in {self}, got {x}"))
    }
}

fn int(v: &str, range: Range) -> Result<u64, String> {
    let n: u64 = v.parse().map_err(|_| format!("bad number '{v}'"))?;
    range.check(n as f64).map(|()| n)
}

/// `f64`'s `FromStr` and `Display` are exact inverses, so every real
/// survives the argv roundtrip bit for bit.
fn real(v: &str, range: Range) -> Result<f64, String> {
    let x: f64 = v.parse().map_err(|_| format!("bad number '{v}'"))?;
    range.check(x).map(|()| x)
}

/// A present value, printed.
fn show(v: impl ToString) -> Option<String> {
    Some(v.to_string())
}

/// One command-line flag: the single place its spelling, scope, range
/// and `Opts` field are written down.
struct Flag {
    name: &'static str,
    /// The subcommands that read the flag. Giving it to any other is an
    /// error, and [`canonical_argv`] emits it for exactly these.
    scope: &'static [Command],
    /// What the value looks like, for help; empty for a switch, which
    /// takes none.
    arg: fn() -> String,
    /// The token `set` parses back to the field's current value: `None`
    /// for an unset option, the empty token for a switch that is on.
    get: fn(&Opts) -> Option<String>,
    /// Parse, range-check and store a value.
    set: fn(&mut Opts, &str) -> Result<(), String>,
    help: &'static str,
}

const CELL: &[Command] = &[Command::Run, Command::Chaos];
const METRO: &[Command] = &[Command::Metro];
const ALL: &[Command] = &[Command::Run, Command::Chaos, Command::Metro];
const N: fn() -> String = || "N".into();
const X: fn() -> String = || "X".into();
const PATH: fn() -> String = || "PATH".into();

/// Every flag [`canonical_argv`] replays, in the order it emits them —
/// which is the order checkpoints already on disk carry, so rows may be
/// added but not renamed or reordered.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--intensity", scope: &[Command::Chaos], arg: X, help: "fault-plan density, 0 (none) to 1 (hostile)",
           get: |o| show(o.intensity), set: |o, v| real(v, UNIT).map(|x| o.intensity = x) },
    Flag { name: "--scheduler", scope: ALL, arg: scheduler_grammar, help: "MAC scheduler under test",
           get: |o| scheduler_token(o.scheduler), set: |o, v| scheduler_of(v).map(|k| o.scheduler = k) },
    Flag { name: "--scenario", scope: ALL, arg: || alternatives(SCENARIOS), help: "radio scenario",
           get: |o| token_of(SCENARIOS, &o.scenario), set: |o, v| value_of(SCENARIOS, v).map(|s| o.scenario = s) },
    Flag { name: "--dist", scope: ALL, arg: || alternatives(DISTS), help: "flow-size distribution (default: the scenario's own; lte for metro)",
           get: |o| o.dist.and_then(|d| token_of(DISTS, &d)), set: |o, v| value_of(DISTS, v).map(|d| o.dist = Some(d)) },
    Flag { name: "--users", scope: CELL, arg: N, help: "number of UEs",
           get: |o| show(o.users), set: |o, v| int(v, UE_SLOTS).map(|n| o.users = n as usize) },
    Flag { name: "--sites", scope: METRO, arg: N, help: "hex-grid cell sites (1, 7, 19, ...)",
           get: |o| show(o.sites), set: |o, v| int(v, closed(1.0, MAX_CELLS as f64)).map(|n| o.sites = n as usize) },
    Flag { name: "--sectors", scope: METRO, arg: N, help: "co-sited cells per site (1 = omni)",
           get: |o| show(o.sectors), set: |o, v| int(v, closed(1.0, MAX_CELLS as f64)).map(|n| o.sectors = n as usize) },
    Flag { name: "--isd", scope: METRO, arg: X, help: "inter-site distance in metres",
           get: |o| show(o.isd), set: |o, v| real(v, above(0.0, MAX)).map(|x| o.isd = x) },
    Flag { name: "--slots", scope: METRO, arg: N, help: "UE slots per cell (attach capacity)",
           get: |o| show(o.slots), set: |o, v| int(v, UE_SLOTS).map(|n| o.slots = n as usize) },
    Flag { name: "--ues", scope: METRO, arg: N, help: "network UE population",
           get: |o| show(o.ues), set: |o, v| int(v, closed(1.0, MAX_ATTACH_SLOTS as f64)).map(|n| o.ues = n as usize) },
    Flag { name: "--vehicle-mps", scope: METRO, arg: X, help: "corridor speed in m/s",
           get: |o| show(o.vehicle_mps), set: |o, v| real(v, closed(0.0, MAX)).map(|x| o.vehicle_mps = x) },
    Flag { name: "--corridor-frac", scope: METRO, arg: X, help: "fraction of UEs on vehicular corridors",
           get: |o| show(o.corridor_frac), set: |o, v| real(v, UNIT).map(|x| o.corridor_frac = x) },
    Flag { name: "--hysteresis", scope: METRO, arg: X, help: "A3 hysteresis in dB",
           get: |o| show(o.hysteresis), set: |o, v| real(v, closed(0.0, MAX)).map(|x| o.hysteresis = x) },
    Flag { name: "--ttt", scope: METRO, arg: N, help: "A3 time-to-trigger in epochs",
           get: |o| show(o.ttt), set: |o, v| int(v, closed(1.0, u32::MAX as f64)).map(|n| o.ttt = n as u32) },
    Flag { name: "--load", scope: ALL, arg: X, help: "offered load vs nominal capacity",
           get: |o| show(o.load), set: |o, v| real(v, above(0.0, 2.0)).map(|x| o.load = x) },
    Flag { name: "--secs", scope: ALL, arg: N, help: "simulated horizon in seconds",
           get: |o| show(o.secs), set: |o, v| int(v, closed(0.0, MAX_SECS)).map(|n| o.secs = n) },
    Flag { name: "--seed", scope: ALL, arg: N, help: "root seed (same seed = identical run)",
           get: |o| show(o.seed), set: |o, v| int(v, closed(0.0, MAX)).map(|n| o.seed = n) },
    Flag { name: "--rlc", scope: CELL, arg: || alternatives(RLC_MODES), help: "RLC mode",
           get: |o| token_of(RLC_MODES, &o.rlc), set: |o, v| value_of(RLC_MODES, v).map(|m| o.rlc = m) },
    Flag { name: "--buffer", scope: CELL, arg: N, help: "per-UE RLC buffer capacity in SDUs",
           get: |o| show(o.buffer), set: |o, v| int(v, closed(1.0, MAX)).map(|n| o.buffer = n as usize) },
    Flag { name: "--tf-ms", scope: CELL, arg: N, help: "PF fairness window in ms",
           get: |o| show(o.tf.as_millis()), set: |o, v| int(v, closed(0.0, MAX_MS)).map(|n| o.tf = Dur::from_millis(n)) },
    Flag { name: "--cn-ms", scope: CELL, arg: N, help: "one-way wired core delay in ms",
           get: |o| show(o.cn.as_millis()), set: |o, v| int(v, closed(0.0, MAX_MS)).map(|n| o.cn = Dur::from_millis(n)) },
    Flag { name: "--epsilon", scope: ALL, arg: X, help: "OutRAN relaxation threshold",
           get: |o| show(o.epsilon), set: |o, v| real(v, UNIT).map(|x| o.epsilon = x) },
    Flag { name: "--reset-ms", scope: CELL, arg: N, help: "OutRAN priority-reset period in ms (default: never)",
           get: |o| o.reset.and_then(|d| show(d.as_millis())), set: |o, v| int(v, closed(1.0, MAX_MS)).map(|n| o.reset = Some(Dur::from_millis(n))) },
    Flag { name: "--harq", scope: CELL, arg: String::new, help: "explicit HARQ processes (8, rtt 8 TTIs) instead of the folded model",
           get: |o| o.harq.then(String::new), set: |o, _| { o.harq = true; Ok(()) } },
    Flag { name: "--loss", scope: CELL, arg: X, help: "residual post-HARQ segment loss probability",
           get: |o| show(o.loss), set: |o, v| real(v, UNIT).map(|x| o.loss = x) },
    Flag { name: "--srjf-mode", scope: CELL, arg: || alternatives(SRJF_MODES), help: "how the SRJF oracle spends leftover capacity",
           get: |o| token_of(SRJF_MODES, &o.srjf_mode), set: |o, v| value_of(SRJF_MODES, v).map(|m| o.srjf_mode = m) },
    Flag { name: "--cdf", scope: CELL, arg: || alternatives(CDFS), help: "also print this bucket's FCT CDF (with --reps: the first rep's)",
           get: |o| o.cdf.and_then(|c| token_of(CDFS, &c)), set: |o, v| value_of(CDFS, v).map(|c| o.cdf = Some(c)) },
    Flag { name: "--csv", scope: CELL, arg: PATH, help: "write per-flow size_bytes,fct_ms records here (with --reps: the first rep's)",
           get: |o| o.csv.clone(), set: |o, v| { o.csv = Some(v.into()); Ok(()) } },
    Flag { name: "--chaos", scope: METRO, arg: X, help: "layer a seeded chaos fault plan of this intensity on every cell (default: none)",
           get: |o| o.chaos.and_then(show), set: |o, v| real(v, UNIT).map(|x| o.chaos = Some(x)) },
    Flag { name: "--checkpoint-every", scope: ALL, arg: N, help: "write a crash-safe snapshot every N simulated seconds (needs --checkpoint-dir)",
           get: |o| o.checkpoint_every.and_then(show), set: |o, v| int(v, closed(1.0, MAX_SECS)).map(|n| o.checkpoint_every = Some(n)) },
    Flag { name: "--checkpoint-dir", scope: ALL, arg: PATH, help: "directory for the .orsn snapshots that `resume` takes",
           get: |o| o.checkpoint_dir.clone(), set: |o, v| { o.checkpoint_dir = Some(v.into()); Ok(()) } },
];

/// The fan-out knobs, parsed and documented like [`FLAGS`] but never
/// replayed: a checkpoint captures exactly one run, on whatever host
/// resumes it.
#[rustfmt::skip]
const HOST_FLAGS: &[Flag] = &[
    Flag { name: "--reps", scope: &[Command::Run], arg: N, help: "run N seeds (seed..seed+N-1) across the worker pool and average",
           get: |o| show(o.reps), set: |o, v| int(v, closed(1.0, MAX)).map(|n| o.reps = n as usize) },
    Flag { name: "--threads", scope: &[Command::Run, Command::Metro], arg: N, help: "worker threads: the --reps fan-out, or metro cells between barriers",
           get: |o| show(o.threads), set: |o, v| int(v, closed(1.0, MAX)).map(|n| o.threads = n as usize) },
];

/// `run, chaos` — the subcommand names of a scope, for messages.
fn scope_names(scope: &[Command]) -> String {
    let names = scope.iter().filter_map(|c| token_of(COMMANDS, c));
    names.collect::<Vec<_>>().join(", ")
}

/// Parse a raw argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = args;
    // Optional leading subcommand (anything not starting with '-').
    if let Some(first) = args.first().filter(|a| !a.starts_with('-')) {
        o.command = value_of(COMMANDS, first).map_err(|e| format!("unknown subcommand: {e}"))?;
        args = &args[1..];
    }
    if o.command == Command::Resume {
        // `resume` takes exactly one positional: the checkpoint path.
        // Every experiment flag is replayed from the argv embedded in
        // the checkpoint, so none are accepted here.
        match args {
            [path] => o.resume = Some(path.clone()),
            [] => return Err("resume needs a checkpoint path".into()),
            _ => return Err("resume takes exactly one argument (the checkpoint path)".into()),
        }
        return Ok(o);
    }
    let mut it = args.iter();
    while let Some(raw) = it.next() {
        // flag=value and flag value are both accepted.
        let (name, inline) = match raw.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (raw.as_str(), None),
        };
        let mut flags = FLAGS.iter().chain(HOST_FLAGS);
        let flag = flags
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown flag '{name}'"))?;
        if !flag.scope.contains(&o.command) {
            return Err(format!(
                "{name} is not read by the '{}' subcommand (only by: {})",
                scope_names(&[o.command]),
                scope_names(flag.scope)
            ));
        }
        let is_switch = (flag.arg)().is_empty();
        let tok = match inline {
            Some(_) if is_switch => return Err(format!("{name} takes no value")),
            None if is_switch => "",
            Some(v) => v,
            None => it.next().map_or("", |v| v.as_str()),
        };
        if tok.is_empty() && !is_switch {
            return Err(format!("{name} needs a value"));
        }
        (flag.set)(&mut o, tok).map_err(|e| format!("{name}: {e}"))?;
    }
    if o.checkpoint_every.is_some() != o.checkpoint_dir.is_some() {
        return Err("--checkpoint-every and --checkpoint-dir must be given together".into());
    }
    if o.checkpoint_every.is_some() && o.reps > 1 {
        return Err("checkpointing covers a single run; it cannot be combined with --reps".into());
    }
    let cells = within(o.sites, o.sectors, MAX_CELLS).ok_or_else(|| {
        format!(
            "--sites {} x --sectors {} exceeds {MAX_CELLS} cells",
            o.sites, o.sectors
        )
    })?;
    let attach_slots = within(cells, o.slots, MAX_ATTACH_SLOTS).ok_or_else(|| {
        format!(
            "{cells} cells x --slots {} exceeds {MAX_ATTACH_SLOTS} attach slots",
            o.slots
        )
    })?;
    if o.ues > attach_slots {
        return Err(format!(
            "--ues {} exceeds the {attach_slots} attach slots ({} sites x {} sectors x {} slots)",
            o.ues, o.sites, o.sectors, o.slots
        ));
    }
    within(o.ues, cells, MAX_UE_CELL_PAIRS).ok_or_else(|| {
        format!(
            "--ues {} x {cells} cells exceeds {MAX_UE_CELL_PAIRS} (UE, cell) pairs",
            o.ues
        )
    })?;
    Ok(o)
}

/// `a × b` when it is at most `limit`.
fn within(a: usize, b: usize, limit: usize) -> Option<usize> {
    a.checked_mul(b).filter(|&n| n <= limit)
}

/// Reconstruct a canonical argv (program name included) that re-parses
/// to the same experiment. This — not the raw process argv — is what
/// gets embedded in checkpoints, so `resume` rebuilds the identical run
/// regardless of which of the two flag grammars, orderings or defaults
/// the original invocation used: every `FLAGS` row its subcommand
/// reads, in table order, unset options omitted.
pub fn canonical_argv(o: &Opts) -> Vec<String> {
    let resumed = o.command == Command::Resume;
    let command = if resumed { Command::Run } else { o.command };
    let mut v = vec!["outran-sim".to_string(), scope_names(&[command])];
    for f in FLAGS.iter().filter(|f| f.scope.contains(&command)) {
        match (f.get)(o) {
            Some(tok) if tok.is_empty() => v.push(f.name.into()),
            Some(tok) => v.push(format!("{}={tok}", f.name)),
            None => {}
        }
    }
    v
}

const USAGE: &str = "\
outran-sim — OutRAN cell simulator (CoNEXT'22 reproduction)

USAGE:
  outran-sim [run] [FLAGS]      standard experiment report
  outran-sim chaos [FLAGS]      same run under a seeded fault plan, with
                                invariant auditing and a recovery summary
  outran-sim metro [FLAGS]      coupled multi-cell network: hex-grid
                                sites, load-coupled interference and
                                deterministic A3 handover; prints FCT
                                plus a handover health table
  outran-sim resume CKPT        continue a single-cell or metro checkpoint
                                to completion: the configuration is
                                replayed from the argv embedded in it, and
                                the final report is bit-identical to the
                                uninterrupted run

FLAGS (flag value  or  flag=value). Each entry ends with its [default]
and the (subcommands) that read it; giving it to any other is an error.
`metro` sizes its population with --ues, single cells with --users.
";

/// The help text: the usage block plus one entry per flag-table row,
/// with defaults read from [`Opts::default`].
pub fn help() -> String {
    let defaults = Opts::default();
    let mut out = String::from(USAGE);
    for f in FLAGS.iter().chain(HOST_FLAGS) {
        let default = (f.get)(&defaults).filter(|d| !d.is_empty());
        let default = default.map(|d| format!(" [{d}]")).unwrap_or_default();
        out.push_str(&format!(
            "  {} {}\n        {}{default} ({})\n",
            f.name,
            (f.arg)(),
            f.help,
            scope_names(f.scope)
        ));
    }
    out.push_str("  -h, --help\n        this text\n");
    out
}

/// Execute the selected subcommand. `Err` means the run could not
/// complete as asked and maps to a non-zero process exit.
pub fn run(o: &Opts) -> Result<(), String> {
    match o.command {
        Command::Run => run_standard(o),
        Command::Chaos => run_chaos(o),
        Command::Metro => run_metro(o),
        Command::Resume => run_resume(o),
    }
}

/// The scheduler to instantiate: plain `outran` takes its ε from
/// `--epsilon`.
fn scheduler_for(o: &Opts) -> SchedulerKind {
    match o.scheduler {
        SchedulerKind::OutRan => SchedulerKind::OutRanEps(o.epsilon),
        k => k,
    }
}

/// Build the coupled network described by the options (shared by `metro`
/// and network-checkpoint `resume`, so a resumed deployment is built
/// from exactly the configuration its checkpoint was taken under).
fn build_network(o: &Opts) -> Network {
    let mut net = Network::metro(o.scenario, scheduler_for(o), o.load);
    net.n_sites = o.sites;
    net.sectors_per_site = o.sectors;
    net.isd_m = o.isd;
    net.slots_per_cell = o.slots;
    net.n_ues = o.ues;
    net.corridor_frac = o.corridor_frac;
    net.vehicle_speed_mps = o.vehicle_mps;
    net.hysteresis_db = o.hysteresis;
    net.ttt_epochs = o.ttt;
    if let Some(d) = o.dist {
        net.dist = d;
    }
    net.duration = Time::from_secs(o.secs);
    net.seed = o.seed;
    net.threads = o.threads;
    if let Some(x) = o.chaos {
        net.faults = FaultPlan::chaos(o.seed, Dur::from_secs(o.secs), o.ues, x);
    }
    if let (Some(every), Some(dir)) = (o.checkpoint_every, &o.checkpoint_dir) {
        net.checkpoint_every = Some(Dur::from_secs(every));
        net.checkpoint_dir = Some(PathBuf::from(dir));
        net.argv = canonical_argv(o);
    }
    net
}

fn run_metro(o: &Opts) -> Result<(), String> {
    let net = build_network(o);
    if let Some(x) = o.chaos {
        println!(
            "chaos plan (seed {}, intensity {x}) applied to every cell:",
            o.seed
        );
        println!("{}", net.faults.describe());
    }
    finish_network(o, &net.run())
}

/// The FCT line shared by the single-cell and metro reports.
fn print_fct(fct: &FctReport) {
    println!(
        "FCT (ms): overall {:.1}  S avg {:.1}  S p95 {:.1}  S p99 {:.1}  M {:.1}  L {:.1}",
        fct.overall_mean_ms,
        fct.short_mean_ms,
        fct.short_p95_ms,
        fct.short_p99_ms,
        fct.medium_mean_ms,
        fct.long_mean_ms
    );
}

/// An event/count table (handover health, fault + recovery events).
fn print_counts(title: &str, rows: &[(&'static str, u64)]) {
    let mut t = Table::new(title, &["event", "count"]);
    for (label, value) in rows {
        t.rowd(&[label, value]);
    }
    t.print();
}

/// Fail the subcommand when the invariant auditors recorded anything.
fn check_violations(total: u64) -> Result<(), String> {
    if total > 0 {
        return Err(format!("{total} invariant violation(s) detected"));
    }
    Ok(())
}

/// The metro report — FCT summary plus the handover health table — and
/// the exit status of a fresh or resumed network run.
fn finish_network(o: &Opts, run: &NetworkRun) -> Result<(), String> {
    let r = &run.report;
    println!(
        "metro: {} sites x {} sectors ({} cells)  ues {}  scheduler {}  load {}  {}s  seed {}",
        o.sites,
        o.sectors,
        o.sites * o.sectors,
        o.ues,
        r.scheduler,
        o.load,
        o.secs,
        o.seed
    );
    println!("flows: {} completed / {} offered", r.completed, r.offered);
    print_fct(&r.fct);
    print_counts("handover health", &r.handover.rows());
    if r.fault_stats.total_events() > 0 {
        print_counts("fault + recovery events", &r.fault_stats.rows());
    }
    println!(
        "per-cell completed: {:?}   invariant violations: {}",
        r.per_cell_completed, r.total_violations
    );
    if let Some(t) = run.aborted_at {
        let ck = run
            .checkpoint
            .as_ref()
            .map(|p| format!("; checkpoint at {}", p.display()))
            .unwrap_or_default();
        return Err(format!("watchdog aborted the run at {t}{ck}"));
    }
    check_violations(r.total_violations)
}

/// Build the experiment described by the options, `chaos` layering its
/// fault plan on top — the one construction path shared by fresh runs
/// and `resume`, so a resumed run is built from *exactly* the experiment
/// its checkpoint was taken under.
fn build_experiment(o: &Opts) -> Experiment {
    let dist = o.dist.unwrap_or(match o.scenario {
        Scenario::NrUrban(_) => FlowSizeDist::MirageMobileApp,
        _ => FlowSizeDist::LteCellular,
    });
    let outran_cfg = OutRanConfig {
        reset_period: o.reset,
        ..OutRanConfig::default()
    };
    let mut exp = Experiment::lte_default()
        .scenario(o.scenario)
        .scheduler(scheduler_for(o))
        .dist(dist)
        .users(o.users)
        .load(o.load)
        .duration_secs(o.secs)
        .seed(o.seed)
        .rlc_mode(o.rlc)
        .buffer_sdus(o.buffer)
        .fairness_window(o.tf)
        .cn_delay(o.cn)
        .outran(outran_cfg)
        .residual_loss(o.loss)
        .srjf_mode(o.srjf_mode);
    if o.harq {
        exp = exp.harq(Some(HarqConfig::default()));
    }
    if let (Some(every), Some(dir)) = (o.checkpoint_every, &o.checkpoint_dir) {
        exp = exp.checkpoint_every(Dur::from_secs(every), PathBuf::from(dir), canonical_argv(o));
    }
    if o.command == Command::Chaos {
        exp = exp
            .faults(chaos_plan(o))
            .watchdog(Some(Dur::from_millis(750)));
    }
    exp
}

/// The seeded fault plan of a `chaos` run.
fn chaos_plan(o: &Opts) -> FaultPlan {
    FaultPlan::chaos(o.seed, Dur::from_secs(o.secs), o.users, o.intensity)
}

fn run_resume(o: &Opts) -> Result<(), String> {
    let path = o
        .resume
        .as_deref()
        .ok_or("resume needs a checkpoint path")?;
    let (meta, file) = read_checkpoint(Path::new(path))
        .map_err(|e| format!("cannot read checkpoint '{path}': {e}"))?;
    let embedded: Vec<String> = meta.argv.iter().skip(1).cloned().collect();
    let ro = parse_args(&embedded)
        .map_err(|e| format!("embedded argv in '{path}' failed to parse: {e}"))?;
    println!(
        "resuming {path} at {} ({})",
        meta.sim_time,
        meta.argv.join(" ")
    );
    // A `network` section marks a coupled-metro checkpoint: rebuild the
    // deployment from its embedded argv and overlay every section.
    if file.section("network").is_ok() {
        if ro.command != Command::Metro {
            return Err(format!(
                "checkpoint '{path}' has a network section but its argv is not a metro run"
            ));
        }
        let run = build_network(&ro)
            .resume(&file)
            .map_err(|e| format!("restoring '{path}' into the rebuilt network failed: {e}"))?;
        return finish_network(&ro, &run);
    }
    if meta.n_cells != 1 {
        return Err(format!(
            "checkpoint '{path}' holds {} cells; resume supports single-cell runs",
            meta.n_cells
        ));
    }
    let exp = build_experiment(&ro);
    let mut cell = exp.build_cell();
    restore_cell(&file, 0, &mut cell)
        .map_err(|e| format!("restoring '{path}' into the rebuilt cell failed: {e}"))?;
    finish_cell(&ro, exp.run_cell(cell))
}

fn run_standard(o: &Opts) -> Result<(), String> {
    if o.reps <= 1 {
        return finish_cell(o, build_experiment(o).run());
    }
    // Fan the repetitions across the worker pool; results come back in
    // seed order, so the output is reproducible regardless of thread
    // count or interleaving.
    let seeds: Vec<u64> = (0..o.reps as u64).map(|i| o.seed + i).collect();
    let mut reports = outran_ran::parallel_map(o.threads, seeds.clone(), |s| {
        build_experiment(&Opts {
            seed: s,
            ..o.clone()
        })
        .run()
    });
    println!(
        "{} reps (seeds {}..{}) on {} thread(s)",
        o.reps,
        o.seed,
        o.seed + o.reps as u64 - 1,
        o.threads
    );
    for (s, r) in seeds.iter().zip(&reports) {
        println!(
            "  seed {s}: overall {:.1} ms  S p95 {:.1} ms  completed {}/{}",
            r.fct.overall_mean_ms, r.fct.short_p95_ms, r.completed, r.offered
        );
    }
    let mean = |metric| ExperimentReport::mean(&reports, metric);
    println!(
        "mean FCT (ms): overall {:.1}  S avg {:.1}  S p95 {:.1}  M {:.1}  L {:.1}",
        mean(|r| r.fct.overall_mean_ms),
        mean(|r| r.fct.short_mean_ms),
        mean(|r| r.fct.short_p95_ms),
        mean(|r| r.fct.medium_mean_ms),
        mean(|r| r.fct.long_mean_ms)
    );
    println!(
        "mean cell: SE {:.2} bit/s/Hz   fairness {:.3}",
        mean(|r| r.spectral_efficiency),
        mean(|r| r.fairness)
    );
    finish_report(o, &mut reports[0])
}

fn run_chaos(o: &Opts) -> Result<(), String> {
    let plan = chaos_plan(o);
    println!(
        "chaos plan (seed {}, intensity {}, {} windows):",
        o.seed,
        o.intensity,
        plan.windows().len()
    );
    println!("{}", plan.describe());
    finish_cell(o, build_experiment(o).run())
}

/// The report and exit status of a fresh or resumed single-cell run:
/// the standard lines, the fault/recovery summary and violation gate
/// under `chaos`, then the CSV/CDF exports.
fn finish_cell(o: &Opts, mut r: ExperimentReport) -> Result<(), String> {
    println!(
        "scenario {}  scheduler {}  users {}  load {}  {}s  seed {}",
        o.scenario.name(),
        r.scheduler,
        o.users,
        o.load,
        o.secs,
        o.seed
    );
    println!(
        "flows: {} completed / {} offered   buffer drops: {}   residual losses: {}",
        r.completed, r.offered, r.buffer_drops, r.residual_losses
    );
    print_fct(&r.fct);
    println!(
        "cell: SE {:.2} bit/s/Hz   fairness {:.3}   mean Q delay {:.1} ms (short {:.1} ms)",
        r.spectral_efficiency, r.fairness, r.mean_qdelay_ms, r.short_qdelay_ms
    );
    if o.command != Command::Chaos {
        return finish_report(o, &mut r);
    }
    println!(
        "residual losses: {}   flows evicted: {}",
        r.residual_losses, r.fault_stats.flows_evicted
    );
    print_counts("fault + recovery events", &r.fault_stats.rows());
    let survived = r.offered == 0 || r.completed as f64 / r.offered as f64 >= 0.5;
    println!(
        "survival: {}/{} flows completed ({})   invariant violations: {}",
        r.completed,
        r.offered,
        if survived { "ok" } else { "degraded" },
        r.total_violations
    );
    for v in &r.violations {
        println!("  violation: {v}");
    }
    finish_report(o, &mut r)?;
    check_violations(r.total_violations)
}

/// CSV export and optional CDF print (also the tail of a `--reps`
/// sweep, on its first rep).
fn finish_report(o: &Opts, r: &mut ExperimentReport) -> Result<(), String> {
    if let Some(path) = &o.csv {
        let mut out = String::from("size_bytes,fct_ms\n");
        for (bytes, fct) in &r.flow_records {
            out.push_str(&format!("{bytes},{fct:.3}\n"));
        }
        // Atomic temp-file + rename: a crash mid-write leaves the
        // previous export (or nothing), never a torn CSV.
        write_atomic(Path::new(path), out.as_bytes())
            .map_err(|e| format!("csv write to '{path}' failed: {e}"))?;
        println!("wrote {} flow records to {path}", r.flow_records.len());
    }
    if let Some(sel) = o.cdf {
        let bucket = match sel {
            CdfSel::Short => Some(SizeBucket::Short),
            CdfSel::Medium => Some(SizeBucket::Medium),
            CdfSel::Long => Some(SizeBucket::Long),
            CdfSel::All => None,
        };
        let mut fcts = outran_simcore::Percentiles::new();
        r.fcts(bucket).for_each(|v| fcts.push(v));
        let pts = fcts.cdf_points(40);
        outran_metrics::table::print_series("FCT (ms) CDF", &pts, 40);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Opts, String> {
        let args: Vec<String> = s.split_whitespace().map(|x| x.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults_when_empty() {
        let o = parse("").unwrap();
        assert_eq!(o, Opts::default());
    }

    #[test]
    fn both_flag_grammars() {
        let a = parse("--users 12 --load 0.7").unwrap();
        let b = parse("--users=12 --load=0.7").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.users, 12);
        assert!((a.load - 0.7).abs() < 1e-12);
    }

    #[test]
    fn scheduler_variants() {
        assert_eq!(
            parse("--scheduler pf").unwrap().scheduler,
            SchedulerKind::Pf
        );
        assert_eq!(
            parse("--scheduler strict-mlfq").unwrap().scheduler,
            SchedulerKind::StrictMlfq
        );
        match parse("--scheduler outran:0.4").unwrap().scheduler {
            SchedulerKind::OutRanEps(e) => assert!((e - 0.4).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert!(parse("--scheduler bogus").is_err());
    }

    /// The retired BET, M-LWDF and backlog-SRJF tokens are refused by
    /// name, with every alternative that remains.
    #[test]
    fn retired_tokens_name_the_remaining_alternatives() {
        let schedulers = "pf | mt | rr | srjf | pss | cqa | outran | strict-mlfq";
        for (args, alternatives) in [
            ("--scheduler bet", schedulers),
            ("--scheduler mlwdf", schedulers),
            ("--srjf-mode backlog", "waterfall | winner-only"),
        ] {
            let e = parse(args).unwrap_err();
            let (flag, token) = args.split_once(' ').unwrap();
            assert_eq!(
                e,
                format!("{flag}: '{token}' is not one of: {alternatives}")
            );
        }
    }

    #[test]
    fn scenario_and_dist() {
        let o = parse("--scenario nr2 --dist websearch").unwrap();
        assert_eq!(o.scenario, Scenario::NrUrban(2));
        assert_eq!(o.dist, Some(FlowSizeDist::Websearch));
        assert!(parse("--scenario mars").is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(parse("--load 0").is_err());
        assert!(parse("--load 5").is_err());
        assert!(parse("--epsilon 2").is_err());
        assert!(parse("--users 0").is_err());
        assert!(parse("--users").is_err());
        assert!(parse("--frobnicate 3").is_err());
        // Non-finite, out-of-range and overflowing values are refused by
        // the table's range, before anything multiplies them into
        // nanoseconds.
        for hostile in [
            "--secs 99999999999999",
            "--secs 18446744073709551615",
            "--tf-ms 18446744073709551615",
            "--cn-ms 99999999999999999",
            "--reset-ms 99999999999999999",
            "--reset-ms 0",
            "--checkpoint-every 99999999999999 --checkpoint-dir /tmp/ck",
            "--load inf",
            "--load NaN",
            "--loss 2",
            "--epsilon NaN",
            "--scheduler outran:NaN",
            "--scheduler outran:7",
            "--harq=1",
            "--csv=",
        ] {
            assert!(parse(hostile).is_err(), "accepted '{hostile}'");
        }
    }

    /// One cell holds at most 65 536 UE slots, as many as the MAC's
    /// `u16` UE index can name: a single cell's `--users` and a metro
    /// cell's `--slots` stop there.
    #[test]
    fn ue_slots_per_cell_are_bounded_by_the_mac_index() {
        assert_eq!(parse("--users 65536").unwrap().users, 65_536);
        assert_eq!(parse("metro --slots 65536").unwrap().slots, 65_536);
        for (hostile, flag) in [
            ("--users 65537", "--users"),
            ("chaos --users 18446744073709551615", "--users"),
            ("metro --slots 65537", "--slots"),
        ] {
            let e = parse(hostile).unwrap_err();
            assert!(e.contains(flag) && e.contains("65536"), "'{hostile}': {e}");
        }
    }

    #[test]
    fn full_flag_set() {
        let o = parse(
            "--scheduler outran --scenario lte --users 8 --load 0.5 --secs 4 \
             --seed 9 --rlc am --buffer 256 --tf-ms 500 --cn-ms 20 \
             --epsilon 0.3 --reset-ms 500 --harq --loss 0.01 \
             --srjf-mode winner-only --cdf short",
        )
        .unwrap();
        assert_eq!(o.rlc, RlcMode::Am);
        assert_eq!(o.buffer, 256);
        assert_eq!(o.tf, Dur::from_millis(500));
        assert_eq!(o.cn, Dur::from_millis(20));
        assert!((o.epsilon - 0.3).abs() < 1e-12);
        assert_eq!(o.reset, Some(Dur::from_millis(500)));
        assert!(o.harq);
        assert_eq!(o.srjf_mode, SrjfMode::WinnerOnly);
        assert_eq!(o.cdf, Some(CdfSel::Short));
    }

    /// ε has one home, the scheduler selection, whichever flag spelled
    /// it; the buffer size has one, the cell configuration.
    #[test]
    fn epsilon_and_buffer_reach_the_cell_config() {
        for flags in [
            "--scheduler outran --epsilon 0.35",
            "--scheduler outran:0.35",
        ] {
            for rlc in ["um", "am"] {
                let o = parse(&format!(
                    "{flags} --buffer 64 --rlc {rlc} --users 2 --secs 0"
                ))
                .unwrap();
                let cell = build_experiment(&o).build_cell();
                assert_eq!(cell.config().scheduler, SchedulerKind::OutRanEps(0.35));
                assert_eq!(cell.config().buffer_sdus, 64);
                assert_eq!(cell.config().rlc_mode, o.rlc);
            }
        }
    }

    #[test]
    fn subcommands() {
        assert_eq!(parse("").unwrap().command, Command::Run);
        assert_eq!(parse("run --users 3").unwrap().command, Command::Run);
        let o = parse("chaos --intensity 0.8 --users 3").unwrap();
        assert_eq!(o.command, Command::Chaos);
        assert!((o.intensity - 0.8).abs() < 1e-12);
        assert!(parse("frobnicate").is_err());
        assert!(parse("chaos --intensity 1.5").is_err());
        assert!(parse("chaos --intensity -0.1").is_err());
    }

    /// A buffer of no SDUs would drop every packet and report NaN FCTs.
    #[test]
    fn zero_buffer_is_a_range_error() {
        assert_eq!(parse("run --buffer 1").unwrap().buffer, 1);
        let err = parse("run --buffer 0 --secs 1").unwrap_err();
        assert!(
            err.contains("--buffer") && err.contains("must be in [1, inf)"),
            "{err}"
        );
    }

    #[test]
    fn threads_and_reps_flags() {
        let o = parse("--reps 3 --threads 2").unwrap();
        assert_eq!(o.reps, 3);
        assert_eq!(o.threads, 2);
        assert!(parse("--reps 0").is_err());
        assert!(parse("--threads 0").is_err());
        assert!(Opts::default().threads >= 1);
    }

    #[test]
    fn reps_run_smoke() {
        let o = parse("--users 4 --load 0.3 --secs 2 --scheduler pf --reps 2 --threads 2").unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn run_smoke() {
        // A tiny end-to-end run through the CLI path.
        let o = parse("--users 4 --load 0.3 --secs 2 --scheduler pf").unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn chaos_smoke() {
        // End-to-end chaos run: faults injected, zero violations.
        let o = parse("chaos --users 4 --load 0.3 --secs 2 --intensity 0.6").unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn checkpoint_flag_validation() {
        let o = parse("--checkpoint-every 2 --checkpoint-dir /tmp/ck").unwrap();
        assert_eq!(o.checkpoint_every, Some(2));
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert!(parse("--checkpoint-every 2").is_err());
        assert!(parse("--checkpoint-dir /tmp/ck").is_err());
        assert!(parse("--checkpoint-every 0 --checkpoint-dir /tmp/ck").is_err());
        assert!(parse("--checkpoint-every 2 --checkpoint-dir /tmp/ck --reps 3").is_err());
    }

    #[test]
    fn resume_subcommand_parsing() {
        let o = parse("resume /tmp/ck/ckpt-3s.orsn").unwrap();
        assert_eq!(o.command, Command::Resume);
        assert_eq!(o.resume.as_deref(), Some("/tmp/ck/ckpt-3s.orsn"));
        assert!(parse("resume").is_err());
        assert!(parse("resume a b").is_err());
    }

    #[test]
    fn resume_missing_checkpoint_is_an_error() {
        let o = parse("resume /nonexistent-dir/nope.orsn").unwrap();
        let e = run(&o).unwrap_err();
        assert!(e.contains("cannot read checkpoint"), "{e}");
    }

    /// A value `f` accepts that differs from its default (empty for a
    /// switch, which takes none).
    fn non_default(f: &Flag) -> String {
        let default = (f.get)(&Opts::default());
        let candidates: Vec<String> = match (f.arg)().as_str() {
            "" => return String::new(),
            "PATH" => vec!["/tmp/x".into()],
            "N" => {
                let d: Option<u64> = default.as_ref().map(|d| d.parse().unwrap());
                vec![d.map_or(1, |d| d + 1).to_string()]
            }
            "X" => {
                let d: f64 = default.as_ref().map_or(0.0, |d| d.parse().unwrap());
                vec![(d + 0.125).to_string(), (d - 0.125).to_string()]
            }
            alternatives => alternatives.split(" | ").map(String::from).collect(),
        };
        let ok =
            |c: &String| Some(c) != default.as_ref() && (f.set)(&mut Opts::default(), c).is_ok();
        candidates.into_iter().find(ok).unwrap()
    }

    /// Walk the flag tables. On every subcommand that reads it, a flag
    /// set to a non-default value takes effect and survives
    /// `parse(canonical_argv(o))` — or, for the host-only flags, is
    /// deliberately dropped. On every other subcommand it is an error
    /// naming the flag and the subcommand, never parsed and ignored.
    #[test]
    fn every_flag_roundtrips_in_scope_and_errors_out_of_scope() {
        for (table, replayed) in [(FLAGS, true), (HOST_FLAGS, false)] {
            for f in table {
                let partner = match f.name {
                    "--checkpoint-every" => " --checkpoint-dir=/tmp/ck",
                    "--checkpoint-dir" => " --checkpoint-every=1",
                    _ => "",
                };
                for cmd in ALL {
                    let cmd = token_of(COMMANDS, cmd).unwrap();
                    let cmdline = format!("{cmd} {} {}{partner}", f.name, non_default(f));
                    let plain = parse(&cmd).unwrap();
                    if !f.scope.contains(&plain.command) {
                        let e = parse(&cmdline).unwrap_err();
                        assert!(e.contains(f.name) && e.contains(&format!("'{cmd}'")), "{e}");
                        continue;
                    }
                    let o = parse(&cmdline).unwrap_or_else(|e| panic!("'{cmdline}': {e}"));
                    assert_ne!(o, plain, "'{cmdline}' changed nothing");
                    let argv = canonical_argv(&o);
                    assert_eq!(argv[0], "outran-sim");
                    let back = parse_args(&argv[1..]).unwrap();
                    let expect = if replayed { o } else { plain };
                    assert_eq!(back, expect, "roundtrip diverged for '{cmdline}'");
                }
            }
        }
        // Every optional flag at once, in the other grammar, also survives.
        let o = parse(
            "chaos --intensity 0.7 --scheduler outran:0.35 --scenario nr2 \
             --dist websearch --reset-ms 500 --cdf short --csv /tmp/x.csv --harq",
        )
        .unwrap();
        assert_eq!(parse_args(&canonical_argv(&o)[1..]).unwrap(), o);
    }

    /// The exact tokens and order checkpoints on disk carry: a rename or
    /// reorder in the flag table would strand them.
    #[test]
    fn canonical_argv_spelling_is_pinned() {
        for (cmdline, pinned) in [
            (
                "run --scheduler outran:0.35 --scenario nr2 --dist websearch --users 8 \
                 --load 0.5 --secs 4 --seed 9 --rlc am --buffer 256 --tf-ms 500 --cn-ms 20 \
                 --epsilon 0.3 --reset-ms 500 --harq --loss 0.01 \
                 --srjf-mode winner-only --cdf short --csv /tmp/x.csv \
                 --checkpoint-every 2 --checkpoint-dir /tmp/ck --reps 1 --threads 3",
                "outran-sim run --scheduler=outran:0.35 --scenario=nr2 --dist=websearch \
                 --users=8 --load=0.5 --secs=4 --seed=9 --rlc=am --buffer=256 --tf-ms=500 \
                 --cn-ms=20 --epsilon=0.3 --reset-ms=500 --harq --loss=0.01 \
                 --srjf-mode=winner-only --cdf=short --csv=/tmp/x.csv \
                 --checkpoint-every=2 --checkpoint-dir=/tmp/ck",
            ),
            (
                "chaos --intensity 0.7",
                "outran-sim chaos --intensity=0.7 --scheduler=outran --scenario=lte --users=20 \
                 --load=0.6 --secs=10 --seed=1 --rlc=um --buffer=128 --tf-ms=1000 --cn-ms=10 \
                 --epsilon=0.2 --loss=0.002 --srjf-mode=waterfall",
            ),
            (
                "metro --sites 2 --sectors 1 --isd 350 --slots 8 --ues 6 --vehicle-mps 30 \
                 --corridor-frac 0.5 --hysteresis 2.5 --ttt 3 --scheduler srjf --scenario nr1 \
                 --dist websearch --load 0.3 --secs 4 --seed 5 --chaos 0.4 \
                 --checkpoint-every 2 --checkpoint-dir /tmp/metro-ck",
                "outran-sim metro --scheduler=srjf --scenario=nr1 --dist=websearch --sites=2 \
                 --sectors=1 --isd=350 --slots=8 --ues=6 --vehicle-mps=30 --corridor-frac=0.5 \
                 --hysteresis=2.5 --ttt=3 --load=0.3 --secs=4 --seed=5 --epsilon=0.2 --chaos=0.4 \
                 --checkpoint-every=2 --checkpoint-dir=/tmp/metro-ck",
            ),
        ] {
            let argv = canonical_argv(&parse(cmdline).unwrap());
            let pinned: Vec<&str> = pinned.split_whitespace().collect();
            assert_eq!(argv, pinned);
        }
    }

    #[test]
    fn checkpointed_run_then_resume_matches_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("outran-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap();
        let flags = "--users 4 --load 0.3 --secs 3 --scheduler pf --seed 5";
        // Uninterrupted reference run.
        let reference = build_experiment(&parse(flags).unwrap()).run();
        // Checkpointed run, then resume from the mid-run snapshot.
        let o = parse(&format!(
            "{flags} --checkpoint-every 1 --checkpoint-dir {dirs}"
        ))
        .unwrap();
        run(&o).unwrap();
        let ckpt = dir.join("ckpt-2s.orsn");
        assert!(ckpt.exists(), "expected mid-run checkpoint at {ckpt:?}");
        let (meta, file) = read_checkpoint(&ckpt).unwrap();
        let ro = parse_args(&meta.argv[1..]).unwrap();
        let exp = build_experiment(&ro);
        let mut cell = exp.build_cell();
        restore_cell(&file, 0, &mut cell).unwrap();
        let resumed = exp.run_cell(cell);
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resumed report diverged from the uninterrupted run"
        );
        // The CLI path over the same checkpoint also succeeds.
        run(&parse(&format!("resume {}", ckpt.display())).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retired flags — the heap event-queue backend's and dense
    /// stepping's — are unknown on the command line, and a checkpoint
    /// from a build that still had one (the flag embedded in its argv)
    /// is refused with a structured error, not a panic.
    #[test]
    fn retired_flags_are_rejected() {
        // Spelled in pieces so a tree-wide grep for a retired flag stays
        // empty.
        for flag in [["--event", "heap"].join("-"), ["--", "dense"].concat()] {
            let e = parse(&format!("run {flag}")).unwrap_err();
            assert!(e.contains(&flag), "{e}");

            let dir = std::env::temp_dir()
                .join(format!("outran-cli-retired{flag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ckpt = dir.join("old.orsn");
            let o = parse("--users 2 --secs 1").unwrap();
            let mut argv = canonical_argv(&o);
            argv.push(flag.clone());
            let meta = outran_ran::CheckpointMeta {
                argv,
                sim_time: Time::ZERO,
                dense: false,
                n_cells: 1,
            };
            let cell = build_experiment(&o).build_cell();
            outran_ran::checkpoint::write_checkpoint(&ckpt, &meta, &[&cell]).unwrap();
            let e = run(&parse(&format!("resume {}", ckpt.display())).unwrap()).unwrap_err();
            assert!(
                e.contains("embedded argv") && e.contains("failed to parse") && e.contains(&flag),
                "{e}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn metro_flag_parsing() {
        let o = parse(
            "metro --sites 2 --sectors 3 --isd 350 --slots 8 --ues 10 \
             --vehicle-mps 30 --corridor-frac 0.5 --hysteresis 2.5 --ttt 3 \
             --load 0.3 --secs 4 --seed 5 --chaos 0.4",
        )
        .unwrap();
        assert_eq!(o.command, Command::Metro);
        assert_eq!((o.sites, o.sectors, o.slots, o.ues), (2, 3, 8, 10));
        assert!((o.isd - 350.0).abs() < 1e-12);
        assert!((o.vehicle_mps - 30.0).abs() < 1e-12);
        assert!((o.corridor_frac - 0.5).abs() < 1e-12);
        assert!((o.hysteresis - 2.5).abs() < 1e-12);
        assert_eq!(o.ttt, 3);
        assert_eq!(o.chaos, Some(0.4));
        // Metro defaults mirror Network::metro.
        let d = parse("metro").unwrap();
        assert_eq!((d.sites, d.sectors, d.slots, d.ues), (7, 3, 8, 96));
        assert_eq!(d.chaos, None);
    }

    #[test]
    fn metro_validation_errors() {
        assert!(parse("metro --sites 0").is_err());
        assert!(parse("metro --ttt 0").is_err());
        assert!(parse("metro --isd 0").is_err());
        assert!(parse("metro --corridor-frac 1.5").is_err());
        assert!(parse("metro --chaos 2").is_err());
        assert!(parse("metro --reps 3").is_err());
        for hostile in [
            "metro --hysteresis NaN",
            "metro --hysteresis -1",
            "metro --vehicle-mps NaN",
            "metro --vehicle-mps inf",
            "metro --isd inf",
            "metro --isd NaN",
            "metro --ttt 4294967296",
            "metro --sites 18446744073709551615 --sectors 18446744073709551615 --ues 0",
            "metro --sites 4294967296 --sectors 4294967296 --secs 1",
            "metro --sites 100000000 --ues 10 --secs 1",
            "metro --sectors 100000 --secs 1",
            "metro --ues 1000000000000 --sites 1000000000000 --secs 1",
        ] {
            assert!(parse(hostile).is_err(), "accepted '{hostile}'");
        }
        // More UEs than attach slots.
        assert!(parse("metro --sites 1 --sectors 1 --slots 4 --ues 5").is_err());
    }

    /// Each metro size flag has a finite range, and the deployment
    /// products are refused past their limits even when every factor is
    /// in range.
    #[test]
    fn metro_sizes_are_bounded() {
        for (hostile, named) in [
            (
                "metro --sites 4294967296 --sectors 4294967296 --secs 1",
                "--sites",
            ),
            ("metro --sites 100000000 --ues 10 --secs 1", "--sites"),
            ("metro --sectors 100000 --secs 1", "--sectors"),
            ("metro --ues 1000000000000 --sites 1000000000000", "--ues"),
            ("metro --sites 4096 --sectors 2", "4096 cells"),
            (
                "metro --sites 64 --sectors 1 --slots 65536",
                "2097152 attach slots",
            ),
            (
                "metro --sites 4096 --sectors 1 --slots 8 --ues 32768",
                "(UE, cell) pairs",
            ),
        ] {
            let e = parse(hostile).unwrap_err();
            assert!(e.contains(named), "'{hostile}': {e}");
        }
        let o = parse("metro --sites 4096 --sectors 1 --slots 512 --ues 4096").unwrap();
        assert_eq!((o.sites, o.slots, o.ues), (4096, 512, 4096));
        assert!(parse("metro --sites 8 --sectors 4 --slots 65536 --ues 524288").is_ok());
    }

    #[test]
    fn metro_smoke() {
        // A tiny coupled run end-to-end through the CLI path.
        let o = parse(
            "metro --sites 2 --isd 350 --slots 8 --ues 8 --vehicle-mps 30 \
             --corridor-frac 0.5 --load 0.25 --secs 2 --seed 3 --scheduler pf",
        )
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn metro_checkpoint_then_cli_resume() {
        let dir = std::env::temp_dir().join(format!("outran-cli-metro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap();
        let o = parse(&format!(
            "metro --sites 2 --isd 350 --slots 8 --ues 8 --vehicle-mps 30 \
             --corridor-frac 0.5 --load 0.25 --secs 3 --seed 3 --scheduler pf \
             --checkpoint-every 2 --checkpoint-dir {dirs}"
        ))
        .unwrap();
        run(&o).unwrap();
        let ckpt = dir.join("metro-ckpt-2s.orsn");
        assert!(ckpt.exists(), "expected metro checkpoint at {ckpt:?}");
        // The resume dispatcher must detect the network section and
        // rebuild the deployment from the embedded argv.
        run(&parse(&format!("resume {}", ckpt.display())).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_failure_is_an_error() {
        // /dev/null is a file, so no directory can be created beneath it
        // and the atomic write must fail cleanly.
        let o = parse("--users 3 --load 0.3 --secs 1 --csv /dev/null/x.csv").unwrap();
        let e = run(&o).unwrap_err();
        assert!(e.contains("csv write"), "{e}");
    }
}
