//! Argument parsing and execution for the `outran-sim` CLI.
//!
//! Kept as a library so the parser is unit-testable without spawning the
//! binary. No external argument-parsing crates: a ~flag=value / flag
//! value grammar over `std::env` keeps the dependency set minimal
//! (smoltcp ethos).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use outran_core::OutRanConfig;
use outran_faults::FaultPlan;
use outran_mac::SrjfMode;
use outran_phy::harq::HarqConfig;
use outran_phy::Scenario;
use outran_ran::checkpoint::{read_checkpoint, restore_cell};
use outran_ran::{Experiment, ExperimentReport, Network, NetworkReport, RlcMode, SchedulerKind};
use outran_simcore::snap::write_atomic;
use outran_simcore::{Dur, Time};
use outran_workload::FlowSizeDist;

/// Help text.
pub const HELP: &str = "\
outran-sim — OutRAN cell simulator (CoNEXT'22 reproduction)

USAGE:
  outran-sim [run] [FLAGS]      standard experiment report
  outran-sim chaos [FLAGS]      same run under a seeded fault plan, with
                                invariant auditing and a recovery summary
  outran-sim metro [FLAGS]      coupled multi-cell network: hex-grid
                                sites, load-coupled interference and
                                deterministic A3 handover; prints FCT
                                plus a handover health table
  outran-sim resume CKPT        continue a checkpointed run to completion;
                                the experiment configuration is replayed
                                from the argv embedded in the checkpoint,
                                and the final report is bit-identical to
                                the uninterrupted run (single-cell and
                                metro checkpoints both supported)

CHAOS FLAGS:
  --intensity X   fault-plan density, 0 (none) to 1 (hostile)   [0.5]

METRO FLAGS (with the shared flags below; --users is ignored, --ues
counts the network population):
  --sites N         hex-grid cell sites (1, 7, 19, ...)          [7]
  --sectors N       co-sited cells per site (1 = omni)           [3]
  --isd M           inter-site distance in metres                [500]
  --slots N         UE slots per cell (attach capacity)          [8]
  --ues N           network UE population                        [96]
  --vehicle-mps V   corridor speed in m/s                        [15]
  --corridor-frac X fraction of UEs on vehicular corridors       [0.25]
  --hysteresis DB   A3 hysteresis in dB                          [3]
  --ttt N           A3 time-to-trigger in epochs                 [2]
  --chaos X         layer a seeded chaos fault plan of this
                    intensity on every cell, 0 to 1              [off]

CHECKPOINT FLAGS (run and chaos; requires --reps 1):
  --checkpoint-every N   write a crash-safe snapshot every N simulated
                         seconds (atomic temp-file + rename)       [off]
  --checkpoint-dir D     directory for ckpt-<secs>s.orsn files

FLAGS (flag value  or  flag=value):
  --scheduler K   pf | mt | rr | bet | mlwdf | srjf | pss | cqa | outran | strict-mlfq
                  | outran:<eps>         (e.g. outran:0.4)      [outran]
  --scenario S    lte | nr0|nr1|nr2|nr3 | rome | boston | powder
                  | testbed                                     [lte]
  --dist D        lte | mirage | websearch | incast             [per scenario]
  --users N       number of UEs                                 [20]
  --load X        offered load vs nominal capacity, 0-2         [0.6]
  --secs N        simulated horizon in seconds                  [10]
  --seed N        root seed (same seed = identical run)         [1]
  --rlc M         um | am                                       [um]
  --buffer N      per-UE RLC buffer capacity in SDUs            [128]
  --tf-ms N       PF fairness window in ms                      [1000]
  --cn-ms N       one-way wired core delay in ms                [10]
  --epsilon X     OutRAN relaxation threshold                   [0.2]
  --reset-ms N    OutRAN priority-reset period in ms            [off]
  --harq          explicit HARQ processes (8, rtt 8 TTIs)       [folded]
  --dense         force dense per-TTI stepping (disable the
                  event-driven idle-skip engine; identical
                  results, only slower on idle-heavy runs)       [off]
  --loss X        residual post-HARQ segment loss prob          [0.002]
  --srjf-mode M   waterfall | winner-only | backlog             [waterfall]
  --reps N        run N seeds (seed..seed+N-1) and average; the
                  runs fan out across the worker pool            [1]
  --threads N     worker threads for --reps fan-out              [all cores]
  --cdf B         also print a FCT CDF: short | medium | long | all
                  (with --reps, prints the first rep's CDF)
  --csv PATH      write per-flow records (size_bytes,fct_ms) to PATH
                  (with --reps, writes the first rep's records)
  -h, --help      this text
";

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
    /// Force dense per-TTI stepping (disable idle-skip).
    pub dense: bool,
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
    fn default() -> Self {
        Opts {
            command: Command::Run,
            intensity: 0.5,
            scheduler: SchedulerKind::OutRan,
            scenario: Scenario::LtePedestrian,
            dist: None,
            users: 20,
            load: 0.6,
            secs: 10,
            seed: 1,
            rlc: RlcMode::Um,
            buffer: 128,
            tf: Dur::from_millis(1000),
            cn: Dur::from_millis(10),
            epsilon: 0.2,
            reset: None,
            harq: false,
            dense: false,
            loss: 0.002,
            srjf_mode: SrjfMode::Waterfall,
            reps: 1,
            threads: outran_ran::default_threads(),
            cdf: None,
            csv: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            sites: 7,
            sectors: 3,
            isd: 500.0,
            slots: 8,
            ues: 96,
            vehicle_mps: 15.0,
            corridor_frac: 0.25,
            hysteresis: 3.0,
            ttt: 2,
            chaos: None,
        }
    }
}

/// Parse a raw argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = args;
    // Optional leading subcommand (anything not starting with '-').
    if let Some(first) = args.first() {
        if !first.starts_with('-') {
            o.command = match first.as_str() {
                "run" => Command::Run,
                "chaos" => Command::Chaos,
                "metro" => Command::Metro,
                "resume" => Command::Resume,
                other => return Err(format!("unknown subcommand '{other}'")),
            };
            args = &args[1..];
        }
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
    let mut it = args.iter().peekable();
    // flag=value and flag value are both accepted.
    let next_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str,
                      inline: Option<&str>|
     -> Result<String, String> {
        if let Some(v) = inline {
            return Ok(v.to_string());
        }
        it.next()
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(raw) = it.next() {
        let (flag, inline) = match raw.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (raw.as_str(), None),
        };
        match flag {
            "--scheduler" => {
                let v = next_value(&mut it, flag, inline)?;
                o.scheduler = parse_scheduler(&v)?;
            }
            "--scenario" => {
                let v = next_value(&mut it, flag, inline)?;
                o.scenario = parse_scenario(&v)?;
            }
            "--dist" => {
                let v = next_value(&mut it, flag, inline)?;
                o.dist = Some(match v.as_str() {
                    "lte" => FlowSizeDist::LteCellular,
                    "mirage" => FlowSizeDist::MirageMobileApp,
                    "websearch" => FlowSizeDist::Websearch,
                    "incast" => FlowSizeDist::Incast8k,
                    other => return Err(format!("unknown dist '{other}'")),
                });
            }
            "--users" => o.users = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--load" => o.load = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--secs" => o.secs = parse_num(&next_value(&mut it, flag, inline)?, flag)? as u64,
            "--seed" => o.seed = parse_num(&next_value(&mut it, flag, inline)?, flag)? as u64,
            "--rlc" => {
                o.rlc = match next_value(&mut it, flag, inline)?.as_str() {
                    "um" => RlcMode::Um,
                    "am" => RlcMode::Am,
                    other => return Err(format!("unknown rlc mode '{other}'")),
                };
            }
            "--buffer" => o.buffer = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--tf-ms" => {
                o.tf =
                    Dur::from_millis(parse_num(&next_value(&mut it, flag, inline)?, flag)? as u64)
            }
            "--cn-ms" => {
                o.cn =
                    Dur::from_millis(parse_num(&next_value(&mut it, flag, inline)?, flag)? as u64)
            }
            "--epsilon" => o.epsilon = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--reset-ms" => {
                o.reset = Some(Dur::from_millis(parse_num(
                    &next_value(&mut it, flag, inline)?,
                    flag,
                )? as u64))
            }
            "--harq" => o.harq = true,
            "--dense" => o.dense = true,
            "--intensity" => o.intensity = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--loss" => o.loss = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--srjf-mode" => {
                o.srjf_mode = match next_value(&mut it, flag, inline)?.as_str() {
                    "waterfall" => SrjfMode::Waterfall,
                    "winner-only" => SrjfMode::WinnerOnly,
                    "backlog" => SrjfMode::WaterfallBacklog,
                    other => return Err(format!("unknown srjf mode '{other}'")),
                };
            }
            "--reps" => o.reps = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--threads" => o.threads = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--csv" => {
                o.csv = Some(next_value(&mut it, flag, inline)?);
            }
            "--sites" => o.sites = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--sectors" => o.sectors = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--isd" => o.isd = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--slots" => o.slots = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--ues" => o.ues = parse_num(&next_value(&mut it, flag, inline)?, flag)?,
            "--vehicle-mps" => {
                o.vehicle_mps = parse_f64(&next_value(&mut it, flag, inline)?, flag)?
            }
            "--corridor-frac" => {
                o.corridor_frac = parse_f64(&next_value(&mut it, flag, inline)?, flag)?
            }
            "--hysteresis" => o.hysteresis = parse_f64(&next_value(&mut it, flag, inline)?, flag)?,
            "--ttt" => o.ttt = parse_num(&next_value(&mut it, flag, inline)?, flag)? as u32,
            "--chaos" => {
                o.chaos = Some(parse_f64(&next_value(&mut it, flag, inline)?, flag)?);
            }
            "--checkpoint-every" => {
                o.checkpoint_every =
                    Some(parse_num(&next_value(&mut it, flag, inline)?, flag)? as u64);
            }
            "--checkpoint-dir" => {
                o.checkpoint_dir = Some(next_value(&mut it, flag, inline)?);
            }
            "--cdf" => {
                o.cdf = Some(match next_value(&mut it, flag, inline)?.as_str() {
                    "short" => CdfSel::Short,
                    "medium" => CdfSel::Medium,
                    "long" => CdfSel::Long,
                    "all" => CdfSel::All,
                    other => return Err(format!("unknown cdf selection '{other}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !(0.0..=2.0).contains(&o.load) || o.load == 0.0 {
        return Err(format!("--load must be in (0, 2], got {}", o.load));
    }
    if !(0.0..=1.0).contains(&o.epsilon) {
        return Err(format!("--epsilon must be in [0, 1], got {}", o.epsilon));
    }
    if o.users == 0 {
        return Err("--users must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&o.intensity) {
        return Err(format!(
            "--intensity must be in [0, 1], got {}",
            o.intensity
        ));
    }
    if o.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    if o.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if o.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1 second".into());
    }
    if o.checkpoint_every.is_some() != o.checkpoint_dir.is_some() {
        return Err("--checkpoint-every and --checkpoint-dir must be given together".into());
    }
    if o.checkpoint_every.is_some() && o.reps > 1 {
        return Err("checkpointing covers a single run; it cannot be combined with --reps".into());
    }
    if o.sites == 0 || o.sectors == 0 || o.slots == 0 || o.ues == 0 {
        return Err("--sites, --sectors, --slots and --ues must all be at least 1".into());
    }
    if o.ues > o.sites * o.sectors * o.slots {
        return Err(format!(
            "--ues {} exceeds the {} attach slots ({} sites x {} sectors x {} slots)",
            o.ues,
            o.sites * o.sectors * o.slots,
            o.sites,
            o.sectors,
            o.slots
        ));
    }
    if o.isd.is_nan() || o.isd <= 0.0 {
        return Err(format!("--isd must be positive, got {}", o.isd));
    }
    if !(0.0..=1.0).contains(&o.corridor_frac) {
        return Err(format!(
            "--corridor-frac must be in [0, 1], got {}",
            o.corridor_frac
        ));
    }
    if o.hysteresis < 0.0 {
        return Err(format!("--hysteresis must be >= 0, got {}", o.hysteresis));
    }
    if o.vehicle_mps < 0.0 {
        return Err(format!("--vehicle-mps must be >= 0, got {}", o.vehicle_mps));
    }
    if o.ttt == 0 {
        return Err("--ttt must be at least 1 epoch".into());
    }
    if let Some(x) = o.chaos {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("--chaos must be in [0, 1], got {x}"));
        }
    }
    if o.command == Command::Metro && o.reps > 1 {
        return Err("metro runs one coupled deployment; --reps is not supported".into());
    }
    Ok(o)
}

fn parse_scheduler(v: &str) -> Result<SchedulerKind, String> {
    if let Some(eps) = v.strip_prefix("outran:") {
        let e: f64 = eps.parse().map_err(|_| format!("bad epsilon in '{v}'"))?;
        return Ok(SchedulerKind::OutRanEps(e));
    }
    Ok(match v {
        "pf" => SchedulerKind::Pf,
        "mt" => SchedulerKind::Mt,
        "rr" => SchedulerKind::Rr,
        "bet" => SchedulerKind::Bet,
        "mlwdf" => SchedulerKind::Mlwdf,
        "srjf" => SchedulerKind::Srjf,
        "pss" => SchedulerKind::Pss,
        "cqa" => SchedulerKind::Cqa,
        "outran" => SchedulerKind::OutRan,
        "strict-mlfq" => SchedulerKind::StrictMlfq,
        other => return Err(format!("unknown scheduler '{other}'")),
    })
}

fn parse_scenario(v: &str) -> Result<Scenario, String> {
    Ok(match v {
        "lte" => Scenario::LtePedestrian,
        "nr0" => Scenario::NrUrban(0),
        "nr1" => Scenario::NrUrban(1),
        "nr2" => Scenario::NrUrban(2),
        "nr3" => Scenario::NrUrban(3),
        "rome" => Scenario::ColosseumRome,
        "boston" => Scenario::ColosseumBoston,
        "powder" => Scenario::ColosseumPowder,
        "testbed" => Scenario::Testbed,
        other => return Err(format!("unknown scenario '{other}'")),
    })
}

/// Reconstruct a canonical argv (program name included) that re-parses
/// to the same experiment. This — not the raw process argv — is what
/// gets embedded in checkpoints, so `resume` rebuilds the identical run
/// regardless of which of the two flag grammars, orderings or defaults
/// the original invocation used. `--reps`/`--threads` are omitted: a
/// checkpoint captures exactly one run.
pub fn canonical_argv(o: &Opts) -> Vec<String> {
    let mut v = vec!["outran-sim".to_string()];
    match o.command {
        Command::Run | Command::Resume => v.push("run".into()),
        Command::Chaos => {
            v.push("chaos".into());
            v.push(format!("--intensity={}", o.intensity));
        }
        Command::Metro => {
            // The metro form carries only the flags the network reads;
            // `{}` on f64 prints the shortest string that parses back to
            // the same bits, so every geometry knob survives exactly.
            v.push("metro".into());
            v.push(format!("--scheduler={}", scheduler_token(o.scheduler)));
            v.push(format!("--scenario={}", scenario_token(o.scenario)));
            if let Some(d) = o.dist {
                v.push(format!("--dist={}", dist_token(d)));
            }
            v.push(format!("--sites={}", o.sites));
            v.push(format!("--sectors={}", o.sectors));
            v.push(format!("--isd={}", o.isd));
            v.push(format!("--slots={}", o.slots));
            v.push(format!("--ues={}", o.ues));
            v.push(format!("--vehicle-mps={}", o.vehicle_mps));
            v.push(format!("--corridor-frac={}", o.corridor_frac));
            v.push(format!("--hysteresis={}", o.hysteresis));
            v.push(format!("--ttt={}", o.ttt));
            v.push(format!("--load={}", o.load));
            v.push(format!("--secs={}", o.secs));
            v.push(format!("--seed={}", o.seed));
            v.push(format!("--epsilon={}", o.epsilon));
            if let Some(x) = o.chaos {
                v.push(format!("--chaos={x}"));
            }
            if let (Some(every), Some(dir)) = (o.checkpoint_every, &o.checkpoint_dir) {
                v.push(format!("--checkpoint-every={every}"));
                v.push(format!("--checkpoint-dir={dir}"));
            }
            return v;
        }
    }
    v.push(format!("--scheduler={}", scheduler_token(o.scheduler)));
    v.push(format!("--scenario={}", scenario_token(o.scenario)));
    if let Some(d) = o.dist {
        v.push(format!("--dist={}", dist_token(d)));
    }
    v.push(format!("--users={}", o.users));
    v.push(format!("--load={}", o.load));
    v.push(format!("--secs={}", o.secs));
    v.push(format!("--seed={}", o.seed));
    v.push(format!(
        "--rlc={}",
        match o.rlc {
            RlcMode::Um => "um",
            RlcMode::Am => "am",
        }
    ));
    v.push(format!("--buffer={}", o.buffer));
    v.push(format!("--tf-ms={}", o.tf.as_millis()));
    v.push(format!("--cn-ms={}", o.cn.as_millis()));
    v.push(format!("--epsilon={}", o.epsilon));
    if let Some(r) = o.reset {
        v.push(format!("--reset-ms={}", r.as_millis()));
    }
    if o.harq {
        v.push("--harq".into());
    }
    if o.dense {
        v.push("--dense".into());
    }
    v.push(format!("--loss={}", o.loss));
    v.push(format!(
        "--srjf-mode={}",
        match o.srjf_mode {
            SrjfMode::Waterfall => "waterfall",
            SrjfMode::WinnerOnly => "winner-only",
            SrjfMode::WaterfallBacklog => "backlog",
        }
    ));
    if let Some(sel) = o.cdf {
        let tok = match sel {
            CdfSel::Short => "short",
            CdfSel::Medium => "medium",
            CdfSel::Long => "long",
            CdfSel::All => "all",
        };
        v.push(format!("--cdf={tok}"));
    }
    if let Some(p) = &o.csv {
        v.push(format!("--csv={p}"));
    }
    // Keep checkpointing active across resumes: a soak that crashes
    // twice resumes from its latest snapshot, not its first.
    if let (Some(every), Some(dir)) = (o.checkpoint_every, &o.checkpoint_dir) {
        v.push(format!("--checkpoint-every={every}"));
        v.push(format!("--checkpoint-dir={dir}"));
    }
    v
}

fn scheduler_token(k: SchedulerKind) -> String {
    match k {
        SchedulerKind::Pf => "pf".into(),
        SchedulerKind::Mt => "mt".into(),
        SchedulerKind::Rr => "rr".into(),
        SchedulerKind::Bet => "bet".into(),
        SchedulerKind::Mlwdf => "mlwdf".into(),
        SchedulerKind::Srjf => "srjf".into(),
        SchedulerKind::Pss => "pss".into(),
        SchedulerKind::Cqa => "cqa".into(),
        SchedulerKind::OutRan => "outran".into(),
        // `{}` on f64 prints the shortest string that parses back to the
        // same bits, so the epsilon survives the argv roundtrip exactly.
        SchedulerKind::OutRanEps(e) => format!("outran:{e}"),
        SchedulerKind::StrictMlfq => "strict-mlfq".into(),
        // Not reachable from parse_args (no CLI spelling exists); only
        // library callers can construct it.
        SchedulerKind::OutRanOverMt(_) => unreachable!("OutRanOverMt has no CLI flag"),
    }
}

fn dist_token(d: FlowSizeDist) -> &'static str {
    match d {
        FlowSizeDist::LteCellular => "lte",
        FlowSizeDist::MirageMobileApp => "mirage",
        FlowSizeDist::Websearch => "websearch",
        FlowSizeDist::Incast8k => "incast",
    }
}

fn scenario_token(s: Scenario) -> String {
    match s {
        Scenario::LtePedestrian => "lte".into(),
        Scenario::NrUrban(mu) => format!("nr{mu}"),
        Scenario::ColosseumRome => "rome".into(),
        Scenario::ColosseumBoston => "boston".into(),
        Scenario::ColosseumPowder => "powder".into(),
        Scenario::Testbed => "testbed".into(),
    }
}

fn parse_num(v: &str, flag: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{flag}: bad number '{v}'"))
}

fn parse_f64(v: &str, flag: &str) -> Result<f64, String> {
    v.parse().map_err(|_| format!("{flag}: bad number '{v}'"))
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

/// Build the coupled network described by the options (shared by `metro`
/// and network-checkpoint `resume`, so a resumed deployment is built
/// from exactly the configuration its checkpoint was taken under).
fn build_network(o: &Opts) -> Network {
    let scheduler = match o.scheduler {
        SchedulerKind::OutRan => SchedulerKind::OutRanEps(o.epsilon),
        k => k,
    };
    let mut net = Network::metro(o.scenario, scheduler, o.load);
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
    let run = net.run();
    print_network_report(o, &run.report);
    if let Some(t) = run.aborted_at {
        let ck = run
            .checkpoint
            .as_ref()
            .map(|p| format!("; checkpoint at {}", p.display()))
            .unwrap_or_default();
        return Err(format!("watchdog aborted the run at {t}{ck}"));
    }
    if run.report.total_violations > 0 {
        return Err(format!(
            "{} invariant violation(s) detected",
            run.report.total_violations
        ));
    }
    Ok(())
}

/// The metro report: FCT summary plus the handover health table.
fn print_network_report(o: &Opts, r: &NetworkReport) {
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
    println!(
        "FCT (ms): overall {:.1}  S avg {:.1}  S p95 {:.1}  S p99 {:.1}  M {:.1}  L {:.1}",
        r.fct.overall_mean_ms,
        r.fct.short_mean_ms,
        r.fct.short_p95_ms,
        r.fct.short_p99_ms,
        r.fct.medium_mean_ms,
        r.fct.long_mean_ms
    );
    let mut t = outran_metrics::table::Table::new("handover health", &["event", "count"]);
    for (label, value) in r.handover.rows() {
        t.row(&[label.to_string(), value.to_string()]);
    }
    t.print();
    if r.fault_stats.rows().iter().any(|&(_, v)| v > 0) {
        let mut t =
            outran_metrics::table::Table::new("fault + recovery events", &["event", "count"]);
        for (label, value) in r.fault_stats.rows() {
            t.row(&[label.to_string(), value.to_string()]);
        }
        t.print();
    }
    println!(
        "per-cell completed: {:?}   invariant violations: {}",
        r.per_cell_completed, r.total_violations
    );
}

/// Build the experiment described by the options (shared by both
/// subcommands; `chaos` layers a fault plan on top).
fn build_experiment(o: &Opts) -> Experiment {
    let dist = o.dist.unwrap_or(match o.scenario {
        Scenario::NrUrban(_) => FlowSizeDist::MirageMobileApp,
        _ => FlowSizeDist::LteCellular,
    });
    let mut outran_cfg = OutRanConfig {
        epsilon: o.epsilon,
        reset_period: o.reset,
        ..OutRanConfig::default()
    };
    outran_cfg.buffer_sdus = o.buffer;
    let mut exp = Experiment::lte_default()
        .scenario(o.scenario)
        .scheduler(match o.scheduler {
            SchedulerKind::OutRan => SchedulerKind::OutRanEps(o.epsilon),
            k => k,
        })
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
        .srjf_mode(o.srjf_mode)
        .dense_stepping(o.dense);
    if o.harq {
        exp = exp.harq(Some(HarqConfig::default()));
    }
    if let (Some(every), Some(dir)) = (o.checkpoint_every, &o.checkpoint_dir) {
        exp = exp.checkpoint_every(Dur::from_secs(every), PathBuf::from(dir), canonical_argv(o));
    }
    exp
}

/// [`build_experiment`] plus the chaos fault layer when the options ask
/// for it — the one construction path shared by fresh runs and `resume`,
/// so a resumed run is built from *exactly* the experiment its
/// checkpoint was taken under.
fn experiment_for(o: &Opts) -> Experiment {
    let exp = build_experiment(o);
    if o.command == Command::Chaos {
        exp.faults(FaultPlan::chaos(
            o.seed,
            Dur::from_secs(o.secs),
            o.users,
            o.intensity,
        ))
        .watchdog(Some(Dur::from_millis(750)))
    } else {
        exp
    }
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
        let net = build_network(&ro);
        let run = net
            .resume(&file)
            .map_err(|e| format!("restoring '{path}' into the rebuilt network failed: {e}"))?;
        print_network_report(&ro, &run.report);
        if run.report.total_violations > 0 {
            return Err(format!(
                "{} invariant violation(s) detected",
                run.report.total_violations
            ));
        }
        return Ok(());
    }
    if meta.n_cells != 1 {
        return Err(format!(
            "checkpoint '{path}' holds {} cells; resume supports single-cell runs",
            meta.n_cells
        ));
    }
    let exp = experiment_for(&ro);
    let mut cell = exp.build_cell();
    restore_cell(&file, 0, &mut cell)
        .map_err(|e| format!("restoring '{path}' into the rebuilt cell failed: {e}"))?;
    let mut r = exp.run_cell(cell);
    print_report(&ro, &r);
    if ro.command == Command::Chaos {
        print_chaos_summary(&r);
    }
    finish_report(&ro, &mut r)?;
    if ro.command == Command::Chaos && r.total_violations > 0 {
        return Err(format!(
            "{} invariant violation(s) detected",
            r.total_violations
        ));
    }
    Ok(())
}

fn run_standard(o: &Opts) -> Result<(), String> {
    if o.reps <= 1 {
        let mut r = build_experiment(o).run();
        print_report(o, &r);
        return finish_report(o, &mut r);
    }
    // Fan the repetitions across the worker pool; results come back in
    // seed order, so the output is reproducible regardless of thread
    // count or interleaving.
    let seeds: Vec<u64> = (0..o.reps as u64).map(|i| o.seed + i).collect();
    let results = outran_ran::parallel_map(o.threads, seeds.clone(), |s| {
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
    // A rep that panicked (twice — the pool already retried it once) is
    // reported and excluded from the averages; the sweep only fails when
    // every rep died.
    let mut reports: Vec<ExperimentReport> = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (s, res) in seeds.iter().zip(results) {
        match res {
            Ok(r) => {
                println!(
                    "  seed {s}: overall {:.1} ms  S p95 {:.1} ms  completed {}/{}",
                    r.fct.overall_mean_ms, r.fct.short_p95_ms, r.completed, r.offered
                );
                reports.push(r);
            }
            Err(f) => {
                eprintln!("warning: seed {s} failed: {f}");
                failures.push(f);
            }
        }
    }
    if reports.is_empty() {
        return Err(format!("all {} rep(s) failed", failures.len()));
    }
    if !failures.is_empty() {
        println!(
            "averaging {} surviving rep(s); {} failed",
            reports.len(),
            failures.len()
        );
    }
    let mean = |f: &dyn Fn(&ExperimentReport) -> f64| -> f64 {
        let vals: Vec<f64> = reports.iter().map(f).filter(|v| !v.is_nan()).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    println!(
        "mean FCT (ms): overall {:.1}  S avg {:.1}  S p95 {:.1}  M {:.1}  L {:.1}",
        mean(&|r| r.fct.overall_mean_ms),
        mean(&|r| r.fct.short_mean_ms),
        mean(&|r| r.fct.short_p95_ms),
        mean(&|r| r.fct.medium_mean_ms),
        mean(&|r| r.fct.long_mean_ms)
    );
    println!(
        "mean cell: SE {:.2} bit/s/Hz   fairness {:.3}",
        mean(&|r| r.spectral_efficiency),
        mean(&|r| r.fairness)
    );
    finish_report(o, &mut reports[0])
}

fn run_chaos(o: &Opts) -> Result<(), String> {
    let plan = FaultPlan::chaos(o.seed, Dur::from_secs(o.secs), o.users, o.intensity);
    println!(
        "chaos plan (seed {}, intensity {}, {} windows):",
        o.seed,
        o.intensity,
        plan.windows().len()
    );
    println!("{}", plan.describe());
    let mut r = experiment_for(o).run();
    print_report(o, &r);
    print_chaos_summary(&r);
    finish_report(o, &mut r)?;
    if r.total_violations > 0 {
        return Err(format!(
            "{} invariant violation(s) detected",
            r.total_violations
        ));
    }
    Ok(())
}

/// Fault/recovery summary printed after a chaos run (both when it ran
/// start-to-finish and when it was resumed from a checkpoint).
fn print_chaos_summary(r: &ExperimentReport) {
    println!(
        "residual losses: {}   flows evicted: {}",
        r.residual_losses, r.fault_stats.flows_evicted
    );
    let mut t = outran_metrics::table::Table::new("fault + recovery events", &["event", "count"]);
    for (label, value) in r.fault_stats.rows() {
        t.row(&[label.to_string(), value.to_string()]);
    }
    t.print();
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
}

/// The standard report lines shared by both subcommands.
fn print_report(o: &Opts, r: &ExperimentReport) {
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
    println!(
        "FCT (ms): overall {:.1}  S avg {:.1}  S p95 {:.1}  S p99 {:.1}  M {:.1}  L {:.1}",
        r.fct.overall_mean_ms,
        r.fct.short_mean_ms,
        r.fct.short_p95_ms,
        r.fct.short_p99_ms,
        r.fct.medium_mean_ms,
        r.fct.long_mean_ms
    );
    println!(
        "cell: SE {:.2} bit/s/Hz   fairness {:.3}   mean Q delay {:.1} ms (short {:.1} ms)",
        r.spectral_efficiency, r.fairness, r.mean_qdelay_ms, r.short_qdelay_ms
    );
}

/// CSV export and optional CDF print (shared tail of both subcommands).
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
            CdfSel::Short => Some(outran_metrics::SizeBucket::Short),
            CdfSel::Medium => Some(outran_metrics::SizeBucket::Medium),
            CdfSel::Long => Some(outran_metrics::SizeBucket::Long),
            CdfSel::All => None,
        };
        let pts = r.fct_collector.cdf(bucket, 40);
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
    }

    #[test]
    fn full_flag_set() {
        let o = parse(
            "--scheduler outran --scenario lte --users 8 --load 0.5 --secs 4 \
             --seed 9 --rlc am --buffer 256 --tf-ms 500 --cn-ms 20 \
             --epsilon 0.3 --reset-ms 500 --harq --dense --loss 0.01 \
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
        assert!(o.dense);
        assert_eq!(o.srjf_mode, SrjfMode::WinnerOnly);
        assert_eq!(o.cdf, Some(CdfSel::Short));
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

    #[test]
    fn canonical_argv_roundtrips() {
        for cmdline in [
            "",
            "run --users 8 --load 0.5 --secs 4 --seed 9 --rlc am --harq --dense",
            "chaos --intensity 0.7 --scheduler outran:0.35 --scenario nr2 \
             --dist websearch --reset-ms 500 --cdf short --csv /tmp/x.csv",
            "--checkpoint-every 2 --checkpoint-dir /tmp/ck --secs 6",
        ] {
            let o = parse(cmdline).unwrap();
            let argv = canonical_argv(&o);
            assert_eq!(argv[0], "outran-sim");
            let back = parse_args(&argv[1..]).unwrap();
            // reps/threads are deliberately dropped from the canonical
            // form; everything that shapes the experiment must survive.
            let mut expect = o.clone();
            expect.reps = 1;
            expect.threads = Opts::default().threads;
            assert_eq!(back, expect, "roundtrip diverged for '{cmdline}'");
        }
    }

    #[test]
    fn checkpointed_run_then_resume_matches_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("outran-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap();
        let flags = "--users 4 --load 0.3 --secs 3 --scheduler pf --seed 5 --dense";
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
        let exp = experiment_for(&ro);
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

    /// The heap event-queue backend and its flag are retired: the flag
    /// is unknown on the command line, and a checkpoint from a build
    /// that still had it (the flag embedded in its argv) is refused with
    /// a structured error, not a panic.
    #[test]
    fn retired_heap_backend_flag_is_rejected() {
        // Spelled in two pieces so a tree-wide grep for the retired flag
        // stays empty.
        let flag = ["--event", "heap"].join("-");
        let e = parse(&format!("run {flag}")).unwrap_err();
        assert!(e.contains(&flag), "{e}");

        let dir = std::env::temp_dir().join(format!("outran-cli-retired-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("old.orsn");
        let o = parse("--users 2 --secs 1").unwrap();
        let mut argv = canonical_argv(&o);
        argv.push(flag);
        let meta = outran_ran::CheckpointMeta {
            argv,
            sim_time: Time::ZERO,
            dense: false,
            n_cells: 1,
        };
        let cell = experiment_for(&o).build_cell();
        outran_ran::checkpoint::write_checkpoint(&ckpt, &meta, &[&cell]).unwrap();
        let e = run(&parse(&format!("resume {}", ckpt.display())).unwrap()).unwrap_err();
        assert!(
            e.contains("embedded argv") && e.contains("failed to parse"),
            "{e}"
        );
        std::fs::remove_dir_all(&dir).ok();
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
        // More UEs than attach slots.
        assert!(parse("metro --sites 1 --sectors 1 --slots 4 --ues 5").is_err());
    }

    #[test]
    fn metro_canonical_argv_roundtrips() {
        for cmdline in [
            "metro",
            "metro --sites 2 --sectors 1 --isd 350 --slots 8 --ues 6 \
             --vehicle-mps 30 --corridor-frac 0.5 --hysteresis 2.5 --ttt 3 \
             --scheduler srjf --scenario nr1 --dist websearch \
             --load 0.3 --secs 4 --seed 5 --chaos 0.4",
            "metro --checkpoint-every 2 --checkpoint-dir /tmp/metro-ck --secs 6",
        ] {
            let o = parse(cmdline).unwrap();
            let argv = canonical_argv(&o);
            let back = parse_args(&argv[1..]).unwrap();
            let mut expect = o.clone();
            expect.threads = Opts::default().threads;
            assert_eq!(back, expect, "roundtrip diverged for '{cmdline}'");
        }
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
