//! Scripted fault timelines.
//!
//! A [`FaultPlan`] is a list of [`FaultWindow`]s — half-open time
//! intervals during which one [`FaultKind`] is active. The cell queries
//! [`FaultPlan::active_at`] once per TTI and gets back a flattened
//! [`ActiveFaults`] snapshot it can act on without knowing anything about
//! the schedule. Plans are plain data: building one from code, from CLI
//! flags, or from the seeded [`FaultPlan::chaos`] generator all produce
//! the same thing, and a given plan replayed against the same cell seed
//! is bit-for-bit reproducible.

use outran_simcore::{Dur, Rng, Time};

/// What goes wrong during a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Core-network link fully down: packets in either direction between
    /// the server and the eNB are dropped at the link.
    CnOutage,
    /// Core-network link degraded: every traversing packet picks up
    /// `extra_delay`, and is independently lost with probability `loss`.
    CnDegrade {
        /// Added one-way delay.
        extra_delay: Dur,
        /// Per-packet loss probability on the CN link.
        loss: f64,
    },
    /// Air-interface loss spike: adds to the configured residual loss
    /// probability for every transmitted RLC segment.
    LossSpike {
        /// Additional per-segment residual loss probability.
        extra_loss: f64,
    },
    /// CQI reports stop updating (the channel keeps evolving, but the
    /// scheduler keeps seeing the last report). `ue: None` = all UEs.
    CqiFreeze {
        /// Affected UE, or every UE when `None`.
        ue: Option<usize>,
    },
    /// CQI reports are replaced with uniformly random values drawn from
    /// the fault RNG. `ue: None` = all UEs.
    CqiCorrupt {
        /// Affected UE, or every UE when `None`.
        ue: Option<usize>,
    },
    /// Radio-link failure: the UE's link is dead for the window; RLC
    /// entities are re-established (flushed) at window start and traffic
    /// refills from TCP retransmission after the window.
    RadioLinkFailure {
        /// Affected UE.
        ue: usize,
    },
    /// UE detaches for the window (buffers flushed, flow state evicted,
    /// no scheduling) and re-attaches when it closes.
    Detach {
        /// Affected UE.
        ue: usize,
    },
    /// RLC buffers are clamped to `capacity_sdus` for the window;
    /// over-full queues shed from the lowest priority on entry.
    BufferShrink {
        /// Clamped per-UE capacity, in SDUs.
        capacity_sdus: usize,
    },
}

impl FaultKind {
    /// Short stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CnOutage => "cn-outage",
            FaultKind::CnDegrade { .. } => "cn-degrade",
            FaultKind::LossSpike { .. } => "loss-spike",
            FaultKind::CqiFreeze { .. } => "cqi-freeze",
            FaultKind::CqiCorrupt { .. } => "cqi-corrupt",
            FaultKind::RadioLinkFailure { .. } => "rlf",
            FaultKind::Detach { .. } => "detach",
            FaultKind::BufferShrink { .. } => "buffer-shrink",
        }
    }
}

/// One scheduled fault: `kind` is active for `start <= now < end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: Time,
    /// First instant after the fault (half-open).
    pub end: Time,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers `now`.
    pub fn active_at(&self, now: Time) -> bool {
        self.start <= now && now < self.end
    }
}

/// Flattened view of every fault active at one instant.
///
/// Built fresh each TTI by [`FaultPlan::active_at`]; the cell diffs it
/// against the previous TTI's snapshot to detect window edges (flush on
/// RLF entry, re-attach on detach exit, and so on).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveFaults {
    /// CN link is fully down.
    pub cn_outage: bool,
    /// Extra one-way CN delay (max across active degrade windows).
    pub cn_extra_delay: Dur,
    /// CN per-packet loss probability (max across active windows).
    pub cn_loss: f64,
    /// Additional residual loss on every transmitted segment.
    pub extra_loss: f64,
    /// CQI frozen for every UE.
    pub cqi_freeze_all: bool,
    /// CQI frozen for specific UEs.
    pub cqi_freeze_ues: Vec<usize>,
    /// CQI corrupted for every UE.
    pub cqi_corrupt_all: bool,
    /// CQI corrupted for specific UEs.
    pub cqi_corrupt_ues: Vec<usize>,
    /// UEs in radio-link failure.
    pub rlf_ues: Vec<usize>,
    /// UEs currently detached.
    pub detached_ues: Vec<usize>,
    /// Effective RLC capacity clamp (min across active shrink windows).
    pub buffer_cap: Option<usize>,
}

impl ActiveFaults {
    /// True when no fault is active.
    pub fn is_quiet(&self) -> bool {
        *self == ActiveFaults::default()
    }

    /// Whether `ue`'s CQI reports are frozen.
    pub fn cqi_frozen(&self, ue: usize) -> bool {
        self.cqi_freeze_all || self.cqi_freeze_ues.contains(&ue)
    }

    /// Whether `ue`'s CQI reports are corrupted.
    pub fn cqi_corrupted(&self, ue: usize) -> bool {
        self.cqi_corrupt_all || self.cqi_corrupt_ues.contains(&ue)
    }

    /// Whether `ue` is in radio-link failure.
    pub fn in_rlf(&self, ue: usize) -> bool {
        self.rlf_ues.contains(&ue)
    }

    /// Whether `ue` is detached.
    pub fn detached(&self, ue: usize) -> bool {
        self.detached_ues.contains(&ue)
    }

    /// Whether `ue` can be scheduled at all this TTI.
    pub fn link_up(&self, ue: usize) -> bool {
        !self.in_rlf(ue) && !self.detached(ue)
    }
}

/// A deterministic, scripted timeline of fault windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// All scheduled windows, ordered by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Add a window, keeping start-time order (stable for equal starts).
    pub fn push(&mut self, window: FaultWindow) {
        assert!(
            window.start < window.end,
            "fault window must have start < end ({:?})",
            window
        );
        self.windows.push(window);
        self.windows.sort_by_key(|w| w.start);
    }

    /// Builder form of [`FaultPlan::push`].
    pub fn with(mut self, start: Time, end: Time, kind: FaultKind) -> FaultPlan {
        self.push(FaultWindow { start, end, kind });
        self
    }

    /// Schedule a full CN outage.
    pub fn cn_outage(self, start: Time, end: Time) -> FaultPlan {
        self.with(start, end, FaultKind::CnOutage)
    }

    /// Schedule a CN degradation (extra delay + loss).
    pub fn cn_degrade(self, start: Time, end: Time, extra_delay: Dur, loss: f64) -> FaultPlan {
        self.with(start, end, FaultKind::CnDegrade { extra_delay, loss })
    }

    /// Schedule an air-interface loss spike.
    pub fn loss_spike(self, start: Time, end: Time, extra_loss: f64) -> FaultPlan {
        self.with(start, end, FaultKind::LossSpike { extra_loss })
    }

    /// Schedule a CQI staleness window.
    pub fn cqi_freeze(self, start: Time, end: Time, ue: Option<usize>) -> FaultPlan {
        self.with(start, end, FaultKind::CqiFreeze { ue })
    }

    /// Schedule a CQI corruption window.
    pub fn cqi_corrupt(self, start: Time, end: Time, ue: Option<usize>) -> FaultPlan {
        self.with(start, end, FaultKind::CqiCorrupt { ue })
    }

    /// Schedule a radio-link failure for `ue` at `at`, recovering after
    /// `outage`.
    pub fn radio_link_failure(self, at: Time, outage: Dur, ue: usize) -> FaultPlan {
        self.with(at, at + outage, FaultKind::RadioLinkFailure { ue })
    }

    /// Schedule a detach/re-attach cycle for `ue`.
    pub fn detach(self, start: Time, end: Time, ue: usize) -> FaultPlan {
        self.with(start, end, FaultKind::Detach { ue })
    }

    /// Schedule a buffer shrink to `capacity_sdus`.
    pub fn buffer_shrink(self, start: Time, end: Time, capacity_sdus: usize) -> FaultPlan {
        self.with(start, end, FaultKind::BufferShrink { capacity_sdus })
    }

    /// Flatten every window covering `now` into one snapshot.
    pub fn active_at(&self, now: Time) -> ActiveFaults {
        let mut af = ActiveFaults::default();
        for w in &self.windows {
            if w.start > now {
                break; // sorted by start: nothing later can cover now
            }
            if !w.active_at(now) {
                continue;
            }
            match w.kind {
                FaultKind::CnOutage => af.cn_outage = true,
                FaultKind::CnDegrade { extra_delay, loss } => {
                    if extra_delay.0 > af.cn_extra_delay.0 {
                        af.cn_extra_delay = extra_delay;
                    }
                    af.cn_loss = af.cn_loss.max(loss);
                }
                FaultKind::LossSpike { extra_loss } => {
                    af.extra_loss = af.extra_loss.max(extra_loss);
                }
                FaultKind::CqiFreeze { ue } => match ue {
                    None => af.cqi_freeze_all = true,
                    Some(u) => af.cqi_freeze_ues.push(u),
                },
                FaultKind::CqiCorrupt { ue } => match ue {
                    None => af.cqi_corrupt_all = true,
                    Some(u) => af.cqi_corrupt_ues.push(u),
                },
                FaultKind::RadioLinkFailure { ue } => af.rlf_ues.push(ue),
                FaultKind::Detach { ue } => af.detached_ues.push(ue),
                FaultKind::BufferShrink { capacity_sdus } => {
                    af.buffer_cap = Some(match af.buffer_cap {
                        Some(c) => c.min(capacity_sdus),
                        None => capacity_sdus,
                    });
                }
            }
        }
        af
    }

    /// The next window edge (start or end) strictly after `t`, if any.
    ///
    /// Between two consecutive edges the [`ActiveFaults`] snapshot is
    /// constant, so a driver that re-evaluates faults at every edge may
    /// skip the TTIs in between without missing a transition.
    pub fn next_edge_after(&self, t: Time) -> Option<Time> {
        let mut next: Option<Time> = None;
        for w in &self.windows {
            for edge in [w.start, w.end] {
                if edge > t && next.is_none_or(|n| edge < n) {
                    next = Some(edge);
                }
            }
        }
        next
    }

    /// Instant the last window closes (`Time::ZERO` for an empty plan).
    /// Runs should drain past this point before judging recovery.
    pub fn last_end(&self) -> Time {
        self.windows
            .iter()
            .map(|w| w.end)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Generate a random plan over `[0, duration)` for `n_ues` UEs.
    ///
    /// `intensity` in `[0, 1]` scales how many windows are scheduled
    /// (roughly `intensity * 8` events per simulated second) and how
    /// harsh each one is. Fully deterministic in `seed`.
    pub fn chaos(seed: u64, duration: Dur, n_ues: usize, intensity: f64) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut rng = Rng::new(seed ^ 0xFA01_75CA_0501_AFE5);
        let mut plan = FaultPlan::new();
        if intensity == 0.0 || duration.0 == 0 || n_ues == 0 {
            return plan;
        }
        let n_events = ((intensity * 8.0 * duration.as_secs_f64()).round() as usize).max(1);
        for _ in 0..n_events {
            // Leave the final 15% of the run fault-free so recovery is
            // always observable.
            let horizon = (duration.0 as f64 * 0.85) as u64;
            let len_ms = 20.0 + rng.f64() * (30.0 + 370.0 * intensity);
            let len = Dur::from_millis(len_ms as u64).0.max(1);
            let start = Time::from_nanos(rng.below(horizon.saturating_sub(len).max(1)));
            let end = Time::from_nanos(start.as_nanos() + len);
            let ue = rng.index(n_ues);
            let kind = match rng.index(8) {
                0 => FaultKind::CnOutage,
                1 => FaultKind::CnDegrade {
                    extra_delay: Dur::from_millis(1 + rng.below(20)),
                    loss: 0.05 + 0.4 * intensity * rng.f64(),
                },
                2 => FaultKind::LossSpike {
                    extra_loss: 0.05 + 0.6 * intensity * rng.f64(),
                },
                3 => FaultKind::CqiFreeze {
                    ue: if rng.chance(0.5) { Some(ue) } else { None },
                },
                4 => FaultKind::CqiCorrupt {
                    ue: if rng.chance(0.5) { Some(ue) } else { None },
                },
                5 => FaultKind::RadioLinkFailure { ue },
                6 => FaultKind::Detach { ue },
                _ => FaultKind::BufferShrink {
                    capacity_sdus: 4 + rng.index(28),
                },
            };
            plan.push(FaultWindow { start, end, kind });
        }
        plan
    }

    /// Human-readable schedule, one window per line.
    pub fn describe(&self) -> String {
        if self.windows.is_empty() {
            return "  (no faults scheduled)".to_string();
        }
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&format!(
                "  {:>9.3}s..{:>9.3}s  {:<13} {:?}\n",
                w.start.as_nanos() as f64 / 1e9,
                w.end.as_nanos() as f64 / 1e9,
                w.kind.name(),
                w.kind,
            ));
        }
        out
    }
}

outran_simcore::snap_fields! {
    ActiveFaults {
        cn_outage, cn_extra_delay, cn_loss, extra_loss, cqi_freeze_all, cqi_freeze_ues,
        cqi_corrupt_all, cqi_corrupt_ues, rlf_ues, detached_ues, buffer_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Time {
        Time::from_millis(x)
    }

    #[test]
    fn windows_are_half_open_and_sorted() {
        let plan = FaultPlan::new()
            .loss_spike(ms(200), ms(300), 0.5)
            .cn_outage(ms(100), ms(150));
        assert_eq!(plan.windows()[0].kind, FaultKind::CnOutage);
        assert!(plan.active_at(ms(100)).cn_outage);
        assert!(plan.active_at(ms(149)).cn_outage);
        assert!(!plan.active_at(ms(150)).cn_outage);
        assert_eq!(plan.last_end(), ms(300));
    }

    #[test]
    fn overlapping_windows_combine() {
        let plan = FaultPlan::new()
            .loss_spike(ms(0), ms(100), 0.2)
            .loss_spike(ms(50), ms(150), 0.4)
            .buffer_shrink(ms(0), ms(100), 16)
            .buffer_shrink(ms(0), ms(100), 8);
        let af = plan.active_at(ms(60));
        assert_eq!(af.extra_loss, 0.4);
        assert_eq!(af.buffer_cap, Some(8));
        assert!(plan.active_at(ms(120)).buffer_cap.is_none());
    }

    #[test]
    fn per_ue_and_all_ue_scopes() {
        let plan = FaultPlan::new()
            .cqi_freeze(ms(0), ms(10), Some(2))
            .detach(ms(0), ms(10), 1);
        let af = plan.active_at(ms(5));
        assert!(af.cqi_frozen(2));
        assert!(!af.cqi_frozen(0));
        assert!(af.detached(1));
        assert!(!af.link_up(1));
        assert!(af.link_up(2));
    }

    #[test]
    fn chaos_is_deterministic_and_scales() {
        let a = FaultPlan::chaos(7, Dur::from_secs(2), 4, 0.5);
        let b = FaultPlan::chaos(7, Dur::from_secs(2), 4, 0.5);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::chaos(8, Dur::from_secs(2), 4, 0.5);
        assert_ne!(a, c);
        let quiet = FaultPlan::chaos(7, Dur::from_secs(2), 4, 0.0);
        assert!(quiet.is_empty());
        let heavy = FaultPlan::chaos(7, Dur::from_secs(2), 4, 1.0);
        assert!(heavy.windows().len() > a.windows().len());
    }

    #[test]
    fn empty_plan_is_quiet() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.active_at(ms(0)).is_quiet());
        assert_eq!(plan.last_end(), Time::ZERO);
    }
}
