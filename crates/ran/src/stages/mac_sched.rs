//! Stage 3 — **MAC scheduling**: rates, GBR carve-out, RB allocation.
//!
//! Owns the dynamic scheduler, the reusable per-TTI rate matrix
//! ([`TtiRates`]), scheduler-input vectors and allocation, and the
//! semi-persistent GBR bearers. Each active TTI it refreshes the rate
//! matrix from the PHY channel's delivered CQI reports, carves out the
//! GBR region, builds the per-UE scheduler inputs and the list of active
//! UEs, and invokes the scheduler — which, like the transmit stage after
//! it, walks that list and no other UE.

use crate::config::{CellConfig, GbrBearer, SchedulerKind};
use crate::stages::{IngressStage, TtiRates, UeContext};
use outran_faults::ActiveFaults;
use outran_mac::{
    Allocation, CqaScheduler, OutRanScheduler, PfScheduler, PssScheduler, RrScheduler, Scheduler,
    SrjfScheduler, UeTti,
};
use outran_phy::channel::CellChannel;
use outran_simcore::snap::SnapError;
use outran_simcore::snap_fields;
use outran_simcore::{Dur, Percentiles, Time};

#[derive(Debug, Clone)]
struct GbrRuntime {
    bearer: GbrBearer,
    next_gen: Time,
    queue: std::collections::VecDeque<(Time, u32)>,
}

/// The MAC scheduling stage (see module docs).
pub struct MacSchedStage {
    scheduler: Box<dyn Scheduler + Send>,
    // `rates` is rebuilt from the restored channel's report versions on
    // the first refresh after resume (fresh rows carry version
    // u64::MAX); `ues_tti`/`had_data` are rebuilt every active TTI.
    rates: TtiRates,
    ues_tti: Vec<UeTti>,
    /// The UEs with `ues_tti[u].active`, ascending.
    active: Vec<u16>,
    had_data: Vec<bool>,
    /// This TTI's allocation (all-idle when no UE is active).
    alloc: Allocation,
    /// Σ over active TTIs of the active-UE count (work counter).
    active_ue_ttis: u64,
    gbr: Vec<GbrRuntime>,
    // O(1) GBR work probes: the earliest pending generation instant and
    // the total queued packet count across bearers. Maintained by
    // `add_gbr_bearer`/`serve_gbr`, recomputed from the restored bearer
    // list on resume (`next_gen`/queues only move inside `serve_gbr`,
    // so the cache cannot go stale between TTIs).
    gbr_min_next_gen: Option<Time>,
    gbr_queued_pkts: usize,
    /// RBs `serve_gbr` reserved this TTI (the prefix `0..n` of
    /// `rates.reserved`).
    gbr_reserved_rbs: usize,
}

impl MacSchedStage {
    /// Build the configured scheduler and empty runtime state.
    pub fn new(cfg: &CellConfig, tti: Dur) -> MacSchedStage {
        MacSchedStage {
            scheduler: build_scheduler(cfg, tti),
            rates: TtiRates::default(),
            ues_tti: Vec::new(),
            active: Vec::new(),
            had_data: Vec::new(),
            alloc: Allocation::empty(0, 0),
            active_ue_ttis: 0,
            gbr: Vec::new(),
            gbr_min_next_gen: None,
            gbr_queued_pkts: 0,
            gbr_reserved_rbs: 0,
        }
    }

    /// Fold `k` idle TTIs into the scheduler's long-term averages, so
    /// the next `allocate` sees the same decayed state a per-TTI
    /// zero-service update would have produced.
    pub fn fold_idle(&mut self, k: u64) {
        self.scheduler.on_idle(k);
    }

    /// Attach a dedicated GBR bearer (semi-persistent grants, outside
    /// the dynamic scheduler) — the Conversational class of Table 1.
    pub fn add_gbr_bearer(&mut self, now: Time, bearer: GbrBearer) {
        // Stagger the vocoder phase per bearer so packet generation is
        // not TTI-aligned (real talk spurts aren't).
        let phase = Dur::from_micros((self.gbr.len() as u64 * 7_301) % bearer.interval.as_micros());
        let next_gen = now + bearer.interval + phase;
        self.gbr_min_next_gen = Some(self.gbr_min_next_gen.map_or(next_gen, |m| m.min(next_gen)));
        self.gbr.push(GbrRuntime {
            bearer,
            next_gen,
            queue: std::collections::VecDeque::new(),
        });
    }

    /// Whether any GBR bearer has a due generation or queued packet.
    /// O(1): reads the cached earliest-generation/queued-count pair.
    pub fn gbr_has_work(&self, now: Time) -> bool {
        self.gbr_queued_pkts > 0 || self.gbr_min_next_gen.is_some_and(|t| t <= now)
    }

    /// Earliest future GBR packet generation, if any bearer is attached.
    /// O(1): reads the cached minimum.
    pub fn next_gbr_gen(&self) -> Option<Time> {
        self.gbr_min_next_gen
    }

    /// Bring the reusable rate matrix up to date for this TTI. A UE's
    /// row is rewritten only when its content version moved: a new CQI
    /// report was delivered, or the link went down/up (down rows are
    /// zeros, tagged with an odd version so they never alias live ones).
    /// The row of a slot with no UE is left alone — nothing reads it (no
    /// RLC data, so the slot's input is [`UeTti::idle`]), and its version
    /// mismatch is still there to rewrite it once a UE attaches.
    pub fn refresh_rates(
        &mut self,
        cfg: &CellConfig,
        channel: &CellChannel,
        faults: &ActiveFaults,
    ) {
        let rates = &mut self.rates;
        let n_sb = cfg.channel.n_subbands;
        let n_ues = cfg.n_ues;
        let n_rbs = channel.n_rbs() as usize;
        if rates.n_sb != n_sb || rates.n_ues != n_ues || rates.rb_to_sb.len() != n_rbs {
            rates.per_ue_sb = vec![0.0; n_ues * n_sb];
            rates.rb_to_sb = (0..channel.n_rbs())
                .map(|rb| channel.subband_of_rb(rb))
                .collect();
            rates.n_sb = n_sb;
            rates.n_ues = n_ues;
            rates.versions = vec![u64::MAX; n_ues];
        }
        rates.reserved.clear();
        rates.reserved.resize(n_rbs, false);
        for u in 0..n_ues {
            if channel.slot_detached(u) {
                continue;
            }
            let link_up = faults.link_up(u);
            let want = channel.report_version(u) * 2 + (!link_up) as u64;
            if rates.versions[u] == want {
                continue;
            }
            rates.versions[u] = want;
            let row = &mut rates.per_ue_sb[u * n_sb..(u + 1) * n_sb];
            if link_up {
                channel.fill_reported_rates(u, row);
            } else {
                row.fill(0.0);
            }
        }
    }

    /// Generate due GBR packets, reserve the RBs their delivery needs
    /// (lowest indices first — the SPS region), and deliver them with
    /// one-TTI air latency. GBR traffic rides robust low-MCS grants and
    /// is modelled loss-free; its latency distribution lands in
    /// `gbr_latency`.
    pub fn serve_gbr(&mut self, now: Time, tti: Dur, gbr_latency: &mut Percentiles) {
        if self.gbr.is_empty() {
            return;
        }
        let rates = &mut self.rates;
        let mut next_free_rb: usize = 0;
        let n_rbs = rates.rb_to_sb.len();
        let mut min_next: Option<Time> = None;
        let mut queued_pkts: usize = 0;
        for g in &mut self.gbr {
            while g.next_gen <= now {
                g.queue.push_back((g.next_gen, g.bearer.pkt_bytes));
                g.next_gen += g.bearer.interval;
            }
            while let Some(&(gen_at, bytes)) = g.queue.front() {
                // Rate of the bearer's UE on the next free RB.
                if next_free_rb >= n_rbs {
                    break; // SPS region exhausted this TTI
                }
                let sb = rates.rb_to_sb[next_free_rb];
                let rb_bits = rates.per_ue_sb[g.bearer.ue * rates.n_sb + sb];
                if rb_bits < 8.0 {
                    break; // UE out of range; retry next TTI
                }
                let rbs_needed = ((bytes as f64 * 8.0) / rb_bits).ceil() as usize;
                if next_free_rb + rbs_needed > n_rbs {
                    break;
                }
                for rb in next_free_rb..next_free_rb + rbs_needed {
                    rates.reserved[rb] = true;
                }
                next_free_rb += rbs_needed;
                g.queue.pop_front();
                // Delivered at the end of this TTI (one slot of air time
                // plus however long the packet waited for the slot).
                let delivered = now + tti;
                gbr_latency.push(delivered.saturating_since(gen_at).as_millis_f64());
            }
            min_next = Some(min_next.map_or(g.next_gen, |m| m.min(g.next_gen)));
            queued_pkts += g.queue.len();
        }
        self.gbr_min_next_gen = min_next;
        self.gbr_queued_pkts = queued_pkts;
        self.gbr_reserved_rbs = next_free_rb;
    }

    /// Build the per-UE scheduler inputs (O(1) occupancy reads, oracle
    /// flow sizes for SRJF/PSS/CQA), the ascending list of active UEs
    /// and the per-UE had-data flags.
    pub fn build_ue_inputs(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ingress: &IngressStage,
        faults: &ActiveFaults,
        ues: &mut [UeContext],
    ) {
        let out = &mut self.ues_tti;
        out.clear();
        out.reserve(cfg.n_ues);
        self.active.clear();
        for (ue, ctx) in ues.iter_mut().enumerate() {
            // Prune completed flows from the per-UE active list.
            ctx.flows.retain(|&fi| !ingress.flow_done(fi));
            // A UE in radio-link failure or detached cannot be scheduled.
            if !faults.link_up(ue) {
                out.push(UeTti::idle());
                continue;
            }
            // Occupancy read straight off the RLC entity, no report built.
            let (queued, head_priority, hol) = ctx.rlc_tx.occupancy();
            // Pending HARQ retransmissions keep a UE schedulable even
            // with an empty RLC buffer.
            let harq_pending = !ctx.harq.is_empty();
            if queued == 0 && !harq_pending {
                out.push(UeTti::idle());
                continue;
            }
            // Oracle inputs for SRJF/PSS/CQA (§6.2 grants them flow
            // sizes); no other scheduler reads them.
            let mut min_remaining: Option<u64> = None;
            let mut has_qos = false;
            if cfg.scheduler.uses_oracle_flow_sizes() {
                for &fi in &ctx.flows {
                    let remaining = ingress.flow_remaining(fi);
                    if remaining == 0 {
                        continue;
                    }
                    min_remaining = Some(min_remaining.map_or(remaining, |m| m.min(remaining)));
                    if ingress.flow_is_short(fi) {
                        has_qos = true;
                    }
                }
            }
            self.active.push(ue as u16);
            out.push(UeTti {
                active: true,
                head_priority,
                queued_bytes: queued,
                oracle_min_remaining: min_remaining,
                hol_delay: hol.map_or(Dur::ZERO, |a| now.saturating_since(a)),
                oracle_has_qos_flow: has_qos,
            });
        }
        self.had_data.clear();
        self.had_data.extend(out.iter().map(|u| u.active));
        self.active_ue_ttis += self.active.len() as u64;
    }

    /// Invoke the scheduler — not at all when no UE is active: every
    /// scheduler leaves every RB idle then, and moves no state. Returns
    /// the (used, total) RB counts, with GBR-reserved RBs counted as
    /// used; the allocation stays here, in a buffer reused every TTI.
    pub fn allocate(&mut self, now: Time) -> (u32, u32) {
        let n_rbs = self.rates.rb_to_sb.len();
        if self.active.is_empty() {
            self.alloc.reset(n_rbs as u16, self.ues_tti.len());
        } else {
            self.scheduler.allocate_into(
                now,
                &self.ues_tti,
                &self.active,
                &self.rates,
                &mut self.alloc,
            );
        }
        let used_rbs = self.alloc.rbs_used() + self.gbr_reserved_rbs;
        (used_rbs as u32, n_rbs as u32)
    }

    /// This TTI's allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// The UEs that entered this TTI with queued or in-flight radio
    /// data, ascending.
    pub fn active_ues(&self) -> &[u16] {
        &self.active
    }

    /// Feed the per-UE transmitted bits back into the scheduler's
    /// long-term averages.
    pub fn on_served(&mut self, transmitted: &[f64]) {
        self.scheduler.on_served(transmitted);
    }

    /// The current TTI's rate matrix.
    pub fn rates(&self) -> &TtiRates {
        &self.rates
    }

    /// Which UEs entered this TTI with queued or in-flight radio data.
    pub fn had_data(&self) -> &[bool] {
        &self.had_data
    }

    /// Σ over active TTIs of the active-UE count — a deterministic work
    /// counter, not serialized.
    pub fn active_ue_ttis(&self) -> u64 {
        self.active_ue_ttis
    }

    /// Metric-cache rows the scheduler recomputed — likewise.
    pub fn metric_rows_refreshed(&self) -> u64 {
        self.scheduler.metric_rows_refreshed()
    }

    /// Rebuild the O(1) work-probe caches from the restored bearers
    /// (derived state; not part of the wire format).
    fn rebuild_gbr_probes(&mut self) -> Result<(), SnapError> {
        self.gbr_min_next_gen = self.gbr.iter().map(|g| g.next_gen).min();
        self.gbr_queued_pkts = self.gbr.iter().map(|g| g.queue.len()).sum();
        Ok(())
    }
}

snap_fields! { GbrRuntime { bearer, next_gen in counter, queue } }

// The scheduler's long-term state and the GBR runtime travel (bearers
// are attached at runtime, not part of [`CellConfig`], so their full
// definitions ride along). A fresh stage starts with
// `versions = u64::MAX`, so the first `refresh_rates` after restore
// rebuilds every row from the restored channel's report versions,
// reproducing the exact values and version tags; `ues_tti`, `active`,
// `had_data` and `alloc` are rebuilt from scratch every active TTI.
snap_fields! {
    overlay MacSchedStage { scheduler, gbr }
    rebuilt {
        rates, ues_tti, active, had_data, alloc, active_ue_ttis, gbr_min_next_gen,
        gbr_queued_pkts, gbr_reserved_rbs,
    }
    then MacSchedStage::rebuild_gbr_probes
}

fn build_scheduler(cfg: &CellConfig, tti: Dur) -> Box<dyn Scheduler + Send> {
    let n = cfg.n_ues;
    match cfg.scheduler {
        SchedulerKind::Pf => Box::new(PfScheduler::with_tf(n, cfg.tf, tti)),
        SchedulerKind::Mt => Box::new(OutRanScheduler::mt()),
        SchedulerKind::Rr => Box::new(RrScheduler::default()),
        SchedulerKind::Srjf => Box::new(SrjfScheduler::with_mode(cfg.srjf_mode)),
        SchedulerKind::Pss => Box::new(PssScheduler::new(n, cfg.tf, tti)),
        SchedulerKind::Cqa => Box::new(CqaScheduler::new(n, cfg.tf, tti)),
        SchedulerKind::OutRan => Box::new(OutRanScheduler::over_pf(
            n,
            cfg.tf,
            tti,
            OutRanScheduler::DEFAULT_EPSILON,
        )),
        SchedulerKind::OutRanEps(e) => Box::new(OutRanScheduler::over_pf(n, cfg.tf, tti, e)),
        SchedulerKind::OutRanOverMt(e) => Box::new(OutRanScheduler::over_mt(e)),
        SchedulerKind::StrictMlfq => Box::new(OutRanScheduler::over_pf(n, cfg.tf, tti, 1.0)),
    }
}
