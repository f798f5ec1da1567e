//! Stage 6 — **housekeeping**: faults, auditing, timers.
//!
//! Owns the fault engine (the flattened snapshot, its dedicated RNG and
//! the cached next window edge), the invariant auditor, the §6.3
//! priority-reset schedule and the flow-table GC clock. The other
//! stages consult it for the active fault snapshot and report
//! fault-attributable events through the `note_*` methods.

use crate::config::CellConfig;
use crate::stages::{PhyTxStage, RlcRx, RlcTx, UeContext, FAULT_FORK};
use outran_core::PriorityReset;
use outran_faults::{ActiveFaults, AuditSnapshot, FaultStats, InvariantAuditor};
use outran_simcore::snap::SnapError;
use outran_simcore::snap_fields;
use outran_simcore::{Dur, Rng, Time};

/// The housekeeping stage (see module docs).
pub struct HousekeepingStage {
    /// Fault snapshot of the previous TTI (edge detection).
    faults_active: ActiveFaults,
    /// Dedicated RNG for fault draws, so injecting faults never perturbs
    /// the main simulation stream.
    fault_rng: Rng,
    fault_counters: FaultStats,
    auditor: InvariantAuditor,
    /// Whether delivered-SDU ordering is a valid invariant for this
    /// configuration (explicit HARQ, priority reset and the SRJF oracle
    /// all legitimately reorder intra-flow delivery).
    audit_order: bool,
    reset: Option<PriorityReset>,
    last_gc: Time,
    /// Cached next fault-window edge at or after `now` (`None` when the
    /// plan holds no further edges); refreshed only when crossed.
    next_fault_edge: Option<Time>,
    /// Bytes terminally dropped by fault actions (capacity-clamp and
    /// reestablishment tx flushes) — a byte-conservation ledger term.
    dropped_bytes: u64,
    /// Whether `faults_active` has been checked against the plan since
    /// this stage was built or restored (derived, not serialized).
    plan_checked: bool,
}

impl HousekeepingStage {
    /// Build from the cell configuration, forking the fault RNG.
    pub fn new(cfg: &CellConfig, root: &Rng) -> HousekeepingStage {
        let reset = cfg.outran.priority_reset(Time::ZERO);
        let audit_order =
            cfg.harq.is_none() && reset.is_none() && !cfg.scheduler.uses_oracle_priority();
        HousekeepingStage {
            faults_active: ActiveFaults::default(),
            fault_rng: root.fork(FAULT_FORK),
            fault_counters: FaultStats::default(),
            auditor: InvariantAuditor::default(),
            audit_order,
            reset,
            last_gc: Time::ZERO,
            // `Some(ZERO)` forces the first active TTI to flatten the
            // plan (a window may start at t = 0) and cache the real edge.
            next_fault_edge: if cfg.faults.is_empty() {
                None
            } else {
                Some(Time::ZERO)
            },
            dropped_bytes: 0,
            plan_checked: false,
        }
    }

    /// Fault engine entry: when `now` has crossed the cached edge,
    /// flatten the plan and apply window edges (flush on RLF/detach
    /// entry, capacity clamps, …), then cache the next edge. Between
    /// edges the snapshot is constant
    /// ([`outran_faults::FaultPlan::next_edge_after`]), so nothing is
    /// flattened and idle spans may skip. The first active TTI of a
    /// fresh or restored stage also flattens, so a restored snapshot the
    /// configured plan disagrees with is corrected at once. Returns
    /// whether the snapshot in force ([`HousekeepingStage::faults`])
    /// was replaced.
    pub fn apply_fault_edges(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        phy: &mut PhyTxStage,
    ) -> bool {
        let crossed = self.next_fault_edge.is_some_and(|e| e <= now);
        if !crossed && self.plan_checked {
            return false;
        }
        self.plan_checked = true;
        let active = cfg.faults.active_at(now);
        if crossed {
            self.next_fault_edge = cfg.faults.next_edge_after(now);
        }
        self.apply_fault_transitions(cfg, ues, phy, active)
    }

    /// Recheck the restored snapshot against the plan on the next TTI.
    fn recheck_plan(&mut self) -> Result<(), SnapError> {
        self.plan_checked = false;
        Ok(())
    }

    /// Diff the new fault snapshot against the one in force and, if it
    /// differs, replace that and run the edge actions: RLC
    /// re-establishment on RLF/detach entry, re-attach accounting on
    /// exit, and RLC capacity clamps for shrink windows. Returns whether
    /// it differed.
    fn apply_fault_transitions(
        &mut self,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        phy: &mut PhyTxStage,
        active: ActiveFaults,
    ) -> bool {
        if active == self.faults_active {
            return false;
        }
        let prev = std::mem::replace(&mut self.faults_active, active);
        for (ue, ctx) in ues.iter_mut().enumerate() {
            let was_down = !prev.link_up(ue);
            let is_down = !self.faults_active.link_up(ue);
            if is_down && !was_down {
                if self.faults_active.in_rlf(ue) {
                    self.fault_counters.rlf_events += 1;
                }
                if self.faults_active.detached(ue) {
                    self.fault_counters.detach_events += 1;
                }
                self.reestablish_ue(ue, ctx, phy);
            } else if was_down && !is_down {
                self.fault_counters.reattach_events += 1;
            }
        }
        let clamp = |cap: usize| cap.clamp(1, cfg.buffer_sdus);
        let new_cap = self.faults_active.buffer_cap.map(clamp);
        let old_cap = prev.buffer_cap.map(clamp);
        if new_cap != old_cap {
            if new_cap.is_some() && old_cap.is_none() {
                self.fault_counters.buffer_shrink_events += 1;
            }
            let target = new_cap.unwrap_or(cfg.buffer_sdus);
            for ctx in ues.iter_mut() {
                let (sdus, bytes) = ctx.rlc_tx.set_capacity(target);
                self.fault_counters.flushed_sdus += sdus;
                self.fault_counters.flushed_bytes += bytes;
                self.dropped_bytes += bytes;
            }
        }
        true
    }

    /// RLC re-establishment for one UE (TS 36.322 §5.4): flush both
    /// entities and the UE's HARQ processes; TCP refills by
    /// retransmission once the link returns. RLF and detach edges take
    /// it, as do a handover away from the cell and an AM PDU abandoned
    /// at maxRetxThreshold; each counts under `reestablishments`.
    pub fn reestablish_ue(&mut self, ue: usize, ctx: &mut UeContext, phy: &mut PhyTxStage) {
        let (tx_sdus, tx_bytes) = ctx.rlc_tx.reestablish();
        let (rx_sdus, rx_bytes) = ctx.rlc_rx.reestablish();
        // Tx flush bytes are terminal here; rx flush bytes are already
        // counted by the receiver's own discard ledger.
        self.dropped_bytes += tx_bytes;
        for tb in ctx.harq.clear() {
            phy.forget_harq(tb.payload.bytes);
        }
        self.fault_counters.reestablishments += 1;
        self.fault_counters.flushed_sdus += tx_sdus + rx_sdus;
        self.fault_counters.flushed_bytes += tx_bytes + rx_bytes;
        // SDU ids restart from the flush's perspective: drop order state.
        self.auditor.forget_ue(ue);
    }

    /// Per-TTI timers: UM reassembly expiry, AM poll/status machinery,
    /// the §6.3 priority reset (`catch_up`, not `due`, so active and
    /// idle paths count crossed periods identically) and the once-a-
    /// second flow-table GC.
    pub fn timers_and_gc(&mut self, now: Time, ues: &mut [UeContext]) {
        for ctx in ues.iter_mut() {
            if let RlcRx::Um(um) = &mut ctx.rlc_rx {
                um.expire(now);
            }
        }
        for ctx in ues.iter_mut() {
            if let RlcTx::Am(am) = &mut ctx.rlc_tx {
                am.on_tick(now);
            }
        }
        if let Some(reset) = &mut self.reset {
            if reset.catch_up(now) > 0 {
                for ctx in ues.iter_mut() {
                    ctx.flow_table.reset_priorities();
                }
            }
        }
        if now.saturating_since(self.last_gc) >= Dur::from_secs(1) {
            self.last_gc = now;
            for ctx in ues.iter_mut() {
                ctx.flow_table.gc(now);
            }
        }
    }

    /// Idle-path priority-reset accrual: book any reset periods a
    /// skipped span crossed, identically to the active path.
    pub fn idle_reset_catch_up(&mut self, now: Time, ues: &mut [UeContext]) {
        if let Some(reset) = &mut self.reset {
            if reset.catch_up(now) > 0 {
                for ctx in ues.iter_mut() {
                    ctx.flow_table.reset_priorities();
                }
            }
        }
    }

    // ---- fault-snapshot and RNG services ------------------------------

    /// The fault snapshot in force this TTI.
    pub fn faults(&self) -> &ActiveFaults {
        &self.faults_active
    }

    /// Whether the CN link eats a traversing packet right now (full
    /// outage, or the degrade-window loss draw).
    pub fn cn_loses_packet(&mut self) -> bool {
        if self.faults_active.cn_outage {
            return true;
        }
        self.faults_active.cn_loss > 0.0 && self.fault_rng.chance(self.faults_active.cn_loss)
    }

    /// Extra CN one-way delay in force (degrade windows).
    pub fn cn_extra_delay(&self) -> Dur {
        self.faults_active.cn_extra_delay
    }

    /// Book a data packet lost on the CN link.
    pub fn note_cn_dropped_data(&mut self, bytes: u64) {
        self.fault_counters.cn_dropped_pkts += 1;
        self.fault_counters.cn_dropped_bytes += bytes;
    }

    /// Book an ACK lost on the CN link.
    pub fn note_cn_dropped_ack(&mut self) {
        self.fault_counters.cn_dropped_pkts += 1;
    }

    /// Book a packet delayed by a CN degrade window.
    pub fn note_cn_delayed_pkt(&mut self) {
        self.fault_counters.cn_delayed_pkts += 1;
    }

    /// Book a stalled-flow watchdog kick.
    pub fn note_watchdog_kick(&mut self) {
        self.fault_counters.watchdog_kicks += 1;
    }

    /// Book a residual loss attributable to a loss-spike window.
    pub fn note_spiked_loss(&mut self) {
        self.fault_counters.spiked_losses += 1;
    }

    // ---- auditor services ---------------------------------------------

    /// Clock observation (gap detection), once per active TTI.
    pub fn observe_clock(&mut self, now: Time) {
        self.auditor.observe_clock(now);
    }

    /// RB-accounting observation for this TTI.
    pub fn observe_rbs(&mut self, now: Time, used: u32, total: u32) {
        self.auditor.observe_rbs(now, used, total);
    }

    /// Delivery-order observation (skipped for configurations where
    /// intra-flow reordering is legitimate).
    pub fn observe_delivery(&mut self, now: Time, ue: usize, flow_id: u64, sdu_id: u64) {
        if self.audit_order {
            self.auditor.observe_delivery(now, ue, flow_id, sdu_id);
        }
    }

    /// Flow `flow_id` of `ue` completed: its delivery-order history goes.
    pub fn forget_flow(&mut self, ue: usize, flow_id: u64) {
        self.auditor.forget_flow(ue, flow_id);
    }

    /// Keep delivery-order history only for the flows `open` accepts.
    pub fn retain_order_history(&mut self, open: impl FnMut(usize, u64) -> bool) {
        self.auditor.retain_flows(open);
    }

    /// Whether the periodic invariant audit is due.
    pub fn audit_due(&self) -> bool {
        self.auditor.due()
    }

    /// Run the invariant check against an assembled snapshot.
    pub fn audit_check(&mut self, now: Time, snap: &AuditSnapshot) {
        self.auditor.check(now, snap);
    }

    /// The invariant auditor (checks run, cleanliness, …).
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.auditor
    }

    // ---- read-side accessors ------------------------------------------

    /// Cached next fault-window edge at or after now.
    pub fn next_fault_edge(&self) -> Option<Time> {
        self.next_fault_edge
    }

    /// Fault counters accumulated by the engine (cell-local terms only;
    /// the cell merges the PHY/PDCP views on top).
    pub fn counters(&self) -> FaultStats {
        self.fault_counters
    }

    /// Priority resets executed so far (`None` if no reset period).
    pub fn priority_resets(&self) -> Option<u64> {
        self.reset.as_ref().map(|r| r.resets)
    }

    /// Bytes terminally dropped by fault actions (ledger term).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

// The fault *plan* is a pure function of the cell configuration and does
// not travel; the reset schedule must agree with it — a snapshot with
// (without) a reset driver cannot load into a configuration without
// (with) one.
snap_fields! {
    overlay HousekeepingStage {
        faults_active, fault_rng, fault_counters, auditor, reset: fixed_opt, last_gc,
        next_fault_edge, dropped_bytes,
    }
    rebuilt { audit_order, plan_checked }
    then HousekeepingStage::recheck_plan
}
