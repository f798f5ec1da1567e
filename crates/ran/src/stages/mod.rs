//! The per-TTI layer pipeline and its structural observation hooks.
//!
//! [`crate::cell::Cell`] executes one active TTI as a fixed sequence of
//! stages, each a struct owning its slice of the former monolith's
//! state and communicating only through small typed messages (see
//! DESIGN.md § "Layer pipeline"):
//!
//! ```text
//! housekeeping(pre: fault edges)
//!   → ingress      (CN arrivals, TCP endpoints, RTO/watchdog)
//!   → rlc_down     (PDCP marking + MLFQ/AM/UM SDU admission)
//!   → phy_tx       (channel evolution)
//!   → mac_sched    (rate refresh, GBR carve-out, RB allocation)
//!   → phy_tx       (HARQ/BLER transmit → ordered AirDelivery batch)
//!   → delivery     (reassembly, TCP receive, flow completion)
//!   → housekeeping (post: timers, GC, invariant audit)
//! ```
//!
//! The [`StageObserver`] trait is the single structural injection point
//! for anything that wants to watch the pipeline run: the benchmark's
//! per-stage wall-time attribution, the golden-trace determinism
//! harness, and future fault/audit probes all attach here (through
//! [`crate::cell::Cell::set_stage_observer`]) instead of being
//! hand-woven through the step function.

pub mod delivery;
mod flow_store;
pub mod housekeeping;
pub mod ingress;
pub mod mac_sched;
pub mod phy_tx;
pub mod rlc_down;

pub use delivery::DeliveryStage;
pub use housekeeping::HousekeepingStage;
pub use ingress::IngressStage;
pub use mac_sched::MacSchedStage;
pub use phy_tx::PhyTxStage;
pub use rlc_down::RlcDownStage;

use crate::config::{CellConfig, RlcMode};
use outran_pdcp::{FlowTable, MlfqConfig};
use outran_rlc::am::{AmConfig, AmPdu, AmRx, AmTx};
use outran_rlc::sdu::{RlcSdu, RlcSegment};
use outran_rlc::um::{UmConfig, UmRx, UmTx};
use outran_simcore::snap::SnapError;
use outran_simcore::{snap_enum, snap_fields, Time};

/// RNG fork labels of the two stages that draw from the cell's root
/// stream: `PhyTxStage`'s main stream and `HousekeepingStage`'s fault
/// stream. Equal labels would hand both stages the same stream, so a
/// collision is a compile error.
pub(crate) const PHY_TX_FORK: u64 = 0xCE11;
pub(crate) const FAULT_FORK: u64 = 0xFA17;
const _: () = assert!(PHY_TX_FORK != FAULT_FORK);

/// Identifies one stage of the active-TTI pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// CN arrival/ACK/STATUS event drain, RTO and watchdog scans.
    Ingress,
    /// PDCP inspection + RLC SDU admission (and RLC PDU pulls during
    /// transmit, re-entered from `PhyTx` for attribution).
    RlcDown,
    /// Rate-matrix refresh, GBR reservation, scheduler invocation.
    MacSched,
    /// Channel evolution and the HARQ/BLER air-interface transmit.
    PhyTx,
    /// Reassembly, TCP receive and flow-completion recording.
    Delivery,
    /// Fault edges, RLC timers, flow-table GC, invariant audits.
    Housekeeping,
}

impl StageId {
    /// All stages, in nominal pipeline order.
    pub const ALL: [StageId; 6] = [
        StageId::Ingress,
        StageId::RlcDown,
        StageId::MacSched,
        StageId::PhyTx,
        StageId::Delivery,
        StageId::Housekeeping,
    ];

    /// Short display label.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Ingress => "ingress",
            StageId::RlcDown => "rlc_down",
            StageId::MacSched => "mac_sched",
            StageId::PhyTx => "phy_tx",
            StageId::Delivery => "delivery",
            StageId::Housekeeping => "housekeeping",
        }
    }
}

/// End-of-TTI roll-up handed to [`StageObserver::on_tti`] — the typed
/// message the golden-trace determinism harness digests.
#[derive(Debug, Clone, Copy)]
pub struct TtiSummary {
    /// Resource blocks granted this TTI (dynamic + GBR-reserved).
    pub used_rbs: u32,
    /// Resource blocks the carrier offers per TTI.
    pub total_rbs: u32,
    /// Cumulative bytes delivered to UE stacks since the run started.
    pub delivered_bytes: u64,
    /// Cumulative completed flows since the run started.
    pub completed_flows: u64,
}

/// Structural hook over the active-TTI pipeline.
///
/// `stage_enter`/`stage_exit` bracket every stage execution (stages may
/// nest: RLC pull work performed during the PHY transmit is re-entered
/// as [`StageId::RlcDown`]); [`StageObserver::on_tti`] fires once at
/// the end of every *active* TTI — idle TTIs execute no stages and
/// produce no callbacks, identically in dense and event-driven
/// stepping.
pub trait StageObserver {
    /// A stage begins executing (possibly nested inside another).
    fn stage_enter(&mut self, id: StageId) {
        let _ = id;
    }
    /// The innermost executing stage ends.
    fn stage_exit(&mut self, id: StageId) {
        let _ = id;
    }
    /// The active TTI ending at `now` finished the whole pipeline.
    fn on_tti(&mut self, now: Time, summary: &TtiSummary) {
        let _ = (now, summary);
    }
}

/// Owner of the optional pipeline observer. All hook calls are no-ops
/// when nothing is attached, so the hot path pays one `Option` check.
#[derive(Default)]
pub struct ObserverHost {
    inner: Option<Box<dyn StageObserver + Send>>,
}

impl ObserverHost {
    /// Attach an observer (replacing any previous one).
    pub(crate) fn install(&mut self, obs: Box<dyn StageObserver + Send>) {
        self.inner = Some(obs);
    }

    /// Whether any observer is attached (lets callers skip summary
    /// assembly work when nobody is listening).
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Bracket entry — see [`StageObserver::stage_enter`].
    #[inline]
    pub(crate) fn enter(&mut self, id: StageId) {
        if let Some(o) = &mut self.inner {
            o.stage_enter(id);
        }
    }

    /// Bracket exit — see [`StageObserver::stage_exit`].
    #[inline]
    pub(crate) fn exit(&mut self, id: StageId) {
        if let Some(o) = &mut self.inner {
            o.stage_exit(id);
        }
    }

    /// End-of-TTI notification — see [`StageObserver::on_tti`].
    #[inline]
    pub(crate) fn on_tti(&mut self, now: Time, summary: &TtiSummary) {
        if let Some(o) = &mut self.inner {
            o.on_tti(now, summary);
        }
    }
}

// ---- per-UE pipeline contract ------------------------------------------

/// The downlink RLC transmit entity of one UE, in either mode.
pub enum RlcTx {
    /// Unacknowledged Mode.
    Um(UmTx),
    /// Acknowledged Mode.
    Am(AmTx),
}

impl RlcTx {
    /// Admit one SDU; `Err` returns the discarded victim (drop-tail or
    /// push-out).
    pub fn write_sdu(&mut self, sdu: RlcSdu) -> Result<(), RlcSdu> {
        match self {
            RlcTx::Um(um) => um.write_sdu(sdu),
            RlcTx::Am(am) => am.write_sdu(sdu),
        }
    }

    /// Whether this entity can still generate transmission work (AM
    /// counts retransmission/status machinery, not just queued SDUs).
    pub fn has_work(&self) -> bool {
        match self {
            RlcTx::Um(um) => !um.is_empty(),
            RlcTx::Am(am) => !am.is_quiescent(),
        }
    }

    /// O(1) occupancy triple for scheduler input: (queued bytes, head
    /// priority, oldest head-of-line arrival).
    pub fn occupancy(&self) -> (u64, Option<outran_pdcp::Priority>, Option<Time>) {
        match self {
            RlcTx::Um(um) => (
                um.queued_bytes(),
                um.head_priority(),
                um.oldest_head_arrival(),
            ),
            RlcTx::Am(am) => (
                am.pending_bytes(),
                am.head_priority(),
                am.oldest_head_arrival(),
            ),
        }
    }

    /// Queued SDU count.
    pub fn len_sdus(&self) -> usize {
        match self {
            RlcTx::Um(um) => um.len_sdus(),
            RlcTx::Am(am) => am.len_sdus(),
        }
    }

    /// Current SDU capacity.
    pub fn capacity_sdus(&self) -> usize {
        match self {
            RlcTx::Um(um) => um.capacity_sdus(),
            RlcTx::Am(am) => am.capacity_sdus(),
        }
    }

    /// Buffer slots held by empty MLFQ levels (see
    /// [`outran_rlc::MlfqQueues::idle_capacity`]).
    pub fn idle_capacity(&self) -> usize {
        match self {
            RlcTx::Um(um) => um.idle_capacity(),
            RlcTx::Am(am) => am.idle_capacity(),
        }
    }

    /// Clamp the SDU capacity, flushing overflow; returns (SDUs, bytes)
    /// flushed.
    pub fn set_capacity(&mut self, capacity_sdus: usize) -> (u64, u64) {
        match self {
            RlcTx::Um(um) => um.set_capacity(capacity_sdus),
            RlcTx::Am(am) => am.set_capacity(capacity_sdus),
        }
    }

    /// RLC re-establishment flush; returns (SDUs, bytes) flushed.
    pub fn reestablish(&mut self) -> (u64, u64) {
        match self {
            RlcTx::Um(um) => um.reestablish(),
            RlcTx::Am(am) => am.reestablish(),
        }
    }
}

/// The receive-side RLC entity of one UE, in either mode.
pub enum RlcRx {
    /// Unacknowledged Mode reassembly.
    Um(UmRx),
    /// Acknowledged Mode receive window.
    Am(AmRx),
}

impl RlcRx {
    /// RLC re-establishment flush; returns (SDUs, bytes) discarded.
    pub fn reestablish(&mut self) -> (u64, u64) {
        match self {
            RlcRx::Um(um) => um.reestablish(),
            RlcRx::Am(am) => am.reestablish(),
        }
    }
}

/// What a HARQ transport block carries in this cell. The ledger byte
/// count is cached at construction so the hot path never re-walks the
/// segment list (AM PDUs are ledger-exempt: AM runs without
/// conservation auditing).
pub struct HarqPayload {
    /// Ledger-countable payload bytes (0 for AM).
    pub bytes: u64,
    /// The RLC PDUs awaiting retransmission.
    pub data: HarqData,
}

/// Mode-specific HARQ payload contents.
pub enum HarqData {
    /// UM segments.
    Um(Vec<RlcSegment>),
    /// AM PDUs.
    Am(Vec<AmPdu>),
}

impl HarqPayload {
    /// Wrap UM segments, caching their ledger byte count.
    pub fn um(segs: Vec<RlcSegment>) -> HarqPayload {
        HarqPayload::new(HarqData::Um(segs))
    }

    /// Wrap AM PDUs (ledger-exempt).
    pub fn am(pdus: Vec<AmPdu>) -> HarqPayload {
        HarqPayload::new(HarqData::Am(pdus))
    }

    fn new(data: HarqData) -> HarqPayload {
        let mut p = HarqPayload { bytes: 0, data };
        p.count_bytes();
        p
    }

    /// Cache the ledger byte count of the payload: the UM segments'
    /// bytes, 0 for AM.
    fn count_bytes(&mut self) {
        self.bytes = match &self.data {
            HarqData::Um(segs) => segs.iter().map(|s| u64::from(s.len)).sum(),
            HarqData::Am(_) => 0,
        };
    }
}

/// Everything the pipeline keeps per UE — the former parallel per-UE
/// vectors of the monolithic `Cell`, gathered into one context that
/// stages receive as `&mut [UeContext]`.
pub struct UeContext {
    /// PDCP flow table (MLFQ marking state).
    pub flow_table: FlowTable,
    /// Downlink RLC transmit entity.
    pub rlc_tx: RlcTx,
    /// UE-side RLC receive entity.
    pub rlc_rx: RlcRx,
    /// Per-UE HARQ processes (explicit-HARQ mode).
    pub harq: outran_phy::harq::HarqQueue<HarqPayload>,
    /// Indices of this UE's not-yet-completed flows (pruned lazily).
    pub flows: Vec<usize>,
}

/// MLFQ level count for a configuration.
fn mlfq_levels(cfg: &CellConfig) -> usize {
    if cfg.scheduler.uses_mlfq() {
        cfg.outran.thresholds.len() + 1
    } else if cfg.scheduler.uses_oracle_priority() {
        16 // fine-grained remaining-size levels for the SRJF oracle
    } else {
        1 // legacy FIFO
    }
}

/// UM transmit-entity configuration for a cell configuration.
fn um_config(cfg: &CellConfig) -> UmConfig {
    UmConfig {
        mlfq_levels: mlfq_levels(cfg),
        capacity_sdus: cfg.buffer_sdus,
        header_bytes: cfg.outran.header_bytes,
        reassembly_window: cfg.outran.reassembly_window,
        promote_segments: cfg.outran.promote_segments,
        pushout: cfg.outran.pushout,
    }
}

/// AM transmit-entity configuration for a cell configuration.
fn am_config(cfg: &CellConfig) -> AmConfig {
    AmConfig {
        mlfq_levels: mlfq_levels(cfg),
        capacity_sdus: cfg.buffer_sdus,
        header_bytes: cfg.outran.header_bytes.max(5),
        promote_segments: cfg.outran.promote_segments,
        pushout: cfg.outran.pushout,
        ..AmConfig::default()
    }
}

// The RLC entities were built in the configured mode, so a UM snapshot
// cannot load into an AM cell (and vice versa).
snap_enum! { overlay RlcTx, "RLC tx mode disagrees with configuration" { 0 => Um(um), 1 => Am(am) } }
snap_enum! { overlay RlcRx, "RLC rx mode disagrees with configuration" { 0 => Um(um), 1 => Am(am) } }
snap_enum! { HarqData, "unknown HARQ payload tag" { 0 => Um(segs), 1 => Am(pdus) } }
impl HarqPayload {
    /// Restore's last step: the ledger count is the payload's own.
    fn after_load(&mut self) -> Result<(), SnapError> {
        self.count_bytes();
        Ok(())
    }
}

snap_fields! { HarqPayload { data } rebuilt { bytes } then HarqPayload::after_load }
snap_fields! { overlay UeContext { flow_table, rlc_tx, rlc_rx, harq, flows in index(flows) } }

impl UeContext {
    /// Build the per-UE contexts for a configuration (one shared MLFQ
    /// config across flow tables; per-mode RLC entities).
    pub(crate) fn build_all(cfg: &CellConfig) -> Vec<UeContext> {
        let mlfq = std::sync::Arc::new(if cfg.scheduler.uses_mlfq() {
            cfg.outran.resolve_mlfq()
        } else {
            MlfqConfig::default()
        });
        (0..cfg.n_ues)
            .map(|_| {
                let mut flow_table = FlowTable::shared(mlfq.clone());
                if let Some(cap) = cfg.max_flow_entries {
                    flow_table.set_max_entries(Some(cap));
                }
                UeContext {
                    flow_table,
                    rlc_tx: match cfg.rlc_mode {
                        RlcMode::Um => RlcTx::Um(UmTx::new(um_config(cfg))),
                        RlcMode::Am => RlcTx::Am(AmTx::new(am_config(cfg))),
                    },
                    rlc_rx: match cfg.rlc_mode {
                        RlcMode::Um => RlcRx::Um(UmRx::new(cfg.outran.reassembly_window)),
                        RlcMode::Am => RlcRx::Am(AmRx::new(AmConfig::default())),
                    },
                    harq: outran_phy::harq::HarqQueue::new(cfg.harq.unwrap_or_default()),
                    flows: Vec::new(),
                }
            })
            .collect()
    }

    /// Whether this UE's RLC/HARQ state can generate work this TTI.
    pub fn has_radio_work(&self) -> bool {
        if !self.harq.is_empty() || self.rlc_tx.has_work() {
            return true;
        }
        if let RlcRx::Um(um) = &self.rlc_rx {
            if um.pending() > 0 {
                return true;
            }
        }
        false
    }
}

// ---- typed inter-stage messages ----------------------------------------

// The per-TTI rate matrix lives in `outran-mac` now (plane-backed so the
// scheduler kernels can run over its flat arrays); re-exported here to
// keep the stage-pipeline namespace stable.
pub use outran_mac::TtiRates;

/// One downlink packet crossing the ingress → RLC boundary: everything
/// the RLC-down stage needs to admit it, without reaching back into the
/// ingress stage's flow table.
pub struct SduIngress {
    /// Flow index.
    pub flow: usize,
    /// Destination UE.
    pub ue: usize,
    /// PDCP five-tuple.
    pub tuple: outran_pdcp::FiveTuple,
    /// Byte offset of this packet within the flow.
    pub seq: u64,
    /// Packet length in bytes.
    pub len: u32,
    /// Oracle remaining flow size at this packet (SRJF priority input).
    pub oracle_remaining: u64,
}

/// One air-interface delivery crossing the PHY → delivery boundary, in
/// exact transmission order (the delivery stage replays the batch after
/// the transmit loop finishes; effects within one TTI are
/// order-preserving, so the replay is bit-identical to inline delivery).
pub enum AirDelivery {
    /// A UM segment that survived the air interface.
    UmSeg {
        /// Destination UE.
        ue: usize,
        /// The delivered segment.
        seg: RlcSegment,
    },
    /// A batch of AM PDUs that survived the air interface.
    AmPdus {
        /// Destination UE.
        ue: usize,
        /// The delivered PDUs.
        pdus: Vec<AmPdu>,
    },
    /// A HARQ-recovered transport block's payload.
    Harq {
        /// Destination UE.
        ue: usize,
        /// The recovered payload.
        payload: HarqPayload,
    },
}

#[cfg(test)]
mod tests {
    /// D8 and D4: `*Stage` fields stay private; `pop_due` is only a `while let` drain.
    #[test]
    fn stage_fields_are_private_and_pop_due_drains() {
        let files = [
            include_str!("delivery.rs"),
            include_str!("housekeeping.rs"),
            include_str!("ingress.rs"),
            include_str!("mac_sched.rs"),
            include_str!("phy_tx.rs"),
            include_str!("rlc_down.rs"),
        ];
        let (mut stages, mut drains, mut in_stage) = (0, 0, false);
        for line in files.iter().flat_map(|src| src.lines()).map(str::trim) {
            if line.starts_with("pub struct ") && line.ends_with("Stage {") {
                (stages, in_stage) = (stages + 1, true);
            } else if in_stage {
                in_stage = line != "}";
                assert!(!line.starts_with("pub"), "public stage field: {line}");
            }
            if line.contains(".pop_due(") {
                drains += 1;
                assert!(line.starts_with("while let "), "lone pop_due: {line}");
            }
        }
        assert_eq!((stages, drains), (6, 2), "stage structs, pop_due calls");
    }
}
