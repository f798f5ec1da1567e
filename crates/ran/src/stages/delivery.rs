//! Stage 5 — **delivery**: UE-side reassembly and flow completion.
//!
//! Replays the PHY stage's ordered [`AirDelivery`] batch: RLC receive
//! windows (UM reassembly / AM in-order delivery + STATUS), queue-delay
//! metrics, the delivery-order audit, and the hand-back of reassembled
//! SDUs to the ingress stage's TCP receivers — recording FCTs for flows
//! that complete. Draws no randomness (see the bit-identity argument in
//! [`crate::stages::phy_tx`]).

use crate::cell::CellPools;
use crate::config::{CellConfig, FlowDone};
use crate::stages::{AirDelivery, HarqData, HousekeepingStage, IngressStage, RlcRx, UeContext};
use outran_metrics::CellMetrics;
use outran_rlc::am::AmPdu;
use outran_rlc::sdu::RlcSegment;
use outran_rlc::um::DeliveredSdu;
use outran_simcore::snap_fields;
use outran_simcore::Time;

/// The delivery stage (see module docs).
#[derive(Default)]
pub struct DeliveryStage {
    completions: Vec<FlowDone>,
    delivered_bytes: u64,
    completed: u64,
    // Reusable per-PDU reassembly output; drained inside every call,
    // never read across a TTI boundary and never snapshotted.
    sdus: Vec<DeliveredSdu>,
}

impl DeliveryStage {
    /// Fresh stage.
    pub fn new() -> DeliveryStage {
        DeliveryStage::default()
    }

    /// Replay one TTI's delivery batch in transmission order.
    #[allow(clippy::too_many_arguments, reason = "stages are borrowed disjointly")]
    pub fn run(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        batch: &mut Vec<AirDelivery>,
        ues: &mut [UeContext],
        ingress: &mut IngressStage,
        hk: &mut HousekeepingStage,
        metrics: &mut CellMetrics,
        pools: &mut CellPools,
    ) {
        for item in batch.drain(..) {
            match item {
                AirDelivery::UmSeg { ue, seg } => {
                    self.um_segment(now, cfg, ues, ingress, hk, metrics, ue, seg);
                }
                AirDelivery::AmPdus { ue, mut pdus } => {
                    self.am_pdus(now, cfg, ues, ingress, hk, metrics, ue, &mut pdus);
                    pools.pdus.put(pdus);
                }
                AirDelivery::Harq { ue, payload } => match payload.data {
                    HarqData::Um(mut segs) => {
                        for seg in segs.drain(..) {
                            self.um_segment(now, cfg, ues, ingress, hk, metrics, ue, seg);
                        }
                        pools.segs.put(segs);
                    }
                    HarqData::Am(mut pdus) => {
                        self.am_pdus(now, cfg, ues, ingress, hk, metrics, ue, &mut pdus);
                        pools.pdus.put(pdus);
                    }
                },
            }
        }
    }

    /// Deliver one UM segment into the UE stack (reassembly + TCP).
    #[allow(clippy::too_many_arguments, reason = "stages are borrowed disjointly")]
    fn um_segment(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        ingress: &mut IngressStage,
        hk: &mut HousekeepingStage,
        metrics: &mut CellMetrics,
        ue: usize,
        seg: RlcSegment,
    ) {
        if seg.is_last() {
            let short = ingress.flow_is_short(seg.flow_id as usize);
            metrics.on_queue_delay(now.saturating_since(seg.arrival), short);
        }
        #[expect(
            clippy::unreachable,
            reason = "rx/tx RLC modes are paired per-UE at construction"
        )]
        let RlcRx::Um(rx) = &mut ues[ue].rlc_rx
        else {
            unreachable!("UM tx with AM rx");
        };
        if let Some(d) = rx.on_segment(&seg, now) {
            self.accept(now, cfg, ingress, hk, ue, &d);
        }
    }

    /// Hand one reassembled SDU to its flow's TCP receiver. The SDU of a
    /// flow that is done already is discarded there unseen by the order
    /// audit, and the SDU that completes a flow ends its audit history:
    /// the audit holds open flows only, and checks every SDU a receiver
    /// accepts.
    fn accept(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ingress: &mut IngressStage,
        hk: &mut HousekeepingStage,
        ue: usize,
        d: &DeliveredSdu,
    ) {
        self.delivered_bytes += d.len as u64;
        if ingress.flow_done(d.flow_id as usize) {
            return;
        }
        hk.observe_delivery(now, ue, d.flow_id, d.sdu_id);
        let ul_delay = cfg.cn_delay + cfg.ul_air_delay + hk.cn_extra_delay();
        if let Some(done) = ingress.accept_sdu(now, ul_delay, d) {
            hk.forget_flow(ue, d.flow_id);
            self.completed += 1;
            self.completions.push(done);
        }
    }

    /// Deliver AM PDUs into the UE stack (in-order delivery + STATUS).
    #[allow(clippy::too_many_arguments, reason = "stages are borrowed disjointly")]
    fn am_pdus(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        ingress: &mut IngressStage,
        hk: &mut HousekeepingStage,
        metrics: &mut CellMetrics,
        ue: usize,
        pdus: &mut Vec<AmPdu>,
    ) {
        for pdu in pdus.drain(..) {
            if pdu.seg.is_last() {
                let short = ingress.flow_is_short(pdu.seg.flow_id as usize);
                metrics.on_queue_delay(now.saturating_since(pdu.seg.arrival), short);
            }
            #[expect(
                clippy::unreachable,
                reason = "rx/tx RLC modes are paired per-UE at construction"
            )]
            let RlcRx::Am(rx) = &mut ues[ue].rlc_rx
            else {
                unreachable!("AM tx with UM rx");
            };
            let mut sdus = std::mem::take(&mut self.sdus);
            let status = rx.on_pdu_into(pdu, now, &mut sdus);
            for d in sdus.drain(..) {
                self.accept(now, cfg, ingress, hk, ue, &d);
            }
            self.sdus = sdus;
            if let Some(status) = status {
                ingress.schedule_status(now + cfg.ul_air_delay, ue, status);
            }
        }
    }

    /// Drain completed-flow records accumulated since the last call.
    pub fn take_completions(&mut self) -> Vec<FlowDone> {
        std::mem::take(&mut self.completions)
    }

    /// Bytes delivered to the UE stacks (byte-conservation ledger term).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Flows completed since the start of the run, drained or not.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

// Completions not yet drained by the harness plus the delivered-bytes
// and completed-flows ledger terms; the reassembly output buffer is
// drained inside every call.
snap_fields! {
    overlay DeliveryStage { completions, delivered_bytes in counter, completed in counter }
    rebuilt { sdus }
}
