//! Stage 2 — **RLC down**: PDCP inspection and RLC SDU admission.
//!
//! Receives [`SduIngress`] messages from the
//! ingress stage, runs PDCP header inspection + MLFQ marking on the
//! destination UE's flow table (§4.2), applies the SRJF oracle's
//! priority override when configured, and writes the SDU into the UE's
//! RLC transmit entity — counting buffer drops for the ledger.

use crate::config::CellConfig;
use crate::stages::{SduIngress, UeContext};
use outran_rlc::am::StatusPdu;
use outran_rlc::sdu::RlcSdu;
use outran_simcore::snap_fields;
use outran_simcore::Time;

/// The RLC-down stage (see module docs).
pub struct RlcDownStage {
    next_sdu_id: u64,
    buffer_drops: u64,
    dropped_bytes: u64,
    /// Whether the SRJF oracle overrides PDCP's MLFQ marking with a
    /// priority quantized from the flow's remaining size.
    oracle_priority: bool,
}

impl RlcDownStage {
    /// Build from the cell configuration.
    pub fn new(cfg: &CellConfig) -> RlcDownStage {
        RlcDownStage {
            next_sdu_id: 0,
            buffer_drops: 0,
            dropped_bytes: 0,
            oracle_priority: cfg.scheduler.uses_oracle_priority(),
        }
    }

    /// Admit one downlink packet into `ue`'s RLC entity: PDCP flow-table
    /// observation (always — it carries the per-flow sent-bytes state),
    /// oracle override, active-flow registration, SDU write.
    pub fn ingest(&mut self, now: Time, msg: SduIngress, ue: &mut UeContext) {
        let mut prio = ue.flow_table.observe(msg.tuple, msg.len, now);
        if self.oracle_priority {
            prio = srjf_oracle_priority(msg.oracle_remaining);
        }
        if ue.flows.iter().all(|&x| x != msg.flow) {
            ue.flows.push(msg.flow);
        }
        let sdu = RlcSdu {
            id: self.next_sdu_id,
            flow_id: msg.flow as u64,
            tuple: msg.tuple,
            len: msg.len,
            offset: 0,
            priority: prio,
            arrival: now,
            seq: msg.seq,
        };
        self.next_sdu_id += 1;
        if let Err(dropped) = ue.rlc_tx.write_sdu(sdu) {
            // Either the incoming SDU (drop-tail) or a worse-priority
            // victim (push-out) was discarded: TCP sees the loss.
            self.buffer_drops += 1;
            self.dropped_bytes += dropped.remaining() as u64;
        }
    }

    /// Feed an uplink AM STATUS PDU into `ue`'s AM transmit entity.
    /// Returns whether it abandoned a PDU (see [`AmTx::on_status`]).
    ///
    /// [`AmTx::on_status`]: outran_rlc::AmTx::on_status
    pub fn on_status(&mut self, ue: &mut UeContext, status: &StatusPdu) -> bool {
        match &mut ue.rlc_tx {
            crate::stages::RlcTx::Am(am) => am.on_status(status),
            crate::stages::RlcTx::Um(_) => false,
        }
    }

    /// SDUs dropped at full RLC buffers.
    pub fn buffer_drops(&self) -> u64 {
        self.buffer_drops
    }

    /// Bytes terminally dropped by RLC admission (ledger term).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

snap_fields! {
    overlay RlcDownStage {
        next_sdu_id in counter, buffer_drops in counter, dropped_bytes in counter,
    }
    rebuilt { oracle_priority }
}

/// Quantize a flow's remaining size into one of 16 strict-priority
/// levels (log₂ spacing from 1 KB): the SRJF oracle's intra-UE ordering.
fn srjf_oracle_priority(remaining: u64) -> outran_pdcp::Priority {
    let level = (remaining / 1024 + 1).ilog2().min(15) as u8;
    outran_pdcp::Priority(level)
}
