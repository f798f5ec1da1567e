//! Stage 1 — **ingress**: the server/CN side of the pipeline.
//!
//! Owns the TCP endpoints, the discrete event queue (flow arrivals,
//! packet/ACK propagation, AM STATUS PDUs), the RTO and stalled-flow
//! watchdog scans, and the CN-side terms of the byte-conservation
//! ledger. The scans walk a live-flow index rather than the flow table,
//! so an active TTI costs what its open flows cost, not what the run
//! has ever scheduled. Downlink packets that survive the CN link are
//! handed to the RLC-down stage as typed [`SduIngress`] messages; the
//! delivery stage hands reassembled SDUs back via
//! [`IngressStage::accept_sdu`].

use crate::config::CellConfig;
use crate::stages::{
    HousekeepingStage, ObserverHost, RlcDownStage, SduIngress, StageId, UeContext,
};
use outran_pdcp::FiveTuple;
use outran_rlc::am::StatusPdu;
use outran_rlc::um::DeliveredSdu;
use outran_simcore::snap::SnapError;
use outran_simcore::{snap_enum, snap_fields, Dur, EventQueue, Time};
use outran_transport::{Segment, TcpConfig, TcpReceiver, TcpSender};

/// A completed-flow record emitted by [`IngressStage::accept_sdu`]; the
/// delivery stage folds it into the cell's FCT collector.
pub use crate::config::FlowDone;

enum Ev {
    Arrival { flow: usize },
    PktAtEnb { flow: usize, seq: u64, len: u32 },
    AckAtServer { flow: usize, cum: u64 },
    StatusAtEnb { ue: usize, status: StatusPdu },
}

struct FlowRt {
    ue: usize,
    size: u64,
    spawn: Time,
    tuple: FiveTuple,
    sender: TcpSender,
    receiver: TcpReceiver,
    started: bool,
    done: bool,
    /// Watchdog state: highest cumulative ACK seen, and when it moved.
    last_cum: u64,
    last_progress: Time,
}

/// The ingress stage (see module docs).
pub struct IngressStage {
    flows: Vec<FlowRt>,
    events: EventQueue<Ev>,
    /// Started-but-incomplete flows — the O(1) core of the idle test.
    open_flows: u64,
    /// Live-flow index: the ids of the `started ∧ ¬done` flows in
    /// ascending id order — the order the scans emit in, which feeds
    /// event-queue sequence numbers — plus entries that went `done`
    /// since the last scan, which the next scan drops. Derived from
    /// `flows`: never serialized, rebuilt after a restore.
    live: Vec<usize>,
    /// Flow entries the RTO and watchdog scans have visited: a work
    /// counter for tests (never serialized, in no report).
    scan_visits: u64,
    // CN-side byte-conservation ledger terms.
    injected_bytes: u64,
    cn_in_flight_bytes: u64,
    dropped_bytes: u64,
    /// Endpoint configuration every flow's sender is built against.
    tcp: TcpConfig,
    /// Per-TTI scratch, drained before any TTI boundary.
    emit_scratch: Vec<Segment>,
}

impl IngressStage {
    /// Fresh stage with no flows; senders will run under `tcp`.
    pub fn new(tcp: TcpConfig) -> IngressStage {
        IngressStage {
            tcp,
            flows: Vec::new(),
            events: EventQueue::new(),
            open_flows: 0,
            live: Vec::new(),
            scan_visits: 0,
            injected_bytes: 0,
            cn_in_flight_bytes: 0,
            dropped_bytes: 0,
            emit_scratch: Vec::new(),
        }
    }

    /// Register a flow of `bytes` toward `ue`, starting at the server at
    /// `at` (≥ now). `conn` groups flows onto a shared five-tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_flow(
        &mut self,
        now: Time,
        tti: Dur,
        cfg: &CellConfig,
        at: Time,
        ue: usize,
        bytes: u64,
        conn: Option<u64>,
    ) -> usize {
        let id = self.flows.len();
        let tuple = match conn {
            Some(c) => FiveTuple::simulated(c, ue as u16),
            None => FiveTuple::simulated(1_000_000 + id as u64, ue as u16),
        };
        // The connection handshake already sampled one wired+air RTT.
        let handshake_rtt =
            Dur(2 * (cfg.cn_delay.as_nanos() + cfg.ul_air_delay.as_nanos()) + tti.as_nanos() * 4);
        self.flows.push(FlowRt {
            ue,
            size: bytes,
            spawn: at,
            tuple,
            sender: TcpSender::with_initial_rtt(self.tcp, bytes, handshake_rtt),
            receiver: TcpReceiver::new(bytes),
            started: false,
            done: false,
            last_cum: 0,
            last_progress: at,
        });
        self.events.schedule(at.max(now), Ev::Arrival { flow: id });
        id
    }

    /// Register a flow carrying an *explicit* five-tuple — the handover
    /// attach path: the continuation flow at the target cell must keep
    /// the tuple it had at the source so the imported PDCP state (MLFQ
    /// sent-bytes) keys onto it.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_flow_with_tuple(
        &mut self,
        now: Time,
        tti: Dur,
        cfg: &CellConfig,
        at: Time,
        ue: usize,
        bytes: u64,
        tuple: FiveTuple,
    ) -> usize {
        let id = self.schedule_flow(now, tti, cfg, at, ue, bytes, None);
        self.flows[id].tuple = tuple;
        id
    }

    /// Terminally abort flow `fi` (handover detach from the source cell):
    /// marks it done so no further server emission, delivery or ACK
    /// processing happens, and returns the bytes not yet cumulatively
    /// ACKed — the size of the continuation flow at the target. In-flight
    /// CN copies drain through the stale-packet path of the byte ledger;
    /// a started flow's live-index entry is dropped by the next scan.
    /// Returns 0 (and does nothing) if the flow already completed.
    pub fn abort_flow(&mut self, fi: usize) -> u64 {
        let f = &mut self.flows[fi];
        if f.done {
            return 0;
        }
        f.done = true;
        if f.started {
            self.open_flows -= 1;
        }
        f.size.saturating_sub(f.receiver.cum())
    }

    /// Per-TTI ingress pass: drain due events (arrivals, packets, ACKs,
    /// STATUS), then the RTO scan, then the stalled-flow watchdog. The
    /// CN link faults act here: an outage drops every traversing packet,
    /// a degrade window loses them with probability `cn_loss`. Packets
    /// that reach the xNodeB cross into the RLC-down stage (bracketed
    /// for the observer, since that work belongs to the RLC layer).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        rlc: &mut RlcDownStage,
        hk: &mut HousekeepingStage,
        obs: &mut ObserverHost,
    ) {
        // 1. Event processing.
        while let Some((_, ev)) = self.events.pop_due(now) {
            match ev {
                Ev::Arrival { flow } => {
                    // A flow aborted before its arrival fired (handover
                    // detach) must not open: `done` is terminal.
                    if !self.flows[flow].done {
                        self.flows[flow].started = true;
                        self.open_flows += 1;
                        // Ids are handed out in registration order, not
                        // arrival order: a later id may arrive earlier.
                        match self.live.last() {
                            Some(&last) if last > flow => {
                                let at = self.live.partition_point(|&f| f < flow);
                                self.live.insert(at, flow);
                            }
                            _ => self.live.push(flow),
                        }
                        self.server_emit(now, cfg, hk, flow);
                    }
                }
                Ev::PktAtEnb { flow, seq, len } => {
                    self.cn_in_flight_bytes -= len as u64;
                    if hk.cn_loses_packet() {
                        self.dropped_bytes += len as u64;
                        hk.note_cn_dropped_data(len as u64);
                    } else {
                        self.on_pkt_at_enb(now, ues, rlc, obs, flow, seq, len);
                    }
                }
                Ev::AckAtServer { flow, cum } => {
                    if hk.cn_loses_packet() {
                        hk.note_cn_dropped_ack();
                    } else {
                        let f = &mut self.flows[flow];
                        f.sender.on_ack(now, cum);
                        self.server_emit(now, cfg, hk, flow);
                    }
                }
                Ev::StatusAtEnb { ue, status } => {
                    obs.enter(StageId::RlcDown);
                    rlc.on_status(&mut ues[ue], &status);
                    obs.exit(StageId::RlcDown);
                }
            }
        }

        // 2. RTO scan over the live flows, dropping the entries that
        // completed (or were aborted) since the last scan. Nothing
        // inside `run` sets `done`, so the watchdog below sees only
        // open flows.
        debug_assert!(self.live_index_is_sound());
        let mut live = std::mem::take(&mut self.live);
        live.retain(|&flow| {
            self.scan_visits += 1;
            let f = &mut self.flows[flow];
            if f.done {
                return false;
            }
            if f.sender.rto_deadline().is_some_and(|d| d <= now) {
                f.sender.on_rto(now);
                self.server_emit(now, cfg, hk, flow);
            }
            true
        });

        // 2b. Stalled-flow watchdog: a started flow whose cumulative ACK
        // has not moved for the configured interval gets a forced TCP
        // timeout (go-back-N refill) — the recovery of last resort when
        // every in-flight copy of a segment was lost to faults.
        if let Some(stall) = cfg.watchdog {
            self.scan_visits += live.len() as u64;
            for &flow in &live {
                let f = &mut self.flows[flow];
                let cum = f.receiver.cum();
                if cum > f.last_cum {
                    f.last_cum = cum;
                    f.last_progress = now;
                } else if now.saturating_since(f.last_progress) >= stall
                    && hk.faults().link_up(f.ue)
                {
                    f.last_progress = now;
                    f.sender.on_rto(now);
                    hk.note_watchdog_kick();
                    self.server_emit(now, cfg, hk, flow);
                }
            }
        }
        self.live = live;
    }

    /// Let the server push whatever the flow's window allows.
    fn server_emit(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        hk: &mut HousekeepingStage,
        flow: usize,
    ) {
        // Emit into the recycled scratch buffer: no per-call allocation.
        let mut segs = std::mem::take(&mut self.emit_scratch);
        segs.clear();
        {
            let f = &mut self.flows[flow];
            if f.done {
                self.emit_scratch = segs;
                return;
            }
            f.sender.emit_into(now, &mut segs);
        }
        let delay = cfg.cn_delay + hk.cn_extra_delay();
        let degraded = hk.cn_extra_delay() > Dur::ZERO;
        for seg in segs.drain(..) {
            self.injected_bytes += seg.len as u64;
            self.cn_in_flight_bytes += seg.len as u64;
            if degraded {
                hk.note_cn_delayed_pkt();
            }
            self.events.schedule(
                now + delay,
                Ev::PktAtEnb {
                    flow,
                    seq: seg.seq,
                    len: seg.len,
                },
            );
        }
        self.emit_scratch = segs;
    }

    /// A downlink packet arrives at the xNodeB: cross into RLC-down.
    #[allow(clippy::too_many_arguments)]
    fn on_pkt_at_enb(
        &mut self,
        now: Time,
        ues: &mut [UeContext],
        rlc: &mut RlcDownStage,
        obs: &mut ObserverHost,
        flow: usize,
        seq: u64,
        len: u32,
    ) {
        let (ue, tuple, size) = {
            let f = &self.flows[flow];
            (f.ue, f.tuple, f.size)
        };
        if self.flows[flow].done {
            // Stale retransmission of a completed flow: terminal for the
            // byte ledger.
            self.dropped_bytes += len as u64;
            return;
        }
        let msg = SduIngress {
            flow,
            ue,
            tuple,
            seq,
            len,
            oracle_remaining: size.saturating_sub(seq),
        };
        obs.enter(StageId::RlcDown);
        rlc.ingest(now, msg, &mut ues[ue]);
        obs.exit(StageId::RlcDown);
    }

    /// Deliver one reassembled SDU into the flow's TCP receiver and
    /// schedule the cumulative ACK back to the server; returns the
    /// completion record when this SDU finished the flow.
    pub fn accept_sdu(&mut self, now: Time, ul_delay: Dur, d: &DeliveredSdu) -> Option<FlowDone> {
        let flow = d.flow_id as usize;
        let f = &mut self.flows[flow];
        if f.done {
            return None;
        }
        let cum = f.receiver.on_segment(d.seq, d.len);
        self.events
            .schedule(now + ul_delay, Ev::AckAtServer { flow, cum });
        if f.receiver.complete() {
            f.done = true;
            self.open_flows -= 1;
            let dur = now.saturating_since(f.spawn);
            return Some(FlowDone {
                id: flow,
                ue: f.ue,
                bytes: f.size,
                spawn: f.spawn,
                fct: dur,
            });
        }
        None
    }

    /// Schedule an AM STATUS PDU's uplink arrival at the xNodeB.
    pub fn schedule_status(&mut self, at: Time, ue: usize, status: StatusPdu) {
        self.events.schedule(at, Ev::StatusAtEnb { ue, status });
    }

    // ---- read-side accessors ------------------------------------------

    /// Started-but-incomplete flow count.
    pub fn open_flows(&self) -> u64 {
        self.open_flows
    }

    /// Flow entries visited by the RTO and watchdog scans so far.
    pub fn scan_visits(&self) -> u64 {
        self.scan_visits
    }

    /// The O(live) half of the index contract, checked at every scan:
    /// strictly ascending ids of started flows, of which exactly
    /// `open_flows` are not done. With `open_flows` right (the other
    /// half, [`IngressStage::check_live_index`]) that pins the open
    /// entries to *the* set of `started ∧ ¬done` flows.
    fn live_index_is_sound(&self) -> bool {
        self.live.windows(2).all(|w| w[0] < w[1])
            && self.live.iter().all(|&f| self.flows[f].started)
            && self.live.iter().filter(|&&f| !self.flows[f].done).count() as u64 == self.open_flows
    }

    /// The full index contract against the flow table, O(flows): the
    /// index, less its not-yet-compacted `done` entries, is the
    /// ascending list of `started ∧ ¬done` flow ids, and `open_flows`
    /// is its length. For tests; a run never pays for it.
    pub fn check_live_index(&self) -> Result<(), String> {
        let open = |&f: &usize| self.flows[f].started && !self.flows[f].done;
        let want: Vec<usize> = (0..self.flows.len()).filter(open).collect();
        let got: Vec<usize> = self.live.iter().copied().filter(open).collect();
        if !self.live_index_is_sound() || got != want || want.len() as u64 != self.open_flows {
            return Err(format!(
                "live index {:?} (open: {got:?}) vs open flows {want:?}, open_flows = {}",
                self.live, self.open_flows
            ));
        }
        Ok(())
    }

    /// Instant of the earliest queued event, if any.
    pub fn peek_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Whether flow `fi` has completed.
    pub fn flow_done(&self, fi: usize) -> bool {
        self.flows[fi].done
    }

    /// Whether flow `fi` is short (≤ 10 kB — the QoS-oracle class).
    pub fn flow_is_short(&self, fi: usize) -> bool {
        self.flows[fi].size <= 10_000
    }

    /// Bytes of flow `fi` not yet cumulatively ACKed.
    pub fn flow_remaining(&self, fi: usize) -> u64 {
        let f = &self.flows[fi];
        f.size.saturating_sub(f.receiver.cum())
    }

    /// Destination UE of flow `fi`.
    pub fn flow_ue(&self, fi: usize) -> usize {
        self.flows[fi].ue
    }

    /// Total size of flow `fi` in bytes.
    pub fn flow_size(&self, fi: usize) -> u64 {
        self.flows[fi].size
    }

    /// Server-side spawn instant of flow `fi`.
    pub fn flow_spawn(&self, fi: usize) -> Time {
        self.flows[fi].spawn
    }

    /// Five-tuple of flow `fi`.
    pub fn flow_tuple(&self, fi: usize) -> FiveTuple {
        self.flows[fi].tuple
    }

    /// Total flows registered.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of completed flows.
    pub fn n_completed(&self) -> usize {
        self.flows.iter().filter(|f| f.done).count()
    }

    /// The most recent RTT observed by any flow of `ue`.
    pub fn last_rtt_of_ue(&self, ue: usize) -> Option<Dur> {
        self.flows
            .iter()
            .filter(|f| f.ue == ue)
            .filter_map(|f| f.sender.last_rtt)
            .next_back()
    }

    /// Mean of the last RTT samples across flows.
    pub fn mean_last_rtt_ms(&self) -> f64 {
        let (sum, n) = self
            .flows
            .iter()
            .filter_map(|f| f.sender.last_rtt)
            .fold((0.0, 0u64), |(sum, n), d| (sum + d.as_millis_f64(), n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Bytes injected by the servers (byte-conservation ledger term).
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Bytes currently traversing the CN link (ledger term).
    pub fn cn_in_flight_bytes(&self) -> u64 {
        self.cn_in_flight_bytes
    }

    /// Bytes terminally dropped at ingress (CN loss, stale packets).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Derive the live-flow index from the restored flow table. A
    /// snapshot whose open-flow count disagrees with its own flows is
    /// refused here rather than tripping the idle test later.
    fn rebuild_live(&mut self) -> Result<(), SnapError> {
        let flows = &self.flows;
        self.live.clear();
        self.live
            .extend((0..flows.len()).filter(|&f| flows[f].started && !flows[f].done));
        if self.live.len() as u64 != self.open_flows {
            return Err(SnapError::Malformed(
                "ingress open-flow count disagrees with the flow table",
            ));
        }
        Ok(())
    }
}

snap_enum! { Ev, "unknown ingress event tag" {
    0 => Arrival { flow },
    1 => PktAtEnb { flow, seq, len },
    2 => AckAtServer { flow, cum },
    3 => StatusAtEnb { ue, status },
} }

/// A blank flow against the endpoint configuration, ready for its
/// checkpointed state to be overlaid (the TCP configuration is not part
/// of the snapshot).
impl From<&TcpConfig> for FlowRt {
    fn from(tcp: &TcpConfig) -> FlowRt {
        FlowRt {
            ue: 0,
            size: 0,
            spawn: Time::ZERO,
            tuple: FiveTuple::simulated(0, 0),
            sender: TcpSender::new(*tcp, 0),
            receiver: TcpReceiver::new(0),
            started: false,
            done: false,
            last_cum: 0,
            last_progress: Time::ZERO,
        }
    }
}

snap_fields! {
    overlay FlowRt {
        ue, size, spawn, tuple, sender, receiver, started, done, last_cum, last_progress,
    }
}

// Every flow's TCP endpoints and watchdog state plus the discrete event
// queue (its sequence counter travels too, so restored tie-breaking is
// exact). The flow *count* is snapshot-driven — handover continuations
// are registered at run time — so the table grows from the snapshot.
snap_fields! {
    overlay IngressStage {
        flows: grow(tcp), events, open_flows, injected_bytes, cn_in_flight_bytes,
        dropped_bytes,
    }
    rebuilt { tcp, emit_scratch, live, scan_visits }
    then IngressStage::rebuild_live
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_simcore::snap::{LoadSnap, Snap, SnapReader, SnapWriter};

    #[test]
    fn restore_refuses_an_open_flow_count_the_flow_table_contradicts() {
        let tcp = CellConfig::lte_default(1, crate::SchedulerKind::Pf, 1).tcp;
        let mut lying = IngressStage::new(tcp);
        lying.open_flows = 1;
        let mut w = SnapWriter::new();
        lying.snap(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            IngressStage::new(tcp).load_snap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }
}
