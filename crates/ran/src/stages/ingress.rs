//! Stage 1 — **ingress**: the server/CN side of the pipeline.
//!
//! Owns the flow table (a record per registered flow, TCP endpoints
//! only for the open ones — `stages/flow_store.rs`), the discrete
//! event queue (flow arrivals, packet/ACK propagation, AM STATUS PDUs),
//! the RTO and stalled-flow watchdog scans, and the CN-side terms of the
//! byte-conservation ledger. The scans walk a live-flow index rather
//! than the flow table, so an active TTI costs what its open flows cost,
//! not what the run has ever scheduled. Downlink packets that survive
//! the CN link are handed to the RLC-down stage as typed [`SduIngress`]
//! messages; the delivery stage hands reassembled SDUs back via
//! [`IngressStage::accept_sdu`].

use crate::config::CellConfig;
use crate::stages::flow_store::FlowStore;
use crate::stages::{
    HousekeepingStage, ObserverHost, PhyTxStage, RlcDownStage, SduIngress, StageId, UeContext,
};
use outran_metrics::SizeBucket;
use outran_pdcp::FiveTuple;
use outran_rlc::am::StatusPdu;
use outran_rlc::um::DeliveredSdu;
use outran_simcore::snap::SnapError;
use outran_simcore::{snap_enum, snap_fields, Dur, EventQueue, PoolStats, Time};
use outran_transport::Segment;

/// A completed-flow record emitted by [`IngressStage::accept_sdu`]; the
/// delivery stage folds it into the cell's FCT collector.
pub use crate::config::FlowDone;

enum Ev {
    Arrival { flow: usize },
    PktAtEnb { flow: usize, seq: u64, len: u32 },
    AckAtServer { flow: usize, cum: u64 },
    StatusAtEnb { ue: usize, status: StatusPdu },
}

/// The ingress stage (see module docs).
pub struct IngressStage {
    flows: FlowStore,
    events: EventQueue<Ev>,
    /// Live-flow index: `(id, endpoint slot)` of the open (`started ∧
    /// ¬done`) flows in ascending id order — the order the scans emit
    /// in, which feeds event-queue sequence numbers — plus entries that
    /// went `done` since the last scan, which the next scan drops.
    /// Derived from `flows`: never serialized, rebuilt after a restore.
    live: Vec<(usize, u32)>,
    /// Flow entries the RTO and watchdog scans have visited: a work
    /// counter for tests (never serialized, in no report).
    scan_visits: u64,
    // CN-side byte-conservation ledger terms.
    injected_bytes: u64,
    cn_in_flight_bytes: u64,
    dropped_bytes: u64,
    /// Per-TTI scratch, drained before any TTI boundary.
    emit_scratch: Vec<Segment>,
}

impl IngressStage {
    /// Fresh stage with no flows; senders will run under `cfg.tcp`.
    pub fn new(cfg: &CellConfig, tti: Dur) -> IngressStage {
        // The connection handshake already sampled one wired+air RTT.
        let handshake_rtt =
            Dur(2 * (cfg.cn_delay.as_nanos() + cfg.ul_air_delay.as_nanos()) + tti.as_nanos() * 4);
        IngressStage {
            flows: FlowStore::new(cfg.tcp, handshake_rtt),
            events: EventQueue::new(),
            live: Vec::new(),
            scan_visits: 0,
            injected_bytes: 0,
            cn_in_flight_bytes: 0,
            dropped_bytes: 0,
            emit_scratch: Vec::new(),
        }
    }

    /// Register a flow of `bytes` toward `ue`, starting at the server at
    /// `at` (≥ now). `conn` groups flows onto a shared five-tuple. Only
    /// a record is kept until the arrival fires: the endpoints are built
    /// then.
    pub fn schedule_flow(
        &mut self,
        now: Time,
        at: Time,
        ue: usize,
        bytes: u64,
        conn: Option<u64>,
    ) -> usize {
        let conn = conn.unwrap_or(1_000_000 + self.flows.len() as u64);
        self.schedule_flow_with_tuple(now, at, ue, bytes, FiveTuple::simulated(conn, ue as u16))
    }

    /// Register a flow carrying an *explicit* five-tuple — the handover
    /// attach path: the continuation flow at the target cell must keep
    /// the tuple it had at the source so the imported PDCP state (MLFQ
    /// sent-bytes) keys onto it.
    pub fn schedule_flow_with_tuple(
        &mut self,
        now: Time,
        at: Time,
        ue: usize,
        bytes: u64,
        tuple: FiveTuple,
    ) -> usize {
        let id = self.flows.register(ue, bytes, at, tuple);
        self.events.schedule(at.max(now), Ev::Arrival { flow: id });
        id
    }

    /// Terminally abort flow `fi` (handover detach from the source cell):
    /// marks it done so no further server emission, delivery or ACK
    /// processing happens, releases its endpoints, and returns the bytes
    /// not yet cumulatively ACKed — the size of the continuation flow at
    /// the target. In-flight CN copies drain through the stale-packet
    /// path of the byte ledger; a started flow's live-index entry is
    /// dropped by the next scan. Returns 0 (and does nothing) if the
    /// flow already completed.
    pub fn abort_flow(&mut self, fi: usize) -> u64 {
        self.flows.finish(fi).unwrap_or(0)
    }

    /// Per-TTI ingress pass: drain due events (arrivals, packets, ACKs,
    /// STATUS), then the RTO scan, then the stalled-flow watchdog. The
    /// CN link faults act here: an outage drops every traversing packet,
    /// a degrade window loses them with probability `cn_loss`. Packets
    /// that reach the xNodeB cross into the RLC-down stage (bracketed
    /// for the observer, since that work belongs to the RLC layer). A
    /// STATUS that abandons an AM PDU re-establishes its UE.
    #[allow(clippy::too_many_arguments, reason = "stages are borrowed disjointly")]
    pub fn run(
        &mut self,
        now: Time,
        cfg: &CellConfig,
        ues: &mut [UeContext],
        rlc: &mut RlcDownStage,
        hk: &mut HousekeepingStage,
        phy: &mut PhyTxStage,
        obs: &mut ObserverHost,
    ) {
        // 1. Event processing.
        while let Some((_, ev)) = self.events.pop_due(now) {
            match ev {
                Ev::Arrival { flow } => {
                    // A flow aborted before its arrival fired (handover
                    // detach) must not open: `done` is terminal.
                    if let Some(slot) = self.flows.open(flow) {
                        // Ids are handed out in registration order, not
                        // arrival order: a later id may arrive earlier.
                        match self.live.last() {
                            Some(&(last, _)) if last > flow => {
                                let at = self.live.partition_point(|&(f, _)| f < flow);
                                self.live.insert(at, (flow, slot));
                            }
                            _ => self.live.push((flow, slot)),
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
                    } else if let Some(ep) = self.flows.endpoints_mut(flow) {
                        ep.sender.on_ack(now, cum);
                        self.server_emit(now, cfg, hk, flow);
                    } else {
                        self.flows.late_ack(flow, now, cum);
                    }
                }
                Ev::StatusAtEnb { ue, status } => {
                    obs.enter(StageId::RlcDown);
                    let abandoned = rlc.on_status(&mut ues[ue], &status);
                    obs.exit(StageId::RlcDown);
                    if abandoned {
                        obs.enter(StageId::Housekeeping);
                        hk.reestablish_ue(ue, &mut ues[ue], phy);
                        obs.exit(StageId::Housekeeping);
                    }
                }
            }
        }

        // 2. RTO scan over the live flows, dropping the entries that
        // completed (or were aborted) since the last scan. Nothing
        // inside `run` sets `done`, so the watchdog below sees only
        // open flows.
        debug_assert!(self.live_index_is_sound());
        let mut live = std::mem::take(&mut self.live);
        live.retain(|&(flow, slot)| {
            self.scan_visits += 1;
            let Some(ep) = self.flows.slot_mut(flow, slot) else {
                return false;
            };
            if ep.sender.rto_deadline().is_some_and(|d| d <= now) {
                ep.sender.on_rto(now);
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
            for &(flow, slot) in &live {
                let Some(ep) = self.flows.slot_mut(flow, slot) else {
                    continue;
                };
                let cum = ep.receiver.cum();
                if cum > ep.last_cum {
                    ep.last_cum = cum;
                    ep.last_progress = now;
                } else if now.saturating_since(ep.last_progress) >= stall
                    && hk.faults().link_up(ep.ue as usize)
                {
                    ep.last_progress = now;
                    ep.sender.on_rto(now);
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
        let Some(ep) = self.flows.endpoints_mut(flow) else {
            return;
        };
        // Emit into the recycled scratch buffer: no per-call allocation.
        let mut segs = std::mem::take(&mut self.emit_scratch);
        segs.clear();
        ep.sender.emit_into(now, &mut segs);
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
    #[allow(clippy::too_many_arguments, reason = "stages are borrowed disjointly")]
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
        if self.flows.is_done(flow) {
            // Stale retransmission of a completed flow: terminal for the
            // byte ledger.
            self.dropped_bytes += len as u64;
            return;
        }
        let ue = self.flows.ue(flow);
        let msg = SduIngress {
            flow,
            ue,
            tuple: self.flows.tuple(flow),
            seq,
            len,
            oracle_remaining: self.flows.size(flow).saturating_sub(seq),
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
        // `None`: the flow is done (a duplicate outlived it).
        let ep = self.flows.endpoints_mut(flow)?;
        let cum = ep.receiver.on_segment(d.seq, d.len);
        let complete = ep.receiver.complete();
        self.events
            .schedule(now + ul_delay, Ev::AckAtServer { flow, cum });
        if !complete {
            return None;
        }
        self.flows.finish(flow);
        let spawn = self.flows.spawn(flow);
        Some(FlowDone {
            id: flow,
            ue: self.flows.ue(flow),
            bytes: self.flows.size(flow),
            spawn,
            fct: now.saturating_since(spawn),
        })
    }

    /// Schedule an AM STATUS PDU's uplink arrival at the xNodeB.
    pub fn schedule_status(&mut self, at: Time, ue: usize, status: StatusPdu) {
        self.events.schedule(at, Ev::StatusAtEnb { ue, status });
    }

    // ---- read-side accessors ------------------------------------------

    /// Started-but-incomplete flow count — the O(1) core of the idle
    /// test, and the number of live endpoint pairs.
    pub fn open_flows(&self) -> u64 {
        self.flows.open_flows()
    }

    /// Traffic of the endpoint slab: `hits` opened a flow on a recycled
    /// slot, `misses` built one, `high_water` is the most flows open at
    /// once (never serialized: counts from the restore in a resumed
    /// cell).
    pub fn endpoint_slab(&self) -> PoolStats {
        self.flows.slab_stats()
    }

    /// Flow entries visited by the RTO and watchdog scans so far.
    pub fn scan_visits(&self) -> u64 {
        self.scan_visits
    }

    /// The O(live) half of the index contract, checked at every scan:
    /// strictly ascending ids of open or done flows, of which exactly
    /// `open_flows` are open. With the slab sound (the other half,
    /// [`IngressStage::check_live_index`]) that pins the open entries to
    /// *the* set of open flows.
    fn live_index_is_sound(&self) -> bool {
        let ids = self.live.iter().map(|&(f, _)| f);
        let open = ids.clone().filter(|&f| self.flows.is_open(f));
        self.live.windows(2).all(|w| w[0].0 < w[1].0)
            && open.count() as u64 == self.flows.open_flows()
            && ids
                .clone()
                .all(|f| self.flows.is_open(f) || self.flows.is_done(f))
    }

    /// The full index contract against the flow table, O(flows): the
    /// index, less its not-yet-compacted `done` entries, is the
    /// ascending list of open flow ids, `open_flows` is its length, the
    /// `done` counter counts the done records, and every open record
    /// owns one endpoint slot. For tests; a run never pays for it.
    pub fn check_live_index(&self) -> Result<(), String> {
        self.flows.check()?;
        let want: Vec<(usize, u32)> = self.flows.open_slots().collect();
        let got = (self.live.iter().copied()).filter(|&(f, _)| self.flows.is_open(f));
        if !self.live_index_is_sound() || got.ne(want.iter().copied()) {
            return Err(format!(
                "live index {:?} vs open flows {want:?}, open_flows = {}",
                self.live,
                self.flows.open_flows()
            ));
        }
        Ok(())
    }

    /// Instant of the earliest queued event, if any.
    pub fn peek_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Whether flow `fi` has completed (or was aborted).
    pub fn flow_done(&self, fi: usize) -> bool {
        self.flows.is_done(fi)
    }

    /// Whether flow `fi` is a registered flow that is open now.
    pub fn flow_open(&self, fi: usize) -> bool {
        fi < self.flows.len() && self.flows.is_open(fi)
    }

    /// Whether flow `fi` is short (the [`SizeBucket::Short`] bucket,
    /// ≤ 10 kB — the QoS-oracle class).
    pub fn flow_is_short(&self, fi: usize) -> bool {
        SizeBucket::of(self.flows.size(fi)) == SizeBucket::Short
    }

    /// Bytes of flow `fi` not yet cumulatively ACKed (0 once done).
    pub fn flow_remaining(&self, fi: usize) -> u64 {
        self.flows.remaining(fi)
    }

    /// Destination UE of flow `fi`.
    pub fn flow_ue(&self, fi: usize) -> usize {
        self.flows.ue(fi)
    }

    /// Total size of flow `fi` in bytes.
    pub fn flow_size(&self, fi: usize) -> u64 {
        self.flows.size(fi)
    }

    /// Server-side spawn instant of flow `fi`.
    pub fn flow_spawn(&self, fi: usize) -> Time {
        self.flows.spawn(fi)
    }

    /// Five-tuple of flow `fi`.
    pub fn flow_tuple(&self, fi: usize) -> FiveTuple {
        self.flows.tuple(fi)
    }

    /// Total flows registered.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of done flows — completed, or aborted by a handover (the
    /// continuation counts again where it finishes). A counter: O(1).
    pub fn n_completed(&self) -> usize {
        self.flows.done_flows() as usize
    }

    /// The most recent RTT observed by any flow of `ue`: the sample of
    /// its highest-numbered flow that has one (searched from the back).
    pub fn last_rtt_of_ue(&self, ue: usize) -> Option<Dur> {
        let mut of_ue = self.flows.last_rtts().filter(|&(u, _)| u == ue);
        of_ue.next_back().map(|(_, rtt)| rtt)
    }

    /// Mean of the last RTT samples across flows, summed in flow-id
    /// order (the mean is in every report digest).
    pub fn mean_last_rtt_ms(&self) -> f64 {
        let (sum, n) = self
            .flows
            .last_rtts()
            .fold((0.0, 0u64), |(sum, n), (_, d)| {
                (sum + d.as_millis_f64(), n + 1)
            });
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

    /// Events this stage's queue has sent to its far tier — only flow
    /// arrivals should go there (not serialized).
    pub fn event_far_pushes(&self) -> u64 {
        self.events.far_pushes()
    }

    /// `(len, capacity)` of this stage's far event tier.
    pub fn event_far_footprint(&self) -> (usize, usize) {
        self.events.far_footprint()
    }

    /// `(high water, capacity)` of this stage's near-tier node store.
    pub fn event_near_footprint(&self) -> (usize, usize) {
        self.events.near_footprint()
    }

    /// Refuse restored packets that do not lie within their flow, count
    /// the core network's bytes in flight off the queued packets, then
    /// derive the live-flow index from the restored flow table.
    fn check_events_and_rebuild_live(&mut self) -> Result<(), SnapError> {
        self.cn_in_flight_bytes = 0;
        for e in &self.events.sorted_entries() {
            if let Ev::PktAtEnb { flow, seq, len } = *e.2 {
                if seq + u64::from(len) > self.flows.size(flow) {
                    return Err(SnapError::Malformed("core-network packet past its flow"));
                }
                self.cn_in_flight_bytes += u64::from(len);
            }
        }
        self.live.clear();
        self.live.extend(self.flows.open_slots());
        Ok(())
    }
}

snap_enum! { Ev, "unknown ingress event tag" {
    0 => Arrival { flow in index(flows) },
    1 => PktAtEnb { flow in index(flows), seq in counter, len },
    2 => AckAtServer { flow in index(flows), cum },
    3 => StatusAtEnb { ue in index(ues), status },
} }

// The flow table (records, and endpoints for the open flows only) plus
// the discrete event queue (its sequence counter travels too, so
// restored tie-breaking is exact). The open-flow count is the table's
// own, the bytes in flight the queued packets': neither travels. Every
// flow id read so far is checked here.
snap_fields! {
    overlay IngressStage { flows, events, injected_bytes in counter, dropped_bytes in counter }
    rebuilt { cn_in_flight_bytes, emit_scratch, live, scan_visits }
    spaces { flows: flows.len() }
    then IngressStage::check_events_and_rebuild_live
}
