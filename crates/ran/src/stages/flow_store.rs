//! The flow table behind the ingress stage: a thin **record** for every
//! flow ever registered, TCP **endpoints** only for the open ones.
//!
//! A flow is `Pending` from registration to its arrival event, `Open`
//! while `started ∧ ¬done`, and `Done` for good once its receiver
//! completes or a handover aborts it. Only an open flow owns a
//! [`TcpSender`], a [`TcpReceiver`] and watchdog state; they live in a
//! slab whose slots are recycled, so a cell's endpoint memory follows
//! the flows it has open at once, not the flows the run has scheduled,
//! and a warmed-up cell opens a flow without allocating.
//!
//! A `Done` record still answers three things: the identity questions
//! (`ue`, `size`, `spawn`, `tuple`), "are you done" (stale packets and
//! SDUs are dropped on that answer), and the flow's last RTT sample —
//! including the one its sender had in flight when the endpoints were
//! released, which the flow's trailing ACK still delivers (the final ACK
//! of *every* flow reaches the server after the receiver completed). The
//! record packs the last sample into its state; the sample in flight
//! waits in a side map until that ACK closes it.

use std::collections::BTreeMap;

use outran_pdcp::FiveTuple;
use outran_simcore::snap::{LoadSnap, Snap, SnapError, SnapReader, SnapWriter};
use outran_simcore::{snap_enum, snap_fields, Dur, PoolStats, Time};
use outran_transport::{TcpConfig, TcpReceiver, TcpSender};

/// What exists only while a flow is open.
pub(super) struct FlowEndpoints {
    pub sender: TcpSender,
    pub receiver: TcpReceiver,
    /// Watchdog state: highest cumulative ACK seen, and when it moved.
    pub last_cum: u64,
    pub last_progress: Time,
    /// The flow these belong to ([`PARKED`] while the slot is free) and
    /// its UE: with them the per-TTI scans go from a `(flow, slot)` pair
    /// straight to the slot ([`FlowStore::slot_mut`]) and never read the
    /// record.
    flow: usize,
    pub ue: u32,
}

/// The owner of a slot on the free list.
const PARKED: usize = usize::MAX;

snap_fields! {
    overlay FlowEndpoints { sender, receiver, last_cum, last_progress }
    rebuilt { flow, ue }
}

impl FlowEndpoints {
    /// The endpoints of flow `fi`, which has moved no byte yet, around
    /// its freshly built `sender`.
    fn fresh(sender: TcpSender, fi: usize, rec: &FlowRec) -> FlowEndpoints {
        FlowEndpoints {
            sender,
            receiver: TcpReceiver::new(rec.size),
            last_cum: 0,
            last_progress: rec.spawn,
            flow: fi,
            ue: rec.ue,
        }
    }
}

/// What a released sender still owes the flow's RTT statistics: the
/// `Done` state as it travels. In memory it is split between the record
/// ([`PackedRtt`]) and [`FlowStore`]'s probe map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RttTail {
    /// The sender's last RTT sample at release.
    last_rtt: Option<Dur>,
    /// Its sample in flight ([`TcpSender::rtt_probe`]): the first
    /// trailing ACK past `seq` turns it into `last_rtt`.
    probe: Option<(u64, Time)>,
}

snap_fields! { RttTail { last_rtt in counter, probe } }

/// A `Done` record's last RTT sample in one word: its nanoseconds, or
/// [`PackedRtt::NONE`]. No sample is `u64::MAX` ns: a run's clock is a
/// `counter`, and so is every restored sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedRtt(u64);

impl PackedRtt {
    const NONE: PackedRtt = PackedRtt(u64::MAX);

    fn new(rtt: Option<Dur>) -> PackedRtt {
        rtt.map_or(PackedRtt::NONE, |d| PackedRtt(d.as_nanos()))
    }

    fn get(self) -> Option<Dur> {
        (self != PackedRtt::NONE).then_some(Dur(self.0))
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum FlowState {
    /// Registered; the arrival event has not fired.
    #[default]
    Pending,
    /// Started and incomplete: endpoints in this slab slot.
    Open(u32),
    /// Completed or aborted — terminal.
    Done(PackedRtt),
}

/// A record's state as it travels. A slot number is an allocation
/// artifact (two runs that agree on every simulated bit may disagree on
/// it after a resume), so `Open` is its bare tag; `Done` carries its
/// whole RTT tail, the probe included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireState {
    Pending,
    Open,
    Done(RttTail),
}

snap_enum! { WireState, "unknown flow state tag" {
    0 => Pending,
    1 => Open,
    2 => Done(tail),
} }

/// The record kept for every registered flow.
struct FlowRec {
    size: u64,
    spawn: Time,
    tuple: FiveTuple,
    ue: u32,
    state: FlowState,
}

const _: () = assert!(std::mem::size_of::<FlowRec>() <= 56);

// The state follows the record on the wire, written by the store as a
// [`WireState`]: its RTT tail is split between record and probe map.
snap_fields! { FlowRec { ue in index(ues), size, spawn, tuple } rebuilt { state } }

/// Records plus the endpoint slab (see module docs).
pub(super) struct FlowStore {
    recs: Vec<FlowRec>,
    /// `slots[s]` belongs to the one record that is `Open(s)`, or is
    /// parked in `free`.
    slots: Vec<FlowEndpoints>,
    free: Vec<u32>,
    /// The RTT sample each released sender had in flight, by flow id,
    /// from release until a trailing ACK closes it
    /// ([`FlowStore::late_ack`]). Every key is a `Done` record.
    probes: BTreeMap<usize, (u64, Time)>,
    /// Slab traffic: a hit opens a flow on a recycled slot, a miss
    /// builds one; `high_water` is the most endpoints live at once.
    stats: PoolStats,
    /// `Done` records, handover-aborted ones included.
    done: u64,
    /// Endpoint configuration every sender is built against and the RTT
    /// sample its connection handshake took, both fixed by the cell
    /// configuration.
    tcp: TcpConfig,
    handshake_rtt: Dur,
}

impl FlowStore {
    pub fn new(tcp: TcpConfig, handshake_rtt: Dur) -> FlowStore {
        FlowStore {
            recs: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            probes: BTreeMap::new(),
            stats: PoolStats::default(),
            done: 0,
            tcp,
            handshake_rtt,
        }
    }

    /// Register a flow; its id is its registration rank.
    pub fn register(&mut self, ue: usize, size: u64, spawn: Time, tuple: FiveTuple) -> usize {
        self.recs.push(FlowRec {
            size,
            spawn,
            tuple,
            ue: ue as u32,
            state: FlowState::Pending,
        });
        self.recs.len() - 1
    }

    /// The arrival event of flow `fi`: a pending flow opens, on a
    /// recycled slot if there is one, and its slot is returned. `None`
    /// (and nothing happens) for a flow aborted before it arrived —
    /// `Done` is terminal.
    pub fn open(&mut self, fi: usize) -> Option<u32> {
        let rec = &mut self.recs[fi];
        if rec.state != FlowState::Pending {
            return None;
        }
        let sender = TcpSender::with_initial_rtt(self.tcp, rec.size, self.handshake_rtt);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.stats.hits += 1;
                let ep = &mut self.slots[slot as usize];
                ep.sender = sender;
                ep.receiver.reset(rec.size);
                ep.last_cum = 0;
                ep.last_progress = rec.spawn;
                ep.flow = fi;
                ep.ue = rec.ue;
                slot
            }
            None => {
                self.stats.misses += 1;
                self.slots.push(FlowEndpoints::fresh(sender, fi, rec));
                // Room to park every slot, so a release never allocates.
                self.free.reserve(self.slots.len());
                (self.slots.len() - 1) as u32
            }
        };
        rec.state = FlowState::Open(slot);
        self.stats.high_water = self.stats.high_water.max(self.open_flows());
        Some(slot)
    }

    /// Make flow `fi` `Done` (receiver completed, or handover abort) and
    /// return the bytes it had not cumulatively ACKed; an open flow's
    /// slot goes back to the slab. `None` if it was `Done` already.
    pub fn finish(&mut self, fi: usize) -> Option<u64> {
        let rec = &mut self.recs[fi];
        let (remaining, last_rtt) = match rec.state {
            FlowState::Done(_) => return None,
            FlowState::Pending => (rec.size, PackedRtt::NONE),
            FlowState::Open(slot) => {
                let ep = &mut self.slots[slot as usize];
                ep.flow = PARKED;
                self.free.push(slot);
                self.stats.returns += 1;
                if let Some(probe) = ep.sender.rtt_probe() {
                    self.probes.insert(fi, probe);
                }
                let remaining = rec.size.saturating_sub(ep.receiver.cum());
                (remaining, PackedRtt::new(ep.sender.last_rtt))
            }
        };
        rec.state = FlowState::Done(last_rtt);
        self.done += 1;
        Some(remaining)
    }

    /// The endpoints of flow `fi` — `Some` exactly while it is open.
    #[inline]
    pub fn endpoints_mut(&mut self, fi: usize) -> Option<&mut FlowEndpoints> {
        match self.recs[fi].state {
            FlowState::Open(slot) => Some(&mut self.slots[slot as usize]),
            _ => None,
        }
    }

    /// The endpoints in `slot` if flow `fi` still owns it — `fi` opened
    /// on `slot`, and is open yet. One load where
    /// [`FlowStore::endpoints_mut`] takes two.
    #[inline]
    pub fn slot_mut(&mut self, fi: usize, slot: u32) -> Option<&mut FlowEndpoints> {
        let ep = &mut self.slots[slot as usize];
        (ep.flow == fi).then_some(ep)
    }

    /// A cumulative ACK reached the server of a flow with no endpoints:
    /// all it can still do is close the RTT sample the released sender
    /// had in flight.
    pub fn late_ack(&mut self, fi: usize, now: Time, cum: u64) {
        if let Some(&(seq, sent_at)) = self.probes.get(&fi) {
            if cum > seq {
                self.probes.remove(&fi);
                let rtt = PackedRtt::new(Some(now.saturating_since(sent_at)));
                self.recs[fi].state = FlowState::Done(rtt);
            }
        }
    }

    #[inline]
    pub fn is_done(&self, fi: usize) -> bool {
        matches!(self.recs[fi].state, FlowState::Done(_))
    }

    #[inline]
    pub fn is_open(&self, fi: usize) -> bool {
        matches!(self.recs[fi].state, FlowState::Open(_))
    }

    #[inline]
    pub fn ue(&self, fi: usize) -> usize {
        self.recs[fi].ue as usize
    }

    #[inline]
    pub fn size(&self, fi: usize) -> u64 {
        self.recs[fi].size
    }

    #[inline]
    pub fn spawn(&self, fi: usize) -> Time {
        self.recs[fi].spawn
    }

    #[inline]
    pub fn tuple(&self, fi: usize) -> FiveTuple {
        self.recs[fi].tuple
    }

    /// Bytes of flow `fi` not yet cumulatively ACKed (0 once done).
    #[inline]
    pub fn remaining(&self, fi: usize) -> u64 {
        let rec = &self.recs[fi];
        match rec.state {
            FlowState::Pending => rec.size,
            FlowState::Open(slot) => rec
                .size
                .saturating_sub(self.slots[slot as usize].receiver.cum()),
            FlowState::Done(_) => 0,
        }
    }

    /// Last RTT sample of flow `fi`, wherever it lives now.
    fn last_rtt(&self, rec: &FlowRec) -> Option<Dur> {
        match rec.state {
            FlowState::Pending => None,
            FlowState::Open(slot) => self.slots[slot as usize].sender.last_rtt,
            FlowState::Done(rtt) => rtt.get(),
        }
    }

    /// Last RTT samples of the flows that have one, in flow-id order,
    /// with each flow's UE.
    pub fn last_rtts(&self) -> impl DoubleEndedIterator<Item = (usize, Dur)> + '_ {
        self.recs
            .iter()
            .filter_map(|rec| Some((rec.ue as usize, self.last_rtt(rec)?)))
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Started-but-incomplete flows: the live endpoints.
    #[inline]
    pub fn open_flows(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// `Done` flows, aborted ones included.
    pub fn done_flows(&self) -> u64 {
        self.done
    }

    pub fn slab_stats(&self) -> PoolStats {
        self.stats
    }

    /// `(id, slot)` of the open flows, ascending in id.
    pub fn open_slots(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let open = |(fi, rec): (usize, &FlowRec)| match rec.state {
            FlowState::Open(slot) => Some((fi, slot)),
            _ => None,
        };
        self.recs.iter().enumerate().filter_map(open)
    }

    /// The counters, the probe map and the slab against the records,
    /// O(flows): `done` counts the `Done` records, every probe belongs to
    /// one, and the `Open` records own distinct slots — each tagged with
    /// its owner — that together with the free list (tagged parked) are
    /// the whole slab.
    pub fn check(&self) -> Result<(), String> {
        let done = self
            .recs
            .iter()
            .filter(|r| matches!(r.state, FlowState::Done(_)));
        if done.count() as u64 != self.done {
            return Err(format!(
                "done counter {} disagrees with the records",
                self.done
            ));
        }
        if let Some(fi) = self.probes.keys().find(|&&fi| !self.is_done(fi)) {
            return Err(format!("RTT probe kept for flow {fi}, which is not done"));
        }
        let mut owned = vec![false; self.slots.len()];
        let parked = self.free.iter().map(|&slot| (PARKED, slot));
        for (owner, slot) in self.open_slots().chain(parked) {
            match owned.get_mut(slot as usize) {
                Some(taken @ false) if self.slots[slot as usize].flow == owner => *taken = true,
                _ => return Err(format!("endpoint slot {slot} owned twice or mistagged")),
            }
        }
        if owned.contains(&false) {
            return Err("an endpoint slot is neither open nor free".into());
        }
        Ok(())
    }

    /// Flow `fi`'s state as it travels.
    fn wire_state(&self, fi: usize) -> WireState {
        match self.recs[fi].state {
            FlowState::Pending => WireState::Pending,
            FlowState::Open(_) => WireState::Open,
            FlowState::Done(rtt) => WireState::Done(RttTail {
                last_rtt: rtt.get(),
                probe: self.probes.get(&fi).copied(),
            }),
        }
    }
}

/// Irregular: the records, each followed by its [`WireState`] and, for
/// an `Open` one, by the flow's endpoints. Slot numbers never travel:
/// `load_snap` deals slots `0..` in the order it reads endpoints, which
/// is id order.
impl Snap for FlowStore {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.recs.iter().enumerate(), |w, (fi, rec)| {
            rec.snap(w);
            self.wire_state(fi).snap(w);
            if let FlowState::Open(slot) = rec.state {
                self.slots[slot as usize].snap(w);
            }
        });
    }
}

impl LoadSnap for FlowStore {
    fn load_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.probes.clear();
        self.slots.clear();
        self.free.clear();
        self.done = 0;
        let (tcp, probes, slots, done) =
            (self.tcp, &mut self.probes, &mut self.slots, &mut self.done);
        let mut fi = 0;
        self.recs = r.seq(|r| {
            let mut rec: FlowRec = r.get()?;
            rec.state = match r.get()? {
                WireState::Pending => FlowState::Pending,
                WireState::Open => {
                    let mut ep = FlowEndpoints::fresh(TcpSender::new(tcp, rec.size), fi, &rec);
                    ep.load_snap(r)?;
                    slots.push(ep);
                    FlowState::Open(slots.len() as u32 - 1)
                }
                WireState::Done(tail) => {
                    if let Some(probe) = tail.probe {
                        probes.insert(fi, probe);
                    }
                    *done += 1;
                    FlowState::Done(PackedRtt::new(tail.last_rtt))
                }
            };
            fi += 1;
            Ok(rec)
        })?;
        self.free.reserve(self.slots.len());
        self.stats = PoolStats {
            high_water: self.slots.len() as u64,
            ..PoolStats::default()
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outran_simcore::snap::SnapKind;

    const N_UES: usize = 2;

    fn store() -> FlowStore {
        FlowStore::new(TcpConfig::default(), Dur::from_millis(30))
    }

    /// Five flows: 0 done with an RTT sample in flight, 1 open, 2 aborted
    /// before arrival, 3 open mid-transfer, 4 pending.
    fn mixed() -> FlowStore {
        let mut s = store();
        for (ue, size) in [(0, 1_400), (1, 60_000), (0, 9_000), (1, 500_000), (0, 700)] {
            let at = Time::from_millis(s.len() as u64);
            s.register(
                ue,
                size,
                at,
                FiveTuple::simulated(s.len() as u64, ue as u16),
            );
        }
        let t = Time::from_millis(10);
        for fi in [0, 1, 3] {
            assert!(s.open(fi).is_some());
            let ep = s.endpoints_mut(fi).unwrap();
            ep.sender.emit(t);
            ep.receiver.on_segment(0, 1_400);
        }
        s.endpoints_mut(3)
            .unwrap()
            .receiver
            .on_segment(4_200, 1_400);
        assert_eq!(s.finish(0), Some(0));
        assert_eq!(s.finish(2), Some(9_000));
        s.check().unwrap();
        s
    }

    fn snap_of(s: &FlowStore) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        w.into_bytes()
    }

    fn wire_states(s: &FlowStore) -> Vec<WireState> {
        (0..s.len()).map(|fi| s.wire_state(fi)).collect()
    }

    /// The wire form, spelled out: `states` replaces the records' own,
    /// and an `Open` one is followed by its record's endpoints.
    fn wire(s: &FlowStore, states: &[WireState]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(s.recs.len());
        for (rec, state) in s.recs.iter().zip(states) {
            (rec.ue, rec.size, rec.spawn).snap(&mut w);
            rec.tuple.snap(&mut w);
            state.snap(&mut w);
            if let FlowState::Open(slot) = rec.state {
                s.slots[slot as usize].snap(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Restore a store as its cell does: the cell checks the records'
    /// UE ids against its UEs.
    fn load(bytes: &[u8]) -> Result<FlowStore, SnapError> {
        let mut s = store();
        let mut r = SnapReader::new(bytes);
        s.load_snap(&mut r)?;
        r.check_space("ues", N_UES, "an id past the ues table")?;
        assert!(r.is_exhausted());
        Ok(s)
    }

    #[test]
    fn endpoints_follow_open_flows_and_slots_are_recycled() {
        let mut s = mixed();
        assert_eq!((s.open_flows(), s.done_flows()), (2, 2));
        // Flow 0 gave its slot back; flow 4 opens on it.
        let before = s.slab_stats();
        assert_eq!(s.open(4), Some(0));
        assert!(s.slot_mut(4, 0).is_some() && s.slot_mut(0, 0).is_none());
        let after = s.slab_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        assert_eq!((after.high_water, s.slots.len()), (3, 3));
        let ep = s.endpoints_mut(4).unwrap();
        assert_eq!((ep.receiver.cum(), ep.receiver.flow_size()), (0, 700));
        assert_eq!(ep.sender.flow_size(), 700);
        // `Done` is terminal: no reopening, no second finish.
        assert!(s.open(2).is_none() && s.finish(2).is_none() && s.endpoints_mut(2).is_none());
        s.check().unwrap();
    }

    #[test]
    fn a_trailing_ack_closes_the_released_senders_rtt_sample() {
        let mut s = mixed();
        assert_eq!(s.last_rtts().count(), 0);
        assert_eq!(s.probes.keys().collect::<Vec<_>>(), [&0]);
        // Stale duplicate first (cum not past the sampled segment).
        s.late_ack(0, Time::from_millis(35), 0);
        assert_eq!(s.last_rtts().count(), 0);
        s.late_ack(0, Time::from_millis(40), 1_400);
        s.late_ack(0, Time::from_millis(90), 1_400);
        assert_eq!(
            s.last_rtts().collect::<Vec<_>>(),
            [(0, Dur::from_millis(30))],
            "sampled once, at the first ACK past the probe"
        );
        assert!(s.probes.is_empty(), "a closed probe is dropped");
        // An aborted-before-arrival flow and a pending one have nothing to close.
        s.late_ack(2, Time::from_millis(40), 9_000);
        s.late_ack(4, Time::from_millis(40), 700);
        assert_eq!(s.last_rtts().count(), 1);
        s.check().unwrap();
    }

    #[test]
    fn snapshot_roundtrip_reslots_in_id_order() {
        let s = mixed();
        let bytes = snap_of(&s);
        assert_eq!(bytes, wire(&s, &wire_states(&s)), "layout drifted");
        let back = load(&bytes).unwrap();
        back.check().unwrap();
        assert_eq!(snap_of(&back), bytes);
        assert_eq!((back.open_flows(), back.done_flows()), (2, 2));
        assert_eq!(back.open_slots().collect::<Vec<_>>(), [(1, 0), (3, 1)]);
        assert_eq!(back.probes, s.probes);
        assert_eq!(back.slab_stats().high_water, 2);
        for cut in 0..bytes.len() {
            assert!(load(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    /// What a file can still get wrong now that each open record carries
    /// its own endpoints: a last RTT equal to the packing sentinel, and a
    /// flow toward a UE past the table.
    #[test]
    fn endpoints_that_contradict_the_records_are_malformed() {
        let s = mixed();
        let mut states = wire_states(&s);
        states[0] = WireState::Done(RttTail {
            last_rtt: Some(Dur(u64::MAX)),
            probe: None,
        });
        assert!(matches!(
            load(&wire(&s, &states)),
            Err(SnapError::Malformed(_))
        ));
        let mut w = SnapWriter::tracing();
        s.snap(&mut w);
        let (bytes, trace) = w.into_traced();
        let ue = trace.get("[0].ue", SnapKind::U32).unwrap();
        let toward_nobody = ue.with(&bytes, N_UES as u64);
        assert!(matches!(load(&toward_nobody), Err(SnapError::Malformed(_))));
    }

    /// Mutations the layout cannot tell from the truth load, and the
    /// table they build stands up to every call ingress makes.
    #[test]
    fn accepted_mutations_build_a_sound_table() {
        let s = mixed();
        let own = wire_states(&s);
        let probe = RttTail {
            last_rtt: None,
            probe: Some((u64::MAX, Time(u64::MAX))),
        };
        for (fi, state) in [
            (4, WireState::Done(RttTail::default())),
            (2, WireState::Pending),
            (0, WireState::Done(probe)),
        ] {
            let mut states = own.clone();
            states[fi] = state;
            let mut back = load(&wire(&s, &states)).unwrap();
            back.check().unwrap();
            let now = Time::from_millis(50);
            for fi in 0..back.len() {
                back.late_ack(fi, now, u64::MAX);
                back.open(fi);
                back.remaining(fi);
                back.check().unwrap();
            }
            for fi in 0..back.len() {
                back.finish(fi);
            }
            back.check().unwrap();
            assert_eq!((back.open_flows(), back.done_flows()), (0, 5));
        }
    }
}
