//! Per-flow state and MLFQ priority marking.
//!
//! §4.2: "When a packet arrives at each user's buffer, our scheduler
//! identifies the flow based on the five tuple … and updates the
//! sent-bytes so far (or create a new entry if it is a new one). Next,
//! using the sent-byte information, it enforces the MLFQ scheduling for
//! each flow":
//!
//! * a new incoming flow starts from P1 (highest priority);
//! * a flow is demoted from Pᵢ to Pᵢ₊₁ when its sent-bytes cross αᵢ;
//! * beyond the last threshold all flows share the base priority PK, so
//!   long flows cannot be starved below it.
//!
//! Appendix B: the state lives at the PDCP layer as a five-tuple-keyed
//! hash table; §7 sizes it at 41 bytes per flow (37 key + 4 counter).
//! §6.3 adds "Priority Boost": resetting all flow states every period S.

use std::collections::BTreeMap;
use std::sync::Arc;

use outran_simcore::{Dur, Time};

use crate::packet::FiveTuple;

/// MLFQ priority level. **Lower is higher priority**: `Priority(0)` is the
/// paper's P1, `Priority(K-1)` the base priority PK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// The topmost (P1) priority.
    pub const TOP: Priority = Priority(0);
}

/// MLFQ configuration: `K = thresholds.len() + 1` queues.
///
/// The thresholds are the demotion boundaries `α_1 < α_2 < … < α_{K−1}` in
/// cumulative sent bytes. OutRAN cells take `outran-core`'s
/// `PAPER_THRESHOLDS`, the PIAS-style optimizer's answer for the LTE
/// cellular distribution with K = 4 (the paper observed performance is
/// steady for K > 4, §4.2 "Parameter choice"); the round default here is
/// what cells without an MLFQ carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlfqConfig {
    /// Demotion thresholds in bytes, strictly increasing.
    pub thresholds: Vec<u64>,
}

impl Default for MlfqConfig {
    fn default() -> Self {
        MlfqConfig {
            // ~10 KB / 100 KB / 1 MB: knees of the heavy-tailed LTE
            // cellular distribution (90 % of flows < 35.9 KB finish in the
            // top two queues).
            thresholds: vec![10_000, 100_000, 1_000_000],
        }
    }
}

impl MlfqConfig {
    /// Create from explicit thresholds (validated strictly increasing).
    pub fn new(thresholds: Vec<u64>) -> MlfqConfig {
        assert!(!thresholds.is_empty(), "need at least one threshold");
        for w in thresholds.windows(2) {
            assert!(w[0] < w[1], "thresholds must strictly increase: {w:?}");
        }
        MlfqConfig { thresholds }
    }

    /// Number of priority queues K.
    pub fn num_queues(&self) -> usize {
        self.thresholds.len() + 1
    }

    /// Priority for a flow that has sent `sent_bytes` so far.
    pub fn priority_for(&self, sent_bytes: u64) -> Priority {
        let demotions = self
            .thresholds
            .iter()
            .take_while(|&&a| sent_bytes >= a)
            .count();
        Priority(demotions as u8)
    }
}

/// State kept for one flow.
#[derive(Debug, Clone)]
pub struct FlowState {
    /// Cumulative bytes observed for this flow (since last reset).
    pub sent_bytes: u64,
    /// When the flow entry was created.
    pub first_seen: Time,
    /// Last packet observed.
    pub last_seen: Time,
}

/// The PDCP flow table of one bearer/UE: five-tuple → sent-bytes.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Shared (`Arc`) so a cell's per-UE tables reference one config
    /// instead of cloning the threshold vector per UE.
    mlfq: Arc<MlfqConfig>,
    /// Tuple-ordered so every traversal (export, GC, eviction scan) is
    /// deterministic; the paper's hash table would iterate in hasher
    /// order and poison replay fingerprints (hashed maps are refused by
    /// `clippy.toml`).
    flows: BTreeMap<FiveTuple, FlowState>,
    /// Admission-control cap on tracked entries (`None` = unbounded).
    max_entries: Option<usize>,
    /// Entries evicted by admission control (not idle GC).
    evicted: u64,
}

impl FlowTable {
    /// Per-flow state footprint in bytes (§7: 41 B = 37 B key + 4 B counter).
    pub const STATE_BYTES_PER_FLOW: usize = FiveTuple::STATE_BYTES + 4;

    /// Idle entries older than this are evicted on [`FlowTable::gc`].
    const IDLE_TIMEOUT: Dur = Dur::from_secs(30);

    /// Create a table with the given MLFQ config.
    pub fn new(mlfq: MlfqConfig) -> FlowTable {
        FlowTable::shared(Arc::new(mlfq))
    }

    /// Create a table over an already-shared MLFQ config (the per-UE
    /// tables of one cell all point at the same thresholds).
    pub fn shared(mlfq: Arc<MlfqConfig>) -> FlowTable {
        FlowTable {
            mlfq,
            flows: BTreeMap::new(),
            max_entries: None,
            evicted: 0,
        }
    }

    /// The MLFQ configuration in force.
    pub fn mlfq(&self) -> &MlfqConfig {
        &self.mlfq
    }

    /// Observe an ingress packet of `len` bytes for `tuple` at `now`.
    /// Updates sent-bytes and returns the MLFQ priority to mark the packet
    /// with (the priority *before* this packet's bytes are counted, so the
    /// first packet of a flow is always P1 — matching PIAS/strict-MLFQ
    /// semantics where the packet inherits the queue its flow sits in).
    pub fn observe(&mut self, tuple: FiveTuple, len: u32, now: Time) -> Priority {
        if let Some(cap) = self.max_entries {
            if !self.flows.contains_key(&tuple) && self.flows.len() >= cap {
                self.evict_one();
            }
        }
        let entry = self.flows.entry(tuple).or_insert(FlowState {
            sent_bytes: 0,
            first_seen: now,
            last_seen: now,
        });
        let prio = self.mlfq.priority_for(entry.sent_bytes);
        entry.sent_bytes += len as u64;
        entry.last_seen = now;
        prio
    }

    /// Current priority of a flow without observing a packet.
    pub fn priority_of(&self, tuple: &FiveTuple) -> Priority {
        self.flows
            .get(tuple)
            .map_or(Priority::TOP, |st| self.mlfq.priority_for(st.sent_bytes))
    }

    /// Cumulative sent-bytes of a flow (0 if unknown).
    pub fn sent_bytes(&self, tuple: &FiveTuple) -> u64 {
        self.flows.get(tuple).map_or(0, |st| st.sent_bytes)
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Estimated state memory (the §7 accounting).
    pub fn state_bytes(&self) -> usize {
        self.flows.len() * Self::STATE_BYTES_PER_FLOW
    }

    /// "Priority Boost" (§6.3): reset every flow's sent-bytes so all flows
    /// return to the topmost queue.
    pub fn reset_priorities(&mut self) {
        for st in self.flows.values_mut() {
            st.sent_bytes = 0;
        }
    }

    /// Evict entries idle for longer than the timeout. Returns how many
    /// entries were removed.
    pub fn gc(&mut self, now: Time) -> usize {
        let before = self.flows.len();
        self.flows
            .retain(|_, st| now.saturating_since(st.last_seen) < Self::IDLE_TIMEOUT);
        before - self.flows.len()
    }

    /// Cap the number of tracked entries. When a new flow arrives at a
    /// full table, the least-recently-seen entry is evicted (admission
    /// control under state overload, §7 memory budget). `None` removes
    /// the cap.
    pub fn set_max_entries(&mut self, cap: Option<usize>) {
        if let Some(cap) = cap {
            assert!(cap > 0, "flow-table cap must be positive");
            while self.flows.len() > cap {
                self.evict_one();
            }
        }
        self.max_entries = cap;
    }

    /// Entries evicted by admission control so far.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Evict the least-recently-seen entry (tuple order breaks ties so
    /// eviction is deterministic regardless of traversal order).
    fn evict_one(&mut self) {
        let victim = self
            .flows
            .iter()
            .min_by_key(|(t, st)| (st.last_seen, **t))
            .map(|(t, _)| *t);
        if let Some(t) = victim {
            self.flows.remove(&t);
            self.evicted += 1;
        }
    }

    /// Export all per-flow state — the §7 handover path ("the flow state
    /// of a user can also be copied along with the data").
    pub fn export(&self) -> Vec<(FiveTuple, u64)> {
        self.flows
            .iter()
            .map(|(t, st)| (*t, st.sent_bytes))
            .collect()
    }

    /// Drop every tracked entry — the handover detach path: the state
    /// has been [`FlowTable::export`]ed to the target cell and the source
    /// slot is recycled for a future occupant.
    pub fn clear(&mut self) {
        self.flows.clear();
    }

    /// Import state exported from a source cell at handover.
    pub fn import(&mut self, entries: &[(FiveTuple, u64)], now: Time) {
        for &(tuple, sent) in entries {
            self.flows.insert(
                tuple,
                FlowState {
                    sent_bytes: sent,
                    first_seen: now,
                    last_seen: now,
                },
            );
        }
    }
}

use outran_simcore::snap_fields;

snap_fields! { Priority { 0 } }
snap_fields! { FiveTuple { src_ip, dst_ip, src_port, dst_port, proto } }
snap_fields! { FlowState { sent_bytes in counter, first_seen, last_seen } }

// The MLFQ config, idle timeout and entry cap come from the experiment
// configuration and are re-established by the restoring side.
snap_fields! { overlay FlowTable { evicted, flows } rebuilt { mlfq, max_entries } }

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(n: u16) -> FiveTuple {
        FiveTuple::simulated(n as u64, 0)
    }

    #[test]
    fn new_flow_starts_at_p1() {
        let mut ft = FlowTable::new(MlfqConfig::default());
        assert_eq!(ft.observe(tuple(1), 1500, Time::ZERO), Priority::TOP);
    }

    #[test]
    fn demotion_on_threshold_crossing() {
        let mlfq = MlfqConfig::new(vec![10_000, 100_000]);
        let mut ft = FlowTable::new(mlfq);
        let t = tuple(1);
        let mut prio = Priority::TOP;
        let mut sent = 0u64;
        // Send 200 KB in MTU packets; the marked priority must demote at
        // (not before) each threshold and never promote.
        while sent < 200_000 {
            let p = ft.observe(t, 1500, Time::ZERO);
            assert!(p >= prio, "priority must be monotone non-increasing");
            let expected = if sent >= 100_000 {
                Priority(2)
            } else if sent >= 10_000 {
                Priority(1)
            } else {
                Priority(0)
            };
            assert_eq!(p, expected, "at sent={sent}");
            prio = p;
            sent += 1500;
        }
    }

    #[test]
    fn base_priority_is_floor() {
        let mlfq = MlfqConfig::default();
        assert_eq!(mlfq.priority_for(u64::MAX), Priority(3));
        assert_eq!(mlfq.num_queues(), 4);
    }

    #[test]
    fn distinct_flows_tracked_separately() {
        let mut ft = FlowTable::new(MlfqConfig::default());
        ft.observe(tuple(1), 50_000, Time::ZERO);
        assert_eq!(ft.priority_of(&tuple(1)), Priority(1));
        assert_eq!(ft.priority_of(&tuple(2)), Priority::TOP);
        assert_eq!(ft.len(), 1);
        ft.observe(tuple(2), 100, Time::ZERO);
        assert_eq!(ft.len(), 2);
    }

    #[test]
    fn reset_restores_top_priority() {
        let mut ft = FlowTable::new(MlfqConfig::default());
        ft.observe(tuple(1), 5_000_000, Time::ZERO);
        assert_eq!(ft.priority_of(&tuple(1)), Priority(3));
        ft.reset_priorities();
        assert_eq!(ft.priority_of(&tuple(1)), Priority::TOP);
        // State entry still exists (it's a reset, not an eviction).
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn gc_evicts_idle_flows() {
        let mut ft = FlowTable::new(MlfqConfig::default());
        ft.observe(tuple(1), 100, Time::ZERO);
        ft.observe(tuple(2), 100, Time::from_secs(50));
        let evicted = ft.gc(Time::from_secs(50));
        assert_eq!(evicted, 1);
        assert_eq!(ft.len(), 1);
        assert_eq!(ft.sent_bytes(&tuple(2)), 100);
    }

    #[test]
    fn state_accounting_matches_paper() {
        assert_eq!(FlowTable::STATE_BYTES_PER_FLOW, 41);
        let mut ft = FlowTable::new(MlfqConfig::default());
        for i in 0..100 {
            ft.observe(tuple(i), 100, Time::ZERO);
        }
        assert_eq!(ft.state_bytes(), 4100);
    }

    #[test]
    fn handover_export_import_roundtrip() {
        let mut src = FlowTable::new(MlfqConfig::default());
        src.observe(tuple(1), 50_000, Time::ZERO);
        src.observe(tuple(2), 100, Time::ZERO);
        let mut dst = FlowTable::new(MlfqConfig::default());
        dst.import(&src.export(), Time::from_secs(1));
        assert_eq!(dst.sent_bytes(&tuple(1)), 50_000);
        assert_eq!(dst.priority_of(&tuple(1)), Priority(1));
        assert_eq!(dst.priority_of(&tuple(2)), Priority::TOP);
        // Importing the same state again duplicates nothing.
        dst.import(&src.export(), Time::from_secs(2));
        assert_eq!(dst.export(), src.export());
    }

    #[test]
    fn admission_control_evicts_least_recent() {
        let mut ft = FlowTable::new(MlfqConfig::default());
        ft.set_max_entries(Some(2));
        ft.observe(tuple(1), 100, Time::ZERO);
        ft.observe(tuple(2), 100, Time::from_secs(1));
        // Table full: tuple(1) is least-recently-seen and must go.
        ft.observe(tuple(3), 100, Time::from_secs(2));
        assert_eq!(ft.len(), 2);
        assert_eq!(ft.evictions(), 1);
        assert_eq!(ft.sent_bytes(&tuple(1)), 0);
        assert_eq!(ft.sent_bytes(&tuple(2)), 100);
        // Re-observing an existing flow never evicts.
        ft.observe(tuple(2), 100, Time::from_secs(3));
        assert_eq!(ft.evictions(), 1);
        // Shrinking the cap evicts immediately.
        ft.set_max_entries(Some(1));
        assert_eq!(ft.len(), 1);
        assert_eq!(ft.evictions(), 2);
    }

    #[test]
    fn shared_config_is_not_duplicated() {
        let cfg = Arc::new(MlfqConfig::default());
        let a = FlowTable::shared(cfg.clone());
        let b = FlowTable::shared(cfg.clone());
        // Two tables + our handle all point at one allocation.
        assert_eq!(Arc::strong_count(&cfg), 3);
        assert_eq!(a.mlfq().num_queues(), b.mlfq().num_queues());
    }

    #[test]
    #[should_panic]
    fn rejects_unsorted_thresholds() {
        let _ = MlfqConfig::new(vec![100, 100]);
    }
}
