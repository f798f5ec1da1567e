//! Counters describing injected faults and recovery-path activity.

/// What the fault engine injected and what the recovery paths did.
///
/// Maintained by the cell as faults fire; surfaced alongside the usual
/// cell metrics so chaos runs can be summarized in one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped on the CN link by outage windows.
    pub cn_dropped_pkts: u64,
    /// Bytes dropped on the CN link by outage windows.
    pub cn_dropped_bytes: u64,
    /// Packets delayed by CN degradation windows.
    pub cn_delayed_pkts: u64,
    /// Segments lost to injected loss spikes (beyond configured residual
    /// loss).
    pub spiked_losses: u64,
    /// CQI reports suppressed by staleness windows.
    pub cqi_frozen_reports: u64,
    /// CQI reports replaced by corruption windows.
    pub cqi_corrupted_reports: u64,
    /// Radio-link failures entered.
    pub rlf_events: u64,
    /// RLC re-establishments performed (RLF and detach recovery).
    pub reestablishments: u64,
    /// UE detach events entered.
    pub detach_events: u64,
    /// UE re-attach events completed.
    pub reattach_events: u64,
    /// Buffer-shrink windows entered.
    pub buffer_shrink_events: u64,
    /// SDUs flushed by re-establishment or shrink shedding.
    pub flushed_sdus: u64,
    /// Bytes flushed by re-establishment or shrink shedding.
    pub flushed_bytes: u64,
    /// Flows evicted by flow-table admission control.
    pub flows_evicted: u64,
    /// Stalled flows kicked by the watchdog (forced retransmission).
    pub watchdog_kicks: u64,
}

impl FaultStats {
    /// Sum every counter (quick "anything happened?" signal).
    pub fn total_events(&self) -> u64 {
        self.rows().iter().map(|&(_, v)| v).sum()
    }

    /// Accumulate another cell's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.cn_dropped_pkts += other.cn_dropped_pkts;
        self.cn_dropped_bytes += other.cn_dropped_bytes;
        self.cn_delayed_pkts += other.cn_delayed_pkts;
        self.spiked_losses += other.spiked_losses;
        self.cqi_frozen_reports += other.cqi_frozen_reports;
        self.cqi_corrupted_reports += other.cqi_corrupted_reports;
        self.rlf_events += other.rlf_events;
        self.reestablishments += other.reestablishments;
        self.detach_events += other.detach_events;
        self.reattach_events += other.reattach_events;
        self.buffer_shrink_events += other.buffer_shrink_events;
        self.flushed_sdus += other.flushed_sdus;
        self.flushed_bytes += other.flushed_bytes;
        self.flows_evicted += other.flows_evicted;
        self.watchdog_kicks += other.watchdog_kicks;
    }

    /// `(label, value)` rows for summary tables, in a stable order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cn_dropped_pkts", self.cn_dropped_pkts),
            ("cn_dropped_bytes", self.cn_dropped_bytes),
            ("cn_delayed_pkts", self.cn_delayed_pkts),
            ("spiked_losses", self.spiked_losses),
            ("cqi_frozen_reports", self.cqi_frozen_reports),
            ("cqi_corrupted_reports", self.cqi_corrupted_reports),
            ("rlf_events", self.rlf_events),
            ("reestablishments", self.reestablishments),
            ("detach_events", self.detach_events),
            ("reattach_events", self.reattach_events),
            ("buffer_shrink_events", self.buffer_shrink_events),
            ("flushed_sdus", self.flushed_sdus),
            ("flushed_bytes", self.flushed_bytes),
            ("flows_evicted", self.flows_evicted),
            ("watchdog_kicks", self.watchdog_kicks),
        ]
    }
}

// Same stable order as [`FaultStats::rows`].
outran_simcore::snap_fields! {
    FaultStats {
        cn_dropped_pkts, cn_dropped_bytes, cn_delayed_pkts, spiked_losses, cqi_frozen_reports,
        cqi_corrupted_reports, rlf_events, reestablishments, detach_events, reattach_events,
        buffer_shrink_events, flushed_sdus, flushed_bytes, flows_evicted, watchdog_kicks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_row() {
        let mut a = FaultStats {
            rlf_events: 2,
            flushed_bytes: 100,
            ..FaultStats::default()
        };
        let b = FaultStats {
            rlf_events: 3,
            watchdog_kicks: 1,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.rlf_events, 5);
        assert_eq!(a.flushed_bytes, 100);
        assert_eq!(a.watchdog_kicks, 1);
        assert_eq!(a.total_events(), 106);
    }

    #[test]
    fn rows_cover_all_fields() {
        // Compile-time-ish guard: if a field is added, update rows().
        let s = FaultStats::default();
        assert_eq!(s.rows().len(), 15);
        assert_eq!(s.total_events(), 0);
    }
}
