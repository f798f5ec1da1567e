//! Counters describing injected faults and recovery-path activity.

outran_simcore::counters! {
    /// What the fault engine injected and what the recovery paths did.
    ///
    /// Maintained by the cell as faults fire; surfaced alongside the usual
    /// cell metrics so chaos runs can be summarized in one table.
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
}
