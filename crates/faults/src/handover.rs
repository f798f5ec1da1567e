//! Counters describing inter-cell handover activity.

outran_simcore::counters! {
    /// What the network's A3 handover machinery decided and executed.
    ///
    /// Maintained by the network layer as epoch barriers execute handovers;
    /// surfaced alongside fault counters so metro runs can be summarized in
    /// one health table.
    pub struct HandoverStats {
        /// A3 events that sustained time-to-trigger and requested a handover.
        pub attempts: u64,
        /// Handovers executed end-to-end (detach, transfer, attach).
        pub successes: u64,
        /// Handovers refused because the target cell had no free UE slot.
        pub blocked: u64,
        /// Handovers executed while the source radio link was down (the
        /// transfer rides the RLF re-establishment path).
        pub rlf_failures: u64,
        /// Handovers back to the previous serving cell within the ping-pong
        /// window (a subset of `successes`).
        pub ping_pongs: u64,
        /// Flow continuations created at target cells for interrupted flows.
        pub flows_transferred: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_row() {
        let mut a = HandoverStats {
            attempts: 4,
            successes: 3,
            ..HandoverStats::default()
        };
        let b = HandoverStats {
            attempts: 2,
            ping_pongs: 1,
            ..HandoverStats::default()
        };
        a.merge(&b);
        assert_eq!(a.attempts, 6);
        assert_eq!(a.successes, 3);
        assert_eq!(a.ping_pongs, 1);
        assert_eq!(a.total_events(), 10);
    }

    #[test]
    fn snap_roundtrip() {
        use outran_simcore::snap::{Snap, SnapReader, SnapWriter, Unsnap};
        let s = HandoverStats {
            attempts: 7,
            successes: 5,
            blocked: 1,
            rlf_failures: 1,
            ping_pongs: 2,
            flows_transferred: 11,
        };
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = HandoverStats::unsnap(&mut r).unwrap();
        assert_eq!(back, s);
    }
}
