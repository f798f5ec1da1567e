//! TCP receiver: out-of-order range tracking and cumulative ACKs.

use std::collections::BTreeMap;

/// The receiving endpoint of one flow (lives at the UE).
///
/// Tracks which byte ranges have arrived, merges them, and exposes the
/// cumulative ACK (the first missing byte). The flow is *complete* when
/// the cumulative ACK reaches the flow size — that instant is the flow's
/// completion time (FCT), the paper's primary metric.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    flow_size: u64,
    /// Contiguously received prefix.
    cum: u64,
    /// Out-of-order ranges: start → end (exclusive), non-overlapping.
    ooo: BTreeMap<u64, u64>,
    /// Total payload bytes accepted (including duplicates) — diagnostics.
    pub bytes_seen: u64,
}

impl TcpReceiver {
    /// Create a receiver expecting `flow_size` bytes.
    pub fn new(flow_size: u64) -> TcpReceiver {
        TcpReceiver {
            flow_size,
            cum: 0,
            ooo: BTreeMap::new(),
            bytes_seen: 0,
        }
    }

    /// Make this the fresh receiver of a `flow_size`-byte flow, keeping
    /// the range map's root node: emptied entry by entry rather than
    /// cleared, a recycled receiver takes its first out-of-order range
    /// without allocating.
    pub fn reset(&mut self, flow_size: u64) {
        while self.ooo.pop_first().is_some() {}
        self.flow_size = flow_size;
        self.cum = 0;
        self.bytes_seen = 0;
    }

    /// Process an arriving segment; returns the cumulative ACK to send.
    pub fn on_segment(&mut self, seq: u64, len: u32) -> u64 {
        self.bytes_seen += len as u64;
        let end = seq + len as u64;
        if end <= self.cum {
            return self.cum; // pure duplicate
        }
        let start = seq.max(self.cum);
        self.insert_range(start, end);
        // Advance the cumulative prefix over any now-contiguous ranges.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.cum {
                self.cum = self.cum.max(e);
                self.ooo.remove(&s);
            } else {
                break;
            }
        }
        self.cum
    }

    fn insert_range(&mut self, mut start: u64, mut end: u64) {
        // Merge with overlapping/adjacent existing ranges.
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=end)
            .filter(|(&s, &e)| e >= start || s <= end)
            .filter(|(&s, _)| {
                let e = self.ooo[&s];
                s <= end && e >= start
            })
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            if let Some(e) = self.ooo.remove(&s) {
                start = start.min(s);
                end = end.max(e);
            }
        }
        self.ooo.insert(start, end);
    }

    /// Cumulative contiguous bytes received.
    pub fn cum(&self) -> u64 {
        self.cum
    }

    /// Whether the whole flow has arrived.
    pub fn complete(&self) -> bool {
        self.cum >= self.flow_size
    }

    /// Expected flow size.
    pub fn flow_size(&self) -> u64 {
        self.flow_size
    }
}

// BTreeMap iteration is key-ordered, so the byte stream is deterministic.
outran_simcore::snap_fields! { TcpReceiver { flow_size, cum, bytes_seen in counter, ooo } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut r = TcpReceiver::new(3000);
        assert_eq!(r.on_segment(0, 1400), 1400);
        assert_eq!(r.on_segment(1400, 1400), 2800);
        assert_eq!(r.on_segment(2800, 200), 3000);
        assert!(r.complete());
    }

    #[test]
    fn out_of_order_held_then_merged() {
        let mut r = TcpReceiver::new(4200);
        assert_eq!(r.on_segment(1400, 1400), 0);
        assert_eq!(r.on_segment(2800, 1400), 0);
        assert_eq!(r.ooo.len(), 1, "adjacent ranges merge");
        assert_eq!(r.on_segment(0, 1400), 4200);
        assert!(r.complete());
    }

    #[test]
    fn duplicates_ignored() {
        let mut r = TcpReceiver::new(2800);
        r.on_segment(0, 1400);
        assert_eq!(r.on_segment(0, 1400), 1400);
        assert_eq!(r.on_segment(500, 100), 1400);
        assert!(!r.complete());
    }

    #[test]
    fn partial_overlap_handled() {
        let mut r = TcpReceiver::new(3000);
        r.on_segment(1000, 500); // [1000,1500)
        r.on_segment(1200, 800); // extends to [1000,2000)
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.on_segment(0, 1000), 2000);
    }

    #[test]
    fn gap_keeps_cum_stalled() {
        let mut r = TcpReceiver::new(10_000);
        r.on_segment(0, 1400);
        r.on_segment(4200, 1400); // hole at [1400,4200)
        assert_eq!(r.cum(), 1400);
        r.on_segment(1400, 1400);
        assert_eq!(r.cum(), 2800);
        r.on_segment(2800, 1400);
        assert_eq!(r.cum(), 5600, "hole fill releases buffered range");
    }

    #[test]
    fn many_random_arrivals_complete() {
        // Deliver 100 segments in a scrambled but fixed order.
        let n = 100u64;
        let mut order: Vec<u64> = (0..n).collect();
        // Deterministic scramble.
        for i in 0..order.len() {
            let j = (i * 37 + 11) % order.len();
            order.swap(i, j);
        }
        let mut r = TcpReceiver::new(n * 1000);
        for &i in &order {
            r.on_segment(i * 1000, 1000);
        }
        assert!(r.complete());
        assert_eq!(r.cum(), n * 1000);
        assert_eq!(r.ooo.len(), 0);
    }
}
