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
            .filter(|(_, &e)| e >= start)
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

    /// Flow size of the byte grid: every arrival is one of its 21 ranges.
    const N: u64 = 6;

    /// Replay `segments` (`(seq, len)`) into a fresh receiver, checking
    /// it after each against a bitmap of the bytes received: the ACK is
    /// the first byte missing, and the out-of-order map holds exactly the
    /// maximal received runs above it.
    fn arrivals(segments: &[(u64, u32)]) {
        let (mut rx, mut got, mut seen) = (TcpReceiver::new(N), 0u64, 0);
        for &(seq, len) in segments {
            got |= ((1 << len) - 1) << seq;
            seen += u64::from(len);
            let cum = u64::from(got.trailing_ones());
            let mut runs = BTreeMap::new();
            for b in (cum..N).filter(|b| (got >> b) & 1 == 1) {
                match runs.last_entry() {
                    Some(mut run) if *run.get() == b => *run.get_mut() = b + 1,
                    _ => {
                        runs.insert(b, b + 1);
                    }
                }
            }
            assert_eq!(rx.on_segment(seq, len), cum);
            assert_eq!((rx.complete(), rx.bytes_seen), (cum == N, seen));
            assert_eq!(rx.ooo, runs);
        }
    }

    /// Every sequence of four arrivals on the grid: 21⁴ = 194 481.
    #[test]
    fn every_arrival_sequence_in_scope() {
        let ranges: Vec<(u64, u32)> = (0..N)
            .flat_map(|s| (1..=N - s).map(move |len| (s, len as u32)))
            .collect();
        let n = ranges.len();
        for code in 0..n.pow(4) {
            let seq: Vec<_> = (0..4).map(|d| ranges[code / n.pow(d) % n]).collect();
            let ok = std::panic::catch_unwind(|| arrivals(&seq)).is_ok();
            assert!(ok, "counterexample: arrivals(&{seq:?})");
        }
        eprintln!("receiver: {} arrival sequences", n.pow(4));
    }
}
