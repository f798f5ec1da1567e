//! Property-based tests on the TCP model: completion under arbitrary
//! loss patterns, receiver monotonicity, and window sanity.

use outran::simcore::{check, Dur, Time};
use outran::transport::{TcpConfig, TcpReceiver, TcpSender};

/// A flow completes against any (sub-certain) deterministic loss
/// pattern: drop every k-th segment on its first transmission.
#[test]
fn completes_under_periodic_loss() {
    check("completes_under_periodic_loss", 48, |rng| {
        let flow_kb = 1 + rng.below(399);
        let drop_every = 2 + rng.index(10);
        let rtt_ms = 5 + rng.below(75);
        let size = flow_kb * 1000;
        let mut tx =
            TcpSender::with_initial_rtt(TcpConfig::default(), size, Dur::from_millis(rtt_ms));
        let mut rx = TcpReceiver::new(size);
        let mut now = Time::ZERO;
        let mut sent = 0usize;
        let mut guard = 0;
        while !rx.complete() {
            guard += 1;
            assert!(guard < 30_000, "must complete: cum={} / {}", rx.cum(), size);
            let segs = tx.emit(now);
            let mut acks = Vec::new();
            for seg in segs {
                sent += 1;
                // First transmissions are dropped on the pattern;
                // retransmissions always get through.
                if !seg.is_retx && sent.is_multiple_of(drop_every) {
                    continue;
                }
                acks.push(rx.on_segment(seg.seq, seg.len));
            }
            now += Dur::from_millis(rtt_ms);
            if acks.is_empty() {
                // Nothing arrived; rely on the RTO.
                if let Some(d) = tx.rto_deadline() {
                    now = now.max(d);
                    tx.on_rto(now);
                }
            } else {
                for a in acks {
                    tx.on_ack(now, a);
                }
            }
        }
        assert_eq!(rx.cum(), size);
    });
}

/// Receiver cumulative ACK is monotone non-decreasing and never
/// exceeds the flow size, for arbitrary segment arrivals.
#[test]
fn receiver_cum_monotone() {
    check("receiver_cum_monotone", 48, |rng| {
        let mut rx = TcpReceiver::new(1_000 + rng.below(99_000));
        let mut prev = 0;
        for _ in 0..1 + rng.index(299) {
            let (block, len) = (rng.below(100), 1 + rng.below(1499) as u32);
            let cum = rx.on_segment(block * 1400, len.min(1400));
            assert!(cum >= prev);
            prev = cum;
        }
    });
}

/// cwnd never collapses below one MSS and never exceeds the cap.
#[test]
fn cwnd_stays_in_bounds() {
    check("cwnd_stays_in_bounds", 48, |rng| {
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::new(cfg, 10_000_000);
        let mut now = Time::ZERO;
        let mut delivered = 0u64;
        for _ in 0..1 + rng.index(199) {
            let progress = rng.chance(0.5);
            let segs = tx.emit(now);
            if let Some(last) = segs.last().filter(|_| progress) {
                delivered = delivered.max(last.seq + last.len as u64);
            }
            now += Dur::from_millis(20);
            // Either progress (new cum ack) or a dup ack.
            tx.on_ack(now, delivered);
            let mss = cfg.mss as f64;
            assert!(tx.cwnd() >= mss - 1e-9);
            assert!(tx.cwnd() <= (cfg.max_cwnd_segs as f64) * mss + 1e-9);
        }
    });
}
