//! Bounded-exhaustive check of TCP loss recovery (the small-scope
//! hypothesis): a 20-segment flow under every set of at most three lost
//! events among its first 16 segment transmissions and its first 16
//! ACKs. Each flow must complete with the window in bounds, within the
//! scope's pinned worst case. A failure stops at its first
//! counterexample and prints it as the `tcp_conversation(…)` call that
//! replays it. Two random-case checks ride along: completion of larger
//! flows over varied RTTs under periodic loss, and the window bounds
//! under arbitrary runs of progress and duplicate ACKs.

use std::panic::catch_unwind;

use outran::simcore::{check, Dur, Time};
use outran::transport::{TcpConfig, TcpReceiver, TcpSender};

/// The flow: 20 segments, the last one short.
const SIZE: u64 = 20 * 1400 - 300;
const RTT: Dur = Dur::from_millis(20);

/// The worst case in scope: completion time (ms), RTOs and rounds. A
/// flow that needs more rounds fails there.
const TCP_WORST: (u64, u64, u64) = (260, 1, 9);

/// One flow, in rounds: the sender emits what its window allows, each
/// segment that arrives is ACKed, and the ACKs that arrive are heard one
/// RTT later, after the RTO if it expired first. Segment transmission
/// `i` is lost when bit `i` of `lost` is set, ACK `i` when bit `16 + i`
/// is. Returns the completion time (ms), the RTOs taken and the rounds.
fn tcp_conversation(lost: u32) -> (u64, u64, u64) {
    let cfg = TcpConfig::default();
    let (mss, cap) = (f64::from(cfg.mss), f64::from(cfg.max_cwnd_segs * cfg.mss));
    let mut tx = TcpSender::with_initial_rtt(cfg, SIZE, RTT);
    let mut rx = TcpReceiver::new(SIZE);
    let (mut segments, mut acks) = (0, 0);
    let mut now = Time::ZERO;
    for round in 1..=TCP_WORST.2 {
        let mut heard = Vec::new();
        for seg in tx.emit(now) {
            assert_eq!(u64::from(seg.len), (SIZE - seg.seq).min(1400));
            segments += 1;
            if segments <= 16 && (lost >> (segments - 1)) & 1 == 1 {
                continue;
            }
            let cum = rx.on_segment(seg.seq, seg.len);
            acks += 1;
            if acks > 16 || (lost >> (15 + acks)) & 1 == 0 {
                heard.push(cum);
            }
        }
        now += RTT;
        if let Some(at) = tx
            .rto_deadline()
            .filter(|&at| at <= now || heard.is_empty())
        {
            now = now.max(at);
            tx.on_rto(now);
        }
        for cum in heard {
            tx.on_ack(now, cum);
            assert!((mss..=cap).contains(&tx.cwnd()), "cwnd {}", tx.cwnd());
        }
        if tx.done() {
            assert_eq!((rx.cum(), tx.rto_deadline()), (SIZE, None));
            return (now.as_nanos() / 1_000_000, tx.timeouts, round);
        }
    }
    panic!(
        "past the pinned worst case: {} of {SIZE} bytes acknowledged",
        rx.cum()
    );
}

#[test]
fn tcp_every_loss_set_in_scope() {
    // Sets as three strictly rising event indices, where 32 means none.
    let bit = |i: u32| 1u32.checked_shl(i).unwrap_or(0);
    let sets = (0..=32u32)
        .flat_map(|a| (a..=32).flat_map(move |b| (b..=32).map(move |c| (a, b, c))))
        .filter(|&(a, b, c)| (a < b || a == 32) && (b < c || b == 32));
    let (mut cases, mut worst) = (0, (0, 0, 0));
    for (a, b, c) in sets {
        let lost = bit(a) | bit(b) | bit(c);
        let Ok((ms, rtos, rounds)) = catch_unwind(|| tcp_conversation(lost)) else {
            panic!("counterexample: tcp_conversation({lost:#034b})");
        };
        cases += 1;
        worst = (worst.0.max(ms), worst.1.max(rtos), worst.2.max(rounds));
    }
    eprintln!("TCP: {cases} loss sets, worst {worst:?} (ms, RTOs, rounds)");
    assert_eq!((cases, worst), (5_489, TCP_WORST));
}

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
