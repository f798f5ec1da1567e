//! Property-based tests on the RLC layer: segmentation/reassembly
//! round-trips, byte conservation, and ordering invariants under
//! arbitrary transmission-opportunity sequences.

use outran::pdcp::{FiveTuple, Priority};
use outran::rlc::{MlfqQueues, RlcSdu, UmConfig, UmRx, UmTx};
use outran::simcore::{check, Dur, Rng, Time};
use std::ops::Range;

fn sdu(id: u64, flow: u64, len: u32, prio: u8) -> RlcSdu {
    RlcSdu {
        id,
        flow_id: flow,
        tuple: FiveTuple::simulated(flow, 0),
        len,
        offset: 0,
        priority: Priority(prio),
        arrival: Time::ZERO,
        seq: id * 100_000,
    }
}

/// A vector of uniform draws from `vals` whose length is uniform in `len`.
fn draws(rng: &mut Rng, len: Range<usize>, vals: Range<u64>) -> Vec<u64> {
    let n = len.start + rng.index(len.len());
    (0..n)
        .map(|_| vals.start + rng.below(vals.end - vals.start))
        .collect()
}

/// Whatever opportunity sizes the MAC grants, every SDU written to a
/// lossless UM channel is reassembled exactly once with full length.
#[test]
fn um_roundtrip_under_arbitrary_opportunities() {
    check("um_roundtrip_under_arbitrary_opportunities", 64, |rng| {
        let lens = draws(rng, 1..20, 64..6000);
        let pulls = draws(rng, 1..200, 1..4000);
        let mut tx = UmTx::new(UmConfig {
            header_bytes: 0,
            capacity_sdus: 1000,
            ..UmConfig::default()
        });
        let mut rx = UmRx::new(Dur::from_secs(3600)); // effectively no window
        let mut expected = std::collections::BTreeMap::new();
        for (i, &len) in lens.iter().enumerate() {
            let s = sdu(i as u64, i as u64, len as u32, rng.below(4) as u8);
            expected.insert(s.id, len as u32);
            tx.write_sdu(s).unwrap();
        }
        let mut delivered = std::collections::BTreeMap::new();
        let mut t = Time::ZERO;
        let mut pull_iter = pulls.iter().cycle();
        let mut guard = 0;
        while !tx.is_empty() {
            guard += 1;
            assert!(guard < 100_000, "must drain");
            let budget = *pull_iter.next().unwrap();
            let (segs, _) = tx.pull(budget);
            for seg in segs {
                if let Some(d) = rx.on_segment(&seg, t) {
                    assert!(
                        delivered.insert(d.sdu_id, d.len).is_none(),
                        "SDU delivered twice"
                    );
                }
            }
            t += Dur::from_millis(1);
        }
        assert_eq!(delivered, expected);
        assert_eq!(rx.discarded_sdus, 0);
    });
}

/// Byte accounting: queued_bytes always equals pushed − pulled.
#[test]
fn mlfq_conserves_bytes() {
    check("mlfq_conserves_bytes", 64, |rng| {
        let lens = draws(rng, 1..30, 64..3000);
        let pulls = draws(rng, 1..100, 1..5000);
        let mut q = MlfqQueues::new(4, 10_000);
        let mut pushed: u64 = 0;
        for (i, &len) in lens.iter().enumerate() {
            let prio = rng.below(4) as u8;
            q.push(sdu(i as u64, i as u64, len as u32, prio)).unwrap();
            pushed += len;
        }
        let mut pulled: u64 = 0;
        for &budget in &pulls {
            let (segs, used) = q.pull(budget, 0);
            let seg_bytes: u64 = segs.iter().map(|s| s.len as u64).sum();
            assert_eq!(seg_bytes, used);
            pulled += seg_bytes;
        }
        assert_eq!(q.queued_bytes(), pushed - pulled);
    });
}

/// Within one flow (stable priority), segment byte offsets leave the
/// transmitter in order: seq of emitted data is non-decreasing.
#[test]
fn no_intra_flow_reordering() {
    check("no_intra_flow_reordering", 64, |rng| {
        let lens = draws(rng, 2..20, 64..3000);
        let pulls = draws(rng, 1..200, 1..2500);
        let mut q = MlfqQueues::new(4, 10_000);
        for (i, &len) in lens.iter().enumerate() {
            // One flow, all P1: strictly FIFO expected.
            let mut s = sdu(i as u64, 7, len as u32, 0);
            s.seq = lens[..i].iter().sum();
            q.push(s).unwrap();
        }
        let mut last_seq_end = 0u64;
        let mut pull_iter = pulls.iter().cycle();
        let mut guard = 0;
        while !q.is_empty() {
            guard += 1;
            assert!(guard < 100_000);
            let (segs, _) = q.pull(*pull_iter.next().unwrap(), 0);
            for seg in segs {
                assert!(
                    seg.seq >= last_seq_end || seg.seq + (seg.len as u64) <= last_seq_end,
                    "bytes of one flow must not reorder: seq={} last_end={}",
                    seg.seq,
                    last_seq_end
                );
                last_seq_end = last_seq_end.max(seg.seq + seg.len as u64);
            }
        }
    });
}

/// The priority push-out never drops a strictly higher-priority SDU
/// in favour of a lower-priority one.
#[test]
fn pushout_victim_is_never_better() {
    check("pushout_victim_is_never_better", 64, |rng| {
        let prios = draws(rng, 2..60, 0..4);
        let cap = 16;
        let mut q = MlfqQueues::new(4, cap);
        for (i, &p) in prios.iter().enumerate() {
            let incoming_prio = p as u8;
            match q.push(sdu(i as u64, i as u64, 100, incoming_prio)) {
                Ok(()) => {}
                Err(victim) => {
                    assert!(
                        victim.priority.0 >= incoming_prio
                        // incoming itself dropped is always permitted
                        || victim.id == i as u64
                    );
                }
            }
            assert!(q.len_sdus() <= cap);
        }
    });
}
