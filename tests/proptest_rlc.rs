//! Property-based tests on the RLC layer: segmentation/reassembly
//! round-trips, byte conservation, and ordering invariants under
//! arbitrary transmission-opportunity sequences.

use outran::pdcp::{FiveTuple, Priority};
use outran::rlc::{MlfqQueues, RlcSdu, UmConfig, UmRx, UmTx};
use outran::simcore::{Dur, Time};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever opportunity sizes the MAC grants, every SDU written to a
    /// lossless UM channel is reassembled exactly once with full length.
    #[test]
    fn um_roundtrip_under_arbitrary_opportunities(
        lens in prop::collection::vec(64u32..6000, 1..20),
        prios in prop::collection::vec(0u8..4, 20),
        pulls in prop::collection::vec(1u64..4000, 1..200),
    ) {
        let mut tx = UmTx::new(UmConfig { header_bytes: 0, capacity_sdus: 1000, ..UmConfig::default() });
        let mut rx = UmRx::new(Dur::from_secs(3600)); // effectively no window
        let mut expected = std::collections::BTreeMap::new();
        for (i, &len) in lens.iter().enumerate() {
            let s = sdu(i as u64, i as u64, len, prios[i % prios.len()]);
            expected.insert(s.id, len);
            tx.write_sdu(s).unwrap();
        }
        let mut delivered = std::collections::BTreeMap::new();
        let mut t = Time::ZERO;
        let mut pull_iter = pulls.iter().cycle();
        let mut guard = 0;
        while !tx.is_empty() {
            guard += 1;
            prop_assert!(guard < 100_000, "must drain");
            let budget = *pull_iter.next().unwrap();
            let (segs, _) = tx.pull(budget);
            for seg in segs {
                if let Some(d) = rx.on_segment(&seg, t) {
                    prop_assert!(delivered.insert(d.sdu_id, d.len).is_none(),
                        "SDU delivered twice");
                }
            }
            t += Dur::from_millis(1);
        }
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(rx.discarded_sdus, 0);
    }

    /// Byte accounting: queued_bytes always equals pushed − pulled.
    #[test]
    fn mlfq_conserves_bytes(
        lens in prop::collection::vec(64u32..3000, 1..30),
        prios in prop::collection::vec(0u8..4, 30),
        pulls in prop::collection::vec(1u64..5000, 1..100),
    ) {
        let mut q = MlfqQueues::new(4, 10_000);
        let mut pushed: u64 = 0;
        for (i, &len) in lens.iter().enumerate() {
            q.push(sdu(i as u64, i as u64, len, prios[i % prios.len()])).unwrap();
            pushed += len as u64;
        }
        let mut pulled: u64 = 0;
        for &budget in &pulls {
            let (segs, used) = q.pull(budget, 0);
            let seg_bytes: u64 = segs.iter().map(|s| s.len as u64).sum();
            prop_assert_eq!(seg_bytes, used);
            pulled += seg_bytes;
        }
        prop_assert_eq!(q.queued_bytes(), pushed - pulled);
    }

    /// Within one flow (stable priority), segment byte offsets leave the
    /// transmitter in order: seq of emitted data is non-decreasing.
    #[test]
    fn no_intra_flow_reordering(
        lens in prop::collection::vec(64u32..3000, 2..20),
        pulls in prop::collection::vec(1u64..2500, 1..200),
    ) {
        let mut q = MlfqQueues::new(4, 10_000);
        for (i, &len) in lens.iter().enumerate() {
            // One flow, all P1: strictly FIFO expected.
            let mut s = sdu(i as u64, 7, len, 0);
            s.seq = lens[..i].iter().map(|&l| l as u64).sum();
            q.push(s).unwrap();
        }
        let mut last_seq_end = 0u64;
        let mut pull_iter = pulls.iter().cycle();
        let mut guard = 0;
        while !q.is_empty() {
            guard += 1;
            prop_assert!(guard < 100_000);
            let (segs, _) = q.pull(*pull_iter.next().unwrap(), 0);
            for seg in segs {
                prop_assert!(seg.seq >= last_seq_end || seg.seq + (seg.len as u64) <= last_seq_end,
                    "bytes of one flow must not reorder: seq={} last_end={}", seg.seq, last_seq_end);
                last_seq_end = last_seq_end.max(seg.seq + seg.len as u64);
            }
        }
    }

    /// The priority push-out never drops a strictly higher-priority SDU
    /// in favour of a lower-priority one.
    #[test]
    fn pushout_victim_is_never_better(
        prios in prop::collection::vec(0u8..4, 2..60),
    ) {
        let cap = 16;
        let mut q = MlfqQueues::new(4, cap);
        for (i, &p) in prios.iter().enumerate() {
            let incoming_prio = p;
            match q.push(sdu(i as u64, i as u64, 100, p)) {
                Ok(()) => {}
                Err(victim) => {
                    prop_assert!(victim.priority.0 >= incoming_prio
                        // incoming itself dropped is always permitted
                        || victim.id == i as u64);
                }
            }
            prop_assert!(q.len_sdus() <= cap);
        }
    }
}
