//! The edges where a finished or unborn flow is still spoken to.
//!
//! A flow's TCP endpoints exist only while it is open; its record
//! outlives them. Random schedules drive every way ingress can be asked
//! about a flow that has none: `abort_flow` (via `handover_detach`)
//! before the flow's arrival fires and in mid-transfer, the stale
//! `PktAtEnb` / `AckAtServer` / `accept_sdu` that follow an abort or a
//! completion (the final ACK of every flow reaches the server after the
//! receiver finished it, and still takes the sender's last RTT sample),
//! and handover continuations registered with ids above flows that have
//! yet to arrive. Residual loss, a chaos plan and the watchdog keep
//! retransmissions and CN-loss draws in the mix.
//!
//! `PARENT` holds what commit 49e7801 — every flow's endpoints alive
//! for the whole run — read for three fixed seeds, recorded by running
//! this file there.

use outran_faults::FaultPlan;
use outran_ran::cell::{Cell, CellConfig, SchedulerKind};
use outran_simcore::snap::fnv1a;
use outran_simcore::{Dur, Rng, Time};

const SRC_UES: usize = 4;
const SIZES: [u64; 6] = [900, 1_400, 8_000, 60_000, 300_000, 1_200_000];
const END: Time = Time(30_000_000_000);

/// What one schedule leaves behind, source cell first.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    completed: [usize; 2],
    dropped_bytes: [u64; 2],
    /// FNV-1a over both cells' completion records, every UE's last RTT
    /// and the mean last RTT (bit pattern).
    digest: u64,
}

const PARENT: [(u64, Outcome); 3] = [
    (
        0xED6E_0001,
        Outcome {
            completed: [28, 37],
            dropped_bytes: [12_600, 36_000],
            digest: 0x3228_f409_a53d_4c60,
        },
    ),
    (
        0xED6E_0002,
        Outcome {
            completed: [28, 42],
            dropped_bytes: [82_200, 84_000],
            digest: 0xbeaf_6cfd_4df6_c8d3,
        },
    ),
    (
        0xED6E_0003,
        Outcome {
            completed: [28, 38],
            dropped_bytes: [8_400, 54_600],
            digest: 0xdfb6_13cc_0ecb_b685,
        },
    ),
];

fn cell(n_ues: usize, seed: u64) -> Cell {
    let mut cfg = CellConfig::lte_default(n_ues, SchedulerKind::OutRan, seed);
    cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
    cfg.channel.n_subbands = 4;
    cfg.residual_loss = 0.03;
    cfg.watchdog = Some(Dur::from_millis(750));
    cfg.faults = FaultPlan::chaos(seed, Dur::from_secs(6), n_ues, 0.4);
    Cell::new(cfg)
}

/// Step both cells densely to `to`, checking each live index every TTI.
fn step_checked(cells: &mut [Cell; 2], to: Time) {
    for c in cells.iter_mut() {
        while c.now() < to {
            c.step();
            if let Err(e) = c.check_live_index() {
                panic!("at {:?}: {e}", c.now());
            }
            assert!(c.open_flows() <= c.work().flow_endpoints_high_water);
        }
    }
}

fn run(seed: u64) -> Outcome {
    let mut rng = Rng::new(seed);
    // Source slots 0..4 hand over, one each, into target slots 4..8;
    // target slots 0..4 carry the target's own traffic.
    let mut cells = [cell(SRC_UES, seed), cell(2 * SRC_UES, seed ^ 0xD57)];
    // Everything is registered up front, so a flow that arrives after
    // its UE's handover is aborted before it ever opens, and the
    // target's late arrivals have ids below the continuations'.
    for (c, n_flows) in [(0, 28), (1, 16)] {
        for _ in 0..n_flows {
            let at = Time::from_millis(1 + rng.below(4_000));
            let ue = rng.index(SRC_UES);
            let bytes = SIZES[rng.index(SIZES.len())];
            cells[c].schedule_flow(at, ue, bytes, None);
        }
    }
    let mut order: Vec<usize> = (0..SRC_UES).collect();
    rng.shuffle(&mut order);
    let mut aborted_unborn = 0;
    let mut aborted_open = 0;
    for (k, &ue) in order.iter().enumerate() {
        let barrier = Time::from_millis(300 + 700 * k as u64 + rng.below(400));
        step_checked(&mut cells, barrier);
        let [src, dst] = &mut cells;
        let open_before = src.open_flows();
        let export = src.handover_detach(ue);
        aborted_open += open_before - src.open_flows();
        aborted_unborn += export.flows.iter().filter(|f| f.spawn > barrier).count();
        src.check_live_index().unwrap();
        let n_before = dst.n_flows();
        let continued = dst.handover_attach(SRC_UES + ue, &export);
        assert!(continued.iter().all(|&id| id >= n_before));
        dst.check_live_index().unwrap();
    }
    assert!(
        aborted_unborn > 0 && aborted_open > 0,
        "seed {seed:#x}: {aborted_unborn} unborn / {aborted_open} open flows aborted"
    );
    step_checked(&mut cells, END);

    let mut words = Vec::new();
    for c in cells.iter_mut() {
        assert_eq!(c.audit_now(), 0, "violations: {:?}", c.violations());
        assert_eq!(c.open_flows(), 0, "flows still open at the end");
        for d in c.take_completions() {
            words.extend([d.id as u64, d.ue as u64, d.bytes, d.spawn.0, d.fct.0]);
        }
        for ue in 0..c.config().n_ues {
            words.push(c.last_rtt_of_ue(ue).map_or(u64::MAX, |d| d.0));
        }
        words.push(c.mean_last_rtt_ms().to_bits());
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    Outcome {
        completed: [cells[0].n_completed(), cells[1].n_completed()],
        dropped_bytes: [
            cells[0].ingress_dropped_bytes(),
            cells[1].ingress_dropped_bytes(),
        ],
        digest: fnv1a(&bytes),
    }
}

#[test]
fn finished_and_unborn_flows_answer_as_the_eager_table_did() {
    let got = PARENT.map(|(seed, _)| (seed, run(seed)));
    for (seed, got) in &got {
        // Stale packets of aborted flows are terminal for the ledger.
        assert!(got.dropped_bytes[0] > 0, "seed {seed:#x}: nothing dropped");
    }
    assert_eq!(got, PARENT);
}
