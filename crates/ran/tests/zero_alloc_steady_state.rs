//! Zero-allocation steady state: after a 1 s warmup the pooled
//! HARQ-payload path must be served entirely from recycled buffers, and
//! every flow that opens must find its TCP endpoints in the recycled
//! slots of the flow table's slab.
//!
//! The cell is the paper's 16-UE LTE setting with **explicit HARQ** and
//! residual loss raised to 5 %, so failed transport blocks flow through
//! the payload pools every few TTIs (the folded-HARQ default never
//! materializes payload buffers and would leave the gate vacuous). Pool
//! traffic is a deterministic function of the seed, so the counters are
//! exact on any machine — no wall clock involved.

use outran_ran::cell::{Cell, CellConfig, SchedulerKind};
use outran_simcore::{Dur, Time};

const USERS: usize = 16;
const SIZES: [u64; 4] = [2_000, 8_000, 40_000, 200_000];

/// Sizes cycling short→long, one arrival every 10 ms on round-robin
/// UEs (≈ load 0.6), over `[from, to)`; returns the flows registered.
fn schedule_burst(cell: &mut Cell, from: Time, to: Time) -> u64 {
    let mut at = from + Dur::from_millis(5);
    let mut i = 0usize;
    while at < to {
        cell.schedule_flow(at, i % USERS, SIZES[i % SIZES.len()], None);
        at += Dur::from_millis(10);
        i += 1;
    }
    i as u64
}

#[test]
fn pools_never_miss_after_warmup() {
    for kind in [
        SchedulerKind::Pf,
        SchedulerKind::Rr,
        SchedulerKind::Mt,
        SchedulerKind::Srjf,
        SchedulerKind::OutRan,
    ] {
        let mut cfg = CellConfig::lte_default(USERS, kind, 42);
        cfg.harq = Some(outran_phy::harq::HarqConfig::default());
        cfg.residual_loss = 0.05;
        let mut cell = Cell::new(cfg);
        let horizon = Time::from_secs(5);
        schedule_burst(&mut cell, Time::ZERO, horizon);

        cell.run_until_dense(Time::from_secs(1));
        let warm = cell.pool_stats();
        let warm_slab = cell.flow_endpoint_stats();
        cell.run_until_dense(horizon);
        let steady = cell.pool_stats().since(&warm);

        assert_eq!(
            steady.misses,
            0,
            "{}: allocated in steady state ({} warmup misses)",
            kind.name(),
            warm.misses
        );
        assert!(
            steady.hits > 0,
            "{}: pooled path never exercised — the gate is vacuous",
            kind.name()
        );

        // The burst offers more than the cell carries under 5 % loss, so
        // its backlog — the flows open at once — deepens for all five
        // seconds. The endpoint slab builds a pair only for that: never
        // while a released slot is free.
        let slab = cell.flow_endpoint_stats().since(&warm_slab);
        assert_eq!(
            slab.misses,
            slab.high_water - warm_slab.high_water,
            "{}: built endpoints beside a free slot",
            kind.name()
        );
        assert!(slab.hits > 0, "{}: no slot was ever reused", kind.name());

        // Once the deepest backlog is behind the cell, opening a flow
        // allocates nothing: let it drain until one more second of the
        // same burst (100 flows), all open at once, would still fit.
        let high_water = cell.work().flow_endpoints_high_water;
        assert!(high_water > 100, "{}: {high_water}", kind.name());
        let mut t = horizon;
        while cell.open_flows() + 100 > high_water {
            t += Dur::from_secs(1);
            assert!(t < Time::from_secs(60), "{}: not draining", kind.name());
            cell.run_until(t);
        }
        let warm_slab = cell.flow_endpoint_stats();
        let flows = schedule_burst(&mut cell, t, t + Dur::from_secs(1));
        cell.run_until_dense(t + Dur::from_secs(1));
        let slab = cell.flow_endpoint_stats().since(&warm_slab);
        assert_eq!(
            (slab.misses, slab.hits),
            (0, flows),
            "{}: a warmed-up cell built TCP endpoints",
            kind.name()
        );
    }
}
