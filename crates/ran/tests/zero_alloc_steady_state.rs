//! Zero-allocation steady state: after a 1 s warmup the pooled
//! HARQ-payload path must be served entirely from recycled buffers.
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
        // Sizes cycling short→long, one arrival every 10 ms on
        // round-robin UEs (≈ load 0.6).
        let horizon = Time::from_secs(5);
        let mut at = Time::from_millis(5);
        let mut i = 0usize;
        while at < horizon {
            cell.schedule_flow(at, i % USERS, SIZES[i % SIZES.len()], None);
            at += Dur::from_millis(10);
            i += 1;
        }

        cell.run_until_dense(Time::from_secs(1));
        let warm = cell.pool_stats();
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
    }
}
