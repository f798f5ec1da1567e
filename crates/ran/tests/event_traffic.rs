//! Where the ingress event queue's traffic goes. Its near wheel spans
//! 64 ticks of 2²⁰ ns (≈ 67 ms); every event a cell schedules a link
//! delay ahead — packets at `cn_delay` plus any degraded-CN surcharge,
//! ACKs and STATUS PDUs at `ul_air_delay` — must land there, so only
//! flow arrivals, registered at arbitrary future instants, may go to the
//! far tier (a `BinaryHeap`). `WorkCounters::event_far_pushes` counts what went:
//! at most one push per registered flow, and deterministic work, so
//! dense stepping counts what event-driven stepping counts. So is
//! `WorkCounters::event_near_high_water`, the most events the near
//! slots' one node store held at once.

use outran_faults::FaultPlan;
use outran_ran::cell::{GbrBearer, RlcMode, SchedulerKind};
use outran_ran::Experiment;
use outran_simcore::{Dur, Time};

const SECS: u64 = 4;

/// `(far pushes while every arrival was registered, far pushes in the
/// run, flows registered, near-store high water)`, the run going past
/// the horizon through the 4 s drain window, in which the queue can run
/// dry while RTOs fire.
fn far_pushes(exp: &impl Fn() -> Experiment, gbr: bool, dense: bool) -> (u64, u64, u64, u64) {
    let mut cell = exp().build_cell();
    if gbr {
        cell.add_gbr_bearer(GbrBearer::volte(0));
    }
    let at_build = cell.work().event_far_pushes;
    let end = Time::from_secs(2 * SECS);
    if dense {
        cell.run_until_dense(end);
    } else {
        cell.run_until(end);
    }
    assert!(cell.n_completed() > 50, "{} flows done", cell.n_completed());
    let work = cell.work();
    let in_run = work.event_far_pushes - at_build;
    (
        at_build,
        in_run,
        cell.n_flows() as u64,
        work.event_near_high_water,
    )
}

/// Every arrival is registered before the run, so the run itself must
/// push nothing to the heap.
fn check(exp: impl Fn() -> Experiment, gbr: bool) {
    let (at_build, in_run, flows, near) = far_pushes(&exp, gbr, false);
    assert!(0 < at_build && at_build <= flows, "{at_build} of {flows}");
    assert_eq!(in_run, 0, "a packet, ACK or STATUS event went to the heap");
    assert!(near > 0, "no event went through the near slots");
    assert_eq!(
        far_pushes(&exp, gbr, true),
        (at_build, 0, flows, near),
        "dense ≠ event-driven"
    );
}

/// The benchmark's `chaos_cell` shape: PF, RLC AM (STATUS PDUs), HARQ,
/// residual loss, a chaos plan whose CN degrade windows add up to 20 ms,
/// a watchdog, and a GBR bearer.
#[test]
fn chaos_am_harq_gbr_cell_sends_only_arrivals_to_the_heap() {
    check(
        || {
            Experiment::lte_default()
                .scheduler(SchedulerKind::Pf)
                .users(8)
                .load(0.6)
                .duration_secs(SECS)
                .seed(0xFA12)
                .rlc_mode(RlcMode::Am)
                .harq(Some(outran_phy::harq::HarqConfig::default()))
                .residual_loss(0.02)
                .faults(FaultPlan::chaos(0xFA12, Dur::from_secs(SECS), 8, 0.6))
                .watchdog(Some(Dur::from_millis(750)))
        },
        true,
    );
}

/// Fig 12's 25 ms core network: packets land 25 ms out, ACKs 4 ms.
#[test]
fn cn_delay_25ms_cell_sends_only_arrivals_to_the_heap() {
    check(
        || {
            Experiment::lte_default()
                .scheduler(SchedulerKind::OutRan)
                .users(16)
                .load(0.7)
                .duration_secs(SECS)
                .seed(0x25)
                .cn_delay(Dur::from_millis(25))
        },
        false,
    );
}
