//! Kernel arms: isolated public calls of single crates, so a layer's
//! cost can be read without the rest of the pipeline around it. Each
//! arm runs five batches of about 60 ms and reports the median batch's
//! time per call. Inputs are fixed; nothing here depends on `--seed`.

use std::hint::black_box;
use std::time::Instant;

use outran_core::optimize_thresholds;
use outran_mac::{
    OutRanScheduler, PfScheduler, Scheduler, SrjfScheduler, SubbandMetricCache, TtiRates, UeTti,
};
use outran_metrics::FctCollector;
use outran_pdcp::{FiveTuple, FlowTable, MlfqConfig, Priority};
use outran_phy::channel::CellChannel;
use outran_phy::geometry::iplusn_dbm;
use outran_phy::ChannelConfig;
use outran_ran::checkpoint::{restore_cell, snapshot_cells, CheckpointMeta};
use outran_ran::{Cell, CellConfig, Experiment, SchedulerKind};
use outran_rlc::am::{AmConfig, AmRx, AmTx};
use outran_rlc::um::{UmConfig, UmTx};
use outran_rlc::RlcSdu;
use outran_simcore::dist::Normal;
use outran_simcore::{Dur, EventQueue, Rng, Time, VecPool};
use outran_transport::{TcpConfig, TcpSender};
use outran_workload::{FlowSizeDist, PoissonFlowGen};

const BATCHES: usize = 5;
const BATCH_S: f64 = 0.06;

/// Seconds per call of `f`: median over [`BATCHES`] batches, each sized
/// by a doubling calibration to last about [`BATCH_S`].
fn time_arm(mut f: impl FnMut()) -> f64 {
    let mut run = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let mut iters = 1u64;
    let mut took = run(iters);
    while took < BATCH_S / 8.0 {
        iters *= 2;
        took = run(iters);
    }
    let iters = ((iters as f64 * BATCH_S / took).ceil() as u64).max(1);
    let mut per_call: Vec<f64> = (0..BATCHES).map(|_| run(iters) / iters as f64).collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

fn warmed_channel(users: usize) -> (CellChannel, Time) {
    let mut ch = CellChannel::new(ChannelConfig::lte_default(), users, &Rng::new(42));
    let tti = ch.config().radio.tti();
    let mut now = Time::ZERO;
    for _ in 0..100 {
        now += tti;
        ch.advance_tti(now);
    }
    (ch, now)
}

fn warmed_rates(ch: &CellChannel, users: usize) -> TtiRates {
    let n_sb = ch.config().n_subbands;
    let mut rates = TtiRates {
        per_ue_sb: vec![0.0; users * n_sb],
        rb_to_sb: (0..ch.n_rbs()).map(|rb| ch.subband_of_rb(rb)).collect(),
        n_sb,
        n_ues: users,
        reserved: vec![false; ch.n_rbs() as usize],
        versions: vec![1; users],
    };
    for u in 0..users {
        ch.fill_reported_rates(u, &mut rates.per_ue_sb[u * n_sb..(u + 1) * n_sb]);
    }
    rates
}

fn busy_ues(users: usize) -> Vec<UeTti> {
    (0..users)
        .map(|i| UeTti {
            active: true,
            head_priority: Some(Priority((i % 4) as u8)),
            queued_bytes: 1_000_000,
            oracle_min_remaining: Some(10_000 + i as u64 * 1_000),
            hol_delay: Dur::from_millis(5),
            oracle_has_qos_flow: i % 4 == 0,
        })
        .collect()
}

fn sdu(i: u64) -> RlcSdu {
    RlcSdu {
        id: i,
        flow_id: i % 16,
        tuple: FiveTuple::simulated(i % 16, 0),
        len: 1400,
        offset: 0,
        priority: Priority((i % 4) as u8),
        arrival: Time::ZERO,
        seq: i * 1400,
    }
}

/// Run every arm; returns `(metric name, value in the metric's unit)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    const USERS: usize = 16;
    let mut out = Vec::new();
    let mut arm = |name: &'static str, per_unit_s: f64, s: f64| out.push((name, s / per_unit_s));
    let (ns, us, ms) = (1e-9, 1e-6, 1e-3);

    // simcore
    let normal = Normal::new(0.0, 1.0);
    let mut rng = Rng::new(1);
    arm(
        "simcore.normal_sample_ns",
        ns,
        time_arm(|| {
            black_box(normal.sample(&mut rng));
        }),
    );
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(7);
    let mut now = Time::ZERO;
    for i in 0..256 {
        q.schedule(now + Dur::from_micros(25_000 + rng.below(30_000)), i);
    }
    arm(
        "simcore.event_churn_ns",
        ns,
        time_arm(|| {
            let (t, e) = q.pop().unwrap();
            now = now.max(t);
            q.schedule(now + Dur::from_micros(25_000 + rng.below(30_000)), e);
        }),
    );
    let mut pool: VecPool<u64> = VecPool::new();
    pool.prewarm(1);
    arm(
        "simcore.pool_take_put_ns",
        ns,
        time_arm(|| {
            let mut v = pool.take();
            v.push(1);
            pool.put(black_box(v));
        }),
    );

    // phy
    for (name, users) in [
        ("phy.advance_tti_16ue_us", 16),
        ("phy.advance_tti_32ue_us", 32),
    ] {
        let (mut ch, mut now) = warmed_channel(users);
        let tti = ch.config().radio.tti();
        arm(
            name,
            us,
            time_arm(|| {
                now += tti;
                ch.advance_tti(now);
            }),
        );
    }
    let (mut ch, mut now) = warmed_channel(USERS);
    let jump = Dur(ch.config().radio.tti().as_nanos() * 1000);
    arm(
        "phy.advance_to_1000tti_us",
        us,
        time_arm(|| {
            now += jump;
            ch.advance_to(now);
        }),
    );
    let n_sb = ch.config().n_subbands;
    let bits = vec![1_000.0; n_sb];
    let mut outcomes = vec![false; n_sb];
    arm(
        "phy.fresh_outcomes_16ue_us",
        us,
        time_arm(|| {
            for ue in 0..USERS {
                ch.fresh_outcomes(ue, &bits, 8.0, &mut outcomes);
            }
        }),
    );
    let mut row = vec![0.0; n_sb];
    arm(
        "phy.fill_rates_16ue_us",
        us,
        time_arm(|| {
            for ue in 0..USERS {
                ch.fill_reported_rates(ue, &mut row);
            }
            black_box(&row);
        }),
    );
    // One UE's interference sum over the 56 non-serving cells of the
    // 19-site × 3-sector layout.
    let neighbors: Vec<(f64, f64)> = (0..56)
        .map(|i| (0.3 + 0.01 * i as f64, -70.0 - i as f64))
        .collect();
    arm(
        "phy.iplusn_57site_ns",
        ns,
        time_arm(|| {
            black_box(iplusn_dbm(-101.0, black_box(&neighbors).iter().copied()));
        }),
    );

    // mac
    let ues = busy_ues(USERS);
    let mut rates = warmed_rates(&ch, USERS);
    let mut cache = SubbandMetricCache::new();
    let mut turn = 0usize;
    arm(
        "mac.cache_refresh_us",
        us,
        time_arm(|| {
            // One UE's row churns per call (the CQI report cadence);
            // the other rows are version hits.
            let u = turn % USERS;
            turn += 1;
            rates.per_ue_sb[u * n_sb..(u + 1) * n_sb].rotate_left(1);
            rates.versions[u] += 1;
            cache.refresh(&rates, |_| 0, |_, r| r);
        }),
    );
    let rates = warmed_rates(&ch, USERS);
    let (tti, tf) = (Dur::from_millis(1), Dur::from_millis(1000));
    let mut pf = PfScheduler::with_tf(USERS, tf, tti);
    arm(
        "mac.allocate_pf_us",
        us,
        time_arm(|| {
            let a = pf.allocate(Time::ZERO, &ues, &rates);
            pf.on_served(&a.bits_per_ue);
        }),
    );
    let mut or = OutRanScheduler::over_pf(USERS, tf, tti, OutRanScheduler::DEFAULT_EPSILON);
    arm(
        "mac.allocate_outran_us",
        us,
        time_arm(|| {
            let a = or.allocate(Time::ZERO, &ues, &rates);
            or.on_served(&a.bits_per_ue);
        }),
    );
    let mut srjf = SrjfScheduler::default();
    arm(
        "mac.allocate_srjf_us",
        us,
        time_arm(|| {
            black_box(srjf.allocate(Time::ZERO, &ues, &rates));
        }),
    );

    // rlc: one 1400 B SDU written and pulled out again per call.
    let mut um = UmTx::new(UmConfig::default());
    let mut segs = Vec::new();
    let mut i = 0u64;
    arm(
        "rlc.um_write_pull_ns",
        ns,
        time_arm(|| {
            i += 1;
            let _ = um.write_sdu(sdu(i));
            segs.clear();
            black_box(um.pull_into(&mut segs, 1_500));
        }),
    );
    let mut am_tx = AmTx::new(AmConfig::default());
    let mut am_rx = AmRx::new(AmConfig::default());
    let mut pdus = Vec::new();
    let mut delivered = Vec::new();
    let (mut i, mut now) = (0u64, Time::ZERO);
    arm(
        "rlc.am_write_pull_ack_ns",
        ns,
        time_arm(|| {
            i += 1;
            now += Dur::from_millis(1);
            let _ = am_tx.write_sdu(sdu(i));
            am_tx.pull_into(&mut pdus, 1_500, now);
            for pdu in pdus.drain(..) {
                if let Some(status) = am_rx.on_pdu_into(pdu, now, &mut delivered) {
                    am_tx.on_status(&status);
                }
            }
            delivered.clear();
        }),
    );

    // pdcp: 1 000 live five-tuples.
    let mut table = FlowTable::new(MlfqConfig::default());
    let tuples: Vec<FiveTuple> = (0..1_000)
        .map(|i| FiveTuple::simulated(i, (i % 16) as u16))
        .collect();
    for t in &tuples {
        table.observe(*t, 1500, Time::ZERO);
    }
    let mut i = 0usize;
    arm(
        "pdcp.observe_ns",
        ns,
        time_arm(|| {
            i = (i + 1) % tuples.len();
            black_box(table.observe(tuples[i], 1500, Time::ZERO));
        }),
    );

    // transport: one window emitted and acknowledged segment by
    // segment, reported per segment. The window sits at its cap after
    // the first few calls, so every timed call moves the same count.
    let mut tcp = TcpSender::new(TcpConfig::default(), u64::MAX / 2);
    let mut wire = Vec::new();
    let mut now = Time::ZERO;
    let per_window = time_arm(|| {
        now += Dur::from_millis(20);
        wire.clear();
        tcp.emit_into(now, &mut wire);
        for seg in &wire {
            tcp.on_ack(now, seg.seq + seg.len as u64);
        }
    });
    arm("transport.emit_ack_ns", ns, per_window / wire.len() as f64);

    // workload
    let capacity = Experiment::lte_default().capacity_bps();
    let mut flows = 0usize;
    let per_call = time_arm(|| {
        let mut gen = PoissonFlowGen::new(
            FlowSizeDist::LteCellular,
            0.6,
            capacity,
            USERS,
            Rng::new(42 ^ 0xA11CE),
        );
        flows = gen.take_until(Time::from_secs(20)).len();
    });
    arm("workload.flowgen_ns_per_flow", ns, per_call / flows as f64);

    // core
    let cdf = FlowSizeDist::LteCellular.cdf();
    arm(
        "core.optimize_thresholds_ms",
        ms,
        time_arm(|| {
            black_box(optimize_thresholds(&cdf, 4, 0.6));
        }),
    );

    // metrics: record 100 000 completions and summarise them.
    let mut rng = Rng::new(3);
    let records: Vec<(u64, Dur)> = (0..100_000)
        .map(|_| {
            (
                1 + rng.below(1_000_000),
                Dur::from_micros(1 + rng.below(5_000_000)),
            )
        })
        .collect();
    arm(
        "metrics.fct_report_ms",
        ms,
        time_arm(|| {
            let mut fct = FctCollector::new();
            for &(bytes, d) in &records {
                fct.record(bytes, d);
            }
            black_box(fct.report());
        }),
    );

    // ran
    for (name, kind) in [
        ("ran.cell_new_pf_ms", SchedulerKind::Pf),
        ("ran.cell_new_outran_ms", SchedulerKind::OutRan),
    ] {
        arm(
            name,
            ms,
            time_arm(|| {
                black_box(Cell::new(CellConfig::lte_default(USERS, kind, 42)));
            }),
        );
    }
    // In-memory snapshot and restore of a busy_cell cell at t = 10 s.
    let exp = Experiment::lte_default()
        .users(USERS)
        .load(0.6)
        .duration_secs(20)
        .scheduler(SchedulerKind::OutRan)
        .seed(42);
    let mut cell = exp.build_cell();
    cell.run_until(Time::from_secs(10));
    let meta = CheckpointMeta {
        argv: Vec::new(),
        sim_time: cell.now(),
        dense: false,
        n_cells: 1,
    };
    arm(
        "ran.snapshot_ms",
        ms,
        time_arm(|| {
            black_box(snapshot_cells(&meta, &[&cell]));
        }),
    );
    let file = snapshot_cells(&meta, &[&cell]);
    arm("ran.snapshot_bytes", 1.0, file.to_bytes().len() as f64);
    let mut target = exp.build_cell();
    arm(
        "ran.restore_ms",
        ms,
        time_arm(|| {
            restore_cell(&file, 0, &mut target).expect("restore");
        }),
    );

    out
}
