//! The coupled radio network: shared geometry, load-coupled
//! interference and deterministic A3 handover over many cells.
//!
//! [`crate::experiment`] runs one cell that owns its own geometry. A
//! [`Network`] owns the geometry of many cells in one co-channel
//! deployment:
//!
//! * **Shared geometry** — sites sit on a hex grid
//!   ([`outran_phy::geometry::hex_sites`]), each carrying
//!   `sectors_per_site` co-sited cells with 120°-spaced boresights and
//!   the 3GPP sector pattern
//!   ([`outran_phy::geometry::sector_gain_db`]). UEs move in *global*
//!   coordinates — site-anchored random walks for pedestrians, fixed
//!   vehicular corridors ([`outran_phy::geometry::CorridorWalk`]) — and
//!   see every cell through the same path-loss law the cell channel
//!   itself uses.
//! * **Load-coupled interference** — at every epoch barrier each cell
//!   publishes its PRB utilization (the diff of
//!   [`crate::cell::Cell::used_rbs_cum`], an X2 load exchange), and each
//!   UE's interference-plus-noise is recomputed as thermal noise plus
//!   every non-serving cell's received power scaled by that cell's load
//!   ([`outran_phy::geometry::iplusn_dbm`]). The result is pushed into
//!   the channel's cached SINR plane, so per-TTI kernels stay untouched.
//! * **A3 handover** — per-epoch RSRP measurement with hysteresis and a
//!   time-to-trigger counter; fired handovers execute *at the barrier*,
//!   sorted by `(source cell, UE id)`: detach (terminal flow abort + the
//!   RLF re-establishment path), PDCP flow-state transfer, and re-attach
//!   of every interrupted flow as a continuation keyed by its original
//!   five-tuple. Undelivered tails complete at the target; FCT is
//!   attributed to the *original* spawn via an origin chain that
//!   survives repeated handovers.
//!
//! Every inter-cell *decision* happens serially at the barrier in a
//! fixed order and draws nothing; what a decision costs a cell — the
//! channel attach of a slot a handover filled (the exact replay of the
//! TTIs it skipped) and the geometry pushes — is applied per cell through
//! the worker pool, as the cells' own epochs are. Cells share no mutable
//! state, so the merged report is byte-identical for any thread count.
//! Checkpoints extend the ORSN format with a `network` section (UE
//! registry, A3 timers, load vector, origin map) next to the usual
//! per-cell sections; resume is construct-then-overlay, bit-identical to
//! an uninterrupted run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use outran_faults::{FaultPlan, FaultStats, HandoverStats};
use outran_metrics::{FctCollector, FctReport};
use outran_phy::geometry::{self, CorridorWalk, NetGeometry};
use outran_phy::mobility::{Pos, RandomWalk};
use outran_phy::{ChannelConfig, Scenario};
use outran_simcore::snap::{
    write_atomic_with, LoadSnap, Snap, SnapEncoder, SnapError, SnapReader, SnapTrace, SnapWriter,
    SnapshotFile,
};
use outran_simcore::{snap_enum, snap_fields, Dur, Normal, Rng, Time};
use outran_workload::{FlowArrival, FlowSizeDist, PoissonFlowGen};

use crate::cell::{Cell, CellConfig, SchedulerKind};
use crate::checkpoint::CheckpointMeta;
use crate::experiment::{DRAIN, WARMUP};
use crate::pool::for_each_mut;
use crate::work::WorkCounters;

/// Epoch length: the cadence of the barrier at which load is exchanged,
/// mobility advances, A3 is evaluated and handovers execute; also the
/// granularity of the wall-time watchdog and of checkpoints.
const EPOCH: Dur = Dur(1_000_000_000);

/// A handover back to the previous serving cell within this many epochs
/// counts as a ping-pong.
const PING_PONG_WINDOW: u64 = 4;

/// A coupled multi-cell deployment (builder + runner).
#[derive(Debug, Clone)]
pub struct Network {
    /// RF scenario for every cell (carrier, numerology, path-loss law).
    pub scenario: Scenario,
    /// Cell sites on the hex grid (1 = just the centre site, 7 = one
    /// ring, 19 = the two-ring metro layout).
    pub n_sites: usize,
    /// Co-sited cells per site (1 = omni, 3 = classic 120° sectors).
    pub sectors_per_site: usize,
    /// Inter-site distance (m).
    pub isd_m: f64,
    /// UE slots provisioned per cell — the attach capacity. Handovers
    /// into a full cell are blocked (counted, not silently dropped).
    /// Headroom is cheap: an empty slot's fading and CQI loop are not
    /// stepped, and its channel state on the next attach is bit for bit
    /// what stepping it would have produced.
    pub slots_per_cell: usize,
    /// Network UEs (must fit in `n_sites · sectors_per_site ·
    /// slots_per_cell` slots, with headroom for handover churn).
    pub n_ues: usize,
    /// Fraction of UEs on vehicular corridors instead of pedestrian
    /// walks (drawn per UE from its own stream).
    pub corridor_frac: f64,
    /// Vehicular corridor speed (m/s).
    pub vehicle_speed_mps: f64,
    /// A3 hysteresis (dB): a neighbor must beat the serving cell by this
    /// margin before the time-to-trigger starts counting.
    pub hysteresis_db: f64,
    /// A3 time-to-trigger, in epochs the condition must hold.
    pub ttt_epochs: u32,
    /// MAC scheduler under test (every cell runs the same one).
    pub scheduler: SchedulerKind,
    /// Offered load per cell (the network generator targets
    /// `load · n_cells · per-cell capacity` in aggregate).
    pub load: f64,
    /// Flow-size distribution.
    pub dist: FlowSizeDist,
    /// Scripted fault plan applied to *every* cell (chaos runs). Each
    /// cell flattens the same timeline against its own UE slots.
    pub faults: FaultPlan,
    /// Arrival horizon; the run drains [`DRAIN`] beyond it. Flows whose
    /// origin spawn falls before [`WARMUP`] are left out of the report.
    pub duration: Time,
    /// Root seed; cell `c` runs with `seed + c`, UEs and arrivals fork
    /// their own streams.
    pub seed: u64,
    /// Worker threads to shard cells across between barriers (1 =
    /// serial). The report is byte-identical for every value.
    pub threads: usize,
    /// Wall-time watchdog: an epoch (cells + barrier) that takes longer
    /// than this to compute presumes the run wedged and aborts it after
    /// the barrier — a resumable checkpoint is written when a directory
    /// is configured, and the statistics so far are still reported. The
    /// wall clock never feeds a simulated quantity. `None` disables it.
    pub epoch_wall_limit: Option<std::time::Duration>,
    /// Periodic checkpointing interval in *simulated* time (rounded up
    /// to whole epochs). `None` disables periodic checkpoints.
    pub checkpoint_every: Option<Dur>,
    /// Directory for periodic and abort checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
    /// Canonical argv recorded in checkpoint metadata so `resume` can
    /// rebuild the configuration (the library never reads the process
    /// environment itself).
    pub argv: Vec<String>,
}

impl Network {
    /// The metro default: one hex ring of 3-sector sites, a mixed
    /// pedestrian/vehicular population, 3 dB / 2-epoch A3.
    pub fn metro(scenario: Scenario, scheduler: SchedulerKind, load: f64) -> Network {
        Network {
            scenario,
            n_sites: 7,
            sectors_per_site: 3,
            isd_m: 500.0,
            slots_per_cell: 8,
            n_ues: 96,
            corridor_frac: 0.25,
            vehicle_speed_mps: 15.0,
            hysteresis_db: 3.0,
            ttt_epochs: 2,
            scheduler,
            load,
            dist: FlowSizeDist::LteCellular,
            faults: FaultPlan::new(),
            duration: Time::from_secs(10),
            seed: 42,
            threads: 1,
            epoch_wall_limit: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            argv: Vec::new(),
        }
    }

    /// Total cells in the deployment. Panics when the product
    /// overflows `usize`: no such deployment can be built.
    #[expect(
        clippy::expect_used,
        reason = "a cell count past usize is a configuration no run can build"
    )]
    pub fn n_cells(&self) -> usize {
        self.n_sites
            .checked_mul(self.sectors_per_site)
            .expect("sites x sectors overflows usize")
    }

    /// The shared channel configuration, switched to external geometry.
    fn channel_config(&self) -> ChannelConfig {
        let mut ch = self.scenario.channel_config();
        ch.external_geometry = true;
        ch
    }

    /// Run the deployment to the end of its drain window.
    pub fn run(&self) -> NetworkRun {
        self.run_inspected(&mut |_, _| {})
    }

    /// [`Network::run`], calling `inspect(t, cells)` after each epoch's
    /// barrier — a probe for tests that read the cells as the run goes.
    #[doc(hidden)]
    pub fn run_inspected(&self, inspect: &mut dyn FnMut(Time, &[Cell])) -> NetworkRun {
        let st = self.build_state();
        self.run_state(st, inspect)
    }

    /// Resume a run from a checkpoint written by this configuration.
    /// Construct-then-overlay: the state is rebuilt from the
    /// configuration, then every `cell.<i>` section and the `network`
    /// section are overlaid. The continuation is bit-identical to the
    /// uninterrupted run.
    pub fn resume(&self, file: &SnapshotFile) -> Result<NetworkRun, SnapError> {
        let st = self.restore_state(file)?;
        Ok(self.run_state(st, &mut |_, _| {}))
    }

    /// This configuration's state with `file` overlaid: every cell
    /// section, then the `network` section.
    fn restore_state(&self, file: &SnapshotFile) -> Result<NetState, SnapError> {
        let mut st = self.build_state();
        for i in 0..st.cells.len() {
            crate::checkpoint::restore_cell(file, i, &mut st.cells[i])?;
        }
        let mut r = SnapReader::new(file.section("network")?);
        st.load_snap(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError::Malformed("trailing bytes in network section"));
        }
        Ok(st)
    }

    /// The field trace of `file`'s `network` section: the file is
    /// restored onto this configuration's state, whose `network` section
    /// a tracing writer writes again, byte for byte. A probe for tests
    /// that address the section's fields by path.
    #[doc(hidden)]
    pub fn network_section_trace(&self, file: &SnapshotFile) -> Result<SnapTrace, SnapError> {
        let section = file.section("network")?;
        let st = self.restore_state(file)?;
        let mut w = SnapWriter::tracing();
        st.snap(&mut w);
        let (bytes, trace) = w.into_traced();
        if bytes != section {
            return Err(SnapError::Malformed("network section does not write back"));
        }
        Ok(trace)
    }

    /// Build the full initial state: cells in external-geometry mode,
    /// the UE registry (placement, mobility, per-site shadowing), the
    /// precomputed arrival schedule, and the initial geometry push.
    fn build_state(&self) -> NetState {
        let n_cells = self.n_cells();
        assert!(self.n_sites >= 1 && self.sectors_per_site >= 1);
        assert!(
            n_cells
                .checked_mul(self.slots_per_cell)
                .is_none_or(|slots| self.n_ues <= slots),
            "{} UEs need more than {n_cells} cells x {} slots",
            self.n_ues,
            self.slots_per_cell
        );
        let geo = NetGeometry::hex(self.n_sites, self.isd_m);
        let chan = self.channel_config();

        let mut cfg = CellConfig::lte_default(self.slots_per_cell, self.scheduler, self.seed);
        cfg.channel = chan;
        cfg.faults = self.faults.clone();
        let cells = (0..n_cells)
            .map(|c| {
                Cell::new(CellConfig {
                    seed: self.seed + c as u64,
                    ..cfg.clone()
                })
            })
            .collect();

        // UE registry. Each UE forks its own stream and draws, in fixed
        // order: static per-site shadowing, the mobility-class coin, the
        // mobility model itself.
        let root = Rng::new(self.seed ^ 0x6E07);
        let shadow_dist = Normal::new(0.0, chan.shadowing_sd_db);
        let walker_radius = (self.isd_m * 0.6).max(chan.min_radius_m + 1.0);
        let mut ues: Vec<NetUe> = (0..self.n_ues)
            .map(|i| {
                let mut rng = root.fork(0x0E_0000 + i as u64);
                let shadow_site_db: Vec<f64> = (0..self.n_sites)
                    .map(|_| shadow_dist.sample(&mut rng))
                    .collect();
                let vehicular = self.n_sites >= 2 && rng.f64() < self.corridor_frac;
                let mobility = if vehicular {
                    let a = rng.below(self.n_sites as u64) as usize;
                    let b = (a + 1 + rng.below(self.n_sites as u64 - 1) as usize) % self.n_sites;
                    NetMobility::Corridor(CorridorWalk::new(
                        geo.site(a),
                        geo.site(b),
                        self.vehicle_speed_mps,
                        &mut rng,
                    ))
                } else {
                    let site = rng.below(self.n_sites as u64) as usize;
                    NetMobility::Walk {
                        site,
                        walk: RandomWalk::new(
                            walker_radius,
                            chan.min_radius_m,
                            chan.ue_speed_mps,
                            rng.fork(2),
                        ),
                    }
                };
                NetUe {
                    mobility,
                    shadow_site_db,
                    serving: 0,
                    slot: 0,
                    a3_target: None,
                    a3_count: 0,
                    prev_cell: None,
                    last_ho_epoch: 0,
                }
            })
            .collect();

        // Initial attach, in UE id order: strongest cell with a free
        // slot, lowest free slot index.
        let plan = BarrierPlan {
            rsrp: self.rsrp_table(&geo, &chan, &ues),
            attached: vec![Vec::new(); n_cells],
        };
        let mut slot_owner: Vec<Vec<Option<usize>>> =
            vec![vec![None; self.slots_per_cell]; n_cells];
        for (i, ue) in ues.iter_mut().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (c, slots) in slot_owner.iter().enumerate() {
                if !slots.iter().any(|s| s.is_none()) {
                    continue;
                }
                let r = plan.rsrp[i * n_cells + c];
                if best.map(|(b, _)| r > b).unwrap_or(true) {
                    best = Some((r, c));
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "n_ues <= cells*slots is validated at build entry, so some cell always has a free slot"
            )]
            let (_, c) = best.expect("attach capacity checked above");
            #[expect(
                clippy::unwrap_used,
                reason = "cell c was selected because this scan found a free slot two loops above"
            )]
            let slot = slot_owner[c].iter().position(|s| s.is_none()).unwrap();
            slot_owner[c][slot] = Some(i);
            ue.serving = c;
            ue.slot = slot;
        }

        // Arrival schedule: one global Poisson process over the whole
        // population, targeting `load` on every cell in aggregate.
        // Time-ordered and precomputed, so a checkpoint carries no
        // arrival state: the epoch says how far the cursor got.
        let per_cell_capacity = chan.nominal_capacity_bps();
        let mut gen = PoissonFlowGen::new(
            self.dist,
            self.load,
            per_cell_capacity * n_cells as f64,
            self.n_ues,
            Rng::new(self.seed ^ 0xC0105),
        );
        let arrivals = gen.take_until(self.duration);

        let mut st = NetState {
            cells,
            ues,
            slot_owner,
            loads: vec![0.0; n_cells],
            prev_rbs: vec![0; n_cells],
            arrivals,
            cursor: 0,
            completed: 0,
            origins: BTreeMap::new(),
            fct: FctCollector::new(),
            stats: HandoverStats::default(),
            epoch: 0,
            end: self.duration + DRAIN,
        };

        // Initial geometry: park every slot at the cell edge, then push
        // the real per-UE geometry (no neighbor loads yet, so I+N is the
        // noise floor) and re-prime the CQI reports — construction
        // measured them at a placeholder distance.
        for cell in &mut st.cells {
            for s in 0..self.slots_per_cell {
                cell.set_ue_geometry(s, self.isd_m, 0.0, chan.noise_dbm());
            }
        }
        self.barrier_apply(&geo, &chan, &mut st, &plan);
        for cell in &mut st.cells {
            cell.reprime_reports();
        }
        st.mark_slot_occupancy();
        st
    }

    /// RSRP (dBm) of every cell at every UE's position, row-major by UE:
    /// the one evaluation per (UE, cell) pair that attachment, A3 and the
    /// I+N sums of a barrier all read. Rows are filled through the worker
    /// pool in chunks; each entry is a pure function of its pair.
    fn rsrp_table(&self, geo: &NetGeometry, chan: &ChannelConfig, ues: &[NetUe]) -> Vec<f64> {
        /// Rows below which a chunk is not worth a thread of its own.
        const MIN_CHUNK_ROWS: usize = 64;
        let n_cells = self.n_cells();
        let rows = ues.len().div_ceil(self.threads.max(1)).max(MIN_CHUNK_ROWS);
        let mut table = vec![0.0; ues.len() * n_cells];
        let mut chunks: Vec<&mut [f64]> = table.chunks_mut(rows * n_cells).collect();
        for_each_mut(self.threads, &mut chunks, |k, chunk| {
            for (ue, row) in ues[k * rows..].iter().zip(chunk.chunks_mut(n_cells)) {
                let (pos, shadow) = (ue.pos(geo), &ue.shadow_site_db);
                rsrp_row(geo, chan, self.sectors_per_site, pos, shadow, row);
            }
        });
        table
    }

    /// The epoch barrier: the serial decisions, then their pooled
    /// per-cell application.
    fn barrier(
        &self,
        geo: &NetGeometry,
        chan: &ChannelConfig,
        st: &mut NetState,
        span: Dur,
        work: &mut WorkCounters,
    ) {
        let plan = self.barrier_decide(geo, chan, st, span);
        let (pushes, replayed) = self.barrier_apply(geo, chan, st, &plan);
        work.barrier_rsrp_evals += plan.rsrp.len() as u64;
        work.barrier_geometry_pushes += pushes;
        work.barrier_replayed_slot_steps += replayed;
    }

    /// The serial half of the barrier — the determinism anchor: drain
    /// completions, publish loads, advance mobility, evaluate A3 and
    /// execute handovers in `(source cell, UE)` order. Draws nothing and
    /// steps no channel: a slot a handover fills is only *noted* in the
    /// plan, and stays detached until [`Network::barrier_apply`].
    fn barrier_decide(
        &self,
        geo: &NetGeometry,
        chan: &ChannelConfig,
        st: &mut NetState,
        span: Dur,
    ) -> BarrierPlan {
        let n_cells = st.cells.len();

        // 1. Completions, in cell-index order, attributed to origins.
        for c in 0..n_cells {
            for d in st.cells[c].take_completions() {
                st.completed += 1;
                let (bytes, spawn, fct) = match st.origins.remove(&(c, d.id)) {
                    Some(o) => (o.bytes, o.spawn, (d.spawn + d.fct).since(o.spawn)),
                    None => (d.bytes, d.spawn, d.fct),
                };
                if spawn >= Time::ZERO + WARMUP {
                    st.fct.record(bytes, fct);
                }
            }
        }

        // 2. X2 load exchange: per-cell PRB utilization over the epoch.
        let tti = chan.radio.tti();
        let epoch_ttis = (span.as_nanos() / tti.as_nanos()).max(1);
        let rbs_per_tti = chan.radio.num_rbs() as u64;
        for (c, cell) in st.cells.iter().enumerate() {
            let cum = cell.used_rbs_cum();
            let delta = cum - st.prev_rbs[c];
            st.prev_rbs[c] = cum;
            st.loads[c] = (delta as f64 / (epoch_ttis * rbs_per_tti) as f64).clamp(0.0, 1.0);
        }

        // 3. Mobility, in UE id order; then every cell's RSRP at the new
        // positions, which do not move again before the next barrier.
        for ue in &mut st.ues {
            ue.advance(span, chan.mobility_step);
        }
        let mut plan = BarrierPlan {
            rsrp: self.rsrp_table(geo, chan, &st.ues),
            attached: vec![Vec::new(); n_cells],
        };

        // 4. A3 measurement, in UE id order.
        let mut requests: Vec<(usize, usize, usize)> = Vec::new();
        for (i, ue) in st.ues.iter_mut().enumerate() {
            let row = &plan.rsrp[i * n_cells..(i + 1) * n_cells];
            let mut best: Option<(f64, usize)> = None;
            for (c, &r) in row.iter().enumerate() {
                if c != ue.serving && best.map(|(b, _)| r > b).unwrap_or(true) {
                    best = Some((r, c));
                }
            }
            match best {
                Some((r, target)) if r > row[ue.serving] + self.hysteresis_db => {
                    if ue.a3_target == Some(target) {
                        ue.a3_count += 1;
                    } else {
                        ue.a3_target = Some(target);
                        ue.a3_count = 1;
                    }
                    if ue.a3_count >= self.ttt_epochs {
                        requests.push((ue.serving, i, target));
                    }
                }
                _ => {
                    ue.a3_target = None;
                    ue.a3_count = 0;
                }
            }
        }

        // 5. Handover execution at the barrier, sorted by (source cell,
        // UE id) — the deterministic order that makes threads=N replay
        // byte-identical to serial.
        requests.sort_unstable();
        for (src, uid, dst) in requests {
            st.stats.attempts += 1;
            let Some(dst_slot) = st.slot_owner[dst].iter().position(|s| s.is_none()) else {
                // Target full: blocked. Restart the time-to-trigger so a
                // persistent condition retries after another TTT.
                st.stats.blocked += 1;
                st.ues[uid].a3_target = None;
                st.ues[uid].a3_count = 0;
                continue;
            };
            let src_slot = st.ues[uid].slot;
            if !st.cells[src].ue_link_up(src_slot) {
                // The source link is in RLF while the handover executes:
                // the transfer still rides the re-establishment path, but
                // the event is surfaced as a handover failure mode.
                st.stats.rlf_failures += 1;
            }
            let export = st.cells[src].handover_detach(src_slot);
            st.slot_owner[src][src_slot] = None;
            let conts = st.cells[dst].handover_attach(dst_slot, &export);
            plan.attached[dst].push(dst_slot);
            st.stats.flows_transferred += export.flows.len() as u64;
            for (hf, &ni) in export.flows.iter().zip(&conts) {
                let origin = st
                    .origins
                    .remove(&(src, hf.src_flow))
                    .unwrap_or(FlowOrigin {
                        bytes: hf.size,
                        spawn: hf.spawn,
                    });
                st.origins.insert((dst, ni), origin);
            }
            st.slot_owner[dst][dst_slot] = Some(uid);
            let ue = &mut st.ues[uid];
            if ue.prev_cell == Some(dst) && st.epoch - ue.last_ho_epoch <= PING_PONG_WINDOW {
                st.stats.ping_pongs += 1;
            }
            st.stats.successes += 1;
            ue.prev_cell = Some(src);
            ue.last_ho_epoch = st.epoch;
            ue.serving = dst;
            ue.slot = dst_slot;
            ue.a3_target = None;
            ue.a3_count = 0;
        }
        plan
    }

    /// The pooled half of the barrier, one job per cell: attach the
    /// channel of every slot a handover filled, in request order (the
    /// exact replay of the TTIs the slot skipped while empty, under the
    /// geometry it was left with), then push each attached UE's
    /// serving-link geometry (distance, shadow + sector gain) and
    /// load-coupled I+N under the new loads and assignments. A job
    /// touches its own cell and reads the rest, so the pass leaves the
    /// same bytes on any number of threads. Returns the geometry pushes
    /// made and the slot steps replayed.
    fn barrier_apply(
        &self,
        geo: &NetGeometry,
        chan: &ChannelConfig,
        st: &mut NetState,
        plan: &BarrierPlan,
    ) -> (u64, u64) {
        let sectors = self.sectors_per_site;
        let (pushes, replayed) = (AtomicU64::new(0), AtomicU64::new(0));
        let NetState {
            cells,
            ues,
            slot_owner,
            loads,
            ..
        } = st;
        let n_cells = loads.len();
        for_each_mut(self.threads, cells, |c, cell| {
            let before = cell.work().replayed_slot_steps;
            for &slot in &plan.attached[c] {
                cell.set_slot_occupied(slot, true);
            }
            replayed.fetch_add(cell.work().replayed_slot_steps - before, Ordering::Relaxed);
            let site = c / sectors;
            let mut pushed = 0;
            for (slot, owner) in slot_owner[c].iter().enumerate() {
                let Some(i) = *owner else { continue };
                let ue = &ues[i];
                let pos = ue.pos(geo);
                let row = &plan.rsrp[i * n_cells..(i + 1) * n_cells];
                let ipn = geometry::iplusn_dbm(
                    chan.noise_dbm(),
                    (0..n_cells)
                        .filter(|&o| o != c && loads[o] > 0.0)
                        .map(|o| (loads[o], row[o])),
                );
                cell.set_ue_geometry(
                    slot,
                    geo.dist_to_site(site, pos),
                    ue.shadow_site_db[site] + serving_gain(geo, sectors, c, pos),
                    ipn,
                );
                pushed += 1;
            }
            pushes.fetch_add(pushed, Ordering::Relaxed);
        });
        (pushes.into_inner(), replayed.into_inner())
    }

    /// Stream a full network checkpoint (`meta` + `cell.<i>` sections +
    /// the `network` section) to `path` atomically.
    fn write_checkpoint(&self, st: &mut NetState, t: Time, path: &Path) -> Result<(), SnapError> {
        for_each_mut(self.threads, &mut st.cells, |_, cell| cell.sync_channel());
        let meta = CheckpointMeta {
            argv: self.argv.clone(),
            sim_time: t,
            dense: false,
            n_cells: st.cells.len(),
        };
        let refs: Vec<&Cell> = st.cells.iter().collect();
        write_atomic_with(path, |f| {
            let mut enc = SnapEncoder::new(f)?;
            crate::checkpoint::encode_cells(&mut enc, &meta, &refs)?;
            enc.section("network", |w| st.snap(w))
        })
    }

    /// One epoch between two barriers: inject its arrivals into each UE's
    /// *current* serving cell, then run every cell to `t_next` through
    /// the worker pool. `conn` carries the global arrival index so
    /// five-tuples are collision-free network-wide (continuations keep
    /// their original tuple).
    fn advance_cells(&self, st: &mut NetState, t_next: Time) {
        while st.cursor < st.arrivals.len() && st.arrivals[st.cursor].at <= t_next {
            let a: FlowArrival = st.arrivals[st.cursor];
            let ue = &st.ues[a.ue];
            st.cells[ue.serving].schedule_flow(a.at, ue.slot, a.bytes, Some(st.cursor as u64));
            st.cursor += 1;
        }
        for_each_mut(self.threads, &mut st.cells, |_, cell| {
            cell.run_until(t_next)
        });
        st.epoch += 1;
    }

    /// The epoch loop over an initial (or restored) state.
    fn run_state(&self, mut st: NetState, inspect: &mut dyn FnMut(Time, &[Cell])) -> NetworkRun {
        let geo = NetGeometry::hex(self.n_sites, self.isd_m);
        let chan = self.channel_config();
        let end = st.end;
        let mut work = WorkCounters::default();
        let ckpt_epochs = self
            .checkpoint_every
            .map(|d| d.as_nanos().div_ceil(EPOCH.as_nanos()).max(1));
        let mut t = Time(EPOCH.as_nanos() * st.epoch);
        let mut aborted_at = None;
        let mut checkpoint = None;
        while t < end {
            let t_next = (t + EPOCH).min(end);
            // The watchdog gates only *whether the run continues*, never
            // any simulated quantity.
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-time watchdog, measurement only; never feeds sim state"
            )]
            let epoch_start = std::time::Instant::now();
            self.advance_cells(&mut st, t_next);
            let span = t_next.since(t);
            t = t_next;
            self.barrier(&geo, &chan, &mut st, span, &mut work);
            inspect(t, &st.cells);
            let over_limit = self
                .epoch_wall_limit
                .map(|limit| epoch_start.elapsed() > limit)
                .unwrap_or(false);
            if over_limit {
                eprintln!("warning: network epoch to {t} exceeded the wall limit; aborting");
                aborted_at = Some(t);
                if let Some(dir) = &self.checkpoint_dir {
                    let secs = t.as_nanos() / 1_000_000_000;
                    let path = dir.join(format!("metro-abort-{secs}s.orsn"));
                    match self.write_checkpoint(&mut st, t, &path) {
                        Ok(()) => checkpoint = Some(path),
                        Err(e) => {
                            eprintln!("warning: abort checkpoint {} failed: {e}", path.display())
                        }
                    }
                }
                break;
            }
            if let (Some(every), Some(dir)) = (ckpt_epochs, &self.checkpoint_dir) {
                if st.epoch.is_multiple_of(every) && t < end {
                    let secs = t.as_nanos() / 1_000_000_000;
                    let path = dir.join(format!("metro-ckpt-{secs}s.orsn"));
                    if let Err(e) = self.write_checkpoint(&mut st, t, &path) {
                        eprintln!("warning: checkpoint {} failed: {e}", path.display());
                    }
                }
            }
        }

        let per_cell_completed = st.cells.iter().map(|c| c.n_completed()).collect();
        let mut fault_stats = FaultStats::default();
        let mut total_violations = 0;
        for cell in &mut st.cells {
            cell.audit_now();
            total_violations += cell.total_violations();
            fault_stats.merge(&cell.fault_stats());
            work.merge(&cell.work());
        }
        NetworkRun {
            report: NetworkReport {
                scheduler: self.scheduler.label(),
                fct: st.fct.report(),
                handover: st.stats,
                fault_stats,
                completed: st.completed,
                offered: st.cursor,
                total_violations,
                per_cell_completed,
            },
            aborted_at,
            checkpoint,
            work,
        }
    }
}

/// Boresight angle of cell `c` (sector `c % sectors`).
fn boresight(sectors: usize, c: usize) -> f64 {
    (c % sectors) as f64 * std::f64::consts::TAU / sectors as f64
}

/// Bearing (radians) of global position `pos` from site `site`.
fn bearing(geo: &NetGeometry, site: usize, pos: Pos) -> f64 {
    let sp = geo.site(site);
    (pos.y - sp.y).atan2(pos.x - sp.x)
}

/// Sector gain of cell `c` toward global position `pos` (0 dB for omni
/// deployments).
fn serving_gain(geo: &NetGeometry, sectors: usize, c: usize, pos: Pos) -> f64 {
    if sectors <= 1 {
        return 0.0;
    }
    geometry::sector_gain_db(boresight(sectors, c), bearing(geo, c / sectors, pos))
}

/// RSRP (dBm) of every cell at `pos` through the UE's static per-site
/// shadowing, into `row` (one entry per cell) — the quantity both
/// attachment and A3 rank on, built from the *same* path-loss law the
/// serving channel uses. Distance, `tx − pathloss` and bearing are a
/// site's, computed once for its co-sited sectors; each entry is
/// `(tx − pathloss) + (shadow + sector gain)`.
fn rsrp_row(
    geo: &NetGeometry,
    chan: &ChannelConfig,
    sectors: usize,
    pos: Pos,
    shadow_site_db: &[f64],
    row: &mut [f64],
) {
    for (site, cells) in row.chunks_mut(sectors).enumerate() {
        let pl = geometry::pathloss_db(
            chan.pathloss_ref_db,
            chan.pathloss_exp,
            geo.dist_to_site(site, pos),
        );
        let rx = chan.tx_power_dbm - pl;
        // Omni deployments take no bearing: their sector gain is 0 dB.
        let toward = (sectors > 1).then(|| bearing(geo, site, pos));
        for (c, r) in (site * sectors..).zip(cells) {
            let gain = toward.map_or(0.0, |b| geometry::sector_gain_db(boresight(sectors, c), b));
            *r = rx + (shadow_site_db[site] + gain);
        }
    }
}

/// A UE's mobility model in global coordinates.
#[derive(Debug, Clone)]
enum NetMobility {
    /// Pedestrian: a site-anchored random walk (the walk is relative to
    /// its anchor site's position).
    Walk {
        /// Anchor site index.
        site: usize,
        /// The site-relative walker.
        walk: RandomWalk,
    },
    /// Vehicular: ping-pong travel along a fixed inter-site corridor.
    Corridor(CorridorWalk),
}

/// One network-scoped UE: identity that survives cell crossings.
#[derive(Debug, Clone)]
struct NetUe {
    mobility: NetMobility,
    /// Static log-normal shadowing toward each *site* (shared by its
    /// co-sited sectors, as physics demands).
    shadow_site_db: Vec<f64>,
    /// Serving cell index.
    serving: usize,
    /// Slot inside the serving cell.
    slot: usize,
    /// A3 candidate being timed, if any.
    a3_target: Option<usize>,
    /// Consecutive epochs the A3 condition has held for `a3_target`.
    a3_count: u32,
    /// Previous serving cell (ping-pong detection).
    prev_cell: Option<usize>,
    /// Epoch of the last executed handover.
    last_ho_epoch: u64,
}

impl NetUe {
    /// Current global position.
    fn pos(&self, geo: &NetGeometry) -> Pos {
        match &self.mobility {
            NetMobility::Walk { site, walk } => {
                let s = geo.site(*site);
                let p = walk.pos();
                Pos {
                    x: s.x + p.x,
                    y: s.y + p.y,
                }
            }
            NetMobility::Corridor(c) => c.pos(),
        }
    }

    /// Advance mobility across one epoch. Walkers take the same
    /// `mobility_step`-sized steps the single-cell channel takes, so a
    /// UE behaves identically whether the cell or the network owns it.
    fn advance(&mut self, span: Dur, step: Dur) {
        match &mut self.mobility {
            NetMobility::Walk { walk, .. } => {
                walk.advance_steps(step, span.as_nanos() / step.as_nanos());
            }
            NetMobility::Corridor(c) => c.advance(span),
        }
    }
}

snap_enum! { NetMobility, "unknown mobility tag" {
    0 => Walk { site in index(sites), walk },
    1 => Corridor(c),
} }

// Overlay-shaped so the per-site shadowing vector keeps the configured
// site count (`rsrp_cell` indexes it by site).
snap_fields! {
    overlay NetUe {
        mobility, shadow_site_db: fixed, serving in index(cells), slot in index(slots),
        a3_target in index(cells), a3_count, prev_cell in index(cells), last_ho_epoch,
    }
    spaces { sites: shadow_site_db.len() }
}

/// Where a (possibly multiply-handed-over) flow originally came from:
/// the attribution record for network-level FCT.
#[derive(Debug, Clone, Copy)]
struct FlowOrigin {
    /// Original flow size (bytes).
    bytes: u64,
    /// Original server-side spawn instant.
    spawn: Time,
}

/// The full mutable state of a network run. Cells snapshot through the
/// usual `cell.<i>` sections; everything here lands in the `network`
/// section. The arrival schedule and slot-owner table are *derived*
/// state (pure functions of the configuration / the UE registry) and are
/// rebuilt on restore rather than serialized.
struct NetState {
    cells: Vec<Cell>,
    ues: Vec<NetUe>,
    /// Per cell, per slot: the network UE occupying it.
    slot_owner: Vec<Vec<Option<usize>>>,
    /// Last epoch's published PRB utilization per cell.
    loads: Vec<f64>,
    /// `used_rbs_cum` at the previous barrier, per cell (not serialized:
    /// a checkpoint follows a barrier, so it is each cell's own).
    prev_rbs: Vec<u64>,
    /// Precomputed arrival schedule (not serialized; rebuilt on
    /// construct).
    arrivals: Vec<FlowArrival>,
    /// Next arrival to inject (not serialized: the arrivals up to the
    /// restored epoch's instant are the ones injected).
    cursor: usize,
    /// Network flows fully completed (continuation chains count once).
    completed: usize,
    /// `(cell, flow index)` → origin, for continuation flows only.
    origins: BTreeMap<(usize, usize), FlowOrigin>,
    /// Network-level FCT statistics (origin-attributed, warmup-filtered).
    fct: FctCollector,
    /// Handover counters.
    stats: HandoverStats,
    /// Completed epochs.
    epoch: u64,
    /// End of the drain window (not serialized; the configuration's).
    end: Time,
}

impl NetState {
    /// The attach slots of each cell.
    fn slots_per_cell(&self) -> usize {
        self.slot_owner.first().map_or(0, Vec::len)
    }

    /// Rebuild what a checkpoint does not carry: the arrival cursor, the
    /// PRB counts at the last barrier and the slot-owner table. Refused:
    /// an epoch past the configured run, a cell whose clock is not the
    /// epoch's instant, and two UEs in one slot.
    fn after_load(&mut self) -> Result<(), SnapError> {
        if self.epoch > self.end.as_nanos().div_ceil(EPOCH.as_nanos()) {
            return Err(SnapError::Malformed("epoch beyond the configured horizon"));
        }
        let t = Time(EPOCH.as_nanos() * self.epoch).min(self.end);
        if self.cells.iter().any(|c| c.now() != t) {
            return Err(SnapError::Malformed("a cell's clock is not the epoch's"));
        }
        self.cursor = self.arrivals.partition_point(|a| a.at <= t);
        for (prev, cell) in self.prev_rbs.iter_mut().zip(&self.cells) {
            *prev = cell.used_rbs_cum();
        }
        for slots in &mut self.slot_owner {
            slots.fill(None);
        }
        for (i, ue) in self.ues.iter().enumerate() {
            if self.slot_owner[ue.serving][ue.slot].is_some() {
                return Err(SnapError::Malformed("two UEs share one slot"));
            }
            self.slot_owner[ue.serving][ue.slot] = Some(i);
        }
        self.mark_slot_occupancy();
        Ok(())
    }

    /// Tell every cell's channel which of its slots `slot_owner` leaves
    /// empty (derived state, like the table itself).
    fn mark_slot_occupancy(&mut self) {
        for (cell, slots) in self.cells.iter_mut().zip(&self.slot_owner) {
            for (slot, owner) in slots.iter().enumerate() {
                cell.set_slot_occupied(slot, owner.is_some());
            }
        }
    }
}

snap_fields! { FlowOrigin { bytes, spawn } }

// The `network` section. Cells snapshot through their own `cell.<i>`
// sections; the arrival schedule is a pure function of the
// configuration, and its cursor of the epoch; the PRB counts at the
// last barrier are the cells'; the slot-owner table is rebuilt from the
// UE registry. Every per-UE and per-cell vector keeps its configured
// length.
snap_fields! {
    overlay NetState { epoch, completed, ues: fixed, loads: fixed, origins, fct, stats }
    rebuilt { cells, slot_owner, prev_rbs, arrivals, cursor, end }
    spaces { cells: cells.len(), slots: slots_per_cell() }
    then NetState::after_load
}

/// Results of one network run.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Origin-attributed FCT summary (a flow interrupted by handover is
    /// one flow, timed spawn→final-delivery across cells).
    pub fct: FctReport,
    /// Handover health counters.
    pub handover: HandoverStats,
    /// Fault and recovery counters merged across cells (handover
    /// re-establishments land in `reestablishments`).
    pub fault_stats: FaultStats,
    /// Network flows fully completed.
    pub completed: usize,
    /// Flow arrivals injected.
    pub offered: usize,
    /// Invariant violations across all cells (end-of-run audit included).
    pub total_violations: u64,
    /// Per-cell completed-flow counts (continuations count where they
    /// finished).
    pub per_cell_completed: Vec<usize>,
}

/// Outcome of [`Network::run`]: the report plus what the watchdog did.
#[derive(Debug)]
pub struct NetworkRun {
    /// The merged, origin-attributed report.
    pub report: NetworkReport,
    /// Simulation instant the watchdog aborted at, or `None` for a full
    /// run.
    pub aborted_at: Option<Time>,
    /// Path of the final checkpoint written on abort, when requested.
    pub checkpoint: Option<PathBuf>,
    /// Work done, summed over cells, plus the epoch barriers' own.
    pub work: WorkCounters,
}

/// What the serial half of a barrier hands its pooled half.
struct BarrierPlan {
    /// [`Network::rsrp_table`] at the UEs' current positions.
    rsrp: Vec<f64>,
    /// Per cell, the slots a handover filled at this barrier, in request
    /// order: their channels are still detached.
    attached: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut net = Network::metro(Scenario::LtePedestrian, SchedulerKind::Pf, 0.25);
        net.n_sites = 2;
        net.isd_m = 350.0;
        net.slots_per_cell = 8;
        net.n_ues = 12;
        net.corridor_frac = 0.5;
        net.vehicle_speed_mps = 30.0;
        net.duration = Time::from_secs(5);
        net.seed = 7;
        net
    }

    #[test]
    fn metro_runs_and_hands_over() {
        let out = tiny().run();
        let r = out.report;
        assert!(out.aborted_at.is_none());
        assert!(r.fct.count > 5, "completed={}", r.fct.count);
        assert!(r.handover.successes > 0, "handover={:?}", r.handover);
        assert_eq!(r.total_violations, 0);
        assert!(r.completed <= r.offered);
    }

    #[test]
    fn report_is_deterministic() {
        let a = tiny().run();
        let b = tiny().run();
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    /// Whole-file digest of the 8 s checkpoint of [`packed`], recorded at
    /// 9b1b68f (`0x23ff_efb4_4ae9_53a6`), where `handover_attach`
    /// replayed a slot's skipped TTIs inside the serial `(source cell,
    /// UE id)` loop. Re-recorded once, for format v2 (flow records plus
    /// the open flows' endpoints): with the ingress stage cut out of
    /// `Cell`'s layout on both trees and the header version made equal,
    /// 49e7801 and the v2 code write this file with one digest,
    /// `0xe2c9_29ec_6f51_1ae5`. Re-recorded once more, for format v3
    /// (v2: `0xfd48_4970_8a7a_2295`): a copy of 338897a with only the v3
    /// layout edits applied writes `0xbae6_4118_99a2_1987`. Re-recorded
    /// when the order audit came to hold open flows only: a copy of
    /// 9e6cdc8 that drops every other flow's order history before it
    /// writes the file writes `0xd2e7_e89f_882c_aff9` (see
    /// `checkpoint_resume.rs`). Re-recorded once more, for format v4
    /// (PF and MT take OutRAN's scheduler layout): a copy of 91e0766
    /// with only the v4 layout edits applied writes
    /// `0xd29e_67e3_da8f_7822`. Re-recorded once more, for format v5
    /// (derived values leave the file): a copy of 16d16a7 with only the
    /// v5 layout edits applied writes this digest.
    const PIN_PACKED_FILE: u64 = 0x24e4_fded_841a_3bda;

    /// Nine cells of four slots with three slots free in all, and fast
    /// corridor UEs under a hair-trigger A3: most handovers are blocked,
    /// and the ones that succeed land in slots vacated moments ago.
    fn packed() -> Network {
        let mut net = tiny();
        net.n_sites = 3;
        net.isd_m = 250.0;
        net.slots_per_cell = 4;
        net.n_ues = 33;
        net.corridor_frac = 0.9;
        net.vehicle_speed_mps = 50.0;
        net.hysteresis_db = 1.0;
        net.ttt_epochs = 1;
        net.duration = Time::from_secs(8);
        net.seed = 22;
        net
    }

    #[test]
    fn serial_half_steps_no_channel_and_the_split_keeps_the_serial_order_exact() {
        let mut net = packed();
        net.threads = 3;
        let (geo, chan) = (
            NetGeometry::hex(net.n_sites, net.isd_m),
            net.channel_config(),
        );
        let mut st = net.build_state();
        let replayed =
            |st: &NetState| -> u64 { st.cells.iter().map(|c| c.work().replayed_slot_steps).sum() };
        let (mut refilled, mut attach_then_detach, mut in_apply) = (0, 0, 0);
        for e in 1..=8 {
            net.advance_cells(&mut st, Time::from_secs(e));
            let owners = st.slot_owner.clone();
            let before = replayed(&st);
            let plan = net.barrier_decide(&geo, &chan, &mut st, EPOCH);
            assert_eq!(replayed(&st), before, "the serial half replayed a slot");
            for (c, slots) in plan.attached.iter().enumerate() {
                let vacated = |s: usize| owners[c][s].is_some_and(|u| st.ues[u].serving != c);
                for &s in slots {
                    // The slot was vacated and filled inside this barrier.
                    refilled += vacated(s) as u32;
                    // The request that filled it sorted before a request
                    // that vacated another slot of the same cell.
                    let from = owners.iter().position(|o| o.contains(&st.slot_owner[c][s]));
                    attach_then_detach += (from < Some(c)
                        && (0..owners[c].len()).any(|o| o != s && vacated(o)))
                        as u32;
                }
            }
            in_apply += net.barrier_apply(&geo, &chan, &mut st, &plan).1;
        }
        assert!(
            refilled > 0 && attach_then_detach > 0,
            "{refilled} {attach_then_detach}"
        );
        assert!(
            in_apply > 0,
            "no handover landed in a slot that had skipped TTIs"
        );

        let dir = std::env::temp_dir().join(format!("outran-net-packed-{}", std::process::id()));
        let path = dir.join("metro-ckpt-8s.orsn");
        net.write_checkpoint(&mut st, Time::from_secs(8), &path)
            .unwrap();
        let file = SnapshotFile::read_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(file.digest(), PIN_PACKED_FILE);
    }

    #[test]
    fn attach_fills_best_cells_first() {
        let net = tiny();
        let st = net.build_state();
        // Every UE occupies a unique (cell, slot) pair.
        let mut seen = std::collections::BTreeSet::new();
        for ue in &st.ues {
            assert!(seen.insert((ue.serving, ue.slot)));
            assert!(ue.serving < net.n_cells());
            assert!(ue.slot < net.slots_per_cell);
        }
    }

    /// The per-site RSRP row is the per-cell law `tx − pathloss + shadow`
    /// with the cell's own sector gain, bit for bit, omni and sectorized.
    #[test]
    fn rsrp_row_shares_site_terms_exactly() {
        let chan = ChannelConfig::lte_default();
        let geo = NetGeometry::hex(7, 500.0);
        let mut rng = Rng::new(11);
        for sectors in [1, 3] {
            let mut row = vec![0.0; 7 * sectors];
            for _ in 0..200 {
                let pos = Pos {
                    x: rng.range_f64(-1200.0, 1200.0),
                    y: rng.range_f64(-1200.0, 1200.0),
                };
                let shadow: Vec<f64> = (0..7).map(|_| rng.range_f64(-12.0, 12.0)).collect();
                rsrp_row(&geo, &chan, sectors, pos, &shadow, &mut row);
                for (c, &got) in row.iter().enumerate() {
                    let site = c / sectors;
                    let pl = geometry::pathloss_db(
                        chan.pathloss_ref_db,
                        chan.pathloss_exp,
                        geo.dist_to_site(site, pos),
                    );
                    let want = chan.tx_power_dbm - pl
                        + (shadow[site] + serving_gain(&geo, sectors, c, pos));
                    assert_eq!(got.to_bits(), want.to_bits(), "{sectors} sectors, cell {c}");
                }
            }
        }
    }
}
