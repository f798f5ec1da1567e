//! The composed per-cell channel model.
//!
//! [`CellChannel`] holds the per-UE channel state in a structure-of-arrays
//! layout (one contiguous plane per quantity, indexed by dense UE index)
//! and exposes exactly the interface a MAC scheduler consumes:
//!
//! * `reported_rate_per_rb(ue, rb)` — the achievable rate `r_{u,b}(t)` of
//!   eq. (1), derived from the **reported** (periodic, possibly stale) CQI;
//! * `actual_sinr_db(ue, rb)` — ground truth at transmission time, feeding
//!   the BLER model for link-layer losses;
//! * `advance_tti()` — evolves fading/mobility/shadowing and refreshes CQI
//!   reports on their period, for every *live* slot; a slot the network
//!   layer detached (no UE in it) is caught up later, exactly (see "Live
//!   and lagging slots").
//!
//! SINR composition (all in dB):
//!
//! ```text
//! SINR = tx_power − pathloss(d) − noise(+NF) + shadowing + fading·scale
//! ```
//!
//! with log-distance path loss, AR(1) log-normal shadowing decorrelating
//! over distance, and the Rayleigh subband fading of [`crate::fading`]
//! (the same AR(1) tap recursion, batched here over flat tap planes).
//! `fading·scale` lets scenarios dial channel volatility: the paper's LTE
//! traces are volatile (SRJF collapses, §6.2) while its 5G-LENA traces are
//! "more stable and steady" (SRJF ideal, Appendix B) — we reproduce both
//! regimes with the same machinery.
//!
//! ## Data layout & bit-identity
//!
//! The hot per-TTI state lives in flat `Vec`s keyed by `ue * n_subbands +
//! sb` (tap planes, CQI planes) or by `ue` (large-scale terms, RNG
//! streams, reporting clocks). The large-scale part of the SINR —
//! `((tx − pathloss) − noise) + shadow` — is cached per UE and refreshed
//! only when mobility or shadowing actually changes it, so the per-TTI
//! loops are pure array passes. Every cached value is a pure function of
//! the state it is derived from, every floating-point expression keeps
//! the historical association order, and every RNG stream is walked in
//! the historical draw order, so results are bit-identical to the
//! previous per-UE-struct implementation (locked in by the golden-trace
//! digest tests in `outran-ran`).
//!
//! The fading coefficients are not planes: every UE of a cell shares
//! them. The AR(1) coefficient ρ is one `f64` that `new` computes from
//! the configuration's Doppler and TTI, and the wideband mixing weight
//! is the configuration's `flatness`, read in place. Neither travels in
//! a snapshot: a restore builds the channel from the same configuration.
//!
//! ## Live and lagging slots
//!
//! A network cell is provisioned with more UE slots than it has UEs. In
//! external-geometry mode the network layer tells the channel which
//! slots are empty ([`CellChannel::detach_slot`] /
//! [`CellChannel::attach_slot`]); an own-geometry channel keeps every
//! slot live. A slot is **live** — stepped by every advance — unless it
//! is detached with both CQI fault flags clear; such a slot **lags**:
//! advances skip it, and while at least one slot lags each advance call
//! is appended to a run-length-encoded log (one run per stretch of
//! consecutive one-TTI advances, a new run only after an idle gap, at
//! most `LAG_LOG_MAX_RUNS` runs — on overflow every lagging slot is
//! caught up and the log restarts).
//!
//! The contract: a lagging slot's state, once [`CellChannel::sync`] has
//! run, is bit for bit what stepping it live would have produced — tap
//! values, both RNG stream positions, reported and pending rows, the
//! report version, the reporting clocks. It holds because there is **one
//! step function**: `fade_slots` and `report_slot` are the only code that
//! moves a slot's state, the live passes call them for every live slot,
//! and `sync` calls the same pair once per logged call, in log order,
//! with the logged `(now, k)`. A slot's streams are its own, so stepping
//! it later draws what stepping it then would have drawn. Two things
//! keep the replay free of history it cannot see: a slot with a CQI
//! fault flag set stays live (so the shared fault counters and the
//! corruption draws never lag, and a replay only ever runs with both
//! flags clear), and every `&mut self` entry that reads or writes a
//! slot's state — attach, a flag *change*, a geometry or I+N push,
//! re-priming, the outcome draws — syncs the slot first (a skipped
//! measurement must see the geometry of its own TTI). `&self` accessors
//! cannot sync and see a lagging slot as of its last step. None of this
//! is serialized: a snapshot writes a lagging slot as if caught up, and a
//! restored channel starts with every slot at the restored TTI index.
//!
//! ## CQI classification
//!
//! A CQI measurement needs `10·log10` of each sub-band's fading power
//! only to learn which of 15 thresholds the SINR clears. The host's
//! `log10` and an early-exit threshold scan both branch on their
//! (random) argument, so the measurement (`measure_into_pending`) computes
//! the SINR through the branch-free `ln_positive` instead and counts the
//! thresholds at or below it. That SINR is an approximation of the one
//! the reference expression ([`CellChannel::actual_sinr_db_subband`],
//! then [`CqiTable::sinr_to_cqi`]) produces: the two differ by the
//! logarithms' rounding, far below `cqi_guard_db`. A CQI can therefore
//! differ only where the fast SINR lies within the guard of a
//! threshold, and whenever any sub-band of a row does, the whole row is
//! redone with the reference expression. The stored row is the
//! reference row, byte for byte, on every input; which path produced it
//! is visible only in [`CellChannel::work`].
//!
//! The pass that calls it keeps a wake time — the earliest reporting
//! clock of any live slot — and returns at once before it: with every
//! UE on the same 5-TTI period and 2-TTI delay that is three TTIs of
//! five.

use std::f64::consts::FRAC_1_SQRT_2;

use outran_simcore::math::ln_positive;
use outran_simcore::{Dur, Normal, Rng, Time};

use crate::bler::BlerModel;
use crate::cqi::{classify_guarded, Cqi, CqiTable};
use crate::mobility::RandomWalk;
use crate::numerology::RadioConfig;

/// Static configuration of the cell channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Frame/bandwidth configuration.
    pub radio: RadioConfig,
    /// MCS table in use.
    pub table: CqiTable,
    /// Number of frequency subbands with independent fading.
    pub n_subbands: usize,
    /// Downlink carrier frequency (Hz) — sets the Doppler spread.
    pub carrier_hz: f64,
    /// Transmit power per RB (dBm).
    pub tx_power_dbm: f64,
    /// UE receiver noise figure (dB).
    pub noise_figure_db: f64,
    /// Log-distance path-loss exponent.
    pub pathloss_exp: f64,
    /// Path loss at the 1 m reference distance (dB).
    pub pathloss_ref_db: f64,
    /// Log-normal shadowing standard deviation (dB).
    pub shadowing_sd_db: f64,
    /// Shadowing decorrelation distance (m).
    pub shadowing_corr_m: f64,
    /// Fading amplitude scale: 1.0 = full Rayleigh, 0.0 = AWGN-like.
    pub fading_scale: f64,
    /// Mixing weight of flat (wideband) fading vs per-subband fading.
    pub flatness: f64,
    /// Cell radius (m) and minimum UE distance (m).
    pub radius_m: f64,
    /// Minimum UE distance from the antenna (m).
    pub min_radius_m: f64,
    /// UE speed (m/s); 0 = static.
    pub ue_speed_mps: f64,
    /// CQI reporting period, in TTIs.
    pub cqi_period_ttis: u32,
    /// Age of the report when the scheduler uses it, in TTIs.
    pub cqi_delay_ttis: u32,
    /// SINR ceiling (dB) modelling interference/EVM floors.
    pub sinr_cap_db: f64,
    /// BLER truth model.
    pub bler: BlerModel,
    /// Mobility update period.
    pub mobility_step: Dur,
    /// External geometry mode: a network layer owns UE positions,
    /// shadowing and interference and pushes them through
    /// [`CellChannel::set_ue_geometry`]; the cell's own walkers stay
    /// frozen. `false` (the default) keeps the historical single-cell
    /// behaviour bit for bit.
    pub external_geometry: bool,
}

impl ChannelConfig {
    /// Nominal cell capacity in bit/s under the peak MCS, derated for
    /// typical channel conditions — the anchor for the load→arrival-rate
    /// conversion of every runner.
    pub fn nominal_capacity_bps(&self) -> f64 {
        // The paper calibrates load against the cell's nominal capacity
        // (97 Mbps for the 20 MHz testbed), which real mixed-CQI cells
        // cannot actually sustain — that is why its high-"load" points
        // (0.7/0.8) behave like saturation (Fig 15's PF blow-up). The
        // mild derate keeps the same semantics.
        self.radio.peak_rate_bps(self.table.peak_efficiency()) * 0.85
    }

    /// Sensible LTE macro-cell defaults (pedestrian scenario, §3/§6.2).
    pub fn lte_default() -> ChannelConfig {
        ChannelConfig {
            radio: RadioConfig::lte20(),
            table: CqiTable::Qam256,
            n_subbands: 8,
            carrier_hz: 1.805e9, // Band 3 DL as in the NS-3 LTE setting
            tx_power_dbm: 23.0,
            noise_figure_db: 7.0,
            // Calibrated so the mean-SINR spread across the 10–200 m cell
            // matches Fig 2b (≈2–45 dB, Medium/Good/Excellent, no UE in
            // outage).
            pathloss_exp: 3.5,
            pathloss_ref_db: 46.0,
            shadowing_sd_db: 4.0,
            shadowing_corr_m: 37.0,
            fading_scale: 1.0,
            flatness: 0.3,
            radius_m: 200.0,
            min_radius_m: 10.0,
            ue_speed_mps: 1.4,
            cqi_period_ttis: 5,
            cqi_delay_ttis: 2,
            sinr_cap_db: 45.0,
            bler: BlerModel::default(),
            mobility_step: Dur::from_millis(100),
            external_geometry: false,
        }
    }

    /// Thermal noise power over one RB bandwidth, plus noise figure (dBm).
    pub fn noise_dbm(&self) -> f64 {
        let bw_hz = self.radio.numerology.subchannel_khz() as f64 * 1e3;
        -174.0 + 10.0 * bw_hz.log10() + self.noise_figure_db
    }

    /// Maximum Doppler shift for the configured speed/carrier (Hz).
    pub fn doppler_hz(&self) -> f64 {
        self.ue_speed_mps * self.carrier_hz / 299_792_458.0
    }
}

/// The full cell channel: configuration + per-UE state planes.
///
/// Per-(UE, subband) planes are indexed `ue * n_subbands + sb`; per-UE
/// planes by the dense UE index. The RNG streams are exactly those of the
/// historical per-UE-struct layout: one general-purpose stream per UE
/// (shadowing innovations, CQI corruption, BLER draws), one mobility
/// stream inside each [`RandomWalk`], and one fading stream per UE.
#[derive(Debug, Clone)]
pub struct CellChannel {
    cfg: ChannelConfig,
    n_ues: usize,
    n_subbands: usize,
    rbs_per_subband: u16,
    tti_index: u64,

    // Large-scale state (cold path: changes on mobility steps only).
    walkers: Vec<RandomWalk>,
    shadow_db: Vec<f64>,
    dist_since_shadow: Vec<f64>,
    /// Cached `((tx − pathloss) − noise) + shadow` per UE — the exact
    /// large-scale prefix of the SINR composition.
    sinr_const_db: Vec<f64>,
    /// Per-UE interference-plus-noise power (dBm). Initialised to the
    /// thermal `cfg.noise_dbm()` (an isolated cell sees no interference); a
    /// network layer overwrites it at epoch boundaries with the
    /// load-coupled neighbor interference, which then flows into the
    /// cached `sinr_const_db` plane so the dense kernels stay branch-free.
    iplusn_dbm: Vec<f64>,
    /// Per-UE serving-site distance (m) pushed by the network layer; only
    /// read when `ext_geometry` is set.
    ext_dist_m: Vec<f64>,
    /// Whether geometry (distance / shadowing / I+N) is owned externally
    /// (see [`ChannelConfig::external_geometry`]).
    ext_geometry: bool,

    // Small-scale fading tap planes (hot path: advanced every TTI).
    fade_sb_re: Vec<f64>,
    fade_sb_im: Vec<f64>,
    fade_wb_re: Vec<f64>,
    fade_wb_im: Vec<f64>,
    /// The AR(1) coefficient every UE's taps share, a function of the
    /// configuration's Doppler and TTI: set by `new`, never written
    /// after, never persisted.
    fade_rho: f64,
    fade_rng: Vec<Rng>,
    /// Scratch of [`CellChannel::fade_slots`], room for every slot's
    /// `2 · (n_subbands + 1)` innovations: their uniforms (`fade_radius`,
    /// `fade_angle`), then the Gaussians (`fade_z`). Overwritten by each
    /// call, never persisted.
    fade_radius: Vec<f64>,
    fade_angle: Vec<f64>,
    fade_z: Vec<f64>,
    /// Scratch list of the slots [`CellChannel::advance_fading`] steps,
    /// likewise.
    fade_live: Vec<usize>,
    /// Scratch for one UE's fast per-subband SINRs in
    /// [`CellChannel::measure_into_pending`], likewise.
    sinr_z: Vec<f64>,

    // CQI reporting planes.
    /// Reported CQI per (UE, subband) — what the scheduler sees.
    reported: Vec<Cqi>,
    /// Pending (measured, undelivered) CQI per (UE, subband).
    pending: Vec<Cqi>,
    /// Version stamp of each UE's reported row: bumped on every delivered
    /// report, so the MAC can cache per-UE metric rows and revalidate in
    /// O(1).
    reported_rev: Vec<u64>,
    /// Whether `pending` holds a measurement not yet delivered (guards
    /// against re-delivering the same report every TTI).
    pending_fresh: Vec<bool>,
    pending_due: Vec<Time>,
    next_report_at: Vec<Time>,
    ue_rng: Vec<Rng>,
    /// Achievable bits per RB per TTI for each CQI value (pure function
    /// of the MCS table and numerology).
    rate_per_cqi: [f64; 16],

    // Fault injection.
    cqi_frozen: Vec<bool>,
    cqi_corrupt: Vec<bool>,
    /// Reports suppressed by freeze windows (diagnostics).
    pub cqi_frozen_reports: u64,
    /// Reports replaced by corruption windows (diagnostics).
    pub cqi_corrupted_reports: u64,

    // Empty-slot laziness (module docs, "Live and lagging slots"). All
    // of it is derived state: none of it is serialized.
    /// Slots the network layer marked as holding no UE.
    detached: Vec<bool>,
    /// Slots [`CellChannel::advance_span`] steps: every slot that is not
    /// detached, plus detached ones with a CQI fault flag set.
    live: Vec<bool>,
    /// For a slot that is not live, the TTI index it is stepped through.
    slot_tti: Vec<u64>,
    /// How many slots are not live.
    n_lagging: usize,
    /// The advance calls since the oldest lagging slot's `slot_tti`,
    /// run-length-encoded; empty while every slot is live.
    lag_log: Vec<LagRun>,
    /// No live slot has a report to deliver or a measurement to take
    /// before this instant, so [`CellChannel::reporting_pass`] returns at
    /// once until then. Derived, never serialized; `Time::ZERO` ("look")
    /// after anything but the pass itself touched a live slot's clocks
    /// (`refresh_live`, which every flag change, attach and restore goes
    /// through, and `reprime_reports`).
    report_wake: Time,
    /// Work counters (see [`CellChannel::work`]).
    work: ChannelWork,
}

outran_simcore::counters! {
    /// Deterministic work a [`CellChannel`] has done so far. Not
    /// serialized, so a resumed channel counts from the restore.
    pub struct ChannelWork {
        /// Gaussians drawn by the fading step, live and replayed.
        pub fading_draws: u64,
        /// Slot steps made by advance calls: the live slots of each call,
        /// summed. Each step draws `2 · (n_subbands + 1)` Gaussians.
        pub live_slot_steps: u64,
        /// Slot steps replayed by [`CellChannel::sync`], for a slot that
        /// was not live at the time.
        pub replayed_slot_steps: u64,
        /// (UE, subband) CQIs stored from the log-free classification.
        pub cqi_fast: u64,
        /// (UE, subband) CQIs redone through the host's `log10`, because
        /// a sub-band of the row sat inside the guard band of a threshold.
        pub cqi_exact: u64,
    }
}

/// `count` consecutive advance calls a lagging slot has not seen yet:
/// `advance_span(now, k)` starting at TTI index `from`, then `count − 1`
/// one-TTI advances at `now + i · tti`. An active stretch of any length
/// is one run; only an idle gap (`k > 1`) starts the next.
#[derive(Debug, Clone, Copy)]
struct LagRun {
    from: u64,
    now: Time,
    k: u64,
    count: u64,
}

impl LagRun {
    /// TTI index after the run's last call.
    fn end(&self) -> u64 {
        self.from + self.k + self.count - 1
    }
}

/// Runs the lag log holds before every lagging slot is caught up and
/// the log restarts. A run is one active stretch between two idle gaps:
/// a loaded 21-cell metro run logs 5–42 of them per cell in 14 s.
const LAG_LOG_MAX_RUNS: usize = 128;

impl CellChannel {
    /// Create a channel with `n_ues` UEs placed per the config.
    pub fn new(cfg: ChannelConfig, n_ues: usize, root_rng: &Rng) -> CellChannel {
        let n_rbs = cfg.radio.num_rbs();
        let n_subbands = cfg.n_subbands.min(n_rbs as usize).max(1);
        let rbs_per_subband = n_rbs.div_ceil(n_subbands as u16);
        let rho = if cfg.doppler_hz() <= 0.0 {
            1.0
        } else {
            // Clarke's rule of thumb: T_c ≈ 0.423 / f_d (see crate::fading).
            let coherence_s = 0.423 / cfg.doppler_hz();
            (-cfg.radio.tti().as_secs_f64() / coherence_s).exp()
        };
        let g = Normal::new(0.0, FRAC_1_SQRT_2);

        let mut ch = CellChannel {
            cfg,
            n_ues,
            n_subbands,
            rbs_per_subband,
            tti_index: 0,
            walkers: Vec::with_capacity(n_ues),
            shadow_db: Vec::with_capacity(n_ues),
            dist_since_shadow: vec![0.0; n_ues],
            sinr_const_db: vec![0.0; n_ues],
            iplusn_dbm: vec![cfg.noise_dbm(); n_ues],
            ext_dist_m: vec![0.0; n_ues],
            ext_geometry: cfg.external_geometry,
            fade_sb_re: Vec::with_capacity(n_ues * n_subbands),
            fade_sb_im: Vec::with_capacity(n_ues * n_subbands),
            fade_wb_re: Vec::with_capacity(n_ues),
            fade_wb_im: Vec::with_capacity(n_ues),
            fade_rho: rho,
            fade_rng: Vec::with_capacity(n_ues),
            fade_radius: vec![0.0; n_ues * 2 * (n_subbands + 1)],
            fade_angle: vec![0.0; n_ues * 2 * (n_subbands + 1)],
            fade_z: vec![0.0; n_ues * 2 * (n_subbands + 1)],
            fade_live: Vec::with_capacity(n_ues),
            sinr_z: vec![0.0; n_subbands],
            reported: vec![Cqi(0); n_ues * n_subbands],
            pending: vec![Cqi(0); n_ues * n_subbands],
            reported_rev: vec![0; n_ues],
            pending_fresh: vec![false; n_ues],
            pending_due: vec![Time::ZERO; n_ues],
            next_report_at: vec![Time::ZERO; n_ues],
            ue_rng: Vec::with_capacity(n_ues),
            rate_per_cqi: rate_lut(&cfg),
            cqi_frozen: vec![false; n_ues],
            cqi_corrupt: vec![false; n_ues],
            cqi_frozen_reports: 0,
            cqi_corrupted_reports: 0,
            detached: vec![false; n_ues],
            live: vec![true; n_ues],
            slot_tti: vec![0; n_ues],
            n_lagging: 0,
            lag_log: Vec::with_capacity(LAG_LOG_MAX_RUNS),
            report_wake: Time::ZERO,
            work: ChannelWork::default(),
        };

        for i in 0..n_ues {
            // Historical per-UE stream layout: general stream forked off
            // the root, walker and fading streams forked off that one.
            let mut rng = root_rng.fork(0x9999_0000 + i as u64);
            let walker = RandomWalk::new(
                cfg.radius_m,
                cfg.min_radius_m,
                cfg.ue_speed_mps,
                rng.fork(1),
            );
            // Initial taps: subband taps in index order, then the
            // wideband tap, each drawing re before im (Tap::new order).
            let mut frng = rng.fork(2);
            for _ in 0..n_subbands {
                ch.fade_sb_re.push(g.sample(&mut frng));
                ch.fade_sb_im.push(g.sample(&mut frng));
            }
            ch.fade_wb_re.push(g.sample(&mut frng));
            ch.fade_wb_im.push(g.sample(&mut frng));
            ch.fade_rng.push(frng);
            let shadow_db = Normal::new(0.0, cfg.shadowing_sd_db).sample(&mut rng);
            ch.walkers.push(walker);
            ch.shadow_db.push(shadow_db);
            ch.ue_rng.push(rng);
            ch.refresh_large_scale(i);
        }
        // Prime reports so the first TTI already has usable CQI.
        for u in 0..n_ues {
            ch.measure_into_pending(u);
            let base = u * n_subbands;
            ch.reported[base..base + n_subbands]
                .copy_from_slice(&ch.pending[base..base + n_subbands]);
            ch.reported_rev[u] = 1;
        }
        ch
    }

    /// Configuration in use.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Number of attached UEs.
    pub fn n_ues(&self) -> usize {
        self.n_ues
    }

    /// Number of RBs in the bandwidth.
    pub fn n_rbs(&self) -> u16 {
        self.cfg.radio.num_rbs()
    }

    /// Subband index carrying resource block `rb`.
    pub fn subband_of_rb(&self, rb: u16) -> usize {
        ((rb / self.rbs_per_subband) as usize).min(self.cfg.n_subbands - 1)
    }

    fn pathloss_db(&self, dist_m: f64) -> f64 {
        crate::geometry::pathloss_db(self.cfg.pathloss_ref_db, self.cfg.pathloss_exp, dist_m)
    }

    /// Recompute the cached large-scale SINR terms for `ue` (call after
    /// any mobility, shadowing or interference change).
    ///
    /// The `− iplusn_dbm[ue]` term replaces the historical `− noise_dbm`
    /// scalar with the *same expression shape*; the plane is initialised
    /// to exactly `noise_dbm`, so an isolated cell computes bit-identical
    /// SINR to the pre-network implementation.
    fn refresh_large_scale(&mut self, ue: usize) {
        let dist = if self.ext_geometry {
            self.ext_dist_m[ue]
        } else {
            self.walkers[ue].pos().dist_origin()
        };
        let pl = self.pathloss_db(dist);
        self.sinr_const_db[ue] =
            self.cfg.tx_power_dbm - pl - self.iplusn_dbm[ue] + self.shadow_db[ue];
    }

    /// Instantaneous fading power gain (linear) for `(ue, sb)` — the
    /// [`crate::fading::FadingProcess::gain_linear`] composition over the
    /// flat tap planes.
    fn fading_gain_linear(&self, ue: usize, sb: usize) -> f64 {
        let i = ue * self.n_subbands + sb;
        let s = self.fade_sb_re[i] * self.fade_sb_re[i] + self.fade_sb_im[i] * self.fade_sb_im[i];
        let w =
            self.fade_wb_re[ue] * self.fade_wb_re[ue] + self.fade_wb_im[ue] * self.fade_wb_im[ue];
        self.cfg.flatness * w + (1.0 - self.cfg.flatness) * s
    }

    /// Instantaneous fading gain in dB for `(ue, sb)`.
    fn fading_gain_db(&self, ue: usize, sb: usize) -> f64 {
        10.0 * self.fading_gain_linear(ue, sb).max(1e-12).log10()
    }

    /// Ground-truth SINR (dB) of `ue` on subband `sb` right now.
    pub fn actual_sinr_db_subband(&self, ue: usize, sb: usize) -> f64 {
        let fading = self.fading_gain_db(ue, sb) * self.cfg.fading_scale;
        let sinr = self.sinr_const_db[ue] + fading;
        sinr.min(self.cfg.sinr_cap_db)
    }

    /// Ground-truth SINR (dB) of `ue` on RB `rb` right now.
    pub fn actual_sinr_db(&self, ue: usize, rb: u16) -> f64 {
        self.actual_sinr_db_subband(ue, self.subband_of_rb(rb))
    }

    /// Mean (distance + shadowing only) SINR of a UE — the Fig 2b quantity.
    pub fn mean_sinr_db(&self, ue: usize) -> f64 {
        self.sinr_const_db[ue].min(self.cfg.sinr_cap_db)
    }

    /// Measure the current CQI of every subband of `ue` into its pending
    /// row: what [`CellChannel::measure_row_exact`] would store, byte
    /// for byte, usually without calling the host's `log10` (see "CQI
    /// classification" in the module docs).
    fn measure_into_pending(&mut self, ue: usize) {
        let n_sb = self.n_subbands;
        let base = ue * n_sb;
        let w =
            self.fade_wb_re[ue] * self.fade_wb_re[ue] + self.fade_wb_im[ue] * self.fade_wb_im[ue];
        let flat = self.cfg.flatness;
        let sinr_const = self.sinr_const_db[ue];
        let scale = self.cfg.fading_scale;
        let cap = self.cfg.sinr_cap_db;
        let guard = cqi_guard_db(scale);
        let taps = self.fade_sb_re[base..base + n_sb]
            .iter()
            .zip(&self.fade_sb_im[base..base + n_sb]);
        // Two loops, not one: the first is call- and branch-free
        // arithmetic the compiler keeps in vector registers, which it
        // gives up on once the threshold count sits in the same body.
        debug_assert_eq!(self.sinr_z.len(), n_sb);
        let mut uncertain = false;
        for ((re, im), sinr) in taps.zip(&mut self.sinr_z) {
            // The same linear power `fading_gain_db` takes the log of.
            let gain = (flat * w + (1.0 - flat) * (re * re + im * im)).max(1e-12);
            // `ln_positive` takes finite input only; an infinite power
            // (a tap restored from a corrupt checkpoint) goes the exact way.
            uncertain |= gain == f64::INFINITY;
            *sinr = fast_sinr_db(sinr_const, gain.min(f64::MAX), scale, cap);
        }
        for (&sinr, cqi) in self.sinr_z.iter().zip(&mut self.pending[base..base + n_sb]) {
            let near;
            (*cqi, near) = classify_guarded(sinr, guard);
            uncertain |= near;
        }
        if uncertain {
            self.measure_row_exact(ue);
            self.work.cqi_exact += n_sb as u64;
        } else {
            self.work.cqi_fast += n_sb as u64;
        }
    }

    /// The reference measurement: the ground-truth SINR of each subband
    /// through the host's `log10`, mapped by the table.
    fn measure_row_exact(&mut self, ue: usize) {
        let base = ue * self.n_subbands;
        for sb in 0..self.n_subbands {
            let sinr = self.actual_sinr_db_subband(ue, sb);
            self.pending[base + sb] = self.cfg.table.sinr_to_cqi(sinr);
        }
    }

    /// CQI the scheduler currently believes for `ue` on subband `sb`.
    pub fn reported_cqi_subband(&self, ue: usize, sb: usize) -> Cqi {
        self.reported[ue * self.n_subbands + sb]
    }

    /// Version stamp of `ue`'s reported CQI vector: two equal stamps
    /// guarantee identical reported rates on every subband, letting the
    /// MAC revalidate cached metric rows without touching the CQIs.
    pub fn report_version(&self, ue: usize) -> u64 {
        self.reported_rev[ue]
    }

    /// CQI the scheduler currently believes for `ue` on RB `rb`.
    pub fn reported_cqi(&self, ue: usize, rb: u16) -> Cqi {
        self.reported_cqi_subband(ue, self.subband_of_rb(rb))
    }

    /// Achievable bits in one RB over one TTI for `ue` on `rb`, per the
    /// reported CQI — the `r_{u,b}(t)` of eq. (1) expressed in bits/TTI.
    pub fn reported_rate_per_rb(&self, ue: usize, rb: u16) -> f64 {
        let cqi = self.reported_cqi(ue, rb);
        self.rate_per_cqi[cqi.0 as usize]
    }

    /// Same as [`CellChannel::reported_rate_per_rb`] but per subband
    /// (cheaper for the scheduler's inner loop).
    pub fn reported_rate_per_rb_subband(&self, ue: usize, sb: usize) -> f64 {
        let cqi = self.reported_cqi_subband(ue, sb);
        self.rate_per_cqi[cqi.0 as usize]
    }

    /// Fill `out` (length ≥ number of subbands) with `ue`'s reported
    /// achievable rates per subband — the bulk form of
    /// [`CellChannel::reported_rate_per_rb_subband`] for the MAC's flat
    /// rate-matrix refresh.
    pub fn fill_reported_rates(&self, ue: usize, out: &mut [f64]) {
        let base = ue * self.n_subbands;
        for (sb, r) in out.iter_mut().enumerate().take(self.n_subbands) {
            *r = self.rate_per_cqi[self.reported[base + sb].0 as usize];
        }
    }

    /// Draw the success/failure of a transport block sent to `ue` across
    /// subband `sb` at the MCS implied by the reported CQI.
    pub fn transmission_succeeds(&mut self, ue: usize, sb: usize) -> bool {
        self.transmission_succeeds_with_gain(ue, sb, 0.0)
    }

    /// Batched form of [`CellChannel::transmission_succeeds`] for one
    /// UE's fresh transport blocks: for every subband whose scheduled
    /// bits reach `min_bits`, draw the air-interface outcome into
    /// `out[sb]`, ascending. The per-UE terms (wideband tap power,
    /// flatness, large-scale SINR, RNG) are hoisted out of the subband
    /// loop; draw order and results are identical to calling
    /// [`CellChannel::transmission_succeeds`] per qualifying subband in
    /// order. Below-threshold subbands draw nothing and read `false`.
    pub fn fresh_outcomes(
        &mut self,
        ue: usize,
        bits_per_sb: &[f64],
        min_bits: f64,
        out: &mut [bool],
    ) {
        self.sync(ue);
        let n_sb = self.n_subbands;
        debug_assert!(bits_per_sb.len() >= n_sb && out.len() >= n_sb);
        let base = ue * n_sb;
        let sb_re = &self.fade_sb_re[base..base + n_sb];
        let sb_im = &self.fade_sb_im[base..base + n_sb];
        let reported = &self.reported[base..base + n_sb];
        let w =
            self.fade_wb_re[ue] * self.fade_wb_re[ue] + self.fade_wb_im[ue] * self.fade_wb_im[ue];
        let flat = self.cfg.flatness;
        let sinr_const = self.sinr_const_db[ue];
        let cap = self.cfg.sinr_cap_db;
        let scale = self.cfg.fading_scale;
        let bler = self.cfg.bler;
        let table = self.cfg.table;
        let rng = &mut self.ue_rng[ue];
        for sb in 0..n_sb {
            out[sb] = false;
            if bits_per_sb[sb] < min_bits {
                continue;
            }
            let s = sb_re[sb] * sb_re[sb] + sb_im[sb] * sb_im[sb];
            let gain_db = 10.0 * (flat * w + (1.0 - flat) * s).max(1e-12).log10();
            let actual = (sinr_const + gain_db * scale).min(cap);
            let p_err = bler.error_prob(table, reported[sb], actual);
            out[sb] = !rng.chance(p_err);
        }
    }

    /// Like [`CellChannel::transmission_succeeds`], with an extra
    /// effective-SINR gain in dB (HARQ chase combining).
    pub fn transmission_succeeds_with_gain(&mut self, ue: usize, sb: usize, gain_db: f64) -> bool {
        self.sync(ue);
        let cqi = self.reported[ue * self.n_subbands + sb];
        let actual = self.actual_sinr_db_subband(ue, sb) + gain_db;
        let p_err = self.cfg.bler.error_prob(self.cfg.table, cqi, actual);
        !self.ue_rng[ue].chance(p_err)
    }

    /// Advance the channel by one TTI: fading always, mobility/shadowing on
    /// their period, CQI reporting per the configured period and delay.
    pub fn advance_tti(&mut self, now: Time) {
        self.advance_span(now, 1);
    }

    /// Advance the channel to the TTI grid point `now`, composing every
    /// TTI since the previous advance into one distribution-preserving
    /// jump (see DESIGN.md "Virtual-time skipping"). A one-TTI gap is
    /// bitwise-identical to [`CellChannel::advance_tti`]; a no-op when
    /// the channel is already at (or past) `now`.
    pub fn advance_to(&mut self, now: Time) {
        let tti = self.cfg.radio.tti();
        let target = now.as_nanos() / tti.as_nanos();
        if target > self.tti_index {
            self.advance_span(now, target - self.tti_index);
        }
    }

    /// Advance all per-UE processes by `k` TTIs ending at `now`.
    ///
    /// Fading takes one composed AR(1) jump (`ρᵏ`), mobility takes one
    /// composed walk covering every crossed mobility period, and the CQI
    /// reporting loop runs once at `now` — identical draw sequence
    /// whether a gap is skipped here or never existed.
    ///
    /// The three concerns run as three array passes. Splitting the old
    /// per-UE loop this way is bit-identical because each pass walks a
    /// disjoint RNG stream set per UE (fading stream / walker stream /
    /// general stream), and within every single stream the draw order is
    /// unchanged (for the shared general stream: shadowing innovations in
    /// the mobility pass still precede that UE's corruption draws in the
    /// reporting pass).
    ///
    /// Only live slots are stepped. While any slot lags, the call is
    /// logged first, so [`CellChannel::sync`] can put that slot through
    /// the same [`CellChannel::fade_slots`] / [`CellChannel::report_slot`]
    /// pair later — per slot, the two orders are the same order.
    fn advance_span(&mut self, now: Time, k: u64) {
        debug_assert!(k > 0, "advance_span by zero TTIs");
        if self.n_lagging > 0 {
            self.log_call(now, k);
        }
        let from = self.tti_index;
        self.tti_index += k;
        let tti = self.cfg.radio.tti();
        let mobility_every = (self.cfg.mobility_step.as_nanos() / tti.as_nanos()).max(1);
        let crossings = self.tti_index / mobility_every - from / mobility_every;

        self.work.live_slot_steps += (self.n_ues - self.n_lagging) as u64;
        self.advance_fading(k);
        // In external-geometry mode the network layer owns positions and
        // shadowing (pushed at epoch boundaries); the per-cell walkers
        // stay frozen and the UE streams draw no shadowing innovations.
        if crossings > 0 && !self.ext_geometry {
            self.advance_mobility(crossings);
        }
        self.reporting_pass(now, tti);
    }

    /// Fading advance of every live slot, as one [`CellChannel::fade_slots`]
    /// call.
    fn advance_fading(&mut self, k: u64) {
        let mut live = std::mem::take(&mut self.fade_live);
        live.clear();
        live.extend((0..self.n_ues).filter(|&ue| self.live[ue]));
        self.fade_slots(&live, k);
        self.fade_live = live;
    }

    /// The `k`-TTI fading step of every slot in `slots` — the only code
    /// that moves a tap. The live pass calls it with every live slot,
    /// [`CellChannel::sync`] with one.
    ///
    /// Three array passes: each slot's uniforms from its own stream into
    /// the cell-wide scratch, one Box–Muller transform over all of them,
    /// one AR(1) pass over the tap planes. A slot's innovations are the
    /// ones [`Normal::fill`] on its stream alone would produce, bit for
    /// bit, so which slots share a call never moves a value; the one long
    /// transform is what lets wide vector units pay (DESIGN.md "Gaussian
    /// kernels").
    fn fade_slots(&mut self, slots: &[usize], k: u64) {
        // A static channel (ρ ≥ 1) neither draws nor moves.
        if self.fade_rho >= 1.0 {
            return;
        }
        // Per slot, in stream order: sub-band j's re is z[2j] and its im
        // z[2j + 1], for j ascending; the wideband pair sits last, at
        // z[2·n_sb].
        let per_slot = 2 * (self.n_subbands + 1);
        let n = slots.len() * per_slot;
        for (&ue, at) in slots.iter().zip((0..n).step_by(per_slot)) {
            Normal::uniforms(
                &mut self.fade_rng[ue],
                &mut self.fade_radius[at..at + per_slot],
                &mut self.fade_angle[at..at + per_slot],
            );
        }
        Normal::new(0.0, FRAC_1_SQRT_2).transform(
            &self.fade_radius[..n],
            &self.fade_angle[..n],
            &mut self.fade_z[..n],
        );
        self.work.fading_draws += n as u64;
        let n_sb = self.n_subbands;
        // k-step AR(1) composition: coefficient ρᵏ, one draw pair per tap
        // (k == 1 keeps ρ itself, matching the historical single-step
        // path bit for bit).
        let rho_k = if k == 1 {
            self.fade_rho
        } else {
            self.fade_rho.powi(k.min(i32::MAX as u64) as i32)
        };
        let w = (1.0 - rho_k * rho_k).sqrt();
        for (&ue, z) in slots.iter().zip(self.fade_z[..n].chunks_exact(per_slot)) {
            let (sb_z, wb_z) = z.split_at(2 * n_sb);
            let sb = ue * n_sb..(ue + 1) * n_sb;
            let taps = self.fade_sb_re[sb.clone()]
                .iter_mut()
                .zip(&mut self.fade_sb_im[sb]);
            for ((re, im), z) in taps.zip(sb_z.chunks_exact(2)) {
                *re = rho_k * *re + w * z[0];
                *im = rho_k * *im + w * z[1];
            }
            self.fade_wb_re[ue] = rho_k * self.fade_wb_re[ue] + w * wb_z[0];
            self.fade_wb_im[ue] = rho_k * self.fade_wb_im[ue] + w * wb_z[1];
        }
    }

    /// Composed mobility + shadowing pass over all UEs, refreshing the
    /// cached large-scale SINR terms for every UE that moved.
    fn advance_mobility(&mut self, crossings: u64) {
        for ue in 0..self.n_ues {
            let before = self.walkers[ue].pos();
            // Step-by-step (not one composed jump) so heading changes
            // consume the whole elapsed span: idle skips and dense
            // stepping agree on walker statistics (see
            // `RandomWalk::advance_steps`).
            self.walkers[ue].advance_steps(self.cfg.mobility_step, crossings);
            let after = self.walkers[ue].pos();
            let moved = ((after.x - before.x).powi(2) + (after.y - before.y).powi(2)).sqrt();
            self.dist_since_shadow[ue] += moved;
            // Shadowing evolves once the UE crossed a correlation step.
            if self.dist_since_shadow[ue] >= self.cfg.shadowing_corr_m / 4.0 {
                let rho = (-self.dist_since_shadow[ue] / self.cfg.shadowing_corr_m).exp();
                let innovation =
                    Normal::new(0.0, self.cfg.shadowing_sd_db).sample(&mut self.ue_rng[ue]);
                self.shadow_db[ue] =
                    rho * self.shadow_db[ue] + (1.0 - rho * rho).sqrt() * innovation;
                self.dist_since_shadow[ue] = 0.0;
            }
            self.refresh_large_scale(ue);
        }
    }

    /// CQI reporting pass over the live slots: deliver aged pending
    /// reports, take new measurements on the reporting period, honour
    /// fault windows. A pass before `report_wake` would find every
    /// condition of [`CellChannel::report_slot`] false on every live
    /// slot, so it is not made.
    fn reporting_pass(&mut self, now: Time, tti: Dur) {
        if now < self.report_wake {
            return;
        }
        let mut wake = Time(u64::MAX);
        for ue in 0..self.n_ues {
            if self.live[ue] {
                self.report_slot(ue, now, tti);
                wake = wake.min(self.next_report_at[ue]);
                // A frozen slot delivers nothing, whatever is pending.
                if self.pending_fresh[ue] && !self.cqi_frozen[ue] {
                    wake = wake.min(self.pending_due[ue]);
                }
            }
        }
        self.report_wake = wake;
    }

    /// One slot's turn of the CQI reporting loop at `now` — the only
    /// code that moves a report, a reporting clock or a fault counter.
    #[inline]
    fn report_slot(&mut self, ue: usize, now: Time, tti: Dur) {
        // Freeze fault: the reporting loop stalls — no pending
        // delivery, no new measurement. The scheduler keeps acting on
        // the last delivered report while the channel drifts.
        if self.cqi_frozen[ue] {
            if self.next_report_at[ue] <= now {
                self.cqi_frozen_reports += 1;
                self.next_report_at[ue] = now + tti.mul(self.cfg.cqi_period_ttis as u64);
            }
            return;
        }
        // Deliver a pending report that has aged past the delay —
        // once per measurement (the fresh flag stops the old
        // per-TTI re-clone of an already-delivered report).
        if self.pending_fresh[ue] && self.pending_due[ue] <= now {
            let base = ue * self.n_subbands;
            for i in base..base + self.n_subbands {
                std::mem::swap(&mut self.reported[i], &mut self.pending[i]);
            }
            self.pending_fresh[ue] = false;
            self.reported_rev[ue] += 1;
        }
        // Take a new measurement on the reporting period.
        if self.next_report_at[ue] <= now {
            if self.cqi_corrupt[ue] {
                // Corruption fault: the report is garbage, drawn from
                // the UE's own stream so runs stay deterministic.
                self.cqi_corrupted_reports += 1;
                let base = ue * self.n_subbands;
                for sb in 0..self.n_subbands {
                    self.pending[base + sb] = Cqi(self.ue_rng[ue].index(16) as u8);
                }
            } else {
                self.measure_into_pending(ue);
            }
            self.pending_fresh[ue] = true;
            self.pending_due[ue] = now + tti.mul(self.cfg.cqi_delay_ttis as u64);
            self.next_report_at[ue] = now + tti.mul(self.cfg.cqi_period_ttis as u64);
        }
    }

    /// Mark slot `ue` as holding no UE (the network layer calls this when
    /// a UE hands over out of the slot and for every slot the initial
    /// attach leaves empty). In external-geometry mode, unless a CQI fault
    /// flag is set on it, the slot stops being stepped and lags until
    /// something needs it; a channel that owns its geometry keeps every
    /// slot live (its mobility pass shares the slot's general stream).
    pub fn detach_slot(&mut self, ue: usize) {
        self.detached[ue] = true;
        self.refresh_live(ue);
    }

    /// Mark slot `ue` as occupied again: replay the advances it missed
    /// ([`CellChannel::sync`]) and step it with the others from now on.
    pub fn attach_slot(&mut self, ue: usize) {
        self.detached[ue] = false;
        self.refresh_live(ue);
    }

    /// Whether slot `ue` is marked as holding no UE.
    pub fn slot_detached(&self, ue: usize) -> bool {
        self.detached[ue]
    }

    /// Bring slot `ue` to the channel's TTI index by replaying, in order,
    /// every advance call it was not stepped in — through the same
    /// `fade_slots` / `report_slot` pair the live passes call, so its
    /// taps, streams, reports and clocks end up bit for bit where
    /// stepping it live would have left them. A no-op on a live slot.
    ///
    /// Every `&mut self` entry point that reads or writes a slot's state
    /// calls this first; the `&self` accessors cannot, and see a lagging
    /// slot as of its last step.
    #[inline]
    pub fn sync(&mut self, ue: usize) {
        if self.is_behind(ue) {
            self.replay(ue);
        }
    }

    /// [`CellChannel::sync`] for every slot. Checkpoint writers call it
    /// so the lag log restarts there and no checkpoint replays a span an
    /// earlier one already did.
    pub fn sync_all(&mut self) {
        for ue in 0..self.n_ues {
            self.sync(ue);
        }
    }

    fn is_behind(&self, ue: usize) -> bool {
        !self.live[ue] && self.slot_tti[ue] < self.tti_index
    }

    fn replay(&mut self, ue: usize) {
        let tti = self.cfg.radio.tti();
        let mut at = self.slot_tti[ue];
        for i in 0..self.lag_log.len() {
            let run = self.lag_log[i];
            if at >= run.end() {
                continue;
            }
            // Calls of this run the slot has been through already.
            let done = if at == run.from {
                0
            } else {
                debug_assert!(at >= run.from + run.k, "slot stopped inside a call");
                at - (run.from + run.k) + 1
            };
            for j in done..run.count {
                self.fade_slots(&[ue], if j == 0 { run.k } else { 1 });
                self.report_slot(ue, run.now + tti.mul(j), tti);
            }
            self.work.replayed_slot_steps += run.count - done;
            at = run.end();
        }
        debug_assert_eq!(at, self.tti_index, "lag log does not reach the present");
        self.slot_tti[ue] = self.tti_index;
        self.trim_log();
    }

    /// Append `advance_span(now, k)` — about to run — to the lag log.
    fn log_call(&mut self, now: Time, k: u64) {
        let tti = self.cfg.radio.tti();
        if let Some(last) = self.lag_log.last_mut() {
            debug_assert_eq!(last.end(), self.tti_index, "lag log has a hole");
            if k == 1 && now == last.now + tti.mul(last.count) {
                last.count += 1;
                return;
            }
        }
        if self.lag_log.len() == LAG_LOG_MAX_RUNS {
            self.sync_all();
            debug_assert!(self.lag_log.is_empty(), "a full log nobody is behind");
        }
        self.lag_log.push(LagRun {
            from: self.tti_index,
            now,
            k,
            count: 1,
        });
    }

    /// Drop the runs every lagging slot is already past.
    fn trim_log(&mut self) {
        let oldest = (0..self.n_ues)
            .filter(|&ue| !self.live[ue])
            .map(|ue| self.slot_tti[ue])
            .min()
            .unwrap_or(self.tti_index);
        let past = self
            .lag_log
            .iter()
            .take_while(|run| run.end() <= oldest)
            .count();
        self.lag_log.drain(..past);
    }

    /// Re-derive whether slot `ue` is stepped live, after its detached
    /// mark or one of its CQI fault flags changed. A flagged slot stays
    /// live so the fault counters and the corruption draws never lag.
    fn refresh_live(&mut self, ue: usize) {
        // Whatever changed may have armed a clock the wake time left out
        // (a thaw re-arms a pending delivery; a slot going live brings
        // its own clocks): have the next reporting pass look.
        self.report_wake = Time::ZERO;
        let live =
            !self.ext_geometry || !self.detached[ue] || self.cqi_frozen[ue] || self.cqi_corrupt[ue];
        if live == self.live[ue] {
            return;
        }
        if live {
            self.sync(ue);
            self.live[ue] = true;
            self.n_lagging -= 1;
            self.trim_log();
        } else {
            self.live[ue] = false;
            self.slot_tti[ue] = self.tti_index;
            self.n_lagging += 1;
        }
    }

    /// The work counters so far.
    pub fn work(&self) -> ChannelWork {
        self.work
    }

    /// Distance of `ue` from the base station (m).
    pub fn ue_distance(&self, ue: usize) -> f64 {
        if self.ext_geometry {
            self.ext_dist_m[ue]
        } else {
            self.walkers[ue].pos().dist_origin()
        }
    }

    /// Network-layer geometry push for `ue`: serving-site distance (m),
    /// shadowing toward the serving site (dB) and interference-plus-noise
    /// power (dBm). Refreshes the cached large-scale SINR immediately.
    /// Only meaningful in external-geometry mode.
    pub fn set_ue_geometry(&mut self, ue: usize, dist_m: f64, shadow_db: f64, iplusn_dbm: f64) {
        debug_assert!(
            self.ext_geometry,
            "set_ue_geometry on a channel that owns its own geometry"
        );
        // The measurements a lagging slot skipped saw the old geometry.
        self.sync(ue);
        self.ext_dist_m[ue] = dist_m;
        self.shadow_db[ue] = shadow_db;
        self.iplusn_dbm[ue] = iplusn_dbm;
        self.refresh_large_scale(ue);
    }

    /// Re-prime every UE's reported CQI from the current channel state,
    /// exactly as construction does. Call after an external geometry push
    /// so the first scheduled TTIs don't act on placeholder-geometry
    /// reports. Draws no randomness; bumps each report version.
    pub fn reprime_reports(&mut self) {
        for u in 0..self.n_ues {
            self.sync(u);
            self.measure_into_pending(u);
            let base = u * self.n_subbands;
            self.reported[base..base + self.n_subbands]
                .copy_from_slice(&self.pending[base..base + self.n_subbands]);
            self.pending_fresh[u] = false;
            self.reported_rev[u] += 1;
        }
        self.report_wake = Time::ZERO;
    }

    /// Fault injection: freeze or unfreeze `ue`'s CQI reporting loop.
    pub fn set_cqi_frozen(&mut self, ue: usize, frozen: bool) {
        if self.cqi_frozen[ue] != frozen {
            self.sync(ue);
            self.cqi_frozen[ue] = frozen;
            self.refresh_live(ue);
        }
    }

    /// Fault injection: corrupt (or stop corrupting) `ue`'s new CQI
    /// measurements.
    pub fn set_cqi_corrupt(&mut self, ue: usize, corrupt: bool) {
        if self.cqi_corrupt[ue] != corrupt {
            self.sync(ue);
            self.cqi_corrupt[ue] = corrupt;
            self.refresh_live(ue);
        }
    }
}

/// `10 / ln 10`: decibels per neper, so `10·log10(x) = DB_PER_NEPER·ln(x)`.
const DB_PER_NEPER: f64 = 10.0 * std::f64::consts::LOG10_E;

/// [`CellChannel::actual_sinr_db_subband`] with `ln_positive` in place
/// of the host's `log10`, from the clamped linear fading power `gain`.
#[inline]
fn fast_sinr_db(sinr_const_db: f64, gain: f64, fading_scale: f64, cap_db: f64) -> f64 {
    (sinr_const_db + DB_PER_NEPER * ln_positive(gain) * fading_scale).min(cap_db)
}

/// Half-width (dB) of the band around each CQI threshold inside which
/// the fast SINR of [`CellChannel::measure_into_pending`] is not
/// trusted. The fast and the exact SINR differ only in the logarithm,
/// whose error (a few ulp of at most ~3 100 dB, so under 2e-12 dB) is
/// multiplied by `fading_scale`; the guard leaves three orders of
/// magnitude over that, and the classifier sweep fails a host whose
/// `log10` eats more than a hundredth of it.
fn cqi_guard_db(fading_scale: f64) -> f64 {
    1e-9 * fading_scale.abs().max(1.0)
}

/// Precompute achievable bits/RB/TTI for every CQI value.
fn rate_lut(cfg: &ChannelConfig) -> [f64; 16] {
    let mut lut = [0.0; 16];
    for (c, slot) in lut.iter_mut().enumerate() {
        *slot = cfg.table.efficiency(Cqi(c as u8)) * cfg.radio.data_re_per_rb();
    }
    lut
}

use outran_simcore::snap::{Snap, SnapError, SnapWriter};
use outran_simcore::snap_fields;

impl CellChannel {
    /// A lagging channel's snapshot: write a copy synced as if caught
    /// up, and say so.
    fn write_caught_up(&self, w: &mut SnapWriter) -> bool {
        if !(0..self.n_ues).any(|ue| self.is_behind(ue)) {
            return false;
        }
        let mut caught_up = self.clone();
        caught_up.sync_all();
        caught_up.snap(w);
        true
    }

    /// Restore's last step: every slot starts live at the restored TTI
    /// index, and the large-scale caches follow the restored state.
    fn after_load(&mut self) -> Result<(), SnapError> {
        self.lag_log.clear();
        self.n_lagging = 0;
        self.live.fill(true);
        for ue in 0..self.n_ues {
            self.refresh_large_scale(ue);
            self.refresh_live(ue);
        }
        Ok(())
    }
}

// A lagging slot is written as if caught up: the lag state never
// travels. Each plane must keep its constructed length. Configuration
// (the fading coefficient with it), derived layout and cached
// large-scale terms are rebuilt.
snap_fields! {
    overlay CellChannel {
        walkers: fixed, fade_sb_re: fixed, fade_sb_im: fixed, fade_wb_re: fixed,
        fade_wb_im: fixed, fade_rng: fixed,
        shadow_db: fixed, reported: fixed, reported_rev: fixed in counter, pending: fixed,
        pending_fresh: fixed, pending_due: fixed, next_report_at: fixed, ue_rng: fixed,
        tti_index in counter, dist_since_shadow: fixed, cqi_frozen: fixed,
        cqi_corrupt: fixed, cqi_frozen_reports in counter, cqi_corrupted_reports in counter,
        // Network-coupling planes (noise-only / zero in an isolated cell).
        iplusn_dbm: fixed, ext_dist_m: fixed,
    }
    rebuilt {
        cfg, n_ues, n_subbands, rbs_per_subband, sinr_const_db, ext_geometry, fade_rho, fade_radius,
        fade_angle, fade_z, fade_live, sinr_z, rate_per_cqi, detached, live, slot_tti,
        n_lagging, lag_log, report_wake, work,
    }
    written_as write_caught_up
    then CellChannel::after_load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fading::FadingProcess;
    use outran_simcore::snap::{LoadSnap, Snap, SnapReader, SnapWriter};

    fn small_channel() -> CellChannel {
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = 4;
        CellChannel::new(cfg, 8, &Rng::new(42))
    }

    #[test]
    fn sinr_range_matches_fig2b() {
        // Fig 2b: UE mean SINRs span roughly 0..50 dB with Medium (~10),
        // Good (~25), Excellent (~40) clusters.
        let cfg = ChannelConfig::lte_default();
        let ch = CellChannel::new(cfg, 200, &Rng::new(7));
        let sinrs: Vec<f64> = (0..200).map(|u| ch.mean_sinr_db(u)).collect();
        let lo = sinrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sinrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo > -10.0 && lo < 15.0, "lo={lo}");
        assert!(hi > 28.0 && hi <= 45.0, "hi={hi}");
        // Heterogeneity: at least 10 dB of spread.
        assert!(hi - lo > 10.0);
    }

    #[test]
    fn rates_are_nonnegative_and_bounded() {
        let ch = small_channel();
        let peak = ch.config().table.peak_efficiency() * ch.config().radio.data_re_per_rb();
        for u in 0..8 {
            for rb in 0..ch.n_rbs() {
                let r = ch.reported_rate_per_rb(u, rb);
                assert!(r >= 0.0 && r <= peak + 1e-9);
            }
        }
    }

    #[test]
    fn subband_mapping_covers_all_rbs() {
        let ch = small_channel();
        for rb in 0..ch.n_rbs() {
            let sb = ch.subband_of_rb(rb);
            assert!(sb < 4);
        }
        assert_eq!(ch.subband_of_rb(0), 0);
        assert_eq!(ch.subband_of_rb(ch.n_rbs() - 1), 3);
    }

    #[test]
    fn advance_changes_fading_state() {
        let mut ch = small_channel();
        let before = ch.actual_sinr_db(0, 0);
        let mut changed = false;
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += tti;
            ch.advance_tti(now);
            if (ch.actual_sinr_db(0, 0) - before).abs() > 0.1 {
                changed = true;
                break;
            }
        }
        assert!(changed, "channel should evolve with pedestrian Doppler");
    }

    #[test]
    fn batched_fading_matches_fading_process_reference() {
        // The SoA fading pass must walk each UE's fading stream exactly
        // like a per-UE FadingProcess would: same draws, same tap values,
        // same composed gains — bit for bit, for both single-step and
        // composed multi-step advances.
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = 4;
        let n_sb = cfg.n_subbands;
        let n_ues = 3;
        let mut ch = CellChannel::new(cfg, n_ues, &Rng::new(42));
        // Reference processes, forked exactly like the constructor does.
        let mut refs: Vec<FadingProcess> = (0..n_ues)
            .map(|i| {
                let rng = Rng::new(42).fork(0x9999_0000 + i as u64);
                FadingProcess::new(
                    n_sb,
                    cfg.doppler_hz(),
                    cfg.radio.tti(),
                    cfg.flatness,
                    rng.fork(2),
                )
            })
            .collect();
        let tti = ch.config().radio.tti();
        let mut idx = 0u64;
        for step in [1u64, 1, 3, 1, 7, 1, 1, 250, 1] {
            idx += step;
            let now = Time::ZERO + Dur(tti.0 * idx);
            ch.advance_to(now);
            for f in refs.iter_mut() {
                f.advance_by(step);
            }
            for (u, f) in refs.iter().enumerate() {
                for sb in 0..n_sb {
                    assert_eq!(
                        ch.fading_gain_linear(u, sb).to_bits(),
                        f.gain_linear(sb).to_bits(),
                        "ue {u} sb {sb} after step {step}"
                    );
                }
            }
        }
    }

    /// `advance_span(now, 1)` with the fading pass done the way it was
    /// before `Normal::fill`: one libm `sample` per innovation, taps in
    /// stream order. Kept here as the reference the batched pass is
    /// measured against.
    fn advance_tti_sample_driven(ch: &mut CellChannel, now: Time) {
        let g = Normal::new(0.0, FRAC_1_SQRT_2);
        let n_sb = ch.n_subbands;
        for ue in 0..ch.n_ues {
            let rho = ch.fade_rho;
            let w = (1.0 - rho * rho).sqrt();
            let rng = &mut ch.fade_rng[ue];
            for t in ue * n_sb..(ue + 1) * n_sb {
                ch.fade_sb_re[t] = rho * ch.fade_sb_re[t] + w * g.sample(rng);
                ch.fade_sb_im[t] = rho * ch.fade_sb_im[t] + w * g.sample(rng);
            }
            ch.fade_wb_re[ue] = rho * ch.fade_wb_re[ue] + w * g.sample(rng);
            ch.fade_wb_im[ue] = rho * ch.fade_wb_im[ue] + w * g.sample(rng);
        }
        let tti = ch.cfg.radio.tti();
        let mobility_every = (ch.cfg.mobility_step.as_nanos() / tti.as_nanos()).max(1);
        let from = ch.tti_index;
        ch.tti_index += 1;
        let crossings = ch.tti_index / mobility_every - from / mobility_every;
        if crossings > 0 {
            ch.advance_mobility(crossings);
        }
        ch.reporting_pass(now, tti);
    }

    /// What a 10⁴-TTI, 16-UE run leaves behind.
    struct FadingRun {
        cqi_histogram: [u64; 16],
        rng_states: Vec<[u64; 4]>,
        mean_power: f64,
        lag1_autocorr: f64,
        final_taps: Vec<f64>,
    }

    fn run_fading(advance: fn(&mut CellChannel, Time)) -> FadingRun {
        let mut ch = CellChannel::new(ChannelConfig::lte_default(), 16, &Rng::new(42));
        let tti = ch.config().radio.tti();
        let ttis = 10_000;
        let mut cqi_histogram = [0u64; 16];
        let (mut power, mut lag0, mut lag1) = (0.0, 0.0, 0.0);
        let mut now = Time::ZERO;
        for _ in 0..ttis {
            let before = ch.fade_sb_re.clone();
            now += tti;
            advance(&mut ch, now);
            for (t, &prev) in before.iter().enumerate() {
                let (re, im) = (ch.fade_sb_re[t], ch.fade_sb_im[t]);
                power += re * re + im * im;
                lag0 += prev * prev;
                lag1 += prev * re;
            }
            for &cqi in &ch.reported {
                cqi_histogram[cqi.0 as usize] += 1;
            }
        }
        FadingRun {
            cqi_histogram,
            rng_states: ch.fade_rng.iter().map(|r| *r.state()).collect(),
            mean_power: power / (ttis * ch.fade_sb_re.len()) as f64,
            lag1_autocorr: lag1 / lag0,
            final_taps: [ch.fade_sb_re, ch.fade_sb_im, ch.fade_wb_re, ch.fade_wb_im].concat(),
        }
    }

    #[test]
    fn batched_fading_matches_sample_driven_reference_over_10k_ttis() {
        let got = run_fading(|ch, now| ch.advance_tti(now));
        let want = run_fading(advance_tti_sample_driven);
        // Stream positions and every discrete outcome: identical.
        assert_eq!(got.rng_states, want.rng_states);
        assert_eq!(got.cqi_histogram, want.cqi_histogram);
        let cqis_seen = want.cqi_histogram.iter().filter(|&&c| c > 0).count();
        assert!(cqis_seen >= 8, "histogram too narrow to tell: {cqis_seen}");
        // Tap statistics are what the model says (unit power, lag-1
        // autocorrelation ρ) and the two runs agree far inside the
        // sampling error of either.
        let rho = (-1e-3 * ChannelConfig::lte_default().doppler_hz() / 0.423).exp();
        assert!((want.mean_power - 1.0).abs() < 0.05, "{}", want.mean_power);
        assert!(
            (want.lag1_autocorr - rho).abs() < 1e-3,
            "{}",
            want.lag1_autocorr
        );
        assert!((got.mean_power - want.mean_power).abs() < 1e-12);
        assert!((got.lag1_autocorr - want.lag1_autocorr).abs() < 1e-12);
        // The AR(1) update contracts (ρ < 1), so per-draw differences of
        // ~1e-15 do not accumulate: the trajectories stay together.
        for (g, w) in got.final_taps.iter().zip(&want.final_taps) {
            assert!((g - w).abs() < 1e-13, "tap {g} vs {w}");
        }
    }

    /// Sub-band taps stay Rayleigh across composed jumps. For gaps of
    /// k ∈ {1, 5, 40} TTIs taken through `advance_to`, tap power is
    /// Exp(1) by Kolmogorov–Smirnov (0.1 % critical value) and the lag-k
    /// autocorrelation of the in-phase parts is ρᵏ within 0.01, about six
    /// standard errors of the estimate over 300 jumps of 2 048 taps.
    #[test]
    fn composed_jumps_keep_taps_rayleigh_with_rho_k_autocorrelation() {
        for k in [1u64, 5, 40] {
            let mut ch = CellChannel::new(ChannelConfig::lte_default(), 256, &Rng::new(k));
            let tti = ch.config().radio.tti();
            let (mut lag0, mut lag_k) = (0.0, 0.0);
            for jump in 1..=300 {
                let before = ch.fade_sb_re.clone();
                ch.advance_to(Time::ZERO + tti.mul(jump * k));
                for (prev, re) in before.iter().zip(&ch.fade_sb_re) {
                    lag0 += prev * prev;
                    lag_k += prev * re;
                }
            }
            let rho_k = ch.fade_rho.powi(k as i32);
            let acf = lag_k / lag0;
            assert!(
                (acf - rho_k).abs() < 0.01,
                "k {k}: lag-k autocorrelation {acf}, ρᵏ {rho_k}"
            );
            // Different slots' and sub-bands' taps are independent: one
            // sample of 256 × 8 powers.
            let mut power: Vec<f64> = ch
                .fade_sb_re
                .iter()
                .zip(&ch.fade_sb_im)
                .map(|(re, im)| re * re + im * im)
                .collect();
            power.sort_by(f64::total_cmp);
            let ks = outran_simcore::stats::ks_distance(&power, |x| 1.0 - (-x).exp());
            assert!(ks < 1.95 / (power.len() as f64).sqrt(), "k {k}: ks={ks}");
        }
    }

    /// TTIs between draws meant to be independent: ρ¹⁰⁰⁰ ≈ 2e-9 at the
    /// default pedestrian Doppler.
    const DECORRELATED: u64 = 1_000;

    /// Sub-bands of one UE share its wideband tap by the `flatness`
    /// weight f: a sub-band's power is g = f·|w|² + (1−f)·|s|² with |w|²
    /// and |s|² independent Exp(1), so two sub-bands correlate as
    /// f²/(f² + (1−f)²), 0.155 at the default f = 0.3. Estimated over
    /// 256 UEs × 100 draws [`DECORRELATED`] TTIs apart (25 600
    /// independent samples), every sub-band pair of a sample pooled.
    #[test]
    fn subband_powers_correlate_by_the_flatness_weight() {
        let cfg = ChannelConfig::lte_default();
        let f = cfg.flatness;
        let want = f * f / (f * f + (1.0 - f) * (1.0 - f));
        let mut ch = CellChannel::new(cfg, 256, &Rng::new(3));
        assert!(ch.fade_rho.powi(DECORRELATED as i32) < 1e-8);
        let tti = ch.config().radio.tti();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for draw in 1..=100 {
            ch.advance_to(Time::ZERO + tti.mul(draw * DECORRELATED));
            for ue in 0..ch.n_ues {
                rows.push(
                    (0..ch.n_subbands)
                        .map(|sb| ch.fading_gain_linear(ue, sb))
                        .collect(),
                );
            }
        }
        let n_sb = ch.n_subbands as f64;
        let n = rows.len() as f64 * n_sb;
        let mean = rows.iter().flatten().sum::<f64>() / n;
        let var = rows
            .iter()
            .flatten()
            .map(|g| (g - mean).powi(2))
            .sum::<f64>()
            / n;
        // Σ_{i≠j} dᵢ·dⱼ = (Σ d)² − Σ d² over one sample's sub-bands.
        let cross: f64 = rows
            .iter()
            .map(|row| {
                let s: f64 = row.iter().map(|g| g - mean).sum();
                s * s - row.iter().map(|g| (g - mean).powi(2)).sum::<f64>()
            })
            .sum();
        let corr = cross / (n * (n_sb - 1.0)) / var;
        assert!((corr - want).abs() < 0.02, "corr {corr}, want {want}");
    }

    /// One `advance_to` jump of k TTIs is k one-TTI advances in
    /// distribution, for k ∈ {5, 40}: from a start [`DECORRELATED`] TTIs
    /// after the last sample, the tap power and the lag product
    /// Re(x₀*·x_k) after either agree by a two-sample Kolmogorov–Smirnov
    /// test at its 0.1 % critical value 1.95·√(2/n), over 10 rounds of
    /// 2 048 taps a side.
    #[test]
    fn one_composed_jump_is_k_single_steps_in_distribution() {
        let transitions = |k: u64, seed: u64, one_jump: bool| {
            let mut ch = CellChannel::new(ChannelConfig::lte_default(), 256, &Rng::new(seed));
            let tti = ch.config().radio.tti();
            let (mut power, mut lag) = (Vec::new(), Vec::new());
            let mut idx = 0;
            for _ in 0..10 {
                idx += DECORRELATED;
                ch.advance_to(Time::ZERO + tti.mul(idx));
                let (re0, im0) = (ch.fade_sb_re.clone(), ch.fade_sb_im.clone());
                for step in if one_jump {
                    vec![k]
                } else {
                    vec![1; k as usize]
                } {
                    idx += step;
                    ch.advance_to(Time::ZERO + tti.mul(idx));
                }
                for t in 0..re0.len() {
                    let (re, im) = (ch.fade_sb_re[t], ch.fade_sb_im[t]);
                    power.push(re * re + im * im);
                    lag.push(re0[t] * re + im0[t] * im);
                }
            }
            power.sort_by(f64::total_cmp);
            lag.sort_by(f64::total_cmp);
            [power, lag]
        };
        // The other sample's empirical CDF makes `ks_distance` the
        // two-sample statistic.
        fn ecdf(sorted: &[f64]) -> impl Fn(f64) -> f64 + '_ {
            |x| sorted.partition_point(|&y| y <= x) as f64 / sorted.len() as f64
        }
        for k in [5u64, 40] {
            let jump = transitions(k, 2 * k, true);
            let steps = transitions(k, 2 * k + 1, false);
            for (i, what) in ["power", "lag product"].into_iter().enumerate() {
                let crit = 1.95 * (2.0 / jump[i].len() as f64).sqrt();
                let d = outran_simcore::stats::ks_distance(&jump[i], ecdf(&steps[i]));
                assert!(d < crit, "k {k}, {what}: D {d}, critical {crit}");
            }
        }
    }

    #[test]
    fn cqi_freeze_stalls_reports_and_counts() {
        let mut ch = small_channel();
        ch.set_cqi_frozen(0, true);
        let before: Vec<Cqi> = (0..4).map(|sb| ch.reported_cqi_subband(0, sb)).collect();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        let after: Vec<Cqi> = (0..4).map(|sb| ch.reported_cqi_subband(0, sb)).collect();
        assert_eq!(before, after, "frozen UE's reported CQI must not move");
        assert!(ch.cqi_frozen_reports > 0, "suppressed reports must count");
        // Unfreeze: the loop resumes and the counter stops growing.
        ch.set_cqi_frozen(0, false);
        let held = ch.cqi_frozen_reports;
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        assert_eq!(ch.cqi_frozen_reports, held);
    }

    #[test]
    fn cqi_corrupt_counts_reports() {
        let mut ch = small_channel();
        ch.set_cqi_corrupt(1, true);
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            now += tti;
            ch.advance_tti(now);
        }
        assert!(
            ch.cqi_corrupted_reports > 0,
            "corrupt window must replace measurements"
        );
        // Reported CQIs stay in the valid 0..=15 range even when junk.
        for sb in 0..4 {
            assert!(ch.reported_cqi_subband(1, sb).0 <= 15);
        }
    }

    #[test]
    fn cqi_reports_update_on_period() {
        // Some UE's report must change over a few seconds of pedestrian
        // fading (UEs pinned at the SINR cap may legitimately stay at 15).
        let mut ch = small_channel();
        let snapshot = |ch: &CellChannel| -> Vec<Cqi> {
            (0..ch.n_ues())
                .flat_map(|u| (0..4).map(move |sb| (u, sb)))
                .map(|(u, sb)| ch.reported_cqi_subband(u, sb))
                .collect()
        };
        let initial = snapshot(&ch);
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        let mut ever_changed = false;
        for _ in 0..3000 {
            now += tti;
            ch.advance_tti(now);
            if snapshot(&ch) != initial {
                ever_changed = true;
                break;
            }
        }
        assert!(ever_changed);
    }

    #[test]
    fn report_version_tracks_delivered_reports() {
        // The cache-invalidation contract: while a UE's version stamp is
        // stable, its reported CQIs must be stable too.
        let mut ch = small_channel();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        let snap = |ch: &CellChannel, u: usize| -> Vec<Cqi> {
            (0..4).map(|sb| ch.reported_cqi_subband(u, sb)).collect()
        };
        let mut last_rev: Vec<u64> = (0..8).map(|u| ch.report_version(u)).collect();
        let mut last_cqi: Vec<Vec<Cqi>> = (0..8).map(|u| snap(&ch, u)).collect();
        for _ in 0..500 {
            now += tti;
            ch.advance_tti(now);
            for u in 0..8 {
                let rev = ch.report_version(u);
                let cqi = snap(&ch, u);
                if rev == last_rev[u] {
                    assert_eq!(cqi, last_cqi[u], "stable version, changed CQIs");
                }
                last_rev[u] = rev;
                last_cqi[u] = cqi;
            }
        }
        assert!(last_rev.iter().any(|&r| r > 1), "versions never advanced");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut ch = small_channel();
            let tti = ch.config().radio.tti();
            let mut now = Time::ZERO;
            for _ in 0..200 {
                now += tti;
                ch.advance_tti(now);
            }
            (0..8)
                .map(|u| ch.actual_sinr_db(u, 5))
                .collect::<Vec<f64>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn static_scenario_keeps_mean_sinr() {
        let mut cfg = ChannelConfig::lte_default();
        cfg.ue_speed_mps = 0.0;
        let mut ch = CellChannel::new(cfg, 4, &Rng::new(9));
        let before: Vec<f64> = (0..4).map(|u| ch.mean_sinr_db(u)).collect();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..1000 {
            now += tti;
            ch.advance_tti(now);
        }
        let after: Vec<f64> = (0..4).map(|u| ch.mean_sinr_db(u)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9, "static UE mean SINR moved");
        }
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        // Snap → load into a fresh channel → both evolve identically.
        let mut ch = small_channel();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for _ in 0..137 {
            now += tti;
            ch.advance_tti(now);
        }
        let mut w = SnapWriter::new();
        ch.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = small_channel();
        let mut r = SnapReader::new(&bytes);
        restored.load_snap(&mut r).unwrap();
        for _ in 0..219 {
            now += tti;
            ch.advance_tti(now);
            restored.advance_tti(now);
        }
        for u in 0..8 {
            assert_eq!(ch.report_version(u), restored.report_version(u));
            for sb in 0..4 {
                assert_eq!(
                    ch.actual_sinr_db_subband(u, sb).to_bits(),
                    restored.actual_sinr_db_subband(u, sb).to_bits(),
                    "ue {u} sb {sb}"
                );
                assert_eq!(
                    ch.reported_cqi_subband(u, sb),
                    restored.reported_cqi_subband(u, sb)
                );
            }
        }
    }

    #[test]
    fn batched_fresh_outcomes_match_per_call_draws() {
        // The batched per-UE pass must consume the same draws and return
        // the same outcomes as per-subband transmission_succeeds calls.
        let mut a = small_channel();
        let mut b = small_channel();
        let tti = a.config().radio.tti();
        let mut now = Time::ZERO;
        // Per-subband scheduled bits: a mix of below-threshold (skipped,
        // no draw) and qualifying groups.
        let bits = [0.0, 120.0, 7.9, 9000.0];
        let mut out = [false; 4];
        for step in 0..300 {
            now += tti;
            a.advance_tti(now);
            b.advance_tti(now);
            let ue = step % 8;
            a.fresh_outcomes(ue, &bits, 8.0, &mut out);
            for (sb, &bits_sb) in bits.iter().enumerate() {
                if bits_sb < 8.0 {
                    assert!(!out[sb], "skipped subband must read false");
                    continue;
                }
                assert_eq!(
                    out[sb],
                    b.transmission_succeeds(ue, sb),
                    "step {step} ue {ue} sb {sb}"
                );
            }
        }
    }

    /// Everything slot `ue` owns, as bits: taps, both stream positions,
    /// the report rows and their version, the reporting clocks.
    fn slot_bits(ch: &CellChannel, ue: usize) -> Vec<u64> {
        let sb = ue * ch.n_subbands..(ue + 1) * ch.n_subbands;
        let mut bits = vec![
            ch.fade_wb_re[ue].to_bits(),
            ch.fade_wb_im[ue].to_bits(),
            ch.reported_rev[ue],
            ch.pending_fresh[ue] as u64,
            ch.pending_due[ue].as_nanos(),
            ch.next_report_at[ue].as_nanos(),
        ];
        bits.extend(ch.fade_sb_re[sb.clone()].iter().map(|x| x.to_bits()));
        bits.extend(ch.fade_sb_im[sb.clone()].iter().map(|x| x.to_bits()));
        bits.extend(ch.fade_rng[ue].state());
        bits.extend(ch.ue_rng[ue].state());
        bits.extend(ch.reported[sb.clone()].iter().map(|c| c.0 as u64));
        bits.extend(ch.pending[sb].iter().map(|c| c.0 as u64));
        bits
    }

    fn snap_bytes(ch: &CellChannel) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ch.snap(&mut w);
        w.into_bytes()
    }

    /// `lazy`, lagging slots and all, is where the never-detaching
    /// `eager` is: equal snapshot bytes as it stands, equal fault
    /// counters, and every slot's state equal once caught up.
    fn assert_lazy_is_eager(eager: &CellChannel, lazy: &CellChannel) {
        assert_eq!(snap_bytes(eager), snap_bytes(lazy), "snapshot bytes");
        assert_eq!(eager.cqi_frozen_reports, lazy.cqi_frozen_reports);
        assert_eq!(eager.cqi_corrupted_reports, lazy.cqi_corrupted_reports);
        let mut caught_up = lazy.clone();
        caught_up.sync_all();
        assert!(caught_up.lag_log.is_empty());
        for ue in 0..eager.n_ues {
            assert_eq!(slot_bits(eager, ue), slot_bits(&caught_up, ue), "slot {ue}");
        }
    }

    fn external_pair(seed: u64, n_ues: usize) -> (CellChannel, CellChannel) {
        let mut cfg = ChannelConfig::lte_default();
        cfg.n_subbands = 4;
        cfg.external_geometry = true;
        let mk = || CellChannel::new(cfg, n_ues, &Rng::new(seed));
        (mk(), mk())
    }

    /// Two external-geometry channels from one seed take the same
    /// advances, fault flags, geometry pushes and outcome draws; one
    /// of them also detaches and attaches slots at random. They never
    /// differ in a bit.
    #[test]
    fn lazy_slots_match_eager_reference() {
        outran_simcore::check("lazy_slots_match_eager_reference", 12, |ops| {
            const N: usize = 6;
            let (mut eager, mut lazy) = external_pair(ops.next_u64_raw(), N);
            let tti = eager.config().radio.tti();
            let mut idx = 0u64;
            let bits = [0.0, 120.0, 7.9, 9000.0];
            let (mut out_e, mut out_l) = ([false; 4], [false; 4]);
            for _ in 0..600 {
                let ue = ops.index(N);
                match ops.below(20) {
                    0..=9 => {
                        idx += [1, 1, 1, 1, 1, 3, 7, 250][ops.index(8)];
                        let now = Time::ZERO + tti.mul(idx);
                        // The reference arm never skips a reporting pass.
                        eager.report_wake = Time::ZERO;
                        eager.advance_to(now);
                        lazy.advance_to(now);
                    }
                    10 | 11 => lazy.detach_slot(ue),
                    12 => {
                        lazy.attach_slot(ue);
                        assert!(lazy.live[ue]);
                        assert_eq!(slot_bits(&eager, ue), slot_bits(&lazy, ue));
                    }
                    13 => {
                        let on = ops.chance(0.4);
                        eager.set_cqi_frozen(ue, on);
                        lazy.set_cqi_frozen(ue, on);
                    }
                    14 => {
                        let on = ops.chance(0.4);
                        eager.set_cqi_corrupt(ue, on);
                        lazy.set_cqi_corrupt(ue, on);
                    }
                    15 | 16 => {
                        let (d, sh, ipn) = (
                            ops.range_f64(20.0, 400.0),
                            ops.range_f64(-8.0, 8.0),
                            ops.range_f64(-120.0, -90.0),
                        );
                        eager.set_ue_geometry(ue, d, sh, ipn);
                        lazy.set_ue_geometry(ue, d, sh, ipn);
                    }
                    17 => {
                        eager.fresh_outcomes(ue, &bits, 8.0, &mut out_e);
                        lazy.fresh_outcomes(ue, &bits, 8.0, &mut out_l);
                        assert_eq!(out_e, out_l);
                        assert_eq!(
                            eager.transmission_succeeds_with_gain(ue, 1, 3.0),
                            lazy.transmission_succeeds_with_gain(ue, 1, 3.0)
                        );
                    }
                    18 if ops.chance(0.1) => {
                        eager.reprime_reports();
                        lazy.reprime_reports();
                    }
                    _ => assert_lazy_is_eager(&eager, &lazy),
                }
                assert!(lazy.lag_log.len() <= LAG_LOG_MAX_RUNS);
                assert_eq!(lazy.n_lagging, lazy.live.iter().filter(|&&l| !l).count());
            }
            assert_lazy_is_eager(&eager, &lazy);
            // The walk did lag and replay, and never stepped a slot twice.
            let w = lazy.work();
            let (live, replayed) = (w.live_slot_steps, w.replayed_slot_steps);
            assert!(replayed > 0 && live + replayed <= eager.work().live_slot_steps);
            assert_eq!(w.fading_draws, 10 * (live + replayed));
        });
    }

    /// The cell-wide live pass (every live slot's uniforms, one
    /// transform, one AR(1) pass) is each slot stepped alone through
    /// the replay path: `alone` keeps every slot detached, so only
    /// `sync` ever steps one. `wide` detaches and attaches slots at
    /// random, so its live lists have holes and its lagging slots are
    /// caught up in between. Taps, both stream positions, report state
    /// and the work counters agree, for several sub-band counts.
    #[test]
    fn cell_wide_pass_is_each_slot_replayed_alone() {
        const N: usize = 7;
        for n_sb in [1, 3, 8, 16] {
            let mut cfg = ChannelConfig::lte_default();
            cfg.n_subbands = n_sb;
            cfg.external_geometry = true;
            let mk = || CellChannel::new(cfg, N, &Rng::new(40 + n_sb as u64));
            let (mut wide, mut alone) = (mk(), mk());
            for ue in 0..N {
                alone.detach_slot(ue);
            }
            let mut ops = Rng::new(n_sb as u64);
            let tti = wide.config().radio.tti();
            let mut idx = 0u64;
            for _ in 0..400 {
                idx += [1, 1, 1, 1, 2, 5, 40][ops.index(7)];
                let now = Time::ZERO + tti.mul(idx);
                wide.advance_to(now);
                alone.advance_to(now);
                let ue = ops.index(N);
                match ops.below(4) {
                    0 => wide.detach_slot(ue),
                    1 => wide.attach_slot(ue),
                    2 => alone.sync(ue),
                    _ => wide.sync(ue),
                }
            }
            wide.sync_all();
            alone.sync_all();
            for ue in 0..N {
                assert_eq!(
                    slot_bits(&wide, ue),
                    slot_bits(&alone, ue),
                    "{n_sb} sb, slot {ue}"
                );
            }
            let (w, a) = (wide.work(), alone.work());
            assert!(w.live_slot_steps > 0 && w.replayed_slot_steps > 0, "{w:?}");
            assert_eq!(a.live_slot_steps, 0);
            assert_eq!(
                w.live_slot_steps + w.replayed_slot_steps,
                a.replayed_slot_steps
            );
            assert_eq!(w.fading_draws, a.fading_draws);
            assert_eq!(
                w.fading_draws,
                (2 * n_sb as u64 + 2) * a.replayed_slot_steps
            );
            assert_eq!((w.cqi_fast, w.cqi_exact), (a.cqi_fast, a.cqi_exact));
        }
    }

    /// One UE whose taps, large-scale SINR and config the classifier
    /// tests overwrite directly.
    fn classifier_probe(scale: f64, cap: f64) -> CellChannel {
        let mut cfg = ChannelConfig::lte_default();
        cfg.fading_scale = scale;
        cfg.sinr_cap_db = cap;
        CellChannel::new(cfg, 1, &Rng::new(5))
    }

    /// Measure UE 0's row both ways: the stored row must be the libm
    /// row, and each sub-band's fast SINR within a hundredth of the
    /// guard of the exact one. Returns whether the row fell back.
    fn fast_row_is_exact_row(ch: &mut CellChannel) -> bool {
        let n_sb = ch.n_subbands;
        let (scale, cap) = (ch.cfg.fading_scale, ch.cfg.sinr_cap_db);
        let exact_before = ch.work().cqi_exact;
        ch.measure_into_pending(0);
        let stored = ch.pending[..n_sb].to_vec();
        ch.measure_row_exact(0);
        assert_eq!(stored, ch.pending[..n_sb], "fast row is not the libm row");
        for sb in 0..n_sb {
            let gain = ch.fading_gain_linear(0, sb).max(1e-12);
            if gain == f64::INFINITY {
                continue;
            }
            let fast = fast_sinr_db(ch.sinr_const_db[0], gain, scale, cap);
            let exact = ch.actual_sinr_db_subband(0, sb);
            assert!(
                (fast - exact).abs() <= cqi_guard_db(scale) / 100.0,
                "gain {gain:e}: fast {fast} vs exact {exact}"
            );
        }
        ch.work().cqi_exact > exact_before
    }

    #[test]
    fn classifier_matches_libm_reference_on_seeded_sweep() {
        // 10⁷ tap powers, log-uniform over 1e-13…1e3 (so some sit under
        // the 1e-12 clamp), against every whole-dB `sinr_const` from −40
        // to +60 plus a random fraction, under three fading scales and
        // random wideband mixing.
        let mut rng = Rng::new(0xC01);
        let mut fallbacks = 0u64;
        let mut rows = 0u64;
        for scale in [1.0, 0.25, 3.0] {
            let mut ch = classifier_probe(scale, 45.0);
            let n_sb = ch.n_subbands;
            let rows_per_scale = if scale == 1.0 { 1_000_000 } else { 125_000 };
            for row in 0..rows_per_scale {
                for sb in 0..n_sb {
                    let power = 10f64.powf(rng.range_f64(-13.0, 3.0));
                    let phase = rng.range_f64(0.0, std::f64::consts::TAU);
                    ch.fade_sb_re[sb] = power.sqrt() * phase.cos();
                    ch.fade_sb_im[sb] = power.sqrt() * phase.sin();
                }
                ch.fade_wb_re[0] = rng.range_f64(-2.0, 2.0);
                ch.fade_wb_im[0] = rng.range_f64(-2.0, 2.0);
                ch.cfg.flatness = if row % 4 == 0 { 0.0 } else { rng.f64() };
                ch.sinr_const_db[0] = (row % 101) as f64 - 40.0 + rng.f64();
                fallbacks += fast_row_is_exact_row(&mut ch) as u64;
                rows += 1;
            }
            let ChannelWork {
                cqi_fast,
                cqi_exact,
                ..
            } = ch.work();
            // +1: the row measured by the constructor.
            assert_eq!(cqi_fast + cqi_exact, (rows_per_scale + 1) * n_sb as u64);
        }
        // Nearly every row is classified without the host's `log10`.
        assert!(fallbacks * 10_000 < rows, "{fallbacks} of {rows} fell back");
    }

    #[test]
    fn classifier_falls_back_on_adversarial_inputs() {
        use crate::cqi::CQI_THRESH_DB;
        let nudge = |x: f64, ulps: i64| f64::from_bits((x.to_bits() as i64 + ulps) as u64);
        let mut ch = classifier_probe(1.0, 45.0);
        let n_sb = ch.n_subbands;
        ch.cfg.flatness = 0.0;
        ch.fade_sb_im[..n_sb].fill(0.0);
        let mut fallbacks = 0u64;
        for &t in &CQI_THRESH_DB {
            // Unit fading power: the SINR is `sinr_const` exactly, on
            // both paths — the threshold and its neighbours ± 4 ulp.
            ch.fade_sb_re[..n_sb].fill(1.0);
            for ulps in -4..=4 {
                ch.sinr_const_db[0] = nudge(t, ulps);
                assert!(fast_row_is_exact_row(&mut ch), "on threshold {t}");
                fallbacks += 1;
            }
            // A fading power solved to land the SINR on the threshold,
            // and its neighbours: here the two logarithms disagree in
            // the last bits, on either side of `t`.
            for sinr_const in [-12.5, 3.0, 31.0] {
                ch.sinr_const_db[0] = sinr_const;
                let gain = 10f64.powf((t - sinr_const) / 10.0);
                for ulps in -8..=8 {
                    ch.fade_sb_re[..n_sb].fill(nudge(gain, ulps).sqrt());
                    assert!(fast_row_is_exact_row(&mut ch), "around threshold {t}");
                    fallbacks += 1;
                }
            }
        }
        // On and around the 1e-12 clamp (−120 dB of fading).
        ch.sinr_const_db[0] = 120.0 + CQI_THRESH_DB[3];
        for ulps in -4..=4 {
            ch.fade_sb_re[..n_sb].fill(nudge(1e-12, ulps).sqrt());
            fast_row_is_exact_row(&mut ch);
        }
        ch.fade_sb_re[..n_sb].fill(0.0);
        assert!(fast_row_is_exact_row(&mut ch), "clamped onto a threshold");
        // On the SINR cap: far above every threshold it is classified
        // fast; a cap sitting on (or just beside) a threshold is not.
        ch.fade_sb_re[..n_sb].fill(1.0);
        ch.sinr_const_db[0] = 60.0;
        assert!(!fast_row_is_exact_row(&mut ch));
        for cap in [CQI_THRESH_DB[14], CQI_THRESH_DB[9] + 5e-10] {
            ch.cfg.sinr_cap_db = cap;
            assert!(fast_row_is_exact_row(&mut ch), "cap {cap}");
        }
        // An infinite power is outside `ln_positive`'s domain.
        ch.cfg.sinr_cap_db = 45.0;
        ch.fade_sb_re[0] = f64::INFINITY;
        assert!(fast_row_is_exact_row(&mut ch));
        assert!(ch.work().cqi_exact >= fallbacks * n_sb as u64);
    }

    #[test]
    fn classifications_count_every_measured_subband() {
        // Every measurement but the last of each UE has been delivered
        // (one version bump each) or is still pending.
        let mut ch = small_channel();
        let tti = ch.config().radio.tti();
        let mut now = Time::ZERO;
        for step in 0..2_000u64 {
            now += tti.mul(if step % 97 == 0 { 40 } else { 1 });
            ch.advance_to(now);
        }
        let measurements: u64 = (0..ch.n_ues())
            .map(|u| ch.report_version(u) + ch.pending_fresh[u] as u64)
            .sum();
        let ChannelWork {
            cqi_fast: fast,
            cqi_exact: exact,
            ..
        } = ch.work();
        assert_eq!(fast + exact, ch.n_subbands as u64 * measurements);
        assert!(fast > 100 * exact.max(1), "fast {fast} exact {exact}");
    }

    #[test]
    fn reporting_pass_wakes_exactly_when_a_slot_is_due() {
        // One channel skips passes by the wake time, its twin is forced
        // to look every TTI; faults, thaws and idle gaps in between.
        let (mut skipping, mut looking) = (small_channel(), small_channel());
        let tti = skipping.config().radio.tti();
        let mut ops = Rng::new(77);
        let mut idx = 0u64;
        let mut skipped = 0u64;
        for _ in 0..5_000 {
            if ops.chance(0.02) {
                let (ue, on) = (ops.index(8), ops.chance(0.5));
                if ops.chance(0.5) {
                    skipping.set_cqi_frozen(ue, on);
                    looking.set_cqi_frozen(ue, on);
                } else {
                    skipping.set_cqi_corrupt(ue, on);
                    looking.set_cqi_corrupt(ue, on);
                }
            }
            idx += if ops.chance(0.05) {
                1 + ops.below(30)
            } else {
                1
            };
            let now = Time::ZERO + tti.mul(idx);
            skipped += (now < skipping.report_wake) as u64;
            looking.report_wake = Time::ZERO;
            skipping.advance_to(now);
            looking.advance_to(now);
            for ue in 0..8 {
                assert_eq!(
                    slot_bits(&skipping, ue),
                    slot_bits(&looking, ue),
                    "slot {ue}"
                );
            }
        }
        assert_eq!(skipping.cqi_frozen_reports, looking.cqi_frozen_reports);
        assert_eq!(
            skipping.cqi_corrupted_reports,
            looking.cqi_corrupted_reports
        );
        assert!(skipped > 2_000, "only {skipped} passes skipped");
    }

    #[test]
    fn lag_log_is_bounded_and_overflow_sync_is_exact() {
        // Every call an idle gap: each one is a run of its own, the worst
        // case for the log.
        let (mut eager, mut lazy) = external_pair(11, 3);
        lazy.detach_slot(1);
        let tti = eager.config().radio.tti();
        for call in 1..=3 * LAG_LOG_MAX_RUNS as u64 + 5 {
            let now = Time::ZERO + tti.mul(2 * call);
            eager.advance_to(now);
            lazy.advance_to(now);
            assert!(lazy.lag_log.len() <= LAG_LOG_MAX_RUNS);
            assert!(
                lazy.lag_log.capacity() == LAG_LOG_MAX_RUNS,
                "log reallocated"
            );
        }
        // Nothing attached or read slot 1: only the overflow syncs
        // stepped it, three logs' worth so far.
        assert_eq!(lazy.work().replayed_slot_steps, 3 * LAG_LOG_MAX_RUNS as u64);
        assert!(!lazy.live[1]);
        assert_lazy_is_eager(&eager, &lazy);
        // A dense stretch of any length is one run.
        let mut now = Time::ZERO + tti.mul(10_000);
        lazy.advance_to(now);
        eager.advance_to(now);
        lazy.sync_all();
        for _ in 0..5_000 {
            now += tti;
            eager.advance_tti(now);
            lazy.advance_tti(now);
        }
        assert_eq!(lazy.lag_log.len(), 1);
        assert_lazy_is_eager(&eager, &lazy);
    }

    #[test]
    fn transmission_success_rate_tracks_bler_target() {
        // With a perfectly fresh report the SINR surplus over the chosen
        // MCS's requirement is in [0, ~2.5 dB), so the error rate sits
        // somewhere below the 10 % waterfall anchor but stays material.
        let mut cfg = ChannelConfig::lte_default();
        cfg.ue_speed_mps = 0.0; // freeze channel => report always accurate
        cfg.cqi_period_ttis = 1;
        cfg.cqi_delay_ttis = 0;
        cfg.sinr_cap_db = 20.0; // keep UEs off the CQI-15 saturation
                                // Average across many UEs so the per-UE SINR surplus over its
                                // chosen MCS (uniform-ish in one CQI step) is integrated out.
        let n_ues = 64;
        let mut ch = CellChannel::new(cfg, n_ues, &Rng::new(3));
        let mut fails = 0u32;
        let n = 2_000;
        for _ in 0..n {
            for u in 0..n_ues {
                if !ch.transmission_succeeds(u, 0) {
                    fails += 1;
                }
            }
        }
        let rate = fails as f64 / (n * n_ues) as f64;
        assert!(
            (0.003..=0.12).contains(&rate),
            "error rate={rate} out of expected band"
        );
    }
}
