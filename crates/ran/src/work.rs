//! Deterministic work counters: what a cell, or a network of cells,
//! computed to get its results — the counted side of the paper's
//! overhead claim (Figs 13/14), equal on any host and thread count.

outran_simcore::counters! {
    /// Work done so far, by one cell ([`Cell::work`]) or summed over a
    /// network's cells ([`NetworkRun::work`]). Not serialized and not
    /// part of any report, so no digest sees them: a resumed run counts
    /// from the restore.
    ///
    /// [`Cell::work`]: crate::Cell::work
    /// [`NetworkRun::work`]: crate::NetworkRun::work
    pub struct WorkCounters {
        /// Gaussians drawn by the fading step, live and replayed.
        pub fading_draws: u64,
        /// Slots stepped by a channel advance as it ran.
        pub live_slot_steps: u64,
        /// Slot steps replayed later, for a slot that was empty at the time.
        pub replayed_slot_steps: u64,
        /// Active cell-TTIs: each is one channel advance of one cell.
        pub active_cell_ttis: u64,
        /// (UE, subband) CQIs stored from the log-free classification.
        pub cqi_fast: u64,
        /// (UE, subband) CQIs redone through the host's `log10`, inside a
        /// threshold's guard band.
        pub cqi_exact: u64,
        /// Σ over active cell-TTIs of the UEs with radio work.
        pub active_ue_ttis: u64,
        /// Scheduler metric-cache rows recomputed: at most
        /// `active_ue_ttis`, since only active UEs' rows are looked at.
        pub metric_rows_refreshed: u64,
        /// Σ over cells of the most TCP endpoint pairs the cell held at once
        /// — the size its endpoint slab grew to, what its flow table costs
        /// beyond one thin record a flow. A resumed cell's starts at the
        /// flows open in the checkpoint.
        pub flow_endpoints_high_water: u64,
        /// Flow entries the ingress RTO and watchdog scans visited.
        pub ingress_scan_visits: u64,
        /// Events the ingress queue sent to its far tier (the heap): only
        /// flow arrivals should go there, so at most one a flow.
        pub event_far_pushes: u64,
        /// Σ over cells of the most events the ingress queue's near tier
        /// held at once — the size its node store grew to. A resumed
        /// cell's starts at the near events pending in the checkpoint.
        pub event_near_high_water: u64,
        /// (UE, cell) RSRPs evaluated at epoch barriers: one table of
        /// `n_ues · n_cells` per barrier.
        pub barrier_rsrp_evals: u64,
        /// Per-UE geometry pushes made at epoch barriers: `n_ues` per barrier.
        pub barrier_geometry_pushes: u64,
        /// The part of `replayed_slot_steps` replayed at epoch barriers, for
        /// slots a handover filled (the rest is replayed inside a cell's own
        /// epoch, or for a checkpoint).
        pub barrier_replayed_slot_steps: u64,
    }
}
