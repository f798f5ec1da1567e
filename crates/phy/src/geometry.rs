//! Multi-site radio geometry: hexagonal site layouts, global UE
//! coordinates, neighbor path-loss/RSRP and the load-coupled
//! interference helpers the network layer composes per epoch.
//!
//! The single-cell world of [`crate::channel`] measures every UE by its
//! distance from *its own* site origin. A network lifts that worldview:
//! sites live at fixed positions on a hex grid ([`hex_sites`]), UEs move
//! in *global* coordinates (site-relative [`crate::mobility::RandomWalk`]
//! offsets or a vehicular [`CorridorWalk`]), and each UE sees every site
//! through the same log-distance path-loss law ([`pathloss_db`] — the
//! exact function the cell channel itself uses, so serving-link numbers
//! agree bit for bit with the isolated-cell model).
//!
//! Load-coupled interference (the femtocell-network analysis in
//! PAPERS.md): a neighbor cell only interferes in proportion to how many
//! PRBs it actually transmits on. Each cell publishes its per-epoch PRB
//! utilization `load_c ∈ [0, 1]`, and a UE's interference-plus-noise is
//!
//! ```text
//! I+N (mW) = noise_mW + Σ_{c ≠ serving} load_c · rx_mW(c → ue)
//! ```
//!
//! recomputed only at epoch boundaries ([`iplusn_dbm`]) and pushed into
//! the channel's cached `sinr_const_db` plane, so dense per-TTI kernels
//! stay branch-free.

use outran_simcore::snap::SnapError;
use outran_simcore::snap_fields;
use outran_simcore::{Dur, Rng};

use crate::mobility::Pos;

/// Log-distance path loss (dB) at `dist_m` metres.
///
/// This is the single source of truth for the path-loss law: the cell
/// channel delegates here, so network-computed neighbor losses and the
/// channel's own serving-link loss can never drift apart.
pub fn pathloss_db(ref_db: f64, exp: f64, dist_m: f64) -> f64 {
    let d = dist_m.max(1.0);
    ref_db + 10.0 * exp * d.log10()
}

/// dBm → milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Milliwatts → dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.max(1e-300).log10()
}

/// Interference-plus-noise (dBm) seen by a UE: thermal noise plus every
/// neighbor's received power scaled by that neighbor's published PRB
/// load. `neighbors` yields `(load, rx_dbm)` pairs for non-serving cells.
pub fn iplusn_dbm(noise_dbm: f64, neighbors: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut mw = dbm_to_mw(noise_dbm);
    for (load, rx_dbm) in neighbors {
        mw += load.clamp(0.0, 1.0) * dbm_to_mw(rx_dbm);
    }
    mw_to_dbm(mw)
}

/// Horizontal antenna pattern of a sectorized cell (3GPP TR 36.814):
/// `A(θ) = −min(12 (θ/θ_3dB)², A_m)` with `θ_3dB = 70°` and a 25 dB
/// front-to-back floor, where `θ` is the bearing offset from the
/// sector's boresight. Returns a gain in dB ≤ 0 (the boresight itself is
/// the 0 dB reference; element gain is folded into the configured
/// transmit power).
pub fn sector_gain_db(boresight_rad: f64, bearing_rad: f64) -> f64 {
    const THETA_3DB: f64 = 70.0 * std::f64::consts::PI / 180.0;
    const A_M: f64 = 25.0;
    let mut theta = (bearing_rad - boresight_rad) % std::f64::consts::TAU;
    if theta > std::f64::consts::PI {
        theta -= std::f64::consts::TAU;
    } else if theta < -std::f64::consts::PI {
        theta += std::f64::consts::TAU;
    }
    let t = theta / THETA_3DB;
    -(12.0 * t * t).min(A_M)
}

/// Axial-coordinate neighbor directions of a pointy-top hex grid, in the
/// canonical ring-walk order.
const HEX_DIRS: [(i64, i64); 6] = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];

/// Positions of `n` cell sites on a hexagonal layout with inter-site
/// distance `isd_m`, spiralling outward from the origin (ring 0 is the
/// centre site, ring `k` adds `6k` sites). `n = 7` is the classic one
/// ring, `n = 19` the two-ring metro layout.
pub fn hex_sites(n: usize, isd_m: f64) -> Vec<Pos> {
    assert!(n >= 1 && isd_m > 0.0);
    let to_pos = |q: i64, r: i64| Pos {
        x: isd_m * (q as f64 + r as f64 / 2.0),
        y: isd_m * (3f64.sqrt() / 2.0) * r as f64,
    };
    let mut sites = vec![to_pos(0, 0)];
    let mut ring = 1i64;
    'outer: loop {
        // Ring walk: start one step along direction 4 from the previous
        // ring's start, then take `ring` steps along each direction.
        let (mut q, mut r) = (HEX_DIRS[4].0 * ring, HEX_DIRS[4].1 * ring);
        for dir in HEX_DIRS {
            for _ in 0..ring {
                if sites.len() == n {
                    break 'outer;
                }
                sites.push(to_pos(q, r));
                q += dir.0;
                r += dir.1;
            }
        }
        ring += 1;
    }
    sites
}

/// Immutable network geometry: the fixed site positions.
#[derive(Debug, Clone)]
pub struct NetGeometry {
    sites: Vec<Pos>,
    isd_m: f64,
}

impl NetGeometry {
    /// Hexagonal layout with `n_sites` sites at inter-site distance
    /// `isd_m` (see [`hex_sites`]).
    pub fn hex(n_sites: usize, isd_m: f64) -> NetGeometry {
        NetGeometry {
            sites: hex_sites(n_sites, isd_m),
            isd_m,
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Inter-site distance (m).
    pub fn isd_m(&self) -> f64 {
        self.isd_m
    }

    /// Position of site `s`.
    pub fn site(&self, s: usize) -> Pos {
        self.sites[s]
    }

    /// Distance (m) from global position `pos` to site `s`.
    pub fn dist_to_site(&self, s: usize, pos: Pos) -> f64 {
        let dx = pos.x - self.sites[s].x;
        let dy = pos.y - self.sites[s].y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Vehicular corridor mobility: ping-pong motion along a fixed segment
/// `a → b` at constant speed — the deterministic "drive down the avenue"
/// model that forces repeated handovers across the sites it passes.
#[derive(Debug, Clone)]
pub struct CorridorWalk {
    a: Pos,
    b: Pos,
    /// Progress along the segment in `[0, 1]`.
    frac: f64,
    /// Direction of travel: `+1` toward `b`, `-1` toward `a`.
    dir: f64,
    speed_mps: f64,
}

impl CorridorWalk {
    /// Place a vehicle uniformly along the corridor with a random initial
    /// direction.
    pub fn new(a: Pos, b: Pos, speed_mps: f64, rng: &mut Rng) -> CorridorWalk {
        let frac = rng.f64();
        let dir = if rng.f64() < 0.5 { 1.0 } else { -1.0 };
        CorridorWalk {
            a,
            b,
            frac,
            dir,
            speed_mps,
        }
    }

    /// Corridor length (m).
    pub fn length_m(&self) -> f64 {
        let dx = self.b.x - self.a.x;
        let dy = self.b.y - self.a.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Current global position.
    pub fn pos(&self) -> Pos {
        Pos {
            x: self.a.x + self.frac * (self.b.x - self.a.x),
            y: self.a.y + self.frac * (self.b.y - self.a.y),
        }
    }

    /// Advance by `dt`, reflecting at both corridor ends.
    pub fn advance(&mut self, dt: Dur) {
        let len = self.length_m();
        if self.speed_mps <= 0.0 || len <= 0.0 {
            return;
        }
        let mut delta = self.speed_mps * dt.as_secs_f64() / len;
        // A round trip of two lengths brings the walk back to where it
        // was, heading the same way: fold those away (`%` is exact), so
        // the loop below reflects at most twice.
        if delta >= 2.0 {
            delta %= 2.0;
        }
        // Reflect until the remaining travel fits inside the segment.
        while delta > 0.0 {
            let room = if self.dir > 0.0 {
                1.0 - self.frac
            } else {
                self.frac
            };
            if delta <= room {
                self.frac += self.dir * delta;
                break;
            }
            self.frac += self.dir * room;
            delta -= room;
            self.dir = -self.dir;
        }
        self.frac = self.frac.clamp(0.0, 1.0);
    }

    /// Refuse a restored walk that neither `new` nor `advance` makes.
    fn check(&mut self) -> Result<(), SnapError> {
        let heading = self.dir == 1.0 || self.dir == -1.0;
        let speed = self.speed_mps.is_finite() && self.speed_mps >= 0.0;
        if !heading || !(0.0..=1.0).contains(&self.frac) || !speed {
            return Err(SnapError::Malformed("corridor walk out of range"));
        }
        Ok(())
    }
}

snap_fields! { CorridorWalk { a, b, frac, dir, speed_mps } then CorridorWalk::check }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_ring_counts() {
        assert_eq!(hex_sites(1, 500.0).len(), 1);
        assert_eq!(hex_sites(7, 500.0).len(), 7);
        assert_eq!(hex_sites(19, 500.0).len(), 19);
        // Partial rings are fine too.
        assert_eq!(hex_sites(10, 500.0).len(), 10);
    }

    #[test]
    fn first_ring_sits_at_isd() {
        let sites = hex_sites(7, 500.0);
        for s in &sites[1..] {
            let d = s.dist_origin();
            assert!((d - 500.0).abs() < 1e-9, "d={d}");
        }
        // All first-ring sites are distinct.
        for i in 1..7 {
            for j in (i + 1)..7 {
                let dx = sites[i].x - sites[j].x;
                let dy = sites[i].y - sites[j].y;
                assert!(dx.hypot(dy) > 1.0);
            }
        }
    }

    #[test]
    fn second_ring_within_two_isd() {
        let sites = hex_sites(19, 500.0);
        for s in &sites[7..] {
            let d = s.dist_origin();
            assert!(d > 500.0 + 1e-9 && d <= 2.0 * 500.0 + 1e-9, "d={d}");
        }
    }

    #[test]
    fn pathloss_matches_channel_law() {
        // Same constants as ChannelConfig::lte_default().
        let pl = pathloss_db(46.0, 3.5, 100.0);
        assert!((pl - (46.0 + 35.0 * 2.0)).abs() < 1e-9, "pl={pl}");
        // Near-field clamp at 1 m.
        assert_eq!(pathloss_db(46.0, 3.5, 0.1), 46.0);
    }

    #[test]
    fn sector_pattern_shape() {
        // Boresight is the 0 dB reference.
        assert_eq!(sector_gain_db(0.0, 0.0), 0.0);
        // 70° off boresight is the -12 dB point by construction.
        let off = 70.0 * std::f64::consts::PI / 180.0;
        assert!((sector_gain_db(0.0, off) + 12.0).abs() < 1e-9);
        // The back lobe sits on the 25 dB floor.
        assert_eq!(sector_gain_db(0.0, std::f64::consts::PI), -25.0);
        // Wrap-around: bearings are circular.
        let a = sector_gain_db(0.1, 0.1 + 6.0);
        let b = sector_gain_db(0.1, 0.1 + 6.0 - std::f64::consts::TAU);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn load_scales_interference() {
        let noise = -120.0;
        let idle = iplusn_dbm(noise, [(0.0, -90.0)].into_iter());
        let busy = iplusn_dbm(noise, [(1.0, -90.0)].into_iter());
        assert!((idle - noise).abs() < 1e-9);
        assert!(busy > idle + 20.0, "busy={busy} idle={idle}");
        // Round-trip sanity.
        assert!((dbm_to_mw(mw_to_dbm(3.5)) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn corridor_ping_pongs_and_stays_on_segment() {
        let a = Pos { x: -1000.0, y: 0.0 };
        let b = Pos { x: 1000.0, y: 0.0 };
        let mut rng = Rng::new(9);
        let mut w = CorridorWalk::new(a, b, 15.0, &mut rng);
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            w.advance(Dur::from_millis(500));
            let p = w.pos();
            assert!((-1000.0..=1000.0).contains(&p.x));
            assert!(p.y.abs() < 1e-9);
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
        }
        // 10k * 0.5 s * 15 m/s = 75 km of travel: it must have visited
        // both ends of the 2 km corridor many times.
        assert!(min_x < -990.0 && max_x > 990.0, "{min_x}..{max_x}");
    }

    #[test]
    fn corridor_snap_roundtrip() {
        use outran_simcore::snap::{Snap, SnapReader, SnapWriter, Unsnap};
        let a = Pos { x: -700.0, y: 30.0 };
        let b = Pos { x: 900.0, y: -60.0 };
        let mut rng = Rng::new(11);
        let mut w = CorridorWalk::new(a, b, 12.0, &mut rng);
        w.advance(Dur::from_secs(17));
        let mut sw = SnapWriter::new();
        w.snap(&mut sw);
        let bytes = sw.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut w2 = CorridorWalk::unsnap(&mut r).unwrap();
        assert_eq!(w.pos(), w2.pos());
        w.advance(Dur::from_secs(100));
        w2.advance(Dur::from_secs(100));
        assert_eq!(w.pos(), w2.pos());
    }

    /// Travel of many lengths in one step folds its round trips away
    /// instead of reflecting once per length.
    #[test]
    fn absurd_speed_advances_in_bounded_steps() {
        let a = Pos { x: 0.0, y: 0.0 };
        let b = Pos { x: 500.0, y: 0.0 };
        let mut w = CorridorWalk::new(a, b, 1e300, &mut Rng::new(3));
        w.advance(Dur::from_secs(1));
        assert!((0.0..=500.0).contains(&w.pos().x));
        // Two lengths exactly: back where it started, heading the same way.
        let mut w = CorridorWalk::new(a, b, 1_000.0, &mut Rng::new(4));
        let (before, dir) = (w.pos(), w.dir);
        w.advance(Dur::from_secs(1));
        assert_eq!((w.pos(), w.dir), (before, dir));
    }

    /// A restored heading of 0 left `advance` no room to move (it looped
    /// forever); a progress off the segment or a speed no walk has is
    /// refused alongside.
    #[test]
    fn corridor_restore_refuses_impossible_walks() {
        use outran_simcore::snap::{Snap, SnapReader, SnapWriter, Unsnap};
        let mut w = CorridorWalk::new(
            Pos { x: 0.0, y: 0.0 },
            Pos { x: 500.0, y: 0.0 },
            15.0,
            &mut Rng::new(5),
        );
        let restore = |w: &CorridorWalk| {
            let mut sw = SnapWriter::new();
            w.snap(&mut sw);
            CorridorWalk::unsnap(&mut SnapReader::new(&sw.into_bytes())).map(|_| ())
        };
        assert!(restore(&w).is_ok());
        for (frac, dir, speed) in [
            (0.0, 0.0, 15.0),
            (1.5, 1.0, 15.0),
            (0.5, 0.5, 15.0),
            (f64::NAN, 1.0, 15.0),
            (0.5, -1.0, -1.0),
            (0.5, 1.0, f64::INFINITY),
        ] {
            (w.frac, w.dir, w.speed_mps) = (frac, dir, speed);
            assert!(
                matches!(restore(&w), Err(SnapError::Malformed(_))),
                "frac {frac} dir {dir} speed {speed}"
            );
        }
    }
}
