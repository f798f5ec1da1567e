//! User mobility models.
//!
//! §6.2 of the paper: "UEs are positioned randomly within a 200 m radius
//! from the xNodeB having random mobility with an average walking speed of
//! 1.4 m/s." We implement a bounded random-walk (random waypoint-ish
//! direction changes) plus a static placement mode for the Colosseum-like
//! "static" scenarios of Figure 19.

use outran_simcore::{Dur, Rng};

/// 2-D position in metres, cell centre at the origin (the xNodeB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pos {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Pos {
    /// Distance from the cell centre (the base station).
    pub fn dist_origin(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// Random-walk mobility within a disc of `radius` metres.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    pos: Pos,
    speed_mps: f64,
    heading: f64,
    /// `cos` and `sin` of `heading`, recomputed wherever it is assigned
    /// (and on restore), so a step makes no trigonometric call.
    cos_h: f64,
    sin_h: f64,
    radius: f64,
    /// Mean time between heading changes.
    turn_period: Dur,
    until_turn: Dur,
    rng: Rng,
}

impl RandomWalk {
    /// Place a walker uniformly in the disc (by area) and start walking.
    ///
    /// `min_radius` keeps UEs out of the antenna near-field (and bounds
    /// the best-case path loss).
    pub fn new(radius: f64, min_radius: f64, speed_mps: f64, mut rng: Rng) -> RandomWalk {
        assert!(radius > min_radius && min_radius >= 0.0);
        // Uniform over the annulus area.
        let u = rng.f64();
        let r = (min_radius * min_radius + u * (radius * radius - min_radius * min_radius)).sqrt();
        let theta = rng.f64() * std::f64::consts::TAU;
        let heading = rng.f64() * std::f64::consts::TAU;
        RandomWalk {
            pos: Pos {
                x: r * theta.cos(),
                y: r * theta.sin(),
            },
            speed_mps,
            heading,
            cos_h: heading.cos(),
            sin_h: heading.sin(),
            radius,
            turn_period: Dur::from_secs(5),
            until_turn: Dur::from_secs(5),
            rng,
        }
    }

    /// Point the walker along `heading` (radians).
    fn set_heading(&mut self, heading: f64) {
        self.heading = heading;
        self.cos_h = heading.cos();
        self.sin_h = heading.sin();
    }

    /// Current position.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    /// Walking speed (0 = static UE).
    pub fn speed(&self) -> f64 {
        self.speed_mps
    }

    /// Advance the walker by `dt`. Reflects off the disc boundary.
    pub fn advance(&mut self, dt: Dur) {
        if self.speed_mps <= 0.0 {
            return;
        }
        let secs = dt.as_secs_f64();
        self.pos.x += self.speed_mps * secs * self.cos_h;
        self.pos.y += self.speed_mps * secs * self.sin_h;
        // Reflect at the boundary: turn back toward the centre with jitter.
        if self.pos.dist_origin() > self.radius {
            let back = self.pos.y.atan2(self.pos.x) + std::f64::consts::PI;
            let jitter = self.rng.range_f64(-0.5, 0.5);
            self.set_heading(back + jitter);
            let d = self.pos.dist_origin();
            let scale = self.radius / d;
            self.pos.x *= scale;
            self.pos.y *= scale;
        }
        // Occasional random heading changes.
        if dt >= self.until_turn {
            let heading = self.rng.f64() * std::f64::consts::TAU;
            self.set_heading(heading);
            let next = outran_simcore::Exponential::from_mean(self.turn_period.as_secs_f64())
                .sample(&mut self.rng);
            self.until_turn = Dur::from_secs_f64(next.max(0.1));
        } else {
            self.until_turn = self.until_turn - dt;
        }
    }

    /// Advance the walker by `k` steps of `step` each, as `k` separate
    /// [`RandomWalk::advance`] calls.
    ///
    /// A single `advance(step * k)` call performs *at most one* heading
    /// change no matter how many turn periods the span covers, so an
    /// event-driven idle skip that folds `k` mobility steps into one call
    /// would leave the walker (and its RNG stream) in a different state
    /// than dense stepping. Looping the single-step path instead makes
    /// idle skips bit-identical to dense stepping while leaving the
    /// per-step behaviour (and every recorded golden trace) untouched.
    pub fn advance_steps(&mut self, step: Dur, k: u64) {
        for _ in 0..k {
            self.advance(step);
        }
    }
}

use outran_simcore::snap::SnapError;
use outran_simcore::snap_fields;

snap_fields! { Pos { x, y } }

// Every field but the heading's `cos`/`sin` goes to the wire — the walker
// carries its own RNG stream, which must continue exactly where it left
// off. The two are a function of the heading and are rebuilt from it.
snap_fields! {
    RandomWalk { pos, speed_mps, heading, radius, turn_period, until_turn, rng }
    rebuilt { cos_h, sin_h }
    then rebuild_heading
}

fn rebuild_heading(walk: &mut RandomWalk) -> Result<(), SnapError> {
    walk.set_heading(walk.heading);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_position_in_annulus() {
        for seed in 0..50 {
            let w = RandomWalk::new(200.0, 10.0, 1.4, Rng::new(seed));
            let d = w.pos().dist_origin();
            assert!((10.0..=200.0).contains(&d), "d={d}");
        }
    }

    #[test]
    fn stays_inside_disc() {
        let mut w = RandomWalk::new(50.0, 5.0, 10.0, Rng::new(3));
        for _ in 0..10_000 {
            w.advance(Dur::from_millis(100));
            assert!(w.pos().dist_origin() <= 50.0 + 1e-6);
        }
    }

    #[test]
    fn static_ue_does_not_move() {
        let mut w = RandomWalk::new(200.0, 10.0, 0.0, Rng::new(4));
        let p0 = w.pos();
        for _ in 0..100 {
            w.advance(Dur::from_secs(1));
        }
        assert_eq!(w.pos(), p0);
    }

    #[test]
    fn walker_covers_distance() {
        let mut w = RandomWalk::new(10_000.0, 1.0, 1.4, Rng::new(5));
        let p0 = w.pos();
        // One step of 10 s without turning covers 14 m.
        w.advance(Dur::from_secs(1));
        let moved = ((w.pos().x - p0.x).powi(2) + (w.pos().y - p0.y).powi(2)).sqrt();
        assert!((moved - 1.4).abs() < 1e-9, "moved={moved}");
    }

    /// [`RandomWalk::advance`] as it was before the heading's `cos`/`sin`
    /// were kept: one trigonometric call per coordinate per step.
    fn advance_with_trig_per_step(w: &mut RandomWalk, dt: Dur) {
        let secs = dt.as_secs_f64();
        w.pos.x += w.speed_mps * secs * w.heading.cos();
        w.pos.y += w.speed_mps * secs * w.heading.sin();
        if w.pos.dist_origin() > w.radius {
            let back = w.pos.y.atan2(w.pos.x) + std::f64::consts::PI;
            w.heading = back + w.rng.range_f64(-0.5, 0.5);
            let d = w.pos.dist_origin();
            let scale = w.radius / d;
            w.pos.x *= scale;
            w.pos.y *= scale;
        }
        if dt >= w.until_turn {
            w.heading = w.rng.f64() * std::f64::consts::TAU;
            let next = outran_simcore::Exponential::from_mean(w.turn_period.as_secs_f64())
                .sample(&mut w.rng);
            w.until_turn = Dur::from_secs_f64(next.max(0.1));
        } else {
            w.until_turn = w.until_turn - dt;
        }
    }

    /// 10⁴ steps in a disc small enough to reflect often, with turns on
    /// their own clock: position, heading and stream equal the
    /// trig-per-step reference bit for bit after every step, and a
    /// restore mid-walk rebuilds the kept `cos`/`sin`.
    #[test]
    fn kept_heading_trig_matches_trig_per_step() {
        use outran_simcore::snap::{Snap, SnapReader, SnapWriter, Unsnap};
        let mut kept = RandomWalk::new(30.0, 2.0, 9.0, Rng::new(17));
        let mut reference = kept.clone();
        let (mut reflections, mut turns) = (0, 0);
        for step in 0..10_000 {
            if step == 5_000 {
                let mut w = SnapWriter::new();
                kept.snap(&mut w);
                let bytes = w.into_bytes();
                kept = RandomWalk::unsnap(&mut SnapReader::new(&bytes)).unwrap();
            }
            let dt = Dur::from_millis(100);
            let turn_due = dt >= reference.until_turn;
            let heading = reference.heading;
            kept.advance(dt);
            advance_with_trig_per_step(&mut reference, dt);
            turns += turn_due as u32;
            reflections += (!turn_due && reference.heading != heading) as u32;
            assert_eq!(
                kept.pos.x.to_bits(),
                reference.pos.x.to_bits(),
                "step {step}"
            );
            assert_eq!(
                kept.pos.y.to_bits(),
                reference.pos.y.to_bits(),
                "step {step}"
            );
            assert_eq!(kept.heading.to_bits(), reference.heading.to_bits());
            assert_eq!(kept.rng.state(), reference.rng.state(), "step {step}");
        }
        assert!(
            reflections > 100 && turns > 100,
            "{reflections} reflections, {turns} turns"
        );
    }

    #[test]
    fn placement_is_area_uniform() {
        // With area-uniform placement, ~75% of UEs fall beyond r/2.
        let n = 5000;
        let far = (0..n)
            .filter(|&s| {
                RandomWalk::new(200.0, 0.5, 1.4, Rng::new(1000 + s))
                    .pos()
                    .dist_origin()
                    > 100.0
            })
            .count();
        let frac = far as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac={frac}");
    }
}
