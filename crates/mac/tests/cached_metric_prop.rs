//! Property tests for the per-UE subband metric cache: a scheduler fed
//! a *versioned* rate source (cache hits whenever CQI and queue state
//! are unchanged) must produce exactly the allocations of the same
//! scheduler fed an *unversioned* source (every row recomputed from
//! scratch each TTI), across random CQI mutations, link drops, GBR
//! reservations and queue-priority churn.

use outran_mac::{OutRanScheduler, PfScheduler, RateSource, Scheduler, UeTti};
use outran_pdcp::Priority;
use outran_simcore::{Dur, Rng, Time};

/// A mutable rate world. `versioned = true` exposes per-UE content
/// versions (enabling the scheduler-side cache); `false` hides them,
/// forcing the from-scratch path. Both views always serve identical
/// rates.
#[derive(Clone)]
struct World {
    n_ues: usize,
    n_sb: usize,
    rb_to_sb: Vec<usize>,
    per_ue_sb: Vec<f64>,
    reserved: Vec<bool>,
    versions: Vec<u64>,
    versioned: bool,
}

impl World {
    fn new(n_ues: usize, n_sb: usize, rbs_per_sb: usize) -> World {
        World {
            n_ues,
            n_sb,
            rb_to_sb: (0..n_sb * rbs_per_sb).map(|rb| rb / rbs_per_sb).collect(),
            per_ue_sb: vec![0.0; n_ues * n_sb],
            reserved: vec![false; n_sb * rbs_per_sb],
            versions: vec![0; n_ues],
            versioned: true,
        }
    }

    /// Rewrite one UE's CQI row and bump its version.
    fn mutate_row(&mut self, ue: usize, rng: &mut Rng) {
        for sb in 0..self.n_sb {
            // Rate 0 (ineligible) with 20% odds, else a positive rate.
            self.per_ue_sb[ue * self.n_sb + sb] = if rng.chance(0.2) {
                0.0
            } else {
                rng.range_f64(8.0, 5000.0)
            };
        }
        self.versions[ue] += 1;
    }

    fn unversioned(&self) -> World {
        let mut w = self.clone();
        w.versioned = false;
        w
    }
}

impl RateSource for World {
    fn n_rbs(&self) -> u16 {
        self.rb_to_sb.len() as u16
    }
    fn n_ues(&self) -> usize {
        self.n_ues
    }
    fn n_subbands(&self) -> usize {
        self.n_sb
    }
    fn subband_of(&self, rb: u16) -> usize {
        self.rb_to_sb[rb as usize]
    }
    fn rate_in_subband(&self, ue: usize, sb: usize) -> f64 {
        self.per_ue_sb[ue * self.n_sb + sb]
    }
    fn rb_reserved(&self, rb: u16) -> bool {
        self.reserved[rb as usize]
    }
    fn rates_version(&self, ue: usize) -> Option<u64> {
        self.versioned.then(|| self.versions[ue])
    }
}

fn random_ues(n: usize, rng: &mut Rng) -> Vec<UeTti> {
    (0..n)
        .map(|_| {
            if rng.chance(0.25) {
                UeTti::idle()
            } else {
                UeTti {
                    active: true,
                    head_priority: rng.chance(0.8).then(|| Priority(rng.below(4) as u8)),
                    queued_bytes: 1 + rng.below(100_000),
                    oracle_min_remaining: None,
                    hol_delay: Dur::ZERO,
                    oracle_has_qos_flow: false,
                }
            }
        })
        .collect()
}

/// A random world shape: 2–6 UEs, 1–5 sub-bands of 1–3 RBs each.
fn random_world(rng: &mut Rng) -> World {
    World::new(2 + rng.index(5), 1 + rng.index(5), 1 + rng.index(3))
}

/// Drive two schedulers from `make`, one on a versioned source
/// (`cached`) and one on an unversioned source (`fresh`), through
/// `rounds` TTIs of random world churn; their allocations and serve
/// feedback must stay identical throughout.
fn run_world(make: fn(usize) -> Box<dyn Scheduler>, rounds: u32, rng: &mut Rng) {
    let mut world = random_world(rng);
    let (n_ues, n_sb) = (world.n_ues, world.n_sb);
    let (mut cached, mut fresh) = (make(n_ues), make(n_ues));
    for ue in 0..n_ues {
        world.mutate_row(ue, rng);
    }
    let mut now = Time::ZERO;
    for round in 0..rounds {
        now += Dur::from_millis(1);
        // CQI churn: most rounds leave most rows untouched (cache hits).
        for ue in 0..n_ues {
            if rng.chance(0.3) {
                world.mutate_row(ue, rng);
            }
        }
        // Link drop/restore: a zeroed row with its own version.
        if rng.chance(0.15) {
            let ue = rng.index(n_ues);
            for sb in 0..n_sb {
                world.per_ue_sb[ue * n_sb + sb] = 0.0;
            }
            world.versions[ue] += 1;
        }
        // GBR reservations move every round *without* a version bump —
        // the cache must stay correct because cached metrics are
        // reservation-independent and reserved RBs are skipped.
        for r in world.reserved.iter_mut() {
            *r = rng.chance(0.2);
        }
        let ues = random_ues(n_ues, rng);
        let a = cached.allocate(now, &ues, &world);
        let b = fresh.allocate(now, &ues, &world.unversioned());
        assert_eq!(
            &a.rb_to_ue, &b.rb_to_ue,
            "round {}: cached {:?} != fresh {:?}",
            round, a.rb_to_ue, b.rb_to_ue
        );
        assert_eq!(
            &a.bits_per_ue, &b.bits_per_ue,
            "round {}: bits diverged",
            round
        );
        // Identical serve feedback keeps the PF EWMA states in lockstep.
        cached.on_served(&a.bits_per_ue);
        fresh.on_served(&b.bits_per_ue);
    }
}

const TF: Dur = Dur::from_millis(1000);
const TTI: Dur = Dur::from_millis(1);

#[test]
fn cached_pf_matches_from_scratch() {
    outran_simcore::check("cached_pf_matches_from_scratch", 24, |rng| {
        run_world(|n| Box::new(PfScheduler::with_tf(n, TF, TTI)), 40, rng);
    });
}

#[test]
fn cached_outran_matches_from_scratch() {
    outran_simcore::check("cached_outran_matches_from_scratch", 24, |rng| {
        run_world(
            |n| Box::new(OutRanScheduler::over_pf(n, TF, TTI, 0.2)),
            40,
            rng,
        );
    });
}

#[test]
fn cached_mt_matches_per_rb_brute_force() {
    // MT is stateless, so the reference can be rebuilt from first
    // principles: per free RB, strict argmax over positive rates.
    outran_simcore::check("cached_mt_matches_per_rb_brute_force", 24, |rng| {
        let mut world = random_world(rng);
        let mut mt = OutRanScheduler::mt();
        let mut now = Time::ZERO;
        for _ in 0..40 {
            now += Dur::from_millis(1);
            for ue in 0..world.n_ues {
                if rng.chance(0.4) {
                    world.mutate_row(ue, rng);
                }
            }
            for r in world.reserved.iter_mut() {
                *r = rng.chance(0.2);
            }
            let ues = random_ues(world.n_ues, rng);
            let got = mt.allocate(now, &ues, &world);
            let want: Vec<Option<u16>> = (0..world.n_rbs())
                .map(|rb| {
                    if world.reserved[rb as usize] {
                        return None;
                    }
                    let mut best = None;
                    let mut best_r = 0.0;
                    for (u, ue) in ues.iter().enumerate() {
                        if !ue.active {
                            continue;
                        }
                        let r = world.rate_in_subband(u, world.subband_of(rb));
                        if r > best_r {
                            best_r = r;
                            best = Some(u as u16);
                        }
                    }
                    best
                })
                .collect();
            assert_eq!(&got.rb_to_ue, &want);
        }
    });
}
