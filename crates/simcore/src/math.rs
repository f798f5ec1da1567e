//! The elementary functions whose bits the simulation depends on,
//! implemented locally for the same reason [`Rng`](crate::Rng) is: so the
//! stream can never change underneath us. [`Normal::fill`](crate::Normal::fill)
//! computes every Gaussian of the per-TTI fading advance through the two
//! Box–Muller kernels, so the fading taps do not depend on which libm the
//! host ships. [`ln_positive`] is also the logarithm under the PHY channel's
//! CQI classifier, which only ever uses it as an approximation it then
//! certifies against the host's `log10` (`outran-phy`, `channel.rs`).
//! [`cbrt`] is Cubic's cube root (`outran-transport`): glibc's shared and
//! static libm disagree on `cbrt` by an ulp for about half of all inputs,
//! so a libm call would make the sender's `K` depend on how the binary
//! was linked.
//!
//! The Box–Muller kernels are straight-line code (no branch, no call, no
//! table), which is what lets the loop in `fill` pipeline: libm's `cos`
//! spends most of its time on mispredicted range-reduction branches when
//! its arguments are random. The polynomials and their coefficients are
//! fdlibm's (`k_sin.c`, `k_cos.c`, `e_log.c`; Sun Microsystems, freely
//! distributable) and keep fdlibm's names; each is written as the shortest
//! decimal that parses to fdlibm's double.
//!
//! `cos_tau` and [`ln_positive`] are specialised to the domain stated on
//! each and are **not** general replacements for `f64::cos` / `f64::ln`
//! outside it; [`cbrt`] is correctly rounded for every `f64`.

use std::f64::consts::TAU;

// k_sin.c
const S1: f64 = -0.166_666_666_666_666_32;
const S2: f64 = 8.333_333_333_322_49e-3;
const S3: f64 = -1.984_126_982_985_795e-4;
const S4: f64 = 2.755_731_370_707_006_8e-6;
const S5: f64 = -2.505_076_025_340_686_3e-8;
const S6: f64 = 1.589_690_995_211_55e-10;

// k_cos.c
const C1: f64 = 4.166_666_666_666_66e-2;
const C2: f64 = -1.388_888_888_887_411e-3;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_3e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;

// e_log.c
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LG1: f64 = 0.666_666_666_666_673_5;
const LG2: f64 = 0.399_999_999_994_094_2;
const LG3: f64 = 0.285_714_287_436_623_9;
const LG4: f64 = 0.222_221_984_321_497_84;
const LG5: f64 = 0.181_835_721_616_180_5;
const LG6: f64 = 0.153_138_376_992_093_73;
const LG7: f64 = 0.147_981_986_051_165_86;

/// High word of `√½`; adding `ONE_HI - SQRT_HALF_HI` to a positive
/// double's high word carries into the exponent exactly when the
/// mantissa is at or above `√2`.
const SQRT_HALF_HI: u64 = 0x3fe6_a09e;
const ONE_HI: u64 = 0x3ff0_0000;

/// `1.5·2⁵²`: a double this large has an ulp of exactly 1, so adding it
/// rounds the other addend to the nearest integer, which then sits in
/// the sum's low mantissa bits (and comes back out by subtraction).
const ROUND_TO_INT: f64 = 6_755_399_441_055_744.0;

/// `cos(2πu)` for `u ∈ [0, 1)`.
///
/// The quadrant is reduced in the `u` domain, where it is exact: with
/// `q = round(4u) ∈ 0..=4`, `r = u − q/4 ∈ [−⅛, ⅛]` has no rounding
/// error, so the only error ahead of the polynomials is the one rounding
/// of `2π·r` (libm's `(TAU * u).cos()` rounds `TAU * u` at up to eight
/// times the magnitude). Both fdlibm kernels run on
/// `x = 2πr ∈ [−π/4, π/4]` and the quadrant picks one and its sign by
/// bit mask. `q` is rounded by `ROUND_TO_INT` rather than an `as i32`
/// cast, whose saturation checks keep the loop in `fill` from staying in
/// vector registers (measured: ~10 % of the per-value cost).
#[inline]
pub(crate) fn cos_tau(u: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&u), "u={u}");
    let m = 4.0 * u + ROUND_TO_INT;
    let q = m.to_bits(); // low two bits: q mod 4
    let x = TAU * (u - 0.25 * (m - ROUND_TO_INT));
    let z = x * x;
    let w = z * z;
    // k_sin with y = 0.
    let sin = x + (z * x) * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    // k_cos with y = 0, in its branch-free form.
    let r = z * (C1 + z * (C2 + z * C3)) + (w * w) * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let a = 1.0 - hz;
    let cos = a + (((1.0 - a) - hz) + z * r);
    // q mod 4:  0 → cos x,  1 → −sin x,  2 → −cos x,  3 → sin x.
    let take_sin = 0u64.wrapping_sub(q & 1);
    let negate = ((q + 1) >> 1) & 1;
    let picked = (sin.to_bits() & take_sin) | (cos.to_bits() & !take_sin);
    f64::from_bits(picked ^ (negate << 63))
}

/// `ln(x)` for any positive, normal, finite `x` (in use: the Box–Muller
/// radius, `x ∈ [2⁻⁵³, 1]`, and the channel's fading power, `x ≥ 1e-12`).
///
/// fdlibm's `e_log` without its special cases (zero, subnormal, negative,
/// infinite and NaN inputs give garbage, not an error): `x = 2ᵏ·(1 + f)`
/// with `1 + f ∈ [√½, √2)`, `s = f / (2 + f)`, and
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))`; under 1 ulp of error.
/// Returns exactly `0.0` at `x = 1.0` and a negative value everywhere
/// below it, so `(-2.0 * ln_positive(x)).sqrt()` is never NaN for
/// `x ≤ 1`.
#[inline]
pub fn ln_positive(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "x={x}");
    let bits = x.to_bits();
    let hi = (bits >> 32) + (ONE_HI - SQRT_HALF_HI);
    let k = (hi >> 20) as i32 - 0x3ff;
    let hi = (hi & 0x000f_ffff) + SQRT_HALF_HI;
    let f = f64::from_bits((hi << 32) | (bits & 0xffff_ffff)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let dk = f64::from(k);
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// The sign bit and the fraction field of an `f64`.
const SIGN: u64 = 1 << 63;
const FRAC: u64 = (1 << 52) - 1;

/// A guess at `∛t` from `t`'s bits: a third of the biased exponent and
/// fraction, plus two thirds of `1.0`'s bits, so that `∛1 = 1`. Within
/// 6 % for `t ∈ [1, 8)`.
const CBRT_GUESS: u64 = 0x2aa0_0000_0000_0000;

/// `∛x`, correctly rounded (to nearest) for every `f64`: `±0`, `±∞` and
/// NaN return themselves, and `∛−x = −∛x`.
///
/// `|x| = t·2³ᵏ` with `t ∈ [1, 8)`, so `∛|x| = ∛t·2ᵏ` and the doubles
/// around `∛t ∈ [1, 2)` are the grid `n·2⁻⁵²`, `n ∈ [2⁵², 2⁵³]`. Three
/// Halley steps from a guess read off `t`'s bits land `n` within a few
/// ulps; then `n` moves one ulp at a time until the midpoints
/// `(2n ± 1)·2⁻⁵³` on either side bracket `∛t`, which is decided exactly
/// on integers, by cubing them against `t·2¹⁵⁹`. The result is exact by construction; the
/// floating-point steps only decide how few ulps it walks. No midpoint is
/// the cube root of a double (its cube is an odd integer above 2¹⁵⁹,
/// times 2⁻¹⁵⁹: more than 53 significant bits), so there is never a tie.
#[must_use]
pub fn cbrt(x: f64) -> f64 {
    let bits = x.to_bits() & !SIGN;
    if bits == 0 || bits >= f64::INFINITY.to_bits() {
        return x;
    }
    // |x| = m·2^(e − 52) with m ∈ [2⁵², 2⁵³); subnormals normalised.
    let (m, e) = if bits >> 52 == 0 {
        let shift = bits.leading_zeros() - 11;
        (bits << shift, -1022 - shift as i32)
    } else {
        ((bits & FRAC) | 1 << 52, (bits >> 52) as i32 - 1023)
    };
    let (k, j) = (e.div_euclid(3), e.rem_euclid(3) as u64);
    let t = f64::from_bits((1023 + j) << 52 | (m & FRAC));
    let mut y = f64::from_bits(t.to_bits() / 3 + CBRT_GUESS);
    for _ in 0..3 {
        let y3 = y * y * y;
        y *= (y3 + 2.0 * t) / (2.0 * y3 + t);
    }
    let mut n = ((y * 4_503_599_627_370_496.0) as u64).clamp(1 << 52, 1 << 53);
    // t·2¹⁵⁹ = m·2^(107 + j), as (⌊·/2⁶⁴⌋, · mod 2⁶⁴).
    let t = (u128::from(m) << (43 + j), 0);
    while cube(2 * n + 1) < t {
        n += 1;
    }
    while cube(2 * n - 1) > t {
        n -= 1;
    }
    // k ∈ [−358, 341]; n = 2⁵³ carries into the exponent: 2ᵏ⁺¹.
    let exp = (1023 + k) as u64;
    f64::from_bits(((exp << 52) + (n - (1 << 52))) | (x.to_bits() & SIGN))
}

/// `n³` for `n < 2⁵⁵`, as `(⌊n³ / 2⁶⁴⌋, n³ mod 2⁶⁴)`, which order as
/// `n³` does.
fn cube(n: u64) -> (u128, u64) {
    let n = u128::from(n);
    let sq = n * n;
    let lo = (sq & u128::from(u64::MAX)) * n;
    ((sq >> 64) * n + (lo >> 64), lo as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    const N: usize = 1_000_000;

    fn check_cos(u: f64) {
        let got = cos_tau(u);
        let want = (TAU * u).cos();
        assert!((got - want).abs() <= 1e-15, "u={u:e} got={got} want={want}");
        assert!(got.abs() <= 1.0, "u={u:e} got={got}");
    }

    fn check_ln(x: f64) {
        let got = ln_positive(x);
        let want = x.ln();
        assert!(
            (got - want).abs() <= 4e-16 * want.abs(),
            "x={x:e} got={got} want={want}"
        );
        assert_eq!(got <= 0.0, x <= 1.0, "x={x:e} got={got}");
    }

    #[test]
    fn cos_tau_matches_libm_on_seeded_inputs() {
        let mut rng = Rng::new(0xC05);
        for _ in 0..N {
            check_cos(rng.f64());
        }
    }

    #[test]
    fn cos_tau_edges() {
        let eps = 2f64.powi(-53);
        check_cos(1.0 - eps);
        for i in 0..8 {
            // Every quadrant boundary (odd i) and axis (even i), and the
            // nearest inputs on either side.
            let u = f64::from(i) / 8.0;
            check_cos(u);
            check_cos(u + eps);
            if i > 0 {
                check_cos(u - eps);
            }
        }
        // On the axes the reduction leaves r = 0: exact answers.
        assert_eq!(cos_tau(0.0), 1.0);
        assert_eq!(cos_tau(0.25), 0.0);
        assert_eq!(cos_tau(0.5), -1.0);
        assert_eq!(cos_tau(0.75), 0.0);
    }

    #[test]
    fn ln_positive_matches_libm_on_seeded_inputs() {
        let mut rng = Rng::new(0x109);
        for _ in 0..N {
            check_ln(rng.f64_open());
        }
        // `f64_open` almost never lands below 2⁻²⁰; sweep the exponents
        // the draw can reach with random mantissas, and as far above 1
        // as a fading power can get.
        for _ in 0..N / 10 {
            let e = rng.below(53) as i32;
            check_ln(rng.f64_open() * 2f64.powi(-e));
            check_ln(rng.f64_open() * 2f64.powi(e));
        }
    }

    #[test]
    fn ln_positive_edges() {
        let eps = 2f64.powi(-53);
        assert_eq!(ln_positive(1.0).to_bits(), 0.0f64.to_bits());
        check_ln(f64::MIN_POSITIVE);
        check_ln(f64::MAX);
        check_ln(1.0 + f64::EPSILON);
        check_ln(1.0 - eps);
        check_ln(eps);
        check_ln(0.5);
        // Both sides of the √½ normalisation seam, bit by bit.
        let seam = std::f64::consts::FRAC_1_SQRT_2.to_bits();
        for b in seam - 4..=seam + 4 {
            check_ln(f64::from_bits(b));
        }
        // ... and of the high-word boundary the seam is decided on.
        let hi = SQRT_HALF_HI << 32;
        for b in hi - 4..=hi + 4 {
            check_ln(f64::from_bits(b));
        }
    }

    /// A positive finite double as `(m, e)`: its value is `m·2ᵉ` exactly.
    fn decode(bits: u64) -> (u64, i32) {
        let (exp, frac) = ((bits >> 52) as i32, bits & FRAC);
        if exp == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, exp - 1075)
        }
    }

    /// A 256-bit unsigned integer, least significant limb first.
    type Wide = [u64; 4];

    fn wide_mul(a: Wide, b: u64) -> Wide {
        let mut out = [0; 4];
        let mut carry = 0u128;
        for (o, &a) in out.iter_mut().zip(&a) {
            let p = u128::from(a) * u128::from(b) + carry;
            *o = p as u64;
            carry = p >> 64;
        }
        assert_eq!(carry, 0, "product past 256 bits");
        out
    }

    fn wide_shl(a: Wide, s: u32) -> Wide {
        let mut out = [0; 4];
        for bit in 0..256 {
            if a[bit / 64] >> (bit % 64) & 1 == 1 {
                let to = bit + s as usize;
                assert!(to < 256, "shift past 256 bits");
                out[to / 64] |= 1 << (to % 64);
            }
        }
        out
    }

    /// Whether `x < mid³`, where `mid` is the midpoint of the adjacent
    /// positive doubles `lo < hi`: exact, on integers only.
    fn below_midpoint_cubed(x: u64, lo: u64, hi: u64) -> bool {
        let ((ml, el), (mh, eh)) = (decode(lo), decode(hi));
        let e = el.min(eh);
        let m = (ml << (el - e)) + (mh << (eh - e)); // mid = m·2^(e − 1)
        let (mx, ex) = decode(x);
        let cube = wide_mul(wide_mul([m, 0, 0, 0], m), m);
        let d = ex - 3 * (e - 1);
        let (lhs, rhs) = if d >= 0 {
            (wide_shl([mx, 0, 0, 0], d as u32), cube)
        } else {
            ([mx, 0, 0, 0], wide_shl(cube, (-d) as u32))
        };
        lhs.iter().rev().lt(rhs.iter().rev())
    }

    /// `y` is `∛x` rounded to nearest: the midpoints between `y` and its
    /// neighbours bracket `∛x`, i.e. their cubes bracket `x`.
    fn assert_correctly_rounded(x: f64) {
        let (xb, yb) = (x.to_bits(), cbrt(x).to_bits());
        assert!(
            0 < yb && yb < f64::INFINITY.to_bits(),
            "x={x:e} y bits {yb:#x}"
        );
        assert!(
            !below_midpoint_cubed(xb, yb - 1, yb),
            "x={x:e}: ∛x below the midpoint under y bits {yb:#x}"
        );
        assert!(
            below_midpoint_cubed(xb, yb, yb + 1),
            "x={x:e}: ∛x above the midpoint over y bits {yb:#x}"
        );
    }

    #[test]
    fn cbrt_is_correctly_rounded_on_seeded_sweep() {
        let mut rng = Rng::new(0xCB27);
        // Every exponent, normal and subnormal, with random fractions.
        for _ in 0..150_000 {
            let exp = rng.below(2047);
            assert_correctly_rounded(f64::from_bits(exp << 52 | (rng.next_u64_raw() & FRAC)));
        }
        // Each of the three reductions around powers of two, both sides,
        // and the top of [1, 8), where ∛t rounds up to 2.
        for exp in [1, 2, 3, 1021, 1022, 1023, 1024, 1025, 2044, 2045, 2046] {
            for frac in [0, 1, 2, FRAC - 1, FRAC] {
                assert_correctly_rounded(f64::from_bits(exp << 52 | frac));
            }
        }
        for bits in [1, 2, 3, FRAC - 1, FRAC, FRAC + 1] {
            assert_correctly_rounded(f64::from_bits(bits));
        }
        assert_correctly_rounded(f64::MAX);
        assert_correctly_rounded(f64::MIN_POSITIVE);
        assert_eq!(cbrt(8.0 - 4.0 * f64::EPSILON), 2.0);
    }

    #[test]
    fn cbrt_edges() {
        assert_eq!(cbrt(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(cbrt(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(cbrt(f64::INFINITY), f64::INFINITY);
        assert_eq!(cbrt(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(cbrt(f64::NAN).is_nan());
        assert!(cbrt(-f64::NAN).is_nan());
        // Exact cubes, subnormal 2⁻¹⁰⁷⁴ = (2⁻³⁵⁸)³ included.
        for (x, y) in [
            (1.0, 1.0),
            (8.0, 2.0),
            (27.0, 3.0),
            (0.125, 0.5),
            (1_881_365_963_625.0, 12_345.0),
            (2f64.powi(300), 2f64.powi(100)),
            (2f64.powi(-300), 2f64.powi(-100)),
            (f64::from_bits(1), 2f64.powi(-358)),
        ] {
            assert_eq!(cbrt(x), y, "x={x:e}");
            assert_eq!(cbrt(-x), -y, "x={x:e}");
        }
        // ∛−x = −∛x, bit for bit.
        let mut rng = Rng::new(0xCB28);
        for _ in 0..1_000 {
            let x = f64::from_bits(rng.next_u64_raw() & !SIGN);
            if x.is_finite() {
                assert_eq!(cbrt(-x).to_bits(), cbrt(x).to_bits() | SIGN, "x={x:e}");
            }
        }
    }
}
