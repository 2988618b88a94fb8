//! Q32.32 unsigned fixed-point arithmetic for deterministic decision
//! math.
//!
//! Every *decision* threshold in the metered crates — the adaptive
//! hot-block share, the migration trigger and target ratios — goes
//! through [`Fx`] instead of `f64`. The two differ
//! where it matters: `f64` rounding is sensitive to the architecture,
//! the FPU flags, and the optimizer's re-association, while a Q32.32
//! integer computes bit-identically on every target. The `pimtrie-lint`
//! `float-determinism` rule enforces the routing; this module is the
//! sanctioned destination it points at.
//!
//! Construction is exact from integer ratios ([`Fx::from_milli`],
//! [`Fx::ratio`]) and *lossy only at the public API boundary*
//! ([`Fx::from_f64_lossy`]) — a caller handing in `0.05` gets the
//! nearest representable Q32.32 value, and everything downstream of
//! that single rounding is exact integer arithmetic.
//!
//! Representation: `Fx(raw)` encodes the value `raw / 2^32`, so the
//! range is `[0, 2^32)` with a resolution of `2^-32 ≈ 2.3e-10` —
//! comfortably finer than any threshold the paper states (shares,
//! balance ratios, percentile ranks are all quantized far coarser by
//! their integer numerators).

// lint: allow-file(float-determinism) — this module IS the sanctioned
// f64 boundary: the two `f64` conversions below are the single lossy
// entry/exit points the rule routes everything else through

/// An unsigned Q32.32 fixed-point number: `raw / 2^32`.
///
/// Ordering and equality are the raw integer's, so `Fx` can key maps
/// and drive `max_by` deterministically. Arithmetic that could round
/// always floors, and says so in its name or docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fx(u64);

impl Fx {
    /// The number of fractional bits.
    pub const FRAC_BITS: u32 = 32;
    /// Exactly 0.
    pub const ZERO: Fx = Fx(0);
    /// Exactly 1/2.
    pub const HALF: Fx = Fx(1 << 31);
    /// Exactly 1.
    pub const ONE: Fx = Fx(1 << 32);

    /// Construct from raw Q32.32 bits (`raw / 2^32`).
    pub const fn from_raw(raw: u64) -> Fx {
        Fx(raw)
    }

    /// The raw Q32.32 bits.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Exactly `milli / 1000` — rounded to nearest only when `2^32 ·
    /// milli` is not divisible by 1000 (i.e. the same value every build
    /// computes, with no floating point involved). `Fx::from_milli(250)`
    /// is the idiomatic spelling of a 0.25 share.
    pub const fn from_milli(milli: u64) -> Fx {
        Fx(((((milli as u128) << Self::FRAC_BITS) + 500) / 1000) as u64)
    }

    /// `floor(num / den · 2^32)` — the exact ratio of two counters,
    /// floored to Q32.32. `den == 0` saturates to [`Fx::MAX`].
    pub const fn ratio(num: u64, den: u64) -> Fx {
        if den == 0 {
            return Fx::MAX;
        }
        Fx((((num as u128) << Self::FRAC_BITS) / den as u128) as u64)
    }

    /// The largest representable value.
    pub const MAX: Fx = Fx(u64::MAX);

    /// Nearest representable value to `v`; clamps negatives to zero and
    /// anything `≥ 2^32` to [`Fx::MAX`]. **This is the lossy API
    /// boundary** — call it once, on input, and stay in `Fx` after.
    pub fn from_f64_lossy(v: f64) -> Fx {
        if v.is_nan() || v <= 0.0 {
            return Fx::ZERO;
        }
        let scaled = v * (1u64 << Self::FRAC_BITS) as f64;
        if scaled >= u64::MAX as f64 {
            return Fx::MAX;
        }
        Fx(scaled.round() as u64)
    }

    /// [`from_f64_lossy`](Self::from_f64_lossy) with domain checking:
    /// `None` for NaN, infinities and negatives instead of clamping —
    /// for API boundaries that must *reject* bad input rather than
    /// silently disable a feature.
    pub fn from_f64_checked(v: f64) -> Option<Fx> {
        if !v.is_finite() || v < 0.0 {
            return None;
        }
        Some(Self::from_f64_lossy(v))
    }

    /// The value as `f64`, for display and JSON export only — never
    /// compare or branch on the result in metered code.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1u64 << Self::FRAC_BITS) as f64
    }

    /// `floor(self · x)` — apply a fractional threshold to a counter
    /// (e.g. `share.mul_u64(total_words)` is the hot-block floor).
    pub const fn mul_u64(self, x: u64) -> u64 {
        ((self.0 as u128 * x as u128) >> Self::FRAC_BITS) as u64
    }

    /// Is this exactly zero? (`0` is the conventional "disabled"
    /// sentinel for optional thresholds.)
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl core::fmt::Display for Fx {
    /// Renders as a decimal with enough digits to round-trip the milli
    /// constructors (`1.2`, `0.75`, …) the way humans wrote them.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut int = self.0 >> Self::FRAC_BITS;
        // 6 decimal digits of the fraction, rounded, in pure integers
        let mut frac =
            (((self.0 & 0xffff_ffff) as u128 * 1_000_000 + (1 << 31)) >> Self::FRAC_BITS) as u64;
        if frac == 1_000_000 {
            int += 1;
            frac = 0;
        }
        if frac == 0 {
            return write!(f, "{int}");
        }
        let s = format!("{frac:06}");
        write!(f, "{int}.{}", s.trim_end_matches('0'))
    }
}

/// `ceil(log2(x))` for `x ≥ 1`, in pure integers — the `lg` every
/// `K_B = log² P`-style parameter derivation needs, without the
/// `(x as f64).log2().ceil()` detour through libm.
pub const fn ceil_log2(x: usize) -> u64 {
    if x <= 1 {
        return 0;
    }
    (usize::BITS - (x - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milli_constants_are_what_the_paper_wrote() {
        assert_eq!(Fx::from_milli(750), Fx::from_raw(3 << 30)); // 0.75 exact
        assert_eq!(Fx::from_milli(500), Fx::HALF);
        assert_eq!(Fx::from_milli(1000), Fx::ONE);
        assert_eq!(Fx::from_milli(1200).to_f64(), 1.1999999999534339);
        assert_eq!(format!("{}", Fx::from_milli(1200)), "1.2");
        assert_eq!(format!("{}", Fx::from_milli(750)), "0.75");
        assert_eq!(format!("{}", Fx::ONE), "1");
    }

    #[test]
    fn lossy_boundary_rounds_and_clamps() {
        assert_eq!(Fx::from_f64_lossy(0.05), Fx::from_milli(50));
        assert_eq!(Fx::from_f64_lossy(0.02), Fx::from_milli(20));
        assert_eq!(Fx::from_f64_lossy(-3.0), Fx::ZERO);
        assert_eq!(Fx::from_f64_lossy(f64::NAN), Fx::ZERO);
        assert_eq!(Fx::from_f64_lossy(1e300), Fx::MAX);
    }

    #[test]
    fn threshold_floor_matches_the_old_float_path() {
        // the adaptive hot-block floor used to be
        // `(total as f64 * threshold) as u64`; the Fx floor must agree
        // on every window size the tracker can hold, for every
        // threshold the tests and benches actually pass
        for &milli in &[20u64, 50, 100, 250, 750] {
            let fx = Fx::from_milli(milli);
            let f = milli as f64 / 1000.0;
            for total in (0..100_000u64).step_by(7).chain([1 << 20, 1 << 30]) {
                assert_eq!(
                    fx.mul_u64(total),
                    (total as f64 * f) as u64,
                    "milli={milli} total={total}"
                );
            }
        }
    }

    #[test]
    fn ratio_compares_like_the_exact_rational() {
        // `ratio(n, d) > from_milli(1200)` must agree with the exact
        // `5n > 6d` for every counter pair small enough to occur
        let trig = Fx::from_milli(1200);
        for d in 1..500u64 {
            for n in 0..(2 * d) {
                assert_eq!(Fx::ratio(n, d) > trig, 5 * n > 6 * d, "n={n} d={d}");
            }
        }
        assert_eq!(Fx::ratio(1, 0), Fx::MAX);
    }

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
        assert_eq!(ceil_log2(1 << 20), 20);
        for p in 2..4096usize {
            assert_eq!(ceil_log2(p), (p as f64).log2().ceil() as u64, "p={p}");
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Fx::ZERO < Fx::HALF);
        assert!(Fx::HALF < Fx::ONE);
        assert!(Fx::from_milli(1100) < Fx::from_milli(1200));
        assert!(Fx::from_milli(50) > Fx::ZERO);
    }
}
