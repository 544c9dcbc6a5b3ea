//! Complex number type used across the workspace.
//!
//! The layout is `#[repr(C)]` `(re, im)`, so a `&[Complex32]` can be viewed as
//! an interleaved `&[f32]` of twice the length (and vice versa) — exactly the
//! layout the SIMD convolution kernels and the FFT butterflies operate on.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number over `f32` or `f64`.
///
/// Interleaved-layout compatible: `[Complex<T>; N]` has the same memory layout
/// as `[T; 2*N]` with alternating real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex number, the grid element type of the NUFFT.
pub type Complex32 = Complex<f32>;
/// Double-precision complex number, used in precomputation and oracles.
pub type Complex64 = Complex<f64>;

impl<T: fmt::Debug> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: fmt::Display> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}+{}i)", self.re, self.im)
    }
}

macro_rules! impl_complex {
    ($t:ty) => {
        impl Complex<$t> {
            /// The additive identity.
            pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
            /// The multiplicative identity.
            pub const ONE: Self = Self { re: 1.0, im: 0.0 };
            /// The imaginary unit.
            pub const I: Self = Self { re: 0.0, im: 1.0 };

            /// Creates a complex number from its rectangular parts.
            #[inline(always)]
            pub const fn new(re: $t, im: $t) -> Self {
                Self { re, im }
            }

            /// Creates a purely real complex number.
            #[inline(always)]
            pub const fn from_re(re: $t) -> Self {
                Self { re, im: 0.0 }
            }

            /// Creates a complex number from polar form `r · e^{iθ}`.
            #[inline]
            pub fn from_polar(r: $t, theta: $t) -> Self {
                let (s, c) = theta.sin_cos();
                Self { re: r * c, im: r * s }
            }

            /// `e^{iθ}` — a unit phasor; the workhorse of DFT twiddles.
            #[inline]
            pub fn cis(theta: $t) -> Self {
                Self::from_polar(1.0, theta)
            }

            /// Complex conjugate.
            #[inline(always)]
            pub fn conj(self) -> Self {
                Self { re: self.re, im: -self.im }
            }

            /// Squared magnitude `re² + im²`.
            #[inline(always)]
            pub fn norm_sqr(self) -> $t {
                self.re * self.re + self.im * self.im
            }

            /// Magnitude `|z|`.
            #[inline]
            pub fn abs(self) -> $t {
                self.norm_sqr().sqrt()
            }

            /// Argument (phase) in `(-π, π]`.
            #[inline]
            pub fn arg(self) -> $t {
                self.im.atan2(self.re)
            }

            /// Multiplication by `i` (a quarter-turn), cheaper than a full mul.
            #[inline(always)]
            pub fn mul_i(self) -> Self {
                Self { re: -self.im, im: self.re }
            }

            /// Multiplication by `-i`.
            #[inline(always)]
            pub fn mul_neg_i(self) -> Self {
                Self { re: self.im, im: -self.re }
            }

            /// Scales both parts by a real factor.
            #[inline(always)]
            pub fn scale(self, s: $t) -> Self {
                Self { re: self.re * s, im: self.im * s }
            }

            /// Reciprocal `1/z`; `z` must be nonzero.
            #[inline]
            pub fn recip(self) -> Self {
                let d = self.norm_sqr();
                Self { re: self.re / d, im: -self.im / d }
            }

            /// Fused multiply-accumulate `self + a*b` written to encourage FMA
            /// contraction by the optimizer. Outside FMA-enabled code each
            /// `mul_add` below is an out-of-line libm call; keep it off hot
            /// paths.
            #[inline(always)]
            #[allow(clippy::disallowed_methods)] // reason: the fused operation is this method's contract
            pub fn mul_add(self, a: Self, b: Self) -> Self {
                Self {
                    re: a.re.mul_add(b.re, (-a.im).mul_add(b.im, self.re)),
                    im: a.re.mul_add(b.im, a.im.mul_add(b.re, self.im)),
                }
            }

            /// Complex exponential `e^z`.
            #[inline]
            pub fn exp(self) -> Self {
                Self::from_polar(self.re.exp(), self.im)
            }

            /// Reinterprets a complex slice as its interleaved scalar parts.
            #[inline]
            pub fn as_interleaved(slice: &[Self]) -> &[$t] {
                // SAFETY: Complex<T> is #[repr(C)] { re: T, im: T }, so the
                // layouts of [Complex<T>; n] and [T; 2n] coincide exactly.
                unsafe { core::slice::from_raw_parts(slice.as_ptr().cast(), slice.len() * 2) }
            }

            /// Reinterprets a mutable complex slice as interleaved scalars.
            #[inline]
            pub fn as_interleaved_mut(slice: &mut [Self]) -> &mut [$t] {
                // SAFETY: see `as_interleaved`.
                unsafe {
                    core::slice::from_raw_parts_mut(slice.as_mut_ptr().cast(), slice.len() * 2)
                }
            }

            /// Reinterprets an interleaved scalar slice as complex numbers.
            ///
            /// # Panics
            /// Panics if the length is odd.
            #[inline]
            pub fn from_interleaved(slice: &[$t]) -> &[Self] {
                assert!(slice.len() % 2 == 0, "interleaved slice must have even length");
                // SAFETY: layout equivalence as above; alignment of Complex<T>
                // equals the alignment of T.
                unsafe { core::slice::from_raw_parts(slice.as_ptr().cast(), slice.len() / 2) }
            }
        }

        impl From<$t> for Complex<$t> {
            #[inline]
            fn from(re: $t) -> Self {
                Self::from_re(re)
            }
        }

        impl Add for Complex<$t> {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                Self { re: self.re + rhs.re, im: self.im + rhs.im }
            }
        }

        impl Sub for Complex<$t> {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                Self { re: self.re - rhs.re, im: self.im - rhs.im }
            }
        }

        impl Mul for Complex<$t> {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                Self {
                    re: self.re * rhs.re - self.im * rhs.im,
                    im: self.re * rhs.im + self.im * rhs.re,
                }
            }
        }

        impl Mul<$t> for Complex<$t> {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: $t) -> Self {
                self.scale(rhs)
            }
        }

        impl Div for Complex<$t> {
            type Output = Self;
            #[inline]
            // Complex division genuinely is multiplication by the
            // reciprocal; the lint targets copy-paste operator mistakes.
            #[allow(clippy::suspicious_arithmetic_impl)]
            fn div(self, rhs: Self) -> Self {
                self * rhs.recip()
            }
        }

        impl Div<$t> for Complex<$t> {
            type Output = Self;
            #[inline]
            fn div(self, rhs: $t) -> Self {
                Self { re: self.re / rhs, im: self.im / rhs }
            }
        }

        impl Neg for Complex<$t> {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                Self { re: -self.re, im: -self.im }
            }
        }

        impl AddAssign for Complex<$t> {
            #[inline(always)]
            fn add_assign(&mut self, rhs: Self) {
                self.re += rhs.re;
                self.im += rhs.im;
            }
        }

        impl SubAssign for Complex<$t> {
            #[inline(always)]
            fn sub_assign(&mut self, rhs: Self) {
                self.re -= rhs.re;
                self.im -= rhs.im;
            }
        }

        impl MulAssign for Complex<$t> {
            #[inline(always)]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl MulAssign<$t> for Complex<$t> {
            #[inline(always)]
            fn mul_assign(&mut self, rhs: $t) {
                self.re *= rhs;
                self.im *= rhs;
            }
        }

        impl DivAssign<$t> for Complex<$t> {
            #[inline(always)]
            fn div_assign(&mut self, rhs: $t) {
                self.re /= rhs;
                self.im /= rhs;
            }
        }

        impl Sum for Complex<$t> {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }
    };
}

impl_complex!(f32);
impl_complex!(f64);

impl Complex32 {
    /// Widens to double precision.
    #[inline(always)]
    pub fn to_f64(self) -> Complex64 {
        Complex64 { re: self.re as f64, im: self.im as f64 }
    }
}

impl Complex64 {
    /// Narrows to single precision.
    #[inline(always)]
    pub fn to_f32(self) -> Complex32 {
        Complex32 { re: self.re as f32, im: self.im as f32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(-z, Complex64::new(-3.0, 4.0));
    }

    #[test]
    fn mul_matches_definition() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        let p = a * b;
        assert_eq!(p.re, 1.0 * -3.0 - 2.0 * 0.5);
        assert_eq!(p.im, 1.0 * 0.5 + 2.0 * -3.0);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(0.7, -1.3);
        let b = Complex64::new(2.5, 4.0);
        assert!(close(a * b / b, a, 1e-12));
        assert!(close(b.recip() * b, Complex64::ONE, 1e-12));
    }

    #[test]
    fn mul_i_is_quarter_turn() {
        let z = Complex64::new(2.0, 5.0);
        assert_eq!(z.mul_i(), z * Complex64::I);
        assert_eq!(z.mul_neg_i(), z * -Complex64::I);
        assert_eq!(z.mul_i().mul_i(), -z);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let th = k as f64 * core::f64::consts::TAU / 16.0;
            assert!((Complex64::cis(th).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conj_properties() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 8.0);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        assert_eq!((a + b).conj(), a.conj() + b.conj());
        assert_eq!((a * a.conj()).im, 0.0);
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::new(0.0, core::f64::consts::PI);
        assert!(close(z.exp(), Complex64::new(-1.0, 0.0), 1e-12));
        let w = Complex64::new(1.0, 0.0);
        assert!(close(w.exp(), Complex64::from_re(core::f64::consts::E), 1e-12));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = Complex64::new(0.1, 0.2);
        let a = Complex64::new(-1.0, 3.0);
        let b = Complex64::new(2.0, -0.5);
        assert!(close(acc.mul_add(a, b), acc + a * b, 1e-12));
    }

    #[test]
    fn interleaved_views_round_trip() {
        let v = vec![Complex32::new(1.0, 2.0), Complex32::new(3.0, 4.0)];
        let flat = Complex32::as_interleaved(&v);
        assert_eq!(flat, &[1.0, 2.0, 3.0, 4.0]);
        let back = Complex32::from_interleaved(flat);
        assert_eq!(back, &v[..]);
    }

    #[test]
    fn interleaved_mut_writes_through() {
        let mut v = vec![Complex32::ZERO; 2];
        Complex32::as_interleaved_mut(&mut v)[3] = 7.0;
        assert_eq!(v[1].im, 7.0);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn from_interleaved_rejects_odd() {
        let _ = Complex32::from_interleaved(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_folds() {
        let v = [Complex64::new(1.0, 1.0), Complex64::new(2.0, -3.0)];
        let s: Complex64 = v.iter().copied().sum();
        assert_eq!(s, Complex64::new(3.0, -2.0));
    }

    #[test]
    fn precision_conversions() {
        let z = Complex32::new(1.5, -2.5);
        assert_eq!(z.to_f64().to_f32(), z);
    }
}
