//! `Cholesky::inverse_skipping_zeros_into` against the dense
//! `Cholesky::inverse`, bit for bit.
//!
//! The matrices have the marginalization's structure — a diagonal leading
//! block, exact zeros in the coupling block, a dense trailing block — with
//! rows and columns scaled so the entries span 1e-30..1e30. A second,
//! extreme scale range drives the substitutions into overflow and underflow,
//! so the dense fallbacks (non-finite columns, `-0.0` starts) are compared
//! too.

use archytas_math::{Cholesky, DMat, InverseScratch, Matrix, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `S·L·Lᵀ·S` with `L = [√D 0; E F]`: `D` diagonal, `E` with exact zeros,
/// `F` lower triangular, and `S` a diagonal of magnitudes `10^±(half_decades)`.
fn structured_spd(rng: &mut SmallRng, am: usize, q: usize, half_decades: f64) -> DMat {
    let n = am + q;
    let l = DMat::from_fn(n, n, |i, j| {
        if j > i || (i < am && j != i) {
            0.0
        } else if i == j {
            rng.gen_range(0.1..3.0)
        } else if rng.gen_bool(0.4) {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        }
    });
    let m = l.try_mul(&l.transpose()).unwrap();
    let s: Vec<f64> = (0..n)
        .map(|_| 10f64.powf(rng.gen_range(-half_decades..half_decades)))
        .collect();
    DMat::from_fn(n, n, |i, j| s[i] * m.get(i, j) * s[j])
}

fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Compares both inverses of `a`'s factor; `None` when `a` does not factor,
/// else whether the inverse is finite.
fn check<T: Scalar>(a: &Matrix<T>, scratch: &mut InverseScratch<T>, case: usize) -> Option<bool> {
    let chol = Cholesky::factor(a).ok()?;
    let dense = chol.inverse();
    // A stale, differently shaped buffer must not leak into the result.
    let mut skip = Matrix::from_fn(3, 5, |_, _| T::from_f64(f64::NAN));
    chol.inverse_skipping_zeros_into(&mut skip, scratch);
    assert_eq!(bits(&skip), bits(&dense), "case {case}: inverses differ");
    Some(dense.all_finite())
}

#[test]
fn zero_skipping_inverse_matches_dense_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut scratch = InverseScratch::default();
    let mut scratch32 = InverseScratch::default();
    let mut factored = 0;
    for case in 0..400 {
        let am = rng.gen_range(0..40usize);
        let q = rng.gen_range(1..20usize);
        let a = structured_spd(&mut rng, am, q, 15.0);
        if check(&a, &mut scratch, case).is_some() {
            factored += 1;
        }
        check(&a.cast::<f32>(), &mut scratch32, case);
    }
    assert!(factored > 300, "only {factored} of 400 cases factored");
}

#[test]
fn zero_skipping_inverse_matches_dense_through_overflow() {
    let mut rng = SmallRng::seed_from_u64(0xbad5eed);
    let mut scratch = InverseScratch::default();
    let (mut factored, mut non_finite) = (0, 0);
    for case in 0..400 {
        let am = rng.gen_range(0..12usize);
        let q = rng.gen_range(1..8usize);
        let a = structured_spd(&mut rng, am, q, 160.0);
        match check(&a, &mut scratch, case) {
            Some(true) => factored += 1,
            Some(false) => non_finite += 1,
            None => {}
        }
    }
    assert!(factored > 100, "only {factored} finite inverses");
    assert!(non_finite > 0, "no case reached the non-finite fallback");
}

#[test]
fn zero_skipping_inverse_matches_dense_from_a_negative_zero_start() {
    // L = [2^500 0 0; 2^-100 2^500 0; 1 0 1] (every entry exact). Column 0's
    // forward solve underflows y₁ = −2^-1100 to -0.0, and the back
    // substitution of row 1 starts from it: the dense loop's `-0.0 − L₂₁·x₂`
    // with L₂₁ = +0.0 and x₂ < 0 stores +0.0, a skipped term would leave
    // -0.0.
    let p = |e: i32| 2f64.powi(e);
    let a = DMat::from_rows(&[
        &[p(1000), p(400), p(500)],
        &[p(400), p(1000), p(-100)],
        &[p(500), p(-100), 2.0],
    ]);
    let chol = Cholesky::factor(&a).unwrap();
    assert_eq!(chol.l().get(2, 1).to_bits(), 0.0f64.to_bits());
    let dense = chol.inverse();
    assert_eq!(dense.get(1, 0).to_bits(), 0.0f64.to_bits());
    check(&a, &mut InverseScratch::default(), 0);
}
