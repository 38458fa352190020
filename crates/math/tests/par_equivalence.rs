//! The dense `archytas-math` hot paths — product, Gram and Cholesky — must
//! be bit-identical to textbook reference loops that perform the same
//! floating-point operations in the same order.

use archytas_math::{Cholesky, DMat, DVec, Scalar};
use proptest::prelude::*;

fn bits(m: &DMat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `a·b` as an i-k-j triple loop that skips zero left-hand entries.
fn naive_mul(a: &DMat, b: &DMat) -> DMat {
    let mut out = DMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a.get(i, k);
            if x == f64::ZERO {
                continue;
            }
            for j in 0..b.cols() {
                out.add_at(i, j, x * b.get(k, j));
            }
        }
    }
    out
}

/// `aᵀ·a`: each upper-triangle element sums `a[k][i]·a[k][j]` over `k`
/// ascending, skipping zero `a[k][i]`, and is mirrored below the diagonal.
fn naive_gram(a: &DMat) -> DMat {
    let n = a.cols();
    let mut out = DMat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            for k in 0..a.rows() {
                let x = a.get(k, i);
                if x != f64::ZERO {
                    out.add_at(i, j, x * a.get(k, j));
                }
            }
            out.set(j, i, out.get(i, j));
        }
    }
    out
}

/// Right-looking unblocked Cholesky: evaluate column `k`, then subtract it
/// from every trailing element. Returns `L` and the Evaluate and Update
/// operation counts, one increment per iteration.
fn naive_cholesky(a: &DMat) -> (DMat, [usize; 3]) {
    let n = a.rows();
    let mut w = a.clone();
    let mut l = DMat::zeros(n, n);
    let mut counts = [0, 0, n];
    for k in 0..n {
        let d = w.get(k, k).sqrt();
        l.set(k, k, d);
        for i in k + 1..n {
            l.set(i, k, w.get(k, i) / d);
        }
        for j in k + 1..n {
            for i in j..n {
                w.set(j, i, w.get(j, i) - l.get(i, k) * l.get(j, k));
            }
        }
        counts[0] += n - k;
        counts[1] += (n - 1 - k) * (n - k) / 2;
    }
    (l, counts)
}

/// Deterministic pseudo-random fill (SplitMix64-style) so proptest only has
/// to draw shapes and a seed, not whole buffers.
fn fill(rows: usize, cols: usize, seed: u64) -> DMat {
    DMat::from_fn(rows, cols, |i, j| {
        let mut z = seed
            .wrapping_add((i as u64) << 32 | j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
    })
}

#[test]
fn mul_bit_identical_across_pools() {
    let a = fill(67, 45, 1);
    let b = fill(45, 53, 2);
    assert_eq!(bits(&a.try_mul(&b).unwrap()), bits(&naive_mul(&a, &b)));
}

#[test]
fn gram_bit_identical_across_pools() {
    let a = fill(91, 40, 3);
    assert_eq!(bits(&a.gram()), bits(&naive_gram(&a)));
}

#[test]
fn cholesky_bit_identical_across_pools() {
    // n = 90 spans many 8-column panels plus a partial one.
    let n = 90;
    let spd = fill(n, n, 4).gram().add_diagonal(n as f64);
    let (l, c) = Cholesky::factor_counting(&spd).unwrap();
    let (l0, c0) = naive_cholesky(&spd);
    assert_eq!(bits(l.l()), bits(&l0));
    assert_eq!([c.evaluate_ops, c.update_ops, c.iterations], c0);
}

#[test]
fn transpose_mat_vec_matches_explicit_transpose() {
    let a = fill(33, 21, 5);
    let v: DVec = (0..33).map(|i| (i as f64 * 0.37).cos()).collect();
    let fused = a.transpose_mat_vec(&v);
    let explicit = a.transpose().mat_vec(&v);
    let close = fused
        .as_slice()
        .iter()
        .zip(explicit.as_slice())
        .all(|(x, y)| (x - y).abs() <= 1e-12 * (1.0 + y.abs()));
    assert!(close);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mul_equivalence_random_shapes(
        (r, k, c) in (1usize..28, 1usize..28, 1usize..28),
        seed in 0u64..1_000_000,
    ) {
        let a = fill(r, k, seed);
        let b = fill(k, c, seed ^ 0xDEAD_BEEF);
        prop_assert_eq!(bits(&a.try_mul(&b).unwrap()), bits(&naive_mul(&a, &b)));
    }

    #[test]
    fn gram_equivalence_random_shapes(
        (r, c) in (1usize..40, 1usize..32),
        seed in 0u64..1_000_000,
    ) {
        let a = fill(r, c, seed);
        let gram = a.gram();
        prop_assert_eq!(bits(&gram), bits(&naive_gram(&a)));
        prop_assert_eq!(gram.shape(), (c, c));
    }

    #[test]
    fn cholesky_equivalence_random_sizes(n in 1usize..24, seed in 0u64..1_000_000) {
        let spd = fill(n, n, seed).gram().add_diagonal(n as f64 + 1.0);
        let (l, cts) = Cholesky::factor_counting(&spd).unwrap();
        let (l0, c0) = naive_cholesky(&spd);
        prop_assert_eq!(bits(l.l()), bits(&l0));
        prop_assert_eq!([cts.evaluate_ops, cts.update_ops, cts.iterations], c0);
    }

    #[test]
    fn zero_skip_never_changes_results(r in 1usize..20, c in 1usize..20, seed in 0u64..1000) {
        // Sparse-ish matrices exercise the a == 0 fast path.
        let mut a = fill(r, c, seed);
        for i in 0..r {
            for j in 0..c {
                if (i + j + seed as usize).is_multiple_of(3) {
                    a.set(i, j, f64::ZERO);
                }
            }
        }
        prop_assert_eq!(bits(&a.gram()), bits(&naive_gram(&a)));
        prop_assert_eq!(
            bits(&a.transpose().try_mul(&a).unwrap()),
            bits(&naive_mul(&a.transpose(), &a))
        );
    }
}
