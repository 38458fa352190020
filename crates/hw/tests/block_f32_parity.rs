//! Step-level parity of the served single-precision solve.
//!
//! The served LM step solves the damped block-sparse normal equations in
//! f32 on the block structure ([`BlockSparseSystem::solve_f32_into`]). Its
//! oracle is the dense f32 datapath, [`f32_linear_solver`], on the dense
//! image of the same system. The two must agree bit for bit whenever the
//! oracle returns an increment, and must fail together whenever it returns
//! `None`: an f32 solution that is not finite, a `U` entry that casts to
//! zero or to a subnormal, `U⁻¹·bx` overflowing f32, and the
//! landmark-free (`p == 0`) Cholesky path.

use archytas_hw::f32_linear_solver;
use archytas_math::{BlockSparseSystem, DVec, F32Stage};
use archytas_slam::{
    build_block_normal_equations, FactorWeights, KeyframeState, Landmark, Observation, Pose, Quat,
    SlidingWindow, Vec3,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Sys = BlockSparseSystem<f64>;

/// The dense f32 oracle on `sys`'s dense image.
fn oracle(sys: &Sys) -> Option<DVec> {
    let (a, b) = sys.to_dense();
    f32_linear_solver(&a, &b, sys.p())
}

/// The served step on `stage`.
fn served(sys: &Sys, stage: &mut F32Stage) -> Option<DVec> {
    let mut out = DVec::zeros(0);
    sys.solve_f32_into(stage, &mut out).then_some(out)
}

fn bits(x: &DVec) -> Vec<u64> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts served == oracle (bits, or both `None`), on a fresh stage and on
/// one that already solved a differently shaped system (stale buffers must
/// not leak); returns the oracle's verdict.
fn assert_parity(sys: &Sys, stale: &mut F32Stage, what: &str) -> Option<DVec> {
    let want = oracle(sys);
    for got in [served(sys, &mut F32Stage::default()), served(sys, stale)] {
        match (&want, &got) {
            (None, None) => {}
            (Some(w), Some(g)) => assert_eq!(bits(g), bits(w), "{what}: increments differ"),
            _ => panic!(
                "{what}: oracle {} but served {}",
                if want.is_some() { "solved" } else { "failed" },
                if got.is_some() { "solved" } else { "failed" },
            ),
        }
    }
    want
}

/// A bundle-adjustment window in the SLAM layout (15-wide keyframe states,
/// 6-high `W` blocks), perturbed off ground truth.
fn window(num_kf: usize, num_lm: usize) -> SlidingWindow {
    let mut w = SlidingWindow::new();
    let poses: Vec<Pose> = (0..num_kf)
        .map(|i| {
            Pose::new(
                Quat::exp(&Vec3::new(0.0, 0.01 * i as f64, 0.0)),
                Vec3::new(0.3 * i as f64, 0.02 * i as f64, 0.0),
            )
        })
        .collect();
    for (i, pose) in poses.iter().enumerate() {
        w.keyframes
            .push(KeyframeState::at_pose(*pose, i as f64 * 0.1));
    }
    for l in 0..num_lm {
        let bearing = Vec3::new(
            (l as f64 / num_lm as f64 - 0.5) * 0.8,
            ((l * 7 % num_lm) as f64 / num_lm as f64 - 0.5) * 0.5,
            1.0,
        );
        let depth = 4.0 + (l % 5) as f64;
        let p_w = poses[0].transform(&(bearing * depth));
        w.landmarks.push(Landmark {
            id: l as u64,
            anchor: 0,
            bearing,
            inv_depth: 1.1 / depth,
        });
        for (kf, pose) in poses.iter().enumerate().skip(1) {
            let p_c = pose.inverse_transform(&p_w);
            if p_c.z() > 0.1 {
                w.observations.push(Observation {
                    landmark: l,
                    keyframe: kf,
                    uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                });
            }
        }
    }
    for i in 1..num_kf {
        let mut d = [0.0; 15];
        d[1] = 0.01;
        d[3] = 0.05;
        w.keyframes[i] = w.keyframes[i].boxplus(&d);
    }
    w
}

fn assembled(num_kf: usize, num_lm: usize) -> Sys {
    let mut sys = Sys::new();
    build_block_normal_equations(
        &window(num_kf, num_lm),
        &FactorWeights::default(),
        None,
        &mut sys,
    );
    sys
}

/// A small well-conditioned system in a generic layout (`kb = 4`,
/// `stride = 7`): `p` landmarks over two pose blocks.
fn synthetic(p: usize) -> Sys {
    let (q, kb, stride) = (14, 4, 7);
    let mut s = Sys::new();
    s.reset(p, q, kb, stride);
    for j in 0..p {
        s.add_u(j, 5.0 + j as f64);
        s.sub_bx(j, -(0.3 + 0.1 * j as f64));
        for t in 0..kb {
            s.add_w(
                j,
                (j % 2) * stride + t,
                0.1 * t as f64 - 0.15 + 0.02 * j as f64,
            );
        }
    }
    for r in 0..q {
        s.add_v(r, r, 10.0 + r as f64 * 0.5);
        s.sub_by(r, -(r as f64 * 0.7 - 2.0));
        for c in (r + 1)..q {
            let v = 0.3 / (1.0 + (r as f64 - c as f64).abs());
            s.add_v(r, c, v);
            s.add_v(c, r, v);
        }
    }
    s
}

#[test]
fn served_f32_step_matches_dense_oracle_on_assembled_windows() {
    let mut stale = F32Stage::default();
    // A larger system first, so the stale stage carries bigger buffers.
    let mut big = assembled(8, 80);
    big.damp(1e-4, 1e-9);
    assert_parity(&big, &mut stale, "8 kf / 80 lm").expect("solvable");
    for (kf, lm) in [(3, 10), (4, 30), (6, 60)] {
        let mut sys = assembled(kf, lm);
        // The LM loop's damping ladder, re-damped in place as it escalates.
        for lambda in [1e-4, 1e-3, 1e-1, 10.0] {
            sys.damp(lambda, 1e-9);
            let what = format!("{kf} kf / {lm} lm at lambda {lambda}");
            assert_parity(&sys, &mut stale, &what).expect("solvable");
        }
    }
}

#[test]
fn non_finite_f32_solution_fails_on_both_paths() {
    let mut stale = F32Stage::default();
    // A pose-row right-hand side beyond f32's range casts to infinity.
    let mut sys = synthetic(3);
    sys.sub_by(2, -1e39);
    assert!(assert_parity(&sys, &mut stale, "by overflow").is_none());
    // A keyframe diagonal beyond f32's range: the reduced system's pivot
    // is infinite.
    let mut sys = synthetic(3);
    sys.add_v(5, 5, 1e39);
    assert!(assert_parity(&sys, &mut stale, "V overflow").is_none());
    // A landmark right-hand side that is NaN.
    let mut sys = synthetic(3);
    sys.sub_bx(1, f64::NAN);
    assert!(assert_parity(&sys, &mut stale, "NaN bx").is_none());
}

#[test]
fn u_entry_zero_or_subnormal_after_cast_fails_on_both_paths() {
    let mut stale = F32Stage::default();
    // Representable in f64; zero (singular U) or a subnormal whose inverse
    // overflows in f32.
    for (value, what) in [(1e-50, "U casts to zero"), (1e-42, "U casts to subnormal")] {
        let mut sys = synthetic(3);
        // Replace landmark 1's U entry (6.0): cancel it exactly, add `value`.
        sys.add_u(1, -6.0);
        sys.add_u(1, value);
        assert!(assert_parity(&sys, &mut stale, what).is_none(), "{what}");
    }
    // A subnormal U whose f32 inverse is still finite: whatever the oracle
    // says, the served step says the same.
    let mut sys = synthetic(3);
    sys.add_u(1, -6.0);
    sys.add_u(1, 5e-39);
    assert_parity(&sys, &mut stale, "U subnormal, finite inverse");
}

#[test]
fn u_inverse_times_bx_overflow_fails_on_both_paths() {
    let mut stale = F32Stage::default();
    let mut sys = synthetic(3);
    // U⁻¹ = 1e30, bx = 1e10: the reduced right-hand side scaling overflows.
    sys.add_u(0, -5.0);
    sys.add_u(0, 1e-30);
    sys.sub_bx(0, -1e10);
    assert!(assert_parity(&sys, &mut stale, "U^-1 bx overflow").is_none());
    // Same with a landmark no keyframe observes (no W blocks at all).
    let mut lone = Sys::new();
    lone.reset(3, 14, 4, 7);
    for r in 0..14 {
        lone.add_v(r, r, 4.0);
    }
    lone.add_u(0, 2.0);
    lone.add_u(1, 3.0);
    lone.add_u(2, 1e-30);
    lone.sub_bx(2, -1e10);
    assert!(assert_parity(&lone, &mut stale, "unobserved landmark overflow").is_none());
}

#[test]
fn landmark_free_systems_take_the_cholesky_path_on_both() {
    let mut stale = F32Stage::default();
    let mut sys = Sys::new();
    sys.reset(0, 14, 4, 7);
    for r in 0..14 {
        sys.add_v(r, r, 6.0 + r as f64);
        sys.sub_by(r, -(1.0 + r as f64));
        if r + 1 < 14 {
            sys.add_v(r, r + 1, 0.5);
            sys.add_v(r + 1, r, 0.5);
        }
    }
    assert_parity(&sys, &mut stale, "p = 0, SPD").expect("solvable");
    sys.add_v(3, 3, -100.0);
    assert!(assert_parity(&sys, &mut stale, "p = 0, indefinite").is_none());
}

/// Random systems with values spread over f32's whole range and beyond —
/// including entries that cast to zero, subnormals and infinities — in
/// random positions. Parity must hold case by case.
#[test]
fn randomized_extreme_values_keep_parity() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut stale = F32Stage::default();
    let (mut solved, mut failed) = (0, 0);
    for case in 0..600 {
        let p = rng.gen_range(0..6usize);
        let blocks = rng.gen_range(1..4usize);
        let (kb, stride) = if rng.gen_bool(0.5) { (6, 15) } else { (2, 3) };
        let q = blocks * stride;
        let mut s = Sys::new();
        s.reset(p, q, kb, stride);
        let extreme = |rng: &mut SmallRng, typical: f64| -> f64 {
            if rng.gen_bool(0.08) {
                let e = rng.gen_range(-50.0..45.0f64);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * 10f64.powf(e)
            } else {
                typical
            }
        };
        for j in 0..p {
            let u = rng.gen_range(0.5..8.0);
            s.add_u(j, extreme(&mut rng, u));
            let b = rng.gen_range(-1.0..1.0);
            s.sub_bx(j, extreme(&mut rng, b));
            for blk in 0..blocks {
                if rng.gen_bool(0.6) {
                    for t in 0..kb {
                        let w = rng.gen_range(-0.5..0.5);
                        s.add_w(j, blk * stride + t, extreme(&mut rng, w));
                    }
                }
            }
        }
        for r in 0..q {
            let d = rng.gen_range(8.0..16.0);
            s.add_v(r, r, extreme(&mut rng, d));
            let b = rng.gen_range(-2.0..2.0);
            s.sub_by(r, extreme(&mut rng, b));
            for c in (r + 1)..q {
                if rng.gen_bool(0.3) {
                    let v = rng.gen_range(-0.2..0.2);
                    let v = extreme(&mut rng, v);
                    s.add_v(r, c, v);
                    s.add_v(c, r, v);
                }
            }
        }
        if rng.gen_bool(0.5) {
            s.damp(rng.gen_range(1e-4..1.0), 1e-9);
        }
        match assert_parity(&s, &mut stale, &format!("random case {case}")) {
            Some(_) => solved += 1,
            None => failed += 1,
        }
    }
    // The generator must exercise both verdicts.
    assert!(
        solved > 100 && failed > 20,
        "{solved} solved, {failed} failed"
    );
}
