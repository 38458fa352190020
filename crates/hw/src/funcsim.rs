//! Functional model of the accelerator datapath.
//!
//! The generated FPGA designs compute in single precision; the host software
//! computes in double. The accelerator's numerics — the linear-solve portion
//! of each LM iteration, the part mapped onto the fabric (Fig. 5), run
//! through the D-type Schur → Cholesky → substitution pipeline *in `f32`* —
//! are served by [`archytas_slam::solve_f32_in_workspace`], which casts the
//! block-sparse normal equations to f32 and eliminates them on the block
//! structure, never building a dense `A`. That is the estimate the
//! accelerator would produce, and how the dynamic-optimization accuracy
//! claims (Sec. 7.6) are checked.
//!
//! [`f32_linear_solver`] is the same datapath on a *dense* `A`: the oracle
//! the served block path is proven bit-identical to (plug it into
//! [`archytas_slam::solve_with_in_workspace`]). No served path calls it.

use archytas_math::{BlockSpec, Cholesky, DMat, DVec, FMat, FVec, SchurSystem};
use std::cell::RefCell;

thread_local! {
    // Reused f64→f32 staging buffers: the LM loop calls the linear solver
    // once per damping retry, and the (q+p)² matrix cast dominated its
    // allocation traffic. The `LinearSolver` signature is a plain fn, so the
    // reuse lives in thread-local storage rather than a workspace argument.
    static F32_STAGE: RefCell<(FMat, FVec)> =
        RefCell::new((FMat::zeros(0, 0), FVec::zeros(0)));
}

/// Solves the damped dense normal equations in the accelerator's
/// single-precision datapath. Returns `None` when the f32 factorization
/// fails or its increment is not finite (the LM loop raises λ, exactly as on
/// the FPGA).
///
/// The dense f32 oracle of the served block path (see the module docs).
pub fn f32_linear_solver(a: &DMat, b: &DVec, num_landmarks: usize) -> Option<DVec> {
    F32_STAGE.with(|stage| {
        let (a32, b32) = &mut *stage.borrow_mut();
        a.cast_into(a32);
        b.cast_into(b32);
        f32_solve_staged(a32, b32, num_landmarks)
    })
}

fn f32_solve_staged(a32: &FMat, b32: &FVec, num_landmarks: usize) -> Option<DVec> {
    let x32 = if num_landmarks == 0 {
        Cholesky::factor(a32).ok()?.solve(b32)
    } else {
        let spec = BlockSpec::new(num_landmarks, a32.rows()).ok()?;
        let sys = SchurSystem::new(a32, b32, spec).ok()?;
        sys.solve().ok()?
    };
    if !x32.all_finite() {
        return None;
    }
    Some(x32.cast())
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_slam::{
        schur_linear_solver, solve, solve_f32_in_workspace, FactorWeights, KeyframeState, Landmark,
        LmConfig, Observation, Pose, Quat, SlidingWindow, SolverWorkspace, Vec3,
    };

    fn spd_system(n: usize, landmarks: usize) -> (DMat, DVec) {
        let b = DMat::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1);
        let mut a = b.gram().add_diagonal(n as f64);
        // Diagonalize the landmark block, then restore positive definiteness
        // by making the matrix strictly diagonally dominant.
        for i in 0..landmarks {
            for j in 0..landmarks {
                if i != j {
                    a.set(i, j, 0.0);
                }
            }
        }
        let max_off = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| a.get(i, j).abs())
                    .sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let a = a.add_diagonal(max_off + 1.0);
        let rhs: DVec = (0..n).map(|i| (i as f64) * 0.2 - 1.0).collect();
        (a, rhs)
    }

    #[test]
    fn f32_solution_close_to_f64() {
        let (a, b) = spd_system(40, 25);
        let x64 = schur_linear_solver(&a, &b, 25).unwrap();
        let x32 = f32_linear_solver(&a, &b, 25).unwrap();
        let rel = (&x64 - &x32).norm() / x64.norm();
        assert!(rel < 1e-4, "relative error {rel}");
        // But not identical — the datapath genuinely runs in f32.
        assert!((&x64 - &x32).norm() > 0.0);
    }

    #[test]
    fn f32_handles_no_landmarks() {
        let (a, b) = spd_system(12, 0);
        let x = f32_linear_solver(&a, &b, 0).unwrap();
        assert!((&a.mat_vec(&x) - &b).norm() < 1e-2);
    }

    #[test]
    fn f32_reports_indefinite_systems() {
        let mut a = DMat::identity(4);
        a.set(2, 2, -1.0);
        assert!(f32_linear_solver(&a, &DVec::zeros(4), 0).is_none());
    }

    /// End-to-end: the accelerator's estimate must match the software's to
    /// sub-millimetre accuracy on a toy window (Sec. 7.6 reports ≤0.01 cm
    /// mean degradation).
    #[test]
    fn accelerated_estimate_matches_software() {
        let build = || {
            let mut w = SlidingWindow::new();
            let kf0 = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
            let kf1 = KeyframeState::at_pose(
                Pose::new(
                    Quat::exp(&Vec3::new(0.0, 0.01, 0.0)),
                    Vec3::new(0.4, 0.0, 0.0),
                ),
                0.1,
            );
            let kf2 =
                KeyframeState::at_pose(Pose::new(Quat::IDENTITY, Vec3::new(0.8, 0.05, 0.0)), 0.2);
            w.keyframes = vec![kf0, kf1, kf2];
            for l in 0..20 {
                let bearing = Vec3::new(
                    (l as f64 / 20.0 - 0.5) * 0.6,
                    ((l * 3 % 20) as f64 / 20.0 - 0.5) * 0.4,
                    1.0,
                );
                let depth = 4.0 + (l % 6) as f64;
                let p_w = kf0.pose.transform(&(bearing * depth));
                w.landmarks.push(Landmark {
                    id: l as u64,
                    anchor: 0,
                    bearing,
                    inv_depth: 1.0 / depth * 1.1,
                });
                for kf in 1..3usize {
                    let p_c = w.keyframes[kf].pose.inverse_transform(&p_w);
                    if p_c.z() > 0.1 {
                        w.observations.push(Observation {
                            landmark: l,
                            keyframe: kf,
                            uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                        });
                    }
                }
            }
            w
        };
        let weights = FactorWeights::default();
        let cfg = LmConfig::default();

        let mut sw = build();
        let r_sw = solve(&mut sw, &weights, None, &cfg);
        let mut acc = build();
        let r_acc =
            solve_f32_in_workspace(&mut SolverWorkspace::new(), &mut acc, &weights, None, &cfg);

        assert!(r_acc.final_cost < r_sw.initial_cost * 1e-3);
        for (a, b) in sw.keyframes.iter().zip(&acc.keyframes) {
            let d = a.pose.translation_distance(&b.pose);
            assert!(d < 1e-4, "pose divergence {d} m");
        }
    }
}
