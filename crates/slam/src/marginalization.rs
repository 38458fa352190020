//! Marginalization: turning the oldest keyframe and its landmarks into a
//! prior for the next window (paper Sec. 3.1, "Marginalization").
//!
//! The procedure follows the paper's three steps: (1) linearize all factors
//! touching the marginalized states, (2) form the information matrix
//! `H = JᵀJ` and vector `b = Jᵀe`, (3) block `H` and apply the Schur
//! complement (the **M-type Schur**: the marginalized block mixes landmark
//! and pose states, so — unlike the NLS solve — its leading sub-block is only
//! *partially* diagonal; the M-DFG builder picks the blocking with the
//! diagonal `M₁₁`, which is exactly the landmark sub-block here).
//!
//! Steps (2) and (3) work on that structure: the scatter writes only the
//! blocks the Schur complement reads, and `M⁻¹` comes from substitutions
//! that skip the exact zeros of `M₁₁`'s factor. Both are bit-identical to
//! assembling a dense `H` and inverting `M` densely, the formulation
//! `crates/faults/tests/marginalization_oracle.rs` keeps as its oracle.

use crate::factors::{evaluate_imu, evaluate_visual, FactorWeights};
use crate::prior::Prior;
use crate::solver::{SolveError, SolverWorkspace};
use crate::window::{SlidingWindow, STATE_DIM};
use archytas_math::{Cholesky, DMat, DVec, InverseScratch};
use archytas_par::counters::{self, Phase};

/// Outcome of marginalizing the oldest keyframe out of a window.
#[derive(Debug, Clone)]
pub struct MarginalizationResult {
    /// The shrunk window (oldest keyframe and its landmarks removed, indices
    /// re-based).
    pub window: SlidingWindow,
    /// The new prior over the remaining keyframes.
    pub prior: Prior,
    /// Number of landmarks marginalized (`am` in the paper's Eq. 10/15).
    pub marginalized_landmarks: usize,
}

/// Marginalizes keyframe 0 (and every landmark anchored there) out of
/// `window`, producing the shrunk window and the prior `(Hp, rp)` for the
/// next optimization.
///
/// `prior` is the previous window's prior, which itself touches the
/// marginalized keyframe and is therefore folded into the new one.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes, or when the
/// marginalized block is numerically unusable (see
/// [`try_marginalize_oldest`] for the fallible form).
pub fn marginalize_oldest(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> MarginalizationResult {
    try_marginalize_oldest(window, weights, prior)
        .expect("marginalize_oldest: marginalized block not factorizable")
}

/// Fallible form of [`marginalize_oldest`]: a marginalized block that stays
/// non-SPD (or non-finite) through regularization comes back as an `Err`
/// instead of panicking, letting the pipeline drop the prior and continue
/// (see [`drop_oldest`] for the prior-free window shrink).
///
/// Runs [`try_marginalize_oldest_in`] on a fresh workspace; the served
/// pipeline passes its solver workspace instead.
///
/// # Panics
///
/// Still panics when the window has fewer than two keyframes — a programmer
/// error, not a data condition.
pub fn try_marginalize_oldest(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<MarginalizationResult, SolveError> {
    try_marginalize_oldest_in(&mut SolverWorkspace::new(), window, weights, prior)
}

/// [`try_marginalize_oldest`] with its blocks, factor and products in `ws`'s
/// reused buffers.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes.
pub fn try_marginalize_oldest_in(
    ws: &mut SolverWorkspace,
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<MarginalizationResult, SolveError> {
    counters::time(Phase::Marginalization, || {
        marginalize(ws.marg_scratch(), window, weights, prior)
    })
}

/// Buffers of one marginalization, reused across windows through the
/// [`SolverWorkspace`].
///
/// The local ordering is `[marginalized landmarks (am) | kf0 (15) | kept
/// keyframes ((b−1)·15)]`, split after `kf0` into the blocks the M-type
/// Schur complement reads: `U` (marginalized), `W` (kept × marginalized) and
/// `V` (kept). The upper-right block is `Wᵀ` and is never formed.
#[derive(Debug, Clone)]
pub(crate) struct MargScratch {
    /// `U`, regularized in place into `M`.
    u: DMat,
    w: DMat,
    /// `V`, turned in place into the Schur complement `V − W·M⁻¹·Wᵀ`.
    v: DMat,
    g: DVec,
    /// Slot of each window landmark in the marginalized block, or
    /// `usize::MAX` when it is kept.
    lm_slot: Vec<usize>,
    chol: Cholesky<f64>,
    inverse: InverseScratch<f64>,
    m_inv: DMat,
    w_m_inv: DMat,
    w_t: DMat,
    prod: DMat,
}

impl Default for MargScratch {
    fn default() -> Self {
        Self {
            u: DMat::zeros(0, 0),
            w: DMat::zeros(0, 0),
            v: DMat::zeros(0, 0),
            g: DVec::zeros(0),
            lm_slot: Vec::new(),
            chol: Cholesky::default(),
            inverse: InverseScratch::default(),
            m_inv: DMat::zeros(0, 0),
            w_m_inv: DMat::zeros(0, 0),
            w_t: DMat::zeros(0, 0),
            prod: DMat::zeros(0, 0),
        }
    }
}

/// Routes writes of the local information matrix `H` into its blocks.
///
/// Each block element receives exactly the additions, in the same order,
/// that the same element of a dense `H` would — so the blocks are
/// bit-identical to partitioning a dense assembly.
struct Blocks<'a> {
    u: &'a mut DMat,
    w: &'a mut DMat,
    v: &'a mut DMat,
    /// Marginalized dimension `am + 15`.
    md: usize,
}

impl Blocks<'_> {
    fn add(&mut self, i: usize, j: usize, x: f64) {
        let md = self.md;
        match (i < md, j < md) {
            (true, true) => self.u.add_at(i, j, x),
            (false, true) => self.w.add_at(i - md, j, x),
            (false, false) => self.v.add_at(i - md, j - md, x),
            // The `Wᵀ` block: never read.
            (true, false) => {}
        }
    }
}

fn marginalize(
    s: &mut MargScratch,
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<MarginalizationResult, SolveError> {
    let b = window.num_keyframes();
    assert!(b >= 2, "marginalize_oldest: need at least two keyframes");

    // Landmarks anchored at keyframe 0 are marginalized with it.
    let marg_landmarks: Vec<usize> = (0..window.landmarks.len())
        .filter(|&l| window.landmarks[l].anchor == 0)
        .collect();
    let am = marg_landmarks.len();
    s.lm_slot.clear();
    s.lm_slot.resize(window.landmarks.len(), usize::MAX);
    for (slot, &l) in marg_landmarks.iter().enumerate() {
        s.lm_slot[l] = slot;
    }

    let md = am + STATE_DIM;
    let keep = (b - 1) * STATE_DIM;
    let kf_off = |k: usize| -> usize {
        if k == 0 {
            am
        } else {
            md + (k - 1) * STATE_DIM
        }
    };
    s.u.reset_zeros(md, md);
    s.w.reset_zeros(keep, md);
    s.v.reset_zeros(keep, keep);
    s.g.resize_fill(md + keep, 0.0);
    let mut h = Blocks {
        u: &mut s.u,
        w: &mut s.w,
        v: &mut s.v,
        md,
    };
    let g = &mut s.g;

    // --- visual factors of marginalized landmarks ---
    let wv2 = weights.visual * weights.visual;
    for obs in &window.observations {
        let slot = s.lm_slot[obs.landmark];
        if slot == usize::MAX {
            continue;
        }
        let lm = &window.landmarks[obs.landmark];
        if obs.keyframe == lm.anchor {
            continue;
        }
        let Some(ev) = evaluate_visual(
            &window.keyframes[lm.anchor].pose,
            &window.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        // Same robust gate as the assembler (`None` reuses `wv2` bit for
        // bit), so an outlier's information is bounded in the prior too.
        let w2 = match weights.huber_delta {
            None => wv2,
            Some(_) => wv2 * weights.visual_robust_scale(ev.residual[0], ev.residual[1]),
        };
        let col_anchor = kf_off(0);
        let col_obs = kf_off(obs.keyframe);
        for r in 0..2 {
            let e = ev.residual[r];
            // Fixed-size gather (1 rho + interleaved anchor/observer pose
            // columns, preserving the historical accumulation order) — no
            // per-row heap allocation.
            let mut cols = [0usize; 13];
            let mut vals = [0f64; 13];
            cols[0] = slot;
            vals[0] = ev.j_rho[r];
            for c in 0..6 {
                cols[1 + 2 * c] = col_anchor + c;
                vals[1 + 2 * c] = ev.j_anchor[r][c];
                cols[2 + 2 * c] = col_obs + c;
                vals[2 + 2 * c] = ev.j_obs[r][c];
            }
            accumulate(&mut h, g, &cols, &vals, e, w2);
        }
    }

    // --- the IMU factor attached to keyframe 0 ---
    for cons in window.imu.iter().filter(|c| c.first == 0) {
        let ev = evaluate_imu(
            &window.keyframes[0],
            &window.keyframes[1],
            &cons.preintegration,
        );
        let off_i = kf_off(0);
        let off_j = kf_off(1);
        for r in 0..15 {
            let w = weights.imu_row(r);
            let e = ev.residual[r];
            let mut cols = [0usize; 30];
            let mut vals = [0f64; 30];
            for c in 0..15 {
                cols[2 * c] = off_i + c;
                vals[2 * c] = ev.j_i[r][c];
                cols[2 * c + 1] = off_j + c;
                vals[2 * c + 1] = ev.j_j[r][c];
            }
            accumulate(&mut h, g, &cols, &vals, e, w * w);
        }
    }

    // --- previous prior (touches kf0 and the kept keyframes) ---
    if let Some(p) = prior {
        // The prior's own ordering is [kf0, kf1, ...]: its first 15 rows and
        // columns land in `U`/`W` at `am`, the rest in `V` (and `Wᵀ`, which
        // is skipped).
        let hp = p.information();
        let jt_r = p.gradient(window);
        for i in 0..p.dim() {
            g[am + i] -= jt_r[i];
            let (to_marg, to_keep) = hp.row(i).split_at(STATE_DIM);
            if i < STATE_DIM {
                add_row(&mut h.u.row_mut(am + i)[am..], to_marg);
            } else {
                add_row(&mut h.w.row_mut(i - STATE_DIM)[am..], to_marg);
                add_row(h.v.row_mut(i - STATE_DIM), to_keep);
            }
        }
    } else {
        // Gauge prior on kf0, matching `build_normal_equations`.
        let off = kf_off(0);
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            h.u.add_at(off + c, off + c, w2);
        }
    }

    // --- Schur complement: keep the trailing (b−1)·15 block ---
    // Regularize the marginalized block before inversion (it can be gauge
    // deficient when landmarks have few observations). `M` is factored once
    // and its inverse shared between the Schur complement and the reduced
    // right-hand side. Its landmark block is diagonal (paper Sec. 3.2.3: the
    // M-DFG picks the blocking with a diagonal `M₁₁`), so the landmark rows
    // of `L` are zero left of the diagonal and the inverse skips them.
    for i in 0..md {
        s.u.add_at(i, i, 1e-9);
    }
    s.chol.refactor(&s.u)?;
    s.chol
        .inverse_skipping_zeros_into(&mut s.m_inv, &mut s.inverse);
    // The `expect`s are shape invariants of the blocks sized above.
    s.w.try_mul_into(&s.m_inv, &mut s.w_m_inv)
        .expect("marginal block shapes agree");
    s.w.transpose_into(&mut s.w_t);
    s.w_m_inv
        .try_mul_into(&s.w_t, &mut s.prod)
        .expect("marginal block shapes agree");
    for (v, &p) in s.v.as_mut_slice().iter_mut().zip(s.prod.as_slice()) {
        *v -= p;
    }
    let bx = s.g.segment(0, md);
    let by = s.g.segment(md, keep);
    let rp = &by - &s.w.mat_vec(&s.m_inv.mat_vec(&bx));

    let lin_states = window.keyframes[1..].to_vec();
    let new_prior = Prior::try_from_information(&s.v, &rp, lin_states, 1e-9)?;

    // --- shrink the window ---
    let window_out = shrink_window(window, &marg_landmarks);

    Ok(MarginalizationResult {
        window: window_out,
        prior: new_prior,
        marginalized_landmarks: am,
    })
}

/// `dst += src` elementwise (the dense scatter's `add_at`, one row at a time).
fn add_row(dst: &mut [f64], src: &[f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += x;
    }
}

/// Shrinks the window without computing a prior: keyframe 0 and its anchored
/// landmarks are simply discarded.
///
/// This is the degradation fallback when [`try_marginalize_oldest`] fails —
/// the departed keyframe's information is lost (the next window re-fixes the
/// gauge instead), but the estimator keeps running rather than carrying a
/// poisoned prior into every subsequent window.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes.
pub fn drop_oldest(window: &SlidingWindow) -> (SlidingWindow, usize) {
    assert!(
        window.num_keyframes() >= 2,
        "drop_oldest: need at least two keyframes"
    );
    let marg_landmarks: Vec<usize> = (0..window.landmarks.len())
        .filter(|&l| window.landmarks[l].anchor == 0)
        .collect();
    let am = marg_landmarks.len();
    (shrink_window(window, &marg_landmarks), am)
}

fn accumulate(h: &mut Blocks, g: &mut DVec, cols: &[usize], vals: &[f64], e: f64, w2: f64) {
    for (k, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
        if vi == 0.0 {
            continue;
        }
        g[ci] -= w2 * vi * e;
        for (&cj, &vj) in cols[k..].iter().zip(&vals[k..]) {
            if vj == 0.0 {
                continue;
            }
            let contrib = w2 * vi * vj;
            h.add(ci, cj, contrib);
            if ci != cj {
                h.add(cj, ci, contrib);
            }
        }
    }
}

/// Removes keyframe 0 and the given landmarks, re-basing all indices.
fn shrink_window(window: &SlidingWindow, marg_landmarks: &[usize]) -> SlidingWindow {
    let is_marged: std::collections::HashSet<usize> = marg_landmarks.iter().copied().collect();
    let mut new_index = vec![usize::MAX; window.landmarks.len()];
    let mut landmarks = Vec::new();
    for (l, lm) in window.landmarks.iter().enumerate() {
        if is_marged.contains(&l) {
            continue;
        }
        let mut lm = *lm;
        lm.anchor -= 1;
        new_index[l] = landmarks.len();
        landmarks.push(lm);
    }
    let observations = window
        .observations
        .iter()
        .filter(|o| !is_marged.contains(&o.landmark) && o.keyframe != 0)
        .map(|o| {
            let mut o = *o;
            o.landmark = new_index[o.landmark];
            o.keyframe -= 1;
            o
        })
        .collect();
    let imu = window
        .imu
        .iter()
        .filter(|c| c.first != 0)
        .map(|c| {
            let mut c = c.clone();
            c.first -= 1;
            c
        })
        .collect();
    SlidingWindow {
        keyframes: window.keyframes[1..].to_vec(),
        landmarks,
        observations,
        imu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};
    use crate::imu::{ImuSample, Preintegration};
    use crate::window::{ImuConstraint, KeyframeState, Landmark, Observation};

    /// Three keyframes moving along +x, landmarks anchored at kf0 and kf1.
    fn build_window() -> SlidingWindow {
        let mut w = SlidingWindow::new();
        for i in 0..3 {
            w.keyframes.push(KeyframeState::at_pose(
                Pose::new(Quat::IDENTITY, Vec3::new(i as f64 * 0.4, 0.0, 0.0)),
                i as f64 * 0.1,
            ));
        }
        // Two landmarks anchored at kf0, one at kf1; all observed downstream.
        let specs = [
            (0usize, 0.1, 0.05, 5.0),
            (0, -0.2, 0.1, 7.0),
            (1, 0.15, -0.1, 6.0),
        ];
        for (idx, (anchor, x, y, d)) in specs.iter().enumerate() {
            let bearing = Vec3::new(*x, *y, 1.0);
            let p_w = w.keyframes[*anchor].pose.transform(&(bearing * *d));
            w.landmarks.push(Landmark {
                id: idx as u64,
                anchor: *anchor,
                bearing,
                inv_depth: 1.0 / d,
            });
            for kf in (*anchor + 1)..3 {
                let p_c = w.keyframes[kf].pose.inverse_transform(&p_w);
                w.observations.push(Observation {
                    landmark: idx,
                    keyframe: kf,
                    uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                });
            }
        }
        // IMU constraints consistent with uniform motion (v = 4 m/s along x).
        for i in 0..w.keyframes.len() {
            w.keyframes[i].velocity = Vec3::new(4.0, 0.0, 0.0);
        }
        for i in 0..2 {
            let samples: Vec<ImuSample> = (0..20)
                .map(|_| ImuSample {
                    gyro: Vec3::ZERO,
                    accel: -crate::imu::GRAVITY, // at rest rotationally, constant velocity
                    dt: 0.005,
                })
                .collect();
            w.imu.push(ImuConstraint {
                first: i,
                preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
            });
        }
        w
    }

    #[test]
    fn window_shrinks_consistently() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        assert_eq!(result.marginalized_landmarks, 2);
        let nw = &result.window;
        assert_eq!(nw.num_keyframes(), 2);
        assert_eq!(nw.num_landmarks(), 1);
        assert!(nw.validate(), "shrunk window has consistent indices");
        // The surviving landmark was anchored at kf1, now kf0.
        assert_eq!(nw.landmarks[0].anchor, 0);
        assert!(nw.imu.iter().all(|c| c.first == 0));
    }

    #[test]
    fn prior_covers_remaining_keyframes() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        assert_eq!(result.prior.num_keyframes(), 2);
        assert_eq!(result.prior.dim(), 30);
    }

    #[test]
    fn prior_information_is_psd_and_nontrivial() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        let hp = result.prior.information();
        assert!(hp.is_symmetric(1e-6));
        // PSD check via Cholesky of Hp + εI.
        assert!(hp.add_diagonal(1e-6).cholesky().is_ok());
        assert!(hp.max_abs() > 1.0, "prior carries real information");
    }

    /// Marginalization must preserve the minimizer: for a window already at
    /// the ground truth (zero residuals), the prior's gradient at the
    /// remaining states must be (numerically) zero.
    #[test]
    fn prior_gradient_zero_at_consistent_states() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        let g = result.prior.gradient(&result.window);
        assert!(
            g.max_abs() < 1e-3,
            "gradient at the optimum should vanish, got {}",
            g.max_abs()
        );
    }

    #[test]
    fn corrupted_window_errors_instead_of_panicking() {
        let mut w = build_window();
        for obs in &mut w.observations {
            obs.uv = [f64::NAN, f64::NAN];
        }
        let r = try_marginalize_oldest(&w, &FactorWeights::default(), None);
        assert!(r.is_err(), "NaN measurements must surface as SolveError");
    }

    #[test]
    fn drop_oldest_matches_marginalize_shrink() {
        let w = build_window();
        let full = marginalize_oldest(&w, &FactorWeights::default(), None);
        let (dropped, am) = drop_oldest(&w);
        assert_eq!(am, full.marginalized_landmarks);
        assert_eq!(dropped.num_keyframes(), full.window.num_keyframes());
        assert_eq!(dropped.num_landmarks(), full.window.num_landmarks());
        assert!(dropped.validate());
    }

    #[test]
    fn chained_marginalization_folds_prior() {
        let w = build_window();
        let weights = FactorWeights::default();
        let r1 = marginalize_oldest(&w, &weights, None);
        // Second marginalization consumes the first prior.
        let r2 = marginalize_oldest(&r1.window, &weights, Some(&r1.prior));
        assert_eq!(r2.window.num_keyframes(), 1);
        assert_eq!(r2.prior.num_keyframes(), 1);
        let hp = r2.prior.information();
        assert!(hp.max_abs() > 1.0);
    }
}
