//! Marginalization prior in square-root form.
//!
//! Marginalization (paper Sec. 3.1) produces an information matrix `Hp` and
//! vector `rp` that constrain the next window. We store the prior in
//! square-root (Jacobian/residual) form — `J = Lᵀ` with `L·Lᵀ = Hp` — so it
//! behaves exactly like any other factor: it can be re-evaluated at new
//! linearization points and contributes `JᵀJ` / `−Jᵀr` to the normal
//! equations.

use crate::solver::SolveError;
use crate::window::{KeyframeState, SlidingWindow, STATE_DIM};
use archytas_math::{Cholesky, DMat, DVec};

/// Prior over the keyframe states of a window, produced by marginalizing the
/// previous window's oldest keyframe and its landmarks.
#[derive(Debug, Clone)]
pub struct Prior {
    /// Square-root information `J` (`dim × dim`, `JᵀJ = Hp`).
    jacobian: DMat,
    /// Residual at the linearization point (`r0`, with `Jᵀr0 = −rp`).
    residual0: DVec,
    /// `Hp = JᵀJ`, formed once here: every LM iteration's assembly and the
    /// next marginalization read it.
    information: DMat,
    /// Keyframe states at which the prior was linearized, oldest first.
    lin_states: Vec<KeyframeState>,
}

impl Prior {
    /// Builds a prior from information form `(hp, rp)` over `lin_states`.
    ///
    /// `hp` must be `15·k × 15·k` where `k = lin_states.len()`; it is
    /// regularized by `epsilon` on the diagonal before factorization so that
    /// gauge-deficient information matrices remain factorizable.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions disagree or factorization fails even after
    /// regularization. Callers that must survive a corrupted information
    /// matrix (the pipeline's degradation ladder) use
    /// [`Prior::try_from_information`] instead.
    pub fn from_information(
        hp: &DMat,
        rp: &DVec,
        lin_states: Vec<KeyframeState>,
        epsilon: f64,
    ) -> Self {
        Self::try_from_information(hp, rp, lin_states, epsilon)
            .expect("prior: Hp not factorizable even after heavy regularization")
    }

    /// Fallible form of [`Prior::from_information`]: data-dependent
    /// factorization failure (an `Hp` that stays non-SPD — or non-finite —
    /// through the full regularization escalation) comes back as an `Err`
    /// instead of a panic.
    ///
    /// Dimension mismatches remain programmer errors and still panic.
    pub fn try_from_information(
        hp: &DMat,
        rp: &DVec,
        lin_states: Vec<KeyframeState>,
        epsilon: f64,
    ) -> Result<Self, SolveError> {
        let dim = STATE_DIM * lin_states.len();
        assert_eq!(hp.rows(), dim, "prior: Hp dimension mismatch");
        assert_eq!(rp.len(), dim, "prior: rp dimension mismatch");
        if !rp.all_finite() {
            return Err(SolveError::NonFinite);
        }
        // Far from convergence the Schur complement can be indefinite by
        // more than `epsilon`; escalate the regularization until the
        // factorization succeeds (each step only weakens the prior, which is
        // the conservative direction).
        let mut eps = epsilon.max(1e-12);
        let scale = hp.max_abs().max(1.0);
        if !scale.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let chol = loop {
            match Cholesky::factor(&hp.add_diagonal(eps)) {
                Ok(chol) => break chol,
                Err(e) => {
                    eps *= 100.0;
                    if eps > scale * 10.0 {
                        return Err(SolveError::Linear(e));
                    }
                }
            }
        };
        // J = Lᵀ, r0 chosen so that Jᵀ·r0 = −rp  ⇒  L·r0 = −rp.
        let residual0 = archytas_math::solve_lower(chol.l(), &(-rp));
        let jacobian = chol.into_lt();
        let information = jacobian.gram();
        Ok(Self {
            jacobian,
            residual0,
            information,
            lin_states,
        })
    }

    /// Number of keyframes this prior constrains.
    pub fn num_keyframes(&self) -> usize {
        self.lin_states.len()
    }

    /// Error-state dimension of the prior.
    pub fn dim(&self) -> usize {
        self.jacobian.cols()
    }

    /// Square-root information `J` (upper triangular, `JᵀJ = Hp`).
    pub fn jacobian(&self) -> &DMat {
        &self.jacobian
    }

    /// Residual `r0` at the linearization point.
    pub fn residual0(&self) -> &DVec {
        &self.residual0
    }

    /// Information matrix `Hp = JᵀJ`, formed once when the prior was built.
    /// Read by the assembler on every LM iteration and by the next
    /// marginalization. The hardware model does not call it.
    pub fn information(&self) -> &DMat {
        &self.information
    }

    /// Tangent of the window's current keyframes relative to the
    /// linearization point.
    ///
    /// # Panics
    ///
    /// Panics when the window holds fewer keyframes than the prior covers.
    fn delta(&self, window: &SlidingWindow) -> DVec {
        assert!(
            window.num_keyframes() >= self.lin_states.len(),
            "prior: window has fewer keyframes than the prior covers"
        );
        let mut delta = DVec::zeros(self.dim());
        for (i, lin) in self.lin_states.iter().enumerate() {
            let d = window.keyframes[i].boxminus(lin);
            for (c, v) in d.iter().enumerate() {
                delta[i * STATE_DIM + c] = *v;
            }
        }
        delta
    }

    /// Current prior residual `r = r0 + J·δ`.
    pub fn residual(&self, window: &SlidingWindow) -> DVec {
        let delta = self.delta(window);
        &self.residual0 + &self.jacobian.mat_vec(&delta)
    }

    /// Prior cost `½‖r‖²` at the window's current estimate.
    pub fn cost(&self, window: &SlidingWindow) -> f64 {
        0.5 * self.residual(window).norm_squared()
    }

    /// Gradient `Jᵀ·r` of the prior cost at the window's current estimate,
    /// over the prior's own ordering (keyframes oldest first).
    pub fn gradient(&self, window: &SlidingWindow) -> DVec {
        self.jacobian.transpose_mat_vec(&self.residual(window))
    }

    /// Adds the prior's Gauss–Newton contribution to `(a, b)` and returns its
    /// cost. The prior occupies the keyframe block of the window ordering
    /// (columns `num_landmarks()..`).
    pub fn add_to_normal_equations(
        &self,
        window: &SlidingWindow,
        a: &mut DMat,
        b: &mut DVec,
    ) -> f64 {
        self.add_to_sink(window, &mut crate::problem::DenseSink { a, b })
    }

    /// Sink-generic form of [`Prior::add_to_normal_equations`]: the same
    /// writes in the same order, routed through the assembly sink so the
    /// dense and block-sparse paths stay bit-identical.
    pub(crate) fn add_to_sink<S: crate::problem::NormalEqSink>(
        &self,
        window: &SlidingWindow,
        sink: &mut S,
    ) -> f64 {
        let off = window.kf_offset(0);
        let r = self.residual(window);
        let h = &self.information;
        let grad = self.jacobian.transpose_mat_vec(&r);
        for i in 0..self.dim() {
            sink.sub_b(off + i, grad[i]);
            // One dense run per row (scale 1 is exact; see the run method's
            // zero-skip note for why dropping `±0.0` entries is bit-safe).
            sink.add_a_row(off + i, off, h.row(i), 1.0);
        }
        0.5 * r.norm_squared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};

    fn states(n: usize) -> Vec<KeyframeState> {
        (0..n)
            .map(|i| {
                KeyframeState::at_pose(
                    Pose::new(Quat::IDENTITY, Vec3::new(i as f64, 0.0, 0.0)),
                    i as f64,
                )
            })
            .collect()
    }

    fn spd_info(dim: usize) -> DMat {
        let b = DMat::from_fn(dim, dim, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.1);
        b.gram().add_diagonal(1.0)
    }

    #[test]
    fn information_roundtrip() {
        let lin = states(1);
        let hp = spd_info(STATE_DIM);
        let rp = DVec::from((0..STATE_DIM).map(|i| i as f64 * 0.01).collect::<Vec<_>>());
        let prior = Prior::from_information(&hp, &rp, lin, 0.0);
        assert!((prior.information() - &hp).max_abs() < 1e-9);
    }

    #[test]
    fn gradient_at_linearization_matches_rp() {
        let lin = states(1);
        let hp = spd_info(STATE_DIM);
        let rp = DVec::from(
            (0..STATE_DIM)
                .map(|i| (i as f64) * 0.1 - 0.5)
                .collect::<Vec<_>>(),
        );
        let prior = Prior::from_information(&hp, &rp, lin.clone(), 0.0);

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        // At the linearization point the b-contribution must be exactly +rp.
        let dim = w.state_dim();
        let mut a = DMat::zeros(dim, dim);
        let mut b = DVec::zeros(dim);
        prior.add_to_normal_equations(&w, &mut a, &mut b);
        for i in 0..STATE_DIM {
            assert!(
                (b[i] - rp[i]).abs() < 1e-9,
                "b[{i}] = {} vs rp {}",
                b[i],
                rp[i]
            );
        }
    }

    #[test]
    fn cost_grows_away_from_minimum() {
        let lin = states(2);
        let dim = STATE_DIM * 2;
        let hp = spd_info(dim);
        let rp = DVec::zeros(dim); // minimum exactly at the linearization point
        let prior = Prior::from_information(&hp, &rp, lin.clone(), 0.0);

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        let at_lin = prior.cost(&w);
        w.keyframes[1] = w.keyframes[1].boxplus(&[0.1; STATE_DIM]);
        let moved = prior.cost(&w);
        assert!(moved > at_lin);
    }

    #[test]
    fn regularization_rescues_singular_information() {
        let lin = states(1);
        let hp = DMat::zeros(STATE_DIM, STATE_DIM); // completely uninformative
        let rp = DVec::zeros(STATE_DIM);
        let prior = Prior::from_information(&hp, &rp, lin, 1e-8);
        assert_eq!(prior.dim(), STATE_DIM);
    }

    #[test]
    fn non_finite_information_is_an_error_not_a_panic() {
        let lin = states(1);
        let mut hp = spd_info(STATE_DIM);
        hp.set(0, 0, f64::NAN);
        let rp = DVec::zeros(STATE_DIM);
        assert!(Prior::try_from_information(&hp, &rp, lin.clone(), 1e-9).is_err());

        let hp = spd_info(STATE_DIM);
        let mut rp = DVec::zeros(STATE_DIM);
        rp[0] = f64::INFINITY;
        assert!(matches!(
            Prior::try_from_information(&hp, &rp, lin, 1e-9),
            Err(crate::SolveError::NonFinite)
        ));
    }
}
