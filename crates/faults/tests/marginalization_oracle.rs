//! Bitwise oracle of the served marginalization.
//!
//! `try_marginalize_oldest` writes the blocks of the local information
//! matrix it reads straight into reused buffers, inverts `M` with
//! zero-skipping substitutions and builds the prior with its `Hp = JᵀJ`
//! formed once. The oracle below is the dense formulation it replaced:
//! assemble the whole `H`, partition it, invert `M` with
//! `Cholesky::inverse`, and factor the prior exactly as
//! `Prior::try_from_information` did (`J = Lᵀ` by transposition, `Hp`
//! recomputed from `J`). Both must agree on `Ok`/`Err` (and on the error),
//! and on `Ok` the shrunk window, the marginalized-landmark count and the
//! prior's `J`, `r0` and `Hp` must be bit-equal.
//!
//! Windows come from clean sequences (every window, including each
//! session's first ones with over a hundred marginalized landmarks), the
//! fault-matrix scenarios, a poisoned-observation stream, and windows and
//! priors poisoned with NaN and ±Inf by hand; each is marginalized with its
//! pipeline's prior and without one.

use archytas_dataset::{euroc_sequences, kitti_sequences, Frame, PipelineConfig, VioPipeline};
use archytas_faults::{scenarios, ChaosKind, ChaosPlan};
use archytas_math::{BlockSpec, Blocked2x2, DMat, DVec};
use archytas_slam::{
    drop_oldest, evaluate_imu, evaluate_visual, try_marginalize_oldest, FactorWeights, Prior,
    SlidingWindow, SolveError, SolverWorkspace, Vec3, STATE_DIM,
};

/// What the oracle produces on success: the shrunk window, the
/// marginalized-landmark count and the prior's `J`, `r0`, `Hp`.
struct OracleResult {
    window: SlidingWindow,
    marginalized: usize,
    jacobian: DMat,
    residual0: DVec,
    information: DMat,
}

/// The dense marginalization, as served before the structured one.
fn oracle(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<OracleResult, SolveError> {
    let b = window.num_keyframes();
    let marg_landmarks: Vec<usize> = (0..window.landmarks.len())
        .filter(|&l| window.landmarks[l].anchor == 0)
        .collect();
    let am = marg_landmarks.len();
    let lm_slot: std::collections::HashMap<usize, usize> = marg_landmarks
        .iter()
        .enumerate()
        .map(|(slot, &l)| (l, slot))
        .collect();

    // Local ordering: [marginalized landmarks (am) | kf0 (15) | kept keyframes ((b−1)·15)].
    let marg_dim = am + STATE_DIM;
    let dim = marg_dim + (b - 1) * STATE_DIM;
    let kf_off = |k: usize| -> usize {
        if k == 0 {
            am
        } else {
            marg_dim + (k - 1) * STATE_DIM
        }
    };

    let mut h = DMat::zeros(dim, dim);
    let mut g = DVec::zeros(dim);

    let wv2 = weights.visual * weights.visual;
    for obs in &window.observations {
        let Some(&slot) = lm_slot.get(&obs.landmark) else {
            continue;
        };
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
        let w2 = match weights.huber_delta {
            None => wv2,
            Some(_) => wv2 * weights.visual_robust_scale(ev.residual[0], ev.residual[1]),
        };
        let col_anchor = kf_off(0);
        let col_obs = kf_off(obs.keyframe);
        for r in 0..2 {
            let e = ev.residual[r];
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
            accumulate(&mut h, &mut g, &cols, &vals, e, w2);
        }
    }

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
            accumulate(&mut h, &mut g, &cols, &vals, e, w * w);
        }
    }

    if let Some(p) = prior {
        // `Hp` recomputed from `J`, as the uncached prior did.
        let hp = p.jacobian().gram();
        let jt_r = p.gradient(window);
        for i in 0..p.dim() {
            g[am + i] -= jt_r[i];
            for j in 0..p.dim() {
                h.add_at(am + i, am + j, hp.get(i, j));
            }
        }
    } else {
        let off = kf_off(0);
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            h.add_at(off + c, off + c, w2);
        }
    }

    let spec = BlockSpec::new(marg_dim, dim).expect("valid split");
    let blocked = Blocked2x2::partition(&h, spec).expect("partition");
    let (bx, by) = archytas_math::split_vector(&g, spec).expect("split");
    let m = blocked.u.add_diagonal(1e-9);
    let m_inv = m.cholesky()?.inverse();
    let lm_inv = blocked.w.try_mul(&m_inv).expect("shapes");
    let prod = lm_inv.try_mul(&blocked.w.transpose()).expect("shapes");
    let hp = &blocked.v - &prod;
    let rp = &by - &blocked.w.mat_vec(&m_inv.mat_vec(&bx));

    // The prior's square-root factorization, as `Prior::try_from_information`
    // did it before caching `Hp`.
    if !rp.all_finite() {
        return Err(SolveError::NonFinite);
    }
    let mut eps = 1e-9;
    let scale = hp.max_abs().max(1.0);
    if !scale.is_finite() {
        return Err(SolveError::NonFinite);
    }
    let l = loop {
        match hp.add_diagonal(eps).cholesky() {
            Ok(chol) => break chol.into_l(),
            Err(e) => {
                eps *= 100.0;
                if eps > scale * 10.0 {
                    return Err(SolveError::Linear(e));
                }
            }
        }
    };
    let jacobian = l.transpose();
    let residual0 = archytas_math::solve_lower(&l, &(-&rp));
    let information = jacobian.gram();

    Ok(OracleResult {
        window: drop_oldest(window).0,
        marginalized: am,
        jacobian,
        residual0,
        information,
    })
}

fn accumulate(h: &mut DMat, g: &mut DVec, cols: &[usize], vals: &[f64], e: f64, w2: f64) {
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
            h.add_at(ci, cj, contrib);
            if ci != cj {
                h.add_at(cj, ci, contrib);
            }
        }
    }
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

/// Tallies of the compared cases.
#[derive(Default)]
struct Tally {
    ok: usize,
    err: usize,
    max_marginalized: usize,
}

impl Tally {
    /// Marginalizes `window` both ways and asserts they agree.
    fn compare(&mut self, case: &str, window: &SlidingWindow, prior: Option<&Prior>) {
        let weights = FactorWeights::default();
        let served = try_marginalize_oldest(window, &weights, prior);
        let expected = oracle(window, &weights, prior);
        match (served, expected) {
            (Ok(s), Ok(o)) => {
                assert_eq!(s.marginalized_landmarks, o.marginalized, "{case}");
                assert_eq!(
                    format!("{:?}", s.window),
                    format!("{:?}", o.window),
                    "{case}: shrunk window"
                );
                let p = &s.prior;
                assert_eq!(p.jacobian().shape(), o.jacobian.shape(), "{case}: J shape");
                assert_eq!(
                    bits(p.jacobian().as_slice()),
                    bits(o.jacobian.as_slice()),
                    "{case}: J"
                );
                assert_eq!(
                    bits(p.residual0().as_slice()),
                    bits(o.residual0.as_slice()),
                    "{case}: r0"
                );
                assert_eq!(
                    bits(p.information().as_slice()),
                    bits(o.information.as_slice()),
                    "{case}: Hp"
                );
                self.ok += 1;
                self.max_marginalized = self.max_marginalized.max(o.marginalized);
            }
            (Err(s), Err(o)) => {
                assert_eq!(format!("{s:?}"), format!("{o:?}"), "{case}: error");
                self.err += 1;
            }
            (s, o) => panic!(
                "{case}: served {:?} vs oracle {:?}",
                s.map(|_| "Ok"),
                o.map(|_| "Ok")
            ),
        }
    }

    /// Compares every window `frames` closes, with and without the
    /// pipeline's prior, advancing through the served path.
    fn stream(&mut self, name: &str, frames: &[Frame]) {
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut ws = SolverWorkspace::new();
        for frame in frames {
            if !pipeline.push_frame(frame) {
                continue;
            }
            let case = format!("{name} window {}", pipeline.windows_processed());
            self.compare(&case, pipeline.window(), pipeline.prior());
            self.compare(&format!("{case} (no prior)"), pipeline.window(), None);
            pipeline.optimize_and_slide_f32_in(&mut ws, 3);
        }
    }
}

#[test]
fn structured_marginalization_matches_dense_oracle_on_clean_sequences() {
    let mut tally = Tally::default();
    for (i, spec) in kitti_sequences()
        .iter()
        .chain(&euroc_sequences())
        .enumerate()
    {
        let frames = spec.truncated(3.0).build().frames;
        tally.stream(&format!("sequence {i}"), &frames);
    }
    assert!(tally.ok > 100, "only {} windows compared", tally.ok);
    assert!(
        tally.max_marginalized >= 100,
        "largest marginalization had {} landmarks",
        tally.max_marginalized
    );
}

#[test]
fn structured_marginalization_matches_dense_oracle_on_faulted_streams() {
    let base = kitti_sequences()[1].truncated(4.0).build().frames;
    let mut tally = Tally::default();
    let all = scenarios(7);
    assert_eq!(all.len(), 9);
    for sc in all {
        tally.stream(&sc.name, &archytas_faults::apply(&sc.plan, &base));
    }
    let mut poisoned = base.clone();
    ChaosPlan::new(7)
        .with(ChaosKind::PoisonedObservation { start: 12, end: 20 })
        .poison_frames(&mut poisoned);
    tally.stream("poisoned stream", &poisoned);
    assert!(tally.ok > 0);
}

#[test]
fn structured_marginalization_matches_dense_oracle_on_poisoned_inputs() {
    let frames = kitti_sequences()[0].truncated(3.0).build().frames;
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    let mut ws = SolverWorkspace::new();
    let mut tally = Tally::default();
    let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for frame in &frames {
        if !pipeline.push_frame(frame) {
            continue;
        }
        let case = format!("window {}", pipeline.windows_processed());
        let window = pipeline.window();
        for (k, &bad) in poisons.iter().enumerate() {
            // Observations of marginalized landmarks, one coordinate or both.
            let mut w = window.clone();
            for (i, obs) in w.observations.iter_mut().enumerate() {
                if w.landmarks[obs.landmark].anchor == 0 && i % 3 == k {
                    obs.uv[i % 2] = bad;
                }
            }
            tally.compare(&format!("{case}: obs {bad}"), &w, pipeline.prior());
            tally.compare(&format!("{case}: obs {bad}, no prior"), &w, None);

            // A kept keyframe's state, seen through the prior's gradient.
            let mut w = window.clone();
            w.keyframes[1 + k].velocity = Vec3::new(bad, 0.0, 0.0);
            tally.compare(&format!("{case}: state {bad}"), &w, pipeline.prior());

            // A prior linearized at a poisoned state.
            if let Some(p) = pipeline.prior() {
                let mut lin = window.keyframes[..p.num_keyframes()].to_vec();
                lin[k].velocity = Vec3::new(0.0, bad, 0.0);
                let rp = -&p.jacobian().transpose_mat_vec(p.residual0());
                let poisoned = Prior::try_from_information(p.information(), &rp, lin, 1e-9)
                    .expect("finite information factors");
                tally.compare(&format!("{case}: prior {bad}"), window, Some(&poisoned));
            }
        }
        // A prior whose information overflows when folded in.
        if let Some(p) = pipeline.prior() {
            let hp = p.information().scale(1e300);
            let rp = DVec::zeros(p.dim());
            let lin = window.keyframes[..p.num_keyframes()].to_vec();
            if let Ok(huge) = Prior::try_from_information(&hp, &rp, lin, 1e-9) {
                tally.compare(&format!("{case}: huge prior"), window, Some(&huge));
            }
        }
        pipeline.optimize_and_slide_f32_in(&mut ws, 3);
    }
    assert!(tally.err > 0, "no poisoned case failed");
    assert!(tally.ok > 0, "no poisoned case succeeded");
}
