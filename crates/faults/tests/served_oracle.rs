//! Pipeline-level parity of the served solve path with its dense oracle.
//!
//! The served entry point, `VioPipeline::optimize_and_slide_f32_in`
//! (block-sparse assembly, f32 block Schur solve), must reproduce
//! `optimize_and_slide_with_in` with the dense f32 `f32_linear_solver`
//! window for window, bit for bit: the whole `WindowResult` including the
//! solve report's outcome, and the pipeline state the next window starts
//! from. The streams are fault-injected — sensor faults from the standard
//! matrix plus poisoned observations — so degraded solves, failed
//! factorizations and prior resets are compared too, not only clean
//! windows.

use archytas_dataset::{kitti_sequences, Frame, PipelineConfig, VioPipeline, WindowResult};
use archytas_faults::{scenarios, ChaosKind, ChaosPlan};
use archytas_hw::f32_linear_solver;
use archytas_slam::{SolveOutcome, SolverWorkspace};

/// Every float of a window result, as bits, plus its discrete fields.
fn fingerprint(r: &WindowResult) -> (Vec<u64>, String) {
    let rep = &r.report;
    let mut bits = vec![
        rep.initial_cost.to_bits(),
        rep.final_cost.to_bits(),
        rep.lambda.to_bits(),
        rep.last_step_norm.to_bits(),
    ];
    bits.extend(rep.step_norms.iter().map(|v| v.to_bits()));
    let discrete = format!(
        "{} {} {} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.window_id,
        rep.iterations,
        rep.converged,
        rep.outcome,
        r.estimate,
        r.ground_truth,
        r.workload,
        r.health,
        r.cause
    );
    (bits, discrete)
}

/// Drives the served and the oracle pipeline over `frames` in lockstep;
/// returns the served outcomes.
fn assert_lockstep(name: &str, frames: &[Frame]) -> Vec<SolveOutcome> {
    let mut served = VioPipeline::new(PipelineConfig::default());
    let mut oracle = VioPipeline::new(PipelineConfig::default());
    let mut ws_served = SolverWorkspace::new();
    let mut ws_oracle = SolverWorkspace::new();
    let mut outcomes = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let produced = served.push_frame(frame);
        assert_eq!(produced, oracle.push_frame(frame), "{name}: frame {i}");
        if !produced {
            continue;
        }
        // Cycle the iteration budget through the runtime's range.
        let iterations = 1 + outcomes.len() % 6;
        let a = served.optimize_and_slide_f32_in(&mut ws_served, iterations);
        let b = oracle.optimize_and_slide_with_in(&mut ws_oracle, iterations, &f32_linear_solver);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: window {} differs",
            a.window_id
        );
        assert_eq!(
            format!("{:?}", served.window()),
            format!("{:?}", oracle.window()),
            "{name}: window state after window {} differs",
            a.window_id
        );
        outcomes.push(a.report.outcome);
    }
    assert!(!outcomes.is_empty(), "{name}: no window closed");
    outcomes
}

#[test]
fn served_path_matches_dense_f32_oracle_on_faulted_streams() {
    let base = kitti_sequences()[1].truncated(4.0).build().frames;
    let mut outcomes = assert_lockstep("clean", &base);
    for sc in scenarios(7) {
        let frames = archytas_faults::apply(&sc.plan, &base);
        outcomes.extend(assert_lockstep(&sc.name, &frames));
    }
    let mut poisoned = base.clone();
    ChaosPlan::new(7)
        .with(ChaosKind::PoisonedObservation { start: 12, end: 20 })
        .poison_frames(&mut poisoned);
    outcomes.extend(assert_lockstep("poisoned", &poisoned));
    // The comparison covered degraded solves, not only clean convergence.
    assert!(
        outcomes.iter().any(SolveOutcome::is_degraded),
        "no window ended degraded"
    );
}
