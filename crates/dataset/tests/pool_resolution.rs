//! Dispatch-pool resolutions on the window paths.
//!
//! The solver kernels are serial and take no pool, so no window path
//! resolves one (`Pool::global` re-reads the environment and the cgroup CPU
//! limits on every call): not the served `optimize_and_slide_f32_in` with a
//! held workspace, not the workspace-less `optimize_and_slide`, and not a
//! bare `slam::solve` — cold or warm, solve and marginalization alike.
//!
//! One test function only: the resolution counter is process-wide, and a
//! concurrently running test would add its own resolutions.

use archytas_dataset::{kitti_sequences, Frame, PipelineConfig, VioPipeline};
use archytas_par::Pool;
use archytas_slam::{FactorWeights, LmConfig, SolverWorkspace};

/// Pushes frames until the window is full.
fn fill<'a>(pipeline: &mut VioPipeline, frames: &mut impl Iterator<Item = &'a Frame>) {
    while !pipeline.push_frame(frames.next().expect("sequence long enough")) {}
}

#[test]
fn warmed_served_windows_resolve_no_pool() {
    let frames = kitti_sequences()[0].truncated(6.0).build().frames;
    let mut frames = frames.iter();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    let windows = 10;

    let before = Pool::resolutions();
    let mut ws = SolverWorkspace::new();
    let mut marginalized = 0;
    for _ in 0..windows {
        fill(&mut pipeline, &mut frames);
        let r = pipeline.optimize_and_slide_f32_in(&mut ws, 3);
        marginalized += r.workload.marginalized_features;
    }
    assert_eq!(Pool::resolutions() - before, 0, "served windows");
    assert!(marginalized > 0, "the windows marginalized landmarks");

    let before = Pool::resolutions();
    for _ in 0..windows {
        fill(&mut pipeline, &mut frames);
        pipeline.optimize_and_slide(3);
    }
    assert_eq!(Pool::resolutions() - before, 0, "workspace-less windows");

    fill(&mut pipeline, &mut frames);
    let (weights, config) = (FactorWeights::default(), LmConfig::default());
    let before = Pool::resolutions();
    for _ in 0..windows {
        let mut window = pipeline.window().clone();
        archytas_slam::solve(&mut window, &weights, pipeline.prior(), &config);
    }
    assert_eq!(Pool::resolutions() - before, 0, "slam::solve");
}
