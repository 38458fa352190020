//! Dispatch-pool resolutions on the served window path.
//!
//! `Pool::global` re-reads the environment and the cgroup CPU limits on
//! every call, so the served path resolves its pool once per workspace: a
//! warmed window through `optimize_and_slide_f32_in` — solve and
//! marginalization — resolves none. The workspace-less `optimize_and_slide`
//! re-reads it once per call, so it keeps following `ARCHYTAS_THREADS`.
//!
//! One test function only: the resolution counter is process-wide, and a
//! concurrently running test would add its own resolutions.

use archytas_dataset::{kitti_sequences, Frame, PipelineConfig, VioPipeline};
use archytas_par::Pool;
use archytas_slam::SolverWorkspace;

/// Pushes frames until the window is full.
fn fill<'a>(pipeline: &mut VioPipeline, frames: &mut impl Iterator<Item = &'a Frame>) {
    while !pipeline.push_frame(frames.next().expect("sequence long enough")) {}
}

#[test]
fn warmed_served_windows_resolve_no_pool() {
    let frames = kitti_sequences()[0].truncated(6.0).build().frames;
    let mut frames = frames.iter();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());

    // Warm up: the held workspace resolves its pool on its first solve, and
    // the first calibrated pool measures this machine once per process.
    let mut ws = SolverWorkspace::new();
    for _ in 0..2 {
        fill(&mut pipeline, &mut frames);
        pipeline.optimize_and_slide_f32_in(&mut ws, 3);
        fill(&mut pipeline, &mut frames);
        pipeline.optimize_and_slide(3);
    }

    let windows = 10;
    let before = Pool::resolutions();
    let mut marginalized = 0;
    for _ in 0..windows {
        fill(&mut pipeline, &mut frames);
        let r = pipeline.optimize_and_slide_f32_in(&mut ws, 3);
        marginalized += r.workload.marginalized_features;
    }
    assert_eq!(Pool::resolutions() - before, 0, "warmed served windows");
    assert!(marginalized > 0, "the windows marginalized landmarks");

    let before = Pool::resolutions();
    for _ in 0..windows {
        fill(&mut pipeline, &mut frames);
        pipeline.optimize_and_slide(3);
    }
    assert_eq!(
        Pool::resolutions() - before,
        windows as u64,
        "workspace-less windows resolve one pool each"
    );
}
