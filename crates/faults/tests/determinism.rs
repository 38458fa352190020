//! Bitwise determinism of faulted runs across `ARCHYTAS_THREADS` settings.
//!
//! The parallel layer reads `ARCHYTAS_THREADS` when a pool is created, so
//! this file must stay a *separate* integration-test binary with a single
//! `#[test]`: cargo runs test binaries sequentially, but tests inside one
//! binary share the process environment concurrently.

use archytas_faults::{run_scenario, scenarios};
use archytas_slam::Pose;

fn bits(poses: &[Pose]) -> Vec<[u64; 7]> {
    poses
        .iter()
        .map(|p| {
            [
                p.trans.x().to_bits(),
                p.trans.y().to_bits(),
                p.trans.z().to_bits(),
                p.rot.w.to_bits(),
                p.rot.v.x().to_bits(),
                p.rot.v.y().to_bits(),
                p.rot.v.z().to_bits(),
            ]
        })
        .collect()
}

#[test]
fn faulted_runs_are_bit_identical_across_pools() {
    let matrix = scenarios(7);
    for name in ["vision-dropout", "stacked"] {
        let sc = matrix
            .iter()
            .find(|s| s.name == name)
            .expect("scenario present");
        let mut reference: Option<Vec<[u64; 7]>> = None;
        for threads in ["1", "2", "8"] {
            std::env::set_var("ARCHYTAS_THREADS", threads);
            let r = run_scenario(sc, 4.0);
            assert!(r.completed, "{name} @ {threads} threads panicked");
            let b = bits(&r.estimates);
            match &reference {
                None => reference = Some(b),
                Some(r0) => assert_eq!(
                    r0, &b,
                    "{name}: pool size {threads} changed the trajectory bits"
                ),
            }
        }
        std::env::remove_var("ARCHYTAS_THREADS");
    }
}
