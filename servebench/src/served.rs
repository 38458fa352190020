//! The untraced run: whole batches served through `run_fleet`, timed only
//! from outside the call.

use std::time::Instant;

use archytas_fleet::{
    percentile_ns, run_fleet, FleetConfig, FleetReport, SessionOutcome, SessionSpec,
};

use crate::check::{self, GateSample, Verdict};
use crate::stats::{calibrate, median, process_cpu_s, ratio, CALIBRATION_REF_S};
use crate::workload::Workload;
use crate::{Metric, RunOutput};

/// Measured batches per run never fall below this (nor below the
/// workload's variant count), however long one takes.
const MIN_BATCHES: usize = 3;
/// Pooled frame samples a run collects at least, so that p99 has ten
/// samples beyond it.
const MIN_FRAMES: usize = 1000;

/// One timed `run_fleet` call.
pub struct Batch {
    pub specs: Vec<SessionSpec>,
    pub report: FleetReport,
    /// Workload construction plus the part of `run_fleet` outside
    /// `serving_wall_s` (s).
    pub setup_s: f64,
    /// Wall time of the whole `run_fleet` call (s).
    pub fleet_wall_s: f64,
    /// Process CPU time over the `run_fleet` call, all threads (s).
    pub cpu_s: f64,
}

/// Builds batch `variant` of the workload and serves it once.
pub fn serve(workload: Workload, seed: u64, variant: usize, config: &FleetConfig) -> Batch {
    let t0 = Instant::now();
    let specs = workload.specs(seed, variant);
    let build_s = t0.elapsed().as_secs_f64();
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let report = run_fleet(&specs, config);
    let fleet_wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Batch {
        setup_s: build_s + (fleet_wall_s - report.serving_wall_s),
        fleet_wall_s,
        cpu_s,
        specs,
        report,
    }
}

/// Per-variant state: the first serve's digests (every repeat must match
/// them), its gate sample and its deterministic totals.
pub struct VariantRecord {
    digests: Vec<u64>,
    pub gate: Vec<GateSample>,
    submitted: usize,
    failed_sessions: usize,
    windows: usize,
    degraded: usize,
    latency_ms: f64,
    energy_mj: f64,
    rmse_m: Vec<f64>,
}

impl VariantRecord {
    fn new(workload: Workload, variant: usize, batch: &Batch) -> Self {
        let s = &batch.report.sessions;
        Self {
            digests: check::digests(s),
            gate: check::gate_samples(workload, variant, &batch.specs, &batch.report),
            submitted: s.len(),
            failed_sessions: batch.report.shed_sessions + batch.report.quarantined_sessions,
            windows: s.iter().map(|r| r.windows).sum(),
            degraded: s.iter().map(|r| r.degraded_windows).sum(),
            latency_ms: s.iter().map(|r| r.modelled_latency_ms).sum(),
            energy_mj: s.iter().map(|r| r.modelled_energy_mj).sum(),
            rmse_m: s
                .iter()
                .filter(|r| r.outcome == SessionOutcome::Completed && r.windows > 0)
                .map(|r| r.rmse_m)
                .collect(),
        }
    }
}

/// Checks a served batch against its plan and, for a repeated variant,
/// against the variant's first serve; records the first serve.
pub fn check_batch(
    workload: Workload,
    variant: usize,
    batch: &Batch,
    records: &mut [Option<VariantRecord>],
    verdict: &mut Verdict,
) {
    check::check_outcomes(workload.planned(&batch.specs), &batch.report, verdict);
    match &records[variant] {
        Some(rec) => check::check_repeat(&rec.digests, &batch.report, verdict),
        None => records[variant] = Some(VariantRecord::new(workload, variant, batch)),
    }
}

/// Serves one warm-up batch, then measured batches in whole cycles through
/// the workload's variants (so every variant weighs the same), as many
/// cycles as fit in `seconds` to the nearest one; gates correctness and
/// reports the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let config = workload.config();
    let variants = workload.variants();
    let mut verdict = Verdict::default();
    let mut records: Vec<Option<VariantRecord>> = (0..variants).map(|_| None).collect();

    let warm = serve(workload, seed, 0, &config);
    check_batch(workload, 0, &warm, &mut records, &mut verdict);
    let threads = warm.report.threads;
    drop(warm);

    // Every wall- and CPU-time metric is scaled by the host's speed at the
    // time of its batch, measured by the calibration kernel on either side
    // of it (`slowness` > 1 on a slower-than-reference host), so contention
    // on a shared machine cancels out. Raw medians are printed alongside.
    let mut setup = Vec::new();
    let mut windows_per_s = Vec::new();
    let mut frames_per_s = Vec::new();
    let mut cpu_us_per_frame = Vec::new();
    let mut raw_windows_per_s = Vec::new();
    let mut slowness_all = Vec::new();
    let mut frame_ns: Vec<u64> = Vec::new();
    let mut attempted = 0u64;
    let mut cal_before = calibrate(threads);
    let start = Instant::now();
    loop {
        let done = setup.len();
        if done % variants == 0 && done >= MIN_BATCHES.max(variants) && frame_ns.len() >= MIN_FRAMES
        {
            // At a cycle boundary: start another cycle only if at least
            // half of it fits in the time left.
            let elapsed = start.elapsed().as_secs_f64();
            let cycle_s = elapsed / (done / variants) as f64;
            if elapsed + cycle_s / 2.0 >= seconds {
                break;
            }
        }
        let variant = done % variants;
        let batch = serve(workload, seed, variant, &config);
        let cal_after = calibrate(threads);
        let slowness = (cal_before + cal_after) / 2.0 / CALIBRATION_REF_S;
        cal_before = cal_after;
        check_batch(workload, variant, &batch, &mut records, &mut verdict);
        let r = &batch.report;
        attempted += r.sessions.len() as u64;
        let wps = ratio(
            "windows_per_s",
            r.windows_processed as f64,
            r.serving_wall_s,
        )?;
        setup.push(batch.setup_s / slowness);
        windows_per_s.push(wps * slowness);
        raw_windows_per_s.push(wps);
        slowness_all.push(slowness);
        frames_per_s
            .push(ratio("frames_per_s", r.frames_processed as f64, r.serving_wall_s)? * slowness);
        cpu_us_per_frame.push(ratio(
            "cpu_us_per_frame",
            batch.cpu_s * 1e6 / slowness,
            r.frames_processed as f64,
        )?);
        frame_ns.extend(
            r.sessions
                .iter()
                .flat_map(|s| s.frame_wall_ns.iter())
                .map(|&ns| (ns as f64 / slowness) as u64),
        );
    }

    let records: Vec<VariantRecord> = records.into_iter().flatten().collect();
    for rec in &records {
        check::check_against_alone(&rec.gate, &config, &mut verdict);
    }

    frame_ns.sort_unstable();
    let p50 = percentile_ns(&frame_ns, 50.0) as f64 / 1e3;
    let p99 = percentile_ns(&frame_ns, 99.0) as f64 / 1e3;

    // Deterministic metrics, over the first serve of every variant.
    let sum = |f: fn(&VariantRecord) -> f64| records.iter().map(f).sum::<f64>();
    let windows = sum(|r| r.windows as f64);
    let rmse: Vec<f64> = records
        .iter()
        .flat_map(|r| r.rmse_m.iter().copied())
        .collect();
    let failed_sessions = sum(|r| r.failed_sessions as f64);
    let submitted = sum(|r| r.submitted as f64);

    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("windows_per_s", median(&windows_per_s), "1/s"),
        Metric::new("frames_per_s", median(&frames_per_s), "1/s"),
        Metric::new("frame_p50_us", p50, "us"),
        Metric::new("frame_p99_us", p99, "us"),
        Metric::new("cpu_us_per_frame", median(&cpu_us_per_frame), "us"),
        Metric::new(
            "modeled_window_ms",
            ratio("modeled_window_ms", sum(|r| r.latency_ms), windows)?,
            "ms",
        ),
        Metric::new(
            "modeled_energy_mj_per_window",
            ratio(
                "modeled_energy_mj_per_window",
                sum(|r| r.energy_mj),
                windows,
            )?,
            "mJ",
        ),
        Metric::new(
            "healthy_window_share",
            1.0 - ratio("healthy_window_share", sum(|r| r.degraded as f64), windows)?,
            "ratio",
        ),
        Metric::new(
            "sessions_served_share",
            1.0 - ratio("sessions_served_share", failed_sessions, submitted)?,
            "ratio",
        ),
    ];
    let notes = vec![
        format!(
            "{} measured batches over {variants} variant(s) of {} sessions, {threads} worker(s); \
             {windows} windows and {} completed trajectories in the variants' first serves",
            setup.len(),
            records[0].submitted,
            rmse.len(),
        ),
        format!(
            "frame latency sample: n={} frames; host slowness vs reference: median {:.3}; \
             raw windows_per_s median {:.3}",
            frame_ns.len(),
            median(&slowness_all),
            median(&raw_windows_per_s),
        ),
        format!(
            "rmse_m {:.6} m: mean trajectory RMSE, reported as slam.rmse_m by --trace 1",
            ratio("rmse_m", rmse.iter().sum(), rmse.len() as f64)?
        ),
        format!(
            "failed sessions (shed + quarantined): {failed_sessions} of {submitted} submitted, \
             as planned"
        ),
    ];
    Ok(RunOutput {
        metrics,
        attempted,
        verdict,
        notes,
    })
}
