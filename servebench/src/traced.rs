//! The traced run: the served sessions replayed through the public function
//! of each layer, every call timed from outside, into a per-layer ledger.
//!
//! The replay performs the fleet's per-session work — admission plan and
//! shared services, session construction, frame materialization, then per
//! frame the front end, the runtime decision, the LM loop with the f32
//! accelerator solve, the Eq. 13/17 model and the telemetry record — with
//! the fleet's own `fleet_pipeline_config()`, `services.runtime()` and
//! `f32_linear_solver`. Its estimates must be bit-equal to the untraced
//! run's, which proves the ledger describes the served f32 path. Sessions
//! are replayed whole, one at a time per worker, by as many workers as the
//! workload serves with.
//!
//! Shares are taken against measured wall time (workers × replay wall), not
//! against the attributed total: whatever no timed call covers is reported
//! as `ledger.unattributed_share`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use archytas_dataset::VioPipeline;
use archytas_fleet::{
    fleet_pipeline_config, plan_admission, AdmissionDecision, AdmittedSession, FleetConfig,
    FleetReport, FleetServices, PowerEnvelope, SessionOutcome, SessionSpec, SessionTelemetry,
};
use archytas_hw::f32_linear_solver;
use archytas_mdfg::ProblemShape;
use archytas_slam::{try_marginalize_oldest, LinearSolver, Pose, SolverWorkspace};

use crate::check::{self, Verdict};
use crate::served::{self, VariantRecord};
use crate::stats::{median, ratio};
use crate::workload::Workload;
use crate::{Metric, RunOutput};

/// Measured replays per run never fall below this.
const MIN_REPLAYS: usize = 2;
/// Every this many windows a replay worker serves, it also times one
/// `try_marginalize_oldest` probe on the window about to be optimized.
const MARGINALIZE_PROBE_EVERY: u64 = 4;

/// The ledger's rows: every timed call falls in exactly one.
#[derive(Debug, Clone, Copy)]
enum Row {
    /// Admission plan and shared services (`plan_admission`,
    /// `FleetServices::new`).
    FleetPlan,
    /// Session construction: `VioPipeline::new`, `services.runtime()`.
    FleetSessionInit,
    /// `SequenceSpec::build` plus fault, chaos and leave truncation.
    DatasetBuild,
    /// `VioPipeline::push_frame`.
    DatasetPushFrame,
    /// `RuntimeSystem::step_with_health`.
    CoreRuntimeStep,
    /// `optimize_and_slide_with_in` minus its linear solves: assembly,
    /// damping, cost evaluation, candidate copy, marginalization, slide.
    SlamLmRest,
    /// The `f32_linear_solver` calls inside the LM loop.
    HwLinearSolve,
    /// `CachedAcceleratorModel::window_latency_ms`.
    HwModel,
    /// `SessionTelemetry::record_window`.
    TelemetryRecord,
    /// `try_marginalize_oldest` probes on the window about to be optimized
    /// (reported as `slam.marginalize_ms`, not part of the served work).
    MarginalizeProbe,
}

const ROWS: [(Row, &str, &str); 10] = [
    (Row::FleetPlan, "fleet.plan", "ledger.fleet_plan_share"),
    (
        Row::FleetSessionInit,
        "fleet.session_init",
        "ledger.fleet_session_init_share",
    ),
    (
        Row::DatasetBuild,
        "dataset.build",
        "ledger.dataset_build_share",
    ),
    (
        Row::DatasetPushFrame,
        "dataset.push_frame",
        "ledger.dataset_push_frame_share",
    ),
    (
        Row::CoreRuntimeStep,
        "core.runtime_step",
        "ledger.core_runtime_step_share",
    ),
    (Row::SlamLmRest, "slam.lm_rest", "ledger.slam_lm_rest_share"),
    (
        Row::HwLinearSolve,
        "hw.linear_solve",
        "ledger.hw_linear_solve_share",
    ),
    (Row::HwModel, "hw.model", "ledger.hw_model_share"),
    (
        Row::TelemetryRecord,
        "telemetry.record",
        "ledger.telemetry_record_share",
    ),
    (
        Row::MarginalizeProbe,
        "slam.marginalize_probe",
        "ledger.marginalize_probe_share",
    ),
];

/// Timed totals and work counts of one or more replays.
#[derive(Default)]
struct Ledger {
    /// Nanoseconds and calls per [`Row`] (`SlamLmRest` is filled from
    /// `optimize_ns − solve` when the ledger is reported).
    ns: [u64; 10],
    calls: [u64; 10],
    /// Whole `optimize_and_slide_with_in` calls (ns).
    optimize_ns: u64,
    /// Worker wall time available: workers × replay wall (ns).
    worker_wall_ns: u64,
    sessions: u64,
    frames: u64,
    windows: u64,
    iterations: u64,
    watchdog_windows: u64,
    solve_failed: u64,
    accepted_steps: u64,
    /// Admission probes, outside the replay wall: (ns, calls).
    admit: (u64, u64),
    activate: (u64, u64),
}

impl Ledger {
    fn add(&mut self, row: Row, t0: Instant) {
        self.ns[row as usize] += elapsed_ns(t0);
        self.calls[row as usize] += 1;
    }

    fn merge(&mut self, o: &Ledger) {
        for r in 0..self.ns.len() {
            self.ns[r] += o.ns[r];
            self.calls[r] += o.calls[r];
        }
        self.optimize_ns += o.optimize_ns;
        self.worker_wall_ns += o.worker_wall_ns;
        self.sessions += o.sessions;
        self.frames += o.frames;
        self.windows += o.windows;
        self.iterations += o.iterations;
        self.watchdog_windows += o.watchdog_windows;
        self.solve_failed += o.solve_failed;
        self.accepted_steps += o.accepted_steps;
        for (a, b) in [(&mut self.admit, o.admit), (&mut self.activate, o.activate)] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One traced replay of a whole batch.
struct Replay {
    wall_s: f64,
    ledger: Ledger,
    /// Per submitted session: the replayed estimates (`None` when shed).
    estimates: Vec<Option<Vec<Pose>>>,
}

/// Replays every admitted session of `specs` on `threads` workers.
/// `reference` supplies, for a terminally quarantined session, the frame
/// its last failure hit: the replay stops there, as the served session did.
fn replay(
    specs: &[SessionSpec],
    config: &FleetConfig,
    threads: usize,
    reference: &FleetReport,
) -> Replay {
    let t0 = Instant::now();
    let mut main = Ledger::default();
    let envelope = PowerEnvelope::new(config.power_envelope_w, &config.design, &config.platform);
    let decisions = plan_admission(specs, config.max_active, config.shed_watermark, &envelope);
    let services = FleetServices::new(config);
    main.add(Row::FleetPlan, t0);
    let order: Vec<usize> = (0..specs.len())
        .filter(|&i| decisions[i] == AdmissionDecision::Admit)
        .chain((0..specs.len()).filter(|&i| decisions[i] == AdmissionDecision::Defer))
        .collect();
    let next = AtomicUsize::new(0);
    let estimates: Mutex<Vec<Option<Vec<Pose>>>> = Mutex::new(vec![None; specs.len()]);
    let worker = || {
        let mut ledger = Ledger::default();
        let mut workspace = SolverWorkspace::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = order.get(k) else { break };
            let served = &reference.sessions[i];
            let stop = match (&served.outcome, &served.failure) {
                (SessionOutcome::Quarantined, Some(f)) => Some(f.frame),
                _ => None,
            };
            let poses = replay_session(&specs[i], &services, stop, &mut ledger, &mut workspace);
            estimates.lock().expect("no replay worker panics")[i] = Some(poses);
        }
        ledger
    };
    let ledgers: Vec<Ledger> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        })
    };
    let wall = t0.elapsed();
    for l in &ledgers {
        main.merge(l);
    }
    main.worker_wall_ns = threads as u64 * u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    Replay {
        wall_s: wall.as_secs_f64(),
        ledger: main,
        estimates: estimates.into_inner().expect("no replay worker panics"),
    }
}

/// Replays one session, frame by frame, timing each layer call.
fn replay_session(
    spec: &SessionSpec,
    services: &FleetServices,
    stop_at_frame: Option<usize>,
    l: &mut Ledger,
    workspace: &mut SolverWorkspace,
) -> Vec<Pose> {
    let t = Instant::now();
    let config = fleet_pipeline_config();
    let weights = config.weights;
    let mut pipeline = VioPipeline::new(config);
    let mut runtime = services.runtime();
    let mut telemetry = SessionTelemetry::new();
    l.add(Row::FleetSessionInit, t);

    let t = Instant::now();
    let mut frames = spec.sequence.build().frames;
    if let Some(plan) = &spec.fault_plan {
        frames = archytas_faults::apply(plan, &frames);
    }
    if let Some(plan) = &spec.chaos {
        plan.poison_frames(&mut frames);
    }
    if let Some(n) = spec.leave_after_frames {
        frames.truncate(n);
    }
    l.add(Row::DatasetBuild, t);
    l.sessions += 1;

    let solve_ns = Cell::new(0u64);
    let solve_calls = Cell::new(0u64);
    let solve_failed = Cell::new(0u64);
    let timed_solver: LinearSolver<'_> = &|a, b, landmarks| {
        let t = Instant::now();
        let x = f32_linear_solver(a, b, landmarks);
        solve_ns.set(solve_ns.get() + elapsed_ns(t));
        solve_calls.set(solve_calls.get() + 1);
        solve_failed.set(solve_failed.get() + u64::from(x.is_none()));
        x
    };

    let mut estimates = Vec::new();
    let limit = stop_at_frame.unwrap_or(frames.len()).min(frames.len());
    for frame in &frames[..limit] {
        let t = Instant::now();
        let produced = pipeline.push_frame(frame);
        l.add(Row::DatasetPushFrame, t);
        l.frames += 1;
        if !produced {
            continue;
        }
        let features = pipeline.window().num_landmarks();
        let healthy = !pipeline.health().is_suspect();
        let t = Instant::now();
        let decision = runtime.step_with_health(features, healthy);
        l.add(Row::CoreRuntimeStep, t);
        l.watchdog_windows += u64::from(runtime.watchdog().engaged());

        if l.windows.is_multiple_of(MARGINALIZE_PROBE_EVERY) {
            let t = Instant::now();
            let probe = try_marginalize_oldest(pipeline.window(), &weights, pipeline.prior());
            l.add(Row::MarginalizeProbe, t);
            std::hint::black_box(probe.is_ok());
        }

        let t = Instant::now();
        let result =
            pipeline.optimize_and_slide_with_in(workspace, decision.iterations, timed_solver);
        l.optimize_ns += elapsed_ns(t);
        l.accepted_steps += result.report.step_norms.len() as u64;

        let shape = ProblemShape::from_workload(&result.workload);
        let t = Instant::now();
        let latency_ms = services
            .model
            .window_latency_ms(&shape, decision.iterations);
        l.add(Row::HwModel, t);
        let energy_mj = latency_ms * decision.gated_power_w;
        let t = Instant::now();
        telemetry.record_window(latency_ms, energy_mj, decision.iterations as u32);
        l.add(Row::TelemetryRecord, t);

        l.windows += 1;
        l.iterations += decision.iterations as u64;
        estimates.push(result.estimate);
    }
    l.ns[Row::HwLinearSolve as usize] += solve_ns.get();
    l.calls[Row::HwLinearSolve as usize] += solve_calls.get();
    l.solve_failed += solve_failed.get();
    estimates
}

/// Times `AdmittedSession::admit` and `activate` on a sample of the
/// batch, outside the replay's wall: admission first for the whole sample,
/// as `run_fleet` admits every session before serving, then activation.
fn probe_admission(
    workload: Workload,
    specs: &[SessionSpec],
    config: &FleetConfig,
    l: &mut Ledger,
) {
    let services = FleetServices::new(config);
    let mut admitted = Vec::new();
    for spec in specs.iter().step_by(workload.probe_every()) {
        let t = Instant::now();
        admitted.push(AdmittedSession::admit(spec, &services));
        l.admit.0 += elapsed_ns(t);
        l.admit.1 += 1;
    }
    for session in &mut admitted {
        let t = Instant::now();
        session.activate();
        l.activate.0 += elapsed_ns(t);
        l.activate.1 += 1;
    }
}

fn pose_bits(p: &Pose) -> [u64; 7] {
    [
        p.rot.w.to_bits(),
        p.rot.v.x().to_bits(),
        p.rot.v.y().to_bits(),
        p.rot.v.z().to_bits(),
        p.trans.x().to_bits(),
        p.trans.y().to_bits(),
        p.trans.z().to_bits(),
    ]
}

/// Replay fidelity: every replayed session's estimates must be bit-equal to
/// the served session's, and exactly the shed sessions are not replayed.
fn check_fidelity(replay: &Replay, served: &FleetReport, verdict: &mut Verdict) {
    for (s, replayed) in served.sessions.iter().zip(&replay.estimates) {
        let equal = match replayed {
            None => s.outcome == SessionOutcome::Shed,
            Some(poses) => {
                poses.len() == s.estimates.len()
                    && poses
                        .iter()
                        .zip(&s.estimates)
                        .all(|(a, b)| pose_bits(a) == pose_bits(b))
            }
        };
        if !equal {
            verdict.fail(format!(
                "{}: traced replay estimates differ from the served session's",
                s.name
            ));
        }
    }
}

/// Untraced counters kept per batch (their medians are reported).
#[derive(Default)]
struct FleetCounters {
    outside_step_share: Vec<f64>,
    counts: Vec<[f64; 10]>,
}

const COUNTER_NAMES: [&str; 10] = [
    "fleet.quanta",
    "fleet.steals",
    "fleet.shard_steals",
    "fleet.cross_steals",
    "fleet.contended_probes",
    "fleet.deferrals",
    "fleet.envelope_deferrals",
    "fleet.resurrections",
    "fleet.scratch_created",
    "fleet.scratch_checkouts",
];

impl FleetCounters {
    fn record(&mut self, r: &FleetReport) -> Result<(), String> {
        let stepped_ns: u64 = r.sessions.iter().flat_map(|s| s.frame_wall_ns.iter()).sum();
        let capacity_s = r.threads as f64 * r.serving_wall_s;
        self.outside_step_share.push(
            1.0 - ratio(
                "fleet.outside_step_share",
                stepped_ns as f64 * 1e-9,
                capacity_s,
            )?,
        );
        let s = &r.scheduler;
        self.counts.push(
            [
                s.quanta,
                s.steals,
                s.shard_steals,
                s.cross_steals,
                s.contended_probes,
                s.deferrals,
                s.envelope_deferrals,
                s.resurrections,
                s.scratch.created,
                s.scratch.checkouts,
            ]
            .map(|c| c as f64),
        );
        Ok(())
    }
}

/// Serves a batch untraced and replays it traced, alternately and cycling
/// through the workload's variants, until `seconds` have passed; gates
/// correctness and reports the per-layer metrics and ledger.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let config = workload.config();
    let variants = workload.variants();
    let threads = config.threads.max(1);
    let mut verdict = Verdict::default();
    let mut records: Vec<Option<VariantRecord>> = (0..variants).map(|_| None).collect();

    let warm = served::serve(workload, seed, 0, &config);
    served::check_batch(workload, 0, &warm, &mut records, &mut verdict);
    drop(warm);

    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut counters = FleetCounters::default();
    let mut ledger = Ledger::default();
    let mut attempted = 0u64;
    let mut first: Option<FleetReport> = None;
    let start = Instant::now();
    while traced_wall.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        let variant = traced_wall.len() % variants;
        let batch = served::serve(workload, seed, variant, &config);
        served::check_batch(workload, variant, &batch, &mut records, &mut verdict);
        counters.record(&batch.report)?;
        untraced_wall.push(batch.fleet_wall_s);

        probe_admission(workload, &batch.specs, &config, &mut ledger);
        let r = replay(&batch.specs, &config, threads, &batch.report);
        check_fidelity(&r, &batch.report, &mut verdict);
        // Probe time is extra work, not tracing cost: leave it out of the
        // wall the overhead compares.
        let probe_s = r.ledger.ns[Row::MarginalizeProbe as usize] as f64 * 1e-9 / threads as f64;
        traced_wall.push(r.wall_s - probe_s);
        ledger.merge(&r.ledger);
        attempted += batch.specs.len() as u64;
        first.get_or_insert(batch.report);
    }
    for rec in records.iter().flatten() {
        check::check_against_alone(&rec.gate, &config, &mut verdict);
    }
    let first = first.expect("at least one replay ran");
    let replays = traced_wall.len() as u64;
    report(
        &first,
        &ledger,
        replays,
        &counters,
        &untraced_wall,
        &traced_wall,
    )
    .map(|(metrics, notes)| RunOutput {
        metrics,
        attempted,
        verdict,
        notes,
    })
}

/// Builds the per-layer metrics and the printed ledger. Deterministic
/// fleet counts come from `reference`, the first served batch.
fn report(
    reference: &FleetReport,
    l: &Ledger,
    replays: u64,
    counters: &FleetCounters,
    untraced_wall: &[f64],
    traced_wall: &[f64],
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut ns = l.ns;
    let mut calls = l.calls;
    let solve = Row::HwLinearSolve as usize;
    let rest = Row::SlamLmRest as usize;
    ns[rest] = l.optimize_ns.saturating_sub(ns[solve]);
    calls[rest] = l.windows;
    let wall = l.worker_wall_ns as f64;
    let attributed: u64 = ns.iter().sum();
    let unattributed = 1.0 - attributed as f64 / wall;
    let windows = l.windows as f64;
    let per = |x: u64| x as f64 / replays as f64;
    let ms = |x: u64, n: f64, name| ratio(name, x as f64 * 1e-6, n);
    let us = |x: u64, n: f64, name| ratio(name, x as f64 * 1e-3, n);

    let mut notes = vec![
        format!(
            "{replays} traced replays of {} sessions on {} worker(s); replay fidelity checked \
             against the served estimates",
            reference.sessions.len(),
            reference.threads
        ),
        format!(
            "traced wall {:.3} s vs untraced run_fleet wall {:.3} s (medians)",
            median(traced_wall),
            median(untraced_wall)
        ),
        format!(
            "{:<20} {:>12} {:>8} {:>10} {:>12}",
            "ledger row", "total ms", "share", "calls", "us/call"
        ),
    ];
    for (row, name, _) in ROWS {
        let r = row as usize;
        notes.push(format!(
            "{name:<20} {:>12.3} {:>7.2}% {:>10} {:>12.3}",
            ns[r] as f64 * 1e-6,
            100.0 * ns[r] as f64 / wall,
            calls[r],
            if calls[r] == 0 {
                0.0
            } else {
                ns[r] as f64 * 1e-3 / calls[r] as f64
            },
        ));
    }
    notes.push(format!(
        "{:<20} {:>12.3} {:>7.2}%",
        "unattributed",
        (wall - attributed as f64) * 1e-6,
        100.0 * unattributed
    ));
    notes.push(format!(
        "{:<20} {:>12.3} {:>7.2}%",
        "traced wall",
        wall * 1e-6,
        100.0
    ));

    let rmse: Vec<f64> = reference
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Completed && s.windows > 0)
        .map(|s| s.rmse_m)
        .collect();
    let mut m = vec![
        Metric::new(
            "slam.rmse_m",
            ratio("slam.rmse_m", rmse.iter().sum(), rmse.len() as f64)?,
            "m",
        ),
        Metric::new(
            "slam.optimize_ms",
            ms(l.optimize_ns, windows, "slam.optimize_ms")?,
            "ms",
        ),
        Metric::new(
            "slam.lm_rest_ms",
            ms(ns[rest], windows, "slam.lm_rest_ms")?,
            "ms",
        ),
        Metric::new(
            "slam.lm_accept_ratio",
            ratio(
                "slam.lm_accept_ratio",
                l.accepted_steps as f64,
                calls[solve] as f64,
            )?,
            "ratio",
        ),
        Metric::new(
            "slam.marginalize_ms",
            ms(
                ns[Row::MarginalizeProbe as usize],
                calls[Row::MarginalizeProbe as usize] as f64,
                "slam.marginalize_ms",
            )?,
            "ms",
        ),
        Metric::new(
            "hw.linear_solve_ms",
            ms(ns[solve], windows, "hw.linear_solve_ms")?,
            "ms",
        ),
        Metric::new("hw.linear_solve_calls", per(calls[solve]), "count"),
        Metric::new("hw.linear_solve_failed", per(l.solve_failed), "count"),
        Metric::new(
            "hw.model_us",
            us(
                ns[Row::HwModel as usize],
                calls[Row::HwModel as usize] as f64,
                "hw.model_us",
            )?,
            "us",
        ),
        Metric::new(
            "hw.model_cache_hit_ratio",
            ratio(
                "hw.model_cache_hit_ratio",
                reference.model_cache_hits as f64,
                (reference.model_cache_hits + reference.model_evaluations) as f64,
            )?,
            "ratio",
        ),
        Metric::new(
            "core.runtime_step_us",
            us(
                ns[Row::CoreRuntimeStep as usize],
                windows,
                "core.runtime_step_us",
            )?,
            "us",
        ),
        Metric::new(
            "core.iterations_per_window",
            ratio("core.iterations_per_window", l.iterations as f64, windows)?,
            "count",
        ),
        Metric::new("core.watchdog_windows", per(l.watchdog_windows), "count"),
        Metric::new(
            "dataset.build_ms",
            ms(
                ns[Row::DatasetBuild as usize],
                l.sessions as f64,
                "dataset.build_ms",
            )?,
            "ms",
        ),
        Metric::new(
            "dataset.push_frame_us",
            us(
                ns[Row::DatasetPushFrame as usize],
                l.frames as f64,
                "dataset.push_frame_us",
            )?,
            "us",
        ),
        Metric::new(
            "fleet.admit_us",
            us(l.admit.0, l.admit.1 as f64, "fleet.admit_us")?,
            "us",
        ),
        Metric::new(
            "fleet.activate_ms",
            ms(l.activate.0, l.activate.1 as f64, "fleet.activate_ms")?,
            "ms",
        ),
        Metric::new(
            "fleet.outside_step_share",
            median(&counters.outside_step_share),
            "ratio",
        ),
    ];
    for (k, name) in COUNTER_NAMES.iter().enumerate() {
        let v: Vec<f64> = counters.counts.iter().map(|c| c[k]).collect();
        m.push(Metric::new(name, median(&v), "count"));
    }
    m.extend([
        Metric::new("fleet.restarts", reference.session_restarts as f64, "count"),
        Metric::new(
            "fleet.deadline_misses",
            reference.deadline_misses as f64,
            "count",
        ),
        Metric::new(
            "fleet.quarantined",
            reference.quarantined_sessions as f64,
            "count",
        ),
        Metric::new("fleet.shed", reference.shed_sessions as f64, "count"),
        Metric::new(
            "telemetry.record_us",
            us(
                ns[Row::TelemetryRecord as usize],
                calls[Row::TelemetryRecord as usize] as f64,
                "telemetry.record_us",
            )?,
            "us",
        ),
    ]);
    for (row, _, share) in ROWS {
        m.push(Metric::new(share, ns[row as usize] as f64 / wall, "ratio"));
    }
    m.push(Metric::new(
        "ledger.unattributed_share",
        unattributed,
        "ratio",
    ));
    m.push(Metric::new(
        "ledger.tracing_overhead",
        median(traced_wall) / median(untraced_wall) - 1.0,
        "ratio",
    ));
    Ok((m, notes))
}
