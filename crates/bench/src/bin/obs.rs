//! Serving-grade observability bench: runs the standard 8-vehicle batch
//! with telemetry and phase counters enabled and emits the fleet's
//! observability surface in both machine- and human-readable form.
//!
//! Usage: `obs [--threads N] [--seconds S] [--budget-w W]` (threads also
//! via `ARCHYTAS_FLEET_THREADS`, default 1; `--budget-w` overrides the
//! tight-envelope demo budget, default two sessions' Eq. 17 draw).
//!
//! Output for `scripts/obs_smoke.sh`:
//! * one `OBSREC {...}` line per scope (fleet + each traffic class) — the
//!   deterministic aggregate payload: merged latency/energy histograms in
//!   sparse `[bucket, count]` form, integer percentiles, the implied watt
//!   figure as a bit pattern. Byte-identical across pool sizes by the
//!   canonical-fold contract;
//! * one `OBSENV {...}` line per session of the tight-envelope run — the
//!   deterministic shed/defer/admit decision set plus post-run digests;
//! * one `OBSJSON {...}` line — a superset of the fleet bench's FLEETJSON
//!   record (same field prefix) extended with running fleet watts, the
//!   envelope verdicts, and per-phase wall-time attribution (shares of the
//!   workers' wall time, closed by an `unattributed` row). Wall-clock
//!   fields live only here, never in OBSREC/OBSENV.
//!
//! A `perf_phases`-style human table of the same numbers goes to stdout
//! before the machine lines.

use archytas_bench::json::{array, JsonLine};
use archytas_bench::{banner, print_table, standard_fleet_specs};
use archytas_fleet::{
    plan_admission, run_fleet, FleetConfig, PowerEnvelope, SessionOutcome, TrafficClass,
};
use archytas_par::counters;
use archytas_telemetry::{phase_rows, Histogram, ScopeAggregate};

fn bucket_array(h: &Histogram) -> String {
    array(h.nonzero_buckets().map(|(i, c)| format!("[{i},{c}]")))
}

/// One deterministic OBSREC payload for a scope (fleet or class).
fn scope_record(scope: &str, agg: &ScopeAggregate) -> String {
    let lat = &agg.latency_ns;
    let nrg = &agg.energy_nj;
    JsonLine::new()
        .str("scope", scope)
        .uint("sessions", agg.sessions)
        .uint("windows", agg.windows)
        .uint("lat_total_ns", lat.total())
        .uint("lat_min_ns", if lat.count() == 0 { 0 } else { lat.min() })
        .uint("lat_max_ns", lat.max())
        .uint("lat_p50_ns", lat.percentile(50.0))
        .uint("lat_p95_ns", lat.percentile(95.0))
        .uint("lat_p99_ns", lat.percentile(99.0))
        .uint("energy_total_nj", nrg.total())
        .uint("energy_p99_nj", nrg.percentile(99.0))
        .bits("watts_bits", agg.watts().to_bits())
        .float("watts", agg.watts(), 6)
        .float("mean_iterations", agg.mean_iterations(), 6)
        .raw("lat_buckets", &bucket_array(lat))
        .raw("energy_buckets", &bucket_array(nrg))
        .finish()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut threads: usize = std::env::var("ARCHYTAS_FLEET_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut seconds = 4.0f64;
    let mut budget_override: Option<f64> = None;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs an unsigned integer");
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds needs a number");
            }
            "--budget-w" => {
                budget_override = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget-w needs a number"),
                );
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let specs = standard_fleet_specs(seconds);
    let config = FleetConfig {
        threads,
        ..FleetConfig::default()
    };

    // Phase counters attribute solver wall time (assembly, factorization,
    // back-substitution, ...) across the whole serving run; shares are of
    // the workers' wall time (the recording wall × workers), the rest is
    // the `unattributed` row. Timing only — everything deterministic flows
    // through the telemetry instead.
    counters::reset();
    counters::enable();
    let recording = std::time::Instant::now();
    let report = run_fleet(&specs, &config);
    let recording_ns = recording.elapsed().as_nanos() as u64;
    counters::disable();
    let worker_wall_ns = recording_ns * report.threads.max(1) as u64;
    let phases = phase_rows(worker_wall_ns);

    // ---- Human tables --------------------------------------------------
    banner("OBS", "fleet observability: per-class telemetry + power");
    let scopes: Vec<(String, &ScopeAggregate)> =
        std::iter::once(("fleet".to_string(), &report.telemetry.fleet))
            .chain(
                TrafficClass::ALL
                    .iter()
                    .map(|c| (format!("class/{}", c.name()), report.telemetry.class(*c))),
            )
            .collect();
    print_table(
        &[
            "scope",
            "sessions",
            "windows",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "energy mJ",
            "watts",
            "iters",
        ],
        &scopes
            .iter()
            .map(|(name, agg)| {
                vec![
                    name.clone(),
                    agg.sessions.to_string(),
                    agg.windows.to_string(),
                    format!("{:.1}", agg.latency_ns.percentile(50.0) as f64 / 1e3),
                    format!("{:.1}", agg.latency_ns.percentile(95.0) as f64 / 1e3),
                    format!("{:.1}", agg.latency_ns.percentile(99.0) as f64 / 1e3),
                    format!("{:.3}", agg.energy_nj.total() as f64 / 1e6),
                    format!("{:.3}", agg.watts()),
                    format!("{:.2}", agg.mean_iterations()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["phase", "wall ms", "calls", "share"],
        &phases
            .iter()
            .map(|p| {
                vec![
                    p.name.to_string(),
                    format!("{:.3}", p.wall_ns as f64 / 1e6),
                    p.calls.to_string(),
                    format!("{:.1}%", p.share * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ---- Tight-envelope demo -------------------------------------------
    // A watt budget sized for two concurrent sessions of the deployed
    // design: admission must shed Low and defer Normal arrivals past the
    // boundary — the same set at every pool size.
    let draw = PowerEnvelope::new(f64::INFINITY, &config.design, &config.platform).session_draw_w;
    let budget_w = budget_override.unwrap_or(2.0 * draw + 1e-9);
    let envelope = PowerEnvelope::new(budget_w, &config.design, &config.platform);
    let decisions = plan_admission(&specs, config.max_active, config.shed_watermark, &envelope);
    let env_config = FleetConfig {
        power_envelope_w: budget_w,
        ..config.clone()
    };
    let env_report = run_fleet(&specs, &env_config);

    println!();
    banner(
        "OBS/ENV",
        &format!(
            "power envelope {budget_w:.2} W (capacity {} × {draw:.2} W sessions)",
            envelope.capacity()
        ),
    );
    print_table(
        &["session", "class", "decision", "outcome", "windows"],
        &specs
            .iter()
            .zip(&decisions)
            .zip(&env_report.sessions)
            .map(|((spec, d), s)| {
                vec![
                    spec.name.clone(),
                    TrafficClass::from(spec.priority).name().to_string(),
                    format!("{d:?}"),
                    format!("{:?}", s.outcome),
                    s.windows.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ---- Machine-readable lines ----------------------------------------
    for (name, agg) in &scopes {
        println!("OBSREC {}", scope_record(name, agg));
    }
    for ((spec, decision), s) in specs.iter().zip(&decisions).zip(&env_report.sessions) {
        let line = JsonLine::new()
            .str("session", &spec.name)
            .str("class", TrafficClass::from(spec.priority).name())
            .str("decision", &format!("{decision:?}"))
            .str("outcome", &format!("{:?}", s.outcome))
            .uint("windows", s.windows as u64)
            .bits(
                "digest",
                if s.outcome == SessionOutcome::Shed {
                    0
                } else {
                    s.digest()
                },
            );
        println!("OBSENV {}", line.finish());
    }

    let completed = report
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Completed)
        .count();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let phase_json = array(phases.iter().map(|p| {
        JsonLine::new()
            .str("name", p.name)
            .uint("wall_ns", p.wall_ns)
            .uint("calls", p.calls)
            .float("share", p.share, 6)
            .finish()
    }));
    // Superset of the fleet bench's FLEETJSON record: identical leading
    // fields, then the observability extensions.
    let line = JsonLine::new()
        .uint("threads", report.threads as u64)
        .uint("cpus", cpus as u64)
        .uint("sessions", report.sessions.len() as u64)
        .uint("completed", completed as u64)
        .uint("frames", report.frames_processed as u64)
        .uint("windows", report.windows_processed as u64)
        .float("serving_wall_s", report.serving_wall_s, 6)
        .float("throughput_fps", report.throughput_fps, 3)
        .float("p50_us", report.latency.p50_ns as f64 / 1_000.0, 1)
        .float("p95_us", report.latency.p95_ns as f64 / 1_000.0, 1)
        .float("p99_us", report.latency.p99_ns as f64 / 1_000.0, 1)
        .uint("model_evaluations", report.model_evaluations as u64)
        .uint("model_cache_hits", report.model_cache_hits as u64)
        .uint("gating_builds", report.gating_builds as u64)
        .uint("gating_hits", report.gating_hits as u64)
        .uint("quarantined", report.quarantined_sessions as u64)
        .uint("session_restarts", report.session_restarts as u64)
        .uint("deadline_misses", report.deadline_misses as u64)
        .uint("deferrals", report.scheduler.deferrals as u64)
        .uint("quanta", report.scheduler.quanta as u64)
        .uint("resurrections", report.scheduler.resurrections as u64)
        .float("fleet_power_w", report.fleet_power_w, 6)
        .float("session_draw_w", draw, 6)
        .float("envelope_budget_w", budget_w, 6)
        .uint("envelope_capacity", envelope.capacity() as u64)
        .uint("envelope_shed", env_report.shed_sessions as u64)
        .uint("envelope_deferred", env_report.deferred_sessions as u64)
        .uint(
            "envelope_deferrals",
            env_report.scheduler.envelope_deferrals as u64,
        )
        .float("envelope_fleet_power_w", env_report.fleet_power_w, 6)
        .uint("attributed_ns", counters::attributed_total_ns())
        .uint("worker_wall_ns", worker_wall_ns)
        .raw("phases", &phase_json);
    println!("OBSJSON {}", line.finish());
}
