//! Fleet serving bench: runs the standard 8-vehicle batch on the fleet
//! scheduler and emits machine-readable lines for `scripts/fleet_smoke.sh`.
//!
//! Usage: `fleet [--threads N] [--seconds S]` (threads also via
//! `ARCHYTAS_FLEET_THREADS`, default 1).
//!
//! Output:
//! * one `FLEETDET {...}` line per session — the deterministic payload
//!   (digests and bit patterns only, no timing), byte-identical across
//!   pool sizes by the fleet contract;
//! * one `FLEETJSON {...}` line — wall-clock throughput, pooled frame
//!   latency percentiles, shared-cache and scheduler counters.

use archytas_bench::json::JsonLine;
use archytas_bench::standard_fleet_specs;
use archytas_fleet::{run_fleet, FleetConfig, SessionOutcome};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut threads: usize = std::env::var("ARCHYTAS_FLEET_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut seconds = 4.0f64;
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
            other => panic!("unknown argument {other}"),
        }
    }

    let config = FleetConfig {
        threads,
        ..FleetConfig::default()
    };
    let report = run_fleet(&standard_fleet_specs(seconds), &config);

    for s in &report.sessions {
        let line = JsonLine::new()
            .str("session", &s.name)
            .str("outcome", &format!("{:?}", s.outcome))
            .str("phase", &s.phase.to_string())
            .uint("windows", s.windows as u64)
            .bits("digest", s.digest())
            .uint("iterations_sum", s.iterations.iter().sum::<usize>() as u64)
            .bits("rmse_bits", s.rmse_m.to_bits())
            .bits("latency_bits", s.modelled_latency_ms.to_bits())
            .bits("energy_bits", s.modelled_energy_mj.to_bits())
            .uint("degraded_windows", s.degraded_windows as u64)
            .uint("watchdog_windows", s.watchdog_windows as u64)
            .uint("sensor_fault_windows", s.sensor_fault_windows as u64)
            .uint(
                "solver_divergence_windows",
                s.solver_divergence_windows as u64,
            )
            .uint("prior_reset_windows", s.prior_reset_windows as u64)
            .uint("restarts", s.restarts as u64)
            .uint("deadline_misses", s.deadline_misses as u64);
        println!("FLEETDET {}", line.finish());
    }
    let completed = report
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Completed)
        .count();
    // The machine's CPU count rides in every run record (not only the
    // gate block fleet_smoke.sh appends) so a single record is
    // interpretable on its own — a 4-worker run on a 1-CPU box is
    // timeslicing, not parallelism.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
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
        .uint("contended_probes", report.scheduler.contended_probes as u64)
        .uint(
            "workspaces_created",
            report.scheduler.scratch.created as u64,
        )
        .uint(
            "workspace_checkouts",
            report.scheduler.scratch.checkouts as u64,
        )
        .uint("deferrals", report.scheduler.deferrals as u64)
        .uint("quanta", report.scheduler.quanta as u64)
        .uint("resurrections", report.scheduler.resurrections as u64);
    println!("FLEETJSON {}", line.finish());
}
