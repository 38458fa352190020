//! Fleet scaling-curve bench: sweeps workers × sessions on the fleet
//! scheduler and proves the 1000-session story two ways.
//!
//! * **Sweep mode** (default): runs every point of
//!   `{1,2,4,8} workers × {8,64,512,2000} sessions` and emits one
//!   `SCALEJSON {...}` line per point — wall-clock throughput, pooled
//!   p50/p95/p99 frame latency, scheduler-lock contention and deferral
//!   counters. `scripts/fleet_smoke.sh` folds these into
//!   `BENCH_fleet.json` and gates per-worker efficiency per point;
//!   `scripts/perf_gate.sh` regresses them against the committed
//!   baseline sweep point by point.
//! * **Soak mode** (`--soak`): a long-haul churn schedule — staggered
//!   joins, early leavers, mid-run priority flips, a restarted panic and a
//!   terminal quarantine — replayed at pools {1,2,8}. Every session must
//!   stay bitwise identical to `run_session_alone` and the quarantine set
//!   must be exact; any violation exits non-zero. Emits one
//!   `SOAKJSON {...}` line.
//!
//! Usage: `scaling [--quick] [--soak] [--seconds S] [--workers a,b,..]
//! [--sessions a,b,..]`

use archytas_bench::json::JsonLine;
use archytas_bench::scaling_fleet_specs;
use archytas_faults::{ChaosKind, ChaosPlan};
use archytas_fleet::{
    run_fleet, run_session_alone, FleetConfig, Priority, SessionOutcome, SessionSpec,
};

/// Active-set cap for every sweep point: large enough that any worker
/// count in the sweep can run width-8 parallel, small enough that a
/// 2000-session point holds ~64 activated frame streams resident, not
/// 2000 — the admitted-idle tail stays in its cheap pre-activation form.
const SWEEP_MAX_ACTIVE: usize = 64;

fn parse_list(v: &str) -> Vec<usize> {
    v.split(',')
        .map(|t| t.trim().parse().expect("comma-separated unsigned list"))
        .collect()
}

fn sweep_config(workers: usize) -> FleetConfig {
    FleetConfig {
        threads: workers,
        max_active: SWEEP_MAX_ACTIVE,
        ..FleetConfig::default()
    }
}

fn run_sweep_point(workers: usize, sessions: usize, seconds: f64, cpus: usize) {
    let specs = scaling_fleet_specs(sessions, seconds);
    let report = run_fleet(&specs, &sweep_config(workers));
    let completed = report
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Completed)
        .count();
    assert_eq!(completed, sessions, "scaling sweep sessions must complete");
    let line = JsonLine::new()
        .uint("workers", workers as u64)
        .uint("sessions", sessions as u64)
        .uint("cpus", cpus as u64)
        .uint("max_active", SWEEP_MAX_ACTIVE as u64)
        .float("seconds", seconds, 2)
        .uint("frames", report.frames_processed as u64)
        .uint("windows", report.windows_processed as u64)
        .float("serving_wall_s", report.serving_wall_s, 6)
        .float("throughput_fps", report.throughput_fps, 3)
        .float("p50_us", report.latency.p50_ns as f64 / 1_000.0, 1)
        .float("p95_us", report.latency.p95_ns as f64 / 1_000.0, 1)
        .float("p99_us", report.latency.p99_ns as f64 / 1_000.0, 1)
        .uint("quanta", report.scheduler.quanta as u64)
        .uint("contended_probes", report.scheduler.contended_probes as u64)
        .uint("deferrals", report.scheduler.deferrals as u64)
        .uint(
            "workspaces_created",
            report.scheduler.scratch.created as u64,
        )
        .uint(
            "workspace_checkouts",
            report.scheduler.scratch.checkouts as u64,
        );
    println!("SCALEJSON {}", line.finish());
}

/// The churn schedule: 32 sessions where, past the 8 founding vehicles,
/// everyone arrives staggered on the quanta clock; every 5th session
/// leaves early; every 4th flips priority mid-run (and back); session 7
/// panics once and restarts from checkpoint; session 13 panics twice and
/// is terminally quarantined (restart budget 1).
fn churn_specs(sessions: usize, seconds: f64) -> Vec<SessionSpec> {
    scaling_fleet_specs(sessions, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if i >= 8 {
                spec = spec.arriving_at((i - 7) * 12);
            }
            if i % 5 == 4 {
                spec = spec.leaving_after(30);
            }
            if i % 4 == 1 {
                spec = spec
                    .with_priority_flip(16, Priority::Low)
                    .with_priority_flip(28, Priority::High);
            }
            if i == 7 {
                spec =
                    spec.with_chaos(ChaosPlan::new(21).with(ChaosKind::SessionPanic { frame: 18 }));
            }
            if i == 13 {
                spec = spec.with_chaos(
                    ChaosPlan::new(22)
                        .with(ChaosKind::SessionPanic { frame: 12 })
                        .with(ChaosKind::SessionPanic { frame: 26 }),
                );
            }
            spec
        })
        .collect()
}

fn run_soak(seconds: f64, cpus: usize) {
    const SESSIONS: usize = 32;
    const POOLS: [usize; 3] = [1, 2, 8];
    let specs = churn_specs(SESSIONS, seconds);
    let config = FleetConfig {
        max_active: 12,
        defer_watermark: 10,
        ..FleetConfig::default()
    };
    let alone: Vec<_> = specs
        .iter()
        .map(|s| run_session_alone(s, &config))
        .collect();
    let mut violations = 0usize;
    let mut quanta_max = 0usize;
    let mut restarts = 0usize;
    let mut quarantined = 0usize;
    for pool in POOLS {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads: pool,
                ..config.clone()
            },
        );
        quanta_max = quanta_max.max(report.scheduler.quanta);
        restarts = report.session_restarts;
        quarantined = report.quarantined_sessions;
        for (s, a) in report.sessions.iter().zip(&alone) {
            if s.digest() != a.digest() || s.outcome != a.outcome {
                eprintln!(
                    "SOAK VIOLATION: {}@{pool} workers diverges from serial-alone \
                     (digest {:016x} vs {:016x})",
                    s.name,
                    s.digest(),
                    a.digest()
                );
                violations += 1;
            }
        }
        let quarantined_names: Vec<&str> = report
            .sessions
            .iter()
            .filter(|s| s.outcome == SessionOutcome::Quarantined)
            .map(|s| s.name.as_str())
            .collect();
        if quarantined_names != ["car-0013"] {
            eprintln!(
                "SOAK VIOLATION: quarantine set at {pool} workers is \
                 {quarantined_names:?}, expected [\"car-0013\"]"
            );
            violations += 1;
        }
    }
    let joins = specs.iter().filter(|s| s.arrival_round > 0).count();
    let leaves = specs
        .iter()
        .filter(|s| s.leave_after_frames.is_some())
        .count();
    let flips: usize = specs.iter().map(|s| s.priority_flips.len()).sum();
    let line = JsonLine::new()
        .uint("sessions", SESSIONS as u64)
        .str("pools", "1,2,8")
        .uint("cpus", cpus as u64)
        .float("seconds", seconds, 2)
        .uint("churn_joins", joins as u64)
        .uint("churn_leaves", leaves as u64)
        .uint("priority_flips", flips as u64)
        .uint("restarts", restarts as u64)
        .uint("quarantined", quarantined as u64)
        .uint("quanta_max", quanta_max as u64)
        .uint("violations", violations as u64)
        .str("gate", if violations == 0 { "passed" } else { "failed" });
    println!("SOAKJSON {}", line.finish());
    if violations != 0 {
        eprintln!("soak gate FAILED: {violations} contract violations");
        std::process::exit(1);
    }
    eprintln!(
        "soak gate passed: {SESSIONS} sessions, pools 1/2/8, \
         {restarts} restart(s), {quarantined} quarantine(s), bitwise clean"
    );
}

fn main() {
    // Injected chaos panics are expected in soak mode; swallow their
    // default-hook backtrace noise but keep every real panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("chaos:"));
        if !chaos {
            default_hook(info);
        }
    }));

    let args: Vec<String> = std::env::args().collect();
    let mut workers: Vec<usize> = vec![1, 2, 4, 8];
    let mut sessions: Vec<usize> = vec![8, 64, 512, 2000];
    let mut seconds = 1.2f64;
    let mut soak = false;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                workers = vec![1, 4];
                sessions = vec![8, 64];
            }
            "--soak" => soak = true,
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds needs a number");
            }
            "--workers" => workers = parse_list(it.next().expect("--workers needs a list")),
            "--sessions" => sessions = parse_list(it.next().expect("--sessions needs a list")),
            other => panic!("unknown argument {other}"),
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if soak {
        // The churn schedule's chaos frames need at least 4 s of sequence.
        run_soak(seconds.max(4.0), cpus);
        return;
    }
    for &s in &sessions {
        for &w in &workers {
            run_sweep_point(w, s, seconds, cpus);
        }
    }
}
