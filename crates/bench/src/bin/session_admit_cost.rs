//! Session admission-cost microbench: what does an admitted-but-idle
//! session cost, in nanoseconds and resident bytes?
//!
//! A counting global allocator meters live heap bytes while the bench
//! admits `--sessions` (default 2000) idle sessions through the same
//! [`AdmittedSession::admit`] path `run_fleet` uses. The admit loop runs
//! [`ADMIT_REPS`] times in-process and the median per-session time is
//! reported: one loop takes about 10 ms, so a single preemption on a
//! shared host moved a single-shot figure by 2x. For the "former"
//! cost — what each admitted session used to pay before state pooling —
//! it activates a sample of sessions (building their frame streams and
//! restart checkpoints) and grows one private `SolverWorkspace` per
//! sampled session by stepping it to its first optimized window, exactly
//! the per-session residency of the pre-pooling fleet layer.
//!
//! Emits one `ADMITJSON {...}` line; `scripts/fleet_smoke.sh` folds it
//! into `BENCH_fleet.json` (gating `ratio_pct < 10`) and
//! `scripts/perf_gate.sh` regresses the committed numbers.
//!
//! Usage: `session_admit_cost [--sessions N] [--sample K] [--seconds S]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use archytas_bench::json::JsonLine;
use archytas_bench::scaling_fleet_specs;
use archytas_fleet::{AdmittedSession, FleetConfig, FleetServices};
use archytas_slam::SolverWorkspace;

/// Allocator wrapper keeping a live-bytes counter. Alloc/dealloc symmetry
/// is all the bench needs; per-thread attribution is irrelevant because
/// the measurement sections are single-threaded.
struct CountingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Repetitions of the admit loop; the median per-session time is reported.
const ADMIT_REPS: usize = 7;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut sessions: usize = 2000;
    let mut sample: usize = 16;
    let mut seconds = 1.2f64;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sessions needs an unsigned integer");
            }
            "--sample" => {
                sample = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sample needs an unsigned integer");
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
    sample = sample.clamp(1, sessions);

    let specs = scaling_fleet_specs(sessions, seconds);
    let services = FleetServices::new(&FleetConfig::default());
    // Warm the shared caches (gating LUT, latency model) outside the
    // measured section: their fill is exactly-once per *fleet*, so
    // charging it to the first session would misprice every batch after
    // the first.
    drop(services.runtime());

    // Admitted-idle cost: ns and live bytes per session, the new steady
    // state of a 2000-session fleet where most sessions await activation.
    // Each repetition admits a fresh batch while the earlier ones stay
    // admitted, so every repetition pays the heap growth a fleet's
    // admission pays; admitting after dropping a batch would reuse its
    // memory and time a warm heap instead (measured about 5x faster).
    let mut batches: Vec<Vec<AdmittedSession>> = Vec::with_capacity(ADMIT_REPS);
    let mut admit_ns_reps = Vec::with_capacity(ADMIT_REPS);
    let mut idle_bytes = 0;
    for _ in 0..ADMIT_REPS {
        let bytes_before = live();
        let t0 = Instant::now();
        let batch: Vec<AdmittedSession> = specs
            .iter()
            .map(|spec| AdmittedSession::admit(spec, &services))
            .collect();
        admit_ns_reps.push(t0.elapsed().as_nanos() as u64 / sessions as u64);
        idle_bytes = (live().saturating_sub(bytes_before)) / sessions as u64;
        batches.push(batch);
    }
    let mut admitted = batches.pop().expect("at least one repetition");
    drop(batches);
    admit_ns_reps.sort_unstable();
    let admit_ns = admit_ns_reps[ADMIT_REPS / 2];

    // Former per-session cost: activation (frame stream + checkpoint) plus
    // a private workspace grown to working size — what every admitted
    // session owned before pooling, measured on a sample.
    let bytes_active_before = live();
    let t1 = Instant::now();
    for s in admitted.iter_mut().take(sample) {
        s.activate();
    }
    let activate_ns = t1.elapsed().as_nanos() as u64 / sample as u64;
    let activation_bytes = (live().saturating_sub(bytes_active_before)) / sample as u64;

    let bytes_ws_before = live();
    let mut grown: Vec<Box<SolverWorkspace>> = Vec::with_capacity(sample);
    for s in admitted.iter_mut().take(sample) {
        let mut ws = Box::new(SolverWorkspace::new());
        while s.windows() == 0 && s.step(&mut ws) {}
        grown.push(ws);
    }
    let workspace_bytes = (live().saturating_sub(bytes_ws_before)) / sample as u64;
    let former_bytes = idle_bytes + activation_bytes + workspace_bytes;
    let ratio_pct = idle_bytes as f64 / former_bytes as f64 * 100.0;
    drop(grown);

    let line = JsonLine::new()
        .uint("sessions", sessions as u64)
        .uint("sample", sample as u64)
        .float("seconds", seconds, 2)
        .uint("admit_reps", ADMIT_REPS as u64)
        .uint("admit_ns_per_session", admit_ns)
        .uint("idle_bytes_per_session", idle_bytes)
        .uint("activate_ns_per_session", activate_ns)
        .uint("activation_bytes_per_session", activation_bytes)
        .uint("workspace_bytes_per_session", workspace_bytes)
        .uint("former_bytes_per_session", former_bytes)
        .float("ratio_pct", ratio_pct, 2);
    println!("ADMITJSON {}", line.finish());
    eprintln!(
        "admitted-idle: {admit_ns} ns (median of {admit_ns_reps:?}), {idle_bytes} B/session; former \
         (activation {activation_bytes} B + workspace {workspace_bytes} B): \
         {former_bytes} B/session — idle is {ratio_pct:.2}% of former"
    );
}
