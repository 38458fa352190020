//! Served-path benchmark for the fleet: sessions stepping frames through
//! `VioPipeline` and the accelerator's f32 functional model.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload steady-1w|crowd-2w|churn-2w --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` serves whole batches through `archytas_fleet::run_fleet` and
//! reports the end-to-end metrics. `--trace 1` replays the same sessions
//! through the public function of each layer, timing every call from
//! outside, and reports the per-layer ledger. Both gate correctness outside
//! their timed regions. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero whenever an output was wrong or the run could not complete.

mod check;
mod served;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;

use workload::Workload;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one run measured and what its gates found.
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    /// Sessions submitted across the measured batches or replays.
    pub attempted: u64,
    pub verdict: check::Verdict,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Keeps the chaos sessions' planned panics (payloads starting with
/// `chaos:`) off standard error; every other panic still reports.
fn silence_planned_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let planned = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("chaos:"));
        if !planned {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    silence_planned_panics();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        served::run(args.workload, args.seed, args.seconds)
    };
    let out = match result {
        Ok(out) if out.metrics.iter().all(|m| m.value.is_finite()) => out,
        Ok(_) => {
            eprintln!(
                "servebench: {}: a metric is not finite",
                args.workload.name()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.verdict.errors {
        eprintln!("servebench: WRONG OUTPUT: {e}");
    }
    let correct = out.verdict.errors.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.verdict.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
