//! Correctness gates, run outside every timed region.

use archytas_fleet::{
    run_session_alone, FleetConfig, FleetReport, SessionOutcome, SessionReport, SessionSpec,
};

use crate::workload::{Outcomes, Workload};

/// What the gates found: how many sessions (or planned counts) disagreed,
/// with one message per disagreement.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }
}

/// Outcome counts of a served batch.
pub fn outcomes(report: &FleetReport) -> Outcomes {
    Outcomes {
        completed: report
            .sessions
            .iter()
            .filter(|s| s.outcome == SessionOutcome::Completed)
            .count(),
        shed: report.shed_sessions,
        deferred: report.deferred_sessions,
        quarantined: report.quarantined_sessions,
        restarts: report.session_restarts,
    }
}

/// Every outcome count of `report` must equal the workload's plan.
pub fn check_outcomes(planned: Outcomes, report: &FleetReport, verdict: &mut Verdict) {
    let got = outcomes(report);
    if got != planned {
        verdict.fail(format!("outcome counts {got:?}, planned {planned:?}"));
    }
}

/// Every session of a repeated batch must digest exactly as in the
/// reference run.
pub fn check_repeat(reference: &[u64], report: &FleetReport, verdict: &mut Verdict) {
    for (s, &want) in report.sessions.iter().zip(reference) {
        if s.digest() != want {
            verdict.fail(format!(
                "{}: digest {:016x} differs from the first run's {want:016x}",
                s.name,
                s.digest()
            ));
        }
    }
}

/// A served session the gate replays alone after the timed region.
pub struct GateSample {
    spec: SessionSpec,
    outcome: SessionOutcome,
    digest: u64,
}

/// Picks the gate's sessions of batch `variant` out of its served report.
pub fn gate_samples(
    workload: Workload,
    variant: usize,
    specs: &[SessionSpec],
    report: &FleetReport,
) -> Vec<GateSample> {
    workload
        .gate_sample(specs.len(), variant)
        .into_iter()
        .map(|i| GateSample {
            spec: specs[i].clone(),
            outcome: report.sessions[i].outcome,
            digest: report.sessions[i].digest(),
        })
        .collect()
}

/// Each sampled session must digest exactly as the same spec served alone,
/// serially. Shed sessions are left to [`check_outcomes`].
pub fn check_against_alone(samples: &[GateSample], config: &FleetConfig, verdict: &mut Verdict) {
    for s in samples.iter().filter(|s| s.outcome != SessionOutcome::Shed) {
        let alone = run_session_alone(&s.spec, config);
        if s.digest != alone.digest() || s.outcome != alone.outcome {
            verdict.fail(format!(
                "{}: served {:?} digest {:016x}, alone {:?} digest {:016x}",
                s.spec.name,
                s.outcome,
                s.digest,
                alone.outcome,
                alone.digest()
            ));
        }
    }
}

/// Session digests of a served batch, in submission order.
pub fn digests(sessions: &[SessionReport]) -> Vec<u64> {
    sessions.iter().map(SessionReport::digest).collect()
}
