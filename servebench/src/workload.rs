//! The benchmark's workloads: generated session batches, their fleet
//! configurations, and the outcome each batch is planned to produce.
//!
//! All three are closed-loop batch replays: every frame exists at start and
//! a session's next frame is served only after its previous one completes.
//! Why each one exists, which layers it loads and which per-layer metric
//! should move which end-to-end metric on it is recorded in `WORKLOADS.md`.

use archytas_bench::{scaling_fleet_specs, standard_fleet_specs};
use archytas_dataset::{euroc_sequences, kitti_sequences};
use archytas_faults::{ChaosKind, ChaosPlan};
use archytas_fleet::{FleetConfig, PowerEnvelope, Priority, SessionSpec};

/// Sessions in one `crowd-2w` batch. Its four variants together serve 256
/// sessions; a batch this small lasts about a second and a half, so a run
/// takes the median over a dozen or more of them.
const CROWD_SESSIONS: usize = 64;
/// `crowd-2w` active-session cap; later arrivals queue behind it.
const CROWD_ACTIVE: usize = 16;
/// Sessions the `crowd-2w` power envelope powers at once; later `Low`
/// arrivals are shed, later `Normal` arrivals are start-deferred.
const CROWD_POWERED: usize = 56;
/// `crowd-2w` session that panics once and restarts from its checkpoint.
const CROWD_RESTARTED: usize = 7;
/// `crowd-2w` session that panics twice and is terminally quarantined
/// (the default restart budget is one).
const CROWD_QUARANTINED: usize = 13;
/// Sessions in `churn-2w`.
const CHURN_SESSIONS: usize = 2000;
/// Every this many `churn-2w` sessions, one stays long enough to close
/// three windows, so the window metrics stay defined while the solver does
/// under 5% of the work.
const CHURN_SENTINEL_EVERY: usize = 250;
/// `churn-2w` arrival wave width (sessions) and spacing (scheduler rounds).
const CHURN_WAVE: usize = 100;
const CHURN_WAVE_ROUNDS: usize = 200;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The standard 8-vehicle batch on one worker.
    Steady,
    /// 64-session batches with admission, isolation and churn on two
    /// workers.
    Crowd,
    /// 2000 sessions that leave before their first window, on two workers.
    Churn,
}

/// Session outcome counts a workload is planned to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    pub completed: usize,
    pub shed: usize,
    pub deferred: usize,
    pub quarantined: usize,
    pub restarts: usize,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "steady-1w" => Some(Self::Steady),
            "crowd-2w" => Some(Self::Crowd),
            "churn-2w" => Some(Self::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Steady => "steady-1w",
            Self::Crowd => "crowd-2w",
            Self::Churn => "churn-2w",
        }
    }

    /// The fleet deployment the workload is served by.
    pub fn config(self) -> FleetConfig {
        let base = FleetConfig::default();
        match self {
            Self::Steady => FleetConfig { threads: 1, ..base },
            Self::Crowd => {
                let draw = PowerEnvelope::new(1.0, &base.design, &base.platform).session_draw_w;
                FleetConfig {
                    threads: 2,
                    max_active: CROWD_ACTIVE,
                    defer_watermark: CROWD_ACTIVE / 2,
                    power_envelope_w: draw * CROWD_POWERED as f64 + 1e-9,
                    ..base
                }
            }
            Self::Churn => FleetConfig {
                threads: 2,
                max_active: 64,
                ..base
            },
        }
    }

    /// Distinct batches one run serves, cycling through them: enough
    /// independent trajectories per run that the accuracy and modeled-cost
    /// metrics vary little from seed to seed.
    pub fn variants(self) -> usize {
        match self {
            Self::Steady => 6,
            Self::Crowd | Self::Churn => 4,
        }
    }

    /// Batch `variant` (< [`Workload::variants`]) of `seed`. Seed 0,
    /// variant 0 of `steady-1w` keeps the repository's own sequence, fault
    /// and chaos seeds, so it is the batch the `fleet` binary serves; every
    /// other (seed, variant) offsets all of them. `crowd-2w` and `churn-2w`
    /// also give each session its own world, where the scaling mix they
    /// start from repeats 16 sequences.
    pub fn specs(self, seed: u64, variant: usize) -> Vec<SessionSpec> {
        let mut specs = match self {
            Self::Steady => standard_fleet_specs(4.0),
            Self::Crowd => crowd_specs(),
            Self::Churn => churn_specs(),
        };
        let batch = seed
            .wrapping_mul(self.variants() as u64)
            .wrapping_add(variant as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let per_session = match self {
            Self::Steady => 0,
            Self::Crowd | Self::Churn => 0xd1b5_4a32_d192_ed03,
        };
        for (i, spec) in specs.iter_mut().enumerate() {
            let offset = batch.wrapping_add((i as u64).wrapping_mul(per_session));
            spec.sequence.seed = spec.sequence.seed.wrapping_add(offset);
            if let Some(plan) = &mut spec.fault_plan {
                plan.seed = plan.seed.wrapping_add(offset);
            }
            if let Some(plan) = &mut spec.chaos {
                plan.seed = plan.seed.wrapping_add(offset);
            }
        }
        specs
    }

    /// The outcome counts the batch is designed to produce, derived from
    /// the workload's own construction rather than from the admission code
    /// under test.
    pub fn planned(self, specs: &[SessionSpec]) -> Outcomes {
        let n = specs.len();
        match self {
            Self::Steady | Self::Churn => Outcomes {
                completed: n,
                shed: 0,
                deferred: 0,
                quarantined: 0,
                restarts: 0,
            },
            Self::Crowd => {
                // Arrival order: the first CROWD_POWERED sessions fit the
                // envelope; past it High still starts, Normal waits and
                // Low is refused.
                let (mut powered, mut shed, mut deferred) = (0, 0, 0);
                for spec in specs {
                    match spec.priority {
                        _ if powered < CROWD_POWERED => powered += 1,
                        Priority::High => powered += 1,
                        Priority::Normal => deferred += 1,
                        Priority::Low => shed += 1,
                    }
                }
                Outcomes {
                    completed: n - shed - 1,
                    shed,
                    deferred,
                    quarantined: 1,
                    restarts: 2,
                }
            }
        }
    }

    /// The traced replay times `AdmittedSession::admit`/`activate` on one
    /// session in this many.
    pub fn probe_every(self) -> usize {
        match self {
            Self::Steady => 1,
            Self::Crowd => 8,
            Self::Churn => 32,
        }
    }

    /// Indices of the sessions of batch `variant` the correctness gate
    /// replays alone. Across the variants of `steady-1w` every session
    /// position is covered once; the large batches contribute a stride,
    /// offset by variant, plus every chaos, deferred and shed session
    /// (`crowd-2w`) or one sentinel (`churn-2w`).
    pub fn gate_sample(self, n: usize, variant: usize) -> Vec<usize> {
        let stride = match self {
            Self::Steady => self.variants(),
            Self::Crowd => 16,
            Self::Churn => 256,
        };
        let mut sample: Vec<usize> = (variant % stride..n).step_by(stride).collect();
        match self {
            Self::Steady => {}
            Self::Crowd => {
                sample.extend([CROWD_RESTARTED, CROWD_QUARANTINED, CROWD_POWERED + 1, n - 1])
            }
            Self::Churn => sample.push((variant * CHURN_SENTINEL_EVERY + 1) % n),
        }
        sample.sort_unstable();
        sample.dedup();
        sample
    }
}

/// `crowd-2w`: the scaling mix (cars and drones, High/Normal/Normal/Low)
/// cut to 1.5 s, with staggered arrivals past the active cap, early
/// leavers, mid-run priority flips and two chaos sessions.
fn crowd_specs() -> Vec<SessionSpec> {
    scaling_fleet_specs(CROWD_SESSIONS, 1.5)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if i >= CROWD_ACTIVE {
                spec = spec.arriving_at((i + 1 - CROWD_ACTIVE) * 3);
            }
            if i % 5 == 4 {
                spec = spec.leaving_after(12);
            }
            if i % 4 == 1 {
                spec = spec
                    .with_priority_flip(4, Priority::Low)
                    .with_priority_flip(10, Priority::High);
            }
            if i == CROWD_RESTARTED {
                spec =
                    spec.with_chaos(ChaosPlan::new(21).with(ChaosKind::SessionPanic { frame: 11 }));
            }
            if i == CROWD_QUARANTINED {
                spec = spec.with_chaos(
                    ChaosPlan::new(22)
                        .with(ChaosKind::SessionPanic { frame: 10 })
                        .with(ChaosKind::SessionPanic { frame: 13 }),
                );
            }
            spec
        })
        .collect()
}

/// `churn-2w`: short sessions of 9 frames (the window needs 10, so none
/// closes one) arriving in waves, plus one 12-frame sentinel every
/// [`CHURN_SENTINEL_EVERY`] sessions.
fn churn_specs() -> Vec<SessionSpec> {
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    (0..CHURN_SESSIONS)
        .map(|i| {
            let (kind, seq) = if i % 3 == 2 {
                ("drone", &euroc[(i / 3) % euroc.len()])
            } else {
                ("car", &kitti[i % kitti.len()])
            };
            let seconds = if i % CHURN_SENTINEL_EVERY == 1 {
                1.25
            } else {
                0.95
            };
            let priority = match i % 4 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            SessionSpec::new(format!("{kind}-{i:04}"), seq.truncated(seconds), priority)
                .arriving_at((i / CHURN_WAVE) * CHURN_WAVE_ROUNDS)
        })
        .collect()
}
