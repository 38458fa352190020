//! Per-phase wall-time observability, hooked into `archytas-par`'s global
//! counters.
//!
//! Phase wall time is *timing*, not determinism: it belongs in the OBSJSON
//! superset line and the human table, never in the byte-diff-gated
//! aggregate records. This module wraps the counters' snapshot into rows
//! with shares of the measured wall time, plus the `unattributed` residual,
//! so every consumer (the `obs` bin, future dashboards) computes
//! percentages the same way.

use archytas_par::counters;

/// One row of the phase wall-time table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    /// Stable snake_case phase name (`unattributed` for the residual row).
    pub name: &'static str,
    /// Total attributed wall nanoseconds.
    pub wall_ns: u64,
    /// Timed scopes entered (0 for the residual row).
    pub calls: u64,
    /// Share of the measured wall time.
    pub share: f64,
}

/// Every phase with at least one recorded call, in declaration order, then
/// an `unattributed` row; shares are of `wall_ns`, the wall time the phases
/// were recorded in, summed over the recording threads (a fleet run's
/// serving wall times its workers).
///
/// The `unattributed` share is the exact complement of the phase shares,
/// so the column sums to 1; it goes negative only if the phases overlap
/// (nested scopes, or more recording threads than `wall_ns` counts).
pub fn phase_rows(wall_ns: u64) -> Vec<PhaseRow> {
    let share = |ns: u64| {
        if wall_ns == 0 {
            0.0
        } else {
            ns as f64 / wall_ns as f64
        }
    };
    let mut rows: Vec<PhaseRow> = counters::snapshot()
        .iter()
        .filter(|t| t.calls > 0)
        .map(|t| PhaseRow {
            name: t.name,
            wall_ns: t.ns,
            calls: t.calls,
            share: share(t.ns),
        })
        .collect();
    let attributed: u64 = rows.iter().map(|r| r.wall_ns).sum();
    let attributed_share: f64 = rows.iter().map(|r| r.share).sum();
    rows.push(PhaseRow {
        name: "unattributed",
        wall_ns: wall_ns.saturating_sub(attributed),
        calls: 0,
        share: if wall_ns == 0 {
            0.0
        } else {
            1.0 - attributed_share
        },
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_par::counters::Phase;

    #[test]
    fn rows_reflect_recorded_phases() {
        // Counters are process-global; this is the only test in this crate
        // touching them, so no cross-test lock is needed here.
        counters::reset();
        counters::enable();
        counters::time(Phase::Factorization, || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        counters::time(Phase::Assembly, || std::hint::black_box(1));
        counters::disable();
        let attributed = counters::attributed_total_ns();
        let wall_ns = 2 * attributed + 1_000;
        let rows = phase_rows(wall_ns);
        counters::reset();
        assert!(rows.iter().any(|r| r.name == "factorization"));
        let (unattributed, phases) = rows.split_last().unwrap();
        assert!(phases.iter().all(|r| r.calls > 0));
        assert_eq!(unattributed.name, "unattributed");
        assert_eq!(unattributed.wall_ns, wall_ns - attributed);
        // Shares are of the wall time, not of the attributed total.
        let phase_share: f64 = phases.iter().map(|r| r.share).sum();
        assert!((phase_share - attributed as f64 / wall_ns as f64).abs() < 1e-12);
        assert!(unattributed.share > 0.5);
        let total_share = phase_share + unattributed.share;
        assert!((total_share - 1.0).abs() < 1e-12);
    }
}
