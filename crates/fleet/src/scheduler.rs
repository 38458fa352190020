//! The fleet scheduler: time-slices many sessions over a few worker
//! threads through one locked set of queues.
//!
//! Every queue and count lives in one [`Queues`] behind one `Mutex`. A
//! worker takes that lock once per quantum — [`Queues::pass`] is the only
//! statement of what it does there — and runs the quantum outside it. A
//! worker *holds* the session it just ran and runs it again until the
//! session finishes, fails (restart ladder or terminal quarantine) or is
//! deferred by backpressure, so sessions never migrate between workers.
//!
//! # Why any schedule produces the same bits
//!
//! A session index lives in **exactly one** place at a time — the
//! admission, ready, deferred or resurrect queue, or one worker's held
//! slot. Workers therefore never run two quanta of the same session
//! concurrently, and a session's frames are processed strictly in order.
//! Since a quantum is a pure function of the session's own state (sessions
//! share only immutable caches, and each worker's solver scratch is
//! rewritten before it is read), the stream of per-session results is
//! independent of which worker ran which quantum and of the pool size.
//! Scheduling decides only *interleaving*, and interleaving is
//! unobservable to a session. Arrival rounds and restart backoffs run on
//! the same deterministic logical clock: executed quanta.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, TryLockError};

use archytas_slam::SolverWorkspace;

use crate::session::{Priority, SessionReport, SessionState, StepOutcome};
use crate::FleetConfig;

/// Session steps catch their own panics, so a fleet lock is poisoned only
/// by a scheduler bug.
const POISONED: &str = "fleet lock poisoned by a scheduler panic";

/// Counters describing how the run was scheduled (timing-dependent;
/// excluded from the determinism contract).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Always 0: sessions never migrate between workers; kept for the
    /// benchmark's counter schema.
    pub steals: usize,
    /// Always 0 (see [`SchedulerStats::steals`]).
    pub shard_steals: usize,
    /// Always 0 (see [`SchedulerStats::steals`]).
    pub cross_steals: usize,
    /// Scheduler-lock acquisitions that found the lock held (a `try_lock`
    /// miss, then a blocking `lock`).
    pub contended_probes: usize,
    /// Times a `Low` session was parked on the deferred queue.
    pub deferrals: usize,
    /// Quanta executed in total — the scheduler's logical clock.
    pub quanta: usize,
    /// Sessions parked on the resurrect queue (restart ladder).
    pub resurrections: usize,
    /// Sessions whose *start* the power envelope deferred: their first
    /// activation parks on the deferred queue, not the ready queue.
    pub envelope_deferrals: usize,
    /// Solver-scratch traffic (checkouts / workspaces ever created).
    pub scratch: ScratchStats,
}

/// Counters describing one run's solver-scratch traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Workspace checkouts (one per executed quantum).
    pub checkouts: usize,
    /// Workspaces ever allocated — one per worker that executed a quantum.
    pub created: usize,
}

/// What the quantum a worker just ran decided about its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Frames remain; `low` marks a `Low`-priority session, which
    /// backpressure may defer.
    Continue { low: bool },
    /// The session completed or was terminally quarantined; its report is
    /// already written.
    Finished,
    /// The session failed and the restart ladder revives it after
    /// `backoff` quanta.
    Restart { backoff: usize },
}

/// What a worker does after its pass under the scheduler lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Run one quantum of this session.
    Run(usize),
    /// Nothing is runnable right now.
    Idle,
    /// Every admitted session has finished.
    Exit,
}

/// Every scheduling queue and count, behind the one scheduler lock.
#[derive(Debug, Default)]
struct Queues {
    /// Admitted sessions not yet activated (FIFO among the arrived).
    waiting: VecDeque<usize>,
    /// Per-slot arrival round on the quanta clock; a session is
    /// admission-eligible once the clock reaches it.
    arrival: Vec<usize>,
    /// One-shot per-slot flag: the power envelope deferred this session's
    /// start, so its *first* activation routes to the deferred queue. The
    /// flag clears on use — a later restart re-enters like anyone else.
    defer_at_start: Vec<bool>,
    /// Activated sessions no worker holds.
    ready: VecDeque<usize>,
    /// Backpressured `Low` sessions and envelope-deferred starts.
    deferred: VecDeque<usize>,
    /// Failed sessions awaiting restart: `(slot, ready_at_quanta)`.
    resurrect: Vec<(usize, usize)>,
    /// Sessions activated and unfinished: held, ready or deferred.
    active: usize,
    /// Admitted sessions not yet finished (workers exit at zero).
    live: usize,
    /// Every counter but `scratch`; `stats.quanta` is the logical clock.
    stats: SchedulerStats,
}

impl Queues {
    fn new(order: VecDeque<usize>, arrival: Vec<usize>, defer_at_start: Vec<bool>) -> Self {
        Self {
            live: order.len(),
            waiting: order,
            arrival,
            defer_at_start,
            ..Self::default()
        }
    }

    /// A worker's whole turn under the lock, in order: settle the quantum
    /// it just ran (`last`), promote due resurrections, admit up to
    /// `max_active`, then pick — the held session if it stays held, else
    /// [`Queues::next`]. With nothing runnable it fast-forwards instead.
    fn pass(&mut self, last: Option<(usize, Verdict)>, cfg: &FleetConfig) -> Pass {
        let held = last.and_then(|(i, v)| self.settle(i, v, cfg.defer_watermark).then_some(i));
        if self.live == 0 {
            return Pass::Exit;
        }
        self.promote_resurrections();
        self.admit(cfg.max_active);
        let Some(i) = held.or_else(|| self.next()) else {
            self.fast_forward();
            return Pass::Idle;
        };
        self.stats.quanta += 1;
        Pass::Run(i)
    }

    /// Applies a quantum's verdict on session `i`; returns whether the
    /// worker keeps holding it. Backpressure: a held `Low` session parks on
    /// the deferred queue once the ready queue holds `defer_watermark`
    /// sessions. Deferral changes completion *order*, never outputs.
    fn settle(&mut self, i: usize, verdict: Verdict, defer_watermark: usize) -> bool {
        match verdict {
            Verdict::Continue { low } if !low || self.ready.len() < defer_watermark => return true,
            Verdict::Continue { .. } => {
                self.deferred.push_back(i);
                self.stats.deferrals += 1;
            }
            Verdict::Finished => {
                self.active -= 1;
                self.live -= 1;
            }
            Verdict::Restart { backoff } => {
                // The slot keeps the (checkpoint-restored) state; it
                // re-enters through admission once the backoff expires.
                self.resurrect.push((i, self.stats.quanta + backoff));
                self.stats.resurrections += 1;
                self.active -= 1;
            }
        }
        false
    }

    /// Moves restart-ladder sessions whose backoff has expired back onto
    /// the admission queue, so a revived session re-enters through the
    /// same capacity gate as a new arrival.
    fn promote_resurrections(&mut self) {
        let now = self.stats.quanta;
        let waiting = &mut self.waiting;
        self.resurrect.retain(|&(i, ready_at)| {
            if ready_at <= now {
                waiting.push_back(i);
            }
            ready_at > now
        });
    }

    /// Activates arrival-eligible waiting sessions onto the ready queue
    /// while the active set has capacity, admitting past any session that
    /// has not arrived yet. An envelope-deferred session activates into
    /// the *deferred* queue instead (its one-shot flag clears here): it
    /// consumes an active slot but starts only once the ready queue drains.
    fn admit(&mut self, max_active: usize) {
        let mut idx = 0;
        while idx < self.waiting.len() && self.active < max_active.max(1) {
            let i = self.waiting[idx];
            if self.arrival[i] > self.stats.quanta {
                idx += 1; // not yet arrived: hold, but keep admitting behind it
                continue;
            }
            self.waiting.remove(idx);
            self.active += 1;
            if std::mem::take(&mut self.defer_at_start[i]) {
                self.deferred.push_back(i);
                self.stats.envelope_deferrals += 1;
            } else {
                self.ready.push_back(i);
            }
        }
    }

    /// The next session for a worker that holds none: the ready queue
    /// first, then the deferred queue (both FIFO), so the pool never idles
    /// with a non-empty deferred queue.
    fn next(&mut self) -> Option<usize> {
        self.ready.pop_front().or_else(|| self.deferred.pop_front())
    }

    /// Anti-livelock for the logical clock: the quanta clock only advances
    /// while some session runs, so if *no* session is active and every
    /// remaining one is parked behind a future logical time (restart
    /// backoff or a churn arrival round), the earliest such wakeup is
    /// fast-forwarded to now. Backoff and arrival rounds shape timing,
    /// never outputs, so this is contract-safe.
    fn fast_forward(&mut self) {
        if self.active != 0 {
            return;
        }
        let now = self.stats.quanta;
        let earliest_res = self
            .resurrect
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(slot, ready_at))| (ready_at, slot))
            .map(|(pos, &(_, ready_at))| (ready_at, pos));
        let earliest_arr = self.waiting.iter().map(|&i| (self.arrival[i], i)).min();
        match (earliest_res, earliest_arr) {
            // Earliest wakeup is a resurrection still in the future: pull it
            // forward by re-queueing it through `waiting` (its arrival round
            // is already <= now, so admission picks it up immediately).
            (Some((res_at, pos)), arr)
                if arr.is_none_or(|(arr_at, _)| res_at <= arr_at) && res_at > now =>
            {
                let (i, _) = self.resurrect.remove(pos);
                self.waiting.push_back(i);
            }
            // Earliest wakeup is a resurrection that is already due: the next
            // promote_resurrections pass runs it, and fast-forwarding a later
            // arrival past it would reorder admission — do nothing.
            (Some((res_at, _)), arr) if arr.is_none_or(|(arr_at, _)| res_at <= arr_at) => {}
            (_, Some((arr_at, i))) if arr_at > now => self.arrival[i] = now,
            _ => {}
        }
    }
}

struct Shared {
    /// Session slots, indexed like the input; `None` once finished.
    slots: Vec<Mutex<Option<SessionState>>>,
    reports: Vec<Mutex<Option<SessionReport>>>,
    queues: Mutex<Queues>,
}

impl Shared {
    /// Takes the scheduler lock, counting an acquisition that found it
    /// held.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        match self.queues.try_lock() {
            Ok(q) => q,
            Err(TryLockError::WouldBlock) => {
                let mut q = self.queues.lock().expect(POISONED);
                q.stats.contended_probes += 1;
                q
            }
            Err(TryLockError::Poisoned(e)) => panic!("poisoned scheduler lock: {e}"),
        }
    }
}

/// Runs every session in `sessions` to completion on `threads` workers and
/// returns the reports in slot order plus scheduling counters.
///
/// `defer_at_start[i]` marks slot `i` as envelope-deferred: it joins the
/// admission queue *behind* every immediately-admitted session (in arrival
/// order within each group — a pure function of the decision vector, so
/// identical at every pool size) and its first activation parks on the
/// deferred queue. `arrival[i]` is the quanta round at which slot `i`
/// becomes admission-eligible (`0` = at startup).
pub(crate) fn run(
    sessions: Vec<Option<SessionState>>,
    defer_at_start: Vec<bool>,
    arrival: Vec<usize>,
    threads: usize,
    cfg: &FleetConfig,
) -> (Vec<Option<SessionReport>>, SchedulerStats) {
    let mut order: Vec<usize> = (0..sessions.len())
        .filter(|&i| sessions[i].is_some())
        .collect();
    order.sort_by_key(|&i| defer_at_start[i]); // stable: deferred last
    let shared = Shared {
        reports: sessions.iter().map(|_| Mutex::new(None)).collect(),
        slots: sessions.into_iter().map(Mutex::new).collect(),
        queues: Mutex::new(Queues::new(order.into(), arrival, defer_at_start)),
    };

    let scratch: Vec<ScratchStats> = if threads <= 1 {
        // Serial fast path: same code, no thread spawn.
        vec![worker(&shared, cfg)]
    } else {
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(move || archytas_par::run_as_worker(|| worker(shared, cfg))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a fleet worker panicked"))
                .collect()
        })
    };

    let mut stats = shared.queues.into_inner().expect(POISONED).stats;
    for s in scratch {
        stats.scratch.checkouts += s.checkouts;
        stats.scratch.created += s.created;
    }
    let reports = shared
        .reports
        .into_iter()
        .map(|m| m.into_inner().expect(POISONED))
        .collect();
    (reports, stats)
}

/// One worker's loop: a [`Queues::pass`] under the lock, then one quantum
/// outside it. Returns the worker's scratch traffic.
///
/// Each worker owns one [`SolverWorkspace`] (~1 MB grown; sessions own no
/// scratch), created on its first quantum. It is pure scratch — every
/// buffer is rewritten before it is read — so which workspace runs a
/// quantum never changes bits. It stays thread-affine for latency: a
/// workspace, or a held session's window state, handed between threads
/// would be grown and freed by threads other than the one whose malloc
/// arena owns it, taking that arena's lock mid-frame.
fn worker(sh: &Shared, cfg: &FleetConfig) -> ScratchStats {
    let mut stats = ScratchStats::default();
    let mut scratch: Option<SolverWorkspace> = None;
    // The session this worker just ran and what its quantum decided.
    let mut held: Option<(usize, Verdict)> = None;
    loop {
        let pass = sh.lock().pass(held.take(), cfg);
        let i = match pass {
            Pass::Run(i) => i,
            Pass::Idle => {
                std::thread::yield_now();
                continue;
            }
            Pass::Exit => return stats,
        };
        stats.checkouts += 1;
        let workspace = scratch.get_or_insert_with(|| {
            stats.created += 1;
            SolverWorkspace::new()
        });
        held = Some((i, run_quantum(sh, i, workspace, cfg.frames_per_quantum)));
    }
}

/// Runs up to `frames` frames of session `i`. A session that completes or
/// is terminally quarantined is reaped here, outside the scheduler lock,
/// so the pool keeps serving everyone else.
fn run_quantum(sh: &Shared, i: usize, workspace: &mut SolverWorkspace, frames: usize) -> Verdict {
    let mut slot = sh.slots[i].lock().expect(POISONED);
    let state = slot
        .as_mut()
        .expect("a scheduled session index always has live state");
    let mut outcome = StepOutcome::Progress;
    for _ in 0..frames.max(1) {
        outcome = state.step_guarded(workspace);
        // A wedged step (`Stalled`) consumes the rest of this quantum —
        // one Stalled return costs exactly one scheduler round, the same
        // unit the serial-alone loop charges, so the logical deadline
        // clock agrees between fleet and alone.
        if outcome != StepOutcome::Progress {
            break;
        }
    }
    match outcome {
        StepOutcome::Progress | StepOutcome::Stalled => {
            return Verdict::Continue {
                low: state.priority() == Priority::Low,
            };
        }
        StepOutcome::Failed => {
            if let Some(backoff) = state.try_schedule_restart() {
                return Verdict::Restart { backoff };
            }
        }
        StepOutcome::Done => {}
    }
    let state = slot.take().expect("the slot held the session just stepped");
    drop(slot);
    *sh.reports[i].lock().expect(POISONED) = Some(if outcome == StepOutcome::Done {
        state.finish()
    } else {
        state.finish_quarantined()
    });
    Verdict::Finished
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Queues over slots `0..arrival.len()`, all waiting in slot order.
    fn queues(arrival: Vec<usize>) -> Queues {
        let n = arrival.len();
        Queues::new((0..n).collect(), arrival, vec![false; n])
    }

    #[test]
    fn admission_keeps_admitting_behind_a_not_yet_arrived_head() {
        let mut q = queues(vec![5, 0, 0, 0]);
        q.admit(2);
        assert_eq!(q.ready, [1, 2], "capacity 2; the unarrived head waits");
        assert_eq!(q.waiting, [0, 3]);
        (q.stats.quanta, q.active) = (5, 0);
        q.admit(8);
        assert_eq!(q.ready, [1, 2, 0, 3], "an arrived head admits in order");
    }

    #[test]
    fn envelope_defer_at_start_routes_only_the_first_activation() {
        let mut q = queues(vec![0, 0]);
        q.defer_at_start[0] = true;
        q.admit(8);
        assert_eq!(
            (q.deferred[0], q.ready[0], q.defer_at_start[0]),
            (0, 1, false)
        );
        // Slot 0 runs, fails and is revived: it re-enters like anyone.
        assert_eq!((q.next(), q.next()), (Some(1), Some(0)));
        assert!(!q.settle(0, Verdict::Restart { backoff: 0 }, usize::MAX));
        q.promote_resurrections();
        q.admit(8);
        assert_eq!((q.ready[0], q.stats.envelope_deferrals), (0, 1));
    }

    #[test]
    fn resurrection_is_promoted_exactly_when_its_backoff_expires() {
        let mut q = queues(vec![0]);
        q.admit(8);
        let i = q.next().unwrap();
        q.stats.quanta = 7;
        assert!(!q.settle(i, Verdict::Restart { backoff: 3 }, 1));
        assert_eq!((q.resurrect[0], q.active, q.live), ((0, 10), 0, 1));
        q.stats.quanta = 9;
        q.promote_resurrections();
        assert!(q.waiting.is_empty(), "quanta 9 < ready_at 10");
        q.stats.quanta = 10;
        q.promote_resurrections();
        assert_eq!((q.waiting[0], q.resurrect.len()), (0, 0));
    }

    #[test]
    fn fast_forward_pulls_the_earliest_future_wakeup_only() {
        // A future resurrection due before the earliest arrival is pulled
        // through admission; the arrival keeps its round.
        let mut q = queues(vec![20]);
        (q.resurrect, q.stats.quanta) = (vec![(1, 15)], 5);
        q.fast_forward();
        assert_eq!((q.waiting[1], q.arrival[0]), (1, 20));
        // An already-due resurrection is left to promote_resurrections,
        // and the later arrival is not pulled past it.
        let mut q = queues(vec![20]);
        (q.resurrect, q.stats.quanta) = (vec![(1, 3)], 5);
        q.fast_forward();
        assert_eq!((q.resurrect[0], q.arrival[0]), ((1, 3), 20));
        // Otherwise the earliest future arrival is pulled to now — but
        // never while a session is active.
        let mut q = queues(vec![20]);
        (q.active, q.stats.quanta) = (1, 5);
        q.fast_forward();
        assert_eq!(q.arrival[0], 20);
        q.active = 0;
        q.fast_forward();
        assert_eq!(q.arrival[0], 5);
    }

    #[test]
    fn next_takes_ready_before_deferred() {
        let mut q = queues(Vec::new());
        (q.ready, q.deferred) = ([2, 4].into(), [1, 3].into());
        let order: Vec<_> = std::iter::from_fn(|| q.next()).collect();
        assert_eq!(order, [2, 4, 1, 3]);
    }

    #[test]
    fn a_held_session_is_deferred_only_if_low_and_at_the_watermark() {
        let mut q = queues(Vec::new());
        q.ready = [1].into();
        assert!(q.settle(0, Verdict::Continue { low: true }, 2));
        assert!(q.settle(0, Verdict::Continue { low: false }, 1));
        assert!(!q.settle(0, Verdict::Continue { low: true }, 1));
        assert_eq!((q.deferred[0], q.stats.deferrals), (0, 1));
    }

    #[test]
    fn pass_reruns_the_held_session_and_exits_when_all_finish() {
        let cfg = FleetConfig::default();
        let mut q = queues(vec![0, 0]);
        let cont = Some((0, Verdict::Continue { low: false }));
        assert_eq!(q.pass(None, &cfg), Pass::Run(0));
        assert_eq!(q.pass(cont, &cfg), Pass::Run(0));
        assert_eq!(q.pass(Some((0, Verdict::Finished)), &cfg), Pass::Run(1));
        assert_eq!(q.pass(Some((1, Verdict::Finished)), &cfg), Pass::Exit);
        assert_eq!((q.stats.quanta, q.active, q.live), (3, 0, 0));
    }
}
