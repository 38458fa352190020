//! Std-only parallel execution layer for the Archytas reproduction.
//!
//! A scoped worker pool over [`std::thread::scope`] (no external
//! dependencies — DESIGN.md's sanctioned set has no threading crate) that the
//! synthesizer, the experiment sweeps and the fleet's worker marking share.
//! The solver kernels in `archytas-math` and `archytas-slam` do not use it:
//! they run serially, one window per fleet worker, which is where a served
//! window's parallelism lives (the accelerator's parallel lanes are modeled
//! by the hardware crate, not emulated with threads).
//!
//! # Determinism contract
//!
//! Every combinator preserves *serial semantics bit-for-bit*:
//!
//! * [`Pool::par_map`] returns results in input order; each element is
//!   computed by exactly one closure call, so any thread count (including 1)
//!   yields the identical `Vec`.
//! * [`Pool::par_chunks_mut`] hands out disjoint chunks; each chunk sees the
//!   same serial computation it would in a plain loop.
//! * [`Pool::par_reduce`] partitions by a *fixed* chunk size (independent of
//!   thread count) and folds partials in chunk order, so even non-associative
//!   floating-point reductions are reproducible across `ARCHYTAS_THREADS`
//!   settings.
//!
//! # Thread-count knob
//!
//! [`Pool::global`] reads `ARCHYTAS_THREADS` (0, unset or garbage → hardware
//! parallelism via [`std::thread::available_parallelism`]); it is the only
//! environment knob. Jobs of fewer items than the serial threshold
//! ([`Pool::with_serial_threshold`], default [`DEFAULT_SERIAL_THRESHOLD`])
//! run serially. Nested calls (a `par_*` call from inside a worker, or from
//! a thread marked by [`run_as_worker`]) degrade to serial — on the inner
//! level only; the enclosing region keeps its workers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
mod memo;
mod pool;

pub use memo::{Memo, MemoStats};
pub use pool::{run_as_worker, Pool, DEFAULT_SERIAL_THRESHOLD};

/// [`Pool::par_map`] on the [`Pool::global`] pool.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    Pool::global().par_map(items, f)
}

/// [`Pool::par_chunks_mut`] on the [`Pool::global`] pool.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_size: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    Pool::global().par_chunks_mut(data, chunk_size, f);
}

/// [`Pool::par_reduce`] on the [`Pool::global`] pool.
pub fn par_reduce<T: Sync, A: Send>(
    items: &[T],
    chunk_size: usize,
    map: impl Fn(usize, &[T]) -> A + Sync,
    fold: impl FnMut(A, A) -> A,
) -> Option<A> {
    Pool::global().par_reduce(items, chunk_size, map, fold)
}
