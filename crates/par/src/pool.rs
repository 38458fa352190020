//! Scoped worker pool over [`std::thread::scope`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default minimum number of work items before a combinator goes parallel.
///
/// Below this, thread spawn + synchronization overhead dwarfs the work for the
/// small dense blocks the solver produces; the combinators run serially and
/// are still bit-identical.
pub const DEFAULT_SERIAL_THRESHOLD: usize = 64;

thread_local! {
    // Set while a closure runs inside one of our workers; nested par_* calls
    // observe it and degrade to serial instead of oversubscribing the
    // machine with scopes-within-scopes.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        IN_WORKER.with(|f| f.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|f| f.set(false));
    }
}

/// Runs `f` with this thread marked as a pool worker, so any nested `par_*`
/// call inside `f` degrades to serial.
///
/// This is for *embedding* schedulers (e.g. the fleet serving layer) that
/// spawn their own threads outside this crate: each of their workers already
/// occupies a core, so letting a nested `par_*` call fork another scope
/// inside one would oversubscribe the machine. Marking the thread costs one
/// thread-local write and changes no results — every combinator is
/// bit-identical serial vs parallel by contract.
pub fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    let _guard = WorkerGuard::enter();
    f()
}

/// [`Pool::global`] calls since process start (see [`Pool::resolutions`]).
static RESOLUTIONS: AtomicU64 = AtomicU64::new(0);

/// A scoped worker pool.
///
/// The pool is a *policy* object (thread count + serial threshold), not a set
/// of persistent threads: each combinator spawns scoped workers for its own
/// call and joins them before returning, so borrows of caller data need no
/// `'static` lifetime and no shutdown protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    serial_threshold: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// The environment-configured pool: `ARCHYTAS_THREADS` threads (0,
    /// unset or garbage → [`std::thread::available_parallelism`]) and the
    /// [`DEFAULT_SERIAL_THRESHOLD`].
    ///
    /// Each call re-reads the environment and, without `ARCHYTAS_THREADS`,
    /// the cgroup CPU limits behind `available_parallelism` — tens of
    /// microseconds — so callers resolve a pool once per sweep or fleet.
    /// Every call is counted ([`Pool::resolutions`]).
    pub fn global() -> Pool {
        RESOLUTIONS.fetch_add(1, Ordering::Relaxed);
        let threads = match std::env::var("ARCHYTAS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Pool::with_threads(threads)
    }

    /// Number of [`Pool::global`] resolutions since process start (one
    /// relaxed counter, shared by every thread): lets a test assert that a
    /// hot path resolves no pool of its own.
    pub fn resolutions() -> u64 {
        RESOLUTIONS.load(Ordering::Relaxed)
    }

    /// A pool with an explicit thread count (minimum 1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }

    /// Returns this pool with a different serial-fallback threshold.
    /// `0` forces every call down the parallel path (used by the
    /// equivalence tests).
    pub fn with_serial_threshold(self, serial_threshold: usize) -> Pool {
        Pool {
            serial_threshold,
            ..self
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured serial-fallback threshold (work items).
    pub fn serial_threshold(&self) -> usize {
        self.serial_threshold
    }

    /// Whether a job of `work_items` independent items takes the parallel
    /// path on this pool (more than one thread, enough work, and not already
    /// inside a worker).
    ///
    /// Nested dispatch degrades to serial on the *inner* level only: a kernel
    /// called from inside one of this crate's workers sees `false` here, but
    /// the enclosing (outer) parallel region is unaffected.
    pub fn should_parallelize(&self, work_items: usize) -> bool {
        self.threads > 1 && work_items >= self.serial_threshold.max(2) && !in_worker()
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Bit-identical to `items.iter().map(f).collect()` for any thread
    /// count: each element is mapped exactly once and results are reassembled
    /// by index.
    pub fn par_map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        if !self.should_parallelize(items.len()) {
            return items.iter().map(f).collect();
        }
        // Small fixed chunks + dynamic claiming load-balance uneven items
        // (e.g. synthesizer stripes) without affecting output order.
        let chunk_size = (items.len() / (4 * self.threads)).max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        let next = AtomicUsize::new(0);
        let f = &f;
        let mut pieces: Vec<(usize, Vec<U>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads.min(n_chunks))
                .map(|_| {
                    s.spawn(|| {
                        let _guard = WorkerGuard::enter();
                        let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let lo = c * chunk_size;
                            let hi = (lo + chunk_size).min(items.len());
                            local.push((c, items[lo..hi].iter().map(f).collect()));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("par_map worker panicked"))
                .collect()
        });
        pieces.sort_unstable_by_key(|(c, _)| *c);
        let mut out = Vec::with_capacity(items.len());
        for (_, mut piece) in pieces.drain(..) {
            out.append(&mut piece);
        }
        out
    }

    /// Runs `f(chunk_index, chunk)` over disjoint `chunk_size` chunks of
    /// `data`, in parallel. Equivalent to a serial
    /// `data.chunks_mut(chunk_size).enumerate()` loop: chunks are disjoint,
    /// so any interleaving produces the same final contents.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_size == 0`.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_size: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_size > 0, "par_chunks_mut: chunk_size must be > 0");
        let n_chunks = data.len().div_ceil(chunk_size);
        if !self.should_parallelize(data.len()) || n_chunks < 2 {
            for (c, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f(c, chunk);
            }
            return;
        }

        let f = &f;
        std::thread::scope(|s| {
            // Static round-robin-by-contiguous-run distribution: worker w
            // takes chunks [w*per, (w+1)*per). split_at_mut keeps borrows
            // disjoint without unsafe.
            let workers = self.threads.min(n_chunks);
            let per = n_chunks.div_ceil(workers);
            let mut rest = data;
            for w in 0..workers {
                let take = (per * chunk_size).min(rest.len());
                if take == 0 {
                    break;
                }
                let (mine, tail) = rest.split_at_mut(take);
                rest = tail;
                let first_chunk = w * per;
                s.spawn(move || {
                    let _guard = WorkerGuard::enter();
                    for (k, chunk) in mine.chunks_mut(chunk_size).enumerate() {
                        f(first_chunk + k, chunk);
                    }
                });
            }
        });
    }

    /// Maps fixed-size chunks of `items` through `map(chunk_index, chunk)`
    /// and folds the partials **in chunk order** with `fold`.
    ///
    /// The partition depends only on `chunk_size`, never on the thread count,
    /// and the fold is performed serially left-to-right — so floating-point
    /// reductions are bit-identical across any `ARCHYTAS_THREADS` setting.
    /// Returns `None` when `items` is empty.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_size == 0`.
    pub fn par_reduce<T: Sync, A: Send>(
        &self,
        items: &[T],
        chunk_size: usize,
        map: impl Fn(usize, &[T]) -> A + Sync,
        fold: impl FnMut(A, A) -> A,
    ) -> Option<A> {
        assert!(chunk_size > 0, "par_reduce: chunk_size must be > 0");
        if items.is_empty() {
            return None;
        }
        let partials: Vec<A> = if self.should_parallelize(items.len()) {
            // Reuse par_map's ordered machinery over the chunk list.
            let bounds: Vec<(usize, usize)> = (0..items.len().div_ceil(chunk_size))
                .map(|c| (c * chunk_size, ((c + 1) * chunk_size).min(items.len())))
                .collect();
            let map = &map;
            self.par_map(&bounds, |&(lo, hi)| map(lo / chunk_size, &items[lo..hi]))
        } else {
            items
                .chunks(chunk_size)
                .enumerate()
                .map(|(c, chunk)| map(c, chunk))
                .collect()
        };
        partials.into_iter().reduce(fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forced(threads: usize) -> Pool {
        Pool::with_threads(threads).with_serial_threshold(0)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let got = forced(threads).par_map(&items, |&x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_small_and_empty() {
        let empty: Vec<u32> = Vec::new();
        assert!(forced(4).par_map(&empty, |&x| x).is_empty());
        assert_eq!(forced(4).par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_mut_matches_serial() {
        for threads in [1, 2, 5, 8] {
            let mut par: Vec<f64> = (0..517).map(|i| i as f64).collect();
            let mut ser = par.clone();
            let f = |c: usize, chunk: &mut [f64]| {
                for v in chunk.iter_mut() {
                    *v = v.sin() * (c as f64 + 1.0);
                }
            };
            forced(threads).par_chunks_mut(&mut par, 13, f);
            for (c, chunk) in ser.chunks_mut(13).enumerate() {
                f(c, chunk);
            }
            let same = par
                .iter()
                .zip(&ser)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads}");
        }
    }

    #[test]
    fn par_reduce_is_thread_count_invariant() {
        // A deliberately non-associative float sum: chunk partials differ
        // from a flat sum, so this fails if the partition or fold order ever
        // depends on the thread count.
        let items: Vec<f64> = (0..997).map(|i| (i as f64 * 0.7).tan()).collect();
        let reference = forced(1)
            .par_reduce(&items, 32, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
            .unwrap();
        for threads in [2, 3, 8] {
            let got = forced(threads)
                .par_reduce(&items, 32, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
        let empty: Vec<f64> = Vec::new();
        assert!(forced(4)
            .par_reduce(&empty, 8, |_, c| c.len(), |a, b| a + b)
            .is_none());
    }

    #[test]
    fn par_reduce_chunk_indices_are_correct() {
        let items: Vec<usize> = (0..100).collect();
        let got = forced(8)
            .par_reduce(
                &items,
                7,
                |c, chunk| vec![(c, chunk.to_vec())],
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
            .unwrap();
        let want: Vec<(usize, Vec<usize>)> = items
            .chunks(7)
            .enumerate()
            .map(|(c, chunk)| (c, chunk.to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let outer: Vec<usize> = (0..64).collect();
        let got = forced(4).par_map(&outer, |&i| {
            // should_parallelize must report false inside a worker.
            assert!(!forced(4).should_parallelize(1_000_000));
            let inner: Vec<usize> = (0..100).collect();
            forced(4).par_map(&inner, move |&j| i * 1000 + j).len()
        });
        assert!(got.iter().all(|&n| n == 100));
    }

    #[test]
    fn serial_threshold_gates_parallelism() {
        let p = Pool::with_threads(8).with_serial_threshold(50);
        assert!(!p.should_parallelize(49));
        assert!(p.should_parallelize(50));
        assert!(!Pool::with_threads(1).should_parallelize(1_000_000));
    }
}
