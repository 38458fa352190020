//! Clocks and order statistics.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process (s).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux, and `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or an error naming the metric when `den` is zero.
pub fn ratio(name: &str, num: f64, den: f64) -> Result<f64, String> {
    if den == 0.0 {
        Err(format!("{name}: zero denominator"))
    } else {
        Ok(num / den)
    }
}

/// Dimension of the calibration matrix: its factorization works on about
/// 0.66 MB of f64, like a served window's dense normal equations.
const CALIBRATION_DIM: usize = 288;
/// Factorizations per calibration; the median one is kept, so a single
/// preemption does not read as a slow host.
const CALIBRATION_REPS: usize = 7;
/// Calibration kernel time (s) of the reference machine: normalized
/// metrics read as if measured on a machine that runs one factorization of
/// [`calibrate`]'s kernel in this long.
pub const CALIBRATION_REF_S: f64 = 0.003;

/// Times a fixed dense Cholesky factorization, owned by the benchmark and
/// independent of the program under test, on `threads` threads at once;
/// returns the mean over threads of each thread's median time (s). Run next
/// to each measured batch, it tracks how fast the shared host lets this
/// process run right now.
pub fn calibrate(threads: usize) -> f64 {
    let one = || {
        let n = CALIBRATION_DIM;
        let mut a = vec![0.0f64; n * n];
        let mut times: Vec<f64> = (0..CALIBRATION_REPS)
            .map(|rep| {
                for i in 0..n {
                    for j in 0..n {
                        a[i * n + j] = if i == j {
                            n as f64 + 1.0
                        } else {
                            1.0 / (1.0 + (i + j + rep) as f64)
                        };
                    }
                }
                let t = std::time::Instant::now();
                for j in 0..n {
                    let d = (a[j * n + j] - dot(&a[j * n..j * n + j], &a[j * n..j * n + j])).sqrt();
                    a[j * n + j] = d;
                    for i in j + 1..n {
                        let s = a[i * n + j] - dot(&a[i * n..i * n + j], &a[j * n..j * n + j]);
                        a[i * n + j] = s / d;
                    }
                }
                std::hint::black_box(&mut a);
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[CALIBRATION_REPS / 2]
    };
    if threads <= 1 {
        return one();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
