//! Per-thread CPU-time measurement.
//!
//! The simulated cluster runs many machine-driver threads on however many
//! host cores exist; wall-clock time therefore measures scheduler
//! contention, not per-machine work. The modeled cluster times (what the
//! experiment figures report) need each driver's *CPU* time — the work a
//! dedicated machine would have done.
//!
//! On Linux, `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` reads the calling
//! thread's on-CPU nanoseconds. `/proc/thread-self/schedstat` would not
//! do: it advances only at scheduler ticks, so a phase of a few
//! milliseconds reads 0 or a whole tick. Elsewhere we fall back to wall
//! clock (correct whenever the host has at least one core per driver).

use std::time::Instant;

#[cfg(target_os = "linux")]
mod clock {
    use std::os::raw::{c_int, c_long};

    /// `struct timespec` on Linux: `time_t` is a `long`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    /// `<time.h>`'s clock id for the calling thread's CPU time.
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    /// Cumulative CPU nanoseconds of the calling thread.
    pub(super) fn thread_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library's, declared with its
        // C signature and a `repr(C)` `timespec`; it writes only through
        // `ts`, a valid, exclusively borrowed value that outlives the call.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(u64::try_from(ts.tv_sec).ok()? * 1_000_000_000 + u64::try_from(ts.tv_nsec).ok()?)
    }
}

#[cfg(target_os = "linux")]
use clock::thread_cpu_ns;

/// No thread CPU clock off Linux: the timer reads wall time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// A stopwatch measuring the calling thread's CPU time, with wall-clock
/// fallback.
#[derive(Debug)]
pub struct ThreadTimer {
    wall: Instant,
    cpu_start: Option<u64>,
}

impl ThreadTimer {
    /// Start timing on the current thread.
    pub fn start() -> Self {
        ThreadTimer {
            wall: Instant::now(),
            cpu_start: thread_cpu_ns(),
        }
    }

    /// Seconds of CPU work done by this thread since `start` (wall time if
    /// CPU accounting is unavailable). Must be called on the same thread.
    pub fn elapsed_seconds(&self) -> f64 {
        match (self.cpu_start, thread_cpu_ns()) {
            (Some(a), Some(b)) if b >= a => (b - a) as f64 / 1e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_nonnegative_and_grows_with_work() {
        let t = ThreadTimer::start();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        std::hint::black_box(acc);
        let busy = t.elapsed_seconds();
        assert!(busy >= 0.0);
        // A sleeping thread must accrue (almost) no CPU time when the
        // platform supports CPU accounting.
        if thread_cpu_ns().is_some() {
            let t = ThreadTimer::start();
            std::thread::sleep(std::time::Duration::from_millis(50));
            let idle = t.elapsed_seconds();
            assert!(idle < 0.040, "sleep accrued {idle}s of CPU time");
        }
    }

    #[test]
    fn a_short_work_loop_reads_nonzero_cpu_time() {
        // About 200 µs of work, far below a scheduler tick: a tick-driven
        // clock reads 0 for most such phases.
        for run in 0..10 {
            let t = ThreadTimer::start();
            let wall = Instant::now();
            let mut acc = 0u64;
            while wall.elapsed() < std::time::Duration::from_micros(200) {
                for i in 0..1_000u64 {
                    acc = acc.wrapping_add(i.wrapping_mul(2654435761));
                }
            }
            std::hint::black_box(acc);
            let busy = t.elapsed_seconds();
            assert!(busy > 0.0, "run {run}: a 200 µs loop read {busy}s");
        }
    }
}
