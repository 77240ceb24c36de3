//! Process-level accounting: CPU time, context switches, peak RSS and
//! thread count of the whole benchmark process.
//!
//! The simulated cluster runs ~15 fabric threads plus short-lived scoped
//! threads (one per fan-out call of every query), so per-thread readings
//! miss most of the work. `getrusage(RUSAGE_SELF)` covers every thread of
//! the process, exited ones included. This module also pins the process
//! to one core, the benchmark's main defence against scheduling noise.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage(2) with the 64-bit Linux struct layout");

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by 64-bit Linux: two timevals and
/// fourteen longs.
#[repr(C)]
struct RawUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    /// ru_ixrss .. ru_nsignals, none of which the benchmark reads.
    _skipped: [c_long; 11],
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

/// `cpu_set_t`: 1 024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Pin the calling thread — and every thread it later spawns — to the
/// highest-numbered core it may run on (core 0 takes the VM's device
/// interrupts). Returns the core, or `None` if the kernel refused.
///
/// The simulated cluster's ~15 threads hand work to each other thousands
/// of times a second. Across two vCPUs every hand-off is an IPI and, when
/// the target vCPU is idle, a halt exit whose cost the hypervisor's
/// adaptive polling makes bimodal: the same `cell_mix` trial ran at
/// 16 k ops/s or 135 k ops/s depending on which way the guest scheduler
/// placed the wakee. On one core every hand-off is a plain context
/// switch, and trial-to-trial spread fell from 20-40 % to 2-5 %.
pub fn pin_to_one_core() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let core = (0..1024)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only: CpuSet = [0; 16];
    only[core / 64] = 1 << (core % 64);
    // SAFETY: `only` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(core)
}

/// A reading of the process's cumulative resource usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    pub max_rss_kb: u64,
}

impl Usage {
    /// Read the process totals now.
    pub fn now() -> Usage {
        let mut raw = std::mem::MaybeUninit::<RawUsage>::zeroed();
        // SAFETY: `raw` points to writable memory of exactly the size and
        // layout the kernel fills for `struct rusage` on 64-bit Linux
        // (checked by the cfg gate above and the size test below), and
        // RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        // SAFETY: the buffer was zero-initialised (every field is a plain
        // integer, so all-zero is a valid value) and getrusage succeeded.
        let raw = unsafe { raw.assume_init() };
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Usage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
            ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as u64,
            max_rss_kb: raw.ru_maxrss as u64,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Usage accumulated since `earlier` (peak RSS is not a difference:
    /// the later reading's peak is kept).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kb: self.max_rss_kb,
        }
    }
}

/// Live threads of this process (`Threads:` in `/proc/self/status`).
pub fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Cores this process may run on right now (1 once pinned).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout_matches_the_kernel_struct() {
        // 2 timevals (16 bytes each) + 14 longs.
        assert_eq!(std::mem::size_of::<RawUsage>(), 32 + 14 * 8);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = Usage::now();
        let mut x = 1u64;
        for i in 0..200_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let used = Usage::now().since(&before);
        assert!(used.cpu_s() > 0.0, "no CPU time recorded: {used:?}");
        assert!(used.max_rss_kb > 0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn pinning_leaves_one_core_and_threads_inherit_it() {
        // Pin a scratch thread, not the test runner's.
        std::thread::spawn(|| {
            let core = pin_to_one_core().expect("the kernel lets a thread narrow its own mask");
            assert_eq!(nproc(), 1);
            let inherited = std::thread::spawn(nproc).join().unwrap();
            assert_eq!(inherited, 1, "child of a thread pinned to core {core}");
        })
        .join()
        .unwrap();
    }
}
