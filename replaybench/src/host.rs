//! Host-side measurement: process CPU time, peak resident memory, and the noise
//! diagnostics (wall time, hypervisor steal, available parallelism) recorded next
//! to every run.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a constant the
    // C library accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-wide steal ticks (`/proc/stat`, first `cpu` line, eighth field): time the
/// hypervisor ran someone else while this VM wanted the CPU.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// CPU and wall time of one measured section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

/// Runs `f` and measures it in process CPU time and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let wall = Instant::now();
    let cpu = process_cpu_s();
    let out = f();
    let cpu_s = process_cpu_s() - cpu;
    let wall_s = wall.elapsed().as_secs_f64();
    (out, Timed { cpu_s, wall_s })
}

/// Noise diagnostics of one run: reported beside the metrics, never as one.
#[derive(Debug, Clone, Copy)]
pub struct Diagnostics {
    started: Instant,
    steal_at_start: u64,
}

impl Diagnostics {
    /// Starts recording.
    pub fn start() -> Diagnostics {
        Diagnostics {
            started: Instant::now(),
            steal_at_start: steal_ticks(),
        }
    }

    /// Wall seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Steal ticks accumulated host-wide since the start.
    pub fn steal_ticks(&self) -> u64 {
        steal_ticks().saturating_sub(self.steal_at_start)
    }
}

/// Threads the host lets this process run in parallel.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
