//! Process facts the benchmark records beside its figures: high-water
//! RSS, CPU count, and the runtime choices the program resolved.

use std::path::PathBuf;
use std::time::Instant;

/// The process's high-water resident set in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `MBS_*` variables in the environment. Each one silently changes what
/// the program does (kernel, threads, precision, cache budget, fusion,
/// stashing, loader and server sizing), so the benchmark refuses to run
/// under any of them.
pub fn mbs_env_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MBS_"))
        .collect();
    v.sort();
    v
}

/// What the measured program resolved at start-up: GEMM kernel, GEMM
/// threads, storage precision, the byte budget `HardwareConfig::cpu()`
/// derives its buffer from, and the CPU count.
pub struct Pinned {
    pub kernel: &'static str,
    pub threads: usize,
    pub precision: &'static str,
    pub cache_budget_bytes: usize,
    pub cpu_buffer_bytes: usize,
    pub nproc: usize,
}

impl Pinned {
    pub fn resolve() -> Self {
        Self {
            kernel: mbs_tensor::ops::kernel::selected().name,
            threads: mbs_tensor::ops::pack::configured_threads(),
            precision: mbs_tensor::prec::precision().name(),
            cache_budget_bytes: mbs_core::config::cache_budget_bytes(),
            cpu_buffer_bytes: mbs_core::HardwareConfig::cpu().global_buffer_bytes,
            nproc: nproc(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "pinned: kernel={} gemm_threads={} precision={} cache_budget_bytes={} \
             cpu_buffer_bytes={} nproc={}",
            self.kernel,
            self.threads,
            self.precision,
            self.cache_budget_bytes,
            self.cpu_buffer_bytes,
            self.nproc
        )
    }
}

/// Directory for this run's files (dataset, checkpoints, trace),
/// under the working directory so the benchmark writes nowhere else.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Cumulative `(steal, total)` CPU time in clock ticks from the first
/// line of `/proc/stat`; `None` where it is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: a noisy neighbour shows up here.
pub fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPU time this process has used, in seconds: every thread's, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it
/// leaves out the time the hypervisor gives to other guests, which on a
/// shared 2-vCPU guest moves wall-clock figures by up to 2x from one
/// quarter hour to the next.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the crate-level cfg requires), and
    // clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall time and process CPU time since it was started.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}
