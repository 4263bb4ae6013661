//! What the benchmark knows about the machine it runs on: the host stamp
//! printed with every result, CPU-time clocks and resident memory.

use serde::Value;
use std::fmt;

/// A condition under which the benchmark exits non-zero instead of
/// printing numbers that would be scheduler noise or measure a different
/// experiment than the one the workloads were calibrated for.
#[derive(Debug)]
pub struct Refusal(pub String);

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "refusing to report: {}", self.0)
    }
}

impl std::error::Error for Refusal {}

pub fn refuse<T>(why: impl Into<String>) -> Result<T, Refusal> {
    Err(Refusal(why.into()))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout is at, read from `.git` without spawning a
/// process; `unknown` in an exported tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_owned(), |rev| rev.trim().to_owned()),
        None => head,
    }
}

/// Host stamp: everything a reader needs to decide whether two results
/// are comparable.
pub fn stamp() -> Value {
    Value::Object(vec![
        ("nproc".to_owned(), Value::U64(nproc() as u64)),
        (
            "isa_tier".to_owned(),
            Value::String(eugene_tensor::isa_tier().to_string()),
        ),
        (
            "quant_tier".to_owned(),
            Value::String(eugene_tensor::quant_tier_name().to_string()),
        ),
        ("git_rev".to_owned(), Value::String(git_rev())),
        (
            "default_gateway_backend".to_owned(),
            Value::String(format!("{:?}", eugene_net::GatewayBackend::default())),
        ),
    ])
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU sets of up to 1024 CPUs, as the kernel's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns whether that worked.
///
/// Only the two driver threads call this. Where the kernel puts them
/// relative to the server's threads changes what a wake-up costs, and on a
/// two-core host that choice differed from deployment to deployment and
/// made CPU and latency figures bimodal. Pinned, the driver is the same
/// fixed neighbour in every run; the server's threads stay free to use
/// every CPU, this one included.
pub fn pin_driver_thread() -> bool {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return false;
    }
    let Some((word, bits)) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0) else {
        return false;
    };
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << (63 - bits.leading_zeros());
    // SAFETY: `only` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) == 0 }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // both clock ids are defined by POSIX for the calling process/thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system) of the whole process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident set size of the process (`VmRSS`), in MiB, after the
/// allocator has handed its free pages back to the kernel (glibc's
/// `malloc_trim`): the memory the process needs, not what its allocator
/// happens to be keeping.
///
/// The high-water mark (`VmHWM`) is no use as a metric here. Training frees
/// ~40 MiB that glibc returns at once in about half the runs and keeps as
/// heap holes in the other half (its mmap threshold adapts to the order of
/// early frees, which follows thread timing), and what is allocated later
/// lands beside the holes: `VmHWM` read 173 or 211 MiB on
/// `wide-f32-gateway` for the same live data. Trimmed, both read
/// 172.2 MiB, within 2 MiB of the lower mark.
pub fn trimmed_rss_mib() -> f64 {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread.
    unsafe { malloc_trim(0) };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(x > 0);
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
        assert!(trimmed_rss_mib() > 1.0);
    }
}
