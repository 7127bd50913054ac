//! Clocks, percentiles and what a measured phase observed.

use std::time::Duration;

use crate::trace::ClientSpan;

/// What one measured phase of load observed.
pub struct Phase {
    /// One latency per measured inference.
    pub latencies_ms: Vec<f64>,
    /// One span per measured inference.
    pub spans: Vec<ClientSpan>,
    /// The time throughput is measured over.
    pub elapsed: Duration,
    /// Process CPU over the phase, less the CPU the benchmark spent
    /// checking outputs.
    pub cpu: Duration,
    /// Operations sent, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Times `reps` calls of `f` and returns the median in milliseconds.
/// Each result is dropped outside the timing, through `black_box` so
/// the call cannot be optimized away.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            let out = std::hint::black_box(f());
            let took = ms(t.elapsed());
            drop(out);
            took
        })
        .collect();
    median(&samples)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks with the 64-bit `timespec` layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable value with the layout of the C
    // `struct timespec` on 64-bit Linux (checked by the `compile_error!`
    // above), and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time (user + system) of every thread of this process so far,
/// exited threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + system) of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 95.0)).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let (p, t) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > p && thread_cpu() > t);
    }
}
