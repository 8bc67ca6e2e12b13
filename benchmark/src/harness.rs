//! Time base of the benchmark: a fixed reference kernel that brackets every
//! timed sample, process CPU time and peak RSS.
//!
//! On a shared box the same binary runs 15–25 % faster or slower from one
//! launch to the next, and process CPU time drifts with it: the machine
//! changes speed.  The ratio of a sample to a reference kernel run right
//! before and after it holds much better, so every seconds-valued metric is
//! reported in *calibrated seconds*: raw seconds scaled by how fast the
//! machine ran the kernel around that sample.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on this container when it is quiet.  Calibrated
/// seconds are raw seconds × `CAL_REF_S` ÷ (mean of the two adjacent kernel
/// times), so on a quiet machine they read like wall seconds.
pub const CAL_REF_S: f64 = 0.065;

/// Entries of the kernel's table: 64 MiB of `u32`, so the walk misses the
/// 4 MiB L2 and the TLB on nearly every step.
const TABLE_LEN: usize = 1 << 24;
/// About 30 ms of dependent integer work on the quiet container ...
const MIX_STEPS: u32 = 7_500_000;
/// ... and about 35 ms of dependent loads.  Neither half alone tracks the
/// workloads: when only the core clock moves the mixes follow it and the
/// loads do not, under memory contention it is the reverse, and the
/// simulator is a blend of both.
const WALK_STEPS: u32 = 180_000;

/// SplitMix64 finalizer; the benchmark's own copy so the kernel does not
/// change when the repository's does.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed work whose duration tracks the machine's speed: a dependent chain
/// of integer mixes (core clock, steal time) followed by a dependent random
/// walk over a table far larger than L2 (cache and memory contention).
pub struct RefKernel {
    table: Vec<u32>,
}

impl RefKernel {
    /// Allocate and fill the table (about 50 ms).
    pub fn build() -> Self {
        Self { table: (0..TABLE_LEN as u64).map(|i| mix(i) as u32).collect() }
    }

    /// Run the kernel once and return its wall seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut z = 42u64;
        for _ in 0..MIX_STEPS {
            z = mix(z);
        }
        // The next index depends on the loaded value (latency-bound) and on
        // the step (so the walk cannot fall into a short cycle).
        let mut i = z as usize % TABLE_LEN;
        for step in 0..WALK_STEPS {
            i = (self.table[i] ^ step.wrapping_mul(0x9E37_79B1)) as usize % TABLE_LEN;
        }
        black_box(i);
        start.elapsed().as_secs_f64()
    }
}

/// Factor that turns raw seconds measured between two kernel runs into
/// calibrated seconds.
pub fn cal_factor(kernel_before: f64, kernel_after: f64) -> f64 {
    CAL_REF_S / ((kernel_before + kernel_after) / 2.0)
}

/// Relative machine speed a kernel time corresponds to (1.0 = quiet box).
pub fn machine_speed(kernel_seconds: f64) -> f64 {
    CAL_REF_S / kernel_seconds
}

/// The kernel runs of one benchmark run: one before the first sample and one
/// after every sample, so each sample has a kernel run on either side.
pub struct Calibrator {
    kernel: RefKernel,
    times: Vec<f64>,
    /// Whether samples are scaled at all (see `workloads::calibrated`); the
    /// kernel runs either way, so `machine_speed` is always reported.
    calibrated: bool,
}

impl Calibrator {
    pub fn start(calibrated: bool) -> Self {
        let kernel = RefKernel::build();
        let times = vec![kernel.run()];
        Self { kernel, times, calibrated }
    }

    /// Run the kernel after a sample and return the factor that turns the
    /// sample's raw seconds into calibrated seconds.
    pub fn close_sample(&mut self) -> f64 {
        self.times.push(self.kernel.run());
        match self.times[..] {
            [.., before, after] if self.calibrated => cal_factor(before, after),
            _ => 1.0,
        }
    }

    /// Machine speed over the whole run (median kernel time).
    pub fn machine_speed(&self) -> f64 {
        machine_speed(crate::stats::median(&self.times))
    }
}

/// Raw wall and process-CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall: f64,
    pub cpu: f64,
}

/// Time `f`, wall and CPU (all threads of the process).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, Timed { wall, cpu: cpu_seconds() - cpu0 })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has used so far, summed over all its threads,
/// live and exited (`/proc/self/stat` has the same number at 10 ms ticks,
/// too coarse for a 0.3 s pass).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on, the only ones with
    // the `/proc` files it also reads) and the clock id is a constant the
    // kernel defines; the call writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("the benchmark needs /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("/proc/self/status has no VmHWM line");
    let kib: u64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM is a number of kB");
    kib * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seconds_arithmetic() {
        // A machine running the kernel at half speed halves the reading.
        let f = cal_factor(2.0 * CAL_REF_S, 2.0 * CAL_REF_S);
        assert!((f - 0.5).abs() < 1e-12);
        assert!((1.0 * f - 0.5).abs() < 1e-12);
        // Uneven neighbours: the mean of the two kernel times is used.
        let f = cal_factor(CAL_REF_S, 3.0 * CAL_REF_S);
        assert!((f - 0.5).abs() < 1e-12);
        assert!((machine_speed(CAL_REF_S) - 1.0).abs() < 1e-12);
        assert!((machine_speed(2.0 * CAL_REF_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic_work_and_clocks_advance() {
        let k = RefKernel::build();
        assert!(k.run() > 0.0);
        let (sum, t) = timed(|| (0..2_000_000u64).map(mix).fold(0, u64::wrapping_add));
        black_box(sum);
        assert!(t.wall > 0.0 && t.cpu > 0.0 && t.cpu < t.wall * 4.0 + 0.1);
        assert!(peak_rss_bytes() > (TABLE_LEN * 4) as u64, "the kernel table alone is 64 MiB");
    }

    #[test]
    fn mix_matches_splitmix64() {
        // First output of SplitMix64 seeded with 0.
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }
}
