//! Host-speed calibration for single-thread CPU timings.
//!
//! Leaving stolen time out (`cpu`) is not enough on a shared host: the
//! same command on one thread took 80–190 ms of CPU time from pass to
//! pass, in slow episodes lasting seconds, as other tenants compete for
//! the core's execution units and caches. A run's median moved with the
//! share of slow episodes in it, by a third between runs minutes apart.
//!
//! So a fixed kernel that the benchmark owns is timed beside the work:
//! a bit-parallel single-fault simulation of a seeded random netlist, the
//! same kind of work as the program's. Its CPU time over [`REFERENCE_MS`]
//! is the host's slowdown, and measured times are divided by it:
//!
//! - a single-thread command, by the mean of the kernel's time on the
//!   same thread just before and just after it ([`Speed`]);
//! - work spread over every CPU (the served workloads), by the median of
//!   the kernel's time run on every CPU at once at quiet points between
//!   rounds of work ([`Kernel::time_ms_every_cpu`]). Single readings
//!   there track one round poorly, but their median tracks a whole phase.
//!
//! No program change moves the kernel, so a faster program still reads
//! faster.

use std::time::Duration;

use crate::cpu;
use crate::stats::median;

/// The kernel's CPU time on the reference host: the two-vCPU development
/// VM (Intel Xeon), its fastest reading over six 20-second runs. Scaled
/// times read as that host would give them uncontended.
pub const REFERENCE_MS: f64 = 1.2;

const GATES: usize = 160;
const INPUTS: usize = 16;
const VECTORS: u64 = 24;

/// The calibration kernel: a fixed random netlist of two-input gates.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Per gate: its function (0 AND, 1 OR, 2 XOR, 3 NAND) and its two
    /// fan-ins (primary inputs first, then earlier gates).
    gates: Vec<(u8, usize, usize)>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    /// The netlist, the same on every run.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let gates = (0..GATES)
            .map(|g| {
                let kind = (xorshift(&mut x) % 4) as u8;
                let a = (xorshift(&mut x) % (INPUTS + g) as u64) as usize;
                let b = (xorshift(&mut x) % (INPUTS + g) as u64) as usize;
                (kind, a, b)
            })
            .collect();
        Kernel { gates }
    }

    /// Simulates every single inverted-gate fault under a fixed set of
    /// 64-pattern input words; returns a checksum of the outputs.
    #[must_use]
    pub fn run(&self) -> u64 {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut values = vec![0u64; INPUTS + GATES];
        let mut sum = 0u64;
        for v in 0..VECTORS {
            for value in &mut values[..INPUTS] {
                *value = xorshift(&mut x) ^ v;
            }
            for fault in 0..GATES {
                for (g, &(kind, a, b)) in self.gates.iter().enumerate() {
                    let (p, q) = (values[a], values[b]);
                    let out = match kind {
                        0 => p & q,
                        1 => p | q,
                        2 => p ^ q,
                        _ => !(p & q),
                    };
                    values[INPUTS + g] = if g == fault { !out } else { out };
                }
                sum = sum.wrapping_add(values[INPUTS + GATES - 1]);
            }
        }
        sum
    }

    /// The kernel's CPU time on this thread, in ms.
    #[must_use]
    pub fn time_ms(&self) -> f64 {
        let t0 = cpu::thread_time();
        // Every input is a constant: hide the netlist from the optimizer.
        std::hint::black_box(std::hint::black_box(self).run());
        (cpu::thread_time() - t0).as_secs_f64() * 1e3
    }

    /// The kernel's mean CPU time, in ms, over one run on each CPU the
    /// process may use, all at once.
    ///
    /// # Panics
    ///
    /// Panics if a calibration thread panics.
    #[must_use]
    pub fn time_ms_every_cpu(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let times: Vec<f64> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..cpus).map(|_| scope.spawn(|| self.time_ms())).collect();
            runs.into_iter()
                .map(|run| run.join().expect("calibration thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// What scales a time to the reference host, given the kernel's CPU
/// time just before and just after it.
#[must_use]
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_MS / (before_ms + after_ms)
}

/// What scales a phase's times to the reference host, given the
/// kernel's readings over the phase.
///
/// # Panics
///
/// Panics if there are no readings.
#[must_use]
pub fn phase_factor(readings_ms: &[f64]) -> f64 {
    REFERENCE_MS / median(readings_ms)
}

/// A single-thread clock scaled to the reference host's speed.
#[derive(Debug, Clone)]
pub struct Speed {
    kernel: Kernel,
    /// The kernel's latest time, which brackets the next command.
    before_ms: f64,
}

impl Speed {
    /// Builds the kernel and takes the first calibration.
    #[must_use]
    pub fn new() -> Self {
        let kernel = Kernel::new();
        let before_ms = kernel.time_ms();
        Speed { kernel, before_ms }
    }

    /// Runs `f` on this thread and returns its result with its CPU time
    /// scaled by the calibrations either side of it. The one after it
    /// also serves the next call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let t0 = cpu::thread_time();
        let result = f();
        let raw = cpu::thread_time() - t0;
        let after_ms = self.kernel.time_ms();
        let scaled = raw.mul_f64(factor(self.before_ms, after_ms));
        self.before_ms = after_ms;
        (result, scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_same_on_every_run() {
        assert_eq!(Kernel::new().run(), Kernel::new().run());
        assert_eq!(Kernel::new().gates.len(), GATES);
    }

    #[test]
    fn a_host_at_half_speed_reads_half_the_time() {
        let slow = 2.0 * REFERENCE_MS;
        assert_eq!(factor(slow, slow), 0.5);
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // The slowdown is the mean of the two sides.
        assert_eq!(factor(REFERENCE_MS, 3.0 * REFERENCE_MS), 0.5);
        // A phase's slowdown is its median reading: one outlier is ignored.
        let readings = [slow, slow, 100.0 * slow, REFERENCE_MS, slow];
        assert_eq!(phase_factor(&readings), 0.5);
    }

    #[test]
    fn timing_returns_the_result_and_a_positive_time() {
        let mut speed = Speed::new();
        let (value, took) = speed.time(|| Kernel::new().run());
        assert_eq!(value, Kernel::new().run());
        assert!(took > Duration::ZERO);
        assert!(Kernel::new().time_ms_every_cpu() > 0.0);
    }
}
