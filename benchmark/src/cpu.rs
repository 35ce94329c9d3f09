//! Clocks that leave out CPU time the hypervisor steals.
//!
//! The benchmark runs on a shared virtual machine whose host can take a
//! third of the guest's CPU time (`steal` in `/proc/stat`), and that share
//! moves from minute to minute. Wall-clock figures then move with other
//! tenants' load rather than with the program. The kernel accounts stolen
//! time apart from task run time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), so:
//!
//! - a single thread's CPU time (`CLOCK_THREAD_CPUTIME_ID`) is what its
//!   computation takes with the CPU to itself;
//! - for several threads, the share of wanted CPU time that was stolen
//!   over an interval (`/proc/stat`) scales wall time back to the time
//!   the guest actually had.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run so far, stolen time excluded.
///
/// Read through `clock_gettime`, which brings the running thread's
/// account up to date; `/proc/thread-self/schedstat` only moves at
/// scheduler ticks.
///
/// # Panics
///
/// Panics if the clock cannot be read (not on Linux).
#[must_use]
pub fn thread_time() -> Duration {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the C library defines.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    let secs = u64::try_from(now.tv_sec).expect("CPU time is non-negative");
    let nanos = u32::try_from(now.tv_nsec).expect("tv_nsec is below 1e9");
    Duration::new(secs, nanos)
}

/// Machine-wide CPU time counters, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    busy: u64,
    steal: u64,
}

impl Ticks {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    ///
    /// # Panics
    ///
    /// Panics where `/proc/stat` is missing or malformed.
    #[must_use]
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
        parse_stat(&text).expect("aggregate cpu line in /proc/stat")
    }

    /// Share of the CPU time wanted since `before` that the host stole.
    #[must_use]
    pub fn steal_share_since(&self, before: &Ticks) -> f64 {
        let busy = self.busy.saturating_sub(before.busy);
        let steal = self.steal.saturating_sub(before.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Parses the aggregate `cpu` line: busy = user + nice + system + irq +
/// softirq; idle and iowait are not wanted CPU time.
#[must_use]
pub fn parse_stat(text: &str) -> Option<Ticks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let field = |i: usize| f.get(i).copied().unwrap_or(0);
    Some(Ticks {
        busy: field(0) + field(1) + field(2) + field(5) + field(6),
        steal: field(7),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_and_the_steal_share() {
        let before = parse_stat("cpu  100 0 20 500 5 0 10 30 0 0\ncpu0 1 2 3\n").unwrap();
        let after = parse_stat("cpu  160 0 30 520 9 0 10 70 0 0\n").unwrap();
        // 70 busy ticks and 40 stolen ones since.
        assert!((after.steal_share_since(&before) - 40.0 / 110.0).abs() < 1e-12);
        assert_eq!(before.steal_share_since(&before), 0.0);
        assert!(parse_stat("intr 1 2 3\n").is_none());
    }

    #[test]
    fn thread_time_grows_with_work_on_this_thread_only() {
        let t0 = thread_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let busy = thread_time() - t0;
        assert!(busy > Duration::from_millis(1), "{busy:?}");
        // Finer than the scheduler tick (4 ms here): a little work moves it.
        let a = thread_time();
        for i in 0..100_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_time();
        assert!(b > a && b - a < Duration::from_millis(4), "{:?}", b - a);
        let t1 = thread_time();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_time() - t1 < Duration::from_millis(20));
    }
}
