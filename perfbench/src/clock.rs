//! The benchmark's clock: CPU time of the whole process.
//!
//! On a shared virtual machine the hypervisor can take a virtual CPU away
//! for a while; wall time then counts time in which nothing of the program
//! ran, and that time varies with the neighbours' load, not with the code.
//! The kernel leaves such stolen time out of a process's CPU time, so the
//! end-to-end timings read this clock. It sums every thread, including
//! threads that have already exited, so the sharded engine's workers count
//! too. Wall time is reported beside it.

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, all threads included.
///
/// # Panics
///
/// Panics if the clock cannot be read, which on Linux does not happen for
/// this clock id.
pub fn process_cpu_seconds() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points to a live, properly aligned `Timespec` laid out
    // like the C struct on 64-bit Linux; the clock id is a valid constant.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = process_cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > start);
    }
}
