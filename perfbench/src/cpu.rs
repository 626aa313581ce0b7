//! CPU time of this process and of its children.
//!
//! The benchmark times its operations in CPU time, not wall time. The
//! guest it was tuned on loses between 1% and over 50% of each vCPU's
//! time to the hypervisor (steal), in phases that last minutes, and the
//! wall time of a two-thread batch follows the steal. The kernel leaves
//! stolen time out of a task's CPU time, so these clocks count only the
//! time the program itself ran.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks below assume the 64-bit Linux C ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two `timeval`s, then fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn timeval(t: &Timeval) -> Duration {
    Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000)
}

/// CPU time (user and system) of every thread of this process so far,
/// threads that have exited included.
pub fn process() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// CPU time (user and system) of every child process waited for so far,
/// with the descendants each of them waited for.
pub fn children() -> Duration {
    let mut u = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    timeval(&u.utime) + timeval(&u.stime)
}

/// CPU time of this process and of its waited-for children together, for
/// work that runs child processes (gcc, the harness).
pub fn total() -> Duration {
    process() + children()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_time_grows_with_work_and_children_with_a_child() {
        let before = process();
        let mut x = 1u64;
        for _ in 0..5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7));
        }
        assert!(process() > before);

        let before = children();
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("sh runs");
        assert!(status.success());
        assert!(children() > before);
    }
}
