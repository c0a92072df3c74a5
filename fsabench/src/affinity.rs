//! Pins the calling thread to one CPU.
//!
//! A thread inherits the CPUs it may run on from the thread that starts
//! it, so pinning the main thread before a workload starts its server
//! keeps the client, the server and the benchmark's calibration on one
//! CPU. A request then hands over to a thread that is woken on the same
//! CPU, instead of to another CPU that may be idle and, on a virtual
//! machine, have to be woken by its host first: a wait that depends on
//! the host's load and that the calibration does not see.

#![allow(unsafe_code)]

/// Bytes of a `cpu_set_t`: 1024 CPUs.
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Restricts the calling thread to the highest-numbered CPU it may run
/// on now, and returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_may_run_on_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinned");
            let status = std::fs::read_to_string("/proc/thread-self/status").expect("status");
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .expect("Cpus_allowed_list");
            assert_eq!(allowed.trim(), cpu.to_string());
        })
        .join()
        .expect("the pinned thread");
    }
}
