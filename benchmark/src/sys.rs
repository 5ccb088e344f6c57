//! Process-level readings from `/proc` and the one scheduling call the
//! benchmark makes (Linux only, like the rest of its timing assumptions).

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU-set words the affinity calls exchange (1024 CPUs).
const MASK_WORDS: usize = 16;

// Declared here because the benchmark links no `libc` crate; `std`
// already links the C library these live in.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask is MASK_WORDS * 8 writable bytes, as passed; pid 0
    // is the calling thread.
    let got = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    (0..MASK_WORDS * 64)
        .filter(|c| got >= 0 && mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and every thread started from here on,
/// to the last CPU it may use (the first one takes most interrupts).
/// Where the kernel refuses, the benchmark runs unpinned.
pub fn pin_to_one_cpu() {
    if let Some(cpu) = allowed_cpus().pop() {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: reads MASK_WORDS * 8 bytes of plain data; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_threads_inherit_it() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            assert!(!before.is_empty());
            pin_to_one_cpu();
            assert_eq!(allowed_cpus(), [*before.last().unwrap()]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, [*before.last().unwrap()]);
        })
        .join()
        .unwrap();
    }
}
