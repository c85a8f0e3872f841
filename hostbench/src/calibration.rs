//! Host-speed calibration.
//!
//! On a shared virtual host the same code runs up to about 1.6x slower for
//! stretches of seconds to minutes, one vCPU at a time, and only code that
//! allocates and walks small heap structures slows: a dependent
//! arithmetic chain or a DRAM-bound pointer chase stays flat. This kernel
//! is that kind of code (string keys in a `BTreeMap`, small `Vec`
//! values), fixed inside the benchmark so that no change to the program
//! can move it. Run right after each timed iteration on as many threads
//! as did the iteration's work, its time tracks the host's speed for that
//! iteration, and the ratio of the two is what the end-to-end metrics
//! report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Entries the kernel inserts: 1.4 to 2.2 ms on the 2.1 GHz Xeon the
/// benchmark was written on.
const ENTRIES: u64 = 4_000;

fn kernel(entries: u64) -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..entries {
        let key = format!("k{}", i.wrapping_mul(2_654_435_761) % 100_003);
        map.insert(key, vec![i; 4]);
    }
    map.values().map(|v| v[0]).sum()
}

/// Wall time of one run of the kernel, ms.
fn once_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ENTRIES)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Calibration time on `threads` threads at once: one run of the kernel
/// each, on this thread when `threads` is 1. With two or more the
/// scheduler spreads them over CPUs as it spreads lane workers, and the
/// result is the harmonic mean of their times, the time that matches
/// their summed speed: work shared out dynamically finishes at the rate
/// of all the CPUs together.
pub fn run_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return once_ms();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(once_ms)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("calibration thread panicked"))
            .collect()
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Median of `runs` calibration times on `threads` threads, ms.
pub fn median_ms(threads: usize, runs: usize) -> f64 {
    crate::median((0..runs).map(|_| run_ms(threads)).collect())
}
