//! Facts about the machine a run measured on.
//!
//! The host's speed can swing by tens of percent in phases lasting
//! seconds. A fixed calibration loop timed before and after each run
//! makes a run taken on a slow phase visible as one.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one calibration loop.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Loops per calibration; the median is reported.
const CALIBRATION_REPS: usize = 5;

/// Threads the standard library says the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rate of a fixed integer loop (a multiply-xorshift chain), in
/// millions of iterations per second: the median of a few loops.
pub fn calibration_mops() -> f64 {
    let rates: Vec<f64> = (0..CALIBRATION_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
            for i in 0..CALIBRATION_ITERS {
                x = (x ^ (x >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
            }
            black_box(x);
            CALIBRATION_ITERS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    crate::stats::median(&rates).expect("at least one calibration loop")
}
