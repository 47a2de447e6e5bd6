//! Host-speed calibration.
//!
//! On a shared host the same code runs up to ~40% slower for seconds at a
//! time (another tenant on the physical core: thread CPU time slows just
//! like wall time), so two runs of the same code can differ by more than
//! any bound worth gating on. The end-to-end run therefore times a fixed
//! kernel between its units of work and scales every host timing it
//! reports by the run's speed factor, `NOMINAL_S` ÷ the median kernel
//! time. The kernel is the benchmark's own code, so no change to the
//! program's crates can speed it up or slow it down. Raw timings are
//! printed to standard error next to the normalized ones.

use std::hint::black_box;
use std::time::Instant;

/// What one calibration round takes at the reference host speed (an
/// uncontended 2.1 GHz x86-64 core). Normalized times are in seconds at
/// that speed.
pub const NOMINAL_S: f64 = 0.005;

const DATA: usize = 1 << 14;
const TABLE: usize = 1 << 16;
const ROUNDS: usize = 12;

/// Scratch buffers for the calibration kernel, allocated once, and the
/// kernel times sampled so far.
pub struct Calibrator {
    data: Vec<u64>,
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            data: vec![0; DATA],
            table: vec![0; TABLE],
            samples: Vec::new(),
        }
    }

    /// Host seconds of `rounds` rounds of fixed, allocation-free work on
    /// buffers that fit in the core's caches: random fill and sort
    /// (branches), square roots and logs (floating point) and scattered
    /// table updates.
    fn run(&mut self, rounds: usize) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0.0f64;
        let mut h = 0u64;
        for _ in 0..rounds {
            for v in self.data.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = x;
            }
            self.data.sort_unstable();
            for (i, &k) in self.data.iter().enumerate() {
                acc += ((k >> 11) as f64).sqrt() * ((i + 1) as f64).ln();
                let slot = (k as usize) & (TABLE - 1);
                self.table[slot] = self.table[slot].wrapping_add(k ^ h);
                h = h.rotate_left(5) ^ self.table[(k >> 20) as usize & (TABLE - 1)];
            }
        }
        black_box((acc, h));
        start.elapsed().as_secs_f64()
    }

    /// Times one calibration sample and keeps it. One untimed round first
    /// brings the buffers back into cache, so how much of the cache the
    /// program's own work evicted does not leak into the sample.
    pub fn sample(&mut self) {
        self.run(1);
        let t = self.run(ROUNDS);
        self.samples.push(t);
    }

    /// The run's speed factor: multiply a measured host time by it to get
    /// seconds at the reference speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_S / crate::metrics::median(&self.samples)
    }
}
