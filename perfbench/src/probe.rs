//! The host-speed probe: a fixed sparse matrix-vector workload, written
//! in the benchmark alone and timed before every kernel round.
//!
//! The reference host is shared. Its speed drifts by a quarter or more
//! over minutes as other tenants load it, and every kernel of a run
//! moves with it, mostly when either CPU is slowed, since the kernels
//! split their work over both. The probe splits its rows the same way.
//! No change to the library can move it, so the benchmark reports a
//! time at the reference host's speed: the run's mean time multiplied
//! by [`REFERENCE_MS`] over the probe's mean time across the same
//! stretch of the run. Means, not medians, because the host's slow
//! spells last seconds and a median counts them only once they fill
//! half the run; a mean counts them by their share on both sides. The
//! raw figures and the probe's mean are printed beside every result.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::Rng;

/// Rows of the probe matrix, and stored entries per row.
const ROWS: usize = 1 << 14;
const PER_ROW: usize = 24;
/// Sweeps over the matrix in one reading.
const SWEEPS: usize = 6;
/// Readings per probe.
const READINGS: usize = 3;
/// The probe's mean reading on the reference host (2 vCPUs, 2 threads),
/// in milliseconds: a time at reference speed is a raw time scaled by
/// this over the probe's mean.
pub const REFERENCE_MS: f64 = 2.6;

/// The probe's matrix and vector, built once per process from a fixed
/// seed, so every run and every commit times the same work.
pub struct Probe {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    threads: usize,
    /// Every reading taken, in ms.
    readings: Vec<f64>,
}

impl Probe {
    /// Build the probe. It runs on as many threads as the library does,
    /// so it spreads over the CPUs the kernels use.
    pub fn new() -> Probe {
        let threads = graphblas::parallel::threads();
        let mut rng = Rng::new(0x9E0B, 7);
        let cols = (0..ROWS * PER_ROW).map(|_| rng.below(ROWS as u64) as u32).collect();
        let vals = (0..ROWS * PER_ROW).map(|_| 0.5 + rng.unit()).collect();
        let x = (0..ROWS).map(|_| rng.unit()).collect();
        Probe { cols, vals, x, threads: threads.max(1), readings: Vec::new() }
    }

    /// `SWEEPS` products over rows `lo..hi`; returns a checksum.
    fn sweep(&self, lo: usize, hi: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..SWEEPS {
            for r in lo..hi {
                let mut acc = 0.0;
                for k in r * PER_ROW..(r + 1) * PER_ROW {
                    acc += self.vals[k] * self.x[self.cols[k] as usize];
                }
                total += black_box(acc);
            }
        }
        total
    }

    /// One reading: the rows split evenly over the threads; wall ms.
    fn reading(&self) -> f64 {
        let t = Instant::now();
        let chunk = ROWS.div_ceil(self.threads);
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..self.threads)
                .map(|k| s.spawn(move || self.sweep(k * chunk, ((k + 1) * chunk).min(ROWS))))
                .collect();
            black_box(self.sweep(0, chunk.min(ROWS)));
            for h in helpers {
                black_box(h.join().expect("probe thread"));
            }
        });
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Take one probe (`READINGS` readings).
    pub fn take(&mut self) {
        for _ in 0..READINGS {
            let r = self.reading();
            self.readings.push(r);
        }
    }

    /// The readings taken so far: their mean in ms and the factor that
    /// scales a raw time of the same stretch of the run to reference
    /// speed.
    pub fn stretch(&self) -> Stretch {
        let r = &self.readings;
        let mean_ms = r.iter().sum::<f64>() / r.len().max(1) as f64;
        let scale = if mean_ms > 0.0 { REFERENCE_MS / mean_ms } else { 1.0 };
        Stretch { mean_ms, readings: r.len(), scale }
    }
}

/// The probe over one stretch of a run.
#[derive(Clone, Copy)]
pub struct Stretch {
    pub mean_ms: f64,
    pub readings: usize,
    /// `REFERENCE_MS / mean_ms`.
    pub scale: f64,
}
