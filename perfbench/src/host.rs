//! The host-speed reference.
//!
//! A shared host's speed drifts with other tenants' load. On the 2-vCPU VM
//! this benchmark was tuned on, the host switches between a typical state
//! and a fast one about 1.35× quicker, and the fast state now and then
//! holds for minutes: in ten-seed sets where it took over part of the
//! runs, raw closed-loop figures spread by up to 0.26 (IQR ÷ median). A
//! fixed plain-Rust kernel with the relocation scan's shape — for every
//! row, the smallest of `K` dot products against shared rows — is timed
//! between the rounds of a run; the closed-loop compute figures of a round
//! (batch run times, churn edit rates and times, recovery) are scaled by
//! `REF_NOMINAL_MS / mean of the reference times before and after it`, so
//! they read as figures on a host where the reference takes
//! [`REF_NOMINAL_MS`]. Each run prints the raw figures beside them.
//!
//! The kernel calls no library code and uses no wide vector registers, and
//! it runs in its own slice between phases, never alongside them: a library
//! change moves it only through state that outlives a phase, such as cache
//! contents, which the median of its repetitions discards. Open-loop
//! latencies, the ladder's crossing rate and set-up time are not scaled.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;

/// Rows, row width and shared rows of the reference scan: the KDD'99
/// analogue's batch scan at n = 20,000, m = 42, k = 23.
const ROWS: usize = 20_000;
const M: usize = 42;
const K: usize = 23;
/// Reference timings per measurement; their median is used.
const REPS: usize = 3;
/// The reference kernel's time the scaled figures are expressed against.
pub const REF_NOMINAL_MS: f64 = 11.0;

/// The reference kernel and its fixed input.
pub struct HostRef {
    rows: Vec<f64>,
    centers: Vec<f64>,
}

impl Default for HostRef {
    fn default() -> Self {
        // A fixed seed: the reference must do identical work in every run.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut draw = |n: usize| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Self {
            rows: draw(ROWS * M),
            centers: draw(K * M),
        }
    }
}

impl HostRef {
    fn scan(&self) -> f64 {
        let mut acc = 0.0;
        for row in self.rows.chunks_exact(M) {
            let mut best = f64::INFINITY;
            for c in self.centers.chunks_exact(M) {
                let d: f64 = row.iter().zip(c).map(|(a, b)| a * b).sum();
                best = best.min(d);
            }
            acc += best;
        }
        acc
    }

    /// Median time of [`REPS`] reference scans, ms.
    pub fn time_ms(&self) -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.scan());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_time_is_positive() {
        let r = super::HostRef::default();
        assert!(r.time_ms() > 0.0);
    }
}
