//! Host-speed correction for the end-to-end times.
//!
//! On a shared machine the speed of the CPUs this benchmark gets drifts by
//! tens of percent over minutes, with no change to the code, and whole runs
//! of the fleet pipeline move with it (the same fleet iteration has been
//! seen to take 1.6x as long in one run as in another minutes earlier).
//! Every run therefore times a fixed probe between its iterations, and the
//! end-to-end times are reported rescaled to a host on which the probe
//! takes [`REFERENCE_PROBE_S`]: `reported = measured * REFERENCE_PROBE_S /
//! mean(probe)`. The probe is the benchmark's own code and calls nothing in
//! `hsdp`, so no change to the library can move it. The measured medians
//! and the probe times are printed to stderr next to the corrected values.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time the reported seconds are scaled to (about the probe's time
/// on a quiet 2-vCPU Xeon host).
pub const REFERENCE_PROBE_S: f64 = 0.040;

/// Times one run of the probe: fill 8 MiB with xorshift output, sort it,
/// and fold every seventh element into a `BTreeMap` — streaming writes,
/// comparison-heavy compute and pointer chasing, as the pipeline does.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut values: Vec<u64> = (0..1_000_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, v) in values.iter().enumerate().step_by(7) {
        *buckets.entry(v % 5_003).or_insert(0) += i as u64;
    }
    black_box((values, buckets));
    start.elapsed().as_secs_f64()
}

/// Probe timings collected over one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples.push(probe());
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean probe time over the run.
    pub fn mean_probe_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Multiplier from measured seconds to reference-host seconds.
    pub fn correction(&self) -> f64 {
        REFERENCE_PROBE_S / self.mean_probe_s()
    }
}
