//! The Table 8 model-validation experiment, reproduced in software.
//!
//! The paper chains a protobuf-serialization accelerator into a SHA3
//! accelerator on a RISC-V SoC and compares the measured chained time to the
//! Equations 9–10 estimate (6.1% difference). This module runs the same
//! experiment shape with our own primitives:
//!
//! 1. **Paper replay** — pushes the published RTL measurements through the
//!    chained model and reproduces Table 8's arithmetic exactly.
//! 2. **Software validation** — serializes a HyperProtoBench-style message
//!    corpus and SHA3-hashes the bytes, first sequentially (measuring the
//!    per-stage `t_sub`s), then as a real two-thread chained pipeline, and
//!    compares the measured pipeline wall time to the model estimate.

use std::time::Instant;

use hsdp_core::chained::chain_estimate;
use hsdp_core::paper::{table8_stages, Table8, TABLE8};
use hsdp_rng::StdRng;
use hsdp_taxes::sha3::Sha3_256;
use hsdp_workload::proto_corpus;

use crate::pipeline::{run_chained, run_sequential, FnStage, PipelineStage};

/// The paper-replay result: Table 8's arithmetic recomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperReplay {
    /// The published inputs.
    pub inputs: Table8,
    /// The chained time our Equations 9–12 produce (microseconds).
    pub recomputed_modeled_us: f64,
    /// Relative difference of the recomputed model vs the paper's measured
    /// chained execution time.
    pub model_vs_measured: f64,
}

/// Replays the published Table 8 numbers through the chained model.
#[must_use]
pub fn paper_replay() -> PaperReplay {
    let t8 = TABLE8;
    // audit: allow(panic, the Table 8 chain has two stages)
    let est = chain_estimate(&table8_stages()).expect("two stages");
    // Eq. 9: t'_cpu = t_chnd + t_nacc (no other accelerated components).
    let modeled_us = est.chained_time.as_micros() + t8.nacc_cpu_us;
    PaperReplay {
        inputs: t8,
        recomputed_modeled_us: modeled_us,
        model_vs_measured: (modeled_us - t8.measured_chained_us) / t8.measured_chained_us,
    }
}

/// The software-pipeline validation result (all times in microseconds of
/// real wall clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareValidation {
    /// Messages processed.
    pub messages: usize,
    /// Total serialization CPU time (`t_sub` of stage 1).
    pub serialize_us: f64,
    /// Total SHA3 CPU time (`t_sub` of stage 2).
    pub sha3_us: f64,
    /// Measured sequential (unchained) wall time.
    pub sequential_us: f64,
    /// Measured chained-pipeline wall time.
    pub chained_measured_us: f64,
    /// Model estimate for the chained pipeline
    /// (`max setup ≈ 0` software threads + slowest stage total + fill).
    pub chained_modeled_us: f64,
    /// Relative difference between the model and the measurement.
    pub model_vs_measured: f64,
}

fn serialize_stage(messages: Vec<hsdp_taxes::protowire::Message>) -> Box<dyn PipelineStage> {
    let mut iter = messages.into_iter();
    Box::new(FnStage::new("proto_serialize", move |_trigger: Vec<u8>| {
        iter.next().map(|m| m.encode_to_vec()).unwrap_or_default()
    }))
}

fn sha3_stage() -> Box<dyn PipelineStage> {
    Box::new(FnStage::new("sha3_256", |bytes: Vec<u8>| {
        Sha3_256::digest(&bytes).to_vec()
    }))
}

/// Runs the software chained-validation experiment over `messages`
/// fleet-representative protobuf messages.
///
/// # Panics
///
/// Panics if `messages` is zero.
#[must_use]
pub fn software_validation(messages: usize, seed: u64) -> SoftwareValidation {
    assert!(messages > 0, "need at least one message");
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = proto_corpus::corpus(messages, &mut rng);

    // Per-stage t_sub measurement (the paper's non-accelerated synchronous
    // benchmark).
    // audit: allow(determinism, software-validation benchmark: times real host execution of the stages by design; reported as measurements, not simulated artifacts)
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = corpus.iter().map(|m| m.encode_to_vec()).collect();
    let serialize_us = start.elapsed().as_secs_f64() * 1e6;
    // audit: allow(determinism, software-validation benchmark: times real host execution of the stages by design; reported as measurements, not simulated artifacts)
    let start = Instant::now();
    for bytes in &encoded {
        let _ = Sha3_256::digest(bytes);
    }
    let sha3_us = start.elapsed().as_secs_f64() * 1e6;

    // Sequential (unchained) end-to-end.
    let triggers: Vec<Vec<u8>> = vec![Vec::new(); messages];
    let sequential = run_sequential(
        vec![serialize_stage(corpus.clone()), sha3_stage()],
        triggers.clone(),
    );
    let sequential_us = sequential.wall.as_secs_f64() * 1e6;

    // Chained pipeline.
    let chained = run_chained(vec![serialize_stage(corpus), sha3_stage()], triggers);
    let chained_measured_us = chained.wall.as_secs_f64() * 1e6;

    // Eq. 10 estimate: software threads have negligible setup; the pipeline
    // is bounded by the slowest stage's total plus one fill of the other.
    // On a single-core host the stages time-slice instead of overlapping,
    // so the model degenerates to the serial sum — the equivalent of a
    // chained accelerator complex with only one execution unit.
    // audit: allow(determinism, Eq. 10 model selection needs the real core count of the measurement host; it qualifies the measurement, not a simulated artifact)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chained_modeled_us = if cores >= 2 {
        let slowest = serialize_us.max(sha3_us);
        let fill = (serialize_us.min(sha3_us)) / messages as f64;
        slowest + fill
    } else {
        serialize_us + sha3_us
    };

    SoftwareValidation {
        messages,
        serialize_us,
        sha3_us,
        sequential_us,
        chained_measured_us,
        chained_modeled_us,
        model_vs_measured: (chained_modeled_us - chained_measured_us) / chained_measured_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_replay_reproduces_table8() {
        let replay = paper_replay();
        // The recomputed model matches the paper's 6,459.3us within rounding.
        assert!(
            (replay.recomputed_modeled_us - replay.inputs.modeled_chained_us).abs() < 0.5,
            "recomputed {}",
            replay.recomputed_modeled_us
        );
        // And therefore the published 6.1% difference.
        assert!((replay.model_vs_measured - 0.061).abs() < 0.005);
    }

    #[test]
    fn software_validation_invariants() {
        // Only host-independent facts are asserted; how the chained and
        // modeled times compare depends on host speed and core count, so
        // `hsdp bench` reports those numbers instead.
        let v = software_validation(400, 1234);
        assert_eq!(v.messages, 400);
        // Both stages did real work.
        assert!(v.serialize_us > 0.0 && v.sha3_us > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn zero_messages_panics() {
        let _ = software_validation(0, 1);
    }
}
