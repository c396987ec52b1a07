//! A real multi-threaded chained pipeline: stages connected by FIFOs, each
//! on its own worker thread — the software analogue of the paper's chained
//! accelerators streaming results to one another without core coordination
//! (Section 6.3).

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// One pipeline stage: transforms one byte payload into the next.
pub type Stage = Box<dyn FnMut(Vec<u8>) -> Vec<u8> + Send>;

/// The result of running a pipeline over a batch of items.
#[derive(Debug)]
pub struct PipelineRun {
    /// Final outputs, in input order.
    pub outputs: Vec<Vec<u8>>,
    /// Total wall-clock time.
    pub wall: Duration,
}

/// Runs items through the stages sequentially on the calling thread — the
/// unchained, core-coordinated baseline.
pub fn run_sequential(stages: Vec<Stage>, inputs: Vec<Vec<u8>>) -> PipelineRun {
    let mut stages = stages;
    // audit: allow(determinism, hardware-validation experiment: measures real host wall time by design; never feeds simulated fleet artifacts)
    let start = Instant::now();
    let outputs = inputs
        .into_iter()
        .map(|mut item| {
            for stage in &mut stages {
                item = stage(item);
            }
            item
        })
        .collect();
    PipelineRun {
        outputs,
        wall: start.elapsed(),
    }
}

/// Runs items through the stages as a chained pipeline: one thread per
/// stage, connected by FIFO channels. While stage `i` processes item `k`,
/// stage `i+1` processes item `k-1` — the paper's chained execution model.
pub fn run_chained(stages: Vec<Stage>, inputs: Vec<Vec<u8>>) -> PipelineRun {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    let n = inputs.len();
    // audit: allow(determinism, hardware-validation experiment: measures real host wall time by design; never feeds simulated fleet artifacts)
    let start = Instant::now();

    let (first_tx, mut prev_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let mut handles = Vec::new();
    for mut stage in stages {
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(64);
        let input = prev_rx;
        handles.push(thread::spawn(move || {
            while let Ok(item) = input.recv() {
                let out = stage(item);
                if tx.send(out).is_err() {
                    break;
                }
            }
        }));
        prev_rx = rx;
    }

    // Feed inputs from this thread (the "core" only enqueues work).
    let feeder = thread::spawn(move || {
        for item in inputs {
            if first_tx.send(item).is_err() {
                break;
            }
        }
    });

    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        // audit: allow(panic, the feeder sends exactly n items and every stage forwards each one)
        outputs.push(prev_rx.recv().expect("pipeline produced all items"));
    }
    // audit: allow(panic, join only fails if the worker itself panicked; surfacing that is correct)
    feeder.join().expect("feeder thread");
    for handle in handles {
        // audit: allow(panic, join only fails if the worker itself panicked; surfacing that is correct)
        handle.join().expect("stage thread");
    }
    PipelineRun {
        outputs,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubler() -> Stage {
        Box::new(|mut v: Vec<u8>| {
            let copy = v.clone();
            v.extend(copy);
            v
        })
    }

    fn len_tag() -> Stage {
        Box::new(|v: Vec<u8>| (v.len() as u64).to_le_bytes().to_vec())
    }

    #[test]
    fn sequential_and_chained_agree() {
        let inputs: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; (i as usize % 7) + 1]).collect();
        let seq = run_sequential(vec![doubler(), len_tag()], inputs.clone());
        let chained = run_chained(vec![doubler(), len_tag()], inputs);
        assert_eq!(seq.outputs, chained.outputs);
        assert_eq!(seq.outputs.len(), 50);
    }

    #[test]
    fn order_is_preserved() {
        let inputs: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
        let run = run_chained(vec![Box::new(|v: Vec<u8>| v)], inputs.clone());
        assert_eq!(run.outputs, inputs);
    }

    #[test]
    fn empty_input_is_fine() {
        let run = run_chained(vec![doubler()], vec![]);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn chained_overlaps_stage_work() {
        // Two stages that each burn CPU, chained on their own threads: the
        // outputs equal the sequential run's and carry both stages' marks.
        // Whether chaining beats sequential depends on host cores and load,
        // so wall-clock is left to `hsdp bench`.
        let busy = || -> Stage {
            Box::new(|v: Vec<u8>| {
                let mut acc = 0u64;
                for i in 0..800_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                let mut out = v;
                out.push((acc & 0xff) as u8);
                out
            })
        };
        let inputs: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i]).collect();
        let seq = run_sequential(vec![busy(), busy()], inputs.clone());
        let chained = run_chained(vec![busy(), busy()], inputs);
        assert_eq!(seq.outputs, chained.outputs);
        assert!(chained.outputs.iter().all(|out| out.len() == 3));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = run_chained(vec![], vec![vec![1]]);
    }
}
