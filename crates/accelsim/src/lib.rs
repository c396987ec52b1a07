//! # hsdp-accelsim
//!
//! The executable side of the sea-of-accelerators study (Section 6.3–6.4):
//!
//! - [`pipeline`] — a real multi-threaded chained pipeline (stages on
//!   worker threads connected by FIFOs), the software analogue of chained
//!   accelerators.
//! - [`validate`] — the Table 8 experiment: replaying the paper's RTL
//!   measurements through the model, and measuring our own
//!   protobuf-serialize → SHA3 pipeline against the model's estimate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pipeline;
pub mod validate;

pub use pipeline::{run_chained, run_sequential, PipelineRun, Stage};
pub use validate::{paper_replay, software_validation, PaperReplay, SoftwareValidation};
