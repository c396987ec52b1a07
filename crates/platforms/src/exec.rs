//! Per-query execution records: the bridge from the platform simulators to
//! the profiling pipeline and the analytical model.

use hsdp_core::category::Platform;
use hsdp_core::profile::QueryRecord;
use hsdp_core::request::RequestId;
use hsdp_core::units::Seconds;
use hsdp_rpc::decompose::{decompose, E2eDecomposition};
use hsdp_rpc::span::{Span, TraceId};
use hsdp_rpc::tracer::Tracer;

use crate::meter::{items_breakdown, CpuWork};

/// Everything recorded about one executed query: its Dapper-style span
/// tree and its labeled CPU work.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// The platform that ran the query.
    pub platform: Platform,
    /// Operation label (e.g. `"get"`, `"commit"`, `"group-aggregate"`).
    pub label: &'static str,
    /// The spans of this query's trace.
    pub spans: Vec<Span>,
    /// Labeled CPU work charged during execution.
    pub cpu_work: CpuWork,
    /// The traffic request this execution answered
    /// ([`RequestId::UNTAGGED`] for non-traffic work such as preloads).
    pub request: RequestId,
}

impl QueryExecution {
    /// The end-to-end CPU/IO/remote decomposition (the paper's Section 4
    /// rule applied to this trace).
    #[must_use]
    pub fn decomposition(&self) -> E2eDecomposition {
        decompose(&self.spans)
    }

    /// Converts to a model-ready [`QueryRecord`] with the given weight.
    ///
    /// The breakdown is rescaled to the *wall-clock* CPU time of the trace:
    /// worker-parallel platforms charge fleet cycles across many cores, but
    /// the end-to-end model consumes critical-path CPU time.
    #[must_use]
    pub fn to_query_record(&self, weight: f64) -> QueryRecord {
        let d = self.decomposition();
        let cpu = Seconds::new(d.cpu.as_secs_f64());
        QueryRecord {
            cpu,
            io: Seconds::new(d.io.as_secs_f64()),
            remote: Seconds::new(d.remote.as_secs_f64()),
            overlap: hsdp_core::accel::OverlapFactor::SYNCHRONOUS,
            breakdown: items_breakdown(&self.cpu_work).rescaled(cpu),
            weight,
        }
    }
}

/// Drains `tracer`'s finished spans and keeps `trace`'s, at exact
/// capacity: the span list a finished query stores. Copied, not shrunk in
/// place, for the reason [`crate::meter::WorkMeter::take`] gives.
pub(crate) fn trace_spans(tracer: &mut Tracer, trace: TraceId) -> Vec<Span> {
    let mut spans = tracer.take_spans();
    spans.retain(|s| s.trace == trace);
    spans.as_slice().to_vec()
}
