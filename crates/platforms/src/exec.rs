//! Per-query execution records, and the one recorder every engine writes
//! them through: the bridge from the platform simulators to the profiling
//! pipeline and the analytical model.

use hsdp_core::category::Platform;
use hsdp_core::profile::QueryRecord;
use hsdp_core::request::RequestId;
use hsdp_core::units::Seconds;
use hsdp_rpc::decompose::{decompose, E2eDecomposition};
use hsdp_rpc::span::{Span, SpanKind, TraceId};
use hsdp_rpc::tracer::{OpenSpan, Tracer};
use hsdp_simcore::time::{SimDuration, SimTime};
use hsdp_telemetry::MetricsRegistry;

use crate::meter::{items_breakdown, CpuCounters, CpuWork, WorkMeter};
use crate::runner::platform_key;

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

    /// Converts to a model-ready [`QueryRecord`] with the given weight,
    /// given this execution's [`QueryExecution::decomposition`].
    ///
    /// The breakdown is rescaled to the *wall-clock* CPU time of the trace:
    /// worker-parallel platforms charge fleet cycles across many cores, but
    /// the end-to-end model consumes critical-path CPU time.
    #[must_use]
    pub fn to_query_record(&self, d: &E2eDecomposition, weight: f64) -> QueryRecord {
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

/// The recording protocol every engine component shares: the simulated
/// clock, the tracer, the telemetry registry with the CPU not yet added to
/// it, and the request id stamped on each execution. A query opens its
/// trace here, lays its child spans in its engine's own order, and ends in
/// the one query tail, `finish`.
#[derive(Debug)]
pub struct QueryRecorder {
    /// The simulated clock, where the next span starts.
    pub(crate) clock: SimTime,
    /// Allocates trace and span ids and keeps finished spans until the
    /// query tail takes them.
    pub(crate) tracer: Tracer,
    /// Disabled until [`QueryRecorder::set_telemetry`] turns it on.
    pub(crate) telemetry: MetricsRegistry,
    /// CPU charged since the registry was set, added to it when taken.
    cpu: CpuCounters,
    /// The request stamped on each execution and its latency exemplar.
    pub(crate) request: RequestId,
}

/// A query whose trace is open: its `Container` root and the clock it
/// opened at.
#[derive(Debug)]
pub(crate) struct OpenQuery {
    pub(crate) root: OpenSpan,
    opened: SimTime,
}

impl Default for QueryRecorder {
    /// The same recorder as `QueryRecorder::new`: telemetry off.
    fn default() -> Self {
        Self::new()
    }
}

impl QueryRecorder {
    /// A recorder at time zero, with telemetry off and no request set.
    #[must_use]
    pub(crate) fn new() -> Self {
        QueryRecorder {
            clock: SimTime::ZERO,
            tracer: Tracer::new(),
            telemetry: MetricsRegistry::disabled(),
            cpu: CpuCounters::default(),
            request: RequestId::UNTAGGED,
        }
    }

    /// Sets the request identity stamped onto subsequent query executions
    /// and their latency exemplars. The runner calls this before each
    /// traffic query; [`RequestId::UNTAGGED`] marks background work.
    pub fn set_request(&mut self, request: RequestId) {
        self.request = request;
    }

    /// Replaces the telemetry registry (pass [`MetricsRegistry::new`] to
    /// turn recording on; it is off by default). CPU charged under the
    /// previous registry and not yet taken is discarded with it.
    pub fn set_telemetry(&mut self, registry: MetricsRegistry) {
        self.telemetry = registry;
        self.cpu = CpuCounters::default();
    }

    /// Takes the telemetry collected so far, leaving recording disabled.
    /// The CPU charged since the registry was set is added to its `"cpu"`
    /// counters here, once per `(category, leaf)`.
    pub fn take_telemetry(&mut self) -> MetricsRegistry {
        self.cpu.drain_into(&mut self.telemetry);
        std::mem::replace(&mut self.telemetry, MetricsRegistry::disabled())
    }

    /// Spans still open in the tracer — zero between queries; asserted at
    /// end-of-run by the fleet driver.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.tracer.open_count()
    }

    /// The simulated clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Opens a query's trace: a fresh trace id and its `Container` root
    /// `name`, started at the clock.
    pub(crate) fn open(&mut self, name: &'static str) -> OpenQuery {
        let trace = self.tracer.new_trace();
        OpenQuery {
            root: self
                .tracer
                .start(trace, None, name, SpanKind::Container, self.clock),
            opened: self.clock,
        }
    }

    /// Lays a `kind` child of `query`'s root from the clock, `len` long,
    /// and moves the clock to its end.
    pub(crate) fn lay(
        &mut self,
        query: &OpenQuery,
        name: &'static str,
        kind: SpanKind,
        len: SimDuration,
    ) {
        let root = query.root;
        let span = self
            .tracer
            .start(root.trace(), Some(root.id()), name, kind, self.clock);
        self.clock += len;
        self.tracer.finish(span, self.clock);
    }

    /// The query tail, once the engine has laid its child spans: closes the
    /// root at the clock, counts `(<platform>, "queries", label)`, records
    /// the request-tagged `query_latency_ns` from open to close, adds the
    /// meter's items to the CPU counters, and packages the execution with
    /// the trace's spans.
    pub(crate) fn finish(
        &mut self,
        platform: Platform,
        query: OpenQuery,
        mut meter: WorkMeter,
        label: &'static str,
    ) -> QueryExecution {
        self.tracer.finish(query.root, self.clock);
        let subsystem = platform_key(platform);
        self.telemetry.counter_add((subsystem, "queries", label), 1);
        self.telemetry.record_duration_tagged(
            (subsystem, "query_latency_ns", label),
            self.clock.since(query.opened),
            self.request,
        );
        self.cpu.add(&self.telemetry, meter.items());
        QueryExecution {
            platform,
            label,
            spans: trace_spans(&mut self.tracer, query.root.trace()),
            cpu_work: meter.take(),
            request: self.request,
        }
    }

    /// Runs `op` on `engine` as a warmup op whose record no artifact reads:
    /// its state, clock and trace and span ids advance exactly as a
    /// recorded op's, but the tracer drops its spans and its meter keeps
    /// only totals, unless telemetry is recording, since the CPU counters
    /// fold items. `recorder` picks out the engine's recorder.
    pub(crate) fn warmup<E>(
        engine: &mut E,
        recorder: impl Fn(&mut E) -> &mut QueryRecorder,
        op: impl FnOnce(&mut E, WorkMeter) -> QueryExecution,
    ) {
        let meter = {
            let recorder = recorder(engine);
            recorder.tracer.set_discard(true);
            if recorder.telemetry.is_enabled() {
                WorkMeter::new()
            } else {
                WorkMeter::totals_only()
            }
        };
        op(engine, meter);
        recorder(engine).tracer.set_discard(false);
    }
}

/// Drains `tracer`'s finished spans and keeps `trace`'s, at exact
/// capacity: the span list a finished query stores. Copied, not shrunk in
/// place, for the reason [`crate::meter::WorkMeter::take`] gives.
fn trace_spans(tracer: &mut Tracer, trace: TraceId) -> Vec<Span> {
    let mut spans = tracer.take_spans();
    spans.retain(|s| s.trace == trace);
    spans.as_slice().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanner::Spanner;

    #[test]
    fn second_set_telemetry_discards_cpu_not_yet_added() {
        let mut s = Spanner::new(7);
        s.recorder.set_telemetry(MetricsRegistry::new());
        s.commit(b"k".to_vec(), b"v".to_vec());
        s.recorder.set_telemetry(MetricsRegistry::new());
        assert_eq!(s.recorder.take_telemetry().counter_subsystem_sum("cpu"), 0);
        // A fresh registry then sees exactly the next query's CPU.
        s.recorder.set_telemetry(MetricsRegistry::new());
        let exec = s.read(b"k");
        let metered: u64 = exec.cpu_work.iter().map(|i| i.time.as_nanos()).sum();
        assert_eq!(
            s.recorder.take_telemetry().counter_subsystem_sum("cpu"),
            metered
        );
    }

    #[test]
    fn recorder_default_is_new() {
        let (mut default, mut new) = (QueryRecorder::default(), QueryRecorder::new());
        assert_eq!(format!("{default:?}"), format!("{new:?}"));
        assert!(!default.take_telemetry().is_enabled(), "telemetry off");
        assert_eq!(default.take_telemetry(), new.take_telemetry());
    }
}
