//! Chrome trace-event export.
//!
//! Serializes `hsdp_rpc` spans into the Chrome trace-event JSON format
//! (the "JSON Array Format" with an `traceEvents` wrapper object), which
//! Perfetto and `chrome://tracing` load directly. Each platform becomes a
//! "process" and each shard a "thread", so the fleet's per-shard span
//! streams land in separate, labeled swimlanes.
//!
//! Timestamps: trace-event `ts`/`dur` are microseconds; simulator spans are
//! integer nanoseconds. Values are emitted as fixed-point decimal micros
//! (`1.500` for 1500 ns), so no float formatting is involved and the output
//! is byte-deterministic. Every number is written digit by digit into one
//! buffer, reserved once from the span count: the export makes no
//! `core::fmt` call.

use hsdp_rpc::span::{Span, SpanKind};

use crate::json::escape;

/// Bytes reserved per span event. A fleet-traffic event averages about
/// 163; an export whose events run longer grows the buffer as usual.
const EVENT_BYTES: usize = 192;

/// One swimlane's worth of spans plus its process/thread labels. The spans
/// are borrowed from the records they came from.
#[derive(Debug, Clone)]
pub struct TraceGroup<'a> {
    /// Process name shown by the viewer (platform, e.g. `"spanner"`).
    pub process_name: String,
    /// Process id; group spans from the same platform under one pid.
    pub pid: u32,
    /// Thread id within the process (shard index).
    pub tid: u32,
    /// Thread name shown by the viewer (e.g. `"shard 3"`).
    pub thread_name: String,
    /// The spans to emit on this lane.
    pub spans: Vec<&'a Span>,
}

/// The trace-event `cat` field for a span kind.
#[must_use]
fn kind_category(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Cpu => "cpu",
        SpanKind::Io => "io",
        SpanKind::RemoteWork => "remote",
        SpanKind::Container => "container",
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

/// Appends integer nanoseconds as fixed-point decimal microseconds: the
/// whole microseconds, a point, and three digits of nanoseconds.
fn push_micros(out: &mut String, nanos: u64) {
    push_decimal(out, nanos / 1_000);
    let frac = nanos % 1_000;
    out.push('.');
    for digit in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + digit as u8));
    }
}

fn push_metadata(out: &mut String, name: &str, pid: u32, tid: u32, arg_val: &str) {
    out.push_str("    {\"name\": \"");
    out.push_str(name);
    out.push_str("\", \"ph\": \"M\", \"pid\": ");
    push_decimal(out, u64::from(pid));
    out.push_str(", \"tid\": ");
    push_decimal(out, u64::from(tid));
    out.push_str(", \"args\": {\"name\": \"");
    escape(arg_val, out);
    out.push_str("\"}}");
}

/// Appends one `"X"` (complete) event. `lane` is the group's
/// `, "pid": P, "tid": T, "args": {"trace": ` run, the same for every
/// event on the lane.
fn push_event(out: &mut String, span: &Span, lane: &str) {
    let start = span.start.as_nanos();
    let dur = span.end.as_nanos().saturating_sub(start);
    out.push_str("    {\"name\": \"");
    escape(span.name, out);
    out.push_str("\", \"cat\": \"");
    out.push_str(kind_category(span.kind));
    out.push_str("\", \"ph\": \"X\", \"ts\": ");
    push_micros(out, start);
    out.push_str(", \"dur\": ");
    push_micros(out, dur);
    out.push_str(lane);
    push_decimal(out, span.trace.0);
    out.push_str(", \"span\": ");
    push_decimal(out, span.id.0);
    out.push_str(", \"parent\": ");
    match span.parent {
        Some(parent) => push_decimal(out, parent.0),
        None => out.push_str("null"),
    }
    out.push_str("}}");
}

/// Serializes `groups` into one Chrome trace-event JSON document.
///
/// Emits `process_name` / `thread_name` metadata events followed by one
/// `"X"` (complete) event per span, annotated with the span's trace id,
/// span id, parent id, and kind in `args`. Output is byte-deterministic
/// for a given input.
#[must_use]
pub fn chrome_trace_json(groups: &[TraceGroup<'_>]) -> String {
    let spans: usize = groups.iter().map(|group| group.spans.len()).sum();
    let mut out = String::with_capacity((spans + 2 * groups.len() + 1) * EVENT_BYTES);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    // Metadata first: one process_name per distinct pid (first label wins),
    // one thread_name per lane.
    let mut named_pids: Vec<u32> = Vec::new();
    for group in groups {
        if !named_pids.contains(&group.pid) {
            named_pids.push(group.pid);
            sep(&mut out, &mut first);
            push_metadata(&mut out, "process_name", group.pid, 0, &group.process_name);
        }
        sep(&mut out, &mut first);
        push_metadata(
            &mut out,
            "thread_name",
            group.pid,
            group.tid,
            &group.thread_name,
        );
    }

    let mut lane = String::new();
    for group in groups {
        lane.clear();
        lane.push_str(", \"pid\": ");
        push_decimal(&mut lane, u64::from(group.pid));
        lane.push_str(", \"tid\": ");
        push_decimal(&mut lane, u64::from(group.tid));
        lane.push_str(", \"args\": {\"trace\": ");
        for span in &group.spans {
            sep(&mut out, &mut first);
            push_event(&mut out, span, &lane);
        }
    }

    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rpc::span::{SpanId, TraceId};
    use hsdp_simcore::time::SimTime;

    /// The renderer [`chrome_trace_json`] replaced, kept as its oracle:
    /// one `format!` per event, with `micros()` strings for the times.
    fn reference_chrome_trace_json(groups: &[TraceGroup<'_>]) -> String {
        fn micros(nanos: u64) -> String {
            format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
        }
        fn reference_escape(raw: &str, out: &mut String) {
            for c in raw.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
        }
        let metadata = |out: &mut String, name: &str, pid: u32, tid: u32, value: &str| {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \""
            ));
            reference_escape(value, out);
            out.push_str("\"}}");
        };
        let mut events = Vec::new();
        let mut named_pids: Vec<u32> = Vec::new();
        for group in groups {
            if !named_pids.contains(&group.pid) {
                named_pids.push(group.pid);
                let mut event = String::new();
                metadata(
                    &mut event,
                    "process_name",
                    group.pid,
                    0,
                    &group.process_name,
                );
                events.push(event);
            }
            let mut event = String::new();
            metadata(
                &mut event,
                "thread_name",
                group.pid,
                group.tid,
                &group.thread_name,
            );
            events.push(event);
        }
        for group in groups {
            for span in &group.spans {
                let start = span.start.as_nanos();
                let dur = span.end.as_nanos().saturating_sub(start);
                let mut event = String::from("    {\"name\": \"");
                reference_escape(span.name, &mut event);
                event.push_str(&format!(
                    "\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {ts}, \"dur\": {dur}, \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"trace\": {trace}, \"span\": {span_id}, \"parent\": {parent}}}}}",
                    cat = kind_category(span.kind),
                    ts = micros(start),
                    dur = micros(dur),
                    pid = group.pid,
                    tid = group.tid,
                    trace = span.trace.0,
                    span_id = span.id.0,
                    parent = span
                        .parent
                        .map_or_else(|| "null".to_string(), |p| p.0.to_string()),
                ));
                events.push(event);
            }
        }
        format!(
            "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n{}\n  ]\n}}\n",
            events.join(",\n")
        )
    }

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(9),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            kind: SpanKind::Container,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    fn sample_spans() -> Vec<Span> {
        let mut consensus = span(2, Some(1), "consensus \"r1\"", 2_000, 30_000);
        consensus.kind = SpanKind::RemoteWork;
        vec![span(1, None, "spanner.query", 1_500, 42_750), consensus]
    }

    fn sample_group(spans: &[Span]) -> TraceGroup<'_> {
        TraceGroup {
            process_name: "spanner".to_string(),
            pid: 1,
            tid: 3,
            thread_name: "shard 3".to_string(),
            spans: spans.iter().collect(),
        }
    }

    #[test]
    fn emits_valid_json_with_metadata_and_events() {
        let spans = sample_spans();
        let doc = chrome_trace_json(&[sample_group(&spans)]);
        crate::json::validate(&doc).expect("exporter output must be valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"ph\": \"X\""));
        // 1500 ns -> 1.500 us fixed-point.
        assert!(doc.contains("\"ts\": 1.500"));
        assert!(doc.contains("\"dur\": 41.250"));
        // Span name quotes are escaped.
        assert!(doc.contains("consensus \\\"r1\\\""));
        assert!(doc.contains("\"parent\": 1"));
        assert!(doc.contains("\"parent\": null"));
    }

    #[test]
    fn process_metadata_deduplicates_by_pid() {
        let spans = sample_spans();
        let mut lane_a = sample_group(&spans);
        lane_a.tid = 0;
        let mut lane_b = sample_group(&spans);
        lane_b.tid = 1;
        lane_b.spans.clear();
        let doc = chrome_trace_json(&[lane_a, lane_b]);
        crate::json::validate(&doc).expect("valid JSON");
        assert_eq!(doc.matches("\"process_name\"").count(), 1);
        assert_eq!(doc.matches("\"thread_name\"").count(), 2);
    }

    #[test]
    fn empty_input_is_still_valid() {
        let doc = chrome_trace_json(&[]);
        crate::json::validate(&doc).expect("valid JSON");
        assert!(doc.contains("\"traceEvents\": [\n\n  ]"));
        assert_eq!(doc, reference_chrome_trace_json(&[]));
    }

    #[test]
    fn output_is_deterministic() {
        let spans = sample_spans();
        let a = chrome_trace_json(&[sample_group(&spans)]);
        let b = chrome_trace_json(&[sample_group(&spans)]);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_the_reference_renderer() {
        let mut spans = sample_spans();
        // Zero, sub-microsecond and exactly-one-microsecond durations, an
        // end before the start (clamped to zero), large ids and times.
        spans.push(span(3, Some(1), "zero", 7_000, 7_000));
        spans.push(span(4, Some(3), "sub-us", 999, 1_998));
        spans.push(span(5, None, "one-us", 0, 1_000));
        spans.push(span(6, Some(5), "backwards", 5_001, 5_000));
        spans.push(span(
            u64::MAX,
            Some(u64::MAX - 1),
            "big",
            u64::MAX - 1,
            u64::MAX,
        ));
        // Names that need escaping: quotes, backslashes, the short
        // control escapes, other control characters, and non-ASCII text.
        for (i, name) in [
            "a\\b",
            "tab\there\nnewline\rreturn",
            "bell\u{7}unit\u{1f}nul\u{0}",
            "\"quoted\\\"",
            "caf\u{e9} \u{1F600}",
            "",
        ]
        .into_iter()
        .enumerate()
        {
            spans.push(span(10 + i as u64, None, name, 12_345, 67_890_123));
        }
        for (i, kind) in [SpanKind::Cpu, SpanKind::Io, SpanKind::RemoteWork]
            .into_iter()
            .enumerate()
        {
            let mut s = span(20 + i as u64, Some(1), "kind", 1, 2);
            s.kind = kind;
            spans.push(s);
        }
        let mut lane_b = sample_group(&spans[..3]);
        lane_b.tid = 4;
        lane_b.thread_name = "shard \"4\"\u{2}".to_string();
        let mut other_process = sample_group(&spans[5..]);
        other_process.pid = 2;
        other_process.process_name = "big\\table".to_string();
        let groups = [sample_group(&spans), lane_b, other_process];
        let doc = chrome_trace_json(&groups);
        crate::json::validate(&doc).expect("valid JSON");
        assert_eq!(doc, reference_chrome_trace_json(&groups));
        assert!(doc.contains("\"dur\": 0.000"));
        assert!(doc.contains("\"dur\": 0.999"));
        assert!(doc.contains("\\u0007unit\\u001fnul\\u0000"));
    }
}
