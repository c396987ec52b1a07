//! The traced-run writer: real-clock spans recorded by the benchmark around
//! each call it makes into a layer, kept in memory and written out at exit
//! as Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! A disabled recorder reads no clock and stores nothing, so the untraced
//! runs that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<usize>,
    /// The iteration (or unit pass) the span belongs to.
    pub iteration: u32,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    iteration: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder {
            enabled: true,
            ..Recorder::off()
        }
    }

    /// Tags spans opened from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `work` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = work();
        self.end(span);
        out
    }

    #[cfg(test)]
    fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.clamp(reach, span.end_ns);
                    let end = end.clamp(start, span.end_ns);
                    covered += end - start;
                    reach = end;
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self time summed per `(iteration, span name)`, in seconds.
    pub fn self_seconds_by_iteration(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry((span.iteration, span.name)).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span on a
    /// single thread lane, with the iteration, the parent's name and the
    /// self time as event arguments.
    pub fn chrome_trace_json(&self) -> String {
        let self_times = self.self_times_ns();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        out.push_str(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {\"name\": \"fleetbench\"}}",
        );
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let parent = span.parent.map_or("", |p| self.spans[p].name);
            out.push_str(&format!(
                ",\n{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"iteration\": {}, \
                 \"parent\": \"{parent}\", \"self_us\": {:.3}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.iteration,
                self_ns as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::on();
        let root = rec.begin("root");
        rec.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let self_ns = rec.self_times_ns();
        let spans = rec.spans();
        assert_eq!(self_ns[1], spans[1].duration_ns());
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert!(rec.chrome_trace_json().contains("\"parent\": \"root\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::off();
        let span = rec.begin("root");
        rec.end(span);
        assert!(rec.spans().is_empty());
    }
}
