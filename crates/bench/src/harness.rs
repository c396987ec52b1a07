//! Machine-readable wall-clock results for `BENCH_fleet.json`: the
//! [`BenchRecord`]/[`BenchReport`] pair `hsdp bench` fills, the one-block
//! timer [`time_ns`] it measures with, and [`parse_bench_entries`], which
//! `hsdp profile --snapshot --bench` reads the report back through.

use std::collections::BTreeMap;
use std::time::Instant;

use hsdp_telemetry::json;

/// One machine-readable benchmark result destined for `BENCH_fleet.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark id, e.g. `"crc32c/slicing8/64KiB"`.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Bytes processed per iteration, when throughput is meaningful.
    pub bytes_per_iter: Option<u64>,
    /// Worker threads in play (1 for single-threaded kernels).
    pub parallelism: usize,
    /// The seed the workload ran with (0 when seedless).
    pub seed: u64,
}

impl BenchRecord {
    /// Derived throughput in MiB/s, when `bytes_per_iter` is known.
    #[must_use]
    pub fn mib_per_sec(&self) -> Option<f64> {
        // audit: allow(cast, reporting-only conversion of a byte count to float)
        self.bytes_per_iter
            .map(|b| b as f64 / (1 << 20) as f64 / (self.ns_per_iter / 1e9))
    }
}

/// Accumulates [`BenchRecord`]s and serializes them as JSON, so the perf
/// trajectory of the hot kernels and the fleet driver is recorded
/// run-over-run instead of scrolling away on stdout.
///
/// Every entry is stamped with the *host's* hardware parallelism, so a
/// reader of `BENCH_fleet.json` can tell a genuine parallel-speedup
/// regression from a run that simply landed on a smaller machine (a 1-CPU
/// runner cannot show fleet speedup at all — the speedup gate skips there).
/// Since kernel round 3 each entry also carries the dispatched CPU feature
/// summary (e.g. `"sse4.2"` or `"scalar(forced)"`), so a hardware-vs-scalar
/// CRC32C ratio recorded on one host is never compared against a run where
/// the fast path silently failed to dispatch.
/// Every entry also carries provenance — the `git_commit` it measured and a
/// monotonic `sequence` number (CI run number, passed in via CLI rather
/// than derived from wall clock) — so bench history joins the per-commit
/// profile history on the same keys.
#[derive(Debug, Clone)]
pub struct BenchReport {
    records: Vec<BenchRecord>,
    host_parallelism: usize,
    cpu_features: String,
    git_commit: String,
    sequence: u64,
}

impl Default for BenchReport {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchReport {
    /// An empty report stamped with this host's hardware parallelism.
    #[must_use]
    pub fn new() -> Self {
        BenchReport {
            records: Vec::new(),
            host_parallelism: hsdp_platforms::runner::default_parallelism(),
            cpu_features: hsdp_taxes::dispatch::CpuFeatures::get().summary(),
            git_commit: String::new(),
            sequence: 0,
        }
    }

    /// Stamps provenance onto every entry: the commit under measurement
    /// and a monotonic sequence number (e.g. the CI run number). Both come
    /// from the caller — never from the wall clock — so reruns of the same
    /// commit are identical.
    pub fn set_provenance(&mut self, git_commit: &str, sequence: u64) {
        self.git_commit = git_commit.to_owned();
        self.sequence = sequence;
    }

    /// The commit id stamped on every entry (empty when not provided).
    #[must_use]
    pub fn git_commit(&self) -> &str {
        &self.git_commit
    }

    /// The monotonic sequence number stamped on every entry.
    #[must_use]
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The host hardware parallelism stamped on every entry.
    #[must_use]
    pub fn host_parallelism(&self) -> usize {
        self.host_parallelism
    }

    /// The dispatched CPU feature summary stamped on every entry.
    #[must_use]
    pub fn cpu_features(&self) -> &str {
        &self.cpu_features
    }

    /// Appends one result.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Renders the report as a JSON document (hand-rolled: the workspace
    /// carries no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"hsdp-bench-fleet/1\",\n  \"entries\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {\"id\": \"");
            json::escape(&r.id, &mut out);
            out.push('"');
            out.push_str(&format!(", \"ns_per_iter\": {}", json_f64(r.ns_per_iter)));
            if let Some(bytes) = r.bytes_per_iter {
                out.push_str(&format!(", \"bytes_per_iter\": {bytes}"));
            }
            if let Some(mib) = r.mib_per_sec() {
                out.push_str(&format!(", \"throughput_mib_s\": {}", json_f64(mib)));
            }
            out.push_str(&format!(", \"parallelism\": {}", r.parallelism));
            out.push_str(&format!(
                ", \"host_parallelism\": {}",
                self.host_parallelism
            ));
            out.push_str(", \"cpu_features\": \"");
            json::escape(&self.cpu_features, &mut out);
            out.push_str("\", \"git_commit\": \"");
            json::escape(&self.git_commit, &mut out);
            out.push('"');
            out.push_str(&format!(", \"sequence\": {}", self.sequence));
            out.push_str(&format!(", \"seed\": {}", r.seed));
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Formats a float as a finite JSON number (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

/// Lifts `(id, ns_per_iter)` bench entries out of a `BENCH_fleet.json`
/// document (`hsdp-bench-fleet/1` schema), for the profile-history
/// snapshot (`hsdp profile --snapshot STORE --bench FILE`). The harness writes one entry
/// object per line, so a line-oriented scan is exact for documents we
/// produce; lines that hold no entry are skipped. `hsdp profile` rejects a
/// file that is not JSON or yields no entry.
#[must_use]
pub fn parse_bench_entries(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let Some(id) = extract_str(line, "\"id\": \"") else {
            continue;
        };
        let Some(ns) = extract_f64(line, "\"ns_per_iter\": ") else {
            continue;
        };
        out.insert(unescape(id), ns);
    }
    out
}

/// The raw (still-escaped) value of a `"key": "value"` field in `line`.
fn extract_str<'a>(line: &'a str, marker: &str) -> Option<&'a str> {
    let start = line.find(marker)? + marker.len();
    let rest = &line[start..];
    // Walk to the closing quote, honouring backslash escapes.
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(&rest[..i]);
        }
    }
    None
}

/// The numeric value of a `"key": 123.4` field in `line`.
fn extract_f64(line: &str, marker: &str) -> Option<f64> {
    let start = line.find(marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Undoes the harness's JSON string escaping.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => break,
        }
    }
    out
}

/// Times `routine` over `iters` iterations, returning mean ns/iter.
///
/// One timed block, no sampling schedule: suitable for kernels whose cost
/// is stable (checksums, codecs, fleet runs).
pub fn time_ns<O>(iters: u64, mut routine: impl FnMut() -> O) -> f64 {
    let iters = iters.max(1);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(routine());
    }
    // audit: allow(cast, reporting-only conversion of an iteration count)
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_renders_valid_shape() {
        let mut report = BenchReport::new();
        report.push(BenchRecord {
            id: "crc32c/slicing8/64KiB".to_owned(),
            ns_per_iter: 1234.5,
            bytes_per_iter: Some(65_536),
            parallelism: 1,
            seed: 7,
        });
        report.push(BenchRecord {
            id: "fleet/wall_clock \"p=4\"".to_owned(),
            ns_per_iter: 5e6,
            bytes_per_iter: None,
            parallelism: 4,
            seed: 0xC0FFEE,
        });
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"hsdp-bench-fleet/1\""));
        assert!(json.contains("\"ns_per_iter\": 1234.500"));
        assert!(json.contains("\"throughput_mib_s\""));
        assert!(
            json.contains("\\\"p=4\\\""),
            "quotes must be escaped: {json}"
        );
        assert!(json.contains("\"parallelism\": 4"));
        assert!(
            json.contains(&format!(
                "\"host_parallelism\": {}",
                report.host_parallelism()
            )),
            "entries must carry the host's hardware parallelism: {json}"
        );
        assert!(report.host_parallelism() >= 1);
        assert!(
            json.contains(&format!("\"cpu_features\": \"{}\"", report.cpu_features())),
            "entries must carry the dispatched feature summary: {json}"
        );
        assert!(!report.cpu_features().is_empty());
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bench_report_stamps_provenance() {
        let mut report = BenchReport::new();
        report.push(BenchRecord {
            id: "a".to_owned(),
            ns_per_iter: 1.0,
            bytes_per_iter: None,
            parallelism: 1,
            seed: 0,
        });
        report.push(BenchRecord {
            id: "b".to_owned(),
            ns_per_iter: 2.0,
            bytes_per_iter: None,
            parallelism: 1,
            seed: 0,
        });
        let unstamped = report.to_json();
        assert_eq!(
            unstamped.matches("\"git_commit\": \"\"").count(),
            2,
            "every entry carries the (empty) commit stamp: {unstamped}"
        );
        report.set_provenance("deadbeef", 42);
        let json = report.to_json();
        assert_eq!(
            json.matches("\"git_commit\": \"deadbeef\"").count(),
            2,
            "every entry carries the commit stamp: {json}"
        );
        assert_eq!(json.matches("\"sequence\": 42").count(), 2);
        assert_eq!(report.git_commit(), "deadbeef");
        assert_eq!(report.sequence(), 42);
    }

    #[test]
    fn bench_entries_roundtrip_through_report_json() {
        let mut report = BenchReport::new();
        report.set_provenance("cafe12", 3);
        report.push(BenchRecord {
            id: "crc32c/hw/64KiB".to_owned(),
            ns_per_iter: 321.125,
            bytes_per_iter: Some(65_536),
            parallelism: 1,
            seed: 0,
        });
        report.push(BenchRecord {
            id: "fleet/wall_clock \"p=4\"".to_owned(),
            ns_per_iter: 5e6,
            bytes_per_iter: None,
            parallelism: 4,
            seed: 7,
        });
        let entries = parse_bench_entries(&report.to_json());
        assert_eq!(entries.len(), 2);
        assert!((entries["crc32c/hw/64KiB"] - 321.125).abs() < 1e-9);
        assert!((entries["fleet/wall_clock \"p=4\""] - 5e6).abs() < 1e-3);
    }

    #[test]
    fn parse_skips_non_entry_lines() {
        let entries = parse_bench_entries(
            "{\n  \"schema\": \"hsdp-bench-fleet/1\",\n  \"entries\": [\n  ]\n}\n",
        );
        assert!(entries.is_empty());
    }

    #[test]
    fn time_ns_reports_positive_cost() {
        let ns = time_ns(100, || std::hint::black_box(3u64).wrapping_mul(7));
        assert!(ns > 0.0);
        assert!(ns.is_finite());
    }
}
