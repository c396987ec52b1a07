//! The metrics registry: counters, gauges, and log-linear histograms.
//!
//! Everything here is built for *deterministic aggregation*. The fleet
//! driver runs one registry per shard; shard registries are pure functions
//! of the shard seed, and [`MetricsRegistry::merge`] is commutative and
//! associative over every metric kind (counters add, gauges take the max,
//! histograms add per fixed bucket). Merging per-shard registries in
//! canonical shard order therefore yields byte-identical
//! [`MetricsRegistry::to_json`] output at any `parallelism` setting — the
//! same guarantee `hsdp_simcore::pool` gives the record stream.

use std::collections::BTreeMap;

use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::request::RequestId;
use hsdp_rng::derive_seed;
use hsdp_simcore::time::SimDuration;

/// A metric identity: `(subsystem, metric, label)`, all static so recording
/// never allocates. The label slot is `""` for unlabeled metrics and the
/// operation label (e.g. `"commit"`) for per-operation series.
pub type MetricKey = (&'static str, &'static str, &'static str);

/// Renders a key as the canonical `subsystem/metric[/label]` path.
#[must_use]
pub fn key_path(key: MetricKey) -> String {
    let (subsystem, metric, label) = key;
    if label.is_empty() {
        format!("{subsystem}/{metric}")
    } else {
        format!("{subsystem}/{metric}/{label}")
    }
}

/// The static key fragment for one fine-grained CPU cycle category, used to
/// pin GWP-style meter accounting to telemetry counters without allocating.
#[must_use]
pub fn category_key(category: CpuCategory) -> &'static str {
    match category {
        CpuCategory::Core(op) => match op {
            CoreComputeOp::Read => "core.read",
            CoreComputeOp::Write => "core.write",
            CoreComputeOp::Compaction => "core.compaction",
            CoreComputeOp::Consensus => "core.consensus",
            CoreComputeOp::Query => "core.query",
            CoreComputeOp::Aggregate => "core.aggregate",
            CoreComputeOp::Compute => "core.compute",
            CoreComputeOp::Destructure => "core.destructure",
            CoreComputeOp::Filter => "core.filter",
            CoreComputeOp::Join => "core.join",
            CoreComputeOp::Materialize => "core.materialize",
            CoreComputeOp::Project => "core.project",
            CoreComputeOp::Sort => "core.sort",
            CoreComputeOp::MiscCore => "core.misc",
            CoreComputeOp::Uncategorized => "core.uncategorized",
        },
        CpuCategory::Datacenter(tax) => match tax {
            DatacenterTax::Compression => "dc.compression",
            DatacenterTax::Cryptography => "dc.cryptography",
            DatacenterTax::DataMovement => "dc.data_movement",
            DatacenterTax::MemAllocation => "dc.mem_allocation",
            DatacenterTax::Protobuf => "dc.protobuf",
            DatacenterTax::Rpc => "dc.rpc",
        },
        CpuCategory::System(tax) => match tax {
            SystemTax::Edac => "sys.edac",
            SystemTax::FileSystems => "sys.file_systems",
            SystemTax::OtherMemoryOps => "sys.other_memory_ops",
            SystemTax::Multithreading => "sys.multithreading",
            SystemTax::Networking => "sys.networking",
            SystemTax::OperatingSystems => "sys.operating_systems",
            SystemTax::Stl => "sys.stl",
            SystemTax::MiscSystem => "sys.misc",
        },
    }
}

/// Linear sub-buckets per power-of-two octave. 16 sub-buckets bound the
/// relative quantization error at 1/16 ≈ 6.25%, HDR-histogram style.
pub const SUB_BUCKETS: u64 = 16;

/// Maps a value to its fixed log-linear bucket index.
///
/// Values below [`SUB_BUCKETS`] get exact unit buckets; above that, each
/// power-of-two octave splits into [`SUB_BUCKETS`] linear sub-buckets. The
/// layout is a pure function of the value — never of the data distribution
/// — which is what makes histogram merge order-independent.
#[must_use]
pub fn bucket_index(value: u64) -> u16 {
    if value < SUB_BUCKETS {
        // audit: allow(cast, value < 16 fits u16 exactly)
        return value as u16;
    }
    let exponent = u64::from(63 - value.leading_zeros());
    let sub = (value >> (exponent - 4)) & (SUB_BUCKETS - 1);
    // audit: allow(cast, exponent <= 63 so the index is at most 975)
    ((exponent - 3) * SUB_BUCKETS + sub) as u16
}

/// The inclusive lower bound of bucket `index` (inverse of
/// [`bucket_index`]).
#[must_use]
pub fn bucket_lower_bound(index: u16) -> u64 {
    let index = u64::from(index);
    if index < SUB_BUCKETS {
        return index;
    }
    let exponent = index / SUB_BUCKETS + 3;
    let sub = index % SUB_BUCKETS;
    (1u64 << exponent) + (sub << (exponent - 4))
}

/// Salt separating exemplar priorities from every other `derive_seed`
/// stream in the workspace.
const EXEMPLAR_SALT: u64 = 0x00EE_EE00;

/// A deterministic exemplar: one representative tagged observation kept
/// per histogram bucket, OpenMetrics-style, so a quantile estimate can be
/// traced back to a concrete request.
///
/// Selection is reservoir-free and order-independent: each candidate's
/// priority is `derive_seed(EXEMPLAR_SALT, request, value)` and the bucket
/// keeps the candidate with the *minimum* `(priority, request, value)`.
/// A minimum over a set does not depend on arrival order, so recording
/// order, shard split, and merge order all yield the same exemplar — the
/// property the byte-identity suite pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The request whose observation this is.
    pub request: RequestId,
    /// The observed value (nanoseconds for latency histograms).
    pub value: u64,
    priority: u64,
}

impl Exemplar {
    fn new(request: RequestId, value: u64) -> Self {
        Exemplar {
            request,
            value,
            priority: derive_seed(EXEMPLAR_SALT, request.0, value),
        }
    }

    /// The deterministic selection rank (lower wins).
    fn rank(&self) -> (u64, u64, u64) {
        (self.priority, self.request.0, self.value)
    }
}

/// A fixed-layout log-linear histogram (HDR style).
///
/// Buckets are stored sparsely; `count`/`sum`/`min`/`max` ride along so
/// reports never need to re-derive totals from buckets. Tagged recordings
/// additionally keep one deterministic [`Exemplar`] per bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: BTreeMap<u16, u64>,
    exemplars: BTreeMap<u16, Exemplar>,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += u128::from(value);
        *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
    }

    /// Records one observation attributed to `request`, keeping it as the
    /// bucket's exemplar if it wins the deterministic min-priority draw.
    /// Untagged requests record plain (background work never becomes an
    /// exemplar).
    pub fn record_tagged(&mut self, value: u64, request: RequestId) {
        self.record(value);
        if !request.is_tagged() {
            return;
        }
        let candidate = Exemplar::new(request, value);
        let slot = self
            .exemplars
            .entry(bucket_index(value))
            .or_insert(candidate);
        if candidate.rank() < slot.rank() {
            *slot = candidate;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            // audit: allow(cast, reporting-only conversion to float)
            self.sum as f64 / self.count as f64
        }
    }

    /// The lower bound of the bucket where the cumulative count first
    /// reaches `q * count` (`0.0 <= q <= 1.0`); 0 when empty. A bucket-
    /// resolution quantile estimator, accurate to the 1/16 bucket width.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // audit: allow(cast, ceil of a clamped non-negative f64 rank fits u64)
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(index);
            }
        }
        self.max
    }

    /// Interpolated quantile: finds the bucket where the cumulative count
    /// crosses `q * count`, then interpolates linearly within that bucket's
    /// `[lower, upper)` range by the fraction of the bucket's observations
    /// below the target rank. The result is clamped to the observed
    /// `[min, max]`, so `q = 0` reports the minimum and `q = 1` the maximum
    /// exactly. 0.0 when empty.
    ///
    /// Like everything else on the histogram, this is a pure function of
    /// the (merge-order-independent) bucket contents.
    #[must_use]
    pub fn quantile_interpolated(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // audit: allow(cast, count to f64 for a continuous rank; exact below 2^53)
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        // audit: allow(cast, min/max to f64 for clamping a reported estimate)
        let (lo_clamp, hi_clamp) = (self.min() as f64, self.max as f64);
        let mut seen = 0u64;
        for (&index, &n) in &self.buckets {
            let before = seen;
            seen += n;
            // audit: allow(cast, cumulative counts to f64 for interpolation)
            if seen as f64 >= rank {
                // audit: allow(cast, bucket bounds to f64 for interpolation)
                let lower = bucket_lower_bound(index) as f64;
                // audit: allow(cast, bucket bounds to f64 for interpolation)
                let upper = bucket_lower_bound(index.saturating_add(1)) as f64;
                // audit: allow(cast, bucket count to f64 for interpolation)
                let fraction = ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
                return (lower + (upper - lower) * fraction).clamp(lo_clamp, hi_clamp);
            }
        }
        hi_clamp
    }

    /// Interpolated median, rounded to the nearest integer unit.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.rounded_quantile(0.50)
    }

    /// Interpolated 95th percentile, rounded to the nearest integer unit.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.rounded_quantile(0.95)
    }

    /// Interpolated 99th percentile, rounded to the nearest integer unit.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.rounded_quantile(0.99)
    }

    fn rounded_quantile(&self, q: f64) -> u64 {
        // audit: allow(cast, non-negative rounded f64 back to the integer unit domain)
        self.quantile_interpolated(q).round() as u64
    }

    /// Folds `other` into `self`. Commutative and associative, so any merge
    /// order over a set of histograms yields the same result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        for (&index, other_ex) in &other.exemplars {
            let slot = self.exemplars.entry(index).or_insert(*other_ex);
            if other_ex.rank() < slot.rank() {
                *slot = *other_ex;
            }
        }
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u16, u64)> {
        self.buckets.iter().map(|(&i, &n)| (i, n)).collect()
    }

    /// The per-bucket exemplars as `(index, exemplar)` pairs, ascending.
    #[must_use]
    pub fn exemplars(&self) -> Vec<(u16, Exemplar)> {
        self.exemplars.iter().map(|(&i, &e)| (i, e)).collect()
    }
}

/// Interpolated quantile snapshot of one histogram — the shape the
/// profile-history store persists per commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Interpolated median.
    pub p50: u64,
    /// Interpolated 95th percentile.
    pub p95: u64,
    /// Interpolated 99th percentile.
    pub p99: u64,
}

/// The per-shard (and, after merging, fleet-wide) metrics registry.
///
/// All three metric kinds key on [`MetricKey`] and live in `BTreeMap`s, so
/// iteration — and therefore [`MetricsRegistry::to_json`] — is in canonical
/// key order regardless of recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    disabled: bool,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry whose recording methods are no-ops. Platform
    /// engines start with one, so their warmup records nothing until the
    /// runner sets an enabled registry for traffic.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry {
            disabled: true,
            ..Self::default()
        }
    }

    /// True when recording is live.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&mut self, key: MetricKey, delta: u64) {
        if self.disabled || delta == 0 {
            return;
        }
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Raises a high-watermark gauge to at least `value`. Gauges merge by
    /// maximum, the only order-independent fold for level signals.
    pub fn gauge_max(&mut self, key: MetricKey, value: u64) {
        if self.disabled {
            return;
        }
        let slot = self.gauges.entry(key).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records one observation into a histogram.
    pub fn record(&mut self, key: MetricKey, value: u64) {
        if self.disabled {
            return;
        }
        self.histograms.entry(key).or_default().record(value);
    }

    /// Records a simulated duration (in nanoseconds) into a histogram.
    pub fn record_duration(&mut self, key: MetricKey, duration: SimDuration) {
        self.record(key, duration.as_nanos());
    }

    /// Records one observation attributed to `request`, feeding the
    /// histogram's deterministic per-bucket exemplars.
    pub fn record_tagged(&mut self, key: MetricKey, value: u64, request: RequestId) {
        if self.disabled {
            return;
        }
        self.histograms
            .entry(key)
            .or_default()
            .record_tagged(value, request);
    }

    /// Records a simulated duration attributed to `request`.
    pub fn record_duration_tagged(
        &mut self,
        key: MetricKey,
        duration: SimDuration,
        request: RequestId,
    ) {
        self.record_tagged(key, duration.as_nanos(), request);
    }

    /// A counter's current value (0 when never touched).
    #[must_use]
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// A gauge's current value (0 when never touched).
    #[must_use]
    pub fn gauge(&self, key: MetricKey) -> u64 {
        self.gauges.get(&key).copied().unwrap_or(0)
    }

    /// A histogram, if any observation was recorded under `key`.
    #[must_use]
    pub fn histogram(&self, key: MetricKey) -> Option<&Histogram> {
        self.histograms.get(&key)
    }

    /// All histograms with their keys, in canonical key order — the
    /// iteration exemplar joins (e.g. the tail report) walk.
    #[must_use]
    pub fn histograms(&self) -> Vec<(MetricKey, &Histogram)> {
        self.histograms.iter().map(|(&k, h)| (k, h)).collect()
    }

    /// Quantile summaries for every histogram, in canonical key-path
    /// order. This is the per-commit profile-history extraction: one
    /// `(path, count/p50/p95/p99)` row per metric, deterministic because
    /// the registry itself is.
    #[must_use]
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .iter()
            .map(|(key, h)| {
                (
                    key_path(*key),
                    HistogramSummary {
                        count: h.count(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                    },
                )
            })
            .collect()
    }

    /// All counters, in canonical key order.
    #[must_use]
    pub fn counters(&self) -> Vec<(MetricKey, u64)> {
        self.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Sums every counter in `subsystem` (e.g. all `"cpu"` work counters).
    #[must_use]
    pub fn counter_subsystem_sum(&self, subsystem: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, _, _), _)| *s == subsystem)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Folds `other` into `self`: counters add, gauges take the max,
    /// histograms merge bucket-wise. Commutative and associative, so the
    /// serialized output of a fold is independent of merge order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&key, &value) in &other.counters {
            *self.counters.entry(key).or_insert(0) += value;
        }
        for (&key, &value) in &other.gauges {
            let slot = self.gauges.entry(key).or_insert(0);
            *slot = (*slot).max(value);
        }
        for (key, histogram) in &other.histograms {
            self.histograms.entry(*key).or_default().merge(histogram);
        }
    }

    /// Serializes the registry as canonical JSON: sorted keys, integer-only
    /// values, fixed field order. Two registries render byte-identically if
    /// and only if they hold the same metrics.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"hsdp-telemetry-metrics/2\",\n");
        out.push_str("  \"counters\": {");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(&key_path(*key));
            out.push_str(&format!(
                "\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
            for (j, (index, n)) in h.buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{index}, {n}]"));
            }
            out.push_str("], \"exemplars\": [");
            for (j, (index, ex)) in h.exemplars().into_iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{index}, {}, {}]", ex.request.0, ex.value));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Renders a sorted `key -> integer` map body (no surrounding braces).
fn push_scalar_map(out: &mut String, map: &BTreeMap<MetricKey, u64>) {
    for (i, (key, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        out.push_str(&key_path(*key));
        out.push_str(&format!("\": {value}"));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_continuous_and_invertible() {
        // Every value maps into a bucket whose bounds contain it, and
        // indexes are non-decreasing in the value.
        let mut last = 0u16;
        for value in (0..4096u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let index = bucket_index(value);
            assert!(index >= last || value < 4096, "index regressed at {value}");
            if value < 4096 {
                last = last.max(index);
            }
            let lo = bucket_lower_bound(index);
            assert!(lo <= value, "lower bound {lo} > value {value}");
            if index < bucket_index(u64::MAX) {
                let hi = bucket_lower_bound(index + 1);
                assert!(value < hi, "value {value} >= next bound {hi}");
            }
        }
        // Unit buckets below SUB_BUCKETS are exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn histogram_tracks_stats() {
        let mut h = Histogram::new();
        for v in [5u64, 100, 17, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100_122);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 100_000);
        assert!(h.mean() > 25_000.0);
        assert_eq!(h.quantile(0.0), 5);
        assert!(h.quantile(1.0) <= 100_000);
        assert!(h.quantile(0.5) >= 16);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_interpolated(0.5), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn interpolated_quantiles_land_inside_the_bucket() {
        // A uniform 1..=1000 stream: the interpolated percentiles should
        // track the true ones to within one log-linear bucket width
        // (1/16 relative error above 16), far tighter than the
        // lower-bound-only estimator.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, want) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile_interpolated(q);
            let err = (got - want).abs() / want;
            assert!(err < 1.0 / 16.0, "q={q}: got {got}, want ~{want}");
        }
        assert_eq!(h.quantile_interpolated(0.0), 1.0, "q=0 is the min");
        assert_eq!(h.quantile_interpolated(1.0), 1000.0, "q=1 is the max");
        // The rounded accessors are ordered.
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn interpolated_quantiles_clamp_to_observed_range() {
        // A single observation: every quantile is that value, even though
        // its bucket spans a wider range.
        let mut h = Histogram::new();
        h.record(1_000_000);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_interpolated(q), 1_000_000.0, "q={q}");
        }
        assert_eq!(h.p50(), 1_000_000);
        // Out-of-range q is clamped, not propagated.
        assert_eq!(h.quantile_interpolated(-3.0), 1_000_000.0);
        assert_eq!(h.quantile_interpolated(7.0), 1_000_000.0);
    }

    #[test]
    fn interpolated_quantiles_are_merge_invariant() {
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for v in 0..500u64 {
            let value = v * 977 % 9_973;
            whole.record(value);
            if v % 2 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                merged.quantile_interpolated(q),
                whole.quantile_interpolated(q)
            );
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let mut parts: Vec<MetricsRegistry> = Vec::new();
        for shard in 0..5u64 {
            let mut r = MetricsRegistry::new();
            r.counter_add(("fleet", "queries", "read"), shard + 1);
            r.gauge_max(("fleet", "memtable_bytes", ""), shard * 100);
            for v in 0..20 {
                r.record(("fleet", "latency_ns", ""), shard * 977 + v * 13);
            }
            parts.push(r);
        }
        let fold = |order: &[usize]| {
            let mut merged = MetricsRegistry::new();
            for &i in order {
                merged.merge(&parts[i]);
            }
            merged.to_json()
        };
        let canonical = fold(&[0, 1, 2, 3, 4]);
        assert_eq!(canonical, fold(&[4, 3, 2, 1, 0]));
        assert_eq!(canonical, fold(&[2, 0, 4, 1, 3]));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = MetricsRegistry::disabled();
        r.counter_add(("a", "b", ""), 5);
        r.gauge_max(("a", "g", ""), 5);
        r.record(("a", "h", ""), 5);
        assert!(!r.is_enabled());
        assert_eq!(r.to_json(), MetricsRegistry::new().to_json());
    }

    #[test]
    fn json_shape_is_canonical() {
        let mut r = MetricsRegistry::new();
        r.counter_add(("z", "last", ""), 1);
        r.counter_add(("a", "first", "label"), 2);
        r.record(("m", "hist", ""), 42);
        let json = r.to_json();
        let first = json.find("a/first/label").unwrap_or(usize::MAX);
        let last = json.find("z/last").unwrap_or(0);
        assert!(first < last, "keys must render sorted:\n{json}");
        assert!(json.contains("\"count\": 1"));
        assert!(
            json.contains("\"p50\": 42, \"p95\": 42, \"p99\": 42"),
            "quantiles surface in the histogram JSON:\n{json}"
        );
        crate::json::validate(&json).expect("registry JSON must parse");
    }

    #[test]
    fn exemplar_selection_is_recording_order_independent() {
        use hsdp_core::category::Platform;
        let observations: Vec<(u64, RequestId)> = (0..64u64)
            .map(|i| {
                (
                    1_000 + i * 37 % 50,
                    RequestId::tag(Platform::Spanner, 0, i as usize),
                )
            })
            .collect();
        let mut forward = Histogram::new();
        for &(v, r) in &observations {
            forward.record_tagged(v, r);
        }
        let mut reverse = Histogram::new();
        for &(v, r) in observations.iter().rev() {
            reverse.record_tagged(v, r);
        }
        assert_eq!(forward, reverse);
        assert!(!forward.exemplars().is_empty());
    }

    #[test]
    fn exemplar_merge_equals_whole_stream() {
        use hsdp_core::category::Platform;
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for i in 0..200u64 {
            let value = i * 977 % 9_973;
            let request = RequestId::tag(Platform::BigQuery, (i % 4) as usize, i as usize);
            whole.record_tagged(value, request);
            if i % 2 == 0 {
                left.record_tagged(value, request);
            } else {
                right.record_tagged(value, request);
            }
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        assert_eq!(ab, whole, "split+merge matches the whole stream");
        assert_eq!(ab, ba, "merge is commutative over exemplars");
    }

    #[test]
    fn untagged_recordings_never_become_exemplars() {
        let mut h = Histogram::new();
        h.record_tagged(500, RequestId::UNTAGGED);
        assert_eq!(h.count(), 1, "the observation still counts");
        assert!(h.exemplars().is_empty());
    }

    #[test]
    fn tagged_json_surfaces_exemplars() {
        use hsdp_core::category::Platform;
        let mut r = MetricsRegistry::new();
        let request = RequestId::tag(Platform::Spanner, 1, 2);
        r.record_tagged(("m", "hist", ""), 42, request);
        let json = r.to_json();
        assert!(
            json.contains(&format!(
                "\"exemplars\": [[{}, {}, 42]]",
                bucket_index(42),
                request.0
            )),
            "exemplar rides in the histogram JSON:\n{json}"
        );
        crate::json::validate(&json).expect("registry JSON must parse");
    }

    #[test]
    fn category_keys_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in CoreComputeOp::ANALYTICS_OPS
            .iter()
            .chain(CoreComputeOp::DATABASE_OPS.iter())
        {
            seen.insert(category_key(CpuCategory::Core(*op)));
        }
        for tax in DatacenterTax::ALL {
            assert!(seen.insert(category_key(CpuCategory::Datacenter(tax))));
        }
        for tax in SystemTax::ALL {
            assert!(seen.insert(category_key(CpuCategory::System(tax))));
        }
        // 15 core ops (union of the two tables), 6 datacenter, 8 system.
        assert_eq!(seen.len(), 15 + 6 + 8);
    }
}
