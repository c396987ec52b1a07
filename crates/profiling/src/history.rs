//! Per-commit profile history: an append-only snapshot store with
//! sliding-window regression and anomaly detection.
//!
//! The `hsdp diff` gate compares exactly one pair of profiles; this
//! module turns the same share math into *fleet observability over time*.
//! Each commit appends one [`ProfileSnapshot`] — per-category and per-stack
//! CPU shares from the GWP stack profile, telemetry histogram quantiles,
//! and bench entries from the `hsdp bench` harness, stamped with the
//! commit id, a monotonic sequence number, `host_parallelism`, and the
//! dispatched `cpu_features` — to a [`HistoryStore`] file.
//!
//! Storage dogfoods the repo's own codecs twice over: snapshots are
//! protowire messages ([`hsdp_taxes::protowire`]) wrapped in the
//! length-prefixed, CRC32C-checked frames of [`hsdp_taxes::framed`], so
//! truncation and corruption are detected (and recoverable) rather than
//! silently read.
//!
//! On top of the store:
//!
//! - [`detect_anomalies`] — robust sliding-window detection over every
//!   share series: median/MAD z-scores against a trailing baseline window,
//!   with a Wilson-interval noise floor so one noisy sample on a 1-CPU box
//!   doesn't page, and a *sustained* criterion (K consecutive flagged
//!   snapshots, not one blip) before anything is reported.
//! - [`regressions_since`] — "top regressed stacks/categories since commit
//!   X", reusing the [`share_deltas`] math the `hsdp diff` gate runs on.
//! - [`DriftReport`] — the single-pair gate itself, shared by the
//!   `hsdp diff` command (text and `--json` modes) so the drift math
//!   lives in exactly one place.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use hsdp_taxes::framed::{self, FramedError};
use hsdp_taxes::protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};

use crate::crosscheck::wilson_interval;
use crate::stacks::{max_abs_delta, ns_shares, share_deltas, ShareDelta};

// ---------------------------------------------------------------------------
// Snapshot model.
// ---------------------------------------------------------------------------

/// Identity stamps carried by every snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Git commit id the snapshot was taken at.
    pub commit: String,
    /// Monotonic sequence number (CI run number — passed in, never derived
    /// from wall clock).
    pub sequence: u64,
    /// Hardware threads on the host that took the snapshot.
    pub host_parallelism: u64,
    /// Dispatched CPU feature summary (e.g. `"sse4.2+pclmul+avx2"`).
    pub cpu_features: String,
}

/// Telemetry histogram quantiles captured in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantileRow {
    /// Observation count.
    pub count: u64,
    /// Interpolated median.
    pub p50: u64,
    /// Interpolated 95th percentile.
    pub p95: u64,
    /// Interpolated 99th percentile.
    pub p99: u64,
}

/// One per-commit profile snapshot.
///
/// All maps are `BTreeMap`s so the protowire encoding is canonical: two
/// snapshots with equal contents encode to identical bytes, which is what
/// makes the store's byte-identity guarantees testable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Identity stamps.
    pub meta: SnapshotMeta,
    /// Total exact metered CPU nanoseconds in the profile.
    pub total_exact_ns: u64,
    /// Total GWP samples behind the profile (drives the Wilson noise
    /// floor during anomaly detection).
    pub total_samples: u64,
    /// Exact CPU nanoseconds per cycle category (`dc.protobuf`, …).
    pub categories: BTreeMap<String, u64>,
    /// Exact CPU nanoseconds per collapsed stack (`root;frame;leaf`).
    pub stacks: BTreeMap<String, u64>,
    /// Telemetry histogram quantiles, keyed by metric path.
    pub quantiles: BTreeMap<String, QuantileRow>,
    /// Bench entries (`id -> ns/iter`) from the `hsdp bench` harness,
    /// including wall-clock entries. Optional: profile-only snapshots
    /// leave this empty so they stay parallelism-invariant.
    pub bench: BTreeMap<String, f64>,
    /// Tail-report summaries (`spanner/p99_tax_share_ppm`, …): integer-
    /// exact per-platform cohort tax shares and exemplar/heavy-hitter
    /// counts, so regression detection covers the tail as well as the
    /// mean. Parallelism-invariant like the quantiles.
    pub tail: BTreeMap<String, u64>,
}

impl ProfileSnapshot {
    /// Per-category CPU shares (summing to 1 when any CPU time exists).
    #[must_use]
    pub fn category_shares(&self) -> BTreeMap<String, f64> {
        ns_shares(&self.categories, self.total_exact_ns)
    }

    /// Per-stack CPU shares.
    #[must_use]
    pub fn stack_shares(&self) -> BTreeMap<String, f64> {
        ns_shares(&self.stacks, self.total_exact_ns)
    }
}

// ---------------------------------------------------------------------------
// Protowire codec.
// ---------------------------------------------------------------------------

fn share_entry_descriptor() -> Arc<MessageDescriptor> {
    static DESC: OnceLock<Arc<MessageDescriptor>> = OnceLock::new();
    Arc::clone(DESC.get_or_init(|| {
        Arc::new(
            MessageDescriptor::new(
                "ShareEntry",
                vec![
                    FieldDescriptor::required(1, "name", FieldType::String),
                    FieldDescriptor::optional(2, "exact_ns", FieldType::Uint64),
                ],
            )
            // audit: allow(panic, static descriptor literal is validated once at init)
            .expect("static descriptor is valid"),
        )
    }))
}

fn quantile_entry_descriptor() -> Arc<MessageDescriptor> {
    static DESC: OnceLock<Arc<MessageDescriptor>> = OnceLock::new();
    Arc::clone(DESC.get_or_init(|| {
        Arc::new(
            MessageDescriptor::new(
                "QuantileEntry",
                vec![
                    FieldDescriptor::required(1, "key", FieldType::String),
                    FieldDescriptor::optional(2, "count", FieldType::Uint64),
                    FieldDescriptor::optional(3, "p50", FieldType::Uint64),
                    FieldDescriptor::optional(4, "p95", FieldType::Uint64),
                    FieldDescriptor::optional(5, "p99", FieldType::Uint64),
                ],
            )
            // audit: allow(panic, static descriptor literal is validated once at init)
            .expect("static descriptor is valid"),
        )
    }))
}

fn bench_entry_descriptor() -> Arc<MessageDescriptor> {
    static DESC: OnceLock<Arc<MessageDescriptor>> = OnceLock::new();
    Arc::clone(DESC.get_or_init(|| {
        Arc::new(
            MessageDescriptor::new(
                "BenchEntry",
                vec![
                    FieldDescriptor::required(1, "id", FieldType::String),
                    FieldDescriptor::optional(2, "ns_per_iter", FieldType::Double),
                ],
            )
            // audit: allow(panic, static descriptor literal is validated once at init)
            .expect("static descriptor is valid"),
        )
    }))
}

/// The snapshot message schema (protowire dynamic descriptor).
#[must_use]
pub fn snapshot_descriptor() -> Arc<MessageDescriptor> {
    static DESC: OnceLock<Arc<MessageDescriptor>> = OnceLock::new();
    Arc::clone(DESC.get_or_init(|| {
        Arc::new(
            MessageDescriptor::new(
                "ProfileSnapshot",
                vec![
                    FieldDescriptor::required(1, "commit", FieldType::String),
                    FieldDescriptor::optional(2, "sequence", FieldType::Uint64),
                    FieldDescriptor::optional(3, "host_parallelism", FieldType::Uint64),
                    FieldDescriptor::optional(4, "cpu_features", FieldType::String),
                    FieldDescriptor::optional(5, "total_exact_ns", FieldType::Uint64),
                    FieldDescriptor::optional(6, "total_samples", FieldType::Uint64),
                    FieldDescriptor::repeated(
                        7,
                        "categories",
                        FieldType::Message(share_entry_descriptor()),
                    ),
                    FieldDescriptor::repeated(
                        8,
                        "stacks",
                        FieldType::Message(share_entry_descriptor()),
                    ),
                    FieldDescriptor::repeated(
                        9,
                        "quantiles",
                        FieldType::Message(quantile_entry_descriptor()),
                    ),
                    FieldDescriptor::repeated(
                        10,
                        "bench",
                        FieldType::Message(bench_entry_descriptor()),
                    ),
                    FieldDescriptor::repeated(
                        11,
                        "tail",
                        FieldType::Message(share_entry_descriptor()),
                    ),
                ],
            )
            // audit: allow(panic, static descriptor literal is validated once at init)
            .expect("static descriptor is valid"),
        )
    }))
}

/// Errors from the history store and snapshot codec.
#[derive(Debug)]
#[non_exhaustive]
pub enum HistoryError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Container-level damage (framing, checksums, truncation).
    Framed(FramedError),
    /// Protowire-level decode failure inside a frame payload.
    Wire(hsdp_taxes::error::WireError),
    /// A decoded message did not carry the expected snapshot shape.
    Schema(String),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history store I/O: {e}"),
            HistoryError::Framed(e) => write!(f, "history store container: {e}"),
            HistoryError::Wire(e) => write!(f, "snapshot decode: {e}"),
            HistoryError::Schema(what) => write!(f, "snapshot schema: {what}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<std::io::Error> for HistoryError {
    fn from(e: std::io::Error) -> Self {
        HistoryError::Io(e)
    }
}

impl From<FramedError> for HistoryError {
    fn from(e: FramedError) -> Self {
        HistoryError::Framed(e)
    }
}

impl From<hsdp_taxes::error::WireError> for HistoryError {
    fn from(e: hsdp_taxes::error::WireError) -> Self {
        HistoryError::Wire(e)
    }
}

fn set_str(msg: &mut Message, field: u32, value: &str) {
    msg.set(field, Value::Str(value.to_owned()))
        // audit: allow(panic, field number and type come from the static descriptor)
        .expect("field matches the static descriptor");
}

fn set_u64(msg: &mut Message, field: u32, value: u64) {
    msg.set(field, Value::Uint64(value))
        // audit: allow(panic, field number and type come from the static descriptor)
        .expect("field matches the static descriptor");
}

fn get_u64(msg: &Message, field: u32) -> u64 {
    match msg.get(field) {
        Some(Value::Uint64(v)) => *v,
        _ => 0,
    }
}

fn get_str(msg: &Message, field: u32) -> String {
    match msg.get(field) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

impl ProfileSnapshot {
    /// Encodes the snapshot to canonical protowire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut msg = Message::new(snapshot_descriptor());
        set_str(&mut msg, 1, &self.meta.commit);
        set_u64(&mut msg, 2, self.meta.sequence);
        set_u64(&mut msg, 3, self.meta.host_parallelism);
        set_str(&mut msg, 4, &self.meta.cpu_features);
        set_u64(&mut msg, 5, self.total_exact_ns);
        set_u64(&mut msg, 6, self.total_samples);
        for (field, map) in [
            (7u32, &self.categories),
            (8u32, &self.stacks),
            (11u32, &self.tail),
        ] {
            for (name, &exact_ns) in map {
                let mut entry = Message::new(share_entry_descriptor());
                set_str(&mut entry, 1, name);
                set_u64(&mut entry, 2, exact_ns);
                msg.push(field, Value::Message(entry))
                    // audit: allow(panic, field number and type come from the static descriptor)
                    .expect("field matches the static descriptor");
            }
        }
        for (key, row) in &self.quantiles {
            let mut entry = Message::new(quantile_entry_descriptor());
            set_str(&mut entry, 1, key);
            set_u64(&mut entry, 2, row.count);
            set_u64(&mut entry, 3, row.p50);
            set_u64(&mut entry, 4, row.p95);
            set_u64(&mut entry, 5, row.p99);
            msg.push(9, Value::Message(entry))
                // audit: allow(panic, field number and type come from the static descriptor)
                .expect("field matches the static descriptor");
        }
        for (id, &ns_per_iter) in &self.bench {
            let mut entry = Message::new(bench_entry_descriptor());
            set_str(&mut entry, 1, id);
            entry
                .set(2, Value::Double(ns_per_iter))
                // audit: allow(panic, field number and type come from the static descriptor)
                .expect("field matches the static descriptor");
            msg.push(10, Value::Message(entry))
                // audit: allow(panic, field number and type come from the static descriptor)
                .expect("field matches the static descriptor");
        }
        msg.encode_to_vec()
    }

    /// Decodes a snapshot from protowire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::Wire`] on malformed bytes and
    /// [`HistoryError::Schema`] when a repeated entry misses its key.
    pub fn decode(bytes: &[u8]) -> Result<Self, HistoryError> {
        let msg = Message::decode(snapshot_descriptor(), bytes)?;
        let mut snapshot = ProfileSnapshot {
            meta: SnapshotMeta {
                commit: get_str(&msg, 1),
                sequence: get_u64(&msg, 2),
                host_parallelism: get_u64(&msg, 3),
                cpu_features: get_str(&msg, 4),
            },
            total_exact_ns: get_u64(&msg, 5),
            total_samples: get_u64(&msg, 6),
            ..ProfileSnapshot::default()
        };
        for (field, map) in [
            (7u32, &mut snapshot.categories),
            (8u32, &mut snapshot.stacks),
            (11u32, &mut snapshot.tail),
        ] {
            for value in msg.get_all(field) {
                let Value::Message(entry) = value else {
                    return Err(HistoryError::Schema("share entry is not a message".into()));
                };
                map.insert(get_str(entry, 1), get_u64(entry, 2));
            }
        }
        for value in msg.get_all(9) {
            let Value::Message(entry) = value else {
                return Err(HistoryError::Schema(
                    "quantile entry is not a message".into(),
                ));
            };
            snapshot.quantiles.insert(
                get_str(entry, 1),
                QuantileRow {
                    count: get_u64(entry, 2),
                    p50: get_u64(entry, 3),
                    p95: get_u64(entry, 4),
                    p99: get_u64(entry, 5),
                },
            );
        }
        for value in msg.get_all(10) {
            let Value::Message(entry) = value else {
                return Err(HistoryError::Schema("bench entry is not a message".into()));
            };
            let ns = match entry.get(2) {
                Some(Value::Double(v)) => *v,
                _ => 0.0,
            };
            snapshot.bench.insert(get_str(entry, 1), ns);
        }
        Ok(snapshot)
    }
}

// ---------------------------------------------------------------------------
// The file-backed store.
// ---------------------------------------------------------------------------

/// What [`HistoryStore::append`] did to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Snapshots in the store after the append.
    pub snapshots: usize,
    /// True when a torn/corrupt tail was discarded before appending.
    pub recovered: bool,
}

/// An append-only, file-backed snapshot history.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    path: PathBuf,
}

impl HistoryStore {
    /// A store handle for `path` (the file is created on first append).
    #[must_use]
    pub fn open(path: impl Into<PathBuf>) -> Self {
        HistoryStore { path: path.into() }
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one snapshot. A missing file is created with the container
    /// header; a torn or corrupt tail is truncated back to the last intact
    /// frame first (the recovery path), so an interrupted writer can never
    /// wedge the store.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and header-level container errors
    /// (wrong magic / unsupported version — recovery cannot help there).
    pub fn append(&self, snapshot: &ProfileSnapshot) -> Result<AppendOutcome, HistoryError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            framed::write_header(&mut bytes);
            file.write_all(&bytes)?;
        }
        let scan = framed::scan(&bytes)?;
        let recovered = scan.damage.is_some();
        let prior = scan.frames.len();
        let valid_len = scan.valid_len;
        // audit: allow(cast, file offsets fit u64)
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        let mut frame = Vec::new();
        framed::append_frame(&mut frame, &snapshot.encode());
        file.write_all(&frame)?;
        file.sync_all()?;
        Ok(AppendOutcome {
            snapshots: prior + 1,
            recovered,
        })
    }

    /// Strict load: every frame must be intact and decode.
    ///
    /// # Errors
    ///
    /// Propagates I/O, container (including torn-tail damage), and decode
    /// errors.
    pub fn load(&self) -> Result<Vec<ProfileSnapshot>, HistoryError> {
        let bytes = std::fs::read(&self.path)?;
        let frames = framed::read_all(&bytes)?;
        frames
            .into_iter()
            .map(ProfileSnapshot::decode)
            .collect::<Result<Vec<_>, _>>()
    }

    /// Tolerant load: returns every intact snapshot plus the damage that
    /// stopped the walk, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O and header-level container errors; frame-level damage
    /// is returned in the tuple instead.
    pub fn load_tolerant(
        &self,
    ) -> Result<(Vec<ProfileSnapshot>, Option<FramedError>), HistoryError> {
        let bytes = std::fs::read(&self.path)?;
        let scan = framed::scan(&bytes)?;
        let snapshots = scan
            .frames
            .into_iter()
            .map(ProfileSnapshot::decode)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((snapshots, scan.damage))
    }
}

// ---------------------------------------------------------------------------
// Sliding-window anomaly detection.
// ---------------------------------------------------------------------------

/// Tuning for the sliding-window detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Trailing baseline window length (snapshots).
    pub window: usize,
    /// Robust z-score threshold against the window's median/MAD.
    pub z_threshold: f64,
    /// Absolute share-movement floor: drifts smaller than this never flag,
    /// however tight the baseline noise.
    pub min_abs_delta: f64,
    /// Consecutive flagged snapshots required before drift is *sustained*.
    pub sustained: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            window: 5,
            z_threshold: 3.5,
            min_abs_delta: 0.01,
            sustained: 3,
        }
    }
}

/// One point of a share series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// CPU share at this snapshot (0..=1).
    pub share: f64,
    /// Total GWP samples behind the snapshot (Wilson noise floor input).
    pub total_samples: u64,
}

/// One flagged snapshot in a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesFlag {
    /// Snapshot index in the series.
    pub index: usize,
    /// Share movement against the trailing window's median.
    pub delta: f64,
    /// Robust z-score of the movement.
    pub z: f64,
}

/// A sustained drift detected over one key's share series.
#[derive(Debug, Clone, PartialEq)]
pub struct SustainedDrift {
    /// Category or collapsed-stack key.
    pub key: String,
    /// Index of the first snapshot in the sustained run.
    pub start: usize,
    /// Number of consecutive flagged snapshots.
    pub run: usize,
    /// Share movement at the final flagged snapshot.
    pub last_delta: f64,
}

/// Median of a slice (sorted copy; midpoint average for even lengths).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Scale factor turning a MAD into a normal-consistent sigma estimate.
const MAD_SIGMA: f64 = 1.4826;

/// Half-width of the 95% Wilson interval for share `p` at `samples` trials
/// — the sampling-noise floor below which a movement is indistinguishable
/// from estimator variance. Wide (conservative) when `samples` is tiny, so
/// a 1-sample blip on a 1-CPU box cannot page.
#[must_use]
pub fn wilson_noise_floor(p: f64, samples: u64) -> f64 {
    // audit: allow(cast, clamped non-negative share count fits u64)
    let successes = ((p.clamp(0.0, 1.0) * samples as f64).round()) as u64;
    let (lo, hi) = wilson_interval(successes.min(samples), samples, 1.96);
    (hi - lo) / 2.0
}

/// Runs the robust sliding-window detector over one share series.
///
/// For each point past the first `window`, the trailing `window` points
/// form the baseline: the point is flagged when its movement against the
/// baseline median clears the robust z-threshold (MAD-scaled, with the
/// Wilson noise floor as a minimum sigma) *and* the absolute floor.
#[must_use]
pub fn series_flags(series: &[SeriesPoint], config: &AnomalyConfig) -> Vec<SeriesFlag> {
    let window = config.window.max(2);
    let mut flags = Vec::new();
    if series.len() <= window {
        return flags;
    }
    let shares: Vec<f64> = series.iter().map(|p| p.share).collect();
    for t in window..series.len() {
        let baseline = &shares[t - window..t];
        let base_median = median(baseline);
        let deviations: Vec<f64> = baseline.iter().map(|x| (x - base_median).abs()).collect();
        let mad = median(&deviations);
        let noise = wilson_noise_floor(base_median, series[t].total_samples);
        let sigma = (mad * MAD_SIGMA).max(noise).max(1e-12);
        let delta = series[t].share - base_median;
        let z = delta / sigma;
        if z.abs() >= config.z_threshold && delta.abs() >= config.min_abs_delta.max(noise) {
            flags.push(SeriesFlag { index: t, delta, z });
        }
    }
    flags
}

/// The longest run of consecutive, same-sign flags ending anywhere in the
/// series, if it reaches the sustained threshold.
#[must_use]
pub fn sustained_run(flags: &[SeriesFlag], config: &AnomalyConfig) -> Option<(usize, usize, f64)> {
    let needed = config.sustained.max(1);
    let mut best: Option<(usize, usize, f64)> = None;
    let mut run_start = 0usize;
    let mut run_len = 0usize;
    for (i, flag) in flags.iter().enumerate() {
        let extends = i > 0
            && flags[i - 1].index + 1 == flag.index
            && flags[i - 1].delta.signum() == flag.delta.signum();
        if extends {
            run_len += 1;
        } else {
            run_start = i;
            run_len = 1;
        }
        if run_len >= needed {
            let start_index = flags[run_start].index;
            best = Some((start_index, run_len, flag.delta));
        }
    }
    best
}

/// Extracts one key's share series across snapshots (absent keys are 0).
#[must_use]
pub fn share_series(snapshots: &[ProfileSnapshot], key: &str, stacks: bool) -> Vec<SeriesPoint> {
    snapshots
        .iter()
        .map(|s| {
            let map = if stacks { &s.stacks } else { &s.categories };
            let ns = map.get(key).copied().unwrap_or(0);
            let share = if s.total_exact_ns == 0 {
                0.0
            } else {
                // audit: allow(cast, nanosecond totals to f64 for a share; exact below 2^53)
                ns as f64 / s.total_exact_ns as f64
            };
            SeriesPoint {
                share,
                total_samples: s.total_samples,
            }
        })
        .collect()
}

/// Runs the detector over every category and stack series in the history,
/// returning all sustained drifts (empty = healthy). Categories are checked
/// first, then stacks, each in canonical key order.
#[must_use]
pub fn detect_anomalies(
    snapshots: &[ProfileSnapshot],
    config: &AnomalyConfig,
) -> Vec<SustainedDrift> {
    let mut drifts = Vec::new();
    for (stacks, label) in [(false, "category"), (true, "stack")] {
        let mut keys: Vec<&String> = snapshots
            .iter()
            .flat_map(|s| {
                if stacks {
                    s.stacks.keys()
                } else {
                    s.categories.keys()
                }
            })
            .collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let series = share_series(snapshots, key, stacks);
            let flags = series_flags(&series, config);
            if let Some((start, run, last_delta)) = sustained_run(&flags, config) {
                drifts.push(SustainedDrift {
                    key: format!("{label}:{key}"),
                    start,
                    run,
                    last_delta,
                });
            }
        }
    }
    drifts
}

// ---------------------------------------------------------------------------
// Reports: pairwise drift gate (shared with `hsdp diff`) and
// "regressed since commit X".
// ---------------------------------------------------------------------------

/// Thresholds for the pairwise drift gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftThresholds {
    /// Maximum tolerated absolute category-share movement.
    pub category: f64,
    /// Maximum tolerated absolute stack-share movement (None = report
    /// stacks but don't gate on them).
    pub stack: Option<f64>,
}

/// The pairwise share-drift report behind the `hsdp diff` gate.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Category share movements, largest magnitude first.
    pub category_deltas: Vec<ShareDelta>,
    /// Stack share movements, largest magnitude first.
    pub stack_deltas: Vec<ShareDelta>,
    /// The gate thresholds the report was built against.
    pub thresholds: DriftThresholds,
}

impl DriftReport {
    /// Builds the report from per-category and per-stack share maps of a
    /// baseline and a candidate profile.
    #[must_use]
    pub fn between(
        baseline_categories: &BTreeMap<String, f64>,
        candidate_categories: &BTreeMap<String, f64>,
        baseline_stacks: &BTreeMap<String, f64>,
        candidate_stacks: &BTreeMap<String, f64>,
        thresholds: DriftThresholds,
    ) -> Self {
        DriftReport {
            category_deltas: share_deltas(baseline_categories, candidate_categories),
            stack_deltas: share_deltas(baseline_stacks, candidate_stacks),
            thresholds,
        }
    }

    /// Largest absolute category movement.
    #[must_use]
    pub fn max_category_drift(&self) -> f64 {
        max_abs_delta(&self.category_deltas)
    }

    /// Largest absolute stack movement.
    #[must_use]
    pub fn max_stack_drift(&self) -> f64 {
        max_abs_delta(&self.stack_deltas)
    }

    /// True when every gated dimension is within its threshold.
    #[must_use]
    pub fn clean(&self) -> bool {
        if self.max_category_drift() > self.thresholds.category {
            return false;
        }
        match self.thresholds.stack {
            Some(t) => self.max_stack_drift() <= t,
            None => true,
        }
    }

    /// Every delta that exceeds its dimension's threshold (category always
    /// gated; stacks only when a stack threshold is set).
    #[must_use]
    pub fn findings(&self) -> Vec<(&'static str, &ShareDelta)> {
        let mut out: Vec<(&'static str, &ShareDelta)> = self
            .category_deltas
            .iter()
            .filter(|d| d.delta().abs() > self.thresholds.category)
            .map(|d| ("category", d))
            .collect();
        if let Some(t) = self.thresholds.stack {
            out.extend(
                self.stack_deltas
                    .iter()
                    .filter(|d| d.delta().abs() > t)
                    .map(|d| ("stack", d)),
            );
        }
        out
    }

    /// Machine-readable JSON in the `xtask audit --json` convention:
    /// summary scalars, a `clean` verdict, and a `findings` array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"hsdp-profile-diff/1\",\n");
        out.push_str(&format!(
            "  \"category_threshold\": {},\n",
            json_f64(self.thresholds.category)
        ));
        out.push_str(&format!(
            "  \"stack_threshold\": {},\n",
            self.thresholds.stack.map_or("null".to_owned(), json_f64)
        ));
        out.push_str(&format!(
            "  \"max_category_drift\": {},\n",
            json_f64(self.max_category_drift())
        ));
        out.push_str(&format!(
            "  \"max_stack_drift\": {},\n",
            json_f64(self.max_stack_drift())
        ));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str("  \"findings\": [");
        let findings = self.findings();
        for (i, (kind, d)) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"kind\": \"{kind}\", \"name\": \"{}\", \"before\": {}, \
                 \"after\": {}, \"delta\": {}}}",
                json_escape(&d.name),
                json_f64(d.before),
                json_f64(d.after),
                json_f64(d.delta()),
            ));
        }
        if !findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// "Top regressed since commit X": the share movements between a baseline
/// snapshot and the latest one.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Commit of the baseline snapshot.
    pub baseline_commit: String,
    /// Index of the baseline snapshot in the history.
    pub baseline_index: usize,
    /// Index of the latest snapshot in the history.
    pub latest_index: usize,
    /// Commit of the latest snapshot.
    pub latest_commit: String,
    /// Category movements, largest magnitude first.
    pub category_deltas: Vec<ShareDelta>,
    /// Stack movements, largest magnitude first.
    pub stack_deltas: Vec<ShareDelta>,
}

/// Builds the regression report against the snapshot at `since` (a commit
/// id, matched exactly; `None` = the first snapshot). Returns `None` when
/// the history is empty or the commit is unknown.
#[must_use]
pub fn regressions_since(
    snapshots: &[ProfileSnapshot],
    since: Option<&str>,
) -> Option<RegressionReport> {
    let latest = snapshots.last()?;
    let baseline_index = match since {
        Some(commit) => snapshots.iter().position(|s| s.meta.commit == commit)?,
        None => 0,
    };
    let baseline = &snapshots[baseline_index];
    Some(RegressionReport {
        baseline_commit: baseline.meta.commit.clone(),
        baseline_index,
        latest_index: snapshots.len() - 1,
        latest_commit: latest.meta.commit.clone(),
        category_deltas: share_deltas(&baseline.category_shares(), &latest.category_shares()),
        stack_deltas: share_deltas(&baseline.stack_shares(), &latest.stack_shares()),
    })
}

impl RegressionReport {
    /// Renders the human-readable "top regressed" tables.
    #[must_use]
    pub fn render_text(&self, top: usize) -> String {
        let mut out = format!(
            "profile history: {} -> {} (baseline index {})\n",
            self.baseline_commit, self.latest_commit, self.baseline_index
        );
        for (label, deltas) in [
            ("categories", &self.category_deltas),
            ("stacks", &self.stack_deltas),
        ] {
            out.push_str(&format!("top regressed {label}:\n"));
            let mut printed = 0usize;
            for d in deltas {
                if printed >= top {
                    break;
                }
                if d.delta() == 0.0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {:+.4}  {:>7.4} -> {:>7.4}  {}\n",
                    d.delta(),
                    d.before,
                    d.after,
                    d.name
                ));
                printed += 1;
            }
            if printed == 0 {
                out.push_str("  (no movement)\n");
            }
        }
        out
    }

    /// Machine-readable JSON (`xtask audit --json` convention).
    #[must_use]
    pub fn to_json(&self, top: usize) -> String {
        let mut out = String::from("{\n  \"schema\": \"hsdp-profile-history-report/1\",\n");
        out.push_str(&format!(
            "  \"baseline_commit\": \"{}\",\n  \"latest_commit\": \"{}\",\n",
            json_escape(&self.baseline_commit),
            json_escape(&self.latest_commit)
        ));
        for (label, deltas) in [
            ("categories", &self.category_deltas),
            ("stacks", &self.stack_deltas),
        ] {
            out.push_str(&format!("  \"{label}\": ["));
            let shown: Vec<&ShareDelta> = deltas
                .iter()
                .filter(|d| d.delta() != 0.0)
                .take(top)
                .collect();
            for (i, d) in shown.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"name\": \"{}\", \"before\": {}, \"after\": {}, \"delta\": {}}}",
                    json_escape(&d.name),
                    json_f64(d.before),
                    json_f64(d.after),
                    json_f64(d.delta()),
                ));
            }
            if !shown.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("],\n");
        }
        out.push_str(&format!(
            "  \"snapshots_spanned\": {}\n}}\n",
            self.latest_index - self.baseline_index + 1
        ));
        out
    }
}

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a finite JSON number.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(commit: &str, seq: u64, proto_ns: u64, other_ns: u64) -> ProfileSnapshot {
        let mut s = ProfileSnapshot {
            meta: SnapshotMeta {
                commit: commit.to_owned(),
                sequence: seq,
                host_parallelism: 4,
                cpu_features: "sse4.2+avx2".to_owned(),
            },
            total_exact_ns: proto_ns + other_ns,
            total_samples: (proto_ns + other_ns) / 10,
            ..ProfileSnapshot::default()
        };
        s.categories.insert("dc.protobuf".to_owned(), proto_ns);
        s.categories.insert("core.read".to_owned(), other_ns);
        s.stacks
            .insert("spanner.commit;rpc;proto_encode".to_owned(), proto_ns);
        s.stacks
            .insert("spanner.commit;storage;read".to_owned(), other_ns);
        s.quantiles.insert(
            "bigquery/query_latency_ns".to_owned(),
            QuantileRow {
                count: 100,
                p50: 1_000,
                p95: 5_000,
                p99: 9_000,
            },
        );
        s.bench
            .insert("fleet/wall_clock/sequential".to_owned(), 1.5e8);
        s.tail
            .insert("spanner/p99_tax_share_ppm".to_owned(), 471_234);
        s.tail.insert("spanner/requests".to_owned(), 120);
        s
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let s = snapshot("abc123", 7, 600_000, 400_000);
        let bytes = s.encode();
        let decoded = ProfileSnapshot::decode(&bytes).expect("decodes");
        assert_eq!(decoded, s);
        assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn shares_derive_from_exact_ns() {
        let s = snapshot("abc", 1, 750, 250);
        let shares = s.category_shares();
        assert!((shares["dc.protobuf"] - 0.75).abs() < 1e-12);
        assert!((shares["core.read"] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn store_appends_and_loads() {
        let dir = std::env::temp_dir().join(format!("hsdp-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let store = HistoryStore::open(dir.join("unit.bin"));
        std::fs::remove_file(store.path()).ok();
        for i in 0..3u64 {
            let outcome = store
                .append(&snapshot(&format!("c{i}"), i, 500 + i, 500))
                .expect("append");
            assert_eq!(outcome.snapshots as u64, i + 1);
            assert!(!outcome.recovered);
        }
        let loaded = store.load().expect("load");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2].meta.commit, "c2");
        std::fs::remove_file(store.path()).ok();
        std::fs::remove_dir(dir).ok();
    }

    fn flat_series(n: usize, share: f64) -> Vec<SeriesPoint> {
        (0..n)
            .map(|i| SeriesPoint {
                // Tiny deterministic jitter so MAD is nonzero.
                share: share + (i % 3) as f64 * 1e-4,
                total_samples: 100_000,
            })
            .collect()
    }

    #[test]
    fn flat_series_never_flags() {
        let series = flat_series(20, 0.25);
        assert!(series_flags(&series, &AnomalyConfig::default()).is_empty());
    }

    #[test]
    fn single_blip_flags_but_is_not_sustained() {
        let mut series = flat_series(20, 0.25);
        series[12].share = 0.32;
        let config = AnomalyConfig::default();
        let flags = series_flags(&series, &config);
        assert!(
            flags.iter().any(|f| f.index == 12),
            "the blip itself is flagged: {flags:?}"
        );
        assert!(
            sustained_run(&flags, &config).is_none(),
            "one blip is not sustained drift"
        );
    }

    #[test]
    fn sustained_shift_is_detected() {
        let mut series = flat_series(20, 0.25);
        for point in series.iter_mut().skip(14) {
            point.share += 0.06;
        }
        let config = AnomalyConfig::default();
        let flags = series_flags(&series, &config);
        let run = sustained_run(&flags, &config).expect("sustained drift detected");
        assert_eq!(run.0, 14, "run starts at the shift");
        assert!(run.1 >= config.sustained);
        assert!(run.2 > 0.0, "regression direction is positive");
    }

    #[test]
    fn wilson_floor_suppresses_tiny_sample_counts() {
        // Same +6% shift, but the snapshots carry almost no samples: the
        // Wilson half-width at 20 trials (~±20%) swallows the movement.
        let mut series = flat_series(20, 0.25);
        for point in &mut series {
            point.total_samples = 20;
        }
        for point in series.iter_mut().skip(14) {
            point.share += 0.06;
        }
        let flags = series_flags(&series, &AnomalyConfig::default());
        assert!(flags.is_empty(), "sampling noise must not page: {flags:?}");
    }

    #[test]
    fn detect_anomalies_names_the_drifting_key() {
        let mut snapshots: Vec<ProfileSnapshot> = (0..20u64)
            .map(|i| snapshot(&format!("c{i}"), i, 250_000 + (i % 3) * 100, 750_000))
            .collect();
        for s in snapshots.iter_mut().skip(14) {
            let proto = s.categories["dc.protobuf"] + 80_000;
            s.categories.insert("dc.protobuf".to_owned(), proto);
            let stack = s.stacks["spanner.commit;rpc;proto_encode"] + 80_000;
            s.stacks
                .insert("spanner.commit;rpc;proto_encode".to_owned(), stack);
            s.total_exact_ns += 80_000;
        }
        let drifts = detect_anomalies(&snapshots, &AnomalyConfig::default());
        assert!(
            drifts.iter().any(|d| d.key == "category:dc.protobuf"),
            "{drifts:?}"
        );
        assert!(drifts
            .iter()
            .any(|d| d.key == "stack:spanner.commit;rpc;proto_encode"));
    }

    #[test]
    fn drift_report_gates_and_serializes() {
        let mut before = BTreeMap::new();
        before.insert("dc.protobuf".to_owned(), 0.30);
        before.insert("core.read".to_owned(), 0.70);
        let mut after = BTreeMap::new();
        after.insert("dc.protobuf".to_owned(), 0.35);
        after.insert("core.read".to_owned(), 0.65);
        let empty = BTreeMap::new();
        let report = DriftReport::between(
            &before,
            &after,
            &empty,
            &empty,
            DriftThresholds {
                category: 0.01,
                stack: None,
            },
        );
        assert!(!report.clean());
        assert!((report.max_category_drift() - 0.05).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"kind\": \"category\""));
        assert!(json.contains("dc.protobuf"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let pass = DriftReport::between(
            &before,
            &before,
            &empty,
            &empty,
            DriftThresholds {
                category: 0.01,
                stack: Some(0.02),
            },
        );
        assert!(pass.clean());
        assert!(pass.to_json().contains("\"findings\": []"));
    }

    #[test]
    fn regression_report_since_commit() {
        let snapshots: Vec<ProfileSnapshot> = vec![
            snapshot("aaa", 0, 300, 700),
            snapshot("bbb", 1, 320, 680),
            snapshot("ccc", 2, 420, 580),
        ];
        let report = regressions_since(&snapshots, Some("aaa")).expect("baseline found");
        assert_eq!(report.baseline_commit, "aaa");
        assert_eq!(report.latest_commit, "ccc");
        let proto = report
            .category_deltas
            .iter()
            .find(|d| d.name == "dc.protobuf")
            .expect("protobuf category present");
        assert!(proto.delta() > 0.1, "{proto:?}");
        let text = report.render_text(5);
        assert!(text.contains("dc.protobuf"));
        let json = report.to_json(5);
        assert!(json.contains("\"baseline_commit\": \"aaa\""));
        assert!(regressions_since(&snapshots, Some("zzz")).is_none());
        assert!(regressions_since(&[], None).is_none());
    }
}
