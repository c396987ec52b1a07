//! Deterministic stack-tree profiles: frame interning, flamegraph-ready
//! collapsed output, and pprof export.
//!
//! The platforms charge every unit of CPU work at an interned
//! [`Site`]: the call-frame path active when the work was charged
//! (outermost-first, e.g. `spanner.commit → consensus`), the leaf and the
//! category. [`StackProfile`] aggregates those sites two ways at once:
//!
//! - **exact** nanoseconds from the meter (ground truth), and
//! - **sampled** counts from the GWP estimator,
//!
//! one cell per site. Frame names are interned into dense ids in
//! first-seen order, so feeding the same work stream always produces the
//! same profile — byte-identical folded text and pprof bytes at any thread
//! count.
//!
//! Export formats:
//!
//! - [`StackProfile::folded`] — Brendan Gregg collapsed-stack text
//!   (`frame;frame;leaf <weight>`), directly consumable by `flamegraph.pl`
//!   and speedscope.
//! - [`StackProfile::to_pprof`] — a `profile.proto` message built with
//!   [`hsdp_taxes::pprof`] (which dogfoods the repo's protowire encoder),
//!   with two value dimensions (`samples/count`, `cpu/nanoseconds`) and a
//!   `category` string label per sample.
//!
//! The share/delta helpers at the bottom power the `hsdp diff`
//! regression gate: they recover per-category and per-stack CPU shares from
//! *decoded* pprof bytes, so the gate exercises the full
//! encode → decode → compare loop.

use std::collections::BTreeMap;

use hsdp_core::category::CpuCategory;
use hsdp_core::stack::{Site, SiteMap};
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::pprof::{Function, Label, Location, Profile, Sample, ValueType};
use hsdp_telemetry::category_key;

/// Aggregated weight of one `(stack, category)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackWeight {
    /// GWP samples attributed to this cell.
    pub samples: u64,
    /// Exact metered CPU nanoseconds (ground truth).
    pub exact_ns: u64,
}

/// One site's cell.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    site: &'static Site,
    /// Interned frame ids of the site's path, outermost first, then its
    /// leaf.
    ids: Box<[u32]>,
    weight: StackWeight,
}

/// A deterministic aggregated stack-tree profile.
///
/// Cells accumulate in first-seen order, one per [`Site`], found by the
/// site's identity: a record costs one map lookup and allocates nothing
/// once its cell exists. Sites are interned by content, so equal
/// `(path, leaf, category)` text is one cell. The canonical
/// `(path ids + leaf, category)` order is produced by one sort at export
/// time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackProfile {
    /// Interned frame names, dense ids in first-seen order.
    frames: Vec<&'static str>,
    index: BTreeMap<&'static str, u32>,
    /// Each recorded site's index into `cells`.
    site_cells: SiteMap<usize>,
    cells: Vec<Cell>,
    total_samples: u64,
    total_exact_ns: u64,
}

/// The id of frame `name`, interned at the next id when new.
fn intern(
    frames: &mut Vec<&'static str>,
    index: &mut BTreeMap<&'static str, u32>,
    name: &'static str,
) -> u32 {
    *index.entry(name).or_insert_with(|| {
        frames.push(name);
        u32::try_from(frames.len() - 1).unwrap_or(u32::MAX)
    })
}

impl StackProfile {
    /// A fresh, empty profile.
    #[must_use]
    pub fn new() -> Self {
        StackProfile::default()
    }

    /// Records `exact` metered time and `samples` GWP samples charged at
    /// `site`. A site's first record makes its cell and interns its path
    /// frames, outermost first, then its leaf: the order a walk of every
    /// record's `path + leaf` would first meet them.
    pub fn record(&mut self, site: &'static Site, exact: SimDuration, samples: u64) {
        let (frames, index, cells) = (&mut self.frames, &mut self.index, &mut self.cells);
        let cell = *self.site_cells.entry(site).or_insert_with(|| {
            let ids = site
                .stack()
                .iter()
                .copied()
                .chain([site.leaf()])
                .map(|name| intern(frames, index, name))
                .collect();
            cells.push(Cell {
                site,
                ids,
                weight: StackWeight::default(),
            });
            cells.len() - 1
        });
        let weight = &mut self.cells[cell].weight;
        weight.samples += samples;
        weight.exact_ns += exact.as_nanos();
        self.total_samples += samples;
        self.total_exact_ns += exact.as_nanos();
    }

    /// The cells in canonical `(path ids + leaf, category)` order, the
    /// order every export emits.
    fn sorted_cells(&self) -> Vec<&Cell> {
        let mut order: Vec<&Cell> = self.cells.iter().collect();
        order.sort_by(|a, b| (&a.ids, a.site.category()).cmp(&(&b.ids, b.site.category())));
        order
    }

    /// Every cell's `(category, leaf, samples)`, in first-seen order — what
    /// the leaf-level cycle profile rolls up.
    pub(crate) fn leaf_samples(
        &self,
    ) -> impl Iterator<Item = (CpuCategory, &'static str, u64)> + '_ {
        self.cells
            .iter()
            .map(|cell| (cell.site.category(), cell.site.leaf(), cell.weight.samples))
    }

    /// Total GWP samples recorded.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Total exact metered CPU time.
    #[must_use]
    pub fn total_exact(&self) -> SimDuration {
        SimDuration::from_nanos(self.total_exact_ns)
    }

    /// Number of distinct interned frames (incl. leaves).
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Iterates cells as `(path incl. leaf, category, weight)`, in
    /// canonical `(path ids + leaf, category)` order.
    pub fn cells(
        &self,
    ) -> impl Iterator<Item = (Vec<&'static str>, CpuCategory, StackWeight)> + '_ {
        self.sorted_cells().into_iter().map(|cell| {
            let names = cell
                .ids
                .iter()
                .map(|&id| self.frames[id as usize])
                .collect();
            (names, cell.site.category(), cell.weight)
        })
    }

    /// Renders Brendan Gregg collapsed-stack text: one
    /// `frame;frame;leaf <weight>` line per distinct path, weighted by
    /// exact nanoseconds and merged across categories, sorted
    /// lexicographically. Load with `flamegraph.pl` or speedscope.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for (names, _, weight) in self.cells() {
            *merged.entry(names.join(";")).or_insert(0) += weight.exact_ns;
        }
        let mut out = String::new();
        for (path, ns) in &merged {
            out.push_str(path);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Exact CPU nanoseconds per category, keyed by the telemetry
    /// category key (`dc.protobuf`, `core.read`, …). Feeds the
    /// profile-history snapshot builder.
    #[must_use]
    pub fn category_exact_ns(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for cell in &self.cells {
            *totals
                .entry(category_key(cell.site.category()).to_owned())
                .or_insert(0) += cell.weight.exact_ns;
        }
        totals
    }

    /// Exact CPU nanoseconds per collapsed stack (root-first
    /// `frame;frame;leaf` keys, merged across categories).
    #[must_use]
    pub fn stack_exact_ns(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (names, _, weight) in self.cells() {
            *totals.entry(names.join(";")).or_insert(0) += weight.exact_ns;
        }
        totals
    }

    /// Exports the profile as an in-memory pprof message with two value
    /// dimensions — `samples/count` and `cpu/nanoseconds` — and a
    /// `category` string label per sample. Location ids are emitted leaf
    /// first, per pprof convention.
    #[must_use]
    pub fn to_pprof(&self, period: SimDuration) -> Profile {
        let mut strings: Vec<String> = Vec::new();
        let mut string_index: BTreeMap<String, u64> = BTreeMap::new();
        let mut intern_str = |s: &str| -> u64 {
            if let Some(&idx) = string_index.get(s) {
                return idx;
            }
            let idx = strings.len() as u64;
            strings.push(s.to_owned());
            string_index.insert(s.to_owned(), idx);
            idx
        };
        intern_str("");
        let st_samples = ValueType {
            kind: intern_str("samples"),
            unit: intern_str("count"),
        };
        let st_cpu = ValueType {
            kind: intern_str("cpu"),
            unit: intern_str("nanoseconds"),
        };
        let label_key = intern_str("category");

        // One function + one location per interned frame; pprof ids are
        // 1-based, so frame id N maps to location/function id N+1.
        let functions: Vec<Function> = self
            .frames
            .iter()
            .enumerate()
            .map(|(i, name)| Function {
                id: i as u64 + 1,
                name: intern_str(name),
            })
            .collect();
        let locations: Vec<Location> = functions
            .iter()
            .map(|f| Location {
                id: f.id,
                function_id: f.id,
            })
            .collect();

        let samples: Vec<Sample> = self
            .sorted_cells()
            .into_iter()
            .map(|cell| Sample {
                location_ids: cell.ids.iter().rev().map(|&id| u64::from(id) + 1).collect(),
                values: vec![
                    i64::try_from(cell.weight.samples).unwrap_or(i64::MAX),
                    i64::try_from(cell.weight.exact_ns).unwrap_or(i64::MAX),
                ],
                labels: vec![Label {
                    key: label_key,
                    str_value: intern_str(category_key(cell.site.category())),
                }],
            })
            .collect();

        Profile {
            sample_types: vec![st_samples, st_cpu],
            samples,
            locations,
            functions,
            string_table: strings,
            duration_nanos: i64::try_from(self.total_exact_ns).unwrap_or(i64::MAX),
            period_type: Some(st_cpu),
            period: i64::try_from(period.as_nanos()).unwrap_or(i64::MAX),
        }
    }
}

/// Index of the `cpu/nanoseconds` value dimension in a decoded profile
/// (falls back to the last dimension if none is named `cpu`).
fn cpu_value_index(profile: &Profile) -> usize {
    profile
        .sample_types
        .iter()
        .position(|vt| profile.string(vt.kind) == "cpu")
        .unwrap_or(profile.sample_types.len().saturating_sub(1))
}

/// Per-category CPU shares recovered from a decoded pprof profile via its
/// `category` sample labels. Shares sum to 1 (when any CPU time exists).
#[must_use]
pub fn pprof_category_shares(profile: &Profile) -> BTreeMap<String, f64> {
    let value_idx = cpu_value_index(profile);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut grand = 0u64;
    for sample in &profile.samples {
        let ns = sample
            .values
            .get(value_idx)
            .copied()
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or(0);
        let category = sample
            .labels
            .iter()
            .find(|l| profile.string(l.key) == "category")
            .map_or("", |l| profile.string(l.str_value));
        *totals.entry(category.to_owned()).or_insert(0) += ns;
        grand += ns;
    }
    shares_of(totals, grand)
}

/// Per-stack CPU shares (collapsed `frame;frame;leaf` keys, root first)
/// recovered from a decoded pprof profile.
#[must_use]
pub fn pprof_stack_shares(profile: &Profile) -> BTreeMap<String, f64> {
    let value_idx = cpu_value_index(profile);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut grand = 0u64;
    for sample in &profile.samples {
        let ns = sample
            .values
            .get(value_idx)
            .copied()
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or(0);
        let mut frames = profile.sample_frames(sample);
        frames.reverse(); // leaf-first on the wire -> root-first collapsed
        *totals.entry(frames.join(";")).or_insert(0) += ns;
        grand += ns;
    }
    shares_of(totals, grand)
}

fn shares_of(totals: BTreeMap<String, u64>, grand: u64) -> BTreeMap<String, f64> {
    ns_shares(&totals, grand)
}

/// Converts a map of exact nanosecond totals into shares of `grand`.
/// Empty when `grand` is 0. Shared by the pprof share recovery above and
/// the profile-history snapshot series.
#[must_use]
pub fn ns_shares(totals: &BTreeMap<String, u64>, grand: u64) -> BTreeMap<String, f64> {
    if grand == 0 {
        return BTreeMap::new();
    }
    totals
        .iter()
        .map(|(k, &ns)| (k.clone(), ns as f64 / grand as f64))
        .collect()
}

/// One share movement between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareDelta {
    /// Category or collapsed-stack name.
    pub name: String,
    /// Share in the baseline profile.
    pub before: f64,
    /// Share in the candidate profile.
    pub after: f64,
}

impl ShareDelta {
    /// Signed share movement (`after - before`).
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// Compares two share maps over the union of their keys, sorted by
/// absolute delta descending (ties by name).
#[must_use]
pub fn share_deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> Vec<ShareDelta> {
    let mut names: Vec<&String> = before.keys().chain(after.keys()).collect();
    names.sort();
    names.dedup();
    let mut deltas: Vec<ShareDelta> = names
        .into_iter()
        .map(|name| ShareDelta {
            name: name.clone(),
            before: before.get(name).copied().unwrap_or(0.0),
            after: after.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    deltas.sort_by(|a, b| {
        b.delta()
            .abs()
            .partial_cmp(&a.delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    deltas
}

/// The largest absolute share movement, or 0 for empty input.
#[must_use]
pub fn max_abs_delta(deltas: &[ShareDelta]) -> f64 {
    deltas.iter().map(|d| d.delta().abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::{CoreComputeOp, DatacenterTax};
    use hsdp_core::stack::path_of;

    fn micros(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// The interned site of `leaf` under `frames`.
    fn site(
        frames: &[&'static str],
        leaf: &'static str,
        category: impl Into<CpuCategory>,
    ) -> &'static Site {
        Site::intern(path_of(frames), leaf, category.into())
    }

    /// `text` at an address of its own.
    fn twin(text: &str) -> &'static str {
        Box::leak(text.to_owned().into_boxed_str())
    }

    fn sample_profile() -> StackProfile {
        let consensus = site(
            &["spanner.commit", "consensus"],
            "paxos_propose",
            CoreComputeOp::Consensus,
        );
        let mut p = StackProfile::new();
        p.record(consensus, micros(30), 3);
        p.record(
            site(
                &["spanner.commit", "rpc"],
                "proto_encode",
                DatacenterTax::Protobuf,
            ),
            micros(10),
            1,
        );
        p.record(consensus, micros(30), 3);
        p
    }

    #[test]
    fn record_merges_identical_cells() {
        let p = sample_profile();
        assert_eq!(p.total_samples(), 7);
        assert_eq!(p.total_exact(), micros(70));
        assert_eq!(p.cells().count(), 2, "identical paths merged");
    }

    #[test]
    fn folded_lines_are_root_first_and_sorted() {
        let folded = sample_profile().folded();
        assert_eq!(
            folded,
            "spanner.commit;consensus;paxos_propose 60000\n\
             spanner.commit;rpc;proto_encode 10000\n"
        );
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("weight field");
            assert!(path.contains(';'));
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn interning_is_first_seen_order() {
        let feed = |p: &mut StackProfile| {
            p.record(site(&["x"], "y", CoreComputeOp::Read), micros(1), 0);
            p.record(site(&["x"], "z", CoreComputeOp::Read), micros(1), 0);
        };
        let (mut a, mut b) = (StackProfile::new(), StackProfile::new());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b, "same feed, same profile");
        assert_eq!(a.frame_count(), 3);
    }

    #[test]
    fn equal_text_at_two_addresses_is_one_cell_and_one_frame() {
        let (frame, leaf) = (twin("stacks.twin"), twin("twin_leaf"));
        assert!(!std::ptr::eq(frame, "stacks.twin"));
        let mut p = StackProfile::new();
        p.record(
            site(&["stacks.twin"], "twin_leaf", CoreComputeOp::Read),
            micros(1),
            1,
        );
        p.record(site(&[frame], leaf, CoreComputeOp::Read), micros(2), 1);
        assert_eq!(p.cells().count(), 1);
        assert_eq!(p.frame_count(), 2);
        // A leaf named like a frame shares the frame's id.
        p.record(
            site(&["stacks.twin"], twin("stacks.twin"), CoreComputeOp::Read),
            micros(4),
            0,
        );
        assert_eq!(p.frame_count(), 2);
        assert_eq!(
            p.folded(),
            "stacks.twin;stacks.twin 4000\nstacks.twin;twin_leaf 3000\n"
        );
    }

    #[test]
    fn a_revisited_path_keeps_its_frame_ids() {
        let a = ["stacks.a", "stacks.mid"];
        let mut p = StackProfile::new();
        p.record(site(&a, "x", CoreComputeOp::Read), micros(1), 1);
        p.record(site(&["stacks.b"], "y", CoreComputeOp::Read), micros(2), 2);
        p.record(site(&a, "z", CoreComputeOp::Read), micros(3), 3);
        // stacks.a, stacks.mid, x, stacks.b, y, z.
        assert_eq!(p.frame_count(), 6);
        assert_eq!(
            p.folded(),
            "stacks.a;stacks.mid;x 1000\n\
             stacks.a;stacks.mid;z 3000\n\
             stacks.b;y 2000\n"
        );
        let pprof = p.to_pprof(micros(1));
        let functions: Vec<&str> = pprof
            .functions
            .iter()
            .map(|f| pprof.string(f.name))
            .collect();
        assert_eq!(
            functions,
            ["stacks.a", "stacks.mid", "x", "stacks.b", "y", "z"]
        );
        let locations: Vec<&[u64]> = pprof
            .samples
            .iter()
            .map(|s| s.location_ids.as_slice())
            .collect();
        assert_eq!(locations, [&[3, 2, 1][..], &[6, 2, 1], &[5, 4]]);
    }

    #[test]
    fn pprof_export_validates_and_round_trips() {
        let profile = sample_profile().to_pprof(micros(2));
        profile.validate().expect("export is internally consistent");
        let bytes = profile.encode();
        let decoded = Profile::decode(&bytes).expect("decodes");
        assert_eq!(decoded, profile);
        assert_eq!(decoded.period, 2_000);
        assert_eq!(decoded.duration_nanos, 70_000);
        assert_eq!(decoded.sample_types.len(), 2);
    }

    #[test]
    fn pprof_shares_match_source_profile() {
        let src = sample_profile();
        let decoded = Profile::decode(&src.to_pprof(micros(2)).encode()).expect("decodes");
        let by_category = pprof_category_shares(&decoded);
        let consensus = by_category
            .iter()
            .find(|(k, _)| k.contains("consensus"))
            .map(|(_, v)| *v)
            .expect("consensus category present");
        assert!((consensus - 6.0 / 7.0).abs() < 1e-9, "{consensus}");
        let by_stack = pprof_stack_shares(&decoded);
        assert!((by_stack["spanner.commit;consensus;paxos_propose"] - 6.0 / 7.0).abs() < 1e-9);
        assert!((by_stack["spanner.commit;rpc;proto_encode"] - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn deltas_rank_by_magnitude_and_cover_union() {
        let mut before = BTreeMap::new();
        before.insert("a".to_owned(), 0.6);
        before.insert("b".to_owned(), 0.4);
        let mut after = BTreeMap::new();
        after.insert("a".to_owned(), 0.5);
        after.insert("c".to_owned(), 0.5);
        let deltas = share_deltas(&before, &after);
        assert_eq!(deltas.len(), 3, "union of keys");
        assert_eq!(deltas[0].name, "c", "largest movement first");
        assert!((max_abs_delta(&deltas) - 0.5).abs() < 1e-12);
        assert!(max_abs_delta(&[]) == 0.0);
    }

    #[test]
    fn empty_profile_exports_cleanly() {
        let p = StackProfile::new();
        assert_eq!(p.folded(), "");
        let pp = p.to_pprof(micros(1));
        pp.validate().expect("empty profile still valid");
        assert!(pprof_category_shares(&pp).is_empty());
    }
}
