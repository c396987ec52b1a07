//! The GWP stack fold against its reference.
//!
//! `GwpProfiler` folds each work item into first-seen cells, finds a cell
//! through a frame-path interner consulted only when the path changes, and
//! rolls the leaf-level cycle profile up from the cells. The reference
//! below is the fold it replaced: one sampling-loop turn per sample, a
//! `(category, leaf)` map update per sampled item, and a `BTreeMap` insert
//! with a fresh `(path ids + leaf, category)` key per item. Every export
//! must agree byte for byte on a small fleet run's records and on synthetic
//! streams built to hit the fast path's edges.

use std::collections::BTreeMap;

use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::stack::{empty_path, path_of, FramePath, Site};
use hsdp_platforms::runner::{run_fleet_telemetry, FleetConfig};
use hsdp_profiling::gwp::{GwpConfig, GwpProfiler};
use hsdp_profiling::stacks::{StackProfile, StackWeight};
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::pprof::{Function, Label, Location, Profile, Sample, ValueType};
use hsdp_telemetry::category_key;

/// One labeled unit of CPU work: a charge site's content and its time.
#[derive(Debug, Clone)]
struct WorkItem {
    category: CpuCategory,
    leaf: &'static str,
    time: SimDuration,
    /// Call-frame path active when the work was charged (outermost first,
    /// leaf not included).
    stack: FramePath,
}

/// The per-item fold: a sampling loop, a leaf map and a stack map.
#[derive(Default)]
struct ReferenceFold {
    period_ns: u64,
    residual_ns: u64,
    leaf_samples: BTreeMap<(CpuCategory, &'static str), u64>,
    leaf_total: u64,
    frames: Vec<&'static str>,
    index: BTreeMap<&'static str, u32>,
    entries: BTreeMap<(Vec<u32>, CpuCategory), StackWeight>,
    total_samples: u64,
    total_exact_ns: u64,
}

impl ReferenceFold {
    fn new(period: SimDuration) -> Self {
        ReferenceFold {
            period_ns: period.as_nanos().max(1),
            ..ReferenceFold::default()
        }
    }

    fn intern(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.frames.len()).expect("few frames");
        self.frames.push(name);
        self.index.insert(name, id);
        id
    }

    fn observe(&mut self, work: &WorkItem) {
        let mut budget = self.residual_ns + work.time.as_nanos();
        let mut fired = 0u64;
        while budget >= self.period_ns {
            budget -= self.period_ns;
            fired += 1;
        }
        if fired > 0 {
            *self
                .leaf_samples
                .entry((work.category, work.leaf))
                .or_insert(0) += fired;
            self.leaf_total += fired;
        }
        let mut path: Vec<u32> = Vec::with_capacity(work.stack.len() + 1);
        for frame in work.stack.iter() {
            path.push(self.intern(frame));
        }
        path.push(self.intern(work.leaf));
        let cell = self.entries.entry((path, work.category)).or_default();
        cell.samples += fired;
        cell.exact_ns += work.time.as_nanos();
        self.total_samples += fired;
        self.total_exact_ns += work.time.as_nanos();
        self.residual_ns = budget;
    }

    fn cells(&self) -> Vec<(Vec<&'static str>, CpuCategory, StackWeight)> {
        self.entries
            .iter()
            .map(|((path, category), weight)| {
                let names = path.iter().map(|&id| self.frames[id as usize]).collect();
                (names, *category, *weight)
            })
            .collect()
    }

    fn folded(&self) -> String {
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

    fn to_pprof(&self, period: SimDuration) -> Profile {
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
            .entries
            .iter()
            .map(|((path, category), weight)| Sample {
                location_ids: path.iter().rev().map(|&id| u64::from(id) + 1).collect(),
                values: vec![
                    i64::try_from(weight.samples).unwrap_or(i64::MAX),
                    i64::try_from(weight.exact_ns).unwrap_or(i64::MAX),
                ],
                labels: vec![Label {
                    key: label_key,
                    str_value: intern_str(category_key(*category)),
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

    /// The leaf map's samples summed per category.
    fn category_samples(&self) -> BTreeMap<CpuCategory, u64> {
        let mut by_category = BTreeMap::new();
        for (&(category, _), &count) in &self.leaf_samples {
            *by_category.entry(category).or_insert(0) += count;
        }
        by_category
    }
}

/// Feeds `work` through both folds and checks every export.
fn assert_folds_agree(work: &[WorkItem], period: SimDuration, what: &str) {
    let mut profiler = GwpProfiler::new(GwpConfig {
        sample_period: period,
    });
    let mut reference = ReferenceFold::new(period);
    for item in work {
        profiler.observe_site(
            Site::intern(item.stack, item.leaf, item.category),
            item.time,
        );
        reference.observe(item);
    }
    let profile = profiler.profile();
    let stacks: StackProfile = profiler.into_stack_profile();
    assert_eq!(
        stacks.frame_count(),
        reference.frames.len(),
        "{what}: frames"
    );
    assert_eq!(stacks.total_samples(), reference.total_samples, "{what}");
    assert_eq!(stacks.total_exact().as_nanos(), reference.total_exact_ns);
    assert_eq!(
        stacks.cells().collect::<Vec<_>>(),
        reference.cells(),
        "{what}: cells in canonical order"
    );
    assert_eq!(stacks.folded(), reference.folded(), "{what}: folded");
    assert_eq!(
        stacks.to_pprof(period).encode(),
        reference.to_pprof(period).encode(),
        "{what}: pprof bytes"
    );
    assert_eq!(profile.total_samples(), reference.leaf_total, "{what}");
    for (category, count) in reference.category_samples() {
        assert_eq!(
            profile.category_samples(category),
            count,
            "{what}: rolled-up cycle profile, {category:?}"
        );
    }
}

fn item(
    category: impl Into<CpuCategory>,
    leaf: &'static str,
    ns: u64,
    stack: FramePath,
) -> WorkItem {
    WorkItem {
        category: category.into(),
        leaf,
        time: SimDuration::from_nanos(ns),
        stack,
    }
}

#[test]
fn small_fleet_run_folds_identically() {
    let runs = run_fleet_telemetry(FleetConfig {
        db_queries: 40,
        analytics_queries: 6,
        fact_rows: 300,
        shards: 2,
        seed: 0x57AC,
        parallelism: 1,
        ..FleetConfig::default()
    });
    let work: Vec<WorkItem> = runs
        .iter()
        .flat_map(|run| &run.executions)
        .flat_map(|exec| &exec.cpu_work)
        .map(|w| WorkItem {
            category: w.category,
            leaf: w.leaf,
            time: w.time,
            stack: w.stack,
        })
        .collect();
    assert!(
        work.len() > 1_000,
        "the fleet produced {} items",
        work.len()
    );
    for period_ns in [2_000, 333, 1] {
        assert_folds_agree(
            &work,
            SimDuration::from_nanos(period_ns),
            &format!("fleet at {period_ns} ns"),
        );
    }
}

#[test]
fn synthetic_edge_streams_fold_identically() {
    let read = CoreComputeOp::Read;
    let proto = DatacenterTax::Protobuf;
    let stl = SystemTax::Stl;
    // Equal content reached two ways, one through a frame text at a second
    // address: interning must hand both the same path.
    let consensus: &'static str = Box::leak(String::from("consensus").into_boxed_str());
    let commit_a = path_of(&["spanner.commit", "consensus"]);
    let commit_b = path_of(&["spanner.commit"]).child(consensus);
    assert_eq!(commit_a, commit_b);
    let scan = path_of(&["bigtable.scan"]);
    let deep = path_of(&["bigquery.join", "shuffle", "spanner.commit"]);
    let prefix = path_of(&["spanner.commit"]);
    let streams: Vec<(&str, Vec<WorkItem>)> = vec![
        (
            "equal content reached two ways",
            vec![
                item(read, "paxos", 1_500, commit_a),
                item(read, "paxos", 2_500, commit_b),
                item(proto, "encode", 700, commit_b),
                item(read, "paxos", 900, commit_a),
            ],
        ),
        (
            "alternating paths",
            (0..40)
                .map(|i| {
                    let stack = if i % 2 == 0 { scan } else { deep };
                    item(
                        read,
                        if i % 3 == 0 { "a" } else { "b" },
                        100 + i * 37,
                        stack,
                    )
                })
                .collect(),
        ),
        (
            "one leaf under two categories",
            vec![
                item(read, "memcpy", 3_000, scan),
                item(stl, "memcpy", 1_000, scan),
                item(read, "memcpy", 10, scan),
                item(stl, "memcpy", 4_000, prefix),
            ],
        ),
        (
            "empty paths",
            vec![
                item(stl, "malloc", 2_000, empty_path()),
                item(stl, "malloc", 2_000, path_of(&[])),
                item(read, "scan", 5, scan),
                item(stl, "malloc", 1, empty_path()),
                item(proto, "decode", 0, empty_path()),
            ],
        ),
        (
            "a leaf named like a frame",
            vec![
                item(read, "consensus", 1_000, prefix),
                item(read, "paxos", 1_000, commit_a),
                item(read, "spanner.commit", 1_000, empty_path()),
                item(read, "bigtable.scan", 500, scan),
                item(read, "shuffle", 500, path_of(&["bigquery.join"])),
                item(read, "leaf", 500, deep),
            ],
        ),
        ("no items", Vec::new()),
    ];
    let all: Vec<WorkItem> = streams.iter().flat_map(|(_, w)| w.clone()).collect();
    for period_ns in [1, 999, 2_000] {
        let period = SimDuration::from_nanos(period_ns);
        for (what, work) in &streams {
            assert_folds_agree(work, period, &format!("{what} at {period_ns} ns"));
        }
        assert_folds_agree(&all, period, &format!("all streams at {period_ns} ns"));
    }
}
