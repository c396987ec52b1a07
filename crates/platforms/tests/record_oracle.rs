//! `WorkMeter`'s compact records against a plain reference log.
//!
//! The meter stores each charge as an interned `(path, leaf, category)`
//! site plus a duration and resolves both the path and the site through
//! caches keyed by address. The reference below keeps what a charge means:
//! `(category, leaf text, frame texts, ns)` per charge, in order. Seeded
//! random programs of nested scopes, charges (zero ones, and one leaf under
//! two categories), absorbed meters, totals-only meters and `take` must
//! read back through `items().iter()` exactly as the reference logged them.
//! Frame and leaf texts come in twins at a second address, which must fold
//! to the same path and site.

use std::collections::BTreeMap;
use std::sync::Barrier;

use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::stack::{empty_path, path_of, FramePath, Site};
use hsdp_platforms::meter::{CpuWork, WorkMeter};
use hsdp_rng::{Rng, StdRng};
use hsdp_simcore::time::SimDuration;

/// One charge as the reference logs it: texts, not handles.
type Logged = (CpuCategory, String, Vec<String>, u64);

/// A text at a second address, equal in content to a literal.
fn twin(text: &str) -> &'static str {
    Box::leak(String::from(text).into_boxed_str())
}

/// The names a program draws from: each frame and leaf pool holds a twin,
/// and the leaf `"oracle.memcpy"` is charged under two categories.
struct Names {
    frames: Vec<&'static str>,
    leaves: Vec<(&'static str, CpuCategory)>,
}

impl Names {
    fn new() -> Self {
        let read = CpuCategory::from(CoreComputeOp::Read);
        let stl = CpuCategory::from(SystemTax::Stl);
        let proto = CpuCategory::from(DatacenterTax::Protobuf);
        Names {
            frames: vec![
                "oracle.commit",
                "oracle.scan",
                "consensus",
                twin("consensus"),
                "oracle.commit",
            ],
            leaves: vec![
                ("oracle.memcpy", read),
                ("oracle.memcpy", stl),
                (twin("oracle.memcpy"), stl),
                ("oracle.encode", proto),
                (twin("oracle.encode"), proto),
                ("oracle.lookup", read),
            ],
        }
    }
}

/// The reference meter: a frame-text stack, a log and a total.
struct Reference {
    totals_only: bool,
    frames: Vec<&'static str>,
    log: Vec<Logged>,
    total: u64,
}

impl Reference {
    fn new(totals_only: bool) -> Self {
        Reference {
            totals_only,
            frames: Vec::new(),
            log: Vec::new(),
            total: 0,
        }
    }

    fn charge(&mut self, category: CpuCategory, leaf: &str, ns: u64) {
        if ns == 0 {
            return;
        }
        self.total += ns;
        if !self.totals_only {
            let frames = self.frames.iter().map(|f| (*f).to_owned()).collect();
            self.log.push((category, leaf.to_owned(), frames, ns));
        }
    }
}

/// What a meter's records say, in the reference's terms.
fn logged(work: &CpuWork) -> Vec<Logged> {
    work.iter()
        .map(|item| {
            (
                item.category,
                item.leaf.to_owned(),
                item.stack.iter().map(|f| (*f).to_owned()).collect(),
                item.time.as_nanos(),
            )
        })
        .collect()
}

/// Runs `steps` random operations on `meter` and `reference` alike,
/// checking them against each other after every `take` and at the end.
/// `depth` bounds how deep absorbed meters nest.
fn run_program(
    rng: &mut StdRng,
    names: &Names,
    meter: &mut WorkMeter,
    reference: &mut Reference,
    steps: usize,
    depth: usize,
) {
    for step in 0..steps {
        match rng.random_range(0..100u32) {
            0..=19 => {
                let name = names.frames[rng.random_range(0..names.frames.len())];
                meter.push_frame(name);
                reference.frames.push(name);
            }
            20..=34 => {
                // Popping an empty stack is a no-op on both.
                meter.pop_frame();
                reference.frames.pop();
            }
            35..=79 => {
                let (leaf, category) = names.leaves[rng.random_range(0..names.leaves.len())];
                let ns = if rng.random_range(0..8u32) == 0 {
                    0
                } else {
                    rng.random_range(1..=50_000u64)
                };
                meter.charge(category, leaf, SimDuration::from_nanos(ns));
                reference.charge(category, leaf, ns);
            }
            80..=89 if depth > 0 => {
                // A partial built apart, as a scan's is, under frames of its
                // own; its charges keep the stacks they were made under.
                let totals_only = rng.random_range(0..4u32) == 0;
                let (mut partial, mut partial_ref) = if totals_only {
                    (WorkMeter::totals_only(), Reference::new(true))
                } else {
                    (WorkMeter::new(), Reference::new(false))
                };
                let steps = rng.random_range(0..40usize);
                run_program(rng, names, &mut partial, &mut partial_ref, steps, depth - 1);
                meter.absorb(partial);
                reference.total += partial_ref.total;
                if !reference.totals_only {
                    reference.log.extend(partial_ref.log);
                }
            }
            90..=94 => {
                let expected = std::mem::take(&mut reference.log);
                assert_eq!(meter.total().as_nanos(), reference.total, "step {step}");
                let work = meter.take();
                assert_eq!(logged(&work), expected, "step {step}: taken work");
                assert_eq!(work.len(), expected.len());
                assert_eq!(meter.total(), SimDuration::ZERO, "take resets the total");
                assert!(meter.items().is_empty());
                reference.total = 0;
            }
            _ => {
                // The view round-trips: collecting the items re-interns the
                // same sites.
                let again: CpuWork = meter.items().iter().collect();
                assert_eq!(&again, meter.items(), "step {step}");
            }
        }
        assert_eq!(
            meter.frames(),
            reference.frames.as_slice(),
            "step {step}: frame stack"
        );
    }
    assert_eq!(logged(meter.items()), reference.log, "end of program");
    assert_eq!(meter.total().as_nanos(), reference.total, "end of program");
}

#[test]
fn random_programs_read_back_as_the_reference_logged_them() {
    let names = Names::new();
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for round in 0..200 {
        let totals_only = round % 5 == 4;
        let (mut meter, mut reference) = if totals_only {
            (WorkMeter::totals_only(), Reference::new(true))
        } else {
            (WorkMeter::new(), Reference::new(false))
        };
        let steps = rng.random_range(1..300usize);
        run_program(&mut rng, &names, &mut meter, &mut reference, steps, 2);
        if totals_only {
            assert!(meter.items().is_empty(), "round {round}: no records");
        }
    }
}

#[test]
fn extend_appends_in_order() {
    let names = Names::new();
    let mut rng = StdRng::seed_from_u64(0xE87E);
    let (mut a, mut b) = (WorkMeter::new(), WorkMeter::new());
    let (mut ra, mut rb) = (Reference::new(false), Reference::new(false));
    run_program(&mut rng, &names, &mut a, &mut ra, 120, 1);
    run_program(&mut rng, &names, &mut b, &mut rb, 120, 1);
    let mut work = a.take();
    work.extend(b.take());
    ra.log.extend(rb.log);
    assert_eq!(logged(&work), ra.log);
}

#[test]
fn threads_interning_the_same_content_share_handles() {
    let names = Names::new();
    // Every path a program can reach within two frames, and every site
    // under it, resolved on two threads in opposite orders.
    let mut contents: Vec<(Vec<&'static str>, &'static str, CpuCategory)> = Vec::new();
    for &outer in &names.frames {
        for &inner in &names.frames {
            for &(leaf, category) in &names.leaves {
                contents.push((vec![outer, inner], leaf, category));
                contents.push((vec![outer], leaf, category));
            }
        }
    }
    let start = Barrier::new(2);
    let resolve = |reverse: bool| -> Vec<(FramePath, &'static Site)> {
        start.wait();
        let order: Vec<usize> = if reverse {
            (0..contents.len()).rev().collect()
        } else {
            (0..contents.len()).collect()
        };
        let mut resolved = vec![None; contents.len()];
        for i in order {
            let (frames, leaf, category) = &contents[i];
            let path = path_of(frames);
            resolved[i] = Some((path, Site::intern(path, leaf, *category)));
        }
        resolved.into_iter().flatten().collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| resolve(false));
        let b = s.spawn(|| resolve(true));
        (a.join(), b.join())
    });
    let (a, b) = (a.expect("first thread"), b.expect("second thread"));
    for ((path_a, site_a), (path_b, site_b)) in a.iter().zip(&b) {
        assert_eq!(path_a, path_b);
        assert!(std::ptr::eq(&**path_a, &**path_b));
        assert!(std::ptr::eq(*site_a, *site_b));
    }

    // Different content never shares a handle; twin texts share one.
    let mut by_site: BTreeMap<(Vec<String>, String, CpuCategory), &'static Site> = BTreeMap::new();
    let mut seen: Vec<&'static Site> = Vec::new();
    for ((frames, leaf, category), (path, site)) in contents.iter().zip(&a) {
        assert_eq!(&**path, frames.as_slice());
        assert_eq!(
            (site.stack(), site.leaf(), site.category()),
            (*path, *leaf, *category)
        );
        let key = (
            frames.iter().map(|f| (*f).to_owned()).collect(),
            (*leaf).to_owned(),
            *category,
        );
        // `Site` compares by address, so `==` and `contains` match handles.
        match by_site.get(&key) {
            Some(&known) => assert_eq!(known, *site, "{key:?}"),
            None => {
                assert!(!seen.contains(site), "{key:?} shares a handle");
                seen.push(site);
                by_site.insert(key, site);
            }
        }
    }
    assert_ne!(path_of(&["consensus"]), empty_path());
    assert_eq!(
        path_of(&["consensus"]),
        path_of(&[twin("consensus")]),
        "a twin frame text names the same path"
    );
}
