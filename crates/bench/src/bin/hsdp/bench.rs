//! `hsdp bench`: records the perf trajectory of the hot kernels and the
//! parallel fleet driver into `BENCH_fleet.json`:
//!
//! ```sh
//! hsdp bench [--out BENCH_fleet.json] [--commit SHA] [--seq N]
//! ```
//!
//! `--commit` / `--seq` stamp provenance onto every entry so bench history
//! joins the per-commit profile history (`hsdp history`) on the same keys;
//! the sequence number is the CI run number, passed in rather than derived
//! from wall clock.
//!
//! Entries: the two CRC32C tiers (slicing-by-8 and the dispatched hardware
//! path), protowire encode/varint, compress/decompress, the blocked bloom
//! probe, the loser-tree compaction merge and Keccak-f[1600], the
//! sequential-vs-parallel fleet wall-clock comparison (same seed — the
//! outputs are byte-identical by construction, only the wall-clock
//! differs), every schedulable unit's wall-clock (the straggler gate) and
//! each platform's warmup, the three serial artifact folds (GWP stacks,
//! trace export, tail report) on one sequential run's records, and the
//! Table 8 software pipeline's chained-vs-sequential and model-vs-measured
//! times. Gates exit 1; the per-platform warmup, artifact-fold and pipeline
//! times are reported ungated, since they measure the host.

use hsdp_accelsim::validate::software_validation;
use hsdp_bench::harness::{time_ns, BenchRecord, BenchReport};
use hsdp_bench::tail::render_json;
use hsdp_bench::telemetry_out::{critical_path_json, trace_groups};
use hsdp_bench::FleetRun;
use hsdp_core::category::Platform;
use hsdp_platforms::bloom::Bloom;
use hsdp_platforms::merge::{merge_sorted_runs, Entry};
use hsdp_platforms::runner::{
    default_parallelism, merge_fleet_metrics, platform_key, platform_plan, run_bigquery_shard,
    run_bigtable_tablet, run_fleet_telemetry, run_spanner_shard, FleetConfig,
};
use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{compress, decompress};
use hsdp_taxes::crc::{crc32c_append, crc32c_append_slicing8};
use hsdp_taxes::dispatch::CpuFeatures;
use hsdp_taxes::sha3::keccak_f1600;
use hsdp_taxes::varint::encode_varint;
use hsdp_telemetry::chrome_trace_json;
use hsdp_workload::proto_corpus;

use crate::args::{CliError, Flags};

const CRC_BUF_LEN: usize = 64 * 1024;
const SEED: u64 = 0x15CA23;

/// Min of `n` timing passes — the least-noise estimator on a shared box.
fn best_of(n: usize, mut pass: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// A bench gate or self-check: fails the command (exit 1) unless `ok`.
fn gate(ok: bool, message: impl FnOnce() -> String) -> Result<(), CliError> {
    if ok {
        Ok(())
    } else {
        Err(CliError::Failed(format!("bench: {}", message())))
    }
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        "bench",
        args,
        &[("--out", true), ("--commit", true), ("--seq", true)],
        0,
    )?;
    let out_path = flags.value("--out").unwrap_or("BENCH_fleet.json");
    let mut report = BenchReport::new();
    report.set_provenance(
        flags.value("--commit").unwrap_or_default(),
        flags.number("--seq")?.unwrap_or(0),
    );
    let features = CpuFeatures::get();
    println!(
        "host: {} hardware thread(s), cpu features: {}",
        default_parallelism(),
        report.cpu_features(),
    );

    // --- CRC32C: slicing-by-8 vs hardware CRC32. ---------------------------
    // `crc32c_append` dispatches to the SSE4.2/ARMv8 instruction when the
    // host has it, so the slicing-by-8 entry calls that tier explicitly.
    let buf: Vec<u8> = (0..CRC_BUF_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let sliced_ns = best_of(5, || time_ns(200, || crc32c_append_slicing8(0, &buf)));
    let hw_ns = best_of(5, || time_ns(200, || crc32c_append(0, &buf)));
    gate(
        crc32c_append(0, &buf) == crc32c_append_slicing8(0, &buf),
        || "crc32c tiers must agree".to_owned(),
    )?;
    report.push(BenchRecord {
        id: format!("crc32c/slicing8/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: sliced_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
    report.push(BenchRecord {
        id: format!("crc32c/hw/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: hw_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
    println!(
        "crc32c: slicing8 {sliced_ns:.0} ns/iter, hw {hw_ns:.0} ns/iter ({:.2}x over slicing8)",
        sliced_ns / hw_ns,
    );
    if features.sse42 || features.aarch64_crc {
        gate(sliced_ns / hw_ns >= 2.0, || {
            format!(
                "hardware CRC32C must be >= 2x over slicing-by-8 on the 64 KiB buffer \
                 (got {:.2}x)",
                sliced_ns / hw_ns,
            )
        })?;
    } else {
        eprintln!(
            "crc32c hw gate: SKIPPED (no CRC32 instruction dispatched; features: {})",
            features.summary(),
        );
    }

    // --- Protowire: fleet-representative message encoding. ----------------
    let mut rng = StdRng::seed_from_u64(SEED);
    let corpus = proto_corpus::corpus(64, &mut rng);
    let encoded_bytes: usize = corpus.iter().map(|m| m.encoded_len()).sum();
    let encode_ns = best_of(5, || {
        time_ns(200, || {
            corpus
                .iter()
                .map(|m| m.encode_to_vec().len())
                .sum::<usize>()
        })
    });
    report.push(BenchRecord {
        id: format!("protowire/encode/corpus{}", corpus.len()),
        ns_per_iter: encode_ns,
        // audit: allow(cast, lossless usize->u64 byte count for the report)
        bytes_per_iter: Some(encoded_bytes as u64),
        parallelism: 1,
        seed: SEED,
    });
    println!(
        "protowire: encode {encode_ns:.0} ns/iter over {encoded_bytes} bytes ({} msgs)",
        corpus.len()
    );

    // --- Varint: the 1-2 byte fast-path regime. ----------------------------
    let values: Vec<u64> = (0..1024u64).map(|i| (i * 37) % 20_000).collect();
    let varint_ns = best_of(5, || {
        time_ns(1_000, || {
            let mut sink = Vec::with_capacity(4 * values.len());
            let mut total = 0usize;
            for &v in &values {
                total += encode_varint(v, &mut sink);
            }
            total
        })
    });
    report.push(BenchRecord {
        id: "varint/encode/1024-small".to_owned(),
        ns_per_iter: varint_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });

    // --- Compression: the block codec on a fleet-log corpus. ---------------
    // A 64 KiB log-like corpus of hot-key row traffic: a few thousand
    // distinct timestamps and a couple hundred users, so lines repeat with
    // small variations — the compressibility regime SSTable blocks live in.
    // The ids keep the names they had when other tiers were benched beside
    // them, so the BENCH history continues.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut corpus = Vec::with_capacity(CRC_BUF_LEN + 128);
    while corpus.len() < CRC_BUF_LEN {
        let ts = rng.random_range(0u32..2_000);
        let shard = rng.random_range(0u32..64);
        let user = rng.random_range(0u64..200);
        corpus.extend_from_slice(
            format!("ts=1681{ts:06} shard={shard:02} user={user:06} op=read status=OK\n")
                .as_bytes(),
        );
    }
    corpus.truncate(CRC_BUF_LEN);
    let packed = compress(&corpus);
    gate(decompress(&packed).as_ref() == Ok(&corpus), || {
        "compress/decompress must round-trip the corpus".to_owned()
    })?;
    let compress_ns = best_of(5, || time_ns(50, || compress(&corpus).len()));
    let decompress_ns = best_of(5, || time_ns(50, || decompress(&packed).map(|v| v.len())));
    for (id, ns) in [
        ("compress/word-at-a-time/64KiB", compress_ns),
        ("decompress/chunked-copy/64KiB", decompress_ns),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: ns,
            bytes_per_iter: Some(CRC_BUF_LEN as u64),
            parallelism: 1,
            seed: SEED,
        });
    }
    println!(
        "compress: {compress_ns:.0} ns/iter, decompress: {decompress_ns:.0} ns/iter \
         ({} -> {} bytes)",
        corpus.len(),
        packed.len(),
    );

    // --- Bloom: cache-line-blocked filter probes. --------------------------
    let keys: Vec<Vec<u8>> = (0..10_000u64)
        .map(|i| format!("row-key-{i:08}").into_bytes())
        .collect();
    let mut bloom = Bloom::new(keys.len());
    for key in &keys {
        bloom.insert(key);
    }
    gate(
        keys.iter().filter(|k| bloom.may_contain(k)).count() == keys.len(),
        || "blocked filter must report every inserted key".to_owned(),
    )?;
    let bloom_ns = best_of(5, || {
        time_ns(50, || keys.iter().filter(|k| bloom.may_contain(k)).count())
    });
    report.push(BenchRecord {
        id: "bloom/blocked-probe/10k-keys".to_owned(),
        ns_per_iter: bloom_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });
    println!("bloom: {bloom_ns:.0} ns/iter over {} probes", keys.len());

    // --- Compaction merge: loser tree. -------------------------------------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xFEED);
    let runs: Vec<Vec<Entry>> = (0..8usize)
        .map(|r| {
            let mut run: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            for _ in 0..2_000 {
                let key_id = rng.random_range(0u32..6_000);
                run.insert(
                    format!("row-{key_id:06}").into_bytes(),
                    format!("run-{r}-payload-{key_id}").into_bytes(),
                );
            }
            run.into_iter().collect()
        })
        .collect();
    let merged_len = merge_sorted_runs(runs.clone()).len();
    let merge_ns = best_of(5, || time_ns(20, || merge_sorted_runs(runs.clone()).len()));
    report.push(BenchRecord {
        id: "compaction/merge-loser-tree/8x2000".to_owned(),
        ns_per_iter: merge_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED ^ 0xFEED,
    });
    println!(
        "compaction merge: loser tree {:.1} us/iter -> {merged_len} entries",
        merge_ns / 1e3,
    );

    // --- SHA3: one Keccak-f[1600] permutation. -----------------------------
    // The id predates the deletion of the flat permutation it was paired
    // with; it still times the same 5x5 code.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5A3);
    let mut state = [0u64; 25];
    for lane in &mut state {
        *lane = rng.random();
    }
    let keccak_ns = best_of(5, || {
        time_ns(2_000, || {
            let mut s = state;
            keccak_f1600(&mut s);
            s[0]
        })
    });
    report.push(BenchRecord {
        id: "sha3/keccak-f1600-reference".to_owned(),
        ns_per_iter: keccak_ns,
        bytes_per_iter: Some(200),
        parallelism: 1,
        seed: SEED ^ 0x5A3,
    });
    println!("sha3: keccak-f1600 {keccak_ns:.0} ns/perm");

    // --- Fleet: sequential vs parallel wall clock, identical output. ------
    let fleet_config = FleetConfig {
        seed: SEED,
        ..FleetConfig::default()
    };
    let parallel_threads = default_parallelism().max(4);
    let sequential_ns = time_ns(1, || {
        run_fleet_telemetry(FleetConfig {
            parallelism: 1,
            ..fleet_config
        })
    });
    let parallel_ns = time_ns(1, || {
        run_fleet_telemetry(FleetConfig {
            parallelism: parallel_threads,
            ..fleet_config
        })
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/sequential".to_owned(),
        ns_per_iter: sequential_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED,
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/parallel".to_owned(),
        ns_per_iter: parallel_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    println!(
        "fleet: sequential {:.1} ms, parallel(x{parallel_threads}) {:.1} ms \
         ({:.2}x speedup on {} hardware thread(s))",
        sequential_ns / 1e6,
        parallel_ns / 1e6,
        sequential_ns / parallel_ns,
        default_parallelism(),
    );

    // --- Fleet: parallelism matched to the hardware. -----------------------
    // The forced-x4 entry above is kept comparable across machines; this one
    // runs at the host's actual thread count, so the two together expose
    // oversubscription (on a 1-thread host, x4 pays pure scheduling overhead
    // over this entry).
    let hw_threads = default_parallelism();
    let parallel_hw_ns = time_ns(1, || {
        run_fleet_telemetry(FleetConfig {
            parallelism: hw_threads,
            ..fleet_config
        })
    });
    report.push(BenchRecord {
        id: "fleet/wall_clock/parallel_hw".to_owned(),
        ns_per_iter: parallel_hw_ns,
        bytes_per_iter: None,
        parallelism: hw_threads,
        seed: SEED,
    });
    println!(
        "fleet: parallel(hw x{hw_threads}) {:.1} ms ({:.2}x vs sequential)",
        parallel_hw_ns / 1e6,
        sequential_ns / parallel_hw_ns,
    );

    // Parallel-speedup gate, laddered to the host. A 1-thread runner cannot
    // overlap shard jobs at all, so the gate skips with a note — the
    // `host_parallelism` field stamped on every BENCH_fleet.json entry
    // records that this run could not measure speedup. Small 2-3 thread
    // runners must show modest overlap; 4+ threads must reach the 2x target
    // now that the BigTable straggler is split into per-tablet jobs.
    let hw_speedup = sequential_ns / parallel_hw_ns;
    if hw_threads == 1 {
        println!(
            "fleet speedup gate: SKIPPED (1 hardware thread; shard jobs \
             cannot overlap, see host_parallelism in the report)"
        );
    } else {
        let floor = if hw_threads >= 4 { 2.0 } else { 1.2 };
        gate(hw_speedup >= floor, || {
            format!(
                "parallel fleet speedup {hw_speedup:.2}x is below the {floor:.1}x \
                 floor on {hw_threads} hardware threads"
            )
        })?;
        println!(
            "fleet speedup gate: {hw_speedup:.2}x >= {floor:.1}x on \
             {hw_threads} hardware threads"
        );
    }

    // --- Fleet: per-unit shard wall-clocks (straggler gate). ---------------
    // Times every *schedulable unit* of the fleet in isolation — Spanner and
    // BigQuery shards run whole, BigTable shards run as one job per tablet,
    // exactly the granularity the dispatcher queues. The heaviest unit over
    // the summed unit time bounds parallel speedup (N workers can never beat
    // 1/max_fraction), so the bench fails when any single unit exceeds 40%
    // of the total: that is the straggler the per-tablet split removed. Each
    // unit also runs with zero queries — its warmup alone (preload, or the
    // fact-table load) — summed per platform into the ungated
    // `fleet/warmup/*` entries.
    const STRAGGLER_CEILING: f64 = 0.40;
    let mut units: Vec<(String, f64)> = Vec::new();
    for &platform in &Platform::ALL {
        let plan = platform_plan(&fleet_config, platform);
        let mut total_ns = 0.0f64;
        let mut warmup_ns = 0.0f64;
        for (shard_idx, shard) in plan.shards().iter().enumerate() {
            match platform {
                Platform::Spanner => {
                    let unit = |queries| {
                        time_ns(1, || {
                            run_spanner_shard(queries, shard.seed, shard_idx, true)
                        })
                    };
                    let unit_ns = unit(shard.items);
                    warmup_ns += unit(0);
                    total_ns += unit_ns;
                    units.push((format!("spanner/s{shard_idx}"), unit_ns));
                }
                Platform::BigTable => {
                    let tablets = fleet_config.tablets.max(1);
                    for tablet in 0..tablets {
                        let unit = |queries| {
                            time_ns(1, || {
                                run_bigtable_tablet(
                                    queries, shard.seed, shard_idx, tablet, tablets, true, None,
                                )
                            })
                        };
                        let unit_ns = unit(shard.items);
                        warmup_ns += unit(0);
                        total_ns += unit_ns;
                        report.push(BenchRecord {
                            id: format!(
                                "fleet/shard_wall_clock/bigtable_tablet/s{shard_idx}_t{tablet}"
                            ),
                            ns_per_iter: unit_ns,
                            bytes_per_iter: None,
                            parallelism: 1,
                            seed: SEED,
                        });
                        units.push((format!("bigtable/s{shard_idx}_t{tablet}"), unit_ns));
                    }
                }
                Platform::BigQuery => {
                    let unit = |queries| {
                        time_ns(1, || {
                            run_bigquery_shard(
                                queries,
                                fleet_config.fact_rows,
                                shard.seed,
                                shard_idx,
                                true,
                            )
                        })
                    };
                    let unit_ns = unit(shard.items);
                    warmup_ns += unit(0);
                    total_ns += unit_ns;
                    units.push((format!("bigquery/s{shard_idx}"), unit_ns));
                }
            }
        }
        for (id, ns) in [
            (
                format!("fleet/shard_wall_clock/{}", platform_key(platform)),
                total_ns,
            ),
            (
                format!("fleet/warmup/{}", platform_key(platform)),
                warmup_ns,
            ),
        ] {
            report.push(BenchRecord {
                id,
                ns_per_iter: ns,
                bytes_per_iter: None,
                parallelism: 1,
                seed: SEED,
            });
        }
        println!(
            "fleet shards: {} total {:.1} ms ({:.1} ms warmup) over {} shard(s)",
            platform_key(platform),
            total_ns / 1e6,
            warmup_ns / 1e6,
            plan.shards().len(),
        );
    }
    let units_total_ns: f64 = units.iter().map(|(_, ns)| ns).sum();
    let (worst_unit, worst_ns) = units.iter().fold(("", 0.0f64), |acc, (id, ns)| {
        if *ns > acc.1 {
            (id.as_str(), *ns)
        } else {
            acc
        }
    });
    let straggler_fraction = worst_ns / units_total_ns.max(1.0);
    println!(
        "fleet straggler gate: heaviest unit {worst_unit} {:.1} ms = {:.0}% of \
         {:.1} ms total over {} units (ceiling {:.0}%)",
        worst_ns / 1e6,
        100.0 * straggler_fraction,
        units_total_ns / 1e6,
        units.len(),
        100.0 * STRAGGLER_CEILING,
    );
    gate(straggler_fraction <= STRAGGLER_CEILING, || {
        format!(
            "straggler unit {worst_unit} holds {:.0}% of fleet shard time \
             (ceiling {:.0}%): the schedule cannot parallelize past it",
            100.0 * straggler_fraction,
            100.0 * STRAGGLER_CEILING,
        )
    })?;

    // --- Fleet artifacts: the serial per-record folds. ---------------------
    // One p=1 run's records through the GWP stack fold, the trace export,
    // the critical-path walk, the tail report and the profile JSON (the
    // decomposition sums and the record CRC), each timed alone. Reported
    // ungated, since they measure the host.
    let artifact_run = FleetRun::new(FleetConfig {
        parallelism: 1,
        ..fleet_config
    });
    for (id, ns) in [
        (
            "fleet/artifact/stacks",
            best_of(5, || time_ns(1, || artifact_run.stacks())),
        ),
        (
            "fleet/artifact/trace_json",
            best_of(5, || {
                time_ns(1, || chrome_trace_json(&trace_groups(&artifact_run.runs)))
            }),
        ),
        (
            "fleet/artifact/critical_path_json",
            best_of(5, || time_ns(1, || critical_path_json(&artifact_run.runs))),
        ),
        (
            "fleet/artifact/tail_json",
            best_of(5, || time_ns(1, || render_json(&artifact_run.tail("")))),
        ),
        (
            "fleet/artifact/profile_json",
            best_of(5, || time_ns(1, || artifact_run.profile_json())),
        ),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: ns,
            bytes_per_iter: None,
            parallelism: 1,
            seed: SEED,
        });
        println!("{id}: {:.1} ms", ns / 1e6);
    }

    let probe_config = FleetConfig {
        parallelism: parallel_threads,
        ..fleet_config
    };

    // --- Tail-attribution overhead: the tail pass against the fleet run. ---
    // The tail pass is everything the tail report adds to a fleet run's
    // records: request-id exemplar joins, per-shard space-saving sketches
    // merged in canonical order, cohort splits, and blame rendering. It is
    // pure folding over already-produced records, so it must stay within
    // 10% of the instrumented fleet run it decorates. Each is timed alone,
    // best of 5, on the same config; the pass reads the last timed run,
    // whose records are dropped outside the timed region.
    let mut runs = Vec::new();
    let fleet_run_ns = best_of(5, || {
        runs = Vec::new();
        time_ns(1, || runs = run_fleet_telemetry(probe_config))
    });
    let probe_run = FleetRun {
        config: probe_config,
        metrics: merge_fleet_metrics(&runs),
        runs,
    };
    let tail_pass_ns = best_of(5, || time_ns(1, || render_json(&probe_run.tail("")).len()));
    for (id, ns) in [
        ("fleet/tail_attribution/fleet_run", fleet_run_ns),
        ("fleet/tail_attribution/tail_pass", tail_pass_ns),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: ns,
            bytes_per_iter: None,
            parallelism: parallel_threads,
            seed: SEED,
        });
    }
    println!(
        "fleet tail attribution: fleet run {:.1} ms, tail pass {:.1} ms ({:.1}% of the run)",
        fleet_run_ns / 1e6,
        tail_pass_ns / 1e6,
        tail_pass_ns / fleet_run_ns * 100.0,
    );
    gate(tail_pass_ns <= fleet_run_ns * 0.10, || {
        format!(
            "tail attribution overhead above 10%: tail pass {tail_pass_ns:.0} ns vs \
             fleet run {fleet_run_ns:.0} ns"
        )
    })?;

    // --- Table 8 software pipeline: chained vs sequential, model vs. -------
    // measured. Real threads on the host, so reported here and never gated.
    let pipeline = software_validation(800, 0x7ab1e);
    for (id, us, parallelism) in [
        (
            "accelsim/software_pipeline/sequential",
            pipeline.sequential_us,
            1,
        ),
        (
            "accelsim/software_pipeline/chained",
            pipeline.chained_measured_us,
            2,
        ),
        (
            "accelsim/software_pipeline/chained_model",
            pipeline.chained_modeled_us,
            2,
        ),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: us * 1e3,
            bytes_per_iter: None,
            parallelism,
            seed: 0x7ab1e,
        });
    }
    println!(
        "software pipeline ({} messages): chained {:.1} us vs sequential {:.1} us \
         ({:.2}x), model {:.1} us ({:+.1}% vs measured)",
        pipeline.messages,
        pipeline.chained_measured_us,
        pipeline.sequential_us,
        pipeline.sequential_us / pipeline.chained_measured_us,
        pipeline.chained_modeled_us,
        pipeline.model_vs_measured * 100.0,
    );

    report
        .write(std::path::Path::new(out_path))
        .map_err(|e| flags.error(format!("cannot write --out {out_path}: {e}")))?;
    println!("wrote {out_path} ({} entries)", report.records().len());
    Ok(())
}
