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
//! Entries: CRC32C byte-table baseline vs slicing-by-8 vs the dispatched
//! hardware path, protowire encode/varint kernels, SIMD-vs-scalar pairs for
//! the compress/decompress kernels (kernel round 3), the
//! sequential-vs-parallel fleet wall-clock comparison (same seed — the
//! outputs are byte-identical by construction, only the wall-clock
//! differs), and the Table 8 software pipeline's chained-vs-sequential and
//! model-vs-measured times. Gates exit 1; the pipeline times are reported
//! ungated, since they measure the host.

use hsdp_accelsim::validate::software_validation;
use hsdp_bench::harness::{time_ns, BenchRecord, BenchReport};
use hsdp_bench::tail::render_json;
use hsdp_bench::FleetRun;
use hsdp_core::category::Platform;
use hsdp_platforms::bloom::{Bloom, ReferenceBloom};
use hsdp_platforms::merge::{merge_runs_reference, merge_sorted_runs, Entry};
use hsdp_platforms::runner::{
    default_parallelism, platform_key, platform_plan, run_bigquery_shard, run_bigtable_tablet,
    run_fleet_telemetry, run_spanner_shard, FleetConfig,
};
use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{
    compress, compress_reference, compress_scalar, decompress, decompress_reference,
    decompress_scalar,
};
use hsdp_taxes::crc::{crc32c_append, crc32c_append_bytewise, crc32c_append_slicing8};
use hsdp_taxes::dispatch::CpuFeatures;
use hsdp_taxes::sha3::{keccak_f1600, keccak_f1600_reference};
use hsdp_taxes::varint::encode_varint;
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

    // --- CRC32C: byte-table baseline vs slicing-by-8 vs hardware CRC32. ----
    // `crc32c_append` dispatches to the SSE4.2/ARMv8 instruction when the
    // host has it, so the slicing-by-8 entry calls that tier explicitly.
    let buf: Vec<u8> = (0..CRC_BUF_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let bytewise_ns = best_of(5, || time_ns(200, || crc32c_append_bytewise(0, &buf)));
    let sliced_ns = best_of(5, || time_ns(200, || crc32c_append_slicing8(0, &buf)));
    let hw_ns = best_of(5, || time_ns(200, || crc32c_append(0, &buf)));
    gate(
        crc32c_append(0, &buf) == crc32c_append_bytewise(0, &buf),
        || "crc32c fast path must agree with the oracle".to_owned(),
    )?;
    report.push(BenchRecord {
        id: format!("crc32c/bytewise/{}KiB", CRC_BUF_LEN / 1024),
        ns_per_iter: bytewise_ns,
        bytes_per_iter: Some(CRC_BUF_LEN as u64),
        parallelism: 1,
        seed: 0,
    });
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
        "crc32c: bytewise {bytewise_ns:.0} ns/iter, slicing8 {sliced_ns:.0} ns/iter \
         ({:.2}x), hw {hw_ns:.0} ns/iter ({:.2}x over slicing8)",
        bytewise_ns / sliced_ns,
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

    // --- Compression: byte-at-a-time reference vs word-at-a-time codec. ---
    // A 64 KiB log-like corpus of hot-key row traffic: a few thousand
    // distinct timestamps and a couple hundred users, so lines repeat with
    // small variations — the compressibility regime SSTable blocks live in.
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
    // The encoders may pick different matches; all streams must decode to
    // the corpus under *both* decoders (one shared format). `compress` /
    // `decompress` dispatch to the AVX2 tier when the host has it; the
    // word-at-a-time/chunked-copy entries call the scalar tier explicitly.
    let packed = compress(&corpus);
    let packed_ref = compress_reference(&corpus);
    gate(packed == compress_scalar(&corpus), || {
        "SIMD and scalar compress must emit identical bytes".to_owned()
    })?;
    for (pair, decoded) in [
        ("fast/fast", decompress(&packed)),
        ("fast/scalar", decompress_scalar(&packed)),
        ("fast/reference", decompress_reference(&packed)),
        ("reference/fast", decompress(&packed_ref)),
    ] {
        gate(decoded.as_ref() == Ok(&corpus), || {
            format!("{pair} compress/decompress must round-trip the corpus")
        })?;
    }
    let ref_compress_ns = best_of(5, || time_ns(50, || compress_reference(&corpus).len()));
    let scalar_compress_ns = best_of(5, || time_ns(50, || compress_scalar(&corpus).len()));
    let simd_compress_ns = best_of(5, || time_ns(50, || compress(&corpus).len()));
    let ref_decompress_ns = best_of(5, || {
        time_ns(50, || decompress_reference(&packed).map(|v| v.len()))
    });
    let scalar_decompress_ns = best_of(5, || {
        time_ns(50, || decompress_scalar(&packed).map(|v| v.len()))
    });
    let simd_decompress_ns = best_of(5, || time_ns(50, || decompress(&packed).map(|v| v.len())));
    for (id, ns) in [
        ("compress/reference/64KiB", ref_compress_ns),
        ("compress/word-at-a-time/64KiB", scalar_compress_ns),
        ("compress/simd/64KiB", simd_compress_ns),
        ("decompress/reference/64KiB", ref_decompress_ns),
        ("decompress/chunked-copy/64KiB", scalar_decompress_ns),
        ("decompress/simd/64KiB", simd_decompress_ns),
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
        "compress: reference {ref_compress_ns:.0} ns/iter, word-at-a-time \
         {scalar_compress_ns:.0} ns/iter ({:.2}x), simd {simd_compress_ns:.0} ns/iter \
         ({:.2}x over scalar); decompress: reference {ref_decompress_ns:.0} ns/iter, \
         chunked-copy {scalar_decompress_ns:.0} ns/iter ({:.2}x), simd \
         {simd_decompress_ns:.0} ns/iter ({:.2}x over scalar)",
        ref_compress_ns / scalar_compress_ns,
        scalar_compress_ns / simd_compress_ns,
        ref_decompress_ns / scalar_decompress_ns,
        scalar_decompress_ns / simd_decompress_ns,
    );
    gate(ref_compress_ns / scalar_compress_ns >= 2.0, || {
        "compress must be >= 2x over the reference on the 64 KiB corpus".to_owned()
    })?;

    // --- Compression, match-extension regime: the SIMD compress gate. ------
    // The fleet-log corpus above averages ~16-byte matches, so each match
    // costs one serial hash->probe->compare dependence chain that no vector
    // width can shorten — SIMD lands ~1x there and the pair is recorded
    // ungated. Long matches are where the vector prefix comparator pays:
    // this corpus repeats a 2 KiB hot block (SSTable hot-tablet readback),
    // so compression time is dominated by 32-bytes-per-cycle match
    // extension, and the AVX2 tier must clear 2x over the scalar tier.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xB10C);
    let hot_block: Vec<u8> = (0..2048)
        .map(|_| {
            let b = rng.random_range(0u32..255);
            // audit: allow(cast, bench corpus byte from a bounded range)
            b as u8
        })
        .collect();
    let mut hot_corpus = Vec::with_capacity(CRC_BUF_LEN);
    while hot_corpus.len() < CRC_BUF_LEN {
        hot_corpus.extend_from_slice(&hot_block);
    }
    hot_corpus.truncate(CRC_BUF_LEN);
    gate(
        compress(&hot_corpus) == compress_scalar(&hot_corpus),
        || "SIMD and scalar compress must emit identical bytes (hot-block corpus)".to_owned(),
    )?;
    let scalar_hot_ns = best_of(5, || time_ns(50, || compress_scalar(&hot_corpus).len()));
    let simd_hot_ns = best_of(5, || time_ns(50, || compress(&hot_corpus).len()));
    for (id, ns) in [
        ("compress/scalar/hot-block-64KiB", scalar_hot_ns),
        ("compress/simd/hot-block-64KiB", simd_hot_ns),
    ] {
        report.push(BenchRecord {
            id: id.to_owned(),
            ns_per_iter: ns,
            bytes_per_iter: Some(CRC_BUF_LEN as u64),
            parallelism: 1,
            seed: SEED ^ 0xB10C,
        });
    }
    println!(
        "compress hot-block: scalar {scalar_hot_ns:.0} ns/iter, simd {simd_hot_ns:.0} \
         ns/iter ({:.2}x)",
        scalar_hot_ns / simd_hot_ns,
    );
    if features.avx2 {
        gate(scalar_hot_ns / simd_hot_ns >= 2.0, || {
            format!(
                "SIMD compress must be >= 2x over scalar on the match-extension corpus \
                 (got {:.2}x)",
                scalar_hot_ns / simd_hot_ns,
            )
        })?;
    } else {
        eprintln!(
            "simd compress gate: SKIPPED (no AVX2 tier dispatched; features: {})",
            features.summary(),
        );
    }

    // --- Bloom: modulo-probed reference vs cache-line-blocked filter. ------
    let keys: Vec<Vec<u8>> = (0..10_000u64)
        .map(|i| format!("row-key-{i:08}").into_bytes())
        .collect();
    let mut blocked = Bloom::new(keys.len());
    let mut reference = ReferenceBloom::new(keys.len());
    for key in &keys {
        blocked.insert(key);
        reference.insert(key);
    }
    let ref_bloom_ns = best_of(5, || {
        time_ns(50, || {
            keys.iter().filter(|k| reference.may_contain(k)).count()
        })
    });
    let blocked_bloom_ns = best_of(5, || {
        time_ns(50, || {
            keys.iter().filter(|k| blocked.may_contain(k)).count()
        })
    });
    gate(
        keys.iter().filter(|k| blocked.may_contain(k)).count() == keys.len(),
        || "blocked filter must report every inserted key".to_owned(),
    )?;
    report.push(BenchRecord {
        id: "bloom/reference-probe/10k-keys".to_owned(),
        ns_per_iter: ref_bloom_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });
    report.push(BenchRecord {
        id: "bloom/blocked-probe/10k-keys".to_owned(),
        ns_per_iter: blocked_bloom_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: 0,
    });
    println!(
        "bloom: reference {ref_bloom_ns:.0} ns/iter, blocked {blocked_bloom_ns:.0} ns/iter \
         ({:.2}x) over {} probes",
        ref_bloom_ns / blocked_bloom_ns,
        keys.len()
    );
    gate(ref_bloom_ns / blocked_bloom_ns >= 2.0, || {
        "blocked bloom probes must be >= 2x over the reference".to_owned()
    })?;

    // --- Compaction merge: BTreeMap reference vs loser tree. ---------------
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
    gate(
        merge_sorted_runs(runs.clone()) == merge_runs_reference(runs.clone()),
        || "loser tree must match the BTreeMap merge".to_owned(),
    )?;
    let merged_len = merge_sorted_runs(runs.clone()).len();
    let ref_merge_ns = best_of(5, || {
        time_ns(20, || merge_runs_reference(runs.clone()).len())
    });
    let tree_merge_ns = best_of(5, || time_ns(20, || merge_sorted_runs(runs.clone()).len()));
    report.push(BenchRecord {
        id: "compaction/merge-btreemap/8x2000".to_owned(),
        ns_per_iter: ref_merge_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED ^ 0xFEED,
    });
    report.push(BenchRecord {
        id: "compaction/merge-loser-tree/8x2000".to_owned(),
        ns_per_iter: tree_merge_ns,
        bytes_per_iter: None,
        parallelism: 1,
        seed: SEED ^ 0xFEED,
    });
    println!(
        "compaction merge: btreemap {:.1} us/iter, loser tree {:.1} us/iter \
         ({:.2}x) -> {merged_len} entries",
        ref_merge_ns / 1e3,
        tree_merge_ns / 1e3,
        ref_merge_ns / tree_merge_ns,
    );

    // --- SHA3: 5x5-array reference vs flat unrolled Keccak-f[1600]. --------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5A3);
    let mut state = [0u64; 25];
    for lane in &mut state {
        *lane = rng.random();
    }
    let mut check_fast = state;
    let mut check_ref = state;
    keccak_f1600(&mut check_fast);
    keccak_f1600_reference(&mut check_ref);
    gate(check_fast == check_ref, || {
        "flat Keccak permutation must match the oracle".to_owned()
    })?;
    let ref_keccak_ns = best_of(5, || {
        time_ns(2_000, || {
            let mut s = state;
            keccak_f1600_reference(&mut s);
            s[0]
        })
    });
    let flat_keccak_ns = best_of(5, || {
        time_ns(2_000, || {
            let mut s = state;
            keccak_f1600(&mut s);
            s[0]
        })
    });
    report.push(BenchRecord {
        id: "sha3/keccak-f1600-reference".to_owned(),
        ns_per_iter: ref_keccak_ns,
        bytes_per_iter: Some(200),
        parallelism: 1,
        seed: SEED ^ 0x5A3,
    });
    report.push(BenchRecord {
        id: "sha3/keccak-f1600-flat".to_owned(),
        ns_per_iter: flat_keccak_ns,
        bytes_per_iter: Some(200),
        parallelism: 1,
        seed: SEED ^ 0x5A3,
    });
    println!(
        "sha3: keccak-f1600 reference {ref_keccak_ns:.0} ns/perm, flat \
         {flat_keccak_ns:.0} ns/perm ({:.2}x)",
        ref_keccak_ns / flat_keccak_ns
    );

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
    // of the total: that is the straggler regression this PR removes.
    const STRAGGLER_CEILING: f64 = 0.40;
    let mut units: Vec<(String, f64)> = Vec::new();
    for &platform in &Platform::ALL {
        let plan = platform_plan(&fleet_config, platform);
        let mut total_ns = 0.0f64;
        for (shard_idx, shard) in plan.shards().iter().enumerate() {
            match platform {
                Platform::Spanner => {
                    let unit_ns = time_ns(1, || {
                        run_spanner_shard(shard.items, shard.seed, shard_idx, true)
                    });
                    total_ns += unit_ns;
                    units.push((format!("spanner/s{shard_idx}"), unit_ns));
                }
                Platform::BigTable => {
                    let tablets = fleet_config.tablets.max(1);
                    for tablet in 0..tablets {
                        let unit_ns = time_ns(1, || {
                            run_bigtable_tablet(
                                shard.items,
                                shard.seed,
                                shard_idx,
                                tablet,
                                tablets,
                                true,
                                None,
                            )
                        });
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
                    let unit_ns = time_ns(1, || {
                        run_bigquery_shard(
                            shard.items,
                            fleet_config.fact_rows,
                            shard.seed,
                            shard_idx,
                            true,
                        )
                    });
                    total_ns += unit_ns;
                    units.push((format!("bigquery/s{shard_idx}"), unit_ns));
                }
            }
        }
        report.push(BenchRecord {
            id: format!("fleet/shard_wall_clock/{}", platform_key(platform)),
            ns_per_iter: total_ns,
            bytes_per_iter: None,
            parallelism: 1,
            seed: SEED,
        });
        println!(
            "fleet shards: {} total {:.1} ms over {} shard(s)",
            platform_key(platform),
            total_ns / 1e6,
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

    let probe_config = FleetConfig {
        parallelism: parallel_threads,
        ..fleet_config
    };

    // --- Tail-attribution overhead: report build on top of the fleet. -----
    // Attribution off is the instrumented fleet run alone; attribution on
    // adds everything the tail report does — request-id exemplar joins,
    // per-shard space-saving sketches merged in canonical order, cohort
    // splits, and blame rendering. The attribution pass is pure folding
    // over already-produced records, so it must stay within 10% of the
    // fleet run it decorates.
    let attribution_off_ns = best_of(5, || time_ns(1, || run_fleet_telemetry(probe_config)));
    let attribution_on_ns = best_of(5, || {
        time_ns(1, || {
            render_json(&FleetRun::new(probe_config).tail("")).len()
        })
    });
    report.push(BenchRecord {
        id: "fleet/tail_attribution/off".to_owned(),
        ns_per_iter: attribution_off_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    report.push(BenchRecord {
        id: "fleet/tail_attribution/on".to_owned(),
        ns_per_iter: attribution_on_ns,
        bytes_per_iter: None,
        parallelism: parallel_threads,
        seed: SEED,
    });
    println!(
        "fleet tail attribution: off {:.1} ms, on {:.1} ms ({:.1}% overhead)",
        attribution_off_ns / 1e6,
        attribution_on_ns / 1e6,
        (attribution_on_ns / attribution_off_ns - 1.0) * 100.0,
    );
    gate(attribution_on_ns <= attribution_off_ns * 1.10, || {
        format!(
            "tail attribution overhead above 10%: on {attribution_on_ns:.0} ns vs \
             off {attribution_off_ns:.0} ns"
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
