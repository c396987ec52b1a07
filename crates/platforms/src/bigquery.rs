//! A BigQuery-class distributed analytics engine: columnar storage, staged
//! worker execution, and a hash-partitioned distributed shuffle.
//!
//! Matches the paper's characterization hooks: queries are scan-heavy with
//! large working sets (IO-heavy, Figure 2), the shuffle is remote work
//! (Section 4.1: "distributed shuffles for BigQuery"), compression and
//! protobuf dominate the datacenter taxes (Figure 5), and core compute
//! splits across filter/aggregate/compute/join/sort (Table 5, Figure 4).

use std::cmp::Reverse;
use std::collections::HashMap;

use hsdp_core::category::{CoreComputeOp, DatacenterTax, Platform, SystemTax};
use hsdp_core::hash::IdMap;
use hsdp_rpc::latency::LatencyModel;
use hsdp_rpc::span::SpanKind;
use hsdp_simcore::time::SimDuration;
use hsdp_storage::cache::PolicyKind;
use hsdp_storage::tiered::TieredStore;
use hsdp_workload::rows::{DimRow, FactRow};

use crate::columnar::{Column, ColumnTable};
use crate::costs;
use crate::exec::{OpenQuery, QueryExecution, QueryRecorder};
use crate::meter::WorkMeter;

/// Stage-1 workers, and shuffle partitions.
const WORKERS: usize = 8;

/// RAM / SSD cache sizes of each worker's storage stack. The caches are
/// small relative to the table: scans run cold, making the platform
/// IO-heavy as in Figure 2.
const TIER_BYTES: (u64, u64) = (4 * 1024, 12 * 1024);

const _: () = assert!(WORKERS > 0, "need at least one worker");

/// Per-worker stored partition: the columnar data plus its on-disk layout.
#[derive(Debug)]
struct StoredPartition {
    table: ColumnTable,
    /// Per-column (storage key, compressed bytes, raw bytes).
    column_files: Vec<(u64, u64, u64)>,
}

/// The analytics-engine simulator.
#[derive(Debug)]
pub struct BigQuery {
    /// The engine's clock, tracer, telemetry and request id.
    pub recorder: QueryRecorder,
    stores: Vec<TieredStore>,
    partitions: Vec<StoredPartition>,
    dim: Vec<DimRow>,
    net: LatencyModel,
    shuffle_net: LatencyModel,
    seed: u64,
}

impl BigQuery {
    /// A fresh engine.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let (ram, ssd) = TIER_BYTES;
        BigQuery {
            recorder: QueryRecorder::new(),
            stores: (0..WORKERS)
                .map(|_| TieredStore::new(ram, ssd, PolicyKind::TwoQ))
                .collect(),
            partitions: Vec::new(),
            dim: Vec::new(),
            net: LatencyModel::intra_cluster(),
            // Shuffle flows are flow-controlled, multi-hop streams: far
            // lower effective bandwidth than a raw intra-cluster link.
            shuffle_net: LatencyModel {
                base: hsdp_simcore::time::SimDuration::from_micros(200),
                bandwidth: 25e6,
                jitter_frac: 0.2,
            },
            seed,
        }
    }

    /// Loads the fact table (partitioned round-robin across workers) and
    /// the dimension table.
    pub fn load(&mut self, rows: &[FactRow], dim: Vec<DimRow>) {
        self.dim = dim;
        self.partitions.clear();
        for w in 0..WORKERS {
            let table = ColumnTable::from_rows(rows.iter().skip(w).step_by(WORKERS));
            let column_files = table
                .encode_compressed()
                .into_iter()
                .enumerate()
                .map(|(c, (compressed, raw))| {
                    let key = (w as u64) << 8 | c as u64;
                    let bytes = compressed as u64;
                    self.stores[w].write(key, bytes);
                    (key, bytes, raw as u64)
                })
                .collect();
            self.partitions.push(StoredPartition {
                table,
                column_files,
            });
        }
    }

    /// Total stored rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.partitions.iter().map(|p| p.table.rows()).sum()
    }

    /// Per-worker column scan: charges IO + decompress + decode for the
    /// given column indexes, returns the worker's IO time.
    fn scan_columns(
        &mut self,
        worker: usize,
        columns: &[usize],
        meter: &mut WorkMeter,
    ) -> SimDuration {
        let mut meter = meter.scope("column_scan");
        let mut io = SimDuration::ZERO;
        let rows = self.partitions[worker].table.rows() as u64;
        for &c in columns {
            let (key, compressed, raw) = self.partitions[worker].column_files[c];
            // Column files are read in 8 KiB chunks with chunk-granular
            // caching: small categorical columns stay warm, wide string
            // columns churn.
            const CHUNK: u64 = 8 * 1024;
            let chunks = compressed.div_ceil(CHUNK).max(1);
            let chunk_bytes = compressed.div_ceil(chunks);
            for chunk in 0..chunks {
                io += self.stores[worker]
                    .read(key << 16 | chunk, chunk_bytes)
                    .latency;
            }
            meter.charge_ops(
                SystemTax::FileSystems,
                "dfs_read",
                chunks,
                costs::FS_CLIENT_NS_PER_OP,
            );
            meter.charge_bytes(
                SystemTax::FileSystems,
                "dfs_read",
                compressed,
                costs::FS_CLIENT_NS_PER_BYTE,
            );
            meter.charge_ops(
                SystemTax::OperatingSystems,
                "sys_read",
                chunks,
                costs::SYSCALL_NS,
            );
            meter.charge_bytes(
                DatacenterTax::Compression,
                "column_decompress",
                raw,
                costs::DECOMPRESS_NS_PER_BYTE,
            );
            meter.charge_ops(
                CoreComputeOp::Destructure,
                "column_decode",
                rows,
                costs::DESTRUCTURE_NS_PER_VALUE,
            );
            meter.charge_ops(
                CoreComputeOp::Project,
                "column_project",
                rows,
                costs::PROJECT_NS_PER_VALUE,
            );
            meter.charge_ops(
                DatacenterTax::MemAllocation,
                "column_alloc",
                2,
                costs::MALLOC_NS_PER_OP,
            );
            meter.charge_bytes(
                DatacenterTax::DataMovement,
                "memcpy",
                raw,
                costs::MEMCPY_NS_PER_BYTE,
            );
        }
        meter.charge_ops(
            SystemTax::Stl,
            "vector_ops",
            rows * columns.len() as u64,
            12.0,
        );
        io
    }

    /// The shuffle: each worker sends `bytes_per_worker` to the next stage.
    /// Charges serialization taxes and returns the remote-work wait (the
    /// slowest worker's transfer).
    fn shuffle(&mut self, meter: &mut WorkMeter, bytes_per_worker: u64, salt: u64) -> SimDuration {
        let mut meter = meter.scope("shuffle");
        let mut slowest = SimDuration::ZERO;
        for w in 0..WORKERS {
            meter.charge_bytes(
                DatacenterTax::Protobuf,
                "shuffle_serialize",
                bytes_per_worker,
                costs::PROTO_ENCODE_NS_PER_BYTE,
            );
            meter.charge_bytes(
                DatacenterTax::Compression,
                "shuffle_compress",
                bytes_per_worker,
                costs::COMPRESS_NS_PER_BYTE,
            );
            meter.charge_ops(DatacenterTax::Rpc, "shuffle_send", 1, costs::RPC_FIXED_NS);
            meter.charge_bytes(
                DatacenterTax::Rpc,
                "shuffle_send",
                bytes_per_worker,
                costs::RPC_NS_PER_BYTE,
            );
            meter.charge_ops(
                SystemTax::Networking,
                "tcp_process",
                2,
                costs::NET_PROCESS_NS_PER_MSG,
            );
            meter.charge_ops(
                SystemTax::OperatingSystems,
                "sys_sendmsg",
                2,
                costs::SYSCALL_NS,
            );
            meter.charge_ops(
                SystemTax::Multithreading,
                "task_handoff",
                1,
                costs::THREAD_HANDOFF_NS,
            );
            meter.charge_ops(
                SystemTax::Stl,
                "string_buffer_ops",
                1,
                costs::STL_NS_PER_MSG,
            );
            meter.charge_bytes(
                DatacenterTax::Cryptography,
                "shuffle_digest",
                bytes_per_worker / 2,
                costs::SHA3_NS_PER_BYTE,
            );
            meter.charge_ops(
                SystemTax::OtherMemoryOps,
                "page_ops",
                1,
                costs::OTHER_MEM_NS_PER_QUERY,
            );
            let t = self.shuffle_net.one_way(
                bytes_per_worker,
                self.seed ^ salt.wrapping_add(w as u64 * 131),
            );
            slowest = slowest.max(t);
        }
        // Stage-2 ingest: decode what was sent.
        meter.charge_bytes(
            DatacenterTax::Protobuf,
            "shuffle_deserialize",
            bytes_per_worker * WORKERS as u64,
            costs::PROTO_DECODE_NS_PER_BYTE,
        );
        let telemetry = &mut self.recorder.telemetry;
        telemetry.counter_add(("bigquery", "shuffles", ""), 1);
        telemetry.counter_add(
            ("bigquery", "shuffle_bytes", ""),
            bytes_per_worker * WORKERS as u64,
        );
        telemetry.record_duration(("bigquery", "shuffle_wait_ns", ""), slowest);
        slowest
    }

    /// Returns small result sets to the coordinator over the ordinary
    /// cluster fabric (unlike the heavyweight shuffle).
    fn collect_results(&mut self, meter: &mut WorkMeter, bytes: u64, salt: u64) -> SimDuration {
        let mut meter = meter.scope("result_collect");
        meter.charge_bytes(
            DatacenterTax::Protobuf,
            "result_serialize",
            bytes,
            costs::PROTO_ENCODE_NS_PER_BYTE,
        );
        meter.charge_ops(DatacenterTax::Rpc, "result_send", 1, costs::RPC_FIXED_NS);
        meter.charge_ops(
            SystemTax::Networking,
            "tcp_process",
            1,
            costs::NET_PROCESS_NS_PER_MSG,
        );
        meter.charge_ops(
            SystemTax::OperatingSystems,
            "sys_sendmsg",
            1,
            costs::SYSCALL_NS,
        );
        self.net.one_way(bytes, self.seed ^ salt)
    }

    /// BigQuery's span layout: column decode pipelines with the fetch, so
    /// the CPU span starts halfway through the IO span (the overlap the
    /// Section 4.1 attribution rule then charges to IO); then the shuffle
    /// (a zero IO lays CPU alone, a zero shuffle no span); then the query
    /// tail. Fleet cycles spread across the worker pool: wall-clock CPU is
    /// the per-worker stripe.
    fn finish_query(
        &mut self,
        query: OpenQuery,
        meter: WorkMeter,
        io_time: SimDuration,
        shuffle_time: SimDuration,
        label: &'static str,
    ) -> QueryExecution {
        let cpu_wall = SimDuration::from_nanos(meter.total().as_nanos() / WORKERS as u64);
        let recorder = &mut self.recorder;
        if !io_time.is_zero() {
            let (trace, root) = (query.root.trace(), Some(query.root.id()));
            let tracer = &mut recorder.tracer;
            let io_span = tracer.start(trace, root, "column_io", SpanKind::Io, recorder.clock);
            let io_end = recorder.clock + io_time;
            let cpu_start = recorder.clock + SimDuration::from_nanos(io_time.as_nanos() / 2);
            let cpu_span = tracer.start(trace, root, "cpu", SpanKind::Cpu, cpu_start);
            tracer.finish(io_span, io_end);
            recorder.clock = (cpu_start + cpu_wall).max(io_end);
            tracer.finish(cpu_span, cpu_start + cpu_wall);
        } else {
            recorder.lay(&query, "cpu", SpanKind::Cpu, cpu_wall);
        }
        if !shuffle_time.is_zero() {
            recorder.lay(&query, "shuffle", SpanKind::RemoteWork, shuffle_time);
        }
        recorder.finish(Platform::BigQuery, query, meter, label)
    }

    /// `SELECT url, bytes WHERE latency_ms > threshold AND success`.
    pub fn scan_filter(&mut self, latency_threshold: f64) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigquery.scan_filter");

        let (io_wall, collect) = {
            let mut op = meter.scope("bigquery.scan_filter");
            let mut io = SimDuration::ZERO;
            let mut matched = 0u64;
            let mut result_bytes = 0u64;
            for w in 0..WORKERS {
                io += self.scan_columns(w, &[2, 4, 5], &mut op);
                let part = &self.partitions[w].table;
                let (Column::Float64(latency), Column::Str(urls), Column::Bool(success)) =
                    (part.column(2), part.column(4), part.column(5))
                else {
                    // audit: allow(panic, the fact-table column layout is fixed at construction)
                    unreachable!("fact schema is fixed")
                };
                let rows = part.rows() as u64;
                let mut filter = op.scope("filter");
                filter.charge_ops(
                    CoreComputeOp::Filter,
                    "predicate_eval",
                    rows * 2,
                    costs::FILTER_NS_PER_ROW,
                );
                for i in 0..part.rows() {
                    if latency[i] > latency_threshold && success[i] {
                        matched += 1;
                        result_bytes += urls[i].len() as u64 + 12;
                    }
                }
                filter.charge_ops(
                    CoreComputeOp::Materialize,
                    "result_rows",
                    matched,
                    costs::MATERIALIZE_NS_PER_ROW,
                );
            }
            // Workers run in parallel: wall IO is the average stripe, modeled
            // as total/workers.
            let io_wall = SimDuration::from_nanos(io.as_nanos() / WORKERS as u64);
            let collect = self.collect_results(
                &mut op,
                result_bytes / WORKERS as u64 + 64,
                query.root.trace().0,
            );
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            (io_wall, collect)
        };
        self.finish_query(query, meter, io_wall, collect, "scan-filter")
    }

    /// `SELECT region, SUM(bytes), AVG(latency) GROUP BY region`.
    pub fn group_aggregate(&mut self) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigquery.group_aggregate");

        let (io_wall, shuffle) = {
            let mut op = meter.scope("bigquery.group_aggregate");
            let mut io = SimDuration::ZERO;
            // Group by (user, region): the high-cardinality keys that make
            // analytics shuffles heavy. Only the narrow, cache-friendly
            // integer columns are scanned.
            let mut partials =
                IdMap::with_capacity_and_hasher(self.row_count(), Default::default());
            for w in 0..WORKERS {
                io += self.scan_columns(w, &[0, 1, 3], &mut op);
                let part = &self.partitions[w].table;
                let (Column::Int64(users), Column::U32(regions), Column::Int64(bytes)) =
                    (part.column(0), part.column(1), part.column(3))
                else {
                    // audit: allow(panic, the fact-table column layout is fixed at construction)
                    unreachable!("fact schema is fixed")
                };
                op.scope("aggregate").charge_ops(
                    CoreComputeOp::Aggregate,
                    "hash_aggregate",
                    part.rows() as u64,
                    costs::AGG_NS_PER_ROW,
                );
                aggregate_partition(&mut partials, users, regions, bytes);
            }
            let groups = partials.len() as u64;
            // Shuffle the partial aggregates (hash-partitioned by group).
            // With high-cardinality keys the partial tables spill in
            // streaming fashion, so the shuffled volume tracks the input
            // rows.
            let total_rows = self.row_count() as u64;
            let shuffle_bytes = (total_rows * 24).max(groups * 24) / WORKERS as u64 + 64;
            let shuffle = self.shuffle(&mut op, shuffle_bytes, query.root.trace().0);
            // Final merge + post-aggregation compute (averages).
            {
                let mut agg = op.scope("aggregate");
                agg.charge_ops(
                    CoreComputeOp::Aggregate,
                    "merge_partials",
                    groups,
                    costs::AGG_NS_PER_ROW,
                );
                agg.charge_ops(
                    CoreComputeOp::Compute,
                    "column_divide",
                    groups,
                    costs::COMPUTE_NS_PER_GROUP,
                );
                agg.charge_ops(
                    CoreComputeOp::Materialize,
                    "result_table",
                    groups,
                    costs::MATERIALIZE_NS_PER_ROW,
                );
            }
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            let io_wall = SimDuration::from_nanos(io.as_nanos() / WORKERS as u64);
            (io_wall, shuffle)
        };
        self.finish_query(query, meter, io_wall, shuffle, "group-aggregate")
    }

    /// Fact-to-dimension hash join, aggregated per region name.
    pub fn join(&mut self) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigquery.join");

        let (io_wall, broadcast) = {
            let mut op = meter.scope("bigquery.join");
            // Broadcast the small dimension table to every worker over the
            // ordinary cluster fabric.
            let dim_bytes: u64 = self.dim.iter().map(|d| d.name.len() as u64 + 8).sum();
            let broadcast = self.collect_results(&mut op, dim_bytes, query.root.trace().0 ^ 0xd1);
            // Build the hash table once per worker.
            op.scope("hash_join").charge_ops(
                CoreComputeOp::Join,
                "hash_build",
                self.dim.len() as u64 * WORKERS as u64,
                costs::JOIN_NS_PER_ROW,
            );
            let (name_ids, names) = dim_name_ids(&self.dim);

            let mut io = SimDuration::ZERO;
            let mut joined = vec![None; names.len()];
            for w in 0..WORKERS {
                io += self.scan_columns(w, &[1, 3], &mut op);
                let part = &self.partitions[w].table;
                let (Column::U32(regions), Column::Int64(bytes)) = (part.column(1), part.column(3))
                else {
                    // audit: allow(panic, the fact-table column layout is fixed at construction)
                    unreachable!("fact schema is fixed")
                };
                op.scope("hash_join").charge_ops(
                    CoreComputeOp::Join,
                    "hash_probe",
                    part.rows() as u64,
                    costs::JOIN_NS_PER_ROW,
                );
                join_partition(&mut joined, &name_ids, regions, bytes);
            }
            let groups = joined.iter().filter(|sum| sum.is_some()).count() as u64;
            op.charge_ops(
                CoreComputeOp::Aggregate,
                "post_join_agg",
                groups,
                costs::AGG_NS_PER_ROW,
            );
            op.charge_ops(
                CoreComputeOp::Materialize,
                "result_table",
                groups,
                costs::MATERIALIZE_NS_PER_ROW,
            );
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            let io_wall = SimDuration::from_nanos(io.as_nanos() / WORKERS as u64);
            (io_wall, broadcast)
        };
        self.finish_query(query, meter, io_wall, broadcast, "join")
    }

    /// Global top-k by latency.
    pub fn top_k(&mut self, k: usize) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigquery.top_k");

        let (io_wall, shuffle) = {
            let mut op = meter.scope("bigquery.top_k");
            let mut io = SimDuration::ZERO;
            let mut candidates: Vec<(i64, u64)> = Vec::new();
            for w in 0..WORKERS {
                io += self.scan_columns(w, &[0, 3], &mut op);
                let part = &self.partitions[w].table;
                let (Column::Int64(users), Column::Int64(bytes)) = (part.column(0), part.column(3))
                else {
                    // audit: allow(panic, the fact-table column layout is fixed at construction)
                    unreachable!("fact schema is fixed")
                };
                let rows = part.rows();
                // Local sort: n log n.
                let log_n = (rows.max(2) as f64).log2();
                op.scope("sort").charge_ops(
                    CoreComputeOp::Sort,
                    "local_sort",
                    (rows as f64 * log_n) as u64,
                    costs::SORT_NS_PER_ROW_LOG,
                );
                candidates.extend(partition_top_k(users, bytes, k));
            }
            let shuffle = self.collect_results(&mut op, (k * 16) as u64, query.root.trace().0);
            // Final merge of the worker top-k lists.
            let merge_n = candidates.len();
            candidates.sort_by_key(|e| Reverse(e.0));
            candidates.truncate(k);
            {
                let mut sort = op.scope("sort");
                sort.charge_ops(
                    CoreComputeOp::Sort,
                    "final_merge",
                    (merge_n.max(2) as f64 * (merge_n.max(2) as f64).log2()) as u64,
                    costs::SORT_NS_PER_ROW_LOG,
                );
                sort.charge_ops(
                    CoreComputeOp::Materialize,
                    "result_rows",
                    k as u64,
                    costs::MATERIALIZE_NS_PER_ROW,
                );
            }
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            let io_wall = SimDuration::from_nanos(io.as_nanos() / WORKERS as u64);
            (io_wall, shuffle)
        };
        self.finish_query(query, meter, io_wall, shuffle, "top-k")
    }
}

/// The aggregate kernel over one partition: folds each row's bytes and a
/// count into its (user, region) group.
fn aggregate_partition(
    partials: &mut IdMap<u64, (i64, u64)>,
    users: &[i64],
    regions: &[u32],
    bytes: &[i64],
) {
    for ((&user, &region), &b) in users.iter().zip(regions).zip(bytes) {
        let key = (user.unsigned_abs() << 8) | (u64::from(region) % 256);
        let entry = partials.entry(key).or_insert((0, 0));
        entry.0 += b;
        entry.1 += 1;
    }
}

/// The join's build side: every dimension region's name id, and the
/// distinct names in id order (first seen in dimension order). A region
/// listed twice takes its later row's name.
fn dim_name_ids(dim: &[DimRow]) -> (IdMap<u32, usize>, Vec<&str>) {
    let mut names: Vec<&str> = Vec::new();
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut region_ids = IdMap::default();
    for row in dim {
        let id = *ids.entry(&row.name).or_insert_with(|| {
            names.push(&row.name);
            names.len() - 1
        });
        region_ids.insert(row.region, id);
    }
    (region_ids, names)
}

/// The join's probe side over one partition: adds each fact row's bytes to
/// its region's name slot; rows whose region the dimension lacks drop out.
fn join_partition(
    sums: &mut [Option<i64>],
    name_ids: &IdMap<u32, usize>,
    regions: &[u32],
    bytes: &[i64],
) {
    for (region, &b) in regions.iter().zip(bytes) {
        if let Some(&id) = name_ids.get(region) {
            *sums[id].get_or_insert(0) += b;
        }
    }
}

/// One partition's top `k` rows by bytes, as `(bytes, user)`: the rows,
/// in the order, that a stable sort by descending bytes puts first. Rows
/// tie on bytes, so the selection keys on `(descending bytes, row)`, a
/// total order.
fn partition_top_k(users: &[i64], bytes: &[i64], k: usize) -> Vec<(i64, u64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut order: Vec<(Reverse<i64>, usize)> = bytes
        .iter()
        .enumerate()
        .map(|(row, &b)| (Reverse(b), row))
        .collect();
    if k < order.len() {
        order.select_nth_unstable(k - 1);
        order.truncate(k);
    }
    order.sort_unstable();
    order
        .into_iter()
        .map(|(Reverse(b), row)| (b, users[row].unsigned_abs()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::{BroadCategory, CpuCategory};
    use hsdp_rng::{Rng, StdRng};
    use hsdp_workload::rows::FactGen;
    use std::collections::BTreeMap;

    fn engine(rows: usize) -> BigQuery {
        let mut rng = hsdp_rng::StdRng::seed_from_u64(31);
        let gen = FactGen::default();
        let data = gen.rows(rows, &mut rng);
        let mut bq = BigQuery::new(5);
        bq.load(&data, gen.dimension());
        bq
    }

    /// One worker partition's `user_id`, `region` and `bytes` columns.
    struct Partition {
        users: Vec<i64>,
        regions: Vec<u32>,
        bytes: Vec<i64>,
    }

    /// Randomized partitions: some empty, users and bytes drawn from
    /// ranges that may be narrow enough for groups and `bytes` to tie, and
    /// regions past 30, which [`random_dimension`] never lists.
    fn random_partitions(rng: &mut StdRng) -> Vec<Partition> {
        let users = [3, 40, 100_000][rng.random_range(0..3usize)];
        let max_bytes = [4, 1_000, 200_000][rng.random_range(0..3usize)];
        (0..rng.random_range(1..=8usize))
            .map(|_| {
                let rows = rng.random_range(0..=300usize);
                Partition {
                    users: (0..rows).map(|_| rng.random_range(-users..users)).collect(),
                    regions: (0..rows).map(|_| rng.random_range(0..40u32)).collect(),
                    bytes: (0..rows).map(|_| rng.random_range(0..max_bytes)).collect(),
                }
            })
            .collect()
    }

    /// A dimension over regions 0..30 whose rows may repeat a region (with
    /// another name) and share names between regions.
    fn random_dimension(rng: &mut StdRng) -> Vec<DimRow> {
        (0..rng.random_range(0..=40usize))
            .map(|_| DimRow {
                region: rng.random_range(0..30u32),
                name: format!("n{}", rng.random_range(0..12u32)),
            })
            .collect()
    }

    /// The aggregate as first written, kept as the oracle: a SipHash map
    /// grown from empty.
    fn reference_aggregate(partitions: &[Partition]) -> HashMap<u64, (i64, u64)> {
        let mut partials: HashMap<u64, (i64, u64)> = HashMap::new();
        for part in partitions {
            for i in 0..part.users.len() {
                let key = (part.users[i].unsigned_abs() << 8) | (u64::from(part.regions[i]) % 256);
                let entry = partials.entry(key).or_insert((0, 0));
                entry.0 += part.bytes[i];
                entry.1 += 1;
            }
        }
        partials
    }

    /// The join as first written, kept as the oracle: each matched fact
    /// row clones its region's name into a `String`-keyed map.
    fn reference_join(dim: &[DimRow], partitions: &[Partition]) -> HashMap<String, i64> {
        let dim_names: HashMap<u32, String> =
            dim.iter().map(|d| (d.region, d.name.clone())).collect();
        let mut joined: HashMap<String, i64> = HashMap::new();
        for part in partitions {
            for i in 0..part.regions.len() {
                if let Some(name) = dim_names.get(&part.regions[i]) {
                    *joined.entry(name.clone()).or_insert(0) += part.bytes[i];
                }
            }
        }
        joined
    }

    /// One partition's top-k as first written, kept as the oracle: a
    /// stable sort of every row by descending bytes, then the first `k`.
    fn reference_top_k(users: &[i64], bytes: &[i64], k: usize) -> Vec<(i64, u64)> {
        let mut local: Vec<(i64, u64)> = (0..users.len())
            .map(|i| (bytes[i], users[i].unsigned_abs()))
            .collect();
        local.sort_by_key(|e| Reverse(e.0));
        local.into_iter().take(k).collect()
    }

    #[test]
    fn aggregate_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xA66);
        for _ in 0..200 {
            let partitions = random_partitions(&mut rng);
            let rows = partitions.iter().map(|p| p.users.len()).sum();
            let mut partials = IdMap::with_capacity_and_hasher(rows, Default::default());
            for part in &partitions {
                aggregate_partition(&mut partials, &part.users, &part.regions, &part.bytes);
            }
            let want = reference_aggregate(&partitions);
            assert_eq!(partials.len(), want.len(), "group count");
            assert_eq!(
                partials.into_iter().collect::<BTreeMap<_, _>>(),
                want.into_iter().collect::<BTreeMap<_, _>>()
            );
        }
    }

    #[test]
    fn join_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x701);
        for _ in 0..200 {
            let dim = random_dimension(&mut rng);
            let partitions = random_partitions(&mut rng);
            let (name_ids, names) = dim_name_ids(&dim);
            let mut sums = vec![None; names.len()];
            for part in &partitions {
                join_partition(&mut sums, &name_ids, &part.regions, &part.bytes);
            }
            let joined: BTreeMap<String, i64> = names
                .iter()
                .zip(&sums)
                .filter_map(|(name, sum)| Some(((*name).to_owned(), (*sum)?)))
                .collect();
            let want = reference_join(&dim, &partitions);
            assert_eq!(joined.len(), want.len(), "group count");
            assert_eq!(joined, want.into_iter().collect::<BTreeMap<_, _>>());
        }
    }

    #[test]
    fn top_k_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x70F);
        for _ in 0..100 {
            for part in random_partitions(&mut rng) {
                let rows = part.users.len();
                for k in [0, 1, 2, 50, rows.saturating_sub(1), rows, rows + 1] {
                    assert_eq!(
                        partition_top_k(&part.users, &part.bytes, k),
                        reference_top_k(&part.users, &part.bytes, k),
                        "k = {k} of {rows} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn load_partitions_all_rows() {
        let bq = engine(1000);
        assert_eq!(bq.row_count(), 1000);
    }

    #[test]
    fn scan_filter_is_io_heavy() {
        let mut bq = engine(4000);
        let exec = bq.scan_filter(30.0);
        let d = exec.decomposition();
        assert!(!d.io.is_zero(), "cold column scans do IO");
        assert!(!d.remote.is_zero(), "results are shuffled");
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Filter)) > 0.0);
    }

    #[test]
    fn group_aggregate_charges_aggregate_and_compute() {
        let mut bq = engine(4000);
        let exec = bq.group_aggregate();
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Aggregate)) > 0.0);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Compute)) > 0.0);
        assert!(b.share(CpuCategory::from(DatacenterTax::Compression)) > 0.0);
    }

    #[test]
    fn join_touches_dimension_and_fact() {
        let mut bq = engine(2000);
        let exec = bq.join();
        assert_eq!(exec.label, "join");
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Join)) > 0.0);
        let d = exec.decomposition();
        assert!(!d.remote.is_zero(), "dimension broadcast is remote work");
    }

    #[test]
    fn top_k_sorts() {
        let mut bq = engine(2000);
        let exec = bq.top_k(10);
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Sort)) > 0.0);
    }

    #[test]
    fn all_broad_categories_present_across_queries() {
        let mut bq = engine(4000);
        let mut all = hsdp_core::component::CpuBreakdown::new();
        for exec in [
            bq.scan_filter(25.0),
            bq.group_aggregate(),
            bq.join(),
            bq.top_k(20),
        ] {
            all.merge(&crate::meter::items_breakdown(&exec.cpu_work));
        }
        for broad in BroadCategory::ALL {
            assert!(
                all.broad_share(broad) > 0.05,
                "{broad}: {}",
                all.broad_share(broad)
            );
        }
    }

    #[test]
    fn repeated_scans_warm_the_cache() {
        let mut bq = engine(2000);
        let cold = bq.scan_filter(25.0).decomposition().io;
        let warm = bq.scan_filter(25.0).decomposition().io;
        assert!(
            warm <= cold,
            "second scan benefits from caches: {warm} vs {cold}"
        );
    }
}
