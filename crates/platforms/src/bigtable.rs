//! A BigTable-class tablet server: per-tablet LSM trees (memtable +
//! leveled SSTable runs with bloom filters) over tiered storage, behind a
//! deterministic key router, with leveled compaction.
//!
//! Matches the paper's characterization hooks: point reads/writes dominate
//! core compute (Figure 4), compression sits on the critical path (SSTable
//! blocks are compressed, Figure 5), and compaction appears as *remote
//! work* that can block unlucky queries (Section 4.1: "compaction in remote
//! storage for BigTable").
//!
//! # Sharding and leveled compaction
//!
//! The key space is partitioned into `config.tablets` tablets by
//! [`route_key`] (a crc32c of the key bytes). Each tablet owns an
//! independent memtable/SSTable stack, recorder, and storage stack, so
//! tablets are schedulable as independent pool jobs by the fleet driver —
//! that is what breaks the one-big-LSM straggler the fleet bench exposed.
//!
//! Compaction is leveled rather than monolithic: a memtable flush appends a
//! run to level 0, and any level holding `compaction_fanin` runs is merged
//! (via the `crate::merge` loser tree) into a single run on the next level.
//! Merge inputs are taken before the incoming flush lands, so in simulated
//! time level-N merges overlap level-N+1 merges and the flush itself, and
//! the triggering query waits out only the slowest merge. In real time the
//! flush and the merges run in line on the tablet's own thread: tablets are
//! already the fleet's parallel grain, and a thread pair per flush cost
//! more real time than it saved.

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::ops::Bound;

use hsdp_core::category::{CoreComputeOp, DatacenterTax, Platform, SystemTax};
use hsdp_core::request::RequestId;
use hsdp_rpc::latency::LatencyModel;
use hsdp_rpc::span::SpanKind;
use hsdp_simcore::pool::ShardPlan;
use hsdp_simcore::time::SimDuration;
use hsdp_storage::cache::PolicyKind;
use hsdp_storage::tiered::TieredStore;
use hsdp_taxes::crc::crc32c;
use hsdp_taxes::varint::encode_varint;
use hsdp_telemetry::MetricsRegistry;

use crate::bloom::Bloom;
use crate::costs;
use crate::exec::{OpenQuery, QueryExecution, QueryRecorder};
use crate::merge::Entry;
use crate::meter::WorkMeter;

/// Tablet-server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigTableConfig {
    /// Memtable bytes before a flush to SSTable, summed across tablets
    /// (each tablet flushes at its `1/tablets` share).
    pub memtable_flush_bytes: usize,
    /// Run count at which a level is merged into the next level.
    pub compaction_fanin: usize,
    /// RAM / SSD / HDD capacities of the instance's storage, summed across
    /// tablets (each tablet owns its `1/tablets` share).
    pub tier_bytes: (u64, u64, u64),
    /// Cache policy for the storage stack.
    pub policy: PolicyKind,
    /// Tablets the key space is partitioned into (at least one).
    pub tablets: usize,
}

impl Default for BigTableConfig {
    fn default() -> Self {
        BigTableConfig {
            memtable_flush_bytes: 64 * 1024,
            compaction_fanin: 4,
            tier_bytes: (1 << 20, 8 << 20, 1 << 40),
            policy: PolicyKind::Lru,
            tablets: 1,
        }
    }
}

/// Phase tag for tablet engine seeds (fed to [`ShardPlan::derive_seed`]).
const TABLET_SEED_PHASE: u64 = 0x7AB_1E7;

/// The engine seed for `tablet` of an instance seeded with `seed` — a pure
/// function shared by [`BigTable::new`] and the fleet driver's per-tablet
/// jobs, so both construct identical tablet state.
#[must_use]
pub fn tablet_seed(seed: u64, tablet: usize) -> u64 {
    ShardPlan::derive_seed(seed, tablet as u64, TABLET_SEED_PHASE)
}

/// Routes a key to its tablet: a pure function of the key bytes and the
/// tablet count (crc32c spreads the preloaded key space evenly).
#[must_use]
pub fn route_key(key: &[u8], tablets: usize) -> usize {
    if tablets <= 1 {
        return 0;
    }
    crc32c(key) as usize % tablets
}

/// Telemetry label for a tablet index (clamped to the label table).
fn tablet_label(tablet: usize) -> &'static str {
    const LABELS: [&str; 16] = [
        "t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11", "t12",
        "t13", "t14", "t15",
    ];
    LABELS[tablet.min(LABELS.len() - 1)]
}

/// Telemetry label for an LSM level (clamped to the label table).
fn level_label(level: usize) -> &'static str {
    const LABELS: [&str; 8] = ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7"];
    LABELS[level.min(LABELS.len() - 1)]
}

/// An immutable sorted run.
#[derive(Debug)]
struct SsTable {
    id: u64,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    bloom: Bloom,
    encoded_bytes: u64,
}

impl SsTable {
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|idx| self.entries[idx].1.as_slice())
    }
}

/// Charges the RPC ingress/egress taxes for a request of `bytes`.
fn charge_rpc(meter: &mut WorkMeter, bytes: u64, leaf: &'static str) {
    let mut meter = meter.scope("rpc");
    meter.charge_ops(DatacenterTax::Rpc, leaf, 1, costs::RPC_FIXED_NS);
    meter.charge_bytes(DatacenterTax::Rpc, leaf, bytes, costs::RPC_NS_PER_BYTE);
    meter.charge_ops(
        SystemTax::Networking,
        "tcp_process",
        1,
        costs::NET_PROCESS_NS_PER_MSG,
    );
    meter.charge_ops(
        SystemTax::OperatingSystems,
        "sys_recvmsg",
        3,
        costs::SYSCALL_NS,
    );
    meter.charge_ops(
        SystemTax::Multithreading,
        "task_wakeup",
        1,
        costs::THREAD_HANDOFF_NS,
    );
    meter.charge_ops(
        SystemTax::Stl,
        "string_buffer_ops",
        2,
        costs::STL_NS_PER_MSG,
    );
    meter.charge_ops(
        DatacenterTax::Cryptography,
        "auth_check",
        1,
        costs::AUTH_CRYPTO_NS_PER_REQ,
    );
    meter.charge_ops(
        SystemTax::OtherMemoryOps,
        "page_ops",
        1,
        costs::OTHER_MEM_NS_PER_QUERY,
    );
}

/// Charges the protobuf taxes for handling a message of `bytes`.
fn charge_proto(meter: &mut WorkMeter, bytes: u64, decode: bool) {
    let mut meter = meter.scope("proto");
    let (leaf, per_byte) = if decode {
        ("proto_decode", costs::PROTO_DECODE_NS_PER_BYTE)
    } else {
        ("proto_encode", costs::PROTO_ENCODE_NS_PER_BYTE)
    };
    meter.charge_bytes(DatacenterTax::Protobuf, leaf, bytes, per_byte);
    meter.charge_ops(
        DatacenterTax::Protobuf,
        "proto_setup",
        1,
        costs::PROTO_PER_MESSAGE_NS,
    );
    meter.charge_ops(
        DatacenterTax::MemAllocation,
        "malloc",
        costs::ALLOCS_PER_MESSAGE,
        costs::MALLOC_NS_PER_OP,
    );
    meter.charge_bytes(
        DatacenterTax::DataMovement,
        "memcpy",
        bytes,
        costs::MEMCPY_NS_PER_BYTE,
    );
}

/// Encodes SSTable entries: varint-length-prefixed pairs, compressed,
/// checksummed. Returns the (encoded, raw) lengths in bytes and charges the
/// work. Nothing reads the encoded bytes or their checksum, so the
/// checksum is charged at its simulated cost and not computed.
fn encode_sstable(meter: &mut WorkMeter, entries: &[(Vec<u8>, Vec<u8>)]) -> (u64, u64) {
    let mut meter = meter.scope("sstable_encode");
    let mut raw = Vec::new();
    for (k, v) in entries {
        encode_varint(k.len() as u64, &mut raw);
        raw.extend_from_slice(k);
        encode_varint(v.len() as u64, &mut raw);
        raw.extend_from_slice(v);
    }
    let raw_len = raw.len() as u64;
    let encoded_len = hsdp_taxes::compress::compress(&raw).len() as u64;
    meter.charge_bytes(
        DatacenterTax::Compression,
        "block_compress",
        raw_len,
        costs::COMPRESS_NS_PER_BYTE,
    );
    meter.charge_bytes(
        SystemTax::Edac,
        "crc32c",
        encoded_len,
        costs::CRC_NS_PER_BYTE,
    );
    meter.charge_bytes(
        DatacenterTax::DataMovement,
        "memcpy",
        raw_len,
        costs::MEMCPY_NS_PER_BYTE,
    );
    (encoded_len, raw_len)
}

/// Charges the filesystem-client write taxes for a new run of `bytes`.
fn charge_run_write(meter: &mut WorkMeter, bytes: u64) {
    meter.charge_ops(
        SystemTax::FileSystems,
        "dfs_write",
        1,
        costs::FS_CLIENT_NS_PER_OP,
    );
    meter.charge_bytes(
        SystemTax::FileSystems,
        "dfs_write",
        bytes,
        costs::FS_CLIENT_NS_PER_BYTE,
    );
    meter.charge_ops(
        SystemTax::OperatingSystems,
        "sys_write",
        1,
        costs::SYSCALL_NS,
    );
}

/// Encodes a drained memtable snapshot as a level-0 run, charging `meter`
/// under the `flush` frame. Returns the run's encoded size.
fn flush_run(meter: &mut WorkMeter, entries: &[Entry]) -> u64 {
    let mut scope = meter.scope("flush");
    scope.charge_ops(
        CoreComputeOp::Write,
        "memtable_flush",
        entries.len() as u64,
        costs::BTREE_OP_NS,
    );
    scope.charge_ops(
        SystemTax::Stl,
        "btreemap_drain",
        entries.len() as u64,
        costs::STL_NS_PER_ENTRY,
    );
    let (encoded, _raw) = encode_sstable(&mut scope, entries);
    charge_run_write(&mut scope, encoded);
    encoded
}

/// Merges one level's runs (oldest-first) into a single run for the next
/// level, charging `meter` under the `compaction` frame. Returns the
/// merged entries, their encoded size and the input entry count.
fn merge_run(meter: &mut WorkMeter, inputs: Vec<SsTable>) -> (Vec<Entry>, u64, u64) {
    let mut scope = meter.scope("compaction");
    let input_entries: u64 = inputs.iter().map(|table| table.entries.len() as u64).sum();
    for table in &inputs {
        scope.charge_bytes(
            DatacenterTax::Compression,
            "block_decompress",
            table.encoded_bytes,
            costs::DECOMPRESS_NS_PER_BYTE,
        );
        scope.charge_ops(
            SystemTax::FileSystems,
            "dfs_read",
            1,
            costs::FS_CLIENT_NS_PER_OP,
        );
    }
    // K-way loser-tree merge, newest run wins on duplicate keys. Runs
    // arrive oldest-first; `merge_sorted_runs` resolves duplicates toward
    // the highest run index (see `crate::merge`).
    let entries =
        crate::merge::merge_sorted_runs(inputs.into_iter().map(|table| table.entries).collect());
    scope.charge_ops(
        CoreComputeOp::Compaction,
        "merge_runs",
        input_entries,
        costs::MERGE_NS_PER_ENTRY,
    );
    scope.charge_ops(
        SystemTax::Stl,
        "kway_merge_heap",
        input_entries,
        costs::STL_NS_PER_ENTRY,
    );
    let (encoded, _raw) = encode_sstable(&mut scope, &entries);
    charge_run_write(&mut scope, encoded);
    (entries, encoded, input_entries)
}

/// BigTable's span layout, shared by tablets and the scan coordinator:
/// CPU, then storage IO, then the compaction wait, each laid from the
/// clock (a zero IO or wait lays no span); then the query tail.
fn finish_query(
    recorder: &mut QueryRecorder,
    query: OpenQuery,
    meter: WorkMeter,
    io_time: SimDuration,
    remote_time: SimDuration,
    label: &'static str,
) -> QueryExecution {
    recorder.lay(&query, "cpu", SpanKind::Cpu, meter.total());
    if !io_time.is_zero() {
        recorder.lay(&query, "storage_io", SpanKind::Io, io_time);
    }
    if !remote_time.is_zero() {
        recorder.lay(&query, "compaction_wait", SpanKind::RemoteWork, remote_time);
    }
    recorder.finish(Platform::BigTable, query, meter, label)
}

/// One LSM component's scan window, yielding `(key, value length)` in key
/// order.
enum ScanWindow<'a> {
    Memtable(std::iter::Take<btree_map::Range<'a, Vec<u8>, Vec<u8>>>),
    Run(std::slice::Iter<'a, Entry>),
}

impl<'a> Iterator for ScanWindow<'a> {
    type Item = (&'a [u8], usize);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ScanWindow::Memtable(range) => range.next().map(|(k, v)| (k.as_slice(), v.len())),
            ScanWindow::Run(entries) => entries.next().map(|(k, v)| (k.as_slice(), v.len())),
        }
    }
}

/// Merges sorted windows of distinct keys, `windows[0]` the newest: calls
/// `emit` on the first `limit` distinct keys in key order, each with the
/// value length from the newest window that holds it. A scan merges a
/// handful of windows (a tablet's memtable and runs, or one partial per
/// tablet), so taking the least of the window heads beats a heap.
fn merge_windows<'a, I>(
    windows: &mut [Peekable<I>],
    limit: usize,
    mut emit: impl FnMut(&'a [u8], usize),
) where
    I: Iterator<Item = (&'a [u8], usize)>,
{
    for _ in 0..limit {
        let mut least: Option<(&'a [u8], usize)> = None;
        for window in windows.iter_mut() {
            if let Some(&(key, len)) = window.peek() {
                // Strictly less: on equal keys the newer window keeps it.
                if least.is_none_or(|(least, _)| key < least) {
                    least = Some((key, len));
                }
            }
        }
        let Some((key, len)) = least else {
            return;
        };
        for window in windows.iter_mut() {
            window.next_if(|&(k, _)| k == key);
        }
        emit(key, len);
    }
}

/// One tablet: an independent LSM instance over its own recorder and
/// tiered storage slice. The fleet driver schedules tablets as independent
/// pool jobs; [`BigTable`] drives them inline behind the key router.
#[derive(Debug)]
pub(crate) struct Tablet {
    /// The tablet's clock, tracer, telemetry and request id.
    pub(crate) recorder: QueryRecorder,
    config: BigTableConfig,
    id: usize,
    flush_bytes: usize,
    store: TieredStore,
    net: LatencyModel,
    memtable: BTreeMap<Vec<u8>, Vec<u8>>,
    memtable_bytes: usize,
    /// `levels[0]` holds flush runs; `levels[n]` holds runs produced by
    /// merging level `n-1`. Within a level, runs are oldest-first; every
    /// run in a level is newer than every run in deeper levels.
    levels: Vec<Vec<SsTable>>,
    next_sst_id: u64,
    compactions: u64,
    rng_seed: u64,
}

impl Tablet {
    /// A fresh tablet with its `1/config.tablets` share of the instance's
    /// memtable and storage budgets. `seed` is the tablet's engine seed
    /// (see [`tablet_seed`]).
    #[must_use]
    pub(crate) fn new(config: &BigTableConfig, id: usize, seed: u64) -> Self {
        let share = config.tablets.max(1) as u64;
        let (ram, ssd, hdd) = config.tier_bytes;
        Tablet {
            recorder: QueryRecorder::new(),
            config: *config,
            id,
            flush_bytes: (config.memtable_flush_bytes / config.tablets.max(1)).max(512),
            store: TieredStore::new(
                (ram / share).max(64 * 1024),
                (ssd / share).max(256 * 1024),
                (hdd / share).max(1 << 20),
                config.policy,
            ),
            net: LatencyModel::intra_cluster(),
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            levels: Vec::new(),
            next_sst_id: 1,
            compactions: 0,
            rng_seed: seed,
        }
    }

    #[must_use]
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live runs across all levels.
    #[must_use]
    pub(crate) fn run_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Run count per level, shallowest first.
    #[must_use]
    pub(crate) fn run_histogram(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Reads a key's current value without simulation side effects — the
    /// verification hook behind the LSM reference-model property tests.
    /// Search order is newest-first: memtable, then level 0 newest run
    /// backwards, then deeper levels.
    #[must_use]
    pub(crate) fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(value) = self.memtable.get(key) {
            return Some(value.clone());
        }
        for level in &self.levels {
            for table in level.iter().rev() {
                if table.bloom.may_contain(key) {
                    if let Some(value) = table.get(key) {
                        return Some(value.to_vec());
                    }
                }
            }
        }
        None
    }

    /// Installs `entries` as a new run at `level`: allocates the run id,
    /// builds its bloom filter, and writes it through the tiered store
    /// (warming its blocks). Returns the storage-write time.
    fn install_run(
        &mut self,
        level: usize,
        entries: Vec<Entry>,
        encoded_bytes: u64,
    ) -> SimDuration {
        let id = self.next_sst_id;
        self.next_sst_id += 1;
        let io = self.store.write_fast(id, encoded_bytes);
        // Freshly written data is hot: its blocks sit in the write-path
        // buffers.
        let blocks = (entries.len() / 16).max(1) as u64;
        for block_idx in 0..blocks {
            self.store
                .warm(id << 20 | block_idx, (encoded_bytes / blocks).max(1));
        }
        let mut bloom = Bloom::new(entries.len());
        for (k, _) in &entries {
            bloom.insert(k);
        }
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
        self.levels[level].push(SsTable {
            id,
            entries,
            bloom,
            encoded_bytes,
        });
        io
    }

    /// Drains the memtable and runs the due LSM maintenance in line,
    /// charging everything to `meter`, the triggering query's meter. It
    /// first takes the runs of every level that reached `compaction_fanin`
    /// runs *before* this flush, reading and invalidating them by ascending
    /// level, so no merge includes the incoming run. It then builds and
    /// installs the level-0 flush run, then each merged run by ascending
    /// level.
    ///
    /// Returns `(flush_io, compaction_wait)`: the flush's storage-write
    /// time (IO the query absorbs) and the slowest merge's read + compute +
    /// write time — concurrent merges overlap, so the remote wait the
    /// triggering query observes is a max, not a sum.
    fn flush_and_compact(&mut self, meter: &mut WorkMeter) -> (SimDuration, SimDuration) {
        let entries: Vec<Entry> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let mut merges = Vec::new();
        for level in 0..self.levels.len() {
            if self.levels[level].len() < self.config.compaction_fanin {
                continue;
            }
            let inputs = std::mem::take(&mut self.levels[level]);
            let mut read_io = SimDuration::ZERO;
            for table in &inputs {
                read_io += self.store.read(table.id, table.encoded_bytes).latency;
                let blocks = (table.entries.len() / 16).max(1) as u64;
                for block_idx in 0..blocks {
                    self.store.invalidate(table.id << 20 | block_idx);
                }
                self.store.invalidate(table.id);
            }
            merges.push((level, read_io, inputs));
        }

        let encoded_bytes = flush_run(meter, &entries);
        let flush_io = self.install_run(0, entries, encoded_bytes);
        let telemetry = &mut self.recorder.telemetry;
        telemetry.counter_add(("bigtable", "memtable_flushes", ""), 1);
        telemetry.counter_add(("bigtable", "tablet_flushes", tablet_label(self.id)), 1);
        telemetry.record_duration(("bigtable", "flush_io_ns", ""), flush_io);
        let mut wait = SimDuration::ZERO;
        for (level, read_io, inputs) in merges {
            let charged = meter.total();
            let (entries, encoded_bytes, input_entries) = merge_run(meter, inputs);
            let cpu = meter.total() - charged;
            let write_io = self.install_run(level + 1, entries, encoded_bytes);
            self.compactions += 1;
            wait = wait.max(read_io + cpu + write_io);
            let telemetry = &mut self.recorder.telemetry;
            telemetry.counter_add(("bigtable", "compactions", ""), 1);
            telemetry.counter_add(("bigtable", "level_merges", level_label(level)), 1);
            telemetry.counter_add(("bigtable", "compaction_entries", ""), input_entries);
            telemetry.record_duration(("bigtable", "compaction_io_ns", ""), read_io + write_io);
        }
        self.recorder
            .telemetry
            .gauge_max(("bigtable", "sstables_peak", ""), self.run_count() as u64);
        (flush_io, wait)
    }

    /// Executes a put, producing its execution record.
    pub(crate) fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> QueryExecution {
        self.run_put(key, value, WorkMeter::new())
    }

    /// Executes a warmup put whose record no artifact reads: the LSM
    /// state, clock, storage and trace and span ids advance exactly as
    /// [`Tablet::put`] advances them, but the put's spans are dropped and
    /// its meter, which also pays for the flushes and merges the put
    /// triggers, keeps only totals, unless telemetry is recording.
    pub(crate) fn preload(&mut self, key: Vec<u8>, value: Vec<u8>) {
        QueryRecorder::warmup(
            self,
            |tablet| &mut tablet.recorder,
            |tablet, meter| tablet.run_put(key, value, meter),
        );
    }

    /// The put path behind [`Tablet::put`] and [`Tablet::preload`],
    /// charging into `meter`.
    fn run_put(&mut self, key: Vec<u8>, value: Vec<u8>, mut meter: WorkMeter) -> QueryExecution {
        let query = self.recorder.open("bigtable.put");
        let trace = query.root.trace();

        let (io_time, remote_time) = {
            let mut op = meter.scope("bigtable.put");
            // The trace starts at server receipt, as Dapper server spans do.
            let request_bytes = (key.len() + value.len() + 40) as u64;

            // Decode + apply.
            charge_rpc(&mut op, request_bytes, "rpc_ingress");
            charge_proto(&mut op, request_bytes, true);
            op.charge_ops(
                CoreComputeOp::Write,
                "memtable_insert",
                1,
                costs::BTREE_OP_NS,
            );
            op.charge_ops(
                SystemTax::Stl,
                "btreemap_insert",
                1,
                costs::STL_NS_PER_ENTRY,
            );
            self.memtable_bytes += key.len() + value.len();
            self.memtable.insert(key, value);

            // Flush / compaction if thresholds crossed.
            let mut io_time = SimDuration::ZERO;
            // Durability: the commit-log append replicates through the
            // distributed file system before the put acknowledges. Group
            // commit amortizes the wait: the put that lands first in a batch
            // waits a full round, later arrivals piggyback almost for free.
            let batch_position = {
                let mut z = (self.rng_seed ^ trace.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut remote_time = self
                .net
                .one_way(request_bytes, self.rng_seed ^ trace.0 ^ 0x106)
                .scaled(0.05 + 0.75 * batch_position);
            if self.memtable_bytes > self.flush_bytes {
                // The blocked query absorbs the flush IO and waits out the
                // slowest concurrent level merge as remote work; the merge
                // compute cycles still profile as Compaction core compute.
                let (flush_io, compaction_wait) = self.flush_and_compact(&mut op);
                io_time += flush_io;
                remote_time += compaction_wait;
            }

            // Respond.
            op.charge_ops(
                DatacenterTax::MemAllocation,
                "malloc",
                1,
                costs::MALLOC_NS_PER_OP,
            );
            charge_proto(&mut op, 32, false);
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            (io_time, remote_time)
        };

        finish_query(
            &mut self.recorder,
            query,
            meter,
            io_time,
            remote_time,
            "put",
        )
    }

    /// Executes a get.
    pub(crate) fn get(&mut self, key: &[u8]) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigtable.get");

        let io_time = {
            let mut op = meter.scope("bigtable.get");
            let request_bytes = (key.len() + 32) as u64;
            charge_rpc(&mut op, request_bytes, "rpc_ingress");
            charge_proto(&mut op, request_bytes, true);

            // Memtable first.
            op.charge_ops(
                CoreComputeOp::Read,
                "memtable_lookup",
                1,
                costs::BTREE_OP_NS,
            );
            let mut io_time = SimDuration::ZERO;
            let mut found = self.memtable.get(key).map(Vec::len);

            if found.is_none() {
                let mut lsm = op.scope("lsm_read");
                let store = &mut self.store;
                // Newest run first (level 0 backwards, then deeper levels),
                // bloom-gated.
                'levels: for level in &self.levels {
                    for table in level.iter().rev() {
                        lsm.charge_ops(CoreComputeOp::Read, "bloom_probe", 1, 60.0);
                        if !table.bloom.may_contain(key) {
                            continue;
                        }
                        // Touch storage for the specific block holding the
                        // key: caching is block-granular, so rare keys stay
                        // cold.
                        let blocks = (table.entries.len() / 16).max(1) as u64;
                        let block_bytes = (table.encoded_bytes / blocks).clamp(512, 64 * 1024);
                        let block_idx = key
                            .iter()
                            .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
                            % blocks;
                        io_time += store.read(table.id << 20 | block_idx, block_bytes).latency;
                        lsm.charge_ops(
                            SystemTax::FileSystems,
                            "dfs_read",
                            1,
                            costs::FS_CLIENT_NS_PER_OP,
                        );
                        lsm.charge_ops(
                            SystemTax::OperatingSystems,
                            "sys_read",
                            1,
                            costs::SYSCALL_NS,
                        );
                        lsm.charge_bytes(
                            DatacenterTax::Compression,
                            "block_decompress",
                            block_bytes,
                            costs::DECOMPRESS_NS_PER_BYTE,
                        );
                        lsm.charge_ops(
                            CoreComputeOp::Read,
                            "sstable_search",
                            (table.entries.len().max(2) as f64).log2() as u64 + 1,
                            costs::BTREE_OP_NS,
                        );
                        lsm.charge_ops(
                            CoreComputeOp::Read,
                            "block_parse",
                            (table.entries.len() as u64 / 16).max(4),
                            costs::MERGE_NS_PER_ENTRY,
                        );
                        if let Some(value) = table.get(key) {
                            found = Some(value.len());
                            break 'levels;
                        }
                    }
                }
            }

            let response_bytes = found.unwrap_or(0) as u64 + 32;
            charge_proto(&mut op, response_bytes, false);
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            io_time
        };

        finish_query(
            &mut self.recorder,
            query,
            meter,
            io_time,
            SimDuration::ZERO,
            "get",
        )
    }

    /// Collects this tablet's first `limit` rows at or after `start_key`
    /// (newest value per key), without simulation side effects. Each
    /// component contributes a window of at most `limit` entries from
    /// `start_key` on, and [`merge_windows`] merges them newest-first, in
    /// [`Tablet::lookup`]'s order: the memtable, then level 0 newest run
    /// backwards, then deeper levels. Only the returned keys are cloned.
    /// Also returns the summed window length, the candidate entry count
    /// examined (the scan's merge cost driver).
    fn collect_scan_rows(&self, start_key: &[u8], limit: usize) -> (Vec<(Vec<u8>, usize)>, u64) {
        let memtable = self
            .memtable
            .range::<[u8], _>((Bound::Included(start_key), Bound::Unbounded))
            .take(limit);
        let mut scanned = memtable.clone().count();
        let mut windows = Vec::with_capacity(1 + self.run_count());
        windows.push(ScanWindow::Memtable(memtable).peekable());
        for table in self.levels.iter().flat_map(|level| level.iter().rev()) {
            let from = table
                .entries
                .partition_point(|(k, _)| k.as_slice() < start_key);
            let tail = &table.entries[from..];
            let window = &tail[..tail.len().min(limit)];
            scanned += window.len();
            windows.push(ScanWindow::Run(window.iter()).peekable());
        }
        let mut rows = Vec::with_capacity(limit.min(scanned));
        merge_windows(&mut windows, limit, |key, len| {
            rows.push((key.to_vec(), len))
        });
        (rows, scanned as u64)
    }

    /// This tablet's contribution to a range scan: its first `limit` rows
    /// at or after `start_key`, the storage IO spent finding them, and the
    /// CPU work metered along the way. The [`ScanAssembler`] folds partials
    /// from all tablets into the final scan execution.
    pub(crate) fn scan_partial(&mut self, start_key: &[u8], limit: usize) -> ScanPartial {
        let (rows, scanned) = self.collect_scan_rows(start_key, limit);
        let mut meter = WorkMeter::new();
        let mut io = SimDuration::ZERO;
        {
            let mut op = meter.scope("bigtable.scan");
            let mut merge = op.scope("tablet_scan");
            let merge = &mut merge;
            let store = &mut self.store;
            for level in &self.levels {
                for table in level {
                    let blocks = (table.entries.len() / 16).max(1) as u64;
                    let block = (table.encoded_bytes / blocks).clamp(512, 64 * 1024);
                    // A short scan touches a few consecutive blocks.
                    let first = start_key
                        .iter()
                        .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
                        % blocks;
                    for i in 0..4u64.min(blocks) {
                        io += store
                            .read((table.id << 20) | ((first + i) % blocks), block)
                            .latency;
                    }
                    merge.charge_bytes(
                        DatacenterTax::Compression,
                        "block_decompress",
                        block,
                        costs::DECOMPRESS_NS_PER_BYTE,
                    );
                    merge.charge_ops(
                        SystemTax::FileSystems,
                        "dfs_read",
                        1,
                        costs::FS_CLIENT_NS_PER_OP,
                    );
                }
            }
            merge.charge_ops(
                CoreComputeOp::Read,
                "scan_merge",
                scanned,
                costs::MERGE_NS_PER_ENTRY,
            );
            merge.charge_ops(
                SystemTax::Stl,
                "range_iter",
                scanned,
                costs::STL_NS_PER_ENTRY,
            );
        }
        ScanPartial {
            rows,
            io,
            meter,
            limit,
        }
    }
}

/// The sorted rows one tablet contributes to a range scan, with the IO it
/// spent and the meter it charged. Partials are produced per tablet
/// (possibly by different fleet jobs) and folded by [`ScanAssembler`] in
/// canonical tablet order.
#[derive(Debug)]
pub struct ScanPartial {
    rows: Vec<(Vec<u8>, usize)>,
    io: SimDuration,
    meter: WorkMeter,
    limit: usize,
}

/// The value lengths of a scan's first `limit` rows across `partials`, in
/// key order. Each partial's rows are sorted and distinct, so this is a
/// [`merge_windows`] merge; a key two partials offer counts once, with the
/// later partial's length.
fn assemble_rows(partials: &[ScanPartial], limit: usize) -> Vec<usize> {
    let mut windows: Vec<_> = partials
        .iter()
        .rev()
        .map(|partial| {
            partial
                .rows
                .iter()
                .map(|(key, len)| (key.as_slice(), *len))
                .peekable()
        })
        .collect();
    let mut lengths = Vec::new();
    merge_windows(&mut windows, limit, |_, len| lengths.push(len));
    lengths
}

/// Folds per-tablet scan partials into one scan [`QueryExecution`] on the
/// scan coordinator's own recorder. Tablet key ranges are disjoint, so the
/// fold is a merge of disjoint sorted row sets — order-insensitive in
/// content, but partials must arrive in canonical tablet order so the
/// metered work lands in a deterministic sequence.
#[derive(Debug, Default)]
pub struct ScanAssembler {
    /// The coordinator's clock, tracer, telemetry and request id.
    pub recorder: QueryRecorder,
}

impl ScanAssembler {
    /// Assembles one scan from its per-tablet partials (canonical tablet
    /// order), producing the query's execution record.
    pub fn assemble(&mut self, partials: Vec<ScanPartial>) -> QueryExecution {
        let limit = partials.first().map_or(0, |p| p.limit);
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("bigtable.scan");

        let io_time = {
            let mut op = meter.scope("bigtable.scan");
            charge_rpc(&mut op, 64, "rpc_ingress");
            charge_proto(&mut op, 64, true);

            let returned = assemble_rows(&partials, limit);
            let mut io_time = SimDuration::ZERO;
            let mut gathered = 0u64;
            for partial in partials {
                io_time += partial.io;
                gathered += partial.rows.len() as u64;
                op.absorb(partial.meter);
            }
            {
                let mut merge = op.scope("scan_assemble");
                merge.charge_ops(
                    CoreComputeOp::Read,
                    "scan_merge",
                    gathered,
                    costs::MERGE_NS_PER_ENTRY,
                );
                merge.charge_ops(
                    SystemTax::Stl,
                    "range_iter",
                    gathered,
                    costs::STL_NS_PER_ENTRY,
                );
            }

            let response_bytes: u64 = returned.iter().map(|&l| l as u64 + 16).sum::<u64>() + 32;
            charge_proto(&mut op, response_bytes, false);
            charge_rpc(&mut op, response_bytes, "rpc_egress");
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            io_time
        };

        finish_query(
            &mut self.recorder,
            query,
            meter,
            io_time,
            SimDuration::ZERO,
            "scan",
        )
    }
}

/// The tablet-server simulator: `config.tablets` independent tablet LSM
/// instances behind the [`route_key`] router, plus the scan coordinator
/// that fans scans out across tablets and folds their partials.
#[derive(Debug)]
pub struct BigTable {
    tablets: Vec<Tablet>,
    scans: ScanAssembler,
}

impl BigTable {
    /// A fresh tablet server: each tablet derives its engine seed from
    /// `seed` via [`tablet_seed`].
    #[must_use]
    pub fn new(config: BigTableConfig, seed: u64) -> Self {
        let count = config.tablets.max(1);
        BigTable {
            tablets: (0..count)
                .map(|t| Tablet::new(&config, t, tablet_seed(seed, t)))
                .collect(),
            scans: ScanAssembler::default(),
        }
    }

    /// Turns telemetry on or off for every tablet and the scan coordinator
    /// (pass [`MetricsRegistry::new`] to turn recording on; it is off by
    /// default). Each component records into its own registry;
    /// [`BigTable::take_telemetry`] merges them.
    pub fn set_telemetry(&mut self, registry: MetricsRegistry) {
        let enabled = registry.is_enabled();
        for tablet in &mut self.tablets {
            tablet.recorder.set_telemetry(if enabled {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disabled()
            });
        }
        self.scans.recorder.set_telemetry(if enabled {
            registry
        } else {
            MetricsRegistry::disabled()
        });
    }

    /// Takes the telemetry collected so far (tablet registries merged in
    /// tablet order, then the scan coordinator's), leaving recording
    /// disabled.
    pub fn take_telemetry(&mut self) -> MetricsRegistry {
        let mut parts: Vec<MetricsRegistry> = self
            .tablets
            .iter_mut()
            .map(|tablet| tablet.recorder.take_telemetry())
            .collect();
        parts.push(self.scans.recorder.take_telemetry());
        if parts.iter().any(MetricsRegistry::is_enabled) {
            let mut merged = MetricsRegistry::new();
            for part in &parts {
                merged.merge(part);
            }
            merged
        } else {
            MetricsRegistry::disabled()
        }
    }

    /// Sets the request identity stamped onto subsequent query executions
    /// by every tablet and the scan coordinator.
    pub fn set_request(&mut self, request: RequestId) {
        for tablet in &mut self.tablets {
            tablet.recorder.set_request(request);
        }
        self.scans.recorder.set_request(request);
    }

    /// Spans still open across all tablets and the scan coordinator — zero
    /// between queries; asserted at end-of-run by the fleet driver.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        let tablets: usize = self.tablets.iter().map(|t| t.recorder.open_spans()).sum();
        tablets + self.scans.recorder.open_spans()
    }

    /// Number of level merges performed across all tablets.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.tablets.iter().map(Tablet::compactions).sum()
    }

    /// Number of live runs across all tablets and levels.
    #[must_use]
    pub fn sstable_count(&self) -> usize {
        self.tablets.iter().map(Tablet::run_count).sum()
    }

    /// Number of tablets.
    #[must_use]
    pub fn tablet_count(&self) -> usize {
        self.tablets.len()
    }

    /// Run count per level, summed across tablets, shallowest level first —
    /// the observability hook the leveled-compaction tests assert against.
    #[must_use]
    pub fn run_histogram(&self) -> Vec<usize> {
        let mut histogram = Vec::new();
        for tablet in &self.tablets {
            for (level, runs) in tablet.run_histogram().into_iter().enumerate() {
                if histogram.len() <= level {
                    histogram.resize(level + 1, 0);
                }
                histogram[level] += runs;
            }
        }
        histogram
    }

    /// Reads a key's current value without simulation side effects.
    #[must_use]
    pub fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        let tablet = route_key(key, self.tablets.len());
        self.tablets[tablet].lookup(key)
    }

    /// The first `limit` rows at or after `start_key` in key order, as
    /// `(key, value length)` pairs, without simulation side effects — the
    /// cross-tablet scan oracle. Tablet key ranges are disjoint, so the
    /// global first-`limit` is the merge of per-tablet first-`limit`s.
    #[must_use]
    pub fn scan_model(&self, start_key: &[u8], limit: usize) -> Vec<(Vec<u8>, usize)> {
        let mut rows: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        for tablet in &self.tablets {
            for (key, len) in tablet.collect_scan_rows(start_key, limit).0 {
                rows.insert(key, len);
            }
        }
        rows.into_iter().take(limit).collect()
    }

    /// Executes a put on the owning tablet.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> QueryExecution {
        let tablet = route_key(&key, self.tablets.len());
        self.tablets[tablet].put(key, value)
    }

    /// Executes a get on the owning tablet.
    pub fn get(&mut self, key: &[u8]) -> QueryExecution {
        let tablet = route_key(key, self.tablets.len());
        self.tablets[tablet].get(key)
    }

    /// Executes a short range scan of up to `limit` rows from `start_key`:
    /// every tablet contributes a partial (ranges span tablets), and the
    /// scan coordinator folds them into one execution.
    pub fn scan(&mut self, start_key: &[u8], limit: usize) -> QueryExecution {
        let partials: Vec<ScanPartial> = self
            .tablets
            .iter_mut()
            .map(|tablet| tablet.scan_partial(start_key, limit))
            .collect();
        self.scans.assemble(partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::{BroadCategory, CpuCategory};
    use hsdp_rng::{Rng, StdRng};

    fn tiny() -> BigTable {
        BigTable::new(
            BigTableConfig {
                memtable_flush_bytes: 2_000,
                compaction_fanin: 3,
                ..BigTableConfig::default()
            },
            42,
        )
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:06}").into_bytes(),
            format!("value-{i:06}-{}", "x".repeat(80)).into_bytes(),
        )
    }

    /// Byte-level equality of two execution records.
    fn exec_eq(a: &QueryExecution, b: &QueryExecution) -> bool {
        a.platform == b.platform
            && a.label == b.label
            && a.spans == b.spans
            && a.cpu_work == b.cpu_work
    }

    #[test]
    fn put_then_get_from_memtable() {
        let mut bt = tiny();
        let (k, v) = kv(1);
        let put = bt.put(k.clone(), v);
        assert_eq!(put.label, "put");
        assert!(!put.cpu_work.is_empty());
        let get = bt.get(&k);
        let d = get.decomposition();
        assert!(d.io.is_zero(), "memtable hit needs no storage IO");
        assert!(!d.cpu.is_zero());
    }

    #[test]
    fn flush_creates_sstables_and_gets_read_them() {
        let mut bt = tiny();
        for i in 0..40 {
            let (k, v) = kv(i);
            bt.put(k, v);
        }
        assert!(bt.sstable_count() >= 1, "flushes happened");
        // A flushed key is no longer in the memtable: the get does IO.
        let get = bt.get(&kv(0).0);
        let d = get.decomposition();
        assert!(!d.io.is_zero(), "sstable read requires storage IO");
    }

    #[test]
    fn compaction_triggers_and_counts_as_remote_work() {
        let mut bt = tiny();
        let mut saw_remote_compaction = false;
        for i in 0..400 {
            let (k, v) = kv(i % 97);
            let exec = bt.put(k, v);
            let d = exec.decomposition();
            if d.remote.as_nanos() > 20_000 {
                saw_remote_compaction = true;
            }
        }
        assert!(bt.compactions() > 0, "level merges ran");
        let histogram = bt.run_histogram();
        assert!(
            histogram.len() >= 2,
            "merges cascaded runs into deeper levels: {histogram:?}"
        );
        assert!(
            histogram[0] < 3 + 1,
            "level 0 stays below fan-in plus the in-flight flush: {histogram:?}"
        );
        assert!(
            saw_remote_compaction,
            "some unlucky put observed a long compaction wait"
        );
    }

    #[test]
    fn compaction_preserves_newest_values() {
        let mut bt = tiny();
        for round in 0..5 {
            for i in 0..30 {
                let k = format!("key-{i:06}").into_bytes();
                let v = format!("round-{round}-{}", "y".repeat(60)).into_bytes();
                bt.put(k, v);
            }
        }
        // The newest round's value must win through flushes and merges.
        for i in 0..30 {
            let k = format!("key-{i:06}").into_bytes();
            let got = bt.lookup(&k).unwrap_or_default();
            assert!(
                got.starts_with(b"round-4-"),
                "key {i}: newest value survives compaction"
            );
        }
    }

    #[test]
    fn scans_touch_all_runs() {
        let mut bt = tiny();
        for i in 0..120 {
            let (k, v) = kv(i);
            bt.put(k, v);
        }
        let scan = bt.scan(b"key-", 10);
        assert_eq!(scan.label, "scan");
        let d = scan.decomposition();
        assert!(!d.io.is_zero());
    }

    #[test]
    fn tax_categories_are_charged() {
        let mut bt = tiny();
        let mut breakdown = hsdp_core::component::CpuBreakdown::new();
        for i in 0..200 {
            let (k, v) = kv(i);
            let exec = bt.put(k, v);
            breakdown.merge(&crate::meter::items_breakdown(&exec.cpu_work));
        }
        // All three broad categories show up. Puts are tax-dominated (the
        // paper's point), so core compute only needs to be present.
        for broad in BroadCategory::ALL {
            assert!(
                breakdown.broad_share(broad) > 0.02,
                "{broad}: {}",
                breakdown.broad_share(broad)
            );
        }
        // Compression is a major datacenter tax for BigTable (Figure 5).
        let compression = breakdown.share(CpuCategory::from(DatacenterTax::Compression));
        assert!(compression > 0.02, "compression share {compression}");
    }

    #[test]
    fn missing_key_returns_without_panic() {
        let mut bt = tiny();
        for i in 0..50 {
            let (k, v) = kv(i);
            bt.put(k, v);
        }
        let exec = bt.get(b"absent-key");
        assert_eq!(exec.label, "get");
    }

    #[test]
    fn tablet_partitioning_agrees_with_single_tablet_oracle() {
        let config = BigTableConfig {
            memtable_flush_bytes: 2_000,
            compaction_fanin: 3,
            ..BigTableConfig::default()
        };
        let mut sharded = BigTable::new(
            BigTableConfig {
                tablets: 3,
                ..config
            },
            42,
        );
        let mut oracle = BigTable::new(config, 42);
        for round in 0..4 {
            for i in 0..60 {
                let k = format!("key-{i:06}").into_bytes();
                let v = format!("round-{round}-{i:04}-{}", "z".repeat(50)).into_bytes();
                sharded.put(k.clone(), v.clone());
                oracle.put(k, v);
            }
        }
        assert_eq!(sharded.tablet_count(), 3);
        for i in 0..60 {
            let k = format!("key-{i:06}").into_bytes();
            assert_eq!(sharded.lookup(&k), oracle.lookup(&k), "key {i}");
        }
        assert_eq!(sharded.lookup(b"missing"), None);
        // Cross-tablet scans: first-limit rows match the one-LSM oracle.
        for (start, limit) in [(&b"key-"[..], 10), (&b"key-000030"[..], 25), (&b""[..], 7)] {
            assert_eq!(
                sharded.scan_model(start, limit),
                oracle.scan_model(start, limit),
                "scan from {start:?}"
            );
        }
    }

    #[test]
    fn tablet_preload_serves_traffic_like_put() {
        // A tablet warmed through the record-free preload must serve the
        // same telemetry-on traffic as one warmed through `put`: the
        // warmup's flushes and merges (charged to its totals-only meter)
        // leave the same LSM state, clock, storage and trace and span ids.
        let serve = |record_free: bool| {
            let config = BigTableConfig {
                memtable_flush_bytes: 2_000,
                compaction_fanin: 3,
                ..BigTableConfig::default()
            };
            let mut tablet = Tablet::new(&config, 0, tablet_seed(7, 0));
            for i in 0..400 {
                let (k, v) = kv(i % 131);
                if record_free {
                    tablet.preload(k, v);
                } else {
                    tablet.put(k, v);
                }
            }
            let warm = (tablet.compactions(), tablet.recorder.now());
            tablet.recorder.set_telemetry(MetricsRegistry::new());
            let mut scans = ScanAssembler::default();
            scans.recorder.set_telemetry(MetricsRegistry::new());
            let mut execs = Vec::new();
            for i in 0..240u32 {
                let request = RequestId::tag(Platform::BigTable, 0, i as usize);
                tablet.recorder.set_request(request);
                let (k, v) = kv(i % 89 + 60);
                execs.push(tablet.put(k, v));
                if i % 3 == 0 {
                    execs.push(tablet.get(&kv(i % 150).0));
                }
                if i % 7 == 0 {
                    scans.recorder.set_request(request);
                    let partial = tablet.scan_partial(b"key-0000", 8);
                    execs.push(scans.assemble(vec![partial]));
                }
            }
            let mut metrics = tablet.recorder.take_telemetry();
            metrics.merge(&scans.recorder.take_telemetry());
            (
                execs,
                metrics.to_json(),
                tablet.recorder.now(),
                tablet.compactions(),
                tablet.run_histogram(),
                warm,
            )
        };
        let (recorded, record_free) = (serve(false), serve(true));
        assert!(recorded.5 .0 > 0, "the warmup must exercise merges");
        assert_eq!(record_free.0.len(), recorded.0.len());
        for (i, (a, b)) in recorded.0.iter().zip(&record_free.0).enumerate() {
            assert!(
                exec_eq(a, b) && a.request == b.request,
                "execution {i} differs"
            );
        }
        assert!(record_free.1 == recorded.1, "telemetry differs");
        assert_eq!(record_free.2, recorded.2, "clock");
        assert_eq!(record_free.3, recorded.3, "compactions");
        assert_eq!(record_free.4, recorded.4, "run histogram");
        assert_eq!(record_free.5, recorded.5, "warm state");
    }

    /// The `BTreeMap` body `Tablet::collect_scan_rows` had before the window
    /// merge: each component's window is inserted oldest-first (deepest
    /// level up, then the memtable), so newer writes overwrite older ones,
    /// and the first `limit` keys are kept.
    fn oracle_scan_rows(
        tablet: &Tablet,
        start_key: &[u8],
        limit: usize,
    ) -> (Vec<(Vec<u8>, usize)>, u64) {
        let mut rows: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut scanned = 0u64;
        for level in (0..tablet.levels.len()).rev() {
            for table in &tablet.levels[level] {
                let from = table
                    .entries
                    .partition_point(|(k, _)| k.as_slice() < start_key);
                for (k, v) in table.entries.iter().skip(from).take(limit) {
                    rows.insert(k.clone(), v.len());
                    scanned += 1;
                }
            }
        }
        for (k, v) in tablet.memtable.range(start_key.to_vec()..).take(limit) {
            rows.insert(k.clone(), v.len());
            scanned += 1;
        }
        (rows.into_iter().take(limit).collect(), scanned)
    }

    /// The `BTreeMap` row fold `ScanAssembler::assemble` had before the
    /// merge: partials in order, a later partial's row replacing an
    /// earlier one's.
    fn oracle_assemble_rows(partials: &[ScanPartial], limit: usize) -> Vec<usize> {
        let mut rows: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        for partial in partials {
            for (key, len) in &partial.rows {
                rows.insert(key.clone(), *len);
            }
        }
        rows.values().copied().take(limit).collect()
    }

    /// Scan-oracle row keys use even ids only, so an odd id falls between
    /// two keys.
    fn scan_key(id: u64) -> Vec<u8> {
        format!("row{id:05}").into_bytes()
    }

    /// Distinct row ids the scan-oracle tablets write.
    const SCAN_IDS: u64 = 120;

    /// Limits 0, 1 and 25, one above every row a scan-oracle tablet holds,
    /// and one random.
    fn scan_limits(rng: &mut StdRng) -> [usize; 5] {
        [0, 1, 25, 100_000, rng.random_range(2..40)]
    }

    /// Start keys before the first key, on a written key, between keys
    /// and past the last key.
    fn scan_starts(rng: &mut StdRng, written: &[u64]) -> Vec<Vec<u8>> {
        let mut starts = vec![
            Vec::new(),
            b"a".to_vec(),
            scan_key(2 * rng.random_range(0..SCAN_IDS) + 1),
            scan_key(2 * SCAN_IDS),
            b"z".to_vec(),
        ];
        if !written.is_empty() {
            starts.push(scan_key(written[rng.random_range(0..written.len())]));
        }
        starts
    }

    /// A scan-oracle tablet: a small memtable and fan-in 3, so a few hundred
    /// puts cascade through several levels.
    fn scan_oracle_tablet(seed: u64, id: usize) -> Tablet {
        let config = BigTableConfig {
            memtable_flush_bytes: 512,
            compaction_fanin: 3,
            ..BigTableConfig::default()
        };
        Tablet::new(&config, id, tablet_seed(seed, id))
    }

    /// A random put: a key from `SCAN_IDS` ids (so keys are overwritten
    /// across levels and in the memtable) and a value whose length tells
    /// its versions apart. Returns the key's id.
    fn random_put(rng: &mut StdRng, tablet: &mut Tablet) -> u64 {
        let id = 2 * rng.random_range(0..SCAN_IDS);
        let value = vec![b'v'; rng.random_range(1..60usize)];
        tablet.preload(scan_key(id), value);
        id
    }

    #[test]
    fn scan_window_merge_matches_the_btreemap_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        // Checks made with an empty memtable over runs, with runs but no
        // memtable rows, with runs on two or more levels, and with a key
        // in more than one window.
        let (mut empty_memtable, mut no_runs, mut multi_level, mut overlapping) = (0, 0, 0, 0);
        for seed in 0..6 {
            let mut tablet = scan_oracle_tablet(seed, 0);
            let mut written = Vec::new();
            for step in 0..400 {
                let runs = tablet.run_count();
                let memtable_empty = tablet.memtable.is_empty();
                if step % 5 == 0 || (memtable_empty && runs > 0) || runs == 0 {
                    empty_memtable += usize::from(memtable_empty && runs > 0);
                    no_runs += usize::from(runs == 0 && !memtable_empty);
                    multi_level +=
                        usize::from(tablet.levels.iter().filter(|l| !l.is_empty()).count() >= 2);
                    for start in scan_starts(&mut rng, &written) {
                        for limit in scan_limits(&mut rng) {
                            let got = tablet.collect_scan_rows(&start, limit);
                            let want = oracle_scan_rows(&tablet, &start, limit);
                            assert_eq!(
                                got, want,
                                "seed {seed}, step {step}, start {start:?}, limit {limit}"
                            );
                            overlapping +=
                                usize::from(limit == 100_000 && got.1 > got.0.len() as u64);
                        }
                    }
                }
                written.push(random_put(&mut rng, &mut tablet));
            }
            assert!(tablet.compactions() > 0, "seed {seed}: merges ran");
        }
        for (case, count) in [
            ("an empty memtable over runs", empty_memtable),
            ("a tablet with no runs", no_runs),
            ("runs on two or more levels", multi_level),
            ("a key in more than one window", overlapping),
        ] {
            assert!(count >= 10, "the oracle checked {case} only {count} times");
        }
    }

    #[test]
    fn scan_assembler_merge_matches_the_btreemap_fold() {
        let mut rng = StdRng::seed_from_u64(0xA55E);
        // Rows offered by more than one partial with different lengths.
        let mut contested = 0;
        for seed in 0..4 {
            // Standalone tablets fed one key space, so their partials offer
            // the same keys with different value lengths.
            let mut tablets: Vec<Tablet> = (0..3).map(|t| scan_oracle_tablet(seed, t)).collect();
            let mut written = Vec::new();
            for step in 0..300 {
                let tablet = rng.random_range(0..tablets.len());
                written.push(random_put(&mut rng, &mut tablets[tablet]));
                if step % 10 != 0 {
                    continue;
                }
                for start in scan_starts(&mut rng, &written) {
                    for limit in scan_limits(&mut rng) {
                        let partials: Vec<ScanPartial> = tablets
                            .iter_mut()
                            .map(|tablet| tablet.scan_partial(&start, limit))
                            .collect();
                        for count in 0..=partials.len() {
                            let subset = &partials[..count];
                            assert_eq!(
                                assemble_rows(subset, limit),
                                oracle_assemble_rows(subset, limit),
                                "seed {seed}, step {step}, start {start:?}, limit {limit}, {count} partials"
                            );
                        }
                        let mut lengths: BTreeMap<&[u8], Vec<usize>> = BTreeMap::new();
                        for (key, len) in partials.iter().flat_map(|p| &p.rows) {
                            lengths.entry(key.as_slice()).or_default().push(*len);
                        }
                        contested += lengths
                            .values()
                            .filter(|lens| lens.iter().any(|&l| l != lens[0]))
                            .count();
                    }
                }
            }
        }
        assert!(
            contested >= 10,
            "partials disagreed on a key only {contested} times"
        );
    }

    #[test]
    fn route_key_is_stable_and_in_range() {
        for tablets in [1, 2, 3, 7] {
            for i in 0..200u32 {
                let (k, _) = kv(i);
                let t = route_key(&k, tablets);
                assert!(t < tablets);
                assert_eq!(t, route_key(&k, tablets), "routing is pure");
            }
        }
        assert_eq!(route_key(b"anything", 1), 0);
        assert_eq!(route_key(b"anything", 0), 0);
    }
}
