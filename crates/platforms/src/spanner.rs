//! A Spanner-class replicated transactional store: a leader-led consensus
//! group replicating a write log across regions, with strong reads and
//! SQL-style scans.
//!
//! Matches the paper's characterization hooks: consensus appears both as
//! core compute (Figure 4's `Consensus` category) and as *remote work*
//! (Section 4.1: "consensus protocols for Spanner"), RPC is a heavy
//! datacenter tax (23% in Figure 5), and cross-region round trips dominate
//! remote-heavy queries.

use std::collections::BTreeMap;

use hsdp_core::category::{CoreComputeOp, DatacenterTax, Platform, SystemTax};
use hsdp_rpc::latency::LatencyModel;
use hsdp_rpc::span::SpanKind;
use hsdp_simcore::time::SimDuration;
use hsdp_storage::cache::PolicyKind;
use hsdp_storage::tiered::TieredStore;
use hsdp_taxes::protowire::{bytes_field_len, fixed64_field_len};

use crate::costs;
use crate::exec::{OpenQuery, QueryExecution, QueryRecorder};
use crate::meter::WorkMeter;

/// Replicas in the consensus group, the leader included.
const REPLICAS: usize = 5;

/// Votes needed to commit: a majority.
const QUORUM: usize = 3;

/// RAM / SSD cache sizes of the leader's storage stack.
const TIER_BYTES: (u64, u64) = (8 << 20, 64 << 20);

// The leader votes for itself, so a commit waits for `QUORUM - 1` follower
// acks: at least one, and no more than there are followers.
const _: () = assert!(
    2 <= QUORUM && QUORUM <= REPLICAS,
    "quorum must be within the replica set"
);

/// The consensus-group simulator (leader's view).
#[derive(Debug)]
pub struct Spanner {
    /// The group's clock, tracer, telemetry and request id.
    pub recorder: QueryRecorder,
    store: TieredStore,
    state: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Commits replicated so far: the log's length.
    commits: usize,
    net_region: LatencyModel,
    seed: u64,
}

impl Spanner {
    /// A fresh group.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let (ram, ssd) = TIER_BYTES;
        Spanner {
            recorder: QueryRecorder::new(),
            store: TieredStore::new(ram, ssd, PolicyKind::Lru),
            state: BTreeMap::new(),
            commits: 0,
            // Regional quorums: replicas in nearby zones, not continents.
            net_region: LatencyModel {
                base: hsdp_simcore::time::SimDuration::from_micros(250),
                bandwidth: 2e9,
                jitter_frac: 0.3,
            },
            seed,
        }
    }

    fn charge_rpc(&self, meter: &mut WorkMeter, bytes: u64) {
        let mut meter = meter.scope("rpc");
        meter.charge_ops(DatacenterTax::Rpc, "rpc_dispatch", 1, costs::RPC_FIXED_NS);
        meter.charge_bytes(
            DatacenterTax::Rpc,
            "rpc_dispatch",
            bytes,
            costs::RPC_NS_PER_BYTE,
        );
        meter.charge_ops(
            SystemTax::Networking,
            "tcp_process",
            1,
            costs::NET_PROCESS_NS_PER_MSG,
        );
        meter.charge_ops(
            SystemTax::OperatingSystems,
            "sys_sendmsg",
            3,
            costs::SYSCALL_NS,
        );
        meter.charge_ops(
            SystemTax::Stl,
            "string_buffer_ops",
            3,
            costs::STL_NS_PER_MSG,
        );
        meter.charge_ops(
            SystemTax::Multithreading,
            "executor_handoff",
            2,
            costs::THREAD_HANDOFF_NS,
        );
        meter.charge_ops(
            DatacenterTax::MemAllocation,
            "malloc",
            costs::ALLOCS_PER_MESSAGE,
            costs::MALLOC_NS_PER_OP,
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
            2,
            costs::OTHER_MEM_NS_PER_QUERY,
        );
    }

    /// Charges encoding the commit's `TxnRequest { key = 1: bytes, value =
    /// 2: bytes, timestamp = 3: fixed64 }` and returns its encoded length.
    /// Only the length is read, by replication and the integrity charges,
    /// so the record is sized, not written.
    fn encode_txn(meter: &mut WorkMeter, key: &[u8], value: &[u8]) -> u64 {
        let mut meter = meter.scope("txn_encode");
        let len = (bytes_field_len(1, key.len())
            + bytes_field_len(2, value.len())
            + fixed64_field_len(3)) as u64;
        meter.charge_bytes(
            DatacenterTax::Protobuf,
            "proto_encode",
            len,
            costs::PROTO_ENCODE_NS_PER_BYTE,
        );
        meter.charge_ops(
            DatacenterTax::Protobuf,
            "proto_setup",
            1,
            costs::PROTO_PER_MESSAGE_NS,
        );
        meter.charge_ops(
            DatacenterTax::MemAllocation,
            "malloc",
            3,
            costs::MALLOC_NS_PER_OP,
        );
        meter.charge_bytes(
            DatacenterTax::DataMovement,
            "memcpy",
            len,
            costs::MEMCPY_NS_PER_BYTE,
        );
        len
    }

    /// The consensus round: replicate `bytes` to followers, wait for a
    /// quorum of acks. Returns the remote-work wait.
    fn consensus_round(&mut self, meter: &mut WorkMeter, bytes: u64, salt: u64) -> SimDuration {
        let mut meter = meter.scope("consensus");
        let followers = REPLICAS - 1;
        let mut round_trips: Vec<SimDuration> = (0..followers)
            .map(|i| {
                self.net_region.round_trip(
                    bytes,
                    64,
                    self.seed ^ salt.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        round_trips.sort_unstable();
        // CPU cost of forming/handling each replica message.
        meter.charge_ops(
            CoreComputeOp::Consensus,
            "paxos_propose",
            followers as u64,
            costs::CONSENSUS_NS_PER_MSG,
        );
        meter.charge_ops(
            DatacenterTax::Rpc,
            "rpc_replicate",
            followers as u64,
            costs::RPC_FIXED_NS,
        );
        meter.charge_bytes(
            DatacenterTax::Rpc,
            "rpc_replicate",
            bytes * followers as u64,
            costs::RPC_NS_PER_BYTE,
        );
        meter.charge_ops(
            SystemTax::Networking,
            "tcp_process",
            followers as u64 * 2,
            costs::NET_PROCESS_NS_PER_MSG,
        );
        meter.charge_ops(
            SystemTax::OperatingSystems,
            "sys_sendmsg",
            followers as u64 * 2,
            costs::SYSCALL_NS,
        );
        // The `QUORUM - 1`th fastest follower ack completes the quorum.
        let wait = round_trips[QUORUM - 2];
        let telemetry = &mut self.recorder.telemetry;
        telemetry.counter_add(("spanner", "consensus_rounds", ""), 1);
        telemetry.counter_add(
            ("spanner", "consensus_replicated_bytes", ""),
            bytes * followers as u64,
        );
        telemetry.record_duration(("spanner", "consensus_quorum_wait_ns", ""), wait);
        wait
    }

    /// Commits a write transaction.
    pub fn commit(&mut self, key: Vec<u8>, value: Vec<u8>) -> QueryExecution {
        self.run_commit(key, value, WorkMeter::new())
    }

    /// Commits a warmup write whose record no artifact reads: the group's
    /// state, log, clock and trace and span ids advance exactly as
    /// [`Spanner::commit`] advances them, but the commit's spans are
    /// dropped and its meter keeps only the total. With telemetry on, the
    /// meter keeps its items, so the CPU counters see the commit.
    pub fn preload(&mut self, key: Vec<u8>, value: Vec<u8>) {
        QueryRecorder::warmup(
            self,
            |db| &mut db.recorder,
            |db, meter| db.run_commit(key, value, meter),
        );
    }

    /// The commit path behind [`Spanner::commit`] and [`Spanner::preload`],
    /// charging into `meter`.
    fn run_commit(&mut self, key: Vec<u8>, value: Vec<u8>, mut meter: WorkMeter) -> QueryExecution {
        let query = self.recorder.open("spanner.commit");

        let (io, remote) = {
            let mut op = meter.scope("spanner.commit");
            let request_bytes = (key.len() + value.len() + 64) as u64;
            self.charge_rpc(&mut op, request_bytes);
            let encoded = Self::encode_txn(&mut op, &key, &value);
            {
                // The checksum and digest are charged at their simulated
                // cost; nothing reads either, so neither is computed.
                let mut integrity = op.scope("integrity");
                integrity.charge_bytes(SystemTax::Edac, "crc32c", encoded, costs::CRC_NS_PER_BYTE);
                integrity.charge_bytes(
                    DatacenterTax::Cryptography,
                    "txn_digest",
                    encoded,
                    costs::SHA3_NS_PER_BYTE,
                );
            }

            // Replicate through consensus.
            let remote = self.consensus_round(&mut op, encoded, query.root.trace().0);

            // Apply to the state machine and persist.
            self.commits += 1;
            let io = {
                let mut apply = op.scope("apply");
                apply.charge_ops(
                    CoreComputeOp::Write,
                    "apply_write",
                    1,
                    costs::BTREE_OP_NS * 2.0,
                );
                apply.charge_ops(
                    SystemTax::Stl,
                    "btreemap_insert",
                    1,
                    costs::STL_NS_PER_ENTRY,
                );
                let storage_key = Self::key_hash(&key);
                let io = self
                    .store
                    .write_fast(storage_key, (key.len() + value.len()) as u64);
                apply.charge_ops(
                    SystemTax::FileSystems,
                    "log_append",
                    1,
                    costs::FS_CLIENT_NS_PER_OP,
                );
                apply.charge_ops(
                    SystemTax::OperatingSystems,
                    "sys_write",
                    1,
                    costs::SYSCALL_NS,
                );
                io
            };
            self.state.insert(key, value);

            self.charge_rpc(&mut op, 64);
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            (io, remote)
        };

        self.finish_query(query, meter, io, remote, "commit")
    }

    /// A strong (leader-lease) point read.
    pub fn read(&mut self, key: &[u8]) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("spanner.read");

        let io = {
            let mut op = meter.scope("spanner.read");
            let request_bytes = (key.len() + 48) as u64;
            self.charge_rpc(&mut op, request_bytes);
            op.charge_bytes(
                DatacenterTax::Protobuf,
                "proto_decode",
                request_bytes,
                costs::PROTO_DECODE_NS_PER_BYTE,
            );
            // Lease validation: cheap consensus bookkeeping, no round trip.
            op.charge_ops(
                CoreComputeOp::Consensus,
                "lease_check",
                1,
                costs::CONSENSUS_NS_PER_MSG / 4.0,
            );

            // Session management, SQL binding, and row assembly: the read
            // path is far more than one tree lookup in a SQL database.
            let value_len = self.state.get(key).map_or(0, Vec::len) as u64;
            let io = {
                let mut read_path = op.scope("read_path");
                read_path.charge_ops(CoreComputeOp::Query, "session_and_bind", 1, 20_000.0);
                read_path.charge_ops(CoreComputeOp::Read, "row_deserialize", 1, 8_000.0);
                read_path.charge_ops(
                    CoreComputeOp::Read,
                    "btree_lookup",
                    1,
                    costs::BTREE_OP_NS * 2.0,
                );
                read_path.charge_ops(SystemTax::Stl, "btreemap_get", 1, costs::STL_NS_PER_ENTRY);
                // Touch storage (cache-hit most of the time for hot keys).
                let io = self
                    .store
                    .read(Self::key_hash(key), value_len.max(64))
                    .latency;
                read_path.charge_ops(
                    SystemTax::FileSystems,
                    "dfs_read",
                    1,
                    costs::FS_CLIENT_NS_PER_OP,
                );
                read_path.charge_ops(
                    SystemTax::OperatingSystems,
                    "sys_read",
                    1,
                    costs::SYSCALL_NS,
                );
                io
            };

            let response_bytes = value_len + 48;
            {
                let mut response = op.scope("response_encode");
                response.charge_bytes(
                    DatacenterTax::Protobuf,
                    "proto_encode",
                    response_bytes,
                    costs::PROTO_ENCODE_NS_PER_BYTE,
                );
                response.charge_ops(
                    DatacenterTax::MemAllocation,
                    "malloc",
                    2,
                    costs::MALLOC_NS_PER_OP,
                );
                response.charge_bytes(
                    DatacenterTax::DataMovement,
                    "memcpy",
                    response_bytes,
                    costs::MEMCPY_NS_PER_BYTE,
                );
            }
            self.charge_rpc(&mut op, response_bytes);
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            io
        };

        self.finish_query(query, meter, io, SimDuration::ZERO, "read")
    }

    /// A SQL-style scan: filter up to `limit` rows whose value length
    /// exceeds `min_len` starting at `start_key`.
    pub fn query(&mut self, start_key: &[u8], limit: usize, min_len: usize) -> QueryExecution {
        let mut meter = WorkMeter::new();
        let query = self.recorder.open("spanner.query");

        let io = {
            let mut op = meter.scope("spanner.query");
            self.charge_rpc(&mut op, 128);

            let mut scanned = 0u64;
            let mut matched: u64 = 0;
            let mut response_bytes = 64u64;
            for (k, v) in self.state.range(start_key.to_vec()..) {
                scanned += 1;
                if v.len() >= min_len {
                    matched += 1;
                    response_bytes += (k.len() + v.len()) as u64;
                }
                if matched as usize >= limit || scanned >= (limit as u64) * 20 {
                    break;
                }
            }
            {
                let mut scan = op.scope("sql_scan");
                scan.charge_ops(
                    CoreComputeOp::Query,
                    "sql_predicate_eval",
                    scanned,
                    costs::QUERY_EVAL_NS_PER_ROW,
                );
                scan.charge_ops(
                    CoreComputeOp::Read,
                    "row_fetch",
                    matched,
                    costs::BTREE_OP_NS,
                );
                scan.charge_ops(
                    SystemTax::Stl,
                    "range_iter",
                    scanned,
                    costs::STL_NS_PER_ENTRY,
                );
                scan.charge_ops(CoreComputeOp::MiscCore, "plan_and_bind", 1, 8_000.0);
            }

            // Matched rows may hit storage for cold values.
            let io = self
                .store
                .read(Self::key_hash(start_key) ^ 0x51ca, response_bytes.max(256))
                .latency;
            op.charge_ops(
                SystemTax::FileSystems,
                "dfs_read",
                1,
                costs::FS_CLIENT_NS_PER_OP,
            );

            {
                let mut response = op.scope("response_encode");
                response.charge_bytes(
                    DatacenterTax::Protobuf,
                    "proto_encode",
                    response_bytes,
                    costs::PROTO_ENCODE_NS_PER_BYTE,
                );
                response.charge_bytes(
                    DatacenterTax::Compression,
                    "response_compress",
                    response_bytes,
                    costs::COMPRESS_NS_PER_BYTE,
                );
            }
            self.charge_rpc(&mut op, response_bytes);
            op.charge_ops(
                SystemTax::MiscSystem,
                "misc",
                1,
                costs::MISC_SYSTEM_NS_PER_QUERY,
            );
            io
        };

        self.finish_query(query, meter, io, SimDuration::ZERO, "query")
    }

    /// A read-modify-write transaction: strong read + conditional commit.
    pub fn read_modify_write(&mut self, key: Vec<u8>, new_value: Vec<u8>) -> QueryExecution {
        // Compose from the primitives, merging the execution records.
        let read_exec = self.read(&key);
        let commit_exec = self.commit(key, new_value);
        let mut spans = read_exec.spans;
        spans.reserve_exact(commit_exec.spans.len());
        spans.extend(commit_exec.spans);
        let mut cpu_work = read_exec.cpu_work;
        cpu_work.extend(commit_exec.cpu_work);
        QueryExecution {
            platform: Platform::Spanner,
            label: "read-modify-write",
            spans,
            cpu_work,
            request: self.recorder.request,
        }
    }

    fn key_hash(key: &[u8]) -> u64 {
        key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Spanner's span layout: CPU, then the consensus wait, then storage
    /// IO, each laid from the clock (a zero wait or IO lays no span); then
    /// the query tail.
    fn finish_query(
        &mut self,
        query: OpenQuery,
        meter: WorkMeter,
        io_time: SimDuration,
        remote_time: SimDuration,
        label: &'static str,
    ) -> QueryExecution {
        let recorder = &mut self.recorder;
        recorder.lay(&query, "cpu", SpanKind::Cpu, meter.total());
        if !remote_time.is_zero() {
            recorder.lay(&query, "consensus_wait", SpanKind::RemoteWork, remote_time);
        }
        if !io_time.is_zero() {
            recorder.lay(&query, "storage_io", SpanKind::Io, io_time);
        }
        recorder
            .telemetry
            .gauge_max(("spanner", "log_len_peak", ""), self.commits as u64);
        recorder.finish(Platform::Spanner, query, meter, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::CpuCategory;
    use hsdp_rng::{Rng, StdRng};
    use hsdp_taxes::protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
    use std::sync::Arc;

    fn db() -> Spanner {
        Spanner::new(7)
    }

    /// The commit record encoded as a dynamic `Message`: the oracle for
    /// `encode_txn`'s length.
    fn txn_message(key: &[u8], value: &[u8], clock: u64) -> Vec<u8> {
        let desc = Arc::new(
            MessageDescriptor::new(
                "TxnRequest",
                vec![
                    FieldDescriptor::required(1, "key", FieldType::Bytes),
                    FieldDescriptor::optional(2, "value", FieldType::Bytes),
                    FieldDescriptor::required(3, "timestamp", FieldType::Fixed64),
                ],
            )
            .unwrap(),
        );
        let mut msg = Message::new(desc);
        msg.set(1, Value::Bytes(key.to_vec())).unwrap();
        msg.set(2, Value::Bytes(value.to_vec())).unwrap();
        msg.set(3, Value::Fixed64(clock)).unwrap();
        msg.encode_to_vec()
    }

    #[test]
    fn txn_length_matches_the_message_encoding() {
        let mut rng = StdRng::seed_from_u64(0x7A11);
        let boundaries = [0, 1, 127, 128, 16_383, 16_384];
        let lens = boundaries
            .iter()
            .flat_map(|&k| boundaries.map(|v| (k, v)))
            .chain((0..200).map(|_| {
                (
                    rng.random_range(0..300usize),
                    rng.random_range(0..20_000usize),
                )
            }))
            .collect::<Vec<_>>();
        for (key_len, value_len) in lens {
            let (key, value) = (vec![b'k'; key_len], vec![b'v'; value_len]);
            let len = Spanner::encode_txn(&mut WorkMeter::new(), &key, &value);
            for clock in [0, u64::MAX] {
                assert_eq!(
                    len,
                    txn_message(&key, &value, clock).len() as u64,
                    "key {key_len} value {value_len} clock {clock}"
                );
            }
        }
    }

    #[test]
    fn commit_replicates_and_waits_on_quorum() {
        let mut s = db();
        let exec = s.commit(b"k1".to_vec(), b"v1".to_vec());
        let d = exec.decomposition();
        // Regional quorum wait: hundreds of microseconds of remote work.
        assert!(d.remote.as_secs_f64() > 2e-4, "remote {}", d.remote);
        assert_eq!(s.commits, 1);
        assert_eq!(s.state.get(b"k1".as_slice()), Some(&b"v1".to_vec()));
        // Consensus CPU was charged.
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Consensus)) > 0.0);
    }

    #[test]
    fn read_after_commit_is_fast_and_local() {
        let mut s = db();
        s.commit(b"k1".to_vec(), b"hello".to_vec());
        let exec = s.read(b"k1");
        let d = exec.decomposition();
        assert!(
            d.remote.as_secs_f64() < 1e-4,
            "strong leader reads avoid quorum waits"
        );
        assert!(!d.cpu.is_zero());
    }

    #[test]
    fn query_scans_and_filters() {
        let mut s = db();
        for i in 0..50 {
            let v = if i % 2 == 0 {
                vec![b'x'; 100]
            } else {
                vec![b'y'; 10]
            };
            s.commit(format!("row-{i:04}").into_bytes(), v);
        }
        let exec = s.query(b"row-", 10, 50);
        assert_eq!(exec.label, "query");
        let b = crate::meter::items_breakdown(&exec.cpu_work);
        assert!(b.share(CpuCategory::from(CoreComputeOp::Query)) > 0.0);
    }

    #[test]
    fn rmw_composes_read_and_commit() {
        let mut s = db();
        s.commit(b"ctr".to_vec(), b"1".to_vec());
        let exec = s.read_modify_write(b"ctr".to_vec(), b"2".to_vec());
        assert_eq!(exec.label, "read-modify-write");
        let d = exec.decomposition();
        assert!(
            d.remote.as_secs_f64() > 2e-4,
            "the commit leg pays consensus"
        );
        assert_eq!(s.commits, 2);
    }
}
