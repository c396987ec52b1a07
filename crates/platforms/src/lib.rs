//! # hsdp-platforms
//!
//! Simulated hyperscale data processing platforms — the synthetic stand-ins
//! for the paper's three production systems (Figure 1), built on the
//! workspace substrates and executing *real* data-structure and codec work
//! wherever something reads its result. A kernel whose output nothing reads
//! is charged, not run: Spanner sizes its commit records without encoding,
//! checksumming or hashing them, and BigTable and BigQuery count compressed
//! bytes without writing them (`hsdp_taxes::compress::compressed_len`).
//!
//! - [`spanner`] — a leader-led consensus group: replicated write log with
//!   quorum waits, strong reads, SQL-style scans.
//! - [`bigtable`] — LSM [`Tablet`]s behind a key router: memtable,
//!   bloom-filtered SSTables, compressed blocks, leveled compaction that
//!   surfaces as remote work.
//! - [`bigquery`] — a columnar staged query engine: compressed column
//!   scans, filter/aggregate/join/sort operators, a hash-partitioned
//!   distributed shuffle.
//!
//! Shared infrastructure: [`meter`] (labeled CPU work charging),
//! [`costs`] (the calibrated cost model), [`exec`] (per-query records and
//! the [`QueryRecorder`](exec::QueryRecorder) every engine writes them
//! through: clock, tracer, telemetry, request id, query tail and
//! record-free warmup), [`columnar`] (the column codec), [`bloom`] (cache-line-blocked filters),
//! [`merge`] (the loser-tree compaction merge), and [`runner`] (workload
//! drivers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bigquery;
pub mod bigtable;
pub mod bloom;
pub mod columnar;
pub mod costs;
pub mod exec;
pub mod merge;
pub mod meter;
pub mod runner;
pub mod spanner;

pub use bigquery::BigQuery;
pub use bigtable::{BigTableConfig, Tablet};
pub use exec::QueryExecution;
pub use meter::{CpuWorkItem, WorkMeter};
pub use runner::FleetConfig;
pub use spanner::Spanner;

/// The engines and their records cross threads: a fleet worker builds an
/// engine (a Spanner or BigQuery shard, or one BigTable tablet), runs it
/// and hands its records back. A field that is not `Send`
/// (a raw-pointer map key, say) fails the build here instead of at the
/// first caller that moves one. The engines are not `Sync`: their tiered
/// stores box a `CachePolicy` that is only `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Spanner>();
    assert_send::<Tablet>();
    assert_send::<BigQuery>();
    assert_send_sync::<bigtable::ScanAssembler>();
    assert_send_sync::<QueryExecution>();
    assert_send_sync::<WorkMeter>();
};
