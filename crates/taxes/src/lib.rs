//! # hsdp-taxes
//!
//! Real, from-scratch implementations of the *datacenter tax* kernels the
//! paper identifies as dominant acceleration targets (Section 5.4, Table 2),
//! one module per kernel that `hsdp` runs:
//!
//! | Paper tax | Module | Run by |
//! |---|---|---|
//! | Protobuf (de)serialization | [`protowire`] (+ [`varint`]) | Spanner transactions, SSTable blocks, pprof export, history store |
//! | Compression | [`compress`](mod@compress) | BigTable SSTable blocks, BigQuery column chunks |
//! | Cryptography | [`sha3`] | Spanner commit digests |
//! | EDAC / checksums (system tax) | [`crc`] | Spanner replication, SSTable blocks, tablet routing, history frames |
//!
//! [`pprof`] dogfoods [`protowire`] to serialize profiler output in the
//! standard `profile.proto` format, and [`framed`] wraps protowire payloads
//! in the length-prefixed, CRC32C-checked container the per-commit
//! profile-history store (`hsdp-profiling::history`) appends to.
//!
//! The platforms run these kernels on real bytes, but simulated time never
//! comes from their speed: every tax category, including the
//! mem-allocation, RPC and data-movement taxes that have no kernel here, is
//! charged through `hsdp-platforms`' `WorkMeter` at `costs` rates. The
//! chained-accelerator validation in `hsdp-accelsim` uses [`protowire`] and
//! [`sha3`] as its pipeline stages, mirroring the paper's ProtoAcc → SHA3
//! RTL experiment (Section 6.4).
//!
//! Each kernel ships one implementation. CRC32C alone keeps two tiers, the
//! hardware `crc32` instruction ([`simd::crc`]) and portable slicing-by-8,
//! chosen once per process by [`dispatch`]. The slower originals that the
//! kernels are checked against (a bytewise CRC, a byte-at-a-time decoder)
//! are test code, kept next to the tests that use them.

// `deny` rather than `forbid`: the [`simd`] quarantine overrides it with a
// scoped allow. Everything outside `simd/` remains unsafe-free, enforced by
// `xtask audit --rule unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compress;
pub mod crc;
pub mod dispatch;
pub mod error;
pub mod framed;
pub mod pprof;
pub mod protowire;
pub mod sha3;
pub mod simd;
pub mod varint;

pub use compress::{compress, decompress};
pub use crc::crc32c;
pub use error::{CompressError, WireError};
pub use protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
pub use sha3::Sha3_256;
