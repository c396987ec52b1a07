//! # hsdp-taxes
//!
//! Real, from-scratch implementations of the *datacenter tax* operations the
//! paper identifies as dominant acceleration targets (Section 5.4, Table 2):
//!
//! | Paper tax | Module |
//! |---|---|
//! | Protobuf (de)serialization | [`protowire`] (+ [`varint`]) |
//! | Compression | [`compress`](mod@compress) |
//! | Cryptography | [`sha3`] |
//! | Mem. allocation | [`arena`] |
//! | RPC | [`frame`] |
//! | Data movement | [`memops`] |
//! | EDAC / checksums (system tax) | [`crc`] |
//!
//! [`pprof`] dogfoods [`protowire`] to serialize profiler output in the
//! standard `profile.proto` format, and [`framed`] wraps protowire payloads
//! in the length-prefixed, CRC32C-checked container the per-commit
//! profile-history store (`hsdp-profiling::history`) appends to.
//!
//! The platform simulators in `hsdp-platforms` execute these primitives on
//! their hot paths, so the profiling pipeline observes genuine tax work; the
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

pub mod arena;
pub mod compress;
pub mod crc;
pub mod dispatch;
pub mod error;
pub mod frame;
pub mod framed;
pub mod memops;
pub mod pprof;
pub mod protowire;
pub mod sha3;
pub mod simd;
pub mod varint;

pub use arena::{Arena, ArenaStats};
pub use compress::{compress, decompress};
pub use crc::crc32c;
pub use error::{CompressError, FrameError, WireError};
pub use frame::{Frame, FrameKind};
pub use memops::MoveCounter;
pub use protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
pub use sha3::{Sha3_256, Sha3_512};
