//! Hardware-instruction fast paths — the **unsafe quarantine**.
//!
//! Everything `unsafe` in this crate lives under `simd/`, machine-enforced
//! by `xtask audit --rule unsafe` (any `unsafe` token outside a `simd`/`hw`
//! submodule is a finding, and every `unsafe` block in here must carry a
//! `// SAFETY:` comment). The crate root carries `deny(unsafe_code)`; only
//! this subtree opts back in.
//!
//! The one kernel here is the hardware CRC32C. The dispatched entry
//! (`crc::crc32c_append`, the one call site) reaches it only when
//! [`crate::dispatch::CpuFeatures`] reports the required instruction set,
//! detected once per process, so the `unsafe` precondition (the ISA
//! extension is present) always holds; [`crc::crc32c_fn`] hands that entry
//! to the tests when it runs the hardware tier. The fast path is
//! byte-identical to the slicing-by-8 tier it replaces, property-tested
//! against a bytewise oracle over random lengths and alignments.
#![allow(unsafe_code)]

pub mod crc;
