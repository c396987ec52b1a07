//! Error types for the tax-primitive codecs.

use std::error::Error;
use std::fmt;

/// Errors from the protobuf wire-format codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended in the middle of a varint.
    TruncatedVarint,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// Input ended before a declared field length.
    TruncatedField {
        /// Field number being decoded.
        field: u32,
    },
    /// A tag carried an unsupported wire type.
    UnknownWireType {
        /// The raw wire-type bits.
        wire_type: u8,
    },
    /// A field number was zero or exceeded the protobuf maximum.
    InvalidFieldNumber {
        /// The offending field number.
        field: u64,
    },
    /// A decoded field did not match its schema type.
    TypeMismatch {
        /// Field number.
        field: u32,
        /// What the schema expected.
        expected: &'static str,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8 {
        /// Field number.
        field: u32,
    },
    /// A required field was missing.
    MissingField {
        /// Field number.
        field: u32,
    },
    /// Nesting exceeded the decoder's recursion limit.
    RecursionLimit,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TruncatedVarint => write!(f, "input ended inside a varint"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::TruncatedField { field } => {
                write!(f, "input ended inside field {field}")
            }
            WireError::UnknownWireType { wire_type } => {
                write!(f, "unsupported wire type {wire_type}")
            }
            WireError::InvalidFieldNumber { field } => {
                write!(f, "invalid field number {field}")
            }
            WireError::TypeMismatch { field, expected } => {
                write!(f, "field {field} is not a {expected}")
            }
            WireError::InvalidUtf8 { field } => {
                write!(f, "field {field} holds invalid UTF-8")
            }
            WireError::MissingField { field } => {
                write!(f, "required field {field} is missing")
            }
            WireError::RecursionLimit => write!(f, "message nesting too deep"),
        }
    }
}

impl Error for WireError {}

/// Errors from the block compressor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompressError {
    /// Compressed input ended unexpectedly.
    Truncated,
    /// A back-reference pointed before the start of the output.
    InvalidBackref {
        /// Offset of the bad reference in the compressed stream.
        at: usize,
    },
    /// The stream header was malformed or versioned wrong.
    BadHeader,
    /// The decompressed length did not match the header's claim.
    LengthMismatch {
        /// Length the header declared.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
    /// Stored checksum did not match the decompressed payload.
    ChecksumMismatch,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::InvalidBackref { at } => {
                write!(f, "invalid back-reference at byte {at}")
            }
            CompressError::BadHeader => write!(f, "bad compressed stream header"),
            CompressError::LengthMismatch { expected, actual } => {
                write!(f, "decompressed {actual} bytes, header claimed {expected}")
            }
            CompressError::ChecksumMismatch => {
                write!(f, "checksum mismatch after decompression")
            }
        }
    }
}

impl Error for CompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_error() {
        fn check<T: Error + Send + Sync>() {}
        check::<WireError>();
        check::<CompressError>();
    }

    #[test]
    fn displays_are_informative() {
        assert!(WireError::TypeMismatch {
            field: 3,
            expected: "string"
        }
        .to_string()
        .contains("field 3"));
        assert!(CompressError::LengthMismatch {
            expected: 10,
            actual: 5
        }
        .to_string()
        .contains("10"));
    }
}
