//! A pprof `profile.proto` encoder/decoder over the [`crate::protowire`]
//! field reader and writers.
//!
//! The fleet profiler exports stack-tree profiles in pprof's wire format so
//! standard tooling (`pprof`, speedscope, Perfetto) can open them. This
//! module dogfoods the repo's own protobuf tax kernel: fields are written
//! with [`crate::protowire::put_bytes`] and its siblings and read with
//! [`crate::protowire::FieldReader`].
//!
//! Only the subset of `profile.proto` the exporter produces is modeled:
//! sample types, samples (packed location ids + values + string labels),
//! single-line locations, functions, the string table, period, and
//! duration. Unknown fields are skipped on decode, as protobuf requires.
//! The bytes are emitted raw (not gzipped); pprof auto-detects that.

use crate::error::WireError;
use crate::protowire::{put_bytes, put_varint, Field, FieldReader};
use crate::varint::{decode_varint, encode_varint};

/// `ValueType`: a measurement dimension, both indices into the string table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueType {
    /// String-table index of the type name (e.g. `"samples"`).
    pub kind: u64,
    /// String-table index of the unit (e.g. `"count"`).
    pub unit: u64,
}

/// `Label`: a string key/value annotation on a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// String-table index of the key.
    pub key: u64,
    /// String-table index of the value.
    pub str_value: u64,
}

/// `Sample`: one stack with its measured values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// Location ids, leaf first (pprof convention).
    pub location_ids: Vec<u64>,
    /// One value per entry in `Profile::sample_types`.
    pub values: Vec<i64>,
    /// String labels.
    pub labels: Vec<Label>,
}

/// `Location`: a resolved frame. The exporter emits exactly one line per
/// location, so the function id is stored flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Unique nonzero id.
    pub id: u64,
    /// Id of the function at this location.
    pub function_id: u64,
}

/// `Function`: a named frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Function {
    /// Unique nonzero id.
    pub id: u64,
    /// String-table index of the function name.
    pub name: u64,
}

/// An in-memory pprof profile (the modeled subset of `profile.proto`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// The measurement dimensions of every sample.
    pub sample_types: Vec<ValueType>,
    /// The samples.
    pub samples: Vec<Sample>,
    /// Frame locations.
    pub locations: Vec<Location>,
    /// Frame functions.
    pub functions: Vec<Function>,
    /// The string table; index 0 must be the empty string.
    pub string_table: Vec<String>,
    /// Profile duration in nanoseconds.
    pub duration_nanos: i64,
    /// The period dimension (what one sample costs).
    pub period_type: Option<ValueType>,
    /// Sampling period in `period_type` units.
    pub period: i64,
}

/// Errors from pprof decoding or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PprofError {
    /// The underlying wire format was malformed.
    Wire(WireError),
    /// A referenced id or string-table index does not exist.
    DanglingReference {
        /// What kind of reference dangled.
        what: &'static str,
        /// The offending id or index.
        id: u64,
    },
    /// The string table is empty or does not start with `""`.
    BadStringTable,
    /// A sample's value count does not match `sample_types`.
    ValueArity {
        /// Values found on the sample.
        got: usize,
        /// Dimensions declared by the profile.
        want: usize,
    },
}

impl std::fmt::Display for PprofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PprofError::Wire(e) => write!(f, "pprof wire error: {e}"),
            PprofError::DanglingReference { what, id } => {
                write!(f, "pprof {what} reference {id} does not resolve")
            }
            PprofError::BadStringTable => {
                write!(f, "pprof string table must start with the empty string")
            }
            PprofError::ValueArity { got, want } => {
                write!(f, "sample has {got} values but profile declares {want}")
            }
        }
    }
}

impl std::error::Error for PprofError {}

impl From<WireError> for PprofError {
    fn from(e: WireError) -> Self {
        PprofError::Wire(e)
    }
}

// profile.proto field numbers.
const PROFILE_SAMPLE_TYPE: u32 = 1;
const PROFILE_SAMPLE: u32 = 2;
const PROFILE_LOCATION: u32 = 4;
const PROFILE_FUNCTION: u32 = 5;
const PROFILE_STRING_TABLE: u32 = 6;
const PROFILE_DURATION_NANOS: u32 = 10;
const PROFILE_PERIOD_TYPE: u32 = 11;
const PROFILE_PERIOD: u32 = 12;
const VALUE_TYPE_TYPE: u32 = 1;
const VALUE_TYPE_UNIT: u32 = 2;
const SAMPLE_LOCATION_ID: u32 = 1;
const SAMPLE_VALUE: u32 = 2;
const SAMPLE_LABEL: u32 = 3;
const LABEL_KEY: u32 = 1;
const LABEL_STR: u32 = 2;
const LOCATION_ID: u32 = 1;
const LOCATION_LINE: u32 = 4;
const LINE_FUNCTION_ID: u32 = 1;
const FUNCTION_ID: u32 = 1;
const FUNCTION_NAME: u32 = 2;

fn encode_varint_field(field: u32, value: u64, out: &mut Vec<u8>) {
    if value != 0 {
        put_varint(field, value, out);
    }
}

fn encode_value_type(vt: ValueType, field: u32, out: &mut Vec<u8>) {
    let mut body = Vec::new();
    encode_varint_field(VALUE_TYPE_TYPE, vt.kind, &mut body);
    encode_varint_field(VALUE_TYPE_UNIT, vt.unit, &mut body);
    put_bytes(field, &body, out);
}

impl Profile {
    /// Encodes the profile into raw (non-gzipped) `profile.proto` bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &vt in &self.sample_types {
            encode_value_type(vt, PROFILE_SAMPLE_TYPE, &mut out);
        }
        for sample in &self.samples {
            let mut body = Vec::new();
            if !sample.location_ids.is_empty() {
                let mut packed = Vec::new();
                for &id in &sample.location_ids {
                    encode_varint(id, &mut packed);
                }
                put_bytes(SAMPLE_LOCATION_ID, &packed, &mut body);
            }
            if !sample.values.is_empty() {
                let mut packed = Vec::new();
                for &v in &sample.values {
                    // Protobuf int64: negative values take the two's
                    // complement 64-bit pattern.
                    // audit: allow(cast, i64 -> u64 two's complement reinterpretation is the protobuf wire rule)
                    encode_varint(v as u64, &mut packed);
                }
                put_bytes(SAMPLE_VALUE, &packed, &mut body);
            }
            for label in &sample.labels {
                let mut lab = Vec::new();
                encode_varint_field(LABEL_KEY, label.key, &mut lab);
                encode_varint_field(LABEL_STR, label.str_value, &mut lab);
                put_bytes(SAMPLE_LABEL, &lab, &mut body);
            }
            put_bytes(PROFILE_SAMPLE, &body, &mut out);
        }
        for loc in &self.locations {
            let mut body = Vec::new();
            encode_varint_field(LOCATION_ID, loc.id, &mut body);
            let mut line = Vec::new();
            encode_varint_field(LINE_FUNCTION_ID, loc.function_id, &mut line);
            put_bytes(LOCATION_LINE, &line, &mut body);
            put_bytes(PROFILE_LOCATION, &body, &mut out);
        }
        for func in &self.functions {
            let mut body = Vec::new();
            encode_varint_field(FUNCTION_ID, func.id, &mut body);
            encode_varint_field(FUNCTION_NAME, func.name, &mut body);
            put_bytes(PROFILE_FUNCTION, &body, &mut out);
        }
        for s in &self.string_table {
            put_bytes(PROFILE_STRING_TABLE, s.as_bytes(), &mut out);
        }
        // audit: allow(cast, i64 -> u64 two's complement reinterpretation is the protobuf wire rule)
        encode_varint_field(PROFILE_DURATION_NANOS, self.duration_nanos as u64, &mut out);
        if let Some(vt) = self.period_type {
            encode_value_type(vt, PROFILE_PERIOD_TYPE, &mut out);
        }
        // audit: allow(cast, i64 -> u64 two's complement reinterpretation is the protobuf wire rule)
        encode_varint_field(PROFILE_PERIOD, self.period as u64, &mut out);
        out
    }

    /// Decodes raw `profile.proto` bytes, skipping unknown fields.
    ///
    /// # Errors
    ///
    /// Returns a [`PprofError`] on malformed wire data.
    pub fn decode(buf: &[u8]) -> Result<Self, PprofError> {
        let mut profile = Profile::default();
        let mut fields = FieldReader::new(buf);
        while let Some((field, payload)) = next_field(&mut fields)? {
            match (field, payload) {
                (PROFILE_SAMPLE_TYPE, Field::Bytes(b)) => {
                    profile.sample_types.push(decode_value_type(b)?);
                }
                (PROFILE_SAMPLE, Field::Bytes(b)) => {
                    profile.samples.push(decode_sample(b)?);
                }
                (PROFILE_LOCATION, Field::Bytes(b)) => {
                    profile.locations.push(decode_location(b)?);
                }
                (PROFILE_FUNCTION, Field::Bytes(b)) => {
                    profile.functions.push(decode_function(b)?);
                }
                (PROFILE_STRING_TABLE, Field::Bytes(b)) => {
                    let s = std::str::from_utf8(b).map_err(|_| WireError::InvalidUtf8 { field })?;
                    profile.string_table.push(s.to_owned());
                }
                (PROFILE_DURATION_NANOS, Field::Varint(v)) => {
                    // audit: allow(cast, u64 -> i64 two's complement reinterpretation is the protobuf wire rule)
                    profile.duration_nanos = v as i64;
                }
                (PROFILE_PERIOD_TYPE, Field::Bytes(b)) => {
                    profile.period_type = Some(decode_value_type(b)?);
                }
                (PROFILE_PERIOD, Field::Varint(v)) => {
                    // audit: allow(cast, u64 -> i64 two's complement reinterpretation is the protobuf wire rule)
                    profile.period = v as i64;
                }
                _ => {}
            }
        }
        Ok(profile)
    }

    /// Looks up a string-table entry; out-of-range indices yield `""`.
    #[must_use]
    pub fn string(&self, index: u64) -> &str {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.string_table.get(i))
            .map_or("", String::as_str)
    }

    /// Resolves a sample's frame names, leaf first.
    #[must_use]
    pub fn sample_frames(&self, sample: &Sample) -> Vec<&str> {
        sample
            .location_ids
            .iter()
            .map(|loc_id| {
                let function_id = self
                    .locations
                    .iter()
                    .find(|l| l.id == *loc_id)
                    .map_or(0, |l| l.function_id);
                let name = self
                    .functions
                    .iter()
                    .find(|f| f.id == function_id)
                    .map_or(0, |f| f.name);
                self.string(name)
            })
            .collect()
    }

    /// Checks referential integrity: the string table starts with `""`,
    /// every sample value vector matches the declared dimensions, and every
    /// location/function/string reference resolves.
    ///
    /// # Errors
    ///
    /// Returns the first [`PprofError`] found.
    pub fn validate(&self) -> Result<(), PprofError> {
        if self.string_table.first().map(String::as_str) != Some("") {
            return Err(PprofError::BadStringTable);
        }
        let strings = self.string_table.len() as u64;
        let check_str = |idx: u64, what: &'static str| {
            if idx >= strings {
                Err(PprofError::DanglingReference { what, id: idx })
            } else {
                Ok(())
            }
        };
        for vt in self.sample_types.iter().chain(self.period_type.as_ref()) {
            check_str(vt.kind, "value-type string")?;
            check_str(vt.unit, "value-type string")?;
        }
        for func in &self.functions {
            check_str(func.name, "function name string")?;
        }
        for loc in &self.locations {
            if !self.functions.iter().any(|f| f.id == loc.function_id) {
                return Err(PprofError::DanglingReference {
                    what: "function",
                    id: loc.function_id,
                });
            }
        }
        for sample in &self.samples {
            if sample.values.len() != self.sample_types.len() {
                return Err(PprofError::ValueArity {
                    got: sample.values.len(),
                    want: self.sample_types.len(),
                });
            }
            for &loc_id in &sample.location_ids {
                if !self.locations.iter().any(|l| l.id == loc_id) {
                    return Err(PprofError::DanglingReference {
                        what: "location",
                        id: loc_id,
                    });
                }
            }
            for label in &sample.labels {
                check_str(label.key, "label key string")?;
                check_str(label.str_value, "label value string")?;
            }
        }
        Ok(())
    }
}

/// The next field of a pprof message body. pprof reads a fixed64 or
/// fixed32 payload on a scalar field as its number, so both arrive as
/// [`Field::Varint`].
fn next_field<'a>(fields: &mut FieldReader<'a>) -> Result<Option<(u32, Field<'a>)>, WireError> {
    Ok(fields.next_field()?.map(|(number, field)| match field {
        Field::Fixed64(v) => (number, Field::Varint(v)),
        Field::Fixed32(v) => (number, Field::Varint(u64::from(v))),
        other => (number, other),
    }))
}

fn decode_packed_u64(buf: &[u8]) -> Result<Vec<u64>, WireError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let (value, n) = decode_varint(&buf[pos..])?;
        pos += n;
        out.push(value);
    }
    Ok(out)
}

fn decode_value_type(buf: &[u8]) -> Result<ValueType, WireError> {
    let mut vt = ValueType::default();
    let mut fields = FieldReader::new(buf);
    while let Some((field, payload)) = next_field(&mut fields)? {
        match (field, payload) {
            (VALUE_TYPE_TYPE, Field::Varint(v)) => vt.kind = v,
            (VALUE_TYPE_UNIT, Field::Varint(v)) => vt.unit = v,
            _ => {}
        }
    }
    Ok(vt)
}

fn decode_sample(buf: &[u8]) -> Result<Sample, WireError> {
    let mut sample = Sample::default();
    let mut fields = FieldReader::new(buf);
    while let Some((field, payload)) = next_field(&mut fields)? {
        match (field, payload) {
            (SAMPLE_LOCATION_ID, Field::Bytes(b)) => {
                sample.location_ids.extend(decode_packed_u64(b)?);
            }
            (SAMPLE_LOCATION_ID, Field::Varint(v)) => sample.location_ids.push(v),
            (SAMPLE_VALUE, Field::Bytes(b)) => {
                sample.values.extend(
                    decode_packed_u64(b)?
                        .into_iter()
                        // audit: allow(cast, u64 -> i64 two's complement reinterpretation is the protobuf wire rule)
                        .map(|v| v as i64),
                );
            }
            // audit: allow(cast, u64 -> i64 two's complement reinterpretation is the protobuf wire rule)
            (SAMPLE_VALUE, Field::Varint(v)) => sample.values.push(v as i64),
            (SAMPLE_LABEL, Field::Bytes(b)) => {
                let mut label = Label {
                    key: 0,
                    str_value: 0,
                };
                let mut lab = FieldReader::new(b);
                while let Some((f, p)) = next_field(&mut lab)? {
                    match (f, p) {
                        (LABEL_KEY, Field::Varint(v)) => label.key = v,
                        (LABEL_STR, Field::Varint(v)) => label.str_value = v,
                        _ => {}
                    }
                }
                sample.labels.push(label);
            }
            _ => {}
        }
    }
    Ok(sample)
}

fn decode_location(buf: &[u8]) -> Result<Location, WireError> {
    let mut loc = Location {
        id: 0,
        function_id: 0,
    };
    let mut fields = FieldReader::new(buf);
    while let Some((field, payload)) = next_field(&mut fields)? {
        match (field, payload) {
            (LOCATION_ID, Field::Varint(v)) => loc.id = v,
            (LOCATION_LINE, Field::Bytes(b)) => {
                let mut line = FieldReader::new(b);
                while let Some((f, p)) = next_field(&mut line)? {
                    if let (LINE_FUNCTION_ID, Field::Varint(v)) = (f, p) {
                        loc.function_id = v;
                    }
                }
            }
            _ => {}
        }
    }
    Ok(loc)
}

fn decode_function(buf: &[u8]) -> Result<Function, WireError> {
    let mut func = Function { id: 0, name: 0 };
    let mut fields = FieldReader::new(buf);
    while let Some((field, payload)) = next_field(&mut fields)? {
        match (field, payload) {
            (FUNCTION_ID, Field::Varint(v)) => func.id = v,
            (FUNCTION_NAME, Field::Varint(v)) => func.name = v,
            _ => {}
        }
    }
    Ok(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protowire::{put_fixed32, put_fixed64};
    use hsdp_rng::{Rng, StdRng};

    fn sample_profile() -> Profile {
        Profile {
            // strings: 0:"" 1:samples 2:count 3:cpu 4:nanoseconds 5:main
            // 6:worker 7:category 8:core.read
            string_table: [
                "",
                "samples",
                "count",
                "cpu",
                "nanoseconds",
                "main",
                "worker",
                "category",
                "core.read",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
            sample_types: vec![
                ValueType { kind: 1, unit: 2 },
                ValueType { kind: 3, unit: 4 },
            ],
            functions: vec![Function { id: 1, name: 5 }, Function { id: 2, name: 6 }],
            locations: vec![
                Location {
                    id: 1,
                    function_id: 1,
                },
                Location {
                    id: 2,
                    function_id: 2,
                },
            ],
            samples: vec![Sample {
                location_ids: vec![2, 1], // leaf first: worker <- main
                values: vec![7, 14_000],
                labels: vec![Label {
                    key: 7,
                    str_value: 8,
                }],
            }],
            duration_nanos: 1_000_000,
            period_type: Some(ValueType { kind: 3, unit: 4 }),
            period: 2_000,
        }
    }

    #[test]
    fn round_trips_byte_identically_after_reencode() {
        let profile = sample_profile();
        let bytes = profile.encode();
        let decoded = Profile::decode(&bytes).expect("decodes");
        assert_eq!(decoded, profile);
        assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn validate_accepts_consistent_profiles() {
        sample_profile().validate().expect("valid");
    }

    #[test]
    fn validate_rejects_dangling_location() {
        let mut p = sample_profile();
        p.samples[0].location_ids.push(99);
        assert!(matches!(
            p.validate(),
            Err(PprofError::DanglingReference {
                what: "location",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_value_arity_mismatch() {
        let mut p = sample_profile();
        p.samples[0].values.pop();
        assert!(matches!(p.validate(), Err(PprofError::ValueArity { .. })));
    }

    #[test]
    fn validate_rejects_missing_empty_string() {
        let mut p = sample_profile();
        p.string_table[0] = "oops".to_owned();
        assert_eq!(p.validate(), Err(PprofError::BadStringTable));
    }

    #[test]
    fn sample_frames_resolve_leaf_first() {
        let p = sample_profile();
        assert_eq!(p.sample_frames(&p.samples[0]), vec!["worker", "main"]);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let profile = sample_profile();
        let mut bytes = profile.encode();
        // Append an unknown varint field (100) and an unknown
        // length-delimited field (101).
        put_varint(100, 42, &mut bytes);
        put_bytes(101, b"xyz", &mut bytes);
        let decoded = Profile::decode(&bytes).expect("unknown fields skipped");
        assert_eq!(decoded, profile);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = sample_profile().encode();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            // Truncation either errors or decodes a prefix; never panics.
            let _ = Profile::decode(&bytes[..cut]);
        }
        // A declared length past the end must error: a 1,000-byte sample
        // cut right after its length.
        let mut bad = Vec::new();
        put_bytes(PROFILE_SAMPLE, &[0; 1000], &mut bad);
        bad.truncate(3);
        assert!(Profile::decode(&bad).is_err());
    }

    #[test]
    fn negative_values_survive_the_wire() {
        let mut p = sample_profile();
        p.samples[0].values = vec![-5, 9];
        let decoded = Profile::decode(&p.encode()).expect("decodes");
        assert_eq!(decoded.samples[0].values, vec![-5, 9]);
    }

    /// The reader `Profile::decode` used before it read through
    /// `protowire::FieldReader`: a private field walker with its own
    /// length checks. It is the oracle for values and errors.
    mod former_reader {
        use super::super::*;
        use crate::protowire::{decode_tag, WireType};
        use crate::varint::decode_varint;

        enum Payload<'a> {
            Varint(u64),
            Bytes(&'a [u8]),
        }

        struct FieldReader<'a> {
            buf: &'a [u8],
            pos: usize,
        }

        impl<'a> FieldReader<'a> {
            fn new(buf: &'a [u8]) -> Self {
                FieldReader { buf, pos: 0 }
            }

            fn next_field(&mut self) -> Result<Option<(u32, Payload<'a>)>, WireError> {
                if self.pos >= self.buf.len() {
                    return Ok(None);
                }
                let (field, wire_type, consumed) = decode_tag(&self.buf[self.pos..])?;
                self.pos += consumed;
                let payload = match wire_type {
                    WireType::Varint => {
                        let (value, n) = decode_varint(&self.buf[self.pos..])?;
                        self.pos += n;
                        Payload::Varint(value)
                    }
                    WireType::LengthDelimited => {
                        let (len, n) = decode_varint(&self.buf[self.pos..])?;
                        self.pos += n;
                        let len = usize::try_from(len)
                            .map_err(|_| WireError::TruncatedField { field })?;
                        let end = self
                            .pos
                            .checked_add(len)
                            .filter(|&e| e <= self.buf.len())
                            .ok_or(WireError::TruncatedField { field })?;
                        let bytes = &self.buf[self.pos..end];
                        self.pos = end;
                        Payload::Bytes(bytes)
                    }
                    WireType::Fixed64 => {
                        if self.pos + 8 > self.buf.len() {
                            return Err(WireError::TruncatedField { field });
                        }
                        let mut raw = [0u8; 8];
                        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
                        self.pos += 8;
                        Payload::Varint(u64::from_le_bytes(raw))
                    }
                    WireType::Fixed32 => {
                        if self.pos + 4 > self.buf.len() {
                            return Err(WireError::TruncatedField { field });
                        }
                        let mut raw = [0u8; 4];
                        raw.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
                        self.pos += 4;
                        Payload::Varint(u64::from(u32::from_le_bytes(raw)))
                    }
                };
                Ok(Some((field, payload)))
            }
        }

        pub fn decode(buf: &[u8]) -> Result<Profile, PprofError> {
            let mut profile = Profile::default();
            let mut fields = FieldReader::new(buf);
            while let Some((field, payload)) = fields.next_field()? {
                match (field, payload) {
                    (PROFILE_SAMPLE_TYPE, Payload::Bytes(b)) => {
                        profile.sample_types.push(decode_value_type(b)?);
                    }
                    (PROFILE_SAMPLE, Payload::Bytes(b)) => {
                        profile.samples.push(decode_sample(b)?);
                    }
                    (PROFILE_LOCATION, Payload::Bytes(b)) => {
                        profile.locations.push(decode_location(b)?);
                    }
                    (PROFILE_FUNCTION, Payload::Bytes(b)) => {
                        profile.functions.push(decode_function(b)?);
                    }
                    (PROFILE_STRING_TABLE, Payload::Bytes(b)) => {
                        let s =
                            std::str::from_utf8(b).map_err(|_| WireError::InvalidUtf8 { field })?;
                        profile.string_table.push(s.to_owned());
                    }
                    (PROFILE_DURATION_NANOS, Payload::Varint(v)) => {
                        profile.duration_nanos = v as i64
                    }
                    (PROFILE_PERIOD_TYPE, Payload::Bytes(b)) => {
                        profile.period_type = Some(decode_value_type(b)?);
                    }
                    (PROFILE_PERIOD, Payload::Varint(v)) => profile.period = v as i64,
                    _ => {}
                }
            }
            Ok(profile)
        }

        fn decode_packed_u64(buf: &[u8]) -> Result<Vec<u64>, WireError> {
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < buf.len() {
                let (value, n) = decode_varint(&buf[pos..])?;
                pos += n;
                out.push(value);
            }
            Ok(out)
        }

        fn decode_value_type(buf: &[u8]) -> Result<ValueType, WireError> {
            let mut vt = ValueType::default();
            let mut fields = FieldReader::new(buf);
            while let Some((field, payload)) = fields.next_field()? {
                match (field, payload) {
                    (VALUE_TYPE_TYPE, Payload::Varint(v)) => vt.kind = v,
                    (VALUE_TYPE_UNIT, Payload::Varint(v)) => vt.unit = v,
                    _ => {}
                }
            }
            Ok(vt)
        }

        fn decode_sample(buf: &[u8]) -> Result<Sample, WireError> {
            let mut sample = Sample::default();
            let mut fields = FieldReader::new(buf);
            while let Some((field, payload)) = fields.next_field()? {
                match (field, payload) {
                    (SAMPLE_LOCATION_ID, Payload::Bytes(b)) => {
                        sample.location_ids.extend(decode_packed_u64(b)?);
                    }
                    (SAMPLE_LOCATION_ID, Payload::Varint(v)) => sample.location_ids.push(v),
                    (SAMPLE_VALUE, Payload::Bytes(b)) => {
                        sample
                            .values
                            .extend(decode_packed_u64(b)?.into_iter().map(|v| v as i64));
                    }
                    (SAMPLE_VALUE, Payload::Varint(v)) => sample.values.push(v as i64),
                    (SAMPLE_LABEL, Payload::Bytes(b)) => {
                        let mut label = Label {
                            key: 0,
                            str_value: 0,
                        };
                        let mut lab = FieldReader::new(b);
                        while let Some((f, p)) = lab.next_field()? {
                            match (f, p) {
                                (LABEL_KEY, Payload::Varint(v)) => label.key = v,
                                (LABEL_STR, Payload::Varint(v)) => label.str_value = v,
                                _ => {}
                            }
                        }
                        sample.labels.push(label);
                    }
                    _ => {}
                }
            }
            Ok(sample)
        }

        fn decode_location(buf: &[u8]) -> Result<Location, WireError> {
            let mut loc = Location {
                id: 0,
                function_id: 0,
            };
            let mut fields = FieldReader::new(buf);
            while let Some((field, payload)) = fields.next_field()? {
                match (field, payload) {
                    (LOCATION_ID, Payload::Varint(v)) => loc.id = v,
                    (LOCATION_LINE, Payload::Bytes(b)) => {
                        let mut line = FieldReader::new(b);
                        while let Some((f, p)) = line.next_field()? {
                            if let (LINE_FUNCTION_ID, Payload::Varint(v)) = (f, p) {
                                loc.function_id = v;
                            }
                        }
                    }
                    _ => {}
                }
            }
            Ok(loc)
        }

        fn decode_function(buf: &[u8]) -> Result<Function, WireError> {
            let mut func = Function { id: 0, name: 0 };
            let mut fields = FieldReader::new(buf);
            while let Some((field, payload)) = fields.next_field()? {
                match (field, payload) {
                    (FUNCTION_ID, Payload::Varint(v)) => func.id = v,
                    (FUNCTION_NAME, Payload::Varint(v)) => func.name = v,
                    _ => {}
                }
            }
            Ok(func)
        }
    }

    /// A stack profile shaped like the fleet's `stacks.pb`: two sample
    /// dimensions, leaf-first stacks over shared locations, category
    /// labels, and negative values now and then.
    fn random_profile(rng: &mut StdRng) -> Profile {
        let frames = rng.random_range(1u64..12);
        let mut string_table = vec![String::new()];
        string_table
            .extend(["samples", "count", "cpu", "nanoseconds", "category"].map(String::from));
        string_table.extend((0..frames).map(|i| format!("frame{i};ä")));
        let strings = string_table.len() as u64;
        Profile {
            sample_types: vec![
                ValueType { kind: 1, unit: 2 },
                ValueType { kind: 3, unit: 4 },
            ],
            samples: (0..rng.random_range(0usize..10))
                .map(|_| Sample {
                    location_ids: (0..rng.random_range(1usize..6))
                        .map(|_| rng.random_range(1..=frames))
                        .collect(),
                    values: vec![rng.random_range(-2i64..200), rng.random::<i64>() >> 20],
                    labels: vec![Label {
                        key: 5,
                        str_value: rng.random_range(0..strings),
                    }],
                })
                .collect(),
            locations: (1..=frames)
                .map(|id| Location {
                    id,
                    function_id: id,
                })
                .collect(),
            functions: (1..=frames)
                .map(|id| Function { id, name: 5 + id })
                .collect(),
            string_table,
            duration_nanos: rng.random::<i64>() >> rng.random_range(0u32..64),
            period_type: Some(ValueType { kind: 3, unit: 4 }),
            period: rng.random_range(0i64..5_000),
        }
    }

    #[test]
    fn mutated_profiles_decode_like_the_former_reader() {
        let mut rng = StdRng::seed_from_u64(0x9970_F11B);
        let mut outcomes = [0usize; 2];
        for _ in 0..20 {
            let bytes = random_profile(&mut rng).encode();
            let mut cases: Vec<Vec<u8>> =
                (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
            for _ in 0..150 {
                let mut flipped = bytes.clone();
                flipped[rng.random_range(0..bytes.len())] ^= 1 << rng.random_range(0u32..8);
                cases.push(flipped);
                let mut inserted = bytes.clone();
                inserted.insert(rng.random_range(0..=bytes.len()), 0xff);
                cases.push(inserted);
            }
            for case in &cases {
                let decoded = Profile::decode(case);
                assert_eq!(decoded, former_reader::decode(case), "input {case:02x?}");
                outcomes[usize::from(decoded.is_err())] += 1;
            }
        }
        // The mutations reach both outcomes, not only one of them.
        assert!(outcomes.iter().all(|&n| n > 500), "ok/err: {outcomes:?}");
    }

    #[test]
    fn scalar_fields_read_any_fixed_width_payload_as_their_number() {
        let mut bytes = Vec::new();
        // duration_nanos as fixed64, period as fixed32.
        put_fixed64(PROFILE_DURATION_NANOS, (-3i64) as u64, &mut bytes);
        put_fixed32(PROFILE_PERIOD, 7, &mut bytes);
        let decoded = Profile::decode(&bytes).expect("decodes");
        assert_eq!((decoded.duration_nanos, decoded.period), (-3, 7));
        assert_eq!(former_reader::decode(&bytes), Ok(decoded));
    }
}
